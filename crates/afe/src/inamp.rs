//! The instrumentation-amplifier readout stage.
//!
//! The paper: "The input channel is configured to operate as instrument
//! amplifier". The behavioural model carries the error terms that matter for
//! the resolution claims: programmable gain with gain error, input offset
//! with temperature drift, single-pole bandwidth, input-referred white +
//! flicker noise, and saturation at the supply rails.

use crate::error::{ensure_in_range, ensure_positive};
use crate::noise::{noise_sample, FlickerNoise};
use crate::AfeError;
use hotwire_physics::stochastic::standard_normal;
use hotwire_units::{Hertz, Volts};
use rand::Rng;

/// Static instrumentation-amplifier parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InAmpConfig {
    /// Differential gain setting.
    pub gain: f64,
    /// Relative gain error (e.g. 0.002 = 0.2 %).
    pub gain_error: f64,
    /// Input-referred offset voltage.
    pub input_offset: Volts,
    /// Offset drift per kelvin of chip temperature (V/K).
    pub offset_drift_per_k: f64,
    /// −3 dB bandwidth of the closed-loop amplifier.
    pub bandwidth: Hertz,
    /// Input-referred white-noise density, V/√Hz.
    pub noise_density: f64,
    /// Input-referred flicker-noise rms over the signal band, V.
    pub flicker_rms: Volts,
    /// Output saturation rails (symmetric, ±).
    pub rail: Volts,
}

impl InAmpConfig {
    /// The ISIF channel configured for the MAF bridge: gain 50, ~10 nV/√Hz,
    /// 0.2 mV offset, 100 kHz bandwidth, ±2.5 V rails (0.35 µm BCD supply).
    pub fn isif_default() -> Self {
        InAmpConfig {
            gain: 50.0,
            gain_error: 0.002,
            input_offset: Volts::from_millivolts(0.2),
            offset_drift_per_k: 2.0e-6,
            bandwidth: Hertz::from_kilohertz(100.0),
            noise_density: 10.0e-9,
            flicker_rms: Volts::new(0.4e-6),
            rail: Volts::new(2.5),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] for non-positive gain/bandwidth/rails or a gain
    /// error above 10 %.
    pub fn validate(&self) -> Result<(), AfeError> {
        ensure_positive("gain", self.gain)?;
        ensure_in_range("gain_error", self.gain_error, -0.1, 0.1)?;
        ensure_positive("bandwidth", self.bandwidth.get())?;
        ensure_positive("rail", self.rail.get())?;
        ensure_in_range("noise_density", self.noise_density, 0.0, 1e-3)?;
        Ok(())
    }
}

impl Default for InAmpConfig {
    fn default() -> Self {
        InAmpConfig::isif_default()
    }
}

/// An amplifier's output pole with its per-block constants folded in
/// ([`InstrumentationAmp::pole`]): offset at the chip over-temperature,
/// gain and gain error, pole coefficient and rails. For `N > 1` it banks
/// `N` amplifiers' poles in lane arrays; [`step_lanes`](Self::step_lanes)
/// is the amplifier's one per-sample transfer either way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmpPole<const N: usize = 1> {
    state: [f64; N],
    offset: [f64; N],
    gain: [f64; N],
    gain_scale: [f64; N],
    alpha: [f64; N],
    rail: [f64; N],
}

impl<const N: usize> AmpPole<N> {
    /// Banks single poles lane by lane.
    pub fn from_lanes(poles: [AmpPole; N]) -> Self {
        AmpPole {
            state: core::array::from_fn(|j| poles[j].state[0]),
            offset: core::array::from_fn(|j| poles[j].offset[0]),
            gain: core::array::from_fn(|j| poles[j].gain[0]),
            gain_scale: core::array::from_fn(|j| poles[j].gain_scale[0]),
            alpha: core::array::from_fn(|j| poles[j].alpha[0]),
            rail: core::array::from_fn(|j| poles[j].rail[0]),
        }
    }

    /// Lane `j` of the bank as a single pole.
    ///
    /// # Panics
    ///
    /// Panics if `j >= N`.
    pub fn lane(&self, j: usize) -> AmpPole {
        AmpPole {
            state: [self.state[j]],
            offset: [self.offset[j]],
            gain: [self.gain[j]],
            gain_scale: [self.gain_scale[j]],
            alpha: [self.alpha[j]],
            rail: [self.rail[j]],
        }
    }

    /// Amplifies one differential sample (volts) per lane, with its
    /// pre-drawn input-referred noise, through the gain, the single
    /// bandwidth pole and the rail clamp.
    #[inline]
    pub fn step_lanes(&mut self, v_diff: [f64; N], noise: [f64; N]) -> [f64; N] {
        let mut out = [0.0; N];
        for j in 0..N {
            let ideal = (v_diff[j] + self.offset[j] + noise[j]) * self.gain[j] * self.gain_scale[j];
            // Single-pole bandwidth limit at the sampler rate.
            self.state[j] += self.alpha[j] * (ideal - self.state[j]);
            out[j] = self.state[j].clamp(-self.rail[j], self.rail[j]);
        }
        out
    }
}

/// An amplifier's input-referred noise source — white plus flicker — taken
/// out with [`InstrumentationAmp::noise`] and handed back with
/// [`InstrumentationAmp::set_noise`]. For `N > 1` it banks `N` amplifiers'
/// sources in lane arrays; [`draw_lanes`](Self::draw_lanes) is the one
/// per-tick draw either way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmpNoise<const N: usize = 1> {
    /// Per-sample white-noise rms at the sample rate, volts.
    white_rms: [f64; N],
    flicker: FlickerNoise<N>,
}

impl<const N: usize> AmpNoise<N> {
    /// Banks single sources lane by lane.
    pub fn from_lanes(sources: [AmpNoise; N]) -> Self {
        AmpNoise {
            white_rms: core::array::from_fn(|j| sources[j].white_rms[0]),
            flicker: FlickerNoise::from_lanes(core::array::from_fn(|j| sources[j].flicker)),
        }
    }

    /// Lane `j` of the bank as a single source.
    ///
    /// # Panics
    ///
    /// Panics if `j >= N`.
    pub fn lane(&self, j: usize) -> AmpNoise {
        AmpNoise {
            white_rms: [self.white_rms[j]],
            flicker: self.flicker.lane(j),
        }
    }

    /// Draws one tick's input-referred noise sample per lane. The RNG is
    /// read lane by lane — each lane's white sample, then its flicker
    /// drive — which is the order `N` single sources drawn one after the
    /// other read it in; the flicker poles then advance lane-wise.
    #[inline]
    pub fn draw_lanes<R: Rng + ?Sized>(&mut self, rng: &mut R) -> [f64; N] {
        let mut white = [0.0; N];
        let mut drive = [0.0; N];
        for j in 0..N {
            white[j] = noise_sample(rng, Volts::new(self.white_rms[j])).get();
            drive[j] = standard_normal(rng);
        }
        let flicker = self.flicker.advance(drive);
        core::array::from_fn(|j| white[j] + flicker[j])
    }
}

/// The stateful amplifier (bandwidth pole + flicker generator).
#[derive(Debug, Clone)]
pub struct InstrumentationAmp {
    config: InAmpConfig,
    /// Output-pole state.
    output_state: f64,
    /// Discrete pole coefficient `1 − exp(−2π·bw/fs)`, a pure function of
    /// the configuration — precomputed once so the per-sample path carries
    /// no `exp`.
    alpha: f64,
    /// White-noise rms at the configured sample rate and the flicker
    /// generator.
    noise: AmpNoise,
}

impl InstrumentationAmp {
    /// Creates an amplifier stepped at `sample_rate` (the ΣΔ modulator
    /// clock).
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] for an invalid configuration or non-positive
    /// sample rate.
    pub fn new(config: InAmpConfig, sample_rate: Hertz) -> Result<Self, AfeError> {
        config.validate()?;
        ensure_positive("sample_rate", sample_rate.get())?;
        // White noise folded into the Nyquist band of the sampler.
        let white_rms = config.noise_density * (sample_rate.get() / 2.0).sqrt();
        let alpha =
            1.0 - (-core::f64::consts::TAU * config.bandwidth.get() / sample_rate.get()).exp();
        Ok(InstrumentationAmp {
            noise: AmpNoise {
                white_rms: [white_rms],
                flicker: FlickerNoise::new(config.flicker_rms.get(), sample_rate.get()),
            },
            config,
            output_state: 0.0,
            alpha,
        })
    }

    /// The active configuration.
    #[inline]
    pub fn config(&self) -> &InAmpConfig {
        &self.config
    }

    /// Input-referred rms of the white-noise component at this sample rate.
    #[inline]
    pub fn white_noise_rms(&self) -> Volts {
        Volts::new(self.noise.white_rms[0])
    }

    /// Amplifies one differential sample. `chip_overtemp_k` is the chip
    /// temperature rise above the 25 °C characterization point (drives offset
    /// drift).
    pub fn amplify<R: Rng + ?Sized>(
        &mut self,
        v_diff: Volts,
        chip_overtemp_k: f64,
        rng: &mut R,
    ) -> Volts {
        let noise = self.draw_noise(rng);
        self.amplify_with_noise(v_diff, chip_overtemp_k, noise)
    }

    /// Draws the input-referred noise sample (white + flicker) for one tick
    /// — exactly the draws [`amplify`](Self::amplify) makes internally,
    /// split out so a block caller can pre-draw per-block noise sequences
    /// in the scalar RNG order. The one-lane case of
    /// [`AmpNoise::draw_lanes`].
    #[inline]
    pub fn draw_noise<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let [noise] = self.noise.draw_lanes(rng);
        noise
    }

    /// The noise source, for banking several amplifiers' sources with
    /// [`AmpNoise::from_lanes`]; [`set_noise`](Self::set_noise) hands the
    /// advanced source back.
    #[inline]
    pub fn noise(&self) -> AmpNoise {
        self.noise
    }

    /// Stores a noise source taken with [`noise`](Self::noise) and drawn
    /// from since.
    #[inline]
    pub fn set_noise(&mut self, noise: AmpNoise) {
        self.noise = noise;
    }

    /// Amplifies one sample whose noise was already drawn with
    /// [`draw_noise`](Self::draw_noise). Together the pair is bit-identical
    /// to [`amplify`](Self::amplify).
    #[inline]
    pub fn amplify_with_noise(&mut self, v_diff: Volts, chip_overtemp_k: f64, noise: f64) -> Volts {
        let mut pole = self.pole(chip_overtemp_k);
        let [v] = pole.step_lanes([v_diff.get()], [noise]);
        self.set_pole(pole);
        Volts::new(v)
    }

    /// The output pole with the per-block constants at chip over-temperature
    /// `chip_overtemp_k` folded in — what a block walk steps per sample on a
    /// local copy. [`set_pole`](Self::set_pole) stores the walked state
    /// back.
    #[inline]
    pub fn pole(&self, chip_overtemp_k: f64) -> AmpPole {
        AmpPole {
            state: [self.output_state],
            offset: [
                self.config.input_offset.get() + self.config.offset_drift_per_k * chip_overtemp_k
            ],
            gain: [self.config.gain],
            gain_scale: [1.0 + self.config.gain_error],
            alpha: [self.alpha],
            rail: [self.config.rail.get()],
        }
    }

    /// Stores the state of a pole taken with [`pole`](Self::pole) and
    /// stepped since.
    #[inline]
    pub fn set_pole(&mut self, pole: AmpPole) {
        self.output_state = pole.state[0];
    }

    /// The amplifier's DC transfer — offset, gain and rail clamp with no
    /// pole dynamics. The fast AFE tier uses this to map a quasi-static
    /// bridge voltage straight to the output level the full chain would
    /// settle to.
    pub fn dc_output(&self, v_diff: Volts, chip_overtemp_k: f64, noise: f64) -> Volts {
        let offset =
            self.config.input_offset.get() + self.config.offset_drift_per_k * chip_overtemp_k;
        let ideal =
            (v_diff.get() + offset + noise) * self.config.gain * (1.0 + self.config.gain_error);
        Volts::new(ideal.clamp(-self.config.rail.get(), self.config.rail.get()))
    }

    /// Clears the internal pole state.
    pub fn reset(&mut self) {
        self.output_state = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xF00D)
    }

    fn quiet_config() -> InAmpConfig {
        InAmpConfig {
            gain_error: 0.0,
            input_offset: Volts::ZERO,
            offset_drift_per_k: 0.0,
            noise_density: 0.0,
            flicker_rms: Volts::ZERO,
            ..InAmpConfig::isif_default()
        }
    }

    #[test]
    fn dc_gain() {
        let mut amp =
            InstrumentationAmp::new(quiet_config(), Hertz::from_kilohertz(256.0)).unwrap();
        let mut r = rng();
        let mut y = Volts::ZERO;
        for _ in 0..10_000 {
            y = amp.amplify(Volts::from_millivolts(10.0), 0.0, &mut r);
        }
        assert!((y.get() - 0.5).abs() < 1e-6, "out {y}");
    }

    #[test]
    fn offset_is_amplified() {
        let cfg = InAmpConfig {
            input_offset: Volts::from_millivolts(1.0),
            ..quiet_config()
        };
        let mut amp = InstrumentationAmp::new(cfg, Hertz::from_kilohertz(256.0)).unwrap();
        let mut r = rng();
        let mut y = Volts::ZERO;
        for _ in 0..10_000 {
            y = amp.amplify(Volts::ZERO, 0.0, &mut r);
        }
        assert!((y.get() - 0.05).abs() < 1e-6, "offset out {y}");
    }

    #[test]
    fn offset_drifts_with_chip_temperature() {
        let cfg = InAmpConfig {
            offset_drift_per_k: 10e-6,
            ..quiet_config()
        };
        let mut amp = InstrumentationAmp::new(cfg, Hertz::from_kilohertz(256.0)).unwrap();
        let mut r = rng();
        let mut cold = Volts::ZERO;
        let mut hot = Volts::ZERO;
        for _ in 0..10_000 {
            cold = amp.amplify(Volts::ZERO, 0.0, &mut r);
        }
        amp.reset();
        for _ in 0..10_000 {
            hot = amp.amplify(Volts::ZERO, 20.0, &mut r);
        }
        // 20 K × 10 µV/K × gain 50 = 10 mV shift.
        assert!(((hot - cold).get() - 0.01).abs() < 1e-5);
    }

    #[test]
    fn saturates_at_rails() {
        let mut amp =
            InstrumentationAmp::new(quiet_config(), Hertz::from_kilohertz(256.0)).unwrap();
        let mut r = rng();
        let mut y = Volts::ZERO;
        for _ in 0..10_000 {
            y = amp.amplify(Volts::new(1.0), 0.0, &mut r);
        }
        assert_eq!(y.get(), 2.5);
    }

    #[test]
    fn bandwidth_attenuates_fast_input() {
        // A 20 kHz pole stepped at 256 kHz: the discrete pole's Nyquist gain
        // is α/(2−α) ≈ 0.24, so a ±10 mV (→ ±0.5 V after gain) alternating
        // input must come out well under 0.15 V.
        let cfg = InAmpConfig {
            bandwidth: Hertz::from_kilohertz(20.0),
            ..quiet_config()
        };
        let mut amp = InstrumentationAmp::new(cfg, Hertz::from_kilohertz(256.0)).unwrap();
        let mut r = rng();
        let mut peak: f64 = 0.0;
        for i in 0..20_000 {
            let x = if i % 2 == 0 { 1e-2 } else { -1e-2 };
            let y = amp.amplify(Volts::new(x), 0.0, &mut r);
            if i > 10_000 {
                peak = peak.max(y.get().abs());
            }
        }
        assert!(peak < 0.15, "128 kHz leakage {peak} V");
        assert!(peak > 0.0);
    }

    #[test]
    fn noise_floor_scales_with_density() {
        let cfg = InAmpConfig {
            noise_density: 10e-9,
            flicker_rms: Volts::ZERO,
            input_offset: Volts::ZERO,
            ..InAmpConfig::isif_default()
        };
        let fs = Hertz::from_kilohertz(256.0);
        let amp = InstrumentationAmp::new(cfg, fs).unwrap();
        // 10 nV/√Hz over 128 kHz → 3.58 µV rms input-referred.
        assert!((amp.white_noise_rms().get() - 3.58e-6).abs() < 0.05e-6);
    }

    #[test]
    fn rejects_bad_configs() {
        let bad = InAmpConfig {
            gain: 0.0,
            ..InAmpConfig::isif_default()
        };
        assert!(InstrumentationAmp::new(bad, Hertz::from_kilohertz(256.0)).is_err());
        assert!(InstrumentationAmp::new(InAmpConfig::isif_default(), Hertz::new(0.0)).is_err());
    }
}
