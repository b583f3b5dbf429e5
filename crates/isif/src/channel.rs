//! One configurable analog input channel (paper Fig. 4).
//!
//! "The readout stage is composed by an operational amplifier that can be
//! programmed to implement a charge amplifier, a trans-resistive stage or an
//! instrument amplifier … Further stages perform … low-pass filtering for
//! anti-aliasing purpose. Eventually the signal is converted by a 16 bits
//! Sigma Delta ADC."
//!
//! The channel couples those AFE blocks with the first digital stage (the
//! CIC decimator) so callers push analog samples at the modulator rate and
//! receive signed 16-bit words at the control rate.

use crate::IsifError;
use hotwire_afe::adc::SigmaDeltaModulator;
use hotwire_afe::filter::AntiAliasFilter;
use hotwire_afe::inamp::{InAmpConfig, InstrumentationAmp};
use hotwire_dsp::cic::CicDecimator;
use hotwire_units::{Amps, Hertz, Volts};
use rand::Rng;

/// The programmable readout mode of the channel's input stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadoutMode {
    /// Differential instrumentation amplifier (the MAF bridge readout).
    Instrumentation,
    /// Trans-resistive stage: input current × feedback resistance.
    TransResistive {
        /// Feedback resistance (V/A).
        feedback_ohms: f64,
    },
    /// Charge amplifier: integrates input charge onto a feedback capacitor.
    ChargeAmp {
        /// Feedback capacitance in farads.
        feedback_farads: f64,
    },
}

/// The analog sample a channel accepts, depending on its readout mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnalogInput {
    /// A differential voltage (instrumentation mode).
    Differential(Volts),
    /// An input current (trans-resistive mode).
    Current(Amps),
    /// An input charge slug in coulombs (charge-amp mode).
    Charge(f64),
}

/// Static channel configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelConfig {
    /// Input-stage mode.
    pub mode: ReadoutMode,
    /// Instrumentation-amplifier parameters (gain, offset, noise, …).
    pub inamp: InAmpConfig,
    /// Anti-alias corner.
    pub antialias_corner: Hertz,
    /// ΣΔ reference (full scale ±vref).
    pub vref: Volts,
    /// CIC order for the decimation chain.
    pub cic_order: usize,
    /// Decimation ratio modulator-rate → control-rate.
    pub decimation: u32,
}

impl ChannelConfig {
    /// The MAF-bridge channel: instrumentation mode, ISIF default in-amp,
    /// 30 kHz anti-alias, ±2.5 V, CIC³, decimate by 256.
    pub fn maf_bridge() -> Self {
        ChannelConfig {
            mode: ReadoutMode::Instrumentation,
            inamp: InAmpConfig::isif_default(),
            antialias_corner: Hertz::from_kilohertz(30.0),
            vref: Volts::new(2.5),
            cic_order: 3,
            decimation: 256,
        }
    }
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig::maf_bridge()
    }
}

/// A complete input channel: readout stage → anti-alias → ΣΔ → CIC.
#[derive(Debug)]
pub struct InputChannel {
    config: ChannelConfig,
    inamp: InstrumentationAmp,
    antialias: AntiAliasFilter,
    modulator: SigmaDeltaModulator,
    cic: CicDecimator,
    /// Charge-amp integrator state (coulombs on the feedback cap).
    charge_state: f64,
    /// Scale factor turning the CIC's raw output into a signed 16-bit word.
    norm_shift: u32,
    /// Reusable buffer for the CIC's raw block outputs (no per-frame
    /// allocation on the block path).
    cic_scratch: Vec<i64>,
}

impl InputChannel {
    /// Builds a channel stepped at `modulator_rate`.
    ///
    /// # Errors
    ///
    /// Returns [`IsifError::Config`] if any sub-block rejects its
    /// parameters.
    pub fn new(config: ChannelConfig, modulator_rate: Hertz) -> Result<Self, IsifError> {
        let inamp = InstrumentationAmp::new(config.inamp, modulator_rate)?;
        let antialias = AntiAliasFilter::new(config.antialias_corner, modulator_rate)?;
        let modulator = SigmaDeltaModulator::new(config.vref)?;
        let cic = CicDecimator::new(config.cic_order, config.decimation)?;
        // CIC gain is R^N for a ±1 input; map full scale to ±2^15.
        let gain_bits = (cic.gain() as f64).log2().ceil() as u32;
        let norm_shift = gain_bits.saturating_sub(15);
        Ok(InputChannel {
            config,
            inamp,
            antialias,
            modulator,
            cic,
            charge_state: 0.0,
            norm_shift,
            cic_scratch: Vec::new(),
        })
    }

    /// The active configuration.
    #[inline]
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// Control-rate sample period in modulator ticks.
    #[inline]
    pub fn decimation(&self) -> u32 {
        self.config.decimation
    }

    /// Converts an analog input to the in-amp's differential voltage
    /// according to the readout mode.
    fn front_end(&mut self, input: AnalogInput) -> Volts {
        match (self.config.mode, input) {
            (ReadoutMode::Instrumentation, AnalogInput::Differential(v)) => v,
            (ReadoutMode::TransResistive { feedback_ohms }, AnalogInput::Current(i)) => {
                Volts::new(i.get() * feedback_ohms)
            }
            (ReadoutMode::ChargeAmp { feedback_farads }, AnalogInput::Charge(q)) => {
                // Leaky integration of charge onto the feedback cap.
                self.charge_state = self.charge_state * 0.9999 + q;
                Volts::new(self.charge_state / feedback_farads)
            }
            // Mode/input mismatch: the mux simply reads zero (the silicon
            // would read a floating node; zero is the benign model).
            _ => Volts::ZERO,
        }
    }

    /// Pushes one modulator-rate analog sample; returns a signed 16-bit word
    /// every `decimation` samples.
    ///
    /// `chip_overtemp_k` models platform self-heating (drives in-amp offset
    /// drift); the RNG feeds the noise sources.
    pub fn sample<R: Rng + ?Sized>(
        &mut self,
        input: AnalogInput,
        chip_overtemp_k: f64,
        rng: &mut R,
    ) -> Option<i32> {
        let v_diff = self.front_end(input);
        let amplified = self.inamp.amplify(v_diff, chip_overtemp_k, rng);
        let filtered = self.antialias.push(amplified);
        let bit = self.modulator.push(filtered);
        self.cic
            .push(bit)
            .map(|raw| ((raw >> self.norm_shift) as i32).clamp(-32768, 32767))
    }

    /// Draws the per-tick input-referred noise sample for this channel —
    /// exactly the RNG draws [`sample`](Self::sample) makes internally
    /// (white then flicker), split out so a frame caller can pre-draw noise
    /// lanes in the scalar draw order before running the block kernels.
    pub fn draw_noise<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.inamp.draw_noise(rng)
    }

    /// Pushes a block of instrumentation-mode differential samples through
    /// the full chain (in-amp → anti-alias → ΣΔ → CIC), appending every
    /// decimated 16-bit word produced to `out`.
    ///
    /// `diffs` holds the differential inputs in volts; `noises` holds one
    /// pre-drawn [`draw_noise`](Self::draw_noise) value per tick; `bits` is
    /// scratch for the modulator bitstream. The three analog stages run as
    /// one fused register-hoisted pass
    /// ([`hotwire_afe::chain::amplify_filter_modulate_block`]), then the
    /// CIC walks the bitstream. Bit-identical to the equivalent sequence
    /// of scalar `sample(AnalogInput::Differential(..))` calls whose noise
    /// was drawn in the same RNG order.
    ///
    /// # Panics
    ///
    /// Panics if the channel is not in instrumentation mode or the slice
    /// lengths disagree.
    pub fn sample_block(
        &mut self,
        diffs: &[f64],
        noises: &[f64],
        bits: &mut [i32],
        chip_overtemp_k: f64,
        out: &mut Vec<i32>,
    ) {
        assert!(
            matches!(self.config.mode, ReadoutMode::Instrumentation),
            "sample_block supports instrumentation mode only"
        );
        hotwire_afe::chain::amplify_filter_modulate_block(
            &mut self.inamp,
            &mut self.antialias,
            &mut self.modulator,
            diffs,
            noises,
            chip_overtemp_k,
            bits,
        );
        self.cic_scratch.clear();
        self.cic.push_block(bits, &mut self.cic_scratch);
        let shift = self.norm_shift;
        out.extend(
            self.cic_scratch
                .iter()
                .map(|&raw| ((raw >> shift) as i32).clamp(-32768, 32767)),
        );
    }

    /// The signed 16-bit word the full chain settles to for a quasi-static
    /// differential input — the fast-AFE tier's one-call-per-frame stand-in
    /// for `decimation` scalar [`sample`](Self::sample) calls.
    ///
    /// Draws one noise sample (so consecutive codes stay dithered and the
    /// frozen-code watchdog discriminator keeps seeing a live input) and
    /// maps the in-amp's DC transfer through the modulator's stable input
    /// range and the CIC's DC gain. Filter poles and integrators are not
    /// advanced: this tier trades transient response for speed, with the
    /// steady-state error pinned by tests.
    pub fn dc_code<R: Rng + ?Sized>(
        &mut self,
        v_diff: Volts,
        chip_overtemp_k: f64,
        rng: &mut R,
    ) -> i32 {
        let noise = self.inamp.draw_noise(rng);
        let v = self.inamp.dc_output(v_diff, chip_overtemp_k, noise);
        let u = (v.get() / self.config.vref.get()).clamp(-0.9, 0.9);
        let raw = ((u * self.cic.gain() as f64).round() as i64) >> self.norm_shift;
        raw.clamp(-32768, 32767) as i32
    }

    /// Full-scale positive output code (≈ +2¹⁵).
    pub fn full_scale(&self) -> i32 {
        32767
    }

    /// Volts-per-LSB at the channel output, referred to the in-amp *input*.
    pub fn input_referred_lsb(&self) -> Volts {
        // Full scale at the modulator is ±vref; one LSB is vref/2^15, divided
        // by the in-amp gain to refer it to the bridge.
        Volts::new(self.config.vref.get() / 32768.0 / self.config.inamp.gain)
    }

    /// Resets all analog and digital state.
    pub fn reset(&mut self) {
        self.inamp.reset();
        self.antialias.reset();
        self.modulator.reset();
        self.cic.reset();
        self.charge_state = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xC0FFEE)
    }

    fn quiet_channel() -> InputChannel {
        let config = ChannelConfig {
            inamp: InAmpConfig {
                gain_error: 0.0,
                input_offset: Volts::ZERO,
                offset_drift_per_k: 0.0,
                noise_density: 0.0,
                flicker_rms: Volts::ZERO,
                ..InAmpConfig::isif_default()
            },
            ..ChannelConfig::maf_bridge()
        };
        InputChannel::new(config, Hertz::from_kilohertz(256.0)).unwrap()
    }

    fn run_dc(chan: &mut InputChannel, v: f64, outputs: usize) -> Vec<i32> {
        let mut r = rng();
        let mut out = Vec::new();
        while out.len() < outputs {
            if let Some(y) = chan.sample(AnalogInput::Differential(Volts::new(v)), 0.0, &mut r) {
                out.push(y);
            }
        }
        out
    }

    #[test]
    fn dc_conversion_scales_correctly() {
        let mut chan = quiet_channel();
        // 10 mV at the bridge × gain 50 = 0.5 V at the ADC = 0.2 FS → code
        // ≈ 0.2·32768 ≈ 6554.
        let out = run_dc(&mut chan, 10e-3, 40);
        let settled = out[20..].iter().map(|&x| x as f64).sum::<f64>() / 20.0;
        assert!(
            (settled - 6554.0).abs() < 40.0,
            "code {settled} expected ≈ 6554"
        );
    }

    #[test]
    fn polarity_preserved() {
        let mut chan = quiet_channel();
        let out = run_dc(&mut chan, -10e-3, 40);
        assert!(out[30] < -6000, "negative input gave {}", out[30]);
    }

    #[test]
    fn output_cadence_matches_decimation() {
        let mut chan = quiet_channel();
        let mut r = rng();
        let mut count = 0;
        for _ in 0..256 * 10 {
            if chan
                .sample(AnalogInput::Differential(Volts::ZERO), 0.0, &mut r)
                .is_some()
            {
                count += 1;
            }
        }
        assert_eq!(count, 10);
    }

    #[test]
    fn noise_floor_is_realistic_for_16_bits() {
        // With the real ISIF noise config, the settled code's std-dev should
        // sit in the range of a real 16-bit channel: more than nothing, less
        // than 8 LSBs.
        let mut chan =
            InputChannel::new(ChannelConfig::maf_bridge(), Hertz::from_kilohertz(256.0)).unwrap();
        let mut r = rng();
        let mut out = Vec::new();
        while out.len() < 400 {
            if let Some(y) = chan.sample(AnalogInput::Differential(Volts::new(5e-3)), 0.0, &mut r) {
                out.push(y as f64);
            }
        }
        let settled = &out[100..];
        let mean = settled.iter().sum::<f64>() / settled.len() as f64;
        let var = settled.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / settled.len() as f64;
        let sd = var.sqrt();
        assert!(sd > 0.05, "noise floor {sd} LSB suspiciously clean");
        assert!(sd < 8.0, "noise floor {sd} LSB too dirty for 16 bits");
    }

    #[test]
    fn trans_resistive_mode() {
        let config = ChannelConfig {
            mode: ReadoutMode::TransResistive {
                feedback_ohms: 10_000.0,
            },
            inamp: InAmpConfig {
                gain: 1.0,
                gain_error: 0.0,
                input_offset: Volts::ZERO,
                offset_drift_per_k: 0.0,
                noise_density: 0.0,
                flicker_rms: Volts::ZERO,
                ..InAmpConfig::isif_default()
            },
            ..ChannelConfig::maf_bridge()
        };
        let mut chan = InputChannel::new(config, Hertz::from_kilohertz(256.0)).unwrap();
        let mut r = rng();
        let mut out = Vec::new();
        while out.len() < 40 {
            // 100 µA × 10 kΩ = 1 V = 0.4 FS → ≈ 13107.
            if let Some(y) = chan.sample(AnalogInput::Current(Amps::new(100e-6)), 0.0, &mut r) {
                out.push(y);
            }
        }
        assert!((out[30] - 13107).abs() < 80, "code {}", out[30]);
    }

    #[test]
    fn charge_amp_mode_integrates_charge() {
        let config = ChannelConfig {
            mode: ReadoutMode::ChargeAmp {
                feedback_farads: 100e-12,
            },
            inamp: InAmpConfig {
                gain: 1.0,
                gain_error: 0.0,
                input_offset: Volts::ZERO,
                offset_drift_per_k: 0.0,
                noise_density: 0.0,
                flicker_rms: Volts::ZERO,
                ..InAmpConfig::isif_default()
            },
            ..ChannelConfig::maf_bridge()
        };
        let mut chan = InputChannel::new(config, Hertz::from_kilohertz(256.0)).unwrap();
        let mut r = rng();
        // One 50 pC slug, then nothing: the feedback cap holds ~0.5 V and
        // leaks slowly (0.01 %/sample leak), so codes settle near
        // 0.5/2.5·32768 ≈ 6554 and decay.
        let mut first = None;
        let mut later = None;
        for i in 0..256 * 60 {
            let q = if i == 0 { 50e-12 } else { 0.0 };
            if let Some(y) = chan.sample(AnalogInput::Charge(q), 0.0, &mut r) {
                if first.is_none() && i > 256 * 10 {
                    first = Some(y);
                }
                later = Some(y);
            }
        }
        let (first, later) = (first.unwrap(), later.unwrap());
        assert!((3000..8000).contains(&first), "charge code {first}");
        assert!(
            later < first,
            "leak must decay the held charge: {first} → {later}"
        );
    }

    #[test]
    fn mode_mismatch_reads_zero() {
        let mut chan = quiet_channel(); // instrumentation mode
        let mut r = rng();
        let mut out = Vec::new();
        while out.len() < 20 {
            if let Some(y) = chan.sample(AnalogInput::Current(Amps::new(1.0)), 0.0, &mut r) {
                out.push(y);
            }
        }
        assert!(out[15].abs() < 4, "mismatched input leaked {}", out[15]);
    }

    #[test]
    fn input_referred_lsb_magnitude() {
        let chan = quiet_channel();
        // 2.5 V / 32768 / 50 ≈ 1.53 µV per LSB at the bridge.
        let lsb = chan.input_referred_lsb();
        assert!((lsb.get() - 1.526e-6).abs() < 0.01e-6, "lsb {lsb}");
    }

    #[test]
    fn reset_clears_pipeline() {
        let mut chan = quiet_channel();
        run_dc(&mut chan, 20e-3, 10);
        chan.reset();
        let out = run_dc(&mut chan, 0.0, 20);
        assert!(out[15].abs() < 4, "stale state after reset: {}", out[15]);
    }
}
