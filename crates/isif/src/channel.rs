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
use hotwire_afe::inamp::{AmpNoise, AmpPole, InAmpConfig, InstrumentationAmp};
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

/// A raw CIC output as a signed 16-bit word.
#[inline]
fn word(raw: i64, norm_shift: u32) -> i32 {
    ((raw >> norm_shift) as i32).clamp(-32768, 32767)
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
        let shift = self.norm_shift;
        self.cic.push(bit).map(|raw| word(raw, shift))
    }

    /// Draws the per-tick input-referred noise sample for this channel —
    /// exactly the RNG draws [`sample`](Self::sample) makes internally
    /// (white then flicker), split out so a frame caller can pre-draw noise
    /// lanes in the scalar draw order before running the block kernels.
    /// The one-lane case of [`ChannelLanes::draw_noise`].
    pub fn draw_noise<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.inamp.draw_noise(rng)
    }

    /// Pushes a block of instrumentation-mode differential samples through
    /// the full chain (in-amp → anti-alias → ΣΔ → CIC), appending every
    /// decimated 16-bit word produced to `out`.
    ///
    /// `diffs` holds the differential inputs in volts; `noises` holds one
    /// pre-drawn [`draw_noise`](Self::draw_noise) value per tick; `bits`
    /// receives the modulator bitstream. The one-lane case of
    /// [`ChannelLanes::sample_block`]: bit-identical to the equivalent
    /// sequence of scalar `sample(AnalogInput::Differential(..))` calls
    /// whose noise was drawn in the same RNG order.
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
        ChannelLanes::new([self]).sample_block([diffs], [noises], [bits], chip_overtemp_k, [out]);
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

/// `N` input channels walked in lockstep as lanes: the frame-rate shape of
/// a multi-channel readout, where every channel converts one sample per
/// modulator tick.
///
/// Creating the lanes banks the channels' noise sources in lane arrays;
/// [`draw_noise`](Self::draw_noise) then draws one tick's noise for every
/// lane in a single call, and [`sample_block`](Self::sample_block) runs one
/// block per lane through the chains together. The banked noise state goes
/// back to the channels when the lanes are dropped. A single channel's
/// [`InputChannel::draw_noise`] and [`InputChannel::sample_block`] are the
/// one-lane case.
#[derive(Debug)]
pub struct ChannelLanes<'a, const N: usize> {
    channels: [&'a mut InputChannel; N],
    noise: AmpNoise<N>,
}

impl<'a, const N: usize> ChannelLanes<'a, N> {
    /// Takes `channels` as lanes, in array order.
    pub fn new(channels: [&'a mut InputChannel; N]) -> Self {
        let noise = AmpNoise::<N>::from_lanes(core::array::from_fn(|j| channels[j].inamp.noise()));
        ChannelLanes { channels, noise }
    }

    /// Draws one tick's input-referred noise sample per lane. The RNG is
    /// read lane by lane — white sample, then flicker drive — exactly as
    /// `N` consecutive [`InputChannel::draw_noise`] calls read it; the
    /// flicker poles advance lane-wise.
    #[inline]
    pub fn draw_noise<R: Rng + ?Sized>(&mut self, rng: &mut R) -> [f64; N] {
        self.noise.draw_lanes(rng)
    }

    /// Pushes one block per lane through the full chains: lane `j` reads
    /// `diffs[j]` (differential volts) and `noises[j]` (one pre-drawn noise
    /// sample per tick), writes its modulator bitstream to `bits[j]` and
    /// appends its decimated 16-bit words to `out[j]`.
    ///
    /// One walk steps every lane's in-amp → anti-alias → ΣΔ per tick, with
    /// the stage states banked in lane arrays so the lanes' serial
    /// recurrences overlap; then each lane's CIC decimates its bitstream.
    /// The lanes' chains share nothing, so each lane's result is
    /// bit-identical to running it alone.
    ///
    /// # Panics
    ///
    /// Panics if a channel is not in instrumentation mode or the slice
    /// lengths disagree.
    pub fn sample_block(
        &mut self,
        diffs: [&[f64]; N],
        noises: [&[f64]; N],
        mut bits: [&mut [i32]; N],
        chip_overtemp_k: f64,
        out: [&mut Vec<i32>; N],
    ) {
        let len = diffs.first().map_or(0, |d| d.len());
        for (j, channel) in self.channels.iter().enumerate() {
            assert!(
                matches!(channel.config.mode, ReadoutMode::Instrumentation),
                "block sampling supports instrumentation mode only"
            );
            assert!(
                diffs[j].len() == len && noises[j].len() == len && bits[j].len() == len,
                "lane {j}: block lengths disagree"
            );
        }
        let channels = &self.channels;
        let mut poles = AmpPole::<N>::from_lanes(core::array::from_fn(|j| {
            channels[j].inamp.pole(chip_overtemp_k)
        }));
        let mut filters =
            AntiAliasFilter::<N>::from_lanes(core::array::from_fn(|j| channels[j].antialias));
        let mut modulators =
            SigmaDeltaModulator::<N>::from_lanes(core::array::from_fn(|j| channels[j].modulator));
        for k in 0..len {
            let amplified = poles.step_lanes(
                core::array::from_fn(|j| diffs[j][k]),
                core::array::from_fn(|j| noises[j][k]),
            );
            let tick_bits = modulators.push_lanes(filters.push_lanes(amplified));
            for (lane, bit) in bits.iter_mut().zip(tick_bits) {
                lane[k] = bit;
            }
        }
        let lanes = self.channels.iter_mut().zip(bits).zip(out);
        for (j, ((channel, bits), out)) in lanes.enumerate() {
            channel.inamp.set_pole(poles.lane(j));
            channel.antialias = filters.lane(j);
            channel.modulator = modulators.lane(j);
            channel.cic_scratch.clear();
            channel.cic.push_block(bits, &mut channel.cic_scratch);
            let shift = channel.norm_shift;
            out.extend(channel.cic_scratch.iter().map(|&raw| word(raw, shift)));
        }
    }
}

impl<const N: usize> Drop for ChannelLanes<'_, N> {
    fn drop(&mut self) {
        for (j, channel) in self.channels.iter_mut().enumerate() {
            channel.inamp.set_noise(self.noise.lane(j));
        }
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

    mod lanes {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;

        /// Three channels of deliberately different configurations: gains,
        /// offsets, anti-alias corners, references, CIC orders and ratios.
        fn channels() -> [InputChannel; 3] {
            let fs = Hertz::from_kilohertz(32.0);
            let base = ChannelConfig {
                decimation: 64,
                antialias_corner: Hertz::from_kilohertz(4.0),
                ..ChannelConfig::maf_bridge()
            };
            let configs = [
                base,
                ChannelConfig {
                    inamp: InAmpConfig {
                        gain: 20.0,
                        input_offset: Volts::from_millivolts(-0.5),
                        ..base.inamp
                    },
                    antialias_corner: Hertz::from_kilohertz(2.0),
                    ..base
                },
                ChannelConfig {
                    vref: Volts::new(1.5),
                    cic_order: 2,
                    decimation: 32,
                    ..base
                },
            ];
            configs.map(|c| InputChannel::new(c, fs).unwrap())
        }

        proptest! {
            /// The three-lane walk equals three one-lane walks bit for bit:
            /// noise draws, bitstreams, decimated words and the state each
            /// channel carries out of the block. Inputs swing to ±0.2 V,
            /// far past the in-amp rails (±2.5 V after gains of 20–50) and
            /// the modulator's ±0.9 full-scale clamp; a scalar lead-in
            /// de-aligns the CIC phases from the block.
            #[test]
            fn three_lanes_match_three_single_lanes(
                inputs in proptest::collection::vec(
                    (-0.2f64..0.2, -0.2f64..0.2, -0.2f64..0.2),
                    1..300,
                ),
                lead in 0usize..70,
                seed in 0u64..1000,
                overtemp in -15.0f64..15.0,
            ) {
                let mut lanes = channels();
                let mut singles = channels();
                let mut r_lanes = StdRng::seed_from_u64(seed);
                let mut r_singles = StdRng::seed_from_u64(seed);
                let lead_in = AnalogInput::Differential(Volts::from_millivolts(3.0));
                for _ in 0..lead {
                    for ch in &mut lanes {
                        ch.sample(lead_in, overtemp, &mut r_lanes);
                    }
                    for ch in &mut singles {
                        ch.sample(lead_in, overtemp, &mut r_singles);
                    }
                }
                let n = inputs.len();
                let diffs: [Vec<f64>; 3] = [
                    inputs.iter().map(|d| d.0).collect(),
                    inputs.iter().map(|d| d.1).collect(),
                    inputs.iter().map(|d| d.2).collect(),
                ];

                let mut noise_lanes: [Vec<f64>; 3] = Default::default();
                let mut bits_lanes = [vec![0; n], vec![0; n], vec![0; n]];
                let mut out_lanes: [Vec<i32>; 3] = Default::default();
                {
                    let [a, b, c] = &mut lanes;
                    let mut walk = ChannelLanes::new([a, b, c]);
                    for _ in 0..n {
                        let tick = walk.draw_noise(&mut r_lanes);
                        for (lane, x) in noise_lanes.iter_mut().zip(tick) {
                            lane.push(x);
                        }
                    }
                    let [b0, b1, b2] = &mut bits_lanes;
                    let [o0, o1, o2] = &mut out_lanes;
                    walk.sample_block(
                        [&diffs[0], &diffs[1], &diffs[2]],
                        [&noise_lanes[0], &noise_lanes[1], &noise_lanes[2]],
                        [b0, b1, b2],
                        overtemp,
                        [o0, o1, o2],
                    );
                }

                let mut noise_singles: [Vec<f64>; 3] = Default::default();
                for _ in 0..n {
                    for (ch, lane) in singles.iter_mut().zip(&mut noise_singles) {
                        lane.push(ch.draw_noise(&mut r_singles));
                    }
                }
                for j in 0..3 {
                    let bits_single = {
                        let mut bits = vec![0; n];
                        let mut out = Vec::new();
                        singles[j].sample_block(
                            &diffs[j],
                            &noise_singles[j],
                            &mut bits,
                            overtemp,
                            &mut out,
                        );
                        prop_assert_eq!(&out_lanes[j], &out, "lane {} words", j);
                        bits
                    };
                    let same_noise = noise_lanes[j]
                        .iter()
                        .zip(&noise_singles[j])
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    prop_assert!(same_noise, "lane {} noise", j);
                    prop_assert_eq!(&bits_lanes[j], &bits_single, "lane {} bits", j);
                }
                // The state each channel carries out — poles, integrators,
                // CIC phase, flicker generator — must agree too.
                for k in 0..200 {
                    let input = AnalogInput::Differential(Volts::new(0.01 * (k as f64).sin()));
                    for (a, b) in lanes.iter_mut().zip(&mut singles) {
                        let x = a.sample(input, overtemp, &mut r_lanes);
                        let y = b.sample(input, overtemp, &mut r_singles);
                        prop_assert_eq!(x, y, "follow-up sample {}", k);
                    }
                }
            }
        }
    }
}
