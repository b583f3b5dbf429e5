//! The 16-bit ΣΔ ADC — modelled at the modulator level.
//!
//! "Eventually the signal is converted by a 16 bits Sigma Delta ADC." The
//! model is a real 2nd-order single-bit modulator (Boser–Wooley topology with
//! halved integrator gains for stability margin), not an ideal quantizer:
//! the decimation chain in `hotwire-dsp` turns its bitstream into the 16-bit
//! samples the digital section consumes, so quantization noise shaping,
//! overload behaviour and idle tones are all physically present in the
//! simulation.

use crate::error::ensure_positive;
use crate::AfeError;
use hotwire_units::Volts;

/// A 2nd-order single-bit ΣΔ modulator with full-scale input ±`vref`.
///
/// ```
/// use hotwire_afe::SigmaDeltaModulator;
/// use hotwire_units::Volts;
///
/// let mut adc = SigmaDeltaModulator::new(Volts::new(2.5))?;
/// // A mid-scale DC input produces a bitstream whose mean approaches 0.5.
/// let n = 100_000;
/// let ones: i64 = (0..n).map(|_| adc.push(Volts::new(1.25)) as i64).sum();
/// let mean = ones as f64 / n as f64;
/// assert!((mean - 0.5).abs() < 0.01);
/// # Ok::<(), hotwire_afe::AfeError>(())
/// ```
///
/// For `N > 1` the type is a bank of `N` modulators stepped in lockstep,
/// their references and integrators held in lane arrays; the default
/// `N = 1` is one modulator, and [`push_lanes`](Self::push_lanes) is the one
/// per-sample loop either way.
#[derive(Debug, Clone, Copy)]
pub struct SigmaDeltaModulator<const N: usize = 1> {
    vref: [f64; N],
    i1: [f64; N],
    i2: [f64; N],
}

impl SigmaDeltaModulator {
    /// Creates a modulator with differential full scale ±`vref`.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] if `vref` is not positive.
    pub fn new(vref: Volts) -> Result<Self, AfeError> {
        ensure_positive("vref", vref.get())?;
        Ok(SigmaDeltaModulator {
            vref: [vref.get()],
            i1: [0.0],
            i2: [0.0],
        })
    }

    /// Full-scale reference.
    #[inline]
    pub fn vref(&self) -> Volts {
        Volts::new(self.vref[0])
    }

    /// Converts one input sample to a ±1 bit.
    ///
    /// Inputs beyond ±vref are clipped (the modulator overloads gracefully
    /// rather than going unstable).
    #[inline]
    pub fn push(&mut self, v_in: Volts) -> i32 {
        let [bit] = self.push_lanes([v_in.get()]);
        bit
    }
}

impl<const N: usize> SigmaDeltaModulator<N> {
    /// Banks `modulators` lane by lane.
    pub fn from_lanes(modulators: [SigmaDeltaModulator; N]) -> Self {
        SigmaDeltaModulator {
            vref: core::array::from_fn(|j| modulators[j].vref[0]),
            i1: core::array::from_fn(|j| modulators[j].i1[0]),
            i2: core::array::from_fn(|j| modulators[j].i2[0]),
        }
    }

    /// Lane `j` of the bank as a single modulator.
    ///
    /// # Panics
    ///
    /// Panics if `j >= N`.
    pub fn lane(&self, j: usize) -> SigmaDeltaModulator {
        SigmaDeltaModulator {
            vref: [self.vref[j]],
            i1: [self.i1[j]],
            i2: [self.i2[j]],
        }
    }

    /// Converts one input sample (volts) per lane to a ±1 bit.
    #[inline]
    pub fn push_lanes(&mut self, v_in: [f64; N]) -> [i32; N] {
        let mut bits = [0; N];
        for j in 0..N {
            // Normalize, clip to the stable input range of a 2nd-order
            // 1-bit loop (~±0.9 FS). `v / vref` stays a division: a
            // reciprocal multiply would round differently.
            let u = (v_in[j] / self.vref[j]).clamp(-0.9, 0.9);
            let (y, bit) = if self.i2[j] >= 0.0 {
                (1.0, 1)
            } else {
                (-1.0, -1)
            };
            // Boser–Wooley: halved gains, feedback into both integrators.
            self.i1[j] += 0.5 * (u - y);
            self.i2[j] += 0.5 * (self.i1[j] - y);
            bits[j] = bit;
        }
        bits
    }

    /// Clears the loop integrators.
    pub fn reset(&mut self) {
        self.i1 = [0.0; N];
        self.i2 = [0.0; N];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bitstream_mean(adc: &mut SigmaDeltaModulator, v: f64, n: usize) -> f64 {
        let sum: i64 = (0..n).map(|_| adc.push(Volts::new(v)) as i64).sum();
        sum as f64 / n as f64
    }

    #[test]
    fn dc_transfer_is_linear() {
        let mut adc = SigmaDeltaModulator::new(Volts::new(2.5)).unwrap();
        for &frac in &[-0.8, -0.5, -0.1, 0.0, 0.1, 0.5, 0.8] {
            adc.reset();
            let mean = bitstream_mean(&mut adc, 2.5 * frac, 200_000);
            assert!(
                (mean - frac).abs() < 0.005,
                "input {frac} FS decoded as {mean}"
            );
        }
    }

    #[test]
    fn overload_clips_not_diverges() {
        let mut adc = SigmaDeltaModulator::new(Volts::new(2.5)).unwrap();
        let mean = bitstream_mean(&mut adc, 10.0, 100_000);
        assert!((mean - 0.9).abs() < 0.01, "overloaded mean {mean}");
        assert!(adc.i1[0].is_finite() && adc.i2[0].is_finite());
    }

    #[test]
    fn integrators_stay_bounded() {
        let mut adc = SigmaDeltaModulator::new(Volts::new(2.5)).unwrap();
        for i in 0..1_000_000 {
            let v = 2.0 * (core::f64::consts::TAU * 1000.0 * i as f64 / 256_000.0).sin();
            adc.push(Volts::new(v));
            assert!(
                adc.i1[0].abs() < 20.0 && adc.i2[0].abs() < 20.0,
                "state blew up"
            );
        }
    }

    #[test]
    fn noise_shaping_pushes_error_to_high_frequency() {
        // Compare in-band error after heavy averaging (low-pass) for a DC
        // input: a 2nd-order modulator decimated by 256 must be accurate to
        // well below 1e-3 of full scale.
        let mut adc = SigmaDeltaModulator::new(Volts::new(2.5)).unwrap();
        let target = 0.37;
        let n = 256 * 4000;
        let mean = bitstream_mean(&mut adc, 2.5 * target, n);
        assert!(
            (mean - target).abs() < 2e-4,
            "decimated DC error {}",
            (mean - target).abs()
        );
    }

    #[test]
    fn effective_resolution_16_bits_with_cic3_r256() {
        // End-to-end check against the paper's "16 bits" figure: a 3rd-order
        // CIC at R=256 on the bitstream recovers a DC level with error below
        // 1 LSB₁₆ = 2⁻¹⁶ of full scale (averaged over several outputs).
        use hotwire_dsp::cic::CicDecimator;
        let mut adc = SigmaDeltaModulator::new(Volts::new(2.5)).unwrap();
        let mut cic = CicDecimator::new(3, 256).unwrap();
        let target = 0.2371;
        let mut outputs = Vec::new();
        for _ in 0..256 * 400 {
            if let Some(y) = cic.push(adc.push(Volts::new(2.5 * target))) {
                outputs.push(y as f64 / cic.gain() as f64);
            }
        }
        // Discard CIC settling.
        let settled = &outputs[8..];
        let mean = settled.iter().sum::<f64>() / settled.len() as f64;
        let err = (mean - target).abs();
        assert!(
            err < 1.0 / 65_536.0,
            "DC error {err} exceeds 1 LSB of 16 bits"
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut adc = SigmaDeltaModulator::new(Volts::new(2.5)).unwrap();
        bitstream_mean(&mut adc, 2.0, 1000);
        adc.reset();
        assert_eq!(adc.i1, [0.0]);
        assert_eq!(adc.i2, [0.0]);
    }

    #[test]
    fn rejects_bad_vref() {
        assert!(SigmaDeltaModulator::new(Volts::ZERO).is_err());
        assert!(SigmaDeltaModulator::new(Volts::new(-1.0)).is_err());
    }
}
