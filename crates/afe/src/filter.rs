//! Continuous-time anti-alias low-pass ahead of the ΣΔ modulator.
//!
//! The paper: "Further stages perform signal analog processing, signal
//! recovery, and low-pass filtering for anti-aliasing purpose." Modelled as a
//! cascade of two RC poles (a behavioural Sallen–Key), integrated per
//! modulator sample with the exact single-pole discretization.

use crate::error::ensure_positive;
use crate::AfeError;
use hotwire_units::{Hertz, Volts};

/// A two-pole continuous-time anti-alias filter — or, for `N > 1`, a bank
/// of `N` such filters stepped in lockstep with their coefficients and pole
/// states held in lane arrays. The default `N = 1` is one filter;
/// [`push_lanes`](Self::push_lanes) is the one per-sample transfer either
/// way.
#[derive(Debug, Clone, Copy)]
pub struct AntiAliasFilter<const N: usize = 1> {
    alpha: [f64; N],
    s1: [f64; N],
    s2: [f64; N],
}

impl AntiAliasFilter {
    /// Creates a filter with both poles at `corner`, stepped at
    /// `sample_rate`.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] if either frequency is not positive or the corner
    /// is above half the sample rate.
    pub fn new(corner: Hertz, sample_rate: Hertz) -> Result<Self, AfeError> {
        ensure_positive("corner", corner.get())?;
        ensure_positive("sample_rate", sample_rate.get())?;
        if corner.get() >= sample_rate.get() / 2.0 {
            return Err(AfeError::OutOfRange {
                name: "corner",
                value: corner.get(),
                min: 0.0,
                max: sample_rate.get() / 2.0,
            });
        }
        let alpha = 1.0 - (-core::f64::consts::TAU * corner.get() / sample_rate.get()).exp();
        Ok(AntiAliasFilter {
            alpha: [alpha],
            s1: [0.0],
            s2: [0.0],
        })
    }

    /// Filters one sample.
    #[inline]
    pub fn push(&mut self, x: Volts) -> Volts {
        let [y] = self.push_lanes([x.get()]);
        Volts::new(y)
    }
}

impl<const N: usize> AntiAliasFilter<N> {
    /// Banks `filters` lane by lane.
    pub fn from_lanes(filters: [AntiAliasFilter; N]) -> Self {
        AntiAliasFilter {
            alpha: core::array::from_fn(|j| filters[j].alpha[0]),
            s1: core::array::from_fn(|j| filters[j].s1[0]),
            s2: core::array::from_fn(|j| filters[j].s2[0]),
        }
    }

    /// Lane `j` of the bank as a single filter.
    ///
    /// # Panics
    ///
    /// Panics if `j >= N`.
    pub fn lane(&self, j: usize) -> AntiAliasFilter {
        AntiAliasFilter {
            alpha: [self.alpha[j]],
            s1: [self.s1[j]],
            s2: [self.s2[j]],
        }
    }

    /// Filters one sample per lane (volts).
    #[allow(clippy::needless_range_loop)] // one lane index across several lane arrays
    #[inline]
    pub fn push_lanes(&mut self, x: [f64; N]) -> [f64; N] {
        for j in 0..N {
            self.s1[j] += self.alpha[j] * (x[j] - self.s1[j]);
            self.s2[j] += self.alpha[j] * (self.s1[j] - self.s2[j]);
        }
        self.s2
    }

    /// Clears every pole state.
    pub fn reset(&mut self) {
        self.s1 = [0.0; N];
        self.s2 = [0.0; N];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_dc() {
        let mut f = AntiAliasFilter::new(Hertz::from_kilohertz(30.0), Hertz::from_kilohertz(256.0))
            .unwrap();
        let mut y = Volts::ZERO;
        for _ in 0..10_000 {
            y = f.push(Volts::new(1.25));
        }
        assert!((y.get() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn attenuates_near_nyquist() {
        let fs = 256_000.0;
        let mut f = AntiAliasFilter::new(Hertz::from_kilohertz(30.0), Hertz::new(fs)).unwrap();
        let mut peak: f64 = 0.0;
        for i in 0..100_000 {
            let x = if i % 2 == 0 { 1.0 } else { -1.0 };
            let y = f.push(Volts::new(x));
            if i > 50_000 {
                peak = peak.max(y.get().abs());
            }
        }
        // Two discrete poles with α ≈ 0.52: per-pole Nyquist gain
        // α/(2−α) ≈ 0.35 → cascade ≈ 0.125.
        assert!(peak < 0.15, "nyquist leakage {peak}");
        assert!(peak > 0.0, "signal vanished entirely");
    }

    #[test]
    fn two_poles_beat_one_pole_rolloff() {
        // The cascade's step response is slower than a single pole — check
        // the 1-sample step response is quadratic-ish (tiny), i.e. s2 lags.
        let mut f = AntiAliasFilter::new(Hertz::from_kilohertz(10.0), Hertz::from_kilohertz(256.0))
            .unwrap();
        let y1 = f.push(Volts::new(1.0));
        // After one sample, a single pole would already sit at α ≈ 0.22; the
        // cascade sits at α² ≈ 0.05.
        assert!(y1.get() < 0.1, "first-step output {y1}");
    }

    #[test]
    fn reset_clears() {
        let mut f = AntiAliasFilter::new(Hertz::from_kilohertz(30.0), Hertz::from_kilohertz(256.0))
            .unwrap();
        f.push(Volts::new(2.0));
        f.reset();
        assert_eq!(f.push(Volts::ZERO).get(), 0.0);
    }

    #[test]
    fn rejects_bad_corners() {
        assert!(AntiAliasFilter::new(Hertz::new(0.0), Hertz::new(256e3)).is_err());
        assert!(AntiAliasFilter::new(Hertz::new(200e3), Hertz::new(256e3)).is_err());
    }
}
