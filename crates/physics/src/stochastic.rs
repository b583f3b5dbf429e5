//! Deterministic-seed random-process helpers shared by the physics models.
//!
//! Everything stochastic in the simulator — turbulence, bubble detachment,
//! electronic noise — draws from an explicitly seeded RNG so experiments are
//! reproducible bit-for-bit.
//!
//! [`standard_normal`] is the workspace's one Gaussian generator: every
//! noise model (AFE white and flicker noise, DAC mismatch, turbulence,
//! reference-meter noise, heat-pulse readout noise) draws through it.

use hotwire_units::Seconds;
use rand::Rng;

mod tables;

/// Draws a standard-normal sample with a 256-layer Marsaglia–Tsang
/// ziggurat (*J. Stat. Softw.* 5(8), 2000).
///
/// About 99 % of draws take the fast path: one `next_u64` whose low 8
/// bits pick a layer and whose top 52 bits are a signed uniform, one
/// multiply and one compare — no transcendental function. A draw that
/// lands in a layer's wedge costs one more uniform and one `exp`; a draw
/// in the base strip beyond `R ≈ 3.654` comes from Marsaglia's
/// exponential tail method.
///
/// **RNG contract:** a normal consumes a *variable* number of `u64`
/// words from `rng` (one on the fast path, more on a rejection). The
/// sequence is still a pure function of the generator state, so every
/// seeded stream stays reproducible bit-for-bit.
///
/// ```
/// use hotwire_physics::stochastic::standard_normal;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let x = standard_normal(&mut rng);
/// assert!(x.is_finite());
/// ```
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    use tables::X;
    let bits = rng.next_u64();
    let layer = (bits & 0xff) as usize;
    // Top 52 bits as the mantissa of a float in [1, 2), mapped onto
    // the signed uniform [−1, 1).
    let u = 2.0 * f64::from_bits((bits >> 12) | 0x3ff0_0000_0000_0000) - 3.0;
    let x = u * X[layer];
    if x.abs() < X[layer + 1] {
        return x;
    }
    rejected(rng, layer, u, x)
}

/// The ziggurat's slow path, for a candidate `x = u·X[layer]` outside its
/// layer's rectangle: the base strip's tail, or the wedge test — and on a
/// rejection a fresh draw. Kept out of line so the fast path inlines.
#[cold]
#[inline(never)]
fn rejected<R: Rng + ?Sized>(rng: &mut R, layer: usize, u: f64, x: f64) -> f64 {
    use tables::F;
    if layer == 0 {
        return normal_tail(rng, u < 0.0);
    }
    // Wedge: a uniform height between the layer's edge densities,
    // accepted under the density itself.
    let y = F[layer] + (F[layer + 1] - F[layer]) * rng.gen::<f64>();
    if y < (-0.5 * x * x).exp() {
        return x;
    }
    standard_normal(rng)
}

/// Marsaglia's exponential tail method: a normal draw conditioned on
/// `|x| > R`, negative if `negative`.
fn normal_tail<R: Rng + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        // 1 − U ∈ (0, 1], so `ln` never sees zero.
        let x = -(1.0 - rng.gen::<f64>()).ln() / tables::R;
        let y = -(1.0 - rng.gen::<f64>()).ln();
        if 2.0 * y > x * x {
            let z = tables::R + x;
            return if negative { -z } else { z };
        }
    }
}

/// Draws a zero-mean Gaussian sample with the given standard deviation.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    standard_normal(rng) * sigma
}

/// A first-order Ornstein–Uhlenbeck process: band-limited noise with
/// correlation time `tau` and stationary standard deviation `sigma`.
///
/// Used for pipe turbulence (velocity fluctuation with eddy-turnover
/// correlation time) and slow drift processes.
///
/// ```
/// use hotwire_physics::stochastic::OrnsteinUhlenbeck;
/// use hotwire_units::Seconds;
/// use rand::SeedableRng;
///
/// let mut ou = OrnsteinUhlenbeck::new(Seconds::new(0.1), 1.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
/// let x = ou.step(Seconds::from_millis(1.0), &mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct OrnsteinUhlenbeck {
    tau: Seconds,
    sigma: f64,
    state: f64,
    /// Memo of the step's decay `ρ = exp(−dt/τ)` and innovation scale
    /// `σ·√(1−ρ²)`, keyed on `dt`'s bit pattern: `(bits, ρ, innovation)`.
    /// Callers step at a fixed control period, so the `exp` and the
    /// `sqrt` run once per process. Not part of the process's identity
    /// (see the `PartialEq` impl).
    step_memo: Option<(u64, f64, f64)>,
}

/// Two processes are equal when their parameters and state are: the step
/// memo only caches values derived from them.
impl PartialEq for OrnsteinUhlenbeck {
    fn eq(&self, other: &Self) -> bool {
        self.tau == other.tau && self.sigma == other.sigma && self.state == other.state
    }
}

impl OrnsteinUhlenbeck {
    /// Creates a process with correlation time `tau` and stationary standard
    /// deviation `sigma`, starting at zero.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not positive or `sigma` is negative.
    pub fn new(tau: Seconds, sigma: f64) -> Self {
        assert!(tau.get() > 0.0, "OU correlation time must be positive");
        assert!(sigma >= 0.0, "OU sigma must be non-negative");
        OrnsteinUhlenbeck {
            tau,
            sigma,
            state: 0.0,
            step_memo: None,
        }
    }

    /// Current process value.
    #[inline]
    pub fn value(&self) -> f64 {
        self.state
    }

    /// Advances the process by `dt` using the exact discrete-time update
    /// `x' = ρ·x + σ·√(1−ρ²)·ξ` with `ρ = exp(−dt/τ)`, and returns the new
    /// value.
    pub fn step<R: Rng + ?Sized>(&mut self, dt: Seconds, rng: &mut R) -> f64 {
        let dt_bits = dt.get().to_bits();
        let (rho, innovation) = match self.step_memo {
            Some((bits, rho, innovation)) if bits == dt_bits => (rho, innovation),
            _ => {
                let rho = (-dt.get() / self.tau.get()).exp();
                let innovation = self.sigma * (1.0 - rho * rho).sqrt();
                self.step_memo = Some((dt_bits, rho, innovation));
                (rho, innovation)
            }
        };
        self.state = rho * self.state + innovation * standard_normal(rng);
        self.state
    }

    /// Resets the state to zero.
    pub fn reset(&mut self) {
        self.state = 0.0;
    }
}

/// A Poisson event clock: `fire(dt, rate, rng)` returns `true` with
/// probability `1 − exp(−rate·dt)` — used for discrete bubble-detachment
/// events.
pub fn poisson_fires<R: Rng + ?Sized>(rng: &mut R, dt: Seconds, rate_hz: f64) -> bool {
    if rate_hz <= 0.0 {
        return false;
    }
    let p = 1.0 - (-rate_hz * dt.get()).exp();
    rng.gen::<f64>() < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xD1CE)
    }

    #[test]
    fn ou_step_memo_is_invisible() {
        // A process stepped through the memo walks the same bits as one
        // whose memo is dropped before every step — across a change of
        // step — and the memo never decides equality.
        let mut memo = OrnsteinUhlenbeck::new(Seconds::from_millis(50.0), 1.0);
        let mut fresh = memo;
        let (mut r1, mut r2) = (rng(), rng());
        for i in 0..400 {
            let dt = Seconds::from_millis(if i < 200 { 1.0 } else { 0.25 });
            fresh.step_memo = None;
            let a = memo.step(dt, &mut r1);
            let b = fresh.step(dt, &mut r2);
            assert_eq!(a.to_bits(), b.to_bits(), "step {i}");
        }
        let mut cold = memo;
        cold.step_memo = None;
        assert_eq!(cold, memo);
    }

    /// Draws for the moment and tail tests: enough that a 4σ tail holds
    /// ~630 samples, cheap enough (≈0.1 s) for every test run.
    const DRAWS: usize = 10_000_000;

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let (mut s1, mut s2, mut s3, mut s4) = (0.0, 0.0, 0.0, 0.0);
        for _ in 0..DRAWS {
            let x = standard_normal(&mut r);
            let x2 = x * x;
            s1 += x;
            s2 += x2;
            s3 += x2 * x;
            s4 += x2 * x2;
        }
        let n = DRAWS as f64;
        let (mean, m2, m3, m4) = (s1 / n, s2 / n, s3 / n, s4 / n);
        // Central moments from the raw ones.
        let var = m2 - mean * mean;
        let c3 = m3 - 3.0 * mean * m2 + 2.0 * mean.powi(3);
        let c4 = m4 - 4.0 * mean * m3 + 6.0 * mean * mean * m2 - 3.0 * mean.powi(4);
        let skew = c3 / var.powf(1.5);
        let kurt = c4 / (var * var);
        // Bounds ≈ 5 standard errors at n = 10⁷: √(1/n), √(2/n), √(6/n),
        // √(96/n).
        assert!(mean.abs() < 0.0016, "mean {mean}");
        assert!((var - 1.0).abs() < 0.0023, "variance {var}");
        assert!(skew.abs() < 0.004, "skew {skew}");
        assert!((kurt - 3.0).abs() < 0.016, "kurtosis {kurt}");
    }

    #[test]
    fn standard_normal_tails_match_the_analytic_frequencies() {
        // P(|x| > k) = erfc(k/√2).
        const P3: f64 = 2.699_796_063_260_207e-3;
        const P4: f64 = 6.334_248_366_624e-5;
        let mut r = rng();
        let (mut beyond3, mut beyond4) = (0usize, 0usize);
        for _ in 0..DRAWS {
            let a = standard_normal(&mut r).abs();
            beyond3 += usize::from(a > 3.0);
            beyond4 += usize::from(a > 4.0);
        }
        let n = DRAWS as f64;
        for (k, count, p) in [(3, beyond3, P3), (4, beyond4, P4)] {
            let expected = n * p;
            // Five binomial standard errors.
            let band = 5.0 * (n * p * (1.0 - p)).sqrt();
            assert!(
                (count as f64 - expected).abs() < band,
                "P(|x|>{k}): {count} draws vs {expected:.0} ± {band:.0}"
            );
        }
    }

    /// A generator that replays scripted words, then a seeded stream.
    struct Scripted {
        words: Vec<u64>,
        rest: rand::rngs::StdRng,
    }

    impl rand::RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            if self.words.is_empty() {
                self.rest.next_u64()
            } else {
                self.words.remove(0)
            }
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.rest.fill_bytes(dest)
        }
    }

    #[test]
    fn base_strip_tail_only_returns_beyond_r() {
        // Layer 0 with |u| at its maximum: |u|·x_0 > R forces the tail.
        let positive = 0xffff_ffff_ffff_f000; // u → 1 − 2⁻⁵¹
        let negative = 0x0000_0000_0000_0000; // u = −1
        for seed in 0..2_000u64 {
            for (word, sign) in [(positive, 1.0), (negative, -1.0)] {
                let mut s = Scripted {
                    words: vec![word],
                    rest: rand::rngs::StdRng::seed_from_u64(seed),
                };
                let x = standard_normal(&mut s);
                assert!(x * sign > tables::R, "seed {seed}: {x} not beyond ±R");
                assert!(x.is_finite());
            }
        }
        // Directly, over many tail draws: all beyond R, mean R + ~1/R.
        let mut r = rng();
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let z = normal_tail(&mut r, false);
            assert!(z > tables::R, "{z}");
            sum += z;
        }
        // E[x | x > R] = f(R) / ∫_R^∞ f, and ∫_R^∞ f = V − R·f(R).
        let q = tables::V - tables::R * (-0.5 * tables::R * tables::R).exp();
        let expected = (-0.5 * tables::R * tables::R).exp() / q;
        let mean = sum / n as f64;
        assert!((mean - expected).abs() < 0.005, "{mean} vs {expected}");
    }

    #[test]
    fn tables_match_the_recurrence() {
        use tables::{F, R, V, X};
        let f = |x: f64| (-0.5 * x * x).exp();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
        assert_eq!(X[1], R);
        assert_eq!(X[256], 0.0);
        assert!(close(X[0], V / f(R)), "x_0 {}", X[0]);
        let mut x = R;
        for i in 1..255 {
            x = (-2.0 * (V / x + f(x)).ln()).sqrt();
            assert!(close(X[i + 1], x), "x_{}: {} vs {x}", i + 1, X[i + 1]);
        }
        // The recurrence closes at the axis: the top layer reaches f = 1.
        assert!((V / X[255] + f(X[255]) - 1.0).abs() < 1e-12);
        for i in 0..257 {
            assert!(close(F[i], f(X[i])), "f_{i}: {} vs {}", F[i], f(X[i]));
        }
        // V = R·f(R) + ∫_R^∞ f, the tail by composite Simpson over
        // [R, R + 12] (the remainder is below e⁻⁸⁰).
        let (a, h, steps) = (R, 12.0 / 20_000.0, 20_000);
        let mut tail = f(a) + f(a + 12.0);
        for k in 1..steps {
            tail += f(a + k as f64 * h) * if k % 2 == 1 { 4.0 } else { 2.0 };
        }
        tail *= h / 3.0;
        assert!(close(V, R * f(R) + tail), "V {V} vs {}", R * f(R) + tail);
    }

    #[test]
    fn first_draws_are_pinned() {
        // A changed generator must fail here, not only in fleet digests.
        let mut r = rand::rngs::StdRng::seed_from_u64(0x5EED);
        let draws: Vec<f64> = (0..8).map(|_| standard_normal(&mut r)).collect();
        assert_eq!(draws, PINNED);
    }

    const PINNED: [f64; 8] = [
        0.449_045_879_432_162_4,
        1.799_164_439_186_193_6,
        -1.763_835_930_742_137,
        -0.342_256_040_317_884_8,
        -0.081_400_330_183_597_75,
        -0.282_495_513_153_948_83,
        -0.416_470_211_257_977_84,
        0.555_792_885_754_020_6,
    ];

    #[test]
    fn ou_stationary_variance() {
        let mut r = rng();
        let sigma = 2.0;
        let mut ou = OrnsteinUhlenbeck::new(Seconds::new(0.01), sigma);
        // Burn in, then sample.
        let dt = Seconds::from_millis(1.0);
        for _ in 0..10_000 {
            ou.step(dt, &mut r);
        }
        let n = 100_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = ou.step(dt, &mut r);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!(
            (var - sigma * sigma).abs() / (sigma * sigma) < 0.1,
            "variance {var} vs {}",
            sigma * sigma
        );
    }

    #[test]
    fn ou_is_correlated_at_short_lags() {
        let mut r = rng();
        let mut ou = OrnsteinUhlenbeck::new(Seconds::new(1.0), 1.0);
        let dt = Seconds::from_millis(1.0);
        for _ in 0..5_000 {
            ou.step(dt, &mut r);
        }
        // Over one step with dt ≪ τ, consecutive values are nearly equal.
        let a = ou.step(dt, &mut r);
        let b = ou.step(dt, &mut r);
        assert!((a - b).abs() < 0.5);
    }

    #[test]
    fn ou_reset() {
        let mut r = rng();
        let mut ou = OrnsteinUhlenbeck::new(Seconds::new(0.1), 1.0);
        ou.step(Seconds::new(0.1), &mut r);
        ou.reset();
        assert_eq!(ou.value(), 0.0);
    }

    #[test]
    fn poisson_rates() {
        let mut r = rng();
        let dt = Seconds::from_millis(1.0);
        let trials = 100_000;
        let rate = 100.0; // expect p ≈ 1 − e^(−0.1) ≈ 0.0952
        let fires = (0..trials)
            .filter(|_| poisson_fires(&mut r, dt, rate))
            .count();
        let p = fires as f64 / trials as f64;
        assert!((p - 0.0952).abs() < 0.005, "p {p}");
        assert!(!poisson_fires(&mut r, dt, 0.0));
        assert!(!poisson_fires(&mut r, dt, -1.0));
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let mut a = rng();
        let mut b = rng();
        for _ in 0..100 {
            assert_eq!(standard_normal(&mut a), standard_normal(&mut b));
        }
    }
}
