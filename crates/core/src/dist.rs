//! Probability distributions for sampling network delays.
//!
//! The paper samples message delays from configurable distributions (normal,
//! Poisson, …). We implement the samplers from scratch rather than pulling in
//! `rand_distr`, both to keep the dependency set minimal and because delay
//! sampling is on the simulator's hot path.
//!
//! All parameters are in **milliseconds**; [`Dist::sample_delay`] converts to
//! a non-negative [`SimDuration`].

use rand::Rng;

use crate::time::SimDuration;

/// A delay distribution, parameterised in milliseconds.
///
/// # Examples
///
/// ```
/// use bft_sim_core::dist::Dist;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// // The paper's default network: N(250, 50).
/// let d = Dist::normal(250.0, 50.0).sample_delay(&mut rng);
/// assert!(d.as_millis_f64() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Always returns the same value.
    Constant {
        /// The constant delay (ms).
        value: f64,
    },
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound (ms).
        lo: f64,
        /// Exclusive upper bound (ms).
        hi: f64,
    },
    /// Gaussian with the given mean and standard deviation, the paper's
    /// `N(mu, sigma)` notation. Sampled with the Box–Muller transform.
    Normal {
        /// Mean (ms).
        mu: f64,
        /// Standard deviation (ms).
        sigma: f64,
    },
    /// Exponential with the given mean (ms); memoryless delays.
    Exponential {
        /// Mean (ms). The rate is `1 / mean`.
        mean: f64,
    },
    /// Poisson with the given mean (ms), as suggested in §III-A4 of the
    /// paper. Produces integer millisecond counts.
    Poisson {
        /// Mean (ms).
        mean: f64,
    },
}

impl Dist {
    /// Constant distribution.
    pub fn constant(value: f64) -> Dist {
        Dist::Constant { value }
    }

    /// Uniform over `[lo, hi)`.
    pub fn uniform(lo: f64, hi: f64) -> Dist {
        Dist::Uniform { lo, hi }
    }

    /// The paper's `N(mu, sigma)` Gaussian.
    pub fn normal(mu: f64, sigma: f64) -> Dist {
        Dist::Normal { mu, sigma }
    }

    /// Exponential with the given mean.
    pub fn exponential(mean: f64) -> Dist {
        Dist::Exponential { mean }
    }

    /// Poisson with the given mean.
    pub fn poisson(mean: f64) -> Dist {
        Dist::Poisson { mean }
    }

    /// Draws one raw sample in milliseconds. May be negative for `Normal`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Dist::Constant { value } => value,
            Dist::Uniform { lo, hi } => {
                // NaN or infinite bounds must never reach `gen_range`: the
                // float uniform sampler asserts on (or loops over) non-finite
                // ranges. Degenerate ranges collapse to `lo`; sample_delay
                // clamps a NaN `lo` to zero downstream.
                if !lo.is_finite() || !hi.is_finite() || hi <= lo {
                    lo
                } else {
                    rng.gen_range(lo..hi)
                }
            }
            Dist::Normal { mu, sigma } => mu + sigma * standard_normal(rng),
            Dist::Exponential { mean } => {
                // The NaN check matters: a NaN mean would otherwise poison
                // the whole sample.
                if mean.is_nan() || mean <= 0.0 {
                    0.0
                } else {
                    // Inverse-CDF sampling; 1-u avoids ln(0).
                    let u: f64 = rng.gen();
                    -mean * (1.0 - u).ln()
                }
            }
            Dist::Poisson { mean } => poisson(rng, mean) as f64,
        }
    }

    /// Draws one delay, clamped to be non-negative, as a [`SimDuration`].
    pub fn sample_delay<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        SimDuration::from_millis(self.sample(rng).max(0.0))
    }

    /// The distribution's mean in milliseconds (the value the paper reports
    /// as `mu`).
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant { value } => value,
            Dist::Uniform { lo, hi } => (lo + hi) / 2.0,
            Dist::Normal { mu, .. } => mu,
            Dist::Exponential { mean } => mean,
            Dist::Poisson { mean } => mean,
        }
    }
}

/// One standard-normal sample via the Box–Muller transform.
///
/// We deliberately use the non-cached variant: caching the second deviate
/// would make sample order-dependent state, complicating reproducibility
/// reasoning for interleaved streams.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

/// Poisson sampler: Knuth's product method for small means, normal
/// approximation (with continuity correction) for large means where the
/// product method would need O(mean) uniforms.
///
/// Degenerate means are clamped rather than propagated: zero, negative,
/// `NaN` and infinite means all yield 0 (matching the clamping contract of
/// [`SimDuration::from_millis`]). A `NaN` mean previously slipped past the
/// `mean <= 0.0` guard into the normal-approximation branch and silently
/// produced 0 by accident; an infinite mean saturated to `u64::MAX` — an
/// absurd ~584-millennia delay — instead of being rejected.
fn poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    if !mean.is_finite() || mean <= 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let limit = (-mean).exp();
        let mut product: f64 = rng.gen();
        let mut count = 0u64;
        while product > limit {
            product *= rng.gen::<f64>();
            count += 1;
        }
        count
    } else {
        // For huge finite means the f64 arithmetic stays finite and the
        // float→int cast saturates at u64::MAX (Rust guarantees saturating
        // `as` casts) — no wrap-around is possible.
        let sample = mean + mean.sqrt() * standard_normal(rng) + 0.5;
        sample.max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn stats(dist: Dist, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let samples: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn constant_is_constant() {
        let (mean, sd) = stats(Dist::constant(42.0), 100, 1);
        assert_eq!(mean, 42.0);
        assert_eq!(sd, 0.0);
    }

    #[test]
    fn normal_moments_match() {
        let (mean, sd) = stats(Dist::normal(250.0, 50.0), 20_000, 2);
        assert!((mean - 250.0).abs() < 2.0, "mean {mean}");
        assert!((sd - 50.0).abs() < 2.0, "sd {sd}");
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let dist = Dist::uniform(100.0, 200.0);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1_000 {
            let x = dist.sample(&mut rng);
            assert!((100.0..200.0).contains(&x));
        }
        let (mean, _) = stats(dist, 20_000, 4);
        assert!((mean - 150.0).abs() < 2.0);
    }

    #[test]
    fn degenerate_uniform_returns_lo() {
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(Dist::uniform(10.0, 10.0).sample(&mut rng), 10.0);
    }

    #[test]
    fn exponential_mean_matches() {
        let (mean, _) = stats(Dist::exponential(100.0), 40_000, 6);
        assert!((mean - 100.0).abs() < 3.0, "mean {mean}");
    }

    #[test]
    fn poisson_small_mean() {
        let (mean, sd) = stats(Dist::poisson(5.0), 40_000, 7);
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}");
        assert!((sd - 5f64.sqrt()).abs() < 0.2, "sd {sd}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_approx() {
        let (mean, sd) = stats(Dist::poisson(400.0), 20_000, 8);
        assert!((mean - 400.0).abs() < 2.0, "mean {mean}");
        assert!((sd - 20.0).abs() < 1.5, "sd {sd}");
    }

    #[test]
    fn sample_delay_clamps_negatives() {
        // N(0, 1000) produces many negatives; delays must not.
        let mut rng = SmallRng::seed_from_u64(10);
        let dist = Dist::normal(0.0, 1000.0);
        for _ in 0..1_000 {
            let _ = dist.sample_delay(&mut rng); // from_millis clamps
        }
    }

    #[test]
    fn means_reported() {
        assert_eq!(Dist::constant(5.0).mean(), 5.0);
        assert_eq!(Dist::uniform(0.0, 10.0).mean(), 5.0);
        assert_eq!(Dist::normal(250.0, 50.0).mean(), 250.0);
        assert_eq!(Dist::exponential(9.0).mean(), 9.0);
        assert_eq!(Dist::poisson(9.0).mean(), 9.0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a = stats(Dist::normal(100.0, 10.0), 100, 42);
        let b = stats(Dist::normal(100.0, 10.0), 100, 42);
        assert_eq!(a, b);
    }

    /// Parameter values that historically exposed cast/guard bugs.
    const EDGE_PARAMS: [f64; 8] = [
        0.0,
        -1.0,
        -1e300,
        1e300,
        1e18,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    /// Every `Dist` variant, across every edge parameter (and every pair for
    /// two-parameter variants), must sample without panicking and produce a
    /// well-defined delay.
    #[test]
    fn every_variant_survives_degenerate_parameters() {
        let mut rng = SmallRng::seed_from_u64(99);
        for &a in &EDGE_PARAMS {
            for &b in &EDGE_PARAMS {
                let dists = [
                    Dist::constant(a),
                    Dist::uniform(a, b),
                    Dist::normal(a, b),
                    Dist::exponential(a),
                    Dist::poisson(a),
                ];
                for dist in dists {
                    for _ in 0..50 {
                        // Must not panic; the delay is a plain u64 of micros,
                        // so any returned value is structurally valid.
                        let _ = dist.sample_delay(&mut rng);
                    }
                }
            }
        }
    }

    #[test]
    fn poisson_degenerate_means_yield_zero_delay() {
        let mut rng = SmallRng::seed_from_u64(11);
        for mean in [
            0.0,
            -1.0,
            -1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            for _ in 0..100 {
                assert_eq!(
                    Dist::poisson(mean).sample_delay(&mut rng),
                    SimDuration::ZERO,
                    "mean {mean}"
                );
            }
        }
    }

    #[test]
    fn poisson_huge_finite_mean_saturates_without_wrapping() {
        // 1e18 ms is far beyond what the normal approximation can represent
        // exactly; the sample must stay near the mean (never wrap to a small
        // value) and the delay conversion must not panic.
        let mut rng = SmallRng::seed_from_u64(12);
        let dist = Dist::poisson(1e18);
        for _ in 0..200 {
            let raw = dist.sample(&mut rng);
            assert!(raw >= 1e17, "wrapped or collapsed: {raw}");
            let _ = dist.sample_delay(&mut rng);
        }
    }

    #[test]
    fn uniform_with_nan_bounds_does_not_panic() {
        let mut rng = SmallRng::seed_from_u64(13);
        // NaN in either bound degrades to the degenerate branch.
        let _ = Dist::uniform(f64::NAN, 10.0).sample_delay(&mut rng);
        let _ = Dist::uniform(0.0, f64::NAN).sample_delay(&mut rng);
        let _ = Dist::uniform(f64::NAN, f64::NAN).sample_delay(&mut rng);
        // Inverted bounds return lo.
        assert_eq!(Dist::uniform(10.0, 5.0).sample(&mut rng), 10.0);
    }

    #[test]
    fn exponential_nan_mean_yields_zero() {
        let mut rng = SmallRng::seed_from_u64(14);
        assert_eq!(Dist::exponential(f64::NAN).sample(&mut rng), 0.0);
        assert_eq!(
            Dist::exponential(f64::NAN).sample_delay(&mut rng),
            SimDuration::ZERO
        );
    }

    #[test]
    fn delays_are_finite_for_ordinary_parameters() {
        // Sanity: across the ordinary parameter space, sample_delay returns
        // plausible micros (non-negative by type, bounded by the cast).
        let mut rng = SmallRng::seed_from_u64(15);
        let dists = [
            Dist::constant(250.0),
            Dist::uniform(10.0, 20.0),
            Dist::normal(250.0, 50.0),
            Dist::exponential(100.0),
            Dist::poisson(100.0),
        ];
        for dist in dists {
            for _ in 0..1_000 {
                let d = dist.sample_delay(&mut rng);
                assert!(d.as_micros() < 10_000_000_000, "{dist:?} gave {d:?}");
            }
        }
    }
}
