//! Probability distributions used by the workload models.
//!
//! Implemented from scratch on top of [`SimRng`] uniforms so
//! the simulator has no external RNG dependency at all:
//! exponential (inversion), normal (Box–Muller), lognormal, bounded Pareto
//! (inversion) and Zipf (rejection-free inversion over a precomputed CDF).

use crate::rng::{Sampler, SimRng};

/// Exponential distribution with the given rate (mean `1/rate`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "invalid rate: {rate}");
        Exponential { rate }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

impl Sampler for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inversion: -ln(1-U)/rate; 1-U avoids ln(0).
        -(1.0 - rng.uniform()).ln() / self.rate
    }
}

/// Normal distribution via the Box–Muller transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is not finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
            "invalid normal parameters: mean {mean}, std dev {std_dev}"
        );
        Normal { mean, std_dev }
    }
}

impl Sampler for Normal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let u1 = 1.0 - rng.uniform(); // (0, 1]
        let u2 = rng.uniform();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mean + self.std_dev * z
    }
}

/// Lognormal distribution: `exp(N(mu, sigma))`.
///
/// Heavy-tailed service demands (e.g. Web-Search queries over a Zipfian
/// corpus) are modelled with large `sigma`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    base: Normal,
}

impl LogNormal {
    /// Creates a lognormal with location `mu` and scale `sigma` (parameters
    /// of the underlying normal).
    ///
    /// # Panics
    ///
    /// Panics if parameters are invalid for [`Normal::new`].
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            base: Normal::new(mu, sigma),
        }
    }

    /// Constructs the lognormal whose *median* is `median` with scale
    /// `sigma`. The median parameterization is convenient for calibrating
    /// service times ("a typical request takes X µs").
    ///
    /// # Panics
    ///
    /// Panics if `median` is not strictly positive.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive: {median}");
        Self::new(median.ln(), sigma)
    }

    /// Mean of the distribution, `exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.base.mean + self.base.std_dev * self.base.std_dev / 2.0).exp()
    }
}

impl Sampler for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.base.sample(rng).exp()
    }
}

/// Bounded Pareto distribution on `[lo, hi]` with shape `alpha`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    lo: f64,
    hi: f64,
    alpha: f64,
    /// `lo^alpha`, computed once.
    lo_a: f64,
    /// `hi^alpha`, computed once.
    hi_a: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo < hi` and `alpha > 0`.
    pub fn new(lo: f64, hi: f64, alpha: f64) -> Self {
        assert!(
            lo > 0.0 && hi > lo && alpha > 0.0,
            "invalid bounded Pareto: lo {lo}, hi {hi}, alpha {alpha}"
        );
        BoundedPareto {
            lo,
            hi,
            alpha,
            lo_a: lo.powf(alpha),
            hi_a: hi.powf(alpha),
        }
    }
}

impl Sampler for BoundedPareto {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = rng.uniform();
        let (la, ha) = (self.lo_a, self.hi_a);
        // Inversion of the bounded Pareto CDF.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha)
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`, sampled by
/// inversion over a precomputed CDF (O(log n) per draw).
///
/// Used to model the Zipfian popularity of Web-Search terms (Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s.is_finite() && s >= 0.0, "invalid exponent: {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `1..=n` (smaller ranks are more likely).
    pub fn sample_rank(&self, rng: &mut SimRng) -> usize {
        let u = rng.uniform();
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1) + 1,
        }
    }
}

impl Sampler for Zipf {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sample_rank(rng) as f64
    }
}

/// Degenerate distribution that always returns the same value. Useful for
/// deterministic tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(pub f64);

impl Sampler for Constant {
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(s: &dyn Sampler, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed(seed);
        (0..n).map(|_| s.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::new(4.0);
        let m = mean_of(&d, 200_000, 1);
        assert!((m - 0.25).abs() < 0.005, "mean {m}");
    }

    #[test]
    fn exponential_nonnegative() {
        let d = Exponential::new(0.5);
        let mut rng = SimRng::seed(2);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 2.0);
        let mut rng = SimRng::seed(3);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_median_parameterization() {
        let d = LogNormal::from_median(5.0, 1.0);
        let mut rng = SimRng::seed(4);
        let n = 100_001;
        let mut xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[n / 2];
        assert!((median - 5.0).abs() < 0.2, "median {median}");
    }

    #[test]
    fn lognormal_mean_formula() {
        let d = LogNormal::new(0.0, 0.5);
        let analytic = (0.125f64).exp();
        let m = mean_of(&d, 300_000, 5);
        assert!((m - analytic).abs() < 0.01, "mean {m} vs {analytic}");
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let d = BoundedPareto::new(1.0, 100.0, 1.5);
        let mut rng = SimRng::seed(6);
        for _ in 0..50_000 {
            let x = d.sample(&mut rng);
            assert!((1.0..=100.0).contains(&x), "{x} out of bounds");
        }
    }

    #[test]
    fn bounded_pareto_matches_the_per_draw_formula_bit_for_bit() {
        // The pre-computed `lo^alpha` and `hi^alpha` must leave every draw
        // exactly where computing them per draw put it.
        for (lo, hi, alpha) in [(1.0, 100.0, 1.5), (1.2, 8.0, 0.7), (2.0, 3.0, 4.0)] {
            let d = BoundedPareto::new(lo, hi, alpha);
            let (mut rng, mut old) = (SimRng::seed(11), SimRng::seed(11));
            for _ in 0..10_000 {
                let u: f64 = old.uniform();
                let (la, ha) = (f64::powf(lo, alpha), f64::powf(hi, alpha));
                let want = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha);
                assert_eq!(d.sample(&mut rng).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn zipf_rank_one_most_popular() {
        let d = Zipf::new(1000, 1.0);
        let mut rng = SimRng::seed(7);
        let mut counts = vec![0usize; 1001];
        for _ in 0..100_000 {
            counts[d.sample_rank(&mut rng)] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        // Roughly 1/H(1000) ≈ 13% of mass on rank 1 for s=1.
        assert!(counts[1] > 100_000 / 10);
    }

    #[test]
    fn zipf_single_rank() {
        let d = Zipf::new(1, 1.2);
        let mut rng = SimRng::seed(8);
        assert_eq!(d.sample_rank(&mut rng), 1);
    }

    #[test]
    fn constant_is_constant() {
        let d = Constant(3.5);
        let mut rng = SimRng::seed(9);
        assert_eq!(d.sample(&mut rng), 3.5);
        assert_eq!(d.sample(&mut rng), 3.5);
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn exponential_rejects_zero_rate() {
        Exponential::new(0.0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_empty() {
        Zipf::new(0, 1.0);
    }
}
