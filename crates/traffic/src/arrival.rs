//! Poisson message generation.
//!
//! "Each node generates packets at time intervals chosen from a negative
//! exponential distribution" (§5). Interarrival gaps are `-ln(U) · mean`
//! for `U` uniform on (0, 1].

use rand::{Rng, RngExt};

/// A negative-exponential interarrival generator.
#[derive(Clone, Copy, Debug)]
pub struct PoissonArrivals {
    mean_gap: f64,
}

impl PoissonArrivals {
    /// Generator with the given mean interarrival time (cycles per
    /// message).
    ///
    /// # Panics
    ///
    /// Panics if `mean_gap` is not finite and positive.
    fn new(mean_gap: f64) -> Self {
        assert!(
            mean_gap.is_finite() && mean_gap > 0.0,
            "mean interarrival must be positive and finite, got {mean_gap}"
        );
        PoissonArrivals { mean_gap }
    }

    /// Generator for a given message rate (messages per cycle).
    pub fn with_rate(rate: f64) -> Self {
        Self::new(1.0 / rate)
    }

    /// Draw the next interarrival gap in cycles (continuous; the engine
    /// accumulates into fractional arrival times and fires on whole
    /// cycles).
    pub fn next_gap<R: Rng>(&self, rng: &mut R) -> f64 {
        // random::<f64>() is in [0, 1); flip to (0, 1] so ln never sees 0.
        let u = 1.0 - rng.random::<f64>();
        -u.ln() * self.mean_gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn mean_matches_parameter() {
        let mut rng = SmallRng::seed_from_u64(9);
        let a = PoissonArrivals::new(250.0);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| a.next_gap(&mut rng)).sum();
        let mean = sum / n as f64;
        assert!((mean - 250.0).abs() < 5.0, "mean {mean}");
    }

    #[test]
    fn gaps_are_positive() {
        let mut rng = SmallRng::seed_from_u64(10);
        let a = PoissonArrivals::with_rate(0.01);
        assert!((a.mean_gap - 100.0).abs() < 1e-12);
        for _ in 0..10_000 {
            assert!(a.next_gap(&mut rng) > 0.0);
        }
    }

    #[test]
    fn exponential_shape() {
        // P(gap > mean) should be close to e^{-1} ≈ 0.3679.
        let mut rng = SmallRng::seed_from_u64(11);
        let a = PoissonArrivals::new(100.0);
        let n = 100_000;
        let over = (0..n).filter(|_| a.next_gap(&mut rng) > 100.0).count();
        let frac = over as f64 / n as f64;
        assert!((frac - 0.3679).abs() < 0.01, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_mean() {
        let _ = PoissonArrivals::new(0.0);
    }
}
