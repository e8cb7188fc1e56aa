//! Measurement machinery: running moments, log-bucketed latency histogram,
//! and batch-means confidence intervals.

/// Two-sided 95% Student-t critical values t₀.₀₂₅,df for df = 1..=29.
/// Index `df - 1`. Replication aggregates are tiny (the sweeps run 3–5
/// replications per point), where the normal approximation's 1.96
/// understates the interval by more than a factor of two.
const T95: [f64; 29] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045,
];

/// The 95% critical value for `n` samples: Student-t with `n - 1`
/// degrees of freedom for n ≤ 30, the normal 1.96 above.
fn crit95(n: u64) -> f64 {
    if (2..=30).contains(&n) {
        T95[(n - 2) as usize]
    } else {
        1.96
    }
}

/// Welford running mean/variance accumulator.
#[derive(Clone, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Forget every sample — equivalent to a fresh accumulator, without
    /// an allocation (the engine-state pool resets in place).
    pub fn reset(&mut self) {
        *self = Welford::default();
    }

    /// Half-width of a 95% CI of the mean: `t₀.₀₂₅,n₋₁ · s / √n`, with
    /// the Student-t critical value for n ≤ 30 samples and the normal
    /// 1.96 above. Used to aggregate *independent* replication means
    /// (each replication runs its own seed, so unlike within-run
    /// latencies there is no autocorrelation to batch away) — and those
    /// aggregates are small-n (3–5 replications), exactly where the
    /// normal approximation understates the interval most.
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        crit95(self.n) * (self.variance() / self.n as f64).sqrt()
    }

    /// Sample count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (0 with fewer than two samples).
    fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
}

/// Number of linear sub-buckets per power of two in [`LatencyHistogram`].
const SUBBUCKETS: u64 = 16;

/// A compact log-linear histogram of nonnegative integer samples
/// (HdrHistogram-style: 16 linear sub-buckets per octave, ~6% relative
/// quantile error), used for latency percentiles.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; 64 * SUBBUCKETS as usize],
            total: 0,
            max: 0,
        }
    }

    fn bucket_of(x: u64) -> usize {
        if x < SUBBUCKETS {
            return x as usize;
        }
        let exp = 63 - x.leading_zeros() as u64; // floor(log2 x) >= 4
        let shift = exp - 4; // mantissa top 4 bits after the leading 1
        let mantissa = (x >> shift) & (SUBBUCKETS - 1);
        ((exp - 3) * SUBBUCKETS + mantissa) as usize
    }

    fn bucket_value(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUBBUCKETS {
            return idx;
        }
        let exp = idx / SUBBUCKETS + 3;
        let mantissa = idx % SUBBUCKETS;
        (1 << exp) | (mantissa << (exp - 4))
    }

    /// Forget every sample in place, keeping the bucket allocation.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.max = 0;
    }

    /// Record one sample.
    pub fn record(&mut self, x: u64) {
        self.counts[Self::bucket_of(x)] += 1;
        self.total += 1;
        self.max = self.max.max(x);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded sample (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile `q` in [0, 1]; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(i).min(self.max);
            }
        }
        self.max
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Batch-means accumulator: samples are assigned to `B` consecutive
/// batches (by arrival order); the spread of batch means gives an
/// approximate 95% confidence interval that respects autocorrelation
/// better than the raw sample variance.
#[derive(Clone, Debug)]
pub struct BatchMeans {
    batches: Vec<Welford>,
    per_batch: u64,
    current: usize,
    in_current: u64,
}

impl BatchMeans {
    /// `nbatches` batches of `per_batch` samples each; further samples fold
    /// into the last batch.
    pub fn new(nbatches: usize, per_batch: u64) -> Self {
        assert!(nbatches >= 2 && per_batch >= 1);
        BatchMeans {
            batches: vec![Welford::new(); nbatches],
            per_batch,
            current: 0,
            in_current: 0,
        }
    }

    /// Re-dimension and empty the accumulator in place — equivalent to
    /// `BatchMeans::new(nbatches, per_batch)` but reusing the batch
    /// allocation when the count matches.
    pub fn reset(&mut self, nbatches: usize, per_batch: u64) {
        assert!(nbatches >= 2 && per_batch >= 1);
        self.batches.clear();
        self.batches.resize(nbatches, Welford::new());
        self.per_batch = per_batch;
        self.current = 0;
        self.in_current = 0;
    }

    /// Add a sample.
    pub fn push(&mut self, x: f64) {
        if self.in_current >= self.per_batch && self.current + 1 < self.batches.len() {
            self.current += 1;
            self.in_current = 0;
        }
        self.batches[self.current].push(x);
        self.in_current += 1;
    }

    /// Half-width of an approximate 95% CI of the mean, from the batch
    /// means that received samples. 0 with fewer than 2 nonempty batches.
    pub fn ci95_half_width(&self) -> f64 {
        let means: Vec<f64> = self
            .batches
            .iter()
            .filter(|b| b.count() > 0)
            .map(|b| b.mean())
            .collect();
        if means.len() < 2 {
            return 0.0;
        }
        let n = means.len() as f64;
        let grand = means.iter().sum::<f64>() / n;
        let var = means.iter().map(|m| (m - grand) * (m - grand)).sum::<f64>() / (n - 1.0);
        1.96 * (var / n).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.push(5.0);
        assert_eq!(w.mean(), 5.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn ci95_uses_student_t_for_small_n() {
        // Three samples (the sweeps' default replication count): the
        // half-width must use t₀.₀₂₅,₂ = 4.303, not 1.96.
        let mut w = Welford::new();
        for &x in &[1.0, 2.0, 3.0] {
            w.push(x);
        }
        let s = w.variance().sqrt();
        let want = 4.303 * s / 3.0f64.sqrt();
        assert!((w.ci95_half_width() - want).abs() < 1e-12);

        // Large n falls back to the normal approximation.
        let mut big = Welford::new();
        for i in 0..100 {
            big.push((i % 7) as f64);
        }
        let want = 1.96 * big.variance().sqrt() / 100.0f64.sqrt();
        assert!((big.ci95_half_width() - want).abs() < 1e-12);
    }

    #[test]
    fn ci95_critical_value_is_monotone_to_normal() {
        // t decreases toward 1.96 as df grows; the table must be sorted
        // and the n = 30 → 31 handoff must not jump upward.
        for n in 3..=31u64 {
            assert!(crit95(n) <= crit95(n - 1), "crit95 not monotone at n={n}");
            assert!(crit95(n) >= 1.96);
        }
        assert_eq!(crit95(31), 1.96);
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = LatencyHistogram::new();
        for x in 0..16u64 {
            h.record(x);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.max(), 15);
        assert_eq!(h.quantile(0.0), 0);
        // Small values land in exact buckets.
        assert_eq!(h.quantile(1.0), 15);
    }

    #[test]
    fn histogram_quantile_accuracy() {
        let mut h = LatencyHistogram::new();
        for x in 1..=10_000u64 {
            h.record(x);
        }
        for (q, want) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - want).abs() / want;
            assert!(rel < 0.08, "q{q}: got {got}, want ≈{want}");
        }
        assert_eq!(h.max(), 10_000);
    }

    #[test]
    fn histogram_bucket_round_trip_is_monotone() {
        let mut prev = 0;
        for x in [0u64, 1, 15, 16, 17, 100, 1000, 123_456, u32::MAX as u64] {
            let b = LatencyHistogram::bucket_of(x);
            let v = LatencyHistogram::bucket_value(b);
            assert!(v <= x, "representative below the sample");
            assert!(v >= prev);
            prev = v;
            // Relative error bound ~1/16.
            if x >= 16 {
                assert!((x - v) as f64 / x as f64 <= 1.0 / 16.0 + 1e-9);
            }
        }
    }

    #[test]
    fn batch_means_ci_shrinks_with_tight_data() {
        let mut b = BatchMeans::new(10, 100);
        for i in 0..1000 {
            b.push(100.0 + (i % 3) as f64);
        }
        assert!(b.ci95_half_width() < 0.5);
        let mut wild = BatchMeans::new(10, 100);
        for i in 0..1000 {
            wild.push(if (i / 100) % 2 == 0 { 0.0 } else { 1000.0 });
        }
        assert!(wild.ci95_half_width() > 100.0);
    }

    #[test]
    fn batch_means_handles_few_samples() {
        let mut b = BatchMeans::new(8, 1000);
        assert_eq!(b.ci95_half_width(), 0.0);
        b.push(1.0);
        assert_eq!(b.ci95_half_width(), 0.0);
    }
}
