//! Noise discipline: every metric is a list of samples summarised by
//! its median, quartiles, MAD and count. Nothing here averages — one
//! multi-second noisy stretch on a shared host must cost one sample,
//! not shift the figure.

/// Order statistics of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
}

impl Summary {
    /// Interquartile distance as a share of the median — the spread the
    /// acceptance rule compares against a metric's bound. 0 for a zero
    /// median (exact counts that are 0 everywhere).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_of_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so a spread printed here
/// is the spread the acceptance driver computes from the same values.
fn quartiles_of_sorted(v: &[f64]) -> (f64, f64) {
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Summarise `values`; `None` when there are none.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let median = median_of_sorted(&v);
    let (q1, q3) = quartiles_of_sorted(&v);
    let dev = sorted(&v.iter().map(|x| (x - median).abs()).collect::<Vec<_>>());
    Some(Summary {
        n: v.len(),
        min: v[0],
        median,
        q1,
        q3,
        mad: median_of_sorted(&dev),
    })
}

/// The median alone (0 for no samples — callers only ask after at
/// least one round).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

/// A percentile may be reported only when at least ten samples lie
/// beyond it; below that it is one or two outliers, not a tail.
pub fn percentile_allowed(n: usize, p: f64) -> bool {
    (n as f64 * (1.0 - p)).floor() >= 10.0
}

/// Nearest-rank percentile `p` in (0, 1) of `values`, or `None` when
/// [`percentile_allowed`] forbids it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if !percentile_allowed(values.len(), p) {
        return None;
    }
    let v = sorted(values);
    let rank = (p * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// How far `second` is from `first`, as a share of `first`.
pub fn relative_change(first: f64, second: f64) -> f64 {
    if first == second {
        0.0
    } else {
        ((second - first) / first).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = summarize(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.mad), (7.0, 7.0, 7.0, 0.0));
    }

    #[test]
    fn mad_and_spread() {
        let s = summarize(&[2.0, 1.0, 3.0, 4.0, 100.0]).unwrap();
        assert_eq!((s.min, s.median), (1.0, 3.0));
        assert_eq!(s.mad, 1.0);
        assert!(s.spread() > 0.0);
        assert_eq!(summarize(&[0.0, 0.0]).unwrap().spread(), 0.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert!(!percentile_allowed(100, 0.95)); // 5 beyond
        assert!(percentile_allowed(200, 0.95)); // 10 beyond
        assert!(percentile_allowed(20, 0.5));
        assert!(!percentile_allowed(19, 0.5));
        assert!(!percentile_allowed(999, 0.99));
        assert!(percentile_allowed(1000, 0.99));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), Some(190.0));
        assert_eq!(percentile(&v[..100], 0.95), None);
    }

    #[test]
    fn relative_change_is_symmetric_in_sign() {
        assert!((relative_change(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((relative_change(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_change(0.0, 0.0), 0.0);
        assert_eq!(relative_change(0.0, 1.0), f64::INFINITY);
    }
}
