//! Order statistics for timing samples: medians, nearest-rank
//! percentiles, the "highest percentile with at least ten samples beyond
//! it" rule, and the quartile spread the acceptance criteria are stated in.

/// The percentile ladder a tail is picked from, lowest first, in
/// hundredths of a percent so ranks are computed in integers.
const LADDER: [u64; 6] = [7_500, 9_000, 9_500, 9_900, 9_990, 9_999];

/// Samples a tail percentile must leave beyond itself to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A timing reported the way every timing in this benchmark is: median,
/// the highest percentile the sample supports, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// The median (mean of the two middle samples for even `n`).
    pub median: f64,
    /// `(percentile, value)` of the highest ladder percentile with at
    /// least [`TAIL_MIN_BEYOND`] samples beyond it; `None` when even p75
    /// has fewer.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `samples` (any order). `None` for an empty sample.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let sorted = sorted(samples);
        let tail = tail_percentile(sorted.len()).map(|p| (p, percentile_sorted(&sorted, p)));
        Some(Self { n: sorted.len(), median: median_sorted(&sorted), tail })
    }

    /// `"median 1.234 (p90 1.5, n=40)"` with `unit` appended to values.
    #[must_use]
    pub fn render(&self, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => {
                format!("median {:.4} {unit} (p{p} {v:.4} {unit}, n={})", self.median, self.n)
            }
            None => format!("median {:.4} {unit} (n={})", self.median, self.n),
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The median of `samples`; 0 for an empty sample (a layer never called).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median_sorted(&sorted(samples))
    }
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` percent of the sample at or below it.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    // The epsilon keeps 99.9% of 10,000 at rank 9,990, not 9,991.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Nearest-rank percentile of an unordered sample; 0 when empty.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        percentile_sorted(&sorted(samples), p)
    }
}

/// The highest ladder percentile that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly beyond its rank.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rfind(|&&p| {
            let rank = (p * n as u64).div_ceil(10_000) as usize;
            n.saturating_sub(rank) >= TAIL_MIN_BEYOND
        })
        .map(|&p| p as f64 / 100.0)
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns. `None` below two
/// samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let s = sorted(samples);
    let at = |i: usize| {
        // Python: j = i*(n+1) // 4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median (0 below two samples
/// or for a zero median).
#[must_use]
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    match quartiles(samples) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 90.0), 90.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 30 samples: p75 leaves 7 beyond -> no tail at all.
        assert_eq!(tail_percentile(30), None);
        // 40 samples: p75 leaves exactly 10; p90 would leave 4.
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let sum = Summary::of(&s).unwrap();
        assert_eq!(sum.n, 100);
        assert_eq!(sum.median, 50.5);
        assert_eq!(sum.tail, Some((90.0, 90.0)));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(Summary::of(&[1.0, 2.0, 3.0]).unwrap().tail, None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&s) - 1.0).abs() < 1e-12);
    }
}
