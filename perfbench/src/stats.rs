//! The one statistics helper every workload reports through.

/// Percentiles considered for the tail figure, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Order statistics of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// The highest percentile of [`TAIL_LADDER`] with at least
    /// [`TAIL_MIN_BEYOND`] samples above its value, and that value; `None` when
    /// there are too few samples for any of them.
    pub tail: Option<(f64, f64)>,
}

/// The `p`-th percentile (0..=100) of ascending `sorted`, interpolating
/// linearly between the two nearest ranks.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = (sorted.len() - 1) as f64 * p / 100.0;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarises `samples` (any order).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = sorted.len();
    let tail = TAIL_LADDER.iter().find_map(|&p| {
        let v = percentile(&sorted, p);
        let beyond = n - sorted.partition_point(|&x| x <= v);
        (beyond >= TAIL_MIN_BEYOND).then_some((p, v))
    });
    Summary {
        n,
        q1: percentile(&sorted, 25.0),
        median: percentile(&sorted, 50.0),
        q3: percentile(&sorted, 75.0),
        tail,
    }
}

/// Median of `samples`, 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        summarize(samples).median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn quartiles_of_one_to_a_hundred() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 100);
        assert_eq!(s.median, 50.5);
        assert_eq!(s.q1, 25.75);
        assert_eq!(s.q3, 75.25);
        // 99.9, 99 and 95 leave fewer than ten samples beyond; 90 leaves ten.
        let (p, v) = s.tail.expect("tail");
        assert_eq!(p, 90.0);
        assert!(close(v, 90.1), "{v}");
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, None);
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, Some((50.0, 9.5)));
        let v: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(summarize(&v).tail.map(|t| t.0), Some(99.9));
        // Ties at the top leave nothing strictly beyond the percentile.
        assert_eq!(summarize(&[1.0; 50]).tail, None);
    }

    #[test]
    fn single_sample_and_odd_counts() {
        let s = summarize(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert!(close(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 90.0), 4.6));
    }
}
