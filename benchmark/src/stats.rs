//! Medians, quartiles and percentiles — the only arithmetic a reported
//! number goes through.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (exclusive method), because that is what judges this benchmark's
//! spread from outside.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First and third quartile, exclusive method. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// How many samples must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (0 < p < 100, nearest rank) of **sorted**
/// samples, or `None` when fewer than [`TAIL_SAMPLES`] samples lie
/// beyond it — a p99 of 300 samples is three numbers, not a percentile.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> Option<u32> {
    let n = sorted.len();
    let beyond = ((n as f64) * (1.0 - p / 100.0)).floor() as usize;
    if n == 0 || beyond < TAIL_SAMPLES {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// One reported number: the median over a run's windows, with the
/// quartiles and the window count that qualify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises per-window values. A single window has no spread, so
    /// its quartiles collapse onto the value.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let median = median(values)?;
        let (q1, q3) = quartiles(values).unwrap_or((median, median));
        Some(Summary {
            median,
            q1,
            q3,
            n: values.len(),
        })
    }

    /// A value measured once per run (set-up time aside, only totals).
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let s: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&s, 50.0), Some(500));
        assert_eq!(percentile_sorted(&s, 99.0), Some(990));
        // 999 samples leave only 9 beyond the 99th percentile.
        assert_eq!(percentile_sorted(&s[..999], 99.0), None);
        assert_eq!(percentile_sorted(&s[..20], 50.0), Some(10));
        assert_eq!(percentile_sorted(&s[..19], 50.0), None);
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn summary_collapses_for_one_window() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[7.0]), Some(Summary::single(7.0)));
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 1.5, 4.5, 5));
    }
}
