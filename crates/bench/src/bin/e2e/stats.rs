//! Percentiles, quartiles and the slice roll-up every reported number
//! goes through.
//!
//! A timed window is cut into slices of identical work (whole passes
//! over the workload's input). A rate is the **median over slices**,
//! the publish median is the median of the per-slice median, and the
//! inter-quartile range of the slice values is printed beside it as
//! the spread.

/// The `q`-quantile of `samples` by nearest rank (the smallest sample
/// with at least `q` of the samples at or below it). Reorders
/// `samples`. Returns 0 for an empty slice.
pub fn nearest_rank(samples: &mut [u32], q: f64) -> u32 {
    if samples.is_empty() {
        return 0;
    }
    let rank = (q * samples.len() as f64).ceil() as usize;
    let k = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(k).1
}

/// How many samples lie beyond the `q`-quantile rank — a percentile is
/// only reported where this is at least ten (choosing-metrics §1).
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) so the
/// spreads printed here are the ones the benchmark contract computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        len => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                // `delta` can be negative or above 4 only where `j` was
                // clamped; Python extrapolates there and so do we.
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// Median and inter-quartile range of a set of slice (or run) values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub iqr: f64,
    pub n: usize,
}

impl Summary {
    /// The inter-quartile range as a share of the median (0 when the
    /// median is 0).
    pub fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            self.iqr / self.median.abs()
        }
    }
}

pub fn summarize(values: &[f64]) -> Summary {
    let (q1, median, q3) = quartiles(values);
    Summary {
        median,
        iqr: q3 - q1,
        n: values.len(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_q() {
        let mut s: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(nearest_rank(&mut s, 0.50), 50);
        assert_eq!(nearest_rank(&mut s, 0.99), 99);
        assert_eq!(nearest_rank(&mut s, 1.0), 100);
        assert_eq!(nearest_rank(&mut s, 0.0), 1);
        assert_eq!(nearest_rank(&mut [7], 0.99), 7);
        assert_eq!(nearest_rank(&mut [], 0.5), 0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(10_000, 0.99), 100);
        assert_eq!(samples_beyond(100, 0.5), 50);
        assert_eq!(samples_beyond(0, 0.99), 0);
        assert_eq!(samples_beyond(5, 0.99), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn slice_roll_up_is_median_and_iqr() {
        // Ten slices, one of them stalled: the median ignores it and
        // the IQR barely moves.
        let mut slices = vec![100.0; 9];
        slices.push(10.0);
        let s = summarize(&slices);
        assert_eq!(s.median, 100.0);
        assert_eq!(s.iqr, 0.0);
        assert_eq!(s.n, 10);
        assert_eq!(s.rel_spread(), 0.0);
        let s = summarize(&[90.0, 100.0, 110.0, 120.0]);
        assert_eq!(s.median, 105.0);
        assert!((s.rel_spread() - 25.0 / 105.0).abs() < 1e-12);
    }
}
