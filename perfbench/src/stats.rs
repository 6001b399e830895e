//! Order statistics with the sample-count rule: a percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile read off a sample, with the counts that justify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile asked for, in `(0, 100)`.
    pub p: f64,
    /// The sample value at that rank.
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples strictly after the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile of `sorted` (ascending): the value at rank
/// `ceil(p / 100 * n)`. `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond that rank, so a tail figure never rests on a handful of points.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    Some(Percentile {
        p,
        value: sorted[rank - 1],
        n,
        beyond,
    })
}

/// Sorts a copy of `values` ascending.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 999 samples: rank 990, 9 beyond -> refused.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // 1000 samples: rank 990, 10 beyond -> reported.
        let p = percentile(&ramp(1000), 99.0).unwrap();
        assert_eq!(p.value, 990.0);
        assert_eq!(p.n, 1000);
        assert_eq!(p.beyond, 10);
    }

    #[test]
    fn median_rank_and_counts() {
        let p = percentile(&ramp(101), 50.0).unwrap();
        assert_eq!(p.value, 51.0);
        assert_eq!(p.beyond, 50);
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0).unwrap().beyond, 10);
    }

    #[test]
    fn degenerate_inputs_are_refused() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(100), 100.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
