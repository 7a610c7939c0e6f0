//! Order statistics and the noise-aware comparison behind `benchmark diff`.

/// The `p`-th percentile (0–100) of `sorted`, interpolating linearly
/// between the two closest ranks. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// Sorts a copy of `values` and returns its `p`-th percentile.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// The median of `values` (any order, non-empty).
pub fn median(values: &[f64]) -> f64 {
    percentile_of(values, 50.0)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method)
/// computes them, so spreads reported here match the ones anyone
/// recomputes from the same samples. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len() as i64;
    let m = len + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = i * m - j * 4;
        let (below, above) = (data[(j - 1) as usize], data[j as usize]);
        *slot = (below * (4 - delta) as f64 + above * delta as f64) / 4.0;
    }
    cuts
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a metric's regression bound is compared against.
pub fn relative_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        return 0.0;
    }
    (q3 - q1) / mid.abs()
}

/// The verdict `benchmark diff` gives one workload × metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// The change wins the claim rule: at least nine tenths of the pairs
    /// and a median gap wider than the parent's quartile spread.
    Improved,
    /// Within the metric's bound.
    Unchanged,
    /// Worse than the parent's median by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sides'
    /// runs overlap, so the samples cannot tell.
    Unresolved,
}

impl Comparison {
    pub fn label(self) -> &'static str {
        match self {
            Comparison::Improved => "improved",
            Comparison::Unchanged => "unchanged",
            Comparison::Regressed => "regressed",
            Comparison::Unresolved => "unresolved",
        }
    }
}

/// Compares the parent's samples (`base`) with the change's (`head`),
/// pairing them in run order (run them alternately). `higher_is_better`
/// gives the metric's direction and `bound` the share of the parent's
/// median by which it may worsen.
pub fn classify(base: &[f64], head: &[f64], higher_is_better: bool, bound: f64) -> Comparison {
    assert!(
        !base.is_empty() && !head.is_empty(),
        "diff needs samples on both sides"
    );
    // Orient every value so that larger is better.
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let base_m = median(base);
    let head_m = median(head);
    let pairs = base.len().min(head.len());
    let wins = base
        .iter()
        .zip(head)
        .filter(|(b, h)| sign * (*h - *b) > 0.0)
        .count();
    let base_iqr = if base.len() >= 2 {
        let [q1, _, q3] = quartiles(base);
        q3 - q1
    } else {
        0.0
    };
    let gap = sign * (head_m - base_m);
    let separated_better = min_oriented(head, sign) > max_oriented(base, sign);
    let separated_worse = max_oriented(head, sign) < min_oriented(base, sign);
    let noisy = relative_spread(base).max(relative_spread(head)) > bound;
    if noisy && !separated_better && !separated_worse {
        return Comparison::Unresolved;
    }
    if gap > 0.0 && wins * 10 >= pairs * 9 && gap > base_iqr {
        return Comparison::Improved;
    }
    if -gap > bound * base_m.abs() {
        return Comparison::Regressed;
    }
    Comparison::Unchanged
}

fn min_oriented(values: &[f64], sign: f64) -> f64 {
    values
        .iter()
        .map(|v| sign * v)
        .fold(f64::INFINITY, f64::min)
}

fn max_oriented(values: &[f64], sign: f64) -> f64 {
    values
        .iter()
        .map(|v| sign * v)
        .fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 50.0), 3.0);
        assert_eq!(percentile(&sorted, 100.0), 5.0);
        assert_eq!(percentile(&sorted, 25.0), 2.0);
        assert!((percentile(&[10.0, 20.0], 99.0) - 19.9).abs() < 1e-9);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Values from `statistics.quantiles(data, n=4)` in CPython 3.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        let odd = [7.0, 15.0, 36.0, 39.0, 40.0, 41.0];
        assert_eq!(quartiles(&odd), [13.0, 37.5, 40.25]);
        let spread = relative_spread(&ten);
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * (f64::from(i) - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn diff_sorts_synthetic_results() {
        let base = runs(100.0, 1.0);
        // Lower-is-better latency: 20% faster in every pair.
        assert_eq!(
            classify(&base, &runs(80.0, 1.0), false, 0.1),
            Comparison::Improved
        );
        // 2% slower, inside a 10% bound.
        assert_eq!(
            classify(&base, &runs(102.0, 1.0), false, 0.1),
            Comparison::Unchanged
        );
        // 30% slower.
        assert_eq!(
            classify(&base, &runs(130.0, 1.0), false, 0.1),
            Comparison::Regressed
        );
        // Higher-is-better throughput that dropped by 30%.
        assert_eq!(
            classify(&base, &runs(70.0, 1.0), true, 0.1),
            Comparison::Regressed
        );
        // Spread of ±40% against a 10% bound, overlapping sides.
        assert_eq!(
            classify(&runs(100.0, 40.0), &runs(105.0, 40.0), false, 0.1),
            Comparison::Unresolved
        );
        // Equally noisy, but every head run beats every base run.
        assert_eq!(
            classify(&runs(100.0, 15.0), &runs(50.0, 15.0), false, 0.1),
            Comparison::Improved
        );
        // Every pair wins, but a gap smaller than the parent's own quartile
        // spread (about 7.3) is no claim.
        assert_eq!(
            classify(&runs(100.0, 6.0), &runs(97.0, 6.0), false, 0.1),
            Comparison::Unchanged
        );
    }
}
