//! Order statistics for rep timings and run-to-run spread.

/// Samples a timing needs beyond a tail percentile before the benchmark
/// reports it (choosing-metrics rule: "the highest percentile that has at
/// least ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// Nearest-rank percentile `p` (1..=100) of `sorted`, which must be
/// ascending and non-empty: the smallest sample with at least `p` % of the
/// samples at or below it. Always one of the measured values.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    sorted[rank(sorted.len(), p).min(sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: u32) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest whole percentile with at least `min_beyond` samples beyond
/// it at `n` samples, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<u32> {
    (50..100).rev().find(|&p| beyond(n, p) >= min_beyond)
}

/// Sort a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartile cut points of `values` by the "exclusive" method
/// (Python's `statistics.quantiles(values, n=4)`). Needs two or more
/// values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile range as a share of the median: the run-to-run spread
/// a bound has to exceed before a difference means anything.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2)
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload does
/// not exercise), so every printed value is finite JSON.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p75_is_the_tail_percentile_at_40_reps() {
        assert_eq!(tail_percentile(40, MIN_BEYOND), Some(75));
        assert_eq!(beyond(40, 75), 10);
        assert_eq!(beyond(40, 76), 9);
        // Fewer reps push the reportable tail down, more push it up.
        assert_eq!(tail_percentile(20, MIN_BEYOND), Some(50));
        assert_eq!(tail_percentile(19, MIN_BEYOND), None);
        assert_eq!(tail_percentile(100, MIN_BEYOND), Some(90));
    }

    #[test]
    fn nearest_rank_percentiles_are_measured_values() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 20.0);
        assert_eq!(percentile(&v, 75), 30.0);
        assert_eq!(percentile(&v, 100), 40.0);
        assert_eq!(percentile(&[7.0], 75), 7.0);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "(8.25 - 2.75) / 5.5 = 1");
    }

    #[test]
    fn ratio_guards_empty_layers() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
