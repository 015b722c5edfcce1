//! Order statistics for reporting timings: medians, quartiles and the
//! "highest percentile with at least ten samples beyond it" rule.

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median over groups of each group's median: a typical latency of a
/// fixed mix of job kinds that does not jump between kinds when the mix
/// has a gap at its overall median.
pub fn median_of_medians<K: Ord>(samples: impl IntoIterator<Item = (K, f64)>) -> f64 {
    let mut groups: std::collections::BTreeMap<K, Vec<f64>> = Default::default();
    for (k, v) in samples {
        groups.entry(k).or_default().push(v);
    }
    median(&groups.values().map(|g| median(g)).collect::<Vec<_>>())
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    if v.len() < 2 {
        return None;
    }
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Whether percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples above it, so that it may be reported.
pub fn reportable(n: usize, p: f64) -> bool {
    let at = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(at) >= MIN_BEYOND
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_medians_weighs_kinds_equally() {
        // Kind 0 has many fast samples, kinds 1 and 2 a few slow ones.
        let mut v: Vec<(u8, f64)> = (0..10).map(|_| (0, 1.0)).collect();
        v.extend([(1, 50.0), (1, 60.0), (2, 100.0)]);
        assert_eq!(median(&v.iter().map(|x| x.1).collect::<Vec<_>>()), 1.0);
        assert_eq!(median_of_medians(v), 55.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples leaves exactly 10 beyond: reportable.
        assert!(reportable(100, 90.0));
        // p90 of 99 samples leaves 9 beyond: not reportable.
        assert!(!reportable(99, 90.0));
        // The median needs 20 samples.
        assert!(reportable(20, 50.0));
        assert!(!reportable(19, 50.0));
        assert!(reportable(1000, 99.0));
        assert!(!reportable(1000, 99.9));
    }
}
