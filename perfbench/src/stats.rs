//! Order statistics over measured samples.

/// Nearest-rank percentile: the smallest sample such that at least
/// `p` percent of the samples are less than or equal to it. `p` is in
/// `[0, 100]`; `p = 0` gives the minimum. Returns `NaN` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1)]
}

/// Nearest-rank median (the lower middle sample of an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        // The textbook example: five samples, unsorted on input.
        let s = [35.0, 20.0, 15.0, 50.0, 40.0];
        assert_eq!(percentile(&s, 0.0), 15.0);
        assert_eq!(percentile(&s, 5.0), 15.0);
        assert_eq!(percentile(&s, 30.0), 20.0);
        assert_eq!(percentile(&s, 40.0), 20.0);
        assert_eq!(percentile(&s, 50.0), 35.0);
        assert_eq!(percentile(&s, 90.0), 50.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
        // Ten samples 1..=10: p90 is the ninth, the median the fifth.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 90.0), 9.0);
        assert_eq!(percentile(&ten, 91.0), 10.0);
        assert_eq!(median(&ten), 5.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
