//! Order statistics for latency samples and run-to-run spread.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`:
/// the smallest sample with at least `p`% of the samples at or below
/// it. Always one of the samples; `None` for an empty input.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (mean of the middle pair for an even count).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method). Needs at
/// least two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread: the interquartile distance as a share of the
/// median. `None` for fewer than two values or a zero median.
#[must_use]
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), Some(5.0));
        assert_eq!(percentile(&values, 90.0), Some(9.0));
        assert_eq!(percentile(&values, 100.0), Some(10.0));
        assert_eq!(percentile(&values, 1.0), Some(1.0));
        assert_eq!(percentile(&[3.5], 90.0), Some(3.5));
        assert_eq!(percentile(&[], 50.0), None);
        // 100 samples: p90 leaves exactly ten samples above it.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&hundred, 90.0).unwrap();
        assert_eq!(hundred.iter().filter(|&&v| v > p90).count(), 10);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), Some((1.25, 7.0)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&values), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[2.0; 10]), Some(0.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
