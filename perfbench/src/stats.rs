//! Order statistics of job times. Both the median and the tail use the
//! nearest-rank rule, so `tail >= p50` holds for every sample the tail
//! is defined on.

/// Jobs that must lie beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank median.
pub fn p50(sorted: &[f64]) -> f64 {
    sorted[sorted.len().div_ceil(2) - 1]
}

/// The highest percentile with at least [`TAIL_BEYOND`] jobs beyond it:
/// `(value, percentile)`. Undefined below `2 * TAIL_BEYOND` jobs, where
/// that percentile would fall under the median.
pub fn tail(sorted: &[f64]) -> Result<(f64, f64), String> {
    let n = sorted.len();
    if n < 2 * TAIL_BEYOND {
        return Err(format!(
            "{n} timed jobs: a tail needs at least {} (10 beyond it)",
            2 * TAIL_BEYOND
        ));
    }
    let rank = n - TAIL_BEYOND;
    Ok((sorted[rank - 1], 100.0 * rank as f64 / n as f64))
}

/// Ascending copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a handful of repeated measurements (set-up times).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::SplitMix;

    #[test]
    fn tail_is_never_below_the_median() {
        let mut rng = SplitMix::new(3);
        for n in 20..300 {
            let sample: Vec<f64> = (0..n)
                .map(|_| match rng.next() % 4 {
                    0 => 1.0,
                    1 => (rng.next() % 1000) as f64 / 10.0,
                    _ => (rng.next() % 7) as f64,
                })
                .collect();
            let s = sorted(&sample);
            let (t, pct) = tail(&s).unwrap();
            assert!(t >= p50(&s), "n={n}");
            assert!((50.0..100.0).contains(&pct));
            assert!(s.iter().filter(|&&v| v > t).count() <= TAIL_BEYOND);
        }
    }

    #[test]
    fn fewer_than_twenty_jobs_have_no_tail() {
        assert!(tail(&sorted(&[1.0; 19])).is_err());
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&twenty).unwrap(), (9.0, 50.0));
        assert_eq!(p50(&twenty), 9.0);
    }

    #[test]
    fn tail_percentile_leaves_ten_jobs_beyond() {
        let v: Vec<f64> = (0..48).map(f64::from).collect();
        let (t, pct) = tail(&v).unwrap();
        assert_eq!(t, 37.0);
        assert!((pct - 79.1666).abs() < 1e-3);
    }
}
