//! Quantiles by nearest rank, and the rule for which tail may be reported.

/// The `q`-quantile of `samples` by nearest rank on the sorted data
/// (`q` in `0..=1`); `None` when empty. NaN sorts last.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((n as f64) * q.clamp(0.0, 1.0)).ceil() as usize;
    sorted.get(rank.clamp(1, n.max(1)) - 1).copied()
}

/// The median; 0 for no samples, which is how a metric a run did not
/// produce reads.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
fn beyond(n: usize, q: f64) -> usize {
    n - ((n as f64) * q).ceil() as usize
}

/// A tail percentile may be reported only when at least this many samples
/// lie beyond it; below that it is one or two outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// The wanted tail quantile if it has [`MIN_BEYOND`] samples beyond it,
/// else the highest of p99 / p95 / p90 / p75 / p50 below it that has.
/// Returns `(q_used, value)`; `None` when empty.
pub fn tail(samples: &[f64], want_q: f64) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let q = [want_q, 0.99, 0.95, 0.90, 0.75]
        .into_iter()
        .find(|&q| q <= want_q && beyond(n, q) >= MIN_BEYOND)
        .unwrap_or(0.5);
    quantile_sorted(&sorted, q).map(|v| (q, v))
}

/// The value of [`tail`]; 0 for no samples.
pub fn tail_value(samples: &[f64], want_q: f64) -> f64 {
    tail(samples, want_q).map_or(0.0, |(_, v)| v)
}

/// `num / den`; 0 where there is nothing to take a share of.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        // p99 of 1000 has exactly 10 beyond; of 999 it has 9.
        assert_eq!(tail(&v(1000), 0.99), Some((0.99, 990.0)));
        assert_eq!(tail(&v(999), 0.99), Some((0.95, 950.0)));
        assert_eq!(tail(&v(200), 0.99), Some((0.95, 190.0)));
        assert_eq!(tail(&v(199), 0.99), Some((0.90, 180.0)));
        assert_eq!(tail(&v(40), 0.99), Some((0.75, 30.0)));
        assert_eq!(tail(&v(12), 0.99), Some((0.5, 6.0)));
        // A lower wanted tail is never raised.
        assert_eq!(tail(&v(5000), 0.95), Some((0.95, 4750.0)));
        assert_eq!(tail(&[], 0.99), None);
        assert_eq!(tail_value(&[], 0.99), 0.0);
        assert_eq!(tail_value(&v(200), 0.99), 190.0);
    }
}
