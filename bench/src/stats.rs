//! Order statistics: the median and quartiles every metric is reported
//! with, and the weighted percentile that pools latency samples.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the "exclusive" method), so a spread computed here is the
/// spread the acceptance driver computes. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// One latency sample: `value` nanoseconds per operation, observed for
/// `weight` operations (a block of 16 reads timed together is one sample of
/// weight 16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub weight: u64,
}

/// Nearest-rank percentile over weighted samples: the smallest value whose
/// cumulative weight reaches `p` of the total. Sorts `samples` in place.
/// `None` for an empty or zero-weight set.
pub fn weighted_percentile(samples: &mut [Sample], p: f64) -> Option<f64> {
    samples.sort_by(|a, b| a.value.total_cmp(&b.value));
    let total: u64 = samples.iter().map(|s| s.weight).sum();
    if total == 0 {
        return None;
    }
    let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for s in samples.iter() {
        seen += s.weight;
        if seen >= rank {
            return Some(s.value);
        }
    }
    samples.last().map(|s| s.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&nine), Some((2.5, 7.5)));
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn weighted_percentile_is_nearest_rank() {
        let mut unit: Vec<Sample> = (1..=100)
            .map(|v| Sample {
                value: f64::from(v),
                weight: 1,
            })
            .collect();
        assert_eq!(weighted_percentile(&mut unit, 0.50), Some(50.0));
        assert_eq!(weighted_percentile(&mut unit, 0.99), Some(99.0));
        assert_eq!(weighted_percentile(&mut unit, 1.0), Some(100.0));
        assert_eq!(weighted_percentile(&mut [], 0.5), None);
    }

    #[test]
    fn weighted_percentile_counts_a_block_as_its_operations() {
        // 16 fast reads in one block, then one slow write: the median op
        // is a read, the p99 op is the write.
        let mut mixed = vec![
            Sample {
                value: 30_000.0,
                weight: 1,
            },
            Sample {
                value: 100.0,
                weight: 16,
            },
        ];
        assert_eq!(weighted_percentile(&mut mixed, 0.50), Some(100.0));
        assert_eq!(weighted_percentile(&mut mixed, 0.99), Some(30_000.0));
    }
}
