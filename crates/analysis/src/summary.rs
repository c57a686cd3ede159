//! Descriptive statistics and interval estimates.

use std::fmt;

/// Descriptive statistics of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected).
    pub sd: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarizes a sample of `f64`s.
    ///
    /// Returns a zeroed summary for an empty sample.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                sd: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0)
        } else {
            0.0
        };
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
        let q = |p: f64| {
            let ix = ((n as f64 - 1.0) * p).round() as usize;
            sorted[ix.min(n - 1)]
        };
        Summary {
            n,
            mean,
            sd: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
        }
    }

    /// Summarizes a sample of counts.
    pub fn of_counts(xs: &[u64]) -> Summary {
        let floats: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
        Summary::of(&floats)
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} sd={:.2} min={:.0} p50={:.0} p95={:.0} max={:.0}",
            self.n, self.mean, self.sd, self.min, self.p50, self.p95, self.max
        )
    }
}

/// A two-sided interval estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub center: f64,
    /// Lower bound.
    pub low: f64,
    /// Upper bound.
    pub high: f64,
}

impl ConfidenceInterval {
    /// Whether the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        self.low <= x && x <= self.high
    }
}

impl fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} [{:.4}, {:.4}]", self.center, self.low, self.high)
    }
}

/// 95% Wilson score interval for a binomial proportion — the right interval
/// for agreement rates, especially near 0 or 1 where the normal
/// approximation breaks down.
pub fn wilson_interval(successes: usize, trials: usize) -> ConfidenceInterval {
    if trials == 0 {
        return ConfidenceInterval {
            center: 0.0,
            low: 0.0,
            high: 1.0,
        };
    }
    let z = 1.96_f64;
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ConfidenceInterval {
        center: p,
        low: (center - half).max(0.0),
        high: (center + half).min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_simple_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.p50, 3.0);
        assert!((s.sd - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_handles_empty_and_singleton() {
        assert_eq!(Summary::of(&[]).n, 0);
        let s = Summary::of(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.sd, 0.0);
    }

    #[test]
    fn counts_conversion() {
        let s = Summary::of_counts(&[2, 4, 6]);
        assert_eq!(s.mean, 4.0);
    }

    #[test]
    fn wilson_is_sane() {
        let ci = wilson_interval(50, 100);
        assert!((ci.center - 0.5).abs() < 1e-12);
        assert!(ci.low > 0.39 && ci.low < 0.5);
        assert!(ci.high < 0.61 && ci.high > 0.5);
        // Extremes stay in [0, 1].
        let zero = wilson_interval(0, 20);
        assert_eq!(zero.low, 0.0);
        assert!(zero.high > 0.0);
        let all = wilson_interval(20, 20);
        assert_eq!(all.high, 1.0);
        assert!(all.low < 1.0);
    }

    #[test]
    fn wilson_of_no_trials_is_vacuous() {
        let ci = wilson_interval(0, 0);
        assert_eq!((ci.low, ci.high), (0.0, 1.0));
    }

    #[test]
    fn display_forms() {
        let s = Summary::of(&[1.0, 2.0]);
        assert!(s.to_string().contains("mean=1.50"));
        let ci = wilson_interval(1, 2);
        assert!(ci.to_string().starts_with("0.5000"));
    }
}
