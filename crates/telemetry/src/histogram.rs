//! Power-of-two-bucket histograms.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per possible bit length of a `u64`, plus zero.
const BUCKETS: usize = 65;

/// Bucket index for `v`: its bit length (0 for 0, 1 for 1, 2 for 2–3,
/// 3 for 4–7, …). Bucket `k ≥ 1` covers `[2^(k-1), 2^k - 1]`.
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `k`.
fn bucket_upper(k: usize) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// A lock-free histogram with power-of-two buckets.
///
/// Built for the paper's quantities — rounds to decide, per-process
/// operation counts, decide latency in nanoseconds — where the interesting
/// question is "which power of two" (`2⌈lg n⌉ + O(1)` individual work,
/// probability-doubling round index), so exponential buckets lose nothing.
///
/// Recording is a single relaxed `fetch_add`; reading is approximate under
/// concurrency but exact once writers quiesce.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        // Relaxed, all four: each is a read-modify-write on its own tally,
        // so no observation is lost, and none publishes other memory. A
        // live reader may see the bucket before the count (the four are not
        // one snapshot); after the writers are joined they agree exactly.
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        // Relaxed: one tally, read on its own (see `record`).
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        // Relaxed: one tally, read on its own (see `record`).
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        // Relaxed: one tally, read on its own (see `record`).
        self.max.load(Ordering::Relaxed)
    }

    /// Mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        self.snapshot().mean()
    }

    /// An upper bound on the `q`-quantile of a point-in-time copy; see
    /// [`HistogramSnapshot::quantile_upper`].
    pub fn quantile_upper(&self, q: f64) -> u64 {
        self.snapshot().quantile_upper(q)
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (k, bucket) in self.buckets.iter().enumerate() {
            // Relaxed: a live snapshot is approximate by contract (a bucket
            // may lead the count by the observations in flight); joined
            // writers make it exact.
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((bucket_upper(k), n));
            }
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            buckets,
        }
    }
}

/// A frozen copy of a [`Histogram`]: only non-empty buckets, keyed by
/// their inclusive upper bound.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// `(upper_bound, count)` for each non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile (`0 ≤ q ≤ 1`): the upper edge of
    /// the first bucket whose cumulative count reaches `q · count`, clamped
    /// to the observed max. 0 when empty.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut cumulative = 0u64;
        for &(upper, n) in &self.buckets {
            cumulative += n;
            if cumulative >= rank {
                return upper.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(3), 7);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn record_and_summarize() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 110);
        assert_eq!(h.max(), 100);
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (3, 2), (7, 1), (127, 1)]);
        assert!((snap.mean() - 110.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_bound_the_distribution() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // Median of 1..=100 is 50ish; its bucket [32, 63] upper bound is 63.
        assert_eq!(h.quantile_upper(0.5), 63);
        assert_eq!(h.quantile_upper(1.0), 100); // clamped to observed max
        assert_eq!(h.quantile_upper(0.0), 1);
        let empty = Histogram::new();
        assert_eq!(empty.quantile_upper(0.5), 0);
    }
}
