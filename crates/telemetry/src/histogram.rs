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
/// Recording a 0 is one relaxed `fetch_add` on its bucket; a positive
/// observation adds one more to the sum, and a third, a `fetch_max`, only
/// when it exceeds the largest seen so far. There is no count cell: the
/// count is the sum of the buckets. Reading is approximate under
/// concurrency but exact once writers quiesce.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
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
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        // Relaxed, all: each read-modify-write is on its own tally, so no
        // observation is lost, and none publishes other memory. The maximum
        // only grows: a load showing `v` or more leaves `fetch_max` nothing
        // to do, and a stale one just runs it. A live reader may see the
        // bucket before the sum; once the writers are joined they agree.
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        if v > 0 {
            self.sum.fetch_add(v, Ordering::Relaxed);
            if v > self.max.load(Ordering::Relaxed) {
                self.max.fetch_max(v, Ordering::Relaxed);
            }
        }
    }

    /// Records one observation from the histogram's one writing thread:
    /// the same cells as [`record`](Self::record), each moved by a relaxed
    /// load and a relaxed store instead of a read-modify-write. Another
    /// thread that records at the same time may lose observations, so only
    /// the owner may call it.
    #[inline]
    pub fn record_owned(&self, v: u64) {
        // Relaxed, all: only the owner writes, so each load returns its own
        // last store and nothing lands between a load and its store. A live
        // reader may see the bucket before the sum, as with `record`;
        // joining the owner, or a mutex it released, makes a read exact.
        let bucket = &self.buckets[bucket_of(v)];
        bucket.store(bucket.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        if v > 0 {
            let sum = self.sum.load(Ordering::Relaxed).wrapping_add(v);
            self.sum.store(sum, Ordering::Relaxed);
            if v > self.max.load(Ordering::Relaxed) {
                self.max.store(v, Ordering::Relaxed);
            }
        }
    }

    /// Adds every observation of `other` to this histogram: buckets and
    /// sums add, maxima take the larger.
    pub fn merge(&mut self, other: &Histogram) {
        // Relaxed: `other` is read cell by cell, as `snapshot` reads it;
        // `&mut self` leaves this side's cells to this thread alone.
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine.get_mut() += theirs.load(Ordering::Relaxed);
        }
        let sum = self.sum.get_mut();
        *sum = sum.wrapping_add(other.sum());
        let max = self.max.get_mut();
        *max = (*max).max(other.max());
    }

    /// Number of observations: the sum of the buckets.
    pub fn count(&self) -> u64 {
        // Relaxed: each bucket is a tally read on its own (see `record`).
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
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
            // may lead the sum by the observations in flight); joined
            // writers make it exact.
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((bucket_upper(k), n));
            }
        }
        HistogramSnapshot {
            count: buckets.iter().map(|&(_, n)| n).sum(),
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
    fn concurrent_records_all_land() {
        // Mixed values, a quarter of them 0 (which touch only their bucket),
        // from four threads at once; once joined, every figure equals the
        // same values recorded on one thread.
        let value = |t: u64, i: u64| match i % 4 {
            0 => 0,
            1 => i % 7,
            2 => t * 1_000 + i,
            _ => (i * 2_654_435_761) >> (i % 40),
        };
        let (shared, alone) = (Histogram::new(), Histogram::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let shared = &shared;
                s.spawn(move || (0..10_000).for_each(|i| shared.record(value(t, i))));
            }
        });
        (0..4).for_each(|t| (0..10_000).for_each(|i| alone.record(value(t, i))));
        let snap = shared.snapshot();
        assert_eq!(shared.count(), 40_000);
        assert_eq!(snap.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 40_000);
        assert_eq!(snap, alone.snapshot(), "count, sum, max and buckets");
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(shared.quantile_upper(q), alone.quantile_upper(q), "q = {q}");
        }
    }

    #[test]
    fn owned_records_merge_into_what_shared_records_hold() {
        let values = [0, 1, 2, 3, 4, 100, 7, 0, 1 << 40, u64::MAX];
        let (shared, mut merged) = (Histogram::new(), Histogram::new());
        for part in values.chunks(3) {
            let owned = Histogram::new();
            for &v in part {
                owned.record_owned(v);
                shared.record(v);
            }
            merged.merge(&owned);
        }
        assert_eq!(merged.snapshot(), shared.snapshot());
        assert_eq!(merged.count(), values.len() as u64);
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
