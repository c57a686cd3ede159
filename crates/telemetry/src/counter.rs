//! Lock-free counters and gauges.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A single monotonically increasing counter.
///
/// All operations are relaxed atomics: counts are exact because every
/// increment lands, but cross-counter reads are not a consistent snapshot
/// (nor do they need to be — telemetry is read after the fact or
/// approximately).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Counter {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // Relaxed: read-modify-writes on one atomic are totally ordered
        // whatever their ordering, so every increment lands; the count
        // publishes no other memory, so nothing needs to pair with it.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[inline]
    pub fn get(&self) -> u64 {
        // Relaxed: a lone tally, ordered against nothing else (see `add`).
        // Read after joining the writers it is exact; read live it is some
        // value the counter held.
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways, with a running maximum.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    max: AtomicU64,
}

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Gauge {
        Gauge {
            value: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Sets the current value (also advances the maximum).
    #[inline]
    pub fn set(&self, v: u64) {
        // Relaxed, both: the value and the maximum are two independent
        // tallies. A reader may see the new value before the maximum has
        // caught up; nothing reads them as one snapshot, and the
        // `fetch_max` itself never loses a larger value.
        self.value.store(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Advances the current value to `v` if it is larger.
    #[inline]
    pub fn record_max(&self, v: u64) {
        // Relaxed: a read-modify-write on the maximum alone (see `set`).
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds `delta` to the current value (also advances the maximum).
    ///
    /// With `add`/[`sub`](Gauge::sub) the gauge composes across concurrent
    /// writers as an aggregate — unlike [`set`](Gauge::set), where the last
    /// writer wins.
    #[inline]
    pub fn add(&self, delta: u64) {
        // Relaxed, both: the `fetch_add` returns this writer's own place in
        // the value's modification order, so `now` is a value the gauge
        // really held, and the maximum records it whatever else races;
        // no other memory hangs on either (see `set`).
        let now = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.max.fetch_max(now, Ordering::Relaxed);
    }

    /// Subtracts `delta` from the current value, saturating at zero.
    #[inline]
    pub fn sub(&self, delta: u64) {
        // Relaxed, both: the compare-exchange loop retries until it swaps
        // the value it read, so no concurrent `add` is lost, and the gauge
        // orders nothing else (see `set`).
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(delta))
            });
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // Relaxed: one tally, read on its own (see `set`).
        self.value.load(Ordering::Relaxed)
    }

    /// The largest value ever set or recorded.
    #[inline]
    pub fn max(&self) -> u64 {
        // Relaxed: one tally, read on its own (see `set`).
        self.max.load(Ordering::Relaxed)
    }
}

/// One cache line per shard so concurrent writers never false-share.
///
/// 128 bytes covers the common 64-byte line plus adjacent-line prefetchers
/// (the same padding crossbeam uses on x86).
#[derive(Debug, Default)]
#[repr(align(128))]
struct PaddedCounter {
    value: AtomicU64,
}

/// A counter sharded across cache-line-padded cells, one per process id,
/// so the consensus hot path never contends on a shared line.
///
/// `add(pid, n)` touches only shard `pid % shards`; [`total`] sums all
/// shards. With one shard per participating thread this is contention-free
/// in the common case.
///
/// [`total`]: ShardedCounter::total
#[derive(Debug)]
pub struct ShardedCounter {
    shards: Vec<PaddedCounter>,
}

impl ShardedCounter {
    /// A counter with `shards` cells (at least one).
    pub fn new(shards: usize) -> ShardedCounter {
        let shards = shards.max(1);
        ShardedCounter {
            shards: (0..shards).map(|_| PaddedCounter::default()).collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Adds `n` to the shard owned by `pid`.
    #[inline]
    pub fn add(&self, pid: usize, n: u64) {
        // Relaxed: as `Counter::add`, per shard; a shard publishes nothing
        // but its own count.
        self.shards[pid % self.shards.len()]
            .value
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` to the calling thread's shard (for call sites that have no
    /// process id, e.g. library code reached from arbitrary threads).
    #[inline]
    pub fn add_local(&self, n: u64) {
        self.add(thread_shard(), n);
    }

    /// The count in `pid`'s shard.
    pub fn shard(&self, pid: usize) -> u64 {
        // Relaxed: one shard's tally, read on its own (see `add`).
        self.shards[pid % self.shards.len()]
            .value
            .load(Ordering::Relaxed)
    }

    /// The sum over all shards.
    pub fn total(&self) -> u64 {
        // Relaxed: each shard is read on its own, so a live total is not a
        // snapshot (a shard may be read before a write that another shard
        // already shows); after the writers are joined it is exact, and
        // that is when the totals are compared.
        self.shards
            .iter()
            .map(|s| s.value.load(Ordering::Relaxed))
            .sum()
    }
}

static NEXT_THREAD_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Relaxed: the ticket only has to be distinct per thread, which the
    // read-modify-write's total order on one atomic gives; it publishes
    // nothing.
    static THREAD_SHARD: usize = NEXT_THREAD_SHARD.fetch_add(1, Ordering::Relaxed);
}

/// A small dense id for the calling thread, assigned on first use.
///
/// Used to pick a [`ShardedCounter`] shard when no process id is in scope;
/// ids increase by spawn order, so the first `n` threads get distinct
/// shards in an `n`-shard counter.
pub fn thread_shard() -> usize {
    THREAD_SHARD.with(|s| *s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.add(1);
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_tracks_max() {
        let g = Gauge::new();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.max(), 7);
        g.record_max(10);
        assert_eq!(g.max(), 10);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn gauge_add_sub_aggregates_and_saturates() {
        let g = Gauge::new();
        g.add(5);
        g.add(3);
        assert_eq!(g.get(), 8);
        assert_eq!(g.max(), 8);
        g.sub(6);
        assert_eq!(g.get(), 2);
        assert_eq!(g.max(), 8);
        g.sub(100);
        assert_eq!(g.get(), 0, "sub saturates at zero");
    }

    #[test]
    fn sharded_counter_sums_shards() {
        let c = ShardedCounter::new(4);
        c.add(0, 1);
        c.add(1, 2);
        c.add(5, 10); // wraps to shard 1
        assert_eq!(c.shard(1), 12);
        assert_eq!(c.total(), 13);
        let per_shard: Vec<u64> = (0..4).map(|pid| c.shard(pid)).collect();
        assert_eq!(per_shard, vec![1, 12, 0, 0]);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let c = ShardedCounter::new(0);
        c.add(9, 3);
        assert_eq!(c.total(), 3);
        assert_eq!(c.shards(), 1);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let c = Arc::new(ShardedCounter::new(8));
        let handles: Vec<_> = (0..8)
            .map(|pid| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.add(pid, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.total(), 80_000);
    }

    #[test]
    fn thread_shards_are_distinct_across_threads() {
        let a = thread_shard();
        let b = std::thread::spawn(thread_shard).join().unwrap();
        assert_ne!(a, b);
    }
}
