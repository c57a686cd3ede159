//! Lock-free counters and gauges.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A monotonically increasing counter with one writing thread.
///
/// All operations are relaxed atomics, and an add is a load and a store,
/// not a locked read-modify-write: counts are exact because only the
/// owner adds, but cross-counter reads are not a consistent snapshot (nor
/// do they need to be — telemetry is read after the fact or
/// approximately). Counting from many threads takes one counter per
/// thread, summed on read.
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

    /// Adds `n` from the counter's one writing thread: a relaxed load and a
    /// relaxed store, wrapping on overflow. Another thread that adds at the
    /// same time may lose increments, so only the owner may call it.
    #[inline]
    pub fn add_owned(&self, n: u64) {
        // Relaxed, both: only the owner writes, so its load returns its own
        // last store (program order) and nothing can land between the load
        // and the store. The count publishes no other memory. A reader on
        // another thread sees some value the counter held; joining the
        // owner, or a mutex it released, orders every store before the
        // read.
        let now = self.value.load(Ordering::Relaxed).wrapping_add(n);
        self.value.store(now, Ordering::Relaxed);
    }

    /// The current count.
    #[inline]
    pub fn get(&self) -> u64 {
        // Relaxed: a lone tally, ordered against nothing else (see
        // `add_owned`).
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

    /// Adds `delta` to the current value (also advances the maximum).
    ///
    /// With `add`/[`sub`](Gauge::sub) the gauge composes across concurrent
    /// writers as an aggregate.
    #[inline]
    pub fn add(&self, delta: u64) {
        // Relaxed, both: the value and the maximum are two independent
        // tallies, and nothing reads them as one snapshot. The `fetch_add`
        // returns this writer's own place in the value's modification
        // order, so `now` is a value the gauge really held, and the
        // `fetch_max` records it whatever else races; no other memory
        // hangs on either.
        let now = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.max.fetch_max(now, Ordering::Relaxed);
    }

    /// Subtracts `delta` from the current value, saturating at zero.
    #[inline]
    pub fn sub(&self, delta: u64) {
        // Relaxed, both: the compare-exchange loop retries until it swaps
        // the value it read, so no concurrent `add` is lost, and the gauge
        // orders nothing else (see `add`).
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(delta))
            });
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // Relaxed: one tally, read on its own (see `add`).
        self.value.load(Ordering::Relaxed)
    }

    /// The largest value the gauge ever held.
    #[inline]
    pub fn max(&self) -> u64 {
        // Relaxed: one tally, read on its own (see `add`).
        self.max.load(Ordering::Relaxed)
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
/// Never reused while the process lives, so it names one thread for good:
/// the `pid` of a runtime event when no process id is in scope, and the
/// owner of a thread's telemetry cells.
pub fn thread_shard() -> usize {
    THREAD_SHARD.with(|s| *s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.add_owned(1);
        c.add_owned(4);
        c.add_owned(0);
        assert_eq!(c.get(), 5);
        c.add_owned(u64::MAX);
        assert_eq!(c.get(), 4, "wraps");
    }

    #[test]
    fn gauge_tracks_max() {
        let g = Gauge::new();
        g.add(7);
        g.sub(4);
        assert_eq!(g.get(), 3);
        assert_eq!(g.max(), 7);
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
    fn thread_shards_are_distinct_across_threads() {
        let a = thread_shard();
        let b = std::thread::spawn(thread_shard).join().unwrap();
        assert_ne!(a, b);
    }
}
