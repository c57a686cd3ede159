//! The learned prefix of a replicated log: decided entries by slot, the
//! length of their contiguous run, and compaction behind the applier.

use std::sync::{PoisonError, RwLock};

/// Decided entries plus the length of their contiguous prefix, maintained
/// incrementally so [`ReplicatedLog::learned_prefix`] is O(1).
struct LearnedLog {
    /// First slot still retained; everything below was compacted away
    /// after the application consumed it. `entries[i]` is slot `start + i`.
    start: usize,
    entries: Vec<Option<u64>>,
    /// First slot index not yet learned (absolute); every slot in
    /// `start..prefix` is `Some`.
    prefix: usize,
}

/// An append-only, totally-ordered log of decided entries, one per slot.
///
/// The log decides nothing. Whoever runs consensus for a slot — one
/// [`ConsensusEngine`](crate::ConsensusEngine) instance per slot — records
/// the outcome with
/// [`learn_decided`](ReplicatedLog::learn_decided); the log keeps the
/// entries (`u64` codes below `capacity`, 8 bytes per slot), the contiguous
/// learned prefix an applier may consume, and the compaction floor behind
/// it. The per-slot consensus machinery, its pool and the pool counters
/// live in the engine and nowhere else.
///
/// An applier reads entries in order via
/// [`learned_prefix`](ReplicatedLog::learned_prefix) +
/// [`get`](ReplicatedLog::get) (O(1) each), then calls
/// [`compact_below`](ReplicatedLog::compact_below) with its applied index,
/// which bounds retained storage by the apply lag.
///
/// It has no production user: the store keeps its learned prefix in its
/// own intake, under the mutex its callers already take. The type stays
/// for the benchmark's `log.learn_ns` probe until ROADMAP item 1 deletes
/// both.
///
/// # Example
///
/// ```
/// use mc_runtime::ReplicatedLog;
///
/// let log = ReplicatedLog::new(2, 16);
/// // Slot 1 was decided first: the prefix waits for slot 0.
/// log.learn_decided(1, 9);
/// assert_eq!(log.learned_prefix(), 0);
/// log.learn_decided(0, 7);
/// assert_eq!(log.learned_prefix(), 2);
/// assert_eq!(log.snapshot(), vec![7, 9]);
/// // Applied through slot 0: drop it, keep the numbering.
/// assert_eq!(log.compact_below(1), 1);
/// assert_eq!((log.get(0), log.get(1)), (None, Some(9)));
/// ```
pub struct ReplicatedLog {
    capacity: u64,
    learned: RwLock<LearnedLog>,
}

impl ReplicatedLog {
    /// Creates an empty log over command codes `0..capacity`.
    ///
    /// `n` (the number of proposers deciding slots elsewhere) is checked
    /// and otherwise unused: the log holds no consensus machinery to size.
    /// The parameter stays because the frozen benchmark package passes it
    /// (ROADMAP item 1 drops it).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `capacity < 2`.
    pub fn new(n: usize, capacity: u64) -> ReplicatedLog {
        assert!(n > 0, "need at least one replica");
        assert!(capacity >= 2, "need at least two command codes");
        ReplicatedLog {
            capacity,
            learned: RwLock::new(LearnedLog {
                start: 0,
                entries: Vec::new(),
                prefix: 0,
            }),
        }
    }

    /// Number of command codes supported.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Records the decision reached for `slot`. Idempotent: re-learning a
    /// slot with the same value, or a slot already compacted away
    /// (compacted implies learned), is a no-op.
    ///
    /// Slots may be learned out of order; [`learned_prefix`] advances
    /// only over the contiguous run.
    ///
    /// [`learned_prefix`]: ReplicatedLog::learned_prefix
    ///
    /// # Panics
    ///
    /// Panics if `value ≥ capacity()`. Debug builds also catch re-learning
    /// a slot with a *different* value, which would mean two proposers
    /// learned different decisions for it.
    pub fn learn_decided(&self, slot: usize, value: u64) {
        assert!(
            value < self.capacity,
            "value {value} exceeds capacity {}",
            self.capacity
        );
        let mut learned = self.learned.write().unwrap_or_else(PoisonError::into_inner);
        if slot < learned.start {
            return;
        }
        let rel = slot - learned.start;
        if learned.entries.len() <= rel {
            learned.entries.resize(rel + 1, None);
        }
        debug_assert!(
            learned.entries[rel].is_none_or(|v| v == value),
            "slot {slot} diverged"
        );
        learned.entries[rel] = Some(value);
        while learned
            .entries
            .get(learned.prefix - learned.start)
            .is_some_and(Option::is_some)
        {
            learned.prefix += 1;
        }
    }

    /// Length of the contiguous decided prefix: every slot in
    /// `0..learned_prefix()` is learned and readable via
    /// [`get`](ReplicatedLog::get). O(1) — the prefix is maintained
    /// incrementally as slots are learned, with no cloning under the lock.
    pub fn learned_prefix(&self) -> usize {
        self.learned
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .prefix
    }

    /// The decided, still-retained prefix of the log: entries for every
    /// learned slot from [`compacted_below`](ReplicatedLog::compacted_below)
    /// up, in order, stopping at the first unlearned slot.
    ///
    /// Clones the retained prefix; prefer
    /// [`learned_prefix`](ReplicatedLog::learned_prefix) +
    /// [`get`](ReplicatedLog::get) for incremental consumption.
    pub fn snapshot(&self) -> Vec<u64> {
        self.learned
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .iter()
            .map_while(|e| *e)
            .collect()
    }

    /// The entry decided in `slot`, if this log has learned it and not yet
    /// compacted it away.
    pub fn get(&self, slot: usize) -> Option<u64> {
        let learned = self.learned.read().unwrap_or_else(PoisonError::into_inner);
        if slot < learned.start {
            return None;
        }
        learned.entries.get(slot - learned.start).copied().flatten()
    }

    /// Discards retained entries below `slot` (clamped to the learned
    /// prefix), returning the new retention start. Call after applying
    /// entries to your state machine: retained storage then stays bounded
    /// by the apply lag instead of growing 8 bytes per slot forever. Slot
    /// indices are stable — compaction never renumbers — but
    /// [`get`](ReplicatedLog::get) returns `None` for compacted slots.
    pub fn compact_below(&self, slot: usize) -> usize {
        let mut learned = self.learned.write().unwrap_or_else(PoisonError::into_inner);
        let limit = slot.min(learned.prefix);
        if limit > learned.start {
            let dropped = limit - learned.start;
            learned.entries.drain(..dropped);
            learned.start = limit;
        }
        learned.start
    }

    /// First slot still retained: everything below was
    /// [`compact_below`](ReplicatedLog::compact_below)ed away after being
    /// learned.
    pub fn compacted_below(&self) -> usize {
        self.learned
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .start
    }
}

impl std::fmt::Debug for ReplicatedLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedLog")
            .field("capacity", &self.capacity)
            .field("learned_prefix", &self.learned_prefix())
            .field("compacted_below", &self.compacted_below())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A log with slots `0..len` learned, slot `i` holding `i % 16`.
    fn learned(len: usize) -> ReplicatedLog {
        let log = ReplicatedLog::new(1, 16);
        for slot in 0..len {
            log.learn_decided(slot, slot as u64 % 16);
        }
        log
    }

    #[test]
    fn slots_learn_out_of_order_and_idempotently() {
        let log = ReplicatedLog::new(2, 16);
        log.learn_decided(1, 9);
        assert_eq!(log.learned_prefix(), 0, "the prefix waits for the gap");
        assert_eq!(log.get(1), Some(9));
        assert_eq!(log.snapshot(), Vec::<u64>::new());
        log.learn_decided(0, 5);
        assert_eq!(log.learned_prefix(), 2);
        assert_eq!(log.get(7), None);
        // Re-learning a slot with its value changes nothing.
        log.learn_decided(1, 9);
        assert_eq!(log.learned_prefix(), 2);
        assert_eq!(log.snapshot(), vec![5, 9]);
    }

    #[test]
    fn compaction_drops_applied_entries_without_renumbering() {
        let log = learned(50);
        assert_eq!(log.compact_below(30), 30);
        assert_eq!(log.compacted_below(), 30);
        assert_eq!(log.get(29), None, "compacted slots read as None");
        assert_eq!(
            log.get(30),
            Some(30 % 16),
            "retained slots keep their index"
        );
        assert_eq!(log.snapshot(), (30..50).map(|i| i % 16).collect::<Vec<_>>());
        // Learning continues past compaction with stable numbering.
        log.learn_decided(50, 7);
        assert_eq!(log.learned_prefix(), 51);
        assert_eq!(log.get(50), Some(7));
        // Compacting beyond the prefix clamps; compacting backwards is a
        // no-op.
        assert_eq!(log.compact_below(1_000), 51);
        assert_eq!(log.compact_below(10), 51);
    }

    #[test]
    fn learning_a_compacted_slot_is_a_noop() {
        // A descheduled proposer can finish deciding a slot its peers
        // already learned, after apply compacted past it — recording it
        // must not panic or disturb the retained log.
        let log = learned(10);
        assert_eq!(log.compact_below(5), 5);
        log.learn_decided(2, 2);
        assert_eq!(log.learned_prefix(), 10);
        assert_eq!(log.compacted_below(), 5);
        assert_eq!(log.snapshot(), (5..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversized_decision_rejected() {
        ReplicatedLog::new(1, 4).learn_decided(0, 4);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let _ = ReplicatedLog::new(0, 4);
    }
}
