//! A replicated log: the standard application built from repeated
//! consensus, with a pooled learn-then-retire slot lifecycle.

use mc_telemetry::Recorder;
use rand::Rng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Who drives this log's decisions: nobody yet, [`ReplicatedLog::append`]
/// (the log runs its own per-slot consensus), or
/// [`ReplicatedLog::learn_decided`] (an external sequencer — the store
/// layer — runs consensus elsewhere and records outcomes). The two must
/// not mix on one log: `append` assumes an unlearned slot has live
/// machinery it can decide through, which externally-learned logs never
/// materialize.
const DRIVE_UNSET: u8 = 0;
const DRIVE_APPEND: u8 = 1;
const DRIVE_EXTERNAL: u8 = 2;

use crate::consensus::{Consensus, ConsensusOptions};
use crate::register::{AtomicMemory, SharedMemory};
use crate::telemetry::{CounterKey, RuntimeTelemetry};

/// Live consensus machinery for a contiguous band of undecided (or just-
/// decided, not-yet-retired) slots, plus the recycle pool feeding it.
struct SlotTable<M: SharedMemory> {
    /// Index of the first slot still backed by a live consensus object;
    /// every slot below `base` was learned and retired.
    base: usize,
    /// Objects for slots `base..base + live.len()`, in slot order.
    live: VecDeque<Arc<Consensus<M>>>,
    /// Reset objects ready to back a future slot (generation-tagged
    /// registers kept, contents invisible).
    free: Vec<Consensus<M>>,
}

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

/// An append-only totally-ordered log agreed on by up to `n` threads, one
/// consensus instance per slot (slots materialize lazily).
///
/// Every replica proposes its next command for the lowest slot it has not
/// yet learned; whatever consensus decides occupies the slot on *all*
/// replicas identically. This is the replicated-state-machine pattern the
/// consensus problem exists for, packaged as a reusable object.
///
/// Entries are `u64` command codes below `capacity`; layer your own
/// encoding on top (see [`TypedConsensus`](crate::TypedConsensus) for the
/// pattern).
///
/// # Slot lifecycle and memory behavior
///
/// The expensive part of a slot is its consensus machinery (stage objects
/// and their registers), not its decided entry. The log therefore runs a
/// **learn-then-retire** lifecycle: once the contiguous learned prefix
/// advances past a slot, that slot's [`Consensus`] is reset
/// ([`Consensus::reset`]) and parked on a free-list, and the next
/// materialized slot reuses it — at steady state a sustained append stream
/// runs in a bounded window of live instances with a pool hit rate near 1,
/// visible as `pool_hits`/`pool_misses`/`instances_retired` in
/// [`telemetry`](ReplicatedLog::telemetry). An instance with a `decide`
/// still in flight is simply kept until the call returns (retirement
/// retries on the next learn), so recycling never races a decision.
///
/// # Compaction story
///
/// Decided *entries* are 8 bytes each and are the log's actual payload:
/// retained storage grows one `u64` per slot, the floor for an append-only
/// log. Consumers that apply the log as a state machine should read
/// entries in order via
/// [`learned_prefix`](ReplicatedLog::learned_prefix) +
/// [`get`](ReplicatedLog::get) (O(1) each) and then call
/// [`compact_below`](ReplicatedLog::compact_below) with their applied
/// index — retained storage is then bounded by the apply lag, and a
/// sustained append-apply loop runs in a flat window of instances and
/// entries. Slot indices are never renumbered; compacted slots simply
/// read as `None`.
/// [`snapshot`](ReplicatedLog::snapshot) clones the retained prefix and is
/// meant for tests and small logs.
///
/// # Example
///
/// ```
/// use mc_runtime::ReplicatedLog;
/// use rand::{rngs::SmallRng, SeedableRng};
/// use std::sync::Arc;
///
/// let log = Arc::new(ReplicatedLog::new(2, 16));
/// let writer = {
///     let log = Arc::clone(&log);
///     std::thread::spawn(move || {
///         let mut rng = SmallRng::seed_from_u64(1);
///         log.append(7, &mut rng)
///     })
/// };
/// let mut rng = SmallRng::seed_from_u64(2);
/// let my_slot = log.append(9, &mut rng);
/// let their_slot = writer.join().unwrap();
/// // Both commands landed, in the same two slots, on one shared log.
/// assert_ne!(my_slot, their_slot);
/// ```
pub struct ReplicatedLog<M: SharedMemory = AtomicMemory> {
    capacity: u64,
    memory: M,
    /// Validated once; every slot's instance shares it by `Arc`, so slot
    /// setup never re-validates the quorum scheme.
    options: Arc<ConsensusOptions>,
    /// Slots the learned prefix must clear a slot by before it is retired
    /// (0 = retire as soon as learned).
    retire_lag: usize,
    /// Which decision driver claimed this log (`DRIVE_*`), settled by the
    /// first `append`/`learn_decided` call.
    drive: AtomicU8,
    slots: RwLock<SlotTable<M>>,
    learned: RwLock<LearnedLog>,
    /// Shared by every slot's consensus instance, so the log reports one
    /// aggregate view (plus append/slot-contention/pool counts of its own).
    telemetry: Arc<RuntimeTelemetry>,
}

impl ReplicatedLog {
    /// Creates a log for up to `n` threads over command codes `0..capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `capacity < 2`.
    pub fn new(n: usize, capacity: u64) -> ReplicatedLog {
        ReplicatedLog::new_in(AtomicMemory, n, capacity)
    }

    /// Creates a log whose slots emit telemetry events to `recorder`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `capacity < 2`.
    pub fn with_recorder(n: usize, capacity: u64, recorder: Arc<dyn Recorder>) -> ReplicatedLog {
        ReplicatedLog::with_telemetry(
            AtomicMemory,
            n,
            capacity,
            Arc::new(RuntimeTelemetry::new(n, recorder)),
        )
    }
}

impl<M: SharedMemory> ReplicatedLog<M> {
    /// Creates a log whose registers live in `memory`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `capacity < 2`.
    pub fn new_in(memory: M, n: usize, capacity: u64) -> ReplicatedLog<M> {
        ReplicatedLog::with_telemetry(memory, n, capacity, Arc::new(RuntimeTelemetry::noop(n)))
    }

    fn with_telemetry(
        memory: M,
        n: usize,
        capacity: u64,
        telemetry: Arc<RuntimeTelemetry>,
    ) -> ReplicatedLog<M> {
        assert!(n > 0, "need at least one replica");
        assert!(capacity >= 2, "need at least two command codes");
        ReplicatedLog {
            capacity,
            memory,
            options: Arc::new(Consensus::multivalued_options(n, capacity)),
            retire_lag: 0,
            drive: AtomicU8::new(DRIVE_UNSET),
            slots: RwLock::new(SlotTable {
                base: 0,
                live: VecDeque::new(),
                free: Vec::new(),
            }),
            learned: RwLock::new(LearnedLog {
                start: 0,
                entries: Vec::new(),
                prefix: 0,
            }),
            telemetry,
        }
    }

    /// Keeps each decided slot's consensus machinery alive until the
    /// learned prefix is `lag` slots past it (default 0: retire as soon as
    /// learned). Diagnostics aid; correctness never needs a lag because
    /// retirement already waits for in-flight `decide` calls.
    #[must_use]
    pub fn with_retire_lag(mut self, lag: usize) -> ReplicatedLog<M> {
        self.retire_lag = lag;
        self
    }

    /// Number of command codes supported.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Aggregate metrics across the log and every slot's consensus:
    /// appends, slot conflicts, decide histograms, pool hits/misses.
    pub fn telemetry(&self) -> &RuntimeTelemetry {
        &self.telemetry
    }

    /// The shared options handle every slot instance is built from
    /// (`Arc::ptr_eq` with any slot's
    /// [`options_handle`](Consensus::options_handle)).
    pub fn options_handle(&self) -> &Arc<ConsensusOptions> {
        &self.options
    }

    /// Slots currently backed by live consensus machinery (the bounded
    /// window behind and at the decision frontier).
    pub fn live_slots(&self) -> usize {
        self.slots
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .live
            .len()
    }

    /// Reset consensus objects parked for reuse.
    pub fn pooled_instances(&self) -> usize {
        self.slots
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .free
            .len()
    }

    /// The live object for slot `ix`, materializing it (from the pool when
    /// possible) on first touch; `None` when the slot has already been
    /// retired — which implies it has been learned.
    fn slot(&self, ix: usize) -> Option<Arc<Consensus<M>>> {
        {
            let table = self.slots.read().unwrap_or_else(PoisonError::into_inner);
            if ix < table.base {
                return None;
            }
            if let Some(slot) = table.live.get(ix - table.base) {
                return Some(Arc::clone(slot));
            }
        }
        let mut table = self.slots.write().unwrap_or_else(PoisonError::into_inner);
        if ix < table.base {
            return None;
        }
        while table.base + table.live.len() <= ix {
            let instance = match table.free.pop() {
                Some(recycled) => {
                    self.telemetry.add(CounterKey::PoolHits, 1);
                    recycled
                }
                None => {
                    self.telemetry.add(CounterKey::PoolMisses, 1);
                    Consensus::with_telemetry_in(
                        self.memory.clone(),
                        Arc::clone(&self.options),
                        Arc::clone(&self.telemetry),
                    )
                }
            };
            table.live.push_back(Arc::new(instance));
        }
        Some(Arc::clone(&table.live[ix - table.base]))
    }

    fn learn(&self, ix: usize, value: u64) {
        let prefix = {
            let mut learned = self.learned.write().unwrap_or_else(PoisonError::into_inner);
            if ix < learned.start {
                // A lagging appender finishing `decide` on a slot the
                // application already applied and compacted away: compacted
                // implies learned, so there is nothing to record — but
                // still give retirement a chance below, now that this
                // appender has dropped its handle on the slot's instance.
                learned.prefix
            } else {
                let rel = ix - learned.start;
                if learned.entries.len() <= rel {
                    learned.entries.resize(rel + 1, None);
                }
                debug_assert!(
                    learned.entries[rel].is_none_or(|v| v == value),
                    "slot {ix} diverged"
                );
                learned.entries[rel] = Some(value);
                while learned
                    .entries
                    .get(learned.prefix - learned.start)
                    .is_some_and(Option::is_some)
                {
                    learned.prefix += 1;
                }
                learned.prefix
            }
        };
        self.retire_below(prefix.saturating_sub(self.retire_lag));
    }

    /// Retires (resets and pools) live slots strictly below `limit`, in
    /// slot order, stopping at the first instance with a `decide` still in
    /// flight — that one is retried on a later learn.
    fn retire_below(&self, limit: usize) {
        let mut table = self.slots.write().unwrap_or_else(PoisonError::into_inner);
        while table.base < limit {
            let Some(slot) = table.live.pop_front() else {
                break;
            };
            match Arc::try_unwrap(slot) {
                Ok(mut instance) => {
                    instance.reset();
                    table.free.push(instance);
                    table.base += 1;
                    self.telemetry.add(CounterKey::InstancesRetired, 1);
                }
                Err(slot) => {
                    table.live.push_front(slot);
                    break;
                }
            }
        }
    }

    /// Appends `command`, returning the slot index where it landed.
    ///
    /// The caller drives consensus on successive slots — skipping slots
    /// already learned, learning the rest along the way — until one slot
    /// decides its own command. Wait-free relative to the underlying
    /// consensus instances.
    ///
    /// "Its own" is judged by value: a slot's decision carries the command
    /// code and nothing about who proposed it. Two calls that *overlap*
    /// with the *same* code can therefore both read that code at one slot
    /// and both return its index — one entry for two calls. Calls with
    /// distinct codes, and calls that do not overlap, each get a slot of
    /// their own; callers that need one entry per call under concurrency
    /// make their codes unique, as the store layer does by interning each
    /// in-flight batch under its own slab code.
    ///
    /// # Panics
    ///
    /// Panics if `command ≥ capacity()`.
    pub fn append(&self, command: u64, rng: &mut dyn Rng) -> usize {
        assert!(
            command < self.capacity,
            "command {command} exceeds capacity {}",
            self.capacity
        );
        self.claim_drive(DRIVE_APPEND);
        let start_ix = self.first_unknown();
        let mut ix = start_ix;
        loop {
            if self.get(ix).is_some() {
                // Another replica's command owns this slot already; no
                // consensus to run, move to the next.
                ix += 1;
                continue;
            }
            let Some(slot) = self.slot(ix) else {
                // Retired between the check above and the lookup — retired
                // implies learned, so this slot is taken too.
                ix += 1;
                continue;
            };
            let decided = slot.decide(command, rng);
            drop(slot);
            self.learn(ix, decided);
            if decided == command {
                self.telemetry.on_append((ix - start_ix + 1) as u64);
                return ix;
            }
            ix += 1;
        }
    }

    /// First slot index this log has not yet learned.
    fn first_unknown(&self) -> usize {
        self.learned
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .prefix
    }

    /// Settles (or checks) the log's decision driver: the first caller
    /// fixes the mode, later callers of the *other* mode panic.
    fn claim_drive(&self, wanted: u8) {
        if let Err(current) =
            self.drive
                .compare_exchange(DRIVE_UNSET, wanted, Ordering::Relaxed, Ordering::Relaxed)
        {
            assert!(
                current == wanted,
                "a ReplicatedLog is driven by append() or learn_decided(), never both: \
                 append runs per-slot consensus inside the log, learn_decided records \
                 decisions an external sequencer already agreed on"
            );
        }
    }

    /// Records a decision an *external* sequencer reached for `slot` —
    /// the store layer's path, where sequencers order commands on a
    /// [`ConsensusEngine`](crate::ConsensusEngine) (one instance per
    /// slot) and this log only keeps the learned prefix, entry storage,
    /// and compaction machinery. Idempotent: re-learning a slot with the
    /// same value, or a slot already compacted away, is a no-op.
    ///
    /// Slots may be learned out of order; [`learned_prefix`] advances
    /// only over the contiguous run, exactly as with append-driven logs.
    ///
    /// [`learned_prefix`]: ReplicatedLog::learned_prefix
    ///
    /// # Panics
    ///
    /// Panics if `value ≥ capacity()`, or if this log has ever been
    /// driven by [`append`](ReplicatedLog::append) — the two decision
    /// drivers must not mix on one log (`append` assumes unlearned slots
    /// have live consensus machinery, which external learning never
    /// materializes). Debug builds also catch re-learning a slot with a
    /// *different* value, which would mean the external sequencer
    /// diverged.
    pub fn learn_decided(&self, slot: usize, value: u64) {
        assert!(
            value < self.capacity,
            "value {value} exceeds capacity {}",
            self.capacity
        );
        self.claim_drive(DRIVE_EXTERNAL);
        self.learn(slot, value);
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

impl<M: SharedMemory> std::fmt::Debug for ReplicatedLog<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedLog")
            .field("capacity", &self.capacity)
            .field("learned_prefix", &self.learned_prefix())
            .field("live_slots", &self.live_slots())
            .field("pooled_instances", &self.pooled_instances())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn sequential_appends_fill_slots_in_order() {
        let log = ReplicatedLog::new(1, 16);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(log.append(5, &mut rng), 0);
        assert_eq!(log.append(9, &mut rng), 1);
        assert_eq!(log.append(5, &mut rng), 2);
        assert_eq!(log.snapshot(), vec![5, 9, 5]);
        assert_eq!(log.get(1), Some(9));
        assert_eq!(log.get(7), None);
        assert_eq!(log.learned_prefix(), 3);
    }

    #[test]
    fn concurrent_appends_land_every_command_exactly_once() {
        for trial in 0..30 {
            let threads = 4;
            let log = Arc::new(ReplicatedLog::new(threads, 64));
            let handles: Vec<_> = (0..threads as u64)
                .map(|t| {
                    let log = Arc::clone(&log);
                    std::thread::spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(trial * 100 + t);
                        // Distinct commands so we can count placements.
                        log.append(10 + t, &mut rng)
                    })
                })
                .collect();
            let slots: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            // All commands landed in distinct slots.
            let mut sorted = slots.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), threads, "trial {trial}: slots {slots:?}");
            // And each append's slot really holds its command.
            for (t, &slot) in slots.iter().enumerate() {
                assert_eq!(log.get(slot), Some(10 + t as u64), "trial {trial}");
            }
        }
    }

    #[test]
    fn duplicate_commands_occupy_separate_slots() {
        let threads = 3;
        let log = Arc::new(ReplicatedLog::new(threads, 4));
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t);
                    log.append(1, &mut rng)
                })
            })
            .collect();
        let slots: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Overlapping appends of one code may share a slot (see `append`):
        // what holds is that each returned slot carries the command.
        for &slot in &slots {
            assert_eq!(log.get(slot), Some(1), "slots {slots:?}");
        }
        // Appends that do not overlap always take a fresh slot each.
        let mut rng = SmallRng::seed_from_u64(9);
        let first = log.append(1, &mut rng);
        let second = log.append(1, &mut rng);
        assert!(slots.iter().all(|&slot| slot < first) && first < second);
        assert_eq!(log.snapshot(), vec![1; second + 1]);
    }

    #[test]
    fn decided_slots_are_retired_into_the_pool() {
        let log = ReplicatedLog::new(1, 16);
        let mut rng = SmallRng::seed_from_u64(0);
        for i in 0..100 {
            log.append(i % 16, &mut rng);
        }
        assert_eq!(log.learned_prefix(), 100);
        // Sequential appends: each slot is learned (and so retired) before
        // the next materializes — the whole run uses one pooled instance.
        assert_eq!(log.live_slots(), 0);
        assert_eq!(log.pooled_instances(), 1);
        let t = log.telemetry();
        assert_eq!(t.count(CounterKey::PoolMisses), 1);
        assert_eq!(t.count(CounterKey::PoolHits), 99);
        assert_eq!(t.count(CounterKey::InstancesRetired), 100);
        assert!(t.pool_hit_rate() > 0.9);
    }

    #[test]
    fn sustained_append_apply_compact_keeps_a_flat_instance_window() {
        // The count-based form of the flat-memory gate: after 10× the
        // warm-up volume of append → apply → `compact_below`, the log holds
        // no more instances than after the warm-up, and the log plus each
        // live or pooled instance are the only holders of the one
        // validated options allocation (slot setup is a pointer bump).
        let log = ReplicatedLog::new(4, 1024);
        let mut rng = SmallRng::seed_from_u64(0x10d);
        let mut burst = |slots: std::ops::Range<u64>| {
            for i in slots {
                log.append(i % 1024, &mut rng);
                if i % 256 == 255 {
                    let applied = log.learned_prefix();
                    assert_eq!(log.compact_below(applied), applied);
                }
            }
            log.live_slots() + log.pooled_instances()
        };
        let warm = burst(0..1_000);
        let steady = burst(1_000..11_000);
        assert!(steady <= warm, "{steady} instances after 10x, {warm} warm");
        assert_eq!(Arc::strong_count(log.options_handle()), 1 + steady);
        assert!(log.telemetry().pool_hit_rate() > 0.9);
        assert!(log.snapshot().len() <= 256, "retention follows apply lag");
    }

    #[test]
    fn retire_lag_keeps_a_window_of_live_slots() {
        let log = ReplicatedLog::new(1, 16).with_retire_lag(5);
        let mut rng = SmallRng::seed_from_u64(0);
        for i in 0..20 {
            log.append(i % 16, &mut rng);
        }
        assert_eq!(log.live_slots(), 5);
        assert_eq!(log.telemetry().count(CounterKey::InstancesRetired), 15);
        assert_eq!(log.snapshot().len(), 20);
    }

    #[test]
    fn concurrent_appends_survive_recycling() {
        for trial in 0..10 {
            let threads = 4;
            let log = Arc::new(ReplicatedLog::new(threads, 128));
            let handles: Vec<_> = (0..threads as u64)
                .map(|t| {
                    let log = Arc::clone(&log);
                    std::thread::spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(trial * 100 + t);
                        (0..25)
                            .map(|i| log.append(t * 25 + i, &mut rng))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut all_slots: Vec<usize> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            all_slots.sort_unstable();
            all_slots.dedup();
            assert_eq!(all_slots.len(), 100, "trial {trial}: a slot was reused");
            assert_eq!(log.learned_prefix(), 100, "trial {trial}");
            // Steady state: far fewer instances than slots ever existed.
            let t = log.telemetry();
            assert!(t.count(CounterKey::InstancesRetired) <= t.activations());
            assert!(
                t.count(CounterKey::PoolMisses) < 100,
                "trial {trial}: pooling never kicked in ({} misses)",
                t.count(CounterKey::PoolMisses)
            );
        }
    }

    #[test]
    fn slot_instances_share_the_options_allocation() {
        let log = ReplicatedLog::new(1, 16);
        let mut rng = SmallRng::seed_from_u64(0);
        log.append(3, &mut rng);
        let slot0 = log.slot(0);
        if let Some(slot) = slot0 {
            assert!(Arc::ptr_eq(slot.options_handle(), log.options_handle()));
        } else {
            // Slot 0 already retired; the pooled instance still shares.
            let table = log.slots.read().unwrap_or_else(PoisonError::into_inner);
            let pooled = table.free.first().expect("retired instance is pooled");
            assert!(Arc::ptr_eq(pooled.options_handle(), log.options_handle()));
        }
    }

    #[test]
    fn compaction_drops_applied_entries_without_renumbering() {
        let log = ReplicatedLog::new(1, 16);
        let mut rng = SmallRng::seed_from_u64(0);
        for i in 0..50 {
            log.append(i % 16, &mut rng);
        }
        assert_eq!(log.compact_below(30), 30);
        assert_eq!(log.compacted_below(), 30);
        assert_eq!(log.get(29), None, "compacted slots read as None");
        assert_eq!(
            log.get(30),
            Some(30 % 16),
            "retained slots keep their index"
        );
        assert_eq!(log.snapshot(), (30..50).map(|i| i % 16).collect::<Vec<_>>());
        // Appends continue past compaction with stable numbering.
        assert_eq!(log.append(7, &mut rng), 50);
        assert_eq!(log.learned_prefix(), 51);
        // Compacting beyond the prefix clamps; compacting backwards is a
        // no-op.
        assert_eq!(log.compact_below(1_000), 51);
        assert_eq!(log.compact_below(10), 51);
    }

    #[test]
    fn learning_a_compacted_slot_is_a_noop() {
        // A lagging appender can finish `decide` on a slot others already
        // learned, after the application compacted past it — its `learn`
        // must not panic or disturb the retained log.
        let log = ReplicatedLog::new(1, 16);
        let mut rng = SmallRng::seed_from_u64(0);
        for i in 0..10 {
            log.append(i, &mut rng);
        }
        assert_eq!(log.compact_below(5), 5);
        log.learn(2, 2);
        assert_eq!(log.learned_prefix(), 10);
        assert_eq!(log.compacted_below(), 5);
        assert_eq!(log.snapshot(), (5..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversized_command_rejected() {
        let log = ReplicatedLog::new(1, 4);
        log.append(4, &mut SmallRng::seed_from_u64(0));
    }

    #[test]
    fn externally_learned_slots_advance_the_prefix_in_order() {
        let log = ReplicatedLog::new(2, 16);
        // Out-of-order learning: prefix waits for the gap.
        log.learn_decided(1, 9);
        assert_eq!(log.learned_prefix(), 0);
        log.learn_decided(0, 5);
        assert_eq!(log.learned_prefix(), 2);
        assert_eq!(log.snapshot(), vec![5, 9]);
        // Idempotent re-learn and compaction behave as with append.
        log.learn_decided(1, 9);
        assert_eq!(log.compact_below(1), 1);
        log.learn_decided(0, 5);
        assert_eq!(log.learned_prefix(), 2);
        assert_eq!(log.snapshot(), vec![9]);
        // No consensus machinery ever materialized.
        assert_eq!(log.live_slots(), 0);
        assert_eq!(log.pooled_instances(), 0);
    }

    #[test]
    #[should_panic(expected = "never both")]
    fn mixing_append_and_learn_decided_panics() {
        let log = ReplicatedLog::new(1, 16);
        log.append(3, &mut SmallRng::seed_from_u64(0));
        log.learn_decided(1, 4);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversized_external_decision_rejected() {
        let log = ReplicatedLog::new(1, 4);
        log.learn_decided(0, 4);
    }
}
