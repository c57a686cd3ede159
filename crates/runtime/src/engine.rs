//! A sharded multi-instance consensus service over pooled, recyclable
//! objects.
//!
//! Every deciding object in the paper is one-shot (§2), and a sustained
//! workload — a stream of log slots, transactions, leases — needs a fresh
//! instance per decision. Allocating each one from scratch grows memory
//! without bound and hammers the allocator. [`ConsensusEngine`] turns the
//! recycle path ([`Consensus::reset`], which clears every register) into a
//! service: instances are sharded by id across per-core shards, each shard
//! keeps a free-list of reset objects, and a bounded number of instances
//! may be live per shard at once (backpressure), so steady-state memory is
//! flat no matter how many decisions flow through.
//!
//! The pool holds the `Arc` each instance is shared through: retirement
//! resets the instance in place (`Arc::get_mut`, the sole owner once every
//! caller has left) and parks the same `Arc`, so a checkout reuses both
//! the object and its allocation — after warm-up a slot's lifecycle
//! allocates nothing.
//!
//! The engine reports pool hits/misses, retired instances, and the live
//! count through [`RuntimeTelemetry`], so the recycling behavior shows up
//! in the same snapshot/Prometheus/JSONL paths as every other runtime
//! metric.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use rand::Rng;

use crate::builder::EngineBuilder;
use crate::consensus::{Consensus, ConsensusOptions};
use crate::hash::FastMap;
use crate::register::{AtomicMemory, SharedMemory};
use crate::telemetry::{CounterKey, RuntimeTelemetry};

/// Maximum instances live at once per shard: a `submit` that would
/// activate one more blocks until an instance retires.
const MAX_LIVE_PER_SHARD: usize = 64;

/// Tuning for a [`ConsensusEngine`], set through its [`EngineBuilder`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EngineOptions {
    /// Number of shards instances are hashed across. `0` means one per
    /// available core.
    pub shards: usize,
    /// How many `submit` calls each instance receives. When the last one
    /// returns, the instance is reset and pooled. `0` means
    /// `ConsensusOptions::n` (every participant submits). Must not exceed
    /// `ConsensusOptions::n` — an instance admits at most the `n`
    /// concurrent callers its quorum scheme was sized for.
    pub participants: usize,
}

/// A live instance: the shared object plus how many of its participants
/// have not yet claimed their submit.
struct Entry<M: SharedMemory> {
    instance: Arc<Consensus<M>>,
    remaining: usize,
}

struct ShardState<M: SharedMemory> {
    live: FastMap<u64, Entry<M>>,
    /// Reset instances, each still in the `Arc` it was last shared through.
    free: Vec<Arc<Consensus<M>>>,
    /// Callers of the blocking `submit` parked on `Shard::cv` for the live
    /// bound. A retirement notifies only when this is nonzero: the
    /// notification is a syscall, and a retirement happens once per instance.
    blocked: usize,
}

struct Shard<M: SharedMemory> {
    state: Mutex<ShardState<M>>,
    cv: Condvar,
}

impl<M: SharedMemory> Shard<M> {
    fn lock(&self) -> MutexGuard<'_, ShardState<M>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Retires live instance `instance_id` into the free-list if no caller
    /// still holds it, returning whether it did.
    fn retire_unheld(state: &mut ShardState<M>, instance_id: u64) -> bool {
        let Some(entry) = state.live.get_mut(&instance_id) else {
            return false;
        };
        // Sole ownership: every caller has dropped its clone, and a new one
        // is only taken under the shard lock we hold.
        let Some(instance) = Arc::get_mut(&mut entry.instance) else {
            return false;
        };
        instance.reset();
        let entry = state.live.remove(&instance_id).expect("entry exists");
        state.free.push(entry.instance);
        true
    }

    /// After a retirement, with the shard lock released: wakes a blocked
    /// `submit` only if one is parked (`blocked`, read under the lock).
    fn notify_retired(&self, blocked: usize) {
        if blocked > 0 {
            self.cv.notify_all();
        }
    }
}

/// Which of `len` shards (or service rings) owns `instance_id`. Fibonacci
/// hashing: cheap, deterministic, spreads sequential ids.
pub(crate) fn shard_index(instance_id: u64, len: usize) -> usize {
    let h = instance_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (h as usize) % len
}

/// A service front-end for a stream of consensus instances: `submit` a
/// proposal under any `instance_id` and get that instance's decision back,
/// with the underlying one-shot objects pooled and recycled behind the
/// scenes.
///
/// # Instance lifecycle
///
/// `instance_id → shard` by hash. The first `submit` for an id activates
/// an instance on its shard — from the shard's free-list when possible
/// (`pool_hits`), freshly built otherwise (`pool_misses`); all instances
/// share one validated [`ConsensusOptions`] by `Arc`, so activation never
/// re-validates the quorum scheme. Concurrent submits for the same id
/// join the same instance and therefore agree. When the configured number
/// of participants have all received their decision, the instance is
/// [`reset`](Consensus::reset) and parked for reuse
/// (`instances_retired`).
///
/// # Contract
///
/// Each instance id must receive **exactly**
/// [`participants`](ConsensusEngine::participants) submits, and ids must
/// not be reused after completion — a reused id would silently activate a
/// fresh instance, which can decide differently. Under-submitted instances stay
/// live forever and eat into their shard's backpressure budget. A caller
/// that knows better when an instance is finished keeps its own
/// instances, built by [`fresh_instance`](ConsensusEngine::fresh_instance)
/// (the store's slot table does).
///
/// # Backpressure
///
/// At most 64 instances are live per shard; `submit` blocks activations
/// past that, bounding memory at `shards × 64` instances plus the pooled
/// free-lists — flat no matter how many decisions stream through.
pub struct ConsensusEngine<M: SharedMemory = AtomicMemory> {
    memory: M,
    options: Arc<ConsensusOptions>,
    participants: usize,
    shards: Vec<Shard<M>>,
    telemetry: Arc<RuntimeTelemetry>,
}

impl ConsensusEngine {
    /// Starts building an engine: the single documented construction path.
    ///
    /// ```
    /// use mc_runtime::ConsensusEngine;
    /// let engine = ConsensusEngine::builder().n(4).values(64).build();
    /// assert_eq!(engine.participants(), 4);
    /// ```
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }
}

impl<M: SharedMemory> ConsensusEngine<M> {
    pub(crate) fn with_telemetry_in(
        memory: M,
        options: ConsensusOptions,
        engine: EngineOptions,
        telemetry: Arc<RuntimeTelemetry>,
    ) -> ConsensusEngine<M> {
        assert!(options.n > 0, "need at least one participant");
        let shard_count = if engine.shards == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            engine.shards
        };
        let participants = if engine.participants == 0 {
            options.n
        } else {
            engine.participants
        };
        // More concurrent decide() callers than the n-thread bound the
        // quorum scheme was built for would silently void the algorithm's
        // guarantees.
        assert!(
            participants <= options.n,
            "participants ({participants}) exceeds the instance bound n ({})",
            options.n
        );
        ConsensusEngine {
            memory,
            options: Arc::new(options),
            participants,
            shards: (0..shard_count)
                .map(|_| Shard {
                    state: Mutex::new(ShardState {
                        live: FastMap::default(),
                        free: Vec::new(),
                        blocked: 0,
                    }),
                    cv: Condvar::new(),
                })
                .collect(),
            telemetry,
        }
    }

    /// Number of shards instances are distributed across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Submits per instance before it is retired.
    pub fn participants(&self) -> usize {
        self.participants
    }

    /// Aggregate metrics across every instance this engine has run:
    /// decide histograms plus `pool_hits`/`pool_misses`/
    /// `instances_retired`/`live_instances`.
    pub fn telemetry(&self) -> &RuntimeTelemetry {
        &self.telemetry
    }

    /// Shared handle to this engine's telemetry.
    pub fn telemetry_handle(&self) -> &Arc<RuntimeTelemetry> {
        &self.telemetry
    }

    /// The shared options every instance is activated from — one
    /// allocation, validated once (`Arc::ptr_eq` across instances).
    pub fn options_handle(&self) -> &Arc<ConsensusOptions> {
        &self.options
    }

    /// Instances currently live across all shards.
    pub fn live_instances(&self) -> usize {
        self.shards.iter().map(|s| s.lock().live.len()).sum()
    }

    /// Reset instances parked for reuse across all shards.
    fn pooled_instances(&self) -> usize {
        self.shards.iter().map(|s| s.lock().free.len()).sum()
    }

    /// A new instance on the engine's memory, options and telemetry, outside
    /// the engine's pools: its caller counts its activations and
    /// retirement.
    pub fn fresh_instance(&self) -> Consensus<M> {
        Consensus::with_telemetry_in(
            self.memory.clone(),
            Arc::clone(&self.options),
            Arc::clone(&self.telemetry),
        )
    }

    fn shard_of(&self, instance_id: u64) -> &Shard<M> {
        &self.shards[shard_index(instance_id, self.shards.len())]
    }

    /// Claims this caller's submit slot on `instance_id`, activating the
    /// instance if needed. Refuses (`None`) when activation would exceed
    /// the shard's live bound.
    fn checkout(
        &self,
        state: &mut ShardState<M>,
        instance_id: u64,
        bounded: bool,
    ) -> Option<Arc<Consensus<M>>> {
        if let Some(entry) = state.live.get_mut(&instance_id) {
            assert!(
                entry.remaining > 0,
                "instance {instance_id} already received all {} submits",
                self.participants
            );
            entry.remaining -= 1;
            return Some(Arc::clone(&entry.instance));
        }
        if bounded && state.live.len() >= MAX_LIVE_PER_SHARD {
            return None;
        }
        let instance = match state.free.pop() {
            Some(recycled) => {
                self.telemetry.add(CounterKey::PoolHits, 1);
                recycled
            }
            None => {
                self.telemetry.add(CounterKey::PoolMisses, 1);
                Arc::new(self.fresh_instance())
            }
        };
        state.live.insert(
            instance_id,
            Entry {
                instance: Arc::clone(&instance),
                remaining: self.participants - 1,
            },
        );
        Some(instance)
    }

    /// Runs the decision and, if this caller was the last participant out
    /// and nobody else is inside it, retires the instance into the shard's
    /// pool.
    ///
    /// The retire path keeps its critical section minimal: only the map
    /// removal, the reset, and the free-list push happen under the shard
    /// lock. The condvar notification and the telemetry increment run
    /// *after* the lock is released — a `notify_all` issued while still
    /// holding the mutex makes every woken waiter immediately block on the
    /// lock the notifier still owns (a wake-then-block hiccup that shows up
    /// in submit tail latency under saturation).
    fn decide_and_release(
        &self,
        shard: &Shard<M>,
        instance: Arc<Consensus<M>>,
        instance_id: u64,
        proposal: u64,
        rng: &mut dyn Rng,
    ) -> u64 {
        let decided = instance.decide(proposal, rng);
        drop(instance);
        let (retired, blocked) = {
            let mut state = shard.lock();
            let finished = state
                .live
                .get(&instance_id)
                .is_some_and(|e| e.remaining == 0);
            (
                finished && Shard::retire_unheld(&mut state, instance_id),
                state.blocked,
            )
        };
        if retired {
            self.telemetry.add(CounterKey::InstancesRetired, 1);
            shard.notify_retired(blocked);
        }
        decided
    }

    /// Proposes `proposal` on instance `instance_id` and returns that
    /// instance's decision. Blocks while the shard is at its live-instance
    /// bound.
    ///
    /// Concurrent submits for the same id join the same one-shot object,
    /// so all of them return the same value, equal to one of their
    /// proposals.
    ///
    /// # Panics
    ///
    /// Panics if `proposal` exceeds the options' value capacity, or if the
    /// instance has already received all its participants' submits.
    pub fn submit(&self, instance_id: u64, proposal: u64, rng: &mut dyn Rng) -> u64 {
        let shard = self.shard_of(instance_id);
        let instance = {
            let mut state = shard.lock();
            loop {
                match self.checkout(&mut state, instance_id, true) {
                    Some(instance) => break instance,
                    None => {
                        // Wait site (blocked submit). Predicate, checked by
                        // `checkout` under the shard lock: room under the
                        // live bound. Only a retirement makes it true, and
                        // every retirement notifies when `blocked`, raised
                        // here under the same lock, is nonzero.
                        state.blocked += 1;
                        state = shard.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                        state.blocked -= 1;
                    }
                }
            }
        };
        self.decide_and_release(shard, instance, instance_id, proposal, rng)
    }

    /// [`submit`](ConsensusEngine::submit) minus the live-instance bound:
    /// the checkout never blocks and never refuses. Service shard workers
    /// use this — the service applies its *own* backpressure at admission
    /// (a full intake ring parks the producer), and a worker that parked
    /// on the engine bound while the submissions that would complete the
    /// blocking instances sat behind it in its own ring would deadlock.
    pub(crate) fn submit_unbounded(
        &self,
        instance_id: u64,
        proposal: u64,
        rng: &mut dyn Rng,
    ) -> u64 {
        let shard = self.shard_of(instance_id);
        let instance = self
            .checkout(&mut shard.lock(), instance_id, false)
            .expect("an unbounded checkout never refuses");
        self.decide_and_release(shard, instance, instance_id, proposal, rng)
    }

    /// Checks out a long-lived single-participant slot for a batch worker;
    /// `shard_ix` picks which shard's pool backs it.
    ///
    /// Only valid when [`participants`](ConsensusEngine::participants) is
    /// 1: every logical instance receives exactly one submit, so one pooled
    /// object, reset between decisions, can serve an unbounded stream of
    /// instances without ever touching the live map or cloning its `Arc`.
    /// This is the amortization that makes batched draining cheap —
    /// one pool checkout per worker, zero shard-lock acquisitions per
    /// decision.
    pub(crate) fn detached_slot(&self, shard_ix: usize) -> DetachedSlot<'_, M> {
        assert_eq!(
            self.participants, 1,
            "detached slots serve single-participant streams only"
        );
        DetachedSlot {
            engine: self,
            shard_ix: shard_ix % self.shards.len(),
            instance: None,
        }
    }
}

/// A worker-owned consensus slot serving a stream of single-participant
/// instances from one pooled object (see
/// [`ConsensusEngine::detached_slot`]). Returns the object to its shard's
/// pool on drop.
pub(crate) struct DetachedSlot<'e, M: SharedMemory> {
    engine: &'e ConsensusEngine<M>,
    shard_ix: usize,
    /// The pooled `Arc`, held alone: reset in place through `Arc::get_mut`.
    instance: Option<Arc<Consensus<M>>>,
}

impl<M: SharedMemory> DetachedSlot<'_, M> {
    /// Decides one logical instance: activation (pool hit/miss), decide,
    /// retire — the same per-instance accounting as
    /// [`ConsensusEngine::submit`], without per-instance locking.
    pub(crate) fn decide(&mut self, proposal: u64, rng: &mut dyn Rng) -> u64 {
        let engine = self.engine;
        let instance = match &mut self.instance {
            Some(instance) => {
                // Re-activating the object this slot already holds is a
                // pool hit by construction.
                engine.telemetry.add(CounterKey::PoolHits, 1);
                instance
            }
            None => {
                let shard = &engine.shards[self.shard_ix];
                let recycled = { shard.lock().free.pop() };
                let instance = match recycled {
                    Some(recycled) => {
                        engine.telemetry.add(CounterKey::PoolHits, 1);
                        recycled
                    }
                    None => {
                        engine.telemetry.add(CounterKey::PoolMisses, 1);
                        Arc::new(engine.fresh_instance())
                    }
                };
                self.instance.insert(instance)
            }
        };
        let decided = instance.decide(proposal, rng);
        Arc::get_mut(instance)
            .expect("a detached slot is its instance's only holder")
            .reset();
        engine.telemetry.add(CounterKey::InstancesRetired, 1);
        decided
    }
}

impl<M: SharedMemory> Drop for DetachedSlot<'_, M> {
    fn drop(&mut self) {
        if let Some(instance) = self.instance.take() {
            // Dropping mid-unwind means a decide may have died between
            // touching registers and `reset`: the instance's state is
            // unknown, and pooling it would leak stale register contents
            // into whatever submission recycles it after the supervisor
            // restarts the worker. Discard it; the pool re-fills on miss.
            if std::thread::panicking() {
                return;
            }
            let shard = &self.engine.shards[self.shard_ix];
            shard.lock().free.push(instance);
        }
    }
}

impl<M: SharedMemory> std::fmt::Debug for ConsensusEngine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConsensusEngine")
            .field("shards", &self.shard_count())
            .field("participants", &self.participants)
            .field("live_instances", &self.live_instances())
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
    fn single_participant_stream_recycles_instances() {
        let engine = ConsensusEngine::builder()
            .n(1)
            .values(64)
            .shards(4)
            .participants(1)
            .build();
        let mut rng = SmallRng::seed_from_u64(0);
        for id in 0..200u64 {
            assert_eq!(engine.submit(id, id % 64, &mut rng), id % 64);
        }
        assert_eq!(engine.live_instances(), 0);
        let t = engine.telemetry();
        assert_eq!(t.activations(), 200);
        assert_eq!(t.count(CounterKey::InstancesRetired), 200);
        // One miss per shard at most: after warm-up everything is a hit.
        assert!(
            t.count(CounterKey::PoolMisses) <= 4,
            "{} misses",
            t.count(CounterKey::PoolMisses)
        );
        assert!(t.pool_hit_rate() > 0.9);
        assert!(engine.pooled_instances() >= 1);
    }

    #[test]
    fn concurrent_submits_to_one_instance_agree() {
        for trial in 0..20u64 {
            let engine = Arc::new(ConsensusEngine::builder().n(4).values(8).build());
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let engine = Arc::clone(&engine);
                    std::thread::spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(trial * 100 + t);
                        engine.submit(7, (t + trial) % 8, &mut rng)
                    })
                })
                .collect();
            let results: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(
                results.iter().all(|&r| r == results[0]),
                "trial {trial}: {results:?}"
            );
            // Validity: one of the four proposals (which wrap modulo 8).
            assert!(
                (0..4).any(|t| (t + trial) % 8 == results[0]),
                "trial {trial}: {results:?}"
            );
            assert_eq!(engine.live_instances(), 0, "trial {trial}");
            assert_eq!(engine.telemetry().count(CounterKey::InstancesRetired), 1);
        }
    }

    #[test]
    fn interleaved_instances_all_decide_their_own_stream() {
        let engine = Arc::new(ConsensusEngine::builder().n(4).values(1000).build());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t);
                    (0..50u64)
                        .map(|id| engine.submit(id, id * 4 + t, &mut rng))
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let all: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for id in 0..50usize {
            let decided = all[0][id];
            assert!(all.iter().all(|r| r[id] == decided), "instance {id}");
            // Validity: one of the four proposals for this id.
            assert!((id as u64 * 4..id as u64 * 4 + 4).contains(&decided));
        }
        assert_eq!(engine.live_instances(), 0);
        assert_eq!(engine.telemetry().count(CounterKey::InstancesRetired), 50);
        // Hit rate depends on thread skew (a fast thread racing ahead keeps
        // more instances live at once); only the accounting is deterministic.
        let t = engine.telemetry();
        assert_eq!(t.activations(), 50);
        assert_eq!(
            engine.pooled_instances(),
            t.count(CounterKey::PoolMisses) as usize
        );
    }

    #[test]
    fn submit_blocks_until_a_live_slot_frees_up() {
        let engine = ConsensusEngine::builder()
            .n(2)
            .values(8)
            .shards(1)
            .participants(2)
            .build();
        let mut rng = SmallRng::seed_from_u64(0);
        // One participant each: every instance stays live awaiting its
        // second, until the shard is at its bound.
        for id in 0..MAX_LIVE_PER_SHARD as u64 {
            assert_eq!(engine.submit(id, id % 8, &mut rng), id % 8);
        }
        assert_eq!(engine.live_instances(), MAX_LIVE_PER_SHARD);
        let next = MAX_LIVE_PER_SHARD as u64;
        std::thread::scope(|scope| {
            let blocked = scope.spawn(|| {
                let mut rng = SmallRng::seed_from_u64(1);
                // Blocks: the shard is full until an instance retires.
                engine.submit(next, 6, &mut rng)
            });
            while engine.shards[0].lock().blocked == 0 {
                std::thread::yield_now();
            }
            assert!(!blocked.is_finished());
            assert_eq!(engine.live_instances(), MAX_LIVE_PER_SHARD);
            // Complete instance 0, retiring it and freeing a live slot.
            assert_eq!(engine.submit(0, 2, &mut rng), 0);
            assert_eq!(blocked.join().unwrap(), 6);
        });
        // The new instance took the freed slot, awaiting its second
        // participant.
        assert_eq!(engine.live_instances(), MAX_LIVE_PER_SHARD);
        for id in 1..=next {
            engine.submit(id, 4, &mut rng);
        }
        assert_eq!(engine.live_instances(), 0);
    }

    #[test]
    fn instances_share_one_options_allocation() {
        let engine = ConsensusEngine::builder()
            .n(1)
            .values(8)
            .participants(1)
            .build();
        let mut rng = SmallRng::seed_from_u64(0);
        engine.submit(0, 1, &mut rng);
        engine.submit(1, 2, &mut rng);
        // Engine + each pooled instance hold the same Arc.
        let held = Arc::strong_count(engine.options_handle());
        assert_eq!(held, 1 + engine.pooled_instances());
    }

    #[test]
    #[should_panic(expected = "exceeds the instance bound")]
    fn participants_beyond_n_rejected() {
        ConsensusEngine::builder()
            .n(2)
            .values(8)
            .participants(3)
            .build();
    }

    #[test]
    fn detached_slot_matches_submit_accounting() {
        let engine = ConsensusEngine::builder()
            .n(1)
            .values(64)
            .shards(1)
            .participants(1)
            .build();
        let mut rng = SmallRng::seed_from_u64(0);
        {
            let mut slot = engine.detached_slot(0);
            for id in 0..50u64 {
                assert_eq!(slot.decide(id % 64, &mut rng), id % 64);
            }
        }
        let t = engine.telemetry();
        // Same per-instance accounting as 50 direct submits: one
        // activation and one retirement per logical instance.
        assert_eq!(t.activations(), 50);
        assert_eq!(t.count(CounterKey::InstancesRetired), 50);
        assert_eq!(t.count(CounterKey::PoolMisses), 1);
        // The slot parked its object back into the pool on drop.
        assert_eq!(engine.pooled_instances(), 1);
        assert_eq!(engine.live_instances(), 0);
    }

    #[test]
    #[should_panic(expected = "single-participant streams only")]
    fn detached_slot_requires_single_participant() {
        let engine = ConsensusEngine::builder().n(2).values(8).build();
        engine.detached_slot(0);
    }

    #[test]
    fn a_retired_instance_is_reactivated_in_its_own_allocation() {
        let engine = ConsensusEngine::builder()
            .n(2)
            .values(8)
            .shards(1)
            .participants(2)
            .build();
        let pooled = || Arc::as_ptr(&engine.shards[0].lock().free[0]);
        let live = |id| Arc::as_ptr(&engine.shards[0].lock().live[&id].instance);
        let mut rng = SmallRng::seed_from_u64(0);
        // Both participants submit, and the second out retires it.
        assert_eq!(engine.submit(0, 3, &mut rng), 3);
        assert_eq!(engine.submit(0, 4, &mut rng), 3);
        let allocation = pooled();
        // Reactivated for the next id: the same allocation, reset — it
        // decides the new proposal, not the value it held before.
        assert_eq!(engine.submit(1, 5, &mut rng), 5);
        assert_eq!(live(1), allocation);
        // And retired again, into the pool, still the same allocation.
        assert_eq!(engine.submit(1, 6, &mut rng), 5);
        assert_eq!(pooled(), allocation);
        let t = engine.telemetry();
        assert_eq!(t.count(CounterKey::PoolMisses), 1);
        assert_eq!(t.count(CounterKey::PoolHits), 1);
        assert_eq!(t.count(CounterKey::InstancesRetired), 2);
    }
}
