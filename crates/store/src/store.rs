//! The replicated store: callers that order and apply their own commands,
//! and the session table that makes delivery exactly-once.
//!
//! A caller that wants a response **drives** the store: it leases one of
//! the `proposers` identities, drafts whole queued submissions into a
//! batch announced under `(slot, pid)`, enters the slot's consensus
//! instance — kept, with the slot's winner, in the intake's slot table —
//! and proposes its pid on it on its own thread (the objects are
//! wait-free), learns each decision into the slot table, and applies the
//! learned prefix unless another caller is applying — each winner's batch
//! through the session table, then pop the slot, whose
//! instance goes back to the store's pool once its last holder leaves,
//! and only then, holding nothing, answer each submission once.
//! Consensus agrees on *who* won a slot, so the value space is
//! `max(proposers, 2)` and no slot is spent on a no-op. With no store
//! thread, a caller that finds every identity leased parks on its
//! response block, and two release-then-recheck rules keep that live: the
//! last driver out keeps draining the intake, and the applier re-reads
//! the learned prefix under the intake mutex after it lowers its
//! `applying` flag. DESIGN.md §12 has the argument.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use mc_model::mix_seed;
use mc_runtime::clock;
use mc_runtime::{
    AmortizedEvents, AtomicMemory, Consensus, ConsensusEngine, CounterKey, EngineError, FastMap,
    RuntimeTelemetry, SharedMemory,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::builder::{StoreBuilder, StoreOptions};
use crate::cell::{Answer, CommandHandle, Driver, ResponseBlock};
use crate::error::StoreError;
use crate::kv::KvStore;
use crate::machine::StateMachine;

/// One submitted command waiting to be ordered and applied. It names no
/// response: its submission's entry answers it.
struct Pending<S: StateMachine> {
    client: u64,
    seq: u64,
    command: S::Command,
}

/// One submission's intake entry: the block that answers it and how many
/// consecutive commands of the queue (or of a batch) are its.
struct Submission<R> {
    block: Arc<ResponseBlock<R>>,
    len: usize,
}

/// A drafted batch: whole submissions, their commands in FIFO order.
struct Batch<S: StateMachine> {
    commands: Vec<Pending<S>>,
    submissions: Vec<Submission<S::Response>>,
}

impl<S: StateMachine> Batch<S> {
    /// Answers each submission of an applied batch once, from the
    /// responses [`apply_batch`](StoreInner::apply_batch) left, and leaves
    /// both buffers empty.
    fn answer(&mut self, responses: &mut Vec<Result<S::Response, StoreError>>) {
        let mut responses = responses.drain(..);
        for submission in self.submissions.drain(..) {
            let answer = if submission.len == 1 {
                Answer::All(responses.next().expect("a response per command"))
            } else {
                Answer::Each(responses.by_ref().take(submission.len).collect())
            };
            assert!(
                submission.block.answer(answer),
                "a submission answered twice"
            );
        }
    }
}

impl<S: StateMachine> Default for Batch<S> {
    fn default() -> Batch<S> {
        Batch {
            commands: Vec::new(),
            submissions: Vec::new(),
        }
    }
}

/// One of the `proposers` identities a driver leases: pid `pid` proposes
/// the value `pid`, on its own coin stream.
struct Identity {
    pid: usize,
    /// The next slot this pid may enter. It only grows, so the pid enters
    /// each slot at most once.
    cursor: u64,
    rng: SmallRng,
}

/// One slot from `applied` up: the consensus instance its proposers enter,
/// and its winning pid once learned.
struct Slot<M: SharedMemory> {
    instance: Arc<Consensus<M>>,
    winner: Option<usize>,
}

/// Intake: commands submitted but not yet drafted into a batch with one
/// entry per submission beside them, the identities free to draft them,
/// the drafted batches announced for a slot, the slot table with its
/// instances and the pool behind it, and the learned prefix with its
/// applier.
///
/// A batch is announced, re-announced under each next slot its driver
/// tries, and drained by `poison`, all under this one mutex; an applier
/// takes it only to remove the batch its slot's winner announced. So
/// `poison` fails every command no applier has taken — queued or
/// announced — in one critical section, and none is announced after.
///
/// A decision is learned, and the next learned slot handed to at most one
/// applier, under this mutex too: the applier raises `applying` in the
/// critical section that takes its batch, lowers it in the one that pops
/// the slot, and re-reads `learned` in a later one, so a slot learned
/// while it applies is either seen by that re-read or finds the flag down
/// and is applied by its learner.
///
/// Every holder of a slot's instance — its entry, and each driver inside
/// it — is taken and dropped under this mutex too, so the last one out
/// sees itself alone and pools the instance; a driver descheduled inside
/// a decide still finishes on the object it entered.
struct Intake<S: StateMachine, M: SharedMemory> {
    /// Queued commands, oldest first: the commands of `submissions`, each
    /// submission's contiguous.
    queue: VecDeque<Pending<S>>,
    /// One entry per queued submission, in queue order. A draft moves
    /// whole entries, so a submission is applied in one slot.
    submissions: VecDeque<Submission<S::Response>>,
    /// No new submissions. Queued commands are still ordered, unless the
    /// store is poisoned.
    closed: bool,
    /// Identities no driver holds. A driver takes one and returns it under
    /// this mutex, so `idle.len() + 1 == proposers` tells a returning
    /// driver that it is the last one out.
    idle: Vec<Identity>,
    /// Batches by the `(slot, pid)` they are proposed under — won and
    /// awaiting apply, or still proposed. A pid enters a slot at most once,
    /// so the key names one batch.
    announced: FastMap<(u64, usize), Batch<S>>,
    /// One entry per slot from `applied` up, made by the first driver to
    /// choose the slot and popped once it is applied; winners are learned
    /// in any order.
    slots: VecDeque<Slot<M>>,
    /// Reset instances, each still in the `Arc` it was last shared
    /// through, for the next slot entry.
    free: Vec<Arc<Consensus<M>>>,
    /// Slots learned decided: the contiguous prefix of `slots`' winners.
    learned: u64,
    /// 1 + the highest slot learned decided: where a batch is proposed.
    /// Never below `learned`, so no driver enters a learned slot, let
    /// alone an applied one whose entry is gone.
    frontier: u64,
    /// Slots applied: the front of `slots` is slot `applied`.
    applied: u64,
    /// Commands applied, duplicates and stale retries excluded.
    commands: u64,
    /// A caller is applying slot `applied`. It stays up if
    /// `StateMachine::apply` unwinds: the store is poisoned by then, and
    /// appliers check the poisoned flag as well, so no learned slot waits
    /// on it — poison has answered every command no applier took.
    applying: bool,
    /// The last applied batch's buffers, emptied, for the next draft.
    spare: Batch<S>,
    /// `apply_batch`'s response buffer, lent to the applier.
    responses: Vec<Result<S::Response, StoreError>>,
}

impl<S: StateMachine, M: SharedMemory> Intake<S, M> {
    /// Queues one non-empty submission's commands, to be answered through
    /// `block`. A closed intake answers the whole submission
    /// [`StoreError::Shutdown`] immediately.
    fn enqueue(
        &mut self,
        block: &Arc<ResponseBlock<S::Response>>,
        commands: impl ExactSizeIterator<Item = Pending<S>>,
    ) {
        if self.closed {
            block.answer(Answer::All(Err(StoreError::Shutdown)));
        } else {
            let len = commands.len();
            self.queue.extend(commands);
            self.submissions.push_back(Submission {
                block: Arc::clone(block),
                len,
            });
        }
    }

    /// Moves the oldest queued submissions, whole, into `batch`: as many
    /// as fit in `cap` commands and at least one, so a submission larger
    /// than `cap` is a batch of its own.
    fn draft(&mut self, cap: usize, batch: &mut Batch<S>) {
        let mut take = 0;
        while let Some(next) = self.submissions.front() {
            if take > 0 && take + next.len > cap {
                break;
            }
            take += next.len;
            batch.submissions.extend(self.submissions.pop_front());
        }
        batch.commands.extend(self.queue.drain(..take));
    }

    /// The next slot `identity` may propose in: never below `frontier`,
    /// so never a decided one.
    fn next_slot(&self, identity: &Identity) -> u64 {
        identity.cursor.max(self.frontier)
    }

    /// One more holder of `slot`'s instance, for the caller to decide on
    /// and hand back to [`release`](Intake::release). Makes the entries up
    /// to `slot`, each on a pooled instance (`pool_hits`) or a fresh one
    /// (`pool_misses`).
    fn enter(&mut self, slot: u64, engine: &ConsensusEngine<M>) -> Arc<Consensus<M>> {
        let offset = slot
            .checked_sub(self.applied)
            .expect("a slot at or above `frontier` is not applied") as usize;
        while self.slots.len() <= offset {
            let instance = match self.free.pop() {
                Some(recycled) => {
                    engine.telemetry().add(CounterKey::PoolHits, 1);
                    recycled
                }
                None => {
                    engine.telemetry().add(CounterKey::PoolMisses, 1);
                    Arc::new(engine.fresh_instance())
                }
            };
            self.slots.push_back(Slot {
                instance,
                winner: None,
            });
        }
        Arc::clone(&self.slots[offset].instance)
    }

    /// Drops one holder of an instance. The last one out resets the
    /// instance and pools it, in the same allocation.
    fn release(&mut self, mut instance: Arc<Consensus<M>>, telemetry: &RuntimeTelemetry) {
        if let Some(object) = Arc::get_mut(&mut instance) {
            object.reset();
            self.free.push(instance);
            telemetry.add(CounterKey::InstancesRetired, 1);
        }
    }

    /// Records that `winner` won `slot`. Idempotent; a slot already
    /// applied is ignored.
    fn learn(&mut self, slot: u64, winner: usize) {
        let Some(offset) = slot.checked_sub(self.applied) else {
            return;
        };
        self.frontier = self.frontier.max(slot + 1);
        let entry = &mut self.slots[offset as usize];
        debug_assert!(
            entry.winner.is_none_or(|won| won == winner),
            "slot {slot} diverged"
        );
        entry.winner = Some(winner);
        while self
            .slots
            .get((self.learned - self.applied) as usize)
            .is_some_and(|slot| slot.winner.is_some())
        {
            self.learned += 1;
        }
    }
}

/// The machine and the session table that guards it, under one mutex;
/// `torn` is up while a batch is applied, and stays up only if
/// `StateMachine::apply` unwound.
struct Applied<S: StateMachine> {
    machine: S,
    sessions: FastMap<u64, Session<S::Response>>,
    torn: bool,
}

/// One client session's exactly-once state: the last applied sequence
/// number and its cached response. Clients are sequential (a command is
/// retried only until its response arrives), so one cached response per
/// session suffices — the viewstamped-replication client-table model.
struct Session<R> {
    last_seq: u64,
    last_response: R,
}

struct StoreInner<S: StateMachine, M: SharedMemory> {
    /// Builds the slots' instances, on its memory and options, and owns
    /// the telemetry they and the store report to.
    engine: ConsensusEngine<M>,
    /// Per-decide recorder events stay off while callers drive the engine,
    /// as under the batching service: at one decide per slot per proposer
    /// a recorder call each would dominate the slot.
    _amortized: AmortizedEvents,
    options: StoreOptions,
    intake: Mutex<Intake<S, M>>,
    state: Mutex<Applied<S>>,
    /// A driver unwound; raised under the intake mutex.
    poisoned: AtomicBool,
    next_client: AtomicU64,
}

impl<S: StateMachine, M: SharedMemory> StoreInner<S, M> {
    fn telemetry(&self) -> &RuntimeTelemetry {
        self.engine.telemetry()
    }

    fn lock_intake(&self) -> MutexGuard<'_, Intake<S, M>> {
        #[cfg(test)]
        tests::INTAKE_LOCKS.with(|locks| locks.set(locks.get() + 1));
        self.intake.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_state(&self) -> MutexGuard<'_, Applied<S>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn poisoned(&self) -> bool {
        // Acquire, paired with `poison`'s Release: a reader that sees the
        // flag sees the intake closed. Where the flag decides anything
        // (drafting, the missing-batch assert) a mutex orders it anyway,
        // so a stale read elsewhere only delays a return.
        self.poisoned.load(Ordering::Acquire)
    }

    /// [`Intake::enqueue`] of a one-command submission, whose handle
    /// drives.
    fn submit(
        self: &Arc<Self>,
        client: u64,
        seq: u64,
        command: S::Command,
    ) -> CommandHandle<S::Response> {
        let block = ResponseBlock::new(Arc::clone(self) as _);
        let pending = Pending {
            client,
            seq,
            command,
        };
        self.lock_intake().enqueue(&block, std::iter::once(pending));
        CommandHandle::new(block, 0)
    }

    /// Leases an idle identity and drives with it: drafts whole queued
    /// submissions, up to `batch_commands` commands (or one larger
    /// submission), into a batch, sees it decided and
    /// applied, and repeats while commands wait and either `wanted()`
    /// still holds or no other driver holds an identity — the last driver
    /// out must not strand queued commands, whose callers may be parked
    /// for want of an identity. Returns `false` without leasing when
    /// nothing is queued, every identity is leased, or the store is
    /// poisoned.
    fn drive(&self, wanted: &dyn Fn() -> bool) -> bool {
        // Declared first so that, on unwind, the intake guard is gone
        // before `poison` takes the intake mutex.
        let _unwind = PoisonOnUnwind(self);
        let mut intake = self.lock_intake();
        if intake.queue.is_empty() || self.poisoned() {
            return false;
        }
        let Some(mut identity) = intake.idle.pop() else {
            return false;
        };
        loop {
            // Drafted and announced under the intake mutex, which `poison`
            // raises its flag under: it finds every command it must fail
            // queued or announced, and none is announced after.
            let mut batch = std::mem::take(&mut intake.spare);
            intake.draft(self.options.batch_commands, &mut batch);
            let slot = intake.next_slot(&identity);
            intake.announced.insert((slot, identity.pid), batch);
            let instance = intake.enter(slot, &self.engine);
            drop(intake);
            // Returns in the critical section that learned its win, which
            // the last-out check below rides on.
            intake = self.propose(&mut identity, slot, instance);
            let last_out = intake.idle.len() + 1 == self.options.proposers;
            if intake.queue.is_empty() || self.poisoned() || !(last_out || wanted()) {
                intake.idle.push(identity);
                return true;
            }
        }
    }

    /// Proposes `identity`'s pid on `instance`, `slot`'s, and on from
    /// there until it wins a slot, learning and applying every decision
    /// on the way, and re-announcing its batch under each next slot it
    /// enters. Returns holding the intake mutex.
    fn propose(
        &self,
        identity: &mut Identity,
        mut slot: u64,
        mut instance: Arc<Consensus<M>>,
    ) -> MutexGuard<'_, Intake<S, M>> {
        let pid = identity.pid;
        loop {
            identity.cursor = slot + 1;
            // Outside every lock. A pid enters a slot at most once, so it
            // decides as itself, with no ticket.
            let winner = instance.decide_as(pid, pid as u64, &mut identity.rng) as usize;
            let mut intake = self.lock_intake();
            intake.release(instance, self.telemetry());
            intake.learn(slot, winner);
            intake = self.apply_learned(intake);
            if winner == pid {
                return intake;
            }
            let Some(batch) = intake.announced.remove(&(slot, pid)) else {
                return intake; // drained by poison
            };
            slot = intake.next_slot(identity);
            intake.announced.insert((slot, pid), batch);
            instance = intake.enter(slot, &self.engine);
            drop(intake);
        }
    }

    /// Applies the learned prefix, slot by slot, unless another caller is
    /// applying: that one re-reads `learned` under this mutex after it
    /// lowers `applying`, so it applies whatever was learned while the
    /// flag was up. Returns holding the intake mutex.
    fn apply_learned<'a>(
        &'a self,
        mut intake: MutexGuard<'a, Intake<S, M>>,
    ) -> MutexGuard<'a, Intake<S, M>> {
        while intake.learned > intake.applied && !intake.applying && !self.poisoned() {
            // The identity invariant: the batch the winner announced for
            // exactly this slot. Only poison, draining them all, takes it,
            // and poison raises its flag under this mutex.
            let slot = intake.applied;
            let winner = intake.slots[0]
                .winner
                .expect("a slot below `learned` is learned");
            let Some(mut batch) = intake.announced.remove(&(slot, winner)) else {
                panic!("slot {slot} won by pid {winner}, which announced nothing for it");
            };
            intake.applying = true;
            let before = intake.commands;
            let mut responses = std::mem::take(&mut intake.responses);
            drop(intake);
            // If this unwinds, `applying` stays up; see `Intake::applying`.
            let commands = before + self.apply_batch(&mut batch, &mut responses, before);
            intake = self.lock_intake();
            let entry = intake
                .slots
                .pop_front()
                .expect("an applied slot has its entry");
            intake.release(entry.instance, self.telemetry());
            intake.applied = slot + 1;
            intake.commands = commands;
            intake.applying = false;
            drop(intake);
            // Answered with the flag down and no lock held. A caller this
            // wakes often preempts the applier right here on a shared CPU;
            // were the flag still up, its next call would learn its slot,
            // leave it to this applier and park again, to be woken the
            // same way: a context-switch pair per call for as long as the
            // two keep meeting so.
            batch.answer(&mut responses);
            intake = self.lock_intake();
            intake.spare = batch;
            intake.responses = responses;
        }
        intake
    }

    /// Applies one decided batch through the session table, leaving one
    /// response per command in `responses` and the batch's commands
    /// cleared for [`Batch::answer`], and returns how many commands
    /// actually mutated the machine (duplicates and stale retries
    /// excluded).
    fn apply_batch(
        &self,
        batch: &mut Batch<S>,
        responses: &mut Vec<Result<S::Response, StoreError>>,
        applied_before: u64,
    ) -> u64 {
        let telemetry = self.telemetry();
        let unanswered = Unanswered(&batch.submissions);
        // Responses are buffered and released only after every counter for
        // the batch has been bumped: a caller that has observed its
        // response (and anything it implies completed) must also observe
        // that work in the telemetry ledger.
        let mut guard = self.lock_state();
        let state = &mut *guard;
        state.torn = true;
        let mut applied = 0u64;
        for pending in &batch.commands {
            match state.sessions.entry(pending.client) {
                Entry::Vacant(vacant) => {
                    telemetry.add(CounterKey::SessionsCreated, 1);
                    let response = state.machine.apply(&pending.command);
                    vacant.insert(Session {
                        last_seq: pending.seq,
                        last_response: response.clone(),
                    });
                    responses.push(Ok(response));
                    applied += 1;
                }
                Entry::Occupied(mut occupied) => {
                    let session = occupied.get_mut();
                    if pending.seq > session.last_seq {
                        let response = state.machine.apply(&pending.command);
                        session.last_seq = pending.seq;
                        session.last_response = response.clone();
                        responses.push(Ok(response));
                        applied += 1;
                    } else if pending.seq == session.last_seq {
                        telemetry.add(CounterKey::DuplicatesServed, 1);
                        responses.push(Ok(session.last_response.clone()));
                    } else {
                        telemetry.add(CounterKey::StaleCommands, 1);
                        responses.push(Err(StoreError::Stale {
                            last_seq: session.last_seq,
                        }));
                    }
                }
            }
        }
        state.torn = false;
        drop(guard);
        telemetry.on_commands_applied(applied, applied_before + applied);
        drop(unanswered);
        batch.commands.clear();
        applied
    }

    /// A driver is unwinding — out of a decide or out of
    /// `StateMachine::apply`: refuse new commands and fail every one no
    /// applier has taken, queued or announced. Appliers check the flag,
    /// so none of these is ever applied.
    fn poison(&self) {
        let (queued, announced) = {
            let mut intake = self.lock_intake();
            intake.closed = true;
            // Release, paired with `poisoned()`: publishes the closed
            // intake to readers outside this mutex.
            self.poisoned.store(true, Ordering::Release);
            intake.queue.clear();
            let queued: Vec<_> = intake.submissions.drain(..).collect();
            let announced: Vec<_> = intake.announced.drain().map(|(_, batch)| batch).collect();
            (queued, announced)
        };
        fail_poisoned(&queued);
        for batch in &announced {
            fail_poisoned(&batch.submissions);
        }
    }

    /// Fast read: runs `f` against the applied state under the state
    /// mutex — no log slot consumed.
    fn read_with<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        self.telemetry().add(CounterKey::FastReads, 1);
        let state = self.lock_state();
        assert!(
            !state.torn,
            "StateMachine::apply panicked mid-batch: the store is poisoned"
        );
        f(&state.machine)
    }
}

impl<S: StateMachine, M: SharedMemory> Driver<S::Response> for StoreInner<S, M> {
    fn settle(
        &self,
        handle: &CommandHandle<S::Response>,
        deadline: Option<Instant>,
    ) -> Result<S::Response, StoreError> {
        let in_time = || deadline.is_none_or(|d| clock::now() < d);
        let wanted = || !handle.answered() && in_time();
        loop {
            if let Some(result) = handle.poll() {
                return result;
            }
            if !in_time() {
                return Err(StoreError::Timeout);
            }
            if !self.drive(&wanted) {
                // Nothing queued, or every identity leased: another driver
                // carries the command, or will as the last one out.
                return handle.park(deadline).unwrap_or(Err(StoreError::Timeout));
            }
        }
    }
}

/// Armed while a driver holds an identity. Nothing above a driver catches
/// a panic out of its decide (memory substrate, recorder) or out of
/// `StateMachine::apply`, so the unwind itself
/// [`poison`](StoreInner::poison)s the store.
struct PoisonOnUnwind<'a, S: StateMachine, M: SharedMemory>(&'a StoreInner<S, M>);

impl<S: StateMachine, M: SharedMemory> Drop for PoisonOnUnwind<'_, S, M> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Armed while a batch is applied: an unwind out of `StateMachine::apply`
/// answers every submission of the batch `Poisoned`, none of it having
/// been released.
struct Unanswered<'a, R>(&'a [Submission<R>]);

impl<R> Drop for Unanswered<'_, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            fail_poisoned(self.0);
        }
    }
}

/// Answers every command of each submission with
/// `StoreError::Ordering(EngineError::Poisoned)`: never applied.
fn fail_poisoned<R>(submissions: &[Submission<R>]) {
    for submission in submissions {
        let poisoned = Err(StoreError::Ordering(EngineError::Poisoned));
        submission.block.answer(Answer::All(poisoned));
    }
}

/// A linearizable replicated state machine over the consensus stack.
///
/// Construct with [`ReplicatedStore::builder`] (the end of the
/// `ConsensusBuilder → EngineBuilder → StoreBuilder` chain), obtain
/// sessions with [`client`](ReplicatedStore::client), and see the
/// [crate docs](crate) for the data path. The store runs no thread of its
/// own: callers waiting for a response drive it. Dropping the store
/// drains the commands still queued.
pub struct ReplicatedStore<S: StateMachine, M: SharedMemory = AtomicMemory> {
    inner: Arc<StoreInner<S, M>>,
}

impl<S: StateMachine + Default> ReplicatedStore<S> {
    /// The store end of the unified builder chain.
    pub fn builder() -> StoreBuilder<S> {
        StoreBuilder::new()
    }
}

impl<S: StateMachine, M: SharedMemory> ReplicatedStore<S, M> {
    /// Wires the store over an already-built engine, with every proposer
    /// identity idle. Called by [`StoreBuilder::build`].
    pub(crate) fn start(
        engine: ConsensusEngine<M>,
        options: StoreOptions,
        initial: S,
    ) -> ReplicatedStore<S, M> {
        let mut sessions = FastMap::default();
        sessions.reserve(options.expected_sessions);
        let idle = (0..options.proposers)
            .map(|pid| Identity {
                pid,
                cursor: 0,
                rng: SmallRng::seed_from_u64(mix_seed(options.seed, pid as u64)),
            })
            .collect();
        let inner = Arc::new(StoreInner {
            _amortized: engine.telemetry_handle().amortized(),
            engine,
            intake: Mutex::new(Intake {
                queue: VecDeque::new(),
                submissions: VecDeque::new(),
                closed: false,
                idle,
                announced: FastMap::default(),
                slots: VecDeque::new(),
                free: Vec::new(),
                learned: 0,
                frontier: 0,
                applied: 0,
                commands: 0,
                applying: false,
                spare: Batch::default(),
                responses: Vec::new(),
            }),
            options,
            state: Mutex::new(Applied {
                machine: initial,
                sessions,
                torn: false,
            }),
            poisoned: AtomicBool::new(false),
            next_client: AtomicU64::new(1),
        });
        ReplicatedStore { inner }
    }

    /// A fresh client session with a store-unique client id.
    pub fn client(&self) -> StoreClient<S, M> {
        StoreClient {
            inner: Arc::clone(&self.inner),
            // Relaxed: the RMW alone makes ids unique, and an id publishes
            // nothing.
            client: self.inner.next_client.fetch_add(1, Ordering::Relaxed),
            seq: 0,
        }
    }

    /// Raw session-interface submit: enqueues `(client, seq, command)`
    /// for ordering and returns the response handle, whose `wait` drives
    /// the store. Duplicate submissions of the same `(client, seq)` are
    /// answered exactly once from the session table's cache. Prefer
    /// [`StoreClient`] — it stamps the sequence numbers.
    pub fn submit(&self, client: u64, seq: u64, command: S::Command) -> CommandHandle<S::Response> {
        self.inner.submit(client, seq, command)
    }

    /// Batch submit under one intake lock — the producer-side
    /// amortization benchmarks use. The items are one submission: one
    /// intake entry, drafted whole into one slot's batch and answered at
    /// once. Handles come back in input order and share one response
    /// block: one allocation and one store reference for the whole
    /// submission, however many commands it holds, plus one for the
    /// responses when it holds more than one. No items, no handles: an
    /// empty submission allocates nothing and takes no lock.
    ///
    /// A draft never splits a submission: `batch_commands` caps the
    /// commands a batch gathers from several submissions, but one larger
    /// submission is a batch of its own — one slot, and one long apply
    /// under the state mutex, which fast reads wait behind. Keep
    /// submissions near `batch_commands` or below where read latency
    /// matters.
    ///
    /// Once the intake holds `batch_commands` commands, the producer
    /// drives the store itself (unless every identity is leased), so an
    /// open loop that waits late still sees its commands ordered in
    /// full batches and the intake stays bounded.
    pub fn submit_batch(
        &self,
        items: impl IntoIterator<Item = (u64, u64, S::Command)>,
    ) -> Vec<CommandHandle<S::Response>> {
        let items = items.into_iter();
        // Collected first, outside the intake lock: the caller's iterator
        // runs unlocked, and an empty submission returns before it makes
        // a block or takes a lock. The upper size hint, where there is one
        // (a `take` has one), makes that one allocation.
        let mut commands = Vec::new();
        let _ = commands.try_reserve_exact(items.size_hint().1.unwrap_or(0));
        commands.extend(items);
        let len = commands.len();
        if len == 0 {
            return Vec::new();
        }
        let block = ResponseBlock::new(Arc::clone(&self.inner) as _);
        let mut intake = self.inner.lock_intake();
        let pending = commands.into_iter().map(|(client, seq, command)| Pending {
            client,
            seq,
            command,
        });
        intake.enqueue(&block, pending);
        let full = intake.queue.len() >= self.inner.options.batch_commands;
        drop(intake);
        if full && self.inner.drive(&|| false) {
            // The batches applied carry every producer's commands, and no
            // store thread's hand-off interleaves producers on one CPU any
            // more: yield, so they reap at batch, not time-slice, grain.
            std::thread::yield_now();
        }
        (0..len)
            .map(|index| CommandHandle::new(Arc::clone(&block), index))
            .collect()
    }

    /// Fast read: runs `f` against the applied state under the state
    /// mutex, without consuming a log slot. Linearizable because responses
    /// are released only at apply time: every command whose response the
    /// caller could have observed is already in the applied state, and the
    /// read takes effect inside the mutex that apply holds. The slow path
    /// — the read as a logged command, e.g. [`KvCommand::Get`] — is the
    /// conformance oracle for this fast path.
    ///
    /// # Panics
    ///
    /// Panics if a [`StateMachine::apply`] panicked mid-batch: the store
    /// is then poisoned, and `f` would see a half-applied batch.
    ///
    /// [`KvCommand::Get`]: crate::KvCommand::Get
    pub fn read_with<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        self.inner.read_with(f)
    }

    /// Aggregate metrics: the applied-index gauge, session-table
    /// counters, fast reads, plus everything the underlying engine
    /// counts.
    pub fn telemetry(&self) -> &RuntimeTelemetry {
        self.inner.telemetry()
    }

    /// Slots learned decided (contiguous prefix).
    pub fn learned_slots(&self) -> usize {
        self.inner.lock_intake().learned as usize
    }

    /// Commands applied to the state machine so far (duplicates excluded).
    pub(crate) fn applied_commands(&self) -> u64 {
        self.telemetry().count(CounterKey::CommandsApplied)
    }

    /// Closes the intake and drains it: commands already queued are
    /// ordered and applied — here, or by callers already driving, which
    /// keep going while commands wait — and later ones are refused with
    /// [`StoreError::Shutdown`]. Called by `Drop`; explicit calls are
    /// idempotent.
    pub fn shutdown(&mut self) {
        self.inner.lock_intake().closed = true;
        self.inner.drive(&|| false);
    }
}

impl<S: StateMachine, M: SharedMemory> Drop for ReplicatedStore<S, M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<S: StateMachine, M: SharedMemory> std::fmt::Debug for ReplicatedStore<S, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let intake = self.inner.lock_intake();
        f.debug_struct("ReplicatedStore")
            .field("applied", &intake.applied)
            .field("learned", &intake.learned)
            .field("frontier", &intake.frontier)
            .field("slots_in_flight", &intake.slots.len())
            .field("live_instances", &self.telemetry().live_instances())
            .field("pooled_instances", &intake.free.len())
            .field("announced", &intake.announced.len())
            .field("applied_commands", &self.applied_commands())
            .field("proposers", &self.inner.options.proposers)
            .field("telemetry", self.telemetry())
            .finish_non_exhaustive()
    }
}

/// A client session: owns a client id and stamps per-session sequence
/// numbers, giving exactly-once application under retry. Sessions are
/// sequential — issue (and retry) one command until its response arrives
/// before moving to the next — which is what lets the session table cache
/// a single response per client.
pub struct StoreClient<S: StateMachine, M: SharedMemory = AtomicMemory> {
    inner: Arc<StoreInner<S, M>>,
    client: u64,
    seq: u64,
}

impl<S: StateMachine, M: SharedMemory> StoreClient<S, M> {
    /// This session's client id.
    pub fn id(&self) -> u64 {
        self.client
    }

    /// The sequence number of the most recently submitted command (0
    /// before the first).
    pub fn last_seq(&self) -> u64 {
        self.seq
    }

    /// Submits the next command and drives the store until its response
    /// arrives — usually deciding and applying it on this thread.
    ///
    /// # Errors
    ///
    /// As [`CommandHandle::wait`].
    pub fn call(&mut self, command: S::Command) -> Result<S::Response, StoreError> {
        self.seq += 1;
        let reply = self.inner.submit(self.client, self.seq, command);
        self.inner.settle(&reply, None)
    }

    /// Submits the next command (stamping the next sequence number) and
    /// returns without waiting.
    pub fn submit(&mut self, command: S::Command) -> CommandHandle<S::Response> {
        self.seq += 1;
        self.resend(self.seq, command)
    }

    /// Re-submits a command under an already-used sequence number — the
    /// retry path. However many copies land in the log, the command
    /// applies once; every copy's handle resolves with the same response
    /// (the extra copies served from the session cache).
    pub fn resend(&self, seq: u64, command: S::Command) -> CommandHandle<S::Response> {
        self.inner.submit(self.client, seq, command)
    }

    /// Fast read; see [`ReplicatedStore::read_with`].
    pub fn read<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        self.inner.read_with(f)
    }
}

impl<S: StateMachine, M: SharedMemory> std::fmt::Debug for StoreClient<S, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreClient")
            .field("client", &self.client)
            .field("seq", &self.seq)
            .finish()
    }
}

// The default store type parameter wants a name in rustdoc examples.
impl ReplicatedStore<KvStore> {
    /// A ready-to-use linearizable KV store with default options —
    /// shorthand for `ReplicatedStore::<KvStore>::builder().build()`.
    pub fn kv() -> ReplicatedStore<KvStore> {
        ReplicatedStore::<KvStore>::builder().build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{KvCommand, KvResponse};
    use mc_runtime::{AtomicRegister, SharedRegister};
    use mc_telemetry::{AggregatingRecorder, Tally};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    thread_local! {
        /// Intake critical sections this thread has entered.
        pub(super) static INTAKE_LOCKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Every wait in the tests below is bounded by this: a lost wake-up
    /// fails its test instead of hanging tier-1.
    const PATIENCE: Duration = Duration::from_secs(10);

    /// Polls `condition` (yielding between polls) until it holds, for at
    /// most [`PATIENCE`].
    fn eventually(what: &str, condition: impl Fn() -> bool) {
        let deadline = clock::deadline_within(PATIENCE);
        while !condition() {
            assert!(clock::now() < deadline, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    fn small_store() -> ReplicatedStore<KvStore> {
        ReplicatedStore::<KvStore>::builder()
            .proposers(2)
            .batch_commands(8)
            .build()
    }

    /// What the `value`-th put to a key a session owns alone answers.
    fn put_answer(value: u64) -> Result<KvResponse, StoreError> {
        Ok(KvResponse::Stored(value.checked_sub(1)))
    }

    /// Runs `store.shutdown()` on a side thread, so a hang fails the test
    /// instead of stalling it.
    fn shutdown_within_patience<S: StateMachine, M: SharedMemory>(
        mut store: ReplicatedStore<S, M>,
    ) {
        let (done, joined) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            store.shutdown();
            done.send(()).unwrap();
        });
        joined.recv_timeout(PATIENCE).expect("shutdown returns");
    }

    #[test]
    fn a_closed_loop_call_enters_the_intake_five_times() {
        // One client alone: `submit` enqueues (1); its handle drives (2),
        // proposes and learns its own win (3), and the apply retires the
        // slot (4) and takes back the batch's buffers once answered (5).
        // Nothing else may take the intake mutex on a warm call.
        let mut store = ReplicatedStore::<KvStore>::builder().build();
        let mut client = store.client();
        for value in 1..=100 {
            client.call(KvCommand::Put { key: 1, value }).unwrap();
        }
        let before = INTAKE_LOCKS.with(|locks| locks.get());
        for value in 101..=1_100 {
            assert_eq!(
                client.call(KvCommand::Put { key: 1, value }).unwrap(),
                KvResponse::Stored(Some(value - 1))
            );
        }
        let locks = INTAKE_LOCKS.with(|locks| locks.get()) - before;
        assert_eq!(locks, 5 * 1_000, "intake critical sections per call");
        store.shutdown();
    }

    #[test]
    fn single_client_round_trips() {
        let mut store = small_store();
        let mut client = store.client();
        assert_eq!(
            client.call(KvCommand::Put { key: 1, value: 5 }).unwrap(),
            KvResponse::Stored(None)
        );
        assert_eq!(
            client.call(KvCommand::Get { key: 1 }).unwrap(),
            KvResponse::Value(Some(5))
        );
        assert_eq!(
            client
                .call(KvCommand::Cas {
                    key: 1,
                    expect: Some(5),
                    value: 6
                })
                .unwrap(),
            KvResponse::Swapped {
                applied: true,
                actual: Some(5)
            }
        );
        assert_eq!(
            client.call(KvCommand::Delete { key: 1 }).unwrap(),
            KvResponse::Removed(Some(6))
        );
        assert_eq!(store.applied_commands(), 4);
        store.shutdown();
    }

    #[test]
    fn duplicate_resends_apply_once_and_share_the_response() {
        let mut store = small_store();
        let mut client = store.client();
        client.call(KvCommand::Put { key: 9, value: 1 }).unwrap();
        let seq = client.last_seq();
        // Three duplicate deliveries of the same logical command.
        let retries: Vec<_> = (0..3)
            .map(|_| client.resend(seq, KvCommand::Put { key: 9, value: 1 }))
            .collect();
        for handle in retries {
            assert_eq!(handle.wait().unwrap(), KvResponse::Stored(None));
        }
        // The put applied exactly once: the stored "previous value" stayed
        // None, and the machine still holds 1.
        assert_eq!(
            client.call(KvCommand::Get { key: 9 }).unwrap(),
            KvResponse::Value(Some(1))
        );
        assert_eq!(store.telemetry().count(CounterKey::DuplicatesServed), 3);
        assert_eq!(store.applied_commands(), 2);
        store.shutdown();
    }

    #[test]
    fn stale_sequence_numbers_are_refused() {
        let mut store = small_store();
        let mut client = store.client();
        client.call(KvCommand::Put { key: 1, value: 1 }).unwrap();
        client.call(KvCommand::Put { key: 1, value: 2 }).unwrap();
        let stale = client.resend(1, KvCommand::Put { key: 1, value: 1 });
        assert_eq!(stale.wait(), Err(StoreError::Stale { last_seq: 2 }));
        assert_eq!(store.telemetry().count(CounterKey::StaleCommands), 1);
        store.shutdown();
    }

    #[test]
    fn concurrent_clients_all_get_applied_exactly_once() {
        let mut store = ReplicatedStore::<KvStore>::builder()
            .proposers(3)
            .batch_commands(16)
            .build();
        let clients = 6u64;
        let per_client = 40u64;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut session = store.client();
                std::thread::spawn(move || {
                    for i in 0..per_client {
                        let resp = session
                            .call(KvCommand::Put {
                                key: (100 + c) * 1_000 + i,
                                value: i,
                            })
                            .unwrap();
                        assert_eq!(resp, KvResponse::Stored(None));
                    }
                })
            })
            .collect();
        // The callers wait with no deadline: bound the joins, so a stranded
        // slot fails the test instead of hanging it.
        let deadline = clock::deadline_within(PATIENCE);
        for h in handles {
            while !h.is_finished() {
                assert!(clock::now() < deadline, "a caller is stranded, {store:?}");
                std::thread::sleep(Duration::from_millis(1));
            }
            h.join().unwrap();
        }
        assert_eq!(store.applied_commands(), clients * per_client);
        assert_eq!(
            store.telemetry().count(CounterKey::SessionsCreated),
            clients
        );
        let total = store.read_with(|kv| kv.len());
        assert_eq!(total as u64, clients * per_client);
        store.shutdown();
    }

    #[test]
    fn the_value_space_is_the_proposer_identities() {
        for proposers in 1..=4 {
            let store = ReplicatedStore::<KvStore>::builder()
                .proposers(proposers)
                .build();
            let engine = &store.inner.engine;
            assert_eq!(engine.options_handle().n, proposers);
            assert_eq!(engine.participants(), proposers);
            // The scheme `values(max(proposers, 2))` selects: room for
            // every identity.
            let values = proposers.max(2) as u64;
            let scheme = &engine.options_handle().scheme;
            let selected = mc_runtime::Consensus::builder()
                .n(proposers)
                .values(values)
                .build();
            assert_eq!(scheme.name(), selected.options_handle().scheme.name());
            assert!(scheme.capacity() >= values);
        }
    }

    /// The identity invariant, which took over from PR 12's "a slot is
    /// learned only after `frontier` passes it": consensus decides which
    /// pid won a slot, and apply takes the batch that pid announced for
    /// exactly that slot (`apply_prefix` asserts there is one) and
    /// answers each of its commands once (`apply_batch` asserts it). Three
    /// identities, two closed-loop clients, 4 000 batch-of-1 calls each:
    /// every slot carries one command — no slot was spent on a no-op —
    /// and every announcement is consumed.
    #[test]
    fn a_slot_applies_the_batch_its_winner_announced_for_it() {
        let mut store = ReplicatedStore::<KvStore>::builder()
            .proposers(3)
            .batch_commands(1)
            .build();
        std::thread::scope(|scope| {
            for key in 0..2u64 {
                let mut session = store.client();
                scope.spawn(move || {
                    for value in 0..4_000 {
                        let handle = session.submit(KvCommand::Put { key, value });
                        assert_eq!(handle.wait_timeout(PATIENCE), put_answer(value));
                    }
                });
            }
        });
        assert_eq!(store.applied_commands(), 8_000, "{store:?}");
        assert_eq!(store.learned_slots(), 8_000, "{store:?}");
        assert!(store.inner.lock_intake().announced.is_empty());
        store.shutdown();
    }

    #[test]
    fn more_callers_than_identities_all_complete() {
        for proposers in [1, 2] {
            let mut store = ReplicatedStore::<KvStore>::builder()
                .proposers(proposers)
                .build();
            std::thread::scope(|scope| {
                for key in 0..8u64 {
                    let mut session = store.client();
                    scope.spawn(move || {
                        for value in 0..2_000 {
                            let handle = session.submit(KvCommand::Put { key, value });
                            assert_eq!(handle.wait_timeout(PATIENCE), put_answer(value));
                        }
                    });
                }
            });
            assert_eq!(store.applied_commands(), 16_000, "{store:?}");
            store.shutdown();
        }
    }

    #[test]
    fn fire_and_forget_submits_are_answered_by_shutdown() {
        let mut store = small_store();
        let handles = std::thread::scope(|scope| {
            let mut session = store.client();
            let submitter = scope.spawn(move || {
                (0..20)
                    .map(|value| session.submit(KvCommand::Put { key: 1, value }))
                    .collect::<Vec<_>>()
            });
            submitter.join().unwrap()
        });
        // Nobody waited, so nobody drove: nothing is ordered yet.
        assert!(handles.iter().all(|handle| handle.poll().is_none()));
        assert_eq!(store.learned_slots(), 0);
        store.shutdown();
        for (value, handle) in (0..).zip(&handles) {
            assert_eq!(handle.poll(), Some(put_answer(value)));
        }
        assert_eq!(store.applied_commands(), 20);
    }

    #[test]
    fn fast_reads_observe_completed_writes() {
        let mut store = small_store();
        let mut client = store.client();
        client.call(KvCommand::Put { key: 3, value: 30 }).unwrap();
        let counts =
            |t: &RuntimeTelemetry| CounterKey::ALL.iter().map(|&key| t.count(key)).collect();
        let mut expected: Vec<u64> = counts(store.telemetry());
        for read in 1..=3 {
            assert_eq!(client.read(|kv| kv.get(3)), Some(30));
            // Each read is counted, and moves nothing else.
            expected[CounterKey::FastReads as usize] += 1;
            assert_eq!(counts(store.telemetry()), expected, "read {read}");
        }
        assert_eq!(store.telemetry().count(CounterKey::FastReads), 3);
        store.shutdown();
    }

    /// A writer's acknowledged puts bound what a concurrent fast read may
    /// see from below, and reads by one thread never go back in time: the
    /// read takes effect inside the state mutex, and a response is
    /// released only after its batch left that mutex. A second session
    /// keeps putting to another key, so with one identity the writer's put
    /// is often applied by that session's driver while the writer parks:
    /// a response released before its command is applied then lets the
    /// reader see a value below `floor`.
    #[test]
    fn fast_reads_are_linearizable_against_a_concurrent_writer() {
        const N: u64 = 20_000;
        let mut store = ReplicatedStore::<KvStore>::builder().proposers(1).build();
        let acked = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let (mut writer, mut other) = (store.client(), store.client());
            let acked = &acked;
            scope.spawn(move || {
                for value in 1.. {
                    if acked.load(Ordering::SeqCst) == N {
                        break;
                    }
                    other.call(KvCommand::Put { key: 2, value }).unwrap();
                }
            });
            scope.spawn(move || {
                for i in 1..=N {
                    writer.call(KvCommand::Put { key: 1, value: i }).unwrap();
                    acked.store(i, Ordering::SeqCst);
                }
            });
            let reader = store.client();
            let store = &store;
            scope.spawn(move || {
                let (mut previous, mut reads) = (0, 0u64);
                let deadline = clock::deadline_within(PATIENCE);
                loop {
                    let floor = acked.load(Ordering::SeqCst);
                    let seen = reader.read(|kv| kv.get(1)).unwrap_or(0);
                    assert!(
                        floor <= seen && seen <= N,
                        "read {seen} after put {floor} was acknowledged, {store:?}"
                    );
                    assert!(seen >= previous, "read {seen} after reading {previous}");
                    previous = seen;
                    if floor == N {
                        break;
                    }
                    reads += 1;
                    if reads % 8 == 0 {
                        assert!(clock::now() < deadline, "writer stalled, {store:?}");
                        std::thread::yield_now();
                    }
                }
            });
        });
        assert_eq!(store.read_with(|kv| kv.get(1)), Some(N));
        store.shutdown();
    }

    #[test]
    fn sustained_calls_keep_a_flat_instance_window() {
        // The count-based form of the flat-memory gate, on the store's
        // slot pool: after 10x the warm-up volume of call -> learn ->
        // apply -> pop, the pool holds no more instances than after the
        // warm-up, nearly every slot ran on a recycled one, and nothing is
        // live or retained between calls.
        let mut store = ReplicatedStore::<KvStore>::builder().proposers(2).build();
        let mut client = store.client();
        let inner = &store.inner;
        let mut burst = |calls: std::ops::Range<u64>| {
            for value in calls {
                client.call(KvCommand::Put { key: 1, value }).unwrap();
                // A lone caller decides, applies and pools its own slot's
                // instance before its call returns: no trailing proposer,
                // no pin.
                assert_eq!(inner.telemetry().live_instances(), 0);
                let intake = inner.lock_intake();
                assert_eq!(intake.learned, intake.applied);
                assert!(intake.slots.is_empty());
            }
            inner.lock_intake().free.len()
        };
        let warm = burst(0..1_000);
        let steady = burst(1_000..11_000);
        assert!(steady <= warm, "{steady} instances after 10x, {warm} warm");
        // The engine and each pooled instance are the only holders of the
        // one validated options allocation: slot setup is a pointer bump.
        assert_eq!(Arc::strong_count(inner.engine.options_handle()), 1 + steady);
        assert!(store.telemetry().pool_hit_rate() > 0.9, "{store:?}");
        assert_eq!(store.learned_slots(), 11_000);
        store.shutdown();
    }

    /// The store's slot pool reconciles: every slot entry is a pool hit
    /// or a miss and is retired once applied, a lone caller never needs
    /// more instances than there are identities, and nothing stays live.
    #[test]
    fn a_lone_callers_slots_reconcile_with_the_pool() {
        let proposers = 3;
        let mut store = ReplicatedStore::<KvStore>::builder()
            .proposers(proposers)
            .build();
        let mut client = store.client();
        for value in 0..2_000 {
            client.call(KvCommand::Put { key: 1, value }).unwrap();
        }
        let t = store.telemetry();
        let slots = store.learned_slots() as u64;
        assert_eq!(slots, 2_000, "{store:?}");
        let misses = t.count(CounterKey::PoolMisses);
        assert_eq!(t.count(CounterKey::PoolHits) + misses, slots, "{store:?}");
        assert_eq!(t.count(CounterKey::InstancesRetired), slots, "{store:?}");
        assert!(misses <= proposers as u64, "{store:?}");
        assert_eq!(t.gauge(mc_runtime::GaugeKey::LiveInstances), 0, "{store:?}");
        store.shutdown();
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let mut store = small_store();
        let mut client = store.client();
        client.call(KvCommand::Put { key: 1, value: 1 }).unwrap();
        store.shutdown();
        assert_eq!(
            client.call(KvCommand::Put { key: 2, value: 2 }),
            Err(StoreError::Shutdown)
        );
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_is_clean() {
        let mut store = small_store();
        let mut client = store.client();
        client.call(KvCommand::Put { key: 1, value: 1 }).unwrap();
        store.shutdown();
        store.shutdown();
        drop(store);
    }

    #[test]
    fn open_loop_batches_over_distinct_sessions_apply_each_command_once() {
        // Two producers pipeline `submit_batch` chunks without waiting,
        // every command from a session of its own: nothing may be lost or
        // double-applied, and each command opens exactly one session.
        let per_producer = 2_000u64;
        let mut store = ReplicatedStore::<KvStore>::builder()
            .batch_commands(64)
            .build();
        std::thread::scope(|scope| {
            for p in 0..2u64 {
                let store = &store;
                scope.spawn(move || {
                    let put = |key| (key, 1, KvCommand::Put { key, value: p });
                    let script: Vec<_> = (1 + p * per_producer..=(p + 1) * per_producer)
                        .map(put)
                        .collect();
                    let handles: Vec<_> = script
                        .chunks(256)
                        .flat_map(|chunk| store.submit_batch(chunk.iter().copied()))
                        .collect();
                    for handle in handles {
                        let answer = handle.wait_timeout(PATIENCE);
                        assert_eq!(answer, Ok(KvResponse::Stored(None)));
                    }
                });
            }
        });
        assert_eq!(store.applied_commands(), 2 * per_producer);
        assert_eq!(
            store.telemetry().count(CounterKey::SessionsCreated),
            2 * per_producer
        );
        store.shutdown();
    }

    #[test]
    fn idle_burst_idle_cycles_answer_every_burst_and_leave_nothing_live() {
        // No store thread parks between bursts, so there is nothing to
        // re-wake: each burst of four is driven by the waits alone (the
        // first drives its own batch, then, as the last driver out, the
        // other three), and the instances its slots used are retired
        // before the waits return.
        let mut store = ReplicatedStore::<KvStore>::builder()
            .proposers(3)
            .batch_commands(1)
            .build();
        let mut sessions: Vec<_> = (0..4).map(|_| store.client()).collect();
        for cycle in 0..40 {
            let burst: Vec<_> = sessions
                .iter_mut()
                .map(|session| {
                    let key = session.id();
                    session.submit(KvCommand::Put { key, value: cycle })
                })
                .collect();
            for handle in burst {
                assert_eq!(handle.wait_timeout(PATIENCE), put_answer(cycle));
            }
            assert_eq!(store.applied_commands(), 4 * (cycle + 1));
            assert_eq!(store.telemetry().live_instances(), 0, "{store:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
        store.shutdown();
    }

    #[test]
    fn a_recorder_sees_no_per_decide_events_and_the_ledger_reconciles() {
        let recorder = Arc::new(AggregatingRecorder::new());
        let mut store = ReplicatedStore::<KvStore>::builder()
            .recorder(Arc::clone(&recorder) as Arc<dyn mc_telemetry::Recorder>)
            .build();
        let mut client = store.client();
        for value in 0..1_000 {
            let handle = client.submit(KvCommand::Put { key: 1, value });
            assert!(handle.wait_timeout(PATIENCE).is_ok(), "{store:?}");
        }
        // Amortized mode, as under the service the store used to sit on:
        // the recorder is attached and the counters count, but no decide
        // pays a recorder call.
        assert!(format!("{:?}", store.telemetry()).contains("events_on: true"));
        assert!(store.telemetry().count(CounterKey::Decisions) >= 1_000);
        assert_eq!(recorder.count(Tally::Decisions), 0);
        assert_eq!(recorder.count(Tally::StageEntries), 0);
        assert_eq!(store.applied_commands(), 1_000);
        store.shutdown();
    }

    /// Plain atomics that first hand each register read's ordinal to
    /// `on_read` — which runs inside some driver's decide.
    #[derive(Clone)]
    struct HookedMemory {
        reads: Arc<AtomicU64>,
        on_read: Arc<dyn Fn(u64) + Send + Sync>,
    }

    impl HookedMemory {
        fn new(on_read: impl Fn(u64) + Send + Sync + 'static) -> HookedMemory {
            HookedMemory {
                reads: Arc::new(AtomicU64::new(0)),
                on_read: Arc::new(on_read),
            }
        }
    }

    struct HookedRegister {
        cell: AtomicRegister,
        memory: HookedMemory,
    }

    impl SharedMemory for HookedMemory {
        type Reg = HookedRegister;

        fn alloc(&self) -> HookedRegister {
            HookedRegister {
                cell: AtomicRegister::new(),
                memory: self.clone(),
            }
        }
    }

    impl SharedRegister for HookedRegister {
        fn read(&self) -> Option<u64> {
            (self.memory.on_read)(self.memory.reads.fetch_add(1, Ordering::Relaxed) + 1);
            self.cell.read()
        }

        fn write(&self, value: u64) {
            self.cell.write(value);
        }

        fn prob_write(
            &self,
            value: u64,
            prob: mc_model::Probability,
            rng: &mut dyn rand::Rng,
        ) -> bool {
            SharedRegister::prob_write(&self.cell, value, prob, rng)
        }

        fn clear(&mut self) {
            self.cell.clear();
        }
    }

    #[test]
    fn a_driver_dying_mid_decide_poisons_the_store_instead_of_hanging_it() {
        let fuse = 2_000;
        let store = ReplicatedStore::<KvStore>::builder()
            .memory(HookedMemory::new(move |read| {
                assert!(read != fuse, "fuse blown at read {read}");
            }))
            .batch_commands(1)
            .build();
        // Closed-loop clients call until refused, far past the fuse. The
        // caller whose decide blows it unwinds out of its own call: the
        // panic is the memory substrate's, and a driver catches nothing.
        // Every other call is answered, and nothing times out.
        let outcomes: Vec<std::thread::Result<StoreError>> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..3u64)
                .map(|key| {
                    let mut session = store.client();
                    scope.spawn(move || {
                        (0..10_000)
                            .find_map(|value| {
                                let handle = session.submit(KvCommand::Put { key, value });
                                handle.wait_timeout(PATIENCE).err()
                            })
                            .expect("the store outlived its fuse")
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join()).collect()
        });
        let (died, refused): (Vec<_>, Vec<_>) = outcomes.into_iter().partition(Result::is_err);
        assert_eq!(died.len(), 1, "{store:?}");
        let poisoned = StoreError::Ordering(EngineError::Poisoned);
        for refusal in refused.into_iter().map(Result::unwrap) {
            assert!(
                refusal == poisoned || refusal == StoreError::Shutdown,
                "{refusal:?}, {store:?}"
            );
        }
        // Later calls are refused at intake, and shutdown returns.
        let late = store.client().submit(KvCommand::Get { key: 0 });
        assert_eq!(late.wait_timeout(PATIENCE), Err(StoreError::Shutdown));
        shutdown_within_patience(store);
    }

    /// Counts its commands, and panics applying command 13.
    #[derive(Default)]
    struct Brittle(u64);

    impl StateMachine for Brittle {
        type Command = u64;
        type Response = u64;

        fn apply(&mut self, command: &u64) -> u64 {
            assert!(*command != 13, "brittle machine broke on command 13");
            self.0 += 1;
            self.0
        }
    }

    #[test]
    fn a_panicking_apply_poisons_the_store_instead_of_stranding_later_calls() {
        let store = ReplicatedStore::<Brittle>::builder()
            .batch_commands(4)
            .build();
        // Forty commands, each from a session of its own; the third batch
        // of four holds the one that breaks the machine.
        let handles: Vec<_> = (1..=40u64).map(|c| store.submit(c, 1, c)).collect();
        // The first wait drives every batch, as the last driver out, and
        // unwinds out of the one that panics; every handle is answered.
        let unwound = handles
            .iter()
            .filter(|h| catch_unwind(AssertUnwindSafe(|| h.wait_timeout(PATIENCE))).is_err())
            .count();
        assert_eq!(unwound, 1);
        for (c, handle) in (1..).zip(&handles) {
            let expected = if c < 13 {
                Ok(c)
            } else {
                Err(StoreError::Ordering(EngineError::Poisoned))
            };
            assert_eq!(handle.poll(), Some(expected), "command {c}");
        }
        assert_eq!(store.applied_commands(), 12);
        // The machine is torn: command 13's batch went in partway. Later
        // submissions are refused, and fast reads refuse to look at it.
        assert_eq!(
            store.submit(41, 1, 41).wait_timeout(PATIENCE),
            Err(StoreError::Shutdown)
        );
        assert!(catch_unwind(AssertUnwindSafe(|| store.read_with(|m| m.0))).is_err());
        shutdown_within_patience(store);
    }

    /// A response block holds the store, and the store's intake and
    /// announced map hold blocks: that cycle must be broken by the time
    /// the store and every handle are gone — after normal use, with
    /// fire-and-forget handles that `shutdown` answers, and after a
    /// poisoned run.
    #[test]
    fn no_reference_cycle_outlives_the_store_and_its_handles() {
        let store = small_store();
        let inner = Arc::downgrade(&store.inner);
        let mut client = store.client();
        client.call(KvCommand::Put { key: 1, value: 1 }).unwrap();
        let submitted = client.submit(KvCommand::Get { key: 1 });
        let batch = store.submit_batch((2..40u64).map(|c| (c, 1, KvCommand::Get { key: c })));
        for handle in batch.iter().chain([&submitted]) {
            assert!(handle.wait_timeout(PATIENCE).is_ok());
        }
        drop((store, client, submitted, batch));
        assert!(inner.upgrade().is_none(), "after normal use");

        let store = small_store();
        let inner = Arc::downgrade(&store.inner);
        let mut client = store.client();
        let unwaited: Vec<_> = (0..20)
            .map(|value| client.submit(KvCommand::Put { key: 1, value }))
            .collect();
        drop((store, client));
        assert!(unwaited.iter().all(|handle| handle.poll().is_some()));
        assert!(inner.upgrade().is_some(), "a handle keeps its store");
        drop(unwaited);
        assert!(inner.upgrade().is_none(), "after shutdown answered");

        let store = ReplicatedStore::<Brittle>::builder()
            .batch_commands(4)
            .build();
        let inner = Arc::downgrade(&store.inner);
        let handles: Vec<_> = (1..=40u64).map(|c| store.submit(c, 1, c)).collect();
        let first = catch_unwind(AssertUnwindSafe(|| handles[0].wait_timeout(PATIENCE)));
        assert!(first.is_err(), "the first wait drives into command 13");
        assert!(handles.iter().all(|handle| handle.poll().is_some()));
        drop((store, handles));
        assert!(inner.upgrade().is_none(), "after a poisoned run");
    }

    #[test]
    fn a_descheduled_driver_pins_one_instance_and_holds_up_nobody() {
        // The `nap`-th register read after arming parks its reader until
        // the test releases it: a driver descheduled inside a decide, at
        // its first read (its proposal not yet binding: it loses) and its
        // second (binding: it wins while asleep).
        let mut won_asleep = Vec::new();
        for nap in 1..=2 {
            let countdown = Arc::new(AtomicU64::new(0));
            let napping = Arc::new(AtomicBool::new(false));
            let memory = {
                let (countdown, napping) = (Arc::clone(&countdown), Arc::clone(&napping));
                HookedMemory::new(move |_| {
                    let due = countdown
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| c.checked_sub(1));
                    if due == Ok(1) {
                        napping.store(true, Ordering::SeqCst);
                        let deadline = clock::deadline_within(PATIENCE);
                        while napping.load(Ordering::SeqCst) && clock::now() < deadline {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                })
            };
            let mut store = ReplicatedStore::<KvStore>::builder()
                .memory(memory)
                .proposers(2)
                .batch_commands(1)
                .build();
            let (mut sleeper, mut other) = (store.client(), store.client());
            let mut pooled = 0;
            for value in 0..10 {
                sleeper.call(KvCommand::Put { key: 1, value }).unwrap();
                other.call(KvCommand::Put { key: 2, value }).unwrap();
            }
            countdown.store(nap, Ordering::SeqCst);
            std::thread::scope(|scope| {
                let asleep = scope.spawn(|| sleeper.call(KvCommand::Put { key: 1, value: 10 }));
                eventually("the driver naps", || napping.load(Ordering::SeqCst));
                // The other caller keeps completing, deciding the sleeper's
                // slot without it (wait-freedom) and every slot after it.
                for value in 10..60 {
                    let handle = other.submit(KvCommand::Put { key: 2, value });
                    assert_eq!(handle.wait_timeout(PATIENCE), put_answer(value));
                }
                let inner = &store.inner;
                assert!(napping.load(Ordering::SeqCst), "nap {nap} ended early");
                // Everything learned is applied; the sleeper pins only the
                // instance it is inside, everything else pooled.
                let intake = inner.lock_intake();
                assert_eq!(intake.applied, intake.learned);
                assert!(intake.slots.is_empty(), "nap {nap}");
                pooled = intake.free.len();
                drop(intake);
                assert_eq!(store.telemetry().live_instances(), 1, "nap {nap}");
                // The sleeper's batch was applied by the other caller iff it
                // won its slot: then its announcement is gone and its put
                // visible; otherwise it waits to be re-proposed.
                let announced = inner.lock_intake().announced.len();
                let visible = store.read_with(|kv| kv.get(1)) == Some(10);
                assert_eq!(announced == 0, visible, "nap {nap}");
                won_asleep.push(visible);
                napping.store(false, Ordering::SeqCst);
                assert_eq!(asleep.join().unwrap(), put_answer(10));
            });
            // The instance the sleeper pinned is back in the pool.
            assert_eq!(store.telemetry().live_instances(), 0, "nap {nap}");
            assert_eq!(store.inner.lock_intake().free.len(), pooled + 1);
            assert_eq!(store.applied_commands(), 71);
            store.shutdown();
        }
        assert_eq!(won_asleep, [false, true], "both branches exercised");
    }

    /// Raised while command [`Gated::STALL`] is being applied.
    static STALLED: AtomicBool = AtomicBool::new(false);
    /// Lets the stalled apply finish.
    static OPEN: AtomicBool = AtomicBool::new(false);
    /// Raised while command [`Gated::STALL_AGAIN`] is being applied.
    static STALLED_AGAIN: AtomicBool = AtomicBool::new(false);
    /// Lets the second stalled apply finish.
    static OPEN_AGAIN: AtomicBool = AtomicBool::new(false);

    /// Counts its commands, and stalls applying [`Gated::STALL`] until
    /// [`OPEN`] is raised and [`Gated::STALL_AGAIN`] until [`OPEN_AGAIN`]
    /// is (or until [`PATIENCE`] runs out). Only
    /// `a_stalled_applier_applies_what_others_learn_meanwhile` builds it.
    #[derive(Default)]
    struct Gated(u64);

    impl Gated {
        const STALL: u64 = 0;
        const STALL_AGAIN: u64 = 8;

        fn stall(raised: &AtomicBool, open: &AtomicBool) {
            raised.store(true, Ordering::SeqCst);
            let deadline = clock::deadline_within(PATIENCE);
            while !open.load(Ordering::SeqCst) && clock::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    impl StateMachine for Gated {
        type Command = u64;
        type Response = u64;

        fn apply(&mut self, command: &u64) -> u64 {
            match *command {
                Gated::STALL => Gated::stall(&STALLED, &OPEN),
                Gated::STALL_AGAIN => Gated::stall(&STALLED_AGAIN, &OPEN_AGAIN),
                _ => {}
            }
            self.0 += 1;
            self.0
        }
    }

    /// The applier hand-off: caller A stalls inside the apply of slot 0
    /// with `applying` up; B's two-command submission is learned into
    /// slot 1 meanwhile and left to A, and B parks on it. Once the gate
    /// opens, A re-reads `learned` after it lowers the flag and answers
    /// slot 0, so it applies slot 1 before its own call returns. B is
    /// answered only after that: not while A, flag up, waits for the
    /// intake mutex after applying slot 1 (held here), so a woken caller
    /// never finds its applier's flag in the way of its next slot.
    #[test]
    fn a_stalled_applier_applies_what_others_learn_meanwhile() {
        let mut store = ReplicatedStore::<Gated>::builder()
            .proposers(2)
            .batch_commands(1)
            .build();
        let mut a = store.client();
        let inner = &store.inner;
        std::thread::scope(|scope| {
            let stalled = scope.spawn(move || a.call(Gated::STALL));
            eventually("A stalls in apply", || STALLED.load(Ordering::SeqCst));
            let mut handles = store.submit_batch([(1_000, 1, 7), (1_000, 2, Gated::STALL_AGAIN)]);
            let (watched, waited) = (handles.pop().unwrap(), handles.pop().unwrap());
            let parked = scope.spawn(move || {
                let answer = waited.wait_timeout(PATIENCE);
                let intake = inner.lock_intake();
                assert!(intake.applied == 2 && !intake.applying);
                answer
            });
            eventually("B's submission is learned", || store.learned_slots() == 2);
            let intake = store.inner.lock_intake();
            assert!(intake.applying && intake.applied == 0);
            drop(intake);
            assert_eq!(store.applied_commands(), 0);
            OPEN.store(true, Ordering::SeqCst);
            eventually("A stalls in slot 1's apply", || {
                STALLED_AGAIN.load(Ordering::SeqCst)
            });
            let intake = store.inner.lock_intake();
            assert!(intake.applying && intake.applied == 1);
            OPEN_AGAIN.store(true, Ordering::SeqCst);
            // The apply holds the state mutex: once this reads 3, slot 1 is
            // applied, and A waits for the intake mutex with the flag up.
            eventually("A applies slot 1", || store.read_with(|m| m.0) == 3);
            assert_eq!(watched.poll(), None, "answered with `applying` up");
            drop(intake);
            assert_eq!(stalled.join().unwrap(), Ok(1));
            // A returned only after applying what B learned.
            let intake = store.inner.lock_intake();
            assert_eq!((intake.applied, intake.applying), (2, false));
            drop(intake);
            assert_eq!(parked.join().unwrap(), Ok(2), "{store:?}");
            assert_eq!(watched.poll(), Some(Ok(3)));
        });
        assert_eq!(store.applied_commands(), 3);
        store.shutdown();
    }

    #[test]
    fn batch_submit_preserves_input_order_of_handles() {
        let mut store = small_store();
        let handles = store.submit_batch((1..=10u64).map(|i| {
            (
                77,
                i,
                KvCommand::Put {
                    key: i,
                    value: i * 2,
                },
            )
        }));
        for (i, handle) in handles.iter().enumerate() {
            assert_eq!(
                handle.wait().unwrap(),
                KvResponse::Stored(None),
                "command {i}"
            );
        }
        assert_eq!(store.read_with(|kv| kv.get(10)), Some(20));
        store.shutdown();
    }

    /// A submission is never split: ten commands at `batch_commands(4)`
    /// are one slot's batch, answered in input order (ten puts to one key,
    /// each answering the value before it).
    #[test]
    fn a_submission_larger_than_batch_commands_is_learned_in_one_slot() {
        let mut store = ReplicatedStore::<KvStore>::builder()
            .batch_commands(4)
            .build();
        let put = |value| (7, value + 1, KvCommand::Put { key: 1, value });
        let handles = store.submit_batch((0..10u64).map(put));
        for (value, handle) in (0..).zip(&handles) {
            assert_eq!(
                handle.wait_timeout(PATIENCE),
                put_answer(value),
                "command {value}"
            );
        }
        assert_eq!(store.learned_slots(), 1, "{store:?}");
        assert_eq!(store.applied_commands(), 10);
        store.shutdown();
    }

    /// Two queued submissions of three commands at `batch_commands(4)`:
    /// the second does not fit beside the first, so each is a slot's batch
    /// of its own.
    #[test]
    fn two_queued_submissions_over_the_cap_take_two_slots() {
        let mut store = ReplicatedStore::<KvStore>::builder()
            .batch_commands(4)
            .build();
        let submission = |first: u64| {
            store.submit_batch(
                (first..first + 3).map(|c| (c, 1, KvCommand::Put { key: c, value: c })),
            )
        };
        let (a, b) = (submission(1), submission(4));
        for handle in a.iter().chain(&b) {
            assert_eq!(handle.wait_timeout(PATIENCE), Ok(KvResponse::Stored(None)));
        }
        assert_eq!(store.learned_slots(), 2, "{store:?}");
        assert_eq!(store.applied_commands(), 6);
        store.shutdown();
    }

    #[test]
    fn a_duplicate_inside_one_submission_applies_once() {
        let mut store = small_store();
        let put = (5, 1, KvCommand::Put { key: 1, value: 9 });
        let handles = store.submit_batch([put, put]);
        for handle in &handles {
            assert_eq!(handle.wait_timeout(PATIENCE), Ok(KvResponse::Stored(None)));
        }
        assert_eq!(store.telemetry().count(CounterKey::DuplicatesServed), 1);
        assert_eq!(store.applied_commands(), 1);
        store.shutdown();
    }

    /// An empty submission touches nothing: no block, no store reference,
    /// no intake lock (it returns while the test holds that lock).
    #[test]
    fn an_empty_submission_returns_no_handles() {
        let store = small_store();
        let references = Arc::strong_count(&store.inner);
        std::thread::scope(|scope| {
            let intake = store.inner.lock_intake();
            let (done, returned) = std::sync::mpsc::channel();
            let store = &store;
            scope.spawn(move || {
                done.send(store.submit_batch(std::iter::empty()).len())
                    .unwrap()
            });
            assert_eq!(returned.recv_timeout(PATIENCE), Ok(0));
            drop(intake);
        });
        assert_eq!(Arc::strong_count(&store.inner), references);
        shutdown_within_patience(store);
    }

    /// A driver dies mid-decide holding the only identity, with a
    /// three-command submission announced and another queued: poison
    /// answers all six `Ordering(Poisoned)`, whole submission by whole
    /// submission.
    #[test]
    fn poison_answers_every_command_of_queued_and_announced_submissions() {
        let armed = Arc::new(AtomicBool::new(false));
        let napping = Arc::new(AtomicBool::new(false));
        let memory = {
            let (armed, napping) = (Arc::clone(&armed), Arc::clone(&napping));
            HookedMemory::new(move |_| {
                if armed.swap(false, Ordering::SeqCst) {
                    napping.store(true, Ordering::SeqCst);
                    let deadline = clock::deadline_within(PATIENCE);
                    while napping.load(Ordering::SeqCst) && clock::now() < deadline {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    panic!("fuse blown in a decide");
                }
            })
        };
        let store = ReplicatedStore::<KvStore>::builder()
            .memory(memory)
            .proposers(1)
            .batch_commands(4)
            .build();
        let submission = |first: u64| {
            store.submit_batch(
                (first..first + 3).map(|c| (c, 1, KvCommand::Put { key: c, value: c })),
            )
        };
        let announced = submission(1);
        armed.store(true, Ordering::SeqCst);
        let poisoned = Err(StoreError::Ordering(EngineError::Poisoned));
        let queued = std::thread::scope(|scope| {
            // Drives `announced` alone (three commands, under the cap) into
            // the decide that naps and then dies.
            let driver = scope.spawn(|| announced[0].wait_timeout(PATIENCE));
            eventually("the driver naps", || napping.load(Ordering::SeqCst));
            // The only identity is leased: this one stays queued.
            let queued = submission(4);
            assert!(queued.iter().all(|handle| handle.poll().is_none()));
            napping.store(false, Ordering::SeqCst);
            assert!(driver.join().is_err(), "the driver unwound");
            queued
        });
        for handle in announced.iter().chain(&queued) {
            assert_eq!(handle.poll(), Some(poisoned), "{store:?}");
        }
        assert_eq!(store.applied_commands(), 0);
        shutdown_within_patience(store);
    }
}
