//! The replicated store: group-commit sequencers ordering command batches
//! on the consensus engine, a dedicated apply worker, and the session
//! table that makes delivery exactly-once.
//!
//! # How a command becomes a response
//!
//! 1. [`ReplicatedStore::submit`] parks the command (with its client id,
//!    sequence number, and a response cell) in the intake queue.
//! 2. A **sequencer** drains up to `batch_commands` pending commands into
//!    a batch, interns it in the command slab (its index + 1 is the
//!    batch's *code* — code 0 is the no-op), and proposes the code for
//!    its current slot with [`ConsensusEngine::submit`], deciding on its
//!    own thread: the paper's objects are wait-free, so a proposer needs
//!    nobody to decide for it. Consensus picks one code per slot; a
//!    losing sequencer re-proposes the same batch at the next slot.
//!    Decisions are recorded into the [`ReplicatedLog`] via
//!    [`learn_decided`](ReplicatedLog::learn_decided).
//! 3. The **apply worker** walks the log's learned prefix in slot order,
//!    resolves each code back to its batch, applies each command through
//!    the session table (duplicates answered from the cache, never
//!    re-applied), fills the response cells, and compacts the log below
//!    the applied index — capturing a state-machine snapshot at the
//!    configured cadence.
//!
//! # Why every sequencer touches every slot
//!
//! The engine retires a consensus instance after exactly `participants`
//! submissions, so the store runs `sequencers` proposer threads and each
//! submits exactly once per slot — a real batch when it has one, the
//! no-op code when idle or catching up to the decision frontier. An idle
//! sequencer therefore trails the frontier retiring decided slots, and
//! the whole store quiesces (no spinning) when no commands are pending.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use mc_model::mix_seed;
use mc_runtime::clock;
use mc_runtime::{
    AmortizedEvents, AtomicMemory, ConsensusEngine, CounterKey, EngineError, ReplicatedLog,
    RuntimeTelemetry, SharedMemory,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::builder::{StoreBuilder, StoreOptions};
use crate::cell::{CommandHandle, ResponseCell};
use crate::error::StoreError;
use crate::hash::FastMap;
use crate::kv::KvStore;
use crate::machine::StateMachine;

/// The reserved "empty slot" command code. Real batch codes are
/// `1..=MAX_INFLIGHT_BATCHES`.
const NOOP: u64 = 0;

/// Command-slab capacity: batches formed but not yet applied. Bounds the
/// consensus value space to `MAX_INFLIGHT_BATCHES + 1` codes.
pub(crate) const MAX_INFLIGHT_BATCHES: usize = 1024;

/// One submitted command waiting to be ordered and applied.
struct Pending<S: StateMachine> {
    client: u64,
    seq: u64,
    command: S::Command,
    cell: Arc<ResponseCell<S::Response>>,
}

/// Intake queue: commands submitted but not yet drafted into a batch.
struct Intake<S: StateMachine> {
    queue: VecDeque<Pending<S>>,
    /// No new submissions: sequencers drain `queue`, then exit.
    closed: bool,
    /// A sequencer found the slab full and parks until apply frees a code.
    /// Kept under the intake mutex (like `ResponseCell`'s waiter count) so
    /// the apply worker wakes sequencers only on a pass where one is
    /// actually waiting for it — at batch-of-1, never.
    starved: bool,
}

/// The command table: in-flight batches, addressed by code − 1. A code is
/// allocated when a sequencer forms a batch and freed when the apply
/// worker consumes the batch at its decided slot — so a code can never
/// denote two different batches among unapplied slots.
struct Slab<S: StateMachine> {
    entries: Vec<Option<Vec<Pending<S>>>>,
    free: Vec<usize>,
}

impl<S: StateMachine> Slab<S> {
    fn with_capacity(cap: usize) -> Slab<S> {
        Slab {
            entries: (0..cap).map(|_| None).collect(),
            free: (0..cap).rev().collect(),
        }
    }

    fn alloc(&mut self, batch: Vec<Pending<S>>) -> Option<u64> {
        let ix = self.free.pop()?;
        self.entries[ix] = Some(batch);
        Some(ix as u64 + 1)
    }

    /// `None` only in a poisoned store: the dying sequencer's guard and
    /// the apply worker can both reach for the batch it proposed last,
    /// and the second finds it gone.
    fn take(&mut self, code: u64) -> Option<Vec<Pending<S>>> {
        let ix = (code - 1) as usize;
        let batch = self.entries[ix].take()?;
        self.free.push(ix);
        Some(batch)
    }
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
    /// One instance per slot; every sequencer submits to every slot, on
    /// its own thread.
    engine: ConsensusEngine<M>,
    /// Per-decide recorder events stay off while sequencers drive the
    /// engine, as under the batching service: at one decide per slot per
    /// sequencer a recorder call each would dominate the slot.
    _amortized: AmortizedEvents,
    /// External-drive mode: sequencers run consensus on `engine` and
    /// record outcomes with `learn_decided`; the log keeps the learned
    /// prefix, entry storage, and compaction machinery.
    log: ReplicatedLog,
    options: StoreOptions,
    intake: Mutex<Intake<S>>,
    /// Paired with `intake`: wakes sequencers on new work, frontier
    /// advance, slab space a starved one waits for, and shutdown.
    work_cv: Condvar,
    slab: Mutex<Slab<S>>,
    state: Mutex<S>,
    sessions: Mutex<FastMap<u64, Session<S::Response>>>,
    /// Read leases by client id: expiry instants from the shared
    /// monotonic-clock helper.
    leases: Mutex<FastMap<u64, Instant>>,
    latest_snapshot: Mutex<Option<(u64, S::Snapshot)>>,
    /// 1 + highest slot any sequencer has seen decided; the next fresh
    /// slot. Advanced *before* the slot is learned into `log`, so
    /// `frontier >= log.learned_prefix()` always. Idle sequencers trail
    /// this, retiring decided slots.
    frontier: AtomicU64,
    apply_mx: Mutex<()>,
    apply_cv: Condvar,
    sequencers_live: AtomicU64,
    next_client: AtomicU64,
}

impl<S: StateMachine, M: SharedMemory> StoreInner<S, M> {
    fn telemetry(&self) -> &RuntimeTelemetry {
        self.engine.telemetry()
    }

    fn lock_intake(&self) -> MutexGuard<'_, Intake<S>> {
        self.intake.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_slab(&self) -> MutexGuard<'_, Slab<S>> {
        self.slab.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues one command, returning its handle. A closed intake
    /// answers [`StoreError::Shutdown`] immediately.
    fn submit(&self, client: u64, seq: u64, command: S::Command) -> CommandHandle<S::Response> {
        let cell = Arc::new(ResponseCell::new());
        let handle = CommandHandle::new(Arc::clone(&cell));
        let mut intake = self.lock_intake();
        if intake.closed {
            drop(intake);
            cell.fill(Err(StoreError::Shutdown));
            return handle;
        }
        intake.queue.push_back(Pending {
            client,
            seq,
            command,
            cell,
        });
        drop(intake);
        self.work_cv.notify_one();
        handle
    }

    /// Drafts up to `batch_commands` pending commands into a slab batch,
    /// returning its code — `None` when the slab is full (apply lag; the
    /// apply worker's progress will wake us).
    fn try_form_batch(&self, intake: &mut Intake<S>) -> Option<u64> {
        let mut slab = self.lock_slab();
        if slab.free.is_empty() {
            return None;
        }
        let take = intake.queue.len().min(self.options.batch_commands);
        let batch: Vec<Pending<S>> = intake.queue.drain(..take).collect();
        slab.alloc(batch)
    }

    /// A sequencer is unwinding out of a decide: refuse new commands and
    /// fail every one its death strands — the intake queue, and the batch
    /// it held unless its last slot was decided for that batch and apply
    /// took it first. Surviving sequencers see their own batches through,
    /// trail to the frontier, and leave by the closed, empty intake.
    /// Closing comes first: with the queue drained no batch forms again,
    /// so the code freed below cannot be redrawn while the dead
    /// sequencer's last slot may still be learned as that code.
    fn poison(&self, in_hand: Option<u64>) {
        let queued: Vec<Pending<S>> = {
            let mut intake = self.lock_intake();
            intake.closed = true;
            self.work_cv.notify_all();
            intake.queue.drain(..).collect()
        };
        let batch = in_hand.and_then(|code| self.lock_slab().take(code));
        for pending in batch.into_iter().flatten().chain(queued) {
            pending
                .cell
                .fill(Err(StoreError::Ordering(EngineError::Poisoned)));
        }
    }

    /// One sequencer's life: visit slots in order, proposing a real batch
    /// when one is pending and the no-op when idle-but-behind, deciding on
    /// this thread with coin stream `ix`, learning every decision into the
    /// log.
    fn run_sequencer(&self, ix: usize) {
        let mut rng = SmallRng::seed_from_u64(mix_seed(self.options.seed, ix as u64));
        let mut cursor: u64 = 0;
        let mut current = InHand {
            inner: self,
            code: None,
        };
        loop {
            if current.code.is_none() {
                let mut intake = self.lock_intake();
                loop {
                    if !intake.queue.is_empty() {
                        current.code = self.try_form_batch(&mut intake);
                        if current.code.is_some() {
                            break;
                        }
                        // Slab full: if behind the frontier we can still
                        // do useful catch-up work; otherwise wait for the
                        // apply worker to free a code.
                        intake.starved = true;
                    }
                    if cursor < self.frontier.load(Ordering::Acquire) {
                        break;
                    }
                    if intake.closed && intake.queue.is_empty() {
                        return;
                    }
                    // Wait site (sequencer). Predicate, checked above under
                    // the intake mutex: commands queued and a slab code
                    // free, or `cursor < frontier`, or intake closed and
                    // drained. Each place that can make it true notifies
                    // `work_cv` with or after the intake mutex held:
                    // `submit`/`submit_batch` (queue), the sequencer that
                    // advances `frontier` (below), `run_apply` once
                    // `starved` is set (slab), `shutdown`/`poison` (closed).
                    intake = self
                        .work_cv
                        .wait(intake)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
            // Propose the real batch only at a slot at (or past) the
            // observed frontier. A slot behind the frontier is already
            // decided, and its stale decision can equal our code from the
            // code's *previous* life in the slab — which would read as "we
            // won" and strand the batch. At `cursor >= frontier` that
            // aliasing is impossible because of the invariant kept below:
            // *a slot is learned only after `frontier` is past it*. A code
            // is recycled only once apply has consumed its winning slot,
            // apply consumes only learned slots, and we drew the code from
            // the slab after that — so the `frontier` we load here is
            // already past every slot the code ever won, and
            // `decided == code` can only mean this very batch won.
            let proposal = match current.code {
                Some(code) if cursor >= self.frontier.load(Ordering::Acquire) => code,
                _ => NOOP,
            };
            let decided = self.engine.submit(cursor, proposal, &mut rng);
            // Advance `frontier` first, learn second: once the slot is
            // learned apply may free its code, and a sequencer that draws
            // the recycled code must already see `frontier` past this slot.
            let next = cursor + 1;
            let advanced = self.frontier.fetch_max(next, Ordering::AcqRel) < next;
            let prefix = self.log.learned_prefix();
            self.log.learn_decided(cursor as usize, decided);
            if advanced {
                let _g = self.lock_intake();
                self.work_cv.notify_all();
            }
            // Wake apply only if this learn grew the prefix it waits on —
            // a trailing sequencer re-learning a learned slot does not.
            // The prefix is monotone, so whichever learn grows it reads it
            // smaller before than after; a racing learner that also sees
            // the growth over-notifies, harmlessly.
            if self.log.learned_prefix() > prefix {
                let _g = self.apply_mx.lock().unwrap_or_else(PoisonError::into_inner);
                self.apply_cv.notify_all();
            }
            if proposal != NOOP && decided == proposal {
                current.code = None;
            }
            cursor = next;
        }
    }

    fn note_sequencer_exit(&self) {
        self.sequencers_live.fetch_sub(1, Ordering::AcqRel);
        let _g = self.apply_mx.lock().unwrap_or_else(PoisonError::into_inner);
        self.apply_cv.notify_all();
    }

    /// The apply worker: walks the learned prefix in slot order, applies
    /// batches through the session table, fills response cells, snapshots
    /// at the configured cadence, and compacts the log behind itself.
    fn run_apply(&self) {
        let mut applied_slots: u64 = 0;
        let mut applied_commands: u64 = 0;
        let mut last_snapshot_slot: u64 = 0;
        loop {
            {
                let mut g = self.apply_mx.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if (self.log.learned_prefix() as u64) > applied_slots {
                        break;
                    }
                    if self.sequencers_live.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    // Wait site (apply). Predicate, checked above under
                    // `apply_mx`: `learned_prefix > applied_slots`, or no
                    // sequencer left. Both makers notify `apply_cv` holding
                    // `apply_mx` after the fact: the sequencer whose learn
                    // grew the prefix, and `note_sequencer_exit`.
                    g = self
                        .apply_cv
                        .wait(g)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
            // Prefix first, then frontier: both only grow, so this order
            // cannot report a violation that did not happen.
            let prefix = self.log.learned_prefix() as u64;
            debug_assert!(
                self.frontier.load(Ordering::Acquire) >= prefix,
                "slot learned before frontier passed it"
            );
            while applied_slots < prefix {
                let code = self
                    .log
                    .get(applied_slots as usize)
                    .expect("slot below the learned prefix is readable");
                if code != NOOP {
                    let batch = self.lock_slab().take(code);
                    debug_assert!(
                        batch.is_some() || self.lock_intake().closed,
                        "code {code} maps to no live batch"
                    );
                    if let Some(batch) = batch {
                        applied_commands += self.apply_batch(batch, applied_commands);
                    }
                }
                applied_slots += 1;
            }
            if self.options.snapshot_every > 0
                && applied_slots - last_snapshot_slot >= self.options.snapshot_every
            {
                let snapshot = {
                    let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                    state.snapshot()
                };
                *self
                    .latest_snapshot
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = Some((applied_commands, snapshot));
                self.telemetry().add(CounterKey::StoreSnapshots, 1);
                last_snapshot_slot = applied_slots;
            }
            // Retained log stays bounded by apply lag.
            self.log.compact_below(applied_slots as usize);
            // Freed slab codes unblock batch formation, which matters only
            // to a sequencer that found the slab full. It raised `starved`
            // under the intake mutex before parking and the codes were freed
            // before this lock, so the flag cannot be missed.
            let mut intake = self.lock_intake();
            if std::mem::take(&mut intake.starved) {
                self.work_cv.notify_all();
            }
        }
    }

    /// Applies one decided batch through the session table, returning how
    /// many commands actually mutated the machine (duplicates and stale
    /// retries excluded).
    fn apply_batch(&self, batch: Vec<Pending<S>>, applied_before: u64) -> u64 {
        let telemetry = self.telemetry();
        // Responses are buffered and released only after every counter for
        // the batch has been bumped: a caller that has observed its
        // response (and anything it implies completed) must also observe
        // that work in the telemetry ledger.
        let mut fills = Vec::with_capacity(batch.len());
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut sessions = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
        let mut applied = 0u64;
        for pending in batch {
            match sessions.entry(pending.client) {
                Entry::Vacant(vacant) => {
                    telemetry.add(CounterKey::SessionsCreated, 1);
                    let response = state.apply(&pending.command);
                    vacant.insert(Session {
                        last_seq: pending.seq,
                        last_response: response.clone(),
                    });
                    fills.push((pending.cell, Ok(response)));
                    applied += 1;
                }
                Entry::Occupied(mut occupied) => {
                    let session = occupied.get_mut();
                    if pending.seq > session.last_seq {
                        let response = state.apply(&pending.command);
                        session.last_seq = pending.seq;
                        session.last_response = response.clone();
                        fills.push((pending.cell, Ok(response)));
                        applied += 1;
                    } else if pending.seq == session.last_seq {
                        telemetry.add(CounterKey::DuplicatesServed, 1);
                        fills.push((pending.cell, Ok(session.last_response.clone())));
                    } else {
                        telemetry.add(CounterKey::StaleCommands, 1);
                        fills.push((
                            pending.cell,
                            Err(StoreError::Stale {
                                last_seq: session.last_seq,
                            }),
                        ));
                    }
                }
            }
        }
        drop(sessions);
        drop(state);
        telemetry.on_commands_applied(applied, applied_before + applied);
        for (cell, result) in fills {
            cell.fill(result);
        }
        applied
    }

    /// Lease-gated fast read: checks (or grants) the client's read lease,
    /// then runs `f` against the applied state — no log slot consumed.
    fn read_with<R>(&self, client: u64, f: impl FnOnce(&S) -> R) -> R {
        let now = clock::now();
        let ttl = self.options.lease_ttl;
        {
            let mut leases = self.leases.lock().unwrap_or_else(PoisonError::into_inner);
            match leases.entry(client) {
                Entry::Occupied(mut occupied) => {
                    if *occupied.get() <= now {
                        *occupied.get_mut() = clock::deadline_from(now, ttl);
                        self.telemetry()
                            .on_lease_granted(client, true, ttl.as_nanos() as u64);
                    }
                }
                Entry::Vacant(vacant) => {
                    vacant.insert(clock::deadline_from(now, ttl));
                    self.telemetry()
                        .on_lease_granted(client, false, ttl.as_nanos() as u64);
                }
            }
        }
        self.telemetry().add(CounterKey::FastReads, 1);
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        f(&state)
    }
}

/// The batch a sequencer holds from forming it until it wins a slot, as
/// the sequencer's exit guard. Nothing above a sequencer catches a panic
/// out of its decide (memory substrate, recorder), so the unwind itself
/// [`poison`](StoreInner::poison)s the store; every exit, orderly or
/// not, counts the sequencer out so apply and `shutdown` can finish.
struct InHand<'a, S: StateMachine, M: SharedMemory> {
    inner: &'a StoreInner<S, M>,
    code: Option<u64>,
}

impl<S: StateMachine, M: SharedMemory> Drop for InHand<'_, S, M> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.inner.poison(self.code.take());
        }
        self.inner.note_sequencer_exit();
    }
}

/// A linearizable replicated state machine over the consensus stack.
///
/// Construct with [`ReplicatedStore::builder`] (the end of the
/// `ConsensusBuilder → EngineBuilder → StoreBuilder` chain), obtain
/// sessions with [`client`](ReplicatedStore::client), and see the
/// [crate docs](crate) for the data path. Dropping the store drains
/// in-flight commands and joins its worker threads.
pub struct ReplicatedStore<S: StateMachine, M: SharedMemory = AtomicMemory> {
    inner: Arc<StoreInner<S, M>>,
    /// `mc-store-seq-*` and `mc-store-apply`; emptied by `shutdown`.
    threads: Vec<JoinHandle<()>>,
}

impl<S: StateMachine + Default> ReplicatedStore<S> {
    /// The store end of the unified builder chain.
    pub fn builder() -> StoreBuilder<S> {
        StoreBuilder::new()
    }
}

impl<S: StateMachine, M: SharedMemory> ReplicatedStore<S, M> {
    /// Wires the store over an already-built engine and log and starts
    /// its `sequencers + 1` threads. Called by [`StoreBuilder::build`].
    pub(crate) fn start(
        engine: ConsensusEngine<M>,
        log: ReplicatedLog,
        options: StoreOptions,
        initial: S,
    ) -> ReplicatedStore<S, M> {
        let sequencer_count = options.sequencers;
        let mut sessions = FastMap::default();
        sessions.reserve(options.expected_sessions);
        let inner = Arc::new(StoreInner {
            _amortized: engine.telemetry_handle().amortized(),
            engine,
            log,
            options,
            intake: Mutex::new(Intake {
                queue: VecDeque::new(),
                closed: false,
                starved: false,
            }),
            work_cv: Condvar::new(),
            slab: Mutex::new(Slab::with_capacity(MAX_INFLIGHT_BATCHES)),
            state: Mutex::new(initial),
            sessions: Mutex::new(sessions),
            leases: Mutex::new(FastMap::default()),
            latest_snapshot: Mutex::new(None),
            frontier: AtomicU64::new(0),
            apply_mx: Mutex::new(()),
            apply_cv: Condvar::new(),
            sequencers_live: AtomicU64::new(sequencer_count as u64),
            next_client: AtomicU64::new(1),
        });
        let mut threads: Vec<_> = (0..sequencer_count)
            .map(|ix| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mc-store-seq-{ix}"))
                    .spawn(move || inner.run_sequencer(ix))
                    .expect("spawn sequencer")
            })
            .collect();
        let apply = Arc::clone(&inner);
        threads.push(
            std::thread::Builder::new()
                .name("mc-store-apply".into())
                .spawn(move || apply.run_apply())
                .expect("spawn apply worker"),
        );
        ReplicatedStore { inner, threads }
    }

    /// A fresh client session with a store-unique client id.
    pub fn client(&self) -> StoreClient<S, M> {
        let id = self.inner.next_client.fetch_add(1, Ordering::Relaxed);
        self.client_with_id(id)
    }

    /// A session with an explicit client id — for tests and benchmarks
    /// that simulate many sessions, and for a client resuming an id it
    /// used before (the session table remembers its last sequence
    /// number). Two *concurrent* sessions sharing an id violate the
    /// sequential-session model and will see each other's commands as
    /// duplicates or stale.
    pub fn client_with_id(&self, client: u64) -> StoreClient<S, M> {
        StoreClient {
            inner: Arc::clone(&self.inner),
            client,
            seq: 0,
        }
    }

    /// Raw session-interface submit: enqueues `(client, seq, command)`
    /// for ordering and returns the response handle. Duplicate
    /// submissions of the same `(client, seq)` are answered exactly once
    /// from the session table's cache. Prefer [`StoreClient`] — it stamps
    /// the sequence numbers.
    pub fn submit(&self, client: u64, seq: u64, command: S::Command) -> CommandHandle<S::Response> {
        self.inner.submit(client, seq, command)
    }

    /// Batch submit under one intake lock — the producer-side
    /// amortization benchmarks use. Handles come back in input order.
    pub fn submit_batch(
        &self,
        items: impl IntoIterator<Item = (u64, u64, S::Command)>,
    ) -> Vec<CommandHandle<S::Response>> {
        let mut cells = Vec::new();
        let mut intake = self.inner.lock_intake();
        let closed = intake.closed;
        for (client, seq, command) in items {
            let cell = Arc::new(ResponseCell::new());
            cells.push(CommandHandle::new(Arc::clone(&cell)));
            if closed {
                cell.fill(Err(StoreError::Shutdown));
            } else {
                intake.queue.push_back(Pending {
                    client,
                    seq,
                    command,
                    cell,
                });
            }
        }
        drop(intake);
        self.inner.work_cv.notify_all();
        cells
    }

    /// Lease-gated fast read: runs `f` against the applied state under
    /// `client`'s read lease (granting or renewing it as needed), without
    /// consuming a log slot. Linearizable because responses are released
    /// only at apply time: every command whose response the caller could
    /// have observed is already in the applied state. The slow path — the
    /// read as a logged command, e.g. [`KvCommand::Get`] — is the
    /// conformance oracle for this fast path.
    ///
    /// [`KvCommand::Get`]: crate::KvCommand::Get
    pub fn read_with<R>(&self, client: u64, f: impl FnOnce(&S) -> R) -> R {
        self.inner.read_with(client, f)
    }

    /// The latest state-machine snapshot the apply worker captured, with
    /// the number of commands applied when it was taken. `None` before
    /// the first snapshot cadence elapses.
    pub fn latest_snapshot(&self) -> Option<(u64, S::Snapshot)> {
        self.inner
            .latest_snapshot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Aggregate metrics: the applied-index gauge, session-table
    /// counters, lease grants, plus everything the underlying engine
    /// counts.
    pub fn telemetry(&self) -> &RuntimeTelemetry {
        self.inner.telemetry()
    }

    /// Slots the log has learned decided (contiguous prefix).
    pub fn learned_slots(&self) -> usize {
        self.inner.log.learned_prefix()
    }

    /// Commands applied to the state machine so far (duplicates excluded).
    pub fn applied_commands(&self) -> u64 {
        self.telemetry().count(CounterKey::CommandsApplied)
    }

    /// Drains in-flight commands and joins the worker threads. Called by
    /// `Drop`; explicit calls are idempotent. Every handle not yet
    /// answered resolves: commands already queued are ordered and applied
    /// first, later ones refused with [`StoreError::Shutdown`].
    pub fn shutdown(&mut self) {
        {
            let mut intake = self.inner.lock_intake();
            intake.closed = true;
            self.inner.work_cv.notify_all();
        }
        // The last sequencer out wakes the apply worker, which leaves once
        // the learned prefix is applied.
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<S: StateMachine, M: SharedMemory> Drop for ReplicatedStore<S, M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<S: StateMachine, M: SharedMemory> std::fmt::Debug for ReplicatedStore<S, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedStore")
            .field("learned_slots", &self.learned_slots())
            .field("applied_commands", &self.applied_commands())
            .field("sequencers", &self.inner.options.sequencers)
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

    /// Submits the next command and blocks for its response.
    ///
    /// # Errors
    ///
    /// As [`CommandHandle::wait`].
    pub fn call(&mut self, command: S::Command) -> Result<S::Response, StoreError> {
        self.submit(command).wait()
    }

    /// Submits the next command (stamping the next sequence number) and
    /// returns without waiting.
    pub fn submit(&mut self, command: S::Command) -> CommandHandle<S::Response> {
        self.seq += 1;
        self.inner.submit(self.client, self.seq, command)
    }

    /// Re-submits a command under an already-used sequence number — the
    /// retry path. However many copies land in the log, the command
    /// applies once; every copy's handle resolves with the same response
    /// (the extra copies served from the session cache).
    pub fn resend(&self, seq: u64, command: S::Command) -> CommandHandle<S::Response> {
        self.inner.submit(self.client, seq, command)
    }

    /// Lease-gated fast read under this session's lease; see
    /// [`ReplicatedStore::read_with`].
    pub fn read<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        self.inner.read_with(self.client, f)
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
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

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
            .sequencers(2)
            .batch_commands(8)
            .snapshot_every(4)
            .build()
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
            .sequencers(3)
            .batch_commands(16)
            .build();
        let clients = 6u64;
        let per_client = 40u64;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut session = store.client_with_id(100 + c);
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
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.applied_commands(), clients * per_client);
        assert_eq!(
            store.telemetry().count(CounterKey::SessionsCreated),
            clients
        );
        let total = store.read_with(999, |kv| kv.len());
        assert_eq!(total as u64, clients * per_client);
        store.shutdown();
    }

    /// The store deadlock fixed in PR 12: a slot learned before
    /// `frontier` passed it let a recycled batch code alias the slot's
    /// stale decision, and the batch was dropped unapplied. A watcher
    /// samples the invariant (prefix first, then frontier, as `run_apply`
    /// does) while closed-loop clients drive a few thousand batch-of-1
    /// slots through three sequencers.
    #[test]
    fn a_slot_is_learned_only_after_frontier_passes_it() {
        let mut store = ReplicatedStore::<KvStore>::builder().sequencers(3).build();
        let inner = &store.inner;
        let done = AtomicBool::new(false);
        let (clients, violations) = std::thread::scope(|scope| {
            let watcher = scope.spawn(|| {
                let mut violations = 0u64;
                while !done.load(Ordering::Acquire) {
                    let prefix = inner.log.learned_prefix() as u64;
                    violations += u64::from(inner.frontier.load(Ordering::Acquire) < prefix);
                }
                violations
            });
            let clients: Vec<_> = (0..2u64)
                .map(|key| {
                    let mut session = store.client();
                    scope.spawn(move || {
                        for value in 0..4_000 {
                            session
                                .submit(KvCommand::Put { key, value })
                                .wait_timeout(Duration::from_secs(10))
                                .expect("call answered");
                        }
                    })
                })
                .collect();
            // Join before judging, so a stalled client cannot leave the
            // watcher spinning inside the scope.
            let clients: Vec<_> = clients.into_iter().map(|c| c.join()).collect();
            done.store(true, Ordering::Release);
            (clients, watcher.join().expect("watcher"))
        });
        assert_eq!(violations, 0, "{store:?}");
        assert!(clients.iter().all(Result::is_ok), "{store:?}");
        assert_eq!(store.applied_commands(), 8_000);
        store.shutdown();
    }

    #[test]
    fn fast_reads_observe_completed_writes_and_grant_leases() {
        let mut store = small_store();
        let mut client = store.client();
        client.call(KvCommand::Put { key: 3, value: 30 }).unwrap();
        assert_eq!(client.read(|kv| kv.get(3)), Some(30));
        let t = store.telemetry();
        assert_eq!(t.count(CounterKey::FastReads), 1);
        assert_eq!(t.count(CounterKey::LeaseGrants), 1);
        // Within the TTL the second read rides the same lease.
        assert_eq!(client.read(|kv| kv.get(3)), Some(30));
        assert_eq!(store.telemetry().count(CounterKey::LeaseGrants), 1);
        store.shutdown();
    }

    #[test]
    fn snapshots_ride_compaction_at_the_configured_cadence() {
        let mut store = ReplicatedStore::<KvStore>::builder()
            .sequencers(1)
            .batch_commands(1)
            .snapshot_every(2)
            .build();
        let mut client = store.client();
        for i in 0..20 {
            client.call(KvCommand::Put { key: i, value: i }).unwrap();
        }
        assert!(store.telemetry().count(CounterKey::StoreSnapshots) >= 1);
        let (applied_at, snapshot) = store.latest_snapshot().expect("cadence elapsed");
        assert!(applied_at >= 2);
        assert_eq!(snapshot.len() as u64, applied_at);
        // Compaction kept retention bounded: the log has dropped slots.
        assert!(store.inner.log.compacted_below() > 0);
        // Restore is snapshot's inverse.
        let restored = KvStore::restore(&snapshot);
        assert_eq!(restored.snapshot(), snapshot);
        store.shutdown();
    }

    #[test]
    fn sustained_calls_keep_a_flat_instance_window() {
        // The count-based form of the flat-memory gate, on the one pool
        // there is: after 10x the warm-up volume of call -> apply ->
        // `compact_below`, the engine holds no more instances than after
        // the warm-up, nearly every slot ran on a recycled one, and the
        // log retains only what apply has not compacted yet.
        let mut store = ReplicatedStore::<KvStore>::builder().sequencers(2).build();
        let mut client = store.client();
        let inner = &store.inner;
        let mut burst = |calls: std::ops::Range<u64>| {
            for value in calls {
                client.call(KvCommand::Put { key: 1, value }).unwrap();
                // How far the trailing sequencer lags is the scheduler's
                // choice and it is the window; pin it, so the count is
                // about recycling: the slot is retired (both sequencers
                // submitted) before the next call opens one.
                eventually("the slot retires", || inner.engine.live_instances() == 0);
                // Apply answered this call from its slot and compacts
                // right behind it, so at most that slot is retained.
                let retained = inner.log.learned_prefix() - inner.log.compacted_below();
                assert!(retained <= 1, "{retained} slots retained after apply");
            }
            inner.engine.pooled_instances()
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
        //
        // The second input is the slab-full path: at one command per batch
        // and four slabs' worth of commands, with apply held back (this
        // thread keeps the state mutex it applies under) until the
        // sequencers have found the slab full, raised `starved`, and gone
        // quiet. Only the apply worker's gated notify can get them going
        // again.
        for (batch_commands, per_producer, fill_slab) in [
            (64, 2_000u64, false),
            (1, 2 * MAX_INFLIGHT_BATCHES as u64, true),
        ] {
            let mut store = ReplicatedStore::<KvStore>::builder()
                .batch_commands(batch_commands)
                .build();
            std::thread::scope(|scope| {
                let _held = fill_slab.then(|| store.inner.state.lock().unwrap());
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
                if fill_slab {
                    eventually("the sequencers park on the full slab", || {
                        let learned = store.learned_slots();
                        std::thread::sleep(Duration::from_millis(5));
                        store.inner.lock_intake().starved && store.learned_slots() == learned
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
    }

    #[test]
    fn idle_burst_idle_cycles_rewake_every_parked_thread() {
        // Between bursts all four threads park: the apply worker on the
        // learned prefix, the sequencers on the intake. Each burst must get
        // one sequencer going (client → sequencer), that one's decisions
        // the apply worker (the prefix grew) and the two trailing
        // sequencers (the frontier advanced) — the last shown by every
        // instance retiring, which takes all three submits.
        let mut store = ReplicatedStore::<KvStore>::builder()
            .sequencers(3)
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
                assert!(handle.wait_timeout(PATIENCE).is_ok(), "{store:?}");
            }
            eventually("the trailing sequencers retire every slot", || {
                store.inner.engine.live_instances() == 0
            });
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(store.applied_commands(), 4 * 40);
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
        assert!(store.telemetry().events_on());
        assert!(store.telemetry().count(CounterKey::Decisions) >= 1_000);
        assert_eq!(recorder.count(Tally::Decisions), 0);
        assert_eq!(recorder.count(Tally::StageEntries), 0);
        assert_eq!(store.applied_commands(), 1_000);
        store.shutdown();
    }

    /// Plain atomics until the `fuse`-th register read, which panics —
    /// inside some sequencer's decide.
    #[derive(Clone)]
    struct FusedMemory {
        reads: Arc<AtomicU64>,
        fuse: u64,
    }

    struct FusedRegister {
        cell: AtomicRegister,
        memory: FusedMemory,
    }

    impl SharedMemory for FusedMemory {
        type Reg = FusedRegister;

        fn alloc_in_generation(&self, generation: u64) -> FusedRegister {
            FusedRegister {
                cell: AtomicRegister::in_generation(generation),
                memory: self.clone(),
            }
        }
    }

    impl SharedRegister for FusedRegister {
        fn read(&self) -> Option<u64> {
            let read = self.memory.reads.fetch_add(1, Ordering::Relaxed) + 1;
            assert!(read != self.memory.fuse, "fuse blown at read {read}");
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

        fn generation(&self) -> u64 {
            SharedRegister::generation(&self.cell)
        }

        fn retire_to(&mut self, generation: u64) {
            self.cell.retire_to(generation);
        }
    }

    #[test]
    fn a_sequencer_dying_mid_decide_poisons_the_store_instead_of_hanging_it() {
        let mut store = ReplicatedStore::<KvStore>::builder()
            .memory(FusedMemory {
                reads: Arc::new(AtomicU64::new(0)),
                fuse: 2_000,
            })
            .batch_commands(1)
            .build();
        // Closed-loop clients call until refused, far past the fuse.
        // Nothing may time out: whatever the death strands is failed by
        // the dying sequencer.
        let refusals: Vec<StoreError> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..3u64)
                .map(|key| {
                    let mut session = store.client();
                    scope.spawn(move || {
                        (0..10_000)
                            .find_map(|value| {
                                let handle = session.submit(KvCommand::Put { key, value });
                                handle.wait_timeout(PATIENCE).err()
                            })
                            .expect("the store outlived its sequencer")
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let poisoned = StoreError::Ordering(EngineError::Poisoned);
        for refusal in refusals {
            assert!(
                refusal == poisoned || refusal == StoreError::Shutdown,
                "{refusal:?}, {store:?}"
            );
        }
        // Later calls are refused at intake, and the surviving threads are
        // joinable: shutdown on a side thread so a hang fails, not stalls.
        let late = store.client().submit(KvCommand::Get { key: 0 });
        assert_eq!(late.wait_timeout(PATIENCE), Err(StoreError::Shutdown));
        let (done, joined) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            store.shutdown();
            done.send(()).unwrap();
        });
        joined.recv_timeout(PATIENCE).expect("shutdown joins");
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
        assert_eq!(store.read_with(77, |kv| kv.get(10)), Some(20));
        store.shutdown();
    }
}
