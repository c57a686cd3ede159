//! A pipelined batching frontend over the [`ConsensusEngine`].
//!
//! `ConsensusEngine::submit` is a blocking per-call path: every caller
//! crosses the shard mutex twice, pays per-operation telemetry, and parks
//! on a condvar under backpressure — so at high request rates throughput is
//! bounded by caller-side contention, not by the paper's `O(n log m)`
//! total-work bound. [`ConsensusService`] decouples the two sides:
//!
//! ```text
//!  producers ──submit──▶ per-worker intake rings ──batch──▶ workers
//!      │                  (std MPSC, Mutex+Condvar)            │
//!      ╰◀─── DecisionHandle (poll / wait / wait_timeout) ◀─────╯
//! ```
//!
//! Producers enqueue `(instance_id, proposal)` and immediately receive a
//! [`DecisionHandle`]; dedicated worker threads drain each ring in batches,
//! run the decisions against the engine's pooled instances, and complete
//! the handles. Telemetry is amortized to one structured
//! [`batch_drained`](mc_telemetry::TelemetryEvent::BatchDrained) event per
//! batch. Admission blocks: a producer that finds its ring full parks
//! until the worker drains room, so no accepted proposal is ever lost.
//!
//! There is one ring and one worker per engine shard, and routing uses the
//! same Fibonacci hash as the shards, so every submission for one
//! `instance_id` lands in the same ring and is decided serially by one
//! worker — concurrent proposals for the same instance still agree,
//! exactly as with direct `submit`.
//!
//! # Failure handling
//!
//! Workers are *supervised*: a panicking worker is caught, its
//! queued-but-unsubmitted proposals are re-admitted exactly once per
//! death, and the drain loop restarts under a bounded
//! [`SupervisorOptions::restart_budget`] with exponential backoff; only an
//! exhausted budget degrades the ring to the terminal
//! [`RingHealth::Poisoned`] state, whose admission answers
//! [`EngineError::Rejected`] and whose stranded handles answer
//! [`EngineError::Poisoned`]. A seeded [`ChaosPlan`] injects worker panics
//! and stalls at drain boundaries so all of this is testable
//! deterministically — the mc-lab chaos conformance leg and the
//! `chaos_campaign` bench run on it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mc_model::mix_seed;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::engine::{shard_index, ConsensusEngine};
use crate::error::EngineError;
use crate::faults::FaultPlan;
use crate::register::{AtomicMemory, SharedMemory};
use crate::telemetry::{AmortizedEvents, CounterKey, HistKey, RuntimeTelemetry};

/// Worker supervision knobs: how many panics a ring's worker survives and
/// how its restarts are paced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorOptions {
    /// Panics a worker recovers from before its ring degrades to the
    /// terminal [`RingHealth::Poisoned`] state. `0` disables recovery:
    /// the first panic poisons the ring, the pre-supervision behavior.
    pub restart_budget: u32,
    /// Backoff before the first restart; doubles per consecutive restart.
    pub base_backoff: Duration,
    /// Cap on the restart backoff.
    pub max_backoff: Duration,
}

impl Default for SupervisorOptions {
    fn default() -> SupervisorOptions {
        SupervisorOptions {
            restart_budget: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(250),
        }
    }
}

/// A seeded service-level chaos plan: deterministic worker panics and
/// stalls at drain boundaries, plus a register-level [`FaultPlan`] for the
/// harness layers to wire under the engine.
///
/// Panics and stalls fire when a worker *takes a batch* (after the batch
/// has moved to the ring's in-flight stash, before any decide), so an
/// injected panic exercises the supervisor's re-admission path without
/// abandoning a mid-decide instance: within the restart budget, every
/// admitted proposal still gets exactly one decision. The `seed` phases
/// each worker's injection points independently (worker `i` panics at
/// drain counts ≡ `mix_seed(seed, i) mod panic_every`), so multi-worker
/// services do not lose every worker at once.
///
/// The embedded `faults` plan is *not* applied by the service itself —
/// the service is generic over an already-built memory. The chaos
/// harnesses (`mc_lab::check_chaos_conformance`, the `chaos_campaign`
/// bench) layer it via `FaultyMemory` when building the engine, keeping
/// register faults and service faults on one seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Seed phasing the per-worker injection points.
    pub seed: u64,
    /// Inject a worker panic every `panic_every` drains (0 = never).
    pub panic_every: u64,
    /// Cap on injected panics per worker (keeps a plan within a restart
    /// budget).
    pub max_panics: u32,
    /// Inject a stall every `stall_every` drains (0 = never).
    pub stall_every: u64,
    /// Duration of each injected stall.
    pub stall_for: Duration,
    /// Register-level fault plan for the harness to layer via
    /// `FaultyMemory` (see the type docs).
    pub faults: FaultPlan,
}

impl ChaosPlan {
    /// The empty plan: no panics, no stalls, no register faults.
    pub fn none() -> ChaosPlan {
        ChaosPlan {
            seed: 0,
            panic_every: 0,
            max_panics: 0,
            stall_every: 0,
            stall_for: Duration::ZERO,
            faults: FaultPlan::none(),
        }
    }

    /// An empty plan carrying `seed`; add injections with the builder
    /// methods.
    pub fn seeded(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            ..ChaosPlan::none()
        }
    }

    /// Panic every `every` drains, at most `max_panics` times per worker.
    #[must_use]
    pub fn panic_every(mut self, every: u64, max_panics: u32) -> ChaosPlan {
        self.panic_every = every;
        self.max_panics = max_panics;
        self
    }

    /// Stall for `dur` every `every` drains.
    #[must_use]
    pub fn stall_every(mut self, every: u64, dur: Duration) -> ChaosPlan {
        self.stall_every = every;
        self.stall_for = dur;
        self
    }

    /// Attach a register-level fault plan for the harness layers.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> ChaosPlan {
        self.faults = plan;
        self
    }

    /// Whether the plan injects nothing at the service layer and carries
    /// no register faults.
    pub fn is_empty(&self) -> bool {
        self.panic_every == 0 && self.stall_every == 0 && self.faults.is_empty()
    }
}

impl Default for ChaosPlan {
    fn default() -> ChaosPlan {
        ChaosPlan::none()
    }
}

/// Lifecycle state of one intake ring under supervision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingHealth {
    /// The worker is draining normally.
    Healthy,
    /// The worker panicked and is between re-admission and its backoff
    /// expiry; queued proposals are preserved.
    Restarting,
    /// The restart budget is exhausted (or a panic escaped recovery): the
    /// ring is closed, its queue poisoned, and admission answers
    /// [`EngineError::Rejected`]. Terminal.
    Poisoned,
}

/// Tuning for a [`ConsensusService`], set through its [`ServiceBuilder`].
#[derive(Debug, Clone, Copy)]
struct ServiceOptions {
    /// Proposals a ring holds before admission parks the producer
    /// (default 1024).
    ring_capacity: usize,
    /// Most proposals a worker takes per drain (default 256). Larger
    /// batches amortize ring locking and telemetry further but hold
    /// decisions back longer under light load.
    batch_max: usize,
    /// Base seed for the workers' deterministic RNGs; worker `i` runs on
    /// `seed + i`. Identical seeds and submission order reproduce
    /// identical coin flips.
    seed: u64,
    /// Worker supervision: restart budget and backoff pacing (default
    /// [`SupervisorOptions::default`], 4 restarts).
    supervisor: SupervisorOptions,
    /// Seeded fault injection at drain boundaries (default
    /// [`ChaosPlan::none`]).
    chaos: ChaosPlan,
}

impl Default for ServiceOptions {
    fn default() -> ServiceOptions {
        ServiceOptions {
            ring_capacity: 1024,
            batch_max: 256,
            seed: 0x5EED,
            supervisor: SupervisorOptions::default(),
            chaos: ChaosPlan::none(),
        }
    }
}

/// Completion states of one submitted proposal.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CellState {
    /// Enqueued, not yet decided.
    Waiting,
    /// Decided.
    Done(u64),
    /// The worker died (panic or teardown) before deciding it.
    Poisoned,
}

const CELL_WAITING: u8 = 0;
const CELL_DONE: u8 = 1;
const CELL_POISONED: u8 = 2;

/// The completion cell a [`DecisionHandle`] waits on.
///
/// The common case — worker fills, producer polls an already-done cell —
/// is two atomics with no lock: `value` is stored relaxed, then `state` is
/// published with a release store, and readers load `state` acquire. The
/// condvar path only engages when a producer actually sleeps: waiters
/// register under `waiters` before parking, and the filler takes that lock
/// (pairing with the waiter's registered-then-recheck) and broadcasts only
/// when somebody is parked.
struct Cell {
    state: AtomicU8,
    value: AtomicU64,
    waiters: Mutex<usize>,
    cv: Condvar,
}

impl Cell {
    fn new() -> Arc<Cell> {
        Arc::new(Cell {
            state: AtomicU8::new(CELL_WAITING),
            value: AtomicU64::new(0),
            waiters: Mutex::new(0),
            cv: Condvar::new(),
        })
    }

    fn read(&self) -> CellState {
        match self.state.load(Ordering::Acquire) {
            CELL_WAITING => CellState::Waiting,
            CELL_DONE => CellState::Done(self.value.load(Ordering::Relaxed)),
            _ => CellState::Poisoned,
        }
    }

    /// First fill wins: `Waiting → Done(v)` or `Waiting → Poisoned`; a cell
    /// already filled is left alone (a completed `Pending` is dropped right
    /// after, and its poison pass must not overwrite the decision).
    fn fill(&self, state: CellState) {
        let next = match state {
            CellState::Waiting => return,
            CellState::Done(v) => {
                self.value.store(v, Ordering::Relaxed);
                CELL_DONE
            }
            CellState::Poisoned => CELL_POISONED,
        };
        if self
            .state
            .compare_exchange(CELL_WAITING, next, Ordering::Release, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        // Taking the lock (even when nobody waits) orders this fill against
        // a waiter's register-then-recheck, so no wakeup is ever missed.
        let parked = *self.waiters.lock().unwrap_or_else(PoisonError::into_inner);
        if parked > 0 {
            self.cv.notify_all();
        }
    }
}

/// The producer's receipt for one submitted proposal: poll or wait for the
/// decision.
///
/// Cloning yields another handle on the same decision. Dropping every
/// handle is fine — the proposal still runs; only the result goes
/// unobserved.
#[derive(Clone)]
pub struct DecisionHandle {
    cell: Arc<Cell>,
}

impl DecisionHandle {
    /// The decision if it has arrived: `None` while in flight,
    /// `Some(Err(`[`EngineError::Poisoned`]`))` if its worker died first.
    /// Lock-free.
    pub fn poll(&self) -> Option<Result<u64, EngineError>> {
        match self.cell.read() {
            CellState::Waiting => None,
            CellState::Done(v) => Some(Ok(v)),
            CellState::Poisoned => Some(Err(EngineError::Poisoned)),
        }
    }

    /// The one wait loop behind [`wait`](DecisionHandle::wait) and
    /// [`wait_timeout`](DecisionHandle::wait_timeout): park until the cell
    /// fills or `deadline` (if any) passes, answering
    /// [`EngineError::Timeout`] then.
    ///
    /// The deadline check re-reads the cell before reporting expiry: a
    /// decision (or poison) that raced the clock — filled between the
    /// loop-top read and the expiry check, or while the condvar wait timed
    /// out — is reported as itself, never as `Timeout`. A `Poisoned` cell
    /// in particular must not surface as `Timeout`, which would invite a
    /// retry loop against a proposal that can never complete.
    fn wait_core(&self, deadline: Option<Instant>) -> Result<u64, EngineError> {
        loop {
            match self.cell.read() {
                CellState::Waiting => {}
                CellState::Done(v) => return Ok(v),
                CellState::Poisoned => return Err(EngineError::Poisoned),
            }
            let remaining = match deadline {
                Some(deadline) => {
                    let now = crate::clock::now();
                    if now >= deadline {
                        return match self.cell.read() {
                            CellState::Done(v) => Ok(v),
                            CellState::Poisoned => Err(EngineError::Poisoned),
                            CellState::Waiting => Err(EngineError::Timeout),
                        };
                    }
                    Some(deadline - now)
                }
                None => None,
            };
            let mut parked = self
                .cell
                .waiters
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            // Recheck under the lock: a fill between the lock-free read
            // and the registration is ordered by the filler's own lock
            // take.
            if self.cell.read() != CellState::Waiting {
                continue;
            }
            *parked += 1;
            let cv = &self.cell.cv;
            let mut parked = match remaining {
                Some(remaining) => {
                    cv.wait_timeout(parked, remaining)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => cv.wait(parked).unwrap_or_else(PoisonError::into_inner),
            };
            *parked -= 1;
        }
    }

    /// Blocks until the decision arrives. A decision that already landed
    /// returns without taking any lock.
    ///
    /// # Errors
    ///
    /// [`EngineError::Poisoned`] if the proposal's worker died before
    /// deciding it.
    pub fn wait(&self) -> Result<u64, EngineError> {
        self.wait_core(None)
    }

    /// Blocks until the decision arrives or `timeout` elapses.
    ///
    /// # Errors
    ///
    /// [`EngineError::Timeout`] when the wait elapsed — the proposal is
    /// still in flight and waiting again can succeed;
    /// [`EngineError::Poisoned`] as [`wait`](DecisionHandle::wait) — a
    /// poison that races the timeout reports `Poisoned`, not `Timeout`.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<u64, EngineError> {
        self.wait_core(Some(crate::clock::deadline_within(timeout)))
    }
}

impl std::fmt::Debug for DecisionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match self.poll() {
            None => "waiting",
            Some(Ok(_)) => "done",
            Some(Err(_)) => "poisoned",
        };
        f.debug_struct("DecisionHandle")
            .field("state", &state)
            .finish()
    }
}

/// One enqueued proposal. Dropping it while its cell is still `Waiting`
/// poisons the cell — this is the worker-death path: a panicking worker
/// unwinds its local batch, and service teardown drops ring leftovers, and
/// either way every orphaned handle resolves to
/// [`EngineError::Poisoned`] instead of hanging forever.
struct Pending {
    /// Service-wide admission serial, assigned under the ring lock (so it
    /// is strictly increasing within a ring). Supervision's re-admission
    /// pass uses it to assert exactly-once, in-order requeueing.
    submission_id: u64,
    instance_id: u64,
    proposal: u64,
    enqueued_at: Instant,
    cell: Arc<Cell>,
}

impl Pending {
    fn complete(&self, decided: u64) {
        self.cell.fill(CellState::Done(decided));
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        // First fill wins: a no-op after `complete`, poison otherwise.
        self.cell.fill(CellState::Poisoned);
    }
}

struct RingState {
    queue: VecDeque<Pending>,
    /// No further submissions; workers drain what is left, then exit.
    closed: bool,
    /// Workers hold off draining (tests use this to fill rings
    /// deterministically).
    paused: bool,
    /// Supervision lifecycle of this ring's worker.
    health: RingHealth,
}

/// One MPSC intake ring: producers push under the mutex, its dedicated
/// worker drains in batches.
struct Ring {
    state: Mutex<RingState>,
    /// The batch the worker is currently deciding, stashed here (not
    /// worker-locally) so the supervisor can re-admit the undecided
    /// remainder after a panic. Lock order is `state` before `inflight`;
    /// only the ring's own worker and post-join teardown touch it.
    inflight: Mutex<VecDeque<Pending>>,
    /// Signals the worker: items available, unpaused, or closed.
    to_worker: Condvar,
    /// Signals producers parked on a full ring: room available or closed.
    to_producers: Condvar,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            state: Mutex::new(RingState {
                queue: VecDeque::new(),
                closed: false,
                paused: false,
                health: RingHealth::Healthy,
            }),
            inflight: Mutex::new(VecDeque::new()),
            to_worker: Condvar::new(),
            to_producers: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_inflight(&self) -> MutexGuard<'_, VecDeque<Pending>> {
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A pipelined batch-submission service over a [`ConsensusEngine`].
///
/// Build one with [`ConsensusService::builder`]. Submit with
/// [`submit`](ConsensusService::submit) /
/// [`submit_batch`](ConsensusService::submit_batch) and collect decisions
/// through the returned [`DecisionHandle`]s:
///
/// ```
/// use mc_runtime::ConsensusService;
///
/// let service = ConsensusService::builder().n(1).values(64).participants(1).build();
/// let handle = service.submit(0, 42).unwrap();
/// assert_eq!(handle.wait(), Ok(42));
/// ```
///
/// # Ordering and agreement
///
/// All submissions for one `instance_id` land in the same ring and are
/// decided serially by its worker, so they agree — the lab conformance
/// suite proves the service path decides exactly what direct
/// [`submit`](ConsensusEngine::submit) decides for the same proposals.
/// Submissions for *different* instances may complete in any order.
///
/// # Shutdown
///
/// [`shutdown`](ConsensusService::shutdown) (also run on drop) closes the
/// rings, drains every already-accepted proposal, and joins the workers.
/// Proposals a dead worker never reached resolve to
/// [`EngineError::Poisoned`] rather than hanging their handles.
pub struct ConsensusService<M: SharedMemory = AtomicMemory> {
    engine: Arc<ConsensusEngine<M>>,
    rings: Arc<Vec<Ring>>,
    workers: Vec<JoinHandle<()>>,
    /// Proposals a ring holds before admission parks the producer.
    ring_capacity: usize,
    capacity: u64,
    /// Service-wide admission serial for [`Pending::submission_id`].
    next_submission: AtomicU64,
    /// Holds the engine's telemetry in amortized recorder mode; `None`
    /// once shutdown has handed per-decide events back.
    amortized: Option<AmortizedEvents>,
}

impl ConsensusService {
    /// Starts building a service (engine knobs plus service knobs in one
    /// fluent path).
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::new()
    }
}

impl<M: SharedMemory> ConsensusService<M> {
    /// Runs a service over `engine`, one ring and one worker per engine
    /// shard; the engine remains usable directly.
    ///
    /// Taking over an engine switches its telemetry to amortized recorder
    /// traffic: per-decide events are suppressed in favor of one
    /// `batch_drained` summary per batch (counters and histograms keep
    /// their per-operation fidelity) — see
    /// `RuntimeTelemetry::decide_events_on`. The suppression lasts while
    /// any service is attached; [`shutdown`](ConsensusService::shutdown)
    /// (and drop) hands per-decide events back, so direct
    /// [`submit`](ConsensusEngine::submit) calls after the service is gone
    /// emit the full event stream again.
    ///
    /// # Panics
    ///
    /// Panics if `options.ring_capacity == 0` or `options.batch_max == 0`.
    fn over(engine: Arc<ConsensusEngine<M>>, options: ServiceOptions) -> ConsensusService<M> {
        assert!(options.ring_capacity > 0, "ring capacity must be nonzero");
        assert!(options.batch_max > 0, "batch size must be nonzero");
        let amortized = Some(engine.telemetry_handle().amortized());
        let worker_count = engine.shard_count();
        let rings = Arc::new((0..worker_count).map(|_| Ring::new()).collect::<Vec<_>>());
        let capacity = engine.options_handle().scheme.capacity();
        let workers = (0..worker_count)
            .map(|ix| {
                let engine = Arc::clone(&engine);
                let rings = Arc::clone(&rings);
                std::thread::Builder::new()
                    .name(format!("mc-service-{ix}"))
                    .spawn(move || supervised_worker_loop(&engine, &rings[ix], ix, options))
                    .expect("spawn service worker")
            })
            .collect();
        ConsensusService {
            engine,
            rings,
            workers,
            ring_capacity: options.ring_capacity,
            capacity,
            next_submission: AtomicU64::new(0),
            amortized,
        }
    }

    /// The engine this service decides on.
    pub fn engine(&self) -> &Arc<ConsensusEngine<M>> {
        &self.engine
    }

    /// Aggregate metrics (shared with the engine): decide histograms, pool
    /// counters, plus the service's `proposals_enqueued` / `batches_drained`
    /// counters, queue-depth gauge, and submit→decision wait histogram.
    pub fn telemetry(&self) -> &RuntimeTelemetry {
        self.engine.telemetry()
    }

    /// Worker threads (= intake rings) this service runs.
    fn worker_count(&self) -> usize {
        self.rings.len()
    }

    /// Proposals currently enqueued across all rings.
    fn queue_depth(&self) -> usize {
        self.rings.iter().map(|r| r.lock().queue.len()).sum()
    }

    /// Supervision state of ring `ring` (see [`RingHealth`]).
    ///
    /// # Panics
    ///
    /// Panics if `ring` is not below the service's worker count.
    pub fn ring_health(&self, ring: usize) -> RingHealth {
        self.rings[ring].lock().health
    }

    fn ring_of(&self, instance_id: u64) -> &Ring {
        // Same hash as the engine's shards: one instance, one ring, one
        // worker — serial decides per instance.
        &self.rings[shard_index(instance_id, self.rings.len())]
    }

    /// Pushes one proposal under the ring lock, parking the producer while
    /// the ring is full; threads the guard back so a batch can admit a
    /// whole run of proposals without re-locking. The caller notifies the
    /// worker.
    fn admit<'g>(
        &self,
        ring: &'g Ring,
        mut state: MutexGuard<'g, RingState>,
        instance_id: u64,
        proposal: u64,
        enqueued_at: Instant,
    ) -> (
        MutexGuard<'g, RingState>,
        Result<DecisionHandle, EngineError>,
    ) {
        while state.queue.len() >= self.ring_capacity && !state.closed {
            // A full ring is a non-empty ring, but its worker may still be
            // parked: `submit_batch` notifies only after a whole run is
            // admitted, so when one run overfills the ring the wake-up this
            // producer is waiting on would never be sent. Wake the worker
            // before parking.
            ring.to_worker.notify_one();
            state = ring
                .to_producers
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let telemetry = self.engine.telemetry();
        if state.closed {
            telemetry.add(CounterKey::ProposalsRejected, 1);
            return (state, Err(EngineError::Rejected));
        }
        let cell = Cell::new();
        let handle = DecisionHandle {
            cell: Arc::clone(&cell),
        };
        state.queue.push_back(Pending {
            // Relaxed is enough: the ring lock orders this bump against
            // the ring's other admissions, so ids are strictly increasing
            // per ring, and nothing else reads the counter.
            submission_id: self.next_submission.fetch_add(1, Ordering::Relaxed),
            instance_id,
            proposal,
            enqueued_at,
            cell,
        });
        telemetry.on_proposal_enqueued();
        (state, Ok(handle))
    }

    /// Enqueues one proposal for `instance_id` and returns its handle
    /// immediately; the decision arrives through the handle. A full ring
    /// parks the caller until its worker drains room.
    ///
    /// # Errors
    ///
    /// [`EngineError::Rejected`] when the ring is closed: after
    /// [`shutdown`](ConsensusService::shutdown), or once its worker is
    /// [`RingHealth::Poisoned`].
    ///
    /// # Panics
    ///
    /// Panics if `proposal` exceeds the engine's value capacity (checked
    /// here, at admission, so an invalid proposal can never kill a
    /// worker).
    pub fn submit(&self, instance_id: u64, proposal: u64) -> Result<DecisionHandle, EngineError> {
        assert!(
            proposal < self.capacity,
            "value {proposal} exceeds consensus capacity {}",
            self.capacity
        );
        let ring = self.ring_of(instance_id);
        let (state, result) = self.admit(ring, ring.lock(), instance_id, proposal, Instant::now());
        drop(state);
        if result.is_ok() {
            ring.to_worker.notify_one();
        }
        result
    }

    /// Enqueues a batch of `(instance_id, proposal)` pairs, taking each
    /// ring's lock once per batch rather than once per proposal — the
    /// producer-side half of the pipeline's amortization. Results come
    /// back in input order.
    ///
    /// Admission applies per proposal: a full ring parks the producer
    /// until it drains, and a closed ring refuses only its own items.
    ///
    /// # Panics
    ///
    /// As [`submit`](ConsensusService::submit).
    pub fn submit_batch(&self, items: &[(u64, u64)]) -> Vec<Result<DecisionHandle, EngineError>> {
        for &(_, proposal) in items {
            assert!(
                proposal < self.capacity,
                "value {proposal} exceeds consensus capacity {}",
                self.capacity
            );
        }
        let mut results: Vec<Option<Result<DecisionHandle, EngineError>>> =
            (0..items.len()).map(|_| None).collect();
        // Admit each contiguous run landing in the same ring under ONE
        // lock acquisition — with a single worker (or ids pre-grouped by
        // producer) that is one lock per batch.
        let mut ix = 0;
        while ix < items.len() {
            let ring = self.ring_of(items[ix].0);
            let mut end = ix + 1;
            while end < items.len() && std::ptr::eq(self.ring_of(items[end].0), ring) {
                end += 1;
            }
            let mut state = ring.lock();
            let mut admitted = false;
            // One timestamp per run: wait-latency accounting is batch-grained
            // on the enqueue side, like the drain side's telemetry flush.
            let enqueued_at = Instant::now();
            for (slot, &(instance_id, proposal)) in results[ix..end].iter_mut().zip(&items[ix..end])
            {
                let (next, result) = self.admit(ring, state, instance_id, proposal, enqueued_at);
                state = next;
                admitted |= result.is_ok();
                *slot = Some(result);
            }
            drop(state);
            if admitted {
                ring.to_worker.notify_one();
            }
            ix = end;
        }
        results.into_iter().map(|r| r.expect("filled")).collect()
    }

    /// Stops workers from draining, leaving submissions to pile up in the
    /// rings — the deterministic-saturation hook the admission and
    /// supervision tests use. Batches already taken finish first.
    pub fn pause(&self) {
        for ring in self.rings.iter() {
            ring.lock().paused = true;
        }
    }

    /// Resumes draining after [`pause`](ConsensusService::pause).
    pub fn resume(&self) {
        for ring in self.rings.iter() {
            ring.lock().paused = false;
            ring.to_worker.notify_all();
        }
    }

    /// Closes the rings, waits for every accepted proposal to decide, and
    /// joins the workers. Idempotent; also runs on drop. Proposals left
    /// behind by a worker that died resolve to [`EngineError::Poisoned`].
    pub fn shutdown(&mut self) {
        for ring in self.rings.iter() {
            let mut state = ring.lock();
            state.closed = true;
            // A paused, closed service must still drain: shutdown's
            // contract (no accepted proposal is lost) outranks the test
            // hook.
            state.paused = false;
            drop(state);
            ring.to_worker.notify_all();
            ring.to_producers.notify_all();
        }
        for worker in self.workers.drain(..) {
            // A worker that panicked already poisoned its local batch by
            // unwinding; swallow the panic so shutdown (and drop) can
            // poison whatever is left in its ring below.
            let _ = worker.join();
        }
        for ring in self.rings.iter() {
            // Dropping a still-Waiting Pending poisons its cell.
            let mut state = ring.lock();
            let orphaned = state.queue.len();
            state.queue.clear();
            // A terminally-poisoned worker may have left its in-flight
            // stash behind; those proposals were already subtracted from
            // the depth gauge when their batch drained, so clear without
            // re-accounting.
            ring.lock_inflight().clear();
            drop(state);
            self.engine.telemetry().lower_queue_depth(orphaned as u64);
        }
        // Hand per-decide recorder events back: the engine outlives the
        // service and its direct `submit` path must emit again.
        self.amortized = None;
    }
}

impl<M: SharedMemory> Drop for ConsensusService<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<M: SharedMemory> std::fmt::Debug for ConsensusService<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConsensusService")
            .field("workers", &self.worker_count())
            .field("queue_depth", &self.queue_depth())
            .finish_non_exhaustive()
    }
}

/// Degrades a ring to the terminal [`RingHealth::Poisoned`] state:
/// admission flips to [`EngineError::Rejected`], producers parked under
/// on a full ring are released, and every proposal still
/// queued or in flight is poisoned — without this, a dead ring would keep
/// accepting proposals that nothing will ever drain.
fn terminal_poison(ring: &Ring, telemetry: &RuntimeTelemetry) {
    let mut state = ring.lock();
    state.closed = true;
    state.health = RingHealth::Poisoned;
    let orphaned = std::mem::take(&mut state.queue);
    // The in-flight stash was subtracted from the depth gauge when its
    // batch drained — take it for poisoning without re-accounting.
    let stash = std::mem::take(&mut *ring.lock_inflight());
    drop(state);
    // Settle the depth gauge BEFORE dropping the orphans: dropping a
    // still-Waiting Pending poisons its cell and wakes its waiters, and a
    // woken waiter must observe a consistent ledger.
    telemetry.lower_queue_depth(orphaned.len() as u64);
    drop(orphaned);
    drop(stash);
    ring.to_producers.notify_all();
}

/// Last-resort guard inside [`supervised_worker_loop`]: fires only when a
/// panic escapes the supervision machinery itself (the catch/recover path
/// is itself under `catch_unwind`, so this means the loop around it
/// failed). The restart budget no longer applies — poison terminally
/// rather than strand producers.
struct WorkerDeathGuard<'a> {
    ring: &'a Ring,
    telemetry: &'a RuntimeTelemetry,
}

impl Drop for WorkerDeathGuard<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            // Normal exit: the ring is already closed and drained.
            return;
        }
        terminal_poison(self.ring, self.telemetry);
    }
}

/// Per-worker chaos bookkeeping. Drain and injected-panic counts live
/// OUTSIDE the restart loop, so a plan's `max_panics` cap is a per-worker
/// total across incarnations, not per incarnation — a plan with
/// `max_panics <= restart_budget` is guaranteed to stay within budget.
struct ChaosState {
    plan: ChaosPlan,
    /// This worker's index, used to phase its injection points.
    stream: u64,
    drains: u64,
    panics: u32,
}

impl ChaosState {
    fn new(plan: ChaosPlan, ring_ix: usize) -> ChaosState {
        ChaosState {
            plan,
            stream: ring_ix as u64,
            drains: 0,
            panics: 0,
        }
    }

    /// Runs once per drained batch — after the batch moved to the ring's
    /// in-flight stash, before any decide — so an injected panic unwinds
    /// with every proposal still recoverable.
    fn at_drain_boundary(&mut self) {
        self.drains += 1;
        if self.plan.stall_every > 0
            && self.drains % self.plan.stall_every
                == mix_seed(self.plan.seed, self.stream ^ 0x0005_7A11) % self.plan.stall_every
        {
            std::thread::sleep(self.plan.stall_for);
        }
        if self.plan.panic_every > 0
            && self.panics < self.plan.max_panics
            && self.drains % self.plan.panic_every
                == mix_seed(self.plan.seed, self.stream) % self.plan.panic_every
        {
            self.panics += 1;
            panic!(
                "chaos: injected worker panic {} at drain {}",
                self.panics, self.drains
            );
        }
    }
}

/// The supervisor wrapped around each worker: run [`drain_loop`] under
/// `catch_unwind`; on a panic, either restart (re-admitting the dead
/// incarnation's undecided in-flight remainder exactly once, then backing
/// off exponentially) or — past the restart budget — degrade the ring to
/// [`RingHealth::Poisoned`].
///
/// Recovery runs INSIDE the next incarnation's `catch_unwind`, so a panic
/// during recovery (say, a recorder panicking on the restart event) counts
/// against the same budget instead of killing the thread.
fn supervised_worker_loop<M: SharedMemory>(
    engine: &ConsensusEngine<M>,
    ring: &Ring,
    ring_ix: usize,
    options: ServiceOptions,
) {
    let _death_guard = WorkerDeathGuard {
        ring,
        telemetry: engine.telemetry(),
    };
    let mut chaos = ChaosState::new(options.chaos, ring_ix);
    let mut restarts: u32 = 0;
    // When a panic is pending recovery: the instant it was caught, so the
    // recovery latency histogram covers re-admission AND backoff.
    let mut pending_recovery: Option<Instant> = None;
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(caught_at) = pending_recovery.take() {
                recover(engine, ring, ring_ix, &options, restarts, caught_at);
            }
            drain_loop(engine, ring, ring_ix, &options, restarts, &mut chaos);
        }));
        match outcome {
            // Closed and drained: clean exit.
            Ok(()) => return,
            Err(_) => {
                restarts += 1;
                if restarts > options.supervisor.restart_budget {
                    terminal_poison(ring, engine.telemetry());
                    return;
                }
                pending_recovery = Some(Instant::now());
            }
        }
    }
}

/// Restores a ring after its worker's panic, before the next incarnation
/// drains: re-admit the in-flight remainder, back off, report.
///
/// Exactly-once argument: the stash holds precisely the drained proposals
/// not yet popped for a decide. A decided proposal was popped and
/// completed, so it is not here; the proposal mid-decide at the panic was
/// popped too (its unwinding drop poisoned its cell); everything else has
/// a still-`Waiting` cell and exactly one [`Pending`] — moved back to the
/// ring FRONT in original order, under the ring lock, so no proposal is
/// lost, reordered, or decided twice. The `submission_id` asserts pin the
/// in-order part.
fn recover<M: SharedMemory>(
    engine: &ConsensusEngine<M>,
    ring: &Ring,
    ring_ix: usize,
    options: &ServiceOptions,
    attempt: u32,
    caught_at: Instant,
) {
    let telemetry = engine.telemetry();
    let resubmitted;
    {
        let mut state = ring.lock();
        state.health = RingHealth::Restarting;
        let mut inflight = ring.lock_inflight();
        resubmitted = inflight.len() as u64;
        while let Some(item) = inflight.pop_back() {
            debug_assert!(
                item.cell.read() == CellState::Waiting,
                "a completed proposal must never be re-admitted"
            );
            debug_assert!(
                state
                    .queue
                    .front()
                    .is_none_or(|next| item.submission_id < next.submission_id),
                "re-admission must preserve per-ring submission order"
            );
            state.queue.push_front(item);
        }
    }
    telemetry.on_proposals_requeued(resubmitted);
    // Exponential backoff, interruptible by shutdown closing the ring.
    let sup = &options.supervisor;
    let raw_ns = sup.base_backoff.as_nanos() << u32::min(attempt.saturating_sub(1), 63);
    let backoff = Duration::from_nanos(
        u64::try_from(raw_ns.min(sup.max_backoff.as_nanos())).unwrap_or(u64::MAX),
    );
    let wake_at = Instant::now() + backoff;
    {
        let mut state = ring.lock();
        loop {
            if state.closed {
                break;
            }
            let now = Instant::now();
            if now >= wake_at {
                break;
            }
            let (next, _) = ring
                .to_worker
                .wait_timeout(state, wake_at - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
        }
        state.health = RingHealth::Healthy;
    }
    let recovery_ns = u64::try_from(caught_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
    telemetry.on_worker_restart(ring_ix as u64, u64::from(attempt), resubmitted, recovery_ns);
}

/// One worker incarnation: block for work, move up to `batch_max`
/// proposals to the ring's in-flight stash, run chaos injections, decide
/// item by item, emit one `batch_drained` event — repeat until closed and
/// empty. Panics unwind to [`supervised_worker_loop`].
fn drain_loop<M: SharedMemory>(
    engine: &ConsensusEngine<M>,
    ring: &Ring,
    ring_ix: usize,
    options: &ServiceOptions,
    incarnation: u32,
    chaos: &mut ChaosState,
) {
    // Incarnation 0 reproduces the pre-supervision coin stream exactly;
    // each restart re-seeds deterministically rather than replaying the
    // dead incarnation's flips.
    let worker_seed = options.seed.wrapping_add(ring_ix as u64);
    let mut rng = if incarnation == 0 {
        SmallRng::seed_from_u64(worker_seed)
    } else {
        SmallRng::seed_from_u64(mix_seed(worker_seed, u64::from(incarnation)))
    };
    let telemetry = Arc::clone(engine.telemetry_handle());
    // Single-participant engines get the zero-lock fast path: one pooled
    // object serves the whole stream (see `ConsensusEngine::detached_slot`).
    let mut slot = (engine.participants() == 1).then(|| engine.detached_slot(ring_ix));
    loop {
        let depth_after;
        {
            let mut state = ring.lock();
            while (state.queue.is_empty() || state.paused) && !state.closed {
                state = ring
                    .to_worker
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if state.queue.is_empty() && state.closed {
                return;
            }
            let take = state.queue.len().min(options.batch_max);
            {
                // Stash the batch on the ring rather than locally: a panic
                // anywhere past this point leaves the undecided remainder
                // where the supervisor can re-admit it.
                let mut inflight = ring.lock_inflight();
                debug_assert!(
                    inflight.is_empty(),
                    "the in-flight stash drains fully between batches"
                );
                inflight.extend(state.queue.drain(..take));
            }
            depth_after = state.queue.len();
            drop(state);
            // The drained proposals left the ring the moment `drain` took
            // them — account for them now, not at batch completion, so the
            // aggregate gauge stays honest even if a decide panics.
            telemetry.lower_queue_depth(take as u64);
            // Room freed: wake producers blocked under `Block`.
            ring.to_producers.notify_all();
        }
        // Chaos fires at the drain boundary — batch stashed, nothing
        // popped — so an injected panic loses no proposal.
        chaos.at_drain_boundary();
        let mut done: u64 = 0;
        loop {
            // Pop ONE item and release the stash lock before deciding (a
            // `while let` scrutinee guard would pin it across the decide).
            let item = match ring.lock_inflight().pop_front() {
                Some(item) => item,
                None => break,
            };
            // If this decide panics, the unwind drops `item` — poisoning
            // just that cell (see `Pending::drop`); the rest of the batch
            // stays in the stash for re-admission.
            let decided = match &mut slot {
                Some(slot) => slot.decide(item.proposal, &mut rng),
                None => engine.submit_unbounded(item.instance_id, item.proposal, &mut rng),
            };
            item.complete(decided);
            let wait_ns = u64::try_from(item.enqueued_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
            telemetry.record(HistKey::ServiceWaitNs, wait_ns);
            done += 1;
        }
        telemetry.on_batch_drained(ring_ix as u64, done, depth_after as u64);
    }
}

/// Fluent constructor for [`ConsensusService`]: every [`EngineBuilder`]
/// knob plus the service's own. Obtain one from
/// [`ConsensusService::builder`].
///
/// [`EngineBuilder`]: crate::EngineBuilder
#[derive(Clone, Debug)]
pub struct ServiceBuilder<M: SharedMemory = AtomicMemory> {
    engine: crate::EngineBuilder<M>,
    service: ServiceOptions,
}

impl Default for ServiceBuilder {
    fn default() -> ServiceBuilder {
        ServiceBuilder {
            engine: crate::EngineBuilder::default(),
            service: ServiceOptions::default(),
        }
    }
}

impl ServiceBuilder {
    /// A builder with every knob at its default; `n` must still be set.
    pub fn new() -> ServiceBuilder {
        ServiceBuilder::default()
    }
}

impl<M: SharedMemory> ServiceBuilder<M> {
    /// Maximum participating threads per instance. Required.
    #[must_use]
    pub fn n(mut self, n: usize) -> Self {
        self.engine = self.engine.n(n);
        self
    }

    /// Number of distinct proposal values; see
    /// [`ConsensusBuilder::values`](crate::ConsensusBuilder::values).
    #[must_use]
    pub fn values(mut self, m: u64) -> Self {
        self.engine = self.engine.values(m);
        self
    }

    /// Telemetry event sink; see
    /// [`ConsensusBuilder::recorder`](crate::ConsensusBuilder::recorder).
    #[must_use]
    pub fn recorder(mut self, recorder: Arc<dyn mc_telemetry::Recorder>) -> Self {
        self.engine = self.engine.recorder(recorder);
        self
    }

    /// Register substrate; see
    /// [`ConsensusBuilder::memory`](crate::ConsensusBuilder::memory).
    #[must_use]
    pub fn memory<M2: SharedMemory>(self, memory: M2) -> ServiceBuilder<M2> {
        ServiceBuilder {
            engine: self.engine.memory(memory),
            service: self.service,
        }
    }

    /// Engine shards; see [`EngineBuilder::shards`](crate::EngineBuilder::shards).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.engine = self.engine.shards(shards);
        self
    }

    /// Submits per instance; see
    /// [`EngineBuilder::participants`](crate::EngineBuilder::participants).
    #[must_use]
    pub fn participants(mut self, participants: usize) -> Self {
        self.engine = self.engine.participants(participants);
        self
    }

    /// Proposals a ring holds before admission parks the producer
    /// (default 1024).
    #[must_use]
    pub fn ring_capacity(mut self, capacity: usize) -> Self {
        self.service.ring_capacity = capacity;
        self
    }

    /// Largest batch a worker drains at once (default 256).
    #[must_use]
    pub fn batch_max(mut self, batch: usize) -> Self {
        self.service.batch_max = batch;
        self
    }

    /// Base seed for the workers' RNGs (default `0x5EED`).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.service.seed = seed;
        self
    }

    /// Worker supervision knobs (default [`SupervisorOptions::default`]).
    #[must_use]
    pub fn supervisor(mut self, supervisor: SupervisorOptions) -> Self {
        self.service.supervisor = supervisor;
        self
    }

    /// Seeded service-level fault injection (default [`ChaosPlan::none`]).
    #[must_use]
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.service.chaos = plan;
        self
    }

    /// Builds the engine and starts the service's workers over it, one
    /// ring and one worker per engine shard.
    ///
    /// # Panics
    ///
    /// As [`EngineBuilder::build`](crate::EngineBuilder::build), and if
    /// `ring_capacity` or `batch_max` is 0.
    pub fn build(self) -> ConsensusService<M> {
        ConsensusService::over(Arc::new(self.engine.build()), self.service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::GaugeKey;
    use mc_telemetry::{AggregatingRecorder, Tally};

    fn single_worker_service() -> ConsensusService {
        ConsensusService::builder()
            .n(1)
            .values(1024)
            .participants(1)
            .shards(1)
            .build()
    }

    #[test]
    fn decisions_flow_back_through_handles() {
        let service = single_worker_service();
        let handles: Vec<DecisionHandle> = (0..100u64)
            .map(|id| service.submit(id, id % 1024).unwrap())
            .collect();
        for (id, handle) in handles.iter().enumerate() {
            assert_eq!(handle.wait(), Ok(id as u64 % 1024));
        }
        // Join the workers before asserting batch counters: the final
        // `batch_drained` lands after the batch's handles complete.
        let t = Arc::clone(service.engine().telemetry_handle());
        drop(service);
        assert_eq!(t.count(CounterKey::ProposalsEnqueued), 100);
        assert_eq!(t.count(CounterKey::Decisions), 100);
        assert_eq!(t.count(CounterKey::InstancesRetired), 100);
        assert!(t.count(CounterKey::BatchesDrained) >= 1);
        assert_eq!(t.hist(HistKey::ServiceWaitNs).count(), 100);
    }

    #[test]
    fn submit_batch_matches_per_call_submit() {
        let service = single_worker_service();
        let items: Vec<(u64, u64)> = (0..64u64).map(|id| (id, (id * 7) % 1024)).collect();
        let handles = service.submit_batch(&items);
        for (handle, (_, proposal)) in handles.into_iter().zip(&items) {
            assert_eq!(handle.unwrap().wait(), Ok(*proposal));
        }
    }

    #[test]
    fn same_instance_submissions_agree_with_multiple_participants() {
        let service = ConsensusService::builder()
            .n(3)
            .values(8)
            .participants(3)
            .shards(1)
            .build();
        let handles: Vec<DecisionHandle> = (0..3u64)
            .map(|p| service.submit(7, p + 1).unwrap())
            .collect();
        let decisions: Vec<u64> = handles.iter().map(|h| h.wait().unwrap()).collect();
        assert!(
            decisions.iter().all(|&d| d == decisions[0]),
            "{decisions:?}"
        );
        assert!((1..=3).contains(&decisions[0]));
        assert_eq!(service.engine().live_instances(), 0);
    }

    #[test]
    fn poll_sees_waiting_then_done() {
        let service = single_worker_service();
        service.pause();
        let handle = service.submit(0, 5).unwrap();
        assert_eq!(handle.poll(), None);
        service.resume();
        assert_eq!(handle.wait(), Ok(5));
        assert_eq!(handle.poll(), Some(Ok(5)));
    }

    #[test]
    fn wait_timeout_times_out_then_succeeds() {
        let service = single_worker_service();
        service.pause();
        let handle = service.submit(0, 9).unwrap();
        assert_eq!(
            handle.wait_timeout(Duration::from_millis(20)),
            Err(EngineError::Timeout)
        );
        service.resume();
        assert_eq!(handle.wait_timeout(Duration::from_secs(30)), Ok(9));
    }

    #[test]
    fn block_policy_never_loses_a_proposal() {
        let service = Arc::new(
            ConsensusService::builder()
                .n(1)
                .values(1024)
                .participants(1)
                .shards(1)
                .ring_capacity(8)
                .batch_max(4)
                .build(),
        );
        // 4 producers × 100 proposals through an 8-deep ring: producers
        // must block rather than lose or drop anything.
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    (0..100u64)
                        .map(|i| {
                            let id = p * 100 + i;
                            service.submit(id, id % 1024).unwrap()
                        })
                        .collect::<Vec<DecisionHandle>>()
                })
            })
            .collect();
        let handles: Vec<Vec<DecisionHandle>> =
            producers.into_iter().map(|h| h.join().unwrap()).collect();
        for (p, batch) in handles.iter().enumerate() {
            for (i, handle) in batch.iter().enumerate() {
                let id = p as u64 * 100 + i as u64;
                assert_eq!(handle.wait(), Ok(id % 1024));
            }
        }
        let t = service.telemetry();
        assert_eq!(t.count(CounterKey::ProposalsEnqueued), 400);
        assert_eq!(t.count(CounterKey::Decisions), 400);
        assert_eq!(t.count(CounterKey::ProposalsRejected), 0);
    }

    #[test]
    fn submit_batch_larger_than_ring_capacity_does_not_deadlock() {
        let service = ConsensusService::builder()
            .n(1)
            .values(1024)
            .participants(1)
            .shards(1)
            .ring_capacity(2)
            .batch_max(2)
            .build();
        // One run of 32 proposals through a 2-slot ring: admission must
        // wake the (initially parked) worker before blocking, or the
        // producer waits for a drain the worker was never told about.
        let items: Vec<(u64, u64)> = (0..32u64).map(|id| (id, id)).collect();
        let handles = service.submit_batch(&items);
        for (id, handle) in handles.into_iter().enumerate() {
            assert_eq!(handle.unwrap().wait(), Ok(id as u64));
        }
    }

    #[test]
    fn multi_producer_submit_batch_enqueues_every_offered_proposal() {
        let service = ConsensusService::builder()
            .n(1)
            .values(1024)
            .participants(1)
            .shards(1)
            .ring_capacity(8)
            .batch_max(4)
            .build();
        // 4 producers × 4 runs of 25 through one 8-deep ring: every run
        // overflows the ring, and the ledger still counts each offer once.
        std::thread::scope(|s| {
            for p in 0..4u64 {
                let service = &service;
                s.spawn(move || {
                    let items: Vec<(u64, u64)> =
                        (p * 100..(p + 1) * 100).map(|id| (id, id % 1024)).collect();
                    for chunk in items.chunks(25) {
                        for (handle, &(_, value)) in service.submit_batch(chunk).iter().zip(chunk) {
                            assert_eq!(handle.as_ref().unwrap().wait(), Ok(value));
                        }
                    }
                });
            }
        });
        let t = service.telemetry();
        assert_eq!(t.count(CounterKey::ProposalsEnqueued), 400);
        assert_eq!(t.count(CounterKey::Decisions), 400);
    }

    #[test]
    fn shutdown_restores_per_decide_recorder_events() {
        let agg = Arc::new(AggregatingRecorder::new());
        let engine = Arc::new(
            ConsensusEngine::builder()
                .n(1)
                .values(8)
                .participants(1)
                .recorder(Arc::clone(&agg) as Arc<dyn mc_telemetry::Recorder>)
                .build(),
        );
        {
            let _service = ConsensusService::over(Arc::clone(&engine), ServiceOptions::default());
            assert!(!engine.telemetry().decide_events_on());
        }
        // Drop ran shutdown: the engine is usable directly again, with
        // the full per-decide event stream.
        assert!(engine.telemetry().decide_events_on());
        let mut rng = SmallRng::seed_from_u64(7);
        engine.submit(0, 3, &mut rng);
        assert_eq!(agg.count(Tally::Decisions), 1);
    }

    struct PanicOnBatchDrained;

    impl mc_telemetry::Recorder for PanicOnBatchDrained {
        fn record(&self, event: &mc_telemetry::TelemetryEvent) {
            if matches!(event, mc_telemetry::TelemetryEvent::BatchDrained { .. }) {
                panic!("injected recorder failure");
            }
        }
    }

    #[test]
    fn dead_worker_closes_its_ring_instead_of_hanging_producers() {
        // restart_budget 0: the pre-supervision contract — the first panic
        // is terminal.
        let service = ConsensusService::builder()
            .n(1)
            .values(64)
            .participants(1)
            .shards(1)
            .batch_max(1)
            .supervisor(SupervisorOptions {
                restart_budget: 0,
                ..SupervisorOptions::default()
            })
            .recorder(Arc::new(PanicOnBatchDrained) as Arc<dyn mc_telemetry::Recorder>)
            .build();
        service.pause();
        let handles: Vec<DecisionHandle> = (0..4u64)
            .map(|id| service.submit(id, id).unwrap())
            .collect();
        service.resume();
        // batch_max 1: the worker decides the first proposal, then dies
        // emitting its batch event; the supervisor (budget 0) poisons the
        // ring and the three proposals it never reached.
        assert_eq!(handles[0].wait(), Ok(0));
        for handle in &handles[1..] {
            assert_eq!(handle.wait(), Err(EngineError::Poisoned));
        }
        // The closed ring refuses new work instead of queueing proposals
        // nothing will ever drain (a Block producer would otherwise park
        // forever against the dead ring).
        assert!(matches!(service.submit(9, 9), Err(EngineError::Rejected)));
        assert_eq!(service.telemetry().count(CounterKey::ProposalsRejected), 1);
        assert_eq!(service.queue_depth(), 0);
        assert_eq!(service.telemetry().gauge(GaugeKey::QueueDepth), 0);
        assert_eq!(service.ring_health(0), RingHealth::Poisoned);
    }

    #[test]
    fn supervised_worker_survives_recorder_panics_within_budget() {
        // Every batch event panics the worker; batch_max 1 makes that one
        // panic per proposal. With a budget of 4, four proposals all
        // decide — each after one restart.
        let service = ConsensusService::builder()
            .n(1)
            .values(64)
            .participants(1)
            .shards(1)
            .batch_max(1)
            .supervisor(SupervisorOptions {
                restart_budget: 4,
                base_backoff: Duration::from_micros(50),
                max_backoff: Duration::from_millis(1),
            })
            .recorder(Arc::new(PanicOnBatchDrained) as Arc<dyn mc_telemetry::Recorder>)
            .build();
        let handles: Vec<DecisionHandle> = (0..4u64)
            .map(|id| service.submit(id, id).unwrap())
            .collect();
        for (id, handle) in handles.iter().enumerate() {
            assert_eq!(handle.wait(), Ok(id as u64), "proposal {id}");
        }
        let t = Arc::clone(service.engine().telemetry_handle());
        drop(service);
        assert_eq!(t.count(CounterKey::Decisions), 4);
        assert_eq!(t.count(CounterKey::WorkerRestarts), 4);
        assert_eq!(t.hist(HistKey::WorkerRecoveryNs).count(), 4);
        // The batch events all panicked mid-record, so the proposals were
        // already decided when each panic hit: nothing to re-admit.
        assert_eq!(t.count(CounterKey::ResubmittedCells), 0);
    }

    #[test]
    fn budget_exhaustion_degrades_to_poisoned() {
        let service = ConsensusService::builder()
            .n(1)
            .values(64)
            .participants(1)
            .shards(1)
            .batch_max(1)
            .supervisor(SupervisorOptions {
                restart_budget: 2,
                base_backoff: Duration::from_micros(50),
                max_backoff: Duration::from_millis(1),
            })
            .recorder(Arc::new(PanicOnBatchDrained) as Arc<dyn mc_telemetry::Recorder>)
            .build();
        service.pause();
        let handles: Vec<DecisionHandle> = (0..5u64)
            .map(|id| service.submit(id, id).unwrap())
            .collect();
        service.resume();
        // Panics 1 and 2 are survived (budget 2); the third is terminal.
        // Three proposals decide before their batch event panics; the
        // remaining two are poisoned.
        for (id, handle) in handles.iter().take(3).enumerate() {
            assert_eq!(handle.wait(), Ok(id as u64), "proposal {id}");
        }
        for handle in &handles[3..] {
            assert_eq!(handle.wait(), Err(EngineError::Poisoned));
        }
        assert_eq!(service.ring_health(0), RingHealth::Poisoned);
        assert!(matches!(service.submit(9, 9), Err(EngineError::Rejected)));
        assert_eq!(service.telemetry().count(CounterKey::WorkerRestarts), 2);
        assert_eq!(service.telemetry().gauge(GaugeKey::QueueDepth), 0);
    }

    #[test]
    fn chaos_panics_requeue_the_whole_batch_exactly_once() {
        // panic_every 1 with max_panics 2: the first two drain boundaries
        // panic with the full 3-proposal batch stashed; each recovery
        // re-admits all 3, and the third incarnation decides them.
        let plan = ChaosPlan::seeded(0xC4A0).panic_every(1, 2);
        let service = ConsensusService::builder()
            .n(1)
            .values(64)
            .participants(1)
            .shards(1)
            .chaos(plan)
            .supervisor(SupervisorOptions {
                restart_budget: 4,
                base_backoff: Duration::from_micros(50),
                max_backoff: Duration::from_millis(1),
            })
            .build();
        service.pause();
        let handles: Vec<DecisionHandle> = (0..3u64)
            .map(|id| service.submit(id, id).unwrap())
            .collect();
        service.resume();
        for (id, handle) in handles.iter().enumerate() {
            assert_eq!(handle.wait(), Ok(id as u64), "proposal {id}");
        }
        let t = Arc::clone(service.engine().telemetry_handle());
        drop(service);
        assert_eq!(t.count(CounterKey::WorkerRestarts), 2);
        assert_eq!(
            t.count(CounterKey::ResubmittedCells),
            6,
            "3 proposals × 2 recoveries"
        );
        assert_eq!(
            t.count(CounterKey::Decisions),
            3,
            "each proposal decided exactly once"
        );
        assert_eq!(t.count(CounterKey::ProposalsEnqueued), 3);
        assert_eq!(t.gauge(GaugeKey::QueueDepth), 0);
    }

    #[test]
    fn chaos_stalls_delay_but_lose_nothing() {
        let plan = ChaosPlan::seeded(7).stall_every(1, Duration::from_millis(2));
        let service = ConsensusService::builder()
            .n(1)
            .values(64)
            .participants(1)
            .shards(1)
            .chaos(plan)
            .build();
        let handles: Vec<DecisionHandle> = (0..8u64)
            .map(|id| service.submit(id, id).unwrap())
            .collect();
        for (id, handle) in handles.iter().enumerate() {
            assert_eq!(handle.wait(), Ok(id as u64));
        }
        assert_eq!(service.telemetry().count(CounterKey::WorkerRestarts), 0);
    }

    /// Panics while recording the FIRST `WorkerRestarted` event: proves a
    /// panic during recovery itself burns restart budget instead of
    /// killing the thread or double-admitting the stash.
    struct PanicOnFirstRestartEvent {
        fired: std::sync::atomic::AtomicBool,
    }

    impl mc_telemetry::Recorder for PanicOnFirstRestartEvent {
        fn record(&self, event: &mc_telemetry::TelemetryEvent) {
            if matches!(event, mc_telemetry::TelemetryEvent::WorkerRestarted { .. })
                && !self.fired.swap(true, Ordering::Relaxed)
            {
                panic!("injected recovery failure");
            }
        }
    }

    #[test]
    fn panic_during_recovery_counts_against_the_budget() {
        let plan = ChaosPlan::seeded(3).panic_every(1, 1);
        let service = ConsensusService::builder()
            .n(1)
            .values(64)
            .participants(1)
            .shards(1)
            .chaos(plan)
            .supervisor(SupervisorOptions {
                restart_budget: 3,
                base_backoff: Duration::from_micros(50),
                max_backoff: Duration::from_millis(1),
            })
            .recorder(Arc::new(PanicOnFirstRestartEvent {
                fired: std::sync::atomic::AtomicBool::new(false),
            }) as Arc<dyn mc_telemetry::Recorder>)
            .build();
        service.pause();
        let handles: Vec<DecisionHandle> = (0..3u64)
            .map(|id| service.submit(id, id).unwrap())
            .collect();
        service.resume();
        // Chaos panic (restart 1) → recovery's restart event panics
        // (restart 2) → second recovery succeeds, batch decides.
        for (id, handle) in handles.iter().enumerate() {
            assert_eq!(handle.wait(), Ok(id as u64));
        }
        let t = Arc::clone(service.engine().telemetry_handle());
        drop(service);
        assert_eq!(t.count(CounterKey::WorkerRestarts), 2);
        assert_eq!(t.count(CounterKey::Decisions), 3);
    }

    #[test]
    fn wait_timeout_reports_poison_not_timeout_when_racing() {
        // Deterministic half: an already-poisoned cell must never report
        // Timeout, even with a zero timeout.
        let cell = Cell::new();
        let handle = DecisionHandle {
            cell: Arc::clone(&cell),
        };
        cell.fill(CellState::Poisoned);
        assert_eq!(
            handle.wait_timeout(Duration::ZERO),
            Err(EngineError::Poisoned)
        );

        // Racing half: hammer a ~zero timeout against a concurrent
        // poisoner. Any single run may legitimately see Timeout (the
        // poison landed after expiry) — but a Timeout must never be
        // final: once the cell IS poisoned, re-waiting must say so.
        for i in 0..200 {
            let cell = Cell::new();
            let handle = DecisionHandle {
                cell: Arc::clone(&cell),
            };
            let poisoner = {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    if i % 2 == 0 {
                        std::thread::yield_now();
                    }
                    cell.fill(CellState::Poisoned);
                })
            };
            let raced = handle.wait_timeout(Duration::from_nanos(1));
            poisoner.join().unwrap();
            match raced {
                Err(EngineError::Poisoned) => {}
                Err(EngineError::Timeout) => {
                    assert_eq!(
                        handle.wait_timeout(Duration::ZERO),
                        Err(EngineError::Poisoned),
                        "iteration {i}: poison visible after join must be reported"
                    );
                }
                other => panic!("iteration {i}: unexpected result {other:?}"),
            }
        }
    }

    #[test]
    fn shutdown_drains_accepted_proposals() {
        let mut service = single_worker_service();
        service.pause();
        let handles: Vec<DecisionHandle> = (0..10u64)
            .map(|id| service.submit(id, id).unwrap())
            .collect();
        // Shutdown unpauses, drains, and joins — nothing accepted is lost.
        service.shutdown();
        for (id, handle) in handles.iter().enumerate() {
            assert_eq!(handle.wait(), Ok(id as u64));
        }
        assert!(matches!(service.submit(99, 0), Err(EngineError::Rejected)));
        assert_eq!(service.telemetry().count(CounterKey::ProposalsRejected), 1);
    }

    #[test]
    fn batch_drained_events_reach_the_recorder() {
        let agg = Arc::new(AggregatingRecorder::new());
        let service = ConsensusService::builder()
            .n(1)
            .values(64)
            .participants(1)
            .shards(1)
            .recorder(Arc::clone(&agg) as Arc<dyn mc_telemetry::Recorder>)
            .build();
        service.pause();
        let handles: Vec<DecisionHandle> = (0..20u64)
            .map(|id| service.submit(id, id % 64).unwrap())
            .collect();
        service.resume();
        for handle in &handles {
            handle.wait().unwrap();
        }
        drop(service); // join workers so the batch events have landed
                       // All 20 were in the ring when the worker woke: one batch (the
                       // default batch_max is 256), one event, 20 proposals accounted.
        assert!(agg.count(Tally::BatchesDrained) >= 1);
        assert_eq!(agg.count(Tally::BatchedProposals), 20);
        // The service amortizes recorder traffic: per-decide events are
        // suppressed while it drives the engine, so the recorder sees the
        // batch summaries but not twenty Decided events.
        assert_eq!(agg.count(Tally::Decisions), 0);
    }

    #[test]
    fn oversized_proposal_is_refused_at_admission() {
        let service = single_worker_service();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.submit(0, 9999).ok();
        }));
        assert!(result.is_err(), "oversized proposal must panic at submit");
        // The panic happened on the producer side: workers are alive and
        // the service still decides.
        assert_eq!(service.submit(1, 3).unwrap().wait(), Ok(3));
    }

    #[test]
    fn handles_survive_the_service_when_decided() {
        let handle = {
            let service = single_worker_service();
            let handle = service.submit(0, 7).unwrap();
            handle.wait().unwrap();
            handle
        };
        assert_eq!(handle.poll(), Some(Ok(7)));
    }
}
