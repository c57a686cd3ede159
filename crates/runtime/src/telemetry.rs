//! Telemetry for the thread runtime: one shared handle per consensus
//! object (or per replicated log, covering all its slots).
//!
//! Counters and histograms are always on — they are relaxed atomics, cheap
//! next to real register contention — while structured [`TelemetryEvent`]
//! emission is gated on the attached [`Recorder`]: with the default
//! [`NoopRecorder`] the `events_on` flag is `false` and no event is ever
//! constructed.
//!
//! The batching service additionally *amortizes* recorder traffic: while a
//! `ConsensusService` drives an engine, per-decide events (`StageEntered`,
//! `Decided`, …) are suppressed on that engine's telemetry and the recorder
//! instead receives one `BatchDrained` summary per drained batch. The store,
//! whose sequencers decide on the engine directly, holds the same mode
//! through an [`AmortizedEvents`] guard. Counters and histograms keep their
//! per-operation fidelity either way.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mc_telemetry::{
    thread_shard, CircuitState, ConciliatorKind, Counter, FaultClass, Gauge, Histogram,
    NoopRecorder, Recorder, ShardedCounter, Snapshot, StageKind, TelemetryEvent,
};

/// Hard cap on the δ̂ sliding window: samples older than this many decides
/// are discarded regardless of the window a caller asks for.
const DELTA_WINDOW_CAP: usize = 256;

/// Fixed-point scale for the `observed_delta_hat` gauge (δ̂ in millionths).
const DELTA_HAT_SCALE: f64 = 1_000_000.0;

/// Aggregated metrics plus an event sink for runtime consensus objects.
///
/// Obtain one from [`Consensus::telemetry`](crate::Consensus::telemetry) or
/// [`ReplicatedLog::telemetry`](crate::ReplicatedLog::telemetry); attach a
/// real recorder with the `with_recorder` constructors.
pub struct RuntimeTelemetry {
    recorder: Arc<dyn Recorder>,
    events_on: bool,
    /// Services currently amortizing this telemetry's recorder traffic;
    /// per-decide events flow only while this is zero.
    decide_event_amortizers: AtomicU64,
    decide_calls: Counter,
    decisions: Counter,
    fast_path_hits: Counter,
    stage_entries: ShardedCounter,
    rounds_to_decide: Histogram,
    decide_latency_ns: Histogram,
    conciliator_rounds: Histogram,
    max_conciliator_round: Gauge,
    coin_rounds: Histogram,
    conciliator_selections: Counter,
    coin_selections: Counter,
    observed_delta_hat: Gauge,
    /// Conciliator stages entered per completed decide, newest at the back.
    /// Feeds the sliding-window δ̂ estimate for adaptive selection.
    delta_window: Mutex<VecDeque<u64>>,
    prob_writes_attempted: ShardedCounter,
    prob_writes_performed: ShardedCounter,
    appends: Counter,
    slot_conflicts: Counter,
    pool_hits: Counter,
    pool_misses: Counter,
    instances_retired: Counter,
    faults_injected: Counter,
    lost_prob_writes: Counter,
    stale_reads: Counter,
    delayed_commits: Counter,
    register_resets: Counter,
    fallbacks_taken: Counter,
    proposals_enqueued: Counter,
    proposals_rejected: Counter,
    proposals_shed: Counter,
    batches_drained: Counter,
    queue_depth: Gauge,
    service_wait_ns: Histogram,
    worker_restarts: Counter,
    resubmitted_cells: Counter,
    circuit_state: Gauge,
    worker_recovery_ns: Histogram,
    applied_index: Gauge,
    commands_applied: Counter,
    sessions_created: Counter,
    duplicates_served: Counter,
    stale_commands: Counter,
    lease_grants: Counter,
    fast_reads: Counter,
    store_snapshots: Counter,
}

/// Keeps a [`RuntimeTelemetry`] in amortized recorder mode while alive;
/// see [`RuntimeTelemetry::amortized`].
#[derive(Debug)]
pub struct AmortizedEvents(Arc<RuntimeTelemetry>);

impl Drop for AmortizedEvents {
    fn drop(&mut self) {
        self.0.restore_decide_events();
    }
}

impl std::fmt::Debug for RuntimeTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeTelemetry")
            .field("events_on", &self.events_on)
            .field("decide_calls", &self.decide_calls.get())
            .field("decisions", &self.decisions.get())
            .finish_non_exhaustive()
    }
}

impl RuntimeTelemetry {
    /// Telemetry for up to `n` processes, emitting events to `recorder`.
    pub fn new(n: usize, recorder: Arc<dyn Recorder>) -> RuntimeTelemetry {
        let events_on = recorder.enabled();
        RuntimeTelemetry {
            recorder,
            events_on,
            decide_event_amortizers: AtomicU64::new(0),
            decide_calls: Counter::new(),
            decisions: Counter::new(),
            fast_path_hits: Counter::new(),
            stage_entries: ShardedCounter::new(n),
            rounds_to_decide: Histogram::new(),
            decide_latency_ns: Histogram::new(),
            conciliator_rounds: Histogram::new(),
            max_conciliator_round: Gauge::new(),
            coin_rounds: Histogram::new(),
            conciliator_selections: Counter::new(),
            coin_selections: Counter::new(),
            observed_delta_hat: Gauge::new(),
            delta_window: Mutex::new(VecDeque::new()),
            prob_writes_attempted: ShardedCounter::new(n),
            prob_writes_performed: ShardedCounter::new(n),
            appends: Counter::new(),
            slot_conflicts: Counter::new(),
            pool_hits: Counter::new(),
            pool_misses: Counter::new(),
            instances_retired: Counter::new(),
            faults_injected: Counter::new(),
            lost_prob_writes: Counter::new(),
            stale_reads: Counter::new(),
            delayed_commits: Counter::new(),
            register_resets: Counter::new(),
            fallbacks_taken: Counter::new(),
            proposals_enqueued: Counter::new(),
            proposals_rejected: Counter::new(),
            proposals_shed: Counter::new(),
            batches_drained: Counter::new(),
            queue_depth: Gauge::new(),
            service_wait_ns: Histogram::new(),
            worker_restarts: Counter::new(),
            resubmitted_cells: Counter::new(),
            circuit_state: Gauge::new(),
            worker_recovery_ns: Histogram::new(),
            applied_index: Gauge::new(),
            commands_applied: Counter::new(),
            sessions_created: Counter::new(),
            duplicates_served: Counter::new(),
            stale_commands: Counter::new(),
            lease_grants: Counter::new(),
            fast_reads: Counter::new(),
            store_snapshots: Counter::new(),
        }
    }

    /// Telemetry with the do-nothing recorder (counters still live).
    pub fn noop(n: usize) -> RuntimeTelemetry {
        RuntimeTelemetry::new(n, Arc::new(NoopRecorder))
    }

    /// Whether structured events are being recorded.
    pub fn events_on(&self) -> bool {
        self.events_on
    }

    /// Whether per-decide events (`StageEntered`, `Decided`, …) reach the
    /// recorder. `false` either when no recorder is attached or while a
    /// batching service has this telemetry in amortized mode, where the
    /// recorder sees one `BatchDrained` summary per batch instead.
    pub fn decide_events_on(&self) -> bool {
        self.events_on && self.decide_event_amortizers.load(Ordering::Relaxed) == 0
    }

    /// Switches to amortized recorder traffic: per-decide events are
    /// suppressed; batch-level events and every counter/histogram stay
    /// live. Called by `ConsensusService` when it takes over an engine —
    /// paying a recorder serialization per operation on the worker's hot
    /// path would forfeit exactly the per-call overhead the service
    /// exists to amortize. Reference-counted: each call must be paired
    /// with one [`restore_decide_events`](Self::restore_decide_events),
    /// and per-decide events resume once every amortizer is gone.
    pub(crate) fn amortize_decide_events(&self) {
        self.decide_event_amortizers.fetch_add(1, Ordering::Relaxed);
    }

    /// Undoes one [`amortize_decide_events`](Self::amortize_decide_events)
    /// (the service calls this on shutdown); per-decide events flow again
    /// when no amortizer remains. Saturates at zero.
    pub(crate) fn restore_decide_events(&self) {
        let _ =
            self.decide_event_amortizers
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// Amortized recorder mode (see
    /// [`decide_events_on`](Self::decide_events_on)) as a guard, for a
    /// driver outside this crate that decides on its own threads at a rate
    /// a per-decide recorder call would dominate — the store's sequencers.
    /// Reference-counted with the service's; lasts until the guard drops.
    pub fn amortized(self: &Arc<Self>) -> AmortizedEvents {
        self.amortize_decide_events();
        AmortizedEvents(Arc::clone(self))
    }

    /// The attached recorder.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// Flushes the attached recorder.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the recorder's sink.
    pub fn flush(&self) -> std::io::Result<()> {
        self.recorder.flush()
    }

    #[inline]
    fn pid() -> u64 {
        thread_shard() as u64
    }

    // --- emission hooks (crate-internal) ---

    #[inline]
    pub(crate) fn on_decide_start(&self) {
        self.decide_calls.incr();
    }

    #[inline]
    pub(crate) fn on_stage_entered(&self, stage: u64, kind: StageKind) {
        self.stage_entries.add_local(1);
        if self.decide_events_on() {
            self.recorder.record(&TelemetryEvent::StageEntered {
                pid: Self::pid(),
                stage,
                kind,
            });
        }
    }

    #[inline]
    pub(crate) fn on_ratifier_verdict(&self, stage: u64, decided: bool, value: u64) {
        if self.decide_events_on() {
            self.recorder.record(&TelemetryEvent::RatifierVerdict {
                pid: Self::pid(),
                stage,
                decided,
                value,
            });
        }
    }

    #[inline]
    pub(crate) fn on_decided(&self, value: u64, stage: u64, fast_path: bool, latency_ns: u64) {
        self.decisions.incr();
        self.rounds_to_decide.record(stage);
        self.decide_latency_ns.record(latency_ns);
        if fast_path {
            self.fast_path_hits.incr();
        }
        if self.decide_events_on() {
            let pid = Self::pid();
            if fast_path {
                self.recorder
                    .record(&TelemetryEvent::FastPathHit { pid, stage });
            }
            self.recorder.record(&TelemetryEvent::Decided {
                pid,
                value,
                stage,
                latency_ns,
            });
        }
    }

    #[inline]
    pub(crate) fn on_conciliator_round(&self, round: u64, probability: f64) {
        self.max_conciliator_round.record_max(round);
        if self.decide_events_on() {
            self.recorder.record(&TelemetryEvent::ConciliatorRound {
                pid: Self::pid(),
                round,
                probability,
            });
        }
    }

    #[inline]
    pub(crate) fn on_prob_write(&self, performed: bool, probability: f64) {
        self.prob_writes_attempted.add_local(1);
        if performed {
            self.prob_writes_performed.add_local(1);
        }
        if self.decide_events_on() {
            self.recorder.record(&TelemetryEvent::ProbWrite {
                pid: Self::pid(),
                performed,
                probability,
            });
        }
    }

    #[inline]
    pub(crate) fn on_propose_done(&self, rounds: u64) {
        self.conciliator_rounds.record(rounds);
    }

    /// A shared-coin flip completed after `rounds` voting rounds (0 for the
    /// local coin, which touches no shared registers).
    #[inline]
    pub(crate) fn on_coin_rounds(&self, rounds: u64) {
        self.coin_rounds.record(rounds);
    }

    /// A decide completed after entering `stages` conciliator stages; feeds
    /// the sliding window behind [`delta_hat_over`](Self::delta_hat_over).
    pub(crate) fn on_conciliator_stages(&self, stages: u64) {
        let mut window = self.delta_window.lock().expect("delta window poisoned");
        if window.len() == DELTA_WINDOW_CAP {
            window.pop_front();
        }
        window.push_back(stages);
    }

    /// A consensus instance resolved its conciliator portfolio choice.
    /// Emitted only on the adaptive path — fixed choices are not news.
    pub(crate) fn on_conciliator_selected(
        &self,
        generation: u64,
        choice: ConciliatorKind,
        delta_hat: Option<f64>,
        samples: u64,
    ) {
        self.conciliator_selections.incr();
        if choice == ConciliatorKind::Coin {
            self.coin_selections.incr();
        }
        if let Some(d) = delta_hat {
            self.observed_delta_hat
                .set((d.clamp(0.0, 1.0) * DELTA_HAT_SCALE) as u64);
        }
        if self.events_on {
            self.recorder.record(&TelemetryEvent::ConciliatorSelected {
                generation,
                choice,
                delta_hat,
                samples,
            });
        }
    }

    #[inline]
    pub(crate) fn on_fault_injected(&self, class: FaultClass, register: u64, step: u64) {
        self.faults_injected.incr();
        match class {
            FaultClass::LostProbWrite => self.lost_prob_writes.incr(),
            FaultClass::StaleRead => self.stale_reads.incr(),
            FaultClass::DelayedVisibility => self.delayed_commits.incr(),
            FaultClass::RegisterReset => self.register_resets.incr(),
        }
        if self.decide_events_on() {
            self.recorder.record(&TelemetryEvent::FaultInjected {
                class,
                register,
                step,
            });
        }
    }

    #[inline]
    pub(crate) fn on_fallback_taken(&self, conciliator_stages: u64) {
        self.fallbacks_taken.incr();
        if self.decide_events_on() {
            self.recorder.record(&TelemetryEvent::FallbackTaken {
                pid: Self::pid(),
                conciliator_stages,
            });
        }
    }

    // --- service hooks ---
    //
    // The batching service calls these from producers (enqueue/reject/shed)
    // and workers (batch drained, per-item wait). Everything here is a
    // relaxed-atomic counter or histogram bump except `on_batch_drained`,
    // which is the *one* structured event per batch — that is the telemetry
    // amortization: per-proposal costs stay O(1) stores, recorder traffic
    // is O(batches).

    /// A proposal was accepted into an intake ring. The queue-depth gauge
    /// is an aggregate over all rings, maintained by add/sub so producers
    /// and workers on different rings compose instead of overwriting each
    /// other.
    #[inline]
    pub(crate) fn on_proposal_enqueued(&self) {
        self.proposals_enqueued.incr();
        self.queue_depth.add(1);
    }

    /// `count` proposals left the intake rings — drained into a worker's
    /// batch, or cleared (and poisoned) by shutdown or a dying worker.
    #[inline]
    pub(crate) fn on_proposals_dequeued(&self, count: u64) {
        self.queue_depth.sub(count);
    }

    /// A proposal was refused at admission under `BackpressurePolicy::Reject`.
    #[inline]
    pub(crate) fn on_proposal_rejected(&self) {
        self.proposals_rejected.incr();
    }

    /// A proposal was dropped at admission under `BackpressurePolicy::Shed`.
    #[inline]
    pub(crate) fn on_proposal_shed(&self) {
        self.proposals_shed.incr();
    }

    /// A shard worker drained one batch of `batch` proposals; `queue_depth`
    /// is the depth it left behind in its ring (carried on the event — the
    /// gauge itself was already adjusted at drain time by
    /// [`on_proposals_dequeued`](Self::on_proposals_dequeued)).
    #[inline]
    pub(crate) fn on_batch_drained(&self, shard: u64, batch: u64, queue_depth: u64) {
        self.batches_drained.incr();
        if self.events_on {
            self.recorder.record(&TelemetryEvent::BatchDrained {
                shard,
                batch,
                queue_depth,
            });
        }
    }

    /// One proposal's submit→decision wall-clock wait, nanoseconds.
    #[inline]
    pub(crate) fn on_service_wait(&self, wait_ns: u64) {
        self.service_wait_ns.record(wait_ns);
    }

    /// `count` re-admitted proposals went back into an intake ring after a
    /// worker panic. The queue-depth gauge climbs back by `count` (the
    /// drain that preceded the panic already subtracted them);
    /// `proposals_enqueued` is *not* re-incremented — a re-admission is the
    /// same submission, so the enqueued ≡ decided + poisoned ledger holds.
    #[inline]
    pub(crate) fn on_proposals_requeued(&self, count: u64) {
        self.resubmitted_cells.add(count);
        self.queue_depth.add(count);
    }

    /// A supervised worker recovered from a panic and restarted its drain
    /// loop. Like `on_batch_drained`, this is a batch-level event: it flows
    /// to the recorder whenever events are on, amortized mode included.
    #[inline]
    pub(crate) fn on_worker_restart(&self, ring: u64, attempt: u64, resubmitted: u64, ns: u64) {
        self.worker_restarts.incr();
        self.worker_recovery_ns.record(ns);
        if self.events_on {
            self.recorder.record(&TelemetryEvent::WorkerRestarted {
                ring,
                attempt,
                resubmitted,
                recovery_ns: ns,
            });
        }
    }

    /// A service circuit breaker entered `state`.
    #[inline]
    pub(crate) fn on_circuit_transition(&self, state: CircuitState) {
        self.circuit_state.set(state.as_u64());
        if self.events_on {
            self.recorder
                .record(&TelemetryEvent::CircuitTransition { state });
        }
    }

    /// A consensus instance was served from the recycle pool.
    #[inline]
    pub(crate) fn on_pool_hit(&self) {
        self.pool_hits.incr();
    }

    /// A consensus instance had to be freshly constructed (empty pool).
    #[inline]
    pub(crate) fn on_pool_miss(&self) {
        self.pool_misses.incr();
    }

    /// A decided instance was reset and returned to the recycle pool.
    #[inline]
    pub(crate) fn on_instance_retired(&self) {
        self.instances_retired.incr();
    }

    #[inline]
    pub(crate) fn on_append(&self, slots_walked: u64) {
        self.appends.incr();
        // Every slot beyond the first means some other replica's command won
        // the slot this one was racing for.
        self.slot_conflicts.add(slots_walked.saturating_sub(1));
    }

    // --- store-layer hooks (public: `mc-store` is a separate crate) ---

    /// The store's apply worker applied `count` commands, leaving the
    /// contiguous applied prefix at `applied_index` entries.
    #[inline]
    pub fn on_commands_applied(&self, count: u64, applied_index: u64) {
        self.commands_applied.add(count);
        self.applied_index.set(applied_index);
    }

    /// A store session table admitted a client id it had not seen.
    #[inline]
    pub fn on_session_created(&self) {
        self.sessions_created.incr();
    }

    /// A duplicate command (same client, same sequence number) was
    /// answered from the session table's cached response without
    /// re-applying.
    #[inline]
    pub fn on_duplicate_served(&self) {
        self.duplicates_served.incr();
    }

    /// A command arrived with a sequence number *below* the session's
    /// last applied one — too stale for even the cached response.
    #[inline]
    pub fn on_stale_command(&self) {
        self.stale_commands.incr();
    }

    /// A client session was granted (or re-granted) a read lease valid
    /// for `ttl_ns`; `renewed` is false for the session's first lease.
    #[inline]
    pub fn on_lease_granted(&self, client: u64, renewed: bool, ttl_ns: u64) {
        self.lease_grants.incr();
        if self.events_on {
            self.recorder.record(&TelemetryEvent::ReadLease {
                client,
                renewed,
                ttl_ns,
            });
        }
    }

    /// A read was served from the applied state under a live lease,
    /// without occupying a log slot.
    #[inline]
    pub fn on_fast_read(&self) {
        self.fast_reads.incr();
    }

    /// The store captured a state-machine snapshot and compacted the log
    /// below the applied index.
    #[inline]
    pub fn on_store_snapshot(&self) {
        self.store_snapshots.incr();
    }

    // --- accessors ---

    /// `decide` calls started.
    pub fn decide_calls(&self) -> u64 {
        self.decide_calls.get()
    }

    /// `decide` calls completed.
    pub fn decisions(&self) -> u64 {
        self.decisions.get()
    }

    /// Decisions that never left the leading ratifier pair.
    pub fn fast_path_hits(&self) -> u64 {
        self.fast_path_hits.get()
    }

    /// Fraction of decisions that used only the fast path (0 when none).
    pub fn fast_path_rate(&self) -> f64 {
        let decided = self.decisions();
        if decided == 0 {
            0.0
        } else {
            self.fast_path_hits() as f64 / decided as f64
        }
    }

    /// Total stage entries across all threads.
    pub fn stage_entries(&self) -> u64 {
        self.stage_entries.total()
    }

    /// Distribution of the stage index at which calls decided.
    pub fn rounds_to_decide(&self) -> &Histogram {
        &self.rounds_to_decide
    }

    /// Distribution of wall-clock `decide` latency in nanoseconds.
    pub fn decide_latency_ns(&self) -> &Histogram {
        &self.decide_latency_ns
    }

    /// Distribution of probability-doubling rounds per conciliator call.
    pub fn conciliator_rounds(&self) -> &Histogram {
        &self.conciliator_rounds
    }

    /// Largest probability-doubling round index any call reached.
    pub fn max_conciliator_round(&self) -> u64 {
        self.max_conciliator_round.max()
    }

    /// Distribution of voting rounds per shared-coin flip.
    pub fn coin_rounds(&self) -> &Histogram {
        &self.coin_rounds
    }

    /// Adaptive conciliator selections resolved (any outcome).
    pub fn conciliator_selections(&self) -> u64 {
        self.conciliator_selections.get()
    }

    /// Adaptive selections that chose the coin conciliator.
    pub fn coin_selections(&self) -> u64 {
        self.coin_selections.get()
    }

    /// Latest δ̂ published by an adaptive selection, or `None` before any
    /// selection had enough samples to estimate one.
    pub fn observed_delta_hat(&self) -> Option<f64> {
        match self.observed_delta_hat.get() {
            0 => None,
            ppm => Some(ppm as f64 / DELTA_HAT_SCALE),
        }
    }

    /// Number of per-decide samples currently in the δ̂ sliding window.
    pub fn delta_samples(&self) -> u64 {
        self.delta_window
            .lock()
            .expect("delta window poisoned")
            .len() as u64
    }

    /// Sliding-window estimate of the per-stage agreement probability δ̂
    /// over the most recent `window` decides.
    ///
    /// Each decide that entered `k ≥ 1` conciliator stages is a geometric
    /// sample with success probability δ, so the maximum-likelihood
    /// estimate over the window is `#decides / Σ stages`. Returns `None`
    /// when fewer than `max(min_samples, 1)` decides have been observed —
    /// an empty or thin window never produces an estimate (and therefore
    /// never triggers an adaptive switch). Decides that never entered a
    /// conciliator (pure fast path) contribute zero stages; a window of
    /// only those yields `Some(1.0)`.
    pub fn delta_hat_over(&self, window: usize, min_samples: usize) -> Option<f64> {
        let guard = self.delta_window.lock().expect("delta window poisoned");
        let take = window.min(guard.len());
        if take < min_samples.max(1) {
            return None;
        }
        let total: u64 = guard.iter().rev().take(take).sum();
        if total == 0 {
            return Some(1.0);
        }
        Some(take as f64 / total as f64)
    }

    /// Probabilistic writes attempted (coin flips).
    pub fn prob_writes_attempted(&self) -> u64 {
        self.prob_writes_attempted.total()
    }

    /// Probabilistic writes whose coin landed.
    pub fn prob_writes_performed(&self) -> u64 {
        self.prob_writes_performed.total()
    }

    /// Replicated-log appends completed.
    pub fn appends(&self) -> u64 {
        self.appends.get()
    }

    /// Slots lost to another replica's command before an append landed.
    pub fn slot_conflicts(&self) -> u64 {
        self.slot_conflicts.get()
    }

    /// Consensus instances served from the recycle pool.
    pub fn pool_hits(&self) -> u64 {
        self.pool_hits.get()
    }

    /// Consensus instances constructed because the pool was empty.
    pub fn pool_misses(&self) -> u64 {
        self.pool_misses.get()
    }

    /// Fraction of instance activations served from the pool (0 when no
    /// instance was ever activated).
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits() + self.pool_misses();
        if total == 0 {
            0.0
        } else {
            self.pool_hits() as f64 / total as f64
        }
    }

    /// Decided instances reset and returned to the recycle pool.
    pub fn instances_retired(&self) -> u64 {
        self.instances_retired.get()
    }

    /// Instances currently live (activated but not yet retired). Every
    /// activation is a pool hit or a pool miss, so live = hits + misses −
    /// retired.
    pub fn live_instances(&self) -> u64 {
        (self.pool_hits() + self.pool_misses()).saturating_sub(self.instances_retired())
    }

    /// Upper bound on the median wall-clock `decide` latency, nanoseconds.
    pub fn decide_latency_p50_ns(&self) -> u64 {
        self.decide_latency_ns.quantile_upper(0.50)
    }

    /// Upper bound on the 99th-percentile `decide` latency, nanoseconds.
    pub fn decide_latency_p99_ns(&self) -> u64 {
        self.decide_latency_ns.quantile_upper(0.99)
    }

    /// Memory faults delivered by an attached `FaultyMemory`, all classes.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.get()
    }

    /// Probabilistic writes whose coin fired but whose store was dropped.
    pub fn lost_prob_writes(&self) -> u64 {
        self.lost_prob_writes.get()
    }

    /// Reads served a stale (previous) value.
    pub fn stale_reads(&self) -> u64 {
        self.stale_reads.get()
    }

    /// Writes whose visibility was delayed.
    pub fn delayed_commits(&self) -> u64 {
        self.delayed_commits.get()
    }

    /// Registers wiped back to ⊥.
    pub fn register_resets(&self) -> u64 {
        self.register_resets.get()
    }

    /// Bounded-consensus calls that exhausted every conciliator stage and
    /// fell back to the backup protocol `K`.
    pub fn fallbacks_taken(&self) -> u64 {
        self.fallbacks_taken.get()
    }

    /// Proposals accepted into a service intake ring.
    pub fn proposals_enqueued(&self) -> u64 {
        self.proposals_enqueued.get()
    }

    /// Proposals refused at admission (`BackpressurePolicy::Reject`).
    pub fn proposals_rejected(&self) -> u64 {
        self.proposals_rejected.get()
    }

    /// Proposals dropped at admission (`BackpressurePolicy::Shed`).
    pub fn proposals_shed(&self) -> u64 {
        self.proposals_shed.get()
    }

    /// Batches drained by service shard workers.
    pub fn batches_drained(&self) -> u64 {
        self.batches_drained.get()
    }

    /// Proposals currently enqueued across *all* intake rings (aggregate,
    /// not any single ring's depth).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.get()
    }

    /// Largest aggregate intake-ring depth ever observed.
    pub fn max_queue_depth_seen(&self) -> u64 {
        self.queue_depth.max()
    }

    /// Distribution of submit→decision wall-clock waits through the
    /// service, nanoseconds.
    pub fn service_wait_ns(&self) -> &Histogram {
        &self.service_wait_ns
    }

    /// Upper bound on the median submit→decision wait, nanoseconds.
    pub fn service_wait_p50_ns(&self) -> u64 {
        self.service_wait_ns.quantile_upper(0.50)
    }

    /// Upper bound on the 99th-percentile submit→decision wait, nanoseconds.
    pub fn service_wait_p99_ns(&self) -> u64 {
        self.service_wait_ns.quantile_upper(0.99)
    }

    /// Worker panics a supervisor recovered from (drain loop restarted).
    pub fn worker_restarts(&self) -> u64 {
        self.worker_restarts.get()
    }

    /// Queued-but-unsubmitted cells re-admitted after worker panics.
    pub fn resubmitted_cells(&self) -> u64 {
        self.resubmitted_cells.get()
    }

    /// Current circuit-breaker state (numeric: closed 0, open 1, half-open
    /// 2; see [`mc_telemetry::CircuitState::as_u64`]).
    pub fn circuit_state(&self) -> u64 {
        self.circuit_state.get()
    }

    /// Distribution of panic-catch → drain-loop-reentry recovery latency,
    /// nanoseconds.
    pub fn worker_recovery_ns(&self) -> &Histogram {
        &self.worker_recovery_ns
    }

    /// Length of the store's contiguous applied prefix (entries applied to
    /// the state machine).
    pub fn applied_index(&self) -> u64 {
        self.applied_index.get()
    }

    /// Commands applied to the store's state machine (duplicates excluded).
    pub fn commands_applied(&self) -> u64 {
        self.commands_applied.get()
    }

    /// Distinct client sessions the store's session table has admitted.
    pub fn sessions_created(&self) -> u64 {
        self.sessions_created.get()
    }

    /// Duplicate commands answered from the session table's cached
    /// response instead of re-applying.
    pub fn duplicates_served(&self) -> u64 {
        self.duplicates_served.get()
    }

    /// Commands refused because their sequence number predates the
    /// session's cached response.
    pub fn stale_commands(&self) -> u64 {
        self.stale_commands.get()
    }

    /// Read leases granted or renewed.
    pub fn lease_grants(&self) -> u64 {
        self.lease_grants.get()
    }

    /// Reads served from the applied state under a live lease (no log
    /// slot consumed).
    pub fn fast_reads(&self) -> u64 {
        self.fast_reads.get()
    }

    /// State-machine snapshots captured (each rides a `compact_below`).
    pub fn store_snapshots(&self) -> u64 {
        self.store_snapshots.get()
    }

    /// Upper bound on the median worker recovery latency, nanoseconds.
    pub fn worker_recovery_p50_ns(&self) -> u64 {
        self.worker_recovery_ns.quantile_upper(0.50)
    }

    /// Upper bound on the 99th-percentile worker recovery latency,
    /// nanoseconds.
    pub fn worker_recovery_p99_ns(&self) -> u64 {
        self.worker_recovery_ns.quantile_upper(0.99)
    }

    /// A frozen copy of every metric, ready for text/JSON/Prometheus
    /// export.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        snap.counter("decide_calls", self.decide_calls())
            .counter("decisions", self.decisions())
            .counter("fast_path_hits", self.fast_path_hits())
            .counter("stage_entries", self.stage_entries())
            .counter("prob_writes_attempted", self.prob_writes_attempted())
            .counter("prob_writes_performed", self.prob_writes_performed())
            .counter("appends", self.appends())
            .counter("slot_conflicts", self.slot_conflicts())
            .counter("pool_hits", self.pool_hits())
            .counter("pool_misses", self.pool_misses())
            .counter("instances_retired", self.instances_retired())
            .counter("faults_injected", self.faults_injected())
            .counter("faults_lost_prob_writes", self.lost_prob_writes())
            .counter("faults_stale_reads", self.stale_reads())
            .counter("faults_delayed_commits", self.delayed_commits())
            .counter("faults_register_resets", self.register_resets())
            .counter("fallbacks_taken", self.fallbacks_taken())
            .counter("conciliator_selections", self.conciliator_selections())
            .counter("coin_selections", self.coin_selections())
            .counter("proposals_enqueued", self.proposals_enqueued())
            .counter("proposals_rejected", self.proposals_rejected())
            .counter("proposals_shed", self.proposals_shed())
            .counter("batches_drained", self.batches_drained())
            .counter("worker_restarts", self.worker_restarts())
            .counter("resubmitted_cells", self.resubmitted_cells())
            .counter("commands_applied", self.commands_applied())
            .counter("sessions_created", self.sessions_created())
            .counter("duplicates_served", self.duplicates_served())
            .counter("stale_commands", self.stale_commands())
            .counter("lease_grants", self.lease_grants())
            .counter("fast_reads", self.fast_reads())
            .counter("store_snapshots", self.store_snapshots())
            .gauge(
                "applied_index",
                self.applied_index(),
                self.applied_index.max(),
            )
            .gauge(
                "circuit_state",
                self.circuit_state(),
                self.circuit_state.max(),
            )
            .gauge(
                "max_conciliator_round",
                self.max_conciliator_round.get(),
                self.max_conciliator_round(),
            )
            .gauge(
                "observed_delta_hat_ppm",
                self.observed_delta_hat.get(),
                self.observed_delta_hat.max(),
            )
            .gauge(
                "live_instances",
                self.live_instances(),
                self.live_instances(),
            )
            .gauge(
                "queue_depth",
                self.queue_depth(),
                self.max_queue_depth_seen(),
            )
            .histogram("rounds_to_decide", self.rounds_to_decide.snapshot())
            .histogram("decide_latency_ns", self.decide_latency_ns.snapshot())
            .histogram("conciliator_rounds", self.conciliator_rounds.snapshot())
            .histogram("coin_rounds", self.coin_rounds.snapshot())
            .histogram("service_wait_ns", self.service_wait_ns.snapshot())
            .histogram("worker_recovery_ns", self.worker_recovery_ns.snapshot());
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_telemetry::AggregatingRecorder;

    #[test]
    fn noop_telemetry_still_counts() {
        let t = RuntimeTelemetry::noop(4);
        assert!(!t.events_on());
        t.on_decide_start();
        t.on_stage_entered(0, StageKind::Ratifier);
        t.on_prob_write(true, 0.5);
        t.on_decided(1, 2, false, 500);
        assert_eq!(t.decide_calls(), 1);
        assert_eq!(t.decisions(), 1);
        assert_eq!(t.stage_entries(), 1);
        assert_eq!(t.prob_writes_attempted(), 1);
        assert_eq!(t.prob_writes_performed(), 1);
        assert_eq!(t.fast_path_hits(), 0);
        assert_eq!(t.rounds_to_decide().max(), 2);
    }

    #[test]
    fn events_flow_to_recorder() {
        let agg = Arc::new(AggregatingRecorder::new());
        let t = RuntimeTelemetry::new(2, Arc::clone(&agg) as Arc<dyn Recorder>);
        assert!(t.events_on());
        t.on_stage_entered(0, StageKind::Conciliator);
        t.on_conciliator_round(3, 0.25);
        t.on_prob_write(false, 0.25);
        t.on_decided(0, 4, true, 1_000);
        assert_eq!(agg.stage_entries(), 1);
        assert_eq!(agg.conciliator_rounds(), 1);
        assert_eq!(agg.max_round(), 3);
        assert_eq!(agg.prob_writes_attempted(), 1);
        assert_eq!(agg.prob_writes_performed(), 0);
        assert_eq!(agg.fast_path_hits(), 1);
        assert_eq!(agg.decisions(), 1);
    }

    #[test]
    fn amortized_mode_suppresses_decide_events_but_not_counters() {
        let agg = Arc::new(AggregatingRecorder::new());
        let t = RuntimeTelemetry::new(2, Arc::clone(&agg) as Arc<dyn Recorder>);
        assert!(t.decide_events_on());
        t.amortize_decide_events();
        assert!(t.events_on(), "batch-level events stay live");
        assert!(!t.decide_events_on());
        t.on_decide_start();
        t.on_stage_entered(0, StageKind::Ratifier);
        t.on_decided(1, 2, false, 500);
        // Recorder saw nothing per-decide; batch summaries still flow.
        assert_eq!(agg.stage_entries(), 0);
        assert_eq!(agg.decisions(), 0);
        t.on_batch_drained(0, 7, 12);
        assert_eq!(agg.batches_drained(), 1);
        assert_eq!(agg.batched_proposals(), 7);
        // Counters and histograms never switch off.
        assert_eq!(t.decisions(), 1);
        assert_eq!(t.stage_entries(), 1);
        // Restoring hands per-decide events back to the recorder.
        t.restore_decide_events();
        assert!(t.decide_events_on());
        t.on_decided(1, 2, false, 500);
        assert_eq!(agg.decisions(), 1);
    }

    #[test]
    fn amortization_is_refcounted_and_saturates() {
        let agg = Arc::new(AggregatingRecorder::new());
        let t = RuntimeTelemetry::new(2, Arc::clone(&agg) as Arc<dyn Recorder>);
        t.amortize_decide_events();
        t.amortize_decide_events();
        t.restore_decide_events();
        assert!(
            !t.decide_events_on(),
            "one amortizer left: still suppressed"
        );
        t.restore_decide_events();
        assert!(t.decide_events_on());
        // Over-restoring saturates at zero rather than wrapping.
        t.restore_decide_events();
        assert!(t.decide_events_on());
        t.amortize_decide_events();
        assert!(!t.decide_events_on());
        // The guard form is one more reference, released on drop.
        t.restore_decide_events();
        let t = Arc::new(t);
        let guard = t.amortized();
        assert!(!t.decide_events_on());
        drop(guard);
        assert!(t.decide_events_on());
    }

    #[test]
    fn fault_and_fallback_hooks_count_and_emit() {
        let agg = Arc::new(AggregatingRecorder::new());
        let t = RuntimeTelemetry::new(2, Arc::clone(&agg) as Arc<dyn Recorder>);
        t.on_fault_injected(FaultClass::LostProbWrite, 3, 10);
        t.on_fault_injected(FaultClass::StaleRead, 1, 11);
        t.on_fault_injected(FaultClass::StaleRead, 1, 12);
        t.on_fallback_taken(6);
        assert_eq!(t.faults_injected(), 3);
        assert_eq!(t.lost_prob_writes(), 1);
        assert_eq!(t.stale_reads(), 2);
        assert_eq!(t.delayed_commits(), 0);
        assert_eq!(t.register_resets(), 0);
        assert_eq!(t.fallbacks_taken(), 1);
        assert_eq!(agg.faults_injected(), 3);
        assert_eq!(agg.fallbacks_taken(), 1);
        let snap = t.snapshot();
        assert_eq!(snap.counter_value("faults_injected"), Some(3));
        assert_eq!(snap.counter_value("faults_stale_reads"), Some(2));
        assert_eq!(snap.counter_value("fallbacks_taken"), Some(1));
    }

    #[test]
    fn append_tracking_counts_conflicts() {
        let t = RuntimeTelemetry::noop(2);
        t.on_append(1);
        t.on_append(3);
        assert_eq!(t.appends(), 2);
        assert_eq!(t.slot_conflicts(), 2);
    }

    #[test]
    fn pool_counters_track_hit_rate_and_live_instances() {
        let t = RuntimeTelemetry::noop(2);
        t.on_pool_miss();
        t.on_pool_hit();
        t.on_pool_hit();
        t.on_instance_retired();
        assert_eq!(t.pool_hits(), 2);
        assert_eq!(t.pool_misses(), 1);
        assert!((t.pool_hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(t.instances_retired(), 1);
        assert_eq!(t.live_instances(), 2);
        let snap = t.snapshot();
        assert_eq!(snap.counter_value("pool_hits"), Some(2));
        assert_eq!(snap.counter_value("pool_misses"), Some(1));
        assert_eq!(snap.counter_value("instances_retired"), Some(1));
    }

    #[test]
    fn service_hooks_count_and_emit_batch_events() {
        let agg = Arc::new(AggregatingRecorder::new());
        let t = RuntimeTelemetry::new(2, Arc::clone(&agg) as Arc<dyn Recorder>);
        t.on_proposal_enqueued();
        t.on_proposal_enqueued();
        t.on_proposal_rejected();
        t.on_proposal_shed();
        t.on_proposals_dequeued(2);
        t.on_batch_drained(0, 2, 0);
        t.on_service_wait(5_000);
        t.on_service_wait(9_000);
        assert_eq!(t.proposals_enqueued(), 2);
        assert_eq!(t.proposals_rejected(), 1);
        assert_eq!(t.proposals_shed(), 1);
        assert_eq!(t.batches_drained(), 1);
        assert_eq!(t.queue_depth(), 0);
        assert_eq!(t.max_queue_depth_seen(), 2);
        assert_eq!(t.service_wait_ns().count(), 2);
        assert_eq!(agg.batches_drained(), 1);
        let snap = t.snapshot();
        assert_eq!(snap.counter_value("proposals_enqueued"), Some(2));
        assert_eq!(snap.counter_value("batches_drained"), Some(1));
        assert_eq!(snap.histogram_value("service_wait_ns").unwrap().count, 2);
        mc_telemetry::json::validate(&snap.to_json()).unwrap();
    }

    #[test]
    fn supervision_hooks_count_emit_and_snapshot() {
        let agg = Arc::new(AggregatingRecorder::new());
        let t = RuntimeTelemetry::new(2, Arc::clone(&agg) as Arc<dyn Recorder>);
        // Requeue puts depth back without touching proposals_enqueued.
        t.on_proposal_enqueued();
        t.on_proposals_dequeued(1);
        t.on_proposals_requeued(1);
        assert_eq!(t.proposals_enqueued(), 1);
        assert_eq!(t.queue_depth(), 1);
        assert_eq!(t.resubmitted_cells(), 1);
        t.on_worker_restart(0, 1, 1, 5_000);
        t.on_circuit_transition(CircuitState::Open);
        t.on_circuit_transition(CircuitState::HalfOpen);
        t.on_circuit_transition(CircuitState::Closed);
        assert_eq!(t.worker_restarts(), 1);
        assert_eq!(t.worker_recovery_ns().count(), 1);
        assert!(t.worker_recovery_p99_ns() >= 5_000);
        assert_eq!(t.circuit_state(), 0);
        assert_eq!(agg.worker_restarts(), 1);
        assert_eq!(agg.resubmitted_cells(), 1);
        assert_eq!(agg.circuit_transitions(), 3);
        let snap = t.snapshot();
        assert_eq!(snap.counter_value("worker_restarts"), Some(1));
        assert_eq!(snap.counter_value("resubmitted_cells"), Some(1));
        assert_eq!(snap.histogram_value("worker_recovery_ns").unwrap().count, 1);
        mc_telemetry::json::validate(&snap.to_json()).unwrap();
    }

    #[test]
    fn restart_events_flow_even_in_amortized_mode() {
        let agg = Arc::new(AggregatingRecorder::new());
        let t = RuntimeTelemetry::new(2, Arc::clone(&agg) as Arc<dyn Recorder>);
        t.amortize_decide_events();
        t.on_worker_restart(1, 1, 4, 800);
        t.on_circuit_transition(CircuitState::Open);
        // Like batch_drained, supervision events are batch-level: they are
        // exactly what the amortized mode exists to keep.
        assert_eq!(agg.worker_restarts(), 1);
        assert_eq!(agg.circuit_transitions(), 1);
        t.restore_decide_events();
    }

    #[test]
    fn decide_latency_percentiles_are_exposed() {
        let t = RuntimeTelemetry::noop(2);
        for latency in [100, 200, 400, 800, 100_000] {
            t.on_decided(1, 1, false, latency);
        }
        let p50 = t.decide_latency_p50_ns();
        let p99 = t.decide_latency_p99_ns();
        assert!(p50 >= 200, "p50 {p50}");
        assert!(p99 >= 100_000, "p99 {p99}");
        assert!(p50 <= p99);
    }

    #[test]
    fn delta_window_estimates_and_guards_thin_samples() {
        let t = RuntimeTelemetry::noop(2);
        // Empty window: never an estimate, regardless of min_samples.
        assert_eq!(t.delta_hat_over(32, 0), None);
        assert_eq!(t.delta_samples(), 0);
        // Four decides taking 2 stages each: δ̂ = 4 / 8 = 0.5.
        for _ in 0..4 {
            t.on_conciliator_stages(2);
        }
        assert_eq!(t.delta_samples(), 4);
        assert_eq!(t.delta_hat_over(32, 8), None, "below min_samples");
        let d = t.delta_hat_over(32, 4).unwrap();
        assert!((d - 0.5).abs() < 1e-9, "δ̂ {d}");
        // A narrower window only sees the most recent samples.
        t.on_conciliator_stages(10);
        let recent = t.delta_hat_over(1, 1).unwrap();
        assert!((recent - 0.1).abs() < 1e-9, "δ̂ {recent}");
        // All-fast-path windows read as perfect agreement.
        let t2 = RuntimeTelemetry::noop(2);
        t2.on_conciliator_stages(0);
        assert_eq!(t2.delta_hat_over(8, 1), Some(1.0));
    }

    #[test]
    fn delta_window_is_bounded() {
        let t = RuntimeTelemetry::noop(2);
        for _ in 0..(super::DELTA_WINDOW_CAP + 10) {
            t.on_conciliator_stages(1);
        }
        assert_eq!(t.delta_samples(), super::DELTA_WINDOW_CAP as u64);
    }

    #[test]
    fn conciliator_selection_counts_emits_and_gauges() {
        let agg = Arc::new(AggregatingRecorder::new());
        let t = RuntimeTelemetry::new(2, Arc::clone(&agg) as Arc<dyn Recorder>);
        assert_eq!(t.observed_delta_hat(), None);
        t.on_conciliator_selected(1, ConciliatorKind::Impatient, None, 0);
        t.on_conciliator_selected(2, ConciliatorKind::Coin, Some(0.125), 16);
        assert_eq!(t.conciliator_selections(), 2);
        assert_eq!(t.coin_selections(), 1);
        let d = t.observed_delta_hat().unwrap();
        assert!((d - 0.125).abs() < 1e-6, "δ̂ {d}");
        assert_eq!(agg.conciliator_selections(), 2);
        assert_eq!(agg.coin_selections(), 1);
        let snap = t.snapshot();
        assert_eq!(snap.counter_value("conciliator_selections"), Some(2));
        assert_eq!(snap.counter_value("coin_selections"), Some(1));
        mc_telemetry::json::validate(&snap.to_json()).unwrap();
    }

    #[test]
    fn coin_rounds_histogram_records() {
        let t = RuntimeTelemetry::noop(2);
        t.on_coin_rounds(9);
        t.on_coin_rounds(12);
        assert_eq!(t.coin_rounds().count(), 2);
        assert!(t.coin_rounds().max() >= 12);
    }

    #[test]
    fn snapshot_covers_the_metric_set() {
        let t = RuntimeTelemetry::noop(2);
        t.on_decide_start();
        t.on_decided(1, 1, true, 100);
        let snap = t.snapshot();
        assert_eq!(snap.counter_value("decide_calls"), Some(1));
        assert_eq!(snap.counter_value("fast_path_hits"), Some(1));
        assert_eq!(snap.histogram_value("rounds_to_decide").unwrap().count, 1);
        mc_telemetry::json::validate(&snap.to_json()).unwrap();
    }
}
