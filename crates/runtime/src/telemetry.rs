//! Telemetry for the thread runtime: one shared handle per consensus
//! object (or per engine, covering all its instances).
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
//! whose callers decide on the engine directly, takes the same mode;
//! both hold it as an [`AmortizedEvents`] guard. Counters and histograms
//! keep their per-operation fidelity either way, with one exception: a
//! decide reads the clock only when it is timed — always while per-decide
//! events flow, and one decide in [`DECIDE_SAMPLE_PERIOD`] per thread while
//! they are amortized — so `decide_latency_ns` then holds a sample, and
//! its count says how many decides were sampled.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use mc_telemetry::{
    metric_keys, thread_shard, ConciliatorKind, Counter, FaultClass, Gauge, Histogram,
    NoopRecorder, Recorder, ShardedCounter, Snapshot, StageKind, TelemetryEvent,
};

/// Hard cap on the δ̂ sliding window: samples older than this many decides
/// are discarded regardless of the window a caller asks for.
const DELTA_WINDOW_CAP: usize = 256;

/// Fixed-point scale for the `observed_delta_hat_ppm` gauge (δ̂ in
/// millionths).
const DELTA_HAT_SCALE: f64 = 1_000_000.0;

/// While per-decide events are amortized, one decide in this many per
/// thread is timed into [`HistKey::DecideLatencyNs`]: two clock reads cost
/// more than a solo fast-path decide's register operations.
const DECIDE_SAMPLE_PERIOD: u32 = 64;

thread_local! {
    /// Untimed decides this thread runs before it times the next one.
    /// Thread-local, so no other thread reads it and no ordering applies;
    /// shared by every telemetry the thread decides on, which only shifts
    /// which of an engine's decides a thread samples, not how many.
    static DECIDES_UNTIL_SAMPLE: Cell<u32> = const { Cell::new(0) };
}

metric_keys! {
    /// The counters of a [`RuntimeTelemetry`]; read one with
    /// [`RuntimeTelemetry::count`], bump one with [`RuntimeTelemetry::add`].
    pub enum CounterKey {
        /// `decide` calls started.
        DecideCalls => "decide_calls",
        /// `decide` calls completed.
        Decisions => "decisions",
        /// Decisions that never left the leading ratifier pair.
        FastPathHits => "fast_path_hits",
        /// Total stage entries across all threads.
        StageEntries => "stage_entries",
        /// Probabilistic writes attempted (coin flips).
        ProbWritesAttempted => "prob_writes_attempted",
        /// Probabilistic writes whose coin landed.
        ProbWritesPerformed => "prob_writes_performed",
        /// Consensus instances served from the recycle pool.
        PoolHits => "pool_hits",
        /// Consensus instances constructed because the pool was empty.
        PoolMisses => "pool_misses",
        /// Decided instances reset and returned to the recycle pool.
        InstancesRetired => "instances_retired",
        /// Memory faults delivered by an attached `FaultyMemory`, all classes.
        FaultsInjected => "faults_injected",
        /// Probabilistic writes whose coin fired but whose store was dropped.
        FaultsLostProbWrites => "faults_lost_prob_writes",
        /// Reads served a stale (previous) value.
        FaultsStaleReads => "faults_stale_reads",
        /// Writes whose visibility was delayed.
        FaultsDelayedCommits => "faults_delayed_commits",
        /// Registers wiped back to ⊥.
        FaultsRegisterResets => "faults_register_resets",
        /// Bounded-consensus calls that exhausted every conciliator stage and
        /// fell back to the backup protocol `K`.
        FallbacksTaken => "fallbacks_taken",
        /// Adaptive conciliator selections resolved (any outcome).
        ConciliatorSelections => "conciliator_selections",
        /// Adaptive selections that chose the coin conciliator.
        CoinSelections => "coin_selections",
        /// Proposals accepted into a service intake ring.
        ProposalsEnqueued => "proposals_enqueued",
        /// Proposals refused at admission because their intake ring was
        /// closed (shutdown, or a poisoned worker).
        ProposalsRejected => "proposals_rejected",
        /// Batches drained by service shard workers.
        BatchesDrained => "batches_drained",
        /// Worker panics a supervisor recovered from (drain loop restarted).
        WorkerRestarts => "worker_restarts",
        /// Queued-but-unsubmitted cells re-admitted after worker panics.
        ResubmittedCells => "resubmitted_cells",
        /// Commands applied to the store's state machine (duplicates
        /// excluded).
        CommandsApplied => "commands_applied",
        /// Distinct client sessions the store's session table has admitted.
        SessionsCreated => "sessions_created",
        /// Duplicate commands (same client, same sequence number) answered
        /// from the session table's cached response instead of re-applying.
        DuplicatesServed => "duplicates_served",
        /// Commands refused because their sequence number predates the
        /// session's cached response.
        StaleCommands => "stale_commands",
        /// Reads served from the applied state (no log slot consumed).
        FastReads => "fast_reads",
        /// State-machine snapshots captured (each rides a `compact_below`).
        StoreSnapshots => "store_snapshots",
    }
}

impl CounterKey {
    /// The consensus hot path bumps three counters from every thread at
    /// once; those live in cache-line-padded per-thread shards
    /// (`RuntimeTelemetry::sharded`) instead of the shared `counters` line.
    const SHARDED: usize = 3;

    /// This key's cell in `RuntimeTelemetry::sharded`, below
    /// [`SHARDED`](Self::SHARDED) and unique to it, if it is a sharded key.
    const fn shard_slot(self) -> Option<usize> {
        match self {
            CounterKey::StageEntries => Some(0),
            CounterKey::ProbWritesAttempted => Some(1),
            CounterKey::ProbWritesPerformed => Some(2),
            _ => None,
        }
    }
}

metric_keys! {
    /// The gauges of a [`RuntimeTelemetry`]; read the current value with
    /// [`RuntimeTelemetry::gauge`] and the running maximum with
    /// [`RuntimeTelemetry::gauge_max`].
    pub enum GaugeKey {
        /// Length of the store's contiguous applied prefix (entries applied
        /// to the state machine).
        AppliedIndex => "applied_index",
        /// Largest probability-doubling round index any call reached. Only
        /// its maximum moves; the current value stays 0.
        MaxConciliatorRound => "max_conciliator_round",
        /// Latest δ̂ published by an adaptive selection, in millionths; see
        /// [`RuntimeTelemetry::observed_delta_hat`].
        ObservedDeltaHatPpm => "observed_delta_hat_ppm",
        /// Instances currently live; derived on read, see
        /// [`RuntimeTelemetry::live_instances`].
        LiveInstances => "live_instances",
        /// Proposals currently enqueued across *all* intake rings
        /// (aggregate, not any single ring's depth).
        QueueDepth => "queue_depth",
    }
}

metric_keys! {
    /// The histograms of a [`RuntimeTelemetry`]; borrow one with
    /// [`RuntimeTelemetry::hist`].
    pub enum HistKey {
        /// Stage index at which calls decided.
        RoundsToDecide => "rounds_to_decide",
        /// Wall-clock `decide` latency, nanoseconds.
        DecideLatencyNs => "decide_latency_ns",
        /// Probability-doubling rounds per conciliator call.
        ConciliatorRounds => "conciliator_rounds",
        /// Voting rounds per shared-coin flip (0 for the local coin, which
        /// touches no shared registers).
        CoinRounds => "coin_rounds",
        /// Submit→decision wall-clock waits through the service,
        /// nanoseconds.
        ServiceWaitNs => "service_wait_ns",
        /// Panic-catch → drain-loop-reentry recovery latency, nanoseconds.
        WorkerRecoveryNs => "worker_recovery_ns",
    }
}

/// Aggregated metrics plus an event sink for runtime consensus objects.
///
/// Obtain one from [`Consensus::telemetry`](crate::Consensus::telemetry) or
/// [`ConsensusEngine::telemetry`](crate::ConsensusEngine::telemetry); attach
/// a real recorder with `.recorder(...)` on any builder.
///
/// The metric set is the three key enums: cells are inline arrays indexed
/// by `key as usize`, and [`snapshot`](Self::snapshot) walks the same
/// tables, so a metric is declared once.
pub struct RuntimeTelemetry {
    recorder: Arc<dyn Recorder>,
    events_on: bool,
    /// Services currently amortizing this telemetry's recorder traffic;
    /// per-decide events flow only while this is zero.
    decide_event_amortizers: AtomicU64,
    counters: [Counter; CounterKey::COUNT],
    /// The cells of the keys with a [`CounterKey::shard_slot`].
    sharded: [ShardedCounter; CounterKey::SHARDED],
    gauges: [Gauge; GaugeKey::COUNT],
    hists: [Histogram; HistKey::COUNT],
    /// Conciliator stages entered per completed decide of an adaptive
    /// instance, newest at the back. Feeds the sliding-window δ̂ estimate
    /// adaptive selection reads; a fixed-choice decide never locks it.
    delta_window: Mutex<VecDeque<u64>>,
}

/// Keeps a [`RuntimeTelemetry`] in amortized recorder mode while alive;
/// see [`RuntimeTelemetry::amortized`].
#[derive(Debug)]
pub struct AmortizedEvents(Arc<RuntimeTelemetry>);

impl Drop for AmortizedEvents {
    fn drop(&mut self) {
        self.0
            .decide_event_amortizers
            .fetch_sub(1, Ordering::Relaxed);
    }
}

/// Every metric that has moved, by exported name: the ledger a stalled
/// store or service prints when a bounded wait gives up.
impl std::fmt::Debug for RuntimeTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = f.debug_struct("RuntimeTelemetry");
        out.field("events_on", &self.events_on);
        for &key in CounterKey::ALL {
            let n = self.count(key);
            if n > 0 {
                out.field(key.name(), &n);
            }
        }
        for &key in GaugeKey::ALL {
            // A gauge's maximum is never below its value.
            let (now, max) = (self.gauge(key), self.gauge_max(key));
            if max > 0 {
                out.field(key.name(), &format_args!("{now} (max {max})"));
            }
        }
        for &key in HistKey::ALL {
            let hist = self.hist(key);
            if hist.count() > 0 {
                let summary = format_args!("{} samples, max {}", hist.count(), hist.max());
                out.field(key.name(), &summary);
            }
        }
        out.finish_non_exhaustive()
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
            counters: std::array::from_fn(|_| Counter::new()),
            sharded: std::array::from_fn(|_| ShardedCounter::new(n)),
            gauges: std::array::from_fn(|_| Gauge::new()),
            hists: std::array::from_fn(|_| Histogram::new()),
            delta_window: Mutex::new(VecDeque::new()),
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

    /// Switches to amortized recorder traffic until the returned guard
    /// drops: per-decide events are suppressed; batch-level events and
    /// every counter/histogram stay live. Taken by `ConsensusService` when
    /// it takes over an engine, and by a driver outside this crate that
    /// decides on its own threads (the store's callers) — paying a
    /// recorder serialization per operation on that hot path would forfeit
    /// exactly the per-call overhead batching exists to amortize.
    /// Reference-counted: per-decide events resume once every guard is
    /// gone.
    pub fn amortized(self: &Arc<Self>) -> AmortizedEvents {
        self.decide_event_amortizers.fetch_add(1, Ordering::Relaxed);
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

    // --- the table: one bump and one read per metric kind ---

    /// Adds `n` to a counter. A relaxed atomic add at a constant offset;
    /// the sharded keys land in the calling thread's own cache line.
    #[inline]
    pub fn add(&self, key: CounterKey, n: u64) {
        match key.shard_slot() {
            Some(slot) => self.sharded[slot].add_local(n),
            None => self.counters[key as usize].add(n),
        }
    }

    /// Records one observation in a histogram.
    #[inline]
    pub(crate) fn record(&self, key: HistKey, v: u64) {
        self.hists[key as usize].record(v);
    }

    /// Lowers a gauge by `n`, saturating at zero. The one gauge move that
    /// happens on its own: proposals leaving the intake rings — drained
    /// into a worker's batch, or cleared (and poisoned) by shutdown or a
    /// dying worker — take [`GaugeKey::QueueDepth`] down.
    #[inline]
    pub(crate) fn lower(&self, key: GaugeKey, n: u64) {
        self.gauges[key as usize].sub(n);
    }

    /// The current value of a counter (summed over shards for the sharded
    /// keys).
    pub fn count(&self, key: CounterKey) -> u64 {
        match key.shard_slot() {
            Some(slot) => self.sharded[slot].total(),
            None => self.counters[key as usize].get(),
        }
    }

    /// The current value of a gauge.
    pub fn gauge(&self, key: GaugeKey) -> u64 {
        match key {
            GaugeKey::LiveInstances => self.live_instances(),
            _ => self.gauges[key as usize].get(),
        }
    }

    /// The largest value a gauge ever held (for the derived
    /// [`GaugeKey::LiveInstances`], its current value).
    pub fn gauge_max(&self, key: GaugeKey) -> u64 {
        match key {
            GaugeKey::LiveInstances => self.live_instances(),
            _ => self.gauges[key as usize].max(),
        }
    }

    /// A histogram, for its count, max, quantiles or snapshot.
    pub fn hist(&self, key: HistKey) -> &Histogram {
        &self.hists[key as usize]
    }

    // --- emission hooks (crate-internal): every update that emits an
    // event or moves more than one metric ---

    #[inline]
    pub(crate) fn on_stage_entered(&self, stage: u64, kind: StageKind) {
        self.add(CounterKey::StageEntries, 1);
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

    /// When a decide starts: `Some(now)` if this decide is timed — every
    /// decide while [`decide_events_on`](Self::decide_events_on), else one
    /// in [`DECIDE_SAMPLE_PERIOD`] per thread — and `None` otherwise.
    #[inline]
    pub(crate) fn decide_clock(&self) -> Option<Instant> {
        if self.decide_events_on() {
            return Some(Instant::now());
        }
        DECIDES_UNTIL_SAMPLE.with(|left| match left.get() {
            0 => {
                left.set(DECIDE_SAMPLE_PERIOD - 1);
                Some(Instant::now())
            }
            n => {
                left.set(n - 1);
                None
            }
        })
    }

    /// A decide finished at `stage`. Every counter counts it; the latency
    /// histogram only if it was timed (`latency_ns` from a
    /// [`decide_clock`](Self::decide_clock) reading), and a `Decided` event
    /// carries 0 for a decide that started untimed.
    #[inline]
    pub(crate) fn on_decided(
        &self,
        value: u64,
        stage: u64,
        fast_path: bool,
        latency_ns: Option<u64>,
    ) {
        self.add(CounterKey::Decisions, 1);
        self.record(HistKey::RoundsToDecide, stage);
        if let Some(ns) = latency_ns {
            self.record(HistKey::DecideLatencyNs, ns);
        }
        if fast_path {
            self.add(CounterKey::FastPathHits, 1);
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
                latency_ns: latency_ns.unwrap_or(0),
            });
        }
    }

    #[inline]
    pub(crate) fn on_conciliator_round(&self, round: u64, probability: f64) {
        self.gauges[GaugeKey::MaxConciliatorRound as usize].record_max(round);
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
        self.add(CounterKey::ProbWritesAttempted, 1);
        if performed {
            self.add(CounterKey::ProbWritesPerformed, 1);
        }
        if self.decide_events_on() {
            self.recorder.record(&TelemetryEvent::ProbWrite {
                pid: Self::pid(),
                performed,
                probability,
            });
        }
    }

    /// An adaptive instance's decide completed after entering `stages`
    /// conciliator stages; feeds the sliding window behind
    /// [`delta_hat_over`](Self::delta_hat_over).
    pub(crate) fn on_conciliator_stages(&self, stages: u64) {
        let mut window = self
            .delta_window
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
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
        self.add(CounterKey::ConciliatorSelections, 1);
        if choice == ConciliatorKind::Coin {
            self.add(CounterKey::CoinSelections, 1);
        }
        if let Some(d) = delta_hat {
            self.gauges[GaugeKey::ObservedDeltaHatPpm as usize]
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
        self.add(CounterKey::FaultsInjected, 1);
        let by_class = match class {
            FaultClass::LostProbWrite => CounterKey::FaultsLostProbWrites,
            FaultClass::StaleRead => CounterKey::FaultsStaleReads,
            FaultClass::DelayedVisibility => CounterKey::FaultsDelayedCommits,
            FaultClass::RegisterReset => CounterKey::FaultsRegisterResets,
        };
        self.add(by_class, 1);
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
        self.add(CounterKey::FallbacksTaken, 1);
        if self.decide_events_on() {
            self.recorder.record(&TelemetryEvent::FallbackTaken {
                pid: Self::pid(),
                conciliator_stages,
            });
        }
    }

    // --- service hooks ---
    //
    // The batching service calls these from producers (enqueue) and workers
    // (batch drained, requeue, restart); its single-metric updates go
    // through `add`/`record`/`lower`. Everything is a relaxed-atomic bump
    // except `on_batch_drained`, which is the *one* structured event per
    // batch — that is the telemetry amortization: per-proposal costs stay
    // O(1) stores, recorder traffic is O(batches).

    /// A proposal was accepted into an intake ring. The queue-depth gauge
    /// is an aggregate over all rings, maintained by add/sub so producers
    /// and workers on different rings compose instead of overwriting each
    /// other.
    #[inline]
    pub(crate) fn on_proposal_enqueued(&self) {
        self.add(CounterKey::ProposalsEnqueued, 1);
        self.gauges[GaugeKey::QueueDepth as usize].add(1);
    }

    /// A shard worker drained one batch of `batch` proposals; `queue_depth`
    /// is the depth it left behind in its ring (carried on the event — the
    /// gauge itself was already lowered at drain time).
    #[inline]
    pub(crate) fn on_batch_drained(&self, shard: u64, batch: u64, queue_depth: u64) {
        self.add(CounterKey::BatchesDrained, 1);
        if self.events_on {
            self.recorder.record(&TelemetryEvent::BatchDrained {
                shard,
                batch,
                queue_depth,
            });
        }
    }

    /// `count` re-admitted proposals went back into an intake ring after a
    /// worker panic. The queue-depth gauge climbs back by `count` (the
    /// drain that preceded the panic already subtracted them);
    /// `proposals_enqueued` is *not* re-incremented — a re-admission is the
    /// same submission, so the enqueued ≡ decided + poisoned ledger holds.
    #[inline]
    pub(crate) fn on_proposals_requeued(&self, count: u64) {
        self.add(CounterKey::ResubmittedCells, count);
        self.gauges[GaugeKey::QueueDepth as usize].add(count);
    }

    /// A supervised worker recovered from a panic and restarted its drain
    /// loop. Like `on_batch_drained`, this is a batch-level event: it flows
    /// to the recorder whenever events are on, amortized mode included.
    #[inline]
    pub(crate) fn on_worker_restart(&self, ring: u64, attempt: u64, resubmitted: u64, ns: u64) {
        self.add(CounterKey::WorkerRestarts, 1);
        self.record(HistKey::WorkerRecoveryNs, ns);
        if self.events_on {
            self.recorder.record(&TelemetryEvent::WorkerRestarted {
                ring,
                attempt,
                resubmitted,
                recovery_ns: ns,
            });
        }
    }

    // --- store-layer hooks (public: `mc-store` is a separate crate) ---

    /// The store applied `count` commands, leaving the
    /// contiguous applied prefix at `applied_index` entries.
    #[inline]
    pub fn on_commands_applied(&self, count: u64, applied_index: u64) {
        self.add(CounterKey::CommandsApplied, count);
        self.gauges[GaugeKey::AppliedIndex as usize].set(applied_index);
    }

    // --- derived readers ---

    /// Fraction of decisions that used only the fast path (0 when none).
    pub fn fast_path_rate(&self) -> f64 {
        rate(
            self.count(CounterKey::FastPathHits),
            self.count(CounterKey::Decisions),
        )
    }

    /// Latest δ̂ published by an adaptive selection, or `None` before any
    /// selection had enough samples to estimate one.
    pub fn observed_delta_hat(&self) -> Option<f64> {
        match self.gauge(GaugeKey::ObservedDeltaHatPpm) {
            0 => None,
            ppm => Some(ppm as f64 / DELTA_HAT_SCALE),
        }
    }

    /// Number of per-decide samples currently in the δ̂ sliding window.
    pub fn delta_samples(&self) -> u64 {
        self.delta_window
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
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
        let guard = self
            .delta_window
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
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

    /// Instance activations: every one is a pool hit or a pool miss.
    pub(crate) fn activations(&self) -> u64 {
        self.count(CounterKey::PoolHits) + self.count(CounterKey::PoolMisses)
    }

    /// Fraction of instance activations served from the pool (0 when no
    /// instance was ever activated).
    pub fn pool_hit_rate(&self) -> f64 {
        rate(self.count(CounterKey::PoolHits), self.activations())
    }

    /// Instances currently live (activated but not yet retired): hits +
    /// misses − retired.
    pub fn live_instances(&self) -> u64 {
        self.activations()
            .saturating_sub(self.count(CounterKey::InstancesRetired))
    }

    /// A frozen copy of every metric, ready for text/JSON/Prometheus
    /// export.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        for &key in CounterKey::ALL {
            snap.counter(key.name(), self.count(key));
        }
        for &key in GaugeKey::ALL {
            snap.gauge(key.name(), self.gauge(key), self.gauge_max(key));
        }
        for &key in HistKey::ALL {
            snap.histogram(key.name(), self.hist(key).snapshot());
        }
        snap
    }
}

/// `part / whole`, or 0 when nothing has been counted yet.
fn rate(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_telemetry::{AggregatingRecorder, Tally};

    #[test]
    fn noop_telemetry_still_counts() {
        let t = RuntimeTelemetry::noop(4);
        assert!(!t.events_on());
        t.add(CounterKey::DecideCalls, 1);
        t.on_stage_entered(0, StageKind::Ratifier);
        t.on_prob_write(true, 0.5);
        t.on_decided(1, 2, false, Some(500));
        assert_eq!(t.count(CounterKey::DecideCalls), 1);
        assert_eq!(t.count(CounterKey::Decisions), 1);
        assert_eq!(t.count(CounterKey::StageEntries), 1);
        assert_eq!(t.count(CounterKey::ProbWritesAttempted), 1);
        assert_eq!(t.count(CounterKey::ProbWritesPerformed), 1);
        assert_eq!(t.count(CounterKey::FastPathHits), 0);
        assert_eq!(t.hist(HistKey::RoundsToDecide).max(), 2);
    }

    #[test]
    fn events_flow_to_recorder() {
        let agg = Arc::new(AggregatingRecorder::new());
        let t = RuntimeTelemetry::new(2, Arc::clone(&agg) as Arc<dyn Recorder>);
        assert!(t.events_on());
        t.on_stage_entered(0, StageKind::Conciliator);
        t.on_conciliator_round(3, 0.25);
        t.on_prob_write(false, 0.25);
        t.on_decided(0, 4, true, Some(1_000));
        assert_eq!(agg.count(Tally::StageEntries), 1);
        assert_eq!(agg.count(Tally::ConciliatorRounds), 1);
        assert_eq!(agg.count(Tally::MaxRound), 3);
        assert_eq!(agg.count(Tally::ProbWritesAttempted), 1);
        assert_eq!(agg.count(Tally::ProbWritesPerformed), 0);
        assert_eq!(agg.count(Tally::FastPathHits), 1);
        assert_eq!(agg.count(Tally::Decisions), 1);
    }

    #[test]
    fn amortized_mode_suppresses_decide_events_but_not_counters() {
        let agg = Arc::new(AggregatingRecorder::new());
        let t = Arc::new(RuntimeTelemetry::new(
            2,
            Arc::clone(&agg) as Arc<dyn Recorder>,
        ));
        assert!(t.decide_events_on());
        let guard = t.amortized();
        assert!(t.events_on(), "batch-level events stay live");
        assert!(!t.decide_events_on());
        t.add(CounterKey::DecideCalls, 1);
        t.on_stage_entered(0, StageKind::Ratifier);
        t.on_decided(1, 2, false, Some(500));
        // Recorder saw nothing per-decide; batch summaries still flow.
        assert_eq!(agg.count(Tally::StageEntries), 0);
        assert_eq!(agg.count(Tally::Decisions), 0);
        t.on_batch_drained(0, 7, 12);
        assert_eq!(agg.count(Tally::BatchesDrained), 1);
        assert_eq!(agg.count(Tally::BatchedProposals), 7);
        // Counters and histograms never switch off.
        assert_eq!(t.count(CounterKey::Decisions), 1);
        assert_eq!(t.count(CounterKey::StageEntries), 1);
        // Dropping the guard hands per-decide events back to the recorder.
        drop(guard);
        assert!(t.decide_events_on());
        t.on_decided(1, 2, false, Some(500));
        assert_eq!(agg.count(Tally::Decisions), 1);
    }

    #[test]
    fn amortization_is_refcounted() {
        let agg = Arc::new(AggregatingRecorder::new());
        let t = Arc::new(RuntimeTelemetry::new(2, agg as Arc<dyn Recorder>));
        let (first, second) = (t.amortized(), t.amortized());
        drop(first);
        assert!(
            !t.decide_events_on(),
            "one amortizer left: still suppressed"
        );
        drop(second);
        assert!(t.decide_events_on());
        let again = t.amortized();
        assert!(!t.decide_events_on());
        drop(again);
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
        assert_eq!(t.count(CounterKey::FaultsInjected), 3);
        assert_eq!(t.count(CounterKey::FaultsLostProbWrites), 1);
        assert_eq!(t.count(CounterKey::FaultsStaleReads), 2);
        assert_eq!(t.count(CounterKey::FaultsDelayedCommits), 0);
        assert_eq!(t.count(CounterKey::FaultsRegisterResets), 0);
        assert_eq!(t.count(CounterKey::FallbacksTaken), 1);
        assert_eq!(agg.count(Tally::FaultsInjected), 3);
        assert_eq!(agg.count(Tally::FallbacksTaken), 1);
        let snap = t.snapshot();
        assert_eq!(snap.counter_value("faults_injected"), Some(3));
        assert_eq!(snap.counter_value("faults_stale_reads"), Some(2));
        assert_eq!(snap.counter_value("fallbacks_taken"), Some(1));
    }

    #[test]
    fn pool_counters_track_hit_rate_and_live_instances() {
        let t = RuntimeTelemetry::noop(2);
        t.add(CounterKey::PoolMisses, 1);
        t.add(CounterKey::PoolHits, 1);
        t.add(CounterKey::PoolHits, 1);
        t.add(CounterKey::InstancesRetired, 1);
        assert_eq!(t.count(CounterKey::PoolHits), 2);
        assert_eq!(t.count(CounterKey::PoolMisses), 1);
        assert!((t.pool_hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(t.count(CounterKey::InstancesRetired), 1);
        assert_eq!(t.live_instances(), 2);
        assert_eq!(t.gauge(GaugeKey::LiveInstances), 2);
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
        t.add(CounterKey::ProposalsRejected, 1);
        t.lower(GaugeKey::QueueDepth, 2);
        t.on_batch_drained(0, 2, 0);
        t.record(HistKey::ServiceWaitNs, 5_000);
        t.record(HistKey::ServiceWaitNs, 9_000);
        assert_eq!(t.count(CounterKey::ProposalsEnqueued), 2);
        assert_eq!(t.count(CounterKey::ProposalsRejected), 1);
        assert_eq!(t.count(CounterKey::BatchesDrained), 1);
        assert_eq!(t.gauge(GaugeKey::QueueDepth), 0);
        assert_eq!(t.gauge_max(GaugeKey::QueueDepth), 2);
        assert_eq!(t.hist(HistKey::ServiceWaitNs).count(), 2);
        assert_eq!(agg.count(Tally::BatchesDrained), 1);
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
        t.lower(GaugeKey::QueueDepth, 1);
        t.on_proposals_requeued(1);
        assert_eq!(t.count(CounterKey::ProposalsEnqueued), 1);
        assert_eq!(t.gauge(GaugeKey::QueueDepth), 1);
        assert_eq!(t.count(CounterKey::ResubmittedCells), 1);
        t.on_worker_restart(0, 1, 1, 5_000);
        assert_eq!(t.count(CounterKey::WorkerRestarts), 1);
        assert_eq!(t.hist(HistKey::WorkerRecoveryNs).count(), 1);
        assert!(t.hist(HistKey::WorkerRecoveryNs).quantile_upper(0.99) >= 5_000);
        assert_eq!(agg.count(Tally::WorkerRestarts), 1);
        assert_eq!(agg.count(Tally::ResubmittedCells), 1);
        let snap = t.snapshot();
        assert_eq!(snap.counter_value("worker_restarts"), Some(1));
        assert_eq!(snap.counter_value("resubmitted_cells"), Some(1));
        assert_eq!(snap.histogram_value("worker_recovery_ns").unwrap().count, 1);
        mc_telemetry::json::validate(&snap.to_json()).unwrap();
    }

    #[test]
    fn restart_events_flow_even_in_amortized_mode() {
        let agg = Arc::new(AggregatingRecorder::new());
        let t = Arc::new(RuntimeTelemetry::new(
            2,
            Arc::clone(&agg) as Arc<dyn Recorder>,
        ));
        let _amortized = t.amortized();
        t.on_worker_restart(1, 1, 4, 800);
        // Like batch_drained, supervision events are batch-level: they are
        // exactly what the amortized mode exists to keep.
        assert_eq!(agg.count(Tally::WorkerRestarts), 1);
    }

    #[test]
    fn decide_latency_percentiles_are_exposed() {
        let t = RuntimeTelemetry::noop(2);
        for latency in [100, 200, 400, 800, 100_000] {
            t.on_decided(1, 1, false, Some(latency));
        }
        let p50 = t.hist(HistKey::DecideLatencyNs).quantile_upper(0.5);
        let p99 = t.hist(HistKey::DecideLatencyNs).quantile_upper(0.99);
        assert!(p50 >= 200, "p50 {p50}");
        assert!(p99 >= 100_000, "p99 {p99}");
        assert!(p50 <= p99);
    }

    /// The latency each `Decided` event carries.
    #[derive(Default)]
    struct DecidedLatencies(Mutex<Vec<u64>>);

    impl Recorder for DecidedLatencies {
        fn record(&self, event: &TelemetryEvent) {
            if let TelemetryEvent::Decided { latency_ns, .. } = event {
                self.0.lock().unwrap().push(*latency_ns);
            }
        }
    }

    #[test]
    fn every_decide_is_timed_for_events_and_one_in_64_when_amortized() {
        use rand::{rngs::SmallRng, SeedableRng};
        // A thread of its own: the sampling countdown is per thread.
        std::thread::spawn(|| {
            let recorder = Arc::new(DecidedLatencies::default());
            let engine = crate::ConsensusEngine::builder()
                .n(1)
                .values(2)
                .participants(1)
                .recorder(Arc::clone(&recorder) as Arc<dyn Recorder>)
                .build();
            let t = engine.telemetry_handle();
            let mut rng = SmallRng::seed_from_u64(0);
            for id in 0..640 {
                engine.submit(id, id % 2, &mut rng);
            }
            // Events on: every decide timed, every event its real latency.
            let latency = t.hist(HistKey::DecideLatencyNs);
            assert_eq!(latency.count(), t.count(CounterKey::Decisions));
            let events = recorder.0.lock().unwrap().clone();
            assert_eq!(events.len(), 640);
            assert!(events.iter().all(|&ns| ns > 0), "{events:?}");

            // Amortized: one decide in 64 timed, every counter still
            // counting every decide.
            let _amortized = t.amortized();
            for id in 640..640 + 6_400 {
                engine.submit(id, id % 2, &mut rng);
            }
            assert_eq!(latency.count(), 640 + 100);
            assert_eq!(t.count(CounterKey::Decisions), 640 + 6_400);
            assert_eq!(t.count(CounterKey::DecideCalls), 640 + 6_400);
            assert_eq!(t.count(CounterKey::FastPathHits), 640 + 6_400);
            assert_eq!(t.count(CounterKey::StageEntries), 640 + 6_400);
            assert_eq!(recorder.0.lock().unwrap().len(), 640, "events amortized");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn only_adaptive_decides_feed_the_delta_window() {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0);
        let fixed = crate::Consensus::builder().n(1).build();
        fixed.decide(1, &mut rng);
        assert_eq!(fixed.telemetry().count(CounterKey::Decisions), 1);
        assert_eq!(fixed.telemetry().delta_samples(), 0);
        let adaptive = crate::Consensus::builder()
            .n(1)
            .conciliator(crate::ConciliatorChoice::Adaptive(
                crate::AdaptiveOptions::default(),
            ))
            .build();
        adaptive.decide(1, &mut rng);
        assert_eq!(adaptive.telemetry().delta_samples(), 1);
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
        assert_eq!(t.count(CounterKey::ConciliatorSelections), 2);
        assert_eq!(t.count(CounterKey::CoinSelections), 1);
        let d = t.observed_delta_hat().unwrap();
        assert!((d - 0.125).abs() < 1e-6, "δ̂ {d}");
        assert_eq!(agg.count(Tally::ConciliatorSelections), 2);
        assert_eq!(agg.count(Tally::CoinSelections), 1);
        let snap = t.snapshot();
        assert_eq!(snap.counter_value("conciliator_selections"), Some(2));
        assert_eq!(snap.counter_value("coin_selections"), Some(1));
        mc_telemetry::json::validate(&snap.to_json()).unwrap();
    }

    #[test]
    fn coin_rounds_histogram_records() {
        let t = RuntimeTelemetry::noop(2);
        t.record(HistKey::CoinRounds, 9);
        t.record(HistKey::CoinRounds, 12);
        assert_eq!(t.hist(HistKey::CoinRounds).count(), 2);
        assert!(t.hist(HistKey::CoinRounds).max() >= 12);
    }

    #[test]
    fn sharded_keys_fill_the_sharded_array_exactly() {
        let slots: Vec<usize> = CounterKey::ALL
            .iter()
            .filter_map(|key| key.shard_slot())
            .collect();
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..CounterKey::SHARDED).collect::<Vec<_>>());
        // A bump of a sharded key is read back through the same slot.
        let t = RuntimeTelemetry::noop(2);
        for (i, &key) in CounterKey::ALL.iter().enumerate() {
            t.add(key, i as u64 + 1);
        }
        for (i, &key) in CounterKey::ALL.iter().enumerate() {
            assert_eq!(t.count(key), i as u64 + 1, "{}", key.name());
        }
    }

    /// The exported names and their order at the commit before the metric
    /// table existed, less `appends` and `slot_conflicts` (gone with
    /// `ReplicatedLog::append`), `lease_grants` (gone with the read
    /// lease), and `proposals_shed` and `circuit_state` (gone with the
    /// service's shedding and circuit breaker); the benchmark and any
    /// scraper read them by string.
    const COUNTERS: &str = "decide_calls decisions fast_path_hits stage_entries \
        prob_writes_attempted prob_writes_performed pool_hits pool_misses \
        instances_retired faults_injected faults_lost_prob_writes faults_stale_reads \
        faults_delayed_commits faults_register_resets fallbacks_taken conciliator_selections \
        coin_selections proposals_enqueued proposals_rejected batches_drained \
        worker_restarts resubmitted_cells commands_applied sessions_created duplicates_served \
        stale_commands fast_reads store_snapshots";
    const GAUGES: &str = "applied_index max_conciliator_round \
        observed_delta_hat_ppm live_instances queue_depth";
    const HISTOGRAMS: &str = "rounds_to_decide decide_latency_ns conciliator_rounds coin_rounds \
        service_wait_ns worker_recovery_ns";
    /// `to_json()` of the hook script below, captured at that same commit.
    const SCRIPT_JSON: &str = r#"{"counters":{"decide_calls":1,"decisions":1,"fast_path_hits":1,"stage_entries":1,"prob_writes_attempted":2,"prob_writes_performed":1,"pool_hits":2,"pool_misses":1,"instances_retired":1,"faults_injected":1,"faults_lost_prob_writes":0,"faults_stale_reads":1,"faults_delayed_commits":0,"faults_register_resets":0,"fallbacks_taken":1,"conciliator_selections":1,"coin_selections":1,"proposals_enqueued":2,"proposals_rejected":1,"batches_drained":1,"worker_restarts":1,"resubmitted_cells":1,"commands_applied":5,"sessions_created":1,"duplicates_served":1,"stale_commands":1,"fast_reads":1,"store_snapshots":1},"gauges":{"applied_index":{"value":5,"max":5},"max_conciliator_round":{"value":0,"max":3},"observed_delta_hat_ppm":{"value":125000,"max":125000},"live_instances":{"value":2,"max":2},"queue_depth":{"value":1,"max":2}},"histograms":{"rounds_to_decide":{"count":1,"sum":2,"max":2,"mean":2.0,"p50":2,"p99":2,"buckets":[[3,1]]},"decide_latency_ns":{"count":1,"sum":500,"max":500,"mean":500.0,"p50":500,"p99":500,"buckets":[[511,1]]},"conciliator_rounds":{"count":1,"sum":4,"max":4,"mean":4.0,"p50":4,"p99":4,"buckets":[[7,1]]},"coin_rounds":{"count":1,"sum":9,"max":9,"mean":9.0,"p50":9,"p99":9,"buckets":[[15,1]]},"service_wait_ns":{"count":1,"sum":5000,"max":5000,"mean":5000.0,"p50":5000,"p99":5000,"buckets":[[8191,1]]},"worker_recovery_ns":{"count":1,"sum":7000,"max":7000,"mean":7000.0,"p50":7000,"p99":7000,"buckets":[[8191,1]]}}}"#;

    #[test]
    fn snapshot_covers_the_metric_set() {
        let t = RuntimeTelemetry::noop(2);
        t.add(CounterKey::DecideCalls, 1);
        t.on_decided(1, 1, true, Some(100));
        let snap = t.snapshot();
        assert_eq!(snap.counter_value("decide_calls"), Some(1));
        assert_eq!(snap.counter_value("fast_path_hits"), Some(1));
        assert_eq!(snap.histogram_value("rounds_to_decide").unwrap().count, 1);
        mc_telemetry::json::validate(&snap.to_json()).unwrap();

        // The table is the metric set: names and order are the parent's.
        let names = [COUNTERS, GAUGES, HISTOGRAMS].map(|list| list.split(' ').collect::<Vec<_>>());
        let table = [
            CounterKey::ALL
                .iter()
                .map(|key| key.name())
                .collect::<Vec<_>>(),
            GaugeKey::ALL.iter().map(|key| key.name()).collect(),
            HistKey::ALL.iter().map(|key| key.name()).collect(),
        ];
        assert_eq!(table, names);
        assert_eq!(table.each_ref().map(Vec::len), [28, 5, 6]);

        // A fixed script over every hook and every kind of bump exports
        // what the hand-written metric set exported, byte for byte.
        let t = RuntimeTelemetry::noop(2);
        assert!(!t.events_on(), "the no-op recorder still counts");
        t.add(CounterKey::DecideCalls, 1);
        t.on_stage_entered(0, StageKind::Ratifier);
        t.on_conciliator_round(3, 0.25);
        t.on_prob_write(true, 0.5);
        t.on_prob_write(false, 0.5);
        t.record(HistKey::ConciliatorRounds, 4);
        t.record(HistKey::CoinRounds, 9);
        t.on_conciliator_selected(2, ConciliatorKind::Coin, Some(0.125), 16);
        t.on_fault_injected(FaultClass::StaleRead, 1, 11);
        t.on_fallback_taken(6);
        t.on_decided(1, 2, true, Some(500));
        t.add(CounterKey::PoolMisses, 1);
        t.add(CounterKey::PoolHits, 2);
        t.add(CounterKey::InstancesRetired, 1);
        t.on_proposal_enqueued();
        t.on_proposal_enqueued();
        t.add(CounterKey::ProposalsRejected, 1);
        t.lower(GaugeKey::QueueDepth, 2);
        t.on_proposals_requeued(1);
        t.on_batch_drained(0, 2, 0);
        t.record(HistKey::ServiceWaitNs, 5_000);
        t.on_worker_restart(0, 1, 1, 7_000);
        t.on_commands_applied(5, 5);
        t.add(CounterKey::SessionsCreated, 1);
        t.add(CounterKey::DuplicatesServed, 1);
        t.add(CounterKey::StaleCommands, 1);
        t.add(CounterKey::FastReads, 1);
        t.add(CounterKey::StoreSnapshots, 1);
        let snap = t.snapshot();
        assert_eq!(snap.to_json(), SCRIPT_JSON);
        // The derived readers: 2 hits in 3 activations, 1 fast decision in 1.
        assert!((t.pool_hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(t.fast_path_rate(), 1.0);
        mc_telemetry::json::validate(&snap.to_json()).unwrap();

        // Every key is exported exactly once, under a unique non-empty name.
        let prometheus = snap.to_prometheus();
        let mut seen = std::collections::HashSet::new();
        for (kind, names) in ["counter", "gauge", "histogram"].iter().zip(&names) {
            for name in names {
                assert!(!name.is_empty() && seen.insert(name), "{name:?} repeats");
                let line = format!("# TYPE {name} {kind}");
                assert_eq!(prometheus.lines().filter(|l| *l == line).count(), 1);
            }
        }

        // The Debug ledger names what moved and nothing else.
        let ledger = format!("{t:?}");
        assert!(ledger.contains("commands_applied: 5"), "{ledger}");
        assert!(ledger.contains("queue_depth: 1 (max 2)"), "{ledger}");
        assert!(ledger.contains("coin_rounds: 1 samples, max 9"), "{ledger}");
        assert!(!ledger.contains("faults_lost_prob_writes"), "{ledger}");
    }
}
