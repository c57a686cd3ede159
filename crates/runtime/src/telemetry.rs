//! Telemetry for the thread runtime: one shared handle per consensus
//! object (or per engine, covering all its instances).
//!
//! Counters and histograms are always on. Each thread that writes a
//! telemetry gets its own cell of them, and only that thread writes it, so
//! an update is a relaxed load and a relaxed store, with no locked
//! read-modify-write; a read sums the cells. A locked `fetch_add` costs
//! about 9 ns on one pinned core of the reference VM, most of a register
//! operation's ≈ 13 ns, which a shared counter paid on every update.
//! Gauges are read off one source each: `queue_depth` is a shared cell,
//! `applied_index` one word its serialized writer stores, and the others
//! are derived on read. Structured [`TelemetryEvent`] emission is
//! gated on the attached [`Recorder`]: with the default [`NoopRecorder`]
//! the `events_on` flag is `false` and no event is ever constructed.
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

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mc_core::Table;
use mc_telemetry::{
    metric_keys, thread_shard, Counter, FaultClass, Gauge, Histogram, NoopRecorder, Recorder,
    Snapshot, StageKind, TelemetryEvent,
};

/// While per-decide events are amortized, one decide in this many per
/// thread is timed into [`HistKey::DecideLatencyNs`]: two clock reads cost
/// more than a solo fast-path decide's register operations.
const DECIDE_SAMPLE_PERIOD: u32 = 64;

/// Telemetries whose cell a thread finds without the registry mutex.
const CACHED_CELLS: usize = 4;

/// Thread cells held inline in a telemetry; more threads box more chunks.
const CHUNK_CELLS: usize = 4;

/// The owner of a cell whose thread has exited: the next thread to
/// register adopts it.
const FREE: usize = usize::MAX;

/// The next telemetry's [`RuntimeTelemetry::id`]; 0 marks an empty cache
/// entry.
static NEXT_TELEMETRY_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(telemetry id, index of this thread's cell in it)` for the last
    /// [`CACHED_CELLS`] telemetries whose cell this thread took, the latest
    /// first. Thread-local, so no other thread reads it and no ordering
    /// applies. An entry only ever names a cell this thread owns, and ids
    /// are never reused, so an entry left by a dropped telemetry matches
    /// nothing.
    static CELL_CACHE: [Cell<(u64, usize)>; CACHED_CELLS] =
        const { [const { Cell::new((0, 0)) }; CACHED_CELLS] };

    /// The owner word of every cell this thread owns, freed at its exit.
    static OWNED_CELLS: OwnedCells = const { OwnedCells(RefCell::new(Vec::new())) };
}

/// A thread's hold on its cells. Dropped as the thread exits, it marks
/// each of them [`FREE`], so a later thread adopts the cell instead of
/// adding one: a telemetry holds at most as many cells as threads have
/// written it at once.
struct OwnedCells(RefCell<Vec<Arc<AtomicUsize>>>);

impl OwnedCells {
    /// Adds a cell's owner word, first dropping the words of cells whose
    /// telemetry is gone once the list is full, so it stays within twice
    /// the most cells this thread has held in live telemetries at once.
    fn hold(&self, owner: &Arc<AtomicUsize>) {
        let mut owned = self.0.borrow_mut();
        if owned.len() == owned.capacity() {
            // A word only this list still holds belongs to a dropped
            // telemetry, and no one can take it again.
            owned.retain(|word| Arc::strong_count(word) > 1);
        }
        owned.push(Arc::clone(owner));
    }
}

impl Drop for OwnedCells {
    fn drop(&mut self) {
        // A write later in this thread's exit must not reach a freed cell
        // through the cache: it takes a cell afresh.
        let _ = CELL_CACHE.try_with(|cache| cache.iter().for_each(|entry| entry.set((0, 0))));
        for owner in self.0.get_mut().drain(..) {
            // Release: pairs with the adopter's acquire, so every store
            // this thread made to the cell happens before the adopter's
            // loads of it, and the adopter counts on from the true tallies.
            owner.store(FREE, Ordering::Release);
        }
    }
}

metric_keys! {
    /// The counters of a [`RuntimeTelemetry`]; read one with
    /// [`RuntimeTelemetry::count`], bump one with [`RuntimeTelemetry::add`].
    pub enum CounterKey {
        /// `decide` calls started.
        DecideCalls => "decide_calls",
        /// `decide` calls completed: `rounds_to_decide`'s count, on read.
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
    }
}

metric_keys! {
    /// The gauges of a [`RuntimeTelemetry`]; read the current value with
    /// [`RuntimeTelemetry::gauge`] and the running maximum with
    /// [`RuntimeTelemetry::gauge_max`].
    pub enum GaugeKey {
        /// Length of the store's contiguous applied prefix (entries applied
        /// to the state machine). It only grows, so its maximum is its
        /// value.
        AppliedIndex => "applied_index",
        /// Largest probability-doubling round index any call reached:
        /// derived on read, as [`HistKey::ConciliatorRounds`]' exact
        /// maximum less one (a call of `k` rounds reached index `k − 1`),
        /// or 0 when no call ran a round. Only its maximum moves; the
        /// current value stays 0.
        MaxConciliatorRound => "max_conciliator_round",
        /// Instances currently live; derived on read, see
        /// [`RuntimeTelemetry::live_instances`].
        LiveInstances => "live_instances",
        /// Proposals currently enqueued across *all* intake rings
        /// (aggregate, not any single ring's depth).
        QueueDepth => "queue_depth",
    }
}

metric_keys! {
    /// The histograms of a [`RuntimeTelemetry`]; read one with
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

/// One thread's counters and histograms in one [`RuntimeTelemetry`], plus
/// its decide-sampling countdown. Padded to its own cache lines, so two
/// threads' cells never share one. A cell is freed with its telemetry,
/// not with its thread, so its counts outlive the thread; when the thread
/// exits, the next thread to write the telemetry adopts the cell and
/// counts on in it.
///
/// Memory ordering: a cell has one writer at a time, its owner, so every
/// update is a relaxed load and a relaxed store ([`Counter::add_owned`],
/// [`Histogram::record_owned`]): the owner's load returns its own last
/// store, and nothing lands between the two. A read from another thread
/// sums the cells' tallies with relaxed loads, each tally read on its own:
/// live, the sum is not a snapshot, but every tally only grows and a built
/// cell stays listed, so a later read never sums less; once the writers
/// are joined, or have handed off through a mutex the reader then takes,
/// every store happens before the read and the sum is exact. Registration
/// takes no lock: a new cell's index is a distinct `fetch_add` ticket, and
/// the cell is published through its `OnceLock` (see [`Table`]), so a
/// reader that sees it sees it built. Ownership passes from an exited
/// thread by its release store of [`FREE`] and the adopter's acquire
/// compare-exchange.
#[repr(align(128))]
struct ThreadCell {
    /// The [`thread_shard`] of the thread that writes this cell, or
    /// [`FREE`]. Shared with the owner's [`OWNED_CELLS`], which frees it
    /// at the thread's exit even if the telemetry is gone by then.
    owner: Arc<AtomicUsize>,
    counters: [Counter; CounterKey::COUNT],
    hists: [Histogram; HistKey::COUNT],
    /// Untimed decides this thread runs on this telemetry before it times
    /// the next one. Only the owner reads it.
    decides_until_sample: AtomicU32,
}

impl ThreadCell {
    fn new(owner: usize) -> ThreadCell {
        ThreadCell {
            owner: Arc::new(AtomicUsize::new(owner)),
            // Constant arrays, zeroed in place: built element by element
            // (`from_fn`), a thread's first write to a fresh telemetry
            // took three times as long.
            counters: [const { Counter::new() }; CounterKey::COUNT],
            hists: [const { Histogram::new() }; HistKey::COUNT],
            decides_until_sample: AtomicU32::new(0),
        }
    }
}

/// Aggregated metrics plus an event sink for runtime consensus objects.
///
/// Obtain one from [`Consensus::telemetry`](crate::Consensus::telemetry) or
/// [`ConsensusEngine::telemetry`](crate::ConsensusEngine::telemetry); attach
/// a real recorder with `.recorder(...)` on any builder.
///
/// The metric set is the three key enums: every thread's cell holds
/// arrays indexed by `key as usize`, [`gauge`](Self::gauge) reads each
/// gauge from its one source, and [`snapshot`](Self::snapshot) walks the
/// same tables, so a metric is declared once.
pub struct RuntimeTelemetry {
    recorder: Arc<dyn Recorder>,
    events_on: bool,
    /// Services currently amortizing this telemetry's recorder traffic;
    /// per-decide events flow only while this is zero.
    decide_event_amortizers: AtomicU64,
    /// Names this telemetry in the threads' [`CELL_CACHE`]s; never reused.
    id: u64,
    /// Cells claimed so far: the index the next new cell takes.
    claimed: AtomicUsize,
    /// Every thread's cell, at the index it claimed.
    cells: Table<Box<ThreadCell>, CHUNK_CELLS>,
    /// [`GaugeKey::QueueDepth`], the one gauge that moves both ways.
    queue_depth: Gauge,
    /// [`GaugeKey::AppliedIndex`], one word: see
    /// [`on_commands_applied`](Self::on_commands_applied).
    applied_index: AtomicU64,
}

/// The calling thread's cell in one [`RuntimeTelemetry`], found once and
/// then written through for a run of updates: a decide takes it once,
/// rather than once per hook.
pub(crate) struct LocalTelemetry<'a> {
    telemetry: &'a RuntimeTelemetry,
    cell: &'a ThreadCell,
}

/// Keeps a [`RuntimeTelemetry`] in amortized recorder mode while alive;
/// see [`RuntimeTelemetry::amortized`].
#[derive(Debug)]
pub struct AmortizedEvents(Arc<RuntimeTelemetry>);

impl Drop for AmortizedEvents {
    fn drop(&mut self) {
        // Relaxed: as in `amortized`, a read-modify-write on the count
        // lands whatever its ordering, and the count publishes no memory.
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
    /// Telemetry emitting events to `recorder`.
    pub fn new(recorder: Arc<dyn Recorder>) -> RuntimeTelemetry {
        let events_on = recorder.enabled();
        RuntimeTelemetry {
            recorder,
            events_on,
            decide_event_amortizers: AtomicU64::new(0),
            // Relaxed: the id only has to be distinct, which the
            // read-modify-write's total order on one atomic gives.
            id: NEXT_TELEMETRY_ID.fetch_add(1, Ordering::Relaxed),
            claimed: AtomicUsize::new(0),
            cells: Table::default(),
            queue_depth: Gauge::new(),
            applied_index: AtomicU64::new(0),
        }
    }

    /// Telemetry with the do-nothing recorder (counters still live).
    pub fn noop() -> RuntimeTelemetry {
        RuntimeTelemetry::new(Arc::new(NoopRecorder))
    }

    /// Whether per-decide events (`StageEntered`, `Decided`, …) reach the
    /// recorder. `false` either when no recorder is attached or while a
    /// batching service has this telemetry in amortized mode, where the
    /// recorder sees one `BatchDrained` summary per batch instead.
    /// Inlined: a decide asks up to four times, and an out-of-line call
    /// from the generic walk costs more than the two loads.
    #[inline]
    pub(crate) fn decide_events_on(&self) -> bool {
        // Relaxed: the count only chooses between a per-decide event and
        // none, and publishes no memory; the recorder orders its own
        // writes under its mutex. A decide that races a guard taken or
        // dropped emits or skips its events on either side of the change,
        // and each side is a valid stream. A guard taken before the
        // deciders start (the service's, before it spawns its workers;
        // the store's, before its callers get it) is ordered before them
        // by that hand-off.
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
        // Relaxed: read-modify-writes on one atomic are totally ordered
        // whatever their ordering, so no guard's increment or decrement
        // is lost, and the count publishes no memory (see
        // `decide_events_on` for its readers).
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

    // --- the cells: the calling thread's, and all of them ---

    /// The calling thread's cell, for a run of updates. A thread finds it
    /// in its cache, or else takes it on its first write, or finds it
    /// again after the cache dropped it (see [`register`](Self::register)).
    #[inline]
    pub(crate) fn local(&self) -> LocalTelemetry<'_> {
        let cached = CELL_CACHE.with(|cache| {
            cache.iter().find_map(|entry| {
                let (id, ix) = entry.get();
                (id == self.id).then_some(ix)
            })
        });
        let cell = match cached.and_then(|ix| self.cells.cell(ix).get()) {
            Some(cell) => cell,
            None => self.register(),
        };
        LocalTelemetry {
            telemetry: self,
            cell,
        }
    }

    /// The calling thread's cell after a cache miss, without a lock: the
    /// one it owns already, else one an exited thread freed, else a new
    /// one at a fresh index (allocated, with its owner word). Either way
    /// it goes to the front of the cache.
    #[cold]
    fn register(&self) -> &ThreadCell {
        let me = thread_shard();
        // Relaxed: a thread reads its own id, stored by itself, and any
        // other value is not its own.
        let owned = self
            .cells()
            .find(|(_, cell)| cell.owner.load(Ordering::Relaxed) == me);
        let (ix, cell) = owned.unwrap_or_else(|| {
            let (ix, cell) = self.adopt(me).unwrap_or_else(|| {
                // Relaxed: the ticket only has to be distinct, which the
                // read-modify-write's total order on one atomic gives; the
                // cell is published through its `OnceLock`.
                let ix = self.claimed.fetch_add(1, Ordering::Relaxed);
                let cell = self
                    .cells
                    .cell(ix)
                    .get_or_init(|| Box::new(ThreadCell::new(me)));
                (ix, &**cell)
            });
            // Past this thread's exit no hold is kept: the cell stays its
            // own, and is never adopted.
            let _ = OWNED_CELLS.try_with(|owned| owned.hold(&cell.owner));
            (ix, cell)
        });
        CELL_CACHE.with(|cache| {
            for slot in (1..CACHED_CELLS).rev() {
                cache[slot].set(cache[slot - 1].get());
            }
            cache[0].set((self.id, ix));
        });
        cell
    }

    /// A cell whose owner exited, now owned by `me`.
    fn adopt(&self, me: usize) -> Option<(usize, &ThreadCell)> {
        self.cells().find(|(_, cell)| {
            // Acquire: pairs with the exiting owner's release (see
            // `OwnedCells`), so its stores to the cell happen before this
            // thread's loads.
            cell.owner
                .compare_exchange(FREE, me, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        })
    }

    /// Every thread's cell, with its index.
    fn cells(&self) -> impl Iterator<Item = (usize, &ThreadCell)> {
        self.cells.built().map(|(ix, cell)| (ix, &**cell))
    }

    // --- the table: one bump and one read per metric kind ---

    /// Adds `n` to a counter: a plain load and store on the calling
    /// thread's own cell.
    #[inline]
    pub fn add(&self, key: CounterKey, n: u64) {
        self.local().add(key, n);
    }

    /// Records one observation in a histogram, in the calling thread's
    /// own cell.
    #[inline]
    pub(crate) fn record(&self, key: HistKey, v: u64) {
        self.local().record(key, v);
    }

    /// Lowers [`GaugeKey::QueueDepth`] by `n`, saturating at zero:
    /// proposals leaving the intake rings — drained into a worker's batch,
    /// or cleared (and poisoned) by shutdown or a dying worker.
    #[inline]
    pub(crate) fn lower_queue_depth(&self, n: u64) {
        self.queue_depth.sub(n);
    }

    /// The current value of a counter, summed over every thread's cell. A
    /// decide bumps no [`CounterKey::Decisions`]: that reads
    /// [`HistKey::RoundsToDecide`]'s count, plus what was added directly.
    pub fn count(&self, key: CounterKey) -> u64 {
        let added: u64 = self
            .cells()
            .map(|(_, c)| c.counters[key as usize].get())
            .sum();
        match key {
            CounterKey::Decisions => added + self.hist(HistKey::RoundsToDecide).count(),
            _ => added,
        }
    }

    /// The current value of a gauge.
    pub fn gauge(&self, key: GaugeKey) -> u64 {
        match key {
            GaugeKey::LiveInstances => self.live_instances(),
            GaugeKey::AppliedIndex => self.applied_index(),
            GaugeKey::MaxConciliatorRound => 0,
            GaugeKey::QueueDepth => self.queue_depth.get(),
        }
    }

    /// The largest value a gauge ever held (for
    /// [`GaugeKey::LiveInstances`] and [`GaugeKey::AppliedIndex`], their
    /// current value).
    pub(crate) fn gauge_max(&self, key: GaugeKey) -> u64 {
        match key {
            GaugeKey::LiveInstances => self.live_instances(),
            GaugeKey::AppliedIndex => self.applied_index(),
            GaugeKey::MaxConciliatorRound => self
                .hist(HistKey::ConciliatorRounds)
                .max()
                .saturating_sub(1),
            GaugeKey::QueueDepth => self.queue_depth.max(),
        }
    }

    fn applied_index(&self) -> u64 {
        // Relaxed: one word, read on its own (see `on_commands_applied`).
        self.applied_index.load(Ordering::Relaxed)
    }

    /// A histogram merged over every thread's cell, for its count, max,
    /// quantiles or snapshot. It is a copy: read it again to see later
    /// observations.
    pub fn hist(&self, key: HistKey) -> Histogram {
        let mut merged = Histogram::new();
        for (_, cell) in self.cells() {
            merged.merge(&cell.hists[key as usize]);
        }
        merged
    }

    // --- emission hooks (crate-internal): every update that emits an
    // event or moves more than one metric; a decide's own are on
    // `LocalTelemetry` ---

    #[inline]
    pub(crate) fn on_fault_injected(&self, class: FaultClass, register: u64, step: u64) {
        let local = self.local();
        local.add(CounterKey::FaultsInjected, 1);
        let by_class = match class {
            FaultClass::LostProbWrite => CounterKey::FaultsLostProbWrites,
            FaultClass::StaleRead => CounterKey::FaultsStaleReads,
            FaultClass::DelayedVisibility => CounterKey::FaultsDelayedCommits,
            FaultClass::RegisterReset => CounterKey::FaultsRegisterResets,
        };
        local.add(by_class, 1);
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
        self.queue_depth.add(1);
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
        self.queue_depth.add(count);
    }

    /// A supervised worker recovered from a panic and restarted its drain
    /// loop. Like `on_batch_drained`, this is a batch-level event: it flows
    /// to the recorder whenever events are on, amortized mode included.
    #[inline]
    pub(crate) fn on_worker_restart(&self, ring: u64, attempt: u64, resubmitted: u64, ns: u64) {
        let local = self.local();
        local.add(CounterKey::WorkerRestarts, 1);
        local.record(HistKey::WorkerRecoveryNs, ns);
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
        // Relaxed, and a store rather than a read-modify-write: the store
        // calls this only from its applier, and appliers are serialized —
        // each raises the `applying` flag and lowers it under the intake
        // mutex, and calls this in between. The mutex orders one
        // applier's store before the next applier's, so the stores reach
        // the word in applied order, and since the prefix only grows, the
        // last store is the largest: the value is the maximum. A reader
        // sees some prefix length the store really had; no other memory
        // hangs on the word.
        self.applied_index.store(applied_index, Ordering::Relaxed);
    }

    // --- derived readers ---

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

impl LocalTelemetry<'_> {
    /// Adds `n` to a counter in this thread's cell.
    #[inline]
    pub(crate) fn add(&self, key: CounterKey, n: u64) {
        self.cell.counters[key as usize].add_owned(n);
    }

    /// Records one observation in a histogram in this thread's cell.
    #[inline]
    pub(crate) fn record(&self, key: HistKey, v: u64) {
        self.cell.hists[key as usize].record_owned(v);
    }

    #[inline]
    pub(crate) fn on_stage_entered(&self, stage: u64, kind: StageKind) {
        self.add(CounterKey::StageEntries, 1);
        let t = self.telemetry;
        if t.decide_events_on() {
            t.recorder.record(&TelemetryEvent::StageEntered {
                pid: RuntimeTelemetry::pid(),
                stage,
                kind,
            });
        }
    }

    /// A conciliator stage is about to run probabilistic-write round
    /// `round` (0-based) with write probability `probability`.
    #[inline]
    pub(crate) fn on_conciliator_round(&self, round: u64, probability: f64) {
        let t = self.telemetry;
        if t.decide_events_on() {
            t.recorder.record(&TelemetryEvent::ConciliatorRound {
                pid: RuntimeTelemetry::pid(),
                round,
                probability,
            });
        }
    }

    /// A probabilistic write ran; `performed` is whether its coin landed.
    #[inline]
    pub(crate) fn on_prob_write(&self, performed: bool, probability: f64) {
        self.add(CounterKey::ProbWritesAttempted, 1);
        if performed {
            self.add(CounterKey::ProbWritesPerformed, 1);
        }
        let t = self.telemetry;
        if t.decide_events_on() {
            t.recorder.record(&TelemetryEvent::ProbWrite {
                pid: RuntimeTelemetry::pid(),
                performed,
                probability,
            });
        }
    }

    #[inline]
    pub(crate) fn on_ratifier_verdict(&self, stage: u64, decided: bool, value: u64) {
        let t = self.telemetry;
        if t.decide_events_on() {
            t.recorder.record(&TelemetryEvent::RatifierVerdict {
                pid: RuntimeTelemetry::pid(),
                stage,
                decided,
                value,
            });
        }
    }

    /// When a decide starts: `Some(now)` if this decide is timed — every
    /// decide while [`decide_events_on`](RuntimeTelemetry::decide_events_on),
    /// else one in [`DECIDE_SAMPLE_PERIOD`] of this thread's decides on
    /// this telemetry — and `None` otherwise.
    #[inline]
    pub(crate) fn decide_clock(&self) -> Option<Instant> {
        if self.telemetry.decide_events_on() {
            return Some(Instant::now());
        }
        // Relaxed, both: only this thread reads or writes its countdown.
        let left = &self.cell.decides_until_sample;
        match left.load(Ordering::Relaxed) {
            0 => {
                left.store(DECIDE_SAMPLE_PERIOD - 1, Ordering::Relaxed);
                Some(Instant::now())
            }
            n => {
                left.store(n - 1, Ordering::Relaxed);
                None
            }
        }
    }

    /// A decide finished at `stage`. Every counter counts it (the
    /// decisions through the rounds histogram); the latency histogram only
    /// if it was timed (`latency_ns` from a
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
        self.record(HistKey::RoundsToDecide, stage);
        if let Some(ns) = latency_ns {
            self.record(HistKey::DecideLatencyNs, ns);
        }
        if fast_path {
            self.add(CounterKey::FastPathHits, 1);
        }
        let t = self.telemetry;
        if t.decide_events_on() {
            let pid = RuntimeTelemetry::pid();
            if fast_path {
                t.recorder
                    .record(&TelemetryEvent::FastPathHit { pid, stage });
            }
            t.recorder.record(&TelemetryEvent::Decided {
                pid,
                value,
                stage,
                latency_ns: latency_ns.unwrap_or(0),
            });
        }
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
    use std::sync::{Barrier, Mutex};

    #[test]
    fn noop_telemetry_still_counts() {
        let t = RuntimeTelemetry::noop();
        assert!(!t.events_on);
        t.add(CounterKey::DecideCalls, 1);
        t.local().on_stage_entered(0, StageKind::Ratifier);
        t.local().on_prob_write(true, 0.5);
        t.local().on_decided(1, 2, false, Some(500));
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
        let t = RuntimeTelemetry::new(Arc::clone(&agg) as Arc<dyn Recorder>);
        assert!(t.events_on);
        t.local().on_stage_entered(0, StageKind::Conciliator);
        t.local().on_conciliator_round(3, 0.25);
        t.local().on_prob_write(false, 0.25);
        t.local().on_decided(0, 4, true, Some(1_000));
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
        let t = Arc::new(RuntimeTelemetry::new(Arc::clone(&agg) as Arc<dyn Recorder>));
        assert!(t.decide_events_on());
        let guard = t.amortized();
        assert!(t.events_on, "batch-level events stay live");
        assert!(!t.decide_events_on());
        t.add(CounterKey::DecideCalls, 1);
        t.local().on_stage_entered(0, StageKind::Ratifier);
        t.local().on_decided(1, 2, false, Some(500));
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
        t.local().on_decided(1, 2, false, Some(500));
        assert_eq!(agg.count(Tally::Decisions), 1);
    }

    #[test]
    fn amortization_is_refcounted() {
        let agg = Arc::new(AggregatingRecorder::new());
        let t = Arc::new(RuntimeTelemetry::new(agg as Arc<dyn Recorder>));
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
        let t = RuntimeTelemetry::new(Arc::clone(&agg) as Arc<dyn Recorder>);
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
        let t = RuntimeTelemetry::noop();
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
        let t = RuntimeTelemetry::new(Arc::clone(&agg) as Arc<dyn Recorder>);
        t.on_proposal_enqueued();
        t.on_proposal_enqueued();
        t.add(CounterKey::ProposalsRejected, 1);
        t.lower_queue_depth(2);
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
        assert!(snap.to_prometheus().contains("\nservice_wait_ns_count 2\n"));
        mc_telemetry::json::validate(&snap.to_json()).unwrap();
    }

    #[test]
    fn supervision_hooks_count_emit_and_snapshot() {
        let agg = Arc::new(AggregatingRecorder::new());
        let t = RuntimeTelemetry::new(Arc::clone(&agg) as Arc<dyn Recorder>);
        // Requeue puts depth back without touching proposals_enqueued.
        t.on_proposal_enqueued();
        t.lower_queue_depth(1);
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
        assert!(snap
            .to_prometheus()
            .contains("\nworker_recovery_ns_count 1\n"));
        mc_telemetry::json::validate(&snap.to_json()).unwrap();
    }

    #[test]
    fn restart_events_flow_even_in_amortized_mode() {
        let agg = Arc::new(AggregatingRecorder::new());
        let t = Arc::new(RuntimeTelemetry::new(Arc::clone(&agg) as Arc<dyn Recorder>));
        let _amortized = t.amortized();
        t.on_worker_restart(1, 1, 4, 800);
        // Like batch_drained, supervision events are batch-level: they are
        // exactly what the amortized mode exists to keep.
        assert_eq!(agg.count(Tally::WorkerRestarts), 1);
    }

    #[test]
    fn decide_latency_percentiles_are_exposed() {
        let t = RuntimeTelemetry::noop();
        for latency in [100, 200, 400, 800, 100_000] {
            t.local().on_decided(1, 1, false, Some(latency));
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
        // A thread of its own, whose cell holds the sampling countdown.
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
            // A merged copy: read it again after the loop.
            let latency = t.hist(HistKey::DecideLatencyNs);
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
    fn coin_rounds_histogram_records() {
        let t = RuntimeTelemetry::noop();
        t.record(HistKey::CoinRounds, 9);
        t.record(HistKey::CoinRounds, 12);
        assert_eq!(t.hist(HistKey::CoinRounds).count(), 2);
        assert!(t.hist(HistKey::CoinRounds).max() >= 12);
    }

    #[test]
    fn every_counter_reads_back_what_was_added_to_it() {
        let t = RuntimeTelemetry::noop();
        for (i, &key) in CounterKey::ALL.iter().enumerate() {
            t.add(key, i as u64 + 1);
        }
        for (i, &key) in CounterKey::ALL.iter().enumerate() {
            assert_eq!(t.count(key), i as u64 + 1, "{}", key.name());
        }
    }

    /// Update `i` of writer `w` in the cell tests: a counter add or a
    /// histogram record, every key of both, values over many buckets (a
    /// quarter of the records 0).
    fn update(t: &RuntimeTelemetry, w: u64, i: u64) {
        if i.is_multiple_of(2) {
            let key = CounterKey::ALL[(i / 2 + w) as usize % CounterKey::COUNT];
            t.add(key, i % 5);
        } else {
            let key = HistKey::ALL[(i / 2) as usize % HistKey::COUNT];
            let v = match i % 8 {
                1 => 0,
                3 => i % 7,
                5 => w * 1_000 + i,
                _ => (i * 2_654_435_761) >> (i % 40),
            };
            t.record(key, v);
        }
    }

    #[test]
    fn cells_from_joined_threads_sum_to_a_one_thread_run() {
        const WRITERS: u64 = 4;
        const UPDATES: u64 = 100_000;
        let (shared, alone) = (RuntimeTelemetry::noop(), RuntimeTelemetry::noop());
        // No writer exits before every writer has its cell, so none adopts
        // another's: one cell each.
        let all_written = Barrier::new(WRITERS as usize);
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (shared, all_written) = (&shared, &all_written);
                s.spawn(move || {
                    (0..UPDATES).for_each(|i| update(shared, w, i));
                    all_written.wait();
                });
            }
        });
        (0..WRITERS).for_each(|w| (0..UPDATES).for_each(|i| update(&alone, w, i)));
        assert_eq!(shared.cells().count(), WRITERS as usize);
        assert_eq!(alone.cells().count(), 1);
        for &key in CounterKey::ALL {
            assert_eq!(shared.count(key), alone.count(key), "{}", key.name());
        }
        for &key in HistKey::ALL {
            let (merged, one) = (shared.hist(key), alone.hist(key));
            assert!(one.count() > 0, "{}", key.name());
            assert_eq!(merged.snapshot(), one.snapshot(), "{}", key.name());
        }
        assert_eq!(shared.snapshot(), alone.snapshot());
        assert_eq!(shared.snapshot().to_json(), alone.snapshot().to_json());
    }

    #[test]
    fn cells_survive_cache_eviction() {
        // More telemetries than a thread's cache holds, written round
        // robin, so every write after the first round misses the cache.
        let telemetries: Vec<_> = (0..CACHED_CELLS + 2)
            .map(|_| RuntimeTelemetry::noop())
            .collect();
        std::thread::spawn(move || {
            for round in 0..1_000 {
                for t in &telemetries {
                    t.add(CounterKey::DecideCalls, 1);
                    t.record(HistKey::CoinRounds, round);
                }
            }
            for t in &telemetries {
                assert_eq!(t.count(CounterKey::DecideCalls), 1_000);
                let hist = t.hist(HistKey::CoinRounds);
                assert_eq!(
                    (hist.count(), hist.sum(), hist.max()),
                    (1_000, 499_500, 999)
                );
                // A miss finds the thread's own cell again: no new one.
                assert_eq!(t.cells().count(), 1);
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn cells_of_exited_threads_are_adopted_not_added() {
        const AT_ONCE: usize = 3;
        const WAVES: u64 = 20;
        let t = Arc::new(RuntimeTelemetry::noop());
        for wave in 0..WAVES {
            let all_written = Arc::new(Barrier::new(AT_ONCE));
            let writers: Vec<_> = (0..AT_ONCE)
                .map(|_| {
                    let (t, all_written) = (Arc::clone(&t), Arc::clone(&all_written));
                    // `spawn`, not a scope: `join` returns after the
                    // thread's exit, so after it freed its cell.
                    std::thread::spawn(move || {
                        t.add(CounterKey::DecideCalls, 1);
                        t.record(HistKey::CoinRounds, wave);
                        all_written.wait();
                    })
                })
                .collect();
            for writer in writers {
                writer.join().unwrap();
            }
            // Every wave after the first adopts the cells the last one
            // freed.
            assert_eq!(t.cells().count(), AT_ONCE, "wave {wave}");
        }
        let writes = AT_ONCE as u64 * WAVES;
        assert_eq!(t.count(CounterKey::DecideCalls), writes);
        let hist = t.hist(HistKey::CoinRounds);
        let sum = AT_ONCE as u64 * (0..WAVES).sum::<u64>();
        assert_eq!(
            (hist.count(), hist.sum(), hist.max()),
            (writes, sum, WAVES - 1)
        );
    }

    #[test]
    fn cells_read_live_never_decrease() {
        use std::sync::atomic::AtomicBool;
        const WRITERS: usize = 3;
        const ADDS: u64 = 200_000;
        let t = RuntimeTelemetry::noop();
        let (done, start) = (AtomicBool::new(false), Barrier::new(WRITERS + 1));
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut last = (0, 0);
                start.wait();
                loop {
                    // Relaxed: the flag only ends the polling; the final
                    // figures are checked after the join.
                    let finished = done.load(Ordering::Relaxed);
                    let now = (
                        t.count(CounterKey::FastReads),
                        t.hist(HistKey::ServiceWaitNs).count(),
                    );
                    assert!(now.0 >= last.0 && now.1 >= last.1, "{now:?} after {last:?}");
                    last = now;
                    if finished {
                        return last;
                    }
                    std::thread::yield_now();
                }
            });
            // The writers start with the reader, so they register their
            // cells while it sums.
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (t, start) = (&t, &start);
                    let writer = s.spawn(move || {
                        start.wait();
                        for i in 0..ADDS {
                            t.add(CounterKey::FastReads, 1);
                            if i % 4 == w as u64 {
                                t.record(HistKey::ServiceWaitNs, i);
                            }
                        }
                    });
                    writer
                })
                .collect();
            for writer in writers {
                writer.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
            // Read after the flag, so after every writer's join: exact.
            let last = reader.join().unwrap();
            assert_eq!(last, (WRITERS as u64 * ADDS, WRITERS as u64 * ADDS / 4));
        });
        assert_eq!(t.count(CounterKey::FastReads), WRITERS as u64 * ADDS);
        assert_eq!(
            t.hist(HistKey::ServiceWaitNs).count(),
            WRITERS as u64 * ADDS / 4
        );
    }

    /// The exported names and their order at the commit before the metric
    /// table existed, less `appends` and `slot_conflicts` (gone with
    /// `ReplicatedLog::append`), `lease_grants` (gone with the read
    /// lease), `proposals_shed` and `circuit_state` (gone with the
    /// service's shedding and circuit breaker), and
    /// `conciliator_selections`, `coin_selections` and
    /// `observed_delta_hat_ppm` (gone with the adaptive conciliator
    /// portfolio), and `store_snapshots` (gone with the store's
    /// snapshots); the benchmark and any scraper read them by string.
    const COUNTERS: &str = "decide_calls decisions fast_path_hits stage_entries \
        prob_writes_attempted prob_writes_performed pool_hits pool_misses \
        instances_retired faults_injected faults_lost_prob_writes faults_stale_reads \
        faults_delayed_commits faults_register_resets fallbacks_taken proposals_enqueued \
        proposals_rejected batches_drained \
        worker_restarts resubmitted_cells commands_applied sessions_created duplicates_served \
        stale_commands fast_reads";
    const GAUGES: &str = "applied_index max_conciliator_round live_instances queue_depth";
    const HISTOGRAMS: &str = "rounds_to_decide decide_latency_ns conciliator_rounds coin_rounds \
        service_wait_ns worker_recovery_ns";
    /// `to_json()` of the hook script below, captured at that same commit,
    /// less the removed metrics' fields.
    const SCRIPT_JSON: &str = r#"{"counters":{"decide_calls":1,"decisions":1,"fast_path_hits":1,"stage_entries":1,"prob_writes_attempted":2,"prob_writes_performed":1,"pool_hits":2,"pool_misses":1,"instances_retired":1,"faults_injected":1,"faults_lost_prob_writes":0,"faults_stale_reads":1,"faults_delayed_commits":0,"faults_register_resets":0,"fallbacks_taken":1,"proposals_enqueued":2,"proposals_rejected":1,"batches_drained":1,"worker_restarts":1,"resubmitted_cells":1,"commands_applied":5,"sessions_created":1,"duplicates_served":1,"stale_commands":1,"fast_reads":1},"gauges":{"applied_index":{"value":5,"max":5},"max_conciliator_round":{"value":0,"max":3},"live_instances":{"value":2,"max":2},"queue_depth":{"value":1,"max":2}},"histograms":{"rounds_to_decide":{"count":1,"sum":2,"max":2,"mean":2.0,"p50":2,"p99":2,"buckets":[[3,1]]},"decide_latency_ns":{"count":1,"sum":500,"max":500,"mean":500.0,"p50":500,"p99":500,"buckets":[[511,1]]},"conciliator_rounds":{"count":1,"sum":4,"max":4,"mean":4.0,"p50":4,"p99":4,"buckets":[[7,1]]},"coin_rounds":{"count":1,"sum":9,"max":9,"mean":9.0,"p50":9,"p99":9,"buckets":[[15,1]]},"service_wait_ns":{"count":1,"sum":5000,"max":5000,"mean":5000.0,"p50":5000,"p99":5000,"buckets":[[8191,1]]},"worker_recovery_ns":{"count":1,"sum":7000,"max":7000,"mean":7000.0,"p50":7000,"p99":7000,"buckets":[[8191,1]]}}}"#;

    #[test]
    fn snapshot_covers_the_metric_set() {
        let t = RuntimeTelemetry::noop();
        t.add(CounterKey::DecideCalls, 1);
        t.local().on_decided(1, 1, true, Some(100));
        let snap = t.snapshot();
        assert_eq!(snap.counter_value("decide_calls"), Some(1));
        assert_eq!(snap.counter_value("fast_path_hits"), Some(1));
        assert!(snap
            .to_prometheus()
            .contains("\nrounds_to_decide_count 1\n"));
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
        assert_eq!(table.each_ref().map(Vec::len), [25, 4, 6]);

        // A fixed script over every hook and every kind of bump exports
        // what the hand-written metric set exported, byte for byte.
        let t = RuntimeTelemetry::noop();
        assert!(!t.events_on, "the no-op recorder still counts");
        t.add(CounterKey::DecideCalls, 1);
        t.local().on_stage_entered(0, StageKind::Ratifier);
        t.local().on_conciliator_round(3, 0.25);
        t.local().on_prob_write(true, 0.5);
        t.local().on_prob_write(false, 0.5);
        t.record(HistKey::ConciliatorRounds, 4);
        t.record(HistKey::CoinRounds, 9);
        t.on_fault_injected(FaultClass::StaleRead, 1, 11);
        t.on_fallback_taken(6);
        t.local().on_decided(1, 2, true, Some(500));
        t.add(CounterKey::PoolMisses, 1);
        t.add(CounterKey::PoolHits, 2);
        t.add(CounterKey::InstancesRetired, 1);
        t.on_proposal_enqueued();
        t.on_proposal_enqueued();
        t.add(CounterKey::ProposalsRejected, 1);
        t.lower_queue_depth(2);
        t.on_proposals_requeued(1);
        t.on_batch_drained(0, 2, 0);
        t.record(HistKey::ServiceWaitNs, 5_000);
        t.on_worker_restart(0, 1, 1, 7_000);
        t.on_commands_applied(5, 5);
        t.add(CounterKey::SessionsCreated, 1);
        t.add(CounterKey::DuplicatesServed, 1);
        t.add(CounterKey::StaleCommands, 1);
        t.add(CounterKey::FastReads, 1);
        let snap = t.snapshot();
        assert_eq!(snap.to_json(), SCRIPT_JSON);
        // The derived reader: 2 hits in 3 activations.
        assert!((t.pool_hit_rate() - 2.0 / 3.0).abs() < 1e-9);
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
