//! Structured telemetry events and the [`Recorder`] sink trait.
//!
//! One event schema serves both execution substrates: `mc-runtime` emits
//! stage/round/decision events from real threads, and `mc-sim` replays its
//! step-level trace through [`TelemetryEvent::Op`] plus a final
//! [`TelemetryEvent::WorkSummary`]. Because both speak the same schema, an
//! [`AggregatingRecorder`] can fold either stream back into counts and be
//! compared against the substrate's own accounting.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::histogram::Histogram;
use crate::json::{Key, Obj};
use crate::json_key;

/// Which kind of stage a process entered in the alternating
/// ratifier/conciliator pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// A ratifier stage (safety: detect and confirm agreement).
    Ratifier,
    /// A conciliator stage (liveness: drive processes toward agreement).
    Conciliator,
}

impl StageKind {
    /// This kind as the `kind` field of a `stage_entered` line.
    fn kind_field(self) -> Key {
        match self {
            StageKind::Ratifier => json_key!("kind": "ratifier"),
            StageKind::Conciliator => json_key!("kind": "conciliator"),
        }
    }
}

/// Which register-level fault a fault-injection layer delivered.
///
/// The classes mirror `mc-runtime`'s `FaultPlan`: the probabilistic-write
/// model's store can be *lost*, a read can observe *stale* (regular-register)
/// state, a write's visibility can be *delayed*, and a register can be
/// *reset* to ⊥ as if by a crash-recovery wipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// A probabilistic write whose coin fired but whose store never landed.
    LostProbWrite,
    /// A read that returned the register's previous value (HHT regular
    /// semantics) instead of the current one.
    StaleRead,
    /// A write whose visibility was deferred past the operation itself.
    DelayedVisibility,
    /// A register wiped back to ⊥.
    RegisterReset,
}

impl FaultClass {
    /// This class as the `class` field of a `fault_injected` line, with
    /// the key after it.
    fn class_field(self) -> Key {
        match self {
            FaultClass::LostProbWrite => json_key!("class": "lost_prob_write", "register"),
            FaultClass::StaleRead => json_key!("class": "stale_read", "register"),
            FaultClass::DelayedVisibility => json_key!("class": "delayed_visibility", "register"),
            FaultClass::RegisterReset => json_key!("class": "register_reset", "register"),
        }
    }
}

/// Classification of a single shared-memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Read one register.
    Read,
    /// Write one register.
    Write,
    /// Probabilistic write (the coin decides whether it lands).
    ProbWrite,
    /// Collect (read every register of an array).
    Collect,
}

impl OpClass {
    /// This class as the `class` field of an `op` line, with the key after
    /// it.
    fn class_field(self) -> Key {
        match self {
            OpClass::Read => json_key!("class": "read", "performed"),
            OpClass::Write => json_key!("class": "write", "performed"),
            OpClass::ProbWrite => json_key!("class": "prob_write", "performed"),
            OpClass::Collect => json_key!("class": "collect", "performed"),
        }
    }
}

/// A structured telemetry event.
///
/// `pid` is the emitting process id where one is in scope, or a dense
/// per-thread id ([`crate::thread_shard`]) for runtime call sites that
/// only know their thread.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A process entered a stage of the consensus pipeline.
    StageEntered {
        /// Emitting process.
        pid: u64,
        /// Zero-based stage index.
        stage: u64,
        /// Ratifier or conciliator.
        kind: StageKind,
    },
    /// The fast path (leading ratifier pair) decided without any
    /// randomized stage.
    FastPathHit {
        /// Emitting process.
        pid: u64,
        /// Stage index at which the fast path hit.
        stage: u64,
    },
    /// A conciliator completed round `round` of probability doubling.
    ConciliatorRound {
        /// Emitting process.
        pid: u64,
        /// Zero-based round index `k`.
        round: u64,
        /// Write probability used this round.
        probability: f64,
    },
    /// A probabilistic write was attempted (and possibly performed).
    ProbWrite {
        /// Emitting process.
        pid: u64,
        /// Whether the coin came up and the write landed.
        performed: bool,
        /// Probability the coin was flipped with.
        probability: f64,
    },
    /// A ratifier returned its verdict.
    RatifierVerdict {
        /// Emitting process.
        pid: u64,
        /// Zero-based stage index.
        stage: u64,
        /// Whether the ratifier decided.
        decided: bool,
        /// The (possibly adjusted) preference leaving the stage.
        value: u64,
    },
    /// A process decided.
    Decided {
        /// Emitting process.
        pid: u64,
        /// Decided value.
        value: u64,
        /// Stage index at which the decision happened.
        stage: u64,
        /// Wall-clock latency of the whole `decide` call, nanoseconds.
        latency_ns: u64,
    },
    /// One simulated shared-memory operation (from `mc-sim`'s trace).
    Op {
        /// Simulation step at which the operation ran.
        step: u64,
        /// Emitting process.
        pid: u64,
        /// Operation class.
        class: OpClass,
        /// For [`OpClass::ProbWrite`]: whether the write landed.
        /// `true` for every other class.
        performed: bool,
    },
    /// A fault-injection layer delivered one register-level fault.
    FaultInjected {
        /// Which fault class fired.
        class: FaultClass,
        /// Index of the affected register within its fault layer.
        register: u64,
        /// The fault layer's operation counter when the fault fired.
        step: u64,
    },
    /// A bounded consensus exhausted its conciliator budget and fell back
    /// to the backup protocol `K` (Theorem 5).
    FallbackTaken {
        /// Emitting process.
        pid: u64,
        /// Number of conciliator stages that failed before the fallback.
        conciliator_stages: u64,
    },
    /// A batching-service shard worker drained one batch from its intake
    /// ring. Emitted once per batch — the amortized replacement for
    /// per-proposal service events.
    BatchDrained {
        /// Engine shard the worker serves.
        shard: u64,
        /// Number of proposals decided in this batch.
        batch: u64,
        /// Ring depth left behind after the drain.
        queue_depth: u64,
    },
    /// A supervised service worker recovered from a panic: its unsubmitted
    /// proposals were re-admitted and its drain loop restarted.
    WorkerRestarted {
        /// Intake ring (= worker index) that recovered.
        ring: u64,
        /// Restart attempt number for this worker, starting at 1.
        attempt: u64,
        /// Queued-but-unsubmitted cells re-admitted to the ring.
        resubmitted: u64,
        /// Wall-clock panic-catch → drain-loop-reentry latency, nanoseconds.
        recovery_ns: u64,
    },
    /// End-of-run totals (mirrors `mc-sim`'s `WorkMetrics`).
    WorkSummary {
        /// Seed the run was driven with.
        seed: u64,
        /// Total operations across all processes.
        total_work: u64,
        /// Maximum operations by any single process.
        individual_work: u64,
        /// Probabilistic writes attempted.
        prob_writes_attempted: u64,
        /// Probabilistic writes that landed.
        prob_writes_performed: u64,
        /// Registers allocated.
        registers_allocated: u64,
        /// Registers written at least once.
        registers_touched: u64,
        /// Operations per process, indexed by pid.
        per_process: Vec<u64>,
    },
}

impl TelemetryEvent {
    /// Stable event name (the `"ev"` field of the JSON rendering).
    pub fn name(&self) -> &'static str {
        match self {
            TelemetryEvent::StageEntered { .. } => "stage_entered",
            TelemetryEvent::FastPathHit { .. } => "fast_path_hit",
            TelemetryEvent::ConciliatorRound { .. } => "conciliator_round",
            TelemetryEvent::ProbWrite { .. } => "prob_write",
            TelemetryEvent::RatifierVerdict { .. } => "ratifier_verdict",
            TelemetryEvent::Decided { .. } => "decided",
            TelemetryEvent::Op { .. } => "op",
            TelemetryEvent::FaultInjected { .. } => "fault_injected",
            TelemetryEvent::FallbackTaken { .. } => "fallback_taken",
            TelemetryEvent::BatchDrained { .. } => "batch_drained",
            TelemetryEvent::WorkerRestarted { .. } => "worker_restarted",
            TelemetryEvent::WorkSummary { .. } => "work_summary",
        }
    }

    /// Appends the event to `out` as one JSON object stamped with `seq`
    /// (no trailing newline): the one renderer of the event schema. Each
    /// part of the line is one append: the head (`{"ev":"op","seq":`), each
    /// key with the comma before it, each enum-valued field with its key
    /// (and the key after it), each value. It allocates only if `out` must
    /// grow, so a recorder that reuses its buffer allocates nothing.
    pub(crate) fn write_json(&self, seq: u64, out: &mut String) {
        let mut obj = Obj::append_to(out);
        match self {
            TelemetryEvent::StageEntered { pid, stage, kind } => {
                obj.u64_field(json_key!({"ev": "stage_entered", "seq"}), seq)
                    .u64_field(json_key!("pid"), *pid)
                    .u64_field(json_key!("stage"), *stage)
                    .fields(kind.kind_field());
            }
            TelemetryEvent::FastPathHit { pid, stage } => {
                obj.u64_field(json_key!({"ev": "fast_path_hit", "seq"}), seq)
                    .u64_field(json_key!("pid"), *pid)
                    .u64_field(json_key!("stage"), *stage);
            }
            TelemetryEvent::ConciliatorRound {
                pid,
                round,
                probability,
            } => {
                obj.u64_field(json_key!({"ev": "conciliator_round", "seq"}), seq)
                    .u64_field(json_key!("pid"), *pid)
                    .u64_field(json_key!("round"), *round)
                    .f64_field(json_key!("p"), *probability);
            }
            TelemetryEvent::ProbWrite {
                pid,
                performed,
                probability,
            } => {
                obj.u64_field(json_key!({"ev": "prob_write", "seq"}), seq)
                    .u64_field(json_key!("pid"), *pid)
                    .bool_field(json_key!("performed"), *performed)
                    .f64_field(json_key!("p"), *probability);
            }
            TelemetryEvent::RatifierVerdict {
                pid,
                stage,
                decided,
                value,
            } => {
                obj.u64_field(json_key!({"ev": "ratifier_verdict", "seq"}), seq)
                    .u64_field(json_key!("pid"), *pid)
                    .u64_field(json_key!("stage"), *stage)
                    .bool_field(json_key!("decided"), *decided)
                    .u64_field(json_key!("value"), *value);
            }
            TelemetryEvent::Decided {
                pid,
                value,
                stage,
                latency_ns,
            } => {
                obj.u64_field(json_key!({"ev": "decided", "seq"}), seq)
                    .u64_field(json_key!("pid"), *pid)
                    .u64_field(json_key!("value"), *value)
                    .u64_field(json_key!("stage"), *stage)
                    .u64_field(json_key!("latency_ns"), *latency_ns);
            }
            TelemetryEvent::Op {
                step,
                pid,
                class,
                performed,
            } => {
                obj.u64_field(json_key!({"ev": "op", "seq"}), seq)
                    .u64_field(json_key!("step"), *step)
                    .u64_field(json_key!("pid"), *pid)
                    .bool_field(class.class_field(), *performed);
            }
            TelemetryEvent::FaultInjected {
                class,
                register,
                step,
            } => {
                obj.u64_field(json_key!({"ev": "fault_injected", "seq"}), seq)
                    .u64_field(class.class_field(), *register)
                    .u64_field(json_key!("step"), *step);
            }
            TelemetryEvent::FallbackTaken {
                pid,
                conciliator_stages,
            } => {
                obj.u64_field(json_key!({"ev": "fallback_taken", "seq"}), seq)
                    .u64_field(json_key!("pid"), *pid)
                    .u64_field(json_key!("conciliator_stages"), *conciliator_stages);
            }
            TelemetryEvent::BatchDrained {
                shard,
                batch,
                queue_depth,
            } => {
                obj.u64_field(json_key!({"ev": "batch_drained", "seq"}), seq)
                    .u64_field(json_key!("shard"), *shard)
                    .u64_field(json_key!("batch"), *batch)
                    .u64_field(json_key!("queue_depth"), *queue_depth);
            }
            TelemetryEvent::WorkerRestarted {
                ring,
                attempt,
                resubmitted,
                recovery_ns,
            } => {
                obj.u64_field(json_key!({"ev": "worker_restarted", "seq"}), seq)
                    .u64_field(json_key!("ring"), *ring)
                    .u64_field(json_key!("attempt"), *attempt)
                    .u64_field(json_key!("resubmitted"), *resubmitted)
                    .u64_field(json_key!("recovery_ns"), *recovery_ns);
            }
            TelemetryEvent::WorkSummary {
                seed,
                total_work,
                individual_work,
                prob_writes_attempted,
                prob_writes_performed,
                registers_allocated,
                registers_touched,
                per_process,
            } => {
                obj.u64_field(json_key!({"ev": "work_summary", "seq"}), seq)
                    .u64_field(json_key!("seed"), *seed)
                    .u64_field(json_key!("total_work"), *total_work)
                    .u64_field(json_key!("individual_work"), *individual_work)
                    .u64_field(json_key!("prob_writes_attempted"), *prob_writes_attempted)
                    .u64_field(json_key!("prob_writes_performed"), *prob_writes_performed)
                    .u64_field(json_key!("registers_allocated"), *registers_allocated)
                    .u64_field(json_key!("registers_touched"), *registers_touched)
                    .u64_array_field(json_key!("per_process"), per_process);
            }
        }
        obj.finish();
    }
}

/// A sink for [`TelemetryEvent`]s.
///
/// Instrumented code holds an `Arc<dyn Recorder>` and guards event
/// construction with [`enabled`](Recorder::enabled), so the disabled path
/// is one virtual call returning a constant — cheap enough to leave in
/// the consensus hot loop.
pub trait Recorder: Send + Sync {
    /// Whether [`record`](Recorder::record) does anything. Callers should
    /// skip event construction when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn record(&self, event: &TelemetryEvent);

    /// Flushes any buffered output.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying sink, the first one a
    /// `record` met since the last flush included.
    fn flush(&self) -> io::Result<()> {
        Ok(())
    }
}

/// The default recorder: drops everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record(&self, _event: &TelemetryEvent) {}
}

/// Streams events as JSON lines to any writer.
///
/// Each line is one event rendered as a JSON object stamped with a
/// monotone `seq` field, assigned under the mutex that orders the writes,
/// so line *i* carries `"seq":i`. The line is rendered into a buffer kept
/// beside the writer and reused: in steady state an event allocates
/// nothing and costs ~50 ns, against a budget of 120 (DESIGN.md §6).
pub struct JsonlRecorder {
    sink: Mutex<JsonlSink>,
}

struct JsonlSink {
    out: Box<dyn Write + Send>,
    /// The line being written: one event, never more.
    line: String,
    seq: u64,
    /// The first write error since the last `flush()`, which reports it.
    error: Option<io::Error>,
}

impl std::fmt::Debug for JsonlRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlRecorder")
            .field("seq", &self.events_written())
            .finish_non_exhaustive()
    }
}

impl JsonlRecorder {
    /// Streams to an arbitrary writer.
    pub fn new(out: Box<dyn Write + Send>) -> JsonlRecorder {
        JsonlRecorder {
            sink: Mutex::new(JsonlSink {
                out,
                line: String::new(),
                seq: 0,
                error: None,
            }),
        }
    }

    /// Creates (truncating) `path` and streams to it through a buffer.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn to_file(path: &std::path::Path) -> io::Result<JsonlRecorder> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlRecorder::new(Box::new(io::BufWriter::new(file))))
    }

    /// Number of events written so far.
    pub fn events_written(&self) -> u64 {
        self.sink().seq
    }

    fn sink(&self) -> std::sync::MutexGuard<'_, JsonlSink> {
        // Every step of `record` leaves the sink valid (a panic mid-render
        // loses that line only), so a poisoned lock is recovered.
        self.sink.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, event: &TelemetryEvent) {
        let sink = &mut *self.sink();
        sink.line.clear();
        event.write_json(sink.seq, &mut sink.line);
        sink.line.push('\n');
        sink.seq += 1;
        // Telemetry must never take the protocol down: latch the error for
        // flush() to report and carry on.
        if let Err(e) = sink.out.write_all(sink.line.as_bytes()) {
            sink.error.get_or_insert(e);
        }
    }

    fn flush(&self) -> io::Result<()> {
        let mut sink = self.sink();
        let flushed = sink.out.flush();
        sink.error.take().map_or(flushed, Err)
    }
}

crate::metric_keys! {
    /// What an [`AggregatingRecorder`] tallies; read one back with
    /// [`AggregatingRecorder::count`].
    pub enum Tally {
        /// Total events seen.
        Events => "events",
        /// `stage_entered` events seen.
        StageEntries => "stage_entries",
        /// `fast_path_hit` events seen.
        FastPathHits => "fast_path_hits",
        /// `conciliator_round` events seen.
        ConciliatorRounds => "conciliator_rounds",
        /// Largest conciliator round index observed (a running maximum).
        MaxRound => "max_round",
        /// Probabilistic writes attempted (runtime `prob_write` events plus
        /// sim `op` events of class `prob_write`).
        ProbWritesAttempted => "prob_writes_attempted",
        /// Probabilistic writes that landed.
        ProbWritesPerformed => "prob_writes_performed",
        /// `ratifier_verdict` events seen.
        RatifierVerdicts => "ratifier_verdicts",
        /// `decided` events seen.
        Decisions => "decisions",
        /// Simulated operations seen (total work).
        Ops => "ops",
        /// Simulated operations of class `read`.
        Reads => "reads",
        /// Simulated operations of class `write`.
        Writes => "writes",
        /// Simulated operations of class `collect`.
        Collects => "collects",
        /// `fault_injected` events seen.
        FaultsInjected => "faults_injected",
        /// `fallback_taken` events seen.
        FallbacksTaken => "fallbacks_taken",
        /// `batch_drained` events seen.
        BatchesDrained => "batches_drained",
        /// Total proposals across all `batch_drained` events.
        BatchedProposals => "batched_proposals",
        /// `worker_restarted` events seen.
        WorkerRestarts => "worker_restarts",
        /// Total cells re-admitted across all `worker_restarted` events.
        ResubmittedCells => "resubmitted_cells",
    }
}

/// Folds events back into counters and histograms.
///
/// This is the reconciliation tool: run a simulation once with its native
/// `WorkMetrics` accounting and an `AggregatingRecorder` attached, then
/// assert both saw the same operation counts.
pub struct AggregatingRecorder {
    tallies: [AtomicU64; Tally::COUNT],
    rounds_to_decide: Histogram,
    decide_latency_ns: Histogram,
    per_pid_ops: Mutex<Vec<u64>>,
}

impl Default for AggregatingRecorder {
    fn default() -> AggregatingRecorder {
        AggregatingRecorder {
            tallies: std::array::from_fn(|_| AtomicU64::new(0)),
            rounds_to_decide: Histogram::new(),
            decide_latency_ns: Histogram::new(),
            per_pid_ops: Mutex::default(),
        }
    }
}

/// Every tally that has moved, by name (as `RuntimeTelemetry` prints its
/// ledger).
impl std::fmt::Debug for AggregatingRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = f.debug_struct("AggregatingRecorder");
        for &key in Tally::ALL.iter().filter(|&&key| self.count(key) > 0) {
            out.field(key.name(), &self.count(key));
        }
        out.finish_non_exhaustive()
    }
}

impl AggregatingRecorder {
    /// An empty aggregator.
    pub fn new() -> AggregatingRecorder {
        AggregatingRecorder::default()
    }

    /// The current value of one tally.
    pub fn count(&self, key: Tally) -> u64 {
        // Relaxed: one tally, read on its own (see `add`); the
        // reconciliations compare tallies after the run has finished.
        self.cell(key).load(Ordering::Relaxed)
    }

    fn cell(&self, key: Tally) -> &AtomicU64 {
        &self.tallies[key as usize]
    }

    fn add(&self, key: Tally, n: u64) {
        // Relaxed: a read-modify-write on one tally lands whatever its
        // ordering, and a tally publishes no other memory.
        self.cell(key).fetch_add(n, Ordering::Relaxed);
    }

    /// Distribution of the deciding stage index, one sample per decision.
    pub fn rounds_to_decide(&self) -> &Histogram {
        &self.rounds_to_decide
    }

    /// Distribution of decide latency in nanoseconds.
    pub fn decide_latency_ns(&self) -> &Histogram {
        &self.decide_latency_ns
    }

    /// Simulated operations per process, indexed by pid.
    pub fn per_process_ops(&self) -> Vec<u64> {
        self.per_pid_ops
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Largest per-process operation count (individual work).
    pub fn individual_ops(&self) -> u64 {
        self.per_process_ops().iter().copied().max().unwrap_or(0)
    }
}

impl Recorder for AggregatingRecorder {
    fn record(&self, event: &TelemetryEvent) {
        self.add(Tally::Events, 1);
        match event {
            TelemetryEvent::StageEntered { .. } => self.add(Tally::StageEntries, 1),
            TelemetryEvent::FastPathHit { .. } => self.add(Tally::FastPathHits, 1),
            TelemetryEvent::ConciliatorRound { round, .. } => {
                self.add(Tally::ConciliatorRounds, 1);
                // Relaxed: as `add`; `fetch_max` never loses a larger round.
                self.cell(Tally::MaxRound)
                    .fetch_max(*round, Ordering::Relaxed);
            }
            TelemetryEvent::ProbWrite { performed, .. } => {
                self.add(Tally::ProbWritesAttempted, 1);
                if *performed {
                    self.add(Tally::ProbWritesPerformed, 1);
                }
            }
            TelemetryEvent::RatifierVerdict { .. } => self.add(Tally::RatifierVerdicts, 1),
            TelemetryEvent::Decided {
                stage, latency_ns, ..
            } => {
                self.add(Tally::Decisions, 1);
                self.rounds_to_decide.record(*stage);
                self.decide_latency_ns.record(*latency_ns);
            }
            TelemetryEvent::Op {
                pid,
                class,
                performed,
                ..
            } => {
                self.add(Tally::Ops, 1);
                let mut per_pid = self.per_pid_ops.lock().unwrap_or_else(|e| e.into_inner());
                let pid = *pid as usize;
                if per_pid.len() <= pid {
                    per_pid.resize(pid + 1, 0);
                }
                per_pid[pid] += 1;
                drop(per_pid);
                match class {
                    OpClass::Read => self.add(Tally::Reads, 1),
                    OpClass::Write => self.add(Tally::Writes, 1),
                    OpClass::Collect => self.add(Tally::Collects, 1),
                    OpClass::ProbWrite => {
                        self.add(Tally::ProbWritesAttempted, 1);
                        if *performed {
                            self.add(Tally::ProbWritesPerformed, 1);
                        }
                    }
                }
            }
            TelemetryEvent::FaultInjected { .. } => self.add(Tally::FaultsInjected, 1),
            TelemetryEvent::FallbackTaken { .. } => self.add(Tally::FallbacksTaken, 1),
            TelemetryEvent::BatchDrained { batch, .. } => {
                self.add(Tally::BatchesDrained, 1);
                self.add(Tally::BatchedProposals, *batch);
            }
            TelemetryEvent::WorkerRestarted { resubmitted, .. } => {
                self.add(Tally::WorkerRestarts, 1);
                self.add(Tally::ResubmittedCells, *resubmitted);
            }
            TelemetryEvent::WorkSummary { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::sync::Arc;

    /// A recorder streaming to a shared in-memory buffer, read back after
    /// recording.
    fn in_memory() -> (JsonlRecorder, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let recorder = JsonlRecorder::new(Box::new(SharedBuf(Arc::clone(&buf))));
        (recorder, buf)
    }

    /// `Write` over a shared byte buffer (backing store for [`in_memory`]).
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn sample_events() -> Vec<TelemetryEvent> {
        vec![
            TelemetryEvent::StageEntered {
                pid: 0,
                stage: 0,
                kind: StageKind::Ratifier,
            },
            TelemetryEvent::FastPathHit { pid: 0, stage: 1 },
            TelemetryEvent::ConciliatorRound {
                pid: 1,
                round: 3,
                probability: 0.125,
            },
            TelemetryEvent::ProbWrite {
                pid: 1,
                performed: true,
                probability: 0.5,
            },
            TelemetryEvent::ProbWrite {
                pid: 1,
                performed: false,
                probability: 0.5,
            },
            TelemetryEvent::RatifierVerdict {
                pid: 1,
                stage: 2,
                decided: true,
                value: 42,
            },
            TelemetryEvent::Decided {
                pid: 1,
                value: 42,
                stage: 2,
                latency_ns: 1_000,
            },
            TelemetryEvent::Op {
                step: 0,
                pid: 0,
                class: OpClass::Read,
                performed: true,
            },
            TelemetryEvent::Op {
                step: 1,
                pid: 2,
                class: OpClass::ProbWrite,
                performed: false,
            },
            TelemetryEvent::FaultInjected {
                class: FaultClass::StaleRead,
                register: 4,
                step: 17,
            },
            TelemetryEvent::FallbackTaken {
                pid: 2,
                conciliator_stages: 6,
            },
            TelemetryEvent::BatchDrained {
                shard: 1,
                batch: 8,
                queue_depth: 2,
            },
            TelemetryEvent::WorkerRestarted {
                ring: 0,
                attempt: 1,
                resubmitted: 3,
                recovery_ns: 2_000,
            },
            TelemetryEvent::WorkSummary {
                seed: 7,
                total_work: 2,
                individual_work: 1,
                prob_writes_attempted: 1,
                prob_writes_performed: 0,
                registers_allocated: 3,
                registers_touched: 2,
                per_process: vec![1, 0, 1],
            },
        ]
    }

    /// Value edges of every field type: the widest and narrowest integers,
    /// floats that print with and without an exponent, a non-finite float,
    /// and an empty and a wide array.
    fn edge_events() -> Vec<TelemetryEvent> {
        let probability = |probability| TelemetryEvent::ConciliatorRound {
            pid: 0,
            round: u64::MAX,
            probability,
        };
        let summary = |per_process| TelemetryEvent::WorkSummary {
            seed: u64::MAX,
            total_work: 0,
            individual_work: 10,
            prob_writes_attempted: 99,
            prob_writes_performed: 100,
            registers_allocated: 12_345,
            registers_touched: 1_000_000,
            per_process,
        };
        vec![
            TelemetryEvent::Decided {
                pid: 0,
                value: u64::MAX,
                stage: 9,
                latency_ns: 18_446_744_073_709_551_614,
            },
            probability(0.1),
            probability(1e-7),
            probability(1.0),
            probability(f64::NAN),
            summary(Vec::new()),
            summary((0..32).map(|pid| pid * pid * 1_009).collect()),
        ]
    }

    /// `write_json(seq, _)` of `sample_events()` then `edge_events()`,
    /// captured from the renderer this one replaced (commit 4e4eb71): the
    /// schema is these bytes, and any drift must show up as a diff here.
    /// The [`RETIRED_SEQ`] stamps belonged to events since removed (a
    /// circuit transition, a read lease and two conciliator selections);
    /// the lines after them keep their stamps.
    const GOLDEN: &[&str] = &[
        r#"{"ev":"stage_entered","seq":0,"pid":0,"stage":0,"kind":"ratifier"}"#,
        r#"{"ev":"fast_path_hit","seq":1,"pid":0,"stage":1}"#,
        r#"{"ev":"conciliator_round","seq":2,"pid":1,"round":3,"p":0.125}"#,
        r#"{"ev":"prob_write","seq":3,"pid":1,"performed":true,"p":0.5}"#,
        r#"{"ev":"prob_write","seq":4,"pid":1,"performed":false,"p":0.5}"#,
        r#"{"ev":"ratifier_verdict","seq":5,"pid":1,"stage":2,"decided":true,"value":42}"#,
        r#"{"ev":"decided","seq":6,"pid":1,"value":42,"stage":2,"latency_ns":1000}"#,
        r#"{"ev":"op","seq":7,"step":0,"pid":0,"class":"read","performed":true}"#,
        r#"{"ev":"op","seq":8,"step":1,"pid":2,"class":"prob_write","performed":false}"#,
        r#"{"ev":"fault_injected","seq":9,"class":"stale_read","register":4,"step":17}"#,
        r#"{"ev":"fallback_taken","seq":11,"pid":2,"conciliator_stages":6}"#,
        r#"{"ev":"batch_drained","seq":12,"shard":1,"batch":8,"queue_depth":2}"#,
        r#"{"ev":"worker_restarted","seq":13,"ring":0,"attempt":1,"resubmitted":3,"recovery_ns":2000}"#,
        r#"{"ev":"work_summary","seq":17,"seed":7,"total_work":2,"individual_work":1,"prob_writes_attempted":1,"prob_writes_performed":0,"registers_allocated":3,"registers_touched":2,"per_process":[1,0,1]}"#,
        r#"{"ev":"decided","seq":18,"pid":0,"value":18446744073709551615,"stage":9,"latency_ns":18446744073709551614}"#,
        r#"{"ev":"conciliator_round","seq":19,"pid":0,"round":18446744073709551615,"p":0.1}"#,
        r#"{"ev":"conciliator_round","seq":20,"pid":0,"round":18446744073709551615,"p":1e-7}"#,
        r#"{"ev":"conciliator_round","seq":21,"pid":0,"round":18446744073709551615,"p":1.0}"#,
        r#"{"ev":"conciliator_round","seq":22,"pid":0,"round":18446744073709551615,"p":null}"#,
        r#"{"ev":"work_summary","seq":23,"seed":18446744073709551615,"total_work":0,"individual_work":10,"prob_writes_attempted":99,"prob_writes_performed":100,"registers_allocated":12345,"registers_touched":1000000,"per_process":[]}"#,
        r#"{"ev":"work_summary","seq":24,"seed":18446744073709551615,"total_work":0,"individual_work":10,"prob_writes_attempted":99,"prob_writes_performed":100,"registers_allocated":12345,"registers_touched":1000000,"per_process":[0,1009,4036,9081,16144,25225,36324,49441,64576,81729,100900,122089,145296,170521,197764,227025,258304,291601,326916,364249,403600,444969,488356,533761,581184,630625,682084,735561,791056,848569,908100,969649]}"#,
    ];

    const RETIRED_SEQ: [u64; 4] = [10, 14, 15, 16];

    #[test]
    fn every_line_matches_its_golden_bytes() {
        let events: Vec<_> = sample_events().into_iter().chain(edge_events()).collect();
        assert_eq!(events.len(), GOLDEN.len());
        let stamps = (0..).filter(|seq| !RETIRED_SEQ.contains(seq));
        // One dirty buffer for all: `write_json` appends and disturbs nothing.
        let mut reused = String::from("dirty");
        for ((seq, event), golden) in stamps.zip(&events).zip(GOLDEN) {
            reused.truncate("dirty".len());
            event.write_json(seq, &mut reused);
            assert_eq!(reused.strip_prefix("dirty"), Some(*golden));
            json::validate(golden).unwrap_or_else(|e| panic!("{golden}: {e}"));
        }
    }

    #[test]
    fn every_event_renders_valid_json() {
        for (i, event) in sample_events().iter().enumerate() {
            let mut line = String::new();
            event.write_json(i as u64, &mut line);
            json::validate(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let head = format!(r#"{{"ev":"{}","seq":{i},"#, event.name());
            assert!(line.starts_with(&head), "{line} lacks {head}");
        }
    }

    #[test]
    fn jsonl_recorder_writes_one_line_per_event() {
        let (recorder, buf) = in_memory();
        for event in sample_events() {
            recorder.record(&event);
        }
        recorder.flush().unwrap();
        let bytes = buf.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), sample_events().len());
        assert_eq!(recorder.events_written(), lines.len() as u64);
        for (i, line) in lines.iter().enumerate() {
            json::validate(line).unwrap();
            assert!(line.contains(&format!(r#""seq":{i}"#)));
        }
    }

    #[test]
    fn a_failed_write_is_reported_by_the_next_flush_once() {
        /// Fails its second write, accepts every other.
        struct FailsSecond(u32);
        impl Write for FailsSecond {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                if self.0 == 2 {
                    return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let recorder = JsonlRecorder::new(Box::new(FailsSecond(0)));
        let event = TelemetryEvent::FastPathHit { pid: 0, stage: 0 };
        recorder.record(&event);
        recorder.flush().unwrap();
        recorder.record(&event); // lost
        recorder.record(&event); // recording carries on
        let lost = recorder.flush().unwrap_err();
        assert_eq!(lost.kind(), io::ErrorKind::StorageFull);
        assert_eq!(lost.to_string(), "disk full");
        recorder.flush().unwrap();
        assert_eq!(recorder.events_written(), 3);
    }

    #[test]
    fn concurrent_writers_leave_lines_in_seq_order() {
        const THREADS: u64 = 4;
        const EVENTS: u64 = 2_000;
        let (recorder, buf) = in_memory();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for pid in 0..THREADS {
                let (recorder, start) = (&recorder, &start);
                scope.spawn(move || {
                    start.wait();
                    for stage in 0..EVENTS {
                        recorder.record(&TelemetryEvent::FastPathHit { pid, stage });
                    }
                });
            }
        });
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count() as u64, THREADS * EVENTS);
        for (i, line) in text.lines().enumerate() {
            let stamp = format!(r#"{{"ev":"fast_path_hit","seq":{i},"#);
            assert!(line.starts_with(&stamp), "line {i}: {line}");
        }
    }

    #[test]
    fn aggregating_recorder_folds_counts() {
        let agg = AggregatingRecorder::new();
        for event in sample_events() {
            agg.record(&event);
        }
        let expected = [
            (Tally::Events, 14),
            (Tally::FaultsInjected, 1),
            (Tally::FallbacksTaken, 1),
            (Tally::BatchesDrained, 1),
            (Tally::BatchedProposals, 8),
            (Tally::WorkerRestarts, 1),
            (Tally::ResubmittedCells, 3),
            (Tally::StageEntries, 1),
            (Tally::FastPathHits, 1),
            (Tally::ConciliatorRounds, 1),
            (Tally::MaxRound, 3),
            // 2 runtime prob_write events + 1 sim prob_write op.
            (Tally::ProbWritesAttempted, 3),
            (Tally::ProbWritesPerformed, 1),
            (Tally::Decisions, 1),
            (Tally::Ops, 2),
            (Tally::Reads, 1),
        ];
        for (key, count) in expected {
            assert_eq!(agg.count(key), count, "{}", key.name());
        }
        assert_eq!(agg.rounds_to_decide().count(), 1);
        assert_eq!(agg.decide_latency_ns().max(), 1_000);
        assert_eq!(agg.per_process_ops(), vec![1, 0, 1]);
        assert_eq!(agg.individual_ops(), 1);
    }

    #[test]
    fn noop_recorder_is_disabled() {
        let noop = NoopRecorder;
        assert!(!noop.enabled());
        noop.record(&TelemetryEvent::FastPathHit { pid: 0, stage: 0 });
        noop.flush().unwrap();
    }
}
