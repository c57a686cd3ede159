//! The child side: one trial of one workload (or the layer probes), run in
//! a process of its own so the parent can pin it, watch it, and kill it.
//!
//! A child talks to its parent over stdout, one line at a time:
//! `ready` when the first measured operation is about to start, `beat <n>`
//! every 100ms with the operations completed so far (the parent's stall
//! watchdog feeds on these), and `report <json>` when the trial is done.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mc_core::protocol::ConsensusBuilder;
use mc_model::properties::check_consensus;
use mc_runtime::{ConsensusEngine, ConsensusService};
use mc_sim::adversary::RandomScheduler;
use mc_sim::harness::{self, inputs};
use mc_sim::{observe, EngineConfig};
use mc_store::{KvCommand, KvResponse, KvStore, ReplicatedStore, StateMachine};
use mc_telemetry::{JsonlRecorder, NoopRecorder, Recorder, Snapshot};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::catalog::{Workload, SIM_N, SIM_VALUES};
use crate::json::Value;
use crate::probes;
use crate::script::{
    self, OpenScript, OPEN_CHUNK, OPEN_SESSIONS, OPEN_WINDOW, READ_BLOCK, SERVICE_CHUNK,
};
use crate::span::{self, Span, SpanLog};
use crate::stats::Sample;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    Trial(Workload),
    /// The layer ladder: register, consensus, engine, log, service, kv and
    /// the pinned host probes.
    Probes,
    /// The unpinned wake-up ping-pong (launched without `taskset`).
    HostFree,
}

#[derive(Debug, Clone)]
pub struct ChildSpec {
    pub job: Job,
    pub seed: u64,
    /// Size divisor: 1 is the full trial, 20 the smoke size.
    pub scale: usize,
    /// Record spans around the calls into each layer.
    pub traced: bool,
    /// Attach a sink `JsonlRecorder` to the store (telemetry overhead).
    pub recorder: bool,
    pub trace_out: Option<PathBuf>,
    /// Log slots the probes replay at each layer boundary.
    pub slots: usize,
}

/// Progress counter and line protocol shared by every job.
#[derive(Debug, Default)]
pub struct Beacon {
    ops: AtomicU64,
    done: AtomicBool,
}

impl Beacon {
    #[inline]
    pub fn add(&self, ops: u64) {
        // A statistic read only by the heartbeat thread.
        self.ops.fetch_add(ops, Ordering::Relaxed);
    }

    pub fn ready(&self) {
        println!("ready");
    }
}

/// Runs `f` with a heartbeat thread printing `beat <ops>` every 100ms.
fn with_heartbeat<R>(f: impl FnOnce(&Beacon) -> R) -> R {
    let beacon = Beacon::default();
    std::thread::scope(|scope| {
        let heart = scope.spawn(|| {
            while !beacon.done.load(Ordering::Acquire) {
                std::thread::park_timeout(Duration::from_millis(100));
                println!("beat {}", beacon.ops.load(Ordering::Relaxed));
            }
        });
        let result = f(&beacon);
        beacon.done.store(true, Ordering::Release);
        heart.thread().unpark();
        result
    })
}

/// What one trial measured.
#[derive(Debug, Default)]
pub struct Trial {
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_ns: u64,
    pub cpu_us: f64,
    pub samples: Vec<Sample>,
    /// First correctness violation seen, if any.
    pub violation: Option<String>,
    /// Per-layer measurements this trial contributes, by metric name.
    pub layers: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

impl Trial {
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }

    fn ns_per_op(&self) -> f64 {
        self.elapsed_ns as f64 / self.ops.max(1) as f64
    }

    fn absorb(&mut self, lane: Lane) {
        self.attempted += lane.attempted;
        self.failed += lane.failed;
        self.samples.extend(lane.samples);
        if self.violation.is_none() {
            self.violation = lane.violation;
        }
        span::merge(&mut self.spans, lane.spans);
    }

    fn violate(&mut self, message: String) {
        self.violation.get_or_insert(message);
    }

    /// Means of the recorded spans, by name, as per-layer metrics.
    fn layer_from_spans(&mut self, names: &[(&str, &str, f64)]) {
        let totals = span::self_times(&self.spans);
        for &(span_name, metric, per) in names {
            if let Some(t) = totals.get(span_name) {
                self.layer(metric, t.mean_ns() / per);
            }
        }
    }
}

/// One load-generator thread's share of a trial.
#[derive(Debug, Default)]
struct Lane {
    attempted: u64,
    failed: u64,
    samples: Vec<Sample>,
    violation: Option<String>,
    spans: Vec<Span>,
}

impl Lane {
    fn sample(&mut self, ns: u64, weight: u64) {
        self.samples.push(Sample {
            value: ns as f64 / weight as f64,
            weight,
        });
    }

    /// Counts one operation; a wrong or failed one is recorded as failed
    /// with the first such message kept.
    fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.violation.is_none() {
                self.violation = Some(describe());
            }
        }
    }
}

/// On-CPU nanoseconds of one thread: the first field of its `schedstat`.
fn schedstat_ns(path: &std::path::Path) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// On-CPU nanoseconds of every live thread of this process.
fn live_threads_cpu_ns() -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        total += schedstat_ns(&task.ok()?.path().join("schedstat"))?;
    }
    Some(total)
}

/// Process CPU time (user + system, every thread, exited ones included) in
/// microseconds, from `/proc/self/stat`. Linux reports it in USER_HZ ticks,
/// 100 per second on every mainstream configuration.
fn stat_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks: u64 = [fields.next(), fields.next()]
        .into_iter()
        .map(|f| f.and_then(|f| f.parse::<u64>().ok()).unwrap_or(0))
        .sum();
    ticks as f64 * 1e4
}

/// CPU time of a measured section, all threads. `schedstat` counts in
/// nanoseconds but only per live thread, so threads that exit inside the
/// section (the load-generator lanes) hand in their own final reading. On a
/// kernel without `schedstat` the 10ms ticks of `/proc/self/stat` stand in.
enum CpuMeter {
    Precise { before_ns: u64 },
    Ticks { before_us: f64 },
}

impl CpuMeter {
    fn start() -> CpuMeter {
        match live_threads_cpu_ns() {
            Some(before_ns) if before_ns > 0 => CpuMeter::Precise { before_ns },
            _ => CpuMeter::Ticks {
                before_us: stat_cpu_us(),
            },
        }
    }

    /// `exited_ns`: the final on-CPU readings of threads alive at `start`
    /// and gone now.
    fn stop_us(self, exited_ns: u64) -> f64 {
        match self {
            CpuMeter::Precise { before_ns } => {
                let now_ns = live_threads_cpu_ns().unwrap_or(before_ns) + exited_ns;
                now_ns.saturating_sub(before_ns) as f64 / 1e3
            }
            CpuMeter::Ticks { before_us } => stat_cpu_us() - before_us,
        }
    }
}

/// Peak resident set (`VmHWM`) in kilobytes.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Runs `lanes` load-generator threads behind one barrier and times them.
/// Each lane does its own set-up, then calls `barrier.wait()` once before
/// its first measured operation. Returns the lanes' outputs, the wall time
/// from barrier release to the last lane's end, and the CPU time between
/// in microseconds.
fn run_lanes<T: Send>(
    lanes: usize,
    beacon: Option<&Beacon>,
    lane_fn: impl Fn(usize, &Barrier) -> T + Sync,
) -> (Vec<T>, u64, f64) {
    let barrier = Barrier::new(lanes + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let (barrier, lane_fn) = (&barrier, &lane_fn);
                scope.spawn(move || {
                    let output = lane_fn(lane, barrier);
                    let own_cpu_ns = schedstat_ns("/proc/thread-self/schedstat".as_ref());
                    (output, own_cpu_ns.unwrap_or(0))
                })
            })
            .collect();
        if let Some(beacon) = beacon {
            beacon.ready();
        }
        let cpu = CpuMeter::start();
        barrier.wait();
        let start = Instant::now();
        let mut lanes_cpu_ns = 0;
        let outputs = handles
            .into_iter()
            .map(|h| {
                let (output, own_cpu_ns) = h.join().expect("load-generator thread panicked");
                lanes_cpu_ns += own_cpu_ns;
                output
            })
            .collect();
        let elapsed = start.elapsed().as_nanos() as u64;
        (outputs, elapsed, cpu.stop_us(lanes_cpu_ns))
    })
}

fn counter(snapshot: &Snapshot, name: &str) -> f64 {
    snapshot.counter_value(name).unwrap_or(0) as f64
}

fn sink_recorder() -> Arc<dyn Recorder> {
    Arc::new(JsonlRecorder::new(Box::new(std::io::sink())))
}

fn op_id(lane: usize, index: usize) -> u64 {
    ((lane as u64) << 32) | index as u64
}

// ---- store_closed_b1 ---------------------------------------------------

fn closed_store(seed: u64, recorder: bool) -> ReplicatedStore<KvStore> {
    let builder = ReplicatedStore::<KvStore>::builder().seed(seed);
    if recorder {
        builder.recorder(sink_recorder()).build()
    } else {
        builder.build()
    }
}

fn closed_lanes(
    store: &ReplicatedStore<KvStore>,
    scripts: &[Vec<KvCommand>],
    traced: bool,
    beacon: &Beacon,
    announce: bool,
) -> (Vec<Lane>, u64, f64) {
    let epoch = Instant::now();
    run_lanes(
        scripts.len(),
        announce.then_some(beacon),
        |lane, barrier| {
            let script = &scripts[lane];
            let mut client = store.client();
            let mut model = KvStore::new();
            let mut out = Lane::default();
            out.samples.reserve(script.len());
            let mut log = traced.then(|| SpanLog::new(epoch, script.len() * 3));
            barrier.wait();
            for (i, command) in script.iter().enumerate() {
                let start = Instant::now();
                let (result, end) = match &mut log {
                    Some(log) => {
                        let handle = client.submit(*command);
                        let submitted = Instant::now();
                        let result = handle.wait();
                        let end = Instant::now();
                        let op = op_id(lane, i);
                        let call = log.push("store.call", start, end, None, op);
                        log.push("store.submit", start, submitted, Some(call), op);
                        log.push("store.wait", submitted, end, Some(call), op);
                        (result, end)
                    }
                    None => {
                        let result = client.call(*command);
                        (result, Instant::now())
                    }
                };
                out.sample((end - start).as_nanos() as u64, 1);
                let expected = model.apply(command);
                out.check(result == Ok(expected), || {
                    format!(
                        "client {lane} call {i} {command:?}: got {result:?}, expected {expected:?}"
                    )
                });
                beacon.add(1);
            }
            if let Some(log) = log {
                out.spans = log.into_spans();
            }
            out
        },
    )
}

fn store_closed_b1(spec: &ChildSpec, size: usize, beacon: &Beacon) -> Trial {
    let scripts: Vec<_> = (0..2)
        .map(|c| script::closed_script(spec.seed, c, size))
        .collect();
    {
        let warm: Vec<_> = scripts
            .iter()
            .map(|s| s[..(size / 20).max(50).min(size)].to_vec())
            .collect();
        let mut store = closed_store(spec.seed, spec.recorder);
        closed_lanes(&store, &warm, spec.traced, beacon, false);
        store.shutdown();
    }
    let mut store = closed_store(spec.seed, spec.recorder);
    let (lanes, elapsed_ns, cpu_us) = closed_lanes(&store, &scripts, spec.traced, beacon, true);
    let snapshot = store.telemetry().snapshot();
    let slots = store.learned_slots() as f64;
    store.shutdown();

    let mut trial = Trial {
        ops: 2 * size as u64,
        elapsed_ns,
        cpu_us,
        ..Trial::default()
    };
    lanes.into_iter().for_each(|lane| trial.absorb(lane));
    let applied = counter(&snapshot, "commands_applied");
    if applied != trial.ops as f64 {
        trial.violate(format!("commands_applied {applied}, offered {}", trial.ops));
    }
    trial.layer("store.ns_per_call", trial.ns_per_op());
    if !spec.recorder {
        trial.layer("store.learned_slots", slots);
        trial.layer("store.commands_per_slot", applied / slots.max(1.0));
        trial.layer("store.slot_ns", elapsed_ns as f64 / slots.max(1.0));
        // Ratios are measured where the work happens: the store's own
        // ledger, with both sequencers contending for every slot.
        let ratio = |part: &str, whole: f64| counter(&snapshot, part) / whole.max(1.0);
        let decisions = counter(&snapshot, "decisions");
        let pool_checkouts = counter(&snapshot, "pool_hits") + counter(&snapshot, "pool_misses");
        let prob_writes = counter(&snapshot, "prob_writes_attempted");
        trial.layer(
            "consensus.fast_path_rate",
            ratio("fast_path_hits", decisions),
        );
        trial.layer(
            "consensus.stage_entries_per_decision",
            ratio("stage_entries", decisions),
        );
        trial.layer(
            "consensus.prob_write_success",
            if prob_writes == 0.0 {
                1.0
            } else {
                ratio("prob_writes_performed", prob_writes)
            },
        );
        trial.layer("engine.pool_hit_rate", ratio("pool_hits", pool_checkouts));
        trial.layer_from_spans(&[
            ("store.call", "store.call_ns", 1.0),
            ("store.submit", "store.submit_ns", 1.0),
            ("store.wait", "store.wait_ns", 1.0),
        ]);
    }
    trial
}

// ---- store_open_sat ----------------------------------------------------

/// The sequential specification of one key, written out independently of
/// `KvStore::apply`: the verifier must not speed up when the machine under
/// test does.
fn apply_to_cell(cell: &mut Option<u64>, command: &KvCommand) -> KvResponse {
    match *command {
        KvCommand::Get { .. } => KvResponse::Value(*cell),
        KvCommand::Put { value, .. } => KvResponse::Stored(cell.replace(value)),
        KvCommand::Cas { expect, value, .. } => {
            let actual = *cell;
            let applied = actual == expect;
            if applied {
                *cell = Some(value);
            }
            KvResponse::Swapped { applied, actual }
        }
        KvCommand::Delete { .. } => KvResponse::Removed(cell.take()),
    }
}

fn open_store(seed: u64) -> ReplicatedStore<KvStore> {
    ReplicatedStore::<KvStore>::builder()
        .batch_commands(4096)
        .expected_sessions(2 * OPEN_SESSIONS as usize)
        .seed(seed)
        .build()
}

fn open_lanes(
    store: &ReplicatedStore<KvStore>,
    seed: u64,
    len: u64,
    traced: bool,
    beacon: &Beacon,
    announce: bool,
) -> (Vec<Lane>, u64, f64) {
    let epoch = Instant::now();
    run_lanes(2, announce.then_some(beacon), |lane, barrier| {
        let mut script = OpenScript::new(seed, lane as u64, len);
        let mut verifier = script.clone();
        let mut cells: Vec<Option<u64>> = vec![None; OPEN_SESSIONS as usize];
        let mut out = Lane::default();
        let mut log = traced.then(|| SpanLog::new(epoch, 2 * (len as usize / OPEN_CHUNK + 1)));
        let mut inflight = VecDeque::new();
        let mut outstanding = 0usize;
        let mut chunk_ix = 0usize;
        // Waits out the oldest chunk, checking every response against the
        // session's own history.
        let mut reap =
            |out: &mut Lane,
             log: &mut Option<SpanLog>,
             (chunk, submitted, handles): (usize, Instant, Vec<_>)| {
                let reaped = handles.len();
                let wait_start = Instant::now();
                for handle in handles {
                    let result: Result<KvResponse, _> = mc_store::CommandHandle::wait(&handle);
                    let (client, seq, command) = verifier.next().expect("one command per handle");
                    let cell = &mut cells[verifier.session_index(client)];
                    let expected = apply_to_cell(cell, &command);
                    out.check(result == Ok(expected), || {
                    format!("session {client} seq {seq} {command:?}: got {result:?}, expected {expected:?}")
                });
                }
                let end = Instant::now();
                out.sample((end - submitted).as_nanos() as u64, reaped as u64);
                if let Some(log) = log {
                    log.push(
                        "store.batch_wait",
                        wait_start,
                        end,
                        None,
                        op_id(lane, chunk),
                    );
                }
                beacon.add(reaped as u64);
                reaped
            };
        barrier.wait();
        loop {
            let start = Instant::now();
            let handles = store.submit_batch(script.by_ref().take(OPEN_CHUNK));
            if handles.is_empty() {
                break;
            }
            if let Some(log) = &mut log {
                log.push(
                    "store.batch_submit",
                    start,
                    Instant::now(),
                    None,
                    op_id(lane, chunk_ix),
                );
            }
            outstanding += handles.len();
            inflight.push_back((chunk_ix, start, handles));
            chunk_ix += 1;
            while outstanding > OPEN_WINDOW {
                let oldest = inflight.pop_front().expect("outstanding handles");
                outstanding -= reap(&mut out, &mut log, oldest);
            }
        }
        for chunk in inflight {
            reap(&mut out, &mut log, chunk);
        }
        if let Some(log) = log {
            out.spans = log.into_spans();
        }
        out
    })
}

fn store_open_sat(spec: &ChildSpec, size: usize, beacon: &Beacon) -> Trial {
    let len = size as u64;
    {
        let mut store = open_store(spec.seed);
        open_lanes(
            &store,
            spec.seed,
            (len / 20).max(2048).min(len),
            spec.traced,
            beacon,
            false,
        );
        store.shutdown();
    }
    let mut store = open_store(spec.seed);
    let (lanes, elapsed_ns, cpu_us) = open_lanes(&store, spec.seed, len, spec.traced, beacon, true);
    let snapshot = store.telemetry().snapshot();
    let slots = store.learned_slots() as f64;
    store.shutdown();

    let mut trial = Trial {
        ops: 2 * len,
        elapsed_ns,
        cpu_us,
        ..Trial::default()
    };
    lanes.into_iter().for_each(|lane| trial.absorb(lane));
    let applied = counter(&snapshot, "commands_applied");
    let sessions = counter(&snapshot, "sessions_created");
    let expected_sessions = (2 * len.min(OPEN_SESSIONS)) as f64;
    if applied != trial.ops as f64 || sessions != expected_sessions {
        trial.violate(format!(
            "applied {applied} of {} commands over {sessions} of {expected_sessions} sessions",
            trial.ops
        ));
    }
    trial.layer("store.sessions_created", sessions);
    trial.layer("store.open_commands_per_slot", applied / slots.max(1.0));
    trial.layer_from_spans(&[(
        "store.batch_submit",
        "store.batch_submit_ns",
        OPEN_CHUNK as f64,
    )]);
    trial
}

// ---- store_read_mix ----------------------------------------------------

fn read_mix_lanes(
    store: &ReplicatedStore<KvStore>,
    scripts: &[Vec<script::ReadMixStep>],
    traced: bool,
    beacon: &Beacon,
    announce: bool,
) -> (Vec<Lane>, u64, f64) {
    let epoch = Instant::now();
    run_lanes(
        scripts.len(),
        announce.then_some(beacon),
        |lane, barrier| {
            let steps = &scripts[lane];
            let mut client = store.client();
            let mut model = KvStore::new();
            let mut out = Lane::default();
            out.samples.reserve(2 * steps.len());
            let mut log = traced.then(|| SpanLog::new(epoch, 2 * steps.len()));
            barrier.wait();
            for (i, step) in steps.iter().enumerate() {
                let start = Instant::now();
                let result = client.call(step.write);
                let written = Instant::now();
                let mut seen = [None; READ_BLOCK];
                for (slot, &key) in seen.iter_mut().zip(&step.reads) {
                    *slot = client.read(|kv| kv.get(key));
                }
                let end = Instant::now();
                out.sample((written - start).as_nanos() as u64, 1);
                out.sample((end - written).as_nanos() as u64, READ_BLOCK as u64);
                if let Some(log) = &mut log {
                    log.push("store.call", start, written, None, op_id(lane, i));
                    log.push("store.read", written, end, None, op_id(lane, i));
                }
                let expected = model.apply(&step.write);
                out.check(result == Ok(expected), || {
                    format!("client {lane} write {i}: got {result:?}, expected {expected:?}")
                });
                for (&key, got) in step.reads.iter().zip(seen) {
                    out.check(got == model.get(key), || {
                    format!("client {lane} step {i} read of key {key}: got {got:?}, own last write left {:?}", model.get(key))
                });
                }
                beacon.add(1 + READ_BLOCK as u64);
            }
            if let Some(log) = log {
                out.spans = log.into_spans();
            }
            out
        },
    )
}

fn store_read_mix(spec: &ChildSpec, size: usize, beacon: &Beacon) -> Trial {
    let scripts: Vec<_> = (0..2)
        .map(|c| script::read_mix_script(spec.seed, c, size))
        .collect();
    {
        let warm: Vec<_> = scripts
            .iter()
            .map(|s| s[..(size / 20).max(50).min(size)].to_vec())
            .collect();
        let mut store = closed_store(spec.seed, false);
        read_mix_lanes(&store, &warm, spec.traced, beacon, false);
        store.shutdown();
    }
    let mut store = closed_store(spec.seed, false);
    let (lanes, elapsed_ns, cpu_us) = read_mix_lanes(&store, &scripts, spec.traced, beacon, true);
    let snapshot = store.telemetry().snapshot();
    store.shutdown();

    let mut trial = Trial {
        ops: (2 * size * (1 + READ_BLOCK)) as u64,
        elapsed_ns,
        cpu_us,
        ..Trial::default()
    };
    lanes.into_iter().for_each(|lane| trial.absorb(lane));
    let reads = (2 * size * READ_BLOCK) as f64;
    let fast_reads = counter(&snapshot, "fast_reads");
    if fast_reads != reads {
        trial.violate(format!("fast_reads {fast_reads}, issued {reads}"));
    }
    trial.layer("store.fast_reads", fast_reads);
    trial.layer("store.lease_grants", counter(&snapshot, "lease_grants"));
    // Without spans the read cost still shows: the block samples carry it.
    let (read_ns, read_ops) = trial
        .samples
        .iter()
        .filter(|s| s.weight == READ_BLOCK as u64)
        .fold((0.0, 0u64), |(ns, ops), s| {
            (ns + s.value * s.weight as f64, ops + s.weight)
        });
    trial.layer("store.read_ns", read_ns / read_ops.max(1) as f64);
    trial
}

// ---- service_pipelined -------------------------------------------------

const SERVICE_VALUES: u64 = 2;

fn pipelined_service(seed: u64) -> ConsensusService {
    ConsensusService::builder()
        .n(2)
        .values(SERVICE_VALUES)
        .participants(1)
        .seed(seed)
        .build()
}

fn service_lanes(
    service: &ConsensusService,
    scripts: &[Vec<(u64, u64)>],
    traced: bool,
    beacon: &Beacon,
    announce: bool,
) -> (Vec<Lane>, u64, f64) {
    let epoch = Instant::now();
    run_lanes(
        scripts.len(),
        announce.then_some(beacon),
        |lane, barrier| {
            let script = &scripts[lane];
            let mut out = Lane::default();
            let mut log =
                traced.then(|| SpanLog::new(epoch, 3 * (script.len() / SERVICE_CHUNK + 1)));
            barrier.wait();
            for (c, chunk) in script.chunks(SERVICE_CHUNK).enumerate() {
                let start = Instant::now();
                let handles = service.submit_batch(chunk);
                let submitted = Instant::now();
                let decisions: Vec<_> = handles
                    .into_iter()
                    .map(|admitted| admitted.and_then(|handle| handle.wait()))
                    .collect();
                let end = Instant::now();
                out.sample((end - start).as_nanos() as u64, chunk.len() as u64);
                if let Some(log) = &mut log {
                    let op = op_id(lane, c);
                    let round = log.push("service.chunk", start, end, None, op);
                    log.push("service.submit", start, submitted, Some(round), op);
                    log.push("service.wait", submitted, end, Some(round), op);
                }
                // One participant per instance: validity pins the decision to
                // the sole proposal.
                for (&(id, proposal), decision) in chunk.iter().zip(decisions) {
                    out.check(decision == Ok(proposal), || {
                        format!("instance {id} proposed {proposal}, decided {decision:?}")
                    });
                }
                beacon.add(chunk.len() as u64);
            }
            if let Some(log) = log {
                out.spans = log.into_spans();
            }
            out
        },
    )
}

/// The same proposal stream straight into `ConsensusEngine::submit`, one
/// thread per producer: the denominator of `service.vs_engine_ratio`.
fn engine_direct_ops_per_s(seed: u64, scripts: &[Vec<(u64, u64)>], beacon: &Beacon) -> f64 {
    let engine = ConsensusEngine::builder()
        .n(2)
        .values(SERVICE_VALUES)
        .participants(1)
        .build();
    let (_, elapsed_ns, _) = run_lanes(scripts.len(), None, |lane, barrier| {
        let mut rng = SmallRng::seed_from_u64(seed + lane as u64);
        barrier.wait();
        for &(id, proposal) in &scripts[lane] {
            std::hint::black_box(engine.submit(id, proposal, &mut rng));
            beacon.add(1);
        }
    });
    let ops: usize = scripts.iter().map(Vec::len).sum();
    ops as f64 / (elapsed_ns as f64 / 1e9)
}

fn service_pipelined(spec: &ChildSpec, size: usize, beacon: &Beacon) -> Trial {
    let scripts: Vec<_> = (0..2)
        .map(|p| script::service_script(spec.seed, p, size))
        .collect();
    {
        let warm: Vec<_> = scripts
            .iter()
            .map(|s| s[..(size / 20).max(SERVICE_CHUNK).min(size)].to_vec())
            .collect();
        let mut service = pipelined_service(spec.seed);
        service_lanes(&service, &warm, spec.traced, beacon, false);
        service.shutdown();
    }
    let mut service = pipelined_service(spec.seed);
    let (lanes, elapsed_ns, cpu_us) = service_lanes(&service, &scripts, spec.traced, beacon, true);
    let snapshot = service.telemetry().snapshot();
    // Gauges have no string-keyed accessor on `Snapshot`; its JSON has.
    let max_depth = Value::parse(&snapshot.to_json())
        .ok()
        .and_then(|json| json.get("gauges")?.get("queue_depth")?.f64_at("max"))
        .unwrap_or(0.0);
    service.shutdown();

    let mut trial = Trial {
        ops: 2 * size as u64,
        elapsed_ns,
        cpu_us,
        ..Trial::default()
    };
    lanes.into_iter().for_each(|lane| trial.absorb(lane));
    let enqueued = counter(&snapshot, "proposals_enqueued");
    if enqueued != trial.ops as f64 {
        trial.violate(format!(
            "proposals_enqueued {enqueued}, offered {}",
            trial.ops
        ));
    }
    let drains = counter(&snapshot, "batches_drained").max(1.0);
    trial.layer("service.mean_drain_batch", enqueued / drains);
    trial.layer("service.max_queue_depth", max_depth);
    if spec.traced {
        trial.layer_from_spans(&[
            ("service.submit", "service.submit_ns", SERVICE_CHUNK as f64),
            ("service.wait", "service.wait_ns", SERVICE_CHUNK as f64),
        ]);
        let service_ops_per_s = trial.ops as f64 / (elapsed_ns as f64 / 1e9);
        let engine_ops_per_s = engine_direct_ops_per_s(spec.seed, &scripts, beacon);
        trial.layer(
            "service.vs_engine_ratio",
            service_ops_per_s / engine_ops_per_s,
        );
    }
    trial
}

// ---- sim_sweep, sim_sweep_jsonl ------------------------------------------

fn sim_sweep(spec: &ChildSpec, runs: usize, jsonl: bool, beacon: &Beacon) -> Trial {
    let protocol = ConsensusBuilder::multivalued(SIM_VALUES).build();
    let seeds = script::sim_seeds(spec.seed, runs);
    let run_inputs: Vec<_> = seeds
        .iter()
        .map(|&s| inputs::random(SIM_N, SIM_VALUES, s))
        .collect();
    let jsonl_recorder = JsonlRecorder::new(Box::new(std::io::sink()));
    let (recorder, config): (&dyn Recorder, _) = if jsonl {
        (&jsonl_recorder, EngineConfig::default().with_trace())
    } else {
        (&NoopRecorder, EngineConfig::default())
    };
    let epoch = Instant::now();
    let mut log = spec.traced.then(|| SpanLog::new(epoch, 2 * runs));
    let mut lane = Lane::default();
    lane.samples.reserve(runs);
    let mut total_work = 0u64;

    let one_run = |i: usize, measured: Option<(&mut Lane, &mut Option<SpanLog>)>| {
        let (seed, ins) = (seeds[i], &run_inputs[i]);
        let start = Instant::now();
        let outcome = harness::run_object(
            &protocol,
            ins,
            &mut RandomScheduler::new(seed),
            seed,
            &config,
        );
        let simulated = Instant::now();
        if let (true, Ok(out)) = (jsonl, &outcome) {
            observe::export_run(seed, out.trace.as_ref(), &out.metrics, recorder);
        }
        let end = Instant::now();
        beacon.add(1);
        let Some((lane, log)) = measured else {
            return 0;
        };
        lane.sample((end - start).as_nanos() as u64, 1);
        if let Some(log) = log {
            let run = log.push("sim.run", start, end, None, i as u64);
            log.push("sim.simulate", start, simulated, Some(run), i as u64);
            if jsonl {
                log.push("sim.export", simulated, end, Some(run), i as u64);
            }
        }
        let verdict = outcome.map_err(|e| format!("{e:?}")).and_then(|out| {
            match check_consensus(ins, &out.outputs) {
                Ok(()) => Ok(out.metrics.total_work()),
                Err(violation) => Err(format!("{violation:?}")),
            }
        });
        lane.check(verdict.is_ok(), || {
            format!(
                "sim run {i} (seed {seed}): {}",
                verdict.clone().unwrap_err()
            )
        });
        verdict.unwrap_or(0)
    };

    for i in 0..(runs / 20).max(5).min(runs) {
        one_run(i, None);
    }
    let events_before = jsonl_recorder.events_written();
    beacon.ready();
    let cpu = CpuMeter::start();
    let start = Instant::now();
    for i in 0..runs {
        total_work += one_run(i, Some((&mut lane, &mut log)));
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let cpu_us = cpu.stop_us(0);
    if let Some(log) = log {
        lane.spans = log.into_spans();
    }

    let mut trial = Trial {
        ops: runs as u64,
        elapsed_ns,
        cpu_us,
        ..Trial::default()
    };
    trial.absorb(lane);
    if jsonl {
        let events = jsonl_recorder.events_written() - events_before;
        trial.layer("telemetry.events_per_run", events as f64 / runs as f64);
        trial.layer(
            "telemetry.ops_per_event",
            total_work as f64 / events.max(1) as f64,
        );
        trial.layer(
            "telemetry.jsonl_ns_per_op",
            elapsed_ns as f64 / total_work.max(1) as f64,
        );
    } else {
        trial.layer(
            "sim.ns_per_op",
            elapsed_ns as f64 / total_work.max(1) as f64,
        );
    }
    trial.layer("sim.total_work", total_work as f64);
    trial
}

// ---- entry point ---------------------------------------------------------

fn run_job(spec: &ChildSpec, beacon: &Beacon) -> Trial {
    let scaled = |w: Workload| (w.lane_size() / spec.scale.max(1)).max(1);
    match spec.job {
        Job::Trial(w @ Workload::StoreClosedB1) => store_closed_b1(spec, scaled(w), beacon),
        Job::Trial(w @ Workload::StoreOpenSat) => store_open_sat(spec, scaled(w), beacon),
        Job::Trial(w @ Workload::StoreReadMix) => store_read_mix(spec, scaled(w), beacon),
        Job::Trial(w @ Workload::ServicePipelined) => service_pipelined(spec, scaled(w), beacon),
        Job::Trial(w @ Workload::SimSweep) => sim_sweep(spec, scaled(w), false, beacon),
        Job::Trial(w @ Workload::SimSweepJsonl) => sim_sweep(spec, scaled(w), true, beacon),
        Job::Probes => probes::ladder(spec, beacon),
        Job::HostFree => probes::host_free(beacon),
    }
}

/// Runs the job and prints its report line. Returns whether the report
/// could be delivered (spans written, line printed).
pub fn run(spec: &ChildSpec) -> Result<(), String> {
    let trial = with_heartbeat(|beacon| run_job(spec, beacon));
    if let Some(path) = &spec.trace_out {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        span::write_jsonl(&trial.spans, &mut std::io::BufWriter::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let samples: Vec<Value> = trial
        .samples
        .iter()
        .flat_map(|s| [Value::from(s.value), Value::from(s.weight)])
        .collect();
    let mut layer = Value::obj();
    for (name, value) in &trial.layers {
        layer.set(name, *value);
    }
    let report = Value::obj()
        .with("ops", trial.ops)
        .with("attempted", trial.attempted)
        .with("failed", trial.failed)
        .with("elapsed_ns", trial.elapsed_ns)
        .with("cpu_us", trial.cpu_us)
        .with("rss_kb", peak_rss_kb())
        .with(
            "violation",
            trial.violation.map_or(Value::Null, Value::from),
        )
        .with("spans", trial.spans.len() as u64)
        .with("layer", layer)
        .with("samples", samples);
    println!("report {}", report.render());
    Ok(())
}
