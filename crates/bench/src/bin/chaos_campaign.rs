//! Service-level chaos campaign: sweep chaos plan × supervision policy
//! over the pipelined [`ConsensusService`] and gate on exactly-once
//! delivery under worker panics, stalls, and register faults.
//!
//! ```text
//! chaos_campaign [--seeds <K>] [--out <path>]
//! ```
//!
//! Every cell runs `K` seeded executions of a chaos-injected service:
//! workers panic at drain boundaries and stall mid-drain on the plan's
//! deterministic cadence, while register-level faults (lost probabilistic
//! writes, stale reads) stress the protocol underneath. Because every
//! proposal runs with `participants = 1`, the solo submitter's proposal is
//! the only valid decision, so correctness is exact — not statistical:
//!
//! * **zero lost decisions** — every submitted handle settles with its own
//!   proposal; a poisoned or wrong handle is a campaign failure.
//! * **zero duplicates** — the telemetry ledger must reconcile exactly:
//!   `proposals_enqueued == decisions == submitted`, with an empty queue
//!   and no leftover in-flight cells after shutdown.
//! * **bounded restarts** — `worker_restarts` never exceeds the policy's
//!   budget times the worker count, and recovery latency quantiles
//!   (panic-catch → drain-loop reentry, backoff included) are reported as
//!   `recovery_p50_ns` / `recovery_p99_ns` per cell and pooled.
//!
//! Emits one machine-readable JSON line per cell on stdout and writes the
//! pooled summary (recovery quantiles, totals, verdict) to `--out`
//! (default `BENCH_chaos_recovery.json`).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use mc_runtime::{
    AtomicMemory, ChaosPlan, ConsensusService, CounterKey, FaultPlan, FaultyMemory, GaugeKey,
    HistKey, SupervisorOptions,
};
use mc_telemetry::HistogramSnapshot;
use mc_telemetry::{json::Obj, json_key};

const WORKERS: usize = 2;
/// Proposals per chaos run: enough to spread over both rings and force
/// several drains per worker.
const CHAOS_OPS: u64 = 192;
const SUBMIT_BATCH: usize = 32;
const VALUES: u64 = 64;

/// One cell of the sweep: a named chaos plan shape.
#[derive(Debug, Clone, Copy)]
struct PlanCell {
    label: &'static str,
    panic_every: u64,
    max_panics: u32,
    stall_every: u64,
    stall_us: u64,
    lost: f64,
    stale: f64,
}

impl PlanCell {
    fn plan(&self, seed: u64) -> ChaosPlan {
        let mut plan = ChaosPlan::seeded(seed ^ 0x000C_4A05);
        if self.max_panics > 0 {
            plan = plan.panic_every(self.panic_every, self.max_panics);
        }
        if self.stall_every > 0 {
            plan = plan.stall_every(self.stall_every, Duration::from_micros(self.stall_us));
        }
        let mut faults = FaultPlan::seeded(seed ^ 0xFA17);
        if self.lost > 0.0 {
            faults = faults.lost_prob_writes(self.lost);
        }
        if self.stale > 0.0 {
            faults = faults.stale_reads(self.stale);
        }
        plan.faults(faults)
    }
}

const PLANS: &[PlanCell] = &[
    PlanCell {
        label: "none",
        panic_every: 0,
        max_panics: 0,
        stall_every: 0,
        stall_us: 0,
        lost: 0.0,
        stale: 0.0,
    },
    PlanCell {
        label: "panic@1x2",
        panic_every: 1,
        max_panics: 2,
        stall_every: 0,
        stall_us: 0,
        lost: 0.0,
        stale: 0.0,
    },
    PlanCell {
        label: "panic@3x3",
        panic_every: 3,
        max_panics: 3,
        stall_every: 0,
        stall_us: 0,
        lost: 0.0,
        stale: 0.0,
    },
    PlanCell {
        label: "stall@2",
        panic_every: 0,
        max_panics: 0,
        stall_every: 2,
        stall_us: 300,
        lost: 0.0,
        stale: 0.0,
    },
    PlanCell {
        label: "panic+stall",
        panic_every: 2,
        max_panics: 2,
        stall_every: 3,
        stall_us: 200,
        lost: 0.0,
        stale: 0.0,
    },
    PlanCell {
        label: "panic+faults",
        panic_every: 2,
        max_panics: 2,
        stall_every: 0,
        stall_us: 0,
        lost: 0.3,
        stale: 0.2,
    },
    PlanCell {
        label: "kitchen-sink",
        panic_every: 1,
        max_panics: 3,
        stall_every: 4,
        stall_us: 200,
        lost: 0.2,
        stale: 0.2,
    },
];

/// One supervision policy under test.
#[derive(Debug, Clone, Copy)]
struct Policy {
    label: &'static str,
    restart_budget: u32,
    base_backoff_us: u64,
    max_backoff_us: u64,
}

impl Policy {
    fn supervisor(&self) -> SupervisorOptions {
        SupervisorOptions {
            restart_budget: self.restart_budget,
            base_backoff: Duration::from_micros(self.base_backoff_us),
            max_backoff: Duration::from_micros(self.max_backoff_us),
        }
    }
}

const POLICIES: &[Policy] = &[
    Policy {
        label: "tight",
        restart_budget: 3,
        base_backoff_us: 200,
        max_backoff_us: 2_000,
    },
    Policy {
        label: "roomy",
        restart_budget: 8,
        base_backoff_us: 50,
        max_backoff_us: 500,
    },
];

#[derive(Debug, Default)]
struct CellStats {
    runs: u64,
    lost: u64,
    duplicates: u64,
    restarts: u64,
    resubmitted: u64,
    poisoned_runs: u64,
    recovery: Vec<HistogramSnapshot>,
}

/// Merges per-run recovery histograms by bucket upper bound (all runtime
/// histograms share the same log-scale boundaries).
fn merge_histograms(parts: &[HistogramSnapshot]) -> HistogramSnapshot {
    use std::collections::BTreeMap;
    let mut buckets: BTreeMap<u64, u64> = BTreeMap::new();
    let mut merged = HistogramSnapshot {
        count: 0,
        sum: 0,
        max: 0,
        buckets: Vec::new(),
    };
    for part in parts {
        merged.count += part.count;
        merged.sum += part.sum;
        merged.max = merged.max.max(part.max);
        for &(upper, n) in &part.buckets {
            *buckets.entry(upper).or_insert(0) += n;
        }
    }
    merged.buckets = buckets.into_iter().collect();
    merged
}

/// One seeded chaos run: submit `CHAOS_OPS` proposals through a
/// chaos-injected service, wait every handle, and reconcile the ledger.
fn run_chaos(cell: &PlanCell, policy: &Policy, seed: u64, stats: &mut CellStats) {
    let plan = cell.plan(seed);
    let service = ConsensusService::builder()
        .n(2)
        .values(VALUES)
        .participants(1)
        .shards(WORKERS)
        .seed(seed)
        .memory(FaultyMemory::new(AtomicMemory, plan.faults))
        .chaos(plan)
        .supervisor(policy.supervisor())
        .build();

    stats.runs += 1;
    let mut handles = Vec::with_capacity(CHAOS_OPS as usize);
    for chunk_start in (0..CHAOS_OPS).step_by(SUBMIT_BATCH) {
        let chunk: Vec<(u64, u64)> = (chunk_start
            ..(chunk_start + SUBMIT_BATCH as u64).min(CHAOS_OPS))
            .map(|i| (i, i % VALUES))
            .collect();
        for result in service.submit_batch(&chunk) {
            handles.push(result.expect("Block admits every proposal"));
        }
    }
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.wait() {
            Ok(v) if v == i as u64 % VALUES => {}
            _ => stats.lost += 1,
        }
    }

    let telemetry = Arc::clone(service.engine().telemetry_handle());
    drop(service);

    // Exactly-once ledger: every submission admitted once, decided once,
    // and nothing left queued or in flight after the workers join.
    if telemetry.count(CounterKey::ProposalsEnqueued) != CHAOS_OPS
        || telemetry.count(CounterKey::Decisions) != CHAOS_OPS
        || telemetry.gauge(GaugeKey::QueueDepth) != 0
    {
        stats.duplicates += 1;
    }
    let restarts = telemetry.count(CounterKey::WorkerRestarts);
    stats.restarts += restarts;
    stats.resubmitted += telemetry.count(CounterKey::ResubmittedCells);
    if restarts > u64::from(policy.restart_budget) * WORKERS as u64 {
        stats.poisoned_runs += 1;
    }
    stats
        .recovery
        .push(telemetry.hist(HistKey::WorkerRecoveryNs).snapshot());
}

/// Silences the default panic hook for the campaign's own injected worker
/// panics — hundreds of identical backtraces would drown the report —
/// while leaving every unexpected panic loud.
fn quiet_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !message.starts_with("chaos: injected") {
            default_hook(info);
        }
    }));
}

fn run(seeds: u64, out_path: &str) -> Result<(), String> {
    quiet_injected_panics();
    eprintln!(
        "chaos campaign: {} plans x {} policies x {seeds} seeds, \
         {CHAOS_OPS} proposals per run, {WORKERS} workers",
        PLANS.len(),
        POLICIES.len(),
    );

    let mut pass = true;
    let mut total_restarts = 0u64;
    let mut total_resubmitted = 0u64;
    let mut total_lost = 0u64;
    let mut total_duplicates = 0u64;
    let mut all_recovery: Vec<HistogramSnapshot> = Vec::new();

    for cell in PLANS {
        for policy in POLICIES {
            // A plan whose per-worker panic budget exceeds the policy's
            // restart budget is *expected* to poison; the campaign only
            // sweeps recoverable combinations, so skip those cells.
            if cell.max_panics > policy.restart_budget {
                continue;
            }
            let mut stats = CellStats::default();
            for seed in 0..seeds {
                run_chaos(cell, policy, seed.wrapping_mul(0x9E37_79B9) + 1, &mut stats);
            }
            let recovery = merge_histograms(&stats.recovery);
            let cell_ok = stats.lost == 0 && stats.duplicates == 0 && stats.poisoned_runs == 0;
            if !cell_ok {
                pass = false;
            }
            total_restarts += stats.restarts;
            total_resubmitted += stats.resubmitted;
            total_lost += stats.lost;
            total_duplicates += stats.duplicates;
            all_recovery.push(recovery.clone());

            let mut line = Obj::new();
            line.str_field(json_key!({ "bench" }), "chaos_campaign")
                .str_field(json_key!("plan"), cell.label)
                .str_field(json_key!("policy"), policy.label)
                .u64_field(json_key!("seeds"), stats.runs)
                .u64_field(json_key!("lost"), stats.lost)
                .u64_field(json_key!("duplicate_ledgers"), stats.duplicates)
                .u64_field(json_key!("worker_restarts"), stats.restarts)
                .u64_field(json_key!("resubmitted_cells"), stats.resubmitted)
                .u64_field(json_key!("over_budget_runs"), stats.poisoned_runs)
                .u64_field(json_key!("recovery_count"), recovery.count)
                .u64_field(json_key!("recovery_p50_ns"), recovery.quantile_upper(0.50))
                .u64_field(json_key!("recovery_p99_ns"), recovery.quantile_upper(0.99))
                .str_field(
                    json_key!("verdict"),
                    if cell_ok { "exactly-once" } else { "VIOLATED" },
                );
            println!("{}", line.finish());
            eprintln!(
                "{:<13} / {:<5} restarts={:<3} resubmitted={:<4} lost={} dup={} {}",
                cell.label,
                policy.label,
                stats.restarts,
                stats.resubmitted,
                stats.lost,
                stats.duplicates,
                if cell_ok { "ok" } else { "VIOLATED" },
            );
        }
    }

    let pooled = merge_histograms(&all_recovery);
    let mut summary = Obj::new();
    summary
        .str_field(json_key!({ "bench" }), "chaos_recovery")
        .u64_field(json_key!("plans"), PLANS.len() as u64)
        .u64_field(json_key!("policies"), POLICIES.len() as u64)
        .u64_field(json_key!("seeds_per_cell"), seeds)
        .u64_field(json_key!("workers"), WORKERS as u64)
        .u64_field(json_key!("proposals_per_run"), CHAOS_OPS)
        .u64_field(json_key!("decisions_lost"), total_lost)
        .u64_field(json_key!("duplicate_ledgers"), total_duplicates)
        .u64_field(json_key!("worker_restarts"), total_restarts)
        .u64_field(json_key!("resubmitted_cells"), total_resubmitted)
        .u64_field(json_key!("recovery_count"), pooled.count)
        .u64_field(json_key!("recovery_p50_ns"), pooled.quantile_upper(0.50))
        .u64_field(json_key!("recovery_p99_ns"), pooled.quantile_upper(0.99))
        .u64_field(json_key!("recovery_max_ns"), pooled.max)
        .bool_field(json_key!("pass"), pass);
    let json = summary.finish();
    println!("{json}");
    std::fs::write(out_path, format!("{json}\n"))
        .map_err(|e| format!("writing {out_path}: {e}"))?;
    eprintln!("report written to {out_path}");

    if !pass {
        return Err("chaos campaign: decisions were lost, duplicated, or over budget".to_string());
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut seeds = 5u64;
    let mut out_path = "BENCH_chaos_recovery.json".to_string();
    let usage = "usage: chaos_campaign [--seeds <K>] [--out <path>]";
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) if v > 0 => seeds = v,
                _ => {
                    eprintln!("--seeds needs a positive integer\n{usage}");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => {
                    eprintln!("--out needs a path\n{usage}");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument: {other}\n{usage}");
                return ExitCode::FAILURE;
            }
        }
    }
    match run(seeds, &out_path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
