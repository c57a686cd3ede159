//! Fault-injection campaign: sweep fault class × rate × protocol over the
//! deterministic lab and classify each paper property as
//! holds / degrades / violated.
//!
//! ```text
//! fault_campaign [--seeds <K>] [--n <procs>] [--rounds <f>]
//! ```
//!
//! Every cell runs `K` seeded lab executions of Theorem 5's
//! `BoundedConsensus` (bound `f`, leader fallback) over `FaultyMemory`
//! wrapping the lab substrate, under a rotating menu of *fair* schedulers
//! (the designated-leader fallback, like any leader-based protocol, needs
//! the leader to be scheduled eventually; the starvation-capable attacker
//! heuristics stay in `lab_explore`, where no fallback is involved).
//!
//! Checked per cell:
//!
//! * **validity / coherence / acceptance** — deterministic safety must
//!   show *zero* violations under every fault plan (window-bounded stale
//!   reads are regular-register semantics, which the ratifier's quorum
//!   argument survives; lost and delayed writes only slow conciliation;
//!   resets are scoped to conciliator registers).
//! * **termination** — `BoundedConsensus` must decide on 100% of seeds,
//!   fallback included.
//! * **agreement probability δ** — estimated as the pooled per-stage
//!   ratification rate among runs that reached the first conciliator;
//!   allowed to *degrade* under faults, never required to hold.
//! * **Theorem 5 reconciliation** — the measured fallback frequency must
//!   match `theory::fallback_probability(δ̂, f) = (1 − δ̂)^f` within a
//!   Chernoff-style tolerance.
//!
//! Emits one machine-readable JSON line per cell plus a final summary
//! line, mirroring `lab_explore`; exits nonzero on any safety violation,
//! termination failure, or reconciliation miss.

use std::process::ExitCode;
use std::sync::Arc;

use mc_analysis::theory;
use mc_lab::Lab;
use mc_quorums::{BinaryScheme, BinomialScheme, QuorumScheme};
use mc_runtime::{Consensus, CounterKey, FaultPlan, FaultyMemory, HistKey};
use mc_sim::adversary::{RandomScheduler, RoundRobin};
use mc_sim::sched::QuantumScheduler;
use mc_sim::Adversary;
use mc_telemetry::{json::Obj, json_key};

const MAX_STEPS: u64 = 400_000;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Proto {
    Binary,
    Multivalued(u64),
}

impl Proto {
    fn capacity(self) -> u64 {
        match self {
            Proto::Binary => 2,
            Proto::Multivalued(m) => m,
        }
    }

    fn scheme(self) -> Arc<dyn QuorumScheme> {
        match self {
            Proto::Binary => Arc::new(BinaryScheme::new()),
            Proto::Multivalued(m) => Arc::new(BinomialScheme::for_capacity(m).expect("m ≥ 2")),
        }
    }

    fn name(self) -> String {
        match self {
            Proto::Binary => "binary".to_string(),
            Proto::Multivalued(m) => format!("multivalued({m})"),
        }
    }
}

/// One cell of the sweep: a fault class at a rate.
#[derive(Debug, Clone, Copy)]
struct Cell {
    label: &'static str,
    lost: f64,
    stale: f64,
    delayed: f64,
    delay_ops: u64,
    reset: f64,
}

impl Cell {
    fn plan(&self, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::seeded(seed ^ 0x5eed_fa17);
        if self.lost > 0.0 {
            plan = plan.lost_prob_writes(self.lost);
        }
        if self.stale > 0.0 {
            plan = plan.stale_reads(self.stale);
        }
        if self.delayed > 0.0 {
            plan = plan.delayed_writes(self.delayed, self.delay_ops);
        }
        if self.reset > 0.0 {
            plan = plan.register_resets(self.reset);
        }
        plan
    }
}

const CELLS: &[Cell] = &[
    Cell {
        label: "none",
        lost: 0.0,
        stale: 0.0,
        delayed: 0.0,
        delay_ops: 3,
        reset: 0.0,
    },
    Cell {
        label: "lost@0.1",
        lost: 0.1,
        stale: 0.0,
        delayed: 0.0,
        delay_ops: 3,
        reset: 0.0,
    },
    Cell {
        label: "lost@0.4",
        lost: 0.4,
        stale: 0.0,
        delayed: 0.0,
        delay_ops: 3,
        reset: 0.0,
    },
    Cell {
        label: "stale@0.1",
        lost: 0.0,
        stale: 0.1,
        delayed: 0.0,
        delay_ops: 3,
        reset: 0.0,
    },
    Cell {
        label: "stale@0.4",
        lost: 0.0,
        stale: 0.4,
        delayed: 0.0,
        delay_ops: 3,
        reset: 0.0,
    },
    Cell {
        label: "delayed@0.1",
        lost: 0.0,
        stale: 0.0,
        delayed: 0.1,
        delay_ops: 3,
        reset: 0.0,
    },
    Cell {
        label: "delayed@0.4",
        lost: 0.0,
        stale: 0.0,
        delayed: 0.4,
        delay_ops: 3,
        reset: 0.0,
    },
    Cell {
        label: "reset@0.02",
        lost: 0.0,
        stale: 0.0,
        delayed: 0.0,
        delay_ops: 3,
        reset: 0.02,
    },
    Cell {
        label: "reset@0.1",
        lost: 0.0,
        stale: 0.0,
        delayed: 0.0,
        delay_ops: 3,
        reset: 0.1,
    },
    Cell {
        label: "combined",
        lost: 0.2,
        stale: 0.2,
        delayed: 0.1,
        delay_ops: 3,
        reset: 0.02,
    },
];

/// Fair schedulers only: the leader fallback needs the leader scheduled
/// eventually, which starvation-capable attackers are free to deny.
fn adversary_for(seed: u64) -> (&'static str, Box<dyn Adversary + Send>) {
    match seed % 3 {
        0 => ("random", Box::new(RandomScheduler::new(seed))),
        1 => ("round-robin", Box::new(RoundRobin::new())),
        _ => ("quantum", Box::new(QuantumScheduler::new(4))),
    }
}

fn inputs_for(capacity: u64, seed: u64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|pid| (seed.wrapping_mul(31).wrapping_add(pid as u64 * 17)) % capacity)
        .collect()
}

#[derive(Debug, Default)]
struct CellStats {
    runs: u64,
    validity_violations: u64,
    coherence_violations: u64,
    termination_failures: u64,
    /// Runs in which some process reached the first conciliator.
    entered_c1: u64,
    /// Runs in which some process took the fallback.
    fell_back: u64,
    /// Conciliator stages entered, summed over entered runs (≤ f each).
    stages_entered: u64,
    /// Entered runs that ratified inside the chain (one success each).
    ratified: u64,
    faults_injected: u64,
}

impl CellStats {
    /// Pooled per-stage ratification probability δ̂ among entered runs.
    fn delta_hat(&self) -> Option<f64> {
        (self.stages_entered > 0).then(|| self.ratified as f64 / self.stages_entered as f64)
    }

    fn measured_fallback(&self) -> Option<f64> {
        (self.entered_c1 > 0).then(|| self.fell_back as f64 / self.entered_c1 as f64)
    }
}

/// Runs one cell of the sweep and accumulates its statistics.
fn run_cell(cell: &Cell, proto: Proto, seeds: u64, n: usize, f: u32) -> CellStats {
    let mut stats = CellStats::default();
    let fast_prefix = 2u64;
    for seed in 0..seeds {
        let (_, adversary) = adversary_for(seed);
        let lab = Lab::new(n, adversary, &[], MAX_STEPS);
        let memory = FaultyMemory::new(lab.memory(), cell.plan(seed));
        let fault_counts = memory.clone();
        let consensus = Consensus::builder()
            .n(n)
            .scheme(proto.scheme())
            .max_conciliator_rounds(f)
            .memory(memory)
            .build_bounded();
        let inputs = inputs_for(proto.capacity(), seed, n);
        stats.runs += 1;
        let report = match lab.run(seed, |pid, rng| consensus.decide(pid, inputs[pid], rng)) {
            Ok(report) => report,
            Err(_) => {
                stats.termination_failures += 1;
                continue;
            }
        };
        stats.faults_injected += fault_counts.faults_injected();

        let decisions: Vec<u64> = report
            .decisions
            .iter()
            .map(|d| d.expect("no crashes configured"))
            .collect();
        let first = decisions[0];
        if !decisions.iter().all(|&d| d == first) {
            stats.coherence_violations += 1;
        }
        if decisions.iter().any(|d| !inputs.contains(d)) {
            stats.validity_violations += 1;
        }

        // Per-run chain depth, read off the object's telemetry after all
        // workers have joined.
        let telemetry = consensus.telemetry();
        let max_stage = telemetry.hist(HistKey::RoundsToDecide).max();
        let fell_back = telemetry.count(CounterKey::FallbacksTaken) > 0;
        if fell_back {
            stats.entered_c1 += 1;
            stats.fell_back += 1;
            stats.stages_entered += u64::from(f);
        } else if max_stage > fast_prefix {
            // Decided at ratifier R_j, stage index 2j + 1: the run consumed
            // j conciliator stages and ratified at the last one.
            let conciliators = (max_stage - 1) / 2;
            stats.entered_c1 += 1;
            stats.stages_entered += conciliators;
            stats.ratified += 1;
        }
    }
    stats
}

fn main() -> ExitCode {
    let mut seeds: u64 = 300;
    let mut n: usize = 3;
    let mut rounds: u32 = 2;
    let usage = "usage: fault_campaign [--seeds <K>] [--n <procs>] [--rounds <f>]";
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seeds = v,
                None => {
                    eprintln!("--seeds needs a non-negative integer\n{usage}");
                    return ExitCode::FAILURE;
                }
            },
            "--n" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => n = v,
                _ => {
                    eprintln!("--n needs a positive integer\n{usage}");
                    return ExitCode::FAILURE;
                }
            },
            "--rounds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => rounds = v,
                None => {
                    eprintln!("--rounds needs a non-negative integer\n{usage}");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument: {other}\n{usage}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut pass = true;
    let mut cells_run = 0u64;
    let mut total_faults = 0u64;
    let mut baseline_delta: Option<f64> = None;

    for proto in [Proto::Binary, Proto::Multivalued(6)] {
        for cell in CELLS {
            let stats = run_cell(cell, proto, seeds, n, rounds);
            cells_run += 1;
            total_faults += stats.faults_injected;

            let safety_ok = stats.validity_violations == 0
                && stats.coherence_violations == 0
                && stats.termination_failures == 0;
            if !safety_ok {
                pass = false;
            }

            let delta_hat = stats.delta_hat();
            if cell.label == "none" && proto == Proto::Binary {
                baseline_delta = delta_hat;
            }
            let delta_class = match (delta_hat, baseline_delta) {
                (Some(d), Some(base)) if d + 0.1 < base => "degrades",
                (Some(_), _) => "holds",
                (None, _) => "n/a",
            };

            // Theorem 5 reconciliation: measured fallback frequency vs
            // (1 − δ̂)^f, with a 3σ binomial tolerance plus model slack
            // (pooling δ̂ across stages assumes homogeneity it need not
            // have). Skipped below 30 entered runs — no statistical power.
            let (fallback_class, predicted, measured) = match (delta_hat, stats.measured_fallback())
            {
                (Some(d), Some(m)) if stats.entered_c1 >= 30 => {
                    let predicted = theory::fallback_probability(d, rounds);
                    let sigma = (predicted * (1.0 - predicted) / stats.entered_c1 as f64)
                        .sqrt()
                        .max(1e-9);
                    let tolerance = 3.0 * sigma + 0.05;
                    if (m - predicted).abs() <= tolerance {
                        ("reconciles", predicted, m)
                    } else {
                        pass = false;
                        ("DIVERGES", predicted, m)
                    }
                }
                (Some(d), Some(m)) => (
                    "insufficient-sample",
                    theory::fallback_probability(d, rounds),
                    m,
                ),
                _ => ("n/a", f64::NAN, f64::NAN),
            };

            let mut line = Obj::new();
            line.str_field(json_key!({ "bench" }), "fault_campaign")
                .str_field(json_key!("protocol"), &proto.name())
                .str_field(json_key!("cell"), cell.label)
                .u64_field(json_key!("seeds"), stats.runs)
                .u64_field(json_key!("rounds"), u64::from(rounds))
                .u64_field(json_key!("validity_violations"), stats.validity_violations)
                .u64_field(
                    json_key!("coherence_violations"),
                    stats.coherence_violations,
                )
                .u64_field(
                    json_key!("termination_failures"),
                    stats.termination_failures,
                )
                .u64_field(json_key!("entered_c1"), stats.entered_c1)
                .u64_field(json_key!("fell_back"), stats.fell_back)
                .u64_field(json_key!("faults_injected"), stats.faults_injected)
                .f64_field(json_key!("delta_hat"), delta_hat.unwrap_or(f64::NAN))
                .f64_field(json_key!("predicted_fallback"), predicted)
                .f64_field(json_key!("measured_fallback"), measured)
                .str_field(json_key!("delta"), delta_class)
                .str_field(json_key!("fallback"), fallback_class)
                .str_field(
                    json_key!("safety"),
                    if safety_ok { "holds" } else { "VIOLATED" },
                );
            println!("{}", line.finish());

            eprintln!(
                "{} / {:<12} safety={} δ̂={} fallback={} (faults={})",
                proto.name(),
                cell.label,
                if safety_ok { "holds" } else { "VIOLATED" },
                delta_hat.map_or("n/a".into(), |d| format!("{d:.3}")),
                fallback_class,
                stats.faults_injected,
            );
        }
    }

    let mut summary = Obj::new();
    summary
        .str_field(json_key!({ "bench" }), "fault_campaign_summary")
        .u64_field(json_key!("cells"), cells_run)
        .u64_field(json_key!("seeds_per_cell"), seeds)
        .u64_field(json_key!("total_faults_injected"), total_faults)
        .bool_field(json_key!("pass"), pass);
    println!("{}", summary.finish());

    if pass {
        eprintln!("fault campaign: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("fault campaign: FAIL");
        ExitCode::FAILURE
    }
}
