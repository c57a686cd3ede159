//! The model-checking campaign CI gates on: the graph engine sweeps every
//! composed protocol at n = 3 over the full adversary-choice tree, the
//! path engine cross-validates every n = 2 verdict, and the lab replays
//! the negative control's minimal counterexample through real runtime
//! objects.
//!
//! ```text
//! check_campaign [--state-budget <N>] [--out <path>]
//! ```
//!
//! Per (protocol, input-vector) cell the graph engine reports distinct
//! canonical states, transitions, dedup hits, and truncation; the campaign
//! aggregates states/sec, the dedup ratio, and the symmetry savings
//! (states without reduction / states with it, on a split input). Exits
//! nonzero — after writing the report — if any engine disagrees with its
//! oracle, any protocol violates safety, the negative control's race goes
//! unfound (or stops replaying), or the state budget is exhausted.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use mc_check::{
    CheckConfig, Explorer, GraphConfig, GraphExplorer, GraphReport, PathEvent, Verdict,
};
use mc_core::{Chain, CollectRatifier, ConsensusBuilder, FirstMoverConciliator, Ratifier};
use mc_lab::{Lab, RacyConsensus, RacySpec};
use mc_model::{ObjectSpec, Value};
use mc_telemetry::{json::Obj, json_key};

struct Entry {
    spec: Arc<dyn ObjectSpec>,
    check_acceptance: bool,
    max_steps: usize,
    /// Protocols that terminate on every schedule must explore without
    /// truncation; the full bounded consensus cannot (its CIL fallback
    /// livelocks under an adversarial schedule), so only safety is gated.
    expect_exhaustive: bool,
    /// Cross-validate n = 2 verdicts against the path engine. Off only
    /// where path enumeration is infeasible.
    path_oracle: bool,
}

fn matrix() -> Vec<Entry> {
    let impatient = || Arc::new(FirstMoverConciliator::impatient()) as Arc<dyn ObjectSpec>;
    vec![
        Entry {
            spec: Arc::new(Ratifier::binary()),
            check_acceptance: true,
            max_steps: 64,
            expect_exhaustive: true,
            path_oracle: true,
        },
        Entry {
            spec: Arc::new(Ratifier::binomial(4)),
            check_acceptance: true,
            max_steps: 64,
            expect_exhaustive: true,
            path_oracle: true,
        },
        Entry {
            spec: Arc::new(Ratifier::bitvector(4)),
            check_acceptance: true,
            max_steps: 64,
            expect_exhaustive: true,
            path_oracle: true,
        },
        Entry {
            spec: Arc::new(CollectRatifier::new()),
            check_acceptance: true,
            max_steps: 64,
            expect_exhaustive: true,
            path_oracle: true,
        },
        Entry {
            spec: impatient(),
            check_acceptance: false,
            max_steps: 64,
            expect_exhaustive: true,
            path_oracle: true,
        },
        Entry {
            spec: Arc::new(Chain::pair(impatient(), Arc::new(Ratifier::binary()))),
            check_acceptance: false,
            max_steps: 64,
            expect_exhaustive: true,
            path_oracle: true,
        },
        Entry {
            spec: Arc::new(Chain::bounded(
                "campaign-bounded[f=1; K=ratifier(binary)]",
                move |_| Arc::new(FirstMoverConciliator::impatient()) as Arc<dyn ObjectSpec>,
                1,
                Arc::new(Ratifier::binary()),
            )),
            check_acceptance: false,
            max_steps: 64,
            expect_exhaustive: true,
            path_oracle: true,
        },
        Entry {
            spec: Arc::new(ConsensusBuilder::binary().bounded(1).build()),
            check_acceptance: false,
            max_steps: 14,
            expect_exhaustive: false,
            path_oracle: true,
        },
    ]
}

fn binary_vectors(n: usize) -> Vec<Vec<Value>> {
    (0..1u64 << n)
        .map(|bits| (0..n).map(|i| (bits >> i) & 1).collect())
        .collect()
}

fn graph_report(
    entry: &Entry,
    inputs: &[Value],
    symmetry: bool,
    budget: usize,
) -> Result<GraphReport, String> {
    GraphExplorer::new(Arc::clone(&entry.spec), inputs.to_vec())
        .with_config(GraphConfig {
            max_steps: entry.max_steps,
            max_states: budget,
            check_acceptance: entry.check_acceptance,
            symmetry,
            ..GraphConfig::default()
        })
        .verify_safety()
        .map_err(|e| {
            format!(
                "{} on {inputs:?}: graph engine aborted: {e:?} (state budget {budget})",
                entry.spec.name()
            )
        })
}

fn path_verdict(entry: &Entry, inputs: &[Value]) -> Verdict {
    Explorer::new(Arc::clone(&entry.spec), inputs.to_vec())
        .with_config(CheckConfig {
            max_steps: entry.max_steps,
            check_acceptance: entry.check_acceptance,
            ..CheckConfig::default()
        })
        .verify_safety()
        .unwrap_or_else(|e| panic!("{}: path engine aborted: {e:?}", entry.spec.name()))
        .verdict()
}

/// The negative control: the graph engine must find RacySpec's n = 3 race,
/// reconstruct a minimal 5-event script, and the lab must replay it to the
/// same disagreement on the real runtime object.
fn negative_control(budget: usize) -> Result<usize, String> {
    let inputs = vec![0u64, 1, 1];
    let report = GraphExplorer::new(RacySpec::new(), inputs.clone())
        .with_config(GraphConfig {
            max_states: budget,
            ..GraphConfig::default()
        })
        .verify_safety()
        .map_err(|e| format!("racy spec aborted: {e:?}"))?;
    let Some((script, violation)) = report.violation else {
        return Err("the race went unfound at n = 3".into());
    };
    if script.len() != 5 || script.iter().any(|e| !matches!(e, PathEvent::Sched(_))) {
        return Err(format!("counterexample not minimal: {script:?}"));
    }
    let lab = Lab::replay(3, &script, 10_000);
    let racy = RacyConsensus::new_in(&lab.memory());
    let replayed = lab
        .run(0, |pid, _| racy.decide(inputs[pid]))
        .map_err(|e| format!("lab replay failed: {e}"))?;
    let decided: Vec<Option<u64>> = replayed.decisions;
    let mut kinds = decided.iter().flatten().collect::<Vec<_>>();
    kinds.sort_unstable();
    kinds.dedup();
    if kinds.len() < 2 {
        return Err(format!(
            "replay lost the disagreement ({violation:?} vs {decided:?})"
        ));
    }
    Ok(script.len())
}

fn main() -> ExitCode {
    let mut budget: usize = 2_000_000;
    let mut out_path = "BENCH_check_campaign.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--state-budget" => {
                budget = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--state-budget <N>");
            }
            "--out" => {
                out_path = args.next().expect("--out <path>");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: check_campaign [--state-budget <N>] [--out <path>]");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut pass = true;
    let mut rows: Vec<String> = Vec::new();
    let mut total_states = 0u64;
    let mut total_transitions = 0u64;
    let mut total_dedup = 0u64;
    let started = Instant::now();

    for entry in matrix() {
        let name = entry.spec.name();

        // n = 2 cross-validation against the path-engine oracle.
        let mut oracle_agreed = true;
        if entry.path_oracle {
            for inputs in binary_vectors(2) {
                let path = path_verdict(&entry, &inputs);
                match graph_report(&entry, &inputs, true, budget) {
                    Ok(report) if path == report.verdict() => {}
                    Ok(report) => {
                        eprintln!(
                            "ORACLE DISAGREEMENT {name} on {inputs:?}: {path:?} vs {:?}",
                            report.verdict()
                        );
                        oracle_agreed = false;
                        pass = false;
                    }
                    Err(msg) => {
                        eprintln!("ABORT {msg}");
                        oracle_agreed = false;
                        pass = false;
                    }
                }
            }
        }

        // The full n = 3 sweep under the graph engine.
        let mut states = 0u64;
        let mut transitions = 0u64;
        let mut dedup_hits = 0u64;
        let mut max_depth = 0u64;
        let mut group_size = 0u64;
        let mut violations = 0u64;
        let mut truncated = 0u64;
        let t0 = Instant::now();
        for inputs in binary_vectors(3) {
            let report = match graph_report(&entry, &inputs, true, budget) {
                Ok(report) => report,
                Err(msg) => {
                    eprintln!("ABORT {msg}");
                    pass = false;
                    continue;
                }
            };
            states += report.distinct_states as u64;
            transitions += report.transitions as u64;
            dedup_hits += report.dedup_hits as u64;
            max_depth = max_depth.max(report.depth as u64);
            group_size = group_size.max(report.group_size as u64);
            truncated += report.truncated_states as u64;
            if let Some((_, violation)) = &report.violation {
                eprintln!("VIOLATION {name} on {inputs:?}: {violation:?}");
                violations += 1;
                pass = false;
            } else if entry.expect_exhaustive && !report.is_exhaustive_pass() {
                eprintln!(
                    "TRUNCATED {name} on {inputs:?}: {} states over the step bound",
                    report.truncated_states
                );
                pass = false;
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();

        // Symmetry savings on the split input, the shape the reduction is
        // for. Both runs must reach the same verdict.
        let split = vec![0, 1, 1];
        let savings = match (
            graph_report(&entry, &split, true, budget),
            graph_report(&entry, &split, false, budget),
        ) {
            (Ok(with_sym), Ok(without_sym)) => {
                if with_sym.verdict() != without_sym.verdict() {
                    eprintln!("SYMMETRY DIVERGENCE {name} on {split:?}");
                    pass = false;
                }
                without_sym.distinct_states as f64 / with_sym.distinct_states.max(1) as f64
            }
            (with_sym, without_sym) => {
                for leg in [with_sym, without_sym] {
                    if let Err(msg) = leg {
                        eprintln!("ABORT {msg}");
                    }
                }
                pass = false;
                f64::NAN
            }
        };

        total_states += states;
        total_transitions += transitions;
        total_dedup += dedup_hits;

        let states_per_sec = states as f64 / elapsed.max(1e-9);
        let dedup_ratio = dedup_hits as f64 / (dedup_hits + states).max(1) as f64;
        let mut row = Obj::new();
        row.str_field(json_key!({ "protocol" }), &name)
            .u64_field(json_key!("n3_states"), states)
            .u64_field(json_key!("n3_transitions"), transitions)
            .u64_field(json_key!("n3_dedup_hits"), dedup_hits)
            .u64_field(json_key!("n3_truncated"), truncated)
            .u64_field(json_key!("n3_max_depth"), max_depth)
            .u64_field(json_key!("group_size"), group_size)
            .u64_field(json_key!("violations"), violations)
            .f64_field(json_key!("states_per_sec"), states_per_sec)
            .f64_field(json_key!("dedup_ratio"), dedup_ratio)
            .f64_field(json_key!("symmetry_savings"), savings)
            .bool_field(json_key!("path_oracle_checked"), entry.path_oracle)
            .bool_field(json_key!("path_oracle_agreed"), oracle_agreed);
        let row = row.finish();
        println!("{row}");
        rows.push(row);
        eprintln!(
            "{name}: {states} states, {:.0} states/s, dedup {:.1}%, symmetry x{savings:.2}",
            states_per_sec,
            dedup_ratio * 100.0
        );
    }

    let control = negative_control(budget);
    if let Err(reason) = &control {
        eprintln!("NEGATIVE CONTROL FAILED: {reason}");
        pass = false;
    }

    let mut report = Obj::new();
    report
        .str_field(json_key!({ "bench" }), "check_campaign")
        .u64_field(json_key!("state_budget"), budget as u64)
        .u64_field(json_key!("total_states"), total_states)
        .u64_field(json_key!("total_transitions"), total_transitions)
        .u64_field(json_key!("total_dedup_hits"), total_dedup)
        .f64_field(json_key!("elapsed_secs"), started.elapsed().as_secs_f64())
        .u64_field(
            json_key!("counterexample_len"),
            control.as_ref().map(|&l| l as u64).unwrap_or(0),
        )
        .raw_field(json_key!("protocols"), &format!("[{}]", rows.join(",")))
        .bool_field(json_key!("pass"), pass);
    let json = report.finish();
    if let Err(e) = std::fs::write(&out_path, format!("{json}\n")) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }

    if pass {
        eprintln!("check campaign: PASS ({out_path})");
        ExitCode::SUCCESS
    } else {
        eprintln!("check campaign: FAIL ({out_path})");
        ExitCode::FAILURE
    }
}
