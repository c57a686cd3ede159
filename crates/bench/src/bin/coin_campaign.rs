//! The shared-coin portfolio campaign CI gates on: every coin in the
//! portfolio is measured against every adversary class it claims to
//! tolerate, and the measured per-side agreement parameter δ̂ is reconciled
//! with `mc-analysis::theory`'s closed-form lower bounds.
//!
//! ```text
//! coin_campaign [--trials <N>] [--state-budget <N>] [--out <path>]
//! ```
//!
//! Three kinds of cells:
//!
//! * **Voting-coin cells** — `VotingSharedCoin` with quorum factors 1 and 4,
//!   crossed with oblivious schedulers (random, PCT, round-robin) and the
//!   adaptive `SplitKeeper`. Each cell's total agreement rate must clear
//!   twice the per-side theory bound (Wilson 95% lower bound), and neither
//!   side's rate may statistically refute the per-side bound.
//! * **Local-coin cell** — `n` independent local flips have an *exact*
//!   agreement probability `2^{1−n}`; the measured rate's Wilson interval
//!   must contain it. No adversary column: the local coin is only a coin
//!   against an oblivious adversary, and scheduling cannot change the
//!   distribution of independent flips.
//! * **Graph certificates** — with the vote streams pinned
//!   (`CoinPolicy::Fixed`), the graph engine exhaustively certifies
//!   validity and coherence of `CoinConciliator(VotingSharedCoin)` at
//!   n = 3 over every schedule and every binary input vector, and of the
//!   full `(coin-conciliator; ratifier)` chain at n = 2.
//!
//! Exits nonzero — after writing the report — if any gate fails.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use mc_analysis::{theory, wilson_interval};
use mc_check::{CoinPolicy, GraphConfig, GraphExplorer};
use mc_core::{Chain, CoinConciliator, Ratifier, VotingSharedCoin};
use mc_model::{ObjectSpec, Value};
use mc_sim::adversary::{RandomScheduler, RoundRobin, SplitKeeper};
use mc_sim::harness::{self, inputs};
use mc_sim::sched::PctScheduler;
use mc_sim::{Adversary, EngineConfig};
use mc_telemetry::{json::Obj, json_key};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

const N: usize = 3;

struct AdversaryClass {
    name: &'static str,
    adaptive: bool,
    make: fn(u64) -> Box<dyn Adversary>,
}

fn adversary_classes() -> Vec<AdversaryClass> {
    vec![
        AdversaryClass {
            name: "random",
            adaptive: false,
            make: |seed| Box::new(RandomScheduler::new(seed)),
        },
        AdversaryClass {
            name: "pct",
            adaptive: false,
            make: |seed| Box::new(PctScheduler::new(3, 2_000, seed)),
        },
        AdversaryClass {
            name: "round-robin",
            adaptive: false,
            make: |_| Box::new(RoundRobin::new()),
        },
        AdversaryClass {
            name: "split-keeper",
            adaptive: true,
            make: |seed| Box::new(SplitKeeper::new(seed)),
        },
    ]
}

struct CellOutcome {
    row: String,
    pass: bool,
}

/// Measures one (voting coin, adversary class) cell and gates δ̂ against
/// the theory bound for that adversary class.
fn voting_cell(
    quorum_factor: u32,
    class: &AdversaryClass,
    trials: usize,
    seed_base: u64,
) -> CellOutcome {
    let spec = VotingSharedCoin::with_quorum_factor(quorum_factor).expect("positive factor");
    let config = EngineConfig::default();
    let mut zeros = 0usize;
    let mut ones = 0usize;
    let mut total_work = 0u64;
    for trial in 0..trials {
        let seed = seed_base.wrapping_add((trial as u64).wrapping_mul(0x9E37_79B9));
        let mut adversary = (class.make)(seed);
        let out = harness::run_object(
            &spec,
            &inputs::unanimous(N, 0),
            adversary.as_mut(),
            seed,
            &config,
        )
        .expect("voting coin must terminate");
        total_work += out.metrics.total_work();
        if out.agreed() {
            match out.values()[0] {
                0 => zeros += 1,
                1 => ones += 1,
                v => panic!("non-bit coin value {v}"),
            }
        }
    }

    let bound = if class.adaptive {
        theory::voting_coin_adaptive_delta_lower_bound(quorum_factor)
    } else {
        theory::voting_coin_delta_lower_bound(quorum_factor)
    };
    let agreement = wilson_interval(zeros + ones, trials);
    let zero_side = wilson_interval(zeros, trials);
    let one_side = wilson_interval(ones, trials);
    // δ per side implies total agreement ≥ 2δ; the Wilson lower bound of
    // the measured total must clear that. Per side the bound is only
    // checked as "not refuted" (upper bound above δ): the adversary is
    // free to bias *which* side wins, just not to push both below δ.
    let total_ok = agreement.low >= 2.0 * bound;
    let sides_ok = zero_side.high >= bound && one_side.high >= bound;
    let pass = total_ok && sides_ok;

    let mut row = Obj::new();
    row.str_field(json_key!({ "cell" }), "voting")
        .u64_field(json_key!("quorum_factor"), u64::from(quorum_factor))
        .str_field(json_key!("adversary"), class.name)
        .bool_field(json_key!("adaptive"), class.adaptive)
        .u64_field(json_key!("trials"), trials as u64)
        .u64_field(json_key!("zero_agreements"), zeros as u64)
        .u64_field(json_key!("one_agreements"), ones as u64)
        .f64_field(json_key!("agreement_rate"), agreement.center)
        .f64_field(json_key!("agreement_low"), agreement.low)
        .f64_field(json_key!("theory_delta"), bound)
        .f64_field(
            json_key!("mean_total_work"),
            total_work as f64 / trials.max(1) as f64,
        )
        .bool_field(json_key!("pass"), pass);
    if !pass {
        eprintln!(
            "GATE FAILED voting qf={quorum_factor} vs {}: δ̂={} per-side [{}, {}] vs theory δ≥{bound:.4}",
            class.name, agreement, zero_side, one_side
        );
    }
    CellOutcome {
        row: row.finish(),
        pass,
    }
}

/// The local coin has no shared state to model — its agreement probability
/// is exactly `2^{1−n}`, so the cell measures independent flips directly
/// and demands the Wilson interval contain the exact value.
fn local_cell(trials: usize, seed_base: u64) -> CellOutcome {
    let mut agreements = 0usize;
    for trial in 0..trials {
        let first = SmallRng::seed_from_u64(seed_base.wrapping_add(trial as u64 * (N as u64)))
            .random_bool(0.5);
        let unanimous = (1..N).all(|pid| {
            SmallRng::seed_from_u64(seed_base.wrapping_add(trial as u64 * (N as u64) + pid as u64))
                .random_bool(0.5)
                == first
        });
        if unanimous {
            agreements += 1;
        }
    }
    let exact = 2.0 * theory::local_coin_delta(N as u64);
    let measured = wilson_interval(agreements, trials);
    let pass = measured.contains(exact);
    let mut row = Obj::new();
    row.str_field(json_key!({ "cell" }), "local")
        .u64_field(json_key!("trials"), trials as u64)
        .u64_field(json_key!("agreements"), agreements as u64)
        .f64_field(json_key!("agreement_rate"), measured.center)
        .f64_field(json_key!("exact_agreement"), exact)
        .bool_field(json_key!("pass"), pass);
    if !pass {
        eprintln!("GATE FAILED local coin: measured {measured} vs exact {exact:.4}");
    }
    CellOutcome {
        row: row.finish(),
        pass,
    }
}

fn binary_vectors(n: usize) -> Vec<Vec<Value>> {
    (0..1u64 << n)
        .map(|bits| (0..n).map(|i| (bits >> i) & 1).collect())
        .collect()
}

/// Exhaustively certifies validity and coherence of a coin-built spec over
/// every schedule, with the vote streams pinned to `seed`.
fn certificate(
    spec: Arc<dyn ObjectSpec>,
    n: usize,
    seed: u64,
    max_steps: usize,
    budget: usize,
) -> CellOutcome {
    let name = spec.name();
    let mut states = 0u64;
    let mut pass = true;
    let t0 = Instant::now();
    for inputs in binary_vectors(n) {
        let report = GraphExplorer::new(Arc::clone(&spec), inputs.clone())
            .with_config(GraphConfig {
                max_steps,
                max_states: budget,
                coin_policy: CoinPolicy::Fixed(seed),
                ..GraphConfig::default()
            })
            .verify_safety();
        match report {
            Ok(report) => {
                states += report.distinct_states as u64;
                if !report.is_exhaustive_pass() {
                    eprintln!(
                        "CERTIFICATE FAILED {name} n={n} seed={seed} on {inputs:?}: \
                         truncated={} violation={:?}",
                        report.truncated_states, report.violation
                    );
                    pass = false;
                }
            }
            Err(e) => {
                eprintln!("CERTIFICATE ABORTED {name} n={n} seed={seed} on {inputs:?}: {e:?}");
                pass = false;
            }
        }
    }
    let mut row = Obj::new();
    row.str_field(json_key!({ "cell" }), "certificate")
        .str_field(json_key!("spec"), &name)
        .u64_field(json_key!("n"), n as u64)
        .u64_field(json_key!("coin_seed"), seed)
        .u64_field(json_key!("distinct_states"), states)
        .f64_field(json_key!("elapsed_secs"), t0.elapsed().as_secs_f64())
        .bool_field(json_key!("pass"), pass);
    CellOutcome {
        row: row.finish(),
        pass,
    }
}

fn main() -> ExitCode {
    let mut trials: usize = 400;
    let mut budget: usize = 2_000_000;
    let mut out_path = "BENCH_coin_campaign.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trials" => {
                trials = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--trials <N>");
            }
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
                eprintln!(
                    "usage: coin_campaign [--trials <N>] [--state-budget <N>] [--out <path>]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let started = Instant::now();
    let mut cells: Vec<CellOutcome> = Vec::new();

    for quorum_factor in [1u32, 4] {
        for class in adversary_classes() {
            let seed_base = 1000 * u64::from(quorum_factor) + class.name.len() as u64;
            cells.push(voting_cell(quorum_factor, &class, trials, seed_base));
            let last = cells.last().expect("just pushed");
            eprintln!("{}", last.row);
        }
    }
    cells.push(local_cell(trials.max(2_000), 77));

    let voting = || {
        Arc::new(VotingSharedCoin::with_quorum_factor(1).expect("positive factor"))
            as Arc<dyn ObjectSpec>
    };
    for seed in [3u64, 7, 11] {
        cells.push(certificate(
            Arc::new(CoinConciliator::new(voting())),
            3,
            seed,
            900,
            budget,
        ));
    }
    cells.push(certificate(
        Arc::new(Chain::pair(
            Arc::new(CoinConciliator::new(voting())),
            Arc::new(Ratifier::binary()),
        )),
        2,
        7,
        900,
        budget,
    ));

    let pass = cells.iter().all(|c| c.pass);
    let rows: Vec<&str> = cells.iter().map(|c| c.row.as_str()).collect();
    let mut report = Obj::new();
    report
        .str_field(json_key!({ "bench" }), "coin_campaign")
        .u64_field(json_key!("trials"), trials as u64)
        .u64_field(json_key!("state_budget"), budget as u64)
        .f64_field(json_key!("elapsed_secs"), started.elapsed().as_secs_f64())
        .raw_field(json_key!("cells"), &format!("[{}]", rows.join(",")))
        .bool_field(json_key!("pass"), pass);
    let json = report.finish();
    if let Err(e) = std::fs::write(&out_path, format!("{json}\n")) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }

    if pass {
        eprintln!("coin campaign: PASS ({out_path})");
        ExitCode::SUCCESS
    } else {
        eprintln!("coin campaign: FAIL ({out_path})");
        ExitCode::FAILURE
    }
}
