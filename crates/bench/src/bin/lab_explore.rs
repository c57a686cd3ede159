//! Cross-substrate conformance campaign: for every seed, run the same
//! consensus protocol under the same adversary on the sim engine and on the
//! real-thread lab runtime, and demand identical decisions, traces, and
//! work accounting (plus `mc-check` replay agreement on the lab's script).
//!
//! Each seed also runs the *recycled* leg: the same protocol on the same
//! `(adversary, seed)` executed on a freshly built object and re-executed on
//! that object after `reset()` over a rearmed register file; the two runs
//! must be identical in decisions, trace, schedule/coin script, and
//! `WorkMetrics`. Any divergence means a recycled object is
//! distinguishable from a fresh one, and fails the campaign.
//!
//! ```text
//! lab_explore [--seeds <K>] [--n <procs>]
//! ```
//!
//! Runs `K` seeds per protocol (default 10 000, the acceptance floor),
//! rotating through the adversary menu by seed. Exits nonzero on the first
//! divergence, printing the seed and adversary needed to reproduce it.

use std::process::ExitCode;

use mc_lab::{check_conformance, check_recycled_conformance, Conformance, Protocol};
use mc_sim::adversary::{ImpatienceExploiter, RandomScheduler, RoundRobin, SplitKeeper};
use mc_sim::sched::{PctScheduler, PriorityScheduler, QuantumScheduler};
use mc_sim::Adversary;

const PROTOCOLS: [Protocol; 3] = [
    Protocol::Binary,
    Protocol::Multivalued(6),
    Protocol::Coin { quorum_factor: 1 },
];

type MakeAdversary = Box<dyn Fn() -> Box<dyn Adversary + Send>>;

fn adversary_for(seed: u64) -> (&'static str, MakeAdversary) {
    match seed % 7 {
        0 => (
            "random",
            Box::new(move || Box::new(RandomScheduler::new(seed)) as _),
        ),
        1 => (
            "pct",
            Box::new(move || Box::new(PctScheduler::new(3, 500, seed)) as _),
        ),
        2 => ("round-robin", Box::new(|| Box::new(RoundRobin::new()) as _)),
        3 => (
            "split-keeper",
            Box::new(move || Box::new(SplitKeeper::new(seed)) as _),
        ),
        4 => (
            "impatience-exploiter",
            Box::new(|| Box::new(ImpatienceExploiter::new()) as _),
        ),
        5 => (
            "priority",
            Box::new(move || Box::new(PriorityScheduler::shuffled(8, seed)) as _),
        ),
        _ => (
            "quantum",
            Box::new(|| Box::new(QuantumScheduler::new(4)) as _),
        ),
    }
}

fn inputs_for(protocol: Protocol, seed: u64, n: usize) -> Vec<u64> {
    let m = match protocol {
        Protocol::Binary | Protocol::Coin { .. } => 2,
        Protocol::Multivalued(m) => m,
    };
    // Cheap deterministic spread: different seeds exercise different
    // input splits, including unanimous ones.
    (0..n)
        .map(|pid| (seed.wrapping_mul(31).wrapping_add(pid as u64 * 17)) % m)
        .collect()
}

fn main() -> ExitCode {
    let mut seeds: u64 = 10_000;
    let mut n: usize = 3;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                seeds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seeds <K>");
            }
            "--n" => {
                n = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--n <procs>");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: lab_explore [--seeds <K>] [--n <procs>]");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut step_limited = 0u64;
    for protocol in PROTOCOLS {
        for seed in 0..seeds {
            let (name, make) = adversary_for(seed);
            let inputs = inputs_for(protocol, seed, n);
            match check_conformance(protocol, &inputs, &make, seed, 200_000) {
                Ok(Conformance::Agreed { .. }) => {}
                Ok(Conformance::BothStepLimited) => step_limited += 1,
                Err(divergence) => {
                    eprintln!(
                        "DIVERGENCE protocol={protocol} seed={seed} adversary={name} \
                         inputs={inputs:?}: {divergence}"
                    );
                    return ExitCode::FAILURE;
                }
            }
            match check_recycled_conformance(protocol, &inputs, &make, seed, 200_000) {
                Ok(_) => {}
                Err(divergence) => {
                    eprintln!(
                        "RECYCLE DIVERGENCE protocol={protocol} seed={seed} adversary={name} \
                         inputs={inputs:?}: {divergence}"
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("{protocol}: {seeds} seeds conformed, fresh and recycled (n={n})");
    }
    if step_limited > 0 {
        println!("note: {step_limited} runs hit the step limit on both substrates");
    }
    println!("lab conformance: PASS");
    ExitCode::SUCCESS
}
