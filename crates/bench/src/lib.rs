//! Experiment harness reproducing every quantitative claim of the paper.
//!
//! The paper is a theory paper: its "evaluation" is Theorems 5–10 plus the
//! headline asymptotics of §1/§7. Each claim is reproduced as a numbered
//! experiment (see `DESIGN.md` §4 for the index); the [`experiments`]
//! module measures them in the simulator and prints paper-vs-measured
//! tables. The `experiments` binary drives them; `EXPERIMENTS.md` records
//! the results.
//!
//! The other binaries are CI correctness campaigns (`lab_explore`,
//! `check_campaign`, `chaos_campaign`, `coin_campaign`, `fault_campaign`)
//! and the `simulate` CLI. Wall-clock performance is measured in one
//! place only: `perf_stack`, the package under `bench/` that
//! `BENCHMARK.json` describes (see `bench/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

pub use experiments::{run_experiment, Mode, EXPERIMENTS};
