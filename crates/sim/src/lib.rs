//! Deterministic simulator of asynchronous shared memory with adversary
//! schedulers.
//!
//! This crate is the substrate on which the paper's model (§2) runs:
//!
//! * [`Engine`] — executes a set of [`Session`](mc_model::Session) state
//!   machines, one pending operation per live process, with the interleaving
//!   chosen by an [`Adversary`], over `mc-model`'s register file
//!   ([`Memory`](mc_model::Memory)) and its one step rule.
//! * [`adversary`] — the adversary-class hierarchy of §2.1 (oblivious,
//!   value-oblivious, location-oblivious, adaptive), concrete schedulers,
//!   and attack adversaries that try to break the paper's algorithms.
//! * [`sched`] — the noisy and priority schedulers of §4.2.
//! * [`harness`] — one-call run + verification helpers and multi-trial
//!   statistics used by tests and experiments.
//!
//! # Determinism
//!
//! A run is a pure function of `(spec, inputs, adversary, seed, config)`.
//! Each process owns a private seeded RNG stream (its *local coins*), the
//! adversary owns its own stream, and the engine serializes all operations,
//! so identical arguments reproduce identical executions — including every
//! probabilistic-write coin.
//!
//! # Example
//!
//! Run a trivial one-register object under a round-robin scheduler:
//!
//! ```
//! use mc_sim::{adversary::RoundRobin, harness, EngineConfig};
//! use mc_sim::testutil::WriteThenReadSpec;
//!
//! let spec = WriteThenReadSpec;
//! let outcome = harness::run_object(
//!     &spec,
//!     &[10, 20, 30],
//!     &mut RoundRobin::new(),
//!     42,
//!     &EngineConfig::default(),
//! )
//! .unwrap();
//! assert_eq!(outcome.outputs.len(), 3);
//! // Every process read some process's write: validity holds.
//! mc_model::properties::check_validity(&[10, 20, 30], &outcome.outputs).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
mod engine;
pub mod harness;
mod metrics;
pub mod observe;
pub mod sched;
pub mod synth;
pub mod testutil;
mod trace;

pub use adversary::{Adversary, Capability, PendingInfo, View};
pub use engine::{charge_step, observe_pending, visible_memory, Engine, EngineConfig, RunError};
pub use harness::{run_object, RunOutcome};
pub use mc_model::mix_seed;
pub use metrics::WorkMetrics;
pub use trace::{Event, Trace};
