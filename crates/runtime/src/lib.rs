//! Real-thread implementations of modular consensus on std atomics.
//!
//! `mc-sim` runs the paper's algorithms in the abstract model, where
//! operation counts and adversaries are exact. This crate runs the *same
//! code* as ordinary multi-threaded Rust: each stage of a [`Consensus`]
//! drives an `mc-core` session — the one `mc-sim` samples and `mc-check`
//! certifies — performing its operations on registers that are
//! [`AtomicU64`](std::sync::atomic::AtomicU64)s; processes are threads, and
//! the scheduler is whatever your OS does.
//!
//! The probabilistic-write model's assumption — that the scheduler cannot
//! condition on the outcome of a local coin attached to a store — is the
//! Chor–Israeli–Li atomicity assumption, and it is *plausible but not
//! guaranteed* on real hardware (see §2.1 of the paper on location-oblivious
//! adversaries and page-based memory systems). In practice, an OS scheduler
//! is far weaker than even an oblivious adversary, so agreement rates
//! comfortably exceed the paper's worst-case `δ`.
//!
//! # Quickstart
//!
//! ```
//! use mc_runtime::Consensus;
//! use rand::{rngs::SmallRng, SeedableRng};
//! use std::sync::Arc;
//!
//! let consensus = Arc::new(Consensus::builder().n(4).build());
//! let mut handles = Vec::new();
//! for thread_id in 0..4u64 {
//!     let consensus = Arc::clone(&consensus);
//!     handles.push(std::thread::spawn(move || {
//!         let mut rng = SmallRng::seed_from_u64(thread_id);
//!         consensus.decide(thread_id % 2, &mut rng)
//!     }));
//! }
//! let decisions: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
//! assert!(decisions.windows(2).all(|w| w[0] == w[1]), "agreement");
//! assert!(decisions[0] <= 1, "validity");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounded;
mod builder;
pub mod clock;
mod consensus;
mod derived;
mod drive;
mod engine;
mod error;
mod faults;
mod hash;
mod log;
mod register;
mod service;
mod table;
mod telemetry;
mod typed;

pub use bounded::{BoundedConsensus, DEFAULT_MAX_CONCILIATOR_ROUNDS};
pub use builder::{ConsensusBuilder, EngineBuilder};
pub use consensus::{CoinKind, ConciliatorChoice, Consensus, ConsensusOptions};
pub use derived::{Election, TestAndSet};
pub use engine::ConsensusEngine;
pub use error::EngineError;
pub use faults::{FaultCounts, FaultPlan, FaultyMemory, FaultyRegister};
pub use hash::{FastHasher, FastMap};
pub use log::ReplicatedLog;
pub use register::{AtomicMemory, AtomicRegister, SharedMemory, SharedRegister};
pub use service::{
    ChaosPlan, ConsensusService, DecisionHandle, RingHealth, ServiceBuilder, SupervisorOptions,
};
pub use telemetry::{AmortizedEvents, CounterKey, GaugeKey, HistKey, RuntimeTelemetry};
pub use typed::{TypedConsensus, ValueCode};
