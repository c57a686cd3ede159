//! # modular-consensus
//!
//! A complete Rust implementation of Aspnes, *A Modular Approach to
//! Shared-Memory Consensus, with Applications to the Probabilistic-Write
//! Model* (PODC 2010).
//!
//! The paper decomposes randomized wait-free consensus into **conciliators**
//! (objects that *produce* agreement with constant probability) and
//! **ratifiers** (deterministic objects that *detect* agreement), composed
//! in an alternating sequence `R₋₁; R₀; C₁; R₁; C₂; R₂; …`. In the
//! probabilistic-write model this yields consensus with `O(log n)` expected
//! individual work and `O(n log m)` expected total work — the first
//! weak-adversary protocol with optimal total work.
//!
//! This crate is a facade over the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`model`] | `mc-model` | the shared-memory model: registers, operations, sessions, correctness properties |
//! | [`sim`] | `mc-sim` | deterministic simulator with the adversary hierarchy of §2.1 |
//! | [`quorums`] | `mc-quorums` | cross-intersecting quorum systems (§6.2, Bollobás optimality) |
//! | [`core`] | `mc-core` | conciliators, ratifiers, coins, composition, the consensus constructions of §4 |
//! | [`runtime`] | `mc-runtime` | the same algorithms on real threads and std atomics |
//! | [`analysis`] | `mc-analysis` | statistics, fits, tables, and the paper's closed-form bounds |
//! | [`check`] | `mc-check` | exhaustive bounded model checker: every schedule, every coin |
//! | [`telemetry`] | `mc-telemetry` | lock-free counters, work/round histograms, JSONL event export |
//! | [`lab`] | `mc-lab` | deterministic interleaving lab: the real-thread runtime under seeded adversarial schedulers, with cross-substrate conformance |
//! | [`store`] | `mc-store` | linearizable replicated state machine and KV store over repeated consensus (Corollary 4 as a service) |
//!
//! # Two ways to run consensus
//!
//! **In the model** (exact operation counts, adversarial schedulers):
//!
//! ```
//! use modular_consensus::core::protocol::ConsensusBuilder;
//! use modular_consensus::sim::{adversary::RandomScheduler, harness, EngineConfig};
//!
//! let spec = ConsensusBuilder::multivalued(5).build();
//! let inputs = [4, 1, 3, 3, 0, 2];
//! let outcome = harness::run_object(
//!     &spec,
//!     &inputs,
//!     &mut RandomScheduler::new(7),
//!     42,
//!     &EngineConfig::default(),
//! )
//! .unwrap();
//! modular_consensus::model::properties::check_consensus(&inputs, &outcome.outputs).unwrap();
//! println!("agreed on {} in {} ops", outcome.values()[0], outcome.metrics.total_work());
//! ```
//!
//! **On real threads** (practical runtime):
//!
//! ```
//! use modular_consensus::runtime::Consensus;
//! use rand::{rngs::SmallRng, SeedableRng};
//! use std::sync::Arc;
//!
//! let c = Arc::new(Consensus::builder().n(3).values(100).build());
//! let handles: Vec<_> = (0..3u64)
//!     .map(|t| {
//!         let c = Arc::clone(&c);
//!         std::thread::spawn(move || c.decide(t * 7, &mut SmallRng::seed_from_u64(t)))
//!     })
//!     .collect();
//! let decisions: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
//! assert!(decisions.windows(2).all(|w| w[0] == w[1]));
//! ```
//!
//! See `examples/` for runnable scenarios and `EXPERIMENTS.md` for the
//! reproduction of every quantitative claim in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mc_analysis as analysis;
pub use mc_check as check;
pub use mc_core as core;
pub use mc_lab as lab;
pub use mc_model as model;
pub use mc_quorums as quorums;
pub use mc_runtime as runtime;
pub use mc_sim as sim;
pub use mc_store as store;
pub use mc_telemetry as telemetry;

// Compiles and runs every Rust block of `README.md` as a doctest, so the
// README's examples cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use mc_core::protocol::ConsensusBuilder;
    pub use mc_core::{
        BoundedChain, Chain, ChainProbe, CoinConciliator, CollectRatifier, ConciliatorCoin,
        FirstMoverConciliator, LazyChain, Ratifier, VotingSharedCoin, WriteSchedule,
    };
    pub use mc_lab::{
        check_chaos_conformance, check_conformance, check_conformance_with_plan,
        check_recycled_conformance, check_service_conformance, check_store_conformance,
        Conformance, Lab, Protocol as LabProtocol,
    };
    pub use mc_model::{properties, Decision, ObjectSpec, ProcessId, Value};
    pub use mc_runtime::{
        AdaptiveOptions, BoundedConsensus, ChaosPlan, CoinKind, ConciliatorChoice, Consensus,
        ConsensusEngine, ConsensusService, CounterKey, DecisionHandle, Election, EngineBuilder,
        EngineError, EngineOptions, FaultPlan, FaultyMemory, GaugeKey, HistKey, LeaderFallback,
        LocalCoin, ReplicatedLog, ResetScope, RingHealth, RuntimeTelemetry, ServiceBuilder,
        SupervisorOptions, TestAndSet, TypedConsensus, ValueCode, VotingCoin,
    };
    pub use mc_sim::{adversary, harness, observe, sched, EngineConfig};
    pub use mc_store::{
        CommandHandle, KvCommand, KvResponse, KvStore, ReplicatedStore, StateMachine, StoreBuilder,
        StoreClient, StoreError,
    };
    pub use mc_telemetry::{
        AggregatingRecorder, JsonlRecorder, NoopRecorder, Recorder, Tally, TelemetryEvent,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_exposes_all_crates() {
        // Touch one symbol per crate so a broken re-export fails to compile.
        let _ = crate::analysis::theory::impatient_agreement_lower_bound();
        let _ = crate::check::CheckConfig::default();
        let _ = crate::core::Ratifier::binary();
        let _ = crate::lab::Protocol::Binary;
        let _ = crate::model::Decision::decide(0);
        let _ = crate::quorums::binomial(4, 2);
        let _ = crate::runtime::AtomicRegister::new();
        let _ = crate::sim::EngineConfig::default();
        let _ = crate::store::KvStore::new();
        let _ = crate::telemetry::NoopRecorder;
    }
}
