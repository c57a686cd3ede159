//! Conciliators, ratifiers, and modular consensus protocols.
//!
//! This crate implements the contribution of Aspnes, *A Modular Approach to
//! Shared-Memory Consensus, with Applications to the Probabilistic-Write
//! Model* (PODC 2010):
//!
//! * [`conciliator`] — weak consensus objects that *produce* agreement with
//!   constant probability: the paper's
//!   [`ImpatientFirstMoverConciliator`](conciliator::FirstMoverConciliator)
//!   (Theorem 7, one register, `O(log n)` individual / `O(n)` total work in
//!   the probabilistic-write model), the fixed-probability
//!   Chor–Israeli–Li-style baseline, and
//!   [`conciliator::CoinConciliator`] built from any weak
//!   shared coin (Theorem 6).
//! * [`ratifier`] — deterministic weak consensus objects that *detect*
//!   agreement: the quorum [`ratifier::Ratifier`] of §6
//!   (Theorem 8) over any [`QuorumScheme`](mc_quorums::QuorumScheme), plus
//!   the cheap-collect variant (§6.2 item 4).
//! * [`coin`] — weak shared coins: a per-process voting coin in the style of
//!   Aspnes–Herlihy (works against the adaptive adversary) and an adapter
//!   deriving a coin from any conciliator.
//! * [`compose`] — the composition operator `(X; Y)` of §3.2 with its
//!   exception-like skip-on-decide semantics: one lazily instantiated
//!   [`compose::Chain`] for finite, unbounded and bounded (Theorem 5)
//!   stage sequences.
//! * [`protocol`] — the three consensus constructions of §4: the unbounded
//!   alternation `R₋₁; R₀; C₁; R₁; C₂; R₂; …` with fast path, the bounded
//!   truncation with a fallback protocol (Theorem 5), and the ratifier-only
//!   protocol for restricted schedulers (§4.2).
//!
//! All objects are expressed as [`mc_model`] sessions and run on any driver;
//! the test-suite and experiments drive them with the `mc-sim` engine.
//!
//! # Example: binary consensus in the probabilistic-write model
//!
//! ```
//! use mc_core::protocol::ConsensusBuilder;
//! use mc_sim::{adversary::RandomScheduler, harness, EngineConfig};
//!
//! let spec = ConsensusBuilder::binary().build();
//! let outcome = harness::run_object(
//!     &spec,
//!     &[0, 1, 1, 0, 1],
//!     &mut RandomScheduler::new(1),
//!     7,
//!     &EngineConfig::default(),
//! )
//! .unwrap();
//! mc_model::properties::check_consensus(&[0, 1, 1, 0, 1], &outcome.outputs).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coin;
pub mod compose;
pub mod conciliator;
pub mod protocol;
pub mod ratifier;

pub use coin::{ConciliatorCoin, InvalidQuorumFactor, LocalCoin, VotingSharedCoin};
pub use compose::{Chain, ChainProbe};
pub use conciliator::{
    CoinConciliator, DummyWriteConciliator, FirstMoverConciliator, WriteSchedule,
};
pub use protocol::ConsensusBuilder;
pub use ratifier::{CollectRatifier, Ratifier};
