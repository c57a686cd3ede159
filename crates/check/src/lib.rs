//! Exhaustive bounded model checking for deciding objects.
//!
//! The simulator in `mc-sim` samples executions; this crate *enumerates*
//! them. For small systems it explores **every** interleaving the strongest
//! coin-blind adversary can produce and **every** outcome of every
//! probabilistic-write coin, giving:
//!
//! * [`Explorer::verify_safety`] — a proof (within the step bound) that
//!   validity and coherence (and, for ratifiers, acceptance — see
//!   [`CheckConfig::check_acceptance`]) hold on *all* executions, not just
//!   sampled ones;
//! * [`Explorer::worst_case_agreement`] — the **exact** worst-case
//!   agreement probability `δ*` of a conciliator: the value of the
//!   zero-sum game where the adversary picks the schedule (seeing
//!   everything except unresolved coins, i.e. at least as strong as the
//!   location-oblivious adversary of the paper's Theorem 7) and chance
//!   resolves each probabilistic write. Comparing `δ*` against the
//!   theorem's closed-form lower bound `(1 − e^{−1/4})/4` shows exactly
//!   how loose the analysis is at small `n`.
//!
//! # Scope and soundness
//!
//! The checker enumerates two kinds of branching: the adversary's choice of
//! which live process steps, and the boolean outcome of each
//! [`Op::ProbWrite`](mc_model::Op) whose probability is strictly between 0
//! and 1. Protocols whose *sessions* flip local coins (e.g. shared-coin
//! protocols) are rejected by default — enumerating arbitrary RNG draws is
//! impossible — unless a fixed coin seed is supplied, in which case local
//! coins are deterministic (sampled, not enumerated) and results are
//! conditional on that seed.
//!
//! Executions that exceed the step bound are counted as `truncated` and
//! treated pessimistically (agreement value 0, and reported in the safety
//! report), so `worst_case_agreement` is always a sound **lower** bound and
//! equals the exact value when `truncated == 0`.
//!
//! # Example: exact worst-case δ of the paper's conciliator at n = 2
//!
//! ```
//! use mc_check::Explorer;
//! use mc_core::FirstMoverConciliator;
//!
//! let explorer = Explorer::new(FirstMoverConciliator::impatient(), vec![0, 1]);
//! let agreement = explorer.worst_case_agreement().unwrap();
//! assert_eq!(agreement.truncated, 0); // fully explored: exact value
//! // Theorem 7 promises ≥ 0.0553; the exact two-process value is far higher.
//! assert!(agreement.probability > 0.0553);
//! ```

//! # Two engines
//!
//! The crate ships two exploration engines over the same replay machinery:
//!
//! * the path-based [`Explorer`], which enumerates execution scripts —
//!   simple, assumption-free, and the cross-validation oracle;
//! * the graph-based [`GraphExplorer`], which deduplicates canonicalized
//!   *configurations* (state hashing plus symmetry reduction over
//!   process-id permutations and the binary value swap — see [`canon`]),
//!   scales to `n = 3`, and reconstructs **minimal** counterexample
//!   scripts from shortest-path predecessor links.
//!
//! Both engines expose an engine-independent [`Verdict`]; the test suite
//! requires them to agree wherever both can run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canon;
mod explore;
#[cfg(test)]
mod fixtures;
mod graph;
mod replay;
mod state;

pub use explore::{AgreementValue, CheckConfig, CheckError, Explorer, SafetyReport, Verdict};
pub use graph::{GraphConfig, GraphExplorer, GraphReport};
pub use replay::{replay_to_completion, CoinPolicy, PathEvent, ReplayError};
pub use state::{ProcSnapshot, StateSnapshot};
