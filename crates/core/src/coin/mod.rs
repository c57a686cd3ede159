//! Weak shared coins (§5.1).
//!
//! A *weak shared coin* with agreement parameter `δ > 0` is a protocol in
//! which each process decides on a bit such that, against any adversary, the
//! probability that all processes decide 0 and the probability that all
//! decide 1 are each at least `δ`.
//!
//! Coins are represented as ordinary [`ObjectSpec`](mc_model::ObjectSpec)s
//! whose sessions *ignore their input* and halt with `(0, bit)`. This lets
//! [`CoinConciliator`](crate::conciliator::CoinConciliator) (Theorem 6) plug
//! in any coin, and lets coins be tested with the same harness as every
//! other deciding object.
//!
//! Implementations:
//!
//! * [`VotingSharedCoin`] — majority voting over per-process tally
//!   registers, in the style of Aspnes–Herlihy. Works against the adaptive
//!   adversary; expensive (`Θ(n)` operations per vote, `Θ(n²)` votes).
//! * [`LocalCoin`] — every process flips its own fair coin; no registers.
//!   A coin only against adversaries that cannot see the flips
//!   (`δ = 2^{-n}` per side): the zero-cost baseline.
//! * [`ConciliatorCoin`] — drives any conciliator with a random bit input;
//!   in the probabilistic-write model this yields a cheap coin from
//!   [`FirstMoverConciliator`](crate::conciliator::FirstMoverConciliator)
//!   with `δ ≥ δ_conciliator / 2`.

mod conciliator_coin;
mod local;
mod voting;

pub use conciliator_coin::ConciliatorCoin;
pub use local::LocalCoin;
pub use voting::{InvalidQuorumFactor, VotingSharedCoin};
