//! Conciliators: weak consensus objects that produce agreement with constant
//! probability (§3.1.1, §5).
//!
//! A conciliator satisfies validity, termination, coherence (vacuously — it
//! always returns decision bit 0), and *probabilistic agreement*: for some
//! fixed `δ > 0`, under any adversary the probability that all return values
//! are equal is at least `δ`.
//!
//! Two families are implemented:
//!
//! * [`FirstMoverConciliator`] — the probabilistic-write conciliators of
//!   §5.2, parameterized by a [`WriteSchedule`]. The paper's impatient
//!   doubling schedule gives Theorem 7's bounds; the fixed `Θ(1/n)` schedule
//!   is the Chor–Israeli–Li / Cheung-style baseline.
//! * [`CoinConciliator`] — Theorem 6's reduction from any weak shared coin,
//!   for models without probabilistic writes.

mod coin_conciliator;
mod dummy_write;
mod first_mover;
mod schedule;

pub use coin_conciliator::CoinConciliator;
pub use dummy_write::DummyWriteConciliator;
pub use first_mover::FirstMoverConciliator;
pub(crate) use first_mover::{FirstMoverObject, FirstMoverSession};
pub use schedule::WriteSchedule;
