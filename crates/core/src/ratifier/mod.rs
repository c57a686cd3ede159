//! Ratifiers: deterministic weak consensus objects that detect agreement
//! (§3.1.2, §6).
//!
//! A ratifier satisfies validity, termination, coherence, and *acceptance*:
//! if all inputs equal `v`, all outputs are `(1, v)`. It never needs
//! randomness — agreement detection is a purely combinatorial problem solved
//! by cross-intersecting quorums (see `mc-quorums`).

mod collect;
mod quorum;

pub use collect::CollectRatifier;
pub use quorum::Ratifier;
pub(crate) use quorum::{Masks, RatifierObject, RatifierSession};
