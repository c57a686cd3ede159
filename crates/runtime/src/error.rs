//! The one error type for the engine/service submission surface.
//!
//! PR 4's `SubmitError` covered exactly one failure (`Saturated`); the
//! batching service layer adds admission-control refusals (`Rejected`,
//! `Shed`), handle-wait timeouts, and worker-death poisoning. Rather than
//! grow a zoo of per-layer error enums, every way a proposal can fail to
//! produce a decision is one variant of [`EngineError`], hand-rolled over
//! `std` only.

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
    /// The instance's engine shard is at its `max_live_per_shard` bound;
    /// retry after some instance retires, or use the blocking
    /// [`submit`](crate::ConsensusEngine::submit).
    Saturated,
    /// The service's intake ring is at capacity under
    /// [`BackpressurePolicy::Reject`](crate::BackpressurePolicy::Reject);
    /// the proposal was never enqueued.
    Rejected,
    /// The service's queue depth reached the configured shedding bound
    /// under [`BackpressurePolicy::Shed`](crate::BackpressurePolicy::Shed);
    /// the proposal was dropped at admission.
    Shed {
        /// The depth bound that was hit.
        max_queue_depth: usize,
    },
    /// A [`DecisionHandle::wait_timeout`](crate::DecisionHandle::wait_timeout)
    /// elapsed before the decision arrived. The proposal is still in
    /// flight: waiting again can succeed.
    Timeout,
    /// The proposal was accepted but its shard worker died before
    /// completing it (worker panic or service teardown with the proposal
    /// unprocessed). The decision will never arrive.
    Poisoned,
    /// The deadline carried by a
    /// [`SubmitOptions`](crate::SubmitOptions) budget expired — at
    /// admission (no retry attempt left time to try again) or while
    /// waiting on a [`DecisionHandle`](crate::DecisionHandle) whose
    /// deadline was set. Unlike [`Timeout`](EngineError::Timeout), the
    /// budget is spent: retrying requires a new deadline.
    DeadlineExceeded,
    /// The service's circuit breaker is open after sustained overload;
    /// admission fast-fails without touching the rings. Retry after the
    /// breaker's cooldown, when a probe can half-open it.
    CircuitOpen,
    /// Every retry the [`RetryPolicy`](crate::RetryPolicy) allowed was
    /// refused at admission (`Rejected`/`Shed` each time).
    RetriesExhausted {
        /// Admission attempts made (initial try plus retries).
        attempts: u32,
    },
    /// The instance lies below the floor raised by
    /// [`ConsensusEngine::retire_below`](crate::ConsensusEngine::retire_below):
    /// it is finished, and a fresh object in its place could decide
    /// differently, so the submit was refused.
    Retired,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Saturated => write!(f, "shard is at its live-instance bound"),
            EngineError::Rejected => write!(f, "intake ring is at capacity"),
            EngineError::Shed { max_queue_depth } => {
                write!(
                    f,
                    "queue depth reached the shedding bound {max_queue_depth}"
                )
            }
            EngineError::Timeout => write!(f, "timed out waiting for the decision"),
            EngineError::Poisoned => write!(f, "the shard worker died before deciding"),
            EngineError::DeadlineExceeded => write!(f, "the submission deadline expired"),
            EngineError::CircuitOpen => write!(f, "the circuit breaker is open"),
            EngineError::RetriesExhausted { attempts } => {
                write!(f, "admission refused all {attempts} attempts")
            }
            EngineError::Retired => write!(f, "the instance was retired below the engine's floor"),
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
            EngineError::Saturated,
            EngineError::Rejected,
            EngineError::Shed {
                max_queue_depth: 64,
            },
            EngineError::Timeout,
            EngineError::Poisoned,
            EngineError::DeadlineExceeded,
            EngineError::CircuitOpen,
            EngineError::RetriesExhausted { attempts: 3 },
            EngineError::Retired,
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
        assert_eq!(
            EngineError::Shed {
                max_queue_depth: 64
            }
            .to_string(),
            "queue depth reached the shedding bound 64"
        );
        assert_eq!(
            EngineError::RetriesExhausted { attempts: 3 }.to_string(),
            "admission refused all 3 attempts"
        );
    }
}
