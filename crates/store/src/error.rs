//! The one error type for store submissions.

use std::error::Error;
use std::fmt;

use mc_runtime::EngineError;

/// Why a command submitted to a
/// [`ReplicatedStore`](crate::ReplicatedStore) did not produce a state-
/// machine response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// A caller driving the store unwound mid-decide or out of
    /// `StateMachine::apply` ([`EngineError::Poisoned`]) and the store
    /// stopped ordering. The command was abandoned, never applied.
    Ordering(EngineError),
    /// The command's sequence number predates the session's last applied
    /// one — the session table's cached response has already been
    /// overwritten, so not even the duplicate answer survives. A client
    /// that respects the sequential-session discipline (retry a command
    /// only until its response arrives) never sees this.
    Stale {
        /// The session's last applied sequence number.
        last_seq: u64,
    },
    /// The store is shutting down; the command was refused at intake and
    /// never ordered.
    Shutdown,
    /// A [`CommandHandle::wait_timeout`](crate::CommandHandle::wait_timeout)
    /// elapsed first. The command is still in flight: waiting again can
    /// succeed.
    Timeout,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Ordering(e) => write!(f, "consensus ordering failed: {e}"),
            StoreError::Stale { last_seq } => {
                write!(
                    f,
                    "sequence number predates the session's last ({last_seq})"
                )
            }
            StoreError::Shutdown => write!(f, "the store is shut down"),
            StoreError::Timeout => write!(f, "timed out waiting for the response"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Ordering(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_display_and_chain_sources() {
        let e = StoreError::Ordering(EngineError::Poisoned);
        assert!(e.to_string().contains("worker died"));
        assert!(e.source().is_some());
        assert!(StoreError::Stale { last_seq: 4 }.to_string().contains('4'));
        assert!(StoreError::Shutdown.source().is_none());
        assert_ne!(
            StoreError::Timeout.to_string(),
            StoreError::Shutdown.to_string()
        );
    }
}
