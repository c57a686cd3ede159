//! The state-machine contract a [`ReplicatedStore`](crate::ReplicatedStore)
//! replicates.

/// A deterministic state machine driven by totally-ordered commands.
///
/// The replication layer guarantees every replica applies the same
/// commands in the same order; **determinism is the machine's half of the
/// bargain**: `apply` must depend only on the current state and the
/// command — no clocks, no randomness, no ambient I/O — or replicas
/// diverge silently.
///
/// The store keeps no applied slot and no copy of the state: the machine
/// is the only record of what was applied.
pub trait StateMachine: Send + 'static {
    /// One operation on the machine. Cloned into retries and batches.
    type Command: Clone + Send + 'static;
    /// What one command returns. Cached per session for duplicate
    /// suppression, so it must be cloneable; shared through a response
    /// block that any thread may read, so it must be `Sync`.
    type Response: Clone + Send + Sync + 'static;

    /// Applies one command, mutating the state and producing the response
    /// the issuing client sees. Must be deterministic.
    fn apply(&mut self, command: &Self::Command) -> Self::Response;
}
