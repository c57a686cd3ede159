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
/// Snapshot/restore is the compaction hook: the store captures
/// [`snapshot`](StateMachine::snapshot) at a configurable cadence and
/// keeps no applied slot, so a machine restored from a snapshot resumes
/// without replaying the slots before it. `restore` must be
/// `snapshot`'s exact inverse: `S::restore(&s.snapshot())` behaves
/// identically to `s` on every future command sequence.
pub trait StateMachine: Send + 'static {
    /// One operation on the machine. Cloned into retries and batches.
    type Command: Clone + Send + 'static;
    /// What one command returns. Cached per session for duplicate
    /// suppression, so it must be cloneable; shared through a response
    /// block that any thread may read, so it must be `Sync`.
    type Response: Clone + Send + Sync + 'static;
    /// A frozen copy of the whole state.
    type Snapshot: Clone + Send + 'static;

    /// Applies one command, mutating the state and producing the response
    /// the issuing client sees. Must be deterministic.
    fn apply(&mut self, command: &Self::Command) -> Self::Response;

    /// Captures the current state.
    fn snapshot(&self) -> Self::Snapshot;

    /// Rebuilds a machine from a snapshot. Must invert
    /// [`snapshot`](StateMachine::snapshot) exactly.
    fn restore(snapshot: &Self::Snapshot) -> Self;
}
