//! Whole-configuration snapshots used by the graph engine.
//!
//! A configuration of an `n`-process execution is fully described by the
//! shared memory, each process's session control state (as tagged
//! [`StateAtom`]s), each process's decision (if halted), whether a
//! scheduled probabilistic write is awaiting its coin, and how many
//! operations each process has performed. Operation counts are part of the
//! state on purpose: they make the state graph acyclic (every transition
//! increases a count or resolves a coin), so breadth-first search
//! terminates and finds *shortest* counterexamples; they also keep the
//! step-bound accounting of the path engine and the graph engine aligned.

use mc_model::{Decision, StateAtom, Value};

/// One process's part of a configuration snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcSnapshot {
    /// The session's control state, in the object's canonical atom order.
    pub control: Vec<StateAtom>,
    /// Operations this process has performed (scheduled) so far.
    pub ops: u64,
    /// The decision, if the process has halted.
    pub decision: Option<Decision>,
    /// Whether this process's scheduled probabilistic write awaits its
    /// coin outcome.
    pub coin_pending: bool,
}

/// A full configuration snapshot: shared memory plus every process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSnapshot {
    /// Written registers, sorted by register id. Unwritten registers read
    /// as `None` and are absent here, so two configurations with equal
    /// maps are indistinguishable to every future read.
    pub memory: Vec<(u64, Value)>,
    /// Per-process snapshots, indexed by process id.
    pub procs: Vec<ProcSnapshot>,
}
