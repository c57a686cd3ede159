//! Adversary schedulers and the information hierarchy of §2.1.
//!
//! The adversary is a function from partial executions to process ids. Its
//! *strength* is what it is allowed to observe; the engine enforces this by
//! constructing a [`View`] containing exactly the fields the adversary's
//! declared [`Capability`] permits — weaker adversaries physically cannot
//! read what they are not allowed to see.
//!
//! | Capability | sees pending op kind | op location | op value | memory |
//! |---|---|---|---|---|
//! | [`Oblivious`](Capability::Oblivious) | – | – | – | – |
//! | [`ValueOblivious`](Capability::ValueOblivious) | ✓ | ✓ | – | – |
//! | [`LocationOblivious`](Capability::LocationOblivious) | ✓ | reads only | ✓ | ✓ |
//! | [`Adaptive`](Capability::Adaptive) | ✓ | ✓ | ✓ | ✓ |
//!
//! All classes see which processes are still live and how many operations
//! each has executed — both derivable from the schedule the adversary itself
//! produced. No class ever sees local coins before they take effect; the
//! coin of a probabilistic write is resolved only after the adversary has
//! committed to scheduling it (the defining property of the
//! probabilistic-write model).

mod attackers;
mod crashes;
mod schedulers;

pub use attackers::{ImpatienceExploiter, SplitKeeper, WriteBlocker};
pub use crashes::CrashingAdversary;
pub use schedulers::{FixedOrder, RandomScheduler, RoundRobin, ScriptedAdversary};

use mc_model::{OpKind, ProcessId, RegisterId, Value};

use mc_model::Memory;

/// How much of the execution an adversary class may observe (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Capability {
    /// Sees nothing but the set of live processes and the step count;
    /// equivalent executions are those of the same length.
    Oblivious,
    /// Sees pending operation kinds and locations, but no values and no
    /// register contents.
    ValueOblivious,
    /// Sees register contents and pending write values, but cannot
    /// distinguish pending writes to different locations. This is the class
    /// that admits probabilistic writes (Chor–Israeli–Li, Cheung).
    LocationOblivious,
    /// The strong adversary: sees everything except unflipped local coins.
    Adaptive,
}

/// What an adversary can see of one process's pending operation, filtered by
/// its capability.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingInfo {
    /// The process this operation belongs to (always visible — the adversary
    /// produced the schedule, so it knows who it has run).
    pub pid: ProcessId,
    /// Operations this process has executed so far (schedule-derivable).
    pub ops_done: u64,
    /// Pending operation kind, if the capability can distinguish kinds.
    pub kind: Option<OpKind>,
    /// Target register, if visible for this op under this capability.
    pub reg: Option<RegisterId>,
    /// Pending write value, if visible under this capability.
    pub value: Option<Value>,
    /// Probability of a pending probabilistic write, if visible.
    pub prob: Option<f64>,
}

/// The filtered snapshot handed to the adversary at each scheduling step.
#[derive(Debug)]
pub struct View<'a> {
    /// Number of operations executed so far in the whole execution.
    pub step: u64,
    /// Total number of processes in the system (live or halted).
    pub n: usize,
    /// One entry per *live* process, in process-id order.
    pub pending: &'a [PendingInfo],
    /// Register contents, for capabilities that may observe memory.
    pub memory: Option<&'a Memory>,
}

impl View<'_> {
    /// Convenience: the live process ids, in order.
    pub fn live(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.pending.iter().map(|p| p.pid)
    }
}

/// An adversary scheduler: chooses which live process's pending operation
/// executes next.
///
/// Implementations must return the pid of some process present in
/// `view.pending`; the engine rejects other choices with
/// [`RunError::AdversaryChoseInvalid`](crate::RunError).
pub trait Adversary {
    /// The information class this adversary declares; the engine builds the
    /// view accordingly.
    ///
    /// The class is a constant of the adversary: it must return the same
    /// value on every call. The engine reads it once, when the run starts,
    /// and keeps one view censored for that class up to date step by step
    /// (debug builds assert the answer has not changed). Every
    /// implementation in the tree returns a literal or, for a wrapper, its
    /// inner adversary's answer.
    fn capability(&self) -> Capability;

    /// Chooses the next process to take a step.
    fn choose(&mut self, view: &View<'_>) -> ProcessId;

    /// Short name for diagnostics and experiment tables.
    fn name(&self) -> String {
        "adversary".to_string()
    }
}

impl<A: Adversary + ?Sized> Adversary for Box<A> {
    fn capability(&self) -> Capability {
        (**self).capability()
    }
    fn choose(&mut self, view: &View<'_>) -> ProcessId {
        (**self).choose(view)
    }
    fn name(&self) -> String {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_live_lists_pids() {
        let pending = vec![
            PendingInfo {
                pid: ProcessId(0),
                ops_done: 0,
                kind: None,
                reg: None,
                value: None,
                prob: None,
            },
            PendingInfo {
                pid: ProcessId(2),
                ops_done: 3,
                kind: None,
                reg: None,
                value: None,
                prob: None,
            },
        ];
        let view = View {
            step: 5,
            n: 3,
            pending: &pending,
            memory: None,
        };
        let live: Vec<_> = view.live().collect();
        assert_eq!(live, vec![ProcessId(0), ProcessId(2)]);
    }
}
