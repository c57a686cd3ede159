//! Crash failures: an adversary wrapper that permanently stops scheduling
//! chosen processes.
//!
//! In the asynchronous model a crash is indistinguishable from never being
//! scheduled again, so crash failures are an adversary behaviour, not an
//! engine mechanism. Wait-freedom — the property all the paper's protocols
//! have — means every *surviving* process still terminates, with up to
//! `n − 1` crashes.

use std::collections::HashMap;

use mc_model::ProcessId;

use super::{Adversary, Capability, View};

/// Wraps any adversary and crashes the given processes at the given global
/// steps: from that step on, the process is never scheduled again.
///
/// # Example
///
/// ```
/// use mc_model::ProcessId;
/// use mc_sim::{harness::run_with_crashes, adversary::RoundRobin, EngineConfig};
/// use mc_sim::testutil::WriteThenReadSpec;
///
/// // p0 crashes before taking a single step; p1 still finishes.
/// let outcome = run_with_crashes(
///     &WriteThenReadSpec,
///     &[5, 9],
///     RoundRobin::new(),
///     &[(ProcessId(0), 0)],
///     1,
///     &EngineConfig::default(),
/// )
/// .unwrap();
/// assert!(outcome.decisions[0].is_none());
/// assert_eq!(outcome.survivor_outputs().len(), 1);
/// ```
#[derive(Debug)]
pub struct CrashingAdversary<A> {
    inner: A,
    crash_at: HashMap<ProcessId, u64>,
}

impl<A: Adversary> CrashingAdversary<A> {
    /// Wraps `inner`; each `(pid, step)` pair crashes `pid` at global step
    /// `step` (0 = crashed from the start).
    pub fn new(inner: A, crashes: impl IntoIterator<Item = (ProcessId, u64)>) -> Self {
        CrashingAdversary {
            inner,
            crash_at: crashes.into_iter().collect(),
        }
    }

    /// All processes scheduled for a crash (at any step).
    pub fn doomed(&self) -> Vec<ProcessId> {
        let mut out: Vec<ProcessId> = self.crash_at.keys().copied().collect();
        out.sort_unstable();
        out
    }
}

impl<A: Adversary> Adversary for CrashingAdversary<A> {
    fn capability(&self) -> Capability {
        self.inner.capability()
    }

    fn choose(&mut self, view: &View<'_>) -> ProcessId {
        let alive = |pid: ProcessId| {
            self.crash_at
                .get(&pid)
                .is_none_or(|&crash_step| view.step < crash_step)
        };
        let filtered: Vec<_> = view
            .pending
            .iter()
            .filter(|p| alive(p.pid))
            .cloned()
            .collect();
        assert!(
            !filtered.is_empty(),
            "all live processes are crashed; the run should have been stopped"
        );
        let inner_view = View {
            step: view.step,
            n: view.n,
            pending: &filtered,
            memory: view.memory,
        };
        self.inner.choose(&inner_view)
    }

    fn name(&self) -> String {
        format!("{}+crashes({})", self.inner.name(), self.crash_at.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{PendingInfo, RoundRobin};

    fn pending(pids: &[usize]) -> Vec<PendingInfo> {
        pids.iter()
            .map(|&p| PendingInfo {
                pid: ProcessId(p),
                ops_done: 0,
                kind: None,
                reg: None,
                value: None,
                prob: None,
            })
            .collect()
    }

    #[test]
    fn crashed_processes_are_never_chosen() {
        let mut adv =
            CrashingAdversary::new(RoundRobin::new(), [(ProcessId(0), 0), (ProcessId(2), 0)]);
        let p = pending(&[0, 1, 2]);
        let view = View {
            step: 5,
            n: 3,
            pending: &p,
            memory: None,
        };
        for _ in 0..10 {
            assert_eq!(adv.choose(&view), ProcessId(1));
        }
    }

    #[test]
    fn crashes_take_effect_at_their_step() {
        let mut adv = CrashingAdversary::new(RoundRobin::new(), [(ProcessId(0), 10)]);
        let p = pending(&[0, 1]);
        let early = View {
            step: 0,
            n: 2,
            pending: &p,
            memory: None,
        };
        assert_eq!(adv.choose(&early), ProcessId(0));
        let late = View {
            step: 10,
            n: 2,
            pending: &p,
            memory: None,
        };
        assert_eq!(adv.choose(&late), ProcessId(1));
        assert_eq!(adv.doomed(), vec![ProcessId(0)]);
    }

    #[test]
    #[should_panic(expected = "all live processes are crashed")]
    fn all_crashed_is_a_harness_bug() {
        let mut adv = CrashingAdversary::new(RoundRobin::new(), [(ProcessId(0), 0)]);
        let p = pending(&[0]);
        let view = View {
            step: 1,
            n: 1,
            pending: &p,
            memory: None,
        };
        adv.choose(&view);
    }
}
