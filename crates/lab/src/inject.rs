//! Fault injection layered over any adversary.
//!
//! Crash injection reuses `mc-sim`'s [`CrashingAdversary`](mc_sim::adversary::CrashingAdversary) (the lab wraps
//! it automatically; see [`Lab::new`](crate::Lab::new)). This module adds
//! *stalls*: a process is held back until a release step, then rejoins —
//! modelling a thread descheduled by the OS rather than one that died.

use std::collections::HashMap;

use mc_model::ProcessId;
use mc_sim::{Adversary, Capability, View};

/// Delays chosen processes until a release step, delegating every actual
/// choice to the inner adversary.
///
/// While a stalled process has the only pending operation, the stall is
/// ignored for that choice — the schedule must stay live, mirroring how a
/// real scheduler cannot hold back the last runnable thread forever.
#[derive(Debug)]
pub struct StallingAdversary<A> {
    inner: A,
    stalls: HashMap<ProcessId, u64>,
}

impl<A: Adversary> StallingAdversary<A> {
    /// Wraps `inner`; each `(pid, release_step)` keeps `pid` unscheduled
    /// until the global step count reaches `release_step`.
    pub fn new(
        inner: A,
        stalls: impl IntoIterator<Item = (ProcessId, u64)>,
    ) -> StallingAdversary<A> {
        StallingAdversary {
            inner,
            stalls: stalls.into_iter().collect(),
        }
    }
}

impl<A: Adversary> Adversary for StallingAdversary<A> {
    fn capability(&self) -> Capability {
        self.inner.capability()
    }

    fn choose(&mut self, view: &View<'_>) -> ProcessId {
        let released: Vec<_> = view
            .pending
            .iter()
            .filter(|info| {
                self.stalls
                    .get(&info.pid)
                    .is_none_or(|&release| view.step >= release)
            })
            .cloned()
            .collect();
        if released.is_empty() {
            // Every pending process is stalled: let the stall lapse rather
            // than wedge the run.
            return self.inner.choose(view);
        }
        let filtered = View {
            step: view.step,
            n: view.n,
            pending: &released,
            memory: view.memory,
        };
        self.inner.choose(&filtered)
    }

    fn name(&self) -> String {
        format!("stalling({})", self.inner.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_model::{Op, RegisterId};
    use mc_sim::observe_pending;

    struct FirstPending;

    impl Adversary for FirstPending {
        fn capability(&self) -> Capability {
            Capability::Oblivious
        }

        fn choose(&mut self, view: &View<'_>) -> ProcessId {
            view.pending[0].pid
        }
    }

    fn view(step: u64, pending: &[mc_sim::PendingInfo]) -> View<'_> {
        let n = pending.len();
        View {
            step,
            n,
            pending,
            memory: None,
        }
    }

    fn view_of(pids: &[usize]) -> Vec<mc_sim::PendingInfo> {
        pids.iter()
            .map(|&p| {
                observe_pending(
                    ProcessId(p),
                    0,
                    &Op::Read(RegisterId(0)),
                    Capability::Oblivious,
                )
            })
            .collect()
    }

    #[test]
    fn stalled_process_is_skipped_until_release() {
        let mut adv = StallingAdversary::new(FirstPending, [(ProcessId(0), 5)]);
        let infos = view_of(&[0, 1]);
        assert_eq!(adv.choose(&view(0, &infos)), ProcessId(1));
        assert_eq!(adv.choose(&view(5, &infos)), ProcessId(0));
    }

    #[test]
    fn stall_lapses_when_it_would_empty_the_schedule() {
        let mut adv = StallingAdversary::new(FirstPending, [(ProcessId(0), 100)]);
        assert_eq!(adv.choose(&view(0, &view_of(&[0]))), ProcessId(0));
    }

    // Liveness regression for the all-stalled lapse path at the Lab
    // level: when *every* pending process is stalled past the horizon,
    // `choose` must fall through to the inner adversary on every step,
    // and the run must still terminate.
    #[test]
    fn all_stalled_run_still_terminates_under_the_lab() {
        use crate::conform::{compare_executions, Execution};
        use crate::Lab;
        use mc_runtime::Consensus;
        use mc_sim::adversary::RandomScheduler;

        let run = |seed: u64| {
            // Release steps far beyond the step limit: the stalls never
            // expire, so every single scheduling choice takes the lapse
            // branch.
            let stalls = (0..3).map(|p| (ProcessId(p), u64::MAX));
            let adversary = StallingAdversary::new(RandomScheduler::new(seed), stalls);
            let lab = Lab::new(3, Box::new(adversary), &[], 50_000);
            let consensus = Consensus::builder().n(3).memory(lab.memory()).build();
            lab.run(seed, |pid, rng| consensus.decide(pid as u64 % 2, rng))
                .map(Execution::from)
                .expect("all-stalled run must stay live, not wedge")
        };
        for seed in [3, 17, 29] {
            let execution = run(seed);
            let first = execution.decisions[0];
            assert!(first < 2, "validity");
            assert!(
                execution.decisions.iter().all(|&d| d == first),
                "agreement: {:?}",
                execution.decisions
            );
            // Seed replay: the lapse path is deterministic too.
            compare_executions(&execution, &run(seed)).unwrap_or_else(|d| panic!("{d}"));
        }
    }
}
