//! Running real threads under the lab controller.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::thread;

use mc_check::PathEvent;
use mc_model::ProcessId;
use mc_sim::adversary::CrashingAdversary;
use mc_sim::{mix_seed, Adversary, Trace, WorkMetrics};
use rand::rngs::SmallRng;
use rand::SeedableRng;

pub use crate::control::LabError;
use crate::control::{set_current_pid, Interrupted, LabController, LabMemory};

/// Everything a completed lab run produced.
#[derive(Debug)]
pub struct LabReport {
    /// Per-process return value of the algorithm body; `None` for processes
    /// that crashed (were never scheduled past their crash step).
    pub decisions: Vec<Option<u64>>,
    /// Processes that were configured to crash.
    pub crashed: Vec<ProcessId>,
    /// Work accounting, field-compatible with `mc-sim`'s.
    pub metrics: WorkMetrics,
    /// The executed operations, in schedule order, in `mc-sim`'s trace
    /// vocabulary.
    pub trace: Trace,
    /// The schedule/coin script in `mc-check`'s replay vocabulary: feed it
    /// to [`mc_check::replay_to_completion`] to re-execute the identical
    /// interleaving on the model.
    pub path: Vec<PathEvent>,
}

/// One configured deterministic lab run.
///
/// ```
/// use mc_lab::Lab;
/// use mc_runtime::Consensus;
/// use mc_sim::adversary::RandomScheduler;
///
/// let lab = Lab::new(2, Box::new(RandomScheduler::new(7)), &[], 10_000);
/// let consensus = Consensus::builder().n(2).memory(lab.memory()).build();
/// let report = lab
///     .run(7, |pid, rng| consensus.decide(pid as u64 % 2, rng))
///     .unwrap();
/// let d0 = report.decisions[0].unwrap();
/// assert_eq!(report.decisions[1], Some(d0));
/// ```
#[derive(Debug)]
pub struct Lab {
    ctrl: Arc<LabController>,
    crashed: Vec<ProcessId>,
}

impl Lab {
    /// Configures a lab for `n` real threads scheduled by `adversary`.
    ///
    /// Each `(pid, step)` in `crashes` halts that process permanently once
    /// the global step count reaches `step` (the adversary simply never
    /// schedules it again). `max_steps` bounds the run; exceeding it yields
    /// [`LabError::StepLimitExceeded`].
    pub fn new(
        n: usize,
        adversary: Box<dyn Adversary + Send>,
        crashes: &[(ProcessId, u64)],
        max_steps: u64,
    ) -> Lab {
        let (adversary, crashed) = with_crashes(n, adversary, crashes);
        Lab {
            ctrl: LabController::new(n, adversary, &crashed, max_steps),
            crashed,
        }
    }

    /// Configures a lab that replays an `mc-check` counterexample script
    /// through real runtime objects: [`PathEvent::Sched`] events drive a
    /// [`ScriptedAdversary`] and [`PathEvent::Coin`] events pre-resolve the
    /// probabilistic writes, in schedule order.
    ///
    /// Past the end of the script both fall back to their defaults
    /// (round-robin scheduling, the worker's own rng), so a run whose
    /// script stops at the violating step still drains cleanly; the
    /// violation the checker found is visible in the returned
    /// [`LabReport::decisions`].
    ///
    /// [`ScriptedAdversary`]: mc_sim::adversary::ScriptedAdversary
    pub fn replay(n: usize, script: &[PathEvent], max_steps: u64) -> Lab {
        let mut pids = Vec::new();
        let mut coins = Vec::new();
        for event in script {
            match event {
                PathEvent::Sched(pid) => pids.push(*pid),
                PathEvent::Coin(outcome) => coins.push(*outcome),
            }
        }
        let lab = Lab::new(
            n,
            Box::new(mc_sim::adversary::ScriptedAdversary::new(pids)),
            &[],
            max_steps,
        );
        lab.ctrl.force_coins(coins);
        lab
    }

    /// The instrumented memory: pass it to an `mc-runtime` builder's
    /// `memory` call *before* calling [`run`](Lab::run). Register allocation
    /// does not yield, so construction is safe outside worker threads.
    pub fn memory(&self) -> LabMemory {
        LabMemory::new(Arc::clone(&self.ctrl))
    }

    /// Rearms this lab for another run over the *same* register file:
    /// register ids (and the allocation high-water mark) survive, so pooled
    /// objects built on [`memory`](Lab::memory) keep working after a
    /// `reset`, while the mirror memory, schedule state, trace, path, and
    /// work metrics start over as if the lab were newly built.
    ///
    /// This is the recycled-vs-fresh conformance primitive: reset the
    /// object, `reset_epoch` with an identically-seeded adversary, rerun —
    /// the two reports must be identical in every observable.
    ///
    /// # Panics
    ///
    /// Panics if a run is in progress, or if a crash target is out of range,
    /// or if no process survives the crash plan.
    pub fn reset_epoch(
        &mut self,
        adversary: Box<dyn Adversary + Send>,
        crashes: &[(ProcessId, u64)],
    ) {
        let (adversary, crashed) = with_crashes(self.ctrl.n(), adversary, crashes);
        self.ctrl.reset_epoch(adversary, &crashed);
        self.crashed = crashed;
    }

    /// Runs `body(pid, rng)` on `n` real threads under the adversary's
    /// schedule and collects the full report.
    ///
    /// Each process's rng is seeded from `mix_seed(seed, pid)` — exactly
    /// how `mc-sim`'s engine seeds its per-process coin streams — and in a
    /// lab run only probabilistic writes consume it, so the coin sequences
    /// of the two substrates stay aligned.
    ///
    /// A lab is single-shot per epoch: to run again on the same register
    /// file, call [`reset_epoch`](Lab::reset_epoch) first.
    pub fn run(
        &self,
        seed: u64,
        body: impl Fn(usize, &mut SmallRng) -> u64 + Sync,
    ) -> Result<LabReport, LabError> {
        install_quiet_hook();
        let n = self.ctrl.n();
        let ctrl = &self.ctrl;
        let body = &body;
        let decisions: Vec<Option<u64>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|pid| {
                    scope.spawn(move || {
                        set_current_pid(Some(pid));
                        let mut rng = SmallRng::seed_from_u64(mix_seed(seed, pid as u64));
                        let result = panic::catch_unwind(AssertUnwindSafe(|| body(pid, &mut rng)));
                        set_current_pid(None);
                        match result {
                            Ok(value) => {
                                ctrl.finish(pid);
                                Some(value)
                            }
                            Err(payload) if payload.downcast_ref::<Interrupted>().is_some() => None,
                            Err(payload) => {
                                // A real failure: release every peer blocked
                                // in the rendezvous, then let it propagate.
                                ctrl.abort();
                                panic::resume_unwind(payload);
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| match handle.join() {
                    Ok(decision) => decision,
                    Err(payload) => panic::resume_unwind(payload),
                })
                .collect()
        });
        let (metrics, trace, path, error) = self.ctrl.take_results();
        if let Some(error) = error {
            return Err(error);
        }
        Ok(LabReport {
            decisions,
            crashed: self.crashed.clone(),
            metrics,
            trace,
            path,
        })
    }
}

/// Checks a crash plan against `n` processes and wraps `adversary` so it
/// never schedules a crashed process past its step; also returns the
/// crashed pids.
fn with_crashes(
    n: usize,
    adversary: Box<dyn Adversary + Send>,
    crashes: &[(ProcessId, u64)],
) -> (Box<dyn Adversary + Send>, Vec<ProcessId>) {
    let crashed: Vec<ProcessId> = crashes.iter().map(|&(pid, _)| pid).collect();
    for pid in &crashed {
        assert!(pid.index() < n, "crash target {pid} out of range");
    }
    assert!(
        crashed.len() < n,
        "at least one process must survive the crash plan"
    );
    if crashes.is_empty() {
        (adversary, crashed)
    } else {
        let adversary = CrashingAdversary::new(adversary, crashes.iter().copied());
        (Box::new(adversary), crashed)
    }
}

/// Suppresses panic-hook noise for the private `Interrupted` unwinds used
/// to retire doomed workers; every other panic still reaches the previous
/// hook. Installed once per process, chained onto whatever was there.
fn install_quiet_hook() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Interrupted>().is_none() {
                previous(info);
            }
        }));
    });
}
