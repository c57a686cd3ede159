//! # mc-lab — a deterministic interleaving lab for the real-thread runtime
//!
//! `mc-runtime` runs the paper's protocols on real threads over real atomic
//! registers — which makes its interleavings whatever the OS scheduler
//! happens to produce. This crate closes that gap: it runs the *same*
//! runtime objects (same `Consensus`, driving the same `mc-core` sessions,
//! same code paths) with their registers swapped for an instrumented
//! substrate in which **every** load, store, and probabilistic write is a
//! yield point controlled by a seeded adversarial scheduler.
//!
//! Concretely, [`Lab`] spawns one real thread per process. A thread that
//! touches a [`LabRegister`] posts the operation and blocks; once every
//! unfinished thread has posted, an [`mc_sim::Adversary`] — the *same*
//! adversary trait the simulator uses, including the attacker heuristics
//! and the PCT scheduler in `mc_sim::sched` — picks which operation commits
//! next. Exactly one thread runs at a time, so the interleaving is a pure
//! function of (adversary, seed), and re-running reproduces it bit for bit.
//!
//! Three things fall out of this design:
//!
//! * **Determinism for real code.** Crash injection ([`Lab::new`]'s crash
//!   plan) and stall injection ([`StallingAdversary`]) apply to actual
//!   runtime threads, reproducibly.
//! * **Cross-substrate conformance.** A lab run draws its coins exactly the
//!   way the sim engine does (per-process `mix_seed(seed, pid)` streams)
//!   and observes the adversary through identical views, so
//!   [`check_conformance`] can demand the sim engine and the lab runtime
//!   produce *equal* traces, decisions, and work accounting — and then
//!   replay the lab's recorded script through `mc-check` to pull the
//!   exhaustive checker into agreement too.
//! * **A falsifiable lab.** [`RacyConsensus`] is a deliberately broken toy
//!   protocol; the lab's schedulers must (and do) find the interleaving
//!   that violates agreement. A green conformance suite is only evidence
//!   because this negative control stays red.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conform;
mod control;
mod harness;
pub mod inject;
pub mod toy;

pub use conform::{
    check_chaos_conformance, check_conformance, check_conformance_with_plan,
    check_recycled_conformance, check_service_conformance, check_store_conformance, Conformance,
    Divergence, Protocol,
};
pub use control::{LabError, LabMemory, LabRegister};
pub use harness::{Lab, LabReport};
pub use inject::StallingAdversary;
pub use toy::{RacyConsensus, RacySpec};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conform::{compare_executions, Execution};
    use mc_model::ProcessId;
    use mc_runtime::Consensus;
    use mc_sim::adversary::{RandomScheduler, RoundRobin};
    use mc_sim::sched::PctScheduler;
    use mc_sim::Adversary;

    /// Binary consensus on `n` lab threads, process `pid` proposing `pid % 2`.
    fn run_binary(lab: &Lab, n: usize, seed: u64) -> Result<LabReport, LabError> {
        let consensus = Consensus::builder().n(n).memory(lab.memory()).build();
        lab.run(seed, |pid, rng| consensus.decide(pid as u64 % 2, rng))
    }

    fn adversaries(seed: u64) -> Vec<Box<dyn Adversary + Send>> {
        vec![
            Box::new(RandomScheduler::new(seed)),
            Box::new(PctScheduler::new(3, 200, seed)),
            Box::new(RoundRobin::new()),
        ]
    }

    #[test]
    fn lab_consensus_decides_and_agrees() {
        for adversary in adversaries(11) {
            let report = run_binary(&Lab::new(3, adversary, &[], 50_000), 3, 11).unwrap();
            let first = report.decisions[0].unwrap();
            assert!(first < 2);
            assert!(report.decisions.iter().all(|&d| d == Some(first)));
            assert!(!report.trace.is_empty());
            assert!(!report.path.is_empty());
            assert!(report.metrics.total_work() > 0);
        }
    }

    #[test]
    fn same_seed_reproduces_the_exact_run() {
        let run = |seed: u64| {
            let lab = Lab::new(3, Box::new(RandomScheduler::new(seed)), &[], 50_000);
            run_binary(&lab, 3, seed).map(Execution::from).unwrap()
        };
        compare_executions(&run(42), &run(42)).unwrap_or_else(|d| panic!("{d}"));
    }

    #[test]
    fn crashed_process_never_decides_but_survivors_agree() {
        let lab = Lab::new(
            3,
            Box::new(RandomScheduler::new(5)),
            &[(ProcessId(2), 4)],
            50_000,
        );
        let report = run_binary(&lab, 3, 5).unwrap();
        assert_eq!(report.decisions[2], None);
        assert_eq!(report.crashed, vec![ProcessId(2)]);
        let d0 = report.decisions[0].unwrap();
        assert_eq!(report.decisions[1], Some(d0));
        // The crashed process took at most its pre-crash steps.
        assert!(report.metrics.per_process[2] <= 4);
    }

    #[test]
    fn stalled_process_still_decides() {
        let inner = RandomScheduler::new(9);
        let adversary = StallingAdversary::new(inner, [(ProcessId(0), 30)]);
        let report = run_binary(&Lab::new(2, Box::new(adversary), &[], 50_000), 2, 9).unwrap();
        let d0 = report.decisions[0].unwrap();
        assert_eq!(report.decisions[1], Some(d0));
    }

    #[test]
    fn faulty_memory_over_lab_memory_is_deterministic_and_safe() {
        use mc_runtime::{Consensus, FaultPlan, FaultyMemory};

        let run = |seed: u64| {
            let lab = Lab::new(3, Box::new(RandomScheduler::new(seed)), &[], 400_000);
            let plan = FaultPlan::seeded(seed)
                .lost_prob_writes(0.4)
                .stale_reads(0.3)
                .delayed_writes(0.2, 3)
                .register_resets(0.02);
            let memory = FaultyMemory::new(lab.memory(), plan);
            let counts = memory.clone();
            let consensus = Consensus::builder().n(3).memory(memory).build_bounded();
            let report = lab
                .run(seed, |pid, rng| consensus.decide(pid, pid as u64 % 2, rng))
                .expect("bounded consensus must terminate under faults");
            (Execution::from(report), counts.fault_counts())
        };
        for seed in [2, 13, 31] {
            let (execution, counts) = run(seed);
            let first = execution.decisions[0];
            assert!(first < 2, "validity under faults");
            assert!(
                execution.decisions.iter().all(|&d| d == first),
                "agreement under faults: {:?}",
                execution.decisions
            );
            // Same (adversary, seed, plan) ⇒ bit-identical run, faults and
            // all: fault decisions land in each thread's exclusive
            // scheduling window.
            let (replay, replay_counts) = run(seed);
            compare_executions(&execution, &replay).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            assert_eq!(counts, replay_counts);
        }
    }

    #[test]
    fn a_chain_opening_with_a_conciliator_replays_under_lost_writes() {
        use mc_runtime::{Consensus, FaultPlan, FaultyMemory};

        // The lost-write draw precedes a conciliator's probabilistic write;
        // it stays in the thread's exclusive window as the conciliator
        // reads first.
        let run = |seed: u64| {
            let lab = Lab::new(3, Box::new(RandomScheduler::new(seed)), &[], 400_000);
            let plan = FaultPlan::seeded(seed).lost_prob_writes(0.5);
            let memory = FaultyMemory::new(lab.memory(), plan);
            let counts = memory.clone();
            let chain = Consensus::builder()
                .n(3)
                .fast_path(false)
                .memory(memory)
                .build();
            let report = lab.run(seed, |pid, rng| chain.decide_as(pid, pid as u64 % 2, rng));
            (Execution::from(report.unwrap()), counts.fault_counts())
        };
        for seed in [0, 5, 9] {
            let (execution, counts) = run(seed);
            assert!(counts.lost_prob_writes > 0, "seed {seed}");
            let (replay, replay_counts) = run(seed);
            compare_executions(&execution, &replay).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            assert_eq!(counts, replay_counts, "seed {seed}");
        }
    }

    #[test]
    fn recycled_typed_consensus_matches_fresh_on_lab_memory() {
        use mc_runtime::TypedConsensus;
        use mc_sim::adversary::RandomScheduler;

        // Non-trivial payloads through a reset instance: the recycled run
        // at the same (adversary, seed) must reproduce the fresh run's
        // decisions, trace, schedule script, and register accounting
        // (same register ids ⇒ same registers_allocated/touched).
        for seed in [3, 19, 57] {
            let mut lab = Lab::new(3, Box::new(RandomScheduler::new(seed)), &[], 100_000);
            let mut typed = TypedConsensus::<u16, LabMemory>::new_in(lab.memory(), 3);
            let proposals: [u16; 3] = [0xBEEF, 0x0042, 0x7FFF];
            let run = |lab: &Lab, typed: &TypedConsensus<u16, LabMemory>| {
                lab.run(seed, |pid, rng| {
                    u64::from(typed.decide(proposals[pid], rng))
                })
                .map(Execution::from)
                .unwrap()
            };
            let fresh = run(&lab, &typed);
            typed.reset();
            lab.reset_epoch(Box::new(RandomScheduler::new(seed)), &[]);
            let recycled = run(&lab, &typed);
            compare_executions(&fresh, &recycled).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            let decided = fresh.decisions[0] as u16;
            assert!(proposals.contains(&decided), "seed {seed}: validity");
        }
    }

    #[test]
    fn step_limit_is_reported() {
        let lab = Lab::new(2, Box::new(RandomScheduler::new(1)), &[], 3);
        let err = run_binary(&lab, 2, 1).unwrap_err();
        assert_eq!(err, LabError::StepLimitExceeded { limit: 3 });
    }

    #[test]
    fn negative_control_racy_protocol_is_caught() {
        // The broken toy protocol must fail agreement under *some* seeded
        // schedule; if no scheduler can exhibit the race, the lab is not
        // actually exploring interleavings.
        let mut caught = false;
        'outer: for seed in 0..64 {
            for adversary in adversaries(seed) {
                let lab = Lab::new(2, adversary, &[], 10_000);
                let racy = RacyConsensus::new_in(&lab.memory());
                let report = lab.run(seed, |pid, _| racy.decide(pid as u64)).unwrap();
                if report.decisions[0] != report.decisions[1] {
                    caught = true;
                    break 'outer;
                }
            }
        }
        assert!(caught, "no schedule exhibited the agreement violation");
    }

    #[test]
    fn store_conforms_to_sequential_apply_on_fixed_seeds() {
        // Interleaved sessions, duplicate re-delivery, stale probes, final
        // state — all against the bare-machine oracle, on pinned seeds
        // with single- and multi-proposer stores.
        for (seed, proposers) in [(5u64, 1usize), (23, 2), (71, 3)] {
            let applied = check_store_conformance(4, 24, proposers, seed)
                .unwrap_or_else(|d| panic!("seed {seed}, {proposers} proposers: {d}"));
            assert_eq!(applied, 4 * 24, "every distinct command applies once");
        }
    }

    #[test]
    fn real_worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            let lab = Lab::new(2, Box::new(RandomScheduler::new(3)), &[], 10_000);
            let consensus = Consensus::builder().n(2).memory(lab.memory()).build();
            lab.run(3, |pid, rng| {
                if pid == 1 {
                    panic!("worker bug");
                }
                consensus.decide(0, rng)
            })
        });
        assert!(result.is_err());
    }
}
