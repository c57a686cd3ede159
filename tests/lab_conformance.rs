//! Cross-substrate conformance: the same protocol, inputs, adversary, and
//! seed must produce *equal* executions on the `mc-sim` model engine and on
//! `mc-runtime`'s real threads under the `mc-lab` scheduler — decisions,
//! traces, and work accounting alike — and the lab's recorded schedule/coin
//! script must replay to the same decisions through `mc-check`.
//!
//! The bounded matrix here runs in tier-1; the full 10⁴-seed campaign is
//! `cargo run --release -p mc-bench --bin lab_explore` (wired into CI).

use modular_consensus::check::{CheckConfig, Explorer};
use modular_consensus::lab::{
    check_conformance, Conformance, Lab, Protocol, RacyConsensus, StallingAdversary,
};
use modular_consensus::model::ProcessId;
use modular_consensus::runtime::Consensus;
use modular_consensus::sim::adversary::{
    ImpatienceExploiter, RandomScheduler, RoundRobin, SplitKeeper,
};
use modular_consensus::sim::sched::PctScheduler;
use modular_consensus::sim::Adversary;

type MakeAdversary = Box<dyn Fn() -> Box<dyn Adversary + Send>>;

fn adversary_menu(seed: u64) -> Vec<(&'static str, MakeAdversary)> {
    vec![
        (
            "random",
            Box::new(move || Box::new(RandomScheduler::new(seed)) as _),
        ),
        (
            "pct",
            Box::new(move || Box::new(PctScheduler::new(3, 500, seed)) as _),
        ),
        ("round-robin", Box::new(|| Box::new(RoundRobin::new()) as _)),
        (
            "split-keeper",
            Box::new(move || Box::new(SplitKeeper::new(seed)) as _),
        ),
        (
            "impatience-exploiter",
            Box::new(|| Box::new(ImpatienceExploiter::new()) as _),
        ),
    ]
}

#[test]
fn bounded_matrix_sim_and_lab_agree_exactly() {
    for protocol in [Protocol::Binary, Protocol::Multivalued(6)] {
        let m = protocol.capacity();
        for seed in 0..12 {
            for (name, make) in adversary_menu(seed) {
                let inputs: Vec<u64> = (0..3).map(|pid| (seed + pid) % m).collect();
                check_conformance(protocol, &inputs, &make, seed, 100_000).unwrap_or_else(
                    |divergence| panic!("{protocol} seed {seed} adversary {name}: {divergence}"),
                );
            }
        }
    }
}

/// At `n = 2` the exhaustive checker closes the triangle from the other
/// side: over *every* schedule and coin outcome (bounded depth), the model
/// protocol has no safety violation — and each lab run is one of those
/// paths, so sim/lab agreement plus checker exhaustiveness means all three
/// substrates certify the same protocol.
#[test]
fn exhaustive_checker_agrees_at_n2() {
    use modular_consensus::core::protocol::ConsensusBuilder;

    // The construction the lab's `Protocol::Binary` runs, held concretely
    // so the explorer can own it.
    let spec = ConsensusBuilder::binary().build();
    let report = Explorer::new(spec, vec![0, 1])
        .with_config(CheckConfig {
            max_steps: 16,
            max_paths: 5_000_000,
            ..CheckConfig::default()
        })
        .verify_safety()
        .unwrap();
    // The conciliator can flip coins forever, so deep paths truncate; what
    // the checker must certify is that no explored path — truncated or
    // complete — violates coherence, validity, or agreement.
    assert!(
        report.violation.is_none(),
        "checker found a violation the conformance suite missed: {:?}",
        report.violation
    );
    assert!(report.complete_paths > 0);

    // And the lab's runs at the same size stay inside that certified space.
    for seed in 0..24 {
        let make: MakeAdversary = Box::new(move || Box::new(RandomScheduler::new(seed)) as _);
        check_conformance(Protocol::Binary, &[0, 1], &make, seed, 50_000)
            .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
    }
}

#[test]
fn crash_injection_matches_sim_crash_harness_decisions() {
    use modular_consensus::core::protocol::ConsensusBuilder;
    use modular_consensus::sim::harness::run_with_crashes;
    use modular_consensus::sim::EngineConfig;

    let crashes = [(ProcessId(1), 6)];
    for seed in 0..10 {
        let spec = ConsensusBuilder::binary().build();
        let sim = run_with_crashes(
            &spec,
            &[0, 1, 1],
            RandomScheduler::new(seed),
            &crashes,
            seed,
            &EngineConfig::default().with_max_steps(100_000).with_trace(),
        )
        .unwrap();

        let lab = Lab::new(3, Box::new(RandomScheduler::new(seed)), &crashes, 100_000);
        let consensus = Consensus::builder().n(3).memory(lab.memory()).build();
        let inputs = [0u64, 1, 1];
        let report = lab
            .run(seed, |pid, rng| consensus.decide(inputs[pid], rng))
            .unwrap();

        let sim_values: Vec<Option<u64>> =
            sim.decisions.iter().map(|d| d.map(|d| d.value())).collect();
        assert_eq!(
            sim_values, report.decisions,
            "seed {seed}: crash-run decisions diverge"
        );
        assert_eq!(
            sim.trace.as_ref().unwrap(),
            &report.trace,
            "seed {seed}: crash-run traces diverge"
        );
        assert_eq!(sim.metrics, report.metrics, "seed {seed}: crash metrics");
    }
}

#[test]
fn stalls_preserve_agreement_and_determinism() {
    let run = |seed: u64| {
        let adversary = StallingAdversary::new(RandomScheduler::new(seed), [(ProcessId(0), 40)]);
        let lab = Lab::new(3, Box::new(adversary), &[], 100_000);
        let consensus = Consensus::builder().n(3).memory(lab.memory()).build();
        lab.run(seed, |pid, rng| consensus.decide(pid as u64 % 2, rng))
            .unwrap()
    };
    for seed in 0..10 {
        let a = run(seed);
        let first = a.decisions[0].unwrap();
        assert!(a.decisions.iter().all(|&d| d == Some(first)));
        let b = run(seed);
        assert_eq!(
            a.trace, b.trace,
            "seed {seed}: stalled runs not reproducible"
        );
    }
}

/// The negative control: a deliberately broken protocol must be caught.
/// Without this, a fully green conformance suite would be indistinguishable
/// from a lab that never explores a dangerous interleaving.
#[test]
fn lab_catches_injected_coherence_bug() {
    let mut caught = false;
    for seed in 0..64 {
        let lab = Lab::new(2, Box::new(RandomScheduler::new(seed)), &[], 10_000);
        let racy = RacyConsensus::new_in(&lab.memory());
        let report = lab.run(seed, |pid, _| racy.decide(pid as u64)).unwrap();
        if report.decisions[0] != report.decisions[1] {
            caught = true;
            break;
        }
    }
    assert!(caught, "lab failed to exhibit the injected agreement bug");
}

/// Step-limit agreement: when the adversary starves the protocol past the
/// budget, both substrates must say so (rather than one completing).
#[test]
fn both_substrates_report_step_limit_together() {
    for seed in 0..5 {
        let make: MakeAdversary = Box::new(move || Box::new(RandomScheduler::new(seed)) as _);
        match check_conformance(Protocol::Binary, &[0, 1, 1], &make, seed, 8) {
            Ok(Conformance::BothStepLimited) => {}
            Ok(Conformance::Agreed { .. }) => panic!("8 steps cannot complete consensus"),
            Err(divergence) => panic!("seed {seed}: {divergence}"),
        }
    }
}
