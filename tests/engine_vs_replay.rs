//! Cross-validation of the two execution engines: a run recorded by the
//! `mc-sim` engine, when re-executed by the `mc-check` replayer from its
//! trace, must produce byte-identical outputs.
//!
//! Both call the one register rule (`mc_model::Memory::perform`), so this
//! pins the rest of each engine: scheduling, coin scripting and session
//! stepping; if either drifted, these tests would diverge.

use std::sync::Arc;

use modular_consensus::check::{replay_to_completion, CoinPolicy, PathEvent};
use modular_consensus::prelude::*;
use modular_consensus::sim::{Event, Trace};

/// Converts an engine trace into a replay script: each event contributes a
/// scheduling choice, and each probabilistic write additionally contributes
/// its observed coin outcome.
fn script_from_trace(trace: &Trace) -> Vec<PathEvent> {
    let mut script = Vec::new();
    for Event {
        pid, op, observed, ..
    } in trace.events()
    {
        script.push(PathEvent::Sched(*pid));
        if let modular_consensus::model::Op::ProbWrite { prob, .. } = op {
            // Certain or impossible writes don't branch in the replayer.
            if prob.get() > 0.0 && !prob.is_certain() {
                let performed = *observed == Some(1);
                script.push(PathEvent::Coin(performed));
            }
        }
    }
    script
}

fn cross_validate(spec: &dyn ObjectSpec, inputs: &[Value], seeds: u64) {
    for seed in 0..seeds {
        let outcome = harness::run_object(
            spec,
            inputs,
            &mut adversary::RandomScheduler::new(seed),
            seed,
            &EngineConfig::default().with_trace(),
        )
        .unwrap();
        let trace = outcome.trace.as_ref().expect("trace recorded");
        let script = script_from_trace(trace);
        let replayed =
            replay_to_completion(spec, inputs, CoinPolicy::Forbid, script.len() + 1, &script)
                .unwrap_or_else(|e| panic!("seed {seed}: replay failed: {e}"));
        assert_eq!(
            replayed, outcome.outputs,
            "seed {seed}: engines disagree on outputs"
        );
    }
}

#[test]
fn ratifier_runs_replay_identically() {
    cross_validate(&Ratifier::binary(), &[0, 1, 1, 0], 40);
    cross_validate(&Ratifier::binomial(6), &[5, 1, 3], 40);
    cross_validate(&Ratifier::bitvector(8), &[7, 0, 2, 2], 40);
}

#[test]
fn conciliator_runs_replay_identically() {
    cross_validate(&FirstMoverConciliator::impatient(), &[0, 1, 2, 3], 60);
}

#[test]
fn full_consensus_runs_replay_identically() {
    let spec = ConsensusBuilder::multivalued(4).build();
    cross_validate(&spec, &[0, 3, 1, 2, 3], 30);
}

#[test]
fn composition_runs_replay_identically() {
    let spec = Chain::pair(
        Arc::new(FirstMoverConciliator::impatient()),
        Arc::new(Ratifier::binary()),
    );
    cross_validate(&spec, &[1, 0, 1], 40);
}

/// What a seeded run is, for pinning: outputs, total and individual work,
/// trace length, and FNV-1a over the trace's `Display` text.
fn fingerprint(
    spec: &dyn ObjectSpec,
    inputs: &[Value],
    adversary: &mut dyn adversary::Adversary,
    seed: u64,
) -> (Vec<Value>, u64, u64, usize, u64) {
    let out = harness::run_object(
        spec,
        inputs,
        adversary,
        seed,
        &EngineConfig::default().with_trace(),
    )
    .unwrap();
    properties::check_consensus(inputs, &out.outputs).unwrap();
    let trace = out.trace.as_ref().expect("trace recorded");
    let hash = trace
        .to_string()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    (
        out.values(),
        out.metrics.total_work(),
        out.metrics.individual_work(),
        trace.len(),
        hash,
    )
}

/// Seeded schedules are part of the interface: `lab_explore`, the telemetry
/// fixture and every recorded experiment replay by seed. The values were
/// captured at the commit before the engine's pending view became
/// incremental (PR 24); `RandomScheduler` indexes `view.pending`, so any
/// change to the view's order or contents moves them.
#[test]
fn seeded_schedules_are_pinned() {
    let multivalued = ConsensusBuilder::multivalued(8).build();
    for (seed, expected) in [
        (7u64, (vec![3; 32], 326, 12, 326, 11985893449945270461u64)),
        (8, (vec![5; 32], 522, 20, 522, 6478311908854024209)),
        (9, (vec![2; 32], 610, 25, 610, 6600106429823745774)),
    ] {
        let inputs = harness::inputs::random(32, 8, seed);
        let got = fingerprint(
            &multivalued,
            &inputs,
            &mut adversary::RandomScheduler::new(seed),
            seed,
        );
        assert_eq!(got, expected, "multivalued(8), n = 32, seed {seed}");
    }
    let got = fingerprint(
        &ConsensusBuilder::binary().build(),
        &harness::inputs::alternating(8, 2),
        &mut adversary::SplitKeeper::new(11),
        11,
    );
    assert_eq!(
        got,
        (vec![0; 8], 50, 7, 50, 5119515206956094415),
        "binary(), SplitKeeper"
    );
}

mod differential {
    //! Property-based differential testing: arbitrary chains of the
    //! library's coin-free objects must execute identically on both
    //! engines.

    use super::*;
    use proptest::prelude::*;

    fn stage_from_tag(tag: u8) -> Arc<dyn ObjectSpec> {
        match tag % 4 {
            0 => Arc::new(FirstMoverConciliator::impatient()),
            1 => Arc::new(FirstMoverConciliator::with_schedule(
                WriteSchedule::geometric(2.0, 4.0),
            )),
            2 => Arc::new(Ratifier::binomial(4)),
            _ => Arc::new(Ratifier::bitvector(4)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_chains_replay_identically(
            tags in prop::collection::vec(0u8..4, 1..5),
            n in 1usize..7,
            seed in 0u64..100_000,
        ) {
            let chain = Chain::new(tags.iter().map(|&t| stage_from_tag(t)).collect());
            let inputs = harness::inputs::random(n, 4, seed ^ 0xD1FF);
            let outcome = harness::run_object(
                &chain,
                &inputs,
                &mut adversary::RandomScheduler::new(seed),
                seed,
                &EngineConfig::default().with_trace(),
            ).unwrap();
            let script = script_from_trace(outcome.trace.as_ref().unwrap());
            let replayed = replay_to_completion(
                &chain,
                &inputs,
                CoinPolicy::Forbid,
                script.len() + 1,
                &script,
            ).unwrap();
            prop_assert_eq!(replayed, outcome.outputs);
        }
    }
}
