//! Cross-substrate checks: the simulator algorithms and the thread-runtime
//! algorithms are the same protocols, so both must satisfy the same
//! contracts, and their cost shapes must match.

use std::sync::{Arc, Mutex};

use mc_quorums::BitVectorScheme;
use modular_consensus::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn run_threads(n: usize, m: u64, trial: u64) -> Vec<u64> {
    let c = Arc::new(Consensus::builder().n(n).values(m).build());
    let handles: Vec<_> = (0..n as u64)
        .map(|t| {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(trial * 1000 + t);
                c.decide(t % m, &mut rng)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

fn run_sim(n: usize, m: u64, trial: u64) -> Vec<u64> {
    let spec = ConsensusBuilder::multivalued(m).build();
    let inputs: Vec<u64> = (0..n as u64).map(|t| t % m).collect();
    let out = harness::run_object(
        &spec,
        &inputs,
        &mut adversary::RandomScheduler::new(trial),
        trial,
        &EngineConfig::default(),
    )
    .unwrap();
    properties::check_consensus(&inputs, &out.outputs).unwrap();
    out.values()
}

#[test]
fn both_substrates_satisfy_consensus() {
    for trial in 0..25 {
        let sim_values = run_sim(6, 4, trial);
        assert!(sim_values.windows(2).all(|w| w[0] == w[1]));
        assert!(sim_values[0] < 4);

        let thread_values = run_threads(6, 4, trial);
        assert!(
            thread_values.windows(2).all(|w| w[0] == w[1]),
            "threads disagreed: {thread_values:?}"
        );
        assert!(thread_values[0] < 4);
    }
}

#[test]
fn runtime_conciliator_matches_sim_validity_contract() {
    // No fast path, so every decide starts in C₁, the impatient
    // conciliator, on threads: whatever it hands the rest of the chain,
    // the decision is always someone's proposal.
    for trial in 0..40 {
        let c = Arc::new(
            Consensus::builder()
                .n(4)
                .values(16)
                .fast_path(false)
                .build(),
        );
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(trial * 7 + t);
                    c.decide(t + 10, &mut rng)
                })
            })
            .collect();
        let values: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(values.iter().all(|v| (10..14).contains(v)), "{values:?}");
        assert!(values.windows(2).all(|w| w[0] == w[1]), "{values:?}");
    }
}

/// Keeps the verdicts of the chain's first ratifier, `R₋₁`.
#[derive(Default)]
struct FirstVerdicts(Mutex<Vec<Decision>>);

impl Recorder for FirstVerdicts {
    fn record(&self, event: &TelemetryEvent) {
        if let TelemetryEvent::RatifierVerdict {
            stage: 0,
            decided,
            value,
            ..
        } = *event
        {
            let verdict = if decided {
                Decision::decide(value)
            } else {
                Decision::continue_with(value)
            };
            self.0.lock().unwrap().push(verdict);
        }
    }
}

#[test]
fn runtime_ratifier_coherence_matches_model_checker() {
    // Five threads enter `R₋₁` over the bit-vector scheme at once; its
    // verdicts, as the recorder sees them, are coherent and valid.
    for trial in 0..100 {
        let verdicts = Arc::new(FirstVerdicts::default());
        let c = Arc::new(
            Consensus::builder()
                .n(5)
                .scheme(Arc::new(BitVectorScheme::for_capacity(8).unwrap()))
                .recorder(Arc::clone(&verdicts) as Arc<dyn Recorder>)
                .build(),
        );
        let inputs: Vec<u64> = (0..5u64).map(|t| (t + trial) % 8).collect();
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(t, &v)| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    c.decide(v, &mut SmallRng::seed_from_u64(trial * 5 + t as u64))
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let outs = verdicts.0.lock().unwrap().clone();
        assert_eq!(outs.len(), 5);
        properties::check_coherence(&outs).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
        properties::check_validity(&inputs, &outs).unwrap();
    }
}

#[test]
fn stage_depth_is_small_on_both_substrates() {
    // Expected conciliator rounds ≤ 1/δ; in practice a couple of stages.
    let mut worst_threads = 0;
    for trial in 0..20 {
        let c = Arc::new(Consensus::builder().n(6).build());
        let handles: Vec<_> = (0..6u64)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(trial * 11 + t);
                    c.decide(t % 2, &mut rng)
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        worst_threads = worst_threads.max(c.stages_used());
    }
    assert!(worst_threads <= 30, "threads used {worst_threads} stages");

    let probe = ChainProbe::new();
    let spec = ConsensusBuilder::binary().probe(Arc::clone(&probe)).build();
    let mut worst_sim = 0;
    for seed in 0..20 {
        probe.reset();
        let inputs = harness::inputs::alternating(6, 2);
        harness::run_object(
            &spec,
            &inputs,
            &mut adversary::RandomScheduler::new(seed),
            seed,
            &EngineConfig::default(),
        )
        .unwrap();
        worst_sim = worst_sim.max(probe.max_stage());
    }
    assert!(worst_sim <= 30, "sim used {worst_sim} stages");
}
