//! Theorem 5 quantitative checks: the bounded construction
//! `R₋₁; R₀; C₁; R₁; …; C_f; R_f; K` terminates on every seed, and its
//! measured fallback rate reconciles with the closed form
//! `theory::fallback_probability(δ, f) = (1 − δ)^f`.
//!
//! Every run here goes through `mc-lab`, so each trial is a pure function
//! of its seed — the measured rates are bit-reproducible and the tolerance
//! (three standard errors plus a fixed margin, Chernoff-style) cannot
//! flake.

use std::sync::Arc;

use modular_consensus::analysis::theory;
use modular_consensus::lab::Lab;
use modular_consensus::prelude::*;
use modular_consensus::quorums::BinaryScheme;
use modular_consensus::sim::adversary::RandomScheduler;

const N: usize = 3;
const SEEDS: u64 = 250;

/// Pooled per-stage ratification statistics across a seed sweep.
#[derive(Default)]
struct Sweep {
    terminated: u64,
    entered_c1: u64,
    fell_back: u64,
    /// Conciliator stages entered across all runs that reached `C₁`.
    stages_entered: u64,
    /// Stages whose following ratifier decided (= stages that "ratified").
    ratified: u64,
}

impl Sweep {
    /// Pooled per-stage agreement-then-ratify estimate δ̂.
    fn delta_hat(&self) -> f64 {
        self.ratified as f64 / self.stages_entered as f64
    }

    fn measured_fallback(&self) -> f64 {
        self.fell_back as f64 / self.entered_c1 as f64
    }
}

/// Runs `BoundedConsensus` under the lab for `SEEDS` seeds at truncation
/// depth `f`, checking safety on every run and pooling stage statistics.
fn sweep_runtime(f: u32) -> Sweep {
    let mut sweep = Sweep::default();
    for seed in 0..SEEDS {
        let lab = Lab::new(N, Box::new(RandomScheduler::new(seed)), &[], 400_000);
        let consensus = Consensus::builder()
            .n(N)
            .scheme(Arc::new(BinaryScheme::new()))
            .max_conciliator_rounds(f)
            .memory(lab.memory())
            .build_bounded();
        let report = lab
            .run(seed, |pid, rng| consensus.decide(pid, pid as u64 % 2, rng))
            .unwrap_or_else(|e| panic!("f={f} seed={seed}: bounded run must terminate: {e}"));
        let first = report.decisions[0].expect("decided");
        assert!(first < 2, "f={f} seed={seed}: validity");
        assert!(
            report.decisions.iter().all(|&d| d == Some(first)),
            "f={f} seed={seed}: agreement: {:?}",
            report.decisions
        );
        sweep.terminated += 1;

        let telemetry = consensus.telemetry();
        let max_stage = telemetry.hist(HistKey::RoundsToDecide).max();
        if telemetry.count(CounterKey::FallbacksTaken) > 0 {
            sweep.entered_c1 += 1;
            sweep.fell_back += 1;
            sweep.stages_entered += u64::from(f);
        } else if max_stage >= 3 {
            // Decided at ratifier R_j (stage 2j + 1 with the fast-path
            // prefix): j conciliator stages were entered, the last ratified.
            sweep.entered_c1 += 1;
            sweep.stages_entered += (max_stage - 1) / 2;
            sweep.ratified += 1;
        }
    }
    sweep
}

/// Theorem 5 on the real-thread runtime (under the lab): termination on
/// 100% of seeds, and measured fallback within three standard errors (plus
/// a small fixed margin) of `(1 − δ̂)^f`.
#[test]
fn theorem5_bounded_runtime_terminates_and_reconciles() {
    for f in [1u32, 2] {
        let sweep = sweep_runtime(f);
        assert_eq!(sweep.terminated, SEEDS, "f={f}: every seed must decide");
        assert!(
            sweep.entered_c1 >= 30,
            "f={f}: too few runs passed the fast path ({}) to estimate δ",
            sweep.entered_c1
        );
        let delta_hat = sweep.delta_hat();
        let predicted = theory::fallback_probability(delta_hat, f);
        let measured = sweep.measured_fallback();
        let sigma = (predicted * (1.0 - predicted) / sweep.entered_c1 as f64)
            .sqrt()
            .max(1e-9);
        let tolerance = 3.0 * sigma + 0.05;
        assert!(
            (measured - predicted).abs() <= tolerance,
            "f={f}: measured fallback {measured:.4} vs predicted \
             (1-{delta_hat:.4})^{f} = {predicted:.4}, tolerance {tolerance:.4}"
        );
    }
}

/// Deeper truncation can only reduce the fallback rate; by f = 6 the
/// fallback should not be observed at all on this sweep.
#[test]
fn theorem5_fallback_rate_decreases_with_depth() {
    let shallow = sweep_runtime(1);
    let deep = sweep_runtime(6);
    assert!(
        deep.fell_back <= shallow.fell_back,
        "fallback count must not grow with depth: {} -> {}",
        shallow.fell_back,
        deep.fell_back
    );
    assert_eq!(deep.fell_back, 0, "six rounds should never fall back here");
}

/// The model-side bounded chain reconciles too: the same pooled δ̂ /
/// `(1 − δ̂)^f` bookkeeping over `ConsensusBuilder::bounded` runs in the
/// simulator, with the chain probe supplying the deciding stage.
#[test]
fn theorem5_bounded_model_chain_reconciles() {
    let n = 6;
    let f = 1usize;
    let trials = 400u64;
    let probe = ChainProbe::new();
    let spec = ConsensusBuilder::binary()
        .bounded(f)
        .probe(Arc::clone(&probe))
        .build();
    let mut sweep = Sweep::default();
    for seed in 0..trials {
        probe.reset();
        let inputs = harness::inputs::alternating(n, 2);
        let out = harness::run_object(
            &spec,
            &inputs,
            &mut adversary::RandomScheduler::new(seed),
            seed,
            &EngineConfig::default(),
        )
        .unwrap();
        properties::check_consensus(&inputs, &out.outputs).unwrap();
        sweep.terminated += 1;
        let max_stage = probe.max_stage() as u64;
        if max_stage >= (2 + 2 * f) as u64 {
            sweep.entered_c1 += 1;
            sweep.fell_back += 1;
            sweep.stages_entered += f as u64;
        } else if max_stage >= 3 {
            sweep.entered_c1 += 1;
            sweep.stages_entered += (max_stage - 1) / 2;
            sweep.ratified += 1;
        }
    }
    assert_eq!(sweep.terminated, trials);
    assert!(sweep.entered_c1 >= 30, "need samples past the fast path");
    let delta_hat = sweep.delta_hat();
    let predicted = theory::fallback_probability(delta_hat, f as u32);
    let measured = sweep.measured_fallback();
    let sigma = (predicted * (1.0 - predicted) / sweep.entered_c1 as f64)
        .sqrt()
        .max(1e-9);
    let tolerance = 3.0 * sigma + 0.05;
    assert!(
        (measured - predicted).abs() <= tolerance,
        "model: measured {measured:.4} vs predicted {predicted:.4} \
         (δ̂ = {delta_hat:.4}), tolerance {tolerance:.4}"
    );
}

/// `rounds_for_fallback_probability` inverts `fallback_probability`: the
/// returned k is sufficient (`(1−δ)^k ≤ ε`) and minimal (`k − 1` is not).
#[test]
fn rounds_for_fallback_probability_is_tight() {
    for delta in [
        theory::impatient_agreement_lower_bound(),
        0.1,
        0.3,
        0.5,
        0.9,
    ] {
        for eps in [0.1, 0.01, 1e-4, 1e-8] {
            let k = theory::rounds_for_fallback_probability(delta, eps);
            assert!(
                theory::fallback_probability(delta, k) <= eps,
                "δ={delta} ε={eps}: k={k} is not sufficient"
            );
            if k > 1 {
                assert!(
                    theory::fallback_probability(delta, k - 1) > eps,
                    "δ={delta} ε={eps}: k={k} is not minimal"
                );
            }
        }
    }
}
