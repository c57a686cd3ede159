//! Quantitative checks of the paper's theorems in the model.

use modular_consensus::analysis::{theory, wilson_interval};
use modular_consensus::prelude::*;

/// Theorem 7: individual work never exceeds `2⌈lg n⌉ + 4`, under any
/// adversary we can throw at it.
#[test]
fn theorem7_individual_work_bound_is_hard() {
    for n in [2usize, 5, 16, 33, 64] {
        let bound = theory::impatient_individual_work_bound(n as u64);
        for seed in 0..60 {
            let inputs = harness::inputs::alternating(n, 2);
            let out = harness::run_object(
                &FirstMoverConciliator::impatient(),
                &inputs,
                &mut adversary::ImpatienceExploiter::new(),
                seed,
                &EngineConfig::default(),
            )
            .unwrap();
            assert!(
                out.metrics.individual_work() <= bound,
                "n={n} seed={seed}: {} > {bound}",
                out.metrics.individual_work()
            );
        }
    }
}

/// Theorem 7: expected total work ≤ 6n. Check the sample mean against the
/// bound with a generous margin for sampling noise.
#[test]
fn theorem7_total_work_bound_in_expectation() {
    for n in [4usize, 16, 64] {
        let stats = harness::run_trials(
            &FirstMoverConciliator::impatient(),
            250,
            99,
            &EngineConfig::default(),
            |_| harness::inputs::alternating(n, 2),
            |seed| Box::new(adversary::RandomScheduler::new(seed)),
        )
        .unwrap();
        assert!(
            stats.mean_total_work() <= theory::impatient_total_work_bound(n as u64) as f64,
            "n={n}: mean total {} > 6n",
            stats.mean_total_work()
        );
    }
}

/// Theorem 7: agreement probability ≥ δ = (1−e^{−1/4})/4 under each
/// adversary class. The Wilson lower bound of the measured rate must clear
/// δ.
#[test]
fn theorem7_agreement_probability_lower_bound() {
    let delta = theory::impatient_agreement_lower_bound();
    let n = 12;
    type Maker = fn(u64) -> Box<dyn modular_consensus::sim::Adversary>;
    let makers: Vec<(&str, Maker)> = vec![
        ("random", |s| Box::new(adversary::RandomScheduler::new(s))),
        ("exploiter", |_| {
            Box::new(adversary::ImpatienceExploiter::new())
        }),
        (
            "write-blocker",
            |_| Box::new(adversary::WriteBlocker::new()),
        ),
        ("split-keeper", |s| Box::new(adversary::SplitKeeper::new(s))),
    ];
    for (name, make) in makers {
        let stats = harness::run_trials(
            &FirstMoverConciliator::impatient(),
            400,
            2026,
            &EngineConfig::default(),
            |_| harness::inputs::alternating(n, 2),
            |s| make(s),
        )
        .unwrap();
        let ci = wilson_interval(stats.agreements, stats.trials);
        assert!(
            ci.low >= delta,
            "{name}: agreement rate {} (CI low {}) below δ={delta}",
            stats.agreement_rate(),
            ci.low
        );
    }
}

/// Theorem 10: the m-valued ratifier's registers and work are O(log m),
/// and observed work never exceeds the scheme bound.
#[test]
fn theorem10_ratifier_costs() {
    for m in [2u64, 6, 20, 70, 252, 1000] {
        let ratifier = Ratifier::binomial(m);
        let lg = theory::ceil_lg(m);
        assert!(
            ratifier.register_count() <= lg + 8,
            "m={m}: {} registers",
            ratifier.register_count()
        );
        let bitv = Ratifier::bitvector(m);
        assert_eq!(
            bitv.register_count(),
            theory::bitvector_ratifier_registers(m)
        );
        assert_eq!(
            bitv.individual_work_bound(),
            theory::bitvector_ratifier_ops(m)
        );

        for seed in 0..10 {
            let inputs = harness::inputs::random(6, m, seed);
            let out = harness::run_object(
                &ratifier,
                &inputs,
                &mut adversary::RandomScheduler::new(seed),
                seed,
                &EngineConfig::default(),
            )
            .unwrap();
            assert!(out.metrics.individual_work() <= ratifier.individual_work_bound());
            properties::check_weak_consensus(&inputs, &out.outputs).unwrap();
        }
    }
}

/// Theorem 10 at its exact bound for the binary ratifier: 3 registers and
/// at most 4 register operations per process — certified not by sampling
/// but by `mc-check` walking *every* interleaving (with acceptance checked:
/// unanimous inputs must force unanimous decisions), for every binary input
/// vector at n ∈ {2, 3}.
#[test]
fn theorem10_binary_ratifier_exact_bound_exhaustively() {
    use modular_consensus::check::{CheckConfig, Explorer};

    assert_eq!(Ratifier::binary().register_count(), 3);
    assert_eq!(Ratifier::binary().individual_work_bound(), 4);

    for n in [2usize, 3] {
        for bits in 0..(1u64 << n) {
            let inputs: Vec<u64> = (0..n).map(|p| (bits >> p) & 1).collect();
            let report = Explorer::new(Ratifier::binary(), inputs.clone())
                .with_config(CheckConfig {
                    // 4 ops per process is the theorem's bound; give the
                    // checker exactly that much room and no more.
                    max_steps: 4 * n,
                    check_acceptance: true,
                    ..CheckConfig::default()
                })
                .verify_safety()
                .unwrap_or_else(|e| panic!("n={n} inputs={inputs:?}: {e}"));
            // Every path completed within 4n steps — the work bound is
            // exact, not merely expected — and none violated safety (or
            // acceptance, on unanimous inputs).
            assert!(
                report.is_exhaustive_pass(),
                "n={n} inputs={inputs:?}: truncated={} violation={:?}",
                report.truncated_paths,
                report.violation
            );
            assert!(
                report.max_individual_ops <= 4,
                "n={n} inputs={inputs:?}: a process took {} ops",
                report.max_individual_ops
            );
        }
    }
}

/// Theorem 6 at its exact cost bound: the coin→conciliator construction
/// adds exactly 2 registers and 2 operations per process over the
/// underlying weak shared coin — in the model allocator's accounting and in
/// an exhaustive checker sweep of every n = 2 schedule. A runtime coin
/// stage allocates exactly the registers this spec's instance does, so it
/// has no accounting of its own to check.
#[test]
fn theorem6_coin_conciliator_exact_overhead() {
    use modular_consensus::check::{CoinPolicy, GraphConfig, GraphExplorer};
    use std::sync::Arc;

    let coin = || Arc::new(VotingSharedCoin::with_quorum_factor(1).expect("positive factor"));

    for n in [2usize, 3, 6] {
        // Model allocator: composing adds exactly the two announce
        // registers over the bare coin (allocation is eager, so any run
        // observes it).
        let bare = harness::run_object(
            coin().as_ref(),
            &harness::inputs::unanimous(n, 0),
            &mut adversary::RoundRobin::new(),
            5,
            &EngineConfig::default(),
        )
        .unwrap();
        let composed = harness::run_object(
            &CoinConciliator::new(coin()),
            &harness::inputs::alternating(n, 2),
            &mut adversary::RoundRobin::new(),
            5,
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(
            composed.metrics.registers_allocated,
            bare.metrics.registers_allocated + theory::COIN_CONCILIATOR_EXTRA_REGISTERS,
            "n={n}"
        );

        // Unanimous inputs never reach the coin: the overhead is the whole
        // cost — exactly one announce write and one announce read each.
        let unanimous = harness::run_object(
            &CoinConciliator::new(coin()),
            &harness::inputs::unanimous(n, 1),
            &mut adversary::RandomScheduler::new(5),
            5,
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(
            unanimous.metrics.total_work(),
            theory::COIN_CONCILIATOR_EXTRA_OPS * n as u64,
            "n={n}"
        );
        assert_eq!(
            unanimous.metrics.individual_work(),
            theory::COIN_CONCILIATOR_EXTRA_OPS,
            "n={n}"
        );
    }

    // Exhaustive at n = 2: with the vote streams pinned, the checker walks
    // every schedule of the bare coin and of the composed conciliator; the
    // worst-case individual work differs by exactly the two announce ops.
    let sweep = |spec: Arc<dyn modular_consensus::model::ObjectSpec>, inputs: Vec<u64>| {
        GraphExplorer::new(spec, inputs)
            .with_config(GraphConfig {
                max_steps: 400,
                coin_policy: CoinPolicy::Fixed(7),
                ..GraphConfig::default()
            })
            .verify_safety()
            .unwrap()
    };
    // Inputs {0, 1} for the bare coin: a shared coin ignores inputs and may
    // output either bit, so validity only holds when both bits are proposed.
    let bare = sweep(coin(), vec![0, 1]);
    let composed = sweep(Arc::new(CoinConciliator::new(coin())), vec![0, 1]);
    assert!(bare.is_exhaustive_pass(), "{:?}", bare.violation);
    assert!(composed.is_exhaustive_pass(), "{:?}", composed.violation);
    assert_eq!(
        composed.max_individual_ops,
        bare.max_individual_ops + theory::COIN_CONCILIATOR_EXTRA_OPS,
        "bare worst case {} ops",
        bare.max_individual_ops
    );
}

/// §1 headline: binary consensus total work is O(n) — total/n stays bounded
/// as n grows (Attiya–Censor tightness).
#[test]
fn headline_linear_total_work_for_binary_consensus() {
    let spec = ConsensusBuilder::binary().build();
    let mut ratios = Vec::new();
    for n in [8usize, 32, 128] {
        let stats = harness::run_trials(
            &spec,
            60,
            5,
            &EngineConfig::default(),
            |_| harness::inputs::alternating(n, 2),
            |seed| Box::new(adversary::RandomScheduler::new(seed)),
        )
        .unwrap();
        ratios.push(stats.mean_total_work() / n as f64);
    }
    // The per-process constant should not grow meaningfully with n.
    let (first, last) = (ratios[0], *ratios.last().unwrap());
    assert!(
        last <= first * 2.0,
        "total work per process grew: {ratios:?}"
    );
}

/// §1 headline: consensus individual work is O(log n) — the growth from
/// n to 16n is bounded by a constant factor of the log growth.
#[test]
fn headline_logarithmic_individual_work() {
    let spec = ConsensusBuilder::binary().build();
    let measure = |n: usize| {
        harness::run_trials(
            &spec,
            80,
            17,
            &EngineConfig::default(),
            |_| harness::inputs::alternating(n, 2),
            |seed| Box::new(adversary::RandomScheduler::new(seed)),
        )
        .unwrap()
        .mean_individual_work()
    };
    let at_8 = measure(8);
    let at_128 = measure(128);
    // lg 128 / lg 8 ≈ 2.3; linear growth would be 16x. Anything under 3x
    // clearly rules out linearity.
    assert!(
        at_128 <= at_8 * 3.0,
        "individual work grew superlogarithmically: {at_8} -> {at_128}"
    );
}

/// Theorem 5: with k conciliator rounds the fallback is hit with probability
/// about (1−δ_observed)^k — in particular, rarely for moderate k, yet the
/// construction stays correct when it is hit.
#[test]
fn theorem5_bounded_construction_fallback_rate() {
    let n = 6;
    let trials = 200;
    let count_fallbacks = |rounds: usize| {
        let probe = ChainProbe::new();
        let spec = ConsensusBuilder::binary()
            .bounded(rounds)
            .probe(std::sync::Arc::clone(&probe))
            .build();
        let mut fallbacks = 0;
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
            if probe.max_stage() >= 2 + 2 * rounds {
                fallbacks += 1;
            }
        }
        fallbacks
    };
    let at_1 = count_fallbacks(1);
    let at_6 = count_fallbacks(6);
    assert!(
        at_6 <= at_1,
        "fallback rate should fall with k: {at_1} -> {at_6}"
    );
    assert_eq!(at_6, 0, "six rounds should essentially never fall back");
}
