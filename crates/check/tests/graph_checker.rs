//! The graph engine against the paper's composed protocols — and against
//! the path engine, which serves as its cross-validation oracle.
//!
//! Four layers of guarantees:
//!
//! * **Cross-engine agreement.** On every protocol in the matrix and every
//!   binary input vector at n = 2, the path engine (script enumeration)
//!   and the graph engine (canonical-state BFS) must return the same
//!   [`Verdict`] — exhaustiveness, violation kind, and certified
//!   worst-case individual work.
//! * **n = 3 sweeps.** State dedup plus symmetry reduction make n = 3
//!   tractable; agreement/validity (and acceptance for ratifiers) are
//!   verified exhaustively for every composed protocol under check.
//! * **Theorem 10 pin.** The binary ratifier's 4-operation individual
//!   bound is certified *exactly* by both engines at n ∈ {2, 3}.
//! * **State-count pin.** Exact state, transition and dedup counts for two
//!   small configurations, so a change in how states are keyed fails a
//!   test instead of only moving the `check_campaign` figures.

use std::sync::Arc;

use mc_check::{CheckConfig, Explorer, GraphConfig, GraphExplorer, Verdict};
use mc_core::{Chain, CollectRatifier, ConsensusBuilder, FirstMoverConciliator, Ratifier};
use mc_model::{ObjectSpec, Value};

/// One protocol under check: a spec plus the configuration both engines
/// share.
struct Entry {
    spec: Arc<dyn ObjectSpec>,
    check_acceptance: bool,
    max_steps: usize,
    /// Whether every execution must complete within `max_steps` (ratifier
    /// and truncated-chain territory). The full consensus builder cannot:
    /// an adversarial schedule livelocks its CIL fallback, so only the
    /// absence of violations is asserted there.
    expect_exhaustive: bool,
}

fn matrix() -> Vec<Entry> {
    let impatient = || Arc::new(FirstMoverConciliator::impatient()) as Arc<dyn ObjectSpec>;
    vec![
        Entry {
            spec: Arc::new(Ratifier::binary()),
            check_acceptance: true,
            max_steps: 64,
            expect_exhaustive: true,
        },
        Entry {
            spec: Arc::new(Ratifier::binomial(4)),
            check_acceptance: true,
            max_steps: 64,
            expect_exhaustive: true,
        },
        Entry {
            spec: Arc::new(Ratifier::bitvector(4)),
            check_acceptance: true,
            max_steps: 64,
            expect_exhaustive: true,
        },
        Entry {
            spec: Arc::new(CollectRatifier::new()),
            check_acceptance: true,
            max_steps: 64,
            expect_exhaustive: true,
        },
        Entry {
            spec: impatient(),
            check_acceptance: false,
            max_steps: 64,
            expect_exhaustive: true,
        },
        Entry {
            spec: Arc::new(Chain::pair(impatient(), Arc::new(Ratifier::binary()))),
            check_acceptance: false,
            max_steps: 64,
            expect_exhaustive: true,
        },
        Entry {
            spec: Arc::new(Chain::bounded(
                "checked-bounded[f=1; K=ratifier(binary)]",
                move |_| Arc::new(FirstMoverConciliator::impatient()) as Arc<dyn ObjectSpec>,
                1,
                Arc::new(Ratifier::binary()),
            )),
            check_acceptance: false,
            max_steps: 64,
            expect_exhaustive: true,
        },
        Entry {
            // The full consensus protocol, bounded: its default fallback
            // contains fixed-probability conciliators an adversary can
            // livelock (FLP), so truncation is expected — safety must
            // still hold on everything explored.
            spec: Arc::new(ConsensusBuilder::binary().bounded(1).build()),
            check_acceptance: false,
            max_steps: 14,
            expect_exhaustive: false,
        },
    ]
}

fn binary_vectors(n: usize) -> Vec<Vec<Value>> {
    (0..1u64 << n)
        .map(|bits| (0..n).map(|i| (bits >> i) & 1).collect())
        .collect()
}

fn path_verdict(entry: &Entry, inputs: &[Value]) -> Verdict {
    Explorer::new(Arc::clone(&entry.spec), inputs.to_vec())
        .with_config(CheckConfig {
            max_steps: entry.max_steps,
            check_acceptance: entry.check_acceptance,
            ..CheckConfig::default()
        })
        .verify_safety()
        .unwrap_or_else(|e| panic!("{}: path engine failed: {e:?}", entry.spec.name()))
        .verdict()
}

fn graph_verdict(entry: &Entry, inputs: &[Value], symmetry: bool) -> Verdict {
    GraphExplorer::new(Arc::clone(&entry.spec), inputs.to_vec())
        .with_config(GraphConfig {
            max_steps: entry.max_steps,
            check_acceptance: entry.check_acceptance,
            symmetry,
            ..GraphConfig::default()
        })
        .verify_safety()
        .unwrap_or_else(|e| panic!("{}: graph engine failed: {e:?}", entry.spec.name()))
        .verdict()
}

/// The tentpole's oracle requirement: both engines agree on every n = 2
/// verdict, for every protocol in the matrix and every binary input
/// vector, with and without symmetry reduction.
#[test]
fn engines_agree_on_all_n2_verdicts() {
    for entry in matrix() {
        for inputs in binary_vectors(2) {
            let path = path_verdict(&entry, &inputs);
            let graph = graph_verdict(&entry, &inputs, true);
            let graph_plain = graph_verdict(&entry, &inputs, false);
            assert_eq!(
                path,
                graph,
                "{} on {inputs:?}: engines disagree",
                entry.spec.name()
            );
            assert_eq!(
                graph,
                graph_plain,
                "{} on {inputs:?}: symmetry changed the verdict",
                entry.spec.name()
            );
        }
    }
}

/// The n = 3 sweep the path engine cannot reach: every composed protocol,
/// exhaustively (where termination is guaranteed) under the graph engine.
///
/// Debug builds are slow, so this test covers one representative of each
/// input orbit — `[0,0,0]` (unanimous) and `[0,1,1]` (split) — under the
/// pid-permutation × value-swap group; the full 8-vector sweep runs in
/// release mode via the `check_campaign` CI gate.
#[test]
fn graph_engine_verifies_all_protocols_at_n3() {
    for entry in matrix() {
        for inputs in [vec![0, 0, 0], vec![0, 1, 1]] {
            let report = GraphExplorer::new(Arc::clone(&entry.spec), inputs.clone())
                .with_config(GraphConfig {
                    max_steps: entry.max_steps,
                    check_acceptance: entry.check_acceptance,
                    ..GraphConfig::default()
                })
                .verify_safety()
                .unwrap_or_else(|e| panic!("{}: graph engine failed: {e:?}", entry.spec.name()));
            assert!(
                report.violation.is_none(),
                "{} on {inputs:?}: {:?}",
                entry.spec.name(),
                report.violation
            );
            if entry.expect_exhaustive {
                assert!(
                    report.is_exhaustive_pass(),
                    "{} on {inputs:?}: truncated {} states",
                    entry.spec.name(),
                    report.truncated_states
                );
            }
            assert!(report.distinct_states > 1);
        }
    }
}

/// Satellite: Theorem 10's exact individual bound — the binary ratifier
/// costs at most 4 operations per process, certified by *both* engines on
/// every schedule at n ∈ {2, 3}, for every binary input vector.
#[test]
fn theorem_10_binary_ratifier_costs_exactly_4_ops() {
    let entry = Entry {
        spec: Arc::new(Ratifier::binary()),
        check_acceptance: true,
        max_steps: 64,
        expect_exhaustive: true,
    };
    for n in [2usize, 3] {
        for inputs in binary_vectors(n) {
            let graph = graph_verdict(&entry, &inputs, true);
            assert!(graph.exhaustive, "n={n} {inputs:?}");
            assert_eq!(graph.violation, None, "n={n} {inputs:?}");
            // The bound is *attained*, not just respected: some schedule
            // drives a process through all four operations.
            assert_eq!(graph.max_individual_ops, Some(4), "n={n} {inputs:?}");
            let path = path_verdict(&entry, &inputs);
            assert_eq!(path, graph, "n={n} {inputs:?}: engines disagree");
        }
    }
}

/// Symmetry reduction must not change any n = 3 outcome, only the state
/// count — and on symmetric inputs it must actually reduce.
#[test]
fn symmetry_reduction_preserves_n3_verdicts() {
    let entry = Entry {
        spec: Arc::new(Ratifier::binary()),
        check_acceptance: true,
        max_steps: 64,
        expect_exhaustive: true,
    };
    for inputs in binary_vectors(3) {
        let with = GraphExplorer::new(Arc::clone(&entry.spec), inputs.clone())
            .with_config(GraphConfig {
                check_acceptance: true,
                ..GraphConfig::default()
            })
            .verify_safety()
            .unwrap();
        let without = GraphExplorer::new(Arc::clone(&entry.spec), inputs.clone())
            .with_config(GraphConfig {
                check_acceptance: true,
                symmetry: false,
                ..GraphConfig::default()
            })
            .verify_safety()
            .unwrap();
        assert_eq!(with.verdict(), without.verdict(), "{inputs:?}");
        assert!(with.group_size > 1, "{inputs:?}");
        assert!(
            with.distinct_states < without.distinct_states,
            "{inputs:?}: {} !< {}",
            with.distinct_states,
            without.distinct_states
        );
    }
}

/// Coins survive the round trip: a conciliator's probabilistic writes show
/// up as [`PathEvent::Coin`] branches in both engines, and the graph
/// engine's counterexample scripts stay replayable (exercised end-to-end in
/// `mc-lab`'s `check_counterexample_replays`).
#[test]
fn conciliator_coin_branches_are_explored() {
    let report = GraphExplorer::new(FirstMoverConciliator::impatient(), vec![0, 1, 1])
        .verify_safety()
        .unwrap();
    assert!(report.is_exhaustive_pass());
    // A 1/3- or 2/3-probability write branched somewhere; dedup must have
    // collapsed some of those branches.
    assert!(report.transitions > report.distinct_states);
    assert!(report.dedup_hits > 0);
}

/// The graph engine's (states, transitions, dedup hits) for two small
/// configurations, summed over every binary input vector: a drift in how a
/// configuration is keyed (its memory, its sessions, its canonical form)
/// moves them even where no verdict moves. The ratifier's figures are the
/// `ratifier(binary)` row of the `check_campaign` n = 3 sweep.
#[test]
fn state_counts_are_pinned() {
    let ratifier: Arc<dyn ObjectSpec> = Arc::new(Ratifier::binary());
    let impatient: Arc<dyn ObjectSpec> = Arc::new(FirstMoverConciliator::impatient());
    let pins = [
        (ratifier, 3, true, (1456, 2756, 1300)),
        (impatient, 2, false, (204, 288, 84)),
    ];
    for (spec, n, check_acceptance, pinned) in pins {
        let mut counts = (0, 0, 0);
        for inputs in binary_vectors(n) {
            let report = GraphExplorer::new(Arc::clone(&spec), inputs)
                .with_config(GraphConfig {
                    check_acceptance,
                    ..GraphConfig::default()
                })
                .verify_safety()
                .unwrap();
            assert!(report.is_exhaustive_pass(), "{}", spec.name());
            counts.0 += report.distinct_states;
            counts.1 += report.transitions;
            counts.2 += report.dedup_hits;
        }
        assert_eq!(counts, pinned, "{} at n = {n}", spec.name());
    }
}
