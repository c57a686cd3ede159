//! A chain runs the sessions of its quorum-ratifier and first-mover
//! stages inline and boxes the session of any other stage object. The two
//! paths must be one behaviour: wrapping every stage spec the consensus
//! builder takes in a pass-through spec, which the chain does not
//! recognise, forces every such stage onto the boxed path, and the wrapped
//! chain must give the unwrapped one's outputs, work metrics and trace
//! event for event, under every adversary and seed. (Theorem 5's fallback
//! builds its own conciliators, which run inline in both chains.)

use std::sync::Arc;

use modular_consensus::model::{DecidingObject, InstantiateCtx, Session, SymmetrySpec};
use modular_consensus::prelude::*;
use modular_consensus::sim::adversary::{
    Adversary, ImpatienceExploiter, RandomScheduler, SplitKeeper,
};
use modular_consensus::sim::harness::RunOutcome;

/// The stage it wraps, under another type: it draws no coin, allocates no
/// register and issues no operation of its own.
struct PassThrough(Arc<dyn ObjectSpec>);

struct PassThroughObject(Arc<dyn DecidingObject>);

impl ObjectSpec for PassThrough {
    fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        Arc::new(PassThroughObject(self.0.instantiate(ctx)))
    }

    fn name(&self) -> String {
        self.0.name()
    }
}

impl DecidingObject for PassThroughObject {
    fn session(&self, pid: ProcessId) -> Box<dyn Session + Send> {
        self.0.session(pid)
    }

    fn symmetry(&self) -> SymmetrySpec {
        self.0.symmetry()
    }
}

fn wrapped(stage: impl ObjectSpec + 'static) -> Arc<dyn ObjectSpec> {
    Arc::new(PassThrough(Arc::new(stage)))
}

/// Each chain under test, unwrapped as its constructor builds it and with
/// its stage specs wrapped, and its value count.
fn chains() -> Vec<(&'static str, Chain, Chain, u64)> {
    let multivalued = || {
        ConsensusBuilder::new(
            wrapped(FirstMoverConciliator::impatient()),
            wrapped(Ratifier::binomial(8)),
        )
    };
    vec![
        (
            "binary",
            ConsensusBuilder::binary().build(),
            ConsensusBuilder::new(
                wrapped(FirstMoverConciliator::impatient()),
                wrapped(Ratifier::binary()),
            )
            .build(),
            2,
        ),
        (
            "multivalued(8)",
            ConsensusBuilder::multivalued(8).build(),
            multivalued().build(),
            8,
        ),
        (
            "cil_baseline(8)",
            ConsensusBuilder::cil_baseline(8).build(),
            ConsensusBuilder::new(
                wrapped(FirstMoverConciliator::fixed(1.0)),
                wrapped(Ratifier::binomial(8)),
            )
            .build(),
            8,
        ),
        (
            "multivalued(8).bounded(1)",
            ConsensusBuilder::multivalued(8).bounded(1).build(),
            multivalued().bounded(1).build(),
            8,
        ),
    ]
}

type AdversaryFactory = fn(u64) -> Box<dyn Adversary>;

const ADVERSARIES: [(&str, AdversaryFactory); 3] = [
    ("random", |seed| Box::new(RandomScheduler::new(seed))),
    ("split-keeper", |seed| Box::new(SplitKeeper::new(seed))),
    ("impatience-exploiter", |_| {
        Box::new(ImpatienceExploiter::new())
    }),
];

fn run(spec: &Chain, inputs: &[Value], adversary: AdversaryFactory, seed: u64) -> RunOutcome {
    harness::run_object(
        spec,
        inputs,
        &mut *adversary(seed),
        seed,
        &EngineConfig::default().with_trace(),
    )
    .expect("the chain completes")
}

#[test]
fn boxed_stages_run_as_the_inline_ones_do() {
    for (chain, unwrapped, wrapped, m) in chains() {
        for n in [3, 32] {
            for (adversary_name, adversary) in ADVERSARIES {
                for seed in 0..50 {
                    let inputs = harness::inputs::random(n, m, seed);
                    let inline = run(&unwrapped, &inputs, adversary, seed);
                    let boxed = run(&wrapped, &inputs, adversary, seed);
                    let at = format!("{chain}, n = {n}, {adversary_name}, seed {seed}");
                    assert_eq!(inline.outputs, boxed.outputs, "{at}: outputs");
                    assert_eq!(inline.metrics, boxed.metrics, "{at}: work metrics");
                    assert_eq!(inline.trace, boxed.trace, "{at}: trace");
                    properties::check_consensus(&inputs, &inline.outputs)
                        .unwrap_or_else(|e| panic!("{at}: {e}"));
                }
            }
        }
    }
}
