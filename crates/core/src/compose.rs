//! Composition of deciding objects (§3.2).
//!
//! The composition `(X; Y)` runs `X` and, *only if* `X` returns decision bit
//! 0, feeds `X`'s value into `Y` — an exception-like mechanism where a
//! decision terminates the whole composite immediately:
//!
//! ```text
//! (d, v) ← op_X(x)
//! if d = 1 then return (1, v) else return op_Y(v)
//! ```
//!
//! Composition is associative, so arbitrary finite sequences
//! `(X₁; X₂; …; X_k)` ([`Chain`]) and infinite sequences ([`LazyChain`]) are
//! well-defined. The paper's Lemmas 1–3 and Corollary 4 show composition
//! preserves validity, termination, coherence — and hence the property of
//! being a weak consensus object — which is what makes the conciliator/
//! ratifier alternation correct.
//!
//! # Recyclability
//!
//! Model-side objects are one-shot *per instantiation*: every property
//! above is stated over the executions of a single instance, so "reuse"
//! in the model is simply instantiating a fresh [`ObjectSpec`] session.
//! The thread runtime's recycled objects (`mc-runtime`'s
//! register-clearing `reset`) are sound for exactly this reason: after a
//! reset, every register of the instance reads as initial, making the
//! recycled instance extensionally equal to a fresh instantiation of its
//! spec — which is what the lab's recycled-vs-fresh conformance check
//! (`mc-lab::check_recycled_conformance`) verifies against this model,
//! execution for execution. Nothing in the composition lemmas needs a
//! cross-instance argument, so no new proof obligation arises here.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use mc_model::{
    Action, Ctx, DecidingObject, InstantiateCtx, ObjectSpec, ProcessId, Response, Session,
    StateSink, SymmetrySpec, Value,
};

/// A finite composition `(X₁; X₂; …; X_k)` with every stage instantiated up
/// front.
///
/// Use [`LazyChain`] for unbounded sequences or when most stages are
/// usually skipped.
#[derive(Clone)]
pub struct Chain {
    stages: Vec<Arc<dyn ObjectSpec>>,
}

impl Chain {
    /// Composes the given stages in order.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn new(stages: Vec<Arc<dyn ObjectSpec>>) -> Chain {
        assert!(!stages.is_empty(), "a chain needs at least one stage");
        Chain { stages }
    }

    /// The binary composition `(X; Y)` of §3.2.
    pub fn pair(x: Arc<dyn ObjectSpec>, y: Arc<dyn ObjectSpec>) -> Chain {
        Chain::new(vec![x, y])
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the chain has no stages (never true — construction forbids
    /// it — but provided for the usual `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

impl std::fmt::Debug for Chain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Chain[{}]", self.name())
    }
}

struct ChainObject {
    stages: Vec<Arc<dyn DecidingObject>>,
}

impl DecidingObject for ChainObject {
    fn session(&self, pid: ProcessId) -> Box<dyn Session + Send> {
        Box::new(StagedSession {
            source: StageSource::Eager(self.stages.clone()),
            pid,
            cur: 0,
            inner: None,
            probe: None,
        })
    }

    fn symmetry(&self) -> SymmetrySpec {
        // A composite has exactly the symmetries every stage has; register
        // declarations accumulate since each stage owns disjoint registers.
        let mut spec = SymmetrySpec::fully_symmetric();
        for stage in &self.stages {
            spec.merge(&stage.symmetry());
        }
        spec
    }
}

impl ObjectSpec for Chain {
    fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        Arc::new(ChainObject {
            stages: self.stages.iter().map(|s| s.instantiate(ctx)).collect(),
        })
    }

    fn name(&self) -> String {
        let parts: Vec<String> = self.stages.iter().map(|s| s.name()).collect();
        format!("({})", parts.join("; "))
    }
}

/// Observation hooks for chain executions: how deep did the chain go, and
/// where did each process halt. Shared across the processes of a run (and
/// across runs, unless [`reset`](ChainProbe::reset)).
#[derive(Debug, Default)]
pub struct ChainProbe {
    max_stage: AtomicUsize,
    halts: Mutex<Vec<(usize, bool)>>,
}

impl ChainProbe {
    /// Creates a probe.
    pub fn new() -> Arc<ChainProbe> {
        Arc::new(ChainProbe::default())
    }

    fn record_stage(&self, stage: usize) {
        self.max_stage.fetch_max(stage, Ordering::Relaxed);
    }

    fn record_halt(&self, stage: usize, decided: bool) {
        self.halts
            .lock()
            .expect("probe lock")
            .push((stage, decided));
    }

    /// The deepest stage index any process entered.
    pub fn max_stage(&self) -> usize {
        self.max_stage.load(Ordering::Relaxed)
    }

    /// For each halted session: (stage index at halt, decided?).
    pub fn halts(&self) -> Vec<(usize, bool)> {
        self.halts.lock().expect("probe lock").clone()
    }

    /// Clears recorded data (for reuse across runs).
    pub fn reset(&self) {
        self.max_stage.store(0, Ordering::Relaxed);
        self.halts.lock().expect("probe lock").clear();
    }
}

/// An unbounded composition `(X₁; X₂; …)` whose stages are produced by a
/// generator function and instantiated lazily, on first use by any process.
///
/// This realizes the paper's unbounded constructions (§4.1.1, §4.2) in
/// bounded *actual* space: registers are allocated only for stages some
/// process reaches, and the expected number of stages used is constant when
/// conciliators have constant agreement probability.
#[derive(Clone)]
pub struct LazyChain {
    generator: Arc<dyn Fn(usize) -> Arc<dyn ObjectSpec> + Send + Sync>,
    name: String,
    probe: Option<Arc<ChainProbe>>,
}

impl LazyChain {
    /// Creates a lazy chain from a stage generator: `generator(i)` supplies
    /// the spec for stage `i`.
    pub fn new(
        name: impl Into<String>,
        generator: impl Fn(usize) -> Arc<dyn ObjectSpec> + Send + Sync + 'static,
    ) -> LazyChain {
        LazyChain {
            generator: Arc::new(generator),
            name: name.into(),
            probe: None,
        }
    }

    /// Attaches a probe recording stage depth and halt sites.
    pub fn with_probe(mut self, probe: Arc<ChainProbe>) -> LazyChain {
        self.probe = Some(probe);
        self
    }
}

impl std::fmt::Debug for LazyChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LazyChain[{}]", self.name)
    }
}

struct LazyChainObject {
    generator: Arc<dyn Fn(usize) -> Arc<dyn ObjectSpec> + Send + Sync>,
    n: usize,
    cache: Mutex<Vec<Arc<dyn DecidingObject>>>,
    probe: Option<Arc<ChainProbe>>,
    /// Highest valid stage index, or `None` for an unbounded chain.
    /// [`BoundedChain`] sets this to its fallback's index.
    limit: Option<usize>,
}

impl DecidingObject for LazyChainObject {
    fn session(&self, _pid: ProcessId) -> Box<dyn Session + Send> {
        unreachable!("LazyChain sessions are created by the spec wrapper")
    }
}

struct LazyChainHandle {
    object: Arc<LazyChainObject>,
}

impl DecidingObject for LazyChainHandle {
    fn session(&self, pid: ProcessId) -> Box<dyn Session + Send> {
        Box::new(StagedSession {
            source: StageSource::Lazy(Arc::clone(&self.object)),
            pid,
            cur: 0,
            inner: None,
            probe: self.object.probe.clone(),
        })
    }

    fn symmetry(&self) -> SymmetrySpec {
        // Only instantiated stages can have contributed to the current
        // configuration. Gap-filling instantiation makes the watermark a
        // function of the configuration itself (it equals the deepest
        // stage any process has entered), so equal configurations always
        // carry equal certificates.
        let cache = self.object.cache.lock().expect("chain cache lock");
        let mut spec = SymmetrySpec::fully_symmetric();
        for stage in cache.iter() {
            spec.merge(&stage.symmetry());
        }
        spec
    }
}

impl ObjectSpec for LazyChain {
    fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        Arc::new(LazyChainHandle {
            object: Arc::new(LazyChainObject {
                generator: Arc::clone(&self.generator),
                n: ctx.n,
                cache: Mutex::new(Vec::new()),
                probe: self.probe.clone(),
                limit: None,
            }),
        })
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// The bounded composition of §4.1.2 / Theorem 5:
/// `(X₁; X₂; …; X_f; K)` — a truncated generator chain with a designated
/// final fallback stage `K`.
///
/// Like [`LazyChain`], stages are produced by a generator and instantiated
/// on first use; unlike it, the chain is finite: after `rounds` generated
/// stages comes the fallback spec, and the chain ends there. A process
/// that traverses every generated stage without deciding enters `K`
/// (observable as [`ChainProbe::max_stage`] reaching
/// [`fallback_index`](BoundedChain::fallback_index)); the composite's
/// output is then whatever `K` halts with — composition (Lemmas 1–3)
/// preserves validity and coherence regardless, so the truncated chain is
/// still a weak consensus object, and it is a full consensus object
/// exactly when `K` is one.
#[derive(Clone)]
pub struct BoundedChain {
    generator: Arc<dyn Fn(usize) -> Arc<dyn ObjectSpec> + Send + Sync>,
    rounds: usize,
    fallback: Arc<dyn ObjectSpec>,
    name: String,
    probe: Option<Arc<ChainProbe>>,
}

impl BoundedChain {
    /// Creates a bounded chain: `generator(i)` supplies stage `i` for
    /// `i < rounds`, then `fallback` is the final stage. `rounds` may be 0,
    /// leaving just the fallback.
    pub fn new(
        name: impl Into<String>,
        generator: impl Fn(usize) -> Arc<dyn ObjectSpec> + Send + Sync + 'static,
        rounds: usize,
        fallback: Arc<dyn ObjectSpec>,
    ) -> BoundedChain {
        BoundedChain {
            generator: Arc::new(generator),
            rounds,
            fallback,
            name: name.into(),
            probe: None,
        }
    }

    /// Attaches a probe recording stage depth and halt sites. A process
    /// took the fallback iff it entered stage [`fallback_index`](Self::fallback_index).
    pub fn with_probe(mut self, probe: Arc<ChainProbe>) -> BoundedChain {
        self.probe = Some(probe);
        self
    }

    /// The stage index of the fallback `K` (= the number of generated
    /// stages before it).
    pub fn fallback_index(&self) -> usize {
        self.rounds
    }
}

impl std::fmt::Debug for BoundedChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BoundedChain[{}]", self.name)
    }
}

impl ObjectSpec for BoundedChain {
    fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        let rounds = self.rounds;
        let generator = Arc::clone(&self.generator);
        let fallback = Arc::clone(&self.fallback);
        Arc::new(LazyChainHandle {
            object: Arc::new(LazyChainObject {
                generator: Arc::new(move |i| {
                    if i < rounds {
                        generator(i)
                    } else {
                        Arc::clone(&fallback)
                    }
                }),
                n: ctx.n,
                cache: Mutex::new(Vec::new()),
                probe: self.probe.clone(),
                limit: Some(rounds),
            }),
        })
    }

    fn name(&self) -> String {
        format!(
            "{}[f={}; K={}]",
            self.name,
            self.rounds,
            self.fallback.name()
        )
    }
}

/// Where a staged session gets its next stage from.
enum StageSource {
    Eager(Vec<Arc<dyn DecidingObject>>),
    Lazy(Arc<LazyChainObject>),
}

impl StageSource {
    /// A new session of stage `i` for `pid`, or `None` past the end of a
    /// finite chain. A lazy chain instantiates the stage (and any gaps) on
    /// first demand and creates the session under its cache lock, so
    /// entering a stage clones no `Arc`.
    fn session(
        &self,
        i: usize,
        pid: ProcessId,
        ctx: &mut Ctx<'_>,
    ) -> Option<Box<dyn Session + Send>> {
        match self {
            StageSource::Eager(stages) => Some(stages.get(i)?.session(pid)),
            StageSource::Lazy(object) => {
                if object.limit.is_some_and(|limit| i > limit) {
                    return None;
                }
                let mut cache = object.cache.lock().expect("chain cache lock");
                while cache.len() <= i {
                    let spec = (object.generator)(cache.len());
                    cache.push(spec.instantiate(&mut InstantiateCtx::new(object.n, ctx.alloc)));
                }
                Some(cache[i].session(pid))
            }
        }
    }
}

/// The session implementing the skip-on-decide composition semantics for
/// both [`Chain`] and [`LazyChain`].
struct StagedSession {
    source: StageSource,
    pid: ProcessId,
    cur: usize,
    inner: Option<Box<dyn Session + Send>>,
    probe: Option<Arc<ChainProbe>>,
}

impl StagedSession {
    /// Handles a stage's action: pass through operations; on halt, either
    /// finish (decided, or chain exhausted) or start the next stage with the
    /// halted value as input. Loops because a freshly begun stage may halt
    /// immediately.
    fn advance(&mut self, mut action: Action, ctx: &mut Ctx<'_>) -> Action {
        loop {
            match action {
                Action::Invoke(_) => return action,
                Action::Halt(d) => {
                    if let Some(probe) = &self.probe {
                        if d.is_decided() {
                            probe.record_halt(self.cur, true);
                            return Action::Halt(d);
                        }
                    } else if d.is_decided() {
                        return Action::Halt(d);
                    }
                    // Move to the next stage, if any.
                    self.cur += 1;
                    let Some(mut session) = self.source.session(self.cur, self.pid, ctx) else {
                        // Finite chain exhausted: its output is the last
                        // stage's output.
                        if let Some(probe) = &self.probe {
                            probe.record_halt(self.cur - 1, false);
                        }
                        return Action::Halt(d);
                    };
                    if let Some(probe) = &self.probe {
                        probe.record_stage(self.cur);
                    }
                    action = session.begin(d.value(), ctx);
                    self.inner = Some(session);
                }
            }
        }
    }
}

impl Session for StagedSession {
    fn begin(&mut self, input: Value, ctx: &mut Ctx<'_>) -> Action {
        let mut session = self
            .source
            .session(0, self.pid, ctx)
            .expect("chains have at least one stage");
        if let Some(probe) = &self.probe {
            probe.record_stage(0);
        }
        let action = session.begin(input, ctx);
        self.inner = Some(session);
        self.advance(action, ctx)
    }

    fn poll(&mut self, response: Response, ctx: &mut Ctx<'_>) -> Action {
        let session = self.inner.as_mut().expect("active stage session");
        let action = session.poll(response, ctx);
        self.advance(action, ctx)
    }

    fn snapshot(&self, sink: &mut StateSink) {
        // `cur` pins which stage's session the inner atoms belong to, so
        // atom sequences from different stages can never collide.
        sink.push_raw(self.cur as u64);
        match &self.inner {
            Some(inner) => {
                sink.push_raw(1);
                inner.snapshot(sink);
            }
            None => sink.push_raw(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conciliator::FirstMoverConciliator;
    use crate::ratifier::Ratifier;
    use mc_model::properties;
    use mc_sim::adversary::{RandomScheduler, RoundRobin};
    use mc_sim::harness::{self, inputs};
    use mc_sim::EngineConfig;

    #[test]
    fn pair_composition_names() {
        let c = Chain::pair(
            Arc::new(FirstMoverConciliator::impatient()),
            Arc::new(Ratifier::binary()),
        );
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.name(), "(first-mover(2^k/n); ratifier(binary))");
    }

    #[test]
    fn composition_preserves_weak_consensus() {
        // Corollary 4, empirically: (conciliator; ratifier) is a weak
        // consensus object.
        let spec = Chain::pair(
            Arc::new(FirstMoverConciliator::impatient()),
            Arc::new(Ratifier::binary()),
        );
        for seed in 0..40 {
            let ins = inputs::alternating(6, 2);
            let out = harness::run_object(
                &spec,
                &ins,
                &mut RandomScheduler::new(seed),
                seed,
                &EngineConfig::default(),
            )
            .unwrap();
            properties::check_weak_consensus(&ins, &out.outputs).unwrap();
        }
    }

    #[test]
    fn decision_in_first_stage_skips_second() {
        // Unanimous inputs: the first ratifier decides, so the (expensive)
        // second stage contributes no operations — 4 ops per process max.
        let spec = Chain::pair(Arc::new(Ratifier::binary()), Arc::new(Ratifier::binary()));
        let out = harness::run_object(
            &spec,
            &inputs::unanimous(5, 1),
            &mut RoundRobin::new(),
            0,
            &EngineConfig::default(),
        )
        .unwrap();
        assert!(out.outputs.iter().all(|d| d.is_decided()));
        assert!(out.metrics.individual_work() <= 4);
    }

    #[test]
    fn associativity_of_composition() {
        // ((X; Y); Z) behaves like (X; (Y; Z)): same outputs for the same
        // seed and schedule.
        let x = || Arc::new(Ratifier::binary()) as Arc<dyn ObjectSpec>;
        let left = Chain::pair(Arc::new(Chain::pair(x(), x())), x());
        let right = Chain::pair(x(), Arc::new(Chain::pair(x(), x())));
        for seed in 0..20 {
            let ins = inputs::alternating(4, 2);
            let out_l = harness::run_object(
                &left,
                &ins,
                &mut RoundRobin::new(),
                seed,
                &EngineConfig::default(),
            )
            .unwrap();
            let out_r = harness::run_object(
                &right,
                &ins,
                &mut RoundRobin::new(),
                seed,
                &EngineConfig::default(),
            )
            .unwrap();
            assert_eq!(out_l.outputs, out_r.outputs);
            assert_eq!(out_l.metrics.total_work(), out_r.metrics.total_work());
        }
    }

    #[test]
    fn lazy_chain_instantiates_only_reached_stages() {
        let probe = ChainProbe::new();
        let spec = LazyChain::new("lazy-ratifiers", |_| {
            Arc::new(Ratifier::binary()) as Arc<dyn ObjectSpec>
        })
        .with_probe(Arc::clone(&probe));
        // Unanimous inputs: stage 0 decides for everyone.
        let out = harness::run_object(
            &spec,
            &inputs::unanimous(4, 0),
            &mut RoundRobin::new(),
            0,
            &EngineConfig::default(),
        )
        .unwrap();
        assert!(out.outputs.iter().all(|d| d.is_decided()));
        assert_eq!(probe.max_stage(), 0);
        // Stage 0's registers only: 3 for a binary ratifier.
        assert_eq!(out.metrics.registers_allocated, 3);
        assert_eq!(probe.halts(), vec![(0, true); 4]);
    }

    #[test]
    fn bounded_chain_decides_early_without_touching_the_fallback() {
        let probe = ChainProbe::new();
        let spec = BoundedChain::new(
            "bounded",
            |_| Arc::new(Ratifier::binary()) as Arc<dyn ObjectSpec>,
            3,
            Arc::new(Ratifier::binary()),
        )
        .with_probe(Arc::clone(&probe));
        assert_eq!(spec.fallback_index(), 3);
        // Unanimous inputs: stage 0 decides for everyone; the fallback (and
        // stages 1–2) are never instantiated.
        let out = harness::run_object(
            &spec,
            &inputs::unanimous(4, 1),
            &mut RoundRobin::new(),
            0,
            &EngineConfig::default(),
        )
        .unwrap();
        assert!(out.outputs.iter().all(|d| d.is_decided()));
        assert_eq!(probe.max_stage(), 0);
        assert_eq!(out.metrics.registers_allocated, 3);
    }

    #[test]
    fn exhausted_bounded_chain_enters_the_fallback() {
        // Conciliators never decide, so every process traverses all f of
        // them and lands in the fallback ratifier at index f.
        let probe = ChainProbe::new();
        let f = 2;
        let spec = BoundedChain::new(
            "all-conciliators",
            |_| Arc::new(FirstMoverConciliator::impatient()) as Arc<dyn ObjectSpec>,
            f,
            Arc::new(Ratifier::binary()),
        )
        .with_probe(Arc::clone(&probe));
        let out = harness::run_object(
            &spec,
            &inputs::unanimous(3, 1),
            &mut RandomScheduler::new(7),
            7,
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(probe.max_stage(), spec.fallback_index());
        // The fallback ratifier sees a single (conciliated or unanimous)
        // value and decides it.
        assert!(out.outputs.iter().all(|d| d.is_decided()));
        assert_eq!(out.outputs[0].value(), 1);
    }

    #[test]
    fn bounded_chain_preserves_weak_consensus() {
        // Corollary 4 applied to the truncation: even when the fallback is
        // only a ratifier (weak consensus), the composite stays a weak
        // consensus object on every schedule.
        for seed in 0..40 {
            let spec = BoundedChain::new(
                "truncated",
                |i| {
                    if i % 2 == 0 {
                        Arc::new(FirstMoverConciliator::impatient()) as Arc<dyn ObjectSpec>
                    } else {
                        Arc::new(Ratifier::binary()) as Arc<dyn ObjectSpec>
                    }
                },
                4,
                Arc::new(Ratifier::binary()),
            );
            let ins = inputs::alternating(6, 2);
            let out = harness::run_object(
                &spec,
                &ins,
                &mut RandomScheduler::new(seed),
                seed,
                &EngineConfig::default(),
            )
            .unwrap();
            properties::check_weak_consensus(&ins, &out.outputs).unwrap();
        }
    }

    #[test]
    fn zero_round_bounded_chain_is_just_the_fallback() {
        let spec = BoundedChain::new(
            "fallback-only",
            |_| unreachable!("no generated stages"),
            0,
            Arc::new(Ratifier::binary()),
        );
        let out = harness::run_object(
            &spec,
            &inputs::unanimous(3, 0),
            &mut RoundRobin::new(),
            0,
            &EngineConfig::default(),
        )
        .unwrap();
        assert!(out.outputs.iter().all(|d| d.is_decided() && d.value() == 0));
        assert_eq!(spec.name(), "fallback-only[f=0; K=ratifier(binary)]");
    }

    #[test]
    fn probe_reset_clears_state() {
        let probe = ChainProbe::new();
        probe.record_stage(5);
        probe.record_halt(5, true);
        probe.reset();
        assert_eq!(probe.max_stage(), 0);
        assert!(probe.halts().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_chain_rejected() {
        Chain::new(Vec::new());
    }
}
