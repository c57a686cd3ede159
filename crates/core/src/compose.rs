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
//! `(X₁; X₂; …; X_k)` and infinite sequences are well-defined; [`Chain`] is
//! both. The paper's Lemmas 1–3 and Corollary 4 show composition
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

/// Supplies the spec of stage `i`.
type Generator = Arc<dyn Fn(usize) -> Arc<dyn ObjectSpec> + Send + Sync>;

/// A composition `(X₀; X₁; …)`: a stage generator plus an optional last
/// stage index, for finite and unbounded sequences alike.
///
/// Stages are instantiated lazily, on first entry by any process, and in
/// index order (entering stage `i` first instantiates every stage before
/// it that is still missing), so register ids follow stage order and only
/// the stages some process reaches allocate registers. This realizes the
/// paper's unbounded constructions (§4.1.1, §4.2) in bounded *actual*
/// space: the expected number of stages used is constant when conciliators
/// have constant agreement probability.
#[derive(Clone)]
pub struct Chain {
    generator: Generator,
    /// Highest stage index, or `None` for an unbounded chain.
    last: Option<usize>,
    name: String,
    probe: Option<Arc<ChainProbe>>,
}

impl Chain {
    /// The finite composition `(X₀; X₁; …; X_k)` of the given stages, in
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn new(stages: Vec<Arc<dyn ObjectSpec>>) -> Chain {
        assert!(!stages.is_empty(), "a chain needs at least one stage");
        let parts: Vec<String> = stages.iter().map(|s| s.name()).collect();
        let name = format!("({})", parts.join("; "));
        let last = stages.len() - 1;
        Chain::generated(name, Some(last), move |i| Arc::clone(&stages[i]))
    }

    /// The binary composition `(X; Y)` of §3.2.
    pub fn pair(x: Arc<dyn ObjectSpec>, y: Arc<dyn ObjectSpec>) -> Chain {
        Chain::new(vec![x, y])
    }

    /// The unbounded composition `(X₀; X₁; …)`: `generator(i)` supplies
    /// stage `i`.
    pub fn unbounded(
        name: impl Into<String>,
        generator: impl Fn(usize) -> Arc<dyn ObjectSpec> + Send + Sync + 'static,
    ) -> Chain {
        Chain::generated(name.into(), None, generator)
    }

    /// The bounded composition of §4.1.2 / Theorem 5,
    /// `(X₀; …; X_{f−1}; K)`: `generator(i)` supplies stage `i` for
    /// `i < rounds`, then `fallback` is the last stage, at index `rounds`
    /// (`rounds` may be 0, leaving just the fallback). The chain is named
    /// `name`, as given.
    ///
    /// A process that traverses every generated stage without deciding
    /// enters `K` (observable as [`ChainProbe::max_stage`] reaching
    /// `rounds`); the composite's output is then whatever `K` halts with.
    /// Composition (Lemmas 1–3) preserves validity and coherence
    /// regardless, so the truncated chain is still a weak consensus object,
    /// and it is a full consensus object exactly when `K` is one.
    pub fn bounded(
        name: impl Into<String>,
        generator: impl Fn(usize) -> Arc<dyn ObjectSpec> + Send + Sync + 'static,
        rounds: usize,
        fallback: Arc<dyn ObjectSpec>,
    ) -> Chain {
        Chain::generated(name.into(), Some(rounds), move |i| {
            if i < rounds {
                generator(i)
            } else {
                Arc::clone(&fallback)
            }
        })
    }

    /// Attaches a probe recording stage depth and halt sites.
    pub fn with_probe(mut self, probe: Arc<ChainProbe>) -> Chain {
        self.probe = Some(probe);
        self
    }

    fn generated(
        name: String,
        last: Option<usize>,
        generator: impl Fn(usize) -> Arc<dyn ObjectSpec> + Send + Sync + 'static,
    ) -> Chain {
        Chain {
            generator: Arc::new(generator),
            last,
            name,
            probe: None,
        }
    }
}

impl std::fmt::Debug for Chain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Chain[{}]", self.name)
    }
}

impl ObjectSpec for Chain {
    fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        Arc::new(ChainObject(Arc::new(StageTable {
            generator: Arc::clone(&self.generator),
            last: self.last,
            n: ctx.n,
            probe: self.probe.clone(),
            stages: Mutex::new(Vec::new()),
        })))
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// Observation hook for chain executions: how deep did the chain go.
/// Shared across the processes of a run (and across runs, unless
/// [`reset`](ChainProbe::reset)).
#[derive(Debug, Default)]
pub struct ChainProbe {
    max_stage: AtomicUsize,
}

impl ChainProbe {
    /// Creates a probe.
    pub fn new() -> Arc<ChainProbe> {
        Arc::new(ChainProbe::default())
    }

    fn record_stage(&self, stage: usize) {
        self.max_stage.fetch_max(stage, Ordering::Relaxed);
    }

    /// The deepest stage index any process entered.
    pub fn max_stage(&self) -> usize {
        self.max_stage.load(Ordering::Relaxed)
    }

    /// Clears recorded data (for reuse across runs).
    pub fn reset(&self) {
        self.max_stage.store(0, Ordering::Relaxed);
    }
}

/// One instance of a [`Chain`]: the stages instantiated so far, shared by
/// the sessions of every process.
struct StageTable {
    generator: Generator,
    last: Option<usize>,
    n: usize,
    probe: Option<Arc<ChainProbe>>,
    stages: Mutex<Vec<Arc<dyn DecidingObject>>>,
}

impl StageTable {
    /// A new session of stage `i` for `pid`, or `None` past the end of a
    /// finite chain. The stage (and any gap before it) is instantiated on
    /// first demand, and the session is created under the table's lock, so
    /// entering a stage clones no `Arc`.
    fn session(
        &self,
        i: usize,
        pid: ProcessId,
        ctx: &mut Ctx<'_>,
    ) -> Option<Box<dyn Session + Send>> {
        if self.last.is_some_and(|last| i > last) {
            return None;
        }
        let mut stages = self.stages.lock().expect("chain stage lock");
        while stages.len() <= i {
            let spec = (self.generator)(stages.len());
            stages.push(spec.instantiate(&mut InstantiateCtx::new(self.n, ctx.alloc)));
        }
        Some(stages[i].session(pid))
    }
}

struct ChainObject(Arc<StageTable>);

impl DecidingObject for ChainObject {
    fn session(&self, pid: ProcessId) -> Box<dyn Session + Send> {
        Box::new(StagedSession {
            table: Arc::clone(&self.0),
            pid,
            cur: 0,
            inner: None,
        })
    }

    fn symmetry(&self) -> SymmetrySpec {
        // A composite has exactly the symmetries every stage has; register
        // declarations accumulate since each stage owns disjoint registers.
        // Only instantiated stages can have contributed to the current
        // configuration. Gap-filling instantiation makes the watermark a
        // function of the configuration itself (it equals the deepest
        // stage any process has entered), so equal configurations always
        // carry equal certificates.
        let stages = self.0.stages.lock().expect("chain stage lock");
        let mut spec = SymmetrySpec::fully_symmetric();
        for stage in stages.iter() {
            spec.merge(&stage.symmetry());
        }
        spec
    }
}

/// The session implementing the skip-on-decide composition semantics.
struct StagedSession {
    table: Arc<StageTable>,
    pid: ProcessId,
    cur: usize,
    inner: Option<Box<dyn Session + Send>>,
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
                    if d.is_decided() {
                        return Action::Halt(d);
                    }
                    // Move to the next stage, if any.
                    self.cur += 1;
                    let Some(mut session) = self.table.session(self.cur, self.pid, ctx) else {
                        // Finite chain exhausted: its output is the last
                        // stage's output.
                        return Action::Halt(d);
                    };
                    if let Some(probe) = self.table.probe.as_deref() {
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
            .table
            .session(0, self.pid, ctx)
            .expect("chains have at least one stage");
        if let Some(probe) = &self.table.probe {
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
        // second stage contributes no operations — 4 ops per process max —
        // and is never instantiated.
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
        // Stage 0's registers only: 3 for a binary ratifier.
        assert_eq!(out.metrics.registers_allocated, 3);
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
        let spec = Chain::unbounded("lazy-ratifiers", |_| {
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
    }

    #[test]
    fn bounded_chain_decides_early_without_touching_the_fallback() {
        let probe = ChainProbe::new();
        let spec = Chain::bounded(
            "bounded",
            |_| Arc::new(Ratifier::binary()) as Arc<dyn ObjectSpec>,
            3,
            Arc::new(Ratifier::binary()),
        )
        .with_probe(Arc::clone(&probe));
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
        let spec = Chain::bounded(
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
        assert_eq!(probe.max_stage(), f);
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
            let spec = Chain::bounded(
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
        let spec = Chain::bounded(
            "fallback-only",
            |_| Arc::new(FirstMoverConciliator::impatient()) as Arc<dyn ObjectSpec>,
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
        // The fallback's registers only (a generated conciliator would add
        // one), and the name as given.
        assert_eq!(out.metrics.registers_allocated, 3);
        assert_eq!(spec.name(), "fallback-only");
    }

    #[test]
    fn probe_reset_clears_state() {
        let probe = ChainProbe::new();
        probe.record_stage(5);
        probe.reset();
        assert_eq!(probe.max_stage(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_chain_rejected() {
        Chain::new(Vec::new());
    }
}
