//! Property-based tests of the simulator itself: run determinism, work
//! accounting, and adversary-view information hiding.

use std::sync::{Arc, Mutex};

use mc_core::LocalCoin;
use mc_model::{
    Action, Ctx, DecidingObject, Decision, InstantiateCtx, ObjectSpec, Op, OpKind, Probability,
    ProcessId, RegisterId, Response, Session,
};
use mc_sim::adversary::{
    Adversary, Capability, CrashingAdversary, PendingInfo, RandomScheduler, RoundRobin,
    SplitKeeper, View,
};
use mc_sim::harness::{self, inputs};
use mc_sim::testutil::{CollectOnceSpec, WriteThenReadSpec};
use mc_sim::{observe_pending, Engine, EngineConfig};
use proptest::prelude::*;

proptest! {
    /// Runs are pure functions of (spec, inputs, adversary seed, run seed).
    #[test]
    fn runs_are_deterministic(n in 1usize..10, seed in 0u64..10_000) {
        let ins = inputs::alternating(n, 3);
        let run = || {
            harness::run_object(
                &WriteThenReadSpec,
                &ins,
                &mut RandomScheduler::new(seed),
                seed,
                &EngineConfig::default().with_trace(),
            ).unwrap()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.outputs, b.outputs);
        prop_assert_eq!(a.metrics, b.metrics);
        prop_assert_eq!(a.trace, b.trace);
    }

    /// The trace length equals the total work: every operation is recorded
    /// exactly once and costs exactly one unit.
    #[test]
    fn trace_length_equals_total_work(n in 1usize..10, seed in 0u64..10_000) {
        let ins = inputs::alternating(n, 2);
        let out = harness::run_object(
            &WriteThenReadSpec,
            &ins,
            &mut RandomScheduler::new(seed),
            seed,
            &EngineConfig::default().with_trace(),
        ).unwrap();
        prop_assert_eq!(out.trace.unwrap().len() as u64, out.metrics.total_work());
        // WriteThenRead: exactly 2 ops per process.
        prop_assert_eq!(out.metrics.total_work(), 2 * n as u64);
        prop_assert_eq!(out.metrics.individual_work(), 2);
    }

    /// Collect runs cost one op per collect in the cheap-collect model.
    #[test]
    fn collect_costs_one_operation(n in 1usize..8, seed in 0u64..5000) {
        let ins = inputs::alternating(n, 2);
        let out = harness::run_object(
            &CollectOnceSpec,
            &ins,
            &mut RandomScheduler::new(seed),
            seed,
            &EngineConfig::default().with_cheap_collect(),
        ).unwrap();
        // write + collect = 2 ops each.
        prop_assert_eq!(out.metrics.total_work(), 2 * n as u64);
    }

    /// Different run seeds give independent coin streams (two seeds agree
    /// on all of 16 coin flips only with probability 2^-16 per pair; assert
    /// they differ for at least one of several pairs).
    #[test]
    fn coin_streams_vary_with_seed(base in 0u64..1_000_000) {
        let flip = |seed: u64| {
            harness::run_object(
                &LocalCoin,
                &[0; 16],
                &mut RandomScheduler::new(0),
                seed,
                &EngineConfig::default(),
            ).unwrap().values()
        };
        let distinct = (1..=4u64).any(|d| flip(base) != flip(base + d));
        prop_assert!(distinct);
    }
}

proptest! {
    /// A recorded schedule replayed via `ScriptedAdversary` with the same
    /// run seed reproduces the execution exactly (coins re-flip
    /// identically from the per-process streams).
    #[test]
    fn scripted_replay_reproduces_recorded_runs(n in 1usize..8, seed in 0u64..10_000) {
        let ins = inputs::alternating(n, 2);
        let original = harness::run_object(
            &WriteThenReadSpec,
            &ins,
            &mut RandomScheduler::new(seed),
            seed,
            &EngineConfig::default().with_trace(),
        ).unwrap();
        let schedule = original.trace.as_ref().unwrap().events().iter().map(|e| e.pid).collect();
        let mut replayer = mc_sim::adversary::ScriptedAdversary::new(schedule);
        let replayed = harness::run_object(
            &WriteThenReadSpec,
            &ins,
            &mut replayer,
            seed,
            &EngineConfig::default().with_trace(),
        ).unwrap();
        prop_assert_eq!(original.outputs, replayed.outputs);
        prop_assert_eq!(original.trace, replayed.trace);
    }
}

/// An adversary that asserts its view is masked per its declared
/// capability, then defers to round-robin.
struct MaskSpy {
    capability: Capability,
    cursor: usize,
}

impl Adversary for MaskSpy {
    fn capability(&self) -> Capability {
        self.capability
    }

    fn choose(&mut self, view: &View<'_>) -> ProcessId {
        for p in view.pending {
            match self.capability {
                Capability::Oblivious => {
                    assert!(p.kind.is_none() && p.reg.is_none() && p.value.is_none());
                    assert!(view.memory.is_none());
                }
                Capability::ValueOblivious => {
                    assert!(p.kind.is_some());
                    assert!(p.value.is_none(), "value leaked to value-oblivious");
                    assert!(view.memory.is_none(), "memory leaked to value-oblivious");
                }
                Capability::LocationOblivious => {
                    assert!(p.kind.is_some());
                    if matches!(p.kind, Some(OpKind::Write) | Some(OpKind::ProbWrite)) {
                        assert!(p.reg.is_none(), "write location leaked");
                    }
                    assert!(view.memory.is_some());
                }
                Capability::Adaptive => {
                    assert!(p.kind.is_some() && p.reg.is_some());
                    assert!(view.memory.is_some());
                }
            }
        }
        let choice = view
            .pending
            .iter()
            .map(|p| p.pid)
            .find(|p| p.index() >= self.cursor)
            .unwrap_or(view.pending[0].pid);
        self.cursor = (choice.index() + 1) % view.n;
        choice
    }
}

#[test]
fn adversary_views_hide_exactly_what_each_class_may_not_see() {
    for capability in [
        Capability::Oblivious,
        Capability::ValueOblivious,
        Capability::LocationOblivious,
        Capability::Adaptive,
    ] {
        let mut spy = MaskSpy {
            capability,
            cursor: 0,
        };
        // WriteThenRead exercises writes and reads; every view is asserted
        // inside the spy.
        harness::run_object(
            &WriteThenReadSpec,
            &inputs::alternating(5, 2),
            &mut spy,
            1,
            &EngineConfig::default(),
        )
        .unwrap();
    }
}

/// Each process's pending operation as its own session last issued it,
/// `None` once it has halted: what the engine's view must be a censored
/// copy of.
type Ledger = Arc<Mutex<Vec<Option<Op>>>>;

/// Every third process halts in `begin`; the others issue one operation of
/// each kind and then halt, posting each to the ledger as they go.
struct EveryOpSpec {
    ledger: Ledger,
}

struct EveryOp {
    base: RegisterId,
    n: u64,
    ledger: Ledger,
}

struct EveryOpSession {
    base: RegisterId,
    n: u64,
    pid: ProcessId,
    input: u64,
    issued: u32,
    ledger: Ledger,
}

impl EveryOpSession {
    fn next(&mut self) -> Action {
        let (reg, value) = (self.base.offset(self.pid.index() as u64), self.input);
        let op = match self.issued {
            _ if self.pid.index().is_multiple_of(3) => None,
            0 => Some(Op::ProbWrite {
                reg,
                value,
                prob: Probability::new(0.5).unwrap(),
            }),
            1 => Some(Op::Write { reg, value }),
            2 => Some(Op::Read(self.base)),
            3 => Some(Op::Collect {
                base: self.base,
                len: self.n,
            }),
            _ => None,
        };
        self.issued += 1;
        self.ledger.lock().unwrap()[self.pid.index()] = op.clone();
        match op {
            Some(op) => Action::Invoke(op),
            None => Action::Halt(Decision::continue_with(self.input)),
        }
    }
}

impl Session for EveryOpSession {
    fn begin(&mut self, input: u64, _ctx: &mut Ctx<'_>) -> Action {
        self.input = input;
        self.next()
    }

    fn poll(&mut self, _response: Response, _ctx: &mut Ctx<'_>) -> Action {
        self.next()
    }
}

impl DecidingObject for EveryOp {
    fn session(&self, pid: ProcessId) -> Box<dyn Session + Send> {
        Box::new(EveryOpSession {
            base: self.base,
            n: self.n,
            pid,
            input: 0,
            issued: 0,
            ledger: Arc::clone(&self.ledger),
        })
    }
}

impl ObjectSpec for EveryOpSpec {
    fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        *self.ledger.lock().unwrap() = vec![None; ctx.n];
        Arc::new(EveryOp {
            base: ctx.alloc.alloc_block(ctx.n as u64),
            n: ctx.n as u64,
            ledger: Arc::clone(&self.ledger),
        })
    }
}

/// Declares `capability`, checks each view it is shown against the ledger
/// censored from scratch, and lets `inner` choose.
struct ViewOracle {
    capability: Capability,
    inner: Box<dyn Adversary>,
    ledger: Ledger,
    ops_done: Vec<u64>,
    views_checked: usize,
}

impl Adversary for ViewOracle {
    fn capability(&self) -> Capability {
        self.capability
    }

    fn choose(&mut self, view: &View<'_>) -> ProcessId {
        let rebuilt: Vec<PendingInfo> = self
            .ledger
            .lock()
            .unwrap()
            .iter()
            .enumerate()
            .filter_map(|(ix, op)| {
                let op = op.as_ref()?;
                let pid = ProcessId(ix);
                Some(observe_pending(pid, self.ops_done[ix], op, self.capability))
            })
            .collect();
        assert_eq!(view.pending, rebuilt, "view at step {}", view.step);
        self.views_checked += 1;
        let pid = self.inner.choose(view);
        self.ops_done[pid.index()] += 1;
        pid
    }
}

/// The engine keeps one view and rewrites only the stepped process's entry;
/// at every step of every run that view must equal the one rebuilt from
/// every live process, including when processes halt in `begin` (never
/// enter the view) and when crashed ones stay in it for good.
#[test]
fn the_live_view_is_the_rebuilt_view_at_every_step() {
    let n = 7;
    let schedulers: [fn(u64) -> Box<dyn Adversary>; 3] = [
        |_| Box::new(RoundRobin::new()),
        |seed| Box::new(RandomScheduler::new(seed)),
        |seed| Box::new(SplitKeeper::new(seed)),
    ];
    let crash_plans = [vec![], vec![(ProcessId(1), 0), (ProcessId(4), 5)]];
    for capability in [
        Capability::Oblivious,
        Capability::ValueOblivious,
        Capability::LocationOblivious,
        Capability::Adaptive,
    ] {
        for scheduler in schedulers {
            for crashes in &crash_plans {
                for seed in 0..4 {
                    let ledger = Ledger::default();
                    let inner = if crashes.is_empty() {
                        scheduler(seed)
                    } else {
                        Box::new(CrashingAdversary::new(scheduler(seed), crashes.clone()))
                    };
                    let mut oracle = ViewOracle {
                        capability,
                        inner,
                        ledger: Arc::clone(&ledger),
                        ops_done: vec![0; n],
                        views_checked: 0,
                    };
                    let spec = EveryOpSpec {
                        ledger: Arc::clone(&ledger),
                    };
                    let engine = Engine::new(
                        &spec,
                        &inputs::alternating(n, 3),
                        &mut oracle,
                        seed,
                        EngineConfig::default().with_cheap_collect(),
                    );
                    let doomed = |ix: usize| crashes.iter().any(|(pid, _)| pid.index() == ix);
                    let out = engine
                        .run_until(|_| {
                            let pending = ledger.lock().unwrap();
                            pending
                                .iter()
                                .enumerate()
                                .all(|(ix, op)| op.is_none() || doomed(ix))
                        })
                        .unwrap();
                    for (ix, decision) in out.decisions.iter().enumerate() {
                        assert!(decision.is_some() || doomed(ix));
                        assert_eq!(decision.is_none(), ledger.lock().unwrap()[ix].is_some());
                    }
                    // 4 of 7 processes take 4 steps each; p1 never runs and
                    // p4 may be cut short.
                    assert!(oracle.views_checked >= 8, "{}", oracle.views_checked);
                }
            }
        }
    }
}
