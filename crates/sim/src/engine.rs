//! The execution engine: interleaving semantics driven by an adversary.

use std::error::Error;
use std::fmt;

use mc_model::{
    mix_seed, Action, BlockAlloc, Ctx, Decision, InstantiateCtx, Memory, ObjectSpec, Op, OpKind,
    ProcessId, RegContents, Response, Session, Value,
};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::adversary::{Adversary, Capability, PendingInfo, View};
use crate::harness::RunOutcome;
use crate::metrics::WorkMetrics;
use crate::trace::{Event, Trace};

/// Engine configuration: model variants and safety limits.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Abort the run with [`RunError::StepLimitExceeded`] after this many
    /// operations. Randomized wait-free protocols terminate only with
    /// probability 1, so a limit distinguishes "astronomically unlucky"
    /// from "livelocked by a bug".
    pub max_steps: u64,
    /// Allow [`Op::Collect`] (the cheap-snapshot model of §6.2 item 4).
    pub cheap_collect: bool,
    /// Let processes observe whether their probabilistic write took effect
    /// (footnote 2 of the paper: saves 2 operations in the conciliator).
    pub detect_prob_writes: bool,
    /// Record a full [`Trace`] of the execution.
    pub record_trace: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            max_steps: 10_000_000,
            cheap_collect: false,
            detect_prob_writes: false,
            record_trace: false,
        }
    }
}

impl EngineConfig {
    /// Returns the config with the step limit replaced.
    pub fn with_max_steps(mut self, max_steps: u64) -> EngineConfig {
        self.max_steps = max_steps;
        self
    }

    /// Returns the config with cheap collects enabled.
    pub fn with_cheap_collect(mut self) -> EngineConfig {
        self.cheap_collect = true;
        self
    }

    /// Returns the config with detectable probabilistic writes enabled.
    pub fn with_detectable_prob_writes(mut self) -> EngineConfig {
        self.detect_prob_writes = true;
        self
    }

    /// Returns the config with trace recording enabled.
    pub fn with_trace(mut self) -> EngineConfig {
        self.record_trace = true;
        self
    }
}

/// Why a run could not be completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The configured step limit was reached before every process halted.
    StepLimitExceeded {
        /// The limit that was hit.
        limit: u64,
    },
    /// A session issued [`Op::Collect`] but the engine is not configured for
    /// the cheap-collect model.
    CollectDisallowed {
        /// The offending process.
        pid: ProcessId,
    },
    /// The adversary chose a process that is not live.
    AdversaryChoseInvalid {
        /// The invalid choice.
        pid: ProcessId,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::StepLimitExceeded { limit } => {
                write!(f, "execution exceeded the step limit of {limit}")
            }
            RunError::CollectDisallowed { pid } => write!(
                f,
                "{pid} issued a collect but the engine is not in the cheap-collect model"
            ),
            RunError::AdversaryChoseInvalid { pid } => {
                write!(f, "adversary chose non-live process {pid}")
            }
        }
    }
}

impl Error for RunError {}

/// The result of a run stopped before every process halted (crash-failure
/// executions).
#[derive(Debug)]
pub struct PartialOutput {
    /// Each process's output, `None` for processes that never halted
    /// (crashed or still running at the stop point).
    pub decisions: Vec<Option<Decision>>,
    /// Operation counts (crashed processes' operations included).
    pub metrics: WorkMetrics,
    /// The recorded trace, if enabled.
    pub trace: Option<Trace>,
}

struct Proc {
    session: Box<dyn Session + Send>,
    rng: SmallRng,
    pending: Option<Op>,
    decision: Option<Decision>,
}

/// Executes one instance of a deciding object under an adversary, one
/// operation at a time.
///
/// Most callers want [`harness::run_object`](crate::harness::run_object);
/// the engine type itself is exposed for step-level tests and tools.
pub struct Engine<'a> {
    memory: Memory,
    alloc: BlockAlloc,
    procs: Vec<Proc>,
    adversary: &'a mut dyn Adversary,
    config: EngineConfig,
    step: u64,
    metrics: WorkMetrics,
    trace: Option<Trace>,
    /// The adversary's information class, read once (see
    /// [`Adversary::capability`]).
    capability: Capability,
    /// The adversary's view: one entry per live process, in pid order.
    /// Built in [`Engine::new`]; a step rewrites or removes only the
    /// stepped process's entry, so a step costs O(1) in `n`, not a rebuild.
    pending_buf: Vec<PendingInfo>,
    /// `slots[pid]`: where the process's entry sits in `pending_buf`, so
    /// the adversary's pick is found by index. A halt shifts the entries
    /// after it and fixes their slots up; the halted pid's own slot goes
    /// stale, so a pick is valid only if its slot holds that pid.
    slots: Vec<usize>,
}

impl<'a> Engine<'a> {
    /// Instantiates `spec` for `inputs.len()` processes and starts every
    /// session (establishing each process's first pending operation).
    ///
    /// `seed` derives every process's private coin stream; the adversary
    /// carries its own randomness.
    pub fn new(
        spec: &dyn ObjectSpec,
        inputs: &[Value],
        adversary: &'a mut dyn Adversary,
        seed: u64,
        config: EngineConfig,
    ) -> Engine<'a> {
        let n = inputs.len();
        let capability = adversary.capability();
        let mut pending_buf = Vec::with_capacity(n);
        let mut slots = Vec::with_capacity(n);
        let mut alloc = BlockAlloc::new();
        let object = spec.instantiate(&mut InstantiateCtx::new(n, &mut alloc));
        let mut metrics = WorkMetrics::new(n);
        let trace = config.record_trace.then(Trace::new);
        let mut procs = Vec::with_capacity(n);
        for (ix, &input) in inputs.iter().enumerate() {
            let pid = ProcessId(ix);
            let mut rng = SmallRng::seed_from_u64(mix_seed(seed, ix as u64));
            let mut session = object.session(pid);
            let action = {
                let mut ctx = Ctx::new(&mut rng, &mut alloc);
                session.begin(input, &mut ctx)
            };
            let (pending, decision) = match action {
                Action::Invoke(op) => {
                    slots.push(pending_buf.len());
                    pending_buf.push(observe_pending(pid, 0, &op, capability));
                    (Some(op), None)
                }
                Action::Halt(d) => {
                    // Never in the view, so no slot may name it.
                    slots.push(usize::MAX);
                    (None, Some(d))
                }
            };
            procs.push(Proc {
                session,
                rng,
                pending,
                decision,
            });
        }
        metrics.registers_allocated = alloc.allocated();
        let mut memory = Memory::new();
        memory.reserve(alloc.allocated());
        Engine {
            memory,
            alloc,
            procs,
            adversary,
            config,
            step: 0,
            metrics,
            trace,
            capability,
            pending_buf,
            slots,
        }
    }

    /// True once every process has halted.
    fn is_complete(&self) -> bool {
        self.pending_buf.is_empty()
    }

    /// The live processes, in pid order.
    pub(crate) fn live(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.pending_buf.iter().map(|p| p.pid)
    }

    /// Executes a single scheduling step: the adversary picks a live
    /// process, its pending operation applies, and its session advances.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if the adversary misbehaves, a session uses a
    /// disallowed operation, or the step limit is hit.
    ///
    /// # Panics
    ///
    /// Panics if called when [`is_complete`](Engine::is_complete) is true.
    fn step(&mut self) -> Result<(), RunError> {
        if self.step >= self.config.max_steps {
            return Err(RunError::StepLimitExceeded {
                limit: self.config.max_steps,
            });
        }
        let (slot, pid) = self.choose_process()?;
        let ix = pid.index();
        // Reject before consuming the op: an error must leave the process
        // pending and the view as the adversary saw it.
        if matches!(self.procs[ix].pending, Some(Op::Collect { .. })) && !self.config.cheap_collect
        {
            return Err(RunError::CollectDisallowed { pid });
        }
        let op = self.procs[ix]
            .pending
            .take()
            .expect("chosen process has a pending op");

        let rng = &mut self.procs[ix].rng;
        let (mut response, observed) = self.memory.perform(&op, |p| rng.random_bool(p.get()));
        if self.config.detect_prob_writes {
            if let Response::ProbWrite { performed } = &mut response {
                *performed = observed.map(|landed| landed == 1);
            }
        }
        let trace = self.trace.as_mut();
        charge_step(&mut self.metrics, trace, &mut self.step, pid, op, observed);

        // Advance the session.
        let proc = &mut self.procs[ix];
        let action = {
            let mut ctx = Ctx::new(&mut proc.rng, &mut self.alloc);
            proc.session.poll(response, &mut ctx)
        };
        match action {
            Action::Invoke(next) => {
                self.pending_buf[slot] =
                    observe_pending(pid, self.metrics.per_process[ix], &next, self.capability);
                proc.pending = Some(next);
            }
            Action::Halt(d) => {
                self.pending_buf.remove(slot);
                for info in &self.pending_buf[slot..] {
                    self.slots[info.pid.index()] -= 1;
                }
                proc.decision = Some(d);
            }
        }
        let allocated = self.alloc.allocated();
        if allocated != self.metrics.registers_allocated {
            // A stage was instantiated: make room for its registers now, so
            // the steps that write them never reallocate.
            self.memory.reserve(allocated);
            self.metrics.registers_allocated = allocated;
        }
        Ok(())
    }

    /// Runs until `stop` returns true (checked before each step) or every
    /// process has halted, and returns the partial outputs.
    ///
    /// This is the crash-failure entry point: with a
    /// [`CrashingAdversary`](crate::adversary::CrashingAdversary) that stops
    /// scheduling some processes, pass a `stop` that waits only for the
    /// survivors — wait-freedom means they halt regardless.
    ///
    /// # Errors
    ///
    /// Propagates any [`RunError`] of a step: an adversary that
    /// misbehaves, a session that uses a disallowed operation, or the step
    /// limit.
    pub fn run_until(
        mut self,
        mut stop: impl FnMut(&Engine<'_>) -> bool,
    ) -> Result<PartialOutput, RunError> {
        while !self.is_complete() && !stop(&self) {
            self.step()?;
        }
        let mut metrics = self.metrics;
        metrics.registers_touched = self.memory.touched() as u64;
        Ok(PartialOutput {
            decisions: self.procs.iter().map(|p| p.decision).collect(),
            metrics,
            trace: self.trace,
        })
    }

    /// Runs to completion and returns the outputs and metrics.
    ///
    /// # Errors
    ///
    /// Propagates any [`RunError`] of a step, as
    /// [`run_until`](Engine::run_until).
    pub fn run(self) -> Result<RunOutcome, RunError> {
        let done = self.run_until(|_| false)?;
        Ok(RunOutcome {
            outputs: done
                .decisions
                .into_iter()
                .map(|d| d.expect("complete run"))
                .collect(),
            metrics: done.metrics,
            trace: done.trace,
        })
    }

    /// Asks the adversary for the next process; returns its slot in the
    /// view along with its pid.
    fn choose_process(&mut self) -> Result<(usize, ProcessId), RunError> {
        debug_assert!(!self.pending_buf.is_empty(), "no live processes");
        debug_assert_eq!(
            self.adversary.capability(),
            self.capability,
            "an adversary's capability is constant"
        );
        let view = View {
            step: self.step,
            n: self.procs.len(),
            pending: &self.pending_buf,
            memory: visible_memory(self.capability, &self.memory),
        };
        let pid = self.adversary.choose(&view);
        // A halted pid's slot is stale: it is accepted only while the entry
        // there is the pid's own.
        match self.slots.get(pid.index()) {
            Some(&slot) if self.pending_buf.get(slot).is_some_and(|p| p.pid == pid) => {
                Ok((slot, pid))
            }
            _ => Err(RunError::AdversaryChoseInvalid { pid }),
        }
    }
}

/// The register file as an adversary of `capability` may see it:
/// location-oblivious and adaptive adversaries read memory, oblivious and
/// value-oblivious ones do not (§2.1).
pub fn visible_memory(capability: Capability, memory: &Memory) -> Option<&Memory> {
    match capability {
        Capability::LocationOblivious | Capability::Adaptive => Some(memory),
        Capability::Oblivious | Capability::ValueOblivious => None,
    }
}

/// Charges one performed operation to `pid`: a unit of its work, a
/// probabilistic write's attempt (and landing, if `observed` says it
/// landed), and, if a trace is kept, the event at `*step`, which then
/// advances. `observed` is what [`Memory::perform`] returned for `op`.
///
/// Public so the lab's controller charges its steps by the engine's rule.
pub fn charge_step(
    metrics: &mut WorkMetrics,
    trace: Option<&mut Trace>,
    step: &mut u64,
    pid: ProcessId,
    op: Op,
    observed: RegContents,
) {
    metrics.per_process[pid.index()] += 1;
    if let Op::ProbWrite { .. } = op {
        metrics.prob_writes_attempted += 1;
        metrics.prob_writes_performed += u64::from(observed == Some(1));
    }
    if let Some(trace) = trace {
        trace.push(Event {
            step: *step,
            pid,
            op,
            observed,
        });
    }
    *step += 1;
}

/// Builds the view of one pending operation permitted to `capability`.
///
/// Public so other execution substrates (notably `mc-lab`'s cooperative
/// scheduler over the real runtime) present adversaries with views built by
/// the same censoring rules the engine uses.
pub fn observe_pending(
    pid: ProcessId,
    ops_done: u64,
    op: &Op,
    capability: Capability,
) -> PendingInfo {
    let mut info = PendingInfo {
        pid,
        ops_done,
        kind: None,
        reg: None,
        value: None,
        prob: None,
    };
    match capability {
        Capability::Oblivious => {}
        Capability::ValueOblivious => {
            info.kind = Some(op.kind());
            info.reg = Some(op.register());
        }
        Capability::LocationOblivious => {
            info.kind = Some(op.kind());
            // Write locations are indistinguishable to this class.
            if matches!(op.kind(), OpKind::Read | OpKind::Collect) {
                info.reg = Some(op.register());
            }
            info.value = op.written_value();
            if let Op::ProbWrite { prob, .. } = op {
                info.prob = Some(prob.get());
            }
        }
        Capability::Adaptive => {
            info.kind = Some(op.kind());
            info.reg = Some(op.register());
            info.value = op.written_value();
            if let Op::ProbWrite { prob, .. } = op {
                info.prob = Some(prob.get());
            }
        }
    }
    info
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::RoundRobin;
    use crate::testutil::{CollectOnceSpec, WriteThenReadSpec};

    #[test]
    fn write_then_read_completes_under_round_robin() {
        let mut adv = RoundRobin::new();
        let engine = Engine::new(
            &WriteThenReadSpec,
            &[5, 6],
            &mut adv,
            1,
            EngineConfig::default(),
        );
        let out = engine.run().unwrap();
        assert_eq!(out.outputs.len(), 2);
        // Round-robin: p0 writes, p1 writes, p0 reads (sees p1's or own
        // write on register 0: last write wins, so both read 6? p0 and p1
        // write to the same register; the last write was p1's).
        assert_eq!(out.metrics.total_work(), 4);
        assert_eq!(out.metrics.individual_work(), 2);
    }

    #[test]
    fn step_limit_enforced() {
        let mut adv = RoundRobin::new();
        let engine = Engine::new(
            &crate::testutil::SpinSpec,
            &[0],
            &mut adv,
            1,
            EngineConfig::default().with_max_steps(10),
        );
        let err = engine.run().unwrap_err();
        assert_eq!(err, RunError::StepLimitExceeded { limit: 10 });
    }

    #[test]
    fn collect_rejected_outside_cheap_collect_model() {
        let mut adv = RoundRobin::new();
        let mut engine = Engine::new(
            &CollectOnceSpec,
            &[1, 2],
            &mut adv,
            1,
            EngineConfig::default(),
        );
        // Both processes write, then each one's collect is refused.
        engine.step().unwrap();
        engine.step().unwrap();
        let view = engine.pending_buf.clone();
        for _ in 0..2 {
            let err = engine.step().unwrap_err();
            assert!(matches!(err, RunError::CollectDisallowed { .. }));
            // The refused op was not consumed: both processes are still
            // pending and the adversary's view is what it was.
            assert!(engine.procs.iter().all(|p| p.pending.is_some()));
            assert_eq!(engine.pending_buf, view);
            assert!(!engine.is_complete());
        }
    }

    /// Plays the given picks in order, whether or not they are live.
    struct Picks(Vec<ProcessId>);

    impl Adversary for Picks {
        fn capability(&self) -> Capability {
            Capability::Oblivious
        }

        fn choose(&mut self, _view: &View<'_>) -> ProcessId {
            self.0.remove(0)
        }
    }

    #[test]
    fn invalid_picks_are_refused_and_leave_the_view_as_it_was() {
        // p0 writes, reads and halts, so its old slot 0 now holds p1.
        let mut adv = Picks([0, 0, 0, 3, 1].map(ProcessId).to_vec());
        let mut engine = Engine::new(
            &WriteThenReadSpec,
            &[5, 6, 7],
            &mut adv,
            1,
            EngineConfig::default(),
        );
        engine.step().unwrap();
        engine.step().unwrap();
        assert_eq!(engine.slots[1], 0);
        let view = engine.pending_buf.clone();
        // A halted pid whose stale slot holds a live one, then a pid ≥ n.
        for pid in [ProcessId(0), ProcessId(3)] {
            assert_eq!(engine.step(), Err(RunError::AdversaryChoseInvalid { pid }));
            assert_eq!(engine.pending_buf, view);
            assert_eq!(engine.step, 2);
        }
        // The next pick steps the process it names, not a neighbour.
        engine.step().unwrap();
        assert_eq!(engine.metrics.per_process, [2, 1, 0]);
    }

    #[test]
    fn collect_allowed_in_cheap_collect_model() {
        let mut adv = RoundRobin::new();
        let engine = Engine::new(
            &CollectOnceSpec,
            &[1, 2],
            &mut adv,
            1,
            EngineConfig::default().with_cheap_collect(),
        );
        let out = engine.run().unwrap();
        assert_eq!(out.outputs.len(), 2);
    }

    #[test]
    fn trace_recording() {
        let mut adv = RoundRobin::new();
        let engine = Engine::new(
            &WriteThenReadSpec,
            &[5, 6],
            &mut adv,
            1,
            EngineConfig::default().with_trace(),
        );
        let out = engine.run().unwrap();
        let trace = out.trace.unwrap();
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.events()[0].pid, ProcessId(0));
    }

    #[test]
    fn identical_seeds_reproduce_runs() {
        let run = |seed| {
            let mut adv = RoundRobin::new();
            Engine::new(
                &mc_core::LocalCoin,
                &[0, 0, 0, 0],
                &mut adv,
                seed,
                EngineConfig::default(),
            )
            .run()
            .unwrap()
            .outputs
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn different_process_streams_differ() {
        // With the local coin every process halts with its own coin flip; over
        // 16 processes the flips should not all match (probability 2^-15 per
        // seed; seed chosen to pass).
        let mut adv = RoundRobin::new();
        let out = Engine::new(
            &mc_core::LocalCoin,
            &[0; 16],
            &mut adv,
            3,
            EngineConfig::default(),
        )
        .run()
        .unwrap();
        let values: Vec<u64> = out.outputs.iter().map(|d| d.value()).collect();
        assert!(values.iter().any(|&v| v != values[0]), "{values:?}");
    }
}
