//! The cooperative scheduling controller and the instrumented
//! [`SharedMemory`] backend.
//!
//! Every register operation the runtime performs on a [`LabRegister`] is a
//! yield point: the calling thread posts the operation and blocks until the
//! controller grants it. The controller grants only when *every* unfinished
//! thread has posted — at that point the full set of pending operations is
//! known, an [`Adversary`] picks one, and exactly that thread proceeds. The
//! result is a real-thread execution whose interleaving is a pure function
//! of the adversary and its seed, with the same rendezvous structure as
//! `mc-sim`'s engine loop.

use std::cell::Cell;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use mc_check::PathEvent;
use mc_model::{Op, ProcessId, RegisterId};
use mc_runtime::{SharedMemory, SharedRegister};
use mc_sim::{observe_pending, Adversary, Capability, Event, Memory, Trace, View, WorkMetrics};
use rand::{Rng, RngExt};

thread_local! {
    static CURRENT_PID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Payload of the panic used to unwind a worker thread the lab will never
/// schedule again (crashed, or the run terminated). Private: the harness
/// catches it; anything else propagates as a real failure.
pub(crate) struct Interrupted;

pub(crate) fn set_current_pid(pid: Option<usize>) {
    CURRENT_PID.with(|c| c.set(pid));
}

fn current_pid() -> usize {
    CURRENT_PID.with(|c| c.get()).expect(
        "lab register used outside a lab worker thread; \
         run the algorithm through Lab::run",
    )
}

/// Why a lab run could not be completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabError {
    /// The configured step limit was reached before the survivors halted.
    StepLimitExceeded {
        /// The limit that was hit.
        limit: u64,
    },
    /// The adversary chose a process with no pending operation.
    AdversaryChoseInvalid {
        /// The invalid choice.
        pid: ProcessId,
    },
}

impl fmt::Display for LabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabError::StepLimitExceeded { limit } => {
                write!(f, "lab run exceeded the step limit of {limit}")
            }
            LabError::AdversaryChoseInvalid { pid } => {
                write!(f, "adversary chose process {pid} with no pending operation")
            }
        }
    }
}

impl Error for LabError {}

struct LabState {
    adversary: Box<dyn Adversary + Send>,
    /// Posted-but-not-executed operation per process.
    pending: Vec<Option<Op>>,
    ops_done: Vec<u64>,
    finished: Vec<bool>,
    doomed: Vec<bool>,
    /// The process currently allowed to execute its pending operation.
    granted: Option<usize>,
    /// Mirror register file: ops apply here under the lock, giving the
    /// interleaving semantics of the model (and adversary memory views).
    memory: Memory,
    next_reg: u64,
    step: u64,
    unfinished: usize,
    metrics: WorkMetrics,
    trace: Trace,
    path: Vec<PathEvent>,
    /// Scripted coin outcomes for counterexample replay: while non-empty,
    /// each genuinely probabilistic write (`0 < p < 1`) pops its outcome
    /// from here instead of drawing from the worker's rng.
    forced_coins: VecDeque<bool>,
    terminated: bool,
    error: Option<LabError>,
}

impl LabState {
    /// The state a run starts from, over a register file whose next id is
    /// `next_reg` (and whose allocation count the run starts charged with).
    fn fresh(
        n: usize,
        adversary: Box<dyn Adversary + Send>,
        doomed_pids: &[ProcessId],
        next_reg: u64,
    ) -> LabState {
        let mut doomed = vec![false; n];
        for pid in doomed_pids {
            doomed[pid.index()] = true;
        }
        let mut metrics = WorkMetrics::new(n);
        metrics.registers_allocated = next_reg;
        LabState {
            adversary,
            pending: vec![None; n],
            ops_done: vec![0; n],
            finished: vec![false; n],
            doomed,
            granted: None,
            memory: Memory::new(),
            next_reg,
            step: 0,
            unfinished: n,
            metrics,
            trace: Trace::new(),
            path: Vec::new(),
            forced_coins: VecDeque::new(),
            terminated: false,
            error: None,
        }
    }
}

/// Serializes every register operation of a lab run and delegates each
/// scheduling choice to the adversary.
pub(crate) struct LabController {
    n: usize,
    max_steps: u64,
    state: Mutex<LabState>,
    cv: Condvar,
}

impl LabController {
    pub(crate) fn new(
        n: usize,
        adversary: Box<dyn Adversary + Send>,
        doomed_pids: &[ProcessId],
        max_steps: u64,
    ) -> Arc<LabController> {
        assert!(n > 0, "need at least one process");
        Arc::new(LabController {
            n,
            max_steps,
            state: Mutex::new(LabState::fresh(n, adversary, doomed_pids, 0)),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn n(&self) -> usize {
        self.n
    }

    fn lock(&self) -> MutexGuard<'_, LabState> {
        // A worker that panics mid-operation poisons the mutex; the state is
        // still consistent (every mutation completes under one lock hold),
        // so recover and keep going.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn alloc(&self) -> RegisterId {
        let mut state = self.lock();
        let id = RegisterId(state.next_reg);
        state.next_reg += 1;
        state.metrics.registers_allocated = state.next_reg;
        id
    }

    /// Clears a retired register's mirror cell. Like allocation, retirement
    /// is not an operation in the model (it happens between instances, with
    /// exclusive access to the register), so it does not yield.
    pub(crate) fn retire(&self, reg: RegisterId) {
        let mut state = self.lock();
        state.memory.clear_register(reg);
    }

    /// Rearms the controller for a fresh run ("epoch") over the *same*
    /// register file; see [`Lab::reset_epoch`](crate::Lab::reset_epoch).
    /// The fresh epoch's `registers_allocated` is pre-charged with the
    /// existing high-water mark: a recycled run materializes no new
    /// registers, and this is exactly the count a fresh-object run at the
    /// same (adversary, seed) reports after its own allocations.
    ///
    /// # Panics
    ///
    /// Panics if called while a run is in progress.
    pub(crate) fn reset_epoch(
        &self,
        adversary: Box<dyn Adversary + Send>,
        doomed_pids: &[ProcessId],
    ) {
        let mut state = self.lock();
        assert!(
            state.pending.iter().all(Option::is_none) && state.granted.is_none(),
            "reset_epoch during a run"
        );
        let next_reg = state.next_reg;
        *state = LabState::fresh(self.n, adversary, doomed_pids, next_reg);
    }

    /// Queues coin outcomes for replay; consumed in schedule order by the
    /// probabilistic writes of the next run. Exhausting the queue falls
    /// back to the worker's rng (mirroring [`ScriptedAdversary`]'s
    /// round-robin fallback past the end of its schedule).
    ///
    /// [`ScriptedAdversary`]: mc_sim::adversary::ScriptedAdversary
    pub(crate) fn force_coins(&self, coins: impl IntoIterator<Item = bool>) {
        let mut state = self.lock();
        state.forced_coins.extend(coins);
    }

    /// Posts `op` for the calling worker, waits until the adversary grants
    /// it, executes it against the mirror memory, and returns what it
    /// observed, as the trace records it: a read's contents, a
    /// probabilistic write's coin (1 if it landed), nothing for a write.
    pub(crate) fn perform(&self, op: Op, rng: Option<&mut dyn Rng>) -> Option<u64> {
        let pid = current_pid();
        let mut guard = self.lock();
        debug_assert!(guard.pending[pid].is_none(), "one pending op per process");
        guard.pending[pid] = Some(op);
        self.maybe_schedule(&mut guard);
        loop {
            if guard.terminated {
                drop(guard);
                std::panic::panic_any(Interrupted);
            }
            if guard.granted == Some(pid) {
                break;
            }
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        let state = &mut *guard;
        state.granted = None;
        let op = state.pending[pid]
            .take()
            .expect("granted process has an op");
        let observed = match &op {
            Op::Read(reg) => state.memory.read(*reg),
            Op::Write { reg, value } => {
                state.memory.write(*reg, *value);
                None
            }
            Op::ProbWrite { reg, value, prob } => {
                // The adversary committed to this operation before the coin
                // resolves — the probabilistic-write guarantee. One
                // `random_bool` per attempt, exactly like the engine, so
                // coin streams stay aligned across substrates. A replay
                // script pre-empts the rng for genuinely random outcomes
                // only; degenerate probabilities keep drawing so streams
                // stay aligned with the engine's.
                let p = prob.get();
                let random = p > 0.0 && p < 1.0;
                let scripted = random.then(|| state.forced_coins.pop_front()).flatten();
                let performed = match scripted {
                    Some(forced) => forced,
                    None => {
                        let rng = rng.expect("probabilistic write carries the caller's rng");
                        rng.random_bool(p)
                    }
                };
                state.metrics.prob_writes_attempted += 1;
                if performed {
                    state.memory.write(*reg, *value);
                    state.metrics.prob_writes_performed += 1;
                }
                // mc-check's replay vocabulary: a coin event follows the
                // schedule event only when the outcome is genuinely random.
                if random {
                    state.path.push(PathEvent::Coin(performed));
                }
                Some(u64::from(performed))
            }
            Op::Collect { .. } => unreachable!("runtime objects never issue collects"),
        };
        state.trace.push(Event {
            step: state.step,
            pid: ProcessId(pid),
            op,
            observed,
        });
        state.ops_done[pid] += 1;
        state.metrics.per_process[pid] += 1;
        state.step += 1;
        observed
    }

    /// Marks the calling worker finished and hands control onward.
    pub(crate) fn finish(&self, pid: usize) {
        let mut guard = self.lock();
        debug_assert!(!guard.finished[pid]);
        guard.finished[pid] = true;
        guard.unfinished -= 1;
        let survivors_done = guard
            .finished
            .iter()
            .zip(&guard.doomed)
            .all(|(&fin, &doom)| fin || doom);
        if survivors_done {
            // Wait-freedom delivered everything it promises: remaining
            // (doomed) workers unwind without ever being scheduled again.
            guard.terminated = true;
            self.cv.notify_all();
        } else {
            self.maybe_schedule(&mut guard);
        }
    }

    /// Terminates the run from a worker that failed for a real reason
    /// (non-`Interrupted` panic), so peers blocked in the rendezvous unwind
    /// instead of deadlocking.
    pub(crate) fn abort(&self) {
        let mut guard = self.lock();
        guard.terminated = true;
        self.cv.notify_all();
    }

    /// If every unfinished worker has posted, lets the adversary pick the
    /// next operation and wakes its owner.
    fn maybe_schedule(&self, guard: &mut MutexGuard<'_, LabState>) {
        let state = &mut **guard;
        if state.terminated || state.granted.is_some() {
            return;
        }
        let posted = state.pending.iter().filter(|p| p.is_some()).count();
        if posted < state.unfinished || posted == 0 {
            return;
        }
        if state.step >= self.max_steps {
            state.error = Some(LabError::StepLimitExceeded {
                limit: self.max_steps,
            });
            state.terminated = true;
            self.cv.notify_all();
            return;
        }
        let LabState {
            adversary,
            pending,
            ops_done,
            memory,
            step,
            path,
            granted,
            error,
            terminated,
            ..
        } = state;
        let capability = adversary.capability();
        let mut infos = Vec::with_capacity(posted);
        for (ix, slot) in pending.iter().enumerate() {
            if let Some(op) = slot {
                infos.push(observe_pending(ProcessId(ix), ops_done[ix], op, capability));
            }
        }
        let view = View {
            step: *step,
            n: self.n,
            pending: &infos,
            memory: matches!(
                capability,
                Capability::LocationOblivious | Capability::Adaptive
            )
            .then_some(&*memory),
        };
        let pid = adversary.choose(&view);
        if pending.get(pid.index()).map(Option::is_some) != Some(true) {
            *error = Some(LabError::AdversaryChoseInvalid { pid });
            *terminated = true;
            self.cv.notify_all();
            return;
        }
        path.push(PathEvent::Sched(pid));
        *granted = Some(pid.index());
        self.cv.notify_all();
    }

    /// Final accounting, taken after every worker has returned.
    pub(crate) fn take_results(&self) -> (WorkMetrics, Trace, Vec<PathEvent>, Option<LabError>) {
        let mut state = self.lock();
        state.metrics.registers_touched = state.memory.touched() as u64;
        let metrics = std::mem::replace(&mut state.metrics, WorkMetrics::new(self.n));
        let trace = std::mem::replace(&mut state.trace, Trace::new());
        let path = std::mem::take(&mut state.path);
        (metrics, trace, path, state.error.clone())
    }
}

impl fmt::Debug for LabController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LabController")
            .field("n", &self.n)
            .field("max_steps", &self.max_steps)
            .finish()
    }
}

/// The instrumented register substrate: plugs into any `mc-runtime` object
/// through its builder's `memory` call, turning every register operation
/// into a controller yield point.
#[derive(Clone, Debug)]
pub struct LabMemory {
    ctrl: Arc<LabController>,
}

impl LabMemory {
    pub(crate) fn new(ctrl: Arc<LabController>) -> LabMemory {
        LabMemory { ctrl }
    }
}

impl SharedMemory for LabMemory {
    type Reg = LabRegister;

    fn alloc_in_generation(&self, generation: u64) -> LabRegister {
        // Allocation is not an operation in the model (BlockAlloc just
        // bumps a counter), so it does not yield; it only claims the next
        // sequential id — the same ids the model's allocator hands out.
        LabRegister {
            ctrl: Arc::clone(&self.ctrl),
            reg: self.ctrl.alloc(),
            generation,
        }
    }
}

/// One lab register: every access is scheduled by the adversary.
#[derive(Debug)]
pub struct LabRegister {
    ctrl: Arc<LabController>,
    reg: RegisterId,
    /// Pool generation ([`SharedRegister::generation`]). The mirror cell is
    /// physically cleared on [`retire_to`](SharedRegister::retire_to), so
    /// stale-read masking needs no tag check here; the field only carries
    /// the recycle count for the pooling layer.
    generation: u64,
}

impl SharedRegister for LabRegister {
    fn generation(&self) -> u64 {
        self.generation
    }

    fn retire_to(&mut self, generation: u64) {
        debug_assert!(
            generation > self.generation,
            "generation must strictly increase on retire ({} -> {generation})",
            self.generation
        );
        // Exclusive access means no operation on this register is pending;
        // clearing the mirror makes the recycled register read as ⊥ — an
        // initial read — exactly like a fresh allocation.
        self.ctrl.retire(self.reg);
        self.generation = generation;
    }

    fn read(&self) -> Option<u64> {
        self.ctrl.perform(Op::Read(self.reg), None)
    }

    fn write(&self, value: u64) {
        let reg = self.reg;
        self.ctrl.perform(Op::Write { reg, value }, None);
    }

    fn prob_write(&self, value: u64, prob: mc_model::Probability, rng: &mut dyn Rng) -> bool {
        let reg = self.reg;
        self.ctrl
            .perform(Op::ProbWrite { reg, value, prob }, Some(rng))
            == Some(1)
    }
}
