//! Register-level fault injection: a [`SharedMemory`] layer that wraps any
//! substrate and delivers seeded, deterministic memory faults.
//!
//! The paper's guarantees are proved over perfectly atomic registers.
//! [`FaultyMemory`] interposes between an algorithm and its real substrate
//! ([`AtomicMemory`](crate::AtomicMemory) or `mc-lab`'s `LabMemory`) and
//! injects four configurable fault classes:
//!
//! * **Lost probabilistic writes** — the coin fires per the
//!   `WriteSchedule`, but the store never lands (a dropped
//!   probabilistic-write in the Chor–Israeli–Li model).
//! * **Stale reads** — regular-register semantics in the sense of
//!   Hadzilacos–Hu–Toueg: a read *concurrent with a write* may return the
//!   register's previous value. A write completes by its writer's next
//!   invocation, stamped before that operation reaches the substrate, and
//!   only a read invoked before that stamp may miss it: a write that
//!   completed before a read began is always observed — exactly the
//!   regularity condition, and why the ratifier's safety survives this class.
//! * **Delayed visibility** — a write commits up to `k` operations late:
//!   until the window expires, every other process whose read overlaps
//!   the write (as above) still observes the previous value.
//! * **Register reset** — a crash-recovery wipe back to ⊥. By default
//!   ([`ResetScope::ConciliatorOnly`]) only registers that have received a
//!   probabilistic write (conciliator registers) are eligible: wiping a
//!   conciliator register destroys agreement *progress* (a δ/liveness
//!   hit), while wiping ratifier bookkeeping could forge agreement
//!   detection and violate coherence — [`ResetScope::AllRegisters`] exists
//!   precisely to demonstrate that negative control.
//!
//! Fault decisions come from the plan's own seeded stream and **never
//! consume the caller's rng**, so the one-coin-per-probabilistic-write
//! discipline that aligns sim/lab/runtime coin streams is preserved. With
//! an empty plan the layer is pure passthrough: one branch per operation,
//! no locks, no allocation — conformance-identical to the bare substrate.
//!
//! Every fault decision is taken after the substrate performs the
//! operation, so under `mc-lab` it falls in the calling thread's exclusive
//! window between its grant and its next operation — on its first
//! operation too — and a lab run with faults is still a pure function of
//! (adversary, seed, plan). Before the operation the layer only stamps the
//! invocation, which on a first operation races but changes no decision.
//! The one decision that must precede the operation is whether a
//! probabilistic write is lost (a lost write never reaches the substrate);
//! no protocol opens with a probabilistic write, since every conciliator
//! reads before its first one, so that decision, too, follows a grant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::ThreadId;

use mc_model::Probability;
use mc_telemetry::FaultClass;
use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::register::{SharedMemory, SharedRegister};
use crate::telemetry::RuntimeTelemetry;

/// Which registers a [`FaultClass::RegisterReset`] may target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResetScope {
    /// Only registers that have received a probabilistic write — i.e.
    /// conciliator registers. Wipes then cost agreement progress (δ and
    /// round counts degrade) but cannot break ratifier safety.
    #[default]
    ConciliatorOnly,
    /// Any allocated register, including ratifier announcement pools and
    /// proposal registers. **This can violate coherence** — a wiped
    /// announcement lets two ratifier callers miss each other — and is
    /// provided as a negative control, not as part of the safe sweep.
    AllRegisters,
}

/// A seeded, deterministic fault schedule for [`FaultyMemory`].
///
/// Rates are per-operation probabilities in `[0, 1]`, drawn from the
/// plan's own `SmallRng` stream (never from the algorithm's rng). An
/// all-zero plan ([`FaultPlan::none`]) makes the layer pure passthrough.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault-decision stream.
    pub seed: u64,
    /// Probability that a probabilistic write's store is dropped.
    pub lost_prob_write: f64,
    /// Probability that a read inside a write's visibility window returns
    /// the previous value.
    pub stale_read: f64,
    /// Probability that a write's visibility is delayed.
    pub delayed_visibility: f64,
    /// Maximum lateness of a delayed write, in layer operations.
    pub delay_ops: u64,
    /// Per-operation probability of a register reset.
    pub register_reset: f64,
    /// Which registers resets may target.
    pub reset_scope: ResetScope,
}

impl FaultPlan {
    /// The empty plan: no faults, pure passthrough.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            lost_prob_write: 0.0,
            stale_read: 0.0,
            delayed_visibility: 0.0,
            delay_ops: 3,
            register_reset: 0.0,
            reset_scope: ResetScope::ConciliatorOnly,
        }
    }

    /// An empty plan carrying a decision-stream seed, ready for the
    /// builder methods below.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Sets the lost-probabilistic-write rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    #[must_use]
    pub fn lost_prob_writes(mut self, rate: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.lost_prob_write = rate;
        self
    }

    /// Sets the stale-read rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    #[must_use]
    pub fn stale_reads(mut self, rate: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.stale_read = rate;
        self
    }

    /// Sets the delayed-visibility rate and the maximum delay in layer
    /// operations.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]` or `delay_ops` is zero.
    #[must_use]
    pub fn delayed_writes(mut self, rate: f64, delay_ops: u64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        assert!(delay_ops > 0, "a delay of zero operations is no delay");
        self.delayed_visibility = rate;
        self.delay_ops = delay_ops;
        self
    }

    /// Sets the register-reset rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    #[must_use]
    pub fn register_resets(mut self, rate: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.register_reset = rate;
        self
    }

    /// Sets which registers resets may target.
    #[must_use]
    pub fn reset_scope(mut self, scope: ResetScope) -> FaultPlan {
        self.reset_scope = scope;
        self
    }

    /// Whether this plan injects nothing (the passthrough fast path).
    pub fn is_empty(&self) -> bool {
        self.lost_prob_write == 0.0
            && self.stale_read == 0.0
            && self.delayed_visibility == 0.0
            && self.register_reset == 0.0
    }
}

/// Counts of faults delivered so far, by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Probabilistic writes whose coin fired but whose store was dropped.
    pub lost_prob_writes: u64,
    /// Reads that returned a stale (previous) value.
    pub stale_reads: u64,
    /// Writes whose visibility was delayed.
    pub delayed_commits: u64,
    /// Registers wiped back to ⊥.
    pub register_resets: u64,
}

impl FaultCounts {
    /// Total faults delivered across all classes.
    pub fn total(&self) -> u64 {
        self.lost_prob_writes + self.stale_reads + self.delayed_commits + self.register_resets
    }
}

/// A visibility window: the most recent write to a register, which reads
/// invoked before its writer moved on to its next operation may still miss.
struct Window {
    writer: ThreadId,
    prev: Option<u64>,
    /// Invocation stamp of the writer's next operation, once it has begun.
    /// The write's response falls no later than that invocation, so only a
    /// read invoked earlier overlaps the write and may miss it.
    closed_at: Option<u64>,
    /// For delayed-visibility windows: the layer-operation count at which
    /// the write commits regardless of the writer's progress.
    expires_at: Option<u64>,
    /// Delayed windows hide the new value from every other process;
    /// stale windows only do so when the per-read coin fires.
    delayed: bool,
}

impl Window {
    /// Whether a read by `reader`, invoked at `stamp`, overlaps this write.
    /// A writer always observes its own write.
    fn overlaps(&self, reader: ThreadId, stamp: u64) -> bool {
        self.writer != reader && self.closed_at.is_none_or(|c| stamp < c)
    }
}

#[derive(Default)]
struct RegState {
    /// Mirror of the last value routed through the layer (⊥ = `None`).
    cur: Option<u64>,
    window: Option<Window>,
    /// Overridden to ⊥ until the next write (a pending crash wipe).
    reset: bool,
    /// Has this register ever received a probabilistic write?
    prob_target: bool,
}

struct FaultState {
    rng: SmallRng,
    /// Layer operation counter ("step" in fault events).
    ops: u64,
    /// Operation invocation counter: each operation takes the next stamp
    /// before it reaches the substrate.
    invoked: u64,
    /// Stamps of the operations invoked and not yet returned.
    in_flight: Vec<u64>,
    regs: Vec<RegState>,
    /// Indices of registers with a window (kept tiny: a window is dropped
    /// once no operation in flight overlaps it).
    open_windows: Vec<usize>,
    /// Indices eligible for resets under [`ResetScope::ConciliatorOnly`].
    prob_targets: Vec<usize>,
}

/// State shared by a [`FaultyMemory`] and all registers it allocates.
struct FaultShared {
    plan: FaultPlan,
    state: Mutex<FaultState>,
    telemetry: OnceLock<Arc<RuntimeTelemetry>>,
    lost_prob_writes: AtomicU64,
    stale_reads: AtomicU64,
    delayed_commits: AtomicU64,
    register_resets: AtomicU64,
}

impl FaultShared {
    fn lock(&self) -> MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one delivered fault: local counters always, telemetry when
    /// attached. Called outside the state lock.
    fn deliver(&self, class: FaultClass, register: u64, step: u64) {
        let counter = match class {
            FaultClass::LostProbWrite => &self.lost_prob_writes,
            FaultClass::StaleRead => &self.stale_reads,
            FaultClass::DelayedVisibility => &self.delayed_commits,
            FaultClass::RegisterReset => &self.register_resets,
        };
        // Relaxed: each counter is a standalone tally that publishes no
        // other memory, and the state lock already orders the decisions
        // themselves. A reader wanting every fault of a run reads after
        // joining the run's threads, and the join is its happens-before
        // edge.
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(telemetry) = self.telemetry.get() {
            telemetry.on_fault_injected(class, register, step);
        }
    }
}

impl FaultState {
    /// Stamps an operation of the calling thread before it reaches the
    /// substrate. The caller is moving on, so its previous write has
    /// completed: its windows close to every read invoked from now on.
    /// Under the lab, only first operations race here; they close no
    /// window, and their stamps are below every stamp taken after a grant,
    /// which is all a stamp is ever compared with.
    fn invoke(&mut self, me: ThreadId) -> u64 {
        self.invoked += 1;
        let stamp = self.invoked;
        for &ri in &self.open_windows {
            if let Some(w) = &mut self.regs[ri].window {
                if w.writer == me && w.closed_at.is_none() {
                    w.closed_at = Some(stamp);
                }
            }
        }
        self.in_flight.push(stamp);
        stamp
    }

    /// Advances the layer clock as the operation invoked at `stamp`
    /// returns, and drops every window past its delay bound or closed
    /// before the oldest operation in flight (this one included) was
    /// invoked: no read, present or future, overlaps it.
    fn tick(&mut self, stamp: u64) -> u64 {
        self.ops += 1;
        let now = self.ops;
        let oldest = self.in_flight.iter().copied().min().unwrap_or(stamp);
        if let Some(i) = self.in_flight.iter().position(|&s| s == stamp) {
            self.in_flight.swap_remove(i);
        }
        let regs = &mut self.regs;
        self.open_windows.retain(|&ri| {
            let shut = match &regs[ri].window {
                Some(w) => {
                    w.expires_at.is_some_and(|e| now >= e)
                        || w.closed_at.is_some_and(|c| c <= oldest)
                }
                None => true,
            };
            if shut {
                regs[ri].window = None;
            }
            !shut
        });
        now
    }

    /// Draws the per-operation reset decision; returns the wiped register
    /// index if a reset fired.
    fn maybe_reset(&mut self, plan: &FaultPlan) -> Option<usize> {
        if plan.register_reset == 0.0 || !self.rng.random_bool(plan.register_reset) {
            return None;
        }
        let victim = match plan.reset_scope {
            ResetScope::ConciliatorOnly => {
                if self.prob_targets.is_empty() {
                    return None;
                }
                self.prob_targets[(self.rng.next_u64() % self.prob_targets.len() as u64) as usize]
            }
            ResetScope::AllRegisters => {
                if self.regs.is_empty() {
                    return None;
                }
                (self.rng.next_u64() % self.regs.len() as u64) as usize
            }
        };
        let reg = &mut self.regs[victim];
        if reg.cur.is_none() && !reg.reset {
            // Wiping an empty register is a no-op; don't count it.
            return None;
        }
        reg.reset = true;
        reg.cur = None;
        if reg.window.is_some() {
            reg.window = None;
            self.open_windows.retain(|&ri| ri != victim);
        }
        Some(victim)
    }

    /// Records a write of `value` that has landed in register `index`'s
    /// substrate: it clears a pending wipe and replaces the register's
    /// window with a fresh one, delayed with the plan's probability.
    /// Returns whether the write was delayed.
    fn land(
        &mut self,
        plan: &FaultPlan,
        index: usize,
        writer: ThreadId,
        value: u64,
        now: u64,
    ) -> bool {
        let delayed =
            plan.delayed_visibility > 0.0 && self.rng.random_bool(plan.delayed_visibility);
        let reg = &mut self.regs[index];
        reg.reset = false;
        let prev = reg.cur.replace(value);
        let had_window = reg.window.is_some();
        reg.window = (delayed || plan.stale_read > 0.0).then(|| Window {
            writer,
            prev,
            closed_at: None,
            expires_at: delayed.then_some(now + plan.delay_ops),
            delayed,
        });
        match (had_window, reg.window.is_some()) {
            (false, true) => self.open_windows.push(index),
            (true, false) => self.open_windows.retain(|&ri| ri != index),
            _ => {}
        }
        delayed
    }
}

/// A fault-injecting [`SharedMemory`] layer over any substrate.
///
/// Composes over [`AtomicMemory`](crate::AtomicMemory) and `mc-lab`'s
/// `LabMemory` alike; pass it to a builder's `memory` call.
/// See [`FaultPlan`] for the fault model and DESIGN.md §7 for its safety
/// reasoning.
pub struct FaultyMemory<M: SharedMemory> {
    inner: M,
    shared: Option<Arc<FaultShared>>,
}

impl<M: SharedMemory> Clone for FaultyMemory<M> {
    fn clone(&self) -> Self {
        FaultyMemory {
            inner: self.inner.clone(),
            shared: self.shared.clone(),
        }
    }
}

impl<M: SharedMemory> std::fmt::Debug for FaultyMemory<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyMemory")
            .field("plan", &self.plan())
            .field("counts", &self.fault_counts())
            .finish()
    }
}

impl<M: SharedMemory> FaultyMemory<M> {
    /// Wraps `inner` under `plan`. An empty plan compiles down to pure
    /// passthrough (no shared state is even allocated).
    pub fn new(inner: M, plan: FaultPlan) -> FaultyMemory<M> {
        let shared = (!plan.is_empty()).then(|| {
            Arc::new(FaultShared {
                plan,
                state: Mutex::new(FaultState {
                    rng: SmallRng::seed_from_u64(plan.seed),
                    ops: 0,
                    invoked: 0,
                    in_flight: Vec::new(),
                    regs: Vec::new(),
                    open_windows: Vec::new(),
                    prob_targets: Vec::new(),
                }),
                telemetry: OnceLock::new(),
                lost_prob_writes: AtomicU64::new(0),
                stale_reads: AtomicU64::new(0),
                delayed_commits: AtomicU64::new(0),
                register_resets: AtomicU64::new(0),
            })
        });
        FaultyMemory { inner, shared }
    }

    /// Reports every delivered fault to `telemetry` (the `fault_injected`
    /// event stream plus the fault counters in its snapshot). May be set
    /// once; later calls are ignored.
    #[must_use]
    pub fn observed_by(self, telemetry: Arc<RuntimeTelemetry>) -> FaultyMemory<M> {
        if let Some(shared) = &self.shared {
            let _ = shared.telemetry.set(telemetry);
        }
        self
    }

    /// The active plan.
    pub fn plan(&self) -> FaultPlan {
        match &self.shared {
            Some(shared) => shared.plan,
            None => FaultPlan::none(),
        }
    }

    /// Faults delivered so far, by class. Shared across clones.
    pub fn fault_counts(&self) -> FaultCounts {
        // Relaxed, as in `FaultShared::deliver`: each load reads one tally
        // and synchronises with nothing. Read while the run's threads are
        // live, the four loads are not one snapshot (a class may lag
        // another by the faults in flight); read after joining them, the
        // counts are exact.
        match &self.shared {
            Some(s) => FaultCounts {
                lost_prob_writes: s.lost_prob_writes.load(Ordering::Relaxed),
                stale_reads: s.stale_reads.load(Ordering::Relaxed),
                delayed_commits: s.delayed_commits.load(Ordering::Relaxed),
                register_resets: s.register_resets.load(Ordering::Relaxed),
            },
            None => FaultCounts::default(),
        }
    }

    /// Total faults delivered so far.
    pub fn faults_injected(&self) -> u64 {
        self.fault_counts().total()
    }
}

impl<M: SharedMemory> SharedMemory for FaultyMemory<M> {
    type Reg = FaultyRegister<M::Reg>;

    fn alloc_in_generation(&self, generation: u64) -> FaultyRegister<M::Reg> {
        let index = match &self.shared {
            Some(shared) => {
                let mut state = shared.lock();
                state.regs.push(RegState::default());
                state.regs.len() - 1
            }
            None => 0,
        };
        FaultyRegister {
            inner: self.inner.alloc_in_generation(generation),
            shared: self.shared.clone(),
            index,
        }
    }

    fn retire_generation(&self, generation: u64) {
        self.inner.retire_generation(generation);
    }
}

/// One register of a [`FaultyMemory`]: passthrough to the wrapped
/// substrate's register, with each operation's invocation stamped before
/// it and its fault decisions drawn from the shared plan stream after it.
pub struct FaultyRegister<R: SharedRegister> {
    inner: R,
    shared: Option<Arc<FaultShared>>,
    index: usize,
}

impl<R: SharedRegister> std::fmt::Debug for FaultyRegister<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyRegister")
            .field("index", &self.index)
            .field("faulty", &self.shared.is_some())
            .finish()
    }
}

impl<R: SharedRegister> SharedRegister for FaultyRegister<R> {
    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn retire_to(&mut self, generation: u64) {
        // The fault layer's mirror state must forget the retired instance
        // too, or a recycled register could observe pre-retirement windows,
        // pending wipes, or reset eligibility a fresh register never has.
        if let Some(shared) = &self.shared {
            let mut state = shared.lock();
            let reg = &mut state.regs[self.index];
            reg.cur = None;
            reg.reset = false;
            if reg.window.is_some() {
                reg.window = None;
                let index = self.index;
                state.open_windows.retain(|&ri| ri != index);
            }
            if state.regs[self.index].prob_target {
                state.regs[self.index].prob_target = false;
                let index = self.index;
                state.prob_targets.retain(|&ri| ri != index);
            }
        }
        self.inner.retire_to(generation);
    }

    fn read(&self) -> Option<u64> {
        let Some(shared) = &self.shared else {
            return self.inner.read();
        };
        let me = std::thread::current().id();
        let stamp = shared.lock().invoke(me);
        // The substrate operation, then the decisions: under the lab they
        // fall in this thread's exclusive window after its grant, even on
        // its first operation, so faulted runs stay deterministic.
        let observed = self.inner.read();
        let mut faults: Vec<(FaultClass, u64)> = Vec::new();
        let (override_value, step): (Option<Option<u64>>, u64) = {
            let mut state = shared.lock();
            let now = state.tick(stamp);
            if let Some(victim) = state.maybe_reset(&shared.plan) {
                faults.push((FaultClass::RegisterReset, victim as u64));
            }
            let plan_stale = shared.plan.stale_read;
            let reg = &state.regs[self.index];
            let over = if reg.reset {
                Some(None)
            } else {
                match &reg.window {
                    Some(w) if w.overlaps(me, stamp) && w.delayed => Some(w.prev),
                    Some(w) if w.overlaps(me, stamp) && plan_stale > 0.0 => {
                        let prev = w.prev;
                        if state.rng.random_bool(plan_stale) {
                            faults.push((FaultClass::StaleRead, self.index as u64));
                            Some(prev)
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            };
            (over, now)
        };
        for (class, register) in faults {
            shared.deliver(class, register, step);
        }
        override_value.unwrap_or(observed)
    }

    fn write(&self, value: u64) {
        let Some(shared) = &self.shared else {
            return self.inner.write(value);
        };
        let me = std::thread::current().id();
        let stamp = shared.lock().invoke(me);
        self.inner.write(value);
        let mut faults: Vec<(FaultClass, u64)> = Vec::new();
        let step = {
            let mut state = shared.lock();
            let now = state.tick(stamp);
            if let Some(victim) = state.maybe_reset(&shared.plan) {
                faults.push((FaultClass::RegisterReset, victim as u64));
            }
            if state.land(&shared.plan, self.index, me, value, now) {
                faults.push((FaultClass::DelayedVisibility, self.index as u64));
            }
            now
        };
        for (class, register) in faults {
            shared.deliver(class, register, step);
        }
    }

    fn prob_write(&self, value: u64, prob: Probability, rng: &mut dyn Rng) -> bool {
        let Some(shared) = &self.shared else {
            return self.inner.prob_write(value, prob, rng);
        };
        let plan = shared.plan;
        let me = std::thread::current().id();
        // A lost write never reaches the substrate, so whether it is lost is
        // the one draw taken before the operation. Under the lab it falls in
        // the thread's exclusive window unless the thread opens with a
        // probabilistic write, which no protocol here does: every
        // conciliator reads before its first one.
        let (stamp, lose) = {
            let mut state = shared.lock();
            let stamp = state.invoke(me);
            let lose = plan.lost_prob_write > 0.0 && state.rng.random_bool(plan.lost_prob_write);
            (stamp, lose)
        };
        let fired = if lose {
            // The write fires per the schedule — one coin from the caller's
            // rng, exactly as the substrate would draw — but never lands.
            rng.random_bool(prob.get())
        } else {
            self.inner.prob_write(value, prob, rng)
        };
        let mut faults: Vec<(FaultClass, u64)> = Vec::new();
        let step = {
            let mut state = shared.lock();
            let now = state.tick(stamp);
            if let Some(victim) = state.maybe_reset(&plan) {
                faults.push((FaultClass::RegisterReset, victim as u64));
            }
            if !state.regs[self.index].prob_target {
                state.regs[self.index].prob_target = true;
                state.prob_targets.push(self.index);
            }
            if lose && fired {
                faults.push((FaultClass::LostProbWrite, self.index as u64));
            }
            // A landed probabilistic write is a write: it supersedes the
            // register's window and opens a fresh one.
            if !lose && fired && state.land(&plan, self.index, me, value, now) {
                faults.push((FaultClass::DelayedVisibility, self.index as u64));
            }
            now
        };
        for (class, register) in faults {
            shared.deliver(class, register, step);
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::register::AtomicMemory;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    #[test]
    fn empty_plan_is_pure_passthrough() {
        let mem = FaultyMemory::new(AtomicMemory, FaultPlan::none());
        let reg = mem.alloc();
        assert_eq!(reg.read(), None);
        reg.write(7);
        assert_eq!(reg.read(), Some(7));
        let mut a = SmallRng::seed_from_u64(3);
        let mut b = SmallRng::seed_from_u64(3);
        let bare = AtomicMemory.alloc();
        for _ in 0..50 {
            assert_eq!(
                reg.prob_write(9, p(0.5), &mut a),
                bare.prob_write(9, p(0.5), &mut b),
                "coin streams must stay aligned"
            );
        }
        assert_eq!(mem.faults_injected(), 0);
        assert_eq!(mem.fault_counts(), FaultCounts::default());
    }

    #[test]
    fn lost_prob_write_fires_but_never_lands() {
        let mem = FaultyMemory::new(AtomicMemory, FaultPlan::seeded(1).lost_prob_writes(1.0));
        let reg = mem.alloc();
        let mut rng = SmallRng::seed_from_u64(0);
        let fired = reg.prob_write(5, p(1.0), &mut rng);
        assert!(fired, "the schedule's coin fired");
        assert_eq!(reg.read(), None, "but the store was dropped");
        assert_eq!(mem.fault_counts().lost_prob_writes, 1);
    }

    #[test]
    fn lost_prob_write_consumes_exactly_one_coin() {
        let mem = FaultyMemory::new(AtomicMemory, FaultPlan::seeded(1).lost_prob_writes(1.0));
        let reg = mem.alloc();
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for _ in 0..100 {
            let fired = reg.prob_write(1, p(0.5), &mut a);
            assert_eq!(fired, b.random_bool(0.5));
        }
        assert_eq!(reg.read(), None);
    }

    #[test]
    fn writer_always_observes_its_own_write() {
        let mem = FaultyMemory::new(AtomicMemory, FaultPlan::seeded(2).stale_reads(1.0));
        let reg = mem.alloc();
        reg.write(4);
        // Same thread: the window belongs to this writer, so its next
        // operation closes it — never stale to itself.
        assert_eq!(reg.read(), Some(4));
        assert_eq!(mem.fault_counts().stale_reads, 0);
    }

    #[test]
    fn stale_read_returns_previous_value_inside_the_window() {
        let mem = FaultyMemory::new(AtomicMemory, FaultPlan::seeded(2).stale_reads(1.0));
        let mem2 = mem.clone();
        let reg = Arc::new(mem.alloc());
        let reg2 = Arc::clone(&reg);
        // Write from another thread that performs no further operation:
        // its visibility window stays open.
        std::thread::spawn(move || {
            let _keep_alive = mem2;
            reg2.write(11);
        })
        .join()
        .unwrap();
        assert_eq!(reg.read(), None, "stale read sees the pre-write ⊥");
        assert_eq!(mem.fault_counts().stale_reads, 1);
    }

    /// Atomic registers whose reads run an armed hook, once, right after
    /// the substrate read and before the fault layer sees it return.
    #[derive(Clone, Default)]
    struct HookedMemory(Arc<Mutex<Option<Hook>>>);
    type Hook = Box<dyn FnOnce() + Send>;

    struct HookedRegister(crate::register::AtomicRegister, HookedMemory);

    impl SharedMemory for HookedMemory {
        type Reg = HookedRegister;

        fn alloc_in_generation(&self, generation: u64) -> HookedRegister {
            HookedRegister(AtomicMemory.alloc_in_generation(generation), self.clone())
        }
    }

    impl SharedRegister for HookedRegister {
        fn read(&self) -> Option<u64> {
            let value = self.0.read();
            let hook = self.1 .0.lock().unwrap().take();
            if let Some(hook) = hook {
                hook();
            }
            value
        }

        fn write(&self, value: u64) {
            self.0.write(value);
        }

        fn prob_write(&self, value: u64, prob: Probability, rng: &mut dyn Rng) -> bool {
            self.0.prob_write(value, prob, rng)
        }

        fn retire_to(&mut self, generation: u64) {
            self.0.retire_to(generation);
        }
    }

    #[test]
    fn a_write_is_seen_once_its_writer_has_moved_on() {
        let substrate = HookedMemory::default();
        let mem = FaultyMemory::new(substrate.clone(), FaultPlan::seeded(2).stale_reads(1.0));
        let (x, y) = (Arc::new(mem.alloc()), mem.alloc());
        x.write(1);
        // Another thread reads `x` after this thread's next operation has
        // taken effect in the substrate, but before that operation returns
        // through the fault layer. The write to `x` completed before the
        // read began, so a regular register must return it.
        let (reader_x, seen) = (Arc::clone(&x), Arc::new(Mutex::new(None)));
        let reader_seen = Arc::clone(&seen);
        *substrate.0.lock().unwrap() = Some(Box::new(move || {
            *reader_seen.lock().unwrap() = std::thread::spawn(move || reader_x.read()).join().ok();
        }));
        assert_eq!(y.read(), None);
        assert_eq!(*seen.lock().unwrap(), Some(Some(1)));
        assert_eq!(mem.fault_counts().stale_reads, 0);
    }

    #[test]
    fn delayed_write_commits_after_the_window_expires() {
        let plan = FaultPlan::seeded(3).delayed_writes(1.0, 2);
        let mem = FaultyMemory::new(AtomicMemory, plan);
        let mem2 = mem.clone();
        let reg = Arc::new(mem.alloc());
        let reg2 = Arc::clone(&reg);
        std::thread::spawn(move || {
            let _keep_alive = mem2;
            reg2.write(8);
        })
        .join()
        .unwrap();
        // The write is op 1; its window expires at op 1 + 2 = 3.
        assert_eq!(reg.read(), None, "op 2: still hidden");
        assert_eq!(reg.read(), Some(8), "op 3: committed");
        assert_eq!(mem.fault_counts().delayed_commits, 1);
    }

    #[test]
    fn reset_targets_only_prob_written_registers_by_default() {
        let mem = FaultyMemory::new(AtomicMemory, FaultPlan::seeded(4).register_resets(1.0));
        let plain = mem.alloc();
        let conciliator = mem.alloc();
        plain.write(1);
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(conciliator.prob_write(6, p(1.0), &mut rng));
        assert_eq!(conciliator.read(), None, "wiped back to ⊥");
        assert!(mem.fault_counts().register_resets >= 1);
        // The plain register was never eligible.
        assert_eq!(plain.read(), Some(1));
        // A fresh write revives the wiped register.
        conciliator.write(9);
        let after_write = conciliator.read();
        // (The read may race another reset tick; either ⊥ or the new value,
        // never the pre-wipe 6.)
        assert_ne!(after_write, Some(6));
    }

    #[test]
    fn fault_stream_is_deterministic() {
        let run = || {
            let mem = FaultyMemory::new(
                AtomicMemory,
                FaultPlan::seeded(7)
                    .lost_prob_writes(0.3)
                    .stale_reads(0.3)
                    .delayed_writes(0.2, 2)
                    .register_resets(0.1),
            );
            let reg = mem.alloc();
            let mut rng = SmallRng::seed_from_u64(5);
            let mut observations = Vec::new();
            for i in 0..200u64 {
                match i % 3 {
                    0 => reg.write(i + 1),
                    1 => observations.push(reg.prob_write(i, p(0.5), &mut rng)),
                    _ => observations.push(reg.read().is_some()),
                }
            }
            (observations, mem.fault_counts())
        };
        let (obs_a, counts_a) = run();
        let (obs_b, counts_b) = run();
        assert_eq!(obs_a, obs_b);
        assert_eq!(counts_a, counts_b);
        assert!(counts_a.total() > 0, "the plan actually injected faults");
    }

    #[test]
    #[should_panic(expected = "rate must be in [0, 1]")]
    fn out_of_range_rate_rejected() {
        let _ = FaultPlan::seeded(0).stale_reads(1.5);
    }

    #[test]
    fn retired_faulty_register_reads_as_fresh() {
        let mem = FaultyMemory::new(AtomicMemory, FaultPlan::seeded(2).stale_reads(1.0));
        let mem2 = mem.clone();
        let mut reg = mem.alloc();
        reg.write(11);
        let mut conc = mem2.alloc();
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(conc.prob_write(6, p(1.0), &mut rng));
        reg.retire_to(1);
        conc.retire_to(1);
        // Both the substrate value and the fault layer's mirror (windows,
        // reset eligibility) are gone: the recycled registers are fresh.
        assert_eq!(reg.read(), None);
        assert_eq!(conc.read(), None);
        reg.write(3);
        assert_eq!(
            reg.read(),
            Some(3),
            "writer sees its own post-recycle write"
        );
    }
}
