//! Deterministic replay of a scripted execution path.
//!
//! The explorer cannot snapshot sessions (they are opaque state machines),
//! so it re-executes each path from scratch: a path is a sequence of
//! [`PathEvent`]s — scheduling choices and coin outcomes — and
//! [`run_path`] plays them against a fresh instance of the object,
//! returning either the final outputs or the next decision point.

use std::convert::Infallible;
use std::fmt;

use mc_model::{
    mix_seed, Action, BlockAlloc, Ctx, Decision, InstantiateCtx, Memory, ObjectSpec, Op, ProcessId,
    Session, StateSink, SymmetrySpec, Value,
};
use rand::rngs::SmallRng;
use rand::{SeedableRng, TryRng};

use crate::state::{ProcSnapshot, StateSnapshot};

/// One branch decision along an execution path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathEvent {
    /// The adversary schedules this process's pending operation.
    Sched(ProcessId),
    /// The coin of the just-scheduled probabilistic write resolves to
    /// `performed`.
    Coin(bool),
}

impl fmt::Display for PathEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathEvent::Sched(pid) => write!(f, "{pid}"),
            PathEvent::Coin(true) => write!(f, "coin+"),
            PathEvent::Coin(false) => write!(f, "coin-"),
        }
    }
}

/// How session-local coin flips are handled during checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoinPolicy {
    /// Reject protocols whose sessions draw local randomness — required
    /// for exhaustive results.
    Forbid,
    /// Give every session a deterministic stream from this seed; results
    /// are conditional on the seed (sampled, not enumerated).
    Fixed(u64),
}

/// Why a scripted replay did not produce final outputs.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The script ended before every process halted.
    ScriptTooShort,
    /// The step bound was exhausted.
    OutOfSteps,
    /// A session drew local randomness under [`CoinPolicy::Forbid`].
    LocalCoinUsed,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::ScriptTooShort => write!(f, "script ended before all processes halted"),
            ReplayError::OutOfSteps => write!(f, "replay exhausted its step bound"),
            ReplayError::LocalCoinUsed => {
                write!(f, "protocol drew a local coin under CoinPolicy::Forbid")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Replays a complete scripted execution and returns the outputs.
///
/// This is the public face of the checker's replay machinery: given a full
/// script of scheduling choices and coin outcomes (e.g. extracted from an
/// `mc-sim` trace), it re-executes the object deterministically. Useful for
/// cross-validating the two execution substrates and for turning a recorded
/// failure into a standalone reproduction.
///
/// # Errors
///
/// [`ReplayError`] if the script is too short, the step bound trips, or the
/// protocol draws local coins under [`CoinPolicy::Forbid`].
///
/// # Panics
///
/// Panics if the script is *inconsistent* with the execution (schedules a
/// halted process, or supplies a coin where none is pending).
pub fn replay_to_completion(
    spec: &dyn ObjectSpec,
    inputs: &[Value],
    policy: CoinPolicy,
    max_steps: usize,
    path: &[PathEvent],
) -> Result<Vec<Decision>, ReplayError> {
    match run_path(spec, inputs, policy, max_steps, path, false).0 {
        Need::Done(outputs) => Ok(outputs),
        Need::Sched(_) | Need::Coin { .. } => Err(ReplayError::ScriptTooShort),
        Need::OutOfSteps => Err(ReplayError::OutOfSteps),
        Need::LocalCoinUsed => Err(ReplayError::LocalCoinUsed),
    }
}

/// Where a partial replay stopped.
#[derive(Debug)]
pub(crate) enum Need {
    /// All processes halted: the object's outputs.
    Done(Vec<Decision>),
    /// The adversary must choose among these live processes.
    Sched(Vec<ProcessId>),
    /// The scheduled probabilistic write's coin must resolve; `prob` is its
    /// success probability (strictly inside (0, 1)).
    Coin {
        /// Success probability of the pending coin.
        prob: f64,
    },
    /// The step bound was exhausted.
    OutOfSteps,
    /// A session drew local randomness under [`CoinPolicy::Forbid`].
    LocalCoinUsed,
}

/// An RNG that records any use of session-local randomness. Under
/// [`CoinPolicy::Forbid`] it has no stream: a draw reads zeros and counts
/// as a local coin used.
struct CheckRng {
    stream: Option<SmallRng>,
    used: bool,
}

impl TryRng for CheckRng {
    type Error = Infallible;

    fn try_next_u32(&mut self) -> Result<u32, Infallible> {
        self.used = true;
        self.stream.as_mut().map_or(Ok(0), SmallRng::try_next_u32)
    }

    fn try_next_u64(&mut self) -> Result<u64, Infallible> {
        self.used = true;
        self.stream.as_mut().map_or(Ok(0), SmallRng::try_next_u64)
    }

    fn try_fill_bytes(&mut self, dst: &mut [u8]) -> Result<(), Infallible> {
        self.used = true;
        match &mut self.stream {
            Some(rng) => rng.try_fill_bytes(dst),
            None => {
                dst.fill(0);
                Ok(())
            }
        }
    }
}

impl CheckRng {
    fn new(policy: CoinPolicy, pid: usize) -> CheckRng {
        let stream = match policy {
            CoinPolicy::Forbid => None,
            CoinPolicy::Fixed(seed) => Some(SmallRng::seed_from_u64(mix_seed(seed, pid as u64))),
        };
        CheckRng {
            stream,
            used: false,
        }
    }

    fn local_coin_used(&self) -> bool {
        self.used && self.stream.is_none()
    }
}

struct Proc {
    session: Box<dyn Session + Send>,
    rng: CheckRng,
    pending: Option<Op>,
    decision: Option<Decision>,
    ops: u64,
}

/// A configuration snapshot captured at the point a replay stopped, plus
/// the object's symmetry certificate at that point (lazy compositions may
/// grow their certificate as stages instantiate).
pub(crate) struct Captured {
    pub snapshot: StateSnapshot,
    pub symmetry: SymmetrySpec,
}

fn capture_state(
    object: &dyn mc_model::DecidingObject,
    memory: &Memory,
    procs: &[Proc],
    pending_coin: Option<usize>,
) -> Option<Captured> {
    let mut snapped = Vec::with_capacity(procs.len());
    for (ix, proc) in procs.iter().enumerate() {
        let mut sink = StateSink::new();
        proc.session.snapshot(&mut sink);
        let control = sink.finish()?;
        snapped.push(ProcSnapshot {
            control,
            ops: proc.ops,
            decision: proc.decision,
            coin_pending: pending_coin == Some(ix),
        });
    }
    Some(Captured {
        snapshot: StateSnapshot {
            memory: memory
                .iter()
                .filter_map(|(reg, contents)| Some((reg.raw(), contents?)))
                .collect(),
            procs: snapped,
        },
        symmetry: object.symmetry(),
    })
}

/// Replays `path` against a fresh instance of `spec` and reports where the
/// execution stands afterwards. With `capture`, it also captures a
/// [`StateSnapshot`] of the configuration at the stopping point (for every
/// outcome except [`Need::LocalCoinUsed`]), or `None` when any session
/// does not support snapshots.
///
/// # Panics
///
/// Panics if `path` is inconsistent with the execution it scripts (e.g. a
/// `Sched` of a halted process, or a `Coin` where none is pending) — the
/// explorer only extends paths with alternatives the replay itself
/// reported, so this indicates an explorer bug.
pub(crate) fn run_path(
    spec: &dyn ObjectSpec,
    inputs: &[Value],
    policy: CoinPolicy,
    max_steps: usize,
    path: &[PathEvent],
    capture: bool,
) -> (Need, Option<Captured>) {
    let n = inputs.len();
    let mut alloc = BlockAlloc::new();
    let object = spec.instantiate(&mut InstantiateCtx::new(n, &mut alloc));
    let mut memory = Memory::new();
    memory.reserve(alloc.allocated());

    let mut procs: Vec<Proc> = Vec::with_capacity(n);
    for (ix, &input) in inputs.iter().enumerate() {
        let mut rng = CheckRng::new(policy, ix);
        let mut session = object.session(ProcessId(ix));
        let action = {
            let mut ctx = Ctx::new(&mut rng, &mut alloc);
            session.begin(input, &mut ctx)
        };
        if rng.local_coin_used() {
            return (Need::LocalCoinUsed, None);
        }
        let (pending, decision) = match action {
            Action::Invoke(op) => (Some(op), None),
            Action::Halt(d) => (None, Some(d)),
        };
        procs.push(Proc {
            session,
            rng,
            pending,
            decision,
            ops: 0,
        });
    }

    let mut steps = 0usize;
    let mut events = path.iter().copied();
    // Where the replay stopped, and whose scheduled coin is pending there.
    let (need, pending_coin) = loop {
        let live: Vec<ProcessId> = procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.pending.is_some())
            .map(|(ix, _)| ProcessId(ix))
            .collect();
        if live.is_empty() {
            let outputs = procs
                .iter()
                .map(|p| p.decision.expect("halted process has a decision"))
                .collect();
            break (Need::Done(outputs), None);
        }
        if steps >= max_steps {
            break (Need::OutOfSteps, None);
        }
        let Some(event) = events.next() else {
            break (Need::Sched(live), None);
        };
        let PathEvent::Sched(pid) = event else {
            panic!("path scripted {event:?} where a scheduling choice was needed");
        };
        assert!(live.contains(&pid), "path scheduled non-live process {pid}");
        steps += 1;
        let ix = pid.index();
        procs[ix].ops += 1;
        // A genuinely random coin branches: its outcome is the next
        // scripted event, or the replay stops here, the write scheduled and
        // its coin pending. Degenerate probabilities resolve themselves.
        let mut scripted = None;
        if let Some(Op::ProbWrite { prob, .. }) = procs[ix].pending {
            if prob.get() > 0.0 && !prob.is_certain() {
                let Some(event) = events.next() else {
                    break (Need::Coin { prob: prob.get() }, Some(ix));
                };
                let PathEvent::Coin(landed) = event else {
                    panic!("path scripted {event:?} where a coin outcome was needed");
                };
                scripted = Some(landed);
            }
        }
        let proc = &mut procs[ix];
        let op = proc.pending.take().expect("scheduled process is live");
        let (response, _) = memory.perform(&op, |prob| scripted.unwrap_or(prob.is_certain()));
        match proc
            .session
            .poll(response, &mut Ctx::new(&mut proc.rng, &mut alloc))
        {
            Action::Invoke(next) => proc.pending = Some(next),
            Action::Halt(d) => proc.decision = Some(d),
        }
        if proc.rng.local_coin_used() {
            return (Need::LocalCoinUsed, None);
        }
    };
    let captured = capture
        .then(|| capture_state(&*object, &memory, &procs, pending_coin))
        .flatten();
    (need, captured)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_model::{DecidingObject, Response};
    use std::sync::Arc;

    /// A deterministic two-op object: write own input to own register,
    /// read the other register, halt with (0, read-or-own).
    struct PairSpec;
    struct PairObj {
        base: mc_model::RegisterId,
    }
    struct PairSession {
        base: mc_model::RegisterId,
        pid: ProcessId,
        input: Value,
        wrote: bool,
    }

    impl DecidingObject for PairObj {
        fn session(&self, pid: ProcessId) -> Box<dyn Session + Send> {
            Box::new(PairSession {
                base: self.base,
                pid,
                input: 0,
                wrote: false,
            })
        }
    }

    impl Session for PairSession {
        fn begin(&mut self, input: Value, _ctx: &mut Ctx<'_>) -> Action {
            self.input = input;
            Action::Invoke(Op::Write {
                reg: self.base.offset(self.pid.index() as u64),
                value: input,
            })
        }
        fn poll(&mut self, response: Response, _ctx: &mut Ctx<'_>) -> Action {
            if !self.wrote {
                self.wrote = true;
                let other = 1 - self.pid.index() as u64;
                Action::Invoke(Op::Read(self.base.offset(other)))
            } else {
                let v = response.expect_read().unwrap_or(self.input);
                Action::Halt(Decision::continue_with(v))
            }
        }
    }

    impl ObjectSpec for PairSpec {
        fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
            Arc::new(PairObj {
                base: ctx.alloc.alloc_block(2),
            })
        }
    }

    #[test]
    fn empty_path_reports_initial_choice() {
        let need = run_path(&PairSpec, &[7, 9], CoinPolicy::Forbid, 100, &[], false).0;
        match need {
            Need::Sched(live) => assert_eq!(live, vec![ProcessId(0), ProcessId(1)]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn full_path_completes_with_outputs() {
        use PathEvent::Sched;
        let p0 = ProcessId(0);
        let p1 = ProcessId(1);
        // p0 runs both ops first, then p1.
        let path = [Sched(p0), Sched(p0), Sched(p1), Sched(p1)];
        let need = run_path(&PairSpec, &[7, 9], CoinPolicy::Forbid, 100, &path, false).0;
        match need {
            Need::Done(outputs) => {
                // p0 read before p1 wrote: keeps 7. p1 reads p0's 7.
                assert_eq!(outputs[0].value(), 7);
                assert_eq!(outputs[1].value(), 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn step_bound_is_reported() {
        let need = run_path(
            &PairSpec,
            &[1, 2],
            CoinPolicy::Forbid,
            1,
            &[
                PathEvent::Sched(ProcessId(0)),
                PathEvent::Sched(ProcessId(0)),
            ],
            false,
        )
        .0;
        assert!(matches!(need, Need::OutOfSteps));
    }

    #[test]
    #[should_panic(expected = "non-live")]
    fn scheduling_halted_process_is_an_explorer_bug() {
        use PathEvent::Sched;
        let p0 = ProcessId(0);
        let path = [Sched(p0), Sched(p0), Sched(p0)];
        run_path(&PairSpec, &[7, 9], CoinPolicy::Forbid, 100, &path, false);
    }
}
