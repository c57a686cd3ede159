//! The one place the runtime performs a paper object's operations: an
//! `mc-core` session, run on a stage's registers.

use mc_model::{Action, Ctx, Decision, Op, RegisterAlloc, RegisterId, Response, Session};
use rand::Rng;

use crate::register::SharedRegister;
use crate::telemetry::LocalTelemetry;

/// What one session did, counted off its operation stream: the walk
/// derives a stage's per-call metrics from these and the stage's kind.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Ops {
    /// Deterministic writes.
    pub(crate) writes: u64,
    /// Probabilistic writes, landed or not.
    pub(crate) prob_writes: u64,
}

/// Runs `session` as one process with input `input` over `regs`, the
/// registers of the session's instance in allocation order, numbered from
/// `RegisterId(0)`: each `Op` becomes the same operation on
/// `regs[id]` — `Read` a [`read`](SharedRegister::read), `Write` a
/// [`write`](SharedRegister::write), `ProbWrite` a
/// [`prob_write`](SharedRegister::prob_write) whose coin comes from `rng`,
/// the stream the session's own local coins come from too. A register
/// substrate therefore sees exactly the operation stream the simulator
/// and the checker see for the same session.
///
/// Each probabilistic write is announced before it runs, as round `k`
/// of the call (`k` probabilistic writes came before it), and its outcome
/// after; both events sit at the same point of the thread's operation
/// stream as the operation itself.
///
/// # Panics
///
/// Panics if the session collects: no runtime stage runs in the
/// cheap-collect model.
// Inlined into each stage's call, where the session type is known, the
// loop and the session's state machine fold into one function: out of
// line, a warm solo m = 2 decide + reset pinned to one core of a 2-vCPU
// VM ran 10–20 ns slower than with the hand-written ratifier this
// replaced, and inlined it runs faster (DESIGN.md §6).
#[inline]
pub(crate) fn drive<S, R>(
    session: &mut S,
    regs: &[R],
    input: u64,
    rng: &mut dyn Rng,
    telemetry: &LocalTelemetry<'_>,
) -> (Decision, Ops)
where
    S: Session + ?Sized,
    R: SharedRegister,
{
    let mut ops = Ops::default();
    let mut built = Built;
    let mut ctx = Ctx::new(rng, &mut built);
    let mut action = session.begin(input, &mut ctx);
    loop {
        let response = match action {
            Action::Halt(decision) => return (decision, ops),
            Action::Invoke(Op::Read(reg)) => Response::Read(at(regs, reg).read()),
            Action::Invoke(Op::Write { reg, value }) => {
                at(regs, reg).write(value);
                ops.writes += 1;
                Response::Write
            }
            Action::Invoke(Op::ProbWrite { reg, value, prob }) => {
                telemetry.on_conciliator_round(ops.prob_writes, prob.get());
                let landed = at(regs, reg).prob_write(value, prob, ctx.rng);
                telemetry.on_prob_write(landed, prob.get());
                ops.prob_writes += 1;
                // Undetectable, as in the model's default engine.
                Response::ProbWrite { performed: None }
            }
            Action::Invoke(op @ Op::Collect { .. }) => {
                panic!("no runtime stage runs in the cheap-collect model: {op}")
            }
        };
        action = session.poll(response, &mut ctx);
    }
}

#[inline]
fn at<R>(regs: &[R], reg: RegisterId) -> &R {
    &regs[reg.0 as usize]
}

/// The allocator a driven session sees: a runtime stage's registers were
/// all allocated when the stage was built, and a session allocates none.
struct Built;

impl RegisterAlloc for Built {
    fn alloc_block(&mut self, len: u64) -> RegisterId {
        unreachable!("a driven session asked for {len} registers after its stage was built")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::register::{AtomicMemory, SharedMemory};
    use crate::telemetry::RuntimeTelemetry;
    use mc_core::VotingSharedCoin;
    use mc_model::ProcessId;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn voting_coin_threads_agree_often() {
        // Four threads flip the default voting coin on `AtomicRegister`s.
        // δ per side is constant; under a benign OS scheduler the observed
        // agreement rate should be far above the adversarial floor.
        let coin = VotingSharedCoin::new();
        let telemetry = RuntimeTelemetry::noop();
        let trials = 40;
        let agreements = (0..trials)
            .filter(|&trial| {
                let regs: Vec<_> = (0..4).map(|_| AtomicMemory.alloc()).collect();
                let bits: Vec<u64> = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..4)
                        .map(|pid| {
                            let (regs, telemetry) = (&regs, &telemetry);
                            s.spawn(move || {
                                let mut rng = SmallRng::seed_from_u64(trial * 10 + pid as u64);
                                let mut flip = coin.session_at(RegisterId(0), 4, ProcessId(pid));
                                let (bit, _) =
                                    drive(&mut flip, regs, 0, &mut rng, &telemetry.local());
                                bit.value()
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                bits.windows(2).all(|w| w[0] == w[1])
            })
            .count();
        assert!(
            agreements * 4 >= trials as usize,
            "{agreements}/{trials} agreements"
        );
    }
}
