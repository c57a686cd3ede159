//! Theorem 6: a binary conciliator from any weak shared coin.

use std::sync::Arc;

use mc_model::{
    Action, Ctx, DecidingObject, Decision, InstantiateCtx, ObjectSpec, Op, ProcessId, RegisterId,
    Response, Session, StateSink, Value,
};

/// Procedure CoinConciliator (§5.1):
///
/// ```text
/// shared data: binary registers r₀, r₁ initially 0; weak shared coin SharedCoin
/// r_v ← 1
/// if r_v̄ = 1 then return (0, SharedCoin()) else return (0, v)
/// ```
///
/// A process announces its own value, then checks whether the *opposite*
/// value was announced; if not, it keeps its value, otherwise it defers to
/// the shared coin. Theorem 6: given a coin with agreement parameter `δ`,
/// this satisfies termination, validity, coherence, and probabilistic
/// agreement with probability at least `δ`.
///
/// Adds 2 registers and 2 operations on top of the coin's cost. Binary
/// values only — extending a shared coin to more values is non-obvious
/// (§5.1), which is exactly why the probabilistic-write conciliator matters
/// for multivalued consensus.
#[derive(Clone)]
pub struct CoinConciliator {
    coin: Arc<dyn ObjectSpec>,
}

impl CoinConciliator {
    /// Builds the conciliator over the given weak shared coin.
    pub fn new(coin: Arc<dyn ObjectSpec>) -> CoinConciliator {
        CoinConciliator { coin }
    }

    /// One process's run of this conciliator over an instance whose
    /// registers start at `base`, in the order
    /// [`instantiate`](ObjectSpec::instantiate) allocates them: the
    /// announce registers `r₀, r₁`, then the coin's, from the base that
    /// `coin` is given. `coin` builds the process's session of that coin,
    /// which the run begins only if it defers to the coin.
    ///
    /// Over a coin session built in place, this is the session an
    /// instance's [`DecidingObject::session`] boxes, with no allocation.
    pub fn session_at<C: Session>(
        base: RegisterId,
        coin: impl FnOnce(RegisterId) -> C,
    ) -> impl Session {
        CoinConciliatorSession {
            announce: base,
            coin: coin(base.offset(2)),
            input: 0,
            state: State::Announcing,
        }
    }
}

impl std::fmt::Debug for CoinConciliator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoinConciliator")
            .field("coin", &self.coin.name())
            .finish()
    }
}

struct CoinConciliatorObject {
    /// `announce.offset(v)` is the binary register `r_v`.
    announce: RegisterId,
    coin: Arc<dyn DecidingObject>,
}

impl DecidingObject for CoinConciliatorObject {
    fn session(&self, pid: ProcessId) -> Box<dyn Session + Send> {
        Box::new(CoinConciliatorSession {
            announce: self.announce,
            coin: LazyCoin {
                coin: Arc::clone(&self.coin),
                pid,
                session: None,
            },
            input: 0,
            state: State::Announcing,
        })
    }
}

/// The coin's session as an instance's boxed session holds it: built when
/// the process first defers to the coin, so a process that keeps its
/// value never boxes one.
struct LazyCoin {
    coin: Arc<dyn DecidingObject>,
    pid: ProcessId,
    session: Option<Box<dyn Session + Send>>,
}

impl Session for LazyCoin {
    fn begin(&mut self, input: Value, ctx: &mut Ctx<'_>) -> Action {
        self.session
            .insert(self.coin.session(self.pid))
            .begin(input, ctx)
    }

    fn poll(&mut self, response: Response, ctx: &mut Ctx<'_>) -> Action {
        let session = self.session.as_mut().expect("the coin session has begun");
        session.poll(response, ctx)
    }

    fn snapshot(&self, sink: &mut StateSink) {
        if let Some(session) = &self.session {
            session.snapshot(sink);
        }
    }
}

enum State {
    Announcing,
    CheckingOther,
    RunningCoin,
}

/// One process's run over announce registers from `announce`, deferring
/// to its coin session `coin`, begun on entering `State::RunningCoin`.
struct CoinConciliatorSession<C> {
    announce: RegisterId,
    coin: C,
    input: Value,
    state: State,
}

impl<C> CoinConciliatorSession<C> {
    fn map_coin(action: Action) -> Action {
        match action {
            Action::Halt(d) => Action::Halt(Decision::continue_with(d.value())),
            invoke => invoke,
        }
    }
}

impl<C: Session> Session for CoinConciliatorSession<C> {
    fn begin(&mut self, input: Value, _ctx: &mut Ctx<'_>) -> Action {
        assert!(input <= 1, "CoinConciliator is binary; got input {input}");
        self.input = input;
        self.state = State::Announcing;
        Action::Invoke(Op::Write {
            reg: self.announce.offset(input),
            value: 1,
        })
    }

    fn poll(&mut self, response: Response, ctx: &mut Ctx<'_>) -> Action {
        match self.state {
            State::Announcing => {
                debug_assert!(matches!(response, Response::Write));
                self.state = State::CheckingOther;
                Action::Invoke(Op::Read(self.announce.offset(1 - self.input)))
            }
            State::CheckingOther => {
                if response.expect_read().is_some() {
                    // The opposite value is in play: defer to the coin.
                    self.state = State::RunningCoin;
                    Self::map_coin(self.coin.begin(0, ctx))
                } else {
                    Action::Halt(Decision::continue_with(self.input))
                }
            }
            State::RunningCoin => Self::map_coin(self.coin.poll(response, ctx)),
        }
    }

    fn snapshot(&self, sink: &mut StateSink) {
        sink.push_raw(match self.state {
            State::Announcing => 0,
            State::CheckingOther => 1,
            State::RunningCoin => 2,
        });
        sink.push_value(self.input);
        if let State::RunningCoin = self.state {
            sink.push_raw(1);
            self.coin.snapshot(sink);
        } else {
            sink.push_raw(0);
        }
    }
}

impl ObjectSpec for CoinConciliator {
    fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        let announce = ctx.alloc.alloc_block(2);
        Arc::new(CoinConciliatorObject {
            announce,
            coin: self.coin.instantiate(ctx),
        })
    }

    fn name(&self) -> String {
        format!("coin-conciliator({})", self.coin.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coin::VotingSharedCoin;
    use mc_model::properties;
    use mc_sim::adversary::{RandomScheduler, SplitKeeper, WriteBlocker};
    use mc_sim::harness::{self, inputs};
    use mc_sim::EngineConfig;

    fn spec() -> CoinConciliator {
        CoinConciliator::new(Arc::new(VotingSharedCoin::new()))
    }

    #[test]
    fn unanimous_inputs_skip_the_coin_entirely() {
        for v in [0u64, 1] {
            let out = harness::run_object(
                &spec(),
                &inputs::unanimous(6, v),
                &mut RandomScheduler::new(1),
                v,
                &EngineConfig::default(),
            )
            .unwrap();
            assert!(out.agreed());
            assert_eq!(out.values()[0], v);
            // 2 ops per process: one announce, one check.
            assert_eq!(out.metrics.total_work(), 12);
        }
    }

    #[test]
    fn validity_and_coherence_under_stress() {
        for seed in 0..25 {
            let ins = inputs::alternating(5, 2);
            let out = harness::run_object(
                &spec(),
                &ins,
                &mut WriteBlocker::new(),
                seed,
                &EngineConfig::default(),
            )
            .unwrap();
            properties::check_weak_consensus(&ins, &out.outputs).unwrap();
        }
    }

    #[test]
    fn agreement_with_constant_probability_under_adaptive_attack() {
        let stats = harness::run_trials(
            &spec(),
            100,
            41,
            &EngineConfig::default(),
            |_| inputs::alternating(4, 2),
            |seed| Box::new(SplitKeeper::new(seed)),
        )
        .unwrap();
        assert!(
            stats.agreement_rate() > 0.10,
            "rate {}",
            stats.agreement_rate()
        );
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn non_binary_input_rejected() {
        let _ = harness::run_object(
            &spec(),
            &[0, 2],
            &mut RandomScheduler::new(0),
            0,
            &EngineConfig::default(),
        );
    }

    #[test]
    fn name_mentions_coin() {
        assert_eq!(spec().name(), "coin-conciliator(voting-coin(4n^2))");
    }
}
