//! The local coin: no shared state at all.

use std::sync::Arc;

use mc_model::{
    Action, Ctx, DecidingObject, Decision, InstantiateCtx, ObjectSpec, ProcessId, Response,
    Session, StateSink, Value,
};
use rand::RngExt;

/// The trivial coin: every process flips its own fair local coin and
/// touches no register.
///
/// All `n` processes agree with probability `2^{1-n}`, and only against
/// adversaries that cannot observe the flips, so this is a weak shared
/// coin in name only: the zero-cost baseline the shared coins are measured
/// against, and the coin with no register footprint.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalCoin;

struct LocalCoinObject;

impl LocalCoin {
    /// One process's flip: the session an instance's
    /// [`DecidingObject::session`] boxes. It holds no state, so building
    /// one allocates nothing.
    pub fn session(&self) -> impl Session + Send {
        LocalCoinSession
    }
}

impl DecidingObject for LocalCoinObject {
    fn session(&self, _pid: ProcessId) -> Box<dyn Session + Send> {
        Box::new(LocalCoin.session())
    }
}

struct LocalCoinSession;

impl Session for LocalCoinSession {
    fn begin(&mut self, _input: Value, ctx: &mut Ctx<'_>) -> Action {
        Action::Halt(Decision::continue_with(u64::from(ctx.rng.random_bool(0.5))))
    }

    fn poll(&mut self, response: Response, _ctx: &mut Ctx<'_>) -> Action {
        unreachable!("a local coin invokes no operation, yet got {response:?}")
    }

    /// Stateless: every local-coin session is the same.
    fn snapshot(&self, _sink: &mut StateSink) {}
}

impl ObjectSpec for LocalCoin {
    fn instantiate(&self, _ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        Arc::new(LocalCoinObject)
    }

    fn name(&self) -> String {
        "local-coin".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conciliator::CoinConciliator;
    use mc_sim::adversary::RandomScheduler;
    use mc_sim::harness::{self, inputs};
    use mc_sim::EngineConfig;

    #[test]
    fn flips_are_bits_of_both_faces_and_cost_nothing() {
        let mut seen = [false, false];
        for seed in 0..32 {
            let out = harness::run_object(
                &LocalCoin,
                &inputs::unanimous(2, 0),
                &mut RandomScheduler::new(seed),
                seed,
                &EngineConfig::default(),
            )
            .unwrap();
            assert_eq!(out.metrics.registers_allocated, 0);
            assert_eq!(out.metrics.total_work(), 0);
            for d in &out.outputs {
                assert!(!d.is_decided());
                seen[d.value() as usize] = true;
            }
        }
        assert!(seen[0] && seen[1], "a fair coin must show both faces");
    }

    #[test]
    fn the_coin_conciliator_over_it_adds_exactly_two_registers() {
        // Opposed inputs reach the coin; the two announce registers are
        // all the composed object allocates (Theorem 6's +2 over zero).
        let out = harness::run_object(
            &CoinConciliator::new(Arc::new(LocalCoin)),
            &inputs::alternating(3, 2),
            &mut RandomScheduler::new(4),
            4,
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(out.metrics.registers_allocated, 2);
        assert!(out.values().iter().all(|&v| v <= 1));
    }
}
