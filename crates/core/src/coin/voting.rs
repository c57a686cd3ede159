//! A majority-voting weak shared coin.

use std::sync::Arc;

use mc_model::{
    Action, Ctx, DecidingObject, Decision, InstantiateCtx, ObjectSpec, Op, ProcessId, RegisterId,
    Response, Session, StateSink, Value,
};
use rand::RngExt;

/// A weak shared coin by majority voting, in the style of Aspnes–Herlihy
/// \[9\]: each process repeatedly flips a local ±1 vote, adds it to a running
/// tally in its own register, and collects all tallies; once the total
/// number of votes reaches a quorum `T = c·n²`, it decides the sign of the
/// total sum.
///
/// Against an adaptive adversary, at most one vote per process (the pending
/// unwritten one) can be hidden from any reader, so views of the sum differ
/// by at most `n`; since the sum of `T = c·n²` fair votes lands outside
/// `[−n, n]` with constant probability, all processes see the same sign with
/// constant probability — a weak shared coin with constant `δ`.
///
/// Cost: each vote is 1 write + `n` reads, and `Θ(n²)` votes happen in
/// total, so total work is `Θ(n³)` — this is the price of tolerating the
/// adaptive adversary, and exactly why the probabilistic-write conciliator
/// is interesting for weaker adversaries.
#[derive(Debug, Clone, Copy)]
pub struct VotingSharedCoin {
    /// Vote quorum as a multiple of `n²`.
    quorum_factor: u32,
}

impl VotingSharedCoin {
    /// Creates the coin with the default vote quorum `4·n²`.
    pub fn new() -> VotingSharedCoin {
        VotingSharedCoin { quorum_factor: 4 }
    }

    /// Creates the coin with vote quorum `factor · n²`.
    ///
    /// Larger factors raise the agreement probability toward 1 at
    /// proportional extra cost.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidQuorumFactor`] if `factor` is 0 — a zero quorum
    /// would let the first voter decide the "shared" coin alone, silently
    /// destroying the agreement parameter, so the misconfiguration is
    /// surfaced as a value instead of a panic.
    pub fn with_quorum_factor(factor: u32) -> Result<VotingSharedCoin, InvalidQuorumFactor> {
        if factor == 0 {
            return Err(InvalidQuorumFactor);
        }
        Ok(VotingSharedCoin {
            quorum_factor: factor,
        })
    }

    /// Process `pid`'s flip of an instance for `n` processes (at least 1)
    /// whose `n` tally registers start at `base`: the session an
    /// instance's [`DecidingObject::session`] boxes, built in place, with
    /// no allocation.
    pub fn session_at(&self, base: RegisterId, n: usize, pid: ProcessId) -> impl Session + Send {
        let n = n.max(1);
        VotingSession {
            base,
            n,
            quorum: u64::from(self.quorum_factor) * (n as u64) * (n as u64),
            pid,
            my_count: 0,
            my_sum: 0,
            state: State::Voting,
            scan_ix: 0,
            seen_count: 0,
            seen_sum: 0,
        }
    }
}

/// Error from [`VotingSharedCoin::with_quorum_factor`]: the quorum factor
/// must be positive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidQuorumFactor;

impl std::fmt::Display for InvalidQuorumFactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "quorum factor must be positive: a zero quorum lets the first \
             voter decide the shared coin alone"
        )
    }
}

impl std::error::Error for InvalidQuorumFactor {}

impl Default for VotingSharedCoin {
    fn default() -> Self {
        VotingSharedCoin::new()
    }
}

const SUM_OFFSET: i64 = 1 << 31;

/// Packs a (vote count, tally sum) pair into one register word.
fn pack(count: u32, sum: i64) -> Value {
    debug_assert!(sum.unsigned_abs() < (1 << 31));
    ((count as u64) << 32) | ((sum + SUM_OFFSET) as u64 & 0xFFFF_FFFF)
}

/// Inverse of [`pack`].
fn unpack(word: Value) -> (u32, i64) {
    let count = (word >> 32) as u32;
    let sum = (word & 0xFFFF_FFFF) as i64 - SUM_OFFSET;
    (count, sum)
}

struct VotingObject {
    spec: VotingSharedCoin,
    base: RegisterId,
    n: usize,
}

impl DecidingObject for VotingObject {
    fn session(&self, pid: ProcessId) -> Box<dyn Session + Send> {
        Box::new(self.spec.session_at(self.base, self.n, pid))
    }
}

enum State {
    Voting,
    Scanning,
}

struct VotingSession {
    base: RegisterId,
    n: usize,
    quorum: u64,
    pid: ProcessId,
    my_count: u32,
    my_sum: i64,
    state: State,
    scan_ix: usize,
    seen_count: u64,
    seen_sum: i64,
}

impl VotingSession {
    fn cast_vote(&mut self, ctx: &mut Ctx<'_>) -> Action {
        let vote: i64 = if ctx.rng.random_bool(0.5) { 1 } else { -1 };
        self.my_count += 1;
        self.my_sum += vote;
        self.state = State::Voting;
        Action::Invoke(Op::Write {
            reg: self.base.offset(self.pid.index() as u64),
            value: pack(self.my_count, self.my_sum),
        })
    }

    fn start_scan(&mut self) -> Action {
        self.scan_ix = 0;
        self.seen_count = 0;
        self.seen_sum = 0;
        self.state = State::Scanning;
        Action::Invoke(Op::Read(self.base))
    }
}

impl Session for VotingSession {
    fn begin(&mut self, _input: Value, ctx: &mut Ctx<'_>) -> Action {
        self.cast_vote(ctx)
    }

    fn poll(&mut self, response: Response, ctx: &mut Ctx<'_>) -> Action {
        match self.state {
            State::Voting => {
                debug_assert!(matches!(response, Response::Write));
                self.start_scan()
            }
            State::Scanning => {
                if let Some(word) = response.expect_read() {
                    let (count, sum) = unpack(word);
                    self.seen_count += u64::from(count);
                    self.seen_sum += sum;
                }
                self.scan_ix += 1;
                if self.scan_ix < self.n {
                    Action::Invoke(Op::Read(self.base.offset(self.scan_ix as u64)))
                } else if self.seen_count >= self.quorum {
                    let bit = u64::from(self.seen_sum >= 0);
                    Action::Halt(Decision::continue_with(bit))
                } else {
                    self.cast_vote(ctx)
                }
            }
        }
    }

    fn snapshot(&self, sink: &mut StateSink) {
        sink.push_raw(match self.state {
            State::Voting => 0,
            State::Scanning => 1,
        });
        // `my_count` doubles as the session's rng-stream position (one draw
        // per vote), so equal snapshots imply equal future vote sequences
        // under a fixed coin policy.
        sink.push_raw(u64::from(self.my_count));
        sink.push_raw(self.my_sum as u64);
        sink.push_raw(self.scan_ix as u64);
        sink.push_raw(self.seen_count);
        sink.push_raw(self.seen_sum as u64);
    }
}

impl ObjectSpec for VotingSharedCoin {
    fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        let n = ctx.n.max(1);
        Arc::new(VotingObject {
            spec: *self,
            base: ctx.alloc.alloc_block(n as u64),
            n,
        })
    }

    fn name(&self) -> String {
        format!("voting-coin({}n^2)", self.quorum_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_sim::adversary::{RandomScheduler, RoundRobin, SplitKeeper};
    use mc_sim::harness::{self, inputs};
    use mc_sim::EngineConfig;

    #[test]
    fn pack_unpack_roundtrip() {
        for (count, sum) in [
            (0u32, 0i64),
            (1, 1),
            (7, -3),
            (1000, 999),
            (1 << 20, -(1 << 20)),
        ] {
            assert_eq!(unpack(pack(count, sum)), (count, sum));
        }
    }

    #[test]
    fn coin_terminates_and_outputs_bits() {
        for seed in 0..10 {
            let out = harness::run_object(
                &VotingSharedCoin::new(),
                &inputs::unanimous(4, 0),
                &mut RandomScheduler::new(seed),
                seed,
                &EngineConfig::default(),
            )
            .unwrap();
            for d in &out.outputs {
                assert!(!d.is_decided());
                assert!(d.value() <= 1);
            }
        }
    }

    #[test]
    fn both_sides_occur_with_constant_probability() {
        let mut zeros = 0;
        let mut ones = 0;
        let trials = 120;
        for seed in 0..trials {
            let out = harness::run_object(
                &VotingSharedCoin::new(),
                &inputs::unanimous(3, 0),
                &mut RoundRobin::new(),
                seed,
                &EngineConfig::default(),
            )
            .unwrap();
            if out.agreed() {
                match out.values()[0] {
                    0 => zeros += 1,
                    1 => ones += 1,
                    v => panic!("non-bit coin value {v}"),
                }
            }
        }
        // δ per side should be well above 5% for a 4n² quorum.
        assert!(
            zeros * 20 >= trials,
            "only {zeros} zero-agreements in {trials}"
        );
        assert!(
            ones * 20 >= trials,
            "only {ones} one-agreements in {trials}"
        );
    }

    #[test]
    fn agreement_survives_adaptive_attack() {
        let stats = harness::run_trials(
            &VotingSharedCoin::new(),
            120,
            99,
            &EngineConfig::default(),
            |_| inputs::unanimous(3, 0),
            |seed| Box::new(SplitKeeper::new(seed)),
        )
        .unwrap();
        assert!(
            stats.agreement_rate() > 0.10,
            "agreement rate {} too low under adaptive attack",
            stats.agreement_rate()
        );
    }

    #[test]
    fn quorum_factor_scales_work() {
        let run = |factor| {
            harness::run_trials(
                &VotingSharedCoin::with_quorum_factor(factor).expect("positive factor"),
                20,
                1,
                &EngineConfig::default(),
                |_| inputs::unanimous(3, 0),
                |seed| Box::new(RandomScheduler::new(seed)),
            )
            .unwrap()
            .mean_total_work()
        };
        assert!(run(8) > run(1) * 2.0);
    }

    #[test]
    fn zero_factor_yields_a_structured_error() {
        let err = VotingSharedCoin::with_quorum_factor(0).unwrap_err();
        assert_eq!(err, InvalidQuorumFactor);
        assert!(
            err.to_string().contains("quorum factor must be positive"),
            "unexpected message: {err}"
        );
        // Positive factors construct normally.
        assert!(VotingSharedCoin::with_quorum_factor(1).is_ok());
    }
}
