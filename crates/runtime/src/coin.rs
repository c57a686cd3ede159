//! Weak shared coins on real atomics, and the Theorem 6 conciliator
//! built from them (§5.1).
//!
//! A *weak shared coin* with agreement parameter `δ > 0` is a protocol in
//! which each thread obtains a bit such that, against any adversary, the
//! probability that all threads obtain 0 and the probability that all obtain
//! 1 are each at least `δ`. [`CoinConciliator`] wraps any
//! [`WeakSharedCoin`] into a binary conciliator at a cost of exactly two
//! extra registers and two extra operations (Theorem 6).
//!
//! Two coins ship with the runtime:
//!
//! * [`LocalCoin`] — every thread flips its own fair coin. Free, but the
//!   agreement parameter is only `2^{1-n}` and holds only against
//!   adversaries that cannot react to the flips; it is the baseline the
//!   shared coins are measured against.
//! * [`VotingCoin`] — majority voting over per-thread tally registers in
//!   the style of Aspnes–Herlihy, the runtime twin of `mc-core`'s
//!   `VotingSharedCoin`. Constant `δ` against the *adaptive* adversary at
//!   `Θ(n³)` total work.
//!
//! The shared-memory objects mirror their model-side specs operation for
//! operation and coin-draw for coin-draw, so lab runs on an instrumented
//! [`SharedMemory`] substrate are directly comparable to simulator and
//! model-checker executions (see `mc-lab`'s `check_conformance` on `Protocol::Coin`).

use std::sync::Arc;

use rand::{Rng, RngExt};

use crate::conciliator::Conciliator;
use crate::register::{AtomicMemory, SharedMemory, SharedRegister};
use crate::telemetry::{HistKey, RuntimeTelemetry};

/// A weak shared coin as a thread-safe runtime object.
///
/// One-shot semantics: each thread calls [`flip`](WeakSharedCoin::flip) at
/// most once per object instance; [`reset`](WeakSharedCoin::reset) recycles
/// the instance under exclusive access.
pub trait WeakSharedCoin<M: SharedMemory>: Send + Sync {
    /// Runs the coin as thread `pid` and returns a bit.
    ///
    /// Coins with per-thread shared state (e.g. [`VotingCoin`]'s tally
    /// registers) require `pid` to be unique per calling thread and below
    /// the configured thread count; coins without it ignore `pid`.
    fn flip(&self, pid: usize, rng: &mut dyn Rng) -> u64;

    /// Recycles this one-shot object for a fresh instance.
    ///
    /// Exclusive access (`&mut`) guarantees no `flip` call is in flight.
    fn reset(&mut self);

    /// Number of shared registers this coin touches.
    fn register_count(&self) -> u64;

    /// Stable display name for telemetry and diagnostics.
    fn name(&self) -> &'static str;
}

/// Which weak shared coin a [`ConciliatorChoice`](crate::ConciliatorChoice)
/// plugs into the Theorem 6 wrapper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoinKind {
    /// [`LocalCoin`]: free, weak-adversary only.
    Local,
    /// [`VotingCoin`] with quorum `quorum_factor · n²`: adaptive-adversary
    /// robust at `Θ(n³)` total work.
    Voting {
        /// Vote quorum as a multiple of `n²`. Must be positive.
        quorum_factor: u32,
    },
}

impl CoinKind {
    /// The default voting coin (quorum `4·n²`), matching
    /// `VotingSharedCoin::new()` on the model side.
    pub fn voting() -> CoinKind {
        CoinKind::Voting { quorum_factor: 4 }
    }

    /// Stable display name for telemetry and bench reports.
    pub fn name(&self) -> &'static str {
        match self {
            CoinKind::Local => "local-coin",
            CoinKind::Voting { .. } => "voting-coin",
        }
    }
}

/// The trivial coin: every thread flips its own fair local coin.
///
/// No shared state at all, so the "agreement" is pure luck: all `n` threads
/// agree with probability `2^{1-n}`, and only against adversaries that
/// cannot observe the flips (a weak, oblivious scheduler). Useful as the
/// zero-cost baseline in the coin portfolio and for tests that need a coin
/// with no register footprint.
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalCoin;

impl LocalCoin {
    /// Creates the local coin.
    pub fn new() -> LocalCoin {
        LocalCoin
    }
}

impl<M: SharedMemory> WeakSharedCoin<M> for LocalCoin {
    fn flip(&self, _pid: usize, rng: &mut dyn Rng) -> u64 {
        u64::from(rng.random_bool(0.5))
    }

    fn reset(&mut self) {}

    fn register_count(&self) -> u64 {
        0
    }

    fn name(&self) -> &'static str {
        "local-coin"
    }
}

const SUM_OFFSET: i64 = 1 << 31;

/// Packs a (vote count, tally sum) pair into one register word.
///
/// Must match `mc-core`'s `VotingSharedCoin` packing exactly: the lab
/// conformance harness compares written values word for word.
fn pack(count: u32, sum: i64) -> u64 {
    debug_assert!(sum.unsigned_abs() < (1 << 31));
    ((count as u64) << 32) | ((sum + SUM_OFFSET) as u64 & 0xFFFF_FFFF)
}

/// Inverse of [`pack`].
fn unpack(word: u64) -> (u32, i64) {
    let count = (word >> 32) as u32;
    let sum = (word & 0xFFFF_FFFF) as i64 - SUM_OFFSET;
    (count, sum)
}

/// A weak shared coin by majority voting over per-thread tally registers,
/// in the style of Aspnes–Herlihy — the runtime twin of `mc-core`'s
/// `VotingSharedCoin`.
///
/// Each thread repeatedly flips a local ±1 vote, adds it to a running tally
/// in its own register, and collects all tallies; once the total number of
/// votes reaches the quorum `T = factor·n²`, it returns the sign of the
/// total sum. Views of the sum differ by at most `n` (one unwritten vote
/// per thread), and the sum of `T` fair votes lands outside `[−n, n]` with
/// constant probability, so all threads see the same sign with constant
/// `δ` — even against the adaptive adversary.
pub struct VotingCoin<M: SharedMemory = AtomicMemory> {
    tallies: Vec<M::Reg>,
    quorum: u64,
    quorum_factor: u32,
    telemetry: Option<Arc<RuntimeTelemetry>>,
}

impl VotingCoin {
    /// Creates a voting coin for `n` threads with the default quorum
    /// `4·n²`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> VotingCoin {
        VotingCoin::with_quorum_factor_in(&AtomicMemory, n, 4)
    }
}

impl<M: SharedMemory> VotingCoin<M> {
    /// Creates a voting coin for `n` threads with quorum `factor·n²`,
    /// allocating its `n` tally registers in `memory`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `factor == 0`.
    pub(crate) fn with_quorum_factor_in(memory: &M, n: usize, factor: u32) -> VotingCoin<M> {
        assert!(n > 0, "need at least one thread");
        assert!(factor > 0, "quorum factor must be positive");
        VotingCoin {
            tallies: (0..n).map(|_| memory.alloc()).collect(),
            quorum: (factor as u64) * (n as u64) * (n as u64),
            quorum_factor: factor,
            telemetry: None,
        }
    }

    /// Reports per-flip vote counts to `telemetry`'s coin-round histogram.
    #[must_use]
    pub fn observed_by(mut self, telemetry: Arc<RuntimeTelemetry>) -> VotingCoin<M> {
        self.telemetry = Some(telemetry);
        self
    }

    /// The configured quorum factor.
    pub fn quorum_factor(&self) -> u32 {
        self.quorum_factor
    }
}

impl<M: SharedMemory> WeakSharedCoin<M> for VotingCoin<M> {
    /// One vote is 1 write + `n` reads, exactly as the model session: flip
    /// the ±1 vote, publish the running `(count, sum)` tally, scan every
    /// tally register from index 0, and return the sign of the total once
    /// the quorum of votes is visible.
    fn flip(&self, pid: usize, rng: &mut dyn Rng) -> u64 {
        let n = self.tallies.len();
        assert!(pid < n, "pid {pid} out of range for {n} threads");
        let mut my_count: u32 = 0;
        let mut my_sum: i64 = 0;
        loop {
            let vote: i64 = if rng.random_bool(0.5) { 1 } else { -1 };
            my_count += 1;
            my_sum += vote;
            self.tallies[pid].write(pack(my_count, my_sum));
            let mut seen_count = 0u64;
            let mut seen_sum = 0i64;
            for reg in &self.tallies {
                if let Some(word) = reg.read() {
                    let (count, sum) = unpack(word);
                    seen_count += u64::from(count);
                    seen_sum += sum;
                }
            }
            if seen_count >= self.quorum {
                if let Some(t) = &self.telemetry {
                    t.record(HistKey::CoinRounds, u64::from(my_count));
                }
                return u64::from(seen_sum >= 0);
            }
        }
    }

    fn reset(&mut self) {
        for reg in &mut self.tallies {
            reg.clear();
        }
    }

    fn register_count(&self) -> u64 {
        self.tallies.len() as u64
    }

    fn name(&self) -> &'static str {
        "voting-coin"
    }
}

impl<M: SharedMemory> std::fmt::Debug for VotingCoin<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VotingCoin")
            .field("n", &self.tallies.len())
            .field("quorum", &self.quorum)
            .finish()
    }
}

/// Procedure CoinConciliator (§5.1) as a thread-safe runtime object:
///
/// ```text
/// shared data: binary registers r₀, r₁ initially ⊥; weak shared coin SharedCoin
/// r_v ← 1
/// if r_v̄ = 1 then return SharedCoin() else return v
/// ```
///
/// A thread announces its own value, then checks whether the *opposite*
/// value was announced; if not it keeps its value, otherwise it defers to
/// the shared coin. Theorem 6: given a coin with agreement parameter `δ`,
/// this is a binary conciliator with probabilistic agreement at least `δ`,
/// at a cost of exactly **+2 registers and +2 operations** over the coin.
///
/// The runtime twin of `mc-core`'s `CoinConciliator`, operation for
/// operation (announce write, opposite-value read, then the coin).
pub struct CoinConciliator<C, M: SharedMemory = AtomicMemory>
where
    C: WeakSharedCoin<M>,
{
    /// `announce[v]` is the binary register `r_v`.
    announce: [M::Reg; 2],
    coin: C,
}

impl<C: WeakSharedCoin<AtomicMemory>> CoinConciliator<C> {
    /// Builds the conciliator over `coin` on the default atomic substrate.
    pub fn new(coin: C) -> CoinConciliator<C> {
        CoinConciliator {
            announce: [AtomicMemory.alloc(), AtomicMemory.alloc()],
            coin,
        }
    }
}

impl<C, M: SharedMemory> CoinConciliator<C, M>
where
    C: WeakSharedCoin<M>,
{
    /// Builds the conciliator in `memory`, allocating the two announce
    /// registers *before* constructing the coin via `make_coin`.
    ///
    /// The allocation order matters on instrumented substrates: the
    /// model-side spec allocates its announce block first and its coin's
    /// registers second, and lab conformance compares register ids.
    pub(crate) fn with_coin_in(
        memory: &M,
        make_coin: impl FnOnce(&M) -> C,
    ) -> CoinConciliator<C, M> {
        let announce = [memory.alloc(), memory.alloc()];
        CoinConciliator {
            announce,
            coin: make_coin(memory),
        }
    }
}

impl<C, M: SharedMemory> Conciliator<M> for CoinConciliator<C, M>
where
    C: WeakSharedCoin<M>,
{
    /// One-shot semantics: each thread calls this at most once per object,
    /// with a `pid` unique to the thread (required by coins with per-thread
    /// registers).
    ///
    /// # Panics
    ///
    /// Panics if `value > 1` — the §5.1 construction is binary only.
    fn propose(&self, pid: usize, value: u64, rng: &mut dyn Rng) -> u64 {
        assert!(value <= 1, "CoinConciliator is binary; got input {value}");
        self.announce[value as usize].write(1);
        if self.announce[1 - value as usize].read().is_some() {
            self.coin.flip(pid, rng)
        } else {
            value
        }
    }

    fn reset(&mut self) {
        for reg in &mut self.announce {
            reg.clear();
        }
        self.coin.reset();
    }

    fn register_count(&self) -> u64 {
        2 + self.coin.register_count()
    }
}

impl<C, M: SharedMemory> std::fmt::Debug for CoinConciliator<C, M>
where
    C: WeakSharedCoin<M>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoinConciliator")
            .field("coin", &self.coin.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn local_coin_returns_bits() {
        let coin = LocalCoin::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut seen = [false, false];
        for _ in 0..64 {
            let b = WeakSharedCoin::<AtomicMemory>::flip(&coin, 0, &mut rng);
            assert!(b <= 1);
            seen[b as usize] = true;
        }
        assert!(seen[0] && seen[1], "a fair coin must show both faces");
    }

    #[test]
    fn voting_coin_single_thread_reaches_quorum_alone() {
        let coin = VotingCoin::with_quorum_factor_in(&AtomicMemory, 1, 4);
        let mut rng = SmallRng::seed_from_u64(1);
        let b = WeakSharedCoin::flip(&coin, 0, &mut rng);
        assert!(b <= 1);
    }

    #[test]
    fn voting_coin_threads_agree_often() {
        // δ per side is constant; under a benign OS scheduler the observed
        // agreement rate should be far above the adversarial floor.
        let mut agreements = 0;
        let trials = 40;
        for trial in 0..trials {
            let coin = Arc::new(VotingCoin::new(4));
            let handles: Vec<_> = (0..4usize)
                .map(|pid| {
                    let coin = Arc::clone(&coin);
                    std::thread::spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(trial * 10 + pid as u64);
                        WeakSharedCoin::flip(&*coin, pid, &mut rng)
                    })
                })
                .collect();
            let bits: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            if bits.windows(2).all(|w| w[0] == w[1]) {
                agreements += 1;
            }
        }
        assert!(agreements * 4 >= trials, "{agreements}/{trials} agreements");
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for (count, sum) in [(0u32, 0i64), (1, 1), (7, -3), (1000, 999)] {
            assert_eq!(unpack(pack(count, sum)), (count, sum));
        }
    }

    #[test]
    fn conciliator_keeps_value_when_unopposed() {
        let c = CoinConciliator::new(LocalCoin::new());
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(c.propose(0, 1, &mut rng), 1);
    }

    #[test]
    fn conciliator_defers_to_coin_when_opposed() {
        let c = CoinConciliator::new(LocalCoin::new());
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(c.propose(0, 0, &mut rng), 0);
        // The second caller sees the opposite announcement and flips.
        let b = c.propose(1, 1, &mut rng);
        assert!(b <= 1);
    }

    #[test]
    fn conciliator_output_is_valid_with_voting_coin() {
        for trial in 0..20u64 {
            let c = Arc::new(CoinConciliator::with_coin_in(&AtomicMemory, |m| {
                VotingCoin::with_quorum_factor_in(m, 3, 1)
            }));
            let handles: Vec<_> = (0..3usize)
                .map(|pid| {
                    let c = Arc::clone(&c);
                    std::thread::spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(trial * 7 + pid as u64);
                        c.propose(pid, (pid % 2) as u64, &mut rng)
                    })
                })
                .collect();
            for h in handles {
                let v = h.join().unwrap();
                assert!(v <= 1, "invalid value {v}");
            }
        }
    }

    #[test]
    fn theorem6_register_accounting() {
        let c = CoinConciliator::new(LocalCoin::new());
        assert_eq!(Conciliator::<AtomicMemory>::register_count(&c), 2);
        let c = CoinConciliator::with_coin_in(&AtomicMemory, |m| {
            VotingCoin::with_quorum_factor_in(m, 5, 4)
        });
        assert_eq!(c.register_count(), 2 + 5);
    }

    #[test]
    fn reset_conciliator_behaves_like_fresh() {
        let mut c = CoinConciliator::new(LocalCoin::new());
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(c.propose(0, 0, &mut rng), 0);
        Conciliator::reset(&mut c);
        // The stale announcement is gone: an unopposed 1 keeps its value.
        assert_eq!(c.propose(1, 1, &mut rng), 1);
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn non_binary_input_rejected() {
        let c = CoinConciliator::new(LocalCoin::new());
        let mut rng = SmallRng::seed_from_u64(5);
        c.propose(0, 2, &mut rng);
    }

    #[test]
    #[should_panic(expected = "quorum factor")]
    fn zero_quorum_factor_rejected() {
        VotingCoin::with_quorum_factor_in(&AtomicMemory, 3, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pid_rejected() {
        let coin = VotingCoin::new(2);
        let mut rng = SmallRng::seed_from_u64(6);
        WeakSharedCoin::flip(&coin, 2, &mut rng);
    }
}
