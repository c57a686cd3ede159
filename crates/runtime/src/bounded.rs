//! Bounded consensus with graceful fallback — §4.1.2 / Theorem 5.
//!
//! The unbounded construction of §4.1.1 ([`Consensus`]) appends
//! conciliator/ratifier pairs forever; its space is unbounded and an
//! adversary controls its tail. Theorem 5 truncates the chain after `f`
//! conciliator stages and appends a backup protocol `K`:
//!
//! ```text
//! R₋₁; R₀; C₁; R₁; C₂; R₂; …; C_f; R_f; K
//! ```
//!
//! Each conciliator produces agreement with probability at least δ
//! (independent coins), so the probability that *no* ratifier in the chain
//! detects agreement — the probability of reaching `K` — is at most
//! `(1 − δ)^f` (`mc_analysis::theory::fallback_probability`). `K` may be
//! slow (here: an O(n)-scan leader protocol), but it is deterministic and
//! always terminates, so the composed object decides on **every**
//! schedule, trading the unbounded chain's probability-1 termination for a
//! worst-case bound with an exponentially rare slow path.
//!
//! `K` is `LeaderFallback`, a designated-leader scan.

use std::sync::Arc;

use rand::Rng;

use crate::consensus::{Consensus, Exit};
use crate::register::{AtomicMemory, SharedMemory, SharedRegister};
use crate::telemetry::RuntimeTelemetry;

/// Default conciliator bound `f` when
/// [`ConsensusBuilder::max_conciliator_rounds`](crate::ConsensusBuilder::max_conciliator_rounds)
/// is not set.
///
/// With the paper's worst-case δ ≈ 0.0553 (Theorem 7) this gives a
/// fallback probability of about `0.9447¹⁶ ≈ 0.40` per fully adversarial
/// object; against the benign schedules of a real runtime the measured δ
/// is far higher and the fallback is vanishingly rare.
pub const DEFAULT_MAX_CONCILIATOR_ROUNDS: u32 = 16;

/// Theorem 5's `K`: an O(n)-scan designated-leader protocol.
///
/// Registers: one announcement slot per process plus a single-writer
/// decision register written **only by process 0**, which makes the
/// decision register race-free by construction — no deterministic
/// leader-election (impossible wait-free) and no locks (which would
/// deadlock under `mc-lab`'s serialized scheduler) are needed.
///
/// * Process 0 entering the fallback writes its slot, scans all slots in
///   index order, adopts the first announced value, writes it to the
///   decision register, and returns it.
/// * Any other process writes its slot and spin-reads the decision
///   register.
/// * A process deciding `v` in-chain publishes: process 0 writes `v` to
///   the decision register (coherence makes this consistent with every
///   later chain value); others do nothing.
///
/// **Leader dependence**: termination of the fallback requires process 0
/// to eventually run (it always does under the runtime and under `mc-lab`
/// without crashes; crashing process 0 before it writes the decision
/// register starves fallback entrants — the classic cost of a designated
/// leader, which Theorem 5 tolerates because `K` is only required to be
/// a correct protocol for the model at hand).
///
/// Besides being a consensus protocol on its own (validity and agreement
/// among fallback callers), it accepts any value [`publish`]ed: when a
/// process decides `v` inside the chain, the ratifier coherence argument
/// guarantees every value still flowing through later stages equals `v`,
/// so a published value and the fallback callers' inputs never disagree.
///
/// [`publish`]: LeaderFallback::publish
pub(crate) struct LeaderFallback<M: SharedMemory> {
    slots: Vec<M::Reg>,
    decision: M::Reg,
}

impl<M: SharedMemory> LeaderFallback<M> {
    /// Allocates the fallback's registers (`n` slots + decision) in
    /// `memory`, in a fixed order.
    pub(crate) fn new_in(memory: &M, n: usize) -> LeaderFallback<M> {
        assert!(n > 0, "need at least one process");
        LeaderFallback {
            slots: (0..n).map(|_| memory.alloc()).collect(),
            decision: memory.alloc(),
        }
    }

    /// Decides deterministically; `value` is the caller's current chain
    /// value, `pid` its process id in `0..n`.
    fn decide(&self, pid: usize, value: u64) -> u64 {
        assert!(pid < self.slots.len(), "pid {pid} out of range");
        self.slots[pid].write(value);
        if pid == 0 {
            let chosen = self
                .slots
                .iter()
                .find_map(|slot| slot.read())
                .unwrap_or(value);
            self.decision.write(chosen);
            chosen
        } else {
            loop {
                if let Some(v) = self.decision.read() {
                    return v;
                }
                std::hint::spin_loop();
            }
        }
    }

    /// Called when `pid` decides `value` *inside* the chain, before its
    /// `decide` call returns, so late fallback entrants can learn the
    /// decision.
    fn publish(&self, pid: usize, value: u64) {
        if pid == 0 {
            self.decision.write(value);
        }
    }

    /// Clears every register, so nothing of the previous instance (an
    /// announcement, a published decision) is visible to the next.
    fn reset(&mut self) {
        for slot in &mut self.slots {
            slot.clear();
        }
        self.decision.clear();
    }
}

/// Theorem 5's bounded consensus object:
/// `R₋₁; R₀; (C; R)^f; K` over any [`SharedMemory`].
///
/// Unlike [`Consensus`], [`decide`](BoundedConsensus::decide) takes the
/// caller's process id (the fallback `K` needs identities) and is
/// guaranteed to terminate on every schedule — including under
/// [`FaultyMemory`](crate::FaultyMemory) plans that destroy conciliator
/// progress — at the price of reaching the slow deterministic fallback
/// with probability at most `(1 − δ)^f`.
///
/// One-shot semantics: each process calls `decide` at most once, with a
/// distinct `pid` in `0..n`. The fallback's registers are allocated
/// eagerly at construction (before any lazy chain stage), keeping
/// register allocation order deterministic across substrates.
pub struct BoundedConsensus<M: SharedMemory = AtomicMemory> {
    chain: Consensus<M>,
    fallback: LeaderFallback<M>,
    rounds: u32,
}

impl<M: SharedMemory> BoundedConsensus<M> {
    /// Composes an already-built chain with its fallback `K` and the bound
    /// `f`. This is the seam
    /// [`ConsensusBuilder::build_bounded`](crate::ConsensusBuilder::build_bounded)
    /// uses after wiring telemetry into the chain.
    pub(crate) fn from_parts(
        chain: Consensus<M>,
        fallback: LeaderFallback<M>,
        rounds: u32,
    ) -> BoundedConsensus<M> {
        BoundedConsensus {
            chain,
            fallback,
            rounds,
        }
    }

    /// Live metrics for this object, including `fallbacks_taken`.
    pub fn telemetry(&self) -> &RuntimeTelemetry {
        self.chain.telemetry()
    }

    /// Shared handle to this object's telemetry, for wiring observers —
    /// e.g. [`FaultyMemory::observed_by`](crate::FaultyMemory::observed_by).
    pub fn telemetry_handle(&self) -> &Arc<RuntimeTelemetry> {
        self.chain.telemetry_handle()
    }

    /// Number of distinct proposal values supported.
    pub fn capacity(&self) -> u64 {
        self.chain.capacity()
    }

    /// The conciliator bound `f`.
    pub fn max_conciliator_rounds(&self) -> u32 {
        self.rounds
    }

    /// Recycles this one-shot object for a fresh instance: the truncated
    /// chain and the fallback both clear their registers (see
    /// [`Consensus::reset`]).
    ///
    /// # Panics
    ///
    /// Panics if any `decide` call is still in flight.
    pub fn reset(&mut self) {
        self.chain.reset();
        self.fallback.reset();
    }

    /// Proposes `value` as process `pid` and returns the agreed decision.
    ///
    /// Runs the truncated chain; if all `f` conciliator stages fail to
    /// ratify, takes the deterministic fallback `K`. Always terminates,
    /// given every process eventually runs: `K` waits on process 0, its
    /// designated leader.
    ///
    /// One-shot semantics: each process calls this at most once, with a
    /// distinct `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `value ≥ capacity()` or `pid ≥ n`.
    pub fn decide(&self, pid: usize, value: u64, rng: &mut dyn Rng) -> u64 {
        let limit = self.chain.prefix() + 2 * self.rounds as usize;
        self.chain.walk(pid, value, limit, rng, |exit| match exit {
            Exit::Decided(value) => {
                // Let late fallback entrants learn the decision.
                self.fallback.publish(pid, value);
                value
            }
            Exit::Exhausted(value) => {
                self.chain
                    .telemetry()
                    .on_fallback_taken(u64::from(self.rounds));
                self.fallback.decide(pid, value)
            }
        })
    }
}

impl<M: SharedMemory> std::fmt::Debug for BoundedConsensus<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedConsensus")
            .field("rounds", &self.rounds)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    use crate::telemetry::CounterKey;

    fn run_bounded(consensus: Arc<BoundedConsensus>, proposals: Vec<u64>, seed: u64) -> Vec<u64> {
        let handles: Vec<_> = proposals
            .into_iter()
            .enumerate()
            .map(|(pid, v)| {
                let c = Arc::clone(&consensus);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed * 1000 + pid as u64);
                    c.decide(pid, v, &mut rng)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn binary_agreement_and_validity() {
        for trial in 0..100 {
            let c = Arc::new(Consensus::builder().n(6).build_bounded());
            let proposals: Vec<u64> = (0..6).map(|t| (t as u64 + trial) % 2).collect();
            let results = run_bounded(c, proposals.clone(), trial);
            let first = results[0];
            assert!(
                results.iter().all(|&r| r == first),
                "trial {trial}: {results:?}"
            );
            assert!(proposals.contains(&first), "trial {trial}: invalid {first}");
        }
    }

    #[test]
    fn zero_round_bound_always_falls_back_and_still_agrees() {
        // f = 0, no fast path: every call goes straight to K.
        for trial in 0..50 {
            let c = Arc::new(
                Consensus::builder()
                    .n(4)
                    .fast_path(false)
                    .max_conciliator_rounds(0)
                    .build_bounded(),
            );
            let proposals: Vec<u64> = (0..4).map(|t| (t + trial) % 2).collect();
            let telemetry_check = Arc::clone(&c);
            let results = run_bounded(c, proposals.clone(), trial);
            let first = results[0];
            assert!(
                results.iter().all(|&r| r == first),
                "trial {trial}: {results:?}"
            );
            assert!(proposals.contains(&first));
            assert_eq!(
                telemetry_check
                    .telemetry()
                    .count(CounterKey::FallbacksTaken),
                4
            );
        }
    }

    #[test]
    fn single_process_decides_its_own_value() {
        let c = Consensus::builder().n(1).build_bounded();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(c.decide(0, 1, &mut rng), 1);
        assert_eq!(c.telemetry().count(CounterKey::FallbacksTaken), 0);
    }

    #[test]
    fn leader_fallback_alone_is_a_consensus_protocol() {
        for trial in 0..50u64 {
            let fb = Arc::new(LeaderFallback::new_in(&AtomicMemory, 5));
            let handles: Vec<_> = (0..5usize)
                .map(|pid| {
                    let fb = Arc::clone(&fb);
                    let v = (pid as u64 + trial) % 3;
                    std::thread::spawn(move || fb.decide(pid, v))
                })
                .collect();
            let results: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            let first = results[0];
            assert!(results.iter().all(|&r| r == first), "{results:?}");
            assert!((0..3).contains(&first));
        }
    }

    #[test]
    fn publish_reaches_late_fallback_entrants() {
        let fb = LeaderFallback::new_in(&AtomicMemory, 2);
        // pid 0 decided 1 in-chain and published; pid 1 enters the
        // fallback afterwards and must adopt it.
        fb.publish(0, 1);
        assert_eq!(fb.decide(1, 0), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_pid_rejected() {
        let c = Consensus::builder().n(2).build_bounded();
        let mut rng = SmallRng::seed_from_u64(0);
        c.decide(2, 0, &mut rng);
    }

    #[test]
    fn reset_bounded_clears_chain_and_fallback() {
        // f = 0, no fast path: every call is served by the fallback, so a
        // stale published decision would be adopted if reset leaked it.
        let mut c = Consensus::builder()
            .n(1)
            .fast_path(false)
            .max_conciliator_rounds(0)
            .build_bounded();
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(c.decide(0, 1, &mut rng), 1);
        c.reset();
        assert_eq!(c.decide(0, 0, &mut rng), 0);
    }
}
