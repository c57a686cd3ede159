//! Runtime conciliators: the [`Conciliator`] trait, the impatient
//! first-mover implementation on real atomics, and the
//! [`ConciliatorChoice`] a consensus chain is built with.

use std::sync::Arc;

use mc_core::conciliator::WriteSchedule;
use rand::Rng;

use crate::coin::CoinKind;
use crate::register::{AtomicMemory, SharedMemory, SharedRegister};
use crate::telemetry::{HistKey, RuntimeTelemetry};

/// A conciliator as a thread-safe runtime object: a weak consensus object
/// that *produces* agreement with probability at least `δ` while always
/// returning some caller's proposal (validity) and never contradicting a
/// coherent configuration (§3).
///
/// The trait is object-safe so the consensus chain can hold any portfolio
/// member behind `Box<dyn Conciliator<M>>` without becoming generic itself.
pub trait Conciliator<M: SharedMemory>: Send + Sync {
    /// Runs the conciliator as thread `pid`: returns a value that equals
    /// every other caller's return with probability at least `δ`, and
    /// always equals some caller's proposal.
    ///
    /// One-shot semantics: each thread calls this at most once per object
    /// instance. Implementations with per-thread shared state (e.g. the
    /// voting coin's tally registers) require `pid` to be unique per
    /// calling thread and below the configured thread count;
    /// implementations without it ignore `pid`.
    fn propose(&self, pid: usize, value: u64, rng: &mut dyn Rng) -> u64;

    /// Recycles this one-shot object for a fresh instance, after which it
    /// is indistinguishable from a fresh allocation.
    ///
    /// Exclusive access (`&mut`) guarantees no `propose` call is in flight.
    fn reset(&mut self);

    /// Number of shared registers this object touches — the accounting the
    /// Theorem 6 cost bound (+2 registers over the wrapped coin) is checked
    /// against.
    fn register_count(&self) -> u64;
}

/// Which conciliator implementation a consensus chain instantiates for its
/// `C₁; C₂; …` stages.
///
/// The default is [`Impatient`](ConciliatorChoice::Impatient) — the paper's
/// headline probabilistic-write conciliator (Theorem 7). Under schedulers
/// that exploit impatience, the Theorem 6 coin wrapper over an
/// adaptive-adversary-robust coin is the better trade. The choice is fixed
/// when the chain is built and holds for every instance it is recycled
/// into.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum ConciliatorChoice {
    /// The impatient first-mover conciliator (§5.2, the default).
    #[default]
    Impatient,
    /// The Theorem 6 [`CoinConciliator`](crate::CoinConciliator) over the
    /// given coin. Binary values only.
    Coin(CoinKind),
}

/// Procedure ImpatientFirstMoverConciliator (§5.2) as a thread-safe object:
/// one shared register, raced by threads with doubling write probabilities.
///
/// Each call to [`propose`](ImpatientConciliator::propose) costs at most
/// `2⌈lg n⌉ + 4` register operations and the result satisfies validity and
/// probabilistic agreement (Theorem 7's `δ ≈ 0.055` lower bound; in practice
/// far higher because the OS scheduler is no adversary).
///
/// Each round issues exactly two register operations — a read and one
/// [`prob_write`](SharedRegister::prob_write) — mirroring the model-side
/// `FirstMoverConciliator` operation for operation, so runs on an
/// instrumented [`SharedMemory`] substrate are directly comparable to
/// simulator executions.
pub struct ImpatientConciliator<M: SharedMemory = AtomicMemory> {
    reg: M::Reg,
    n: usize,
    telemetry: Option<Arc<RuntimeTelemetry>>,
}

impl ImpatientConciliator {
    /// Creates a conciliator for up to `n` threads with the paper's `2^k/n`
    /// schedule.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> ImpatientConciliator {
        ImpatientConciliator::new_in(&AtomicMemory, n)
    }
}

impl<M: SharedMemory> ImpatientConciliator<M> {
    /// Creates a conciliator whose register lives in `memory`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub(crate) fn new_in(memory: &M, n: usize) -> ImpatientConciliator<M> {
        assert!(n > 0, "need at least one thread");
        ImpatientConciliator {
            reg: memory.alloc(),
            n,
            telemetry: None,
        }
    }

    /// Reports rounds and probabilistic writes to `telemetry`.
    #[must_use]
    pub fn observed_by(mut self, telemetry: Arc<RuntimeTelemetry>) -> ImpatientConciliator<M> {
        self.telemetry = Some(telemetry);
        self
    }

    /// Recycles this one-shot object for a fresh instance: the register is
    /// cleared, after which it is indistinguishable from a fresh allocation.
    ///
    /// Exclusive access (`&mut`) guarantees no `propose` call is in flight.
    pub fn reset(&mut self) {
        self.reg.clear();
    }

    /// Runs the conciliator: returns a value that equals every other
    /// caller's return with at least constant probability, and always equals
    /// some caller's proposal.
    ///
    /// One-shot semantics: each thread calls this at most once per object.
    pub fn propose(&self, value: u64, rng: &mut dyn Rng) -> u64 {
        let mut k = 0u32;
        loop {
            if let Some(winner) = self.reg.read() {
                if let Some(t) = &self.telemetry {
                    t.record(HistKey::ConciliatorRounds, u64::from(k));
                }
                return winner;
            }
            let p = WriteSchedule::impatient().probability(k, self.n);
            if let Some(t) = &self.telemetry {
                t.on_conciliator_round(u64::from(k), p.get());
            }
            let landed = self.reg.prob_write(value, p, rng);
            if let Some(t) = &self.telemetry {
                t.on_prob_write(landed, p.get());
            }
            k += 1;
        }
    }
}

impl<M: SharedMemory> Conciliator<M> for ImpatientConciliator<M> {
    /// The impatient conciliator has no per-thread shared state; `pid` is
    /// ignored.
    fn propose(&self, _pid: usize, value: u64, rng: &mut dyn Rng) -> u64 {
        ImpatientConciliator::propose(self, value, rng)
    }

    fn reset(&mut self) {
        ImpatientConciliator::reset(self);
    }

    fn register_count(&self) -> u64 {
        1
    }
}

impl<M: SharedMemory> std::fmt::Debug for ImpatientConciliator<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImpatientConciliator")
            .field("n", &self.n)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    #[test]
    fn single_thread_keeps_its_value() {
        let c = ImpatientConciliator::new(1);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(c.propose(42, &mut rng), 42);
    }

    #[test]
    fn result_is_some_proposal() {
        for trial in 0..50 {
            let c = Arc::new(ImpatientConciliator::new(4));
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let c = Arc::clone(&c);
                    std::thread::spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(trial * 10 + t);
                        c.propose(100 + t, &mut rng)
                    })
                })
                .collect();
            for h in handles {
                let v = h.join().unwrap();
                assert!((100..104).contains(&v), "invalid value {v}");
            }
        }
    }

    #[test]
    fn agreement_rate_is_high_under_os_scheduling() {
        let mut agreements = 0;
        let trials = 100;
        for trial in 0..trials {
            let c = Arc::new(ImpatientConciliator::new(8));
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    let c = Arc::clone(&c);
                    std::thread::spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(trial * 100 + t);
                        c.propose(t % 2, &mut rng)
                    })
                })
                .collect();
            let results: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            if results.windows(2).all(|w| w[0] == w[1]) {
                agreements += 1;
            }
        }
        // Theorem 7 guarantees ≥ 5.5% against the worst adversary; an OS
        // scheduler should be nowhere near adversarial.
        assert!(
            agreements * 10 >= trials,
            "{agreements}/{trials} agreements"
        );
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        ImpatientConciliator::new(0);
    }

    #[test]
    fn reset_conciliator_behaves_like_fresh() {
        let mut c = ImpatientConciliator::new(2);
        let mut rng = SmallRng::seed_from_u64(3);
        let first = c.propose(10, &mut rng);
        assert_eq!(first, 10);
        c.reset();
        // The recycled object must not leak the previous instance's value:
        // a new caller with a different proposal wins the empty register.
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(c.propose(20, &mut rng), 20);
    }
}
