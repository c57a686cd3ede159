//! The quorum ratifier on real atomics.

use std::sync::Arc;

use mc_model::Decision;
use mc_quorums::{BinaryScheme, BinomialScheme, BitVectorScheme, QuorumScheme, MAX_MASK_POOL};

use crate::register::{AtomicMemory, SharedMemory, SharedRegister};

/// Procedure Ratifier (§6.1) as a thread-safe object: an announcement pool
/// of registers plus a proposal register, over any [`QuorumScheme`].
///
/// [`ratify`](AtomicRatifier::ratify) returns the paper's annotated output
/// `(d, v)`: `(1, v)` means agreement on `v` was detected and the caller
/// must decide it; `(0, v)` means adopt `v` and continue (e.g. to the next
/// conciliator). Deterministic, wait-free, at most
/// `|W| + |R| + 2` register operations, and no allocation: the quorums are
/// walked through [`QuorumScheme::for_each_write`] and
/// [`QuorumScheme::any_read`].
///
/// The announcement pool allocates before the proposal register and slots
/// write the sentinel `1`, exactly like the model-side `Ratifier`, so an
/// instrumented [`SharedMemory`] substrate observes identical operation
/// streams across substrates.
pub struct AtomicRatifier<M: SharedMemory = AtomicMemory> {
    pool: Vec<M::Reg>,
    proposal: M::Reg,
    scheme: Arc<dyn QuorumScheme>,
}

impl<M: SharedMemory> std::fmt::Debug for AtomicRatifier<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicRatifier")
            .field("scheme", &self.scheme.name())
            .field("pool_size", &self.pool.len())
            .finish()
    }
}

impl AtomicRatifier {
    /// Builds a ratifier over an arbitrary quorum scheme.
    ///
    /// # Panics
    ///
    /// Panics if the scheme's pool exceeds [`MAX_MASK_POOL`] registers.
    pub fn with_scheme(scheme: Arc<dyn QuorumScheme>) -> AtomicRatifier {
        AtomicRatifier::with_scheme_in(&AtomicMemory, scheme)
    }

    /// The 2-valued ratifier (3 registers, ≤ 4 operations).
    pub fn binary() -> AtomicRatifier {
        AtomicRatifier::with_scheme(Arc::new(BinaryScheme::new()))
    }

    /// The optimal `m`-valued ratifier (binomial quorums).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn binomial(m: u64) -> AtomicRatifier {
        AtomicRatifier::with_scheme(Arc::new(
            BinomialScheme::for_capacity(m).expect("m must be positive"),
        ))
    }

    /// The bit-vector `m`-valued ratifier.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn bitvector(m: u64) -> AtomicRatifier {
        AtomicRatifier::with_scheme(Arc::new(
            BitVectorScheme::for_capacity(m).expect("m must be positive"),
        ))
    }
}

impl<M: SharedMemory> AtomicRatifier<M> {
    /// Builds a ratifier over an arbitrary quorum scheme whose registers
    /// live in `memory`.
    ///
    /// Allocation order — pool slots in slot order, then the proposal
    /// register — matches the model object and must not change.
    ///
    /// # Panics
    ///
    /// Panics if the scheme's pool exceeds [`MAX_MASK_POOL`] registers.
    pub(crate) fn with_scheme_in(memory: &M, scheme: Arc<dyn QuorumScheme>) -> AtomicRatifier<M> {
        let pool = scheme.pool_size();
        assert!(
            pool <= MAX_MASK_POOL,
            "a pool of {pool} registers exceeds the {MAX_MASK_POOL} a quorum mask holds"
        );
        let pool = (0..pool).map(|_| memory.alloc()).collect();
        AtomicRatifier {
            pool,
            proposal: memory.alloc(),
            scheme,
        }
    }

    /// Number of values supported.
    pub fn capacity(&self) -> u64 {
        self.scheme.capacity()
    }

    /// Recycles this one-shot object for a fresh instance: every pool slot
    /// and the proposal register are cleared, after which the object is
    /// indistinguishable from a freshly built ratifier over the same scheme.
    ///
    /// Exclusive access (`&mut`) guarantees no `ratify` call is in flight.
    pub fn reset(&mut self) {
        for slot in &mut self.pool {
            slot.clear();
        }
        self.proposal.clear();
    }

    /// Runs the ratifier with proposal `value`.
    ///
    /// One-shot semantics: each thread calls this at most once per object.
    ///
    /// # Panics
    ///
    /// Panics if `value ≥ capacity()`.
    pub fn ratify(&self, value: u64) -> Decision {
        assert!(
            value < self.scheme.capacity(),
            "value {value} exceeds ratifier capacity {}",
            self.scheme.capacity()
        );
        // Announce.
        self.scheme
            .for_each_write(value, &mut |slot| self.pool[slot as usize].write(1));
        // Propose or adopt.
        let preference = match self.proposal.read() {
            Some(u) => u,
            None => {
                self.proposal.write(value);
                value
            }
        };
        // Scan for conflicting announcements.
        let conflict = self.scheme.any_read(preference, &mut |slot| {
            self.pool[slot as usize].read().is_some()
        });
        if conflict {
            Decision::continue_with(preference)
        } else {
            Decision::decide(preference)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unanimous_callers_all_decide() {
        for maker in [AtomicRatifier::binary as fn() -> AtomicRatifier] {
            let r = Arc::new(maker());
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    let r = Arc::clone(&r);
                    std::thread::spawn(move || r.ratify(1))
                })
                .collect();
            for h in handles {
                let d = h.join().unwrap();
                assert!(d.is_decided());
                assert_eq!(d.value(), 1);
            }
        }
    }

    #[test]
    fn coherence_under_concurrent_conflict() {
        for trial in 0..200 {
            let r = Arc::new(AtomicRatifier::binomial(8));
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let r = Arc::clone(&r);
                    std::thread::spawn(move || r.ratify((trial + t) % 8))
                })
                .collect();
            let outs: Vec<Decision> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            mc_model::properties::check_coherence(&outs)
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
        }
    }

    #[test]
    fn sequential_conflict_is_detected() {
        let r = AtomicRatifier::binary();
        let first = r.ratify(0);
        // First caller ran alone: decides 0.
        assert_eq!(first, Decision::decide(0));
        // Second caller with the other value must *not* decide 1; coherence
        // forces it onto 0.
        let second = r.ratify(1);
        assert_eq!(second.value(), 0);
        assert!(!second.is_decided() || second.value() == 0);
    }

    #[test]
    fn capacities_match_schemes() {
        assert_eq!(AtomicRatifier::binary().capacity(), 2);
        assert!(AtomicRatifier::binomial(100).capacity() >= 100);
        assert!(AtomicRatifier::bitvector(100).capacity() >= 100);
    }

    #[test]
    #[should_panic(expected = "exceeds ratifier capacity")]
    fn oversized_value_rejected() {
        AtomicRatifier::binary().ratify(7);
    }

    #[test]
    #[should_panic(expected = "exceeds the 128 a quorum mask holds")]
    fn a_pool_past_a_mask_is_refused() {
        /// Two values over 129 registers, one more than a mask names.
        struct Wide;
        impl QuorumScheme for Wide {
            fn pool_size(&self) -> u64 {
                MAX_MASK_POOL + 1
            }
            fn capacity(&self) -> u64 {
                2
            }
            fn write_mask(&self, v: u64) -> u128 {
                1 << v
            }
            fn read_mask(&self, v: u64) -> u128 {
                1 << (1 - v)
            }
            fn name(&self) -> String {
                "wide".into()
            }
        }
        let _ = AtomicRatifier::with_scheme(Arc::new(Wide));
    }

    #[test]
    fn reset_ratifier_behaves_like_fresh() {
        let mut r = AtomicRatifier::binary();
        assert_eq!(r.ratify(0), Decision::decide(0));
        // Without a reset, a conflicting second caller is forced onto 0.
        assert_eq!(r.ratify(1).value(), 0);
        r.reset();
        // After the reset the old announcements and proposal are invisible:
        // the recycled ratifier decides the new instance's value.
        assert_eq!(r.ratify(1), Decision::decide(1));
    }
}
