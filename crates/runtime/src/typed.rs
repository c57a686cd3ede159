//! Typed front-end: consensus over ordinary Rust value types.

use std::marker::PhantomData;
use std::sync::Arc;

use mc_quorums::BitVectorScheme;
use rand::Rng;

use crate::consensus::Consensus;
use crate::register::{AtomicMemory, SharedMemory};

/// A value type usable with [`TypedConsensus`]: a fixed-width bijection with
/// `BITS`-bit codes.
///
/// Implementations are provided for `bool`, `u8`, `u16`, and `u32`. Custom
/// small enums implement it by mapping variants onto `0..2^BITS`:
///
/// ```
/// use mc_runtime::ValueCode;
///
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// enum Command { Get, Put, Delete }
///
/// impl ValueCode for Command {
///     const BITS: u32 = 2;
///     fn to_code(&self) -> u64 {
///         match self {
///             Command::Get => 0,
///             Command::Put => 1,
///             Command::Delete => 2,
///         }
///     }
///     fn from_code(code: u64) -> Option<Command> {
///         [Command::Get, Command::Put, Command::Delete].get(code as usize).copied()
///     }
/// }
/// ```
pub trait ValueCode: Sized {
    /// Code width in bits; the consensus object supports `2^BITS` codes.
    const BITS: u32;

    /// Encodes the value as a code in `0..2^BITS`.
    fn to_code(&self) -> u64;

    /// Decodes a code back into a value; `None` for codes outside the
    /// type's range (possible when the range is not a power of two).
    fn from_code(code: u64) -> Option<Self>;
}

impl ValueCode for bool {
    const BITS: u32 = 1;
    fn to_code(&self) -> u64 {
        u64::from(*self)
    }
    fn from_code(code: u64) -> Option<bool> {
        match code {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

macro_rules! impl_value_code_uint {
    ($($ty:ty => $bits:expr),*) => {
        $(
            impl ValueCode for $ty {
                const BITS: u32 = $bits;
                fn to_code(&self) -> u64 {
                    *self as u64
                }
                fn from_code(code: u64) -> Option<$ty> {
                    <$ty>::try_from(code).ok()
                }
            }
        )*
    };
}

impl_value_code_uint!(u8 => 8, u16 => 16, u32 => 32);

/// Consensus over a typed value domain: threads propose `T`s and agree on
/// one of them.
///
/// Internally a [`Consensus`] over `2^T::BITS` codes with bit-vector
/// quorums (`2·BITS + 1` registers per ratifier).
///
/// # Example
///
/// ```
/// use mc_runtime::TypedConsensus;
/// use rand::{rngs::SmallRng, SeedableRng};
/// use std::sync::Arc;
///
/// let c = Arc::new(TypedConsensus::<bool>::new(2));
/// let t = {
///     let c = Arc::clone(&c);
///     std::thread::spawn(move || {
///         c.decide(true, &mut SmallRng::seed_from_u64(1))
///     })
/// };
/// let a = c.decide(false, &mut SmallRng::seed_from_u64(2));
/// let b = t.join().unwrap();
/// assert_eq!(a, b);
/// ```
#[derive(Debug)]
pub struct TypedConsensus<T, M: SharedMemory = AtomicMemory> {
    inner: Consensus<M>,
    _marker: PhantomData<fn(T) -> T>,
}

impl<T: ValueCode> TypedConsensus<T> {
    /// Creates a typed consensus object for up to `n` threads.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> TypedConsensus<T> {
        TypedConsensus::new_in(AtomicMemory, n)
    }
}

impl<T: ValueCode, M: SharedMemory> TypedConsensus<T, M> {
    /// Creates a typed consensus object whose registers live in `memory`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new_in(memory: M, n: usize) -> TypedConsensus<T, M> {
        TypedConsensus {
            inner: Consensus::builder()
                .n(n)
                .scheme(Arc::new(BitVectorScheme::with_bits(T::BITS.clamp(1, 63))))
                .memory(memory)
                .build(),
            _marker: PhantomData,
        }
    }

    /// Proposes `value` and returns the agreed value.
    ///
    /// One-shot semantics: each thread calls this at most once per object.
    pub fn decide(&self, value: T, rng: &mut dyn Rng) -> T {
        let code = self.inner.decide(value.to_code(), rng);
        T::from_code(code)
            .expect("agreed code decodes: validity guarantees it was some thread's proposal")
    }

    /// Number of stages materialized so far (diagnostics).
    pub fn stages_used(&self) -> usize {
        self.inner.stages_used()
    }

    /// Recycles this one-shot object for a fresh instance (see
    /// [`Consensus::reset`]): stages keep their registers but clear them,
    /// after which the object is indistinguishable from a freshly
    /// constructed one.
    ///
    /// # Panics
    ///
    /// Panics if any `decide` call is still in flight.
    pub fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn value_code_roundtrips() {
        assert_eq!(bool::from_code(true.to_code()), Some(true));
        assert_eq!(u8::from_code(200u8.to_code()), Some(200));
        assert_eq!(u16::from_code(40_000u16.to_code()), Some(40_000));
        assert_eq!(
            u32::from_code(4_000_000_000u32.to_code()),
            Some(4_000_000_000)
        );
        assert_eq!(u8::from_code(256), None);
        assert_eq!(bool::from_code(2), None);
    }

    #[test]
    fn typed_consensus_over_u8() {
        for trial in 0..30 {
            let c = Arc::new(TypedConsensus::<u8>::new(5));
            let handles: Vec<_> = (0..5u64)
                .map(|t| {
                    let c = Arc::clone(&c);
                    std::thread::spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(trial * 10 + t);
                        c.decide((t as u8) * 10, &mut rng)
                    })
                })
                .collect();
            let results: Vec<u8> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
            assert_eq!(results[0] % 10, 0);
            assert!(results[0] <= 40);
        }
    }

    #[test]
    fn recycled_typed_object_does_not_leak_the_previous_decision() {
        // Single participant: decide() deterministically returns the
        // proposal, so any stale register surviving reset would surface as
        // the old payload.
        let mut rng = SmallRng::seed_from_u64(0);
        let mut c = TypedConsensus::<u16>::new(1);
        assert_eq!(c.decide(0xBEEF, &mut rng), 0xBEEF);
        c.reset();
        assert_eq!(c.decide(0x0042, &mut rng), 0x0042);
        c.reset();
        assert_eq!(c.decide(0x7777, &mut rng), 0x7777);
    }

    #[test]
    fn recycled_typed_object_still_agrees_across_threads() {
        for trial in 0..10u64 {
            let mut c = TypedConsensus::<u16>::new(3);
            for epoch in 0..2u64 {
                let proposals: Vec<u16> =
                    (0..3u16).map(|t| 0x0100 * (t + 1) + trial as u16).collect();
                let results: Vec<u16> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..3usize)
                        .map(|t| {
                            let c = &c;
                            let proposal = proposals[t];
                            scope.spawn(move || {
                                let mut rng =
                                    SmallRng::seed_from_u64(trial * 100 + epoch * 10 + t as u64);
                                c.decide(proposal, &mut rng)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                assert!(
                    results.windows(2).all(|w| w[0] == w[1]),
                    "trial {trial} epoch {epoch}: {results:?}"
                );
                assert!(
                    proposals.contains(&results[0]),
                    "trial {trial} epoch {epoch}: validity"
                );
                c.reset();
            }
        }
    }

    #[test]
    fn typed_consensus_over_bool() {
        let c = Arc::new(TypedConsensus::<bool>::new(3));
        let handles: Vec<_> = (0..3u64)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t);
                    c.decide(t % 2 == 0, &mut rng)
                })
            })
            .collect();
        let results: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.windows(2).all(|w| w[0] == w[1]));
    }
}
