//! Atomic multiwriter registers on `AtomicU64`, and the [`SharedMemory`]
//! abstraction that lets the same algorithms run on other register
//! substrates (notably `mc-lab`'s deterministically scheduled backend).
//!
//! # Recycling is clearing
//!
//! Every deciding object in the paper is one-shot (§2), so a naive runtime
//! allocates registers per instance and leaks them forever. Recycling needs
//! nothing more than for each register to read ⊥ again:
//! [`SharedRegister::clear`] puts the initial value back in the cell, and a
//! cleared register is a fresh regular register, indistinguishable from a
//! new allocation. That is the contract the pooled
//! [`ConsensusEngine`](crate::ConsensusEngine) and the recycled-vs-fresh lab
//! conformance leg rely on.
//!
//! Clearing requires exclusive access (`&mut`): recycling happens only
//! *between* one-shot instances, never concurrently with operations, so
//! implementations clear the value with plain (non-atomic) writes. Code
//! that never recycles pays nothing per operation.

use std::sync::atomic::{AtomicU64, Ordering};

use mc_model::Probability;
use rand::{Rng, RngExt};

/// One shared multiwriter register as the runtime algorithms see it.
///
/// The paper's model (§2) has three operations: read, write, and the
/// probabilistic write of the Chor–Israeli–Li model — a coin flip bound
/// atomically to a store, which the scheduler cannot observe before
/// committing to the operation.
pub trait SharedRegister: Send + Sync {
    /// Reads the register: `None` is ⊥.
    fn read(&self) -> Option<u64>;

    /// Writes `value`.
    fn write(&self, value: u64);

    /// Probabilistic write: with probability `prob` the register takes
    /// `value`. Returns whether the write landed. The coin comes from
    /// `rng` and is resolved only as part of the operation itself.
    fn prob_write(&self, value: u64, prob: Probability, rng: &mut dyn Rng) -> bool;

    /// Puts ⊥ back in the register: the next read behaves as an initial
    /// read, making the recycled register indistinguishable from a fresh
    /// allocation.
    ///
    /// Exclusive access (`&mut`) is the synchronization: one-shot objects
    /// are recycled only between instances, when no operation can be in
    /// flight, so implementations clear the value with plain writes and
    /// need no atomics. The value must be *physically* cleared, not masked
    /// behind a separate tag a concurrent reader could observe out of step
    /// with the cell.
    fn clear(&mut self);
}

/// A register substrate: allocates fresh shared registers.
///
/// [`AtomicMemory`] is the zero-overhead default (plain `AtomicU64`s);
/// `mc-lab` provides an instrumented backend whose every operation is a
/// scheduling yield point. Generic runtime objects take the substrate as a
/// type parameter defaulted to `AtomicMemory`, so existing call sites pay
/// nothing.
pub trait SharedMemory: Clone + Send + Sync + 'static {
    /// The register type this substrate allocates.
    type Reg: SharedRegister;

    /// Allocates one fresh register holding ⊥.
    ///
    /// Allocation order is observable to instrumented substrates (register
    /// ids are assigned sequentially), so objects must allocate in a
    /// deterministic order — the same order the model-side objects use.
    fn alloc(&self) -> Self::Reg;
}

/// The default substrate: lock-free `AtomicU64` registers.
#[derive(Debug, Clone, Copy, Default)]
pub struct AtomicMemory;

impl SharedMemory for AtomicMemory {
    type Reg = AtomicRegister;

    fn alloc(&self) -> AtomicRegister {
        AtomicRegister::new()
    }
}

/// An atomic multiwriter register holding ⊥ or a value in `0..u64::MAX`.
///
/// ⊥ is represented by the reserved word `u64::MAX`; writing that value is
/// rejected. Loads and stores use sequentially consistent ordering — the
/// paper's model is atomic registers with interleaving semantics, and SeqCst
/// is the faithful (and simplest) mapping.
///
/// The register is one word. [`clear`](SharedRegister::clear) stores ⊥
/// under `&mut`; there is no (value, tag) pair a concurrent reader could
/// observe half-updated, so a torn read can never surface a recycled
/// instance's value as current, and reads and writes cost exactly what an
/// unpooled register's do.
#[derive(Debug)]
pub struct AtomicRegister(AtomicU64);

const EMPTY: u64 = u64::MAX;

impl AtomicRegister {
    /// Creates a register holding ⊥.
    pub fn new() -> AtomicRegister {
        AtomicRegister(AtomicU64::new(EMPTY))
    }

    /// Reads the register: `None` is ⊥.
    #[inline]
    pub fn read(&self) -> Option<u64> {
        // SeqCst, paired with `write`'s: the paper's registers are atomic,
        // and its objects write one register and then read another (a
        // ratifier announces, then scans for a conflict). Store-then-load
        // across two locations needs one total order over every access;
        // Acquire/Release would let two proposers each miss the other's
        // announcement and decide different values, breaking coherence.
        match self.0.load(Ordering::SeqCst) {
            EMPTY => None,
            v => Some(v),
        }
    }

    /// Writes `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value == u64::MAX` (reserved for ⊥).
    #[inline]
    pub fn write(&self, value: u64) {
        assert_ne!(value, EMPTY, "u64::MAX is reserved for the null value");
        // SeqCst: see `read`.
        self.0.store(value, Ordering::SeqCst);
    }
}

impl SharedRegister for AtomicRegister {
    #[inline]
    fn read(&self) -> Option<u64> {
        AtomicRegister::read(self)
    }

    #[inline]
    fn write(&self, value: u64) {
        AtomicRegister::write(self, value);
    }

    #[inline]
    fn prob_write(&self, value: u64, prob: Probability, rng: &mut dyn Rng) -> bool {
        // The Chor–Israeli–Li assumption: a local coin followed immediately
        // by a plain store, with no observable gap the OS scheduler could
        // condition on.
        let landed = rng.random_bool(prob.get());
        if landed {
            AtomicRegister::write(self, value);
        }
        landed
    }

    fn clear(&mut self) {
        // Exclusive access makes the plain store safe.
        *self.0.get_mut() = EMPTY;
    }
}

impl Default for AtomicRegister {
    fn default() -> Self {
        AtomicRegister::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn starts_empty() {
        assert_eq!(AtomicRegister::new().read(), None);
    }

    #[test]
    fn last_write_wins() {
        let r = AtomicRegister::new();
        r.write(3);
        r.write(9);
        assert_eq!(r.read(), Some(9));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_word_rejected() {
        AtomicRegister::new().write(u64::MAX);
    }

    #[test]
    fn concurrent_reads_see_some_write() {
        use std::sync::Arc;
        let r = Arc::new(AtomicRegister::new());
        let writers: Vec<_> = (0..4u64)
            .map(|v| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || r.write(v))
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let v = r.read().unwrap();
        assert!(v < 4);
    }

    #[test]
    fn prob_write_extremes_are_deterministic() {
        let r = AtomicRegister::new();
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(!r.prob_write(5, Probability::ZERO, &mut rng));
        assert_eq!(r.read(), None);
        assert!(r.prob_write(5, Probability::clamped(1.0), &mut rng));
        assert_eq!(r.read(), Some(5));
    }

    #[test]
    fn prob_write_consumes_one_coin_per_attempt() {
        // The engine resolves one `random_bool` per probabilistic write; the
        // atomic register must match so lab and OS-thread runs share coin
        // streams.
        let r = AtomicMemory.alloc();
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for _ in 0..100 {
            let landed = r.prob_write(1, Probability::new(0.5).unwrap(), &mut a);
            assert_eq!(landed, b.random_bool(0.5));
        }
    }

    #[test]
    fn register_is_one_word() {
        // A (cell, tag) pair could be read torn: old cell, tag of the next
        // instance's first write. One word rules that out.
        assert_eq!(size_of::<AtomicRegister>(), size_of::<AtomicU64>());
    }

    #[test]
    fn cleared_register_reads_as_fresh() {
        let mut r = AtomicMemory.alloc();
        r.write(7);
        assert_eq!(SharedRegister::read(&r), Some(7));
        r.clear();
        // The previous instance's value is gone: an initial read.
        assert_eq!(SharedRegister::read(&r), None);
        // A post-clear write is visible.
        r.write(9);
        assert_eq!(SharedRegister::read(&r), Some(9));
        r.clear();
        assert_eq!(SharedRegister::read(&r), None);
    }

    #[test]
    fn clear_physically_clears_the_cell() {
        // Reads-as-fresh must hold by physical clearing, not by masking: a
        // masked-but-present stale value could leak through a torn
        // (cell, tag) read once a new write races a reader. Pin the cell
        // itself to ⊥ after clearing.
        let mut r = AtomicMemory.alloc();
        r.write(7);
        r.clear();
        assert_eq!(r.0.load(Ordering::SeqCst), EMPTY);
    }

    #[test]
    fn prob_write_lands_after_clear() {
        let mut r = AtomicMemory.alloc();
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(r.prob_write(5, Probability::clamped(1.0), &mut rng));
        r.clear();
        assert_eq!(SharedRegister::read(&r), None);
        assert!(r.prob_write(6, Probability::clamped(1.0), &mut rng));
        assert_eq!(SharedRegister::read(&r), Some(6));
    }
}
