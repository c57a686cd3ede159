//! Atomic multiwriter registers on `AtomicU64`, and the [`SharedMemory`]
//! abstraction that lets the same algorithms run on other register
//! substrates (notably `mc-lab`'s deterministically scheduled backend).
//!
//! # Generations and recycling
//!
//! Every deciding object in the paper is one-shot (§2), so a naive runtime
//! allocates registers per instance and leaks them forever. The generation
//! API makes registers recyclable without giving up one-shot semantics:
//! each register carries a *generation* tag, and a value written under an
//! earlier generation is invisible — a stale-generation read behaves
//! exactly like an initial read of a fresh register (⊥). Retiring a
//! register into a new generation ([`SharedRegister::retire_to`]) therefore
//! makes it indistinguishable from a newly allocated one, which is the
//! contract the pooled [`ConsensusEngine`](crate::ConsensusEngine) and the
//! recycled-vs-fresh lab conformance leg rely on.
//!
//! Retirement requires exclusive access (`&mut`): recycling happens only
//! *between* one-shot instances, never concurrently with operations, so
//! implementations physically clear the retired value with plain
//! (non-atomic) writes. Code that never recycles pays nothing per
//! operation — the engine-off path is a structural passthrough.

use std::sync::atomic::{AtomicU64, Ordering};

use mc_model::Probability;
use rand::{Rng, RngExt};

/// The generation fresh registers are born into.
pub const GENERATION_0: u64 = 0;

/// One shared multiwriter register as the runtime algorithms see it.
///
/// The paper's model (§2) has three operations: read, write, and the
/// probabilistic write of the Chor–Israeli–Li model — a coin flip bound
/// atomically to a store, which the scheduler cannot observe before
/// committing to the operation.
pub trait SharedRegister: Send + Sync {
    /// Reads the register: `None` is ⊥.
    ///
    /// A value written under an earlier generation than the register's
    /// current one is *not* observable: the read behaves as an initial
    /// read of a fresh register and returns `None`.
    fn read(&self) -> Option<u64>;

    /// Writes `value` under the register's current generation.
    fn write(&self, value: u64);

    /// Probabilistic write: with probability `prob` the register takes
    /// `value`. Returns whether the write landed. The coin comes from
    /// `rng` and is resolved only as part of the operation itself.
    fn prob_write(&self, value: u64, prob: Probability, rng: &mut dyn Rng) -> bool;

    /// The allocation generation this register currently belongs to.
    fn generation(&self) -> u64 {
        GENERATION_0
    }

    /// Moves the register into `generation`, invalidating every value
    /// written under an earlier generation: the next read behaves as an
    /// initial read (⊥), making the recycled register indistinguishable
    /// from a fresh allocation.
    ///
    /// Exclusive access (`&mut`) is the synchronization: one-shot objects
    /// are retired only between instances, when no operation can be in
    /// flight, so implementations clear the retired value with plain
    /// writes and need no atomics. The value must be *physically* cleared,
    /// not masked behind a separate tag a concurrent reader could observe
    /// out of step with the cell.
    ///
    /// # Panics
    ///
    /// Implementations must `debug_assert` that `generation` strictly
    /// increases — retiring backwards would resurrect stale values.
    fn retire_to(&mut self, generation: u64);
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

    /// Allocates one fresh register holding ⊥, in [`GENERATION_0`].
    ///
    /// Allocation order is observable to instrumented substrates (register
    /// ids are assigned sequentially), so objects must allocate in a
    /// deterministic order — the same order the model-side objects use.
    fn alloc(&self) -> Self::Reg {
        self.alloc_in_generation(GENERATION_0)
    }

    /// Allocates one fresh register holding ⊥, tagged with `generation`.
    ///
    /// A pooling engine allocates each instance's registers in the
    /// instance's generation so that recycling the whole instance is one
    /// [`retire_to`](SharedRegister::retire_to) sweep. For substrates with
    /// no per-generation state the tag is carried by the register itself.
    fn alloc_in_generation(&self, generation: u64) -> Self::Reg;

    /// Declares every register allocated under `generation` retired.
    ///
    /// This is a bookkeeping hook for substrates that keep per-generation
    /// state (accounting, debug ledgers); the visibility change itself is
    /// enacted register-by-register via
    /// [`retire_to`](SharedRegister::retire_to), so the default is a
    /// no-op.
    fn retire_generation(&self, generation: u64) {
        let _ = generation;
    }
}

/// The default substrate: lock-free `AtomicU64` registers.
#[derive(Debug, Clone, Copy, Default)]
pub struct AtomicMemory;

impl SharedMemory for AtomicMemory {
    type Reg = AtomicRegister;

    fn alloc_in_generation(&self, generation: u64) -> AtomicRegister {
        AtomicRegister::in_generation(generation)
    }
}

/// An atomic multiwriter register holding ⊥ or a value in `0..u64::MAX`.
///
/// ⊥ is represented by the reserved word `u64::MAX`; writing that value is
/// rejected. Loads and stores use sequentially consistent ordering — the
/// paper's model is atomic registers with interleaving semantics, and SeqCst
/// is the faithful (and simplest) mapping.
///
/// # Generation recycling
///
/// The register's current generation is a plain field, mutated only under
/// `&mut` in [`retire_to`](SharedRegister::retire_to), which also
/// physically clears the value cell back to ⊥. Clearing — rather than
/// masking the stale value behind a separate generation tag — keeps every
/// operation a single atomic access: there is no (value, tag) pair a
/// concurrent reader could observe half-updated, so a torn read can never
/// surface a retired instance's value as current, and reads/writes cost
/// exactly what an unpooled register's do.
#[derive(Debug)]
pub struct AtomicRegister {
    cell: AtomicU64,
    /// The register's current generation. Plain field: mutated only via
    /// `retire_to(&mut self)`, when exclusive access rules out readers.
    generation: u64,
}

const EMPTY: u64 = u64::MAX;

impl AtomicRegister {
    /// Creates a register holding ⊥ in generation 0.
    pub fn new() -> AtomicRegister {
        AtomicRegister::in_generation(GENERATION_0)
    }

    /// Creates a register holding ⊥ in `generation`.
    pub fn in_generation(generation: u64) -> AtomicRegister {
        AtomicRegister {
            cell: AtomicU64::new(EMPTY),
            generation,
        }
    }

    /// Reads the register: `None` is ⊥. Retiring physically clears the
    /// cell, so a recycled register reads as ⊥ until its first
    /// current-generation write — exactly like a fresh register.
    #[inline]
    pub fn read(&self) -> Option<u64> {
        // SeqCst, paired with `write`'s: the paper's registers are atomic,
        // and its objects write one register and then read another (a
        // ratifier announces, then scans for a conflict). Store-then-load
        // across two locations needs one total order over every access;
        // Acquire/Release would let two proposers each miss the other's
        // announcement and decide different values, breaking coherence.
        match self.cell.load(Ordering::SeqCst) {
            EMPTY => None,
            v => Some(v),
        }
    }

    /// Writes `value` under the current generation.
    ///
    /// # Panics
    ///
    /// Panics if `value == u64::MAX` (reserved for ⊥).
    #[inline]
    pub fn write(&self, value: u64) {
        assert_ne!(value, EMPTY, "u64::MAX is reserved for the null value");
        // SeqCst: see `read`.
        self.cell.store(value, Ordering::SeqCst);
    }
}

impl SharedRegister for AtomicRegister {
    fn read(&self) -> Option<u64> {
        AtomicRegister::read(self)
    }

    fn write(&self, value: u64) {
        AtomicRegister::write(self, value);
    }

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

    fn generation(&self) -> u64 {
        self.generation
    }

    fn retire_to(&mut self, generation: u64) {
        debug_assert!(
            generation > self.generation,
            "generation must strictly increase: {} -> {generation}",
            self.generation
        );
        // Physically clear the stale value. Masking it behind a (cell, tag)
        // pair instead would take two atomic loads per read, and a torn
        // read — old cell, tag stored by the new generation's first write —
        // would surface the retired instance's value as current. Exclusive
        // access makes the plain store safe.
        *self.cell.get_mut() = EMPTY;
        self.generation = generation;
        debug_assert_eq!(
            AtomicRegister::read(self),
            None,
            "a retired register must be indistinguishable from a fresh one"
        );
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
        assert!(r.prob_write(5, Probability::ONE, &mut rng));
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
    fn retired_register_reads_as_fresh() {
        let mut r = AtomicMemory.alloc();
        r.write(7);
        assert_eq!(SharedRegister::read(&r), Some(7));
        r.retire_to(1);
        assert_eq!(r.generation(), 1);
        // The stale-generation value is invisible: an initial read.
        assert_eq!(SharedRegister::read(&r), None);
        // A post-retire write is visible under the new generation.
        r.write(9);
        assert_eq!(SharedRegister::read(&r), Some(9));
        r.retire_to(2);
        assert_eq!(SharedRegister::read(&r), None);
    }

    #[test]
    fn retire_physically_clears_the_cell() {
        // The recycled-reads-as-fresh contract must hold by physical
        // clearing, not by masking: a masked-but-present stale value could
        // leak through a torn (cell, tag) read once a new-generation write
        // races a reader. Pin the cell itself to ⊥ after retirement.
        let mut r = AtomicMemory.alloc();
        r.write(7);
        r.retire_to(1);
        assert_eq!(r.cell.load(Ordering::SeqCst), EMPTY);
    }

    #[test]
    fn alloc_in_generation_starts_fresh() {
        let r = AtomicMemory.alloc_in_generation(5);
        assert_eq!(r.generation(), 5);
        assert_eq!(SharedRegister::read(&r), None);
        r.write(3);
        assert_eq!(SharedRegister::read(&r), Some(3));
    }

    #[test]
    fn retire_generation_hook_is_a_noop_by_default() {
        // The default substrate keeps no per-generation state; the hook
        // must be callable with no observable effect on live registers.
        let r = AtomicMemory.alloc_in_generation(1);
        r.write(4);
        AtomicMemory.retire_generation(1);
        assert_eq!(SharedRegister::read(&r), Some(4));
    }

    #[test]
    fn prob_write_lands_in_current_generation() {
        let mut r = AtomicMemory.alloc();
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(r.prob_write(5, Probability::ONE, &mut rng));
        r.retire_to(1);
        assert_eq!(SharedRegister::read(&r), None);
        assert!(r.prob_write(6, Probability::ONE, &mut rng));
        assert_eq!(SharedRegister::read(&r), Some(6));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly increase")]
    fn retiring_backwards_is_rejected() {
        let mut r = AtomicMemory.alloc_in_generation(3);
        r.retire_to(3);
    }
}
