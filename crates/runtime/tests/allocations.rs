//! A slot's lifecycle on the engine — checkout, decide, retirement —
//! allocates nothing once the pool is warm, counted rather than asserted in
//! prose: the quorum walks, the pooled `Arc`s and the live map all reuse
//! what the warm-up left behind; nor does a warm coin chain's decide. A
//! counting global allocator watches the one thread that makes both
//! participants' calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mc_runtime::{CoinKind, ConciliatorChoice, Consensus, ConsensusEngine};
use rand::rngs::SmallRng;
use rand::SeedableRng;

thread_local! {
    /// Allocations made by this thread (`realloc` and `alloc_zeroed`
    /// default to `alloc`, so they count too).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is passed to `System` unchanged; the only addition
// is a bump of a thread-local `Cell<u64>`, which has no destructor and a
// const initialiser, so touching it never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `slots` slots from `first` on: both participants
/// submit each one, and the second out retires it.
fn allocations_of_slots(
    engine: &ConsensusEngine,
    rng: &mut SmallRng,
    first: u64,
    slots: u64,
) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    for slot in first..first + slots {
        let proposal = slot % 2;
        assert_eq!(engine.submit(slot, proposal, rng), proposal);
        assert_eq!(engine.submit(slot, 1 - proposal, rng), proposal);
    }
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_warm_slot_lifecycle_allocates_nothing() {
    // The store's shape (two proposer identities) over the binary scheme,
    // and over a binomial scheme with a many-register pool.
    for values in [2, 1_000] {
        let engine = ConsensusEngine::builder()
            .n(2)
            .values(values)
            .participants(2)
            .build();
        let mut rng = SmallRng::seed_from_u64(values);
        allocations_of_slots(&engine, &mut rng, 0, 1_000);
        let count = allocations_of_slots(&engine, &mut rng, 1_000, 10_000);
        assert_eq!(
            count, 0,
            "m = {values}: {count} allocations in 10 000 slots"
        );
        assert_eq!(engine.live_instances(), 0);
    }
}

/// Allocations made by `instances` instances of `consensus`, each decided
/// by two callers in turn with opposite proposals and then reset.
fn allocations_of_instances(consensus: &mut Consensus, rng: &mut SmallRng, instances: u64) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    for instance in 0..instances {
        let bit = instance % 2;
        assert_eq!(consensus.decide_as(0, bit, rng), bit);
        assert_eq!(consensus.decide_as(1, 1 - bit, rng), bit);
        consensus.reset();
    }
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_warm_coin_chain_decide_allocates_nothing() {
    // No fast path, so every decide starts in C₁, where the second caller
    // finds the first's announcement and runs the coin.
    for kind in [CoinKind::Local, CoinKind::voting()] {
        let mut consensus = Consensus::builder()
            .n(2)
            .fast_path(false)
            .conciliator(ConciliatorChoice::Coin(kind))
            .build();
        let mut rng = SmallRng::seed_from_u64(3);
        allocations_of_instances(&mut consensus, &mut rng, 100);
        let count = allocations_of_instances(&mut consensus, &mut rng, 1_000);
        assert_eq!(count, 0, "{kind:?}: {count} allocations in 1 000 instances");
    }
}
