//! The response block's claim, counted rather than asserted in prose: a
//! `submit_batch` allocates per submission, not per command, an empty one
//! allocates nothing, a `call` allocates its block and nothing else, and
//! the slot either is decided in allocates nothing; a fast read allocates
//! nothing at all. A counting global allocator watches the one thread that
//! submits, drives, waits and reads (the store starts no thread of its
//! own).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mc_store::{KvCommand, KvResponse, KvStore, ReplicatedStore, StoreClient};

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

const LARGEST: u64 = 1024;

/// Allocations made by one `submit_batch` of `len` puts — sessions
/// `1..=len`, each at sequence number `round` on its own key — with every
/// handle waited on and dropped.
fn allocations_of_a_batch(store: &ReplicatedStore<KvStore>, len: u64, round: u64) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let handles = store.submit_batch((1..=len).map(|client| {
        let put = KvCommand::Put {
            key: client,
            value: round,
        };
        (client, round, put)
    }));
    for handle in &handles {
        let answer = handle.wait();
        assert!(matches!(answer, Ok(KvResponse::Stored(_))), "{answer:?}");
    }
    drop(handles);
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_batch_allocates_per_submission_not_per_command() {
    // One slot per submission (a batch fits in `batch_commands`).
    let mut store = ReplicatedStore::<KvStore>::builder()
        .batch_commands(LARGEST as usize)
        .build();
    // Warm-up: every session, key and table the measured rounds touch
    // exists and has reached its size, and the engine's pool is full.
    allocations_of_a_batch(&store, LARGEST, 1);
    for round in 2..=300 {
        allocations_of_a_batch(&store, 1, round);
    }
    allocations_of_a_batch(&store, LARGEST, 301);
    let counts: Vec<u64> = (302..308)
        .map(|round| {
            let len = if round % 2 == 0 { LARGEST } else { LARGEST / 4 };
            allocations_of_a_batch(&store, len, round)
        })
        .collect();
    assert!(
        counts.iter().all(|&count| count == counts[0]),
        "1024 vs 256 commands alternately: {counts:?}"
    );
    // All four are the submission's: the counted commands, the block, the
    // handles, and the answers the block is answered with once. The
    // drafted batch reuses the last applied batch's buffers, the responses
    // the applier's scratch, and the slot's decide adds none.
    assert_eq!(counts[0], 4, "{counts:?} allocations per submission");
    store.shutdown();
}

#[test]
fn an_empty_batch_allocates_nothing() {
    let mut store = ReplicatedStore::<KvStore>::builder().build();
    let before = ALLOCATIONS.with(Cell::get);
    let handles = store.submit_batch(std::iter::empty());
    assert!(handles.is_empty());
    drop(handles);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(allocations, 0, "allocations by an empty submit_batch");
    store.shutdown();
}

/// Allocations made by one closed-loop `call`: a put to the client's own
/// key.
fn allocations_of_a_call(client: &mut StoreClient<KvStore>, value: u64) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let answer = client.call(KvCommand::Put {
        key: client.id(),
        value,
    });
    assert!(matches!(answer, Ok(KvResponse::Stored(_))), "{answer:?}");
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_call_allocates_its_block_only() {
    let mut store = ReplicatedStore::<KvStore>::builder().build();
    let mut client = store.client();
    for value in 0..1_000 {
        allocations_of_a_call(&mut client, value);
    }
    let counts: Vec<u64> = (1_000..1_100)
        .map(|value| allocations_of_a_call(&mut client, value))
        .collect();
    // The one-command block, its answer inline: the draft, the responses
    // and the decide reuse what the calls before left behind.
    assert!(
        counts.iter().all(|&count| count == 1),
        "{counts:?} allocations per call"
    );
    drop(client);
    store.shutdown();
}

#[test]
fn a_fast_read_allocates_nothing() {
    let mut store = ReplicatedStore::<KvStore>::builder().build();
    let mut writer = store.client();
    writer.call(KvCommand::Put { key: 1, value: 7 }).unwrap();
    for _ in 0..100 {
        assert_eq!(store.client().read(|kv| kv.get(1)), Some(7));
    }
    // Each read by a session that never read before: no per-client state
    // may grow with the readers.
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..10_000 {
        assert_eq!(store.client().read(|kv| kv.get(1)), Some(7));
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(allocations, 0, "allocations by 10 000 fast reads");
    drop(writer);
    store.shutdown();
}
