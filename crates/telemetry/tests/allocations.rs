//! The recorder's "no allocation per event" claim, counted rather than
//! asserted in prose: a counting global allocator watches the recording
//! thread while it streams events into a sink.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mc_telemetry::{JsonlRecorder, OpClass, Recorder, TelemetryEvent};

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

#[test]
fn recording_op_events_allocates_nothing_after_warm_up() {
    let recorder = JsonlRecorder::new(Box::new(std::io::sink()));
    let op = |step: u64| TelemetryEvent::Op {
        step,
        pid: step % 32,
        class: [OpClass::Read, OpClass::ProbWrite][(step % 2) as usize],
        performed: !step.is_multiple_of(3),
    };
    for step in 0..100 {
        recorder.record(&op(step));
    }
    let before = ALLOCATIONS.with(Cell::get);
    for step in 100..10_100 {
        recorder.record(&op(step));
    }
    assert_eq!(ALLOCATIONS.with(Cell::get) - before, 0);
    assert_eq!(recorder.events_written(), 10_100);
}
