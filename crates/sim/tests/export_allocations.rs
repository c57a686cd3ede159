//! What exporting a run allocates, counted: `observe::export_run` into a
//! `JsonlRecorder` makes exactly one allocation per run — the `per_process`
//! vector cloned into the `work_summary` event — and none per `op` event.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mc_model::{Op, ProcessId, RegisterId};
use mc_sim::{observe, Event, Trace, WorkMetrics};
use mc_telemetry::JsonlRecorder;

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
fn exporting_a_run_allocates_once_for_the_summary() {
    const N: usize = 32;
    const STEPS: u64 = 500;
    let mut trace = Trace::new();
    let mut metrics = WorkMetrics::new(N);
    for step in 0..STEPS {
        let pid = (step as usize * 7) % N;
        trace.push(Event {
            step,
            pid: ProcessId(pid),
            op: Op::Read(RegisterId(step % 5)),
            observed: Some(step),
        });
        metrics.per_process[pid] += 1;
    }
    let recorder = JsonlRecorder::new(Box::new(std::io::sink()));
    // Warm-up: the line buffer grows to the longest line, the summary's.
    observe::export_run(1, Some(&trace), &metrics, &recorder);

    let before = ALLOCATIONS.with(Cell::get);
    let emitted = observe::export_run(2, Some(&trace), &metrics, &recorder);
    assert_eq!(ALLOCATIONS.with(Cell::get) - before, 1);
    assert_eq!(emitted, STEPS);
    assert_eq!(recorder.events_written(), 2 * (STEPS + 1));
}
