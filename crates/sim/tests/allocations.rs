//! What a simulated run allocates, counted. Once a protocol is built and
//! warm, a step that enters no stage allocates nothing. A chain holds the
//! session of a quorum ratifier or first-mover conciliator stage inline, so
//! a step that enters such a stage some process already instantiated
//! allocates nothing either; the session of any other stage object is
//! boxed, one allocation per entry. A multivalued(8) run at n = 32
//! therefore makes its set-up allocations (`Engine::new`: the instance,
//! every process's session and first stage), what the stage instances it
//! creates cost, and its outputs, pinned below per seed, and one more per
//! later stage entry when its stages are wrapped. A counting global
//! allocator watches the one thread that runs the engine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mc_core::{ConsensusBuilder, FirstMoverConciliator, Ratifier};
use mc_model::{DecidingObject, InstantiateCtx, ObjectSpec, ProcessId, Session, SymmetrySpec};
use mc_sim::adversary::RandomScheduler;
use mc_sim::harness::inputs;
use mc_sim::{Engine, EngineConfig};

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

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Stage entries (sessions created) and stage instances, as [`Counted`]
/// stages report them; a bump allocates nothing.
#[derive(Default)]
struct Tally {
    entries: AtomicU64,
    instances: AtomicU64,
}

impl Tally {
    fn read(&self) -> (u64, u64) {
        (
            self.entries.load(Ordering::Relaxed),
            self.instances.load(Ordering::Relaxed),
        )
    }
}

/// A stage that tallies its instances and sessions and is otherwise the
/// stage it wraps: it draws no coin and issues no operation, so a run takes
/// the schedule of the unwrapped protocol.
struct Counted {
    stage: Arc<dyn ObjectSpec>,
    tally: Arc<Tally>,
}

struct CountedObject {
    stage: Arc<dyn DecidingObject>,
    tally: Arc<Tally>,
}

impl ObjectSpec for Counted {
    fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        self.tally.instances.fetch_add(1, Ordering::Relaxed);
        Arc::new(CountedObject {
            stage: self.stage.instantiate(ctx),
            tally: Arc::clone(&self.tally),
        })
    }
}

impl DecidingObject for CountedObject {
    fn session(&self, pid: ProcessId) -> Box<dyn Session + Send> {
        self.tally.entries.fetch_add(1, Ordering::Relaxed);
        self.stage.session(pid)
    }

    fn symmetry(&self) -> SymmetrySpec {
        self.stage.symmetry()
    }
}

/// What one run allocated.
#[derive(Debug, PartialEq)]
struct Allocations {
    /// The run's work, as `ConsensusBuilder::multivalued(8)` does it.
    total_work: u64,
    /// By `Engine::new`.
    setup: u64,
    /// Stage entries after set-up: one allocation each when the stage's
    /// session is boxed, none when the chain holds it inline.
    entries: u64,
    /// Stage instances created after set-up, ...
    instances: u64,
    /// ... and what they cost beside their first session: the object (two
    /// for a wrapped stage) and room for the registers.
    instance_extra: u64,
    /// By the last step and `Engine::run_until` collecting the outputs.
    outputs: u64,
}

const N: usize = 32;

/// Runs `spec` at `seed`, checks what each step allocated against the
/// stages it entered, as `entered` reports them (entries, instances), and
/// totals the run. `entered` is asked once after set-up, which enters
/// every process's first stage, and then before each step. A stage entry
/// allocates `per_entry`. `run_until` asks
/// its `stop` before every step, so the allocations between two asks are
/// one step's; the last step's, which halts and enters no stage, are
/// counted with the outputs.
fn run(
    spec: &dyn ObjectSpec,
    seed: u64,
    per_entry: u64,
    mut entered: impl FnMut() -> (u64, u64),
) -> Allocations {
    let ins = inputs::random(N, 8, seed);
    let mut adversary = RandomScheduler::new(seed);
    let start = allocations();
    let engine = Engine::new(spec, &ins, &mut adversary, seed, EngineConfig::default());
    let setup = allocations() - start;
    entered();
    let (mut entries, mut instances, mut instance_extra) = (0, 0, 0);
    let mut last = allocations();
    let out = engine
        .run_until(|_| {
            let now = allocations();
            let made = now - last;
            let step = entered();
            match step {
                (0, 0) => assert_eq!(made, 0, "seed {seed}: a step that entered no stage"),
                (1, 0) => assert_eq!(made, per_entry, "seed {seed}: a step that entered a stage"),
                (1, 1) => instance_extra += made - per_entry,
                other => panic!("seed {seed}: one step made (entries, instances) {other:?}"),
            }
            entries += step.0;
            instances += step.1;
            last = now;
            false
        })
        .expect("multivalued(8) completes");
    let outputs = allocations() - last;
    assert!(out.decisions.iter().all(Option::is_some), "seed {seed}");
    Allocations {
        total_work: out.metrics.total_work(),
        setup,
        entries,
        instances,
        instance_extra,
        outputs,
    }
}

/// `ConsensusBuilder::multivalued(8)` with its two stages wrapped in
/// [`Counted`], which makes the chain box each stage session.
fn counted_multivalued(tally: &Arc<Tally>) -> Arc<dyn ObjectSpec> {
    let counted = |stage: Arc<dyn ObjectSpec>| -> Arc<dyn ObjectSpec> {
        Arc::new(Counted {
            stage,
            tally: Arc::clone(tally),
        })
    };
    Arc::new(
        ConsensusBuilder::new(
            counted(Arc::new(FirstMoverConciliator::impatient())),
            counted(Arc::new(Ratifier::binomial(8))),
        )
        .build(),
    )
}

/// Runs the counted chain at `seed`; returns what it allocated and, per
/// `stop` ask, the (entries, instances) of the step before.
fn run_counted(spec: &dyn ObjectSpec, tally: &Tally, seed: u64) -> (Allocations, Vec<(u64, u64)>) {
    // Room for every step, so recording one allocates nothing.
    let mut steps = Vec::with_capacity(1 << 12);
    let mut last = tally.read();
    let allocated = run(spec, seed, 1, || {
        let now = tally.read();
        let step = (now.0 - last.0, now.1 - last.1);
        last = now;
        steps.push(step);
        step
    });
    (allocated, steps)
}

#[test]
fn a_run_allocates_its_set_up_and_one_session_per_stage_entry() {
    let tally = Arc::new(Tally::default());
    let spec = counted_multivalued(&tally);
    // Warm-up: whatever is initialised on first use.
    run_counted(&*spec, &tally, 7);
    let runs = [7, 8, 9].map(|seed| run_counted(&*spec, &tally, seed).0);
    let pinned = |total_work, entries, instances, instance_extra| Allocations {
        total_work,
        setup: 73,
        entries,
        instances,
        instance_extra,
        outputs: 1,
    };
    assert_eq!(
        runs,
        [
            pinned(326, 32, 1, 3),
            pinned(522, 96, 3, 8),
            pinned(610, 96, 3, 8),
        ]
    );
}

#[test]
fn entering_a_built_stage_of_the_unwrapped_chain_allocates_nothing() {
    // The counted chain takes the unwrapped chain's schedule, so its tally
    // says which steps of the unwrapped run enter a stage.
    let tally = Arc::new(Tally::default());
    let counted = counted_multivalued(&tally);
    let spec = ConsensusBuilder::multivalued(8).build();
    let run_at = |seed| {
        let (_, steps) = run_counted(&*counted, &tally, seed);
        let mut steps = steps.into_iter();
        let allocated = run(&spec, seed, 0, || steps.next().expect("the same schedule"));
        assert_eq!(steps.next(), None, "seed {seed}: the same schedule");
        allocated
    };
    // Warm-up: whatever is initialised on first use.
    run_at(7);
    let runs = [7, 8, 9].map(run_at);
    let pinned = |total_work, entries, instances, instance_extra| Allocations {
        total_work,
        setup: 40,
        entries,
        instances,
        instance_extra,
        outputs: 1,
    };
    assert_eq!(
        runs,
        [
            pinned(326, 32, 1, 2),
            pinned(522, 96, 3, 5),
            pinned(610, 96, 3, 5),
        ]
    );
}
