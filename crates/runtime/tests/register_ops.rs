//! A decide costs its register operations — the paper's unit of work —
//! counted exactly by a `SharedMemory` under a warm n = 2 instance that
//! every slot recycles with `reset`, as the store's slot pool does. A change
//! that adds or drops an operation on the decide path names itself here,
//! whatever the host's timings do. Theorem 10 bounds one ratifier's work by
//! `|W_v| + |R_v| + 2` (`QuorumScheme::individual_work_bound`): 4 for the
//! binary scheme's 3 registers, 7 for m = 8's 5-register binomial pool.
//! The same substrate numbers registers as it allocates them, which shows
//! a stage that racing threads enter first being built once and in order.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mc_model::Probability;
use mc_runtime::{AtomicMemory, AtomicRegister, Consensus, SharedMemory, SharedRegister};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `AtomicMemory` whose registers bump one shared tally per operation and
/// carry their allocation index.
#[derive(Clone, Default)]
struct CountingMemory {
    ops: Arc<AtomicU64>,
    allocated: Arc<AtomicU64>,
}

struct CountingRegister {
    inner: AtomicRegister,
    ops: Arc<AtomicU64>,
    id: u64,
}

thread_local! {
    /// The ids of the registers this thread has operated on, in order.
    static TOUCHED: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl CountingRegister {
    fn count(&self) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        TOUCHED.with(|touched| touched.borrow_mut().push(self.id));
    }
}

impl SharedRegister for CountingRegister {
    fn read(&self) -> Option<u64> {
        self.count();
        self.inner.read()
    }

    fn write(&self, value: u64) {
        self.count();
        self.inner.write(value);
    }

    fn prob_write(&self, value: u64, prob: Probability, rng: &mut dyn Rng) -> bool {
        self.count();
        SharedRegister::prob_write(&self.inner, value, prob, rng)
    }

    fn clear(&mut self) {
        self.inner.clear();
    }
}

impl SharedMemory for CountingMemory {
    type Reg = CountingRegister;

    fn alloc(&self) -> CountingRegister {
        // Relaxed: the index only has to be unique and follow the
        // allocation order, which one atomic's read-modify-writes give.
        let id = self.allocated.fetch_add(1, Ordering::Relaxed);
        if id == 0 {
            // The first allocation yields for a millisecond, so a racing
            // thread finds its stage half built. A waiting thread cannot say
            // so, hence a timed window; a correct table passes either way.
            let until = Instant::now() + Duration::from_millis(1);
            while Instant::now() < until {
                std::thread::yield_now();
            }
        }
        CountingRegister {
            inner: AtomicMemory.alloc(),
            ops: Arc::clone(&self.ops),
            id,
        }
    }
}

/// Runs 1 000 warm slots of an n = 2, `values`-valued instance, asserting
/// each decide's register operations: per slot, pid p proposes
/// `(slot + p) % values` (so a second proposer disagrees with the first)
/// and costs `expected[p]`, then `reset` recycles the instance. Returns
/// Theorem 10's bound for the instance's scheme.
fn pin_ops_per_decide(values: u64, expected: &[u64]) -> u64 {
    let memory = CountingMemory::default();
    let mut consensus = Consensus::builder()
        .n(2)
        .values(values)
        .memory(memory.clone())
        .build();
    let mut rng = SmallRng::seed_from_u64(values);
    // Slot 0 warms the instance up (its stages are built on first use).
    for slot in 0..=1_000u64 {
        for (pid, &ops) in expected.iter().enumerate() {
            let before = memory.ops.load(Ordering::Relaxed);
            consensus.decide_as(pid, (slot + pid as u64) % values, &mut rng);
            let counted = memory.ops.load(Ordering::Relaxed) - before;
            if slot > 0 {
                assert_eq!(counted, ops, "m = {values}, slot {slot}, pid {pid}");
            }
        }
        consensus.reset();
    }
    consensus.options_handle().scheme.individual_work_bound()
}

#[test]
fn a_solo_decide_costs_one_ratifier_at_theorem_10s_bound() {
    // Alone, a proposer decides in R₋₁: exactly one ratifier's work, which
    // meets the bound with equality (it writes all of W_v, reads and writes
    // the proposal, and scans all of R_v without a conflict).
    assert_eq!(pin_ops_per_decide(2, &[4]), 4);
    assert_eq!(pin_ops_per_decide(8, &[7]), 7);
}

#[test]
fn two_binary_proposers_in_turn_cost_eleven_operations_per_slot() {
    // The first proposer decides alone in R₋₁ (4). The second disagrees:
    // it announces its value, adopts the first's proposal, and its scan of
    // the adopted value's R_v stops at its own announcement, so R₋₁ sends
    // it on after 3 operations; alone in R₀ it decides with a full 4. Each
    // ratifier stays within Theorem 10's bound, so the second decide is
    // within two of them.
    let bound = pin_ops_per_decide(2, &[4, 7]);
    assert!(4 == bound && 7 <= 2 * bound);
}

#[test]
fn racing_threads_build_a_stage_once_and_in_order() {
    // Two threads released together into a fresh instance both enter R₋₁
    // before it exists, and the first register it allocates stalls its
    // builder. The other thread waits for the build, so each stage
    // allocates its registers once: the total is exactly the registers of
    // the stages built: R₋₁; R₀; C₁; R₁; C₂; … take 3, 3, 1, 3, 1, …
    // Both threads walk stages in index order, so the stages their
    // operations land on start at R₋₁ and never go back; that holds only
    // if each stage's registers follow the stage before.
    for round in 0..200u64 {
        let memory = CountingMemory::default();
        let consensus = Consensus::builder()
            .n(2)
            .values(2)
            .memory(memory.clone())
            .build();
        let start = Barrier::new(2);
        let walk = |pid: usize| {
            let mut rng = SmallRng::seed_from_u64(round * 2 + pid as u64);
            start.wait();
            let decided = consensus.decide_as(pid, pid as u64, &mut rng);
            (decided, TOUCHED.with(RefCell::take))
        };
        let walks = std::thread::scope(|s| {
            let first = s.spawn(|| walk(0));
            let second = s.spawn(|| walk(1));
            [first.join().unwrap(), second.join().unwrap()]
        });
        assert_eq!(walks[0].0, walks[1].0, "round {round}: agreement");
        let ends: Vec<u64> = (0..consensus.stages_used())
            .map(|stage| if stage < 2 || stage % 2 == 1 { 3 } else { 1 })
            .scan(0, |end, size| Some(*end + size).inspect(|&e| *end = e))
            .collect();
        let allocated = memory.allocated.load(Ordering::Relaxed);
        assert_eq!(Some(&allocated), ends.last(), "round {round}");
        for (_, touched) in &walks {
            let stages: Vec<usize> = touched
                .iter()
                .map(|&id| ends.partition_point(|&end| end <= id))
                .collect();
            assert!(
                stages[0] == 0 && stages.is_sorted(),
                "round {round}: {stages:?}"
            );
        }
    }
}
