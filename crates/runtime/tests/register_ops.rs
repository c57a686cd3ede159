//! A decide costs its register operations — the paper's unit of work —
//! counted exactly by a `SharedMemory` under a warm n = 2 instance that
//! every slot recycles with `reset`, as the store's slot pool does. A change
//! that adds or drops an operation on the decide path names itself here,
//! whatever the host's timings do. Theorem 10 bounds one ratifier's work by
//! `|W_v| + |R_v| + 2` (`QuorumScheme::individual_work_bound`): 4 for the
//! binary scheme's 3 registers, 7 for m = 8's 5-register binomial pool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mc_model::Probability;
use mc_runtime::{AtomicMemory, AtomicRegister, Consensus, SharedMemory, SharedRegister};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `AtomicMemory` whose registers bump one shared tally per operation.
#[derive(Clone, Default)]
struct CountingMemory(Arc<AtomicU64>);

struct CountingRegister {
    inner: AtomicRegister,
    ops: Arc<AtomicU64>,
}

impl SharedRegister for CountingRegister {
    fn read(&self) -> Option<u64> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.inner.read()
    }

    fn write(&self, value: u64) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.inner.write(value);
    }

    fn prob_write(&self, value: u64, prob: Probability, rng: &mut dyn Rng) -> bool {
        self.ops.fetch_add(1, Ordering::Relaxed);
        SharedRegister::prob_write(&self.inner, value, prob, rng)
    }

    fn generation(&self) -> u64 {
        SharedRegister::generation(&self.inner)
    }

    fn retire_to(&mut self, generation: u64) {
        self.inner.retire_to(generation);
    }
}

impl SharedMemory for CountingMemory {
    type Reg = CountingRegister;

    fn alloc_in_generation(&self, generation: u64) -> CountingRegister {
        CountingRegister {
            inner: AtomicMemory.alloc_in_generation(generation),
            ops: Arc::clone(&self.0),
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
            let before = memory.0.load(Ordering::Relaxed);
            consensus.decide_as(pid, (slot + pid as u64) % values, &mut rng);
            let counted = memory.0.load(Ordering::Relaxed) - before;
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
