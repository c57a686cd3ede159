//! Property-based tests of the model itself: the register file's step rule
//! against a reference map, and the logical implications between the
//! paper's correctness properties on arbitrary input/output vectors.

use std::collections::HashMap;

use mc_model::{properties, Decision, Memory, Op, RegisterId, Response, Value};
use proptest::prelude::*;

fn arb_decision() -> impl Strategy<Value = Decision> {
    (any::<bool>(), 0u64..6).prop_map(|(d, v)| {
        if d {
            Decision::decide(v)
        } else {
            Decision::continue_with(v)
        }
    })
}

proptest! {
    /// The register file agrees with a reference map under arbitrary
    /// write/read sequences (last write wins, ⊥ until first write).
    #[test]
    fn memory_matches_reference_model(ops in prop::collection::vec((0u64..32, 0u64..1000), 0..200)) {
        let mut memory = Memory::new();
        let mut reference = HashMap::new();
        let read = |memory: &mut Memory, reg| {
            memory.perform(&Op::Read(RegisterId(reg)), |_| unreachable!()).0
        };
        for (reg, value) in ops {
            // Interleave a read check before each write.
            prop_assert_eq!(read(&mut memory, reg), Response::Read(reference.get(&reg).copied()));
            memory.perform(&Op::Write { reg: RegisterId(reg), value }, |_| unreachable!());
            reference.insert(reg, value);
        }
        for reg in 0..32 {
            prop_assert_eq!(read(&mut memory, reg), Response::Read(reference.get(&reg).copied()));
        }
        prop_assert_eq!(memory.written_count(), reference.len());
    }

    /// Full consensus implies weak consensus.
    #[test]
    fn consensus_implies_weak_consensus(
        inputs in prop::collection::vec(0u64..6, 1..8),
        outputs in prop::collection::vec(arb_decision(), 1..8),
    ) {
        if properties::check_consensus(&inputs, &outputs).is_ok() {
            prop_assert!(properties::check_weak_consensus(&inputs, &outputs).is_ok());
        }
    }

    /// Agreement plus a decider implies coherence.
    #[test]
    fn agreement_implies_coherence(outputs in prop::collection::vec(arb_decision(), 0..8)) {
        if properties::check_agreement(&outputs).is_ok() {
            prop_assert!(properties::check_coherence(&outputs).is_ok());
        }
    }

    /// Coherence with at least one decider implies agreement.
    #[test]
    fn coherence_with_decider_implies_agreement(outputs in prop::collection::vec(arb_decision(), 0..8)) {
        let decided = outputs.iter().any(|d| d.is_decided());
        if decided && properties::check_coherence(&outputs).is_ok() {
            prop_assert!(properties::check_agreement(&outputs).is_ok());
        }
    }

    /// Acceptance passing on unanimous inputs implies agreement and full
    /// decision.
    #[test]
    fn acceptance_on_unanimous_implies_decided_agreement(
        v in 0u64..6,
        n in 1usize..8,
        outputs in prop::collection::vec(arb_decision(), 1..8),
    ) {
        let inputs: Vec<Value> = vec![v; n];
        if outputs.len() == n && properties::check_acceptance(&inputs, &outputs).is_ok() {
            // Everyone decided, validly, in agreement.
            prop_assert!(properties::check_consensus(&inputs, &outputs).is_ok());
        }
    }

    /// Validity is monotone in the input set: adding inputs never breaks it.
    #[test]
    fn validity_is_monotone_in_inputs(
        inputs in prop::collection::vec(0u64..6, 1..8),
        extra in prop::collection::vec(0u64..6, 0..4),
        outputs in prop::collection::vec(arb_decision(), 0..8),
    ) {
        if properties::check_validity(&inputs, &outputs).is_ok() {
            let mut bigger = inputs.clone();
            bigger.extend(extra);
            prop_assert!(properties::check_validity(&bigger, &outputs).is_ok());
        }
    }

    /// The checkers never panic on arbitrary vectors (total functions).
    #[test]
    fn checkers_are_total(
        inputs in prop::collection::vec(any::<u64>(), 0..8),
        outputs in prop::collection::vec(arb_decision(), 0..8),
    ) {
        let _ = properties::check_validity(&inputs, &outputs);
        let _ = properties::check_agreement(&outputs);
        let _ = properties::check_coherence(&outputs);
        let _ = properties::check_acceptance(&inputs, &outputs);
        let _ = properties::check_consensus(&inputs, &outputs);
        let _ = properties::check_weak_consensus(&inputs, &outputs);
    }
}
