//! Property tests for the canonicalizer: the canonical form must be a true
//! orbit invariant (equal on every symmetric twin of a configuration) and
//! idempotent (canonicalizing a canonical form changes nothing). Both are
//! consequences of the admitted elements forming a subgroup — the
//! stabilizer of the input vector — and these tests exercise that argument
//! on randomized configurations and register layouts.

use mc_check::canon::{encode_state, SymmetryGroup};
use mc_check::{ProcSnapshot, StateSnapshot};
use mc_model::{Decision, RegisterId, StateAtom, SymmetrySpec};
use proptest::prelude::*;

/// A register layout exercising every declared role at once: a pid-indexed
/// block at the bottom, a swap pair, and a shared value register. The pid
/// block doubles as a value block (identity permutes *and* contents swap),
/// which is the collect-ratifier shape.
fn layout(n: usize) -> SymmetrySpec {
    SymmetrySpec {
        pid_oblivious: true,
        value_symmetric: true,
        value_registers: vec![(RegisterId(0), n as u64), (RegisterId(12), 1)],
        swap_pairs: vec![(RegisterId(10), RegisterId(11))],
        pid_blocks: vec![RegisterId(0)],
    }
}

/// Maps a sampled register index onto the layout's palette.
fn reg_for(ix: u64, n: usize) -> u64 {
    match ix {
        0..=3 => ix.min(n as u64 - 1), // pid block
        4 => 10,                       // swap pair, low
        5 => 11,                       // swap pair, high
        6 => 12,                       // shared value register
        _ => 20 + ix,                  // untouched by any symmetry
    }
}

fn decision_for(code: u64) -> Option<Decision> {
    match code {
        0 => None,
        1 => Some(Decision::continue_with(0)),
        2 => Some(Decision::continue_with(1)),
        3 => Some(Decision::decide(0)),
        _ => Some(Decision::decide(1)),
    }
}

fn atom_for(tag: u64, raw: u64, value: u64) -> StateAtom {
    match tag {
        0 => StateAtom::Raw(raw),
        1 => StateAtom::Value(value),
        _ => StateAtom::MaybeValue(raw.is_multiple_of(2).then_some(value)),
    }
}

/// Builds a snapshot from flat sampled words.
fn snapshot(
    n: usize,
    memory_seed: &[(u64, u64)],
    proc_seed: &[(u64, u64, u64, u64, u64)],
) -> StateSnapshot {
    let mut memory: Vec<(u64, u64)> = Vec::new();
    for &(reg_ix, value) in memory_seed {
        let reg = reg_for(reg_ix, n);
        if memory.iter().all(|&(r, _)| r != reg) {
            memory.push((reg, value));
        }
    }
    memory.sort_unstable_by_key(|&(reg, _)| reg);
    let procs = proc_seed
        .iter()
        .take(n)
        .map(|&(raw, value, tag, ops, dec)| ProcSnapshot {
            control: vec![StateAtom::Raw(raw), atom_for(tag, raw, value)],
            ops,
            decision: decision_for(dec),
            coin_pending: ops % 2 == 1,
        })
        .collect();
    StateSnapshot { memory, procs }
}

proptest! {
    /// The canonical key is constant on the whole orbit: applying any
    /// admitted group element before canonicalizing changes nothing.
    #[test]
    fn canonical_key_is_orbit_invariant(
        inputs in prop::collection::vec(0..2u64, 2..5),
        memory_seed in prop::collection::vec((0..10u64, 0..3u64), 0..6),
        proc_seed in prop::collection::vec((0..4u64, 0..2u64, 0..3u64, 0..5u64, 0..5u64), 4..5),
    ) {
        let n = inputs.len();
        let group = SymmetryGroup::for_inputs(layout(n), &inputs, true, true);
        let state = snapshot(n, &memory_seed, &proc_seed);
        let key = group.canonical_key(&state);
        for ix in 0..group.len() {
            let twin = group.apply(&state, ix);
            prop_assert_eq!(
                &group.canonical_key(&twin),
                &key,
                "element {} broke invariance",
                ix
            );
        }
    }

    /// The canonical key is realized in the orbit: the orbit member whose
    /// encoding is least (the canonical form) encodes to the key, and
    /// canonicalizing it again is a fixed point.
    #[test]
    fn canonical_form_is_idempotent(
        inputs in prop::collection::vec(0..2u64, 2..5),
        memory_seed in prop::collection::vec((0..10u64, 0..3u64), 0..6),
        proc_seed in prop::collection::vec((0..4u64, 0..2u64, 0..3u64, 0..5u64, 0..5u64), 4..5),
    ) {
        let n = inputs.len();
        let group = SymmetryGroup::for_inputs(layout(n), &inputs, true, true);
        let state = snapshot(n, &memory_seed, &proc_seed);
        let form = (0..group.len())
            .map(|ix| group.apply(&state, ix))
            .min_by_key(encode_state)
            .expect("the group contains the identity");
        prop_assert_eq!(encode_state(&form), group.canonical_key(&state));
        prop_assert_eq!(group.canonical_key(&form), encode_state(&form));
        // And the form stays inside the orbit: its own key equals the
        // original's.
        prop_assert_eq!(group.canonical_key(&form), group.canonical_key(&state));
    }

    /// With both generator families off, the group is the identity and
    /// performs no reduction: the canonical key is the plain encoding,
    /// whatever the configuration.
    #[test]
    fn trivial_group_is_identity(
        inputs in prop::collection::vec(0..2u64, 2..5),
        memory_seed in prop::collection::vec((0..10u64, 0..3u64), 0..6),
        proc_seed in prop::collection::vec((0..4u64, 0..2u64, 0..3u64, 0..5u64, 0..5u64), 4..5),
    ) {
        let n = inputs.len();
        let group = SymmetryGroup::for_inputs(layout(n), &inputs, false, false);
        let state = snapshot(n, &memory_seed, &proc_seed);
        prop_assert_eq!(group.len(), 1);
        prop_assert_eq!(group.canonical_key(&state), encode_state(&state));
        prop_assert_eq!(group.apply(&state, 0), state);
    }
}
