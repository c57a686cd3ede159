//! State snapshot and symmetry hooks for graph-based model checking.
//!
//! A path-based checker re-executes scripts and never needs to *compare*
//! configurations; a graph-based checker (`mc-check`'s `GraphExplorer`)
//! deduplicates configurations by hashing them, which requires two things
//! of an object that the opaque [`Session`](crate::Session) interface does
//! not provide:
//!
//! 1. **A control-state snapshot.** [`Session::snapshot`](crate::Session::snapshot)
//!    appends the session's control state to a [`StateSink`] as a sequence
//!    of tagged [`StateAtom`]s. Two sessions of the same object with equal
//!    atom sequences must behave identically on every future
//!    response — the snapshot is the session's state-machine configuration,
//!    not a debug dump. Fields derivable from other snapshotted fields
//!    (e.g. a quorum vector recomputed from a snapshotted preference) may
//!    be omitted; constants of the object must be.
//! 2. **A symmetry certificate.** [`DecidingObject::symmetry`](crate::DecidingObject::symmetry)
//!    returns a [`SymmetrySpec`] declaring which structural symmetries the
//!    object's *code* respects, so the checker may identify configurations
//!    that differ only by a process-id permutation or a binary value swap.
//!
//! Both hooks have conservative defaults (snapshot unsupported, no
//! symmetries), so existing objects keep working with the path-based
//! checker and simply opt out of the graph engine.
//!
//! # Why atoms are tagged
//!
//! A value swap must rewrite *values* held in control state (inputs,
//! preferences) while leaving opaque counters and state discriminants
//! alone. Tagging each atom as [`Raw`](StateAtom::Raw),
//! [`Value`](StateAtom::Value), or [`MaybeValue`](StateAtom::MaybeValue)
//! lets the canonicalizer apply a symmetry transform to a snapshot without
//! knowing anything else about the session.

use crate::{RegContents, RegisterId, Value};

/// One tagged word of session control state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateAtom {
    /// An opaque word (state discriminant, counter, boolean): never
    /// rewritten by symmetry transforms.
    Raw(u64),
    /// A consensus value (input, preference): rewritten by value swaps.
    Value(Value),
    /// An optional consensus value (e.g. a cached register read).
    MaybeValue(RegContents),
}

/// Collects a session's control-state snapshot.
///
/// Produced atoms are order-significant: the checker compares snapshots as
/// sequences, so a session must always emit its atoms in the same order.
#[derive(Debug, Default)]
pub struct StateSink {
    atoms: Vec<StateAtom>,
    unsupported: bool,
}

impl StateSink {
    /// Creates an empty sink.
    pub fn new() -> StateSink {
        StateSink::default()
    }

    /// Appends an opaque word.
    pub fn push_raw(&mut self, word: u64) {
        self.atoms.push(StateAtom::Raw(word));
    }

    /// Appends a consensus value.
    pub fn push_value(&mut self, value: Value) {
        self.atoms.push(StateAtom::Value(value));
    }

    /// Appends an optional consensus value.
    pub fn push_maybe_value(&mut self, value: RegContents) {
        self.atoms.push(StateAtom::MaybeValue(value));
    }

    /// Marks the snapshot as unsupported (the default
    /// [`Session::snapshot`](crate::Session::snapshot) does this); the
    /// graph checker then rejects the object instead of mis-deduplicating.
    pub fn mark_unsupported(&mut self) {
        self.unsupported = true;
    }

    /// The collected atoms, or `None` if the snapshot is unsupported.
    pub fn finish(self) -> Option<Vec<StateAtom>> {
        if self.unsupported {
            None
        } else {
            Some(self.atoms)
        }
    }
}

/// The structural symmetries an object's code respects, as certified by
/// [`DecidingObject::symmetry`](crate::DecidingObject::symmetry).
///
/// A symmetry here is a transformation of whole configurations that
/// commutes with every transition of the object — applying it to a
/// reachable configuration yields another reachable configuration with an
/// isomorphic future. The checker only ever applies transformations that
/// also fix the input vector, so the certificate is about *code
/// structure*, not about the correctness of any particular run: a buggy
/// but structurally symmetric object still has its violations found (on a
/// representative of each symmetry class).
///
/// Register roles must be disjoint between [`pid_blocks`](Self::pid_blocks)
/// and [`swap_pairs`](Self::swap_pairs); a register may additionally appear
/// in [`value_registers`](Self::value_registers) (its *contents* are values
/// while its *identity* permutes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymmetrySpec {
    /// The object's sessions do not condition behavior on the process id
    /// (beyond indexing registers declared in
    /// [`pid_blocks`](Self::pid_blocks)), so process-id permutations are
    /// symmetries.
    pub pid_oblivious: bool,
    /// The object treats the values 0 and 1 opaquely (up to the register
    /// renaming in [`swap_pairs`](Self::swap_pairs)), so the binary value
    /// swap `0 ↔ 1` is a symmetry when every input is binary.
    pub value_symmetric: bool,
    /// Register blocks `(base, len)` whose *contents* are consensus values
    /// (rewritten by value swaps).
    pub value_registers: Vec<(RegisterId, u64)>,
    /// Register pairs whose *identities* are exchanged by the binary value
    /// swap (e.g. the per-value announcement slots of a quorum ratifier).
    pub swap_pairs: Vec<(RegisterId, RegisterId)>,
    /// Bases of `n`-register blocks indexed by process id, one register
    /// per process; a process-id permutation permutes the block the same
    /// way.
    pub pid_blocks: Vec<RegisterId>,
}

impl SymmetrySpec {
    /// The conservative default: no symmetries claimed.
    pub fn asymmetric() -> SymmetrySpec {
        SymmetrySpec::default()
    }

    /// The identity element for [`merge`](Self::merge): full symmetry with
    /// no registers. Suitable for an empty composition.
    pub fn fully_symmetric() -> SymmetrySpec {
        SymmetrySpec {
            pid_oblivious: true,
            value_symmetric: true,
            ..SymmetrySpec::default()
        }
    }

    /// Combines the certificate of a composed part into `self`: flags are
    /// AND-ed (the composite only has the symmetries every part has) and
    /// register declarations are concatenated.
    pub fn merge(&mut self, part: &SymmetrySpec) {
        self.pid_oblivious &= part.pid_oblivious;
        self.value_symmetric &= part.value_symmetric;
        self.value_registers
            .extend_from_slice(&part.value_registers);
        self.swap_pairs.extend_from_slice(&part.swap_pairs);
        self.pid_blocks.extend_from_slice(&part.pid_blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_collects_in_order() {
        let mut sink = StateSink::new();
        sink.push_raw(3);
        sink.push_value(1);
        sink.push_maybe_value(None);
        assert_eq!(
            sink.finish(),
            Some(vec![
                StateAtom::Raw(3),
                StateAtom::Value(1),
                StateAtom::MaybeValue(None)
            ])
        );
    }

    #[test]
    fn unsupported_snapshot_yields_none() {
        let mut sink = StateSink::new();
        sink.push_raw(1);
        sink.mark_unsupported();
        assert_eq!(sink.finish(), None);
    }

    #[test]
    fn merge_ands_flags_and_concatenates_registers() {
        let mut spec = SymmetrySpec::fully_symmetric();
        spec.value_registers.push((RegisterId(0), 1));
        let part = SymmetrySpec {
            pid_oblivious: true,
            value_symmetric: false,
            value_registers: vec![(RegisterId(5), 2)],
            swap_pairs: vec![(RegisterId(1), RegisterId(2))],
            pid_blocks: vec![RegisterId(7)],
        };
        spec.merge(&part);
        assert!(spec.pid_oblivious);
        assert!(!spec.value_symmetric);
        assert_eq!(
            spec.value_registers,
            vec![(RegisterId(0), 1), (RegisterId(5), 2)]
        );
        assert_eq!(spec.swap_pairs, vec![(RegisterId(1), RegisterId(2))]);
        assert_eq!(spec.pid_blocks, vec![RegisterId(7)]);
    }
}
