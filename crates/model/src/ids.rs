//! Identifiers for processes and registers.

use std::fmt;

/// Identifier of a process in an `n`-process system.
///
/// Process ids are dense indices `0..n`; the simulator and the thread runtime
/// both use them to index per-process state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// Returns the dense index of this process.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(ix: usize) -> Self {
        ProcessId(ix)
    }
}

/// Identifier of an atomic multiwriter register.
///
/// Registers live in a flat address space owned by the execution engine.
/// Objects obtain contiguous blocks of registers from a
/// [`RegisterAlloc`](crate::RegisterAlloc) at instantiation time and address
/// into a block with [`RegisterId::offset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegisterId(pub u64);

impl RegisterId {
    /// Returns the register `delta` slots past this one.
    ///
    /// # Panics
    ///
    /// Panics on address-space overflow (debug builds); the register address
    /// space is `u64`, so this never fires in practice.
    #[inline]
    pub fn offset(self, delta: u64) -> RegisterId {
        RegisterId(self.0 + delta)
    }

    /// Returns the raw address of this register.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RegisterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Derives stream `stream`'s seed from a run seed (SplitMix64 finaliser),
/// keeping streams decorrelated even for adjacent seeds.
///
/// The one mixer every substrate shares: the sim engine, the lab workers
/// and the checker's replay seed process `pid`'s coins from
/// `mix_seed(seed, pid)`, so coin streams line up operation for operation
/// across them; the runtime service derives its retry-jitter, chaos-phase
/// and per-restart streams the same way.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_roundtrip() {
        let p = ProcessId::from(7);
        assert_eq!(p.index(), 7);
        assert_eq!(p.to_string(), "p7");
    }

    #[test]
    fn register_offset() {
        let r = RegisterId(10);
        assert_eq!(r.offset(5), RegisterId(15));
        assert_eq!(r.raw(), 10);
        assert_eq!(r.to_string(), "r10");
    }

    #[test]
    fn ordering_is_by_index() {
        assert!(ProcessId(1) < ProcessId(2));
        assert!(RegisterId(1) < RegisterId(2));
    }
}
