//! Deciding objects and their factories.

use std::any::Any;
use std::sync::Arc;

use crate::{ProcessId, RegisterId, Session, SymmetrySpec};

/// Allocates blocks of fresh registers from the engine's address space.
///
/// Register ids are never reused within a run; wait-free one-shot objects
/// never need to reset registers (which would be unsafe under asynchrony).
pub trait RegisterAlloc {
    /// Reserves `len` contiguous registers and returns the id of the first.
    fn alloc_block(&mut self, len: u64) -> RegisterId;
}

/// A trivial bump allocator over the flat register address space.
///
/// The simulator's memory grows on demand, so allocation is just a counter.
#[derive(Debug, Clone, Default)]
pub struct BlockAlloc {
    next: u64,
}

impl BlockAlloc {
    /// Creates an allocator starting at address 0.
    pub fn new() -> BlockAlloc {
        BlockAlloc::default()
    }

    /// Number of registers allocated so far.
    pub fn allocated(&self) -> u64 {
        self.next
    }
}

impl RegisterAlloc for BlockAlloc {
    fn alloc_block(&mut self, len: u64) -> RegisterId {
        let base = self.next;
        self.next = self
            .next
            .checked_add(len)
            .expect("register address space exhausted");
        RegisterId(base)
    }
}

/// Context available while instantiating an object: the number of processes
/// and a register allocator.
pub struct InstantiateCtx<'a> {
    /// Number of processes that may access the object.
    pub n: usize,
    /// Allocator for the object's registers.
    pub alloc: &'a mut dyn RegisterAlloc,
}

impl<'a> InstantiateCtx<'a> {
    /// Creates an instantiation context.
    pub fn new(n: usize, alloc: &'a mut dyn RegisterAlloc) -> InstantiateCtx<'a> {
        InstantiateCtx { n, alloc }
    }
}

/// The shared part of an instantiated one-shot deciding object: its register
/// layout plus any cross-process bookkeeping (e.g. lazy chain caches).
///
/// Each process obtains its own [`Session`] via [`session`]; the object
/// itself holds no per-process state.
///
/// The `Any` supertrait lets a composite recognise a stage object it can
/// drive in place; every implementor is `'static`, as an
/// `Arc<dyn DecidingObject>` requires anyway.
///
/// [`session`]: DecidingObject::session
pub trait DecidingObject: Any + Send + Sync {
    /// Creates the per-process state machine for process `pid`.
    fn session(&self, pid: ProcessId) -> Box<dyn Session + Send>;

    /// Certifies which structural symmetries this object's code respects
    /// (see [`SymmetrySpec`]). The default claims none, which disables
    /// symmetry reduction but never soundness.
    ///
    /// Lazily growing objects may return a certificate covering only the
    /// registers instantiated *so far*; the graph checker re-queries after
    /// every step, and registers of uninstantiated stages are untouched by
    /// definition.
    fn symmetry(&self) -> SymmetrySpec {
        SymmetrySpec::asymmetric()
    }
}

/// A factory for deciding objects: allocates registers and builds the shared
/// state for a fresh instance.
///
/// Specs are reusable across runs; each call to
/// [`instantiate`](ObjectSpec::instantiate) produces an independent object.
pub trait ObjectSpec: Send + Sync {
    /// Builds a fresh instance of the object for `ctx.n` processes.
    fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject>;

    /// A short human-readable name for diagnostics and experiment tables.
    fn name(&self) -> String {
        "object".to_string()
    }
}

impl<S: ObjectSpec + ?Sized> ObjectSpec for Arc<S> {
    fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        (**self).instantiate(ctx)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation_is_contiguous() {
        let mut a = BlockAlloc::new();
        assert_eq!(a.alloc_block(3), RegisterId(0));
        assert_eq!(a.alloc_block(1), RegisterId(3));
        assert_eq!(a.alloc_block(0), RegisterId(4));
        assert_eq!(a.allocated(), 4);
    }
}
