//! Test objects shared by the path engine's and the graph engine's unit
//! tests. The broken and busy objects are snapshot-capable, so both
//! engines check the same objects; the copy object is the snapshotless one.

use std::sync::Arc;

use mc_model::{
    Action, Ctx, DecidingObject, Decision, InstantiateCtx, ObjectSpec, Op, ProcessId, RegisterId,
    Response, Session, StateSink, SymmetrySpec,
};

/// Always halts immediately with its input, never deciding. Its sessions
/// take no snapshot.
pub(crate) struct CopySpec;
struct CopyObj;
struct CopySession;

impl DecidingObject for CopyObj {
    fn session(&self, _pid: ProcessId) -> Box<dyn Session + Send> {
        Box::new(CopySession)
    }
}
impl Session for CopySession {
    fn begin(&mut self, input: u64, _ctx: &mut Ctx<'_>) -> Action {
        Action::Halt(Decision::continue_with(input))
    }
    fn poll(&mut self, _r: Response, _ctx: &mut Ctx<'_>) -> Action {
        unreachable!()
    }
}
impl ObjectSpec for CopySpec {
    fn instantiate(&self, _ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        Arc::new(CopyObj)
    }
}

/// A broken object: write own input, then decide it unconditionally —
/// violates coherence on split inputs.
pub(crate) struct BrokenSpec;
struct BrokenObj {
    reg: RegisterId,
}
struct BrokenSession {
    input: u64,
    reg: RegisterId,
}

impl DecidingObject for BrokenObj {
    fn session(&self, _pid: ProcessId) -> Box<dyn Session + Send> {
        Box::new(BrokenSession {
            input: 0,
            reg: self.reg,
        })
    }
    fn symmetry(&self) -> SymmetrySpec {
        SymmetrySpec {
            pid_oblivious: true,
            value_symmetric: true,
            value_registers: vec![(self.reg, 1)],
            ..SymmetrySpec::default()
        }
    }
}
impl Session for BrokenSession {
    fn begin(&mut self, input: u64, _ctx: &mut Ctx<'_>) -> Action {
        self.input = input;
        Action::Invoke(Op::Write {
            reg: self.reg,
            value: input,
        })
    }
    fn poll(&mut self, _r: Response, _ctx: &mut Ctx<'_>) -> Action {
        Action::Halt(Decision::decide(self.input))
    }
    fn snapshot(&self, sink: &mut StateSink) {
        sink.push_value(self.input);
    }
}
impl ObjectSpec for BrokenSpec {
    fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        Arc::new(BrokenObj {
            reg: ctx.alloc.alloc_block(1),
        })
    }
    fn name(&self) -> String {
        "broken".into()
    }
}

/// Benign multi-op object: write input to a per-pid register, read it back
/// twice, halt without deciding. Many interleavings, no violations.
pub(crate) struct BusySpec;
struct BusyObj {
    base: RegisterId,
    n: usize,
}
struct BusySession {
    base: RegisterId,
    pid: ProcessId,
    input: u64,
    reads: u8,
}

impl DecidingObject for BusyObj {
    fn session(&self, pid: ProcessId) -> Box<dyn Session + Send> {
        Box::new(BusySession {
            base: self.base,
            pid,
            input: 0,
            reads: 0,
        })
    }
    fn symmetry(&self) -> SymmetrySpec {
        SymmetrySpec {
            pid_oblivious: true,
            value_symmetric: true,
            value_registers: vec![(self.base, self.n as u64)],
            pid_blocks: vec![self.base],
            ..SymmetrySpec::default()
        }
    }
}
impl Session for BusySession {
    fn begin(&mut self, input: u64, _ctx: &mut Ctx<'_>) -> Action {
        self.input = input;
        Action::Invoke(Op::Write {
            reg: self.base.offset(self.pid.index() as u64),
            value: input,
        })
    }
    fn poll(&mut self, _r: Response, _ctx: &mut Ctx<'_>) -> Action {
        if self.reads < 2 {
            self.reads += 1;
            Action::Invoke(Op::Read(self.base.offset(self.pid.index() as u64)))
        } else {
            Action::Halt(Decision::continue_with(self.input))
        }
    }
    fn snapshot(&self, sink: &mut StateSink) {
        sink.push_value(self.input);
        sink.push_raw(u64::from(self.reads));
    }
}
impl ObjectSpec for BusySpec {
    fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        Arc::new(BusyObj {
            base: ctx.alloc.alloc_block(ctx.n as u64),
            n: ctx.n,
        })
    }
    fn name(&self) -> String {
        "busy".into()
    }
}
