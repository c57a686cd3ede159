//! Tiny deciding objects used by tests, docs, and examples of the engine
//! itself. Real protocols live in `mc-core`.

use std::sync::Arc;

use mc_model::{
    Action, Ctx, DecidingObject, Decision, InstantiateCtx, ObjectSpec, Op, ProcessId, RegisterId,
    Response, Session,
};

/// Every process writes its input to one shared register, reads the
/// register, and returns whatever it read (decision bit 0).
///
/// A minimal exercise of write/read interleaving; satisfies validity and
/// termination but not agreement.
#[derive(Debug, Clone, Copy)]
pub struct WriteThenReadSpec;

struct WriteThenRead {
    reg: RegisterId,
}

impl DecidingObject for WriteThenRead {
    fn session(&self, _pid: ProcessId) -> Box<dyn Session + Send> {
        Box::new(WriteThenReadSession {
            reg: self.reg,
            wrote: false,
        })
    }
}

struct WriteThenReadSession {
    reg: RegisterId,
    wrote: bool,
}

impl Session for WriteThenReadSession {
    fn begin(&mut self, input: u64, _ctx: &mut Ctx<'_>) -> Action {
        Action::Invoke(Op::Write {
            reg: self.reg,
            value: input,
        })
    }

    fn poll(&mut self, response: Response, _ctx: &mut Ctx<'_>) -> Action {
        if !self.wrote {
            self.wrote = true;
            debug_assert!(matches!(response, Response::Write));
            Action::Invoke(Op::Read(self.reg))
        } else {
            let read = response.expect_read().expect("someone wrote first");
            Action::Halt(Decision::continue_with(read))
        }
    }
}

impl ObjectSpec for WriteThenReadSpec {
    fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        Arc::new(WriteThenRead {
            reg: ctx.alloc.alloc_block(1),
        })
    }

    fn name(&self) -> String {
        "write-then-read".to_string()
    }
}

/// Reads one register forever; never halts. Exists to test step limits.
#[derive(Debug, Clone, Copy)]
pub struct SpinSpec;

struct Spin {
    reg: RegisterId,
}

impl DecidingObject for Spin {
    fn session(&self, _pid: ProcessId) -> Box<dyn Session + Send> {
        Box::new(SpinSession { reg: self.reg })
    }
}

struct SpinSession {
    reg: RegisterId,
}

impl Session for SpinSession {
    fn begin(&mut self, _input: u64, _ctx: &mut Ctx<'_>) -> Action {
        Action::Invoke(Op::Read(self.reg))
    }

    fn poll(&mut self, _response: Response, _ctx: &mut Ctx<'_>) -> Action {
        Action::Invoke(Op::Read(self.reg))
    }
}

impl ObjectSpec for SpinSpec {
    fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        Arc::new(Spin {
            reg: ctx.alloc.alloc_block(1),
        })
    }

    fn name(&self) -> String {
        "spin".to_string()
    }
}

/// Writes its input to its own register, then collects the whole block and
/// returns the first non-⊥ value. Exercises [`Op::Collect`].
#[derive(Debug, Clone, Copy)]
pub struct CollectOnceSpec;

struct CollectOnce {
    base: RegisterId,
    n: u64,
}

impl DecidingObject for CollectOnce {
    fn session(&self, pid: ProcessId) -> Box<dyn Session + Send> {
        Box::new(CollectOnceSession {
            base: self.base,
            n: self.n,
            pid,
            wrote: false,
        })
    }
}

struct CollectOnceSession {
    base: RegisterId,
    n: u64,
    pid: ProcessId,
    wrote: bool,
}

impl Session for CollectOnceSession {
    fn begin(&mut self, input: u64, _ctx: &mut Ctx<'_>) -> Action {
        Action::Invoke(Op::Write {
            reg: self.base.offset(self.pid.index() as u64),
            value: input,
        })
    }

    fn poll(&mut self, response: Response, _ctx: &mut Ctx<'_>) -> Action {
        if !self.wrote {
            self.wrote = true;
            Action::Invoke(Op::Collect {
                base: self.base,
                len: self.n,
            })
        } else {
            let seen = response.expect_collect();
            let first = seen
                .into_iter()
                .flatten()
                .next()
                .expect("own write visible");
            Action::Halt(Decision::continue_with(first))
        }
    }
}

impl ObjectSpec for CollectOnceSpec {
    fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        Arc::new(CollectOnce {
            base: ctx.alloc.alloc_block(ctx.n as u64),
            n: ctx.n as u64,
        })
    }

    fn name(&self) -> String {
        "collect-once".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_model::BlockAlloc;

    #[test]
    fn specs_have_names() {
        assert_eq!(WriteThenReadSpec.name(), "write-then-read");
        assert_eq!(SpinSpec.name(), "spin");
        assert_eq!(CollectOnceSpec.name(), "collect-once");
    }

    #[test]
    fn collect_once_allocates_n_registers() {
        let mut alloc = BlockAlloc::new();
        let _obj = CollectOnceSpec.instantiate(&mut InstantiateCtx::new(4, &mut alloc));
        assert_eq!(alloc.allocated(), 4);
    }
}
