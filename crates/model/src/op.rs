//! Shared-memory operations and their results.

use std::fmt;

use crate::{Probability, RegContents, RegisterId, Value};

/// A pending shared-memory operation.
///
/// Each of these costs exactly one unit of work in the paper's step-complexity
/// measures (local computation and coin flips are free). The engine in
/// `mc-sim` applies one pending operation per scheduling step.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Atomic read of a register; returns the last value written (⊥ if none).
    Read(RegisterId),
    /// Atomic write of `value` to `reg`.
    Write {
        /// Target register.
        reg: RegisterId,
        /// Value to store.
        value: Value,
    },
    /// Probabilistic write (§2.1, §5.2): the write to `reg` takes effect only
    /// with probability `prob`, decided by a local coin that is resolved
    /// *after* the scheduler commits to executing this operation.
    ///
    /// Equivalent, under a location-oblivious adversary, to randomly choosing
    /// between a real write and a write to a dummy register. Costs one unit
    /// of work whether or not the write takes effect.
    ProbWrite {
        /// Target register.
        reg: RegisterId,
        /// Value to store if the coin succeeds.
        value: Value,
        /// Probability that the write takes effect.
        prob: Probability,
    },
    /// Atomic collect of a contiguous block of registers in one step.
    ///
    /// Only legal in the *cheap-collect* model (§6.2 item 4); the default
    /// engine configuration rejects it.
    Collect {
        /// First register of the block.
        base: RegisterId,
        /// Number of registers to read.
        len: u64,
    },
}

impl Op {
    /// The kind of this operation, as observable by a value-oblivious
    /// adversary.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Read(_) => OpKind::Read,
            Op::Write { .. } => OpKind::Write,
            Op::ProbWrite { .. } => OpKind::ProbWrite,
            Op::Collect { .. } => OpKind::Collect,
        }
    }

    /// The register (or base register) this operation touches.
    pub fn register(&self) -> RegisterId {
        match self {
            Op::Read(reg) => *reg,
            Op::Write { reg, .. } => *reg,
            Op::ProbWrite { reg, .. } => *reg,
            Op::Collect { base, .. } => *base,
        }
    }

    /// The value a write-like operation would store, if any.
    pub fn written_value(&self) -> Option<Value> {
        match self {
            Op::Write { value, .. } | Op::ProbWrite { value, .. } => Some(*value),
            Op::Read(_) | Op::Collect { .. } => None,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Read(reg) => write!(f, "read({reg})"),
            Op::Write { reg, value } => write!(f, "write({reg}, {value})"),
            Op::ProbWrite { reg, value, prob } => {
                write!(f, "probwrite({reg}, {value}, p={prob})")
            }
            Op::Collect { base, len } => write!(f, "collect({base}..+{len})"),
        }
    }
}

/// The type of an operation, without its operands.
///
/// This is the granularity at which a value-oblivious adversary can
/// distinguish pending operations (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A register read.
    Read,
    /// A deterministic register write.
    Write,
    /// A probabilistic register write.
    ProbWrite,
    /// A cheap collect.
    Collect,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::ProbWrite => "probwrite",
            OpKind::Collect => "collect",
        };
        f.write_str(s)
    }
}

/// The result delivered to a session after its pending operation executes.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Result of [`Op::Read`]: the register's contents.
    Read(RegContents),
    /// Acknowledgement of [`Op::Write`].
    Write,
    /// Acknowledgement of [`Op::ProbWrite`].
    ///
    /// `performed` is `Some(outcome)` only when the engine is configured to
    /// let processes detect whether their probabilistic write took effect
    /// (the paper's footnote 2 notes this saves 2 operations); otherwise
    /// `None`.
    ProbWrite {
        /// Whether the write took effect, if detectable.
        performed: Option<bool>,
    },
    /// Result of [`Op::Collect`]: contents of each register in the block.
    Collect(Vec<RegContents>),
}

impl Response {
    /// Extracts the contents from a read response.
    ///
    /// # Panics
    ///
    /// Panics if this is not a [`Response::Read`]; sessions call this only
    /// when their own state machine guarantees the pending op was a read.
    #[track_caller]
    #[inline]
    pub fn expect_read(self) -> RegContents {
        match self {
            Response::Read(contents) => contents,
            other => panic!("expected read response, got {other:?}"),
        }
    }

    /// Extracts the block contents from a collect response.
    ///
    /// # Panics
    ///
    /// Panics if this is not a [`Response::Collect`].
    #[track_caller]
    pub fn expect_collect(self) -> Vec<RegContents> {
        match self {
            Response::Collect(contents) => contents,
            other => panic!("expected collect response, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_registers() {
        let r = RegisterId(3);
        assert_eq!(Op::Read(r).kind(), OpKind::Read);
        assert_eq!(Op::Read(r).register(), r);
        let w = Op::Write { reg: r, value: 9 };
        assert_eq!(w.kind(), OpKind::Write);
        assert_eq!(w.written_value(), Some(9));
        let pw = Op::ProbWrite {
            reg: r,
            value: 4,
            prob: Probability::clamped(0.5),
        };
        assert_eq!(pw.kind(), OpKind::ProbWrite);
        assert_eq!(pw.written_value(), Some(4));
        let c = Op::Collect { base: r, len: 8 };
        assert_eq!(c.kind(), OpKind::Collect);
        assert_eq!(c.written_value(), None);
    }

    #[test]
    fn display_forms() {
        let r = RegisterId(0);
        assert_eq!(Op::Read(r).to_string(), "read(r0)");
        assert_eq!(Op::Write { reg: r, value: 1 }.to_string(), "write(r0, 1)");
        assert_eq!(OpKind::ProbWrite.to_string(), "probwrite");
    }

    #[test]
    fn expect_read_extracts() {
        assert_eq!(Response::Read(Some(5)).expect_read(), Some(5));
    }

    #[test]
    #[should_panic(expected = "expected read response")]
    fn expect_read_panics_on_mismatch() {
        Response::Write.expect_read();
    }

    #[test]
    fn expect_collect_extracts() {
        let resp = Response::Collect(vec![None, Some(1)]);
        assert_eq!(resp.expect_collect(), vec![None, Some(1)]);
    }
}
