//! Shared-memory model types for modular consensus.
//!
//! This crate defines the vocabulary of the asynchronous shared-memory model
//! used throughout the `modular-consensus` workspace, following the model of
//! Aspnes, *A Modular Approach to Shared-Memory Consensus, with Applications
//! to the Probabilistic-Write Model* (PODC 2010), §2–§3:
//!
//! * `n` processes communicate by reading and writing atomic multiwriter
//!   [registers](RegisterId); each read returns the last value written.
//! * Each live process has exactly one pending [operation](Op); an execution
//!   is built by repeatedly applying pending operations, in an order chosen by
//!   an adversary scheduler (implemented in `mc-sim`).
//! * Processes have private *local coins* that no adversary can predict;
//!   local computation (including coin flips) is free.
//! * The probabilistic-write model adds [`Op::ProbWrite`]: a write that takes
//!   effect only with some probability, where the adversary must commit to
//!   scheduling the operation before the coin is resolved.
//!
//! Protocols are expressed as [`Session`] state machines: the simulator (or
//! any other driver) repeatedly executes the session's pending operation and
//! feeds back the [`Response`], until the session halts with a
//! [`Decision`] `(d, v)` — the *deciding object* interface of §3. Every
//! execution substrate performs an operation through one rule,
//! [`Memory::perform`], over the register file [`Memory`].
//!
//! The consensus correctness properties (validity, agreement, coherence,
//! acceptance, probabilistic agreement) are checkable via the
//! [`properties`] module.
//!
//! # Example
//!
//! A trivial deciding object that copies its input to its output without
//! deciding (the "very weak indeed" weak consensus object of §3):
//!
//! ```
//! use mc_model::{Action, Ctx, Decision, Response, Session, Value};
//!
//! struct Copy;
//!
//! impl Session for Copy {
//!     fn begin(&mut self, input: Value, _ctx: &mut Ctx<'_>) -> Action {
//!         Action::Halt(Decision::continue_with(input))
//!     }
//!     fn poll(&mut self, _response: Response, _ctx: &mut Ctx<'_>) -> Action {
//!         unreachable!("Copy performs no shared-memory operations")
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decision;
mod ids;
mod memory;
mod object;
mod op;
pub mod properties;
mod session;
pub mod state;
mod value;

pub use decision::Decision;
pub use ids::{mix_seed, ProcessId, RegisterId};
pub use memory::Memory;
pub use object::{BlockAlloc, DecidingObject, InstantiateCtx, ObjectSpec, RegisterAlloc};
pub use op::{Op, OpKind, Response};
pub use properties::PropertyViolation;
pub use session::{Action, Ctx, Session};
pub use state::{StateAtom, StateSink, SymmetrySpec};
pub use value::{Probability, ProbabilityError, RegContents, Value};
