//! The session state-machine interface that protocols implement.

use rand::Rng;

use crate::{Decision, Op, RegisterAlloc, Response, StateSink, Value};

/// What a session wants to do next.
#[derive(Debug)]
pub enum Action {
    /// Perform a shared-memory operation; the driver will call
    /// [`Session::poll`] with its [`Response`].
    Invoke(Op),
    /// Terminate with the deciding-object output `(d, v)`.
    Halt(Decision),
}

/// Per-step context handed to a session: its private coin source and the
/// register allocator (for lazily instantiated object chains).
///
/// The RNG is the process's *local coin* (§2): free to use, invisible to and
/// unpredictable by every adversary class. Determinism of a whole run follows
/// from each process owning a seeded RNG stream.
pub struct Ctx<'a> {
    /// The process's private coin source.
    pub rng: &'a mut dyn Rng,
    /// Allocator for fresh registers (used by lazily growing compositions).
    pub alloc: &'a mut dyn RegisterAlloc,
}

impl<'a> Ctx<'a> {
    /// Creates a context from its parts.
    pub fn new(rng: &'a mut dyn Rng, alloc: &'a mut dyn RegisterAlloc) -> Ctx<'a> {
        Ctx { rng, alloc }
    }
}

/// A per-process run of a one-shot deciding object, expressed as a state
/// machine.
///
/// The driver calls [`begin`](Session::begin) exactly once with the process's
/// input, then alternates executing the returned operation and calling
/// [`poll`](Session::poll) with its result, until the session returns
/// [`Action::Halt`]. After halting, no further calls are made.
///
/// Sessions perform *at most one operation at a time* — exactly the paper's
/// model where each non-halted process has one pending operation.
pub trait Session {
    /// Starts the session with the process's input value.
    fn begin(&mut self, input: Value, ctx: &mut Ctx<'_>) -> Action;

    /// Continues the session with the result of its last operation.
    fn poll(&mut self, response: Response, ctx: &mut Ctx<'_>) -> Action;

    /// Appends this session's control state to `sink` as tagged atoms, for
    /// graph-based model checking (see [`crate::state`]).
    ///
    /// Two sessions of the same object with equal atom sequences must be
    /// behaviorally identical on every future response. The default marks
    /// the snapshot unsupported, which makes the graph checker reject the
    /// object rather than risk unsound deduplication.
    fn snapshot(&self, sink: &mut StateSink) {
        sink.mark_unsupported();
    }
}
