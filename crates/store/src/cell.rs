//! The response cell a submitted command's caller waits on.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use mc_runtime::clock;

use crate::error::StoreError;

/// One command's response slot: filled exactly once by the apply worker
/// (or by teardown), waited on by the submitting client. First fill wins;
/// later fills are ignored, which makes teardown's blanket error fill
/// safe against a response that raced it.
///
/// The waiter count lives inside the mutex so `fill` can skip the condvar
/// notification entirely when nobody is blocked — the overwhelmingly
/// common case under pipelined load, where responses land long before the
/// producer reaches its `wait` call. A waiter registers itself under the
/// same lock before blocking, so `fill` can never miss one.
pub(crate) struct ResponseCell<R> {
    slot: Mutex<Slot<R>>,
    cv: Condvar,
}

struct Slot<R> {
    value: Option<Result<R, StoreError>>,
    waiters: u32,
}

impl<R: Clone> ResponseCell<R> {
    pub(crate) fn new() -> ResponseCell<R> {
        ResponseCell {
            slot: Mutex::new(Slot {
                value: None,
                waiters: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Fills the cell if still empty and wakes every waiter.
    pub(crate) fn fill(&self, result: Result<R, StoreError>) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.value.is_none() {
            slot.value = Some(result);
            if slot.waiters > 0 {
                self.cv.notify_all();
            }
        }
    }

    fn read(&self) -> Option<Result<R, StoreError>> {
        self.slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .value
            .clone()
    }

    fn wait(&self) -> Result<R, StoreError> {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.value.as_ref() {
                return result.clone();
            }
            // Wait site (client). Predicate, checked above under the slot
            // mutex: the value is present. Only `fill` makes it true, and
            // it notifies iff `waiters`, raised here under the same mutex,
            // is nonzero.
            slot.waiters += 1;
            slot = self.cv.wait(slot).unwrap_or_else(PoisonError::into_inner);
            slot.waiters -= 1;
        }
    }

    fn wait_timeout(&self, timeout: Duration) -> Result<R, StoreError> {
        let deadline = clock::deadline_within(timeout);
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.value.as_ref() {
                return result.clone();
            }
            let now = clock::now();
            if now >= deadline {
                return Err(StoreError::Timeout);
            }
            // Wait site (client), as in `wait`, bounded by the deadline.
            slot.waiters += 1;
            let (next, _) = self
                .cv
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            slot = next;
            slot.waiters -= 1;
        }
    }
}

/// A handle on one submitted command's eventual response.
///
/// The response is released when the apply worker applies the command
/// (or serves it from the session table's duplicate cache) — never
/// earlier, which is what makes lease-gated fast reads linearizable.
pub struct CommandHandle<R> {
    cell: Arc<ResponseCell<R>>,
}

impl<R: Clone> CommandHandle<R> {
    pub(crate) fn new(cell: Arc<ResponseCell<R>>) -> CommandHandle<R> {
        CommandHandle { cell }
    }

    /// The response if it already arrived, without blocking.
    pub fn poll(&self) -> Option<Result<R, StoreError>> {
        self.cell.read()
    }

    /// Blocks until the command is applied and its response released.
    ///
    /// # Errors
    ///
    /// [`StoreError::Stale`] when the sequence number predates the
    /// session's cache; [`StoreError::Shutdown`] /
    /// [`StoreError::Ordering`] when the store tore down or the consensus
    /// path failed before the command could be applied.
    pub fn wait(&self) -> Result<R, StoreError> {
        self.cell.wait()
    }

    /// Blocks until the response arrives or `timeout` elapses — computed
    /// through the shared [`clock`](mc_runtime::clock) helper, like every
    /// deadline in the runtime.
    ///
    /// # Errors
    ///
    /// [`StoreError::Timeout`] when the wait elapsed (the command is
    /// still in flight; waiting again can succeed), otherwise as
    /// [`wait`](CommandHandle::wait).
    pub fn wait_timeout(&self, timeout: Duration) -> Result<R, StoreError> {
        self.cell.wait_timeout(timeout)
    }
}

impl<R> std::fmt::Debug for CommandHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = if self
            .cell
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .value
            .is_some()
        {
            "done"
        } else {
            "waiting"
        };
        f.debug_struct("CommandHandle")
            .field("state", &state)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fill_wins_and_wakes_waiters() {
        let cell = Arc::new(ResponseCell::<u64>::new());
        let handle = CommandHandle::new(Arc::clone(&cell));
        assert!(handle.poll().is_none());
        let waiter = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || cell.wait())
        };
        cell.fill(Ok(7));
        cell.fill(Err(StoreError::Shutdown));
        assert_eq!(waiter.join().unwrap(), Ok(7));
        assert_eq!(handle.wait(), Ok(7), "second fill was ignored");
    }

    #[test]
    fn wait_timeout_expires_then_succeeds_on_a_late_fill() {
        let cell = Arc::new(ResponseCell::<u64>::new());
        let handle = CommandHandle::new(Arc::clone(&cell));
        assert_eq!(
            handle.wait_timeout(Duration::from_millis(5)),
            Err(StoreError::Timeout)
        );
        cell.fill(Ok(3));
        assert_eq!(handle.wait_timeout(Duration::from_millis(5)), Ok(3));
    }
}
