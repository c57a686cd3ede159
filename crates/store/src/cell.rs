//! The response cell a submitted command's caller waits on, and the handle
//! that drives the store while it waits.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use mc_runtime::clock;

use crate::error::StoreError;

/// One command's response slot: filled once — by whichever caller applies
/// the command's batch, or by teardown — and waited on by its submitter.
/// A later fill is ignored and reported, so the applier can assert it
/// never answers a cell twice. The waiter count lives inside the mutex, so a
/// fill skips the notification when nobody is parked (the common case: a
/// caller usually applies its own command), and a waiter registering
/// under that lock before it blocks is never missed.
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

    /// Fills the cell if still empty and wakes every waiter; `false` when
    /// it was already filled and this result was dropped.
    pub(crate) fn fill(&self, result: Result<R, StoreError>) -> bool {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.value.is_some() {
            return false;
        }
        slot.value = Some(result);
        if slot.waiters > 0 {
            self.cv.notify_all();
        }
        true
    }

    /// The response if it already arrived.
    pub(crate) fn get(&self) -> Option<Result<R, StoreError>> {
        self.slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .value
            .clone()
    }

    /// Blocks until the cell is filled, or until `deadline` passes
    /// (`None` then).
    pub(crate) fn park(&self, deadline: Option<Instant>) -> Option<Result<R, StoreError>> {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.value.as_ref() {
                return Some(result.clone());
            }
            let now = clock::now();
            if deadline.is_some_and(|deadline| now >= deadline) {
                return None;
            }
            // Wait site (parked caller). Predicate, checked above under the
            // slot mutex: the value is present. Only `fill` makes it true,
            // and it notifies iff `waiters`, raised here under the same
            // mutex, is nonzero.
            slot.waiters += 1;
            slot = match deadline {
                None => self.cv.wait(slot).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let waited = self.cv.wait_timeout(slot, deadline - now);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
            };
            slot.waiters -= 1;
        }
    }
}

/// A handle's store: drives until `cell` is answered (parking only while
/// another caller carries it), or [`StoreError::Timeout`] at `deadline`.
pub(crate) trait Driver<R>: Send + Sync {
    fn settle(&self, cell: &ResponseCell<R>, deadline: Option<Instant>) -> Result<R, StoreError>;
}

/// A handle on one submitted command's eventual response.
///
/// The response is released when some caller applies the command (or
/// serves it from the session table's duplicate cache) — never earlier,
/// which is what makes lease-gated fast reads linearizable. There is no
/// store thread to do that: [`wait`](CommandHandle::wait) and
/// [`wait_timeout`](CommandHandle::wait_timeout) drive the store
/// themselves, and [`poll`](CommandHandle::poll) does not.
pub struct CommandHandle<R> {
    cell: Arc<ResponseCell<R>>,
    store: Arc<dyn Driver<R>>,
}

impl<R: Clone> CommandHandle<R> {
    pub(crate) fn new(cell: Arc<ResponseCell<R>>, store: Arc<dyn Driver<R>>) -> CommandHandle<R> {
        CommandHandle { cell, store }
    }

    /// The response if it already arrived, without blocking and without
    /// driving the store.
    pub fn poll(&self) -> Option<Result<R, StoreError>> {
        self.cell.get()
    }

    /// Drives the store until the command is applied and its response
    /// released, parking only while another caller carries it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Stale`] when the sequence number predates the
    /// session's cache; [`StoreError::Shutdown`] /
    /// [`StoreError::Ordering`] when the store tore down or was poisoned
    /// before the command could be applied.
    pub fn wait(&self) -> Result<R, StoreError> {
        self.store.settle(&self.cell, None)
    }

    /// As [`wait`](CommandHandle::wait), giving up once `timeout` elapses
    /// — computed through the shared [`clock`](mc_runtime::clock) helper,
    /// like every deadline in the runtime. The deadline is checked between
    /// batches, not inside one: a caller that drafted a batch sees it
    /// decided and applied first, so the call may overrun by that much.
    ///
    /// # Errors
    ///
    /// [`StoreError::Timeout`] when the wait elapsed (the command is
    /// still in flight; waiting again can succeed), otherwise as
    /// [`wait`](CommandHandle::wait).
    pub fn wait_timeout(&self, timeout: Duration) -> Result<R, StoreError> {
        self.store
            .settle(&self.cell, Some(clock::deadline_within(timeout)))
    }
}

impl<R> std::fmt::Debug for CommandHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slot = self
            .cell
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let state = if slot.value.is_some() {
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

    /// A store with nobody to drive: handles only park.
    struct Parked;

    impl<R: Clone> Driver<R> for Parked {
        fn settle(
            &self,
            cell: &ResponseCell<R>,
            deadline: Option<Instant>,
        ) -> Result<R, StoreError> {
            cell.park(deadline).unwrap_or(Err(StoreError::Timeout))
        }
    }

    fn parked_handle(cell: &Arc<ResponseCell<u64>>) -> CommandHandle<u64> {
        CommandHandle::new(Arc::clone(cell), Arc::new(Parked))
    }

    #[test]
    fn first_fill_wins_and_wakes_waiters() {
        let cell = Arc::new(ResponseCell::<u64>::new());
        let handle = parked_handle(&cell);
        assert!(handle.poll().is_none());
        let waiter = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || cell.park(None))
        };
        assert!(cell.fill(Ok(7)));
        assert!(!cell.fill(Err(StoreError::Shutdown)));
        assert_eq!(waiter.join().unwrap(), Some(Ok(7)));
        assert_eq!(handle.wait(), Ok(7), "second fill was ignored");
    }

    #[test]
    fn wait_timeout_expires_then_succeeds_on_a_late_fill() {
        let cell = Arc::new(ResponseCell::<u64>::new());
        let handle = parked_handle(&cell);
        assert_eq!(
            handle.wait_timeout(Duration::from_millis(5)),
            Err(StoreError::Timeout)
        );
        cell.fill(Ok(3));
        assert_eq!(handle.wait_timeout(Duration::from_millis(5)), Ok(3));
    }
}
