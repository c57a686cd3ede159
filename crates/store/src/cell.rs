//! The response block a submission's callers wait on, and the handle that
//! drives the store while it waits.

use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use mc_runtime::clock;

use crate::error::StoreError;

/// The response slots of one submission — one per command of a
/// `submit_batch`, one (held inline) for a `submit` or `call` — with one
/// wake-up pair and one reference to the store that answers them. A slot
/// is filled once, by whichever caller applies its command or by teardown,
/// and read with one acquire load; a later fill is ignored and reported,
/// so the applier can assert it never answers a command twice. A fill
/// takes the mutex and notifies only when the waiter count says someone is
/// parked (the common case is nobody: a caller usually applies its own
/// command).
pub(crate) struct ResponseBlock<R> {
    slots: Slots<R>,
    /// Callers parked on any slot of this block.
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
    store: Arc<dyn Driver<R>>,
}

/// A block's slots: a single command's inline, so a `call` allocates its
/// block and nothing else.
enum Slots<R> {
    One(OnceLock<Result<R, StoreError>>),
    Many(Box<[OnceLock<Result<R, StoreError>>]>),
}

impl<R> ResponseBlock<R> {
    /// A block of `len` empty slots answered by `store`.
    pub(crate) fn new(len: usize, store: Arc<dyn Driver<R>>) -> Arc<ResponseBlock<R>> {
        let slots = if len == 1 {
            Slots::One(OnceLock::new())
        } else {
            Slots::Many((0..len).map(|_| OnceLock::new()).collect())
        };
        Arc::new(ResponseBlock {
            slots,
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            store,
        })
    }
}

/// A handle's store: drives until `handle` is answered (parking only while
/// another caller carries it), or [`StoreError::Timeout`] at `deadline`.
pub(crate) trait Driver<R>: Send + Sync {
    fn settle(&self, handle: &CommandHandle<R>, deadline: Option<Instant>)
        -> Result<R, StoreError>;
}

/// A handle on one submitted command's eventual response.
///
/// The response is released when some caller applies the command (or
/// serves it from the session table's duplicate cache) — never earlier,
/// which is what makes fast reads linearizable. There is no
/// store thread to do that: [`wait`](CommandHandle::wait) and
/// [`wait_timeout`](CommandHandle::wait_timeout) drive the store
/// themselves, and [`poll`](CommandHandle::poll) does not.
///
/// The handles of one
/// [`submit_batch`](crate::ReplicatedStore::submit_batch) share one
/// response block: a slot each, one allocation and one store reference
/// between them.
pub struct CommandHandle<R> {
    block: Arc<ResponseBlock<R>>,
    index: usize,
}

impl<R> CommandHandle<R> {
    /// The handle on slot `index` of `block`.
    pub(crate) fn new(block: Arc<ResponseBlock<R>>, index: usize) -> CommandHandle<R> {
        CommandHandle { block, index }
    }

    fn slot(&self) -> &OnceLock<Result<R, StoreError>> {
        match &self.block.slots {
            Slots::One(slot) => slot,
            Slots::Many(slots) => &slots[self.index],
        }
    }

    /// Answers this handle's slot if still empty and wakes the block's
    /// waiters; `false` when it was already answered and this result was
    /// dropped.
    pub(crate) fn fill(&self, result: Result<R, StoreError>) -> bool {
        if self.slot().set(result).is_err() {
            return false;
        }
        let block = &*self.block;
        // SeqCst, the Dekker pairing with `park`'s fence: the set above
        // and a parker's raised count are each before a fence, so either
        // this load sees the count or the parker's re-check sees the value.
        fence(Ordering::SeqCst);
        // Relaxed: the fences order it.
        if block.waiters.load(Ordering::Relaxed) > 0 {
            // Through the mutex, so a counted waiter is either before its
            // re-check (which then sees the value) or inside `wait`.
            drop(block.lock.lock().unwrap_or_else(PoisonError::into_inner));
            block.cv.notify_all();
        }
        true
    }
}

impl<R: Clone> CommandHandle<R> {
    /// Blocks until the slot is answered, or until `deadline` passes
    /// (`None` then).
    pub(crate) fn park(&self, deadline: Option<Instant>) -> Option<Result<R, StoreError>> {
        let block = &*self.block;
        let mut guard = block.lock.lock().unwrap_or_else(PoisonError::into_inner);
        // Relaxed: the fence below orders it against `fill`'s.
        block.waiters.fetch_add(1, Ordering::Relaxed);
        // SeqCst, `fill`'s Dekker partner: the count is raised before
        // this fence and the slot re-checked after it, for as long as the
        // count stays raised.
        fence(Ordering::SeqCst);
        let result = loop {
            if let Some(result) = self.poll() {
                break Some(result);
            }
            let now = clock::now();
            if deadline.is_some_and(|deadline| now >= deadline) {
                break None;
            }
            // Wait site (parked caller). Predicate, checked above under the
            // block mutex: the slot is filled. Only `fill` makes it true,
            // and it notifies through this mutex while the count is raised.
            guard = match deadline {
                None => block.cv.wait(guard).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let waited = block.cv.wait_timeout(guard, deadline - now);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        };
        // Relaxed: leaving only costs a later fill a spare notify.
        block.waiters.fetch_sub(1, Ordering::Relaxed);
        result
    }

    /// The response if it already arrived, without blocking and without
    /// driving the store.
    pub fn poll(&self) -> Option<Result<R, StoreError>> {
        self.slot().get().cloned()
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
        self.block.store.settle(self, None)
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
        let deadline = clock::deadline_within(timeout);
        self.block.store.settle(self, Some(deadline))
    }
}

impl<R> std::fmt::Debug for CommandHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = if self.slot().get().is_some() {
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
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    /// Every wait in the tests below is bounded by this: a lost wake-up
    /// fails its test instead of hanging tier-1.
    const PATIENCE: Duration = Duration::from_secs(10);

    /// A store with nobody to drive: handles only park.
    struct Parked;

    impl<R: Clone> Driver<R> for Parked {
        fn settle(
            &self,
            handle: &CommandHandle<R>,
            deadline: Option<Instant>,
        ) -> Result<R, StoreError> {
            handle.park(deadline).unwrap_or(Err(StoreError::Timeout))
        }
    }

    /// A handle on every slot of a fresh `len`-slot block nobody drives.
    fn parked_handles(len: usize) -> Vec<CommandHandle<u64>> {
        let block = ResponseBlock::new(len, Arc::new(Parked));
        (0..len)
            .map(|index| CommandHandle::new(Arc::clone(&block), index))
            .collect()
    }

    /// A second handle on `handle`'s slot, as a queued command holds one.
    fn reply(handle: &CommandHandle<u64>) -> CommandHandle<u64> {
        CommandHandle::new(Arc::clone(&handle.block), handle.index)
    }

    #[test]
    fn first_fill_wins_and_wakes_waiters() {
        let handles = parked_handles(2);
        let handle = &handles[1];
        assert!(handle.poll().is_none());
        let waiter = {
            let reply = reply(handle);
            std::thread::spawn(move || reply.park(None))
        };
        assert!(handle.fill(Ok(7)));
        assert!(!handle.fill(Err(StoreError::Shutdown)));
        assert_eq!(waiter.join().unwrap(), Some(Ok(7)));
        assert_eq!(handle.wait(), Ok(7), "second fill was ignored");
        assert!(handles[0].poll().is_none(), "the other slot stays empty");
    }

    #[test]
    fn wait_timeout_expires_then_succeeds_on_a_late_fill() {
        let handles = parked_handles(1);
        let handle = &handles[0];
        assert_eq!(
            handle.wait_timeout(Duration::from_millis(5)),
            Err(StoreError::Timeout)
        );
        handle.fill(Ok(3));
        assert_eq!(handle.wait_timeout(Duration::from_millis(5)), Ok(3));
    }

    /// Lost-wake-up stress on one block: eight callers park on distinct
    /// slots of a 64-slot block, half of them with deadlines, while a
    /// filler answers every slot in a seeded shuffled order, yielding
    /// between fills so the parkers interleave even on one CPU. Each park
    /// returns its own slot's value within `PATIENCE`; the deadlines lie
    /// beyond it, so a missed wake-up cannot hide behind a timed-out
    /// re-check.
    #[test]
    fn parked_callers_on_one_block_each_wake_to_their_own_value() {
        const SLOTS: usize = 64;
        const PARKERS: usize = 8;
        let value = |slot: usize| 1_000 + slot as u64;
        let mut rng = SmallRng::seed_from_u64(0xB10C);
        let mut shuffled = || {
            let mut slots: Vec<usize> = (0..SLOTS).collect();
            for i in (1..SLOTS).rev() {
                slots.swap(i, rng.random_range(0..=i));
            }
            slots
        };
        for _ in 0..100 {
            let handles = parked_handles(SLOTS);
            let order = shuffled();
            let mut parked = shuffled();
            parked.truncate(PARKERS);
            let start = Arc::new(std::sync::Barrier::new(PARKERS + 1));
            let (done, answers) = std::sync::mpsc::channel();
            let parkers: Vec<_> = parked
                .iter()
                .enumerate()
                .map(|(parker, &slot)| {
                    let (reply, start, done) =
                        (reply(&handles[slot]), Arc::clone(&start), done.clone());
                    std::thread::spawn(move || {
                        let deadline =
                            (parker % 2 == 0).then(|| clock::deadline_within(2 * PATIENCE));
                        start.wait();
                        done.send((slot, reply.park(deadline))).unwrap();
                    })
                })
                .collect();
            start.wait();
            for &slot in &order {
                assert!(handles[slot].fill(Ok(value(slot))));
                std::thread::yield_now();
            }
            // Received with a timeout, then joined: a parker that missed
            // its wake-up fails the test instead of hanging it.
            for _ in 0..PARKERS {
                let (slot, answer) = answers.recv_timeout(PATIENCE).expect("a parker woke");
                assert_eq!(answer, Some(Ok(value(slot))), "slot {slot}");
            }
            for parker in parkers {
                parker.join().unwrap();
            }
            for (slot, handle) in handles.iter().enumerate() {
                assert!(!handle.fill(Err(StoreError::Shutdown)));
                assert_eq!(handle.poll(), Some(Ok(value(slot))));
            }
        }
    }
}
