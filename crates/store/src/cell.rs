//! The response block a submission's callers wait on, and the handle that
//! drives the store while it waits.

use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use mc_runtime::clock;

use crate::error::StoreError;

/// The responses of one submission — every command of a `submit_batch`,
/// the one command of a `submit` or `call` — with one wake-up pair and one
/// reference to the store that answers them. A block is answered once, for
/// all of its commands together, by whichever caller applies the
/// submission or by teardown, and read with one acquire load; a later
/// answer is refused and reported, so the applier can assert it never
/// answers a submission twice. Answering takes the mutex and notifies only
/// when the waiter count says someone is parked (the common case is
/// nobody: a caller usually applies its own command).
pub(crate) struct ResponseBlock<R> {
    /// Set once for the whole submission: `OnceLock::set` publishes it
    /// (release) to every `get` (acquire) that sees it.
    answers: OnceLock<Answer<R>>,
    /// Callers parked on any command of this block. It publishes nothing:
    /// `answer` reads it once per submission, ordered against `park`'s
    /// raise by the pair of `SeqCst` fences.
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
    store: Arc<dyn Driver<R>>,
}

/// A submission's responses, set once for all of its commands.
pub(crate) enum Answer<R> {
    /// Every command answered alike: a single command's response, held
    /// inline so a `call` allocates its block and nothing else, or one
    /// refusal of a whole submission (shutdown, poison).
    All(Result<R, StoreError>),
    /// One response per command, in submission order.
    Each(Box<[Result<R, StoreError>]>),
}

impl<R> ResponseBlock<R> {
    /// An unanswered block answered by `store`.
    pub(crate) fn new(store: Arc<dyn Driver<R>>) -> Arc<ResponseBlock<R>> {
        Arc::new(ResponseBlock {
            answers: OnceLock::new(),
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            store,
        })
    }

    /// Answers every command of the block if it is still unanswered, and
    /// wakes its waiters; `false` when it was already answered and
    /// `answer` was dropped.
    pub(crate) fn answer(&self, answer: Answer<R>) -> bool {
        if self.answers.set(answer).is_err() {
            return false;
        }
        // SeqCst, the Dekker pairing with `park`'s fence: the answer set
        // above and a parker's raised count are each before a fence, so
        // either this load sees the count or the parker's re-check sees
        // the answer.
        fence(Ordering::SeqCst);
        // Relaxed, the waiter count: the fence above and `park`'s order
        // it against a parker's raise, and it publishes nothing else.
        if self.waiters.load(Ordering::Relaxed) > 0 {
            // Through the mutex, so a counted waiter is either before its
            // re-check (which then sees the answer) or inside `wait`.
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.cv.notify_all();
        }
        true
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
/// response block, answered once for the whole submission: one allocation
/// and one store reference between them, plus one for their responses
/// when there are several.
pub struct CommandHandle<R> {
    block: Arc<ResponseBlock<R>>,
    index: usize,
}

impl<R> CommandHandle<R> {
    /// The handle on command `index` of `block`'s submission.
    pub(crate) fn new(block: Arc<ResponseBlock<R>>, index: usize) -> CommandHandle<R> {
        CommandHandle { block, index }
    }

    /// Whether the response arrived, without cloning it: the same
    /// acquire load as [`poll`](CommandHandle::poll).
    pub(crate) fn answered(&self) -> bool {
        self.block.answers.get().is_some()
    }
}

impl<R: Clone> CommandHandle<R> {
    /// Blocks until the block is answered, or until `deadline` passes
    /// (`None` then).
    pub(crate) fn park(&self, deadline: Option<Instant>) -> Option<Result<R, StoreError>> {
        let block = &*self.block;
        let mut guard = block.lock.lock().unwrap_or_else(PoisonError::into_inner);
        // Relaxed, the waiter count: the fence below orders the raise
        // against `answer`'s fence and load.
        block.waiters.fetch_add(1, Ordering::Relaxed);
        // SeqCst, `answer`'s Dekker partner: the count is raised before
        // this fence and the block re-checked after it, for as long as the
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
            // block mutex: the block is answered. Only `answer` makes it
            // true, and it notifies through this mutex while the count is
            // raised.
            guard = match deadline {
                None => block.cv.wait(guard).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let waited = block.cv.wait_timeout(guard, deadline - now);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        };
        // Relaxed, the waiter count: an answerer that misses the lowering
        // (a timed-out parker's) only pays a spare lock and notify.
        block.waiters.fetch_sub(1, Ordering::Relaxed);
        result
    }

    /// The response if it already arrived, without blocking and without
    /// driving the store.
    pub fn poll(&self) -> Option<Result<R, StoreError>> {
        // One acquire load (inside `OnceLock::get`, paired with `answer`'s
        // set) plus an index.
        let answer = self.block.answers.get()?;
        Some(match answer {
            Answer::All(result) => result.clone(),
            Answer::Each(results) => results[self.index].clone(),
        })
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
        let state = if self.answered() { "done" } else { "waiting" };
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

    /// A fresh block nobody drives, and a handle on each of its `len`
    /// commands.
    fn parked_block(len: usize) -> (Arc<ResponseBlock<u64>>, Vec<CommandHandle<u64>>) {
        let block = ResponseBlock::new(Arc::new(Parked));
        let handles = (0..len)
            .map(|index| CommandHandle::new(Arc::clone(&block), index))
            .collect();
        (block, handles)
    }

    /// A second handle on `handle`'s command, as a waiting caller holds.
    fn reply(handle: &CommandHandle<u64>) -> CommandHandle<u64> {
        CommandHandle::new(Arc::clone(&handle.block), handle.index)
    }

    #[test]
    fn the_first_answer_wins_and_wakes_the_parked_caller() {
        let (block, handles) = parked_block(2);
        let handle = &handles[1];
        assert!(handle.poll().is_none());
        let waiter = {
            let reply = reply(handle);
            std::thread::spawn(move || reply.park(None))
        };
        assert!(block.answer(Answer::Each(Box::new([Ok(6), Ok(7)]))));
        assert!(
            !block.answer(Answer::All(Err(StoreError::Shutdown))),
            "a second answer is refused and reported"
        );
        assert_eq!(waiter.join().unwrap(), Some(Ok(7)));
        assert_eq!(handle.wait(), Ok(7), "the second answer was ignored");
        assert_eq!(handles[0].poll(), Some(Ok(6)), "each command its own");
    }

    #[test]
    fn wait_timeout_expires_then_succeeds_on_a_late_fill() {
        let (block, handles) = parked_block(1);
        let handle = &handles[0];
        assert_eq!(
            handle.wait_timeout(Duration::from_millis(5)),
            Err(StoreError::Timeout)
        );
        block.answer(Answer::All(Ok(3)));
        assert_eq!(handle.wait_timeout(Duration::from_millis(5)), Ok(3));
    }

    /// Lost-wake-up stress on one block: eight callers park on distinct
    /// commands of a 64-command block, half of them with deadlines, and
    /// the block is answered once, after a seeded number of yields, so
    /// the answer lands before, between and after the parkers' re-checks
    /// even on one CPU. Each park returns its own command's value within
    /// `PATIENCE`; the deadlines lie beyond it, so a missed wake-up cannot
    /// hide behind a timed-out re-check.
    #[test]
    fn parked_callers_on_one_block_each_wake_to_their_own_value() {
        const COMMANDS: usize = 64;
        const PARKERS: usize = 8;
        let value = |index: usize| 1_000 + index as u64;
        let mut rng = SmallRng::seed_from_u64(0xB10C);
        for _ in 0..100 {
            let (block, handles) = parked_block(COMMANDS);
            let mut parked: Vec<usize> = (0..COMMANDS).collect();
            for i in (1..COMMANDS).rev() {
                parked.swap(i, rng.random_range(0..=i));
            }
            parked.truncate(PARKERS);
            let start = Arc::new(std::sync::Barrier::new(PARKERS + 1));
            let (done, answers) = std::sync::mpsc::channel();
            let parkers: Vec<_> = parked
                .iter()
                .enumerate()
                .map(|(parker, &index)| {
                    let (reply, start, done) =
                        (reply(&handles[index]), Arc::clone(&start), done.clone());
                    std::thread::spawn(move || {
                        let deadline =
                            (parker % 2 == 0).then(|| clock::deadline_within(2 * PATIENCE));
                        start.wait();
                        done.send((index, reply.park(deadline))).unwrap();
                    })
                })
                .collect();
            start.wait();
            for _ in 0..rng.random_range(0..2 * PARKERS) {
                std::thread::yield_now();
            }
            assert!(block.answer(Answer::Each((0..COMMANDS).map(|i| Ok(value(i))).collect())));
            // Received with a timeout, then joined: a parker that missed
            // its wake-up fails the test instead of hanging it.
            for _ in 0..PARKERS {
                let (index, answer) = answers.recv_timeout(PATIENCE).expect("a parker woke");
                assert_eq!(answer, Some(Ok(value(index))), "command {index}");
            }
            for parker in parkers {
                parker.join().unwrap();
            }
            assert!(!block.answer(Answer::All(Err(StoreError::Shutdown))));
            for (index, handle) in handles.iter().enumerate() {
                assert_eq!(handle.poll(), Some(Ok(value(index))));
            }
        }
    }
}
