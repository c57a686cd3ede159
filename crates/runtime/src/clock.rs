//! The one monotonic-clock helper behind every deadline in the runtime.
//!
//! Two waits take a timeout: the service's
//! [`DecisionHandle::wait_timeout`](crate::DecisionHandle::wait_timeout)
//! and the store's `CommandHandle::wait_timeout` in `mc-store`. Both turn
//! it into a deadline through [`deadline_within`] and compare against
//! [`now`], so they share one clock-read discipline and one overflow
//! handling: `now + Duration::MAX` panics with a bare `+`, and
//! [`deadline_within`] saturates instead.

use std::time::{Duration, Instant};

/// Reads the monotonic clock. The single `Instant::now()` call site for
/// deadline arithmetic: everything that compares against a deadline built
/// by [`deadline_within`] should measure "now" with this function.
#[inline]
pub fn now() -> Instant {
    Instant::now()
}

/// An absolute deadline `budget` from now, saturating instead of
/// panicking when the budget does not fit in an [`Instant`].
///
/// `Instant::now() + Duration::MAX` aborts with an overflow panic on every
/// platform; callers that mean "effectively forever" (tests, belt-and-
/// suspenders waits) should still get a usable deadline. On overflow the
/// budget is halved until the addition fits — the result is still
/// centuries out, which is the same thing as forever for a wait loop.
#[inline]
pub fn deadline_within(budget: Duration) -> Instant {
    deadline_from(now(), budget)
}

/// [`deadline_within`] against a caller-supplied clock reading, so the
/// saturation is testable against a fixed instant.
#[inline]
fn deadline_from(now: Instant, budget: Duration) -> Instant {
    let mut budget = budget;
    loop {
        if let Some(deadline) = now.checked_add(budget) {
            return deadline;
        }
        // Duration::ZERO always fits, so this terminates.
        budget /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_is_budget_from_now() {
        let before = now();
        let deadline = deadline_within(Duration::from_secs(5));
        let after = now();
        assert!(deadline >= before + Duration::from_secs(5));
        assert!(deadline <= after + Duration::from_secs(5));
    }

    #[test]
    fn duration_max_saturates_instead_of_panicking() {
        let deadline = deadline_within(Duration::MAX);
        // Still far enough out that no real wait ever reaches it.
        assert!(deadline > now() + Duration::from_secs(60 * 60 * 24 * 365));
    }

    #[test]
    fn deadline_from_is_deterministic_in_its_clock() {
        let base = now();
        assert_eq!(
            deadline_from(base, Duration::from_millis(250)),
            base + Duration::from_millis(250)
        );
    }
}
