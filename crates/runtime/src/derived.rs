//! Objects derived from consensus: leader election and test-and-set.
//!
//! Consensus is universal (Herlihy): once you can agree, you can build the
//! classic coordination objects on top. These are the applications the
//! consensus literature motivates, provided here as ready-made wrappers so
//! the library is useful without assembling protocols by hand.

use std::sync::Arc;

use mc_quorums::BinomialScheme;
use rand::Rng;

use crate::consensus::Consensus;

/// One-shot leader election among up to `n` threads: every participant
/// learns the same winner id, and the winner is some participant.
///
/// Built directly on [`Consensus`] over candidate ids.
///
/// # Example
///
/// ```
/// use mc_runtime::Election;
/// use rand::{rngs::SmallRng, SeedableRng};
/// use std::sync::Arc;
///
/// let election = Arc::new(Election::new(3));
/// let handles: Vec<_> = (0..3u64)
///     .map(|me| {
///         let e = Arc::clone(&election);
///         std::thread::spawn(move || {
///             e.elect(me, &mut SmallRng::seed_from_u64(me))
///         })
///     })
///     .collect();
/// let winners: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
/// assert!(winners.windows(2).all(|w| w[0] == w[1]));
/// assert!(winners[0] < 3);
/// ```
#[derive(Debug)]
pub struct Election {
    consensus: Consensus,
}

impl Election {
    /// Creates an election among up to `n` participants with ids `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Election {
        // Candidate ids are 0..n; consensus capacity must cover them. The
        // degenerate n = 1 still needs a 2-value object, and it stays
        // binomial: `values(2)` would pick the binary scheme.
        let m = (n as u64).max(2);
        Election {
            consensus: Consensus::builder()
                .n(n)
                .scheme(Arc::new(BinomialScheme::for_capacity(m).expect("m ≥ 2")))
                .build(),
        }
    }

    /// Participates with candidate id `me` and returns the elected leader.
    ///
    /// One-shot semantics: each thread calls this at most once.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a valid participant id.
    pub fn elect(&self, me: u64, rng: &mut dyn Rng) -> u64 {
        self.consensus.decide(me, rng)
    }
}

/// One-shot test-and-set among up to `n` threads: exactly one caller wins.
///
/// Classic linearizable-object semantics restricted to one shot: the first
/// (in the agreed order) caller's [`try_set`](TestAndSet::try_set) returns
/// `true`, every other caller's returns `false`, and all callers agree who
/// won (observable via [`winner`](TestAndSet::winner) after participation).
///
/// Internally an [`Election`] on caller ids.
#[derive(Debug)]
pub struct TestAndSet {
    election: Election,
}

impl TestAndSet {
    /// Creates a test-and-set for up to `n` threads with ids `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> TestAndSet {
        TestAndSet {
            election: Election::new(n),
        }
    }

    /// Attempts to win. Returns `true` for exactly one participant.
    ///
    /// One-shot semantics: each thread calls this at most once, with its
    /// own distinct id.
    pub fn try_set(&self, me: u64, rng: &mut dyn Rng) -> bool {
        self.election.elect(me, rng) == me
    }

    /// The id that won, as agreed by this participant.
    ///
    /// Equivalent to `elect`; provided so losers can learn the winner.
    pub fn winner(&self, me: u64, rng: &mut dyn Rng) -> u64 {
        self.election.elect(me, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    #[test]
    fn election_produces_one_valid_leader() {
        for trial in 0..50 {
            let n = 6;
            let election = Arc::new(Election::new(n));
            let handles: Vec<_> = (0..n as u64)
                .map(|me| {
                    let e = Arc::clone(&election);
                    std::thread::spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(trial * 100 + me);
                        e.elect(me, &mut rng)
                    })
                })
                .collect();
            let winners: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            let leader = winners[0];
            assert!(
                winners.iter().all(|&w| w == leader),
                "trial {trial}: {winners:?}"
            );
            assert!(leader < n as u64);
        }
    }

    #[test]
    fn test_and_set_has_exactly_one_winner() {
        for trial in 0..50 {
            let n = 5;
            let tas = Arc::new(TestAndSet::new(n));
            let handles: Vec<_> = (0..n as u64)
                .map(|me| {
                    let t = Arc::clone(&tas);
                    std::thread::spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(trial * 77 + me);
                        t.try_set(me, &mut rng)
                    })
                })
                .collect();
            let wins: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert_eq!(
                wins.iter().filter(|&&w| w).count(),
                1,
                "trial {trial}: {wins:?}"
            );
        }
    }

    #[test]
    fn small_elections_stay_binomial() {
        // `values(2)` would pick the binary scheme: n ≤ 2 keeps the
        // binomial one the election has always run, and its register ids.
        for n in 1..=2 {
            let election = Election::new(n);
            let scheme = &election.consensus.options_handle().scheme;
            assert_eq!(scheme.name(), "binomial(k=2)", "n = {n}");
        }
    }

    #[test]
    fn solo_caller_always_wins() {
        let tas = TestAndSet::new(1);
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(tas.try_set(0, &mut rng));
    }

    #[test]
    fn losers_learn_the_winner() {
        // Sequential: first caller decides itself; the second, asking later,
        // must observe the same winner.
        let election = Election::new(2);
        let mut rng = SmallRng::seed_from_u64(3);
        let first = election.elect(0, &mut rng);
        let second = election.elect(1, &mut rng);
        assert_eq!(first, second);
        assert_eq!(first, 0);
    }
}
