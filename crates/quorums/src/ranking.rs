//! Ranking and unranking of fixed-size subsets (the combinatorial number
//! system), used to assign each value a distinct `⌊k/2⌋`-subset write quorum.
//!
//! The schemes unrank through [`peel_subset_of_rank`]; the allocating
//! `subset_of_rank` and its inverse `rank_of_subset` spell the definition
//! out for the tests.

use crate::binomial::binomial;

/// Returns the `rank`-th `t`-subset of `{0, …, k−1}` in colexicographic
/// order, as a sorted vector of element indices.
///
/// Colex unranking via the combinatorial number system: the unique
/// representation `rank = C(c_t, t) + … + C(c_1, 1)` with
/// `c_t > … > c_1 ≥ 0` gives the subset `{c_1, …, c_t}`.
///
/// # Panics
///
/// Panics if `t > k` or `rank ≥ C(k, t)`.
#[cfg(test)]
pub(crate) fn subset_of_rank(k: u64, t: u64, rank: u64) -> Vec<u64> {
    assert!(t <= k, "subset size {t} exceeds universe size {k}");
    assert!(
        rank < binomial(k, t),
        "rank {rank} out of range for C({k}, {t})"
    );
    let mut subset = Vec::with_capacity(t as usize);
    peel_subset_of_rank(k, t, rank, |c| subset.push(c));
    subset.reverse();
    subset
}

/// The elements of the `rank`-th `t`-subset of `{0, …, k−1}` in colex
/// order, largest first, without allocating. Bounds are the caller's.
pub(crate) fn peel_subset_of_rank(k: u64, t: u64, rank: u64, mut element: impl FnMut(u64)) {
    let mut remaining = rank;
    let mut size = t;
    // Greedily peel off the largest element: the biggest c with
    // C(c, size) ≤ remaining.
    let mut c = k;
    while size > 0 {
        // Decrease c until C(c, size) ≤ remaining; c ≥ size − 1 always
        // terminates because C(size − 1, size) = 0.
        while binomial(c, size) > remaining {
            c -= 1;
        }
        element(c);
        remaining -= binomial(c, size);
        size -= 1;
    }
}

/// Returns the colexicographic rank of a sorted `t`-subset of `{0, …, k−1}`.
///
/// Inverse of [`subset_of_rank`].
///
/// # Panics
///
/// Panics if the subset is not strictly increasing or contains an element
/// `≥ k`.
#[cfg(test)]
pub(crate) fn rank_of_subset(k: u64, subset: &[u64]) -> u64 {
    let mut rank = 0;
    let mut prev: Option<u64> = None;
    for (i, &c) in subset.iter().enumerate() {
        assert!(c < k, "element {c} out of universe {k}");
        if let Some(p) = prev {
            assert!(c > p, "subset must be strictly increasing");
        }
        prev = Some(c);
        rank += binomial(c, i as u64 + 1);
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Unranking then ranking any valid rank is the identity.
        #[test]
        fn ranking_roundtrip(k in 1u64..16, t_frac in 0u64..100, rank_frac in 0u64..1000) {
            let t = t_frac % (k + 1);
            let total = binomial(k, t);
            let rank = rank_frac % total;
            let subset = subset_of_rank(k, t, rank);
            prop_assert_eq!(subset.len() as u64, t);
            prop_assert_eq!(rank_of_subset(k, &subset), rank);
        }
    }

    #[test]
    fn colex_order_for_4_choose_2() {
        let expected = [
            vec![0, 1],
            vec![0, 2],
            vec![1, 2],
            vec![0, 3],
            vec![1, 3],
            vec![2, 3],
        ];
        for (rank, subset) in expected.iter().enumerate() {
            assert_eq!(&subset_of_rank(4, 2, rank as u64), subset);
            assert_eq!(rank_of_subset(4, subset), rank as u64);
        }
    }

    #[test]
    fn roundtrip_exhaustive_small() {
        for k in 0..=10u64 {
            for t in 0..=k {
                for rank in 0..binomial(k, t) {
                    let s = subset_of_rank(k, t, rank);
                    assert_eq!(s.len(), t as usize);
                    assert!(s.windows(2).all(|w| w[0] < w[1]));
                    assert!(s.iter().all(|&e| e < k));
                    assert_eq!(rank_of_subset(k, &s), rank);
                }
            }
        }
    }

    #[test]
    fn distinct_ranks_give_distinct_subsets() {
        let mut seen = std::collections::HashSet::new();
        for rank in 0..binomial(8, 4) {
            assert!(seen.insert(subset_of_rank(8, 4, rank)));
        }
    }

    #[test]
    fn empty_subset() {
        assert_eq!(subset_of_rank(5, 0, 0), Vec::<u64>::new());
        assert_eq!(rank_of_subset(5, &[]), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_out_of_range_rejected() {
        subset_of_rank(4, 2, 6);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_subset_rejected() {
        rank_of_subset(4, &[2, 1]);
    }
}
