//! Verification of the cross-intersection property and the Bollobás bound.
//!
//! Theorem 8 requires `W_v′ ∩ R_v = ∅ ⟺ v′ = v`; Theorem 9 (Bollobás,
//! via Jukna) shows any such family satisfies
//! `Σᵢ C(aᵢ + bᵢ, aᵢ)⁻¹ ≤ 1` where `aᵢ = |Wᵢ|`, `bᵢ = |Rᵢ|` — which is what
//! makes the binomial scheme's register count optimal.

use std::error::Error;
use std::fmt;

use crate::binomial::binomial;
use crate::scheme::QuorumScheme;

/// A violation of the cross-intersection property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuorumViolation {
    /// Some value's write quorum intersects its own read quorum.
    SelfIntersection {
        /// The offending value.
        value: u64,
        /// A register in both quorums.
        register: u64,
    },
    /// Two distinct values whose quorums fail to collide: `W_other` misses
    /// `R_value`, so `other`'s announcement would go undetected.
    MissedConflict {
        /// The scanning value.
        value: u64,
        /// The undetected announcing value.
        other: u64,
    },
}

impl fmt::Display for QuorumViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuorumViolation::SelfIntersection { value, register } => write!(
                f,
                "value {value}'s write quorum intersects its own read quorum at register {register}"
            ),
            QuorumViolation::MissedConflict { value, other } => write!(
                f,
                "value {value}'s read quorum misses value {other}'s write quorum"
            ),
        }
    }
}

impl Error for QuorumViolation {}

/// The lowest register two quorum masks share, if any.
fn shared(a: u128, b: u128) -> Option<u64> {
    let both = a & b;
    (both != 0).then(|| u64::from(both.trailing_zeros()))
}

/// Exhaustively checks the cross-intersection property over the first
/// `limit` values of the scheme (all values if `limit ≥ capacity`).
///
/// Quadratic in `limit`; use sampled checks for astronomically large
/// capacities.
///
/// # Errors
///
/// Returns the first [`QuorumViolation`] found.
pub fn check_cross_intersection(
    scheme: &dyn QuorumScheme,
    limit: u64,
) -> Result<(), QuorumViolation> {
    let m = scheme.capacity().min(limit);
    let quorums: Vec<(u128, u128)> = (0..m)
        .map(|v| (scheme.write_mask(v), scheme.read_mask(v)))
        .collect();
    for (v, &(w, r)) in quorums.iter().enumerate() {
        if let Some(register) = shared(w, r) {
            return Err(QuorumViolation::SelfIntersection {
                value: v as u64,
                register,
            });
        }
        for (other, &(w_other, _)) in quorums.iter().enumerate() {
            if other != v && shared(w_other, r).is_none() {
                return Err(QuorumViolation::MissedConflict {
                    value: v as u64,
                    other: other as u64,
                });
            }
        }
    }
    Ok(())
}

/// Checks the cross-intersection property on a sample of value pairs drawn
/// deterministically from `seed` — usable when capacity is too large for the
/// exhaustive check.
///
/// # Errors
///
/// Returns the first [`QuorumViolation`] found among the sampled pairs.
pub fn check_cross_intersection_sampled(
    scheme: &dyn QuorumScheme,
    pairs: usize,
    seed: u64,
) -> Result<(), QuorumViolation> {
    let m = scheme.capacity();
    let mut state = seed | 1;
    let mut next = || {
        // xorshift64*: adequate for test-pair sampling, no rand dependency.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D) % m
    };
    for _ in 0..pairs {
        let v = next();
        let o = next();
        let (w, r) = (scheme.write_mask(v), scheme.read_mask(v));
        if let Some(register) = shared(w, r) {
            return Err(QuorumViolation::SelfIntersection { value: v, register });
        }
        if o != v && shared(scheme.write_mask(o), r).is_none() {
            return Err(QuorumViolation::MissedConflict { value: v, other: o });
        }
    }
    Ok(())
}

/// Evaluates the Bollobás sum `Σᵢ C(aᵢ + bᵢ, aᵢ)⁻¹` over the first `limit`
/// values.
///
/// For any valid cross-intersecting family the sum over *all* values is at
/// most 1 (Theorem 9); for the binomial scheme over its full capacity it is
/// exactly 1, witnessing optimality.
pub fn bollobas_sum(scheme: &dyn QuorumScheme, limit: u64) -> f64 {
    let m = scheme.capacity().min(limit);
    (0..m)
        .map(|v| {
            let a = u64::from(scheme.write_mask(v).count_ones());
            let b = u64::from(scheme.read_mask(v).count_ones());
            1.0 / binomial(a + b, a) as f64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{BinaryScheme, BinomialScheme, BitVectorScheme};

    #[test]
    fn paper_schemes_are_cross_intersecting() {
        check_cross_intersection(&BinaryScheme::new(), u64::MAX).unwrap();
        check_cross_intersection(&BinomialScheme::for_capacity(70).unwrap(), u64::MAX).unwrap();
        check_cross_intersection(&BitVectorScheme::for_capacity(64).unwrap(), u64::MAX).unwrap();
    }

    #[test]
    fn sampled_check_on_large_scheme() {
        let s = BinomialScheme::for_capacity(1 << 40).unwrap();
        check_cross_intersection_sampled(&s, 500, 42).unwrap();
        let b = BitVectorScheme::with_bits(40);
        check_cross_intersection_sampled(&b, 500, 42).unwrap();
    }

    #[test]
    fn binomial_scheme_saturates_bollobas_bound() {
        let s = BinomialScheme::with_pool(8);
        let sum = bollobas_sum(&s, u64::MAX);
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
    }

    #[test]
    fn bitvector_scheme_is_suboptimal_by_bollobas() {
        let s = BitVectorScheme::with_bits(4);
        let sum = bollobas_sum(&s, u64::MAX);
        // 16 values, each with |W| = |R| = 4: 16 / C(8,4) = 16/70 < 1.
        assert!(sum < 0.25, "sum = {sum}");
    }

    #[test]
    fn violations_detected() {
        // A broken scheme: read quorum equal to write quorum.
        struct Broken;
        impl QuorumScheme for Broken {
            fn pool_size(&self) -> u64 {
                2
            }
            fn capacity(&self) -> u64 {
                2
            }
            fn write_mask(&self, v: u64) -> u128 {
                1 << v
            }
            fn read_mask(&self, v: u64) -> u128 {
                1 << v
            }
            fn name(&self) -> String {
                "broken".into()
            }
        }
        let err = check_cross_intersection(&Broken, u64::MAX).unwrap_err();
        assert!(matches!(err, QuorumViolation::SelfIntersection { .. }));

        // Another broken scheme: quorums that never collide.
        struct Disjoint;
        impl QuorumScheme for Disjoint {
            fn pool_size(&self) -> u64 {
                4
            }
            fn capacity(&self) -> u64 {
                2
            }
            fn write_mask(&self, v: u64) -> u128 {
                1 << v
            }
            fn read_mask(&self, v: u64) -> u128 {
                1 << (v + 2)
            }
            fn name(&self) -> String {
                "disjoint".into()
            }
        }
        let err = check_cross_intersection(&Disjoint, u64::MAX).unwrap_err();
        assert!(matches!(err, QuorumViolation::MissedConflict { .. }));
    }

    #[test]
    fn violation_display() {
        let v = QuorumViolation::MissedConflict { value: 1, other: 2 };
        assert_eq!(
            v.to_string(),
            "value 1's read quorum misses value 2's write quorum"
        );
    }
}
