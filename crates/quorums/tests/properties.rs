//! Property-based tests for quorum schemes.

use mc_quorums::{verify, BinomialScheme, BitVectorScheme, QuorumScheme};
use proptest::prelude::*;

proptest! {
    /// Every pair of distinct values in a binomial scheme collides, and no
    /// value collides with itself.
    #[test]
    fn binomial_scheme_cross_intersects(k in 2u64..10, a_frac in 0u64..10_000, b_frac in 0u64..10_000) {
        let scheme = BinomialScheme::with_pool(k);
        let m = scheme.capacity();
        let a = a_frac % m;
        let b = b_frac % m;
        let wa: std::collections::HashSet<u64> = scheme.write_quorum(a).into_iter().collect();
        let ra: std::collections::HashSet<u64> = scheme.read_quorum(a).into_iter().collect();
        prop_assert!(wa.is_disjoint(&ra));
        if a != b {
            let wb: std::collections::HashSet<u64> = scheme.write_quorum(b).into_iter().collect();
            prop_assert!(!wb.is_disjoint(&ra), "W_{b} missed R_{a}");
        }
    }

    /// Same for bit-vector schemes.
    #[test]
    fn bitvector_scheme_cross_intersects(bits in 1u32..12, a in 0u64..4096, b in 0u64..4096) {
        let scheme = BitVectorScheme::with_bits(bits);
        let m = scheme.capacity();
        let (a, b) = (a % m, b % m);
        let wa: std::collections::HashSet<u64> = scheme.write_quorum(a).into_iter().collect();
        let ra: std::collections::HashSet<u64> = scheme.read_quorum(a).into_iter().collect();
        prop_assert!(wa.is_disjoint(&ra));
        if a != b {
            let wb: std::collections::HashSet<u64> = scheme.write_quorum(b).into_iter().collect();
            prop_assert!(!wb.is_disjoint(&ra));
        }
    }

    /// The Bollobás partial sum never exceeds 1 for valid schemes.
    #[test]
    fn bollobas_bound_holds(k in 2u64..12, limit in 1u64..64) {
        let scheme = BinomialScheme::with_pool(k);
        let sum = verify::bollobas_sum(&scheme, limit);
        prop_assert!(sum <= 1.0 + 1e-9, "sum = {sum}");
    }

    /// Quorum register indices stay inside the pool.
    #[test]
    fn quorum_indices_in_pool(k in 2u64..12, v_frac in 0u64..10_000) {
        let scheme = BinomialScheme::with_pool(k);
        let v = v_frac % scheme.capacity();
        for reg in scheme.write_quorum(v).into_iter().chain(scheme.read_quorum(v)) {
            prop_assert!(reg < scheme.pool_size());
        }
    }
}
