//! The quorum-scheme abstraction and the paper's three encodings.

use std::error::Error;
use std::fmt;

use crate::binomial::{central_binomial, optimal_pool_size};
use crate::ranking::peel_subset_of_rank;

/// The most registers a [`QuorumScheme`]'s pool may have: one bit of a
/// `u128` quorum mask each. The ratifiers refuse a larger pool.
pub const MAX_MASK_POOL: u64 = 128;

/// Error constructing a quorum scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemeError {
    /// Requested capacity was zero.
    ZeroCapacity,
    /// Requested value is outside the scheme's capacity.
    ValueOutOfRange {
        /// The offending value.
        value: u64,
        /// The scheme's capacity.
        capacity: u64,
    },
}

impl fmt::Display for SchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeError::ZeroCapacity => write!(f, "quorum scheme capacity must be positive"),
            SchemeError::ValueOutOfRange { value, capacity } => {
                write!(f, "value {value} out of range for capacity {capacity}")
            }
        }
    }
}

impl Error for SchemeError {}

/// A family of cross-intersecting write/read quorums over a pool of
/// announcement registers.
///
/// The defining property (Theorem 8's hypothesis) is
/// `W_v′ ∩ R_v = ∅ ⟺ v′ = v` for all `v, v′ < capacity()`; the
/// [`verify`](crate::verify) module checks it.
///
/// A quorum is a `u128` mask over a pool of at most 128 binary registers:
/// bit `e` stands for register `e` of the pool, which the ratifier maps
/// onto a real register id. A scheme defines
/// [`write_mask`](QuorumScheme::write_mask), and
/// [`read_mask`](QuorumScheme::read_mask) when `R_v` is not the rest of the
/// pool; the register lists and walks are derived from the masks and visit
/// registers in ascending order.
pub trait QuorumScheme: Send + Sync {
    /// Number of binary announcement registers the scheme needs, at most
    /// 128.
    fn pool_size(&self) -> u64;

    /// Number of distinct values the scheme supports.
    fn capacity(&self) -> u64;

    /// `W_v`, the registers a process with value `v` announces to, as a
    /// mask over the pool.
    ///
    /// # Panics
    ///
    /// Panics if `v ≥ capacity()`.
    fn write_mask(&self, v: u64) -> u128;

    /// `R_v`, the registers a process with preference `v` scans for
    /// conflicting announcements, as a mask over the pool. The default is
    /// the pool minus `W_v`, which is `R_v` in each of the paper's three
    /// schemes.
    ///
    /// # Panics
    ///
    /// Panics if `v ≥ capacity()`.
    fn read_mask(&self, v: u64) -> u128 {
        pool_mask(self.pool_size()) & !self.write_mask(v)
    }

    /// The registers of `W_v`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v ≥ capacity()`.
    fn write_quorum(&self, v: u64) -> Vec<u64> {
        registers(self.write_mask(v)).collect()
    }

    /// The registers of `R_v`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v ≥ capacity()`.
    fn read_quorum(&self, v: u64) -> Vec<u64> {
        registers(self.read_mask(v)).collect()
    }

    /// Worst-case operations a ratifier built on this scheme performs:
    /// `|W_v| + |R_v|` plus one proposal read and at most one proposal
    /// write.
    fn individual_work_bound(&self) -> u64 {
        let mut worst = 0;
        // Quorum sizes are uniform for all our schemes, but compute the
        // bound honestly from value 0 and capacity−1 as spot checks.
        for v in [0, self.capacity().saturating_sub(1)] {
            let w = self.write_mask(v).count_ones() + self.read_mask(v).count_ones();
            worst = worst.max(u64::from(w));
        }
        worst + 2
    }

    /// Short name for diagnostics and experiment tables.
    fn name(&self) -> String;

    /// An involution on pool slots realizing the binary value swap
    /// `0 ↔ 1`, if one exists: renaming slot `a` to `b` (and `b` to `a`)
    /// for each returned pair must map `W_0 → W_1` and `R_0 → R_1`
    /// *positionally* (the `i`-th slot of `W_0` to the `i`-th slot of
    /// `W_1`), so that a ratifier execution with all values swapped visits
    /// the renamed slots in the same order. Slots not mentioned are fixed.
    ///
    /// The default computes the pairing from the quorums themselves and
    /// returns `None` when no positional involution exists (or when the
    /// scheme cannot hold two values). Used by the graph checker's
    /// symmetry reduction; correctness of a `Some` answer is
    /// self-certifying because it is derived from the quorum structure.
    fn binary_swap(&self) -> Option<Vec<(u64, u64)>> {
        if self.capacity() < 2 {
            return None;
        }
        let mut map: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        let bind = |a: u64, b: u64, map: &mut std::collections::BTreeMap<u64, u64>| -> bool {
            match map.get(&a) {
                Some(&prev) => prev == b,
                None => {
                    map.insert(a, b);
                    true
                }
            }
        };
        for (zero, one) in [
            (self.write_quorum(0), self.write_quorum(1)),
            (self.read_quorum(0), self.read_quorum(1)),
        ] {
            if zero.len() != one.len() {
                return None;
            }
            for (&a, &b) in zero.iter().zip(one.iter()) {
                if !bind(a, b, &mut map) || !bind(b, a, &mut map) {
                    return None;
                }
            }
        }
        Some(
            map.iter()
                .filter(|&(&a, &b)| a < b)
                .map(|(&a, &b)| (a, b))
                .collect(),
        )
    }
}

/// The mask of a whole pool of `pool ≤ 128` registers.
///
/// # Panics
///
/// Panics if `pool > 128`: no mask can name the registers past bit 127.
fn pool_mask(pool: u64) -> u128 {
    assert!(
        pool <= MAX_MASK_POOL,
        "a pool of {pool} registers exceeds the {MAX_MASK_POOL} a quorum mask holds"
    );
    u128::MAX
        .checked_shr((MAX_MASK_POOL - pool) as u32)
        .unwrap_or(0)
}

/// The registers of a mask, ascending: each is the lowest set bit, which
/// the next visit clears.
fn registers(mut mask: u128) -> impl Iterator<Item = u64> {
    std::iter::from_fn(move || {
        let register = (mask != 0).then(|| u64::from(mask.trailing_zeros()))?;
        mask &= mask - 1;
        Some(register)
    })
}

fn assert_in_range(v: u64, capacity: u64) {
    assert!(
        v < capacity,
        "value {v} out of range for scheme capacity {capacity}"
    );
}

/// The 2-value scheme (§6.2 item 1): registers `{r₀, r₁}`, `W_v = {r_v}`,
/// `R_v = {r_{1−v}}`. Three registers and ≤ 4 operations per process once
/// the proposal register is added.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryScheme;

impl BinaryScheme {
    /// Creates the binary scheme.
    pub fn new() -> BinaryScheme {
        BinaryScheme
    }
}

impl QuorumScheme for BinaryScheme {
    fn pool_size(&self) -> u64 {
        2
    }

    fn capacity(&self) -> u64 {
        2
    }

    fn write_mask(&self, v: u64) -> u128 {
        assert_in_range(v, 2);
        1 << v
    }

    fn name(&self) -> String {
        "binary".to_string()
    }
}

/// The optimal scheme (§6.2 item 2): a pool of `k` registers with
/// `C(k, ⌊k/2⌋) ≥ m`; value `v`'s write quorum is the `v`-th
/// `⌊k/2⌋`-subset in colex order and its read quorum is the complement.
///
/// `k = ⌈lg m⌉ + Θ(log log m)`, which Bollobás's theorem (Theorem 9) shows
/// is the best possible for any scheme with `|W| + |R| = k`.
///
/// Any `u64` capacity needs `k ≤ 68`, so a value's quorums fit a `u128`
/// mask, and unranking `W_v` reads its binomials from a table computed at
/// compile time.
#[derive(Debug, Clone, Copy)]
pub struct BinomialScheme {
    k: u64,
    t: u64,
    capacity: u64,
}

impl BinomialScheme {
    /// The largest pool: `C(67, 33) < u64::MAX ≤ C(68, 34)`, so no `u64`
    /// capacity needs more registers, and the binomials a rank is peeled
    /// by, `C(c, t)` for `c < 68`, all fit a `u64`.
    const MAX_POOL: u64 = 68;

    /// Creates the smallest binomial scheme supporting at least `m` values.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::ZeroCapacity`] if `m == 0`.
    pub fn for_capacity(m: u64) -> Result<BinomialScheme, SchemeError> {
        if m == 0 {
            return Err(SchemeError::ZeroCapacity);
        }
        let k = optimal_pool_size(m);
        Ok(BinomialScheme {
            k,
            t: k / 2,
            capacity: central_binomial(k),
        })
    }

    /// Creates the scheme with an explicit pool size
    /// `2 ≤ k ≤ 68`, supporting `C(k, ⌊k/2⌋)` values.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `k > 68`.
    pub fn with_pool(k: u64) -> BinomialScheme {
        assert!(k >= 2, "pool must have at least 2 registers");
        assert!(
            k <= BinomialScheme::MAX_POOL,
            "pool of {k} registers exceeds {}, the most a u64 capacity needs",
            BinomialScheme::MAX_POOL
        );
        BinomialScheme {
            k,
            t: k / 2,
            capacity: central_binomial(k),
        }
    }
}

impl QuorumScheme for BinomialScheme {
    fn pool_size(&self) -> u64 {
        self.k
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bit `e` is set iff register `e` is in the `v`-th `⌊k/2⌋`-subset in
    /// colex order.
    fn write_mask(&self, v: u64) -> u128 {
        assert_in_range(v, self.capacity);
        let mut mask = 0u128;
        peel_subset_of_rank(self.k, self.t, v, |e| mask |= 1 << e);
        mask
    }

    fn name(&self) -> String {
        format!("binomial(k={})", self.k)
    }
}

/// The simpler scheme (§6.2 item 3): a `⌈lg m⌉ × 2` array of registers
/// `r_{i,j}`; writing `v` as a bit vector, `W_v = {r_{i,v_i}}` and `R_v`
/// is its complement. `2⌈lg m⌉` registers, at most `2⌈lg m⌉ + 2`
/// operations — a constant factor worse than [`BinomialScheme`] but with
/// trivial indexing.
#[derive(Debug, Clone, Copy)]
pub struct BitVectorScheme {
    bits: u32,
}

impl BitVectorScheme {
    /// Creates the smallest bit-vector scheme supporting at least `m`
    /// values.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::ZeroCapacity`] if `m == 0`.
    pub fn for_capacity(m: u64) -> Result<BitVectorScheme, SchemeError> {
        if m == 0 {
            return Err(SchemeError::ZeroCapacity);
        }
        let bits = if m <= 2 {
            1
        } else {
            64 - (m - 1).leading_zeros()
        };
        Ok(BitVectorScheme { bits })
    }

    /// Creates the scheme for `bits`-bit values (capacity `2^bits`).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds 63.
    pub fn with_bits(bits: u32) -> BitVectorScheme {
        assert!((1..=63).contains(&bits), "bits must be in 1..=63");
        BitVectorScheme { bits }
    }

    /// Register index of the pair `(bit position i, bit value j)`.
    fn slot(i: u32, j: u64) -> u64 {
        2 * i as u64 + j
    }
}

impl QuorumScheme for BitVectorScheme {
    fn pool_size(&self) -> u64 {
        2 * self.bits as u64
    }

    fn capacity(&self) -> u64 {
        1u64 << self.bits
    }

    /// Per bit position, the register of `v`'s bit there.
    fn write_mask(&self, v: u64) -> u128 {
        assert_in_range(v, self.capacity());
        (0..self.bits).fold(0u128, |mask, i| mask | 1u128 << Self::slot(i, (v >> i) & 1))
    }

    fn name(&self) -> String {
        format!("bitvector(bits={})", self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::{rank_of_subset, subset_of_rank};
    use crate::TableScheme;

    #[test]
    fn binary_scheme_matches_paper() {
        let s = BinaryScheme::new();
        assert_eq!(s.pool_size(), 2);
        assert_eq!(s.write_quorum(0), vec![0]);
        assert_eq!(s.read_quorum(0), vec![1]);
        assert_eq!(s.write_quorum(1), vec![1]);
        assert_eq!(s.read_quorum(1), vec![0]);
        // 1 announce + 1 scan + proposal read/write = 4 ops, as in §6.1.
        assert_eq!(s.individual_work_bound(), 4);
    }

    #[test]
    fn binomial_scheme_sizes() {
        let s = BinomialScheme::for_capacity(6).unwrap();
        assert_eq!(s.pool_size(), 4); // C(4,2) = 6
        assert_eq!(s.capacity(), 6);
        for v in 0..6 {
            assert_eq!(s.write_quorum(v).len(), 2);
            assert_eq!(s.read_quorum(v).len(), 2);
        }
    }

    #[test]
    fn binomial_quorums_partition_pool() {
        let s = BinomialScheme::for_capacity(100).unwrap();
        for v in 0..s.capacity().min(100) {
            let mut all: Vec<u64> = s.write_quorum(v);
            all.extend(s.read_quorum(v));
            all.sort_unstable();
            assert_eq!(all, (0..s.pool_size()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn bitvector_scheme_sizes() {
        let s = BitVectorScheme::for_capacity(6).unwrap();
        assert_eq!(s.pool_size(), 6); // 3 bits × 2
        assert_eq!(s.capacity(), 8);
        assert_eq!(s.write_quorum(0b101), vec![1, 2, 5]);
        assert_eq!(s.read_quorum(0b101), vec![0, 3, 4]);
    }

    #[test]
    fn bitvector_capacity_edges() {
        assert_eq!(BitVectorScheme::for_capacity(1).unwrap().capacity(), 2);
        assert_eq!(BitVectorScheme::for_capacity(2).unwrap().capacity(), 2);
        assert_eq!(BitVectorScheme::for_capacity(3).unwrap().capacity(), 4);
        assert_eq!(BitVectorScheme::for_capacity(4).unwrap().capacity(), 4);
        assert_eq!(BitVectorScheme::for_capacity(5).unwrap().capacity(), 8);
    }

    #[test]
    fn zero_capacity_rejected() {
        assert_eq!(
            BinomialScheme::for_capacity(0).unwrap_err(),
            SchemeError::ZeroCapacity
        );
        assert_eq!(
            BitVectorScheme::for_capacity(0).unwrap_err(),
            SchemeError::ZeroCapacity
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_value_rejected() {
        BinaryScheme::new().write_quorum(2);
    }

    #[test]
    fn binary_swap_exists_for_all_paper_schemes() {
        let schemes: Vec<Box<dyn QuorumScheme>> = vec![
            Box::new(BinaryScheme::new()),
            Box::new(BinomialScheme::with_pool(2)),
            Box::new(BinomialScheme::for_capacity(6).unwrap()),
            Box::new(BitVectorScheme::with_bits(1)),
            Box::new(BitVectorScheme::with_bits(3)),
        ];
        for s in &schemes {
            let pairs = s.binary_swap().unwrap_or_else(|| {
                panic!("{} should admit a binary swap", s.name());
            });
            let rename = |slot: u64| {
                for &(a, b) in &pairs {
                    if slot == a {
                        return b;
                    }
                    if slot == b {
                        return a;
                    }
                }
                slot
            };
            let w0: Vec<u64> = s.write_quorum(0).iter().map(|&x| rename(x)).collect();
            assert_eq!(w0, s.write_quorum(1), "{}: W_0 → W_1", s.name());
            let r0: Vec<u64> = s.read_quorum(0).iter().map(|&x| rename(x)).collect();
            assert_eq!(r0, s.read_quorum(1), "{}: R_0 → R_1", s.name());
        }
        assert_eq!(BinaryScheme::new().binary_swap(), Some(vec![(0, 1)]));
    }

    #[test]
    fn masks_and_quorums_match_each_schemes_definition() {
        // Each scheme beside its quorums spelled out from its definition,
        // not from its masks.
        type Spelled<'a> = Box<dyn Fn(u64) -> (Vec<u64>, Vec<u64>) + 'a>;
        fn case<'a>(
            scheme: &'a dyn QuorumScheme,
            spelled: impl Fn(u64) -> (Vec<u64>, Vec<u64>) + 'a,
        ) -> (&'a dyn QuorumScheme, Spelled<'a>) {
            (scheme, Box::new(spelled))
        }
        fn rest(k: u64, w: &[u64]) -> Vec<u64> {
            (0..k).filter(|e| !w.contains(e)).collect()
        }
        fn colex(s: &BinomialScheme, v: u64) -> (Vec<u64>, Vec<u64>) {
            let w = subset_of_rank(s.pool_size(), s.pool_size() / 2, v);
            let r = rest(s.pool_size(), &w);
            (w, r)
        }
        let binary = BinaryScheme::new();
        let small = BinomialScheme::for_capacity(70).unwrap();
        let widest = BinomialScheme::for_capacity(u64::MAX).unwrap();
        let bitvector = BitVectorScheme::for_capacity(70).unwrap();
        let rows: [(Vec<u64>, Vec<u64>); 3] = [
            (vec![0], vec![1, 2, 3]),
            (vec![1, 2], vec![0, 3]),
            (vec![1, 3], vec![0, 2]),
        ];
        let (writes, reads) = rows.iter().cloned().unzip();
        // Lopsided: R_0 is not the rest of the 5-register pool, so the walks
        // follow the table's own read masks.
        let table = TableScheme::new(5, writes, reads).unwrap();
        let schemes = [
            case(&binary, |v| (vec![v], vec![1 - v])),
            case(&small, |v| colex(&small, v)),
            case(&widest, |v| colex(&widest, v)),
            case(&bitvector, |v| {
                let w: Vec<u64> = (0..7u64).map(|i| 2 * i + ((v >> i) & 1)).collect();
                let r = rest(14, &w);
                (w, r)
            }),
            case(&table, |v| rows[v as usize].clone()),
        ];
        let bits = |mask: u128| {
            (0..128u64)
                .filter(|&e| (mask >> e) & 1 == 1)
                .collect::<Vec<_>>()
        };
        for (s, spelled) in &schemes {
            let top = s.capacity() - 1;
            for v in (0..s.capacity().min(70)).chain([top / 3, top]) {
                let (write, read) = spelled(v);
                assert_eq!(bits(s.write_mask(v)), write, "{} W_{v}", s.name());
                assert_eq!(bits(s.read_mask(v)), read, "{} R_{v}", s.name());
                assert_eq!(s.write_quorum(v), write, "{} W_{v}", s.name());
                assert_eq!(s.read_quorum(v), read, "{} R_{v}", s.name());
            }
        }
    }

    #[test]
    fn the_largest_u64_capacity_fits_the_largest_pool_exactly() {
        let s = BinomialScheme::for_capacity(u64::MAX).unwrap();
        assert_eq!(s.pool_size(), BinomialScheme::MAX_POOL);
        for v in [0, u64::MAX / 2, u64::MAX - 1] {
            let w = s.write_quorum(v);
            assert_eq!(rank_of_subset(s.pool_size(), &w), v);
        }
    }

    #[test]
    #[should_panic(expected = "the most a u64 capacity needs")]
    fn binomial_pool_beyond_u64_capacity_rejected() {
        BinomialScheme::with_pool(BinomialScheme::MAX_POOL + 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the 128 a quorum mask holds")]
    fn a_pool_past_a_mask_has_no_default_read_mask() {
        /// Two values over 129 registers, one more than a mask names.
        struct Wide;
        impl QuorumScheme for Wide {
            fn pool_size(&self) -> u64 {
                MAX_MASK_POOL + 1
            }
            fn capacity(&self) -> u64 {
                2
            }
            fn write_mask(&self, v: u64) -> u128 {
                1 << v
            }
            fn name(&self) -> String {
                "wide".into()
            }
        }
        Wide.read_mask(0);
    }

    #[test]
    fn binomial_beats_bitvector_on_registers() {
        for m in [16u64, 256, 4096, 1 << 20] {
            let b = BinomialScheme::for_capacity(m).unwrap();
            let v = BitVectorScheme::for_capacity(m).unwrap();
            assert!(
                b.pool_size() < v.pool_size(),
                "m={m}: binomial {} vs bitvector {}",
                b.pool_size(),
                v.pool_size()
            );
        }
    }
}
