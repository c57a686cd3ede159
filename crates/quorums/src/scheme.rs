//! The quorum-scheme abstraction and the paper's three encodings.

use std::error::Error;
use std::fmt;

use crate::binomial::{central_binomial, optimal_pool_size};
use crate::ranking::peel_subset_of_rank;

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
/// Register indices returned by the quorum methods are offsets into a pool
/// of [`pool_size`](QuorumScheme::pool_size) binary registers; the ratifier
/// maps them onto real register ids.
pub trait QuorumScheme: Send + Sync {
    /// Number of binary announcement registers the scheme needs.
    fn pool_size(&self) -> u64;

    /// Number of distinct values the scheme supports.
    fn capacity(&self) -> u64;

    /// The registers a process with value `v` announces to (sorted).
    ///
    /// # Panics
    ///
    /// Panics if `v ≥ capacity()`.
    fn write_quorum(&self, v: u64) -> Vec<u64>;

    /// The registers a process with preference `v` scans for conflicting
    /// announcements (sorted).
    ///
    /// # Panics
    ///
    /// Panics if `v ≥ capacity()`.
    fn read_quorum(&self, v: u64) -> Vec<u64>;

    /// Calls `register` on each register of `W_v`, in
    /// [`write_quorum`](QuorumScheme::write_quorum) order. The paper's
    /// schemes walk their quorums without allocating; the default collects
    /// `write_quorum(v)`.
    ///
    /// # Panics
    ///
    /// Panics if `v ≥ capacity()`.
    fn for_each_write(&self, v: u64, register: &mut dyn FnMut(u64)) {
        self.write_quorum(v).into_iter().for_each(register);
    }

    /// Whether `hit` holds for some register of `R_v`, visited in
    /// [`read_quorum`](QuorumScheme::read_quorum) order and stopping at the
    /// first hit — a ratifier's scan, which reads no register past its
    /// first conflict. Allocation-free in the paper's schemes; the default
    /// collects `read_quorum(v)`.
    ///
    /// # Panics
    ///
    /// Panics if `v ≥ capacity()`.
    fn any_read(&self, v: u64, hit: &mut dyn FnMut(u64) -> bool) -> bool {
        self.read_quorum(v).into_iter().any(hit)
    }

    /// Worst-case operations a ratifier built on this scheme performs:
    /// `|W_v| + |R_v|` plus one proposal read and at most one proposal
    /// write.
    fn individual_work_bound(&self) -> u64 {
        let mut worst = 0;
        // Quorum sizes are uniform for all our schemes, but compute the
        // bound honestly from value 0 and capacity−1 as spot checks.
        for v in [0, self.capacity().saturating_sub(1)] {
            let w = self.write_quorum(v).len() as u64 + self.read_quorum(v).len() as u64;
            worst = worst.max(w);
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

    fn write_quorum(&self, v: u64) -> Vec<u64> {
        assert_in_range(v, 2);
        vec![v]
    }

    fn read_quorum(&self, v: u64) -> Vec<u64> {
        assert_in_range(v, 2);
        vec![1 - v]
    }

    fn for_each_write(&self, v: u64, register: &mut dyn FnMut(u64)) {
        assert_in_range(v, 2);
        register(v);
    }

    fn any_read(&self, v: u64, hit: &mut dyn FnMut(u64) -> bool) -> bool {
        assert_in_range(v, 2);
        hit(1 - v)
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
/// Any `u64` capacity needs `k ≤ 68` ([`BinomialScheme::MAX_POOL`]), so a
/// value's write quorum is a bit mask on the stack and both quorum walks
/// allocate nothing.
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
    pub const MAX_POOL: u64 = 68;

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
    /// `2 ≤ k ≤ MAX_POOL`, supporting `C(k, ⌊k/2⌋)` values.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `k > MAX_POOL`.
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

    /// `W_v` as a mask over the pool: bit `e` is set iff register `e` is in
    /// the `v`-th `⌊k/2⌋`-subset in colex order.
    fn write_mask(&self, v: u64) -> u128 {
        assert_in_range(v, self.capacity);
        let mut mask = 0u128;
        peel_subset_of_rank(self.k, self.t, v, |e| mask |= 1 << e);
        mask
    }
}

/// The pool registers `0..k` whose bit in `mask` equals `member`, ascending.
fn registers_of(mask: u128, member: bool, k: u64) -> impl Iterator<Item = u64> {
    (0..k).filter(move |&e| (mask >> e) & 1 == u128::from(member))
}

impl QuorumScheme for BinomialScheme {
    fn pool_size(&self) -> u64 {
        self.k
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn write_quorum(&self, v: u64) -> Vec<u64> {
        registers_of(self.write_mask(v), true, self.k).collect()
    }

    fn read_quorum(&self, v: u64) -> Vec<u64> {
        registers_of(self.write_mask(v), false, self.k).collect()
    }

    fn for_each_write(&self, v: u64, register: &mut dyn FnMut(u64)) {
        registers_of(self.write_mask(v), true, self.k).for_each(register);
    }

    fn any_read(&self, v: u64, hit: &mut dyn FnMut(u64) -> bool) -> bool {
        registers_of(self.write_mask(v), false, self.k).any(hit)
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

    /// `W_v` (`flip` 0) or `R_v` (`flip` 1): per bit position, the register
    /// of `v`'s bit there, XOR `flip`.
    fn quorum(&self, v: u64, flip: u64) -> impl Iterator<Item = u64> {
        assert_in_range(v, self.capacity());
        (0..self.bits).map(move |i| Self::slot(i, ((v >> i) & 1) ^ flip))
    }
}

impl QuorumScheme for BitVectorScheme {
    fn pool_size(&self) -> u64 {
        2 * self.bits as u64
    }

    fn capacity(&self) -> u64 {
        1u64 << self.bits
    }

    fn write_quorum(&self, v: u64) -> Vec<u64> {
        self.quorum(v, 0).collect()
    }

    fn read_quorum(&self, v: u64) -> Vec<u64> {
        self.quorum(v, 1).collect()
    }

    fn for_each_write(&self, v: u64, register: &mut dyn FnMut(u64)) {
        self.quorum(v, 0).for_each(register);
    }

    fn any_read(&self, v: u64, hit: &mut dyn FnMut(u64) -> bool) -> bool {
        self.quorum(v, 1).any(hit)
    }

    fn name(&self) -> String {
        format!("bitvector(bits={})", self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn walks_visit_the_quorums_in_order_and_scans_stop_at_the_first_hit() {
        let schemes: Vec<Box<dyn QuorumScheme>> = vec![
            Box::new(BinaryScheme::new()),
            Box::new(BinomialScheme::for_capacity(70).unwrap()),
            Box::new(BinomialScheme::for_capacity(u64::MAX).unwrap()),
            Box::new(BitVectorScheme::for_capacity(70).unwrap()),
        ];
        for s in &schemes {
            let top = s.capacity() - 1;
            for v in (0..s.capacity().min(70)).chain([top / 3, top]) {
                let mut written = Vec::new();
                s.for_each_write(v, &mut |slot| written.push(slot));
                assert_eq!(written, s.write_quorum(v), "{} W_{v}", s.name());
                let mut scanned = Vec::new();
                assert!(!s.any_read(v, &mut |slot| {
                    scanned.push(slot);
                    false
                }));
                let read = s.read_quorum(v);
                assert_eq!(scanned, read, "{} R_{v}", s.name());
                // A hit on the first register ends the scan there.
                let mut visits = 0;
                assert!(s.any_read(v, &mut |_| {
                    visits += 1;
                    true
                }));
                assert_eq!(visits, 1);
            }
        }
    }

    #[test]
    fn the_largest_u64_capacity_fits_the_largest_pool_exactly() {
        let s = BinomialScheme::for_capacity(u64::MAX).unwrap();
        assert_eq!(s.pool_size(), BinomialScheme::MAX_POOL);
        for v in [0, u64::MAX / 2, u64::MAX - 1] {
            let w = s.write_quorum(v);
            assert_eq!(crate::rank_of_subset(s.pool_size(), &w), v);
        }
    }

    #[test]
    #[should_panic(expected = "the most a u64 capacity needs")]
    fn binomial_pool_beyond_u64_capacity_rejected() {
        BinomialScheme::with_pool(BinomialScheme::MAX_POOL + 1);
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
