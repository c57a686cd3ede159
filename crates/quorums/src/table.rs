//! User-defined quorum systems, validated at construction.

use std::error::Error;
use std::fmt;

use crate::scheme::{QuorumScheme, MAX_MASK_POOL};
use crate::verify::{check_cross_intersection, QuorumViolation};

/// Error constructing a [`TableScheme`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableSchemeError {
    /// The write and read tables have different lengths.
    MismatchedTables {
        /// Number of write quorums supplied.
        writes: usize,
        /// Number of read quorums supplied.
        reads: usize,
    },
    /// No values were supplied.
    Empty,
    /// The pool has more registers than a quorum mask holds (128).
    PoolTooLarge {
        /// The pool size requested.
        pool: u64,
    },
    /// A quorum entry indexes past the declared pool.
    SlotOutOfRange {
        /// The value whose quorum is malformed.
        value: u64,
        /// The offending slot index.
        slot: u64,
        /// The pool size implied by the largest slot of the tables.
        pool: u64,
    },
    /// The tables violate Theorem 8's cross-intersection hypothesis.
    NotCrossIntersecting(QuorumViolation),
}

impl fmt::Display for TableSchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableSchemeError::MismatchedTables { writes, reads } => {
                write!(f, "{writes} write quorums but {reads} read quorums")
            }
            TableSchemeError::Empty => write!(f, "a quorum table needs at least one value"),
            TableSchemeError::PoolTooLarge { pool } => write!(
                f,
                "a pool of {pool} registers exceeds the {MAX_MASK_POOL} a quorum mask holds"
            ),
            TableSchemeError::SlotOutOfRange { value, slot, pool } => {
                write!(
                    f,
                    "value {value}'s quorum uses slot {slot} outside pool {pool}"
                )
            }
            TableSchemeError::NotCrossIntersecting(v) => {
                write!(f, "tables are not cross-intersecting: {v}")
            }
        }
    }
}

impl Error for TableSchemeError {}

/// An explicit quorum system given as write/read tables, checked against
/// Theorem 8's hypothesis (`W_v′ ∩ R_v = ∅ ⟺ v′ = v`) exhaustively at
/// construction — so a `TableScheme` that exists is safe to ratify with.
///
/// Use this to experiment with quorum designs beyond the paper's three
/// (e.g. asymmetric quorums that make some values cheaper to announce).
///
/// # Example
///
/// ```
/// use mc_quorums::{QuorumScheme, TableScheme};
///
/// // A lopsided 3-value system over 4 registers: value 0 announces with a
/// // single write.
/// let scheme = TableScheme::new(
///     5,
///     vec![vec![0], vec![1, 2], vec![1, 3]],
///     vec![vec![1, 2, 3], vec![0, 3], vec![0, 2]],
/// )
/// .unwrap();
/// assert_eq!(scheme.capacity(), 3);
/// assert_eq!(scheme.write_quorum(0), vec![0]);
/// ```
#[derive(Debug, Clone)]
pub struct TableScheme {
    pool: u64,
    writes: Vec<u128>,
    reads: Vec<u128>,
}

impl TableScheme {
    /// Builds and validates a table scheme over `pool ≤ 128` registers.
    ///
    /// A quorum is a set: the order and repeats of its slots are ignored.
    /// Validation is exhaustive (quadratic in the number of values).
    ///
    /// # Errors
    ///
    /// Any [`TableSchemeError`], including a full cross-intersection check.
    pub fn new(
        pool: u64,
        writes: Vec<Vec<u64>>,
        reads: Vec<Vec<u64>>,
    ) -> Result<TableScheme, TableSchemeError> {
        if writes.len() != reads.len() {
            return Err(TableSchemeError::MismatchedTables {
                writes: writes.len(),
                reads: reads.len(),
            });
        }
        if writes.is_empty() {
            return Err(TableSchemeError::Empty);
        }
        if pool > MAX_MASK_POOL {
            return Err(TableSchemeError::PoolTooLarge { pool });
        }
        let masks = |quorums: Vec<Vec<u64>>| {
            quorums
                .into_iter()
                .enumerate()
                .map(|(value, quorum)| {
                    quorum.into_iter().try_fold(0u128, |mask, slot| {
                        if slot < pool {
                            Ok(mask | 1 << slot)
                        } else {
                            Err(TableSchemeError::SlotOutOfRange {
                                value: value as u64,
                                slot,
                                pool,
                            })
                        }
                    })
                })
                .collect::<Result<Vec<u128>, _>>()
        };
        let scheme = TableScheme {
            pool,
            writes: masks(writes)?,
            reads: masks(reads)?,
        };
        check_cross_intersection(&scheme, u64::MAX)
            .map_err(TableSchemeError::NotCrossIntersecting)?;
        Ok(scheme)
    }
}

fn index(v: u64) -> usize {
    usize::try_from(v).expect("value fits usize")
}

impl QuorumScheme for TableScheme {
    fn pool_size(&self) -> u64 {
        self.pool
    }

    fn capacity(&self) -> u64 {
        self.writes.len() as u64
    }

    fn write_mask(&self, v: u64) -> u128 {
        self.writes[index(v)]
    }

    fn read_mask(&self, v: u64) -> u128 {
        self.reads[index(v)]
    }

    fn name(&self) -> String {
        format!("table(m={}, pool={})", self.writes.len(), self.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{BinaryScheme, BinomialScheme};
    use crate::verify::bollobas_sum;

    #[test]
    fn binary_scheme_as_a_table() {
        let table = TableScheme::new(2, vec![vec![0], vec![1]], vec![vec![1], vec![0]]).unwrap();
        let builtin = BinaryScheme::new();
        for v in 0..2 {
            assert_eq!(table.write_quorum(v), builtin.write_quorum(v));
            assert_eq!(table.read_quorum(v), builtin.read_quorum(v));
        }
    }

    #[test]
    fn binomial_scheme_roundtrips_through_a_table() {
        let b = BinomialScheme::for_capacity(10).unwrap();
        let m = b.capacity();
        let table = TableScheme::new(
            b.pool_size(),
            (0..m).map(|v| b.write_quorum(v)).collect(),
            (0..m).map(|v| b.read_quorum(v)).collect(),
        )
        .unwrap();
        assert_eq!(table.capacity(), m);
        assert!((bollobas_sum(&table, u64::MAX) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn asymmetric_tables_are_accepted() {
        // Value 0 announces with one write; read quorums compensate.
        let scheme = TableScheme::new(
            4,
            vec![vec![0], vec![1, 2], vec![1, 3]],
            vec![vec![1, 2, 3], vec![0, 3], vec![0, 2]],
        )
        .unwrap();
        assert_eq!(scheme.capacity(), 3);
        assert_eq!(scheme.name(), "table(m=3, pool=4)");
    }

    #[test]
    fn mismatched_tables_rejected() {
        let err = TableScheme::new(2, vec![vec![0]], vec![vec![1], vec![0]]).unwrap_err();
        assert!(matches!(err, TableSchemeError::MismatchedTables { .. }));
    }

    #[test]
    fn empty_tables_rejected() {
        assert_eq!(
            TableScheme::new(2, vec![], vec![]).unwrap_err(),
            TableSchemeError::Empty
        );
    }

    #[test]
    fn pools_past_a_mask_rejected() {
        let err =
            TableScheme::new(129, vec![vec![0], vec![128]], vec![vec![128], vec![0]]).unwrap_err();
        assert_eq!(err, TableSchemeError::PoolTooLarge { pool: 129 });
        // 128 registers fit: the top one is bit 127.
        let widest =
            TableScheme::new(128, vec![vec![0], vec![127]], vec![vec![127], vec![0]]).unwrap();
        assert_eq!(widest.write_mask(1), 1 << 127);
        assert_eq!(widest.read_quorum(0), vec![127]);
    }

    #[test]
    fn out_of_pool_slots_rejected() {
        let err = TableScheme::new(2, vec![vec![0], vec![5]], vec![vec![1], vec![0]]).unwrap_err();
        assert!(matches!(
            err,
            TableSchemeError::SlotOutOfRange { slot: 5, .. }
        ));
    }

    #[test]
    fn self_intersecting_tables_rejected() {
        let err = TableScheme::new(2, vec![vec![0], vec![1]], vec![vec![0], vec![1]]).unwrap_err();
        assert!(matches!(
            err,
            TableSchemeError::NotCrossIntersecting(QuorumViolation::SelfIntersection { .. })
        ));
    }

    #[test]
    fn non_colliding_tables_rejected() {
        let err = TableScheme::new(4, vec![vec![0], vec![1]], vec![vec![2], vec![3]]).unwrap_err();
        assert!(matches!(
            err,
            TableSchemeError::NotCrossIntersecting(QuorumViolation::MissedConflict { .. })
        ));
    }

    #[test]
    fn quorums_are_normalized() {
        let scheme =
            TableScheme::new(2, vec![vec![0, 0], vec![1]], vec![vec![1, 1], vec![0]]).unwrap();
        assert_eq!(scheme.write_quorum(0), vec![0]);
        assert_eq!(scheme.read_quorum(0), vec![1]);
    }
}
