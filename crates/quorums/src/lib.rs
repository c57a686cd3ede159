//! Cross-intersecting write/read quorum systems for agreement detection.
//!
//! The paper's deterministic ratifier (§6) detects conflicting values by
//! having each process *announce* its value `v` (write 1 to every register in
//! a write quorum `W_v`) and later *scan* for conflicts (read every register
//! in a read quorum `R_v`). Correctness (Theorem 8) needs exactly:
//!
//! > `W_v′ ∩ R_v = ∅` **iff** `v′ = v`.
//!
//! i.e. a value's own announcement never trips its own scan, but every other
//! value's announcement does. This crate provides the [`QuorumScheme`]
//! abstraction and the paper's three register-efficient encodings:
//!
//! * [`BinaryScheme`] — 2 registers for `m = 2` (§6.2 item 1),
//! * [`BinomialScheme`] — `k = ⌈lg m⌉ + Θ(log log m)` registers with
//!   `W_v` the `v`-th `⌊k/2⌋`-subset, optimal by Bollobás's theorem
//!   (§6.2 item 2, Theorem 9),
//! * [`BitVectorScheme`] — `2⌈lg m⌉` registers, one pair per bit
//!   (§6.2 item 3).
//!
//! The [`verify`] module checks the cross-intersection property exhaustively
//! and evaluates the Bollobás bound `Σᵢ C(aᵢ+bᵢ, aᵢ)⁻¹ ≤ 1` that proves the
//! binomial scheme optimal.
//!
//! # Example
//!
//! ```
//! use mc_quorums::{BinomialScheme, QuorumScheme};
//!
//! let scheme = BinomialScheme::for_capacity(1000).unwrap();
//! assert!(scheme.capacity() >= 1000);
//! // Distinct values always collide on some register:
//! let w3: Vec<u64> = scheme.write_quorum(3);
//! let r9: Vec<u64> = scheme.read_quorum(9);
//! assert!(w3.iter().any(|reg| r9.contains(reg)));
//! // ...but a value never trips its own scan:
//! let r3 = scheme.read_quorum(3);
//! assert!(w3.iter().all(|reg| !r3.contains(reg)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binomial;
mod ranking;
mod scheme;
mod table;
pub mod verify;

pub use binomial::{binomial, central_binomial, optimal_pool_size};
pub use scheme::{
    BinaryScheme, BinomialScheme, BitVectorScheme, QuorumScheme, SchemeError, MAX_MASK_POOL,
};
pub use table::{TableScheme, TableSchemeError};
