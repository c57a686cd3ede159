//! A linearizable replicated state machine on the consensus runtime —
//! the paper's repeated-consensus composition (Corollary 4) turned into a
//! workload layer.
//!
//! The stack below this crate agrees on *one value at a time*:
//! [`ConsensusEngine`](mc_runtime::ConsensusEngine) pools one-shot
//! instances and decides one per slot,
//! [`ReplicatedLog`](mc_runtime::ReplicatedLog) keeps what they decided
//! as a totally-ordered learned prefix. This crate closes the loop the
//! consensus problem exists for: a deterministic [`StateMachine`] applied
//! in slot order on every replica is a linearizable shared object, and
//! every operation — `get`, `put`, `cas` — is one command in the log.
//!
//! # The pieces
//!
//! - [`StateMachine`]: deterministic `apply`, plus snapshot/restore hooks.
//! - [`KvStore`]: the reference machine — a linearizable `u64 → u64` map
//!   with `get`/`put`/`cas`/`delete`.
//! - [`ReplicatedStore`]: `sequencers` proposer threads order commands
//!   into slots (batch at a time — group commit), each deciding its
//!   proposal inline on the [`ConsensusEngine`] and recording the outcome
//!   in the [`ReplicatedLog`] — the
//!   objects are wait-free, so nobody decides on a proposer's behalf and
//!   the store runs `sequencers + 1` threads in all. A dedicated apply
//!   worker applies the learned prefix and answers each command exactly
//!   once via a viewstamped-replication-style session table (client id +
//!   per-session sequence number; duplicates return the cached response,
//!   never a re-apply). A thread is woken only when the predicate it
//!   waits on changed (DESIGN.md §12 has the table).
//! - [`StoreClient`]: a client session — owns the client id, stamps
//!   sequence numbers, supports explicit duplicate [`resend`] for retry.
//! - Lease-gated fast reads ([`ReplicatedStore::read_with`]): served from
//!   the applied state without a log slot. Linearizable because a
//!   command's response is only released *at apply time*, so everything a
//!   caller could have observed complete is already in the applied state.
//!
//! [`ConsensusEngine`]: mc_runtime::ConsensusEngine
//! [`ReplicatedLog`]: mc_runtime::ReplicatedLog
//! [`resend`]: StoreClient::resend
//!
//! # Quickstart
//!
//! ```
//! use mc_store::{KvCommand, KvResponse, KvStore, ReplicatedStore};
//!
//! let mut store = ReplicatedStore::<KvStore>::builder().build();
//! let mut client = store.client();
//! client.call(KvCommand::Put { key: 7, value: 1 }).unwrap();
//! assert_eq!(
//!     client.call(KvCommand::Get { key: 7 }).unwrap(),
//!     KvResponse::Value(Some(1))
//! );
//! // Lease-gated fast read: no log slot consumed.
//! assert_eq!(client.read(|kv: &KvStore| kv.get(7)), Some(1));
//! store.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod cell;
mod error;
mod hash;
mod kv;
mod machine;
mod store;

pub use builder::StoreBuilder;
pub use cell::CommandHandle;
pub use error::StoreError;
pub use kv::{KvCommand, KvResponse, KvStore};
pub use machine::StateMachine;
pub use store::{ReplicatedStore, StoreClient};
