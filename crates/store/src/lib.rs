//! A linearizable replicated state machine on the consensus runtime —
//! the paper's repeated-consensus composition (Corollary 4) turned into a
//! workload layer.
//!
//! The stack below this crate agrees on *one value at a time*:
//! [`ConsensusEngine`](mc_runtime::ConsensusEngine) pools one-shot
//! instances and decides one per slot. This crate keeps what they
//! decided as a totally-ordered learned prefix and closes the loop the
//! consensus problem exists for: a deterministic [`StateMachine`] applied
//! in slot order on every replica is a linearizable shared object, and
//! every operation — `get`, `put`, `cas` — is one command in the log.
//!
//! # The pieces
//!
//! - [`StateMachine`]: a deterministic `apply`, the one method a machine
//!   implements.
//! - [`KvStore`]: the reference machine — a linearizable `u64 → u64` map
//!   with `get`/`put`/`cas`/`delete`.
//! - [`ReplicatedStore`]: runs no thread. A caller waiting for a response
//!   leases one of `proposers` identities, drafts whole queued
//!   submissions into a batch (group commit, up to `batch_commands`
//!   commands; a larger submission is a batch, and one long apply, of its
//!   own), proposes its identity for a slot on the
//!   [`ConsensusEngine`] — wait-free objects need nobody to decide for a
//!   proposer — learns the winner under the intake mutex it already
//!   takes, and applies the learned prefix itself unless another caller
//!   is applying; the value space is the identities, and no slot is spent
//!   on a no-op. A viewstamped-replication-style session
//!   table (client id + sequence number) answers each command exactly
//!   once, duplicates from its cache, and each submission's responses are
//!   released together, through one response block. DESIGN.md §12 has
//!   the rules.
//! - [`StoreClient`]: a client session — owns the client id, stamps
//!   sequence numbers, supports explicit duplicate [`resend`] for retry.
//! - Fast reads ([`ReplicatedStore::read_with`]): served from the applied
//!   state under its mutex, without a log slot. Linearizable because a
//!   command's response is only released *at apply time*, so everything a
//!   caller could have observed complete is already in the applied state.
//!
//! [`ConsensusEngine`]: mc_runtime::ConsensusEngine
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
//! // Fast read: no log slot consumed.
//! assert_eq!(client.read(|kv: &KvStore| kv.get(7)), Some(1));
//! store.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod cell;
mod error;
mod kv;
mod machine;
mod store;

pub use builder::StoreBuilder;
pub use cell::CommandHandle;
pub use error::StoreError;
pub use kv::{KvCommand, KvResponse, KvStore};
pub use machine::StateMachine;
pub use store::{ReplicatedStore, StoreClient};
