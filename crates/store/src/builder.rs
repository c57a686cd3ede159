//! The store end of the unified builder chain:
//! `ConsensusBuilder → EngineBuilder → StoreBuilder`.

use std::sync::Arc;

use mc_runtime::{AtomicMemory, EngineBuilder, SharedMemory};
use mc_telemetry::Recorder;

use crate::machine::StateMachine;
use crate::store::ReplicatedStore;

/// Store-layer knobs, separate from the consensus/engine knobs the
/// builder passes through.
#[derive(Debug, Clone)]
pub(crate) struct StoreOptions {
    /// Proposer identities callers lease to order batches: the consensus
    /// `n` and (at least 2) the value space.
    /// Default 2.
    pub proposers: usize,
    /// Maximum commands drafted into one batch (one log slot). Group
    /// commit: one consensus round orders up to this many commands,
    /// gathered from whole submissions; a single larger submission is a
    /// batch of its own. Default 512.
    pub batch_commands: usize,
    /// Capacity hint for the session table; see
    /// [`StoreBuilder::expected_sessions`]. Default 0.
    pub expected_sessions: usize,
    /// Base seed of the identities' coin streams: identity `i` decides on
    /// `mix_seed(seed, i)`. Default `0x5EED`.
    pub seed: u64,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            proposers: 2,
            batch_commands: 512,
            expected_sessions: 0,
            seed: 0x5EED,
        }
    }
}

/// Builds a [`ReplicatedStore`]: store knobs here, everything beneath
/// (memory substrate, recorder) passed through to the wrapped
/// [`EngineBuilder`] — one fluent chain from coin flips to KV responses.
///
/// ```
/// use mc_store::{KvStore, ReplicatedStore};
///
/// let store = ReplicatedStore::<KvStore>::builder()
///     .proposers(3)
///     .batch_commands(64)
///     .build();
/// # drop(store);
/// ```
#[derive(Debug)]
pub struct StoreBuilder<S: StateMachine, M: SharedMemory = AtomicMemory> {
    engine: EngineBuilder<M>,
    options: StoreOptions,
    initial: S,
}

impl<S: StateMachine + Default> StoreBuilder<S> {
    /// A builder with default options and `S::default()` as the initial
    /// state.
    pub fn new() -> StoreBuilder<S> {
        StoreBuilder {
            engine: EngineBuilder::new(),
            options: StoreOptions::default(),
            initial: S::default(),
        }
    }
}

impl<S: StateMachine + Default> Default for StoreBuilder<S> {
    fn default() -> StoreBuilder<S> {
        StoreBuilder::new()
    }
}

impl<S: StateMachine, M: SharedMemory> StoreBuilder<S, M> {
    // ---- store knobs -------------------------------------------------

    /// Proposer identities (consensus `n`): how
    /// many callers can drive the store at once. Default 2.
    pub fn proposers(mut self, proposers: usize) -> Self {
        self.options.proposers = proposers.max(1);
        self
    }

    /// Maximum commands per batch (per log slot), drafted from whole
    /// submissions. A [`submit_batch`](ReplicatedStore::submit_batch)
    /// larger than this is never split: it is a batch of its own, one
    /// slot and one long apply under the state mutex, which fast reads
    /// wait behind. Default 512.
    pub fn batch_commands(mut self, commands: usize) -> Self {
        self.options.batch_commands = commands.max(1);
        self
    }

    /// Pre-sizes the session table for workloads with a known client
    /// population. Workloads that open sessions by the million (one per
    /// client id) otherwise pay a full-table rehash every time the map
    /// doubles, on the applying caller's critical path. `0` (the default)
    /// starts empty and grows on demand.
    pub fn expected_sessions(mut self, sessions: usize) -> Self {
        self.options.expected_sessions = sessions;
        self
    }

    /// Base seed of the proposer identities' coin streams: identity `pid`
    /// decides on `mix_seed(seed, pid)`. Nothing else in the store or the
    /// engine beneath reads it. Default `0x5EED`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.options.seed = seed;
        self
    }

    // ---- engine/consensus passthroughs -------------------------------

    /// Telemetry recorder threaded down the whole stack.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.engine = self.engine.recorder(recorder);
        self
    }

    /// Swaps the shared-memory implementation (chaos memory, recorders).
    pub fn memory<M2: SharedMemory>(self, memory: M2) -> StoreBuilder<S, M2> {
        StoreBuilder {
            engine: self.engine.memory(memory),
            options: self.options,
            initial: self.initial,
        }
    }

    // ---- build -------------------------------------------------------

    /// Builds the engine (consensus `n` = `proposers`; value space = the
    /// identities, `max(proposers, 2)`) and the store over it, which keeps
    /// each slot's instance and winning identity in its intake; the engine
    /// only builds the instances. No thread is started: callers drive the
    /// store.
    pub fn build(self) -> ReplicatedStore<S, M> {
        let values = self.options.proposers.max(2) as u64;
        let engine = self.engine.n(self.options.proposers).values(values).build();
        ReplicatedStore::start(engine, self.options, self.initial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{KvCommand, KvResponse, KvStore};

    #[test]
    fn defaults_are_documented() {
        let options = StoreOptions::default();
        assert_eq!(options.proposers, 2);
        assert_eq!(options.batch_commands, 512);
        assert_eq!(options.expected_sessions, 0);
        assert_eq!(options.seed, 0x5EED);
    }

    #[test]
    fn degenerate_knobs_are_clamped_to_one() {
        let mut store = StoreBuilder::<KvStore>::new()
            .proposers(0)
            .batch_commands(0)
            .build();
        let mut client = store.client();
        assert_eq!(
            client.call(KvCommand::Put { key: 1, value: 1 }).unwrap(),
            KvResponse::Stored(None)
        );
        store.shutdown();
    }

    #[test]
    fn passthroughs_compose_with_store_knobs() {
        let mut store = StoreBuilder::<KvStore>::new()
            .seed(7)
            .proposers(2)
            .batch_commands(4)
            .build();
        let mut client = store.client();
        for i in 0..10 {
            client.call(KvCommand::Put { key: i, value: i }).unwrap();
        }
        assert_eq!(store.applied_commands(), 10);
        store.shutdown();
    }
}
