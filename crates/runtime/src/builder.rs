//! The single construction path for runtime consensus objects.
//!
//! The runtime accreted four ways to build an object — `Consensus::binary`,
//! `with_recorder`, the `*_in` memory-injected constructors, and bare
//! [`ConsensusOptions`]/`EngineOptions` structs. The builders collapse
//! them into one fluent seam:
//!
//! ```
//! use mc_runtime::Consensus;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let c = Consensus::builder().n(1).values(16).build();
//! assert_eq!(c.decide(11, &mut SmallRng::seed_from_u64(1)), 11);
//! ```
//!
//! The memory substrate — the Hadzilacos–Hu–Toueg-style parameter the old
//! API threaded through ad-hoc `_in` suffixes — is one builder call:
//! `.memory(m)` rebinds the builder to any [`SharedMemory`], so plain
//! atomics, the lab's instrumented substrate, and fault-injection layers
//! all flow through the same construction path.

use std::sync::Arc;

use mc_core::Ratifier;
use mc_quorums::{BinaryScheme, BinomialScheme, QuorumScheme};
use mc_telemetry::Recorder;

use crate::bounded::{BoundedConsensus, LeaderFallback, DEFAULT_MAX_CONCILIATOR_ROUNDS};
use crate::consensus::{ConciliatorChoice, Consensus, ConsensusOptions};
use crate::engine::{ConsensusEngine, EngineOptions};
use crate::register::{AtomicMemory, SharedMemory};
use crate::telemetry::RuntimeTelemetry;

/// Fluent constructor for [`Consensus`] (and, via
/// [`build_bounded`](ConsensusBuilder::build_bounded), for
/// [`BoundedConsensus`]). Obtain one from [`Consensus::builder`].
///
/// Required: [`n`](ConsensusBuilder::n). Everything else defaults to the
/// paper's binary protocol: 2 values, impatient conciliator, fast path
/// on, plain atomics, no event recorder; a bounded object stops after
/// [`DEFAULT_MAX_CONCILIATOR_ROUNDS`] conciliator stages.
#[derive(Clone)]
pub struct ConsensusBuilder<M: SharedMemory = AtomicMemory> {
    memory: M,
    n: usize,
    values: u64,
    scheme: Option<Arc<dyn QuorumScheme>>,
    fast_path: bool,
    max_conciliator_rounds: u32,
    conciliator: ConciliatorChoice,
    recorder: Option<Arc<dyn Recorder>>,
}

impl Default for ConsensusBuilder {
    fn default() -> ConsensusBuilder {
        ConsensusBuilder {
            memory: AtomicMemory,
            n: 0,
            values: 2,
            scheme: None,
            fast_path: true,
            max_conciliator_rounds: DEFAULT_MAX_CONCILIATOR_ROUNDS,
            conciliator: ConciliatorChoice::Impatient,
            recorder: None,
        }
    }
}

impl ConsensusBuilder {
    /// A builder with every knob at its default (binary protocol over
    /// plain atomics); [`n`](ConsensusBuilder::n) must still be set.
    pub fn new() -> ConsensusBuilder {
        ConsensusBuilder::default()
    }
}

impl<M: SharedMemory> ConsensusBuilder<M> {
    /// Maximum number of participating threads. Required.
    #[must_use]
    pub fn n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Number of distinct proposal values (default 2). `2` selects the
    /// binary quorum scheme, larger values the binomial scheme — exactly
    /// the old `binary`/`multivalued` split. Ignored when an explicit
    /// [`scheme`](ConsensusBuilder::scheme) is set.
    #[must_use]
    pub fn values(mut self, m: u64) -> Self {
        self.values = m;
        self
    }

    /// Explicit quorum scheme, overriding
    /// [`values`](ConsensusBuilder::values).
    #[must_use]
    pub fn scheme(mut self, scheme: Arc<dyn QuorumScheme>) -> Self {
        self.scheme = Some(scheme);
        self
    }

    /// Whether to run the `R₋₁; R₀` fast path (default `true`).
    #[must_use]
    pub fn fast_path(mut self, on: bool) -> Self {
        self.fast_path = on;
        self
    }

    /// Bound `f` on conciliator stages for
    /// [`build_bounded`](ConsensusBuilder::build_bounded) (Theorem 5;
    /// default [`DEFAULT_MAX_CONCILIATOR_ROUNDS`]). The unbounded
    /// [`build`](ConsensusBuilder::build) ignores it.
    #[must_use]
    pub fn max_conciliator_rounds(mut self, rounds: u32) -> Self {
        self.max_conciliator_rounds = rounds;
        self
    }

    /// Which conciliator the `C` stages instantiate (default
    /// [`ConciliatorChoice::Impatient`]): the impatient probabilistic-write
    /// racer, or the Theorem 6 coin wrapper, which requires binary
    /// capacity.
    #[must_use]
    pub fn conciliator(mut self, choice: ConciliatorChoice) -> Self {
        self.conciliator = choice;
        self
    }

    /// Telemetry event sink. Counters are collected either way; a recorder
    /// additionally streams structured [`TelemetryEvent`]s.
    ///
    /// [`TelemetryEvent`]: mc_telemetry::TelemetryEvent
    #[must_use]
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Register substrate the object's registers live in, replacing the
    /// default plain atomics — e.g. a lab memory or a
    /// [`FaultyMemory`](crate::FaultyMemory) layer.
    #[must_use]
    pub fn memory<M2: SharedMemory>(self, memory: M2) -> ConsensusBuilder<M2> {
        ConsensusBuilder {
            memory,
            n: self.n,
            values: self.values,
            scheme: self.scheme,
            fast_path: self.fast_path,
            max_conciliator_rounds: self.max_conciliator_rounds,
            conciliator: self.conciliator,
            recorder: self.recorder,
        }
    }

    /// The [`ConsensusOptions`] this builder resolves to, for the builds
    /// below and the engine's.
    ///
    /// # Panics
    ///
    /// Panics if `n` was never set, or if `values < 2` with no explicit
    /// scheme.
    pub(crate) fn options(&self) -> ConsensusOptions {
        assert!(self.n > 0, "ConsensusBuilder::n is required (and nonzero)");
        let scheme = match &self.scheme {
            Some(scheme) => Arc::clone(scheme),
            None => {
                assert!(self.values >= 2, "consensus needs at least 2 values");
                if self.values == 2 {
                    Arc::new(BinaryScheme::new()) as Arc<dyn QuorumScheme>
                } else {
                    Arc::new(BinomialScheme::for_capacity(self.values).expect("m ≥ 2"))
                }
            }
        };
        ConsensusOptions {
            n: self.n,
            ratifier: Ratifier::with_scheme(Arc::clone(&scheme)),
            scheme,
            fast_path: self.fast_path,
            conciliator: self.conciliator.clone(),
        }
    }

    pub(crate) fn telemetry(&self) -> Arc<RuntimeTelemetry> {
        Arc::new(match &self.recorder {
            Some(recorder) => RuntimeTelemetry::new(Arc::clone(recorder)),
            None => RuntimeTelemetry::noop(),
        })
    }

    /// Builds the unbounded consensus object `R₋₁; R₀; C₁; R₁; …`.
    ///
    /// # Panics
    ///
    /// Panics if `n` was never set, or if `values < 2` with no explicit
    /// scheme.
    pub fn build(self) -> Consensus<M> {
        let options = self.options();
        let telemetry = self.telemetry();
        Consensus::with_telemetry_in(self.memory, Arc::new(options), telemetry)
    }

    /// Builds Theorem 5's bounded object `R₋₁; R₀; (C; R)^f; K` with the
    /// single-writer leader fallback.
    ///
    /// # Panics
    ///
    /// Panics if `n` was never set, or if `values < 2` with no explicit
    /// scheme.
    pub fn build_bounded(self) -> BoundedConsensus<M> {
        let fallback = LeaderFallback::new_in(&self.memory, self.n.max(1));
        let options = self.options();
        let telemetry = self.telemetry();
        BoundedConsensus::from_parts(
            Consensus::with_telemetry_in(self.memory, Arc::new(options), telemetry),
            fallback,
            self.max_conciliator_rounds,
        )
    }
}

impl<M: SharedMemory> std::fmt::Debug for ConsensusBuilder<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConsensusBuilder")
            .field("n", &self.n)
            .field("values", &self.values)
            .field("scheme", &self.scheme.as_ref().map(|s| s.name()))
            .field("fast_path", &self.fast_path)
            .field("recorder", &self.recorder.is_some())
            .finish_non_exhaustive()
    }
}

/// Fluent constructor for [`ConsensusEngine`]. Obtain one from
/// [`ConsensusEngine::builder`].
///
/// Wraps a [`ConsensusBuilder`] (all its knobs apply to every pooled
/// instance) plus the engine's own sharding and participant count.
#[derive(Clone, Debug)]
pub struct EngineBuilder<M: SharedMemory = AtomicMemory> {
    consensus: ConsensusBuilder<M>,
    engine: EngineOptions,
}

impl Default for EngineBuilder {
    fn default() -> EngineBuilder {
        EngineBuilder {
            consensus: ConsensusBuilder::default(),
            engine: EngineOptions::default(),
        }
    }
}

impl EngineBuilder {
    /// A builder with every knob at its default;
    /// [`n`](EngineBuilder::n) must still be set.
    pub fn new() -> EngineBuilder {
        EngineBuilder::default()
    }
}

impl<M: SharedMemory> EngineBuilder<M> {
    /// Maximum number of participating threads per instance. Required.
    #[must_use]
    pub fn n(mut self, n: usize) -> Self {
        self.consensus = self.consensus.n(n);
        self
    }

    /// Number of distinct proposal values (default 2); see
    /// [`ConsensusBuilder::values`].
    #[must_use]
    pub fn values(mut self, m: u64) -> Self {
        self.consensus = self.consensus.values(m);
        self
    }

    /// Explicit quorum scheme; see [`ConsensusBuilder::scheme`].
    #[must_use]
    pub fn scheme(mut self, scheme: Arc<dyn QuorumScheme>) -> Self {
        self.consensus = self.consensus.scheme(scheme);
        self
    }

    /// Fast-path toggle; see [`ConsensusBuilder::fast_path`].
    #[must_use]
    pub fn fast_path(mut self, on: bool) -> Self {
        self.consensus = self.consensus.fast_path(on);
        self
    }

    /// Telemetry event sink; see [`ConsensusBuilder::recorder`].
    #[must_use]
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.consensus = self.consensus.recorder(recorder);
        self
    }

    /// Register substrate; see [`ConsensusBuilder::memory`].
    #[must_use]
    pub fn memory<M2: SharedMemory>(self, memory: M2) -> EngineBuilder<M2> {
        EngineBuilder {
            consensus: self.consensus.memory(memory),
            engine: self.engine,
        }
    }

    /// Number of shards instances are hashed across (default: one per
    /// available core).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.engine.shards = shards;
        self
    }

    /// Submits each instance receives before it is retired (default: `n`,
    /// every participant).
    #[must_use]
    pub fn participants(mut self, participants: usize) -> Self {
        self.engine.participants = participants;
        self
    }

    /// Builds the engine.
    ///
    /// # Panics
    ///
    /// As [`ConsensusBuilder::build`], plus the engine's own validation
    /// (`participants ≤ n`).
    pub fn build(self) -> ConsensusEngine<M> {
        let options = self.consensus.options();
        let telemetry = self.consensus.telemetry();
        ConsensusEngine::with_telemetry_in(self.consensus.memory, options, self.engine, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    #[test]
    fn builder_defaults_match_the_binary_protocol() {
        let options = Consensus::builder().n(4).options();
        assert_eq!(options.n, 4);
        assert_eq!(options.scheme.capacity(), 2);
        assert!(options.fast_path);
        assert_eq!(options.conciliator, ConciliatorChoice::Impatient);
    }

    #[test]
    fn conciliator_choice_flows_into_the_options() {
        use crate::consensus::CoinKind;
        let choice = ConciliatorChoice::Coin(CoinKind::voting());
        let options = Consensus::builder()
            .n(2)
            .conciliator(choice.clone())
            .options();
        assert_eq!(options.conciliator, choice);
        // The built object decides; that its stages are coin stages is
        // checked by `coin_choice_builds_coin_stages_before_and_after_reset`.
        let c = Consensus::builder().n(1).conciliator(choice).build();
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(c.decide(1, &mut rng), 1);
    }

    #[test]
    fn values_selects_the_binomial_scheme() {
        let c = Consensus::builder().n(2).values(20).build();
        assert_eq!(c.capacity(), 20);
        let mut rng = SmallRng::seed_from_u64(0);
        // Single caller decides its own value.
        let c1 = Consensus::builder().n(1).values(16).build();
        assert_eq!(c1.decide(11, &mut rng), 11);
    }

    #[test]
    fn recorder_flows_into_the_built_object() {
        let agg = Arc::new(mc_telemetry::AggregatingRecorder::new());
        let c = Consensus::builder()
            .n(1)
            .recorder(Arc::clone(&agg) as Arc<dyn Recorder>)
            .build();
        assert!(format!("{:?}", c.telemetry()).contains("events_on: true"));
        let mut rng = SmallRng::seed_from_u64(0);
        c.decide(1, &mut rng);
        assert_eq!(agg.count(mc_telemetry::Tally::Decisions), 1);
    }

    #[test]
    fn bounded_builder_terminates_and_shares_options_shape() {
        let c = Consensus::builder()
            .n(1)
            .values(8)
            .max_conciliator_rounds(3)
            .build_bounded();
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(c.decide(0, 5, &mut rng), 5);
    }

    #[test]
    fn engine_builder_builds_a_working_engine() {
        let engine = ConsensusEngine::builder()
            .n(1)
            .values(64)
            .shards(2)
            .participants(1)
            .build();
        assert_eq!(engine.shard_count(), 2);
        assert_eq!(engine.participants(), 1);
        let mut rng = SmallRng::seed_from_u64(0);
        for id in 0..10u64 {
            assert_eq!(engine.submit(id, id % 64, &mut rng), id % 64);
        }
        assert_eq!(engine.live_instances(), 0);
    }

    #[test]
    #[should_panic(expected = "ConsensusBuilder::n is required")]
    fn unset_n_is_rejected() {
        Consensus::builder().build();
    }

    #[test]
    #[should_panic(expected = "at least 2 values")]
    fn tiny_capacity_rejected() {
        Consensus::builder().n(2).values(1).build();
    }
}
