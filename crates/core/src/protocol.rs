//! The consensus constructions of §4.
//!
//! * **Unbounded** (§4.1.1): `U = R₋₁; R₀; C₁; R₁; C₂; R₂; …` — an infinite
//!   alternation of ratifiers and conciliators, preceded by a two-ratifier
//!   *fast path* that decides without any conciliator when the fastest
//!   processes already agree. Terminates with probability 1 because each
//!   conciliator produces agreement with probability `δ` and the following
//!   ratifier then forces a decision; expected conciliator rounds `≤ 1/δ`.
//! * **Bounded** (§4.1.2, Theorem 5): truncate after `k` conciliator rounds
//!   and fall back to a self-contained consensus protocol `K`; the fallback
//!   is reached with probability `(1 − δ)^k`, so `k = Θ(log n)` makes its
//!   contribution to expected cost negligible.
//! * **Ratifier-only** (§4.2): `R = R₁; R₂; …` with no conciliators at all;
//!   terminates under scheduling restrictions (noisy or priority schedulers)
//!   because some process eventually runs far enough ahead to pass a
//!   ratifier alone.

use std::sync::Arc;

use mc_model::ObjectSpec;

use crate::compose::{Chain, ChainProbe};
use crate::conciliator::FirstMoverConciliator;
use crate::ratifier::Ratifier;

/// Builder for consensus objects from conciliator and ratifier parts.
///
/// The default configuration is the paper's headline protocol for the
/// probabilistic-write model: impatient first-mover conciliators, binomial
/// quorum ratifiers, fast path on, unbounded.
///
/// # Example
///
/// ```
/// use mc_core::protocol::ConsensusBuilder;
/// use mc_core::compose::ChainProbe;
///
/// let probe = ChainProbe::new();
/// let spec = ConsensusBuilder::multivalued(10)
///     .bounded(8)
///     .probe(std::sync::Arc::clone(&probe))
///     .build();
/// // `spec` is an ObjectSpec; run it with the mc-sim harness.
/// ```
#[derive(Clone)]
pub struct ConsensusBuilder {
    conciliator: Arc<dyn ObjectSpec>,
    ratifier: Arc<dyn ObjectSpec>,
    fast_path: bool,
    rounds_before_fallback: Option<usize>,
    probe: Option<Arc<ChainProbe>>,
    label: String,
}

impl ConsensusBuilder {
    /// Consensus from explicit conciliator and ratifier specs.
    ///
    /// One spec instance is reused for every round; each round instantiates
    /// a fresh object from it.
    pub fn new(
        conciliator: Arc<dyn ObjectSpec>,
        ratifier: Arc<dyn ObjectSpec>,
    ) -> ConsensusBuilder {
        let label = format!("consensus[{}; {}]", conciliator.name(), ratifier.name());
        ConsensusBuilder {
            conciliator,
            ratifier,
            fast_path: true,
            rounds_before_fallback: None,
            probe: None,
            label,
        }
    }

    /// Binary consensus in the probabilistic-write model: impatient
    /// conciliator + 3-register binary ratifier. `O(log n)` expected
    /// individual work, `O(n)` expected total work.
    pub fn binary() -> ConsensusBuilder {
        ConsensusBuilder::new(
            Arc::new(FirstMoverConciliator::impatient()),
            Arc::new(Ratifier::binary()),
        )
    }

    /// `m`-valued consensus in the probabilistic-write model: impatient
    /// conciliator + binomial quorum ratifier. `O(log n + log m)` expected
    /// individual work, `O(n log m)` expected total work.
    ///
    /// # Panics
    ///
    /// Panics if `m < 2`.
    pub fn multivalued(m: u64) -> ConsensusBuilder {
        assert!(m >= 2, "consensus needs at least 2 values");
        if m == 2 {
            return ConsensusBuilder::binary();
        }
        ConsensusBuilder::new(
            Arc::new(FirstMoverConciliator::impatient()),
            Arc::new(Ratifier::binomial(m)),
        )
    }

    /// The Chor–Israeli–Li-style baseline: fixed `1/n` write probability
    /// conciliators. Same agreement guarantees, `Θ(n)` individual work.
    pub fn cil_baseline(m: u64) -> ConsensusBuilder {
        let ratifier: Arc<dyn ObjectSpec> = if m <= 2 {
            Arc::new(Ratifier::binary())
        } else {
            Arc::new(Ratifier::binomial(m))
        };
        ConsensusBuilder::new(Arc::new(FirstMoverConciliator::fixed(1.0)), ratifier)
    }

    /// Disables the `R₋₁; R₀` fast-path prefix (the protocol then starts
    /// with `C₁`).
    pub fn without_fast_path(mut self) -> ConsensusBuilder {
        self.fast_path = false;
        self
    }

    /// Truncates after `rounds` conciliator/ratifier pairs, then runs the
    /// fallback protocol `K` (Theorem 5): a CIL-style racing consensus — a
    /// self-contained first-mover protocol with fixed write probabilities
    /// and no fast path.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn bounded(mut self, rounds: usize) -> ConsensusBuilder {
        assert!(rounds > 0, "at least one round before fallback");
        self.rounds_before_fallback = Some(rounds);
        self
    }

    /// Attaches a probe recording chain depth and per-process halt sites
    /// (used by the round-count and fallback-rate experiments).
    pub fn probe(mut self, probe: Arc<ChainProbe>) -> ConsensusBuilder {
        self.probe = Some(probe);
        self
    }

    /// Builds the consensus object as a lazily instantiated chain.
    pub fn build(self) -> Chain {
        let conciliator = self.conciliator;
        let ratifier = self.ratifier;
        let prefix = if self.fast_path { 2 } else { 0 };
        let mut label = self.label;
        if self.fast_path {
            label.push_str("+fast");
        }
        if let Some(k) = self.rounds_before_fallback {
            label.push_str(&format!("+bounded({k})"));
        }
        // Theorem 5's fallback `K` is the stage after `C_f; R_f`.
        let fallback = self
            .rounds_before_fallback
            .map(|rounds| (prefix + 2 * rounds, default_fallback(Arc::clone(&ratifier))));
        let stage = move |stage: usize| {
            if stage < prefix {
                // The fast path R₋₁; R₀.
                return Arc::clone(&ratifier);
            }
            // Alternating C_i; R_i after the prefix.
            if (stage - prefix).is_multiple_of(2) {
                Arc::clone(&conciliator)
            } else {
                Arc::clone(&ratifier)
            }
        };
        let chain = match fallback {
            Some((rounds, k)) => Chain::bounded(label, stage, rounds, Arc::new(k)),
            None => Chain::unbounded(label, stage),
        };
        match self.probe {
            Some(p) => chain.with_probe(p),
            None => chain,
        }
    }
}

impl std::fmt::Debug for ConsensusBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConsensusBuilder")
            .field("conciliator", &self.conciliator.name())
            .field("ratifier", &self.ratifier.name())
            .field("fast_path", &self.fast_path)
            .field("rounds_before_fallback", &self.rounds_before_fallback)
            .finish()
    }
}

/// The fallback `K`: a self-contained CIL-style racing consensus —
/// unbounded alternation of fixed-probability first-mover conciliators with
/// the given ratifier, no fast path.
///
/// The paper's Theorem 5 uses "e.g. the polynomial-time bounded-space
/// construction of [4]" here; any terminating consensus protocol works, and
/// this one lives in the same probabilistic-write model. Its register
/// *count* is bounded per round and the expected number of rounds is
/// constant; see DESIGN.md for the substitution note.
fn default_fallback(ratifier: Arc<dyn ObjectSpec>) -> Chain {
    Chain::unbounded("cil-racing-fallback", move |stage| {
        if stage % 2 == 0 {
            Arc::new(FirstMoverConciliator::fixed(1.0)) as Arc<dyn ObjectSpec>
        } else {
            Arc::clone(&ratifier)
        }
    })
}

/// The ratifier-only protocol `R = R₁; R₂; …` of §4.2.
///
/// Not a consensus protocol under a general adversary (it can livelock),
/// but terminates under the noisy scheduler and under priority scheduling,
/// where some process eventually completes a ratifier before any process
/// with a conflicting value enters it.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mc_core::{protocol::ratifier_only, Ratifier};
/// use mc_sim::{harness, sched::PriorityScheduler, EngineConfig};
///
/// let spec = ratifier_only(Arc::new(Ratifier::binary()));
/// let outcome = harness::run_object(
///     &spec,
///     &[0, 1, 1],
///     &mut PriorityScheduler::descending(3),
///     0,
///     &EngineConfig::default(),
/// )
/// .unwrap();
/// // The highest-priority process runs solo and drags everyone along.
/// assert!(outcome.outputs.iter().all(|d| d.is_decided()));
/// ```
pub fn ratifier_only(ratifier: Arc<dyn ObjectSpec>) -> Chain {
    let label = format!("ratifier-only[{}]", ratifier.name());
    Chain::unbounded(label, move |_| Arc::clone(&ratifier))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_model::properties;
    use mc_sim::adversary::{
        FixedOrder, ImpatienceExploiter, RandomScheduler, RoundRobin, SplitKeeper, WriteBlocker,
    };
    use mc_sim::harness::{self, inputs};
    use mc_sim::sched::{NoisyScheduler, PriorityScheduler};
    use mc_sim::{EngineConfig, RunError};

    type AdversaryFactory = fn(u64, usize) -> Box<dyn mc_sim::Adversary>;

    #[test]
    fn binary_consensus_under_every_adversary() {
        let spec = ConsensusBuilder::binary().build();
        let adversaries: Vec<AdversaryFactory> = vec![
            |_, _| Box::new(RoundRobin::new()),
            |s, _| Box::new(RandomScheduler::new(s)),
            |_, _| Box::new(ImpatienceExploiter::new()),
            |s, _| Box::new(SplitKeeper::new(s)),
            |_, _| Box::new(WriteBlocker::new()),
            |_, n| Box::new(FixedOrder::bursty(n, 3)),
        ];
        let n = 6;
        for mk in &adversaries {
            for seed in 0..15 {
                let ins = inputs::alternating(n, 2);
                let mut adv = mk(seed, n);
                let name = adv.name();
                let out =
                    harness::run_object(&spec, &ins, adv.as_mut(), seed, &EngineConfig::default())
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                properties::check_consensus(&ins, &out.outputs)
                    .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            }
        }
    }

    #[test]
    fn multivalued_consensus_is_correct() {
        for m in [3u64, 8, 50] {
            let spec = ConsensusBuilder::multivalued(m).build();
            for seed in 0..10 {
                let ins = inputs::random(7, m, seed);
                let out = harness::run_object(
                    &spec,
                    &ins,
                    &mut RandomScheduler::new(seed),
                    seed,
                    &EngineConfig::default(),
                )
                .unwrap();
                properties::check_consensus(&ins, &out.outputs).unwrap();
            }
        }
    }

    #[test]
    fn fast_path_decides_unanimous_inputs_without_conciliators() {
        let probe = ChainProbe::new();
        let spec = ConsensusBuilder::binary().probe(Arc::clone(&probe)).build();
        let out = harness::run_object(
            &spec,
            &inputs::unanimous(8, 1),
            &mut RoundRobin::new(),
            3,
            &EngineConfig::default(),
        )
        .unwrap();
        properties::check_consensus(&inputs::unanimous(8, 1), &out.outputs).unwrap();
        // Everyone decided within the two fast-path ratifiers (stages 0–1).
        assert!(probe.max_stage() <= 1, "max stage {}", probe.max_stage());
        // 4 ops in R₋₁ (+ up to 4 in R₀ for coherence stragglers).
        assert!(out.metrics.individual_work() <= 8);
    }

    #[test]
    fn bounded_construction_decides_and_rarely_falls_back() {
        let probe = ChainProbe::new();
        let spec = ConsensusBuilder::binary()
            .bounded(10)
            .probe(Arc::clone(&probe))
            .build();
        for seed in 0..30 {
            let ins = inputs::alternating(5, 2);
            let out = harness::run_object(
                &spec,
                &ins,
                &mut RandomScheduler::new(seed),
                seed,
                &EngineConfig::default(),
            )
            .unwrap();
            properties::check_consensus(&ins, &out.outputs).unwrap();
        }
        // Fallback starts at stage 2 + 2·10 = 22; with δ ≈ 0.35+ observed,
        // 30 runs should never get near it.
        assert!(probe.max_stage() < 22, "max stage {}", probe.max_stage());
    }

    #[test]
    fn fallback_is_reachable_and_correct_when_rounds_is_tiny() {
        // With one round before fallback, disagreement after C₁;R₁ lands in
        // the fallback — which must still produce correct consensus.
        let probe = ChainProbe::new();
        let spec = ConsensusBuilder::binary()
            .bounded(1)
            .probe(Arc::clone(&probe))
            .build();
        let mut fellback = 0;
        for seed in 0..100 {
            let ins = inputs::alternating(6, 2);
            let out = harness::run_object(
                &spec,
                &ins,
                &mut RandomScheduler::new(seed),
                seed,
                &EngineConfig::default(),
            )
            .unwrap();
            properties::check_consensus(&ins, &out.outputs).unwrap();
            if probe.max_stage() >= 4 {
                fellback += 1;
            }
            probe.reset();
        }
        assert!(fellback > 0, "fallback never exercised in 100 runs");
    }

    #[test]
    fn ratifier_only_livelocks_under_round_robin() {
        let spec = ratifier_only(Arc::new(Ratifier::binary()));
        let err = harness::run_object(
            &spec,
            &inputs::alternating(2, 2),
            &mut RoundRobin::new(),
            0,
            &EngineConfig::default().with_max_steps(10_000),
        )
        .unwrap_err();
        assert!(matches!(err, RunError::StepLimitExceeded { .. }));
    }

    #[test]
    fn ratifier_only_terminates_under_priority_scheduling() {
        let spec = ratifier_only(Arc::new(Ratifier::binary()));
        for n in [2usize, 4, 8] {
            let ins = inputs::alternating(n, 2);
            let out = harness::run_object(
                &spec,
                &ins,
                &mut PriorityScheduler::descending(n),
                1,
                &EngineConfig::default(),
            )
            .unwrap();
            properties::check_consensus(&ins, &out.outputs).unwrap();
        }
    }

    #[test]
    fn ratifier_only_terminates_under_noisy_scheduler() {
        let spec = ratifier_only(Arc::new(Ratifier::binary()));
        for seed in 0..5 {
            let n = 4;
            let ins = inputs::alternating(n, 2);
            let out = harness::run_object(
                &spec,
                &ins,
                &mut NoisyScheduler::new(n, 0.5, seed),
                seed,
                &EngineConfig::default(),
            )
            .unwrap();
            properties::check_consensus(&ins, &out.outputs).unwrap();
        }
    }

    #[test]
    fn builder_labels_are_descriptive() {
        let spec = ConsensusBuilder::binary().bounded(4).build();
        let name = mc_model::ObjectSpec::name(&spec);
        assert!(name.contains("first-mover(2^k/n)"), "{name}");
        assert!(name.contains("+fast"), "{name}");
        assert!(name.contains("bounded(4)"), "{name}");
    }

    #[test]
    #[should_panic(expected = "at least 2 values")]
    fn degenerate_m_rejected() {
        ConsensusBuilder::multivalued(1);
    }
}
