//! The full consensus object on real threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

use mc_core::conciliator::WriteSchedule;
use mc_quorums::{BinomialScheme, QuorumScheme};
use mc_telemetry::{ConciliatorKind, StageKind};
use rand::Rng;

use crate::coin::{CoinConciliator, CoinKind, LocalCoin, VotingCoin};
use crate::conciliator::{AdaptiveOptions, Conciliator, ConciliatorChoice, ImpatientConciliator};
use crate::ratifier::AtomicRatifier;
use crate::register::{AtomicMemory, SharedMemory};
use crate::telemetry::{CounterKey, RuntimeTelemetry};

/// Configuration for a thread-runtime [`Consensus`] object.
#[derive(Clone)]
pub struct ConsensusOptions {
    /// Maximum number of participating threads.
    pub n: usize,
    /// Quorum scheme for the ratifiers (determines the value capacity).
    pub scheme: Arc<dyn QuorumScheme>,
    /// Write-probability schedule for the conciliators.
    pub schedule: WriteSchedule,
    /// Whether to run the `R₋₁; R₀` fast path before the first conciliator.
    pub fast_path: bool,
    /// Which conciliator implementation the `C₁; C₂; …` stages instantiate
    /// (§5.1 / §5.2 / Theorem 6). Non-impatient choices are binary only.
    pub conciliator: ConciliatorChoice,
}

impl std::fmt::Debug for ConsensusOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConsensusOptions")
            .field("n", &self.n)
            .field("scheme", &self.scheme.name())
            .field("schedule", &self.schedule)
            .field("fast_path", &self.fast_path)
            .field("conciliator", &self.conciliator)
            .finish()
    }
}

/// The conciliator implementation a [`Consensus`] instance settled on for
/// its current generation — a fixed choice resolved once, or the adaptive
/// policy's per-instance verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ActiveConciliator {
    Impatient,
    Coin(CoinKind),
}

impl ActiveConciliator {
    fn kind(self) -> ConciliatorKind {
        match self {
            ActiveConciliator::Impatient => ConciliatorKind::Impatient,
            ActiveConciliator::Coin(_) => ConciliatorKind::Coin,
        }
    }
}

enum Stage<M: SharedMemory> {
    Ratifier(AtomicRatifier<M>),
    Conciliator(Box<dyn Conciliator<M>>),
}

impl<M: SharedMemory> Stage<M> {
    /// Retires the stage's registers into their next generation.
    fn reset(&mut self) {
        match self {
            Stage::Ratifier(r) => r.reset(),
            Stage::Conciliator(c) => c.reset(),
        }
    }
}

/// How a [`Consensus::walk`] over the chain ended.
pub(crate) enum Exit {
    /// A ratifier decided this value.
    Decided(u64),
    /// No stage before the walk's limit decided; this is the value the
    /// last stage carried out.
    Exhausted(u64),
}

/// A one-shot randomized consensus object for up to `n` threads: the
/// unbounded construction `R₋₁; R₀; C₁; R₁; C₂; R₂; …` of §4.1.1, with
/// stages materialized lazily as threads reach them.
///
/// Each thread calls [`decide`](Consensus::decide) exactly once with its
/// proposal; all calls return the same value, equal to some thread's
/// proposal, with probability 1 in finite expected time (`O(log n)` expected
/// register operations per thread, `O(n log m)` total).
///
/// Stage materialization takes a short [`RwLock`] write lock;
/// everything on the hot path is lock-free loads/stores. Strictly speaking
/// this makes the implementation lock-based at stage boundaries — the price
/// of unbounded lazily-allocated stages in a practical runtime.
///
/// The register substrate is the type parameter `M`, defaulted to
/// [`AtomicMemory`] (plain `AtomicU64`s, zero overhead). `mc-lab`
/// substitutes an instrumented substrate to run the *same* object under a
/// deterministic scheduler. Stages materialize in index order and each
/// stage allocates its registers in a fixed order, so register ids are
/// identical across substrates under identical interleavings.
pub struct Consensus<M: SharedMemory = AtomicMemory> {
    /// Shared, not cloned: a pooling engine hands every instance the same
    /// validated options, so per-instance setup is a pointer bump — no
    /// quorum-scheme re-validation.
    options: Arc<ConsensusOptions>,
    memory: M,
    stages: RwLock<Vec<Arc<Stage<M>>>>,
    /// How many times this object has been recycled via
    /// [`reset`](Consensus::reset); fresh objects are in generation 0.
    generation: u64,
    /// The conciliator implementation this instance's `C` stages use —
    /// resolved from `options.conciliator` at construction and re-resolved
    /// on every [`reset`](Consensus::reset) (where the adaptive policy gets
    /// to change its mind between instances).
    active: ActiveConciliator,
    /// Hands each plain [`decide`](Consensus::decide) caller a distinct
    /// thread slot; under one-shot semantics (≤ `n` calls per instance) the
    /// slots are unique, which is what per-thread coin registers require.
    ticket: AtomicUsize,
    telemetry: Arc<RuntimeTelemetry>,
}

impl Consensus {
    /// Starts building a consensus object: the single documented
    /// construction path.
    ///
    /// ```
    /// use mc_runtime::Consensus;
    /// let c = Consensus::builder().n(4).values(100).build();
    /// // Binomial quorums round the capacity up to the next C(k, k/2).
    /// assert!(c.capacity() >= 100);
    /// ```
    pub fn builder() -> crate::ConsensusBuilder {
        crate::ConsensusBuilder::new()
    }

    pub(crate) fn multivalued_options(n: usize, m: u64) -> ConsensusOptions {
        assert!(m >= 2, "consensus needs at least 2 values");
        ConsensusOptions {
            n,
            scheme: Arc::new(BinomialScheme::for_capacity(m).expect("m ≥ 2")),
            schedule: WriteSchedule::impatient(),
            fast_path: true,
            conciliator: ConciliatorChoice::Impatient,
        }
    }
}

impl<M: SharedMemory> Consensus<M> {
    /// Consensus whose options are *shared by reference*: repeated instance
    /// setup (a pooling engine, one instance per log slot) clones only the
    /// `Arc`, so the quorum scheme inside is validated exactly once, at
    /// options construction.
    ///
    /// # Panics
    ///
    /// Panics if `options.n == 0`.
    pub fn with_shared_options_in(memory: M, options: Arc<ConsensusOptions>) -> Consensus<M> {
        let telemetry = Arc::new(RuntimeTelemetry::noop(options.n));
        Consensus::with_telemetry_in(memory, options, telemetry)
    }

    pub(crate) fn with_telemetry_in(
        memory: M,
        options: Arc<ConsensusOptions>,
        telemetry: Arc<RuntimeTelemetry>,
    ) -> Consensus<M> {
        assert!(options.n > 0, "need at least one thread");
        assert!(
            matches!(options.conciliator, ConciliatorChoice::Impatient)
                || options.scheme.capacity() <= 2,
            "coin conciliators are binary: capacity {} exceeds 2",
            options.scheme.capacity()
        );
        let active = Consensus::<M>::resolve_choice(&options.conciliator, 0, &telemetry);
        Consensus {
            options,
            memory,
            stages: RwLock::new(Vec::new()),
            generation: 0,
            active,
            ticket: AtomicUsize::new(0),
            telemetry,
        }
    }

    /// Resolves the portfolio choice for the instance entering `generation`.
    ///
    /// Fixed choices are immediate. The adaptive policy consults the
    /// telemetry window's δ̂ estimate: with enough samples and an estimate
    /// below the threshold it selects the coin conciliator; otherwise (in
    /// particular on an empty or thin window) it stays impatient. Adaptive
    /// resolutions are announced via the `conciliator_selected` event.
    fn resolve_choice(
        choice: &ConciliatorChoice,
        generation: u64,
        telemetry: &RuntimeTelemetry,
    ) -> ActiveConciliator {
        match choice {
            ConciliatorChoice::Impatient => ActiveConciliator::Impatient,
            ConciliatorChoice::Coin(kind) => ActiveConciliator::Coin(*kind),
            ConciliatorChoice::Adaptive(opts) => {
                let AdaptiveOptions {
                    window,
                    min_samples,
                    delta_threshold,
                    coin,
                } = *opts;
                let estimate = telemetry.delta_hat_over(window, min_samples);
                let samples = telemetry.delta_samples().min(window as u64);
                let active = match estimate {
                    Some(d) if d < delta_threshold => ActiveConciliator::Coin(coin),
                    _ => ActiveConciliator::Impatient,
                };
                telemetry.on_conciliator_selected(generation, active.kind(), estimate, samples);
                active
            }
        }
    }

    /// Live metrics for this object: decide calls, fast-path hit rate,
    /// rounds-to-decide and latency histograms, probabilistic-write counts.
    pub fn telemetry(&self) -> &RuntimeTelemetry {
        &self.telemetry
    }

    /// Number of distinct proposal values supported.
    pub fn capacity(&self) -> u64 {
        self.options.scheme.capacity()
    }

    /// Number of stages materialized so far (diagnostics).
    pub fn stages_used(&self) -> usize {
        self.stages
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// How many times this object has been recycled via
    /// [`reset`](Consensus::reset). Fresh objects report 0.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The shared options handle; instances built from the same `Arc`
    /// report `Arc::ptr_eq` — the per-slot setup cost is a pointer bump.
    pub fn options_handle(&self) -> &Arc<ConsensusOptions> {
        &self.options
    }

    /// Recycles this one-shot object for a fresh instance.
    ///
    /// Every materialized stage keeps its registers but retires them into
    /// the next generation, so each reads as ⊥ again: by the stale-read-as-
    /// initial contract ([`SharedRegister::retire_to`]) the recycled object
    /// is indistinguishable from a freshly constructed one — the lab
    /// conformance suite proves a recycled run is decision-, trace-, and
    /// work-identical to a fresh run at the same (adversary, seed).
    ///
    /// Stages stay materialized (that is the point: no reallocation), and
    /// cumulative telemetry is deliberately preserved across instances.
    ///
    /// Under [`ConciliatorChoice::Adaptive`] the portfolio choice is
    /// re-resolved for the next instance; if the verdict flips, the old
    /// conciliator stages cannot be reused and the stage vector is cleared
    /// instead (the next instance re-materializes lazily) — an accepted
    /// deviation from the no-reallocation contract, taken only on an actual
    /// regime change.
    ///
    /// [`SharedRegister::retire_to`]: crate::SharedRegister::retire_to
    ///
    /// # Panics
    ///
    /// Panics if any `decide` call is still in flight (a stage handle is
    /// still borrowed); recycling is only legal between instances.
    pub fn reset(&mut self) {
        let next_generation = self.generation + 1;
        let next = Consensus::<M>::resolve_choice(
            &self.options.conciliator,
            next_generation,
            &self.telemetry,
        );
        let stages = self
            .stages
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if next == self.active {
            for stage in stages.iter_mut() {
                Arc::get_mut(stage)
                    .expect("reset with a decide call in flight")
                    .reset();
            }
        } else {
            assert!(
                stages.iter_mut().all(|stage| Arc::get_mut(stage).is_some()),
                "reset with a decide call in flight"
            );
            stages.clear();
            self.active = next;
        }
        self.generation = next_generation;
        // Relaxed: `&mut self` rules out a decide in flight, and whatever
        // hands the object to the next instance's callers (a mutex, a spawn
        // or a join) orders this store before their tickets.
        self.ticket.store(0, Ordering::Relaxed);
    }

    /// Which conciliator implementation the current instance's `C` stages
    /// use: the fixed choice, or — under
    /// [`ConciliatorChoice::Adaptive`] — the verdict resolved at the last
    /// construction/[`reset`](Consensus::reset).
    pub fn selected_conciliator(&self) -> ConciliatorKind {
        self.active.kind()
    }

    /// Shared handle to this object's telemetry, for wiring observers that
    /// outlive individual calls — e.g.
    /// [`FaultyMemory::observed_by`](crate::FaultyMemory::observed_by).
    pub fn telemetry_handle(&self) -> &Arc<RuntimeTelemetry> {
        &self.telemetry
    }

    fn stage(&self, ix: usize) -> Arc<Stage<M>> {
        if let Some(stage) = self
            .stages
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(ix)
        {
            return Arc::clone(stage);
        }
        let mut stages = self.stages.write().unwrap_or_else(PoisonError::into_inner);
        while stages.len() <= ix {
            let next = stages.len();
            stages.push(Arc::new(self.make_stage(next)));
        }
        Arc::clone(&stages[ix])
    }

    /// Stages before the first conciliator: the `R₋₁; R₀` fast path, or none.
    pub(crate) fn prefix(&self) -> usize {
        if self.options.fast_path {
            2
        } else {
            0
        }
    }

    fn make_stage(&self, ix: usize) -> Stage<M> {
        let prefix = self.prefix();
        let is_ratifier = ix < prefix || (ix - prefix) % 2 == 1;
        if is_ratifier {
            Stage::Ratifier(AtomicRatifier::with_scheme_in(
                &self.memory,
                Arc::clone(&self.options.scheme),
            ))
        } else {
            let conciliator: Box<dyn Conciliator<M>> = match self.active {
                ActiveConciliator::Impatient => Box::new(
                    ImpatientConciliator::with_schedule_in(
                        &self.memory,
                        self.options.n,
                        self.options.schedule,
                    )
                    .observed_by(Arc::clone(&self.telemetry)),
                ),
                ActiveConciliator::Coin(CoinKind::Local) => Box::new(
                    CoinConciliator::with_coin_in(&self.memory, |_| LocalCoin::new())
                        .observed_by(Arc::clone(&self.telemetry)),
                ),
                ActiveConciliator::Coin(CoinKind::Voting { quorum_factor }) => Box::new(
                    CoinConciliator::with_coin_in(&self.memory, |memory| {
                        VotingCoin::with_quorum_factor_in(memory, self.options.n, quorum_factor)
                            .observed_by(Arc::clone(&self.telemetry))
                    })
                    .observed_by(Arc::clone(&self.telemetry)),
                ),
            };
            Stage::Conciliator(conciliator)
        }
    }

    /// Records a decide that finished at stage `stage` after entering
    /// `conciliator_stages` conciliators, timed if `started` (from
    /// [`RuntimeTelemetry::decide_clock`]). Only an adaptive instance feeds
    /// the δ̂ window: adaptive selection is its one reader, and a
    /// fixed-choice decide then takes no lock at all.
    fn on_decided(
        &self,
        value: u64,
        stage: usize,
        fast_path: bool,
        conciliator_stages: u64,
        started: Option<Instant>,
    ) {
        if matches!(self.options.conciliator, ConciliatorChoice::Adaptive(_)) {
            self.telemetry.on_conciliator_stages(conciliator_stages);
        }
        let latency_ns = started.map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        self.telemetry
            .on_decided(value, stage as u64, fast_path, latency_ns);
    }

    /// Proposes `value` and returns the agreed decision.
    ///
    /// One-shot semantics: each thread calls this at most once per object.
    /// The call is assigned the next free thread slot (unique while the
    /// one-shot contract of ≤ `n` calls per instance holds); for explicit
    /// slot control (lab harnesses pinning process ids) use
    /// [`decide_as`](Consensus::decide_as).
    ///
    /// # Panics
    ///
    /// Panics if `value ≥ capacity()`.
    pub fn decide(&self, value: u64, rng: &mut dyn Rng) -> u64 {
        // Relaxed: the ticket only hands out distinct slots, and read-modify-
        // writes on one atomic are totally ordered whatever their ordering,
        // so no two calls draw the same ticket. It publishes nothing: what a
        // decide shares lives in the registers, which order themselves.
        let pid = self.ticket.fetch_add(1, Ordering::Relaxed);
        self.decide_as(pid % self.options.n, value, rng)
    }

    /// Proposes `value` as thread `pid` and returns the agreed decision.
    ///
    /// One-shot semantics: each thread calls this at most once per object,
    /// and each `pid < n` must be used by at most one caller per instance —
    /// conciliators with per-thread shared state (the voting coin's tally
    /// registers) require it. The impatient conciliator ignores `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid ≥ n` or `value ≥ capacity()`.
    pub fn decide_as(&self, pid: usize, value: u64, rng: &mut dyn Rng) -> u64 {
        self.walk(pid, value, usize::MAX, rng, |exit| match exit {
            Exit::Decided(value) => value,
            Exit::Exhausted(_) => unreachable!("an unbounded walk ends only at a decision"),
        })
    }

    /// The one walk over the chain `R₋₁; R₀; C₁; R₁; …` (§4.1): proposes
    /// `value` as `pid` to stages `0..limit` in turn, each stage's output
    /// being the next one's input, until a ratifier decides. `finish` maps
    /// how the walk ended to the decision, which is then recorded, so
    /// whatever `finish` does (publishing to a fallback, or running it) is
    /// part of the timed decide.
    ///
    /// # Panics
    ///
    /// Panics if `pid ≥ n` or `value ≥ capacity()`.
    pub(crate) fn walk(
        &self,
        pid: usize,
        value: u64,
        limit: usize,
        rng: &mut dyn Rng,
        finish: impl FnOnce(Exit) -> u64,
    ) -> u64 {
        assert!(
            pid < self.options.n,
            "pid {pid} out of range for {} threads",
            self.options.n
        );
        assert!(
            value < self.capacity(),
            "value {value} exceeds consensus capacity {}",
            self.capacity()
        );
        self.telemetry.add(CounterKey::DecideCalls, 1);
        let started = self.telemetry.decide_clock();
        let prefix = self.prefix();
        let mut current = value;
        let mut conciliator_stages = 0u64;
        for ix in 0..limit {
            match &*self.stage(ix) {
                Stage::Ratifier(r) => {
                    self.telemetry
                        .on_stage_entered(ix as u64, StageKind::Ratifier);
                    let d = r.ratify(current);
                    self.telemetry
                        .on_ratifier_verdict(ix as u64, d.is_decided(), d.value());
                    if d.is_decided() {
                        let decided = finish(Exit::Decided(d.value()));
                        self.on_decided(decided, ix, ix < prefix, conciliator_stages, started);
                        return decided;
                    }
                    current = d.value();
                }
                Stage::Conciliator(c) => {
                    self.telemetry
                        .on_stage_entered(ix as u64, StageKind::Conciliator);
                    conciliator_stages += 1;
                    current = c.propose(pid, current, rng);
                }
            }
        }
        let decided = finish(Exit::Exhausted(current));
        self.on_decided(decided, limit, false, conciliator_stages, started);
        decided
    }
}

impl<M: SharedMemory> std::fmt::Debug for Consensus<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consensus")
            .field("options", &self.options)
            .field("stages_used", &self.stages_used())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn run_consensus(consensus: Arc<Consensus>, proposals: Vec<u64>, seed: u64) -> Vec<u64> {
        let handles: Vec<_> = proposals
            .into_iter()
            .enumerate()
            .map(|(t, v)| {
                let c = Arc::clone(&consensus);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed * 1000 + t as u64);
                    c.decide(v, &mut rng)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn binary_agreement_and_validity() {
        for trial in 0..100 {
            let c = Arc::new(Consensus::builder().n(6).build());
            let proposals: Vec<u64> = (0..6).map(|t| (t as u64 + trial) % 2).collect();
            let results = run_consensus(c, proposals.clone(), trial);
            let first = results[0];
            assert!(
                results.iter().all(|&r| r == first),
                "trial {trial}: {results:?}"
            );
            assert!(proposals.contains(&first), "trial {trial}: invalid {first}");
        }
    }

    #[test]
    fn multivalued_agreement_and_validity() {
        for trial in 0..50 {
            let m = 20;
            let c = Arc::new(Consensus::builder().n(8).values(m).build());
            let proposals: Vec<u64> = (0..8).map(|t| (t as u64 * 3 + trial) % m).collect();
            let results = run_consensus(c, proposals.clone(), trial);
            let first = results[0];
            assert!(
                results.iter().all(|&r| r == first),
                "trial {trial}: {results:?}"
            );
            assert!(proposals.contains(&first));
        }
    }

    #[test]
    fn unanimous_proposals_use_only_the_fast_path() {
        let c = Arc::new(Consensus::builder().n(8).build());
        let results = run_consensus(Arc::clone(&c), vec![1; 8], 0);
        assert!(results.iter().all(|&r| r == 1));
        // Fast path: at most the two prefix ratifiers materialized.
        assert!(c.stages_used() <= 2, "{} stages", c.stages_used());
    }

    #[test]
    fn single_thread_decides_its_own_value() {
        let c = Consensus::builder().n(1).values(16).build();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(c.decide(11, &mut rng), 11);
    }

    #[test]
    fn stages_are_reported() {
        let c = Consensus::builder().n(2).build();
        assert_eq!(c.stages_used(), 0);
        let mut rng = SmallRng::seed_from_u64(0);
        c.decide(0, &mut rng);
        assert!(c.stages_used() >= 1);
    }

    #[test]
    #[should_panic(expected = "exceeds consensus capacity")]
    fn oversized_proposal_rejected() {
        let c = Consensus::builder().n(2).build();
        let mut rng = SmallRng::seed_from_u64(0);
        c.decide(9, &mut rng);
    }

    #[test]
    #[should_panic(expected = "at least 2 values")]
    fn tiny_capacity_rejected() {
        Consensus::builder().n(2).values(1).build();
    }

    #[test]
    fn reset_consensus_decides_fresh_values() {
        let mut c = Consensus::builder().n(1).values(16).build();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(c.decide(11, &mut rng), 11);
        assert_eq!(c.generation(), 0);
        let stages_before = c.stages_used();
        c.reset();
        assert_eq!(c.generation(), 1);
        // Stages are kept (no reallocation) but the old decision is gone.
        assert_eq!(c.stages_used(), stages_before);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(c.decide(4, &mut rng), 4);
    }

    #[test]
    fn recycled_object_matches_fresh_across_threads() {
        for trial in 0..20 {
            // Run a fresh object, then a recycled one, with identical seeds:
            // both must satisfy agreement/validity independently.
            let mut c = Consensus::builder().n(4).build();
            let proposals: Vec<u64> = (0..4).map(|t| (t as u64 + trial) % 2).collect();
            let shared = Arc::new(c);
            let first = run_consensus(Arc::clone(&shared), proposals.clone(), trial);
            assert!(first.iter().all(|&r| r == first[0]));
            c = Arc::try_unwrap(shared).unwrap_or_else(|_| panic!("in-flight handles"));
            c.reset();
            let results = run_consensus(Arc::new(c), proposals.clone(), trial);
            assert!(
                results.iter().all(|&r| r == results[0]),
                "trial {trial}: {results:?}"
            );
            assert!(proposals.contains(&results[0]));
        }
    }

    #[test]
    fn coin_choice_agreement_and_validity() {
        for (kind, trials) in [
            (CoinKind::Voting { quorum_factor: 1 }, 20u64),
            (CoinKind::Local, 20u64),
        ] {
            for trial in 0..trials {
                let c = Arc::new(
                    Consensus::builder()
                        .n(3)
                        .conciliator(ConciliatorChoice::Coin(kind))
                        .build(),
                );
                assert_eq!(c.selected_conciliator(), ConciliatorKind::Coin);
                let proposals: Vec<u64> = (0..3).map(|t| (t as u64 + trial) % 2).collect();
                let results = run_consensus(c, proposals.clone(), trial);
                assert!(
                    results.iter().all(|&r| r == results[0]),
                    "{kind:?} trial {trial}: {results:?}"
                );
                assert!(proposals.contains(&results[0]));
            }
        }
    }

    #[test]
    fn coin_choice_survives_reset() {
        let mut c = Consensus::builder()
            .n(1)
            .conciliator(ConciliatorChoice::Coin(CoinKind::voting()))
            .build();
        let mut rng = SmallRng::seed_from_u64(9);
        assert_eq!(c.decide(1, &mut rng), 1);
        c.reset();
        assert_eq!(c.selected_conciliator(), ConciliatorKind::Coin);
        let mut rng = SmallRng::seed_from_u64(9);
        assert_eq!(c.decide(0, &mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn coin_choice_rejects_multivalued_capacity() {
        Consensus::builder()
            .n(2)
            .values(8)
            .conciliator(ConciliatorChoice::Coin(CoinKind::Local))
            .build();
    }

    #[test]
    fn ticketed_decide_assigns_distinct_pids() {
        // n=2 with a per-thread-register coin: two plain decide() calls must
        // land on distinct tally registers (distinct tickets) and agree.
        let c = Arc::new(
            Consensus::builder()
                .n(2)
                .conciliator(ConciliatorChoice::Coin(CoinKind::Voting {
                    quorum_factor: 1,
                }))
                .build(),
        );
        let results = run_consensus(Arc::clone(&c), vec![0, 1], 11);
        assert_eq!(results[0], results[1]);
    }

    fn adaptive(n: usize, options: AdaptiveOptions) -> Consensus {
        Consensus::builder()
            .n(n)
            .conciliator(ConciliatorChoice::Adaptive(options))
            .build()
    }

    #[test]
    fn adaptive_starts_impatient_on_empty_window() {
        let options = AdaptiveOptions::default();
        let c = adaptive(2, options);
        assert_eq!(c.selected_conciliator(), ConciliatorKind::Impatient);
        assert_eq!(
            c.telemetry()
                .delta_hat_over(options.window, options.min_samples),
            None,
            "no samples, no estimate"
        );
        // The selection itself was announced (counted), but never as a coin.
        assert_eq!(c.telemetry().count(CounterKey::ConciliatorSelections), 1);
        assert_eq!(c.telemetry().count(CounterKey::CoinSelections), 0);
    }

    #[test]
    fn adaptive_never_switches_on_empty_window() {
        let mut c = adaptive(2, AdaptiveOptions::default());
        for _ in 0..5 {
            c.reset();
            assert_eq!(c.selected_conciliator(), ConciliatorKind::Impatient);
        }
        assert_eq!(c.telemetry().count(CounterKey::CoinSelections), 0);
    }

    #[test]
    fn adaptive_switches_when_measured_delta_degrades() {
        let options = AdaptiveOptions {
            window: 8,
            min_samples: 4,
            delta_threshold: 0.5,
            ..AdaptiveOptions::default()
        };
        let mut c = adaptive(2, options);
        // Simulate a hostile regime: decides burning 10 conciliator stages
        // each (δ̂ = 0.1, far below the 0.5 threshold).
        for _ in 0..4 {
            c.telemetry().on_conciliator_stages(10);
        }
        let d = c
            .telemetry()
            .delta_hat_over(options.window, options.min_samples)
            .unwrap();
        assert!((d - 0.1).abs() < 1e-9, "δ̂ {d}");
        c.reset();
        assert_eq!(c.selected_conciliator(), ConciliatorKind::Coin);
        assert_eq!(c.telemetry().count(CounterKey::CoinSelections), 1);
        // The impatient stages could not be recycled across the flip.
        assert_eq!(c.stages_used(), 0);
        // A decide on the switched instance still works end to end.
        let mut rng = SmallRng::seed_from_u64(12);
        assert!(c.decide(1, &mut rng) <= 1);
    }

    #[test]
    fn adaptive_recovers_back_to_impatient() {
        let mut c = adaptive(
            2,
            AdaptiveOptions {
                window: 4,
                min_samples: 2,
                delta_threshold: 0.5,
                ..AdaptiveOptions::default()
            },
        );
        for _ in 0..4 {
            c.telemetry().on_conciliator_stages(10);
        }
        c.reset();
        assert_eq!(c.selected_conciliator(), ConciliatorKind::Coin);
        // Healthy regime: decides resolving in one conciliator stage.
        for _ in 0..4 {
            c.telemetry().on_conciliator_stages(1);
        }
        c.reset();
        assert_eq!(c.selected_conciliator(), ConciliatorKind::Impatient);
    }

    #[test]
    fn shared_options_are_not_recloned_per_instance() {
        let options = Arc::new(Consensus::multivalued_options(2, 8));
        let a = Consensus::with_shared_options_in(AtomicMemory, Arc::clone(&options));
        let b = Consensus::with_shared_options_in(AtomicMemory, Arc::clone(&options));
        assert!(Arc::ptr_eq(a.options_handle(), b.options_handle()));
        assert!(Arc::ptr_eq(
            &a.options_handle().scheme,
            &b.options_handle().scheme
        ));
    }
}
