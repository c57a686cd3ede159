//! The full consensus object on real threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mc_core::{CoinConciliator, FirstMoverConciliator, LocalCoin, Ratifier, VotingSharedCoin};
use mc_model::{BlockAlloc, Decision, InstantiateCtx, ObjectSpec, ProcessId, RegisterId};
use mc_quorums::QuorumScheme;
use mc_telemetry::StageKind;
use rand::Rng;

use crate::drive::drive;
use crate::register::{AtomicMemory, SharedMemory, SharedRegister};
use crate::table::Table;
use crate::telemetry::{CounterKey, HistKey, LocalTelemetry, RuntimeTelemetry};

/// Configuration for a thread-runtime [`Consensus`] object.
#[derive(Clone)]
pub struct ConsensusOptions {
    /// Maximum number of participating threads.
    pub n: usize,
    /// Quorum scheme for the ratifiers (determines the value capacity).
    pub scheme: Arc<dyn QuorumScheme>,
    /// Whether to run the `R₋₁; R₀` fast path before the first conciliator.
    pub fast_path: bool,
    /// Which conciliator the `C₁; C₂; …` stages instantiate (§5.1 / §5.2 /
    /// Theorem 6). Non-impatient choices are binary only.
    pub conciliator: ConciliatorChoice,
    /// The ratifier stages' spec over `scheme`: its quorum table is built
    /// once here and shared by every instance these options build.
    pub(crate) ratifier: Ratifier,
}

impl std::fmt::Debug for ConsensusOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConsensusOptions")
            .field("n", &self.n)
            .field("scheme", &self.scheme.name())
            .field("fast_path", &self.fast_path)
            .field("conciliator", &self.conciliator)
            .finish()
    }
}

/// Which conciliator a consensus chain instantiates for its `C₁; C₂; …`
/// stages.
///
/// The default is [`Impatient`](ConciliatorChoice::Impatient) — the paper's
/// headline probabilistic-write conciliator (Theorem 7). Under schedulers
/// that exploit impatience, the Theorem 6 coin wrapper over an
/// adaptive-adversary-robust coin is the better trade. The choice is fixed
/// when the chain is built and holds for every instance it is recycled
/// into.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum ConciliatorChoice {
    /// `mc_core::FirstMoverConciliator::impatient()` (§5.2, the default).
    #[default]
    Impatient,
    /// `mc_core::CoinConciliator` (Theorem 6) over the given coin. Binary
    /// values only.
    Coin(CoinKind),
}

/// Which weak shared coin a [`ConciliatorChoice::Coin`] stage runs under
/// Procedure CoinConciliator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoinKind {
    /// `mc_core::LocalCoin`: each thread flips its own coin; free, but a
    /// coin only against adversaries that cannot see the flips.
    Local,
    /// `mc_core::VotingSharedCoin` with quorum `quorum_factor · n²`:
    /// adaptive-adversary robust at `Θ(n³)` total work.
    Voting {
        /// Vote quorum as a multiple of `n²`. Must be positive.
        quorum_factor: u32,
    },
}

impl CoinKind {
    /// The default voting coin (quorum `4·n²`), matching
    /// `VotingSharedCoin::new()`.
    pub fn voting() -> CoinKind {
        CoinKind::Voting { quorum_factor: 4 }
    }

    /// Procedure CoinConciliator over this coin: the spec a coin stage
    /// instantiates.
    ///
    /// # Panics
    ///
    /// Panics if a voting coin's quorum factor is 0.
    fn conciliator(self) -> CoinConciliator {
        let coin: Arc<dyn ObjectSpec> = match self {
            CoinKind::Local => Arc::new(LocalCoin),
            CoinKind::Voting { quorum_factor } => Arc::new(
                VotingSharedCoin::with_quorum_factor(quorum_factor)
                    .expect("quorum factor must be positive"),
            ),
        };
        CoinConciliator::new(coin)
    }
}

/// One stage of the chain: the registers its `mc-core` spec's instance
/// allocates, in allocation order (so the spec's `RegisterId(i)` is the
/// `i`-th), and what runs on them through [`drive`].
enum Stage<M: SharedMemory> {
    /// [`ConsensusOptions::ratifier`]: the announcement pool, then the
    /// proposal register.
    Ratifier(Box<[M::Reg]>),
    /// `FirstMoverConciliator::impatient()`: its one register.
    Impatient(M::Reg),
    /// A [`CoinKind::conciliator`] instance: the two announce registers,
    /// then the coin's.
    Coin(Box<[M::Reg]>),
}

impl<M: SharedMemory> Stage<M> {
    fn registers_mut(&mut self) -> &mut [M::Reg] {
        match self {
            Stage::Ratifier(regs) | Stage::Coin(regs) => regs,
            Stage::Impatient(reg) => std::slice::from_mut(reg),
        }
    }
}

/// Stage cells per chunk of the stage table: the fast-path prefix
/// `R₋₁; R₀`, where every uncontended decide ends.
const CHUNK_STAGES: usize = 2;

/// The chain's stages, each built once, on first entry, into a cell that
/// never moves, so a walk borrows a stage with no lock and no refcount
/// (see [`Table`]). The stage's registers order their own operations.
type StageTable<M> = Table<Stage<M>, CHUNK_STAGES>;

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
/// Every stage runs an `mc-core` session — the code `mc-sim` samples and
/// `mc-check` certifies — on the stage's own registers: `mc_core::Ratifier`
/// for the ratifiers, and for the conciliators
/// `FirstMoverConciliator::impatient()` or `CoinConciliator` over the
/// chosen coin. The runtime adds no protocol step of its own.
///
/// Each stage is built once, by the first thread to enter it; entering a
/// built stage is one acquire load, with no lock and no reference count. A
/// thread that enters a stage while another builds it waits, so strictly
/// speaking the implementation blocks at a stage's first entry — the price
/// of unbounded lazily-allocated stages in a practical runtime. A thread's
/// first decide on an object also takes its telemetry cell, with no lock:
/// it adopts a cell an exited thread left, or allocates one at a fresh
/// index; only boxing a new chunk of cells, for the fifth thread and every
/// fourth after, can make a racing thread wait.
///
/// The register substrate is the type parameter `M`, defaulted to
/// [`AtomicMemory`] (plain `AtomicU64`s, zero overhead). `mc-lab`
/// substitutes an instrumented substrate to run the *same* object under a
/// deterministic scheduler. Stages materialize in index order and each
/// stage allocates its registers in its spec's order, so register ids are
/// identical across substrates under identical interleavings.
pub struct Consensus<M: SharedMemory = AtomicMemory> {
    /// Shared, not cloned: a pooling engine hands every instance the same
    /// validated options, so per-instance setup is a pointer bump — no
    /// quorum-scheme re-validation.
    options: Arc<ConsensusOptions>,
    memory: M,
    stages: StageTable<M>,
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
}

impl<M: SharedMemory> Consensus<M> {
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
        Consensus {
            options,
            memory,
            stages: StageTable::new(),
            ticket: AtomicUsize::new(0),
            telemetry,
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
        self.stages.built().count()
    }

    /// The shared options handle; instances built from the same `Arc`
    /// report `Arc::ptr_eq` — the per-slot setup cost is a pointer bump.
    pub fn options_handle(&self) -> &Arc<ConsensusOptions> {
        &self.options
    }

    /// Recycles this one-shot object for a fresh instance.
    ///
    /// Every materialized stage keeps its registers but clears them
    /// ([`SharedRegister::clear`]), so each reads as ⊥ again and the
    /// recycled object is indistinguishable from a freshly constructed one
    /// — the lab conformance suite proves a recycled run is decision-,
    /// trace-, and work-identical to a fresh run at the same (adversary,
    /// seed).
    ///
    /// Stages stay materialized (that is the point: no reallocation), and
    /// cumulative telemetry is deliberately preserved across instances.
    ///
    /// [`SharedRegister::clear`]: crate::SharedRegister::clear
    pub fn reset(&mut self) {
        self.stages.for_each_built_mut(|stage| {
            stage
                .registers_mut()
                .iter_mut()
                .for_each(SharedRegister::clear);
        });
        // Relaxed: `&mut self` rules out a decide in flight, and whatever
        // hands the object to the next instance's callers (a mutex, a spawn
        // or a join) orders this store before their tickets.
        self.ticket.store(0, Ordering::Relaxed);
    }

    /// Shared handle to this object's telemetry, for wiring observers that
    /// outlive individual calls — e.g.
    /// [`FaultyMemory::observed_by`](crate::FaultyMemory::observed_by).
    pub fn telemetry_handle(&self) -> &Arc<RuntimeTelemetry> {
        &self.telemetry
    }

    /// Stage `ix`, built on first entry. A walk enters stages in index
    /// order, so they are built in index order and allocate their
    /// registers in the same order on every substrate.
    fn stage(&self, ix: usize) -> &Stage<M> {
        self.stages.cell(ix).get_or_init(|| self.make_stage(ix))
    }

    /// Stages before the first conciliator: the `R₋₁; R₀` fast path, or none.
    pub(crate) fn prefix(&self) -> usize {
        if self.options.fast_path {
            2
        } else {
            0
        }
    }

    /// Builds stage `ix` (see [`Stage`]): its spec's instance, laid out
    /// from `RegisterId(0)`, and that many fresh registers.
    fn make_stage(&self, ix: usize) -> Stage<M> {
        let prefix = self.prefix();
        if ix < prefix || (ix - prefix) % 2 == 1 {
            return Stage::Ratifier(self.registers(self.options.ratifier.register_count()));
        }
        match self.options.conciliator {
            ConciliatorChoice::Impatient => Stage::Impatient(self.memory.alloc()),
            ConciliatorChoice::Coin(kind) => {
                let mut alloc = BlockAlloc::new();
                kind.conciliator()
                    .instantiate(&mut InstantiateCtx::new(self.options.n, &mut alloc));
                Stage::Coin(self.registers(alloc.allocated()))
            }
        }
    }

    fn registers(&self, count: u64) -> Box<[M::Reg]> {
        (0..count).map(|_| self.memory.alloc()).collect()
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
        // The thread's cell, found once: every hook below writes it.
        let telemetry = self.telemetry.local();
        telemetry.add(CounterKey::DecideCalls, 1);
        let started = telemetry.decide_clock();
        let prefix = self.prefix();
        let mut current = value;
        let decided_at = |decided: u64, stage: usize, fast_path: bool| {
            let latency_ns =
                started.map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
            telemetry.on_decided(decided, stage as u64, fast_path, latency_ns);
            decided
        };
        for ix in 0..limit {
            let d = self.enter(ix, pid, current, rng, &telemetry);
            if d.is_decided() {
                return decided_at(finish(Exit::Decided(d.value())), ix, ix < prefix);
            }
            current = d.value();
        }
        decided_at(finish(Exit::Exhausted(current)), limit, false)
    }

    /// Enters stage `ix` as `pid` with `value`: drives the stage's session
    /// on its registers, and records what the stage's kind and the
    /// session's operations say — a ratifier's verdict, an impatient
    /// call's probabilistic writes as its rounds, a coin call's vote
    /// writes (all its writes past the announcement) as its coin rounds.
    fn enter(
        &self,
        ix: usize,
        pid: usize,
        value: u64,
        rng: &mut dyn Rng,
        telemetry: &LocalTelemetry<'_>,
    ) -> Decision {
        let stage = self.stage(ix);
        let kind = match stage {
            Stage::Ratifier(_) => StageKind::Ratifier,
            Stage::Impatient(_) | Stage::Coin(_) => StageKind::Conciliator,
        };
        telemetry.on_stage_entered(ix as u64, kind);
        match stage {
            Stage::Ratifier(regs) => {
                let mut session = self.options.ratifier.session_at(RegisterId(0));
                let (d, _) = drive(&mut session, regs, value, rng, telemetry);
                telemetry.on_ratifier_verdict(ix as u64, d.is_decided(), d.value());
                d
            }
            Stage::Impatient(reg) => {
                let mut session =
                    FirstMoverConciliator::impatient().session_at(RegisterId(0), self.options.n);
                let regs = std::slice::from_ref(reg);
                let (d, ops) = drive(&mut session, regs, value, rng, telemetry);
                telemetry.record(HistKey::ConciliatorRounds, ops.prob_writes);
                d
            }
            Stage::Coin(regs) => self.enter_coin(pid, regs, value, rng, telemetry),
        }
    }

    /// [`enter`](Consensus::enter)'s coin stage: Procedure CoinConciliator
    /// over the chosen coin, its session and the coin's built in place.
    /// Out of line, so the ratifier and impatient stages' code does not
    /// grow by the coins' two session types.
    #[inline(never)]
    fn enter_coin(
        &self,
        pid: usize,
        regs: &[M::Reg],
        value: u64,
        rng: &mut dyn Rng,
        telemetry: &LocalTelemetry<'_>,
    ) -> Decision {
        let ConciliatorChoice::Coin(kind) = self.options.conciliator else {
            unreachable!("coin stages are built for a coin choice only")
        };
        let (d, ops) = match kind {
            CoinKind::Local => {
                let mut session =
                    CoinConciliator::session_at(RegisterId(0), |_| LocalCoin.session());
                drive(&mut session, regs, value, rng, telemetry)
            }
            CoinKind::Voting { quorum_factor } => {
                let coin = VotingSharedCoin::with_quorum_factor(quorum_factor)
                    .expect("quorum factor must be positive");
                let (n, pid) = (self.options.n, ProcessId(pid));
                let mut session = CoinConciliator::session_at(RegisterId(0), |base| {
                    coin.session_at(base, n, pid)
                });
                drive(&mut session, regs, value, rng, telemetry)
            }
        };
        if ops.writes > 1 {
            telemetry.record(HistKey::CoinRounds, ops.writes - 1);
        }
        d
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
        let stages_before = c.stages_used();
        c.reset();
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
    fn coin_choice_builds_coin_stages_before_and_after_reset() {
        // No fast path, so every decide enters C₁. Two callers in turn with
        // opposite proposals: the second finds the first's announcement
        // and defers to the coin. An impatient stage would have attempted a
        // probabilistic write; a coin stage never does, records no
        // probability-doubling rounds, and only the voting coin records
        // coin rounds. The first caller's bit flips between instances, so a
        // recycled stage that kept a register would show.
        for kind in [CoinKind::voting(), CoinKind::Local] {
            let mut c = Consensus::builder()
                .n(2)
                .fast_path(false)
                .conciliator(ConciliatorChoice::Coin(kind))
                .build();
            for instance in 1..=2 {
                let mut rng = SmallRng::seed_from_u64(instance);
                let bit = instance % 2;
                let first = c.decide_as(0, bit, &mut rng);
                assert_eq!(first, bit, "{kind:?}: a solo caller keeps its value");
                assert_eq!(c.decide_as(1, 1 - bit, &mut rng), bit, "{kind:?}");
                let t = c.telemetry();
                assert_eq!(t.count(CounterKey::ProbWritesAttempted), 0, "{kind:?}");
                assert_eq!(t.hist(HistKey::ConciliatorRounds).count(), 0, "{kind:?}");
                let flips = t.hist(HistKey::CoinRounds).count();
                let expected = match kind {
                    CoinKind::Voting { .. } => instance,
                    CoinKind::Local => 0,
                };
                assert_eq!(flips, expected, "{kind:?} instance {instance}");
                c.reset();
            }
        }
    }

    /// Runs stage `ix` solo as pid 0 with `value`.
    fn enter(c: &Consensus, ix: usize, value: u64, rng: &mut SmallRng) -> Decision {
        c.enter(ix, 0, value, rng, &c.telemetry.local())
    }

    /// Runs stage `ix` once on OS threads, thread `t` as pid `t` proposing
    /// `proposals[t]`, and tells whether every thread carried out the same
    /// value.
    fn stage_agrees(c: &Consensus, ix: usize, proposals: &[u64], seed: u64) -> bool {
        let outputs: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = proposals
                .iter()
                .enumerate()
                .map(|(t, &v)| {
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(seed * 100 + t as u64);
                        c.enter(ix, t, v, &mut rng, &c.telemetry.local()).value()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        outputs.windows(2).all(|w| w[0] == w[1])
    }

    #[test]
    fn impatient_stage_agrees_often_under_os_scheduling() {
        // C₁ on 8 threads with opposed inputs, its probabilistic writes on
        // `AtomicRegister`s. Theorem 7 guarantees ≥ 5.5% against the worst
        // adversary; an OS scheduler should be nowhere near adversarial.
        let trials = 100;
        let agreements = (0..trials)
            .filter(|&trial| {
                let c = Consensus::builder().n(8).fast_path(false).build();
                stage_agrees(&c, 0, &[0, 1, 0, 1, 0, 1, 0, 1], trial)
            })
            .count();
        assert!(
            agreements * 10 >= trials as usize,
            "{agreements}/{trials} agreements"
        );
    }

    #[test]
    fn stage_table_builds_past_its_inline_cells_and_reset_clears_them_all() {
        // Twelve stages, entered in index order as a walk does: the inline
        // chunk and five boxed ones.
        let mut c = Consensus::builder().n(2).build();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut cells: Vec<*const Stage<AtomicMemory>> = Vec::new();
        for ix in 0..12 {
            let stage = c.stage(ix);
            // R₋₁; R₀, then C₁; R₁; C₂; R₂; …: each cell holds its index's kind.
            assert_eq!(matches!(stage, Stage::Ratifier(_)), ix < 2 || ix % 2 == 1);
            assert_eq!(enter(&c, ix, 1, &mut rng).value(), 1, "{ix}");
            cells.push(stage);
            assert_eq!(c.stages_used(), ix + 1);
        }
        assert!(c
            .stages
            .built()
            .map(|(_, s)| s as *const _)
            .eq(cells.clone()));
        c.reset();
        // Every stage is the same object and reads as fresh: one that kept
        // a register would hand back 1.
        for (ix, &cell) in cells.iter().enumerate() {
            let stage = c.stage(ix);
            assert!(std::ptr::eq(stage, cell), "stage {ix} moved");
            let fresh = match stage {
                Stage::Ratifier(_) => Decision::decide(0),
                _ => Decision::continue_with(0),
            };
            assert_eq!(enter(&c, ix, 0, &mut rng), fresh, "stage {ix}");
        }
        assert_eq!(c.stages_used(), cells.len());
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

    #[test]
    fn shared_options_are_not_recloned_per_instance() {
        let options = Arc::new(Consensus::builder().n(2).values(8).options());
        let instance = || {
            let telemetry = Arc::new(RuntimeTelemetry::noop());
            Consensus::with_telemetry_in(AtomicMemory, Arc::clone(&options), telemetry)
        };
        let (a, b) = (instance(), instance());
        assert!(Arc::ptr_eq(a.options_handle(), b.options_handle()));
        assert!(Arc::ptr_eq(
            &a.options_handle().scheme,
            &b.options_handle().scheme
        ));
    }
}
