//! Differential conformance between the three substrates.
//!
//! The same protocol, the same inputs, the same adversary construction, the
//! same seed — run once on `mc-sim`'s model engine and once on `mc-runtime`'s
//! real threads under the lab scheduler. Because both substrates draw
//! per-process coins from `mix_seed(seed, pid)` streams and both let the
//! adversary pick from the identical pending-operation views, the two
//! executions must be *literally equal*: same decision per process, same
//! operation trace event-for-event, same work accounting. The lab's
//! schedule/coin script is then replayed through `mc-check`'s replayer to
//! close the triangle with the third substrate.
//!
//! Any inequality is a bug in one of the substrates (or a real divergence
//! between the model protocol and the runtime implementation) and is
//! reported as a [`Divergence`].

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use mc_check::{replay_to_completion, CoinPolicy};
use mc_core::{CoinConciliator, ConsensusBuilder, Ratifier, VotingSharedCoin};
use mc_model::ObjectSpec;
use mc_runtime::{
    AtomicMemory, ChaosPlan, CoinKind, ConciliatorChoice, Consensus, ConsensusEngine,
    ConsensusService, CounterKey, FaultPlan, FaultyMemory, GaugeKey, SharedMemory,
    SupervisorOptions,
};
use mc_sim::harness::run_object;
use mc_sim::{Adversary, EngineConfig, RunError, Trace, WorkMetrics};
use mc_store::{CommandHandle, KvCommand, KvStore, ReplicatedStore, StateMachine, StoreError};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::control::LabError;
use crate::harness::Lab;

/// A consensus protocol with equivalent constructions on every substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Binary consensus: impatient conciliator + 3-register binary ratifier.
    Binary,
    /// `m`-valued consensus (`m > 2`): impatient conciliator + binomial
    /// quorum ratifier. (`m = 2` is [`Protocol::Binary`]: the model builder
    /// normalizes 2-valued to the binary scheme while the runtime would use
    /// a binomial scheme, so the pairing is only exact for `m > 2`.)
    Multivalued(u64),
    /// Binary consensus via Theorem 6: [`CoinConciliator`] stages over the
    /// Aspnes–Herlihy voting coin (vote quorum `quorum_factor · n²`) + the
    /// 3-register binary ratifier. Unlike the impatient protocols, the coin
    /// draws session-local randomness (its ±1 votes), which every substrate
    /// takes from the same per-process `mix_seed(seed, pid)` streams.
    Coin {
        /// Vote quorum as a multiple of `n²`. Must be positive.
        quorum_factor: u32,
    },
}

impl Protocol {
    /// The model-side specification (`mc-core`, runnable on sim and check).
    pub fn spec(&self) -> Arc<dyn ObjectSpec> {
        match self {
            Protocol::Binary => Arc::new(ConsensusBuilder::binary().build()),
            Protocol::Multivalued(m) => {
                assert!(*m > 2, "use Protocol::Binary for m = 2");
                Arc::new(ConsensusBuilder::multivalued(*m).build())
            }
            Protocol::Coin { quorum_factor } => {
                let coin = VotingSharedCoin::with_quorum_factor(*quorum_factor)
                    .expect("positive quorum factor");
                Arc::new(
                    ConsensusBuilder::new(
                        Arc::new(CoinConciliator::new(Arc::new(coin))),
                        Arc::new(Ratifier::binary()),
                    )
                    .build(),
                )
            }
        }
    }

    /// The runtime-side object over the lab's instrumented memory.
    pub fn runtime(&self, lab: &Lab, n: usize) -> Consensus<crate::LabMemory> {
        self.runtime_in(lab.memory(), n)
    }

    /// The runtime-side object over an arbitrary register substrate (e.g.
    /// the lab's memory wrapped in a [`FaultyMemory`] layer).
    pub fn runtime_in<M: SharedMemory>(&self, memory: M, n: usize) -> Consensus<M> {
        match self {
            Protocol::Binary => Consensus::builder().n(n).memory(memory).build(),
            Protocol::Multivalued(m) => {
                assert!(*m > 2, "use Protocol::Binary for m = 2");
                Consensus::builder().n(n).values(*m).memory(memory).build()
            }
            Protocol::Coin { quorum_factor } => Consensus::builder()
                .n(n)
                .memory(memory)
                .conciliator(ConciliatorChoice::Coin(CoinKind::Voting {
                    quorum_factor: *quorum_factor,
                }))
                .build(),
        }
    }

    /// Capacity of the protocol's value domain.
    pub fn capacity(&self) -> u64 {
        match self {
            Protocol::Binary | Protocol::Coin { .. } => 2,
            Protocol::Multivalued(m) => *m,
        }
    }

    /// The `mc-check` coin policy that replays this protocol's lab script.
    ///
    /// The impatient protocols draw no session-local randomness, so local
    /// coins are forbidden outright. The voting-coin protocol draws its ±1
    /// votes from the per-process `mix_seed(seed, pid)` streams — the same
    /// streams the sim engine and the lab workers use — so a
    /// [`CoinPolicy::Fixed`] replay reproduces them exactly.
    fn replay_policy(&self, seed: u64) -> CoinPolicy {
        match self {
            Protocol::Coin { .. } => CoinPolicy::Fixed(seed),
            _ => CoinPolicy::Forbid,
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Binary => write!(f, "binary"),
            Protocol::Multivalued(m) => write!(f, "multivalued({m})"),
            Protocol::Coin { quorum_factor } => write!(f, "coin[voting {quorum_factor}n^2]"),
        }
    }
}

/// How sim and lab disagreed. Constructing one of these from a conformance
/// run is always a bug somewhere.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// One substrate hit the step limit, the other completed.
    Completion {
        /// Error from the sim side, if any.
        sim: Option<String>,
        /// Error from the lab side, if any.
        lab: Option<String>,
    },
    /// A process decided different values on the two substrates.
    Decisions {
        /// Per-process values from the sim engine.
        sim: Vec<u64>,
        /// Per-process values from the lab runtime.
        lab: Vec<u64>,
    },
    /// The operation traces differ; the index of the first differing event.
    Trace {
        /// First event index where the traces differ (or the shorter
        /// length, when one is a prefix of the other).
        at: usize,
        /// The sim event at that index, rendered.
        sim: Option<String>,
        /// The lab event at that index, rendered.
        lab: Option<String>,
    },
    /// Work accounting differs.
    Metrics {
        /// The sim engine's accounting.
        sim: WorkMetrics,
        /// The lab's accounting.
        lab: WorkMetrics,
    },
    /// Replaying the lab's schedule/coin script through `mc-check` failed
    /// or produced different decisions.
    Replay {
        /// What the replayer reported.
        detail: String,
    },
    /// The batching service pipeline decided differently from the direct
    /// engine submit path.
    Service {
        /// Index of the first proposal whose decisions differ.
        at: usize,
        /// What `ConsensusEngine::submit` decided for that proposal.
        submit: u64,
        /// What the service handle reported (a decision or an error).
        service: String,
    },
    /// The chaos service leg failed exactly-once reconciliation: a
    /// proposal was lost, poisoned, or double-counted even though the
    /// chaos plan stayed within the supervisor's restart budget.
    Chaos {
        /// What failed to reconcile.
        detail: String,
    },
    /// The replicated store diverged from sequential application: a
    /// response, the final state, or the exactly-once ledger differed
    /// from replaying the same commands on a bare state machine.
    Store {
        /// What diverged.
        detail: String,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Completion { sim, lab } => write!(
                f,
                "completion divergence: sim={}, lab={}",
                sim.as_deref().unwrap_or("ok"),
                lab.as_deref().unwrap_or("ok"),
            ),
            Divergence::Decisions { sim, lab } => {
                write!(f, "decision divergence: sim={sim:?}, lab={lab:?}")
            }
            Divergence::Trace { at, sim, lab } => write!(
                f,
                "trace divergence at event {at}: sim={}, lab={}",
                sim.as_deref().unwrap_or("<end>"),
                lab.as_deref().unwrap_or("<end>"),
            ),
            Divergence::Metrics { sim, lab } => {
                write!(f, "metrics divergence: sim={sim:?}, lab={lab:?}")
            }
            Divergence::Replay { detail } => write!(f, "replay divergence: {detail}"),
            Divergence::Service {
                at,
                submit,
                service,
            } => write!(
                f,
                "service divergence at proposal {at}: submit={submit}, service={service}",
            ),
            Divergence::Chaos { detail } => write!(f, "chaos divergence: {detail}"),
            Divergence::Store { detail } => write!(f, "store divergence: {detail}"),
        }
    }
}

impl Error for Divergence {}

/// What a conformance check concluded when it did *not* find a divergence.
#[derive(Debug, Clone, PartialEq)]
pub enum Conformance {
    /// Both substrates completed and agreed on everything.
    Agreed {
        /// The per-process decision values (identical on both substrates).
        decisions: Vec<u64>,
        /// The shared operation trace.
        trace: Trace,
        /// The shared work accounting.
        metrics: WorkMetrics,
    },
    /// Both substrates hit the step limit — agreement about non-completion.
    BothStepLimited,
}

/// Runs `protocol` on `inputs` under identically-constructed adversaries on
/// the sim engine and the lab runtime and checks the executions are equal;
/// then replays the lab's script on the model via `mc-check`.
///
/// `make_adversary` is called once per substrate so each side gets a fresh
/// adversary in its initial state (same construction + same view sequence ⇒
/// same choices).
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_conformance(
    protocol: Protocol,
    inputs: &[u64],
    make_adversary: &dyn Fn() -> Box<dyn Adversary + Send>,
    seed: u64,
    max_steps: u64,
) -> Result<Conformance, Divergence> {
    check_conformance_wrapped(protocol, inputs, make_adversary, seed, max_steps, |m| m)
}

/// [`check_conformance`] for the Theorem 6 protocol [`Protocol::Coin`]:
/// binary consensus whose conciliator stages wrap the Aspnes–Herlihy voting
/// coin with vote quorum `quorum_factor · n²`.
///
/// This is the coin-portfolio pin: the runtime's
/// [`CoinConciliator`](mc_runtime::CoinConciliator) +
/// [`VotingCoin`](mc_runtime::VotingCoin) must be operation-for-operation
/// identical to the model's [`CoinConciliator`] +
/// [`VotingSharedCoin`] specs, decisions, traces, work accounting and all —
/// and the recorded schedule must replay through `mc-check` under
/// [`CoinPolicy::Fixed`] to the same decisions.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
///
/// # Panics
///
/// Panics if `quorum_factor` is 0.
pub fn check_coin_conformance(
    quorum_factor: u32,
    inputs: &[u64],
    make_adversary: &dyn Fn() -> Box<dyn Adversary + Send>,
    seed: u64,
    max_steps: u64,
) -> Result<Conformance, Divergence> {
    check_conformance(
        Protocol::Coin { quorum_factor },
        inputs,
        make_adversary,
        seed,
        max_steps,
    )
}

/// [`check_conformance`] with the lab side running through a
/// [`FaultyMemory`] layer under `plan`.
///
/// With an *empty* plan this must return exactly what [`check_conformance`]
/// returns — the fault layer's passthrough is conformance-identical to the
/// bare substrate (decisions, traces, `WorkMetrics`, replay) — which is the
/// guarantee this function exists to check. A non-empty plan perturbs the
/// lab side only, so divergences are then expected and meaningful: they
/// show which fault classes the sim's fault-free execution can distinguish.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_conformance_with_plan(
    protocol: Protocol,
    inputs: &[u64],
    make_adversary: &dyn Fn() -> Box<dyn Adversary + Send>,
    seed: u64,
    max_steps: u64,
    plan: FaultPlan,
) -> Result<Conformance, Divergence> {
    check_conformance_wrapped(protocol, inputs, make_adversary, seed, max_steps, |m| {
        FaultyMemory::new(m, plan)
    })
}

/// Runs `protocol` twice on the lab substrate at the same `(adversary,
/// seed)`: once on a freshly built object, then again on the *same* object
/// after [`Consensus::reset`], over a register file rearmed by
/// [`Lab::reset_epoch`]. The two executions must be identical in every
/// observable — per-process decisions, the operation trace event-for-event,
/// the schedule/coin script, and the `WorkMetrics` — which is the ground
/// truth that a recycled generation-tagged object is indistinguishable from
/// a fresh one: every stale register reads as initial, so the adversary sees
/// the same views and makes the same choices.
///
/// In a returned [`Divergence`], the `sim` fields hold the *fresh* run's
/// view and the `lab` fields the *recycled* run's. A fresh run that hits the
/// step limit returns [`Conformance::BothStepLimited`]: a step-limited epoch
/// ends with operations still posted, so its register file cannot be
/// rearmed mid-flight and there is nothing to recycle.
///
/// # Errors
///
/// Returns the first [`Divergence`] between the fresh and recycled runs.
pub fn check_recycled_conformance(
    protocol: Protocol,
    inputs: &[u64],
    make_adversary: &dyn Fn() -> Box<dyn Adversary + Send>,
    seed: u64,
    max_steps: u64,
) -> Result<Conformance, Divergence> {
    let n = inputs.len();
    assert!(n > 0, "need at least one process");
    for &input in inputs {
        assert!(input < protocol.capacity(), "input out of range");
    }

    let mut lab = Lab::new(n, make_adversary(), &[], max_steps);
    let mut consensus = protocol.runtime(&lab, n);
    let fresh = match lab.run(seed, |pid, rng| consensus.decide_as(pid, inputs[pid], rng)) {
        Ok(report) => report,
        Err(LabError::StepLimitExceeded { .. }) => return Ok(Conformance::BothStepLimited),
        Err(err) => {
            return Err(Divergence::Completion {
                sim: Some(err.to_string()),
                lab: None,
            })
        }
    };

    consensus.reset();
    lab.reset_epoch(make_adversary(), &[]);
    let recycled = match lab.run(seed, |pid, rng| consensus.decide_as(pid, inputs[pid], rng)) {
        Ok(report) => report,
        Err(err) => {
            // The fresh run completed at this (adversary, seed), so the
            // recycled run failing — even on the step limit — is divergence.
            return Err(Divergence::Completion {
                sim: None,
                lab: Some(err.to_string()),
            });
        }
    };

    let fresh_decisions: Vec<u64> = fresh
        .decisions
        .iter()
        .map(|d| d.expect("no crashes configured"))
        .collect();
    let recycled_decisions: Vec<u64> = recycled
        .decisions
        .iter()
        .map(|d| d.expect("no crashes configured"))
        .collect();
    if fresh_decisions != recycled_decisions {
        return Err(Divergence::Decisions {
            sim: fresh_decisions,
            lab: recycled_decisions,
        });
    }

    if fresh.trace != recycled.trace {
        let at = fresh
            .trace
            .events()
            .iter()
            .zip(recycled.trace.events())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| fresh.trace.len().min(recycled.trace.len()));
        return Err(Divergence::Trace {
            at,
            sim: fresh.trace.events().get(at).map(|e| e.to_string()),
            lab: recycled.trace.events().get(at).map(|e| e.to_string()),
        });
    }

    if fresh.metrics != recycled.metrics {
        return Err(Divergence::Metrics {
            sim: fresh.metrics,
            lab: recycled.metrics,
        });
    }

    if fresh.path != recycled.path {
        let at = fresh
            .path
            .iter()
            .zip(recycled.path.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| fresh.path.len().min(recycled.path.len()));
        return Err(Divergence::Replay {
            detail: format!(
                "recycled schedule/coin script differs from fresh at event {at} \
                 (fresh has {} events, recycled {})",
                fresh.path.len(),
                recycled.path.len()
            ),
        });
    }

    Ok(Conformance::Agreed {
        decisions: recycled_decisions,
        trace: recycled.trace,
        metrics: recycled.metrics,
    })
}

/// Runs the same `(instance_id, proposal)` stream through two
/// identically-configured engines — once via the direct
/// [`ConsensusEngine::submit`] path, once through a pipelined
/// [`ConsensusService`] — and checks that every proposal decides the same
/// value on both.
///
/// Both legs run single-participant instances (`participants = 1`), where a
/// decision is deterministic, so the comparison is exact: the batching
/// frontend (intake rings, worker threads, detached slots, handle
/// completion) must be observationally identical to calling the engine
/// inline. Any inequality is a bug in the service pipeline — an item
/// reordered within an instance, a decision delivered to the wrong handle,
/// or a proposal lost or poisoned in flight.
///
/// Returns the shared decision vector, in submission order.
///
/// # Errors
///
/// Returns [`Divergence::Service`] at the first differing proposal.
///
/// # Panics
///
/// Panics if `proposals` is empty or any proposal value is outside the
/// protocol's capacity.
pub fn check_service_conformance(
    protocol: Protocol,
    proposals: &[(u64, u64)],
    seed: u64,
) -> Result<Vec<u64>, Divergence> {
    assert!(!proposals.is_empty(), "need at least one proposal");
    for &(_, proposal) in proposals {
        assert!(proposal < protocol.capacity(), "proposal out of range");
    }

    // Direct leg: decide each proposal inline on the caller's thread.
    let engine = ConsensusEngine::builder()
        .n(2)
        .values(protocol.capacity())
        .participants(1)
        .build();
    let mut rng = SmallRng::seed_from_u64(seed);
    let direct: Vec<u64> = proposals
        .iter()
        .map(|&(id, proposal)| engine.submit(id, proposal, &mut rng))
        .collect();

    // Service leg: the same stream through the intake rings and workers.
    let service = ConsensusService::builder()
        .n(2)
        .values(protocol.capacity())
        .participants(1)
        .seed(seed)
        .build();
    let handles = service.submit_batch(proposals);
    let mut decisions = Vec::with_capacity(proposals.len());
    for (at, handle) in handles.into_iter().enumerate() {
        let outcome = handle.and_then(|h| h.wait());
        match outcome {
            Ok(value) if value == direct[at] => decisions.push(value),
            Ok(value) => {
                return Err(Divergence::Service {
                    at,
                    submit: direct[at],
                    service: value.to_string(),
                })
            }
            Err(err) => {
                return Err(Divergence::Service {
                    at,
                    submit: direct[at],
                    service: err.to_string(),
                })
            }
        }
    }
    Ok(decisions)
}

/// [`check_service_conformance`] under fire: runs the same
/// `(instance_id, proposal)` stream through a direct fault-free engine and
/// through a [`ConsensusService`] driven by a seeded
/// [`ChaosPlan`] — injected worker panics and stalls at drain boundaries,
/// plus the plan's register-level [`FaultPlan`] layered under the engine
/// via [`FaultyMemory`] — and checks the service's recovery machinery end
/// to end:
///
/// * **Exactly one decision per admitted proposal.** Every handle must
///   resolve to a decision (no `Poisoned`, no hang), and the service's
///   telemetry ledger must reconcile: `proposals_enqueued == decisions`,
///   queue depth back to zero, restarts within the supervisor budget.
/// * **Service ≡ sequential.** Both legs run single-participant
///   instances, where the decided value is deterministic, so each decision
///   must equal what the direct engine decided — across however many
///   worker restarts the plan forced. (Register faults can cost retries,
///   never change a single-participant decision, so the comparison stays
///   exact under the fault plan too.)
///
/// Returns the shared decision vector, in submission order.
///
/// # Errors
///
/// [`Divergence::Service`] at the first proposal whose decision differs
/// (or errored); [`Divergence::Chaos`] when the telemetry ledger fails
/// exactly-once reconciliation.
///
/// # Panics
///
/// Panics if `proposals` is empty, any proposal value is outside the
/// protocol's capacity, or `plan.max_panics` exceeds
/// `supervisor.restart_budget` (a plan designed to exhaust the budget
/// legitimately poisons proposals — that is the supervisor's terminal
/// contract, not a conformance question).
pub fn check_chaos_conformance(
    protocol: Protocol,
    proposals: &[(u64, u64)],
    plan: ChaosPlan,
    supervisor: SupervisorOptions,
    seed: u64,
) -> Result<Vec<u64>, Divergence> {
    assert!(!proposals.is_empty(), "need at least one proposal");
    for &(_, proposal) in proposals {
        assert!(proposal < protocol.capacity(), "proposal out of range");
    }
    assert!(
        plan.max_panics <= supervisor.restart_budget,
        "chaos plan ({} panics) exceeds the restart budget ({})",
        plan.max_panics,
        supervisor.restart_budget
    );

    // Direct leg: fault-free, inline — the reference decisions.
    let engine = ConsensusEngine::builder()
        .n(2)
        .values(protocol.capacity())
        .participants(1)
        .build();
    let mut rng = SmallRng::seed_from_u64(seed);
    let direct: Vec<u64> = proposals
        .iter()
        .map(|&(id, proposal)| engine.submit(id, proposal, &mut rng))
        .collect();

    // Chaos leg: one worker (so the plan's drain schedule is
    // deterministic), the plan's register faults under the engine, its
    // panics/stalls inside the service.
    let service = ConsensusService::builder()
        .n(2)
        .values(protocol.capacity())
        .participants(1)
        .shards(1)
        .seed(seed)
        .memory(FaultyMemory::new(AtomicMemory, plan.faults))
        .chaos(plan)
        .supervisor(supervisor)
        .build();
    let handles = service.submit_batch(proposals);
    let mut decisions = Vec::with_capacity(proposals.len());
    for (at, handle) in handles.into_iter().enumerate() {
        match handle.and_then(|h| h.wait()) {
            Ok(value) if value == direct[at] => decisions.push(value),
            Ok(value) => {
                return Err(Divergence::Service {
                    at,
                    submit: direct[at],
                    service: value.to_string(),
                })
            }
            Err(err) => {
                return Err(Divergence::Service {
                    at,
                    submit: direct[at],
                    service: err.to_string(),
                })
            }
        }
    }

    // Exactly-once reconciliation over the service's own ledger.
    let telemetry = std::sync::Arc::clone(service.engine().telemetry_handle());
    drop(service); // join workers so every counter has settled
    let enqueued = telemetry.count(CounterKey::ProposalsEnqueued);
    let decided = telemetry.count(CounterKey::Decisions);
    let restarts = telemetry.count(CounterKey::WorkerRestarts);
    if enqueued != proposals.len() as u64 || decided != enqueued {
        return Err(Divergence::Chaos {
            detail: format!(
                "expected {} enqueued == decided, got enqueued={enqueued} decided={decided}",
                proposals.len()
            ),
        });
    }
    if telemetry.gauge(GaugeKey::QueueDepth) != 0 {
        return Err(Divergence::Chaos {
            detail: format!(
                "queue depth {} after full drain",
                telemetry.gauge(GaugeKey::QueueDepth)
            ),
        });
    }
    if restarts > u64::from(supervisor.restart_budget) {
        return Err(Divergence::Chaos {
            detail: format!(
                "{restarts} restarts exceed the budget {}",
                supervisor.restart_budget
            ),
        });
    }
    Ok(decisions)
}

/// Waits for a store response through [`CommandHandle::wait_timeout`]
/// (10 s), panicking with the store's `Debug` view (its slot table,
/// instance pool, applied commands and telemetry) when none arrives — so a stalled store fails the
/// check that drove it instead of hanging the suite.
fn settle<S: StateMachine, M: SharedMemory, R: Clone>(
    store: &ReplicatedStore<S, M>,
    handle: &CommandHandle<R>,
) -> Result<R, StoreError> {
    match handle.wait_timeout(std::time::Duration::from_secs(10)) {
        Err(StoreError::Timeout) => panic!("store stalled for 10 s: {store:?}"),
        answered => answered,
    }
}

/// Replicated-store ≡ sequential-apply conformance: drives a seeded
/// script of KV commands from `clients` interleaved sessions through a
/// [`ReplicatedStore`] and replays the identical stream on a bare
/// [`KvStore`], demanding equality end to end.
///
/// The driver issues commands round-robin across the sessions and waits
/// for each response before the next command, so the store's apply order
/// is exactly the issue order and the bare machine is a complete oracle:
///
/// * **Responses.** Every store response must equal the sequential
///   machine's response for the same command — `Get`s observing earlier
///   writes, `Cas` outcomes, previous values on `Put`/`Delete`.
/// * **Duplicate delivery.** A seeded subset of commands is re-delivered
///   (several extra copies under the same sequence number, the client
///   retry path). Every copy must return the originally-cached response,
///   and none may re-apply: the exactly-once ledger
///   (`commands_applied` = distinct commands, `duplicates_served` =
///   extra copies) must reconcile, and stale re-delivery of the
///   *previous* sequence number must be refused as
///   [`StoreError::Stale`].
/// * **Final state.** The store's machine (read through a fast read)
///   must equal the sequential machine, snapshot for
///   snapshot.
///
/// Returns the number of distinct commands applied.
///
/// # Errors
///
/// Returns [`Divergence::Store`] naming the first inequality.
///
/// # Panics
///
/// Panics if `clients` or `commands_per_client` is zero.
pub fn check_store_conformance(
    clients: u64,
    commands_per_client: u64,
    proposers: usize,
    seed: u64,
) -> Result<u64, Divergence> {
    use rand::RngExt;

    assert!(clients > 0, "need at least one client");
    assert!(commands_per_client > 0, "need at least one command");

    let mut store = ReplicatedStore::<KvStore>::builder()
        .proposers(proposers)
        .batch_commands(8)
        .snapshot_every(16)
        .seed(seed)
        .build();
    let mut reference = KvStore::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    // Small key space shared by every client, so sessions interact.
    let keys = (clients * 4).max(8);

    let mut distinct = 0u64;
    let mut duplicates = 0u64;
    let mut stale_probes = 0u64;
    for round in 0..commands_per_client {
        for client in 1..=clients {
            let key = rng.random_range(0..keys);
            let command = match rng.random_range(0u32..4) {
                0 => KvCommand::Get { key },
                1 => KvCommand::Put {
                    key,
                    value: rng.random_range(0u64..1_000),
                },
                2 => KvCommand::Cas {
                    key,
                    expect: reference.get(key),
                    value: rng.random_range(0u64..1_000),
                },
                _ => KvCommand::Delete { key },
            };
            let expected = reference.apply(&command);
            distinct += 1;
            let got = settle(&store, &store.submit(client, round + 1, command));
            if got != Ok(expected) {
                return Err(Divergence::Store {
                    detail: format!(
                        "client {client} round {round}: store answered {got:?}, \
                         sequential apply {expected:?} for {command:?}"
                    ),
                });
            }
            // Duplicate-delivery leg: re-deliver this command a few more
            // times under the same sequence number; every copy must be
            // served from the session cache with the original response.
            if rng.random_bool(0.25) {
                for copy in 0..rng.random_range(1u32..4) {
                    duplicates += 1;
                    let again = settle(&store, &store.submit(client, round + 1, command));
                    if again != Ok(expected) {
                        return Err(Divergence::Store {
                            detail: format!(
                                "client {client} round {round} duplicate copy {copy}: \
                                 got {again:?}, cached response was {expected:?}"
                            ),
                        });
                    }
                }
            }
            // Stale leg: a copy of the *previous* command must be refused
            // (its cached response is already overwritten).
            if round > 0 && rng.random_bool(0.1) {
                stale_probes += 1;
                let stale = settle(&store, &store.submit(client, round, command));
                if stale
                    != Err(StoreError::Stale {
                        last_seq: round + 1,
                    })
                {
                    return Err(Divergence::Store {
                        detail: format!(
                            "client {client} round {round}: stale re-delivery \
                             answered {stale:?} instead of Stale"
                        ),
                    });
                }
            }
        }
    }

    // Exactly-once ledger.
    let telemetry = store.telemetry();
    if telemetry.count(CounterKey::CommandsApplied) != distinct {
        return Err(Divergence::Store {
            detail: format!(
                "{} commands applied, {distinct} distinct submitted",
                telemetry.count(CounterKey::CommandsApplied)
            ),
        });
    }
    if telemetry.count(CounterKey::DuplicatesServed) != duplicates {
        return Err(Divergence::Store {
            detail: format!(
                "{} duplicates served, {duplicates} re-delivered",
                telemetry.count(CounterKey::DuplicatesServed)
            ),
        });
    }
    if telemetry.count(CounterKey::StaleCommands) != stale_probes {
        return Err(Divergence::Store {
            detail: format!(
                "{} stale commands counted, {stale_probes} probed",
                telemetry.count(CounterKey::StaleCommands)
            ),
        });
    }
    if telemetry.count(CounterKey::SessionsCreated) != clients {
        return Err(Divergence::Store {
            detail: format!(
                "{} sessions created for {clients} clients",
                telemetry.count(CounterKey::SessionsCreated)
            ),
        });
    }

    // Final state, observed through the fast-read path.
    let store_snapshot = store.read_with(|kv| kv.snapshot());
    if store_snapshot != reference.snapshot() {
        return Err(Divergence::Store {
            detail: format!(
                "final state diverged: store {} pairs, sequential {} pairs",
                store_snapshot.len(),
                reference.snapshot().len()
            ),
        });
    }
    store.shutdown();
    Ok(distinct)
}

fn check_conformance_wrapped<M: SharedMemory>(
    protocol: Protocol,
    inputs: &[u64],
    make_adversary: &dyn Fn() -> Box<dyn Adversary + Send>,
    seed: u64,
    max_steps: u64,
    wrap: impl FnOnce(crate::LabMemory) -> M,
) -> Result<Conformance, Divergence> {
    let n = inputs.len();
    assert!(n > 0, "need at least one process");
    for &input in inputs {
        assert!(input < protocol.capacity(), "input out of range");
    }
    let spec = protocol.spec();

    let sim_outcome = run_object(
        spec.as_ref(),
        inputs,
        &mut *make_adversary(),
        seed,
        &EngineConfig::default()
            .with_max_steps(max_steps)
            .with_trace(),
    );

    let lab = Lab::new(n, make_adversary(), &[], max_steps);
    let consensus = protocol.runtime_in(wrap(lab.memory()), n);
    // `decide_as` binds the lab worker's pid to the runtime thread slot —
    // the model's sessions are pid-addressed (the voting coin writes its
    // own tally register), so the pairing must be explicit, not ticketed.
    let lab_report = lab.run(seed, |pid, rng| consensus.decide_as(pid, inputs[pid], rng));

    let (sim_outcome, lab_report) = match (sim_outcome, lab_report) {
        (Ok(sim), Ok(lab)) => (sim, lab),
        (Err(RunError::StepLimitExceeded { .. }), Err(LabError::StepLimitExceeded { .. })) => {
            return Ok(Conformance::BothStepLimited)
        }
        (sim, lab) => {
            return Err(Divergence::Completion {
                sim: sim.err().map(|e| e.to_string()),
                lab: lab.err().map(|e| e.to_string()),
            })
        }
    };

    let sim_decisions = sim_outcome.values();
    let lab_decisions: Vec<u64> = lab_report
        .decisions
        .iter()
        .map(|d| d.expect("no crashes configured"))
        .collect();
    if sim_decisions != lab_decisions {
        return Err(Divergence::Decisions {
            sim: sim_decisions,
            lab: lab_decisions,
        });
    }

    let sim_trace = sim_outcome.trace.expect("trace recording was enabled");
    if sim_trace != lab_report.trace {
        let at = sim_trace
            .events()
            .iter()
            .zip(lab_report.trace.events())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| sim_trace.len().min(lab_report.trace.len()));
        return Err(Divergence::Trace {
            at,
            sim: sim_trace.events().get(at).map(|e| e.to_string()),
            lab: lab_report.trace.events().get(at).map(|e| e.to_string()),
        });
    }

    if sim_outcome.metrics != lab_report.metrics {
        return Err(Divergence::Metrics {
            sim: sim_outcome.metrics,
            lab: lab_report.metrics,
        });
    }

    // Close the triangle: the recorded schedule/coin script must drive the
    // *model* to the same decisions. The per-protocol policy decides how
    // session-local randomness replays (forbidden for the impatient
    // protocols, pid-seeded streams for the voting coin).
    match replay_to_completion(
        spec.as_ref(),
        inputs,
        protocol.replay_policy(seed),
        max_steps as usize,
        &lab_report.path,
    ) {
        Ok(replayed) => {
            let replay_values: Vec<u64> = replayed.iter().map(|d| d.value()).collect();
            if replay_values != lab_decisions {
                return Err(Divergence::Replay {
                    detail: format!(
                        "replayed decisions {replay_values:?} != lab decisions {lab_decisions:?}"
                    ),
                });
            }
        }
        Err(err) => {
            return Err(Divergence::Replay {
                detail: err.to_string(),
            })
        }
    }

    Ok(Conformance::Agreed {
        decisions: lab_decisions,
        trace: lab_report.trace,
        metrics: lab_report.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_sim::adversary::{ImpatienceExploiter, RandomScheduler, RoundRobin, SplitKeeper};
    use mc_sim::sched::PctScheduler;

    fn adversary_menu(seed: u64) -> Vec<Box<dyn Fn() -> Box<dyn Adversary + Send>>> {
        vec![
            Box::new(move || Box::new(RandomScheduler::new(seed)) as Box<dyn Adversary + Send>),
            Box::new(move || {
                Box::new(PctScheduler::new(3, 500, seed)) as Box<dyn Adversary + Send>
            }),
            Box::new(|| Box::new(RoundRobin::new()) as Box<dyn Adversary + Send>),
            Box::new(move || Box::new(SplitKeeper::new(seed)) as Box<dyn Adversary + Send>),
            Box::new(|| Box::new(ImpatienceExploiter::new()) as Box<dyn Adversary + Send>),
        ]
    }

    #[test]
    fn binary_consensus_conforms_across_seeds_and_adversaries() {
        for seed in 0..20 {
            for make in adversary_menu(seed) {
                let outcome = check_conformance(Protocol::Binary, &[0, 1, 1], &make, seed, 100_000)
                    .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
                if let Conformance::Agreed { decisions, .. } = outcome {
                    assert!(decisions.iter().all(|&d| d == decisions[0]));
                }
            }
        }
    }

    #[test]
    fn multivalued_consensus_conforms() {
        for seed in 0..10 {
            for make in adversary_menu(seed) {
                check_conformance(Protocol::Multivalued(5), &[4, 0, 2], &make, seed, 100_000)
                    .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            }
        }
    }

    #[test]
    fn coin_consensus_conforms_across_seeds_and_adversaries() {
        for seed in 0..8 {
            for make in adversary_menu(seed) {
                let outcome = check_coin_conformance(1, &[0, 1, 1], &make, seed, 200_000)
                    .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
                if let Conformance::Agreed { decisions, .. } = outcome {
                    assert!(decisions.iter().all(|&d| d == decisions[0]));
                }
            }
        }
    }

    #[test]
    fn coin_consensus_unanimous_inputs_conform_on_the_fast_path() {
        for seed in 0..5 {
            for make in adversary_menu(seed) {
                let outcome = check_coin_conformance(1, &[1, 1, 1], &make, seed, 200_000)
                    .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
                let Conformance::Agreed { decisions, .. } = outcome else {
                    panic!("seed {seed}: unanimous run hit the step limit");
                };
                assert_eq!(decisions, vec![1, 1, 1], "seed {seed}");
            }
        }
    }

    #[test]
    fn recycled_coin_object_is_identical_to_fresh() {
        for seed in 0..5 {
            for make in adversary_menu(seed) {
                check_recycled_conformance(
                    Protocol::Coin { quorum_factor: 1 },
                    &[0, 1, 1],
                    &make,
                    seed,
                    200_000,
                )
                .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            }
        }
    }

    #[test]
    fn empty_fault_plan_is_conformance_identical_to_bare_memory() {
        for seed in 0..10 {
            for make in adversary_menu(seed) {
                let bare = check_conformance(Protocol::Binary, &[0, 1, 1], &make, seed, 100_000)
                    .unwrap_or_else(|d| panic!("bare seed {seed}: {d}"));
                let layered = check_conformance_with_plan(
                    Protocol::Binary,
                    &[0, 1, 1],
                    &make,
                    seed,
                    100_000,
                    FaultPlan::none(),
                )
                .unwrap_or_else(|d| panic!("layered seed {seed}: {d}"));
                assert_eq!(bare, layered, "seed {seed}");
            }
        }
    }

    #[test]
    fn empty_fault_plan_conforms_on_multivalued_too() {
        for seed in 0..5 {
            check_conformance_with_plan(
                Protocol::Multivalued(5),
                &[4, 0, 2],
                &(Box::new(move || Box::new(SplitKeeper::new(seed)) as Box<dyn Adversary + Send>)
                    as Box<dyn Fn() -> Box<dyn Adversary + Send>>),
                seed,
                100_000,
                FaultPlan::none(),
            )
            .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        }
    }

    #[test]
    fn recycled_binary_object_is_identical_to_fresh() {
        for seed in 0..20 {
            for make in adversary_menu(seed) {
                let outcome =
                    check_recycled_conformance(Protocol::Binary, &[0, 1, 1], &make, seed, 100_000)
                        .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
                if let Conformance::Agreed { decisions, .. } = outcome {
                    assert!(decisions.iter().all(|&d| d == decisions[0]));
                }
            }
        }
    }

    #[test]
    fn recycled_multivalued_object_is_identical_to_fresh() {
        for seed in 0..10 {
            for make in adversary_menu(seed) {
                check_recycled_conformance(
                    Protocol::Multivalued(5),
                    &[4, 0, 2],
                    &make,
                    seed,
                    100_000,
                )
                .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            }
        }
    }

    #[test]
    fn twice_recycled_object_still_matches_fresh() {
        use mc_sim::adversary::RandomScheduler;

        let seed = 17;
        let mut lab = Lab::new(3, Box::new(RandomScheduler::new(seed)), &[], 100_000);
        let mut consensus = Protocol::Binary.runtime(&lab, 3);
        let mut reports = Vec::new();
        for _ in 0..3 {
            let report = lab
                .run(seed, |pid, rng| consensus.decide(pid as u64 % 2, rng))
                .unwrap();
            reports.push(report);
            consensus.reset();
            lab.reset_epoch(Box::new(RandomScheduler::new(seed)), &[]);
        }
        for epoch in 1..reports.len() {
            assert_eq!(
                reports[0].decisions, reports[epoch].decisions,
                "epoch {epoch}"
            );
            assert_eq!(reports[0].trace, reports[epoch].trace, "epoch {epoch}");
            assert_eq!(reports[0].path, reports[epoch].path, "epoch {epoch}");
            assert_eq!(reports[0].metrics, reports[epoch].metrics, "epoch {epoch}");
        }
    }

    #[test]
    fn service_pipeline_matches_direct_submit_across_seeds() {
        for seed in 0..10 {
            let proposals: Vec<(u64, u64)> =
                (0..64u64).map(|i| (i % 7, (i * 31 + seed) % 5)).collect();
            let decisions = check_service_conformance(Protocol::Multivalued(5), &proposals, seed)
                .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            // Single-participant instances decide their own proposal, so
            // conformance here is exact and predictable.
            for (ix, &(_, proposal)) in proposals.iter().enumerate() {
                assert_eq!(decisions[ix], proposal, "seed {seed} proposal {ix}");
            }
        }
    }

    #[test]
    fn chaos_conformance_survives_panics_within_budget() {
        // Panic at every drain, up to 3 times: the supervisor re-admits
        // the stash each time and the fourth incarnation decides — still
        // exactly the direct leg's decisions.
        let supervisor = SupervisorOptions {
            restart_budget: 4,
            base_backoff: std::time::Duration::from_micros(50),
            max_backoff: std::time::Duration::from_millis(1),
        };
        for seed in 0..5 {
            let proposals: Vec<(u64, u64)> =
                (0..48u64).map(|i| (i % 5, (i * 13 + seed) % 6)).collect();
            let plan = ChaosPlan::seeded(seed).panic_every(1, 3);
            let decisions = check_chaos_conformance(
                Protocol::Multivalued(6),
                &proposals,
                plan,
                supervisor,
                seed,
            )
            .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            for (ix, &(_, proposal)) in proposals.iter().enumerate() {
                assert_eq!(decisions[ix], proposal, "seed {seed} proposal {ix}");
            }
        }
    }

    #[test]
    fn chaos_conformance_with_stalls_and_register_faults() {
        // Stalls plus the PR 3 fault layer (lost probabilistic writes and
        // stale reads): decisions cost retries but never change.
        let supervisor = SupervisorOptions {
            restart_budget: 3,
            base_backoff: std::time::Duration::from_micros(50),
            max_backoff: std::time::Duration::from_millis(1),
        };
        let plan = ChaosPlan::seeded(21)
            .panic_every(3, 2)
            .stall_every(2, std::time::Duration::from_micros(200))
            .faults(FaultPlan::seeded(21).lost_prob_writes(0.2).stale_reads(0.2));
        let proposals: Vec<(u64, u64)> = (0..32u64).map(|i| (i % 3, i % 2)).collect();
        let decisions = check_chaos_conformance(Protocol::Binary, &proposals, plan, supervisor, 21)
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(decisions.len(), proposals.len());
    }

    #[test]
    fn chaos_conformance_with_empty_plan_is_plain_service_conformance() {
        let proposals: Vec<(u64, u64)> = (0..16u64).map(|i| (i % 3, i % 2)).collect();
        let chaos = check_chaos_conformance(
            Protocol::Binary,
            &proposals,
            ChaosPlan::none(),
            SupervisorOptions::default(),
            9,
        )
        .unwrap_or_else(|d| panic!("{d}"));
        let plain = check_service_conformance(Protocol::Binary, &proposals, 9)
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(chaos, plain);
    }

    #[test]
    #[should_panic(expected = "exceeds the restart budget")]
    fn chaos_plan_beyond_the_budget_is_refused_up_front() {
        let _ = check_chaos_conformance(
            Protocol::Binary,
            &[(0, 1)],
            ChaosPlan::seeded(1).panic_every(1, 9),
            SupervisorOptions::default(),
            1,
        );
    }

    #[test]
    fn binary_service_conforms_with_repeated_instances() {
        // Repeated instance ids: every submit retires its solo instance, so
        // both legs must agree run-for-run even when ids collide.
        let proposals: Vec<(u64, u64)> = (0..32u64).map(|i| (i % 3, i % 2)).collect();
        let decisions = check_service_conformance(Protocol::Binary, &proposals, 7)
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(decisions.len(), proposals.len());
    }

    #[test]
    fn single_process_fast_path_conforms() {
        let make: Box<dyn Fn() -> Box<dyn Adversary + Send>> =
            Box::new(|| Box::new(RoundRobin::new()) as Box<dyn Adversary + Send>);
        let outcome = check_conformance(Protocol::Binary, &[1], &make, 0, 1_000).unwrap();
        assert!(matches!(
            outcome,
            Conformance::Agreed { ref decisions, .. } if decisions == &[1]
        ));
    }
}
