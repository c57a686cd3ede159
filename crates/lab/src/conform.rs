//! Differential conformance between the three substrates.
//!
//! The same protocol, the same inputs, the same adversary construction, the
//! same seed — run once on `mc-sim`'s model engine and once on `mc-runtime`'s
//! real threads under the lab scheduler. Both legs run the same `mc-core`
//! sessions: the runtime drives each stage's session on its registers, so
//! what is compared is the substrate (engine vs threads, model memory vs
//! lab registers, the runtime's chain walk vs `mc-core`'s `Chain`), not
//! two implementations of the paper's objects. Because both substrates draw
//! per-process coins from `mix_seed(seed, pid)` streams and both let the
//! adversary pick from the identical pending-operation views, the two
//! executions must be *literally equal*: same decision per process, same
//! operation trace event-for-event, same work accounting. The lab's
//! schedule/coin script is then replayed through `mc-check`'s replayer to
//! close the triangle with the third substrate.
//!
//! Every check runs a *reference* leg and a *subject* leg and hands both to
//! one of three comparators, each written once here: the **execution
//! comparator** (decisions, trace, work, schedule/coin script) for sim vs
//! lab and fresh vs recycled; the **direct-leg comparison** (an inline
//! engine vs a service's handles) for the service and chaos checks; the
//! **counter-ledger reconciliation** (telemetry counters vs what the check
//! submitted) for the chaos and store checks.
//!
//! Any inequality is a bug in one of the substrates (or in the runtime's
//! walk over the chain) and is reported as a [`Divergence`].

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use mc_check::{replay_to_completion, CoinPolicy, PathEvent};
use mc_core::{CoinConciliator, ConsensusBuilder, Ratifier, VotingSharedCoin};
use mc_model::ObjectSpec;
use mc_runtime::{
    AtomicMemory, ChaosPlan, CoinKind, ConciliatorChoice, Consensus, ConsensusEngine,
    ConsensusService, CounterKey, FaultPlan, FaultyMemory, GaugeKey, RuntimeTelemetry,
    SharedMemory, SupervisorOptions,
};
use mc_sim::harness::run_object;
use mc_sim::{Adversary, EngineConfig, RunError, Trace, WorkMetrics};
use mc_store::{
    CommandHandle, KvCommand, KvResponse, KvStore, ReplicatedStore, StateMachine, StoreError,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::control::LabError;
use crate::harness::{Lab, LabReport};

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
    /// takes from the same per-process `mix_seed(seed, pid)` streams, so the
    /// runtime's coin stages (the same sessions, driven on lab registers)
    /// must match the model run operation for operation and replay under
    /// [`CoinPolicy::Fixed`].
    Coin {
        /// Vote quorum as a multiple of `n²`. Must be positive.
        quorum_factor: u32,
    },
}

impl Protocol {
    /// The model-side specification (`mc-core`, runnable on sim and check).
    fn spec(&self) -> Arc<dyn ObjectSpec> {
        match self {
            Protocol::Binary => Arc::new(ConsensusBuilder::binary().build()),
            Protocol::Multivalued(_) => {
                Arc::new(ConsensusBuilder::multivalued(self.capacity()).build())
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

    /// The runtime-side object over a register substrate: the lab's
    /// [`Lab::memory`], or that memory wrapped in a [`FaultyMemory`] layer.
    pub(crate) fn runtime_in<M: SharedMemory>(&self, memory: M, n: usize) -> Consensus<M> {
        let builder = Consensus::builder().n(n).values(self.capacity());
        match *self {
            Protocol::Coin { quorum_factor } => builder
                .conciliator(ConciliatorChoice::Coin(CoinKind::Voting { quorum_factor }))
                .memory(memory)
                .build(),
            _ => builder.memory(memory).build(),
        }
    }

    /// Capacity of the protocol's value domain.
    ///
    /// # Panics
    ///
    /// Panics for [`Protocol::Multivalued`] with `m ≤ 2`.
    pub fn capacity(&self) -> u64 {
        match self {
            Protocol::Binary | Protocol::Coin { .. } => 2,
            Protocol::Multivalued(m) => {
                assert!(*m > 2, "use Protocol::Binary for m = 2");
                *m
            }
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

    /// Panics unless the `what`s a check proposes are non-empty and in range.
    fn assert_domain(&self, what: &str, values: impl ExactSizeIterator<Item = u64>) {
        assert!(values.len() > 0, "need at least one {what}");
        for value in values {
            assert!(value < self.capacity(), "{what} out of range");
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

/// How a check's reference leg and subject leg disagreed. Constructing one
/// of these from a conformance run is always a bug somewhere.
///
/// The legs are, per check: the sim engine and the lab runtime
/// ([`check_conformance`], [`check_conformance_with_plan`]); the fresh and
/// the recycled lab run ([`check_recycled_conformance`]); the direct engine
/// and the service ([`check_service_conformance`],
/// [`check_chaos_conformance`]); sequential apply on a bare [`KvStore`] and
/// the replicated store ([`check_store_conformance`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// One leg hit the step limit (or failed), the other completed.
    Completion {
        /// Error from the reference leg, if any.
        reference: Option<String>,
        /// Error from the subject leg, if any.
        subject: Option<String>,
    },
    /// A process decided different values on the two legs.
    Decisions {
        /// Per-process values from the reference leg.
        reference: Vec<u64>,
        /// Per-process values from the subject leg.
        subject: Vec<u64>,
    },
    /// The operation traces differ; the index of the first differing event.
    Trace {
        /// First event index where the traces differ (or the shorter
        /// length, when one is a prefix of the other).
        at: usize,
        /// The reference leg's event at that index, rendered.
        reference: Option<String>,
        /// The subject leg's event at that index, rendered.
        subject: Option<String>,
    },
    /// Work accounting differs.
    Metrics {
        /// The reference leg's accounting.
        reference: WorkMetrics,
        /// The subject leg's accounting.
        subject: WorkMetrics,
    },
    /// The two legs' schedule/coin scripts differ, or replaying the lab's
    /// script through `mc-check` failed or produced different decisions.
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
            Divergence::Completion { reference, subject } => write!(
                f,
                "completion divergence: reference={}, subject={}",
                reference.as_deref().unwrap_or("ok"),
                subject.as_deref().unwrap_or("ok"),
            ),
            Divergence::Decisions { reference, subject } => write!(
                f,
                "decision divergence: reference={reference:?}, subject={subject:?}"
            ),
            Divergence::Trace {
                at,
                reference,
                subject,
            } => write!(
                f,
                "trace divergence at event {at}: reference={}, subject={}",
                reference.as_deref().unwrap_or("<end>"),
                subject.as_deref().unwrap_or("<end>"),
            ),
            Divergence::Metrics { reference, subject } => write!(
                f,
                "metrics divergence: reference={reference:?}, subject={subject:?}"
            ),
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
    /// Both legs completed and agreed on everything.
    Agreed {
        /// The per-process decision values (identical on both legs).
        decisions: Vec<u64>,
        /// The shared operation trace.
        trace: Trace,
        /// The shared work accounting.
        metrics: WorkMetrics,
    },
    /// Both legs hit the step limit — agreement about non-completion.
    BothStepLimited,
}

/// One leg's completed execution, as the execution comparator sees it:
/// per-process decisions, the operation trace, the work accounting, and the
/// schedule/coin script on legs that record one (the lab's).
#[derive(Debug, Clone)]
pub(crate) struct Execution {
    pub(crate) decisions: Vec<u64>,
    pub(crate) trace: Trace,
    pub(crate) metrics: WorkMetrics,
    pub(crate) path: Option<Vec<PathEvent>>,
}

impl From<LabReport> for Execution {
    fn from(report: LabReport) -> Execution {
        Execution {
            decisions: report
                .decisions
                .into_iter()
                .map(|d| d.expect("no crashes configured"))
                .collect(),
            trace: report.trace,
            metrics: report.metrics,
            path: Some(report.path),
        }
    }
}

impl Execution {
    fn agreed(self) -> Conformance {
        Conformance::Agreed {
            decisions: self.decisions,
            trace: self.trace,
            metrics: self.metrics,
        }
    }
}

/// The execution comparator: decisions, then the trace (reporting its first
/// differing event), then the work accounting, then the schedule/coin
/// script where both legs recorded one.
pub(crate) fn compare_executions(
    reference: &Execution,
    subject: &Execution,
) -> Result<(), Divergence> {
    if reference.decisions != subject.decisions {
        return Err(Divergence::Decisions {
            reference: reference.decisions.clone(),
            subject: subject.decisions.clone(),
        });
    }
    let (ours, theirs) = (reference.trace.events(), subject.trace.events());
    if ours != theirs {
        let at = first_difference(ours, theirs);
        return Err(Divergence::Trace {
            at,
            reference: ours.get(at).map(ToString::to_string),
            subject: theirs.get(at).map(ToString::to_string),
        });
    }
    if reference.metrics != subject.metrics {
        return Err(Divergence::Metrics {
            reference: reference.metrics.clone(),
            subject: subject.metrics.clone(),
        });
    }
    if let (Some(ours), Some(theirs)) = (&reference.path, &subject.path) {
        if ours != theirs {
            return Err(Divergence::Replay {
                detail: format!(
                    "schedule/coin script differs at event {} (reference has {} events, \
                     subject {})",
                    first_difference(ours, theirs),
                    ours.len(),
                    theirs.len()
                ),
            });
        }
    }
    Ok(())
}

/// Index of the first differing element, or the shorter length when one
/// slice is a prefix of the other.
fn first_difference<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    a.iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()))
}

/// The lab leg: each process `pid` decides `inputs[pid]` on `consensus`
/// under the lab's schedule. `decide_as` binds the lab worker's pid to the
/// runtime thread slot — the model's sessions are pid-addressed (the voting
/// coin writes its own tally register), so the pairing must be explicit,
/// not ticketed.
fn lab_leg<M: SharedMemory>(
    lab: &Lab,
    consensus: &Consensus<M>,
    inputs: &[u64],
    seed: u64,
) -> Result<Execution, LabError> {
    lab.run(seed, |pid, rng| consensus.decide_as(pid, inputs[pid], rng))
        .map(Execution::from)
}

/// Runs `protocol` on `inputs` under identically-constructed adversaries on
/// the sim engine (reference) and the lab runtime (subject) and checks the
/// executions are equal; then replays the lab's script on the model via
/// `mc-check`.
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

fn check_conformance_wrapped<M: SharedMemory>(
    protocol: Protocol,
    inputs: &[u64],
    make_adversary: &dyn Fn() -> Box<dyn Adversary + Send>,
    seed: u64,
    max_steps: u64,
    wrap: impl FnOnce(crate::LabMemory) -> M,
) -> Result<Conformance, Divergence> {
    protocol.assert_domain("input", inputs.iter().copied());
    let n = inputs.len();
    let spec = protocol.spec();

    let sim = run_object(
        spec.as_ref(),
        inputs,
        &mut *make_adversary(),
        seed,
        &EngineConfig::default()
            .with_max_steps(max_steps)
            .with_trace(),
    )
    .map(|outcome| Execution {
        decisions: outcome.values(),
        trace: outcome.trace.expect("trace recording was enabled"),
        metrics: outcome.metrics,
        path: None,
    });

    let lab = Lab::new(n, make_adversary(), &[], max_steps);
    let consensus = protocol.runtime_in(wrap(lab.memory()), n);
    let (sim, lab) = match (sim, lab_leg(&lab, &consensus, inputs, seed)) {
        (Ok(sim), Ok(lab)) => (sim, lab),
        (Err(RunError::StepLimitExceeded { .. }), Err(LabError::StepLimitExceeded { .. })) => {
            return Ok(Conformance::BothStepLimited)
        }
        (sim, lab) => {
            return Err(Divergence::Completion {
                reference: sim.err().map(|e| e.to_string()),
                subject: lab.err().map(|e| e.to_string()),
            })
        }
    };
    compare_executions(&sim, &lab)?;

    // Close the triangle: the recorded schedule/coin script must drive the
    // *model* to the same decisions. The per-protocol policy decides how
    // session-local randomness replays (forbidden for the impatient
    // protocols, pid-seeded streams for the voting coin).
    let replayed = replay_to_completion(
        spec.as_ref(),
        inputs,
        protocol.replay_policy(seed),
        max_steps as usize,
        lab.path.as_deref().expect("the lab records its script"),
    )
    .map_err(|err| Divergence::Replay {
        detail: err.to_string(),
    })?;
    let replayed: Vec<u64> = replayed.iter().map(|d| d.value()).collect();
    if replayed != lab.decisions {
        return Err(Divergence::Replay {
            detail: format!(
                "replayed decisions {replayed:?} != lab decisions {:?}",
                lab.decisions
            ),
        });
    }
    Ok(lab.agreed())
}

/// Runs `protocol` twice on the lab substrate at the same `(adversary,
/// seed)`: once on a freshly built object (reference), then again on the
/// *same* object after [`Consensus::reset`], over a register file rearmed
/// by [`Lab::reset_epoch`] (subject). The two executions must be identical
/// in every observable the execution comparator reads, which is the ground
/// truth that a recycled object is indistinguishable from a fresh one:
/// every cleared register reads as initial, so the adversary
/// sees the same views and makes the same choices.
///
/// A fresh run that hits the step limit returns
/// [`Conformance::BothStepLimited`]: a step-limited epoch ends with
/// operations still posted, so its register file cannot be rearmed
/// mid-flight and there is nothing to recycle.
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
    protocol.assert_domain("input", inputs.iter().copied());
    let n = inputs.len();

    let mut lab = Lab::new(n, make_adversary(), &[], max_steps);
    let mut consensus = protocol.runtime_in(lab.memory(), n);
    let fresh = match lab_leg(&lab, &consensus, inputs, seed) {
        Ok(execution) => execution,
        Err(LabError::StepLimitExceeded { .. }) => return Ok(Conformance::BothStepLimited),
        Err(err) => {
            return Err(Divergence::Completion {
                reference: Some(err.to_string()),
                subject: None,
            })
        }
    };

    consensus.reset();
    lab.reset_epoch(make_adversary(), &[]);
    // The fresh run completed at this (adversary, seed), so the recycled
    // run failing — even on the step limit — is divergence.
    let recycled =
        lab_leg(&lab, &consensus, inputs, seed).map_err(|err| Divergence::Completion {
            reference: None,
            subject: Some(err.to_string()),
        })?;
    compare_executions(&fresh, &recycled)?;
    Ok(recycled.agreed())
}

/// The direct-leg and handle comparison shared by the service checks. The
/// reference leg decides each proposal inline on the caller's thread, on a
/// fault-free engine; the subject leg submits the same stream to `service`
/// and waits on each handle. Both run single-participant instances
/// (`participants = 1`), where a decision is deterministic, so the
/// comparison is exact, index by index.
///
/// Returns the shared decision vector, in submission order.
fn compare_with_direct<M: SharedMemory>(
    protocol: Protocol,
    proposals: &[(u64, u64)],
    seed: u64,
    service: &ConsensusService<M>,
) -> Result<Vec<u64>, Divergence> {
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

    let handles = service.submit_batch(proposals);
    direct
        .into_iter()
        .zip(handles)
        .enumerate()
        .map(
            |(at, (submit, handle))| match handle.and_then(|h| h.wait()) {
                Ok(value) if value == submit => Ok(value),
                outcome => Err(Divergence::Service {
                    at,
                    submit,
                    service: outcome.map_or_else(|err| err.to_string(), |value| value.to_string()),
                }),
            },
        )
        .collect()
}

/// The counter-ledger reconciliation shared by the chaos and store checks:
/// every `(counter, expected)` entry must read exactly `expected` in
/// `telemetry`. Returns the first mismatch, rendered.
fn reconcile(telemetry: &RuntimeTelemetry, ledger: &[(CounterKey, u64)]) -> Result<(), String> {
    for &(key, expected) in ledger {
        let counted = telemetry.count(key);
        if counted != expected {
            return Err(format!(
                "{} counted {counted}, expected {expected}",
                key.name()
            ));
        }
    }
    Ok(())
}

/// Runs the same `(instance_id, proposal)` stream through two
/// identically-configured engines — once via the direct
/// [`ConsensusEngine::submit`] path, once through a pipelined
/// [`ConsensusService`] — and checks that every proposal decides the same
/// value on both.
///
/// The batching frontend (intake rings, worker threads, detached slots,
/// handle completion) must be observationally identical to calling the
/// engine inline. Any inequality is a bug in the service pipeline — an
/// item reordered within an instance, a decision delivered to the wrong
/// handle, or a proposal lost or poisoned in flight. Returns the shared
/// decision vector, in submission order.
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
    protocol.assert_domain("proposal", proposals.iter().map(|&(_, p)| p));
    let service = ConsensusService::builder()
        .n(2)
        .values(protocol.capacity())
        .participants(1)
        .seed(seed)
        .build();
    compare_with_direct(protocol, proposals, seed, &service)
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
/// * **Service ≡ sequential.** Each decision must equal what the direct
///   engine decided — across however many worker restarts the plan forced.
///   (Register faults can cost retries, never change a single-participant
///   decision, so the comparison stays exact under the fault plan too.)
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
    protocol.assert_domain("proposal", proposals.iter().map(|&(_, p)| p));
    assert!(
        plan.max_panics <= supervisor.restart_budget,
        "chaos plan ({} panics) exceeds the restart budget ({})",
        plan.max_panics,
        supervisor.restart_budget
    );

    // One worker (so the plan's drain schedule is deterministic), the
    // plan's register faults under the engine, its panics/stalls inside
    // the service.
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
    let decisions = compare_with_direct(protocol, proposals, seed, &service)?;

    // Exactly-once reconciliation over the service's own ledger.
    let telemetry = Arc::clone(service.engine().telemetry_handle());
    drop(service); // join workers so every counter has settled
    let admitted = proposals.len() as u64;
    let ledger = [
        (CounterKey::ProposalsEnqueued, admitted),
        (CounterKey::Decisions, admitted),
    ];
    reconcile(&telemetry, &ledger).map_err(|detail| Divergence::Chaos { detail })?;
    let depth = telemetry.gauge(GaugeKey::QueueDepth);
    if depth != 0 {
        return Err(Divergence::Chaos {
            detail: format!("queue depth {depth} after full drain"),
        });
    }
    let restarts = telemetry.count(CounterKey::WorkerRestarts);
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
/// (10 s), panicking with the store's `Debug` view when none arrives — so a
/// stalled store fails the check that drove it instead of hanging the suite.
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
///   writes, `Cas` outcomes (its expected value drawn from the current
///   value, absent, or another value, so swaps both apply and fail),
///   previous values on `Put`/`Delete`.
/// * **Duplicate delivery.** A seeded subset of commands is re-delivered
///   (several extra copies under the same sequence number, the client
///   retry path). Every copy must return the originally-cached response,
///   and none may re-apply: the exactly-once ledger
///   (`commands_applied` = distinct commands, `duplicates_served` =
///   extra copies) must reconcile, and stale re-delivery of the
///   *previous* sequence number must be refused as
///   [`StoreError::Stale`].
/// * **Final state.** The store's machine (read through a fast read)
///   must equal the sequential machine, key for key.
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
            let value = rng.random_range(0u64..1_000);
            let command = match rng.random_range(0u32..4) {
                0 => KvCommand::Get { key },
                1 => KvCommand::Put { key, value },
                2 => KvCommand::Cas {
                    key,
                    expect: match rng.random_range(0u32..3) {
                        0 => reference.get(key),
                        1 => None,
                        _ => Some(rng.random_range(0u64..1_000)),
                    },
                    value,
                },
                _ => KvCommand::Delete { key },
            };
            let expected = reference.apply(&command);
            distinct += 1;
            // Every answer below has one right value; the first wrong one
            // is the divergence.
            let answer = |what: &str, seq: u64, want: Result<KvResponse, StoreError>| {
                let got = settle(&store, &store.submit(client, seq, command));
                if got == want {
                    return Ok(());
                }
                Err(Divergence::Store {
                    detail: format!(
                        "client {client} round {round} {what} ({command:?}): store \
                         answered {got:?}, expected {want:?}"
                    ),
                })
            };
            answer("command", round + 1, Ok(expected))?;
            // Duplicate-delivery leg: re-deliver this command a few more
            // times under the same sequence number; every copy must be
            // served from the session cache with the original response.
            if rng.random_bool(0.25) {
                for copy in 0..rng.random_range(1u32..4) {
                    duplicates += 1;
                    answer(&format!("duplicate copy {copy}"), round + 1, Ok(expected))?;
                }
            }
            // Stale leg: a copy of the *previous* command must be refused
            // (its cached response is already overwritten).
            if round > 0 && rng.random_bool(0.1) {
                stale_probes += 1;
                let stale = Err(StoreError::Stale {
                    last_seq: round + 1,
                });
                answer("stale re-delivery", round, stale)?;
            }
        }
    }

    let ledger = [
        (CounterKey::CommandsApplied, distinct),
        (CounterKey::DuplicatesServed, duplicates),
        (CounterKey::StaleCommands, stale_probes),
        (CounterKey::SessionsCreated, clients),
    ];
    reconcile(store.telemetry(), &ledger).map_err(|detail| Divergence::Store { detail })?;

    // Final state, observed through the fast-read path.
    let store_len = store.read_with(|kv| (kv != &reference).then(|| kv.len()));
    if let Some(store_len) = store_len {
        return Err(Divergence::Store {
            detail: format!(
                "final state diverged: store {store_len} pairs, sequential {} pairs",
                reference.len()
            ),
        });
    }
    store.shutdown();
    Ok(distinct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_sim::adversary::{ImpatienceExploiter, RandomScheduler, RoundRobin, SplitKeeper};
    use mc_sim::sched::PctScheduler;

    type MakeAdversary = dyn Fn() -> Box<dyn Adversary + Send>;
    type Check = fn(Protocol, &[u64], &MakeAdversary, u64, u64) -> Result<Conformance, Divergence>;

    const BINARY: Protocol = Protocol::Binary;
    const MULTI: Protocol = Protocol::Multivalued(5);
    const COIN: Protocol = Protocol::Coin { quorum_factor: 1 };

    fn adversary_menu(seed: u64) -> Vec<Box<MakeAdversary>> {
        vec![
            Box::new(move || Box::new(RandomScheduler::new(seed))),
            Box::new(move || Box::new(PctScheduler::new(3, 500, seed))),
            Box::new(|| Box::new(RoundRobin::new())),
            Box::new(move || Box::new(SplitKeeper::new(seed))),
            Box::new(|| Box::new(ImpatienceExploiter::new())),
        ]
    }

    /// Runs `check` over `seeds` × the adversary menu, panicking at the
    /// first divergence, and returns the decisions of every run that
    /// completed (each checked for agreement).
    fn sweep(
        check: Check,
        protocol: Protocol,
        inputs: &[u64],
        seeds: std::ops::Range<u64>,
        max_steps: u64,
    ) -> Vec<Vec<u64>> {
        let mut agreed = Vec::new();
        for seed in seeds {
            for make in adversary_menu(seed) {
                match check(protocol, inputs, &make, seed, max_steps) {
                    Ok(Conformance::Agreed { decisions, .. }) => {
                        assert!(
                            decisions.iter().all(|&d| d == decisions[0]),
                            "{protocol} seed {seed}: {decisions:?}"
                        );
                        agreed.push(decisions);
                    }
                    Ok(Conformance::BothStepLimited) => {}
                    Err(d) => panic!("{protocol} seed {seed}: {d}"),
                }
            }
        }
        agreed
    }

    #[test]
    fn binary_consensus_conforms_across_seeds_and_adversaries() {
        sweep(check_conformance, BINARY, &[0, 1, 1], 0..20, 100_000);
    }

    #[test]
    fn multivalued_consensus_conforms() {
        sweep(check_conformance, MULTI, &[4, 0, 2], 0..10, 100_000);
    }

    #[test]
    fn coin_consensus_conforms_across_seeds_and_adversaries() {
        sweep(check_conformance, COIN, &[0, 1, 1], 0..8, 200_000);
    }

    #[test]
    fn coin_consensus_unanimous_inputs_conform_on_the_fast_path() {
        // All 5 × 5 runs complete and decide the common input.
        let agreed = sweep(check_conformance, COIN, &[1, 1, 1], 0..5, 200_000);
        assert_eq!(agreed, vec![vec![1, 1, 1]; 25]);
    }

    #[test]
    fn recycled_coin_object_is_identical_to_fresh() {
        sweep(check_recycled_conformance, COIN, &[0, 1, 1], 0..5, 200_000);
    }

    #[test]
    fn empty_fault_plan_is_conformance_identical_to_bare_memory() {
        let bare_then_layered: Check = |protocol, inputs, make, seed, max_steps| {
            let bare = check_conformance(protocol, inputs, make, seed, max_steps)?;
            let plan = FaultPlan::none();
            let layered =
                check_conformance_with_plan(protocol, inputs, make, seed, max_steps, plan)?;
            assert_eq!(bare, layered, "seed {seed}");
            Ok(layered)
        };
        sweep(bare_then_layered, BINARY, &[0, 1, 1], 0..10, 100_000);
    }

    #[test]
    fn empty_fault_plan_conforms_on_multivalued_too() {
        for seed in 0..5 {
            let make: Box<MakeAdversary> = Box::new(move || Box::new(SplitKeeper::new(seed)));
            let plan = FaultPlan::none();
            check_conformance_with_plan(MULTI, &[4, 0, 2], &make, seed, 100_000, plan)
                .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        }
    }

    #[test]
    fn recycled_binary_object_is_identical_to_fresh() {
        sweep(
            check_recycled_conformance,
            BINARY,
            &[0, 1, 1],
            0..20,
            100_000,
        );
    }

    #[test]
    fn recycled_multivalued_object_is_identical_to_fresh() {
        sweep(
            check_recycled_conformance,
            MULTI,
            &[4, 0, 2],
            0..10,
            100_000,
        );
    }

    #[test]
    fn twice_recycled_object_still_matches_fresh() {
        let seed = 17;
        let mut lab = Lab::new(3, Box::new(RandomScheduler::new(seed)), &[], 100_000);
        let mut consensus = Protocol::Binary.runtime_in(lab.memory(), 3);
        let mut runs = Vec::new();
        for _ in 0..3 {
            let report = lab.run(seed, |pid, rng| consensus.decide(pid as u64 % 2, rng));
            runs.push(Execution::from(report.unwrap()));
            consensus.reset();
            lab.reset_epoch(Box::new(RandomScheduler::new(seed)), &[]);
        }
        for epoch in 1..runs.len() {
            compare_executions(&runs[0], &runs[epoch])
                .unwrap_or_else(|d| panic!("epoch {epoch}: {d}"));
        }
    }

    #[test]
    fn comparator_reports_work_and_script_differences() {
        // No plan reaches these two variants (the trace differs first), so
        // the comparator is fed doctored copies of one real execution.
        let lab = Lab::new(3, Box::new(RoundRobin::new()), &[], 10_000);
        let consensus = Protocol::Binary.runtime_in(lab.memory(), 3);
        let reference = lab_leg(&lab, &consensus, &[0, 1, 1], 5).unwrap();
        assert_eq!(compare_executions(&reference, &reference), Ok(()));

        let mut metrics_only = reference.clone();
        metrics_only.metrics.registers_touched += 1;
        assert_eq!(
            compare_executions(&reference, &metrics_only),
            Err(Divergence::Metrics {
                reference: reference.metrics.clone(),
                subject: metrics_only.metrics.clone(),
            })
        );

        let mut path_only = reference.clone();
        let len = reference.path.as_ref().unwrap().len() - 1;
        path_only.path.as_mut().unwrap().truncate(len);
        assert_eq!(
            compare_executions(&reference, &path_only),
            Err(Divergence::Replay {
                detail: format!(
                    "schedule/coin script differs at event {len} (reference has {} events, \
                     subject {len})",
                    len + 1
                ),
            })
        );
        // A leg that records no script (the sim engine) is not compared on one.
        path_only.path = None;
        assert_eq!(compare_executions(&reference, &path_only), Ok(()));
    }

    #[test]
    fn fault_plans_make_the_execution_comparator_diverge() {
        // Negative controls: a fault plan perturbs the lab leg only, and on
        // these pinned seeds the sim engine's fault-free execution tells
        // the difference. A comparator that always agreed would pass every
        // positive test in this module; it fails these.
        let run = |seed: u64, plan: FaultPlan| {
            let make: Box<MakeAdversary> = Box::new(move || Box::new(RandomScheduler::new(seed)));
            check_conformance_with_plan(Protocol::Binary, &[0, 1, 1], &make, seed, 100_000, plan)
        };
        // The fault layer decides a fault after the lab grants the
        // operation, inside the thread's exclusive window even on its first
        // operation, so every plan replays as exactly as a fault-free run.
        // A decision taken before the grant would race on the first
        // operations, which all workers reach at once, and move a
        // stale-read run's first differing event from run to run. A stale
        // read here is a read invoked before the writer moved on and
        // granted after the write took effect.
        let lost = |seed| FaultPlan::seeded(seed).lost_prob_writes(0.5);
        let stale = |seed| FaultPlan::seeded(seed).stale_reads(0.3);
        // (seed, plan, the trace event it diverges at, or None for decisions)
        let cases = [
            (24, lost(24), None),
            (0, lost(0), Some(19)),
            (9, stale(9), None),
            (10, stale(10), Some(17)),
        ];
        for (seed, plan, trace_at) in cases {
            match (run(seed, plan), trace_at) {
                (Err(Divergence::Decisions { .. }), None) => {}
                (Err(Divergence::Trace { at, .. }), Some(expected)) if at == expected => {}
                (other, _) => panic!("seed {seed}: {other:?}"),
            }
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
            assert_eq!(decisions, own_proposals(&proposals), "seed {seed}");
        }
    }

    fn own_proposals(proposals: &[(u64, u64)]) -> Vec<u64> {
        proposals.iter().map(|&(_, proposal)| proposal).collect()
    }

    /// A supervisor with `restart_budget` restarts and sub-millisecond
    /// backoff, so a test's restarts cost little time.
    fn fast_supervisor(restart_budget: u32) -> SupervisorOptions {
        SupervisorOptions {
            restart_budget,
            base_backoff: std::time::Duration::from_micros(50),
            max_backoff: std::time::Duration::from_millis(1),
        }
    }

    #[test]
    fn chaos_conformance_survives_panics_within_budget() {
        // Panic at every drain, up to 3 times: the supervisor re-admits
        // the stash each time and the fourth incarnation decides — still
        // exactly the direct leg's decisions.
        let (six, supervisor) = (Protocol::Multivalued(6), fast_supervisor(4));
        for seed in 0..5 {
            let proposals: Vec<(u64, u64)> =
                (0..48u64).map(|i| (i % 5, (i * 13 + seed) % 6)).collect();
            let plan = ChaosPlan::seeded(seed).panic_every(1, 3);
            let decisions = check_chaos_conformance(six, &proposals, plan, supervisor, seed)
                .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            assert_eq!(decisions, own_proposals(&proposals), "seed {seed}");
        }
    }

    #[test]
    fn chaos_conformance_with_stalls_and_register_faults() {
        // Stalls plus the PR 3 fault layer (lost probabilistic writes and
        // stale reads): decisions cost retries but never change.
        let supervisor = fast_supervisor(3);
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
        let (plan, supervisor) = (ChaosPlan::none(), SupervisorOptions::default());
        let chaos = check_chaos_conformance(Protocol::Binary, &proposals, plan, supervisor, 9)
            .unwrap_or_else(|d| panic!("{d}"));
        let plain = check_service_conformance(Protocol::Binary, &proposals, 9)
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(chaos, plain);
    }

    #[test]
    #[should_panic(expected = "exceeds the restart budget")]
    fn chaos_plan_beyond_the_budget_is_refused_up_front() {
        let plan = ChaosPlan::seeded(1).panic_every(1, 9);
        let _ = check_chaos_conformance(BINARY, &[(0, 1)], plan, SupervisorOptions::default(), 1);
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
        let make: Box<MakeAdversary> = Box::new(|| Box::new(RoundRobin::new()));
        let outcome = check_conformance(Protocol::Binary, &[1], &make, 0, 1_000).unwrap();
        assert!(matches!(
            outcome,
            Conformance::Agreed { ref decisions, .. } if decisions == &[1]
        ));
    }
}
