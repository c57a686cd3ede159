//! First-mover conciliators in the probabilistic-write model (§5.2).

use std::sync::Arc;

use mc_model::{
    Action, Ctx, DecidingObject, Decision, InstantiateCtx, ObjectSpec, Op, ProcessId, RegisterId,
    Response, Session, StateSink, SymmetrySpec, Value,
};

use super::schedule::WriteSchedule;

/// The probabilistic-write conciliator of §5.2: a single multiwriter
/// register, written probabilistically by processes that have not yet
/// observed a value in it.
///
/// ```text
/// shared data: register r, initially ⊥
/// k ← 0
/// while r = ⊥ do
///     write v to r with probability schedule(k)      // 2^k/n impatient
///     k ← k + 1
/// end
/// return (0, r)
/// ```
///
/// With the impatient schedule this is *Procedure
/// ImpatientFirstMoverConciliator* and Theorem 7 applies: termination in
/// expected `6n` total work and at most `2⌈lg n⌉ + O(1)` individual work;
/// validity; coherence (vacuous); and agreement with probability at least
/// `(1 − e^{−1/4})(1/4) ≈ 0.0553` against any location-oblivious adversary.
///
/// With the fixed schedule `c/n` it is the classic Chor–Israeli–Li-style
/// conciliator: same agreement guarantee, but `Θ(n)` individual work.
///
/// The conciliator supports any number of distinct input values — nothing in
/// the race depends on `m`.
///
/// # Example
///
/// ```
/// use mc_core::FirstMoverConciliator;
/// use mc_sim::{adversary::RandomScheduler, harness, EngineConfig};
///
/// let outcome = harness::run_object(
///     &FirstMoverConciliator::impatient(),
///     &[3, 7, 7, 3],
///     &mut RandomScheduler::new(5),
///     11,
///     &EngineConfig::default(),
/// )
/// .unwrap();
/// // Validity: everyone returns some process's input.
/// assert!(outcome.values().iter().all(|v| [3, 7].contains(v)));
/// // Theorem 7's hard bound on individual work.
/// assert!(outcome.metrics.individual_work() <= 2 * 2 + 4);
/// ```
#[derive(Debug, Clone)]
pub struct FirstMoverConciliator {
    schedule: WriteSchedule,
    detect_success: bool,
}

impl FirstMoverConciliator {
    /// The paper's conciliator: impatient doubling schedule `2^k/n`
    /// (Theorem 7).
    pub fn impatient() -> FirstMoverConciliator {
        FirstMoverConciliator {
            schedule: WriteSchedule::impatient(),
            detect_success: false,
        }
    }

    /// The baseline conciliator with fixed write probability `c/n`
    /// (Chor–Israeli–Li, Cheung).
    pub fn fixed(c: f64) -> FirstMoverConciliator {
        FirstMoverConciliator {
            schedule: WriteSchedule::fixed(c),
            detect_success: false,
        }
    }

    /// A conciliator with an arbitrary schedule (ablation experiments).
    pub fn with_schedule(schedule: WriteSchedule) -> FirstMoverConciliator {
        FirstMoverConciliator {
            schedule,
            detect_success: false,
        }
    }

    /// Enables the footnote-2 optimization: if the engine lets processes
    /// detect a successful probabilistic write, return immediately after
    /// one, saving 2 operations of individual work.
    ///
    /// Harmless when the engine does not expose detection — the session
    /// simply follows the standard path.
    pub fn detecting_success(mut self) -> FirstMoverConciliator {
        self.detect_success = true;
        self
    }

    /// Worst-case individual work for `n` processes, or `None` for
    /// non-escalating schedules (whose worst case is unbounded, though
    /// expectation is finite).
    ///
    /// For the impatient schedule this is the paper's `2⌈lg n⌉ + 4`: one
    /// read + one write per loop iteration, with at most
    /// `saturation_point + 1` probabilistic writes followed by a final read.
    pub fn individual_work_bound(&self, n: usize) -> Option<u64> {
        self.schedule
            .saturation_point(n)
            .map(|k| 2 * (u64::from(k) + 1) + 2)
    }

    /// One process's run of this conciliator on register `reg`, among `n`
    /// processes: the session an instance's [`DecidingObject::session`]
    /// boxes, built in place, with no allocation.
    pub fn session_at(&self, reg: RegisterId, n: usize) -> impl Session {
        self.session_on(reg, n)
    }

    /// [`session_at`](Self::session_at) under its concrete type, which a
    /// chain holds inline.
    fn session_on(&self, reg: RegisterId, n: usize) -> FirstMoverSession {
        FirstMoverSession {
            reg,
            n,
            schedule: self.schedule,
            detect_success: self.detect_success,
            input: 0,
            k: 0,
            state: State::AwaitingRead,
        }
    }
}

pub(crate) struct FirstMoverObject {
    spec: FirstMoverConciliator,
    reg: RegisterId,
    n: usize,
}

impl FirstMoverObject {
    /// One process's session of this instance (sessions ignore the pid):
    /// what [`DecidingObject::session`] boxes and a chain holds inline.
    pub(crate) fn stage_session(&self) -> FirstMoverSession {
        self.spec.session_on(self.reg, self.n)
    }
}

impl DecidingObject for FirstMoverObject {
    fn session(&self, _pid: ProcessId) -> Box<dyn Session + Send> {
        Box::new(self.stage_session())
    }

    fn symmetry(&self) -> SymmetrySpec {
        // Sessions ignore the pid entirely and treat values opaquely: the
        // single shared register holds whatever value wins the race.
        SymmetrySpec {
            pid_oblivious: true,
            value_symmetric: true,
            value_registers: vec![(self.reg, 1)],
            ..SymmetrySpec::default()
        }
    }
}

enum State {
    AwaitingRead,
    AwaitingWrite,
}

pub(crate) struct FirstMoverSession {
    reg: RegisterId,
    n: usize,
    schedule: WriteSchedule,
    detect_success: bool,
    input: Value,
    k: u32,
    state: State,
}

impl Session for FirstMoverSession {
    #[inline]
    fn begin(&mut self, input: Value, _ctx: &mut Ctx<'_>) -> Action {
        self.input = input;
        self.state = State::AwaitingRead;
        Action::Invoke(Op::Read(self.reg))
    }

    #[inline]
    fn poll(&mut self, response: Response, _ctx: &mut Ctx<'_>) -> Action {
        match self.state {
            State::AwaitingRead => {
                match response.expect_read() {
                    // Someone has written: adopt the register's value.
                    Some(v) => Action::Halt(Decision::continue_with(v)),
                    None => {
                        let prob = self.schedule.probability(self.k, self.n);
                        self.k += 1;
                        self.state = State::AwaitingWrite;
                        Action::Invoke(Op::ProbWrite {
                            reg: self.reg,
                            value: self.input,
                            prob,
                        })
                    }
                }
            }
            State::AwaitingWrite => {
                if self.detect_success {
                    if let Response::ProbWrite {
                        performed: Some(true),
                    } = response
                    {
                        // Footnote 2: our own write succeeded; the next read
                        // could only observe a value, so skip it. Returning
                        // our own input preserves validity and coherence.
                        return Action::Halt(Decision::continue_with(self.input));
                    }
                }
                self.state = State::AwaitingRead;
                Action::Invoke(Op::Read(self.reg))
            }
        }
    }

    fn snapshot(&self, sink: &mut StateSink) {
        sink.push_raw(match self.state {
            State::AwaitingRead => 0,
            State::AwaitingWrite => 1,
        });
        sink.push_raw(u64::from(self.k));
        sink.push_value(self.input);
    }
}

impl ObjectSpec for FirstMoverConciliator {
    fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        Arc::new(FirstMoverObject {
            spec: self.clone(),
            reg: ctx.alloc.alloc_block(1),
            n: ctx.n,
        })
    }

    fn name(&self) -> String {
        format!("first-mover({})", self.schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_model::properties;
    use mc_sim::adversary::{ImpatienceExploiter, RandomScheduler, RoundRobin};
    use mc_sim::harness::{self, inputs};
    use mc_sim::EngineConfig;

    /// Theorem 7's agreement probability lower bound.
    const DELTA: f64 = 0.0552;

    #[test]
    fn spec_reports_paper_bounds() {
        let c = FirstMoverConciliator::impatient();
        // 2⌈lg n⌉ + 4 for n a power of two.
        assert_eq!(c.individual_work_bound(16), Some(2 * 4 + 4));
        assert_eq!(c.individual_work_bound(1), Some(4));
        assert_eq!(
            FirstMoverConciliator::fixed(1.0).individual_work_bound(8),
            None
        );
        assert_eq!(c.name(), "first-mover(2^k/n)");
    }

    #[test]
    fn validity_and_coherence_hold() {
        for seed in 0..50 {
            let ins = inputs::alternating(6, 3);
            let out = harness::run_object(
                &FirstMoverConciliator::impatient(),
                &ins,
                &mut RandomScheduler::new(seed),
                seed,
                &EngineConfig::default(),
            )
            .unwrap();
            properties::check_weak_consensus(&ins, &out.outputs).unwrap();
            // Conciliators never decide.
            assert!(out.outputs.iter().all(|d| !d.is_decided()));
        }
    }

    #[test]
    fn unanimous_inputs_always_agree() {
        for seed in 0..20 {
            let ins = inputs::unanimous(8, 4);
            let out = harness::run_object(
                &FirstMoverConciliator::impatient(),
                &ins,
                &mut RoundRobin::new(),
                seed,
                &EngineConfig::default(),
            )
            .unwrap();
            assert!(out.agreed());
            assert_eq!(out.values()[0], 4);
        }
    }

    #[test]
    fn individual_work_respects_theorem_7() {
        let n = 32;
        let bound = FirstMoverConciliator::impatient()
            .individual_work_bound(n)
            .unwrap();
        for seed in 0..100 {
            let out = harness::run_object(
                &FirstMoverConciliator::impatient(),
                &inputs::alternating(n, 2),
                &mut RandomScheduler::new(seed),
                seed,
                &EngineConfig::default(),
            )
            .unwrap();
            assert!(
                out.metrics.individual_work() <= bound,
                "seed {seed}: {} > {bound}",
                out.metrics.individual_work()
            );
        }
    }

    #[test]
    fn agreement_probability_exceeds_delta_under_attack() {
        let spec = FirstMoverConciliator::impatient();
        let stats = harness::run_trials(
            &spec,
            600,
            2024,
            &EngineConfig::default(),
            |_| inputs::alternating(16, 2),
            |_| Box::new(ImpatienceExploiter::new()),
        )
        .unwrap();
        assert!(
            stats.agreement_rate() >= DELTA,
            "agreement rate {} below Theorem 7's δ",
            stats.agreement_rate()
        );
    }

    #[test]
    fn total_work_is_linear_in_expectation() {
        let n = 32;
        let stats = harness::run_trials(
            &FirstMoverConciliator::impatient(),
            200,
            7,
            &EngineConfig::default(),
            |_| inputs::alternating(n, 2),
            |seed| Box::new(RandomScheduler::new(seed)),
        )
        .unwrap();
        // Theorem 7: expected total work at most 6n.
        assert!(
            stats.mean_total_work() <= 6.0 * n as f64,
            "mean total work {} exceeds 6n",
            stats.mean_total_work()
        );
    }

    #[test]
    fn detection_variant_saves_work() {
        let n = 16;
        let config = EngineConfig::default().with_detectable_prob_writes();
        let base = harness::run_trials(
            &FirstMoverConciliator::impatient(),
            300,
            5,
            &config,
            |_| inputs::unanimous(n, 1),
            |seed| Box::new(RandomScheduler::new(seed)),
        )
        .unwrap();
        let detecting = harness::run_trials(
            &FirstMoverConciliator::impatient().detecting_success(),
            300,
            5,
            &config,
            |_| inputs::unanimous(n, 1),
            |seed| Box::new(RandomScheduler::new(seed)),
        )
        .unwrap();
        assert!(
            detecting.mean_total_work() < base.mean_total_work(),
            "detection should reduce work: {} vs {}",
            detecting.mean_total_work(),
            base.mean_total_work()
        );
        // And it must not cost correctness.
        properties::check_weak_consensus(&inputs::unanimous(n, 1), &[]).unwrap();
    }

    #[test]
    fn fixed_schedule_has_linear_individual_work() {
        // The baseline's Θ(n) individual work shows when a process runs
        // alone (a priority scheduler lets the leader race solo): it needs
        // expected n probabilistic writes before one lands. The impatient
        // schedule saturates after ⌈lg n⌉ + 1 attempts.
        let n = 64;
        let run = |spec: &FirstMoverConciliator| {
            harness::run_trials(
                spec,
                60,
                3,
                &EngineConfig::default(),
                |_| inputs::alternating(n, 2),
                |_| Box::new(mc_sim::sched::PriorityScheduler::descending(n)),
            )
            .unwrap()
            .mean_individual_work()
        };
        let fixed = run(&FirstMoverConciliator::fixed(1.0));
        let impatient = run(&FirstMoverConciliator::impatient());
        assert!(
            fixed > 3.0 * impatient,
            "fixed {fixed} should dwarf impatient {impatient}"
        );
    }

    #[test]
    fn uses_exactly_one_register() {
        let out = harness::run_object(
            &FirstMoverConciliator::impatient(),
            &inputs::alternating(8, 2),
            &mut RoundRobin::new(),
            0,
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(out.metrics.registers_allocated, 1);
    }
}
