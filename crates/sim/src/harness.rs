//! One-call execution and multi-trial statistics.

use mc_model::{Decision, ObjectSpec, Value};

use crate::adversary::Adversary;
use crate::engine::{Engine, EngineConfig, RunError};
use crate::metrics::WorkMetrics;
use crate::trace::Trace;

/// The outputs and accounting of one completed run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Per-process outputs, indexed by pid.
    pub outputs: Vec<Decision>,
    /// Operation counts.
    pub metrics: WorkMetrics,
    /// The execution trace, if recording was enabled.
    pub trace: Option<Trace>,
}

impl RunOutcome {
    /// The output values, stripped of decision bits.
    pub fn values(&self) -> Vec<Value> {
        self.outputs.iter().map(|d| d.value()).collect()
    }

    /// True if all processes returned the same value.
    pub fn agreed(&self) -> bool {
        mc_model::properties::check_agreement(&self.outputs).is_ok()
    }
}

/// Instantiates `spec` for `inputs.len()` processes and runs it to
/// completion under `adversary`.
///
/// # Errors
///
/// Propagates [`RunError`] from the engine (step-limit, misbehaving
/// adversary, or model violations).
///
/// # Example
///
/// ```
/// use mc_sim::{adversary::RandomScheduler, harness::run_object, EngineConfig};
/// use mc_sim::testutil::WriteThenReadSpec;
///
/// let outcome = run_object(
///     &WriteThenReadSpec,
///     &[1, 2, 3, 4],
///     &mut RandomScheduler::new(99),
///     7,
///     &EngineConfig::default(),
/// )
/// .unwrap();
/// assert_eq!(outcome.metrics.total_work(), 8); // 2 ops per process
/// ```
pub fn run_object(
    spec: &dyn ObjectSpec,
    inputs: &[Value],
    adversary: &mut dyn Adversary,
    seed: u64,
    config: &EngineConfig,
) -> Result<RunOutcome, RunError> {
    Engine::new(spec, inputs, adversary, seed, config.clone()).run()
}

/// The outcome of a run with crash failures: survivors' outputs plus
/// accounting.
#[derive(Debug)]
pub struct CrashRunOutcome {
    /// Per-process outputs: `None` for processes that crashed before
    /// halting (a doomed process that finished before its crash step still
    /// has an output).
    pub decisions: Vec<Option<Decision>>,
    /// The process ids scheduled to crash, sorted.
    pub crashed: Vec<mc_model::ProcessId>,
    /// Operation counts (crashed processes' pre-crash work included).
    pub metrics: WorkMetrics,
    /// The execution trace, if recording was enabled.
    pub trace: Option<Trace>,
}

impl CrashRunOutcome {
    /// The survivors' outputs, in pid order.
    pub fn survivor_outputs(&self) -> Vec<Decision> {
        self.decisions.iter().copied().flatten().collect()
    }
}

/// Runs `spec` while crashing the given processes at the given global
/// steps: a crashed process is never scheduled again, and the run stops
/// once every *surviving* process has halted.
///
/// This is how the model expresses crash failures (§1: randomized consensus
/// "can even tolerate up to n − 1 crash failures"); wait-freedom means the
/// survivors' outputs exist and must satisfy the object's properties among
/// themselves.
///
/// # Errors
///
/// Propagates [`RunError`] from the engine.
///
/// # Panics
///
/// Panics if a crash names a process outside `0..inputs.len()`.
pub fn run_with_crashes(
    spec: &dyn ObjectSpec,
    inputs: &[Value],
    adversary: impl Adversary,
    crashes: &[(mc_model::ProcessId, u64)],
    seed: u64,
    config: &EngineConfig,
) -> Result<CrashRunOutcome, RunError> {
    for (pid, _) in crashes {
        assert!(
            pid.index() < inputs.len(),
            "crash names unknown process {pid}"
        );
    }
    let mut wrapped = crate::adversary::CrashingAdversary::new(adversary, crashes.iter().copied());
    let doomed = wrapped.doomed();
    let engine = Engine::new(spec, inputs, &mut wrapped, seed, config.clone());
    // Survivors are done once every process still in the view is doomed.
    let output =
        engine.run_until(|engine| engine.live().all(|pid| doomed.binary_search(&pid).is_ok()))?;
    Ok(CrashRunOutcome {
        decisions: output.decisions,
        crashed: doomed,
        metrics: output.metrics,
        trace: output.trace,
    })
}

/// Aggregate statistics over repeated independent runs.
#[derive(Debug, Clone, Default)]
pub struct TrialStats {
    /// Number of completed trials.
    pub trials: usize,
    /// Trials in which all outputs agreed on one value.
    pub agreements: usize,
    /// Trials in which every process had decision bit 1.
    pub all_decided: usize,
    /// Total work of each trial.
    pub total_work: Vec<u64>,
    /// Individual work of each trial.
    pub individual_work: Vec<u64>,
    /// Registers allocated in each trial.
    pub registers: Vec<u64>,
}

impl TrialStats {
    /// Fraction of trials that reached agreement.
    pub fn agreement_rate(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.agreements as f64 / self.trials as f64
    }

    /// Mean total work per trial.
    pub fn mean_total_work(&self) -> f64 {
        mean(&self.total_work)
    }

    /// Mean individual work per trial.
    pub fn mean_individual_work(&self) -> f64 {
        mean(&self.individual_work)
    }

    /// Worst individual work seen in any trial.
    pub fn max_individual_work(&self) -> u64 {
        self.individual_work.iter().copied().max().unwrap_or(0)
    }
}

fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64
}

/// Runs `trials` independent executions, deriving per-trial seeds from
/// `base_seed`, with a fresh adversary per trial.
///
/// `inputs_fn(trial)` supplies the input vector for each trial and
/// `adversary_fn(trial_seed)` builds the adversary (so stateful attackers
/// start fresh).
///
/// # Errors
///
/// Stops at the first trial that fails with a [`RunError`].
///
/// # Example
///
/// ```
/// use mc_sim::{adversary::RandomScheduler, harness, EngineConfig};
/// use mc_sim::testutil::WriteThenReadSpec;
///
/// let stats = harness::run_trials(
///     &WriteThenReadSpec,
///     50,
///     7,
///     &EngineConfig::default(),
///     |_| harness::inputs::alternating(4, 2),
///     |seed| Box::new(RandomScheduler::new(seed)),
/// )
/// .unwrap();
/// assert_eq!(stats.trials, 50);
/// assert_eq!(stats.mean_total_work(), 8.0); // 2 ops × 4 processes
/// ```
pub fn run_trials(
    spec: &dyn ObjectSpec,
    trials: usize,
    base_seed: u64,
    config: &EngineConfig,
    mut inputs_fn: impl FnMut(usize) -> Vec<Value>,
    mut adversary_fn: impl FnMut(u64) -> Box<dyn Adversary>,
) -> Result<TrialStats, RunError> {
    let mut stats = TrialStats::default();
    for trial in 0..trials {
        let seed = base_seed.wrapping_add((trial as u64).wrapping_mul(0x9E37_79B9));
        let inputs = inputs_fn(trial);
        let mut adversary = adversary_fn(seed);
        let outcome = run_object(spec, &inputs, adversary.as_mut(), seed, config)?;
        stats.trials += 1;
        if outcome.agreed() {
            stats.agreements += 1;
        }
        if outcome.outputs.iter().all(|d| d.is_decided()) {
            stats.all_decided += 1;
        }
        stats.total_work.push(outcome.metrics.total_work());
        stats
            .individual_work
            .push(outcome.metrics.individual_work());
        stats.registers.push(outcome.metrics.registers_allocated);
    }
    Ok(stats)
}

/// Standard input-vector generators for experiments.
pub mod inputs {
    use mc_model::Value;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    /// All `n` processes propose the same value.
    pub fn unanimous(n: usize, v: Value) -> Vec<Value> {
        vec![v; n]
    }

    /// Process `i` proposes `i mod m` — the maximally split input vector.
    pub fn alternating(n: usize, m: Value) -> Vec<Value> {
        (0..n).map(|i| i as Value % m.max(1)).collect()
    }

    /// Uniformly random proposals from `0..m`.
    pub fn random(n: usize, m: Value, seed: u64) -> Vec<Value> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random_range(0..m.max(1))).collect()
    }

    /// One process proposes `1`, everyone else proposes `0` — the lone
    /// dissenter workload.
    pub fn dissenter(n: usize) -> Vec<Value> {
        let mut v = vec![0; n];
        if let Some(last) = v.last_mut() {
            *last = 1;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{RandomScheduler, RoundRobin};
    use crate::testutil::WriteThenReadSpec;

    #[test]
    fn run_object_reports_work() {
        let outcome = run_object(
            &WriteThenReadSpec,
            &[1, 2],
            &mut RoundRobin::new(),
            0,
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.metrics.total_work(), 4);
        assert_eq!(outcome.values().len(), 2);
    }

    #[test]
    fn trials_accumulate() {
        let stats = run_trials(
            &WriteThenReadSpec,
            20,
            99,
            &EngineConfig::default(),
            |_| inputs::alternating(4, 2),
            |seed| Box::new(RandomScheduler::new(seed)),
        )
        .unwrap();
        assert_eq!(stats.trials, 20);
        assert_eq!(stats.mean_total_work(), 8.0);
        assert_eq!(stats.max_individual_work(), 2);
        // write-then-read never decides.
        assert_eq!(stats.all_decided, 0);
    }

    #[test]
    fn input_generators() {
        assert_eq!(inputs::unanimous(3, 9), vec![9, 9, 9]);
        assert_eq!(inputs::alternating(5, 2), vec![0, 1, 0, 1, 0]);
        assert_eq!(inputs::dissenter(4), vec![0, 0, 0, 1]);
        let r = inputs::random(8, 3, 5);
        assert_eq!(r.len(), 8);
        assert!(r.iter().all(|&v| v < 3));
        assert_eq!(r, inputs::random(8, 3, 5));
    }

    #[test]
    fn agreement_rate_of_empty_stats_is_zero() {
        assert_eq!(TrialStats::default().agreement_rate(), 0.0);
    }
}
