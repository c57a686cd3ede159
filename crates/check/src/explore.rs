//! Exhaustive exploration of the execution tree.

use std::error::Error;
use std::fmt;

use mc_model::{properties, Decision, ObjectSpec, PropertyViolation, Value};

use crate::replay::{run_path, CoinPolicy, Need, PathEvent};

/// Exploration limits and policies.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Maximum operations per execution; longer paths count as truncated.
    pub max_steps: usize,
    /// Abort with [`CheckError::PathBudgetExhausted`] after this many
    /// complete paths (a runaway-state-space guard).
    pub max_paths: usize,
    /// Session-local randomness policy.
    pub coin_policy: CoinPolicy,
    /// Also check acceptance (unanimous inputs ⇒ everyone decides them) —
    /// the defining *ratifier* property. Off by default because
    /// conciliators legitimately never decide.
    pub check_acceptance: bool,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            max_steps: 64,
            max_paths: 5_000_000,
            coin_policy: CoinPolicy::Forbid,
            check_acceptance: false,
        }
    }
}

/// Why exploration could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// A session drew local randomness under [`CoinPolicy::Forbid`].
    LocalCoinUsed,
    /// The exploration budget tripped: more than `limit` paths (path
    /// engine) or distinct states (graph engine); raise the limit or
    /// shrink the system.
    PathBudgetExhausted {
        /// The configured limit (paths for the path engine, states for the
        /// graph engine).
        limit: usize,
        /// Work done at abort: leaves visited (path engine) or distinct
        /// states visited (graph engine).
        visited: usize,
        /// Depth of the frontier at abort: current path length (path
        /// engine) or BFS depth (graph engine), in events.
        frontier_depth: usize,
    },
    /// A session of this object does not implement
    /// [`Session::snapshot`](mc_model::Session::snapshot), so the graph
    /// engine cannot deduplicate its configurations; use the path engine.
    SnapshotUnsupported {
        /// The object's name.
        object: String,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::LocalCoinUsed => write!(
                f,
                "protocol uses session-local coins; exhaustive checking needs \
                 CoinPolicy::Fixed or a coin-free protocol"
            ),
            CheckError::PathBudgetExhausted {
                limit,
                visited,
                frontier_depth,
            } => {
                write!(
                    f,
                    "exploration exceeded its budget of {limit} \
                     ({visited} visited, frontier depth {frontier_depth} at abort)"
                )
            }
            CheckError::SnapshotUnsupported { object } => {
                write!(
                    f,
                    "object '{object}' does not support state snapshots; \
                     the graph engine needs Session::snapshot"
                )
            }
        }
    }
}

impl Error for CheckError {}

/// Outcome of a safety exploration.
#[derive(Debug, Clone, Default)]
pub struct SafetyReport {
    /// Complete executions explored.
    pub complete_paths: usize,
    /// Executions cut off by the step bound.
    pub truncated_paths: usize,
    /// The first violation found on any complete execution, with the path
    /// that produces it.
    pub violation: Option<(Vec<PathEvent>, PropertyViolation)>,
    /// The largest number of operations any single process performed on any
    /// complete execution — the checker-certified individual work bound
    /// (compare Theorem 10's "at most 4 operations" for the binary
    /// ratifier).
    pub max_individual_ops: u64,
}

impl SafetyReport {
    /// True if no violation was found and nothing was truncated — the
    /// properties hold on *every* execution within the bound.
    pub fn is_exhaustive_pass(&self) -> bool {
        self.violation.is_none() && self.truncated_paths == 0
    }

    /// This report's engine-independent verdict, for cross-validating the
    /// path and graph engines.
    pub fn verdict(&self) -> Verdict {
        Verdict {
            exhaustive: self.is_exhaustive_pass(),
            violation: self.violation.as_ref().map(|(_, v)| v.kind()),
            max_individual_ops: if self.violation.is_none() {
                Some(self.max_individual_ops)
            } else {
                None
            },
        }
    }
}

/// The engine-independent outcome of a safety check, used to cross-validate
/// the path-based [`Explorer`] against the graph-based
/// [`GraphExplorer`](crate::GraphExplorer).
///
/// Both engines stop at the first violation they find, and may find
/// different witnesses of the same broken property; the verdict therefore
/// carries the violated property's *kind* rather than its witness, and the
/// certified work bound only when exploration ran to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Every execution within the step bound was covered (no truncation)
    /// and no violation was found.
    pub exhaustive: bool,
    /// The kind of the violated property, if any
    /// ([`PropertyViolation::kind`]).
    pub violation: Option<&'static str>,
    /// The certified per-process worst-case operation count, present only
    /// when no violation cut exploration short.
    pub max_individual_ops: Option<u64>,
}

/// The worst-case agreement value of a conciliator-like object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgreementValue {
    /// The game value: minimum over adversary strategies of the probability
    /// that all outputs agree. Exact when `truncated == 0`, otherwise a
    /// sound lower bound (truncated subtrees score 0).
    pub probability: f64,
    /// Complete executions explored.
    pub complete_paths: usize,
    /// Executions cut off by the step bound (each contributing 0).
    pub truncated: usize,
}

/// Exhaustively explores all executions of one deciding object on fixed
/// inputs. See the crate docs for the branching model and soundness notes.
pub struct Explorer<S> {
    spec: S,
    inputs: Vec<Value>,
    config: CheckConfig,
}

impl<S: ObjectSpec> Explorer<S> {
    /// Creates an explorer with default limits.
    pub fn new(spec: S, inputs: Vec<Value>) -> Explorer<S> {
        Explorer {
            spec,
            inputs,
            config: CheckConfig::default(),
        }
    }

    /// Replaces the exploration config.
    pub fn with_config(mut self, config: CheckConfig) -> Explorer<S> {
        self.config = config;
        self
    }

    /// Checks validity and coherence on every complete execution — plus
    /// acceptance if [`CheckConfig::check_acceptance`] is set.
    ///
    /// Stops at the first violation (recorded with its witness path).
    ///
    /// # Errors
    ///
    /// [`CheckError`] if the protocol draws local coins under
    /// [`CoinPolicy::Forbid`] or the path budget is exhausted.
    pub fn verify_safety(&self) -> Result<SafetyReport, CheckError> {
        let mut report = SafetyReport::default();
        let mut path = Vec::new();
        self.dfs_safety(&mut path, &mut report)?;
        Ok(report)
    }

    fn dfs_safety(
        &self,
        path: &mut Vec<PathEvent>,
        report: &mut SafetyReport,
    ) -> Result<(), CheckError> {
        if report.violation.is_some() {
            return Ok(());
        }
        if report.complete_paths + report.truncated_paths >= self.config.max_paths {
            return Err(CheckError::PathBudgetExhausted {
                limit: self.config.max_paths,
                visited: report.complete_paths + report.truncated_paths,
                frontier_depth: path.len(),
            });
        }
        match run_path(
            &self.spec,
            &self.inputs,
            self.config.coin_policy,
            self.config.max_steps,
            path,
            false,
        )
        .0
        {
            Need::Done(outputs) => {
                report.complete_paths += 1;
                let mut per_pid = vec![0u64; self.inputs.len()];
                for event in path.iter() {
                    if let PathEvent::Sched(pid) = event {
                        per_pid[pid.index()] += 1;
                    }
                }
                let busiest = per_pid.iter().copied().max().unwrap_or(0);
                report.max_individual_ops = report.max_individual_ops.max(busiest);
                if let Err(violation) =
                    check_leaf(&self.inputs, self.config.check_acceptance, &outputs)
                {
                    report.violation = Some((path.clone(), violation));
                }
                Ok(())
            }
            Need::OutOfSteps => {
                report.truncated_paths += 1;
                Ok(())
            }
            Need::LocalCoinUsed => Err(CheckError::LocalCoinUsed),
            Need::Sched(live) => {
                for pid in live {
                    path.push(PathEvent::Sched(pid));
                    self.dfs_safety(path, report)?;
                    path.pop();
                    if report.violation.is_some() {
                        break;
                    }
                }
                Ok(())
            }
            Need::Coin { .. } => {
                for outcome in [true, false] {
                    path.push(PathEvent::Coin(outcome));
                    self.dfs_safety(path, report)?;
                    path.pop();
                    if report.violation.is_some() {
                        break;
                    }
                }
                Ok(())
            }
        }
    }

    /// Computes the worst-case agreement probability: the adversary picks
    /// each scheduling choice to *minimize* the probability that all
    /// outputs agree; coin nodes average over outcomes.
    ///
    /// # Errors
    ///
    /// [`CheckError`] as for [`verify_safety`](Explorer::verify_safety).
    pub fn worst_case_agreement(&self) -> Result<AgreementValue, CheckError> {
        let mut value = AgreementValue {
            probability: 0.0,
            complete_paths: 0,
            truncated: 0,
        };
        let mut path = Vec::new();
        value.probability = self.dfs_value(&mut path, &mut value)?;
        Ok(value)
    }

    fn dfs_value(
        &self,
        path: &mut Vec<PathEvent>,
        stats: &mut AgreementValue,
    ) -> Result<f64, CheckError> {
        if stats.complete_paths + stats.truncated >= self.config.max_paths {
            return Err(CheckError::PathBudgetExhausted {
                limit: self.config.max_paths,
                visited: stats.complete_paths + stats.truncated,
                frontier_depth: path.len(),
            });
        }
        match run_path(
            &self.spec,
            &self.inputs,
            self.config.coin_policy,
            self.config.max_steps,
            path,
            false,
        )
        .0
        {
            Need::Done(outputs) => {
                stats.complete_paths += 1;
                Ok(f64::from(u8::from(
                    properties::check_agreement(&outputs).is_ok(),
                )))
            }
            Need::OutOfSteps => {
                stats.truncated += 1;
                Ok(0.0)
            }
            Need::LocalCoinUsed => Err(CheckError::LocalCoinUsed),
            Need::Sched(live) => {
                let mut worst = f64::INFINITY;
                for pid in live {
                    path.push(PathEvent::Sched(pid));
                    let v = self.dfs_value(path, stats)?;
                    path.pop();
                    worst = worst.min(v);
                    if worst == 0.0 {
                        break; // the adversary cannot do better than 0
                    }
                }
                Ok(worst)
            }
            Need::Coin { prob } => {
                path.push(PathEvent::Coin(true));
                let success = self.dfs_value(path, stats)?;
                path.pop();
                path.push(PathEvent::Coin(false));
                let failure = self.dfs_value(path, stats)?;
                path.pop();
                Ok(prob * success + (1.0 - prob) * failure)
            }
        }
    }
}

/// The safety properties both engines check on every complete execution:
/// validity and coherence, plus acceptance if `check_acceptance` is set.
pub(crate) fn check_leaf(
    inputs: &[Value],
    check_acceptance: bool,
    outputs: &[Decision],
) -> Result<(), PropertyViolation> {
    properties::check_validity(inputs, outputs)?;
    properties::check_coherence(outputs)?;
    if check_acceptance {
        properties::check_acceptance(inputs, outputs)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{BrokenSpec, BusySpec, CopySpec};

    #[test]
    fn copy_object_passes_safety_trivially() {
        let report = Explorer::new(CopySpec, vec![1, 2]).verify_safety().unwrap();
        assert!(report.is_exhaustive_pass());
        assert_eq!(report.complete_paths, 1); // no operations => one path
    }

    #[test]
    fn copy_object_has_zero_worst_case_agreement_on_split_inputs() {
        let v = Explorer::new(CopySpec, vec![1, 2])
            .worst_case_agreement()
            .unwrap();
        assert_eq!(v.probability, 0.0);
        let v = Explorer::new(CopySpec, vec![3, 3])
            .worst_case_agreement()
            .unwrap();
        assert_eq!(v.probability, 1.0);
    }

    #[test]
    fn checker_finds_coherence_violation_with_witness() {
        let report = Explorer::new(BrokenSpec, vec![0, 1])
            .verify_safety()
            .unwrap();
        let (path, violation) = report.violation.expect("violation found");
        assert!(matches!(violation, PropertyViolation::Coherence { .. }));
        assert!(!path.is_empty());
    }

    #[test]
    fn path_budget_guard_triggers() {
        let config = CheckConfig {
            max_paths: 2,
            ..CheckConfig::default()
        };
        let err = Explorer::new(BusySpec, vec![0, 1, 2])
            .with_config(config)
            .verify_safety()
            .unwrap_err();
        match err {
            CheckError::PathBudgetExhausted {
                limit,
                visited,
                frontier_depth,
            } => {
                assert_eq!(limit, 2);
                assert_eq!(visited, 2);
                // The third leaf was about to be explored, so the frontier
                // sits somewhere strictly inside the execution tree.
                assert!(frontier_depth > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn busy_object_explores_many_paths_cleanly() {
        let report = Explorer::new(BusySpec, vec![0, 1]).verify_safety().unwrap();
        assert!(report.is_exhaustive_pass());
        // 3 ops per process, 2 processes: C(6,3) = 20 interleavings.
        assert_eq!(report.complete_paths, 20);
        // Every process performs exactly 3 operations on every path.
        assert_eq!(report.max_individual_ops, 3);
    }
}
