//! Graph-based exhaustive exploration over canonicalized states.
//!
//! The path-based [`Explorer`](crate::Explorer) enumerates execution
//! *scripts*; its cost is the number of interleavings, which explodes
//! combinatorially. This engine explores the graph of reachable
//! *configurations* instead: it hashes each (memory, per-session control,
//! decisions) snapshot, deduplicates via a visited set, and additionally
//! identifies configurations that differ only by a certified symmetry
//! (process-id permutation, binary value swap — see [`crate::canon`]).
//! Many interleavings that the path engine walks separately converge on
//! the same configuration and are expanded once.
//!
//! Sessions are opaque state machines that cannot be cloned, so the engine
//! stores no live sessions: each node keeps only a predecessor link and
//! the [`PathEvent`] labeling the edge from its parent, and expanding a
//! node re-executes its script from scratch through the same
//! [`run_path`](crate::replay) machinery the path engine uses. That keeps
//! the two engines trivially consistent on execution semantics — they
//! disagree only if deduplication is wrong, which is exactly what the
//! cross-validation tests check.
//!
//! Because per-process operation counts are part of the state, the
//! configuration graph is a DAG and breadth-first order visits states in
//! nondecreasing script length — so the first violating terminal found
//! yields a **minimal** counterexample script via the predecessor links,
//! replayable through `mc-lab`'s real runtime objects.

use std::collections::{HashSet, VecDeque};

use mc_model::{ObjectSpec, PropertyViolation, SymmetrySpec, Value};

use crate::canon::{encode_state, SymmetryGroup};
use crate::explore::{check_leaf, CheckError, Verdict};
use crate::replay::{run_path, CoinPolicy, Need, PathEvent};

/// Exploration limits and policies for the graph engine.
#[derive(Debug, Clone)]
pub struct GraphConfig {
    /// Maximum operations per execution; configurations at the bound with
    /// live processes count as truncated leaves (same semantics as the
    /// path engine's `max_steps`).
    pub max_steps: usize,
    /// Abort with [`CheckError::PathBudgetExhausted`] after this many
    /// distinct canonical states (a runaway-state-space guard).
    pub max_states: usize,
    /// Session-local randomness policy.
    pub coin_policy: CoinPolicy,
    /// Also check acceptance (unanimous inputs ⇒ everyone decides them).
    pub check_acceptance: bool,
    /// Enable symmetry reduction (on top of plain state dedup). Process-id
    /// permutations are automatically disabled under
    /// [`CoinPolicy::Fixed`] (coin streams are pid-seeded), and value
    /// swaps whenever any input is non-binary; disabling this entirely is
    /// mainly useful for measuring the reduction.
    pub symmetry: bool,
}

impl Default for GraphConfig {
    fn default() -> GraphConfig {
        GraphConfig {
            max_steps: 64,
            max_states: 1_000_000,
            coin_policy: CoinPolicy::Forbid,
            check_acceptance: false,
            symmetry: true,
        }
    }
}

/// Outcome of a graph-based safety exploration.
#[derive(Debug, Clone, Default)]
pub struct GraphReport {
    /// Distinct canonical states visited (including the initial one).
    pub distinct_states: usize,
    /// Edges executed (each is one scripted replay).
    pub transitions: usize,
    /// Edges that led to an already-visited canonical state.
    pub dedup_hits: usize,
    /// Distinct terminal (all-halted) states.
    pub terminal_states: usize,
    /// Distinct states cut off by the step bound with live processes.
    pub truncated_states: usize,
    /// Maximum BFS depth reached, in events.
    pub depth: usize,
    /// Size of the largest symmetry group used (1 = no reduction).
    pub group_size: usize,
    /// The first violation found, with a minimal-length witness script.
    pub violation: Option<(Vec<PathEvent>, PropertyViolation)>,
    /// The largest number of operations any single process performed in
    /// any terminal state (the checker-certified individual work bound;
    /// compare Theorem 10's "at most 4 operations" for the binary
    /// ratifier).
    pub max_individual_ops: u64,
}

impl GraphReport {
    /// True if no violation was found and no state was truncated — the
    /// properties hold on *every* execution within the step bound.
    pub fn is_exhaustive_pass(&self) -> bool {
        self.violation.is_none() && self.truncated_states == 0
    }

    /// This report's engine-independent verdict, for cross-validating
    /// against the path engine. Truncation accounting is aligned: the path
    /// engine counts truncated *scripts*, this engine truncated *states*,
    /// but each is nonzero exactly when some execution exceeds the bound,
    /// so `exhaustive` agrees.
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

/// One explored configuration: predecessor link plus the branching
/// alternatives discovered when it was first reached.
struct Node {
    parent: usize,
    event: Option<PathEvent>,
    depth: usize,
    kids: Vec<PathEvent>,
}

/// Exhaustively explores the reachable configuration graph of one deciding
/// object on fixed inputs. Requires the object's sessions to implement
/// [`Session::snapshot`](mc_model::Session::snapshot).
pub struct GraphExplorer<S> {
    spec: S,
    inputs: Vec<Value>,
    config: GraphConfig,
}

impl<S: ObjectSpec> GraphExplorer<S> {
    /// Creates an explorer with default limits.
    pub fn new(spec: S, inputs: Vec<Value>) -> GraphExplorer<S> {
        GraphExplorer {
            spec,
            inputs,
            config: GraphConfig::default(),
        }
    }

    /// Replaces the exploration config.
    pub fn with_config(mut self, config: GraphConfig) -> GraphExplorer<S> {
        self.config = config;
        self
    }

    /// Checks validity and coherence on every reachable terminal state —
    /// plus acceptance if [`GraphConfig::check_acceptance`] is set.
    ///
    /// Stops at the first violation, recorded with a minimal witness
    /// script (breadth-first order guarantees no shorter script reaches a
    /// violating terminal).
    ///
    /// # Errors
    ///
    /// [`CheckError`] if the protocol draws local coins under
    /// [`CoinPolicy::Forbid`], the state budget is exhausted, or a session
    /// does not support snapshots.
    pub fn verify_safety(&self) -> Result<GraphReport, CheckError> {
        let allow_pid =
            self.config.symmetry && !matches!(self.config.coin_policy, CoinPolicy::Fixed(_));
        let allow_value = self.config.symmetry;

        let mut report = GraphReport::default();
        let mut visited: HashSet<Vec<u64>> = HashSet::new();
        let mut nodes: Vec<Node> = Vec::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        // Lazy compositions grow their symmetry certificate as stages
        // instantiate, so groups are cached per distinct certificate.
        let mut groups: Vec<(SymmetrySpec, SymmetryGroup)> = Vec::new();

        let path_of = |nodes: &[Node], ix: usize| -> Vec<PathEvent> {
            let mut events = Vec::new();
            let mut cur = ix;
            while cur != usize::MAX {
                if let Some(e) = nodes[cur].event {
                    events.push(e);
                }
                cur = nodes[cur].parent;
            }
            events.reverse();
            events
        };

        // Process one configuration reached via `path`; returns the node
        // to enqueue, if the state is new and expandable.
        let mut step = |path: Vec<PathEvent>,
                        parent: usize,
                        event: Option<PathEvent>,
                        depth: usize,
                        report: &mut GraphReport,
                        visited: &mut HashSet<Vec<u64>>,
                        nodes: &mut Vec<Node>|
         -> Result<Option<usize>, CheckError> {
            report.transitions += 1;
            let (need, captured) = run_path(
                &self.spec,
                &self.inputs,
                self.config.coin_policy,
                self.config.max_steps,
                &path,
                true,
            );
            if matches!(need, Need::LocalCoinUsed) {
                return Err(CheckError::LocalCoinUsed);
            }
            let captured = captured.ok_or_else(|| CheckError::SnapshotUnsupported {
                object: self.spec.name(),
            })?;
            let gix = match groups.iter().position(|(s, _)| *s == captured.symmetry) {
                Some(ix) => ix,
                None => {
                    let g = SymmetryGroup::for_inputs(
                        captured.symmetry.clone(),
                        &self.inputs,
                        allow_pid,
                        allow_value,
                    );
                    groups.push((captured.symmetry.clone(), g));
                    groups.len() - 1
                }
            };
            let group = &groups[gix].1;
            report.group_size = report.group_size.max(group.len());
            let key = if group.len() == 1 {
                encode_state(&captured.snapshot)
            } else {
                group.canonical_key(&captured.snapshot)
            };
            if visited.contains(&key) {
                report.dedup_hits += 1;
                return Ok(None);
            }
            if visited.len() >= self.config.max_states {
                return Err(CheckError::PathBudgetExhausted {
                    limit: self.config.max_states,
                    visited: visited.len(),
                    frontier_depth: depth,
                });
            }
            visited.insert(key);
            report.distinct_states += 1;
            report.depth = report.depth.max(depth);

            let kids = match need {
                Need::Done(outputs) => {
                    report.terminal_states += 1;
                    let busiest = captured
                        .snapshot
                        .procs
                        .iter()
                        .map(|p| p.ops)
                        .max()
                        .unwrap_or(0);
                    report.max_individual_ops = report.max_individual_ops.max(busiest);
                    if let Err(violation) =
                        check_leaf(&self.inputs, self.config.check_acceptance, &outputs)
                    {
                        report.violation = Some((path, violation));
                    }
                    Vec::new()
                }
                Need::OutOfSteps => {
                    report.truncated_states += 1;
                    Vec::new()
                }
                Need::Sched(live) => live.into_iter().map(PathEvent::Sched).collect(),
                Need::Coin { .. } => vec![PathEvent::Coin(false), PathEvent::Coin(true)],
                Need::LocalCoinUsed => unreachable!("handled above"),
            };
            let expandable = !kids.is_empty();
            nodes.push(Node {
                parent,
                event,
                depth,
                kids,
            });
            Ok(expandable.then_some(nodes.len() - 1))
        };

        // Root configuration.
        if let Some(ix) = step(
            Vec::new(),
            usize::MAX,
            None,
            0,
            &mut report,
            &mut visited,
            &mut nodes,
        )? {
            queue.push_back(ix);
        }
        while report.violation.is_none() {
            let Some(ix) = queue.pop_front() else {
                break;
            };
            let base = path_of(&nodes, ix);
            let depth = nodes[ix].depth + 1;
            for kid_ix in 0..nodes[ix].kids.len() {
                let event = nodes[ix].kids[kid_ix];
                let mut path = base.clone();
                path.push(event);
                if let Some(new_ix) = step(
                    path,
                    ix,
                    Some(event),
                    depth,
                    &mut report,
                    &mut visited,
                    &mut nodes,
                )? {
                    queue.push_back(new_ix);
                }
                if report.violation.is_some() {
                    break;
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{BrokenSpec, BusySpec, CopySpec};

    #[test]
    fn graph_engine_finds_minimal_coherence_witness() {
        let report = GraphExplorer::new(BrokenSpec, vec![0, 1])
            .verify_safety()
            .unwrap();
        let (path, violation) = report.violation.expect("violation found");
        assert!(matches!(violation, PropertyViolation::Coherence { .. }));
        // Shortest possible violating execution: both processes write and
        // decide — 2 scheduled operations, hence a 2-event script.
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn graph_engine_matches_path_engine_verdict_on_busy_object() {
        use crate::Explorer;
        let path_report = Explorer::new(BusySpec, vec![0, 1]).verify_safety().unwrap();
        let graph_report = GraphExplorer::new(BusySpec, vec![0, 1])
            .verify_safety()
            .unwrap();
        assert!(graph_report.is_exhaustive_pass());
        assert_eq!(graph_report.verdict(), path_report.verdict());
        assert_eq!(path_report.complete_paths, 20); // C(6,3) interleavings
        assert!(
            graph_report.distinct_states < 20,
            "interleavings should collapse onto the state lattice, got {}",
            graph_report.distinct_states
        );
    }

    #[test]
    fn symmetry_reduction_shrinks_the_state_count() {
        let on = GraphExplorer::new(BusySpec, vec![0, 1])
            .verify_safety()
            .unwrap();
        let off = GraphExplorer::new(BusySpec, vec![0, 1])
            .with_config(GraphConfig {
                symmetry: false,
                ..GraphConfig::default()
            })
            .verify_safety()
            .unwrap();
        assert!(on.is_exhaustive_pass() && off.is_exhaustive_pass());
        assert!(on.group_size > 1);
        assert_eq!(off.group_size, 1);
        assert!(
            on.distinct_states < off.distinct_states,
            "symmetry on: {} states, off: {} states",
            on.distinct_states,
            off.distinct_states
        );
        assert_eq!(on.verdict(), off.verdict());
    }

    #[test]
    fn state_budget_reports_progress_at_abort() {
        let err = GraphExplorer::new(BusySpec, vec![0, 1, 2])
            .with_config(GraphConfig {
                max_states: 3,
                ..GraphConfig::default()
            })
            .verify_safety()
            .unwrap_err();
        match err {
            CheckError::PathBudgetExhausted {
                limit,
                visited,
                frontier_depth,
            } => {
                assert_eq!(limit, 3);
                assert_eq!(visited, 3);
                assert!(frontier_depth > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn snapshotless_objects_are_rejected() {
        let err = GraphExplorer::new(CopySpec, vec![0, 1])
            .verify_safety()
            .unwrap_err();
        assert!(matches!(err, CheckError::SnapshotUnsupported { .. }));
    }
}
