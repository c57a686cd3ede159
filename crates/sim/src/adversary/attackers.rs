//! Attack adversaries: schedulers that actively try to break agreement or
//! inflate work, within their declared information class.
//!
//! These are the adversaries the paper's probability bounds are quantified
//! over; the experiments measure agreement probability *under attack* and
//! check it stays above the theorem's lower bound.

use mc_model::{OpKind, ProcessId};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use super::{Adversary, Capability, View};

/// A location-oblivious attacker against first-mover conciliators.
///
/// Strategy: while memory is empty it cycles processes so that everyone
/// accumulates failed probabilistic writes (driving the impatient schedule's
/// write probabilities up). The moment any register becomes non-⊥ — some
/// process's write won the race — it schedules every *pending probabilistic
/// write* before any read, most-impatient process first, maximizing the
/// chance that a second write lands before the winners' value is observed.
///
/// This is exactly the adversary analyzed in the proof of Theorem 7: its
/// power is limited to choosing the order of the probabilistic write
/// attempts.
#[derive(Debug, Clone, Default)]
pub struct ImpatienceExploiter {
    cursor: usize,
}

impl ImpatienceExploiter {
    /// Creates the attacker.
    pub fn new() -> ImpatienceExploiter {
        ImpatienceExploiter::default()
    }
}

impl Adversary for ImpatienceExploiter {
    fn capability(&self) -> Capability {
        Capability::LocationOblivious
    }

    fn choose(&mut self, view: &View<'_>) -> ProcessId {
        debug_assert!(!view.pending.is_empty());
        let memory_written = view.memory.map(|m| m.written_count() > 0).unwrap_or(false);
        if memory_written {
            // Fire the most-impatient pending probabilistic write first.
            if let Some(p) = view
                .pending
                .iter()
                .filter(|p| p.kind == Some(OpKind::ProbWrite))
                .max_by_key(|p| p.ops_done)
            {
                return p.pid;
            }
        }
        // Otherwise cycle fairly so write probabilities climb together.
        let choice = view
            .pending
            .iter()
            .map(|p| p.pid)
            .find(|p| p.index() >= self.cursor)
            .unwrap_or(view.pending[0].pid);
        self.cursor = (choice.index() + 1) % view.n;
        choice
    }

    fn name(&self) -> String {
        "impatience-exploiter".to_string()
    }
}

/// An adaptive attacker that tries to keep processes split between values.
///
/// Heuristic: look at the values present in memory; prefer executing a
/// pending write whose value is currently in the *minority*, so no value
/// ever dominates. Among non-writes it prefers the process that has taken
/// the fewest steps (keeping everyone in the race). This is a strong generic
/// stress for conciliators and shared coins; it cannot, by Theorem 7 /
/// Theorem 6, push agreement probability below δ.
#[derive(Debug)]
pub struct SplitKeeper {
    rng: SmallRng,
}

impl SplitKeeper {
    /// Creates the attacker with its own tie-breaking seed.
    pub fn new(seed: u64) -> SplitKeeper {
        SplitKeeper {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Counts occurrences of `value` in memory.
    fn memory_count(view: &View<'_>, value: u64) -> usize {
        view.memory
            .map(|m| m.iter().filter(|(_, c)| *c == Some(value)).count())
            .unwrap_or(0)
    }
}

impl Adversary for SplitKeeper {
    fn capability(&self) -> Capability {
        Capability::Adaptive
    }

    fn choose(&mut self, view: &View<'_>) -> ProcessId {
        debug_assert!(!view.pending.is_empty());
        // Among pending writes, pick the one whose value is rarest in memory.
        let best_write = view
            .pending
            .iter()
            .filter(|p| matches!(p.kind, Some(OpKind::Write) | Some(OpKind::ProbWrite)))
            .min_by_key(|p| {
                p.value
                    .map(|v| Self::memory_count(view, v))
                    .unwrap_or(usize::MAX)
            });
        if let Some(p) = best_write {
            return p.pid;
        }
        // No writes pending: run the least-advanced process, random ties.
        let min_ops = view
            .pending
            .iter()
            .map(|p| p.ops_done)
            .min()
            .expect("non-empty");
        let laggards: Vec<ProcessId> = view
            .pending
            .iter()
            .filter(|p| p.ops_done == min_ops)
            .map(|p| p.pid)
            .collect();
        laggards[self.rng.random_range(0..laggards.len())]
    }

    fn name(&self) -> String {
        "split-keeper".to_string()
    }
}

/// A value-oblivious attacker that starves writers.
///
/// It sees operation kinds and locations (but no values). Strategy: always
/// prefer executing reads, delaying every pending write as long as possible;
/// among writes it round-robins. Against ratifiers this maximizes the window
/// in which processes can observe stale ⊥ proposals; against conciliators it
/// stretches the race. A correct algorithm's safety properties must survive
/// it.
#[derive(Debug, Clone, Default)]
pub struct WriteBlocker {
    cursor: usize,
}

impl WriteBlocker {
    /// Creates the attacker.
    pub fn new() -> WriteBlocker {
        WriteBlocker::default()
    }
}

impl Adversary for WriteBlocker {
    fn capability(&self) -> Capability {
        Capability::ValueOblivious
    }

    fn choose(&mut self, view: &View<'_>) -> ProcessId {
        debug_assert!(!view.pending.is_empty());
        let pick = |infos: Vec<&super::PendingInfo>, cursor: usize| {
            infos
                .iter()
                .map(|p| p.pid)
                .find(|p| p.index() >= cursor)
                .unwrap_or(infos[0].pid)
        };
        let readers: Vec<_> = view
            .pending
            .iter()
            .filter(|p| matches!(p.kind, Some(OpKind::Read) | Some(OpKind::Collect)))
            .collect();
        let choice = if readers.is_empty() {
            let writers: Vec<_> = view.pending.iter().collect();
            pick(writers, self.cursor)
        } else {
            pick(readers, self.cursor)
        };
        self.cursor = (choice.index() + 1) % view.n;
        choice
    }

    fn name(&self) -> String {
        "write-blocker".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::PendingInfo;
    use mc_model::{Memory, Op, RegisterId};

    /// A register file holding `value` in register `reg` for each pair.
    fn memory_with(cells: &[(u64, u64)]) -> Memory {
        let mut mem = Memory::new();
        for &(reg, value) in cells {
            let op = Op::Write {
                reg: RegisterId(reg),
                value,
            };
            mem.perform(&op, |_| unreachable!("a write flips no coin"));
        }
        mem
    }

    fn info(pid: usize, ops: u64, kind: OpKind, value: Option<u64>) -> PendingInfo {
        PendingInfo {
            pid: ProcessId(pid),
            ops_done: ops,
            kind: Some(kind),
            reg: Some(RegisterId(0)),
            value,
            prob: None,
        }
    }

    #[test]
    fn exploiter_cycles_while_memory_empty() {
        let mut adv = ImpatienceExploiter::new();
        let mem = memory_with(&[]);
        let pending = vec![
            info(0, 4, OpKind::ProbWrite, Some(1)),
            info(1, 2, OpKind::Read, None),
        ];
        let view = View {
            step: 0,
            n: 2,
            pending: &pending,
            memory: Some(&mem),
        };
        assert_eq!(adv.choose(&view), ProcessId(0));
        assert_eq!(adv.choose(&view), ProcessId(1));
    }

    #[test]
    fn exploiter_fires_most_impatient_writer_once_memory_written() {
        let mut adv = ImpatienceExploiter::new();
        let mem = memory_with(&[(0, 9)]);
        let pending = vec![
            info(0, 2, OpKind::ProbWrite, Some(1)),
            info(1, 7, OpKind::ProbWrite, Some(2)),
            info(2, 9, OpKind::Read, None),
        ];
        let view = View {
            step: 0,
            n: 3,
            pending: &pending,
            memory: Some(&mem),
        };
        assert_eq!(adv.choose(&view), ProcessId(1));
    }

    #[test]
    fn split_keeper_prefers_minority_value_write() {
        let mut adv = SplitKeeper::new(0);
        let mem = memory_with(&[(0, 1), (1, 1), (2, 2)]);
        let pending = vec![
            info(0, 0, OpKind::Write, Some(1)),
            info(1, 0, OpKind::Write, Some(2)),
        ];
        let view = View {
            step: 0,
            n: 2,
            pending: &pending,
            memory: Some(&mem),
        };
        // Value 2 is the minority in memory, so p1's write goes first.
        assert_eq!(adv.choose(&view), ProcessId(1));
    }

    #[test]
    fn write_blocker_prefers_reads() {
        let mut adv = WriteBlocker::new();
        let pending = vec![
            info(0, 0, OpKind::Write, None),
            info(1, 0, OpKind::Read, None),
        ];
        let view = View {
            step: 0,
            n: 2,
            pending: &pending,
            memory: None,
        };
        assert_eq!(adv.choose(&view), ProcessId(1));
    }

    #[test]
    fn write_blocker_falls_back_to_writers() {
        let mut adv = WriteBlocker::new();
        let pending = vec![info(0, 0, OpKind::Write, None)];
        let view = View {
            step: 0,
            n: 1,
            pending: &pending,
            memory: None,
        };
        assert_eq!(adv.choose(&view), ProcessId(0));
    }
}
