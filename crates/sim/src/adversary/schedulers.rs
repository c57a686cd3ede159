//! Baseline (non-attacking) schedulers.

use mc_model::ProcessId;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use super::{Adversary, Capability, View};

/// The canonical oblivious adversary: processes take steps in round-robin
/// order, skipping halted processes.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// Creates a round-robin scheduler starting at process 0.
    pub fn new() -> RoundRobin {
        RoundRobin::default()
    }
}

impl Adversary for RoundRobin {
    fn capability(&self) -> Capability {
        Capability::Oblivious
    }

    fn choose(&mut self, view: &View<'_>) -> ProcessId {
        debug_assert!(!view.pending.is_empty());
        // Find the first live process at or after the cursor, wrapping.
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
        "round-robin".to_string()
    }
}

/// An oblivious adversary that replays a fixed schedule, cycling through it
/// and skipping entries whose process has halted.
///
/// This realizes the textbook definition of the oblivious adversary — the
/// entire schedule is chosen before the execution begins.
#[derive(Debug, Clone)]
pub struct FixedOrder {
    schedule: Vec<ProcessId>,
    cursor: usize,
}

impl FixedOrder {
    /// Creates a scheduler cycling through `schedule`.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` is empty.
    pub fn new(schedule: Vec<ProcessId>) -> FixedOrder {
        assert!(!schedule.is_empty(), "schedule must be non-empty");
        FixedOrder {
            schedule,
            cursor: 0,
        }
    }

    /// A schedule that runs each process for `burst` consecutive steps
    /// before moving to the next of `n` processes.
    ///
    /// Bursty schedules are a classic stress for first-mover algorithms: a
    /// single process races far ahead, then the rest arrive together.
    pub fn bursty(n: usize, burst: usize) -> FixedOrder {
        let schedule = (0..n)
            .flat_map(|p| std::iter::repeat_n(ProcessId(p), burst.max(1)))
            .collect();
        FixedOrder::new(schedule)
    }
}

impl Adversary for FixedOrder {
    fn capability(&self) -> Capability {
        Capability::Oblivious
    }

    fn choose(&mut self, view: &View<'_>) -> ProcessId {
        debug_assert!(!view.pending.is_empty());
        // Advance through the fixed schedule until we hit a live process.
        // Bounded by schedule length + live processes, so this terminates:
        // if a full cycle contains no live process, fall back to the first
        // live one (the fixed schedule has starved everyone it lists).
        for _ in 0..self.schedule.len() {
            let candidate = self.schedule[self.cursor];
            self.cursor = (self.cursor + 1) % self.schedule.len();
            if view.pending.iter().any(|p| p.pid == candidate) {
                return candidate;
            }
        }
        view.pending[0].pid
    }

    fn name(&self) -> String {
        "fixed-order".to_string()
    }
}

/// Replays an exact recorded schedule, one entry per step, then falls back
/// to round-robin if the run outlives the script.
///
/// Unlike [`FixedOrder`] (which cycles and skips halted processes — the
/// oblivious adversary abstraction), `ScriptedAdversary` is a *replay*
/// tool: feed it the pid sequence of a recorded
/// [`Trace`](crate::trace::Trace) to re-create that execution step for
/// step, e.g. to re-run a failing schedule under a tweaked protocol.
#[derive(Debug, Clone)]
pub struct ScriptedAdversary {
    script: Vec<ProcessId>,
    cursor: usize,
    fallback: RoundRobin,
}

impl ScriptedAdversary {
    /// Creates a replayer for the given pid sequence.
    pub fn new(script: Vec<ProcessId>) -> ScriptedAdversary {
        ScriptedAdversary {
            script,
            cursor: 0,
            fallback: RoundRobin::new(),
        }
    }
}

impl Adversary for ScriptedAdversary {
    fn capability(&self) -> Capability {
        Capability::Oblivious
    }

    fn choose(&mut self, view: &View<'_>) -> ProcessId {
        while self.cursor < self.script.len() {
            let pid = self.script[self.cursor];
            self.cursor += 1;
            if view.pending.iter().any(|p| p.pid == pid) {
                return pid;
            }
            // A scripted pid that already halted means the protocol under
            // replay diverged from the recording; skip and continue.
        }
        self.fallback.choose(view)
    }

    fn name(&self) -> String {
        "scripted".to_string()
    }
}

/// An oblivious adversary that picks a uniformly random live process each
/// step — the "fair" scheduler most closely matching a real SMP under load.
#[derive(Debug)]
pub struct RandomScheduler {
    rng: SmallRng,
}

impl RandomScheduler {
    /// Creates a random scheduler with its own seed.
    pub fn new(seed: u64) -> RandomScheduler {
        RandomScheduler {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Adversary for RandomScheduler {
    fn capability(&self) -> Capability {
        Capability::Oblivious
    }

    fn choose(&mut self, view: &View<'_>) -> ProcessId {
        debug_assert!(!view.pending.is_empty());
        let ix = self.rng.random_range(0..view.pending.len());
        view.pending[ix].pid
    }

    fn name(&self) -> String {
        "random".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::PendingInfo;

    fn pending(pids: &[usize]) -> Vec<PendingInfo> {
        pids.iter()
            .map(|&p| PendingInfo {
                pid: ProcessId(p),
                ops_done: 0,
                kind: None,
                reg: None,
                value: None,
                prob: None,
            })
            .collect()
    }

    fn view<'a>(n: usize, pending: &'a [PendingInfo]) -> View<'a> {
        View {
            step: 0,
            n,
            pending,
            memory: None,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::new();
        let p = pending(&[0, 1, 2]);
        let v = view(3, &p);
        assert_eq!(rr.choose(&v), ProcessId(0));
        assert_eq!(rr.choose(&v), ProcessId(1));
        assert_eq!(rr.choose(&v), ProcessId(2));
        assert_eq!(rr.choose(&v), ProcessId(0));
    }

    #[test]
    fn round_robin_skips_halted() {
        let mut rr = RoundRobin::new();
        let p = pending(&[0, 2]);
        let v = view(3, &p);
        assert_eq!(rr.choose(&v), ProcessId(0));
        assert_eq!(rr.choose(&v), ProcessId(2));
        assert_eq!(rr.choose(&v), ProcessId(0));
    }

    #[test]
    fn fixed_order_replays_schedule() {
        let mut fo = FixedOrder::new(vec![ProcessId(1), ProcessId(1), ProcessId(0)]);
        let p = pending(&[0, 1]);
        let v = view(2, &p);
        assert_eq!(fo.choose(&v), ProcessId(1));
        assert_eq!(fo.choose(&v), ProcessId(1));
        assert_eq!(fo.choose(&v), ProcessId(0));
        assert_eq!(fo.choose(&v), ProcessId(1));
    }

    #[test]
    fn fixed_order_skips_halted_and_falls_back() {
        let mut fo = FixedOrder::new(vec![ProcessId(0)]);
        let p = pending(&[1]);
        let v = view(2, &p);
        // Schedule only lists p0, which has halted; falls back to a live one.
        assert_eq!(fo.choose(&v), ProcessId(1));
    }

    #[test]
    fn bursty_schedule_shape() {
        let fo = FixedOrder::bursty(2, 3);
        assert_eq!(
            fo.schedule,
            vec![
                ProcessId(0),
                ProcessId(0),
                ProcessId(0),
                ProcessId(1),
                ProcessId(1),
                ProcessId(1)
            ]
        );
    }

    #[test]
    fn scripted_adversary_replays_then_falls_back() {
        let mut adv = ScriptedAdversary::new(vec![ProcessId(1), ProcessId(1), ProcessId(0)]);
        let p = pending(&[0, 1]);
        let v = view(2, &p);
        assert_eq!(adv.choose(&v), ProcessId(1));
        assert_eq!(adv.choose(&v), ProcessId(1));
        assert_eq!(adv.choose(&v), ProcessId(0));
        assert_eq!(adv.cursor, 3);
        // Script exhausted: round-robin fallback from process 0.
        assert_eq!(adv.choose(&v), ProcessId(0));
        assert_eq!(adv.choose(&v), ProcessId(1));
    }

    #[test]
    fn scripted_adversary_skips_halted_entries() {
        let mut adv = ScriptedAdversary::new(vec![ProcessId(0), ProcessId(0), ProcessId(1)]);
        let only1 = pending(&[1]);
        let v = view(2, &only1);
        // p0 halted in this (diverged) run: its scripted steps are skipped.
        assert_eq!(adv.choose(&v), ProcessId(1));
    }

    #[test]
    fn random_scheduler_picks_live() {
        let mut rs = RandomScheduler::new(7);
        let p = pending(&[3, 5]);
        let v = view(8, &p);
        for _ in 0..50 {
            let c = rs.choose(&v);
            assert!(c == ProcessId(3) || c == ProcessId(5));
        }
    }

    #[test]
    fn random_scheduler_is_deterministic_per_seed() {
        let p = pending(&[0, 1, 2, 3]);
        let v = view(4, &p);
        let mut a = RandomScheduler::new(9);
        let mut b = RandomScheduler::new(9);
        for _ in 0..20 {
            assert_eq!(a.choose(&v), b.choose(&v));
        }
    }
}
