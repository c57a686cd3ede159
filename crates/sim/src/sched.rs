//! Restricted schedulers under which ratifier-only consensus terminates
//! (§4.2): the noisy scheduler of Aspnes's *Fast deterministic consensus in
//! a noisy environment* and priority-based scheduling à la Ramamurthy–Moir–
//! Anderson.

use mc_model::ProcessId;
use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::adversary::{Adversary, Capability, View};

/// The noisy scheduler: every process plans one step per unit of virtual
/// time, perturbed by random timing errors that accumulate over time.
///
/// Process `p` takes its `i`-th step at virtual time
/// `t_p(i) = Σ_{j≤i} (1 + ε_{p,j})` with i.i.d. noise
/// `ε ~ N(0, σ²)`; steps execute in virtual-time order. Over time the
/// accumulated noise drives some process ahead of all others, which is what
/// makes the ratifier-only protocol `R₁; R₂; …` terminate (§4.2).
#[derive(Debug)]
pub struct NoisyScheduler {
    sigma: f64,
    next_time: Vec<f64>,
    rng: SmallRng,
}

impl NoisyScheduler {
    /// Creates a noisy scheduler for `n` processes with unit cadence and
    /// noise standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn new(n: usize, sigma: f64, seed: u64) -> NoisyScheduler {
        assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be ≥ 0");
        let mut rng = SmallRng::seed_from_u64(seed);
        // Stagger initial offsets uniformly within one cadence so processes
        // don't start in lockstep.
        let next_time = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
        NoisyScheduler {
            sigma,
            next_time,
            rng,
        }
    }

    fn gaussian(rng: &mut SmallRng) -> f64 {
        // Box–Muller; rand_distr is outside the approved dependency set.
        loop {
            let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.random_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            if z.is_finite() {
                return z;
            }
        }
    }
}

impl Adversary for NoisyScheduler {
    fn capability(&self) -> Capability {
        // The schedule depends only on pre-chosen timings plus noise, never
        // on the execution: this is an oblivious adversary.
        Capability::Oblivious
    }

    fn choose(&mut self, view: &View<'_>) -> ProcessId {
        debug_assert!(!view.pending.is_empty());
        let choice = view
            .pending
            .iter()
            .map(|p| p.pid)
            .min_by(|a, b| {
                self.next_time[a.index()]
                    .partial_cmp(&self.next_time[b.index()])
                    .expect("virtual times are finite")
            })
            .expect("non-empty");
        let ix = choice.index();
        let noise = self.sigma * Self::gaussian(&mut self.rng);
        // Accumulate: errors compound over time rather than averaging out,
        // matching the noisy-scheduler model. Keep increments positive so
        // virtual time advances.
        let increment = (1.0 + noise).max(1e-3);
        self.next_time[ix] += increment;
        choice
    }

    fn name(&self) -> String {
        format!("noisy(sigma={})", self.sigma)
    }
}

/// Priority-based scheduling: each process has a fixed unique priority and
/// every step is taken by the highest-priority live process.
///
/// Under this scheduler the highest-priority process runs solo until it
/// halts, so it reaches some ratifier alone and the ratifier-only protocol
/// decides (§4.2).
#[derive(Debug, Clone)]
pub struct PriorityScheduler {
    /// `priority[p]` — larger runs first.
    priority: Vec<u64>,
}

impl PriorityScheduler {
    /// Creates a scheduler where lower process ids have higher priority.
    pub fn descending(n: usize) -> PriorityScheduler {
        PriorityScheduler {
            priority: (0..n).map(|p| (n - p) as u64).collect(),
        }
    }

    /// Creates a scheduler with explicit priorities (`priority[p]`, larger
    /// runs first). Ties break toward smaller pid.
    pub fn with_priorities(priority: Vec<u64>) -> PriorityScheduler {
        PriorityScheduler { priority }
    }

    /// Creates a scheduler with a random priority permutation.
    pub fn shuffled(n: usize, seed: u64) -> PriorityScheduler {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut prio: Vec<u64> = (1..=n as u64).collect();
        // Fisher–Yates.
        for i in (1..prio.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            prio.swap(i, j);
        }
        PriorityScheduler { priority: prio }
    }
}

impl Adversary for PriorityScheduler {
    fn capability(&self) -> Capability {
        Capability::Oblivious
    }

    fn choose(&mut self, view: &View<'_>) -> ProcessId {
        debug_assert!(!view.pending.is_empty());
        view.pending
            .iter()
            .map(|p| p.pid)
            .max_by_key(|p| (self.priority[p.index()], std::cmp::Reverse(p.index())))
            .expect("non-empty")
    }

    fn name(&self) -> String {
        "priority".to_string()
    }
}

/// Quantum-based scheduling (à la Anderson–Jain–Ott / Anderson–Moir, cited
/// in §2.1): each scheduled process runs for a *quantum* of `q` consecutive
/// operations before the scheduler may switch, cycling round-robin.
///
/// If the quantum covers a whole ratifier pass (`q ≥ 4` for the binary
/// ratifier), the first process to enter a fresh ratifier completes it
/// before anyone with a conflicting value arrives, so the ratifier-only
/// protocol `R₁; R₂; …` decides — the quantum analogue of §4.2's priority
/// argument. With `q = 1` this degenerates to lockstep round-robin, which
/// livelocks ratifier-only chains.
#[derive(Debug, Clone)]
pub struct QuantumScheduler {
    quantum: u64,
    cursor: usize,
    remaining: u64,
    current: Option<ProcessId>,
}

impl QuantumScheduler {
    /// Creates a quantum scheduler giving each process `quantum`
    /// consecutive operations.
    ///
    /// # Panics
    ///
    /// Panics if `quantum == 0`.
    pub fn new(quantum: u64) -> QuantumScheduler {
        assert!(quantum > 0, "quantum must be positive");
        QuantumScheduler {
            quantum,
            cursor: 0,
            remaining: 0,
            current: None,
        }
    }
}

impl Adversary for QuantumScheduler {
    fn capability(&self) -> Capability {
        Capability::Oblivious
    }

    fn choose(&mut self, view: &View<'_>) -> ProcessId {
        debug_assert!(!view.pending.is_empty());
        // Continue the current quantum while its owner is live.
        if self.remaining > 0 {
            if let Some(pid) = self.current {
                if view.pending.iter().any(|p| p.pid == pid) {
                    self.remaining -= 1;
                    return pid;
                }
            }
        }
        // Start a fresh quantum on the next live process in cyclic order.
        let choice = view
            .pending
            .iter()
            .map(|p| p.pid)
            .find(|p| p.index() >= self.cursor)
            .unwrap_or(view.pending[0].pid);
        self.cursor = (choice.index() + 1) % view.n;
        self.current = Some(choice);
        self.remaining = self.quantum - 1;
        choice
    }

    fn name(&self) -> String {
        format!("quantum({})", self.quantum)
    }
}

/// PCT-style probabilistic scheduling (Burckhardt et al., *A Randomized
/// Scheduler with Probabilistic Guarantees of Finding Bugs*): each process
/// gets a random distinct priority, the highest-priority live process runs,
/// and at `d − 1` random *change points* over a step horizon the currently
/// running process is demoted below everyone else.
///
/// For a program with `k` steps and a bug of depth `d`, one PCT run hits the
/// bug with probability ≥ `1/(n·k^(d−1))` — far better than naive random
/// walks for ordering bugs. Here it serves as a seeded schedule generator
/// for the conformance lab: high-probability coverage of rare interleavings
/// with full reproducibility.
#[derive(Debug)]
pub struct PctScheduler {
    rng: SmallRng,
    depth: usize,
    horizon: u64,
    /// Lazily initialized from the first view's `n`; larger runs first.
    priorities: Vec<u64>,
    /// Remaining change points, as step numbers in decreasing order.
    change_points: Vec<u64>,
    /// Counter handing out ever-lower priorities at change points.
    demote_next: u64,
}

impl PctScheduler {
    /// Creates a PCT scheduler of depth `d` over a `horizon`-step run.
    ///
    /// `d = 1` is pure random-priority scheduling (no preemption points);
    /// each extra unit of depth adds one mid-run demotion.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0` or `horizon == 0`.
    pub fn new(depth: usize, horizon: u64, seed: u64) -> PctScheduler {
        assert!(depth > 0, "depth must be positive");
        assert!(horizon > 0, "horizon must be positive");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut change_points: Vec<u64> =
            (0..depth - 1).map(|_| rng.next_u64() % horizon).collect();
        change_points.sort_unstable_by(|a, b| b.cmp(a));
        PctScheduler {
            rng,
            depth,
            horizon,
            priorities: Vec::new(),
            change_points,
            demote_next: 0,
        }
    }

    fn ensure_priorities(&mut self, n: usize) {
        if !self.priorities.is_empty() {
            return;
        }
        // Distinct random priorities above the demotion range: a Fisher–Yates
        // permutation of `horizon+1 ..= horizon+n`.
        let base = self.horizon;
        let mut prio: Vec<u64> = (1..=n as u64).map(|p| base + p).collect();
        for i in (1..prio.len()).rev() {
            let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
            prio.swap(i, j);
        }
        self.priorities = prio;
        // Demotions hand out priorities below every initial one, decreasing
        // so later demotions sink lower still.
        self.demote_next = base;
    }
}

impl Adversary for PctScheduler {
    fn capability(&self) -> Capability {
        // Priorities and change points are fixed up front from the seed —
        // the schedule never reads the execution.
        Capability::Oblivious
    }

    fn choose(&mut self, view: &View<'_>) -> ProcessId {
        debug_assert!(!view.pending.is_empty());
        self.ensure_priorities(view.n);
        let top = view
            .pending
            .iter()
            .map(|p| p.pid)
            .max_by_key(|p| (self.priorities[p.index()], std::cmp::Reverse(p.index())))
            .expect("non-empty");
        if self.change_points.last().is_some_and(|&cp| view.step >= cp) {
            self.change_points.pop();
            self.priorities[top.index()] = self.demote_next;
            self.demote_next = self.demote_next.saturating_sub(1);
            // Re-pick under the new priority table.
            return view
                .pending
                .iter()
                .map(|p| p.pid)
                .max_by_key(|p| (self.priorities[p.index()], std::cmp::Reverse(p.index())))
                .expect("non-empty");
        }
        top
    }

    fn name(&self) -> String {
        format!("pct(d={})", self.depth)
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

    fn view<'a>(n: usize, p: &'a [PendingInfo]) -> View<'a> {
        View {
            step: 0,
            n,
            pending: p,
            memory: None,
        }
    }

    #[test]
    fn priority_always_picks_top_live() {
        let mut sched = PriorityScheduler::descending(3);
        let p = pending(&[0, 1, 2]);
        assert_eq!(sched.choose(&view(3, &p)), ProcessId(0));
        let p = pending(&[1, 2]);
        assert_eq!(sched.choose(&view(3, &p)), ProcessId(1));
    }

    #[test]
    fn priority_with_explicit_table() {
        let mut sched = PriorityScheduler::with_priorities(vec![1, 9, 5]);
        let p = pending(&[0, 1, 2]);
        assert_eq!(sched.choose(&view(3, &p)), ProcessId(1));
    }

    #[test]
    fn noiseless_scheduler_is_nearly_fair() {
        let mut sched = NoisyScheduler::new(3, 0.0, 11);
        let p = pending(&[0, 1, 2]);
        let v = view(3, &p);
        let mut counts = [0usize; 3];
        for _ in 0..300 {
            counts[sched.choose(&v).index()] += 1;
        }
        for &c in &counts {
            assert!((95..=105).contains(&c), "counts: {counts:?}");
        }
    }

    #[test]
    fn noisy_scheduler_eventually_diverges() {
        // With large noise, step counts should become visibly unequal over a
        // long horizon — the property §4.2's termination argument relies on.
        let mut sched = NoisyScheduler::new(2, 0.8, 5);
        let p = pending(&[0, 1]);
        let v = view(2, &p);
        let mut counts = [0i64; 2];
        for _ in 0..10_000 {
            counts[sched.choose(&v).index()] += 1;
        }
        assert!(
            (counts[0] - counts[1]).abs() > 20,
            "expected drift, got {counts:?}"
        );
    }

    #[test]
    fn shuffled_priorities_are_a_permutation() {
        let sched = PriorityScheduler::shuffled(10, 3);
        let mut prio = sched.priority.clone();
        prio.sort_unstable();
        assert_eq!(prio, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn negative_sigma_rejected() {
        NoisyScheduler::new(2, -1.0, 0);
    }

    #[test]
    fn quantum_scheduler_runs_bursts() {
        let mut sched = QuantumScheduler::new(3);
        let p = pending(&[0, 1]);
        let v = view(2, &p);
        let picks: Vec<usize> = (0..8).map(|_| sched.choose(&v).index()).collect();
        assert_eq!(picks, vec![0, 0, 0, 1, 1, 1, 0, 0]);
    }

    #[test]
    fn quantum_scheduler_skips_halted_mid_quantum() {
        let mut sched = QuantumScheduler::new(4);
        let both = pending(&[0, 1]);
        let v_both = view(2, &both);
        assert_eq!(sched.choose(&v_both).index(), 0);
        // p0 halts; the rest of its quantum must pass to p1.
        let only1 = pending(&[1]);
        let v_only1 = view(2, &only1);
        assert_eq!(sched.choose(&v_only1).index(), 1);
    }

    #[test]
    #[should_panic(expected = "quantum must be positive")]
    fn zero_quantum_rejected() {
        QuantumScheduler::new(0);
    }

    #[test]
    fn pct_depth_one_is_fixed_priority() {
        // No change points: the same process runs whenever it is live.
        let mut sched = PctScheduler::new(1, 100, 4);
        let p = pending(&[0, 1, 2]);
        let v = view(3, &p);
        let first = sched.choose(&v);
        for _ in 0..20 {
            assert_eq!(sched.choose(&v), first);
        }
    }

    #[test]
    fn pct_demotes_at_change_points() {
        // Depth 4 over a tiny horizon forces demotions early; with 2 live
        // processes each demotion flips who runs, so both must appear.
        let mut sched = PctScheduler::new(4, 4, 9);
        let p = pending(&[0, 1]);
        let mut seen = [false; 2];
        for step in 0..4 {
            let v = View {
                step,
                n: 2,
                pending: &p,
                memory: None,
            };
            seen[sched.choose(&v).index()] = true;
        }
        assert_eq!(seen, [true, true]);
    }

    #[test]
    fn pct_is_reproducible() {
        let picks = |seed| {
            let mut sched = PctScheduler::new(3, 50, seed);
            let p = pending(&[0, 1, 2, 3]);
            (0..50u64)
                .map(|step| {
                    let v = View {
                        step,
                        n: 4,
                        pending: &p,
                        memory: None,
                    };
                    sched.choose(&v).index()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8));
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn pct_zero_depth_rejected() {
        PctScheduler::new(0, 10, 0);
    }
}
