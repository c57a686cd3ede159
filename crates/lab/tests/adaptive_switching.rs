//! The adaptive conciliator policy, end to end on real runtime threads: a
//! hostile lab schedule degrades the measured δ̂ window, the next recycle
//! flips the portfolio to the shared coin, and the flip is announced as a
//! `conciliator_selected` telemetry event — on the aggregating counters
//! *and* in the JSONL stream an operator would actually tail.

use std::sync::Arc;

use mc_lab::Lab;
use mc_model::{OpKind, ProcessId, RegisterId, Value};
use mc_runtime::{AdaptiveConsensus, AdaptiveOptions, CoinKind, ConciliatorChoice, Consensus};
use mc_sim::{Adversary, Capability, View};
use mc_telemetry::{
    AggregatingRecorder, ConciliatorKind, JsonlRecorder, MultiRecorder, Recorder, Tally,
};

/// An adaptive scheduler that splits first-mover conciliators on demand.
///
/// The runtime's impatient conciliator only returns values through *reads*,
/// so an attacker that merely floods writes (the sim-tuned `SplitKeeper`)
/// herds every reader onto the final write and achieves nothing. A split
/// needs two landed writes of different values with a read captured in
/// between, which this scheduler engineers directly:
///
/// 1. **Arm** — while the raced register is ⊥, a racer whose probabilistic
///    write just failed is immediately cycled through its (harmless) re-read
///    so it re-issues the write at the next, higher probability. Invariant:
///    every racer except the one being fired holds a pending write.
/// 2. **Pump** — fire the lowest-probability pending write, keeping the
///    racers' impatience levels in lockstep so that whenever a write lands,
///    the opposite value side is armed at a comparable probability.
/// 3. **Capture** — once a write lands, the lander's own re-read is the only
///    pending read on the register; firing it makes one process exit the
///    conciliator with the landed value.
/// 4. **Overwrite** — the armed opposite-value writes are fired (most likely
///    first). If one lands, every remaining reader adopts the new value and
///    the conciliator outputs disagree, burning the stage.
///
/// Landings are probabilistic, so not every stage splits — but enough do to
/// drag the measured δ̂ well below a healthy scheduler's ≈ 1.0. Each
/// successful overwrite debits `splits_left`; once the budget is gone the
/// scheduler degrades to a benign least-advanced round-robin so every decide
/// still terminates.
struct DegradingScheduler {
    splits_left: u32,
    /// Register value observed on the previous step, for flip detection.
    last: Option<(RegisterId, Value)>,
    /// Whether a reader has been captured on the currently landed value.
    captured: bool,
}

impl DegradingScheduler {
    fn new(splits: u32) -> DegradingScheduler {
        DegradingScheduler {
            splits_left: splits,
            last: None,
            captured: false,
        }
    }

    fn attack(&mut self, view: &View<'_>) -> Option<ProcessId> {
        // The raced register: target of the most pending probabilistic
        // writes (processes can straddle stages; attack the crowded one).
        let prob_writes: Vec<_> = view
            .pending
            .iter()
            .filter(|p| p.kind == Some(OpKind::ProbWrite) && p.reg.is_some())
            .collect();
        let reg = prob_writes
            .iter()
            .map(|p| p.reg.expect("filtered on Some"))
            .max_by_key(|&r| (prob_writes.iter().filter(|p| p.reg == Some(r)).count(), r.0))?;
        let racers: Vec<_> = prob_writes.iter().filter(|p| p.reg == Some(reg)).collect();
        let landed = view.memory?.read(reg);

        // Track landings and flips on the raced register.
        match (self.last, landed) {
            (Some((r, old)), Some(now)) if r == reg && old != now => {
                // An overwrite landed past a captured reader: that is the
                // split. Debit the budget and start over on the next stage.
                self.splits_left = self.splits_left.saturating_sub(1);
                self.captured = false;
            }
            (None, Some(_)) | (Some(_), Some(_)) => {}
            (_, None) => self.captured = false,
        }
        self.last = landed.map(|v| (reg, v));

        match landed {
            None => {
                // Arm: a racer that just failed its write has a harmless
                // re-read pending — cycle it so it re-issues at higher p.
                if let Some(p) = view
                    .pending
                    .iter()
                    .find(|p| p.kind == Some(OpKind::Read) && p.reg == Some(reg))
                {
                    return Some(p.pid);
                }
                // A split needs both values racing; a lone value side can
                // only agree with itself, so let the laggards catch up.
                let values: Vec<_> = racers.iter().filter_map(|p| p.value).collect();
                if !values.iter().any(|&v| v != values[0]) {
                    return None;
                }
                // Pump: fire the least-likely attempt, keeping both sides'
                // impatience in lockstep.
                racers
                    .iter()
                    .min_by(|a, b| {
                        a.prob
                            .partial_cmp(&b.prob)
                            .expect("probabilities compare")
                            .then(a.pid.0.cmp(&b.pid.0))
                    })
                    .map(|p| p.pid)
            }
            Some(v) => {
                // Capture: the lander's re-read is the only read pending on
                // the register — fire it so one process exits with `v`.
                if !self.captured {
                    if let Some(rd) = view
                        .pending
                        .iter()
                        .filter(|p| p.kind == Some(OpKind::Read) && p.reg == Some(reg))
                        .max_by_key(|p| (p.ops_done, p.pid.0))
                    {
                        self.captured = true;
                        return Some(rd.pid);
                    }
                }
                // Overwrite: fire the armed opposite-value write most likely
                // to land. If none is pending the round is spoiled; fall
                // back so the remaining readers herd and the stage resolves.
                racers
                    .iter()
                    .filter(|p| p.value.is_some() && p.value != Some(v))
                    .max_by(|a, b| {
                        a.prob
                            .partial_cmp(&b.prob)
                            .expect("probabilities compare")
                            .then(b.pid.0.cmp(&a.pid.0))
                    })
                    .map(|p| p.pid)
            }
        }
    }
}

impl Adversary for DegradingScheduler {
    fn capability(&self) -> Capability {
        Capability::Adaptive
    }

    fn choose(&mut self, view: &View<'_>) -> ProcessId {
        debug_assert!(!view.pending.is_empty());
        if self.splits_left > 0 {
            if let Some(pid) = self.attack(view) {
                return pid;
            }
        }
        // Benign fallback: least-advanced first, lowest pid on ties.
        view.pending
            .iter()
            .min_by_key(|p| (p.ops_done, p.pid.0))
            .expect("non-empty pending")
            .pid
    }

    fn name(&self) -> String {
        "degrading-scheduler".to_string()
    }
}

#[test]
fn hostile_schedule_switches_to_the_coin_and_announces_it() {
    let n = 3;
    let options = AdaptiveOptions {
        window: 8,
        min_samples: 4,
        delta_threshold: 0.5,
        coin: CoinKind::Voting { quorum_factor: 1 },
    };
    let agg = Arc::new(AggregatingRecorder::new());
    let (jsonl, buffer) = JsonlRecorder::in_memory();
    let recorder: Arc<dyn Recorder> = Arc::new(MultiRecorder::new(vec![
        Arc::clone(&agg) as Arc<dyn Recorder>,
        Arc::new(jsonl),
    ]));

    let mut lab = Lab::new(n, Box::new(DegradingScheduler::new(4)), &[], 500_000);
    let mut consensus = AdaptiveConsensus::from_consensus(
        Consensus::builder()
            .n(n)
            .memory(lab.memory())
            .conciliator(ConciliatorChoice::Adaptive(options))
            .recorder(recorder)
            .build(),
    );
    assert_eq!(consensus.selected(), ConciliatorKind::Impatient);

    let mut switched_at = None;
    for epoch in 0..12u64 {
        let report = lab
            .run(epoch, |pid, rng| {
                consensus.decide_as(pid, pid as u64 % 2, rng)
            })
            .expect("epoch must terminate");
        let first = report.decisions[0].expect("pid 0 decided");
        assert!(
            report.decisions.iter().all(|&d| d == Some(first)),
            "epoch {epoch}: {:?}",
            report.decisions
        );
        consensus.reset();
        lab.reset_epoch(Box::new(DegradingScheduler::new(4)), &[]);
        if consensus.selected() == ConciliatorKind::Coin {
            switched_at = Some(epoch);
            break;
        }
    }
    let switched_at = switched_at.unwrap_or_else(|| {
        panic!(
            "δ̂ window never degraded past the threshold; last estimate {:?}",
            consensus.delta_hat()
        )
    });
    // The flip required a full window, never a thin one.
    assert!(
        (switched_at + 1) as usize * n >= options.min_samples,
        "switched on {} decides, min_samples is {}",
        (switched_at + 1) as usize * n,
        options.min_samples
    );

    // One more epoch on the switched instance: the voting-coin conciliator
    // decides and agrees on the same hostile substrate.
    let report = lab
        .run(99, |pid, rng| consensus.decide_as(pid, pid as u64 % 2, rng))
        .expect("coin epoch must terminate");
    let first = report.decisions[0].expect("pid 0 decided");
    assert!(report.decisions.iter().all(|&d| d == Some(first)));

    // The selection history reached both recorders: the initial impatient
    // resolution plus one per reset, at least one of which picked the coin.
    assert!(agg.count(Tally::ConciliatorSelections) >= 2);
    assert!(agg.count(Tally::CoinSelections) >= 1);
    let stream = String::from_utf8(buffer.lock().expect("buffer").clone()).expect("utf8 jsonl");
    assert!(
        stream.contains("conciliator_selected"),
        "no selection event in the JSONL stream"
    );
    assert!(
        stream.contains(r#""choice":"coin""#),
        "the coin selection never reached the JSONL stream"
    );
    assert!(
        stream.contains(r#""delta_hat":"#),
        "the switch should carry the degraded estimate"
    );
}
