//! Export simulator results through the shared telemetry event schema.
//!
//! The simulator already produces exact accounting ([`WorkMetrics`]) and,
//! optionally, a step-level [`Trace`]. This module replays both through a
//! [`Recorder`], so a simulated run and a real-thread run emit the *same*
//! event vocabulary (`op`, `work_summary`, …) and downstream tooling —
//! JSONL files, aggregators, dashboards — cannot tell the substrates
//! apart.
//!
//! Replay is exact by construction: the engine counts one operation per
//! scheduling step and the trace records one event per step, so
//! aggregating the replayed `op` events reproduces `WorkMetrics`
//! per-process counts bit-for-bit (a property test in `crates/sim/tests`
//! holds this invariant).

use mc_model::OpKind;
use mc_telemetry::{OpClass, Recorder, TelemetryEvent};

use crate::metrics::WorkMetrics;
use crate::trace::Trace;

/// Maps the simulator's operation kind onto the telemetry vocabulary.
fn op_class(kind: OpKind) -> OpClass {
    match kind {
        OpKind::Read => OpClass::Read,
        OpKind::Write => OpClass::Write,
        OpKind::ProbWrite => OpClass::ProbWrite,
        OpKind::Collect => OpClass::Collect,
    }
}

/// Replays every traced operation as a [`TelemetryEvent::Op`]; returns the
/// number of events emitted.
///
/// For probabilistic writes the trace's `observed` field (1 = the coin
/// landed) becomes the event's `performed` flag; every other operation is
/// unconditionally `performed`.
fn replay_trace(trace: &Trace, recorder: &dyn Recorder) -> u64 {
    if !recorder.enabled() {
        return 0;
    }
    let mut emitted = 0;
    for event in trace.events() {
        let kind = event.op.kind();
        let performed = match kind {
            OpKind::ProbWrite => event.observed == Some(1),
            _ => true,
        };
        recorder.record(&TelemetryEvent::Op {
            step: event.step,
            pid: event.pid.index() as u64,
            class: op_class(kind),
            performed,
        });
        emitted += 1;
    }
    emitted
}

/// Emits one [`TelemetryEvent::WorkSummary`] mirroring `metrics`.
fn emit_summary(seed: u64, metrics: &WorkMetrics, recorder: &dyn Recorder) {
    if !recorder.enabled() {
        return;
    }
    recorder.record(&TelemetryEvent::WorkSummary {
        seed,
        total_work: metrics.total_work(),
        individual_work: metrics.individual_work(),
        prob_writes_attempted: metrics.prob_writes_attempted,
        prob_writes_performed: metrics.prob_writes_performed,
        registers_allocated: metrics.registers_allocated,
        registers_touched: metrics.registers_touched,
        per_process: metrics.per_process.clone(),
    });
}

/// Exports a completed run: the trace (when recorded) followed by the work
/// summary. Returns the number of `op` events emitted.
pub fn export_run(
    seed: u64,
    trace: Option<&Trace>,
    metrics: &WorkMetrics,
    recorder: &dyn Recorder,
) -> u64 {
    let emitted = trace.map_or(0, |t| replay_trace(t, recorder));
    emit_summary(seed, metrics, recorder);
    emitted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Event;
    use mc_model::{Op, ProcessId, RegisterId};
    use mc_telemetry::{AggregatingRecorder, NoopRecorder, Tally};

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.push(Event {
            step: 0,
            pid: ProcessId(0),
            op: Op::Read(RegisterId(0)),
            observed: Some(3),
        });
        t.push(Event {
            step: 1,
            pid: ProcessId(1),
            op: Op::ProbWrite {
                reg: RegisterId(0),
                value: 9,
                prob: mc_model::Probability::new(0.5).unwrap(),
            },
            observed: Some(1),
        });
        t.push(Event {
            step: 2,
            pid: ProcessId(1),
            op: Op::ProbWrite {
                reg: RegisterId(0),
                value: 9,
                prob: mc_model::Probability::new(0.5).unwrap(),
            },
            observed: Some(0),
        });
        t
    }

    #[test]
    fn replay_counts_match_the_trace() {
        let agg = AggregatingRecorder::new();
        let emitted = replay_trace(&sample_trace(), &agg);
        assert_eq!(emitted, 3);
        assert_eq!(agg.count(Tally::Ops), 3);
        assert_eq!(agg.per_process_ops(), vec![1, 2]);
        assert_eq!(agg.count(Tally::ProbWritesAttempted), 2);
        assert_eq!(agg.count(Tally::ProbWritesPerformed), 1);
    }

    #[test]
    fn summary_round_trips_metrics() {
        let mut metrics = WorkMetrics::new(2);
        metrics.per_process = vec![4, 6];
        metrics.prob_writes_attempted = 3;
        metrics.prob_writes_performed = 2;
        metrics.registers_allocated = 5;
        metrics.registers_touched = 4;
        let agg = AggregatingRecorder::new();
        emit_summary(11, &metrics, &agg);
        assert_eq!(agg.count(Tally::Events), 1);
    }

    #[test]
    fn disabled_recorder_skips_all_work() {
        assert_eq!(replay_trace(&sample_trace(), &NoopRecorder), 0);
        assert_eq!(
            export_run(
                0,
                Some(&sample_trace()),
                &WorkMetrics::new(1),
                &NoopRecorder
            ),
            0
        );
    }
}
