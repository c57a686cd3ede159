//! Property-based tests of the telemetry layer: work-metric invariants,
//! exact reconciliation between the simulator's native `WorkMetrics` and
//! the replayed `Recorder` event stream, and well-formedness of the JSONL
//! export.

use modular_consensus::prelude::*;
use modular_consensus::sim::observe;
use modular_consensus::telemetry::{json, AggregatingRecorder, JsonlRecorder};
use proptest::prelude::*;

/// One seeded consensus run with trace recording on.
fn traced_run(n: usize, m: u64, seed: u64) -> modular_consensus::sim::harness::RunOutcome {
    let spec = ConsensusBuilder::multivalued(m).build();
    let ins = harness::inputs::random(n, m, seed ^ 0x7E1E);
    harness::run_object(
        &spec,
        &ins,
        &mut adversary::RandomScheduler::new(seed),
        seed,
        &EngineConfig::default().with_trace(),
    )
    .expect("consensus run terminates")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Total work dominates individual work: the max over processes can
    /// never exceed the sum over processes.
    #[test]
    fn total_work_dominates_individual_work(n in 1usize..8, m in 2u64..5, seed in 0u64..50_000) {
        let out = traced_run(n, m, seed);
        prop_assert!(out.metrics.total_work() >= out.metrics.individual_work());
        // And both decompose over the per-process vector.
        prop_assert_eq!(
            out.metrics.total_work(),
            out.metrics.per_process.iter().sum::<u64>()
        );
        prop_assert_eq!(
            out.metrics.individual_work(),
            out.metrics.per_process.iter().copied().max().unwrap_or(0)
        );
    }

    /// A probabilistic write can land at most once per attempt.
    #[test]
    fn prob_writes_performed_bounded_by_attempted(n in 1usize..8, m in 2u64..5, seed in 0u64..50_000) {
        let out = traced_run(n, m, seed);
        prop_assert!(out.metrics.prob_writes_performed <= out.metrics.prob_writes_attempted);
    }

    /// The event stream replayed from a seeded run's trace reconciles
    /// exactly with the engine's own work accounting: same total, same
    /// per-process counts, same probabilistic-write tallies.
    #[test]
    fn event_stream_reconciles_with_work_metrics(n in 1usize..8, m in 2u64..5, seed in 0u64..50_000) {
        let out = traced_run(n, m, seed);
        let agg = AggregatingRecorder::new();
        let emitted = observe::export_run(seed, out.trace.as_ref(), &out.metrics, &agg);
        // One op event per trace step (the work summary is extra).
        prop_assert_eq!(emitted, out.metrics.total_work());
        prop_assert_eq!(agg.count(Tally::Ops), out.metrics.total_work());
        prop_assert_eq!(agg.individual_ops(), out.metrics.individual_work());
        prop_assert_eq!(agg.per_process_ops(), out.metrics.per_process.clone());
        prop_assert_eq!(agg.count(Tally::ProbWritesAttempted), out.metrics.prob_writes_attempted);
        prop_assert_eq!(agg.count(Tally::ProbWritesPerformed), out.metrics.prob_writes_performed);
    }

    /// Every line a `JsonlRecorder` writes is a complete, valid JSON
    /// document, and the `seq` stamps are consecutive from 0.
    #[test]
    fn jsonl_output_is_valid_json_per_line(n in 1usize..7, m in 2u64..4, seed in 0u64..20_000) {
        let out = traced_run(n, m, seed);
        let (recorder, buf) = JsonlRecorder::in_memory();
        observe::export_run(seed, out.trace.as_ref(), &out.metrics, &recorder);
        let bytes = buf.lock().unwrap().clone();
        let text = String::from_utf8(bytes).expect("JSONL is UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        prop_assert_eq!(lines.len() as u64, recorder.events_written());
        for (ix, line) in lines.iter().enumerate() {
            json::validate(line)
                .unwrap_or_else(|e| panic!("line {ix} is not valid JSON ({e}): {line}"));
            let stamp = format!("\"seq\":{ix}");
            prop_assert!(line.contains(&stamp), "line {} lacks {}: {}", ix, stamp, line);
        }
        // The last line is the work summary carrying the run's seed.
        let last = lines.last().expect("at least one event");
        prop_assert!(last.contains("\"ev\":\"work_summary\""));
        let seed_stamp = format!("\"seed\":{seed}");
        prop_assert!(last.contains(&seed_stamp));
    }

    /// The lab substrate feeds the same export pipeline: a real-thread run
    /// under the deterministic scheduler produces a trace and metrics whose
    /// replayed event stream — including the `work_summary` event —
    /// reconciles exactly with the lab's own accounting, just as sim runs
    /// do. (The lab emits sim-vocabulary traces precisely so this holds.)
    #[test]
    fn lab_event_stream_reconciles_with_work_metrics(n in 1usize..6, seed in 0u64..50_000) {
        use modular_consensus::lab::Lab;
        use modular_consensus::runtime::Consensus;

        let lab = Lab::new(n, Box::new(adversary::RandomScheduler::new(seed)), &[], 100_000);
        let consensus = Consensus::builder().n(n).memory(lab.memory()).build();
        let report = lab
            .run(seed, |pid, rng| consensus.decide(pid as u64 % 2, rng))
            .expect("lab run terminates");

        let agg = AggregatingRecorder::new();
        let emitted = observe::export_run(seed, Some(&report.trace), &report.metrics, &agg);
        prop_assert_eq!(emitted, report.metrics.total_work());
        prop_assert_eq!(agg.count(Tally::Ops), report.metrics.total_work());
        prop_assert_eq!(agg.individual_ops(), report.metrics.individual_work());
        prop_assert_eq!(agg.per_process_ops(), report.metrics.per_process.clone());
        prop_assert_eq!(agg.count(Tally::ProbWritesAttempted), report.metrics.prob_writes_attempted);
        prop_assert_eq!(agg.count(Tally::ProbWritesPerformed), report.metrics.prob_writes_performed);
        // The trace itself accounts for every counted operation.
        prop_assert_eq!(report.trace.len() as u64, report.metrics.total_work());
    }

    /// And the lab's `work_summary` JSONL line is well-formed and carries
    /// the run seed — the contract downstream dashboards rely on, now
    /// guaranteed for both execution substrates.
    #[test]
    fn lab_work_summary_exports_valid_jsonl(n in 1usize..5, seed in 0u64..20_000) {
        use modular_consensus::lab::Lab;
        use modular_consensus::runtime::Consensus;

        let lab = Lab::new(n, Box::new(adversary::RandomScheduler::new(seed)), &[], 100_000);
        let consensus = Consensus::builder().n(n).memory(lab.memory()).build();
        let report = lab
            .run(seed, |pid, rng| consensus.decide(pid as u64 % 2, rng))
            .expect("lab run terminates");

        let (recorder, buf) = JsonlRecorder::in_memory();
        observe::export_run(seed, Some(&report.trace), &report.metrics, &recorder);
        let bytes = buf.lock().unwrap().clone();
        let text = String::from_utf8(bytes).expect("JSONL is UTF-8");
        let last = text.lines().last().expect("at least one event");
        json::validate(last).unwrap_or_else(|e| panic!("invalid JSON ({e}): {last}"));
        prop_assert!(last.contains("\"ev\":\"work_summary\""));
        let seed_stamp = format!("\"seed\":{seed}");
        prop_assert!(last.contains(&seed_stamp));
    }
}

/// One bounded-consensus run over fault-injected lab memory, returning the
/// pieces every reconciliation check needs: the fault layer's own counters,
/// the runtime telemetry, and whatever the recorder accumulated.
fn faulted_bounded_run(
    n: usize,
    seed: u64,
    recorder: std::sync::Arc<dyn Recorder>,
) -> (
    modular_consensus::runtime::FaultCounts,
    u64,      // telemetry.count(CounterKey::FaultsInjected)
    u64,      // telemetry.count(CounterKey::FallbacksTaken)
    [u64; 4], // per-class telemetry counters
) {
    use modular_consensus::lab::Lab;
    use modular_consensus::quorums::BinaryScheme;
    use std::sync::Arc;

    let lab = Lab::new(
        n,
        Box::new(adversary::RandomScheduler::new(seed)),
        &[],
        400_000,
    );
    let plan = FaultPlan::seeded(seed)
        .lost_prob_writes(0.3)
        .stale_reads(0.2)
        .delayed_writes(0.2, 3)
        .register_resets(0.05);
    let memory = FaultyMemory::new(lab.memory(), plan);
    let consensus = Consensus::builder()
        .n(n)
        .scheme(Arc::new(BinaryScheme::new()))
        .max_conciliator_rounds(2)
        .recorder(recorder)
        .memory(memory.clone())
        .build_bounded();
    let memory = memory.observed_by(Arc::clone(consensus.telemetry_handle()));
    lab.run(seed, |pid, rng| consensus.decide(pid, pid as u64 % 2, rng))
        .expect("bounded run over faulty memory terminates");
    let telemetry = consensus.telemetry();
    (
        memory.fault_counts(),
        telemetry.count(CounterKey::FaultsInjected),
        telemetry.count(CounterKey::FallbacksTaken),
        [
            telemetry.count(CounterKey::FaultsLostProbWrites),
            telemetry.count(CounterKey::FaultsStaleReads),
            telemetry.count(CounterKey::FaultsDelayedCommits),
            telemetry.count(CounterKey::FaultsRegisterResets),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every fault the injection layer delivers is triple-accounted: the
    /// layer's own counters, the runtime telemetry snapshot, and the
    /// recorder's aggregated event stream agree — in total, per class, and
    /// on the fallback tally.
    #[test]
    fn fault_events_reconcile_across_all_three_ledgers(n in 2usize..5, seed in 0u64..20_000) {
        use std::sync::Arc;

        let agg = Arc::new(AggregatingRecorder::new());
        let (counts, tel_total, tel_fallbacks, per_class) =
            faulted_bounded_run(n, seed, Arc::clone(&agg) as Arc<dyn Recorder>);

        prop_assert_eq!(tel_total, counts.total());
        prop_assert_eq!(per_class[0], counts.lost_prob_writes);
        prop_assert_eq!(per_class[1], counts.stale_reads);
        prop_assert_eq!(per_class[2], counts.delayed_commits);
        prop_assert_eq!(per_class[3], counts.register_resets);
        prop_assert_eq!(agg.count(Tally::FaultsInjected), counts.total());
        prop_assert_eq!(agg.count(Tally::FallbacksTaken), tel_fallbacks);
    }

    /// The JSONL export carries one well-formed `fault_injected` line per
    /// delivered fault and one `fallback_taken` line per fallback — the
    /// event stream neither drops nor duplicates faults.
    #[test]
    fn fault_events_export_one_jsonl_line_each(n in 2usize..5, seed in 0u64..20_000) {
        use std::sync::Arc;

        let (recorder, buf) = JsonlRecorder::in_memory();
        let (counts, _, tel_fallbacks, _) =
            faulted_bounded_run(n, seed, Arc::new(recorder) as Arc<dyn Recorder>);

        let bytes = buf.lock().unwrap().clone();
        let text = String::from_utf8(bytes).expect("JSONL is UTF-8");
        let mut fault_lines = 0u64;
        let mut fallback_lines = 0u64;
        for (ix, line) in text.lines().enumerate() {
            json::validate(line)
                .unwrap_or_else(|e| panic!("line {ix} is not valid JSON ({e}): {line}"));
            if line.contains("\"ev\":\"fault_injected\"") {
                fault_lines += 1;
            }
            if line.contains("\"ev\":\"fallback_taken\"") {
                fallback_lines += 1;
            }
        }
        prop_assert_eq!(fault_lines, counts.total());
        prop_assert_eq!(fallback_lines, tel_fallbacks);
    }
}

/// One seeded chaos-service run: drain-boundary panics force worker
/// restarts with cell re-admission. Returns the runtime telemetry's own
/// view — `[worker_restarts, resubmitted_cells]` and the queue-depth
/// gauge's `[value, max]` — plus its rendered snapshot; the recorder's view
/// stays with the caller.
fn chaos_service_run(
    seed: u64,
    panics: u32,
    recorder: std::sync::Arc<dyn Recorder>,
) -> ([u64; 2], [u64; 2], modular_consensus::telemetry::Snapshot) {
    use modular_consensus::runtime::{ChaosPlan, ConsensusService, SupervisorOptions};
    use std::time::Duration;

    let service = ConsensusService::builder()
        .n(2)
        .values(64)
        .participants(1)
        .shards(1)
        .seed(seed)
        .chaos(ChaosPlan::seeded(seed).panic_every(1, panics))
        .supervisor(SupervisorOptions {
            restart_budget: panics + 1,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(200),
        })
        .recorder(recorder)
        .build();

    // Decide through the chaos: every drain panics until the plan's budget
    // is spent, so the worker restarts exactly `panics` times, re-admitting
    // each drained batch exactly once.
    let handles: Vec<_> = (0..8u64)
        .map(|i| service.submit(i, i).expect("queue has room"))
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        assert_eq!(handle.wait(), Ok(i as u64), "seed {seed}");
    }

    let telemetry = std::sync::Arc::clone(service.engine().telemetry_handle());
    drop(service);
    let snapshot = telemetry.snapshot();
    (
        [
            telemetry.count(CounterKey::WorkerRestarts),
            telemetry.count(CounterKey::ResubmittedCells),
        ],
        [
            telemetry.gauge(GaugeKey::QueueDepth),
            telemetry.gauge_max(GaugeKey::QueueDepth),
        ],
        snapshot,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Supervision activity is triple-accounted: the runtime telemetry
    /// counters, the recorder's aggregated event stream, and the rendered
    /// snapshot (JSON and Prometheus included) agree on restarts and
    /// re-admitted cells, and the snapshot renders the queue-depth gauge
    /// the run left behind.
    #[test]
    fn chaos_metrics_reconcile_across_all_three_ledgers(
        seed in 0u64..10_000,
        panics in 1u32..4,
    ) {
        use std::sync::Arc;

        let agg = Arc::new(AggregatingRecorder::new());
        let ([restarts, resubmitted], [depth, max_depth], snapshot) =
            chaos_service_run(seed, panics, Arc::clone(&agg) as Arc<dyn Recorder>);

        // The run is deterministic in shape: the chaos plan spends its full
        // panic budget, and the drained service leaves an empty queue that
        // did hold proposals.
        prop_assert_eq!(restarts, u64::from(panics));
        prop_assert_eq!(depth, 0, "queue left non-empty");
        prop_assert!(max_depth > 0, "queue never held a proposal");

        // Ledger 2: the recorder folded the same events.
        prop_assert_eq!(agg.count(Tally::WorkerRestarts), restarts);
        prop_assert_eq!(agg.count(Tally::ResubmittedCells), resubmitted);

        // Ledger 3: the snapshot renders the same numbers everywhere.
        prop_assert_eq!(snapshot.counter_value("worker_restarts"), Some(restarts));
        prop_assert_eq!(snapshot.counter_value("resubmitted_cells"), Some(resubmitted));
        let json = snapshot.to_json();
        prop_assert!(
            json.contains(&format!("\"queue_depth\":{{\"value\":0,\"max\":{max_depth}}}")),
            "snapshot JSON lacks the queue-depth gauge: {json}"
        );
        let prom = snapshot.to_prometheus();
        prop_assert!(
            prom.contains("\nqueue_depth 0\n"),
            "Prometheus export lacks the queue-depth gauge: {prom}"
        );
        let max_line = format!("\nqueue_depth_max {max_depth}\n");
        prop_assert!(prom.contains(&max_line), "missing {}", max_line.trim());
        let restart_line = format!("\nworker_restarts {restarts}\n");
        prop_assert!(prom.contains(&restart_line), "missing {}", restart_line.trim());
        let resubmit_line = format!("\nresubmitted_cells {resubmitted}\n");
        prop_assert!(prom.contains(&resubmit_line), "missing {}", resubmit_line.trim());
    }

    /// The JSONL export carries one well-formed `worker_restarted` line per
    /// restart, attempts numbered consecutively from 1.
    #[test]
    fn chaos_events_export_one_jsonl_line_each(
        seed in 0u64..10_000,
        panics in 1u32..4,
    ) {
        use std::sync::Arc;

        let (recorder, buf) = JsonlRecorder::in_memory();
        let ([restarts, _], _, _) =
            chaos_service_run(seed, panics, Arc::new(recorder) as Arc<dyn Recorder>);

        let bytes = buf.lock().unwrap().clone();
        let text = String::from_utf8(bytes).expect("JSONL is UTF-8");
        let mut restart_lines = 0u64;
        for (ix, line) in text.lines().enumerate() {
            json::validate(line)
                .unwrap_or_else(|e| panic!("line {ix} is not valid JSON ({e}): {line}"));
            if line.contains("\"ev\":\"worker_restarted\"") {
                restart_lines += 1;
                let stamp = format!("\"attempt\":{restart_lines}");
                prop_assert!(line.contains(&stamp), "line {} lacks {}: {}", ix, stamp, line);
            }
        }
        prop_assert_eq!(restart_lines, restarts);
    }
}

/// A `u64` of any digit count (a uniform draw is nearly always 19–20
/// digits, which would leave the short forms of the integer formatter
/// untested).
fn any_width() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u32..64).prop_map(|(value, shift)| value >> shift)
}

/// Any event variant over random field values; `p` is sometimes
/// non-finite, `per_process` sometimes empty.
fn any_event() -> impl Strategy<Value = TelemetryEvent> {
    use modular_consensus::telemetry::{ConciliatorKind, FaultClass, OpClass, StageKind};

    (
        (0usize..13, any_width(), any_width(), any_width()),
        (any_width(), any::<bool>(), -1.0f64..2.0),
        proptest::collection::vec(any_width(), 0..40),
    )
        .prop_map(|((variant, a, b, c), (d, flag, p), per_process)| {
            let p = if d % 5 == 0 { f64::NAN } else { p };
            match variant {
                0 => TelemetryEvent::StageEntered {
                    pid: a,
                    stage: b,
                    kind: [StageKind::Ratifier, StageKind::Conciliator][flag as usize],
                },
                1 => TelemetryEvent::FastPathHit { pid: a, stage: b },
                2 => TelemetryEvent::ConciliatorRound {
                    pid: a,
                    round: b,
                    probability: p,
                },
                3 => TelemetryEvent::ProbWrite {
                    pid: a,
                    performed: flag,
                    probability: p,
                },
                4 => TelemetryEvent::RatifierVerdict {
                    pid: a,
                    stage: b,
                    decided: flag,
                    value: c,
                },
                5 => TelemetryEvent::Decided {
                    pid: a,
                    value: b,
                    stage: c,
                    latency_ns: d,
                },
                6 => TelemetryEvent::Op {
                    step: a,
                    pid: b,
                    class: [
                        OpClass::Read,
                        OpClass::Write,
                        OpClass::ProbWrite,
                        OpClass::Collect,
                    ][(c % 4) as usize],
                    performed: flag,
                },
                7 => TelemetryEvent::FaultInjected {
                    class: [
                        FaultClass::LostProbWrite,
                        FaultClass::StaleRead,
                        FaultClass::DelayedVisibility,
                        FaultClass::RegisterReset,
                    ][(c % 4) as usize],
                    register: a,
                    step: b,
                },
                8 => TelemetryEvent::ConciliatorSelected {
                    generation: a,
                    choice: [ConciliatorKind::Impatient, ConciliatorKind::Coin][flag as usize],
                    delta_hat: (c % 2 == 0).then_some(p),
                    samples: b,
                },
                9 => TelemetryEvent::FallbackTaken {
                    pid: a,
                    conciliator_stages: b,
                },
                10 => TelemetryEvent::BatchDrained {
                    shard: a,
                    batch: b,
                    queue_depth: c,
                },
                11 => TelemetryEvent::WorkerRestarted {
                    ring: a,
                    attempt: b,
                    resubmitted: c,
                    recovery_ns: d,
                },
                _ => TelemetryEvent::WorkSummary {
                    seed: a,
                    total_work: b,
                    individual_work: c,
                    prob_writes_attempted: d,
                    prob_writes_performed: a ^ b,
                    registers_allocated: b ^ c,
                    registers_touched: c ^ d,
                    per_process,
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `write_json` appends exactly what `to_json` returns, whatever the
    /// buffer already holds, and the line is valid JSON. Its head, every
    /// field of a `decided` event and the array of a `work_summary` also
    /// equal text built by `core::fmt`: the hand-written integer formatter
    /// against the standard one.
    #[test]
    fn write_json_appends_the_to_json_line(event in any_event(), seq in any_width(), stamped in any::<bool>()) {
        let seq = stamped.then_some(seq);
        let line = event.to_json(seq);
        json::validate(&line).unwrap_or_else(|e| panic!("{line}: {e}"));

        let mut reused = String::from("left over\n");
        event.write_json(seq, &mut reused);
        prop_assert_eq!(reused.strip_prefix("left over\n"), Some(line.as_str()));

        let stamp = seq.map_or(String::new(), |seq| format!(r#""seq":{seq},"#));
        let head = format!(r#"{{"ev":"{}",{stamp}"#, event.name());
        prop_assert!(line.starts_with(&head), "{} lacks {}", line, head);
        if let TelemetryEvent::Decided { pid, value, stage, latency_ns } = &event {
            let tail = format!(
                r#""pid":{pid},"value":{value},"stage":{stage},"latency_ns":{latency_ns}}}"#
            );
            prop_assert_eq!(line, head + &tail);
        } else if let TelemetryEvent::WorkSummary { per_process, .. } = &event {
            let list: Vec<String> = per_process.iter().map(u64::to_string).collect();
            let tail = format!(r#","per_process":[{}]}}"#, list.join(","));
            prop_assert!(line.ends_with(&tail), "{} lacks {}", line, tail);
        }
    }
}
