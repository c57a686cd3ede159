//! A tour of the telemetry layer: run consensus on both substrates with
//! recorders attached, then read the histograms against the paper's
//! Theorem 7 bounds.
//!
//! Three stops:
//!
//! 1. **Runtime**: many rounds of real-thread binary consensus with an
//!    [`AggregatingRecorder`] and the `R₋₁; R₀` fast path disabled (so the
//!    conciliators actually run), checking the probability-doubling round
//!    histogram against the `2⌈lg n⌉ + O(1)` individual-work bound of
//!    Theorem 7 and printing decide-latency quantiles.
//! 2. **Simulator**: one traced run replayed through the same recorder
//!    type, reconciled op-for-op against the engine's own `WorkMetrics`.
//! 3. **Export**: the runtime snapshot rendered as text, JSON, and
//!    Prometheus exposition.
//!
//! Run with: `cargo run --release --example telemetry_tour`

use std::sync::{Arc, Barrier};

use modular_consensus::analysis::theory;
use modular_consensus::core::protocol::ConsensusBuilder;
use modular_consensus::runtime::{Consensus, CounterKey};
use modular_consensus::sim::adversary::RandomScheduler;
use modular_consensus::sim::harness::{self, inputs};
use modular_consensus::sim::{observe, EngineConfig};
use modular_consensus::telemetry::{AggregatingRecorder, Recorder, Tally};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let n = 8usize;
    let rounds = 60u64;

    // ── Stop 1: real threads, aggregated events ────────────────────────
    println!("── runtime: {rounds} rounds of binary consensus, n = {n} ──");
    let agg = Arc::new(AggregatingRecorder::new());
    for round in 0..rounds {
        // No R₋₁;R₀ prefix: all processes are released at once, but under
        // the benign OS scheduler the fast path would still absorb nearly
        // every decide, leaving nothing for the conciliator histograms
        // this tour is about.
        let consensus = Arc::new(
            Consensus::builder()
                .n(n)
                .fast_path(false)
                .recorder(Arc::clone(&agg) as Arc<dyn Recorder>)
                .build(),
        );
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n as u64)
            .map(|t| {
                let c = Arc::clone(&consensus);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(round * 1_000 + t);
                    barrier.wait();
                    c.decide((t + round) % 2, &mut rng)
                })
            })
            .collect();
        let decisions: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(decisions.windows(2).all(|w| w[0] == w[1]), "agreement");
    }

    let decisions = agg.count(Tally::Decisions);
    assert_eq!(decisions, rounds * n as u64);
    println!("decisions          : {decisions}");
    println!(
        "conciliator rounds : {} across {} prob-writes ({} landed)",
        agg.count(Tally::ConciliatorRounds),
        agg.count(Tally::ProbWritesAttempted),
        agg.count(Tally::ProbWritesPerformed)
    );
    assert!(
        agg.count(Tally::ConciliatorRounds) > 0,
        "conciliators must have run"
    );

    // Theorem 7: each conciliator call costs at most 2⌈lg n⌉ + O(1)
    // operations, so the probability-doubling round index is bounded by
    // ⌈lg n⌉ plus a small constant. The OS scheduler is far kinder than
    // the adversary the bound is proved against, so a generous slack
    // suffices to catch instrumentation bugs without flaking.
    let lg_n = theory::ceil_lg(n as u64);
    let max_round = agg.count(Tally::MaxRound);
    println!("max doubling round : {max_round} (⌈lg n⌉ = {lg_n})");
    assert!(
        max_round <= 2 * lg_n + 8,
        "round {max_round} way past the Theorem 7 regime"
    );

    let stage_hist = agg.rounds_to_decide();
    println!(
        "deciding stage     : mean {:.2}, p99 ≤ {}, max {}",
        stage_hist.mean(),
        stage_hist.quantile_upper(0.99),
        stage_hist.max()
    );
    let latency = agg.decide_latency_ns();
    println!(
        "decide latency     : median ≤ {}ns, p99 ≤ {}ns",
        latency.quantile_upper(0.5),
        latency.quantile_upper(0.99)
    );

    // ── Stop 2: the simulator speaks the same schema ───────────────────
    println!("\n── simulator: traced run replayed through a recorder ──");
    let spec = ConsensusBuilder::binary().build();
    let ins = inputs::alternating(n, 2);
    let out = harness::run_object(
        &spec,
        &ins,
        &mut RandomScheduler::new(7),
        7,
        &EngineConfig::default().with_trace(),
    )
    .expect("sim run");
    let sim_agg = AggregatingRecorder::new();
    let emitted = observe::export_run(7, out.trace.as_ref(), &out.metrics, &sim_agg);
    println!("events replayed    : {emitted}");
    println!("engine metrics     : {}", out.metrics);

    // Exact reconciliation: the replayed event stream carries the same
    // counts the engine tallied natively.
    assert_eq!(sim_agg.count(Tally::Ops), out.metrics.total_work());
    assert_eq!(sim_agg.individual_ops(), out.metrics.individual_work());
    assert_eq!(sim_agg.per_process_ops(), out.metrics.per_process);
    assert_eq!(
        sim_agg.count(Tally::ProbWritesAttempted),
        out.metrics.prob_writes_attempted
    );
    assert_eq!(
        sim_agg.count(Tally::ProbWritesPerformed),
        out.metrics.prob_writes_performed
    );
    println!("reconciliation     : event stream == WorkMetrics ✓");

    // ── Stop 3: snapshot export formats ────────────────────────────────
    println!("\n── snapshot of one more instrumented runtime object ──");
    let consensus = Arc::new(Consensus::builder().n(n).build());
    let handles: Vec<_> = (0..n as u64)
        .map(|t| {
            let c = Arc::clone(&consensus);
            std::thread::spawn(move || c.decide(t % 2, &mut SmallRng::seed_from_u64(t)))
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // One metric by key; `snapshot()` walks the same table.
    let telemetry = consensus.telemetry();
    assert_eq!(telemetry.count(CounterKey::Decisions), n as u64);
    let snap = telemetry.snapshot();
    println!("{}", snap.to_text());
    let json = snap.to_json();
    modular_consensus::telemetry::json::validate(&json).expect("snapshot JSON is valid");
    println!("json bytes         : {}", json.len());
    let prom = snap.to_prometheus();
    println!(
        "prometheus         : {} metric lines",
        prom.lines().filter(|l| !l.starts_with('#')).count()
    );
}
