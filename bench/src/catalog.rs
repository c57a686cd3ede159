//! The benchmark's fixed vocabulary: workloads with their sizes, end-to-end
//! metrics with their bounds, and per-layer metrics with the end-to-end
//! metric each is predicted to move. `BENCHMARK.json` and `bench/README.md`
//! restate these tables; a unit test keeps `BENCHMARK.json` in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StoreClosedB1,
    StoreOpenSat,
    StoreReadMix,
    ServicePipelined,
    SimSweep,
    SimSweepJsonl,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::StoreClosedB1,
        Workload::StoreOpenSat,
        Workload::StoreReadMix,
        Workload::ServicePipelined,
        Workload::SimSweep,
        Workload::SimSweepJsonl,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StoreClosedB1 => "store_closed_b1",
            Workload::StoreOpenSat => "store_open_sat",
            Workload::StoreReadMix => "store_read_mix",
            Workload::ServicePipelined => "service_pipelined",
            Workload::SimSweep => "sim_sweep",
            Workload::SimSweepJsonl => "sim_sweep_jsonl",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Work per load-generator lane in one full-size trial: calls per
    /// client, commands per producer, iterations per client, proposals per
    /// producer, or sim runs. Fixed counts, not durations, so both sides of
    /// a comparison do identical work. Half the issue's sizes, so that a run
    /// holds twice the trials (about 0.25-0.7s each on the 2-core reference
    /// box): the reported value is the best trial, and host interference
    /// comes in phases of seconds, so more and shorter trials find more
    /// quiet ones. The sim count was calibrated once and then frozen.
    pub fn lane_size(self) -> usize {
        match self {
            Workload::StoreClosedB1 => 12_500,
            Workload::StoreOpenSat => 1_250_000,
            Workload::StoreReadMix => 7_500,
            Workload::ServicePipelined => 125_000,
            Workload::SimSweep | Workload::SimSweepJsonl => SIM_RUNS,
        }
    }

    /// Load-generator threads (never more than the 2 cores of the box).
    pub fn lanes(self) -> usize {
        match self {
            Workload::SimSweep | Workload::SimSweepJsonl => 1,
            _ => 2,
        }
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::StoreClosedB1 => {
                "closed loop, 2 StoreClients x 12.5k calls: batch-of-1, one consensus slot per call, so hand-offs, service, engine and consensus do the work and kv/apply almost none"
            }
            Workload::StoreOpenSat => {
                "open loop, 2 producers x 1.25M pipelined commands, ~2000 per slot: consensus cost vanishes; intake lock, slab, session table, kv.apply and cell fills do the work"
            }
            Workload::StoreReadMix => {
                "closed loop, 2 clients x 7.5k x (1 write + 16 lease reads): same store layer used differently; reads take the leases and state mutexes against the apply worker"
            }
            Workload::ServicePipelined => {
                "closed loop, 2 producers x 125k proposals in submit_batch chunks of 64: the only workload that exercises the service's batching; the store layer does nothing"
            }
            Workload::SimSweep => {
                "single thread, 2500 simulated multivalued(8) runs at n=32, recorder off: no runtime layer runs, so it is the control for every runtime change"
            }
            Workload::SimSweepJsonl => {
                "the sim_sweep runs with trace + JSONL export to a sink: the telemetry layer does most of the work; a recorder gain shows here and must not move sim_sweep"
            }
        }
    }
}

/// Simulated runs per full-size sim trial (see [`Workload::lane_size`]).
pub const SIM_RUNS: usize = 2500;
pub const SIM_N: usize = 32;
pub const SIM_VALUES: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The gated metrics, reported by every workload. `error_share` and
/// `verify_ok` of the issue's table are not among them, because a gated
/// metric may never read 0: they travel as the result's `failed`,
/// `attempted` and `correct` fields, and the `--all` document prints them.
/// `read_ns_per_op` is `op_p50_us` of `store_read_mix`, whose median
/// operation is a lease read.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric (and workload) this is predicted to move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const CLOSED_P50: &str = "op_p50_us on store_closed_b1";
const SERVICE_OPS: &str = "ops_per_s on service_pipelined";
const OPEN_OPS: &str = "ops_per_s and cpu_us_per_op on store_open_sat";
const READ_P50: &str = "op_p50_us on store_read_mix";
const SIM_OPS: &str = "ops_per_s on sim_sweep and sim_sweep_jsonl";
const JSONL_OPS: &str = "ops_per_s on sim_sweep_jsonl only";
const STAMP: &str = "environment stamp; bounds op_p50_us on store_closed_b1 from below";

pub const PER_LAYER: [PerLayer; 40] = [
    layer("host.spin_ms", "ms", "lower", STAMP),
    layer("host.wake_rt_us", "us", "lower", STAMP),
    layer("host.wake_rt_free_us", "us", "lower", STAMP),
    layer("register.op_ns", "ns", "lower", CLOSED_P50),
    layer("consensus.decide_ns", "ns", "lower", CLOSED_P50),
    layer("consensus.fast_path_rate", "ratio", "higher", CLOSED_P50),
    layer(
        "consensus.stage_entries_per_decision",
        "count",
        "lower",
        CLOSED_P50,
    ),
    layer(
        "consensus.prob_write_success",
        "ratio",
        "higher",
        CLOSED_P50,
    ),
    layer("engine.submit_ns", "ns", "lower", SERVICE_OPS),
    layer("engine.self_ns", "ns", "lower", SERVICE_OPS),
    layer("engine.pool_hit_rate", "ratio", "higher", SERVICE_OPS),
    layer("log.learn_ns", "ns", "lower", CLOSED_P50),
    layer("service.roundtrip_ns", "ns", "lower", CLOSED_P50),
    layer("service.submit_ns", "ns", "lower", SERVICE_OPS),
    layer("service.wait_ns", "ns", "lower", SERVICE_OPS),
    layer("service.self_ns", "ns", "lower", CLOSED_P50),
    layer("service.mean_drain_batch", "count", "higher", SERVICE_OPS),
    layer("service.max_queue_depth", "count", "lower", SERVICE_OPS),
    layer("service.vs_engine_ratio", "ratio", "higher", SERVICE_OPS),
    layer("store.call_ns", "ns", "lower", CLOSED_P50),
    layer("store.submit_ns", "ns", "lower", CLOSED_P50),
    layer("store.wait_ns", "ns", "lower", CLOSED_P50),
    layer(
        "store.self_ns_per_call",
        "ns",
        "lower",
        "op_p50_us and op_p99_us on store_closed_b1",
    ),
    layer("store.slot_ns", "ns", "lower", CLOSED_P50),
    layer("store.commands_per_slot", "count", "higher", CLOSED_P50),
    layer("store.batch_submit_ns", "ns", "lower", OPEN_OPS),
    layer("store.open_commands_per_slot", "count", "higher", OPEN_OPS),
    layer("store.sessions_created", "count", "lower", OPEN_OPS),
    layer("store.lease_grants", "count", "lower", READ_P50),
    layer("store.fast_reads", "count", "higher", READ_P50),
    layer("store.read_ns", "ns", "lower", READ_P50),
    layer(
        "store.stalled_trials",
        "count",
        "lower",
        "error_share on the store workloads",
    ),
    layer(
        "kv.apply_ns",
        "ns",
        "lower",
        "ops_per_s on store_open_sat only",
    ),
    layer("telemetry.ns_per_event", "ns", "lower", JSONL_OPS),
    layer("telemetry.events_per_run", "count", "lower", JSONL_OPS),
    layer("telemetry.sim_overhead_pct", "%", "lower", JSONL_OPS),
    layer(
        "telemetry.store_overhead_pct",
        "%",
        "lower",
        "none gated: store_closed_b1 with a sink JsonlRecorder attached",
    ),
    layer("sim.ns_per_op", "ns", "lower", SIM_OPS),
    layer("sim.total_work", "count", "lower", SIM_OPS),
    layer(
        "trace.overhead_pct",
        "%",
        "lower",
        "none: the cost of the benchmark's own spans on the traced workload",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    /// `BENCHMARK.json` is the contract other tooling reads; it must say
    /// what this table says.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let doc = Value::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .expect(key)
                .items()
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).expect("name").into())
                .collect()
        };
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        for (entry, workload) in doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .zip(Workload::ALL)
        {
            assert_eq!(
                entry.get("why").and_then(Value::as_str),
                Some(workload.why())
            );
            assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
        }
        let gated: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names("end_to_end"), gated);
        for (entry, metric) in doc
            .get("end_to_end")
            .unwrap()
            .items()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(metric.unit));
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(metric.better)
            );
            assert_eq!(entry.f64_at("bound"), Some(metric.bound));
            assert!(metric.bound <= 0.25);
        }
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names("per_layer"), layers);
        for (entry, metric) in doc.get("per_layer").unwrap().items().iter().zip(PER_LAYER) {
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(metric.unit));
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(metric.better)
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        let all = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in all {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert_eq!(
                Workload::from_name(name)
                    .map(Workload::name)
                    .unwrap_or(name),
                name
            );
        }
    }
}
