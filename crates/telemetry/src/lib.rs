//! # mc-telemetry
//!
//! Observability primitives for the modular-consensus workspace:
//! lock-free counters, power-of-two histograms, and a [`Recorder`] trait
//! for structured event export — dependency-free, std-only.
//!
//! The paper's headline claims are quantitative (Theorem 7: expected `6n`
//! total work, `2⌈lg n⌉ + O(1)` individual work, agreement probability
//! `δ ≈ 0.0553`), so every execution layer needs numbers. This crate is
//! the shared vocabulary: `mc-runtime` counts real-thread register
//! operations, `mc-sim` replays its `WorkMetrics`/`Trace` through the same
//! event schema, and `mc-bench` exports both as JSONL for perf
//! trajectories.
//!
//! * [`Counter`], [`Gauge`] — relaxed-atomic counting; a counter has one
//!   writing thread, so an add is a plain load and store, no
//!   read-modify-write (a histogram also takes updates that way).
//! * [`Histogram`] — power-of-two buckets for rounds-to-decide, per-op
//!   counts, and latency.
//! * [`Recorder`], [`TelemetryEvent`] — structured events;
//!   [`NoopRecorder`] compiles away, [`JsonlRecorder`] streams JSON lines,
//!   [`AggregatingRecorder`] folds events back into counters.
//! * [`Snapshot`] — export in human text, JSON, and Prometheus
//!   text-exposition formats.
//! * [`metric_keys!`] — declares a metric set once: a key enum whose
//!   variants carry their exported names ([`Tally`] is one).
//! * [`json_key!`] — a JSON key as one compile-time literal, for
//!   [`json::Obj`], the writer every event line and snapshot goes through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod histogram;
pub mod json;
mod keys;
mod recorder;
mod snapshot;

pub use counter::{thread_shard, Counter, Gauge};
pub use histogram::{Histogram, HistogramSnapshot};
pub use recorder::{
    AggregatingRecorder, FaultClass, JsonlRecorder, NoopRecorder, OpClass, Recorder, StageKind,
    Tally, TelemetryEvent,
};
pub use snapshot::Snapshot;
