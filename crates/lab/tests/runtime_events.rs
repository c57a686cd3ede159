//! A fixed-seed lab run's runtime telemetry is reproducible per thread:
//! the lab serializes every register operation, so each worker thread sees
//! the same values and draws the same coins on every run of one seed. Not
//! byte for byte: events emitted outside register operations race for the
//! recorder's `seq`, an event's `pid` is its thread's telemetry shard
//! (taken in first-use order), and `latency_ns` is wall-clock time.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use mc_lab::Lab;
use mc_runtime::Consensus;
use mc_sim::adversary::RandomScheduler;
use mc_telemetry::{JsonlRecorder, Recorder};

/// `Write` over a shared byte buffer.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One binary-consensus run of three lab threads at `seed`: each thread's
/// runtime events without `seq`, `pid` and `latency_ns`, the streams sorted.
fn per_thread_events(seed: u64) -> Vec<Vec<String>> {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let recorder: Arc<dyn Recorder> =
        Arc::new(JsonlRecorder::new(Box::new(SharedBuf(Arc::clone(&buf)))));
    let lab = Lab::new(3, Box::new(RandomScheduler::new(seed)), &[], 50_000);
    let consensus = Consensus::builder()
        .n(3)
        .memory(lab.memory())
        .recorder(Arc::clone(&recorder))
        .build();
    let report = lab
        .run(seed, |pid, rng| consensus.decide(pid as u64 % 2, rng))
        .expect("the lab run completes");
    assert!(report.decisions.iter().all(Option::is_some));
    recorder.flush().unwrap();
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let mut threads: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in text.lines() {
        let mut pid = None;
        let mut kept = Vec::new();
        // A runtime event is a flat object of numbers, booleans and
        // comma-free strings, so its fields split at the commas.
        let body = line.trim_start_matches('{').trim_end_matches('}');
        for field in body.split(',') {
            match field.split_once(':') {
                Some(("\"pid\"", value)) => pid = Some(value.to_string()),
                Some(("\"seq\"" | "\"latency_ns\"", _)) => {}
                _ => kept.push(field),
            }
        }
        let pid = pid.unwrap_or_else(|| panic!("a runtime event names its thread: {line}"));
        threads.entry(pid).or_default().push(kept.join(","));
    }
    let mut streams: Vec<Vec<String>> = threads.into_values().collect();
    streams.sort();
    streams
}

#[test]
fn a_fixed_seed_lab_run_repeats_each_threads_events() {
    let mut coins = 0;
    for seed in [3, 7, 42] {
        let first = per_thread_events(seed);
        assert_eq!(first.len(), 3, "one stream per worker thread");
        assert_eq!(first, per_thread_events(seed), "seed {seed}");
        coins += first
            .iter()
            .flatten()
            .filter(|e| e.starts_with("\"ev\":\"prob_write\""))
            .count();
    }
    assert!(coins > 0, "some run flips a probabilistic write's coin");
}
