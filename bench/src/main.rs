//! `perf_stack`: one pinned, watchdogged benchmark for the whole stack —
//! `Consensus` → `ConsensusEngine` → `ConsensusService` → `ReplicatedStore`
//! and the simulator beside it — with per-layer attribution.
//!
//! ```text
//! perf_stack --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perf_stack --all [--trace] [--seed <n>] [--seconds <s>] [--record]
//! perf_stack --smoke
//! perf_stack --compare <run-a> <run-b>
//! ```
//!
//! The first form runs one workload and prints, as the last stdout line,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. `--all` runs
//! every workload and prints one document with every metric (a table goes
//! to stderr); `--record` appends that document to `bench/history.jsonl`.
//! `--smoke` is `--all --trace` at 1/20 size with a schema self-check.
//! `--compare` judges two saved `--all` documents against the bounds.
//! See `bench/README.md` for what is measured and why.

mod catalog;
mod child;
mod json;
mod probes;
mod report;
mod runner;
mod script;
mod span;
mod stats;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use catalog::Workload;
use child::{ChildSpec, Job};
use json::Value;
use report::{LayerAcc, WorkloadResult};
use runner::{Pinning, Trials, STALL_WINDOW};

/// Measured seconds per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 18.0;
const DEFAULT_SEED: u64 = 1;
/// Trials per workload: at least this many, however long they take…
const MIN_TRIALS: usize = 5;
/// …and at most this many, however short.
const MAX_TRIALS: usize = 128;
/// Traced trials per workload, each launched right after an untraced one
/// it is compared with.
const TRACED_TRIALS: usize = 3;
/// Size divisor of the ladder's trials of workloads other than the one
/// being traced, of the discarded warm-up trial (relative to the measured
/// size), and of everything under `--smoke`.
const LADDER_SCALE: usize = 5;
const WARMUP_SCALE: usize = 4;
const SMOKE_SCALE: usize = 20;
/// Slots the probes replay, at most: keeps the ladder near a second.
const MAX_PROBE_SLOTS: usize = 50_000;

enum Mode {
    Child(ChildSpec),
    Single {
        workload: Workload,
        trace: bool,
    },
    All {
        trace: bool,
        record: bool,
        smoke: bool,
    },
    Compare(PathBuf, PathBuf),
}

struct Options {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut it = args.iter().peekable();
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let (mut workload, mut all, mut smoke, mut record, mut trace) =
        (None, false, false, false, false);
    let mut compare = None;
    let mut job = None;
    let mut spec = ChildSpec {
        job: Job::Probes,
        seed: 0,
        scale: 1,
        traced: false,
        recorder: false,
        trace_out: None,
        slots: 0,
    };
    fn value<'a>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = value(&mut it, arg)?;
                workload = Some(Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; known: {known:?}")
                })?);
            }
            "--seed" => seed = number(value(&mut it, arg)?, arg)?,
            "--seconds" => {
                seconds = number(value(&mut it, arg)?, arg)?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // `--trace 0|1` (single workload) or bare `--trace` (`--all`).
            "--trace" => match it.peek().map(|v| v.as_str()) {
                Some("0") => {
                    it.next();
                    trace = false;
                }
                Some("1") => {
                    it.next();
                    trace = true;
                }
                _ => trace = true,
            },
            "--all" => all = true,
            "--smoke" => smoke = true,
            "--record" => record = true,
            "--compare" => {
                let a = PathBuf::from(value(&mut it, arg)?);
                compare = Some((a, PathBuf::from(value(&mut it, arg)?)));
            }
            "--child" => {
                let name = value(&mut it, arg)?;
                job = Some(match name.as_str() {
                    "probes" => Job::Probes,
                    "host-free" => Job::HostFree,
                    name => Job::Trial(
                        Workload::from_name(name)
                            .ok_or_else(|| format!("unknown child job {name:?}"))?,
                    ),
                });
            }
            "--scale" => spec.scale = number::<usize>(value(&mut it, arg)?, arg)?.clamp(1, 10_000),
            "--slots" => {
                spec.slots = number::<usize>(value(&mut it, arg)?, arg)?.min(MAX_PROBE_SLOTS)
            }
            "--traced" => spec.traced = true,
            "--recorder" => spec.recorder = true,
            "--trace-out" => spec.trace_out = Some(PathBuf::from(value(&mut it, arg)?)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let mode = match (job, compare, workload) {
        (Some(job), _, _) => Mode::Child(ChildSpec { job, seed, ..spec }),
        (None, Some((a, b)), _) => Mode::Compare(a, b),
        (None, None, Some(workload)) if !all && !smoke => Mode::Single { workload, trace },
        (None, None, None) if all || smoke => Mode::All {
            trace: trace || smoke,
            record,
            smoke,
        },
        _ => return Err("give --workload <name>, --all, --smoke or --compare <a> <b>".into()),
    };
    Ok(Options {
        mode,
        seed,
        seconds,
    })
}

/// How many untraced trials a workload gets.
#[derive(Clone, Copy)]
enum Budget {
    /// At least `MIN_TRIALS`, until their measured time adds up to this.
    Seconds(f64),
    Count(usize),
}

impl Budget {
    fn met(self, done: &[(Value, f64)]) -> bool {
        match self {
            Budget::Count(n) => done.len() >= n,
            Budget::Seconds(seconds) => {
                let measured: f64 = done
                    .iter()
                    .filter_map(|(r, _)| r.f64_at("elapsed_ns"))
                    .sum();
                done.len() >= MAX_TRIALS || (done.len() >= MIN_TRIALS && measured / 1e9 >= seconds)
            }
        }
    }
}

/// What the parent needs to launch children.
struct Ctx {
    exe: PathBuf,
    pinning: Pinning,
    seed: u64,
    /// `<target dir>/perf_stack`: where traced trials leave their spans.
    trace_dir: PathBuf,
}

impl Ctx {
    fn new(seed: u64) -> Result<Ctx, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // `<target>/release/perf_stack` → `<target>/perf_stack/`.
        let trace_dir = exe
            .parent()
            .and_then(Path::parent)
            .ok_or("executable has no target directory")?
            .join("perf_stack");
        std::fs::create_dir_all(&trace_dir).map_err(|e| format!("{}: {e}", trace_dir.display()))?;
        Ok(Ctx {
            exe,
            pinning: Pinning::detect(),
            seed,
            trace_dir,
        })
    }

    fn child(&self, job: &str, scale: usize, flags: &[&str], pin: bool) -> Command {
        let mut args = vec![
            "--child".to_string(),
            job.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--scale".to_string(),
            scale.to_string(),
        ];
        args.extend(flags.iter().map(|f| f.to_string()));
        self.pinning.command(&self.exe, &args, pin)
    }

    fn trial(&self, workload: Workload, scale: usize, traced: bool) -> Command {
        if !traced {
            return self.child(workload.name(), scale, &[], true);
        }
        let out = self
            .trace_dir
            .join(format!("trace-{}.jsonl", workload.name()));
        let out = out.to_string_lossy();
        self.child(
            workload.name(),
            scale,
            &["--traced", "--trace-out", &out],
            true,
        )
    }
}

struct Measured {
    /// `stalled_trials` counts every stalled launch: warm-up, untraced and
    /// traced.
    result: WorkloadResult,
    untraced: Trials,
    traced: Trials,
}

/// Launches one more trial of `workload` into `into`, replacing it if it
/// stalls; the stall limit holds across all of a workload's launches.
fn one_more(
    ctx: &Ctx,
    workload: Workload,
    scale: usize,
    traced: bool,
    into: &mut Trials,
) -> Result<(), String> {
    let mut launched =
        runner::run_trials(&mut |_| ctx.trial(workload, scale, traced), STALL_WINDOW, 1)
            .map_err(|e| format!("{}: {e}", workload.name()))?;
    into.done.append(&mut launched.done);
    into.stalled.append(&mut launched.stalled);
    if into.stalled.len() > runner::STALL_LIMIT {
        return Err(format!(
            "{}: {} trials stalled",
            workload.name(),
            into.stalled.len()
        ));
    }
    Ok(())
}

/// Measures `workloads`: per workload a discarded warm-up trial, the
/// untraced trials the end-to-end metrics come from, then `traced_trials`
/// traced ones, each right after one more untraced trial: tracing overhead
/// is read from these pairs, which share the host's mood. Trials are
/// launched round-robin across the workloads, so under `--all` each
/// workload's trials span the whole run and a slow host phase of tens of
/// seconds costs every workload a few trials rather than one workload all of
/// them.
fn measure(
    ctx: &Ctx,
    workloads: &[Workload],
    scale: usize,
    budget: Budget,
    traced_trials: usize,
) -> Result<Vec<Measured>, String> {
    let mut gathered: Vec<_> = workloads
        .iter()
        .map(|&w| (w, Trials::default(), Trials::default(), Trials::default()))
        .collect();
    for (workload, warmup, _, _) in &mut gathered {
        one_more(ctx, *workload, scale * WARMUP_SCALE, false, warmup)?;
    }
    while gathered
        .iter()
        .any(|(_, _, untraced, _)| !budget.met(&untraced.done))
    {
        for (workload, _, untraced, _) in &mut gathered {
            if !budget.met(&untraced.done) {
                one_more(ctx, *workload, scale, false, untraced)?;
            }
        }
    }
    for _ in 0..traced_trials {
        for (workload, _, untraced, traced) in &mut gathered {
            one_more(ctx, *workload, scale, false, untraced)?;
            one_more(ctx, *workload, scale, true, traced)?;
        }
    }
    gathered
        .into_iter()
        .map(|(workload, warmup, untraced, traced)| {
            let mut result = report::aggregate(workload, &untraced)
                .map_err(|e| format!("{}: {e}", workload.name()))?;
            for violation in &result.violations {
                eprintln!("  {}: VIOLATION: {violation}", workload.name());
            }
            result.stalled_trials += warmup.stalled.len() + traced.stalled.len();
            Ok(Measured {
                result,
                untraced,
                traced,
            })
        })
        .collect()
}

fn is_store(workload: Workload) -> bool {
    matches!(
        workload,
        Workload::StoreClosedB1 | Workload::StoreOpenSat | Workload::StoreReadMix
    )
}

/// Runs one child to its report, under the watchdog, replacing stalls.
fn one_report(command: &mut dyn FnMut() -> Command, what: &str) -> Result<(Value, usize), String> {
    let mut trials = runner::run_trials(&mut |_| command(), STALL_WINDOW, 1)
        .map_err(|e| format!("{what}: {e}"))?;
    let (report, _) = trials
        .done
        .pop()
        .expect("run_trials returned a completed trial");
    if let Some(violation) = report.get("violation").and_then(Value::as_str) {
        return Err(format!("{what}: {violation}"));
    }
    Ok((report, trials.stalled.len()))
}

/// The rest of the traced pass: one traced trial of every workload not in
/// `covered`, the layer probes, the unpinned host probe, and the store
/// with and without a recorder. Returns the stalls it saw on store trials.
fn ladder(
    ctx: &Ctx,
    scale: usize,
    covered: &[Workload],
    acc: &mut LayerAcc,
) -> Result<usize, String> {
    let mut store_stalls = 0;
    for workload in Workload::ALL.into_iter().filter(|w| !covered.contains(w)) {
        let (report, stalls) =
            one_report(&mut || ctx.trial(workload, scale, true), workload.name())?;
        acc.absorb(&report);
        store_stalls += if is_store(workload) { stalls } else { 0 };
    }
    let slots = acc.median("store.learned_slots").unwrap_or(0.0) as usize;
    let slots = slots.min(MAX_PROBE_SLOTS).to_string();
    // Each probe is a single pass, so a slow host phase between two of them
    // can read a child layer dearer than its parent: take medians of three.
    for _ in 0..TRACED_TRIALS {
        let (probes, _) = one_report(
            &mut || ctx.child("probes", scale, &["--slots", &slots], true),
            "probes",
        )?;
        acc.absorb(&probes);
    }
    let (host, _) = one_report(
        &mut || ctx.child("host-free", scale, &[], false),
        "host-free",
    )?;
    acc.absorb(&host);
    for _ in 0..2 {
        for (flags, key) in [
            (&["--traced"][..], "pair.plain_ns_per_call"),
            (&["--traced", "--recorder"][..], "pair.recorded_ns_per_call"),
        ] {
            let job = Workload::StoreClosedB1.name();
            let (report, stalls) =
                one_report(&mut || ctx.child(job, scale, flags, true), "recorder pair")?;
            let ns = report
                .get("layer")
                .and_then(|l| l.f64_at("store.ns_per_call"));
            acc.push(key, ns.ok_or("recorder pair: no store.ns_per_call")?);
            store_stalls += stalls;
        }
    }
    Ok(store_stalls)
}

fn absorb_traced(acc: &mut LayerAcc, measured: &Measured) {
    for (report, _) in &measured.traced.done {
        acc.absorb(report);
    }
}

fn single(ctx: &Ctx, workload: Workload, seconds: f64, trace: bool) -> Result<String, String> {
    if !trace {
        let measured = measure(ctx, &[workload], 1, Budget::Seconds(seconds), 0)?;
        let result = &measured[0].result;
        return Ok(report::contract_line(
            result.correct,
            result.attempted,
            result.failed,
            report::gated_metrics_json(result),
        ));
    }
    let measured = measure(ctx, &[workload], 1, Budget::Count(0), TRACED_TRIALS)?;
    let measured = &measured[0];
    let mut acc = LayerAcc::default();
    absorb_traced(&mut acc, measured);
    let overhead = report::trace_overhead_pct(&measured.untraced.done, &measured.traced.done)
        .ok_or("no elapsed time to compare")?;
    let mut store_stalls = if is_store(workload) {
        measured.result.stalled_trials
    } else {
        0
    };
    store_stalls += ladder(ctx, LADDER_SCALE, &[workload], &mut acc)?;
    let table = report::per_layer(&acc, store_stalls, overhead)?;
    let traced_sum = |key: &str| -> u64 {
        measured
            .traced
            .done
            .iter()
            .filter_map(|(r, _)| r.u64_at(key))
            .sum()
    };
    let traced_clean = measured
        .traced
        .done
        .iter()
        .all(|(r, _)| r.get("violation").and_then(Value::as_str).is_none());
    Ok(report::contract_line(
        measured.result.correct && traced_clean,
        measured.result.attempted + traced_sum("attempted"),
        measured.result.failed + traced_sum("failed"),
        report::per_layer_json(&table),
    ))
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn stamp(ctx: &Ctx, seconds: f64, scale: usize) -> Value {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Value::obj()
        .with(
            "commit",
            tool_line("git", &["rev-parse", "--short", "HEAD"]),
        )
        .with("rustc", tool_line("rustc", &["--version"]))
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .with("allowed_cpus", ctx.pinning.allowed_cpus as u64)
        .with("pinned", ctx.pinning.pinned())
        .with("cpu", ctx.pinning.cpu as u64)
        .with("seed", ctx.seed)
        .with("seconds", seconds)
        .with("scale", scale as u64)
        .with("unix_time", unix_time)
}

fn all(ctx: &Ctx, seconds: f64, trace: bool, record: bool, smoke: bool) -> Result<bool, String> {
    let scale = if smoke { SMOKE_SCALE } else { 1 };
    let budget = if smoke {
        Budget::Count(2)
    } else {
        Budget::Seconds(seconds)
    };
    let traced_trials = match (trace, smoke) {
        (false, _) => 0,
        (true, true) => 1,
        (true, false) => TRACED_TRIALS,
    };
    let mut acc = LayerAcc::default();
    let mut results = Vec::new();
    let mut store_stalls = 0;
    eprintln!("{} workloads, trials interleaved …", Workload::ALL.len());
    for measured in measure(ctx, &Workload::ALL, scale, budget, traced_trials)? {
        absorb_traced(&mut acc, &measured);
        let overhead = report::trace_overhead_pct(&measured.untraced.done, &measured.traced.done);
        store_stalls += if is_store(measured.result.workload) {
            measured.result.stalled_trials
        } else {
            0
        };
        results.push((measured.result, overhead));
    }
    let layers = if trace {
        eprintln!("layer probes …");
        store_stalls += ladder(ctx, scale, &Workload::ALL, &mut acc)?;
        let worst_overhead = results
            .iter()
            .filter_map(|(_, pct)| *pct)
            .fold(f64::NEG_INFINITY, f64::max);
        Some(report::per_layer(&acc, store_stalls, worst_overhead)?)
    } else {
        None
    };
    let doc = report::document(stamp(ctx, seconds, scale), &results, layers.as_deref());
    let line = doc.render();
    eprint!("{}", report::table(&doc));
    if smoke {
        report::self_check(&line, true).map_err(|e| format!("schema self-check: {e}"))?;
        eprintln!("schema self-check: ok");
    }
    if record {
        let mut history = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open("bench/history.jsonl")
            .map_err(|e| format!("bench/history.jsonl (run from the repo root): {e}"))?;
        writeln!(history, "{line}").map_err(|e| format!("bench/history.jsonl: {e}"))?;
    }
    println!("{line}");
    Ok(results.iter().all(|(r, _)| r.correct && r.failed == 0))
}

fn last_line_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{}: empty", path.display()))?;
    Value::parse(line).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(options: Options) -> Result<bool, String> {
    match options.mode {
        Mode::Child(spec) => child::run(&spec).map(|()| true),
        Mode::Compare(a, b) => {
            let (text, agree) = report::compare(&last_line_json(&a)?, &last_line_json(&b)?)?;
            print!("{text}");
            Ok(agree)
        }
        Mode::Single { workload, trace } => {
            let ctx = Ctx::new(options.seed)?;
            let line = single(&ctx, workload, options.seconds, trace)?;
            println!("{line}");
            Ok(true)
        }
        Mode::All {
            trace,
            record,
            smoke,
        } => {
            let ctx = Ctx::new(options.seed)?;
            all(&ctx, options.seconds, trace, record, smoke)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_stack: {e}");
            ExitCode::FAILURE
        }
    }
}
