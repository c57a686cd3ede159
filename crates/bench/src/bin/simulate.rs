//! A command-line driver for the simulator: run any protocol under any
//! adversary and print outputs, work, and (over trials) agreement rates.
//!
//! ```text
//! simulate --protocol binary --n 8 --adversary split-keeper --trials 200
//! simulate --protocol multivalued:16 --inputs random --seed 7 --trace
//! simulate --protocol ratifier-only --adversary quantum:4 --inputs 0,1,0
//! simulate --protocol conciliator --adversary noisy:0.5 --n 32
//! ```
//!
//! Run `simulate --help` for the full grammar.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use mc_core::protocol::{ratifier_only, ConsensusBuilder};
use mc_core::{FirstMoverConciliator, Ratifier};
use mc_model::{properties, ObjectSpec, Value};
use mc_sim::adversary::{
    Adversary, FixedOrder, ImpatienceExploiter, RandomScheduler, RoundRobin, SplitKeeper,
    WriteBlocker,
};
use mc_sim::harness::{self, inputs};
use mc_sim::observe;
use mc_sim::sched::{NoisyScheduler, PriorityScheduler, QuantumScheduler};
use mc_sim::EngineConfig;
use mc_telemetry::{json::Obj, json_key, JsonlRecorder, NoopRecorder, Recorder};

const HELP: &str = "\
simulate — run modular-consensus protocols in the model

USAGE:
    simulate [OPTIONS]

OPTIONS:
    --protocol <P>    binary | multivalued:<m> | cil:<m> | conciliator |
                      conciliator-fixed | ratifier:<m> | ratifier-only
                      (default: binary)
    --n <N>           number of processes (default: 8; ignored if --inputs
                      gives an explicit list)
    --inputs <I>      alternating | unanimous:<v> | random | dissenter |
                      <v0,v1,...> (default: alternating)
    --adversary <A>   round-robin | random | bursty:<k> | write-blocker |
                      exploiter | split-keeper | noisy:<sigma> | priority |
                      quantum:<q> (default: random)
    --seed <S>        base seed (default: 42)
    --trials <T>      independent runs (default: 1)
    --max-steps <K>   step limit per run (default: 10000000)
    --trace           print the execution trace (first trial only)
    --cheap-collect   enable the cheap-collect model
    --telemetry <F>   stream one JSONL telemetry event per operation (plus a
                      work_summary per trial) to file F; forces trace
                      recording internally
    --help            print this help

The final stdout line is always a machine-readable JSON summary
(`\"ev\":\"simulate_summary\"`).
";

#[derive(Debug)]
struct Options {
    protocol: String,
    n: usize,
    inputs: String,
    adversary: String,
    seed: u64,
    trials: usize,
    max_steps: u64,
    trace: bool,
    cheap_collect: bool,
    telemetry: Option<String>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            protocol: "binary".into(),
            n: 8,
            inputs: "alternating".into(),
            adversary: "random".into(),
            seed: 42,
            trials: 1,
            max_steps: 10_000_000,
            trace: false,
            cheap_collect: false,
            telemetry: None,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--protocol" => opts.protocol = take()?.to_string(),
            "--n" => opts.n = take()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--inputs" => opts.inputs = take()?.to_string(),
            "--adversary" => opts.adversary = take()?.to_string(),
            "--seed" => opts.seed = take()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--trials" => opts.trials = take()?.parse().map_err(|e| format!("--trials: {e}"))?,
            "--max-steps" => {
                opts.max_steps = take()?.parse().map_err(|e| format!("--max-steps: {e}"))?
            }
            "--trace" => opts.trace = true,
            "--cheap-collect" => opts.cheap_collect = true,
            "--telemetry" => opts.telemetry = Some(take()?.to_string()),
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if opts.trials == 0 {
        return Err("--trials must be at least 1".into());
    }
    Ok(opts)
}

/// Splits `name:param` into the name and an optional parameter string.
fn split_param(s: &str) -> (&str, Option<&str>) {
    match s.split_once(':') {
        Some((name, param)) => (name, Some(param)),
        None => (s, None),
    }
}

fn build_protocol(spec: &str) -> Result<(Arc<dyn ObjectSpec>, u64), String> {
    let (name, param) = split_param(spec);
    let m_of = |default: u64| -> Result<u64, String> {
        match param {
            Some(p) => p.parse().map_err(|e| format!("protocol parameter: {e}")),
            None => Ok(default),
        }
    };
    let built: (Arc<dyn ObjectSpec>, u64) = match name {
        "binary" => (Arc::new(ConsensusBuilder::binary().build()), 2),
        "multivalued" => {
            let m = m_of(4)?;
            (Arc::new(ConsensusBuilder::multivalued(m).build()), m)
        }
        "cil" => {
            let m = m_of(2)?;
            (Arc::new(ConsensusBuilder::cil_baseline(m).build()), m)
        }
        "conciliator" => (Arc::new(FirstMoverConciliator::impatient()), u64::MAX),
        "conciliator-fixed" => (Arc::new(FirstMoverConciliator::fixed(1.0)), u64::MAX),
        "ratifier" => {
            let m = m_of(2)?;
            let r = if m <= 2 {
                Ratifier::binary()
            } else {
                Ratifier::binomial(m)
            };
            let cap = r.capacity();
            (Arc::new(r), cap)
        }
        "ratifier-only" => (Arc::new(ratifier_only(Arc::new(Ratifier::binary()))), 2),
        other => return Err(format!("unknown protocol {other}")),
    };
    Ok(built)
}

fn build_inputs(spec: &str, n: usize, m: u64, seed: u64) -> Result<Vec<Value>, String> {
    let (name, param) = split_param(spec);
    let m_eff = m.clamp(2, 1 << 20);
    match name {
        "alternating" => Ok(inputs::alternating(n, m_eff.min(2))),
        "unanimous" => {
            let v = param
                .unwrap_or("1")
                .parse()
                .map_err(|e| format!("inputs: {e}"))?;
            Ok(inputs::unanimous(n, v))
        }
        "random" => Ok(inputs::random(n, m_eff, seed)),
        "dissenter" => Ok(inputs::dissenter(n)),
        list => list
            .split(',')
            .map(|v| v.trim().parse().map_err(|e| format!("inputs {v:?}: {e}")))
            .collect(),
    }
}

fn build_adversary(spec: &str, n: usize, seed: u64) -> Result<Box<dyn Adversary>, String> {
    let (name, param) = split_param(spec);
    let parse_f64 = |d: f64| -> Result<f64, String> {
        param.map_or(Ok(d), |p| p.parse().map_err(|e| format!("adversary: {e}")))
    };
    let parse_u64 = |d: u64| -> Result<u64, String> {
        param.map_or(Ok(d), |p| p.parse().map_err(|e| format!("adversary: {e}")))
    };
    Ok(match name {
        "round-robin" => Box::new(RoundRobin::new()),
        "random" => Box::new(RandomScheduler::new(seed)),
        "bursty" => Box::new(FixedOrder::bursty(n, parse_u64(4)? as usize)),
        "write-blocker" => Box::new(WriteBlocker::new()),
        "exploiter" => Box::new(ImpatienceExploiter::new()),
        "split-keeper" => Box::new(SplitKeeper::new(seed)),
        "noisy" => Box::new(NoisyScheduler::new(n, parse_f64(0.5)?, seed)),
        "priority" => Box::new(PriorityScheduler::shuffled(n, seed)),
        "quantum" => Box::new(QuantumScheduler::new(parse_u64(4)?)),
        other => return Err(format!("unknown adversary {other}")),
    })
}

fn run(opts: &Options) -> Result<(), String> {
    let (spec, m) = build_protocol(&opts.protocol)?;
    let first_inputs = build_inputs(&opts.inputs, opts.n, m, opts.seed)?;
    let n = first_inputs.len();
    let mut config = EngineConfig::default().with_max_steps(opts.max_steps);
    if opts.cheap_collect {
        config = config.with_cheap_collect();
    }
    let recorder: Arc<dyn Recorder> = match &opts.telemetry {
        Some(path) => Arc::new(
            JsonlRecorder::to_file(Path::new(path))
                .map_err(|e| format!("--telemetry {path}: {e}"))?,
        ),
        None => Arc::new(NoopRecorder),
    };

    println!(
        "protocol {} | n = {n} | adversary {} | seed {} | trials {}",
        spec.name(),
        opts.adversary,
        opts.seed,
        opts.trials
    );

    let mut agreements = 0usize;
    let mut decided = 0usize;
    let mut total_work = Vec::new();
    let mut individual_work = Vec::new();
    for trial in 0..opts.trials {
        let seed = opts.seed.wrapping_add(trial as u64 * 0x9E37);
        let ins = build_inputs(&opts.inputs, opts.n, m, seed)?;
        let mut adversary = build_adversary(&opts.adversary, n, seed)?;
        // Telemetry replays the trace, so recording must be on for every
        // instrumented trial.
        let trial_config = if (opts.trace && trial == 0) || recorder.enabled() {
            config.clone().with_trace()
        } else {
            config.clone()
        };
        let outcome =
            harness::run_object(spec.as_ref(), &ins, adversary.as_mut(), seed, &trial_config)
                .map_err(|e| format!("trial {trial}: {e}"))?;
        observe::export_run(
            seed,
            outcome.trace.as_ref(),
            &outcome.metrics,
            recorder.as_ref(),
        );
        if trial == 0 {
            println!("\ninputs : {ins:?}");
            let rendered: Vec<String> = outcome.outputs.iter().map(|d| d.to_string()).collect();
            println!("outputs: {rendered:?}");
            println!("work   : {}", outcome.metrics);
            if let Err(v) = properties::check_weak_consensus(&ins, &outcome.outputs) {
                println!("WARNING: {v}");
            }
            if opts.trace {
                if let Some(trace) = &outcome.trace {
                    println!("\ntrace:\n{trace}");
                }
            }
        }
        if outcome.agreed() {
            agreements += 1;
        }
        if outcome.outputs.iter().all(|d| d.is_decided()) {
            decided += 1;
        }
        total_work.push(outcome.metrics.total_work());
        individual_work.push(outcome.metrics.individual_work());
    }

    if opts.trials > 1 {
        let mean = |v: &[u64]| v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
        println!(
            "\nover {} trials: agreement {}/{} | all-decided {}/{} | mean total {:.1} | \
             mean indiv {:.1} | max indiv {}",
            opts.trials,
            agreements,
            opts.trials,
            decided,
            opts.trials,
            mean(&total_work),
            mean(&individual_work),
            individual_work.iter().max().unwrap_or(&0),
        );
    }

    recorder
        .flush()
        .map_err(|e| format!("flushing telemetry: {e}"))?;

    let mean = |v: &[u64]| v.iter().map(|&x| x as f64).sum::<f64>() / v.len().max(1) as f64;
    let mut summary = Obj::new();
    summary
        .str_field(json_key!({ "ev" }), "simulate_summary")
        .str_field(json_key!("protocol"), &spec.name())
        .u64_field(json_key!("n"), n as u64)
        .str_field(json_key!("adversary"), &opts.adversary)
        .u64_field(json_key!("seed"), opts.seed)
        .u64_field(json_key!("trials"), opts.trials as u64)
        .u64_field(json_key!("agreements"), agreements as u64)
        .u64_field(json_key!("all_decided"), decided as u64)
        .f64_field(json_key!("mean_total_work"), mean(&total_work))
        .f64_field(json_key!("mean_individual_work"), mean(&individual_work))
        .u64_field(
            json_key!("max_individual_work"),
            individual_work.iter().copied().max().unwrap_or(0),
        );
    if let Some(path) = &opts.telemetry {
        summary.str_field(json_key!("telemetry"), path);
    }
    println!("{}", summary.finish());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(opts) => match run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) if e == "help" => {
            print!("{HELP}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.protocol, "binary");
        assert_eq!(opts.n, 8);
        assert_eq!(opts.trials, 1);
    }

    #[test]
    fn full_flag_set() {
        let opts = parse(&[
            "--protocol",
            "multivalued:16",
            "--n",
            "4",
            "--inputs",
            "random",
            "--adversary",
            "noisy:0.9",
            "--seed",
            "7",
            "--trials",
            "5",
            "--max-steps",
            "1000",
            "--trace",
            "--cheap-collect",
        ])
        .unwrap();
        assert_eq!(opts.protocol, "multivalued:16");
        assert_eq!(opts.n, 4);
        assert_eq!(opts.adversary, "noisy:0.9");
        assert_eq!(opts.max_steps, 1000);
        assert!(opts.trace && opts.cheap_collect);
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown option"));
    }

    #[test]
    fn protocols_build() {
        for p in [
            "binary",
            "multivalued:8",
            "cil:4",
            "conciliator",
            "conciliator-fixed",
            "ratifier:16",
            "ratifier-only",
        ] {
            build_protocol(p).unwrap_or_else(|e| panic!("{p}: {e}"));
        }
        assert!(build_protocol("nope").is_err());
    }

    #[test]
    fn inputs_build() {
        assert_eq!(
            build_inputs("alternating", 4, 2, 0).unwrap(),
            vec![0, 1, 0, 1]
        );
        assert_eq!(build_inputs("unanimous:3", 2, 8, 0).unwrap(), vec![3, 3]);
        assert_eq!(build_inputs("5,6,7", 99, 8, 0).unwrap(), vec![5, 6, 7]);
        assert_eq!(build_inputs("dissenter", 3, 2, 0).unwrap(), vec![0, 0, 1]);
        assert!(build_inputs("x,y", 2, 2, 0).is_err());
    }

    #[test]
    fn adversaries_build() {
        for a in [
            "round-robin",
            "random",
            "bursty:3",
            "write-blocker",
            "exploiter",
            "split-keeper",
            "noisy:0.4",
            "priority",
            "quantum:4",
        ] {
            build_adversary(a, 4, 1).unwrap_or_else(|e| panic!("{a}: {e}"));
        }
        assert!(build_adversary("nope", 4, 1).is_err());
    }

    #[test]
    fn end_to_end_run() {
        let opts = parse(&["--protocol", "binary", "--n", "4", "--trials", "3"]).unwrap();
        run(&opts).unwrap();
    }

    #[test]
    fn telemetry_flag_parses() {
        let opts = parse(&["--telemetry", "/tmp/out.jsonl"]).unwrap();
        assert_eq!(opts.telemetry.as_deref(), Some("/tmp/out.jsonl"));
        assert!(parse(&["--telemetry"]).is_err());
    }

    #[test]
    fn telemetry_run_writes_valid_jsonl() {
        let path = std::env::temp_dir().join("simulate_telemetry_test.jsonl");
        let opts = parse(&[
            "--protocol",
            "binary",
            "--n",
            "4",
            "--trials",
            "2",
            "--seed",
            "3",
            "--telemetry",
            path.to_str().unwrap(),
        ])
        .unwrap();
        run(&opts).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty());
        for line in &lines {
            mc_telemetry::json::validate(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // One work_summary per trial, each preceded by its op events.
        let summaries = lines
            .iter()
            .filter(|l| l.contains(r#""ev":"work_summary""#))
            .count();
        assert_eq!(summaries, 2);
        std::fs::remove_file(&path).ok();
    }
}
