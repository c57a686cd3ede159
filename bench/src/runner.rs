//! The parent side: launches each trial as a child process pinned to one
//! CPU, feeds a stall watchdog from the child's heartbeat, and kills and
//! replaces a trial in which no operation completes for the stall window.
//! The deadlock the watchdog exists for is real (ROADMAP item 4); the
//! benchmark must report it, not hang on it and not paper over it.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::json::Value;

/// A trial in which no operation completes for this long has stalled.
pub const STALL_WINDOW: Duration = Duration::from_secs(2);
/// Stalled trials tolerated per workload before it fails outright (with the
/// issue's T = 9 trials this is its "2T launches").
pub const STALL_LIMIT: usize = 9;

/// How one child ended.
#[derive(Debug)]
pub enum Outcome {
    /// The child reported. `setup_s` is spawn to its `ready` line: process
    /// start, script generation, store construction and warm-up.
    Done { report: Value, setup_s: f64 },
    /// No progress for the stall window; the child was killed.
    /// `ops_done` is its last heartbeat.
    Stalled { ops_done: u64 },
    /// The child exited without a usable report.
    Failed(String),
}

/// Runs `command` to completion under the stall watchdog.
pub fn run_child(mut command: Command, stall_window: Duration) -> Outcome {
    let spawned = Instant::now();
    let mut child = match command.stdout(Stdio::piped()).stdin(Stdio::null()).spawn() {
        Ok(child) => child,
        Err(e) => return Outcome::Failed(format!("spawn {command:?}: {e}")),
    };
    let stdout = child.stdout.take().expect("stdout was piped");
    let (lines, inbox) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if lines.send(line).is_err() {
                break;
            }
        }
    });

    let mut last_progress = Instant::now();
    let mut ops_done = 0u64;
    let mut setup_s = None;
    let mut report = None;
    let stalled = loop {
        match inbox.recv_timeout(Duration::from_millis(50)) {
            Ok(line) => {
                if line == "ready" {
                    setup_s = Some(spawned.elapsed().as_secs_f64());
                    last_progress = Instant::now();
                } else if let Some(ops) = line.strip_prefix("beat ") {
                    let ops = ops.trim().parse().unwrap_or(ops_done);
                    if ops > ops_done {
                        ops_done = ops;
                        last_progress = Instant::now();
                    }
                } else if let Some(json) = line.strip_prefix("report ") {
                    report = Some(Value::parse(json));
                    last_progress = Instant::now();
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break false,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
        if last_progress.elapsed() > stall_window {
            break true;
        }
    };
    if stalled {
        // A deadlocked child never exits on its own. Killing it closes its
        // stdout, which ends the reader.
        let _ = child.kill();
    }
    let status = child.wait();
    reader.join().expect("stdout reader panicked");
    if stalled {
        return Outcome::Stalled { ops_done };
    }
    match (status, report, setup_s) {
        (Ok(status), Some(Ok(report)), Some(setup_s)) if status.success() => {
            Outcome::Done { report, setup_s }
        }
        (Ok(status), Some(Err(e)), _) => {
            Outcome::Failed(format!("unreadable report ({status}): {e}"))
        }
        (Ok(status), _, _) => Outcome::Failed(format!("no report ({status})")),
        (Err(e), _, _) => Outcome::Failed(format!("wait: {e}")),
    }
}

/// Where children run: the CPU they are pinned to, when `taskset` exists.
#[derive(Debug, Clone)]
pub struct Pinning {
    pub taskset: Option<PathBuf>,
    pub cpu: usize,
    pub allowed_cpus: usize,
}

impl Pinning {
    pub fn detect() -> Pinning {
        let allowed = allowed_cpus();
        Pinning {
            taskset: find_on_path("taskset"),
            // The highest allowed CPU: CPU 0 serves most interrupts.
            cpu: allowed.last().copied().unwrap_or(0),
            allowed_cpus: allowed.len().max(1),
        }
    }

    pub fn pinned(&self) -> bool {
        self.taskset.is_some()
    }

    /// `exe args…`, through `taskset -c <cpu>` when `pin` and available.
    pub fn command(&self, exe: &Path, args: &[String], pin: bool) -> Command {
        let mut command = match (&self.taskset, pin) {
            (Some(taskset), true) => {
                let mut command = Command::new(taskset);
                command.arg("-c").arg(self.cpu.to_string()).arg(exe);
                command
            }
            _ => Command::new(exe),
        };
        command.args(args);
        command
    }
}

fn find_on_path(program: &str) -> Option<PathBuf> {
    let path = std::env::var_os("PATH")?;
    std::env::split_paths(&path)
        .map(|dir| dir.join(program))
        .find(|candidate| candidate.is_file())
}

/// CPUs this process may run on, from `Cpus_allowed_list` (e.g. `0-1,4`).
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("");
    parse_cpu_list(list.trim())
}

fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (low, high) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(low), Ok(high)) = (low.trim().parse::<usize>(), high.trim().parse::<usize>()) {
            // Bound what a corrupt mask could make us allocate.
            cpus.extend((low..=high).take(4096));
        }
    }
    cpus
}

/// The completed trials of one batch of launches, and the stalled ones.
#[derive(Debug, Default)]
pub struct Trials {
    /// `(report, setup_s)` per completed trial.
    pub done: Vec<(Value, f64)>,
    /// `ops_done` of each stalled trial.
    pub stalled: Vec<u64>,
}

/// Launches trials until `wanted` of them completed, replacing stalled
/// ones. Errors once more than [`STALL_LIMIT`] trials stalled, or as soon as
/// one fails outright.
pub fn run_trials(
    launch: &mut dyn FnMut(usize) -> Command,
    stall_window: Duration,
    wanted: usize,
) -> Result<Trials, String> {
    let mut trials = Trials::default();
    let mut launches = 0;
    while trials.done.len() < wanted {
        let outcome = run_child(launch(launches), stall_window);
        launches += 1;
        match outcome {
            Outcome::Done { report, setup_s } => trials.done.push((report, setup_s)),
            Outcome::Stalled { ops_done } => {
                eprintln!("  trial {launches} stalled after {ops_done} ops; killed and replaced");
                trials.stalled.push(ops_done);
                if trials.stalled.len() > STALL_LIMIT {
                    return Err(format!("{} trials stalled", trials.stalled.len()));
                }
            }
            Outcome::Failed(why) => return Err(format!("trial {launches} failed: {why}")),
        }
    }
    Ok(trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut command = Command::new("sh");
        command.arg("-c").arg(script);
        command
    }

    const GOOD: &str = r#"echo ready; echo 'beat 3'; echo 'report {"ops":3}'"#;
    /// Makes progress once, then never again and never exits: the shape of
    /// the store's deadlock.
    const STUCK: &str = "echo ready; echo 'beat 5'; exec sleep 60";
    const SHORT: Duration = Duration::from_millis(300);

    #[test]
    fn a_healthy_child_reports_with_its_setup_time() {
        match run_child(sh(GOOD), SHORT) {
            Outcome::Done { report, setup_s } => {
                assert_eq!(report.u64_at("ops"), Some(3));
                assert!(setup_s > 0.0 && setup_s < 5.0);
            }
            other => panic!("expected a report, got {other:?}"),
        }
    }

    #[test]
    fn a_stuck_child_is_killed_not_waited_for() {
        let started = Instant::now();
        match run_child(sh(STUCK), SHORT) {
            Outcome::Stalled { ops_done } => assert_eq!(ops_done, 5),
            other => panic!("expected a stall, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the watchdog hung"
        );
    }

    #[test]
    fn heartbeats_without_progress_do_not_feed_the_watchdog() {
        let idle = "echo ready; while true; do echo 'beat 7'; sleep 0.05; done";
        assert!(matches!(
            run_child(sh(idle), SHORT),
            Outcome::Stalled { ops_done: 7 }
        ));
    }

    #[test]
    fn a_stalled_trial_is_replaced_and_stays_out_of_the_results() {
        let mut launch = |i: usize| sh(if i == 1 { STUCK } else { GOOD });
        let trials = run_trials(&mut launch, SHORT, 3).unwrap();
        assert_eq!(trials.done.len(), 3);
        assert_eq!(trials.stalled, vec![5]);
        assert!(trials.done.iter().all(|(r, _)| r.u64_at("ops") == Some(3)));
    }

    #[test]
    fn a_workload_that_only_stalls_fails_instead_of_hanging() {
        let mut launch = |_: usize| sh("echo ready; exec sleep 60");
        let short = Duration::from_millis(60);
        let result = run_trials(&mut launch, short, 2);
        assert!(result.unwrap_err().contains("stalled"));
    }

    #[test]
    fn a_child_that_dies_without_a_report_fails_the_run() {
        assert!(matches!(
            run_child(sh("echo ready; exit 3"), SHORT),
            Outcome::Failed(_)
        ));
        let mut launch = |_: usize| sh("exit 1");
        assert!(run_trials(&mut launch, SHORT, 1).is_err());
    }

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-3"), vec![0, 2, 3]);
        assert_eq!(parse_cpu_list("5"), vec![5]);
        assert!(parse_cpu_list("").is_empty());
    }
}
