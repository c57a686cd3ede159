//! The `simulate` CLI's JSONL export, byte for byte: the two runs that
//! `scripts/ci.sh` pins must write exactly the tracked fixtures, so a
//! drift of the event renderer or of the runs behind it fails `cargo test`.
//! After an intended schema change, copy the new output over the fixture.

use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};

/// Runs `simulate` with `args` and `--telemetry`, and compares the file it
/// writes with `tests/fixtures/<fixture>.jsonl`.
fn export_matches(fixture: &str, args: &[&str]) {
    let written = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{fixture}.jsonl"));
    let status = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .arg("--telemetry")
        .arg(&written)
        .stdout(Stdio::null())
        .status()
        .expect("simulate starts");
    assert!(status.success(), "simulate {args:?} exited with {status}");
    let expected = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(format!("{fixture}.jsonl"));
    let written = fs::read_to_string(&written).expect("simulate wrote its telemetry");
    let expected = fs::read_to_string(&expected).expect("the fixture is tracked");
    let first_diff = written
        .lines()
        .zip(expected.lines())
        .position(|(w, e)| w != e);
    assert!(
        written == expected,
        "{fixture}: first differing line {first_diff:?}, {} lines written, {} expected",
        written.lines().count(),
        expected.lines().count()
    );
}

#[test]
fn binary_chain_export_matches_its_fixture() {
    export_matches(
        "telemetry_smoke",
        &["--protocol", "binary", "--n", "4", "--trials", "2"],
    );
}

#[test]
fn ratifier_only_export_matches_its_fixture() {
    export_matches(
        "telemetry_ratifier_only",
        &[
            "--protocol",
            "ratifier-only",
            "--adversary",
            "quantum:4",
            "--inputs",
            "0,1,0",
            "--trials",
            "2",
        ],
    );
}
