//! Proof that the correctness check can fail: the harness is run with
//! its fault-injection hook and must report failed operations and exit
//! nonzero. Also pins what `--smoke` promises. These tests run the real
//! binary from the repository root, at a fiftieth of the reference
//! length (the test profile is unoptimised, so the engine is slow).

use parendi_benchmark::json::Json;
use std::path::Path;
use std::process::Command;

/// Runs the harness; returns whether it exited 0 and its last line.
fn harness(args: &[&str]) -> (bool, Json) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_parendi-benchmark"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("harness starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let line =
        Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}):\n{stdout}"));
    (out.status.success(), line)
}

fn count(line: &Json, key: &str) -> f64 {
    line.get(key).and_then(Json::as_f64).unwrap()
}

#[test]
fn a_corrupted_lane_fails_the_run() {
    let args = [
        "--workload",
        "gang_lanes",
        "--seconds",
        "0.3",
        "--seed",
        "5",
        "--trace",
        "0",
    ];
    let (ok, line) = harness(&[&args[..], &["--inject-fault"]].concat());
    assert!(!ok, "a poked lane must make the harness exit nonzero");
    assert!(count(&line, "failed") > 0.0);
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
}

#[test]
fn a_corrupted_daemon_response_fails_the_run() {
    let args = [
        "--workload",
        "serve_mixed",
        "--seconds",
        "0.3",
        "--seed",
        "5",
        "--trace",
        "0",
    ];
    let (ok, line) = harness(&[&args[..], &["--inject-fault"]].concat());
    assert!(!ok, "a spoiled response must make the harness exit nonzero");
    assert!(count(&line, "failed") >= 1.0);
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
}

#[test]
fn smoke_passes_and_can_never_pass_for_a_measurement() {
    let (ok, line) = harness(&["--workload", "single_sync", "--smoke", "--trace", "0"]);
    assert!(ok);
    assert_eq!(count(&line, "failed"), 0.0);
    assert!(count(&line, "attempted") >= 1.0);
    let keys: Vec<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
    let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut want: Vec<&str> = parendi_benchmark::catalog::END_TO_END
        .iter()
        .map(|m| m.name)
        .collect();
    want.sort_unstable();
    assert_eq!(
        names, want,
        "--trace 0 reports exactly the end-to-end metrics"
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let file = root.join("benchmark/out/single_sync.trace0.json");
    let full = Json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
    assert_eq!(full.get("comparable"), Some(&Json::Bool(false)));
    assert!(full.get("host").and_then(|h| h.get("rustc")).is_some());
}
