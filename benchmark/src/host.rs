//! Where a number was taken. A rate without its host is not a
//! measurement, so every result file carries this stamp.

use crate::json::Json;
use parendi_core::{compile, PartitionConfig};
use parendi_designs::Benchmark;
use parendi_sim::GangSimulator;
use std::process::Command;

/// Worker threads an engine workload may use: never more than the cores
/// the process may run on, and at most 4 so results from larger hosts
/// stay comparable with the 2-core reference host.
pub fn tmax() -> usize {
    available_parallelism().min(4)
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Online processors as the kernel lists them (may exceed
/// `available_parallelism` under a CPU quota or affinity mask).
pub fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(available_parallelism)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc`
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The revision of the checkout the harness runs in. An exported tree
/// (no `.git` here) is "unknown": `git` would otherwise walk up into
/// whatever repository happens to enclose it.
fn git_rev() -> String {
    if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short", "HEAD"])
    } else {
        "unknown".into()
    }
}

/// The vector ISA a gang engine resolves on this machine. Only an
/// engine can say, so this builds the smallest one there is.
fn simd() -> &'static str {
    let circuit = Benchmark::Prng(1).build();
    let comp = compile(&circuit, &PartitionConfig::with_tiles(1)).expect("prng1 compiles");
    let isa = GangSimulator::new(&circuit, &comp.partition, 1, 4).simd();
    isa
}

/// The host stamp.
pub fn stamp() -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        (
            "available_parallelism",
            Json::Num(available_parallelism() as f64),
        ),
        ("tmax", Json::Num(tmax() as f64)),
        ("simd", Json::str(simd())),
        ("transport", Json::str("inproc")),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("git_rev", Json::str(git_rev())),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}
