//! The CI perf-regression gate: parses the fresh `BENCH_*.json` files a
//! bench run just wrote and fails (exit 1) when any engine column
//! regressed beyond the noise tolerance against the checked-in
//! baselines.
//!
//! Usage: `bench_check [fresh-dir]` — `fresh-dir` defaults to
//! `$PARENDI_BENCH_DIR` (else `.`), the same place the figure/gang bins
//! write to, so CI can run it right after the smoke steps with the same
//! environment.
//!
//! Baselines: every `*.json` in the crate's `baselines/` directory
//! (currently `pre_pr4.json`, the pre-unification engine,
//! `post_pr5.json`, the packed-lane engine, `post_pr6.json`, the
//! SIMD/word-interleaved engine, `post_pr7.json`, the pluggable
//! off-chip transport engine with its `bsp-tcp`-tagged fig10/fig17
//! rows, and `post_pr10.json`, the serve-daemon rows —
//! `serve_load`'s cold/warm scenario throughput plus the traced
//! `perf_report` point), or a single file named by
//! `$PARENDI_BASELINE`. Rows match on `(bin, design, engine, packed,
//! simd, lanes, threads)` — the `simd` tag is empty on strided rows
//! and on pre-PR6 baselines, so old baselines keep gating the strided
//! columns; rows present on only one side are skipped, so quick-mode
//! sweeps and new columns never trip the gate.
//!
//! Tolerance: 25% by default, `$PARENDI_BENCH_TOLERANCE` overrides
//! (fractional, e.g. `0.4` for noisy shared runners). The comparison
//! logic lives in [`parendi_bench::check_regressions`], which unit
//! tests pin to fail on a synthetic regression.

use parendi_bench::{bench_tolerance, check_regressions, parse_bench_json, BenchRecord};
use std::path::{Path, PathBuf};

/// Reads every `BENCH_*.json` under `dir` into one record list.
fn read_fresh(dir: &Path) -> Vec<BenchRecord> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    for p in paths {
        if let Ok(text) = std::fs::read_to_string(&p) {
            let recs = parse_bench_json(&text);
            println!("fresh: {} ({} records)", p.display(), recs.len());
            out.extend(recs);
        }
    }
    out
}

/// Reads the baseline set: `$PARENDI_BASELINE` if set, else every
/// `*.json` under the crate's checked-in `baselines/`.
fn read_baselines() -> Vec<BenchRecord> {
    if let Ok(path) = std::env::var("PARENDI_BASELINE") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let recs = parse_bench_json(&text);
        println!("baseline: {path} ({} records)", recs.len());
        return recs;
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
    let mut out = Vec::new();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for p in paths {
        if let Ok(text) = std::fs::read_to_string(&p) {
            let recs = parse_bench_json(&text);
            println!("baseline: {} ({} records)", p.display(), recs.len());
            out.extend(recs);
        }
    }
    out
}

fn main() {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| std::env::var("PARENDI_BENCH_DIR").unwrap_or_else(|_| ".".to_string()));
    let fresh = read_fresh(Path::new(&dir));
    let base = read_baselines();
    let tol = bench_tolerance();
    if fresh.is_empty() {
        // A gate that silently passes with nothing to check would hide a
        // broken bench step.
        eprintln!("bench_check: no BENCH_*.json found in {dir}");
        std::process::exit(1);
    }
    let matched = base
        .iter()
        .filter(|b| {
            fresh.iter().any(|f| {
                f.bin == b.bin
                    && f.design == b.design
                    && f.engine == b.engine
                    && f.packed == b.packed
                    && f.simd == b.simd
                    && f.lanes == b.lanes
                    && f.threads == b.threads
            })
        })
        .count();
    println!(
        "bench_check: {} fresh records vs {} baseline rows ({} matched), tolerance {:.0}%",
        fresh.len(),
        base.len(),
        matched,
        tol * 100.0
    );
    if matched == 0 {
        // A join that matches nothing gates nothing: if the sweep
        // shapes or design keys drift away from every baseline row, the
        // gate must say so instead of printing OK.
        eprintln!("bench_check: no fresh record matches any baseline row — key drift?");
        std::process::exit(1);
    }
    let failures = check_regressions(&fresh, &base, tol);
    if failures.is_empty() {
        println!("bench_check: OK — no engine column regressed beyond the tolerance");
        return;
    }
    eprintln!("bench_check: PERF REGRESSION ({} rows):", failures.len());
    for f in &failures {
        eprintln!("  {f}");
    }
    std::process::exit(1);
}
