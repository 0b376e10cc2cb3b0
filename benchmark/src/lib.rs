//! The harness behind `parendi-benchmark`: workloads, generators, the
//! oracle and the metric catalogue. `main.rs` is the command line on
//! top; `benchmark/README.md` explains what is measured and why.

pub mod catalog;
pub mod compile;
pub mod ctx;
pub mod engine;
pub mod extras;
pub mod gen;
pub mod host;
pub mod json;
pub mod serve;
pub mod spans;
pub mod stats;

use std::path::PathBuf;

/// Where result and trace files go: `benchmark/out`, relative when the
/// harness runs from the repository root (the daemon's socket lives
/// there too, and socket paths must stay short).
pub fn out_dir() -> PathBuf {
    let dir = if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    };
    std::fs::create_dir_all(&dir).expect("benchmark/out can be created");
    dir
}
