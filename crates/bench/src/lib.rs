//! # parendi-bench
//!
//! The paper's evaluation as a library of figure functions: every table
//! and figure is one `fn(out, quick)` that writes its model tables to
//! `out`, all of them behind the one `figures` binary
//! (`figures [--quick] <fig01|…|fig17|table1|table2|report|all>`).
//!
//! The figures are *model* output — the cost model over real
//! compilations, which costs nothing to reproduce. Anything timed on
//! the host lives in `benchmark/`, the repo's one measurement stack;
//! [`report`] is the exception that is not a measurement: it prints how
//! one traced engine run was folded, dispatched and spent.
//!
//! `quick` shrinks every sweep for a fast smoke run (mesh tops
//! `sr6`/`lr4` instead of the paper's `sr15`/`lr10`, two tile counts
//! instead of four).

#![warn(missing_docs)]

mod fig01_trend;
mod fig04_sync;
mod fig05_comm;
mod fig06_stragglers;
mod fig07_table3;
mod fig08_verilator;
mod fig09_single_ipu;
mod fig10_multi_ipu;
mod fig11_weak_scaling;
mod fig13_nightly;
mod fig14_repcut;
mod fig15_manticore;
mod fig16_strategies;
mod fig17_multi_ipu;
mod report;
mod table1_small;
mod table2_setup;

pub use fig01_trend::fig01;
pub use fig04_sync::fig04;
pub use fig05_comm::fig05;
pub use fig06_stragglers::fig06;
pub use fig07_table3::fig07;
pub use fig08_verilator::fig08;
pub use fig09_single_ipu::fig09;
pub use fig10_multi_ipu::fig10;
pub use fig11_weak_scaling::fig11;
pub use fig13_nightly::fig13;
pub use fig14_repcut::fig14;
pub use fig15_manticore::fig15;
pub use fig16_strategies::fig16;
pub use fig17_multi_ipu::fig17;
pub use report::report;
pub use table1_small::table1;
pub use table2_setup::table2;

use parendi_baseline::VerilatorModel;
use parendi_core::{compile, Compilation, PartitionConfig};
use parendi_machine::ipu::{IpuConfig, IpuTimings};
use parendi_machine::x64::X64Config;
use parendi_rtl::Circuit;
use parendi_sim::timing::ipu_timings;
use std::io::{self, Write};

/// One figure or table: writes itself to `out`; `quick` shrinks its
/// sweeps.
pub type Figure = fn(&mut dyn Write, bool) -> io::Result<()>;

/// Every figure by the name the `figures` binary takes, in paper order
/// (`all` runs them in this order).
pub const FIGURES: &[(&str, Figure)] = &[
    ("fig01", fig01),
    ("fig04", fig04),
    ("fig05", fig05),
    ("fig06", fig06),
    ("fig07", fig07),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("table1", table1),
    ("table2", table2),
    ("report", report),
];

/// The paper's IPU tile sweep: 1, 2, 3 and 4 chips.
pub const TILE_SWEEP: [u32; 4] = [1472, 2944, 4416, 5888];

/// Largest srN mesh side: the paper's 15, or 6 in quick mode.
pub fn sr_max(quick: bool) -> u32 {
    if quick {
        6
    } else {
        15
    }
}

/// Largest lrN mesh side: the paper's 10, or 4 in quick mode.
pub fn lr_max(quick: bool) -> u32 {
    if quick {
        4
    } else {
        10
    }
}

/// One Parendi compilation + timing data point.
#[derive(Debug)]
pub struct IpuPoint {
    /// Tiles requested.
    pub tiles: u32,
    /// Tiles actually used.
    pub tiles_used: u32,
    /// Cost breakdown.
    pub timings: IpuTimings,
    /// Simulation rate in kHz.
    pub khz: f64,
    /// The compilation itself.
    pub comp: Compilation,
}

/// Compiles `circuit` for `tiles` tiles and evaluates it on `ipu`.
///
/// # Panics
///
/// Panics if compilation fails (benchmark designs are sized to fit).
pub fn ipu_point(circuit: &Circuit, tiles: u32, ipu: &IpuConfig) -> IpuPoint {
    let mut cfg = PartitionConfig::with_tiles(tiles);
    cfg.tiles_per_chip = ipu.tiles_per_chip;
    cfg.data_bytes_per_tile = ipu.data_bytes_per_tile;
    cfg.code_bytes_per_tile = ipu.code_bytes_per_tile;
    let comp = compile(circuit, &cfg)
        .unwrap_or_else(|e| panic!("{} does not compile at {tiles} tiles: {e}", circuit.name));
    let timings = ipu_timings(&comp, ipu);
    IpuPoint {
        tiles,
        tiles_used: comp.partition.tiles_used(),
        khz: timings.rate_khz(ipu),
        timings,
        comp,
    }
}

/// The best Parendi rate over the paper's tile sweep (its first two
/// points in quick mode).
pub fn best_ipu(circuit: &Circuit, ipu: &IpuConfig, quick: bool) -> IpuPoint {
    let sweep: &[u32] = if quick { &TILE_SWEEP[..2] } else { &TILE_SWEEP };
    sweep
        .iter()
        .map(|&t| ipu_point(circuit, t, ipu))
        .max_by(|a, b| a.khz.partial_cmp(&b.khz).expect("rates are finite"))
        .expect("non-empty sweep")
}

/// One Verilator data point on an x64 host.
#[derive(Clone, Copy, Debug)]
pub struct VerilatorPoint {
    /// Single-thread rate in kHz.
    pub st_khz: f64,
    /// Best multithread rate in kHz.
    pub mt_khz: f64,
    /// Threads achieving the best rate.
    pub threads: u32,
    /// Self-relative gain.
    pub gain: f64,
}

/// Evaluates the Verilator model on `host` with the paper's 2..=32 sweep.
pub fn verilator_point(model: &VerilatorModel, host: &X64Config) -> VerilatorPoint {
    let st = model.rate_khz(host, 1);
    let (threads, mt, gain) = model.best(host, 32);
    VerilatorPoint {
        st_khz: st,
        mt_khz: mt,
        threads,
        gain,
    }
}

/// Geometric mean of an iterator of positive values.
pub fn gmean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0u32), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        return 0.0;
    }
    (sum / n as f64).exp()
}

/// Writes a rule line sized for `width` columns.
pub fn rule(out: &mut dyn Write, width: usize) -> io::Result<()> {
    writeln!(out, "{}", "-".repeat(width))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parendi_designs::Benchmark;

    #[test]
    fn gmean_is_geometric() {
        assert!((gmean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((gmean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(gmean([]), 0.0);
    }

    #[test]
    fn ipu_point_monotone_tiles() {
        let c = Benchmark::Bitcoin.build();
        let ipu = IpuConfig::m2000();
        let p1 = ipu_point(&c, 64, &ipu);
        let p2 = ipu_point(&c, 1472, &ipu);
        assert!(p2.tiles_used >= p1.tiles_used);
        assert!(p2.timings.comp <= p1.timings.comp);
    }

    #[test]
    fn verilator_point_sane() {
        let c = Benchmark::Mc.build();
        let m = VerilatorModel::new(&c);
        let p = verilator_point(&m, &X64Config::ix3());
        assert!(p.st_khz > 0.0);
        assert!(p.mt_khz >= p.st_khz * 0.5);
        assert!(p.threads >= 1);
    }
}
