//! Fig. 10: scaling across 1–4 IPUs. Crossing chips adds expensive
//! off-chip exchange and sync, so gains are positive but far from
//! linear — and sometimes fewer chips win.

use crate::{ipu_point, lr_max, sr_max, TILE_SWEEP};
use parendi_designs::Benchmark;
use parendi_machine::ipu::IpuConfig;
use std::io::{self, Write};

/// Fig. 10: scaling across 1–4 IPUs.
pub fn fig10(out: &mut dyn Write, quick: bool) -> io::Result<()> {
    let ipu = IpuConfig::m2000();
    let benches = [
        Benchmark::Sr(sr_max(quick)),
        Benchmark::Lr(lr_max(quick).saturating_sub(2).max(2)),
        Benchmark::Lr(lr_max(quick)),
    ];
    writeln!(out, "Fig. 10: speedup vs a single IPU")?;
    write!(out, "{:>6}", "IPUs")?;
    for b in &benches {
        write!(out, " {:>10}", b.name())?;
    }
    writeln!(out)?;
    let circuits: Vec<_> = benches.iter().map(|b| b.build()).collect();
    let base: Vec<f64> = circuits
        .iter()
        .map(|c| ipu_point(c, TILE_SWEEP[0], &ipu).khz)
        .collect();
    for (i, &tiles) in TILE_SWEEP.iter().enumerate() {
        write!(out, "{:>6}", i + 1)?;
        for (c, b) in circuits.iter().zip(&base) {
            let p = ipu_point(c, tiles, &ipu);
            write!(out, " {:>10.2}", p.khz / b)?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "\nAt the reproduction's scale single-chip totals are ~1k cycles, below"
    )?;
    writeln!(
        out,
        "the off-chip latency floor (Fig. 5 right), so crossing chips never pays:"
    )?;
    writeln!(
        out,
        "the paper's own \"fewer IPUs can produce marginal gains\" regime."
    )?;

    // Extrapolation to paper scale: the paper's sr15 has ~188x our fiber
    // count; comp scales linearly with design size while the measured
    // cut/sync terms are taken from our compilations unchanged.
    const SCALE: f64 = 188.0;
    writeln!(
        out,
        "\nExtrapolated to paper-size designs (comp x{SCALE:.0}, measured comm/sync):"
    )?;
    write!(out, "{:>6}", "IPUs")?;
    for b in &benches {
        write!(out, " {:>10}", b.name())?;
    }
    writeln!(out)?;
    let base_x: Vec<f64> = circuits
        .iter()
        .map(|c| {
            let p = ipu_point(c, TILE_SWEEP[0], &ipu);
            1.0 / (p.timings.comp * SCALE + p.timings.comm + p.timings.sync)
        })
        .collect();
    for (i, &tiles) in TILE_SWEEP.iter().enumerate() {
        write!(out, "{:>6}", i + 1)?;
        for (c, b) in circuits.iter().zip(&base_x) {
            let p = ipu_point(c, tiles, &ipu);
            let rate = 1.0 / (p.timings.comp * SCALE + p.timings.comm + p.timings.sync);
            write!(out, " {:>10.2}", rate / b)?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "\nShape check: at paper scale, 4 IPUs yield positive but sublinear"
    )?;
    writeln!(out, "gains (the paper reports +60% for lr9 at 4 chips).")?;
    Ok(())
}
