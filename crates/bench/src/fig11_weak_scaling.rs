//! Fig. 11: coping with increasing design size (weak scaling). Parendi
//! holds its rate longer than Verilator as meshes grow, so the speedup
//! (dashed line in the paper) rises with N. Also reports the Fig. 12
//! utilization series: imbalance leaves idle tiles that absorb growth.

use crate::{best_ipu, lr_max, sr_max, verilator_point};
use parendi_baseline::VerilatorModel;
use parendi_designs::Benchmark;
use parendi_machine::ipu::IpuConfig;
use parendi_machine::x64::X64Config;
use std::io::{self, Write};

fn sweep(out: &mut dyn Write, quick: bool, label: &str, benches: Vec<Benchmark>) -> io::Result<()> {
    let ipu = IpuConfig::m2000();
    let ix3 = X64Config::ix3();
    let ae4 = X64Config::ae4();
    writeln!(out, "{label}")?;
    writeln!(
        out,
        "{:>7} {:>10} {:>10} {:>10} {:>9} {:>9} {:>8}",
        "design", "ix3-kHz", "ae4-kHz", "ipu-kHz", "sp-ix3", "sp-ae4", "util%"
    )?;
    for b in benches {
        let c = b.build();
        let vm = VerilatorModel::new(&c);
        let vx = verilator_point(&vm, &ix3);
        let va = verilator_point(&vm, &ae4);
        let best = best_ipu(&c, &ipu, quick);
        writeln!(
            out,
            "{:>7} {:>10.2} {:>10.2} {:>10.1} {:>9.2} {:>9.2} {:>8.1}",
            b.name(),
            vx.mt_khz,
            va.mt_khz,
            best.khz,
            best.khz / vx.mt_khz,
            best.khz / va.mt_khz,
            100.0 * best.comp.partition.utilization(),
        )?;
    }
    writeln!(out)
}

/// Fig. 11 (+ the Fig. 12 utilization series): weak scaling.
pub fn fig11(out: &mut dyn Write, quick: bool) -> io::Result<()> {
    writeln!(out, "Fig. 11: weak scaling (best rates per design size)\n")?;
    sweep(
        out,
        quick,
        "srN sweep:",
        (2..=sr_max(quick)).map(Benchmark::Sr).collect(),
    )?;
    sweep(
        out,
        quick,
        "lrN sweep:",
        (2..=lr_max(quick)).map(Benchmark::Lr).collect(),
    )?;
    writeln!(
        out,
        "Shape check: the ipu column falls far more slowly than the x64 columns,"
    )?;
    writeln!(
        out,
        "so the speedup columns rise with N (Fig. 11's dashed lines). Low util%"
    )?;
    writeln!(
        out,
        "at small N is the Fig. 12 headroom that absorbs design growth."
    )?;
    Ok(())
}
