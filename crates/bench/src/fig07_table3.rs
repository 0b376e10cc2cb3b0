//! Fig. 7 + Table 3: Parendi vs multithreaded Verilator across the full
//! evaluation suite (vta, mc, sr2–srN, lr2–lrN), with the paper's size
//! columns (#N, #F, #I, binary MiB, Int./Ext. cut).

use crate::{best_ipu, gmean, lr_max, rule, sr_max, verilator_point};
use parendi_baseline::VerilatorModel;
use parendi_designs::Benchmark;
use parendi_machine::ipu::IpuConfig;
use parendi_machine::x64::X64Config;
use std::io::{self, Write};

/// Fig. 7 + Table 3: Parendi vs Verilator over the evaluation suite.
pub fn fig07(out: &mut dyn Write, quick: bool) -> io::Result<()> {
    let ipu = IpuConfig::m2000();
    let ix3 = X64Config::ix3();
    let ae4 = X64Config::ae4();
    writeln!(
        out,
        "Fig. 7 + Table 3: Parendi (IPU model) vs Verilator (x64 models)"
    )?;
    rule(out, 132)?;
    writeln!(
        out,
        "{:<6} | {:>8} {:>8} {:>3} | {:>8} {:>8} {:>3} | {:>9} {:>5} | {:>6} {:>6} {:>6} | {:>7} {:>7} {:>6} {:>7} {:>7}",
        "bench", "ix3-st", "ix3-mt", "#T", "ae4-st", "ae4-mt", "#T", "ipu-kHz", "#T",
        "sp-ix3", "sp-ae4", "gmean", "#I(K)", "#N(K)", "#F(K)", "Int.KiB", "Ext.KiB"
    )?;
    rule(out, 132)?;
    let mut sp_ix3 = Vec::new();
    let mut sp_ae4 = Vec::new();
    for bench in Benchmark::suite(sr_max(quick), lr_max(quick)) {
        let c = bench.build();
        let vm = VerilatorModel::new(&c);
        let p_ix3 = verilator_point(&vm, &ix3);
        let p_ae4 = verilator_point(&vm, &ae4);
        let best = best_ipu(&c, &ipu, quick);
        let s_ix3 = best.khz / p_ix3.mt_khz;
        let s_ae4 = best.khz / p_ae4.mt_khz;
        sp_ix3.push(s_ix3);
        sp_ae4.push(s_ae4);
        writeln!(
            out,
            "{:<6} | {:>8.2} {:>8.2} {:>3} | {:>8.2} {:>8.2} {:>3} | {:>9.1} {:>5} | {:>6.2} {:>6.2} {:>6.2} | {:>7.1} {:>7.1} {:>6.2} {:>7.1} {:>7.1}",
            bench.name(),
            p_ix3.st_khz,
            p_ix3.mt_khz,
            p_ix3.threads,
            p_ae4.st_khz,
            p_ae4.mt_khz,
            p_ae4.threads,
            best.khz,
            best.tiles_used,
            s_ix3,
            s_ae4,
            (s_ix3 * s_ae4).sqrt(),
            vm.total_instrs as f64 / 1e3,
            c.nodes.len() as f64 / 1e3,
            best.comp.fibers.len() as f64 / 1e3,
            best.comp.plan.onchip_cut_bytes as f64 / 1024.0,
            best.comp.plan.offchip_cut_bytes as f64 / 1024.0,
        )?;
    }
    rule(out, 132)?;
    let g_ix3 = gmean(sp_ix3.iter().copied());
    let g_ae4 = gmean(sp_ae4.iter().copied());
    writeln!(
        out,
        "geomean speedup: ix3 {:.2}  ae4 {:.2}  overall {:.2}   (paper: 2.81 / 2.75 / 2.78)",
        g_ix3,
        g_ae4,
        (g_ix3 * g_ae4).sqrt()
    )?;
    writeln!(
        out,
        "Shape check: large meshes favour the IPU; tiny sr2/lr2 favour Verilator."
    )?;
    Ok(())
}
