//! Table 1: simulation rates for the three small designs — Parendi at
//! one tile and at one-fiber-per-tile, Verilator single- and
//! two-thread on the ix3 model.

use crate::{ipu_point, rule};
use parendi_baseline::VerilatorModel;
use parendi_designs::Benchmark;
use parendi_machine::ipu::IpuConfig;
use parendi_machine::x64::X64Config;
use std::io::{self, Write};

/// Table 1: small-design rates.
pub fn table1(out: &mut dyn Write, _quick: bool) -> io::Result<()> {
    let ipu = IpuConfig::m2000();
    let ix3 = X64Config::ix3();
    writeln!(out, "Table 1: small-design rates (kHz)")?;
    rule(out, 86)?;
    writeln!(
        out,
        "{:<8} | {:>6} {:>10} | {:>6} {:>10} | {:>10} {:>10}",
        "design", "par", "Parendi", "par", "Parendi", "vlt 1T", "vlt 2T"
    )?;
    rule(out, 86)?;
    for bench in Benchmark::small_three() {
        let c = bench.build();
        let one = ipu_point(&c, 1, &ipu);
        let fibers = one.comp.fibers.len() as u32;
        // Best parallel configuration up to one fiber per tile.
        let max = [64, 128, 256, 512, 1024, 1472, fibers]
            .into_iter()
            .filter(|&t| t > 1)
            .map(|t| ipu_point(&c, t.min(fibers), &ipu))
            .max_by(|a, b| a.khz.partial_cmp(&b.khz).expect("finite"))
            .expect("non-empty");
        let vm = VerilatorModel::new(&c);
        writeln!(
            out,
            "{:<8} | {:>6} {:>10.1} | {:>6} {:>10.1} | {:>10.1} {:>10.1}",
            bench.name(),
            one.tiles_used,
            one.khz,
            max.tiles_used,
            max.khz,
            vm.rate_khz(&ix3, 1),
            vm.rate_khz(&ix3, 2),
        )?;
    }
    rule(out, 86)?;
    writeln!(
        out,
        "Shape check: x64 gains nothing from 2 threads on these sizes;"
    )?;
    writeln!(
        out,
        "Parendi's parallel bitcoin beats its single-tile rate by orders of magnitude."
    )?;
    Ok(())
}
