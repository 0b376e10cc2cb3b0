//! Fig. 9: single-IPU scaling (184 → 1472 tiles) and the per-cycle time
//! breakdown. Performance is monotone on one chip because sync and comm
//! stay cheap while `t_comp` keeps falling.

use crate::ipu_point;
use parendi_designs::Benchmark;
use parendi_machine::ipu::IpuConfig;
use std::io::{self, Write};

/// Fig. 9: single-IPU scaling and the per-cycle breakdown.
pub fn fig09(out: &mut dyn Write, _quick: bool) -> io::Result<()> {
    let ipu = IpuConfig::m2000();
    for bench in [Benchmark::Vta, Benchmark::Sr(10), Benchmark::Lr(6)] {
        let c = bench.build();
        writeln!(out, "== {} ==", bench.name())?;
        writeln!(
            out,
            "{:>7} {:>6} {:>10} | {:>8} {:>8} {:>8} | {:>9}",
            "tiles", "used", "speedup", "comp%", "comm%", "sync%", "kHz"
        )?;
        let mut base = None;
        for k in 1..=8u32 {
            let tiles = 184 * k;
            let p = ipu_point(&c, tiles, &ipu);
            let total = p.timings.total();
            let b = *base.get_or_insert(p.khz);
            writeln!(
                out,
                "{tiles:>7} {:>6} {:>10.2} | {:>8.1} {:>8.1} {:>8.1} | {:>9.1}",
                p.tiles_used,
                p.khz / b,
                100.0 * p.timings.comp / total,
                100.0 * p.timings.comm / total,
                100.0 * p.timings.sync / total,
                p.khz
            )?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "Shape check: speedup rises with tiles until the straggler/sync bound,"
    )?;
    writeln!(
        out,
        "then plateaus (the paper's vta shows the same staircase); comm+sync"
    )?;
    writeln!(out, "fractions grow as t_comp shrinks (Fig. 9b).")?;
    Ok(())
}
