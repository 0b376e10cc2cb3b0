//! Fig. 6: straggler fibers and performance-scaling regions for the
//! three small designs (pico, bitcoin, rocket).
//!
//! (b) fiber computation-cycle distributions (cost model over extracted
//! fibers); (c) the per-cycle cost breakdown as tiles double —
//! imbalanced designs plateau at the straggler almost immediately.

use crate::ipu_point;
use parendi_designs::Benchmark;
use parendi_graph::{extract_fibers, CostModel};
use parendi_machine::ipu::IpuConfig;
use std::io::{self, Write};

/// Fig. 6: straggler fibers and scaling regions of the three small designs.
pub fn fig06(out: &mut dyn Write, _quick: bool) -> io::Result<()> {
    let ipu = IpuConfig::m2000();
    for bench in Benchmark::small_three() {
        let c = bench.build();
        let costs = CostModel::of(&c);
        let fs = extract_fibers(&c, &costs);
        let mut cyc: Vec<u64> = fs.fibers.iter().map(|f| f.ipu_cost).collect();
        cyc.sort_unstable();
        let total: u64 = cyc.iter().sum();
        writeln!(out, "== {} ==", bench.name())?;
        writeln!(
            out,
            "Fig. 6b: {} fibers | min {} p50 {} p90 {} max {} | m_crit ~ {:.0}",
            cyc.len(),
            cyc[0],
            cyc[cyc.len() / 2],
            cyc[cyc.len() * 9 / 10],
            cyc[cyc.len() - 1],
            total as f64 / cyc[cyc.len() - 1] as f64,
        )?;
        writeln!(
            out,
            "Fig. 6c: {:>6} {:>10} {:>10} {:>10} {:>10}",
            "tiles", "t_comp", "t_comm", "t_sync", "norm-total"
        )?;
        let mut base_total = None;
        let mut tiles = 1u32;
        while tiles <= 1024 {
            let p = ipu_point(&c, tiles, &ipu);
            let total = p.timings.total();
            let base = *base_total.get_or_insert(total);
            writeln!(
                out,
                "        {:>6} {:>10.0} {:>10.0} {:>10.0} {:>10.3}",
                p.tiles_used,
                p.timings.comp,
                p.timings.comm,
                p.timings.sync,
                total / base
            )?;
            tiles *= 4;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "Shape check: pico plateaus immediately (giant straggler);"
    )?;
    writeln!(
        out,
        "bitcoin keeps reducing t_comp through hundreds of tiles."
    )?;
    Ok(())
}
