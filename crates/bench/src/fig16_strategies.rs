//! Fig. 16: Parendi's bottom-up SLB (B) vs RepCut-style hypergraph
//! partitioning (H) on a single IPU: normalized machine cycles per RTL
//! cycle with the sync/comm/comp breakdown. Neither strategy dominates.

use parendi_core::{compile, PartitionConfig, Strategy};
use parendi_designs::Benchmark;
use parendi_machine::ipu::IpuConfig;
use parendi_sim::timing::ipu_timings;
use std::io::{self, Write};

/// Fig. 16: bottom-up vs hypergraph partitioning on one IPU.
pub fn fig16(out: &mut dyn Write, _quick: bool) -> io::Result<()> {
    let ipu = IpuConfig::m2000();
    writeln!(
        out,
        "Fig. 16: cycles per RTL cycle, B vs H (normalized to B)"
    )?;
    writeln!(
        out,
        "{:>8} {:>4} | {:>9} {:>9} {:>9} | {:>9} {:>7}",
        "design", "strat", "comp", "comm", "sync", "total", "norm"
    )?;
    let benches: Vec<Benchmark> = (4..=7)
        .map(Benchmark::Sr)
        .chain((2..=5).map(Benchmark::Lr))
        .collect();
    for bench in benches {
        let c = bench.build();
        let mut base = None;
        for (label, strategy) in [("B", Strategy::BottomUp), ("H", Strategy::Hypergraph)] {
            let mut cfg = PartitionConfig::with_tiles(1472);
            cfg.strategy = strategy;
            let comp = compile(&c, &cfg).expect("fits one IPU");
            let t = ipu_timings(&comp, &ipu);
            let total = t.total();
            let b = *base.get_or_insert(total);
            writeln!(
                out,
                "{:>8} {:>4} | {:>9.0} {:>9.0} {:>9.0} | {:>9.0} {:>7.3}",
                bench.name(),
                label,
                t.comp,
                t.comm,
                t.sync,
                total,
                total / b
            )?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "Shape check: the winner flips between designs; neither B nor H is"
    )?;
    writeln!(out, "uniformly better (paper §6.6).")?;
    Ok(())
}
