//! Fig. 17: multi-IPU partitioning strategies on 4 chips — partitioning
//! fibers *pre* merge (Parendi default) vs *post* merge vs ignoring chip
//! boundaries entirely (*none*).

use crate::{lr_max, sr_max};
use parendi_core::{compile, MultiChipStrategy, PartitionConfig};
use parendi_designs::Benchmark;
use parendi_machine::ipu::IpuConfig;
use parendi_sim::timing::ipu_rate_khz;
use std::io::{self, Write};

/// Fig. 17: multi-IPU partitioning strategies on 4 chips.
pub fn fig17(out: &mut dyn Write, quick: bool) -> io::Result<()> {
    let ipu = IpuConfig::m2000();
    writeln!(out, "Fig. 17: 4-IPU strategies, rate normalized to `pre`")?;
    writeln!(
        out,
        "{:>8} {:>6} | {:>9} {:>11} {:>8}",
        "design", "strat", "kHz", "offchipKiB", "norm"
    )?;
    let benches = [
        Benchmark::Sr(sr_max(quick).saturating_sub(5).max(2)),
        Benchmark::Sr(sr_max(quick)),
        Benchmark::Lr(lr_max(quick).saturating_sub(2).max(2)),
        Benchmark::Lr(lr_max(quick)),
    ];
    for bench in benches {
        let c = bench.build();
        let mut base = None;
        for (label, mc) in [
            ("pre", MultiChipStrategy::Pre),
            ("post", MultiChipStrategy::Post),
            ("none", MultiChipStrategy::None),
        ] {
            let mut cfg = PartitionConfig::with_tiles(5888);
            cfg.multi_chip = mc;
            let comp = compile(&c, &cfg).expect("fits 4 IPUs");
            let khz = ipu_rate_khz(&comp, &ipu);
            let b = *base.get_or_insert(khz);
            writeln!(
                out,
                "{:>8} {:>6} | {:>9.1} {:>11.1} {:>8.3}",
                bench.name(),
                label,
                khz,
                comp.plan.offchip_total_bytes as f64 / 1024.0,
                khz / b
            )?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "Shape check: pre >= post >> none (the paper's Fig. 17 ordering);"
    )?;
    writeln!(out, "`none` pays a much larger off-chip volume.")?;
    Ok(())
}
