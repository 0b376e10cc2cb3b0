//! Fig. 15: Parendi on one IPU (1472 tiles) vs a Manticore-like 225-core
//! BSP accelerator. Manticore's per-core rate is higher (huge register
//! file, statically scheduled pipeline) but it has 6.5× fewer cores and
//! tight memory, so large designs favour the IPU.

use crate::ipu_point;
use parendi_core::{compile, PartitionConfig};
use parendi_designs::Benchmark;
use parendi_machine::ipu::IpuConfig;
use parendi_machine::manticore::ManticoreConfig;
use std::io::{self, Write};

/// Fig. 15: Parendi on one IPU vs a Manticore-like accelerator.
pub fn fig15(out: &mut dyn Write, _quick: bool) -> io::Result<()> {
    let ipu = IpuConfig::m2000();
    let mcr = ManticoreConfig::prototype();
    writeln!(
        out,
        "Fig. 15: speedup of Parendi (1472 tiles) over Manticore (225 cores)"
    )?;
    writeln!(
        out,
        "{:>8} {:>10} {:>10} {:>9} {:>7}",
        "design", "ipu-kHz", "mcr-kHz", "ipu/mcr", "fits?"
    )?;
    for bench in [
        Benchmark::Bitcoin,
        Benchmark::Prng(256),
        Benchmark::Vta,
        Benchmark::Pico,
        Benchmark::Rocket,
        Benchmark::Sr(3),
        Benchmark::Mc,
    ] {
        let c = bench.build();
        let ipu_p = ipu_point(&c, 1472, &ipu);
        // Manticore: partition the same design onto 225 cores.
        let mut cfg = PartitionConfig::with_tiles(225);
        cfg.tiles_per_chip = 225;
        let comp = compile(&c, &cfg).expect("fits 225 cores");
        let per_core_comm = comp.plan.total_sent() / comp.partition.tiles_used().max(1) as u64;
        let cycles = mcr.cycles_per_rtl_cycle(comp.partition.straggler_cost(), per_core_comm);
        let mcr_khz = mcr.rate_khz(cycles);
        let state = c.array_bytes() + c.state_bits() / 8;
        writeln!(
            out,
            "{:>8} {:>10.1} {:>10.1} {:>9.2} {:>7}",
            bench.name(),
            ipu_p.khz,
            mcr_khz,
            ipu_p.khz / mcr_khz,
            if mcr.fits(state) { "yes" } else { "NO" }
        )?;
    }
    writeln!(
        out,
        "\nShape check: small straggler-bound designs (pico) lean Manticore"
    )?;
    writeln!(
        out,
        "(faster cores); wide designs (bitcoin, vta, mc) lean Parendi."
    )?;
    Ok(())
}
