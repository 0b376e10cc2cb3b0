//! Table 2: evaluation setup — machine models plus the compile-time and
//! compiler-memory sweep (our stand-ins for the popc/Verilator rows).

use crate::{rule, sr_max};
use parendi_core::{compile, PartitionConfig};
use parendi_designs::Benchmark;
use parendi_machine::ipu::IpuConfig;
use parendi_machine::x64::X64Config;
use std::io::{self, Write};

/// Table 2: evaluation setup and the compile-time sweep.
pub fn table2(out: &mut dyn Write, quick: bool) -> io::Result<()> {
    writeln!(out, "Table 2: evaluation setup (machine models)")?;
    rule(out, 78)?;
    writeln!(
        out,
        "{:<10} {:>7} {:>6} {:>14} {:>8} {:>10}",
        "Short", "Cores", "GHz", "Cache/Mem", "Sockets", "Barrier@max"
    )?;
    for host in [X64Config::ix3(), X64Config::ae4(), X64Config::dv4()] {
        writeln!(
            out,
            "{:<10} {:>7} {:>6.2} {:>11} MiB {:>8} {:>7} cyc",
            host.name,
            host.cores_per_socket,
            host.clock_ghz,
            (host.l3_bytes_per_chiplet * (host.cores_per_socket / host.chiplet_cores) as u64) >> 20,
            host.sockets,
            host.barrier_cycles(host.total_cores()),
        )?;
    }
    let ipu = IpuConfig::m2000();
    writeln!(
        out,
        "{:<10} {:>7} {:>6.2} {:>11} MiB {:>8} {:>7} cyc",
        ipu.name,
        ipu.tiles_per_chip,
        ipu.clock_ghz,
        (ipu.tile_mem_bytes * ipu.tiles_per_chip as u64) >> 20,
        ipu.chips,
        ipu.barrier_cycles(ipu.total_tiles()),
    )?;
    rule(out, 78)?;

    writeln!(
        out,
        "\nParendi compile time and memory over the srN sweep (release build):"
    )?;
    writeln!(
        out,
        "{:<8} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "design", "#N (K)", "#F (K)", "build (s)", "compile (s)", "mem (MiB)"
    )?;
    let top = sr_max(quick);
    let mut n = 2;
    while n <= top {
        let t0 = std::time::Instant::now();
        let c = Benchmark::Sr(n).build();
        let build_s = t0.elapsed().as_secs_f64();
        let comp = compile(&c, &PartitionConfig::with_tiles(1472)).expect("fits");
        writeln!(
            out,
            "sr{n:<6} {:>10.1} {:>10.1} {:>12.2} {:>12.2} {:>10.1}",
            c.nodes.len() as f64 / 1e3,
            comp.fibers.len() as f64 / 1e3,
            build_s,
            comp.compile_seconds,
            comp.approx_memory_bytes as f64 / (1 << 20) as f64,
        )?;
        n += if n >= 8 { 3 } else { 2 };
    }
    writeln!(
        out,
        "\n(The paper reports 26 s–40 m compile and 335 MiB–55 GiB for Parendi,"
    )?;
    writeln!(
        out,
        " 3 s–8 h and 223 MiB–1 TiB for Verilator, on its full-size designs.)"
    )?;
    Ok(())
}
