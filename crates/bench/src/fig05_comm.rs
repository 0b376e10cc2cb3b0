//! Fig. 5: measured communication cycles on the IPU — on-chip exchange
//! cost follows the per-tile byte count `b`; off-chip cost follows the
//! total volume `m×b` and saturates the 107 GiB/s fabric.

use parendi_machine::ipu::IpuConfig;
use std::io::{self, Write};

/// Fig. 5: modeled on-chip and off-chip exchange cycles.
pub fn fig05(out: &mut dyn Write, _quick: bool) -> io::Result<()> {
    let ipu = IpuConfig::m2000();
    let ms = [64u64, 184, 368, 552, 736];
    let bs = [4u64, 16, 64, 128, 256, 512];

    writeln!(
        out,
        "Fig. 5 (left): on-chip exchange cycles (rows m, cols b) incl. sync"
    )?;
    write!(out, "{:>6}", "m\\b")?;
    for &b in &bs {
        write!(out, "{b:>8}")?;
    }
    writeln!(out)?;
    for &m in &ms {
        write!(out, "{m:>6}")?;
        for &b in &bs {
            let c = ipu.sync_cycles(m as u32) + ipu.onchip_exchange_cycles(b);
            write!(out, "{c:>8}")?;
        }
        writeln!(out)?;
    }

    writeln!(
        out,
        "\nFig. 5 (right): off-chip exchange cycles (rows m, cols b) incl. sync"
    )?;
    write!(out, "{:>6}", "m\\b")?;
    for &b in &bs {
        write!(out, "{b:>8}")?;
    }
    writeln!(out)?;
    for &m in &ms {
        write!(out, "{m:>6}")?;
        for &b in &bs {
            // every tile pair crosses chips: total volume = m*b both ways
            let c = ipu.sync_cycles(2 * m as u32) + ipu.offchip_exchange_cycles(2 * m * b);
            write!(out, "{c:>8}")?;
        }
        writeln!(out)?;
    }

    // Shape checks.
    let on_col = ipu.onchip_exchange_cycles(512);
    let on_small = ipu.onchip_exchange_cycles(4);
    let off_corner = ipu.offchip_exchange_cycles(2 * 736 * 512);
    let off_small = ipu.offchip_exchange_cycles(2 * 64 * 512);
    writeln!(
        out,
        "\nShape check: on-chip grows only with b ({on_small} -> {on_col} cycles),"
    )?;
    writeln!(
        out,
        "off-chip grows with m at fixed b ({off_small} -> {off_corner} cycles)."
    )?;
    Ok(())
}
