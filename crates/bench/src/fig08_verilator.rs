//! Fig. 8: Verilator's scaling profiles — (a) small designs hit the
//! synchronization wall, (b) chiplet/socket boundaries flatten large
//! designs, (c) ix3 and ae4 differ by architecture.

use crate::{lr_max, sr_max};
use parendi_baseline::VerilatorModel;
use parendi_designs::Benchmark;
use parendi_machine::x64::X64Config;
use std::io::{self, Write};

fn panel(
    out: &mut dyn Write,
    title: &str,
    benches: &[Benchmark],
    threads: &[u32],
) -> io::Result<()> {
    let ix3 = X64Config::ix3();
    let ae4 = X64Config::ae4();
    writeln!(out, "{title}")?;
    write!(out, "{:>8}", "threads")?;
    for b in benches {
        write!(out, " {:>9}-ix3 {:>9}-ae4", b.name(), b.name())?;
    }
    writeln!(out)?;
    let models: Vec<VerilatorModel> = benches
        .iter()
        .map(|b| VerilatorModel::new(&b.build()))
        .collect();
    let base: Vec<(f64, f64)> = models
        .iter()
        .map(|m| (m.rate_khz(&ix3, 1), m.rate_khz(&ae4, 1)))
        .collect();
    for &t in threads {
        write!(out, "{t:>8}")?;
        for (m, (b_ix3, b_ae4)) in models.iter().zip(&base) {
            write!(
                out,
                " {:>13.2} {:>13.2}",
                m.rate_khz(&ix3, t) / b_ix3,
                m.rate_khz(&ae4, t) / b_ae4
            )?;
        }
        writeln!(out)?;
    }
    writeln!(out)
}

/// Fig. 8: Verilator's self-relative scaling profiles.
pub fn fig08(out: &mut dyn Write, quick: bool) -> io::Result<()> {
    writeln!(out, "Fig. 8: Verilator self-relative speedup vs threads\n")?;
    panel(
        out,
        "(a) small designs: sync-bound",
        &[Benchmark::Vta, Benchmark::Mc, Benchmark::Sr(3)],
        &[1, 2, 4, 6, 8],
    )?;
    let (sr, lr) = (sr_max(quick), lr_max(quick));
    panel(
        out,
        "(b) large designs: chiplet/socket cliffs",
        &[
            Benchmark::Sr(sr),
            Benchmark::Lr(lr.saturating_sub(2).max(2)),
            Benchmark::Lr(lr),
        ],
        &[1, 4, 8, 12, 16, 20, 24, 28, 32],
    )?;
    panel(
        out,
        "(c) architecture differences",
        &[
            Benchmark::Sr(sr.min(6)),
            Benchmark::Sr(sr.min(9)),
            Benchmark::Lr(lr.min(4)),
        ],
        &[1, 2, 4, 8, 12, 16],
    )?;
    writeln!(
        out,
        "Shape check: (a) flat beyond a few threads; (b) ae4 gains fade past 8"
    )?;
    writeln!(
        out,
        "threads/chiplet and ix3 past 28/socket; (c) profiles differ per host."
    )?;
    Ok(())
}
