//! Fig. 4: PRNG simulation rate vs parallelism with a fixed number of
//! fibers per tile (IPU) or thread (x64).
//!
//! The PRNGs are independent (`t_comm = 0`), so the experiment isolates
//! `t_sync`: rate(m) = clk / (2·barrier(m) + f·fiber_cost). The fiber
//! cost is *measured* from the real xorshift design via the cost model;
//! the barrier costs come from the machine models of §4.1.

use parendi_designs::prng::build_prng_bank;
use parendi_graph::{extract_fibers, CostModel};
use parendi_machine::ipu::IpuConfig;
use parendi_machine::x64::X64Config;
use std::io::{self, Write};

/// Fig. 4: modeled sync cost vs parallelism, IPU and x64.
pub fn fig04(out: &mut dyn Write, _quick: bool) -> io::Result<()> {
    // Measure one fiber's cost from the real design.
    let bank = build_prng_bank(4);
    let costs = CostModel::of(&bank);
    let fibers = extract_fibers(&bank, &costs);
    let ipu_fiber = fibers.fibers[0].ipu_cost;
    let x64_fiber = fibers.fibers[0].x64_cost;
    writeln!(
        out,
        "measured xorshift fiber: {ipu_fiber} IPU cycles, {x64_fiber} x64 instructions\n"
    )?;

    let ipu = IpuConfig::m2000();
    writeln!(out, "Fig. 4 (left): IPU, rate normalized to 64 tiles")?;
    writeln!(out, "{:>6} {:>9} {:>9} {:>9}", "tiles", "7f", "56f", "448f")?;
    let fs = [7u64, 56, 448];
    let base: Vec<f64> = fs
        .iter()
        .map(|&f| 1.0 / (ipu.sync_cycles(64) as f64 + f as f64 * ipu_fiber as f64))
        .collect();
    let mut tiles = 64;
    while tiles <= 5888 {
        let rates: Vec<f64> = fs
            .iter()
            .map(|&f| 1.0 / (ipu.sync_cycles(tiles) as f64 + f as f64 * ipu_fiber as f64))
            .collect();
        writeln!(
            out,
            "{tiles:>6} {:>9.3} {:>9.3} {:>9.3}",
            rates[0] / base[0],
            rates[1] / base[1],
            rates[2] / base[2]
        )?;
        tiles += 832;
    }

    let ix3 = X64Config::ix3();
    writeln!(
        out,
        "\nFig. 4 (right): x64 (ix3 barrier), rate normalized to 1 thread"
    )?;
    writeln!(
        out,
        "{:>8} {:>9} {:>9} {:>9}",
        "threads", "736f", "5888f", "47104f"
    )?;
    let fs = [736u64, 5888, 47104];
    let base: Vec<f64> = fs
        .iter()
        .map(|&f| 1.0 / (f as f64 * x64_fiber as f64 / ix3.base_ipc))
        .collect();
    for threads in [1u32, 7, 14, 21, 28, 35, 42, 49, 56] {
        let rates: Vec<f64> = fs
            .iter()
            .map(|&f| {
                1.0 / (ix3.sync_cycles(threads) as f64 + f as f64 * x64_fiber as f64 / ix3.base_ipc)
            })
            .collect();
        writeln!(
            out,
            "{threads:>8} {:>9.3} {:>9.3} {:>9.3}",
            rates[0] / base[0],
            rates[1] / base[1],
            rates[2] / base[2]
        )?;
    }
    writeln!(
        out,
        "\nShape check: IPU\u{2019}s 448f line stays near 1.0; x64 falls sharply even at 47104f."
    )?;
    Ok(())
}
