//! Fig. 4: PRNG simulation rate vs parallelism with a fixed number of
//! fibers per tile (IPU) or thread (x64).
//!
//! The PRNGs are independent (`t_comm = 0`), so the experiment isolates
//! `t_sync`: rate(m) = clk / (2·barrier(m) + f·fiber_cost). The fiber
//! cost is *measured* from the real xorshift design via the cost model;
//! the barrier costs come from the machine models of §4.1.

use parendi_bench::{
    append_bench_json, baseline_rate, load_baseline, parse_quick_flag, vs_baseline_cell,
    BenchRecord,
};
use parendi_core::{compile, PartitionConfig};
use parendi_designs::prng::build_prng_bank;
use parendi_graph::{extract_fibers, CostModel};
use parendi_machine::ipu::IpuConfig;
use parendi_machine::x64::X64Config;
use parendi_sim::BspSimulator;

/// Seconds each measured pool runs before it is timed.
const WARM_S: f64 = 1.5;

fn main() {
    parse_quick_flag();
    // Measure one fiber's cost from the real design.
    let bank = build_prng_bank(4);
    let costs = CostModel::of(&bank);
    let fibers = extract_fibers(&bank, &costs);
    let ipu_fiber = fibers.fibers[0].ipu_cost;
    let x64_fiber = fibers.fibers[0].x64_cost;
    println!("measured xorshift fiber: {ipu_fiber} IPU cycles, {x64_fiber} x64 instructions\n");

    let ipu = IpuConfig::m2000();
    println!("Fig. 4 (left): IPU, rate normalized to 64 tiles");
    println!("{:>6} {:>9} {:>9} {:>9}", "tiles", "7f", "56f", "448f");
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
        println!(
            "{tiles:>6} {:>9.3} {:>9.3} {:>9.3}",
            rates[0] / base[0],
            rates[1] / base[1],
            rates[2] / base[2]
        );
        tiles += 832;
    }

    let ix3 = X64Config::ix3();
    println!("\nFig. 4 (right): x64 (ix3 barrier), rate normalized to 1 thread");
    println!(
        "{:>8} {:>9} {:>9} {:>9}",
        "threads", "736f", "5888f", "47104f"
    );
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
        println!(
            "{threads:>8} {:>9.3} {:>9.3} {:>9.3}",
            rates[0] / base[0],
            rates[1] / base[1],
            rates[2] / base[2]
        );
    }
    println!(
        "\nShape check: IPU\u{2019}s 448f line stays near 1.0; x64 falls sharply even at 47104f."
    );

    // Host-engine cross-check: the PRNGs are independent (`t_comm = 0`),
    // so the measured exchange phase of the real point-to-point engine is
    // pure synchronization — the executable counterpart of the modeled
    // barrier costs above. The kcyc/s column comes from *untimed* runs
    // (best of three; timed runs pay per-tile clock reads), the phase
    // columns from one timed run; every row is appended to
    // BENCH_fig04.json (a trajectory: earlier rows stay, each new row
    // stamped with the host's core count) and prints its delta against
    // the checked-in pre-PR baseline.
    let base = load_baseline();
    let bank = build_prng_bank(64);
    let comp = compile(&bank, &PartitionConfig::with_tiles(32)).expect("prng bank fits");
    println!(
        "\nHost engine (measured, {} tiles, t_comm = 0): exchange phase is pure sync cost",
        comp.partition.tiles_used()
    );
    println!(
        "{:>8} {:>12} {:>14} {:>12} {:>9}",
        "threads", "compute/cyc", "exchange/cyc", "kcyc/s", "vs pre-PR"
    );
    let mut records = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let mut sim = BspSimulator::new(&bank, &comp.partition, threads);
        // Warm the persistent pool until the host has spread it: a
        // fresh pool can start on one core and be migrated only after
        // about a second, and with independent workers (no neighbour
        // ever parks) nothing else hurries the scheduler along.
        let warm = std::time::Instant::now();
        while warm.elapsed().as_secs_f64() < WARM_S {
            sim.run(20_000);
        }
        let cycles = 20_000u64;
        let best = (0..3).map(|_| sim.run(cycles)).fold(f64::MAX, f64::min);
        let ph = sim.run_timed(cycles);
        let rate = cycles as f64 / best;
        let vs = baseline_rate(
            base.as_deref().unwrap_or(&[]),
            "fig04",
            "prng64",
            "bsp",
            false,
            "",
            1,
            threads as u32,
        );
        println!(
            "{threads:>8} {:>10.2}µs {:>12.2}µs {:>12.1} {:>9}",
            ph.compute_s * 1e6 / cycles as f64,
            ph.exchange_s * 1e6 / cycles as f64,
            rate / 1e3,
            vs_baseline_cell(rate, vs),
        );
        records.push(BenchRecord::from_phases(
            "fig04",
            "prng64",
            "bsp",
            false,
            comp.partition.chips,
            comp.partition.tiles_used(),
            1,
            threads as u32,
            cycles,
            rate,
            &ph,
        ));
    }
    match append_bench_json("fig04", &records) {
        Ok((path, rows)) => println!(
            "\nappended {} records to {} ({rows} rows)",
            records.len(),
            path.display()
        ),
        Err(e) => println!("\ncould not write BENCH_fig04.json: {e}"),
    }
    if let Some(base) = &base {
        for r in &records {
            if let Some(b) = baseline_rate(base, "fig04", "prng64", "bsp", false, "", 1, r.threads)
            {
                println!(
                    "prng64 bsp threads={}: pre-PR {:>9.1} kcyc/s -> now {:>9.1} kcyc/s ({})",
                    r.threads,
                    b / 1e3,
                    r.cycles_per_s / 1e3,
                    vs_baseline_cell(r.cycles_per_s, Some(b)),
                );
            }
        }
    }
}
