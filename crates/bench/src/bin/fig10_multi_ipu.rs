//! Fig. 10: scaling across 1–4 IPUs. Crossing chips adds expensive
//! off-chip exchange and sync, so gains are positive but far from
//! linear — and sometimes fewer chips win.
//!
//! Beyond the modeled sweep, a *measured* section runs the real BSP
//! engine at host scale with chips mapped to worker groups: cross-chip
//! traffic rides per-chip-pair aggregate mailboxes flushed in a
//! separately-timed sub-phase, and a per-word delay models the slower
//! off-chip link, reproducing the `m×b` effect live.

use parendi_bench::{
    calibrate_offchip_spin, ipu_point, lr_max, quick, sr_max, write_bench_json, BenchRecord,
    TILE_SWEEP,
};
use parendi_core::{compile, PartitionConfig};
use parendi_designs::Benchmark;
use parendi_machine::ipu::IpuConfig;
use parendi_sim::{BspSimulator, GangSimulator, TransportChoice};

/// The off-chip transport backends the measured section sweeps: the
/// record `engine` tag and the backend. The in-process backend keeps
/// the plain `bsp` tag so baselines stay comparable across PRs.
const TRANSPORTS: [(&str, TransportChoice); 2] = [
    ("bsp", TransportChoice::InProcess),
    ("bsp-tcp", TransportChoice::Tcp),
];

fn main() {
    let ipu = IpuConfig::m2000();
    let benches = [
        Benchmark::Sr(sr_max()),
        Benchmark::Lr(lr_max().saturating_sub(2).max(2)),
        Benchmark::Lr(lr_max()),
    ];
    println!("Fig. 10: speedup vs a single IPU");
    print!("{:>6}", "IPUs");
    for b in &benches {
        print!(" {:>10}", b.name());
    }
    println!();
    let circuits: Vec<_> = benches.iter().map(|b| b.build()).collect();
    let base: Vec<f64> = circuits
        .iter()
        .map(|c| ipu_point(c, TILE_SWEEP[0], &ipu).khz)
        .collect();
    for (i, &tiles) in TILE_SWEEP.iter().enumerate() {
        print!("{:>6}", i + 1);
        for (c, b) in circuits.iter().zip(&base) {
            let p = ipu_point(c, tiles, &ipu);
            print!(" {:>10.2}", p.khz / b);
        }
        println!();
    }
    println!("\nAt the reproduction's scale single-chip totals are ~1k cycles, below");
    println!("the off-chip latency floor (Fig. 5 right), so crossing chips never pays:");
    println!("the paper's own \"fewer IPUs can produce marginal gains\" regime.");

    // Extrapolation to paper scale: the paper's sr15 has ~188x our fiber
    // count; comp scales linearly with design size while the measured
    // cut/sync terms are taken from our compilations unchanged.
    const SCALE: f64 = 188.0;
    println!("\nExtrapolated to paper-size designs (comp x{SCALE:.0}, measured comm/sync):");
    print!("{:>6}", "IPUs");
    for b in &benches {
        print!(" {:>10}", b.name());
    }
    println!();
    let base_x: Vec<f64> = circuits
        .iter()
        .map(|c| {
            let p = ipu_point(c, TILE_SWEEP[0], &ipu);
            1.0 / (p.timings.comp * SCALE + p.timings.comm + p.timings.sync)
        })
        .collect();
    for (i, &tiles) in TILE_SWEEP.iter().enumerate() {
        print!("{:>6}", i + 1);
        for (c, b) in circuits.iter().zip(&base_x) {
            let p = ipu_point(c, tiles, &ipu);
            let rate = 1.0 / (p.timings.comp * SCALE + p.timings.comm + p.timings.sync);
            print!(" {:>10.2}", rate / b);
        }
        println!();
    }
    println!("\nShape check: at paper scale, 4 IPUs yield positive but sublinear");
    println!("gains (the paper reports +60% for lr9 at 4 chips).");

    // Measured engine: the same chip-count sweep executed for real at
    // host scale. One worker group per chip; the off-chip column is the
    // timed flush of the per-chip-pair aggregate mailboxes. The spin
    // knob is no longer a swept magic number: it is *fitted* once to
    // the modeled off-chip link (offchip_bytes_per_cycle /
    // offchip_contention, scaled into host time by a calibration run),
    // so the measured flush column and the modeled volume cost print in
    // shared units — modeled IPU cycles per RTL cycle.
    let cal = calibrate_offchip_spin(&ipu);
    println!(
        "\nOff-chip calibration: {} spins/word (exact {:.2}; link {:.1} B/model-cyc / \
         contention {:.2}; host {:.2} ns per model cycle; {:.0} Mspin/s)",
        cal.spins_per_word,
        cal.spins_per_word_exact,
        ipu.offchip_bytes_per_cycle,
        ipu.offchip_contention,
        cal.host_s_per_model_cycle * 1e9,
        cal.spin_hz / 1e6,
    );
    let design = Benchmark::Sr(if quick() { 3 } else { 4 });
    let circuit = design.build();
    let per_chip = 8u32;
    let threads = 4usize;
    let cycles: u64 = if quick() { 200 } else { 500 };
    let chip_sweep: &[u32] = if quick() { &[1, 2] } else { &[1, 2, 4] };
    println!(
        "\nMeasured engine ({}, {per_chip} tiles/chip, {threads} threads, calibrated \
         {} spins/word off-chip):",
        design.name(),
        cal.spins_per_word,
    );
    println!(
        "{:>6} {:>6} {:>11} {:>11} {:>12} {:>12} {:>10} {:>12} {:>12} {:>9}",
        "chips",
        "tiles",
        "offchipKiB",
        "comp/cyc",
        "onchip/cyc",
        "offchip/cyc",
        "ovlp/cyc",
        "meas(mcyc)",
        "model(mcyc)",
        "kcyc/s"
    );
    // The last sweep point's compilation and timings double as the
    // single-lane baseline of the gang comparison below.
    let mut last_point = None;
    let mut records = Vec::new();
    // Per chip count: (per-backend kcyc/s triple, transport bytes).
    let mut transport_rows: Vec<(u32, Vec<f64>, u64)> = Vec::new();
    for &chips in chip_sweep {
        let mut cfg = PartitionConfig::with_tiles(per_chip * chips);
        cfg.tiles_per_chip = per_chip;
        let comp = compile(&circuit, &cfg).expect("host-scale compile");
        // The same partition under every transport backend. Both
        // must land on bit-identical outputs (checked below); the
        // in-process run provides the detailed phase row.
        let mut ph = None;
        let mut rates = Vec::new();
        let mut outputs: Option<Vec<_>> = None;
        let mut bytes = 0u64;
        for &(tag, backend) in &TRANSPORTS {
            let mut sim = BspSimulator::with_transport(&circuit, &comp.partition, threads, backend);
            sim.set_offchip_spin_per_word(cal.spins_per_word);
            sim.run(50); // warm the persistent pool
            let p = sim.run_timed(cycles);
            let outs: Vec<_> = circuit
                .outputs
                .iter()
                .map(|o| sim.peek_output(&o.name).expect("design output"))
                .collect();
            match &outputs {
                None => outputs = Some(outs),
                Some(first) => assert_eq!(
                    first, &outs,
                    "transport {tag} diverged from {} at {chips} chips",
                    TRANSPORTS[0].0
                ),
            }
            bytes = sim.offchip_bytes_sent();
            rates.push(cycles as f64 / p.total_s / 1e3);
            records.push(
                BenchRecord::from_phases(
                    "fig10",
                    design.name(),
                    tag,
                    false,
                    comp.partition.chips,
                    comp.partition.tiles_used(),
                    1,
                    threads as u32,
                    cycles,
                    cycles as f64 / p.total_s,
                    &p,
                )
                .with_metrics(sim.metrics_snapshot()),
            );
            if ph.is_none() {
                ph = Some(p);
            }
        }
        transport_rows.push((chips, rates, bytes));
        let ph = ph.expect("at least one backend ran");
        // Shared units: the measured link occupancy converted to model
        // cycles next to the model's throughput term for the same
        // volume (the fixed off-chip latency is the model's separate
        // floor; it has no engine counterpart and is excluded from both
        // columns). Since the flush/compute overlap, the straggler's
        // link time is its residual wait plus whatever compute hid
        // (`overlap_s`) — together the full serialized occupancy the
        // model charges, printed whole so the columns stay comparable.
        let link_s = ph.offchip_s + ph.overlap_s;
        let meas_model_cycles = cal.host_s_to_model_cycles(link_s / cycles as f64);
        let model_volume_cycles = comp.plan.offchip_total_bytes as f64 * ipu.offchip_contention
            / ipu.offchip_bytes_per_cycle;
        println!(
            "{:>6} {:>6} {:>11.2} {:>9.2}µs {:>10.2}µs {:>10.2}µs {:>8.2}µs {:>12.1} {:>12.1} {:>9.1}",
            chips,
            comp.partition.tiles_used(),
            comp.plan.offchip_total_bytes as f64 / 1024.0,
            ph.compute_s * 1e6 / cycles as f64,
            ph.exchange_s * 1e6 / cycles as f64,
            ph.offchip_s * 1e6 / cycles as f64,
            ph.overlap_s * 1e6 / cycles as f64,
            meas_model_cycles,
            model_volume_cycles,
            cycles as f64 / ph.total_s / 1e3,
        );
        last_point = Some((chips, comp, ph));
    }
    println!("\nTransport backends (same partition; outputs checked bit-identical per row):");
    print!("{:>6} {:>12}", "chips", "movedKiB");
    for &(tag, _) in &TRANSPORTS {
        print!(" {:>12}", format!("{tag} kc/s"));
    }
    println!();
    for (chips, rates, bytes) in &transport_rows {
        print!("{:>6} {:>12.2}", chips, *bytes as f64 / 1024.0);
        for r in rates {
            print!(" {r:>12.1}");
        }
        println!();
    }
    println!("\nShape check: the measured off-chip column is zero at 1 chip and grows");
    println!("with the modeled cross-chip volume once chips > 1; ovlp/cyc is the");
    println!("modeled link time the eager flush hid under compute. meas(mcyc) and");
    println!("model(mcyc) share units (modeled IPU cycles per RTL cycle, volume term");
    println!("only); at this reproduction's tiny volumes the measured side is mostly");
    println!("per-record flush bookkeeping, so expect meas >> model until designs");
    println!("move enough bytes for the calibrated per-word term to dominate.");

    // Gang throughput next to the single-lane engine: the sweep's last
    // point (compilation and timed single-lane phases) is reused as the
    // baseline — same partition, same calibrated spin. Aggregate
    // lane-cycles/sec beats the single-lane engine because each
    // dispatched step amortizes over all lanes.
    let (chips, comp, ph1) = last_point.expect("non-empty chip sweep");
    let lanes = 4usize;
    let mut gang = GangSimulator::new(&circuit, &comp.partition, threads, lanes);
    gang.set_offchip_spin_per_word(cal.spins_per_word);
    gang.run(50);
    let phl = gang.run_timed(cycles);
    println!(
        "\nGang engine at {chips} chips ({lanes} lanes, off-chip bytes x{lanes} = {:.2} KiB):",
        comp.plan
            .scaled_by_lanes(lanes as u32, false)
            .offchip_total_bytes as f64
            / 1024.0,
    );
    println!(
        "  single-lane {:>9.1} lane-kcyc/s | gang {:>9.1} lane-kcyc/s ({:.2}x aggregate)",
        ph1.lane_cycles_per_s() / 1e3,
        phl.lane_cycles_per_s() / 1e3,
        phl.lane_cycles_per_s() / ph1.lane_cycles_per_s().max(1e-12),
    );
    records.push(
        BenchRecord::from_phases(
            "fig10",
            design.name(),
            "gang",
            false,
            chips,
            comp.partition.tiles_used(),
            lanes as u32,
            threads as u32,
            cycles,
            cycles as f64 / phl.total_s,
            &phl,
        )
        .with_metrics(gang.metrics_snapshot()),
    );
    match write_bench_json("fig10", &records) {
        Ok(path) => println!("\nwrote {} ({} records)", path.display(), records.len()),
        Err(e) => println!("\ncould not write BENCH_fig10.json: {e}"),
    }
}
