//! Fig. 17: multi-IPU partitioning strategies on 4 chips — partitioning
//! fibers *pre* merge (Parendi default) vs *post* merge vs ignoring chip
//! boundaries entirely (*none*).
//!
//! A *measured* section executes the strategies on the real BSP engine
//! at host scale: with the per-word off-chip delay engaged, the timed
//! flush of the chip-pair aggregate mailboxes tracks each strategy's
//! cross-chip volume — the live counterpart of the modeled ordering.

use parendi_bench::{lr_max, quick, sr_max, write_bench_json, BenchRecord};
use parendi_core::{compile, MultiChipStrategy, PartitionConfig};
use parendi_designs::Benchmark;
use parendi_machine::ipu::IpuConfig;
use parendi_sim::timing::{ipu_rate_khz, ipu_timings};
use parendi_sim::{BspSimulator, TransportChoice};

/// The off-chip transport backends the measured section sweeps (the
/// record `engine` tag and the backend); the in-process backend keeps
/// the plain `bsp` tag so baselines stay comparable across PRs.
const TRANSPORTS: [(&str, TransportChoice); 2] = [
    ("bsp", TransportChoice::InProcess),
    ("bsp-tcp", TransportChoice::Tcp),
];

/// Spin iterations per flushed word (the host stand-in for the slower
/// off-chip fabric), matching fig10's measured section.
const OFFCHIP_SPIN_PER_WORD: u32 = 64;

fn main() {
    let ipu = IpuConfig::m2000();
    println!("Fig. 17: 4-IPU strategies, rate normalized to `pre`");
    println!(
        "{:>8} {:>6} | {:>9} {:>11} {:>8}",
        "design", "strat", "kHz", "offchipKiB", "norm"
    );
    let benches = [
        Benchmark::Sr(sr_max().saturating_sub(5).max(2)),
        Benchmark::Sr(sr_max()),
        Benchmark::Lr(lr_max().saturating_sub(2).max(2)),
        Benchmark::Lr(lr_max()),
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
            let t = ipu_timings(&comp, &ipu);
            let _ = t;
            let b = *base.get_or_insert(khz);
            println!(
                "{:>8} {:>6} | {:>9.1} {:>11.1} {:>8.3}",
                bench.name(),
                label,
                khz,
                comp.plan.offchip_total_bytes as f64 / 1024.0,
                khz / b
            );
        }
        println!();
    }
    println!("Shape check: pre >= post >> none (the paper's Fig. 17 ordering);");
    println!("`none` pays a much larger off-chip volume.");

    // Measured engine: the three strategies executed for real at host
    // scale (chips → worker groups). The measured off-chip flush column
    // sits next to the modeled cross-chip volume driving it.
    let design = Benchmark::Sr(if quick() { 3 } else { 4 });
    let circuit = design.build();
    let chips = if quick() { 2u32 } else { 4 };
    let per_chip = 4u32;
    let threads = 4usize;
    let cycles: u64 = if quick() { 200 } else { 500 };
    println!(
        "\nMeasured engine ({}, {chips} chips x {per_chip} tiles, {threads} threads, \
         {OFFCHIP_SPIN_PER_WORD} spins/word off-chip):",
        design.name()
    );
    println!(
        "{:>6} | {:>11} {:>11} {:>12} {:>12} {:>9}",
        "strat", "offchipKiB", "comp/cyc", "onchip/cyc", "offchip/cyc", "kcyc/s"
    );
    let mut records = Vec::new();
    // Per strategy: kcyc/s per transport backend.
    let mut transport_rows: Vec<(&str, Vec<f64>)> = Vec::new();
    for (label, mc) in [
        ("pre", MultiChipStrategy::Pre),
        ("post", MultiChipStrategy::Post),
        ("none", MultiChipStrategy::None),
    ] {
        let mut cfg = PartitionConfig::with_tiles(chips * per_chip);
        cfg.tiles_per_chip = per_chip;
        cfg.multi_chip = mc;
        let comp = compile(&circuit, &cfg).expect("host-scale compile");
        // The same partition under every transport backend; the
        // in-process run provides the detailed phase row.
        let mut main_ph = None;
        let mut rates = Vec::new();
        for &(tag, backend) in &TRANSPORTS {
            let mut sim = BspSimulator::with_transport(&circuit, &comp.partition, threads, backend);
            sim.set_offchip_spin_per_word(OFFCHIP_SPIN_PER_WORD);
            sim.run(50); // warm the persistent pool
            let ph = sim.run_timed(cycles);
            rates.push(cycles as f64 / ph.total_s / 1e3);
            records.push(BenchRecord::from_phases(
                "fig17",
                format!("{}-{label}", design.name()),
                tag,
                false,
                comp.partition.chips,
                comp.partition.tiles_used(),
                1,
                threads as u32,
                cycles,
                cycles as f64 / ph.total_s,
                &ph,
            ));
            if main_ph.is_none() {
                main_ph = Some(ph);
            }
        }
        let ph = main_ph.expect("at least one backend ran");
        // The off-chip column charges the *full* modeled link occupancy
        // (residual wait + the part the flush/compute overlap hid) so
        // it keeps tracking each strategy's cross-chip volume.
        println!(
            "{:>6} | {:>11.2} {:>9.2}µs {:>10.2}µs {:>10.2}µs {:>9.1}",
            label,
            comp.plan.offchip_total_bytes as f64 / 1024.0,
            ph.compute_s * 1e6 / cycles as f64,
            ph.exchange_s * 1e6 / cycles as f64,
            (ph.offchip_s + ph.overlap_s) * 1e6 / cycles as f64,
            cycles as f64 / ph.total_s / 1e3,
        );
        transport_rows.push((label, rates));
    }
    println!("\nTransport backends (same partitions, functionally bit-identical):");
    print!("{:>6}", "strat");
    for &(tag, _) in &TRANSPORTS {
        print!(" {:>12}", format!("{tag} kc/s"));
    }
    println!();
    for (label, rates) in &transport_rows {
        print!("{label:>6}");
        for r in rates {
            print!(" {r:>12.1}");
        }
        println!();
    }
    match write_bench_json("fig17", &records) {
        Ok(path) => println!("\nwrote {} ({} records)", path.display(), records.len()),
        Err(e) => println!("\ncould not write BENCH_fig17.json: {e}"),
    }
    println!("\nShape check: the measured off-chip column follows each strategy's");
    println!("modeled cross-chip volume (pre flushes the least, none the most).");
}
