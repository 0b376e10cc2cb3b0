//! Gang lane sweep: aggregate scenario throughput of the gang engine —
//! lane-strided and **bit-packed** — vs the single-scenario BSP engine,
//! over one compiled partition.
//!
//! The gang engine runs L independent stimulus lanes in lockstep, so
//! each dispatched bytecode instruction is amortized L ways. Packed
//! mode goes one dimension further on exactly the nets that dominate
//! control-heavy designs: 1-bit values are bit-packed across lanes (64
//! scenarios per `u64` word), so a single bitwise op advances 64 lanes.
//! Multi-bit state is word-interleaved (`word × lane` rows) in every
//! gang, so each fused opcode sweeps dense lane chunks. This bin
//! sweeps L up to 256 lanes on the corpus designs — including the sr
//! mesh — and prints **aggregate lane-cycles/sec** for both gangs next
//! to the single-scenario engine; the acceptance criterion is that the
//! packed aggregate keeps rising superlinearly vs strided at 64+ lanes.
//!
//! Throughput comes from *untimed* `run` calls (best of three reps, no
//! per-cycle clock reads); the phase split in the JSON comes from one
//! additional `run_timed`. Every row lands in `BENCH_gang_lanes.json`
//! ([`parendi_bench::write_bench_json`]) with a `packed` flag, and when
//! the checked-in baseline has a matching row its delta prints side by
//! side (`vs base`) — the perf trajectory of the engine, gated in CI by
//! the `bench_check` bin.
//!
//! A microbench at the end shows what the fused `nw == 1` single-word
//! opcodes buy over the general slice kernels.
//!
//! Env knobs: `PARENDI_QUICK=1` (or `--quick`) shrinks the sweep to the
//! CI smoke shape (2 chips × lanes {1, 4, 64}); `PARENDI_GANG_LANES`
//! overrides the lane list (comma-separated); `PARENDI_BENCH_DIR`
//! redirects the JSON; `PARENDI_BASELINE` points at an alternative
//! baseline file.

use parendi_bench::{
    baseline_rate, load_baseline, parse_quick_flag, quick, vs_baseline_cell, write_bench_json,
    BenchRecord,
};
use parendi_core::{compile, Compilation, PartitionConfig};
use parendi_designs::{prng, Benchmark};
use parendi_rtl::bits::word;
use parendi_rtl::Circuit;
use parendi_sim::{BspSimulator, GangSimulator};
use std::hint::black_box;
use std::time::Instant;

const BIN: &str = "gang_lanes";
const REPS: usize = 3;

fn lane_sweep() -> Vec<usize> {
    if let Ok(v) = std::env::var("PARENDI_GANG_LANES") {
        let lanes: Vec<usize> = v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
        if !lanes.is_empty() {
            return lanes;
        }
    }
    if quick() {
        // The CI smoke still crosses the packed word boundary: 64 lanes
        // is where one u64 op carries a full word of scenarios.
        vec![1, 4, 64]
    } else {
        vec![1, 4, 16, 64, 128, 256]
    }
}

fn compile_two_chips(circuit: &Circuit, tiles: u32) -> Compilation {
    let mut cfg = PartitionConfig::with_tiles(tiles);
    cfg.tiles_per_chip = tiles.div_ceil(2).max(1); // 2 chips: exercise the off-chip flush
    compile(circuit, &cfg).expect("bench design compiles")
}

/// Fills the shared measurement fields of a record: best-of-`REPS`
/// untimed wall time for the rate, one timed run for the phase split.
fn measure(rec: &mut BenchRecord, run: &mut dyn FnMut(bool) -> parendi_sim::BspPhases) {
    let mut best = f64::MAX;
    for _ in 0..REPS {
        best = best.min(run(false).total_s);
    }
    let ph = run(true);
    *rec = BenchRecord::from_phases(
        &rec.bin,
        rec.design.clone(),
        &rec.engine,
        rec.packed,
        rec.chips,
        rec.tiles,
        rec.lanes,
        rec.threads,
        rec.cycles,
        rec.cycles as f64 / best,
        &ph,
    );
}

#[allow(clippy::too_many_arguments)]
fn sweep_design(
    key: &str,
    circuit: &Circuit,
    tiles: u32,
    threads: usize,
    cycles: u64,
    base: Option<&[BenchRecord]>,
    out: &mut Vec<BenchRecord>,
) {
    let comp = compile_two_chips(circuit, tiles);
    let chips = comp.partition.chips;
    let tiles_used = comp.partition.tiles_used();
    println!(
        "\n== {key} ({tiles_used} tiles, {chips} chips, {threads} threads, {cycles} cycles) =="
    );
    println!(
        "{:>6} {:>13} {:>13} {:>8} {:>9} {:>9}",
        "lanes", "strided kc/s", "packed kc/s", "pack/str", "vs 1-lane", "vs base"
    );
    let template = |engine: &str, lanes: u32, packed: bool| BenchRecord {
        bin: BIN.into(),
        design: key.into(),
        engine: engine.into(),
        packed,
        chips,
        tiles: tiles_used,
        lanes,
        threads: threads as u32,
        cores: parendi_bench::host_cores(),
        cycles,
        ..BenchRecord::default()
    };

    let mut rec = template("bsp", 1, false);
    {
        let mut single = BspSimulator::new(circuit, &comp.partition, threads);
        single.run(30); // warm the pool
        measure(&mut rec, &mut |timed| {
            if timed {
                single.run_timed(cycles)
            } else {
                parendi_sim::BspPhases {
                    total_s: single.run(cycles),
                    ..Default::default()
                }
            }
        });
    }
    let vs = baseline_rate(
        base.unwrap_or(&[]),
        BIN,
        key,
        "bsp",
        false,
        "",
        1,
        threads as u32,
    );
    println!(
        "{:>6} {:>13.1} {:>13} {:>8} {:>9} {:>9} (single-scenario BspSimulator)",
        1,
        rec.lane_cycles_per_s / 1e3,
        "-",
        "-",
        vs_baseline_cell(rec.lane_cycles_per_s, vs),
        "-",
    );
    let single_rate = rec.lane_cycles_per_s;
    out.push(rec);

    for lanes in lane_sweep() {
        // Two gangs over the identical partition: strided and
        // bit-packed. pack/str is the acceptance metric of the packed
        // engine.
        let mut measured = [0f64; 2];
        for (pi, &packed) in [false, true].iter().enumerate() {
            let mut rec = template("gang", lanes as u32, packed);
            {
                let mut gang = if packed {
                    GangSimulator::new_packed(circuit, &comp.partition, threads, lanes)
                } else {
                    GangSimulator::new(circuit, &comp.partition, threads, lanes)
                };
                gang.run(30);
                measure(&mut rec, &mut |timed| {
                    if timed {
                        gang.run_timed(cycles)
                    } else {
                        parendi_sim::BspPhases {
                            total_s: gang.run(cycles),
                            ..Default::default()
                        }
                    }
                });
            }
            measured[pi] = rec.lane_cycles_per_s;
            out.push(rec);
        }
        let [strided, packed] = measured;
        let vs = baseline_rate(
            base.unwrap_or(&[]),
            BIN,
            key,
            "gang",
            false,
            "",
            lanes as u32,
            threads as u32,
        );
        println!(
            "{:>6} {:>13.1} {:>13.1} {:>7.2}x {:>8.2}x {:>9}",
            lanes,
            strided / 1e3,
            packed / 1e3,
            packed / strided.max(1e-12),
            packed / single_rate.max(1e-12),
            vs_baseline_cell(strided, vs),
        );
    }
}

/// One round of representative single-word ops through the slice
/// kernels (the pre-fast-path cost of an `nw == 1` step).
#[inline(never)]
fn kernel_round(a: u64, b: u64) -> u64 {
    let (av, bv) = ([a], [b]);
    let mut out = [0u64];
    word::add(&mut out, &av, &bv, 32);
    let s = out;
    word::xor(&mut out, &s, &bv, 32);
    let x = out;
    word::mul(&mut out, &x, &av, 32);
    let m = out;
    let sh = word::shift_amount(&bv, 32) & 31;
    word::lshr(&mut out, &m, sh, 32);
    out[0] ^ word::lt_u(&av, &bv) as u64
}

/// The same ops as plain masked `u64` arithmetic (the fused-opcode
/// path of the bytecode loop).
#[inline(never)]
fn scalar_round(a: u64, b: u64) -> u64 {
    let mask = 0xffff_ffffu64;
    let s = a.wrapping_add(b) & mask;
    let x = s ^ b;
    let m = x.wrapping_mul(a) & mask;
    let sh = (b as u32).min(32) & 31;
    (m >> sh) ^ (a < b) as u64
}

fn fast_path_delta() {
    let iters: u64 = if quick() { 2_000_000 } else { 10_000_000 };
    let time = |f: &dyn Fn(u64, u64) -> u64| -> f64 {
        let mut acc = 0x9E37_79B9u64;
        let t = Instant::now();
        for i in 0..iters {
            acc = f(black_box(acc), black_box(i | 1));
        }
        black_box(acc);
        t.elapsed().as_secs_f64() / iters as f64
    };
    let kern = time(&kernel_round);
    let scal = time(&scalar_round);
    println!("\nnw==1 fused-opcode delta (5-op round, {iters} iters):");
    println!(
        "  slice kernels {:>7.2} ns/round | scalar u64 {:>7.2} ns/round | {:.2}x",
        kern * 1e9,
        scal * 1e9,
        kern / scal.max(1e-12),
    );
    println!("  (both engines dispatch single-word steps straight into the scalar");
    println!("   kernels via dedicated fused opcodes; the packed gang additionally");
    println!("   advances 64 scenarios per op on 1-bit control nets)");
}

fn main() {
    parse_quick_flag();
    let cycles: u64 = if quick() { 300 } else { 1000 };
    let base = load_baseline();
    println!("Gang lane sweep: aggregate scenario-cycles/sec vs lane count");
    println!("(strided = one u64 word per lane per 1-bit net; packed = 64 lanes per word)");
    if base.is_none() {
        println!("(no baseline found; vs base column prints '-')");
    }
    let mut records = Vec::new();

    // One thread isolates the dispatch-bound regime the fused bytecode
    // targets; four threads add the barrier/exchange dimension.
    for threads in [1usize, 4] {
        // Design 1: the seeded PRNG bank — the nw==1-heavy seed-farm
        // workload gang execution exists for (tiny fibers,
        // dispatch-dominated; the acceptance design of the bytecode PR).
        let bank = prng::build_seeded_bank(32);
        sweep_design(
            "sprng32",
            &bank,
            16,
            threads,
            cycles,
            base.as_deref(),
            &mut records,
        );

        // Design 2: a mesh NoC — the mixed control/datapath corpus
        // design: dense 1-bit valid/grant/fire arbitration logic (the
        // packed mode's turf) around a 32-bit flit datapath that bounds
        // the packing win, with real cross-tile and cross-chip traffic
        // riding the (part packed) mailboxes.
        let n = if quick() { 3 } else { 4 };
        let mesh = Benchmark::Sr(n).build();
        sweep_design(
            &format!("sr{n}"),
            &mesh,
            16,
            threads,
            cycles,
            base.as_deref(),
            &mut records,
        );

        // Design 3: the Rule 30 cellular automaton — the pure-control
        // corpus design: every net is one bit, so the packed engine
        // advances 64 scenarios per machine op on the *whole* design.
        // This is where hundreds of lanes per tile dispatch show up.
        let cells = if quick() { 256 } else { 1024 };
        let ca = Benchmark::Ca(cells).build();
        sweep_design(
            &format!("ca{cells}"),
            &ca,
            16,
            threads,
            cycles,
            base.as_deref(),
            &mut records,
        );
    }

    fast_path_delta();

    match write_bench_json(BIN, &records) {
        Ok(path) => println!("\nwrote {} ({} records)", path.display(), records.len()),
        Err(e) => println!("\ncould not write BENCH_{BIN}.json: {e}"),
    }
    if let Some(base) = &base {
        // The PR acceptance lines, side by side with the baseline.
        for r in records.iter().filter(|r| r.engine == "gang" && !r.packed) {
            if let Some(b) = baseline_rate(
                base, BIN, &r.design, &r.engine, r.packed, &r.simd, r.lanes, r.threads,
            ) {
                println!(
                    "{} gang lanes={} threads={}: base {:>9.1} kcyc/s -> now {:>9.1} kcyc/s ({})",
                    r.design,
                    r.lanes,
                    r.threads,
                    b / 1e3,
                    r.lane_cycles_per_s / 1e3,
                    vs_baseline_cell(r.lane_cycles_per_s, Some(b)),
                );
            }
        }
    }

    println!("\nShape check: packed lane-kcyc/s keeps rising past 64 lanes on the");
    println!("control-dominated mesh — one u64 op per 1-bit net advances 64");
    println!("scenarios, so the packed aggregate grows superlinearly vs strided");
    println!("while dispatch, not memory bandwidth, remains amortized L ways.");
}
