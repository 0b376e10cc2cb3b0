//! Gang simulation quickstart: one compiled design, many scenarios.
//!
//! Compiles the seeded PRNG bank once, then runs 8 lanes in lockstep
//! with a *different seed per lane* — a miniature seed farm. Every
//! lane's state is checked against the software golden model, the
//! aggregate scenario throughput is printed next to a single-lane run,
//! and one lane's waveform is dumped to a VCD for debugging.
//!
//! ```sh
//! cargo run --release --example gang_sweep
//! # then open /tmp/gang_lane3.vcd in GTKWave
//! ```

use parendi::core::{compile, PartitionConfig};
use parendi::designs::prng;
use parendi::rtl::{Bits, RegId};
use parendi::sim::{dump_vcd_lane, GangSimulator, StimulusSet};
use std::fs::File;
use std::io::BufWriter;

fn main() -> std::io::Result<()> {
    let generators = 16u32;
    let lanes = 8usize;
    let circuit = prng::build_seeded_bank(generators);
    let mut cfg = PartitionConfig::with_tiles(8);
    cfg.tiles_per_chip = 4; // two chips, so lane traffic crosses the gateway
    let comp = compile(&circuit, &cfg).expect("bank compiles");
    println!(
        "sprng{generators}: {} tiles on {} chips, {lanes} lanes over one compile",
        comp.partition.tiles_used(),
        comp.partition.chips
    );

    // Divergent seeds per lane, loaded through the reseed port for one
    // cycle, then free-running.
    let lane_seed = |l: usize| 0xC0FF_EE00_0000_0000u64 | (l as u64).wrapping_mul(0xDEAD_BEEF);
    let mut stim = StimulusSet::new(lanes as u32);
    for l in 0..lanes as u32 {
        stim.drive(0, l, "reseed", Bits::from_u64(1, 1));
        stim.drive(0, l, "seed", Bits::from_u64(64, lane_seed(l as usize)));
        stim.drive(1, l, "reseed", Bits::from_u64(1, 0));
    }

    let post = 1000u64;
    let mut gang = GangSimulator::new(&circuit, &comp.partition, 4, lanes);
    gang.run_stimulus(1 + post, &stim);

    // Every lane's every generator must sit on its golden state.
    for l in 0..lanes {
        for g in 0..generators {
            assert_eq!(
                gang.reg_value_lane(RegId(g), l).to_u64(),
                prng::soft_seeded_state(g, lane_seed(l), post),
                "lane {l} generator {g}"
            );
        }
    }
    println!(
        "all {} streams match the software golden model",
        lanes as u32 * generators
    );

    // Aggregate throughput vs a single-lane engine run.
    let cycles = 2000u64;
    let mut single = GangSimulator::new(&circuit, &comp.partition, 4, 1);
    single.run(100);
    let ph1 = single.run_timed(cycles);
    let phl = gang.run_timed(cycles);
    println!(
        "single-lane {:.0} kcyc/s | gang x{lanes} {:.0} lane-kcyc/s ({:.2}x aggregate)",
        ph1.lane_cycles_per_s() / 1e3,
        phl.lane_cycles_per_s() / 1e3,
        phl.lane_cycles_per_s() / ph1.lane_cycles_per_s().max(1e-12),
    );

    // Waveform-debug one lane of the gang (lanes advance together; only
    // lane 3's values are recorded).
    let vcd_path = "/tmp/gang_lane3.vcd";
    dump_vcd_lane(&mut gang, 3, 50, BufWriter::new(File::create(vcd_path)?))?;
    println!("wrote 50 cycles of lane 3's waveform to {vcd_path}");
    Ok(())
}
