//! The gang engine must be bit-identical to the reference interpreter
//! **in every lane**, for every circuit, partition shape, thread count,
//! and lane count — scenario parallelism may never change scenario
//! semantics. Each lane gets its own input trace; the oracle is one
//! reference interpreter per lane replaying that lane's slice of the
//! trace.

mod common;

use common::{random_circuit, random_circuit_io};
use parendi_core::{compile, MultiChipStrategy, PartitionConfig};
use parendi_rtl::bits::Bits;
use parendi_rtl::{Circuit, RegId};
use parendi_sim::{GangSimulator, Simulator, StimulusSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic random per-lane input trace: every input of every
/// lane is re-driven with ~30% probability per cycle, so lanes diverge
/// immediately and keep diverging.
fn random_stim(seed: u64, circuit: &Circuit, lanes: u32, cycles: u64) -> StimulusSet {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5717_AB1E);
    let mut stim = StimulusSet::new(lanes);
    for c in 0..cycles {
        for l in 0..lanes {
            for d in &circuit.inputs {
                if c == 0 || rng.random_bool(0.3) {
                    stim.drive(c, l, &d.name, Bits::from_u64(d.width, rng.random::<u64>()));
                }
            }
        }
    }
    stim
}

/// Replays lane `lane` of `stim` against a fresh reference interpreter.
fn reference_lane<'c>(
    circuit: &'c Circuit,
    stim: &StimulusSet,
    lane: u32,
    cycles: u64,
) -> Simulator<'c> {
    let mut sim = Simulator::new(circuit);
    for c in 0..cycles {
        stim.apply_lane(lane, c, &mut sim);
        sim.step();
    }
    sim
}

/// Runs a gang over `stim` and asserts every lane's registers, arrays,
/// and primary outputs equal its per-lane reference.
fn check_gang(
    circuit: &Circuit,
    cfg: &PartitionConfig,
    threads: usize,
    lanes: usize,
    cycles: u64,
    seed: u64,
) {
    let comp = compile(circuit, cfg).expect("compiles");
    let stim = random_stim(seed, circuit, lanes as u32, cycles);
    let mut gang = GangSimulator::new(circuit, &comp.partition, threads, lanes);
    gang.run_stimulus(cycles, &stim);
    assert_eq!(gang.cycle(), cycles);
    for lane in 0..lanes {
        let reference = reference_lane(circuit, &stim, lane as u32, cycles);
        for i in 0..circuit.regs.len() {
            assert_eq!(
                gang.reg_value_lane(RegId(i as u32), lane),
                reference.reg_value(RegId(i as u32)),
                "lane {lane}: reg {} diverged after {cycles} cycles on {threads} threads x {lanes} lanes",
                circuit.regs[i].name,
            );
        }
        for (ai, a) in circuit.arrays.iter().enumerate() {
            for idx in 0..a.depth {
                assert_eq!(
                    gang.array_value_lane(parendi_rtl::ArrayId(ai as u32), idx, lane),
                    reference.array_value(parendi_rtl::ArrayId(ai as u32), idx),
                    "lane {lane}: array {}[{idx}] diverged",
                    a.name
                );
            }
        }
        for o in &circuit.outputs {
            assert_eq!(
                gang.peek_output_lane(&o.name, lane).expect("output exists"),
                reference.output(&o.name).expect("output exists"),
                "lane {lane}: output {} diverged",
                o.name
            );
        }
    }
}

/// The ISSUE's acceptance matrix: Pre/Post multi-chip distribution ×
/// 1/2/4/8 threads × lanes {1, 2, 3, 4, 15, 16, 17}, per-lane stimulus,
/// array writes and primary-output readback checked in every lane. One
/// lane is the scalar instantiation; 2-4 are the narrowest
/// word-interleaved gangs; 15/16/17 straddle the lane count at which
/// the engine switches lane-kernel instantiations.
#[test]
fn gang_matrix_matches_reference_per_lane() {
    for seed in [11u64, 23] {
        let c = random_circuit_io(seed, 10, 50, 4);
        for mc in [MultiChipStrategy::Pre, MultiChipStrategy::Post] {
            let mut cfg = PartitionConfig::with_tiles(8);
            cfg.tiles_per_chip = 4; // force real multi-chip paths
            cfg.multi_chip = mc;
            for &threads in &[1usize, 2, 4, 8] {
                for &lanes in &[1usize, 2, 3, 4, 15, 16, 17] {
                    check_gang(&c, &cfg, threads, lanes, 25, seed);
                }
            }
        }
    }
}

/// Without inputs the lanes never diverge: every lane must equal the
/// single reference bit-for-bit (the lane-strided layout itself is
/// what's under test here, including the off-chip flush with the spin
/// delay engaged).
#[test]
fn input_free_gang_lanes_all_match_reference() {
    let c = random_circuit(7, 12, 60);
    let mut cfg = PartitionConfig::with_tiles(9);
    cfg.tiles_per_chip = 3;
    let comp = compile(&c, &cfg).expect("compiles");
    let mut reference = Simulator::new(&c);
    let mut gang = GangSimulator::new(&c, &comp.partition, 4, 8);
    reference.step_n(60);
    gang.run(60);
    for lane in 0..8 {
        for i in 0..c.regs.len() {
            assert_eq!(
                gang.reg_value_lane(RegId(i as u32), lane),
                reference.reg_value(RegId(i as u32)),
                "lane {lane}: reg {i}"
            );
        }
        for (ai, a) in c.arrays.iter().enumerate() {
            for idx in 0..a.depth {
                assert_eq!(
                    gang.array_value_lane(parendi_rtl::ArrayId(ai as u32), idx, lane),
                    reference.array_value(parendi_rtl::ArrayId(ai as u32), idx),
                    "lane {lane}: array {}[{idx}]",
                    a.name
                );
            }
        }
    }
}

/// Epoch parity and the persistent worker pool must survive uneven
/// `run` chunking with inputs poked between chunks, in every lane.
#[test]
fn gang_chunked_runs_with_per_lane_pokes() {
    let c = random_circuit_io(3, 8, 40, 2);
    let mut cfg = PartitionConfig::with_tiles(6);
    cfg.tiles_per_chip = 3;
    let comp = compile(&c, &cfg).expect("compiles");
    let lanes = 4usize;
    let mut gang = GangSimulator::new(&c, &comp.partition, 3, lanes);
    let mut refs: Vec<Simulator> = (0..lanes).map(|_| Simulator::new(&c)).collect();
    let mut total = 0u64;
    for (k, chunk) in [1u64, 2, 61, 64].into_iter().enumerate() {
        for (l, r) in refs.iter_mut().enumerate() {
            let v = (k as u64 + 1) * 1000 + l as u64;
            r.poke("in1", v & 0xff);
            gang.poke_lane("in1", l, v & 0xff);
            r.step_n(chunk);
        }
        gang.run(chunk);
        total += chunk;
    }
    assert_eq!(gang.cycle(), total);
    for (l, r) in refs.iter().enumerate() {
        for i in 0..c.regs.len() {
            assert_eq!(
                gang.reg_value_lane(RegId(i as u32), l),
                r.reg_value(RegId(i as u32)),
                "lane {l}: reg {i} diverged after chunked runs"
            );
        }
    }
}

/// The broadcast `poke` must drive every lane, and `StimulusSet`
/// bookkeeping (horizon, lane bounds) must hold.
#[test]
fn gang_broadcast_poke_and_stimulus_bookkeeping() {
    let c = random_circuit_io(5, 6, 30, 2);
    let cfg = PartitionConfig::with_tiles(4);
    let comp = compile(&c, &cfg).expect("compiles");
    let mut gang = GangSimulator::new(&c, &comp.partition, 2, 3);
    gang.poke("in0", 1);
    gang.run(10);
    let a = gang.reg_value_lane(RegId(0), 0);
    for lane in 1..3 {
        assert_eq!(a, gang.reg_value_lane(RegId(0), lane), "broadcast poke");
    }

    let mut stim = StimulusSet::new(2);
    assert_eq!(stim.horizon(), 0);
    stim.drive(4, 1, "in0", Bits::from_u64(1, 1));
    stim.drive(2, 0, "in1", Bits::from_u64(8, 0x5a));
    assert_eq!(stim.lanes(), 2);
    assert_eq!(stim.horizon(), 5);
    assert_eq!(stim.events_at(2).count(), 1);
    assert_eq!(stim.events().len(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: any random circuit, partition width, thread count, and
    /// lane count — every lane identical to its per-lane reference
    /// after a random number of cycles.
    #[test]
    fn gang_matches_reference(
        seed in 0u64..10_000,
        tiles in 1u32..10,
        threads in 1usize..5,
        lanes in 1usize..7,
        cycles in 1u64..30,
    ) {
        let c = random_circuit_io(seed, 8, 40, 3);
        let mut cfg = PartitionConfig::with_tiles(tiles);
        cfg.tiles_per_chip = (tiles.div_ceil(2)).max(1);
        check_gang(&c, &cfg, threads, lanes, cycles, seed);
    }
}
