//! Per-lane early exit: a retired lane's architectural state must
//! freeze bit-exactly while the surviving lanes keep matching their
//! references — and the gang must get *faster* when most lanes retire,
//! since every dispatched instruction sweeps fewer lanes.

mod common;

use common::random_circuit_io;
use parendi_core::{compile, PartitionConfig};
use parendi_rtl::bits::Bits;
use parendi_rtl::{Builder, RegId};
use parendi_sim::{GangSimulator, Simulator, StimulusSet};

/// A deterministic per-lane stimulus: every input of every lane is
/// re-driven on a lane-dependent schedule so lanes diverge immediately.
fn lane_stim(circuit: &parendi_rtl::Circuit, lanes: u32, cycles: u64) -> StimulusSet {
    let mut stim = StimulusSet::new(lanes);
    for c in 0..cycles {
        for l in 0..lanes {
            for (i, d) in circuit.inputs.iter().enumerate() {
                if c == 0 || (c + l as u64 + i as u64).is_multiple_of(3) {
                    let v = c
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((l as u64) << 17 | i as u64);
                    stim.drive(c, l, &d.name, Bits::from_u64(d.width, v));
                }
            }
        }
    }
    stim
}

/// Replays lane `lane` of `stim` against a fresh reference for `cycles`.
fn reference_lane<'c>(
    circuit: &'c parendi_rtl::Circuit,
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

/// Runs a `lanes`-wide gang for 20 cycles, retires `retire`, runs 50
/// more, and checks that every retired lane froze bit-exactly at its
/// cycle-20 state (outputs included, peeked an odd number of cycles
/// after retirement) while every survivor matches its reference after
/// the full 70. Returns the gang for further checks.
fn check_freeze<'c>(
    c: &'c parendi_rtl::Circuit,
    partition: &parendi_core::Partition,
    lanes: usize,
    retire: &[usize],
) -> GangSimulator<'c> {
    let stim = lane_stim(c, lanes as u32, 70);
    let mut gang = GangSimulator::new(c, partition, 4, lanes);
    assert_eq!(gang.active_lanes(), lanes);

    gang.run_stimulus(20, &stim);
    // The `retire` lanes reach their verdict at cycle 20.
    for &l in retire {
        gang.finish_lane(l);
        assert!(!gang.lane_is_active(l));
    }
    assert!(gang.lane_is_active(0));
    assert_eq!(gang.active_lanes(), lanes - retire.len());

    // Run an *odd* number of cycles first: a retired lane's mailbox
    // epochs stop alternating, so output peeks must replay at the
    // freeze parity, not the live one.
    gang.run_stimulus(23, &stim);
    for &l in retire {
        let ref20 = reference_lane(c, &stim, l as u32, 20);
        for o in &c.outputs {
            assert_eq!(
                gang.peek_output_lane(&o.name, l).expect("output exists"),
                ref20.output(&o.name).expect("output exists"),
                "retired lane {l} output {} not frozen at odd parity",
                o.name
            );
        }
    }
    gang.run_stimulus(27, &stim);
    assert_eq!(gang.cycle(), 70);

    // Retired lanes froze exactly at their cycle-20 state (which the
    // reference reproduces by stopping there); survivors ran the full
    // 70 cycles bit-exactly.
    for lane in 0..lanes {
        let retired = retire.contains(&lane);
        let reference = reference_lane(c, &stim, lane as u32, if retired { 20 } else { 70 });
        for i in 0..c.regs.len() {
            assert_eq!(
                gang.reg_value_lane(RegId(i as u32), lane),
                reference.reg_value(RegId(i as u32)),
                "lane {lane}/{lanes} (retired: {retired}): reg {i} diverged"
            );
        }
        for idx in 0..c.arrays[0].depth {
            assert_eq!(
                gang.array_value_lane(parendi_rtl::ArrayId(0), idx, lane),
                reference.array_value(parendi_rtl::ArrayId(0), idx),
                "lane {lane}/{lanes} (retired: {retired}): mem[{idx}] diverged"
            );
        }
    }
    gang
}

/// Retiring a lane freezes its registers and arrays at the retirement
/// cycle, while every surviving lane stays bit-identical to its
/// reference through the rest of the run.
#[test]
fn finished_lane_freezes_and_survivors_keep_matching() {
    let c = random_circuit_io(21, 10, 50, 3);
    let mut cfg = PartitionConfig::with_tiles(8);
    cfg.tiles_per_chip = 4; // multi-chip: the off-chip flush skips retired lanes too
    let comp = compile(&c, &cfg).expect("compiles");
    let mut gang = check_freeze(&c, &comp.partition, 4, &[1]);

    // Retiring again is a no-op; retiring the rest leaves one lane.
    gang.finish_lane(1);
    gang.finish_lane(0);
    gang.finish_lane(2);
    assert_eq!(gang.active_lanes(), 1);
    // Timed runs report the *active* count so aggregate throughput
    // stays honest.
    let ph = gang.run_timed(5);
    assert_eq!(ph.lanes, 1);
}

/// A one-lane gang whose only lane has retired keeps running: the cycle
/// counter advances and the lane's state stays frozen, inline and on
/// the worker pool. (One-lane code carries run instructions that only
/// the one-lane dispatch decodes; an empty lane set must not reach it.)
#[test]
fn one_lane_gang_with_its_lane_retired_keeps_running() {
    let c = random_circuit_io(21, 10, 50, 3);
    let comp = compile(&c, &PartitionConfig::with_tiles(8)).expect("compiles");
    let stim = lane_stim(&c, 1, 20);
    let frozen = reference_lane(&c, &stim, 0, 20);
    for threads in [1, 2] {
        let mut gang = GangSimulator::new(&c, &comp.partition, threads, 1);
        gang.run_stimulus(20, &stim);
        gang.finish_lane(0);
        assert_eq!(gang.active_lanes(), 0);
        gang.run(3);
        assert_eq!(gang.run_timed(4).lanes, 0);
        assert_eq!(gang.cycle(), 27);
        for i in 0..c.regs.len() {
            assert_eq!(
                gang.reg_value_lane(RegId(i as u32), 0),
                frozen.reg_value(RegId(i as u32)),
                "{threads} threads: reg {i} moved after the lane retired"
            );
        }
        for o in &c.outputs {
            assert_eq!(
                gang.peek_output_lane(&o.name, 0).expect("output exists"),
                frozen.output(&o.name).expect("output exists"),
                "{threads} threads: output {} moved after the lane retired",
                o.name
            );
        }
    }
}

/// A gang wide enough for the AVX2 kernel instantiation (>= 16 lanes)
/// whose survivors form runs of 3, 5, 5 and 3 consecutive lanes: every
/// sweep goes through the wide instantiation on chunks shorter than
/// the lane threshold, and must freeze and match exactly like the
/// narrow gang above.
#[test]
fn wide_gang_short_survivor_runs_keep_matching() {
    let c = random_circuit_io(21, 10, 50, 3);
    let mut cfg = PartitionConfig::with_tiles(8);
    cfg.tiles_per_chip = 4;
    let comp = compile(&c, &cfg).expect("compiles");
    check_freeze(&c, &comp.partition, 20, &[3, 9, 10, 16]);
}

/// A compute-heavy chain circuit: enough per-cycle work that lane
/// count dominates the run time.
fn mul_chain(regs: usize, depth: usize) -> parendi_rtl::Circuit {
    let mut b = Builder::new("chain");
    let rs: Vec<_> = (0..regs)
        .map(|i| b.reg(format!("r{i}"), 32, i as u64))
        .collect();
    for i in 0..regs {
        let mut v = rs[(i + 1) % regs].q();
        for k in 0..depth {
            let kk = b.lit(32, 0x9E37 + k as u64);
            let m = b.mul(v, kk);
            v = b.xor(m, rs[i].q());
        }
        b.connect(rs[i], v);
    }
    b.finish().unwrap()
}

/// Retiring almost every lane must speed the gang up: one surviving
/// lane sweeps 1/32nd of the state per dispatch. Wall-clock comparison
/// with best-of-N to shrug off scheduler noise.
#[test]
fn early_exit_raises_throughput() {
    let c = mul_chain(24, 12);
    let comp = compile(&c, &PartitionConfig::with_tiles(4)).expect("compiles");
    let lanes = 32usize;
    let cycles = 400u64;
    let mut gang = GangSimulator::new(&c, &comp.partition, 1, lanes);
    gang.run(50); // warm
    let t_full = (0..3).map(|_| gang.run(cycles)).fold(f64::MAX, f64::min);
    for l in 1..lanes {
        gang.finish_lane(l);
    }
    assert_eq!(gang.active_lanes(), 1);
    let t_one = (0..3).map(|_| gang.run(cycles)).fold(f64::MAX, f64::min);
    assert!(
        t_one < t_full,
        "1 active lane ({t_one:.6}s) must beat 32 active lanes ({t_full:.6}s)"
    );
    // And the reported aggregate accounts only the survivor.
    let ph = gang.run_timed(50);
    assert_eq!(ph.lanes, 1);
    assert!(ph.lane_cycles_per_s() > 0.0);
}

/// Gang timed runs now report per-tile phase histograms (they were
/// empty on the old gang engine): one entry per tile, with nonzero
/// compute somewhere.
#[test]
fn gang_timed_runs_populate_per_tile_histograms() {
    let c = random_circuit_io(9, 10, 50, 2);
    let mut cfg = PartitionConfig::with_tiles(6);
    cfg.tiles_per_chip = 3;
    let comp = compile(&c, &cfg).expect("compiles");
    for threads in [1usize, 3] {
        let mut gang = GangSimulator::new(&c, &comp.partition, threads, 4);
        gang.run(10);
        let ph = gang.run_timed(30);
        assert_eq!(
            ph.per_tile.len(),
            comp.partition.tiles_used() as usize,
            "one histogram entry per tile ({threads} threads)"
        );
        assert!(
            ph.per_tile.iter().any(|t| t.compute_s > 0.0),
            "some tile computed for a nonzero time"
        );
    }
}
