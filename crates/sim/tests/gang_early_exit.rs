//! Per-lane early exit: a retired lane's architectural state must
//! freeze bit-exactly while the surviving lanes keep matching their
//! references, whatever order lanes retire in — and retirement must
//! never cost: the gang gets *faster* as lanes come off the top of its
//! compute range, and a lane retired in the middle of it costs about
//! what it did alive.

mod common;

use common::random_circuit_io;
use parendi_core::{compile, Partition, PartitionConfig};
use parendi_rtl::bits::Bits;
use parendi_rtl::{ArrayId, Builder, Circuit, InputId, RegId};
use parendi_sim::{GangSimulator, Simulator, StimulusSet};
use std::collections::HashMap;

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

/// One row of the freeze matrix: the gang's shape and the order its
/// lanes retire in.
struct FreezeCase<'a> {
    lanes: usize,
    threads: usize,
    packed: bool,
    /// Wave `w` retires its lanes right before cycle `20 + 3 * w`, so
    /// consecutive waves freeze at alternating mailbox parities.
    waves: &'a [Vec<usize>],
}

fn build_gang<'c>(
    c: &'c Circuit,
    partition: &Partition,
    threads: usize,
    lanes: usize,
    packed: bool,
) -> GangSimulator<'c> {
    if packed {
        GangSimulator::new_packed(c, partition, threads, lanes)
    } else {
        GangSimulator::new(c, partition, threads, lanes)
    }
}

/// One lane's registers and — `full` — its array elements and primary
/// outputs too: everything durable about it. (The per-cycle checks read
/// the full state every seventh cycle only: an output peek replays the
/// owning tiles over every lane, and the array is 32 locked reads.)
fn lane_state(c: &Circuit, gang: &GangSimulator<'_>, lane: usize, full: bool) -> Vec<Bits> {
    let mut state: Vec<Bits> = (0..c.regs.len())
        .map(|i| gang.reg_value_lane(RegId(i as u32), lane))
        .collect();
    if full {
        state.extend((0..c.arrays[0].depth).map(|i| gang.array_value_lane(ArrayId(0), i, lane)));
        state.extend(gang.peek_outputs_lane(lane));
    }
    state
}

/// The same words read from a reference interpreter.
fn reference_state(c: &Circuit, sim: &Simulator<'_>, full: bool) -> Vec<Bits> {
    let mut state: Vec<Bits> = (0..c.regs.len())
        .map(|i| sim.reg_value(RegId(i as u32)))
        .collect();
    if full {
        state.extend((0..c.arrays[0].depth).map(|i| sim.array_value(ArrayId(0), i)));
        state.extend(
            c.outputs
                .iter()
                .map(|o| sim.output(&o.name).expect("output exists")),
        );
    }
    state
}

/// Steps a gang cycle by cycle beside one reference interpreter per
/// lane, retiring `case.waves` on schedule, then 70 cycles more. Every
/// cycle, every surviving lane equals its reference in every register
/// (every seventh, in every array element and output too). A retired lane's reference simply stops,
/// and the lane must still equal it 23 cycles (an odd distance: peeks
/// must replay at the freeze parity, not the live one) and 70 cycles
/// after the last wave. A snapshot taken at the first of those points
/// restores into a fresh gang on the other thread count, re-snapshots
/// byte-identically, and — run to the end in one batched call — lands
/// in the uninterrupted gang's state in every lane, retired lanes below
/// the highest live one included. Returns the gang for further checks.
fn check_freeze<'c>(
    c: &'c Circuit,
    partition: &Partition,
    case: &FreezeCase<'_>,
) -> GangSimulator<'c> {
    let &FreezeCase {
        lanes,
        threads,
        packed,
        waves,
    } = case;
    let what = format!("{lanes} lanes, {threads} threads, packed {packed}, waves {waves:?}");
    let last_wave = 20 + 3 * (waves.len() as u64 - 1);
    let (mid, total) = (last_wave + 23, last_wave + 70);
    let stim = lane_stim(c, lanes as u32, total);
    let mut gang = build_gang(c, partition, threads, lanes, packed);
    assert_eq!(gang.active_lanes(), lanes);
    let mut refs: Vec<Simulator<'c>> = (0..lanes).map(|_| Simulator::new(c)).collect();
    // The trace grouped by (cycle, lane) once: `apply_lane` rescans all
    // of it per call, which at 65 lanes is most of the test.
    let mut drives: HashMap<(u64, u32), Vec<(InputId, &Bits)>> = HashMap::new();
    for ev in stim.events() {
        let id = refs[0].input_id(&ev.input).expect("input exists");
        drives
            .entry((ev.cycle, ev.lane))
            .or_default()
            .push((id, &ev.value));
    }
    let mut snap = None;

    let check_retired = |gang: &GangSimulator<'_>, refs: &[Simulator<'_>], at: u64| {
        for l in (0..lanes).filter(|&l| !gang.lane_is_active(l)) {
            assert_eq!(
                lane_state(c, gang, l, true),
                reference_state(c, &refs[l], true),
                "{what}: retired lane {l} moved by cycle {at}"
            );
        }
    };
    for cyc in 0..total {
        if cyc >= 20 && (cyc - 20).is_multiple_of(3) {
            if let Some(wave) = waves.get(((cyc - 20) / 3) as usize) {
                for &l in wave {
                    gang.finish_lane(l);
                    assert!(!gang.lane_is_active(l));
                }
            }
        }
        if cyc == mid {
            check_retired(&gang, &refs, cyc);
            snap = Some(gang.snapshot());
        }
        gang.run_stimulus(1, &stim);
        for l in (0..lanes).filter(|&l| gang.lane_is_active(l)) {
            for &(id, value) in drives.get(&(cyc, l as u32)).into_iter().flatten() {
                refs[l].set_input(id, value);
            }
            refs[l].step();
            let full = cyc + 1 == mid || cyc + 1 == total || cyc % 7 == 0;
            assert_eq!(
                lane_state(c, &gang, l, full),
                reference_state(c, &refs[l], full),
                "{what}: live lane {l} diverged in cycle {cyc}"
            );
        }
    }
    assert_eq!(gang.cycle(), total);
    let retired: usize = waves.iter().map(Vec::len).sum();
    assert_eq!(gang.active_lanes(), lanes - retired);
    check_retired(&gang, &refs, total);

    let snap = snap.expect("the run passed the snapshot cycle");
    let mut resumed = build_gang(
        c,
        partition,
        if threads == 1 { 2 } else { 1 },
        lanes,
        packed,
    );
    resumed.restore(&snap).expect("same shape");
    assert_eq!(
        resumed.snapshot().to_bytes(),
        snap.to_bytes(),
        "{what}: restore then snapshot changed bytes"
    );
    resumed.run_stimulus(total - mid, &stim);
    for l in 0..lanes {
        assert_eq!(resumed.lane_is_active(l), gang.lane_is_active(l));
        assert_eq!(
            lane_state(c, &resumed, l, true),
            lane_state(c, &gang, l, true),
            "{what}: lane {l} of the restored run differs from the uninterrupted one"
        );
    }
    gang
}

/// The retire orders of the matrix, each a list of waves.
fn retire_patterns(lanes: usize) -> Vec<Vec<Vec<usize>>> {
    let quarter = |k: usize| (k * lanes / 4..(k + 1) * lanes / 4).collect();
    vec![
        // In quarters from the bottom — the order a daemon filling
        // lanes by ascending horizon would produce.
        (0..3).map(quarter).collect(),
        // In quarters from the top — what `parendi-serve` does: the
        // compute range shrinks with every wave.
        (1..4).rev().map(quarter).collect(),
        // Every other lane.
        vec![
            (1..lanes).step_by(4).collect(),
            (3..lanes).step_by(4).collect(),
        ],
        // All but one lane, in the middle.
        vec![(0..lanes).filter(|&l| l != lanes / 2).collect()],
        // Every lane.
        vec![
            (0..lanes).step_by(2).collect(),
            (1..lanes).step_by(2).collect(),
        ],
    ]
}

/// Every retire pattern at one lane count, strided and packed, inline
/// and on a two-worker pool, over a two-chip partition (so the off-chip
/// flush skips retired lanes too).
fn check_retire_patterns(lanes: usize) {
    let c = random_circuit_io(21, 10, 50, 3);
    let mut cfg = PartitionConfig::with_tiles(8);
    cfg.tiles_per_chip = 4;
    let comp = compile(&c, &cfg).expect("compiles");
    for waves in retire_patterns(lanes) {
        for packed in [false, true] {
            for threads in [1, 2] {
                let case = FreezeCase {
                    lanes,
                    threads,
                    packed,
                    waves: &waves,
                };
                check_freeze(&c, &comp.partition, &case);
            }
        }
    }
}

#[test]
fn retire_patterns_freeze_and_resume_at_8_lanes() {
    check_retire_patterns(8);
}

/// One lane past a power of two and past the AVX2 threshold: the last
/// row of every sweep is a remainder.
#[test]
fn retire_patterns_freeze_and_resume_at_17_lanes() {
    check_retire_patterns(17);
}

/// One lane into the second packed word (`pw = 2`).
#[test]
fn retire_patterns_freeze_and_resume_at_65_lanes() {
    check_retire_patterns(65);
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
    let case = FreezeCase {
        lanes: 4,
        threads: 4,
        packed: false,
        waves: &[vec![1]],
    };
    let mut gang = check_freeze(&c, &comp.partition, &case);

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
    let case = FreezeCase {
        lanes: 20,
        threads: 4,
        packed: false,
        waves: &[vec![3, 9, 10, 16]],
    };
    check_freeze(&c, &comp.partition, &case);
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

/// The cost shape of retirement, best-of-N with the gangs interleaved
/// so a slow stretch of the host hits all of them. A lane retired in
/// the middle of the range is recomputed as scratch, so it may cost what
/// it cost alive plus the split commit copies — never a second pass of
/// the dispatch per survivor run (2.4x dense before the gang had one
/// compute shape). And a 5-scenario batch in an 8-lane bucket, its
/// three surplus lanes retired before cycle 0, computes lanes `0..5`
/// only: no slower than the full 8.
#[test]
fn retired_lanes_stop_costing() {
    let c = mul_chain(24, 12);
    let comp = compile(&c, &PartitionConfig::with_tiles(4)).expect("compiles");
    let cycles = 400u64;
    let retire: [&[usize]; 3] = [&[], &[3], &[5, 6, 7]];
    let mut gangs: Vec<_> = retire
        .iter()
        .map(|lanes| {
            let mut gang = GangSimulator::new(&c, &comp.partition, 1, 8);
            for &l in *lanes {
                gang.finish_lane(l);
            }
            gang.run(50); // warm
            gang
        })
        .collect();
    let mut best = [f64::MAX; 3];
    for _ in 0..5 {
        for (gang, t) in gangs.iter_mut().zip(&mut best) {
            *t = t.min(gang.run(cycles));
        }
    }
    let [dense, hole, five] = best;
    assert!(
        hole <= 1.5 * dense,
        "lane 3 of 8 retired ({hole:.6}s) must stay within 1.5x the dense gang ({dense:.6}s)"
    );
    assert!(
        five <= dense,
        "5 scenarios in an 8-lane bucket ({five:.6}s) must not lose to 8 ({dense:.6}s)"
    );
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
