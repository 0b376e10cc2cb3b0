//! The BSP engine must be bit-identical to the reference interpreter for
//! every circuit, partition shape, and thread count — this is the
//! correctness claim behind cycle-accurate parallel simulation (§3.2).

mod common;

use common::{random_circuit, two_islands};
use parendi_core::{compile, MultiChipStrategy, PartitionConfig, Strategy};
use parendi_rtl::{Builder, Circuit, RegId};
use parendi_sim::{GangSimulator, Simulator};
use proptest::prelude::*;

/// Runs both engines and asserts identical architectural state.
fn check_equivalence(circuit: &Circuit, tiles: u32, threads: usize, cycles: u64) {
    let mut cfg = PartitionConfig::with_tiles(tiles);
    cfg.tiles_per_chip = (tiles.div_ceil(2)).max(1); // force multi-chip paths too
    let comp = compile(circuit, &cfg).expect("compiles");
    let mut reference = Simulator::new(circuit);
    let mut bsp = GangSimulator::new(circuit, &comp.partition, threads, 1);
    reference.step_n(cycles);
    bsp.run(cycles);
    for i in 0..circuit.regs.len() {
        assert_eq!(
            bsp.reg_value(RegId(i as u32)),
            reference.reg_value(RegId(i as u32)),
            "register {} ({}) diverged after {cycles} cycles on {tiles} tiles / {threads} threads",
            i,
            circuit.regs[i].name,
        );
    }
    for (ai, a) in circuit.arrays.iter().enumerate() {
        for idx in 0..a.depth {
            assert_eq!(
                bsp.array_value(parendi_rtl::ArrayId(ai as u32), idx),
                reference.array_value(parendi_rtl::ArrayId(ai as u32), idx),
                "array {} [{}] diverged",
                a.name,
                idx
            );
        }
    }
}

#[test]
fn fixed_seeds_all_tile_and_thread_shapes() {
    for seed in 0..6u64 {
        let c = random_circuit(seed, 12, 60);
        for &(tiles, threads) in &[(1u32, 1usize), (2, 2), (4, 2), (8, 4), (13, 3)] {
            check_equivalence(&c, tiles, threads, 25);
        }
    }
}

/// Pools far wider than the host: 24 tiles on 17 and 24 threads, one
/// or two tiles per worker, so nearly every channel crosses workers,
/// neighbour sets are wide, and every wait takes the park path. Must
/// stay bit-exact through it.
#[test]
fn wide_pool_shapes_are_equivalent() {
    for seed in [2u64, 31] {
        let c = random_circuit(seed, 26, 120);
        for &threads in &[17usize, 24] {
            check_equivalence(&c, 24, threads, 40);
        }
    }
}

#[test]
fn strategies_are_equivalent_too() {
    let c = random_circuit(99, 16, 80);
    for strategy in [Strategy::BottomUp, Strategy::Hypergraph] {
        for mc in [
            MultiChipStrategy::Pre,
            MultiChipStrategy::Post,
            MultiChipStrategy::None,
        ] {
            let mut cfg = PartitionConfig::with_tiles(6);
            cfg.tiles_per_chip = 3;
            cfg.strategy = strategy;
            cfg.multi_chip = mc;
            let comp = compile(&c, &cfg).expect("compiles");
            let mut reference = Simulator::new(&c);
            let mut bsp = GangSimulator::new(&c, &comp.partition, 3, 1);
            reference.step_n(20);
            bsp.run(20);
            for i in 0..c.regs.len() {
                assert_eq!(
                    bsp.reg_value(RegId(i as u32)),
                    reference.reg_value(RegId(i as u32)),
                    "{strategy:?}/{mc:?} diverged at reg {i}"
                );
            }
        }
    }
}

#[test]
fn inputs_propagate_identically() {
    let mut b = Builder::new("io");
    let x = b.input("x", 32);
    let r = b.reg("acc", 32, 0);
    let s = b.add(r.q(), x);
    b.connect(r, s);
    let c = b.finish().unwrap();
    let comp = compile(&c, &PartitionConfig::with_tiles(1)).unwrap();
    let mut reference = Simulator::new(&c);
    let mut bsp = GangSimulator::new(&c, &comp.partition, 1, 1);
    for v in [5u64, 7, 11] {
        reference.poke("x", v);
        bsp.poke("x", v);
        reference.step_n(2);
        bsp.run(2);
    }
    assert_eq!(reference.reg_value(RegId(0)).to_u64(), 2 * (5 + 7 + 11));
    assert_eq!(bsp.reg_value(RegId(0)), reference.reg_value(RegId(0)));
}

#[test]
fn long_runs_across_thread_pool_shapes() {
    // The double-buffered mailboxes alternate epochs by cycle parity and
    // the worker pool persists across `run` calls: exercise both over
    // hundreds of cycles, in several chunks, at every pool width (3
    // and 5 cut the 9 tiles into uneven contiguous runs).
    for seed in [3u64, 17, 91] {
        let c = random_circuit(seed, 14, 70);
        for &threads in &[1usize, 2, 3, 5, 8] {
            let mut cfg = PartitionConfig::with_tiles(9);
            cfg.tiles_per_chip = 5;
            let comp = compile(&c, &cfg).expect("compiles");
            let mut reference = Simulator::new(&c);
            let mut bsp = GangSimulator::new(&c, &comp.partition, threads, 1);
            // Uneven chunks catch epoch-parity bugs at run() boundaries.
            for chunk in [1u64, 2, 125, 128] {
                reference.step_n(chunk);
                bsp.run(chunk);
            }
            assert_eq!(bsp.cycle(), 256);
            for i in 0..c.regs.len() {
                assert_eq!(
                    bsp.reg_value(RegId(i as u32)),
                    reference.reg_value(RegId(i as u32)),
                    "seed {seed}: reg {i} diverged on {threads} threads after 256 cycles"
                );
            }
            for (ai, a) in c.arrays.iter().enumerate() {
                for idx in 0..a.depth {
                    assert_eq!(
                        bsp.array_value(parendi_rtl::ArrayId(ai as u32), idx),
                        reference.array_value(parendi_rtl::ArrayId(ai as u32), idx),
                        "seed {seed}: array {}[{idx}] diverged on {threads} threads",
                        a.name
                    );
                }
            }
        }
    }
}

/// Multi-chip partitions (chips >= 2, both fiber-distribution
/// strategies) must stay bit-identical to the reference across every
/// pool width — the chip-group worker layout, the per-chip-pair
/// aggregate mailboxes, and the off-chip flush sub-phase are exercised
/// here, with the artificial off-chip delay engaged to prove it never
/// affects functional results.
#[test]
fn multi_chip_worker_groups_are_equivalent() {
    for seed in [7u64, 42] {
        let c = random_circuit(seed, 14, 70);
        for mc in [MultiChipStrategy::Pre, MultiChipStrategy::Post] {
            for &(tiles, per_chip) in &[(8u32, 4u32), (12, 3)] {
                let mut cfg = PartitionConfig::with_tiles(tiles);
                cfg.tiles_per_chip = per_chip;
                cfg.multi_chip = mc;
                let comp = compile(&c, &cfg).expect("compiles");
                assert!(comp.partition.chips >= 2, "partition must span chips");
                for &threads in &[1usize, 2, 3, 5, 8] {
                    let mut reference = Simulator::new(&c);
                    let mut bsp = GangSimulator::new(&c, &comp.partition, threads, 1);
                    if comp.plan.offchip_total_bytes > 0 {
                        assert!(
                            bsp.offchip_channels() > 0,
                            "cross-chip traffic must ride aggregate mailboxes"
                        );
                    }
                    reference.step_n(50);
                    let ph = bsp.run_timed(50);
                    assert_eq!(
                        ph.per_tile.len(),
                        comp.partition.tiles_used() as usize,
                        "timed runs report one histogram entry per tile"
                    );
                    for i in 0..c.regs.len() {
                        assert_eq!(
                            bsp.reg_value(RegId(i as u32)),
                            reference.reg_value(RegId(i as u32)),
                            "seed {seed} {mc:?} {tiles}t/{per_chip}pc x{threads}: reg {i}"
                        );
                    }
                    for (ai, a) in c.arrays.iter().enumerate() {
                        for idx in 0..a.depth {
                            assert_eq!(
                                bsp.array_value(parendi_rtl::ArrayId(ai as u32), idx),
                                reference.array_value(parendi_rtl::ArrayId(ai as u32), idx),
                                "seed {seed} {mc:?}: array {}[{idx}]",
                                a.name
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Eq. 1 as an accounting identity on the timed split, through the
/// inline path (1 thread) and the pool (2): the phase columns are one
/// worker's — the straggler's — and its tiles' histogram entries are
/// cut from the very clock reads that fill them. So that worker's
/// per-tile compute sums to `compute_s`; its per-tile flush copies and
/// record applications sum to no more than `offchip_s` and `exchange_s`
/// (which also carry the worker-level link residual, receive wait and
/// neighbour wait); and the three columns fit inside the wall clock.
#[test]
fn timed_phase_columns_add_up() {
    let c = random_circuit(7, 14, 70);
    let mut cfg = PartitionConfig::with_tiles(8);
    cfg.tiles_per_chip = 4;
    let comp = compile(&c, &cfg).expect("compiles");
    assert!(comp.partition.chips >= 2, "partition must span chips");
    for threads in [1usize, 2] {
        let mut bsp = GangSimulator::new(&c, &comp.partition, threads, 1);
        // No pool (and no fold) at one thread: worker 0 runs every tile.
        let mut tile_worker = bsp.fold_report().tile_worker.clone();
        tile_worker.resize(bsp.tiles(), 0);
        bsp.run(3);
        let ph = bsp.run_timed(200);
        assert_eq!(ph.per_tile.len(), bsp.tiles());
        let near = |a: f64, b: f64| (a - b).abs() < 1e-9;
        let sums = |w: u32| {
            let mine = (0..bsp.tiles()).filter(|&t| tile_worker[t] == w);
            mine.fold((0.0, 0.0, 0.0), |(c, o, e), t| {
                let p = &ph.per_tile[t];
                (c + p.compute_s, o + p.offchip_s, e + p.exchange_s)
            })
        };
        let (comp_s, off_s, exch_s) = (0..threads as u32)
            .map(sums)
            .find(|s| near(s.0, ph.compute_s))
            .unwrap_or_else(|| panic!("x{threads}: no worker's tiles sum to compute_s: {ph:?}"));
        assert!(comp_s > 0.0, "x{threads}: a timed run measures compute");
        assert!(
            ph.per_tile.iter().any(|t| t.offchip_s > 0.0),
            "x{threads}: some tile flushes off-chip"
        );
        assert!(off_s <= ph.offchip_s + 1e-9, "x{threads}: {ph:?}");
        assert!(exch_s <= ph.exchange_s + 1e-9, "x{threads}: {ph:?}");
        assert!(
            ph.compute_s + ph.offchip_s + ph.exchange_s <= ph.total_s + 1e-9,
            "x{threads}: the columns overrun the wall clock: {ph:?}"
        );
    }
}

/// Two islands with no signal between them, one worker each: the
/// workers share no buffer, so they are not neighbours and the run must
/// finish bit-exact without a single wait — resolved or parked.
#[test]
fn disconnected_halves_never_wait() {
    let c = two_islands();
    let comp = compile(&c, &PartitionConfig::with_tiles(2)).expect("compiles");
    assert_eq!(comp.partition.tiles_used(), 2);
    let mut reference = Simulator::new(&c);
    let mut bsp = GangSimulator::new(&c, &comp.partition, 2, 1);
    let fold = bsp.fold_report();
    assert_eq!(fold.total_words(), 0, "the islands must not exchange words");
    assert!(fold
        .workers
        .iter()
        .all(|w| w.neighbors == 0 && w.tiles == 1));
    for chunk in [1u64, 2, 300] {
        reference.step_n(chunk);
        bsp.run(chunk);
    }
    for i in 0..c.regs.len() {
        assert_eq!(
            bsp.reg_value(RegId(i as u32)),
            reference.reg_value(RegId(i as u32))
        );
    }
    let m = bsp.metrics_snapshot();
    let waits = m.get("barrier_spin_waits").unwrap() + m.get("barrier_park_waits").unwrap();
    assert_eq!(waits, 0, "workers without neighbours must never wait");
    assert_eq!(m.get("sync_neighbors_max"), Some(0));
}

/// Single-chip partitions have no off-chip fabric: no aggregate
/// mailboxes, and a zero off-chip column in the timed split.
#[test]
fn single_chip_has_no_offchip_phase() {
    let c = random_circuit(5, 10, 50);
    let cfg = PartitionConfig::with_tiles(6); // tiles_per_chip = 1472
    let comp = compile(&c, &cfg).expect("compiles");
    assert_eq!(comp.partition.chips, 1);
    let mut bsp = GangSimulator::new(&c, &comp.partition, 2, 1);
    assert_eq!(bsp.offchip_channels(), 0);
    let ph = bsp.run_timed(20);
    assert_eq!(ph.offchip_s, 0.0, "the flush sub-phase is skipped outright");
    assert!(
        ph.per_tile.iter().all(|t| t.offchip_s == 0.0),
        "no tile flushes off-chip on one chip"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: any random circuit, any partition width, any thread
    /// count — identical state after a random number of cycles.
    #[test]
    fn bsp_matches_reference(
        seed in 0u64..10_000,
        tiles in 1u32..10,
        threads in 1usize..5,
        cycles in 1u64..40,
    ) {
        let c = random_circuit(seed, 8, 40);
        check_equivalence(&c, tiles, threads, cycles);
    }

    /// Property: point-to-point engine equals the reference over >=256
    /// cycles for random circuits x tile counts x 1/2/3/5/8 threads.
    #[test]
    fn bsp_matches_reference_long(
        seed in 0u64..10_000,
        tiles in 1u32..14,
        threads_pick in 0usize..5,
    ) {
        let c = random_circuit(seed, 10, 50);
        let threads = [1usize, 2, 3, 5, 8][threads_pick];
        check_equivalence(&c, tiles, threads, 256);
    }
}
