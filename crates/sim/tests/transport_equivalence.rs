//! The off-chip transport contract: both backends — in-process and
//! TCP loopback — must produce bit-identical
//! architectural state to the reference interpreter, for both
//! multi-chip partitioning strategies, at 1/2/4 chips. The backends
//! differ only in which memory-domain boundary the per-chip-pair
//! aggregates cross; the byte column must be comparable across them.

mod common;

use common::random_circuit_io;
use parendi_core::{compile, MultiChipStrategy, PartitionConfig};
use parendi_rtl::RegId;
use parendi_sim::{BspSimulator, GangSimulator, Simulator, TransportChoice};

const BACKENDS: [TransportChoice; 2] = [TransportChoice::InProcess, TransportChoice::Tcp];

/// Runs the reference and every transport backend over the same
/// stimulus and asserts identical registers, arrays, and outputs.
/// Returns the per-backend byte columns for comparability checks.
fn check_backends(
    seed: u64,
    chips: u32,
    per_chip: u32,
    mc: MultiChipStrategy,
    threads: usize,
) -> Vec<u64> {
    let c = random_circuit_io(seed, 12, 60, 3);
    let mut cfg = PartitionConfig::with_tiles(chips * per_chip);
    cfg.tiles_per_chip = per_chip;
    cfg.multi_chip = mc;
    let comp = compile(&c, &cfg).expect("compiles");
    assert_eq!(
        comp.partition.chips, chips,
        "partition must span {chips} chips"
    );

    // Reference run: poke, run a chunk, re-poke, run again — input
    // changes between chunks cross the transport mid-run.
    let stim = [(5u64, 30u64), (0xdead_beef, 21)];
    let mut reference = Simulator::new(&c);
    for &(base, cycles) in &stim {
        for i in 0..3 {
            reference.poke(&format!("in{i}"), base.wrapping_add(i as u64));
        }
        reference.step_n(cycles);
    }

    let mut bytes = Vec::new();
    for backend in BACKENDS {
        let mut bsp = BspSimulator::with_transport(&c, &comp.partition, threads, backend);
        for &(base, cycles) in &stim {
            for i in 0..3 {
                bsp.poke(&format!("in{i}"), base.wrapping_add(i as u64));
            }
            bsp.run(cycles);
        }
        let tag = bsp.transport_name();
        for i in 0..c.regs.len() {
            assert_eq!(
                bsp.reg_value(RegId(i as u32)),
                reference.reg_value(RegId(i as u32)),
                "seed {seed} {mc:?} {chips} chips [{tag}]: reg {i} ({})",
                c.regs[i].name,
            );
        }
        for (ai, a) in c.arrays.iter().enumerate() {
            for idx in 0..a.depth {
                assert_eq!(
                    bsp.array_value(parendi_rtl::ArrayId(ai as u32), idx),
                    reference.array_value(parendi_rtl::ArrayId(ai as u32), idx),
                    "seed {seed} {mc:?} {chips} chips [{tag}]: array {}[{idx}]",
                    a.name,
                );
            }
        }
        for (oi, o) in c.outputs.iter().enumerate() {
            assert_eq!(
                bsp.peek_output(&o.name).expect("engine output"),
                reference.output(&o.name).expect("reference output"),
                "seed {seed} {mc:?} {chips} chips [{tag}]: output {oi} ({})",
                o.name,
            );
        }
        bytes.push(bsp.offchip_bytes_sent());
    }
    bytes
}

#[test]
fn all_backends_match_the_reference_across_chip_counts() {
    for seed in [11u64, 47] {
        for mc in [MultiChipStrategy::Pre, MultiChipStrategy::Post] {
            for &chips in &[1u32, 2, 4] {
                let bytes = check_backends(seed, chips, 2, mc, 3);
                // The byte column is defined identically for every
                // backend (whole pair aggregates per completed cycle),
                // so the measured volumes must agree exactly.
                assert!(
                    bytes.iter().all(|&b| b == bytes[0]),
                    "seed {seed} {mc:?} {chips} chips: byte columns diverged: {bytes:?}"
                );
                if chips == 1 {
                    assert_eq!(bytes[0], 0, "no off-chip traffic on one chip");
                } else {
                    assert!(bytes[0] > 0, "multi-chip runs must move bytes");
                }
            }
        }
    }
}

/// More workers than chips (2 chips x 4 tiles on 4 workers): a chip's
/// tiles spread over two workers, so the worker that lands a pair's
/// frames in the consumer mailbox is not, in general, the worker whose
/// tile reads them, and a pair has producers on several workers — the
/// edges the staged-transport neighbour rule exists for.
#[test]
fn staged_backends_match_with_more_workers_than_chips() {
    for seed in [11u64, 47, 5] {
        for mc in [MultiChipStrategy::Pre, MultiChipStrategy::Post] {
            let bytes = check_backends(seed, 2, 4, mc, 4);
            assert!(bytes[0] > 0, "seed {seed} {mc:?}: no off-chip traffic");
            assert!(
                bytes.iter().all(|&b| b == bytes[0]),
                "seed {seed} {mc:?}: byte columns diverged: {bytes:?}"
            );
        }
    }
}

/// The staged backends must survive uneven run() chunking: the epoch
/// parity of the double-buffered aggregates alternates per cycle, and a
/// chunk boundary must not desynchronize the publish/receive protocol.
#[test]
fn staged_backends_survive_chunked_runs() {
    let c = random_circuit_io(23, 10, 50, 2);
    let mut cfg = PartitionConfig::with_tiles(6);
    cfg.tiles_per_chip = 3;
    let comp = compile(&c, &cfg).expect("compiles");
    assert!(comp.partition.chips >= 2);
    let mut reference = Simulator::new(&c);
    reference.poke("in0", 9);
    reference.poke("in1", 1);
    let mut sims: Vec<BspSimulator> = BACKENDS
        .iter()
        .map(|&b| {
            let mut s = BspSimulator::with_transport(&c, &comp.partition, 2, b);
            s.poke("in0", 9);
            s.poke("in1", 1);
            s
        })
        .collect();
    for chunk in [1u64, 2, 1, 61, 64] {
        reference.step_n(chunk);
        for s in &mut sims {
            s.run(chunk);
        }
    }
    for s in &sims {
        assert_eq!(s.cycle(), 129);
        for i in 0..c.regs.len() {
            assert_eq!(
                s.reg_value(RegId(i as u32)),
                reference.reg_value(RegId(i as u32)),
                "[{}] reg {i} diverged across chunked runs",
                s.transport_name(),
            );
        }
    }
}

/// The gang engine rides the same transport seam: a multi-lane run
/// under each backend must be bit-exact per lane against per-lane
/// reference interpreters.
#[test]
fn gang_lanes_match_under_every_backend() {
    let c = random_circuit_io(31, 8, 40, 2);
    let mut cfg = PartitionConfig::with_tiles(4);
    cfg.tiles_per_chip = 2;
    let comp = compile(&c, &cfg).expect("compiles");
    assert!(comp.partition.chips >= 2);
    let lanes = 5usize;
    let cycles = 25u64;
    let mut refs: Vec<Simulator> = (0..lanes).map(|_| Simulator::new(&c)).collect();
    for (l, r) in refs.iter_mut().enumerate() {
        r.poke("in0", 3 + l as u64);
        r.poke("in1", 77u64.wrapping_mul(l as u64 + 1));
        r.step_n(cycles);
    }
    for backend in BACKENDS {
        let mut gang = GangSimulator::with_transport(&c, &comp.partition, 2, lanes, false, backend);
        for l in 0..lanes {
            gang.poke_lane("in0", l, 3 + l as u64);
            gang.poke_lane("in1", l, 77u64.wrapping_mul(l as u64 + 1));
        }
        gang.run(cycles);
        for (l, r) in refs.iter().enumerate() {
            for i in 0..c.regs.len() {
                assert_eq!(
                    gang.reg_value_lane(RegId(i as u32), l),
                    r.reg_value(RegId(i as u32)),
                    "[{}] lane {l} reg {i} diverged",
                    gang.transport_name(),
                );
            }
        }
    }
}
