//! The off-chip transport contract: both backends — in-process and
//! TCP loopback — must produce bit-identical
//! architectural state to the reference interpreter, for both
//! multi-chip partitioning strategies, at 1/2/4 chips, at one lane and
//! in a wide gang. The backends
//! differ only in which memory-domain boundary the per-chip-pair
//! aggregates cross; the byte column must be comparable across them.

mod common;

use common::random_circuit_io;
use parendi_core::{compile, MultiChipStrategy, PartitionConfig};
use parendi_rtl::RegId;
use parendi_sim::{GangSimulator, Simulator, TransportChoice};

const BACKENDS: [TransportChoice; 2] = [TransportChoice::InProcess, TransportChoice::Tcp];

/// Runs one reference per lane and every transport backend over the
/// same per-lane stimulus (lane 0's is the one-lane stimulus) and
/// asserts identical registers, arrays, and outputs in every lane.
/// Returns the per-backend byte columns for comparability checks.
fn check_backends(
    seed: u64,
    chips: u32,
    per_chip: u32,
    mc: MultiChipStrategy,
    threads: usize,
    lanes: usize,
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

    // Poke, run a chunk, re-poke, run again — input changes between
    // chunks cross the transport mid-run.
    let stim = [(5u64, 30u64), (0xdead_beef, 21)];
    let drive =
        |base: u64, i: usize, lane: usize| base.wrapping_add(i as u64) ^ (lane as u64 * 0x9e37);
    let mut refs: Vec<Simulator> = (0..lanes).map(|_| Simulator::new(&c)).collect();
    for (l, reference) in refs.iter_mut().enumerate() {
        for &(base, cycles) in &stim {
            for i in 0..3 {
                reference.poke(&format!("in{i}"), drive(base, i, l));
            }
            reference.step_n(cycles);
        }
    }

    let mut bytes = Vec::new();
    for backend in BACKENDS {
        let mut gang =
            GangSimulator::with_transport(&c, &comp.partition, threads, lanes, false, backend);
        for &(base, cycles) in &stim {
            for i in 0..3 {
                for l in 0..lanes {
                    gang.poke_lane(&format!("in{i}"), l, drive(base, i, l));
                }
            }
            gang.run(cycles);
        }
        let tag = gang.transport_name();
        for (l, reference) in refs.iter().enumerate() {
            for i in 0..c.regs.len() {
                assert_eq!(
                    gang.reg_value_lane(RegId(i as u32), l),
                    reference.reg_value(RegId(i as u32)),
                    "seed {seed} {mc:?} {chips} chips [{tag}] lane {l}: reg {i} ({})",
                    c.regs[i].name,
                );
            }
            for (ai, a) in c.arrays.iter().enumerate() {
                for idx in 0..a.depth {
                    assert_eq!(
                        gang.array_value_lane(parendi_rtl::ArrayId(ai as u32), idx, l),
                        reference.array_value(parendi_rtl::ArrayId(ai as u32), idx),
                        "seed {seed} {mc:?} {chips} chips [{tag}] lane {l}: array {}[{idx}]",
                        a.name,
                    );
                }
            }
            for (oi, o) in c.outputs.iter().enumerate() {
                assert_eq!(
                    gang.peek_output_lane(&o.name, l).expect("engine output"),
                    reference.output(&o.name).expect("reference output"),
                    "seed {seed} {mc:?} {chips} chips [{tag}] lane {l}: output {oi} ({})",
                    o.name,
                );
            }
        }
        bytes.push(gang.offchip_bytes_sent());
    }
    bytes
}

#[test]
fn all_backends_match_the_reference_across_chip_counts() {
    for seed in [11u64, 47] {
        for mc in [MultiChipStrategy::Pre, MultiChipStrategy::Post] {
            for &chips in &[1u32, 2, 4] {
                let bytes = check_backends(seed, chips, 2, mc, 3, 1);
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
            let bytes = check_backends(seed, 2, 4, mc, 4, 1);
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
    let mut sims: Vec<GangSimulator> = BACKENDS
        .iter()
        .map(|&b| {
            let mut s = GangSimulator::with_transport(&c, &comp.partition, 2, 1, false, b);
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

/// A wide gang rides the same transport seam: a 5-lane run with
/// per-lane stimulus under each backend must be bit-exact per lane
/// against per-lane reference interpreters, and its byte column —
/// five lanes' words per aggregate — must agree across backends too.
#[test]
fn gang_lanes_match_under_every_backend() {
    for mc in [MultiChipStrategy::Pre, MultiChipStrategy::Post] {
        let bytes = check_backends(31, 2, 2, mc, 2, 5);
        assert!(bytes[0] > 0, "{mc:?}: no off-chip traffic");
        assert!(
            bytes.iter().all(|&b| b == bytes[0]),
            "{mc:?}: byte columns diverged: {bytes:?}"
        );
    }
}
