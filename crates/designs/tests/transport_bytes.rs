//! The off-chip byte column over the designs corpus: every transport
//! backend must credit exactly the same `offchip_bytes_sent` for the
//! same compiled partition — the column counts whole per-chip-pair
//! aggregates per completed cycle, which no backend is allowed to
//! batch, coalesce, or pad differently. Checked at 2 and 4 chips, and
//! through the metrics registry as well as the direct accessor.

use parendi_core::{compile, PartitionConfig};
use parendi_designs::Benchmark;
use parendi_sim::{BspSimulator, TransportChoice};

const BACKENDS: [TransportChoice; 2] = [TransportChoice::InProcess, TransportChoice::Tcp];

#[test]
fn corpus_designs_credit_identical_bytes_on_every_backend() {
    for (bench, per_chip, chips, cycles) in [
        (Benchmark::Pico, 6u32, 2u32, 40u64),
        (Benchmark::Sr(3), 5, 2, 30),
        (Benchmark::Pico, 3, 4, 40),
        (Benchmark::Sr(3), 3, 4, 30),
    ] {
        let c = bench.build();
        let mut cfg = PartitionConfig::with_tiles(per_chip * chips);
        cfg.tiles_per_chip = per_chip;
        let comp = compile(&c, &cfg).expect("corpus design compiles");
        assert_eq!(
            comp.partition.chips,
            chips,
            "{} must span {chips} chips at {per_chip} tiles/chip",
            bench.name()
        );
        // (accessor bytes, metrics bytes, metrics frames) per backend.
        let mut columns: Vec<(u64, u64, u64)> = Vec::new();
        for backend in BACKENDS {
            let mut sim = BspSimulator::with_transport(&c, &comp.partition, 3, backend);
            sim.run(cycles);
            let snap = sim.metrics_snapshot();
            columns.push((
                sim.offchip_bytes_sent(),
                snap.get("offchip_bytes_sent").unwrap_or(u64::MAX),
                snap.get("frames_sent").unwrap_or(u64::MAX),
            ));
        }
        let (bytes0, mbytes0, frames0) = columns[0];
        assert!(
            bytes0 > 0,
            "{} at {chips} chips must move bytes",
            bench.name()
        );
        assert_eq!(
            bytes0,
            mbytes0,
            "{}: metrics snapshot must mirror the byte accessor",
            bench.name()
        );
        // One frame per chip pair per completed cycle, on every backend.
        assert_eq!(
            frames0 % cycles,
            0,
            "{}: whole frames per cycle",
            bench.name()
        );
        for (i, &col) in columns.iter().enumerate() {
            assert_eq!(
                col,
                (bytes0, mbytes0, frames0),
                "{} at {chips} chips: backend {:?} diverged from {:?}",
                bench.name(),
                BACKENDS[i],
                BACKENDS[0],
            );
        }
    }
}
