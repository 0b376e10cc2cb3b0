//! The crash-safety contract: a snapshot taken mid-run and restored
//! into a *fresh* engine — any thread count, any transport backend —
//! must continue bit-identically to the uninterrupted run. The matrix
//! below covers both facades (BSP, gang), both lane layouts (strided,
//! packed), every transport, and 1/4 worker threads; a separate test
//! kills a checkpointing child process mid-run and resumes from the
//! auto-checkpoint it left behind.

mod common;

use common::random_circuit_io;
use parendi_core::{compile, Compilation, PartitionConfig};
use parendi_rtl::{ArrayId, Circuit, RegId};
use parendi_sim::{BspSimulator, GangSimulator, Snapshot, SnapshotError, TransportChoice};

const BACKENDS: [TransportChoice; 2] = [TransportChoice::InProcess, TransportChoice::Tcp];

fn multi_chip(seed: u64) -> (Circuit, Compilation) {
    let c = random_circuit_io(seed, 10, 50, 2);
    let mut cfg = PartitionConfig::with_tiles(6);
    cfg.tiles_per_chip = 3;
    let comp = compile(&c, &cfg).expect("compiles");
    assert!(comp.partition.chips >= 2, "must exercise the transport");
    (c, comp)
}

/// Full architectural state of one gang lane, for exact comparison.
fn lane_state(gang: &GangSimulator<'_>, lane: usize) -> Vec<u64> {
    let c = gang.circuit();
    let mut v = Vec::new();
    for ri in 0..c.regs.len() {
        v.extend_from_slice(gang.reg_value_lane(RegId(ri as u32), lane).words());
    }
    for (ai, a) in c.arrays.iter().enumerate() {
        for idx in 0..a.depth {
            v.extend_from_slice(gang.array_value_lane(ArrayId(ai as u32), idx, lane).words());
        }
    }
    v
}

fn bsp_state(bsp: &BspSimulator<'_>, c: &Circuit) -> Vec<u64> {
    let mut v = Vec::new();
    for ri in 0..c.regs.len() {
        v.extend_from_slice(bsp.reg_value(RegId(ri as u32)).words());
    }
    for (ai, a) in c.arrays.iter().enumerate() {
        for idx in 0..a.depth {
            v.extend_from_slice(bsp.array_value(ArrayId(ai as u32), idx).words());
        }
    }
    v
}

/// BSP leg of the matrix: snapshot at cycle 21, serialize through
/// bytes, restore into a fresh engine on a (possibly different)
/// backend/thread count, run the tail, compare against the
/// uninterrupted run.
#[test]
fn bsp_restore_is_bit_identical_across_backends_and_threads() {
    let (c, comp) = multi_chip(71);
    for backend in BACKENDS {
        for &threads in &[1usize, 4] {
            let mut sim = BspSimulator::with_transport(&c, &comp.partition, threads, backend);
            sim.poke("in0", 41);
            sim.poke("in1", 7);
            sim.run(21);
            let snap = sim.snapshot();
            assert_eq!(snap.cycle(), 21);
            // Serialize through the wire format — what a file holds.
            let snap = Snapshot::from_bytes(&snap.to_bytes()).expect("round-trips");
            sim.poke("in1", 19);
            sim.run(16);
            let want = bsp_state(&sim, &c);

            // Restore into a fresh engine with a *different* thread
            // count on the same backend (thread count is not part of
            // the snapshotted state).
            let mut resumed =
                BspSimulator::with_transport(&c, &comp.partition, 5 - threads, backend);
            resumed.restore(&snap).expect("shapes match");
            assert_eq!(resumed.cycle(), 21, "[{}]", resumed.transport_name());
            resumed.poke("in1", 19);
            resumed.run(16);
            assert_eq!(
                bsp_state(&resumed, &c),
                want,
                "[{} t{threads}] resumed state diverged",
                resumed.transport_name(),
            );
            for o in &c.outputs {
                assert_eq!(
                    resumed.peek_output(&o.name),
                    sim.peek_output(&o.name),
                    "[{} t{threads}] output {}",
                    resumed.transport_name(),
                    o.name,
                );
            }
        }
    }
}

/// Gang leg of the matrix: strided (5 lanes) and packed (6 lanes, so
/// the packed tail sees a non-trivial retire blend; 65, so a packed
/// block is two words and the second holds one lane), with per-lane
/// stimulus diverging before *and* after the snapshot, and one lane
/// retired before the snapshot so retirement state rides along. The
/// snapshotting engine itself is then restored in place: a second
/// snapshot must be the first one byte for byte, i.e. restore writes
/// every buffer snapshot reads — arrays, packed tails and both
/// parities of the (staged, over TCP) chip-pair mailboxes included.
#[test]
fn gang_restore_is_bit_identical_across_modes_and_backends() {
    let (c, comp) = multi_chip(72);
    assert!(!c.arrays.is_empty(), "the walk must see array copies");
    for (packed, lanes) in [(false, 5), (true, 6), (true, 65)] {
        for backend in BACKENDS {
            for &threads in &[1usize, 4] {
                let mut gang = GangSimulator::with_transport(
                    &c,
                    &comp.partition,
                    threads,
                    lanes,
                    packed,
                    backend,
                );
                for l in 0..lanes {
                    gang.poke_lane("in0", l, 3 + 13 * l as u64);
                    gang.poke_lane("in1", l, 1 ^ l as u64);
                }
                gang.run(9);
                gang.finish_lane(2);
                gang.run(8);
                let bytes = gang.snapshot().to_bytes();
                let snap = Snapshot::from_bytes(&bytes).expect("round-trips");
                for l in 0..lanes {
                    gang.poke_lane("in0", l, 100 + l as u64);
                }
                gang.run(14);
                let want: Vec<Vec<u64>> = (0..lanes).map(|l| lane_state(&gang, l)).collect();
                gang.restore(&snap).expect("its own snapshot fits");
                assert!(
                    gang.snapshot().to_bytes() == bytes,
                    "[{} t{threads} packed={packed} x{lanes}] restore left a buffer behind",
                    gang.transport_name(),
                );

                let mut resumed = GangSimulator::with_transport(
                    &c,
                    &comp.partition,
                    5 - threads,
                    lanes,
                    packed,
                    backend,
                );
                resumed.restore(&snap).expect("shapes match");
                assert_eq!(resumed.cycle(), 17);
                assert!(!resumed.lane_is_active(2), "retirement must be restored");
                for l in 0..lanes {
                    resumed.poke_lane("in0", l, 100 + l as u64);
                }
                resumed.run(14);
                for (l, want) in want.iter().enumerate() {
                    assert_eq!(
                        &lane_state(&resumed, l),
                        want,
                        "[{} t{threads} packed={packed}] lane {l} diverged",
                        resumed.transport_name(),
                    );
                }
            }
        }
    }
}

/// Corrupted, truncated, or mislabeled snapshot bytes must be rejected
/// with the matching typed error — never a partial restore.
#[test]
fn corrupted_snapshots_are_rejected() {
    let (c, comp) = multi_chip(73);
    let mut sim = BspSimulator::new(&c, &comp.partition, 2);
    sim.run(5);
    let bytes = sim.snapshot().to_bytes();

    // Pristine bytes parse.
    assert!(Snapshot::from_bytes(&bytes).is_ok());

    // A flipped payload byte fails the checksum.
    let mut bad = bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    assert!(matches!(
        Snapshot::from_bytes(&bad),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));

    // A truncated file (torn write) is caught by the length field.
    assert!(matches!(
        Snapshot::from_bytes(&bytes[..bytes.len() - 9]),
        Err(SnapshotError::Truncated)
    ));

    // Wrong magic: not a snapshot at all.
    let mut bad = bytes.clone();
    bad[0] = b'X';
    assert!(matches!(
        Snapshot::from_bytes(&bad),
        Err(SnapshotError::BadMagic)
    ));

    // Future format version, and the previous one (version 1 laid a
    // one-lane arena out in node-id order).
    for version in [0xee, 1] {
        let mut bad = bytes.clone();
        bad[4] = version;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::BadVersion { .. })
        ));
    }
}

/// A snapshot must refuse to restore into an engine of a different
/// shape — different lane count, different circuit, or a gang snapshot
/// in the retired lane-major word order — with a message naming the
/// mismatch, leaving the target untouched.
#[test]
fn restore_rejects_mismatched_engines() {
    let (c, comp) = multi_chip(74);
    let mut gang = GangSimulator::new(&c, &comp.partition, 2, 4);
    gang.run(6);
    let snap = gang.snapshot();

    // Wrong lane count.
    let mut other = GangSimulator::new(&c, &comp.partition, 2, 3);
    other.run(2);
    match other.restore(&snap) {
        Err(SnapshotError::ShapeMismatch(msg)) => {
            assert!(msg.contains("lanes"), "should name the dimension: {msg}")
        }
        other => panic!("expected shape mismatch, got {other:?}"),
    }
    assert_eq!(other.cycle(), 2, "failed restore must not touch state");

    // Wrong circuit.
    let (c2, comp2) = multi_chip(75);
    let mut other = GangSimulator::new(&c2, &comp2.partition, 2, 4);
    match other.restore(&snap) {
        Err(SnapshotError::ShapeMismatch(msg)) => {
            assert!(msg.contains("circuit"), "should name the circuit: {msg}")
        }
        other => panic!("expected shape mismatch, got {other:?}"),
    }

    // A 2-lane snapshot carrying layout word 0 — what the deleted
    // lane-major gang path wrote. Every buffer has the same size but
    // the words are in a different order, so it must be refused, not
    // misread. The layout word follows the circuit name, lane count
    // and packed word count; the checksum is redone so only the
    // fingerprint can object.
    let mut two = GangSimulator::new(&c, &comp.partition, 2, 2);
    two.run(3);
    let mut bytes = two.snapshot().to_bytes();
    let at = 16 + 4 + c.name.len() + 8;
    assert_eq!(bytes[at..at + 4], 1u32.to_le_bytes(), "gangs interleave");
    bytes[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
    let body = bytes.len() - 8;
    let sum = parendi_core::key::fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    let lane_major = Snapshot::from_bytes(&bytes).expect("well-formed snapshot");
    two.run(4);
    let before = [lane_state(&two, 0), lane_state(&two, 1)];
    match two.restore(&lane_major) {
        Err(SnapshotError::ShapeMismatch(msg)) => {
            assert!(msg.contains("layout"), "should name the layout: {msg}")
        }
        other => panic!("expected shape mismatch, got {other:?}"),
    }
    assert_eq!(two.cycle(), 7, "failed restore must not touch state");
    assert_eq!([lane_state(&two, 0), lane_state(&two, 1)], before);
}

const CHILD_ENV: &str = "PARENDI_CKPT_CHILD_PATH";
const CHILD_BACKEND_ENV: &str = "PARENDI_CKPT_CHILD_BACKEND";
const CHILD_SEED: u64 = 76;

fn child_backend(name: &str) -> TransportChoice {
    match name {
        "tcp" => TransportChoice::Tcp,
        _ => TransportChoice::InProcess,
    }
}

/// Child half of `killed_run_resumes_from_auto_checkpoint`: inert
/// unless spawned with the handoff env vars. Checkpoints every 10
/// cycles, dies abruptly at cycle 25 — no drop handlers, no flush —
/// leaving the cycle-20 auto-checkpoint as the only survivor.
#[test]
fn ckpt_child_entry() {
    let Ok(path) = std::env::var(CHILD_ENV) else {
        return;
    };
    let backend = child_backend(&std::env::var(CHILD_BACKEND_ENV).unwrap_or_default());
    let (c, comp) = multi_chip(CHILD_SEED);
    let mut sim = BspSimulator::with_transport(&c, &comp.partition, 2, backend);
    sim.set_auto_checkpoint(&path, 10);
    sim.poke("in0", 5);
    sim.poke("in1", 60);
    sim.run(25);
    // Simulate a crash: skip every destructor.
    std::process::exit(42);
}

/// The full crash-recovery workflow, per transport backend: a child
/// process auto-checkpoints every 10 cycles and is lost at cycle 25;
/// the parent picks up the cycle-20 snapshot from disk, restores it
/// into a fresh engine, and the resumed run is bit-identical to an
/// uninterrupted one.
#[test]
fn killed_run_resumes_from_auto_checkpoint() {
    let (c, comp) = multi_chip(CHILD_SEED);
    // The uninterrupted reference: same stimulus, straight to 45.
    let mut reference = BspSimulator::new(&c, &comp.partition, 2);
    reference.poke("in0", 5);
    reference.poke("in1", 60);
    reference.run(45);
    let want = bsp_state(&reference, &c);

    let exe = std::env::current_exe().expect("current test binary");
    for backend in BACKENDS {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "parendi-ckpt-test-{}-{}.snap",
            std::process::id(),
            backend.name()
        ));
        let _ = std::fs::remove_file(&path);
        let status = std::process::Command::new(&exe)
            .args(["ckpt_child_entry", "--exact"])
            .env(CHILD_ENV, &path)
            .env(CHILD_BACKEND_ENV, backend.name())
            .status()
            .expect("spawn checkpointing child");
        assert_eq!(
            status.code(),
            Some(42),
            "[{}] child died as planned",
            backend.name()
        );

        let snap = Snapshot::read(&path)
            .unwrap_or_else(|e| panic!("[{}] read auto-checkpoint: {e}", backend.name()));
        assert_eq!(
            snap.cycle(),
            20,
            "[{}] last full checkpoint",
            backend.name()
        );
        let _ = std::fs::remove_file(&path);

        // Resume on the same backend, different thread count.
        let mut resumed = BspSimulator::with_transport(&c, &comp.partition, 3, backend);
        resumed.restore(&snap).expect("shapes match");
        resumed.run(25);
        assert_eq!(resumed.cycle(), 45);
        assert_eq!(
            bsp_state(&resumed, &c),
            want,
            "[{}] kill-resume diverged from the uninterrupted run",
            backend.name(),
        );
    }
}

/// `PARENDI_CHECKPOINT` chunking must not change results: an
/// auto-checkpointing run is bit-identical to a plain one, and the
/// file left behind restores to the final cycle.
#[test]
fn auto_checkpoint_preserves_results() {
    let (c, comp) = multi_chip(77);
    let mut plain = BspSimulator::new(&c, &comp.partition, 2);
    plain.poke("in0", 9);
    plain.poke("in1", 2);
    plain.run(33);

    let path = std::env::temp_dir().join(format!("parendi-ckpt-auto-{}.snap", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut auto = BspSimulator::new(&c, &comp.partition, 2);
    auto.set_auto_checkpoint(&path, 7);
    auto.poke("in0", 9);
    auto.poke("in1", 2);
    auto.run(33);
    assert_eq!(
        bsp_state(&auto, &c),
        bsp_state(&plain, &c),
        "chunking changed results"
    );

    // 33 = 4×7 + 5, so the newest on-disk snapshot is cycle 28.
    let snap = Snapshot::read(&path).expect("auto-checkpoint written");
    assert_eq!(snap.cycle(), 28);
    let _ = std::fs::remove_file(&path);
}
