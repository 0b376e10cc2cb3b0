//! `fault_campaign`: fault-injection campaigns over gang lanes on
//! corpus designs — the RIROS-style workload the scenario-parallel
//! engine makes cheap. Per design: boot every lane identically, fork
//! from the golden lane, install one stuck-at per non-golden lane
//! (`FaultPlan::round_robin`), run the campaign, and report
//! detected / latent / silent coverage plus faults/s throughput.
//!
//! The golden lane is asserted bit-exact against the reference
//! interpreter after every campaign — fault isolation is the
//! contract — and the binary exits nonzero if a campaign detects
//! nothing (a dead campaign must fail CI, not upload a green record).
//!
//! Flags / knobs: `--quick` (or `PARENDI_QUICK=1`) shrinks lanes and
//! cycles; `--resume <snapshot>` restores a checkpoint written by a
//! previous run (e.g. via `PARENDI_CHECKPOINT=path:N`) and finishes
//! that design's campaign from where it died; `PARENDI_BENCH_DIR`
//! receives `BENCH_fault_campaign.json`.

use parendi_bench::{parse_quick_flag, quick, rule, write_bench_json, BenchRecord};
use parendi_core::{compile, PartitionConfig};
use parendi_designs::{ca, prng};
use parendi_rtl::{Circuit, RegId};
use parendi_sim::{run_campaign, FaultPlan, GangSimulator, Simulator, Snapshot};

/// One campaign configuration over a corpus design. Both legs expose
/// their faulted state at primary outputs — a campaign over a design
/// with no outputs can only ever classify latent/silent.
struct Leg {
    circuit: Circuit,
    packed: bool,
    lanes: usize,
    boot: u64,
    cycles: u64,
}

fn legs() -> Vec<Leg> {
    if quick() {
        vec![
            Leg {
                circuit: ca::build_rule30(32),
                packed: true,
                lanes: 64,
                boot: 16,
                cycles: 96,
            },
            Leg {
                circuit: prng::build_seeded_bank(4),
                packed: false,
                lanes: 8,
                boot: 16,
                cycles: 64,
            },
        ]
    } else {
        vec![
            Leg {
                circuit: ca::build_rule30(64),
                packed: true,
                lanes: 256,
                boot: 32,
                cycles: 512,
            },
            Leg {
                circuit: prng::build_seeded_bank(8),
                packed: false,
                lanes: 32,
                boot: 32,
                cycles: 256,
            },
        ]
    }
}

/// `--resume <path>` from argv, if present.
fn parse_resume() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--resume" {
            return Some(args.next().unwrap_or_else(|| {
                eprintln!("--resume requires a snapshot path");
                std::process::exit(2);
            }));
        }
    }
    None
}

fn main() {
    parse_quick_flag();
    let resume = parse_resume().map(|p| {
        Snapshot::read(&p).unwrap_or_else(|e| {
            eprintln!("cannot resume from {p}: {e}");
            std::process::exit(2);
        })
    });

    let threads = 4usize;
    let mut records = Vec::new();
    let mut any_dead = false;

    println!("fault_campaign: stuck-at campaigns over gang lanes (golden lane 0)");
    println!(
        "{:<8} {:>6} {:>6} {:>7} {:>9} {:>8} {:>8} {:>8} {:>12} {:>14}",
        "design",
        "lanes",
        "packed",
        "faults",
        "cycles",
        "detect",
        "latent",
        "silent",
        "faults/s",
        "flane-cyc/s"
    );
    rule(94);

    for leg in legs() {
        let mut cfg = PartitionConfig::with_tiles(4);
        cfg.tiles_per_chip = 2;
        let comp = compile(&leg.circuit, &cfg).expect("corpus design compiles");
        let golden = 0u32;
        let plan = FaultPlan::round_robin(&leg.circuit, leg.lanes as u32, golden);
        assert!(
            !plan.is_empty(),
            "{}: empty fault plan",
            leg.circuit.name.clone()
        );

        let mut gang = if leg.packed {
            GangSimulator::new_packed(&leg.circuit, &comp.partition, threads, leg.lanes)
        } else {
            GangSimulator::new(&leg.circuit, &comp.partition, threads, leg.lanes)
        };

        // Resume path: if the snapshot matches this leg's design and
        // shape, restore it and finish the campaign; otherwise boot
        // from cycle 0. (PARENDI_CHECKPOINT=path:N makes the engine
        // drop resumable snapshots every N cycles automatically.)
        let mut done = 0u64;
        let resumed = match &resume {
            Some(snap)
                if snap.circuit() == leg.circuit.name && snap.lanes() as usize == leg.lanes =>
            {
                gang.restore(snap).unwrap_or_else(|e| {
                    eprintln!("{}: snapshot does not fit: {e}", leg.circuit.name.clone());
                    std::process::exit(2);
                });
                done = snap.cycle().saturating_sub(leg.boot).min(leg.cycles);
                true
            }
            _ => false,
        };
        if !resumed {
            // Shared boot, then fork every lane from the golden one —
            // the campaign pattern (a boot prefix amortized across the
            // whole fault set).
            gang.run(leg.boot);
            gang.fork_lanes(golden as usize);
        }

        let left = leg.cycles - done;
        let report =
            run_campaign(&mut gang, &plan, golden, left, 16).expect("round-robin plan is valid");

        // The golden lane must be bit-exact against the reference
        // interpreter over the full boot + campaign horizon: faults
        // are masked out of every other lane's blend, never lane 0's.
        let mut r = Simulator::new(&leg.circuit);
        r.step_n(leg.boot + leg.cycles);
        for ri in 0..leg.circuit.regs.len() {
            assert_eq!(
                gang.reg_value_lane(RegId(ri as u32), golden as usize),
                r.reg_value(RegId(ri as u32)),
                "{}: golden lane diverged from the interpreter at reg {}",
                leg.circuit.name.clone(),
                leg.circuit.regs[ri].name,
            );
        }

        println!(
            "{:<8} {:>6} {:>6} {:>7} {:>9} {:>8} {:>8} {:>8} {:>12.1} {:>14.0}",
            leg.circuit.name.clone(),
            leg.lanes,
            leg.packed,
            report.outcomes.len(),
            done + left,
            report.detected(),
            report.latent(),
            report.silent(),
            report.faults_per_s(),
            report.fault_lane_cycles_per_s(),
        );
        if report.detected() == 0 {
            any_dead = true;
            eprintln!(
                "ERROR: {}: campaign detected nothing ({})",
                leg.circuit.name.clone(),
                report.summary()
            );
        }

        let rec = BenchRecord {
            bin: "fault_campaign".into(),
            design: leg.circuit.name.clone(),
            engine: "gang".into(),
            packed: gang.is_packed(),
            chips: comp.partition.chips,
            tiles: comp.partition.tiles_used(),
            lanes: leg.lanes as u32,
            threads: threads as u32,
            cores: parendi_bench::host_cores(),
            cycles: left,
            cycles_per_s: left as f64 / report.seconds.max(1e-12),
            lane_cycles_per_s: report.fault_lane_cycles_per_s(),
            total_s: report.seconds,
            ..BenchRecord::default()
        };
        records.push(rec.with_metrics(gang.metrics_snapshot()));
    }

    match write_bench_json("fault_campaign", &records) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            // A campaign whose evidence never lands on disk must not
            // report success — CI greps the JSON, not the stdout.
            eprintln!("\nfault_campaign: could not write bench json: {e}");
            std::process::exit(1);
        }
    }
    if any_dead {
        eprintln!("fault_campaign: at least one campaign detected nothing");
        std::process::exit(1);
    }
}
