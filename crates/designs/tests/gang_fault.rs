//! Fault campaigns over corpus designs, one per gang layout. The
//! bit-packed gang is the natural fault-lane vehicle (one fault
//! scenario per packed bit lane), and Rule 30's chaotic dynamics make
//! stuck-at coverage non-degenerate — a faulted cell spreads through
//! the ring and into the `parity` output within a few cycles. The
//! strided leg runs the seeded PRNG bank the way a campaign driver
//! would: a shared boot, a fork from the golden lane, then the faults.

use parendi_core::{compile, PartitionConfig};
use parendi_designs::{prng, Benchmark};
use parendi_rtl::{Circuit, RegId};
use parendi_sim::{run_campaign, CampaignReport, FaultPlan, GangSimulator, Simulator};

const GOLDEN: u32 = 0;

/// Runs one stuck-at per non-golden lane (`FaultPlan::round_robin`)
/// over `c` on 4 tiles across two chips: boots every lane for `boot`
/// cycles and forks them from the golden one, runs the campaign for
/// `cycles`, and checks what every campaign must hold — something is
/// detected, every fault is classified, and the golden lane is
/// bit-exact against the reference interpreter over the whole horizon
/// (fault isolation is the whole point of the lane masks).
fn campaign_keeps_golden_clean(
    c: &Circuit,
    packed: bool,
    threads: usize,
    lanes: usize,
    boot: u64,
    cycles: u64,
    check_every: u64,
) -> CampaignReport {
    let mut cfg = PartitionConfig::with_tiles(4);
    cfg.tiles_per_chip = 2; // two chips: off-chip mailbox slots in play
    let comp = compile(c, &cfg).expect("corpus design compiles");
    let mut gang = if packed {
        GangSimulator::new_packed(c, &comp.partition, threads, lanes)
    } else {
        GangSimulator::new(c, &comp.partition, threads, lanes)
    };
    assert_eq!(gang.is_packed(), packed);
    if boot > 0 {
        gang.run(boot);
        gang.fork_lanes(GOLDEN as usize);
    }

    let plan = FaultPlan::round_robin(c, lanes as u32, GOLDEN);
    assert!(!plan.is_empty(), "{}: empty fault plan", c.name);
    let report = run_campaign(&mut gang, &plan, GOLDEN, cycles, check_every).expect("valid plan");
    assert_eq!(report.outcomes.len(), plan.len(), "{}", report.summary());
    assert!(
        report.detected() > 0,
        "{}: the campaign must surface stuck-ats: {}",
        c.name,
        report.summary()
    );
    assert_eq!(
        report.detected() + report.latent() + report.silent(),
        plan.len(),
        "{}",
        report.summary()
    );

    let mut r = Simulator::new(c);
    r.step_n(boot + cycles);
    for ri in 0..c.regs.len() {
        assert_eq!(
            gang.reg_value_lane(RegId(ri as u32), GOLDEN as usize),
            r.reg_value(RegId(ri as u32)),
            "{}: golden lane corrupted at {}",
            c.name,
            c.regs[ri].name,
        );
    }
    for o in &c.outputs {
        assert_eq!(
            gang.peek_output_lane(&o.name, GOLDEN as usize),
            r.output(&o.name),
            "{}: golden output {} diverged",
            c.name,
            o.name,
        );
    }
    report
}

/// A 64-lane packed campaign on the `ca32` automaton: every non-golden
/// lane carries one stuck-at on a distinct cell, and the chaotic ring
/// must detect a healthy share at the `parity`/`c_mid` outputs.
#[test]
fn packed_ca_campaign_detects_faults_and_keeps_golden_clean() {
    let c = Benchmark::Ca(32).build();
    let report = campaign_keeps_golden_clean(&c, true, 2, 64, 0, 64, 8);
    assert_eq!(report.outcomes.len(), 32, "one stuck-at per cell");
}

/// The strided layout: 8 lanes of the 4-generator seeded PRNG bank
/// (64-bit state, so nothing packs), booted together for 16 cycles and
/// forked from the golden lane before the faults go in.
#[test]
fn strided_prng_campaign_detects_faults_and_keeps_golden_clean() {
    let c = prng::build_seeded_bank(4);
    let report = campaign_keeps_golden_clean(&c, false, 4, 8, 16, 64, 16);
    assert_eq!(report.outcomes.len(), 7, "one stuck-at per faulted lane");
}
