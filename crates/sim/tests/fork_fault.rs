//! Lane fork and fault injection: `fork_lanes` must broadcast the
//! golden lane's full architectural state (the inverse of
//! `finish_lane`), post-fork divergence must match per-lane reference
//! interpreters, and an installed `FaultPlan` must perturb exactly the
//! specified lane/register/bit — stuck-ats persistently, transient
//! flips for exactly one cycle — with the campaign classifying the
//! outcome against the golden lane.

mod common;

use common::random_circuit_io;
use parendi_core::{compile, Compilation, PartitionConfig};
use parendi_rtl::{ArrayId, Circuit, RegId, Signal};
use parendi_sim::{
    run_campaign, FaultOutcome, FaultPlan, GangSimulator, Simulator, TransportChoice,
};

fn multi_chip(seed: u64) -> (Circuit, Compilation) {
    let c = random_circuit_io(seed, 10, 50, 2);
    let mut cfg = PartitionConfig::with_tiles(6);
    cfg.tiles_per_chip = 3;
    let comp = compile(&c, &cfg).expect("compiles");
    assert!(comp.partition.chips >= 2, "must exercise the transport");
    (c, comp)
}

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

/// After a shared boot (divergent stimulus, one retired lane),
/// `fork_lanes` must make every lane — including the retired one —
/// bit-identical to the golden lane, registers, arrays and outputs,
/// and reactivate them all; and the copies must *stay* identical under
/// identical stimulus, which they do not if the fork missed a mailbox
/// parity or a packed tail (state no register read shows, but the next
/// cycles consume). The 65-lane packed gang over TCP has two-word
/// packed blocks and staged chip-pair mailboxes.
#[test]
fn fork_broadcasts_the_golden_lane() {
    let (c, comp) = multi_chip(81);
    assert!(!c.arrays.is_empty(), "the fork must see array copies");
    for (packed, lanes, transport) in [
        (false, 5, TransportChoice::InProcess),
        (true, 6, TransportChoice::InProcess),
        (true, 65, TransportChoice::Tcp),
    ] {
        let mut gang =
            GangSimulator::with_transport(&c, &comp.partition, 2, lanes, packed, transport);
        for l in 0..lanes {
            gang.poke_lane("in0", l, 7 + l as u64);
            gang.poke_lane("in1", l, l as u64);
        }
        gang.run(11);
        gang.finish_lane(1);
        gang.run(4);
        let golden = 3usize;
        let mut want = lane_state(&gang, golden);
        // Sanity: lanes diverged before the fork.
        assert_ne!(lane_state(&gang, 0), want, "stimulus must diverge lanes");

        gang.fork_lanes(golden);
        assert_eq!(gang.active_lanes(), lanes, "fork reactivates every lane");
        for round in 0..2 {
            let outputs = gang.peek_outputs_lane(golden);
            for l in 0..lanes {
                assert_eq!(
                    lane_state(&gang, l),
                    want,
                    "packed={packed} x{lanes} round {round}: lane {l} not a copy of the golden lane"
                );
                assert_eq!(
                    gang.peek_outputs_lane(l),
                    outputs,
                    "packed={packed} x{lanes} round {round}: lane {l} outputs"
                );
            }
            // Inputs were forked too: 50 more cycles, same stimulus.
            gang.run(50);
            want = lane_state(&gang, golden);
        }
    }
}

/// Fork-then-diverge must match fresh per-lane reference interpreters
/// fed the golden lane's boot stimulus followed by the lane's own:
/// the boot-prefix-shared campaign pattern, proven bit-exact.
#[test]
fn post_fork_divergence_matches_the_interpreter() {
    let (c, comp) = multi_chip(82);
    let lanes = 4usize;
    let golden = 2usize;
    let boot = 13u64;
    let tail = 17u64;

    let mut gang = GangSimulator::new(&c, &comp.partition, 2, lanes);
    for l in 0..lanes {
        gang.poke_lane("in0", l, 50 + l as u64);
        gang.poke_lane("in1", l, 5 * l as u64);
    }
    gang.run(boot);
    gang.fork_lanes(golden);
    for l in 0..lanes {
        gang.poke_lane("in0", l, 200 + 3 * l as u64);
    }
    gang.run(tail);

    for l in 0..lanes {
        // Reference: the golden lane's boot, then this lane's tail.
        let mut r = Simulator::new(&c);
        r.poke("in0", 50 + golden as u64);
        r.poke("in1", 5 * golden as u64);
        r.step_n(boot);
        r.poke("in0", 200 + 3 * l as u64);
        r.step_n(tail);
        for ri in 0..c.regs.len() {
            assert_eq!(
                gang.reg_value_lane(RegId(ri as u32), l),
                r.reg_value(RegId(ri as u32)),
                "lane {l} reg {ri} ({}) diverged from the interpreter",
                c.regs[ri].name,
            );
        }
    }
}

/// A purpose-built circuit where fault effects are fully predictable:
/// a counter that feeds an output (faults on it are *detected*), a
/// register feeding nothing (faults on it are *latent*), and the
/// fault-free case (*silent* — here, a stuck-at writing the value the
/// bit already has).
fn classification_circuit() -> Circuit {
    let mut b = parendi_rtl::Builder::new("riros");
    let cnt = b.reg("cnt", 16, 0);
    let one = b.lit(16, 1);
    let n = b.add(cnt.q(), one);
    b.connect(cnt, n);
    b.output("o_cnt", cnt.q());
    // Shadow register: observes the counter through its own unique
    // next-value net, feeds no output — faults on it can only be
    // latent. (shadow_40 = XOR(0..39) = 0, so a stuck-at-1 provably
    // differs from the fault-free value at campaign end.)
    let shadow = b.reg("shadow", 16, 0);
    let sn = b.xor(shadow.q(), cnt.q());
    b.connect(shadow, sn);
    // A register that recomputes the constant 1 every cycle: a
    // stuck-at-1 on bit 0 writes the value the bit already has.
    let ones = b.reg("always1", 8, 1);
    let one8 = b.lit(8, 1);
    let keep: Signal = b.or(ones.q(), one8);
    b.connect(ones, keep);
    b.output("o_keep", ones.q());
    b.finish().expect("validates")
}

/// The campaign classifies the three canonical outcomes on the
/// purpose-built circuit: output-visible ⇒ detected, state-only ⇒
/// latent, masked ⇒ silent — and the golden lane matches the
/// reference interpreter afterwards (faults never leak into it).
#[test]
fn campaign_classifies_detected_latent_silent() {
    let c = classification_circuit();
    let comp = compile(&c, &PartitionConfig::with_tiles(2)).expect("compiles");
    let lanes = 4usize;
    let golden = 0u32;
    let mut gang = GangSimulator::new(&c, &comp.partition, 2, lanes);

    let mut plan = FaultPlan::new();
    plan.stuck_at(1, "cnt", 3, true); // visible at o_cnt ⇒ detected
    plan.stuck_at(2, "shadow", 5, true); // no output cone ⇒ latent
    plan.stuck_at(3, "always1", 0, true); // already 1 ⇒ silent
    let cycles = 40u64;
    let report = run_campaign(&mut gang, &plan, golden, cycles, 8).expect("valid plan");

    assert_eq!(report.detected(), 1, "{}", report.summary());
    assert_eq!(report.latent(), 1, "{}", report.summary());
    assert_eq!(report.silent(), 1, "{}", report.summary());
    assert!(matches!(
        report.outcomes[0],
        (1, FaultOutcome::Detected { .. })
    ));
    assert_eq!(report.outcomes[1], (2, FaultOutcome::Latent));
    assert_eq!(report.outcomes[2], (3, FaultOutcome::Silent));

    // The golden lane is untouched: it still matches the interpreter.
    let mut r = Simulator::new(&c);
    r.step_n(cycles);
    for ri in 0..c.regs.len() {
        assert_eq!(
            gang.reg_value_lane(RegId(ri as u32), golden as usize),
            r.reg_value(RegId(ri as u32)),
            "golden lane corrupted: reg {}",
            c.regs[ri].name,
        );
    }

    // Coverage counters landed in the metrics registry.
    let m = gang.metrics_snapshot();
    assert_eq!(m.get("faults_injected"), Some(3));
    assert_eq!(m.get("faults_detected"), Some(1));
    assert_eq!(m.get("faults_latent"), Some(1));
    assert_eq!(m.get("faults_silent"), Some(1));

    // Campaigns must also run under packed lanes (1-bit state
    // bit-packed across lanes) with identical classification.
    let mut packed = GangSimulator::new_packed(&c, &comp.partition, 2, lanes);
    let report = run_campaign(&mut packed, &plan, golden, cycles, 8).expect("valid plan");
    assert_eq!(
        (report.detected(), report.latent(), report.silent()),
        (1, 1, 1),
        "packed classification diverged: {}",
        report.summary()
    );
}

/// A transient flip perturbs its bit for exactly one cycle: identical
/// to the golden lane before the flip cycle, divergent right after,
/// and the divergence evolves as a one-shot XOR would in the
/// reference (checked by replaying the flip in an interpreter).
#[test]
fn transient_flip_applies_exactly_once() {
    let c = classification_circuit();
    let comp = compile(&c, &PartitionConfig::with_tiles(2)).expect("compiles");
    let mut gang = GangSimulator::new(&c, &comp.partition, 2, 2);

    let mut plan = FaultPlan::new();
    plan.flip(1, "cnt", 0, 5); // flip bit 0 of cnt during cycle 5
    gang.apply_fault_plan(&plan).expect("valid plan");

    // Up to and including cycle 5 the fault is invisible in committed
    // state read *before* cycle 5 runs.
    gang.run(5);
    assert_eq!(
        gang.reg_value_lane(RegId(0), 1).to_u64(),
        5,
        "flip must not act before its cycle"
    );
    // Cycle 5 executes with the flipped next-state bit: cnt becomes
    // (5+1) ^ 1 = 7, and from then on the lane stays exactly 1 ahead.
    gang.run(1);
    assert_eq!(gang.reg_value_lane(RegId(0), 1).to_u64(), 7);
    assert_eq!(gang.reg_value_lane(RegId(0), 0).to_u64(), 6);
    gang.run(10);
    assert_eq!(
        gang.reg_value_lane(RegId(0), 1).to_u64(),
        gang.reg_value_lane(RegId(0), 0).to_u64() + 1,
        "a transient flip must not re-apply"
    );

    // clear_faults lifts the plan: forked lanes stay in lockstep.
    gang.clear_faults();
    gang.fork_lanes(0);
    gang.run(7);
    assert_eq!(
        gang.reg_value_lane(RegId(0), 1),
        gang.reg_value_lane(RegId(0), 0),
        "cleared faults must stop perturbing"
    );
}

/// Rejected plans: unknown register, out-of-range bit or lane, and a
/// golden-lane target — each with a message naming the offender, and
/// the gang left fault-free.
#[test]
fn invalid_plans_are_rejected_with_context() {
    let c = classification_circuit();
    let comp = compile(&c, &PartitionConfig::with_tiles(2)).expect("compiles");
    let mut gang = GangSimulator::new(&c, &comp.partition, 2, 3);

    let mut plan = FaultPlan::new();
    plan.stuck_at(1, "nonesuch", 0, true);
    let err = gang.apply_fault_plan(&plan).unwrap_err();
    assert!(err.contains("nonesuch"), "{err}");

    let mut plan = FaultPlan::new();
    plan.stuck_at(1, "cnt", 99, true);
    let err = gang.apply_fault_plan(&plan).unwrap_err();
    assert!(err.contains("bit 99"), "{err}");

    let mut plan = FaultPlan::new();
    plan.stuck_at(7, "cnt", 0, true);
    let err = gang.apply_fault_plan(&plan).unwrap_err();
    assert!(err.contains("lane 7"), "{err}");

    let mut plan = FaultPlan::new();
    plan.stuck_at(0, "cnt", 0, true);
    let err = run_campaign(&mut gang, &plan, 0, 10, 5).unwrap_err();
    assert!(err.contains("golden"), "{err}");

    // None of the rejected plans stuck: both lanes still agree.
    gang.run(20);
    assert_eq!(
        gang.reg_value_lane(RegId(0), 1),
        gang.reg_value_lane(RegId(0), 0),
        "a rejected plan must install nothing"
    );
}

/// Faults and checkpoints compose: a campaign interrupted by
/// snapshot/restore classifies identically to an uninterrupted one
/// (the plan is re-applied after restore; fault state itself is not
/// part of the snapshot — documented in docs/CHECKPOINT.md).
#[test]
fn campaigns_survive_checkpoint_restore() {
    let (c, comp) = multi_chip(83);
    let lanes = 4usize;
    let golden = 0u32;
    let plan = FaultPlan::round_robin(&c, lanes as u32, golden);
    assert!(!plan.is_empty());

    // Uninterrupted campaign.
    let mut gang = GangSimulator::new(&c, &comp.partition, 2, lanes);
    for l in 0..lanes {
        gang.poke_lane("in0", l, 9);
        gang.poke_lane("in1", l, 4);
    }
    let want = run_campaign(&mut gang, &plan, golden, 30, 6).expect("valid plan");

    // Same campaign, snapshotted mid-flight and resumed in a fresh
    // engine: first half here, snapshot, second half there.
    let mut first = GangSimulator::new(&c, &comp.partition, 2, lanes);
    for l in 0..lanes {
        first.poke_lane("in0", l, 9);
        first.poke_lane("in1", l, 4);
    }
    let _ = run_campaign(&mut first, &plan, golden, 18, 6).expect("valid plan");
    let snap = first.snapshot();
    let mut second = GangSimulator::new(&c, &comp.partition, 3, lanes);
    second.restore(&snap).expect("shapes match");
    let resumed = run_campaign(&mut second, &plan, golden, 12, 6).expect("valid plan");

    // Detected set must match exactly; latent/silent classification is
    // computed on final state, which is bit-identical by the restore
    // contract, so the whole outcome vector agrees.
    let strip = |r: &parendi_sim::CampaignReport| -> Vec<(u32, bool)> {
        r.outcomes
            .iter()
            .map(|(l, o)| (*l, matches!(o, FaultOutcome::Detected { .. })))
            .collect()
    };
    assert_eq!(
        strip(&resumed),
        strip(&want),
        "checkpointed campaign diverged: {} vs {}",
        resumed.summary(),
        want.summary(),
    );
}
