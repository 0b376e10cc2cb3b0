//! Unit tests of the bytecode, its lowering passes and the hot loop,
//! each against the slice-kernel evaluator [`eval_op`].

use super::bytecode::{argc, is_run, op, opcode_name, Code};
use super::dispatch::exec_code;
use super::lanes::{AllLanes, LaneTile, OneLane, TileBuf};
use super::lower::PackPlan;
use crate::engine::frontend::Compiled;
use crate::engine::program::Step;
use crate::engine::scalar::eval_op;
use crate::engine::sync::EpochSync;
use crate::simd::tests::test_isas;
use crate::simd::VecIsa;
use parendi_core::{compile, PartitionConfig};
use parendi_rtl::bits::top_word_mask;
use parendi_rtl::{BinOp, Builder, Circuit, UnOp};
use parendi_telemetry::Counter;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A scratch lane-strided tile with no registers or arrays.
fn scratch_tile(lanes: usize, astride: usize) -> LaneTile {
    LaneTile {
        arena: TileBuf::zeroed(lanes * astride),
        packed: Vec::new(),
        reg_cur: TileBuf::zeroed(0),
        arrays: Vec::new(),
        rw: 0,
        arr_words: Vec::new(),
        lanes,
        scratch: Vec::new(),
    }
}

/// Executes `code` on a fresh scratch tile of `lanes` lanes — the
/// [`OneLane`] instantiation at one lane, the [`AllLanes`] gang
/// sweep on `isa` above — seeding every lane through the
/// *lane-contiguous* `setup` view, and returns each lane's arena
/// de-interleaved back to a contiguous slab so callers compare lane
/// counts and ISAs against one oracle.
fn run_step_code(
    codes: &[&Code],
    lanes: usize,
    astride: usize,
    packed_words: usize,
    setup: &dyn Fn(usize, &mut [u64]),
    isa: VecIsa,
) -> Vec<Vec<u64>> {
    let mut tile = scratch_tile(lanes, astride);
    tile.packed = vec![0u64; packed_words];
    tile.scratch = vec![0u64; astride];
    let mut tmp = vec![0u64; astride];
    for l in 0..lanes {
        setup(l, &mut tmp);
        for (off, &w) in tmp.iter().enumerate() {
            tile.arena[off * lanes + l] = w;
        }
    }
    for code in codes {
        if lanes == 1 {
            exec_code(code, &mut tile, &[], &[], 0, OneLane, isa);
        } else {
            exec_code(code, &mut tile, &[], &[], 0, AllLanes(lanes), isa);
        }
    }
    (0..lanes)
        .map(|l| {
            (0..astride)
                .map(|off| tile.arena[off * lanes + l])
                .collect()
        })
        .collect()
}

/// Runs `step` through the full lower→exec pipeline on `lanes`
/// strided copies — on every available ISA — and cross-checks every
/// lane against the slice-kernel evaluator [`eval_op`] on that
/// lane's block. Asserts the lowering actually produced a fused
/// opcode (not a `WIDE` fallback).
fn check_step_lanes(
    step: &Step,
    setup: &dyn Fn(usize, &mut [u64]),
    dst: usize,
    nw: usize,
    lanes: usize,
) {
    let code = Code::lower(std::slice::from_ref(step), false);
    assert_eq!(code.ops.len(), 1, "one step lowers to one instruction");
    assert_ne!(
        (code.ops[0] & 0xff) as u8,
        op::WIDE,
        "single-word step must lower to a fused opcode: {step:?}"
    );
    let astride = 16usize;
    let mut expect = vec![0u64; astride];
    for isa in test_isas() {
        let got = run_step_code(&[&code], lanes, astride, 0, setup, isa);
        for (l, lane) in got.iter().enumerate() {
            setup(l, &mut expect);
            eval_op(&mut expect, step);
            assert_eq!(
                &lane[dst..dst + nw],
                &expect[dst..dst + nw],
                "lane {l}/{lanes} diverged from eval_op on {step:?} (isa={})",
                isa.name()
            );
        }
    }
}

/// One lane (the scalar [`OneLane`] arms) and a small gang.
fn check_step(step: &Step, setup: &dyn Fn(usize, &mut [u64]), dst: usize, nw: usize) {
    for lanes in [1, 3] {
        check_step_lanes(step, setup, dst, nw, lanes);
    }
}

/// A step of the exhaustive cross-check (operands at offsets below
/// 4, destination word 4) and the per-lane seeding of its operands.
type RunCase = (Step, Box<dyn Fn(usize, &mut [u64])>);

/// `step` with every arena offset moved up by `base`.
fn relocated(step: &Step, base: u32) -> Step {
    let mut step = step.clone();
    match &mut step {
        Step::Un { dst, a, .. }
        | Step::Slice { dst, a, .. }
        | Step::Zext { dst, a, .. }
        | Step::Sext { dst, a, .. } => {
            for off in [dst, a] {
                *off += base;
            }
        }
        Step::Bin { dst, a, b, .. } => {
            for off in [dst, a, b] {
                *off += base;
            }
        }
        Step::Concat { dst, hi, lo, .. } => {
            for off in [dst, hi, lo] {
                *off += base;
            }
        }
        Step::Mux { dst, sel, t, f, .. } => {
            for off in [dst, sel, t, f] {
                *off += base;
            }
        }
        other => unreachable!("not a fused single-word step: {other:?}"),
    }
    step
}

/// The batched half of the exhaustive cross-check: per opcode, the
/// cases execute again as one-lane **runs** of 1, 2, 3 and 17
/// elements — walked with a stride, so the neighbours inside a run
/// differ in width and operands — each element in its own arena
/// window, and every destination must match [`eval_op`].
fn check_runs(cases: &[RunCase]) {
    const WIN: usize = 8;
    let mut by_opc: BTreeMap<u8, Vec<&RunCase>> = BTreeMap::new();
    for case in cases {
        let code = Code::lower(std::slice::from_ref(&case.0), false);
        by_opc
            .entry((code.ops[0] & 0xff) as u8)
            .or_default()
            .push(case);
    }
    assert_eq!(by_opc.len(), 25, "every fused single-word opcode has cases");
    for (opc, group) in by_opc {
        let stride = if group.len() % 37 == 0 { 41 } else { 37 };
        let mut walk = (0..group.len()).map(|i| group[i * stride % group.len()]);
        let mut mixed = false;
        for len in [1usize, 2, 3, 17].into_iter().cycle() {
            let elems: Vec<&RunCase> = walk.by_ref().take(len).collect();
            if elems.is_empty() {
                break;
            }
            let steps: Vec<Step> = elems
                .iter()
                .enumerate()
                .map(|(j, case)| relocated(&case.0, (j * WIN) as u32))
                .collect();
            let code = Code::lower(&steps, true);
            let n = elems.len() as u32;
            if n == 1 {
                assert_eq!(code.ops.len(), 1, "a lone instruction stays itself");
                assert_eq!((code.ops[0] & 0xff) as u8, opc);
            } else {
                assert_eq!(
                    code.ops,
                    [(op::RUN | opc) as u32 | n << 8],
                    "one run of {n}"
                );
                let mut widths = code.args.chunks(argc(op::RUN | opc)).map(|e| e[0]);
                let first = widths.next().unwrap();
                mixed |= opc != op::MUX1 && widths.any(|w| w != first);
            }
            let mut tile = scratch_tile(1, WIN * elems.len());
            for (j, case) in elems.iter().enumerate() {
                (case.1)(j, &mut tile.arena[j * WIN..][..WIN]);
            }
            let mut expect = tile.arena.to_vec();
            exec_code(&code, &mut tile, &[], &[], 0, OneLane, VecIsa::Scalar);
            for step in &steps {
                eval_op(&mut expect, step);
            }
            assert_eq!(tile.arena[..], expect, "run of {n} diverged: {steps:?}");
        }
        assert!(
            mixed || opc == op::MUX1,
            "{}: no mixed-width run",
            opcode_name(opc)
        );
    }
}

/// Every fused single-word opcode — all 15 binary kernels, all 5
/// unary kernels, mux/slice/zext/sext/concat — must agree with the
/// slice-kernel evaluator on every width and operand pattern, in
/// every lane of a strided sweep (extends the `un1`/`bin1`
/// exhaustive cross-check one level up, through the bytecode).
#[test]
fn fused_opcodes_match_slice_kernels_exhaustively() {
    // Every step checked on its own below runs a second time inside
    // a run (`check_runs`, at the end).
    let mut cases: Vec<RunCase> = Vec::new();
    let widths = [1u32, 5, 31, 32, 33, 63, 64];
    let vals = [0u64, 1, 2, 0x5a5a_5a5a, u64::MAX, 1 << 31, (1 << 31) - 1];
    let bins = [
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::LtU,
        BinOp::LtS,
        BinOp::LeU,
        BinOp::LeS,
        BinOp::Shl,
        BinOp::Lshr,
        BinOp::Ashr,
    ];
    let uns = [
        UnOp::Not,
        UnOp::Neg,
        UnOp::RedAnd,
        UnOp::RedOr,
        UnOp::RedXor,
    ];
    for &w in &widths {
        let m = top_word_mask(w);
        for (vi, &ra) in vals.iter().enumerate() {
            for &rb in &vals {
                for opv in bins {
                    let rw = match opv {
                        BinOp::Eq
                        | BinOp::Ne
                        | BinOp::LtU
                        | BinOp::LtS
                        | BinOp::LeU
                        | BinOp::LeS => 1,
                        _ => w,
                    };
                    let step = Step::Bin {
                        op: opv,
                        dst: 4,
                        a: 0,
                        b: 1,
                        w: rw,
                        aw: w,
                        anw: 1,
                        bnw: 1,
                    };
                    // Lanes see rotated operand values so a stride
                    // bug cannot cancel out.
                    let setup = move |l: usize, arena: &mut [u64]| {
                        arena.fill(0);
                        arena[0] = ra.rotate_left(l as u32) & m;
                        arena[1] = rb.rotate_right(l as u32) & m;
                    };
                    check_step(&step, &setup, 4, 1);
                    cases.push((step, Box::new(setup)));
                    let _ = vi;
                }
            }
            for opv in uns {
                let rw = match opv {
                    UnOp::Not | UnOp::Neg => w,
                    _ => 1,
                };
                let step = Step::Un {
                    op: opv,
                    dst: 4,
                    a: 0,
                    w: rw,
                    aw: w,
                    anw: 1,
                };
                let setup = move |l: usize, arena: &mut [u64]| {
                    arena.fill(0);
                    arena[0] = ra.rotate_left(l as u32) & m;
                };
                check_step(&step, &setup, 4, 1);
                cases.push((step, Box::new(setup)));
            }
            // Mux: both selector polarities.
            for sel in [0u64, 1] {
                let step = Step::Mux {
                    dst: 4,
                    sel: 2,
                    t: 0,
                    f: 1,
                    nw: 1,
                    w: 1,
                };
                let setup = move |l: usize, arena: &mut [u64]| {
                    arena.fill(0);
                    arena[0] = ra.rotate_left(l as u32) & m;
                    arena[1] = !ra & m;
                    arena[2] = sel ^ (l as u64 & 1);
                };
                check_step(&step, &setup, 4, 1);
                cases.push((step, Box::new(setup)));
            }
            // Slice at several offsets within the word.
            for lo in [0u32, 1, w / 2, w - 1] {
                let sw = (w - lo).clamp(1, 7);
                let step = Step::Slice {
                    dst: 4,
                    a: 0,
                    lo,
                    w: sw,
                    anw: 1,
                };
                let setup = move |l: usize, arena: &mut [u64]| {
                    arena.fill(0);
                    arena[0] = ra.rotate_left(l as u32) & m;
                };
                check_step(&step, &setup, 4, 1);
                cases.push((step, Box::new(setup)));
            }
            // Zero/sign extension to every wider single-word width.
            for &wide in widths.iter().filter(|&&x| x >= w) {
                for signed in [false, true] {
                    let step = if signed {
                        Step::Sext {
                            dst: 4,
                            a: 0,
                            aw: w,
                            w: wide,
                            anw: 1,
                        }
                    } else {
                        Step::Zext {
                            dst: 4,
                            a: 0,
                            w: wide,
                            anw: 1,
                        }
                    };
                    let setup = move |l: usize, arena: &mut [u64]| {
                        arena.fill(0);
                        arena[0] = ra.rotate_left(l as u32) & m;
                    };
                    check_step(&step, &setup, 4, 1);
                    cases.push((step, Box::new(setup)));
                }
            }
            // Concat with every low width that keeps one word.
            for &lw in widths.iter().filter(|&&x| x < w) {
                let step = Step::Concat {
                    dst: 4,
                    hi: 0,
                    lo: 1,
                    w,
                    low_w: lw,
                    hnw: 1,
                    lnw: 1,
                };
                let setup = move |l: usize, arena: &mut [u64]| {
                    arena.fill(0);
                    arena[0] = (ra.rotate_left(l as u32)) & top_word_mask(w - lw);
                    arena[1] = (!ra) & top_word_mask(lw);
                };
                check_step(&step, &setup, 4, 1);
                cases.push((step, Box::new(setup)));
            }
        }
    }
    check_runs(&cases);
}

/// Multi-word steps must take the `WIDE` fallback and still match
/// the slice kernels lane by lane.
#[test]
fn wide_steps_fall_back_and_match() {
    let step = Step::Bin {
        op: BinOp::Add,
        dst: 4,
        a: 0,
        b: 2,
        w: 100,
        aw: 100,
        anw: 2,
        bnw: 2,
    };
    let code = Code::lower(std::slice::from_ref(&step), false);
    assert_eq!((code.ops[0] & 0xff) as u8, op::WIDE);
    assert_eq!(code.wide.len(), 1);
    let astride = 16usize;
    let setup = |l: usize, arena: &mut [u64]| {
        arena.fill(0);
        arena[0] = u64::MAX - l as u64;
        arena[1] = (1 << 36) - 1;
        arena[2] = 1 + l as u64;
        arena[3] = 1;
    };
    let mut expect = vec![0u64; astride];
    // In place at one lane, through the scratch gather for a gang.
    for lanes in [1usize, 2] {
        let got = run_step_code(&[&code], lanes, astride, 0, &setup, VecIsa::Scalar);
        for (l, lane) in got.iter().enumerate() {
            setup(l, &mut expect);
            eval_op(&mut expect, &step);
            assert_eq!(&lane[4..6], &expect[4..6], "wide lane {l}/{lanes}");
        }
    }
}

/// Adjacent contiguous copies must coalesce into one block copy,
/// and a gap must break the run.
#[test]
fn copy_chains_fuse_peephole() {
    let steps = [
        Step::Input {
            dst: 0,
            src: 0,
            nw: 1,
        },
        Step::Input {
            dst: 1,
            src: 1,
            nw: 2,
        },
        Step::Input {
            dst: 3,
            src: 5,
            nw: 1,
        }, // src gap: new run
        Step::RegOwn {
            dst: 4,
            src: 0,
            nw: 1,
        },
        Step::RegOwn {
            dst: 5,
            src: 1,
            nw: 1,
        },
    ];
    let code = Code::lower(&steps, false);
    assert_eq!(
        code.disasm(),
        vec![
            "input dst=0 src=0 nw=3",
            "input dst=3 src=5 nw=1",
            "regown dst=4 src=0 nw=2",
        ]
    );
}

/// A tile buffer starts on a 128-byte boundary and owns its last
/// line pair whole, whatever its length.
#[test]
fn tile_bufs_own_whole_line_pairs() {
    for words in [0usize, 1, 15, 16, 17, 1000] {
        let b = TileBuf::zeroed(words);
        assert_eq!(b.len(), words);
        assert!(b.iter().all(|&w| w == 0));
        assert_eq!(b.as_ptr() as usize % 128, 0);
        let (lead, allocated) = b.placement();
        assert!(lead + words.next_multiple_of(16) <= allocated);
    }
}

/// `Code::validate` is what makes the hot loop's unchecked operand
/// reads sound, so it must reject a run that claims one element
/// more than the operand stream holds — at lowering time, never
/// reaching the loop.
#[test]
#[should_panic(expected = "operand stream out of sync")]
fn validate_rejects_a_run_longer_than_its_operands() {
    let and = |k: u32| Step::Bin {
        op: BinOp::And,
        dst: 8 + k,
        a: 2 * k,
        b: 2 * k + 1,
        w: 8,
        aw: 8,
        anw: 1,
        bnw: 1,
    };
    let mut code = Code::lower(&[and(0), and(1), and(2)], true);
    assert_eq!(code.ops, [(op::RUN | op::AND1) as u32 | 3 << 8]);
    code.validate();
    code.ops[0] += 1 << 8;
    code.validate();
}

/// Runs collapse only neighbours of the same run opcode, and only
/// when asked to: a gang lowering of the same steps keeps one
/// instruction per step.
#[test]
fn runs_form_across_widths_and_stop_at_other_opcodes() {
    let bin = |o: BinOp, k: u32, w: u32| Step::Bin {
        op: o,
        dst: 8 + k,
        a: 0,
        b: 1,
        w,
        aw: w,
        anw: 1,
        bnw: 1,
    };
    let steps = [
        bin(BinOp::Add, 0, 8),
        bin(BinOp::Add, 1, 32),
        bin(BinOp::Xor, 2, 32),
        bin(BinOp::Add, 3, 8),
        Step::RegOwn {
            dst: 12,
            src: 0,
            nw: 1,
        },
        Step::RegOwn {
            dst: 13,
            src: 4,
            nw: 1,
        },
    ];
    let runs = Code::lower(&steps, true);
    assert_eq!(
        runs.disasm(),
        [
            "add1 dst=8 a=0 b=1 w=8 aw=8",
            "+ add1 dst=9 a=0 b=1 w=32 aw=32",
            "xor1 dst=10 a=0 b=1 w=32 aw=32",
            "add1 dst=11 a=0 b=1 w=8 aw=8",
            "regown dst=12 src=0 nw=1",
            "regown dst=13 src=4 nw=1",
        ]
    );
    assert_eq!(runs.ops.len(), 5);
    let gang = Code::lower(&steps, false);
    assert_eq!(gang.ops.len(), 6);
    assert!(gang.ops.iter().all(|&o| !is_run((o & 0xff) as u8)));
    assert_eq!(runs.op_mix(), gang.op_mix());
}

/// The sampled circuit of the golden tests: fused scalar kernels,
/// coalescable input copies, an 80-bit cone for the wide fallback,
/// and two slices that are neighbours in node-id order.
fn golden_circuit() -> Circuit {
    let mut b = Builder::new("golden");
    let x = b.input("x", 32);
    let y = b.input("y", 32);
    let wi = b.input("wi", 80);
    let r = b.reg("r", 32, 1);
    let s = b.add(x, y);
    let m = b.mul(s, r.q());
    let t = b.add(m, y);
    let n = b.not(wi);
    let lo = b.slice(m, 7, 0);
    let hi = b.slice(t, 15, 8);
    b.output("lo", lo);
    b.output("hi", hi);
    b.output("wn", n);
    b.connect(r, m);
    b.finish().unwrap()
}

/// The golden circuit's one tile program, lowered for `lanes`.
fn golden_code(lanes: usize) -> Code {
    let c = golden_circuit();
    let comp = compile(&c, &PartitionConfig::with_tiles(1)).unwrap();
    let compiled = Compiled::new(&c, &comp.partition, lanes, false);
    assert_eq!(compiled.programs.len(), 1);
    compiled.programs[0].code.clone()
}

/// Golden lowering of a real compiled program. A gang's stream is
/// instruction for instruction what the lowering produced before
/// runs existed — node-id order, and the two neighbouring slices
/// stay two instructions; the one-lane stream is the opcode
/// schedule, with the slices collapsed into one run.
#[test]
fn golden_program_lowering() {
    let want = |lines: &[&str]| lines.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let gang = golden_code(4);
    assert_eq!(
        gang.disasm(),
        want(GOLDEN_GANG),
        "gang opcode stream changed"
    );
    assert!(gang.ops.iter().all(|&o| !is_run((o & 0xff) as u8)));
    let one = golden_code(1);
    assert_eq!(
        one.disasm(),
        want(GOLDEN_ONE),
        "one-lane opcode stream changed"
    );
    assert_eq!(one.ops.len(), 7, "eight operations, seven dispatches");
}

/// The expected streams for `golden_program_lowering` (update
/// deliberately when the lowering or node ordering changes).
const GOLDEN_GANG: &[&str] = &[
    "input dst=0 src=0 nw=4",
    "regown dst=4 src=0 nw=1",
    "add1 dst=5 a=0 b=1 w=32 aw=32",
    "mul1 dst=6 a=5 b=4 w=32 aw=32",
    "add1 dst=7 a=6 b=1 w=32 aw=32",
    "wide[0] un Not",
    "slice1 dst=10 a=6 lo=0 w=8",
    "slice1 dst=11 a=7 lo=8 w=8",
];
const GOLDEN_ONE: &[&str] = &[
    "input dst=0 src=0 nw=4",
    "regown dst=4 src=0 nw=1",
    "add1 dst=5 a=0 b=1 w=32 aw=32",
    "mul1 dst=6 a=5 b=4 w=32 aw=32",
    "add1 dst=7 a=6 b=1 w=32 aw=32",
    "slice1 dst=8 a=7 lo=8 w=8",
    "+ slice1 dst=9 a=6 lo=0 w=8",
    "wide[0] un Not",
];

/// Lowers one step with its operands seeded into the packed domain
/// and checks every lane of the result against [`eval_op`] on that
/// lane's strided block, asserting the strided compute opcodes were
/// bypassed entirely (only transposes and packed ops may appear).
fn check_packed_step(
    step: &Step,
    setup: &dyn Fn(usize, &mut [u64]),
    operands: &[u32],
    dst: usize,
    lanes: usize,
) {
    let plan = PackPlan {
        pw: lanes.div_ceil(64) as u32,
        preset_strided: operands.to_vec(),
        const_strided: Vec::new(),
        preset_packed: operands.to_vec(),
        need_strided: vec![dst as u32],
        need_packed: Vec::new(),
    };
    let lowered = Code::lower_packed(std::slice::from_ref(step), &plan, false);
    // The whole program is an input/preset cone here, so the
    // lowering may split it between the run-invariant prelude and
    // the per-cycle body; both streams must stay packed-only.
    for stream in [&lowered.prelude, &lowered.code] {
        for &opw in &stream.ops {
            let opc = (opw & 0xff) as u8;
            assert!(
                opc == op::PACK || opc == op::UNPACK || opc >= op::PNOT,
                "packed lowering of {step:?} used strided opcode {opc}"
            );
        }
    }
    let astride = 16usize;
    let mut expect = vec![0u64; astride];
    let got = run_step_code(
        &[&lowered.prelude, &lowered.code],
        lanes,
        astride,
        lowered.packed_words,
        setup,
        VecIsa::Scalar,
    );
    for (l, lane) in got.iter().enumerate() {
        setup(l, &mut expect);
        eval_op(&mut expect, step);
        assert_eq!(
            lane[dst], expect[dst],
            "lane {l}/{lanes} diverged from eval_op on {step:?}"
        );
    }
}

/// Every packed opcode and alias — the 12 packable binary ops, the
/// 1-bit `Ashr` identity, `Not`, the unary identities, and the
/// packed mux — must agree with the slice-kernel evaluator in every
/// lane, at lane counts straddling one, two, and three packed
/// words. Lane-varying operand bits make stride/transpose bugs
/// unable to cancel.
#[test]
fn gang_packed_opcodes_match_slice_kernels_exhaustively() {
    let bins = [
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::LtU,
        BinOp::LtS,
        BinOp::LeU,
        BinOp::LeS,
        BinOp::Ashr,
    ];
    // Four lane-bit patterns per operand pair so every truth-table
    // row appears in every word of the packed block.
    let pat = |l: usize, k: usize| -> u64 { ((l >> k) & 1) as u64 };
    for &lanes in &[1usize, 63, 64, 65, 130] {
        for opv in bins {
            let step = Step::Bin {
                op: opv,
                dst: 4,
                a: 0,
                b: 1,
                w: 1,
                aw: 1,
                anw: 1,
                bnw: 1,
            };
            let setup = move |l: usize, arena: &mut [u64]| {
                arena.fill(0);
                arena[0] = pat(l, 0);
                arena[1] = pat(l, 1);
            };
            check_packed_step(&step, &setup, &[0, 1], 4, lanes);
        }
        for opv in [
            UnOp::Not,
            UnOp::Neg,
            UnOp::RedAnd,
            UnOp::RedOr,
            UnOp::RedXor,
        ] {
            let step = Step::Un {
                op: opv,
                dst: 4,
                a: 0,
                w: 1,
                aw: 1,
                anw: 1,
            };
            let setup = move |l: usize, arena: &mut [u64]| {
                arena.fill(0);
                arena[0] = pat(l, 0) ^ pat(l, 2);
            };
            check_packed_step(&step, &setup, &[0], 4, lanes);
        }
        {
            let step = Step::Mux {
                dst: 4,
                sel: 2,
                t: 0,
                f: 1,
                nw: 1,
                w: 1,
            };
            let setup = move |l: usize, arena: &mut [u64]| {
                arena.fill(0);
                arena[0] = pat(l, 0);
                arena[1] = pat(l, 1);
                arena[2] = pat(l, 2);
            };
            check_packed_step(&step, &setup, &[0, 1, 2], 4, lanes);
        }
        // The 1-bit widening identities alias the packed slot.
        for signed in [false, true] {
            let step = if signed {
                Step::Sext {
                    dst: 4,
                    a: 0,
                    aw: 1,
                    w: 1,
                    anw: 1,
                }
            } else {
                Step::Zext {
                    dst: 4,
                    a: 0,
                    w: 1,
                    anw: 1,
                }
            };
            let setup = move |l: usize, arena: &mut [u64]| {
                arena.fill(0);
                arena[0] = pat(l, 1);
            };
            check_packed_step(&step, &setup, &[0], 4, lanes);
        }
        {
            let step = Step::Slice {
                dst: 4,
                a: 0,
                lo: 0,
                w: 1,
                anw: 1,
            };
            let setup = move |l: usize, arena: &mut [u64]| {
                arena.fill(0);
                arena[0] = pat(l, 2);
            };
            check_packed_step(&step, &setup, &[0], 4, lanes);
        }
    }
}

/// A mixed strided/packed program must insert the transpose
/// boundaries exactly where the domains meet, and nowhere else —
/// pinned by golden disassembly of a real compiled program with a
/// packed register, a packed input, a strided 1-bit source feeding
/// the packed domain (PACK), and a packed net feeding a wide op and
/// an output (UNPACK).
#[test]
fn gang_packed_golden_program_lowering() {
    let mut b = Builder::new("golden_packed");
    let x = b.input("x", 1); // packed input
    let y = b.input("y", 32); // strided input
    let r = b.reg("v", 1, 1); // packed register
    let n = b.and(x, r.q()); // packed AND
    let o = b.red_or(y); // strided 1-bit source
    let m = b.or(n, o); // PACK boundary on `o`, packed OR
    let z = b.mux(m, y, y); // wide mux: sel must UNPACK
    b.output("z", z);
    b.connect(r, m); // packed commit
    let c = b.finish().unwrap();
    let comp = compile(&c, &PartitionConfig::with_tiles(1)).unwrap();
    let compiled = Compiled::new(&c, &comp.partition, 96, true);
    assert_eq!(compiled.programs.len(), 1);
    let prog = &compiled.programs[0];
    let got = prog.prelude.disasm();
    let want: Vec<String> = GOLDEN_PACKED_PRELUDE
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(got, want, "golden packed prelude stream changed");
    let got = prog.code.disasm();
    let want: Vec<String> = GOLDEN_PACKED.iter().map(|s| s.to_string()).collect();
    assert_eq!(got, want, "golden packed opcode stream changed");
    // The packed register commit reads the packed slot of `m`.
    assert_eq!(prog.packed_commits.len(), 1);
    assert!(prog.commits.is_empty(), "1-bit reg must commit packed");
}

/// The run-invariant prelude for `gang_packed_golden_program_lowering`:
/// the input copies, the reduction over the strided input, and the
/// hoisted PACK of its result — everything derivable from inputs
/// alone, executed once per run.
const GOLDEN_PACKED_PRELUDE: &[&str] = &[
    "pinput pdst=0 src=96 pw=2",
    "input dst=1 src=0 nw=1",
    "redor1 dst=4 a=1 w=1 aw=32",
    "pack pdst=6 src=4",
];

/// The expected per-cycle stream for
/// `gang_packed_golden_program_lowering` at 96 lanes (`pw = 2`):
/// only the register-dependent chain remains. Update deliberately
/// when the lowering or node ordering changes.
const GOLDEN_PACKED: &[&str] = &[
    "pregown pdst=2 src=0 pw=2",
    "pand pdst=4 pa=0 pb=2 pw=2",
    "por pdst=8 pa=4 pb=6 pw=2",
    "unpack dst=5 psrc=8",
    "mux1 dst=6 sel=5 t=1 f=1",
];

/// The lane kernels must be bit-exact with the scalar slice
/// kernels at lane counts straddling every chunking boundary: one
/// lane, below a vector (3), exactly one vector (4), just past
/// (5, 7), two vectors (8), around the instantiation threshold
/// (15/16/17), and around the 64-lane packing threshold (63/64/65)
/// — on every ISA this host can run.
#[test]
fn vector_kernels_match_scalar_at_all_lane_counts() {
    let bins = [
        BinOp::And,
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Eq,
        BinOp::LtU,
        BinOp::LtS,
        BinOp::LeS,
        BinOp::Shl,
        BinOp::Lshr,
        BinOp::Ashr,
    ];
    for &lanes in &[1usize, 3, 4, 5, 7, 8, 15, 16, 17, 63, 64, 65] {
        for &w in &[1u32, 17, 32, 33, 64] {
            let m = top_word_mask(w);
            let ra = 0x5a5a_1234_9bcd_u64 | 1 << 63;
            let rb = 0x0f0f_f0f0_3c3c_u64 | 1 << 62;
            for opv in bins {
                let rw = match opv {
                    BinOp::Eq | BinOp::Ne | BinOp::LtU | BinOp::LtS | BinOp::LeU | BinOp::LeS => 1,
                    _ => w,
                };
                let step = Step::Bin {
                    op: opv,
                    dst: 4,
                    a: 0,
                    b: 1,
                    w: rw,
                    aw: w,
                    anw: 1,
                    bnw: 1,
                };
                let setup = move |l: usize, arena: &mut [u64]| {
                    arena.fill(0);
                    arena[0] = ra.rotate_left(l as u32) & m;
                    arena[1] = rb.rotate_right(l as u32) & m;
                };
                check_step_lanes(&step, &setup, 4, 1, lanes);
            }
            for opv in [UnOp::Not, UnOp::RedXor] {
                let rw = if opv == UnOp::Not { w } else { 1 };
                let step = Step::Un {
                    op: opv,
                    dst: 4,
                    a: 0,
                    w: rw,
                    aw: w,
                    anw: 1,
                };
                let setup = move |l: usize, arena: &mut [u64]| {
                    arena.fill(0);
                    arena[0] = ra.rotate_left(l as u32) & m;
                };
                check_step_lanes(&step, &setup, 4, 1, lanes);
            }
            let mux = Step::Mux {
                dst: 4,
                sel: 2,
                t: 0,
                f: 1,
                nw: 1,
                w,
            };
            let setup = move |l: usize, arena: &mut [u64]| {
                arena.fill(0);
                arena[0] = ra.rotate_left(l as u32) & m;
                arena[1] = !arena[0] & m;
                arena[2] = (l as u64) & 1;
            };
            check_step_lanes(&mux, &setup, 4, 1, lanes);
            let slice = Step::Slice {
                dst: 4,
                a: 0,
                lo: w / 2,
                w: (w - w / 2).min(7),
                anw: 1,
            };
            let sx = Step::Sext {
                dst: 4,
                a: 0,
                aw: w,
                w: 64,
                anw: 1,
            };
            let cat = Step::Concat {
                dst: 4,
                hi: 0,
                lo: 1,
                w: (w + 3).min(64),
                low_w: 3,
                hnw: 1,
                lnw: 1,
            };
            for step in [&slice, &sx] {
                let setup = move |l: usize, arena: &mut [u64]| {
                    arena.fill(0);
                    arena[0] = ra.rotate_left(l as u32) & m;
                };
                check_step_lanes(step, &setup, 4, 1, lanes);
            }
            let setup = move |l: usize, arena: &mut [u64]| {
                arena.fill(0);
                arena[0] = ra.rotate_left(l as u32) & top_word_mask((w + 3).min(64) - 3);
                arena[1] = (!ra).rotate_left(l as u32) & 0x7;
            };
            check_step_lanes(&cat, &setup, 4, 1, lanes);
        }
    }
}

/// Lowers a step pair, pins the fused disassembly, and cross-checks
/// the fused opcode's execution — both destinations, since the
/// fused forms still write the intermediate — against [`eval_op`]
/// applied step by step, at one lane and on a gang, on every ISA.
fn check_fused_pair(
    steps: &[Step],
    want: &[&str],
    setup: &dyn Fn(usize, &mut [u64]),
    dst: usize,
    nw: usize,
) {
    let code = Code::lower(steps, false);
    let wantv: Vec<String> = want.iter().map(|s| s.to_string()).collect();
    assert_eq!(code.disasm(), wantv, "fused lowering changed for {steps:?}");
    let astride = 16usize;
    let mut expect = vec![0u64; astride];
    for lanes in [1usize, 5] {
        for isa in test_isas() {
            let got = run_step_code(&[&code], lanes, astride, 0, setup, isa);
            for (l, lane) in got.iter().enumerate() {
                setup(l, &mut expect);
                for s in steps {
                    eval_op(&mut expect, s);
                }
                assert_eq!(
                    &lane[dst..dst + nw],
                    &expect[dst..dst + nw],
                    "lane {l}/{lanes} diverged on fused {steps:?} (isa={})",
                    isa.name()
                );
            }
        }
    }
}

/// Shift-then-mask chains — a shift whose result is immediately
/// zero-extended or low-sliced — must fuse into one
/// `SHLM1`/`LSHRM1` dispatch, execute both writes, and a slice at a
/// nonzero offset must *not* fuse.
#[test]
fn shift_mask_chains_fuse_and_match() {
    let shl = Step::Bin {
        op: BinOp::Shl,
        dst: 4,
        a: 0,
        b: 1,
        w: 32,
        aw: 32,
        anw: 1,
        bnw: 1,
    };
    let lshr = Step::Bin {
        op: BinOp::Lshr,
        dst: 4,
        a: 0,
        b: 1,
        w: 32,
        aw: 32,
        anw: 1,
        bnw: 1,
    };
    let setup = |l: usize, arena: &mut [u64]| {
        arena.fill(0);
        arena[0] = 0x9bcd_1234u64.rotate_left(l as u32) & 0xffff_ffff;
        arena[1] = (l as u64 * 7) % 37;
    };
    let zext = Step::Zext {
        dst: 5,
        a: 4,
        w: 40,
        anw: 1,
    };
    check_fused_pair(
        &[shl.clone(), zext],
        &["shlm1 t=4 a=0 b=1 d=5 w=32 aw=32 mw=40"],
        &setup,
        4,
        2,
    );
    let slice = Step::Slice {
        dst: 5,
        a: 4,
        lo: 0,
        w: 8,
        anw: 1,
    };
    check_fused_pair(
        &[lshr.clone(), slice.clone()],
        &["lshrm1 t=4 a=0 b=1 d=5 w=32 aw=32 mw=8"],
        &setup,
        4,
        2,
    );
    check_fused_pair(
        &[shl, slice],
        &["shlm1 t=4 a=0 b=1 d=5 w=32 aw=32 mw=8"],
        &setup,
        4,
        2,
    );
    // A nonzero slice offset needs the real slice kernel: no fusion.
    let off_slice = Step::Slice {
        dst: 5,
        a: 4,
        lo: 3,
        w: 8,
        anw: 1,
    };
    let code = Code::lower(&[lshr, off_slice], false);
    assert_eq!(code.ops.len(), 2, "lo != 0 must not fuse");
}

/// 2-to-1 mux chains — a second mux consuming the first's result on
/// either input — must fuse into one `MUX2` dispatch with the right
/// polarity, and execute both writes correctly for every
/// (sel1, sel2) combination across the lanes.
#[test]
fn mux_chains_fuse_and_match() {
    let m1 = Step::Mux {
        dst: 4,
        sel: 2,
        t: 0,
        f: 1,
        nw: 1,
        w: 9,
    };
    // Lanes 0..4 cover all four (sel1, sel2) truth-table rows. The
    // chain's other input sits at slot 5, *below* the fused dst 6 —
    // the bump-allocator invariant (operands precede destinations)
    // the gang sweep's arena split relies on.
    let setup = |l: usize, arena: &mut [u64]| {
        arena.fill(0);
        arena[0] = 0x111 + l as u64;
        arena[1] = 0x0aa ^ l as u64;
        arena[2] = l as u64 & 1;
        arena[3] = (l as u64 >> 1) & 1;
        arena[5] = 0x155 - l as u64;
    };
    // First's result on the *true* input: polarity 0.
    let m2t = Step::Mux {
        dst: 6,
        sel: 3,
        t: 4,
        f: 5,
        nw: 1,
        w: 9,
    };
    check_fused_pair(
        &[m1.clone(), m2t],
        &["mux2 t=4 sel1=2 a=0 b=1 d=6 sel2=3 c=5 pol=0"],
        &setup,
        4,
        3,
    );
    // First's result on the *false* input: polarity 1.
    let m2f = Step::Mux {
        dst: 6,
        sel: 3,
        t: 5,
        f: 4,
        nw: 1,
        w: 9,
    };
    check_fused_pair(
        &[m1.clone(), m2f],
        &["mux2 t=4 sel1=2 a=0 b=1 d=6 sel2=3 c=5 pol=1"],
        &setup,
        4,
        3,
    );
    // An unrelated second mux must not fuse.
    let m2x = Step::Mux {
        dst: 6,
        sel: 3,
        t: 5,
        f: 1,
        nw: 1,
        w: 9,
    };
    let code = Code::lower(&[m1, m2x], false);
    assert_eq!(code.ops.len(), 2, "independent muxes must not fuse");
}

/// The opcode/width histogram must pin exact counts on the golden
/// program — simulated operations, so a run counts per element and
/// both lowerings agree — while the pair histogram and the run
/// lengths see dispatched instructions.
#[test]
fn code_histogram_pins_golden_counts() {
    let want: Vec<((&str, u32), u64)> = vec![
        (("add1", 32), 2),
        (("input", 4), 1),
        (("mul1", 32), 1),
        (("regown", 1), 1),
        (("slice1", 8), 2),
        (("wide", 0), 1),
    ];
    for (lanes, dispatches, runs) in [(1, 7, vec![(1, 3), (2, 1)]), (4, 8, vec![(1, 5)])] {
        let code = golden_code(lanes);
        let mut h = BTreeMap::new();
        code.histogram(&mut h);
        assert_eq!(h.into_iter().collect::<Vec<_>>(), want, "lanes={lanes}");
        assert_eq!(code.op_mix(), (8, 0), "lanes={lanes}");
        let mut p = BTreeMap::new();
        code.pair_histogram(&mut p);
        assert_eq!(p[&("add1", "mul1")], 1);
        assert_eq!(
            p.values().sum::<u64>(),
            dispatches - 1,
            "N dispatches, N-1 pairs"
        );
        let mut r = BTreeMap::new();
        code.run_lengths(&mut r);
        assert_eq!(r.into_iter().collect::<Vec<_>>(), runs, "lanes={lanes}");
    }
}

/// Packed copies of the same source block must land once: later
/// reads alias the first slot (no second `pregown`), and a strided
/// source consumed twice in the packed domain transposes through
/// one hoisted `PACK`.
#[test]
fn packed_copies_and_packs_are_hoisted() {
    // Two packed register reads of the same register-file block,
    // plus an unrelated packed input copy.
    let steps = [
        Step::RegOwnP { dst: 0, src: 8 },
        Step::RegOwnP { dst: 1, src: 8 },
        Step::InputP { dst: 2, src: 40 },
    ];
    let plan = PackPlan {
        pw: 2,
        preset_strided: Vec::new(),
        const_strided: Vec::new(),
        preset_packed: Vec::new(),
        need_strided: Vec::new(),
        need_packed: Vec::new(),
    };
    let lowered = Code::lower_packed(&steps, &plan, false);
    // The input copy is run-invariant, so it hoists to the prelude
    // (and takes the first packed slot); the register copies stay
    // per-cycle, the second aliasing the first.
    assert_eq!(
        lowered.prelude.disasm(),
        vec!["pinput pdst=0 src=40 pw=2"],
        "input copy must hoist to the run-invariant prelude"
    );
    assert_eq!(
        lowered.code.disasm(),
        vec!["pregown pdst=2 src=8 pw=2"],
        "second copy of the same block must alias, not re-copy"
    );
    assert_eq!(lowered.pslot[&0], lowered.pslot[&1]);
    // A strided 1-bit net (0) feeding two packed consumers: one
    // hoisted PACK, reused by the second read. Net 1 seeds the
    // packed domain so the boolean chain computes packed at all.
    let and = Step::Bin {
        op: BinOp::And,
        dst: 4,
        a: 0,
        b: 1,
        w: 1,
        aw: 1,
        anw: 1,
        bnw: 1,
    };
    let or = Step::Bin {
        op: BinOp::Or,
        dst: 5,
        a: 0,
        b: 4,
        w: 1,
        aw: 1,
        anw: 1,
        bnw: 1,
    };
    let plan = PackPlan {
        pw: 2,
        preset_strided: vec![0, 1],
        const_strided: Vec::new(),
        preset_packed: vec![1],
        need_strided: vec![4, 5],
        need_packed: Vec::new(),
    };
    let lowered = Code::lower_packed(&[and, or], &plan, false);
    // Presets count as run-invariant, so this whole chain lands in
    // the prelude; the per-cycle body is empty.
    assert!(lowered.code.ops.is_empty(), "{:?}", lowered.code.disasm());
    let got = lowered.prelude.disasm();
    let packs: Vec<_> = got.iter().filter(|s| s.starts_with("pack ")).collect();
    assert_eq!(
        packs.len(),
        2,
        "one PACK per distinct strided source: {got:?}"
    );
    assert_eq!(
        packs.iter().filter(|s| s.ends_with("src=0")).count(),
        1,
        "net 0 is read twice but transposed once: {got:?}"
    );
}

/// Twenty-four workers, every one a neighbour of every other, on a
/// host with far fewer cores (so the park path runs): the epoch
/// words must hold them in lockstep. The count window proves that
/// after wait `r` all 24 round-`r` increments are in and that no
/// worker ever runs more than one round ahead of a straggler.
#[test]
fn epoch_sync_holds_24_all_to_all_workers_in_lockstep() {
    const N: usize = 24;
    const ROUNDS: usize = 500;
    let all_to_all: Vec<Vec<u32>> = (0..N as u32)
        .map(|w| (0..N as u32).filter(|&n| n != w).collect())
        .collect();
    let (spins, parks) = (Counter::new(), Counter::new());
    let sync = Arc::new(EpochSync::new(all_to_all, spins.clone(), parks.clone()));
    let count = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..N)
        .map(|who| {
            let sync = Arc::clone(&sync);
            let count = Arc::clone(&count);
            std::thread::spawn(move || {
                for r in 0..ROUNDS {
                    count.fetch_add(1, Ordering::SeqCst);
                    sync.publish_and_wait(who, r as u64 + 1);
                    let seen = count.load(Ordering::SeqCst);
                    // All N increments of round r are in; at most
                    // N-1 threads can have raced into round r+1.
                    assert!(
                        seen >= (r + 1) * N && seen <= (r + 1) * N + (N - 1),
                        "round {r}: count {seen} outside the lockstep window"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("epoch worker");
    }
    assert_eq!(count.load(Ordering::SeqCst), N * ROUNDS);
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if N > cores && std::env::var_os("PARENDI_SPIN_LIMIT").is_none() {
        assert_eq!(spins.get(), 0, "an oversubscribed pool never spins");
        assert!(parks.get() > 0, "an oversubscribed pool must park");
    }
}
