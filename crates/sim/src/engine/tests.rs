//! Unit tests of the compile-time half: the fold, the one-lane
//! schedule, and the single-word kernels against the slice kernels.

use super::frontend::{schedule, Compiled, UNSET};
use super::scalar::{bin1, sext1, un1};
use super::sync::worker_groups;
use crate::exec::bytecode::is_fused1;
use parendi_rtl::bits::{top_word_mask, word, Bits};
use parendi_rtl::{BinOp, Circuit, NodeKind, UnOp};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fold's structural contract on random chip shapes, tile
    /// costs and pool widths: every tile is placed exactly once; a
    /// worker's tiles are one contiguous run of one chip's tile
    /// sequence, a chip's workers are consecutive (pool at least as
    /// wide as the machine) or a chip's tiles all share one worker
    /// (narrower pool); and a run never outweighs its ideal share
    /// by more than the heaviest tile of its chip.
    #[test]
    fn fold_places_every_tile_once_chip_major(
        seed in 0u64..1_000_000,
        chips in 1usize..6,
        workers in 1usize..12,
    ) {
        let mut x = seed * 2 + 1;
        let mut rnd = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        // Interleaved chip ids: a chip's tiles need not be adjacent.
        let mut tile_chip: Vec<u32> = (0..chips as u32).collect();
        for _ in 0..rnd(40) {
            tile_chip.push(rnd(chips as u64) as u32);
        }
        let cost: Vec<u64> = tile_chip.iter().map(|_| 1 + rnd(50) * rnd(4)).collect();
        let workers = workers.min(tile_chip.len());
        let groups = worker_groups(&tile_chip, &cost, workers);
        prop_assert_eq!(groups.len(), workers);
        let mut placed: Vec<usize> = groups.iter().flatten().copied().collect();
        placed.sort_unstable();
        prop_assert_eq!(placed, (0..tile_chip.len()).collect::<Vec<_>>());

        let by_chip = |c: u32| -> Vec<usize> {
            (0..tile_chip.len()).filter(|&t| tile_chip[t] == c).collect()
        };
        if workers < chips {
            for c in 0..chips as u32 {
                let owners = groups.iter().filter(|g| g.iter().any(|&t| tile_chip[t] == c));
                prop_assert_eq!(owners.count(), 1, "chip {} split across workers", c);
            }
        } else {
            let mut last_chip = None;
            for g in groups.iter().filter(|g| !g.is_empty()) {
                let c = tile_chip[g[0]];
                prop_assert!(g.iter().all(|&t| tile_chip[t] == c), "worker spans chips");
                prop_assert!(last_chip <= Some(c), "a chip's workers are consecutive");
                last_chip = Some(c);
                let seq = by_chip(c);
                let at = seq.iter().position(|&t| t == g[0]).unwrap();
                prop_assert_eq!(&seq[at..at + g.len()], &g[..], "run is not contiguous");
            }
            for c in 0..chips as u32 {
                let seq = by_chip(c);
                let total: u64 = seq.iter().map(|&t| cost[t]).sum();
                let heaviest = seq.iter().map(|&t| cost[t]).max().unwrap();
                let runs: Vec<u64> = groups
                    .iter()
                    .filter(|g| g.first().is_some_and(|&t| tile_chip[t] == c))
                    .map(|g| g.iter().map(|&t| cost[t]).sum())
                    .collect();
                let ideal = total.div_ceil(runs.len() as u64);
                for &r in &runs {
                    prop_assert!(
                        r <= ideal + heaviest,
                        "run {} over ideal {} + heaviest {}", r, ideal, heaviest
                    );
                }
            }
        }
    }
}

/// A random soup of registers, an input, a constant, an array and
/// `ops` operations over mixed widths (one wider than a word), every
/// register fed back from it — the schedule property test's circuits.
fn soup(seed: u64, ops: usize) -> Circuit {
    let mut x = seed * 2 + 1;
    let mut rnd = move |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    let widths = [1u32, 8, 32, 64, 96];
    let mut b = parendi_rtl::Builder::new("soup");
    let regs: Vec<_> = (0..5)
        .map(|i| b.reg(format!("r{i}"), widths[i], rnd(251)))
        .collect();
    let mem = b.array("mem", 32, 32);
    let mut pool: Vec<_> = regs.iter().map(|r| r.q()).collect();
    pool.push(b.input("in", 32));
    pool.push(b.lit(8, rnd(251)));
    let fit = |b: &mut parendi_rtl::Builder, s: parendi_rtl::Signal, w: u32| match s.width() {
        sw if sw < w => b.zext(s, w),
        sw if sw > w => b.slice(s, w - 1, 0),
        _ => s,
    };
    for _ in 0..ops {
        let w = widths[rnd(5) as usize];
        let a = fit(&mut b, pool[rnd(pool.len() as u64) as usize], w);
        let c = fit(&mut b, pool[rnd(pool.len() as u64) as usize], w);
        let v = match rnd(8) {
            0 => b.add(a, c),
            1 => b.and(a, c),
            2 => b.xor(a, c),
            3 => b.mul(a, c),
            4 => {
                let sel = b.bit(c, 0);
                b.mux(sel, a, c)
            }
            5 => {
                let lt = b.lt_s(a, c);
                b.zext(lt, w)
            }
            6 => {
                let idx = fit(&mut b, a, 5);
                let rd = b.array_read(mem, idx);
                fit(&mut b, rd, w)
            }
            _ => {
                let r = b.red_xor(a);
                b.sext(r, w)
            }
        };
        pool.push(v);
    }
    for r in &regs {
        let v = pool[pool.len() - 1 - rnd(ops as u64 / 2) as usize];
        let v = fit(&mut b, v, r.q().width());
        b.connect(*r, v);
    }
    b.finish().expect("soup validates")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The one-lane schedule on random circuits at 1–8 tiles: the
    /// order is a permutation of the tile's nodes, every operand
    /// comes before its user, the scratch comes back clean, and a
    /// second call returns the same order (compiles are cached by
    /// `CompileKey` and compared across processes, so nothing may
    /// depend on hash order). Through the whole front-end, twice:
    /// the same instruction stream, every fused operand's arena
    /// offset below its destination's — what the gang sweep's
    /// `split_at_mut` and the packed invariance pass lean on.
    #[test]
    fn schedule_is_a_deterministic_topological_permutation(
        seed in 0u64..1_000_000,
        tiles in 1u32..9,
    ) {
        use parendi_core::{compile, PartitionConfig};
        let c = soup(seed, 40 + (seed % 90) as usize);
        let comp = compile(&c, &PartitionConfig::with_tiles(tiles)).unwrap();
        let key = |k: &NodeKind| match *k {
            NodeKind::Input(i) => i.0 as u64,
            NodeKind::RegRead(r) => 1 << 62 | r.0 as u64,
            _ => unreachable!("only reads are keyed"),
        };
        let mut rank_of = vec![UNSET; c.nodes.len()];
        for p in &comp.partition.processes {
            let order = schedule(&c, &p.nodes, &mut rank_of, key);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, p.nodes.iter().collect::<Vec<_>>());
            let at: HashMap<u32, usize> =
                order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
            for &n in &order {
                c.nodes[n as usize].for_each_operand(|o| assert!(at[&o.0] < at[&n]));
            }
            prop_assert!(rank_of.iter().all(|&r| r == UNSET));
            prop_assert_eq!(schedule(&c, &p.nodes, &mut rank_of, key), order);
        }
        let first = Compiled::new(&c, &comp.partition, 1, false);
        let again = Compiled::new(&c, &comp.partition, 1, false);
        for (a, b) in first.programs.iter().zip(&again.programs) {
            prop_assert_eq!(a.code.disasm(), b.code.disasm());
            a.code.for_each_op(|opc, _, args, _| {
                if is_fused1(opc) {
                    assert!(args[1..].iter().all(|&o| o < args[0]), "{:?}", args);
                }
            });
        }
    }
}

/// The scalar fast paths must agree with the slice kernels on every
/// op, width, and operand pattern — they are the same semantics, so
/// exhaustively cross-check them on awkward widths.
#[test]
fn single_word_helpers_match_kernels() {
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
    ];
    for &w in &widths {
        let m = top_word_mask(w);
        for &ra in &vals {
            for &rb in &vals {
                let (a, b) = (ra & m, rb & m);
                for op in bins {
                    let mut out = [0u64];
                    let rw = match op {
                        BinOp::Eq
                        | BinOp::Ne
                        | BinOp::LtU
                        | BinOp::LtS
                        | BinOp::LeU
                        | BinOp::LeS => 1,
                        _ => w,
                    };
                    match op {
                        BinOp::And => word::and(&mut out, &[a], &[b], rw),
                        BinOp::Or => word::or(&mut out, &[a], &[b], rw),
                        BinOp::Xor => word::xor(&mut out, &[a], &[b], rw),
                        BinOp::Add => word::add(&mut out, &[a], &[b], rw),
                        BinOp::Sub => word::sub(&mut out, &[a], &[b], rw),
                        BinOp::Mul => word::mul(&mut out, &[a], &[b], rw),
                        BinOp::Eq => out[0] = word::eq(&[a], &[b]) as u64,
                        BinOp::Ne => out[0] = !word::eq(&[a], &[b]) as u64,
                        BinOp::LtU => out[0] = word::lt_u(&[a], &[b]) as u64,
                        BinOp::LtS => out[0] = word::lt_s(&[a], &[b], w) as u64,
                        BinOp::LeU => out[0] = !word::lt_u(&[b], &[a]) as u64,
                        BinOp::LeS => out[0] = !word::lt_s(&[b], &[a], w) as u64,
                        _ => unreachable!(),
                    }
                    assert_eq!(
                        bin1(op, a, b, rw, w),
                        out[0],
                        "{op:?} w={w} a={a:#x} b={b:#x}"
                    );
                }
                // Shifts: shift operand width varies independently.
                for op in [BinOp::Shl, BinOp::Lshr, BinOp::Ashr] {
                    let mut out = [0u64];
                    let sh = word::shift_amount(&[b], w);
                    match op {
                        BinOp::Shl => word::shl(&mut out, &[a], sh, w),
                        BinOp::Lshr => word::lshr(&mut out, &[a], sh, w),
                        _ => word::ashr(&mut out, &[a], sh, w),
                    }
                    assert_eq!(bin1(op, a, b, w, w), out[0], "{op:?} w={w} a={a:#x} sh={b}");
                }
            }
            let a = ra & m;
            for op in [
                UnOp::Not,
                UnOp::Neg,
                UnOp::RedAnd,
                UnOp::RedOr,
                UnOp::RedXor,
            ] {
                let mut out = [0u64];
                let rw = match op {
                    UnOp::Not | UnOp::Neg => w,
                    _ => 1,
                };
                match op {
                    UnOp::Not => word::not(&mut out, &[a], w),
                    UnOp::Neg => word::neg(&mut out, &[a], w),
                    UnOp::RedAnd => out[0] = word::red_and(&[a], w) as u64,
                    UnOp::RedOr => out[0] = word::red_or(&[a]) as u64,
                    UnOp::RedXor => out[0] = word::red_xor(&[a]) as u64,
                }
                assert_eq!(un1(op, a, rw, w), out[0], "{op:?} w={w} a={a:#x}");
            }
            // Sign extension to every wider (still single-word) width.
            for &wide in widths.iter().filter(|&&x| x >= w) {
                let mut out = [0u64];
                word::sext(&mut out, &[a], w, wide);
                assert_eq!(sext1(a, w, wide), out[0], "sext {w}->{wide} a={a:#x}");
            }
        }
    }
    // Bits-level spot check for a signed corner.
    let a = Bits::from_u64(8, 0x80);
    let b = Bits::from_u64(8, 0x7f);
    assert_eq!(bin1(BinOp::LtS, 0x80, 0x7f, 1, 8), a.lt_s(&b) as u64);
}
