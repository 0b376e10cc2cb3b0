//! **The** hot loop: [`exec_code`] walks a tile's `ops` once per cycle
//! and every dispatched opcode sweeps its operation — at one lane, its
//! run of operations — across one dense lane range ([`DenseLanes`]:
//! a retired lane inside the range is recomputed as scratch, see
//! `exec::lanes`).
//!
//! Under `LaneSet::ONE` every arm is a plain scalar statement on the
//! single-lane buffers. For a gang, the range exposes two iteration
//! shapes: `for_each` (one call per lane — transposes, per-lane
//! gathers) and `for_each_chunk` (one call for the whole range); the
//! chunk of a fused single-word opcode is a dense
//! `&[u64]` map handed to the lane kernels of [`crate::simd`], whose
//! instantiation ([`VecIsa`]) is decided once at engine build from the
//! CPU and the lane count.

use super::bytecode::{is_run, op, Code};
use super::lanes::{DenseLanes, LaneTile};
use crate::engine::program::Step;
use crate::engine::scalar::{bin1, eval_op, sext1, un1};
use crate::engine::sync::Mailbox;
use crate::simd::{vbin, vconcat, vmux, vsext, vslice, vun, vzext, VecIsa};
use parendi_rtl::bits::{top_word_mask, word, words_for};
use parendi_rtl::{BinOp, UnOp};

/// Executes one tile's bytecode at cycle `c` for the dense lane range
/// `lanes`: **the** hot loop. One dispatch per instruction. Under
/// `OneLane` a fused single-word opcode is a loop of plain `u64` kernel
/// calls over its run and copies are block copies; for a gang the same
/// opcode hands the dense lane chunk to the [`crate::simd`] kernels,
/// copies move lane rows, and multi-word operations gather one lane at
/// a time through `scratch` into the slice kernels.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_code<L: DenseLanes>(
    code: &Code,
    tile: &mut LaneTile,
    inputs: &[u64],
    channels: &[Mailbox],
    read_parity: usize,
    lanes: L,
    isa: VecIsa,
) {
    // Every lane retired: nothing computes, and nothing may decode —
    // a retired one-lane engine arrives as `AllLanes(0)`, whose match
    // has no arms for the run words one-lane code carries.
    if !L::ONE && lanes.count() == 0 {
        return;
    }
    let LaneTile {
        arena,
        packed,
        reg_cur,
        arrays,
        arr_words,
        lanes: nl,
        scratch,
        ..
    } = tile;
    let nl = L::width(*nl);
    // Bind the buffers as plain slices once: every arm below indexes
    // them, and through `&mut Vec` the one-lane loop measured 4-5 %
    // slower on `single_compute`.
    let (arena, packed, reg_cur) = (&mut arena[..], &mut packed[..], &reg_cur[..]);
    let args = &code.args[..];
    let mut p = 0usize;
    // The operand cursor is validated once at lowering time
    // (`Code::validate`), so the hot loop reads the stream unchecked.
    macro_rules! arg {
        ($k:expr) => {
            // SAFETY: `Code::validate` proved that the per-opcode
            // operand counts — times the element count in the very
            // immediate a run arm loops on — sum to `args.len()`, and
            // every arm advances `p` by exactly that count per element,
            // so `p + k` (k below the count) is in bounds.
            unsafe { *args.get_unchecked(p + $k) }
        };
    }

    // A run arm: the `$elem` body — the same macro call the single arm
    // makes, its immediate read from the operand stream — once per
    // element.
    macro_rules! run {
        ($n:expr, $elem:expr) => {
            for _ in 0..$n {
                $elem
            }
        };
    }
    // The immediate word that leads a run element.
    macro_rules! lead {
        () => {{
            let imm = arg!(0) as usize;
            p += 1;
            imm
        }};
    }
    // Shared decode for the fused single-word kernels, one macro per
    // operand shape, each instantiated by a single arm and a run arm.
    // The gang branch splits the arena at the destination row: operands
    // strictly precede their destination (bump allocation), so every
    // source row lives in the left half and the borrow is always
    // well-formed.
    macro_rules! u1 {
        ($opv:expr, $imm:expr) => {{
            let imm = $imm;
            let (dst, a) = (arg!(0) as usize, arg!(1) as usize);
            p += 2;
            let (w, opw) = ((imm & 0x7f) as u32, (imm >> 7) as u32);
            if L::ONE {
                arena[dst] = un1($opv, arena[a], w, opw);
            } else {
                let (src, d) = arena.split_at_mut(dst * nl);
                lanes.for_each_chunk(|s, n| {
                    vun(isa, $opv, &mut d[s..s + n], &src[a * nl + s..][..n], w, opw);
                });
            }
        }};
    }
    macro_rules! b1 {
        ($opv:expr, $imm:expr) => {{
            let imm = $imm;
            let (dst, a, bb) = (arg!(0) as usize, arg!(1) as usize, arg!(2) as usize);
            p += 3;
            let (w, opw) = ((imm & 0x7f) as u32, (imm >> 7) as u32);
            if L::ONE {
                arena[dst] = bin1($opv, arena[a], arena[bb], w, opw);
            } else {
                let (src, d) = arena.split_at_mut(dst * nl);
                lanes.for_each_chunk(|s, n| {
                    vbin(
                        isa,
                        $opv,
                        &mut d[s..s + n],
                        &src[a * nl + s..][..n],
                        &src[bb * nl + s..][..n],
                        w,
                        opw,
                    );
                });
            }
        }};
    }
    macro_rules! mux1 {
        () => {{
            let (dst, sel, t, f) = (
                arg!(0) as usize,
                arg!(1) as usize,
                arg!(2) as usize,
                arg!(3) as usize,
            );
            p += 4;
            if L::ONE {
                let pick = if arena[sel] & 1 == 1 { t } else { f };
                arena[dst] = arena[pick];
            } else {
                let (src, d) = arena.split_at_mut(dst * nl);
                lanes.for_each_chunk(|s, n| {
                    vmux(
                        isa,
                        &mut d[s..s + n],
                        &src[sel * nl + s..][..n],
                        &src[t * nl + s..][..n],
                        &src[f * nl + s..][..n],
                    );
                });
            }
        }};
    }
    macro_rules! slice1 {
        ($imm:expr) => {{
            let imm = $imm;
            let (dst, a) = (arg!(0) as usize, arg!(1) as usize);
            p += 2;
            let lo = (imm & 0x3f) as u32;
            let w = (imm >> 6) as u32;
            if L::ONE {
                arena[dst] = (arena[a] >> lo) & top_word_mask(w);
            } else {
                let (src, d) = arena.split_at_mut(dst * nl);
                lanes.for_each_chunk(|s, n| {
                    vslice(isa, &mut d[s..s + n], &src[a * nl + s..][..n], lo, w);
                });
            }
        }};
    }
    macro_rules! zext1 {
        ($imm:expr) => {{
            let imm = $imm;
            let (dst, a) = (arg!(0) as usize, arg!(1) as usize);
            p += 2;
            if L::ONE {
                arena[dst] = arena[a] & top_word_mask(imm as u32);
            } else {
                let (src, d) = arena.split_at_mut(dst * nl);
                lanes.for_each_chunk(|s, n| {
                    vzext(isa, &mut d[s..s + n], &src[a * nl + s..][..n], imm as u32);
                });
            }
        }};
    }
    macro_rules! sext1 {
        ($imm:expr) => {{
            let imm = $imm;
            let (dst, a) = (arg!(0) as usize, arg!(1) as usize);
            p += 2;
            let (aw, w) = ((imm & 0x7f) as u32, (imm >> 7) as u32);
            if L::ONE {
                arena[dst] = sext1(arena[a], aw, w);
            } else {
                let (src, d) = arena.split_at_mut(dst * nl);
                lanes.for_each_chunk(|s, n| {
                    vsext(isa, &mut d[s..s + n], &src[a * nl + s..][..n], aw, w);
                });
            }
        }};
    }
    macro_rules! concat1 {
        ($imm:expr) => {{
            let imm = $imm;
            let (dst, hi, lo) = (arg!(0) as usize, arg!(1) as usize, arg!(2) as usize);
            p += 3;
            let low_w = (imm & 0x3f) as u32;
            let w = (imm >> 6) as u32;
            if L::ONE {
                arena[dst] = (arena[lo] | (arena[hi] << low_w)) & top_word_mask(w);
            } else {
                let (src, d) = arena.split_at_mut(dst * nl);
                lanes.for_each_chunk(|s, n| {
                    vconcat(
                        isa,
                        &mut d[s..s + n],
                        &src[hi * nl + s..][..n],
                        &src[lo * nl + s..][..n],
                        low_w,
                        w,
                    );
                });
            }
        }};
    }
    // `imm` words from `$src` at `src` into the arena at `dst`: one
    // block at one lane; for a gang, word-outer — each word's lane row
    // is contiguous in both buffers, so chunks copy as dense rows.
    macro_rules! copy_in {
        ($buf:expr, $dst:expr, $src:expr, $imm:expr) => {{
            let buf: &[u64] = &$buf[..];
            let (dst, src, imm) = ($dst, $src, $imm);
            if L::ONE {
                arena[dst..dst + imm].copy_from_slice(&buf[src..src + imm]);
            } else {
                for k in 0..imm {
                    let (db, sb) = ((dst + k) * nl, (src + k) * nl);
                    lanes.for_each_chunk(|s, n| {
                        arena[db + s..db + s + n].copy_from_slice(&buf[sb + s..sb + s + n]);
                    });
                }
            }
        }};
    }

    for &opw in &code.ops {
        let imm = (opw >> 8) as usize;
        match (opw & 0xff) as u8 {
            op::COPY_INPUT => {
                let (dst, src) = (arg!(0) as usize, arg!(1) as usize);
                p += 2;
                copy_in!(inputs, dst, src, imm);
            }
            op::COPY_REG => {
                let (dst, src) = (arg!(0) as usize, arg!(1) as usize);
                p += 2;
                copy_in!(reg_cur, dst, src, imm);
            }
            op::COPY_MAIL => {
                let (dst, ch, src) = (arg!(0) as usize, arg!(1) as usize, arg!(2) as usize);
                p += 3;
                // SAFETY: epoch discipline — no writer of `read_parity`
                // exists during the computation phase (see Mailbox).
                let buf = unsafe { channels[ch].read(read_parity) };
                copy_in!(buf, dst, src, imm);
            }
            op::ARRAY_READ => {
                let (dst, arr, idx, depth) = (
                    arg!(0) as usize,
                    arg!(1) as usize,
                    arg!(2) as usize,
                    arg!(3) as u64,
                );
                p += 4;
                let (idx_w, n) = (imm & 0xff, imm >> 8);
                let words = arr_words[arr];
                let a = &arrays[arr];
                if L::ONE {
                    let index = word::fold_index(&arena[idx..idx + idx_w]);
                    if index < depth {
                        let sb = index as usize * n;
                        arena[dst..dst + n].copy_from_slice(&a[sb..sb + n]);
                    } else {
                        arena[dst..dst + n].fill(0);
                    }
                } else {
                    // Each lane's array copy is one contiguous block;
                    // only the arena side is interleaved.
                    lanes.for_each(|l| {
                        let index = fold_index_at(arena, idx, idx_w, l, nl);
                        if index < depth {
                            let sb = l * words + index as usize * n;
                            for k in 0..n {
                                arena[(dst + k) * nl + l] = a[sb + k];
                            }
                        } else {
                            for k in 0..n {
                                arena[(dst + k) * nl + l] = 0;
                            }
                        }
                    });
                }
            }
            op::NOT1 => u1!(UnOp::Not, imm),
            op::NEG1 => u1!(UnOp::Neg, imm),
            op::REDAND1 => u1!(UnOp::RedAnd, imm),
            op::REDOR1 => u1!(UnOp::RedOr, imm),
            op::REDXOR1 => u1!(UnOp::RedXor, imm),
            op::AND1 => b1!(BinOp::And, imm),
            op::OR1 => b1!(BinOp::Or, imm),
            op::XOR1 => b1!(BinOp::Xor, imm),
            op::ADD1 => b1!(BinOp::Add, imm),
            op::SUB1 => b1!(BinOp::Sub, imm),
            op::MUL1 => b1!(BinOp::Mul, imm),
            op::EQ1 => b1!(BinOp::Eq, imm),
            op::NE1 => b1!(BinOp::Ne, imm),
            op::LTU1 => b1!(BinOp::LtU, imm),
            op::LTS1 => b1!(BinOp::LtS, imm),
            op::LEU1 => b1!(BinOp::LeU, imm),
            op::LES1 => b1!(BinOp::LeS, imm),
            op::SHL1 => b1!(BinOp::Shl, imm),
            op::LSHR1 => b1!(BinOp::Lshr, imm),
            op::ASHR1 => b1!(BinOp::Ashr, imm),
            op::MUX1 => mux1!(),
            op::SLICE1 => slice1!(imm),
            op::ZEXT1 => zext1!(imm),
            op::SEXT1 => sext1!(imm),
            op::CONCAT1 => concat1!(imm),
            op::WIDE => {
                let step = &code.wide[imm];
                if L::ONE {
                    eval_op(arena, step);
                } else {
                    // Gather the operand words of one lane into the
                    // contiguous scratch block (at their original
                    // offsets), run the slice kernels, scatter the
                    // destination back. Wide steps are rare enough
                    // (see the histogram) that the transpose is cheap.
                    let (ranges, nr, (doff, dn)) = wide_ranges(step);
                    lanes.for_each(|l| {
                        for &(off, w) in &ranges[..nr] {
                            let (off, w) = (off as usize, w as usize);
                            for k in 0..w {
                                scratch[off + k] = arena[(off + k) * nl + l];
                            }
                        }
                        eval_op(scratch, step);
                        let (doff, dn) = (doff as usize, dn as usize);
                        for k in 0..dn {
                            arena[(doff + k) * nl + l] = scratch[doff + k];
                        }
                    });
                }
            }
            op::PACK => {
                // Transpose strided → packed: gather each swept lane's
                // bit. Bits accumulate in a register and land with one
                // masked store per 64-lane word (lane sets iterate
                // ascending), not one read-modify-write per lane.
                // Lanes past the range keep stale bits — all retired,
                // so the commit mask never lets one through.
                let (pdst, src) = (arg!(0) as usize, arg!(1) as usize);
                p += 2;
                let (mut wi, mut acc, mut got) = (usize::MAX, 0u64, 0u64);
                lanes.for_each(|l| {
                    let i = l / 64;
                    if i != wi {
                        if wi != usize::MAX {
                            let w = &mut packed[pdst + wi];
                            *w = (*w & !got) | acc;
                        }
                        (wi, acc, got) = (i, 0, 0);
                    }
                    acc |= (arena[src * nl + l] & 1) << (l % 64);
                    got |= 1u64 << (l % 64);
                });
                if wi != usize::MAX {
                    let w = &mut packed[pdst + wi];
                    *w = (*w & !got) | acc;
                }
            }
            op::UNPACK => {
                // Transpose packed → strided: scatter each swept
                // lane's bit into its arena word (one packed-word load
                // per 64 lanes).
                let (dst, psrc) = (arg!(0) as usize, arg!(1) as usize);
                p += 2;
                let (mut wi, mut cur) = (usize::MAX, 0u64);
                lanes.for_each(|l| {
                    let i = l / 64;
                    if i != wi {
                        (wi, cur) = (i, packed[psrc + i]);
                    }
                    arena[dst * nl + l] = (cur >> (l % 64)) & 1;
                });
            }
            op::PNOT => {
                let (pdst, pa) = (arg!(0) as usize, arg!(1) as usize);
                p += 2;
                for i in 0..imm {
                    packed[pdst + i] = !packed[pa + i];
                }
            }
            op::PAND => {
                let (pdst, pa, pb) = (arg!(0) as usize, arg!(1) as usize, arg!(2) as usize);
                p += 3;
                for i in 0..imm {
                    packed[pdst + i] = packed[pa + i] & packed[pb + i];
                }
            }
            op::POR => {
                let (pdst, pa, pb) = (arg!(0) as usize, arg!(1) as usize, arg!(2) as usize);
                p += 3;
                for i in 0..imm {
                    packed[pdst + i] = packed[pa + i] | packed[pb + i];
                }
            }
            op::PXOR => {
                let (pdst, pa, pb) = (arg!(0) as usize, arg!(1) as usize, arg!(2) as usize);
                p += 3;
                for i in 0..imm {
                    packed[pdst + i] = packed[pa + i] ^ packed[pb + i];
                }
            }
            op::PBOOL => {
                let (pdst, pa, pb) = (arg!(0) as usize, arg!(1) as usize, arg!(2) as usize);
                p += 3;
                let (pwn, tt) = (imm & 0xffff, (imm >> 16) as u64);
                // Minterm masks, hoisted out of the word sweep.
                let m0 = 0u64.wrapping_sub(tt & 1);
                let m1 = 0u64.wrapping_sub((tt >> 1) & 1);
                let m2 = 0u64.wrapping_sub((tt >> 2) & 1);
                let m3 = 0u64.wrapping_sub((tt >> 3) & 1);
                for i in 0..pwn {
                    let a = packed[pa + i];
                    let b = packed[pb + i];
                    packed[pdst + i] =
                        (m0 & !a & !b) | (m1 & a & !b) | (m2 & !a & b) | (m3 & a & b);
                }
            }
            op::PMUX => {
                let (pdst, ps, pt, pf) = (
                    arg!(0) as usize,
                    arg!(1) as usize,
                    arg!(2) as usize,
                    arg!(3) as usize,
                );
                p += 4;
                for i in 0..imm {
                    let s = packed[ps + i];
                    packed[pdst + i] = (s & packed[pt + i]) | (!s & packed[pf + i]);
                }
            }
            op::PCOPY_REG => {
                let (pdst, src) = (arg!(0) as usize, arg!(1) as usize);
                p += 2;
                packed[pdst..pdst + imm].copy_from_slice(&reg_cur[src..src + imm]);
            }
            op::PCOPY_INPUT => {
                let (pdst, src) = (arg!(0) as usize, arg!(1) as usize);
                p += 2;
                packed[pdst..pdst + imm].copy_from_slice(&inputs[src..src + imm]);
            }
            op::PCOPY_MAIL => {
                let (pdst, ch, src) = (arg!(0) as usize, arg!(1) as usize, arg!(2) as usize);
                p += 3;
                // SAFETY: epoch discipline — no writer of `read_parity`
                // exists during the computation phase (see Mailbox).
                let buf = unsafe { channels[ch].read(read_parity) };
                packed[pdst..pdst + imm].copy_from_slice(&buf[src..src + imm]);
            }
            // The pair-fused opcodes are gang code only — the one-lane
            // lowering forms runs instead — so their arms have no scalar
            // fast path: at one lane the sweep is one unit chunk.
            opc @ (op::SHLM1 | op::LSHRM1) => {
                let opv = if opc == op::SHLM1 {
                    BinOp::Shl
                } else {
                    BinOp::Lshr
                };
                let (t, a, bs, d) = (
                    arg!(0) as usize,
                    arg!(1) as usize,
                    arg!(2) as usize,
                    arg!(3) as usize,
                );
                p += 4;
                let (w, sw) = ((imm & 0x7f) as u32, ((imm >> 7) & 0x7f) as u32);
                let mw = (imm >> 14) as u32;
                {
                    let (src, dt) = arena.split_at_mut(t * nl);
                    lanes.for_each_chunk(|s, n| {
                        vbin(
                            isa,
                            opv,
                            &mut dt[s..s + n],
                            &src[a * nl + s..][..n],
                            &src[bs * nl + s..][..n],
                            w,
                            sw,
                        );
                    });
                }
                let (src, dd) = arena.split_at_mut(d * nl);
                lanes.for_each_chunk(|s, n| {
                    vzext(isa, &mut dd[s..s + n], &src[t * nl + s..][..n], mw);
                });
            }
            op::MUX2 => {
                let (t, sel1, a, bb, d, sel2, cc) = (
                    arg!(0) as usize,
                    arg!(1) as usize,
                    arg!(2) as usize,
                    arg!(3) as usize,
                    arg!(4) as usize,
                    arg!(5) as usize,
                    arg!(6) as usize,
                );
                p += 7;
                let pol = imm & 1;
                {
                    let (src, dt) = arena.split_at_mut(t * nl);
                    lanes.for_each_chunk(|s, n| {
                        vmux(
                            isa,
                            &mut dt[s..s + n],
                            &src[sel1 * nl + s..][..n],
                            &src[a * nl + s..][..n],
                            &src[bb * nl + s..][..n],
                        );
                    });
                }
                // The second select's sides, by polarity: `pol = 0`
                // keeps `t` on the true side, `pol = 1` flips it.
                let (pt, pf) = if pol == 0 { (t, cc) } else { (cc, t) };
                let (src, dd) = arena.split_at_mut(d * nl);
                lanes.for_each_chunk(|s, n| {
                    vmux(
                        isa,
                        &mut dd[s..s + n],
                        &src[sel2 * nl + s..][..n],
                        &src[pt * nl + s..][..n],
                        &src[pf * nl + s..][..n],
                    );
                });
            }
            // Runs form in one-lane code only, and the guard is a
            // constant: a gang's dispatch has no run arms at all. With
            // run arms beside the single arms in one match, the 25 arms
            // a gang never takes cost its 8-lane sweep 7 % (sr5-64
            // 42.1 k → 39.0 k lane-cycles/s, lr3-32 90.5 k → 84.4 k);
            // with *every* fused instruction a run of `n >= 1` gangs
            // paid for the fatter operand stream (`serve_mixed`
            // `op_ms_p50` +3.5 %, 0 of 6 pairs won; `compile_large`
            // `peak_rss_mb` +3.1 %). One lane reaches a run arm through
            // the guard at no cost `single_compute` can see (31.1 k
            // either way).
            run if L::ONE && is_run(run) => match run & !op::RUN {
                op::NOT1 => run!(imm, u1!(UnOp::Not, lead!())),
                op::NEG1 => run!(imm, u1!(UnOp::Neg, lead!())),
                op::REDAND1 => run!(imm, u1!(UnOp::RedAnd, lead!())),
                op::REDOR1 => run!(imm, u1!(UnOp::RedOr, lead!())),
                op::REDXOR1 => run!(imm, u1!(UnOp::RedXor, lead!())),
                op::AND1 => run!(imm, b1!(BinOp::And, lead!())),
                op::OR1 => run!(imm, b1!(BinOp::Or, lead!())),
                op::XOR1 => run!(imm, b1!(BinOp::Xor, lead!())),
                op::ADD1 => run!(imm, b1!(BinOp::Add, lead!())),
                op::SUB1 => run!(imm, b1!(BinOp::Sub, lead!())),
                op::MUL1 => run!(imm, b1!(BinOp::Mul, lead!())),
                op::EQ1 => run!(imm, b1!(BinOp::Eq, lead!())),
                op::NE1 => run!(imm, b1!(BinOp::Ne, lead!())),
                op::LTU1 => run!(imm, b1!(BinOp::LtU, lead!())),
                op::LTS1 => run!(imm, b1!(BinOp::LtS, lead!())),
                op::LEU1 => run!(imm, b1!(BinOp::LeU, lead!())),
                op::LES1 => run!(imm, b1!(BinOp::LeS, lead!())),
                op::SHL1 => run!(imm, b1!(BinOp::Shl, lead!())),
                op::LSHR1 => run!(imm, b1!(BinOp::Lshr, lead!())),
                op::ASHR1 => run!(imm, b1!(BinOp::Ashr, lead!())),
                op::MUX1 => run!(imm, mux1!()),
                op::SLICE1 => run!(imm, slice1!(lead!())),
                op::ZEXT1 => run!(imm, zext1!(lead!())),
                op::SEXT1 => run!(imm, sext1!(lead!())),
                op::CONCAT1 => run!(imm, concat1!(lead!())),
                other => unreachable!("no runs of opcode {other}"),
            },
            other => unreachable!("unknown opcode {other}"),
        }
    }
    debug_assert_eq!(p, args.len(), "operand cursor out of sync");
}

/// Folds a multi-word index operand of lane `l` out of a strided buffer
/// shared by `nl` lanes — [`word::fold_index`] through the
/// `off * nl + l` indexing rule.
#[inline(always)]
pub(super) fn fold_index_at(buf: &[u64], off: usize, w: usize, l: usize, nl: usize) -> u64 {
    let v0 = buf[off * nl + l];
    let mut hi = 0u64;
    for k in 1..w {
        hi |= buf[(off + k) * nl + l];
    }
    if hi != 0 || v0 > u32::MAX as u64 {
        u64::MAX
    } else {
        v0
    }
}

/// Operand and destination word ranges of a `WIDE` step, for the gang
/// gather/scatter: up to three `(offset, words)` operand ranges (with
/// the live count) plus the destination range.
fn wide_ranges(step: &Step) -> ([(u32, u32); 3], usize, (u32, u32)) {
    let mut r = [(0u32, 0u32); 3];
    let (n, dst) = match *step {
        Step::Un { dst, a, w, anw, .. } => {
            r[0] = (a, anw);
            (1, (dst, words_for(w) as u32))
        }
        Step::Bin {
            dst,
            a,
            b,
            w,
            anw,
            bnw,
            ..
        } => {
            r[0] = (a, anw);
            r[1] = (b, bnw);
            (2, (dst, words_for(w) as u32))
        }
        Step::Mux {
            dst, sel, t, f, nw, ..
        } => {
            r[0] = (sel, 1);
            r[1] = (t, nw);
            r[2] = (f, nw);
            (3, (dst, nw))
        }
        Step::Slice { dst, a, w, anw, .. } => {
            r[0] = (a, anw);
            (1, (dst, words_for(w) as u32))
        }
        Step::Zext { dst, a, w, anw } => {
            r[0] = (a, anw);
            (1, (dst, words_for(w) as u32))
        }
        Step::Sext { dst, a, w, anw, .. } => {
            r[0] = (a, anw);
            (1, (dst, words_for(w) as u32))
        }
        Step::Concat {
            dst,
            hi,
            lo,
            w,
            hnw,
            lnw,
            ..
        } => {
            r[0] = (hi, hnw);
            r[1] = (lo, lnw);
            (2, (dst, words_for(w) as u32))
        }
        // Copies and array reads never lower to WIDE.
        _ => unreachable!("non-compute step in the wide table"),
    };
    (r, n, dst)
}
