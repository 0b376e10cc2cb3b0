//! One source of truth for operator semantics at every width: the
//! `nw == 1` single-word kernels ([`un1`], [`bin1`], [`sext1`]) the
//! fused opcodes and the lane kernels of [`crate::simd`] dispatch into,
//! and [`eval_op`], the slice-kernel evaluator behind the multi-word
//! `WIDE` fallback — which the unit tests also use as the oracle for
//! every fused opcode.

use super::program::Step;
use parendi_rtl::bits::{top_word_mask, word, words_for};
use parendi_rtl::{BinOp, UnOp};

/// Evaluates a single-word (`width <= 64`) unary op on a normalized
/// word. Shared by the single-scenario fast path and the gang engine's
/// lane loops so the two can never disagree with the slice kernels.
#[inline(always)]
pub(crate) fn un1(op: UnOp, a: u64, w: u32, aw: u32) -> u64 {
    match op {
        UnOp::Not => !a & top_word_mask(w),
        UnOp::Neg => a.wrapping_neg() & top_word_mask(w),
        UnOp::RedAnd => (a == top_word_mask(aw)) as u64,
        UnOp::RedOr => (a != 0) as u64,
        UnOp::RedXor => (a.count_ones() & 1) as u64,
    }
}

/// Evaluates a single-word binary op (`width <= 64`, both operands one
/// word) on normalized words; `w` is the result width, `aw` the left
/// operand width (comparisons sign off it, shifts saturate against it —
/// exactly [`word::shift_amount`]'s contract).
#[inline(always)]
pub(crate) fn bin1(op: BinOp, a: u64, b: u64, w: u32, aw: u32) -> u64 {
    let m = top_word_mask(w);
    match op {
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Add => a.wrapping_add(b) & m,
        BinOp::Sub => a.wrapping_sub(b) & m,
        BinOp::Mul => a.wrapping_mul(b) & m,
        BinOp::Eq => (a == b) as u64,
        BinOp::Ne => (a != b) as u64,
        BinOp::LtU => (a < b) as u64,
        BinOp::LtS => lt_s1(a, b, aw) as u64,
        BinOp::LeU => (a <= b) as u64,
        BinOp::LeS => !lt_s1(b, a, aw) as u64,
        BinOp::Shl => {
            let sh = shift1(b, aw);
            if sh >= w {
                0
            } else {
                (a << sh) & m
            }
        }
        BinOp::Lshr => {
            let sh = shift1(b, aw);
            if sh >= w {
                0
            } else {
                a >> sh
            }
        }
        BinOp::Ashr => {
            let sh = shift1(b, aw);
            let sign = (a >> (w - 1)) & 1 == 1;
            if sh == 0 {
                a
            } else if sh >= w {
                if sign {
                    m
                } else {
                    0
                }
            } else {
                let v = a >> sh;
                if sign {
                    (v | (!0u64 << (w - sh))) & m
                } else {
                    v
                }
            }
        }
    }
}

/// Single-word signed `a < b` at `width` bits.
#[inline(always)]
fn lt_s1(a: u64, b: u64, width: u32) -> bool {
    let sa = (a >> (width - 1)) & 1 == 1;
    let sb = (b >> (width - 1)) & 1 == 1;
    if sa != sb {
        sa
    } else {
        a < b
    }
}

/// Single-word saturating shift amount (mirrors [`word::shift_amount`]).
#[inline(always)]
fn shift1(b: u64, width: u32) -> u32 {
    if b > u32::MAX as u64 {
        width
    } else {
        (b as u32).min(width)
    }
}

/// Evaluates a pure compiled op on the arena (operands strictly precede
/// the destination, so the arena splits into read/write halves).
///
/// Single-word operations (`nw == 1` results with single-word operands
/// — the overwhelmingly common case on real designs) skip the slice
/// kernels entirely and go through the scalar helpers [`un1`]/[`bin1`],
/// one plain `u64` store with no carry loops or bounds-checked slicing.
pub(crate) fn eval_op(arena: &mut [u64], step: &Step) {
    match *step {
        Step::Un {
            op,
            dst,
            a,
            w,
            aw,
            anw,
        } => {
            if anw == 1 && w <= 64 {
                arena[dst as usize] = un1(op, arena[a as usize], w, aw);
                return;
            }
            let (src, dst_tail) = arena.split_at_mut(dst as usize);
            let out = &mut dst_tail[..words_for(w)];
            let av = &src[a as usize..(a + anw) as usize];
            match op {
                UnOp::Not => word::not(out, av, w),
                UnOp::Neg => word::neg(out, av, w),
                UnOp::RedAnd => out[0] = word::red_and(av, aw) as u64,
                UnOp::RedOr => out[0] = word::red_or(av) as u64,
                UnOp::RedXor => out[0] = word::red_xor(av) as u64,
            }
        }
        Step::Bin {
            op,
            dst,
            a,
            b,
            w,
            aw,
            anw,
            bnw,
        } => {
            if anw == 1 && bnw == 1 && w <= 64 {
                arena[dst as usize] = bin1(op, arena[a as usize], arena[b as usize], w, aw);
                return;
            }
            let (src, dst_tail) = arena.split_at_mut(dst as usize);
            let out = &mut dst_tail[..words_for(w)];
            let av = &src[a as usize..(a + anw) as usize];
            let bv = &src[b as usize..(b + bnw) as usize];
            match op {
                BinOp::And => word::and(out, av, bv, w),
                BinOp::Or => word::or(out, av, bv, w),
                BinOp::Xor => word::xor(out, av, bv, w),
                BinOp::Add => word::add(out, av, bv, w),
                BinOp::Sub => word::sub(out, av, bv, w),
                BinOp::Mul => word::mul(out, av, bv, w),
                BinOp::Eq => out[0] = word::eq(av, bv) as u64,
                BinOp::Ne => out[0] = !word::eq(av, bv) as u64,
                BinOp::LtU => out[0] = word::lt_u(av, bv) as u64,
                BinOp::LtS => out[0] = word::lt_s(av, bv, aw) as u64,
                BinOp::LeU => out[0] = !word::lt_u(bv, av) as u64,
                BinOp::LeS => out[0] = !word::lt_s(bv, av, aw) as u64,
                BinOp::Shl | BinOp::Lshr | BinOp::Ashr => {
                    let sh = word::shift_amount(bv, aw);
                    match op {
                        BinOp::Shl => word::shl(out, av, sh, w),
                        BinOp::Lshr => word::lshr(out, av, sh, w),
                        _ => word::ashr(out, av, sh, w),
                    }
                }
            }
        }
        Step::Mux {
            dst, sel, t, f, nw, ..
        } => {
            if nw == 1 {
                let pick = if arena[sel as usize] & 1 == 1 { t } else { f };
                arena[dst as usize] = arena[pick as usize];
                return;
            }
            let (src, dst_tail) = arena.split_at_mut(dst as usize);
            let out = &mut dst_tail[..nw as usize];
            let s = src[sel as usize] & 1 == 1;
            let pick = if s { t } else { f };
            word::copy(out, &src[pick as usize..(pick + nw) as usize]);
        }
        Step::Slice { dst, a, lo, w, anw } => {
            if anw == 1 {
                arena[dst as usize] = (arena[a as usize] >> lo) & top_word_mask(w);
                return;
            }
            let (src, dst_tail) = arena.split_at_mut(dst as usize);
            let out = &mut dst_tail[..words_for(w)];
            word::slice(out, &src[a as usize..(a + anw) as usize], lo + w - 1, lo);
        }
        Step::Zext { dst, a, w, anw } => {
            if anw == 1 && w <= 64 {
                arena[dst as usize] = arena[a as usize] & top_word_mask(w);
                return;
            }
            let (src, dst_tail) = arena.split_at_mut(dst as usize);
            let out = &mut dst_tail[..words_for(w)];
            word::zext(out, &src[a as usize..(a + anw) as usize], w);
        }
        Step::Sext { dst, a, aw, w, anw } => {
            if anw == 1 && w <= 64 {
                arena[dst as usize] = sext1(arena[a as usize], aw, w);
                return;
            }
            let (src, dst_tail) = arena.split_at_mut(dst as usize);
            let out = &mut dst_tail[..words_for(w)];
            word::sext(out, &src[a as usize..(a + anw) as usize], aw, w);
        }
        Step::Concat {
            dst,
            hi,
            lo,
            w,
            low_w,
            hnw,
            lnw,
        } => {
            if hnw == 1 && lnw == 1 && w <= 64 {
                arena[dst as usize] =
                    (arena[lo as usize] | (arena[hi as usize] << low_w)) & top_word_mask(w);
                return;
            }
            let (src, dst_tail) = arena.split_at_mut(dst as usize);
            let hv = &src[hi as usize..(hi + hnw) as usize];
            let lv = &src[lo as usize..(lo + lnw) as usize];
            let out = &mut dst_tail[..words_for(w)];
            word::concat(out, hv, lv, low_w);
        }
        _ => unreachable!("sources handled by the caller"),
    }
}

/// Single-word sign extension from `aw` to `w` bits (`w <= 64`).
#[inline(always)]
pub(crate) fn sext1(a: u64, aw: u32, w: u32) -> u64 {
    let m = top_word_mask(w);
    if w > aw && (a >> (aw - 1)) & 1 == 1 {
        (a | (!0u64 << aw)) & m
    } else {
        a & m
    }
}
