//! Lane kernels for the gang engine's strided sweeps, written once.
//!
//! A gang keeps the `L` copies of one arena word contiguous
//! (`off * lanes + lane`), so a fused single-word opcode over a run of
//! lanes is a dense map over `&[u64]` slices. Each kernel here is one
//! portable loop over the scalar helpers the single-scenario engine
//! runs ([`bin1`]/[`un1`]/[`sext1`]) — bit-exact on every target by
//! construction, and a shape the compiler vectorizes on its own.
//!
//! On x86-64 that same loop is additionally instantiated inside a
//! `#[target_feature(enable = "avx2")]` wrapper, so the compiler may
//! use 256-bit vectors there; on aarch64 NEON is baseline and the plain
//! loop already is the vector code. Which instantiation a gang runs is
//! decided **once** per engine build ([`VecIsa::for_lanes`]) from the
//! CPU and the lane count and stored in the core's shared state, so the
//! hot loop never re-probes CPUID.
//!
//! Every kernel takes normalized operands (high bits above the operand
//! width already zero — the engine invariant) and produces normalized
//! results.

use crate::engine::scalar::{bin1, sext1, un1};
use parendi_rtl::bits::top_word_mask;
use parendi_rtl::{BinOp, UnOp};

/// Narrowest gang that runs the AVX2 instantiation. A
/// `#[target_feature]` function cannot inline into the opcode dispatch
/// arm, so every sweep through it pays a call; the inlined loop wins
/// until a sweep is long enough for the wider vectors to amortize it.
///
/// The since-deleted `gang_lanes --quick` sweep bin (PR 12), 1 thread,
/// aggregate lane-kcycles/s on sprng32 / sr3 / ca256 (2-core AVX2 host,
/// ranges over 2–3 runs).
/// *inline* is the portable loop, *avx2* the same loop behind the
/// wrapper; *intrinsics* and *lane-major* are the hand-written
/// `std::arch` kernels and the `[lane × words]` gang layout this module
/// and its callers used to carry.
///
/// | lanes | inline | avx2 | intrinsics | lane-major |
/// | --- | --- | --- | --- | --- |
/// | 2 | 822–865 / 53–54 / 269–282 | — | 579 / 30 / 181 | 850–883 / 55–57 / 260–272 |
/// | 3 | 1148–1204 / 73–74 / 389–408 | — | 821 / 42 / 260 | 983–1012 / 65–67 / 281–296 |
/// | 4 | 1445–1527 / 90–92 / 502–531 | 1306–1311 / 73 / 432–440 | 1247–1258 / 70 / 388–399 | 1058–1088 / 69–73 / 297–305 |
/// | 8 | 2454–2591 / 142–149 / 810–866 | 2411–2428 / 131–132 / 798–799 | 2325–2348 / 126–128 / 702–717 | 1252–1285 / 84–88 / 338–353 |
/// | 16 | 3915–4130 / 217–220 / 1280–1304 | 4184–4316 / 219–225 / 1222–1284 | — | 1421–1435 / 94–100 / 374–377 |
/// | 32 | 5400–5489 / 261–267 / 1603–1624 | 6523–6598 / 282–298 / 1725–1746 | — | — |
/// | 64 | 6815–7039 / 302–316 / 1828–1920 | 8027–8369 / 313–341 / 1928–2011 | 8457–8596 / 332–358 / 1882–2049 | 1430–1493 / 101–105 / 350–374 |
///
/// The inlined loop beats the wrapper up to 12 lanes (sr3 189–192 vs
/// 171–172 there), ties at 16, and loses 5–20 % at 32–64.
pub(crate) const AVX2_MIN_LANES: usize = 16;

/// Which instantiation of the lane kernels a gang runs, decided once at
/// engine build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum VecIsa {
    /// The portable loops, inlined into the opcode dispatch.
    Scalar,
    /// The same loops compiled with AVX2 enabled.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl VecIsa {
    /// The instantiation for a `lanes`-wide gang: [`VecIsa::Avx2`] when
    /// the CPU reports it and the gang reaches [`AVX2_MIN_LANES`].
    pub(crate) fn for_lanes(lanes: usize) -> Self {
        #[cfg(target_arch = "x86_64")]
        if lanes >= AVX2_MIN_LANES && std::arch::is_x86_feature_detected!("avx2") {
            return VecIsa::Avx2;
        }
        let _ = lanes;
        VecIsa::Scalar
    }

    /// Short name for bench output.
    pub(crate) fn name(self) -> &'static str {
        match self {
            VecIsa::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            VecIsa::Avx2 => "avx2",
        }
    }
}

/// Defines one lane kernel: `$body` is its only implementation, run
/// inline for [`VecIsa::Scalar`] and through an AVX2-enabled wrapper
/// for [`VecIsa::Avx2`].
macro_rules! lane_kernel {
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        $(#[$doc])*
        #[inline(always)]
        pub(crate) fn $name(isa: VecIsa, $($arg: $ty),*) {
            #[inline(always)]
            fn body($($arg: $ty),*) $body
            match isa {
                VecIsa::Scalar => body($($arg),*),
                #[cfg(target_arch = "x86_64")]
                VecIsa::Avx2 => {
                    #[target_feature(enable = "avx2")]
                    fn avx2($($arg: $ty),*) {
                        body($($arg),*)
                    }
                    // SAFETY: `VecIsa::Avx2` is only ever produced by
                    // `VecIsa::for_lanes` after
                    // `is_x86_feature_detected!("avx2")` returned true
                    // on this CPU.
                    unsafe { avx2($($arg),*) }
                }
            }
        }
    };
}

lane_kernel! {
    /// `d[i] = bin1(op, a[i], b[i], w, aw)` across one dense lane block.
    fn vbin(op: BinOp, d: &mut [u64], a: &[u64], b: &[u64], w: u32, aw: u32) {
        debug_assert!(d.len() == a.len() && d.len() == b.len());
        // Branch on the operator outside the sweep: each arm is then a
        // loop over one fixed scalar kernel.
        macro_rules! sweep {
            ($($v:ident)*) => {
                match op {
                    $(BinOp::$v => {
                        for ((d, &a), &b) in d.iter_mut().zip(a).zip(b) {
                            *d = bin1(BinOp::$v, a, b, w, aw);
                        }
                    })*
                }
            };
        }
        sweep!(And Or Xor Add Sub Mul Eq Ne LtU LtS LeU LeS Shl Lshr Ashr);
    }
}

lane_kernel! {
    /// `d[i] = un1(op, a[i], w, aw)` across one dense lane block.
    fn vun(op: UnOp, d: &mut [u64], a: &[u64], w: u32, aw: u32) {
        debug_assert_eq!(d.len(), a.len());
        macro_rules! sweep {
            ($($v:ident)*) => {
                match op {
                    $(UnOp::$v => {
                        for (d, &a) in d.iter_mut().zip(a) {
                            *d = un1(UnOp::$v, a, w, aw);
                        }
                    })*
                }
            };
        }
        sweep!(Not Neg RedAnd RedOr RedXor);
    }
}

lane_kernel! {
    /// `d[i] = if sel[i] & 1 == 1 { t[i] } else { f[i] }`.
    fn vmux(d: &mut [u64], sel: &[u64], t: &[u64], f: &[u64]) {
        debug_assert!(d.len() == sel.len() && d.len() == t.len() && d.len() == f.len());
        for (((d, &s), &t), &f) in d.iter_mut().zip(sel).zip(t).zip(f) {
            *d = if s & 1 == 1 { t } else { f };
        }
    }
}

lane_kernel! {
    /// `d[i] = (a[i] >> lo) & top_word_mask(w)`.
    fn vslice(d: &mut [u64], a: &[u64], lo: u32, w: u32) {
        debug_assert_eq!(d.len(), a.len());
        let m = top_word_mask(w);
        for (d, &a) in d.iter_mut().zip(a) {
            *d = (a >> lo) & m;
        }
    }
}

/// `d[i] = a[i] & top_word_mask(w)`.
#[inline(always)]
pub(crate) fn vzext(isa: VecIsa, d: &mut [u64], a: &[u64], w: u32) {
    // Zext of a normalized word is the slice at lo = 0.
    vslice(isa, d, a, 0, w);
}

lane_kernel! {
    /// `d[i] = sext1(a[i], aw, w)`.
    fn vsext(d: &mut [u64], a: &[u64], aw: u32, w: u32) {
        debug_assert_eq!(d.len(), a.len());
        for (d, &a) in d.iter_mut().zip(a) {
            *d = sext1(a, aw, w);
        }
    }
}

lane_kernel! {
    /// `d[i] = (lo_[i] | hi[i] << low_w) & top_word_mask(w)`.
    fn vconcat(d: &mut [u64], hi: &[u64], lo_: &[u64], low_w: u32, w: u32) {
        debug_assert!(d.len() == hi.len() && d.len() == lo_.len());
        let m = top_word_mask(w);
        for ((d, &h), &l) in d.iter_mut().zip(hi).zip(lo_) {
            *d = (l | (h << low_w)) & m;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Every instantiation this host can run: the inlined loops, plus
    /// the AVX2 wrappers when the CPU has them (regardless of the lane
    /// threshold — the tests drive the kernels directly).
    pub(crate) fn test_isas() -> Vec<VecIsa> {
        let mut isas = vec![VecIsa::Scalar];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            isas.push(VecIsa::Avx2);
        }
        isas
    }

    /// The instantiation follows the CPU and the lane threshold only.
    #[test]
    fn isa_follows_the_lane_threshold() {
        for lanes in [1, 2, AVX2_MIN_LANES - 1] {
            assert_eq!(VecIsa::for_lanes(lanes), VecIsa::Scalar, "{lanes} lanes");
        }
        let wide = *test_isas().last().expect("scalar is always present");
        for lanes in [AVX2_MIN_LANES, AVX2_MIN_LANES + 1, 64] {
            assert_eq!(VecIsa::for_lanes(lanes), wide, "{lanes} lanes");
        }
    }

    /// Every kernel, under every instantiation, must agree with the
    /// scalar helpers for all ops at awkward widths, operand corner
    /// values, and chunk lengths on both sides of every vector width
    /// and of the lane threshold.
    #[test]
    fn vector_kernels_match_scalar_helpers() {
        let widths = [1u32, 5, 31, 32, 33, 63, 64];
        let vals = [0u64, 1, 2, 0x5a5a_5a5a, u64::MAX, 1 << 31, (1 << 31) - 1];
        let lanes = [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33];
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
        for isa in test_isas() {
            for &n in &lanes {
                for &w in &widths {
                    let m = top_word_mask(w);
                    // Lane-varied operands from the corner values.
                    let av: Vec<u64> = (0..n)
                        .map(|l| vals[l % vals.len()].rotate_left(l as u32) & m)
                        .collect();
                    let bv: Vec<u64> = (0..n).map(|l| vals[(l + 3) % vals.len()] & m).collect();
                    let mut d = vec![0u64; n];
                    let mut exp = vec![0u64; n];
                    let tag = format!("w={w} n={n} isa={}", isa.name());
                    for op in bins {
                        let rw = match op {
                            BinOp::Eq
                            | BinOp::Ne
                            | BinOp::LtU
                            | BinOp::LtS
                            | BinOp::LeU
                            | BinOp::LeS => 1,
                            _ => w,
                        };
                        vbin(isa, op, &mut d, &av, &bv, rw, w);
                        for l in 0..n {
                            exp[l] = bin1(op, av[l], bv[l], rw, w);
                        }
                        assert_eq!(d, exp, "{op:?} {tag}");
                    }
                    for op in uns {
                        let rw = match op {
                            UnOp::Not | UnOp::Neg => w,
                            _ => 1,
                        };
                        vun(isa, op, &mut d, &av, rw, w);
                        for l in 0..n {
                            exp[l] = un1(op, av[l], rw, w);
                        }
                        assert_eq!(d, exp, "{op:?} {tag}");
                    }
                    // Mux on both selector polarities per lane.
                    let sel: Vec<u64> = (0..n).map(|l| (l & 1) as u64).collect();
                    vmux(isa, &mut d, &sel, &av, &bv);
                    for l in 0..n {
                        exp[l] = if sel[l] & 1 == 1 { av[l] } else { bv[l] };
                    }
                    assert_eq!(d, exp, "mux {tag}");
                    // Slices at assorted positions; zext/sext to wider.
                    for lo in [0, 1, w / 2, w - 1] {
                        let sw = (w - lo).clamp(1, 7);
                        vslice(isa, &mut d, &av, lo, sw);
                        let sm = top_word_mask(sw);
                        for l in 0..n {
                            exp[l] = (av[l] >> lo) & sm;
                        }
                        assert_eq!(d, exp, "slice lo={lo} {tag}");
                    }
                    for &wide in widths.iter().filter(|&&x| x >= w) {
                        vsext(isa, &mut d, &av, w, wide);
                        for l in 0..n {
                            exp[l] = sext1(av[l], w, wide);
                        }
                        assert_eq!(d, exp, "sext ->{wide} {tag}");
                        vzext(isa, &mut d, &av, w);
                        for l in 0..n {
                            exp[l] = av[l] & m;
                        }
                        assert_eq!(d, exp, "zext {tag}");
                    }
                    for lw in (1..w).step_by(7) {
                        let hv: Vec<u64> = av.iter().map(|&a| a & top_word_mask(w - lw)).collect();
                        let lv: Vec<u64> = bv.iter().map(|&b| b & top_word_mask(lw)).collect();
                        vconcat(isa, &mut d, &hv, &lv, lw, w);
                        for l in 0..n {
                            exp[l] = (lv[l] | (hv[l] << lw)) & m;
                        }
                        assert_eq!(d, exp, "concat lw={lw} {tag}");
                    }
                }
            }
        }
    }

    /// Shift counts far above the value width must saturate to zero
    /// under every instantiation, exactly like the scalar `shift1`
    /// contract.
    #[test]
    fn vector_shifts_saturate_on_huge_counts() {
        for isa in test_isas() {
            for &w in &[32u32, 64] {
                let m = top_word_mask(w);
                let av = vec![m, 1, m, 0x1234 & m];
                // Counts straddling w, 64, u32::MAX, and beyond (only
                // representable when the count width is 64).
                let bv: Vec<u64> = if w == 64 {
                    vec![w as u64 - 1, w as u64, u32::MAX as u64 + 1, u64::MAX]
                } else {
                    vec![w as u64 - 1, w as u64, w as u64 + 1, m]
                };
                let mut d = vec![0u64; 4];
                for op in [BinOp::Shl, BinOp::Lshr] {
                    vbin(isa, op, &mut d, &av, &bv, w, w);
                    for l in 0..4 {
                        assert_eq!(d[l], bin1(op, av[l], bv[l], w, w), "{op:?} w={w} l={l}");
                    }
                }
            }
        }
    }
}
