//! The bytecode: one table of opcodes, and the flat struct-of-arrays
//! [`Code`] a tile program is lowered into.
//!
//! An instruction is one packed word `opcode | imm << 8` in
//! [`Code::ops`] plus a fixed count of `u32` operands in [`Code::args`].
//! The dominant `nw == 1` operations each have a **dedicated fused
//! opcode** whose widths ride in the 24-bit immediate, so the hot loop
//! dispatches once and lands in a plain `u64` kernel; the rare
//! multi-word ones fall back to [`op::WIDE`], an index into a side
//! table of the original [`Step`]s.
//!
//! One-lane code additionally carries **runs** ([`op::RUN`]): two or
//! more consecutive instructions of one fused single-word opcode
//! collapse into one whose immediate is the element count and whose
//! elements sit back to back in `args`, each the immediate word of the
//! instruction it replaces (none for `MUX1`) followed by its operands —
//! so a run mixes widths freely. Statistics ([`Code::op_mix`],
//! [`Code::histogram`], everything `ops_strided` feeds) count
//! *simulated operations*, a run once per element; only the pair
//! histogram and [`Code::run_lengths`] see dispatches.
//!
//! Everything that must agree about an opcode — its number, mnemonic,
//! operand count, disassembly and histogram width — is one row of
//! `opcodes!` below: a new opcode is that row, its `exec_code` arm and
//! its lowering site.

use crate::engine::program::Step;
use parendi_rtl::{BinOp, UnOp};
use std::collections::BTreeMap;

/// One row of the opcode table.
pub(crate) struct OpInfo {
    /// Stable mnemonic (disassembly, histograms).
    pub name: &'static str,
    /// Operand names in `args` order; their count is the opcode's
    /// operand-word count.
    pub args: &'static [&'static str],
    /// Immediate fields `(name, shift, bits)`, low field first; the
    /// last one takes whatever is left of the 24 bits.
    pub imm: &'static [(&'static str, u32, u32)],
}

/// Declares the opcode namespace [`op`] and the [`OPCODES`] table from
/// one list of rows `NAME = number: "mnemonic" [operands] {imm fields}`.
macro_rules! opcodes {
    ($( $(#[$doc:meta])* $name:ident = $val:literal : $mn:literal
        [$($arg:ident),*] {$($f:ident : $sh:literal, $bits:literal),*}; )*) => {
        /// Opcode namespace of the flat bytecode. The low 8 bits of a
        /// [`Code::ops`] word select the opcode; the upper 24 bits are
        /// an opcode-specific immediate (packed widths, word counts, or
        /// a side table index).
        pub(crate) mod op {
            $( $(#[$doc])* pub const $name: u8 = $val; )*
            /// Marks a **run** of the fused single-word opcode in the
            /// low bits (`NOT1..=CONCAT1`): `imm = n >= 2` elements,
            /// each laid out in `args` as that opcode's immediate word
            /// (none for `MUX1`) followed by its operands. One-lane
            /// code only (see `lower::form_runs`).
            pub const RUN: u8 = 0x40;
        }
        /// The table, indexed by opcode.
        pub(crate) const OPCODES: &[OpInfo] = &[ $( OpInfo {
            name: $mn,
            args: &[$(stringify!($arg)),*],
            imm: &[$((stringify!($f), $sh, $bits)),*],
        } ),* ];
        const _: () = {
            let mut next = 0;
            $( assert!($val == next, "rows are in opcode order"); next += 1; )*
            assert!(next <= op::RUN as usize, "opcodes stay below the run bit");
        };
    };
}

opcodes! {
    /// Block copy from the input buffer.
    COPY_INPUT = 0: "input" [dst, src] {nw: 0, 24};
    /// Block copy from this tile's register file.
    COPY_REG = 1: "regown" [dst, src] {nw: 0, 24};
    /// Block copy from an inbound mailbox (epoch `c`).
    COPY_MAIL = 2: "regmail" [dst, ch, src] {nw: 0, 24};
    /// Combinational array read.
    ARRAY_READ = 3: "arrayread" [dst, arr, idx, depth] {idx_w: 0, 8, nw: 8, 16};
    // Fused single-word unary kernels, one opcode per `UnOp`, in `UnOp`
    // order: `w` is the result width, `aw` the argument's.
    NOT1 = 4: "not1" [dst, a] {w: 0, 7, aw: 7, 17};
    NEG1 = 5: "neg1" [dst, a] {w: 0, 7, aw: 7, 17};
    REDAND1 = 6: "redand1" [dst, a] {w: 0, 7, aw: 7, 17};
    REDOR1 = 7: "redor1" [dst, a] {w: 0, 7, aw: 7, 17};
    REDXOR1 = 8: "redxor1" [dst, a] {w: 0, 7, aw: 7, 17};
    // Fused single-word binary kernels, one opcode per `BinOp`, in
    // `BinOp` order: `aw` is the left operand's width.
    AND1 = 9: "and1" [dst, a, b] {w: 0, 7, aw: 7, 17};
    OR1 = 10: "or1" [dst, a, b] {w: 0, 7, aw: 7, 17};
    XOR1 = 11: "xor1" [dst, a, b] {w: 0, 7, aw: 7, 17};
    ADD1 = 12: "add1" [dst, a, b] {w: 0, 7, aw: 7, 17};
    SUB1 = 13: "sub1" [dst, a, b] {w: 0, 7, aw: 7, 17};
    MUL1 = 14: "mul1" [dst, a, b] {w: 0, 7, aw: 7, 17};
    EQ1 = 15: "eq1" [dst, a, b] {w: 0, 7, aw: 7, 17};
    NE1 = 16: "ne1" [dst, a, b] {w: 0, 7, aw: 7, 17};
    LTU1 = 17: "ltu1" [dst, a, b] {w: 0, 7, aw: 7, 17};
    LTS1 = 18: "lts1" [dst, a, b] {w: 0, 7, aw: 7, 17};
    LEU1 = 19: "leu1" [dst, a, b] {w: 0, 7, aw: 7, 17};
    LES1 = 20: "les1" [dst, a, b] {w: 0, 7, aw: 7, 17};
    SHL1 = 21: "shl1" [dst, a, b] {w: 0, 7, aw: 7, 17};
    LSHR1 = 22: "lshr1" [dst, a, b] {w: 0, 7, aw: 7, 17};
    ASHR1 = 23: "ashr1" [dst, a, b] {w: 0, 7, aw: 7, 17};
    /// Single-word two-way select.
    MUX1 = 24: "mux1" [dst, sel, t, f] {};
    /// Single-word bit extraction `[lo + w - 1 : lo]`.
    SLICE1 = 25: "slice1" [dst, a] {lo: 0, 6, w: 6, 18};
    /// Single-word zero extension.
    ZEXT1 = 26: "zext1" [dst, a] {w: 0, 24};
    /// Single-word sign extension from `aw` to `w` bits.
    SEXT1 = 27: "sext1" [dst, a] {aw: 0, 7, w: 7, 17};
    /// Single-word concatenation, `lo` in the low `low_w` bits.
    CONCAT1 = 28: "concat1" [dst, hi, lo] {low_w: 0, 6, w: 6, 18};
    /// Multi-word fallback: `imm` indexes [`super::Code::wide`].
    WIDE = 29: "wide" [] {};
    // Packed 1-bit opcodes (packed mode only). A packed net occupies
    // `pw = ceil(lanes / 64)` words of the tile's packed scratch arena:
    // lane `l` is bit `l % 64` of word `l / 64`. Word-sweep opcodes
    // carry `pw` in the immediate and advance 64 lanes per `u64` op.
    /// Transpose boundary, strided → packed: gather bit 0 of each
    /// active lane's arena word into the packed block.
    PACK = 30: "pack" [pdst, src] {};
    /// Transpose boundary, packed → strided: scatter each active
    /// lane's bit into its arena word.
    UNPACK = 31: "unpack" [dst, psrc] {};
    /// Packed NOT.
    PNOT = 32: "pnot" [pdst, pa] {pw: 0, 24};
    /// Packed AND (also 1-bit `Mul`).
    PAND = 33: "pand" [pdst, pa, pb] {pw: 0, 24};
    /// Packed OR.
    POR = 34: "por" [pdst, pa, pb] {pw: 0, 24};
    /// Packed XOR (also 1-bit `Add`/`Sub`/`Ne`).
    PXOR = 35: "pxor" [pdst, pa, pb] {pw: 0, 24};
    /// Packed generic two-input boolean: bit `a + 2b` of the truth
    /// table `tt` is the function value (covers `Eq`, the comparisons).
    PBOOL = 36: "pbool" [pdst, pa, pb] {pw: 0, 16, tt: 16, 8};
    /// Packed 1-bit two-way select `(sel & t) | (!sel & f)`.
    PMUX = 37: "pmux" [pdst, psel, pt, pf] {pw: 0, 24};
    /// Packed copy of an own packed register (`src` absolute into the
    /// register file).
    PCOPY_REG = 38: "pregown" [pdst, src] {pw: 0, 24};
    /// Packed copy of a packed input (`src` absolute into the input
    /// buffer).
    PCOPY_INPUT = 39: "pinput" [pdst, src] {pw: 0, 24};
    /// Packed copy of a remote packed register, epoch `c` (`src`
    /// absolute into the channel buffer).
    PCOPY_MAIL = 40: "pregmail" [pdst, ch, src] {pw: 0, 24};
    // Pair fusions over the flat bytecode (`lower::fuse_adjacent`):
    // each writes *both* destinations of the pair it replaced, so no
    // liveness analysis is needed — a later reader of the intermediate
    // still finds it.
    /// Fused shift-left-then-mask (`SHL1` + `ZEXT1`/zero-based `SLICE1`
    /// of its result): `t = shl(a, b)` at width `w`, `d = t & mask(mw)`.
    SHLM1 = 41: "shlm1" [t, a, b, d] {w: 0, 7, aw: 7, 7, mw: 14, 10};
    /// Fused shift-right-then-mask, shaped like [`SHLM1`].
    LSHRM1 = 42: "lshrm1" [t, a, b, d] {w: 0, 7, aw: 7, 7, mw: 14, 10};
    /// Fused 2-to-1 mux chain (`MUX1` + `MUX1` consuming its result):
    /// `t = sel1 ? a : b`, then `d = sel2 ? t : c` (`pol` clear) or
    /// `d = sel2 ? c : t` (`pol` set — the first mux's value is the
    /// *false* side of the second).
    MUX2 = 43: "mux2" [t, sel1, a, b, d, sel2, c] {pol: 0, 1};
}

pub(crate) fn un1_opc(o: UnOp) -> u8 {
    match o {
        UnOp::Not => op::NOT1,
        UnOp::Neg => op::NEG1,
        UnOp::RedAnd => op::REDAND1,
        UnOp::RedOr => op::REDOR1,
        UnOp::RedXor => op::REDXOR1,
    }
}

pub(crate) fn bin1_opc(o: BinOp) -> u8 {
    match o {
        BinOp::And => op::AND1,
        BinOp::Or => op::OR1,
        BinOp::Xor => op::XOR1,
        BinOp::Add => op::ADD1,
        BinOp::Sub => op::SUB1,
        BinOp::Mul => op::MUL1,
        BinOp::Eq => op::EQ1,
        BinOp::Ne => op::NE1,
        BinOp::LtU => op::LTU1,
        BinOp::LtS => op::LTS1,
        BinOp::LeU => op::LEU1,
        BinOp::LeS => op::LES1,
        BinOp::Shl => op::SHL1,
        BinOp::Lshr => op::LSHR1,
        BinOp::Ashr => op::ASHR1,
    }
}

/// A compiled tile program as a flat, cache-compact bytecode: packed
/// opcode words plus a parallel operand stream (struct of arrays), with
/// multi-word operations spilled to a cold side table.
#[derive(Clone, Debug, Default)]
pub(crate) struct Code {
    /// `opcode | imm << 8`, one word per instruction.
    pub ops: Vec<u32>,
    /// Operand words, consumed in a fixed count per opcode.
    pub args: Vec<u32>,
    /// Side table for [`op::WIDE`] (multi-word) operations.
    pub wide: Vec<Step>,
}

/// Whether `opc` is a run ([`op::RUN`]) of the opcode in its low bits.
pub(crate) fn is_run(opc: u8) -> bool {
    opc & op::RUN != 0
}

/// Whether `opc` is one of the fused single-word kernels — the opcodes
/// runs are made of.
pub(crate) fn is_fused1(opc: u8) -> bool {
    (op::NOT1..=op::CONCAT1).contains(&opc)
}

/// Operand words each opcode consumes from [`Code::args`] — per
/// element for a run, whose elements carry their immediate in `args`.
pub(crate) fn argc(opc: u8) -> usize {
    let of = opc & !op::RUN;
    assert!(!is_run(opc) || is_fused1(of), "no runs of opcode {of}");
    OPCODES[of as usize].args.len() + (is_run(opc) && of != op::MUX1) as usize
}

/// Stable mnemonic of an opcode (disassembly, histograms); a run goes
/// by the name of the opcode it repeats.
pub(crate) fn opcode_name(opc: u8) -> &'static str {
    OPCODES[(opc & !op::RUN) as usize].name
}

/// The value of immediate field `(shift, bits)`.
fn imm_field(imm: u32, shift: u32, bits: u32) -> u32 {
    (imm >> shift) & ((1 << bits) - 1)
}

impl Code {
    pub(super) fn emit(&mut self, opc: u8, imm: u32, a: &[u32]) {
        debug_assert!(imm < 1 << 24, "immediate overflows the opcode word");
        debug_assert_eq!(a.len(), argc(opc), "arg count mismatch for opcode {opc}");
        self.ops.push(opc as u32 | (imm << 8));
        self.args.extend_from_slice(a);
    }

    /// Checks the structural invariant the unchecked operand reads of
    /// the hot loop rely on: walking `ops` with the fixed per-opcode
    /// operand counts — times the element count its immediate claims,
    /// for a run — consumes `args` exactly.
    pub(super) fn validate(&self) {
        let total: usize = self
            .ops
            .iter()
            .map(|&o| {
                let opc = (o & 0xff) as u8;
                let n = if is_run(opc) { (o >> 8) as usize } else { 1 };
                n * argc(opc)
            })
            .sum();
        assert_eq!(total, self.args.len(), "operand stream out of sync");
    }

    /// Visits every **simulated operation** — an instruction, or each
    /// element of a run under the opcode it repeats — as `(opcode,
    /// immediate, operands, leads)`; `leads` is false for the elements
    /// that ride on an earlier one's dispatch.
    pub(crate) fn for_each_op(&self, mut f: impl FnMut(u8, u32, &[u32], bool)) {
        let mut p = 0usize;
        for &opw in &self.ops {
            let (opc, imm) = ((opw & 0xff) as u8, opw >> 8);
            let n = argc(opc);
            if !is_run(opc) {
                f(opc, imm, &self.args[p..p + n], true);
                p += n;
                continue;
            }
            let of = opc & !op::RUN;
            for k in 0..imm {
                let elem = &self.args[p..p + n];
                let (imm, a) = elem.split_at(n - argc(of));
                f(of, imm.first().copied().unwrap_or(0), a, k == 0);
                p += n;
            }
        }
    }

    /// A stable disassembly, one line per simulated operation (golden
    /// tests, debug): the mnemonic, then every operand and immediate
    /// field of the opcode's table row as `name=value`. A run prints its
    /// elements as the instructions they replaced, `+ `-prefixed after
    /// the first.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn disasm(&self) -> Vec<String> {
        use std::fmt::Write;
        let mut out = Vec::new();
        self.for_each_op(|opc, imm, a, leads| {
            let info = &OPCODES[opc as usize];
            let mut line = String::from(if leads { "" } else { "+ " }) + info.name;
            if opc == op::WIDE {
                let tag = match &self.wide[imm as usize] {
                    Step::Un { op, .. } => format!("un {op:?}"),
                    Step::Bin { op, .. } => format!("bin {op:?}"),
                    Step::Mux { .. } => "mux".into(),
                    Step::Slice { .. } => "slice".into(),
                    Step::Zext { .. } => "zext".into(),
                    Step::Sext { .. } => "sext".into(),
                    Step::Concat { .. } => "concat".into(),
                    s => unreachable!("no wide copies: {s:?}"),
                };
                write!(line, "[{imm}] {tag}").unwrap();
            }
            for (name, v) in info.args.iter().zip(a) {
                write!(line, " {name}={v}").unwrap();
            }
            for &(name, shift, bits) in info.imm {
                let v = imm_field(imm, shift, bits);
                if name == "tt" {
                    write!(line, " tt={v:04b}").unwrap();
                } else {
                    write!(line, " {name}={v}").unwrap();
                }
            }
            out.push(line);
        });
        out
    }

    /// Accumulates an opcode/width frequency histogram into `h`, keyed
    /// `(mnemonic, width)`: the row's `w` field (the result width of a
    /// fused scalar opcode), else its `nw` field (the word count of a
    /// copy or array read), else 0 where width is meaningless (muxes,
    /// transposes, packed sweeps, `WIDE`). Fusion and SIMD-coverage
    /// decisions read these counts (`code_stats()`).
    pub(crate) fn histogram(&self, h: &mut BTreeMap<(&'static str, u32), u64>) {
        self.for_each_op(|opc, imm, _, _| {
            let info = &OPCODES[opc as usize];
            let field = |want| info.imm.iter().find(|f| f.0 == want);
            let w = field("w")
                .or_else(|| field("nw"))
                .map_or(0, |&(_, shift, bits)| imm_field(imm, shift, bits));
            *h.entry((info.name, w)).or_insert(0) += 1;
        });
    }

    /// Counts adjacent pairs of **dispatched** instructions (a run is
    /// one) — the raw data behind peephole fusion choices (a hot pair
    /// is a fusion candidate).
    pub(crate) fn pair_histogram(&self, h: &mut BTreeMap<(&'static str, &'static str), u64>) {
        for w in self.ops.windows(2) {
            let a = opcode_name((w[0] & 0xff) as u8);
            let b = opcode_name((w[1] & 0xff) as u8);
            *h.entry((a, b)).or_insert(0) += 1;
        }
    }

    /// Static `(strided, packed)` split of the simulated operations
    /// (runs expanded): the packed-domain opcodes are the contiguous
    /// `PACK..=PCOPY_MAIL` block (the later fused opcodes are strided).
    /// Feeds the `ops_strided`/`ops_packed` metrics and the fold's tile
    /// cost.
    pub(crate) fn op_mix(&self) -> (u64, u64) {
        let mut strided = 0u64;
        let mut packed = 0u64;
        for &opw in &self.ops {
            let opc = (opw & 0xff) as u8;
            if (op::PACK..=op::PCOPY_MAIL).contains(&opc) {
                packed += 1;
            } else if is_run(opc) {
                strided += (opw >> 8) as u64;
            } else {
                strided += 1;
            }
        }
        (strided, packed)
    }

    /// Accumulates the run-length histogram (`length -> instructions`)
    /// of the fused single-word instructions into `h`: a run under its
    /// element count, one left alone under 1.
    pub(crate) fn run_lengths(&self, h: &mut BTreeMap<u32, u64>) {
        for &opw in &self.ops {
            let opc = (opw & 0xff) as u8;
            if is_run(opc) {
                *h.entry(opw >> 8).or_insert(0) += 1;
            } else if is_fused1(opc) {
                *h.entry(1).or_insert(0) += 1;
            }
        }
    }
}
