//! The unified lane-strided execution core: **one hot loop** shared by
//! both engines, running a fused, cache-compact bytecode.
//!
//! [`crate::bsp::BspSimulator`] (one scenario, many tiles) and
//! [`crate::gang::GangSimulator`] (many scenarios in lockstep) are thin
//! facades over the [`EngineCore`] in this module. There is exactly one
//! worker loop, one set of phase functions, and one unsafe
//! epoch/aliasing discipline — the single-scenario engine is the
//! `lanes == 1` instantiation of the lane-strided core, monomorphized
//! through [`OneLane`] so the lane arithmetic folds away.
//!
//! # Bytecode
//!
//! Per-tile step programs are lowered at compile time from the
//! [`Step`] IR into a flat struct-of-arrays [`Code`]: a stream of
//! packed opcode words (`opcode | imm << 8`) in [`Code::ops`] and a
//! parallel stream of `u32` operands in [`Code::args`], consumed in a
//! fixed count per opcode. The dominant `nw == 1` single-word
//! operations lower to **dedicated fused opcodes** (one per scalar
//! kernel: `ADD1`, `XOR1`, `MUX1`, `SLICE1`, …) whose operand widths
//! ride in the 24-bit immediate, so the hot loop dispatches once and
//! lands directly in a plain `u64` kernel — no second `match` on the
//! operator, no width checks, no slice bounds. Adjacent register,
//! input, and mailbox reads with contiguous source and destination are
//! peephole-fused into single block copies at lowering time. The rare
//! multi-word operations fall back to a [`WIDE`](op::WIDE) opcode
//! indexing a side table of the original [`Step`]s, evaluated through
//! the proven slice kernels of [`eval_op`].
//!
//! One-lane code additionally carries **runs** ([`op::RUN`]): a
//! maximal sequence of two or more instructions of the same fused
//! single-word opcode (`NOT1..=CONCAT1`) collapses into one instruction
//! whose immediate is the element count `n` and whose `n` elements sit
//! back to back in `args`, each the immediate word of the instruction
//! it replaces (none for `MUX1`) followed by that instruction's
//! operands — so a run mixes widths freely. Its arm is a loop of the
//! very macro call the single arm makes, reading the immediate from the
//! operand stream: one dispatch, `n` operations, each kernel body still
//! written once. [`Code::validate`] multiplies the per-element operand
//! count by the claimed length, which keeps the loop's unchecked
//! operand reads provable. Runs are formed by the lowering's last pass
//! ([`form_runs`]) *instead of* the adjacent-pair fusion
//! ([`fuse_adjacent`]) that gang code gets: the pairs that pass looks
//! for are a producer next to its consumer, which the schedule below
//! pulls apart, and on `single_compute` a fused pair breaking a run
//! cost 5–8 % (`work_per_s` 29.4 k with both passes, 31.0 k with runs
//! alone). Statistics — [`Code::op_mix`], [`Code::histogram`],
//! everything `ops_strided` feeds — count *simulated operations*, a
//! run once per element; only the pair histogram and
//! [`Code::run_lengths`] see dispatches.
//!
//! Gang code has no runs, and the shape of that rule was measured. With
//! *every* fused instruction a run of `n >= 1` (one arm per opcode, the
//! immediate always in `args`) one lane ran as fast, but gangs paid for
//! the fatter operand stream and the changed arms: `serve_mixed`
//! `op_ms_p50` +3.5 % and `work_per_s_t1` −2.4 % (0 of 6 pairs won),
//! `compile_large` `peak_rss_mb` +3.1 %. With run arms beside the single
//! arms in one match, the 25 arms a gang never takes still cost its
//! 8-lane sweep 7 % (sr5-64 42.1 k → 39.0 k lane-cycles/s, lr3-32
//! 90.5 k → 84.4 k). So the run arms sit behind a guard on
//! [`LaneSet::ONE`] — a constant: a gang's dispatch is the match it was
//! before runs existed, and one lane reaches a run arm through the
//! guard at no cost `single_compute` can see (31.1 k either way).
//!
//! # Schedule
//!
//! A tile's program is a DAG in **single assignment**: every arena
//! slot is bump-allocated for one node, written exactly once per cycle
//! by that node's instruction, and read only by the node's users. Any
//! topological order of the nodes therefore computes the same values,
//! and because slots are handed out in *emission* order, every order
//! keeps "an operand's offset is below its destination's" — the
//! invariant the gang sweeps' `split_at_mut` and the packed lowering's
//! invariance pass lean on. The front-end uses that freedom at **one
//! lane** only: `engine::schedule` orders the nodes by opcode class
//! (constants, then reads sorted by source so more of them coalesce
//! into block copies, then greedily the class with the most ready
//! nodes), which is what gives [`form_runs`] something to collapse —
//! node-id order leaves a third of adjacent pairs on sr7 sharing an
//! opcode; scheduled, sr7 @ 64 tiles dispatches 3.5 k times for 30.4 k
//! operations (mean run 10.8).
//!
//! The selector is the lane count the constructor already has, the
//! seam [`LaneSet::ONE`] forks every arm on, not a knob: one lane is
//! dispatch-bound, a gang amortises each dispatch over its lanes and
//! is bandwidth-bound. Measured on the 2-core reference host:
//! at one lane, schedule plus runs take `single_compute` from 20.0 k to
//! 31 k cycles/s; with the same schedule applied to the 64-lane
//! `gang_lanes` gangs (a tile's arena is ~300 KB there, node-id order
//! is producer-near-consumer order, and the opcode order throws that
//! locality away) `work_per_s_t1` fell 6.5 % in both of two pairs
//! (1.66 M → 1.55 M); the issue's prototype read −6…−10 % on
//! sprng32-16 and −5…−8 % on sr4-16 at 64 lanes, and at 8 lanes
//! +8…12 % run rate but `serve_mixed` flat and `compile_large` −18 %.
//! So a gang keeps node-id order and forms no runs — its instruction
//! stream is the one the lowering produced before runs existed — and
//! the benchmark has workloads on both
//! sides of the choice (`single_*` against `gang_lanes`,
//! `serve_mixed`, `compile_large`).
//!
//! # Packed 1-bit lanes
//!
//! In packed mode ([`EngineCore::new`] with `packed = true`) 1-bit
//! values are additionally **bit-packed across lanes**: a packed net is
//! a `pw = ceil(lanes / 64)`-word block where lane `l` is bit `l % 64`
//! of word `l / 64` (lane-major words beyond 64 lanes). Packed nets
//! live in a per-tile scratch arena ([`LaneTile::packed`]); the packed
//! opcodes (`PAND`/`POR`/`PXOR`/`PNOT`/`PBOOL`/`PMUX`) are plain word
//! sweeps over `pw` words — one `u64` op advances 64 scenarios — and
//! the packed copies (`PCOPY_REG`/`PCOPY_INPUT`/`PCOPY_MAIL`) move
//! whole packed register/input/mailbox blocks without touching the
//! strided layout.
//!
//! The two domains meet only at explicit transpose boundaries inserted
//! by the lowering: [`PACK`](op::PACK) gathers one bit per active lane
//! out of the strided arena (a packed net's birth from a strided
//! source), [`UNPACK`](op::UNPACK) scatters them back (a packed net
//! feeding a wide op, a port record, or an output). Lowering policy:
//! packed registers, inputs, and mailbox reads seed the packed domain,
//! and any 1-bit boolean op with at least one packed operand stays
//! packed — 1-bit control chains transpose at most twice, at their
//! strided edges. Early exit composes with packing through the **retire
//! mask**: packed commits and mailbox sends blend new bits through the
//! complement of the retired-lane mask, so a retired lane's packed
//! registers and mailbox epochs freeze exactly like its strided state
//! (packed *scratch* values may keep changing, but are never read back
//! for a retired lane).
//!
//! # Strided memory layout: one rule
//!
//! The multi-bit ("strided") state — arena, register file, input
//! buffer, and the strided mailbox sections — has one layout: word
//! `off` of lane `l` lives at `off * lanes + l`. The `lanes` copies of
//! one word are contiguous, so a per-opcode lane sweep is a dense loop
//! over `&[u64]` rows ([`crate::simd`]) and per-lane I/O strides by
//! `lanes`. At one lane the rule is just `off`: the single-scenario
//! engine's buffers are the plain single-lane layout.
//!
//! What the rule does not touch: the **packed** 1-bit domain (packed
//! blocks are already lane-transposed) and the per-lane **array**
//! copies (lane `l`'s copy is the contiguous block
//! `[l * words, (l + 1) * words)`, so one element's words stay
//! together — array traffic is index-scattered anyway). The packed
//! tails of the register file / input buffer / mailboxes keep their
//! absolute offsets. `PACK` reads one bit per lane out of the strided
//! arena and `UNPACK` scatters back.
//!
//! # The hot loop
//!
//! [`exec_code`] is the one loop both engines spend their cycles in:
//! it walks `ops` once per tile per cycle, and every dispatched opcode
//! sweeps its operation — at one lane, its run of operations — across
//! all (active) lanes. Early-exited lanes
//! ([`EngineCore::finish_lane`]) are dropped from the sweep at dispatch
//! granularity by swapping the [`AllLanes`] lane set for a [`LaneList`]
//! of the survivors — finished lanes' registers, arrays, and mailbox
//! slots are simply never touched again, freezing their state.
//!
//! The loop is monomorphized per [`LaneSet`], three ways. Under
//! [`OneLane`] every opcode is a plain scalar statement on the
//! single-lane buffers. Under [`AllLanes`] and [`LaneList`] lane sets
//! expose two iteration shapes: [`LaneSet::for_each`] (one call per
//! lane — transposes, per-lane gathers) and
//! [`LaneSet::for_each_chunk`] (one call per maximal run of consecutive
//! lanes). A chunk of a fused single-word opcode is a dense `&[u64]`
//! map handed to the lane kernels of [`crate::simd`]; which
//! instantiation of those kernels runs is decided **once** at engine
//! build from the CPU and the lane count ([`crate::simd::VecIsa`], kept
//! in the shared state).
//!
//! # Flush/compute overlap
//!
//! The off-chip flush models an asynchronous gateway link: as soon as a
//! tile's compute finishes, its cross-chip words are copied into the
//! epoch-`c+1` aggregate mailbox (legal under the double-buffer epoch
//! discipline) and the *modeled* link occupancy is scheduled as a
//! deadline; the worker keeps computing its remaining tiles and only
//! spins out the residual link time it failed to hide before it
//! publishes the cycle's epoch. The hidden portion is reported as
//! [`BspPhases::overlap_s`].
//!
//! # One sync point per cycle
//!
//! A cycle is `compute · publish · wait-on-neighbours · exchange`: a
//! worker publishes its epoch and waits only for the workers it shares
//! a buffer with ([`EpochSync`], whose type docs state the invariant
//! the `SAFETY:` comments below lean on), and its exchange falls
//! straight into the next compute. A worker with no neighbours, and the
//! inline one-thread path, touch no sync state at all.

use crate::bsp::{BspPhases, FoldReport, TilePhases, WorkerFold};
use crate::checkpoint::{auto_checkpoint_from_env, Fingerprint, Snapshot, SnapshotError};
use crate::checkpoint::{TileShape, TileState};
use crate::engine::{
    bin1, eval_op, sext1, un1, worker_groups, ArrayHome, Compiled, EpochSync, Link, Mailbox,
    OutputHome, PortSend, Program, RecSrc, RegHome, RegSend, Step, TILE_FIXED,
};
use crate::fault::{FaultKind, FaultPlan, TileFault};
use crate::simd::{vbin, vconcat, vmux, vsext, vslice, vun, vzext, VecIsa};
use parendi_core::routing::PORT_RECORD_HEADER_WORDS;
use parendi_core::Partition;
use parendi_rtl::bits::{top_word_mask, word, words_for, Bits};
use parendi_rtl::{BinOp, Circuit, InputId, UnOp};
use parendi_telemetry::{
    Counter, MetricsRegistry, MetricsSnapshot, SpanKind, TraceBuf, TraceConfig, TraceEvent,
    TraceLevel, TraceSink, NO_TILE,
};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Opcode namespace of the flat bytecode. The low 8 bits of an
/// [`Code::ops`] word select the opcode; the upper 24 bits are an
/// opcode-specific immediate (packed widths, word counts, or a side
/// table index).
pub(crate) mod op {
    /// Block copy from the input buffer. `imm = nw`; args `dst, src`.
    pub const COPY_INPUT: u8 = 0;
    /// Block copy from this tile's register file. `imm = nw`; args
    /// `dst, src`.
    pub const COPY_REG: u8 = 1;
    /// Block copy from an inbound mailbox (epoch `c`). `imm = nw`; args
    /// `dst, ch, src`.
    pub const COPY_MAIL: u8 = 2;
    /// Combinational array read. `imm = idx_w | nw << 8`; args
    /// `dst, arr, idx, depth`.
    pub const ARRAY_READ: u8 = 3;
    // Fused single-word unary kernels: `imm = w | aw << 7`; args
    // `dst, a`. One opcode per `UnOp`, in `UnOp` order.
    pub const NOT1: u8 = 4;
    pub const NEG1: u8 = 5;
    pub const REDAND1: u8 = 6;
    pub const REDOR1: u8 = 7;
    pub const REDXOR1: u8 = 8;
    // Fused single-word binary kernels: `imm = w | aw << 7`; args
    // `dst, a, b`. One opcode per `BinOp`, in `BinOp` order.
    pub const AND1: u8 = 9;
    pub const OR1: u8 = 10;
    pub const XOR1: u8 = 11;
    pub const ADD1: u8 = 12;
    pub const SUB1: u8 = 13;
    pub const MUL1: u8 = 14;
    pub const EQ1: u8 = 15;
    pub const NE1: u8 = 16;
    pub const LTU1: u8 = 17;
    pub const LTS1: u8 = 18;
    pub const LEU1: u8 = 19;
    pub const LES1: u8 = 20;
    pub const SHL1: u8 = 21;
    pub const LSHR1: u8 = 22;
    pub const ASHR1: u8 = 23;
    /// Single-word two-way select. No immediate; args `dst, sel, t, f`.
    pub const MUX1: u8 = 24;
    /// Single-word bit extraction. `imm = lo | w << 6`; args `dst, a`.
    pub const SLICE1: u8 = 25;
    /// Single-word zero extension. `imm = w`; args `dst, a`.
    pub const ZEXT1: u8 = 26;
    /// Single-word sign extension. `imm = aw | w << 7`; args `dst, a`.
    pub const SEXT1: u8 = 27;
    /// Single-word concatenation. `imm = low_w | w << 6`; args
    /// `dst, hi, lo`.
    pub const CONCAT1: u8 = 28;
    /// Multi-word fallback. `imm` indexes [`super::Code::wide`]; no args.
    pub const WIDE: u8 = 29;
    // Packed 1-bit opcodes (packed mode only). A packed net occupies
    // `pw = ceil(lanes / 64)` words of the tile's packed scratch arena:
    // lane `l` is bit `l % 64` of word `l / 64`. Word-sweep opcodes
    // carry `pw` in the immediate and advance 64 lanes per `u64` op.
    /// Transpose boundary, strided → packed: gather bit 0 of each
    /// active lane's arena word into the packed block. No imm; args
    /// `pdst, src`.
    pub const PACK: u8 = 30;
    /// Transpose boundary, packed → strided: scatter each active
    /// lane's bit into its arena word. No imm; args `dst, psrc`.
    pub const UNPACK: u8 = 31;
    /// Packed NOT. `imm = pw`; args `pdst, pa`.
    pub const PNOT: u8 = 32;
    /// Packed AND (also 1-bit `Mul`). `imm = pw`; args `pdst, pa, pb`.
    pub const PAND: u8 = 33;
    /// Packed OR. `imm = pw`; args `pdst, pa, pb`.
    pub const POR: u8 = 34;
    /// Packed XOR (also 1-bit `Add`/`Sub`/`Ne`). `imm = pw`; args
    /// `pdst, pa, pb`.
    pub const PXOR: u8 = 35;
    /// Packed generic two-input boolean: `imm = pw | tt << 16` where
    /// `tt` bit `a + 2b` is the function value (covers `Eq`, the
    /// comparisons, …). Args `pdst, pa, pb`.
    pub const PBOOL: u8 = 36;
    /// Packed 1-bit two-way select `(sel & t) | (!sel & f)`.
    /// `imm = pw`; args `pdst, psel, pt, pf`.
    pub const PMUX: u8 = 37;
    /// Packed copy of an own packed register. `imm = pw`; args
    /// `pdst, src` (`src` absolute into the register file).
    pub const PCOPY_REG: u8 = 38;
    /// Packed copy of a packed input. `imm = pw`; args `pdst, src`
    /// (`src` absolute into the input buffer).
    pub const PCOPY_INPUT: u8 = 39;
    /// Packed copy of a remote packed register (epoch `c`). `imm = pw`;
    /// args `pdst, ch, src` (`src` absolute into the channel buffer).
    pub const PCOPY_MAIL: u8 = 40;
    // Deeper peephole fusions over the flat bytecode (see
    // [`super::fuse_adjacent`]): each fused opcode writes *both*
    // destinations of the pair it replaced, so no liveness analysis is
    // needed — a later reader of the intermediate still finds it.
    /// Fused shift-left-then-mask (`SHL1` + `ZEXT1`/zero-based
    /// `SLICE1` of its result). `imm = w | aw << 7 | mw << 14`; args
    /// `t, a, b, d`: `t = shl(a, b)` at width `w`, `d = t &
    /// mask(mw)`.
    pub const SHLM1: u8 = 41;
    /// Fused shift-right-then-mask, shaped like [`SHLM1`].
    pub const LSHRM1: u8 = 42;
    /// Fused 2-to-1 mux chain (`MUX1` + `MUX1` consuming its result).
    /// `imm` bit 0 = the first mux's value is the *false* side of the
    /// second; args `t, sel1, a, b, d, sel2, c`: `t = sel1 ? a : b`,
    /// `d = sel2 ? t : c` (bit 0 clear) or `d = sel2 ? c : t` (set).
    pub const MUX2: u8 = 43;
    /// Marks a **run** of the fused single-word opcode in the low bits
    /// (`NOT1..=CONCAT1`): `imm = n >= 2` elements, each laid out in
    /// `args` as that opcode's immediate word (none for `MUX1`) followed
    /// by its operands — so a run may mix widths. One-lane code only
    /// (see [`super::form_runs`]).
    pub const RUN: u8 = 0x40;
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
    match opc {
        op::COPY_INPUT | op::COPY_REG => 2,
        op::COPY_MAIL => 3,
        op::ARRAY_READ => 4,
        op::NOT1..=op::REDXOR1 => 2,
        op::AND1..=op::ASHR1 => 3,
        op::MUX1 => 4,
        op::SLICE1 | op::ZEXT1 | op::SEXT1 => 2,
        op::CONCAT1 => 3,
        op::WIDE => 0,
        op::PACK | op::UNPACK | op::PNOT => 2,
        op::PAND | op::POR | op::PXOR | op::PBOOL => 3,
        op::PMUX => 4,
        op::PCOPY_REG | op::PCOPY_INPUT => 2,
        op::PCOPY_MAIL => 3,
        op::SHLM1 | op::LSHRM1 => 4,
        op::MUX2 => 7,
        run if is_run(run) => {
            let of = run & !op::RUN;
            assert!(is_fused1(of), "no runs of opcode {of}");
            argc(of) + (of != op::MUX1) as usize
        }
        other => unreachable!("unknown opcode {other}"),
    }
}

/// Stable mnemonic of an opcode (disassembly, histograms); a run goes
/// by the name of the opcode it repeats.
pub(crate) fn opcode_name(opc: u8) -> &'static str {
    match opc & !op::RUN {
        op::COPY_INPUT => "input",
        op::COPY_REG => "regown",
        op::COPY_MAIL => "regmail",
        op::ARRAY_READ => "arrayread",
        op::NOT1 => "not1",
        op::NEG1 => "neg1",
        op::REDAND1 => "redand1",
        op::REDOR1 => "redor1",
        op::REDXOR1 => "redxor1",
        op::AND1 => "and1",
        op::OR1 => "or1",
        op::XOR1 => "xor1",
        op::ADD1 => "add1",
        op::SUB1 => "sub1",
        op::MUL1 => "mul1",
        op::EQ1 => "eq1",
        op::NE1 => "ne1",
        op::LTU1 => "ltu1",
        op::LTS1 => "lts1",
        op::LEU1 => "leu1",
        op::LES1 => "les1",
        op::SHL1 => "shl1",
        op::LSHR1 => "lshr1",
        op::ASHR1 => "ashr1",
        op::MUX1 => "mux1",
        op::SLICE1 => "slice1",
        op::ZEXT1 => "zext1",
        op::SEXT1 => "sext1",
        op::CONCAT1 => "concat1",
        op::WIDE => "wide",
        op::PACK => "pack",
        op::UNPACK => "unpack",
        op::PNOT => "pnot",
        op::PAND => "pand",
        op::POR => "por",
        op::PXOR => "pxor",
        op::PBOOL => "pbool",
        op::PMUX => "pmux",
        op::PCOPY_REG => "pregown",
        op::PCOPY_INPUT => "pinput",
        op::PCOPY_MAIL => "pregmail",
        op::SHLM1 => "shlm1",
        op::LSHRM1 => "lshrm1",
        op::MUX2 => "mux2",
        other => unreachable!("unknown opcode {other}"),
    }
}

impl Code {
    fn emit(&mut self, opc: u8, imm: u32, a: &[u32]) {
        debug_assert!(imm < 1 << 24, "immediate overflows the opcode word");
        debug_assert_eq!(a.len(), argc(opc), "arg count mismatch for opcode {opc}");
        self.ops.push(opc as u32 | (imm << 8));
        self.args.extend_from_slice(a);
    }

    /// Checks the structural invariant the unchecked operand reads of
    /// the hot loop rely on: walking `ops` with the fixed per-opcode
    /// operand counts — times the element count its immediate claims,
    /// for a run — consumes `args` exactly.
    fn validate(&self) {
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

    /// Lowers a step program into strided bytecode: fused single-word
    /// opcodes for `nw == 1` operations, peephole-coalesced block
    /// copies for adjacent contiguous `Input`/`RegOwn`/`RegMail` reads,
    /// and a cold [`Step`] side table for everything multi-word.
    pub(crate) fn lower(steps: &[Step], runs: bool) -> Code {
        lower_inner(steps, None, runs).code
    }

    /// Packed-mode lowering: like [`lower`](Self::lower), but eligible
    /// 1-bit nets are computed in the packed domain (one `u64` op per
    /// 64 lanes) with explicit `PACK`/`UNPACK` transpose boundaries
    /// where the strided and packed domains meet. Returns the slot map
    /// so the caller can resolve packed register commits/sends.
    pub(crate) fn lower_packed(steps: &[Step], plan: &PackPlan, runs: bool) -> Lowered {
        lower_inner(steps, Some(plan), runs)
    }

    /// A stable disassembly, one line per simulated operation (golden
    /// tests, debug). A run prints its elements as the instructions they
    /// replaced, `+ `-prefixed after the first.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn disasm(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_op(|opc, imm, a, leads| {
            let name = opcode_name(opc);
            let line = match opc {
                op::COPY_INPUT | op::COPY_REG => {
                    format!("{name} dst={} src={} nw={imm}", a[0], a[1])
                }
                op::COPY_MAIL => {
                    format!("{name} dst={} ch={} src={} nw={imm}", a[0], a[1], a[2])
                }
                op::ARRAY_READ => format!(
                    "{name} dst={} arr={} idx={} depth={} idx_w={} nw={}",
                    a[0],
                    a[1],
                    a[2],
                    a[3],
                    imm & 0xff,
                    imm >> 8
                ),
                op::NOT1..=op::REDXOR1 => format!(
                    "{name} dst={} a={} w={} aw={}",
                    a[0],
                    a[1],
                    imm & 0x7f,
                    imm >> 7
                ),
                op::AND1..=op::ASHR1 => format!(
                    "{name} dst={} a={} b={} w={} aw={}",
                    a[0],
                    a[1],
                    a[2],
                    imm & 0x7f,
                    imm >> 7
                ),
                op::MUX1 => format!("{name} dst={} sel={} t={} f={}", a[0], a[1], a[2], a[3]),
                op::SLICE1 => format!(
                    "{name} dst={} a={} lo={} w={}",
                    a[0],
                    a[1],
                    imm & 0x3f,
                    imm >> 6
                ),
                op::ZEXT1 => format!("{name} dst={} a={} w={imm}", a[0], a[1]),
                op::SEXT1 => format!(
                    "{name} dst={} a={} aw={} w={}",
                    a[0],
                    a[1],
                    imm & 0x7f,
                    imm >> 7
                ),
                op::CONCAT1 => format!(
                    "{name} dst={} hi={} lo={} low_w={} w={}",
                    a[0],
                    a[1],
                    a[2],
                    imm & 0x3f,
                    imm >> 6
                ),
                op::PACK => format!("{name} pdst={} src={}", a[0], a[1]),
                op::UNPACK => format!("{name} dst={} psrc={}", a[0], a[1]),
                op::PNOT => format!("{name} pdst={} pa={} pw={imm}", a[0], a[1]),
                op::PAND | op::POR | op::PXOR => {
                    format!("{name} pdst={} pa={} pb={} pw={imm}", a[0], a[1], a[2])
                }
                op::PBOOL => format!(
                    "{name} pdst={} pa={} pb={} pw={} tt={:04b}",
                    a[0],
                    a[1],
                    a[2],
                    imm & 0xffff,
                    imm >> 16
                ),
                op::PMUX => format!(
                    "{name} pdst={} psel={} pt={} pf={} pw={imm}",
                    a[0], a[1], a[2], a[3]
                ),
                op::PCOPY_REG | op::PCOPY_INPUT => {
                    format!("{name} pdst={} src={} pw={imm}", a[0], a[1])
                }
                op::PCOPY_MAIL => {
                    format!("{name} pdst={} ch={} src={} pw={imm}", a[0], a[1], a[2])
                }
                op::SHLM1 | op::LSHRM1 => format!(
                    "{name} t={} a={} b={} d={} w={} aw={} mw={}",
                    a[0],
                    a[1],
                    a[2],
                    a[3],
                    imm & 0x7f,
                    (imm >> 7) & 0x7f,
                    imm >> 14
                ),
                op::MUX2 => format!(
                    "{name} t={} sel1={} a={} b={} d={} sel2={} c={} pol={}",
                    a[0],
                    a[1],
                    a[2],
                    a[3],
                    a[4],
                    a[5],
                    a[6],
                    imm & 1
                ),
                op::WIDE => {
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
                    format!("{name}[{imm}] {tag}")
                }
                other => unreachable!("unknown opcode {other}"),
            };
            out.push(if leads { line } else { format!("+ {line}") });
        });
        out
    }

    /// Accumulates an opcode/width frequency histogram into `h`, keyed
    /// `(mnemonic, width)`: the result width for fused scalar opcodes,
    /// the word count for copies and array reads, 0 where width is
    /// meaningless (muxes, transposes, packed sweeps, `WIDE`). Fusion
    /// and SIMD-coverage decisions read these counts
    /// (`PARENDI_CODE_STATS`).
    pub(crate) fn histogram(&self, h: &mut BTreeMap<(&'static str, u32), u64>) {
        self.for_each_op(|opc, imm, _, _| {
            let w = match opc {
                op::COPY_INPUT | op::COPY_REG | op::COPY_MAIL => imm,
                op::ARRAY_READ => imm >> 8,
                op::NOT1..=op::ASHR1 | op::SHLM1 | op::LSHRM1 => imm & 0x7f,
                op::SLICE1 | op::CONCAT1 => imm >> 6,
                op::ZEXT1 => imm,
                op::SEXT1 => imm >> 7,
                _ => 0,
            };
            *h.entry((opcode_name(opc), w)).or_insert(0) += 1;
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

/// The deeper peephole pass: fuses adjacent shift-then-mask
/// (`SHL1`/`LSHR1` + `ZEXT1` or zero-based `SLICE1` of the shift's
/// result) into [`op::SHLM1`]/[`op::LSHRM1`], and 2-to-1 mux chains
/// (`MUX1` + `MUX1` consuming the first's result) into [`op::MUX2`] —
/// halving dispatches on the shift/mask idiom that dominates sliced
/// datapaths. Both fused opcodes still write the intermediate
/// destination, so later consumers (and the arena invariant that
/// operands precede destinations) are preserved without liveness
/// analysis. Runs on the flat bytecode after lowering; `wide` indexes
/// are untouched.
fn fuse_adjacent(code: Code) -> Code {
    let mut out = Code {
        ops: Vec::with_capacity(code.ops.len()),
        args: Vec::with_capacity(code.args.len()),
        wide: code.wide,
    };
    let (ops, args) = (&code.ops, &code.args);
    let (mut i, mut p) = (0usize, 0usize);
    while i < ops.len() {
        let opc = (ops[i] & 0xff) as u8;
        let imm = ops[i] >> 8;
        let n = argc(opc);
        if i + 1 < ops.len() {
            let opc2 = (ops[i + 1] & 0xff) as u8;
            let imm2 = ops[i + 1] >> 8;
            let q = p + n;
            if opc == op::SHL1 || opc == op::LSHR1 {
                // The mask width must fit its 7-bit immediate field
                // (always true: the pair only arises single-word).
                let t = args[p];
                let mw = match opc2 {
                    op::ZEXT1 if args[q + 1] == t => Some(imm2),
                    op::SLICE1 if args[q + 1] == t && imm2 & 0x3f == 0 => Some(imm2 >> 6),
                    _ => None,
                };
                if let Some(mw) = mw {
                    let f = if opc == op::SHL1 {
                        op::SHLM1
                    } else {
                        op::LSHRM1
                    };
                    out.emit(f, imm | (mw << 14), &[t, args[p + 1], args[p + 2], args[q]]);
                    p = q + argc(opc2);
                    i += 2;
                    continue;
                }
            }
            if opc == op::MUX1 && opc2 == op::MUX1 {
                let t = args[p];
                let (d, sel2, tt, ff) = (args[q], args[q + 1], args[q + 2], args[q + 3]);
                let fuse = if tt == t {
                    Some((0u32, ff))
                } else if ff == t {
                    Some((1u32, tt))
                } else {
                    None
                };
                if let Some((pol, c)) = fuse {
                    out.emit(
                        op::MUX2,
                        pol,
                        &[t, args[p + 1], args[p + 2], args[p + 3], d, sel2, c],
                    );
                    p = q + 4;
                    i += 2;
                    continue;
                }
            }
        }
        out.ops.push(ops[i]);
        out.args.extend_from_slice(&args[p..p + n]);
        p += n;
        i += 1;
    }
    out
}

/// Collapses every maximal sequence of two or more instructions of the
/// same fused single-word opcode into one [`op::RUN`] instruction — one
/// dispatch for the lot. An element is the instruction it replaces, its
/// immediate moved into `args` ahead of its operands (so a run may mix
/// widths). The one-lane lowering's last pass; gang code keeps one
/// instruction per operation (see the module docs, *Schedule*).
fn form_runs(code: Code) -> Code {
    let mut out = Code {
        ops: Vec::with_capacity(code.ops.len()),
        args: Vec::with_capacity(code.args.len() + code.ops.len()),
        wide: code.wide,
    };
    let (ops, args) = (&code.ops, &code.args);
    let (mut i, mut p) = (0usize, 0usize);
    while i < ops.len() {
        let opc = (ops[i] & 0xff) as u8;
        let n = argc(opc);
        let same = |o: &u32| (o & 0xff) as u8 == opc;
        let len = if is_fused1(opc) {
            ops[i..]
                .iter()
                .take((1 << 24) - 1)
                .take_while(|o| same(o))
                .count()
        } else {
            1
        };
        if len == 1 {
            out.ops.push(ops[i]);
            out.args.extend_from_slice(&args[p..p + n]);
        } else {
            out.ops.push((op::RUN | opc) as u32 | (len as u32) << 8);
            for (k, opw) in ops[i..i + len].iter().enumerate() {
                if opc != op::MUX1 {
                    out.args.push(opw >> 8);
                }
                out.args.extend_from_slice(&args[p + k * n..][..n]);
            }
        }
        i += len;
        p += len * n;
    }
    out
}

/// What the packed-mode lowering must know beyond the steps: the
/// packed block size and which nets are read from outside the bytecode
/// (commits, sends, port records, outputs) in which form.
pub(crate) struct PackPlan {
    /// Words per packed net (`ceil(lanes / 64)`).
    pub pw: u32,
    /// Arena offsets valid strided before the program runs (constants,
    /// written once at engine init).
    pub preset_strided: Vec<u32>,
    /// The subset of `preset_strided` that never changes (1-bit
    /// constants): packing one of these emits **no opcode** — the
    /// engine packs it once at init ([`Lowered::const_packs`]) instead
    /// of transposing an immutable value every cycle.
    pub const_strided: Vec<u32>,
    /// Arena offsets to pack at program entry (test hook: seeds the
    /// packed domain without a packed register/input source).
    pub preset_packed: Vec<u32>,
    /// Arena offsets that must be valid **strided** when the program
    /// ends (outputs, port-record enables/indices/data).
    pub need_strided: Vec<u32>,
    /// Arena offsets that must be valid **packed** when the program
    /// ends (next-values of packed registers).
    pub need_packed: Vec<u32>,
}

/// The result of a packed-mode lowering.
pub(crate) struct Lowered {
    pub code: Code,
    /// Run-invariant prefix: steps whose transitive dependencies are
    /// only inputs and constants, plus the `PACK`/`UNPACK` transposes
    /// of their results. Inputs are frozen during a `run`, so the
    /// engine executes this once per run instead of once per cycle —
    /// the hoist that keeps a strided net shared across packed
    /// consumers from being re-transposed every cycle. Empty in
    /// strided (non-packed) mode.
    pub prelude: Code,
    /// Size of the tile's packed scratch arena in words.
    pub packed_words: usize,
    /// Arena offset → packed arena word offset, for every net that has
    /// a packed form.
    pub pslot: HashMap<u32, u32>,
    /// 1-bit constants consumed by the packed domain: `(arena offset,
    /// packed slot)` pairs the engine transposes **once** at init.
    pub const_packs: Vec<(u32, u32)>,
}

/// Lowering state: the code under construction, the pending copy-run
/// peephole, and the packed-domain bookkeeping (which nets exist
/// strided / packed, and where).
struct LowerCtx {
    /// The stream under construction: the prelude during the invariant
    /// pass, the per-cycle body afterwards.
    code: Code,
    /// The finalized run-invariant prelude (taken from `code` after the
    /// invariant pass; the body pass may still append boundary
    /// transposes of invariant nets to its tail).
    prelude: Code,
    /// Nets whose value is run-invariant (input/constant cones): their
    /// transposes may be hoisted into the prelude from the body pass.
    invariant: HashSet<u32>,
    /// Whether the invariant pass is running (emissions already target
    /// the prelude stream; no hoisting needed).
    in_prelude: bool,
    /// Pending copy run: (opcode, first dst, channel, first src, nw).
    run: Option<(u8, u32, u32, u32, u32)>,
    /// Arena offset → packed arena word offset.
    pslot: HashMap<u32, u32>,
    /// Packed-copy source → packed slot, keyed `(opcode, ch, src)`:
    /// when the same packed register/input/mailbox block feeds several
    /// consumers, the copy lands once and later reads alias its slot —
    /// the packed-domain analogue of the `PACK` hoist `ensure_packed`
    /// performs for strided sources.
    src_slot: HashMap<(u8, u32, u32), u32>,
    /// Nets whose strided arena slot currently holds their value.
    strided_ok: HashSet<u32>,
    /// Immutable nets (constants): packed once at init, not per cycle.
    consts: HashSet<u32>,
    const_packs: Vec<(u32, u32)>,
    next_slot: u32,
    pw: u32,
}

impl LowerCtx {
    fn flush(&mut self) {
        if let Some((opc, dst, ch, src, nw)) = self.run.take() {
            assert!(nw < 1 << 24, "copy run overflows the immediate");
            if opc == op::COPY_MAIL {
                self.code.emit(opc, nw, &[dst, ch, src]);
            } else {
                self.code.emit(opc, nw, &[dst, src]);
            }
        }
    }

    fn copy(&mut self, opc: u8, dst: u32, ch: u32, src: u32, nw: u32) {
        if let Some((ro, rd, rc, rs, rn)) = &mut self.run {
            // Contiguous same-source extension: one longer block copy.
            if *ro == opc && *rc == ch && dst == *rd + *rn && src == *rs + *rn {
                *rn += nw;
                self.strided_ok.insert(dst);
                return;
            }
        }
        self.flush();
        self.run = Some((opc, dst, ch, src, nw));
        self.strided_ok.insert(dst);
    }

    /// Allocates the packed slot of net `off`.
    fn alloc(&mut self, off: u32) -> u32 {
        let slot = self.next_slot * self.pw;
        self.pslot.insert(off, slot);
        self.next_slot += 1;
        slot
    }

    /// Returns net `off` in packed form, emitting a `PACK` transpose if
    /// it only exists strided — except for constants, which are packed
    /// once at engine init instead of once per cycle, and run-invariant
    /// nets, whose transpose is hoisted to the prelude tail (it runs
    /// after every prelude compute, so the strided value is there).
    fn ensure_packed(&mut self, off: u32) -> u32 {
        if let Some(&s) = self.pslot.get(&off) {
            return s;
        }
        debug_assert!(
            self.strided_ok.contains(&off),
            "net {off} has no value to pack"
        );
        let s = self.alloc(off);
        if self.consts.contains(&off) {
            self.const_packs.push((off, s));
            return s;
        }
        if !self.in_prelude && self.invariant.contains(&off) {
            self.prelude.emit(op::PACK, 0, &[s, off]);
            return s;
        }
        self.flush();
        self.code.emit(op::PACK, 0, &[s, off]);
        s
    }

    /// Emits a packed copy — or aliases the slot of an earlier copy of
    /// the **same source block**, so a packed register/input/mailbox
    /// value read on several sites transposes into the packed domain
    /// exactly once.
    fn pcopy(&mut self, opc: u8, dst: u32, ch: u32, src: u32) {
        if let Some(&s) = self.src_slot.get(&(opc, ch, src)) {
            self.pslot.insert(dst, s);
            return;
        }
        self.flush();
        let s = self.alloc(dst);
        self.src_slot.insert((opc, ch, src), s);
        if opc == op::PCOPY_MAIL {
            self.code.emit(opc, self.pw, &[s, ch, src]);
        } else {
            self.code.emit(opc, self.pw, &[s, src]);
        }
    }

    /// Materializes net `off` in its strided arena slot, emitting an
    /// `UNPACK` transpose if it only exists packed — hoisted to the
    /// prelude tail when the net is run-invariant.
    fn ensure_strided(&mut self, off: u32) {
        if self.strided_ok.contains(&off) {
            return;
        }
        let s = self.pslot[&off];
        if !self.in_prelude && self.invariant.contains(&off) {
            self.prelude.emit(op::UNPACK, 0, &[off, s]);
        } else {
            self.flush();
            self.code.emit(op::UNPACK, 0, &[off, s]);
        }
        self.strided_ok.insert(off);
    }
}

/// Truth table of a two-input boolean, bit `a + 2b` = function value.
fn pbool_tt(o: BinOp) -> u32 {
    match o {
        BinOp::Eq => 0b1001,  // !(a ^ b)
        BinOp::LtU => 0b0100, // !a & b
        BinOp::LtS => 0b0010, // a & !b   (1-bit signed: -1 < 0)
        BinOp::LeU => 0b1101, // !a | b
        BinOp::LeS => 0b1011, // a | !b
        other => unreachable!("{other:?} has a dedicated packed opcode"),
    }
}

/// Tries to lower a step in the packed domain. Returns `true` when the
/// step was consumed. Policy: a 1-bit boolean op computes packed iff at
/// least one operand already lives packed (packed registers, packed
/// inputs, and packed mailbox reads seed the domain), so 1-bit control
/// chains stay packed end to end while isolated bits of the strided
/// datapath never pay a transpose. 1-bit identities (`Neg`, the
/// reductions, `Zext`/`Sext`/`Slice` to 1 bit, `Ashr` at 1 bit) of a
/// packed net just alias its slot.
fn try_packed(ctx: &mut LowerCtx, step: &Step) -> bool {
    let has = |ctx: &LowerCtx, off: u32| ctx.pslot.contains_key(&off);
    match *step {
        Step::Un {
            op: o,
            dst,
            a,
            w: 1,
            aw: 1,
            anw: 1,
        } if has(ctx, a) => {
            if o == UnOp::Not {
                let pa = ctx.pslot[&a];
                let s = ctx.alloc(dst);
                ctx.flush();
                ctx.code.emit(op::PNOT, ctx.pw, &[s, pa]);
            } else {
                // Neg / RedAnd / RedOr / RedXor of one bit: identity.
                let pa = ctx.pslot[&a];
                ctx.pslot.insert(dst, pa);
            }
            true
        }
        Step::Zext {
            dst,
            a,
            w: 1,
            anw: 1,
        } if has(ctx, a) => {
            let pa = ctx.pslot[&a];
            ctx.pslot.insert(dst, pa);
            true
        }
        Step::Sext {
            dst,
            a,
            w: 1,
            anw: 1,
            ..
        } if has(ctx, a) => {
            let pa = ctx.pslot[&a];
            ctx.pslot.insert(dst, pa);
            true
        }
        Step::Slice {
            dst,
            a,
            lo: 0,
            w: 1,
            anw: 1,
        } if has(ctx, a) => {
            let pa = ctx.pslot[&a];
            ctx.pslot.insert(dst, pa);
            true
        }
        Step::Bin {
            op: BinOp::Ashr,
            dst,
            a,
            w: 1,
            aw: 1,
            anw: 1,
            ..
        } if has(ctx, a) => {
            // 1-bit arithmetic shift right is the identity for every
            // shift amount (the sign bit refills the only bit).
            let pa = ctx.pslot[&a];
            ctx.pslot.insert(dst, pa);
            true
        }
        Step::Bin {
            op: o,
            dst,
            a,
            b,
            w: 1,
            aw: 1,
            anw: 1,
            bnw: 1,
        } if !matches!(o, BinOp::Shl | BinOp::Lshr | BinOp::Ashr)
            && (has(ctx, a) || has(ctx, b)) =>
        {
            let pa = ctx.ensure_packed(a);
            let pb = ctx.ensure_packed(b);
            let s = ctx.alloc(dst);
            ctx.flush();
            match o {
                BinOp::And | BinOp::Mul => ctx.code.emit(op::PAND, ctx.pw, &[s, pa, pb]),
                BinOp::Or => ctx.code.emit(op::POR, ctx.pw, &[s, pa, pb]),
                BinOp::Xor | BinOp::Add | BinOp::Sub | BinOp::Ne => {
                    ctx.code.emit(op::PXOR, ctx.pw, &[s, pa, pb])
                }
                o => {
                    let imm = ctx.pw | (pbool_tt(o) << 16);
                    ctx.code.emit(op::PBOOL, imm, &[s, pa, pb]);
                }
            }
            true
        }
        Step::Mux {
            dst,
            sel,
            t,
            f,
            nw: 1,
            w: 1,
        } if has(ctx, sel) || has(ctx, t) || has(ctx, f) => {
            let ps = ctx.ensure_packed(sel);
            let pt = ctx.ensure_packed(t);
            let pf = ctx.ensure_packed(f);
            let s = ctx.alloc(dst);
            ctx.flush();
            ctx.code.emit(op::PMUX, ctx.pw, &[s, ps, pt, pf]);
            true
        }
        _ => false,
    }
}

/// Arena offsets a (non-copy) step reads.
fn step_operands(step: &Step) -> ([u32; 3], usize) {
    match *step {
        Step::ArrayRead { idx, .. } => ([idx, 0, 0], 1),
        Step::Un { a, .. } | Step::Zext { a, .. } | Step::Sext { a, .. } => ([a, 0, 0], 1),
        Step::Slice { a, .. } => ([a, 0, 0], 1),
        Step::Bin { a, b, .. } => ([a, b, 0], 2),
        Step::Mux { sel, t, f, .. } => ([sel, t, f], 3),
        Step::Concat { hi, lo, .. } => ([hi, lo, 0], 2),
        Step::Input { .. }
        | Step::RegOwn { .. }
        | Step::RegMail { .. }
        | Step::InputP { .. }
        | Step::RegOwnP { .. }
        | Step::RegMailP { .. } => ([0, 0, 0], 0),
    }
}

/// Strided arena offset a step writes (packed copies have none).
fn step_dst(step: &Step) -> Option<u32> {
    match *step {
        Step::Input { dst, .. }
        | Step::RegOwn { dst, .. }
        | Step::RegMail { dst, .. }
        | Step::ArrayRead { dst, .. }
        | Step::Un { dst, .. }
        | Step::Bin { dst, .. }
        | Step::Mux { dst, .. }
        | Step::Slice { dst, .. }
        | Step::Zext { dst, .. }
        | Step::Sext { dst, .. }
        | Step::Concat { dst, .. } => Some(dst),
        Step::InputP { .. } | Step::RegOwnP { .. } | Step::RegMailP { .. } => None,
    }
}

/// Classifies each step as **run-invariant** — its transitive
/// dependencies are only inputs and constants/presets, never a
/// register, mailbox, or array — and returns the per-step flags plus
/// the set of invariant net offsets. Inputs are frozen for the duration
/// of a `run` call, so invariant steps can execute once per run.
fn classify_invariant(steps: &[Step], seed: &HashSet<u32>) -> (Vec<bool>, HashSet<u32>) {
    let mut inv = seed.clone();
    let mut flags = vec![false; steps.len()];
    for (i, step) in steps.iter().enumerate() {
        let iv = match *step {
            Step::Input { .. } | Step::InputP { .. } => true,
            Step::RegOwn { .. }
            | Step::RegMail { .. }
            | Step::RegOwnP { .. }
            | Step::RegMailP { .. }
            | Step::ArrayRead { .. } => false,
            _ => {
                let (ops, n) = step_operands(step);
                ops[..n].iter().all(|o| inv.contains(o))
            }
        };
        if iv {
            flags[i] = true;
            match *step {
                Step::InputP { dst, .. } => {
                    inv.insert(dst);
                }
                _ => {
                    if let Some(d) = step_dst(step) {
                        inv.insert(d);
                    }
                }
            }
        }
    }
    (flags, inv)
}

/// The shared lowering: strided when `plan` is `None`, packed-aware
/// otherwise. In packed mode the run-invariant prefix (input/constant
/// cones and their transposes) is split into [`Lowered::prelude`];
/// reordering invariant steps ahead of the rest is sound because every
/// arena offset is written by exactly one step (bump allocation) and an
/// invariant step only reads invariant offsets, whose producers keep
/// their relative order.
fn lower_inner(steps: &[Step], plan: Option<&PackPlan>, runs: bool) -> Lowered {
    let mut ctx = LowerCtx {
        code: Code::default(),
        prelude: Code::default(),
        invariant: HashSet::new(),
        in_prelude: false,
        run: None,
        pslot: HashMap::new(),
        src_slot: HashMap::new(),
        strided_ok: HashSet::new(),
        consts: HashSet::new(),
        const_packs: Vec::new(),
        next_slot: 0,
        pw: plan.map_or(0, |p| p.pw),
    };
    let packed = plan.is_some();
    let mut inv_step = vec![false; steps.len()];
    if let Some(plan) = plan {
        ctx.strided_ok.extend(plan.preset_strided.iter().copied());
        ctx.consts.extend(plan.const_strided.iter().copied());
        ctx.strided_ok.extend(plan.const_strided.iter().copied());
        // Presets behave like constants for invariance: the caller
        // seeds them before the run, never mid-run.
        let mut seed: HashSet<u32> = plan.preset_strided.iter().copied().collect();
        seed.extend(plan.const_strided.iter().copied());
        seed.extend(plan.preset_packed.iter().copied());
        let (flags, inv) = classify_invariant(steps, &seed);
        inv_step = flags;
        ctx.invariant = inv;
        // The preset-pack seeding and the whole invariant pass build
        // the prelude stream.
        ctx.in_prelude = true;
        for &off in &plan.preset_packed {
            ctx.strided_ok.insert(off);
            ctx.ensure_packed(off);
        }
        for (step, &iv) in steps.iter().zip(&inv_step) {
            if iv {
                lower_step(&mut ctx, packed, step);
            }
        }
        ctx.flush();
        ctx.prelude = std::mem::take(&mut ctx.code);
        ctx.in_prelude = false;
    }
    for (step, &iv) in steps.iter().zip(&inv_step) {
        if !iv {
            lower_step(&mut ctx, packed, step);
        }
    }
    ctx.flush();
    if let Some(plan) = plan {
        // Boundary transposes for everything read outside the bytecode.
        for &off in &plan.need_strided {
            ctx.ensure_strided(off);
        }
        for &off in &plan.need_packed {
            ctx.ensure_packed(off);
        }
        ctx.flush();
    }
    // Alternatives, not stages: pair fusion needs a producer next to
    // its consumer, which the one-lane opcode schedule pulls apart.
    let finish = |code: Code| {
        let mut code = if runs {
            form_runs(code)
        } else {
            fuse_adjacent(code)
        };
        code.validate();
        // The streams live as long as the engine, and both passes size
        // their output for the worst case: drop the slack.
        code.ops.shrink_to_fit();
        code.args.shrink_to_fit();
        code
    };
    let code = finish(ctx.code);
    let prelude = finish(ctx.prelude);
    Lowered {
        packed_words: (ctx.next_slot * ctx.pw) as usize,
        pslot: ctx.pslot,
        const_packs: ctx.const_packs,
        code,
        prelude,
    }
}

/// Lowers one step into the context's current stream.
fn lower_step(ctx: &mut LowerCtx, packed: bool, step: &Step) {
    match *step {
        Step::Input { dst, src, nw } => ctx.copy(op::COPY_INPUT, dst, 0, src, nw),
        Step::RegOwn { dst, src, nw } => ctx.copy(op::COPY_REG, dst, 0, src, nw),
        Step::RegMail { dst, ch, src, nw } => ctx.copy(op::COPY_MAIL, dst, ch, src, nw),
        Step::InputP { dst, src } => ctx.pcopy(op::PCOPY_INPUT, dst, 0, src),
        Step::RegOwnP { dst, src } => ctx.pcopy(op::PCOPY_REG, dst, 0, src),
        Step::RegMailP { dst, ch, src } => ctx.pcopy(op::PCOPY_MAIL, dst, ch, src),
        _ => {
            ctx.flush();
            if packed && try_packed(ctx, step) {
                return;
            }
            if packed {
                // Strided lowering: operands computed in the packed
                // domain must cross the transpose boundary first.
                let (ops, n) = step_operands(step);
                for &off in &ops[..n] {
                    ctx.ensure_strided(off);
                }
            }
            let code = &mut ctx.code;
            match *step {
                Step::ArrayRead {
                    dst,
                    arr,
                    idx,
                    idx_w,
                    nw,
                    depth,
                } => {
                    assert!(idx_w < 1 << 8 && nw < 1 << 16, "array shape overflows imm");
                    code.emit(op::ARRAY_READ, idx_w | (nw << 8), &[dst, arr, idx, depth]);
                }
                Step::Un {
                    op: o,
                    dst,
                    a,
                    w,
                    aw,
                    anw,
                } if anw == 1 && w <= 64 => {
                    code.emit(un1_opc(o), w | (aw << 7), &[dst, a]);
                }
                Step::Bin {
                    op: o,
                    dst,
                    a,
                    b,
                    w,
                    aw,
                    anw,
                    bnw,
                } if anw == 1 && bnw == 1 && w <= 64 => {
                    code.emit(bin1_opc(o), w | (aw << 7), &[dst, a, b]);
                }
                Step::Mux {
                    dst,
                    sel,
                    t,
                    f,
                    nw: 1,
                    ..
                } => code.emit(op::MUX1, 0, &[dst, sel, t, f]),
                Step::Slice {
                    dst,
                    a,
                    lo,
                    w,
                    anw: 1,
                } => code.emit(op::SLICE1, lo | (w << 6), &[dst, a]),
                Step::Zext { dst, a, w, anw } if anw == 1 && w <= 64 => {
                    code.emit(op::ZEXT1, w, &[dst, a]);
                }
                Step::Sext { dst, a, aw, w, anw } if anw == 1 && w <= 64 => {
                    code.emit(op::SEXT1, aw | (w << 7), &[dst, a]);
                }
                Step::Concat {
                    dst,
                    hi,
                    lo,
                    w,
                    low_w,
                    hnw: 1,
                    lnw: 1,
                } if w <= 64 => code.emit(op::CONCAT1, low_w | (w << 6), &[dst, hi, lo]),
                _ => {
                    assert!(code.wide.len() < 1 << 24, "wide table overflows imm");
                    let idx = code.wide.len() as u32;
                    code.wide.push(step.clone());
                    code.emit(op::WIDE, idx, &[]);
                }
            }
            if let Some(dst) = step_dst(step) {
                ctx.strided_ok.insert(dst);
            }
        }
    }
}

/// The set of scenario lanes a dispatched operation sweeps. The hot
/// loop is monomorphized per implementation so the single-scenario
/// engine ([`OneLane`]) pays no lane arithmetic at all, the full gang
/// ([`AllLanes`]) runs a dense counted loop, and early-exited gangs
/// ([`LaneList`]) skip finished lanes at dispatch granularity.
pub(crate) trait LaneSet: Copy {
    /// `true` only for [`OneLane`]: the engine has exactly one lane, so
    /// `off * lanes + lane` is `off` and every opcode is one scalar
    /// statement instead of a sweep.
    const ONE: bool = false;
    /// The interleave width to index a tile of `tile_lanes` lanes with
    /// — a compile-time 1 under [`OneLane`], so the per-lane rule
    /// `off * width + lane` folds to `off` there.
    #[inline(always)]
    fn width(tile_lanes: usize) -> usize {
        if Self::ONE {
            1
        } else {
            tile_lanes
        }
    }
    /// Number of lanes swept.
    fn count(&self) -> usize;
    /// Calls `f` once per active lane index.
    fn for_each(&self, f: impl FnMut(usize));
    /// Calls `f(start, len)` once per maximal run of **consecutive**
    /// active lanes — the dense blocks the lane kernels sweep.
    /// [`AllLanes`] yields one full-gang block, [`OneLane`] a single
    /// unit block, and a [`LaneList`] one block per survivor run.
    fn for_each_chunk(&self, f: impl FnMut(usize, usize));
}

/// Exactly lane 0 of a one-lane engine (the single-scenario engine).
#[derive(Clone, Copy)]
pub(crate) struct OneLane;

impl LaneSet for OneLane {
    const ONE: bool = true;
    #[inline(always)]
    fn count(&self) -> usize {
        1
    }
    #[inline(always)]
    fn for_each(&self, mut f: impl FnMut(usize)) {
        f(0);
    }
    #[inline(always)]
    fn for_each_chunk(&self, mut f: impl FnMut(usize, usize)) {
        f(0, 1);
    }
}

/// All lanes `0..n` (no scenario has exited).
#[derive(Clone, Copy)]
pub(crate) struct AllLanes(pub usize);

impl LaneSet for AllLanes {
    #[inline(always)]
    fn count(&self) -> usize {
        self.0
    }
    #[inline(always)]
    fn for_each(&self, mut f: impl FnMut(usize)) {
        for l in 0..self.0 {
            f(l);
        }
    }
    #[inline(always)]
    fn for_each_chunk(&self, mut f: impl FnMut(usize, usize)) {
        f(0, self.0);
    }
}

/// An explicit list of surviving lanes (some scenarios finished).
#[derive(Clone, Copy)]
pub(crate) struct LaneList<'a>(pub &'a [u32]);

impl LaneSet for LaneList<'_> {
    #[inline(always)]
    fn count(&self) -> usize {
        self.0.len()
    }
    #[inline(always)]
    fn for_each(&self, mut f: impl FnMut(usize)) {
        for &l in self.0 {
            f(l as usize);
        }
    }
    #[inline(always)]
    fn for_each_chunk(&self, mut f: impl FnMut(usize, usize)) {
        // The list is ascending; coalesce maximal consecutive runs.
        let list = self.0;
        let mut i = 0;
        while i < list.len() {
            let s = list[i] as usize;
            let mut j = i + 1;
            while j < list.len() && list[j] as usize == s + (j - i) {
                j += 1;
            }
            f(s, j - i);
            i = j;
        }
    }
}

/// Lane-strided mutable state of one tile: `lanes` copies of the
/// single-lane layout, word `off` of lane `l` at `off * lanes + l` (see
/// the module docs). Guarded by a `Mutex` purely for the testbench API;
/// workers lock it once per `run`, not per cycle.
#[derive(Debug)]
pub(crate) struct LaneTile {
    /// `arena_words × lanes` words of combinational values.
    pub arena: TileBuf,
    /// Packed scratch arena: one `pw`-word block per packed 1-bit net
    /// (packed mode only; empty otherwise).
    pub packed: Vec<u64>,
    /// `rw × lanes` strided words — this tile's own wide registers,
    /// `RegId` order — followed by the packed tail (one `pw`-word block
    /// per 1-bit register in packed mode).
    pub reg_cur: TileBuf,
    /// Local copies of held arrays, each `lanes × arr_words[i]` words,
    /// one contiguous block per lane (array traffic is index-scattered
    /// anyway).
    pub arrays: Vec<Vec<u64>>,
    /// Single-lane register-file size in words (strided section).
    pub rw: usize,
    /// Per-lane words of each held array (depth × element words).
    pub arr_words: Vec<usize>,
    /// Total gang lane count (the interleave width).
    pub lanes: usize,
    /// Single-lane-arena-sized scratch for `WIDE` steps of a gang (gather
    /// operands → slice kernels → scatter result); empty at one lane,
    /// where the arena already is one contiguous block.
    pub scratch: Vec<u64>,
}

/// A tile's per-cycle state words (`arena`, `reg_cur`) on cache lines
/// no other buffer touches: the words start on a 128-byte boundary —
/// two lines, the pair the adjacent-line prefetcher moves together —
/// of a zeroed allocation that runs past the end of their last pair.
/// Two workers write neighbouring tiles' blocks every cycle,
/// and the allocator packs small `Vec<u64>`s back to back in whatever
/// order the front-end's frees left its bins: sharing a line there cost
/// prng64-32 at 2 workers 17 % (851–874 k → 707–721 k cycles/s) and
/// vta-256 8 %, and a 64-lane gang whose 512-byte rows straddled lines
/// lost 2.6 % on `gang_lanes`. The allocation is never resized or
/// cloned, so the boundary found at construction holds (snapshots copy
/// words out, restores copy words in).
#[derive(Debug)]
pub(crate) struct TileBuf {
    /// The first word: the first 128-byte boundary inside `_store`.
    first: std::ptr::NonNull<u64>,
    words: usize,
    /// The allocation `first` points into, kept only to own it.
    _store: Vec<u64>,
}

// SAFETY: `first` points into the heap block `_store` owns, so the two
// change threads together.
unsafe impl Send for TileBuf {}

impl TileBuf {
    const PAIR: usize = 16;

    pub(crate) fn zeroed(words: usize) -> Self {
        // `vec![0; n]` is `calloc`: pages no cycle writes stay untouched.
        let mut store = vec![0u64; words.next_multiple_of(Self::PAIR) + Self::PAIR];
        let lead = store.as_ptr().align_offset(Self::PAIR * 8);
        assert!(lead < Self::PAIR, "u64 storage reaches a 128-byte boundary");
        // SAFETY: `lead < PAIR <= store.len()`.
        let first = unsafe { std::ptr::NonNull::new_unchecked(store.as_mut_ptr().add(lead)) };
        TileBuf {
            first,
            words,
            _store: store,
        }
    }
}

// The views are one pointer and one length, like a `Vec`'s: deriving
// them from the `Vec` and an offset at every use changed `exec_code`'s
// register allocation enough to cost `serve_mixed` 4–6 % (`op_ms_p50`
// +7.4 %, 0 of 10 pairs).
impl std::ops::Deref for TileBuf {
    type Target = [u64];
    #[inline(always)]
    fn deref(&self) -> &[u64] {
        // SAFETY: `zeroed` placed `first` with at least `words` zeroed
        // words of `_store` after it, and `_store` is never resized.
        unsafe { std::slice::from_raw_parts(self.first.as_ptr(), self.words) }
    }
}

impl std::ops::DerefMut for TileBuf {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [u64] {
        // SAFETY: as in `deref`, borrowed uniquely through `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.first.as_ptr(), self.words) }
    }
}

/// Executes one tile's bytecode at cycle `c` for every lane in `lanes`:
/// **the** hot loop. One dispatch per instruction. Under [`OneLane`] a
/// fused single-word opcode is a loop of plain `u64` kernel calls over
/// its run and copies are block copies; for a gang the same opcode hands each dense lane
/// chunk to the [`crate::simd`] kernels, copies move lane rows, and
/// multi-word operations gather one lane at a time through `scratch`
/// into the slice kernels.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_code<L: LaneSet>(
    code: &Code,
    tile: &mut LaneTile,
    inputs: &[u64],
    channels: &[Mailbox],
    read_parity: usize,
    lanes: L,
    isa: VecIsa,
) {
    // Every lane retired: nothing computes, and nothing may decode —
    // a retired one-lane engine arrives as an empty `LaneList`, whose
    // match has no arms for the run words one-lane code carries.
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
                // Transpose strided → packed: gather each active lane's
                // bit. Bits accumulate in a register and land with one
                // masked store per 64-lane word (lane sets iterate
                // ascending), not one read-modify-write per lane.
                // Skipped lanes keep stale bits — only active lanes'
                // bits are ever read back.
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
                // Transpose packed → strided: scatter each active
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
            // constant: a gang's dispatch has no run arms at all (the
            // module docs, *Bytecode*, have what they cost it).
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
fn fold_index_at(buf: &[u64], off: usize, w: usize, l: usize, nl: usize) -> u64 {
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

/// Computation phase for one tile at cycle `c`, all active lanes: run
/// the bytecode, latch own registers, push outgoing *on-chip* mailbox
/// traffic for epoch `c+1`. `mask` is the packed retire mask (bit set =
/// lane early-exited; empty when every lane is live): packed commits
/// and sends blend through it so retired lanes' packed state stays
/// frozen, exactly as the strided lane sweeps skip retired lanes.
/// `faults` (usually empty) are this tile's injected fault ops, applied
/// between compute and latch so commits *and* sends both observe the
/// faulted next-state bits.
#[allow(clippy::too_many_arguments)]
pub(crate) fn compute_phase<L: LaneSet>(
    prog: &Program,
    tile: &mut LaneTile,
    inputs: &[u64],
    channels: &[Mailbox],
    lanes: L,
    c: u64,
    pw: usize,
    mask: &[u64],
    faults: &[TileFault],
    isa: VecIsa,
) {
    exec_code(
        &prog.code,
        tile,
        inputs,
        channels,
        (c & 1) as usize,
        lanes,
        isa,
    );
    if !faults.is_empty() {
        apply_faults(faults, tile, c, pw);
    }
    let write_parity = ((c & 1) ^ 1) as usize;
    let LaneTile {
        arena,
        packed,
        reg_cur,
        lanes: nl,
        ..
    } = tile;
    let nl = L::width(*nl);
    let (arena, reg_cur) = (&arena[..], &mut reg_cur[..]);
    // Latch own registers, every active lane: tile-local, nobody else
    // reads them. Finished lanes keep their last latched values forever.
    for rc in &prog.commits {
        let (d, s, n) = (rc.dst as usize, rc.local as usize, rc.nw as usize);
        if L::ONE {
            reg_cur[d..d + n].copy_from_slice(&arena[s..s + n]);
        } else {
            for k in 0..n {
                let (db, sb) = ((d + k) * nl, (s + k) * nl);
                lanes.for_each_chunk(|ls, ln| {
                    reg_cur[db + ls..db + ls + ln].copy_from_slice(&arena[sb + ls..sb + ls + ln]);
                });
            }
        }
    }
    for pc in &prog.packed_commits {
        let (d, s) = (pc.dst as usize, pc.psrc as usize);
        if mask.is_empty() {
            reg_cur[d..d + pw].copy_from_slice(&packed[s..s + pw]);
        } else {
            for i in 0..pw {
                reg_cur[d + i] = (packed[s + i] & !mask[i]) | (reg_cur[d + i] & mask[i]);
            }
        }
    }
    for send in &prog.sends {
        push_reg_send(send, arena, nl, channels, lanes, write_parity);
    }
    for ps in &prog.packed_sends {
        push_packed_send(ps, packed, pw, channels, write_parity, mask);
    }
    for ps in &prog.port_sends {
        stage_port_record(ps, arena, nl, channels, lanes, write_parity);
    }
}

/// Applies one tile's injected fault ops to the freshly computed
/// next-state words (strided arena words / packed scratch slots) —
/// stuck-at masks every cycle, transient flips on their one cycle. A
/// handful of AND/OR/XOR word ops per faulted net, no per-step
/// branching: in packed mode one mask op covers 64 lanes at once.
fn apply_faults(faults: &[TileFault], tile: &mut LaneTile, c: u64, pw: usize) {
    let nl = tile.lanes;
    for f in faults {
        match f {
            TileFault::Packed {
                psrc,
                and_mask,
                or_mask,
                flips,
            } => {
                let s = *psrc as usize;
                let words = &mut tile.packed[s..s + pw];
                for (w, (&a, &o)) in words.iter_mut().zip(and_mask.iter().zip(or_mask)) {
                    *w = (*w & a) | o;
                }
                for (at, m) in flips {
                    if *at == c {
                        for (w, &f) in words.iter_mut().zip(m) {
                            *w ^= f;
                        }
                    }
                }
            }
            TileFault::Strided {
                local,
                lane,
                and_mask,
                or_mask,
                flips,
            } => {
                let w = &mut tile.arena[*local as usize * nl + *lane as usize];
                *w = (*w & and_mask) | or_mask;
                for &(at, m) in flips {
                    if at == c {
                        *w ^= m;
                    }
                }
            }
        }
    }
}

/// Copies one outbound register value into its mailbox segment, every
/// active lane.
#[inline]
fn push_reg_send<L: LaneSet>(
    send: &RegSend,
    arena: &[u64],
    nl: usize,
    channels: &[Mailbox],
    lanes: L,
    write_parity: usize,
) {
    let (local, dst, nw) = (send.local as usize, send.dst as usize, send.nw as usize);
    // SAFETY: epoch invariant (`EpochSync`) — every reader of
    // `write_parity` last read it before publishing the epoch this
    // worker waited for last cycle, and reads it next only after
    // observing this cycle's publish; this thread exclusively owns the
    // rows `[dst, dst + nw)` of the mailbox (compile-time layout).
    unsafe {
        let base = channels[send.ch as usize].write_base(write_parity);
        if L::ONE {
            std::ptr::copy_nonoverlapping(arena.as_ptr().add(local), base.add(dst), nw);
        } else {
            // Word-outer: each word's lane row is contiguous in both
            // the arena and the mailbox, so chunks copy as dense rows.
            for k in 0..nw {
                let (sb, db) = ((local + k) * nl, (dst + k) * nl);
                lanes.for_each_chunk(|s, n| {
                    std::ptr::copy_nonoverlapping(arena.as_ptr().add(sb + s), base.add(db + s), n);
                });
            }
        }
    }
}

/// Copies one packed register value (`pw` words, all 64-lane groups at
/// once) into its mailbox slot, blending through the retire mask so
/// early-exited lanes' mailbox bits stay frozen at both epochs.
#[inline]
fn push_packed_send(
    ps: &crate::engine::PackedSend,
    packed: &[u64],
    pw: usize,
    channels: &[Mailbox],
    write_parity: usize,
    mask: &[u64],
) {
    let s = ps.psrc as usize;
    // SAFETY: epoch invariant (`EpochSync`) — no reader touches
    // `write_parity` between the epoch this worker last waited for and
    // the one it publishes after this compute; this thread exclusively
    // owns the packed slot `[dst, dst + pw)` (compile-time layout).
    unsafe {
        let base = channels[ps.ch as usize].write_base(write_parity);
        for i in 0..pw {
            let slot = base.add(ps.dst as usize + i);
            *slot = if mask.is_empty() {
                packed[s + i]
            } else {
                (packed[s + i] & !mask[i]) | (*slot & mask[i])
            };
        }
    }
}

/// Copies one port record `(enable, index, data)` into every
/// destination slot of `ps`, every active lane. The record words land
/// in the mailbox under the same `off * nl + lane` rule as the strided
/// register words.
#[inline]
fn stage_port_record<L: LaneSet>(
    ps: &PortSend,
    arena: &[u64],
    nl: usize,
    channels: &[Mailbox],
    lanes: L,
    write_parity: usize,
) {
    lanes.for_each(|l| {
        let en = arena[ps.en as usize * nl + l] & 1;
        let idx = fold_index_at(arena, ps.idx as usize, ps.idx_w as usize, l, nl);
        for &(ch, off) in &ps.dests {
            let off = off as usize;
            // SAFETY: epoch invariant (`EpochSync`) — no reader touches
            // `write_parity` between the epoch this worker last waited
            // for and the one it publishes after this compute; this
            // thread exclusively owns the record rows at `off` in every
            // lane.
            unsafe {
                let base = channels[ch as usize].write_base(write_parity);
                *base.add(off * nl + l) = en;
                *base.add((off + 1) * nl + l) = idx;
                for k in 0..ps.nw as usize {
                    *base.add((off + PORT_RECORD_HEADER_WORDS as usize + k) * nl + l) =
                        arena[(ps.data as usize + k) * nl + l];
                }
            }
        }
    });
}

/// Off-chip flush for one tile at cycle `c`, all active lanes: pure
/// memory copies into the epoch-`c+1` chip-pair aggregates. The modeled
/// link occupancy is scheduled by the caller (see the worker loop) so
/// the transfer can overlap subsequent tile compute.
fn offchip_flush<L: LaneSet>(
    prog: &Program,
    tile: &mut LaneTile,
    channels: &[Mailbox],
    lanes: L,
    c: u64,
    pw: usize,
    mask: &[u64],
) {
    let write_parity = ((c & 1) ^ 1) as usize;
    let arena = &tile.arena[..];
    let nl = L::width(tile.lanes);
    for send in &prog.offchip_sends {
        push_reg_send(send, arena, nl, channels, lanes, write_parity);
    }
    for ps in &prog.offchip_packed_sends {
        push_packed_send(ps, &tile.packed, pw, channels, write_parity, mask);
    }
    for ps in &prog.offchip_port_sends {
        stage_port_record(ps, arena, nl, channels, lanes, write_parity);
    }
}

/// Communication phase for one tile at cycle `c`, all active lanes:
/// apply all staged port records (own and remote) to the tile's array
/// copies in global `(array, port)` order.
fn exchange_phase<L: LaneSet>(
    prog: &Program,
    tile: &mut LaneTile,
    channels: &[Mailbox],
    lanes: L,
    c: u64,
) {
    let record_parity = ((c & 1) ^ 1) as usize;
    let LaneTile {
        arena,
        arrays,
        arr_words,
        lanes: nl,
        ..
    } = tile;
    let nl = L::width(*nl);
    for ap in &prog.applies {
        let nw = ap.nw as usize;
        let words = arr_words[ap.arr as usize];
        let array = &mut arrays[ap.arr as usize];
        match ap.src {
            RecSrc::Own {
                en,
                idx,
                idx_w,
                data,
            } => {
                lanes.for_each(|l| {
                    let e = arena[en as usize * nl + l] & 1;
                    let i = fold_index_at(arena, idx as usize, idx_w as usize, l, nl);
                    if e == 1 && i < ap.depth as u64 {
                        // Lane `l`'s array copy is one contiguous block.
                        let dst = l * words + i as usize * nw;
                        for k in 0..nw {
                            array[dst + k] = arena[(data as usize + k) * nl + l];
                        }
                    }
                });
            }
            RecSrc::Mail { ch, off } => {
                // SAFETY: epoch invariant (`EpochSync`) — this worker
                // has observed the producer's `done >= c + 1`, so the
                // record is complete, and the producer cannot write
                // `record_parity` again before this worker publishes
                // `c + 2`, which it does only after this exchange.
                let buf = unsafe { channels[ch as usize].read(record_parity) };
                let off = off as usize;
                lanes.for_each(|l| {
                    let e = buf[off * nl + l] & 1;
                    let i = buf[(off + 1) * nl + l];
                    if e == 1 && i < ap.depth as u64 {
                        let dst = l * words + i as usize * nw;
                        let rb = off + PORT_RECORD_HEADER_WORDS as usize;
                        for k in 0..nw {
                            array[dst + k] = buf[(rb + k) * nl + l];
                        }
                    }
                });
            }
        }
    }
}

/// Host nanoseconds per `spin_loop` iteration, measured once per
/// process (used to convert the off-chip spin knob into a modeled link
/// deadline the flush/compute overlap can schedule against).
fn ns_per_spin() -> f64 {
    static SPIN_NS: OnceLock<f64> = OnceLock::new();
    *SPIN_NS.get_or_init(|| {
        let mut iters = 1u64 << 18;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::spin_loop();
            }
            let s = t.elapsed();
            if s.as_millis() >= 5 || iters >= 1 << 28 {
                return s.as_nanos() as f64 / iters as f64;
            }
            iters *= 4;
        }
    })
}

/// Derives, under the fold `groups`, each worker's neighbour set — the
/// workers it shares a buffer with — and the fold's report. An on-chip
/// mailbox joins its two endpoint workers; an off-chip aggregate (with
/// its producer countdown) joins every worker producing into or
/// consuming from it and, when a `staged` transport lands frames in
/// it, the pair's receiving worker — with few workers per chip that is
/// everyone, i.e. a full barrier, as data rather than a second path.
fn fold_neighbors(
    groups: &[Vec<usize>],
    tile_cost: Vec<u64>,
    links: &[Link],
    onchip: usize,
    recv_of: &[Vec<u32>],
    staged: bool,
) -> (Vec<Vec<u32>>, FoldReport) {
    let mut tile_worker = vec![0u32; tile_cost.len()];
    let mut workers = vec![WorkerFold::default(); groups.len()];
    for (w, mine) in groups.iter().enumerate() {
        workers[w].tiles = mine.len() as u32;
        for &t in mine {
            tile_worker[t] = w as u32;
            workers[w].load += tile_cost[t];
        }
    }
    // Per mailbox that workers share: the workers touching it.
    let mut users: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for l in links {
        let (a, b) = (tile_worker[l.from as usize], tile_worker[l.to as usize]);
        workers[a as usize].total_words += l.words as u64;
        if a != b {
            workers[a as usize].cross_words += l.words as u64;
        }
        if a != b || l.mailbox as usize >= onchip {
            users.entry(l.mailbox).or_default().extend([a, b]);
        }
    }
    if staged {
        for (w, pairs) in recv_of.iter().enumerate() {
            for &p in pairs {
                users.entry(onchip as u32 + p).or_default().push(w as u32);
            }
        }
    }
    let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); groups.len()];
    for us in users.values_mut() {
        us.sort_unstable();
        us.dedup();
        for &a in us.iter() {
            neighbors[a as usize].extend(us.iter().filter(|&&b| b != a));
        }
    }
    for (n, w) in neighbors.iter_mut().zip(&mut workers) {
        n.sort_unstable();
        n.dedup();
        w.neighbors = n.len() as u32;
    }
    let fold = FoldReport {
        workers,
        tile_worker,
        tile_cost,
    };
    (neighbors, fold)
}

/// State shared between the engine facades and the worker pool.
struct CoreShared {
    programs: Vec<Program>,
    tiles: Vec<Mutex<LaneTile>>,
    channels: Vec<Mailbox>,
    /// The off-chip fabric: carries the per-chip-pair aggregate
    /// mailboxes across the chosen memory-domain boundary (in-process
    /// direct writes by default — see [`crate::transport`]).
    transport: Box<dyn crate::transport::ChipTransport>,
    /// Number of leading on-chip mailboxes in `channels`.
    onchip: usize,
    /// Single-lane strided words of each mailbox (its packed tail
    /// starts at `mail_words × lanes`).
    mail_words: Vec<u32>,
    /// `input_stride × lanes` strided words plus the packed tail,
    /// read-only during runs.
    inputs: RwLock<Vec<u64>>,
    /// Single-lane strided input section size in words.
    input_stride: usize,
    lanes: usize,
    /// Words per packed 1-bit net (`ceil(lanes / 64)` in packed mode,
    /// 0 in strided mode — doubles as the mode flag).
    pw: usize,
    /// The lane-kernel instantiation the fused opcodes dispatch to,
    /// chosen once at compile (`Compiled::new`).
    isa: VecIsa,
    /// Surviving (not early-exited) lane indices, ascending.
    active: RwLock<Vec<u32>>,
    /// Packed retire mask (`pw` words; bit set = lane early-exited).
    retired: RwLock<Vec<u64>>,
    /// Per-tile compiled fault ops (see [`crate::fault`]): rewritten
    /// between runs, read once per run like the retire mask. Empty
    /// inner vecs everywhere when no campaign is active.
    faults: RwLock<Vec<Vec<TileFault>>>,
    /// The per-cycle sync point; `None` without a pool — the inline
    /// path touches no sync state.
    sync: Option<EpochSync>,
    gate: Barrier,
    done: Barrier,
    cmd_cycles: AtomicU64,
    cmd_start: AtomicU64,
    cmd_timed: AtomicBool,
    exit: AtomicBool,
    offchip_spin: AtomicU32,
    /// Per-worker (compute, offchip, exchange, overlap) ns of the last
    /// timed run.
    phase_ns: Vec<Mutex<(u64, u64, u64, u64)>>,
    /// Per-tile (compute, offchip, exchange) ns of the last timed run.
    tile_ns: Vec<Mutex<(u64, u64, u64)>>,
    /// The engine's metrics registry (one per compiled engine).
    metrics: Arc<MetricsRegistry>,
    /// Lock-free counter handles the run path credits, resolved once
    /// at build.
    ctrs: EngineCounters,
    /// Static (strided, packed) instruction counts summed over every
    /// tile's per-cycle bytecode / run prelude, so op-mix metrics cost
    /// one multiply per run instead of anything per cycle.
    ops_per_cycle: (u64, u64),
    ops_prelude: (u64, u64),
    /// Event-trace sink, or `None` when tracing is off — the `None`
    /// the hot path branches on.
    trace: Option<Arc<TraceSink>>,
    /// One trace track per worker slot (slot 0 doubles as the inline
    /// no-pool path's track). Empty when tracing is off.
    trace_bufs: Vec<Arc<TraceBuf>>,
}

/// The metric handles the engine credits at run granularity (see
/// [`EngineCore::metrics_snapshot`] for the full catalog).
struct EngineCounters {
    cycles: Counter,
    ops_strided: Counter,
    ops_packed: Counter,
    simd_dispatches: Counter,
    lanes_active: Counter,
    lanes_retired: Counter,
    trace_events_dropped: Counter,
}

/// Per-run accumulator of one worker's phase nanoseconds.
#[derive(Default, Clone, Copy)]
struct PhaseAcc {
    comp: u64,
    off: u64,
    exch: u64,
    overlap: u64,
}

/// One worker's per-run tracing state: its track buffer, the sink
/// epoch, and (phase level) the open same-kind merge. The cycle loop
/// holds an `Option<&Tracer>`; `None` is the whole disabled path.
struct Tracer<'a> {
    buf: &'a TraceBuf,
    epoch: Instant,
    tile_level: bool,
    /// Phase level only: the open merged span as
    /// `(kind, first cycle, start, end)`.
    open: Cell<Option<(SpanKind, u64, Instant, Instant)>>,
}

impl<'a> Tracer<'a> {
    fn new(buf: &'a TraceBuf, sink: &TraceSink) -> Self {
        Tracer {
            buf,
            epoch: sink.epoch(),
            tile_level: sink.level() == TraceLevel::Tile,
            open: Cell::new(None),
        }
    }

    fn emit(&self, kind: SpanKind, tile: u32, cycle: u64, start: Instant, end: Instant) {
        self.buf.push(TraceEvent {
            kind,
            tile,
            cycle,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
    }

    /// Records one sub-phase segment: directly at tile level, folded
    /// into the open same-kind run at phase level (segments chain
    /// timestamp-to-timestamp, so same-kind neighbors are contiguous).
    fn seg(&self, kind: SpanKind, tile: u32, cycle: u64, start: Instant, end: Instant) {
        if self.tile_level {
            self.emit(kind, tile, cycle, start, end);
            return;
        }
        match self.open.get() {
            Some((k, cyc, s, _)) if k == kind => self.open.set(Some((k, cyc, s, end))),
            Some((k, cyc, s, e)) => {
                self.emit(k, NO_TILE, cyc, s, e);
                self.open.set(Some((kind, cycle, start, end)));
            }
            None => self.open.set(Some((kind, cycle, start, end))),
        }
    }

    /// Emits the open phase-level merge (end of run).
    fn finish(&self) {
        if let Some((k, cyc, s, e)) = self.open.take() {
            self.emit(k, NO_TILE, cyc, s, e);
        }
    }
}

/// The unified lane-strided execution engine both public simulators
/// wrap: compiled programs, lane-strided tile state, the mailbox
/// fabric, and a persistent worker pool running the one shared cycle
/// loop.
pub(crate) struct EngineCore<'c> {
    pub circuit: &'c Circuit,
    shared: Arc<CoreShared>,
    workers: Vec<JoinHandle<()>>,
    pub reg_home: Vec<RegHome>,
    pub array_home: Vec<ArrayHome>,
    pub output_home: Vec<OutputHome>,
    /// Output ids grouped by owning tile, precomputed so bulk output
    /// peeks (one per VCD timestep) do no per-call grouping work.
    pub outputs_by_tile: Vec<(u32, Vec<u32>)>,
    pub input_off: Vec<u32>,
    /// Whether each input lives in the packed tail of the input buffer.
    pub input_packed: Vec<bool>,
    pub input_by_name: HashMap<String, InputId>,
    pub output_by_name: HashMap<String, u32>,
    pub onchip_mailboxes: usize,
    /// How tiles were folded onto the worker pool (empty without one).
    fold: FoldReport,
    /// The cycle each lane was retired at (`None` while running), so
    /// output peeks on a retired lane replay at its freeze parity.
    retired_at: Vec<Option<u64>>,
    pub cycle: u64,
    /// Periodic auto-checkpointing (`PARENDI_CHECKPOINT=path:every_n`
    /// or the facade setter): runs are chunked at absolute-cycle
    /// multiples of `every_n` and a snapshot is written at each
    /// boundary. `None` = off (the default).
    auto_ckpt: Option<(PathBuf, u64)>,
    /// Declared last: writes the configured trace file after `shared`
    /// (and with it the transport and its writer threads) is gone, so
    /// the drained JSON includes the final transport-send spans. Held
    /// for its `Drop` only.
    _trace_writer: TraceAutoWrite,
}

/// Drop sentinel that writes the trace to its configured path, if any.
struct TraceAutoWrite(Option<Arc<TraceSink>>);

impl Drop for TraceAutoWrite {
    fn drop(&mut self) {
        if let Some(sink) = self.0.take() {
            if let Some(warning) = sink.drop_warning() {
                eprintln!("[trace] WARNING: {warning}");
            }
            match sink.write_configured() {
                Ok(Some(p)) => eprintln!("[trace] wrote {}", p.display()),
                Ok(None) => {}
                Err(e) => eprintln!("[trace] write failed: {e}"),
            }
        }
    }
}

impl<'c> EngineCore<'c> {
    /// Compiles `partition` for `lanes` scenarios and spawns the
    /// persistent worker pool (tiles fold chip-major onto threads).
    /// With `packed`, 1-bit state is laid out bit-packed across lanes.
    pub(crate) fn new(
        circuit: &'c Circuit,
        partition: &Partition,
        threads: usize,
        lanes: usize,
        packed: bool,
    ) -> Self {
        Self::with_transport(
            circuit,
            partition,
            threads,
            lanes,
            packed,
            crate::transport::TransportChoice::from_env(),
        )
    }

    /// [`EngineCore::new`] with an explicit off-chip transport backend
    /// (the plain constructor reads `PARENDI_TRANSPORT`). Tracing
    /// still follows `PARENDI_TRACE` (see [`TraceConfig::from_env`]).
    pub(crate) fn with_transport(
        circuit: &'c Circuit,
        partition: &Partition,
        threads: usize,
        lanes: usize,
        packed: bool,
        transport: crate::transport::TransportChoice,
    ) -> Self {
        Self::with_trace(
            circuit,
            partition,
            threads,
            lanes,
            packed,
            transport,
            TraceConfig::from_env(),
        )
    }

    /// [`EngineCore::with_transport`] with an explicit [`TraceConfig`]
    /// (the plain constructors read `PARENDI_TRACE`). With tracing on,
    /// every worker (and every transport writer thread) registers a
    /// track on the engine's [`TraceSink`]; the trace is written to the
    /// configured path when the engine drops and can be drained at any
    /// point in between.
    pub(crate) fn with_trace(
        circuit: &'c Circuit,
        partition: &Partition,
        threads: usize,
        lanes: usize,
        packed: bool,
        transport: crate::transport::TransportChoice,
        trace_cfg: TraceConfig,
    ) -> Self {
        assert!(lanes >= 1, "need at least one lane");
        Self::from_compiled(
            circuit,
            partition,
            threads,
            Compiled::new(circuit, partition, lanes, packed),
            transport,
            trace_cfg,
        )
    }

    /// Builds an engine around an **already-compiled** artifact — the
    /// compile-cache path: everything [`with_trace`](Self::with_trace)
    /// does *after* `Compiled::new` (lane-strided state init, worker
    /// pool, transport, telemetry), with the expensive compile skipped.
    /// `compiled` must have been produced from this same `circuit` and
    /// `partition` (the cache keys on a content hash of both); the lane
    /// shape comes from the artifact itself.
    pub(crate) fn from_compiled(
        circuit: &'c Circuit,
        partition: &Partition,
        threads: usize,
        compiled: Compiled,
        transport: crate::transport::TransportChoice,
        trace_cfg: TraceConfig,
    ) -> Self {
        assert!(threads >= 1, "need at least one thread");
        let Compiled {
            lanes,
            programs,
            reg_home,
            array_home,
            output_home,
            input_off,
            input_packed,
            input_words,
            input_total_words,
            input_by_name,
            output_by_name,
            tile_reg_words,
            tile_reg_packed,
            array_init,
            channels,
            mail_words,
            onchip_mailboxes,
            tile_chip,
            pw,
            isa,
            offchip_pairs,
            links,
        } = compiled;

        let tiles: Vec<Mutex<LaneTile>> = programs
            .iter()
            .enumerate()
            .map(|(pi, prog)| {
                let aw = prog.arena_words;
                let rw = tile_reg_words[pi] as usize;
                let mut arena_buf = TileBuf::zeroed(aw * lanes);
                let mut reg_buf = TileBuf::zeroed(rw * lanes + tile_reg_packed[pi] as usize * pw);
                let (arena, reg_cur) = (&mut arena_buf[..], &mut reg_buf[..]);
                // Every lane starts from the same constants and register
                // inits: each word fills its lane row.
                for (off, words) in &prog.const_init {
                    for (k, &w) in words.iter().enumerate() {
                        arena[(*off as usize + k) * lanes..][..lanes].fill(w);
                    }
                }
                for (ri, home) in reg_home.iter().enumerate() {
                    if home.tile != pi as u32 {
                        continue;
                    }
                    let init = circuit.regs[ri].init.words();
                    if home.packed {
                        // The init bit broadcast to every lane.
                        let word = if init[0] & 1 == 1 { u64::MAX } else { 0 };
                        let d = rw * lanes + home.off as usize * pw;
                        reg_cur[d..d + pw].fill(word);
                    } else {
                        for (k, &w) in init.iter().enumerate() {
                            reg_cur[(home.off as usize + k) * lanes..][..lanes].fill(w);
                        }
                    }
                }
                let mut arr_words = Vec::new();
                let arrays = partition.processes[pi]
                    .arrays
                    .iter()
                    .map(|a| {
                        let init = &array_init[a.index()];
                        arr_words.push(init.len());
                        let mut buf = Vec::with_capacity(init.len() * lanes);
                        for _ in 0..lanes {
                            buf.extend_from_slice(init);
                        }
                        buf
                    })
                    .collect();
                // 1-bit constants the packed domain consumes transpose
                // once here — the bytecode never re-packs an immutable
                // value.
                let mut packed_buf = vec![0u64; prog.packed_words];
                for &(off, slot) in &prog.const_packs {
                    for l in 0..lanes {
                        let bit = arena[off as usize * lanes + l] & 1;
                        packed_buf[slot as usize + l / 64] |= bit << (l % 64);
                    }
                }
                Mutex::new(LaneTile {
                    arena: arena_buf,
                    packed: packed_buf,
                    reg_cur: reg_buf,
                    arrays,
                    rw,
                    arr_words,
                    lanes,
                    scratch: if lanes > 1 {
                        vec![0u64; aw]
                    } else {
                        Vec::new()
                    },
                })
            })
            .collect();

        // A pool needs two threads and two tiles; otherwise run inline.
        let pool = threads.min(programs.len());
        let worker_count = if pool > 1 { pool } else { 0 };
        let tile_count = programs.len();

        // Telemetry: the registry with its full key set (so every
        // snapshot carries every metric, credited or not).
        let metrics = Arc::new(MetricsRegistry::new());
        let ctrs = EngineCounters {
            cycles: metrics.counter("cycles_run"),
            ops_strided: metrics.counter("ops_strided"),
            ops_packed: metrics.counter("ops_packed"),
            simd_dispatches: metrics.counter("simd_kernel_dispatches"),
            lanes_active: metrics.counter("lanes_active"),
            lanes_retired: metrics.counter("lanes_retired"),
            trace_events_dropped: metrics.counter("trace_events_dropped"),
        };
        ctrs.lanes_active.set(lanes as u64);
        metrics.counter("offchip_bytes_sent");
        // Static op mix, and from it — only when there is a pool to
        // fold onto — each tile's modelled host cost per cycle.
        let mut ops_per_cycle = (0u64, 0u64);
        let mut ops_prelude = (0u64, 0u64);
        let mut tile_cost = Vec::new();
        for prog in &programs {
            let (s, p) = prog.code.op_mix();
            ops_per_cycle = (ops_per_cycle.0 + s, ops_per_cycle.1 + p);
            if worker_count > 1 {
                tile_cost.push(s * lanes as u64 + p * pw as u64 + TILE_FIXED);
            }
            let (s, p) = prog.prelude.op_mix();
            ops_prelude = (ops_prelude.0 + s, ops_prelude.1 + p);
        }
        let groups = worker_groups(&tile_chip, &tile_cost, worker_count);

        // The off-chip fabric: which pairs each tile produces into,
        // and which worker performs each pair's receive (the first
        // worker owning a tile of the consumer chip; the inline path
        // owns everything).
        let produces: Vec<Vec<u32>> = programs
            .iter()
            .map(|prog| {
                let mut ps: Vec<u32> = prog
                    .offchip_sends
                    .iter()
                    .map(|s| s.ch)
                    .chain(prog.offchip_packed_sends.iter().map(|s| s.ch))
                    .chain(
                        prog.offchip_port_sends
                            .iter()
                            .flat_map(|s| s.dests.iter().map(|&(ch, _)| ch)),
                    )
                    .map(|ch| ch - onchip_mailboxes as u32)
                    .collect();
                ps.sort_unstable();
                ps.dedup();
                ps
            })
            .collect();
        let mut recv_of: Vec<Vec<u32>> = vec![Vec::new(); worker_count.max(1)];
        for (pi, &(_, to)) in offchip_pairs.iter().enumerate() {
            let w = if worker_count == 0 {
                0
            } else {
                groups
                    .iter()
                    .position(|g| g.iter().any(|&t| tile_chip[t] == to))
                    .expect("consumer chip owns at least one tile")
            };
            recv_of[w].push(pi as u32);
        }
        // Who waits for whom, and the fold's account of itself: neither
        // is built without a pool.
        let staged = transport != crate::transport::TransportChoice::InProcess;
        let spins = metrics.counter("barrier_spin_waits");
        let parks = metrics.counter("barrier_park_waits");
        let (sync, fold) = if worker_count > 1 {
            let (neighbors, fold) = fold_neighbors(
                &groups,
                tile_cost,
                &links,
                onchip_mailboxes,
                &recv_of,
                staged,
            );
            (Some(EpochSync::new(neighbors, spins, parks)), fold)
        } else {
            (None, FoldReport::default())
        };
        metrics.set("fold_cross_worker_words", fold.cross_worker_words());
        metrics.set("fold_max_load_permille", fold.max_load_permille());
        let widest = fold.workers.iter().map(|w| w.neighbors).max();
        metrics.set("sync_neighbors_max", widest.unwrap_or(0) as u64);
        let trace = TraceSink::new(&trace_cfg);
        let trace_bufs: Vec<Arc<TraceBuf>> = trace
            .as_ref()
            .map(|sink| {
                (0..worker_count.max(1))
                    .map(|t| sink.register(&format!("engine-worker-{t}")))
                    .collect()
            })
            .unwrap_or_default();

        let transport = crate::transport::build(
            transport,
            crate::transport::TransportInit {
                pairs: &offchip_pairs,
                channels: &channels,
                onchip: onchip_mailboxes,
                produces,
                recv_of,
                frames_sent: metrics.counter("frames_sent"),
                frames_received: metrics.counter("frames_received"),
                trace: trace.clone(),
            },
        );

        let shared = Arc::new(CoreShared {
            programs,
            tiles,
            channels,
            transport,
            onchip: onchip_mailboxes,
            mail_words,
            inputs: RwLock::new(vec![0u64; input_total_words]),
            input_stride: input_words as usize,
            lanes,
            pw,
            isa,
            active: RwLock::new((0..lanes as u32).collect()),
            retired: RwLock::new(vec![0u64; pw]),
            faults: RwLock::new(vec![Vec::new(); tile_count]),
            sync,
            gate: Barrier::new(worker_count + 1),
            done: Barrier::new(worker_count + 1),
            cmd_cycles: AtomicU64::new(0),
            cmd_start: AtomicU64::new(0),
            cmd_timed: AtomicBool::new(false),
            exit: AtomicBool::new(false),
            offchip_spin: AtomicU32::new(0),
            phase_ns: (0..worker_count.max(1))
                .map(|_| Mutex::new((0, 0, 0, 0)))
                .collect(),
            tile_ns: (0..tile_count).map(|_| Mutex::new((0, 0, 0))).collect(),
            metrics,
            ctrs,
            ops_per_cycle,
            ops_prelude,
            trace,
            trace_bufs,
        });
        let workers = groups
            .into_iter()
            .enumerate()
            .map(|(t, mine)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("engine-worker-{t}"))
                    .spawn(move || {
                        crate::transport::maybe_pin_to_core(t);
                        worker_loop(&shared, t, mine)
                    })
                    .expect("spawn engine worker")
            })
            .collect();

        let mut grouped: HashMap<u32, Vec<u32>> = HashMap::new();
        for (oi, home) in output_home.iter().enumerate() {
            assert!(home.tile != u32::MAX, "output {oi} has no owning tile");
            grouped.entry(home.tile).or_default().push(oi as u32);
        }
        let outputs_by_tile: Vec<(u32, Vec<u32>)> = grouped.into_iter().collect();

        let _trace_writer = TraceAutoWrite(shared.trace.clone());
        EngineCore {
            circuit,
            shared,
            workers,
            reg_home,
            array_home,
            output_home,
            outputs_by_tile,
            input_off,
            input_packed,
            input_by_name,
            output_by_name,
            onchip_mailboxes,
            fold,
            retired_at: vec![None; lanes],
            cycle: 0,
            auto_ckpt: auto_checkpoint_from_env(),
            _trace_writer,
        }
    }

    pub(crate) fn lanes(&self) -> usize {
        self.shared.lanes
    }

    /// The tile→worker fold and what it costs (see [`FoldReport`]).
    pub(crate) fn fold_report(&self) -> &FoldReport {
        &self.fold
    }

    /// Whether 1-bit state runs bit-packed across lanes.
    pub(crate) fn is_packed(&self) -> bool {
        self.shared.pw > 0
    }

    /// Name of the lane-kernel instantiation the fused opcodes use.
    pub(crate) fn isa_name(&self) -> &'static str {
        self.shared.isa.name()
    }

    pub(crate) fn tiles(&self) -> usize {
        self.shared.programs.len()
    }

    pub(crate) fn channels(&self) -> usize {
        self.shared.channels.len()
    }

    pub(crate) fn set_offchip_spin(&self, spins: u32) {
        self.shared.offchip_spin.store(spins, Ordering::Relaxed);
    }

    /// Total bytes the off-chip transport has carried so far (whole
    /// pair aggregates per completed cycle — comparable across
    /// backends; see [`crate::transport`]).
    pub(crate) fn offchip_bytes_sent(&self) -> u64 {
        self.shared.transport.bytes_sent()
    }

    /// Short name of the off-chip transport backend in use.
    pub(crate) fn transport_name(&self) -> &'static str {
        self.shared.transport.name()
    }

    /// Point-in-time copy of every engine metric. Gauges
    /// (`offchip_bytes_sent`, `lanes_active`/`lanes_retired`,
    /// `trace_events_dropped`) are refreshed here; counters
    /// (`cycles_run`, `ops_strided`/`ops_packed`,
    /// `simd_kernel_dispatches`, `frames_sent`/`frames_received`,
    /// `barrier_spin_waits`/`barrier_park_waits`) accumulate as the
    /// engine runs.
    pub(crate) fn metrics_snapshot(&self) -> MetricsSnapshot {
        let sh = &self.shared;
        sh.metrics
            .set("offchip_bytes_sent", sh.transport.bytes_sent());
        let active = self.active_lanes() as u64;
        sh.ctrs.lanes_active.set(active);
        sh.ctrs.lanes_retired.set(sh.lanes as u64 - active);
        if let Some(sink) = &sh.trace {
            sh.ctrs.trace_events_dropped.set(sink.total_dropped());
        }
        sh.metrics.snapshot()
    }

    /// The event-trace sink, when tracing is enabled.
    pub(crate) fn trace(&self) -> Option<&Arc<TraceSink>> {
        self.shared.trace.as_ref()
    }

    /// Static opcode/pair statistics of the compiled bytecode.
    pub(crate) fn code_stats(&self) -> parendi_telemetry::CodeStats {
        crate::engine::collect_code_stats(&self.shared.programs)
    }

    /// Number of lanes still running (not early-exited).
    pub(crate) fn active_lanes(&self) -> usize {
        self.shared.active.read().unwrap().len()
    }

    /// Whether `lane` is still running.
    pub(crate) fn lane_is_active(&self, lane: usize) -> bool {
        self.shared
            .active
            .read()
            .unwrap()
            .binary_search(&(lane as u32))
            .is_ok()
    }

    /// Retires `lane`: from the next dispatch on, no step, latch, send,
    /// or apply touches its state — registers and arrays freeze at
    /// their current values while the gang keeps running. The retire
    /// cycle is recorded so output peeks keep replaying the lane at
    /// its freeze-epoch mailbox parity.
    pub(crate) fn finish_lane(&mut self, lane: usize) {
        assert!(lane < self.shared.lanes, "lane {lane} out of range");
        let mut active = self.shared.active.write().unwrap();
        if let Ok(i) = active.binary_search(&(lane as u32)) {
            active.remove(i);
            self.retired_at[lane] = Some(self.cycle);
            self.shared.ctrs.lanes_active.set(active.len() as u64);
            self.shared
                .ctrs
                .lanes_retired
                .set((self.shared.lanes - active.len()) as u64);
            if self.shared.pw > 0 {
                // Packed commits/sends blend through this mask so the
                // retired lane's packed bits freeze.
                self.shared.retired.write().unwrap()[lane / 64] |= 1u64 << (lane % 64);
            }
        }
    }

    /// The cycle whose epoch a peek of `lane` must read: the current
    /// cycle while running, the freeze cycle once retired (a retired
    /// lane's mailbox epochs stop being written, so the live parity
    /// would read the wrong buffer on odd distances past retirement).
    fn peek_cycle(&self, lane: usize) -> u64 {
        self.retired_at[lane].unwrap_or(self.cycle)
    }

    /// The engine shape a [`Snapshot`] must match to be restorable
    /// here: circuit name, lane shape, the layout word (every gang is
    /// word-interleaved), and the exact word counts of every buffer.
    fn fingerprint(&self) -> Fingerprint {
        let sh = &self.shared;
        Fingerprint {
            circuit: self.circuit.name.clone(),
            lanes: sh.lanes as u32,
            pw: sh.pw as u32,
            word_major: sh.lanes >= 2,
            input_words: sh.inputs.read().unwrap().len() as u64,
            onchip: sh.onchip as u32,
            channel_words: sh.channels.iter().map(|m| m.words() as u64).collect(),
            tiles: sh
                .tiles
                .iter()
                .map(|t| {
                    let t = t.lock().unwrap();
                    TileShape {
                        arena: t.arena.len() as u64,
                        packed: t.packed.len() as u64,
                        regs: t.reg_cur.len() as u64,
                        arrays: t.arrays.iter().map(|a| a.len() as u64).collect(),
                    }
                })
                .collect(),
        }
    }

    /// Captures the complete engine state as a restorable [`Snapshot`]
    /// (see [`crate::checkpoint`]). Legal between runs only, which the
    /// facades guarantee by construction — the worker pool is parked at
    /// its gate, so no thread touches any buffer.
    pub(crate) fn snapshot(&self) -> Snapshot {
        let sh = &self.shared;
        let tiles = sh
            .tiles
            .iter()
            .map(|t| {
                let t = t.lock().unwrap();
                TileState {
                    arena: t.arena.to_vec(),
                    packed: t.packed.clone(),
                    reg_cur: t.reg_cur.to_vec(),
                    arrays: t.arrays.clone(),
                }
            })
            .collect();
        // SAFETY: between runs no reader or writer of either mailbox
        // parity exists (the pool is parked at the gate barrier).
        let channels = sh
            .channels
            .iter()
            .map(|m| unsafe { [m.read(0).to_vec(), m.read(1).to_vec()] })
            .collect();
        Snapshot {
            fingerprint: self.fingerprint(),
            cycle: self.cycle,
            tiles,
            channels,
            inputs: sh.inputs.read().unwrap().clone(),
            active: sh.active.read().unwrap().clone(),
            retired: sh.retired.read().unwrap().clone(),
            retired_at: Snapshot::encode_retired_at(&self.retired_at),
        }
    }

    /// Restores state captured by [`snapshot`](Self::snapshot) — on
    /// this engine or any engine compiled from the same circuit,
    /// partition, and lane shape, on **any** transport backend and
    /// thread count. The next run continues bit-identically to a run
    /// that was never interrupted. Fails with
    /// [`SnapshotError::ShapeMismatch`] (leaving the engine untouched)
    /// when the snapshot does not fit.
    pub(crate) fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        snap.fingerprint.matches(&self.fingerprint())?;
        let sh = &self.shared;
        for (tile, st) in sh.tiles.iter().zip(&snap.tiles) {
            let mut t = tile.lock().unwrap();
            t.arena.copy_from_slice(&st.arena);
            t.packed.copy_from_slice(&st.packed);
            t.reg_cur.copy_from_slice(&st.reg_cur);
            for (a, sa) in t.arrays.iter_mut().zip(&st.arrays) {
                a.copy_from_slice(sa);
            }
        }
        for (m, bufs) in sh.channels.iter().zip(&snap.channels) {
            for (parity, buf) in bufs.iter().enumerate() {
                // SAFETY: between runs (pool parked at the gate) no
                // other reader or writer of either parity exists.
                unsafe {
                    std::ptr::copy_nonoverlapping(buf.as_ptr(), m.write_base(parity), buf.len());
                }
            }
        }
        sh.inputs.write().unwrap().copy_from_slice(&snap.inputs);
        *sh.active.write().unwrap() = snap.active.clone();
        sh.retired.write().unwrap().copy_from_slice(&snap.retired);
        self.retired_at = snap.decode_retired_at();
        self.cycle = snap.cycle;
        sh.ctrs.lanes_active.set(snap.active.len() as u64);
        sh.ctrs
            .lanes_retired
            .set(sh.lanes as u64 - snap.active.len() as u64);
        // Staged transports mirror the consumer fabric: re-sync their
        // staging copies (and any cross-process epoch sequencing) to
        // the state just written.
        sh.transport.resync(&sh.channels, sh.onchip, self.cycle);
        Ok(())
    }

    /// Broadcasts lane `golden`'s complete state — strided and packed
    /// arenas, register files, arrays, inputs, and both parities of
    /// every mailbox — across **all** lanes, and reactivates every
    /// retired lane: the inverse of [`finish_lane`](Self::finish_lane).
    /// Run one lane through a common reset/boot prefix, fork, then
    /// diverge per-lane stimulus from here — the boot cost is paid once
    /// instead of once per scenario.
    pub(crate) fn fork_lanes(&mut self, golden: usize) {
        let sh = &self.shared;
        let (lanes, pw) = (sh.lanes, sh.pw);
        assert!(golden < lanes, "golden lane {golden} out of range");
        assert!(
            self.lane_is_active(golden),
            "golden lane {golden} is retired"
        );
        // Broadcast one strided buffer (each word's lane row filled
        // from the golden lane), and one packed block (`pw` words per
        // slot: whole words from the golden bit).
        let bcast = |buf: &mut [u64]| {
            for row in buf.chunks_exact_mut(lanes) {
                row.fill(row[golden]);
            }
        };
        let bcast_packed = |buf: &mut [u64]| {
            for slot in buf.chunks_exact_mut(pw.max(1)) {
                let bit = (slot[golden / 64] >> (golden % 64)) & 1;
                slot.fill(if bit == 1 { u64::MAX } else { 0 });
            }
        };
        for tile in &sh.tiles {
            let mut t = tile.lock().unwrap();
            let rw = t.rw;
            bcast(&mut t.arena);
            if pw > 0 {
                bcast_packed(&mut t.packed);
            }
            // Register file: strided head, packed tail.
            let (head, tail) = t.reg_cur.split_at_mut(rw * lanes);
            bcast(head);
            if pw > 0 {
                bcast_packed(tail);
            }
            // Arrays hold one contiguous block per lane: block copies.
            let strides = t.arr_words.clone();
            for (a, stride) in t.arrays.iter_mut().zip(strides) {
                for l in 0..lanes {
                    a.copy_within(golden * stride..(golden + 1) * stride, l * stride);
                }
            }
        }
        // Mailboxes: strided region (`mail_words[ch]` lane rows) then
        // the packed region in `pw`-word slots — both parities, so
        // every epoch a resumed run can read carries golden's history.
        for (ch, m) in sh.channels.iter().enumerate() {
            let mw = sh.mail_words[ch] as usize;
            for parity in 0..2 {
                // SAFETY: between runs (pool parked at the gate) no
                // other reader or writer of either parity exists.
                let buf =
                    unsafe { std::slice::from_raw_parts_mut(m.write_base(parity), m.words()) };
                let (head, tail) = buf.split_at_mut(mw * lanes);
                bcast(head);
                if pw > 0 {
                    bcast_packed(tail);
                }
            }
        }
        // Inputs: strided region, then the packed tail.
        {
            let mut inputs = sh.inputs.write().unwrap();
            let (head, tail) = inputs.split_at_mut(sh.input_stride * lanes);
            bcast(head);
            if pw > 0 {
                bcast_packed(tail);
            }
        }
        *sh.active.write().unwrap() = (0..lanes as u32).collect();
        sh.retired.write().unwrap().fill(0);
        self.retired_at = vec![None; lanes];
        sh.ctrs.lanes_active.set(lanes as u64);
        sh.ctrs.lanes_retired.set(0);
        sh.transport.resync(&sh.channels, sh.onchip, self.cycle);
    }

    /// Periodic auto-checkpointing: write a snapshot to `path` every
    /// `every` absolute cycles (the programmatic twin of
    /// `PARENDI_CHECKPOINT=path:every`). Chunking a run at checkpoint
    /// boundaries is semantics-preserving — runs stay bit-identical.
    pub(crate) fn set_auto_checkpoint(&mut self, path: PathBuf, every: u64) {
        assert!(every > 0, "checkpoint interval must be positive");
        self.auto_ckpt = Some((path, every));
    }

    /// The engine's metrics registry (campaign counters register here).
    pub(crate) fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// Installs compiled fault ops (replacing any previous set). Legal
    /// between runs; the next run applies them every cycle.
    pub(crate) fn set_faults(&mut self, faults: Vec<Vec<TileFault>>) {
        assert_eq!(faults.len(), self.shared.programs.len());
        *self.shared.faults.write().unwrap() = faults;
    }

    /// Removes every installed fault op.
    pub(crate) fn clear_faults(&mut self) {
        let n = self.shared.programs.len();
        *self.shared.faults.write().unwrap() = vec![Vec::new(); n];
    }

    /// Compiles a [`FaultPlan`] into per-tile fault ops: each spec's
    /// register resolves to the arena word (strided) or packed scratch
    /// slot (packed) holding the register's *next* value, where the
    /// cycle loop applies the mask after compute and before the latch —
    /// so commits and mailbox sends both observe the faulted bit.
    pub(crate) fn compile_fault_plan(
        &self,
        plan: &FaultPlan,
    ) -> Result<Vec<Vec<TileFault>>, String> {
        let sh = &self.shared;
        let (lanes, pw) = (sh.lanes, sh.pw);
        let mut out: Vec<Vec<TileFault>> = vec![Vec::new(); sh.programs.len()];
        for spec in plan.specs() {
            let lane = spec.lane as usize;
            if lane >= lanes {
                return Err(format!("fault lane {lane} out of range ({lanes} lanes)"));
            }
            let ri = self
                .circuit
                .regs
                .iter()
                .position(|r| r.name == spec.reg)
                .ok_or_else(|| format!("no register named {:?}", spec.reg))?;
            let r = &self.circuit.regs[ri];
            if spec.bit >= r.width {
                return Err(format!(
                    "bit {} out of range for {} ({} bits)",
                    spec.bit, r.name, r.width
                ));
            }
            let home = self.reg_home[ri];
            if home.tile == u32::MAX {
                return Err(format!("register {} has no producing tile", r.name));
            }
            let prog = &sh.programs[home.tile as usize];
            let fault = if home.packed {
                let rw = sh.tiles[home.tile as usize].lock().unwrap().rw;
                let dst = (rw * lanes + home.off as usize * pw) as u32;
                let pc = prog
                    .packed_commits
                    .iter()
                    .find(|pc| pc.dst == dst)
                    .ok_or_else(|| format!("register {} is never committed", r.name))?;
                let (mut and_mask, mut or_mask) = (vec![u64::MAX; pw], vec![0u64; pw]);
                let mut flips = Vec::new();
                let (w, b) = (lane / 64, 1u64 << (lane % 64));
                match spec.kind {
                    FaultKind::StuckAt0 => and_mask[w] &= !b,
                    FaultKind::StuckAt1 => or_mask[w] |= b,
                    FaultKind::FlipAt(at) => {
                        let mut m = vec![0u64; pw];
                        m[w] = b;
                        flips.push((at, m));
                    }
                }
                TileFault::Packed {
                    psrc: pc.psrc,
                    and_mask,
                    or_mask,
                    flips,
                }
            } else {
                let rc = prog
                    .commits
                    .iter()
                    .find(|rc| rc.dst == home.off && spec.bit / 64 < rc.nw)
                    .ok_or_else(|| format!("register {} is never committed", r.name))?;
                let b = 1u64 << (spec.bit % 64);
                let (mut and_mask, mut or_mask) = (u64::MAX, 0u64);
                let mut flips = Vec::new();
                match spec.kind {
                    FaultKind::StuckAt0 => and_mask &= !b,
                    FaultKind::StuckAt1 => or_mask |= b,
                    FaultKind::FlipAt(at) => flips.push((at, b)),
                }
                TileFault::Strided {
                    local: rc.local + spec.bit / 64,
                    lane: spec.lane,
                    and_mask,
                    or_mask,
                    flips,
                }
            };
            out[home.tile as usize].push(fault);
        }
        Ok(out)
    }

    /// Absolute word offset of packed input `i`'s block in the input
    /// buffer.
    fn packed_input_base(&self, i: usize) -> usize {
        self.shared.input_stride * self.shared.lanes + self.input_off[i] as usize * self.shared.pw
    }

    /// Reads `n` strided words at offset `off` of `lane` from `buf`,
    /// de-interleaving them.
    fn gather_lane(&self, buf: &[u64], off: usize, n: usize, lane: usize) -> Vec<u64> {
        let lanes = self.shared.lanes;
        (0..n).map(|k| buf[(off + k) * lanes + lane]).collect()
    }

    /// Drives input `id` in one lane (held until changed). Packed 1-bit
    /// inputs take the bit-scatter path: one bit of the packed block.
    pub(crate) fn set_input_lane(&mut self, id: InputId, lane: usize, value: &Bits) {
        let decl = &self.circuit.inputs[id.index()];
        assert_eq!(decl.width, value.width(), "input {} width", decl.name);
        assert!(lane < self.shared.lanes, "lane {lane} out of range");
        let mut inputs = self.shared.inputs.write().unwrap();
        if self.input_packed[id.index()] {
            let w = &mut inputs[self.packed_input_base(id.index()) + lane / 64];
            let bit = value.words()[0] & 1;
            *w = (*w & !(1u64 << (lane % 64))) | (bit << (lane % 64));
            return;
        }
        let base = self.input_off[id.index()] as usize;
        for (k, &w) in value.words().iter().enumerate() {
            inputs[(base + k) * self.shared.lanes + lane] = w;
        }
    }

    /// Drives input `id` identically in every lane (bit broadcast for
    /// packed 1-bit inputs).
    pub(crate) fn set_input_all(&mut self, id: InputId, value: &Bits) {
        let decl = &self.circuit.inputs[id.index()];
        assert_eq!(decl.width, value.width(), "input {} width", decl.name);
        let mut inputs = self.shared.inputs.write().unwrap();
        if self.input_packed[id.index()] {
            let base = self.packed_input_base(id.index());
            let word = if value.words()[0] & 1 == 1 {
                u64::MAX
            } else {
                0
            };
            inputs[base..base + self.shared.pw].fill(word);
            return;
        }
        let (base, lanes) = (self.input_off[id.index()] as usize, self.shared.lanes);
        for (k, &w) in value.words().iter().enumerate() {
            inputs[(base + k) * lanes..][..lanes].fill(w);
        }
    }

    pub(crate) fn input_id(&self, name: &str) -> InputId {
        *self
            .input_by_name
            .get(name)
            .unwrap_or_else(|| panic!("no input {name}"))
    }

    /// The current value of a register in `lane` (bit gather for packed
    /// 1-bit registers).
    pub(crate) fn reg_value_lane(&self, id: parendi_rtl::RegId, lane: usize) -> Bits {
        let r = &self.circuit.regs[id.index()];
        let home = self.reg_home[id.index()];
        assert!(home.tile != u32::MAX, "register {} has no producer", r.name);
        assert!(lane < self.shared.lanes, "lane {lane} out of range");
        let tile = self.shared.tiles[home.tile as usize].lock().unwrap();
        if home.packed {
            let base = tile.rw * self.shared.lanes + home.off as usize * self.shared.pw;
            let bit = (tile.reg_cur[base + lane / 64] >> (lane % 64)) & 1;
            return Bits::from_u64(1, bit);
        }
        let words = self.gather_lane(&tile.reg_cur, home.off as usize, home.words as usize, lane);
        Bits::from_words(r.width, &words)
    }

    /// An element of an array in `lane`.
    pub(crate) fn array_value_lane(
        &self,
        id: parendi_rtl::ArrayId,
        index: u32,
        lane: usize,
    ) -> Bits {
        let a = &self.circuit.arrays[id.index()];
        assert!(index < a.depth);
        assert!(lane < self.shared.lanes, "lane {lane} out of range");
        let w = words_for(a.width);
        match &self.array_home[id.index()] {
            ArrayHome::Held { tile, slot } => {
                let t = self.shared.tiles[*tile as usize].lock().unwrap();
                let base = lane * t.arr_words[*slot as usize] + index as usize * w;
                Bits::from_words(a.width, &t.arrays[*slot as usize][base..][..w])
            }
            // Never written: identical in every lane.
            ArrayHome::Spare(buf) => Bits::from_words(a.width, &buf[index as usize * w..][..w]),
        }
    }

    /// Replays tile `t`'s bytecode (all lanes) against current
    /// architectural state — the engine behind `peek_output`. `cycle`
    /// selects the mailbox epoch read for remote registers (the peeked
    /// lane's [`peek_cycle`](Self::peek_cycle)).
    fn replay_tile(&self, t: usize, inputs: &[u64], tile: &mut LaneTile, cycle: u64) {
        let shared = &self.shared;
        let prog = &shared.programs[t];
        // The run-invariant prelude must replay too: a peek may follow
        // input pokes the last run never saw.
        for code in [&prog.prelude, &prog.code] {
            if code.ops.is_empty() {
                continue;
            }
            let parity = (cycle & 1) as usize;
            if shared.lanes == 1 {
                exec_code(
                    code,
                    tile,
                    inputs,
                    &shared.channels,
                    parity,
                    OneLane,
                    shared.isa,
                );
            } else {
                exec_code(
                    code,
                    tile,
                    inputs,
                    &shared.channels,
                    parity,
                    AllLanes(shared.lanes),
                    shared.isa,
                );
            }
        }
    }

    /// The current value of primary output `name` in `lane`, or `None`
    /// if no such output exists.
    pub(crate) fn peek_output_lane(&self, name: &str, lane: usize) -> Option<Bits> {
        let &oi = self.output_by_name.get(name)?;
        assert!(lane < self.shared.lanes, "lane {lane} out of range");
        let home = self.output_home[oi as usize];
        assert!(home.tile != u32::MAX, "output {name} has no owning tile");
        let width = self.circuit.width(self.circuit.outputs[oi as usize].node);
        let inputs = self.shared.inputs.read().unwrap();
        let mut tile = self.shared.tiles[home.tile as usize].lock().unwrap();
        self.replay_tile(
            home.tile as usize,
            &inputs,
            &mut tile,
            self.peek_cycle(lane),
        );
        let words = self.gather_lane(&tile.arena, home.off as usize, words_for(width), lane);
        Some(Bits::from_words(width, &words))
    }

    /// All primary outputs of `lane`, indexed like `circuit.outputs`.
    /// Each owning tile's bytecode is replayed **once**, however many
    /// outputs it computes.
    pub(crate) fn peek_outputs_lane(&self, lane: usize) -> Vec<Bits> {
        assert!(lane < self.shared.lanes, "lane {lane} out of range");
        let inputs = self.shared.inputs.read().unwrap();
        let mut results: Vec<Option<Bits>> = vec![None; self.circuit.outputs.len()];
        for (t, ois) in &self.outputs_by_tile {
            let t = *t as usize;
            let mut tile = self.shared.tiles[t].lock().unwrap();
            self.replay_tile(t, &inputs, &mut tile, self.peek_cycle(lane));
            for &oi in ois {
                let home = self.output_home[oi as usize];
                let width = self.circuit.width(self.circuit.outputs[oi as usize].node);
                let words =
                    self.gather_lane(&tile.arena, home.off as usize, words_for(width), lane);
                results[oi as usize] = Some(Bits::from_words(width, &words));
            }
        }
        results
            .into_iter()
            .map(|b| b.expect("complete partition owns every output"))
            .collect()
    }

    /// Runs `cycles` cycles; `timed` additionally collects the phase
    /// split and per-tile histograms. The returned `lanes` field counts
    /// the *active* lanes (zero once every lane retired), so
    /// `lane_cycles_per_s` reports real aggregate scenario throughput
    /// under early exit — including an honest zero for an all-retired
    /// gang. With auto-checkpointing configured the run is chunked at
    /// interval boundaries (semantics-preserving — each chunk boundary
    /// is an ordinary run boundary) and a snapshot is written at each;
    /// a failed write warns and keeps running (checkpointing is crash
    /// protection, not a correctness dependency).
    pub(crate) fn run_inner(&mut self, cycles: u64, timed: bool) -> BspPhases {
        let Some((path, every)) = self.auto_ckpt.clone() else {
            return self.run_chunk(cycles, timed);
        };
        let mut left = cycles;
        let mut agg: Option<BspPhases> = None;
        loop {
            let chunk = (every - self.cycle % every).min(left);
            let ph = self.run_chunk(chunk, timed);
            merge_phases(&mut agg, ph);
            left -= chunk;
            if chunk > 0 && self.cycle.is_multiple_of(every) {
                if let Err(e) = self.snapshot().write(&path) {
                    eprintln!("[checkpoint] write {} failed: {e}", path.display());
                }
            }
            if left == 0 {
                return agg.expect("at least one chunk ran");
            }
        }
    }

    /// One uninterrupted dispatch into the cycle loop (the whole run
    /// when auto-checkpointing is off).
    fn run_chunk(&mut self, cycles: u64, timed: bool) -> BspPhases {
        let start = Instant::now();
        let active_count = self.active_lanes() as u32;
        if cycles == 0 {
            return BspPhases {
                lanes: active_count,
                ..BspPhases::default()
            };
        }
        let mut acc = PhaseAcc::default();
        let mut per_tile = Vec::new();
        if self.workers.is_empty() {
            let shared = &self.shared;
            let spin = shared.offchip_spin.load(Ordering::Relaxed);
            let inputs = shared.inputs.read().unwrap();
            let active = shared.active.read().unwrap();
            let mine: Vec<usize> = (0..shared.tiles.len()).collect();
            let mut guards: Vec<_> = shared.tiles.iter().map(|t| t.lock().unwrap()).collect();
            // Untimed runs skip the per-tile histogram entirely: no
            // allocation, and (tracing off) no clock reads either.
            let mut tile_ns = if timed {
                vec![(0u64, 0u64, 0u64); guards.len()]
            } else {
                Vec::new()
            };
            let tracer = shared
                .trace
                .as_ref()
                .map(|sink| Tracer::new(&shared.trace_bufs[0], sink));
            dispatch_lanes(shared, &active, |lanes| {
                run_cycles(
                    shared,
                    &mine,
                    &mut guards,
                    &inputs,
                    self.cycle,
                    cycles,
                    timed,
                    spin,
                    lanes,
                    0,
                    &mut tile_ns,
                    &mut acc,
                    tracer.as_ref(),
                )
            });
            if timed {
                per_tile = tile_ns
                    .iter()
                    .map(|&(c, o, e)| TilePhases {
                        compute_s: c as f64 * 1e-9,
                        offchip_s: o as f64 * 1e-9,
                        exchange_s: e as f64 * 1e-9,
                    })
                    .collect();
            }
        } else {
            self.shared.cmd_cycles.store(cycles, Ordering::SeqCst);
            self.shared.cmd_start.store(self.cycle, Ordering::SeqCst);
            self.shared.cmd_timed.store(timed, Ordering::SeqCst);
            // Epochs are run-relative (a restore may have moved `cycle`
            // backwards); the gate publishes the rewind to the pool.
            if let Some(sync) = &self.shared.sync {
                sync.reset();
            }
            self.shared.gate.wait();
            self.shared.done.wait();
            if timed {
                // Straggler = the worker with the most real work
                // (compute + flush). Totals can't rank workers:
                // neighbour waits absorb the slack, equalizing every
                // connected worker's span up to wakeup jitter.
                for slot in &self.shared.phase_ns {
                    let (c, o, e, v) = *slot.lock().unwrap();
                    if c + o > acc.comp + acc.off {
                        acc = PhaseAcc {
                            comp: c,
                            off: o,
                            exch: e,
                            overlap: v,
                        };
                    }
                }
                per_tile = self
                    .shared
                    .tile_ns
                    .iter()
                    .map(|slot| {
                        let (c, o, e) = *slot.lock().unwrap();
                        TilePhases {
                            compute_s: c as f64 * 1e-9,
                            offchip_s: o as f64 * 1e-9,
                            exchange_s: e as f64 * 1e-9,
                        }
                    })
                    .collect();
            }
        }
        self.cycle += cycles;
        // Run-level metric credits: static op mix × cycles (prelude
        // once per run), all off the hot path.
        let sh = &self.shared;
        sh.ctrs.cycles.add(cycles);
        let strided = sh.ops_per_cycle.0 * cycles + sh.ops_prelude.0;
        let packed = sh.ops_per_cycle.1 * cycles + sh.ops_prelude.1;
        sh.ctrs.ops_strided.add(strided);
        sh.ctrs.ops_packed.add(packed);
        if sh.isa != VecIsa::Scalar {
            // Each fused strided opcode calls one out-of-line vector
            // kernel; the inlined loops make no such call.
            sh.ctrs.simd_dispatches.add(strided);
        }
        BspPhases {
            total_s: start.elapsed().as_secs_f64(),
            compute_s: acc.comp as f64 * 1e-9,
            offchip_s: acc.off as f64 * 1e-9,
            exchange_s: acc.exch as f64 * 1e-9,
            overlap_s: acc.overlap as f64 * 1e-9,
            per_tile,
            cycles,
            lanes: active_count,
        }
    }
}

impl Drop for EngineCore<'_> {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shared.exit.store(true, Ordering::SeqCst);
            self.shared.gate.wait();
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
        }
    }
}

/// Folds one chunk's phases into the checkpointed run's aggregate:
/// scalars and cycles sum, per-tile histograms add element-wise, and
/// the lane count reports the final chunk's active lanes.
fn merge_phases(agg: &mut Option<BspPhases>, ph: BspPhases) {
    let Some(acc) = agg else {
        *agg = Some(ph);
        return;
    };
    acc.total_s += ph.total_s;
    acc.compute_s += ph.compute_s;
    acc.offchip_s += ph.offchip_s;
    acc.exchange_s += ph.exchange_s;
    acc.overlap_s += ph.overlap_s;
    acc.cycles += ph.cycles;
    acc.lanes = ph.lanes;
    if acc.per_tile.len() == ph.per_tile.len() {
        for (a, p) in acc.per_tile.iter_mut().zip(&ph.per_tile) {
            a.compute_s += p.compute_s;
            a.offchip_s += p.offchip_s;
            a.exchange_s += p.exchange_s;
        }
    } else if !ph.per_tile.is_empty() {
        acc.per_tile = ph.per_tile;
    }
}

/// Picks the cheapest [`LaneSet`] for the current active-lane list and
/// hands the cycle loop monomorphized for it to `f`: a one-lane engine,
/// a dense gang, or an early-exited gang.
fn dispatch_lanes<R>(shared: &CoreShared, active: &[u32], f: impl FnOnce(&dyn DynLanes) -> R) -> R {
    if shared.lanes == 1 && active.len() == 1 {
        f(&OneLane)
    } else if active.len() == shared.lanes {
        f(&AllLanes(shared.lanes))
    } else {
        f(&LaneList(active))
    }
}

/// Object-safe shim over [`LaneSet`] so the run dispatch can pick an
/// implementation at runtime while the cycle loop itself stays
/// monomorphized (the `dyn` call happens once per run, not per op).
trait DynLanes {
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        shared: &CoreShared,
        mine: &[usize],
        guards: &mut [MutexGuard<'_, LaneTile>],
        inputs: &[u64],
        start: u64,
        cycles: u64,
        timed: bool,
        spin: u32,
        who: usize,
        tile_ns: &mut [(u64, u64, u64)],
        acc: &mut PhaseAcc,
        tracer: Option<&Tracer<'_>>,
    );
}

impl<L: LaneSet> DynLanes for L {
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        shared: &CoreShared,
        mine: &[usize],
        guards: &mut [MutexGuard<'_, LaneTile>],
        inputs: &[u64],
        start: u64,
        cycles: u64,
        timed: bool,
        spin: u32,
        who: usize,
        tile_ns: &mut [(u64, u64, u64)],
        acc: &mut PhaseAcc,
        tracer: Option<&Tracer<'_>>,
    ) {
        cycle_loop(
            shared, mine, guards, inputs, start, cycles, timed, spin, *self, who, tile_ns, acc,
            tracer,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn run_cycles(
    shared: &CoreShared,
    mine: &[usize],
    guards: &mut [MutexGuard<'_, LaneTile>],
    inputs: &[u64],
    start: u64,
    cycles: u64,
    timed: bool,
    spin: u32,
    lanes: &dyn DynLanes,
    who: usize,
    tile_ns: &mut [(u64, u64, u64)],
    acc: &mut PhaseAcc,
    tracer: Option<&Tracer<'_>>,
) {
    lanes.run(
        shared, mine, guards, inputs, start, cycles, timed, spin, who, tile_ns, acc, tracer,
    );
}

/// **The** shared cycle loop: computes this worker's tiles, eagerly
/// flushes each tile's off-chip traffic so the modeled link transfer
/// overlaps the remaining tiles' compute, pays only the residual link
/// time, publishes the cycle's epoch and waits for its neighbours —
/// the loop's single sync point — then applies the exchange and falls
/// into the next cycle. Used verbatim by pool workers and the inline
/// (no-pool) path, which has no sync state to touch.
#[allow(clippy::too_many_arguments)]
fn cycle_loop<L: LaneSet>(
    shared: &CoreShared,
    mine: &[usize],
    guards: &mut [MutexGuard<'_, LaneTile>],
    inputs: &[u64],
    start: u64,
    cycles: u64,
    timed: bool,
    spin: u32,
    lanes: L,
    who: usize,
    tile_ns: &mut [(u64, u64, u64)],
    acc: &mut PhaseAcc,
    tracer: Option<&Tracer<'_>>,
) {
    // Timed runs and traced runs share the chained clock reads; the
    // per-tile histogram (`tile_ns`, empty unless timed) and the trace
    // spans are fed from the same timestamps.
    let instr = timed || tracer.is_some();
    let any_off = mine.iter().any(|&pi| shared.programs[pi].has_offchip());
    // Where producing tiles flush off-chip segments: the consumer
    // fabric itself (in-process), or the transport's staging copy.
    let flush_boxes: &[Mailbox] = shared.transport.staging().unwrap_or(&shared.channels);
    let any_pairs = shared.onchip < shared.channels.len();
    // Modeled link nanoseconds per flushed word (the spin knob converted
    // into wall time so the transfer can be scheduled asynchronously).
    // Strided words cross once per active lane; packed words already
    // carry 64 lanes each and cross once.
    let spin_ns = if any_off && spin > 0 {
        spin as f64 * ns_per_spin()
    } else {
        0.0
    };
    let pw = shared.pw;
    // The packed retire mask is stable for the whole run (finish_lane
    // needs `&mut` on the facade, which run_inner holds). All-live
    // gangs pass the empty slice so the packed hot path pays nothing.
    let retired = shared.retired.read().unwrap();
    let mask: &[u64] = if retired.iter().any(|&m| m != 0) {
        &retired
    } else {
        &[]
    };
    // Injected fault ops, also stable for the whole run; fault-free
    // tiles see an empty slice (one branch per tile per cycle).
    let faults = shared.faults.read().unwrap();
    // The sync point, for a worker that has anyone to wait for; and the
    // tiles (positions in `mine`) that hold arrays — the only ones the
    // exchange has anything to apply to.
    let sync = shared
        .sync
        .as_ref()
        .filter(|s| !s.neighbors(who).is_empty());
    let appliers: Vec<usize> = (0..mine.len())
        .filter(|&k| !shared.programs[mine[k]].applies.is_empty())
        .collect();
    // Run-invariant prelude: inputs are frozen for the whole run (the
    // facades take `&mut self`), so each tile's input/constant cones
    // and their PACK/UNPACK transposes execute once per run here, not
    // once per cycle. Mailbox parity is irrelevant — the prelude never
    // reads a mailbox (register/mail cones are variant by definition).
    for (guard, &pi) in guards.iter_mut().zip(mine.iter()) {
        let prog = &shared.programs[pi];
        if !prog.prelude.ops.is_empty() {
            exec_code(
                &prog.prelude,
                guard,
                inputs,
                &shared.channels,
                (start & 1) as usize,
                lanes,
                shared.isa,
            );
        }
    }
    // Timestamps chain phase to phase and cycle to cycle, so a timed
    // worker's compute + off-chip + exchange columns sum to its run.
    let mut mark = instr.then(Instant::now);
    for c in start..start + cycles {
        // The modeled link-transfer deadline and the total occupancy
        // scheduled this cycle (for the overlap accounting).
        let mut link_due: Option<Instant> = None;
        let mut link_total_ns = 0u64;
        for (k, (guard, &pi)) in guards.iter_mut().zip(mine).enumerate() {
            let prog = &shared.programs[pi];
            compute_phase(
                prog,
                guard,
                inputs,
                &shared.channels,
                lanes,
                c,
                pw,
                mask,
                &faults[pi],
                shared.isa,
            );
            if let Some(m) = mark {
                // Timestamps chain tile to tile: one clock read per
                // tile lands inside the phase windows, and per-tile
                // times sum to the worker phase exactly.
                let now = Instant::now();
                if timed {
                    let d = now.duration_since(m).as_nanos() as u64;
                    tile_ns[k].0 += d;
                    acc.comp += d;
                }
                if let Some(tr) = tracer {
                    tr.seg(SpanKind::Compute, pi as u32, c, m, now);
                }
                mark = Some(now);
            }
            if prog.has_offchip() {
                // Eager flush: the epoch-c+1 aggregate segments have no
                // reader until this worker publishes, so copying now is
                // legal and lets the modeled transfer overlap the remaining
                // tiles' compute. Staged transports redirect the flush
                // into their producer-side staging fabric.
                offchip_flush(prog, guard, flush_boxes, lanes, c, pw, mask);
                shared.transport.tile_flushed(pi, ((c & 1) ^ 1) as usize, c);
                if spin_ns > 0.0 {
                    let words = prog.offchip_words as f64 * lanes.count() as f64
                        + prog.offchip_packed_words as f64;
                    let ns = (words * spin_ns) as u64;
                    let now = Instant::now();
                    let base = link_due.map_or(now, |d| d.max(now));
                    link_due = Some(base + Duration::from_nanos(ns));
                    link_total_ns += ns;
                }
                if let Some(m) = mark {
                    let now = Instant::now();
                    if timed {
                        let d = now.duration_since(m).as_nanos() as u64;
                        tile_ns[k].1 += d;
                        acc.off += d;
                    }
                    if let Some(tr) = tracer {
                        tr.seg(SpanKind::OffchipFlush, pi as u32, c, m, now);
                    }
                    mark = Some(now);
                }
            }
        }
        // Residual link wait: whatever the remaining compute did not
        // hide. The hidden part is the recovered overlap.
        if let Some(due) = link_due {
            let now = Instant::now();
            if due > now {
                let wait = due.duration_since(now).as_nanos() as u64;
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                if timed {
                    acc.off += wait;
                    acc.overlap += link_total_ns.saturating_sub(wait);
                }
                if let Some(m) = mark {
                    let end = m + Duration::from_nanos(wait);
                    if let Some(tr) = tracer {
                        tr.seg(SpanKind::OverlapResidual, NO_TILE, c, m, end);
                    }
                    mark = Some(end);
                }
            } else if timed {
                acc.overlap += link_total_ns;
            }
        }
        // Staged transports: land this worker's inbound pair frames in
        // the consumer mailboxes before the publish. The wait for remote
        // producers is real measured off-chip latency, so it joins the
        // link residual in the offchip_s column (a no-op in-process).
        if any_pairs {
            shared.transport.complete_recvs(
                who,
                ((c & 1) ^ 1) as usize,
                c,
                &shared.channels,
                shared.onchip,
            );
            if let Some(m) = mark {
                let now = Instant::now();
                if timed {
                    acc.off += now.duration_since(m).as_nanos() as u64;
                }
                if let Some(tr) = tracer {
                    tr.seg(SpanKind::TransportRecv, NO_TILE, c, m, now);
                }
                mark = Some(now);
            }
        }
        // exchange_s starts *before* the wait so the straggler wait —
        // the measured `t_sync` — lands in the exchange column,
        // matching the BspPhases contract.
        let exch_start = mark;
        if let Some(sync) = sync {
            // Epoch c+1's mailboxes are filled: say so, and wait for
            // the neighbours' (run-relative epochs).
            sync.publish_and_wait(who, c - start + 1);
            if let Some(m) = mark {
                let now = Instant::now();
                if let Some(tr) = tracer {
                    tr.seg(SpanKind::BarrierWait, NO_TILE, c, m, now);
                }
                mark = Some(now);
            }
        }
        for &k in &appliers {
            let pi = mine[k];
            exchange_phase(
                &shared.programs[pi],
                &mut guards[k],
                &shared.channels,
                lanes,
                c,
            );
            if let Some(m) = mark {
                let now = Instant::now();
                if timed {
                    tile_ns[k].2 += now.duration_since(m).as_nanos() as u64;
                }
                if let Some(tr) = tracer {
                    tr.seg(SpanKind::Exchange, pi as u32, c, m, now);
                }
                mark = Some(now);
            }
        }
        if let (true, Some(s), Some(e)) = (timed, exch_start, mark) {
            acc.exch += e.duration_since(s).as_nanos() as u64;
        }
    }
    if let Some(tr) = tracer {
        tr.finish();
    }
}

/// The persistent worker entry (abort-on-panic: neighbours waiting on
/// a dead worker's epoch would deadlock the run).
fn worker_loop(shared: &CoreShared, t: usize, mine: Vec<usize>) {
    let body = std::panic::AssertUnwindSafe(|| worker_body(shared, t, &mine));
    if std::panic::catch_unwind(body).is_err() {
        eprintln!("engine worker {t} panicked; aborting (its neighbours would wait forever)");
        std::process::abort();
    }
}

/// The worker run loop: park at the gate, execute a run over this
/// worker's chip-major tile group `mine` through the shared
/// [`cycle_loop`], report.
fn worker_body(shared: &CoreShared, t: usize, mine: &[usize]) {
    loop {
        shared.gate.wait();
        if shared.exit.load(Ordering::SeqCst) {
            return;
        }
        let cycles = shared.cmd_cycles.load(Ordering::SeqCst);
        let start = shared.cmd_start.load(Ordering::SeqCst);
        let timed = shared.cmd_timed.load(Ordering::SeqCst);
        let spin = shared.offchip_spin.load(Ordering::Relaxed);
        {
            // One lock per tile per run; the steady-state cycle loop
            // acquires no locks and allocates nothing.
            let inputs = shared.inputs.read().unwrap();
            let active = shared.active.read().unwrap();
            let mut guards: Vec<_> = mine
                .iter()
                .map(|&pi| shared.tiles[pi].lock().unwrap())
                .collect();
            let mut acc = PhaseAcc::default();
            // Untimed runs skip the per-tile histogram allocation
            // entirely; `tile_ns` is only indexed under `timed`.
            let mut tile_ns = if timed {
                vec![(0u64, 0u64, 0u64); mine.len()]
            } else {
                Vec::new()
            };
            let tracer = shared
                .trace
                .as_ref()
                .map(|sink| Tracer::new(&shared.trace_bufs[t], sink));
            dispatch_lanes(shared, &active, |lanes| {
                run_cycles(
                    shared,
                    mine,
                    &mut guards,
                    &inputs,
                    start,
                    cycles,
                    timed,
                    spin,
                    lanes,
                    t,
                    &mut tile_ns,
                    &mut acc,
                    tracer.as_ref(),
                )
            });
            if timed {
                *shared.phase_ns[t].lock().unwrap() = (acc.comp, acc.off, acc.exch, acc.overlap);
                for (k, &pi) in mine.iter().enumerate() {
                    *shared.tile_ns[pi].lock().unwrap() = tile_ns[k];
                }
            }
        }
        shared.done.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::tests::test_isas;
    use parendi_core::{compile, PartitionConfig};
    use parendi_rtl::Builder;
    use std::sync::atomic::AtomicUsize;

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
            let lead = (b.as_ptr() as usize - b._store.as_ptr() as usize) / 8;
            assert!(lead + words.next_multiple_of(16) <= b._store.len());
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
}
