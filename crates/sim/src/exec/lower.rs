//! Lowering: a tile's [`Step`] program → [`Code`].
//!
//! One shared pass ([`lower_inner`]) emits fused single-word opcodes
//! for `nw == 1` operations, coalesces adjacent contiguous
//! `Input`/`RegOwn`/`RegMail` reads into block copies, and spills
//! everything multi-word to the `WIDE` side table. Which **last pass**
//! runs is decided by the lane count, not a knob: one-lane code gets
//! [`form_runs`], gang code gets [`fuse_adjacent`].
//!
//! # Packed mode
//!
//! With a [`PackPlan`] the pass additionally keeps eligible 1-bit nets
//! in the packed domain (one `u64` op per 64 lanes). The two domains
//! meet only at explicit transposes the lowering inserts: `PACK` where
//! a strided value feeds a packed op, `UNPACK` where a packed net feeds
//! a wide op, a port record or an output. Packed registers, inputs and
//! mailbox reads seed the domain, and a 1-bit boolean op with at least
//! one packed operand stays packed ([`try_packed`]), so a 1-bit control
//! chain transposes at most twice, at its strided edges. Steps whose
//! cone is inputs and constants only are split into a **prelude** that
//! runs once per run ([`Lowered::prelude`]). Early exit composes with
//! packing through the retire mask: packed commits and sends blend new
//! bits through its complement, so a retired lane's packed registers
//! and mailbox epochs freeze like its strided state (packed *scratch*
//! may keep changing, but is never read back for a retired lane).

use super::bytecode::{argc, bin1_opc, is_fused1, op, un1_opc, Code};
use crate::engine::program::Step;
use parendi_rtl::{BinOp, UnOp};
use std::collections::{HashMap, HashSet};

impl Code {
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
/// instruction per operation (its dispatch has no run arms — the guard
/// in `dispatch::exec_code` has what they cost it).
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
    // its consumer, which the one-lane opcode schedule pulls apart, and
    // a fused pair breaking a run cost `single_compute` 5–8 %
    // (`work_per_s` 29.4 k with both passes, 31.0 k with runs alone).
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
