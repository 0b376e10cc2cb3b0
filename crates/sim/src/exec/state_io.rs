//! Everything that reads or writes engine state between runs: the one
//! list of **stateful buffers** and its four consumers (fingerprint,
//! snapshot, restore, lane fork), fault-plan compilation, per-lane
//! input and register/array I/O, and the output peeks.
//!
//! The stateful buffers are, per tile, the arena, the packed scratch,
//! the register file and the array copies; both parities of every
//! mailbox; and the input buffer. [`EngineCore::for_each_state_buf`] is
//! the only place that enumerates them — a new per-tile buffer is added
//! there (and to the `PDCK` format, which records the same list).

use super::core::EngineCore;
use super::dispatch::exec_code;
use super::lanes::{AllLanes, LaneTile, OneLane};
use crate::checkpoint::{Fingerprint, Snapshot, SnapshotError};
use crate::engine::program::ArrayHome;
use crate::fault::{FaultKind, FaultPlan, TileFault};
use parendi_rtl::bits::{words_for, Bits};
use parendi_rtl::InputId;

/// How one stateful buffer spreads its words over the lanes — what a
/// lane fork must know to copy one lane over all the others.
#[derive(Clone, Copy)]
pub(super) enum LaneLayout {
    /// This many leading words under the `off * lanes + l` rule, then
    /// `pw`-word packed blocks (either part may be empty).
    Split(usize),
    /// One contiguous block per lane (array copies).
    PerLane,
}

impl LaneLayout {
    /// Overwrites every lane of `words` with lane `golden`'s value.
    fn broadcast(self, words: &mut [u64], golden: usize, lanes: usize, pw: usize) {
        match self {
            LaneLayout::Split(strided) => {
                let (head, tail) = words.split_at_mut(strided);
                // Each word's lane row takes the golden lane's word;
                // each packed block, whole words of the golden bit.
                for row in head.chunks_exact_mut(lanes) {
                    row.fill(row[golden]);
                }
                for slot in tail.chunks_exact_mut(pw.max(1)) {
                    let bit = (slot[golden / 64] >> (golden % 64)) & 1;
                    slot.fill(if bit == 1 { u64::MAX } else { 0 });
                }
            }
            LaneLayout::PerLane => {
                let stride = words.len() / lanes;
                for l in 0..lanes {
                    words.copy_within(golden * stride..(golden + 1) * stride, l * stride);
                }
            }
        }
    }
}

impl EngineCore<'_> {
    /// Hands `f` every stateful buffer of the engine with its lane
    /// layout, in snapshot order: each tile's arena, packed scratch,
    /// register file and array copies; both parities of every mailbox;
    /// the input buffer. Legal between runs only, which the facades
    /// guarantee by construction — a run borrows the engine mutably and
    /// returns with the worker pool parked at its gate.
    fn for_each_state_buf(&self, mut f: impl FnMut(&mut [u64], LaneLayout)) {
        use LaneLayout::{PerLane, Split};
        let sh = &self.shared;
        let lanes = sh.lanes;
        // Taken first and held to the end: the lock every `&self`
        // reader of a mailbox holds (see the SAFETY note below).
        let mut inputs = sh.inputs.write().unwrap();
        for tile in &sh.tiles {
            let mut t = tile.lock().unwrap();
            let (arena_words, strided_regs) = (t.arena.len(), t.rw * lanes);
            f(&mut t.arena, Split(arena_words));
            f(&mut t.packed, Split(0));
            f(&mut t.reg_cur, Split(strided_regs));
            for a in &mut t.arrays {
                f(a, PerLane);
            }
        }
        for (m, &mw) in sh.channels.iter().zip(&sh.mail_words) {
            for parity in 0..2 {
                // SAFETY: between runs no worker touches either parity
                // (the pool is parked at the gate barrier), and the
                // only other `&self` paths that read a mailbox — this
                // walk and the output peeks — hold the `inputs` lock
                // this walk holds exclusively, so the slice is unique.
                let buf =
                    unsafe { std::slice::from_raw_parts_mut(m.write_base(parity), m.words()) };
                f(buf, Split(mw as usize * lanes));
            }
        }
        f(&mut inputs, Split(sh.input_stride * lanes));
    }

    /// The engine shape a [`Snapshot`] must match to be restorable
    /// here: circuit name, lane shape, the layout word (every gang is
    /// word-interleaved), and the exact word count of every stateful
    /// buffer.
    fn fingerprint(&self) -> Fingerprint {
        let sh = &self.shared;
        let mut buf_words = Vec::new();
        self.for_each_state_buf(|words, _| buf_words.push(words.len() as u64));
        Fingerprint {
            circuit: self.circuit.name.clone(),
            lanes: sh.lanes as u32,
            pw: sh.pw as u32,
            word_major: sh.lanes >= 2,
            onchip: sh.onchip as u32,
            tile_arrays: sh
                .tiles
                .iter()
                .map(|t| t.lock().unwrap().arrays.len() as u32)
                .collect(),
            buf_words,
        }
    }

    /// Captures the complete engine state as a restorable [`Snapshot`]
    /// (see [`crate::checkpoint`]).
    pub(crate) fn snapshot(&self) -> Snapshot {
        let sh = &self.shared;
        let mut bufs = Vec::new();
        self.for_each_state_buf(|words, _| bufs.push(words.to_vec()));
        Snapshot {
            fingerprint: self.fingerprint(),
            cycle: self.cycle,
            bufs,
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
        let mut saved = snap.bufs.iter();
        self.for_each_state_buf(|words, _| {
            words.copy_from_slice(saved.next().expect("the fingerprints matched"));
        });
        let sh = &self.shared;
        *sh.active.write().unwrap() = snap.active.clone();
        sh.retired.write().unwrap().copy_from_slice(&snap.retired);
        self.retired_at = snap.decode_retired_at();
        self.cycle = snap.cycle;
        sh.ctrs.lanes_active.set(snap.active.len() as u64);
        sh.ctrs
            .lanes_retired
            .set(sh.lanes as u64 - snap.active.len() as u64);
        // Staged transports mirror the consumer fabric: re-sync their
        // staging copies to the state just written.
        sh.transport.resync(&sh.channels, sh.onchip);
        Ok(())
    }

    /// Broadcasts lane `golden`'s complete state — every stateful
    /// buffer, so both parities of every mailbox too: every epoch a
    /// resumed run can read carries golden's history — across **all**
    /// lanes, and reactivates every retired lane: the inverse of
    /// [`finish_lane`](Self::finish_lane). Run one lane through a
    /// common reset/boot prefix, fork, then diverge per-lane stimulus
    /// from here — the boot cost is paid once instead of once per
    /// scenario.
    pub(crate) fn fork_lanes(&mut self, golden: usize) {
        let sh = &self.shared;
        let (lanes, pw) = (sh.lanes, sh.pw);
        assert!(golden < lanes, "golden lane {golden} out of range");
        assert!(
            self.lane_is_active(golden),
            "golden lane {golden} is retired"
        );
        self.for_each_state_buf(|words, layout| layout.broadcast(words, golden, lanes, pw));
        *sh.active.write().unwrap() = (0..lanes as u32).collect();
        sh.retired.write().unwrap().fill(0);
        self.retired_at = vec![None; lanes];
        sh.ctrs.lanes_active.set(lanes as u64);
        sh.ctrs.lanes_retired.set(0);
        sh.transport.resync(&sh.channels, sh.onchip);
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
}
