//! What a tile does in each phase of a cycle, in order: **compute**
//! (bytecode, injected faults, register latches, on-chip sends),
//! **off-chip flush** (cross-chip sends into the chip-pair aggregates),
//! and — after the cycle's one sync point — **exchange** (apply staged
//! port records to the tile's array copies). Every mailbox access here
//! states its `SAFETY:` against the epoch invariant of
//! [`crate::engine::sync::EpochSync`].
//!
//! The bytecode runs over the lane set's dense cover; everything after
//! it — each place a value becomes durable — iterates the set itself,
//! which is what freezes a retired lane (see `exec::lanes`).
//!
//! The three phase functions are `#[inline]` so that each is
//! instantiated in the cycle loop's codegen unit and folds into it, as
//! it did while both lived in one module; out of line they cost
//! `single_compute` a call per tile per cycle.

use super::dispatch::{exec_code, fold_index_at};
use super::lanes::{LaneSet, LaneTile};
use crate::engine::program::{PackedSend, PortSend, Program, RecSrc, RegSend};
use crate::engine::sync::Mailbox;
use crate::fault::TileFault;
use crate::simd::VecIsa;
use parendi_core::routing::PORT_RECORD_HEADER_WORDS;

/// Computation phase for one tile at cycle `c`: run the bytecode over
/// the dense range covering `lanes`, then — `lanes` only — latch own
/// registers and push outgoing *on-chip* mailbox traffic for epoch
/// `c+1`. `mask` is the packed retire mask (bit set = lane
/// early-exited; empty when every lane is live): packed commits and
/// sends blend through it so retired lanes' packed state stays frozen,
/// exactly as the strided commit copies skip retired lanes.
/// `faults` (usually empty) are this tile's injected fault ops, applied
/// between compute and latch so commits *and* sends both observe the
/// faulted next-state bits.
#[inline]
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
        lanes.dense(),
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
    ps: &PackedSend,
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
/// memory copies into the epoch-`c+1` chip-pair aggregates.
///
/// Out of line on purpose: one-chip partitions never call it, and
/// inlined into the cycle loop's tile loop it cost sr7@64 4 % at one
/// thread (16.1 k → 15.5 k cycles/s, `single_compute`), while the
/// two-chip transport rows do not notice the call.
#[inline(never)]
pub(super) fn offchip_flush<L: LaneSet>(
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
#[inline]
pub(super) fn exchange_phase<L: LaneSet>(
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
