//! What a compile produces for one tile, as data: the [`Step`] IR the
//! front-end emits (it survives lowering only as the cold multi-word
//! side table of [`Code`]), the self-contained per-tile [`Program`] —
//! bytecode plus the typed latch / send / apply lists the phase
//! functions walk — and the homes that say where a register, array or
//! output lives afterwards.
//!
//! # Packed 1-bit state
//!
//! With `packed`, 1-bit values are laid out **bit-packed across
//! lanes**: lane `l` owns bit `l % 64` of word `l / 64` of a
//! `pw = ceil(lanes / 64)`-word block. 1-bit registers, inputs and
//! mailbox slots move to a packed tail *after* the strided section of
//! their buffer ([`RegHome::packed`], [`PackedCommit`], [`PackedSend`]),
//! so a commit or send of one moves `pw` words instead of `lanes`; port
//! records always stay strided.

use crate::exec::bytecode::Code;
use parendi_rtl::{BinOp, UnOp};

/// One resolved evaluation step of a process program. Every operand
/// width is pre-resolved at compile time so the cycle loop never touches
/// the circuit.
#[derive(Clone, Debug)]
pub(crate) enum Step {
    /// Copy from the shared (read-only during a run) input buffer.
    Input { dst: u32, src: u32, nw: u32 },
    /// Copy one of this tile's own registers.
    RegOwn { dst: u32, src: u32, nw: u32 },
    /// Copy a remote register from an inbound mailbox slot (epoch `c`).
    RegMail {
        dst: u32,
        ch: u32,
        src: u32,
        nw: u32,
    },
    /// Combinational read of a tile-local array copy.
    ArrayRead {
        dst: u32,
        arr: u32,
        idx: u32,
        idx_w: u32,
        nw: u32,
        depth: u32,
    },
    /// Unary op (`aw` = argument width in bits for the reductions).
    Un {
        op: UnOp,
        dst: u32,
        a: u32,
        w: u32,
        aw: u32,
        anw: u32,
    },
    /// Binary op (`aw` = left operand width, for comparisons/shifts).
    Bin {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
        aw: u32,
        anw: u32,
        bnw: u32,
    },
    /// Two-way select; `t`/`f` are as wide as the result (`w` bits).
    Mux {
        dst: u32,
        sel: u32,
        t: u32,
        f: u32,
        nw: u32,
        w: u32,
    },
    /// Bit extraction `[lo + w - 1 : lo]`.
    Slice {
        dst: u32,
        a: u32,
        lo: u32,
        w: u32,
        anw: u32,
    },
    /// Zero extension to `w` bits.
    Zext { dst: u32, a: u32, w: u32, anw: u32 },
    /// Sign extension from `aw` to `w` bits.
    Sext {
        dst: u32,
        a: u32,
        aw: u32,
        w: u32,
        anw: u32,
    },
    /// Concatenation with `lo` occupying the low `low_w` bits.
    Concat {
        dst: u32,
        hi: u32,
        lo: u32,
        w: u32,
        low_w: u32,
        hnw: u32,
        lnw: u32,
    },
    /// Packed-mode copy of a 1-bit input: `src` is the absolute word
    /// offset of the input's packed block in the input buffer. `dst`
    /// identifies the net (its strided arena offset); the lowering
    /// allocates the packed arena slot.
    InputP { dst: u32, src: u32 },
    /// Packed-mode copy of one of this tile's own packed registers
    /// (`src` is absolute into the register file).
    RegOwnP { dst: u32, src: u32 },
    /// Packed-mode copy of a remote packed register (`src` is absolute
    /// into channel `ch`'s buffer, epoch `c`).
    RegMailP { dst: u32, ch: u32, src: u32 },
}

/// Latch one of this tile's own registers (arena → `reg_cur`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct RegCommit {
    pub local: u32,
    pub dst: u32,
    pub nw: u32,
}

/// Send a produced register value to one remote consumer's mailbox.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RegSend {
    pub local: u32,
    pub ch: u32,
    pub dst: u32,
    pub nw: u32,
}

/// Latch one packed 1-bit register: `pw` words copied from the packed
/// arena slot `psrc` to the absolute register-file offset `dst`
/// (blended through the retire mask so early-exited lanes stay frozen).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PackedCommit {
    pub psrc: u32,
    pub dst: u32,
}

/// Send one packed 1-bit register value: `pw` words copied from the
/// packed arena slot `psrc` to the absolute offset `dst` of channel
/// `ch`'s buffer (blended through the retire mask).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PackedSend {
    pub psrc: u32,
    pub ch: u32,
    pub dst: u32,
}

/// Stage one array write port's `(enable, index, data)` record into the
/// mailboxes of every remote holder of the array.
#[derive(Clone, Debug)]
pub(crate) struct PortSend {
    pub en: u32,
    pub idx: u32,
    pub idx_w: u32,
    pub data: u32,
    pub nw: u32,
    /// `(channel, word offset)` of the record slot per remote holder.
    pub dests: Vec<(u32, u32)>,
}

/// Where an applied port record comes from.
#[derive(Clone, Copy, Debug)]
pub(crate) enum RecSrc {
    /// This tile produced the port: read straight from its arena.
    Own {
        en: u32,
        idx: u32,
        idx_w: u32,
        data: u32,
    },
    /// A remote tile produced it: read the mailbox record (epoch `c+1`).
    Mail { ch: u32, off: u32 },
}

/// Apply one port record to a tile-local array copy (exchange phase).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Apply {
    pub arr: u32,
    pub nw: u32,
    pub depth: u32,
    pub src: RecSrc,
}

/// A compiled per-tile program. Self-contained: executing it requires no
/// access to the `Circuit`, and the *same* program drives every lane.
#[derive(Clone, Debug)]
pub(crate) struct Program {
    /// The flat fused bytecode of the tile's step program (lowered once
    /// at compile time; see [`Code`]).
    pub code: Code,
    /// Run-invariant prefix of the tile's bytecode: input/constant
    /// cones and their `PACK` transposes, split out at lowering time.
    /// Inputs are frozen for the duration of a `run` call (the facade
    /// takes `&mut self`), so this executes **once per run**, not once
    /// per cycle — the repeated-`PACK` hoist. Empty in strided mode.
    pub prelude: Code,
    pub arena_words: usize,
    pub const_init: Vec<(u32, Vec<u64>)>,
    pub commits: Vec<RegCommit>,
    /// Register sends over on-chip channels (pushed during compute).
    pub sends: Vec<RegSend>,
    /// Register sends crossing chips (pushed by the off-chip flush).
    pub offchip_sends: Vec<RegSend>,
    /// Port records to on-chip holders (pushed during compute).
    pub port_sends: Vec<PortSend>,
    /// Port records to off-chip holders (pushed by the off-chip flush).
    pub offchip_port_sends: Vec<PortSend>,
    /// In global `(array, port)` order per array, so every holder applies
    /// identically (last port wins, as in the reference interpreter).
    pub applies: Vec<Apply>,
    /// Primary outputs this tile computes: `(output id, arena offset)`.
    pub outputs: Vec<(u32, u32)>,
    /// Words of the tile's packed scratch arena (packed mode only).
    pub packed_words: usize,
    /// Packed 1-bit register latches.
    pub packed_commits: Vec<PackedCommit>,
    /// Packed register sends over on-chip channels.
    pub packed_sends: Vec<PackedSend>,
    /// Packed register sends crossing chips (off-chip flush).
    pub offchip_packed_sends: Vec<PackedSend>,
    /// 1-bit constants the packed domain consumes: `(arena offset,
    /// packed slot)` transposed once at engine init, never per cycle.
    pub const_packs: Vec<(u32, u32)>,
}

impl Program {
    /// Whether this tile sends anything across a chip boundary (tiles
    /// that don't skip the off-chip flush sub-phase entirely).
    pub(crate) fn has_offchip(&self) -> bool {
        !self.offchip_sends.is_empty()
            || !self.offchip_port_sends.is_empty()
            || !self.offchip_packed_sends.is_empty()
    }
}

/// Where a register's current value lives. In packed mode a 1-bit
/// register's `off` is its **slot index** in the packed tail of its
/// tile's register file (absolute word offset
/// `rw × lanes + off × pw`); otherwise `off` is its word offset within
/// the lane-strided section.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RegHome {
    pub tile: u32,
    pub off: u32,
    pub words: u32,
    pub packed: bool,
}

/// Where an array's reference copy lives.
#[derive(Clone, Debug)]
pub(crate) enum ArrayHome {
    /// Held by a tile (all holders are bit-identical; we read this one).
    Held { tile: u32, slot: u32 },
    /// No tile references it: it keeps its initial contents forever.
    Spare(Vec<u64>),
}

/// Where a primary output's value lands after a tile's step program.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OutputHome {
    pub tile: u32,
    pub off: u32,
}
