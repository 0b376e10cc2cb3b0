//! The compile front-end and shared machinery of the execution engine.
//!
//! Both public simulators — [`crate::bsp::BspSimulator`] (one scenario,
//! many tiles) and [`crate::gang::GangSimulator`] (many scenarios in
//! lockstep over the same tiles) — are facades over the single
//! lane-strided execution core in [`crate::exec`]; this module holds
//! the *compile-time* half they share plus the synchronization fabric:
//!
//! * the step IR and program representation ([`Step`], [`Program`],
//!   [`build_program`]) and the whole compile front-end ([`Compiled`]),
//!   parameterized by a lane count so every buffer (arenas, register
//!   files, array copies, mailboxes) can carry `lanes` independent
//!   scenarios side by side. [`Step`]s exist only at compile time and
//!   as the cold multi-word side table: `build_program` lowers every
//!   step program into the flat fused bytecode of [`crate::exec::Code`]
//!   (struct-of-arrays opcode/operand words, dedicated single-word
//!   opcodes, peephole-coalesced block copies, and — for a gang — the
//!   deeper adjacent-pair fusion of shift-then-mask and 2-to-1 mux
//!   chains, or — at one lane — nodes [`schedule`]d by opcode class so
//!   same-opcode neighbours collapse into single run instructions)
//!   that the one hot loop executes. Set `PARENDI_CODE_STATS=1` to dump
//!   the opcode/width and adjacent-pair histograms of a compile — the
//!   data fusion and SIMD-coverage decisions are made from;
//!
//! Every `PARENDI_*` environment knob the engine (and the bench bins)
//! reads — transport, spin budget, tracing, and the rest — is cataloged
//! with defaults and interactions in `docs/ENVVARS.md` at the
//! repository root.
//!
//! # Strided lane layout
//!
//! Multi-bit state carries its `lanes` scenarios **word-interleaved**:
//! word `w` of lane `l` lives at `w * lanes + l`, so the same logical
//! word of *all* lanes is one dense row and a fused opcode processes a
//! whole lane chunk with one lane kernel ([`crate::simd`]). Copies and
//! commits are per-word row copies; multi-word (`WIDE`) steps gather
//! one lane's operand words into a scratch block, run the slice
//! kernels, and scatter the destination back. At one lane the rule is
//! just `w` — the single-scenario engine's plain buffers.
//!
//! Outside the rule: **arrays** keep one contiguous block per lane
//! (array traffic is index-scattered, never row-dense), the **packed
//! 1-bit domain** below is already lane-transposed (its `PACK`/`UNPACK`
//! boundaries read/write the strided arena through the rule), and
//! mailbox **packed tails** sit at absolute offsets after the strided
//! section, whose register slots and port records follow the rule.
//!
//! # Packed 1-bit lanes
//!
//! In **packed mode** (`Compiled::new` with `packed = true`) the
//! front-end classifies every net, register, and input by width:
//! 1-bit values are laid out **bit-packed across lanes** — lane `l`
//! owns bit `l % 64` of word `l / 64` of a `pw = ceil(lanes / 64)`-word
//! block (lane-major words beyond 64 lanes) — so one `u64` bitwise
//! operation advances 64 scenarios at once. Concretely:
//!
//! * 1-bit **registers** move from the lane-strided register file into
//!   a packed section at its tail (`RegHome::packed`); commits and
//!   cross-tile sends of those registers copy `pw` words instead of
//!   `lanes` words ([`PackedCommit`]/[`PackedSend`]).
//! * 1-bit **inputs** move into a packed section at the tail of the
//!   input buffer (bit scatter on `set_input_lane`).
//! * **Mailbox** slots of 1-bit registers move into a packed section at
//!   the tail of each channel buffer; the strided section keeps its
//!   word-interleaved layout (port records always stay strided). The
//!   off-chip flush therefore moves `pw` words per 1-bit register
//!   instead of `lanes`, which is what
//!   `ExchangePlan::scaled_by_lanes` models with `packed = true`.
//! * 1-bit **combinational nets** whose operands are already packed are
//!   computed by packed bytecode opcodes on a per-tile packed scratch
//!   arena; explicit transpose boundary opcodes (`PACK`/`UNPACK`, see
//!   [`crate::exec`]) gather/scatter bits where a strided value feeds
//!   the packed domain or vice versa. Multi-bit nets and non-bitwise
//!   ops stay lane-strided, exactly as before.
//! * the lock-free exchange fabric ([`Mailbox`]) and the one per-cycle
//!   sync point, [`EpochSync`]: per-worker epoch words a worker
//!   publishes and its neighbours — only they — spin-then-park on;
//! * the chip-major, cost-balanced contiguous [`worker_groups`] fold of
//!   tiles onto host threads;
//!
//! # The off-chip transport seam
//!
//! On-chip mailboxes are always written directly — they never leave the
//! process. The **per-chip-pair aggregate mailboxes** (`Compiled`
//! appends them after the on-chip boxes; [`Compiled::offchip_pairs`]
//! names their `(from_chip, to_chip)` order) are the unit that crosses
//! chips on the real machine, and the engine moves them through a
//! pluggable [`crate::transport::ChipTransport`]: the default
//! in-process backend keeps the historical direct-write path bit for
//! bit, while the shared-memory and TCP backends stage each pair's
//! aggregate and carry it across a process-style boundary per cycle
//! under the same double-buffered epoch discipline. The core's flush
//! path writes whatever mailbox slice the backend exposes and notifies
//! it per flushed tile; the time a backend spends completing receives
//! lands in the same off-chip phase column, so backends are directly
//! comparable. Select with `PARENDI_TRANSPORT` or the `with_transport`
//! constructors.
//! * the scalar/slice step evaluators: [`eval_op`] (the multi-word
//!   fallback) and the `nw == 1` single-word kernels ([`un1`],
//!   [`bin1`], [`sext1`]) the fused opcodes dispatch into — one source
//!   of truth for semantics at every width.

use crate::exec::Code;
use crate::simd::VecIsa;
use parendi_core::routing::{ChannelClass, Routing, PORT_RECORD_HEADER_WORDS};
use parendi_core::Partition;
use parendi_rtl::bits::{top_word_mask, word, words_for};
use parendi_rtl::{BinOp, Circuit, InputId, NodeKind, UnOp};
use parendi_telemetry::Counter;
use std::cell::UnsafeCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// One worker's published epoch and parking place, on a cache line of
/// its own: a publish is one store to a line only neighbours read.
#[repr(align(64))]
struct EpochSlot {
    /// Run-relative count of cycles whose epoch-`c+1` mailboxes this
    /// worker has filled.
    done: AtomicU64,
    /// Set while this worker sleeps, or is about to, on `cv`.
    parked: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

/// The one per-cycle sync point: a worker publishes "my epoch-`c+1`
/// mailboxes are filled" and waits only for the workers it **shares a
/// buffer with** — a static, symmetric set derived once from the
/// channel endpoints under the chosen fold (a static BSP schedule knows
/// who talks to whom). Workers that exchange no word never wait for, or
/// touch a cache line of, each other.
///
/// # The epoch invariant
///
/// At cycle `c` worker `w` computes (reads mailbox parity `c & 1`,
/// writes parity `(c+1) & 1`), publishes `done[w] = c+1`, waits until
/// `done[n] >= c+1` for every neighbour `n`, runs its exchange (reads
/// parity `(c+1) & 1`, writes only its own array copies) and falls into
/// cycle `c+1`. For every buffer two workers share:
///
/// * *read after write* — a reader of parity `(c+1) & 1` has observed
///   its producer's `done >= c+1` (Release store, Acquire load);
/// * *write after read* — `w` overwrites parity `(c+1) & 1` in cycle
///   `c`; its last readers read it in their cycle `c-1` compute and
///   cycle `c-2` exchange, both before publishing `done = c`, which `w`
///   waited for at the end of cycle `c-1` — hence the **symmetric**
///   neighbour relation;
/// * *exchange vs next compute* — a slow worker's exchange `c` reads
///   parity `(c+1) & 1` while a fast neighbour's compute `c+1` writes
///   parity `c & 1`; nobody writes parity `(c+1) & 1` again before
///   passing wait `c+1`, which needs the slow worker's `done = c+2`,
///   published only after its exchange `c`.
///
/// So no worker is ever more than one cycle ahead of a neighbour,
/// non-neighbours drift freely within a run (they share nothing), and
/// the run-end `done` barrier re-joins everyone before any snapshot or
/// peek. Epochs are run-relative: the facade [`reset`](Self::reset)s
/// them before opening the gate (a `restore` may move the cycle
/// backwards). `tests/epoch_protocol.rs` checks the protocol by
/// exhaustive interleaving.
///
/// Cycles are microseconds long, so a waiter spins before it parks on
/// its own condvar — at once when the pool is wider than the host,
/// where spinning burns the timeslice of the thread it waits for — and
/// a publisher touches a neighbour's condvar only when that
/// neighbour's `parked` flag is up. The run hand-off barriers
/// (`gate`/`done`) stay parking barriers.
pub(crate) struct EpochSync {
    slots: Box<[EpochSlot]>,
    /// Per worker: the workers it shares a buffer with (ascending,
    /// symmetric, never itself).
    neighbors: Vec<Vec<u32>>,
    spin_limit: u32,
    /// Waits resolved by spinning / by parking (a wait that finds every
    /// neighbour already there counts as neither).
    spin_waits: Counter,
    park_waits: Counter,
}

impl EpochSync {
    pub(crate) fn new(neighbors: Vec<Vec<u32>>, spin_waits: Counter, park_waits: Counter) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        // `PARENDI_SPIN_LIMIT` overrides the spin budget — raise it on
        // big multicore boxes where cycles are short, 0 forces parking.
        let spin_limit = std::env::var("PARENDI_SPIN_LIMIT")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if neighbors.len() <= cores { 1 << 14 } else { 0 });
        let slot = |_| EpochSlot {
            done: AtomicU64::new(0),
            parked: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        };
        EpochSync {
            slots: (0..neighbors.len()).map(slot).collect(),
            neighbors,
            spin_limit,
            spin_waits,
            park_waits,
        }
    }

    /// The workers `who` waits for each cycle (and that wait for it).
    pub(crate) fn neighbors(&self, who: usize) -> &[u32] {
        &self.neighbors[who]
    }

    /// Rewinds every epoch to zero. Between runs only (the pool is
    /// parked at the gate, whose barrier publishes these stores).
    pub(crate) fn reset(&self) {
        for s in self.slots.iter() {
            s.done.store(0, Ordering::Relaxed);
        }
    }

    /// Publishes `done[who] = epoch`, then waits until every neighbour
    /// has published at least `epoch`.
    pub(crate) fn publish_and_wait(&self, who: usize, epoch: u64) {
        let me = &self.slots[who];
        // SeqCst, not just the Release the spinners' Acquire loads pair
        // with: the store must also precede the `parked` loads below. A
        // parking neighbour raises `parked` and then re-checks `done`,
        // both SeqCst, so either it sees this epoch or we see its flag
        // — no wakeup is lost.
        me.done.store(epoch, Ordering::SeqCst);
        for &n in &self.neighbors[who] {
            let s = &self.slots[n as usize];
            if s.parked.load(Ordering::SeqCst) {
                // The lock orders the notify after the sleeper's
                // re-check-then-wait.
                drop(s.lock.lock().expect("epoch slot lock poisoned"));
                s.cv.notify_one();
            }
        }
        let (mut spins, mut parked) = (0u32, false);
        for &n in &self.neighbors[who] {
            let theirs = &self.slots[n as usize].done;
            while theirs.load(Ordering::Acquire) < epoch {
                if spins < self.spin_limit {
                    spins += 1;
                    std::hint::spin_loop();
                    continue;
                }
                parked = true;
                me.parked.store(true, Ordering::SeqCst);
                let mut g = me.lock.lock().expect("epoch slot lock poisoned");
                while theirs.load(Ordering::SeqCst) < epoch {
                    g = me.cv.wait(g).expect("epoch slot lock poisoned");
                }
                drop(g);
                me.parked.store(false, Ordering::SeqCst);
            }
        }
        if parked {
            self.park_waits.inc();
        } else if spins > 0 {
            self.spin_waits.inc();
        }
    }
}

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
/// access to the `Circuit`, and the *same* program drives both the
/// single-scenario engine and every lane of the gang engine.
#[derive(Clone, Debug)]
pub(crate) struct Program {
    /// The flat fused bytecode of the tile's step program (lowered once
    /// at compile time; see [`crate::exec::Code`]).
    pub code: Code,
    /// Run-invariant prefix of the tile's bytecode: input/constant
    /// cones and their `PACK` transposes, split out at lowering time.
    /// Inputs are frozen for the duration of a `run` call (the facades
    /// take `&mut self`), so this executes **once per run**, not once
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
    /// Single-lane *strided* words this tile flushes across chip
    /// boundaries per cycle (register sends plus full port records) —
    /// charged to the modeled link once per active lane.
    pub offchip_words: u64,
    /// Words of the tile's packed scratch arena (packed mode only).
    pub packed_words: usize,
    /// Packed 1-bit register latches.
    pub packed_commits: Vec<PackedCommit>,
    /// Packed register sends over on-chip channels.
    pub packed_sends: Vec<PackedSend>,
    /// Packed register sends crossing chips (off-chip flush).
    pub offchip_packed_sends: Vec<PackedSend>,
    /// Total packed words flushed across chip boundaries per cycle —
    /// already covers every lane (a packed word carries 64 of them), so
    /// the modeled link charges it once, not per lane.
    pub offchip_packed_words: u64,
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

/// A double-buffered mailbox: one per on-chip producer→consumer tile
/// pair, plus one *aggregate* per ordered chip pair whose buffer is
/// segmented among all the cross-chip channels of that pair. In a gang
/// engine the buffer is `lanes` copies of the single-lane layout,
/// word-interleaved; the epoch discipline is identical.
///
/// Epoch discipline (enforced by [`EpochSync`], whose type docs state
/// the invariant): during cycle `c` producer threads write only buffer
/// `(c + 1) & 1`, and consumer threads read only buffer `c & 1`
/// (computation phase) or `(c + 1) & 1` *after* observing every
/// neighbour's `done >= c + 1` (communication phase). Every worker
/// that touches a mailbox is a neighbour of every other worker that
/// does, so no thread ever touches a word another thread is writing.
///
/// Aggregate mailboxes can have *several concurrent writers* — one per
/// worker group flushing into its disjoint channel segments — so the
/// write side never materializes a `&mut [u64]` over the whole buffer
/// (two live `&mut` to one allocation would be UB even with disjoint
/// stores). Writers go through the raw [`write_base`](Self::write_base)
/// pointer instead.
pub(crate) struct Mailbox {
    bufs: [UnsafeCell<Box<[u64]>>; 2],
}

// SAFETY: the only field is the pair of parity buffers, and the type
// hands out access to them only through unsafe accessors whose callers
// uphold the epoch invariant of `EpochSync`: a parity is written by its
// producers strictly before they publish the epoch its readers wait
// for, and overwritten only after those readers published the next.
unsafe impl Sync for Mailbox {}

impl Clone for Mailbox {
    /// Deep-copies both parity buffers. Only correct on a **quiescent**
    /// mailbox — one no engine is running (a freshly compiled artifact,
    /// or an engine parked between `run` calls): with workers mid-cycle
    /// the epoch discipline would make one parity a data race. The
    /// compile cache clones quiescent [`Compiled`] artifacts, which is
    /// the only caller.
    fn clone(&self) -> Self {
        // SAFETY: quiescence (documented above) means no concurrent
        // writer exists for either parity.
        unsafe {
            Mailbox {
                bufs: [
                    UnsafeCell::new(self.read(0).to_vec().into_boxed_slice()),
                    UnsafeCell::new(self.read(1).to_vec().into_boxed_slice()),
                ],
            }
        }
    }
}

impl Mailbox {
    pub(crate) fn new(words: usize) -> Self {
        Mailbox {
            bufs: [
                UnsafeCell::new(vec![0u64; words].into_boxed_slice()),
                UnsafeCell::new(vec![0u64; words].into_boxed_slice()),
            ],
        }
    }

    /// SAFETY: no concurrent writer of `parity` may exist (see the
    /// epoch discipline in the type docs).
    pub(crate) unsafe fn read(&self, parity: usize) -> &[u64] {
        &*self.bufs[parity].get()
    }

    /// Base pointer for segment writes into buffer `parity`, derived
    /// raw-to-raw so no `&mut` over the buffer ever exists.
    ///
    /// SAFETY: the epoch discipline must hold (no concurrent reader of
    /// `parity`), and each writer must store only to word ranges it
    /// exclusively owns (channel segments are disjoint by layout).
    pub(crate) unsafe fn write_base(&self, parity: usize) -> *mut u64 {
        (&raw mut **self.bufs[parity].get()) as *mut u64
    }

    /// Total words per buffer (both parities are the same size). Reads
    /// only the allocation length, never the contents, so it is safe
    /// under any epoch.
    pub(crate) fn words(&self) -> usize {
        // SAFETY: the box pointer/length are immutable after
        // construction; only the pointed-to words are ever raced on.
        unsafe { (&*self.bufs[0].get()).len() }
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

/// Modelled host cost of a tile beyond its opcodes (loop entry,
/// latches, sends), in op-equivalents: a tile costs
/// `ops_strided × lanes + ops_packed × pw + TILE_FIXED`. Fitted on the
/// 2-core AVX2 reference host, 2 workers, `run()` k cycles/s (median
/// of 7) on prng64-32 / vta-256: 1 → 812 / 104.3, **8 → 819 / 104.9**,
/// 16 → 776 / 103.7, 24 → 753 / 99.2, 32 → 736 / 96.4. Refitted once
/// one-lane operations ride in runs (an operation is cheaper, a tile's
/// fixed cost is not): 1 → 775 / 105.1, 4 → 837 / 102.6,
/// **8 → 857 / 105.3**, 16 → 854 / 104.2, 24 → 840 / 102.0,
/// 32 → 822 / 104.3 — the optimum did not move.
pub(crate) const TILE_FIXED: u64 = 8;

/// Folds tiles onto `workers` threads chip-major and cost-balanced
/// (`cost[t]` = tile `t`'s modelled host cost per cycle). Each chip's
/// tiles go to a consecutive group of workers sized by the chip's share
/// of the cost still to place, and the chip's tile sequence is cut into
/// contiguous runs of near-equal cost — the partitioner numbers
/// neighbouring tiles consecutively, so most channels stay inside one
/// worker. With fewer workers than chips, whole chips go heaviest first
/// onto the least-loaded worker: a chip's tiles never leave its group.
pub(crate) fn worker_groups(tile_chip: &[u32], cost: &[u64], workers: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); workers];
    if workers == 0 || tile_chip.is_empty() {
        return out;
    }
    let nchips = tile_chip.iter().map(|&c| c as usize + 1).max().unwrap();
    let mut by_chip: Vec<Vec<usize>> = vec![Vec::new(); nchips];
    for (t, &c) in tile_chip.iter().enumerate() {
        by_chip[c as usize].push(t);
    }
    by_chip.retain(|v| !v.is_empty());
    let chip_cost = |tiles: &[usize]| tiles.iter().map(|&t| cost[t]).sum::<u64>();
    if workers < by_chip.len() {
        by_chip.sort_by_key(|tiles| std::cmp::Reverse(chip_cost(tiles)));
        let mut load = vec![0u64; workers];
        for tiles in &by_chip {
            let w = (0..workers).min_by_key(|&w| load[w]).unwrap();
            load[w] += chip_cost(tiles);
            out[w].extend(tiles);
        }
        return out;
    }
    let mut next = 0usize; // first worker of the current group
    let mut cost_left = cost.iter().sum::<u64>();
    for (ci, tiles) in by_chip.iter().enumerate() {
        let (total, workers_left) = (chip_cost(tiles), workers - next);
        // The group size that keeps the heavier of this chip's mean
        // worker and the mean worker left for the other chips lightest
        // (the last chip takes every worker left).
        let widest = (workers_left - (by_chip.len() - 1 - ci)).min(tiles.len());
        let mean_load = |s: usize| {
            let rest = (cost_left - total) as f64 / (workers_left - s).max(1) as f64;
            (total as f64 / s as f64).max(rest)
        };
        let share = (1..=widest)
            .min_by(|&a, &b| mean_load(a).total_cmp(&mean_load(b)))
            .expect("every chip gets a worker");
        // Cut at the prefix sums nearest `total × (j+1) / share`
        // (compared doubled, to round to nearest), always leaving one
        // tile for each run still to come.
        let (mut acc, mut i) = (0u64, 0usize);
        for j in 0..share {
            let target = 2 * total * (j as u64 + 1) / share as u64;
            let last = tiles.len() - (share - 1 - j);
            loop {
                out[next + j].push(tiles[i]);
                acc += cost[tiles[i]];
                i += 1;
                if i >= last || 2 * acc + cost[tiles[i]] > target {
                    break;
                }
            }
        }
        next += share;
        cost_left -= total;
    }
    out
}

/// One routed producer→consumer tile pair, the mailbox (on-chip) or
/// aggregate (off-chip) carrying it, and its single-lane words per
/// cycle — what worker neighbour sets and the fold report derive from.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Link {
    pub mailbox: u32,
    pub from: u32,
    pub to: u32,
    pub words: u32,
}

/// The complete compile front-end shared by the execution engines:
/// per-tile programs, state layout (register / array / output homes),
/// input packing, and the mailbox fabric, all sized for `lanes`
/// independent scenarios (the single-scenario engine passes 1).
///
/// Every strided lane-carrying buffer is word-interleaved (see the
/// `exec` module docs): each word's lane row
/// `[off × lanes, (off + 1) × lanes)` is contiguous, so the lane
/// kernels sweep dense lane chunks.
///
/// `Clone` deep-copies the whole artifact (including both mailbox
/// parities — see [`Mailbox::clone`]'s quiescence requirement): a
/// compile cache keeps one master copy and clones it per engine, so the
/// expensive `new` runs once per content-hash key.
#[derive(Clone)]
pub(crate) struct Compiled {
    /// Scenario lanes every buffer below is laid out for (recorded so a
    /// cached artifact carries its own lane shape).
    pub lanes: usize,
    pub programs: Vec<Program>,
    pub reg_home: Vec<RegHome>,
    pub array_home: Vec<ArrayHome>,
    pub output_home: Vec<OutputHome>,
    /// Word offset of each input in the (single-lane) strided input
    /// section — or, for a packed 1-bit input, its packed slot index.
    pub input_off: Vec<u32>,
    /// Whether each input lives in the packed tail of the input buffer.
    pub input_packed: Vec<bool>,
    /// Single-lane strided input section size in words.
    pub input_words: u32,
    /// Full input buffer size: `input_words × lanes` plus the packed
    /// tail.
    pub input_total_words: usize,
    pub input_by_name: HashMap<String, InputId>,
    pub output_by_name: HashMap<String, u32>,
    /// Strided words of own registers per tile (the per-lane register
    /// stride; packed 1-bit registers live after the strided section).
    pub tile_reg_words: Vec<u32>,
    /// Packed 1-bit register slots per tile.
    pub tile_reg_packed: Vec<u32>,
    /// Initial (single-lane) contents of every array, by `ArrayId`.
    pub array_init: Vec<Vec<u64>>,
    /// The mailbox fabric: on-chip per-tile-pair boxes first, then the
    /// per-chip-pair off-chip aggregates.
    pub channels: Vec<Mailbox>,
    /// Strided single-lane words of each mailbox (its strided section
    /// is `mail_words × lanes` words; packed slots live after it).
    pub mail_words: Vec<u32>,
    /// How many leading `channels` serve on-chip tile pairs.
    pub onchip_mailboxes: usize,
    /// `(from_chip, to_chip)` of each off-chip aggregate mailbox, in
    /// mailbox order (`channels[onchip_mailboxes + i]` carries
    /// `offchip_pairs[i]`) — the unit the transport backends move.
    pub offchip_pairs: Vec<(u32, u32)>,
    /// Every routing channel's endpoints, mailbox, and width.
    pub links: Vec<Link>,
    pub tile_chip: Vec<u32>,
    /// Words per packed 1-bit net block: `ceil(lanes / 64)` in packed
    /// mode, 0 otherwise.
    pub pw: usize,
    /// The lane-kernel instantiation the fused opcodes dispatch to,
    /// picked once here from the CPU and the lane count.
    pub isa: VecIsa,
}

/// Where a mailbox slot lives: the strided section or the packed tail
/// (absolute word offset — the packed tail is not lane-strided).
#[derive(Clone, Copy, Debug)]
enum MailSlot {
    Strided { ch: u32, off: u32 },
    Packed { ch: u32, abs: u32 },
}

/// The compile-time channel layout: translates a routing hop into the
/// engine's mailbox slot, accounting for the packed-mode re-layout
/// (1-bit register slots move to a packed tail; the strided section
/// compacts around them; port records always stay strided).
struct ChanLayout {
    /// Per routing channel: `(mailbox, strided word base, packed slot
    /// base)`.
    map: Vec<(u32, u32, u32)>,
    /// Per routing channel: strided words of its register section.
    sreg_words: Vec<u32>,
    /// Per routing channel: its original (routing-level) register words.
    reg_words: Vec<u32>,
    /// Resolved register slots: `(channel, routing word_off)` →
    /// compacted strided offset or packed slot index.
    reg_slot: HashMap<(u32, u32), MailSlot0>,
    /// Per mailbox: word offset of the packed tail (`stride × lanes`).
    packed_base: Vec<u32>,
    pw: u32,
}

/// A register slot within one routing channel, before the aggregate
/// mailbox bases are applied.
#[derive(Clone, Copy, Debug)]
enum MailSlot0 {
    Strided(u32),
    Packed(u32),
}

impl ChanLayout {
    /// Resolves a routing hop into its mailbox slot.
    fn slot_of(&self, hop: &parendi_core::routing::Hop) -> MailSlot {
        let ci = hop.channel as usize;
        let (mb, sbase, pbase) = self.map[ci];
        if hop.word_off < self.reg_words[ci] {
            match self.reg_slot[&(hop.channel, hop.word_off)] {
                MailSlot0::Strided(off) => MailSlot::Strided {
                    ch: mb,
                    off: sbase + off,
                },
                MailSlot0::Packed(slot) => MailSlot::Packed {
                    ch: mb,
                    abs: self.packed_base[mb as usize] + (pbase + slot) * self.pw,
                },
            }
        } else {
            // Port records pack after the compacted register section.
            MailSlot::Strided {
                ch: mb,
                off: sbase + self.sreg_words[ci] + (hop.word_off - self.reg_words[ci]),
            }
        }
    }
}

impl Compiled {
    /// Compiles `partition` for `lanes` side-by-side scenarios. With
    /// `packed`, 1-bit registers, inputs, mailbox slots, and eligible
    /// combinational nets are laid out bit-packed across lanes
    /// (`ceil(lanes / 64)` words per net).
    pub(crate) fn new(
        circuit: &Circuit,
        partition: &Partition,
        lanes: usize,
        packed: bool,
    ) -> Self {
        assert!(lanes >= 1, "need at least one lane");
        let isa = VecIsa::for_lanes(lanes);
        let pw = if packed { lanes.div_ceil(64) } else { 0 };
        assert!(pw < 1 << 16, "lane count overflows the packed-word imm");
        let routing = Routing::new(circuit, partition);

        // Input packing (shared, read-only during runs): 1-bit inputs
        // move to a packed tail in packed mode.
        let mut input_off = Vec::with_capacity(circuit.inputs.len());
        let mut input_packed = Vec::with_capacity(circuit.inputs.len());
        let mut iwords = 0u32;
        let mut ipacked = 0u32;
        let mut input_by_name = HashMap::new();
        for (i, d) in circuit.inputs.iter().enumerate() {
            if packed && d.width == 1 {
                input_off.push(ipacked);
                input_packed.push(true);
                ipacked += 1;
            } else {
                input_off.push(iwords);
                input_packed.push(false);
                iwords += words_for(d.width) as u32;
            }
            input_by_name.insert(d.name.clone(), InputId(i as u32));
        }
        let input_total_words = iwords as usize * lanes + ipacked as usize * pw;

        // Register homes: owner tile + offset among that tile's own
        // regs. Packed 1-bit registers get slot indices in the packed
        // tail instead of strided word offsets.
        let mut reg_home = vec![
            RegHome {
                tile: u32::MAX,
                off: 0,
                words: 0,
                packed: false,
            };
            circuit.regs.len()
        ];
        let mut tile_reg_words = vec![0u32; partition.processes.len()];
        let mut tile_reg_packed = vec![0u32; partition.processes.len()];
        for route in &routing.reg_routes {
            // reg_routes is in RegId order, so per-tile offsets pack in
            // RegId order too.
            if route.producer == u32::MAX {
                continue;
            }
            let t = route.producer as usize;
            if packed && circuit.regs[route.reg.index()].width == 1 {
                reg_home[route.reg.index()] = RegHome {
                    tile: route.producer,
                    off: tile_reg_packed[t],
                    words: 1,
                    packed: true,
                };
                tile_reg_packed[t] += 1;
            } else {
                reg_home[route.reg.index()] = RegHome {
                    tile: route.producer,
                    off: tile_reg_words[t],
                    words: route.words,
                    packed: false,
                };
                tile_reg_words[t] += route.words;
            }
        }

        // Array homes: first holder, or a spare copy of the initial
        // contents for arrays no process references.
        let array_init: Vec<Vec<u64>> = circuit
            .arrays
            .iter()
            .map(|a| {
                let w = words_for(a.width);
                let mut buf = vec![0u64; w * a.depth as usize];
                if let Some(init) = &a.init {
                    for (i, v) in init.iter().enumerate() {
                        buf[i * w..(i + 1) * w].copy_from_slice(v.words());
                    }
                }
                buf
            })
            .collect();
        let array_home: Vec<ArrayHome> = routing
            .array_holders
            .iter()
            .enumerate()
            .map(|(ai, holders)| match holders.first() {
                Some(&tile) => {
                    let p = &partition.processes[tile as usize];
                    let slot = p
                        .arrays
                        .binary_search(&parendi_rtl::ArrayId(ai as u32))
                        .expect("holder lists the array") as u32;
                    ArrayHome::Held { tile, slot }
                }
                None => ArrayHome::Spare(array_init[ai].clone()),
            })
            .collect();

        // Channel re-layout: per routing channel, count the strided
        // register words (wide registers, compacted) and the packed
        // 1-bit register slots, recording where every register slot
        // landed. Offsets were assigned by the routing in reg_routes
        // order, so walking that order reproduces them.
        let nch = routing.channels.len();
        let mut s_fill = vec![0u32; nch];
        let mut p_fill = vec![0u32; nch];
        let mut reg_slot: HashMap<(u32, u32), MailSlot0> = HashMap::new();
        for route in &routing.reg_routes {
            if route.producer == u32::MAX {
                continue;
            }
            let rp = reg_home[route.reg.index()].packed;
            for hop in &route.hops {
                let ci = hop.channel as usize;
                if rp {
                    reg_slot.insert((hop.channel, hop.word_off), MailSlot0::Packed(p_fill[ci]));
                    p_fill[ci] += 1;
                } else {
                    reg_slot.insert((hop.channel, hop.word_off), MailSlot0::Strided(s_fill[ci]));
                    s_fill[ci] += route.words;
                }
            }
        }
        // Strided words per routing channel: compacted register section
        // plus the (always strided) port-record section.
        let chan_strided: Vec<u32> = routing
            .channels
            .iter()
            .enumerate()
            .map(|(ci, ch)| s_fill[ci] + ch.port_words)
            .collect();

        // Mailboxes. On-chip channels get one double-buffered mailbox per
        // tile pair; off-chip channels are aggregated into one wider
        // mailbox per ordered chip pair, each channel owning a disjoint
        // segment. Buffers carry `lanes` word-interleaved copies of the
        // strided layout, followed by the packed tail.
        let mut chan_map = vec![(0u32, 0u32, 0u32); nch];
        let mut channels: Vec<Mailbox> = Vec::new();
        let mut mail_words: Vec<u32> = Vec::new();
        let mut mail_packed: Vec<u32> = Vec::new();
        for (ci, ch) in routing.channels.iter().enumerate() {
            if ch.class == ChannelClass::OnChip {
                chan_map[ci] = (channels.len() as u32, 0, 0);
                channels.push(Mailbox::new(
                    chan_strided[ci] as usize * lanes + p_fill[ci] as usize * pw,
                ));
                mail_words.push(chan_strided[ci]);
                mail_packed.push(p_fill[ci]);
            }
        }
        let onchip_mailboxes = channels.len();
        let mut pair_index: HashMap<(u32, u32), usize> = HashMap::new();
        let mut pair_words: Vec<u32> = Vec::new();
        let mut pair_packed: Vec<u32> = Vec::new();
        let mut offchip_pairs: Vec<(u32, u32)> = Vec::new();
        for (ci, ch) in routing.channels.iter().enumerate() {
            if ch.class == ChannelClass::OffChip {
                let pair = (
                    routing.tile_chip[ch.from as usize],
                    routing.tile_chip[ch.to as usize],
                );
                let pi = *pair_index.entry(pair).or_insert_with(|| {
                    pair_words.push(0);
                    pair_packed.push(0);
                    offchip_pairs.push(pair);
                    pair_words.len() - 1
                });
                chan_map[ci] = (
                    (onchip_mailboxes + pi) as u32,
                    pair_words[pi],
                    pair_packed[pi],
                );
                pair_words[pi] += chan_strided[ci];
                pair_packed[pi] += p_fill[ci];
            }
        }
        channels.extend(
            pair_words
                .iter()
                .zip(&pair_packed)
                .map(|(&w, &pk)| Mailbox::new(w as usize * lanes + pk as usize * pw)),
        );
        mail_words.extend(pair_words.iter().copied());
        mail_packed.extend(pair_packed.iter().copied());
        let links: Vec<Link> = routing
            .channels
            .iter()
            .enumerate()
            .map(|(ci, ch)| Link {
                mailbox: chan_map[ci].0,
                from: ch.from,
                to: ch.to,
                words: chan_strided[ci] + p_fill[ci],
            })
            .collect();
        let packed_base: Vec<u32> = mail_words
            .iter()
            .map(|&w| {
                let base = w as usize * lanes;
                assert!(base < u32::MAX as usize, "mailbox too large");
                base as u32
            })
            .collect();
        let layout = ChanLayout {
            map: chan_map,
            sreg_words: s_fill,
            reg_words: routing.channels.iter().map(|c| c.reg_words).collect(),
            reg_slot,
            packed_base,
            pw: pw as u32,
        };

        // Preload epoch-0 register slots with initial values so cycle 0
        // observes the power-on state — in every lane (packed slots get
        // the init bit broadcast across the lane bits).
        for route in &routing.reg_routes {
            for hop in &route.hops {
                let init = circuit.regs[route.reg.index()].init.words();
                match layout.slot_of(hop) {
                    MailSlot::Strided { ch, off } => {
                        for lane in 0..lanes {
                            for (k, &w) in init.iter().enumerate() {
                                let at = (off as usize + k) * lanes + lane;
                                // SAFETY: construction is single-threaded
                                // and offsets stay inside the lane-sized
                                // buffer.
                                unsafe {
                                    *channels[ch as usize].write_base(0).add(at) = w;
                                }
                            }
                        }
                    }
                    MailSlot::Packed { ch, abs } => {
                        let word = if init[0] & 1 == 1 { u64::MAX } else { 0 };
                        for i in 0..pw {
                            // SAFETY: as above; the packed tail is within
                            // the buffer by construction.
                            unsafe {
                                *channels[ch as usize].write_base(0).add(abs as usize + i) = word;
                            }
                        }
                    }
                }
            }
        }

        // Compile-time route indexes, built once: (array, port) → route
        // and per-array route ranges (port_routes is (array, port)
        // sorted), so program building never rescans `port_routes`.
        let mut port_route_of: HashMap<(u32, u32), u32> = HashMap::new();
        for (i, r) in routing.port_routes.iter().enumerate() {
            port_route_of.insert((r.array.0, r.port), i as u32);
        }
        let mut array_route_range = vec![(0u32, 0u32); circuit.arrays.len()];
        let mut i = 0;
        while i < routing.port_routes.len() {
            let a = routing.port_routes[i].array.index();
            let start = i;
            while i < routing.port_routes.len() && routing.port_routes[i].array.index() == a {
                i += 1;
            }
            array_route_range[a] = (start as u32, i as u32);
        }

        // Per-tile programs.
        let fe = FrontEnd {
            circuit,
            partition,
            routing: &routing,
            reg_home: &reg_home,
            layout: &layout,
            input_off: &input_off,
            input_packed: &input_packed,
            input_words: iwords,
            tile_reg_words: &tile_reg_words,
            port_route_of: &port_route_of,
            array_route_range: &array_route_range,
            lanes,
            pw,
            packed,
        };
        // Node id → arena offset scratch, shared by every tile's build:
        // `UNSET` outside the tile being built.
        let mut node_off = vec![UNSET; circuit.nodes.len()];
        let programs: Vec<Program> = partition
            .processes
            .iter()
            .enumerate()
            .map(|(pi, p)| build_program(&fe, &mut node_off, pi as u32, p))
            .collect();

        // Output homes: the owning tile (pinned by the routing layer)
        // plus the arena offset its program computes the value at.
        let mut output_home = vec![
            OutputHome {
                tile: u32::MAX,
                off: 0
            };
            circuit.outputs.len()
        ];
        for (pi, prog) in programs.iter().enumerate() {
            for &(oi, off) in &prog.outputs {
                debug_assert_eq!(routing.output_tiles[oi as usize], pi as u32);
                output_home[oi as usize] = OutputHome {
                    tile: pi as u32,
                    off,
                };
            }
        }
        let output_by_name: HashMap<String, u32> = circuit
            .outputs
            .iter()
            .enumerate()
            .map(|(i, o)| (o.name.clone(), i as u32))
            .collect();

        if std::env::var("PARENDI_CODE_STATS").is_ok_and(|v| !v.is_empty() && v != "0") {
            dump_code_stats(&circuit.name, &programs, lanes, packed, isa);
        }

        Compiled {
            lanes,
            programs,
            reg_home,
            array_home,
            output_home,
            input_off,
            input_packed,
            input_words: iwords,
            input_total_words,
            input_by_name,
            output_by_name,
            tile_reg_words,
            tile_reg_packed,
            array_init,
            channels,
            mail_words,
            onchip_mailboxes,
            offchip_pairs,
            links,
            tile_chip: routing.tile_chip,
            pw,
            isa,
        }
    }
}

/// Dumps aggregate opcode/width and adjacent-pair histograms of every
/// tile's bytecode to stderr — the `PARENDI_CODE_STATS` hook that
/// fusion and SIMD-coverage decisions are made from.
fn dump_code_stats(name: &str, programs: &[Program], lanes: usize, packed: bool, isa: VecIsa) {
    let stats = collect_code_stats(programs);
    eprintln!(
        "[code-stats] {name}: tiles={} ops={} dispatches={} mean_run={:.1} lanes={lanes} \
         packed={packed} simd={}",
        stats.tiles,
        stats.total_ops,
        stats.dispatches,
        stats.mean_run_length(),
        isa.name(),
    );
    // Run lengths, bucketed by the next power of two.
    let mut buckets: BTreeMap<u32, u64> = BTreeMap::new();
    for &(len, runs) in &stats.run_lengths {
        *buckets.entry(len.next_power_of_two()).or_insert(0) += runs;
    }
    for (upto, runs) in buckets {
        eprintln!("[code-stats]   runs len<={upto:<5} x{runs}");
    }
    for o in &stats.opcodes {
        eprintln!(
            "[code-stats]   {:<10} w={:<3} x{}",
            o.name, o.width, o.count
        );
    }
    for p in stats.top_pairs(16) {
        eprintln!(
            "[code-stats]   pair {} -> {} x{}",
            p.first, p.second, p.count
        );
    }
}

/// Aggregates every tile program's opcode/width and adjacent-pair
/// histograms into a queryable [`CodeStats`] — the same data the
/// `PARENDI_CODE_STATS` stderr dump prints, exposed for `perf_report`.
pub(crate) fn collect_code_stats(programs: &[Program]) -> parendi_telemetry::CodeStats {
    let mut hist: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
    let mut pairs: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
    let mut runs: BTreeMap<u32, u64> = BTreeMap::new();
    let (mut ops, mut dispatches) = (0u64, 0u64);
    for prog in programs {
        prog.code.histogram(&mut hist);
        prog.code.pair_histogram(&mut pairs);
        prog.code.run_lengths(&mut runs);
        let (strided, packed) = prog.code.op_mix();
        ops += strided + packed;
        dispatches += prog.code.ops.len() as u64;
    }
    parendi_telemetry::CodeStats::from_histograms(
        programs.len(),
        ops,
        dispatches,
        runs,
        hist.into_iter().map(|((n, w), c)| ((n.to_string(), w), c)),
        pairs
            .into_iter()
            .map(|((a, b), c)| ((a.to_string(), b.to_string()), c)),
    )
}

/// Everything [`build_program`] needs from the front-end: circuit,
/// routing, the packed-aware channel layout, and the state layouts.
struct FrontEnd<'a> {
    circuit: &'a Circuit,
    partition: &'a Partition,
    routing: &'a Routing,
    reg_home: &'a [RegHome],
    layout: &'a ChanLayout,
    /// Strided word offset (or packed slot index) per input.
    input_off: &'a [u32],
    input_packed: &'a [bool],
    /// Strided per-lane input stride in words.
    input_words: u32,
    tile_reg_words: &'a [u32],
    port_route_of: &'a HashMap<(u32, u32), u32>,
    array_route_range: &'a [(u32, u32)],
    lanes: usize,
    pw: usize,
    packed: bool,
}

/// "No arena offset" in the node-id → offset scratch of
/// [`build_program`]: every entry outside the tile being built, and
/// inside it every node not yet visited.
const UNSET: u32 = u32::MAX;

/// The arena offset [`build_program`] assigned to node `id` of the tile
/// it is building.
fn assigned(node_off: &[u32], id: parendi_rtl::NodeId) -> u32 {
    let off = node_off[id.index()];
    assert!(off != UNSET, "node read before its slot was assigned");
    off
}

/// Orders a tile's nodes for the run-forming one-lane lowering (the
/// *Schedule* section of [`crate::exec`] argues legality): constants,
/// then the register/input/mailbox reads sorted by `source_key` — kind,
/// channel, source offset, so contiguous reads meet in the block-copy
/// peephole — then a list schedule that keeps emitting ready nodes of
/// the current opcode class and, when none is left, switches to the
/// class with the most ready nodes (ties: lowest opcode). Every table
/// is a dense `Vec` indexed by a node's rank in `nodes` (`rank_of`
/// borrows the caller's per-circuit-node scratch for the node-id →
/// rank map and hands it back all [`UNSET`]), the ready sets are
/// intrusive per-class stacks, and the pass is O(nodes + edges) beyond
/// sorting the reads — nothing iterates a hash table, so the order is
/// a pure function of the circuit.
fn schedule(
    circuit: &Circuit,
    nodes: &parendi_graph::HybridSet,
    rank_of: &mut [u32],
    source_key: impl Fn(&NodeKind) -> u64,
) -> Vec<u32> {
    use crate::exec::{bin1_opc, op, un1_opc};
    let ids: Vec<u32> = nodes.iter().collect();
    let n = ids.len();
    // Per node: the opcode class it lowers to, whether it is wider than
    // a word, and its operands' ranks (CSR) — operands have lower ids,
    // so their rows are filled before any user reads them.
    let mut class = vec![0u8; n];
    let mut big = vec![false; n];
    let mut pred_at = Vec::with_capacity(n + 1);
    let mut preds: Vec<u32> = Vec::with_capacity(2 * n);
    let mut succ_at = vec![0u32; n + 1];
    let mut consts = Vec::new();
    let mut reads: Vec<(u64, u32)> = Vec::new();
    for (r, &nid) in ids.iter().enumerate() {
        let node = &circuit.nodes[nid as usize];
        rank_of[nid as usize] = r as u32;
        pred_at.push(preds.len() as u32);
        big[r] = node.width > 64;
        let mut wide = big[r];
        node.for_each_operand(|o| {
            let q = rank_of[o.0 as usize];
            debug_assert_eq!(ids.get(q as usize), Some(&o.0), "a tile holds whole cones");
            wide |= big[q as usize];
            succ_at[q as usize + 1] += 1;
            preds.push(q);
        });
        class[r] = match &node.kind {
            NodeKind::Const(_) => {
                consts.push(r as u32);
                continue;
            }
            k @ (NodeKind::Input(_) | NodeKind::RegRead(_)) => {
                reads.push((source_key(k), r as u32));
                continue;
            }
            NodeKind::ArrayRead { .. } => op::ARRAY_READ,
            _ if wide => op::WIDE,
            NodeKind::Un(o, _) => un1_opc(*o),
            NodeKind::Bin(o, ..) => bin1_opc(*o),
            NodeKind::Mux { .. } => op::MUX1,
            NodeKind::Slice { .. } => op::SLICE1,
            NodeKind::Zext(_) => op::ZEXT1,
            NodeKind::Sext(_) => op::SEXT1,
            NodeKind::Concat { .. } => op::CONCAT1,
        };
    }
    pred_at.push(preds.len() as u32);
    for &nid in &ids {
        rank_of[nid as usize] = UNSET;
    }
    // Successor lists: the same edges, counting-sorted by producer.
    for r in 0..n {
        succ_at[r + 1] += succ_at[r];
    }
    let mut fill = succ_at.clone();
    let mut succs = vec![0u32; preds.len()];
    for r in 0..n {
        for &q in &preds[pred_at[r] as usize..pred_at[r + 1] as usize] {
            succs[fill[q as usize] as usize] = r as u32;
            fill[q as usize] += 1;
        }
    }
    // Ready nodes: one stack per class, threaded through `next` and
    // ended by `UNSET`.
    let mut waiting: Vec<u32> = pred_at.windows(2).map(|w| w[1] - w[0]).collect();
    let mut head = [UNSET; op::WIDE as usize + 1];
    let mut ready = [0u32; op::WIDE as usize + 1];
    let mut next = vec![UNSET; n];
    reads.sort_unstable();
    let mut first = consts.into_iter().chain(reads.into_iter().map(|(_, r)| r));
    let mut order = Vec::with_capacity(n);
    let mut cur = 0usize;
    while order.len() < n {
        let r = first.next().unwrap_or_else(|| {
            if head[cur] == UNSET {
                // `max_by_key` keeps the last maximum: scan downwards.
                cur = (0..ready.len()).rev().max_by_key(|&c| ready[c]).unwrap();
                assert!(ready[cur] > 0, "combinational cycle inside a tile");
            }
            let r = head[cur];
            head[cur] = next[r as usize];
            ready[cur] -= 1;
            r
        }) as usize;
        order.push(ids[r]);
        for &s in &succs[succ_at[r] as usize..succ_at[r + 1] as usize] {
            let s = s as usize;
            waiting[s] -= 1;
            if waiting[s] == 0 {
                let c = class[s] as usize;
                next[s] = head[c];
                head[c] = s as u32;
                ready[c] += 1;
            }
        }
    }
    order
}

/// Compiles one process into a self-contained [`Program`].
///
/// `fe.layout` translates a routing hop into the engine's mailbox slot
/// (strided or packed); `fe.port_route_of` and `fe.array_route_range`
/// are the compile-time route indexes built once in [`Compiled::new`]
/// so this runs in O(program size), not O(tiles × ports²).
///
/// Arena slots are bump-allocated in the order the nodes are visited:
/// node-id order for a gang, [`schedule`]'s opcode-class order — whose
/// same-opcode neighbours the lowering then collapses into runs — at
/// one lane (the *Schedule* section of [`crate::exec`] has the
/// measurements behind that rule).
fn build_program(
    fe: &FrontEnd<'_>,
    node_off: &mut [u32],
    pi: u32,
    p: &parendi_core::Process,
) -> Program {
    let FrontEnd {
        circuit,
        partition,
        routing,
        reg_home,
        layout,
        port_route_of,
        array_route_range,
        lanes,
        pw,
        ..
    } = *fe;
    // Mail slots for remote registers this tile reads.
    let mut mail_slot: HashMap<u32, MailSlot> = HashMap::new();
    for route in &routing.reg_routes {
        for hop in &route.hops {
            if hop.tile == pi {
                mail_slot.insert(route.reg.0, layout.slot_of(hop));
            }
        }
    }
    // Absolute word offset of this tile's packed register slot `s`.
    let reg_packed_abs = |s: u32| -> u32 {
        (fe.tile_reg_words[pi as usize] as usize * lanes + s as usize * pw) as u32
    };
    let arrays = &p.arrays;
    let array_slot = |a: parendi_rtl::ArrayId| -> u32 {
        arrays
            .binary_search(&a)
            .expect("tile holds read/written arrays") as u32
    };

    let runs = lanes == 1;
    let order: Vec<u32> = if runs {
        schedule(circuit, &p.nodes, node_off, |kind| match *kind {
            NodeKind::Input(i) => fe.input_off[i.index()] as u64,
            NodeKind::RegRead(r) if reg_home[r.index()].tile == pi => {
                1 << 62 | reg_home[r.index()].off as u64
            }
            NodeKind::RegRead(r) => match mail_slot[&r.0] {
                MailSlot::Strided { ch, off } | MailSlot::Packed { ch, abs: off } => {
                    2 << 62 | (ch as u64) << 32 | off as u64
                }
            },
            _ => unreachable!("only reads are keyed"),
        })
    } else {
        p.nodes.iter().collect()
    };
    debug_assert_eq!(order.len(), p.nodes.len());

    let mut words = 0u32;
    let mut steps = Vec::new();
    let mut const_init = Vec::new();
    for &nid in &order {
        let node = &circuit.nodes[nid as usize];
        let w = node.width;
        let nw = words_for(w) as u32;
        let dst = words;
        node_off[nid as usize] = dst;
        words += nw;
        let lo = |id: parendi_rtl::NodeId| assigned(node_off, id);
        let opw = |id: parendi_rtl::NodeId| words_for(circuit.width(id)) as u32;
        match &node.kind {
            NodeKind::Const(b) => const_init.push((dst, b.words().to_vec())),
            NodeKind::Input(i) => {
                if fe.input_packed[i.index()] {
                    let src = (fe.input_words as usize * lanes
                        + fe.input_off[i.index()] as usize * pw)
                        as u32;
                    steps.push(Step::InputP { dst, src });
                } else {
                    steps.push(Step::Input {
                        dst,
                        src: fe.input_off[i.index()],
                        nw,
                    });
                }
            }
            NodeKind::RegRead(r) => {
                let home = reg_home[r.index()];
                if home.tile == pi {
                    if home.packed {
                        steps.push(Step::RegOwnP {
                            dst,
                            src: reg_packed_abs(home.off),
                        });
                    } else {
                        steps.push(Step::RegOwn {
                            dst,
                            src: home.off,
                            nw,
                        });
                    }
                } else {
                    match mail_slot[&r.0] {
                        MailSlot::Strided { ch, off } => steps.push(Step::RegMail {
                            dst,
                            ch,
                            src: off,
                            nw,
                        }),
                        MailSlot::Packed { ch, abs } => {
                            steps.push(Step::RegMailP { dst, ch, src: abs })
                        }
                    }
                }
            }
            NodeKind::ArrayRead { array, index } => steps.push(Step::ArrayRead {
                dst,
                arr: array_slot(*array),
                idx: lo(*index),
                idx_w: opw(*index),
                nw,
                depth: circuit.arrays[array.index()].depth,
            }),
            NodeKind::Un(op, a) => steps.push(Step::Un {
                op: *op,
                dst,
                a: lo(*a),
                w,
                aw: circuit.width(*a),
                anw: opw(*a),
            }),
            NodeKind::Bin(op, a, b) => steps.push(Step::Bin {
                op: *op,
                dst,
                a: lo(*a),
                b: lo(*b),
                w,
                aw: circuit.width(*a),
                anw: opw(*a),
                bnw: opw(*b),
            }),
            NodeKind::Mux { sel, t, f } => steps.push(Step::Mux {
                dst,
                sel: lo(*sel),
                t: lo(*t),
                f: lo(*f),
                nw,
                w,
            }),
            NodeKind::Slice { src, lo: slo } => steps.push(Step::Slice {
                dst,
                a: lo(*src),
                lo: *slo,
                w,
                anw: opw(*src),
            }),
            NodeKind::Zext(a) => steps.push(Step::Zext {
                dst,
                a: lo(*a),
                w,
                anw: opw(*a),
            }),
            NodeKind::Sext(a) => steps.push(Step::Sext {
                dst,
                a: lo(*a),
                aw: circuit.width(*a),
                w,
                anw: opw(*a),
            }),
            NodeKind::Concat { hi, lo: l } => steps.push(Step::Concat {
                dst,
                hi: lo(*hi),
                lo: lo(*l),
                w,
                low_w: circuit.width(*l),
                hnw: opw(*hi),
                lnw: opw(*l),
            }),
        }
    }

    // Own register latches and outgoing sends (split by channel class),
    // own port records, and the outputs this tile computes. Packed
    // registers collect *raw* commits/sends keyed by the next-value's
    // arena offset; the packed arena slots are resolved after lowering.
    let mut commits = Vec::new();
    let mut sends = Vec::new();
    let mut offchip_sends = Vec::new();
    let mut raw_packed_commits: Vec<(u32, u32)> = Vec::new();
    let mut raw_packed_sends: Vec<(u32, u32, u32)> = Vec::new();
    let mut raw_offchip_packed_sends: Vec<(u32, u32, u32)> = Vec::new();
    let mut need_packed: Vec<u32> = Vec::new();
    let mut need_strided: Vec<u32> = Vec::new();
    let mut port_sends = Vec::new();
    let mut offchip_port_sends = Vec::new();
    let mut outputs = Vec::new();
    let mut own_port: HashMap<(u32, u32), RecSrc> = HashMap::new();
    let mut fibers: Vec<_> = p.fibers.clone();
    fibers.sort_unstable();
    for &f in &fibers {
        match partition.fiber_sinks[f.index()] {
            parendi_graph::fiber::SinkKind::Reg(r) => {
                let reg = &circuit.regs[r.index()];
                let next = reg.next.expect("validated circuit");
                let home = reg_home[r.index()];
                debug_assert_eq!(home.tile, pi);
                let nw = words_for(reg.width) as u32;
                if home.packed {
                    raw_packed_commits.push((assigned(node_off, next), reg_packed_abs(home.off)));
                    need_packed.push(assigned(node_off, next));
                } else {
                    commits.push(RegCommit {
                        local: assigned(node_off, next),
                        dst: home.off,
                        nw,
                    });
                }
                for hop in &routing.reg_routes[r.index()].hops {
                    match layout.slot_of(hop) {
                        MailSlot::Strided { ch, off } => {
                            let send = RegSend {
                                local: assigned(node_off, next),
                                ch,
                                dst: off,
                                nw,
                            };
                            if routing.hop_crosses_chip(hop) {
                                offchip_sends.push(send);
                            } else {
                                sends.push(send);
                            }
                        }
                        MailSlot::Packed { ch, abs } => {
                            need_packed.push(assigned(node_off, next));
                            let raw = (assigned(node_off, next), ch, abs);
                            if routing.hop_crosses_chip(hop) {
                                raw_offchip_packed_sends.push(raw);
                            } else {
                                raw_packed_sends.push(raw);
                            }
                        }
                    }
                }
            }
            parendi_graph::fiber::SinkKind::ArrayPort { array, port } => {
                let a = &circuit.arrays[array.index()];
                let wp = &a.write_ports[port as usize];
                let nw = words_for(a.width) as u32;
                let ri = port_route_of[&(array.0, port)];
                let route = &routing.port_routes[ri as usize];
                let (off_dests, on_dests): (Vec<_>, Vec<_>) =
                    route.hops.iter().partition(|h| routing.hop_crosses_chip(h));
                let en = assigned(node_off, wp.enable);
                let idx = assigned(node_off, wp.index);
                let idx_w = words_for(circuit.width(wp.index)) as u32;
                let data = assigned(node_off, wp.data);
                // Port records always live strided; their 1-bit inputs
                // must be materialized out of the packed domain.
                need_strided.extend([en, idx, data]);
                let port_slot = |h: &parendi_core::routing::Hop| -> (u32, u32) {
                    match layout.slot_of(h) {
                        MailSlot::Strided { ch, off } => (ch, off),
                        MailSlot::Packed { .. } => unreachable!("port records are never packed"),
                    }
                };
                for (dests, out) in [
                    (on_dests, &mut port_sends),
                    (off_dests, &mut offchip_port_sends),
                ] {
                    if dests.is_empty() {
                        continue;
                    }
                    out.push(PortSend {
                        en,
                        idx,
                        idx_w,
                        data,
                        nw,
                        dests: dests.iter().map(|&h| port_slot(h)).collect(),
                    });
                }
                own_port.insert(
                    (array.0, port),
                    RecSrc::Own {
                        en,
                        idx,
                        idx_w,
                        data,
                    },
                );
            }
            parendi_graph::fiber::SinkKind::Output(oi) => {
                let node = circuit.outputs[oi as usize].node;
                // Output peeks read the strided arena slot.
                need_strided.push(assigned(node_off, node));
                outputs.push((oi, assigned(node_off, node)));
            }
        }
    }
    commits.sort_by_key(|c| c.dst);

    // Apply list: every port of every held array, in (array, port) order
    // (each array's routes read off the precomputed range).
    let mut applies = Vec::new();
    for (slot, &a) in p.arrays.iter().enumerate() {
        let arr = &circuit.arrays[a.index()];
        let nw = words_for(arr.width) as u32;
        let (start, end) = array_route_range[a.index()];
        for route in &routing.port_routes[start as usize..end as usize] {
            let src = match own_port.get(&(a.0, route.port)) {
                Some(&own) => own,
                None => {
                    let hop = route
                        .hops
                        .iter()
                        .find(|h| h.tile == pi)
                        .expect("holder receives every remote port record");
                    match layout.slot_of(hop) {
                        MailSlot::Strided { ch, off } => RecSrc::Mail { ch, off },
                        MailSlot::Packed { .. } => unreachable!("port records are never packed"),
                    }
                }
            };
            applies.push(Apply {
                arr: slot as u32,
                nw,
                depth: arr.depth,
                src,
            });
        }
    }

    let offchip_words = offchip_sends.iter().map(|s| s.nw as u64).sum::<u64>()
        + offchip_port_sends
            .iter()
            .map(|ps| (PORT_RECORD_HEADER_WORDS + ps.nw) as u64 * ps.dests.len() as u64)
            .sum::<u64>();

    // Lower to bytecode. In packed mode the lowering routes eligible
    // 1-bit computation through the packed arena and returns where each
    // packed net landed, which resolves the raw packed commits/sends.
    let (code, prelude, packed_words, pslot, const_packs) = if fe.packed {
        let lowered = Code::lower_packed(
            &steps,
            &crate::exec::PackPlan {
                pw: pw as u32,
                preset_strided: Vec::new(),
                const_strided: const_init.iter().map(|(off, _)| *off).collect(),
                preset_packed: Vec::new(),
                need_strided,
                need_packed,
            },
            runs,
        );
        (
            lowered.code,
            lowered.prelude,
            lowered.packed_words,
            lowered.pslot,
            lowered.const_packs,
        )
    } else {
        (
            Code::lower(&steps, runs),
            Code::default(),
            0,
            HashMap::new(),
            Vec::new(),
        )
    };
    let mut packed_commits: Vec<PackedCommit> = raw_packed_commits
        .iter()
        .map(|&(off, dst)| PackedCommit {
            psrc: pslot[&off],
            dst,
        })
        .collect();
    packed_commits.sort_by_key(|c| c.dst);
    let resolve_sends = |raw: &[(u32, u32, u32)]| -> Vec<PackedSend> {
        raw.iter()
            .map(|&(off, ch, abs)| PackedSend {
                psrc: pslot[&off],
                ch,
                dst: abs,
            })
            .collect()
    };
    let packed_sends = resolve_sends(&raw_packed_sends);
    let offchip_packed_sends = resolve_sends(&raw_offchip_packed_sends);
    let offchip_packed_words = offchip_packed_sends.len() as u64 * pw as u64;
    for &nid in &order {
        node_off[nid as usize] = UNSET;
    }

    Program {
        code,
        prelude,
        arena_words: words as usize,
        const_init,
        commits,
        sends,
        offchip_sends,
        port_sends,
        offchip_port_sends,
        applies,
        outputs,
        offchip_words,
        packed_words,
        packed_commits,
        packed_sends,
        offchip_packed_sends,
        offchip_packed_words,
        const_packs,
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use parendi_rtl::bits::Bits;
    use proptest::prelude::*;

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
                    if crate::exec::is_fused1(opc) {
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
}
