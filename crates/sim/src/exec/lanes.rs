//! Lane-set shapes and the lane-strided tile state they sweep.
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
//! Outside the rule: the **packed** 1-bit domain (a packed block is
//! already lane-transposed; the packed tails of the register file,
//! input buffer and mailboxes keep absolute offsets) and the per-lane
//! **array** copies (lane `l`'s copy is the contiguous block
//! `[l * words, (l + 1) * words)` — array traffic is index-scattered
//! anyway).
//!
//! # Lane sets
//!
//! A gang has **one compute shape**: the bytecode always sweeps a dense
//! lane range from lane 0 — [`OneLane`], or [`AllLanes`]`(hi)` with `hi`
//! the highest live lane + 1 — and those two are the only shapes
//! [`exec_code`](super::dispatch::exec_code) is instantiated for
//! ([`DenseLanes`]). Per-lane early exit changes the sweep's *bound*,
//! never its shape: a retired lane below `hi` is recomputed along with
//! its neighbours, a retired lane at the top drops out of the range.
//!
//! The survivor list ([`LaneList`]) is consulted only where state
//! becomes **durable** — the register latch, register and port-record
//! sends (on- and off-chip), the array applies, and (as a bit mask) the
//! packed commits and sends. So what **freezes** bit-exact when a lane
//! retires is its registers, arrays, mailbox words (both parities) and
//! inputs; what stays **scratch** is its arena words and, in packed
//! mode, its packed-scratch bits: below `hi` they are recomputed every
//! cycle from the frozen state and committed nowhere, at `hi` and above
//! they are simply stale. Nothing reads a retired lane's scratch —
//! output peeks replay the tile from the frozen state at the lane's
//! freeze parity.

/// The set of scenario lanes a phase of the cycle covers. The cycle
/// loop is monomorphized per implementation so the single-scenario
/// engine ([`OneLane`]) pays no lane arithmetic at all, the full gang
/// ([`AllLanes`]) runs a dense counted loop, and an early-exited gang
/// ([`LaneList`]) computes its [`dense`](LaneSet::dense) cover and skips
/// finished lanes in the commit phases only.
pub(crate) trait LaneSet: Copy {
    /// `true` only for [`OneLane`]: the engine has exactly one lane, so
    /// `off * lanes + lane` is `off` and every opcode is one scalar
    /// statement instead of a sweep.
    const ONE: bool = false;
    /// The shape the bytecode runs in for this set: the set itself when
    /// it already is a dense range, the range up to the highest
    /// survivor for a [`LaneList`].
    type Dense: DenseLanes;
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
    /// The smallest dense range covering every lane of the set.
    fn dense(&self) -> Self::Dense;
    /// Calls `f` once per lane index of the set, ascending.
    fn for_each(&self, f: impl FnMut(usize));
    /// Calls `f(start, len)` once per maximal run of **consecutive**
    /// lanes of the set — the dense blocks the lane kernels and the
    /// commit copies sweep. [`AllLanes`] yields one block, [`OneLane`] a
    /// single unit block, and a [`LaneList`] one block per survivor run.
    fn for_each_chunk(&self, f: impl FnMut(usize, usize));
}

/// A lane set that is one dense range `0..count` — the only kind the
/// bytecode dispatch accepts, so a survivor list cannot reach it.
pub(crate) trait DenseLanes: LaneSet {
    /// Number of lanes swept (lanes `0..count`).
    fn count(&self) -> usize;
}

/// Exactly lane 0 of a one-lane engine (the single-scenario engine).
#[derive(Clone, Copy)]
pub(crate) struct OneLane;

impl LaneSet for OneLane {
    const ONE: bool = true;
    type Dense = OneLane;
    #[inline(always)]
    fn dense(&self) -> OneLane {
        OneLane
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

impl DenseLanes for OneLane {
    #[inline(always)]
    fn count(&self) -> usize {
        1
    }
}

/// Lanes `0..n` of a gang: every lane while none has exited, and the
/// compute range of an early-exited gang.
#[derive(Clone, Copy)]
pub(crate) struct AllLanes(pub usize);

impl LaneSet for AllLanes {
    type Dense = AllLanes;
    #[inline(always)]
    fn dense(&self) -> AllLanes {
        *self
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

impl DenseLanes for AllLanes {
    #[inline(always)]
    fn count(&self) -> usize {
        self.0
    }
}

/// The surviving lanes of a gang some scenarios of which finished, as
/// its ascending maximal runs `(start, len)` of consecutive lanes: what
/// the commit phases iterate.
#[derive(Clone, Copy)]
pub(crate) struct LaneList<'a>(pub &'a [(u32, u32)]);

impl LaneList<'_> {
    /// The runs of an ascending lane list, found once per run so that
    /// no commit copy rediscovers them.
    pub(crate) fn runs(active: &[u32]) -> Vec<(u32, u32)> {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for &l in active {
            match runs.last_mut() {
                Some((s, n)) if *s + *n == l => *n += 1,
                _ => runs.push((l, 1)),
            }
        }
        runs
    }
}

impl LaneSet for LaneList<'_> {
    type Dense = AllLanes;
    #[inline(always)]
    fn dense(&self) -> AllLanes {
        AllLanes(self.0.last().map_or(0, |&(s, n)| (s + n) as usize))
    }
    #[inline(always)]
    fn for_each(&self, mut f: impl FnMut(usize)) {
        for &(s, n) in self.0 {
            for l in s..s + n {
                f(l as usize);
            }
        }
    }
    #[inline(always)]
    fn for_each_chunk(&self, mut f: impl FnMut(usize, usize)) {
        for &(s, n) in self.0 {
            f(s as usize, n as usize);
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

    /// Words of the allocation ahead of the first word, and in all.
    #[cfg(test)]
    pub(super) fn placement(&self) -> (usize, usize) {
        let lead = (self.first.as_ptr() as usize - self._store.as_ptr() as usize) / 8;
        (lead, self._store.len())
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
