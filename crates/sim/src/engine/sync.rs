//! Who waits for whom: the epoch protocol, the buffers it guards, and
//! the fold that decides which workers are neighbours.
//!
//! A cycle is `compute · publish · wait-on-neighbours · exchange`:
//! [`EpochSync`] is that one sync point, and its type docs state **the
//! epoch invariant** every `SAFETY:` comment on a [`Mailbox`] access in
//! this crate is written against. [`worker_groups`] folds tiles onto
//! threads chip-major and cost-balanced, and [`fold_neighbors`] derives
//! from the fold and the routed [`Link`]s the static, symmetric
//! neighbour sets the protocol waits on. A worker with no neighbours,
//! and the inline one-thread path, touch no sync state at all.

use crate::report::{FoldReport, WorkerFold};
use parendi_telemetry::{env_knob, Counter};
use std::cell::UnsafeCell;
use std::collections::BTreeMap;
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
        let spin_limit = env_knob(
            "PARENDI_SPIN_LIMIT",
            if neighbors.len() <= cores { 1 << 14 } else { 0 },
        );
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

    /// One parity buffer, shared.
    ///
    /// # Safety
    ///
    /// No concurrent writer of `parity` may exist for as long as the
    /// slice lives (the epoch invariant of [`EpochSync`], or
    /// quiescence between runs).
    pub(crate) unsafe fn read(&self, parity: usize) -> &[u64] {
        // SAFETY: the cell holds a live box; the caller rules out a
        // concurrent writer of this parity.
        unsafe { &*self.bufs[parity].get() }
    }

    /// Base pointer for segment writes into buffer `parity`, derived
    /// raw-to-raw so no `&mut` over the buffer ever exists.
    ///
    /// # Safety
    ///
    /// For every store through the pointer the epoch invariant of
    /// [`EpochSync`] must hold (no concurrent reader of `parity`), and
    /// each writer must store only to word ranges it exclusively owns
    /// (channel segments are disjoint by layout).
    pub(crate) unsafe fn write_base(&self, parity: usize) -> *mut u64 {
        // SAFETY: the cell holds a live box for as long as `self`
        // lives; taking its address reads no word of it.
        unsafe { (&raw mut **self.bufs[parity].get()) as *mut u64 }
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

/// Derives, under the fold `groups`, each worker's neighbour set — the
/// workers it shares a buffer with — and the fold's report. An on-chip
/// mailbox joins its two endpoint workers; an off-chip aggregate (with
/// its producer countdown) joins every worker producing into or
/// consuming from it and, when a `staged` transport lands frames in
/// it, the pair's receiving worker — with few workers per chip that is
/// everyone, i.e. a full barrier, as data rather than a second path.
pub(crate) fn fold_neighbors(
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
