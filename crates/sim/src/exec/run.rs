//! The run path: `run_inner` → one [`RunCtx`] per worker →
//! [`cycle_loop`], for the pool and for the inline one-thread engine
//! alike, plus the persistent worker pool that carries it.
//!
//! A cycle is `compute · flush · publish · wait-on-neighbours ·
//! exchange`, and the loop falls from the exchange straight into the
//! next compute. The off-chip flush is eager: as soon as a tile's
//! compute finishes its cross-chip words are copied into the
//! epoch-`c+1` aggregate (legal under the double-buffer epoch
//! discipline), so a staged transport ships them while the worker
//! computes its remaining tiles.

use super::core::{CoreShared, EngineCore};
use super::dispatch::exec_code;
use super::lanes::{AllLanes, LaneList, LaneSet, LaneTile, OneLane};
use super::phases::{compute_phase, exchange_phase, offchip_flush};
use crate::engine::sync::Mailbox;
use crate::report::{BspPhases, TilePhases};
use crate::simd::VecIsa;
use parendi_telemetry::{SpanKind, TraceBuf, TraceEvent, TraceLevel, TraceSink, NO_TILE};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::MutexGuard;
use std::time::Instant;

/// Per-run accumulator of one worker's phase nanoseconds.
#[derive(Default, Clone, Copy)]
pub(super) struct PhaseAcc {
    comp: u64,
    off: u64,
    exch: u64,
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

/// Everything one worker's run of the cycle loop reads and fills in,
/// built by [`run_worker`] — the pool and the inline path have no other
/// way in.
pub(super) struct RunCtx<'a> {
    shared: &'a CoreShared,
    /// The tiles this worker runs, and their locks (held for the run:
    /// the steady-state loop acquires no locks and allocates nothing).
    mine: &'a [usize],
    guards: Vec<MutexGuard<'a, LaneTile>>,
    inputs: &'a [u64],
    start: u64,
    cycles: u64,
    timed: bool,
    /// Worker slot (0 for the inline path).
    who: usize,
    /// Per tile of `mine`: (compute, offchip, exchange) ns. Empty
    /// unless `timed` — untimed runs skip the histogram allocation and
    /// (tracing off) the clock reads.
    tile_ns: Vec<(u64, u64, u64)>,
    acc: PhaseAcc,
    tracer: Option<Tracer<'a>>,
}

impl EngineCore<'_> {
    /// Periodic auto-checkpointing: write a snapshot to `path` every
    /// `every` absolute cycles (the programmatic twin of
    /// `PARENDI_CHECKPOINT=path:every`). Chunking a run at checkpoint
    /// boundaries is semantics-preserving — runs stay bit-identical.
    pub(crate) fn set_auto_checkpoint(&mut self, path: PathBuf, every: u64) {
        assert!(every > 0, "checkpoint interval must be positive");
        self.auto_ckpt = Some((path, every));
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
        let sh = &self.shared;
        if self.workers.is_empty() {
            let mine: Vec<usize> = (0..sh.tiles.len()).collect();
            run_worker(sh, 0, &mine, self.cycle, cycles, timed);
        } else {
            sh.cmd_cycles.store(cycles, Ordering::SeqCst);
            sh.cmd_start.store(self.cycle, Ordering::SeqCst);
            sh.cmd_timed.store(timed, Ordering::SeqCst);
            // Epochs are run-relative (a restore may have moved `cycle`
            // backwards); the gate publishes the rewind to the pool.
            if let Some(sync) = &sh.sync {
                sync.reset();
            }
            sh.gate.wait();
            sh.done.wait();
        }
        let mut acc = PhaseAcc::default();
        let mut per_tile = Vec::new();
        if timed {
            // Straggler = the worker with the most real work
            // (compute + flush). Totals can't rank workers:
            // neighbour waits absorb the slack, equalizing every
            // connected worker's span up to wakeup jitter.
            for slot in &sh.phase_ns {
                let a = *slot.lock().unwrap();
                if a.comp + a.off > acc.comp + acc.off {
                    acc = a;
                }
            }
            per_tile = sh
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
        self.cycle += cycles;
        // Run-level metric credits: static op mix × cycles (prelude
        // once per run), all off the hot path.
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

/// Picks the [`LaneSet`] for the current active-lane list and hands
/// the cycle loop monomorphized for it to `f`: a one-lane engine; a
/// dense gang, when the survivors are exactly lanes `0..k` (no lane
/// retired yet, or every retirement came off the top — the order
/// `parendi-serve` retires in); otherwise the survivor runs.
fn dispatch_lanes<R>(shared: &CoreShared, active: &[u32], f: impl FnOnce(&dyn DynLanes) -> R) -> R {
    let top = active.last().map_or(0, |&l| l as usize + 1);
    if shared.lanes == 1 && active.len() == 1 {
        f(&OneLane)
    } else if top == active.len() {
        f(&AllLanes(top))
    } else {
        f(&LaneList(&LaneList::runs(active)))
    }
}

/// Object-safe shim over [`LaneSet`] so the run dispatch can pick an
/// implementation at runtime while the cycle loop itself stays
/// monomorphized (the `dyn` call happens once per run, not per op).
trait DynLanes {
    fn run(&self, ctx: &mut RunCtx<'_>);
}

impl<L: LaneSet> DynLanes for L {
    fn run(&self, ctx: &mut RunCtx<'_>) {
        cycle_loop(ctx, *self);
    }
}

/// One worker's whole run: lock its tiles `mine`, build the [`RunCtx`],
/// enter the cycle loop monomorphized for the active-lane set and —
/// timed — leave the phase and per-tile nanoseconds in the worker's
/// and the tiles' report slots. The pool's workers and the inline
/// no-pool caller (as worker 0 of every tile) both run exactly this.
fn run_worker(
    shared: &CoreShared,
    who: usize,
    mine: &[usize],
    start: u64,
    cycles: u64,
    timed: bool,
) {
    let inputs = shared.inputs.read().unwrap();
    let active = shared.active.read().unwrap();
    let mut ctx = RunCtx {
        shared,
        mine,
        guards: mine
            .iter()
            .map(|&pi| shared.tiles[pi].lock().unwrap())
            .collect(),
        inputs: &inputs,
        start,
        cycles,
        timed,
        who,
        tile_ns: vec![(0, 0, 0); if timed { mine.len() } else { 0 }],
        acc: PhaseAcc::default(),
        tracer: shared
            .trace
            .as_ref()
            .map(|sink| Tracer::new(&shared.trace_bufs[who], sink)),
    };
    dispatch_lanes(shared, &active, |lanes| lanes.run(&mut ctx));
    if timed {
        *shared.phase_ns[who].lock().unwrap() = ctx.acc;
        for (&pi, &ns) in mine.iter().zip(&ctx.tile_ns) {
            *shared.tile_ns[pi].lock().unwrap() = ns;
        }
    }
}

/// **The** shared cycle loop: computes this worker's tiles, eagerly
/// flushes each tile's off-chip traffic, lands its inbound pair frames,
/// publishes the cycle's epoch and waits for its neighbours —
/// the loop's single sync point — then applies the exchange and falls
/// into the next cycle. Used verbatim by pool workers and the inline
/// (no-pool) path, which has no sync state to touch.
fn cycle_loop<L: LaneSet>(ctx: &mut RunCtx<'_>, lanes: L) {
    let &mut RunCtx {
        shared,
        mine,
        ref mut guards,
        inputs,
        start,
        cycles,
        timed,
        who,
        ref mut tile_ns,
        ref mut acc,
        ref tracer,
    } = ctx;
    // The locals, and their types, the loop below has always read.
    let (guards, tile_ns, tracer) = (&mut guards[..], &mut tile_ns[..], tracer.as_ref());
    // Timed runs and traced runs share the chained clock reads; the
    // per-tile histogram (`tile_ns`, empty unless timed) and the trace
    // spans are fed from the same timestamps.
    let instr = timed || tracer.is_some();
    // Where producing tiles flush off-chip segments: the consumer
    // fabric itself (in-process), or the transport's staging copy.
    let flush_boxes: &[Mailbox] = shared.transport.staging().unwrap_or(&shared.channels);
    let any_pairs = shared.onchip < shared.channels.len();
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
    // facade takes `&mut self`), so each tile's input/constant cones
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
                lanes.dense(),
                shared.isa,
            );
        }
    }
    // Timestamps chain phase to phase and cycle to cycle, so a timed
    // worker's compute + off-chip + exchange columns sum to its run.
    let mut mark = instr.then(Instant::now);
    for c in start..start + cycles {
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
                // legal and lets a staged transport ship them under the
                // remaining tiles' compute. Staged transports redirect the
                // flush into their producer-side staging fabric.
                offchip_flush(prog, guard, flush_boxes, lanes, c, pw, mask);
                shared.transport.tile_flushed(pi, ((c & 1) ^ 1) as usize, c);
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
        // Staged transports: land this worker's inbound pair frames in
        // the consumer mailboxes before the publish. The wait for remote
        // producers is real measured off-chip latency, so it joins the
        // flush in the offchip_s column (a no-op in-process).
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
pub(super) fn worker_loop(shared: &CoreShared, t: usize, mine: Vec<usize>) {
    let body = std::panic::AssertUnwindSafe(|| worker_body(shared, t, &mine));
    if std::panic::catch_unwind(body).is_err() {
        eprintln!("engine worker {t} panicked; aborting (its neighbours would wait forever)");
        std::process::abort();
    }
}

/// The worker run loop: park at the gate, execute a run over this
/// worker's chip-major tile group `mine` through [`run_worker`], report
/// at the `done` barrier.
fn worker_body(shared: &CoreShared, t: usize, mine: &[usize]) {
    loop {
        shared.gate.wait();
        if shared.exit.load(Ordering::SeqCst) {
            return;
        }
        let cycles = shared.cmd_cycles.load(Ordering::SeqCst);
        let start = shared.cmd_start.load(Ordering::SeqCst);
        let timed = shared.cmd_timed.load(Ordering::SeqCst);
        run_worker(shared, t, mine, start, cycles, timed);
        shared.done.wait();
    }
}
