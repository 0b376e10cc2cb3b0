//! The engine object: [`EngineCore`], the state it shares with its
//! worker pool ([`CoreShared`]), its one constructor, and the plain
//! accessors. [`crate::bsp::BspSimulator`] (one scenario, many tiles)
//! and [`crate::gang::GangSimulator`] (many scenarios in lockstep) are
//! thin facades over it — the single-scenario engine is the
//! `lanes == 1` instantiation. Reading and writing the state lives in
//! `state_io`, running it in `run`.

use super::lanes::{LaneTile, TileBuf};
use super::run::{worker_loop, PhaseAcc};
use crate::bsp::FoldReport;
use crate::checkpoint::auto_checkpoint_from_env;
use crate::engine::frontend::Compiled;
use crate::engine::program::{ArrayHome, OutputHome, Program, RegHome};
use crate::engine::sync::{fold_neighbors, worker_groups, EpochSync, Mailbox, TILE_FIXED};
use crate::fault::TileFault;
use crate::simd::VecIsa;
use crate::transport::{self, TransportChoice};
use parendi_core::Partition;
use parendi_rtl::{Circuit, InputId};
use parendi_telemetry::{
    Counter, MetricsRegistry, MetricsSnapshot, TraceBuf, TraceConfig, TraceSink,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Barrier, Mutex, RwLock};
use std::thread::JoinHandle;

/// State shared between the engine facades and the worker pool.
pub(super) struct CoreShared {
    pub(super) programs: Vec<Program>,
    pub(super) tiles: Vec<Mutex<LaneTile>>,
    pub(super) channels: Vec<Mailbox>,
    /// The off-chip fabric: carries the per-chip-pair aggregate
    /// mailboxes across the chosen memory-domain boundary (in-process
    /// direct writes by default — see [`crate::transport`]).
    pub(super) transport: Box<dyn crate::transport::ChipTransport>,
    /// Number of leading on-chip mailboxes in `channels`.
    pub(super) onchip: usize,
    /// Single-lane strided words of each mailbox (its packed tail
    /// starts at `mail_words × lanes`).
    pub(super) mail_words: Vec<u32>,
    /// `input_stride × lanes` strided words plus the packed tail,
    /// read-only during runs.
    pub(super) inputs: RwLock<Vec<u64>>,
    /// Single-lane strided input section size in words.
    pub(super) input_stride: usize,
    pub(super) lanes: usize,
    /// Words per packed 1-bit net (`ceil(lanes / 64)` in packed mode,
    /// 0 in strided mode — doubles as the mode flag).
    pub(super) pw: usize,
    /// The lane-kernel instantiation the fused opcodes dispatch to,
    /// chosen once at compile (`Compiled::new`).
    pub(super) isa: VecIsa,
    /// Surviving (not early-exited) lane indices, ascending.
    pub(super) active: RwLock<Vec<u32>>,
    /// Packed retire mask (`pw` words; bit set = lane early-exited).
    pub(super) retired: RwLock<Vec<u64>>,
    /// Per-tile compiled fault ops (see [`crate::fault`]): rewritten
    /// between runs, read once per run like the retire mask. Empty
    /// inner vecs everywhere when no campaign is active.
    pub(super) faults: RwLock<Vec<Vec<TileFault>>>,
    /// The per-cycle sync point; `None` without a pool — the inline
    /// path touches no sync state.
    pub(super) sync: Option<EpochSync>,
    pub(super) gate: Barrier,
    pub(super) done: Barrier,
    pub(super) cmd_cycles: AtomicU64,
    pub(super) cmd_start: AtomicU64,
    pub(super) cmd_timed: AtomicBool,
    pub(super) exit: AtomicBool,
    /// Per-worker phase nanoseconds of the last timed run (one slot
    /// without a pool).
    pub(super) phase_ns: Vec<Mutex<PhaseAcc>>,
    /// Per-tile (compute, offchip, exchange) ns of the last timed run.
    pub(super) tile_ns: Vec<Mutex<(u64, u64, u64)>>,
    /// The engine's metrics registry (one per compiled engine).
    pub(super) metrics: Arc<MetricsRegistry>,
    /// Lock-free counter handles the run path credits, resolved once
    /// at build.
    pub(super) ctrs: EngineCounters,
    /// Static (strided, packed) instruction counts summed over every
    /// tile's per-cycle bytecode / run prelude, so op-mix metrics cost
    /// one multiply per run instead of anything per cycle.
    pub(super) ops_per_cycle: (u64, u64),
    pub(super) ops_prelude: (u64, u64),
    /// Event-trace sink, or `None` when tracing is off — the `None`
    /// the hot path branches on.
    pub(super) trace: Option<Arc<TraceSink>>,
    /// One trace track per worker slot (slot 0 doubles as the inline
    /// no-pool path's track). Empty when tracing is off.
    pub(super) trace_bufs: Vec<Arc<TraceBuf>>,
}

/// The metric handles the engine credits at run granularity (see
/// [`EngineCore::metrics_snapshot`] for the full catalog).
pub(super) struct EngineCounters {
    pub(super) cycles: Counter,
    pub(super) ops_strided: Counter,
    pub(super) ops_packed: Counter,
    pub(super) simd_dispatches: Counter,
    pub(super) lanes_active: Counter,
    pub(super) lanes_retired: Counter,
    pub(super) trace_events_dropped: Counter,
}

/// The unified lane-strided execution engine both public simulators
/// wrap: compiled programs, lane-strided tile state, the mailbox
/// fabric, and a persistent worker pool running the one shared cycle
/// loop.
pub(crate) struct EngineCore<'c> {
    pub circuit: &'c Circuit,
    pub(super) shared: Arc<CoreShared>,
    pub(super) workers: Vec<JoinHandle<()>>,
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
    pub(super) fold: FoldReport,
    /// The cycle each lane was retired at (`None` while running), so
    /// output peeks on a retired lane replay at its freeze parity.
    pub(super) retired_at: Vec<Option<u64>>,
    pub cycle: u64,
    /// Periodic auto-checkpointing (`PARENDI_CHECKPOINT=path:every_n`
    /// or the facade setter): runs are chunked at absolute-cycle
    /// multiples of `every_n` and a snapshot is written at each
    /// boundary. `None` = off (the default).
    pub(super) auto_ckpt: Option<(PathBuf, u64)>,
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
    /// Builds an engine around a compiled artifact — the one
    /// constructor: lane-strided state init, the tile→worker fold and
    /// its neighbour sets, the worker pool, the transport, telemetry.
    /// The facades compile (or clone a cached [`Compiled`]) and resolve
    /// `PARENDI_TRANSPORT` / `PARENDI_TRACE` themselves. `compiled`
    /// must have been produced from this same `circuit` and `partition`
    /// (the compile cache keys on a content hash of both); the lane
    /// shape comes from the artifact itself. With tracing on, every
    /// worker (and every transport writer thread) registers a track on
    /// the engine's [`TraceSink`]; the trace is written to the
    /// configured path when the engine drops and can be drained at any
    /// point in between.
    pub(crate) fn from_compiled(
        circuit: &'c Circuit,
        partition: &Partition,
        threads: usize,
        compiled: Compiled,
        transport: TransportChoice,
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

        let mut tiles: Vec<Mutex<LaneTile>> = programs
            .iter()
            .enumerate()
            .map(|(pi, prog)| {
                let aw = prog.arena_words;
                let rw = tile_reg_words[pi] as usize;
                let mut arena_buf = TileBuf::zeroed(aw * lanes);
                let reg_buf = TileBuf::zeroed(rw * lanes + tile_reg_packed[pi] as usize * pw);
                let arena = &mut arena_buf[..];
                // Every lane starts from the same constants: each word
                // fills its lane row.
                for (off, words) in &prog.const_init {
                    for (k, &w) in words.iter().enumerate() {
                        arena[(*off as usize + k) * lanes..][..lanes].fill(w);
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
        // Register inits, every lane alike: one walk over the homes,
        // each writing its own tile's register file.
        for (home, reg) in reg_home.iter().zip(&circuit.regs) {
            if home.tile == u32::MAX {
                continue;
            }
            let tile = tiles[home.tile as usize]
                .get_mut()
                .expect("a mutex nobody has locked yet is not poisoned");
            let init = reg.init.words();
            if home.packed {
                // The init bit broadcast to every lane.
                let word = if init[0] & 1 == 1 { u64::MAX } else { 0 };
                let d = tile.rw * lanes + home.off as usize * pw;
                tile.reg_cur[d..d + pw].fill(word);
            } else {
                for (k, &w) in init.iter().enumerate() {
                    tile.reg_cur[(home.off as usize + k) * lanes..][..lanes].fill(w);
                }
            }
        }

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
        let staged = transport != TransportChoice::InProcess;
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

        let transport = transport::build(
            transport,
            transport::TransportInit {
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
            phase_ns: (0..worker_count.max(1))
                .map(|_| Mutex::new(PhaseAcc::default()))
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
                    .spawn(move || worker_loop(&shared, t, mine))
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
        crate::engine::frontend::collect_code_stats(&self.shared.programs)
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

    /// Retires `lane`: from the next run on, no latch, send, or apply
    /// touches its state — registers, arrays and mailbox words freeze
    /// at their current values while the gang keeps running. Its arena
    /// words are scratch from here on: recomputed, and committed
    /// nowhere, while a higher lane is still live (the bytecode sweeps
    /// lanes `0..=highest live`), untouched once none is. The retire
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
    pub(super) fn peek_cycle(&self, lane: usize) -> u64 {
        self.retired_at[lane].unwrap_or(self.cycle)
    }

    /// The engine's metrics registry (campaign counters register here).
    pub(crate) fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }
}
