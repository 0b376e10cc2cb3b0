//! The parallel BSP simulator: the single-scenario facade over the
//! unified execution core.
//!
//! Executes a compiled [`Partition`] on host threads with exactly the
//! structure of Fig. 3 — a *computation* phase in which every process
//! evaluates its (possibly duplicated) cone into private memory, a
//! synchronization, and a *communication* phase — except that the
//! double-buffered mailboxes make Fig. 3's second barrier redundant and
//! the first one local: each worker publishes its epoch and waits only
//! for the workers it exchanges words with. Functional
//! results are bit-identical to the reference [`Simulator`]
//! (`crate::interp`) — the engine is the correctness check for the
//! partitioner, not a model.
//!
//! Since the engine unification there is **no BSP-specific execution
//! code**: [`BspSimulator`] is the `lanes == 1` instantiation of the
//! lane-strided `exec::core::EngineCore` shared with the
//! scenario-parallel gang engine ([`crate::gang::GangSimulator`]). The
//! worker loop, the phase functions, the off-chip flush, and the unsafe
//! epoch/aliasing discipline all live exactly once, in `crate::exec`;
//! the compile front-end (per-tile fused bytecode, mailbox fabric,
//! chip-major cost-balanced worker groups) lives in `crate::engine`.
//! This module only adapts the lane-indexed core API to the classic single-scenario
//! testbench surface and defines the public timing types.
//!
//! # Exchange architecture (executed by the core)
//!
//! There is no shared mutable global state and no leader thread. Every
//! tile *owns* the registers and array copies it produces or holds, and
//! all cross-tile values move through the channels of the compiled
//! [`Routing`], laid out at compile time. Channels come in the two
//! classes the machine distinguishes (Fig. 5): *on-chip* channels get
//! one double-buffered mailbox per producer→consumer tile pair, while
//! *off-chip* channels are aggregated into one **wider mailbox per
//! ordered chip pair**. Tiles fold onto worker threads **chip-major**
//! in contiguous runs of near-equal modelled cost (neighbouring tiles
//! share a worker, so most channels never cross threads — see
//! [`FoldReport`]), and each worker's off-chip traffic is flushed
//! eagerly per tile, as soon as that tile's compute finishes.
//!
//! The only synchronization in the steady-state loop is one
//! publish-then-wait-on-neighbours per cycle (`engine::sync::EpochSync`): a
//! store to the worker's own cache line and acquire loads of its
//! neighbours' — no locks are taken and no heap allocation occurs; a
//! worker with no neighbours never waits. Per-tile
//! `Mutex`es exist solely so the testbench API (`poke` / `reg_value` /
//! `array_value` / `peek_output`) can inspect state between
//! [`run`](BspSimulator::run) calls, and are locked once per run,
//! outside the cycle loop. Worker threads are spawned once in
//! [`BspSimulator::new`] and persist across `run()` calls.
//!
//! [`Simulator`]: crate::interp::Simulator
//! [`Routing`]: parendi_core::routing::Routing
//! [`Partition`]: parendi_core::Partition

use crate::engine::frontend::Compiled;
use crate::exec::core::EngineCore;
use crate::transport::TransportChoice;
use parendi_core::Partition;
use parendi_rtl::bits::Bits;
use parendi_rtl::{Circuit, InputId, RegId};
use parendi_telemetry::TraceConfig;

/// One tile's phase seconds over a timed run (its share of the worker's
/// loop bodies; neighbour waits are per-worker and excluded).
#[derive(Clone, Copy, Debug, Default)]
pub struct TilePhases {
    /// Seconds running the tile's step program (incl. latches and
    /// on-chip mailbox pushes).
    pub compute_s: f64,
    /// Seconds flushing the tile's cross-chip traffic into the
    /// chip-pair aggregate mailboxes (memory copies; the modeled link
    /// occupancy is scheduled asynchronously and accounted per worker).
    pub offchip_s: f64,
    /// Seconds applying staged port records to the tile's array copies.
    pub exchange_s: f64,
}

/// Per-run phase timings: the straggler worker's split plus per-tile
/// histograms.
///
/// The phase columns come from the *single* worker with the largest
/// compute + off-chip flush time (the straggler — totals can't rank
/// workers because neighbour waits absorb the slack), so
/// `compute_s + offchip_s + exchange_s` is that worker's real wall
/// time — phases are never paired across different workers.
///
/// `cycles` and `lanes` describe the run itself: the single-scenario
/// engine always reports one lane, while the gang engine reports its
/// *active* lane count (early-exited lanes stop counting), so
/// [`lane_cycles_per_s`](Self::lane_cycles_per_s) — the aggregate
/// *scenario-cycles* per second — is comparable across both.
#[derive(Clone, Debug)]
pub struct BspPhases {
    /// Wall-clock seconds for the whole run.
    pub total_s: f64,
    /// Seconds the straggler worker spent in computation phases
    /// (step programs, register latches, on-chip mailbox pushes).
    pub compute_s: f64,
    /// Seconds the straggler worker spent on cross-chip traffic: the
    /// flush copies plus, on a staged transport, the wait for inbound
    /// pair frames (zero on single-chip partitions).
    pub offchip_s: f64,
    /// Seconds the straggler worker spent in communication phases:
    /// the cycle's single wait on its neighbours plus record
    /// application (only tiles holding arrays have any).
    pub exchange_s: f64,
    /// Per-tile phase split, indexed by tile — the measured counterpart
    /// of the Fig. 6 straggler histograms, populated for single-lane
    /// *and* gang runs.
    ///
    /// **Invariant**: populated only by *timed* runs
    /// ([`run_timed`](BspSimulator::run_timed)); untimed runs skip the
    /// per-tile clock reads *and* the histogram allocation entirely,
    /// so this is always empty after [`run`](BspSimulator::run).
    pub per_tile: Vec<TilePhases>,
    /// RTL cycles this run advanced.
    pub cycles: u64,
    /// Scenario lanes executed per cycle (1 for [`BspSimulator`];
    /// the active lane count for gang runs).
    pub lanes: u32,
}

impl Default for BspPhases {
    fn default() -> Self {
        BspPhases {
            total_s: 0.0,
            compute_s: 0.0,
            offchip_s: 0.0,
            exchange_s: 0.0,
            per_tile: Vec::new(),
            cycles: 0,
            lanes: 1,
        }
    }
}

impl BspPhases {
    /// Aggregate throughput in *lane-cycles* per second: every active
    /// lane advances one RTL cycle per engine cycle, so a gang run at L
    /// active lanes delivers `L × cycles / total_s` scenario-cycles per
    /// second. For the single-scenario engine this is plain cycles per
    /// second.
    pub fn lane_cycles_per_s(&self) -> f64 {
        if self.total_s > 0.0 {
            self.cycles as f64 * self.lanes as f64 / self.total_s
        } else {
            0.0
        }
    }
}

/// One worker's share of the tile→worker fold (see [`FoldReport`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerFold {
    /// Tiles folded onto this worker.
    pub tiles: u32,
    /// Their modelled host cost per cycle, in op-equivalents (`strided
    /// ops × lanes + packed ops × packed words` + a fixed term per tile).
    pub load: u64,
    /// Single-lane mailbox words per cycle its tiles send to tiles of
    /// *other* workers.
    pub cross_words: u64,
    /// Single-lane mailbox words per cycle its tiles send in total.
    pub total_words: u64,
    /// Workers it waits for each cycle (those it shares a buffer with).
    pub neighbors: u32,
}

/// How the engine folded tiles onto its worker pool, and what the fold
/// costs. Empty for an engine without a pool (one thread or one tile),
/// where nothing is folded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FoldReport {
    /// Per worker, in worker order.
    pub workers: Vec<WorkerFold>,
    /// The worker each tile runs on.
    pub tile_worker: Vec<u32>,
    /// The modelled per-cycle host cost the fold balanced, per tile.
    pub tile_cost: Vec<u64>,
}

impl FoldReport {
    /// Mailbox words per cycle that cross from one worker to another.
    pub fn cross_worker_words(&self) -> u64 {
        self.workers.iter().map(|w| w.cross_words).sum()
    }

    /// All mailbox words per cycle.
    pub fn total_words(&self) -> u64 {
        self.workers.iter().map(|w| w.total_words).sum()
    }

    /// The heaviest worker's modelled load relative to the mean, in
    /// permille: 1000 is a perfectly balanced fold (0 when empty).
    pub fn max_load_permille(&self) -> u64 {
        let loads = self.workers.iter().map(|w| w.load);
        let (max, total) = (loads.clone().max().unwrap_or(0), loads.sum::<u64>());
        (max * 1000 * self.workers.len() as u64) / total.max(1)
    }
}

/// A parallel BSP simulator for a compiled partition: one scenario,
/// many tiles. A thin facade over the unified lane-strided core at
/// `lanes == 1`.
pub struct BspSimulator<'c> {
    core: EngineCore<'c>,
}

impl<'c> BspSimulator<'c> {
    /// Compiles `partition` into per-tile fused bytecode and spawns a
    /// persistent pool of `threads` workers (tiles are folded
    /// chip-major onto threads; the pool is reused by every
    /// [`run`](Self::run)).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(circuit: &'c Circuit, partition: &Partition, threads: usize) -> Self {
        Self::with_transport(circuit, partition, threads, TransportChoice::from_env())
    }

    /// [`BspSimulator::new`] with an explicit off-chip transport
    /// backend (the plain constructor reads `PARENDI_TRANSPORT`). All
    /// backends are bit-exact; they differ in which memory-domain
    /// boundary the per-chip-pair aggregates cross and in the measured
    /// cost reported in [`BspPhases::offchip_s`].
    pub fn with_transport(
        circuit: &'c Circuit,
        partition: &Partition,
        threads: usize,
        transport: TransportChoice,
    ) -> Self {
        Self::with_trace(
            circuit,
            partition,
            threads,
            transport,
            TraceConfig::from_env(),
        )
    }

    /// [`BspSimulator::with_transport`] with an explicit event-trace
    /// configuration (the other constructors read `PARENDI_TRACE` —
    /// see [`TraceConfig::from_env`](parendi_telemetry::TraceConfig)).
    /// Tracing never changes functional results; with
    /// [`TraceConfig::off`](parendi_telemetry::TraceConfig::off) the
    /// hot loop's only residue is a branch on a `None`.
    pub fn with_trace(
        circuit: &'c Circuit,
        partition: &Partition,
        threads: usize,
        transport: TransportChoice,
        trace: TraceConfig,
    ) -> Self {
        let compiled = Compiled::new(circuit, partition, 1, false);
        BspSimulator {
            core: EngineCore::from_compiled(
                circuit, partition, threads, compiled, transport, trace,
            ),
        }
    }

    /// Short name of the off-chip transport backend in use.
    pub fn transport_name(&self) -> &'static str {
        self.core.transport_name()
    }

    /// Total bytes the off-chip transport has carried so far (whole
    /// per-chip-pair aggregates per completed cycle — comparable
    /// across backends; see [`crate::transport`]).
    pub fn offchip_bytes_sent(&self) -> u64 {
        self.core.offchip_bytes_sent()
    }

    /// Point-in-time copy of every engine metric (cycles, op mix,
    /// off-chip bytes/frames, neighbour-wait outcomes, the fold gauges,
    /// lane occupancy — see [`parendi_telemetry::MetricsSnapshot`]).
    pub fn metrics_snapshot(&self) -> parendi_telemetry::MetricsSnapshot {
        self.core.metrics_snapshot()
    }

    /// How tiles were folded onto the worker pool. The headline numbers
    /// also ride the metrics snapshot as `fold_cross_worker_words`,
    /// `fold_max_load_permille` and `sync_neighbors_max`.
    pub fn fold_report(&self) -> &FoldReport {
        self.core.fold_report()
    }

    /// Per-track span-time summaries of the event trace; empty when
    /// tracing is off.
    pub fn trace_summaries(&self) -> Vec<parendi_telemetry::TrackSummary> {
        self.core
            .trace()
            .map(|s| s.track_summaries())
            .unwrap_or_default()
    }

    /// The accumulated event trace as Chrome trace-event JSON
    /// (Perfetto-loadable), or `None` when tracing is off.
    pub fn trace_json(&self) -> Option<String> {
        self.core.trace().map(|s| s.chrome_json())
    }

    /// Writes the accumulated event trace to `path` as Chrome
    /// trace-event JSON. No-op returning `Ok(false)` when tracing is
    /// off.
    pub fn write_trace(&self, path: &std::path::Path) -> std::io::Result<bool> {
        match self.core.trace() {
            Some(s) => s.write(path).map(|_| true),
            None => Ok(false),
        }
    }

    /// Static opcode/width and adjacent-pair statistics of the
    /// compiled bytecode (`figures report` prints them).
    pub fn code_stats(&self) -> parendi_telemetry::CodeStats {
        self.core.code_stats()
    }

    /// Number of completed RTL cycles.
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    /// Number of tiles (processes) being simulated.
    pub fn tiles(&self) -> usize {
        self.core.tiles()
    }

    /// Number of mailboxes carrying traffic: per-tile-pair on-chip boxes
    /// plus per-chip-pair off-chip aggregates.
    pub fn channels(&self) -> usize {
        self.core.channels()
    }

    /// Number of per-chip-pair aggregate mailboxes (zero on single-chip
    /// partitions).
    pub fn offchip_channels(&self) -> usize {
        self.core.channels() - self.core.onchip_mailboxes
    }

    /// Drives an input (held until changed).
    ///
    /// # Panics
    ///
    /// Panics if the width does not match.
    pub fn set_input(&mut self, id: InputId, value: &Bits) {
        self.core.set_input_all(id, value);
    }

    /// Convenience: drive input `name` with a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if no such input exists.
    pub fn poke(&mut self, name: &str, value: u64) {
        let id = self.core.input_id(name);
        let width = self.core.circuit.inputs[id.index()].width;
        self.set_input(id, &Bits::from_u64(width, value));
    }

    /// The current value of a register.
    pub fn reg_value(&self, id: RegId) -> Bits {
        self.core.reg_value_lane(id, 0)
    }

    /// The current value of primary output `name`, or `None` if no such
    /// output exists — the engine counterpart of the reference
    /// interpreter's `output()`.
    ///
    /// Output cones are computed every cycle (their fibers run like any
    /// other), but the arena holds *pre-latch* values from the last
    /// cycle; this replays the owning tile's bytecode against the
    /// current architectural state (own registers, array copies, and the
    /// current-epoch mailbox slots for remote registers), so the value
    /// reflects all completed cycles and the current inputs, exactly
    /// like the interpreter after `step`.
    pub fn peek_output(&self, name: &str) -> Option<Bits> {
        self.core.peek_output_lane(name, 0)
    }

    /// An element of an array.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn array_value(&self, id: parendi_rtl::ArrayId, index: u32) -> Bits {
        self.core.array_value_lane(id, index, 0)
    }

    /// Runs `cycles` RTL cycles in parallel. Returns wall-clock seconds.
    ///
    /// The cycle loop runs untimed — no per-cycle clock reads.
    pub fn run(&mut self, cycles: u64) -> f64 {
        self.core.run_inner(cycles, false).total_s
    }

    /// Runs `cycles` RTL cycles and reports per-phase timings (the
    /// measured counterpart of the modeled `t_comp`/`t_comm`+`t_sync`
    /// split), including the per-tile histograms of
    /// [`BspPhases::per_tile`]. Timed runs cost roughly one clock read
    /// per tile per sub-phase per cycle; use [`run`](Self::run) for
    /// throughput measurements.
    pub fn run_timed(&mut self, cycles: u64) -> BspPhases {
        self.core.run_inner(cycles, true)
    }

    /// Captures the complete engine state — registers, arrays, arenas,
    /// inputs, both parities of every mailbox, and the cycle count — as
    /// a restorable [`Snapshot`](crate::checkpoint::Snapshot). See
    /// [`crate::checkpoint`] for the format and guarantees.
    pub fn snapshot(&self) -> crate::checkpoint::Snapshot {
        self.core.snapshot()
    }

    /// Restores state captured by [`snapshot`](Self::snapshot) — on
    /// this simulator or a freshly built one over the same circuit and
    /// partition (any transport backend, any thread count). The next
    /// run continues bit-identically to a run that was never
    /// interrupted. Fails (leaving the engine untouched) when the
    /// snapshot does not fit.
    pub fn restore(
        &mut self,
        snap: &crate::checkpoint::Snapshot,
    ) -> Result<(), crate::checkpoint::SnapshotError> {
        self.core.restore(snap)
    }

    /// Periodic auto-checkpointing: every `every` absolute cycles,
    /// [`run`](Self::run) writes a snapshot to `path` (atomic
    /// tmp-and-rename). The programmatic twin of
    /// `PARENDI_CHECKPOINT=path:every`; functional results are
    /// unaffected — chunked runs are bit-identical to uninterrupted
    /// ones.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn set_auto_checkpoint(&mut self, path: impl Into<std::path::PathBuf>, every: u64) {
        self.core.set_auto_checkpoint(path.into(), every);
    }
}
