//! The parallel BSP simulator: one compiled partition, `L`
//! independent scenarios (lanes) advancing in lockstep.
//!
//! A [`GangSimulator`] executes a compiled [`Partition`] on host
//! threads with exactly the structure of Fig. 3 — a *computation* phase
//! in which every process evaluates its (possibly duplicated) cone into
//! private memory, a synchronization, and a *communication* phase —
//! except that the double-buffered mailboxes make Fig. 3's second
//! barrier redundant and the first one local: each worker publishes its
//! epoch and waits only for the workers it exchanges words with.
//! Functional results are bit-identical to the reference [`Simulator`]
//! in every lane — the engine is the correctness check for the
//! partitioner, not a model.
//!
//! One scenario is the narrowest gang: `GangSimulator::new(c, p,
//! threads, 1)` is the single-scenario engine, and the lane-0 readers
//! ([`reg_value`](GangSimulator::reg_value),
//! [`peek_output`](GangSimulator::peek_output),
//! [`array_value`](GangSimulator::array_value)) with the broadcasting
//! [`set_input`](GangSimulator::set_input) /
//! [`poke`](GangSimulator::poke) give it the classic testbench surface.
//! Wider gangs add the second, stimulus-level dimension of parallelism:
//! regression sweeps, seed farms, and coverage runs need thousands of
//! short simulations of the same RTL far more often than one enormous
//! simulation — and a software full-cycle simulator pays its biggest
//! tax not in ALU work but in *per-op dispatch*, which a gang amortizes
//! `L` ways.
//!
//! # Lane layout
//!
//! Every buffer a tile's fused bytecode touches — value arenas,
//! register files, array copies, mailbox buffers, the input buffer — is
//! *lane-strided* (`lanes` copies of the single-lane layout,
//! word-interleaved: word `w` of lane `l` at `w * lanes + l` — see the
//! layout rule in `exec::lanes`), and one dispatched bytecode
//! instruction executes a tight inner loop over each word's dense lane
//! row; for the dominant single-word case that loop is pure `u64`
//! arithmetic through the scalar kernels, which the compiler vectorizes
//! across lanes.
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
//! ordered chip pair** (the modeled link is charged `L×` the words).
//! Tiles fold onto worker threads **chip-major** in contiguous runs of
//! near-equal modelled cost (neighbouring tiles share a worker, so most
//! channels never cross threads — see [`FoldReport`]), and each
//! worker's off-chip traffic is flushed eagerly per tile, as soon as
//! that tile's compute finishes.
//!
//! The only synchronization in the steady-state loop is one
//! publish-then-wait-on-neighbours per cycle (`engine::sync::EpochSync`):
//! a store to the worker's own cache line and acquire loads of its
//! neighbours' — no locks are taken and no heap allocation occurs; a
//! worker with no neighbours never waits. Per-tile `Mutex`es exist
//! solely so the testbench API can inspect state between
//! [`run`](GangSimulator::run) calls, and are locked once per run,
//! outside the cycle loop. Worker threads are spawned once by the
//! constructor and persist across `run()` calls.
//!
//! # Per-lane I/O
//!
//! Lanes are independent scenarios, so I/O is per-lane:
//! [`set_input_lane`](GangSimulator::set_input_lane) /
//! [`poke_lane`](GangSimulator::poke_lane) drive one lane's inputs
//! (the all-lane [`set_input`](GangSimulator::set_input) broadcasts),
//! [`reg_value_lane`](GangSimulator::reg_value_lane),
//! [`array_value_lane`](GangSimulator::array_value_lane) and
//! [`peek_output_lane`](GangSimulator::peek_output_lane) read one
//! lane's architectural state back. A [`StimulusSet`] bundles distinct
//! per-lane input traces and drives them cycle by cycle
//! ([`run_stimulus`](GangSimulator::run_stimulus)); the same trace can
//! be replayed against the reference interpreter one lane at a time
//! ([`StimulusSet::apply_lane`]) for bit-exact cross-checking.
//!
//! # Per-lane early exit
//!
//! A scenario that reaches its verdict (test passed, coverage target
//! hit, assertion fired) can be retired without stalling the gang:
//! [`finish_lane`](GangSimulator::finish_lane) drops the lane from
//! every latch, send and array apply, freezing its registers, arrays,
//! and mailbox slots at their current values while the surviving lanes
//! keep running. The gang computes the dense lane range up to its
//! highest live lane, so retirement never costs and pays when it comes
//! off the **top**: put the scenarios that run longest on the lowest
//! lanes and every dispatched instruction sweeps fewer lanes as the
//! others finish (`parendi-serve` orders a batch this way). A lane
//! retired below a live one is recomputed as scratch that nothing
//! commits. [`BspPhases::lanes`] reports the *active* count, so
//! [`BspPhases::lane_cycles_per_s`] stays an honest aggregate.
//!
//! [`Partition`]: parendi_core::Partition
//! [`Routing`]: parendi_core::routing::Routing
//! [`FoldReport`]: crate::report::FoldReport

use crate::engine::frontend::Compiled;
use crate::exec::core::EngineCore;
use crate::interp::Simulator;
use crate::report::BspPhases;
use crate::transport::TransportChoice;
use parendi_core::Partition;
use parendi_rtl::bits::Bits;
use parendi_rtl::{Circuit, InputId, RegId};
use parendi_telemetry::TraceConfig;
use std::time::Instant;

/// A scenario-parallel BSP simulator: `lanes` independent simulations
/// of one circuit advancing in lockstep over one compiled partition. A
/// facade over the unified lane-strided core.
pub struct GangSimulator<'c> {
    core: EngineCore<'c>,
}

impl<'c> GangSimulator<'c> {
    /// Compiles `partition` once and prepares `lanes` lane-strided
    /// copies of the simulation state, served by a persistent pool of
    /// `threads` workers (tiles fold chip-major; the pool is reused by
    /// every [`run`](Self::run)). `lanes == 1` is the single-scenario
    /// engine.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `lanes` is zero.
    pub fn new(circuit: &'c Circuit, partition: &Partition, threads: usize, lanes: usize) -> Self {
        let transport = TransportChoice::from_env();
        Self::with_transport(circuit, partition, threads, lanes, false, transport)
    }

    /// Like [`new`](Self::new), but with an explicit off-chip transport
    /// backend (the plain constructors read `PARENDI_TRANSPORT`). All
    /// backends are bit-exact in every lane; they differ in which
    /// memory-domain boundary the per-chip-pair aggregates cross.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `lanes` is zero.
    pub fn with_transport(
        circuit: &'c Circuit,
        partition: &Partition,
        threads: usize,
        lanes: usize,
        packed: bool,
        transport: TransportChoice,
    ) -> Self {
        let trace = TraceConfig::from_env();
        Self::with_trace(circuit, partition, threads, lanes, packed, transport, trace)
    }

    /// [`GangSimulator::with_transport`] with an explicit event-trace
    /// configuration (the other constructors read `PARENDI_TRACE` —
    /// see [`TraceConfig::from_env`](parendi_telemetry::TraceConfig)).
    /// Tracing never changes functional results in any lane.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `lanes` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn with_trace(
        circuit: &'c Circuit,
        partition: &Partition,
        threads: usize,
        lanes: usize,
        packed: bool,
        transport: TransportChoice,
        trace: TraceConfig,
    ) -> Self {
        let compiled = Compiled::new(circuit, partition, lanes, packed);
        GangSimulator {
            core: EngineCore::from_compiled(
                circuit, partition, threads, compiled, transport, trace,
            ),
        }
    }

    /// Instantiates an engine from an already-compiled artifact — the
    /// compile-cache path. The expensive compile front-end is skipped
    /// entirely; the artifact is deep-copied, so one [`Precompiled`]
    /// can back any number of simultaneous engines. `circuit` and
    /// `partition` must be the ones `pre` was built from (a serve
    /// cache guarantees this by keying entries on a content hash of
    /// both); the lane shape comes from the artifact. Results are
    /// bit-identical to a direct [`new`](Self::new) /
    /// [`new_packed`](Self::new_packed) at the same shape. The
    /// off-chip transport follows `PARENDI_TRANSPORT` and tracing
    /// follows `PARENDI_TRACE`, exactly like the plain constructors.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    ///
    /// [`Precompiled`]: crate::Precompiled
    pub fn from_precompiled(
        circuit: &'c Circuit,
        partition: &Partition,
        pre: &crate::Precompiled,
        threads: usize,
    ) -> Self {
        GangSimulator {
            core: EngineCore::from_compiled(
                circuit,
                partition,
                threads,
                pre.compiled.clone(),
                TransportChoice::from_env(),
                TraceConfig::from_env(),
            ),
        }
    }

    /// Short name of the off-chip transport backend in use.
    pub fn transport_name(&self) -> &'static str {
        self.core.transport_name()
    }

    /// Total bytes the off-chip transport has carried so far (whole
    /// per-chip-pair aggregates per completed cycle — comparable across
    /// backends; see [`crate::transport`]).
    pub fn offchip_bytes_sent(&self) -> u64 {
        self.core.offchip_bytes_sent()
    }

    /// Point-in-time copy of every engine metric (cycles, op mix, SIMD
    /// dispatches, off-chip bytes/frames, neighbour-wait outcomes, the
    /// fold gauges, lane occupancy — see
    /// [`parendi_telemetry::MetricsSnapshot`]).
    pub fn metrics_snapshot(&self) -> parendi_telemetry::MetricsSnapshot {
        self.core.metrics_snapshot()
    }

    /// How tiles were folded onto the worker pool (per-tile cost is
    /// lane-scaled). The headline numbers also ride the metrics
    /// snapshot as `fold_cross_worker_words`, `fold_max_load_permille`
    /// and `sync_neighbors_max`.
    pub fn fold_report(&self) -> &crate::report::FoldReport {
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

    /// Static opcode/width and adjacent-pair statistics of the
    /// compiled bytecode (`figures report` prints them).
    pub fn code_stats(&self) -> parendi_telemetry::CodeStats {
        self.core.code_stats()
    }

    /// Like [`new`](Self::new), but with **bit-packed 1-bit lanes**: at
    /// compile time every net, register, and input is classified by
    /// width, and 1-bit values are laid out bit-packed across lanes —
    /// 64 scenarios per `u64` word (`ceil(lanes / 64)` lane-major words
    /// beyond 64) — so the bitwise kernels advance 64 lanes per machine
    /// op. Multi-bit state stays lane-strided; explicit pack/unpack
    /// transposes bridge the two domains. Functionally bit-identical to
    /// the strided gang in every lane; per-lane I/O on 1-bit state takes
    /// bit gather/scatter paths. The win grows with the design's 1-bit
    /// control density and the lane count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `lanes` is zero.
    pub fn new_packed(
        circuit: &'c Circuit,
        partition: &Partition,
        threads: usize,
        lanes: usize,
    ) -> Self {
        let transport = TransportChoice::from_env();
        Self::with_transport(circuit, partition, threads, lanes, true, transport)
    }

    /// Whether this gang runs 1-bit state bit-packed across lanes.
    pub fn is_packed(&self) -> bool {
        self.core.is_packed()
    }

    /// The lane-kernel instantiation the fused single-word opcodes
    /// dispatch to: `"avx2"` (x86-64 CPUs that report it, gangs of 16
    /// lanes and up) or `"scalar"` (the same loops, inlined).
    pub fn simd(&self) -> &'static str {
        self.core.isa_name()
    }

    /// Number of completed RTL cycles (identical across lanes — lanes
    /// advance in lockstep).
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    /// The circuit being simulated.
    pub fn circuit(&self) -> &'c Circuit {
        self.core.circuit
    }

    /// Number of scenario lanes laid out (finished or not).
    pub fn lanes(&self) -> usize {
        self.core.lanes()
    }

    /// Number of lanes still running (not retired by
    /// [`finish_lane`](Self::finish_lane)).
    pub fn active_lanes(&self) -> usize {
        self.core.active_lanes()
    }

    /// Whether `lane` is still running.
    pub fn lane_is_active(&self, lane: usize) -> bool {
        self.core.lane_is_active(lane)
    }

    /// Retires `lane`: from the next [`run`](Self::run) on, no latch,
    /// send, or array apply touches it — its registers, arrays, and
    /// outputs freeze at their current values while the rest of the
    /// gang keeps running (and speeds up whenever the highest live lane
    /// retires: each dispatch sweeps lanes `0..=highest live`, see the
    /// module docs). Output peeks keep replaying the lane at its freeze-cycle
    /// mailbox epoch, and [`run_stimulus`](Self::run_stimulus) ignores
    /// the lane's remaining trace events (explicit
    /// [`set_input_lane`](Self::set_input_lane)/[`poke_lane`](Self::poke_lane)
    /// calls still write). Retiring an already-finished lane is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn finish_lane(&mut self, lane: usize) {
        self.core.finish_lane(lane);
    }

    /// Number of tiles (processes) being simulated.
    pub fn tiles(&self) -> usize {
        self.core.tiles()
    }

    /// Number of per-chip-pair aggregate mailboxes (zero on single-chip
    /// partitions).
    pub fn offchip_channels(&self) -> usize {
        self.core.channels() - self.core.onchip_mailboxes
    }

    /// Drives an input in **one lane** (held until changed).
    ///
    /// # Panics
    ///
    /// Panics if the width does not match or `lane` is out of range.
    pub fn set_input_lane(&mut self, id: InputId, lane: usize, value: &Bits) {
        self.core.set_input_lane(id, lane, value);
    }

    /// Drives an input identically in **every lane**.
    ///
    /// # Panics
    ///
    /// Panics if the width does not match.
    pub fn set_input(&mut self, id: InputId, value: &Bits) {
        self.core.set_input_all(id, value);
    }

    /// Convenience: drive input `name` in one lane with a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if no such input exists or `lane` is out of range.
    pub fn poke_lane(&mut self, name: &str, lane: usize, value: u64) {
        let id = self.core.input_id(name);
        let width = self.core.circuit.inputs[id.index()].width;
        self.set_input_lane(id, lane, &Bits::from_u64(width, value));
    }

    /// Convenience: drive input `name` in every lane with a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if no such input exists.
    pub fn poke(&mut self, name: &str, value: u64) {
        let id = self.core.input_id(name);
        let width = self.core.circuit.inputs[id.index()].width;
        self.set_input(id, &Bits::from_u64(width, value));
    }

    /// The current value of a register in lane 0.
    pub fn reg_value(&self, id: RegId) -> Bits {
        self.reg_value_lane(id, 0)
    }

    /// The current value of a register in `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn reg_value_lane(&self, id: RegId, lane: usize) -> Bits {
        self.core.reg_value_lane(id, lane)
    }

    /// An element of an array in lane 0.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn array_value(&self, id: parendi_rtl::ArrayId, index: u32) -> Bits {
        self.array_value_lane(id, index, 0)
    }

    /// An element of an array in `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `index` or `lane` is out of range.
    pub fn array_value_lane(&self, id: parendi_rtl::ArrayId, index: u32, lane: usize) -> Bits {
        self.core.array_value_lane(id, index, lane)
    }

    /// [`peek_output_lane`](Self::peek_output_lane) of lane 0.
    pub fn peek_output(&self, name: &str) -> Option<Bits> {
        self.peek_output_lane(name, 0)
    }

    /// The current value of primary output `name` in `lane`, or `None`
    /// if no such output exists — the engine counterpart of the
    /// reference interpreter's `output()`.
    ///
    /// Output cones are computed every cycle (their fibers run like any
    /// other), but the arena holds *pre-latch* values from the last
    /// cycle; this replays the owning tile's bytecode (all lanes)
    /// against the current architectural state (own registers, array
    /// copies, and the current-epoch mailbox slots for remote
    /// registers), then reads the lane's slot — so the value reflects
    /// all completed cycles and the current inputs, exactly like the
    /// interpreter after `step`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn peek_output_lane(&self, name: &str, lane: usize) -> Option<Bits> {
        self.core.peek_output_lane(name, lane)
    }

    /// All primary outputs of `lane`, indexed like `circuit.outputs`.
    /// The bulk counterpart of
    /// [`peek_output_lane`](Self::peek_output_lane): each owning tile's
    /// bytecode is replayed **once**, however many outputs it computes —
    /// waveform sampling reads every output per timestep and must not
    /// pay one replay per output.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn peek_outputs_lane(&self, lane: usize) -> Vec<Bits> {
        self.core.peek_outputs_lane(lane)
    }

    /// Runs `cycles` RTL cycles in every active lane. Returns wall-clock
    /// seconds.
    pub fn run(&mut self, cycles: u64) -> f64 {
        self.core.run_inner(cycles, false).total_s
    }

    /// Runs `cycles` RTL cycles in every active lane and reports the
    /// straggler worker's compute / off-chip / exchange split plus the
    /// per-tile histograms (the measured counterpart of the modeled
    /// `t_comp`/`t_comm`+`t_sync` split). `BspPhases::lanes` is set to
    /// the *active* lane count, so [`BspPhases::lane_cycles_per_s`]
    /// reports honest aggregate scenario-cycles per second under early
    /// exit. Timed runs cost roughly one clock read per tile per
    /// sub-phase per cycle; use [`run`](Self::run) for throughput
    /// measurements.
    pub fn run_timed(&mut self, cycles: u64) -> BspPhases {
        self.core.run_inner(cycles, true)
    }

    /// Runs `cycles` cycles, applying `stim`'s per-lane input events as
    /// the simulation reaches their (absolute) cycle stamps. Events
    /// scheduled at cycle `c` are driven *before* cycle `c` executes,
    /// matching the reference interpreter's poke-then-step convention.
    /// Event-free stretches run as one batched [`run`](Self::run) call
    /// (one worker-pool hand-off per stretch, not per cycle). Returns
    /// wall-clock seconds.
    ///
    /// # Panics
    ///
    /// Panics if `stim` was built for a different lane count or names an
    /// unknown input.
    pub fn run_stimulus(&mut self, cycles: u64, stim: &StimulusSet) -> f64 {
        assert_eq!(
            stim.lanes() as usize,
            self.core.lanes(),
            "stimulus lane count must match the gang"
        );
        let start = Instant::now();
        let end = self.core.cycle + cycles;
        // Group the window's events by cycle once, instead of scanning
        // the whole event list every cycle.
        let mut by_cycle: std::collections::BTreeMap<u64, Vec<&StimEvent>> =
            std::collections::BTreeMap::new();
        for ev in stim.events() {
            if ev.cycle >= self.core.cycle && ev.cycle < end {
                by_cycle.entry(ev.cycle).or_default().push(ev);
            }
        }
        for (&cyc, evs) in &by_cycle {
            if cyc > self.core.cycle {
                let gap = cyc - self.core.cycle;
                self.run(gap);
            }
            for ev in evs {
                // A retired scenario ignores its remaining trace: its
                // inputs freeze with the rest of its state (direct
                // `set_input_lane`/`poke_lane` calls still write).
                if !self.core.lane_is_active(ev.lane as usize) {
                    continue;
                }
                let id = self.core.input_id(&ev.input);
                self.set_input_lane(id, ev.lane as usize, &ev.value);
            }
        }
        if end > self.core.cycle {
            let rest = end - self.core.cycle;
            self.run(rest);
        }
        start.elapsed().as_secs_f64()
    }

    /// Captures the gang's complete state — every lane's registers,
    /// arrays, arenas, inputs, both parities of every mailbox, and the
    /// cycle/retire bookkeeping — as a restorable
    /// [`Snapshot`](crate::checkpoint::Snapshot). See
    /// [`crate::checkpoint`] for the format and guarantees.
    pub fn snapshot(&self) -> crate::checkpoint::Snapshot {
        self.core.snapshot()
    }

    /// Restores state captured by [`snapshot`](Self::snapshot) — on
    /// this gang or a freshly built one over the same circuit,
    /// partition, and lane shape (any transport backend, any thread
    /// count). The next run continues bit-identically to a run that was
    /// never interrupted. Fails (leaving the gang untouched) when the
    /// snapshot does not fit this engine.
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

    /// Broadcasts lane `golden`'s complete state across **all** lanes
    /// and reactivates any retired ones — the inverse of
    /// [`finish_lane`](Self::finish_lane). Run one lane through a
    /// common reset/boot prefix (retire the others), fork, then diverge
    /// per-lane stimulus: the boot cost is paid once instead of once
    /// per scenario.
    ///
    /// # Panics
    ///
    /// Panics if `golden` is out of range or retired.
    pub fn fork_lanes(&mut self, golden: usize) {
        self.core.fork_lanes(golden);
    }

    /// Compiles and installs `plan`'s fault ops (replacing any previous
    /// plan): from the next [`run`](Self::run) on, each faulted lane's
    /// chosen register bits are stuck or flipped at the latch boundary
    /// every cycle (see [`crate::fault`]). Errors name the offending
    /// spec (unknown register, bit or lane out of range) and leave the
    /// gang unchanged.
    pub fn apply_fault_plan(&mut self, plan: &crate::fault::FaultPlan) -> Result<(), String> {
        let compiled = self.core.compile_fault_plan(plan)?;
        self.core.set_faults(compiled);
        Ok(())
    }

    /// Removes every injected fault (the lanes keep whatever corrupted
    /// state they have accumulated).
    pub fn clear_faults(&mut self) {
        self.core.clear_faults();
    }

    /// The engine behind the facade — the fault-campaign runner reads
    /// register homes and the metrics registry through it.
    pub(crate) fn core(&self) -> &EngineCore<'c> {
        &self.core
    }
}

/// One per-lane input event of a [`StimulusSet`].
#[derive(Clone, Debug)]
pub struct StimEvent {
    /// Absolute simulator cycle the drive takes effect before.
    pub cycle: u64,
    /// Destination lane.
    pub lane: u32,
    /// Input name.
    pub input: String,
    /// Driven value.
    pub value: Bits,
}

/// A bundle of distinct per-lane input traces: the stimulus-side half
/// of gang simulation. Each event drives one input of one lane before a
/// given (absolute) cycle executes; between events inputs hold their
/// value, exactly like `poke` on the reference interpreter.
///
/// The same set drives both engines: a gang run consumes it via
/// [`GangSimulator::run_stimulus`], and a reference check replays one
/// lane's slice of it against the interpreter via
/// [`apply_lane`](Self::apply_lane).
#[derive(Clone, Debug, Default)]
pub struct StimulusSet {
    lanes: u32,
    events: Vec<StimEvent>,
}

impl StimulusSet {
    /// An empty stimulus for `lanes` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(lanes: u32) -> Self {
        assert!(lanes >= 1, "need at least one lane");
        StimulusSet {
            lanes,
            events: Vec::new(),
        }
    }

    /// The lane count this stimulus was built for.
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Schedules `input` in `lane` to take `value` before cycle `cycle`
    /// executes.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn drive(&mut self, cycle: u64, lane: u32, input: &str, value: Bits) -> &mut Self {
        assert!(lane < self.lanes, "lane {lane} out of range");
        self.events.push(StimEvent {
            cycle,
            lane,
            input: input.to_string(),
            value,
        });
        self
    }

    /// All scheduled events.
    pub fn events(&self) -> &[StimEvent] {
        &self.events
    }

    /// One cycle past the last scheduled event (0 when empty): the
    /// shortest run that consumes the whole trace.
    pub fn horizon(&self) -> u64 {
        self.events.iter().map(|e| e.cycle + 1).max().unwrap_or(0)
    }

    /// The events scheduled for `cycle`, in insertion order.
    pub fn events_at(&self, cycle: u64) -> impl Iterator<Item = &StimEvent> {
        self.events.iter().filter(move |e| e.cycle == cycle)
    }

    /// Applies lane `lane`'s events for `cycle` to a reference
    /// interpreter (call right before its `step` for that cycle) — the
    /// oracle side of a gang equivalence check.
    ///
    /// # Panics
    ///
    /// Panics if an event names an input the circuit doesn't have.
    pub fn apply_lane(&self, lane: u32, cycle: u64, sim: &mut Simulator<'_>) {
        for ev in self.events_at(cycle).filter(|e| e.lane == lane) {
            let id = sim
                .input_id(&ev.input)
                .unwrap_or_else(|| panic!("no input {}", ev.input));
            sim.set_input(id, &ev.value);
        }
    }
}
