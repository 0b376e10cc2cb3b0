//! The three engine workloads — `single_compute`, `single_sync` and
//! `gang_lanes` — share this file: a workload is a list of [`Case`]s,
//! and a case is measured the same way whichever engine runs it.
//!
//! Every repetition starts from reset on a *fresh* engine, runs
//! [`WARMUP`] cycles unmeasured and then a fixed number of cycles
//! measured. The mesh cores halt after a few ten thousand cycles, so a
//! long-lived engine would simulate less and less activity; a fresh
//! engine per repetition keeps every repetition inside the same cycle
//! window, and the harness checks that no `halted` register is set when
//! the repetition ends.

use crate::ctx::{digest_bits, Ctx, Outcome, SETUP_REPEATS};
use crate::gen;
use crate::stats::{geomean, median, percentile, tail};
use parendi_core::{compile, Compilation, CompileKey, PartitionConfig, Routing};
use parendi_designs::{prng, Benchmark};
use parendi_graph::analysis::adjacency;
use parendi_graph::cost::CostModel;
use parendi_graph::fiber::extract_fibers;
use parendi_rtl::bits::Bits;
use parendi_rtl::{Circuit, RegId};
use parendi_sim::{
    BspPhases, BspSimulator, GangSimulator, MetricsSnapshot, Precompiled, Simulator, StimulusSet,
    TraceConfig, TransportChoice,
};
use std::collections::HashMap;
use std::time::Instant;

/// Unmeasured cycles at the start of every repetition, at the
/// reference length (`Ctx::warmup` shortens them with the run).
pub const WARMUP: u64 = 500;

/// Per-lane input traffic of a gang case.
#[derive(Clone, Copy, PartialEq)]
pub enum Stim {
    /// The design has no inputs; all lanes run the same scenario.
    None,
    /// `build_seeded_bank`: every lane loads its own seed at cycle 0.
    Reseed,
    /// Rule 30 ring: seeded one-cycle `inj` pulses per lane.
    Inj,
}

/// `inj` pulse slots per repetition: the run is cut into about twice
/// this many stretches, each a worker-pool hand-off.
const INJ_SLOTS: usize = 32;

#[derive(Clone, Copy)]
pub struct Case {
    pub name: &'static str,
    pub build: fn() -> Circuit,
    pub tiles: u32,
    /// 1 runs `BspSimulator`; more runs a `GangSimulator` of that width.
    pub lanes: usize,
    pub packed: bool,
    pub stim: Stim,
    /// Cycles per repetition at one thread / at `tmax` threads, at the
    /// reference length. Sized so a repetition stays below the design's
    /// halt horizon (sr: ~53 k cycles, lr: ~29 k).
    pub cycles_t1: u64,
    pub cycles_tmax: u64,
    /// Cycles of the verification run against the interpreter.
    pub verify_cycles: u64,
}

pub const SINGLE_COMPUTE: [Case; 1] = [Case {
    name: "sr7-64",
    build: || Benchmark::Sr(7).build(),
    tiles: 64,
    lanes: 1,
    packed: false,
    stim: Stim::None,
    cycles_t1: 5_000,
    cycles_tmax: 9_000,
    verify_cycles: 2_000,
}];

pub const SINGLE_SYNC: [Case; 2] = [
    Case {
        name: "prng64-32",
        build: || Benchmark::Prng(64).build(),
        tiles: 32,
        lanes: 1,
        packed: false,
        stim: Stim::None,
        cycles_t1: 130_000,
        cycles_tmax: 110_000,
        verify_cycles: 2_000,
    },
    Case {
        name: "vta-256",
        build: || Benchmark::Vta.build(),
        tiles: 256,
        lanes: 1,
        packed: false,
        stim: Stim::None,
        cycles_t1: 17_500,
        cycles_tmax: 17_000,
        verify_cycles: 2_000,
    },
];

pub const GANG_LANES: [Case; 3] = [
    Case {
        name: "sprng32-16",
        build: || prng::build_seeded_bank(32),
        tiles: 16,
        lanes: 64,
        packed: false,
        stim: Stim::Reseed,
        cycles_t1: 24_000,
        cycles_tmax: 32_000,
        verify_cycles: 2_000,
    },
    Case {
        name: "sr4-16",
        build: || Benchmark::Sr(4).build(),
        tiles: 16,
        lanes: 64,
        packed: false,
        stim: Stim::None,
        cycles_t1: 650,
        cycles_tmax: 1_300,
        verify_cycles: 2_000,
    },
    Case {
        name: "ca1024-32-packed",
        build: || Benchmark::Ca(1024).build(),
        tiles: 32,
        lanes: 64,
        packed: true,
        stim: Stim::Inj,
        cycles_t1: 7_000,
        cycles_tmax: 9_500,
        verify_cycles: 400,
    },
];

/// A case's circuit and partition.
pub struct Built {
    pub circuit: Circuit,
    pub comp: Compilation,
    halted: Vec<RegId>,
}

impl Built {
    pub fn new(circuit: Circuit, cfg: &PartitionConfig) -> Built {
        let comp = compile(&circuit, cfg).expect("benchmark design compiles");
        let halted = circuit
            .regs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.name == "halted" || r.name.ends_with(".halted"))
            .map(|(i, _)| RegId(i as u32))
            .collect();
        Built {
            circuit,
            comp,
            halted,
        }
    }
}

impl Case {
    fn built(&self) -> Built {
        Built::new((self.build)(), &PartitionConfig::with_tiles(self.tiles))
    }

    /// The stimulus of a run of `cycles` measured cycles after `warmup`
    /// unmeasured ones: seeds land in the warm-up, pulses in the
    /// measured window.
    fn stimulus(&self, seed: u64, warmup: u64, cycles: u64) -> StimulusSet {
        let lanes = self.lanes as u32;
        match self.stim {
            Stim::None => StimulusSet::new(lanes),
            Stim::Reseed => gen::reseed_stimulus(seed, lanes),
            Stim::Inj => {
                let slots = INJ_SLOTS.min((cycles / 4).max(1) as usize);
                gen::inj_stimulus(seed, lanes, warmup, warmup + cycles, slots)
            }
        }
    }

    /// Simulated work per engine cycle: one RTL cycle per lane.
    fn work(&self, cycles: u64) -> f64 {
        self.lanes as f64 * cycles as f64
    }
}

/// Either engine behind one interface. Constructors are the explicit
/// ones, so neither `PARENDI_TRANSPORT` nor `PARENDI_TRACE` in the
/// caller's environment can change what is measured.
pub enum Engine<'c> {
    Bsp(BspSimulator<'c>),
    Gang(GangSimulator<'c>),
}

impl<'c> Engine<'c> {
    pub fn new(case: &Case, built: &'c Built, threads: usize, trace: TraceConfig) -> Self {
        let (c, p) = (&built.circuit, &built.comp.partition);
        let inproc = TransportChoice::InProcess;
        if case.lanes == 1 {
            Engine::Bsp(BspSimulator::with_trace(c, p, threads, inproc, trace))
        } else {
            Engine::Gang(GangSimulator::with_trace(
                c,
                p,
                threads,
                case.lanes,
                case.packed,
                inproc,
                trace,
            ))
        }
    }

    /// Advances `cycles` cycles, applying `stim` on the way; wall seconds.
    pub fn run(&mut self, cycles: u64, stim: &StimulusSet) -> f64 {
        match self {
            Engine::Bsp(s) => s.run(cycles),
            Engine::Gang(g) => g.run_stimulus(cycles, stim),
        }
    }

    pub fn run_timed(&mut self, cycles: u64) -> BspPhases {
        match self {
            Engine::Bsp(s) => s.run_timed(cycles),
            Engine::Gang(g) => g.run_timed(cycles),
        }
    }

    pub fn reg(&self, id: RegId, lane: usize) -> Bits {
        match self {
            Engine::Bsp(s) => s.reg_value(id),
            Engine::Gang(g) => g.reg_value_lane(id, lane),
        }
    }

    pub fn outputs(&self, circuit: &Circuit, lane: usize) -> Vec<Bits> {
        match self {
            Engine::Bsp(s) => circuit
                .outputs
                .iter()
                .map(|o| s.peek_output(&o.name).expect("declared output"))
                .collect(),
            Engine::Gang(g) => g.peek_outputs_lane(lane),
        }
    }

    pub fn metrics(&self) -> MetricsSnapshot {
        match self {
            Engine::Bsp(s) => s.metrics_snapshot(),
            Engine::Gang(g) => g.metrics_snapshot(),
        }
    }

    fn static_ops(&self) -> u64 {
        match self {
            Engine::Bsp(s) => s.code_stats().total_ops,
            Engine::Gang(g) => g.code_stats().total_ops,
        }
    }

    fn events_dropped(&self) -> u64 {
        let tracks = match self {
            Engine::Bsp(s) => s.trace_summaries(),
            Engine::Gang(g) => g.trace_summaries(),
        };
        tracks.iter().map(|t| t.dropped).sum()
    }

    fn any_halted(&self, built: &Built, lanes: usize) -> bool {
        [0, lanes - 1]
            .iter()
            .any(|&l| built.halted.iter().any(|&r| !self.reg(r, l).is_zero()))
    }
}

/// One repetition: fresh engine, warm-up, measured run.
struct Rep {
    /// Constructor + warm-up + measured run: what a caller waits for.
    op_s: f64,
    /// The measured run alone.
    run_s: f64,
}

fn rep(
    ctx: &Ctx,
    out: &mut Outcome,
    case: &Case,
    built: &Built,
    threads: usize,
    cycles: u64,
    stim: &StimulusSet,
) -> Rep {
    let req = ctx.request();
    let ((run_s, halted), op_s) = ctx.spans.timed("rep", req, || {
        let mut eng = ctx.spans.span("sim.instantiate", req, || {
            Engine::new(case, built, threads, TraceConfig::off())
        });
        ctx.spans
            .span("sim.warmup", req, || eng.run(ctx.warmup(), stim));
        let run_s = ctx.spans.span("sim.run", req, || eng.run(cycles, stim));
        (run_s, eng.any_halted(built, case.lanes))
    });
    out.op(!halted, || {
        format!(
            "{}: a core halted inside a {cycles}-cycle repetition",
            case.name
        )
    });
    Rep { op_s, run_s }
}

/// `n` kept repetitions after one discarded one (the first
/// multi-threaded run of a process pays a one-off second of thread
/// placement that no later run sees).
fn reps(
    ctx: &Ctx,
    out: &mut Outcome,
    case: &Case,
    built: &Built,
    threads: usize,
    cycles: u64,
    n: usize,
) -> Vec<Rep> {
    let stim = case.stimulus(ctx.seed, ctx.warmup(), cycles);
    (0..=n)
        .map(|_| rep(ctx, out, case, built, threads, cycles, &stim))
        .skip(1)
        .collect()
}

fn rate(case: &Case, cycles: u64, reps: &[Rep]) -> f64 {
    let rates: Vec<f64> = reps.iter().map(|r| case.work(cycles) / r.run_s).collect();
    median(&rates)
}

/// The end-to-end pass of an engine workload.
pub fn run_end_to_end(ctx: &Ctx, cases: &[Case]) -> Outcome {
    let mut out = Outcome::default();

    let setups: Vec<f64> = (0..ctx.setup_repeats(SETUP_REPEATS))
        .map(|_| {
            let t0 = Instant::now();
            for case in cases {
                let built = case.built();
                drop(Engine::new(case, &built, ctx.tmax, TraceConfig::off()));
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    out.set("setup_s", median(&setups));

    let (mut wide, mut one, mut p50, mut tails) = (vec![], vec![], vec![], vec![]);
    for case in cases {
        let built = case.built();
        let (c1, cn) = (ctx.cycles(case.cycles_t1), ctx.cycles(case.cycles_tmax));
        let r1 = reps(ctx, &mut out, case, &built, 1, c1, ctx.reps());
        let rn = reps(ctx, &mut out, case, &built, ctx.tmax, cn, ctx.reps());
        let (rate1, raten) = (rate(case, c1, &r1), rate(case, cn, &rn));
        let op_ms: Vec<f64> = rn.iter().map(|r| r.op_s * 1e3).collect();
        // How far the repetitions of one process scatter, in percent.
        let swing = |reps: &[Rep]| {
            let runs: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
            (percentile(&runs, 100.0) - percentile(&runs, 0.0)) / median(&runs) * 100.0
        };
        println!(
            "  {:<18} t1 {rate1:>12.1}/s (reps within {:.1}%)  t{} {raten:>12.1}/s (reps within {:.1}%)  op p50 {:.1} ms",
            case.name,
            swing(&r1),
            ctx.tmax,
            swing(&rn),
            median(&op_ms)
        );
        one.push(rate1);
        wide.push(raten);
        p50.push(median(&op_ms));
        tails.push(tail(&op_ms));
        verify(ctx, &mut out, case, &built);
    }
    out.set("work_per_s", geomean(&wide));
    out.set("work_per_s_t1", geomean(&one));
    out.set("op_ms_p50", geomean(&p50));
    out.set("op_ms_tail", geomean(&tails));
    out
}

/// Final state of one scenario on the interpreter.
struct Expected {
    regs: Vec<Bits>,
    outputs: Vec<Bits>,
}

fn interpret(circuit: &Circuit, stim: &StimulusSet, lane: u32, cycles: u64) -> Expected {
    let mut sim = Simulator::new(circuit);
    for cycle in 0..cycles {
        stim.apply_lane(lane, cycle, &mut sim);
        sim.step();
    }
    Expected {
        regs: (0..circuit.regs.len())
            .map(|i| sim.reg_value(RegId(i as u32)))
            .collect(),
        outputs: circuit
            .outputs
            .iter()
            .map(|o| sim.output(&o.name).expect("declared output"))
            .collect(),
    }
}

/// Lanes whose every register is compared (all lanes' outputs are).
const DEEP_LANES: [usize; 4] = [0, 1, 31, 63];

/// Runs the case on a fresh engine at `tmax` threads and on the
/// interpreter, and compares them. The oracle is the interpreter, never
/// the engine. One operation; its digest folds into the outcome.
pub fn verify(ctx: &Ctx, out: &mut Outcome, case: &Case, built: &Built) {
    let cycles = ctx.cycles(case.verify_cycles).max(20);
    let circuit = &built.circuit;
    // Verification starts at reset, so the pulse window starts at 0.
    let stim = match case.stim {
        Stim::Inj => gen::inj_stimulus(ctx.seed, case.lanes as u32, 2, cycles, 4),
        _ => case.stimulus(ctx.seed, 0, cycles),
    };

    let mut eng = Engine::new(case, built, ctx.tmax, TraceConfig::off());
    let poke = circuit
        .inputs
        .iter()
        .find(|i| i.width == 1 && ctx.inject_fault);
    if let (Some(input), Engine::Gang(g)) = (poke, &mut eng) {
        // Oracle guard: disturb lane 1 behind the oracle's back. The
        // interpreter replays the stimulus only, so the check must fail.
        g.run_stimulus(cycles / 2, &stim);
        g.poke_lane(&input.name, 1, 1);
        g.run_stimulus(1, &stim);
        g.poke_lane(&input.name, 1, 0);
        g.run_stimulus(cycles - cycles / 2 - 1, &stim);
    } else {
        eng.run(cycles, &stim);
    }

    // Lanes with the same stimulus share one interpreter run.
    let t0 = Instant::now();
    let mut oracle: HashMap<String, Expected> = HashMap::new();
    let mut mismatches = Vec::new();
    let (mut engine_digest, mut oracle_digest) = (0, 0);
    for lane in 0..case.lanes {
        let key: String = stim
            .events()
            .iter()
            .filter(|e| e.lane as usize == lane)
            .map(|e| format!("{} {} {:x};", e.cycle, e.input, e.value))
            .collect();
        let want = oracle
            .entry(key)
            .or_insert_with(|| interpret(circuit, &stim, lane as u32, cycles));
        if eng.outputs(circuit, lane) != want.outputs {
            mismatches.push(format!("lane {lane} outputs"));
        }
        if DEEP_LANES.contains(&lane) {
            let got: Vec<Bits> = (0..circuit.regs.len())
                .map(|i| eng.reg(RegId(i as u32), lane))
                .collect();
            if let Some(i) = (0..got.len()).find(|&i| got[i] != want.regs[i]) {
                mismatches.push(format!("lane {lane} register {}", circuit.regs[i].name));
            }
            engine_digest = digest_bits(engine_digest, got);
            oracle_digest = digest_bits(oracle_digest, want.regs.iter().cloned());
        }
    }
    let oracle_s = t0.elapsed().as_secs_f64();
    out.add("harness.oracle_s", oracle_s);
    out.set(
        format!("sim.interp.cycles_per_s.{}", case.name),
        (oracle.len() as u64 * cycles) as f64 / oracle_s,
    );
    if engine_digest != oracle_digest {
        mismatches.push("digest".into());
    }
    out.mix_digest(engine_digest);
    out.op(mismatches.is_empty(), || {
        format!(
            "{}: engine differs from interp after {cycles} cycles: {}",
            case.name,
            mismatches.join(", ")
        )
    });
}

/// What [`frontend_ledger`] built on the way.
pub struct Frontend {
    pub built: Built,
    pub pre: Precompiled,
    /// Seconds inside `compile` for this circuit alone.
    pub compile_s: f64,
}

/// Compiler front-end ledger of one circuit: every stage called on its
/// own, from outside. Sums into the outcome, so a workload with several
/// cases reports totals over its cases.
pub fn frontend_ledger(
    ctx: &Ctx,
    out: &mut Outcome,
    build: impl FnOnce() -> Circuit,
    cfg: &PartitionConfig,
    lanes: usize,
    packed: bool,
) -> Frontend {
    let req = ctx.request();
    let s = &ctx.spans;
    let (circuit, build_s) = s.timed("rtl.build", req, build);
    out.add("rtl.build_s", build_s);
    out.add("rtl.nodes", circuit.nodes.len() as f64);

    let (costs, cost_s) = s.timed("graph.cost", req, || CostModel::of(&circuit));
    let (fibers, fibers_s) = s.timed("graph.fibers", req, || extract_fibers(&circuit, &costs));
    let (_, adjacency_s) = s.timed("graph.adjacency", req, || adjacency(&circuit, &fibers));
    out.add("graph.cost_s", cost_s);
    out.add("graph.fibers_s", fibers_s);
    out.add("graph.adjacency_s", adjacency_s);
    out.add("graph.fibers", fibers.len() as f64);
    out.add("graph.duplication_factor", fibers.duplication_factor());

    let (built, compile_s) = s.timed("core.compile", req, || Built::new(circuit, cfg));
    out.add("core.compile_s", compile_s);
    let partition = &built.comp.partition;
    let (_, routing_s) = s.timed("core.routing", req, || {
        Routing::new(&built.circuit, partition)
    });
    out.add("core.routing_s", routing_s);
    // What `compile` spends outside the stages timed above: the merge
    // stages of the partitioner proper.
    out.add(
        "core.partition_residual_s",
        compile_s - cost_s - fibers_s - adjacency_s - routing_s,
    );
    let (_, key_s) = s.timed("core.key", req, || {
        CompileKey::new(&built.circuit, cfg, lanes as u32, packed).digest()
    });
    out.add("core.key_s", key_s);
    out.add("core.tiles_used", partition.tiles_used() as f64);
    out.add("core.straggler_cost", partition.straggler_cost() as f64);
    out.add("core.mean_cost", partition.mean_cost());
    out.add(
        "core.sent_bytes_per_cycle",
        built.comp.plan.total_sent() as f64,
    );

    let (pre, lower_s) = s.timed("sim.lower", req, || {
        Precompiled::build(&built.circuit, partition, lanes, packed)
    });
    out.add("sim.lower_s", lower_s);
    Frontend {
        built,
        pre,
        compile_s,
    }
}

/// Phase shares of one timed run.
struct Shares {
    compute: f64,
    exchange: f64,
    offchip: f64,
    exchange_us_per_cycle: f64,
    straggler_ratio: f64,
    ns_per_op: f64,
}

fn timed_rep(
    ctx: &Ctx,
    case: &Case,
    built: &Built,
    threads: usize,
    cycles: u64,
    stim: &StimulusSet,
) -> Shares {
    let req = ctx.request();
    let mut eng = Engine::new(case, built, threads, TraceConfig::off());
    eng.run(ctx.warmup(), stim);
    let before = eng.metrics();
    let ph = ctx
        .spans
        .span("sim.run_timed", req, || eng.run_timed(cycles));
    let after = eng.metrics();
    let ops = ["ops_strided", "ops_packed"]
        .iter()
        .map(|k| after.get(k).unwrap_or(0) - before.get(k).unwrap_or(0))
        .sum::<u64>();
    let tile_compute: Vec<f64> = ph.per_tile.iter().map(|t| t.compute_s).collect();
    let mean = tile_compute.iter().sum::<f64>() / tile_compute.len().max(1) as f64;
    let max = tile_compute.iter().cloned().fold(0.0, f64::max);
    Shares {
        compute: ph.compute_s / ph.total_s,
        exchange: ph.exchange_s / ph.total_s,
        offchip: ph.offchip_s / ph.total_s,
        exchange_us_per_cycle: ph.exchange_s * 1e6 / cycles as f64,
        straggler_ratio: if mean > 0.0 { max / mean } else { 1.0 },
        ns_per_op: ph.compute_s * 1e9 / ops.max(1) as f64,
    }
}

fn median_by(shares: &[Shares], f: impl Fn(&Shares) -> f64) -> f64 {
    median(&shares.iter().map(f).collect::<Vec<_>>())
}

/// Repetitions of each kind in the traced pass (half-length each).
const TRACED_REPS: usize = 3;

/// The traced pass of an engine workload: the per-layer ledger.
pub fn run_traced(ctx: &Ctx, cases: &[Case]) -> Outcome {
    let mut out = Outcome::default();
    let mean = |out: &mut Outcome, name: &str, v: f64| out.add(name, v / cases.len() as f64);
    for case in cases {
        let cfg = PartitionConfig::with_tiles(case.tiles);
        let built = frontend_ledger(ctx, &mut out, case.build, &cfg, case.lanes, case.packed).built;
        let (c1, cn) = (
            ctx.cycles(case.cycles_t1 / 2),
            ctx.cycles(case.cycles_tmax / 2),
        );
        let (stim1, stimn) = (
            case.stimulus(ctx.seed, ctx.warmup(), c1),
            case.stimulus(ctx.seed, ctx.warmup(), cn),
        );

        let (eng, inst_s) = ctx.spans.timed("sim.instantiate", ctx.request(), || {
            Engine::new(case, &built, ctx.tmax, TraceConfig::off())
        });
        out.add("sim.instantiate_s", inst_s);
        out.add("sim.static_ops", eng.static_ops() as f64);
        drop(eng);

        // Untraced rates, for thread scaling and as the base of the
        // tracing overhead.
        let r1 = reps(ctx, &mut out, case, &built, 1, c1, TRACED_REPS);
        let rn = reps(ctx, &mut out, case, &built, ctx.tmax, cn, TRACED_REPS);
        let (rate1, raten) = (rate(case, c1, &r1), rate(case, cn, &rn));
        out.set(format!("sim.thread_scaling.{}", case.name), raten / rate1);
        mean(&mut out, "sim.thread_scaling", raten / rate1);
        if case.lanes > 1 {
            out.set(format!("sim.gang.lane_cycles_per_s.{}", case.name), raten);
        }

        // Phase split from `run_timed`.
        let t1: Vec<Shares> = (0..TRACED_REPS)
            .map(|_| timed_rep(ctx, case, &built, 1, c1, &stim1))
            .collect();
        let tn: Vec<Shares> = (0..TRACED_REPS)
            .map(|_| timed_rep(ctx, case, &built, ctx.tmax, cn, &stimn))
            .collect();
        let (compute, exchange, offchip) = (
            median_by(&tn, |s| s.compute),
            median_by(&tn, |s| s.exchange),
            median_by(&tn, |s| s.offchip),
        );
        out.set(format!("sim.exchange_share.{}", case.name), exchange);
        mean(&mut out, "sim.compute_share", compute);
        mean(&mut out, "sim.exchange_share", exchange);
        mean(&mut out, "sim.offchip_share", offchip);
        mean(
            &mut out,
            "sim.residual_share",
            1.0 - compute - exchange - offchip,
        );
        mean(
            &mut out,
            "sim.exchange_share_t1",
            median_by(&t1, |s| s.exchange),
        );
        mean(
            &mut out,
            "sim.exchange_us_per_cycle",
            median_by(&tn, |s| s.exchange_us_per_cycle),
        );
        mean(
            &mut out,
            "sim.straggler_ratio",
            median_by(&tn, |s| s.straggler_ratio),
        );
        // Dispatch cost is a one-thread property: at `tmax` the straggler
        // worker's compute time covers only its share of the operations.
        mean(&mut out, "sim.ns_per_op", median_by(&t1, |s| s.ns_per_op));

        // Engine tracing on: counters, and what watching costs.
        let mut traced_rates = Vec::new();
        for i in 0..TRACED_REPS {
            let req = ctx.request();
            let mut eng = Engine::new(case, &built, ctx.tmax, TraceConfig::phase());
            eng.run(ctx.warmup(), &stimn);
            let before = eng.metrics();
            let run_s = ctx
                .spans
                .span("sim.run_traced", req, || eng.run(cn, &stimn));
            traced_rates.push(case.work(cn) / run_s);
            if i == 0 {
                let after = eng.metrics();
                let delta =
                    |k: &str| (after.get(k).unwrap_or(0) - before.get(k).unwrap_or(0)) as f64;
                let kcycles = cn as f64 / 1e3;
                mean(
                    &mut out,
                    "sim.barrier_park_per_kcycle",
                    delta("barrier_park_waits") / kcycles,
                );
                mean(
                    &mut out,
                    "sim.barrier_spin_per_kcycle",
                    delta("barrier_spin_waits") / kcycles,
                );
                out.add("sim.ops_strided", delta("ops_strided"));
                out.add("sim.ops_packed", delta("ops_packed"));
                out.add(
                    "sim.simd_kernel_dispatches",
                    delta("simd_kernel_dispatches"),
                );
                out.add("telemetry.events_dropped", eng.events_dropped() as f64);
            }
        }
        mean(
            &mut out,
            "telemetry.trace_overhead_pct",
            (raten / median(&traced_rates) - 1.0) * 100.0,
        );
        verify(ctx, &mut out, case, &built);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eq. 1 as the harness reports it: the three phase shares and the
    /// residual account for the whole wall clock of a timed run.
    #[test]
    fn phase_shares_and_residual_sum_to_one() {
        let ctx = Ctx::new(1, 0.01, true, crate::host::tmax().min(2), false);
        let out = run_traced(&ctx, &SINGLE_SYNC);
        let shares = [
            "sim.compute_share",
            "sim.exchange_share",
            "sim.offchip_share",
            "sim.residual_share",
        ];
        let sum: f64 = shares.iter().map(|k| out.metrics[*k]).sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
        assert!(shares
            .iter()
            .all(|k| (0.0..=1.0).contains(&out.metrics[*k])));
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert!(out.attempted > 0 && out.digest != 0);
    }

    /// Every repetition must stay below the halt horizon of its design,
    /// or later repetitions simulate less activity than earlier ones.
    #[test]
    fn no_case_can_reach_its_halt_horizon() {
        let mut halting = 0;
        for case in SINGLE_COMPUTE.iter().chain(&SINGLE_SYNC).chain(&GANG_LANES) {
            if case.built().halted.is_empty() {
                continue; // free-running design: any length is the same activity
            }
            halting += 1;
            let longest = WARMUP + case.cycles_t1.max(case.cycles_tmax).max(case.verify_cycles);
            assert!(longest < 29_000, "{} runs {longest} cycles", case.name);
        }
        assert_eq!(halting, 2, "sr7-64 and sr4-16 are the cases with cores");
    }
}
