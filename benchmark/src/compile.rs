//! `compile_large`: five large partitions taken from Circuit source to
//! their first simulated cycle. It is the only workload where `graph`,
//! `hypergraph`, `core` and the `sim::engine` lowering do the work and
//! the hot loop does none — what an edit-compile-run user and a cold
//! `parendi-serve` miss both pay.

use crate::ctx::{digest_bits, Ctx, Outcome, SETUP_REPEATS};
use crate::engine::{frontend_ledger, Built};
use crate::stats::{median, tail};
use parendi_core::PartitionConfig;
use parendi_designs::Benchmark;
use parendi_graph::cost::CostModel;
use parendi_graph::fiber::{extract_fibers, SinkKind};
use parendi_hypergraph::Hypergraph;
use parendi_rtl::bits::words_for;
use parendi_rtl::{Circuit, RegId};
use parendi_sim::{GangSimulator, Precompiled, Simulator};
use std::time::Instant;

/// Gang width every design is lowered for (one daemon bucket).
const LANES: usize = 8;

/// Serial passes (and concurrent rounds) at the reference length.
const BASE_PASSES: usize = 11;

/// Cycles each compiled partition is checked against the interpreter.
const VERIFY_CYCLES: u64 = 64;

struct Design {
    name: &'static str,
    bench: Benchmark,
    tiles: u32,
    /// Below `tiles` this splits the design over several chips, which
    /// engages the hypergraph stage of the compiler.
    tiles_per_chip: u32,
}

const DESIGNS: [Design; 5] = [
    Design {
        name: "sr15-1472",
        bench: Benchmark::Sr(15),
        tiles: 1472,
        tiles_per_chip: 1472,
    },
    Design {
        name: "lr10-1472",
        bench: Benchmark::Lr(10),
        tiles: 1472,
        tiles_per_chip: 1472,
    },
    Design {
        name: "sr10-256x4",
        bench: Benchmark::Sr(10),
        tiles: 256,
        tiles_per_chip: 64,
    },
    Design {
        name: "bitcoin-512",
        bench: Benchmark::Bitcoin,
        tiles: 512,
        tiles_per_chip: 1472,
    },
    Design {
        name: "vta-512",
        bench: Benchmark::Vta,
        tiles: 512,
        tiles_per_chip: 1472,
    },
];

impl Design {
    fn config(&self) -> PartitionConfig {
        PartitionConfig {
            tiles_per_chip: self.tiles_per_chip,
            ..PartitionConfig::with_tiles(self.tiles)
        }
    }
}

/// One pass: every design from source to its first cycle. Returns the
/// seconds spent inside `run(1)`.
fn pass(ctx: &Ctx) -> f64 {
    let req = ctx.request();
    let s = &ctx.spans;
    s.span("pass", req, || {
        let mut first_cycle_s = 0.0;
        for d in &DESIGNS {
            let circuit = s.span("rtl.build", req, || d.bench.build());
            let built = s.span("core.compile", req, || Built::new(circuit, &d.config()));
            let partition = &built.comp.partition;
            let pre = s.span("sim.lower", req, || {
                Precompiled::build(&built.circuit, partition, LANES, false)
            });
            let mut gang = s.span("sim.instantiate", req, || {
                GangSimulator::from_precompiled(&built.circuit, partition, &pre, 1)
            });
            first_cycle_s += s.span("sim.run", req, || gang.run(1));
        }
        first_cycle_s
    })
}

pub fn run_end_to_end(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let timed_pass = || {
        let t0 = Instant::now();
        let first_cycle_s = pass(ctx);
        (t0.elapsed().as_secs_f64(), first_cycle_s)
    };

    // Set-up of this workload is a pass: build, compile, lower,
    // instantiate the first engine.
    let setups: Vec<f64> = (0..ctx.setup_repeats(SETUP_REPEATS))
        .map(|_| timed_pass().0)
        .collect();
    out.set("setup_s", median(&setups));

    let passes = ctx.count(BASE_PASSES).max(2);
    let serial: Vec<(f64, f64)> = (0..passes).map(|_| timed_pass()).collect();
    let walls: Vec<f64> = serial.iter().map(|p| p.0).collect();
    let op_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    out.set("op_ms_p50", median(&op_ms));
    out.set("op_ms_tail", tail(&op_ms));
    out.set("work_per_s_t1", DESIGNS.len() as f64 / median(&walls));
    out.attempted += passes as u64;
    let first_cycle_share = median(&serial.iter().map(|p| p.1 / p.0).collect::<Vec<_>>());

    // `tmax` passes at once: what concurrent cold misses cost a daemon.
    let rounds: Vec<f64> = (0..passes)
        .map(|_| {
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..ctx.tmax {
                    scope.spawn(|| pass(ctx));
                }
            });
            t0.elapsed().as_secs_f64()
        })
        .collect();
    out.set(
        "work_per_s",
        (ctx.tmax * DESIGNS.len()) as f64 / median(&rounds),
    );
    out.attempted += (passes * ctx.tmax) as u64;
    println!(
        "  pass {:.3} s serial, {:.3} s with {} at once; run(1) is {:.2}% of a pass",
        median(&walls),
        median(&rounds),
        ctx.tmax,
        first_cycle_share * 100.0
    );
    verify(ctx, &mut out);
    out
}

/// Every compiled partition against the interpreter, from reset.
fn verify(ctx: &Ctx, out: &mut Outcome) {
    for d in &DESIGNS {
        let built = Built::new(d.bench.build(), &d.config());
        let (circuit, partition) = (&built.circuit, &built.comp.partition);
        let pre = Precompiled::build(circuit, partition, LANES, false);
        let mut gang = GangSimulator::from_precompiled(circuit, partition, &pre, ctx.tmax);
        gang.run(VERIFY_CYCLES);
        let t0 = Instant::now();
        let mut interp = Simulator::new(circuit);
        interp.step_n(VERIFY_CYCLES);
        out.add("harness.oracle_s", t0.elapsed().as_secs_f64());

        let mut mismatch = None;
        for i in 0..circuit.regs.len() {
            let want = interp.reg_value(RegId(i as u32));
            for lane in [0, LANES - 1] {
                if gang.reg_value_lane(RegId(i as u32), lane) != want {
                    mismatch.get_or_insert_with(|| format!("register {}", circuit.regs[i].name));
                }
            }
        }
        let lane0 = (0..circuit.regs.len()).map(|i| gang.reg_value_lane(RegId(i as u32), 0));
        let digest = digest_bits(0, lane0);
        let outputs: Vec<_> = circuit
            .outputs
            .iter()
            .map(|o| interp.output(&o.name).expect("declared output"))
            .collect();
        if gang.peek_outputs_lane(0) != outputs {
            mismatch.get_or_insert_with(|| "outputs".into());
        }
        out.mix_digest(digest);
        out.op(mismatch.is_none(), || {
            format!(
                "{}: compiled partition differs from interp after {VERIFY_CYCLES} cycles: {}",
                d.name,
                mismatch.unwrap_or_default()
            )
        });
    }
}

/// The fiber hypergraph of `circuit` as the harness builds it: a node
/// per fiber weighted by IPU cost, an edge per register weighted by its
/// words, pinned to the fiber writing it and the fibers reading it.
fn fiber_hypergraph(circuit: &Circuit) -> Hypergraph {
    let costs = CostModel::of(circuit);
    let fibers = extract_fibers(circuit, &costs);
    let weights = fibers.fibers.iter().map(|f| f.ipu_cost.max(1)).collect();
    let mut hg = Hypergraph::new(weights);
    let mut pins: Vec<Vec<u32>> = vec![Vec::new(); circuit.regs.len()];
    for (fi, f) in fibers.fibers.iter().enumerate() {
        if let SinkKind::Reg(r) = f.sink {
            pins[r.index()].push(fi as u32);
        }
        for r in &f.regs_read {
            pins[r.index()].push(fi as u32);
        }
    }
    for (ri, p) in pins.into_iter().enumerate() {
        hg.add_edge(words_for(circuit.regs[ri].width) as u64, p);
    }
    hg
}

pub fn run_traced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    for d in &DESIGNS {
        let front = frontend_ledger(ctx, &mut out, || d.bench.build(), &d.config(), LANES, false);
        out.set(format!("core.compile_s.{}", d.name), front.compile_s);
        let (circuit, partition, pre) = (
            &front.built.circuit,
            &front.built.comp.partition,
            &front.pre,
        );
        let (gang, inst_s) = ctx.spans.timed("sim.instantiate", ctx.request(), || {
            GangSimulator::from_precompiled(circuit, partition, pre, 1)
        });
        out.add("sim.instantiate_s", inst_s);
        out.add("sim.static_ops", gang.code_stats().total_ops as f64);
    }

    // The multi-chip split, on its own: sr10 into 4 blocks.
    let hg = fiber_hypergraph(&Benchmark::Sr(10).build());
    let seed = PartitionConfig::with_tiles(1).seed;
    let (result, partition_s) = ctx.spans.timed("hypergraph.partition", ctx.request(), || {
        hg.partition(4, 0.05, seed)
    });
    out.set("hypergraph.partition_s", partition_s);
    out.set("hypergraph.cut", result.cut as f64);

    // A few whole passes under spans, so the trace file shows how the
    // stages nest inside a pass.
    for _ in 0..ctx.count(2) {
        pass(ctx);
        out.attempted += 1;
    }
    verify(ctx, &mut out);
    out
}
