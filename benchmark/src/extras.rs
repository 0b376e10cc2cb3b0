//! Layer probes of the traced pass that no end-to-end workload
//! exercises on its own: gang width and layout variants, lane readback,
//! checkpoints, and the off-chip transports. They are recorded so that
//! a keep-or-delete decision on a variant has a row to point at.

use crate::ctx::{Ctx, Outcome};
use crate::engine::{Built, Case, Engine, GANG_LANES};
use crate::stats::median;
use parendi_core::PartitionConfig;
use parendi_designs::Benchmark;
use parendi_sim::{BspSimulator, StimulusSet, TraceConfig, TransportChoice};

const PROBE_REPS: usize = 3;

/// Median lane-cycles/s of `case` at `tmax` threads over short
/// fresh-engine repetitions (no stimulus: variants compare dispatch).
fn lane_rate(ctx: &Ctx, case: &Case, built: &Built, cycles: u64) -> f64 {
    let none = StimulusSet::new(case.lanes as u32);
    let rates: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let mut eng = Engine::new(case, built, ctx.tmax, TraceConfig::off());
            eng.run(ctx.warmup(), &none);
            let run_s = ctx
                .spans
                .span("sim.run", ctx.request(), || eng.run(cycles, &none));
            case.lanes as f64 * cycles as f64 / run_s
        })
        .collect();
    median(&rates)
}

/// `sim::gang` / `simd` / `sim::checkpoint` probes of `gang_lanes`.
pub fn gang_probes(ctx: &Ctx, out: &mut Outcome) {
    let [sprng, sr4, ca] = GANG_LANES;
    let cfg = |c: &Case| PartitionConfig::with_tiles(c.tiles);

    // Lane amortisation on the mesh: 1, 4 and 64 lanes of one partition.
    let built = Built::new((sr4.build)(), &cfg(&sr4));
    let cycles = ctx.cycles(sr4.cycles_tmax / 2);
    let wide = lane_rate(ctx, &sr4, &built, cycles);
    let four = lane_rate(ctx, &Case { lanes: 4, ..sr4 }, &built, cycles * 8);
    let one = lane_rate(ctx, &Case { lanes: 1, ..sr4 }, &built, cycles * 16);
    out.set("sim.gang.lanes4_lane_cycles_per_s", four);
    out.set("sim.gang.lane_speedup", wide / one);

    // Checkpoint of the widest state in the suite (sr4, 64 lanes).
    let mut eng = Engine::new(&sr4, &built, ctx.tmax, TraceConfig::off());
    eng.run(ctx.warmup(), &StimulusSet::new(64));
    if let Engine::Gang(g) = &mut eng {
        let req = ctx.request();
        let (snap, snapshot_s) = ctx
            .spans
            .timed("sim.checkpoint.snapshot", req, || g.snapshot());
        let (restored, restore_s) = ctx
            .spans
            .timed("sim.checkpoint.restore", req, || g.restore(&snap));
        out.op(restored.is_ok(), || {
            "sr4-16: checkpoint restore refused".into()
        });
        out.set("sim.checkpoint.snapshot_s", snapshot_s);
        out.set("sim.checkpoint.restore_s", restore_s);
        out.set("sim.checkpoint.bytes", snap.to_bytes().len() as f64);
    }
    drop(eng);

    // Bit-packed against strided on the all-1-bit design.
    let built = Built::new((ca.build)(), &cfg(&ca));
    let cycles = ctx.cycles(ca.cycles_tmax / 2);
    let packed = lane_rate(ctx, &ca, &built, cycles);
    let strided = lane_rate(
        ctx,
        &Case {
            packed: false,
            ..ca
        },
        &built,
        cycles / 8,
    );
    out.set("sim.gang.packed_speedup", packed / strided);

    // Reading every lane's outputs back (32 outputs x 64 lanes).
    let built = Built::new((sprng.build)(), &cfg(&sprng));
    let mut eng = Engine::new(&sprng, &built, ctx.tmax, TraceConfig::off());
    eng.run(ctx.warmup(), &StimulusSet::new(64));
    let (_, readback_s) = ctx.spans.timed("sim.gang.readback", ctx.request(), || {
        (0..sprng.lanes)
            .map(|lane| eng.outputs(&built.circuit, lane).len())
            .sum::<usize>()
    });
    out.set("sim.gang.readback_s", readback_s);
}

/// `sim::transport`: one two-chip partition over each backend that
/// stays inside the checkout. (The shared-memory backend maps files
/// under `/dev/shm`, which a benchmark run may not write to, so it has
/// no row here.)
pub fn transport_probes(ctx: &Ctx, out: &mut Outcome) {
    let circuit = Benchmark::Sr(3).build();
    let mut cfg = PartitionConfig::with_tiles(16);
    cfg.tiles_per_chip = 8;
    let built = Built::new(circuit, &cfg);
    let cycles = ctx.cycles(8_000);
    // A sandbox without a loopback interface cannot run the TCP backend;
    // its rows then read 0 like any layer a run does not reach.
    let loopback = std::net::TcpListener::bind("127.0.0.1:0").is_ok();
    if !loopback {
        println!("  no loopback interface: the TCP transport is not measured");
    }
    for (choice, name) in [
        (TransportChoice::InProcess, "inproc"),
        (TransportChoice::Tcp, "tcp"),
    ] {
        if choice == TransportChoice::Tcp && !loopback {
            continue;
        }
        let mut rates = Vec::new();
        for rep in 0..PROBE_REPS {
            let mut sim = BspSimulator::with_transport(
                &built.circuit,
                &built.comp.partition,
                ctx.tmax,
                choice,
            );
            sim.run(ctx.warmup());
            let span = format!("sim.transport.{name}");
            let (_, run_s) = ctx.spans.timed(&span, ctx.request(), || sim.run(cycles));
            rates.push(cycles as f64 / run_s);
            if rep == 0 && choice == TransportChoice::InProcess {
                // Every backend credits the same bytes and frames.
                let total = (ctx.warmup() + cycles) as f64;
                out.set(
                    "sim.transport.offchip_bytes_per_cycle",
                    sim.offchip_bytes_sent() as f64 / total,
                );
                out.set(
                    "sim.transport.frames_sent",
                    sim.metrics_snapshot().get("frames_sent").unwrap_or(0) as f64,
                );
                // The only multi-chip run of the benchmark (the cases'
                // own `sim.offchip_share` is 0: they are single-chip).
                let ph = sim.run_timed(cycles);
                out.set("sim.transport.offchip_share", ph.offchip_s / ph.total_s);
            }
        }
        out.set(format!("sim.transport.{name}.cycles_per_s"), median(&rates));
    }
}
