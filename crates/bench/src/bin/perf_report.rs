//! `perf_report`: run a corpus design under the traced engine and
//! print a Fig. 6-style performance report from the telemetry layer —
//! the per-tile straggler table (p50/p95/max of each sub-phase), each
//! worker's phase share from its event-trace track, the top static
//! opcodes of the compiled bytecode, and the full metrics snapshot.
//!
//! Flags / knobs: `--quick` (or `PARENDI_QUICK=1`) shrinks the run;
//! `PARENDI_TRACE=out.json` additionally writes the Perfetto-loadable
//! Chrome trace the report was computed from (the report itself always
//! traces in memory); `PARENDI_TRANSPORT` picks the off-chip backend.

use parendi_bench::{parse_quick_flag, quick, rule, write_bench_json, BenchRecord};
use parendi_core::{compile, PartitionConfig};
use parendi_designs::Benchmark;
use parendi_sim::{BspSimulator, TraceConfig, TransportChoice};
use parendi_telemetry::SpanKind;

/// `p`-th percentile of `sorted` (nearest-rank; `sorted` ascending).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn main() {
    parse_quick_flag();
    // Honour PARENDI_TRACE for an on-disk copy; the report itself
    // always needs an in-memory tile-level trace.
    let trace_cfg = match TraceConfig::from_env() {
        cfg if cfg.is_off() => TraceConfig::tile(),
        cfg => cfg,
    };
    let design = Benchmark::Sr(if quick() { 3 } else { 4 });
    let circuit = design.build();
    let per_chip = 8u32;
    let chips = 2u32;
    let threads = 4usize;
    let cycles: u64 = if quick() { 200 } else { 500 };
    let mut cfg = PartitionConfig::with_tiles(per_chip * chips);
    cfg.tiles_per_chip = per_chip;
    let comp = compile(&circuit, &cfg).expect("corpus design compiles");
    let transport = TransportChoice::from_env();
    let mut sim =
        BspSimulator::with_trace(&circuit, &comp.partition, threads, transport, trace_cfg);
    sim.run(50); // warm the persistent pool
    let ph = sim.run_timed(cycles);

    println!(
        "perf_report: {} | {} tiles / {} chips | {} threads | transport {} | {} cycles",
        design.name(),
        comp.partition.tiles_used(),
        comp.partition.chips,
        threads,
        sim.transport_name(),
        cycles,
    );
    println!(
        "rate {:.1} kcyc/s | straggler split per cycle: compute {:.2}µs, \
         offchip {:.2}µs, exchange {:.2}µs",
        cycles as f64 / ph.total_s / 1e3,
        ph.compute_s * 1e6 / cycles as f64,
        ph.offchip_s * 1e6 / cycles as f64,
        ph.exchange_s * 1e6 / cycles as f64,
    );

    // Fig. 6-style straggler table: distribution of per-tile sub-phase
    // times over the timed run.
    println!(
        "\nPer-tile sub-phase distribution ({} tiles, µs/cycle):",
        ph.per_tile.len()
    );
    println!(
        "{:>10} {:>9} {:>9} {:>9} {:>9}",
        "phase", "p50", "p95", "max", "sum"
    );
    rule(50);
    type TileGet = fn(&parendi_sim::bsp::TilePhases) -> f64;
    let cols: [(&str, TileGet); 3] = [
        ("compute", |t| t.compute_s),
        ("offchip", |t| t.offchip_s),
        ("exchange", |t| t.exchange_s),
    ];
    for (name, get) in &cols {
        let mut v: Vec<f64> = ph
            .per_tile
            .iter()
            .map(|t| get(t) * 1e6 / cycles as f64)
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let sum: f64 = v.iter().sum();
        println!(
            "{:>10} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            name,
            percentile(&v, 50.0),
            percentile(&v, 95.0),
            v.last().copied().unwrap_or(0.0),
            sum,
        );
    }

    // The fold behind those numbers: how tiles met workers, what each
    // worker is modelled to carry, and who waits for whom.
    let fold = sim.fold_report();
    println!(
        "\nTile→worker fold ({} of {} mailbox words/cycle cross workers, \
         heaviest worker at {}‰ of the mean):",
        fold.cross_worker_words(),
        fold.total_words(),
        fold.max_load_permille()
    );
    println!(
        "{:>10} {:>7} {:>10} {:>12} {:>12} {:>10}",
        "worker", "tiles", "load", "cross words", "total words", "neighbours"
    );
    rule(66);
    for (w, f) in fold.workers.iter().enumerate() {
        println!(
            "{w:>10} {:>7} {:>10} {:>12} {:>12} {:>10}",
            f.tiles, f.load, f.cross_words, f.total_words, f.neighbors
        );
    }

    // Per-worker phase share from the event-trace tracks: how each
    // worker's traced span time divides among the span kinds.
    let summaries = sim.trace_summaries();
    let short = |kind: SpanKind| match kind {
        SpanKind::Compute => "compute",
        SpanKind::OffchipFlush => "flush",
        SpanKind::OverlapResidual => "residual",
        SpanKind::TransportSend => "send",
        SpanKind::TransportRecv => "recv",
        SpanKind::BarrierWait => "barrier",
        SpanKind::Exchange => "exchange",
    };
    println!("\nPer-worker phase share (event trace):");
    print!("{:>18} {:>9}", "track", "spans");
    for kind in SpanKind::ALL {
        print!(" {:>9}", short(kind));
    }
    println!();
    rule(18 + 10 + 10 * SpanKind::ALL.len());
    for s in &summaries {
        print!("{:>18} {:>9}", s.name, s.events);
        for kind in SpanKind::ALL {
            print!(" {:>8.1}%", s.share(kind) * 100.0);
        }
        if s.dropped > 0 {
            print!("  ({} dropped)", s.dropped);
        }
        println!();
    }

    // Top static opcodes of the compiled bytecode (the data fusion
    // decisions are made from).
    let stats = sim.code_stats();
    println!(
        "\nTop opcodes ({} static ops in {} dispatches over {} tiles, mean run {:.1}):",
        stats.total_ops,
        stats.dispatches,
        stats.tiles,
        stats.mean_run_length()
    );
    for o in stats.top_opcodes(10) {
        println!(
            "  {:<10} w={:<3} x{:<8} {:>5.1}%",
            o.name,
            o.width,
            o.count,
            o.count as f64 * 100.0 / stats.total_ops.max(1) as f64
        );
    }
    println!("Top adjacent dispatch pairs (fusion candidates):");
    for p in stats.top_pairs(5) {
        println!("  {:<10} -> {:<10} x{}", p.first, p.second, p.count);
    }

    let metrics = sim.metrics_snapshot();
    println!("\nMetrics snapshot:");
    print!("{}", metrics.to_text());
    // A saturated trace buffer silently truncates every table above —
    // make it loud so a partial report is never read as a full one.
    let dropped = metrics.get("trace_events_dropped").unwrap_or(0);
    if dropped > 0 {
        eprintln!(
            "\nWARNING: {dropped} trace event(s) dropped — the per-worker \
             shares above undercount; raise the trace capacity \
             (TraceConfig::with_capacity) or use PARENDI_TRACE_LEVEL=phase"
        );
    }
    // Persist the measured point so the report leaves a machine-readable
    // trail next to the figure bins. An unwritable bench dir is a hard
    // failure: CI reads the JSON, not the tables above.
    let rec = BenchRecord {
        bin: "perf_report".into(),
        design: design.name(),
        engine: "bsp-traced".into(),
        chips,
        tiles: comp.partition.tiles_used() as u32,
        lanes: 1,
        threads: threads as u32,
        cores: parendi_bench::host_cores(),
        cycles,
        cycles_per_s: cycles as f64 / ph.total_s.max(1e-12),
        lane_cycles_per_s: cycles as f64 / ph.total_s.max(1e-12),
        compute_s: ph.compute_s,
        offchip_s: ph.offchip_s,
        exchange_s: ph.exchange_s,
        overlap_s: ph.overlap_s,
        total_s: ph.total_s,
        ..BenchRecord::default()
    }
    .with_metrics(metrics);
    match write_bench_json("perf_report", &[rec]) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("\nperf_report: could not write bench json: {e}");
            std::process::exit(1);
        }
    }
    // The engine writes the PARENDI_TRACE file (if configured) when it
    // drops, after its transport threads drain.
}
