//! `report`: run a corpus design under the traced engine and print a
//! Fig. 6-style performance report from the telemetry layer — the
//! per-tile straggler table (p50/p95/max of each sub-phase), the
//! tile→worker fold, each worker's phase share from its event-trace
//! track, the top static opcodes of the compiled bytecode, and the
//! full metrics snapshot. It describes one run; it is not a
//! measurement to compare across commits (that is `benchmark/`).
//!
//! `quick` shrinks the run; `PARENDI_TRACE=out.json` additionally
//! writes the Perfetto-loadable Chrome trace the report was computed
//! from (the report itself always traces in memory);
//! `PARENDI_TRANSPORT` picks the off-chip backend.

use crate::rule;
use parendi_core::{compile, PartitionConfig};
use parendi_designs::Benchmark;
use parendi_sim::{BspSimulator, TraceConfig, TransportChoice};
use parendi_telemetry::SpanKind;
use std::io::{self, Write};

/// `p`-th percentile of `sorted` (nearest-rank; `sorted` ascending).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The traced-engine performance report.
pub fn report(out: &mut dyn Write, quick: bool) -> io::Result<()> {
    // Honour PARENDI_TRACE for an on-disk copy; the report itself
    // always needs an in-memory tile-level trace.
    let trace_cfg = match TraceConfig::from_env() {
        cfg if cfg.is_off() => TraceConfig::tile(),
        cfg => cfg,
    };
    let design = Benchmark::Sr(if quick { 3 } else { 4 });
    let circuit = design.build();
    let per_chip = 8u32;
    let chips = 2u32;
    let threads = 4usize;
    let cycles: u64 = if quick { 200 } else { 500 };
    let mut cfg = PartitionConfig::with_tiles(per_chip * chips);
    cfg.tiles_per_chip = per_chip;
    let comp = compile(&circuit, &cfg).expect("corpus design compiles");
    let transport = TransportChoice::from_env();
    let mut sim =
        BspSimulator::with_trace(&circuit, &comp.partition, threads, transport, trace_cfg);
    sim.run(50); // warm the persistent pool
    let ph = sim.run_timed(cycles);

    writeln!(
        out,
        "report: {} | {} tiles / {} chips | {} threads | transport {} | {} cycles",
        design.name(),
        comp.partition.tiles_used(),
        comp.partition.chips,
        threads,
        sim.transport_name(),
        cycles,
    )?;
    writeln!(
        out,
        "rate {:.1} kcyc/s | straggler split per cycle: compute {:.2}µs, \
         offchip {:.2}µs, exchange {:.2}µs",
        cycles as f64 / ph.total_s / 1e3,
        ph.compute_s * 1e6 / cycles as f64,
        ph.offchip_s * 1e6 / cycles as f64,
        ph.exchange_s * 1e6 / cycles as f64,
    )?;

    // Fig. 6-style straggler table: distribution of per-tile sub-phase
    // times over the timed run.
    writeln!(
        out,
        "\nPer-tile sub-phase distribution ({} tiles, µs/cycle):",
        ph.per_tile.len()
    )?;
    writeln!(
        out,
        "{:>10} {:>9} {:>9} {:>9} {:>9}",
        "phase", "p50", "p95", "max", "sum"
    )?;
    rule(out, 50)?;
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
        writeln!(
            out,
            "{:>10} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            name,
            percentile(&v, 50.0),
            percentile(&v, 95.0),
            v.last().copied().unwrap_or(0.0),
            sum,
        )?;
    }

    // The fold behind those numbers: how tiles met workers, what each
    // worker is modelled to carry, and who waits for whom.
    let fold = sim.fold_report();
    writeln!(
        out,
        "\nTile→worker fold ({} of {} mailbox words/cycle cross workers, \
         heaviest worker at {}‰ of the mean):",
        fold.cross_worker_words(),
        fold.total_words(),
        fold.max_load_permille()
    )?;
    writeln!(
        out,
        "{:>10} {:>7} {:>10} {:>12} {:>12} {:>10}",
        "worker", "tiles", "load", "cross words", "total words", "neighbours"
    )?;
    rule(out, 66)?;
    for (w, f) in fold.workers.iter().enumerate() {
        writeln!(
            out,
            "{w:>10} {:>7} {:>10} {:>12} {:>12} {:>10}",
            f.tiles, f.load, f.cross_words, f.total_words, f.neighbors
        )?;
    }

    // Per-worker phase share from the event-trace tracks: how each
    // worker's traced span time divides among the span kinds.
    let summaries = sim.trace_summaries();
    let short = |kind: SpanKind| match kind {
        SpanKind::Compute => "compute",
        SpanKind::OffchipFlush => "flush",
        SpanKind::TransportSend => "send",
        SpanKind::TransportRecv => "recv",
        SpanKind::BarrierWait => "barrier",
        SpanKind::Exchange => "exchange",
    };
    writeln!(out, "\nPer-worker phase share (event trace):")?;
    write!(out, "{:>18} {:>9}", "track", "spans")?;
    for kind in SpanKind::ALL {
        write!(out, " {:>9}", short(kind))?;
    }
    writeln!(out)?;
    rule(out, 18 + 10 + 10 * SpanKind::ALL.len())?;
    for s in &summaries {
        write!(out, "{:>18} {:>9}", s.name, s.events)?;
        for kind in SpanKind::ALL {
            write!(out, " {:>8.1}%", s.share(kind) * 100.0)?;
        }
        if s.dropped > 0 {
            write!(out, "  ({} dropped)", s.dropped)?;
        }
        writeln!(out)?;
    }

    // Top static opcodes of the compiled bytecode (the data fusion
    // decisions are made from).
    let stats = sim.code_stats();
    writeln!(
        out,
        "\nTop opcodes ({} static ops in {} dispatches over {} tiles, mean run {:.1}):",
        stats.total_ops,
        stats.dispatches,
        stats.tiles,
        stats.mean_run_length()
    )?;
    for o in stats.top_opcodes(10) {
        writeln!(
            out,
            "  {:<10} w={:<3} x{:<8} {:>5.1}%",
            o.name,
            o.width,
            o.count,
            o.count as f64 * 100.0 / stats.total_ops.max(1) as f64
        )?;
    }
    writeln!(out, "Top adjacent dispatch pairs (fusion candidates):")?;
    for p in stats.top_pairs(5) {
        writeln!(out, "  {:<10} -> {:<10} x{}", p.first, p.second, p.count)?;
    }

    let metrics = sim.metrics_snapshot();
    writeln!(out, "\nMetrics snapshot:")?;
    write!(out, "{}", metrics.to_text())?;
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
    // The engine writes the PARENDI_TRACE file (if configured) when it
    // drops, after its transport threads drain.
    Ok(())
}
