//! The event-trace contract: a traced run emits well-formed Chrome
//! trace-event JSON whose per-track spans are monotone and
//! non-overlapping, and tracing never perturbs functional results —
//! a traced run is bit-identical to an untraced one for every engine,
//! strategy, and thread count.

mod common;

use common::{random_circuit_io, two_islands};
use parendi_core::{compile, Compilation, MultiChipStrategy, PartitionConfig};
use parendi_rtl::{Circuit, RegId};
use parendi_sim::{GangSimulator, TraceConfig, TransportChoice};

/// Compiles a small 2-chip partition of a random circuit.
fn compile_two_chip(c: &Circuit, mc: MultiChipStrategy) -> Compilation {
    let mut cfg = PartitionConfig::with_tiles(4);
    cfg.tiles_per_chip = 2;
    cfg.multi_chip = mc;
    let comp = compile(c, &cfg).expect("compiles");
    assert_eq!(comp.partition.chips, 2, "partition must span 2 chips");
    comp
}

/// One parsed `X` event from the emitted Chrome JSON.
struct Span {
    tid: u64,
    name: String,
    ts: f64,
    dur: f64,
    cycle: u64,
}

/// Pulls `"key":<number>` out of a single-event JSON line.
fn num_field(line: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}")) + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|ch: char| !(ch.is_ascii_digit() || ch == '.' || ch == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().expect("numeric field")
}

/// Pulls `"key":"<string>"` out of a single-event JSON line.
fn str_field(line: &str, key: &str) -> String {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}")) + pat.len();
    let rest = &line[at..];
    rest[..rest.find('"').expect("closing quote")].to_string()
}

/// Parses the emitted Chrome JSON into track names (by tid) and spans,
/// checking the structural shape along the way: the `traceEvents`
/// wrapper, one object per line, `M` metadata before any `X` event of
/// the same tid, balanced braces per line.
fn parse_chrome(json: &str) -> (Vec<(u64, String)>, Vec<Span>) {
    assert!(json.starts_with("{\"traceEvents\":[\n"), "wrapper open");
    assert!(json.ends_with("\n]}\n"), "wrapper close");
    let body = &json["{\"traceEvents\":[\n".len()..json.len() - "\n]}\n".len()];
    let mut tracks = Vec::new();
    let mut spans = Vec::new();
    for line in body.lines() {
        let line = line.strip_suffix(',').unwrap_or(line);
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "one object per line: {line}"
        );
        assert_eq!(
            line.matches('{').count(),
            line.matches('}').count(),
            "balanced braces: {line}"
        );
        let tid = num_field(line, "tid") as u64;
        match str_field(line, "ph").as_str() {
            "M" => {
                assert_eq!(str_field(line, "name"), "thread_name");
                // The track name is in args: {"name":"..."} — last
                // name field on the line.
                let args_at = line.find("\"args\"").expect("metadata args");
                tracks.push((tid, str_field(&line[args_at..], "name")));
            }
            "X" => {
                assert!(
                    tracks.iter().any(|(t, _)| *t == tid),
                    "X event before its track metadata (tid {tid})"
                );
                spans.push(Span {
                    tid,
                    name: str_field(line, "name"),
                    ts: num_field(line, "ts"),
                    dur: num_field(line, "dur"),
                    cycle: num_field(line, "cycle") as u64,
                });
            }
            ph => panic!("unexpected event phase {ph:?}"),
        }
    }
    (tracks, spans)
}

/// Per-track spans must be monotone and non-overlapping: each span
/// starts no earlier than the previous one ended (within the 3-decimal
/// microsecond rounding of the serializer).
fn assert_tracks_monotone(spans: &[Span]) {
    const SLACK_US: f64 = 0.004;
    let tids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.tid).collect();
    for tid in tids {
        let mut prev_end = f64::NEG_INFINITY;
        let mut prev_name = String::new();
        for s in spans.iter().filter(|s| s.tid == tid) {
            assert!(
                s.ts + SLACK_US >= prev_end,
                "tid {tid}: span {} @{} overlaps previous {} ending @{prev_end}",
                s.name,
                s.ts,
                prev_name,
            );
            prev_end = s.ts + s.dur;
            prev_name = s.name.clone();
        }
    }
}

/// Golden traced run: 2 workers, 4 cycles, tile-level spans. The
/// emitted JSON must be well-formed, name a track per worker, cover
/// every cycle, carry the expected span kinds, and keep every track
/// monotone.
#[test]
fn golden_two_worker_trace_is_wellformed_chrome_json() {
    let c = random_circuit_io(41, 8, 40, 2);
    let comp = compile_two_chip(&c, MultiChipStrategy::Post);
    let mut sim = GangSimulator::with_trace(
        &c,
        &comp.partition,
        2,
        1,
        false,
        TransportChoice::InProcess,
        TraceConfig::tile(),
    );
    sim.poke("in0", 5);
    sim.poke("in1", 9);
    sim.run(4);

    let json = sim.trace_json().expect("tracing is on");
    let (tracks, spans) = parse_chrome(&json);
    for w in 0..2 {
        assert!(
            tracks
                .iter()
                .any(|(_, n)| n == &format!("engine-worker-{w}")),
            "missing engine-worker-{w} track in {tracks:?}"
        );
    }
    assert!(!spans.is_empty(), "a traced run must record spans");
    let cycles: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.cycle).collect();
    assert_eq!(
        cycles.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2, 3],
        "spans must cover exactly the 4 executed cycles"
    );
    for kind in ["compute", "exchange", "barrier_wait"] {
        assert!(
            spans.iter().any(|s| s.name == kind),
            "expected at least one {kind} span"
        );
    }
    // One sync point per cycle: each worker (the two share the chip-pair
    // aggregates, so they are neighbours) waits exactly once per cycle.
    for (tid, _) in tracks
        .iter()
        .filter(|(_, n)| n.starts_with("engine-worker-"))
    {
        for cycle in 0..4u64 {
            let waits = spans
                .iter()
                .filter(|s| s.tid == *tid && s.cycle == cycle && s.name == "barrier_wait");
            assert_eq!(waits.count(), 1, "tid {tid} cycle {cycle}: wait spans");
        }
    }
    // Tile-level tracing on a 2-chip run must attribute off-chip work.
    assert!(
        spans.iter().any(|s| s.name == "offchip_flush"),
        "2-chip tile-level trace must record off-chip flushes"
    );
    assert_tracks_monotone(&spans);

    // The per-track summaries agree with the serialized span count.
    let summaries = sim.trace_summaries();
    let summary_events: usize = summaries.iter().map(|s| s.events).sum();
    assert_eq!(summary_events, spans.len());
    assert!(summaries.iter().all(|s| s.dropped == 0), "nothing dropped");
}

/// Workers that share no buffer have nobody to wait for: their tracks
/// carry compute spans and not one `barrier_wait`.
#[test]
fn workers_without_neighbours_record_no_wait_spans() {
    let c = two_islands();
    let comp = compile(&c, &PartitionConfig::with_tiles(2)).expect("compiles");
    let mut sim = GangSimulator::with_trace(
        &c,
        &comp.partition,
        2,
        1,
        false,
        TransportChoice::InProcess,
        TraceConfig::tile(),
    );
    sim.run(4);
    let (tracks, spans) = parse_chrome(&sim.trace_json().expect("tracing is on"));
    assert_eq!(tracks.len(), 2, "one track per worker: {tracks:?}");
    for (tid, name) in &tracks {
        let mine = || spans.iter().filter(|s| s.tid == *tid);
        assert_eq!(
            mine().filter(|s| s.name == "compute").count(),
            4,
            "{name}: one tile, four cycles"
        );
        assert!(mine().all(|s| s.name != "barrier_wait"), "{name} waited");
    }
}

/// Phase-level tracing merges adjacent same-kind segments: the run
/// stays well-formed and monotone but emits strictly fewer spans than
/// the tile-level view of the same workload.
#[test]
fn phase_level_trace_is_coarser_and_still_monotone() {
    let c = random_circuit_io(41, 8, 40, 2);
    let comp = compile_two_chip(&c, MultiChipStrategy::Post);
    let mut counts = Vec::new();
    for cfg in [TraceConfig::tile(), TraceConfig::phase()] {
        let mut sim = GangSimulator::with_trace(
            &c,
            &comp.partition,
            2,
            1,
            false,
            TransportChoice::InProcess,
            cfg,
        );
        sim.poke("in0", 5);
        sim.poke("in1", 9);
        sim.run(4);
        let (_, spans) = parse_chrome(&sim.trace_json().expect("tracing on"));
        assert_tracks_monotone(&spans);
        // Phase-level spans are worker-scoped: no tile attribution.
        counts.push(spans.len());
    }
    assert!(
        counts[1] < counts[0],
        "phase-level must merge tile segments: tile {} vs phase {}",
        counts[0],
        counts[1]
    );
}

/// Tracing must never change what the engine computes: for every
/// strategy × lane count × thread count, a tile-level traced run lands
/// on bit-identical registers and outputs, in every lane, to the
/// untraced run.
#[test]
fn traced_runs_are_bit_identical_to_untraced() {
    let cycles = 30u64;
    for mc in [MultiChipStrategy::Pre, MultiChipStrategy::Post] {
        let c = random_circuit_io(67, 10, 50, 2);
        let comp = compile_two_chip(&c, mc);
        for (lanes, threads) in [1usize, 3].into_iter().flat_map(|l| [(l, 1usize), (l, 4)]) {
            let run = |trace: TraceConfig| {
                let mut g = GangSimulator::with_trace(
                    &c,
                    &comp.partition,
                    threads,
                    lanes,
                    false,
                    TransportChoice::InProcess,
                    trace,
                );
                for l in 0..lanes {
                    g.poke_lane("in0", l, 13 + l as u64);
                    g.poke_lane("in1", l, 0xfeed ^ l as u64);
                }
                g.run(cycles);
                let mut vals = Vec::new();
                for l in 0..lanes {
                    for i in 0..c.regs.len() {
                        vals.push(g.reg_value_lane(RegId(i as u32), l));
                    }
                    vals.extend(g.peek_outputs_lane(l));
                }
                vals
            };
            assert_eq!(
                run(TraceConfig::off()),
                run(TraceConfig::tile()),
                "{mc:?} {lanes} lanes {threads} threads: traced run diverged"
            );
        }
    }
}

/// Every transport backend registers its spans on the shared sink: a
/// traced TCP run grows per-writer-thread transport tracks next to the
/// worker tracks, and both backends stay monotone.
#[test]
fn traced_runs_cover_all_transports() {
    let c = random_circuit_io(19, 8, 40, 2);
    let comp = compile_two_chip(&c, MultiChipStrategy::Post);
    for backend in [TransportChoice::InProcess, TransportChoice::Tcp] {
        let mut sim = GangSimulator::with_trace(
            &c,
            &comp.partition,
            2,
            1,
            false,
            backend,
            TraceConfig::tile(),
        );
        sim.poke("in0", 1);
        sim.run(8);
        let name = sim.transport_name();
        let (tracks, spans) = parse_chrome(&sim.trace_json().expect("tracing on"));
        assert_tracks_monotone(&spans);
        assert!(
            spans.iter().any(|s| s.name == "compute"),
            "[{name}] worker spans present"
        );
        if backend == TransportChoice::Tcp {
            assert!(
                tracks.iter().any(|(_, n)| n.starts_with("transport-tcp-")),
                "[{name}] TCP writer threads must register trace tracks: {tracks:?}"
            );
        }
    }
}
