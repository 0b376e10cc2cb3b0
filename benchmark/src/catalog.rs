//! The names the benchmark speaks: five workloads, the end-to-end
//! metrics every workload reports, and the per-layer ledger. The same
//! tables are written out in `BENCHMARK.json` at the repository root; a
//! unit test keeps the two in step.

use crate::ctx::REFERENCE_SECONDS;
use crate::json::Json;

/// One workload and the reason it exists (one line, as in
/// `BENCHMARK.json`).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "single_compute",
        why: "sr7 on 64 tiles, one scenario: 94-97% of a cycle is bytecode dispatch, so a sync or exchange change must leave it alone",
    },
    Workload {
        name: "single_sync",
        why: "prng64 on 32 tiles and vta on 256: microseconds of compute per cycle, so the barrier and mailbox copies set the rate",
    },
    Workload {
        name: "gang_lanes",
        why: "64 scenario lanes with per-lane stimulus on three designs: lane sweeps, SIMD kernels and packed opcodes do the work",
    },
    Workload {
        name: "compile_large",
        why: "five large partitions from source to first cycle: graph, hypergraph, core and the lowering work, the hot loop does not",
    },
    Workload {
        name: "serve_mixed",
        why: "closed-loop clients send Zipf batches over 12 designs to a daemon caching 8: hits, misses, evictions and permit queueing",
    },
];

/// An end-to-end metric: what a user of the system sees. Every workload
/// reports every one of them, in its own unit of work (see README).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.12,
    },
    EndToEnd {
        name: "work_per_s_t1",
        unit: "1/s",
        better: "higher",
        bound: 0.12,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.12,
    },
    EndToEnd {
        name: "op_ms_tail",
        unit: "ms",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
];

/// A per-layer metric. `exact` counts are properties of the simulated
/// design or of its mapping, not of the host: they must repeat
/// bit-for-bit between two runs of the same code, and `--repeat` fails
/// when they do not.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
        exact: true,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // rtl
    time("rtl.build_s", "s"),
    exact("rtl.nodes", "count"),
    // graph
    time("graph.cost_s", "s"),
    time("graph.fibers_s", "s"),
    time("graph.adjacency_s", "s"),
    exact("graph.fibers", "count"),
    exact("graph.duplication_factor", "ratio"),
    // hypergraph
    time("hypergraph.partition_s", "s"),
    exact("hypergraph.cut", "count"),
    // core
    time("core.compile_s", "s"),
    time("core.compile_s.sr15-1472", "s"),
    time("core.compile_s.lr10-1472", "s"),
    time("core.compile_s.sr10-256x4", "s"),
    time("core.compile_s.bitcoin-512", "s"),
    time("core.compile_s.vta-512", "s"),
    time("core.routing_s", "s"),
    time("core.partition_residual_s", "s"),
    time("core.key_s", "s"),
    exact("core.tiles_used", "count"),
    exact("core.straggler_cost", "count"),
    exact("core.mean_cost", "count"),
    exact("core.sent_bytes_per_cycle", "B"),
    // sim::engine (lowering)
    time("sim.lower_s", "s"),
    time("sim.instantiate_s", "s"),
    exact("sim.static_ops", "count"),
    // sim::exec compute
    rate("sim.compute_share", "ratio"),
    time("sim.ns_per_op", "ns"),
    time("sim.straggler_ratio", "ratio"),
    exact("sim.ops_strided", "count"),
    exact("sim.ops_packed", "count"),
    // sim exchange + barrier
    time("sim.exchange_share", "ratio"),
    time("sim.exchange_share_t1", "ratio"),
    time("sim.exchange_share.sr7-64", "ratio"),
    time("sim.exchange_share.prng64-32", "ratio"),
    time("sim.exchange_share.vta-256", "ratio"),
    time("sim.exchange_share.sprng32-16", "ratio"),
    time("sim.exchange_share.sr4-16", "ratio"),
    time("sim.exchange_share.ca1024-32-packed", "ratio"),
    time("sim.exchange_us_per_cycle", "us"),
    time("sim.barrier_park_per_kcycle", "1/kcyc"),
    rate("sim.barrier_spin_per_kcycle", "1/kcyc"),
    rate("sim.thread_scaling", "ratio"),
    rate("sim.thread_scaling.sr7-64", "ratio"),
    rate("sim.thread_scaling.prng64-32", "ratio"),
    rate("sim.thread_scaling.vta-256", "ratio"),
    rate("sim.thread_scaling.sprng32-16", "ratio"),
    rate("sim.thread_scaling.sr4-16", "ratio"),
    rate("sim.thread_scaling.ca1024-32-packed", "ratio"),
    time("sim.offchip_share", "ratio"),
    time("sim.residual_share", "ratio"),
    // sim::gang / simd
    rate("sim.gang.lane_cycles_per_s.sprng32-16", "1/s"),
    rate("sim.gang.lane_cycles_per_s.sr4-16", "1/s"),
    rate("sim.gang.lane_cycles_per_s.ca1024-32-packed", "1/s"),
    rate("sim.gang.lanes4_lane_cycles_per_s", "1/s"),
    rate("sim.gang.lane_speedup", "ratio"),
    rate("sim.gang.packed_speedup", "ratio"),
    time("sim.gang.readback_s", "s"),
    exact("sim.simd_kernel_dispatches", "count"),
    // sim::transport
    rate("sim.transport.inproc.cycles_per_s", "1/s"),
    rate("sim.transport.tcp.cycles_per_s", "1/s"),
    time("sim.transport.offchip_share", "ratio"),
    exact("sim.transport.offchip_bytes_per_cycle", "B"),
    exact("sim.transport.frames_sent", "count"),
    // sim::interp
    rate("sim.interp.cycles_per_s.sr7-64", "1/s"),
    rate("sim.interp.cycles_per_s.prng64-32", "1/s"),
    rate("sim.interp.cycles_per_s.vta-256", "1/s"),
    rate("sim.interp.cycles_per_s.sprng32-16", "1/s"),
    rate("sim.interp.cycles_per_s.sr4-16", "1/s"),
    rate("sim.interp.cycles_per_s.ca1024-32-packed", "1/s"),
    // sim::checkpoint
    time("sim.checkpoint.snapshot_s", "s"),
    time("sim.checkpoint.restore_s", "s"),
    exact("sim.checkpoint.bytes", "B"),
    // telemetry
    time("telemetry.trace_overhead_pct", "%"),
    time("telemetry.events_dropped", "count"),
    // serve::cache
    rate("serve.cache.hit_ratio", "ratio"),
    time("serve.cache.evictions", "count"),
    time("serve.cache.misses", "count"),
    // serve::server
    time("serve.compile_ms_p50", "ms"),
    time("serve.run_ms_p50", "ms"),
    time("serve.overhead_ms_p50", "ms"),
    time("serve.queue_depth_max", "count"),
    rate("serve.direct_ratio", "ratio"),
    time("serve.cold_batch_ms_p50", "ms"),
    time("serve.peak_rss_mixed_mb", "MB"),
    // serve::proto
    time("serve.proto.encode_us", "us"),
    time("serve.proto.decode_us", "us"),
    // harness
    time("harness.oracle_s", "s"),
    time("harness.wall_s", "s"),
    rate("harness.tmax", "count"),
    rate("harness.nproc", "count"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(REFERENCE_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_the_allowed_alphabet() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "workload {:?}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; these tables
    /// are what the harness prints. They must say the same thing.
    #[test]
    fn benchmark_json_is_the_manifest_of_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(doc, manifest(), "regenerate it with --emit-manifest");
    }
}
