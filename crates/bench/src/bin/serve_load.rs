//! Load generator for the `parendi-serve` daemon: N concurrent clients
//! hammering scenario batches, measuring cold (compile-bound) versus
//! warm (cache-hit) scenario throughput.
//!
//! ```text
//! serve_load [--quick] [--clients N]
//! ```
//!
//! Connects to `PARENDI_SERVE_SOCKET`; when no daemon answers, an
//! embedded one is spawned on a private socket (and shut down at the
//! end), so local runs and baseline capture need no setup. The run:
//!
//! 1. `CLEAR` the compile cache, then a serial **cold pass** — every
//!    design submitted once, each paying its compile;
//! 2. a concurrent **warm pass** — `--clients` clients (default 4)
//!    each resubmitting every design several times, all cache hits;
//! 3. a **bit-equivalence check** — one evented batch's outputs
//!    compared against a direct in-process `GangSimulator` run;
//! 4. `BENCH_serve_load.json` with a `serve-cold` and a `serve-warm`
//!    row (aggregate scenario-cycles/s; the daemon's final metrics —
//!    cache hits/misses, queue depth, scenario totals — embedded in
//!    the warm row).
//!
//! Exits nonzero — loudly — if the cache-hit ratio is zero, if the
//! warm pass is not at least 5x the cold pass in scenarios/s, or if
//! the equivalence check fails: this binary IS the CI gate for the
//! serve leg.

use parendi_bench::{parse_quick_flag, quick, write_bench_json, BenchRecord};
use parendi_core::{compile, PartitionConfig};
use parendi_designs::Benchmark;
use parendi_rtl::bits::Bits;
use parendi_serve::{Client, PackedChoice, ScenarioBatch, ServeConfig};
use parendi_sim::{GangSimulator, StimulusSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The mixed workload: (design, tiles, cycles per scenario). Chosen
/// compile-heavy and run-light — wide meshes at high tile counts with
/// short scenarios — so the cold pass is dominated by exactly the cost
/// the cache elides; tiny designs would measure engine setup, not the
/// cache.
fn workload() -> Vec<(&'static str, u32, u64)> {
    if quick() {
        vec![("sr7", 64, 8), ("sr6", 64, 8)]
    } else {
        vec![
            ("sr7", 64, 12),
            ("sr6", 64, 12),
            ("sr5", 64, 12),
            ("lr3", 32, 12),
        ]
    }
}

/// Scenarios per batch (bucketing to exactly one gang shape per
/// design).
const SCENARIOS_PER_BATCH: usize = 4;

fn batch_for(design: &str, tiles: u32, cycles: u64) -> ScenarioBatch {
    let mut b = ScenarioBatch::new(design, tiles);
    // Fixed layout choice so the key is stable against env heuristics
    // between the cold and warm passes of one run.
    b.packed = PackedChoice::Off;
    for _ in 0..SCENARIOS_PER_BATCH {
        b.scenario(cycles);
    }
    b
}

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

fn main() -> ExitCode {
    parse_quick_flag();
    let clients: usize = arg_value("--clients")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let work = workload();
    let warm_reps = if quick() { 6 } else { 20 };

    // Reach a daemon: the configured socket, or an embedded fallback.
    let cfg = ServeConfig::from_env();
    let (socket, embedded): (PathBuf, Option<parendi_serve::ServerHandle>) =
        match Client::connect(&cfg.socket) {
            Ok(_) => {
                println!("[serve_load] using daemon at {}", cfg.socket.display());
                (cfg.socket.clone(), None)
            }
            Err(_) => {
                let path = std::env::temp_dir()
                    .join(format!("parendi-serve-load-{}.sock", std::process::id()));
                let _ = std::fs::remove_file(&path);
                // Give the embedded daemon one worker per client so the
                // warm pass measures the cache, not a permit queue.
                let mut scfg = ServeConfig::with_socket(&path);
                scfg.workers = scfg.workers.max(clients);
                let handle = match parendi_serve::spawn(scfg) {
                    Ok(h) => h,
                    Err(e) => {
                        eprintln!("[serve_load] FAIL: cannot spawn embedded daemon: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                println!(
                    "[serve_load] no daemon at {}; embedded daemon on {}",
                    cfg.socket.display(),
                    path.display()
                );
                (path, Some(handle))
            }
        };

    let run = run_load(&socket, clients, &work, warm_reps);
    if let Some(handle) = embedded {
        match Client::connect(&socket).and_then(Client::shutdown) {
            Ok(()) => handle.join(),
            Err(e) => eprintln!("[serve_load] embedded daemon shutdown failed: {e}"),
        }
    }
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[serve_load] FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_load(
    socket: &PathBuf,
    clients: usize,
    work: &[(&'static str, u32, u64)],
    warm_reps: usize,
) -> Result<(), String> {
    let connect = || Client::connect(socket).map_err(|e| format!("connect: {e}"));

    // ---- Cold pass: deterministic compiles, one per design. --------
    let mut c = connect()?;
    c.clear_cache().map_err(|e| format!("clear: {e}"))?;
    let t0 = Instant::now();
    let mut cold_scen = 0u64;
    let mut cold_scen_cycles = 0u64;
    for &(design, tiles, cycles) in work {
        let r = c
            .submit(&batch_for(design, tiles, cycles))
            .map_err(|e| format!("cold submit {design}: {e}"))?;
        if r.summary.cache_hit {
            return Err(format!("cold pass hit the cache for {design} after CLEAR"));
        }
        cold_scen += r.summary.scenarios as u64;
        cold_scen_cycles += r.summary.scenarios as u64 * cycles;
        println!(
            "[serve_load] cold {design}: compile {:.3}s, run {:.3}s",
            r.summary.compile_s, r.summary.run_s
        );
    }
    let cold_s = t0.elapsed().as_secs_f64();
    let cold_rate = cold_scen as f64 / cold_s;

    // ---- Warm pass: N concurrent clients, all hits. ----------------
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|ci| {
            let socket = socket.clone();
            let work: Vec<_> = work.to_vec();
            std::thread::spawn(move || -> Result<(u64, u64), String> {
                let mut c =
                    Client::connect(&socket).map_err(|e| format!("client {ci} connect: {e}"))?;
                let mut scen = 0u64;
                let mut scen_cycles = 0u64;
                for _ in 0..warm_reps {
                    for &(design, tiles, cycles) in &work {
                        let r = c
                            .submit(&batch_for(design, tiles, cycles))
                            .map_err(|e| format!("client {ci} submit {design}: {e}"))?;
                        scen += r.summary.scenarios as u64;
                        scen_cycles += r.summary.scenarios as u64 * cycles;
                    }
                }
                Ok((scen, scen_cycles))
            })
        })
        .collect();
    let mut warm_scen = 0u64;
    let mut warm_scen_cycles = 0u64;
    for h in handles {
        let (s, sc) = h.join().map_err(|_| "warm client panicked".to_string())??;
        warm_scen += s;
        warm_scen_cycles += sc;
    }
    let warm_s = t0.elapsed().as_secs_f64();
    let warm_rate = warm_scen as f64 / warm_s;

    // ---- Daemon stats & the gates. ---------------------------------
    let stats = c.stats().map_err(|e| format!("stats: {e}"))?;
    let hits = stats.get("serve_cache_hits").unwrap_or(0);
    let misses = stats.get("serve_cache_misses").unwrap_or(0);
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "[serve_load] cold: {cold_scen} scenarios in {cold_s:.3}s ({cold_rate:.1}/s)  \
         warm: {warm_scen} scenarios x{clients} clients in {warm_s:.3}s ({warm_rate:.1}/s)  \
         speedup {:.1}x  cache {hits} hits / {misses} misses ({:.0}% hit)",
        warm_rate / cold_rate,
        hit_ratio * 100.0
    );

    // ---- Bit-equivalence: daemon vs direct engine. -----------------
    verify_equivalence(&mut c)?;

    // ---- Records. ---------------------------------------------------
    let mk = |engine: &str, scen_cycles: u64, scen: u64, secs: f64, cycles: u64| BenchRecord {
        bin: "serve_load".into(),
        design: "mix".into(),
        engine: engine.into(),
        packed: false,
        simd: String::new(),
        chips: 1,
        tiles: 0,
        lanes: SCENARIOS_PER_BATCH as u32,
        threads: clients as u32,
        cores: parendi_bench::host_cores(),
        cycles,
        cycles_per_s: scen as f64 / secs,
        lane_cycles_per_s: scen_cycles as f64 / secs,
        compute_s: 0.0,
        offchip_s: 0.0,
        exchange_s: 0.0,
        overlap_s: 0.0,
        total_s: secs,
        metrics: Default::default(),
    };
    let cold_rec = mk("serve-cold", cold_scen_cycles, cold_scen, cold_s, cold_scen);
    let mut warm_rec = mk("serve-warm", warm_scen_cycles, warm_scen, warm_s, warm_scen);
    warm_rec.metrics = stats.clone();
    match write_bench_json("serve_load", &[cold_rec, warm_rec]) {
        Ok(path) => println!("[serve_load] wrote {}", path.display()),
        Err(e) => return Err(format!("could not write bench json: {e}")),
    }

    if hits == 0 {
        return Err("cache hit ratio is zero: the warm pass never hit the compile cache".into());
    }
    if warm_rate < 5.0 * cold_rate {
        return Err(format!(
            "warm scenarios/s ({warm_rate:.1}) is below 5x cold ({cold_rate:.1})"
        ));
    }
    Ok(())
}

/// Submits one evented batch and replays it on a direct in-process
/// engine: every output of every lane must match bit for bit.
fn verify_equivalence(c: &mut Client) -> Result<(), String> {
    let cycles = 30u64;
    let mut batch = ScenarioBatch::new("ca64", 4);
    batch.packed = PackedChoice::Off;
    let l0 = batch.scenario(cycles);
    let l1 = batch.scenario(cycles);
    batch.drive(l0, 0, "inj", Bits::from_u64(1, 1));
    batch.drive(l0, 1, "inj", Bits::from_u64(1, 0));
    batch.drive(l1, 7, "inj", Bits::from_u64(1, 1));
    batch.drive(l1, 8, "inj", Bits::from_u64(1, 0));
    let got = c
        .submit(&batch)
        .map_err(|e| format!("equivalence submit: {e}"))?;

    let circuit = Benchmark::parse("ca64").expect("ca64").build();
    let comp = compile(&circuit, &PartitionConfig::with_tiles(4))
        .map_err(|e| format!("direct compile: {e}"))?;
    let mut sim = GangSimulator::new(&circuit, &comp.partition, 2, 2);
    let mut stim = StimulusSet::new(2);
    stim.drive(0, 0, "inj", Bits::from_u64(1, 1));
    stim.drive(1, 0, "inj", Bits::from_u64(1, 0));
    stim.drive(7, 1, "inj", Bits::from_u64(1, 1));
    stim.drive(8, 1, "inj", Bits::from_u64(1, 0));
    sim.run_stimulus(cycles, &stim);
    for lane in 0..2usize {
        let want = sim.peek_outputs_lane(lane);
        let lr = got
            .lane(lane as u32)
            .ok_or_else(|| format!("daemon dropped lane {lane}"))?;
        for ((name, got), want) in lr.outputs.iter().zip(&want) {
            if got != want {
                return Err(format!(
                    "lane {lane} output {name}: daemon {got:?} != direct {want:?}"
                ));
            }
        }
    }
    println!("[serve_load] equivalence: daemon matches direct engine bit for bit");
    Ok(())
}
