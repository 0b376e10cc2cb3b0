//! `serve_mixed`: the daemon's real traffic — a handful of designs, many
//! short scenario batches — against an embedded `parendi-serve`.
//!
//! The loop is **closed**: each client submits its next batch when the
//! previous `DONE` arrives, because callers of the daemon wait for their
//! replies. The daemon has `tmax` single-threaded gang permits and the
//! benchmark runs `tmax` clients, each blocked on its socket while its
//! batch runs, so no more than `tmax` threads are ever runnable.

use crate::ctx::{digest_bits, Ctx, Outcome};
use crate::gen::{self, Request, HORIZONS, SCENARIOS_PER_BATCH, SERVE_KEYS};
use crate::stats::{median, tail};
use parendi_core::{compile, PartitionConfig};
use parendi_designs::Benchmark;
use parendi_rtl::bits::Bits;
use parendi_rtl::Circuit;
use parendi_serve::{
    BatchResult, Client, LaneResult, Scenario, ScenarioBatch, ServeConfig, ServerHandle,
};
use parendi_sim::{GangSimulator, Precompiled, Simulator, StimulusSet};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Batches of the mixed phase at the reference length: p95 then leaves
/// 45 samples beyond it.
const MIXED_BATCHES: usize = 900;
/// Batches of the one-client phase.
const SOLO_BATCHES: usize = 225;
/// Rounds of the cold phase (each: `CLEAR`, then every key once).
const COLD_ROUNDS: usize = 5;
/// Warm batches replayed on a direct in-process engine.
const DIRECT_BATCHES: usize = 48;
/// Daemon start-ups timed for `setup_s`: a start-up is a fraction of a
/// millisecond, so it takes many for a steady median.
const SETUP_REPEATS: usize = 41;

struct Daemon {
    socket: PathBuf,
    handle: ServerHandle,
}

impl Daemon {
    /// Spawns the daemon on a socket inside the checkout (a relative
    /// path: socket paths are short-limited and the checkout may sit
    /// deep).
    fn start(ctx: &Ctx) -> Daemon {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = crate::out_dir();
        let socket = dir.join(format!(
            "serve-{}-{}.sock",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&socket);
        let handle = parendi_serve::spawn(ServeConfig {
            socket: socket.clone(),
            cache_cap: 8,
            workers: ctx.tmax,
            threads: 1,
        })
        .expect("embedded daemon binds its socket");
        Daemon { socket, handle }
    }

    fn client(&self) -> Client {
        Client::connect(&self.socket).expect("daemon accepts connections")
    }

    fn stop(self) {
        self.client()
            .shutdown()
            .expect("daemon acknowledges shutdown");
        self.handle.join();
    }
}

/// Outputs every scenario must return, precomputed on the interpreter.
/// Scenarios with the same design and events share one interpreter run,
/// which records the outputs at every length on the menu.
#[derive(Default)]
struct Oracle {
    circuits: HashMap<usize, Circuit>,
    outputs: HashMap<(usize, String), Vec<Vec<Bits>>>,
    seconds: f64,
}

fn events_key(sc: &Scenario) -> String {
    sc.events
        .iter()
        .map(|(c, i, v)| format!("{c} {i} {v:x};"))
        .collect()
}

impl Oracle {
    fn learn(&mut self, requests: &[Request]) {
        let t0 = Instant::now();
        for r in requests {
            let circuit = self.circuits.entry(r.key).or_insert_with(|| {
                Benchmark::parse(SERVE_KEYS[r.key].0)
                    .expect("catalogue design")
                    .build()
            });
            for sc in &r.batch.scenarios {
                self.outputs
                    .entry((r.key, events_key(sc)))
                    .or_insert_with(|| interpret(circuit, sc));
            }
        }
        self.seconds += t0.elapsed().as_secs_f64();
    }

    fn expected(&self, key: usize, sc: &Scenario) -> &[Bits] {
        let at = HORIZONS
            .iter()
            .position(|&h| h == sc.cycles)
            .expect("scenario length is on the menu");
        &self.outputs[&(key, events_key(sc))][at]
    }

    /// Whether `result` is what the interpreter says `request` returns.
    fn check(&self, request: &Request, result: &BatchResult, corrupt: bool) -> bool {
        let circuit = &self.circuits[&request.key];
        let batch = &request.batch;
        if result.lanes.len() != batch.scenarios.len()
            || result.vcd.is_some() != batch.vcd_lane.is_some()
            || result.summary.scenarios as usize != batch.scenarios.len()
        {
            return false;
        }
        batch.scenarios.iter().enumerate().all(|(lane, sc)| {
            let Some(got) = result.lane(lane as u32) else {
                return false;
            };
            let mut values: Vec<Bits> = got.outputs.iter().map(|(_, v)| v.clone()).collect();
            if corrupt && lane == 0 {
                if let Some(v) = values.first_mut() {
                    let flipped = !v.bit(0);
                    v.set_bit(0, flipped);
                }
            }
            got.outputs
                .iter()
                .map(|(n, _)| n)
                .eq(circuit.outputs.iter().map(|o| &o.name))
                && values == self.expected(request.key, sc)
        })
    }
}

fn interpret(circuit: &Circuit, sc: &Scenario) -> Vec<Vec<Bits>> {
    if circuit.outputs.is_empty() {
        return vec![Vec::new(); HORIZONS.len()];
    }
    let mut sim = Simulator::new(circuit);
    let mut at_horizon = Vec::with_capacity(HORIZONS.len());
    for cycle in 0..=*HORIZONS.last().expect("menu is not empty") {
        if HORIZONS.contains(&cycle) {
            at_horizon.push(
                circuit
                    .outputs
                    .iter()
                    .map(|o| sim.output(&o.name).expect("declared output"))
                    .collect(),
            );
        }
        for (_, input, value) in sc.events.iter().filter(|(c, _, _)| *c == cycle) {
            let id = sim.input_id(input).expect("declared input");
            sim.set_input(id, value);
        }
        sim.step();
    }
    at_horizon
}

/// One answered batch.
struct Sample {
    latency_s: f64,
    result: BatchResult,
}

/// Closed loop: `clients` clients share `requests` round-robin, each
/// submitting its next batch when the previous one is done. Returns the
/// wall time and one sample per request (in request order).
fn closed_loop(
    ctx: &Ctx,
    out: &mut Outcome,
    oracle: &Oracle,
    daemon: &Daemon,
    requests: &[Request],
    clients: usize,
) -> (f64, Vec<Sample>) {
    let corrupt_first = AtomicBool::new(ctx.inject_fault);
    let start = std::sync::Barrier::new(clients + 1);
    let (wall_s, per_client) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|ci| {
                let (start, corrupt_first) = (&start, &corrupt_first);
                scope.spawn(move || {
                    let mut client = daemon.client();
                    start.wait();
                    let mut done = Vec::new();
                    for (i, request) in requests.iter().enumerate().skip(ci).step_by(clients) {
                        let req = ctx.request();
                        let (result, latency_s) = ctx
                            .spans
                            .timed("serve.submit", req, || client.submit(&request.batch));
                        let checked = result.map(|result| {
                            // The oracle guard spoils the first response
                            // that carries outputs.
                            let corrupt = result.lanes.iter().any(|l| !l.outputs.is_empty())
                                && corrupt_first.swap(false, Ordering::Relaxed);
                            let ok = oracle.check(request, &result, corrupt);
                            (ok, Sample { latency_s, result })
                        });
                        done.push((i, checked));
                    }
                    done
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let done: Vec<_> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect();
        (t0.elapsed().as_secs_f64(), done)
    });
    let mut per_request = per_client;
    per_request.sort_by_key(|(i, _)| *i);
    let mut samples = Vec::new();
    for (i, checked) in per_request {
        let design = SERVE_KEYS[requests[i].key].0;
        match checked {
            Ok((ok, sample)) => {
                out.op(ok, || {
                    format!("batch {i} ({design}): response differs from interp")
                });
                samples.push(sample);
            }
            Err(e) => out.op(false, || format!("batch {i} ({design}): {e}")),
        }
    }
    (wall_s, samples)
}

fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.latency_s * 1e3).collect()
}

pub fn run_end_to_end(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: daemon up and answering. Tear-down is not part of it.
    let setups: Vec<f64> = (0..ctx.setup_repeats(SETUP_REPEATS))
        .map(|_| {
            let t0 = Instant::now();
            let daemon = Daemon::start(ctx);
            let mut clients: Vec<Client> = (0..ctx.tmax).map(|_| daemon.client()).collect();
            clients[0].stats().expect("daemon answers STATS");
            let setup_s = t0.elapsed().as_secs_f64();
            drop(clients);
            daemon.stop();
            setup_s
        })
        .collect();
    out.set("setup_s", median(&setups));

    let mixed = gen::serve_stream(ctx.seed, ctx.count(MIXED_BATCHES).max(20));
    let solo = gen::serve_stream(ctx.seed ^ 0x5010, ctx.count(SOLO_BATCHES).max(20));
    let mut oracle = Oracle::default();
    oracle.learn(&mixed);
    oracle.learn(&solo);
    out.set("harness.oracle_s", oracle.seconds);

    let daemon = Daemon::start(ctx);
    let scenarios = |n: usize| (n * SCENARIOS_PER_BATCH) as f64;

    daemon.client().clear_cache().expect("CLEAR");
    let (wall_s, samples) = closed_loop(ctx, &mut out, &oracle, &daemon, &solo, 1);
    out.set("work_per_s_t1", scenarios(samples.len()) / wall_s);
    // With clients running at once the daemon's peak depends on which
    // compiles happen to coincide: 44 to 58 MB for one seed and one
    // binary. The one-client phase allocates in a fixed order, so the
    // bounded figure is the peak up to here; the peak after the mixed
    // phase is in the ledger (`serve.peak_rss_mixed_mb`).
    out.set("peak_rss_mb", crate::host::peak_rss_mb());

    daemon.client().clear_cache().expect("CLEAR");
    let (wall_s, samples) = closed_loop(ctx, &mut out, &oracle, &daemon, &mixed, ctx.tmax);
    let ms = latencies_ms(&samples);
    out.set("work_per_s", scenarios(samples.len()) / wall_s);
    out.set("op_ms_p50", median(&ms));
    out.set("op_ms_tail", tail(&ms));
    let hits = samples
        .iter()
        .filter(|s| s.result.summary.cache_hit)
        .count();
    println!(
        "  mixed: {} batches in {wall_s:.2} s with {} clients, {:.0}% hits",
        samples.len(),
        ctx.tmax,
        100.0 * hits as f64 / samples.len().max(1) as f64
    );
    out.mix_digest(response_digest(&samples));
    daemon.stop();
    out
}

/// FNV-1a over every output word of every response, in request order.
/// (The daemon exposes outputs, not registers.)
fn response_digest(samples: &[Sample]) -> u64 {
    let lanes = samples.iter().flat_map(|s| &s.result.lanes);
    digest_bits(
        0,
        lanes.flat_map(|l| l.outputs.iter().map(|(_, v)| v.clone())),
    )
}

/// The batch on an in-process gang built from a cached artifact: the
/// engine work of a warm batch, without socket, protocol or permits.
fn run_direct(
    circuit: &Circuit,
    entry: &(parendi_core::Partition, Precompiled),
    batch: &ScenarioBatch,
) {
    let mut gang = GangSimulator::from_precompiled(circuit, &entry.0, &entry.1, 1);
    let mut stim = StimulusSet::new(SCENARIOS_PER_BATCH as u32);
    for (lane, sc) in batch.scenarios.iter().enumerate() {
        for (cycle, input, value) in &sc.events {
            stim.drive(*cycle, lane as u32, input, value.clone());
        }
    }
    let mut horizons: Vec<u64> = batch.scenarios.iter().map(|s| s.cycles).collect();
    horizons.sort_unstable();
    horizons.dedup();
    let mut now = 0;
    for h in horizons {
        gang.run_stimulus(h - now, &stim);
        now = h;
        for (lane, sc) in batch.scenarios.iter().enumerate() {
            if sc.cycles == h {
                std::hint::black_box(gang.peek_outputs_lane(lane));
                gang.finish_lane(lane);
            }
        }
    }
}

pub fn run_traced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mixed = gen::serve_stream(ctx.seed, ctx.count(MIXED_BATCHES / 2).max(20));
    let cold: Vec<Vec<Request>> = (0..ctx.count(COLD_ROUNDS))
        .map(|round| gen::cold_round(ctx.seed, round))
        .collect();
    let mut warm = gen::serve_stream(ctx.seed ^ 0xd12ec7, ctx.count(DIRECT_BATCHES).max(12));
    for r in &mut warm {
        r.batch.vcd_lane = None;
    }
    let mut oracle = Oracle::default();
    oracle.learn(&mixed);
    oracle.learn(&warm);
    cold.iter().for_each(|round| oracle.learn(round));
    out.set("harness.oracle_s", oracle.seconds);

    let daemon = Daemon::start(ctx);
    let mut control = daemon.client();
    let counter = |c: &mut Client, name: &str| c.stats().expect("STATS").get(name).unwrap_or(0);

    // Cold: every sample a miss.
    let mut cold_ms = Vec::new();
    for round in &cold {
        control.clear_cache().expect("CLEAR");
        let (_, samples) = closed_loop(ctx, &mut out, &oracle, &daemon, round, 1);
        let all_missed = samples.iter().all(|s| !s.result.summary.cache_hit);
        out.op(all_missed, || {
            "a batch hit the cache right after CLEAR".into()
        });
        cold_ms.extend(latencies_ms(&samples));
    }
    out.set("serve.cold_batch_ms_p50", median(&cold_ms));

    // Mixed, with the daemon's own accounting read from each summary and
    // a poller watching the permit queue.
    control.clear_cache().expect("CLEAR");
    let before: Vec<u64> = [
        "serve_cache_hits",
        "serve_cache_misses",
        "serve_cache_evictions",
    ]
    .map(|n| counter(&mut control, n))
    .to_vec();
    let stop = AtomicBool::new(false);
    let (samples, depth_max) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut client = daemon.client();
            let mut max = 0;
            while !stop.load(Ordering::Relaxed) {
                max = max.max(counter(&mut client, "serve_queue_depth"));
                std::thread::sleep(Duration::from_millis(2));
            }
            max
        });
        let (_, samples) = closed_loop(ctx, &mut out, &oracle, &daemon, &mixed, ctx.tmax);
        stop.store(true, Ordering::Relaxed);
        (samples, poller.join().expect("poller thread"))
    });
    let mut delta = |i: usize, name: &str| (counter(&mut control, name) - before[i]) as f64;
    let (hits, misses) = (delta(0, "serve_cache_hits"), delta(1, "serve_cache_misses"));
    out.set("serve.cache.hit_ratio", hits / (hits + misses).max(1.0));
    out.set("serve.cache.misses", misses);
    out.set("serve.cache.evictions", delta(2, "serve_cache_evictions"));
    out.set("serve.queue_depth_max", depth_max as f64);
    out.set("serve.peak_rss_mixed_mb", crate::host::peak_rss_mb());
    let missed: Vec<f64> = samples
        .iter()
        .filter(|s| !s.result.summary.cache_hit)
        .map(|s| s.result.summary.compile_s * 1e3)
        .collect();
    out.set("serve.compile_ms_p50", median(&missed));
    let run_ms: Vec<f64> = samples
        .iter()
        .map(|s| s.result.summary.run_s * 1e3)
        .collect();
    out.set("serve.run_ms_p50", median(&run_ms));
    // Latency the daemon adds around compile and run: permit queue,
    // protocol, cache bookkeeping, streaming.
    let overhead_ms: Vec<f64> = samples
        .iter()
        .map(|s| {
            let sum = &s.result.summary;
            let compile_s = if sum.cache_hit { 0.0 } else { sum.compile_s };
            (s.latency_s - sum.run_s - compile_s) * 1e3
        })
        .collect();
    out.set("serve.overhead_ms_p50", median(&overhead_ms));
    out.mix_digest(response_digest(&samples));

    // Warm batches through the daemon against the same batches on a
    // direct engine. Each batch is submitted twice; the second is a hit
    // whatever the first was.
    let mut client = daemon.client();
    let mut daemon_s = 0.0;
    for request in &warm {
        client.submit(&request.batch).expect("priming submit");
        let t0 = Instant::now();
        let result = client.submit(&request.batch);
        daemon_s += t0.elapsed().as_secs_f64();
        let ok = result.is_ok_and(|r| r.summary.cache_hit && oracle.check(request, &r, false));
        out.op(ok, || {
            "warm batch missed the cache or differs from interp".into()
        });
    }
    let mut artifacts = HashMap::new();
    for request in &warm {
        let (_, tiles) = SERVE_KEYS[request.key];
        let circuit = &oracle.circuits[&request.key];
        artifacts.entry(request.key).or_insert_with(|| {
            let comp = compile(circuit, &PartitionConfig::with_tiles(tiles)).expect("compiles");
            let packed = parendi_serve::server::auto_pack(circuit, SCENARIOS_PER_BATCH);
            let pre = Precompiled::build(circuit, &comp.partition, SCENARIOS_PER_BATCH, packed);
            (comp.partition, pre)
        });
    }
    let t0 = Instant::now();
    for request in &warm {
        let circuit = &oracle.circuits[&request.key];
        ctx.spans.span("serve.direct", ctx.request(), || {
            run_direct(circuit, &artifacts[&request.key], &request.batch)
        });
    }
    out.set("serve.direct_ratio", t0.elapsed().as_secs_f64() / daemon_s);

    // The codec on its own: one evented batch and one lane reply.
    let batch = &cold[0][7].batch;
    let lane = LaneResult {
        lane: 3,
        outputs: vec![("digest0".into(), Bits::from_u64(32, 0xdead_beef)); 3],
    };
    let (batch_text, lane_text) = (batch.to_text(), lane.to_text());
    const CODEC_REPS: u32 = 2_000;
    let (_, encode_s) = ctx.spans.timed("serve.proto.encode", ctx.request(), || {
        for _ in 0..CODEC_REPS {
            std::hint::black_box((batch.to_text(), lane.to_text()));
        }
    });
    let (_, decode_s) = ctx.spans.timed("serve.proto.decode", ctx.request(), || {
        for _ in 0..CODEC_REPS {
            let b = ScenarioBatch::from_text(std::hint::black_box(&batch_text));
            let l = LaneResult::from_text(std::hint::black_box(&lane_text));
            std::hint::black_box((b.is_ok(), l.is_ok()));
        }
    });
    out.set("serve.proto.encode_us", encode_s * 1e6 / CODEC_REPS as f64);
    out.set("serve.proto.decode_us", decode_s * 1e6 / CODEC_REPS as f64);

    drop((control, client));
    daemon.stop();
    out
}
