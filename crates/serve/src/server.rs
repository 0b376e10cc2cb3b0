//! The gang daemon: a Unix-socket server packing scenario batches into
//! cached-compile gang runs.
//!
//! One accept loop, one thread per connection, one global
//! [`CompileCache`], and a fixed pool of **gang permits**
//! (`PARENDI_SERVE_WORKERS`) bounding how many engines run
//! simultaneously — each engine already owns `PARENDI_SERVE_THREADS`
//! worker threads, so the permit pool is what keeps a burst of clients
//! from oversubscribing the host. Batches queue on the permit condvar;
//! the `serve_queue_depth` gauge reports how many are parked there.
//!
//! # Lane packing
//!
//! A batch of `S` scenarios compiles for `S.next_power_of_two()` lanes
//! — bucketing batch sizes so nearby sizes share one cache entry — and
//! the surplus lanes are retired before the first cycle. Scenarios
//! take gang lanes by **descending horizon** (the longest-running one
//! gets lane 0, ties in scenario order; surplus lanes sit above them
//! all), because the engine computes the dense lane range up to its
//! highest live lane: a lane retired at the top costs nothing from
//! then on, one retired *below* a live lane would keep being
//! recomputed as scratch. Gang lanes never leave the daemon — results,
//! events and the VCD all name the client's scenario index. `packed
//! auto` resolves to the bit-packed
//! layout when the design is 1-bit-dominated (≥ 3/4 of registers +
//! inputs are 1-bit) and the gang is at least 2 wide; the resolved
//! flag is part of the compile key, so `auto` and an explicit
//! equivalent share an entry.
//!
//! # Shutdown
//!
//! `SHUTDOWN` answers `DONE`, raises the stop flag, and self-connects
//! to unblock the accept loop; the socket file is removed on the way
//! out. In-flight batches on other connections finish — the flag only
//! stops *accepting*.

use crate::cache::{CacheEntry, CompileCache};
use crate::proto::{
    kind, read_frame, write_frame, BatchSummary, LaneResult, PackedChoice, ProtoError,
    ScenarioBatch,
};
use parendi_core::{compile, CompileKey, PartitionConfig};
use parendi_designs::Benchmark;
use parendi_rtl::Circuit;
use parendi_sim::{GangSimulator, Precompiled, StimulusSet, VcdWriter};
use parendi_telemetry::{env_knob, Counter, MetricsRegistry};
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

/// Daemon knobs, one env var each (see `docs/ENVVARS.md`).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Unix socket path (`PARENDI_SERVE_SOCKET`).
    pub socket: PathBuf,
    /// Max cached compiles (`PARENDI_SERVE_CACHE_CAP`).
    pub cache_cap: usize,
    /// Simultaneous gang runs (`PARENDI_SERVE_WORKERS`).
    pub workers: usize,
    /// Engine threads per gang (`PARENDI_SERVE_THREADS`).
    pub threads: usize,
}

impl ServeConfig {
    /// Reads every knob from the environment, with defaults sized for
    /// a CI runner: socket `/tmp/parendi-serve.sock`, 8 cache entries,
    /// 2 simultaneous gangs × 2 engine threads. The three counts must
    /// be integers ≥ 1; anything else is the default, said once on
    /// stderr.
    pub fn from_env() -> Self {
        fn num(var: &'static str, default: usize) -> usize {
            let default = NonZeroUsize::new(default).expect("defaults are positive");
            env_knob(var, default).get()
        }
        ServeConfig {
            socket: std::env::var_os("PARENDI_SERVE_SOCKET")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("/tmp/parendi-serve.sock")),
            cache_cap: num("PARENDI_SERVE_CACHE_CAP", 8),
            workers: num("PARENDI_SERVE_WORKERS", 2),
            threads: num("PARENDI_SERVE_THREADS", 2),
        }
    }

    /// `from_env` with the socket overridden — the test/embedded idiom
    /// (each test gets a private socket; knobs still honor the env).
    pub fn with_socket(socket: impl Into<PathBuf>) -> Self {
        ServeConfig {
            socket: socket.into(),
            ..Self::from_env()
        }
    }
}

/// The permit pool bounding simultaneous gang runs.
struct Pool {
    avail: Mutex<usize>,
    cv: Condvar,
}

impl Pool {
    fn new(permits: usize) -> Self {
        Pool {
            avail: Mutex::new(permits),
            cv: Condvar::new(),
        }
    }

    /// Blocks until a permit frees up, gauging the wait on `depth`.
    fn acquire(&self, depth: &Counter) -> Permit<'_> {
        depth.add(1);
        let mut n = self.avail.lock().expect("permit pool");
        while *n == 0 {
            n = self.cv.wait(n).expect("permit pool");
        }
        *n -= 1;
        depth.sub(1);
        Permit { pool: self }
    }
}

/// RAII gang permit.
struct Permit<'p> {
    pool: &'p Pool,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.pool.avail.lock().expect("permit pool") += 1;
        self.pool.cv.notify_one();
    }
}

/// A request shape, memoizing its content-hash digest: the compile key
/// is a hash over the *built circuit*, but `Benchmark::build` is pure,
/// so identical (design, tiles, lanes, packed-choice) requests always
/// hash to the same digest — the warm path skips the build-and-walk.
type MemoKey = (String, u32, u32, u8);

/// Hard bound on memoized request shapes; past it the memo is dropped
/// wholesale (it is only a shortcut — every digest recomputes from the
/// request).
const KEY_MEMO_CAP: usize = 256;

/// Shared daemon state: one per `run`/`spawn`.
struct ServerState {
    cfg: ServeConfig,
    cache: CompileCache,
    metrics: MetricsRegistry,
    pool: Pool,
    stop: AtomicBool,
    queue_depth: Counter,
    batches: Counter,
    scenarios: Counter,
    /// Request shape → (digest, resolved packed flag).
    key_memo: Mutex<HashMap<MemoKey, (u64, bool)>>,
}

impl ServerState {
    fn new(cfg: ServeConfig) -> Self {
        let metrics = MetricsRegistry::new();
        let cache = CompileCache::new(cfg.cache_cap, &metrics);
        let pool = Pool::new(cfg.workers);
        let queue_depth = metrics.counter("serve_queue_depth");
        let batches = metrics.counter("serve_batches");
        let scenarios = metrics.counter("serve_scenarios");
        ServerState {
            cfg,
            cache,
            metrics,
            pool,
            stop: AtomicBool::new(false),
            queue_depth,
            batches,
            scenarios,
            key_memo: Mutex::new(HashMap::new()),
        }
    }
}

/// A spawned (background-thread) daemon: the embedded idiom tests and
/// the load generator use. Join after a client sent `SHUTDOWN`.
pub struct ServerHandle {
    socket: PathBuf,
    thread: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Waits for the accept loop to exit (send `SHUTDOWN` first, or
    /// this blocks forever).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Binds the socket and serves **in the background**; returns once the
/// socket accepts connections. The daemon stops when a client sends
/// `SHUTDOWN`.
pub fn spawn(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = bind(&cfg.socket)?;
    let socket = cfg.socket.clone();
    let thread = thread::spawn(move || serve_loop(listener, cfg));
    Ok(ServerHandle { socket, thread })
}

/// Binds the socket and serves **on the calling thread** until a
/// client sends `SHUTDOWN` — the daemon binary's main loop.
pub fn run(cfg: ServeConfig) -> std::io::Result<()> {
    let listener = bind(&cfg.socket)?;
    serve_loop(listener, cfg);
    Ok(())
}

/// Binds the Unix socket, reclaiming a stale file from a dead daemon
/// but refusing to displace a live one.
fn bind(path: &Path) -> std::io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!("a daemon is already serving {}", path.display()),
                ));
            }
            // Nobody answers: a stale socket file from an unclean exit.
            std::fs::remove_file(path)?;
            UnixListener::bind(path)
        }
        Err(e) => Err(e),
    }
}

fn serve_loop(listener: UnixListener, cfg: ServeConfig) {
    let socket = cfg.socket.clone();
    let srv = Arc::new(ServerState::new(cfg));
    for conn in listener.incoming() {
        if srv.stop.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                let srv = srv.clone();
                thread::spawn(move || handle_conn(&srv, stream));
            }
            Err(e) => {
                eprintln!("[serve] accept failed: {e}");
                break;
            }
        }
    }
    let _ = std::fs::remove_file(&socket);
}

/// One connection: a loop of request frames until the peer hangs up
/// or asks for shutdown. Every submit failure answers `ERR` and keeps
/// the connection — a bad batch must not cost the client its stream.
fn handle_conn(srv: &ServerState, stream: UnixStream) {
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[serve] clone stream failed: {e}");
            return;
        }
    };
    let mut writer = stream;
    loop {
        match read_frame(&mut reader) {
            Ok((kind::SUBMIT, payload)) => {
                let outcome = handle_submit(srv, &payload, &mut writer);
                match outcome {
                    Ok(summary) => {
                        if write_frame(&mut writer, kind::DONE, summary.to_text().as_bytes())
                            .is_err()
                        {
                            return;
                        }
                    }
                    Err(ProtoError::Remote(msg)) => {
                        if write_frame(&mut writer, kind::ERR, msg.as_bytes()).is_err() {
                            return;
                        }
                    }
                    // The stream itself failed mid-response; nothing
                    // left to say to this peer.
                    Err(_) => return,
                }
            }
            Ok((kind::STATS, _)) => {
                let json = srv.metrics.snapshot().to_json();
                if write_frame(&mut writer, kind::STATS_REPLY, json.as_bytes()).is_err() {
                    return;
                }
            }
            Ok((kind::CLEAR, _)) => {
                srv.cache.clear();
                if write_frame(&mut writer, kind::DONE, b"cleared\n").is_err() {
                    return;
                }
            }
            Ok((kind::SHUTDOWN, _)) => {
                let _ = write_frame(&mut writer, kind::DONE, b"stopping\n");
                srv.stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop so it observes the flag.
                let _ = UnixStream::connect(&srv.cfg.socket);
                return;
            }
            Ok((k, _)) => {
                let msg = format!("unknown request kind {k}");
                if write_frame(&mut writer, kind::ERR, msg.as_bytes()).is_err() {
                    return;
                }
            }
            Err(ProtoError::Closed) => return,
            Err(e) => {
                let _ = write_frame(&mut writer, kind::ERR, e.to_string().as_bytes());
                return;
            }
        }
    }
}

/// Rounds a scenario count up to its gang-lane bucket (the next power
/// of two), so nearby batch sizes share one compile key.
pub fn lane_bucket(scenarios: usize) -> usize {
    scenarios.next_power_of_two()
}

/// The `packed auto` policy: bit-pack when the design is
/// 1-bit-dominated (≥ 3/4 of registers + inputs are 1-bit) and the
/// gang is wide enough for packing to pay (≥ 2 lanes).
pub fn auto_pack(circuit: &Circuit, lanes: usize) -> bool {
    let total = circuit.regs.len() + circuit.inputs.len();
    if lanes < 2 || total == 0 {
        return false;
    }
    let one_bit = circuit.regs.iter().filter(|r| r.width == 1).count()
        + circuit.inputs.iter().filter(|i| i.width == 1).count();
    one_bit * 4 >= total * 3
}

/// Runs one batch end to end: resolve → cache → permit → gang →
/// stream. Returns the `DONE` summary; `ProtoError::Remote` carries a
/// client-visible failure, other variants mean the stream died.
fn handle_submit(
    srv: &ServerState,
    payload: &[u8],
    out: &mut UnixStream,
) -> Result<BatchSummary, ProtoError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ProtoError::Remote("submit payload is not UTF-8".into()))?;
    let batch = ScenarioBatch::from_text(text).map_err(ProtoError::Remote)?;
    let bench = Benchmark::parse(&batch.design)
        .ok_or_else(|| ProtoError::Remote(format!("unknown design {:?}", batch.design)))?;

    let scenarios = batch.scenarios.len();
    let lanes = lane_bucket(scenarios);
    let cfg = PartitionConfig::with_tiles(batch.tiles);

    // The compile key is a content hash over the built circuit, but
    // building a large mesh just to rediscover a digest the daemon
    // already knows would tax every warm submit — identical request
    // shapes always hash identically (`Benchmark::build` is pure), so
    // the digest is memoized per shape.
    let memo_key: MemoKey = (
        batch.design.clone(),
        batch.tiles,
        lanes as u32,
        match batch.packed {
            PackedChoice::Auto => 0,
            PackedChoice::On => 1,
            PackedChoice::Off => 2,
        },
    );
    let memoized = srv
        .key_memo
        .lock()
        .expect("key memo")
        .get(&memo_key)
        .copied();
    let (digest, packed) = match memoized {
        Some(hit) => hit,
        None => {
            let circuit = bench.build();
            let packed = match batch.packed {
                PackedChoice::On => true,
                PackedChoice::Off => false,
                PackedChoice::Auto => auto_pack(&circuit, lanes),
            };
            let digest = CompileKey::new(&circuit, &cfg, lanes as u32, packed).digest();
            let mut memo = srv.key_memo.lock().expect("key memo");
            if memo.len() >= KEY_MEMO_CAP {
                memo.clear();
            }
            memo.insert(memo_key, (digest, packed));
            (digest, packed)
        }
    };

    let (entry, cache_hit) = srv.cache.get_or_build(digest, move || {
        let circuit = bench.build();
        let t0 = Instant::now();
        let comp = compile(&circuit, &cfg).map_err(|e| e.to_string())?;
        let pre = Precompiled::build(&circuit, &comp.partition, lanes, packed);
        Ok(CacheEntry {
            key: CompileKey::new(&circuit, &cfg, lanes as u32, packed),
            circuit,
            partition: comp.partition,
            pre,
            compile_s: t0.elapsed().as_secs_f64(),
        })
    })?;

    // Reject bad event targets before touching the engine: an unknown
    // input or a width mismatch would otherwise panic it. Validated
    // against the cached entry's circuit — the compile is keyed on the
    // design alone, so it stays reusable even when the events are bad.
    for (si, sc) in batch.scenarios.iter().enumerate() {
        for (_, input, value) in &sc.events {
            let decl = entry
                .circuit
                .inputs
                .iter()
                .find(|d| &d.name == input)
                .ok_or_else(|| {
                    ProtoError::Remote(format!("scenario {si}: unknown input {input:?}"))
                })?;
            if decl.width != value.width() {
                return Err(ProtoError::Remote(format!(
                    "scenario {si}: input {input:?} is {} bits, event drives {}",
                    decl.width,
                    value.width()
                )));
            }
        }
    }

    srv.batches.inc();
    let _permit = srv.pool.acquire(&srv.queue_depth);
    let t0 = Instant::now();
    let mut sim = GangSimulator::from_precompiled(
        &entry.circuit,
        &entry.partition,
        &entry.pre,
        srv.cfg.threads,
    );
    // Surplus bucket lanes never carried a scenario: retire them now
    // so every dispatch sweeps only real work.
    for l in scenarios..lanes {
        sim.finish_lane(l);
    }
    // Scenario → gang lane, longest horizon first (the sort is stable:
    // ties keep scenario order), so lanes retire from the top down and
    // the engine's compute range shrinks with every horizon reached.
    let mut by_horizon: Vec<usize> = (0..scenarios).collect();
    by_horizon.sort_by_key(|&si| std::cmp::Reverse(batch.scenarios[si].cycles));
    let mut lane_of = vec![0usize; scenarios];
    for (lane, &si) in by_horizon.iter().enumerate() {
        lane_of[si] = lane;
    }

    let mut stim = StimulusSet::new(lanes as u32);
    for (si, sc) in batch.scenarios.iter().enumerate() {
        for (cycle, input, value) in &sc.events {
            stim.drive(*cycle, lane_of[si] as u32, input, value.clone());
        }
    }

    let output_names: Vec<&str> = entry
        .circuit
        .outputs
        .iter()
        .map(|o| o.name.as_str())
        .collect();
    let mut vcd_buf = Vec::new();
    // The VCD follows scenario `vcd_lane` on whichever gang lane it got.
    let mut vcd = match batch.vcd_lane {
        Some(si) => {
            let l = lane_of[si as usize];
            let mut w = VcdWriter::new(&mut vcd_buf, &entry.circuit)
                .map_err(|e| ProtoError::Remote(format!("vcd setup failed: {e}")))?;
            // Sample the pre-cycle-0 state, like `dump_vcd_lane`.
            w.sample_gang_lane(&sim, l)
                .map_err(|e| ProtoError::Remote(format!("vcd sample failed: {e}")))?;
            Some((l, w))
        }
        None => None,
    };

    // Run between distinct horizons, retiring and streaming each
    // scenario's lane the moment its horizon is reached. While the
    // VCD lane is live its segments step cycle-by-cycle (a waveform
    // needs every timestep); after it retires the rest runs batched.
    let mut horizons: Vec<u64> = batch.scenarios.iter().map(|s| s.cycles).collect();
    horizons.sort_unstable();
    horizons.dedup();
    let mut now = 0u64;
    for &h in &horizons {
        let vcd_live = vcd.as_ref().is_some_and(|(l, _)| sim.lane_is_active(*l));
        if vcd_live {
            let (l, w) = vcd.as_mut().expect("vcd is live");
            while now < h {
                sim.run_stimulus(1, &stim);
                now += 1;
                w.sample_gang_lane(&sim, *l)
                    .map_err(|e| ProtoError::Remote(format!("vcd sample failed: {e}")))?;
            }
        } else if h > now {
            sim.run_stimulus(h - now, &stim);
            now = h;
        }
        for (si, sc) in batch.scenarios.iter().enumerate() {
            if sc.cycles != h {
                continue;
            }
            let values = sim.peek_outputs_lane(lane_of[si]);
            sim.finish_lane(lane_of[si]);
            let lane = LaneResult {
                lane: si as u32,
                outputs: output_names
                    .iter()
                    .map(|n| n.to_string())
                    .zip(values)
                    .collect(),
            };
            write_frame(out, kind::LANE, lane.to_text().as_bytes())?;
        }
    }

    if let (Some(si), Some((_, w))) = (batch.vcd_lane, vcd) {
        drop(w);
        let mut payload = format!("lane {si}\n").into_bytes();
        payload.extend_from_slice(&vcd_buf);
        write_frame(out, kind::VCD, &payload)?;
    }

    srv.scenarios.add(scenarios as u64);
    Ok(BatchSummary {
        key_digest: digest,
        gang_lanes: lanes as u32,
        packed,
        cache_hit,
        compile_s: entry.compile_s,
        run_s: t0.elapsed().as_secs_f64(),
        scenarios: scenarios as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parendi_rtl::Builder;

    #[test]
    fn lane_bucket_rounds_to_powers_of_two() {
        assert_eq!(lane_bucket(1), 1);
        assert_eq!(lane_bucket(3), 4);
        assert_eq!(lane_bucket(4), 4);
        assert_eq!(lane_bucket(5), 8);
    }

    #[test]
    fn auto_pack_wants_one_bit_dominance_and_width() {
        // 4 one-bit regs, 1 wide reg + 0 inputs: 4/5 ≥ 3/4 → packed.
        let mut b = Builder::new("bits");
        for i in 0..4 {
            let r = b.reg(format!("b{i}"), 1, 0);
            let n = b.not(r.q());
            b.connect(r, n);
        }
        let w = b.reg("wide", 32, 0);
        let one = b.lit(32, 1);
        let n = b.add(w.q(), one);
        b.connect(w, n);
        let dominated = b.finish().unwrap();
        assert!(auto_pack(&dominated, 8));
        assert!(!auto_pack(&dominated, 1), "1-lane gangs never pack");

        // 1 one-bit reg, 4 wide: 1/5 < 3/4 → strided.
        let mut b = Builder::new("words");
        let r = b.reg("b", 1, 0);
        let n = b.not(r.q());
        b.connect(r, n);
        for i in 0..4 {
            let w = b.reg(format!("w{i}"), 32, 0);
            let one = b.lit(32, 1);
            let n = b.add(w.q(), one);
            b.connect(w, n);
        }
        let wide = b.finish().unwrap();
        assert!(!auto_pack(&wide, 8));
    }
}
