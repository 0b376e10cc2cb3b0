//! End-to-end daemon tests: protocol round trips over a real Unix
//! socket, the four compile-cache properties the issue pins (lane
//! shapes fork entries, LRU eviction, cross-process hash stability,
//! single-flight concurrent compiles), and bit-identical equivalence
//! between daemon responses and a direct `GangSimulator` run.

use parendi_core::{compile, CompileKey, PartitionConfig};
use parendi_designs::Benchmark;
use parendi_rtl::bits::Bits;
use parendi_serve::cache::{CacheEntry, CompileCache};
use parendi_serve::proto::{kind, read_frame, write_frame};
use parendi_serve::{spawn, Client, PackedChoice, ProtoError, ScenarioBatch, ServeConfig};
use parendi_sim::{dump_vcd_lane, GangSimulator, Precompiled, StimulusSet, VcdWriter};
use parendi_telemetry::MetricsRegistry;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A per-test private socket path (tests share one process; sockets
/// must not collide).
fn test_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "parendi-serve-test-{}-{tag}.sock",
        std::process::id()
    ))
}

fn start(tag: &str) -> (parendi_serve::ServerHandle, PathBuf) {
    let path = test_socket(tag);
    let _ = std::fs::remove_file(&path);
    let handle = spawn(ServeConfig::with_socket(&path)).expect("spawn daemon");
    (handle, path)
}

fn stop(handle: parendi_serve::ServerHandle, path: &PathBuf) {
    Client::connect(path)
        .expect("connect for shutdown")
        .shutdown()
        .expect("clean shutdown");
    handle.join();
}

/// Submit → per-lane streaming → DONE, with results bit-identical to
/// a direct `GangSimulator` run of the same stimulus (the acceptance
/// criterion), including per-lane horizons retiring out of order.
#[test]
fn daemon_matches_direct_gang_run() {
    let (handle, path) = start("equiv");
    let mut client = Client::connect(&path).expect("connect");

    let mut batch = ScenarioBatch::new("ca64", 4);
    batch.packed = PackedChoice::Off;
    let l0 = batch.scenario(40);
    let l1 = batch.scenario(25);
    batch.drive(l0, 0, "inj", Bits::from_u64(1, 1));
    batch.drive(l0, 1, "inj", Bits::from_u64(1, 0));
    batch.drive(l0, 10, "inj", Bits::from_u64(1, 1));
    batch.drive(l1, 3, "inj", Bits::from_u64(1, 1));
    batch.drive(l1, 4, "inj", Bits::from_u64(1, 0));
    let result = client.submit(&batch).expect("submit");
    assert_eq!(result.summary.scenarios, 2);
    assert_eq!(result.summary.gang_lanes, 2);
    assert!(!result.summary.packed);
    assert_eq!(result.lanes.len(), 2);

    // The direct run: same design, same partition shape, same lane
    // bucket, same stimulus — the server must add nothing on top.
    let circuit = Benchmark::parse("ca64").unwrap().build();
    let comp = compile(&circuit, &PartitionConfig::with_tiles(4)).expect("compile");
    let mut sim = GangSimulator::new(&circuit, &comp.partition, 2, 2);
    let mut stim = StimulusSet::new(2);
    stim.drive(0, 0, "inj", Bits::from_u64(1, 1));
    stim.drive(1, 0, "inj", Bits::from_u64(1, 0));
    stim.drive(10, 0, "inj", Bits::from_u64(1, 1));
    stim.drive(3, 1, "inj", Bits::from_u64(1, 1));
    stim.drive(4, 1, "inj", Bits::from_u64(1, 0));
    // Lane 1 retires at 25, lane 0 at 40 — replay the server's
    // segmented schedule.
    sim.run_stimulus(25, &stim);
    let want_l1 = sim.peek_outputs_lane(1);
    sim.finish_lane(1);
    sim.run_stimulus(15, &stim);
    let want_l0 = sim.peek_outputs_lane(0);

    for (lane, want) in [(0u32, want_l0), (1u32, want_l1)] {
        let got = result.lane(lane).expect("lane result");
        let got_values: Vec<&Bits> = got.outputs.iter().map(|(_, v)| v).collect();
        assert_eq!(got_values.len(), want.len(), "lane {lane} output count");
        for ((name, got), want) in got.outputs.iter().zip(&want) {
            assert_eq!(got, want, "lane {lane} output {name} must be bit-identical");
        }
    }

    stop(handle, &path);
}

/// Which gang lane a scenario runs on is the daemon's business: it
/// orders them by descending horizon so the engine's compute range
/// shrinks as they retire. The same five scenarios (bucket 8, three
/// surplus lanes; horizons with a tie) submitted in ascending and in
/// descending horizon order return the same outputs under the client's
/// own scenario indices and the same waveform for the same scenario,
/// all equal to a direct gang that keeps scenario `i` on lane `i`.
#[test]
fn lane_order_is_invisible_to_clients() {
    const HORIZONS: [u64; 5] = [10, 17, 17, 26, 33];
    const VCD_SCENARIO: usize = 1;
    // Scenario `si`'s own `inj` pulse train.
    let pulses = |si: u64| [(si, 1u64), (si + 1 + si % 2, 0), (7 + si, 1)];
    // The batch listing the scenarios in `order`.
    let batch_in = |order: [usize; 5]| {
        let mut batch = ScenarioBatch::new("ca64", 4);
        batch.packed = PackedChoice::Off;
        for si in order {
            let at = batch.scenario(HORIZONS[si]);
            for (cycle, v) in pulses(si as u64) {
                batch.drive(at, cycle, "inj", Bits::from_u64(1, v));
            }
            if si == VCD_SCENARIO {
                batch.vcd_lane = Some(at);
            }
        }
        batch
    };

    // The direct run, scenario `i` on lane `i`, stepped cycle by cycle.
    let circuit = Benchmark::parse("ca64").unwrap().build();
    let comp = compile(&circuit, &PartitionConfig::with_tiles(4)).expect("compile");
    let mut sim = GangSimulator::new(&circuit, &comp.partition, 2, 8);
    let mut stim = StimulusSet::new(8);
    for si in 0..5 {
        for (cycle, v) in pulses(si as u64) {
            stim.drive(cycle, si as u32, "inj", Bits::from_u64(1, v));
        }
    }
    for surplus in 5..8 {
        sim.finish_lane(surplus);
    }
    let mut want: Vec<Vec<Bits>> = vec![Vec::new(); 5];
    let mut want_vcd = Vec::new();
    let mut vcd = VcdWriter::new(&mut want_vcd, &circuit).expect("vcd header");
    vcd.sample_gang_lane(&sim, VCD_SCENARIO).expect("sample");
    for now in 1..=HORIZONS[4] {
        sim.run_stimulus(1, &stim);
        if now <= HORIZONS[VCD_SCENARIO] {
            vcd.sample_gang_lane(&sim, VCD_SCENARIO).expect("sample");
        }
        for si in (0..5).filter(|&si| HORIZONS[si] == now) {
            want[si] = sim.peek_outputs_lane(si);
            sim.finish_lane(si);
        }
    }
    drop(vcd);
    let want_vcd = String::from_utf8(want_vcd).unwrap();

    let (handle, path) = start("laneorder");
    let mut client = Client::connect(&path).expect("connect");
    for order in [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0]] {
        let batch = batch_in(order);
        let result = client.submit(&batch).expect("submit");
        assert_eq!(result.summary.gang_lanes, 8);
        assert_eq!(result.lanes.len(), 5);
        for (at, si) in order.into_iter().enumerate() {
            let got = result.lane(at as u32).expect("lane result");
            let got: Vec<&Bits> = got.outputs.iter().map(|(_, v)| v).collect();
            assert_eq!(
                got,
                want[si].iter().collect::<Vec<_>>(),
                "order {order:?}: scenario {si}, the client's lane {at}"
            );
        }
        assert_eq!(
            result.vcd.as_deref(),
            Some(want_vcd.as_str()),
            "order {order:?}: the waveform follows the scenario, not a gang lane"
        );

        // On the wire the VCD frame names the client's index too.
        let mut raw = UnixStream::connect(&path).expect("connect raw");
        write_frame(&mut raw, kind::SUBMIT, batch.to_text().as_bytes()).expect("submit raw");
        let header = loop {
            match read_frame(&mut raw).expect("reply frame") {
                (kind::VCD, payload) => {
                    let text = String::from_utf8(payload).unwrap();
                    break text.split_once('\n').unwrap().0.to_string();
                }
                (kind::LANE, _) => {}
                (k, _) => panic!("frame kind {k} before the VCD"),
            }
        };
        assert_eq!(header, format!("lane {}", batch.vcd_lane.unwrap()));
    }

    stop(handle, &path);
}

/// The same circuit under two lane shapes yields two cache entries
/// (lane shape is part of the key), and resubmitting either shape is
/// a hit.
#[test]
fn lane_shapes_fork_cache_entries() {
    let (handle, path) = start("shapes");
    let mut client = Client::connect(&path).expect("connect");

    let mut narrow = ScenarioBatch::new("sr2", 8);
    narrow.packed = PackedChoice::Off;
    narrow.scenario(5);
    narrow.scenario(5);
    let mut wide = narrow.clone();
    for _ in 0..3 {
        wide.scenario(5);
    }

    let first = client.submit(&narrow).expect("narrow submit");
    assert!(!first.summary.cache_hit, "fresh daemon: must be a miss");
    let second = client.submit(&wide).expect("wide submit");
    assert!(!second.summary.cache_hit, "new lane shape: must be a miss");
    assert_eq!(
        second.summary.gang_lanes, 8,
        "5 scenarios bucket to 8 lanes"
    );
    assert_ne!(
        first.summary.key_digest, second.summary.key_digest,
        "lane shape is part of the compile key"
    );

    let again = client.submit(&narrow).expect("narrow resubmit");
    assert!(again.summary.cache_hit, "same shape: must be a hit");
    assert_eq!(again.summary.key_digest, first.summary.key_digest);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("serve_cache_misses"), Some(2));
    assert_eq!(stats.get("serve_cache_hits"), Some(1));
    assert_eq!(stats.get("serve_batches"), Some(3));
    assert_eq!(stats.get("serve_scenarios"), Some(2 + 5 + 2));

    stop(handle, &path);
}

/// Builds a real cache entry for one tiny uniquely-named circuit.
fn tiny_entry(name: &str, lanes: usize) -> (u64, CacheEntry) {
    let mut b = parendi_rtl::Builder::new(name);
    let r = b.reg("c", 16, 0);
    let one = b.lit(16, 1);
    let n = b.add(r.q(), one);
    b.connect(r, n);
    b.output("q", r.q());
    let circuit = b.finish().unwrap();
    let cfg = PartitionConfig::with_tiles(2);
    let key = CompileKey::new(&circuit, &cfg, lanes as u32, false);
    let comp = compile(&circuit, &cfg).expect("compile tiny");
    let pre = Precompiled::build(&circuit, &comp.partition, lanes, false);
    (
        key.digest(),
        CacheEntry {
            key,
            circuit,
            partition: comp.partition,
            pre,
            compile_s: 0.0,
        },
    )
}

/// At capacity the least-recently-used entry is evicted — and touching
/// an entry protects it.
#[test]
fn lru_evicts_the_coldest_entry() {
    let metrics = MetricsRegistry::new();
    let cache = CompileCache::new(2, &metrics);
    let (da, ea) = tiny_entry("lru_a", 2);
    let (db, eb) = tiny_entry("lru_b", 2);
    let (dc, ec) = tiny_entry("lru_c", 2);
    assert!(
        da != db && db != dc && da != dc,
        "distinct names, distinct digests"
    );

    cache.get_or_build(da, || Ok(ea)).expect("insert a");
    cache.get_or_build(db, || Ok(eb)).expect("insert b");
    // Touch `a` so `b` is now the coldest.
    let (_, hit) = cache
        .get_or_build(da, || panic!("a is cached"))
        .expect("touch a");
    assert!(hit);
    cache
        .get_or_build(dc, || Ok(ec))
        .expect("insert c evicts b");

    assert_eq!(cache.len(), 2);
    assert!(cache.contains(da), "recently touched entry survives");
    assert!(!cache.contains(db), "coldest entry is evicted");
    assert!(cache.contains(dc));
    assert_eq!(metrics.snapshot().get("serve_cache_evictions"), Some(1));
}

/// Two simultaneous requests for the same key compile once: the
/// second blocks on the in-flight build and shares its artifact.
#[test]
fn concurrent_same_key_compiles_once_direct() {
    let metrics = MetricsRegistry::new();
    let cache = Arc::new(CompileCache::new(4, &metrics));
    let builds = Arc::new(AtomicUsize::new(0));
    let building = Arc::new(AtomicBool::new(false));
    let (digest, entry) = tiny_entry("single_flight", 2);

    let slow = {
        let cache = cache.clone();
        let builds = builds.clone();
        let building = building.clone();
        std::thread::spawn(move || {
            cache
                .get_or_build(digest, move || {
                    building.store(true, Ordering::SeqCst);
                    builds.fetch_add(1, Ordering::SeqCst);
                    // Hold the Building slot long enough for the other
                    // thread to arrive and park.
                    std::thread::sleep(std::time::Duration::from_millis(200));
                    Ok(entry)
                })
                .expect("slow build")
        })
    };
    // Only start the second lookup once the first is inside its build.
    while !building.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    let (_, hit) = cache
        .get_or_build(digest, || panic!("second request must not build"))
        .expect("waiter");
    assert!(hit, "the waiter shares the in-flight compile as a hit");
    slow.join().expect("builder thread");
    assert_eq!(builds.load(Ordering::SeqCst), 1, "exactly one compile ran");
    assert_eq!(metrics.snapshot().get("serve_cache_misses"), Some(1));
    assert_eq!(metrics.snapshot().get("serve_cache_hits"), Some(1));
}

/// The daemon-level version: four concurrent clients race the same
/// batch at a fresh daemon; exactly one compile runs.
#[test]
fn concurrent_clients_share_one_compile() {
    let (handle, path) = start("race");
    let clients = 4;
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&path).expect("connect");
                let mut batch = ScenarioBatch::new("sr2", 8);
                batch.packed = PackedChoice::Off;
                batch.scenario(10);
                batch.scenario(10);
                client.submit(&batch).expect("racing submit")
            })
        })
        .collect();
    let results: Vec<_> = threads
        .into_iter()
        .map(|t| t.join().expect("client"))
        .collect();

    let digest = results[0].summary.key_digest;
    assert!(results.iter().all(|r| r.summary.key_digest == digest));
    let mut client = Client::connect(&path).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.get("serve_cache_misses"),
        Some(1),
        "four racing clients, one compile"
    );
    assert_eq!(stats.get("serve_cache_hits"), Some(clients as u64 - 1));
    // Every client must have gotten identical outputs.
    for r in &results[1..] {
        for (a, b) in r.lanes.iter().zip(&results[0].lanes) {
            assert_eq!(a, b, "racing clients see identical results");
        }
    }

    stop(handle, &path);
}

const KEY_CHILD_ENV: &str = "PARENDI_SERVE_KEY_CHILD_PATH";

fn stability_key() -> CompileKey {
    let circuit = Benchmark::parse("sr2").expect("sr2").build();
    CompileKey::new(&circuit, &PartitionConfig::with_tiles(8), 4, false)
}

/// Child half of `compile_key_is_stable_across_processes`: inert
/// unless spawned with the handoff env var. Writes its digest of the
/// fixed design to the given path.
#[test]
fn serve_key_child_entry() {
    let Ok(path) = std::env::var(KEY_CHILD_ENV) else {
        return;
    };
    std::fs::write(&path, stability_key().to_text()).expect("write child key");
}

/// The compile key must be identical across processes — a daemon
/// restarted tomorrow must reuse what today's daemon would cache. A
/// re-exec'd child computes the same key and the digests must match
/// (this catches any `HashMap`-iteration or ASLR dependence in the
/// hash walk).
#[test]
fn compile_key_is_stable_across_processes() {
    let path = std::env::temp_dir().join(format!(
        "parendi-serve-key-child-{}.txt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let exe = std::env::current_exe().expect("current test binary");
    let status = std::process::Command::new(&exe)
        .args(["serve_key_child_entry", "--exact"])
        .env(KEY_CHILD_ENV, &path)
        .status()
        .expect("spawn key child");
    assert!(status.success(), "child failed: {status:?}");
    let child_text = std::fs::read_to_string(&path).expect("read child key");
    let child_key = CompileKey::from_text(&child_text).expect("parse child key");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        child_key,
        stability_key(),
        "compile key digests must be process-independent"
    );
}

/// The streamed VCD slice equals `dump_vcd_lane` of a direct engine —
/// same circuit, same horizon, byte for byte.
#[test]
fn vcd_slice_matches_direct_dump() {
    let (handle, path) = start("vcd");
    let mut client = Client::connect(&path).expect("connect");
    let mut batch = ScenarioBatch::new("sr2", 8);
    batch.packed = PackedChoice::Off;
    batch.scenario(12);
    batch.vcd_lane = Some(0);
    let result = client.submit(&batch).expect("submit");
    let got = result.vcd.expect("vcd slice");

    let circuit = Benchmark::parse("sr2").unwrap().build();
    let comp = compile(&circuit, &PartitionConfig::with_tiles(8)).expect("compile");
    let mut sim = GangSimulator::new(&circuit, &comp.partition, 2, 1);
    let mut want = Vec::new();
    dump_vcd_lane(&mut sim, 0, 12, &mut want).expect("direct dump");
    assert_eq!(
        got,
        String::from_utf8(want).unwrap(),
        "VCD must be identical"
    );

    stop(handle, &path);
}

/// Failures answer `ERR` and keep the connection serving: a bad
/// design, a bad payload, and an unknown input each fail loudly, then
/// a good batch still succeeds on the same stream.
#[test]
fn errors_are_loud_and_nonfatal() {
    let (handle, path) = start("errors");
    let mut client = Client::connect(&path).expect("connect");

    let mut unknown = ScenarioBatch::new("nosuchdesign", 4);
    unknown.scenario(5);
    match client.submit(&unknown) {
        Err(ProtoError::Remote(msg)) => assert!(msg.contains("nosuchdesign"), "{msg}"),
        other => panic!("expected remote error, got {other:?}"),
    }

    let mut bad_input = ScenarioBatch::new("sr2", 8);
    bad_input.scenario(5);
    bad_input.drive(0, 0, "not_an_input", Bits::from_u64(4, 1));
    match client.submit(&bad_input) {
        Err(ProtoError::Remote(msg)) => assert!(msg.contains("not_an_input"), "{msg}"),
        other => panic!("expected remote error, got {other:?}"),
    }

    // The stream survives both failures.
    let mut good = ScenarioBatch::new("sr2", 8);
    good.packed = PackedChoice::Off;
    good.scenario(5);
    let result = client.submit(&good).expect("good batch after errors");
    assert_eq!(result.summary.scenarios, 1);

    // CLEAR drops the entry: the same batch misses again.
    client.clear_cache().expect("clear");
    let again = client.submit(&good).expect("resubmit after clear");
    assert!(!again.summary.cache_hit, "cleared cache must re-compile");

    stop(handle, &path);
}

/// Shutdown is clean: the daemon confirms, the accept loop exits, the
/// socket file is removed, and later connects fail.
#[test]
fn shutdown_removes_the_socket() {
    let (handle, path) = start("shutdown");
    Client::connect(&path)
        .expect("connect")
        .shutdown()
        .expect("shutdown confirmed");
    handle.join();
    assert!(!path.exists(), "socket file must be removed on exit");
    assert!(
        Client::connect(&path).is_err(),
        "no daemon must answer after shutdown"
    );
}

/// The `parendi-serve` binary itself, through its three invocations:
/// the bare daemon binds its socket, `--stats` prints the metrics and
/// `--stop` confirms (both exit 0), after which the daemon process
/// exits cleanly and its socket file is gone; an unknown flag exits
/// non-zero with the usage line.
#[test]
fn daemon_binary_lifecycle() {
    use std::process::{Child, Command, Stdio};
    use std::time::{Duration, Instant};

    /// The daemon process; a failed assertion must not leave it behind.
    struct Daemon(Child);
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    /// Polls `ready` for up to ten seconds.
    fn within_10s(mut ready: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if ready() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        false
    }

    let socket = test_socket("binary");
    let _ = std::fs::remove_file(&socket);
    let serve = |args: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_parendi-serve"));
        cmd.args(args).env("PARENDI_SERVE_SOCKET", &socket);
        cmd
    };

    let mut daemon = Daemon(
        serve(&[])
            .stdout(Stdio::null())
            .spawn()
            .expect("start parendi-serve"),
    );
    assert!(
        within_10s(|| Client::connect(&socket).is_ok()),
        "daemon never answered on {}",
        socket.display()
    );

    let stats = serve(&["--stats"]).output().expect("run --stats");
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(stats.status.success(), "--stats failed: {stats:?}");
    assert!(text.contains("serve_cache_hits"), "no metrics in: {text}");

    let stopped = serve(&["--stop"]).output().expect("run --stop");
    assert!(stopped.status.success(), "--stop failed: {stopped:?}");
    let mut exit = None;
    assert!(
        within_10s(|| {
            exit = daemon.0.try_wait().expect("poll daemon");
            exit.is_some()
        }),
        "daemon still running after --stop"
    );
    assert!(exit.is_some_and(|e| e.success()), "daemon exit: {exit:?}");
    assert!(!socket.exists(), "socket file must be removed on exit");

    let bad = serve(&["--frobnicate"]).output().expect("run bad flag");
    assert!(!bad.status.success(), "an unknown flag must fail");
    let usage = String::from_utf8_lossy(&bad.stderr);
    assert!(usage.contains("usage: parendi-serve"), "{usage}");
}
