//! Event tracing: fixed-capacity, lock-free per-track span buffers
//! drained at run end into Chrome trace-event JSON (loadable in
//! Perfetto or `chrome://tracing`).
//!
//! The design center is the overhead story. A track's [`TraceBuf`] is
//! a single-writer bounded buffer: the hot path writes one 40-byte
//! slot and does one `Release` store — no allocation, no locking, no
//! syscalls. When tracing is off the engine holds no sink at all, so
//! the per-span cost collapses to a branch on a `None`. A full buffer
//! saturates (new events are counted as dropped, never spilled), which
//! keeps both the memory bound and the drain soundness trivial: slots
//! below the published length are never written again, so a drain
//! races with nothing.

use std::cell::UnsafeCell;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Events retained per track when [`TraceConfig::capacity`] is left 0.
const DEFAULT_CAPACITY: usize = 1 << 16;

/// Granularity of the recorded spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Tracing disabled: the engine keeps no sink and the hot loop's
    /// only residue is a branch on a `None`.
    #[default]
    Off,
    /// One merged span per contiguous run of same-kind work per worker
    /// (compute, off-chip, exchange, barrier) — a handful of events
    /// per worker per cycle.
    Phase,
    /// One span per tile per sub-phase, tagged with the global tile id
    /// — the straggler view. Costs one clock read per tile per
    /// sub-phase, the same price `run_timed` already pays.
    Tile,
}

/// The `PARENDI_TRACE_LEVEL` spellings: `phase` or `tile` (tracing is
/// switched off by leaving `PARENDI_TRACE` unset, not by a level).
impl std::str::FromStr for TraceLevel {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s {
            "phase" => Ok(TraceLevel::Phase),
            "tile" => Ok(TraceLevel::Tile),
            _ => Err(()),
        }
    }
}

/// Trace configuration handed to the engine at build time.
#[derive(Clone, Debug, Default)]
pub struct TraceConfig {
    pub level: TraceLevel,
    /// Events retained per track; 0 means the default (65536). A full
    /// track saturates and counts further events as dropped.
    pub capacity: usize,
    /// When set, the engine writes the Chrome JSON here when it is
    /// dropped (the trace can also be drained explicitly at any time).
    pub path: Option<PathBuf>,
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub fn off() -> Self {
        Self::default()
    }

    /// Phase-level spans, in-memory only.
    pub fn phase() -> Self {
        TraceConfig {
            level: TraceLevel::Phase,
            ..Self::default()
        }
    }

    /// Tile-level spans, in-memory only.
    pub fn tile() -> Self {
        TraceConfig {
            level: TraceLevel::Tile,
            ..Self::default()
        }
    }

    /// Sets the auto-write path.
    pub fn with_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.path = Some(path.into());
        self
    }

    /// Sets the per-track event capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    pub fn is_off(&self) -> bool {
        self.level == TraceLevel::Off
    }

    /// Reads `PARENDI_TRACE` (an output path; unset, empty, or `0`
    /// disables tracing) and `PARENDI_TRACE_LEVEL` (`phase` | `tile`,
    /// default `tile`; anything else is `tile` too, and says so once on
    /// stderr). Because one process may build many engines (a test
    /// binary, the serve daemon), the second and later env-configured
    /// engines get a numbered path — `out.json`, `out.1.json`,
    /// `out.2.json`, … — instead of clobbering the first.
    pub fn from_env() -> Self {
        let path = match std::env::var("PARENDI_TRACE") {
            Ok(v) if !v.is_empty() && v != "0" => v,
            _ => return Self::off(),
        };
        let level = crate::env_knob("PARENDI_TRACE_LEVEL", TraceLevel::Tile);
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = if n == 0 {
            PathBuf::from(path)
        } else {
            numbered_path(Path::new(&path), n)
        };
        TraceConfig {
            level,
            capacity: 0,
            path: Some(path),
        }
    }
}

/// `out.json` → `out.{n}.json` (or `out` → `out.{n}`).
fn numbered_path(path: &Path, n: usize) -> PathBuf {
    match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => path.with_extension(format!("{n}.{ext}")),
        None => path.with_extension(n.to_string()),
    }
}

/// What a span measures. The discriminant indexes
/// [`TrackSummary::ns_by_kind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// A tile program's compute phase.
    Compute = 0,
    /// Copying a tile's off-chip send segments into the pair
    /// aggregates (staging or direct).
    OffchipFlush = 1,
    /// A transport writer pushing one frame into its socket.
    TransportSend = 2,
    /// Blocking until the cycle's inbound frames arrived.
    TransportRecv = 3,
    /// Waiting, at the cycle's one sync point, for the workers this
    /// worker shares a mailbox with.
    BarrierWait = 4,
    /// A tile program's on-chip exchange phase.
    Exchange = 5,
}

/// Number of [`SpanKind`] variants.
pub const SPAN_KINDS: usize = 6;

impl SpanKind {
    pub const ALL: [SpanKind; SPAN_KINDS] = [
        SpanKind::Compute,
        SpanKind::OffchipFlush,
        SpanKind::TransportSend,
        SpanKind::TransportRecv,
        SpanKind::BarrierWait,
        SpanKind::Exchange,
    ];

    /// Stable event name in the emitted JSON.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::OffchipFlush => "offchip_flush",
            SpanKind::TransportSend => "transport_send",
            SpanKind::TransportRecv => "transport_recv",
            SpanKind::BarrierWait => "barrier_wait",
            SpanKind::Exchange => "exchange",
        }
    }

    /// Event category (`cat`) in the emitted JSON.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::OffchipFlush => "offchip",
            SpanKind::TransportSend | SpanKind::TransportRecv => "transport",
            SpanKind::BarrierWait => "sync",
            SpanKind::Exchange => "exchange",
        }
    }
}

/// The [`TraceEvent::tile`] value of worker-scoped spans (barrier
/// waits, transport waits, phase-level merges).
pub const NO_TILE: u32 = u32::MAX;

/// One recorded span, timestamped against the sink's epoch.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    pub kind: SpanKind,
    /// Global tile id, or [`NO_TILE`] for worker-scoped spans.
    pub tile: u32,
    /// BSP cycle the span belongs to.
    pub cycle: u64,
    /// Nanoseconds since [`TraceSink::epoch`].
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl TraceEvent {
    const ZERO: TraceEvent = TraceEvent {
        kind: SpanKind::Compute,
        tile: NO_TILE,
        cycle: 0,
        start_ns: 0,
        dur_ns: 0,
    };
}

/// One track's event store: a fixed-capacity single-writer buffer.
///
/// Exactly one thread may call [`push`](TraceBuf::push) (the worker or
/// transport writer that owns the track); any thread may
/// [`snapshot`](TraceBuf::snapshot) concurrently. The buffer saturates
/// when full. Cache-line aligned so adjacent tracks' write cursors
/// never share a line.
#[repr(align(64))]
pub struct TraceBuf {
    slots: Box<[UnsafeCell<TraceEvent>]>,
    /// Published event count. Slots below it are immutable forever.
    len: AtomicUsize,
    /// Events rejected because the buffer was full.
    dropped: AtomicU64,
}

// SAFETY: the single-writer discipline documented on the type — a slot
// is written exactly once, before the `Release` store that publishes
// it, and `snapshot` only reads slots below an `Acquire`-loaded length.
unsafe impl Sync for TraceBuf {}

impl TraceBuf {
    pub fn new(capacity: usize) -> Self {
        TraceBuf {
            slots: (0..capacity.max(1))
                .map(|_| UnsafeCell::new(TraceEvent::ZERO))
                .collect(),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records one span. Single-writer: only the owning thread may
    /// call this. Never allocates, locks, or blocks.
    pub fn push(&self, ev: TraceEvent) {
        let n = self.len.load(Ordering::Relaxed);
        if n == self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: this thread is the sole writer and slot `n` is not
        // yet published, so no reader can observe the write.
        unsafe { *self.slots[n].get() = ev };
        self.len.store(n + 1, Ordering::Release);
    }

    /// Events published so far.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events rejected after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies out the published events, oldest first. Safe to call
    /// while the writer is still pushing (late events are simply not
    /// yet included).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let n = self.len.load(Ordering::Acquire);
        // SAFETY: slots below the Acquire-loaded length were fully
        // written before their Release publication and are never
        // written again.
        (0..n).map(|i| unsafe { *self.slots[i].get() }).collect()
    }
}

struct Track {
    name: String,
    buf: Arc<TraceBuf>,
}

/// Aggregate view of one track, for phase-share tables.
#[derive(Clone, Debug)]
pub struct TrackSummary {
    pub name: String,
    pub events: usize,
    pub dropped: u64,
    /// Total nanoseconds per span kind, indexed by `SpanKind as usize`.
    pub ns_by_kind: [u64; SPAN_KINDS],
}

impl TrackSummary {
    /// Total nanoseconds across all kinds.
    pub fn total_ns(&self) -> u64 {
        self.ns_by_kind.iter().sum()
    }

    /// This kind's share of the track's total span time (0 when the
    /// track is empty).
    pub fn share(&self, kind: SpanKind) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.ns_by_kind[kind as usize] as f64 / total as f64
        }
    }
}

/// The per-engine trace collector: owns the epoch, hands out one
/// [`TraceBuf`] per track (engine workers register at spawn, transport
/// writer threads at connect), and drains everything into Chrome
/// trace-event JSON.
pub struct TraceSink {
    level: TraceLevel,
    capacity: usize,
    path: Option<PathBuf>,
    epoch: Instant,
    tracks: Mutex<Vec<Track>>,
}

impl TraceSink {
    /// Builds a sink for the config, or `None` when tracing is off —
    /// the `None` is what the hot path branches on.
    pub fn new(cfg: &TraceConfig) -> Option<Arc<TraceSink>> {
        if cfg.is_off() {
            return None;
        }
        Some(Arc::new(TraceSink {
            level: cfg.level,
            capacity: if cfg.capacity == 0 {
                DEFAULT_CAPACITY
            } else {
                cfg.capacity
            },
            path: cfg.path.clone(),
            epoch: Instant::now(),
            tracks: Mutex::new(Vec::new()),
        }))
    }

    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// The instant all event timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch (for writers that time themselves).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Creates a new track and returns its buffer; the caller's thread
    /// becomes the track's sole writer.
    pub fn register(&self, name: &str) -> Arc<TraceBuf> {
        let buf = Arc::new(TraceBuf::new(self.capacity));
        self.tracks
            .lock()
            .expect("trace track registry")
            .push(Track {
                name: name.to_string(),
                buf: Arc::clone(&buf),
            });
        buf
    }

    /// Snapshots every track (name, events oldest-first).
    pub fn tracks(&self) -> Vec<(String, Vec<TraceEvent>)> {
        self.tracks
            .lock()
            .expect("trace track registry")
            .iter()
            .map(|t| (t.name.clone(), t.buf.snapshot()))
            .collect()
    }

    /// Per-track time-by-kind aggregates.
    pub fn track_summaries(&self) -> Vec<TrackSummary> {
        self.tracks
            .lock()
            .expect("trace track registry")
            .iter()
            .map(|t| {
                let events = t.buf.snapshot();
                let mut ns_by_kind = [0u64; SPAN_KINDS];
                for ev in &events {
                    ns_by_kind[ev.kind as usize] += ev.dur_ns;
                }
                TrackSummary {
                    name: t.name.clone(),
                    events: events.len(),
                    dropped: t.buf.dropped(),
                    ns_by_kind,
                }
            })
            .collect()
    }

    /// Total events dropped across all tracks (saturated buffers).
    pub fn total_dropped(&self) -> u64 {
        self.tracks
            .lock()
            .expect("trace track registry")
            .iter()
            .map(|t| t.buf.dropped())
            .sum()
    }

    /// A human-readable warning when any track dropped events (its
    /// ring buffer saturated), or `None` when the trace is complete.
    /// Callers surface this so a truncated trace is never mistaken
    /// for a quiet run.
    pub fn drop_warning(&self) -> Option<String> {
        let dropped = self.total_dropped();
        (dropped > 0).then(|| {
            format!(
                "{dropped} trace event(s) dropped (per-track buffer saturated) — \
                 the trace is incomplete; raise TraceConfig::with_capacity, \
                 or use PARENDI_TRACE_LEVEL=phase for fewer events"
            )
        })
    }

    /// Serializes every track as Chrome trace-event JSON: one `M`
    /// thread-name metadata event per track, then one `X` complete
    /// event per span (`ts`/`dur` in microseconds), one event per
    /// line. `pid` is always 1; `tid` is the track index + 1.
    pub fn chrome_json(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        for (idx, (name, events)) in self.tracks().into_iter().enumerate() {
            let tid = idx + 1;
            lines.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ));
            for ev in events {
                let ts = ev.start_ns as f64 / 1000.0;
                let dur = ev.dur_ns as f64 / 1000.0;
                let tile = if ev.tile == NO_TILE {
                    String::new()
                } else {
                    format!(",\"tile\":{}", ev.tile)
                };
                lines.push(format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"cat\":\"{}\",\
                     \"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"cycle\":{}{tile}}}}}",
                    ev.kind.name(),
                    ev.kind.category(),
                    ev.cycle,
                ));
            }
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&lines.join(",\n"));
        out.push_str("\n]}\n");
        out
    }

    /// Writes the Chrome JSON to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.chrome_json().as_bytes())
    }

    /// Writes to the configured path, if any; returns it when written.
    pub fn write_configured(&self) -> std::io::Result<Option<&Path>> {
        match &self.path {
            Some(p) => self.write(p).map(|()| Some(p.as_path())),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: SpanKind, start_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            kind,
            tile: NO_TILE,
            cycle: 7,
            start_ns,
            dur_ns,
        }
    }

    /// The buffer saturates at capacity and counts the overflow; the
    /// published prefix survives intact.
    #[test]
    fn trace_buf_saturates_and_counts_drops() {
        let buf = TraceBuf::new(4);
        for i in 0..6 {
            buf.push(ev(SpanKind::Compute, i * 10, 5));
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.dropped(), 2);
        let snap = buf.snapshot();
        assert_eq!(snap.len(), 4);
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.start_ns, i as u64 * 10);
        }
    }

    /// A concurrent drain sees a clean prefix of the pushed events —
    /// the Release/Acquire pair on the length is the whole protocol.
    #[test]
    fn trace_buf_concurrent_snapshot_sees_prefix() {
        let buf = Arc::new(TraceBuf::new(1024));
        let writer = {
            let buf = Arc::clone(&buf);
            std::thread::spawn(move || {
                for i in 0..1024 {
                    buf.push(ev(SpanKind::Exchange, i, 1));
                }
            })
        };
        for _ in 0..100 {
            let snap = buf.snapshot();
            for (i, e) in snap.iter().enumerate() {
                assert_eq!(e.start_ns, i as u64, "torn or reordered slot");
            }
        }
        writer.join().unwrap();
        assert_eq!(buf.snapshot().len(), 1024);
    }

    /// The emitted JSON is one metadata line per track plus one `X`
    /// line per span, with microsecond timestamps.
    #[test]
    fn chrome_json_shape() {
        let sink = TraceSink::new(&TraceConfig::tile()).expect("sink");
        let a = sink.register("engine-worker-0");
        a.push(TraceEvent {
            kind: SpanKind::Compute,
            tile: 3,
            cycle: 0,
            start_ns: 1500,
            dur_ns: 2500,
        });
        a.push(ev(SpanKind::BarrierWait, 4000, 1000));
        let b = sink.register("transport-tcp-0");
        b.push(ev(SpanKind::TransportSend, 2000, 500));
        let json = sink.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"thread_name\",\"args\":{\"name\":\"engine-worker-0\"}"));
        assert!(json.contains("\"thread_name\",\"args\":{\"name\":\"transport-tcp-0\"}"));
        assert!(
            json.contains("\"name\":\"compute\",\"cat\":\"compute\",\"ts\":1.500,\"dur\":2.500")
        );
        assert!(json.contains("\"args\":{\"cycle\":0,\"tile\":3}"));
        // Worker-scoped spans omit the tile arg.
        assert!(json.contains("\"name\":\"barrier_wait\",\"cat\":\"sync\",\"ts\":4.000"));
        assert!(!json.contains("\"tile\":4294967295"));
        // Exactly one comma-terminated line per event (5 lines total).
        assert_eq!(json.lines().count(), 2 + 5);
    }

    /// Summaries aggregate span time by kind per track.
    #[test]
    fn track_summaries_aggregate_by_kind() {
        let sink = TraceSink::new(&TraceConfig::phase()).expect("sink");
        let t = sink.register("w0");
        t.push(ev(SpanKind::Compute, 0, 30));
        t.push(ev(SpanKind::Compute, 40, 10));
        t.push(ev(SpanKind::BarrierWait, 50, 60));
        let s = &sink.track_summaries()[0];
        assert_eq!(s.name, "w0");
        assert_eq!(s.events, 3);
        assert_eq!(s.ns_by_kind[SpanKind::Compute as usize], 40);
        assert_eq!(s.ns_by_kind[SpanKind::BarrierWait as usize], 60);
        assert_eq!(s.total_ns(), 100);
        assert!((s.share(SpanKind::BarrierWait) - 0.6).abs() < 1e-12);
    }

    /// `TraceSink::new` is the off-branch: no sink, no cost.
    #[test]
    fn off_config_builds_no_sink() {
        assert!(TraceSink::new(&TraceConfig::off()).is_none());
        assert!(TraceConfig::default().is_off());
        assert!(!TraceConfig::tile().is_off());
    }

    /// Numbered paths keep multi-engine processes from clobbering one
    /// output file.
    #[test]
    fn numbered_paths_insert_before_extension() {
        assert_eq!(
            numbered_path(Path::new("out.json"), 2),
            PathBuf::from("out.2.json")
        );
        assert_eq!(
            numbered_path(Path::new("dir/trace"), 1),
            PathBuf::from("dir/trace.1")
        );
    }
}
