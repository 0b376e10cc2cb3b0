//! The off-chip fabric: pluggable transports for the per-ordered-
//! chip-pair aggregate mailboxes.
//!
//! The engine models a multi-chip machine (Parendi's m×b off-chip
//! exchange) by aggregating every cross-chip channel into one wide
//! mailbox per **ordered chip pair** (`engine::frontend` lays them out
//! after the on-chip per-tile-pair boxes). This module puts the chip
//! boundary behind [`ChipTransport`] so the same cycle loop can move
//! the aggregates through a real memory-domain boundary. Two backends:
//!
//! * [`TransportChoice::InProcess`] — producing tiles write straight
//!   into the consumer-side [`Mailbox`], bit-exact and zero-copy. The
//!   default.
//! * [`TransportChoice::Tcp`] — producers write a **staging** mailbox
//!   and completed pair buffers travel as length-prefixed frames over
//!   loopback sockets, one stream per ordered pair, with a dedicated
//!   writer thread per pair so a worker never blocks on a full socket
//!   buffer.
//!
//! **Both ends of every transport live in one process today**: the
//! producers, the receivers and (for TCP) both socket ends belong to
//! one engine's worker pool. TCP exercises the staged publish/receive
//! protocol below and is the backend a multi-host engine would build
//! on; inside one process a shared-memory segment only measured the
//! in-process row again (sr3 @ 2 chips × 8 tiles, 2 threads: 128.2 k
//! cycles/s both, TCP 24.5 k) and, spinning on its sequence words, was
//! 7–10× the slowest of the three once workers outnumbered cores — so
//! it was removed. It re-enters, rebuilt on [`Staging`], only when
//! chips are separate processes.
//!
//! # Epoch discipline
//!
//! The transport inherits the engine's double-buffer contract: during
//! cycle `c` producers fill parity `(c+1) & 1` and consumers read
//! parity `c & 1`; a consumer reads parity `(c+1) & 1` only after it
//! has observed every neighbour's published epoch `c + 1` (the one
//! per-cycle sync point, `engine::sync::EpochSync`). A staged backend
//! inserts a publish/receive hop inside the producer half of the cycle:
//!
//! 1. each producing tile's off-chip flush writes its send segments
//!    into the *staging* copy of the pair aggregate (same layout, same
//!    parity);
//! 2. [`ChipTransport::tile_flushed`] counts down the pair's producing
//!    tiles; the worker that flushes the last tile publishes the whole
//!    parity buffer as one frame (an `AcqRel` countdown makes every
//!    staging write visible to the publisher);
//! 3. before it publishes its epoch, each worker calls
//!    [`ChipTransport::complete_recvs`] for the pairs whose consumer
//!    chip it owns, blocking until the cycle's frame arrives, and
//!    copies it into the consumer-side [`Mailbox`] at the same parity.
//!
//! Every worker that touches a pair — its producers (who also share
//! the countdown), its consumers and, staged, its receiving worker —
//! is a neighbour of every other (`engine::sync::fold_neighbors`), so
//! none of them is ever more than one cycle ahead of another. Every
//! publish precedes every receive wait within a worker, and a producer
//! can start flushing cycle `c + 1` only after the receiver published
//! epoch `c + 1`, i.e. after it landed frame `c`: that one-cycle-ahead
//! bound keeps at most one frame in flight per pair (the next countdown
//! cannot start before the last one re-armed), so the hop cannot
//! deadlock. Frames carry the **whole** aggregate buffer: staging boxes
//! are initialized by mirroring the consumer box (both parities,
//! including the epoch-0 register preload), so words a cycle does not
//! write retain exactly the bytes the in-process path would have left
//! in place — this is what keeps the packed retire-mask blends
//! bit-exact across backends.
//!
//! # Byte accounting
//!
//! [`ChipTransport::bytes_sent`] reports the bytes that crossed the
//! chip boundary: one whole pair aggregate per completed cycle, for
//! *every* backend (the in-process path conveys the same buffer
//! implicitly through shared memory). Receive waits are timed by the
//! cycle loop into the same `BspPhases::offchip_s` column as the
//! flush copies, so the column means the same thing for both backends.
//!
//! # Failure behavior
//!
//! Transport faults are unrecoverable mid-cycle: a malformed or short
//! TCP frame or a closed peer panics the worker, and the engine's
//! worker loop converts any worker panic into a process abort (its
//! neighbours would wait forever). Frame decoding itself
//! ([`tcp::decode_frame`]) is a total function returning `Result`,
//! unit-tested on truncated and corrupted input.

use crate::engine::sync::Mailbox;
use parendi_telemetry::{Counter, TraceSink};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub(crate) mod inproc;
pub(crate) mod tcp;

/// Which backend carries the off-chip aggregate mailboxes.
///
/// Selected per simulator via `BspSimulator::with_transport` /
/// `GangSimulator::with_transport`, or globally via the
/// `PARENDI_TRANSPORT` environment variable (`inproc` | `tcp`). Both
/// backends are bit-exact; they differ only in which memory-domain
/// boundary the aggregates cross and in the measured cost that lands
/// in `BspPhases::offchip_s`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TransportChoice {
    /// Direct writes into the consumer mailbox (one address space).
    #[default]
    InProcess,
    /// Length-prefixed frames over loopback TCP sockets.
    Tcp,
}

impl TransportChoice {
    /// The backend a `PARENDI_TRANSPORT` value names, if it names one.
    pub(crate) fn parse(value: &str) -> Option<Self> {
        match value {
            "inproc" => Some(Self::InProcess),
            "tcp" => Some(Self::Tcp),
            _ => None,
        }
    }

    /// Reads `PARENDI_TRANSPORT` (`inproc` | `tcp`). Unset or empty is
    /// [`TransportChoice::InProcess`]. A set value that names no
    /// backend also falls back to it — a typo degrades to the bit-exact
    /// path rather than aborting — but says so on stderr, once per
    /// process: a stale value must not silently change what a run
    /// measures.
    pub fn from_env() -> Self {
        let Some(value) = std::env::var_os("PARENDI_TRANSPORT").filter(|v| !v.is_empty()) else {
            return Self::InProcess;
        };
        value.to_str().and_then(Self::parse).unwrap_or_else(|| {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "[transport] ignoring PARENDI_TRANSPORT={value:?}: expected `inproc` or \
                     `tcp`; using `inproc`"
                );
            });
            Self::InProcess
        })
    }

    /// Short stable name (used in bench record tags and fig columns).
    pub fn name(&self) -> &'static str {
        match self {
            Self::InProcess => "inproc",
            Self::Tcp => "tcp",
        }
    }
}

/// A typed transport fault on the connection-setup or framing path.
///
/// Backends surface these instead of bare `unwrap` panics so a refused
/// connection, a half-open peer, or a stalled handshake produces a
/// message naming the failing operation (and, for timeouts, the
/// configured budget) before the worker aborts. The budget comes from
/// `PARENDI_TRANSPORT_TIMEOUT_MS` — see [`transport_timeout`].
#[derive(Debug)]
pub enum TransportError {
    /// An OS-level I/O failure; `context` names the operation
    /// (e.g. `"connect pair 3"`).
    Io {
        /// The operation that failed.
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// An operation exceeded the `PARENDI_TRANSPORT_TIMEOUT_MS` budget.
    Timeout {
        /// The operation that timed out.
        context: String,
        /// The budget that was exceeded, in milliseconds.
        ms: u64,
    },
    /// The peer spoke the wrong protocol during connection setup.
    Handshake(String),
    /// A received frame failed validation (bad magic, short payload…).
    Frame(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { context, source } => write!(f, "transport i/o error: {context}: {source}"),
            Self::Timeout { context, ms } => {
                write!(
                    f,
                    "transport timeout: {context} exceeded {ms} ms \
                     (PARENDI_TRANSPORT_TIMEOUT_MS)"
                )
            }
            Self::Handshake(msg) => write!(f, "transport handshake error: {msg}"),
            Self::Frame(msg) => write!(f, "transport frame error: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl TransportError {
    /// Wraps an [`std::io::Error`] with the operation it interrupted.
    pub(crate) fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        Self::Io {
            context: context.into(),
            source,
        }
    }
}

/// The connection-setup / blocking-read budget: `Some(duration)` from
/// `PARENDI_TRANSPORT_TIMEOUT_MS` (default 30 000 ms), or `None` when
/// the variable is set to `0` (wait forever). A malformed value is the
/// default, and says so once on stderr.
pub(crate) fn transport_timeout() -> Option<Duration> {
    let ms = parendi_telemetry::env_knob("PARENDI_TRANSPORT_TIMEOUT_MS", 30_000u64);
    (ms != 0).then(|| Duration::from_millis(ms))
}

/// Everything a backend needs at build time, derived by
/// `EngineCore::new` from the compiled partition.
pub(crate) struct TransportInit<'a> {
    /// `(from_chip, to_chip)` of each off-chip pair, in mailbox order
    /// (`channels[onchip + i]` carries `pairs[i]`).
    pub pairs: &'a [(u32, u32)],
    /// The full mailbox fabric (on-chip boxes first); staged backends
    /// mirror `channels[onchip..]` into their staging copies.
    pub channels: &'a [Mailbox],
    /// Number of leading on-chip mailboxes in `channels`.
    pub onchip: usize,
    /// Per tile: the pair indices the tile's off-chip sends feed.
    pub produces: Vec<Vec<u32>>,
    /// Per worker: the pair indices whose consumer chip the worker
    /// owns (it performs those receives).
    pub recv_of: Vec<Vec<u32>>,
    /// Credited once per published pair frame (all backends).
    pub frames_sent: Counter,
    /// Credited once per received pair frame (all backends, including
    /// the implicit in-process receives).
    pub frames_received: Counter,
    /// Event-trace sink; backends with their own threads (the TCP
    /// writer threads) register tracks here.
    pub trace: Option<Arc<TraceSink>>,
}

/// A backend carrying the off-chip aggregate mailboxes (see the module
/// docs for the cycle-level contract).
pub(crate) trait ChipTransport: Send + Sync {
    /// The mailbox slice producing tiles flush into: `None` means the
    /// consumer-side fabric itself (the in-process direct path);
    /// `Some` is a same-layout staging copy (on-chip entries are
    /// zero-sized placeholders — only off-chip boxes are ever touched
    /// through this slice).
    fn staging(&self) -> Option<&[Mailbox]>;

    /// Notes that `tile`'s off-chip segments for `parity` are written;
    /// publishes every pair whose producers have all flushed for this
    /// `cycle`.
    fn tile_flushed(&self, tile: usize, parity: usize, cycle: u64);

    /// Blocks until every pair in worker `who`'s receive set has this
    /// `cycle`'s frame, copying each into the consumer mailbox
    /// (`channels[onchip + pair]`) at `parity`. Must be called after
    /// the worker's own flushes and before it publishes its epoch.
    fn complete_recvs(
        &self,
        who: usize,
        parity: usize,
        cycle: u64,
        channels: &[Mailbox],
        onchip: usize,
    );

    /// Total bytes that crossed the chip boundary so far (whole pair
    /// aggregates, every backend — see the module docs).
    fn bytes_sent(&self) -> u64;

    /// Re-derives backend-side mirror state from the engine fabric
    /// after the engine mutated it outside the cycle loop (checkpoint
    /// restore, lane fork). Staged backends re-mirror the consumer
    /// boxes into staging (both parities) so the next cycle's frames
    /// carry the restored bytes. Called between runs only — no worker
    /// is in flight. The default (in-process) is a no-op.
    fn resync(&self, _channels: &[Mailbox], _onchip: usize) {}

    /// Short stable backend name.
    fn name(&self) -> &'static str;
}

/// Builds the chosen backend over the compiled fabric.
pub(crate) fn build(choice: TransportChoice, init: TransportInit<'_>) -> Box<dyn ChipTransport> {
    match choice {
        TransportChoice::InProcess => Box::new(inproc::InProcess::new(init)),
        TransportChoice::Tcp => Box::new(tcp::Tcp::new(init)),
    }
}

/// The machinery every backend shares: the per-pair producer countdown
/// and the staging fabric (empty for the in-process path). `on_ready`
/// fires exactly once per pair per cycle, on the worker that flushed
/// the pair's last producing tile, after an `AcqRel` edge that makes
/// all producers' staging writes visible to it.
pub(crate) struct Staging {
    /// Same length/layout as the engine fabric; on-chip entries are
    /// zero-sized. Empty (no staging) for the in-process path.
    boxes: Vec<Mailbox>,
    /// Per tile: pair indices it produces into.
    produces: Vec<Vec<u32>>,
    /// Per pair: producing tiles still unflushed this cycle.
    counts: Vec<AtomicU32>,
    /// Per pair: total producing tiles (the countdown reset value).
    full: Vec<u32>,
    /// Per pair: words in one parity buffer of the aggregate.
    pair_words: Vec<usize>,
    /// Number of leading on-chip mailboxes.
    onchip: usize,
    bytes: AtomicU64,
    frames_sent: Counter,
    frames_received: Counter,
}

impl Staging {
    /// Builds the countdown (and, with `staged`, the mirror staging
    /// fabric) from the engine's init data.
    pub(crate) fn new(init: &TransportInit<'_>, staged: bool) -> Self {
        let npairs = init.pairs.len();
        let mut full = vec![0u32; npairs];
        for tile in &init.produces {
            for &p in tile {
                full[p as usize] += 1;
            }
        }
        let pair_words: Vec<usize> = (0..npairs)
            .map(|p| init.channels[init.onchip + p].words())
            .collect();
        // Frames carry whole buffers, so a staging box starts as a
        // mirror of its consumer box (`resync`, below): unwritten words
        // must hold exactly what the direct path would have left there,
        // including the epoch-0 register preload in parity 0.
        let boxes = if staged {
            let onchip = (0..init.onchip).map(|_| Mailbox::new(0));
            onchip
                .chain(pair_words.iter().map(|&w| Mailbox::new(w)))
                .collect()
        } else {
            Vec::new()
        };
        let staging = Staging {
            boxes,
            produces: init.produces.clone(),
            counts: full.iter().map(|&f| AtomicU32::new(f)).collect(),
            full,
            pair_words,
            onchip: init.onchip,
            bytes: AtomicU64::new(0),
            frames_sent: init.frames_sent.clone(),
            frames_received: init.frames_received.clone(),
        };
        staging.resync(init.channels, init.onchip);
        staging
    }

    /// The staging fabric, or `None` for the in-process path.
    pub(crate) fn boxes(&self) -> Option<&[Mailbox]> {
        if self.boxes.is_empty() {
            None
        } else {
            Some(&self.boxes)
        }
    }

    /// One parity buffer of pair `p`'s staging box.
    ///
    /// # Safety
    ///
    /// All producers of `p` must have flushed this cycle (the countdown
    /// reached zero through the calling thread's `AcqRel` decrement),
    /// and the slice must be dropped before the caller publishes its
    /// epoch.
    pub(crate) unsafe fn frame(&self, p: usize, parity: usize) -> &[u64] {
        // SAFETY: epoch invariant (`EpochSync`) — the pair's producers
        // are the caller's neighbours: every one of them has finished
        // this cycle's flush (the caller's contract), and none starts
        // the next cycle's before the caller publishes, so no writer of
        // this parity exists while the slice lives.
        unsafe { self.boxes[self.onchip + p].read(parity) }
    }

    /// Words in one parity buffer of pair `p`.
    pub(crate) fn words(&self, p: usize) -> usize {
        self.pair_words[p]
    }

    /// Registers `tile`'s flush; calls `on_ready(pair)` for each pair
    /// whose countdown it completed (crediting the frame's bytes), and
    /// re-arms that pair for the next cycle.
    pub(crate) fn tile_flushed(&self, tile: usize, mut on_ready: impl FnMut(usize)) {
        for &p in &self.produces[tile] {
            let p = p as usize;
            if self.counts[p].fetch_sub(1, Ordering::AcqRel) == 1 {
                self.bytes
                    .fetch_add(self.pair_words[p] as u64 * 8, Ordering::Relaxed);
                self.frames_sent.inc();
                on_ready(p);
                // Safe to re-arm here: the pair's producers are mutual
                // neighbours, so none starts the next cycle's flushes
                // before this worker has published this cycle's epoch.
                self.counts[p].store(self.full[p], Ordering::Release);
            }
        }
    }

    /// Mirrors the consumer boxes into the staging fabric, both
    /// parities — at build, and again after a restore or lane fork
    /// rewrote the consumer-side mailboxes. No-op when unstaged.
    ///
    /// Caller contract: no worker is in flight (called from the
    /// single-threaded build, or between runs).
    pub(crate) fn resync(&self, channels: &[Mailbox], onchip: usize) {
        if self.boxes.is_empty() {
            return;
        }
        for (p, &words) in self.pair_words.iter().enumerate() {
            for parity in 0..2 {
                // SAFETY: no worker is in flight (the caller's
                // contract), so under the epoch invariant (`EpochSync`)
                // nothing else reads or writes either fabric; both
                // boxes hold `words` words per parity.
                unsafe {
                    let src = channels[onchip + p].read(parity);
                    std::ptr::copy_nonoverlapping(
                        src.as_ptr(),
                        self.boxes[self.onchip + p].write_base(parity),
                        words,
                    );
                }
            }
        }
    }

    /// Total bytes credited so far.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Credits `n` received pair frames.
    pub(crate) fn credit_recvs(&self, n: u64) {
        self.frames_received.add(n);
    }
}

#[cfg(test)]
mod tests {
    use super::TransportChoice;

    /// Exactly the two backends' names parse — the removed
    /// shared-memory backend's do not, so a stale `PARENDI_TRANSPORT`
    /// reaches the warning in `from_env` instead of a silent default.
    #[test]
    fn only_the_two_backend_names_parse() {
        assert_eq!(
            TransportChoice::parse("inproc"),
            Some(TransportChoice::InProcess)
        );
        assert_eq!(TransportChoice::parse("tcp"), Some(TransportChoice::Tcp));
        for stale in ["shm", "shmem", "shared", "shared-mem", "TCP", " tcp", ""] {
            assert_eq!(TransportChoice::parse(stale), None, "{stale:?}");
        }
        for choice in [TransportChoice::InProcess, TransportChoice::Tcp] {
            assert_eq!(TransportChoice::parse(choice.name()), Some(choice));
        }
    }
}
