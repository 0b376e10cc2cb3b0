//! TCP backend: completed pair aggregates travel as length-prefixed
//! frames over loopback sockets, one stream per ordered chip pair.
//!
//! Frame wire format (little-endian):
//!
//! ```text
//! magic  u32   0x50524e44 ("PRND")
//! pair   u32   ordered-pair index
//! cycle  u64   the BSP cycle the frame belongs to
//! words  u32   payload length in u64 words
//! data   words × u64
//! ```
//!
//! Each pair gets a dedicated writer thread fed through an unbounded
//! channel, so a publishing worker never blocks on a full socket
//! buffer — the one-cycle-ahead bound between neighbours keeps
//! in-flight traffic to one frame per pair, but a single frame can
//! exceed the kernel's socket buffers and a synchronous `write_all`
//! from the worker could then deadlock against its own pending
//! receives. Receives are plain
//! blocking reads on the consumer end of the pair's stream.
//!
//! Failure behavior: connection setup and the frame path surface
//! typed [`TransportError`]s — a refused connect, a stalled handshake,
//! or a receive that exceeds the `PARENDI_TRANSPORT_TIMEOUT_MS` budget
//! (default 30 s, `0` = wait forever) names the failing operation
//! before the worker panics and the engine aborts (its neighbours
//! would otherwise wait forever). [`decode_frame`] itself is total
//! and unit-tested on malformed input.

use super::{transport_timeout, ChipTransport, Staging, TransportError, TransportInit};
use crate::engine::sync::Mailbox;
use parendi_telemetry::{SpanKind, TraceEvent, NO_TILE};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frame magic ("PRND" little-endian).
const MAGIC: u32 = 0x5052_4e44;
/// Header bytes: magic + pair + cycle + words.
pub(crate) const HEADER_BYTES: usize = 20;

/// Encodes a frame header.
pub(crate) fn encode_header(pair: u32, cycle: u64, words: u32) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    h[4..8].copy_from_slice(&pair.to_le_bytes());
    h[8..16].copy_from_slice(&cycle.to_le_bytes());
    h[16..20].copy_from_slice(&words.to_le_bytes());
    h
}

/// Decodes and validates a frame header against the receiver's
/// expectations. Returns the payload word count or a description of
/// the corruption. Total: never panics, any byte salad is an `Err`.
pub(crate) fn decode_frame(
    header: &[u8],
    want_pair: u32,
    want_cycle: u64,
    max_words: u32,
) -> Result<u32, String> {
    if header.len() < HEADER_BYTES {
        return Err(format!(
            "short frame header: {} of {HEADER_BYTES} bytes",
            header.len()
        ));
    }
    let word = |r: std::ops::Range<usize>| -> u32 {
        u32::from_le_bytes(header[r].try_into().expect("4-byte slice"))
    };
    let magic = word(0..4);
    if magic != MAGIC {
        return Err(format!("bad frame magic {magic:#010x}"));
    }
    let pair = word(4..8);
    if pair != want_pair {
        return Err(format!("frame for pair {pair}, expected {want_pair}"));
    }
    let cycle = u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));
    if cycle != want_cycle {
        return Err(format!("frame for cycle {cycle}, expected {want_cycle}"));
    }
    let words = word(16..20);
    if words > max_words {
        return Err(format!("oversized frame: {words} words > {max_words}"));
    }
    Ok(words)
}

/// The TCP backend (see the module docs for the wire format).
pub(crate) struct Tcp {
    staging: Staging,
    /// Per pair: the sender half feeding the pair's writer thread.
    /// Dropped on engine drop so the writers exit.
    senders: Vec<Option<mpsc::Sender<Vec<u8>>>>,
    /// Per pair: the consumer end of the pair's stream plus a reusable
    /// receive scratch buffer (uncontended — one worker per pair).
    recvs: Vec<Mutex<(TcpStream, Vec<u8>)>>,
    /// Per worker: the pair indices it receives.
    recv_of: Vec<Vec<u32>>,
    writers: Vec<JoinHandle<()>>,
    /// The armed read-timeout budget in ms (0 = unbounded), echoed in
    /// timeout diagnostics.
    budget_ms: u64,
}

impl Tcp {
    /// Builds the backend, converting any setup fault into a panic
    /// naming the failed operation (setup runs on the constructing
    /// thread, before any worker exists — there is nobody to hand a
    /// `Result` to once the engine is running).
    pub(crate) fn new(init: TransportInit<'_>) -> Self {
        Self::try_new(init).unwrap_or_else(|e| panic!("tcp transport setup failed: {e}"))
    }

    /// Fallible setup path: bind/connect/handshake with the
    /// `PARENDI_TRANSPORT_TIMEOUT_MS` budget applied to each connect
    /// and to the accept + handshake loop.
    fn try_new(init: TransportInit<'_>) -> Result<Self, TransportError> {
        let staging = Staging::new(&init, true);
        let npairs = init.pairs.len();
        let timeout = transport_timeout();
        let budget_ms = timeout.map_or(0, |d| d.as_millis() as u64);
        // One loopback stream per ordered pair: connect-then-accept
        // with a pair-id handshake (accept order is not guaranteed to
        // match connect order).
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| TransportError::io("bind loopback listener", e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| TransportError::io("query listener address", e))?;
        let mut send_streams: Vec<Option<TcpStream>> = Vec::with_capacity(npairs);
        for p in 0..npairs {
            let mut s = match timeout {
                Some(d) => TcpStream::connect_timeout(&addr, d).map_err(|e| {
                    if e.kind() == ErrorKind::TimedOut {
                        TransportError::Timeout {
                            context: format!("connect stream for pair {p}"),
                            ms: budget_ms,
                        }
                    } else {
                        TransportError::io(format!("connect stream for pair {p}"), e)
                    }
                })?,
                None => TcpStream::connect(addr)
                    .map_err(|e| TransportError::io(format!("connect stream for pair {p}"), e))?,
            };
            s.set_nodelay(true)
                .map_err(|e| TransportError::io(format!("set nodelay on pair {p}"), e))?;
            s.write_all(&(p as u32).to_le_bytes())
                .map_err(|e| TransportError::io(format!("send handshake for pair {p}"), e))?;
            send_streams.push(Some(s));
        }
        // Accept loop under the same budget: a nonblocking listener
        // polled against a deadline, so a peer that connects but never
        // completes the handshake cannot hang setup forever.
        let deadline = timeout.map(|d| Instant::now() + d);
        if deadline.is_some() {
            listener
                .set_nonblocking(true)
                .map_err(|e| TransportError::io("set listener nonblocking", e))?;
        }
        let mut recv_streams: Vec<Option<TcpStream>> = (0..npairs).map(|_| None).collect();
        for _ in 0..npairs {
            let mut s = loop {
                match listener.accept() {
                    Ok((s, _)) => break s,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            return Err(TransportError::Timeout {
                                context: "accept pair streams".into(),
                                ms: budget_ms,
                            });
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(TransportError::io("accept pair stream", e)),
                }
            };
            s.set_nonblocking(false)
                .map_err(|e| TransportError::io("set accepted stream blocking", e))?;
            // The read-timeout stays armed for the run: every frame
            // receive inherits the same budget (see `recv_frame`).
            s.set_read_timeout(timeout)
                .map_err(|e| TransportError::io("set read timeout", e))?;
            let mut id = [0u8; 4];
            s.read_exact(&mut id).map_err(|e| {
                if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) {
                    TransportError::Timeout {
                        context: "read pair handshake".into(),
                        ms: budget_ms,
                    }
                } else {
                    TransportError::io("read pair handshake", e)
                }
            })?;
            let p = u32::from_le_bytes(id) as usize;
            if p >= npairs {
                return Err(TransportError::Handshake(format!(
                    "peer announced pair {p}, only {npairs} pairs exist"
                )));
            }
            if recv_streams[p].is_some() {
                return Err(TransportError::Handshake(format!(
                    "duplicate handshake for pair {p}"
                )));
            }
            recv_streams[p] = Some(s);
        }
        // A dedicated writer per pair: publishing must never block a
        // worker on socket backpressure (see the module docs).
        let mut senders = Vec::with_capacity(npairs);
        let mut writers = Vec::with_capacity(npairs);
        for (p, stream) in send_streams.iter_mut().enumerate() {
            let mut stream = stream.take().expect("send stream built above");
            let (tx, rx) = mpsc::channel::<Vec<u8>>();
            senders.push(Some(tx));
            // When tracing, each writer gets its own track: the socket
            // writes happen off the worker timeline, so their spans
            // cannot live on a worker's track without overlapping it.
            let track = init
                .trace
                .as_ref()
                .map(|sink| (sink.register(&format!("transport-tcp-{p}")), sink.epoch()));
            writers.push(
                std::thread::Builder::new()
                    .name(format!("transport-tcp-{p}"))
                    .spawn(move || {
                        while let Ok(frame) = rx.recv() {
                            let start = track.as_ref().map(|_| std::time::Instant::now());
                            if stream.write_all(&frame).is_err() {
                                // Peer gone: the receiving worker will
                                // panic on its short read and abort
                                // the engine; just exit.
                                return;
                            }
                            if let (Some((buf, epoch)), Some(s)) = (&track, start) {
                                // Frame header bytes 8..16 carry the
                                // cycle (see `encode_header`).
                                let cycle =
                                    u64::from_le_bytes(frame[8..16].try_into().expect("header"));
                                buf.push(TraceEvent {
                                    kind: SpanKind::TransportSend,
                                    tile: NO_TILE,
                                    cycle,
                                    start_ns: s.duration_since(*epoch).as_nanos() as u64,
                                    dur_ns: s.elapsed().as_nanos() as u64,
                                });
                            }
                        }
                    })
                    .map_err(|e| {
                        TransportError::io(format!("spawn writer thread for pair {p}"), e)
                    })?,
            );
        }
        let recvs = recv_streams
            .into_iter()
            .map(|s| Mutex::new((s.expect("all pairs handshaken above"), Vec::new())))
            .collect();
        Ok(Tcp {
            staging,
            senders,
            recvs,
            recv_of: init.recv_of,
            writers,
            budget_ms,
        })
    }
}

/// Receives one frame for `pair` at `cycle` from `stream` into
/// `scratch` (resized to the payload), returning the payload word
/// count. A read that trips the armed socket read-timeout becomes
/// [`TransportError::Timeout`]; any other I/O fault becomes
/// [`TransportError::Io`]; header corruption becomes
/// [`TransportError::Frame`]. Generic over [`Read`] so the
/// timeout/corruption paths are unit-testable without sockets.
pub(crate) fn recv_frame(
    stream: &mut impl Read,
    scratch: &mut Vec<u8>,
    pair: u32,
    cycle: u64,
    max_words: u32,
    budget_ms: u64,
) -> Result<u32, TransportError> {
    let classify = |context: &str, e: std::io::Error| {
        if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) {
            TransportError::Timeout {
                context: format!("{context} for pair {pair}"),
                ms: budget_ms,
            }
        } else {
            TransportError::io(format!("{context} for pair {pair}"), e)
        }
    };
    let mut header = [0u8; HEADER_BYTES];
    stream
        .read_exact(&mut header)
        .map_err(|e| classify("read frame header", e))?;
    let got = decode_frame(&header, pair, cycle, max_words).map_err(TransportError::Frame)?;
    scratch.resize(got as usize * 8, 0);
    stream
        .read_exact(scratch)
        .map_err(|e| classify("read frame payload", e))?;
    Ok(got)
}

impl ChipTransport for Tcp {
    fn staging(&self) -> Option<&[Mailbox]> {
        self.staging.boxes()
    }

    fn tile_flushed(&self, tile: usize, parity: usize, cycle: u64) {
        self.staging.tile_flushed(tile, |p| {
            // SAFETY: the countdown completed through this thread's
            // AcqRel decrement — every producer's staging write is
            // visible and none remain.
            let payload = unsafe { self.staging.frame(p, parity) };
            let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len() * 8);
            frame.extend_from_slice(&encode_header(p as u32, cycle, payload.len() as u32));
            for &w in payload {
                frame.extend_from_slice(&w.to_le_bytes());
            }
            let sent = self.senders[p]
                .as_ref()
                .expect("senders live until drop")
                .send(frame);
            if sent.is_err() {
                // The writer exits only after a failed socket write.
                panic!("transport pair {p}: writer thread gone (peer closed the stream)");
            }
        });
    }

    fn complete_recvs(
        &self,
        who: usize,
        parity: usize,
        cycle: u64,
        channels: &[Mailbox],
        onchip: usize,
    ) {
        self.staging.credit_recvs(self.recv_of[who].len() as u64);
        for &p in &self.recv_of[who] {
            let p = p as usize;
            let words = self.staging.words(p);
            let mut guard = self.recvs[p].lock().expect("uncontended recv stream");
            let (stream, scratch) = &mut *guard;
            recv_frame(
                stream,
                scratch,
                p as u32,
                cycle,
                words as u32,
                self.budget_ms,
            )
            .unwrap_or_else(|e| panic!("{e}"));
            // SAFETY: epoch invariant (`EpochSync`) — the box's consumers
            // are this worker's neighbours: none reads `parity` before
            // observing the epoch this worker publishes after these
            // receives, and this worker is the pair's sole receiver.
            let dst = unsafe { channels[onchip + p].write_base(parity) };
            for (k, chunk) in scratch.chunks_exact(8).enumerate() {
                // SAFETY: k < scratch words <= words <= the box allocation.
                unsafe {
                    *dst.add(k) = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                }
            }
        }
    }

    fn bytes_sent(&self) -> u64 {
        self.staging.bytes()
    }

    fn resync(&self, channels: &[Mailbox], onchip: usize) {
        // The sockets are drained between runs (at most one frame per
        // pair is ever in flight, and all are consumed before a run
        // returns), so only the staging mirror needs
        // rebuilding from the restored consumer boxes.
        self.staging.resync(channels, onchip);
    }

    fn name(&self) -> &'static str {
        "tcp"
    }
}

impl Drop for Tcp {
    fn drop(&mut self) {
        for tx in &mut self.senders {
            tx.take();
        }
        for w in self.writers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Malformed and truncated frames must decode to errors, never
    /// panic or sneak through — the receiving worker turns the error
    /// into a controlled panic.
    #[test]
    fn malformed_frames_are_rejected() {
        let good = encode_header(3, 41, 16);
        assert_eq!(decode_frame(&good, 3, 41, 64), Ok(16));

        // Short header (truncated stream).
        assert!(decode_frame(&good[..HEADER_BYTES - 1], 3, 41, 64)
            .unwrap_err()
            .contains("short frame"));
        assert!(decode_frame(&[], 3, 41, 64).unwrap_err().contains("short"));

        // Corrupted magic.
        let mut bad = good;
        bad[0] ^= 0xff;
        assert!(decode_frame(&bad, 3, 41, 64)
            .unwrap_err()
            .contains("bad frame magic"));

        // Cross-wired pair.
        assert!(decode_frame(&good, 2, 41, 64)
            .unwrap_err()
            .contains("pair 3"));

        // Stale cycle (a skipped or replayed epoch).
        assert!(decode_frame(&good, 3, 40, 64)
            .unwrap_err()
            .contains("cycle 41"));

        // Payload larger than the pair aggregate.
        assert!(decode_frame(&good, 3, 41, 8)
            .unwrap_err()
            .contains("oversized"));
    }

    /// A reader that yields `n` bytes and then reports the socket
    /// read-timeout error a stalled `TcpStream` would.
    struct Stall {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for Stall {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(std::io::Error::new(ErrorKind::WouldBlock, "stalled"));
            }
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// A peer that stops sending mid-frame must surface as a typed
    /// timeout naming the budget, not a hang or a bare unwrap panic.
    #[test]
    fn stalled_reads_become_typed_timeouts() {
        let mut scratch = Vec::new();

        // Stall before the header: timeout on the header read.
        let mut s = Stall {
            data: Vec::new(),
            pos: 0,
        };
        match recv_frame(&mut s, &mut scratch, 7, 5, 64, 1234) {
            Err(TransportError::Timeout { context, ms }) => {
                assert!(context.contains("header"), "{context}");
                assert!(context.contains("pair 7"), "{context}");
                assert_eq!(ms, 1234);
            }
            other => panic!("expected timeout, got {other:?}"),
        }

        // Stall after the header: timeout on the payload read.
        let mut s = Stall {
            data: encode_header(7, 5, 2).to_vec(),
            pos: 0,
        };
        match recv_frame(&mut s, &mut scratch, 7, 5, 64, 50) {
            Err(TransportError::Timeout { context, .. }) => {
                assert!(context.contains("payload"), "{context}");
            }
            other => panic!("expected timeout, got {other:?}"),
        }

        // A corrupted header still classifies as a frame error.
        let mut bad = encode_header(7, 5, 2).to_vec();
        bad[0] ^= 0xff;
        bad.extend_from_slice(&[0u8; 16]);
        let mut s = Stall { data: bad, pos: 0 };
        assert!(matches!(
            recv_frame(&mut s, &mut scratch, 7, 5, 64, 50),
            Err(TransportError::Frame(_))
        ));

        // A complete frame decodes and fills the scratch buffer.
        let mut whole = encode_header(7, 5, 2).to_vec();
        whole.extend_from_slice(&1u64.to_le_bytes());
        whole.extend_from_slice(&2u64.to_le_bytes());
        let mut s = Stall {
            data: whole,
            pos: 0,
        };
        assert_eq!(recv_frame(&mut s, &mut scratch, 7, 5, 64, 50).unwrap(), 2);
        assert_eq!(scratch.len(), 16);
    }
}
