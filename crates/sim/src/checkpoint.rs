//! Versioned, checksummed engine snapshots: crash-safe checkpoint and
//! restore for the BSP and gang engines.
//!
//! A [`Snapshot`] captures the *complete* mid-run state of an engine at
//! a run boundary — every tile's combinational arena, packed scratch,
//! register file and array copies, **both** parities of every
//! double-buffered mailbox, the input buffer, the cycle count, and the
//! lane active/retired bookkeeping — so that restoring it into a
//! freshly constructed engine (same circuit, partition and lane shape)
//! continues bit-identically to a run that was never interrupted. The
//! transport backend does *not* need to match: the fabric contents are
//! backend-independent, and staged backends re-sync their staging
//! mirrors on restore.
//!
//! # On-disk format
//!
//! Little-endian throughout:
//!
//! ```text
//! magic     4 bytes   "PDCK"
//! version   u32       SNAPSHOT_VERSION
//! length    u64       total file length in bytes (truncation check)
//! payload   ...       fingerprint + state sections (see below)
//! checksum  u64       FNV-1a 64 over everything before it
//! ```
//!
//! The payload starts with an engine **fingerprint** (circuit name,
//! lane count, packed word count, layout word, and the exact word
//! counts of every tile buffer, mailbox and the input buffer), and the
//! state section is those buffers in the engine's one walk order
//! (`exec::state_io`): each tile's arena, packed scratch, register file
//! and array copies, then both parities of every mailbox, then the
//! input buffer. The
//! layout word is 1 for every gang — strided state is word-interleaved
//! from two lanes up — and 0 at one lane; a gang snapshot carrying 0
//! predates the single layout and is refused as a shape mismatch.
//! [`Snapshot::read`] validates magic, version, length and checksum;
//! the engine's `restore` additionally validates the fingerprint
//! against itself and refuses mismatched shapes — a snapshot can never
//! be silently applied to the wrong engine.
//!
//! # Versioning
//!
//! [`SNAPSHOT_VERSION`] bumps on any incompatible layout change; old
//! snapshots are rejected with [`SnapshotError::BadVersion`] rather
//! than misread. There is deliberately no migration machinery — a
//! snapshot is a crash-recovery artifact, not an archival format.
//!
//! Version 2: a one-lane engine allocates its arena slots in schedule
//! order (see `engine::frontend::schedule`), so a version-1
//! one-lane arena — constants included — sits at different offsets,
//! while the fingerprint compares only buffer *sizes* and would have
//! let it through.

use parendi_core::key::fnv1a;
use std::fmt;
use std::path::{Path, PathBuf};

/// Current snapshot format version (see the module docs).
pub const SNAPSHOT_VERSION: u32 = 2;

/// File magic ("PDCK").
const MAGIC: [u8; 4] = *b"PDCK";

/// Sentinel for "lane still running" in the serialized retire stamps.
const RUNNING: u64 = u64::MAX;

/// Why a snapshot failed to load, decode, or apply.
#[derive(Debug)]
pub enum SnapshotError {
    /// A filesystem read or write failed.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    BadVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The byte stream is shorter than its encoded length claims (a
    /// partially written or truncated file).
    Truncated,
    /// The stored checksum does not match the payload (corruption).
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The snapshot's engine fingerprint does not match the engine it
    /// is being restored into (wrong circuit, lane count, layout, …).
    ShapeMismatch(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::BadVersion { found, expected } => {
                write!(f, "snapshot version {found}, this build reads {expected}")
            }
            SnapshotError::Truncated => write!(f, "truncated snapshot"),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            SnapshotError::ShapeMismatch(why) => {
                write!(f, "snapshot does not fit this engine: {why}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Buffers every tile owns ahead of its array copies: the arena, the
/// packed scratch, the register file. Part of the format — a new
/// per-tile buffer is a version bump.
const TILE_FIXED_BUFS: usize = 3;

/// The engine shape a snapshot was taken from. Restore refuses any
/// mismatch — every field participates in equality.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Fingerprint {
    pub circuit: String,
    pub lanes: u32,
    pub pw: u32,
    /// The format's layout word: `lanes >= 2` on every engine this
    /// build constructs (see the module docs).
    pub word_major: bool,
    pub onchip: u32,
    /// Array copies each tile holds (it owns `TILE_FIXED_BUFS` + that
    /// many of the buffers below).
    pub tile_arrays: Vec<u32>,
    /// Word count of every stateful buffer, in walk order: each tile's
    /// buffers, both parities of each mailbox, the input buffer.
    pub buf_words: Vec<u64>,
}

impl Fingerprint {
    /// Describes the first difference from `engine`, or `Ok` when the
    /// shapes agree exactly.
    pub(crate) fn matches(&self, engine: &Fingerprint) -> Result<(), SnapshotError> {
        let err = |why: String| Err(SnapshotError::ShapeMismatch(why));
        if self.circuit != engine.circuit {
            return err(format!(
                "circuit {:?} vs engine {:?}",
                self.circuit, engine.circuit
            ));
        }
        if self.lanes != engine.lanes {
            return err(format!("{} lanes vs engine {}", self.lanes, engine.lanes));
        }
        if self.pw != engine.pw || self.word_major != engine.word_major {
            return err(format!(
                "layout (pw {}, word_major {}) vs engine (pw {}, word_major {})",
                self.pw, self.word_major, engine.pw, engine.word_major
            ));
        }
        if self != engine {
            return err("tile/mailbox word counts differ (different partition?)".into());
        }
        Ok(())
    }
}

/// A complete, restorable capture of an engine's mid-run state (see
/// the module docs for the format and the guarantees).
///
/// Produced by `BspSimulator::snapshot` / `GangSimulator::snapshot`
/// (or periodically via `PARENDI_CHECKPOINT`); applied by the matching
/// `restore`. The byte codecs ([`to_bytes`](Self::to_bytes) /
/// [`from_bytes`](Self::from_bytes)) and the file helpers
/// ([`write`](Self::write) / [`read`](Self::read)) round-trip exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    pub(crate) fingerprint: Fingerprint,
    pub(crate) cycle: u64,
    /// The stateful buffers, in the order of `fingerprint.buf_words`.
    pub(crate) bufs: Vec<Vec<u64>>,
    pub(crate) active: Vec<u32>,
    pub(crate) retired: Vec<u64>,
    /// Per lane: retire cycle, or [`RUNNING`] while active.
    pub(crate) retired_at: Vec<u64>,
}

impl Snapshot {
    /// The BSP cycle the engine had completed when this snapshot was
    /// taken (a restored engine resumes from here).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Gang lane count of the captured engine (1 for a BSP engine).
    pub fn lanes(&self) -> u32 {
        self.fingerprint.lanes
    }

    /// Name of the captured circuit.
    pub fn circuit(&self) -> &str {
        &self.fingerprint.circuit
    }

    /// Serializes to the on-disk byte format (see the module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.bytes(&MAGIC);
        w.u32(SNAPSHOT_VERSION);
        // Total-length slot, patched below once the payload is known.
        w.u64(0);
        let fp = &self.fingerprint;
        w.str(&fp.circuit);
        w.u32(fp.lanes);
        w.u32(fp.pw);
        w.u32(fp.word_major as u32);
        // Walk order is tiles, mailboxes (each parity), inputs; the
        // format leads with the input and one-per-mailbox counts.
        let tile_bufs: usize = fp
            .tile_arrays
            .iter()
            .map(|&n| TILE_FIXED_BUFS + n as usize)
            .sum();
        let (tiles, rest) = fp.buf_words.split_at(tile_bufs);
        let (mail, input) = rest.split_at(rest.len() - 1);
        w.u64(input[0]);
        w.u32(fp.onchip);
        w.u64_slice(&mail.iter().step_by(2).copied().collect::<Vec<_>>());
        w.u32(fp.tile_arrays.len() as u32);
        let mut tiles = tiles.iter();
        for &n in &fp.tile_arrays {
            for &fixed in tiles.by_ref().take(TILE_FIXED_BUFS) {
                w.u64(fixed);
            }
            let arrays: Vec<u64> = tiles.by_ref().take(n as usize).copied().collect();
            w.u64_slice(&arrays);
        }
        w.u64(self.cycle);
        for buf in &self.bufs {
            w.words(buf);
        }
        w.u32(self.active.len() as u32);
        for &l in &self.active {
            w.u32(l);
        }
        w.words(&self.retired);
        w.u64_slice(&self.retired_at);
        let total = (w.0.len() + 8) as u64;
        w.0[8..16].copy_from_slice(&total.to_le_bytes());
        let sum = fnv1a(&w.0);
        w.u64(sum);
        w.0
    }

    /// Decodes the byte format, validating magic, version, length and
    /// checksum (in that order, so each corruption mode reports its own
    /// error).
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < 24 {
            return Err(SnapshotError::Truncated);
        }
        if bytes[0..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let total = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
        if bytes.len() < total {
            return Err(SnapshotError::Truncated);
        }
        let bytes = &bytes[..total];
        let stored = u64::from_le_bytes(bytes[total - 8..].try_into().expect("8 bytes"));
        let computed = fnv1a(&bytes[..total - 8]);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        let mut r = Reader {
            bytes: &bytes[..total - 8],
            pos: 16,
        };
        let circuit = r.str()?;
        let lanes = r.u32()?;
        let pw = r.u32()?;
        let word_major = r.u32()? != 0;
        let input_words = r.u64()?;
        let onchip = r.u32()?;
        let channel_words = r.u64_vec()?;
        let mut tile_arrays = Vec::new();
        let mut buf_words = Vec::new();
        for _ in 0..r.u32()? {
            for _ in 0..TILE_FIXED_BUFS {
                buf_words.push(r.u64()?);
            }
            let arrays = r.u64_vec()?;
            tile_arrays.push(arrays.len() as u32);
            buf_words.extend(arrays);
        }
        buf_words.extend(channel_words.iter().flat_map(|&n| [n, n]));
        buf_words.push(input_words);
        let fingerprint = Fingerprint {
            circuit,
            lanes,
            pw,
            word_major,
            onchip,
            tile_arrays,
            buf_words,
        };
        let cycle = r.u64()?;
        let mut bufs = Vec::with_capacity(fingerprint.buf_words.len());
        for &n in &fingerprint.buf_words {
            bufs.push(r.words(n)?);
        }
        let nactive = r.u32()? as usize;
        let mut active = Vec::with_capacity(nactive);
        for _ in 0..nactive {
            active.push(r.u32()?);
        }
        let retired = r.words(fingerprint.pw as u64)?;
        let retired_at = r.u64_vec()?;
        Ok(Snapshot {
            fingerprint,
            cycle,
            bufs,
            active,
            retired,
            retired_at,
        })
    }

    /// Writes the snapshot to `path` atomically (a unique temp file in
    /// the same directory, then rename), so a crash mid-write can never
    /// leave a half-written file under the final name.
    pub fn write(&self, path: &Path) -> Result<(), SnapshotError> {
        let tmp = match path.file_name().and_then(|n| n.to_str()) {
            Some(name) => path.with_file_name(format!(".{name}.tmp.{}", std::process::id())),
            None => {
                return Err(SnapshotError::Io(std::io::Error::other(
                    "snapshot path has no file name",
                )))
            }
        };
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and validates a snapshot written by [`write`](Self::write).
    pub fn read(path: impl AsRef<Path>) -> Result<Snapshot, SnapshotError> {
        Self::from_bytes(&std::fs::read(path.as_ref())?)
    }

    /// Encodes per-lane retire stamps (`None` = running).
    pub(crate) fn encode_retired_at(stamps: &[Option<u64>]) -> Vec<u64> {
        stamps.iter().map(|s| s.unwrap_or(RUNNING)).collect()
    }

    /// Decodes per-lane retire stamps.
    pub(crate) fn decode_retired_at(&self) -> Vec<Option<u64>> {
        self.retired_at
            .iter()
            .map(|&c| (c != RUNNING).then_some(c))
            .collect()
    }
}

/// Parses the `PARENDI_CHECKPOINT=path:every_n_cycles` knob. `None`
/// when unset; a malformed value warns once and disables (a typo must
/// not silently drop crash protection *and* must not abort a run).
pub(crate) fn auto_checkpoint_from_env() -> Option<(PathBuf, u64)> {
    let v = std::env::var("PARENDI_CHECKPOINT").ok()?;
    let parsed = v.rsplit_once(':').and_then(|(path, every)| {
        let every: u64 = every.parse().ok()?;
        (every > 0 && !path.is_empty()).then(|| (PathBuf::from(path), every))
    });
    if parsed.is_none() {
        eprintln!("[checkpoint] ignoring malformed PARENDI_CHECKPOINT={v:?} (want path:every_n)");
    }
    parsed
}

/// Little-endian byte sink for [`Snapshot::to_bytes`].
#[derive(Default)]
struct Writer(Vec<u8>);

impl Writer {
    fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// Length-prefixed u64 sequence.
    fn u64_slice(&mut self, vs: &[u64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u64(v);
        }
    }

    /// Un-prefixed word run (length known from the fingerprint).
    fn words(&mut self, vs: &[u64]) {
        for &v in vs {
            self.u64(v);
        }
    }
}

/// Bounds-checked little-endian cursor for [`Snapshot::from_bytes`].
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.u32()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| SnapshotError::Truncated)
    }

    fn u64_vec(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.u32()? as u64;
        self.words(n)
    }

    fn words(&mut self, n: u64) -> Result<Vec<u64>, SnapshotError> {
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tiles (one array, none), two mailboxes, three input words.
    fn sample() -> Snapshot {
        let bufs: Vec<Vec<u64>> = vec![
            (0..8).collect(),
            vec![0xaa, 0x55],
            (100..105).collect(),
            vec![9, 8, 7, 6],
            vec![1, 2],
            vec![],
            vec![3],
            (0..6).collect(),
            (6..12).collect(),
            vec![7; 10],
            vec![8; 10],
            vec![11, 12, 13],
        ];
        Snapshot {
            fingerprint: Fingerprint {
                circuit: "rand7".into(),
                lanes: 4,
                pw: 1,
                word_major: false,
                onchip: 1,
                tile_arrays: vec![1, 0],
                buf_words: bufs.iter().map(|b| b.len() as u64).collect(),
            },
            cycle: 41,
            bufs,
            active: vec![0, 1, 3],
            retired: vec![0b100],
            retired_at: vec![RUNNING, RUNNING, 17, RUNNING],
        }
    }

    /// The byte codec round-trips every section exactly.
    #[test]
    fn bytes_round_trip() {
        let s = sample();
        let decoded = Snapshot::from_bytes(&s.to_bytes()).expect("round trip");
        assert_eq!(decoded, s);
        assert_eq!(decoded.cycle(), 41);
        assert_eq!(decoded.lanes(), 4);
        assert_eq!(decoded.circuit(), "rand7");
        assert_eq!(decoded.decode_retired_at()[2], Some(17));
        assert_eq!(decoded.decode_retired_at()[3], None);
    }

    /// The `PDCK` bytes are a stable format: the sample's length and
    /// FNV-1a checksum (the shared `parendi_core::key::fnv1a`) are
    /// pinned to the values the first format-2 build wrote.
    #[test]
    fn golden_checksum_is_pinned() {
        let bytes = sample().to_bytes();
        assert_eq!(bytes.len(), 669);
        let sum = u64::from_le_bytes(bytes[661..].try_into().expect("8 bytes"));
        assert_eq!(sum, 0x076e_e25e_13cd_961f);
    }

    /// Each corruption mode reports its own typed error: bad magic,
    /// wrong version, truncation, and a flipped payload byte.
    #[test]
    fn corruption_modes_are_typed() {
        let bytes = sample().to_bytes();

        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::BadMagic)
        ));

        // A version-1 header: its one-lane arenas use the node-id slot
        // order, so it is refused outright, never misread.
        let mut bad = bytes.clone();
        bad[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::BadVersion {
                found: 1,
                expected: SNAPSHOT_VERSION
            })
        ));

        for cut in [bytes.len() - 1, bytes.len() / 2, 20, 5] {
            assert!(
                matches!(
                    Snapshot::from_bytes(&bytes[..cut]),
                    Err(SnapshotError::Truncated)
                ),
                "cut at {cut}"
            );
        }

        // Flip one payload byte: the checksum must catch it.
        let mut bad = bytes.clone();
        bad[40] ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        assert!(Snapshot::from_bytes(&bytes).is_ok());
    }

    /// Fingerprint mismatches name the first differing dimension.
    #[test]
    fn fingerprint_mismatch_is_descriptive() {
        let a = sample().fingerprint;
        let mut b = a.clone();
        assert!(a.matches(&b).is_ok());
        b.lanes = 8;
        let err = a.matches(&b).unwrap_err();
        assert!(err.to_string().contains("lanes"), "{err}");
        let mut c = a.clone();
        c.circuit = "other".into();
        assert!(a.matches(&c).unwrap_err().to_string().contains("other"));
        let mut d = a.clone();
        d.buf_words[0] = 99;
        assert!(a.matches(&d).is_err());
    }

    /// Atomic file write + read round-trip; a stale temp file never
    /// shadows the real snapshot.
    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("parendi-ckpt-test-{}.snap", std::process::id()));
        let s = sample();
        s.write(&path).expect("write snapshot");
        let back = Snapshot::read(&path).expect("read snapshot");
        assert_eq!(back, s);
        let _ = std::fs::remove_file(&path);
    }

    /// The env knob parser accepts `path:n` and rejects junk.
    #[test]
    fn env_knob_shape() {
        // Not set in the test environment: must be None (tests must not
        // set the global var — other tests run in parallel).
        assert!(std::env::var("PARENDI_CHECKPOINT").is_err());
        assert!(auto_checkpoint_from_env().is_none());
    }
}
