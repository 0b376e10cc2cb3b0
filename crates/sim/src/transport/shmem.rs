//! Shared-memory backend: completed pair aggregates are published
//! through a memory-mapped file on `/dev/shm` (falling back to the
//! temp dir), guarded by per-parity sequence words.
//!
//! Segment layout per ordered chip pair (64-bit words):
//!
//! ```text
//! [ seq0 | pad ×7 | seq1 | pad ×7 ][ buf0 (words) ][ buf1 (words) ]
//! ```
//!
//! `seq<p>` holds `cycle + 1` once `buf<p>` carries that cycle's
//! frame; publisher stores it `Release` after the copy, receiver spins
//! `Acquire` until it reaches the expected cycle. The two sequence
//! words sit a cache line apart so the parities never false-share.
//! The protocol is process-agnostic: [`ShmMap::open`] maps the same
//! file from another process, which the cross-process test below
//! exercises end to end (parent and child exchanging frames through
//! `/dev/shm` with the same acquire/release discipline).

use super::{ChipTransport, Staging, TransportInit};
use crate::engine::Mailbox;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Words in each pair segment's header (two cache-line-separated
/// sequence words).
const HDR_WORDS: usize = 16;

/// A memory-mapped file of `u64` words, shareable across processes.
pub(crate) struct ShmMap {
    ptr: *mut u64,
    words: usize,
    path: PathBuf,
    /// The creator unlinks the file on drop; openers leave it.
    owner: bool,
}

// SAFETY: the raw pointer targets a MAP_SHARED mapping; all
// cross-thread access goes through the atomic sequence words or
// through word ranges the publish/receive protocol hands off
// exclusively.
unsafe impl Send for ShmMap {}
unsafe impl Sync for ShmMap {}

#[cfg(unix)]
mod sys {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_SHARED: i32 = 1;

    unsafe extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    /// Maps `len` bytes of `file` shared read/write.
    pub(super) fn map_shared(file: &File, len: usize) -> *mut u8 {
        // SAFETY: fd is valid for the duration of the call; the kernel
        // validates the rest and returns MAP_FAILED on error.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        assert!(
            !std::ptr::eq(p, usize::MAX as *mut u8),
            "mmap of the shared-memory transport file failed"
        );
        p
    }

    /// Unmaps a mapping produced by [`map_shared`].
    pub(super) fn unmap(ptr: *mut u8, len: usize) {
        // SAFETY: ptr/len come from a successful map_shared.
        unsafe {
            munmap(ptr, len);
        }
    }
}

/// Whether a process with this pid is still running: true when
/// `/proc/<pid>` exists, and — safety first — also true when `/proc`
/// itself is absent (non-Linux hosts), so a sweep never removes a
/// live peer's segment just because liveness cannot be determined.
fn pid_alive(pid: u32) -> bool {
    if !std::path::Path::new("/proc").is_dir() {
        return true;
    }
    std::path::Path::new("/proc").join(pid.to_string()).exists()
}

/// Removes `parendi-shm-<pid>-<seq>` files in `dir` whose creating
/// process is gone — the debris a killed run leaves behind (`ShmMap`
/// unlinks on drop, but a `SIGKILL` or `process::exit` never runs the
/// drop). Files of live processes (including our own) and unrelated
/// names are left alone. Returns the number of segments removed.
fn sweep_stale(dir: &std::path::Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(rest) = name.to_str().and_then(|n| n.strip_prefix("parendi-shm-")) else {
            continue;
        };
        let Some(pid) = rest
            .split_once('-')
            .and_then(|(pid, _seq)| pid.parse::<u32>().ok())
        else {
            continue;
        };
        if pid == std::process::id() || pid_alive(pid) {
            continue;
        }
        if std::fs::remove_file(entry.path()).is_ok() {
            swept += 1;
        }
    }
    swept
}

impl ShmMap {
    /// The directory backing the mappings: `/dev/shm` when present
    /// (true shared memory), the temp dir otherwise.
    fn dir() -> PathBuf {
        let shm = PathBuf::from("/dev/shm");
        if shm.is_dir() {
            shm
        } else {
            std::env::temp_dir()
        }
    }

    /// Creates a zero-filled mapping of `words` u64s under a fresh
    /// name; the returned map unlinks the file on drop.
    #[cfg(unix)]
    pub(crate) fn create(words: usize) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        static SWEEP: std::sync::Once = std::sync::Once::new();
        // Once per process, clear segments orphaned by killed runs
        // before adding our own (a kill-resume workflow would
        // otherwise slowly fill /dev/shm).
        SWEEP.call_once(|| {
            let n = sweep_stale(&Self::dir());
            if n > 0 {
                eprintln!("[transport] swept {n} stale shared-memory segment(s)");
            }
        });
        let path = Self::dir().join(format!(
            "parendi-shm-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .expect("create shared-memory transport file");
        file.set_len((words * 8) as u64)
            .expect("size shared-memory transport file");
        let ptr = sys::map_shared(&file, words * 8) as *mut u64;
        ShmMap {
            ptr,
            words,
            path,
            owner: true,
        }
    }

    /// Maps an existing file created by [`ShmMap::create`] (typically
    /// from another process — exercised by the cross-process test).
    #[cfg(unix)]
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn open(path: PathBuf) -> Self {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .expect("open shared-memory transport file");
        let words = (file.metadata().expect("stat shm file").len() / 8) as usize;
        let ptr = sys::map_shared(&file, words * 8) as *mut u64;
        ShmMap {
            ptr,
            words,
            path,
            owner: false,
        }
    }

    #[cfg(not(unix))]
    pub(crate) fn create(_words: usize) -> Self {
        panic!("the shared-memory transport requires a unix host");
    }

    #[cfg(not(unix))]
    pub(crate) fn open(_path: PathBuf) -> Self {
        panic!("the shared-memory transport requires a unix host");
    }

    /// Filesystem path of the backing file (hand to another process —
    /// exercised by the cross-process test).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn path(&self) -> &PathBuf {
        &self.path
    }

    /// Atomic view of word `off` (a sequence word).
    pub(crate) fn seq(&self, off: usize) -> &AtomicU64 {
        assert!(off < self.words);
        // SAFETY: in-bounds, 8-aligned (mmap is page-aligned), and the
        // protocol only accesses sequence words atomically.
        unsafe { &*(self.ptr.add(off) as *const AtomicU64) }
    }

    /// Copies `src` into the mapping at word `off`.
    ///
    /// Caller contract: the protocol gives this thread exclusive write
    /// access to `[off, off + src.len())` (no published, unconsumed
    /// frame occupies it).
    pub(crate) fn write(&self, off: usize, src: &[u64]) {
        assert!(off + src.len() <= self.words);
        // SAFETY: in-bounds; exclusivity per the caller contract.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(off), src.len());
        }
    }

    /// Copies `n` words of the mapping at word `off` into `dst`.
    ///
    /// Caller contract: an `Acquire` load of the range's sequence word
    /// ordered the publisher's copy before this read.
    pub(crate) fn read_into(&self, off: usize, dst: *mut u64, n: usize) {
        assert!(off + n <= self.words);
        // SAFETY: in-bounds; visibility per the caller contract.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr.add(off), dst, n);
        }
    }
}

impl Drop for ShmMap {
    fn drop(&mut self) {
        #[cfg(unix)]
        sys::unmap(self.ptr as *mut u8, self.words * 8);
        if self.owner {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// The frame-wait deadline, read once per process (the same
/// `PARENDI_TRANSPORT_TIMEOUT_MS` budget the TCP backend honors).
fn spin_budget() -> Option<std::time::Duration> {
    static BUDGET: std::sync::OnceLock<Option<std::time::Duration>> = std::sync::OnceLock::new();
    *BUDGET.get_or_init(super::transport_timeout)
}

/// Spins until `seq` reaches `want` (Acquire), yielding periodically;
/// panics once the `PARENDI_TRANSPORT_TIMEOUT_MS` budget (default
/// 30 s, `0` waits forever) is exhausted — a missing frame means a
/// peer died, and a worker panic aborts the run rather than leaving
/// its neighbours waiting.
fn spin_until(seq: &AtomicU64, want: u64) {
    let start = std::time::Instant::now();
    let budget = spin_budget();
    let mut n = 0u32;
    loop {
        let got = seq.load(Ordering::Acquire);
        if got >= want {
            assert_eq!(got, want, "shared-memory frame sequence skipped ahead");
            return;
        }
        std::hint::spin_loop();
        n = n.wrapping_add(1);
        if n & 0x3fff == 0 {
            std::thread::yield_now();
            if let Some(b) = budget {
                assert!(
                    start.elapsed() < b,
                    "timed out waiting for shared-memory frame {want}: \
                     exceeded {} ms (PARENDI_TRANSPORT_TIMEOUT_MS)",
                    b.as_millis()
                );
            }
        }
    }
}

/// The shared-memory backend (see the module docs for the layout).
pub(crate) struct SharedMem {
    staging: Staging,
    map: ShmMap,
    /// Word offset of each pair's segment in the mapping.
    seg_off: Vec<usize>,
    /// Per worker: the pair indices it receives.
    recv_of: Vec<Vec<u32>>,
}

impl SharedMem {
    pub(crate) fn new(init: TransportInit<'_>) -> Self {
        let staging = Staging::new(&init, true);
        let mut seg_off = Vec::with_capacity(init.pairs.len());
        let mut off = 0usize;
        for p in 0..init.pairs.len() {
            seg_off.push(off);
            off += HDR_WORDS + 2 * staging.words(p);
        }
        let map = ShmMap::create(off.max(1));
        SharedMem {
            staging,
            map,
            seg_off,
            recv_of: init.recv_of,
        }
    }

    /// Word offset of pair `p`'s parity buffer.
    fn buf_off(&self, p: usize, parity: usize) -> usize {
        self.seg_off[p] + HDR_WORDS + parity * self.staging.words(p)
    }
}

impl ChipTransport for SharedMem {
    fn staging(&self) -> Option<&[Mailbox]> {
        self.staging.boxes()
    }

    fn tile_flushed(&self, tile: usize, parity: usize, cycle: u64) {
        self.staging.tile_flushed(tile, |p| {
            // SAFETY: the countdown completed through this thread's
            // AcqRel decrement — every producer's staging write is
            // visible and none remain.
            let frame = unsafe { self.staging.frame(p, parity) };
            self.map.write(self.buf_off(p, parity), frame);
            self.map
                .seq(self.seg_off[p] + parity * 8)
                .store(cycle + 1, Ordering::Release);
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
            spin_until(self.map.seq(self.seg_off[p] + parity * 8), cycle + 1);
            // SAFETY: epoch invariant (`EpochSync`) — the box's consumers
            // are this worker's neighbours: none reads `parity` before
            // observing the epoch this worker publishes after these
            // receives, and this worker is the pair's sole receiver.
            let dst = unsafe { channels[onchip + p].write_base(parity) };
            self.map
                .read_into(self.buf_off(p, parity), dst, self.staging.words(p));
        }
    }

    fn bytes_sent(&self) -> u64 {
        self.staging.bytes()
    }

    fn resync(&self, channels: &[Mailbox], onchip: usize, cycle: u64) {
        self.staging.resync(channels, onchip);
        // Rewind every pair's sequence words to the restored cycle:
        // `spin_until` asserts the *exact* expected sequence, so a
        // restore to an earlier cycle would otherwise trip the
        // "skipped ahead" check against the pre-restore value.
        // (The buffers themselves need no rewrite: every pair frame is
        // republished whole from the resynced staging before the next
        // receive consults it.)
        for &off in &self.seg_off {
            for parity in 0..2 {
                self.map
                    .seq(off + parity * 8)
                    .store(cycle, Ordering::Release);
            }
        }
    }

    fn name(&self) -> &'static str {
        "shm"
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    const CHILD_ENV: &str = "PARENDI_SHM_CHILD_PATH";

    /// Child half of `frames_cross_a_process_boundary`: inert unless
    /// spawned by the parent test with the handoff env var set.
    #[test]
    fn shm_child_entry() {
        let Ok(path) = std::env::var(CHILD_ENV) else {
            return;
        };
        let map = ShmMap::open(path.into());
        // Parent's frame: seq word 0, payload at words 16..24.
        spin_until(map.seq(0), 1);
        let mut payload = [0u64; 8];
        map.read_into(16, payload.as_mut_ptr(), 8);
        // Echo a transform at words 24..32, ack at seq word 8 — the
        // same store-Release / load-Acquire discipline the engine's
        // publish/receive path uses.
        let echo: Vec<u64> = payload.iter().map(|w| w.wrapping_mul(3) ^ 0xa5).collect();
        map.write(24, &echo);
        map.seq(8).store(1, Ordering::Release);
    }

    /// The mapping protocol must work across a real process boundary:
    /// the parent publishes a frame into `/dev/shm`, a freshly spawned
    /// child process opens the same file, consumes it, and echoes a
    /// transform back.
    #[test]
    fn frames_cross_a_process_boundary() {
        let map = ShmMap::create(32);
        let payload: Vec<u64> = (0..8)
            .map(|i| 0x1234_5678_9abc_def0u64.wrapping_add(i * 977))
            .collect();
        map.write(16, &payload);
        map.seq(0).store(1, Ordering::Release);
        let exe = std::env::current_exe().expect("current test binary");
        let status = std::process::Command::new(exe)
            .args(["transport::shmem::tests::shm_child_entry", "--exact"])
            .env(CHILD_ENV, map.path())
            .status()
            .expect("spawn shm child process");
        assert!(status.success(), "shm child process failed");
        spin_until(map.seq(8), 1);
        let mut echo = [0u64; 8];
        map.read_into(24, echo.as_mut_ptr(), 8);
        for (i, (&e, &p)) in echo.iter().zip(&payload).enumerate() {
            assert_eq!(
                e,
                p.wrapping_mul(3) ^ 0xa5,
                "word {i} corrupted crossing the process boundary"
            );
        }
    }

    /// The stale-segment sweep removes exactly the debris of dead
    /// processes: segments named with a pid that no longer exists.
    /// Live-pid segments, our own segments, and unrelated files must
    /// survive — deleting a live peer's mapping would corrupt a
    /// concurrent run on the same host.
    #[test]
    fn sweep_removes_only_dead_pid_segments() {
        let dir = std::env::temp_dir().join(format!("parendi-sweep-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create sweep test dir");
        // u32::MAX is far above any kernel pid_max, so this pid is
        // guaranteed dead on any Linux host.
        let dead = dir.join("parendi-shm-4294967295-0");
        let own = dir.join(format!("parendi-shm-{}-7", std::process::id()));
        let live = dir.join("parendi-shm-1-3"); // pid 1 is always alive
        let other = dir.join("some-other-file");
        let garbled = dir.join("parendi-shm-notapid-0");
        for f in [&dead, &own, &live, &other, &garbled] {
            std::fs::write(f, b"x").expect("seed sweep test file");
        }

        let swept = sweep_stale(&dir);

        assert_eq!(swept, 1, "exactly the dead-pid segment is swept");
        assert!(!dead.exists(), "dead-pid segment removed");
        assert!(own.exists(), "our own segment survives");
        assert!(live.exists(), "live peer's segment survives");
        assert!(other.exists(), "unrelated file survives");
        assert!(garbled.exists(), "unparseable name is left alone");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A sweep over a directory that does not exist is a quiet no-op —
    /// first run on a host with no `/dev/shm` debris must not fail.
    #[test]
    fn sweep_of_missing_dir_is_harmless() {
        let dir = std::env::temp_dir().join("parendi-sweep-test-nonexistent");
        assert_eq!(sweep_stale(&dir), 0);
    }
}
