//! What one workload run is given and what it hands back.

use crate::spans::Spans;
use parendi_rtl::bits::Bits;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Seconds of measuring the constants in each workload are sized for on
/// the reference host. `--seconds` scales the amount of work linearly
/// from here; the work for a given `--seconds` is the same on every
/// commit (run length is never time-boxed).
pub const REFERENCE_SECONDS: f64 = 15.0;

/// Repetitions of every engine configuration at the reference length.
pub const BASE_REPS: usize = 11;

/// How often a workload's whole set-up is repeated for `setup_s` (the
/// daemon's sub-millisecond start-up is repeated more often).
pub const SETUP_REPEATS: usize = 5;

/// The arguments of one run.
pub struct Ctx {
    pub seed: u64,
    /// `--seconds / REFERENCE_SECONDS` (0.05 under `--smoke`).
    pub scale: f64,
    /// Worker threads / clients at full width (`host::tmax()`).
    pub tmax: usize,
    /// Test hook of the oracle guard: corrupt one lane or one daemon
    /// response so that the correctness check must fail.
    pub inject_fault: bool,
    pub spans: Spans,
    next_request: AtomicU64,
}

impl Ctx {
    pub fn new(seed: u64, scale: f64, trace: bool, tmax: usize, inject_fault: bool) -> Self {
        Ctx {
            seed,
            scale,
            tmax,
            inject_fault,
            spans: Spans::new(trace),
            next_request: AtomicU64::new(1),
        }
    }

    /// A fresh request id: one per repetition, compile pass or batch.
    pub fn request(&self) -> u64 {
        self.next_request.fetch_add(1, Ordering::Relaxed)
    }

    /// Repetitions: longer runs add repetitions, shorter runs keep them
    /// (the median needs them) and shorten each one instead.
    pub fn reps(&self) -> usize {
        (BASE_REPS as f64 * self.scale.max(1.0)).round() as usize
    }

    /// Length of one repetition whose reference length is `base` cycles.
    pub fn cycles(&self, base: u64) -> u64 {
        ((base as f64 * self.scale.min(1.0)).round() as u64).max(1)
    }

    /// Unmeasured cycles at the start of an engine repetition (at least
    /// 2: lane seeds load in cycles 0 and 1).
    pub fn warmup(&self) -> u64 {
        self.cycles(crate::engine::WARMUP).max(2)
    }

    /// Set-up repetitions behind the `setup_s` median: `base` for a
    /// measurement, a token few under `--smoke`.
    pub fn setup_repeats(&self, base: usize) -> usize {
        if self.scale < 0.5 {
            (base / 8).max(1)
        } else {
            base
        }
    }

    /// A count (batches, passes) whose reference value is `base`.
    pub fn count(&self, base: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(1)
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    /// Operations tried and failed: a repetition, a compile pass, a
    /// batch or a verification is one operation each.
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the log.
    pub failures: Vec<String>,
    /// FNV-1a over the final register words of the verification runs.
    pub digest: u64,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.metrics.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Counts one operation; `what` describes it if it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Folds another digest in (order-sensitive, like the hash itself).
    pub fn mix_digest(&mut self, d: u64) {
        self.digest = fnv1a(self.digest, &d.to_le_bytes());
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `state` (0 starts afresh).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = if state == 0 { FNV_OFFSET } else { state };
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the words of a sequence of values, continuing from
/// `state`: the digest of a register file or of a response's outputs.
pub fn digest_bits(state: u64, values: impl IntoIterator<Item = Bits>) -> u64 {
    values.into_iter().fold(state, |h, bits| {
        bits.words()
            .iter()
            .fold(h, |h, w| fnv1a(h, &w.to_le_bytes()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_keeps_reps_when_short_and_length_when_long() {
        let at = |scale| Ctx::new(1, scale, false, 2, false);
        assert_eq!((at(1.0).reps(), at(1.0).cycles(20_000)), (11, 20_000));
        assert_eq!((at(0.05).reps(), at(0.05).cycles(20_000)), (11, 1_000));
        assert_eq!((at(3.0).reps(), at(3.0).cycles(20_000)), (33, 20_000));
        assert_eq!((at(0.05).count(400), at(2.0).count(400)), (20, 800));
        assert_eq!(at(0.001).cycles(10), 1);
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(0, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(0, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(fnv1a(0, b"foo"), b"bar"), fnv1a(0, b"foobar"));
    }
}
