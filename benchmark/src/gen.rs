//! Everything `--seed` drives: per-lane seeds, `inj` pulse trains and
//! the daemon's request stream. The engine and the daemon only ever see
//! the generated inputs; the same seed gives byte-identical inputs.
//!
//! The seed changes *which* values and *which* order, never *how much*
//! work: event counts, batch counts, the popularity of each design and
//! the multiset of scenario lengths are fixed, so two seeds load the
//! system alike and their timings are comparable.

use parendi_rtl::bits::Bits;
use parendi_serve::ScenarioBatch;
use parendi_sim::StimulusSet;

/// SplitMix64: tiny, seedable, and good enough to shuffle a workload.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`tag`) of one seed.
    pub fn forked(seed: u64, tag: &str) -> Self {
        let mut r = Rng(seed ^ crate::ctx::fnv1a(0, tag.as_bytes()));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Seed-farm stimulus for `build_seeded_bank`: every lane loads its own
/// 64-bit seed at cycle 0 and free-runs from cycle 1.
pub fn reseed_stimulus(seed: u64, lanes: u32) -> StimulusSet {
    let mut rng = Rng::forked(seed, "lane-seeds");
    let mut stim = StimulusSet::new(lanes);
    for lane in 0..lanes {
        stim.drive(0, lane, "seed", Bits::from_u64(64, rng.next_u64() | 1));
        stim.drive(0, lane, "reseed", Bits::from_u64(1, 1));
        stim.drive(1, lane, "reseed", Bits::from_u64(1, 0));
    }
    stim
}

/// One-cycle `inj` pulses for the Rule 30 ring: `slots` pulse cycles are
/// drawn in `from..to` and shared by the gang (so the number of
/// stimulus stretches a run is cut into is the same for every seed);
/// each lane pulses on its own seeded half of the slots.
pub fn inj_stimulus(seed: u64, lanes: u32, from: u64, to: u64, slots: usize) -> StimulusSet {
    let mut rng = Rng::forked(seed, "inj-pulses");
    let span = (to - from) / slots as u64;
    assert!(span >= 2, "pulse window too short for {slots} slots");
    // One slot per stratum, so slots never collide or touch.
    let cycles: Vec<u64> = (0..slots as u64)
        .map(|s| from + s * span + rng.below(span - 1))
        .collect();
    let mut stim = StimulusSet::new(lanes);
    for lane in 0..lanes {
        let mut picks: Vec<usize> = (0..slots).collect();
        rng.shuffle(&mut picks);
        for &slot in &picks[..slots.div_ceil(2)] {
            stim.drive(cycles[slot], lane, "inj", Bits::from_u64(1, 1));
            stim.drive(cycles[slot] + 1, lane, "inj", Bits::from_u64(1, 0));
        }
    }
    stim
}

/// The daemon's working set, most popular first: 12 compile keys
/// against a cache of 8, so hits, misses, single-flight waits and LRU
/// evictions all occur.
pub const SERVE_KEYS: [(&str, u32); 12] = [
    ("sr4", 32),
    ("sr5", 64),
    ("sr6", 64),
    ("sr7", 64),
    ("lr2", 16),
    ("lr3", 32),
    ("ca256", 16),
    ("ca1024", 32),
    ("prng256", 64),
    ("mc", 64),
    ("vta", 64),
    ("bitcoin", 96),
];

/// Scenarios per batch (one gang-lane bucket, so one key per design).
pub const SCENARIOS_PER_BATCH: usize = 8;

/// Scenario lengths in cycles. Short, so that a warm batch is a few
/// milliseconds of engine time and the daemon's own layers (protocol,
/// cache, permits, instantiation) and the compile of a miss are a
/// visible share of a batch. A short menu also keeps the oracle cheap:
/// one interpreter run per design covers every length.
pub const HORIZONS: [u64; 7] = [16, 24, 32, 40, 48, 56, 64];

/// One request of the stream.
pub struct Request {
    /// Index into [`SERVE_KEYS`].
    pub key: usize,
    pub batch: ScenarioBatch,
}

/// How many of `n` Zipf(1.0) draws over `keys` ranks land on each rank,
/// rounded by largest remainder so the counts sum to `n` exactly.
pub fn zipf_counts(n: usize, keys: usize) -> Vec<usize> {
    let h: f64 = (1..=keys).map(|r| 1.0 / r as f64).sum();
    let ideal: Vec<f64> = (1..=keys).map(|r| n as f64 / (r as f64 * h)).collect();
    let mut counts: Vec<usize> = ideal.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..keys).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (ideal[a].fract(), ideal[b].fract());
        rb.partial_cmp(&ra).expect("finite").then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &k in &by_remainder[..short] {
        counts[k] += 1;
    }
    counts
}

fn batch_for(key: usize, rng: &mut Rng, lengths: &mut impl Iterator<Item = u64>) -> ScenarioBatch {
    let (design, tiles) = SERVE_KEYS[key];
    let mut batch = ScenarioBatch::new(design, tiles);
    for _ in 0..SCENARIOS_PER_BATCH {
        let lane = batch.scenario(lengths.next().expect("length menu is endless"));
        if design.starts_with("ca") {
            // Two pulses inside the shortest horizon, so every scenario
            // sees both whatever its length.
            for window in [(0, 6), (8, 14)] {
                let at = window.0 + rng.below(window.1 - window.0);
                batch.drive(lane, at, "inj", Bits::from_u64(1, 1));
                batch.drive(lane, at + 1, "inj", Bits::from_u64(1, 0));
            }
        }
    }
    batch
}

/// `n` batches: key popularity is exactly Zipf(1.0) over
/// [`SERVE_KEYS`], the order is a seeded shuffle, scenario lengths cycle
/// through [`HORIZONS`] (so which design gets which lengths follows the
/// shuffle), and one batch in 20 of each design (seeded which) asks for
/// the VCD of a seeded lane.
pub fn serve_stream(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = Rng::forked(seed, "serve-stream");
    let mut keys: Vec<usize> = zipf_counts(n, SERVE_KEYS.len())
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
        .collect();
    rng.shuffle(&mut keys);
    let mut lengths = HORIZONS.into_iter().cycle();
    let mut requests: Vec<Request> = keys
        .into_iter()
        .map(|key| Request {
            key,
            batch: batch_for(key, &mut rng, &mut lengths),
        })
        .collect();
    // One batch in 20 *of every design* asks for a VCD (a VCD batch
    // steps cycle by cycle, so which design it lands on decides what it
    // costs); the seed picks which batches and which lane.
    for key in 0..SERVE_KEYS.len() {
        let mut of_key: Vec<usize> = (0..n).filter(|&i| requests[i].key == key).collect();
        rng.shuffle(&mut of_key);
        for &i in &of_key[..(of_key.len() + 10) / 20] {
            requests[i].batch.vcd_lane = Some(rng.below(SCENARIOS_PER_BATCH as u64) as u32);
        }
    }
    requests
}

/// The 12 keys once each, in catalogue order: one cold round.
pub fn cold_round(seed: u64, round: usize) -> Vec<Request> {
    let mut rng = Rng::forked(seed ^ round as u64, "serve-cold");
    let mut lengths = HORIZONS.into_iter().cycle();
    (0..SERVE_KEYS.len())
        .map(|key| Request {
            key,
            batch: batch_for(key, &mut rng, &mut lengths),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_text(seed: u64, n: usize) -> String {
        serve_stream(seed, n)
            .iter()
            .map(|r| r.batch.to_text())
            .collect()
    }

    fn stimulus_text(stim: &StimulusSet) -> String {
        stim.events()
            .iter()
            .map(|e| format!("{} {} {} {:x}\n", e.cycle, e.lane, e.input, e.value))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs_and_another_seed_differs() {
        assert_eq!(stream_text(7, 400), stream_text(7, 400));
        assert_ne!(stream_text(7, 400), stream_text(8, 400));
        for make in [
            |s| reseed_stimulus(s, 64),
            |s| inj_stimulus(s, 64, 500, 4500, 32),
        ] {
            assert_eq!(stimulus_text(&make(3)), stimulus_text(&make(3)));
            assert_ne!(stimulus_text(&make(3)), stimulus_text(&make(4)));
        }
    }

    #[test]
    fn the_seed_moves_values_not_the_amount_of_work() {
        for n in [20, 400, 1000] {
            let counts = zipf_counts(n, 12);
            assert_eq!(counts.iter().sum::<usize>(), n);
            assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        }
        let shape = |seed| {
            let s = serve_stream(seed, 400);
            let mut per_key = [0usize; 12];
            let mut cycles = 0u64;
            let mut events = 0usize;
            for r in &s {
                per_key[r.key] += 1;
                for sc in &r.batch.scenarios {
                    cycles += sc.cycles;
                    events += sc.events.len();
                }
            }
            let vcd = s.iter().filter(|r| r.batch.vcd_lane.is_some()).count();
            (per_key, cycles, events, vcd)
        };
        assert_eq!(shape(1), shape(99));
        assert!((18..=22).contains(&shape(1).3), "about one batch in 20");

        let events = |seed| inj_stimulus(seed, 64, 500, 4500, 32).events().len();
        assert_eq!(events(1), events(2));
        let distinct = |seed| {
            let stim = inj_stimulus(seed, 64, 500, 4500, 32);
            let mut c: Vec<u64> = stim.events().iter().map(|e| e.cycle).collect();
            c.sort_unstable();
            c.dedup();
            c.len()
        };
        assert_eq!(distinct(1), distinct(2), "same number of run stretches");
    }
}
