//! The tile→worker fold over the designs corpus, against the
//! round-robin deal it replaced (tile `i` of a chip's worker group →
//! worker `i mod k`). Cutting each chip's tile sequence into contiguous
//! cost-balanced runs must model no heavier a straggler and no more
//! mailbox words crossing workers — except where a table below says
//! by how much and why: a contiguous run cannot split a lump the way a
//! deal can (never by more than one tile's cost), and a design whose
//! tile order carries no locality has nothing for contiguity to keep.
//! The engine's own `fold_report` must agree with a from-scratch
//! recount throughout.

use parendi_core::routing::Routing;
use parendi_core::{compile, Compilation, PartitionConfig};
use parendi_designs::{prng, Benchmark};
use parendi_rtl::Circuit;
use parendi_sim::{BspSimulator, FoldReport, GangSimulator};

/// The fold this PR's predecessor used, kept here as the reference to
/// beat: chips share workers by tile count, tiles deal round-robin.
fn round_robin(tile_chip: &[u32], workers: usize) -> Vec<u32> {
    let mut owner = vec![0u32; tile_chip.len()];
    let nchips = tile_chip.iter().map(|&c| c as usize + 1).max().unwrap();
    let mut by_chip: Vec<Vec<usize>> = vec![Vec::new(); nchips];
    for (t, &c) in tile_chip.iter().enumerate() {
        by_chip[c as usize].push(t);
    }
    by_chip.retain(|v| !v.is_empty());
    if workers < by_chip.len() {
        for (ci, tiles) in by_chip.iter().enumerate() {
            for &t in tiles {
                owner[t] = (ci % workers) as u32;
            }
        }
        return owner;
    }
    let (mut next, mut tiles_left, mut chips_left) = (0, tile_chip.len(), by_chip.len());
    for tiles in &by_chip {
        let workers_left = workers - next;
        let share = (tiles.len() * workers_left).div_ceil(tiles_left);
        let share = share.clamp(1, workers_left - (chips_left - 1));
        for (k, &t) in tiles.iter().enumerate() {
            owner[t] = (next + k % share) as u32;
        }
        next += share;
        tiles_left -= tiles.len();
        chips_left -= 1;
    }
    owner
}

/// `(heaviest worker's load, words crossing workers, all words)` of a
/// tile→worker map, recounted from the routing.
fn model(owner: &[u32], cost: &[u64], routing: &Routing, workers: usize) -> (u64, u64, u64) {
    let mut load = vec![0u64; workers];
    for (t, &w) in owner.iter().enumerate() {
        load[w as usize] += cost[t];
    }
    let (mut cross, mut total) = (0u64, 0u64);
    for ch in &routing.channels {
        total += ch.words() as u64;
        if owner[ch.from as usize] != owner[ch.to as usize] {
            cross += ch.words() as u64;
        }
    }
    (*load.iter().max().unwrap(), cross, total)
}

fn compile_on(c: &Circuit, tiles: u32, per_chip: Option<u32>) -> Compilation {
    let mut cfg = PartitionConfig::with_tiles(tiles);
    if let Some(n) = per_chip {
        cfg.tiles_per_chip = n;
    }
    compile(c, &cfg).expect("corpus design compiles")
}

/// What a corpus entry may concede to round-robin.
#[derive(Clone, Copy, Default)]
struct Concede {
    /// Percent the heaviest worker's load may exceed round-robin's.
    load_pct: u64,
    /// Whether more words may cross workers than under round-robin.
    cross: bool,
}

/// Checks one engine's fold against the round-robin reference.
fn check(
    name: &str,
    c: &Circuit,
    comp: &Compilation,
    workers: usize,
    fold: &FoldReport,
    concede: Concede,
) {
    let routing = Routing::new(c, &comp.partition);
    let tile_chip: Vec<u32> = comp.partition.processes.iter().map(|p| p.chip).collect();
    assert_eq!(fold.workers.len(), workers, "{name}: pool width");
    assert_eq!(fold.tile_worker.len(), tile_chip.len(), "{name}: tiles");
    let tag = format!("{name} @ {} tiles x {workers} workers", tile_chip.len());

    // The report is a faithful recount.
    let (max_load, cross, total) = model(&fold.tile_worker, &fold.tile_cost, &routing, workers);
    assert_eq!(fold.cross_worker_words(), cross, "{tag}: cross words");
    assert_eq!(fold.total_words(), total, "{tag}: total words");
    assert_eq!(
        fold.workers.iter().map(|w| w.load).max(),
        Some(max_load),
        "{tag}: max load"
    );
    // Chip-major: no worker mixes chips while the pool covers them.
    if workers as u32 >= comp.partition.chips {
        for w in 0..workers as u32 {
            let mut chips = (0..tile_chip.len())
                .filter(|&t| fold.tile_worker[t] == w)
                .map(|t| tile_chip[t]);
            let first = chips.next();
            assert!(
                chips.all(|c| Some(c) == first),
                "{tag}: worker {w} mixes chips"
            );
        }
    }

    let rr = round_robin(&tile_chip, workers);
    let (rr_load, rr_cross, _) = model(&rr, &fold.tile_cost, &routing, workers);
    // What contiguity guarantees everywhere: never more than one tile
    // above the ideal share, which no fold beats.
    let heaviest = *fold.tile_cost.iter().max().unwrap();
    assert!(
        max_load <= rr_load + heaviest,
        "{tag}: max load {max_load} is more than a tile above round-robin's {rr_load}"
    );
    assert!(
        max_load * 100 <= rr_load * (100 + concede.load_pct),
        "{tag}: max load {max_load} vs round-robin's {rr_load} (+{}% conceded)",
        concede.load_pct
    );
    assert!(
        cross <= rr_cross || concede.cross,
        "{tag}: {cross} words cross workers, round-robin crossed {rr_cross} (of {total})"
    );
}

#[test]
fn contiguous_fold_models_no_worse_than_round_robin_bar_the_conceded() {
    let exact = Concede::default();
    // Lumpy: a handful of heavy tiles per worker, which a deal can
    // spread and a contiguous run cannot (measured 7.1 %, 2.4 %, 0.5 %).
    let lumpy = |load_pct| Concede {
        load_pct,
        cross: false,
    };
    // No locality in the tile order: `mc` is a star (every tile sends
    // to tile 63, the two heaviest senders sit at the other end),
    // `ca1024`'s ring is dealt across tiles, and `lr3` sits on the
    // line (337 vs 335 words). All three balance better than before.
    let scattered = |load_pct| Concede {
        load_pct,
        cross: true,
    };
    let corpus: [(Benchmark, u32, Option<u32>, Concede); 13] = [
        (Benchmark::Vta, 256, None, exact),
        (Benchmark::Vta, 64, Some(32), exact),
        (Benchmark::Mc, 64, None, scattered(0)),
        (Benchmark::Sr(4), 16, None, lumpy(8)),
        (Benchmark::Sr(7), 64, None, exact),
        (Benchmark::Sr(5), 48, Some(16), exact),
        (Benchmark::Lr(3), 32, None, scattered(3)),
        (Benchmark::Pico, 8, None, exact),
        (Benchmark::Rocket, 16, None, exact),
        (Benchmark::Bitcoin, 96, None, lumpy(1)),
        (Benchmark::Bitcoin, 96, Some(24), exact),
        (Benchmark::Prng(64), 32, None, exact),
        (Benchmark::Ca(1024), 32, None, scattered(0)),
    ];
    for (bench, tiles, per_chip, concede) in corpus {
        let c = bench.build();
        let comp = compile_on(&c, tiles, per_chip);
        for workers in [2usize, 4] {
            if (comp.partition.tiles_used() as usize) < workers {
                continue;
            }
            let sim = BspSimulator::new(&c, &comp.partition, workers);
            let fold = sim.fold_report();
            check(&bench.name(), &c, &comp, workers, fold, concede);
        }
    }
    // The benchmark's strided gang cases: the cost vector is lane-scaled.
    for (name, c, tiles, concede) in [
        ("sprng32", prng::build_seeded_bank(32), 16u32, exact),
        ("sr4", Benchmark::Sr(4).build(), 16, lumpy(8)),
    ] {
        let comp = compile_on(&c, tiles, None);
        for workers in [2usize, 4] {
            let gang = GangSimulator::new(&c, &comp.partition, workers, 64);
            check(name, &c, &comp, workers, gang.fold_report(), concede);
        }
    }
}

/// Golden: the thousand-way fine-grain case folded onto two workers
/// keeps at least seven words in eight inside a worker (round-robin
/// sent 262 of the 541 across).
#[test]
fn vta_256_on_two_workers_crosses_at_most_64_words() {
    let c = Benchmark::Vta.build();
    let comp = compile_on(&c, 256, None);
    let sim = BspSimulator::new(&c, &comp.partition, 2);
    let fold = sim.fold_report();
    assert_eq!(fold.total_words(), 541);
    assert!(
        fold.cross_worker_words() <= 64,
        "{} of 541 words cross workers",
        fold.cross_worker_words()
    );
    assert!(
        fold.max_load_permille() <= 1010,
        "fold is out of balance: {} permille of the mean",
        fold.max_load_permille()
    );
    // One thread folds nothing: the report says so by being empty.
    let inline = BspSimulator::new(&c, &comp.partition, 1);
    assert_eq!(*inline.fold_report(), FoldReport::default());
}
