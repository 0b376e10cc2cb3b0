//! The one-lane opcode schedule and its runs over the designs corpus:
//! what the engine exposes of them (`code_stats`) is deterministic, the
//! scheduled programs stay bit-exact against the reference interpreter
//! at every tile count, a gang keeps one dispatch per operation, and
//! run formation holds a ceiling on the designs it was measured on.

use parendi_core::{compile, PartitionConfig};
use parendi_designs::Benchmark;
use parendi_rtl::{ArrayId, RegId};
use parendi_sim::{CodeStats, GangSimulator, Simulator};

fn stats_key(s: &CodeStats) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        s.total_ops,
        s.dispatches,
        &s.run_lengths,
        &s.opcodes,
        &s.pairs,
    )
}

/// Corpus designs at 1–8 tiles, one lane: two compiles of the same
/// partition lower to the same code (no hash-order dependence — the
/// pair histogram and run lengths move with any reordering), and the
/// reordered programs match the interpreter on every register and
/// array. The schedule emitting a user before its operand, or dropping
/// a node, would already panic in the front-end's slot lookups.
#[test]
fn one_lane_schedule_is_deterministic_and_exact_on_the_corpus() {
    for (bench, cycles) in [
        (Benchmark::Pico, 40u64),
        (Benchmark::Sr(3), 25),
        (Benchmark::Vta, 25),
        (Benchmark::Ca(64), 40),
        (Benchmark::Prng(8), 40),
    ] {
        let c = bench.build();
        for tiles in 1..=8u32 {
            let comp = compile(&c, &PartitionConfig::with_tiles(tiles)).expect("compiles");
            let mut bsp = GangSimulator::new(&c, &comp.partition, 2, 1);
            let again = GangSimulator::new(&c, &comp.partition, 1, 1);
            let (stats, stats2) = (bsp.code_stats(), again.code_stats());
            assert_eq!(
                stats_key(&stats),
                stats_key(&stats2),
                "{} @ {tiles}",
                bench.name()
            );
            assert!(stats.dispatches <= stats.total_ops);

            let mut reference = Simulator::new(&c);
            reference.step_n(cycles);
            bsp.run(cycles);
            for i in 0..c.regs.len() {
                assert_eq!(
                    bsp.reg_value(RegId(i as u32)),
                    reference.reg_value(RegId(i as u32)),
                    "{} @ {tiles}: reg {} diverged",
                    bench.name(),
                    c.regs[i].name
                );
            }
            for (ai, a) in c.arrays.iter().enumerate() {
                for idx in 0..a.depth {
                    assert_eq!(
                        bsp.array_value(ArrayId(ai as u32), idx),
                        reference.array_value(ArrayId(ai as u32), idx),
                        "{} @ {tiles}: array {}[{idx}]",
                        bench.name(),
                        a.name
                    );
                }
            }
        }
    }
}

/// Run formation, pinned where it was measured (one lane; `dispatches /
/// ops` read 0.14, 0.11 and 0.17 here, 0.12 on sr7 @ 64): a later
/// change that quietly breaks the schedule or the run pass fails this
/// ceiling rather than a benchmark. vta @ 256 holds 8 operations a tile
/// and stays at 0.80; it is not pinned. A gang of the same partition
/// forms no runs at all.
#[test]
fn corpus_dispatches_stay_under_the_ceiling_at_one_lane() {
    for (bench, tiles) in [
        (Benchmark::Sr(3), 16u32),
        (Benchmark::Sr(4), 16),
        (Benchmark::Lr(3), 32),
    ] {
        let c = bench.build();
        let comp = compile(&c, &PartitionConfig::with_tiles(tiles)).expect("compiles");
        let one = GangSimulator::new(&c, &comp.partition, 1, 1).code_stats();
        assert!(
            one.dispatches as f64 <= 0.30 * one.total_ops as f64,
            "{} @ {tiles}: {} dispatches for {} ops",
            bench.name(),
            one.dispatches,
            one.total_ops
        );
        assert!(one.mean_run_length() > 3.0, "{} @ {tiles}", bench.name());
        let gang = GangSimulator::new(&c, &comp.partition, 1, 2).code_stats();
        assert_eq!(
            gang.dispatches,
            gang.total_ops,
            "{} @ {tiles}",
            bench.name()
        );
        assert!(gang.run_lengths.iter().all(|&(len, _)| len == 1));
    }
}
