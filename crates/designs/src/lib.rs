//! # parendi-designs
//!
//! The benchmark RTL designs of the Parendi reproduction, all built with
//! the `parendi-rtl` eDSL and functionally verified against software
//! golden models:
//!
//! * [`prng`] — the §4.1 xorshift bank (Fig. 4 microbenchmark);
//! * [`pico`] — a multi-cycle RV32I core (imbalanced fibers);
//! * [`rocket`] — a pipelined RV32I core with forwarding;
//! * [`sha256`] — a fully pipelined double-SHA-256 bitcoin miner
//!   (balanced fibers);
//! * [`mc`] — a Monte-Carlo option-pricing engine;
//! * [`vta`] — a systolic GEMM accelerator;
//! * [`noc`] — the srN/lrN mesh-NoC-of-cores generator;
//! * [`isa`] — an RV32I assembler and golden-model interpreter.
//!
//! [`Benchmark`] enumerates the paper's evaluation suite (§6) at the
//! reproduction's scale; `figures all` (in `crates/bench`) prints every
//! figure at that scale, fig10 with its extrapolation factor.

#![warn(missing_docs)]

pub mod ca;
pub mod isa;
pub mod mc;
pub mod noc;
pub mod pico;
pub mod prng;
pub mod rocket;
pub mod rv32;
pub mod sha256;
pub mod vta;

use parendi_rtl::Circuit;

/// A named benchmark of the paper's evaluation (§6) or analysis (§4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Benchmark {
    /// The VTA-like GEMM accelerator (block size scales the design).
    Vta,
    /// The Monte-Carlo option pricer.
    Mc,
    /// N×N small-core mesh (paper sr2–sr15).
    Sr(u32),
    /// N×N large-core mesh (paper lr2–lr10).
    Lr(u32),
    /// The multi-cycle RISC-V core of §4.3.
    Pico,
    /// The pipelined RISC-V core of §4.3.
    Rocket,
    /// The double-SHA-256 miner of §4.3.
    Bitcoin,
    /// `n` independent xorshift64 fibers (§4.1).
    Prng(u32),
    /// A Rule 30 cellular-automaton ring of `n` 1-bit cells — the
    /// pure-control workload (every net is one bit; the bit-packed
    /// gang's best case).
    Ca(u32),
}

impl Benchmark {
    /// The paper's name for this benchmark.
    pub fn name(&self) -> String {
        match self {
            Benchmark::Vta => "vta".into(),
            Benchmark::Mc => "mc".into(),
            Benchmark::Sr(n) => format!("sr{n}"),
            Benchmark::Lr(n) => format!("lr{n}"),
            Benchmark::Pico => "pico".into(),
            Benchmark::Rocket => "rocket".into(),
            Benchmark::Bitcoin => "bitcoin".into(),
            Benchmark::Prng(n) => format!("prng{n}"),
            Benchmark::Ca(n) => format!("ca{n}"),
        }
    }

    /// Parses a [`name`](Self::name) string back into its benchmark —
    /// the inverse, so wire protocols and CLIs can identify designs by
    /// key instead of serializing circuits. `None` for unknown names
    /// (including parameterized families with a missing or zero
    /// parameter: there is no `sr0` mesh).
    pub fn parse(name: &str) -> Option<Benchmark> {
        fn param(s: &str, prefix: &str) -> Option<u32> {
            let n: u32 = s.strip_prefix(prefix)?.parse().ok()?;
            (n >= 1).then_some(n)
        }
        match name {
            "vta" => Some(Benchmark::Vta),
            "mc" => Some(Benchmark::Mc),
            "pico" => Some(Benchmark::Pico),
            "rocket" => Some(Benchmark::Rocket),
            "bitcoin" => Some(Benchmark::Bitcoin),
            _ => param(name, "sr")
                .map(Benchmark::Sr)
                .or_else(|| param(name, "lr").map(Benchmark::Lr))
                .or_else(|| param(name, "prng").map(Benchmark::Prng))
                .or_else(|| param(name, "ca").map(Benchmark::Ca)),
        }
    }

    /// Builds the benchmark circuit at the reproduction's scale.
    pub fn build(&self) -> Circuit {
        match self {
            // BlockIn/Out=64 in the paper; 16×16 at our scale.
            Benchmark::Vta => vta::build_vta(&vta::VtaConfig::new(16, 16, 32)),
            Benchmark::Mc => mc::build_mc(&mc::McConfig {
                paths: 128,
                ..Default::default()
            }),
            Benchmark::Sr(n) => noc::build_mesh(&noc::MeshConfig::small(*n)),
            Benchmark::Lr(n) => noc::build_mesh(&noc::MeshConfig::large(*n)),
            Benchmark::Pico => pico::build_pico(&pico::PicoConfig::new(isa::programs::mixed(2000))),
            Benchmark::Rocket => {
                rocket::build_rocket(&rocket::RocketConfig::new(isa::programs::mixed(2000)))
            }
            Benchmark::Bitcoin => sha256::build_miner(&sha256::MinerConfig::default()),
            Benchmark::Prng(n) => prng::build_prng_bank(*n),
            Benchmark::Ca(n) => ca::build_rule30(*n),
        }
    }

    /// The paper's full Fig. 7 / Table 3 suite: vta, mc, sr2–srN, lr2–lrN.
    ///
    /// `sr_max`/`lr_max` default to the paper's 15/10 but can be lowered
    /// for quick runs.
    pub fn suite(sr_max: u32, lr_max: u32) -> Vec<Benchmark> {
        let mut v = vec![Benchmark::Vta, Benchmark::Mc];
        v.extend((2..=sr_max).map(Benchmark::Sr));
        v.extend((2..=lr_max).map(Benchmark::Lr));
        v
    }

    /// The three small designs of §4.3 (Fig. 6, Table 1).
    pub fn small_three() -> Vec<Benchmark> {
        vec![Benchmark::Pico, Benchmark::Bitcoin, Benchmark::Rocket]
    }
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn all_benchmarks_build_and_validate() {
        for bench in [
            Benchmark::Vta,
            Benchmark::Mc,
            Benchmark::Sr(2),
            Benchmark::Lr(2),
            Benchmark::Pico,
            Benchmark::Rocket,
            Benchmark::Bitcoin,
            Benchmark::Prng(8),
        ] {
            let c = bench.build();
            assert!(c.validate().is_ok(), "{} must validate", bench.name());
            assert!(!c.regs.is_empty(), "{} has state", bench.name());
        }
    }

    #[test]
    fn suite_matches_paper_composition() {
        let suite = Benchmark::suite(15, 10);
        assert_eq!(suite.len(), 2 + 14 + 9); // vta, mc, sr2-15, lr2-10
        assert_eq!(suite[0].name(), "vta");
        assert_eq!(suite.last().unwrap().name(), "lr10");
        assert_eq!(Benchmark::small_three().len(), 3);
    }

    #[test]
    fn parse_inverts_name() {
        for bench in [
            Benchmark::Vta,
            Benchmark::Mc,
            Benchmark::Sr(3),
            Benchmark::Lr(2),
            Benchmark::Pico,
            Benchmark::Rocket,
            Benchmark::Bitcoin,
            Benchmark::Prng(8),
            Benchmark::Ca(64),
        ] {
            assert_eq!(Benchmark::parse(&bench.name()), Some(bench));
        }
        for junk in ["", "sr", "sr0", "srx", "vta2", "mesh", "ca-3"] {
            assert_eq!(Benchmark::parse(junk), None, "{junk:?} must not parse");
        }
    }

    #[test]
    fn meshes_grow_monotonically() {
        let g4 = parendi_rtl::stats(&Benchmark::Sr(4).build()).gates;
        let g6 = parendi_rtl::stats(&Benchmark::Sr(6).build()).gates;
        assert!(g6 > 2 * g4, "sr6 {g6} vs sr4 {g4}");
    }
}
