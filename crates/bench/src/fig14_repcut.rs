//! Fig. 14: RepCut vs Verilator vs Parendi across SoC sizes.
//!
//! RepCut is modelled as our hypergraph partitioning strategy executed
//! under the x64 BSP cost model (its actual target); Verilator is the
//! fine-grained baseline; Parendi runs on one IPU. The SoCs are K-core
//! clusters of pico cores coupled through a shared monitor register —
//! the bus-based Rocket SoC structure of the paper's comparison.

use crate::ipu_point;
use parendi_baseline::VerilatorModel;
use parendi_core::{compile, Compilation, PartitionConfig, Strategy};
use parendi_designs::isa;
use parendi_machine::ipu::IpuConfig;
use parendi_machine::x64::X64Config;
use parendi_rtl::{Builder, Circuit};
use std::io::{self, Write};

/// A K-core bus SoC: pico cores plus a shared heartbeat register each
/// core's generator taps (the light cross-core coupling a shared bus
/// provides between otherwise independent cores).
fn bus_soc(cores: u32) -> Circuit {
    let mut b = Builder::new(format!("soc{cores}"));
    // Shared heartbeat all cores observe.
    let heartbeat = b.reg("heartbeat", 32, 1);
    let one = b.lit(32, 1);
    let hb_next = b.add(heartbeat.q(), one);
    b.connect(heartbeat, hb_next);
    for i in 0..cores {
        b.push_scope(format!("core{i}"));
        parendi_designs::pico::build_pico_into(
            &mut b,
            &parendi_designs::pico::PicoConfig {
                program: isa::programs::mixed(2000),
                dmem_words: 64,
                dmem_init: Vec::new(),
            },
        );
        // Per-core bus tap: a register mixing the shared heartbeat.
        let tap = b.reg("bus_tap", 32, 0);
        let mixed = b.xor(tap.q(), heartbeat.q());
        b.connect(tap, mixed);
        b.pop_scope();
    }
    b.finish().expect("soc must validate")
}

/// x64 BSP timing of a compiled partition (the RepCut execution model):
/// processes map 1:1 to threads.
fn x64_bsp_khz(comp: &Compilation, host: &X64Config) -> f64 {
    let threads = comp.partition.tiles_used().min(host.total_cores());
    let max_thread = comp
        .partition
        .processes
        .iter()
        .map(|p| p.x64_cost)
        .max()
        .unwrap_or(0);
    let ws: u64 = comp
        .partition
        .processes
        .iter()
        .map(|p| p.code_bytes + 64 * p.regs_read.len() as u64)
        .sum();
    let comp_c = host.comp_cycles(max_thread, ws, threads);
    let comm_c = host.comm_cycles(comp.plan.total_sent(), threads);
    let sync_c = host.sync_cycles(threads) as f64;
    host.rate_khz(comp_c + comm_c + sync_c)
}

/// Fig. 14: RepCut vs Verilator vs Parendi across SoC sizes.
pub fn fig14(out: &mut dyn Write, _quick: bool) -> io::Result<()> {
    let ae4 = X64Config::ae4();
    let ipu = IpuConfig::m2000();
    writeln!(
        out,
        "Fig. 14: kHz by simulator across SoC sizes (ae4 threads for vlt/rct)"
    )?;
    writeln!(
        out,
        "{:>6} {:>8} | {:>10} {:>10} {:>10}",
        "cores", "threads", "vlt", "rct", "ipu"
    )?;
    for cores in [1u32, 2, 4, 8, 16, 32] {
        let c = bus_soc(cores);
        let vm = VerilatorModel::new(&c);
        let ipu_khz = ipu_point(&c, 1472, &ipu).khz;
        for threads in [1u32, 8, 16, 32] {
            let mut cfg = PartitionConfig::with_tiles(threads);
            cfg.strategy = Strategy::Hypergraph;
            cfg.tiles_per_chip = u32::MAX; // one "chip": threads share memory
            cfg.data_bytes_per_tile = u64::MAX / 2;
            cfg.code_bytes_per_tile = u64::MAX / 2;
            let comp = compile(&c, &cfg).expect("soc compiles");
            let rct = x64_bsp_khz(&comp, &ae4);
            let vlt = vm.rate_khz(&ae4, threads);
            writeln!(
                out,
                "{cores:>6} {threads:>8} | {vlt:>10.1} {rct:>10.1} {ipu_khz:>10.1}"
            )?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "Shape check: Verilator wins tiny SoCs, RepCut the mid sizes,"
    )?;
    writeln!(out, "Parendi the largest (paper Fig. 14's progression).")?;
    Ok(())
}
