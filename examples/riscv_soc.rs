//! A mesh SoC of RISC-V cores simulated in parallel: builds sr3 (9
//! routers + 9 pico cores), compiles it for an IPU, runs it under BSP,
//! and reports NoC traffic and the per-phase cost breakdown.
//!
//! ```sh
//! cargo run --release --example riscv_soc
//! ```

use parendi::core::{compile, PartitionConfig};
use parendi::designs::noc::{build_mesh, MeshConfig};
use parendi::machine::ipu::IpuConfig;
use parendi::rtl::RegId;
use parendi::sim::{ipu_timings, GangSimulator};

fn main() {
    let circuit = build_mesh(&MeshConfig::small(3));
    let stats = parendi::rtl::stats(&circuit);
    println!(
        "sr3: {} nodes, {} registers, ~{} gates",
        stats.nodes, stats.regs, stats.gates
    );

    let comp = compile(&circuit, &PartitionConfig::with_tiles(256)).expect("compiles");
    println!(
        "{} fibers -> {} tiles, utilization {:.0}%",
        comp.fibers.len(),
        comp.partition.tiles_used(),
        100.0 * comp.partition.utilization()
    );

    let mut bsp = GangSimulator::new(&circuit, &comp.partition, 4, 1);
    let secs = bsp.run(2000);
    println!("ran 2000 cycles on 4 host threads in {secs:.2}s");

    // Tally NoC statistics from the architectural state.
    let value = |name: &str| -> u64 {
        circuit
            .regs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.name.ends_with(name))
            .map(|(i, _)| bsp.reg_value(RegId(i as u32)).to_u64())
            .sum()
    };
    let injected = value(".injected");
    let delivered = value(".delivered");
    let retired = value(".retired");
    println!("NoC: {injected} flits injected, {delivered} delivered");
    println!("cores retired {retired} instructions in total");
    assert!(delivered > 0 && retired > 0, "the SoC must be alive");

    let ipu = IpuConfig::m2000();
    let t = ipu_timings(&comp, &ipu);
    println!(
        "IPU model: {:.1} kHz (comp {:.0}, comm {:.0}, sync {:.0})",
        t.rate_khz(&ipu),
        t.comp,
        t.comm,
        t.sync
    );
}
