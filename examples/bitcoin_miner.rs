//! Mine a (toy-difficulty) block on the pipelined double-SHA-256 design,
//! in parallel, and verify the nonce in software — then compare the
//! 1-tile and balanced many-tile IPU rates (the paper's Table 1 story).
//!
//! ```sh
//! cargo run --release --example bitcoin_miner
//! ```

use parendi::core::{compile, PartitionConfig};
use parendi::designs::sha256::{build_miner, soft_miner_digest, MinerConfig};
use parendi::machine::ipu::IpuConfig;
use parendi::sim::{ipu_timings, GangSimulator, Simulator};

fn main() {
    let cfg = MinerConfig {
        target: 1 << 27,
        ..Default::default()
    };
    let circuit = build_miner(&cfg);
    println!(
        "miner: {} nodes, {} registers (two 64-stage SHA-256 pipelines)",
        circuit.nodes.len(),
        circuit.regs.len()
    );

    // Run in parallel until the found flag rises.
    let comp = compile(&circuit, &PartitionConfig::with_tiles(128)).expect("compiles");
    let mut bsp = GangSimulator::new(&circuit, &comp.partition, 4, 1);
    let mut reference = Simulator::new(&circuit);
    let mut nonce = None;
    for _ in 0..200 {
        bsp.run(64);
        reference.step_n(64);
        if reference.output("found").unwrap().to_u64() == 1 {
            nonce = Some(reference.output("found_nonce").unwrap().to_u64() as u32);
            break;
        }
    }
    let nonce = nonce.expect("target too hard for the demo");
    let digest = soft_miner_digest(&cfg, nonce);
    println!(
        "found nonce {nonce:#010x}; digest[0] = {:#010x} < {:#010x}",
        digest[0], cfg.target
    );
    assert!(
        digest[0] < cfg.target,
        "software double-SHA must confirm the nonce"
    );

    // Table-1-style rate comparison.
    let ipu = IpuConfig::m2000();
    let one = compile(&circuit, &PartitionConfig::with_tiles(1)).expect("fits");
    let par = compile(&circuit, &PartitionConfig::with_tiles(512)).expect("fits");
    let r1 = ipu_timings(&one, &ipu).rate_khz(&ipu);
    let rp = ipu_timings(&par, &ipu).rate_khz(&ipu);
    println!(
        "IPU model: {:.1} kHz on 1 tile vs {:.1} kHz on {} tiles ({:.1}x)",
        r1,
        rp,
        par.partition.tiles_used(),
        rp / r1
    );
}
