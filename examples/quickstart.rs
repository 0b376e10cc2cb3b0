//! Quickstart: build a small design with the eDSL, compile it onto IPU
//! tiles, run it in parallel bit-exactly, and read the predicted rate.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use parendi::core::{compile, PartitionConfig};
use parendi::machine::ipu::IpuConfig;
use parendi::rtl::{Builder, RegId};
use parendi::sim::{ipu_timings, GangSimulator, Simulator};

fn main() {
    // 1. Describe hardware: four interleaved 32-bit counters with a
    //    shared comparator.
    let mut b = Builder::new("quickstart");
    let mut qs = Vec::new();
    for i in 0..4u64 {
        let r = b.reg(format!("ctr{i}"), 32, i);
        let k = b.lit(32, 2 * i + 1);
        let nx = b.add(r.q(), k);
        b.connect(r, nx);
        qs.push(r.q());
    }
    let max01 = {
        let gt = b.gt_u(qs[0], qs[1]);
        b.mux(gt, qs[0], qs[1])
    };
    let max23 = {
        let gt = b.gt_u(qs[2], qs[3]);
        b.mux(gt, qs[2], qs[3])
    };
    let top = b.reg("top", 32, 0);
    let gt = b.gt_u(max01, max23);
    let winner = b.mux(gt, max01, max23);
    b.connect(top, winner);
    b.output("top", top.q());
    let circuit = b.finish().expect("validates");

    // 2. Compile: extract fibers, run the 4-stage partitioner.
    let comp = compile(&circuit, &PartitionConfig::with_tiles(4)).expect("compiles");
    println!(
        "compiled {} fibers onto {} tiles (straggler {} IPU cycles)",
        comp.fibers.len(),
        comp.partition.tiles_used(),
        comp.partition.straggler_cost()
    );

    // 3. Execute in parallel under BSP and check against the reference.
    let mut reference = Simulator::new(&circuit);
    let mut bsp = GangSimulator::new(&circuit, &comp.partition, 2, 1);
    reference.step_n(1000);
    bsp.run(1000);
    for i in 0..circuit.regs.len() {
        assert_eq!(
            bsp.reg_value(RegId(i as u32)),
            reference.reg_value(RegId(i as u32)),
            "BSP must be bit-exact"
        );
    }
    println!("1000 cycles simulated; BSP output is bit-identical to the reference");
    println!("top counter value: {}", reference.output("top").unwrap());

    // 4. Predict the rate on the IPU model.
    let ipu = IpuConfig::m2000();
    let t = ipu_timings(&comp, &ipu);
    println!(
        "predicted IPU rate: {:.1} kHz (comp {:.0} + comm {:.0} + sync {:.0} cycles)",
        t.rate_khz(&ipu),
        t.comp,
        t.comm,
        t.sync
    );
}
