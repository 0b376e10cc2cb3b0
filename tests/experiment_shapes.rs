//! Shape assertions for the paper's headline claims, run against the
//! same code paths the figures use (`figures all` in `crates/bench`
//! regenerates the full outputs).

use parendi::baseline::VerilatorModel;
use parendi::core::{compile, MultiChipStrategy, PartitionConfig};
use parendi::designs::Benchmark;
use parendi::machine::ipu::IpuConfig;
use parendi::machine::pricing::{simulate_cost, CloudInstance};
use parendi::machine::x64::X64Config;
use parendi::sim::ipu_rate_khz;

fn best_ipu_khz(circuit: &parendi::rtl::Circuit, ipu: &IpuConfig) -> f64 {
    [368u32, 736, 1472]
        .into_iter()
        .map(|t| {
            ipu_rate_khz(
                &compile(circuit, &PartitionConfig::with_tiles(t)).unwrap(),
                ipu,
            )
        })
        .fold(0.0, f64::max)
}

#[test]
fn speedup_grows_with_design_size() {
    // Fig. 7 / Fig. 11: Parendi's advantage over Verilator grows with N.
    let ipu = IpuConfig::m2000();
    let ix3 = X64Config::ix3();
    let mut speedups = Vec::new();
    for n in [2u32, 5, 8] {
        let c = Benchmark::Sr(n).build();
        let vm = VerilatorModel::new(&c);
        let (_, v_khz, _) = vm.best(&ix3, 32);
        speedups.push(best_ipu_khz(&c, &ipu) / v_khz);
    }
    assert!(
        speedups[0] < speedups[1] && speedups[1] < speedups[2],
        "speedup must grow with mesh size: {speedups:?}"
    );
    assert!(
        speedups[2] > 2.0,
        "sr8 speedup {} should exceed 2x",
        speedups[2]
    );
}

#[test]
fn small_designs_favour_verilator_single_thread() {
    // Table 1: pico/rocket single-thread Verilator beats parallel Parendi.
    let ipu = IpuConfig::m2000();
    let ix3 = X64Config::ix3();
    for bench in [Benchmark::Pico, Benchmark::Rocket] {
        let c = bench.build();
        let vm = VerilatorModel::new(&c);
        assert!(
            vm.rate_khz(&ix3, 1) > best_ipu_khz(&c, &ipu),
            "{}: Verilator 1T must win at this scale",
            bench.name()
        );
    }
}

#[test]
fn bitcoin_gains_orders_of_magnitude_from_tiles() {
    // Table 1: balanced fibers scale; 1 tile is far slower than many.
    let ipu = IpuConfig::m2000();
    let c = Benchmark::Bitcoin.build();
    let one = ipu_rate_khz(&compile(&c, &PartitionConfig::with_tiles(1)).unwrap(), &ipu);
    let many = best_ipu_khz(&c, &ipu);
    assert!(
        many > 10.0 * one,
        "bitcoin parallel {many:.0} vs single {one:.0}"
    );
}

#[test]
fn verilator_hits_chiplet_cliff_on_ae4() {
    // Fig. 8b: gains fade crossing the 8-core chiplet on ae4.
    let ae4 = X64Config::ae4();
    let c = Benchmark::Sr(8).build();
    let vm = VerilatorModel::new(&c);
    let r8 = vm.rate_khz(&ae4, 8);
    let r12 = vm.rate_khz(&ae4, 12);
    assert!(
        r12 < r8 * 1.15,
        "crossing the chiplet must not keep scaling: 8T {r8:.1} vs 12T {r12:.1}"
    );
}

#[test]
fn multi_chip_pre_beats_none() {
    // Fig. 17: chip-aware fiber partitioning wins on off-chip volume.
    let c = Benchmark::Sr(6).build();
    let mut volumes = std::collections::HashMap::new();
    for mc in [MultiChipStrategy::Pre, MultiChipStrategy::None] {
        let mut cfg = PartitionConfig::with_tiles(128);
        cfg.tiles_per_chip = 64;
        cfg.multi_chip = mc;
        let comp = compile(&c, &cfg).unwrap();
        volumes.insert(format!("{mc:?}"), comp.plan.offchip_total_bytes);
    }
    assert!(
        volumes["Pre"] < volumes["None"],
        "pre {} must cut less than none {}",
        volumes["Pre"],
        volumes["None"]
    );
}

#[test]
fn differential_exchange_reduces_traffic() {
    // §5.2: sending (index, data, enable) beats whole-array copies.
    let c = Benchmark::Pico.build();
    let mut with = PartitionConfig::with_tiles(8);
    with.differential_exchange = true;
    let mut without = PartitionConfig::with_tiles(8);
    without.differential_exchange = false;
    let t_with = compile(&c, &with).unwrap().plan.max_tile_onchip_bytes;
    let t_without = compile(&c, &without).unwrap().plan.max_tile_onchip_bytes;
    assert!(
        t_with * 4 < t_without,
        "diff exchange must shrink traffic: {t_with} vs {t_without}"
    );
}

#[test]
fn ipu_is_cheaper_for_long_simulations() {
    // §6.4: the IPU-POD4 undercuts a Dv4 slice on a long test.
    let ipu = IpuConfig::m2000();
    let dv4 = X64Config::dv4();
    let c = Benchmark::Sr(8).build();
    let vm = VerilatorModel::new(&c);
    let (_, dv4_khz, _) = vm.best(&dv4, 16);
    let ipu_khz = best_ipu_khz(&c, &ipu);
    let cost_ipu = simulate_cost(&CloudInstance::ipu_pod4(), 1_000_000_000, ipu_khz);
    let cost_dv4 = simulate_cost(&CloudInstance::dv4(16), 1_000_000_000, dv4_khz);
    assert!(
        cost_ipu.usd < cost_dv4.usd,
        "IPU ${:.2} must beat Dv4 ${:.2}",
        cost_ipu.usd,
        cost_dv4.usd
    );
}

#[test]
fn weak_scaling_flatter_on_ipu() {
    // Fig. 11: growing the design hurts the IPU rate less than x64.
    let ipu = IpuConfig::m2000();
    let ix3 = X64Config::ix3();
    let small = Benchmark::Sr(4).build();
    let large = Benchmark::Sr(8).build();
    let ipu_drop = best_ipu_khz(&small, &ipu) / best_ipu_khz(&large, &ipu);
    let vm_s = VerilatorModel::new(&small);
    let vm_l = VerilatorModel::new(&large);
    let x64_drop = vm_s.best(&ix3, 32).1 / vm_l.best(&ix3, 32).1;
    assert!(
        ipu_drop < x64_drop / 1.3,
        "IPU rate drop {ipu_drop:.2}x must be flatter than x64 {x64_drop:.2}x"
    );
}
