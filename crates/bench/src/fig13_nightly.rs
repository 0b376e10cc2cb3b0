//! Fig. 13 + §6.4: cloud cost comparison. One long simulation, then
//! nightly regression campaigns under ad-hoc vs fine-grained
//! parallelism on a Dv4 x64 instance and an IPU-POD4.

use crate::{best_ipu, ipu_point, sr_max};
use parendi_baseline::VerilatorModel;
use parendi_designs::Benchmark;
use parendi_machine::ipu::IpuConfig;
use parendi_machine::pricing::{campaign_cost, dv4_breakeven_ratio, simulate_cost, CloudInstance};
use parendi_machine::x64::X64Config;
use std::io::{self, Write};

/// Fig. 13 + §6.4: cloud cost comparison.
pub fn fig13(out: &mut dyn Write, quick: bool) -> io::Result<()> {
    let design = Benchmark::Sr(sr_max(quick));
    let c = design.build();
    let ipu = IpuConfig::m2000();
    let dv4 = X64Config::dv4();
    let vm = VerilatorModel::new(&c);

    let dv4_1t = vm.rate_khz(&dv4, 1);
    let (dv4_best_t, dv4_best, _) = vm.best(&dv4, 16);
    let ipu_best = best_ipu(&c, &ipu, quick);
    let ipu_1chip = ipu_point(&c, 1472, &ipu);

    writeln!(
        out,
        "§6.4 single long test: {} for 1e9 cycles",
        design.name()
    )?;
    let pod = CloudInstance::ipu_pod4();
    let slice = CloudInstance::dv4(16);
    let r_ipu = simulate_cost(&pod, 1_000_000_000, ipu_best.khz);
    let r_dv4 = simulate_cost(&slice, 1_000_000_000, dv4_best);
    writeln!(
        out,
        "  IPU-POD4: {:.1} kHz -> {:.1} h, ${:.2}   (1 chip: {:.1} kHz)",
        ipu_best.khz, r_ipu.hours, r_ipu.usd, ipu_1chip.khz
    )?;
    writeln!(
        out,
        "  Dv4-16:   {:.1} kHz ({} threads) -> {:.1} h, ${:.2}",
        dv4_best, dv4_best_t, r_dv4.hours, r_dv4.usd
    )?;
    let ipu_vs_1t = ipu_best.khz / dv4_1t;
    writeln!(
        out,
        "  break-even: Dv4 needs s/t > {:.2} (IPU is {:.0}x the single thread)",
        dv4_breakeven_ratio(ipu_vs_1t),
        ipu_vs_1t
    )?;

    writeln!(
        out,
        "\nFig. 13: nightly campaigns of 1M-cycle tests (time h / cost $)"
    )?;
    writeln!(
        out,
        "{:>6} | {:>9} {:>8} | {:>9} {:>8} | {:>9} {:>8} | {:>9} {:>8}",
        "N", "x64adh-h", "$", "x64fine-h", "$", "ipuadh-h", "$", "ipufine-h", "$"
    )?;
    for n in [16u32, 32, 64, 128, 256, 512] {
        // x64 ad-hoc: one test per core, 16 in parallel, single-thread rate.
        let xa = campaign_cost(&slice, n, 1_000_000, dv4_1t, 16);
        // x64 fine: 16 threads per test, tests serial.
        let xf = campaign_cost(&slice, n, 1_000_000, dv4_best, 1);
        // IPU ad-hoc: one chip per test, 4 in parallel.
        let ia = campaign_cost(&pod, n, 1_000_000, ipu_1chip.khz, 4);
        // IPU fine: whole POD per test, serial.
        let if_ = campaign_cost(&pod, n, 1_000_000, ipu_best.khz, 1);
        writeln!(
            out,
            "{n:>6} | {:>9.2} {:>8.2} | {:>9.2} {:>8.2} | {:>9.2} {:>8.2} | {:>9.2} {:>8.2}",
            xa.hours, xa.usd, xf.hours, xf.usd, ia.hours, ia.usd, if_.hours, if_.usd
        )?;
    }
    writeln!(
        out,
        "\nShape check: IPU ad-hoc is the cheapest IPU strategy; x64 fine-grained"
    )?;
    writeln!(
        out,
        "beats x64 ad-hoc when its self-speedup is high; the IPU costs less overall."
    )?;
    Ok(())
}
