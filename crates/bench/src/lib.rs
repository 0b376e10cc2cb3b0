//! # parendi-bench
//!
//! The experiment harness: shared helpers used by the per-figure
//! binaries (`src/bin/fig*.rs`, `src/bin/table*.rs`) that regenerate
//! every table and figure of the paper's evaluation, plus Criterion
//! micro-benchmarks (`benches/`).
//!
//! Environment knobs honoured by the binaries:
//!
//! * `PARENDI_SR_MAX` / `PARENDI_LR_MAX` — largest mesh sides (default
//!   15 / 10, the paper's sweep);
//! * `PARENDI_QUICK=1` — shrink every sweep for a fast smoke run.

#![warn(missing_docs)]

use parendi_baseline::VerilatorModel;
use parendi_core::{compile, Compilation, PartitionConfig};
use parendi_designs::Benchmark;
use parendi_machine::ipu::{IpuConfig, IpuTimings};
use parendi_machine::x64::X64Config;
use parendi_rtl::Circuit;
use parendi_sim::timing::ipu_timings;

/// The paper's IPU tile sweep: 1, 2, 3 and 4 chips.
pub const TILE_SWEEP: [u32; 4] = [1472, 2944, 4416, 5888];

/// Whether quick mode is requested.
pub fn quick() -> bool {
    std::env::var("PARENDI_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Honours a `--quick` CLI flag by setting `PARENDI_QUICK=1` for this
/// process (so `gang_lanes --quick` equals `PARENDI_QUICK=1 gang_lanes`).
/// Call at the top of a binary's `main`.
pub fn parse_quick_flag() {
    if std::env::args().any(|a| a == "--quick") {
        std::env::set_var("PARENDI_QUICK", "1");
    }
}

/// Cores the host offers this process (`available_parallelism`; 0 when
/// unknown) — the stamp every fresh [`BenchRecord`] carries.
pub fn host_cores() -> u32 {
    std::thread::available_parallelism().map_or(0, |c| c.get() as u32)
}

/// One machine-readable measurement of an engine run: the row schema of
/// the `BENCH_*.json` files every engine-column bench bin emits (and of
/// the checked-in pre-PR baselines they compare against).
#[derive(Clone, Debug, Default)]
pub struct BenchRecord {
    /// Emitting binary (`gang_lanes`, `fig04`, …).
    pub bin: String,
    /// Design key (`sprng32`, `sr3`, `prng64`, …).
    pub design: String,
    /// `bsp` (single-scenario) or `gang`.
    pub engine: String,
    /// Whether the gang ran with bit-packed 1-bit lanes (absent in
    /// pre-PR5 baselines, parsed as `false`).
    pub packed: bool,
    /// Vector-ISA column tag of the PR6–PR11 baselines' separate
    /// word-interleaved column (`avx2`, `neon`, `scalar`). Empty on
    /// every row the bins write now (there is one strided gang) and on
    /// pre-PR6 baselines, where the field is absent. Part of the row
    /// key, so fresh rows never gate against those tagged rows.
    pub simd: String,
    /// Chips the partition spans.
    pub chips: u32,
    /// Tiles used.
    pub tiles: u32,
    /// Scenario lanes (1 for the bsp engine).
    pub lanes: u32,
    /// Worker threads requested.
    pub threads: u32,
    /// Cores the measuring host offered (`available_parallelism`);
    /// absent in pre-PR13 rows, parsed as 0 = unknown. A multi-thread
    /// row means little without it.
    pub cores: u32,
    /// RTL cycles of the measured run.
    pub cycles: u64,
    /// Wall-clock RTL cycles per second (untimed run, best rep).
    pub cycles_per_s: f64,
    /// Aggregate scenario-cycles per second (`lanes ×` the above).
    pub lane_cycles_per_s: f64,
    /// Straggler compute seconds over the timed run.
    pub compute_s: f64,
    /// Straggler off-chip flush + residual link seconds.
    pub offchip_s: f64,
    /// Straggler exchange (incl. barrier) seconds.
    pub exchange_s: f64,
    /// Modeled link seconds hidden by the flush/compute overlap.
    pub overlap_s: f64,
    /// Wall seconds of the timed run.
    pub total_s: f64,
    /// Engine metrics snapshot at record time, serialized as a nested
    /// `"metrics":{...}` object. Absent in pre-PR8 baselines (parsed
    /// as empty) and omitted from the JSON when empty, so old and new
    /// records round-trip through either reader.
    pub metrics: parendi_sim::MetricsSnapshot,
}

impl BenchRecord {
    /// Builds a record from a run shape, its measured rate (RTL
    /// cycles/s from the untimed reps), and the timed run's phase
    /// split — the one constructor every engine-column bin shares.
    #[allow(clippy::too_many_arguments)]
    pub fn from_phases(
        bin: &str,
        design: impl Into<String>,
        engine: &str,
        packed: bool,
        chips: u32,
        tiles: u32,
        lanes: u32,
        threads: u32,
        cycles: u64,
        cycles_per_s: f64,
        ph: &parendi_sim::BspPhases,
    ) -> Self {
        BenchRecord {
            bin: bin.into(),
            design: design.into(),
            engine: engine.into(),
            packed,
            simd: String::new(),
            chips,
            tiles,
            lanes,
            threads,
            cores: host_cores(),
            cycles,
            cycles_per_s,
            lane_cycles_per_s: cycles_per_s * lanes as f64,
            compute_s: ph.compute_s,
            offchip_s: ph.offchip_s,
            exchange_s: ph.exchange_s,
            overlap_s: ph.overlap_s,
            total_s: ph.total_s,
            metrics: parendi_sim::MetricsSnapshot::default(),
        }
    }

    /// Attaches an engine metrics snapshot (chainable on
    /// [`from_phases`](Self::from_phases)).
    pub fn with_metrics(mut self, metrics: parendi_sim::MetricsSnapshot) -> Self {
        self.metrics = metrics;
        self
    }

    /// One JSON object: flat scalar fields (no escapes — keys and the
    /// string fields stay within `[A-Za-z0-9_ .-]`), plus one optional
    /// nested `"metrics":{...}` object when a snapshot is attached.
    pub fn to_json(&self) -> String {
        let metrics = if self.metrics.is_empty() {
            String::new()
        } else {
            format!(",\"metrics\":{}", self.metrics.to_json())
        };
        format!(
            "{{\"bin\":\"{}\",\"design\":\"{}\",\"engine\":\"{}\",\"packed\":{},\"simd\":\"{}\",\
             \"chips\":{},\"tiles\":{},\
             \"lanes\":{},\"threads\":{},\"cores\":{},\"cycles\":{},\"cycles_per_s\":{:.1},\
             \"lane_cycles_per_s\":{:.1},\"compute_s\":{:.9},\"offchip_s\":{:.9},\
             \"exchange_s\":{:.9},\"overlap_s\":{:.9},\"total_s\":{:.9}{metrics}}}",
            self.bin,
            self.design,
            self.engine,
            self.packed,
            self.simd,
            self.chips,
            self.tiles,
            self.lanes,
            self.threads,
            self.cores,
            self.cycles,
            self.cycles_per_s,
            self.lane_cycles_per_s,
            self.compute_s,
            self.offchip_s,
            self.exchange_s,
            self.overlap_s,
            self.total_s,
        )
    }
}

/// Renders records as a JSON array (one object per line).
pub fn bench_records_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&r.to_json());
        out.push_str(if i + 1 == records.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

/// `$PARENDI_BENCH_DIR/BENCH_<bin>.json` (default directory: the
/// current one), with the directory created.
fn bench_json_path(bin: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var("PARENDI_BENCH_DIR").unwrap_or_else(|_| ".".into());
    std::fs::create_dir_all(&dir)?;
    Ok(std::path::Path::new(&dir).join(format!("BENCH_{bin}.json")))
}

/// Writes `BENCH_<bin>.json` into `$PARENDI_BENCH_DIR` (default: the
/// current directory) and returns the path. The CI bench smoke uploads
/// these as artifacts — the perf trajectory of the engine.
pub fn write_bench_json(bin: &str, records: &[BenchRecord]) -> std::io::Result<std::path::PathBuf> {
    let path = bench_json_path(bin)?;
    std::fs::write(&path, bench_records_json(records))?;
    Ok(path)
}

/// Appends `records` to `BENCH_<bin>.json` in `$PARENDI_BENCH_DIR`
/// (default: the current directory), leaving every row already there
/// byte for byte — a trajectory file, in which the newest row of a key
/// is the last one. Returns the path and the total row count.
pub fn append_bench_json(
    bin: &str,
    records: &[BenchRecord],
) -> std::io::Result<(std::path::PathBuf, usize)> {
    let path = bench_json_path(bin)?;
    let rows = append_rows(&path, records)?;
    Ok((path, rows))
}

/// [`append_bench_json`] on an explicit file; returns the row count.
fn append_rows(path: &std::path::Path, records: &[BenchRecord]) -> std::io::Result<usize> {
    let old = std::fs::read_to_string(path).unwrap_or_default();
    // Everything up to the closing bracket is history, kept verbatim.
    let history = old.rfind(']').map_or("[", |at| old[..at].trim_end());
    let mut text = String::from(history);
    for r in records {
        text.push_str(if text.ends_with('[') { "\n" } else { ",\n" });
        text.push_str(&r.to_json());
    }
    text.push_str("\n]\n");
    std::fs::write(path, &text)?;
    Ok(parse_bench_json(&text).len())
}

/// Byte offset of the `}` matching the `{` at `open` (depth-counted;
/// the schema guarantees no braces inside strings). `None` on
/// truncated input.
fn matching_brace(s: &str, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, b) in s.as_bytes().iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => match depth {
                // A close before any open: malformed, bail.
                0 => return None,
                1 => return Some(i),
                _ => depth -= 1,
            },
            _ => {}
        }
    }
    None
}

/// Parses the JSON produced by [`bench_records_json`] (and by the
/// baseline capture): flat scalar fields plus the optional nested
/// `"metrics":{...}` object, which is excised and parsed separately
/// so records with and without it (pre-PR8 baselines) both round-trip.
/// Tolerant of whitespace; not a general JSON parser — exactly the
/// schema above.
pub fn parse_bench_json(text: &str) -> Vec<BenchRecord> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find('{') {
        let Some(end) = matching_brace(rest, start) else {
            break;
        };
        let mut obj = rest[start + 1..end].to_string();
        let mut r = BenchRecord::default();
        if let Some(m) = obj.find("\"metrics\":") {
            let vstart = m + "\"metrics\":".len();
            if let Some(vend) = matching_brace(&obj, vstart) {
                r.metrics = parendi_sim::MetricsSnapshot::parse_json(&obj[vstart..=vend]);
                obj.replace_range(m..=vend, "");
            }
        }
        for field in obj.split(',') {
            let Some((k, v)) = field.split_once(':') else {
                continue;
            };
            let k = k.trim().trim_matches('"');
            let v = v.trim();
            let s = v.trim_matches('"').to_string();
            let n = v.parse::<f64>().unwrap_or(0.0);
            match k {
                "bin" => r.bin = s,
                "design" => r.design = s,
                "engine" => r.engine = s,
                // Absent in pre-PR5 baselines: stays `false` (strided).
                "packed" => r.packed = v == "true",
                // Absent in pre-PR6 baselines: stays empty.
                "simd" => r.simd = s,
                "chips" => r.chips = n as u32,
                "tiles" => r.tiles = n as u32,
                "lanes" => r.lanes = n as u32,
                "threads" => r.threads = n as u32,
                // Absent in pre-PR13 rows: stays 0 (unknown).
                "cores" => r.cores = n as u32,
                "cycles" => r.cycles = n as u64,
                "cycles_per_s" => r.cycles_per_s = n,
                "lane_cycles_per_s" => r.lane_cycles_per_s = n,
                "compute_s" => r.compute_s = n,
                "offchip_s" => r.offchip_s = n,
                "exchange_s" => r.exchange_s = n,
                "overlap_s" => r.overlap_s = n,
                "total_s" => r.total_s = n,
                _ => {}
            }
        }
        out.push(r);
        rest = &rest[end + 1..];
    }
    out
}

/// Loads the pre-PR baseline records: `$PARENDI_BASELINE` if set, else
/// the checked-in `baselines/pre_pr4.json` next to this crate. `None`
/// if neither exists (the bins then skip the side-by-side columns).
pub fn load_baseline() -> Option<Vec<BenchRecord>> {
    let path = std::env::var("PARENDI_BASELINE")
        .unwrap_or_else(|_| format!("{}/baselines/pre_pr4.json", env!("CARGO_MANIFEST_DIR")));
    let text = std::fs::read_to_string(path).ok()?;
    Some(parse_bench_json(&text))
}

/// The baseline aggregate rate for a `(bin, design, engine, packed,
/// simd, lanes, threads)` row, if the baseline has it. The `simd` tag
/// is an exact key component: strided rows (and pre-PR6 baselines)
/// carry the empty tag, so old baselines keep matching strided rows
/// while word-interleaved SIMD rows only gate against a baseline that
/// measured the same ISA. In a trajectory file (several rows per key,
/// see [`append_bench_json`]) the newest — last — row answers.
#[allow(clippy::too_many_arguments)]
pub fn baseline_rate(
    base: &[BenchRecord],
    bin: &str,
    design: &str,
    engine: &str,
    packed: bool,
    simd: &str,
    lanes: u32,
    threads: u32,
) -> Option<f64> {
    base.iter()
        .rev()
        .find(|r| {
            r.bin == bin
                && r.design == design
                && r.engine == engine
                && r.packed == packed
                && r.simd == simd
                && r.lanes == lanes
                && r.threads == threads
        })
        .map(|r| r.lane_cycles_per_s)
}

/// The noise tolerance of the CI bench-regression gate: a fresh rate
/// below `baseline × (1 - tolerance)` fails. Defaults to 25%;
/// `PARENDI_BENCH_TOLERANCE` overrides (e.g. `0.4` on noisy shared
/// runners).
pub fn bench_tolerance() -> f64 {
    std::env::var("PARENDI_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25)
}

/// Compares fresh bench records against a baseline and returns one
/// human-readable line per **regression**: a `(bin, design, engine,
/// packed, simd, lanes, threads)` row present in both sets whose fresh
/// `lane_cycles_per_s` fell below `baseline × (1 - tolerance)`.
/// Baseline rows missing from `fresh` are ignored (sweeps may shrink in
/// quick mode), as are fresh rows with no baseline (new columns).
///
/// This is the engine of the `bench_check` CI gate — kept in the
/// library so the failure path is unit-testable.
pub fn check_regressions(
    fresh: &[BenchRecord],
    base: &[BenchRecord],
    tolerance: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for b in base {
        if b.lane_cycles_per_s <= 0.0 {
            continue;
        }
        let Some(f) = baseline_rate(
            fresh, &b.bin, &b.design, &b.engine, b.packed, &b.simd, b.lanes, b.threads,
        ) else {
            continue;
        };
        let floor = b.lane_cycles_per_s * (1.0 - tolerance);
        if f < floor {
            failures.push(format!(
                "{}/{} engine={}{}{} lanes={} threads={}: {:.1} kcyc/s < floor {:.1} \
                 (baseline {:.1}, {:+.1}%)",
                b.bin,
                b.design,
                b.engine,
                if b.packed { " (packed)" } else { "" },
                if b.simd.is_empty() {
                    String::new()
                } else {
                    format!(" (simd {})", b.simd)
                },
                b.lanes,
                b.threads,
                f / 1e3,
                floor / 1e3,
                b.lane_cycles_per_s / 1e3,
                (f / b.lane_cycles_per_s - 1.0) * 100.0,
            ));
        }
    }
    failures
}

/// Formats the side-by-side `vs pre-PR` cell: `+17.3%` (or `-` when the
/// baseline lacks the row).
pub fn vs_baseline_cell(now: f64, base: Option<f64>) -> String {
    match base {
        Some(b) if b > 0.0 => format!("{:+.1}%", (now / b - 1.0) * 100.0),
        _ => "-".into(),
    }
}

/// Largest srN mesh side (default 15; quick mode 6).
pub fn sr_max() -> u32 {
    std::env::var("PARENDI_SR_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick() { 6 } else { 15 })
}

/// Largest lrN mesh side (default 10; quick mode 4).
pub fn lr_max() -> u32 {
    std::env::var("PARENDI_LR_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick() { 4 } else { 10 })
}

/// One Parendi compilation + timing data point.
#[derive(Debug)]
pub struct IpuPoint {
    /// Tiles requested.
    pub tiles: u32,
    /// Tiles actually used.
    pub tiles_used: u32,
    /// Cost breakdown.
    pub timings: IpuTimings,
    /// Simulation rate in kHz.
    pub khz: f64,
    /// The compilation itself.
    pub comp: Compilation,
}

/// Compiles `circuit` for `tiles` tiles and evaluates it on `ipu`.
///
/// # Panics
///
/// Panics if compilation fails (benchmark designs are sized to fit).
pub fn ipu_point(circuit: &Circuit, tiles: u32, ipu: &IpuConfig) -> IpuPoint {
    let mut cfg = PartitionConfig::with_tiles(tiles);
    cfg.tiles_per_chip = ipu.tiles_per_chip;
    cfg.data_bytes_per_tile = ipu.data_bytes_per_tile;
    cfg.code_bytes_per_tile = ipu.code_bytes_per_tile;
    let comp = compile(circuit, &cfg)
        .unwrap_or_else(|e| panic!("{} does not compile at {tiles} tiles: {e}", circuit.name));
    let timings = ipu_timings(&comp, ipu);
    IpuPoint {
        tiles,
        tiles_used: comp.partition.tiles_used(),
        khz: timings.rate_khz(ipu),
        timings,
        comp,
    }
}

/// The best Parendi rate over the paper's tile sweep.
pub fn best_ipu(circuit: &Circuit, ipu: &IpuConfig) -> IpuPoint {
    let sweep: &[u32] = if quick() {
        &TILE_SWEEP[..2]
    } else {
        &TILE_SWEEP
    };
    sweep
        .iter()
        .map(|&t| ipu_point(circuit, t, ipu))
        .max_by(|a, b| a.khz.partial_cmp(&b.khz).expect("rates are finite"))
        .expect("non-empty sweep")
}

/// One Verilator data point on an x64 host.
#[derive(Clone, Copy, Debug)]
pub struct VerilatorPoint {
    /// Single-thread rate in kHz.
    pub st_khz: f64,
    /// Best multithread rate in kHz.
    pub mt_khz: f64,
    /// Threads achieving the best rate.
    pub threads: u32,
    /// Self-relative gain.
    pub gain: f64,
}

/// Evaluates the Verilator model on `host` with the paper's 2..=32 sweep.
pub fn verilator_point(model: &VerilatorModel, host: &X64Config) -> VerilatorPoint {
    let st = model.rate_khz(host, 1);
    let (threads, mt, gain) = model.best(host, 32);
    VerilatorPoint {
        st_khz: st,
        mt_khz: mt,
        threads,
        gain,
    }
}

/// The fitted off-chip spin knob: the engine's
/// `set_offchip_spin_per_word` constant calibrated against the machine
/// model's off-chip link throughput (`offchip_bytes_per_cycle` /
/// `offchip_contention`), so the engine's *measured* off-chip flush
/// seconds and the model's off-chip exchange cycles can be printed in
/// shared units (model cycles per RTL cycle).
#[derive(Clone, Copy, Debug)]
pub struct OffchipCalibration {
    /// Spin iterations per flushed word (rounded, at least 1) — pass to
    /// `set_offchip_spin_per_word`.
    pub spins_per_word: u32,
    /// The unrounded fit.
    pub spins_per_word_exact: f64,
    /// Host seconds one modeled IPU compute cycle costs on this box
    /// (fitted from a timed single-chip engine run of a reference
    /// design: host compute seconds per RTL cycle / total modeled
    /// per-cycle compute cycles).
    pub host_s_per_model_cycle: f64,
    /// Measured spin-loop iterations per second on this host.
    pub spin_hz: f64,
}

impl OffchipCalibration {
    /// Converts measured host seconds into modeled IPU cycles — the
    /// shared unit the calibrated columns are printed in.
    pub fn host_s_to_model_cycles(&self, seconds: f64) -> f64 {
        seconds / self.host_s_per_model_cycle
    }
}

/// Measures the host's spin-loop rate (iterations/second), growing the
/// sample until it spans at least 10 ms.
fn measure_spin_hz() -> f64 {
    let mut iters = 1u64 << 20;
    loop {
        let t = std::time::Instant::now();
        for _ in 0..iters {
            std::hint::spin_loop();
        }
        let s = t.elapsed().as_secs_f64();
        if s >= 0.01 || iters >= 1 << 30 {
            return iters as f64 / s.max(1e-9);
        }
        iters *= 4;
    }
}

/// Fits the engine's off-chip spin knob to `ipu`'s modeled off-chip
/// link, once per host (ROADMAP follow-up: "calibrate the off-chip
/// spin knob against the modeled `offchip_bytes_per_cycle` so measured
/// and modeled columns share units").
///
/// The fit chains two measurements:
///
/// 1. a timed single-chip engine run of a reference design gives the
///    host-seconds-per-modeled-compute-cycle ratio (how fast this box
///    is relative to the modeled machine, in the model's own cycle
///    currency);
/// 2. the host's spin-loop rate converts a desired host delay into
///    spin iterations.
///
/// The modeled link moves `offchip_bytes_per_cycle / offchip_contention`
/// bytes per model cycle, i.e. one 8-byte word costs
/// `8 × contention / bytes_per_cycle` model cycles; scaling by (1) and
/// (2) yields spin iterations per word. The fixed `offchip_latency` is
/// deliberately *not* folded in — the knob models the throughput term
/// (`m×b`, Fig. 5 right), and the figure binaries print the modeled
/// latency floor separately.
pub fn calibrate_offchip_spin(ipu: &IpuConfig) -> OffchipCalibration {
    let spin_hz = measure_spin_hz();
    let circuit = Benchmark::Sr(3).build();
    // Defaults keep tiles_per_chip at machine scale: one chip, so the
    // timed run has a pure compute/exchange split with no flush term.
    let cfg = PartitionConfig::with_tiles(16);
    let comp = compile(&circuit, &cfg).expect("reference design compiles");
    let model_comp: u64 = comp.partition.processes.iter().map(|p| p.ipu_cost).sum();
    // One thread on purpose: the inline path's compute_s covers every
    // tile, matching the summed model cycles.
    let mut sim = parendi_sim::BspSimulator::new(&circuit, &comp.partition, 1);
    sim.run(50); // warm caches
    let cycles: u64 = if quick() { 200 } else { 500 };
    let ph = sim.run_timed(cycles);
    let host_s_per_model_cycle = (ph.compute_s / cycles as f64) / model_comp.max(1) as f64;
    let model_cycles_per_word = 8.0 * ipu.offchip_contention / ipu.offchip_bytes_per_cycle;
    let exact = model_cycles_per_word * host_s_per_model_cycle * spin_hz;
    OffchipCalibration {
        spins_per_word: exact.round().max(1.0) as u32,
        spins_per_word_exact: exact,
        host_s_per_model_cycle,
        spin_hz,
    }
}

/// Geometric mean of an iterator of positive values.
pub fn gmean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0u32), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        return 0.0;
    }
    (sum / n as f64).exp()
}

/// Prints a rule line sized for `width` columns.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a f64 with 2 decimals, right-aligned to 9 chars.
pub fn f2(v: f64) -> String {
    format!("{v:9.2}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use parendi_designs::Benchmark;

    fn rec(design: &str, engine: &str, packed: bool, lanes: u32, rate: f64) -> BenchRecord {
        BenchRecord {
            bin: "gang_lanes".into(),
            design: design.into(),
            engine: engine.into(),
            packed,
            lanes,
            threads: 1,
            cycles: 100,
            cycles_per_s: rate / lanes.max(1) as f64,
            lane_cycles_per_s: rate,
            ..BenchRecord::default()
        }
    }

    /// The CI gate's failure path: a synthetic regression beyond the
    /// tolerance must be reported, one line per offending row.
    #[test]
    fn regression_gate_fails_on_synthetic_regression() {
        let base = vec![
            rec("sprng32", "bsp", false, 1, 100_000.0),
            rec("sprng32", "gang", false, 4, 400_000.0),
            rec("sr3", "gang", true, 64, 900_000.0),
        ];
        // 50% regression on one row, small noise on the others.
        let fresh = vec![
            rec("sprng32", "bsp", false, 1, 50_000.0),
            rec("sprng32", "gang", false, 4, 390_000.0),
            rec("sr3", "gang", true, 64, 880_000.0),
        ];
        let failures = check_regressions(&fresh, &base, 0.25);
        assert_eq!(failures.len(), 1, "exactly the regressed row: {failures:?}");
        assert!(failures[0].contains("sprng32"), "{}", failures[0]);
        assert!(failures[0].contains("bsp"), "{}", failures[0]);
        // Inside the tolerance: clean.
        assert!(check_regressions(&fresh, &base, 0.6).is_empty());
    }

    /// Rows missing on either side never fail the gate (quick-mode
    /// sweeps shrink; new columns have no baseline), and packed rows
    /// only compare against packed baselines.
    #[test]
    fn regression_gate_ignores_unmatched_rows() {
        let base = vec![
            rec("sprng32", "gang", false, 16, 1_000_000.0),
            rec("sr3", "gang", true, 64, 900_000.0),
        ];
        // Same key except packed flag → no match, no failure.
        let fresh = vec![rec("sr3", "gang", false, 64, 10_000.0)];
        assert!(check_regressions(&fresh, &base, 0.25).is_empty());
        assert!(check_regressions(&[], &base, 0.25).is_empty());
    }

    /// The `packed` field survives a JSON round-trip, and records
    /// without it (pre-PR5 baselines) parse as strided.
    #[test]
    fn packed_field_round_trips_and_defaults_false() {
        let r = rec("sr3", "gang", true, 64, 1.5e6);
        let parsed = parse_bench_json(&bench_records_json(std::slice::from_ref(&r)));
        assert_eq!(parsed.len(), 1);
        assert!(parsed[0].packed);
        assert_eq!(parsed[0].lanes, 64);
        // A pre-PR5 row without the field.
        let old = "[{\"bin\":\"gang_lanes\",\"design\":\"sr3\",\"engine\":\"gang\",\
                    \"chips\":2,\"tiles\":16,\"lanes\":4,\"threads\":1,\"cycles\":300,\
                    \"cycles_per_s\":1000.0,\"lane_cycles_per_s\":4000.0}]";
        let parsed = parse_bench_json(old);
        assert_eq!(parsed.len(), 1);
        assert!(!parsed[0].packed, "absent packed field parses as strided");
        assert_eq!(parsed[0].lane_cycles_per_s, 4000.0);
    }

    /// The `simd` tag survives a JSON round-trip, records without it
    /// (pre-PR6 baselines) parse as the empty strided tag, and the tag
    /// is part of the regression key — a SIMD row never gates against a
    /// strided baseline, or against a different ISA.
    #[test]
    fn simd_field_round_trips_and_keys_rows() {
        let mut r = rec("sr3", "gang", false, 64, 2.0e6);
        r.simd = "avx2".into();
        let parsed = parse_bench_json(&bench_records_json(std::slice::from_ref(&r)));
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].simd, "avx2");
        // A pre-PR6 row without the field parses as strided.
        let old = "[{\"bin\":\"gang_lanes\",\"design\":\"sr3\",\"engine\":\"gang\",\
                    \"packed\":false,\"lanes\":64,\"threads\":1,\
                    \"lane_cycles_per_s\":4000.0}]";
        assert!(parse_bench_json(old)[0].simd.is_empty());
        // Key separation: a slow SIMD row must not trip a strided
        // baseline (different key), while a matching SIMD row must.
        let base = vec![rec("sr3", "gang", false, 64, 2.0e6)];
        let mut slow = rec("sr3", "gang", false, 64, 10.0);
        slow.simd = "avx2".into();
        assert!(check_regressions(std::slice::from_ref(&slow), &base, 0.25).is_empty());
        let mut simd_base = rec("sr3", "gang", false, 64, 2.0e6);
        simd_base.simd = "avx2".into();
        let failures = check_regressions(std::slice::from_ref(&slow), &[simd_base], 0.25);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("simd avx2"), "{}", failures[0]);
    }

    /// Metrics snapshots round-trip through the nested `"metrics"`
    /// object, records without one (pre-PR8 baselines) parse as
    /// empty, and the flat fields still parse with the nested object
    /// present — the depth-aware parser never mistakes a metric entry
    /// for a record field.
    #[test]
    fn metrics_field_round_trips_and_defaults_empty() {
        let mut r = rec("sr3", "gang", false, 8, 1.0e6);
        r.metrics = parendi_sim::MetricsSnapshot::parse_json(
            "{\"cycles_run\":300,\"offchip_bytes_sent\":4096}",
        );
        let parsed = parse_bench_json(&bench_records_json(std::slice::from_ref(&r)));
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].metrics.get("cycles_run"), Some(300));
        assert_eq!(parsed[0].metrics.get("offchip_bytes_sent"), Some(4096));
        assert_eq!(parsed[0].lanes, 8);
        assert_eq!(parsed[0].lane_cycles_per_s, 1.0e6);
        // A pre-PR8 row without the field parses as empty metrics.
        let old = "[{\"bin\":\"gang_lanes\",\"design\":\"sr3\",\"engine\":\"gang\",\
                    \"lanes\":8,\"threads\":1,\"lane_cycles_per_s\":4000.0}]";
        assert!(parse_bench_json(old)[0].metrics.is_empty());
        // An empty snapshot emits no metrics key (old-schema shape).
        assert!(!rec("sr3", "gang", false, 8, 1.0)
            .to_json()
            .contains("metrics"));
        // Mixed old/new records in one file both survive, and the gate
        // keys (lanes/threads/rate) match across the schema change.
        let mixed = format!(
            "[{},\n{}]",
            r.to_json(),
            rec("sr3", "gang", false, 8, 900_000.0).to_json()
        );
        let both = parse_bench_json(&mixed);
        assert_eq!(both.len(), 2);
        assert!(!both[0].metrics.is_empty());
        assert!(both[1].metrics.is_empty());
        assert!(check_regressions(&both[1..], &both[..1], 0.25).is_empty());
    }

    /// The `cores` stamp round-trips, rows without it (pre-PR13) parse
    /// as 0, and appending to a trajectory file keeps the old rows byte
    /// for byte with the newest row of a key answering rate lookups.
    #[test]
    fn cores_field_and_trajectory_append() {
        let mut r = rec("prng64", "bsp", false, 1, 5.0e5);
        r.cores = 2;
        let parsed = parse_bench_json(&bench_records_json(std::slice::from_ref(&r)));
        assert_eq!(parsed[0].cores, 2);
        let old = "[\n{\"bin\":\"gang_lanes\",\"design\":\"prng64\",\"engine\":\"bsp\",\
                   \"lanes\":1,\"threads\":1,\"lane_cycles_per_s\":4000.0}\n]\n";
        assert_eq!(parse_bench_json(old)[0].cores, 0);

        let dir = std::env::temp_dir().join(format!("parendi-append-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_traj.json");
        std::fs::write(&path, old).unwrap();
        let rows = append_rows(&path, std::slice::from_ref(&r)).unwrap();
        assert_eq!(rows, 2);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(old.trim_end().trim_end_matches(']').trim_end()));
        let all = parse_bench_json(&text);
        let newest = baseline_rate(&all, "gang_lanes", "prng64", "bsp", false, "", 1, 1);
        assert_eq!(newest, Some(5.0e5), "the last row of a key answers");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gmean_is_geometric() {
        assert!((gmean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((gmean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(gmean([]), 0.0);
    }

    #[test]
    fn ipu_point_monotone_tiles() {
        let c = Benchmark::Bitcoin.build();
        let ipu = IpuConfig::m2000();
        let p1 = ipu_point(&c, 64, &ipu);
        let p2 = ipu_point(&c, 1472, &ipu);
        assert!(p2.tiles_used >= p1.tiles_used);
        assert!(p2.timings.comp <= p1.timings.comp);
    }

    #[test]
    fn calibration_fits_a_usable_constant() {
        let ipu = IpuConfig::m2000();
        let cal = calibrate_offchip_spin(&ipu);
        assert!(cal.spins_per_word >= 1);
        assert!(cal.spins_per_word_exact > 0.0);
        assert!(cal.spin_hz > 0.0);
        assert!(cal.host_s_per_model_cycle > 0.0);
        let cycles = cal.host_s_to_model_cycles(cal.host_s_per_model_cycle);
        assert!((cycles - 1.0).abs() < 1e-12, "unit round-trip");
    }

    #[test]
    fn verilator_point_sane() {
        let c = Benchmark::Mc.build();
        let m = VerilatorModel::new(&c);
        let p = verilator_point(&m, &X64Config::ix3());
        assert!(p.st_khz > 0.0);
        assert!(p.mt_khz >= p.st_khz * 0.5);
        assert!(p.threads >= 1);
    }
}
