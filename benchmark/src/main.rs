//! One benchmark for the whole Parendi stack.
//!
//! ```text
//! parendi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! parendi-benchmark --workload all [--seed n] [--seconds s] [--smoke] [--repeat N]
//! ```
//!
//! A named workload runs in this process and prints, as the last line of
//! its output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! ledger with `--trace 1`. `--workload all` re-executes the harness
//! once per workload and pass, each in a fresh child process, so peak
//! RSS, thread pools and allocator state never leak from one workload
//! into the next, and collects the children into
//! `benchmark/out/results.json`. See `benchmark/README.md`.

use parendi_benchmark::catalog::{self, END_TO_END, PER_LAYER, WORKLOADS};
use parendi_benchmark::ctx::{self, Ctx, Outcome, REFERENCE_SECONDS};
use parendi_benchmark::json::Json;
use parendi_benchmark::{compile, engine, extras, host, out_dir, serve, stats};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    repeat: usize,
    inject_fault: bool,
    emit_manifest: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: parendi-benchmark --workload <{}|all> [--seed N] [--seconds S] \
         [--trace 0|1] [--smoke] [--repeat N]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: REFERENCE_SECONDS,
        trace: None,
        smoke: false,
        repeat: 1,
        inject_fault: false,
        emit_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat needs at least 1".into());
                }
            }
            "--smoke" => args.smoke = true,
            "--inject-fault" => args.inject_fault = true,
            "--emit-manifest" => args.emit_manifest = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if !args.emit_manifest && args.workload != "all" && catalog::workload(&args.workload).is_none()
    {
        return Err(format!("unknown workload {:?}\n{}", args.workload, usage()));
    }
    Ok(args)
}

/// The constants that size a run, for the host stamp.
fn constants(ctx: &Ctx) -> Json {
    let cases = |cases: &[engine::Case]| {
        Json::Arr(
            cases
                .iter()
                .map(|c| {
                    Json::obj([
                        ("case", Json::str(c.name)),
                        ("tiles", Json::Num(c.tiles as f64)),
                        ("lanes", Json::Num(c.lanes as f64)),
                        ("cycles_t1", Json::Num(ctx.cycles(c.cycles_t1) as f64)),
                        ("cycles_tmax", Json::Num(ctx.cycles(c.cycles_tmax) as f64)),
                        (
                            "verify_cycles",
                            Json::Num(ctx.cycles(c.verify_cycles) as f64),
                        ),
                    ])
                })
                .collect(),
        )
    };
    Json::obj([
        ("reps", Json::Num(ctx.reps() as f64)),
        ("warmup_cycles", Json::Num(ctx.warmup() as f64)),
        (
            "setup_repeats",
            Json::Num(ctx.setup_repeats(ctx::SETUP_REPEATS) as f64),
        ),
        ("single_compute", cases(&engine::SINGLE_COMPUTE)),
        ("single_sync", cases(&engine::SINGLE_SYNC)),
        ("gang_lanes", cases(&engine::GANG_LANES)),
    ])
}

fn metric_json(metrics: &BTreeMap<String, f64>, unit_of: impl Fn(&str) -> &'static str) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, &value)| {
                let m = Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::str(unit_of(name))),
                ]);
                (name.clone(), m)
            })
            .collect(),
    )
}

/// Runs one workload in this process. Returns whether it was correct.
fn run_workload(args: &Args) -> bool {
    let started = Instant::now();
    let trace = args.trace.unwrap_or(false);
    let scale = if args.smoke {
        0.05
    } else {
        args.seconds / REFERENCE_SECONDS
    };
    let ctx = Ctx::new(args.seed, scale, trace, host::tmax(), args.inject_fault);
    let name = args.workload.as_str();
    println!(
        "[{name}] seed {} scale {scale} trace {} tmax {}{}",
        args.seed,
        trace as u8,
        ctx.tmax,
        if args.smoke {
            " (smoke: not comparable)"
        } else {
            ""
        }
    );

    let mut out: Outcome = match (name, trace) {
        ("single_compute", false) => engine::run_end_to_end(&ctx, &engine::SINGLE_COMPUTE),
        ("single_compute", true) => engine::run_traced(&ctx, &engine::SINGLE_COMPUTE),
        ("single_sync", false) => engine::run_end_to_end(&ctx, &engine::SINGLE_SYNC),
        ("single_sync", true) => {
            let mut out = engine::run_traced(&ctx, &engine::SINGLE_SYNC);
            extras::transport_probes(&ctx, &mut out);
            out
        }
        ("gang_lanes", false) => engine::run_end_to_end(&ctx, &engine::GANG_LANES),
        ("gang_lanes", true) => {
            let mut out = engine::run_traced(&ctx, &engine::GANG_LANES);
            extras::gang_probes(&ctx, &mut out);
            out
        }
        ("compile_large", false) => compile::run_end_to_end(&ctx),
        ("compile_large", true) => compile::run_traced(&ctx),
        ("serve_mixed", false) => serve::run_end_to_end(&ctx),
        ("serve_mixed", true) => serve::run_traced(&ctx),
        _ => unreachable!("parse_args checked the workload name"),
    };

    // The last line reports exactly the metrics of the pass: the whole
    // end-to-end set, or the whole ledger with 0 for the layers this
    // workload does not reach. Everything measured goes to the file.
    let oracle_s = out.metrics.get("harness.oracle_s").copied().unwrap_or(0.0);
    let mut reported = BTreeMap::new();
    if trace {
        out.set("harness.wall_s", started.elapsed().as_secs_f64());
        out.set("harness.tmax", ctx.tmax as f64);
        out.set("harness.nproc", host::nproc() as f64);
        for m in PER_LAYER {
            reported.insert(
                m.name.to_string(),
                out.metrics.get(m.name).copied().unwrap_or(0.0),
            );
        }
        let unknown: Vec<_> = out
            .metrics
            .keys()
            .filter(|k| !reported.contains_key(*k))
            .collect();
        assert!(
            unknown.is_empty(),
            "metrics missing from the catalogue: {unknown:?}"
        );
    } else {
        out.metrics
            .entry("peak_rss_mb".into())
            .or_insert_with(host::peak_rss_mb);
        for m in &END_TO_END {
            let value = out.metrics.get(m.name).copied();
            let value = value.unwrap_or_else(|| panic!("{name} did not measure {}", m.name));
            assert!(value > 0.0 && value.is_finite(), "{} = {value}", m.name);
            reported.insert(m.name.to_string(), value);
        }
    }
    let unit_of = |n: &str| {
        END_TO_END
            .iter()
            .find(|m| m.name == n)
            .map(|m| m.unit)
            .or_else(|| catalog::per_layer(n).map(|m| m.unit))
            .unwrap_or("s")
    };

    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    let correct = out.failed == 0;
    let exact: Vec<Json> = PER_LAYER
        .iter()
        .filter(|m| m.exact && trace)
        .map(|m| Json::str(m.name))
        .collect();
    let full = Json::obj([
        ("workload", Json::str(name)),
        ("trace", Json::Bool(trace)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("comparable", Json::Bool(!args.smoke && !args.inject_fault)),
        ("host", host::stamp()),
        ("constants", constants(&ctx)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("digest", Json::str(format!("{:016x}", out.digest))),
        ("oracle_s", Json::Num(oracle_s)),
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
        ("metrics", metric_json(&reported, unit_of)),
        ("exact", Json::Arr(exact)),
    ]);
    let dir = out_dir();
    let file = dir.join(format!("{name}.trace{}.json", trace as u8));
    std::fs::write(&file, full.to_pretty()).expect("result file can be written");
    if trace {
        let path = dir.join(format!("trace_{name}.json"));
        ctx.spans.write(&path).expect("trace file can be written");
        println!("  {} spans -> {}", ctx.spans.count(), path.display());
    }
    println!(
        "  digest {:016x}  ops {}/{} ok  oracle {oracle_s:.2} s  wall {:.2} s -> {}",
        out.digest,
        out.attempted - out.failed,
        out.attempted,
        started.elapsed().as_secs_f64(),
        file.display()
    );
    for (metric, value) in &reported {
        println!("  {metric:<44} {value:>16.6} {}", unit_of(metric));
    }
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metric_json(&reported, unit_of)),
    ]);
    println!("{}", line.to_text());
    correct
}

/// One whole benchmark: every workload, both passes, each in a fresh
/// child process. Returns the collected results, or `None` if a child
/// failed.
fn run_all(args: &Args) -> Option<Json> {
    let exe = std::env::current_exe().expect("own path");
    let dir = out_dir();
    let mut workloads = BTreeMap::new();
    let mut host = Json::Null;
    let mut ok = true;
    for w in &WORKLOADS {
        let mut entry = BTreeMap::new();
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args([
                "--workload",
                w.name,
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            // `status` waits for the child; nothing is left running.
            let status = cmd.status().expect("harness re-executes itself");
            ok &= status.success();
            let file = dir.join(format!("{}.trace{}.json", w.name, trace as u8));
            let result = std::fs::read_to_string(&file)
                .map_err(|e| e.to_string())
                .and_then(|t| Json::parse(&t));
            match result {
                Ok(result) => {
                    if let (Json::Null, Some(h)) = (&host, result.get("host")) {
                        host = h.clone();
                    }
                    entry.insert(
                        if trace { "per_layer" } else { "end_to_end" }.to_string(),
                        result,
                    );
                }
                Err(e) => {
                    eprintln!("{}: no result from the child ({e})", file.display());
                    ok = false;
                }
            }
        }
        workloads.insert(w.name.to_string(), Json::Obj(entry));
    }
    let results = Json::obj([
        ("comparable", Json::Bool(!args.smoke)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("host", host),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::write(dir.join("results.json"), results.to_pretty()).expect("results.json");
    println!("wrote {}", dir.join("results.json").display());
    ok.then_some(results)
}

/// `(workload, pass, metric) -> value` of one collected benchmark, plus
/// the exact counts and digests that must repeat bit-for-bit.
fn flatten(results: &Json) -> (BTreeMap<(String, String), f64>, BTreeMap<String, String>) {
    let mut values = BTreeMap::new();
    let mut exact = BTreeMap::new();
    let workloads = results.get("workloads").and_then(Json::as_obj);
    for (w, passes) in workloads.into_iter().flatten() {
        for (pass, result) in passes.as_obj().into_iter().flatten() {
            let digest = result.get("digest").and_then(Json::as_str).unwrap_or("");
            exact.insert(format!("{w}/{pass}/digest"), digest.to_string());
            let exact_names: Vec<&str> = result
                .get("exact")
                .and_then(Json::as_arr)
                .into_iter()
                .flatten()
                .filter_map(Json::as_str)
                .collect();
            let metrics = result.get("metrics").and_then(Json::as_obj);
            for (name, m) in metrics.into_iter().flatten() {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                if exact_names.contains(&name.as_str()) {
                    exact.insert(format!("{w}/{name}"), format!("{value:?}"));
                } else if pass == "end_to_end" {
                    values.insert((w.clone(), name.clone()), value);
                }
            }
        }
    }
    (values, exact)
}

/// Runs the whole benchmark `n` times and judges whether the sets agree.
fn run_repeat(args: &Args) -> bool {
    let mut sets = Vec::new();
    for i in 0..args.repeat {
        println!("== set {} of {} ==", i + 1, args.repeat);
        match run_all(args) {
            Some(results) => sets.push(flatten(&results)),
            None => return false,
        }
    }
    if sets.len() == 1 {
        println!("\n{:<16} {:<14} {:>16}", "workload", "metric", "value");
        for ((w, metric), value) in &sets[0].0 {
            println!("{w:<16} {metric:<14} {value:>16.4}");
        }
        return true;
    }
    let mut agree = true;
    println!(
        "\n{:<16} {:<14} {:>14} {:>14} {:>14} {:>7} {:>7} {:>6}",
        "workload", "metric", "median", "q1", "q3", "spread", "range", "bound"
    );
    for (w, metric) in sets[0].0.keys() {
        let values: Vec<f64> = sets
            .iter()
            .filter_map(|s| s.0.get(&(w.clone(), metric.clone())).copied())
            .collect();
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == metric)
            .map_or(0.25, |m| m.bound);
        let med = stats::median(&values);
        // Two sets disagree when the metric moved by more than its bound
        // between them although the code did not change.
        let (q1, q3) = stats::quartiles(&values);
        let lo = values.iter().cloned().fold(f64::MAX, f64::min);
        let hi = values.iter().cloned().fold(f64::MIN, f64::max);
        let (spread, range) = (stats::spread(&values), (hi - lo) / med);
        let verdict = if range > bound { "DISAGREE" } else { "" };
        agree &= range <= bound;
        println!(
            "{w:<16} {metric:<14} {med:>14.4} {q1:>14.4} {q3:>14.4} {:>6.1}% {:>6.1}% {:>5.0}% {verdict}",
            spread * 100.0,
            range * 100.0,
            bound * 100.0
        );
    }
    for (name, first) in &sets[0].1 {
        if let Some(other) = sets
            .iter()
            .find_map(|s| s.1.get(name).filter(|v| *v != first))
        {
            println!("EXACT VALUE CHANGED  {name}: {first} vs {other}");
            agree = false;
        }
    }
    println!("{}", if agree { "sets agree" } else { "sets DISAGREE" });
    agree
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_manifest {
        print!("{}", catalog::manifest().to_pretty());
        return ExitCode::SUCCESS;
    }
    let ok = if args.workload == "all" {
        run_repeat(&args)
    } else {
        run_workload(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
