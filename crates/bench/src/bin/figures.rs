//! `figures [--quick] <fig01|…|fig17|table1|table2|report|all>`: print
//! one of the paper's figures or tables (or all of them, in paper
//! order) from the cost model. `--quick` shrinks every sweep.
//!
//! `report` honours `PARENDI_TRACE` (an on-disk copy of the trace it
//! was computed from) and `PARENDI_TRANSPORT`, like any other engine
//! run.

use parendi_bench::FIGURES;
use std::io::Write;
use std::process::ExitCode;

fn usage() -> ExitCode {
    let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
    eprintln!("usage: figures [--quick] <{}|all>", names.join("|"));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut which = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            name if which.is_none() && !name.starts_with('-') => which = Some(arg),
            _ => return usage(),
        }
    }
    let Some(which) = which else {
        return usage();
    };
    let picked: Vec<_> = FIGURES
        .iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .collect();
    if picked.is_empty() {
        return usage();
    }
    let mut out = std::io::stdout().lock();
    for (i, (_, figure)) in picked.iter().enumerate() {
        let sep = if i > 0 { writeln!(out) } else { Ok(()) };
        if let Err(e) = sep.and_then(|()| figure(&mut out, quick)) {
            eprintln!("figures: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
