//! Fig. 1: chip growth vs single-thread performance, and the implied
//! core count needed to simulate a flagship chip at the 2006 rate.

use parendi_machine::trends;
use std::io::{self, Write};

/// Fig. 1: chip growth vs single-thread performance.
pub fn fig01(out: &mut dyn Write, _quick: bool) -> io::Result<()> {
    writeln!(
        out,
        "Fig. 1: transistors vs single-thread performance (fitted trends)"
    )?;
    writeln!(
        out,
        "{:>6} {:>18} {:>18} {:>16}",
        "year", "transistors(K)", "1T-SPECint(x1e3)", "required cores"
    )?;
    let mut year = 2004.0;
    while year <= 2034.0 {
        writeln!(
            out,
            "{:>6.0} {:>18.3e} {:>18.3e} {:>16.1}",
            year,
            trends::transistors_k(year),
            trends::single_thread_k(year),
            trends::required_cores(year)
        )?;
        year += 2.0;
    }
    writeln!(
        out,
        "\nShape check: required cores crosses 1000 around {}",
        (2006..2040)
            .find(|&y| trends::required_cores(y as f64) >= 1000.0)
            .map(|y| y.to_string())
            .unwrap_or_else(|| "never".into())
    )?;
    Ok(())
}
