//! One parser for every numeric or enumerated `PARENDI_*` knob, so a
//! typo never silently changes what a run measures.

use std::str::FromStr;
use std::sync::Mutex;

/// [`env_knob`] on a string: `raw` is the variable's text, `None` when
/// unset. Judges strings only, so tests need not touch the process
/// environment.
fn env_value<T: FromStr>(name: &'static str, raw: Option<&str>, default: T) -> T {
    let Some(text) = raw.map(str::trim).filter(|t| !t.is_empty()) else {
        return default;
    };
    text.parse().unwrap_or_else(|_| {
        static WARNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
        let mut warned = WARNED.lock().unwrap_or_else(|e| e.into_inner());
        if !warned.contains(&name) {
            warned.push(name);
            eprintln!("ignoring {name}={text}, using default");
        }
        default
    })
}

/// The value of the environment knob `name`: `default` when it is
/// unset or blank, the parsed value when well-formed, and otherwise
/// `default` again — after one `ignoring NAME=value, using default`
/// line on stderr, printed once per variable per process.
///
/// What counts as well-formed is `T`'s [`FromStr`]: an unsigned integer
/// type rejects `16k` and `30s`, a `NonZero*` type also rejects `0`,
/// [`TraceLevel`](crate::TraceLevel) takes `phase` or `tile`.
pub fn env_knob<T: FromStr>(name: &'static str, default: T) -> T {
    env_value(name, std::env::var(name).ok().as_deref(), default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceLevel;
    use std::num::NonZeroUsize;

    #[test]
    fn well_formed_values_parse() {
        assert_eq!(env_value("T_SPIN", Some("4096"), 7u32), 4096);
        assert_eq!(env_value("T_SPIN", Some("0"), 7u32), 0, "0 forces parking");
        assert_eq!(env_value("T_TIMEOUT", Some(" 250 "), 30_000u64), 250);
        let two = NonZeroUsize::new(2).unwrap();
        assert_eq!(env_value("T_WORKERS", Some("4"), two).get(), 4);
        let tile = TraceLevel::Tile;
        assert_eq!(env_value("T_LEVEL", Some("phase"), tile), TraceLevel::Phase);
        assert_eq!(env_value("T_LEVEL", Some("tile"), tile), TraceLevel::Tile);
    }

    #[test]
    fn unset_and_blank_are_the_default() {
        assert_eq!(env_value("T_SPIN", None, 7u32), 7);
        assert_eq!(env_value("T_SPIN", Some(""), 7u32), 7);
        assert_eq!(env_value("T_SPIN", Some("  "), 7u32), 7);
    }

    /// The typos the knobs used to swallow: each is the default now,
    /// however often it is asked for.
    #[test]
    fn malformed_values_fall_back_to_the_default() {
        let two = NonZeroUsize::new(2).unwrap();
        for _ in 0..2 {
            assert_eq!(env_value("T_BAD_SPIN", Some("16k"), 7u32), 7);
            assert_eq!(env_value("T_BAD_SPIN", Some("-1"), 7u32), 7);
            assert_eq!(env_value("T_BAD_TIMEOUT", Some("30s"), 30_000u64), 30_000);
            assert_eq!(env_value("T_BAD_WORKERS", Some("0"), two), two);
            assert_eq!(
                env_value("T_BAD_LEVEL", Some("tiles"), TraceLevel::Tile),
                TraceLevel::Tile
            );
            assert_eq!(
                env_value("T_BAD_LEVEL", Some("off"), TraceLevel::Tile),
                TraceLevel::Tile
            );
        }
    }
}
