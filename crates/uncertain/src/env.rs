//! One shared warn-and-fall-back parser for every `UCPC_*` environment knob.
//!
//! The workspace reads its runtime knobs (`UCPC_SIMD`, `UCPC_PRUNING`,
//! `UCPC_THREADS`, `UCPC_BATCH`, `UCPC_STABILIZE`, `UCPC_WAL`,
//! `UCPC_WAL_FSYNC`, `UCPC_CHAOS_SEED`) from the environment, and every
//! knob shares one failure policy: an **unset**
//! knob silently takes the default, while a **set-but-invalid** value
//! warns once on stderr — naming the knob, the
//! rejected value and the accepted forms — and then falls back to the
//! default. Historically `UCPC_SIMD` warned while the other knobs fell back
//! silently, so a typo like `UCPC_PRUNING=bonds` silently benchmarked the
//! wrong configuration; routing every knob through [`read_knob`] makes a
//! typo loud everywhere.
//!
//! The parsing itself lives in the pure [`parse_knob`], which touches no
//! process state: unit tests feed it raw strings directly and stay immune
//! to the env-var races a multi-threaded test harness would otherwise hit
//! (`std::env::set_var` is unsafe to interleave with reads from other
//! threads, so tests never set real variables).

/// How a knob string was resolved: which value applies, and whether a
/// warning about an invalid value was emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobOutcome<T> {
    /// The variable was unset (or parsing is skipped): use the default.
    Unset,
    /// The variable held a valid value.
    Parsed(T),
    /// The variable was set but invalid: a warning was printed, use the
    /// default.
    Invalid,
}

impl<T> KnobOutcome<T> {
    /// The parsed value, if any — `Unset` and `Invalid` both mean "use the
    /// caller's default".
    pub fn value(self) -> Option<T> {
        match self {
            KnobOutcome::Parsed(v) => Some(v),
            _ => None,
        }
    }
}

/// Pure worker behind [`read_knob`]: resolves one knob from an
/// already-fetched raw string. `expected` describes the accepted forms for
/// the warning (e.g. `"off|bounds"`); `parse` maps the trimmed,
/// ASCII-lowercased value to `Some(T)` when valid.
///
/// Returns the outcome and, for an invalid value, the warning line that
/// [`read_knob`] prints — exposed so unit tests can assert on the exact
/// message without capturing stderr.
pub fn parse_knob<T>(
    name: &str,
    raw: Option<&str>,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> (KnobOutcome<T>, Option<String>) {
    let Some(raw) = raw else {
        return (KnobOutcome::Unset, None);
    };
    let cleaned = raw.trim().to_ascii_lowercase();
    match parse(&cleaned) {
        Some(v) => (KnobOutcome::Parsed(v), None),
        None => {
            let warning = format!("{name}={raw:?} is not one of {expected}; using the default");
            (KnobOutcome::Invalid, Some(warning))
        }
    }
}

/// Reads the environment variable `name` and resolves it through
/// [`parse_knob`], printing the warning line to stderr when the value is
/// set but invalid. Returns `None` for both the unset and the invalid case
/// — callers supply their own default via `unwrap_or`.
pub fn read_knob<T>(
    name: &str,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let raw = std::env::var(name).ok();
    let (outcome, warning) = parse_knob(name, raw.as_deref(), expected, parse);
    if let Some(w) = warning {
        eprintln!("{w}");
    }
    outcome.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pruning(v: &str) -> Option<bool> {
        match v {
            "bounds" | "on" | "1" => Some(true),
            "off" | "0" => Some(false),
            _ => None,
        }
    }

    #[test]
    fn unset_is_silent_default() {
        let (outcome, warning) = parse_knob("UCPC_PRUNING", None, "off|bounds", pruning);
        assert_eq!(outcome, KnobOutcome::Unset);
        assert_eq!(warning, None);
        assert_eq!(outcome.value(), None);
    }

    #[test]
    fn valid_value_parses_case_insensitively_with_whitespace() {
        let (outcome, warning) =
            parse_knob("UCPC_PRUNING", Some("  Bounds "), "off|bounds", pruning);
        assert_eq!(outcome, KnobOutcome::Parsed(true));
        assert_eq!(warning, None);
        assert_eq!(outcome.value(), Some(true));
    }

    #[test]
    fn invalid_value_warns_and_falls_back() {
        let (outcome, warning) = parse_knob("UCPC_PRUNING", Some("bonds"), "off|bounds", pruning);
        assert_eq!(outcome, KnobOutcome::Invalid);
        assert_eq!(
            warning.as_deref(),
            Some("UCPC_PRUNING=\"bonds\" is not one of off|bounds; using the default")
        );
        assert_eq!(outcome.value(), None);
    }

    #[test]
    fn numeric_knob_rejects_zero_and_garbage() {
        let parse = |v: &str| v.parse::<usize>().ok().filter(|&t| t > 0);
        let (ok, w) = parse_knob("UCPC_THREADS", Some("4"), "a positive integer", parse);
        assert_eq!((ok, w), (KnobOutcome::Parsed(4), None));
        let (zero, w) = parse_knob("UCPC_THREADS", Some("0"), "a positive integer", parse);
        assert_eq!(zero, KnobOutcome::Invalid);
        assert!(w.unwrap().contains("UCPC_THREADS=\"0\""));
        let (garbage, w) = parse_knob("UCPC_THREADS", Some("many"), "a positive integer", parse);
        assert_eq!(garbage, KnobOutcome::Invalid);
        assert!(w.unwrap().contains("a positive integer"));
    }
}
