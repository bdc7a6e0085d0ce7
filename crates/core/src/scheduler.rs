//! Worker-count resolution for the one multi-threaded driver,
//! [`crate::restarts::BestOfRestarts`].
//!
//! The relocation search itself is sequential (every move applies at once,
//! as Proposition 4's termination argument needs); only independent
//! restarts run in parallel. Their `threads` field resolves here, once.

/// Resolves a driver's `threads` field to a concrete worker count: an
/// explicit non-zero value wins; `0` defers to the `UCPC_THREADS`
/// environment knob (read through the shared warn-and-fall-back reader,
/// [`ucpc_uncertain::env::read_knob`] — a set but invalid or zero value
/// warns on stderr), and an unset or invalid knob falls back to
/// [`std::thread::available_parallelism`].
pub fn resolve_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    if let Some(t) =
        ucpc_uncertain::env::read_knob("UCPC_THREADS", "a positive integer", parse_threads)
    {
        return t;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses one `UCPC_THREADS` value: a positive integer, anything else ⇒
/// `None` — the pure worker behind [`resolve_threads`]'s knob read,
/// exposed for env-free unit tests.
pub fn parse_threads(v: &str) -> Option<usize> {
    v.parse::<usize>().ok().filter(|&t| t > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_knob_accepts_positive_integers_only_and_warns_otherwise() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads("1"), Some(1));
        assert_eq!(parse_threads("0"), None, "zero workers is meaningless");
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("many"), None);
        let (outcome, warning) = ucpc_uncertain::env::parse_knob(
            "UCPC_THREADS",
            Some("0"),
            "a positive integer",
            parse_threads,
        );
        assert_eq!(outcome.value(), None);
        assert!(warning.unwrap().contains("UCPC_THREADS=\"0\""));
    }

    #[test]
    fn explicit_thread_count_wins_over_resolution() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }
}
