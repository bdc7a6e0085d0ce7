//! Multi-restart wrapper: the standard practice for initialization-sensitive
//! local searches.
//!
//! UCPC (and every other partitional algorithm here) converges to a *local*
//! minimum that depends on the initial partition; the paper neutralizes this
//! by averaging scores over 50 runs. When a single best clustering is wanted
//! instead of an average, the usual remedy is restarting from several seeds
//! and keeping the lowest-objective result — which is what [`BestOfRestarts`]
//! does for any objective-reporting algorithm.
//!
//! Restarts are embarrassingly parallel, but their wall times are wildly
//! uneven (a lucky initialization converges in 3 passes, an unlucky one in
//! 30), so a static restart-per-thread split wastes the fast threads.
//! Instead every worker — the calling thread plus `threads − 1` scoped
//! helpers — claims the next restart index from one shared atomic counter
//! until none remain. Every restart's seed is drawn from the caller's RNG
//! *before* any worker starts and results are placed by restart index, so
//! the outcome (winner, objectives, labels) is bit-identical for every
//! thread count and claim order.
//!
//! Each worker owns one [`IncrementalUcpc`]: it copies the shared moment
//! rows once, and each restart re-partitions them in place, resetting the
//! statistics, counters and cached bounds, so which worker runs a restart
//! cannot affect its outcome.

use crate::framework::{validate_input, ClusterError, Clustering};
use crate::incremental::IncrementalUcpc;
use crate::pruning::PruneCounters;
use crate::ucpc::{Ucpc, UcpcResult};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use ucpc_uncertain::{MomentArena, UncertainObject};

/// Restarts UCPC from `restarts` independent initializations and keeps the
/// result with the lowest objective.
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use ucpc_core::restarts::BestOfRestarts;
/// use ucpc_uncertain::{UncertainObject, UnivariatePdf};
///
/// let data: Vec<UncertainObject> = [0.0, 0.1, 5.0, 5.1, 10.0, 10.1]
///     .iter()
///     .map(|&c| UncertainObject::new(vec![UnivariatePdf::normal(c, 0.05)]))
///     .collect();
/// let mut rng = StdRng::seed_from_u64(1);
/// let result = BestOfRestarts { restarts: 6, ..Default::default() }
///     .run(&data, 3, &mut rng)
///     .unwrap();
/// // The winner is the minimum over all restart objectives.
/// let min = result.objectives.iter().copied().fold(f64::INFINITY, f64::min);
/// assert_eq!(result.best.objective, min);
/// ```
#[derive(Debug, Clone)]
pub struct BestOfRestarts {
    /// The configured UCPC instance to restart.
    pub algorithm: Ucpc,
    /// Number of independent restarts (at least 1; 0 is
    /// [`ClusterError::NoRestarts`]).
    pub restarts: usize,
    /// Worker threads claiming restarts (`0` = the `UCPC_THREADS`
    /// knob, falling back to available parallelism). The result is
    /// identical for every thread count.
    pub threads: usize,
}

impl Default for BestOfRestarts {
    fn default() -> Self {
        Self {
            algorithm: Ucpc::default(),
            restarts: 10,
            threads: 0,
        }
    }
}

/// Outcome of a multi-restart run.
#[derive(Debug, Clone)]
pub struct RestartResult {
    /// The best run's full result.
    pub best: UcpcResult,
    /// Objective of every restart, in run order.
    pub objectives: Vec<f64>,
    /// Index of the winning restart.
    pub winner: usize,
    /// Candidate-pruning counters summed over all restarts (all zero when
    /// the wrapped algorithm runs unpruned).
    pub pruning: PruneCounters,
}

impl BestOfRestarts {
    /// Runs all restarts (seeds drawn from `rng` up front, so the seed
    /// stream — and therefore every restart's outcome — is independent of
    /// the thread count) and returns the best. `restarts == 0` is
    /// [`ClusterError::NoRestarts`].
    pub fn run(
        &self,
        data: &[UncertainObject],
        k: usize,
        rng: &mut dyn RngCore,
    ) -> Result<RestartResult, ClusterError> {
        if self.restarts == 0 {
            return Err(ClusterError::NoRestarts);
        }
        validate_input(data, k)?;
        // One arena shared by every restart: only the initial partition
        // differs, and each worker copies the rows once into its engine.
        let arena = MomentArena::from_objects(data);
        let seeds: Vec<u64> = (0..self.restarts).map(|_| rng.next_u64()).collect();
        let threads = resolve_threads(self.threads).min(self.restarts);
        let next = AtomicUsize::new(0);
        let work = || {
            let mut engine: Option<IncrementalUcpc> = None;
            let mut done = Vec::new();
            loop {
                let r = next.fetch_add(1, Ordering::Relaxed);
                let Some(&seed) = seeds.get(r) else {
                    return done;
                };
                let mut seeded = StdRng::seed_from_u64(seed);
                let labels = self.algorithm.init.initial_partition(data, k, &mut seeded);
                let result = match &mut engine {
                    Some(e) => e.relabel(&labels).map(|()| self.algorithm.drive(e)),
                    None => IncrementalUcpc::from_arena(arena.clone(), k, &labels)
                        .map(|e| self.algorithm.drive(engine.insert(e))),
                };
                done.push((r, result));
            }
        };
        let mut results = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
            let mut results = work();
            for h in helpers {
                results.extend(h.join().expect("a restart worker panicked"));
            }
            results
        });
        // Each index was claimed exactly once; order them as the seeds are.
        results.sort_unstable_by_key(|&(r, _)| r);

        let mut best: Option<(usize, UcpcResult)> = None;
        let mut objectives = Vec::with_capacity(self.restarts);
        let mut pruning = PruneCounters::default();
        for (r, result) in results {
            let result = result?;
            objectives.push(result.objective);
            pruning.merge(result.pruning);
            let better = best
                .as_ref()
                .is_none_or(|(_, b)| result.objective < b.objective);
            if better {
                best = Some((r, result));
            }
        }
        // Invariant: `restarts >= 1` was checked and every `Err` returned.
        let (winner, best) = best.expect("restarts >= 1");
        Ok(RestartResult {
            best,
            objectives,
            winner,
            pruning,
        })
    }

    /// Convenience: just the winning partition.
    pub fn cluster(
        &self,
        data: &[UncertainObject],
        k: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Clustering, ClusterError> {
        Ok(self.run(data, k, rng)?.best.clustering)
    }
}

/// Resolves [`BestOfRestarts::threads`] to a concrete worker count: an
/// explicit non-zero value wins; `0` defers to the `UCPC_THREADS`
/// environment knob (read through the shared warn-and-fall-back reader,
/// [`ucpc_uncertain::env::read_knob`] — a set but invalid or zero value
/// warns on stderr), and an unset or invalid knob falls back to
/// [`std::thread::available_parallelism`].
fn resolve_threads(threads: usize) -> usize {
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
/// `None`.
fn parse_threads(v: &str) -> Option<usize> {
    v.parse::<usize>().ok().filter(|&t| t > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::PruningConfig;
    use ucpc_uncertain::UnivariatePdf;

    fn tricky_data() -> Vec<UncertainObject> {
        // Four tight groups: with k=4 and random-partition init, single runs
        // regularly merge two groups; restarts should find the right split.
        let mut data = Vec::new();
        for c in [0.0, 4.0, 8.0, 12.0] {
            for i in 0..6 {
                data.push(UncertainObject::new(vec![UnivariatePdf::normal(
                    c + i as f64 * 0.05,
                    0.05,
                )]));
            }
        }
        data
    }

    #[test]
    fn best_restart_is_no_worse_than_any_single_run() {
        let data = tricky_data();
        let mut rng = StdRng::seed_from_u64(1);
        let r = BestOfRestarts {
            restarts: 8,
            ..Default::default()
        }
        .run(&data, 4, &mut rng)
        .unwrap();
        assert_eq!(r.objectives.len(), 8);
        let min = r.objectives.iter().copied().fold(f64::INFINITY, f64::min);
        assert!((r.best.objective - min).abs() < 1e-12);
        assert!((r.objectives[r.winner] - min).abs() < 1e-12);
    }

    #[test]
    fn more_restarts_never_hurt() {
        let data = tricky_data();
        let obj = |restarts: usize| {
            let mut rng = StdRng::seed_from_u64(2);
            BestOfRestarts {
                restarts,
                ..Default::default()
            }
            .run(&data, 4, &mut rng)
            .unwrap()
            .best
            .objective
        };
        // Same seed stream: the first restart of both runs coincides, and
        // the 10-restart minimum can only be lower or equal.
        assert!(obj(10) <= obj(1) + 1e-12);
    }

    #[test]
    fn thread_count_never_changes_the_outcome() {
        let data = tricky_data();
        let run = |restarts, threads, pruning| {
            let mut rng = StdRng::seed_from_u64(5);
            BestOfRestarts {
                algorithm: Ucpc {
                    pruning,
                    ..Ucpc::default()
                },
                restarts,
                threads,
            }
            .run(&data, 4, &mut rng)
            .unwrap()
        };
        let bits =
            |r: &RestartResult| -> Vec<u64> { r.objectives.iter().map(|o| o.to_bits()).collect() };
        // 8 threads ask for more workers than either restart count; 3
        // workers split 5 or 8 restarts unevenly.
        for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
            for restarts in [5, 8] {
                let seq = run(restarts, 1, pruning);
                assert_eq!(seq.objectives.len(), restarts);
                for threads in [2, 3, 8] {
                    let par = run(restarts, threads, pruning);
                    let case = format!("{restarts} restarts, {threads} threads, {pruning:?}");
                    assert_eq!(seq.winner, par.winner, "{case}");
                    assert_eq!(
                        seq.best.clustering.labels(),
                        par.best.clustering.labels(),
                        "{case}"
                    );
                    // Bit-identical per-restart objectives: the seed stream
                    // is drawn before any worker starts and every restart is
                    // self-contained.
                    assert_eq!(bits(&seq), bits(&par), "{case}");
                }
            }
        }
    }

    #[test]
    fn zero_restarts_is_a_checked_error() {
        let mut rng = StdRng::seed_from_u64(1);
        let none = BestOfRestarts {
            restarts: 0,
            ..Default::default()
        };
        assert_eq!(
            none.run(&tricky_data(), 4, &mut rng).err(),
            Some(ClusterError::NoRestarts)
        );
    }

    #[test]
    fn recovers_all_four_groups() {
        let data = tricky_data();
        let mut rng = StdRng::seed_from_u64(3);
        let c = BestOfRestarts {
            restarts: 12,
            ..Default::default()
        }
        .cluster(&data, 4, &mut rng)
        .unwrap();
        for g in 0..4 {
            let group: Vec<usize> = (0..6).map(|i| c.label(g * 6 + i)).collect();
            assert!(
                group.iter().all(|&l| l == group[0]),
                "group {g} split: {group:?}"
            );
        }
        assert_eq!(c.non_empty(), 4);
    }

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
