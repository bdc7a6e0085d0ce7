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
//! 30), so a static restart-per-thread split wastes the fast threads. The
//! runner therefore drains restart indices through the same work-claiming
//! [`WorkPool`] the propose-phase shard scheduler uses — restart-level work
//! stealing over one shared queue. Every restart's seed is drawn from the
//! caller's RNG *before* the pool starts and results are collected by
//! restart index, so the outcome (winner, objectives, labels) is
//! byte-identical to the sequential loop regardless of thread count or
//! claim order.

use crate::framework::{validate_input, ClusterError, Clustering};
use crate::pruning::{PruneCache, PruneCounters};
use crate::scheduler::{resolve_threads, WorkPool};
use crate::ucpc::{Ucpc, UcpcResult};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Mutex;
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
    /// Number of independent restarts (must be at least 1).
    pub restarts: usize,
    /// Worker threads draining the restart queue (`0` = the `UCPC_THREADS`
    /// knob, falling back to available parallelism; see
    /// [`crate::scheduler::resolve_threads`]). The result is identical for
    /// every thread count.
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
    /// Restarts claimed by a worker that did not own them (zero on a
    /// single-threaded run).
    pub steals: usize,
}

impl BestOfRestarts {
    /// Runs all restarts (seeds drawn from `rng` up front, so the seed
    /// stream — and therefore every restart's outcome — is independent of
    /// the thread count) and returns the best.
    pub fn run(
        &self,
        data: &[UncertainObject],
        k: usize,
        rng: &mut dyn RngCore,
    ) -> Result<RestartResult, ClusterError> {
        assert!(self.restarts >= 1, "need at least one restart");
        validate_input(data, k)?;
        // One arena shared by every restart: the SoA moment matrices are
        // read-only during the search, so only the initial partition differs.
        // Each worker owns one prune cache; `run_on_arena_with_cache`
        // invalidates it at the start of every restart (the per-restart
        // best/second-best state would otherwise leak between searches), so
        // which worker executes a restart cannot affect its outcome. Caches
        // start empty: the first pruned restart sizes them, and an unpruned
        // run never does.
        let arena = MomentArena::from_objects(data);
        let seeds: Vec<u64> = (0..self.restarts).map(|_| rng.next_u64()).collect();
        let threads = resolve_threads(self.threads).min(self.restarts);

        let mut steals = 0usize;
        let results: Vec<Result<UcpcResult, ClusterError>> = if threads <= 1 {
            let mut cache = PruneCache::new(0, k);
            seeds
                .iter()
                .map(|&seed| self.one_restart(data, &arena, k, seed, &mut cache))
                .collect()
        } else {
            // Restart-level work stealing: contiguous restart runs per
            // worker, drained front-first and stolen back-first (the same
            // pool discipline as the propose-phase shard scheduler).
            let pool = WorkPool::new((0..self.restarts).collect::<Vec<usize>>(), threads);
            let slots: Vec<Mutex<Option<Result<UcpcResult, ClusterError>>>> =
                (0..self.restarts).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for w in 0..threads {
                    let pool = &pool;
                    let slots = &slots;
                    let arena = &arena;
                    let seeds = &seeds;
                    scope.spawn(move || {
                        let mut cache = PruneCache::new(0, k);
                        while let Some(r) = pool.claim(w) {
                            let result = self.one_restart(data, arena, k, seeds[r], &mut cache);
                            *slots[r].lock().expect("result slot poisoned") = Some(result);
                        }
                    });
                }
            });
            steals = pool.steals();
            slots
                .into_iter()
                .map(|m| {
                    m.into_inner()
                        .expect("result slot poisoned")
                        .expect("every restart index was claimed exactly once")
                })
                .collect()
        };

        let mut best: Option<(usize, UcpcResult)> = None;
        let mut objectives = Vec::with_capacity(self.restarts);
        let mut pruning = PruneCounters::default();
        for (r, result) in results.into_iter().enumerate() {
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
        let (winner, best) = best.expect("restarts >= 1");
        Ok(RestartResult {
            best,
            objectives,
            winner,
            pruning,
            steals,
        })
    }

    /// Executes one restart from its pre-drawn seed, reusing the worker's
    /// prune cache.
    fn one_restart(
        &self,
        data: &[UncertainObject],
        arena: &MomentArena,
        k: usize,
        seed: u64,
        cache: &mut PruneCache,
    ) -> Result<UcpcResult, ClusterError> {
        let mut run_rng = StdRng::seed_from_u64(seed);
        let labels = self.algorithm.init.initial_partition(data, k, &mut run_rng);
        self.algorithm
            .run_on_arena_with_cache(arena, k, labels, cache)
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

#[cfg(test)]
mod tests {
    use super::*;
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
        let run = |threads| {
            let mut rng = StdRng::seed_from_u64(5);
            BestOfRestarts {
                restarts: 8,
                threads,
                ..Default::default()
            }
            .run(&data, 4, &mut rng)
            .unwrap()
        };
        let seq = run(1);
        assert_eq!(seq.steals, 0);
        for threads in [2, 4, 8] {
            let par = run(threads);
            assert_eq!(seq.winner, par.winner, "{threads} threads");
            assert_eq!(
                seq.best.clustering.labels(),
                par.best.clustering.labels(),
                "{threads} threads"
            );
            // Bit-identical per-restart objectives: the seed stream is drawn
            // before the pool starts and every restart is self-contained.
            assert_eq!(seq.objectives, par.objectives, "{threads} threads");
        }
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
}
