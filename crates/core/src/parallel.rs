//! Parallel UCPC: a multi-threaded variant of Algorithm 1's relocation pass.
//!
//! The sequential pass applies relocations immediately (Hartigan-style),
//! which is inherently order-dependent. The parallel variant splits each pass
//! into two phases:
//!
//! 1. **propose** — worker threads scan shards of the dataset against the
//!    pass-start cluster statistics and emit the best relocation per object
//!    (each candidate one fused dot product via the scalar-aggregate kernel
//!    form of Corollary 1; moments are read from a shared flat
//!    [`MomentArena`]);
//! 2. **apply** — proposals are re-validated sequentially against the live
//!    statistics (a proposal is applied only if it still strictly decreases
//!    the objective) so monotone descent — Proposition 4's termination
//!    argument — is preserved exactly.
//!
//! The propose phase drains size-adaptive shards (roughly L2-sized blocks
//! of `mu` rows, see [`crate::scheduler::steal_shard_rows`]) through a
//! work-stealing [`WorkPool`], so skewed per-object cost — a pruning
//! tier-0 skip is one cache line while a full scan is `k` fused dot
//! products — does not leave workers idle behind a static split. Workers
//! read the live [`SharedStats`] directly, with no per-pass clone (safe:
//! the apply phase is quiescent while workers run), and each proposal
//! records the per-cluster *version* counters it priced against. The
//! sequential apply phase bumps a cluster's version on every mutation, so a
//! proposal whose source and destination versions are unchanged is
//! provably priced against the exact current statistics and is applied
//! without re-pricing; only proposals staled by an earlier relocation in
//! the same pass pay the two re-validation dot products.
//!
//! Every object is evaluated against bit-identical pass-start statistics,
//! proposals are indexed by object, and they are applied in ascending
//! object order with the same strictly-decreasing test — so the relocation
//! sequence, and therefore the final labels, are byte-identical across any
//! thread count and identical to a single-threaded model that proposes
//! against a pass-start clone and re-prices every proposal (pinned end to
//! end by `tests/parallel_determinism.rs` against
//! `tests/support/reference.rs`). When candidate pruning is on, each shard
//! carries its own [`PruneShard`] window of the cache, which follows the
//! shard to whichever worker claims it.
//!
//! Proposals come from the serial search's decision, [`best_move`], and
//! moves apply through its [`apply_relocation`]; both phases accept a move
//! iff it lowers `J` by more than [`crate::pruning::TOLERANCE`].

use crate::framework::{validate_labels, ClusterError, Clustering, UncertainClusterer};
use crate::init::Initializer;
use crate::objective::{total_objective, ClusterStats};
use crate::pruning::{
    apply_relocation, best_move, fp_scale, DriftTotals, PassState, PruneCache, PruneCounters,
    PruneShard, PruningConfig, TOLERANCE,
};
use crate::scheduler::{resolve_threads, steal_shard_rows, WorkPool};
use rand::RngCore;
use ucpc_uncertain::arena::MomentView;
use ucpc_uncertain::{MomentArena, UncertainObject};

/// Versioned cluster aggregates: the snapshot-free substitute for the
/// per-pass `ClusterStats` clone.
///
/// Each cluster's sufficient statistics (the Ψ/Φ/S₂ scalars and the
/// `mean_sum`/`norm` rows inside [`ClusterStats`]) are paired with a
/// monotonically increasing version counter. Propose workers read the
/// statistics through a shared reference — race-free because the apply
/// phase, the only mutator, is sequential and strictly alternates with the
/// propose phase — and record the versions they priced against. The apply
/// phase bumps both affected versions on every relocation, which is exactly
/// the seqlock write-side discipline collapsed onto a phase barrier: a
/// version pair that is unchanged at validation time proves the proposal's
/// delta is still the bit-exact value a fresh evaluation would produce, so
/// it is applied without re-pricing.
#[derive(Debug, Clone)]
pub struct SharedStats {
    stats: Vec<ClusterStats>,
    versions: Vec<u64>,
}

impl SharedStats {
    /// Wraps freshly built per-cluster statistics, all versions zero.
    pub fn new(stats: Vec<ClusterStats>) -> Self {
        let versions = vec![0; stats.len()];
        Self { stats, versions }
    }

    /// The live per-cluster statistics.
    pub fn stats(&self) -> &[ClusterStats] {
        &self.stats
    }

    /// All version counters, indexed by cluster.
    pub fn versions(&self) -> &[u64] {
        &self.versions
    }

    /// Version counter of cluster `c`.
    pub fn version(&self, c: usize) -> u64 {
        self.versions[c]
    }

    /// Applies one relocation through [`apply_relocation`] (`pruning` is
    /// its drift: the totals and the per-cluster *invalidation* versions,
    /// distinct from the re-pricing versions this struct owns) and bumps
    /// both clusters' re-pricing versions, which move on *every* relocation.
    pub fn apply_relocation(
        &mut self,
        src: usize,
        dst: usize,
        v: &MomentView<'_>,
        pruning: Option<(&mut DriftTotals, &mut [u64])>,
    ) {
        apply_relocation(&mut self.stats, src, dst, v, pruning);
        self.versions[src] = self.versions[src].wrapping_add(1);
        self.versions[dst] = self.versions[dst].wrapping_add(1);
    }
}

/// Configuration of the parallel UCPC search. A relocation is proposed and
/// applied iff it lowers `J` by more than [`crate::pruning::TOLERANCE`].
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use ucpc_core::parallel::ParallelUcpc;
/// use ucpc_uncertain::{UncertainObject, UnivariatePdf};
///
/// let data: Vec<UncertainObject> = [0.0, 0.3, 7.0, 7.3]
///     .iter()
///     .map(|&c| UncertainObject::new(vec![UnivariatePdf::normal(c, 0.1)]))
///     .collect();
/// let mut rng = StdRng::seed_from_u64(3);
/// let result = ParallelUcpc { threads: 2, ..Default::default() }
///     .run(&data, 2, &mut rng)
///     .unwrap();
/// assert!(result.converged);
/// assert_eq!(result.clustering.label(0), result.clustering.label(1));
/// ```
#[derive(Debug, Clone)]
pub struct ParallelUcpc {
    /// Initial-partition strategy.
    pub init: Initializer,
    /// Cap on propose/apply passes.
    pub max_iters: usize,
    /// Worker threads for the propose phase (`0` = the `UCPC_THREADS` knob,
    /// falling back to available parallelism; see
    /// [`crate::scheduler::resolve_threads`]).
    pub threads: usize,
    /// Candidate pruning for the propose phase. Each worker evaluates the
    /// drift bounds of [`crate::pruning`] against the same pass-start
    /// statistics it proposes against, over the cache window of whichever
    /// shard it claims; the proposal stream is provably identical to the
    /// unpruned one, so the final labels are byte-identical.
    pub pruning: PruningConfig,
}

impl Default for ParallelUcpc {
    fn default() -> Self {
        Self {
            init: Initializer::RandomPartition,
            max_iters: 200,
            threads: 0,
            pruning: PruningConfig::default(),
        }
    }
}

/// Outcome of a parallel UCPC run.
#[derive(Debug, Clone)]
pub struct ParallelUcpcResult {
    /// Final partition.
    pub clustering: Clustering,
    /// Final objective `Σ_C J(C)`.
    pub objective: f64,
    /// Passes executed.
    pub iterations: usize,
    /// Relocations applied (after re-validation).
    pub applied: usize,
    /// Proposals rejected by re-validation (stale against live statistics).
    pub rejected: usize,
    /// Whether a pass with no applicable proposal was reached.
    pub converged: bool,
    /// Candidate-pruning counters summed over all propose phases (all zero
    /// when pruning is off).
    pub pruning: PruneCounters,
    /// Shards claimed by a worker that did not own them.
    pub steals: usize,
    /// Proposals whose delta had to be re-priced during apply: those staled
    /// by an earlier relocation in the same pass.
    pub revalidated: usize,
}

/// One object's surviving proposal: the destination, the priced delta, and
/// the source/destination versions it was priced against.
#[derive(Debug, Clone, Copy)]
struct Proposal {
    dst: usize,
    delta: f64,
    src_ver: u64,
    dst_ver: u64,
}

/// One schedulable unit of the propose phase: a contiguous object range,
/// its slice of the proposal output, and (pruning on) its window of the
/// prune cache. The window travels with the task to whichever worker claims
/// it — stolen shards keep their cache rows.
struct ShardTask<'a> {
    start: usize,
    prune: Option<PruneShard<'a>>,
    out: &'a mut [Option<Proposal>],
}

/// The read-only pass context shared by every propose worker.
struct PassCtx<'a> {
    /// What [`best_move`] decides against. Its `versions` are the
    /// remove-direction invalidation watermarks of [`crate::pruning`],
    /// unrelated to the re-pricing `versions` below.
    pass: PassState<'a>,
    versions: &'a [u64],
    arena: &'a MomentArena,
    labels: &'a [usize],
}

impl ParallelUcpc {
    /// Runs the parallel search.
    pub fn run(
        &self,
        data: &[UncertainObject],
        k: usize,
        rng: &mut dyn RngCore,
    ) -> Result<ParallelUcpcResult, ClusterError> {
        crate::framework::validate_input(data, k)?;
        let labels = self.init.initial_partition(data, k, rng);
        self.run_on_arena(&MomentArena::from_objects(data), k, labels)
    }

    /// Runs the parallel search directly on a prebuilt moment arena — the
    /// arena-native entry point the bench and dataset drivers use so batch
    /// inputs never round-trip through `UncertainObject`. Labels must be one
    /// per arena row, each in `0..k`.
    pub fn run_on_arena(
        &self,
        arena: &MomentArena,
        k: usize,
        mut labels: Vec<usize>,
    ) -> Result<ParallelUcpcResult, ClusterError> {
        if arena.is_empty() {
            return Err(ClusterError::EmptyDataset);
        }
        if k == 0 || k > arena.len() {
            return Err(ClusterError::InvalidK { k, n: arena.len() });
        }
        validate_labels(&labels, arena.len(), k)?;

        let m = arena.dims();
        let n = arena.len();
        let threads = resolve_threads(self.threads);

        let mut stats: Vec<ClusterStats> = vec![ClusterStats::empty(m); k];
        for (i, &label) in labels.iter().enumerate() {
            stats[label].add_view(&arena.view(i));
        }
        let mut shared = SharedStats::new(stats);

        let mut iterations = 0usize;
        let mut applied = 0usize;
        let mut rejected = 0usize;
        let mut converged = false;
        let mut steals = 0usize;
        let mut revalidated = 0usize;
        let mut counters = PruneCounters::default();
        let mut prune_versions = vec![0u64; k];
        let mut totals = DriftTotals::default();
        let mut cache = self.pruning.is_enabled().then(|| PruneCache::new(n, k));
        // One proposal slot per object, reused (re-blanked) across passes so
        // the relocation loop allocates nothing per pass.
        let mut proposals: Vec<Option<Proposal>> = vec![None; n];

        while iterations < self.max_iters {
            iterations += 1;

            // Phase 1: propose against the pass-start statistics, reading
            // moments from the shared arena and the live SharedStats (the
            // apply phase is quiescent). Each task owns one shard of the
            // prune cache and evaluates the drift bounds against the same
            // pass-start state it scans, so proposals — pruned or not,
            // stolen or not — are deterministic functions of that state.
            let chunk = steal_shard_rows(n, m, threads);
            let n_chunks = n.div_ceil(chunk);
            let scale = cache.as_ref().map_or(0.0, |_| fp_scale(shared.stats()));

            proposals.fill(None);
            {
                let shards: Vec<Option<PruneShard<'_>>> = match cache.as_mut() {
                    Some(c) => c.shards(chunk).into_iter().map(Some).collect(),
                    None => (0..n_chunks).map(|_| None).collect(),
                };
                let mut tasks = Vec::with_capacity(n_chunks);
                let mut rest: &mut [Option<Proposal>] = &mut proposals;
                for (ci, prune) in shards.into_iter().enumerate() {
                    let take = chunk.min(rest.len());
                    let (out, tail) = rest.split_at_mut(take);
                    rest = tail;
                    tasks.push(ShardTask {
                        start: ci * chunk,
                        prune,
                        out,
                    });
                }
                let pool = WorkPool::new(tasks, threads);
                let ctx = PassCtx {
                    pass: PassState {
                        stats: shared.stats(),
                        totals,
                        versions: &prune_versions,
                        epoch: 0,
                        scale,
                    },
                    versions: shared.versions(),
                    arena,
                    labels: &labels,
                };
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|w| {
                            let pool = &pool;
                            let ctx = &ctx;
                            scope.spawn(move || {
                                let mut worker_counters = PruneCounters::default();
                                while let Some(mut task) = pool.claim(w) {
                                    propose_shard(&mut task, ctx, &mut worker_counters);
                                }
                                worker_counters
                            })
                        })
                        .collect();
                    for h in handles {
                        counters.merge(h.join().expect("propose worker panicked"));
                    }
                });
                steals += pool.steals();
            }

            // Phase 2: sequential validation + application, in ascending
            // object order. A proposal whose source and destination versions
            // are untouched is applied on its priced delta (bit-exactly what
            // re-pricing would return); anything else is re-priced against
            // the live statistics.
            let mut moved = false;
            for (i, p) in proposals.iter().enumerate() {
                let Some(p) = p else { continue };
                let src = labels[i];
                if src == p.dst || shared.stats()[src].size() <= 1 {
                    rejected += 1;
                    continue;
                }
                let v = arena.view(i);
                let fresh = shared.version(src) == p.src_ver && shared.version(p.dst) == p.dst_ver;
                let delta = if fresh {
                    p.delta
                } else {
                    revalidated += 1;
                    shared.stats()[src].delta_j_remove(&v) + shared.stats()[p.dst].delta_j_add(&v)
                };
                if delta < -TOLERANCE {
                    let drift = cache
                        .is_some()
                        .then_some((&mut totals, &mut prune_versions[..]));
                    shared.apply_relocation(src, p.dst, &v, drift);
                    if let Some(c) = cache.as_mut() {
                        c.invalidate(i);
                    }
                    labels[i] = p.dst;
                    applied += 1;
                    moved = true;
                } else {
                    rejected += 1;
                }
            }

            if !moved {
                converged = true;
                break;
            }
        }

        Ok(ParallelUcpcResult {
            clustering: Clustering::new(labels, k),
            objective: total_objective(shared.stats()),
            iterations,
            applied,
            rejected,
            converged,
            pruning: counters,
            steals,
            revalidated,
        })
    }
}

/// One propose-phase task: runs [`best_move`] for every object of the
/// shard against the pass-start statistics, through the shard's cache
/// window when one is attached — so every proposal (and non-proposal) is
/// the one the unpruned scan of the same range would emit.
fn propose_shard(task: &mut ShardTask<'_>, ctx: &PassCtx<'_>, counters: &mut PruneCounters) {
    for (off, slot) in task.out.iter_mut().enumerate() {
        let i = task.start + off;
        let src = ctx.labels[i];
        if ctx.pass.stats[src].size() <= 1 {
            continue;
        }
        let v = ctx.arena.view(i);
        *slot = best_move(&ctx.pass, task.prune.as_mut(), i, 0, src, &v, counters).map(
            |(dst, delta)| Proposal {
                dst,
                delta,
                src_ver: ctx.versions[src],
                dst_ver: ctx.versions[dst],
            },
        );
    }
}

impl UncertainClusterer for ParallelUcpc {
    fn name(&self) -> &'static str {
        "UCPC-par"
    }

    fn cluster(
        &self,
        data: &[UncertainObject],
        k: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Clustering, ClusterError> {
        Ok(self.run(data, k, rng)?.clustering)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ref_parallel;
    use crate::ucpc::Ucpc;

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ucpc_uncertain::UnivariatePdf;

    fn blobs(n_per: usize) -> Vec<UncertainObject> {
        let mut data = Vec::new();
        for c in [0.0, 25.0, 50.0] {
            for i in 0..n_per {
                data.push(UncertainObject::new(vec![
                    UnivariatePdf::normal(c + (i % 5) as f64 * 0.2, 0.3),
                    UnivariatePdf::normal(c, 0.3),
                ]));
            }
        }
        data
    }

    #[test]
    fn recovers_blobs_like_the_sequential_algorithm() {
        let data = blobs(20);
        let mut rng = StdRng::seed_from_u64(31);
        let r = ParallelUcpc::default().run(&data, 3, &mut rng).unwrap();
        assert!(r.converged);
        let l = r.clustering.labels();
        for g in 0..3 {
            let group = &l[g * 20..(g + 1) * 20];
            assert!(group.iter().all(|&x| x == group[0]), "group {g} split");
        }
    }

    #[test]
    fn objective_matches_sequential_quality() {
        // Both searches are greedy local descents with different move
        // orders, so they only provably agree when the initial partition
        // lies in the basin of the same (here: global) optimum. The seed is
        // pinned to such a configuration; near-tie seeds can legitimately
        // land sequential and parallel in different local minima and are
        // not a regression.
        let data = blobs(15);
        let mut r1 = StdRng::seed_from_u64(2);
        let mut r2 = StdRng::seed_from_u64(2);
        let seq = Ucpc::default().run(&data, 3, &mut r1).unwrap();
        let par = ParallelUcpc::default().run(&data, 3, &mut r2).unwrap();
        assert!(
            seq.converged && par.converged,
            "both searches must converge"
        );
        assert!(
            (par.objective - seq.objective).abs() < 1e-6 * (1.0 + seq.objective),
            "parallel {} vs sequential {}",
            par.objective,
            seq.objective
        );
    }

    #[test]
    fn objective_is_consistent_with_final_labels() {
        let data = blobs(10);
        let mut rng = StdRng::seed_from_u64(7);
        let r = ParallelUcpc {
            threads: 3,
            ..Default::default()
        }
        .run(&data, 4, &mut rng)
        .unwrap();
        let rebuilt: f64 = r
            .clustering
            .members()
            .iter()
            .filter(|ms| !ms.is_empty())
            .map(|ms| ClusterStats::from_members(ms.iter().map(|&i| &data[i])).j())
            .sum();
        assert!((r.objective - rebuilt).abs() < 1e-6);
    }

    /// The reference model's outcome on `data` from the initial partition
    /// `cfg.run` draws with `seed`.
    fn reference_run(
        cfg: &ParallelUcpc,
        data: &[UncertainObject],
        k: usize,
        seed: u64,
    ) -> (Vec<usize>, usize, usize, usize) {
        let labels = cfg
            .init
            .initial_partition(data, k, &mut StdRng::seed_from_u64(seed));
        ref_parallel(cfg, &MomentArena::from_objects(data), k, labels)
    }

    #[test]
    fn single_thread_matches_multi_thread() {
        let data = blobs(12);
        let (want, ..) = reference_run(&ParallelUcpc::default(), &data, 3, 9);
        for threads in [1, 4] {
            let mut rng = StdRng::seed_from_u64(9);
            let got = ParallelUcpc {
                threads,
                ..Default::default()
            }
            .run(&data, 3, &mut rng)
            .unwrap();
            assert_eq!(
                got.clustering.labels(),
                &want[..],
                "thread count must not change the result ({threads} threads)"
            );
        }
    }

    #[test]
    fn steal_backend_matches_even_backend_with_pruning() {
        // The work-stealing, snapshot-free schedule against the reference
        // model that proposes on a pass-start clone and re-prices every
        // proposal.
        let data = blobs(16);
        let cfg = ParallelUcpc {
            threads: 4,
            pruning: PruningConfig::Bounds,
            ..Default::default()
        };
        let steal = cfg.run(&data, 3, &mut StdRng::seed_from_u64(13)).unwrap();
        let (labels, iterations, applied, rejected) = reference_run(&cfg, &data, 3, 13);
        assert_eq!(steal.clustering.labels(), &labels[..]);
        assert_eq!(steal.iterations, iterations);
        assert_eq!(steal.applied, applied);
        assert_eq!(steal.rejected, rejected);
        // Only proposals staled within their pass are re-priced.
        assert!(steal.revalidated <= applied + rejected);
    }

    #[test]
    fn run_on_arena_validates_inputs() {
        let data = blobs(4);
        let arena = MomentArena::from_objects(&data);
        assert!(matches!(
            ParallelUcpc::default().run_on_arena(&MomentArena::from_objects(&[]), 2, vec![]),
            Err(ClusterError::EmptyDataset)
        ));
        assert!(matches!(
            ParallelUcpc::default().run_on_arena(&arena, 0, vec![0; 12]),
            Err(ClusterError::InvalidK { k: 0, n: 12 })
        ));
        assert!(matches!(
            ParallelUcpc::default().run_on_arena(&arena, 2, vec![5; 12]),
            Err(ClusterError::LabelOutOfRange {
                label: 5,
                k: 2,
                index: 0
            })
        ));
    }

    #[test]
    fn stale_proposals_are_rejected_not_applied_blindly() {
        // With many near-duplicate objects, pass-start proposals can go
        // stale; the run must still terminate with a valid partition.
        let data: Vec<UncertainObject> = (0..40)
            .map(|i| UncertainObject::new(vec![UnivariatePdf::normal((i % 4) as f64 * 0.01, 1.0)]))
            .collect();
        let mut rng = StdRng::seed_from_u64(11);
        let r = ParallelUcpc::default().run(&data, 4, &mut rng).unwrap();
        assert_eq!(r.clustering.len(), 40);
        assert!(r.converged || r.iterations == 200);
    }
}
