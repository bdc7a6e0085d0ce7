//! The UCPC algorithm (Algorithm 1, Section 4.3).
//!
//! A local-search heuristic for `argmin_𝒞 Σ_{C∈𝒞} J(C)`: starting from an
//! initial partition, it repeatedly scans every object and relocates it to the
//! cluster that maximally decreases the total objective, evaluating each
//! candidate relocation in O(m) through Corollary 1. It converges to a local
//! minimum in a finite number of iterations (Proposition 4) with overall cost
//! `O(I k n m)` (Proposition 5) — the same as UK-means and MMVar, and with no
//! offline distance-precomputation phase.
//!
//! A run bulk-loads the moments into an [`IncrementalUcpc`]
//! ([`IncrementalUcpc::from_arena`]) and stabilizes it one pass at a time
//! until no object moves: the crate's one relocation loop, shared with the
//! streaming, serving, WAL-replay and replica paths (its kernel and exact
//! pruning are in [`ucpc_uncertain::arena`] and [`crate::pruning`]).

use crate::framework::{validate_input, ClusterError, Clustering, UncertainClusterer};
use crate::incremental::IncrementalUcpc;
use crate::init::Initializer;
use crate::pruning::{PruneCounters, PruningConfig};
use rand::RngCore;
use ucpc_uncertain::{MomentArena, UncertainObject};

/// Configuration of the UCPC local search. A relocation applies iff it
/// lowers `J` by more than [`crate::pruning::TOLERANCE`]; a relocation
/// never empties its source cluster, so all `k` clusters stay populated.
#[derive(Debug, Clone)]
pub struct Ucpc {
    /// Initial-partition strategy (Line 2 of Algorithm 1).
    pub init: Initializer,
    /// Safety cap on the number of full passes over the dataset. Convergence
    /// is guaranteed (Proposition 4) but a cap keeps worst-case latency
    /// bounded in interactive use; the paper's datasets converge in far fewer
    /// passes.
    pub max_iters: usize,
    /// Candidate pruning. [`PruningConfig::Bounds`] skips provably redundant
    /// candidate scans and is exactly equivalent to [`PruningConfig::Off`]
    /// (same relocations, byte-identical labels); `Off` remains the
    /// reference path. The default honours the `UCPC_PRUNING` env knob.
    pub pruning: PruningConfig,
}

impl Default for Ucpc {
    fn default() -> Self {
        Self {
            init: Initializer::RandomPartition,
            max_iters: 200,
            pruning: PruningConfig::default(),
        }
    }
}

/// Outcome of a UCPC run: the partition plus convergence diagnostics.
#[derive(Debug, Clone)]
pub struct UcpcResult {
    /// The final partition.
    pub clustering: Clustering,
    /// Final objective value `Σ_C J(C)`.
    pub objective: f64,
    /// Objective after every completed pass (monotonically non-increasing,
    /// cf. Proposition 4).
    pub objective_trace: Vec<f64>,
    /// Number of full passes executed (`I` in Proposition 5).
    pub iterations: usize,
    /// Total number of object relocations applied.
    pub relocations: usize,
    /// Whether the run stopped because no object was relocated (vs. hitting
    /// `max_iters`).
    pub converged: bool,
    /// Candidate-pruning counters (all zero when pruning is off).
    pub pruning: PruneCounters,
}

impl Ucpc {
    /// Runs Algorithm 1 on `data` with `k` clusters, using labels produced by
    /// the configured initializer.
    pub fn run(
        &self,
        data: &[UncertainObject],
        k: usize,
        rng: &mut dyn RngCore,
    ) -> Result<UcpcResult, ClusterError> {
        validate_input(data, k)?;
        let labels = self.init.initial_partition(data, k, rng);
        self.run_on_arena(MomentArena::from_objects(data), k, labels)
    }

    /// Runs Algorithm 1 from a caller-supplied initial partition (labels in
    /// `0..k`, one per object).
    pub fn run_with_labels(
        &self,
        data: &[UncertainObject],
        k: usize,
        labels: Vec<usize>,
    ) -> Result<UcpcResult, ClusterError> {
        // The arena panics on ragged input; labels are run_on_arena's.
        validate_input(data, k)?;
        self.run_on_arena(MomentArena::from_objects(data), k, labels)
    }

    /// Runs Algorithm 1 on a prebuilt moment arena, taken over as the
    /// engine's rows (no copy). Labels must be one per row, each in `0..k`;
    /// a non-finite row is [`ClusterError::NonFinite`].
    pub fn run_on_arena(
        &self,
        arena: MomentArena,
        k: usize,
        labels: Vec<usize>,
    ) -> Result<UcpcResult, ClusterError> {
        if arena.is_empty() {
            return Err(ClusterError::EmptyDataset);
        }
        if k > arena.len() {
            return Err(ClusterError::InvalidK { k, n: arena.len() });
        }
        let mut engine = IncrementalUcpc::from_arena(arena, k, &labels)?;
        Ok(self.drive(&mut engine))
    }

    /// Lines 4–16 of Algorithm 1 on a loaded engine: relocation passes
    /// until one moves nothing or `max_iters` passes ran.
    pub(crate) fn drive(&self, engine: &mut IncrementalUcpc) -> UcpcResult {
        engine.set_pruning(self.pruning);
        let mut objective_trace: Vec<f64> = Vec::new();
        let (mut relocations, mut converged) = (0, false);
        while !converged && objective_trace.len() < self.max_iters {
            let moved = engine.stabilize(1);
            relocations += moved;
            converged = moved == 0;
            let v = engine.objective();
            if let Some(&prev) = objective_trace.last() {
                // Relative slack: the aggregates carry rounding noise
                // proportional to the objective's magnitude, so an absolute
                // epsilon would misfire on large-coordinate data.
                debug_assert!(
                    v <= prev + 1e-6 * (1.0 + prev.abs()),
                    "Proposition 4 violated: objective rose from {prev} to {v}"
                );
            }
            objective_trace.push(v);
        }
        // Every slot of a loaded engine is live, in row order.
        let labels = engine.labels.iter().flatten().copied().collect();
        UcpcResult {
            clustering: Clustering::new(labels, engine.k()),
            objective: engine.objective(),
            iterations: objective_trace.len(),
            objective_trace,
            relocations,
            converged,
            pruning: engine.pruning_counters(),
        }
    }
}

impl UncertainClusterer for Ucpc {
    fn name(&self) -> &'static str {
        "UCPC"
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
    use crate::objective::ClusterStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ucpc_uncertain::UnivariatePdf;

    /// Two well-separated Gaussian blobs of uncertain objects.
    fn two_blobs(n_per: usize, seed: u64) -> (Vec<UncertainObject>, Vec<usize>) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::new();
        let mut truth = Vec::new();
        for (g, center) in [(-5.0, 0.0), (5.0, 3.0)].iter().enumerate() {
            for _ in 0..n_per {
                let cx = center.0 + rng.gen_range(-1.0..1.0);
                let cy = center.1 + rng.gen_range(-1.0..1.0);
                data.push(UncertainObject::new(vec![
                    UnivariatePdf::normal(cx, 0.3),
                    UnivariatePdf::normal(cy, 0.3),
                ]));
                truth.push(g);
            }
        }
        (data, truth)
    }

    #[test]
    fn recovers_two_separated_blobs() {
        let (data, truth) = two_blobs(30, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let result = Ucpc::default().run(&data, 2, &mut rng).unwrap();
        assert!(result.converged);
        // Perfect separation up to label permutation.
        let l0 = result.clustering.label(0);
        for (i, &t) in truth.iter().enumerate() {
            let expected = if t == truth[0] { l0 } else { 1 - l0 };
            assert_eq!(
                result.clustering.label(i),
                expected,
                "object {i} misclustered"
            );
        }
    }

    #[test]
    fn objective_is_monotone_and_converges() {
        let (data, _) = two_blobs(25, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let result = Ucpc::default().run(&data, 4, &mut rng).unwrap();
        assert!(result.converged, "should converge well before the cap");
        for w in result.objective_trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "objective increased: {w:?}");
        }
    }

    #[test]
    fn final_objective_matches_recomputation_from_scratch() {
        let (data, _) = two_blobs(20, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let result = Ucpc::default().run(&data, 3, &mut rng).unwrap();
        let members = result.clustering.members();
        let recomputed: f64 = members
            .iter()
            .filter(|ms| !ms.is_empty())
            .map(|ms| ClusterStats::from_members(ms.iter().map(|&i| &data[i])).j())
            .sum();
        assert!(
            (result.objective - recomputed).abs() < 1e-6,
            "incremental {} vs recomputed {recomputed}",
            result.objective
        );
    }

    #[test]
    fn k_clusters_stay_nonempty_by_default() {
        let (data, _) = two_blobs(10, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let result = Ucpc::default().run(&data, 5, &mut rng).unwrap();
        assert_eq!(result.clustering.non_empty(), 5);
    }

    #[test]
    fn degenerate_point_masses_behave_like_kmeans() {
        // Case 1 of the evaluation: deterministic objects. UCPC's objective
        // reduces to the K-means SSE (all sigma^2 = 0).
        let data: Vec<UncertainObject> = [
            [0.0, 0.0],
            [0.1, 0.0],
            [0.0, 0.1],
            [10.0, 10.0],
            [10.1, 10.0],
            [10.0, 10.1],
        ]
        .iter()
        .map(|p| UncertainObject::deterministic(p))
        .collect();
        let mut rng = StdRng::seed_from_u64(9);
        let result = Ucpc::default().run(&data, 2, &mut rng).unwrap();
        let labels = result.clustering.labels();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[3], labels[5]);
        assert_ne!(labels[0], labels[3]);
        // SSE of the perfect split: within-blob squared deviations.
        assert!(result.objective < 0.1, "objective {}", result.objective);
    }

    #[test]
    fn figure_1_archetype_j_separates_by_variance() {
        // Figure 1: two clusters with identical central tendency (same sums
        // of expected values) but different member variances. J_UK cannot
        // tell them apart (Proposition 1); J must rank the lower-variance
        // cluster as more compact.
        let tight: Vec<UncertainObject> = (0..6)
            .map(|i| UncertainObject::new(vec![UnivariatePdf::normal((i as f64) * 0.1, 0.05)]))
            .collect();
        let loose: Vec<UncertainObject> = (0..6)
            .map(|i| UncertainObject::new(vec![UnivariatePdf::normal((i as f64) * 0.1, 3.0)]))
            .collect();
        let s_tight = ClusterStats::from_members(tight.iter());
        let s_loose = ClusterStats::from_members(loose.iter());
        assert!(
            s_tight.j() < s_loose.j(),
            "Figure 1: J must rank the lower-variance cluster as more compact"
        );
    }

    #[test]
    fn figure_2_archetype_j_accounts_for_spread_not_only_variance() {
        // Figure 2: small-variance objects that are far apart vs
        // larger-variance objects that are close together. A pure
        // U-centroid-variance criterion (Theorem 2) prefers the former;
        // J must prefer the latter (the genuinely more compact cluster).
        let far_small_var: Vec<UncertainObject> = [-10.0, 0.0, 10.0]
            .iter()
            .map(|&c| UncertainObject::new(vec![UnivariatePdf::normal(c, 0.1)]))
            .collect();
        let close_big_var: Vec<UncertainObject> = [-0.5, 0.0, 0.5]
            .iter()
            .map(|&c| UncertainObject::new(vec![UnivariatePdf::normal(c, 1.0)]))
            .collect();
        let s_far = ClusterStats::from_members(far_small_var.iter());
        let s_close = ClusterStats::from_members(close_big_var.iter());
        // The pure-variance criterion gets it backwards...
        assert!(s_far.ucentroid_variance() < s_close.ucentroid_variance());
        // ...while J ranks the close-together cluster as more compact.
        assert!(
            s_close.j() < s_far.j(),
            "Figure 2: J must prefer the spatially compact cluster"
        );
    }

    #[test]
    fn run_with_labels_respects_initial_partition() {
        let (data, _) = two_blobs(5, 11);
        let labels = vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1];
        let result = Ucpc::default().run_with_labels(&data, 2, labels).unwrap();
        assert!(result.converged);
        assert_eq!(result.clustering.len(), 10);
    }

    #[test]
    fn run_with_labels_rejects_bad_labels_without_panicking() {
        let (data, _) = two_blobs(5, 20); // 10 objects
        assert!(matches!(
            Ucpc::default().run_with_labels(&data, 2, vec![0; 3]),
            Err(ClusterError::LabelLengthMismatch {
                expected: 10,
                found: 3
            })
        ));
        let mut labels = vec![0; 10];
        labels[4] = 7;
        assert!(matches!(
            Ucpc::default().run_with_labels(&data, 2, labels),
            Err(ClusterError::LabelOutOfRange {
                label: 7,
                k: 2,
                index: 4
            })
        ));
    }

    #[test]
    fn run_on_arena_validates_inputs() {
        let (data, _) = two_blobs(5, 21);
        let arena = || MomentArena::from_objects(&data);
        assert!(matches!(
            Ucpc::default().run_on_arena(MomentArena::from_objects(&[]), 2, vec![]),
            Err(ClusterError::EmptyDataset)
        ));
        assert!(matches!(
            Ucpc::default().run_on_arena(arena(), 0, vec![0; 10]),
            Err(ClusterError::InvalidK { k: 0, n: 10 })
        ));
        assert!(matches!(
            Ucpc::default().run_on_arena(arena(), 11, vec![0; 10]),
            Err(ClusterError::InvalidK { k: 11, n: 10 })
        ));
        assert!(matches!(
            Ucpc::default().run_on_arena(arena(), 2, vec![2; 10]),
            Err(ClusterError::LabelOutOfRange {
                label: 2,
                k: 2,
                index: 0
            })
        ));
    }

    #[test]
    fn errors_propagate() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            Ucpc::default().run(&[], 2, &mut rng),
            Err(ClusterError::EmptyDataset)
        ));
        let data = vec![UncertainObject::deterministic(&[0.0])];
        assert!(matches!(
            Ucpc::default().run(&data, 5, &mut rng),
            Err(ClusterError::InvalidK { .. })
        ));
    }

    #[test]
    fn trait_object_usable() {
        let (data, _) = two_blobs(5, 12);
        let alg: &dyn UncertainClusterer = &Ucpc::default();
        assert_eq!(alg.name(), "UCPC");
        let mut rng = StdRng::seed_from_u64(13);
        let c = alg.cluster(&data, 2, &mut rng).unwrap();
        assert_eq!(c.len(), 10);
    }
}
