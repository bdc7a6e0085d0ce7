//! U-AHC — agglomerative hierarchical clustering of uncertain objects
//! (Gullo, Ponti, Tagarelli & Greco, ICDM 2008) — "UAHC" in the paper.
//!
//! The published U-AHC compares cluster prototypes (mixture models) with an
//! information-theoretic dissimilarity. An exact reimplementation of that
//! dissimilarity is out of the paper's scope (it is a baseline here, cited
//! but not re-derived); this module implements the same *algorithmic shape* —
//! bottom-up agglomeration over uncertain objects with mixture-model cluster
//! prototypes — using the expected squared distance `ÊD` between mixture
//! prototypes (Lemma 2 + Lemma 3 closed forms) as the merge criterion.
//! Group-average linkage over `ÊD` is available as an alternative. The
//! substitution is recorded in the README's "Substitutions" section; what
//! the evaluation needs from this baseline is its O(n² .. n³) hierarchical
//! behaviour and its accuracy tier.

use rand::RngCore;
use ucpc_core::framework::{validate_input, ClusterError, Clustering, UncertainClusterer};
use ucpc_core::objective::ClusterStats;
use ucpc_uncertain::distance::expected_sq_distance_from_moments;
use ucpc_uncertain::UncertainObject;

/// Linkage criterion for the agglomeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Linkage {
    /// Distance between cluster mixture prototypes:
    /// `ÊD(C_MM(A), C_MM(B))` via Lemmas 2–3 (the default, closest in
    /// spirit to the prototype-based U-AHC).
    #[default]
    MixturePrototype,
    /// Group-average of pairwise `ÊD` between members (UPGMA).
    GroupAverage,
}

/// Configuration of the agglomerative baseline.
#[derive(Debug, Clone, Default)]
pub struct Uahc {
    /// Merge criterion.
    pub linkage: Linkage,
}

/// A single merge step of the dendrogram: clusters `a` and `b` (indices into
/// the current forest) merged at `height`.
#[derive(Debug, Clone, PartialEq)]
pub struct Merge {
    /// First merged cluster's representative object index.
    pub a: usize,
    /// Second merged cluster's representative object index.
    pub b: usize,
    /// Merge dissimilarity.
    pub height: f64,
}

/// Outcome of a U-AHC run.
#[derive(Debug, Clone)]
pub struct UahcResult {
    /// The partition obtained by cutting the dendrogram at `k` clusters.
    pub clustering: Clustering,
    /// The merge sequence (length `n - k`), heights non-decreasing for
    /// monotone linkages.
    pub merges: Vec<Merge>,
}

impl Uahc {
    /// Agglomerates `data` bottom-up until `k` clusters remain.
    pub fn run(&self, data: &[UncertainObject], k: usize) -> Result<UahcResult, ClusterError> {
        validate_input(data, k)?;
        let n = data.len();

        // Forest state: cluster stats (for mixture prototypes), member lists,
        // and an alive flag per slot.
        let mut stats: Vec<ClusterStats> = data
            .iter()
            .map(|o| ClusterStats::from_members(std::iter::once(o)))
            .collect();
        let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let mut alive = vec![true; n];

        // Pairwise dissimilarity matrix over alive clusters.
        let mut dist = vec![f64::INFINITY; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = self.dissimilarity(&stats[i], &stats[j], &members[i], &members[j], data);
                dist[i * n + j] = d;
                dist[j * n + i] = d;
            }
        }

        let mut merges = Vec::with_capacity(n - k);
        let mut remaining = n;
        while remaining > k {
            // Find the closest alive pair.
            let (mut bi, mut bj, mut bd) = (usize::MAX, usize::MAX, f64::INFINITY);
            for i in 0..n {
                if !alive[i] {
                    continue;
                }
                for j in (i + 1)..n {
                    if !alive[j] {
                        continue;
                    }
                    let d = dist[i * n + j];
                    if d < bd {
                        bd = d;
                        bi = i;
                        bj = j;
                    }
                }
            }

            // Merge j into i.
            merges.push(Merge {
                a: bi,
                b: bj,
                height: bd,
            });
            let moved = std::mem::take(&mut members[bj]);
            for &obj in &moved {
                stats[bi].add(data[obj].moments());
            }
            members[bi].extend(moved);
            alive[bj] = false;
            remaining -= 1;

            // Refresh distances from the merged cluster.
            for j in 0..n {
                if j == bi || !alive[j] {
                    continue;
                }
                let d = self.dissimilarity(&stats[bi], &stats[j], &members[bi], &members[j], data);
                dist[bi * n + j] = d;
                dist[j * n + bi] = d;
            }
        }

        // Labels from the surviving clusters.
        let mut labels = vec![0usize; n];
        let mut next = 0usize;
        for i in 0..n {
            if alive[i] {
                for &obj in &members[i] {
                    labels[obj] = next;
                }
                next += 1;
            }
        }
        debug_assert_eq!(next, k, "agglomeration must stop at exactly k clusters");
        Ok(UahcResult {
            clustering: Clustering::new(labels, k),
            merges,
        })
    }

    fn dissimilarity(
        &self,
        a: &ClusterStats,
        b: &ClusterStats,
        members_a: &[usize],
        members_b: &[usize],
        data: &[UncertainObject],
    ) -> f64 {
        match self.linkage {
            Linkage::MixturePrototype => {
                let ma = a.mixture_moments();
                let mb = b.mixture_moments();
                expected_sq_distance_from_moments(ma.mu(), ma.mu2(), mb.mu(), mb.mu2())
            }
            Linkage::GroupAverage => {
                let mut acc = 0.0;
                for &i in members_a {
                    for &j in members_b {
                        acc += ucpc_uncertain::distance::expected_sq_distance(&data[i], &data[j]);
                    }
                }
                acc / (members_a.len() * members_b.len()) as f64
            }
        }
    }
}

impl UncertainClusterer for Uahc {
    fn name(&self) -> &'static str {
        "UAHC"
    }

    fn cluster(
        &self,
        data: &[UncertainObject],
        k: usize,
        _rng: &mut dyn RngCore,
    ) -> Result<Clustering, ClusterError> {
        Ok(self.run(data, k)?.clustering)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucpc_uncertain::UnivariatePdf;

    fn blobs() -> Vec<UncertainObject> {
        let mut data = Vec::new();
        for c in [0.0, 15.0, 30.0] {
            for i in 0..5 {
                data.push(UncertainObject::new(vec![
                    UnivariatePdf::normal(c + (i % 2) as f64 * 0.3, 0.2),
                    UnivariatePdf::normal(c, 0.2),
                ]));
            }
        }
        data
    }

    #[test]
    fn recovers_three_blobs_with_both_linkages() {
        let data = blobs();
        for linkage in [Linkage::MixturePrototype, Linkage::GroupAverage] {
            let r = Uahc { linkage }.run(&data, 3).unwrap();
            let l = r.clustering.labels();
            for g in 0..3 {
                let group = &l[g * 5..(g + 1) * 5];
                assert!(
                    group.iter().all(|&x| x == group[0]),
                    "{linkage:?}: group {g} split: {l:?}"
                );
            }
            assert_eq!(r.clustering.non_empty(), 3);
        }
    }

    #[test]
    fn merge_count_is_n_minus_k() {
        let data = blobs();
        let r = Uahc::default().run(&data, 4).unwrap();
        assert_eq!(r.merges.len(), data.len() - 4);
    }

    #[test]
    fn k_equals_n_is_identity() {
        let data = blobs();
        let r = Uahc::default().run(&data, data.len()).unwrap();
        assert_eq!(r.merges.len(), 0);
        assert_eq!(r.clustering.non_empty(), data.len());
    }

    #[test]
    fn k_equals_one_merges_everything() {
        let data = blobs();
        let r = Uahc::default().run(&data, 1).unwrap();
        assert!(r.clustering.labels().iter().all(|&l| l == 0));
    }
}
