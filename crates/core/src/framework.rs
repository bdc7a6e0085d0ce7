//! Shared partitional-clustering framework: partitions, errors, and the
//! algorithm trait every clusterer in the workspace implements.

use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::fmt;
use ucpc_uncertain::UncertainObject;

/// Errors shared by every clustering algorithm in the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The input dataset is empty.
    EmptyDataset,
    /// The requested number of clusters is zero or exceeds the dataset size.
    InvalidK {
        /// Requested number of clusters.
        k: usize,
        /// Dataset size.
        n: usize,
    },
    /// Objects in the dataset have differing dimensionalities.
    DimensionMismatch {
        /// Dimensionality of the first object.
        expected: usize,
        /// Dimensionality of the offending object.
        found: usize,
        /// Index of the offending object.
        index: usize,
    },
    /// A caller-supplied label vector does not have one label per object.
    LabelLengthMismatch {
        /// Number of objects in the dataset.
        expected: usize,
        /// Number of labels supplied.
        found: usize,
    },
    /// A caller-supplied label lies outside `0..k`.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// The requested number of clusters.
        k: usize,
        /// Index of the object carrying the offending label.
        index: usize,
    },
    /// A streaming [`ObjectHandle`](ucpc_uncertain::ObjectHandle) names an
    /// object that is gone: already removed, or its slot recycled to a
    /// later occupant.
    StaleHandle {
        /// The handle's storage slot.
        slot: u32,
        /// The generation the handle was issued under.
        generation: u32,
    },
    /// A streaming arrival carries a NaN or infinite moment, or a finite
    /// one whose precomputed scalars overflow; it was not admitted.
    NonFinite,
    /// A sharded engine was asked for zero shards.
    NoShards,
    /// A multi-restart run was asked for zero restarts.
    NoRestarts,
    /// A sharded engine's shard is down, so no round can commit; restart
    /// it first. Nothing was changed.
    ShardDown {
        /// The crashed shard.
        shard: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::EmptyDataset => write!(f, "dataset is empty"),
            ClusterError::InvalidK { k, n } => {
                write!(f, "invalid cluster count k={k} for dataset of size n={n}")
            }
            ClusterError::DimensionMismatch {
                expected,
                found,
                index,
            } => write!(
                f,
                "object {index} has {found} dimensions, expected {expected}"
            ),
            ClusterError::LabelLengthMismatch { expected, found } => write!(
                f,
                "label vector has {found} entries, expected one per object ({expected})"
            ),
            ClusterError::LabelOutOfRange { label, k, index } => write!(
                f,
                "label {label} of object {index} is out of range for k={k}"
            ),
            ClusterError::StaleHandle { slot, generation } => write!(
                f,
                "stale handle: slot {slot} generation {generation} is not live"
            ),
            ClusterError::NonFinite => write!(f, "arrival has a non-finite moment"),
            ClusterError::NoShards => write!(f, "a sharded engine needs at least one shard"),
            ClusterError::NoRestarts => write!(f, "a multi-restart run needs at least one restart"),
            ClusterError::ShardDown { shard } => {
                write!(f, "shard {shard} is down; restart it first")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Validates a dataset/k pair and returns the common dimensionality `m`.
pub fn validate_input(data: &[UncertainObject], k: usize) -> Result<usize, ClusterError> {
    if data.is_empty() {
        return Err(ClusterError::EmptyDataset);
    }
    if k == 0 || k > data.len() {
        return Err(ClusterError::InvalidK { k, n: data.len() });
    }
    let m = data[0].dims();
    for (i, o) in data.iter().enumerate().skip(1) {
        if o.dims() != m {
            return Err(ClusterError::DimensionMismatch {
                expected: m,
                found: o.dims(),
                index: i,
            });
        }
    }
    Ok(m)
}

/// Validates a caller-supplied initial partition: one label per object, every
/// label in `0..k`.
pub fn validate_labels(labels: &[usize], n: usize, k: usize) -> Result<(), ClusterError> {
    if labels.len() != n {
        return Err(ClusterError::LabelLengthMismatch {
            expected: n,
            found: labels.len(),
        });
    }
    for (index, &label) in labels.iter().enumerate() {
        if label >= k {
            return Err(ClusterError::LabelOutOfRange { label, k, index });
        }
    }
    Ok(())
}

/// A hard partition of `n` objects into at most `k` clusters.
///
/// `labels[i]` is the cluster index of object `i`, in `0..k`. Clusters may be
/// empty (e.g. density-based algorithms may produce fewer groups than
/// requested); [`Clustering::compact`] renumbers away empty clusters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Clustering {
    labels: Vec<usize>,
    k: usize,
}

impl Clustering {
    /// Builds a clustering from labels. Panics if any label is `>= k`.
    pub fn new(labels: Vec<usize>, k: usize) -> Self {
        assert!(
            labels.iter().all(|&l| l < k),
            "label out of range: all labels must be < k={k}"
        );
        Self { labels, k }
    }

    /// The trivial single-cluster partition of `n` objects.
    pub fn single(n: usize) -> Self {
        Self::new(vec![0; n], 1)
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the partition covers zero objects.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of clusters `k` (including possibly empty ones).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Cluster label of object `i`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Members of every cluster: `members()[c]` lists the object indices of
    /// cluster `c`.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.k];
        for (i, &l) in self.labels.iter().enumerate() {
            out[l].push(i);
        }
        out
    }

    /// Cluster sizes.
    pub fn sizes(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.k];
        for &l in &self.labels {
            out[l] += 1;
        }
        out
    }

    /// Number of non-empty clusters.
    pub fn non_empty(&self) -> usize {
        self.sizes().iter().filter(|&&s| s > 0).count()
    }

    /// Renumbers clusters so that labels are consecutive and every cluster is
    /// non-empty; returns the new clustering.
    pub fn compact(&self) -> Clustering {
        let sizes = self.sizes();
        let mut remap = vec![usize::MAX; self.k];
        let mut next = 0;
        for (c, &s) in sizes.iter().enumerate() {
            if s > 0 {
                remap[c] = next;
                next += 1;
            }
        }
        Clustering::new(self.labels.iter().map(|&l| remap[l]).collect(), next.max(1))
    }
}

/// The interface shared by UCPC and every baseline: partition `data` into
/// (at most) `k` clusters.
///
/// Randomness is injected so that the experiment harness can average over
/// multiple seeded runs, exactly as the paper averages its measurements over
/// 50 runs to neutralize non-deterministic initialization.
pub trait UncertainClusterer {
    /// Short algorithm name as used in the paper's tables ("UCPC", "UKM", ...).
    fn name(&self) -> &'static str;

    /// Clusters the dataset.
    fn cluster(
        &self,
        data: &[UncertainObject],
        k: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Clustering, ClusterError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucpc_uncertain::UnivariatePdf;

    #[test]
    fn clustering_members_and_sizes() {
        let c = Clustering::new(vec![0, 1, 0, 2, 1], 3);
        assert_eq!(c.sizes(), vec![2, 2, 1]);
        assert_eq!(c.members()[0], vec![0, 2]);
        assert_eq!(c.non_empty(), 3);
    }

    #[test]
    fn compact_removes_empty_clusters() {
        let c = Clustering::new(vec![0, 3, 0, 3], 4);
        let compacted = c.compact();
        assert_eq!(compacted.k(), 2);
        assert_eq!(compacted.labels(), &[0, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_label_panics() {
        let _ = Clustering::new(vec![0, 5], 2);
    }

    #[test]
    fn validate_rejects_bad_inputs() {
        assert_eq!(validate_input(&[], 2), Err(ClusterError::EmptyDataset));
        let data = vec![UncertainObject::deterministic(&[0.0])];
        assert_eq!(
            validate_input(&data, 0),
            Err(ClusterError::InvalidK { k: 0, n: 1 })
        );
        assert_eq!(
            validate_input(&data, 2),
            Err(ClusterError::InvalidK { k: 2, n: 1 })
        );
        assert_eq!(validate_input(&data, 1), Ok(1));
    }

    #[test]
    fn validate_rejects_dimension_mismatch() {
        let data = vec![
            UncertainObject::deterministic(&[0.0, 1.0]),
            UncertainObject::new(vec![UnivariatePdf::normal(0.0, 1.0)]),
        ];
        assert_eq!(
            validate_input(&data, 1),
            Err(ClusterError::DimensionMismatch {
                expected: 2,
                found: 1,
                index: 1
            })
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = ClusterError::InvalidK { k: 9, n: 3 };
        assert!(e.to_string().contains("k=9"));
    }
}
