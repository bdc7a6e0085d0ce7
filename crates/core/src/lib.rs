//! # ucpc-core — the paper's primary contribution
//!
//! The U-centroid (Section 4.1), the closed-form cluster-compactness
//! objective it induces (Section 4.2, Theorem 3, Corollary 1), and the UCPC
//! local-search clustering algorithm (Section 4.3, Algorithm 1) from
//! *Uncertain Centroid based Partitional Clustering of Uncertain Data*
//! (Gullo & Tagarelli, VLDB 2012), plus the partitional-clustering framework
//! (partitions, initializers, the [`framework::UncertainClusterer`] trait)
//! shared with every baseline in `ucpc-baselines`.
//!
//! ## Architecture: three layers under the relocation loop
//!
//! The hot path is Algorithm 1's candidate-relocation scan, run by one
//! loop ([`incremental::IncrementalUcpc::stabilize`], which [`ucpc::Ucpc`]
//! and [`restarts::BestOfRestarts`] drive over bulk-loaded engines) and
//! built from three layers:
//!
//! * **Moment arena** — object moments live in a flat
//!   [`ucpc_uncertain::MomentArena`] (contiguous rows + precomputed scalar
//!   columns); the arena module docs derive how Corollary 1 collapses each
//!   candidate evaluation to one fused dot product, which
//!   [`ucpc_uncertain::simd`] dispatches to an AVX2/NEON kernel at run time
//!   (env knob `UCPC_SIMD`).
//! * **Delta-`J` kernel** — [`objective::ClusterStats`] maintains
//!   per-cluster sufficient statistics and scalar aggregates so that
//!   [`objective::ClusterStats::delta_j_add`] /
//!   [`objective::ClusterStats::delta_j_remove`] price a relocation in
//!   O(m), and the engine's [`pruning::PricingTable`], which owns those
//!   statistics and rewrites a cluster's hoisted pricers whenever it folds
//!   the cluster, prices all `k` candidates of a decision with one fused
//!   `price_block` call over the clusters' own mean-sum rows and their `k`
//!   pricers.
//! * **Pruning tiers** — a [`pruning::Pruner`] caches each object's
//!   best/second-best deltas and bounds how much any cluster's delta can
//!   have drifted since (tier 0 globally in O(1), tier 1 per cluster in
//!   O(k), tier 2 confirming a still-winning argmin with two dot products),
//!   skipping provably redundant scans *exactly*: pruned runs produce
//!   byte-identical labels (env knob `UCPC_PRUNING`,
//!   [`pruning::PruningConfig`]). The pruner owns every piece of that
//!   state — cache, drift watermarks, counters — and the pricing table
//!   beside the statistics, which hold Corollary 1's sums only.
//!
//! Everything above those layers is orchestration: initialization
//! ([`init::Initializer`]), restarts, the incremental driver, and the
//! shared [`framework`] types. The relocation search itself is sequential,
//! as in the paper: every move applies at once, which Proposition 4's
//! termination argument rests on.
//! Threads appear only where the work is independent:
//! [`restarts::BestOfRestarts`] runs its restarts on scoped threads that
//! claim restart indices from one shared counter, sized by
//! [`restarts::BestOfRestarts::threads`] (env knob `UCPC_THREADS`).
//! The streaming driver ([`incremental::IncrementalUcpc`]) stores its live
//! window in one [`ucpc_uncertain::MomentArena`] whose rows it recycles
//! through its own free list under generation-stamped handles, places
//! each arrival through the same pricing table (one `price_block` over
//! every cluster), and hands every statistic update to its pruner. Every update
//! takes the plain fold and marks its cluster changed; the next cached
//! bound the pruner reads or stores first charges each changed cluster's
//! net change since its last charge as one transition, so cached bounds
//! survive edits — only a cluster below 2 members at either end of the
//! change surgically invalidates the entries rooted in it, via the
//! per-cluster version counters of [`pruning`]. After a
//! [`pruning::Pruner::retire`] there is nothing cached and nothing to
//! charge.
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use ucpc_core::{Ucpc, framework::UncertainClusterer};
//! use ucpc_uncertain::{UncertainObject, UnivariatePdf};
//!
//! // Six uncertain points in two obvious groups.
//! let data: Vec<UncertainObject> = [0.0, 0.2, 0.4, 9.0, 9.2, 9.4]
//!     .iter()
//!     .map(|&c| UncertainObject::new(vec![UnivariatePdf::normal(c, 0.1)]))
//!     .collect();
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let result = Ucpc::default().run(&data, 2, &mut rng).unwrap();
//! assert!(result.converged);
//! assert_eq!(result.clustering.label(0), result.clustering.label(1));
//! assert_ne!(result.clustering.label(0), result.clustering.label(5));
//! ```

#![warn(missing_docs)]

// The differential reference models live with the integration tests and
// name this crate by its public path; the unit tests share them.
#[cfg(test)]
extern crate self as ucpc_core;
#[cfg(test)]
#[allow(dead_code)]
#[path = "../../../tests/support/reference.rs"]
mod reference;

pub mod codec;
pub mod fault;
pub mod framework;
pub mod incremental;
pub mod init;
pub mod objective;
pub mod pruning;
pub mod restarts;
pub mod serving;
pub mod sharded;
pub mod snapshot;
pub mod ucentroid;
pub mod ucpc;
pub mod wal;

pub use fault::{ChaosPlan, Dice, IoFaultPlan};

pub use framework::{ClusterError, Clustering, UncertainClusterer};
pub use init::Initializer;
pub use objective::ClusterStats;
pub use pruning::{PruneCounters, PruningConfig};
pub use serving::{
    Clock, PlacementAnswer, ServingConfig, ServingError, ServingResponse, ServingUcpc, SystemClock,
};
pub use sharded::ShardedUcpc;
pub use snapshot::SnapshotError;
pub use ucentroid::UCentroid;
pub use ucpc::{Ucpc, UcpcResult};
pub use wal::{
    recover, scan_wal, DurableIo, IoFault, LogEntry, LogOp, Recovery, SharedVecIo, VecIo,
    WalDamage, WalError, WalFsync, WalRecord, WalScan, WalWriter,
};
