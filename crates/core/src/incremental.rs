//! Incremental (online) maintenance of a UCPC clustering.
//!
//! Corollary 1 makes `J` updatable in O(m) per object addition/removal — one
//! fused dot product in the scalar-aggregate kernel form (see
//! [`ucpc_uncertain::arena`]); this
//! module exploits it beyond batch clustering: an [`IncrementalUcpc`] holds a
//! live partition of a stream of uncertain objects, inserting each arrival
//! into the cluster that minimizes the objective increase, removing departed
//! objects, and periodically re-stabilizing with relocation passes (each pass
//! is one iteration of Algorithm 1).
//!
//! This is the natural "moving objects" deployment of the paper's machinery:
//! positions go stale and get refreshed continuously, and re-running batch
//! UCPC from scratch on every update would waste the O(m) incrementality the
//! closed form provides.
//!
//! # Storage backends
//!
//! Two moment stores implement the same driver, selected by
//! [`StreamBackend`] (env knob `UCPC_STREAMING`, mirroring
//! `UCPC_PRUNING`/`UCPC_SIMD`/`UCPC_PARALLEL`):
//!
//! * [`StreamBackend::Slab`] (default) — moments live in a
//!   [`ucpc_uncertain::SlabArena`]: flat SoA rows recycled through a
//!   free-list, so the stabilization scan streams contiguous memory exactly
//!   like the batch path, a steady-state insert-after-remove performs zero
//!   allocator calls (`tests/streaming_alloc_free.rs`), and edits run
//!   through the *drift-tracked* statistic updates so outstanding pruning
//!   bounds survive them (surgical invalidation — see below).
//! * [`StreamBackend::Objects`] — the pre-slab reference layout: one
//!   heap-allocated [`Moments`] per object in `Vec<Option<Moments>>`, with
//!   untracked edits and a global cache-epoch bump per edit. Kept because
//!   the exactness suite pins the slab path byte-identical to it.
//!
//! # Generation-stamped handles
//!
//! Both backends recycle storage slots through a LIFO free-list with the
//! *identical* discipline, and [`IncrementalUcpc::insert`] returns an
//! [`ObjectHandle`] — slot plus the slot's generation counter at insertion
//! time (see [`ucpc_uncertain::slab`] for the scheme). Two consequences:
//!
//! * **Bounded state.** Every handle-indexed structure — the label map,
//!   the moment storage, and (with pruning on) the prune cache's entries
//!   and drift-snapshot rows — is indexed by *slot* and therefore capped at
//!   the high-water mark of concurrent liveness, not the total insertion
//!   count. A steady-state insert-after-remove churn loop shows zero net
//!   growth in any of them, for weeks (`tests/streaming_alloc_free.rs` and
//!   the `bench_soak` flat-memory gate pin this).
//! * **Checked staleness.** Using a handle after its `remove` — including
//!   after its slot was recycled to a later arrival — is a checked
//!   [`ClusterError::StaleHandle`] on **both** backends, never a silent
//!   read of the slot's next occupant. `label_of` returns `None` for stale
//!   handles.
//!
//! Because the two backends assign identical slot/generation sequences for
//! identical edit scripts, their stabilization passes visit objects in the
//! same order and stay bit-identical (pinned by
//! `tests/incremental_consistency.rs`).
//!
//! For crash recovery and migration, [`IncrementalUcpc::snapshot`] serializes the
//! complete logical state into a versioned byte buffer and
//! [`IncrementalUcpc::restore`] reassembles it bit-identically — see
//! [`crate::snapshot`].
//!
//! # Why the backends are bit-identical
//!
//! A slab row is written with the same bits a standalone [`Moments`] holds
//! (verbatim row copy, identical scalar fold — see
//! [`ucpc_uncertain::slab`]), so every kernel evaluation sees identical
//! inputs. Edits mutate [`ClusterStats`] through `add_view_tracked` /
//! `remove_view_tracked`, whose statistic updates are bit-identical to the
//! untracked `add_view`/`remove_view` the reference backend uses (the drift
//! accumulators are bookkeeping outside the statistics proper). And the
//! pruning shortcuts are exact by construction, so how aggressively a
//! backend invalidates its cache changes which *scans* run, never which
//! *relocations* apply. `tests/incremental_consistency.rs` pins labels,
//! statistics and objectives bitwise across backends × pruning × SIMD.
//!
//! # Surgical invalidation
//!
//! The reference backend kills the whole prune cache on every edit (global
//! epoch bump): an untracked edit changes a cluster's statistics without
//! moving its drift accumulators, so no cached bound may survive. The slab
//! backend instead performs edits through the tracked updates — an edit is
//! then just one more transition the drift bounds already cover, and cached
//! bounds *widen* instead of dying. Only a small-size transition (the
//! touched cluster passing through size `< 2`, where the remove-direction
//! coefficients are undefined) taints history, and it taints exactly that
//! cluster's remove direction — so only entries whose `src` is the touched
//! cluster are invalidated, via the per-cluster version counters of
//! [`crate::pruning`] (module docs there derive the soundness). On churny
//! streams this is the difference between every stabilization pass
//! re-scanning all `n` objects and the pass skipping everything the edits
//! provably could not have changed. Cache entries additionally carry the
//! slot's generation stamp, so an entry written for a departed occupant
//! can never serve the slot's next tenant.

use crate::framework::ClusterError;
use crate::objective::{total_objective, ClusterStats};
use crate::pruning::{
    apply_tracked_insert, apply_tracked_relocation, apply_tracked_remove, best_candidate,
    best_candidate_with_second, best_insertion, best_insertion_bounded, fp_scale, DriftTotals,
    PruneCache, PruneCounters, PruneDecision, PruningConfig,
};
use ucpc_uncertain::arena::MomentView;
use ucpc_uncertain::{Moments, SlabArena, UncertainObject};

pub use ucpc_uncertain::ObjectHandle;

/// Moment-storage backend of [`IncrementalUcpc`].
///
/// The default honours the `UCPC_STREAMING` environment variable (`slab` or
/// `objects`, unset ⇒ `Slab`). Both backends produce byte-identical
/// partitions; the knob trades the slab's contiguity, allocation-free
/// steady state and surgical cache invalidation against the reference
/// path's simplicity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamBackend {
    /// One heap-allocated [`Moments`] per object (`Vec<Option<Moments>>`),
    /// untracked edits, global epoch bump per edit — the seed reference
    /// path.
    Objects,
    /// Flat [`SlabArena`] rows with free-list reuse, drift-tracked edits,
    /// per-cluster surgical invalidation.
    Slab,
}

impl StreamBackend {
    /// Reads the `UCPC_STREAMING` environment knob through the shared
    /// warn-and-fall-back reader ([`ucpc_uncertain::env::read_knob`]): a
    /// set but invalid value warns on stderr and yields `None` (callers
    /// fall back to their default), instead of failing silently.
    pub fn from_env() -> Option<Self> {
        ucpc_uncertain::env::read_knob("UCPC_STREAMING", "slab|objects", Self::parse)
    }

    /// Parses one knob value (`"slab"` ⇒ [`Self::Slab`], `"objects"` ⇒
    /// [`Self::Objects`], anything else ⇒ `None`) — the pure worker behind
    /// [`Self::from_env`], exposed for env-free unit tests.
    pub fn parse(v: &str) -> Option<Self> {
        match v {
            "slab" => Some(Self::Slab),
            "objects" => Some(Self::Objects),
            _ => None,
        }
    }

    /// The knob spelling of this backend.
    pub fn name(self) -> &'static str {
        match self {
            Self::Objects => "objects",
            Self::Slab => "slab",
        }
    }
}

impl Default for StreamBackend {
    fn default() -> Self {
        Self::from_env().unwrap_or(Self::Slab)
    }
}

/// The per-backend moment store. Both variants hand out generation-stamped
/// slots with the identical LIFO reuse discipline (the slab natively, the
/// reference backend through a mirrored free-list/generation pair), so the
/// two backends issue identical handle sequences for identical edit
/// scripts — which is what keeps their stabilization iteration orders, and
/// hence their labels, bit-identical.
// One store exists per driver (never a collection of them), so the size
// spread between an empty Vec and the slab's column set is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum MomentStore {
    Objects {
        objects: Vec<Option<Moments>>,
        /// Freed slots, popped LIFO — mirrors [`SlabArena`]'s free-list
        /// bit-for-bit so both backends recycle the same slot next.
        free: Vec<u32>,
        /// Per-slot generation counters, bumped on removal (wrapping) —
        /// mirrors [`SlabArena::generation`].
        gens: Vec<u32>,
    },
    Slab {
        slab: SlabArena,
    },
}

impl MomentStore {
    fn new(backend: StreamBackend) -> Self {
        match backend {
            StreamBackend::Objects => Self::Objects {
                objects: Vec::new(),
                free: Vec::new(),
                gens: Vec::new(),
            },
            StreamBackend::Slab => Self::Slab {
                slab: SlabArena::new(),
            },
        }
    }

    fn backend(&self) -> StreamBackend {
        match self {
            Self::Objects { .. } => StreamBackend::Objects,
            Self::Slab { .. } => StreamBackend::Slab,
        }
    }

    /// Stores one arrival from its kernel view, recycling a freed slot when
    /// one exists, and returns its generation-stamped handle. Every field
    /// behind the view is copied **verbatim** ([`Moments::from_view`] /
    /// [`SlabArena::insert_view`]), so storing a staged copy of an object
    /// writes exactly the bits storing the object directly would — the
    /// property the serving layer's staging→commit hop rides on.
    fn insert_view(&mut self, v: &MomentView<'_>) -> ObjectHandle {
        match self {
            Self::Objects {
                objects,
                free,
                gens,
            } => {
                let mo = Moments::from_view(v);
                match free.pop() {
                    Some(slot) => {
                        objects[slot as usize] = Some(mo);
                        ObjectHandle::new(slot, gens[slot as usize])
                    }
                    None => {
                        objects.push(Some(mo));
                        gens.push(0);
                        let slot = u32::try_from(objects.len() - 1)
                            .expect("streaming slot space exhausted (u32)");
                        ObjectHandle::new(slot, 0)
                    }
                }
            }
            Self::Slab { slab } => slab.insert_view(v),
        }
    }

    /// Whether `h` names a live object.
    fn contains(&self, h: ObjectHandle) -> bool {
        let slot = h.slot();
        match self {
            Self::Objects { objects, gens, .. } => {
                slot < objects.len() && objects[slot].is_some() && gens[slot] == h.generation()
            }
            Self::Slab { slab } => slab.contains(h),
        }
    }

    /// The generation counter of slot `slot` (current occupant while live,
    /// next occupant while free).
    pub(crate) fn generation(&self, slot: usize) -> u32 {
        match self {
            Self::Objects { gens, .. } => gens[slot],
            Self::Slab { slab } => slab.generation(slot),
        }
    }

    /// Kernel view of the live object in slot `slot`.
    pub(crate) fn view(&self, slot: usize) -> MomentView<'_> {
        match self {
            Self::Objects { objects, .. } => objects[slot].as_ref().expect("live slot").view(),
            Self::Slab { slab } => slab.view(slot),
        }
    }

    fn reserve_ids(&mut self, additional: usize, dims: usize) {
        match self {
            Self::Objects {
                objects,
                free,
                gens,
            } => {
                let live = objects.len() - free.len();
                objects.reserve(additional);
                gens.reserve(additional);
                free.reserve(live + additional);
            }
            Self::Slab { slab } => {
                // Appended rows only; recycled rows need no capacity, so a
                // reservation sized for the worst case (no removals) covers
                // every interleaving.
                slab.reserve_rows(additional, dims);
            }
        }
    }
}

/// A live UCPC partition supporting O(k·m) insertions, O(m) removals and
/// on-demand relocation passes. Handles are generation-stamped: using one
/// after its removal is a checked [`ClusterError::StaleHandle`], and all
/// handle-indexed state stays bounded by the live-window high-water mark.
///
/// ```
/// use ucpc_core::incremental::IncrementalUcpc;
/// use ucpc_uncertain::{UncertainObject, UnivariatePdf};
///
/// let mut live = IncrementalUcpc::new(1, 2).unwrap();
/// let mut ids = Vec::new();
/// for c in [0.0, 0.2, 9.0, 9.2] {
///     let o = UncertainObject::new(vec![UnivariatePdf::normal(c, 0.1)]);
///     ids.push(live.insert(&o).unwrap());
/// }
/// live.stabilize(5);
/// assert_eq!(live.label_of(ids[0]), live.label_of(ids[1]));
/// assert_ne!(live.label_of(ids[0]), live.label_of(ids[2]));
/// live.remove(ids[3]).unwrap();
/// assert!(live.remove(ids[3]).is_err(), "double remove is checked");
/// assert_eq!(live.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalUcpc {
    pub(crate) m: usize,
    pub(crate) k: usize,
    pub(crate) stats: Vec<ClusterStats>,
    /// Moments of every live object, behind the configured backend.
    pub(crate) store: MomentStore,
    /// Per-slot cluster label (`None` while the slot is free). Indexed by
    /// slot, so it tops out at the live-window high-water mark.
    pub(crate) labels: Vec<Option<usize>>,
    pub(crate) live: usize,
    /// Candidate pruning for [`Self::stabilize`] passes and the bounded
    /// placement scan of [`Self::insert`].
    pub(crate) pruning: PruningConfig,
    /// Prune-cache epoch — the coarse kill-switch. [`Self::set_pruning`]
    /// bumps it, and the [`StreamBackend::Objects`] reference backend bumps
    /// it on every edit (untracked edits invalidate everything). The slab
    /// backend never needs to: its edits are drift-tracked, small-size
    /// transitions go through the per-cluster `versions` below, and slot
    /// recycling is covered by the cache entries' generation stamps.
    pub(crate) epoch: u64,
    /// Per-cluster remove-direction version counters — the surgical
    /// invalidation watermarks of [`crate::pruning`].
    pub(crate) versions: Vec<u64>,
    pub(crate) totals: DriftTotals,
    pub(crate) cache: PruneCache,
    pub(crate) counters: PruneCounters,
}

impl IncrementalUcpc {
    /// Creates an empty incremental clustering over `m` dimensions with `k`
    /// clusters, on the env-default storage backend.
    pub fn new(m: usize, k: usize) -> Result<Self, ClusterError> {
        Self::with_backend(m, k, StreamBackend::default())
    }

    /// [`Self::new`] with an explicit storage backend.
    pub fn with_backend(m: usize, k: usize, backend: StreamBackend) -> Result<Self, ClusterError> {
        if k == 0 {
            return Err(ClusterError::InvalidK { k, n: 0 });
        }
        Ok(Self {
            m,
            k,
            stats: vec![ClusterStats::empty(m); k],
            store: MomentStore::new(backend),
            labels: Vec::new(),
            live: 0,
            pruning: PruningConfig::default(),
            epoch: 0,
            versions: vec![0; k],
            totals: DriftTotals::default(),
            cache: PruneCache::new(0, k),
            counters: PruneCounters::default(),
        })
    }

    /// The active storage backend.
    pub fn backend(&self) -> StreamBackend {
        self.store.backend()
    }

    /// Enables or disables candidate pruning for subsequent
    /// [`Self::stabilize`] calls; outstanding cached bounds are discarded.
    pub fn set_pruning(&mut self, pruning: PruningConfig) {
        self.pruning = pruning;
        self.epoch += 1;
    }

    /// Reserves capacity for `additional` further insertions (handle maps
    /// and, on the slab backend, moment rows), so a churn loop staying
    /// within the reservation triggers no reallocation — the contract the
    /// steady-state zero-allocation test pins. With slot recycling, only
    /// the *net* liveness growth consumes the reservation: a steady-state
    /// insert-after-remove loop consumes none of it.
    pub fn reserve_ids(&mut self, additional: usize) {
        self.labels.reserve(additional);
        self.store.reserve_ids(additional, self.m);
    }

    /// The per-cluster sufficient statistics of the live partition (the
    /// aggregates the consistency tests cross-check against a from-scratch
    /// rebuild).
    pub fn cluster_stats(&self) -> &[ClusterStats] {
        &self.stats
    }

    /// Candidate-pruning counters accumulated over all stabilization passes
    /// and bounded placement scans.
    pub fn pruning_counters(&self) -> PruneCounters {
        self.counters
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no objects are present.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of storage slots ever created — the high-water mark of
    /// concurrent liveness, and the size bound on every handle-indexed
    /// structure (label map, moment rows, prune-cache entries). Under
    /// steady-state churn this stops growing; the flat-memory tests assert
    /// exactly that.
    pub fn slot_rows(&self) -> usize {
        self.labels.len()
    }

    /// Number of prune-cache entries currently allocated (0 until the
    /// first pruned stabilization pass; bounded by [`Self::slot_rows`]).
    pub fn cache_entries(&self) -> usize {
        self.cache.len()
    }

    /// Current total objective `Σ_C J(C)`.
    pub fn objective(&self) -> f64 {
        total_objective(&self.stats)
    }

    /// Current cluster of a live object; `None` if the handle is stale.
    pub fn label_of(&self, h: ObjectHandle) -> Option<usize> {
        if !self.store.contains(h) {
            return None;
        }
        self.labels[h.slot()]
    }

    /// Cluster sizes.
    pub fn sizes(&self) -> Vec<usize> {
        self.stats.iter().map(ClusterStats::size).collect()
    }

    /// Inserts an object into the cluster that minimizes the objective
    /// increase (O(k·m) by Corollary 1) and returns its generation-stamped
    /// handle. With pruning off the placement scan is the dot3-batched
    /// [`best_insertion`] kernel over all `k` clusters; with pruning on it
    /// is the Cauchy–Schwarz-bounded [`best_insertion_bounded`] scan, which
    /// prices only the clusters the lower bound cannot exclude and returns
    /// a bit-identical `(cluster, delta)` (shadow-asserted in debug
    /// builds).
    pub fn insert(&mut self, object: &UncertainObject) -> Result<ObjectHandle, ClusterError> {
        self.insert_moments(object.moments())
    }

    /// [`Self::insert`] for an arrival already reduced to its moments — the
    /// pdf-free admission path (serving layers hold moments, not pdfs).
    /// Identical placement, mutation sequence and handle issue as
    /// `insert(&object)` for `object.moments() == mo`.
    pub fn insert_moments(&mut self, mo: &Moments) -> Result<ObjectHandle, ClusterError> {
        if mo.dims() != self.m {
            return Err(ClusterError::DimensionMismatch {
                expected: self.m,
                found: mo.dims(),
                index: self.labels.len(),
            });
        }
        let v = mo.view();
        let best = self.price_insertion(&v);
        Ok(self.commit_placed(&v, best))
    }

    /// The placement scan of [`Self::insert`], factored out so the serving
    /// layer prices arrivals through the identical kernel: with pruning off
    /// the dot3-batched [`best_insertion`] over all `k` clusters, with
    /// pruning on the Cauchy–Schwarz-bounded [`best_insertion_bounded`]
    /// scan, which returns a bit-identical cluster (shadow-asserted in
    /// debug builds). Mutates only the pruning counters.
    pub(crate) fn price_insertion(&mut self, v: &MomentView<'_>) -> usize {
        let (best, _delta) = if self.pruning.is_enabled() {
            let scale = fp_scale(&self.stats);
            let picked = best_insertion_bounded(&self.stats, v, scale, &mut self.counters)
                .expect("k >= 1 clusters");
            #[cfg(debug_assertions)]
            {
                let shadow = best_insertion(&self.stats, v).expect("k >= 1 clusters");
                debug_assert_eq!(
                    picked.0, shadow.0,
                    "bounded placement must pick the full scan's cluster"
                );
                debug_assert_eq!(
                    picked.1.to_bits(),
                    shadow.1.to_bits(),
                    "bounded placement delta must be bit-identical"
                );
            }
            picked
        } else {
            best_insertion(&self.stats, v).expect("k >= 1 clusters")
        };
        best
    }

    /// Applies an already-priced placement: the exact mutation sequence of
    /// [`Self::insert`] after its scan — statistics update (tracked on the
    /// slab backend, epoch-bumped on the reference backend), verbatim store
    /// of the arrival's bits ([`MomentStore::insert_view`]), label write,
    /// live count. The serving layer calls this per batched arrival, with
    /// `best` produced by batch pricing that is bit-identical to
    /// [`Self::price_insertion`]; the resulting engine state is therefore
    /// byte-identical to a serial `insert` of the same arrival.
    pub(crate) fn commit_placed(&mut self, v: &MomentView<'_>, best: usize) -> ObjectHandle {
        match self.store {
            MomentStore::Objects { .. } => {
                self.stats[best].add_view(v);
                // The insertion mutated a cluster outside the drift-tracked
                // path: invalidate every cached scan outcome.
                self.epoch += 1;
            }
            MomentStore::Slab { .. } => {
                // Tracked edit: outstanding bounds widen by the accumulated
                // drift instead of dying; only a small-size transition
                // stales (surgically) the entries rooted in this cluster.
                apply_tracked_insert(
                    &mut self.stats,
                    best,
                    v,
                    &mut self.totals,
                    &mut self.versions,
                );
            }
        }
        let h = self.store.insert_view(v);
        let slot = h.slot();
        if slot == self.labels.len() {
            self.labels.push(Some(best));
        } else {
            debug_assert!(self.labels[slot].is_none(), "recycled slot must be free");
            self.labels[slot] = Some(best);
        }
        self.live += 1;
        h
    }

    /// Removes a live object in O(m). A stale handle — already removed, or
    /// its slot recycled to a later arrival — returns
    /// [`ClusterError::StaleHandle`] and changes nothing, identically on
    /// both backends.
    pub fn remove(&mut self, h: ObjectHandle) -> Result<(), ClusterError> {
        if !self.store.contains(h) {
            return Err(ClusterError::StaleHandle {
                slot: h.slot() as u32,
                generation: h.generation(),
            });
        }
        let slot = h.slot();
        let cluster = self.labels[slot].take().expect("live slot has a label");
        match &mut self.store {
            MomentStore::Objects {
                objects,
                free,
                gens,
            } => {
                let mo = objects[slot].take().expect("live slot holds moments");
                self.stats[cluster].remove(&mo);
                gens[slot] = gens[slot].wrapping_add(1);
                free.push(slot as u32);
                // Removal, like insertion, bypasses drift tracking on this
                // backend: without this epoch bump a stale cached bound
                // could silently skip a scan whose outcome the departed
                // member changed (the cache/stat-consistency regression in
                // `tests/incremental_consistency.rs`).
                self.epoch += 1;
            }
            MomentStore::Slab { slab } => {
                {
                    let v = slab.view(slot);
                    apply_tracked_remove(
                        &mut self.stats,
                        cluster,
                        &v,
                        &mut self.totals,
                        &mut self.versions,
                    );
                }
                slab.remove(h).expect("contains(h) checked above");
            }
        }
        self.live -= 1;
        Ok(())
    }

    /// Runs up to `passes` relocation passes of Algorithm 1 over the live
    /// objects; returns the number of relocations applied. With pruning
    /// enabled the passes take the exact tier-1/tier-2 shortcuts of
    /// [`crate::pruning`]; the relocation sequence is identical either way.
    pub fn stabilize(&mut self, passes: usize) -> usize {
        const TOLERANCE: f64 = 1e-9;
        let mut relocations = 0usize;
        let pruned = self.pruning.is_enabled();
        if pruned {
            self.cache.grow(self.labels.len());
        }
        for _ in 0..passes {
            let mut moved = false;
            let scale = if pruned { fp_scale(&self.stats) } else { 0.0 };
            for i in 0..self.labels.len() {
                let Some(src) = self.labels[i] else { continue };
                if self.stats[src].size() == 1 {
                    continue;
                }
                // Borrowed straight out of the store — applied relocations
                // below mutate only `stats`/`totals`/`versions`/`cache`,
                // all disjoint from the moment storage, so no per-move
                // clone of the moments is ever needed.
                let v = self.store.view(i);

                let decision = if pruned {
                    self.cache.view().decide(
                        i,
                        self.store.generation(i),
                        self.epoch,
                        &self.stats,
                        self.totals,
                        &self.versions,
                        src,
                        &v,
                        TOLERANCE,
                        scale,
                    )
                } else {
                    PruneDecision::FullScan
                };

                match decision {
                    PruneDecision::Skip => {
                        self.counters.skips += 1;
                    }
                    PruneDecision::ConfirmBest(dst) => {
                        self.counters.confirms += 1;
                        let delta =
                            self.stats[src].delta_j_remove(&v) + self.stats[dst].delta_j_add(&v);
                        if delta < -TOLERANCE {
                            apply_tracked_relocation(
                                &mut self.stats,
                                src,
                                dst,
                                &v,
                                &mut self.totals,
                                &mut self.versions,
                            );
                            self.cache.invalidate(i);
                            self.labels[i] = Some(dst);
                            relocations += 1;
                            moved = true;
                        }
                    }
                    PruneDecision::FullScan => {
                        if pruned {
                            self.counters.full_scans += 1;
                            if let Some((dst, delta, second)) =
                                best_candidate_with_second(&self.stats, src, &v)
                            {
                                if delta < -TOLERANCE {
                                    apply_tracked_relocation(
                                        &mut self.stats,
                                        src,
                                        dst,
                                        &v,
                                        &mut self.totals,
                                        &mut self.versions,
                                    );
                                    self.cache.invalidate(i);
                                    self.labels[i] = Some(dst);
                                    relocations += 1;
                                    moved = true;
                                } else {
                                    self.cache.view().store(
                                        i,
                                        self.store.generation(i),
                                        self.epoch,
                                        &self.stats,
                                        self.totals,
                                        &self.versions,
                                        src,
                                        dst,
                                        delta,
                                        second,
                                    );
                                }
                            }
                        } else if let Some((dst, delta)) = best_candidate(&self.stats, src, &v) {
                            if delta < -TOLERANCE {
                                self.stats[src].remove_view(&v);
                                self.stats[dst].add_view(&v);
                                self.labels[i] = Some(dst);
                                relocations += 1;
                                moved = true;
                            }
                        }
                    }
                }
            }
            if !moved {
                break;
            }
        }
        relocations
    }

    /// Current handles and labels of all live objects, in slot order. The
    /// handle sequences are comparable across backends because both assign
    /// identical slot/generation sequences for identical edit scripts.
    pub fn live_labels(&self) -> Vec<(ObjectHandle, usize)> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(slot, l)| {
                l.map(|c| {
                    (
                        ObjectHandle::new(slot as u32, self.store.generation(slot)),
                        c,
                    )
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucpc_uncertain::UnivariatePdf;

    fn obj(c: f64) -> UncertainObject {
        UncertainObject::new(vec![UnivariatePdf::normal(c, 0.2)])
    }

    #[test]
    fn streaming_knob_parses_both_backends_and_warns_on_typos() {
        assert_eq!(StreamBackend::parse("slab"), Some(StreamBackend::Slab));
        assert_eq!(
            StreamBackend::parse("objects"),
            Some(StreamBackend::Objects)
        );
        assert_eq!(StreamBackend::parse("arena"), None);
        let (outcome, warning) = ucpc_uncertain::env::parse_knob(
            "UCPC_STREAMING",
            Some("arena"),
            "slab|objects",
            StreamBackend::parse,
        );
        assert_eq!(outcome.value(), None);
        assert!(warning.unwrap().contains("UCPC_STREAMING=\"arena\""));
    }

    #[test]
    fn insertions_fill_empty_clusters_first_by_objective() {
        let mut inc = IncrementalUcpc::new(1, 2).unwrap();
        let a = inc.insert(&obj(0.0)).unwrap();
        let b = inc.insert(&obj(10.0)).unwrap();
        // Second object prefers the empty cluster (adding to the occupied
        // one increases J by the squared gap; the empty one costs only
        // 2 sigma^2).
        assert_ne!(inc.label_of(a), inc.label_of(b));
    }

    #[test]
    fn stream_with_stabilization_matches_structure() {
        for backend in [StreamBackend::Objects, StreamBackend::Slab] {
            let mut inc = IncrementalUcpc::with_backend(1, 2, backend).unwrap();
            let mut ids = Vec::new();
            for c in [0.0, 0.2, 0.4, 9.0, 9.2, 9.4, 0.1, 9.1] {
                ids.push(inc.insert(&obj(c)).unwrap());
            }
            inc.stabilize(10);
            let l = |i: usize| inc.label_of(ids[i]).unwrap();
            assert_eq!(l(0), l(1));
            assert_eq!(l(0), l(2));
            assert_eq!(l(0), l(6));
            assert_eq!(l(3), l(4));
            assert_eq!(l(3), l(7));
            assert_ne!(l(0), l(3));
        }
    }

    #[test]
    fn removal_is_exact() {
        for backend in [StreamBackend::Objects, StreamBackend::Slab] {
            let mut inc = IncrementalUcpc::with_backend(1, 2, backend).unwrap();
            let keep: Vec<ObjectHandle> = [0.0, 0.5, 8.0]
                .iter()
                .map(|&c| inc.insert(&obj(c)).unwrap())
                .collect();
            let gone = inc.insert(&obj(100.0)).unwrap();
            let with = inc.objective();
            inc.remove(gone).unwrap();
            assert!(
                matches!(inc.remove(gone), Err(ClusterError::StaleHandle { .. })),
                "double remove must be a checked error"
            );
            assert_eq!(inc.len(), 3);
            assert!(inc.objective() <= with);
            assert!(keep.iter().all(|&id| inc.label_of(id).is_some()));
        }
    }

    #[test]
    fn stale_handles_cannot_alias_recycled_slots() {
        for backend in [StreamBackend::Objects, StreamBackend::Slab] {
            let mut inc = IncrementalUcpc::with_backend(1, 2, backend).unwrap();
            let a = inc.insert(&obj(0.0)).unwrap();
            let b = inc.insert(&obj(9.0)).unwrap();
            inc.remove(a).unwrap();
            // The next arrival recycles a's slot under a newer generation.
            let c = inc.insert(&obj(0.5)).unwrap();
            assert_eq!(c.slot(), a.slot(), "slot must be recycled ({backend:?})");
            assert_ne!(c, a);
            assert_eq!(inc.label_of(a), None, "stale handle has no label");
            assert!(
                matches!(inc.remove(a), Err(ClusterError::StaleHandle { .. })),
                "stale remove must not evict the new occupant ({backend:?})"
            );
            assert_eq!(inc.len(), 2);
            assert!(inc.label_of(b).is_some());
            assert!(inc.label_of(c).is_some());
        }
    }

    #[test]
    fn backends_issue_identical_handle_sequences() {
        let script: &[(bool, f64)] = &[
            (true, 0.0),
            (true, 9.0),
            (true, 0.2),
            (false, 1.0), // remove the 2nd live handle
            (true, 9.2),
            (false, 0.0), // remove the 1st live handle
            (true, 0.4),
            (true, 9.4),
        ];
        let run = |backend| {
            let mut inc = IncrementalUcpc::with_backend(1, 2, backend).unwrap();
            let mut live: Vec<ObjectHandle> = Vec::new();
            let mut issued = Vec::new();
            for &(is_insert, x) in script {
                if is_insert {
                    let h = inc.insert(&obj(x)).unwrap();
                    live.push(h);
                    issued.push(h);
                } else {
                    let victim = live.remove(x as usize);
                    inc.remove(victim).unwrap();
                }
            }
            issued
        };
        assert_eq!(
            run(StreamBackend::Objects),
            run(StreamBackend::Slab),
            "slot/generation sequences must match across backends"
        );
    }

    #[test]
    fn objective_matches_batch_rebuild() {
        let mut inc = IncrementalUcpc::new(1, 3).unwrap();
        let objs: Vec<UncertainObject> = [0.0, 0.1, 5.0, 5.1, 10.0, 10.1]
            .iter()
            .map(|&c| obj(c))
            .collect();
        for o in &objs {
            inc.insert(o).unwrap();
        }
        inc.stabilize(20);
        // Rebuild ClusterStats from the live assignment and compare J
        // totals. No removals happened, so slots are insertion order.
        let mut rebuilt = vec![ClusterStats::empty(1); 3];
        for (id, c) in inc.live_labels() {
            rebuilt[c].add(objs[id.slot()].moments());
        }
        let total: f64 = rebuilt.iter().map(ClusterStats::j).sum();
        assert!((inc.objective() - total).abs() < 1e-9);
    }

    #[test]
    fn stabilize_monotonically_improves() {
        let mut inc = IncrementalUcpc::new(1, 2).unwrap();
        // Adversarial insertion order.
        for c in [0.0, 9.0, 0.1, 9.1, 0.2, 9.2] {
            inc.insert(&obj(c)).unwrap();
        }
        let before = inc.objective();
        inc.stabilize(10);
        assert!(inc.objective() <= before + 1e-9);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut inc = IncrementalUcpc::new(2, 2).unwrap();
        assert!(matches!(
            inc.insert(&obj(0.0)),
            Err(ClusterError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn slot_maps_stay_bounded_across_churn() {
        for backend in [StreamBackend::Objects, StreamBackend::Slab] {
            let mut inc = IncrementalUcpc::with_backend(1, 2, backend).unwrap();
            let mut ids: Vec<ObjectHandle> = (0..6)
                .map(|i| inc.insert(&obj(i as f64)).unwrap())
                .collect();
            for step in 0..40 {
                let victim = ids.remove(0);
                inc.remove(victim).unwrap();
                ids.push(inc.insert(&obj((step % 7) as f64)).unwrap());
            }
            assert_eq!(inc.len(), 6);
            // The slot high-water mark stays at the peak liveness even
            // though 40 handles were churned through — the label map and
            // moment storage are live-window-bounded.
            assert_eq!(
                inc.slot_rows(),
                6,
                "slots must be recycled, not appended ({backend:?})"
            );
            if let MomentStore::Slab { slab } = &inc.store {
                assert_eq!(slab.rows(), 6, "rows must be recycled, not appended");
            }
            assert!(ids.iter().all(|&id| inc.label_of(id).is_some()));
        }
    }

    #[test]
    fn backend_knob_parses() {
        assert_eq!(StreamBackend::Objects.name(), "objects");
        assert_eq!(StreamBackend::Slab.name(), "slab");
        let inc = IncrementalUcpc::with_backend(1, 2, StreamBackend::Objects).unwrap();
        assert_eq!(inc.backend(), StreamBackend::Objects);
    }
}
