//! Incremental (online) maintenance of a UCPC clustering.
//!
//! Corollary 1 makes `J` updatable in O(m) per object addition/removal — one
//! fused dot product in the scalar-aggregate kernel form (see
//! [`ucpc_uncertain::arena`]); this
//! module exploits it beyond batch clustering: an [`IncrementalUcpc`] holds a
//! live partition of a stream of uncertain objects, inserting each arrival
//! into the cluster that minimizes the objective increase, removing departed
//! objects, and periodically re-stabilizing with relocation passes (each pass
//! is one iteration of Algorithm 1: [`Pruner::best_move`] decides,
//! [`Pruner::relocate`] applies, and a move needs to lower `J` by more than
//! [`crate::pruning::TOLERANCE`]). [`IncrementalUcpc::stabilize`] is the
//! crate's only relocation loop; batch [`crate::Ucpc`] runs it too.
//!
//! This is the natural "moving objects" deployment of the paper's machinery:
//! positions go stale and get refreshed continuously, and re-running batch
//! UCPC from scratch on every update would waste the O(m) incrementality the
//! closed form provides.
//!
//! # Storage
//!
//! The engine owns its slots outright. Moments live in one
//! [`MomentArena`], one row per slot; `labels` is the only record of which
//! slots are live; `gens` holds each slot's generation; and `free` lists the
//! freed slots, popped last-in-first-out. A removal frees its slot and the
//! next insertion overwrites that row in place
//! ([`MomentArena::overwrite_row_with`]), so the stabilization scan streams
//! contiguous memory and a steady-state insert-after-remove performs zero
//! allocator calls (`tests/streaming_alloc_free.rs`). The allocation policy
//! is part of what the engine logs: an `Insert` entry names the slot the
//! free list hands out next ([`IncrementalUcpc::apply_round`] refuses any
//! other), so a replica or a replay issues the same handles.
//!
//! Reusing a slot must be indistinguishable from appending to a never-used
//! engine, or results would depend on the churn history. Three facts make
//! it so:
//!
//! 1. **Rows are written whole.** A slot is its `mu` and `mu2` rows and
//!    four scalars (`2m + 4` floats; the variances are derived where a
//!    fold reads them). Appended and recycled rows go through the one
//!    canonical fold ([`MomentArena::push_row_with`] /
//!    [`MomentArena::overwrite_row_with`]), which copies `mu`/`mu2`
//!    verbatim and re-derives the scalar aggregates; no bit of the
//!    previous occupant survives.
//! 2. **Free rows are never read.** Every row read is gated by `labels`,
//!    so what a departed object leaves behind is unobservable; a removal
//!    changes only the label, the generation and the free list.
//! 3. **Generations never feed the kernels.** They gate *access* only, so
//!    two engines holding the same live rows price and fold the same bits
//!    however many generations each slot has consumed.
//!
//! By Corollary 1 a cluster's `J` depends only on its [`ClusterStats`], so
//! the storage cannot change a label: `tests/incremental_consistency.rs`
//! and `tests/stream_handles.rs` pin handles, labels, statistics and
//! objectives bitwise against a per-object reference model
//! (`tests/support/reference.rs`) across pruning × SIMD.
//!
//! # Generation-stamped handles
//!
//! [`IncrementalUcpc::insert`] returns an [`ObjectHandle`]: the slot plus
//! the slot's generation at insertion time. A removal bumps the slot's
//! generation (wrapping; [`ObjectHandle`] bounds the aliasing window). Two
//! consequences:
//!
//! * **Bounded state.** Every handle-indexed structure — the label map,
//!   the moment rows, and (with pruning on) the prune cache's entries
//!   and drift-snapshot rows — is indexed by *slot* and therefore capped at
//!   the high-water mark of concurrent liveness, not the total insertion
//!   count (`tests/streaming_alloc_free.rs` and the `bench_soak`
//!   flat-memory gate pin this).
//! * **Checked staleness.** Using a handle after its `remove` — including
//!   after its slot was recycled to a later arrival — is a checked
//!   [`ClusterError::StaleHandle`], never a silent read of the slot's next
//!   occupant. `label_of` returns `None` for stale handles.
//!
//! # Three ways in
//!
//! An engine grows by [`IncrementalUcpc::insert`] from
//! [`IncrementalUcpc::new`]; [`IncrementalUcpc::restore`] reassembles one
//! bit-identically from [`IncrementalUcpc::snapshot`]'s bytes (see
//! [`crate::snapshot`]); and [`IncrementalUcpc::from_arena`] bulk-loads a
//! whole [`MomentArena`] under a given partition, which is how a batch
//! [`crate::Ucpc`] run starts.
//!
//! # Surgical invalidation, charged on read
//!
//! The engine keeps its cluster statistics and its pruning state in one
//! [`Pruner`], whose pricing table owns the statistics, and hands it every
//! statistic update and every relocation decision. Every insert, remove,
//! replayed move and relocation takes the plain O(m) fold, which rewrites
//! the cluster's pricers, and marks its cluster changed, and the next
//! cached bound the pruner reads or stores
//! first charges each changed cluster's net change since its last charge
//! as one transition, so cached pruning bounds *widen* by how far each
//! cluster actually moved instead of dying. Only a cluster that was
//! below 2 members at either end of a change (where the remove-direction
//! coefficients are undefined) taints history, and only the entries whose
//! `src` is that cluster are invalidated, via the per-cluster version
//! counters of [`crate::pruning`] (module docs there derive the
//! soundness). On churny streams this is the difference between every
//! stabilization pass re-scanning all `n` objects and the pass skipping
//! everything the edits provably could not have changed. Cache entries
//! also carry the slot's generation stamp, so an entry written for a
//! departed occupant can never serve the slot's next tenant.
//!
//! [`Pruner::retire`] empties the cache, zeroes every watermark and drops
//! the charge state, and [`IncrementalUcpc::set_pruning`] retires; so do
//! the re-partition of a restart and an undone pass, the two wholesale
//! refolds of the statistics, which derive every cluster's pricers once.
//! The next pruned pass then caches against accumulators that start from
//! zero.
//! Drift therefore depends on pass history, which is why snapshots leave
//! it out ([`crate::snapshot`]); a restored engine's pruner is
//! [`Pruner::new`], the state a retire leaves.

use crate::framework::{validate_labels, ClusterError};
use crate::objective::{total_objective, ClusterStats};
use crate::pruning::{PruneCounters, Pruner, PruningConfig};
use crate::wal::{LogEntry, LogOp};
use ucpc_uncertain::arena::MomentView;
use ucpc_uncertain::{MomentArena, Moments, UncertainObject};

pub use ucpc_uncertain::ObjectHandle;

/// Moment storage of [`IncrementalUcpc`]: the engine's own recycled
/// arena rows are the only store.
///
/// The enum survives only so that callers written against
/// [`IncrementalUcpc::with_backend`] keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamBackend {
    /// Flat arena rows with free-list reuse, edits charged as net changes
    /// when a cached bound next reads them, per-cluster surgical
    /// invalidation.
    Slab,
}

/// A live UCPC partition supporting O(k·m) insertions, O(m) removals and
/// on-demand relocation passes, which move an object iff that lowers `J` by
/// more than [`crate::pruning::TOLERANCE`]. Handles are generation-stamped:
/// using one after its removal is a checked [`ClusterError::StaleHandle`],
/// and all handle-indexed state stays bounded by the live-window high-water
/// mark.
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
    /// One moment row per slot; a free slot's row is never read.
    pub(crate) rows: MomentArena,
    /// Per-slot cluster label, `None` while the slot is free: the only
    /// record of which slots are live. Indexed by slot, so it tops out at
    /// the live-window high-water mark.
    pub(crate) labels: Vec<Option<usize>>,
    /// Per-slot generation: the occupant's while live, the next occupant's
    /// while free (bumped, wrapping, when the slot is freed).
    pub(crate) gens: Vec<u32>,
    /// Freed slots, popped last-in-first-out by the next insertion.
    pub(crate) free: Vec<u32>,
    /// The clusters' statistics, in the pricing table that folds them, and
    /// all relocation-pruning state. Placement in [`Self::insert`] always
    /// scans every cluster.
    pub(crate) pruner: Pruner,
}

impl IncrementalUcpc {
    /// Creates an empty incremental clustering over `m` dimensions with `k`
    /// clusters.
    pub fn new(m: usize, k: usize) -> Result<Self, ClusterError> {
        if k == 0 {
            return Err(ClusterError::InvalidK { k, n: 0 });
        }
        Ok(Self {
            m,
            k,
            rows: MomentArena::from_moments([]),
            labels: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            pruner: Pruner::new(vec![ClusterStats::empty(m); k], PruningConfig::default()),
        })
    }

    /// Bulk-loads `arena`'s rows, moved in without a copy, as slots
    /// `0..n`, each live at generation 0 and partitioned by `labels` (one
    /// per row, in `0..k`). Each cluster folds its rows with the plain
    /// `add_view` in row order; nothing is logged or charged.
    ///
    /// `k == 0` is [`ClusterError::InvalidK`]; a bad partition is
    /// [`ClusterError::LabelLengthMismatch`] or
    /// [`ClusterError::LabelOutOfRange`]; a row with a non-finite moment or
    /// scalar is [`ClusterError::NonFinite`], as at
    /// [`Self::insert_moments`].
    pub fn from_arena(
        arena: MomentArena,
        k: usize,
        labels: &[usize],
    ) -> Result<Self, ClusterError> {
        let (n, m) = (arena.len(), arena.dims());
        let mut engine = Self {
            rows: arena,
            labels: vec![None; n],
            gens: vec![0; n],
            // `new` refuses only `k == 0`; report it against the rows.
            ..Self::new(m, k).map_err(|_| ClusterError::InvalidK { k, n })?
        };
        engine.relabel(labels)?;
        Ok(engine)
    }

    /// Re-partitions the rows of a [`Self::from_arena`] engine (every slot
    /// live, the free list empty) into the engine `from_arena` would
    /// build, with its checks, keeping the rows and the prune cache's
    /// buffers. The statistics are refolded through the pruner's one
    /// wholesale refold, which retires it ([`Pruner::retire`]), and its
    /// counters restart from zero. An error leaves the statistics partly
    /// folded, for the caller to discard.
    pub(crate) fn relabel(&mut self, labels: &[usize]) -> Result<(), ClusterError> {
        validate_labels(labels, self.labels.len(), self.k)?;
        self.pruner.reset_counters();
        let (m, rows, slots) = (self.m, &self.rows, &mut self.labels);
        let norms_finite = self.pruner.refold(|stats| {
            stats.fill(ClusterStats::empty(m));
            let mut norms_finite = true;
            for (i, (slot, &c)) in slots.iter_mut().zip(labels).enumerate() {
                let v = rows.view(i);
                stats[c].add_view(&v);
                norms_finite &= v.norm_mu.is_finite();
                *slot = Some(c);
            }
            norms_finite
        });
        // `MomentView::is_finite` reads a row's four sums only, and the
        // other three reach the cluster totals (`sum_var` into `Ψ_tot`,
        // `sum_mu2` into `Φ_tot`, `sum_mu_sq` into `S₂`), so this refuses
        // each row it refuses (and sums that overflow) in O(k·m) without a
        // second read of the rows.
        if !norms_finite || !self.cluster_stats().iter().all(ClusterStats::is_finite) {
            return Err(ClusterError::NonFinite);
        }
        Ok(())
    }

    /// Alias of [`Self::new`]: [`StreamBackend::Slab`] is the only store.
    pub fn with_backend(m: usize, k: usize, _backend: StreamBackend) -> Result<Self, ClusterError> {
        Self::new(m, k)
    }

    /// Enables or disables candidate pruning for subsequent
    /// [`Self::stabilize`] calls. The pruner retires ([`Pruner::retire`]):
    /// outstanding cached bounds are discarded, and the next pruned pass
    /// charges nothing.
    pub fn set_pruning(&mut self, pruning: PruningConfig) {
        self.pruner.set_config(pruning);
    }

    /// The per-cluster sufficient statistics of the live partition (the
    /// aggregates the consistency tests cross-check against a from-scratch
    /// rebuild).
    pub fn cluster_stats(&self) -> &[ClusterStats] {
        self.pruner.stats()
    }

    /// Candidate-pruning counters accumulated over all pruned stabilization
    /// passes (placement scans count nothing).
    pub fn pruning_counters(&self) -> PruneCounters {
        self.pruner.counters()
    }

    /// The engine's relocation-pruning state: its configuration, cache,
    /// drift watermarks and counters.
    pub fn pruner(&self) -> &Pruner {
        &self.pruner
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.labels.len() - self.free.len()
    }

    /// Whether no objects are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Current total objective `Σ_C J(C)`.
    pub fn objective(&self) -> f64 {
        total_objective(self.cluster_stats())
    }

    /// Current cluster of a live object; `None` if the handle is stale.
    pub fn label_of(&self, h: ObjectHandle) -> Option<usize> {
        match self.gens.get(h.slot()) {
            Some(&gen) if gen == h.generation() => self.labels[h.slot()],
            _ => None,
        }
    }

    /// Cluster sizes.
    pub fn sizes(&self) -> Vec<usize> {
        self.cluster_stats()
            .iter()
            .map(ClusterStats::size)
            .collect()
    }

    /// Inserts an object into the cluster that minimizes the objective
    /// increase (O(k·m) by Corollary 1) and returns its generation-stamped
    /// handle. The placement scan prices all `k` clusters with one
    /// `price_block` over their own `mean_sum` rows through the pruner's
    /// [`crate::pruning::PricingTable`], whatever the pruning setting
    /// (pruning governs relocation passes only), and picks what the
    /// reference [`crate::pruning::best_insertion`] would.
    pub fn insert(&mut self, object: &UncertainObject) -> Result<ObjectHandle, ClusterError> {
        self.insert_moments(object.moments())
    }

    /// [`Self::insert`] for an arrival already reduced to its moments — the
    /// pdf-free admission path (serving layers hold moments, not pdfs).
    /// Identical placement, mutation sequence and handle issue as
    /// `insert(&object)` for `object.moments() == mo`. An arrival with a
    /// non-finite moment or precomputed scalar is
    /// [`ClusterError::NonFinite`] and changes nothing.
    pub fn insert_moments(&mut self, mo: &Moments) -> Result<ObjectHandle, ClusterError> {
        self.insert_logged(mo).map(|(h, _)| h)
    }

    /// [`Self::insert_moments`], also returning the `Insert` it applied:
    /// what a replicating caller ships.
    pub(crate) fn insert_logged(
        &mut self,
        mo: &Moments,
    ) -> Result<(ObjectHandle, LogOp), ClusterError> {
        if mo.dims() != self.m {
            return Err(ClusterError::DimensionMismatch {
                expected: self.m,
                found: mo.dims(),
                index: self.labels.len(),
            });
        }
        let v = mo.view();
        if !v.is_finite() {
            return Err(ClusterError::NonFinite);
        }
        // Invariant: `new` refuses `k == 0`, so there is a cluster to pick.
        let (cluster, _delta) = self.pruner.placement(&v).expect("k >= 1 clusters");
        let h = self.next_handle();
        let op = LogOp::Insert {
            slot: h.slot() as u32,
            cluster,
        };
        // Invariant: the next slot, an existing cluster, a finite row.
        self.apply_round(&[LogEntry {
            op,
            mu: mo.mu(),
            mu2: mo.mu2(),
        }])
        .expect("a priced, finite arrival applies");
        Ok((h, op))
    }

    /// Every cluster's placement delta for `v`, `delta_j_add(v)` in cluster
    /// order, priced through the pruner's table against the statistics as
    /// they stand: what the placement scan folds, and what the serving
    /// flush answers from.
    pub(crate) fn placement_deltas(&mut self, v: &MomentView<'_>) -> &[f64] {
        self.pruner.price(v)
    }

    /// The slot the next insertion takes: the most recently freed one,
    /// else a fresh slot past the last.
    fn next_slot(&self) -> usize {
        self.free.last().map_or(self.labels.len(), |&s| s as usize)
    }

    /// The handle the next insertion receives: [`Self::next_slot`] under
    /// that slot's current generation, 0 for a fresh slot.
    pub(crate) fn next_handle(&self) -> ObjectHandle {
        let s = self.next_slot();
        // Invariant: slots stay below 2³² — every slot holds a row of at
        // least 32 bytes, so 2³² of them would take 128 GiB. Past that the
        // cast wraps, and `apply_round`, which compares slots unwrapped,
        // refuses the insert rather than alias a live slot.
        ObjectHandle::new(s as u32, self.gens.get(s).copied().unwrap_or(0))
    }

    /// Removes a live object in O(m). A stale handle — already removed, or
    /// its slot recycled to a later arrival — returns
    /// [`ClusterError::StaleHandle`] and changes nothing.
    pub fn remove(&mut self, h: ObjectHandle) -> Result<(), ClusterError> {
        self.remove_logged(h).map(drop)
    }

    /// [`Self::remove`], also returning the `Remove` it applied: what a
    /// replicating caller ships.
    pub(crate) fn remove_logged(&mut self, h: ObjectHandle) -> Result<LogOp, ClusterError> {
        let cluster = self.label_of(h).ok_or(ClusterError::StaleHandle {
            slot: h.slot() as u32,
            generation: h.generation(),
        })?;
        let op = LogOp::Remove {
            slot: h.slot() as u32,
            cluster,
        };
        // Invariant: the handle is live and `cluster` is its label.
        self.apply_round(&[LogEntry::bare(op)])
            .expect("removing a live object applies");
        Ok(op)
    }

    /// Applies one logged round — the engine's only mutation path, shared
    /// by [`Self::insert`], [`Self::remove`], [`Self::stabilize`], the
    /// serving flush, [`crate::wal::recover`] and every sharded replica.
    ///
    /// Each entry is checked before it applies: its clusters exist and a
    /// drained one is not empty; an `Insert` names the slot the engine
    /// allocates next and carries a finite `m`-dimensional row; a `Remove`
    /// or `Move` names a live slot labelled with the cluster it leaves (its
    /// row is read from the engine's rows). Every entry folds through the
    /// [`Pruner`] with the plain O(m) update, charged to the drift bounds
    /// by the next pruned pass (module docs). The first
    /// failing entry stops the fold with the reason; a refused entry
    /// changes nothing (a refused `Insert` leaves its slot free), but the
    /// entries before it stay applied, for a replaying caller to discard.
    pub fn apply_round<R: AsRef<[f64]>>(
        &mut self,
        entries: &[LogEntry<R>],
    ) -> Result<(), &'static str> {
        for e in entries {
            let (drained, joined) = e.op.check(self.cluster_stats())?;
            let (LogOp::Insert { slot, .. }
            | LogOp::Remove { slot, .. }
            | LogOp::Move { slot, .. }) = e.op;
            let s = slot as usize;
            match (drained, joined) {
                (Some(c), _) if self.labels.get(s) != Some(&Some(c)) => {
                    return Err("round names a free slot or the wrong cluster")
                }
                (Some(src), Some(dst)) => self.relocate(s, src, dst),
                (Some(c), None) => {
                    let v = self.rows.view(s);
                    self.pruner.remove(c, &v);
                    // A departure frees its slot under the next generation.
                    self.labels[s] = None;
                    self.gens[s] = self.gens[s].wrapping_add(1);
                    self.free.push(slot);
                }
                (None, Some(c)) => {
                    if s != self.next_slot() {
                        return Err("round inserts at a slot the engine would not allocate");
                    }
                    let (mu, mu2) = e.row(self.m)?;
                    // The one canonical fold derives the scalar
                    // aggregates, live and at replay alike.
                    let fill = |j: usize| (mu[j], mu2[j]);
                    let recycled = s < self.labels.len();
                    if recycled {
                        self.rows.overwrite_row_with(s, self.m, fill);
                    } else {
                        self.rows.push_row_with(self.m, fill);
                    }
                    // A folded row's sums are finite iff every entry is
                    // (`MomentView::is_finite`).
                    let v = self.rows.view(s);
                    if !v.is_finite() {
                        // The slot stays free: a recycled row is not read
                        // before its next write, and an appended one goes.
                        self.rows.truncate(self.labels.len());
                        return Err("round carries a non-finite row");
                    }
                    self.pruner.add(c, &v);
                    if recycled {
                        self.free.pop();
                        self.labels[s] = Some(c);
                    } else {
                        self.labels.push(Some(c));
                        self.gens.push(0);
                    }
                }
                (None, None) => {}
            }
        }
        Ok(())
    }

    /// Relocates the object in live slot `s` from `src` to `dst`, both
    /// existing clusters with `src` its label: the unchecked body of a
    /// `Move` entry, which a relocation pass applies directly. The move
    /// goes through [`Pruner::relocate`], which folds both clusters, marks
    /// them changed and invalidates the slot's cached bound.
    fn relocate(&mut self, s: usize, src: usize, dst: usize) {
        let v = self.rows.view(s);
        self.pruner.relocate(s, src, dst, &v);
        self.labels[s] = Some(dst);
    }

    /// Runs up to `passes` relocation passes of Algorithm 1 over the live
    /// objects; returns the number of relocations applied. Each object's
    /// move is decided by [`Pruner::best_move`] — with pruning enabled through the
    /// exact tier-1/tier-2 shortcuts of [`crate::pruning`] — and applies iff
    /// it lowers `J` by more than [`crate::pruning::TOLERANCE`]; the
    /// relocation sequence is identical either way.
    pub fn stabilize(&mut self, passes: usize) -> usize {
        self.stabilize_with(passes, |_| {})
    }

    /// [`Self::stabilize`], handing every move to `each` after applying it
    /// with the body of [`Self::apply_round`]'s `Move` arm — the serving
    /// layer logs a pass's moves as one round this way. Every pass opens
    /// with [`Pruner::begin_pass`].
    pub(crate) fn stabilize_with(&mut self, passes: usize, mut each: impl FnMut(LogOp)) -> usize {
        let mut relocations = 0usize;
        for _ in 0..passes {
            let mut moved = false;
            self.pruner.begin_pass(self.labels.len());
            for i in 0..self.labels.len() {
                let Some(src) = self.labels[i] else { continue };
                if self.cluster_stats()[src].size() == 1 {
                    continue;
                }
                // Borrowed straight out of the arena: no per-object clone
                // of the moments is ever needed.
                let v = self.rows.view(i);
                let gen = self.gens[i];
                let Some((dst, _)) = self.pruner.best_move(i, gen, src, &v) else {
                    continue;
                };
                // `i` is live in `src`, and the scan picks an existing
                // cluster: nothing for `apply_round` to check.
                self.relocate(i, src, dst);
                each(LogOp::Move {
                    slot: i as u32,
                    src,
                    dst,
                });
                relocations += 1;
                moved = true;
            }
            if !moved {
                break;
            }
        }
        relocations
    }

    /// Copies the statistics a relocation pass mutates into `undo`, for
    /// [`Self::undo_pass`] (which restores labels from the pass's moves and
    /// retires the pruner). The copy reuses `undo`'s buffers, so it
    /// allocates nothing once `undo` has held a copy of this engine.
    pub(crate) fn save_pass_into(&self, undo: &mut PassUndo) {
        self.cluster_stats().clone_into(&mut undo.stats);
    }

    /// Rolls back the pass that made `moves` since [`Self::save_pass_into`]
    /// filled `undo`: swaps the statistics back in with one wholesale
    /// refold of the pruner, which retires ([`Pruner::retire`]) since its
    /// entries and watermarks were written against statistics that are
    /// gone, and restores the labels. `undo` is left holding the abandoned
    /// pass's statistics.
    pub(crate) fn undo_pass(&mut self, undo: &mut PassUndo, moves: &[LogEntry<&[f64]>]) {
        self.pruner
            .refold(|stats| stats.swap_with_slice(&mut undo.stats));
        for e in moves.iter().rev() {
            if let LogOp::Move { slot, src, .. } = e.op {
                self.labels[slot as usize] = Some(src);
            }
        }
    }

    /// Current handles and labels of all live objects, in slot order.
    pub fn live_labels(&self) -> Vec<(ObjectHandle, usize)> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(slot, l)| l.map(|c| (ObjectHandle::new(slot as u32, self.gens[slot]), c)))
            .collect()
    }
}

/// The statistics before a relocation pass, saved so that a pass whose
/// round cannot be logged can be undone.
#[derive(Debug, Default)]
pub(crate) struct PassUndo {
    stats: Vec<ClusterStats>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::RefStream;
    use ucpc_uncertain::UnivariatePdf;

    fn obj(c: f64) -> UncertainObject {
        UncertainObject::new(vec![UnivariatePdf::normal(c, 0.2)])
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
        let mut inc = IncrementalUcpc::new(1, 2).unwrap();
        let mut reference = RefStream::new(1, 2);
        let mut ids = Vec::new();
        for c in [0.0, 0.2, 0.4, 9.0, 9.2, 9.4, 0.1, 9.1] {
            ids.push(inc.insert(&obj(c)).unwrap());
            reference.insert(&obj(c)).unwrap();
        }
        assert_eq!(inc.stabilize(10), reference.stabilize(10));
        assert_eq!(inc.live_labels(), reference.live_labels());
        let l = |i: usize| inc.label_of(ids[i]).unwrap();
        assert_eq!(l(0), l(1));
        assert_eq!(l(0), l(2));
        assert_eq!(l(0), l(6));
        assert_eq!(l(3), l(4));
        assert_eq!(l(3), l(7));
        assert_ne!(l(0), l(3));
    }

    #[test]
    fn removal_is_exact() {
        let mut inc = IncrementalUcpc::new(1, 2).unwrap();
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

    #[test]
    fn stale_handles_cannot_alias_recycled_slots() {
        let mut inc = IncrementalUcpc::new(1, 2).unwrap();
        let a = inc.insert(&obj(0.0)).unwrap();
        let b = inc.insert(&obj(9.0)).unwrap();
        inc.remove(a).unwrap();
        // The next arrival recycles a's slot under a newer generation.
        let c = inc.insert(&obj(0.5)).unwrap();
        assert_eq!(c.slot(), a.slot(), "slot must be recycled");
        assert_ne!(c, a);
        assert_eq!(inc.label_of(a), None, "stale handle has no label");
        assert!(
            matches!(inc.remove(a), Err(ClusterError::StaleHandle { .. })),
            "stale remove must not evict the new occupant"
        );
        assert_eq!(inc.len(), 2);
        assert!(inc.label_of(b).is_some());
        assert!(inc.label_of(c).is_some());
    }

    #[test]
    fn freed_slots_are_recycled_lifo() {
        let mut inc = IncrementalUcpc::new(1, 2).unwrap();
        let handles: Vec<ObjectHandle> = (0..4)
            .map(|i| inc.insert(&obj(i as f64)).unwrap())
            .collect();
        let issued: Vec<_> = handles.iter().map(|h| (h.slot(), h.generation())).collect();
        assert_eq!(issued, [(0, 0), (1, 0), (2, 0), (3, 0)]);
        inc.remove(handles[1]).unwrap();
        inc.remove(handles[3]).unwrap();
        assert_eq!((inc.len(), inc.free.len()), (2, 2));
        // Last freed, first reused, under the next generation; nothing is
        // appended while a slot is free.
        let r3 = inc.insert(&obj(10.0)).unwrap();
        let r1 = inc.insert(&obj(11.0)).unwrap();
        assert_eq!((r3.slot(), r3.generation()), (3, 1));
        assert_eq!((r1.slot(), r1.generation()), (1, 1));
        assert_eq!(inc.rows.len(), 4);
        let appended = inc.insert(&obj(12.0)).unwrap();
        assert_eq!((appended.slot(), appended.generation()), (4, 0));
        // A recycled row holds its new occupant's bits, every derived
        // column included.
        let fresh = obj(11.0);
        let (v, mo) = (inc.rows.view(1), fresh.moments());
        assert_eq!((v.mu, v.mu2), (mo.mu(), mo.mu2()));
        assert_eq!(v.variances().collect::<Vec<_>>(), mo.variance());
        let bits = |x: [f64; 4]| x.map(f64::to_bits);
        assert_eq!(
            bits([v.sum_mu_sq, v.sum_mu2, v.sum_var, v.norm_mu]),
            bits([
                mo.sum_mu_sq(),
                mo.sum_mu2(),
                mo.total_variance(),
                mo.norm_mu()
            ])
        );
    }

    /// Asserts that slot `slot` serves `o`'s moments, every derived column
    /// bit for bit.
    fn assert_row_holds(inc: &IncrementalUcpc, slot: usize, o: &UncertainObject) {
        let (v, mo) = (inc.rows.view(slot), o.moments());
        let bits = |x: &[f64]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(v.mu), bits(mo.mu()));
        assert_eq!(bits(v.mu2), bits(mo.mu2()));
        assert_eq!(
            bits(&v.variances().collect::<Vec<_>>()),
            bits(mo.variance())
        );
        assert_eq!(
            bits(&[v.sum_mu_sq, v.sum_mu2, v.sum_var, v.norm_mu]),
            bits(&[
                mo.sum_mu_sq(),
                mo.sum_mu2(),
                mo.total_variance(),
                mo.norm_mu()
            ])
        );
    }

    #[test]
    fn generation_wraps_without_aliasing() {
        let mut inc = IncrementalUcpc::new(1, 2).unwrap();
        inc.insert(&obj(0.0)).unwrap();
        // Slot 0's occupant sits at the last generation before the wrap.
        inc.gens[0] = u32::MAX;
        let held = ObjectHandle::new(0, u32::MAX);
        assert_eq!(inc.label_of(held), Some(0));
        inc.remove(held).unwrap();
        assert_eq!(inc.gens[0], 0, "the generation wraps to 0");
        let o = obj(2.0);
        let next = inc.insert(&o).unwrap();
        assert_eq!((next.slot(), next.generation()), (0, 0));
        assert_eq!(inc.label_of(held), None);
        assert_eq!(
            inc.remove(held),
            Err(ClusterError::StaleHandle {
                slot: 0,
                generation: u32::MAX
            })
        );
        assert!(inc.label_of(next).is_some());
        assert_row_holds(&inc, 0, &o);
    }

    #[test]
    fn generation_wraparound_keeps_recycling_without_aliasing() {
        let mut inc = IncrementalUcpc::new(1, 2).unwrap();
        inc.insert(&obj(0.0)).unwrap();
        let neighbour = inc.insert(&obj(9.0)).unwrap();
        // Slot 0's occupant sits at the last generation before the wrap.
        inc.gens[0] = u32::MAX;
        let pre_wrap = ObjectHandle::new(0, u32::MAX);
        assert_eq!(inc.label_of(pre_wrap), Some(0));
        inc.remove(pre_wrap).unwrap();
        let mut previous = pre_wrap;
        for round in 0..20u32 {
            let o = obj(0.5 + round as f64);
            let h = inc.insert(&o).unwrap();
            assert_eq!((h.slot(), h.generation()), (0, round), "counts up from 0");
            for stale in [pre_wrap, previous] {
                assert_eq!(inc.label_of(stale), None);
                assert_eq!(
                    inc.remove(stale),
                    Err(ClusterError::StaleHandle {
                        slot: 0,
                        generation: stale.generation()
                    })
                );
            }
            assert_row_holds(&inc, 0, &o);
            inc.remove(h).unwrap();
            previous = h;
        }
        assert_eq!(inc.live_labels(), [(neighbour, 1)]);
    }

    #[test]
    fn a_refused_insert_leaves_the_slot_state_untouched() {
        // The refused insert targets a fresh slot, then a recycled one, and
        // carries a non-finite entry or one whose square overflows.
        for (recycle, x) in [
            (false, f64::INFINITY),
            (true, f64::INFINITY),
            (false, 1e200),
        ] {
            let mut inc = IncrementalUcpc::new(1, 2).unwrap();
            let mut fresh = IncrementalUcpc::new(1, 2).unwrap();
            let a = inc.insert(&obj(0.0)).unwrap();
            fresh.insert(&obj(0.0)).unwrap();
            if recycle {
                for engine in [&mut inc, &mut fresh] {
                    let b = engine.insert(&obj(9.0)).unwrap();
                    engine.remove(b).unwrap();
                }
            }
            let before = (inc.len(), inc.next_handle(), inc.snapshot());
            let op = LogOp::Insert {
                slot: before.1.slot() as u32,
                cluster: 0,
            };
            let bad = LogEntry {
                op,
                mu: vec![x],
                mu2: vec![0.5],
            };
            assert_eq!(
                inc.apply_round(&[bad]),
                Err("round carries a non-finite row")
            );
            let after = (inc.len(), inc.next_handle(), inc.snapshot());
            assert!(
                after == before,
                "{recycle} {x}: the refusal changed the engine"
            );
            // The engine goes on exactly like one that never saw it.
            let h = inc.insert(&obj(5.0)).unwrap();
            assert_eq!(fresh.insert(&obj(5.0)), Ok(h), "{recycle} {x}");
            inc.remove(a).unwrap();
            fresh.remove(a).unwrap();
            assert_eq!(inc.live_labels(), fresh.live_labels());
            assert_eq!(inc.cluster_stats(), fresh.cluster_stats());
            assert_eq!(inc.rows.len(), fresh.rows.len());
            assert_eq!(inc.snapshot(), fresh.snapshot(), "{recycle} {x}");
        }
    }

    #[test]
    fn backends_issue_identical_handle_sequences() {
        // The engine and the per-object reference model recycle slots
        // through the same LIFO discipline, so they issue the same handles.
        // `(true, x)` inserts an object at `x`; `(false, i)` removes the
        // i-th live handle. Two removals in a row leave two free slots, so
        // the reuse order shows.
        let script: &[(bool, f64)] = &[
            (true, 0.0),
            (true, 9.0),
            (true, 0.2),
            (false, 1.0),
            (false, 0.0),
            (true, 9.2),
            (true, 0.4),
            (true, 9.4),
        ];
        let mut inc = IncrementalUcpc::new(1, 2).unwrap();
        let mut reference = RefStream::new(1, 2);
        let mut live: Vec<ObjectHandle> = Vec::new();
        for &(is_insert, x) in script {
            if is_insert {
                let h = inc.insert(&obj(x)).unwrap();
                assert_eq!(reference.insert(&obj(x)), Ok(h), "handle diverged");
                live.push(h);
            } else {
                let victim = live.remove(x as usize);
                inc.remove(victim).unwrap();
                reference.remove(victim).unwrap();
            }
        }
        assert_eq!(inc.live_labels(), reference.live_labels());
        assert_eq!(inc.cluster_stats(), reference.cluster_stats());
    }

    #[test]
    fn an_undone_pass_restores_the_engine_and_retires_the_prune_cache() {
        let mut inc = IncrementalUcpc::new(1, 2).unwrap();
        inc.set_pruning(PruningConfig::Bounds);
        for c in [0.0, 1.0, 10.0, 11.0, 12.0] {
            inc.insert(&obj(c)).unwrap();
        }
        let before = inc.clone();
        let mut undo = PassUndo::default();
        inc.save_pass_into(&mut undo);
        let mut moves = Vec::new();
        let moved = inc.stabilize_with(3, |op| moves.push(LogEntry::bare(op)));
        assert!(moved > 0 && moves.len() == moved);
        assert!(inc.pruner().cache_entries() > 0, "the pass cached bounds");
        let counted = inc.pruning_counters();
        inc.undo_pass(&mut undo, &moves);
        assert_eq!(inc.live_labels(), before.live_labels());
        assert_eq!(inc.cluster_stats(), before.cluster_stats());
        // The pass cached bounds against statistics that are gone: the
        // pruner retires, so the cache is empty, every watermark is zero
        // and nothing is charged until the next pruned pass.
        assert_eq!(inc.pruner().cache_entries(), 0);
        assert!(inc.pruner().is_fresh());
        assert_eq!(inc.pruning_counters(), counted, "counters survive");
    }

    /// A pruned churn-plus-stabilize script with slot reuse: the labels,
    /// objective bits, prune-counter deltas and drift accumulators it ends
    /// on.
    #[allow(clippy::type_complexity)]
    fn pruned_churn(
        engine: &mut IncrementalUcpc,
    ) -> (
        Vec<(ObjectHandle, usize)>,
        u64,
        [usize; 3],
        Vec<crate::pruning::ClusterDrift>,
    ) {
        assert_eq!(engine.pruner().config(), PruningConfig::Bounds);
        let before = engine.pruning_counters();
        for step in 0..120usize {
            let x = step as f64;
            let c = (step % 3) as f64 * 6.0 + (x * 0.53).sin();
            engine
                .insert(&UncertainObject::new(vec![
                    UnivariatePdf::normal(c, 0.3),
                    UnivariatePdf::normal((x * 0.17).cos() - c, 0.2),
                ]))
                .unwrap();
            let victim = engine.live_labels()[step % 7].0;
            engine.remove(victim).unwrap();
            if step % 20 == 19 {
                engine.stabilize(3);
            }
        }
        let after = engine.pruning_counters();
        let delta = [
            after.skips - before.skips,
            after.confirms - before.confirms,
            after.full_scans - before.full_scans,
        ];
        let drift = engine.pruner().drift().to_vec();
        (
            engine.live_labels(),
            engine.objective().to_bits(),
            delta,
            drift,
        )
    }

    /// `engine` holds a fresh pruner — an empty cache, every drift
    /// accumulator zero — and continues a pruned script exactly like an
    /// engine restored from its snapshot.
    fn assert_retired(mut engine: IncrementalUcpc, what: &str) {
        use crate::pruning::ClusterDrift;
        assert_eq!(engine.pruner().cache_entries(), 0, "{what}");
        let zero = ClusterDrift::default();
        assert!(engine.pruner().drift().iter().all(|&d| d == zero), "{what}");
        assert!(engine.pruner().is_fresh(), "{what}");
        let mut restored = IncrementalUcpc::restore(&engine.snapshot()).unwrap();
        let ran = pruned_churn(&mut engine);
        assert!(ran.2[0] > 0, "{what}: pruning must fire");
        assert_eq!(ran, pruned_churn(&mut restored), "{what}");
    }

    #[test]
    fn every_retire_lands_on_a_fresh_pruner() {
        use crate::serving::{ServingConfig, ServingResponse, ServingUcpc};
        use crate::wal::{VecIo, WAL_HEADER_LEN};
        // A pruned engine with live cache entries and charged churn behind
        // them, so every watermark is non-zero.
        let mut churned = IncrementalUcpc::from_arena(blob_arena(), 3, &partition(90, 7)).unwrap();
        churned.set_pruning(PruningConfig::Bounds);
        churned.stabilize(50);
        pruned_churn(&mut churned);
        assert!(churned.pruner().cache_entries() > 0);
        assert!(!churned.pruner().is_fresh());

        let mut flipped = churned.clone();
        flipped.set_pruning(PruningConfig::Bounds);
        assert_retired(flipped, "set_pruning");

        // `BestOfRestarts` relabels a bulk-loaded engine (every slot live).
        let mut restarted =
            IncrementalUcpc::from_arena(blob_arena(), 3, &partition(90, 7)).unwrap();
        restarted.set_pruning(PruningConfig::Bounds);
        restarted.stabilize(50);
        assert!(restarted.pruner().cache_entries() > 0);
        restarted.relabel(&partition(90, 4)).unwrap();
        assert_eq!(restarted.pruning_counters(), PruneCounters::default());
        assert_retired(restarted, "relabel");

        // A stabilize whose round finds the log full is undone.
        let config = ServingConfig {
            stabilize_every: 0,
            ..ServingConfig::default()
        };
        let mut serving = ServingUcpc::over(churned.clone(), config);
        serving.attach_wal(VecIo::limited(WAL_HEADER_LEN)).unwrap();
        serving.submit_stabilize(3).unwrap();
        serving.flush();
        let (_, response) = serving.pop_response().unwrap();
        assert!(matches!(response, ServingResponse::Failed { .. }));
        assert_retired(serving.engine().clone(), "undone pass");

        assert_retired(
            IncrementalUcpc::restore(&churned.snapshot()).unwrap(),
            "restore",
        );
    }

    /// Three loose 2-d blobs of 90 objects as a moment arena.
    fn blob_arena() -> MomentArena {
        let objs: Vec<UncertainObject> = (0..90)
            .map(|i| {
                let c = (i % 3) as f64 * 6.0 + (i as f64 * 0.37).sin();
                UncertainObject::new(vec![
                    UnivariatePdf::normal(c, 0.3),
                    UnivariatePdf::normal((i as f64 * 0.11).cos() - c, 0.2),
                ])
            })
            .collect();
        MomentArena::from_objects(&objs)
    }

    /// A deterministic partition of `n` rows into 3 clusters that cuts
    /// across the blobs.
    fn partition(n: usize, stride: usize) -> Vec<usize> {
        (0..n).map(|i| (i * stride / 5) % 3).collect()
    }

    #[test]
    fn a_relabelled_engine_matches_a_fresh_bulk_load() {
        let search = crate::Ucpc {
            pruning: PruningConfig::Bounds,
            ..crate::Ucpc::default()
        };
        let mut reused = IncrementalUcpc::from_arena(blob_arena(), 3, &partition(90, 7)).unwrap();
        assert!(search.drive(&mut reused).relocations > 0);
        assert!(
            reused.pruner().cache_entries() > 0,
            "the first search cached bounds"
        );

        let second = partition(90, 4);
        reused.relabel(&second).unwrap();
        let mut fresh = IncrementalUcpc::from_arena(blob_arena(), 3, &second).unwrap();
        fresh.set_pruning(PruningConfig::Bounds);
        // Plain passes, not `drive` (whose `set_pruning` also retires the
        // cache): the relabel alone must hide the first search's state.
        assert_eq!(reused.stabilize(50), fresh.stabilize(50));
        assert_eq!(reused.live_labels(), fresh.live_labels());
        assert_eq!(reused.pruning_counters(), fresh.pruning_counters());
        assert!(fresh.pruning_counters().skips > 0, "pruning must fire");
        assert_eq!(reused.objective().to_bits(), fresh.objective().to_bits());
        assert_eq!(reused.cluster_stats(), fresh.cluster_stats());
        assert_eq!(reused.pruner(), fresh.pruner());
    }

    #[test]
    fn from_arena_refuses_bad_input_with_checked_errors() {
        let rows = || MomentArena::from_objects(&[obj(0.0), obj(1.0), obj(2.0)]);
        let load = |rows, k, labels: &[usize]| IncrementalUcpc::from_arena(rows, k, labels).err();
        assert_eq!(
            load(rows(), 0, &[0, 0, 0]),
            Some(ClusterError::InvalidK { k: 0, n: 3 })
        );
        assert_eq!(
            load(rows(), 2, &[0, 1]),
            Some(ClusterError::LabelLengthMismatch {
                expected: 3,
                found: 2
            })
        );
        assert_eq!(
            load(rows(), 2, &[0, 2, 1]),
            Some(ClusterError::LabelOutOfRange {
                label: 2,
                k: 2,
                index: 1
            })
        );
        for x in [f64::NAN, f64::INFINITY, 1e200] {
            let poisoned = [Moments::of_point(&[0.0]), Moments::of_point(&[x])];
            let rows = MomentArena::from_moments(&poisoned);
            assert_eq!(load(rows, 2, &[0, 1]), Some(ClusterError::NonFinite), "{x}");
        }
    }

    #[test]
    fn a_bulk_loaded_engine_round_trips_through_a_snapshot() {
        let mut loaded = IncrementalUcpc::from_arena(blob_arena(), 3, &partition(90, 7)).unwrap();
        loaded.set_pruning(PruningConfig::Bounds);
        assert!(loaded.stabilize(1) > 0);
        let mut restored = IncrementalUcpc::restore(&loaded.snapshot()).unwrap();
        assert_eq!(restored.snapshot(), loaded.snapshot());
        assert_eq!(restored.stabilize(50), loaded.stabilize(50));
        let o = UncertainObject::new(vec![
            UnivariatePdf::normal(6.0, 0.3),
            UnivariatePdf::normal(-6.0, 0.2),
        ]);
        assert_eq!(restored.insert(&o), loaded.insert(&o));
        assert_eq!(restored.snapshot(), loaded.snapshot());
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
        let mut inc = IncrementalUcpc::new(1, 2).unwrap();
        let mut ids: Vec<ObjectHandle> = (0..6)
            .map(|i| inc.insert(&obj(i as f64)).unwrap())
            .collect();
        for step in 0..40 {
            let victim = ids.remove(0);
            inc.remove(victim).unwrap();
            ids.push(inc.insert(&obj((step % 7) as f64)).unwrap());
        }
        assert_eq!(inc.len(), 6);
        // The slot high-water mark stays at the peak liveness even though
        // 40 handles were churned through — the label map and moment
        // storage are live-window-bounded.
        assert_eq!(inc.slot_rows(), 6, "slots must be recycled, not appended");
        assert_eq!(inc.rows.len(), 6, "rows must be recycled, not appended");
        assert!(ids.iter().all(|&id| inc.label_of(id).is_some()));
    }
}
