//! Slab-style moment storage for streaming workloads: a [`MomentArena`]
//! whose rows are recycled through a free-list, addressed by
//! generation-stamped [`ObjectHandle`]s.
//!
//! # Why a slab
//!
//! The batch pipeline fills a [`MomentArena`] once and never removes a row.
//! A streaming driver ([`IncrementalUcpc`]) continuously inserts arriving
//! objects and removes departed ones; storing each live object as its own
//! heap-allocated [`Moments`] (the pre-slab layout, `Vec<Option<Moments>>`)
//! gives up exactly the contiguity the batch path's kernel depends on —
//! every candidate scan chases three boxed slices per object — and pays
//! three allocator calls per insertion. [`SlabArena`] keeps the flat SoA
//! matrices and recycles rows instead: `remove` pushes the slot onto a
//! free-list, the next `insert` pops it and overwrites the row **in place**
//! ([`MomentArena::overwrite_row`] / [`MomentArena::overwrite_row_with`]),
//! so a steady-state insert-after-remove touches no allocator at all
//! (pinned by `tests/streaming_alloc_free.rs`) and the scan keeps streaming
//! contiguous rows.
//!
//! # Generation-stamped handles
//!
//! Because rows are recycled, a bare row index is ambiguous: after a
//! remove/insert pair the same index names a *different* object, and a
//! retained stale index would silently read the new occupant. Every slot
//! therefore carries a generation counter, bumped on each `remove`, and
//! [`SlabArena::insert`] returns an [`ObjectHandle`] pairing the slot with the
//! generation current at insertion time. A handle is valid exactly while
//! its object is live; any later use fails with a checked [`StaleHandle`]
//! error instead of aliasing the slot's next occupant. The stamp also
//! bounds every handle-indexed side structure at the live-window high-water
//! mark: slots are reused, so label maps and prune caches indexed by slot
//! stop growing once the stream reaches steady state.
//!
//! The generation wraps at `u32::MAX`. A stale handle could only be
//! mistaken for live again after exactly 2³² removals of *its own slot*
//! while the handle is still retained — at a million edits per second
//! against one slot that is over an hour of adversarial churn aimed at a
//! single held handle, and any interleaved edit of another slot resets the
//! clock. The wraparound behaviour itself is well-defined (wrapping
//! arithmetic, exercised by `from_parts`-seeded tests).
//!
//! # Why slot reuse stays bit-identical to fresh append
//!
//! The recycling insert must be indistinguishable from inserting into a
//! never-used slab, or streaming results would depend on the churn history.
//! Three facts make it so:
//!
//! 1. **Rows are written whole.** [`MomentArena::overwrite_row`] copies the
//!    `mu`/`mu2` rows verbatim and re-derives `var` and the scalar
//!    aggregates through the *same* canonical per-dimension fold as the
//!    append path ([`MomentArena::push`]); no bit of the previous occupant
//!    survives. The arena's unit tests pin overwrite-equals-append bitwise.
//! 2. **Freed rows are never read.** `view`/`get` refuse non-live slots, so
//!    the garbage a departed object leaves behind is unobservable; only the
//!    liveness flag and generation change at `remove` time.
//! 3. **The generation stamp lives outside the numeric state.** It gates
//!    *access* but never feeds the kernels, so two slabs holding the same
//!    live rows produce identical kernel views regardless of how many
//!    generations each slot has consumed.
//!
//! Together these give the invariant the incremental driver's consistency
//! suite pins: a slab that reached a live set via arbitrary churn serves
//! the same bits as one that appended exactly that live set fresh
//! (`tests/incremental_consistency.rs`, `tests/slab_handles.rs`).
//!
//! [`IncrementalUcpc`]: ../../ucpc_core/incremental/struct.IncrementalUcpc.html

use crate::arena::{MomentArena, MomentView};
use crate::moments::Moments;

/// A generation-stamped handle to one object stored in a [`SlabArena`].
///
/// `slot` is the storage row; `gen` is the slot's generation counter at
/// insertion time. The handle is valid exactly while the object it named
/// is live; after `remove` the slot's generation is bumped, so the stale
/// handle can never alias the slot's next occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectHandle {
    slot: u32,
    gen: u32,
}

impl ObjectHandle {
    /// Assembles a handle from raw parts (snapshot restore, tests). A
    /// fabricated handle is safe: every slab access checks it and returns
    /// [`StaleHandle`] unless it names the slot's current live occupant.
    pub fn new(slot: u32, gen: u32) -> Self {
        Self { slot, gen }
    }

    /// The storage slot (row index while live).
    pub fn slot(self) -> usize {
        self.slot as usize
    }

    /// The slot generation this handle was issued under.
    pub fn generation(self) -> u32 {
        self.gen
    }
}

/// Checked error for using an [`ObjectHandle`] whose object is gone (or
/// never existed): the slot is out of range, free, or occupied by a later
/// generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleHandle(pub ObjectHandle);

impl std::fmt::Display for StaleHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stale handle: slot {} generation {} is not live",
            self.0.slot, self.0.gen
        )
    }
}

impl std::error::Error for StaleHandle {}

/// A [`MomentArena`] with free-list row reuse: O(1) `insert` (recycling a
/// freed row in place when one exists, appending otherwise) and O(1)
/// `remove`, with live rows served as contiguous kernel views and every
/// access checked against the handle's generation stamp.
///
/// ```
/// use ucpc_uncertain::{Moments, SlabArena};
///
/// let mut slab = SlabArena::new();
/// let a = slab.insert(&Moments::of_point(&[1.0, 2.0]));
/// let b = slab.insert(&Moments::of_point(&[3.0, 4.0]));
/// assert_eq!(slab.len(), 2);
///
/// slab.remove(a).unwrap();
/// // The freed row is recycled in place under a fresh generation: no new
/// // row is appended, and the stale handle is rejected, not aliased.
/// let c = slab.insert(&Moments::of_point(&[5.0, 6.0]));
/// assert_eq!(c.slot(), a.slot());
/// assert_ne!(c, a);
/// assert!(slab.get(a).is_err());
/// assert_eq!(slab.rows(), 2);
/// assert_eq!(slab.get(c).unwrap().mu, &[5.0, 6.0]);
/// assert_eq!(slab.get(b).unwrap().mu, &[3.0, 4.0]);
/// ```
#[derive(Debug, Clone)]
pub struct SlabArena {
    arena: MomentArena,
    /// Slots of freed rows, popped LIFO by [`Self::insert`].
    free: Vec<u32>,
    /// Liveness flag per row — guards against double-free and views of
    /// freed rows, which would otherwise silently corrupt a clustering.
    occupied: Vec<bool>,
    /// Per-slot generation counter: the generation of the current occupant
    /// while the slot is live, and of the *next* occupant while it is free
    /// (bumped at `remove` time, wrapping).
    gens: Vec<u32>,
}

impl SlabArena {
    /// An empty slab; the dimensionality is pinned by the first insertion.
    pub fn new() -> Self {
        Self {
            arena: MomentArena::from_moments([]),
            free: Vec::new(),
            occupied: Vec::new(),
            gens: Vec::new(),
        }
    }

    /// An empty slab with `rows` rows of `m` dimensions pre-reserved, so
    /// the first `rows` insertions perform no column reallocation.
    pub fn with_capacity(rows: usize, m: usize) -> Self {
        let mut slab = Self::new();
        slab.reserve_rows(rows, m);
        slab
    }

    /// Reassembles a slab from its raw parts — the snapshot-restore
    /// constructor (and the test hook for seeding generations near
    /// wraparound). All per-row vectors must match the arena's row count,
    /// and `free` must list exactly the non-occupied slots.
    pub fn from_parts(
        arena: MomentArena,
        occupied: Vec<bool>,
        free: Vec<u32>,
        gens: Vec<u32>,
    ) -> Self {
        let rows = arena.len();
        assert_eq!(occupied.len(), rows, "occupied flags must cover every row");
        assert_eq!(gens.len(), rows, "generations must cover every row");
        let live = occupied.iter().filter(|&&o| o).count();
        assert_eq!(
            free.len(),
            rows - live,
            "free list must cover every freed row"
        );
        debug_assert!(free
            .iter()
            .all(|&s| (s as usize) < rows && !occupied[s as usize]));
        Self {
            arena,
            free,
            occupied,
            gens,
        }
    }

    /// Reserves space for `additional` more rows of `dims` dimensions —
    /// appended rows (moment columns, liveness flags, generation counters)
    /// *and* the free-list slots their later removal would need, so any
    /// insert/remove interleaving staying within the reservation triggers
    /// no reallocation anywhere in the slab.
    pub fn reserve_rows(&mut self, additional: usize, dims: usize) {
        self.arena.reserve_rows(additional, dims);
        self.occupied.reserve(additional);
        self.gens.reserve(additional);
        // Worst case every currently-live row and the whole reservation
        // are freed at once; free-list slots are one word each, so
        // reserve for that outright.
        self.free.reserve(self.len() + additional);
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.arena.len() - self.free.len()
    }

    /// Whether no live rows exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total rows backing the slab, live and freed: the high-water mark of
    /// concurrent liveness, and the bound on valid slots.
    pub fn rows(&self) -> usize {
        self.arena.len()
    }

    /// Number of freed rows awaiting reuse.
    pub fn free_rows(&self) -> usize {
        self.free.len()
    }

    /// The freed slots awaiting reuse, in push order (popped LIFO). Exposed
    /// for snapshotting: the order is part of the slab's logical state,
    /// since it decides which slot the next insertion lands on.
    pub fn free_slots(&self) -> &[u32] {
        &self.free
    }

    /// Number of dimensions `m` (0 until the first insertion).
    pub fn dims(&self) -> usize {
        self.arena.dims()
    }

    /// Whether slot `i` currently holds a live object.
    pub fn is_live(&self, i: usize) -> bool {
        self.occupied.get(i).copied().unwrap_or(false)
    }

    /// The generation counter of slot `i`: the current occupant's
    /// generation while live, the next occupant's while free.
    pub fn generation(&self, i: usize) -> u32 {
        self.gens[i]
    }

    /// Whether `h` names a live object (right slot, right generation).
    pub fn contains(&self, h: ObjectHandle) -> bool {
        self.is_live(h.slot()) && self.gens[h.slot()] == h.gen
    }

    fn stamp(&mut self, slot: usize) -> ObjectHandle {
        self.occupied[slot] = true;
        ObjectHandle {
            slot: u32::try_from(slot).expect("slab slot space exhausted (u32)"),
            gen: self.gens[slot],
        }
    }

    /// Inserts one object's moments, recycling a freed row in place when
    /// one exists (zero allocator calls) and appending a new row otherwise.
    /// Returns the object's generation-stamped handle.
    pub fn insert(&mut self, mo: &Moments) -> ObjectHandle {
        match self.free.pop() {
            Some(slot) => {
                let slot = slot as usize;
                self.arena.overwrite_row(slot, mo);
                self.stamp(slot)
            }
            None => {
                self.arena.push(mo);
                self.occupied.push(false);
                self.gens.push(0);
                self.stamp(self.arena.len() - 1)
            }
        }
    }

    /// Inserts one object from a `(mu_j, (mu_2)_j)` fill closure — the
    /// moments-free write path ([`MomentArena::push_row_with`] /
    /// [`MomentArena::overwrite_row_with`]): the variance and scalar
    /// aggregates are derived in the canonical fold order, so the row is
    /// bit-identical to inserting the equivalent [`Moments`]. Returns the
    /// object's handle.
    pub fn insert_with(
        &mut self,
        dims: usize,
        fill: impl FnMut(usize) -> (f64, f64),
    ) -> ObjectHandle {
        match self.free.pop() {
            Some(slot) => {
                let slot = slot as usize;
                self.arena.overwrite_row_with(slot, dims, fill);
                self.stamp(slot)
            }
            None => {
                self.arena.push_row_with(dims, fill);
                self.occupied.push(false);
                self.gens.push(0);
                self.stamp(self.arena.len() - 1)
            }
        }
    }

    /// Frees the object behind `h` for reuse, bumping the slot's
    /// generation so `h` (and any copy of it) is permanently stale. The
    /// row's contents stay untouched until the next recycling insertion
    /// overwrites them. A handle that is already stale — double remove,
    /// slot since recycled — yields a checked [`StaleHandle`] error and
    /// changes nothing.
    pub fn remove(&mut self, h: ObjectHandle) -> Result<(), StaleHandle> {
        if !self.contains(h) {
            return Err(StaleHandle(h));
        }
        let slot = h.slot();
        self.occupied[slot] = false;
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(h.slot);
        Ok(())
    }

    /// The kernel view behind a live handle, or [`StaleHandle`] if the
    /// object is gone.
    pub fn get(&self, h: ObjectHandle) -> Result<MomentView<'_>, StaleHandle> {
        if !self.contains(h) {
            return Err(StaleHandle(h));
        }
        Ok(self.arena.view(h.slot()))
    }

    /// The kernel view of live slot `i` (see [`MomentArena::view`]) — the
    /// unstamped row access for iteration loops that already checked
    /// liveness. Panics on a freed slot.
    pub fn view(&self, i: usize) -> MomentView<'_> {
        assert!(self.is_live(i), "view of non-live slab row {i}");
        self.arena.view(i)
    }
}

impl Default for SlabArena {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mo(x: f64) -> Moments {
        Moments::from_mu_mu2(vec![x, -x], vec![x * x + 0.5, x * x + 1.0])
    }

    #[test]
    fn freed_rows_are_recycled_lifo() {
        let mut slab = SlabArena::new();
        let handles: Vec<ObjectHandle> = (0..4).map(|i| slab.insert(&mo(i as f64))).collect();
        assert_eq!(
            handles.iter().map(|h| h.slot()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert!(handles.iter().all(|h| h.generation() == 0));
        slab.remove(handles[1]).unwrap();
        slab.remove(handles[3]).unwrap();
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.free_rows(), 2);
        // LIFO: last freed, first reused; no appends while rows are free.
        let r3 = slab.insert(&mo(10.0));
        let r1 = slab.insert(&mo(11.0));
        assert_eq!((r3.slot(), r3.generation()), (3, 1));
        assert_eq!((r1.slot(), r1.generation()), (1, 1));
        assert_eq!(slab.rows(), 4);
        let appended = slab.insert(&mo(12.0));
        assert_eq!(
            (appended.slot(), appended.generation()),
            (4, 0),
            "free list empty: append under generation 0"
        );
    }

    #[test]
    fn recycled_rows_serve_the_new_objects_bits() {
        let mut slab = SlabArena::new();
        let a = slab.insert(&mo(1.0));
        let b = slab.insert(&mo(2.0));
        slab.remove(a).unwrap();
        let c = slab.insert(&mo(3.0));
        assert_eq!(c.slot(), a.slot());
        assert_eq!(c.generation(), a.generation() + 1);
        let fresh = mo(3.0);
        let v = slab.get(c).unwrap();
        assert_eq!(v.mu, fresh.mu());
        assert_eq!(v.mu2, fresh.mu2());
        assert_eq!(v.var, fresh.variance());
        assert_eq!(v.sum_mu_sq.to_bits(), fresh.sum_mu_sq().to_bits());
        assert_eq!(v.sum_mu2.to_bits(), fresh.sum_mu2().to_bits());
        assert_eq!(v.sum_var.to_bits(), fresh.total_variance().to_bits());
        assert_eq!(v.norm_mu.to_bits(), fresh.norm_mu().to_bits());
        // The untouched neighbour is unaffected.
        assert_eq!(slab.get(b).unwrap().mu, mo(2.0).mu());
    }

    #[test]
    fn insert_with_matches_insert_bitwise() {
        let mut by_moments = SlabArena::new();
        let mut by_fill = SlabArena::new();
        let mut hm = Vec::new();
        let mut hf = Vec::new();
        for i in 0..3 {
            let m = mo(i as f64 * 0.7 - 1.0);
            hm.push(by_moments.insert(&m));
            hf.push(by_fill.insert_with(2, |j| (m.mu()[j], m.mu2()[j])));
        }
        assert_eq!(hm, hf, "both write paths must issue identical handles");
        // Churn a slot through both write paths.
        by_moments.remove(hm[1]).unwrap();
        by_fill.remove(hf[1]).unwrap();
        let m = mo(42.0);
        let rm = by_moments.insert(&m);
        let rf = by_fill.insert_with(2, |j| (m.mu()[j], m.mu2()[j]));
        assert_eq!(rm, rf);
        for i in 0..3 {
            let a = by_moments.view(i);
            let b = by_fill.view(i);
            assert_eq!(a.mu, b.mu);
            assert_eq!(a.mu2, b.mu2);
            assert_eq!(a.var, b.var);
            assert_eq!(a.sum_mu_sq.to_bits(), b.sum_mu_sq.to_bits());
            assert_eq!(a.sum_var.to_bits(), b.sum_var.to_bits());
            assert_eq!(a.norm_mu.to_bits(), b.norm_mu.to_bits());
        }
    }

    #[test]
    fn double_free_is_a_checked_error() {
        let mut slab = SlabArena::new();
        let a = slab.insert(&mo(1.0));
        slab.remove(a).unwrap();
        assert_eq!(slab.remove(a), Err(StaleHandle(a)));
        // The failed remove changed nothing: the slot is still reusable
        // exactly once.
        let b = slab.insert(&mo(2.0));
        assert_eq!(b.slot(), a.slot());
        assert_eq!(slab.free_rows(), 0);
    }

    #[test]
    fn stale_handle_cannot_alias_the_next_occupant() {
        let mut slab = SlabArena::new();
        let a = slab.insert(&mo(1.0));
        slab.remove(a).unwrap();
        let b = slab.insert(&mo(2.0));
        assert_eq!(b.slot(), a.slot(), "slot is recycled");
        assert_eq!(slab.get(a).unwrap_err(), StaleHandle(a));
        assert_eq!(
            slab.remove(a),
            Err(StaleHandle(a)),
            "stale remove must not evict the new occupant"
        );
        assert!(slab.contains(b));
    }

    #[test]
    #[should_panic(expected = "view of non-live slab row")]
    fn view_of_freed_row_panics() {
        let mut slab = SlabArena::new();
        let a = slab.insert(&mo(1.0));
        slab.remove(a).unwrap();
        let _ = slab.view(a.slot());
    }

    #[test]
    fn generation_wraps_without_aliasing() {
        // Seed a slot one removal away from u32 wraparound via from_parts.
        let arena = MomentArena::from_moments([&mo(1.0)]);
        let mut slab = SlabArena::from_parts(arena, vec![true], vec![], vec![u32::MAX]);
        let held = ObjectHandle::new(0, u32::MAX);
        assert!(slab.contains(held));
        slab.remove(held).unwrap();
        assert_eq!(slab.generation(0), 0, "generation wraps to 0");
        let next = slab.insert(&mo(2.0));
        assert_eq!((next.slot(), next.generation()), (0, 0));
        assert_eq!(slab.get(held).unwrap_err(), StaleHandle(held));
        assert_eq!(slab.get(next).unwrap().mu, mo(2.0).mu());
    }

    #[test]
    fn with_capacity_pre_reserves() {
        let mut slab = SlabArena::with_capacity(8, 2);
        assert_eq!(slab.dims(), 2);
        for i in 0..8 {
            slab.insert(&mo(i as f64));
        }
        assert_eq!(slab.len(), 8);
    }
}
