//! Reference models for the differential suites, written only against the
//! public API.
//!
//! By Corollary 1 a cluster's `J` depends only on its `ClusterStats`, so
//! how the moments are stored cannot change a label. These models are the
//! plainest layouts that satisfy the same contracts, and the engines are
//! pinned bitwise against them:
//!
//! * [`RefStream`] — the streaming engine with one heap-allocated
//!   `Moments` per slot, a LIFO free list, per-slot generations, plain
//!   statistic updates, and unpruned relocation passes. No cache, no
//!   pruning, no shared arena.
//!
//! The file is shared by the integration tests (`mod support;`) and
//! included by path into the `ucpc_core` unit tests.

use ucpc_core::framework::ClusterError;
use ucpc_core::objective::{total_objective, ClusterStats};
use ucpc_core::pruning::{best_candidate, best_insertion};
use ucpc_uncertain::{Moments, ObjectHandle, UncertainObject};

/// Minimum objective decrease for a relocation to apply — the engines'
/// one relocation threshold, `pruning::TOLERANCE`, restated here so the
/// oracle does not read it from the code under test.
const TOLERANCE: f64 = 1e-9;

/// The streaming reference model (module docs).
#[derive(Debug, Clone)]
pub struct RefStream {
    m: usize,
    stats: Vec<ClusterStats>,
    /// Per slot: the occupant's moments and cluster, `None` while free.
    slots: Vec<Option<(Moments, usize)>>,
    /// Freed slots, reused last-in-first-out.
    free: Vec<u32>,
    /// Per-slot generation, bumped (wrapping) on removal.
    gens: Vec<u32>,
}

impl RefStream {
    /// An empty model over `m` dimensions with `k >= 1` clusters.
    pub fn new(m: usize, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Self {
            m,
            stats: vec![ClusterStats::empty(m); k],
            slots: Vec::new(),
            free: Vec::new(),
            gens: Vec::new(),
        }
    }

    /// A model holding `objects` in slots `0..n`, each live at generation
    /// 0 in the cluster `labels` gives it, every cluster folded in slot
    /// order — the engine a batch run bulk-loads.
    pub fn from_partition(objects: &[UncertainObject], k: usize, labels: &[usize]) -> Self {
        let mut model = Self::new(objects[0].dims(), k);
        for (o, &c) in objects.iter().zip(labels) {
            model.stats[c].add(o.moments());
            model.slots.push(Some((o.moments().clone(), c)));
            model.gens.push(0);
        }
        model
    }

    /// Places an object in the cluster of least objective increase.
    pub fn insert(&mut self, o: &UncertainObject) -> Result<ObjectHandle, ClusterError> {
        self.insert_moments(o.moments())
    }

    /// [`Self::insert`] for an arrival given by its moments.
    pub fn insert_moments(&mut self, mo: &Moments) -> Result<ObjectHandle, ClusterError> {
        if mo.dims() != self.m {
            return Err(ClusterError::DimensionMismatch {
                expected: self.m,
                found: mo.dims(),
                index: self.slots.len(),
            });
        }
        if !mo.view().is_finite() {
            return Err(ClusterError::NonFinite);
        }
        let (best, _) = best_insertion(&self.stats, &mo.view()).expect("k >= 1");
        self.stats[best].add(mo);
        let entry = Some((mo.clone(), best));
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                self.gens.push(0);
                u32::try_from(self.slots.len() - 1).expect("slot space exhausted")
            }
        };
        Ok(ObjectHandle::new(slot, self.gens[slot as usize]))
    }

    /// Removes a live object; a stale handle is a checked error.
    pub fn remove(&mut self, h: ObjectHandle) -> Result<(), ClusterError> {
        let slot = h.slot();
        if self.label_of(h).is_none() {
            return Err(ClusterError::StaleHandle {
                slot: slot as u32,
                generation: h.generation(),
            });
        }
        let (mo, cluster) = self.slots[slot].take().expect("live slot");
        self.stats[cluster].remove(&mo);
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot as u32);
        Ok(())
    }

    /// Up to `passes` unpruned relocation passes in slot order; returns
    /// the relocations applied.
    pub fn stabilize(&mut self, passes: usize) -> usize {
        let mut relocations = 0;
        for _ in 0..passes {
            let mut moved = false;
            for entry in self.slots.iter_mut().flatten() {
                let (mo, label) = (&entry.0, &mut entry.1);
                let src = *label;
                if self.stats[src].size() == 1 {
                    continue;
                }
                if let Some((dst, delta)) = best_candidate(&self.stats, src, &mo.view()) {
                    if delta < -TOLERANCE {
                        self.stats[src].remove(mo);
                        self.stats[dst].add(mo);
                        *label = dst;
                        relocations += 1;
                        moved = true;
                    }
                }
            }
            if !moved {
                break;
            }
        }
        relocations
    }

    /// Cluster of a live object; `None` for a stale handle.
    pub fn label_of(&self, h: ObjectHandle) -> Option<usize> {
        let live = self.gens.get(h.slot()) == Some(&h.generation());
        live.then(|| self.slots[h.slot()].as_ref().map(|e| e.1))
            .flatten()
    }

    /// Handles and labels of the live objects, in slot order.
    pub fn live_labels(&self) -> Vec<(ObjectHandle, usize)> {
        (0..self.slots.len())
            .filter_map(|slot| {
                let h = ObjectHandle::new(slot as u32, self.gens[slot]);
                self.label_of(h).map(|c| (h, c))
            })
            .collect()
    }

    /// Per-cluster sufficient statistics.
    pub fn cluster_stats(&self) -> &[ClusterStats] {
        &self.stats
    }

    /// Total objective `Σ_C J(C)`.
    pub fn objective(&self) -> f64 {
        total_objective(&self.stats)
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}
