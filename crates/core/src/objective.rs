//! Cluster objective functions in closed form (Theorem 3, Corollary 1) and
//! the comparison identities of Propositions 2–3.
//!
//! [`ClusterStats`] holds the per-dimension sufficient statistics of a
//! cluster `C`:
//!
//! * `psi_j  = Σ_i (sigma^2)_j(o_i)`  (Theorem 3's `Ψ`),
//! * `phi_j  = Σ_i (mu_2)_j(o_i)`    (Theorem 3's `Φ`),
//! * `s_j    = Σ_i mu_j(o_i)`        (the *signed* mean sum; Theorem 3's
//!   `Υ_j` is `s_j^2`).
//!
//! Storing the raw sum instead of `Υ` itself is a deliberate deviation from
//! the literal text of Corollary 1, whose `sqrt(Υ)`-based update is undefined
//! for negative mean sums; the raw-sum updates are exact and branch-free and
//! produce identical `J` values (unit-tested).
//!
//! From these, every objective in the paper is O(m):
//!
//! * `J(C)    = Σ_j (psi_j/|C| + phi_j − s_j²/|C|)`          (Theorem 3),
//! * `J_UK(C) = Σ_j (phi_j − s_j²/|C|)`                       (Lemma 1),
//! * `J_MM(C) = J_UK(C)/|C|`                                  (Proposition 2),
//! * `Ĵ(C)    = 2 J_UK(C)`                                    (Proposition 3),
//!
//! and adding/removing one object is O(m) (Corollary 1), which is what gives
//! UCPC its `O(I k n m)` complexity (Proposition 5).
//!
//! # The scalar-aggregate delta-`J` kernel
//!
//! On top of the per-dimension vectors, [`ClusterStats`] incrementally
//! maintains the three scalar aggregates
//!
//! * `Ψ_tot = Σ_j psi_j`,
//! * `Φ_tot = Σ_j phi_j`,
//! * `S₂   = Σ_j s_j²`,
//!
//! which make every objective O(1) (`J = Ψ_tot/|C| + Φ_tot − S₂/|C|`) and
//! collapse each candidate relocation to closed-form scalars plus a single
//! fused dot product `⟨s, mu(o)⟩` over contiguous memory — see the
//! derivation in [`ucpc_uncertain::arena`]. The `delta_j_*` methods are this
//! kernel.
//!
//! Adding or removing an object keeps the aggregates current with the same
//! algebra: one dispatched `dot` for the `⟨s, mu(o)⟩` cross term (before an
//! add, after a remove), then three element-wise slice passes, one per row
//! (`psi += var`, `phi += mu2`, `mean_sum += mu`, or `−=`), which the
//! compiler vectorizes, then O(1) scalar updates from the view's
//! precomputed sums; the `psi` pass derives `var` ([`MomentView::variances`]).
//! Each row element is still one IEEE add or subtract, so the bits do not
//! depend on how the passes are vectorized.
//!
//! The original three-sweep O(m) evaluation, the `naive` reference that
//! tests and benches compare against, lives outside the engine in
//! `ucpc_bench::naive`, over the public [`ClusterStats::psi`] /
//! [`ClusterStats::phi`] / [`ClusterStats::mean_sum`] getters.

use ucpc_uncertain::arena::{dot, MomentView};
use ucpc_uncertain::simd::add_delta;
use ucpc_uncertain::{Moments, UncertainObject};

/// Per-cluster sufficient statistics with O(m) add/remove, O(1) objective
/// evaluation, and the single-dot-product relocation kernel.
///
/// The fields are Corollary 1's sums and nothing else: the size, the rows
/// `Ψ`, `Φ` and `s`, and their three scalar aggregates. Two values are
/// equal iff they hold the same sums bit for bit, whatever history folded
/// them. Relocation pruning keeps its drift accumulators beside the
/// statistics, in [`crate::pruning::Pruner`], which folds every update
/// through [`Self::add_view`] / [`Self::remove_view`] and charges a
/// cluster's net change from its rows and aggregates alone.
#[derive(Debug, PartialEq)]
pub struct ClusterStats {
    psi: Vec<f64>,
    phi: Vec<f64>,
    mean_sum: Vec<f64>,
    size: usize,
    /// `Ψ_tot = Σ_j psi_j`, maintained incrementally.
    psi_tot: f64,
    /// `Φ_tot = Σ_j phi_j`, maintained incrementally.
    phi_tot: f64,
    /// `S₂ = Σ_j s_j²`, maintained incrementally via the kernel identity
    /// `Σ_j (s_j ± mu_j)² = S₂ ± 2⟨s, mu⟩ + Σ_j mu_j²`.
    s_sq_tot: f64,
}

/// Written out so that [`Clone::clone_from`] reuses the three row buffers:
/// a logged stabilization snapshots every cluster this way, with no
/// allocation once the snapshot holds rows of the right length.
impl Clone for ClusterStats {
    fn clone(&self) -> Self {
        Self {
            psi: self.psi.clone(),
            phi: self.phi.clone(),
            mean_sum: self.mean_sum.clone(),
            size: self.size,
            psi_tot: self.psi_tot,
            phi_tot: self.phi_tot,
            s_sq_tot: self.s_sq_tot,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self {
            psi,
            phi,
            mean_sum,
            size,
            psi_tot,
            phi_tot,
            s_sq_tot,
        } = source;
        self.psi.clone_from(psi);
        self.phi.clone_from(phi);
        self.mean_sum.clone_from(mean_sum);
        self.size = *size;
        self.psi_tot = *psi_tot;
        self.phi_tot = *phi_tot;
        self.s_sq_tot = *s_sq_tot;
    }
}

/// `dst[j] = op(dst[j], x_j)` over `src`'s values (a row, or the derived
/// variances): one statistic row's part of a fold, as a zipped pass the
/// compiler vectorizes (an indexed loop keeps its bounds checks and stays
/// scalar). The caller has checked that the rows have equal length.
#[inline(always)]
fn row_pass(dst: &mut [f64], src: impl Iterator<Item = f64>, op: impl Fn(f64, f64) -> f64) {
    for (d, x) in dst.iter_mut().zip(src) {
        *d = op(*d, x);
    }
}

impl ClusterStats {
    /// Empty cluster over `m` dimensions.
    pub fn empty(m: usize) -> Self {
        Self {
            psi: vec![0.0; m],
            phi: vec![0.0; m],
            mean_sum: vec![0.0; m],
            size: 0,
            psi_tot: 0.0,
            phi_tot: 0.0,
            s_sq_tot: 0.0,
        }
    }

    /// Builds statistics from a set of member objects, folded in order.
    ///
    /// # Panics
    ///
    /// If `members` is empty (an empty cluster has no `m`; use
    /// [`Self::empty`]) or the members disagree on their dimensionality.
    pub fn from_members<'a>(members: impl IntoIterator<Item = &'a UncertainObject>) -> Self {
        let mut iter = members.into_iter();
        let first = iter
            .next()
            .expect("from_members requires at least one object");
        let mut stats = Self::empty(first.dims());
        stats.add(first.moments());
        for o in iter {
            stats.add(o.moments());
        }
        stats
    }

    /// Number of dimensions `m`.
    pub fn dims(&self) -> usize {
        self.psi.len()
    }

    /// Cluster size `|C|`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether the cluster has no members.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// `Ψ_j` values (sum of member variances per dimension).
    pub fn psi(&self) -> &[f64] {
        &self.psi
    }

    /// `Φ_j` values (sum of member second moments per dimension).
    pub fn phi(&self) -> &[f64] {
        &self.phi
    }

    /// Signed mean sums `s_j = Σ_i mu_j(o_i)`; `Υ_j = s_j^2`.
    pub fn mean_sum(&self) -> &[f64] {
        &self.mean_sum
    }

    /// Adds one object (Corollary 1, `C+` direction). O(m).
    ///
    /// # Panics
    ///
    /// If `o` does not have the cluster's `m` dimensions.
    pub fn add(&mut self, o: &Moments) {
        self.add_view(&o.view());
    }

    /// Removes one member (Corollary 1, `C−` direction). O(m).
    ///
    /// The caller must only remove objects previously added; this is not
    /// checked beyond a size underflow panic.
    ///
    /// # Panics
    ///
    /// If the cluster is empty or `o` does not have the cluster's `m`
    /// dimensions.
    pub fn remove(&mut self, o: &Moments) {
        self.remove_view(&o.view());
    }

    /// Adds one object through a kernel view: one dispatched `dot` takes the
    /// `⟨s, mu⟩` cross term against the pre-add mean sums, three
    /// element-wise passes add the view's derived variances, `mu2` and `mu`
    /// rows to `psi`, `phi` and `mean_sum`, and the scalar aggregates move
    /// by the view's precomputed scalars. O(m).
    ///
    /// # Panics
    ///
    /// If either of the view's two rows does not have the cluster's `m`
    /// entries — checked before anything is folded, in release builds too.
    pub fn add_view(&mut self, v: &MomentView<'_>) {
        self.check_rows(v);
        // The ⟨s, mu(o)⟩ cross term goes through the dispatched SIMD kernel
        // — the same code path (and therefore the same bits) as the
        // scan-side `delta_j_*` evaluations.
        let cross = dot(&self.mean_sum, v.mu);
        row_pass(&mut self.psi, v.variances(), |s, x| s + x);
        row_pass(&mut self.phi, v.mu2.iter().copied(), |s, x| s + x);
        row_pass(&mut self.mean_sum, v.mu.iter().copied(), |s, x| s + x);
        self.psi_tot += v.sum_var;
        self.phi_tot += v.sum_mu2;
        self.s_sq_tot += 2.0 * cross + v.sum_mu_sq;
        self.size += 1;
    }

    /// Removes one member through a kernel view: the three slice passes of
    /// [`Self::add_view`] subtract the rows, then one dispatched `dot` takes
    /// the cross term against the post-removal mean sums. O(m).
    ///
    /// # Panics
    ///
    /// If the cluster is empty, or either of the view's two rows does not
    /// have the cluster's `m` entries (checked before anything is folded).
    pub fn remove_view(&mut self, v: &MomentView<'_>) {
        // Invariant: only a member is removed, so the cluster holds at least
        // one; an empty one means the caller lost track of its labels, and
        // folding on would underflow the size.
        assert!(self.size > 0, "cannot remove from an empty cluster");
        self.check_rows(v);
        row_pass(&mut self.psi, v.variances(), |s, x| s - x);
        row_pass(&mut self.phi, v.mu2.iter().copied(), |s, x| s - x);
        row_pass(&mut self.mean_sum, v.mu.iter().copied(), |s, x| s - x);
        // ⟨s_post, mu(o)⟩ through the dispatched SIMD kernel, against the
        // already-updated mean sums.
        let cross = dot(&self.mean_sum, v.mu);
        self.psi_tot -= v.sum_var;
        self.phi_tot -= v.sum_mu2;
        // s' = s − mu, and Σ (s'_j)² = S₂ − 2⟨s', mu⟩ − Σ mu_j² with the
        // cross term taken against the *post-removal* mean sums.
        self.s_sq_tot -= 2.0 * cross + v.sum_mu_sq;
        self.size -= 1;
        if self.size == 0 {
            // Re-zero the aggregates so floating-point residue cannot leak
            // into a reused empty cluster.
            self.psi_tot = 0.0;
            self.phi_tot = 0.0;
            self.s_sq_tot = 0.0;
        }
    }

    /// The one length check of a fold, hoisted out of its row passes.
    #[inline]
    fn check_rows(&self, v: &MomentView<'_>) {
        let m = self.dims();
        // Invariant: every view folded into a cluster has the cluster's m
        // entries in both rows; engines refuse a mismatched arrival at
        // admission. Checked in release builds too, before anything is
        // folded: the zipped row passes would otherwise stop at the shorter
        // row and fold a truncated object without a word.
        assert!(v.mu.len() == m && v.mu2.len() == m, "dimension mismatch");
    }

    /// Whether every sum is finite: after a fold of adds, false iff a member
    /// had a non-finite moment or `sum_*` scalar, or a sum overflowed.
    pub(crate) fn is_finite(&self) -> bool {
        let totals = [self.psi_tot, self.phi_tot, self.s_sq_tot];
        let rows = self.psi.iter().chain(&self.phi).chain(&self.mean_sum);
        rows.chain(&totals).all(|x| x.is_finite())
    }

    /// A magnitude scale for the cluster's aggregates, used to size the
    /// floating-point safety slack of the pruning bounds: cancellation noise
    /// in a delta-`J` evaluation is proportional to the largest aggregate
    /// the subtraction passes through.
    pub fn magnitude(&self) -> f64 {
        self.psi_tot.abs() + self.phi_tot.abs() + self.s_sq_tot.abs()
    }

    /// The UCPC objective `J(C)` of Theorem 3, in scalar-aggregate form:
    /// `Ψ_tot/|C| + Φ_tot − S₂/|C|`. O(1); zero for an empty cluster.
    pub fn j(&self) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        let inv = 1.0 / self.size as f64;
        self.psi_tot * inv + self.phi_tot - self.s_sq_tot * inv
    }

    /// The UK-means objective `J_UK(C)` in Lemma 1's closed form, scalar
    /// aggregates: `Φ_tot − S₂/|C|`. O(1); zero for an empty cluster.
    pub fn j_uk(&self) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        self.phi_tot - self.s_sq_tot / self.size as f64
    }

    /// The MMVar objective `J_MM(C) = sigma^2(C_MM)`; by Proposition 2 this
    /// equals `J_UK(C)/|C|`. Zero for an empty cluster.
    pub fn j_mm(&self) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        self.j_uk() / self.size as f64
    }

    /// The mixed objective `Ĵ(C)` of Eq. (12); by Proposition 3 it equals
    /// `2 J_UK(C)`.
    pub fn j_hat(&self) -> f64 {
        2.0 * self.j_uk()
    }

    /// Objective change `J(C ∪ {o}) − J(C)` evaluated by the
    /// scalar-aggregate kernel: one fused dot product `⟨s, mu(o)⟩` plus O(1)
    /// scalar algebra (see [`ucpc_uncertain::arena`] for the derivation; the
    /// dot product is dispatched to a SIMD backend by
    /// [`ucpc_uncertain::simd`]).
    ///
    /// ```
    /// use ucpc_core::ClusterStats;
    /// use ucpc_uncertain::{MomentArena, Moments};
    ///
    /// let arena = MomentArena::from_moments([
    ///     &Moments::from_mu_mu2(vec![0.0, 1.0], vec![0.5, 2.0]),
    ///     &Moments::from_mu_mu2(vec![1.0, 0.0], vec![1.5, 0.25]),
    ///     &Moments::from_mu_mu2(vec![5.0, 4.0], vec![26.0, 17.0]),
    /// ]);
    /// let mut c = ClusterStats::empty(2);
    /// c.add_view(&arena.view(0));
    /// c.add_view(&arena.view(1));
    ///
    /// // Corollary 1 in dot-product form: the objective change of adding
    /// // o_2 costs one fused ⟨s, mu(o_2)⟩ — no sweep over the cluster.
    /// let predicted = c.j() + c.delta_j_add(&arena.view(2));
    ///
    /// // It must equal J of the cluster rebuilt with o_2 from scratch.
    /// let mut full = c.clone();
    /// full.add_view(&arena.view(2));
    /// assert!((predicted - full.j()).abs() < 1e-12);
    /// ```
    ///
    /// # Panics
    ///
    /// If `v` does not have the cluster's `m` dimensions (`dot`'s length
    /// check).
    #[inline]
    pub fn delta_j_add(&self, v: &MomentView<'_>) -> f64 {
        let cross = dot(&self.mean_sum, v.mu);
        self.add_pricer()
            .price(v.sum_var, v.sum_mu_sq, v.sum_mu2, cross)
    }

    /// The cluster's add-side pricing constants, hoisted for a candidate
    /// scan: `1/(|C|+1)` and the base objective `J(C)` cost one division
    /// each and are identical for every object priced against the same
    /// statistics, so a scan pays them once per cluster instead of once per
    /// (cluster, object). [`Self::delta_j_add`] delegates to
    /// [`AddPricer::price`], keeping every add-side delta bit-identical by
    /// construction.
    #[inline]
    pub fn add_pricer(&self) -> AddPricer {
        AddPricer {
            new_inv: 1.0 / (self.size + 1) as f64,
            psi_tot: self.psi_tot,
            s_sq_tot: self.s_sq_tot,
            phi_tot: self.phi_tot,
            j_base: self.j(),
        }
    }

    /// The cluster's remove-side pricing constants, hoisted like
    /// [`Self::add_pricer`]; [`Self::delta_j_remove`] delegates to
    /// [`RemovePricer::price`]. A cluster of at most one member prices
    /// every removal at `−J(C)` (for an empty cluster, which no scan removes
    /// from, that is `−0.0`).
    #[inline]
    pub fn remove_pricer(&self) -> RemovePricer {
        RemovePricer {
            last: self.size <= 1,
            new_inv: 1.0 / self.size.saturating_sub(1) as f64,
            psi_tot: self.psi_tot,
            s_sq_tot: self.s_sq_tot,
            phi_tot: self.phi_tot,
            j_base: self.j(),
        }
    }

    /// The incrementally-maintained scalar aggregates
    /// `(Ψ_tot, Φ_tot, S₂)` — raw state for the snapshot codec.
    pub(crate) fn scalar_aggregates(&self) -> (f64, f64, f64) {
        (self.psi_tot, self.phi_tot, self.s_sq_tot)
    }

    /// Reassembles statistics from raw serialized state (snapshot restore).
    /// Nothing is re-derived: the parts are installed verbatim, so a value
    /// round-tripped through [`Self::scalar_aggregates`] and the public
    /// accessors is bit-identical to the original.
    pub(crate) fn from_raw_parts(
        psi: Vec<f64>,
        phi: Vec<f64>,
        mean_sum: Vec<f64>,
        size: usize,
        psi_tot: f64,
        phi_tot: f64,
        s_sq_tot: f64,
    ) -> Self {
        // Invariant: the snapshot reader reads each of the three rows at the
        // engine's m, so they cannot disagree.
        debug_assert!(psi.len() == phi.len() && psi.len() == mean_sum.len());
        Self {
            psi,
            phi,
            mean_sum,
            size,
            psi_tot,
            phi_tot,
            s_sq_tot,
        }
    }

    /// Objective change `J(C ∖ {o}) − J(C)` evaluated by the
    /// scalar-aggregate kernel. `o` must be a member; `−J(C)` when removing
    /// the last member.
    ///
    /// ```
    /// use ucpc_core::ClusterStats;
    /// use ucpc_uncertain::{MomentArena, Moments};
    ///
    /// let arena = MomentArena::from_moments([
    ///     &Moments::from_mu_mu2(vec![0.0], vec![1.0]),
    ///     &Moments::from_mu_mu2(vec![2.0], vec![4.5]),
    ///     &Moments::from_mu_mu2(vec![-1.0], vec![1.25]),
    /// ]);
    /// let mut c = ClusterStats::empty(1);
    /// for i in 0..3 {
    ///     c.add_view(&arena.view(i));
    /// }
    ///
    /// // One dot product predicts J(C ∖ {o_1}) − J(C) (Corollary 1) ...
    /// let predicted = c.j() + c.delta_j_remove(&arena.view(1));
    ///
    /// // ... matching the cluster rebuilt without o_1.
    /// let mut rest = ClusterStats::empty(1);
    /// rest.add_view(&arena.view(0));
    /// rest.add_view(&arena.view(2));
    /// assert!((predicted - rest.j()).abs() < 1e-12);
    ///
    /// // Removing the last member of a singleton is −J by definition.
    /// let mut single = ClusterStats::empty(1);
    /// single.add_view(&arena.view(0));
    /// assert_eq!(single.delta_j_remove(&arena.view(0)), -single.j());
    /// ```
    ///
    /// # Panics
    ///
    /// If the cluster is empty, or `v` does not have the cluster's `m`
    /// dimensions (a singleton's removal reads no row, so there only debug
    /// builds check).
    #[inline]
    pub fn delta_j_remove(&self, v: &MomentView<'_>) -> f64 {
        // Invariant: callers price the removal of a member, so the cluster
        // holds at least one and the member has its m; an empty one means
        // the caller lost track of its labels.
        debug_assert_eq!(v.dims(), self.dims(), "dimension mismatch");
        assert!(self.size > 0, "cannot remove from an empty cluster");
        // A singleton's removal gain reads no cross term.
        let cross = if self.size == 1 {
            0.0
        } else {
            dot(&self.mean_sum, v.mu)
        };
        self.remove_pricer()
            .price(v.sum_var, v.sum_mu_sq, v.sum_mu2, cross)
    }

    /// `J_UK(C ∪ {o}) − J_UK(C)` via the kernel (Lemma 1 analogue of
    /// [`Self::delta_j_add`]).
    ///
    /// # Panics
    ///
    /// If `v` does not have the cluster's `m` dimensions (`dot`'s length
    /// check).
    #[inline]
    pub fn delta_j_uk_add(&self, v: &MomentView<'_>) -> f64 {
        let cross = dot(&self.mean_sum, v.mu);
        let s_sq = self.s_sq_tot + 2.0 * cross + v.sum_mu_sq;
        let j_new = self.phi_tot + v.sum_mu2 - s_sq / (self.size + 1) as f64;
        j_new - self.j_uk()
    }

    /// `J_UK(C ∖ {o}) − J_UK(C)` via the kernel. `o` must be a member;
    /// `−J_UK(C)` when removing the last member.
    ///
    /// # Panics
    ///
    /// Like [`Self::delta_j_remove`].
    #[inline]
    pub fn delta_j_uk_remove(&self, v: &MomentView<'_>) -> f64 {
        // Invariant: as in `delta_j_remove`, `o` is a member.
        debug_assert_eq!(v.dims(), self.dims(), "dimension mismatch");
        assert!(self.size > 0, "cannot remove from an empty cluster");
        if self.size == 1 {
            return -self.j_uk();
        }
        let cross = dot(&self.mean_sum, v.mu);
        let s_sq = self.s_sq_tot - 2.0 * cross + v.sum_mu_sq;
        let j_new = self.phi_tot - v.sum_mu2 - s_sq / (self.size - 1) as f64;
        j_new - self.j_uk()
    }

    /// `J_MM(C ∪ {o}) − J_MM(C)` via the kernel (Proposition 2:
    /// `J_MM = J_UK/|C|`).
    #[inline]
    pub fn delta_j_mm_add(&self, v: &MomentView<'_>) -> f64 {
        let new_size = (self.size + 1) as f64;
        (self.j_uk() + self.delta_j_uk_add(v)) / new_size - self.j_mm()
    }

    /// `J_MM(C ∖ {o}) − J_MM(C)` via the kernel. `−J_MM(C)` when removing
    /// the last member.
    #[inline]
    pub fn delta_j_mm_remove(&self, v: &MomentView<'_>) -> f64 {
        if self.size <= 1 {
            return -self.j_mm();
        }
        let new_size = (self.size - 1) as f64;
        (self.j_uk() + self.delta_j_uk_remove(v)) / new_size - self.j_mm()
    }

    /// The UK-means centroid (Eq. 7) — the average of member expected values;
    /// also `mu` of both the MMVar mixture centroid (Lemma 2) and the
    /// U-centroid (Lemma 5).
    ///
    /// # Panics
    ///
    /// If the cluster is empty: an empty cluster has no centroid.
    pub fn centroid(&self) -> Vec<f64> {
        assert!(self.size > 0, "centroid of an empty cluster is undefined");
        let inv = 1.0 / self.size as f64;
        self.mean_sum.iter().map(|&s| s * inv).collect()
    }

    /// Moments of the MMVar mixture centroid `C_MM` (Lemma 2):
    /// `mu = (1/|C|) Σ mu(o)`, `mu_2 = (1/|C|) Σ mu_2(o)`.
    ///
    /// # Panics
    ///
    /// If the cluster is empty: an empty cluster has no mixture.
    pub fn mixture_moments(&self) -> Moments {
        assert!(self.size > 0, "mixture of an empty cluster is undefined");
        let inv = 1.0 / self.size as f64;
        Moments::from_mu_mu2(
            self.mean_sum.iter().map(|&s| s * inv).collect(),
            self.phi.iter().map(|&p| p * inv).collect(),
        )
    }

    /// The U-centroid variance of Theorem 2, `(1/|C|^2) Σ_i sigma^2(o_i)`:
    /// the quantity Section 4.2.1 proves *insufficient* as a compactness
    /// criterion (kept for the ablation benchmarks).
    pub fn ucentroid_variance(&self) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        let total_psi: f64 = self.psi.iter().sum();
        total_psi / (self.size * self.size) as f64
    }
}

/// Per-cluster constants of the Corollary-1 add delta, captured once by
/// [`ClusterStats::add_pricer`] so a scan pays the two divisions
/// (`1/(|C|+1)` and the one inside `J(C)`) per cluster rather than per
/// (cluster, object). [`AddPricer::price`] is the scalar reference of the
/// delta — [`ClusterStats::delta_j_add`] delegates here — and the engine's
/// fused kernel, [`ucpc_uncertain::simd::price_block`], is held to it bit
/// for bit: both evaluate [`simd::add_delta`](ucpc_uncertain::simd::add_delta)
/// on the same five constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddPricer {
    new_inv: f64,
    psi_tot: f64,
    s_sq_tot: f64,
    phi_tot: f64,
    j_base: f64,
}

impl AddPricer {
    /// Objective change of adding an object reduced to its three scalars
    /// (`Σvar`, `‖mu‖²`, `Σμ₂`) plus the `⟨s, mu⟩` cross term — the
    /// Corollary-1 formula, so hoisted and unhoisted evaluation produce
    /// identical bits.
    #[inline]
    pub fn price(&self, sum_var: f64, sum_mu_sq: f64, sum_mu2: f64, cross: f64) -> f64 {
        add_delta(self.constants(), [sum_var, sum_mu_sq, sum_mu2], cross)
    }

    /// The constants in [`add_delta`]'s order, `[1/(|C|+1), Ψ_tot, S₂,
    /// Φ_tot, J(C)]`: one entry of each of `price_block`'s pricer columns.
    #[inline]
    pub(crate) fn constants(&self) -> [f64; 5] {
        [
            self.new_inv,
            self.psi_tot,
            self.s_sq_tot,
            self.phi_tot,
            self.j_base,
        ]
    }
}

/// Per-cluster constants of the Corollary-1 remove delta, captured once by
/// [`ClusterStats::remove_pricer`]; [`RemovePricer::price`] is *the*
/// implementation of the removal gain — [`ClusterStats::delta_j_remove`]
/// delegates here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemovePricer {
    /// At most one member: the removal gain is `−J(C)`, whatever the object.
    last: bool,
    new_inv: f64,
    psi_tot: f64,
    s_sq_tot: f64,
    phi_tot: f64,
    j_base: f64,
}

impl RemovePricer {
    /// Objective change of removing a member reduced to its three scalars
    /// plus the `⟨s, mu⟩` cross term against the pre-removal sums.
    #[inline]
    pub fn price(&self, sum_var: f64, sum_mu_sq: f64, sum_mu2: f64, cross: f64) -> f64 {
        if self.last {
            return -self.j_base;
        }
        let psi = self.psi_tot - sum_var;
        // ⟨s − mu, mu⟩ = ⟨s, mu⟩ − Σ mu², so against the pre-removal sums:
        // S₂' = S₂ − 2⟨s, mu⟩ + Σ mu².
        let s_sq = self.s_sq_tot - 2.0 * cross + sum_mu_sq;
        let j_new = (psi - s_sq) * self.new_inv + self.phi_tot - sum_mu2;
        j_new - self.j_base
    }
}

/// Total objective `Σ_C J(C)` of a candidate clustering described by
/// per-cluster statistics.
pub fn total_objective(stats: &[ClusterStats]) -> f64 {
    stats.iter().map(ClusterStats::j).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RemovePricer {
        /// The pricer's fields, the floats as bits: what a bit-for-bit
        /// comparison of two pricers reads.
        pub(crate) fn bits(&self) -> (bool, [u64; 5]) {
            let fields = [
                self.new_inv,
                self.psi_tot,
                self.s_sq_tot,
                self.phi_tot,
                self.j_base,
            ];
            (self.last, fields.map(f64::to_bits))
        }
    }
    use crate::ucentroid::UCentroid;
    use ucpc_uncertain::distance::expected_sq_distance_to_point;
    use ucpc_uncertain::{UncertainObject, UnivariatePdf};

    fn objects() -> Vec<UncertainObject> {
        vec![
            UncertainObject::new(vec![
                UnivariatePdf::normal(0.0, 1.0),
                UnivariatePdf::uniform_centered(2.0, 1.0),
            ]),
            UncertainObject::new(vec![
                UnivariatePdf::normal(3.0, 0.5),
                UnivariatePdf::uniform_centered(-1.0, 2.0),
            ]),
            UncertainObject::new(vec![
                UnivariatePdf::normal(-2.0, 2.0),
                UnivariatePdf::uniform_centered(0.5, 0.5),
            ]),
            UncertainObject::new(vec![
                UnivariatePdf::exponential_with_mean(1.0, 2.0),
                UnivariatePdf::normal(4.0, 0.25),
            ]),
        ]
    }

    /// Brute-force J(C) = Σ_o ÊD(o, U-centroid) via Lemma 3 on explicit
    /// U-centroid moments.
    fn j_bruteforce(members: &[&UncertainObject]) -> f64 {
        let c = UCentroid::from_cluster(members);
        members
            .iter()
            .map(|o| {
                ucpc_uncertain::distance::expected_sq_distance_from_moments(
                    o.mu(),
                    o.mu2(),
                    c.mu(),
                    c.mu2(),
                )
            })
            .sum()
    }

    #[test]
    fn theorem_3_closed_form_matches_direct_sum() {
        let objs = objects();
        let refs: Vec<&UncertainObject> = objs.iter().collect();
        let stats = ClusterStats::from_members(objs.iter());
        assert!(
            (stats.j() - j_bruteforce(&refs)).abs() < 1e-9,
            "Theorem 3: stats J {} vs brute force {}",
            stats.j(),
            j_bruteforce(&refs)
        );
    }

    #[test]
    fn theorem_3_second_identity() {
        // J(C) = (1/|C|) Σ sigma^2(o_i) + J_UK(C).
        let objs = objects();
        let stats = ClusterStats::from_members(objs.iter());
        let var_sum: f64 = objs.iter().map(|o| o.total_variance()).sum();
        let want = var_sum / objs.len() as f64 + stats.j_uk();
        assert!((stats.j() - want).abs() < 1e-9);
    }

    #[test]
    fn lemma_1_matches_direct_ukmeans_objective() {
        // J_UK(C) = Σ_o ED(o, centroid) with the Eq. (8) closed form.
        let objs = objects();
        let stats = ClusterStats::from_members(objs.iter());
        let c = stats.centroid();
        let direct: f64 = objs
            .iter()
            .map(|o| expected_sq_distance_to_point(o, &c))
            .sum();
        assert!(
            (stats.j_uk() - direct).abs() < 1e-9,
            "Lemma 1: {} vs {}",
            stats.j_uk(),
            direct
        );
    }

    #[test]
    fn proposition_2_jmm_is_juk_over_size() {
        let objs = objects();
        let stats = ClusterStats::from_members(objs.iter());
        assert!((stats.j_mm() - stats.j_uk() / objs.len() as f64).abs() < 1e-12);
        // And J_MM is literally the mixture centroid's variance (Eq. 11).
        let mix = stats.mixture_moments();
        assert!((stats.j_mm() - mix.total_variance()).abs() < 1e-9);
    }

    #[test]
    fn proposition_3_jhat_is_twice_juk() {
        let objs = objects();
        let stats = ClusterStats::from_members(objs.iter());
        assert!((stats.j_hat() - 2.0 * stats.j_uk()).abs() < 1e-12);
        assert!(
            (stats.j_hat() - 2.0 * objs.len() as f64 * stats.j_mm()).abs() < 1e-9,
            "Proposition 3 chain: Ĵ = 2|C| J_MM"
        );
    }

    #[test]
    fn corollary_1_add_matches_rebuild() {
        let objs = objects();
        let stats = ClusterStats::from_members(objs[..3].iter());
        let predicted = stats.j() + stats.delta_j_add(&objs[3].moments().view());
        let rebuilt = ClusterStats::from_members(objs.iter()).j();
        assert!(
            (predicted - rebuilt).abs() < 1e-9,
            "Corollary 1 (add): {predicted} vs {rebuilt}"
        );
    }

    #[test]
    fn corollary_1_remove_matches_rebuild() {
        let objs = objects();
        let stats = ClusterStats::from_members(objs.iter());
        let predicted = stats.j() + stats.delta_j_remove(&objs[1].moments().view());
        let rebuilt = ClusterStats::from_members(
            objs.iter()
                .enumerate()
                .filter(|&(i, _)| i != 1)
                .map(|(_, o)| o),
        )
        .j();
        assert!(
            (predicted - rebuilt).abs() < 1e-9,
            "Corollary 1 (remove): {predicted} vs {rebuilt}"
        );
    }

    #[test]
    fn incremental_juk_and_jmm_match_rebuild() {
        let objs = objects();
        let partial = ClusterStats::from_members(objs[..3].iter());
        let full = ClusterStats::from_members(objs.iter());
        let v = objs[3].moments().view();
        assert!((partial.j_uk() + partial.delta_j_uk_add(&v) - full.j_uk()).abs() < 1e-9);
        assert!((partial.j_mm() + partial.delta_j_mm_add(&v) - full.j_mm()).abs() < 1e-9);
        assert!((full.j_uk() + full.delta_j_uk_remove(&v) - partial.j_uk()).abs() < 1e-9);
        assert!((full.j_mm() + full.delta_j_mm_remove(&v) - partial.j_mm()).abs() < 1e-9);
    }

    #[test]
    fn add_remove_round_trip_restores_stats() {
        let objs = objects();
        let mut stats = ClusterStats::from_members(objs[..2].iter());
        let before = stats.clone();
        stats.add(objs[2].moments());
        stats.remove(objs[2].moments());
        assert_eq!(stats.size(), before.size());
        for j in 0..stats.dims() {
            assert!((stats.psi()[j] - before.psi()[j]).abs() < 1e-9);
            assert!((stats.phi()[j] - before.phi()[j]).abs() < 1e-9);
            assert!((stats.mean_sum()[j] - before.mean_sum()[j]).abs() < 1e-9);
        }
    }

    #[test]
    fn the_psi_row_is_the_fold_of_the_stored_variances_bit_for_bit() {
        // Hostile moments at m = 17 (a vector body and a remainder): the
        // fold derives each variance from `mu` and `mu2`, and must land on
        // the bits an indexed fold of `Moments::variance` lands on.
        let hostile = [
            f64::NAN,
            f64::INFINITY,
            -0.0,
            0.0,
            5e-324,
            1e300,
            -1e300,
            1e200,
            1.5,
            -2.25,
        ];
        let m = 17;
        let rows: Vec<Moments> = (0..60)
            .map(|r| {
                let mu = (0..m).map(|j| hostile[(r + j) % 10]).collect();
                let mu2 = (0..m).map(|j| hostile[(3 * r + 7 * j) % 10]).collect();
                Moments::from_mu_mu2(mu, mu2)
            })
            .collect();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut stats = ClusterStats::empty(m);
        let mut psi = vec![0.0; m];
        for (i, mo) in rows.iter().enumerate() {
            stats.add(mo);
            for (p, &var) in psi.iter_mut().zip(mo.variance()) {
                *p += var;
            }
            if i % 3 == 2 {
                // Every third step the previous arrival leaves again.
                stats.remove(&rows[i - 1]);
                for (p, &var) in psi.iter_mut().zip(rows[i - 1].variance()) {
                    *p -= var;
                }
            }
            assert_eq!(bits(stats.psi()), bits(&psi), "after row {i}");
        }
    }

    #[test]
    fn negative_mean_sums_are_handled() {
        // The published Corollary-1 update uses sqrt(Υ), undefined for
        // negative sums; storing the raw sum must make this exact.
        let objs = [
            UncertainObject::new(vec![UnivariatePdf::normal(-5.0, 1.0)]),
            UncertainObject::new(vec![UnivariatePdf::normal(-3.0, 0.5)]),
        ];
        let stats = ClusterStats::from_members(objs.iter());
        assert!(stats.mean_sum()[0] < 0.0);
        let extra = UncertainObject::new(vec![UnivariatePdf::normal(-1.0, 0.2)]);
        let predicted = stats.j() + stats.delta_j_add(&extra.moments().view());
        let rebuilt = ClusterStats::from_members(objs.iter().chain(std::iter::once(&extra))).j();
        assert!((predicted - rebuilt).abs() < 1e-9);
    }

    #[test]
    fn singleton_and_empty_edge_cases() {
        let objs = objects();
        let mut stats = ClusterStats::empty(2);
        assert_eq!(stats.j(), 0.0);
        stats.add(objs[0].moments());
        // Singleton: J = sigma^2(o) + J_UK(singleton) = sigma^2 + sigma^2... no:
        // J_UK(singleton) = sigma^2(o) (distance of o to its own mean), and
        // (1/1) Σ sigma^2 = sigma^2, so J = 2 sigma^2(o).
        assert!((stats.j() - 2.0 * objs[0].total_variance()).abs() < 1e-9);
        assert_eq!(
            stats.j() + stats.delta_j_remove(&objs[0].moments().view()),
            0.0
        );
    }

    #[test]
    fn ucentroid_variance_matches_theorem_2() {
        let objs = objects();
        let stats = ClusterStats::from_members(objs.iter());
        let refs: Vec<&UncertainObject> = objs.iter().collect();
        let c = UCentroid::from_cluster(&refs);
        assert!((stats.ucentroid_variance() - c.variance()).abs() < 1e-9);
    }

    #[test]
    fn proposition_1_scenario() {
        // Two clusters engineered per the Proposition-1 proof sketch: same
        // size, same Σ mu2, same Σ mu per dim, different Σ mu^2 -> equal J_UK
        // but different variance sums.
        // Cluster A: means {0, 2}; Cluster B: means {1, 1}. Equal mean sums.
        // Give both total mu2 = 6 per object pair by tuning variances.
        // Object mu2 = mu^2 + var.
        // Cluster A: means {0, 2}, mu2 {1, 5} -> Σ mu = 2, Σ mu2 = 6.
        // Cluster B: means {1, 1}, sds {sqrt(3), 1} -> mu2 {4, 2}: same sums.
        let a = [
            UncertainObject::new(vec![UnivariatePdf::normal(0.0, 1.0)]),
            UncertainObject::new(vec![UnivariatePdf::normal(2.0, 1.0)]),
        ];
        let b = [
            UncertainObject::new(vec![UnivariatePdf::normal(1.0, 3.0_f64.sqrt())]),
            UncertainObject::new(vec![UnivariatePdf::normal(1.0, 1.0)]),
        ];
        let sa = ClusterStats::from_members(a.iter());
        let sb = ClusterStats::from_members(b.iter());
        assert!((sa.phi()[0] - sb.phi()[0]).abs() < 1e-12, "equal Σ mu2");
        assert!(
            (sa.mean_sum()[0] - sb.mean_sum()[0]).abs() < 1e-12,
            "equal Σ mu"
        );
        assert!(
            (sa.j_uk() - sb.j_uk()).abs() < 1e-12,
            "Proposition 1: equal J_UK"
        );
        let var_a: f64 = a.iter().map(|o| o.total_variance()).sum();
        let var_b: f64 = b.iter().map(|o| o.total_variance()).sum();
        assert!(
            (var_a - var_b).abs() > 0.5,
            "…despite different cluster variances ({var_a} vs {var_b})"
        );
        // And the UCPC objective *does* separate them (Theorem 3 uses Ψ).
        assert!(
            (sa.j() - sb.j()).abs() > 0.1,
            "J distinguishes the clusters"
        );
    }
}
