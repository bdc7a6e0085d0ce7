//! Flat structure-of-arrays storage for per-object moments — the data layout
//! behind the scalar-aggregate delta-`J` kernel.
//!
//! # Why an arena
//!
//! UCPC's entire `O(I·k·n·m)` cost (Proposition 5) is the inner
//! candidate-relocation evaluation. With per-object [`Moments`] stored as
//! separately heap-allocated slices, every candidate evaluation chases
//! pointers into small scattered allocations. [`MomentArena`] stores the
//! moments of a whole dataset as two contiguous row-major `n × m` matrices
//! (`mu` and `mu_2`) plus four per-object scalar columns — `2m + 4` floats
//! per object — so the hot loop touches one contiguous row per object and a
//! handful of scalars.
//!
//! No variance row is stored: its one reader, the `Ψ` pass of a cluster
//! fold, derives it from the two rows it streams anyway, through the same
//! [`variance`] helper (Eq. 5) as [`Moments::from_mu_mu2`].
//!
//! # The dot-product form of the Corollary-1 update
//!
//! Theorem 3 writes the cluster objective in per-dimension sufficient
//! statistics (`s_j = Σ_{o∈C} mu_j(o)` is the signed mean sum whose square is
//! the theorem's `Υ_j`):
//!
//! ```text
//! J(C) = Σ_j ( Ψ_j/|C| + Φ_j − s_j²/|C| )
//!      = Ψ_tot/|C| + Φ_tot − S₂/|C|,
//! ```
//!
//! where `Ψ_tot = Σ_j Ψ_j`, `Φ_tot = Σ_j Φ_j` and `S₂ = Σ_j s_j²` are plain
//! scalars. Corollary 1 updates each `Ψ_j`, `Φ_j`, `s_j` in O(1) per
//! dimension; summing those updates over `j` shows how the three aggregates
//! move when one object `o` joins `C`:
//!
//! ```text
//! Ψ_tot' = Ψ_tot + Σ_j sigma²_j(o)          (the scalar `sum_var(o)`)
//! Φ_tot' = Φ_tot + Σ_j (mu_2)_j(o)          (the scalar `sum_mu2(o)`)
//! S₂'    = Σ_j (s_j + mu_j(o))²
//!        = S₂ + 2·Σ_j s_j·mu_j(o) + Σ_j mu_j(o)²
//!        = S₂ + 2·⟨s, mu(o)⟩ + sum_mu_sq(o),
//! ```
//!
//! and symmetrically with flipped signs when `o` leaves. Every term except
//! `⟨s, mu(o)⟩` is a precomputed per-object scalar, so the full objective
//! change of a candidate relocation collapses to **one fused dot product**
//! between the cluster's flat mean-sum vector `s` and the object's contiguous
//! `mu` row — a single O(m) pass, dispatched at run time to an explicit
//! AVX2/NEON kernel by [`crate::simd`] — instead of the naive three O(m)
//! sweeps (`J(C−o)`, `J(C+o)` per candidate cluster, against ~6
//! array reads and 7 flops per dimension each). The same algebra applied to
//! Lemma 1 (`J_UK = Φ_tot − S₂/|C|`) and Proposition 2 (`J_MM = J_UK/|C|`)
//! yields the UK-means and MMVar kernels.
//!
//! The per-object scalars needed by these updates are exactly the columns the
//! arena precomputes at construction:
//!
//! * `sum_mu_sq(o) = Σ_j mu_j(o)²`,
//! * `sum_mu2(o)  = Σ_j (mu_2)_j(o)` (the object's contribution to `Φ_tot`),
//! * `sum_var(o)  = Σ_j sigma²_j(o)` (Eq. 6's global variance; the
//!   contribution to `Ψ_tot`; with `norm_mu(o)` the fourth column).
//!
//! These sums certify finiteness: a float sum with a NaN or infinite term is
//! non-finite, and the variance of finite moments is finite, so
//! [`MomentView::is_finite`] reads the sums alone.
//!
//! [`MomentView`] bundles one object's rows and scalars; `ClusterStats` in
//! `ucpc-core` consumes views through its `delta_j_*` methods and keeps the
//! original per-dimension sweeps as the `naive` reference path.

use crate::moments::Moments;
use crate::object::UncertainObject;

/// Borrowed view of one object's moment rows plus its precomputed scalar
/// aggregates — the unit of work of the delta-`J` kernel.
#[derive(Debug, Clone, Copy)]
pub struct MomentView<'a> {
    /// Expected values `mu_j(o)` (contiguous, length `m`).
    pub mu: &'a [f64],
    /// Second-order moments `(mu_2)_j(o)`.
    pub mu2: &'a [f64],
    /// `Σ_j mu_j(o)²`.
    pub sum_mu_sq: f64,
    /// `Σ_j (mu_2)_j(o)` — the object's contribution to `Φ_tot`.
    pub sum_mu2: f64,
    /// `Σ_j sigma²_j(o)` — Eq. (6); the object's contribution to `Ψ_tot`.
    pub sum_var: f64,
    /// `‖mu(o)‖ = sqrt(Σ_j mu_j(o)²)` — the Cauchy–Schwarz factor the
    /// candidate-pruning drift bounds multiply against (see
    /// `ucpc_core::pruning`).
    pub norm_mu: f64,
}

impl<'a> MomentView<'a> {
    /// Number of dimensions `m`.
    pub fn dims(&self) -> usize {
        self.mu.len()
    }

    /// The variances `sigma²_j(o)`, derived from the rows by [`variance`].
    #[inline]
    pub fn variances(&self) -> impl Iterator<Item = f64> + 'a {
        let (mu, mu2) = (self.mu, self.mu2);
        mu.iter().zip(mu2).map(|(&m, &m2)| variance(m, m2))
    }

    /// Whether the four sums are finite: in O(1), for a view whose scalars
    /// are its rows' sums, whether every entry is (module docs). Engines
    /// reject a non-finite arrival before it can poison a cluster.
    #[inline]
    pub fn is_finite(&self) -> bool {
        let scalars = [self.sum_mu_sq, self.sum_mu2, self.sum_var, self.norm_mu];
        scalars.iter().fold(true, |ok, x| ok & x.is_finite())
    }
}

/// Contiguous row-major SoA storage of the moments of `n` objects over `m`
/// dimensions: the `mu` and `mu_2` rows plus four precomputed per-object
/// scalars, `2m + 4` floats per object (module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct MomentArena {
    n: usize,
    m: usize,
    mu: Vec<f64>,
    mu2: Vec<f64>,
    sum_mu_sq: Vec<f64>,
    sum_mu2: Vec<f64>,
    sum_var: Vec<f64>,
    norm_mu: Vec<f64>,
}

impl MomentArena {
    /// Builds the arena from a dataset of uncertain objects. All objects must
    /// share one dimensionality (callers validate through
    /// `ucpc_core::framework::validate_input`; this panics otherwise).
    pub fn from_objects(data: &[UncertainObject]) -> Self {
        Self::from_moments(data.iter().map(UncertainObject::moments))
    }

    /// Builds the arena from an iterator of per-object moments.
    pub fn from_moments<'a>(moments: impl IntoIterator<Item = &'a Moments>) -> Self {
        let mut arena = Self {
            n: 0,
            m: 0,
            mu: Vec::new(),
            mu2: Vec::new(),
            sum_mu_sq: Vec::new(),
            sum_mu2: Vec::new(),
            sum_var: Vec::new(),
            norm_mu: Vec::new(),
        };
        for mo in moments {
            arena.push(mo);
        }
        arena
    }

    /// An empty arena with `n` rows of `m` dimensions pre-reserved — the
    /// entry point of the arena-native batch pipeline (e.g.
    /// `ucpc_datasets::uncertainty::PdfAssignment::assign_into_arena`),
    /// which fills rows with zero further heap allocations.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut arena = Self::from_moments([]);
        arena.reserve_rows(n, m);
        arena
    }

    /// Reserves space for `additional` more rows of `dims` dimensions. Sets
    /// the arena's dimensionality when it is still empty and unset; panics
    /// if `dims` contradicts rows already present.
    pub fn reserve_rows(&mut self, additional: usize, dims: usize) {
        self.prepare_dims(dims);
        self.mu.reserve(additional * dims);
        self.mu2.reserve(additional * dims);
        self.sum_mu_sq.reserve(additional);
        self.sum_mu2.reserve(additional);
        self.sum_var.reserve(additional);
        self.norm_mu.reserve(additional);
    }

    /// Number of rows the arena can hold before any of its columns
    /// reallocates — the invariant the zero-allocation batch-pipeline test
    /// checks around a reserved fill.
    pub fn row_capacity(&self) -> usize {
        let per_row = self.m.max(1);
        (self.mu.capacity() / per_row)
            .min(self.mu2.capacity() / per_row)
            .min(self.sum_mu_sq.capacity())
            .min(self.sum_mu2.capacity())
            .min(self.sum_var.capacity())
            .min(self.norm_mu.capacity())
    }

    /// Appends one object's moments as a new row.
    pub fn push(&mut self, mo: &Moments) {
        self.prepare_dims(mo.dims());
        self.mu.extend_from_slice(mo.mu());
        self.mu2.extend_from_slice(mo.mu2());
        self.sum_mu_sq.push(mo.sum_mu_sq());
        self.sum_mu2.push(mo.sum_mu2());
        self.sum_var.push(mo.total_variance());
        self.norm_mu.push(mo.norm_mu());
        self.n += 1;
    }

    /// Appends one row *without* a [`Moments`] value: `fill(j)` yields the
    /// dimension's `(mu_j, (mu_2)_j)` pair and the arena derives the scalar
    /// aggregates as [`Moments::from_mu_mu2`] does, in the same dimension
    /// order — so a row built here is bit-identical to pushing the
    /// equivalent `Moments`. This is the
    /// batch pipeline's write path: no per-object vectors exist, and with
    /// capacity reserved ([`Self::with_capacity`] / [`Self::reserve_rows`])
    /// the fill performs no heap allocation at all.
    pub fn push_row_with(&mut self, dims: usize, fill: impl FnMut(usize) -> (f64, f64)) {
        self.prepare_dims(dims);
        let (sum_mu_sq, sum_mu2, sum_var) = fold_row(dims, fill, |_, mu, mu2| {
            self.mu.push(mu);
            self.mu2.push(mu2);
        });
        self.sum_mu_sq.push(sum_mu_sq);
        self.sum_mu2.push(sum_mu2);
        self.sum_var.push(sum_var);
        self.norm_mu.push(sum_mu_sq.sqrt());
        self.n += 1;
    }

    /// Overwrites row `i` in place with another object's moments, scalar
    /// columns included — no column grows or reallocates. The bits written
    /// are exactly the ones [`Self::push`] would have appended, so a reused
    /// row is indistinguishable from a freshly pushed one.
    pub fn overwrite_row(&mut self, i: usize, mo: &Moments) {
        assert!(i < self.n, "row {i} out of bounds (n = {})", self.n);
        assert_eq!(
            mo.dims(),
            self.m,
            "arena rows must share one dimensionality"
        );
        let row = i * self.m..(i + 1) * self.m;
        self.mu[row.clone()].copy_from_slice(mo.mu());
        self.mu2[row].copy_from_slice(mo.mu2());
        self.sum_mu_sq[i] = mo.sum_mu_sq();
        self.sum_mu2[i] = mo.sum_mu2();
        self.sum_var[i] = mo.total_variance();
        self.norm_mu[i] = mo.norm_mu();
    }

    /// Overwrites row `i` in place from a `(mu_j, (mu_2)_j)` fill closure —
    /// the in-place counterpart of [`Self::push_row_with`], with the same
    /// fold, so an overwritten row is bit-identical to the row
    /// `push_row_with` would have appended from the same fill.
    pub fn overwrite_row_with(
        &mut self,
        i: usize,
        dims: usize,
        fill: impl FnMut(usize) -> (f64, f64),
    ) {
        assert!(i < self.n, "row {i} out of bounds (n = {})", self.n);
        assert_eq!(dims, self.m, "arena rows must share one dimensionality");
        let base = i * self.m;
        let (sum_mu_sq, sum_mu2, sum_var) = fold_row(dims, fill, |j, mu, mu2| {
            self.mu[base + j] = mu;
            self.mu2[base + j] = mu2;
        });
        self.sum_mu_sq[i] = sum_mu_sq;
        self.sum_mu2[i] = sum_mu2;
        self.sum_var[i] = sum_var;
        self.norm_mu[i] = sum_mu_sq.sqrt();
    }

    /// Drops every row past the first `n` (none if the arena holds `n`
    /// rows or fewer), keeping the columns' capacity.
    pub fn truncate(&mut self, n: usize) {
        let n = n.min(self.n);
        for col in [&mut self.mu, &mut self.mu2] {
            col.truncate(n * self.m);
        }
        for col in [
            &mut self.sum_mu_sq,
            &mut self.sum_mu2,
            &mut self.sum_var,
            &mut self.norm_mu,
        ] {
            col.truncate(n);
        }
        self.n = n;
    }

    /// Pins the arena's dimensionality on the first row (with a small
    /// warm-up reservation when nothing was pre-reserved) and checks it on
    /// every later one.
    fn prepare_dims(&mut self, dims: usize) {
        if self.n == 0 && self.m == 0 {
            self.m = dims;
            if self.mu.capacity() == 0 {
                let hint = 64 * dims;
                self.mu.reserve(hint);
                self.mu2.reserve(hint);
            }
        }
        assert_eq!(dims, self.m, "arena rows must share one dimensionality");
    }

    /// Number of objects `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the arena holds no objects.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of dimensions `m` (0 until the first row is pushed).
    pub fn dims(&self) -> usize {
        self.m
    }

    /// The `mu` row of object `i` (contiguous slice of length `m`).
    pub fn mu_row(&self, i: usize) -> &[f64] {
        &self.mu[i * self.m..(i + 1) * self.m]
    }

    /// The `mu_2` row of object `i`.
    pub fn mu2_row(&self, i: usize) -> &[f64] {
        &self.mu2[i * self.m..(i + 1) * self.m]
    }

    /// `Σ_j mu_j(o_i)²`.
    pub fn sum_mu_sq(&self, i: usize) -> f64 {
        self.sum_mu_sq[i]
    }

    /// `Σ_j (mu_2)_j(o_i)`.
    pub fn sum_mu2(&self, i: usize) -> f64 {
        self.sum_mu2[i]
    }

    /// `Σ_j sigma²_j(o_i)` (the object's global variance, Eq. 6).
    pub fn sum_var(&self, i: usize) -> f64 {
        self.sum_var[i]
    }

    /// `‖mu(o_i)‖` — the precomputed mean-vector norm consumed by the
    /// pruning drift bounds.
    pub fn norm_mu(&self, i: usize) -> f64 {
        self.norm_mu[i]
    }

    /// The kernel view of object `i`: its two rows plus the scalars.
    pub fn view(&self, i: usize) -> MomentView<'_> {
        let row = i * self.m..(i + 1) * self.m;
        MomentView {
            mu: &self.mu[row.clone()],
            mu2: &self.mu2[row],
            sum_mu_sq: self.sum_mu_sq[i],
            sum_mu2: self.sum_mu2[i],
            sum_var: self.sum_var[i],
            norm_mu: self.norm_mu[i],
        }
    }
}

/// A generation-stamped handle to one object of a store that recycles
/// arena rows (the streaming engine, `ucpc_core::incremental`).
///
/// `slot` is the storage row; `gen` is the slot's generation counter at
/// insertion time. The store bumps a slot's generation, wrapping, each
/// time it frees the slot, so a handle is valid exactly while the object
/// it named is live and can never alias the slot's next occupant.
///
/// The generation wraps at `u32::MAX`. A stale handle could only be
/// mistaken for live again after exactly 2³² removals of *its own slot*
/// while the handle is still retained: at a million edits per second
/// against one slot that is over an hour of adversarial churn aimed at a
/// single held handle, and any interleaved edit of another slot resets
/// the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectHandle {
    slot: u32,
    gen: u32,
}

impl ObjectHandle {
    /// Assembles a handle from raw parts (snapshot restore, tests). A
    /// fabricated handle is safe: the store checks every handle against
    /// the slot's current generation and liveness.
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

/// One dimension's variance, Eq. (5): `sigma² = (mu_2 − mu²)⁺`, the clamp
/// zeroing cancellation residue on point-mass dimensions (and, as
/// `f64::max` does, a NaN difference). Every variance in the workspace is
/// this expression, so stored and derived ones agree bit for bit.
#[inline]
pub fn variance(mu: f64, mu2: f64) -> f64 {
    (mu2 - mu * mu).max(0.0)
}

/// The one canonical per-row fold behind [`MomentArena::push_row_with`],
/// [`MomentArena::overwrite_row_with`] and [`Moments::from_mu_mu2`]: hands
/// each `(mu, mu_2)` pair to `write` and accumulates the scalar aggregates
/// in dimension order from `+0.0`. Every write path's sums are
/// bit-identical *because this fold exists exactly once* — they differ
/// only in where `write` puts the values. (`Iterator::sum` starts from
/// `−0.0`, so a row of `−0.0` entries would sum to `−0.0` through it.)
#[inline]
pub(crate) fn fold_row(
    dims: usize,
    mut fill: impl FnMut(usize) -> (f64, f64),
    mut write: impl FnMut(usize, f64, f64),
) -> (f64, f64, f64) {
    let mut sum_mu_sq = 0.0f64;
    let mut sum_mu2 = 0.0f64;
    let mut sum_var = 0.0f64;
    for j in 0..dims {
        let (mu, mu2) = fill(j);
        write(j, mu, mu2);
        sum_mu_sq += mu * mu;
        sum_mu2 += mu2;
        sum_var += variance(mu, mu2);
    }
    (sum_mu_sq, sum_mu2, sum_var)
}

/// Fused dot product `⟨a, b⟩` — the kernel's single O(m) pass, dispatched
/// at run time to the best SIMD backend the machine supports (see
/// [`crate::simd`] for the backend set, the `UCPC_SIMD` knob, and the
/// bit-identity contract between backends).
///
/// This is the dot product of the Corollary-1 update: with `s` a cluster's
/// per-dimension mean sums, the objective change of adding an object `o`
/// needs exactly `⟨s, mu(o)⟩` beyond precomputed scalars (module docs above
/// derive this). End to end:
///
/// ```
/// use ucpc_uncertain::arena::{dot, MomentArena};
/// use ucpc_uncertain::Moments;
///
/// let arena = MomentArena::from_moments([
///     &Moments::of_point(&[1.0, 2.0]),
///     &Moments::of_point(&[3.0, -1.0]),
/// ]);
///
/// // Cluster C = {o_0}: mean-sum vector s = mu(o_0); candidate o = o_1.
/// let s = arena.mu_row(0).to_vec();
/// let o = arena.view(1);
///
/// // Corollary 1 in scalar-aggregate form: S₂' = S₂ + 2⟨s, mu(o)⟩ + Σ mu(o)²
/// let s_sq: f64 = s.iter().map(|x| x * x).sum();
/// let s_sq_new = s_sq + 2.0 * dot(&s, o.mu) + o.sum_mu_sq;
///
/// // ... which must equal Σ_j (s_j + mu_j(o))² computed from scratch.
/// let rebuilt: f64 = s
///     .iter()
///     .zip(o.mu)
///     .map(|(sj, mj)| (sj + mj) * (sj + mj))
///     .sum();
/// assert!((s_sq_new - rebuilt).abs() < 1e-12);
/// ```
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    crate::simd::dot(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdf::UnivariatePdf;

    fn objects() -> Vec<UncertainObject> {
        vec![
            UncertainObject::new(vec![
                UnivariatePdf::normal(1.0, 0.5),
                UnivariatePdf::uniform_centered(-2.0, 1.0),
                UnivariatePdf::normal(0.25, 2.0),
            ]),
            UncertainObject::new(vec![
                UnivariatePdf::exponential_with_mean(0.5, 1.5),
                UnivariatePdf::normal(3.0, 0.1),
                UnivariatePdf::PointMass { x: -4.0 },
            ]),
        ]
    }

    fn derived_var(v: &MomentView<'_>) -> Vec<f64> {
        v.variances().collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn rows_match_per_object_moments() {
        let objs = objects();
        let arena = MomentArena::from_objects(&objs);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.dims(), 3);
        for (i, o) in objs.iter().enumerate() {
            assert_eq!(arena.mu_row(i), o.mu());
            assert_eq!(arena.mu2_row(i), o.mu2());
            assert_eq!(bits(&derived_var(&arena.view(i))), bits(o.variance()));
        }
    }

    #[test]
    fn scalars_match_row_sums() {
        let objs = objects();
        let arena = MomentArena::from_objects(&objs);
        for (i, o) in objs.iter().enumerate() {
            let mu_sq: f64 = arena.mu_row(i).iter().map(|&x| x * x).sum();
            let mu2: f64 = arena.mu2_row(i).iter().sum();
            let var: f64 = o.variance().iter().sum();
            assert!((arena.sum_mu_sq(i) - mu_sq).abs() < 1e-12);
            assert!((arena.sum_mu2(i) - mu2).abs() < 1e-12);
            assert!((arena.sum_var(i) - var).abs() < 1e-12);
            assert!((arena.norm_mu(i) - mu_sq.sqrt()).abs() < 1e-12);
            let v = arena.view(i);
            assert_eq!(v.dims(), 3);
            assert_eq!(v.mu, arena.mu_row(i));
            assert!((v.sum_mu_sq - mu_sq).abs() < 1e-12);
        }
    }

    #[test]
    fn view_agrees_with_moments_view() {
        let objs = objects();
        let arena = MomentArena::from_objects(&objs);
        for (i, o) in objs.iter().enumerate() {
            let a = arena.view(i);
            let m = o.moments().view();
            assert_eq!(a.mu, m.mu);
            assert_eq!(a.mu2, m.mu2);
            assert_eq!(bits(&derived_var(&a)), bits(o.variance()));
            assert_eq!(bits(&derived_var(&m)), bits(o.variance()));
            assert!((a.sum_mu_sq - m.sum_mu_sq).abs() < 1e-12);
            assert!((a.sum_mu2 - m.sum_mu2).abs() < 1e-12);
            assert!((a.sum_var - m.sum_var).abs() < 1e-12);
        }
    }

    /// NaN, ±∞, ±0.0, subnormals, ±1e±300, ±f64::MAX, ordinary values and
    /// ±1e200, whose square overflows.
    const HOSTILE: [f64; 19] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        5e-324,
        -1e-310,
        1e-300,
        -1e-300,
        1e300,
        -1e300,
        f64::MAX,
        f64::MIN,
        1e200,
        -1e200,
        1.5,
        -2.25,
        0.5,
        4.0,
    ];

    /// Every `(mu, mu2)` pair of [`HOSTILE`] values as a one-dimensional
    /// row, then, at each `m` (a vector body with and without a remainder),
    /// ordinary rows with one or two hostile pairs planted at positions
    /// that walk across the row.
    fn hostile_rows() -> Vec<(Vec<f64>, Vec<f64>)> {
        let pairs: Vec<(f64, f64)> = HOSTILE
            .iter()
            .flat_map(|&mu| HOSTILE.iter().map(move |&mu2| (mu, mu2)))
            .collect();
        let mut rows: Vec<_> = pairs
            .iter()
            .map(|&(mu, mu2)| (vec![mu], vec![mu2]))
            .collect();
        for m in [4, 16, 17] {
            for (r, &p) in pairs.iter().enumerate() {
                let mut mu: Vec<f64> = (0..m).map(|j| 0.5 * j as f64 - 1.0).collect();
                let mut mu2: Vec<f64> = mu.iter().map(|x| x * x + 1.0).collect();
                (mu[r % m], mu2[r % m]) = p;
                if r % 2 == 1 {
                    let j = (7 * r + 3) % m;
                    (mu[j], mu2[j]) = pairs[(37 * r + 11) % pairs.len()];
                }
                rows.push((mu, mu2));
            }
        }
        rows
    }

    /// The arena's two write paths, one object per row.
    fn arenas(mo: &Moments) -> [MomentArena; 2] {
        let pushed = MomentArena::from_moments([mo]);
        let mut filled = MomentArena::with_capacity(1, mo.dims());
        filled.push_row_with(mo.dims(), |j| (mo.mu()[j], mo.mu2()[j]));
        [pushed, filled]
    }

    #[test]
    fn the_sums_decide_finiteness_as_the_row_walk_does() {
        // The elementwise check the sums replace: every entry of the
        // `mu`, `mu2` and variance rows and every scalar.
        let walk = |v: &MomentView<'_>, var: &[f64]| {
            let scalars = [v.sum_mu_sq, v.sum_mu2, v.sum_var, v.norm_mu];
            [v.mu, v.mu2, var, &scalars]
                .iter()
                .all(|row| row.iter().all(|x| x.is_finite()))
        };
        let rows = hostile_rows();
        let mut refused = 0;
        for (mu, mu2) in &rows {
            let mo = Moments::from_mu_mu2(mu.clone(), mu2.clone());
            let expected = walk(&mo.view(), mo.variance());
            assert_eq!(
                mo.view().is_finite(),
                expected,
                "Moments view {mu:?} {mu2:?}"
            );
            for arena in arenas(&mo) {
                let v = arena.view(0);
                assert_eq!(v.is_finite(), walk(&v, &derived_var(&v)), "{mu:?} {mu2:?}");
                assert_eq!(v.is_finite(), expected, "arena view {mu:?} {mu2:?}");
            }
            refused += usize::from(!expected);
        }
        // Both answers occur, so the comparison is not vacuous.
        assert!(refused > 0 && refused < rows.len());
    }

    #[test]
    fn derived_variances_and_their_psi_fold_match_the_stored_row_bit_for_bit() {
        let rows = hostile_rows();
        for m in [1, 4, 16, 17] {
            // Start Ψ at −0.0 so the sign of a zero variance shows.
            let mut psi = vec![-0.0; m];
            let mut psi_ref = psi.clone();
            for (i, (mu, mu2)) in rows.iter().filter(|(mu, _)| mu.len() == m).enumerate() {
                let mo = Moments::from_mu_mu2(mu.clone(), mu2.clone());
                for arena in arenas(&mo) {
                    let v = arena.view(0);
                    assert_eq!(
                        bits(&derived_var(&v)),
                        bits(mo.variance()),
                        "{mu:?} {mu2:?}"
                    );
                }
                // The fold's zipped Ψ pass, deriving each variance, against
                // an indexed fold of the stored row; every third row leaves.
                let sub = i % 3 == 2;
                let v = mo.view();
                for ((d, &x), &x2) in psi.iter_mut().zip(v.mu).zip(v.mu2) {
                    *d = if sub {
                        *d - variance(x, x2)
                    } else {
                        *d + variance(x, x2)
                    };
                }
                for (j, &var) in mo.variance().iter().enumerate() {
                    psi_ref[j] = if sub {
                        psi_ref[j] - var
                    } else {
                        psi_ref[j] + var
                    };
                }
                assert_eq!(bits(&psi), bits(&psi_ref), "m={m} after row {i}");
            }
        }
        // μ₂ = −0.0 over μ = ±0.0 leaves −0.0 − 0.0 = −0.0 for the clamp.
        for mu in [0.0, -0.0] {
            let mo = Moments::from_mu_mu2(vec![mu], vec![-0.0]);
            assert_eq!(variance(mu, -0.0).to_bits(), mo.variance()[0].to_bits());
        }
    }

    #[test]
    fn a_slot_holds_two_rows_and_four_scalars() {
        let m = 16;
        let mut arena = MomentArena::with_capacity(10, m);
        for i in 0..10 {
            arena.push_row_with(m, |j| ((i * m + j) as f64, 1.0));
        }
        // Naming every field makes a new column fail to compile here.
        let MomentArena {
            n,
            m: _,
            mu,
            mu2,
            sum_mu_sq,
            sum_mu2,
            sum_var,
            norm_mu,
        } = &arena;
        let columns = [mu, mu2, sum_mu_sq, sum_mu2, sum_var, norm_mu];
        let floats: usize = columns.iter().map(|c| c.len()).sum();
        assert_eq!(floats, n * (2 * m + 4));
        assert_eq!(
            floats * std::mem::size_of::<f64>() / n,
            288,
            "bytes per slot"
        );
    }

    #[test]
    fn dot_matches_naive_for_all_lengths() {
        for n in 0..64usize {
            let a: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 3.0).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.0 - (i as f64) * 0.25).collect();
            let naive: f64 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
            assert!((dot(&a, &b) - naive).abs() < 1e-9, "length {n}");
        }
    }

    #[test]
    fn every_write_path_sums_a_row_of_negative_zeros_alike() {
        let bits = |x: [f64; 4]| x.map(f64::to_bits);
        for m in [1usize, 2, 5, 16, 17] {
            let zeros = vec![-0.0; m];
            let mo = Moments::from_mu_mu2(zeros.clone(), zeros);
            let want = bits([
                mo.sum_mu_sq(),
                mo.sum_mu2(),
                mo.total_variance(),
                mo.norm_mu(),
            ]);
            assert_eq!(want, [0; 4], "m={m}: every sum is +0.0");
            let mut pushed = MomentArena::from_moments([]);
            pushed.push(&mo);
            let mut folded = MomentArena::from_moments([]);
            folded.push_row_with(m, |_| (-0.0, -0.0));
            for (arena, path) in [(&pushed, "push"), (&folded, "push_row_with")] {
                let v = arena.view(0);
                let got = bits([v.sum_mu_sq, v.sum_mu2, v.sum_var, v.norm_mu]);
                assert_eq!(got, want, "m={m}, {path}");
            }
        }
    }

    #[test]
    fn push_row_with_is_bit_identical_to_pushing_moments() {
        let objs = objects();
        let reference = MomentArena::from_objects(&objs);
        let mut built = MomentArena::with_capacity(objs.len(), 3);
        for o in &objs {
            let mo = o.moments();
            built.push_row_with(3, |j| (mo.mu()[j], mo.mu2()[j]));
        }
        assert_eq!(built, reference);
    }

    #[test]
    fn reserved_fill_never_reallocates() {
        let n = 100;
        let mut arena = MomentArena::with_capacity(n, 4);
        let cap = arena.row_capacity();
        assert!(cap >= n);
        for i in 0..n {
            arena.push_row_with(4, |j| {
                let mu = (i * 4 + j) as f64 * 0.25 - 3.0;
                (mu, mu * mu + 0.5)
            });
        }
        assert_eq!(arena.len(), n);
        assert_eq!(
            arena.row_capacity(),
            cap,
            "filling a reserved arena must not grow any column"
        );
    }

    #[test]
    fn reserve_rows_extends_an_existing_arena() {
        let mut arena = MomentArena::from_objects(&objects());
        arena.reserve_rows(500, 3);
        let cap = arena.row_capacity();
        assert!(cap >= arena.len() + 500);
        for _ in 0..500 {
            arena.push_row_with(3, |j| (j as f64, j as f64 * j as f64 + 1.0));
        }
        assert_eq!(arena.row_capacity(), cap);
    }

    #[test]
    fn overwrite_row_matches_push_bit_for_bit() {
        let objs = objects();
        let reference = MomentArena::from_objects(&objs);
        // Build an arena with the rows swapped, then overwrite both rows
        // back: the result must equal the straight-pushed reference exactly.
        let mut arena = MomentArena::from_moments([objs[1].moments(), objs[0].moments()]);
        arena.overwrite_row(0, objs[0].moments());
        arena.overwrite_row(1, objs[1].moments());
        assert_eq!(arena, reference);
    }

    #[test]
    fn overwrite_row_with_matches_push_row_with() {
        let objs = objects();
        let reference = MomentArena::from_objects(&objs);
        let mut arena = MomentArena::from_objects(&objs);
        // Scribble over row 0, then rebuild it through the fill closure.
        arena.overwrite_row_with(0, 3, |_| (1234.5, 1234.5 * 1234.5 + 1.0));
        assert_ne!(arena, reference);
        let mo = objs[0].moments();
        arena.overwrite_row_with(0, 3, |j| (mo.mu()[j], mo.mu2()[j]));
        assert_eq!(arena, reference);
    }

    #[test]
    fn truncate_drops_trailing_rows_only() {
        let objs = objects();
        let mut arena = MomentArena::from_objects(&objs);
        arena.truncate(objs.len() + 1);
        assert_eq!(
            arena,
            MomentArena::from_objects(&objs),
            "nothing past the end"
        );
        arena.truncate(1);
        assert_eq!(arena, MomentArena::from_objects(&objs[..1]));
        // Rows pushed after a cut land where a fresh arena puts them.
        arena.push(objs[1].moments());
        assert_eq!(arena, MomentArena::from_objects(&objs[..2]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn overwrite_out_of_bounds_panics() {
        let mut arena = MomentArena::from_objects(&objects());
        let mo = Moments::of_point(&[1.0, 2.0, 3.0]);
        arena.overwrite_row(2, &mo);
    }

    #[test]
    #[should_panic(expected = "share one dimensionality")]
    fn mixed_dimensionality_panics() {
        let mut arena = MomentArena::from_objects(&objects());
        let one_dim = Moments::of_point(&[1.0]);
        arena.push(&one_dim);
    }
}
