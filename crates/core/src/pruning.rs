//! Exact candidate pruning for the UCPC relocation loop: per-object
//! best/second-best delta-`J` caching plus per-cluster drift bounds.
//!
//! The relocation pass of Algorithm 1 evaluates, for every object `o`, the
//! objective change of moving it to each of the `k−1` other clusters. After
//! the first few passes most objects sit firmly inside their cluster and the
//! scan re-derives the same "no move" answer over and over. This module
//! skips those scans *exactly*: a pruned run applies the same relocations in
//! the same order as an unpruned run and produces byte-identical labels —
//! the bound machinery only ever proves that a scan's outcome cannot have
//! changed, it never approximates it. The idea transplants the
//! MinMax/cluster-shift bounding of the UK-means pruning literature (Ngai et
//! al. \[16\]\[17\], implemented for the sampled baseline in
//! `ucpc-baselines::pruning`) onto the closed-form delta-`J` kernel.
//!
//! # The drift bound
//!
//! Write a cluster's sufficient statistics as `n = |C|`, `s = Σ_{o∈C} mu(o)`,
//! `Ψ = Σ sigma²(o)`, `Φ = Σ Σ_j (mu_2)_j(o)` and `A = Ψ − ‖s‖²`. The
//! scalar-aggregate kernel (see [`ucpc_uncertain::arena`]) evaluates the two
//! delta directions as
//!
//! ```text
//! delta_add(C, o)    = −T(C) + (sigma²(o) − ‖mu(o)‖²)/(n+1) + phi(o)
//!                      − 2⟨s, mu(o)⟩/(n+1),          T(C) = A/(n(n+1)),
//! delta_remove(C, o) =  U(C) − (sigma²(o) + ‖mu(o)‖²)/(n−1) − phi(o)
//!                      + 2⟨s, mu(o)⟩/(n−1),          U(C) = A/(n(n−1)),
//! ```
//!
//! with `T(∅) = 0` and `delta_remove` special-cased to `−J(C)` for `n = 1`.
//! When the cluster changes from `C` to `C'` (any sequence of member
//! additions/removals), the triangle and Cauchy–Schwarz inequalities give
//!
//! ```text
//! |delta_add(C',o) − delta_add(C,o)|
//!     ≤ |T(C') − T(C)|                                  (constant)
//!     + |1/(n'+1) − 1/(n+1)| · q(o)                     (size-coupled)
//!     + 2‖s'/(n'+1) − s/(n+1)‖ · ‖mu(o)‖,               (mean-coupled)
//! ```
//!
//! where `q(o) = sigma²(o) + ‖mu(o)‖² ≥ |sigma²(o) − ‖mu(o)‖²|`, and the
//! analogous bound for `delta_remove` with `n∓1`-style denominators
//! (`1/(n−1)`, valid whenever both sizes are ≥ 2). The bound reads the two
//! ends only, never the path between them. The [`Pruner`] accumulates
//! these three coefficients per direction for every cluster
//! ([`ClusterDrift`]), next to the cluster's [`ClusterStats`] rather than
//! inside them: the statistics stay Corollary 1's sums and nothing else.
//! Every term is non-negative, so the accumulators are monotone and for any
//! earlier snapshot the difference `acc(now) − acc(snapshot)` bounds the
//! total drift of that cluster's delta over the whole intervening history
//! (triangle inequality over the chain of charges, see "One drift rule").
//!
//! # Soundness of the two skip tests
//!
//! A full scan of object `o` (current cluster `src`) computes
//! `d(c) = delta_remove(src, o) + delta_add(c, o)` for every candidate
//! `c ≠ src`, takes the minimum `d* = d(c*)` (first index wins ties), and
//! applies the move iff `d* < −TOLERANCE`. After a full scan that applied no
//! move, the cache stores `best = d(c*)`, `c*`, and
//! `second = min_{c ∉ {src, c*}} d(c)`, together with a snapshot of every
//! cluster's add-direction drift accumulators and of `src`'s
//! remove-direction ones. Let `D_best(o)` be the add-direction drift
//! bound of the cached best cluster `c*` alone, `D_oth(o)` the
//! per-coefficient maxima (of `acc − snapshot`, combined with `q(o)` and
//! `‖mu(o)‖`) over the remaining candidates, and `D_rem(o)` the
//! remove-direction bound of `src`. Then for the current statistics:
//!
//! * **Tier 1 (skip).** The current candidate deltas satisfy
//!   `d(c*) ≥ best − D_best − D_rem` and, for every other candidate,
//!   `d(c) ≥ second − D_oth − D_rem` (the cached `second` is the minimum
//!   over exactly those clusters). If both right-hand sides are
//!   `≥ −TOLERANCE`, the full scan would find `d* ≥ −TOLERANCE` and apply
//!   nothing — the scan is skipped outright and the state is untouched,
//!   exactly as the unpruned pass would leave it. Splitting `c*` from the
//!   rest lets the (usually large) `second − best` margin absorb churn that
//!   is concentrated away from the object's own neighborhood.
//! * **Tier 2 (confirm argmin).** The remove term is common to every
//!   candidate, so the argmin is decided by the add terms alone. If
//!   `best + D_best < second − D_oth` (strictly), the cached `c*` is still
//!   the unique argmin; the pass recomputes the *exact* delta for `c*` only
//!   (one two-row [`dot_block`] instead of `k` rows) with the identical
//!   pricing an unpruned scan would do for `c*`, and applies the identical
//!   decision — bit-for-bit, because the float operations are the same.
//!
//! A preliminary **tier 0** runs both tests with a single global
//! `DriftTotals` — the accumulators summed over all clusters, snapshotted
//! inline in the cache entry — which over-approximates every per-cluster
//! difference at O(1) cost and resolves almost all decisions in quiet
//! passes without touching the per-cluster snapshot row.
//!
//! # Surgical invalidation: per-cluster remove-direction versions
//!
//! A charge (next section) with fewer than 2 members at either end has no
//! remove-direction bound, because the coefficients are not defined there,
//! so that cluster's remove-direction accumulators miss the change and can
//! no longer be trusted as watermarks. Crucially, the *add*-direction
//! coefficients are charged unconditionally (they are defined down to an
//! empty cluster), so such a charge taints exactly one thing: that
//! cluster's remove-direction history. And [`Pruner::decide`] consumes
//! remove-direction drift for exactly one cluster — the object's own `src`
//! (the removal gain common to all candidates); every other cluster enters
//! only through its add-direction accumulators. A cached bound is
//! therefore unsound after such a charge **iff** its `src` is that cluster.
//!
//! The pruner exploits this with per-cluster *remove-direction version
//! counters*: such a charge bumps `versions[c]` instead of charging `c`'s
//! remove direction, and `decide` rejects an entry only when
//! `versions[src]` moved past the value snapshotted at store time. Entries
//! whose `src` sits elsewhere ride straight through — their bounds simply
//! widen by the (always-sound) add-direction drift.
//!
//! # One drift rule: a cluster's net change, charged on the next read
//!
//! Every statistics update ([`Pruner::add`], [`Pruner::remove`], and so
//! every [`Pruner::relocate`]) is the plain O(m) fold, which also rewrites
//! the cluster's pricers, plus a mark: the cluster joins a dirty list of
//! at most `k`. The pruner keeps each
//! cluster's size, `Ψ_tot − S₂` and `mean_sum` row at its last charge as
//! the start of its next one. Before [`Pruner::decide`] reads a watermark,
//! and before [`Pruner::store`] snapshots one, each dirty cluster's net
//! change since its start, `C → C'`, is charged as one transition with the
//! direct bound above: `|T(C') − T(C)|`, `|1/(n'+1) − 1/(n+1)|` and
//! `‖s'/(n'+1) − s/(n+1)‖` in the add direction, the same with `n−1`
//! denominators in the remove direction, and `C'` becomes the start. The
//! mean term is summed element by element as `‖s'·d − s·d'‖ / (d·d')`, so
//! that no difference of two large sums can shrink it.
//!
//! A store charges first, so every cluster's start then equals its
//! statistics at store time, and the charges made until a later decide
//! (that decide's own included) chain from those statistics to the
//! current ones: by the triangle inequality the watermark difference the
//! decide reads bounds the drift. Charging several edits' net change at
//! once is never looser than charging them one by one — the rule of
//! Hamerly's k-means bounds: each bound moves once per iteration, by how
//! far its centre moved — so the edits between two passes cost one charge
//! per changed cluster, and a cluster that did not change is charged
//! nothing, so back-to-back passes charge exactly zero. A charge with
//! fewer than 2 members at either end bumps the version instead of
//! charging the remove direction (above). With no start rows yet, after
//! [`Pruner::new`] or a retire, the first charge records every cluster and
//! charges nothing: the cache is empty, so there is no bound to cover.
//!
//! # Retiring
//!
//! [`Pruner::retire`] is the coarse kill-switch: it empties the cache,
//! zeroes every watermark (per-cluster accumulators, their totals and the
//! versions) and drops the start rows and the dirty list, which is exactly
//! the state [`Pruner::new`] builds; the statistics, their pricers, the
//! configuration and the counters survive. `IncrementalUcpc::set_pruning`
//! retires, and so does every wholesale refold — the re-partition that
//! starts each of `BestOfRestarts`'s restarts on a reused engine, and an
//! undone pass — while a snapshot restore builds `Pruner::new` outright.
//!
//! The accumulators and bounds are themselves computed in floating point, so
//! every test inflates the drift by [`slack`] — a safety margin proportional
//! to the magnitude of the cluster aggregates (the source of cancellation
//! noise in a delta evaluation) and of the object's scalars. The margin is
//! orders of magnitude above the ~`ε·magnitude` rounding noise of the kernel
//! while staying orders of magnitude below any decision margin the data can
//! sustain, and the exactness suite (`tests/pruning_exactness.rs`) plus the
//! shadow-scan property test validate the end-to-end guarantee.
//!
//! # One relocation step
//!
//! Lines 8–13 of Algorithm 1 exist once, here. The one relocation loop,
//! `IncrementalUcpc::stabilize` (which batch `Ucpc` runs on a bulk-loaded
//! engine), decides each move with [`Pruner::best_move`] — the full scan
//! with pruning off, the tier ladder above with it on — and applies it with
//! [`Pruner::relocate`], under the one threshold [`TOLERANCE`]. Pruning
//! lives in this step only: placing an arrival is always the full scan over
//! every cluster, which a Cauchy–Schwarz cap on the cross term was measured
//! too loose to beat.
//!
//! Every scan the engine runs — placement, the unpruned relocation
//! decision, the pruned full scan and the tier-2 confirm — and every
//! serving answer prices through the pruner's one [`PricingTable`]. A full
//! scan is one [`price_block`] call: it yields every cross term
//! `⟨s_C, mu(o)⟩` over the clusters' `mean_sum` rows, read in place, and
//! turns each into its add delta from the clusters' hoisted add pricers,
//! held as five columns; a removal gain takes the source's hoisted
//! [`RemovePricer`] in O(1), and a confirm prices its two rows with one
//! [`dot_block`]. The stateless [`best_candidate`] and [`best_insertion`]
//! loops are the reference the table is held to, bit for bit.
//!
//! The pricers are the only state derived from the statistics, and the
//! table keeps them current by owning both: **a cluster's statistics
//! change only through the table's folds.** [`Pruner::add`],
//! [`Pruner::remove`] and so [`Pruner::relocate`] fold one cluster and
//! rewrite its pricers in the same call; a wholesale refold (a
//! re-partition, an undone pass) replaces every cluster's statistics and
//! then derives each cluster's pricers once, as [`Pruner::new`] does for
//! the statistics a restore installs. A scan or a confirm therefore reads
//! its pricers as they stand and derives nothing.

use crate::objective::{AddPricer, ClusterStats, RemovePricer};
use ucpc_uncertain::arena::MomentView;
use ucpc_uncertain::simd::{add_delta, dot_block, price_block};

/// Whether the relocation loops use the drift-bound candidate pruning.
///
/// The default honours the `UCPC_PRUNING` environment variable (`bounds` or
/// `off`, unset ⇒ `Off`) so the whole test suite can be re-run against the
/// pruned path without code changes — the CI pruning matrix relies on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruningConfig {
    /// Reference behaviour: every object scans all `k−1` candidates.
    Off,
    /// Best/second-best caching with drift bounds; exactly equivalent to
    /// [`PruningConfig::Off`] by the argument in the module docs.
    Bounds,
}

impl PruningConfig {
    /// Parses one knob value (`"bounds"`/`"on"`/`"1"` ⇒ [`Self::Bounds`],
    /// `"off"`/`"0"` ⇒ [`Self::Off`], anything else ⇒ `None`) — the pure
    /// worker behind [`Self::from_env`], exposed for env-free unit tests.
    pub fn parse(v: &str) -> Option<Self> {
        match v {
            "bounds" | "on" | "1" => Some(Self::Bounds),
            "off" | "0" => Some(Self::Off),
            _ => None,
        }
    }

    /// Reads the `UCPC_PRUNING` environment knob through the shared
    /// warn-and-fall-back reader ([`ucpc_uncertain::env::read_knob`]): a set
    /// but invalid value warns on stderr and yields `None` (callers fall
    /// back to their default), instead of failing silently.
    pub fn from_env() -> Option<Self> {
        ucpc_uncertain::env::read_knob("UCPC_PRUNING", "bounds|on|1|off|0", Self::parse)
    }

    /// Whether pruning is active.
    pub fn is_enabled(self) -> bool {
        matches!(self, Self::Bounds)
    }
}

impl Default for PruningConfig {
    fn default() -> Self {
        Self::from_env().unwrap_or(Self::Off)
    }
}

/// Decision counters of the pruned relocation passes of one run, one tier
/// per decision; all zeros when pruning is off. Placement scans are never
/// pruned and count nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneCounters {
    /// Tier-1 outcomes: the whole candidate scan was proven redundant.
    pub skips: usize,
    /// Tier-2 outcomes: the cached argmin was confirmed and only its exact
    /// delta was recomputed (two dot products instead of `k`).
    pub confirms: usize,
    /// Objects that ran the full `k−1` candidate scan.
    pub full_scans: usize,
}

impl PruneCounters {
    /// Total relocation decisions taken.
    pub fn decisions(&self) -> usize {
        self.skips + self.confirms + self.full_scans
    }

    /// Fraction of decisions that avoided the full candidate scan.
    pub fn skip_rate(&self) -> f64 {
        let d = self.decisions();
        if d == 0 {
            0.0
        } else {
            (self.skips + self.confirms) as f64 / d as f64
        }
    }

    /// Accumulates another run's counters (used by restarts and benches).
    pub fn merge(&mut self, other: PruneCounters) {
        self.skips += other.skips;
        self.confirms += other.confirms;
        self.full_scans += other.full_scans;
    }
}

/// What the bounds allow for one object's relocation decision (the tier
/// ladder inside [`Pruner::best_move`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneDecision {
    /// No usable cache entry, or the bounds are too loose: run the full
    /// candidate scan (and refresh the cache).
    FullScan,
    /// Tier 1: the cached best cannot have dropped below `−TOLERANCE`; the
    /// scan would apply nothing. Skip it.
    Skip,
    /// Tier 2: the cached argmin provably still wins; recompute its exact
    /// delta only.
    ConfirmBest(usize),
}

/// One cluster's accumulated drift-bound coefficients: for each of the two
/// delta-`J` directions (add a candidate / remove a member), the running
/// sums of the constant, size-coupled and mean-coupled coefficients derived
/// in the module docs. All six sums are monotone non-decreasing between two
/// retires ([`Pruner::retire`]), which lets per-object snapshots of them act
/// as watermarks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClusterDrift {
    /// Add-direction constant term `Σ |T(C') − T(C)|`.
    pub add_const: f64,
    /// Add-direction coefficient of `q(o) = sigma²(o) + ‖mu(o)‖²`.
    pub add_size: f64,
    /// Add-direction coefficient of `2‖mu(o)‖`.
    pub add_mean: f64,
    /// Remove-direction constant term `Σ |U(C') − U(C)|`.
    pub rem_const: f64,
    /// Remove-direction coefficient of `q(o)`.
    pub rem_size: f64,
    /// Remove-direction coefficient of `2‖mu(o)‖`.
    pub rem_mean: f64,
}

/// `T(C) = (Ψ_tot − S₂) / (|C| (|C|+1))`, the cluster-only constant of the
/// add-direction delta (zero for an empty cluster).
fn t_term(size: usize, a: f64) -> f64 {
    if size == 0 {
        0.0
    } else {
        a / (size as f64 * (size + 1) as f64)
    }
}

/// `U(C) = (Ψ_tot − S₂) / (|C| (|C|−1))`, the cluster-only constant of the
/// remove-direction delta. Callers guarantee `size >= 2`.
fn u_term(size: usize, a: f64) -> f64 {
    a / (size as f64 * (size - 1) as f64)
}

/// `‖s1/d1 − s0/d0‖` for the add direction's denominators `p = (d0, d1)`
/// and the remove direction's `r` in one pass: the mean-coupled
/// coefficients of a charged transition. Each is `‖s1·d0 − s0·d1‖ /
/// (d0·d1)` summed element by element, so that no difference of two large
/// sums can shrink it.
fn mean_shifts(s0: &[f64], s1: &[f64], p: (f64, f64), r: (f64, f64)) -> (f64, f64) {
    let (mut add, mut rem) = (0.0f64, 0.0f64);
    for (&x0, &x1) in s0.iter().zip(s1) {
        let (a, b) = (x1 * p.0 - x0 * p.1, x1 * r.0 - x0 * r.1);
        add += a * a;
        rem += b * b;
    }
    (add.sqrt() / (p.0 * p.1), rem.sqrt() / (r.0 * r.1))
}

/// `Ψ_tot − S₂` of `stats`, the numerator of `T(C)` and `U(C)`.
fn spread(stats: &ClusterStats) -> f64 {
    let (psi_tot, _, s_sq_tot) = stats.scalar_aggregates();
    psi_tot - s_sq_tot
}

/// The six coefficient accumulators summed over *all* clusters. Each is an
/// upper bound on the corresponding per-cluster accumulator (every
/// increment is non-negative), so the O(1) tier-0 test can diff two copies
/// of this struct instead of walking the per-cluster snapshot row; the O(k)
/// per-cluster walk remains as a tighter fallback for semi-active passes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct DriftTotals {
    add_const: f64,
    add_size: f64,
    add_mean: f64,
    rem_const: f64,
    rem_size: f64,
    rem_mean: f64,
}

impl DriftTotals {
    /// Folds one cluster's accumulator movement (`before` → `after`, around
    /// a charge) into the totals. The difference, not the increments
    /// themselves: adding those directly rounds differently.
    fn absorb(&mut self, before: ClusterDrift, after: ClusterDrift) {
        self.add_const += after.add_const - before.add_const;
        self.add_size += after.add_size - before.add_size;
        self.add_mean += after.add_mean - before.add_mean;
        self.rem_const += after.rem_const - before.rem_const;
        self.rem_size += after.rem_size - before.rem_size;
        self.rem_mean += after.rem_mean - before.rem_mean;
    }
}

/// One object's cached scan outcome, including its snapshot of the global
/// [`DriftTotals`] (the O(1) watermark; the per-cluster watermark lives in
/// the pruner's snapshot matrix).
#[derive(Debug, Clone, Copy, PartialEq)]
struct CacheEntry {
    valid: bool,
    /// Generation stamp of the slot's occupant at store time. Streaming
    /// drivers recycle slots; an entry written for a departed occupant must
    /// not serve its slot's next tenant, so `decide` rejects on mismatch.
    gen: u32,
    /// The object's cluster at store time, whose remove-direction triple
    /// closes the snapshot row. A relocation invalidates the entry, so a
    /// valid entry always matches; `decide` still rejects a mismatch.
    src: usize,
    /// `versions[src]` at store time — the surgical-invalidation watermark:
    /// the entry dies iff `src`'s remove-direction version moves (see the
    /// module docs).
    src_version: u64,
    best_dst: usize,
    best: f64,
    second: f64,
    totals: DriftTotals,
}

impl CacheEntry {
    fn invalid() -> Self {
        Self {
            valid: false,
            gen: 0,
            src: usize::MAX,
            src_version: 0,
            best_dst: usize::MAX,
            best: f64::INFINITY,
            second: f64::INFINITY,
            totals: DriftTotals::default(),
        }
    }
}

/// All pruning state of one engine: the configuration, each cluster's
/// [`ClusterDrift`], their `DriftTotals`, the per-cluster remove-direction
/// versions, the charge state (dirty list and start rows), the cache and
/// the counters, plus the [`PricingTable`] that holds the clusters'
/// statistics and prices every scan. Every statistic update
/// ([`Self::add`], [`Self::remove`], [`Self::relocate`], a wholesale
/// refold) and every decision ([`Self::best_move`], [`Self::placement`])
/// goes through it, so it alone decides what is charged and what a cached
/// bound may trust, and the table keeps every pricer current.
///
/// The cache is one entry per object plus a flat `n × 3(k+1)` snapshot
/// matrix of the drift accumulators at store time, holding exactly what
/// [`Self::decide`] reads: row `i` is the add-direction triple
/// `(const, size, mean)` of every cluster in order, then the
/// remove-direction triple of object `i`'s own cluster `src`, the only
/// cluster whose remove direction a decision consults.
#[derive(Debug, Clone, PartialEq)]
pub struct Pruner {
    config: PruningConfig,
    /// Whether each cluster changed since its last charge.
    dirty: Vec<bool>,
    /// The clusters flagged in `dirty`, each once: at most `k`.
    changed: Vec<usize>,
    /// Each cluster's `(size, Ψ_tot − S₂, mean_sum)` at its last charge,
    /// `m + 2` floats per cluster, where its next charge starts; empty
    /// until the first charge after [`Self::new`] or [`Self::retire`].
    starts: Vec<f64>,
    drift: Vec<ClusterDrift>,
    totals: DriftTotals,
    versions: Vec<u64>,
    entries: Vec<CacheEntry>,
    snaps: Vec<f64>,
    counters: PruneCounters,
    /// [`fp_scale`] of the statistics at the current pass's start.
    scale: f64,
    /// What every decision prices through.
    table: PricingTable,
}

impl Pruner {
    /// An empty cache and zero watermarks under `config` for one cluster
    /// per entry of `stats`, which the pruner's table takes over with every
    /// pricer derived ([`PricingTable::new`]).
    pub fn new(stats: Vec<ClusterStats>, config: PruningConfig) -> Self {
        let k = stats.len();
        Self {
            config,
            dirty: vec![false; k],
            changed: Vec::with_capacity(k),
            starts: Vec::new(),
            drift: vec![ClusterDrift::default(); k],
            totals: DriftTotals::default(),
            versions: vec![0; k],
            entries: Vec::new(),
            snaps: Vec::new(),
            counters: PruneCounters::default(),
            scale: 0.0,
            table: PricingTable::new(stats),
        }
    }

    /// The clusters' statistics, which change only through this pruner.
    pub fn stats(&self) -> &[ClusterStats] {
        &self.table.stats
    }

    /// Replaces the statistics wholesale: `f` refolds them in place, then
    /// the table derives every cluster's pricers once
    /// ([`PricingTable::refold`]) and the pruner retires, since no cached
    /// bound describes the new statistics. Returns what `f` returns.
    pub(crate) fn refold<R>(&mut self, f: impl FnOnce(&mut [ClusterStats]) -> R) -> R {
        self.retire();
        self.table.refold(f)
    }

    /// Floats per snapshot row: three per cluster, three for `src`.
    fn stride(&self) -> usize {
        3 * (self.drift.len() + 1)
    }

    /// Whether relocation passes prune.
    pub fn config(&self) -> PruningConfig {
        self.config
    }

    /// Switches pruning on or off for later passes, and retires.
    pub fn set_config(&mut self, config: PruningConfig) {
        self.config = config;
        self.retire();
    }

    /// Empties the cache, zeroes every watermark — the per-cluster
    /// accumulators, their totals and the versions — and drops the start
    /// rows and the dirty list: the state [`Self::new`] builds, keeping the
    /// statistics and their pricers, the configuration, the counters and
    /// the buffers. Called whenever cached bounds may no longer hold: a
    /// configuration change, a re-partition, an undone pass.
    pub fn retire(&mut self) {
        self.dirty.fill(false);
        self.changed.clear();
        self.starts.clear();
        self.drift.fill(ClusterDrift::default());
        self.totals = DriftTotals::default();
        self.versions.fill(0);
        self.entries.clear();
        self.snaps.clear();
        self.scale = 0.0;
    }

    /// Decision counters accumulated over every pruned pass.
    pub fn counters(&self) -> PruneCounters {
        self.counters
    }

    /// Restarts the counters from zero (a re-partitioned engine's run).
    pub(crate) fn reset_counters(&mut self) {
        self.counters = PruneCounters::default();
    }

    /// Number of cache entries allocated: zero after a retire, then the
    /// slot count of the last pruned pass, so bounded by the engine's
    /// live-window high-water mark.
    pub fn cache_entries(&self) -> usize {
        self.entries.len()
    }

    /// Each cluster's accumulated drift coefficients, as of the last
    /// charge.
    pub fn drift(&self) -> &[ClusterDrift] {
        &self.drift
    }

    /// Opens one relocation pass over `slots` objects. A pruned pass grows
    /// the cache to cover every slot (new entries invalid) and takes the
    /// pass's floating-point scale. Does nothing when pruning is off.
    pub fn begin_pass(&mut self, slots: usize) {
        if !self.config.is_enabled() {
            return;
        }
        if slots > self.entries.len() {
            self.entries.resize(slots, CacheEntry::invalid());
            self.snaps.resize(slots * self.stride(), 0.0);
        }
        self.scale = fp_scale(self.stats());
    }

    /// Marks cluster `c` changed: it joins the dirty list the next charge
    /// reads.
    #[inline]
    fn touch(&mut self, c: usize) {
        if !self.dirty[c] {
            self.dirty[c] = true;
            self.changed.push(c);
        }
    }

    /// Charges each dirty cluster's net change from its start row to its
    /// statistics into its [`ClusterDrift`] and the drift totals as one
    /// transition, with the direct bound of the module docs, and makes
    /// the statistics its next start. A cluster that did not change is
    /// charged nothing; one that changed with fewer than 2 members at
    /// either end bumps its version instead of charging the remove
    /// direction. With no start rows yet, records every cluster and
    /// charges nothing.
    #[inline]
    fn charge(&mut self) {
        // Most reads find nothing changed since the last one.
        if self.changed.is_empty() && !self.starts.is_empty() {
            return;
        }
        self.charge_changed();
    }

    /// [`Self::charge`]'s body, kept out of line.
    fn charge_changed(&mut self) {
        let stats = &self.table.stats;
        if self.starts.is_empty() {
            for s in stats {
                self.starts.extend([s.size() as f64, spread(s)]);
                self.starts.extend_from_slice(s.mean_sum());
            }
            self.dirty.fill(false);
            self.changed.clear();
            return;
        }
        for c in self.changed.drain(..) {
            self.dirty[c] = false;
            let now = &stats[c];
            let stride = now.dims() + 2;
            let start = &mut self.starts[c * stride..(c + 1) * stride];
            let (n0, a0, s0) = (start[0] as usize, start[1], &start[2..]);
            let (n1, a1, s1) = (now.size(), spread(now), now.mean_sum());
            if n0 == n1 && a0 == a1 && s0 == s1 {
                continue;
            }
            let before = self.drift[c];
            let d = &mut self.drift[c];
            // Denominators n+1 (add direction) and n−1 (remove direction).
            let (p0, p1) = ((n0 + 1) as f64, (n1 + 1) as f64);
            let (r0, r1) = (n0 as f64 - 1.0, n1 as f64 - 1.0);
            let (add_mean, rem_mean) = mean_shifts(s0, s1, (p0, p1), (r0, r1));
            // The add direction is defined at every size.
            d.add_const += (t_term(n1, a1) - t_term(n0, a0)).abs();
            d.add_size += (1.0 / p1 - 1.0 / p0).abs();
            d.add_mean += add_mean;
            // Remove direction, denominators n−1: needs both sizes >= 2.
            if n0 < 2 || n1 < 2 {
                self.versions[c] = self.versions[c].wrapping_add(1);
            } else {
                d.rem_const += (u_term(n1, a1) - u_term(n0, a0)).abs();
                d.rem_size += (1.0 / r1 - 1.0 / r0).abs();
                d.rem_mean += rem_mean;
            }
            self.totals.absorb(before, self.drift[c]);
            start[..2].copy_from_slice(&[n1 as f64, a1]);
            start[2..].copy_from_slice(s1);
        }
    }

    /// Adds `v` to cluster `c`: one insert, or the second half of
    /// [`Self::relocate`]. `c` is marked changed and the table folds it
    /// with the plain `add_view` and rewrites its pricers; the next bound
    /// read charges it.
    #[inline]
    pub fn add(&mut self, c: usize, v: &MomentView<'_>) {
        self.touch(c);
        self.table.add(c, v);
    }

    /// Removes member `v` from cluster `c`: the [`Self::add`] counterpart
    /// through `remove_view`.
    #[inline]
    pub fn remove(&mut self, c: usize, v: &MomentView<'_>) {
        self.touch(c);
        self.table.remove(c, v);
    }

    /// The one relocation apply of Algorithm 1 (lines 10–13): moves object
    /// `i` (view `v`) from `src` to `dst` through [`Self::remove`] and
    /// [`Self::add`], and invalidates `i`'s cache entry.
    #[inline]
    pub fn relocate(&mut self, i: usize, src: usize, dst: usize, v: &MomentView<'_>) {
        self.remove(src, v);
        self.add(dst, v);
        if let Some(e) = self.entries.get_mut(i) {
            e.valid = false;
        }
    }

    /// The one relocation decision of Algorithm 1 (lines 8–9): the best
    /// move of object `i` (cluster `src`, slot generation `gen`, kernel
    /// view `v`) that lowers `J` by more than [`TOLERANCE`], as
    /// `(dst, delta)`, or `None`. Every candidate is priced through the
    /// pruner's [`PricingTable`].
    ///
    /// With pruning off this is the full scan, [`PricingTable::relocation`]
    /// filtered at `-TOLERANCE`, except that a member no candidate moves
    /// skips the fold. With pruning on (after [`Self::begin_pass`]) it runs
    /// the tier ladder of the module docs — skip, confirm the cached
    /// argmin, or full scan — counting each outcome, and caches a full scan
    /// that finds no move. Either way the answer is bit-identical to
    /// [`best_candidate`] filtered at `-TOLERANCE`. The caller applies a
    /// returned move through [`Self::relocate`].
    #[inline(always)]
    pub fn best_move(
        &mut self,
        i: usize,
        gen: u32,
        src: usize,
        v: &MomentView<'_>,
    ) -> Option<(usize, f64)> {
        if !self.config.is_enabled() {
            // The fold returns one of these candidates, so it moves nothing
            // unless one of them lies below the threshold.
            let table = &mut self.table;
            let gain = table.price_moves(src, v);
            if !table.moves(src, gain).any(|(_, delta)| delta < -TOLERANCE) {
                return None;
            }
            let (dst, delta, _) = fold(table.moves(src, gain))?;
            return (delta < -TOLERANCE).then_some((dst, delta));
        }
        match self.decide(i, gen, src, v) {
            PruneDecision::Skip => {
                self.counters.skips += 1;
                None
            }
            PruneDecision::ConfirmBest(dst) => {
                // Same argmin; its exact delta from the identical pricing the
                // full scan would do.
                self.counters.confirms += 1;
                let delta = self.table.confirm(src, dst, v);
                (delta < -TOLERANCE).then_some((dst, delta))
            }
            PruneDecision::FullScan => {
                self.counters.full_scans += 1;
                let (dst, delta, second) = self.table.relocation(src, v)?;
                if delta < -TOLERANCE {
                    return Some((dst, delta));
                }
                self.store(i, gen, src, (dst, delta, second));
                None
            }
        }
    }

    /// The placement scan of an arrival `v`, never pruned:
    /// [`best_insertion`]'s winner and bits. `None` only for `k = 0`.
    pub fn placement(&mut self, v: &MomentView<'_>) -> Option<(usize, f64)> {
        let deltas = self.price(v);
        fold(deltas.iter().copied().enumerate()).map(|(dst, delta, _)| (dst, delta))
    }

    /// Every cluster's add delta for `v`, in cluster order
    /// ([`PricingTable::price`]): what [`Self::placement`] folds.
    pub(crate) fn price(&mut self, v: &MomentView<'_>) -> &[f64] {
        self.table.price(v)
    }

    /// Evaluates the bound tests for object `i` (cluster `src`, kernel view
    /// `v`) against the current watermarks: the global drift totals and
    /// the per-cluster remove-direction versions (surgical invalidation:
    /// the entry is rejected iff `src`'s counter moved since store time —
    /// see the module docs). `gen` is the slot's current generation stamp:
    /// streaming engines recycle slots, and an entry stored for a departed
    /// occupant must not serve the slot's next tenant. An entry that is
    /// unusable on its own is rejected first; otherwise every change to
    /// the statistics since the last charge is charged before any
    /// watermark is read. [`Self::best_move`] acts on the returned
    /// decision. Slot `i` must be covered by the last
    /// [`Self::begin_pass`].
    ///
    /// Tier 0 diffs the global totals against the entry's inline snapshot —
    /// O(1), one cache line — and resolves the overwhelming majority of
    /// decisions in quiet passes. Only when that over-approximation is too
    /// loose does the O(k) per-cluster walk run (per-coefficient maxima over
    /// candidates instead of sums over all clusters).
    pub fn decide(&mut self, i: usize, gen: u32, src: usize, v: &MomentView<'_>) -> PruneDecision {
        let e = self.entries[i];
        if !e.valid
            || e.gen != gen
            || e.src != src
            || e.best_dst == src
            || e.best_dst >= self.drift.len()
        {
            return PruneDecision::FullScan;
        }
        self.charge();
        if self.versions[src] != e.src_version {
            return PruneDecision::FullScan;
        }
        let (drift, totals) = (&self.drift, self.totals);
        let q = v.sum_var + v.sum_mu_sq;
        let r = v.norm_mu;
        let guard = slack(self.scale, q, r);

        // Tier 0: global-sum drift, O(1). The sums over all clusters bound
        // both the candidate-maximum add drift and the src remove drift.
        let g = e.totals;
        let add0 = (totals.add_const - g.add_const).max(0.0)
            + (totals.add_size - g.add_size).max(0.0) * q
            + 2.0 * (totals.add_mean - g.add_mean).max(0.0) * r;
        let rem0 = (totals.rem_const - g.rem_const).max(0.0)
            + (totals.rem_size - g.rem_size).max(0.0) * q
            + 2.0 * (totals.rem_mean - g.rem_mean).max(0.0) * r;
        if e.best - (add0 + rem0 + guard) >= -TOLERANCE {
            return PruneDecision::Skip;
        }

        // Per-cluster refinement. The cached best's own add-direction drift
        // (`d_best`) is kept apart from the per-coefficient maxima over the
        // remaining candidates (`oth_*`): `e.second` is the cached minimum
        // over exactly those clusters, so their drift is charged against the
        // usually-larger second margin.
        let k = drift.len();
        let stride = self.stride();
        let row = &self.snaps[i * stride..(i + 1) * stride];
        let mut oth_const = 0.0f64;
        let mut oth_size = 0.0f64;
        let mut oth_mean = 0.0f64;
        for (c, d) in drift.iter().enumerate() {
            if c == src || c == e.best_dst {
                continue;
            }
            let snap = &row[3 * c..3 * c + 3];
            oth_const = oth_const.max(d.add_const - snap[0]);
            oth_size = oth_size.max(d.add_size - snap[1]);
            oth_mean = oth_mean.max(d.add_mean - snap[2]);
        }
        let d_src = drift[src];
        let snap_src = &row[3 * k..];
        let rem = (d_src.rem_const - snap_src[0]).max(0.0)
            + (d_src.rem_size - snap_src[1]).max(0.0) * q
            + 2.0 * (d_src.rem_mean - snap_src[2]).max(0.0) * r;
        let d_bst = drift[e.best_dst];
        let snap_bst = &row[3 * e.best_dst..3 * e.best_dst + 3];
        let best_drift = (d_bst.add_const - snap_bst[0]).max(0.0)
            + (d_bst.add_size - snap_bst[1]).max(0.0) * q
            + 2.0 * (d_bst.add_mean - snap_bst[2]).max(0.0) * r;
        let oth_drift = oth_const.max(0.0) + oth_size.max(0.0) * q + 2.0 * oth_mean.max(0.0) * r;

        // Tier 1: no candidate can have dropped below −TOLERANCE.
        if e.best - (best_drift + rem + guard) >= -TOLERANCE
            && e.second - (oth_drift + rem + guard) >= -TOLERANCE
        {
            return PruneDecision::Skip;
        }
        // Tier 2: the cached argmin provably still wins (the remove term is
        // common to all candidates, so only add-direction drift matters).
        if e.best + best_drift + guard < e.second - oth_drift - guard {
            return PruneDecision::ConfirmBest(e.best_dst);
        }
        PruneDecision::FullScan
    }

    /// Records the outcome of a full scan of object `i` that applied no
    /// move — `scan` is its `(best_dst, best, second)` — plus snapshots of
    /// the global drift totals (inline), of `src`'s remove-direction
    /// version, of every cluster's add-direction accumulators and of
    /// `src`'s remove-direction ones (the watermarks later
    /// [`Self::decide`] calls diff against), taken after charging every
    /// change to the statistics since the last charge. `scan` must have
    /// been computed against the current statistics, and slot `i` must be
    /// covered by the last [`Self::begin_pass`].
    pub fn store(&mut self, i: usize, gen: u32, src: usize, scan: (usize, f64, f64)) {
        self.charge();
        let (best_dst, best, second) = scan;
        self.entries[i] = CacheEntry {
            valid: true,
            gen,
            src,
            src_version: self.versions[src],
            best_dst,
            best,
            second,
            totals: self.totals,
        };
        let (k, stride) = (self.drift.len(), self.stride());
        let row = &mut self.snaps[i * stride..(i + 1) * stride];
        for (snap, d) in row.chunks_exact_mut(3).zip(&self.drift) {
            snap.copy_from_slice(&[d.add_const, d.add_size, d.add_mean]);
        }
        let d = self.drift[src];
        row[3 * k..].copy_from_slice(&[d.rem_const, d.rem_size, d.rem_mean]);
    }
}

/// Floating-point safety margin added on top of the accumulated drift: a
/// tiny multiple of the cluster-aggregate magnitude (`fp_scale`, the source
/// of cancellation noise inside a delta evaluation) plus one of the object's
/// own scalar magnitudes. See the module docs.
pub fn slack(fp_scale: f64, q: f64, r: f64) -> f64 {
    1e-12 * fp_scale + 1e-9 * (1.0 + q + r)
}

/// The relocation acceptance threshold: a move applies iff its delta-`J`
/// is below `-TOLERANCE`. The only relocation threshold in the engine:
/// every relocation loop decides against it through [`Pruner::best_move`], which
/// keeps their decisions bit-identical. It guards the termination argument
/// of Proposition 4 against floating-point jitter.
pub const TOLERANCE: f64 = 1e-9;

/// The per-pass aggregate-magnitude scale fed to [`slack`].
fn fp_scale(stats: &[ClusterStats]) -> f64 {
    stats
        .iter()
        .map(ClusterStats::magnitude)
        .fold(0.0f64, f64::max)
}

/// The reference `k−1` candidate scan: removal gain from `src` plus
/// `delta_j_add` against every other cluster, strict-less minimum (first
/// index wins ties). A plain stateless loop, one dispatched dot product per
/// candidate: the engine decides through [`PricingTable::relocation`],
/// which returns the same winner and the same bits, and this loop is the
/// oracle the reference model and the benchmarks hold it to.
pub fn best_candidate(
    stats: &[ClusterStats],
    src: usize,
    v: &MomentView<'_>,
) -> Option<(usize, f64)> {
    let removal_gain = stats[src].delta_j_remove(v);
    let moves = stats.iter().enumerate().filter(|&(c, _)| c != src);
    let best = fold(moves.map(|(c, stat)| (c, removal_gain + stat.delta_j_add(v))));
    best.map(|(dst, delta, _)| (dst, delta))
}

/// The reference *placement* scan: the cluster minimizing `delta_j_add`
/// over **all** `k` clusters (no source to leave, no removal gain), O(k·m)
/// by Corollary 1, with the same strict-less, first-index-wins-ties fold
/// as [`best_candidate`]. `IncrementalUcpc::insert` places through
/// [`Pruner::placement`], which returns the same winner and the same
/// bits. `None` only for an empty cluster slice.
pub fn best_insertion(stats: &[ClusterStats], v: &MomentView<'_>) -> Option<(usize, f64)> {
    let best = fold(
        stats
            .iter()
            .enumerate()
            .map(|(c, stat)| (c, stat.delta_j_add(v))),
    );
    best.map(|(dst, delta, _)| (dst, delta))
}

/// Folds `(cluster, delta)` candidates, offered in ascending cluster order,
/// into `(best, delta, second)` with [`consider`]. `None` when there is no
/// candidate.
#[inline(always)]
fn fold(candidates: impl Iterator<Item = (usize, f64)>) -> Option<(usize, f64, f64)> {
    let mut best = None;
    let mut second = f64::INFINITY;
    for (c, delta) in candidates {
        consider(&mut best, &mut second, c, delta);
    }
    best.map(|(dst, delta)| (dst, delta, second))
}

/// Folds one candidate delta into the best/second state with the
/// strict-less, first-index-wins-ties semantics the exactness guarantee
/// pins: `second` ends as the minimum over every candidate but the winner
/// (`+∞` when there is none). Candidates must be offered in ascending
/// cluster order.
#[inline(always)]
fn consider(best: &mut Option<(usize, f64)>, second: &mut f64, dst: usize, delta: f64) {
    match *best {
        Some((_, bd)) if delta >= bd => {
            if delta < *second {
                *second = delta;
            }
        }
        Some((_, bd)) => {
            *second = bd;
            *best = Some((dst, delta));
        }
        None => *best = Some((dst, delta)),
    }
}

/// The engine's pricing table: the clusters' statistics and, beside them,
/// each cluster's hoisted add pricer and [`RemovePricer`], so that a scan
/// prices all `k` candidates with one [`price_block`] call — every cross
/// term over the clusters' `mean_sum` rows, read in place, and every add
/// delta from the pricers — instead of a dispatched dot product and two
/// divisions per candidate.
///
/// The add pricers are stored as [`price_block`]'s five `k`-long pricer
/// columns (each cluster's `AddPricer` constants, in [`add_delta`]'s
/// order); the remove pricers, which a decision reads one at a time, as a
/// row. The table owns the statistics, and its folds are the only way they
/// change: a single-cluster fold rewrites that cluster's pricers in the
/// same call, and the wholesale `refold` derives every cluster's pricers
/// once, so every pricer is always the one its cluster's statistics
/// give. A pricer is a pure function of the statistics and
/// [`price_block`] is bit-identical to
/// [`dot`](ucpc_uncertain::simd::dot) followed by
/// [`AddPricer::price`](crate::objective::AddPricer::price), so the table
/// prices every candidate with the bits of [`ClusterStats::delta_j_add`] /
/// [`ClusterStats::delta_j_remove`]: the scans agree with
/// [`best_insertion`] and [`best_candidate`] bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct PricingTable {
    /// Corollary 1's sums, one per cluster.
    stats: Vec<ClusterStats>,
    /// Column `j` holds entry `j` of every cluster's
    /// `AddPricer::constants`.
    add: [Vec<f64>; 5],
    /// Every cluster's removal pricer.
    remove: Vec<RemovePricer>,
    /// The last pricing's cross terms `⟨s_c, mu⟩`, one per cluster.
    cross: Vec<f64>,
    /// The last pricing's add deltas, one per cluster ([`Self::price`]).
    deltas: Vec<f64>,
}

impl PricingTable {
    /// A table over `stats`, one cluster per entry, with every pricer
    /// derived by the wholesale `refold`: what a snapshot restore installs.
    pub fn new(stats: Vec<ClusterStats>) -> Self {
        let k = stats.len();
        let mut table = Self {
            stats,
            add: std::array::from_fn(|_| vec![0.0; k]),
            remove: Vec::with_capacity(k),
            cross: vec![0.0; k],
            deltas: vec![0.0; k],
        };
        table.refold(|_| ());
        table
    }

    /// The one wholesale change: `f` refolds the statistics in place, then
    /// every cluster's pricers are derived once. Returns what `f` returns.
    pub(crate) fn refold<R>(&mut self, f: impl FnOnce(&mut [ClusterStats]) -> R) -> R {
        let out = f(&mut self.stats);
        self.remove.clear();
        self.remove
            .extend(self.stats.iter().map(ClusterStats::remove_pricer));
        for c in 0..self.stats.len() {
            self.write_adder(c, self.stats[c].add_pricer());
        }
        out
    }

    /// Folds `v` into cluster `c` and rewrites `c`'s pricers.
    #[inline]
    fn add(&mut self, c: usize, v: &MomentView<'_>) {
        self.stats[c].add_view(v);
        self.derive(c);
    }

    /// Folds member `v` out of cluster `c` and rewrites `c`'s pricers.
    #[inline]
    fn remove(&mut self, c: usize, v: &MomentView<'_>) {
        self.stats[c].remove_view(v);
        self.derive(c);
    }

    /// Rewrites cluster `c`'s add pricer and remover from its statistics,
    /// both derived before either is stored.
    #[inline]
    fn derive(&mut self, c: usize) {
        let stat = &self.stats[c];
        let (adder, remover) = (stat.add_pricer(), stat.remove_pricer());
        self.write_adder(c, adder);
        self.remove[c] = remover;
    }

    /// Writes `adder`'s constants into cluster `c`'s column entries.
    #[inline]
    fn write_adder(&mut self, c: usize, adder: AddPricer) {
        for (column, value) in self.add.iter_mut().zip(adder.constants()) {
            column[c] = value;
        }
    }

    /// Cluster `c`'s add-pricer constants as the columns hold them.
    #[inline]
    fn adder(&self, c: usize) -> [f64; 5] {
        self.add.each_ref().map(|column| column[c])
    }

    /// Prices an arrival `v` against every cluster: one [`price_block`]
    /// fills `cross` with `⟨s_c, mu⟩` over the clusters' own rows and
    /// returns each cluster's add delta in cluster order, the bits of
    /// `stats[c].delta_j_add(v)`. Placement, relocation and the serving
    /// answers all price through this one call.
    pub(crate) fn price(&mut self, v: &MomentView<'_>) -> &[f64] {
        price_block(
            v.mu,
            [v.sum_var, v.sum_mu_sq, v.sum_mu2],
            |c| self.stats[c].mean_sum(),
            &self.add,
            &mut self.cross,
            &mut self.deltas,
        );
        &self.deltas
    }

    /// The relocation scan of a member of `src`: [`best_candidate`]'s
    /// winner and bits, plus the minimum delta over the candidates other
    /// than the winner (`+∞` when `k = 2`), which a pruned full scan
    /// caches as the second-best margin. `None` when `k = 1`.
    pub fn relocation(&mut self, src: usize, v: &MomentView<'_>) -> Option<(usize, f64, f64)> {
        let gain = self.price_moves(src, v);
        fold(self.moves(src, gain))
    }

    /// Prices a member of `src` against every cluster ([`Self::price`])
    /// and returns its removal gain, which [`Self::moves`] adds to each
    /// candidate's add delta.
    fn price_moves(&mut self, src: usize, v: &MomentView<'_>) -> f64 {
        self.price(v);
        let (var, mu_sq, mu2) = (v.sum_var, v.sum_mu_sq, v.sum_mu2);
        self.remove[src].price(var, mu_sq, mu2, self.cross[src])
    }

    /// The priced relocation candidates of a member of `src` with removal
    /// gain `gain`: `(dst, gain + add delta)` for every cluster but `src`,
    /// in cluster order.
    fn moves(&self, src: usize, gain: f64) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.deltas
            .iter()
            .enumerate()
            .filter(move |&(c, _)| c != src)
            .map(move |(c, &add)| (c, gain + add))
    }

    /// The exact delta of moving a member of `src` to `dst`, both rows in
    /// one two-row `dot_block`: the bits a full scan computes for `dst`.
    fn confirm(&self, src: usize, dst: usize, v: &MomentView<'_>) -> f64 {
        let mut cross = [0.0; 2];
        dot_block(v.mu, |r| self.stats[[src, dst][r]].mean_sum(), &mut cross);
        let (var, mu_sq, mu2) = (v.sum_var, v.sum_mu_sq, v.sum_mu2);
        self.remove[src].price(var, mu_sq, mu2, cross[0])
            + add_delta(self.adder(dst), [var, mu_sq, mu2], cross[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucpc_uncertain::{MomentArena, UncertainObject, UnivariatePdf};

    #[test]
    fn pruning_knob_parses_all_spellings_and_warns_on_typos() {
        for on in ["bounds", "on", "1"] {
            assert_eq!(PruningConfig::parse(on), Some(PruningConfig::Bounds));
        }
        for off in ["off", "0"] {
            assert_eq!(PruningConfig::parse(off), Some(PruningConfig::Off));
        }
        assert_eq!(PruningConfig::parse("bonds"), None);
        // Routed through the shared reader, an invalid value must warn, not
        // silently fall back (env-free: feed the raw string directly).
        let (outcome, warning) = ucpc_uncertain::env::parse_knob(
            "UCPC_PRUNING",
            Some("bonds"),
            "bounds|on|1|off|0",
            PruningConfig::parse,
        );
        assert_eq!(outcome.value(), None);
        assert!(warning.unwrap().contains("UCPC_PRUNING=\"bonds\""));
    }

    fn objects(n: usize) -> Vec<UncertainObject> {
        (0..n)
            .map(|i| {
                UncertainObject::new(vec![
                    UnivariatePdf::normal(i as f64, 0.3),
                    UnivariatePdf::normal(-(i as f64) * 0.5, 0.2),
                ])
            })
            .collect()
    }

    fn stats_for(arena: &MomentArena, labels: &[usize], k: usize) -> Vec<ClusterStats> {
        let mut stats = vec![ClusterStats::empty(arena.dims()); k];
        for (i, &l) in labels.iter().enumerate() {
            stats[l].add_view(&arena.view(i));
        }
        stats
    }

    #[test]
    fn env_knob_parses() {
        assert!(PruningConfig::Bounds.is_enabled());
        assert!(!PruningConfig::Off.is_enabled());
    }

    /// A pruning-enabled pruner over `stats` with a pass begun over `n`
    /// slots: its cache covers them.
    fn pruner(stats: Vec<ClusterStats>, n: usize) -> Pruner {
        let mut pruner = Pruner::new(stats, PruningConfig::Bounds);
        pruner.begin_pass(n);
        pruner
    }

    impl Pruner {
        /// Whether this pruner holds the state [`Pruner::new`] builds,
        /// counters and configuration aside.
        pub(crate) fn is_fresh(&self) -> bool {
            let zero = ClusterDrift::default();
            self.entries.is_empty()
                && self.snaps.is_empty()
                && self.starts.is_empty()
                && self.changed.is_empty()
                && self.dirty.iter().all(|&d| !d)
                && self.totals == DriftTotals::default()
                && self.versions.iter().all(|&v| v == 0)
                && self.drift.iter().all(|&d| d == zero)
        }
    }

    #[test]
    fn fresh_cache_forces_full_scans() {
        let data = objects(6);
        let arena = MomentArena::from_objects(&data);
        let labels = vec![0, 0, 0, 1, 1, 1];
        let mut pruner = pruner(stats_for(&arena, &labels, 2), 6);
        let v = arena.view(0);
        assert_eq!(pruner.decide(0, 0, 0, &v), PruneDecision::FullScan);
    }

    #[test]
    fn unchanged_statistics_allow_skip_and_retire_invalidates() {
        let data = objects(6);
        let arena = MomentArena::from_objects(&data);
        let labels = vec![0, 0, 0, 1, 1, 1];
        let mut pruner = pruner(stats_for(&arena, &labels, 2), 6);
        let v = arena.view(0);
        // A converged object: its best candidate delta is comfortably
        // positive, so with zero drift tier 0 must fire.
        pruner.store(0, 0, 0, (1, 5.0, f64::INFINITY));
        assert_eq!(pruner.decide(0, 0, 0, &v), PruneDecision::Skip);
        // Same entry under a later slot generation (the slot was recycled
        // to a new occupant): stale, full scan.
        assert_eq!(pruner.decide(0, 1, 0, &v), PruneDecision::FullScan);
        // Same entry after the source cluster's remove-direction version
        // moved (a small transition touched it): surgically stale.
        pruner.versions = vec![1, 0];
        assert_eq!(pruner.decide(0, 0, 0, &v), PruneDecision::FullScan);
        // A bump of a *non-source* cluster's version leaves the entry
        // usable — its remove-direction history is never consulted here.
        pruner.versions = vec![0, 7];
        assert_eq!(pruner.decide(0, 0, 0, &v), PruneDecision::Skip);
        // Churn moves the watermarks once a decision charges it; a retire
        // drops the entry and zeroes every watermark, keeping the counters.
        pruner.relocate(4, 1, 0, &arena.view(4));
        assert_eq!(
            pruner.drift(),
            [ClusterDrift::default(); 2],
            "not yet charged"
        );
        pruner.decide(0, 0, 0, &v);
        assert!(pruner.drift().iter().all(|&d| d != ClusterDrift::default()));
        pruner.counters.skips = 3;
        pruner.retire();
        assert_eq!(pruner.cache_entries(), 0, "the entry is gone");
        assert!(pruner.is_fresh(), "the watermarks are zero");
        assert_eq!(pruner.counters().skips, 3, "counters survive a retire");
        assert_eq!(pruner.config(), PruningConfig::Bounds);
        // The next pass regrows the cache invalid: the old entry is dead.
        pruner.begin_pass(6);
        assert_eq!(pruner.decide(0, 0, 0, &v), PruneDecision::FullScan);
    }

    #[test]
    fn negative_best_with_margin_confirms_argmin() {
        let data = objects(9);
        let arena = MomentArena::from_objects(&data);
        let labels = vec![0, 0, 0, 1, 1, 1, 2, 2, 2];
        let mut pruner = pruner(stats_for(&arena, &labels, 3), 9);
        let v = arena.view(0);
        // Cached best is improving (−2) and far from second (+7): tier 2.
        pruner.store(0, 0, 0, (2, -2.0, 7.0));
        assert_eq!(pruner.decide(0, 0, 0, &v), PruneDecision::ConfirmBest(2));
        // Relocating the object invalidates its entry.
        pruner.relocate(0, 0, 2, &v);
        assert!(!pruner.entries[0].valid);
        assert_eq!(pruner.decide(0, 0, 2, &v), PruneDecision::FullScan);
    }

    #[test]
    fn accumulated_drift_widens_the_bound_until_rescan() {
        let data = objects(8);
        let arena = MomentArena::from_objects(&data);
        let labels = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let mut pruner = pruner(stats_for(&arena, &labels, 2), 8);
        let v = arena.view(0);
        // Barely-positive margin: sound to skip only while nothing moves.
        pruner.store(0, 0, 0, (1, 0.05, f64::INFINITY));
        assert_eq!(pruner.decide(0, 0, 0, &v), PruneDecision::Skip);
        // Relocate object 7 from cluster 1 to cluster 0: both clusters
        // drift and the tiny margin no longer proves a skip. With k = 2 the
        // argmin is trivially stable (there is only one candidate), so the
        // decision degrades to tier 2, which recomputes the exact delta —
        // never to an unsound skip.
        pruner.relocate(7, 1, 0, &arena.view(7));
        pruner.begin_pass(8);
        assert_eq!(pruner.decide(0, 0, 0, &v), PruneDecision::ConfirmBest(1));
        assert_eq!(pruner.versions, [0, 0], "sizes stay >= 2: no version bump");
    }

    #[test]
    fn per_cluster_refinement_is_tighter_than_global_totals() {
        // Three clusters; the observed object's candidates are 1 and 2.
        // Drift concentrated in cluster 1 inflates the global sums, but the
        // per-cluster maxima only see cluster 1's share — both must agree
        // the entry is unusable only when cluster 1's own drift says so.
        let data = objects(12);
        let arena = MomentArena::from_objects(&data);
        let labels = vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2];
        let mut pruner = pruner(stats_for(&arena, &labels, 3), 12);
        let v = arena.view(0);
        pruner.store(0, 0, 0, (2, 0.4, f64::INFINITY));
        // Churn objects between clusters 1 and 2 (the candidate set):
        // eventually even the per-cluster bound must give up and rescan.
        let mut gave_up = false;
        for step in 0..50 {
            let (src, dst) = if step % 2 == 0 { (1, 2) } else { (2, 1) };
            let i = 4 + (step % 4);
            pruner.relocate(i, src, dst, &arena.view(i));
            pruner.begin_pass(12);
            let decision = pruner.decide(0, 0, 0, &v);
            assert_eq!(pruner.versions, [0, 0, 0]);
            if decision != PruneDecision::Skip {
                gave_up = true;
                break;
            }
        }
        assert!(gave_up, "accumulated candidate drift must force a rescan");
    }

    #[test]
    fn best_move_cached_and_cacheless_agree_and_count_one_tier_per_call() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (n, m, k, seed) in [
            (30usize, 2usize, 3usize, 1u64),
            (60, 5, 6, 2),
            (80, 12, 4, 3),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let data: Vec<UncertainObject> = (0..n)
                .map(|_| {
                    let center = rng.gen_range(0..k) as f64 * 6.0;
                    UncertainObject::new(
                        (0..m)
                            .map(|_| {
                                let mean = center + rng.gen_range(-3.0..3.0);
                                UnivariatePdf::normal(mean, rng.gen_range(0.05..1.0))
                            })
                            .collect(),
                    )
                })
                .collect();
            let arena = MomentArena::from_objects(&data);
            let mut labels: Vec<usize> = (0..n)
                .map(|i| if i < k { i } else { rng.gen_range(0..k) })
                .collect();
            let stats = stats_for(&arena, &labels, k);
            // Each pruner folds every move into its own copy of the
            // statistics, so each table sees every relocation.
            let mut plain = Pruner::new(stats.clone(), PruningConfig::Off);
            let mut pruned = Pruner::new(stats, PruningConfig::Bounds);
            for _pass in 0..6 {
                plain.begin_pass(n);
                pruned.begin_pass(n);
                // Indexed: the body reassigns `labels[i]` mid-pass.
                #[allow(clippy::needless_range_loop)]
                for i in 0..n {
                    let src = labels[i];
                    if pruned.stats()[src].size() == 1 {
                        continue;
                    }
                    let v = arena.view(i);
                    let before = pruned.counters();
                    let uncached = plain.best_move(i, 0, src, &v);
                    let want =
                        best_candidate(pruned.stats(), src, &v).filter(|&(_, d)| d < -TOLERANCE);
                    assert_eq!(
                        uncached.map(|(c, d)| (c, d.to_bits())),
                        want.map(|(c, d)| (c, d.to_bits()))
                    );
                    let cached = pruned.best_move(i, 0, src, &v);
                    let counters = pruned.counters();
                    let tiers = [
                        counters.skips - before.skips,
                        counters.confirms - before.confirms,
                        counters.full_scans - before.full_scans,
                    ];
                    assert_eq!(
                        tiers.iter().sum::<usize>(),
                        1,
                        "one tier per call: {tiers:?}"
                    );
                    assert!(tiers.iter().all(|&t| t <= 1));
                    assert_eq!(
                        cached.map(|(c, d)| (c, d.to_bits())),
                        uncached.map(|(c, d)| (c, d.to_bits())),
                        "object {i} (n={n}, m={m}, k={k})"
                    );
                    if let Some((dst, _)) = cached {
                        pruned.relocate(i, src, dst, &v);
                        plain.relocate(i, src, dst, &v);
                        labels[i] = dst;
                    }
                    assert_eq!(
                        plain.stats(),
                        pruned.stats(),
                        "object {i}: the copies fold alike"
                    );
                }
            }
            let counters = pruned.counters();
            assert!(
                counters.skips + counters.confirms > 0,
                "later passes must reuse cached bounds (n={n})"
            );
            assert_eq!(plain.counters(), PruneCounters::default());
        }
    }

    /// The unpruned decision for a member of `src` at `v`, on a fresh
    /// pruner and so a fresh table.
    fn unpruned(stats: &[ClusterStats], src: usize, v: &MomentView<'_>) -> Option<(usize, u64)> {
        let mut pruner = Pruner::new(stats.to_vec(), PruningConfig::Off);
        let decided = pruner.best_move(0, 0, src, v);
        decided.map(|(c, d)| (c, d.to_bits()))
    }

    /// The reference scan filtered at the threshold, as [`unpruned`] reads.
    fn filtered(stats: &[ClusterStats], src: usize, v: &MomentView<'_>) -> Option<(usize, u64)> {
        let best = best_candidate(stats, src, v).filter(|&(_, d)| d < -TOLERANCE);
        best.map(|(c, d)| (c, d.to_bits()))
    }

    #[test]
    fn an_unpruned_decision_is_the_reference_scan_filtered_at_the_threshold() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use ucpc_uncertain::Moments;
        // A point mass at the origin prices every add into a cluster with
        // `Ψ = S₂ = 0` at exactly `0.0`, and its removal from a singleton
        // at `−J = −Φ`: every candidate ties at exactly `−Φ`.
        let origin = MomentArena::from_moments([&Moments::from_mu_mu2(vec![0.0], vec![0.0])]);
        let singleton = |phi: f64| {
            ClusterStats::from_raw_parts(vec![0.0], vec![phi], vec![0.0], 1, 0.0, phi, 0.0)
        };
        // `−just_below` is the float next below `−TOLERANCE`.
        let just_below = TOLERANCE.next_up();
        for k in [1, 2, 3, 8] {
            for (phi, moves) in [
                (TOLERANCE, false),
                (just_below, true),
                (0.0, false),
                (1.0, true),
            ] {
                let stats = vec![singleton(phi); k];
                for src in 0..k {
                    let v = origin.view(0);
                    assert_eq!(stats[src].delta_j_remove(&v), -phi);
                    assert_eq!(stats[src].delta_j_add(&v), 0.0);
                    // The tie goes to the first cluster but `src`.
                    let first = (0..k).find(|&c| c != src).filter(|_| moves);
                    let want = first.map(|dst| (dst, (-phi).to_bits()));
                    assert_eq!(filtered(&stats, src, &v), want, "k={k} phi={phi}");
                    assert_eq!(unpruned(&stats, src, &v), want, "k={k} phi={phi}");
                }
            }
            // Real clusters: every member against every other cluster.
            let mut rng = StdRng::seed_from_u64(k as u64);
            for m in [2usize, 16] {
                let n = 6 * k;
                let data: Vec<UncertainObject> = (0..n)
                    .map(|_| {
                        let center = rng.gen_range(0..k) as f64 * 4.0;
                        let pdfs = (0..m)
                            .map(|_| UnivariatePdf::normal(center + rng.gen_range(-3.0..3.0), 0.5));
                        UncertainObject::new(pdfs.collect())
                    })
                    .collect();
                let arena = MomentArena::from_objects(&data);
                let labels: Vec<usize> = (0..n).map(|i| i % k).collect();
                let stats = stats_for(&arena, &labels, k);
                let mut moved = 0;
                for (i, &src) in labels.iter().enumerate() {
                    let v = arena.view(i);
                    let want = filtered(&stats, src, &v);
                    assert_eq!(unpruned(&stats, src, &v), want, "k={k} m={m} i={i}");
                    moved += usize::from(want.is_some());
                }
                assert!(k == 1 || moved > 0, "some member moves (k={k}, m={m})");
            }
        }
    }

    #[test]
    fn best_insertion_matches_scalar_placement_loop() {
        // Rows below and above the SIMD dispatch threshold, odd and even k,
        // empty clusters included.
        for m in [2usize, 32] {
            let data: Vec<UncertainObject> = (0..14)
                .map(|i| {
                    UncertainObject::new(
                        (0..m)
                            .map(|j| {
                                UnivariatePdf::normal(
                                    (i * m + j) as f64 * 0.3 - 4.0,
                                    0.2 + j as f64 * 0.01,
                                )
                            })
                            .collect(),
                    )
                })
                .collect();
            let arena = MomentArena::from_objects(&data);
            for k in [1usize, 2, 4, 5] {
                let labels: Vec<usize> = (0..12).map(|i| i % k).collect();
                let stats = stats_for(&arena, &labels, k + 1); // last cluster empty
                for probe in 12..14 {
                    let v = arena.view(probe);
                    let (got_c, got_d) = best_insertion(&stats, &v).expect("non-empty stats");
                    let mut want_c = 0usize;
                    let mut want_d = f64::INFINITY;
                    for (c, stat) in stats.iter().enumerate() {
                        let d = stat.delta_j_add(&v);
                        if d < want_d {
                            want_d = d;
                            want_c = c;
                        }
                    }
                    assert_eq!(got_c, want_c, "m={m} k={k} probe={probe}");
                    assert_eq!(got_d.to_bits(), want_d.to_bits(), "m={m} k={k}");
                    let placed = Pruner::new(stats.clone(), PruningConfig::Off).placement(&v);
                    assert_eq!(
                        placed.map(|(c, d)| (c, d.to_bits())),
                        Some((want_c, want_d.to_bits()))
                    );
                }
            }
        }
    }

    /// Asserts bit for bit that every cluster's pricers in `pruner`'s
    /// table are the ones its statistics give.
    fn assert_current(pruner: &Pruner, what: &str) {
        let table = &pruner.table;
        for (c, stat) in table.stats.iter().enumerate() {
            let want = stat.add_pricer().constants().map(f64::to_bits);
            assert_eq!(table.adder(c).map(f64::to_bits), want, "{what}, c={c}");
            let want = stat.remove_pricer().bits();
            assert_eq!(table.remove[c].bits(), want, "{what}, c={c}");
        }
    }

    #[test]
    fn every_pricer_is_current_after_every_fold() {
        // k on both sides of 64 and past 128; edits land among the first
        // and the last 64 clusters, and every kind of fold is followed by
        // a check of every cluster's pricers.
        let m = 16;
        let data: Vec<UncertainObject> = (0..300)
            .map(|i| {
                let mean = |j: usize| ((i * 7 + j * 3) % 23) as f64 * 0.4 - 4.0;
                UncertainObject::new(
                    (0..m)
                        .map(|j| UnivariatePdf::normal(mean(j), 0.2))
                        .collect(),
                )
            })
            .collect();
        let arena = MomentArena::from_objects(&data);
        for k in [63usize, 64, 65, 130] {
            let labels: Vec<usize> = (0..2 * k).map(|i| i % k).collect();
            let mut pruner = Pruner::new(stats_for(&arena, &labels, k), PruningConfig::Off);
            assert_current(&pruner, &format!("k={k}, new"));
            // The arrivals folded in so far, with their clusters.
            let mut members: Vec<(usize, usize)> = Vec::new();
            for (step, i) in (2 * k..2 * k + 40).enumerate() {
                let v = arena.view(i);
                let deltas = pruner.price(&v).to_vec();
                for (c, (delta, stat)) in deltas.iter().zip(pruner.stats()).enumerate() {
                    let want = stat.delta_j_add(&v);
                    assert_eq!(delta.to_bits(), want.to_bits(), "k={k}, step {step}, c={c}");
                }
                let c = if step % 2 == 0 {
                    k - 1 - step % 3
                } else {
                    step % 3
                };
                let what = format!("k={k}, step {step}");
                pruner.add(c, &v);
                members.push((i, c));
                assert_current(&pruner, &format!("{what}, add"));
                match step % 4 {
                    1 => {
                        let (j, from) = members.remove(0);
                        pruner.remove(from, &arena.view(j));
                        assert_current(&pruner, &format!("{what}, remove"));
                    }
                    3 => {
                        let (j, from) = members[0];
                        let to = (from + 1) % k;
                        pruner.relocate(j, from, to, &arena.view(j));
                        members[0].1 = to;
                        assert_current(&pruner, &format!("{what}, relocate"));
                    }
                    _ => {}
                }
                if step % 10 == 4 {
                    // Every cluster takes its successor's statistics.
                    pruner.refold(|stats| stats.rotate_left(1));
                    for (_, c) in &mut members {
                        *c = (*c + k - 1) % k;
                    }
                    assert_current(&pruner, &format!("{what}, refold"));
                }
                if step % 10 == 9 {
                    pruner.retire();
                    assert_current(&pruner, &format!("{what}, retire"));
                }
            }
        }
    }

    #[test]
    fn a_charge_with_no_change_since_the_last_charge_adds_exactly_zero() {
        let data = objects(8);
        let arena = MomentArena::from_objects(&data);
        let labels = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let mut pruner = pruner(stats_for(&arena, &labels, 2), 8);
        // The first charge records every cluster and charges nothing.
        pruner.store(0, 0, 0, (1, 5.0, 6.0));
        assert!(pruner.drift.iter().all(|&d| d == ClusterDrift::default()));
        // Two moves, charged by the next read, make every add watermark
        // non-zero.
        pruner.relocate(7, 1, 0, &arena.view(7));
        pruner.relocate(6, 1, 0, &arena.view(6));
        assert_eq!(pruner.changed, [1, 0], "each changed cluster listed once");
        pruner.decide(0, 0, 0, &arena.view(0));
        assert!(pruner.drift.iter().all(|d| d.add_size > 0.0));
        assert!(pruner.changed.is_empty(), "the charge consumes the list");
        assert!(pruner.dirty.iter().all(|&d| !d));
        let (drift, totals, versions) =
            (pruner.drift.clone(), pruner.totals, pruner.versions.clone());
        // Further reads, a new pass and a cluster marked changed whose
        // statistics did not change all charge exactly nothing.
        pruner.decide(0, 0, 0, &arena.view(0));
        pruner.store(1, 0, 0, (1, 5.0, 6.0));
        pruner.begin_pass(8);
        pruner.touch(0);
        pruner.decide(0, 0, 0, &arena.view(0));
        assert_eq!(pruner.drift, drift);
        assert_eq!(pruner.totals, totals);
        assert_eq!(pruner.versions, versions);
        // With pruning off a pass caches nothing, so it leaves the pruner
        // as new built it.
        let mut off = Pruner::new(pruner.stats().to_vec(), PruningConfig::Off);
        off.begin_pass(8);
        assert!(off.is_fresh());
    }

    #[test]
    fn a_cluster_emptied_between_passes_bumps_only_its_version() {
        let data = objects(12);
        let arena = MomentArena::from_objects(&data);
        let labels = vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2];
        let mut pruner = pruner(stats_for(&arena, &labels, 3), 12);
        // Wide margins, one entry rooted in cluster 0, one in cluster 1.
        pruner.store(0, 0, 0, (2, 1e6, 2e6));
        pruner.store(7, 0, 1, (0, 1e6, 2e6));
        // Cluster 1 goes from 4 members to 1; nothing is charged yet.
        for i in [4, 5, 6] {
            pruner.remove(1, &arena.view(i));
        }
        assert_eq!(pruner.drift, [ClusterDrift::default(); 3]);
        pruner.begin_pass(12);
        // The read charges first, so the bumped version rejects the entry
        // rooted in cluster 1.
        assert_eq!(
            pruner.decide(7, 0, 1, &arena.view(7)),
            PruneDecision::FullScan
        );
        assert_eq!(pruner.versions, [0, 1, 0]);
        let charged = pruner.drift[1];
        assert!(charged.add_const > 0.0 && charged.add_size > 0.0 && charged.add_mean > 0.0);
        assert_eq!(
            (charged.rem_const, charged.rem_size, charged.rem_mean),
            (0.0, 0.0, 0.0)
        );
        assert_eq!(pruner.drift[0], ClusterDrift::default());
        assert_eq!(pruner.drift[2], ClusterDrift::default());
        assert_eq!(pruner.decide(0, 0, 0, &arena.view(0)), PruneDecision::Skip);
        // And from 1 member to none.
        pruner.remove(1, &arena.view(7));
        assert_eq!(pruner.decide(0, 0, 0, &arena.view(0)), PruneDecision::Skip);
        assert_eq!(pruner.versions, [0, 2, 0]);
    }

    #[test]
    fn charged_edits_bump_versions_only_on_small_transitions() {
        let data = objects(8);
        let arena = MomentArena::from_objects(&data);
        let mut pruner = pruner(vec![ClusterStats::empty(arena.dims()); 2], 8);
        pruner.charge();
        let mut edit = |add: bool, i: usize| {
            if add {
                pruner.add(0, &arena.view(i));
            } else {
                pruner.remove(0, &arena.view(i));
            }
            pruner.charge();
            pruner.versions.clone()
        };
        // Growing cluster 0 from empty, one charge per edit: sizes 0→1 and
        // 1→2 are small.
        assert_eq!(edit(true, 0), [1, 0]);
        assert_eq!(edit(true, 1), [2, 0]);
        // 2→3, 3→4, 4→3 and 3→2 keep both ends >= 2: no bump anywhere.
        assert_eq!(edit(true, 2), [2, 0]);
        assert_eq!(edit(true, 3), [2, 0]);
        assert_eq!(edit(false, 3), [2, 0]);
        assert_eq!(edit(false, 2), [2, 0]);
        // 2→1 breaks the remove direction.
        assert_eq!(edit(false, 1), [3, 0], "2→1 breaks the remove direction");
        // A net change reads its two ends only: 1→3 through 2 bumps once,
        // and 3→3 through 1 not at all.
        pruner.add(0, &arena.view(1));
        pruner.add(0, &arena.view(2));
        pruner.charge();
        assert_eq!(pruner.versions, [4, 0]);
        let before = pruner.drift[0];
        for i in [1, 2] {
            pruner.remove(0, &arena.view(i));
        }
        for i in [4, 5] {
            pruner.add(0, &arena.view(i));
        }
        pruner.charge();
        assert_eq!(pruner.versions, [4, 0]);
        assert!(
            pruner.drift[0].rem_mean > before.rem_mean,
            "charged instead"
        );
    }

    /// The six accumulators of `d`, in field order.
    fn coefficients(d: ClusterDrift) -> [f64; 6] {
        [
            d.add_const,
            d.add_size,
            d.add_mean,
            d.rem_const,
            d.rem_size,
            d.rem_mean,
        ]
    }

    #[test]
    fn one_net_charge_is_never_looser_than_a_charge_per_edit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, k) = (40usize, 3usize);
            let data: Vec<UncertainObject> = (0..n)
                .map(|_| {
                    let pdfs = (0..4).map(|_| {
                        UnivariatePdf::normal(rng.gen_range(-5.0..5.0), rng.gen_range(0.1..1.0))
                    });
                    UncertainObject::new(pdfs.collect())
                })
                .collect();
            let arena = MomentArena::from_objects(&data);
            // Half the objects start in a cluster, the rest outside.
            let mut labels: Vec<Option<usize>> =
                (0..n).map(|i| (i < n / 2).then_some(i % k)).collect();
            let start = stats_for(
                &arena,
                &labels.iter().flatten().copied().collect::<Vec<_>>(),
                k,
            );
            let mut stepwise = pruner(start.clone(), n);
            let mut once = pruner(start, n);
            stepwise.charge();
            once.charge();
            let mut edits = 0;
            while edits < 60 {
                let i = rng.gen_range(0..n);
                let c = rng.gen_range(0..k);
                // Inserts, removes and moves, every cluster kept at >= 2
                // members so that no step bumps a version instead.
                match labels[i] {
                    None => {
                        stepwise.add(c, &arena.view(i));
                        once.add(c, &arena.view(i));
                        labels[i] = Some(c);
                    }
                    Some(src)
                        if stepwise.stats()[src].size() > 2 && src != c && rng.gen_bool(0.5) =>
                    {
                        stepwise.relocate(i, src, c, &arena.view(i));
                        once.relocate(i, src, c, &arena.view(i));
                        labels[i] = Some(c);
                    }
                    Some(src) if stepwise.stats()[src].size() > 2 => {
                        stepwise.remove(src, &arena.view(i));
                        once.remove(src, &arena.view(i));
                        labels[i] = None;
                    }
                    Some(_) => continue,
                }
                stepwise.charge();
                edits += 1;
            }
            once.charge();
            assert_eq!(
                stepwise.stats(),
                once.stats(),
                "seed {seed}: the statistics fold alike"
            );
            assert_eq!(stepwise.versions, [0; 3]);
            assert_eq!(once.versions, [0; 3]);
            for c in 0..k {
                let (a, b) = (coefficients(once.drift[c]), coefficients(stepwise.drift[c]));
                for (j, (&a, &b)) in a.iter().zip(&b).enumerate() {
                    assert!(
                        a <= b * (1.0 + 1e-12),
                        "seed {seed} cluster {c} [{j}]: {a} > {b}"
                    );
                }
                assert!(a[2] > 0.0, "seed {seed} cluster {c} changed");
            }
            let totals = |p: &Pruner| {
                let t = p.totals;
                [
                    t.add_const,
                    t.add_size,
                    t.add_mean,
                    t.rem_const,
                    t.rem_size,
                    t.rem_mean,
                ]
            };
            for (&a, &b) in totals(&once).iter().zip(&totals(&stepwise)) {
                assert!(a <= b * (1.0 + 1e-12), "seed {seed} totals: {a} > {b}");
            }
        }
    }
}
