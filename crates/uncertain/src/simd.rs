//! Runtime-dispatched SIMD backends for the fused dot product — the single
//! O(m) pass at the bottom of every delta-`J` candidate evaluation.
//!
//! # What lives here
//!
//! * [`dot`] — the dispatched `⟨a, b⟩` kernel consumed by
//!   `ucpc_core::objective::ClusterStats::delta_j_add` and friends through
//!   its [`crate::arena::dot`] re-export;
//! * [`dot_block`] — one shared row against a block of rows, each read in
//!   place through an accessor, in a single dispatched call (the engine's
//!   two-row tier-2 confirm);
//! * [`price_block`] — the fused pricing kernel: one object's cross terms
//!   against `k` clusters' rows *and* its `k` Corollary-1 add deltas, from
//!   five pricer columns, in one dispatched call; every candidate scan and
//!   serving answer runs it (the engine's pricing table), and
//!   [`add_delta`] is the one scalar formula it is held to;
//! * [`Backend`] — the explicit backend set (scalar, AVX2+FMA, NEON) with
//!   runtime detection, the `UCPC_SIMD` environment knob, and
//!   [`force_backend`] for benches and tests;
//! * [`dot_unfused`] — the pre-SIMD four-accumulator loop of PR 1, kept as
//!   the property-tested accuracy reference (it is *not* a dispatch target;
//!   see "Numerical contract" below for why).
//!
//! # Dispatch
//!
//! The backend is resolved once, on first kernel use, and cached in an
//! atomic: `x86_64` machines with AVX2 and FMA get [`Backend::Avx2`]
//! (checked via `is_x86_feature_detected!`), `aarch64` machines get
//! [`Backend::Neon`], everything else falls back to [`Backend::Scalar`].
//! The `UCPC_SIMD` environment variable (`scalar` | `avx2` | `neon` |
//! `auto`, default `auto`) overrides detection — mirroring the
//! `UCPC_PRUNING` knob — and an unavailable or unrecognized choice warns on
//! stderr and falls back to auto-detection rather than aborting.
//!
//! # Numerical contract: every backend is bit-identical
//!
//! All three backends implement one canonical evaluation order:
//!
//! * main blocks of 16 elements feed 16 independent fused-multiply-add
//!   accumulator lanes (lane `l` accumulates elements `16·i + l`);
//! * a second stage of 4-element blocks feeds 4 FMA lanes;
//! * the remaining `< 4` elements accumulate serially with FMA;
//! * the lanes are reduced by one fixed association,
//!   `r_j = (l_j + l_{j+4}) + (l_{j+8} + l_{j+12})` then
//!   `(r_0 + r_2) + (r_1 + r_3)`, and the partial results combine as
//!   `(main16 + main4) + tail`, with a stage *omitted* (not added as zero)
//!   when its block count is zero — every backend takes the same branch for
//!   a given length, so short inputs skip the 16-lane machinery without
//!   breaking cross-backend identity.
//!
//! Because IEEE-754 fused multiply-add is exactly rounded — whether it comes
//! from `_mm256_fmadd_pd`, `vfmaq_f64`, a scalar `fmadd` instruction, or
//! libm's software `fma` — a fixed lane structure and reduction order make
//! every backend produce **bit-identical** results on every input, with no
//! fast-math anywhere. Switching `UCPC_SIMD=scalar|avx2|neon|auto` therefore
//! changes wall-clock time and nothing else: clustering labels are
//! byte-identical across backends, which is what lets the whole tier-1 test
//! suite (including the pruning-exactness guarantees of
//! `ucpc_core::pruning`) run unchanged under any backend. [`dot_block`]'s
//! per-row lane structure is identical to [`dot`]'s, so a scan that prices
//! a block of candidates in one call is bit-identical to one that evaluates
//! them one at a time.
//!
//! [`price_block`] extends the contract to the add delta: each cross is
//! [`dot`]'s, and each delta is [`add_delta`] applied to it. The AVX2 body
//! evaluates [`add_delta`]'s five additions, two multiplications and two
//! subtractions as separate vector operations in the same order (no
//! contraction into FMA, which would round once where the scalar formula
//! rounds twice), so a delta priced four clusters per vector and one priced
//! alone have the same bits. `simd::tests` holds every backend's
//! [`price_block`] to [`dot`] plus [`add_delta`] over `k ∈ 0..=13 ∪ {20}`,
//! `m` from 1 to 80, and rows, pricers and scalars holding `±0.0`, `±∞`,
//! `1e±150` and NaN.
//!
//! Rows shorter than [`DISPATCH_THRESHOLD`] bypass dispatch entirely: a
//! non-inlinable backend call costs more than the (L1-resident) work it
//! would do, so every entry point — [`dot`], [`dot_block`], [`dot_with`],
//! [`dot_block_with`] — routes short rows through the inlined unfused loop
//! *before* consulting the backend. The branch is uniform across entry
//! points and backend choices, so short rows are backend-independent and
//! the cross-backend identity holds over the full length range.
//!
//! The one loop that does *not* share the FMA contract is [`dot_unfused`]:
//! the pre-SIMD reference multiplies and adds in separate (twice-rounded)
//! operations, so it agrees with the FMA backends only to rounding
//! error. Tests pin the dispatched backends to `dot_unfused` within a
//! ULP-scaled tolerance and to each other exactly.
//!
//! # Performance notes
//!
//! The AVX2 path retires four 256-bit FMAs per main-block iteration and is
//! limited by the two loads it issues per FMA. Its [`dot_block`] takes
//! rows four at a time when `m` is a multiple of 16: the shared `x` row is
//! loaded once per four FMAs, and the four rows' lanes go through one
//! vector reduction instead of four horizontal ones. Its [`price_block`]
//! does the same inside one `#[target_feature]` frame, keeps the four
//! crosses in a register for the delta epilogue, and is compiled apart for
//! `m = 16` and `m = 32`, whose block loops unroll: at `k = 8, m = 16` the
//! fused call takes about 30 ns where [`dot_block`] plus the scalar
//! epilogue take 50 (`relocation_kernel`'s `price_block` group). Other
//! shapes price row by row, so each cross stays in a register for its
//! delta. [`Backend::Scalar`] is a
//! genuine one-element-at-a-time loop: its `f64::mul_add` compiles to a
//! scalar `fmadd` instruction where the build target has FMA and otherwise
//! calls libm's correctly-rounded `fma` (glibc dispatches that to hardware
//! FMA at run time; soft-float targets pay for the emulation). It exists as
//! the correctness fallback and the benchmark comparator, not as a fast
//! path — on pre-FMA x86 hardware the auto-vectorizable [`dot_unfused`]
//! loop can be faster, but keeping the fallback bit-identical to the SIMD
//! paths is worth more here than the last word in museum-hardware speed.
//! Build with `RUSTFLAGS="-C target-cpu=native"` to let the surrounding
//! scalar code (tails, per-object algebra) use the same ISA extensions the
//! dispatched kernel detects.

use std::sync::atomic::{AtomicU8, Ordering};

/// A dispatchable dot-product backend.
///
/// Variants exist on every architecture so that configuration, reporting and
/// error messages are portable; [`Backend::is_available`] says whether the
/// current machine can actually run one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One-element-at-a-time FMA loop; available everywhere and
    /// bit-identical to the SIMD paths (see the module docs).
    Scalar,
    /// 256-bit AVX2 + FMA path (`_mm256_fmadd_pd`, 4 × 4-lane
    /// accumulators); requires `x86_64` with both features detected at run
    /// time.
    Avx2,
    /// 128-bit NEON path (`vfmaq_f64`, 8 × 2-lane accumulators); requires
    /// `aarch64`.
    Neon,
}

impl Backend {
    /// Whether this backend can run on the current machine.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 => false,
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[cfg(not(target_arch = "aarch64"))]
            Backend::Neon => false,
        }
    }

    /// The best backend the current machine supports (what `UCPC_SIMD=auto`
    /// resolves to).
    pub fn detect() -> Self {
        if Backend::Avx2.is_available() {
            Backend::Avx2
        } else if Backend::Neon.is_available() {
            Backend::Neon
        } else {
            Backend::Scalar
        }
    }

    /// Every backend the current machine supports, scalar first.
    pub fn available() -> Vec<Self> {
        [Backend::Scalar, Backend::Avx2, Backend::Neon]
            .into_iter()
            .filter(|b| b.is_available())
            .collect()
    }

    /// The CPU features [`Self::is_available`] requires, by their
    /// run-time detection names.
    pub fn features(self) -> &'static [&'static str] {
        match self {
            Backend::Scalar => &[],
            Backend::Avx2 => &["avx2", "fma"],
            Backend::Neon => &["neon"],
        }
    }

    /// The `UCPC_SIMD` value naming this backend.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }

    fn from_u8(b: u8) -> Self {
        match b {
            AVX2 => Backend::Avx2,
            NEON => Backend::Neon,
            _ => Backend::Scalar,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Backend::Scalar => SCALAR,
            Backend::Avx2 => AVX2,
            Backend::Neon => NEON,
        }
    }
}

/// The CPU features of every backend this machine can run, by their
/// run-time detection names (`avx2`, `fma`, `neon`) — provenance for
/// benchmark ledgers, from the same detection as dispatch.
pub fn cpu_features() -> Vec<&'static str> {
    Backend::available()
        .into_iter()
        .flat_map(|b| b.features().iter().copied())
        .collect()
}

const UNINIT: u8 = 0;
const SCALAR: u8 = 1;
const AVX2: u8 = 2;
const NEON: u8 = 3;

/// The cached dispatch decision; `UNINIT` until first kernel use.
static ACTIVE: AtomicU8 = AtomicU8::new(UNINIT);

/// The backend the dispatched [`dot`]/[`dot_block`] calls will use (resolving it
/// now if this is the first kernel touch).
#[inline]
pub fn active_backend() -> Backend {
    match ACTIVE.load(Ordering::Relaxed) {
        UNINIT => init_backend(),
        b => Backend::from_u8(b),
    }
}

/// First-use resolution: honour `UCPC_SIMD` (parsed through the shared
/// warn-and-fall-back knob reader, [`crate::env::read_knob`]), fall back to
/// detection. A race between threads at most repeats the (idempotent)
/// resolution.
#[cold]
fn init_backend() -> Backend {
    let chosen = crate::env::read_knob("UCPC_SIMD", "scalar|avx2|neon|auto", |v| match v {
        "auto" | "" => Some(Backend::detect()),
        "scalar" => Some(Backend::Scalar),
        "avx2" => Some(Backend::Avx2),
        "neon" => Some(Backend::Neon),
        _ => None,
    })
    .unwrap_or_else(Backend::detect);
    let chosen = if chosen.is_available() {
        chosen
    } else {
        let fallback = Backend::detect();
        eprintln!(
            "UCPC_SIMD requested the {} backend, which this machine cannot \
             run; falling back to {}",
            chosen.name(),
            fallback.name()
        );
        fallback
    };
    ACTIVE.store(chosen.as_u8(), Ordering::Relaxed);
    chosen
}

/// Overrides the dispatched backend for the rest of the process (or until
/// the next call). Benches use this to time `scalar` against the detected
/// SIMD path inside one process; tests use it to pin a backend regardless
/// of the environment. Fails if the machine cannot run `backend`.
///
/// Because every backend is bit-identical (module docs), flipping the
/// backend mid-run — even from another thread — changes performance only,
/// never results.
pub fn force_backend(backend: Backend) -> Result<(), &'static str> {
    if !backend.is_available() {
        return Err("requested SIMD backend is not available on this machine");
    }
    ACTIVE.store(backend.as_u8(), Ordering::Relaxed);
    Ok(())
}

/// Rows shorter than this never reach a backend: the call overhead of a
/// runtime-dispatched (and therefore non-inlinable) kernel exceeds the work
/// on an L1-resident short row, and the inlined [`dot_unfused`] loop
/// auto-vectorizes well at these sizes. Kept uniform across every entry
/// point so the choice of backend can never change a short row's bits.
pub const DISPATCH_THRESHOLD: usize = 16;

/// Fused dot product `⟨a, b⟩` through the dispatched backend — the kernel's
/// single O(m) pass.
///
/// ```
/// use ucpc_uncertain::simd::{dot, dot_unfused};
///
/// let a = [1.0, 2.0, 3.0, 4.0, 5.0];
/// let b = [0.5, -1.0, 2.0, 0.25, -2.0];
/// let exact = 0.5 - 2.0 + 6.0 + 1.0 - 10.0;
/// assert_eq!(dot(&a, &b), exact);
/// // The PR 1 unfused loop is kept as the accuracy reference.
/// assert!((dot(&a, &b) - dot_unfused(&a, &b)).abs() < 1e-12);
/// ```
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    dot_on(active_backend, a, b)
}

/// [`dot`] through one explicit backend (which must be available) — the
/// hook behind the dispatch-matrix tests and per-backend benches.
pub fn dot_with(backend: Backend, a: &[f64], b: &[f64]) -> f64 {
    assert!(backend.is_available(), "backend not available on this CPU");
    dot_on(|| backend, a, b)
}

/// The body of [`dot`] and [`dot_with`]: short rows take the inlined
/// unfused loop before `backend` is consulted, and the backend, which is
/// the active one or one the caller checked is available, takes the rest.
#[inline(always)]
fn dot_on(backend: impl FnOnce() -> Backend, a: &[f64], b: &[f64]) -> f64 {
    // A hard check, not a debug_assert: silently truncating on mismatched
    // lengths would turn a caller's dimension bug into wrong relocation
    // deltas in release builds. One predictable branch on the hot path.
    assert_eq!(a.len(), b.len(), "dot product requires equal-length slices");
    if a.len() < DISPATCH_THRESHOLD {
        return unfused_core(a, b);
    }
    // SAFETY: `backend` yields an available backend; the lengths match.
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::dot(a, b) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::dot(a, b) },
        // Scalar, or another architecture's backend, never available here.
        _ => scalar::dot(a, b),
    }
}

/// Fused dot products of one shared row `x` against a *block* of rows:
/// `out[i] = ⟨x, row(i)⟩` for every `i < out.len()`.
///
/// The engine prices a tier-2 confirm's two rows with it; full scans take
/// [`price_block`], which adds each row's delta. Calling [`dot`] per pair
/// pays the dispatch
/// branch, the non-inlinable `#[target_feature]` call frame and a
/// horizontal reduction per row — at these sizes (`m ≈ 16–64`) that
/// overhead rivals the FMA work itself. `dot_block` dispatches **once**;
/// the AVX2 body takes rows four at a time, loading each block of `x` once
/// for four rows' FMAs and reducing the four rows' lanes together.
///
/// Every component is bit-identical to the corresponding single
/// [`dot(x, row(i))`](dot) call — each row keeps the exact per-dot lane
/// structure and reduction order, so batched and per-row pricing can never
/// diverge by a bit (the unit tests pin every block length and remainder,
/// and the serving differential harness pins it end to end).
///
/// `row` may return the same row more than once, and rows from separate
/// allocations.
///
/// # Panics
///
/// If a row's length differs from `x.len()`.
#[inline]
pub fn dot_block<'a>(x: &[f64], row: impl Fn(usize) -> &'a [f64], out: &mut [f64]) {
    dot_block_on(active_backend, x, row, out);
}

/// [`dot_block`] through one explicit backend (which must be available).
pub fn dot_block_with<'a>(
    backend: Backend,
    x: &[f64],
    row: impl Fn(usize) -> &'a [f64],
    out: &mut [f64],
) {
    assert!(backend.is_available(), "backend not available on this CPU");
    dot_block_on(|| backend, x, row, out);
}

/// The body of [`dot_block`] and [`dot_block_with`], as [`dot_on`] is
/// [`dot`]'s. Each row is checked to hold `x.len()` elements: the
/// backends read rows through raw pointers.
#[inline(always)]
fn dot_block_on<'a>(
    backend: impl FnOnce() -> Backend,
    x: &[f64],
    row: impl Fn(usize) -> &'a [f64],
    out: &mut [f64],
) {
    let m = x.len();
    let row = checked_rows(m, row);
    if m < DISPATCH_THRESHOLD {
        for (i, o) in out.iter_mut().enumerate() {
            *o = unfused_core(x, row(i));
        }
        return;
    }
    // SAFETY: `backend` yields an available backend; `row` checks lengths.
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::dot_block(x, row, out) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::dot_block(x, row, out) },
        _ => scalar::dot_block(x, row, out),
    }
}

/// The Corollary-1 add delta of one object joining one cluster, from the
/// object's scalars `[Σvar, ‖mu‖², Σμ₂]`, the cluster's pricer
/// `[1/(|C|+1), Ψ_tot, S₂, Φ_tot, J(C)]` and their cross term
/// `⟨s_C, mu⟩`. The one formula of the add delta: the scalar add pricer
/// and [`price_block`]'s scalar epilogue call it, and the AVX2 epilogue
/// performs its operations in the same order, each rounded once (no
/// contraction into FMA).
#[inline(always)]
pub fn add_delta(pricer: [f64; 5], scalars: [f64; 3], cross: f64) -> f64 {
    let [new_inv, psi_tot, s_sq_tot, phi_tot, j_base] = pricer;
    let [sum_var, sum_mu_sq, sum_mu2] = scalars;
    let psi = psi_tot + sum_var;
    let s_sq = s_sq_tot + 2.0 * cross + sum_mu_sq;
    let j_new = (psi - s_sq) * new_inv + phi_tot + sum_mu2;
    j_new - j_base
}

/// Prices one object against a block of clusters in one dispatched call:
/// `cross[c] = ⟨x, row(c)⟩` and
/// `deltas[c] = add_delta([pricers[0][c], …, pricers[4][c]], scalars, cross[c])`
/// for every `c < cross.len()`. `x` is the object's `mu` row, `scalars` its
/// `[Σvar, ‖mu‖², Σμ₂]`, `row(c)` cluster `c`'s `mean_sum` row (read in
/// place) and `pricers` the clusters' add pricers as five columns in
/// [`add_delta`]'s order. This is the pricing of every candidate scan: the
/// engine's pricing table calls it for placement, relocation and every
/// serving answer.
///
/// Every component is bit-identical to [`dot`] followed by [`add_delta`]:
/// the crosses keep [`dot`]'s lane structure, and the AVX2 epilogue is
/// [`add_delta`]'s operations in its order, four clusters per vector. The
/// AVX2 body, for `m` a multiple of 16, takes clusters four at a time (each
/// row with its own accumulators, one reduction for four rows) and is
/// compiled separately for `m = 16` and `m = 32`; the last `< 4` clusters,
/// every other shape and the other backends take [`dot`] and the scalar
/// [`add_delta`] row by row.
///
/// # Panics
///
/// If a row's length differs from `x.len()`, or `deltas` or a pricer
/// column is not `cross.len()` long.
#[inline]
pub fn price_block<'a>(
    x: &[f64],
    scalars: [f64; 3],
    row: impl Fn(usize) -> &'a [f64],
    pricers: &[Vec<f64>; 5],
    cross: &mut [f64],
    deltas: &mut [f64],
) {
    price_block_on(active_backend, x, scalars, row, pricers, cross, deltas);
}

/// [`price_block`] through one explicit backend (which must be available).
pub fn price_block_with<'a>(
    backend: Backend,
    x: &[f64],
    scalars: [f64; 3],
    row: impl Fn(usize) -> &'a [f64],
    pricers: &[Vec<f64>; 5],
    cross: &mut [f64],
    deltas: &mut [f64],
) {
    assert!(backend.is_available(), "backend not available on this CPU");
    price_block_on(|| backend, x, scalars, row, pricers, cross, deltas);
}

/// The body of [`price_block`] and [`price_block_with`]. The AVX2 body
/// reads and writes through raw pointers, so it is entered only after the
/// output and column lengths are checked here, with every row checked by
/// [`checked_rows`].
///
/// Every other shape prices each row as its cross term is computed:
/// [`dot`]'s bits, which are [`dot_block`]'s, and the scalar
/// [`add_delta`]. Keeping the cross in a register matters on short rows,
/// where the whole pricing is a few dozen cycles: a separate epilogue pass
/// is vectorized, and its 16-byte loads of crosses and freshly derived
/// pricers, each spanning two 8-byte stores made just before, miss the
/// store-to-load forwarding and stall.
#[inline(always)]
fn price_block_on<'a>(
    backend: impl FnOnce() -> Backend,
    x: &[f64],
    scalars: [f64; 3],
    row: impl Fn(usize) -> &'a [f64],
    pricers: &[Vec<f64>; 5],
    cross: &mut [f64],
    deltas: &mut [f64],
) {
    let k = cross.len();
    assert!(
        deltas.len() == k && pricers.iter().all(|p| p.len() == k),
        "price_block outputs and pricer columns must have one entry per row"
    );
    let backend = backend();
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Avx2 && x.len() >= DISPATCH_THRESHOLD && x.len().is_multiple_of(16) {
        let row = checked_rows(x.len(), row);
        // SAFETY: the backend is available (the active one, or checked by
        // `price_block_with`); `row` checks every row's length and the
        // lengths of `deltas` and the columns are checked above.
        unsafe {
            match x.len() {
                16 => avx2::price_block::<1>(x, scalars, row, pricers, cross, deltas),
                32 => avx2::price_block::<2>(x, scalars, row, pricers, cross, deltas),
                _ => avx2::price_block::<0>(x, scalars, row, pricers, cross, deltas),
            }
        }
        return;
    }
    for (c, (cross, delta)) in cross.iter_mut().zip(deltas.iter_mut()).enumerate() {
        *cross = dot_on(|| backend, x, row(c));
        *delta = add_delta(pricer(pricers, c), scalars, *cross);
    }
}

/// Row `c`'s pricer from the five pricer columns.
#[inline(always)]
fn pricer(pricers: &[Vec<f64>; 5], c: usize) -> [f64; 5] {
    pricers.each_ref().map(|column| column[c])
}

/// `row` with every row checked to hold `m` elements, for the backends
/// that read rows through raw pointers.
#[inline(always)]
fn checked_rows<'a>(m: usize, row: impl Fn(usize) -> &'a [f64]) -> impl Fn(usize) -> &'a [f64] {
    move |i| {
        let r = row(i);
        assert_eq!(r.len(), m, "dot_block rows must match x's length");
        r
    }
}

/// The PR 1 four-accumulator unfused loop, kept verbatim as the
/// property-tested accuracy reference. It rounds multiply and add
/// separately, so it agrees with the FMA backends only to rounding error —
/// tests compare against it with a ULP-scaled tolerance, and against the
/// backends with exact equality.
#[inline]
pub fn dot_unfused(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product requires equal-length slices");
    unfused_core(a, b)
}

/// [`dot_unfused`]'s body, shared with the short-row fast path of the
/// dispatched entry points (callers have checked lengths).
#[inline]
fn unfused_core(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; 4];
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    for (&x, &y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Reduces 16 lanes with the canonical association shared by every backend:
/// `r_j = (l_j + l_{j+4}) + (l_{j+8} + l_{j+12})`, then
/// `(r_0 + r_2) + (r_1 + r_3)`.
#[inline(always)]
fn reduce16(l: &[f64; 16]) -> f64 {
    let r0 = (l[0] + l[4]) + (l[8] + l[12]);
    let r1 = (l[1] + l[5]) + (l[9] + l[13]);
    let r2 = (l[2] + l[6]) + (l[10] + l[14]);
    let r3 = (l[3] + l[7]) + (l[11] + l[15]);
    (r0 + r2) + (r1 + r3)
}

/// Reduces 4 lanes with the canonical association: `(t_0 + t_2) + (t_1 + t_3)`.
#[inline(always)]
fn reduce4(t: &[f64; 4]) -> f64 {
    (t[0] + t[2]) + (t[1] + t[3])
}

/// Canonical combination of the three pipeline stages. Stages whose block
/// count is zero are omitted rather than added as `0.0` (the two differ for
/// `-0.0` results); every backend routes its partials through this one
/// function so the branch structure — and therefore the bits — match.
#[inline(always)]
fn combine(main16: Option<f64>, main4: Option<f64>, tail: f64) -> f64 {
    match (main16, main4) {
        (Some(a), Some(b)) => (a + b) + tail,
        (Some(a), None) => a + tail,
        (None, Some(b)) => b + tail,
        (None, None) => tail,
    }
}

/// The scalar backend: the canonical lane structure evaluated one element
/// at a time with exactly-rounded `f64::mul_add`.
mod scalar {
    use super::{combine, reduce16, reduce4};

    #[inline]
    pub(super) fn dot(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let (a, b) = (&a[..n], &b[..n]);
        let blocks = n / 16;
        let mut main16 = None;
        if blocks > 0 {
            let mut lanes = [0.0f64; 16];
            for i in 0..blocks {
                let base = i * 16;
                for (l, lane) in lanes.iter_mut().enumerate() {
                    *lane = a[base + l].mul_add(b[base + l], *lane);
                }
            }
            main16 = Some(reduce16(&lanes));
        }
        let mut base = blocks * 16;
        let mut main4 = None;
        if base + 4 <= n {
            let mut quads = [0.0f64; 4];
            while base + 4 <= n {
                for (l, quad) in quads.iter_mut().enumerate() {
                    *quad = a[base + l].mul_add(b[base + l], *quad);
                }
                base += 4;
            }
            main4 = Some(reduce4(&quads));
        }
        let mut tail = 0.0f64;
        for i in base..n {
            tail = a[i].mul_add(b[i], tail);
        }
        combine(main16, main4, tail)
    }

    /// Per-row [`dot`] over the block — no call overhead to amortize in
    /// scalar code, and delegation keeps the bits structural.
    pub(super) fn dot_block<'a>(x: &[f64], row: impl Fn(usize) -> &'a [f64], out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = dot(x, row(i));
        }
    }
}

/// AVX2 + FMA backend: 4 × 4-lane `_mm256_fmadd_pd` accumulators.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_blend_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd,
        _mm256_fmadd_pd, _mm256_hadd_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute2f128_pd,
        _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm_add_pd, _mm_add_sd,
        _mm_cvtsd_f64, _mm_unpackhi_pd,
    };

    /// Canonical 4-lane reduction of one 256-bit accumulator holding lanes
    /// `[r_0, r_1, r_2, r_3]`: `(r_0 + r_2) + (r_1 + r_3)`.
    #[inline(always)]
    unsafe fn reduce_ymm(r: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(r); // [r0, r1]
        let hi = _mm256_extractf128_pd(r, 1); // [r2, r3]
        let s = _mm_add_pd(lo, hi); // [r0+r2, r1+r3]
        _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
    }

    /// # Safety
    /// Caller must have verified `avx2` and `fma` CPU support; slices must
    /// be equal length (checked by the dispatch wrappers).
    // Inlinable into `dot_block`, which is generic and so compiled in the calling crate.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let blocks = n / 16;
        let mut main16 = None;
        if blocks > 0 {
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            let mut acc2 = _mm256_setzero_pd();
            let mut acc3 = _mm256_setzero_pd();
            for i in 0..blocks {
                let base = i * 16;
                acc0 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(pa.add(base)),
                    _mm256_loadu_pd(pb.add(base)),
                    acc0,
                );
                acc1 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(pa.add(base + 4)),
                    _mm256_loadu_pd(pb.add(base + 4)),
                    acc1,
                );
                acc2 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(pa.add(base + 8)),
                    _mm256_loadu_pd(pb.add(base + 8)),
                    acc2,
                );
                acc3 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(pa.add(base + 12)),
                    _mm256_loadu_pd(pb.add(base + 12)),
                    acc3,
                );
            }
            // r_j = (l_j + l_{j+4}) + (l_{j+8} + l_{j+12}) — reduce16.
            main16 = Some(reduce_ymm(_mm256_add_pd(
                _mm256_add_pd(acc0, acc1),
                _mm256_add_pd(acc2, acc3),
            )));
        }
        let mut base = blocks * 16;
        let mut main4 = None;
        if base + 4 <= n {
            let mut quads = _mm256_setzero_pd();
            while base + 4 <= n {
                quads = _mm256_fmadd_pd(
                    _mm256_loadu_pd(pa.add(base)),
                    _mm256_loadu_pd(pb.add(base)),
                    quads,
                );
                base += 4;
            }
            main4 = Some(reduce_ymm(quads));
        }
        let mut tail = 0.0f64;
        for i in base..n {
            // Compiles to a scalar vfmadd under the enabled features — the
            // same exactly-rounded operation the scalar backend performs.
            tail = a[i].mul_add(b[i], tail);
        }
        super::combine(main16, main4, tail)
    }

    /// Reduces four rows' main-block partials at once. `s[d]` holds row
    /// `d`'s lanes `[r_0, r_1, r_2, r_3]`; lane `d` of the result is row
    /// `d`'s `(r_0 + r_2) + (r_1 + r_3)`, the association of
    /// [`reduce_ymm`]. A blend and a lane swap pair `r_0` with `r_2` and
    /// `r_1` with `r_3` for rows 0 and 2 (1 and 3) in one add, and one
    /// `hadd` finishes all four rows. Addition commutes bit for bit, so
    /// rows 2 and 3, whose pairs come out swapped, get the same bits.
    #[inline(always)]
    unsafe fn reduce_rows4(s: [__m256d; 4]) -> __m256d {
        // [s0_0 + s0_2, s0_1 + s0_3, s2_2 + s2_0, s2_3 + s2_1]
        let u02 = _mm256_add_pd(
            _mm256_blend_pd::<0b1100>(s[0], s[2]),
            _mm256_permute2f128_pd::<0x21>(s[0], s[2]),
        );
        let u13 = _mm256_add_pd(
            _mm256_blend_pd::<0b1100>(s[1], s[3]),
            _mm256_permute2f128_pd::<0x21>(s[1], s[3]),
        );
        _mm256_hadd_pd(u02, u13)
    }

    /// Four dot products of `x` against the rows at `rows`, for `m =
    /// 16 · blocks`: each row keeps [`dot`]'s four 4-lane
    /// accumulators, every block of `x` is loaded once for the four rows,
    /// and [`reduce_rows4`] replaces four horizontal reductions. With no
    /// quad stage and an empty tail, [`super::combine`] is `main16 + 0.0`,
    /// added here to all four lanes at once (it turns a `-0.0` into `+0.0`
    /// exactly as the per-row path does). A constant `blocks` unrolls.
    ///
    /// # Safety
    /// As for [`dot`]; `x` and every row must hold `16 · blocks` elements.
    #[inline(always)]
    unsafe fn dot_rows4(x: &[f64], blocks: usize, rows: [&[f64]; 4]) -> __m256d {
        let px = x.as_ptr();
        let pr = rows.map(<[f64]>::as_ptr);
        let mut acc = [[_mm256_setzero_pd(); 4]; 4];
        for i in 0..blocks {
            let base = 16 * i;
            for v in 0..4 {
                let xv = _mm256_loadu_pd(px.add(base + 4 * v));
                for (a, p) in acc.iter_mut().zip(&pr) {
                    a[v] = _mm256_fmadd_pd(xv, _mm256_loadu_pd(p.add(base + 4 * v)), a[v]);
                }
            }
        }
        // r_j = (l_j + l_{j+4}) + (l_{j+8} + l_{j+12}) per row — reduce16.
        let mut s = [_mm256_setzero_pd(); 4];
        for (sd, a) in s.iter_mut().zip(&acc) {
            *sd = _mm256_add_pd(_mm256_add_pd(a[0], a[1]), _mm256_add_pd(a[2], a[3]));
        }
        _mm256_add_pd(reduce_rows4(s), _mm256_setzero_pd())
    }

    /// Block pricing inside one `#[target_feature]` frame, so dispatch and
    /// call overhead are paid once per block. When `m` is a multiple of
    /// 16, rows go four at a time through [`dot_rows4`]; the last `< 4`
    /// rows, and every row of any other `m`, take [`dot`]'s body.
    ///
    /// # Safety
    /// As for [`dot`], and every row must hold `x.len()` elements.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot_block<'a>(
        x: &[f64],
        row: impl Fn(usize) -> &'a [f64],
        out: &mut [f64],
    ) {
        let mut done = 0;
        if x.len().is_multiple_of(16) {
            for o in out.chunks_exact_mut(4) {
                let rows = [row(done), row(done + 1), row(done + 2), row(done + 3)];
                _mm256_storeu_pd(o.as_mut_ptr(), dot_rows4(x, x.len() / 16, rows));
                done += 4;
            }
        }
        for (i, o) in out.iter_mut().enumerate().skip(done) {
            *o = dot(x, row(i));
        }
    }

    /// [`super::price_block`]'s fused body for `m` a multiple of 16:
    /// clusters go four at a time through [`dot_rows4`], whose crosses
    /// stay in a register for [`super::add_delta`]'s operations on four
    /// clusters at once (mul and add apart, never fused), with the
    /// pricers read from their columns. `B` is `m / 16` when that is
    /// fixed at compile time, or 0 to read it from `x`. The last `< 4`
    /// clusters take [`dot`] and the scalar [`super::add_delta`].
    ///
    /// # Safety
    /// As for [`dot`]; `x.len()` must be a multiple of 16 (`16 · B` when
    /// `B > 0`), every row must hold `x.len()` elements and `deltas` and
    /// every pricer column must be `cross.len()` long.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn price_block<'a, const B: usize>(
        x: &[f64],
        scalars: [f64; 3],
        row: impl Fn(usize) -> &'a [f64],
        pricers: &[Vec<f64>; 5],
        cross: &mut [f64],
        deltas: &mut [f64],
    ) {
        let blocks = if B > 0 { B } else { x.len() / 16 };
        let sum_var = _mm256_set1_pd(scalars[0]);
        let sum_mu_sq = _mm256_set1_pd(scalars[1]);
        let sum_mu2 = _mm256_set1_pd(scalars[2]);
        let two = _mm256_set1_pd(2.0);
        let [new_inv, psi_tot, s_sq_tot, phi_tot, j_base] = pricers.each_ref().map(|p| p.as_ptr());
        let k = cross.len();
        let mut c = 0;
        while c + 4 <= k {
            let rows = [row(c), row(c + 1), row(c + 2), row(c + 3)];
            let d = dot_rows4(x, blocks, rows);
            _mm256_storeu_pd(cross.as_mut_ptr().add(c), d);
            let psi = _mm256_add_pd(_mm256_loadu_pd(psi_tot.add(c)), sum_var);
            let s_sq = _mm256_add_pd(
                _mm256_add_pd(_mm256_loadu_pd(s_sq_tot.add(c)), _mm256_mul_pd(two, d)),
                sum_mu_sq,
            );
            let scaled = _mm256_mul_pd(_mm256_sub_pd(psi, s_sq), _mm256_loadu_pd(new_inv.add(c)));
            let j_new = _mm256_add_pd(
                _mm256_add_pd(scaled, _mm256_loadu_pd(phi_tot.add(c))),
                sum_mu2,
            );
            let delta = _mm256_sub_pd(j_new, _mm256_loadu_pd(j_base.add(c)));
            _mm256_storeu_pd(deltas.as_mut_ptr().add(c), delta);
            c += 4;
        }
        let rest = cross.iter_mut().zip(deltas.iter_mut()).enumerate().skip(c);
        for (i, (cross, delta)) in rest {
            *cross = dot(x, row(i));
            *delta = super::add_delta(super::pricer(pricers, i), scalars, *cross);
        }
    }
}

/// NEON backend: 8 × 2-lane `vfmaq_f64` accumulators covering the same 16
/// canonical lanes.
#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::{
        float64x2_t, vaddq_f64, vdupq_n_f64, vfmaq_f64, vgetq_lane_f64, vld1q_f64,
    };

    /// # Safety
    /// Caller must have verified NEON support; slices must be equal length
    /// (checked by the dispatch wrappers).
    #[inline]
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let blocks = n / 16;
        let mut main16 = None;
        if blocks > 0 {
            // acc[v] holds canonical lanes [2v, 2v+1].
            let mut acc: [float64x2_t; 8] = [vdupq_n_f64(0.0); 8];
            for i in 0..blocks {
                let base = i * 16;
                for (v, lane) in acc.iter_mut().enumerate() {
                    *lane = vfmaq_f64(
                        *lane,
                        vld1q_f64(pa.add(base + 2 * v)),
                        vld1q_f64(pb.add(base + 2 * v)),
                    );
                }
            }
            // r_j = (l_j + l_{j+4}) + (l_{j+8} + l_{j+12}):
            //   [r0, r1] = (acc0 + acc2) + (acc4 + acc6)
            //   [r2, r3] = (acc1 + acc3) + (acc5 + acc7)
            let ra = vaddq_f64(vaddq_f64(acc[0], acc[2]), vaddq_f64(acc[4], acc[6]));
            let rb = vaddq_f64(vaddq_f64(acc[1], acc[3]), vaddq_f64(acc[5], acc[7]));
            let s = vaddq_f64(ra, rb); // [r0+r2, r1+r3]
            main16 = Some(vgetq_lane_f64(s, 0) + vgetq_lane_f64(s, 1));
        }
        let mut base = blocks * 16;
        let mut main4 = None;
        if base + 4 <= n {
            let mut q0 = vdupq_n_f64(0.0); // canonical quad lanes [t0, t1]
            let mut q1 = vdupq_n_f64(0.0); // canonical quad lanes [t2, t3]
            while base + 4 <= n {
                q0 = vfmaq_f64(q0, vld1q_f64(pa.add(base)), vld1q_f64(pb.add(base)));
                q1 = vfmaq_f64(q1, vld1q_f64(pa.add(base + 2)), vld1q_f64(pb.add(base + 2)));
                base += 4;
            }
            let sq = vaddq_f64(q0, q1); // [t0+t2, t1+t3]
            main4 = Some(vgetq_lane_f64(sq, 0) + vgetq_lane_f64(sq, 1));
        }
        let mut tail = 0.0f64;
        for i in base..n {
            tail = a[i].mul_add(b[i], tail);
        }
        super::combine(main16, main4, tail)
    }

    /// Block pricing: per-row [`dot`] inside one `#[target_feature]` frame
    /// (the row dots inline — matching features), paying dispatch and call
    /// overhead once per block instead of once per row.
    ///
    /// # Safety
    /// As for [`dot`], and every row must hold `x.len()` elements.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot_block<'a>(
        x: &[f64],
        row: impl Fn(usize) -> &'a [f64],
        out: &mut [f64],
    ) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = dot(x, row(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = (0..n).map(|i| (i as f64) * 0.37 - 4.1).collect();
        let b: Vec<f64> = (0..n).map(|i| 2.3 - (i as f64) * 0.11).collect();
        (a, b)
    }

    #[test]
    fn scalar_matches_naive_for_all_lengths() {
        for n in 0..70usize {
            let (a, b) = vecs(n);
            let naive: f64 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
            let got = scalar::dot(&a, &b);
            assert!(
                (got - naive).abs() < 1e-9 * (1.0 + naive.abs()),
                "length {n}: {got} vs {naive}"
            );
        }
    }

    #[test]
    fn every_available_backend_is_bit_identical_to_scalar() {
        for backend in Backend::available() {
            for n in 0..70usize {
                let (a, b) = vecs(n);
                let reference = dot_with(Backend::Scalar, &a, &b);
                let got = dot_with(backend, &a, &b);
                assert_eq!(
                    got.to_bits(),
                    reference.to_bits(),
                    "{} != scalar at length {n}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn dot_block_is_bit_identical_to_per_row_dots_on_every_backend() {
        // Rows 0..9 are ordinary; the rest are hostile: all `-0.0`,
        // alternating `±0.0` (signed-zero products), a `+∞` entry, a `-∞`
        // entry, and a NaN entry.
        const NAN_ROW: usize = 13;
        for backend in Backend::available() {
            // m brackets the dispatch threshold and exercises the 16-block
            // (four-row) path, quads and tails.
            for m in [2usize, 8, 16, 20, 32, 33, 48, 64] {
                let mut mu: Vec<f64> = (0..9 * m).map(|i| (i as f64) * 0.29 - 6.3).collect();
                mu.extend((0..m).map(|_| -0.0));
                mu.extend((0..m).map(|j| if j % 2 == 0 { 0.0 } else { -0.0 }));
                for special in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                    let at = mu.len() + m / 2;
                    mu.extend((0..m).map(|j| 0.5 + j as f64));
                    mu[at] = special;
                }
                // The same rows twice: slices of one flat matrix, and one
                // allocation per row, as the engine's clusters hold them.
                let flat: Vec<&[f64]> = mu.chunks_exact(m).collect();
                let owned: Vec<Vec<f64>> = mu.chunks_exact(m).map(<[f64]>::to_vec).collect();
                let x: Vec<f64> = (0..m).map(|i| 1.7 - (i as f64) * 0.13).collect();
                // Scattered and repeating; each rotation moves every hostile
                // row through each lane of a four-row group.
                let pool: [usize; 13] = [4, 9, 0, 8, 11, 2, 10, 7, 12, 1, 13, 5, 3];
                for shift in 0..4 {
                    let mut pool = pool;
                    pool.rotate_left(shift);
                    // Every block length from empty to past three groups of
                    // four, so each remainder length shows up.
                    for b in 0..=pool.len() {
                        let idx = &pool[..b];
                        let mut out = vec![0.0f64; b];
                        dot_block_with(backend, &x, |i| flat[idx[i]], &mut out);
                        let mut apart = vec![0.0f64; b];
                        dot_block_with(backend, &x, |i| &owned[idx[i]], &mut apart);
                        for (i, &r) in idx.iter().enumerate() {
                            let what = format!(
                                "{} dot_block[{i}] (row {r}) at m={m}, b={b}",
                                backend.name()
                            );
                            if r == NAN_ROW {
                                assert!(out[i].is_nan(), "{what} swallowed a NaN");
                                assert!(apart[i].is_nan(), "{what} apart swallowed a NaN");
                                continue;
                            }
                            let single = dot_with(backend, &x, flat[r]);
                            assert_eq!(out[i].to_bits(), single.to_bits(), "{what}");
                            assert_eq!(apart[i].to_bits(), single.to_bits(), "{what} apart");
                            let scalar = dot_with(Backend::Scalar, &x, flat[r]);
                            assert_eq!(out[i].to_bits(), scalar.to_bits(), "{what} vs scalar");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn price_block_is_bit_identical_to_dot_and_the_scalar_epilogue_on_every_backend() {
        // Hostile values for rows, pricers and scalars: signed zeros,
        // infinities, and magnitudes whose products overflow or vanish.
        const HOSTILE: [f64; 6] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1e150, -1e-150];
        // Row 2 holds a NaN whenever k > 2.
        const NAN_ROW: usize = 2;
        let value = |seed: usize| -> f64 {
            match seed % 11 {
                s @ 0..=5 => HOSTILE[s],
                s => (seed as f64) * 0.173 - 3.7 + s as f64,
            }
        };
        for backend in Backend::available() {
            for m in [1usize, 8, 15, 16, 17, 32, 33, 48, 64, 80] {
                for k in (0..=13).chain([20]) {
                    // Ordinary rows and columns, with hostile entries
                    // scattered through them.
                    let mut rows: Vec<Vec<f64>> = (0..k)
                        .map(|c| {
                            (0..m)
                                .map(|j| match (c * 7 + j * 3) % 13 {
                                    0 => value(c + j),
                                    _ => ((c * m + j) as f64) * 0.29 - 6.3,
                                })
                                .collect()
                        })
                        .collect();
                    if k > NAN_ROW {
                        rows[NAN_ROW][m / 2] = f64::NAN;
                    }
                    let columns: [Vec<f64>; 5] = std::array::from_fn(|col| {
                        (0..k)
                            .map(|c| match (c + 2 * col) % 5 {
                                0 => value(c * 5 + col),
                                _ => 0.5 + (c * 5 + col) as f64 * 0.37,
                            })
                            .collect()
                    });
                    let x: Vec<f64> = (0..m).map(|j| 1.7 - (j as f64) * 0.13).collect();
                    let ordinary = [2.25, 1.5, 3.75];
                    let scalar_sets = [
                        ordinary,
                        [0.0, -0.0, 0.0],
                        [-0.0, 0.0, -0.0],
                        [f64::INFINITY, 1.0, 2.0],
                        [1.0, f64::NEG_INFINITY, 2.0],
                        [1e150, -1e150, 1e-150],
                    ];
                    for scalars in scalar_sets {
                        let mut cross = vec![0.0; k];
                        let mut deltas = vec![0.0; k];
                        price_block_with(
                            backend,
                            &x,
                            scalars,
                            |c| &rows[c],
                            &columns,
                            &mut cross,
                            &mut deltas,
                        );
                        for c in 0..k {
                            let what = format!(
                                "{} price_block[{c}] at m={m}, k={k}, scalars {scalars:?}",
                                backend.name()
                            );
                            let want_cross = dot_with(Backend::Scalar, &x, &rows[c]);
                            let pricer = columns.each_ref().map(|col| col[c]);
                            let want = add_delta(pricer, scalars, want_cross);
                            if c == NAN_ROW {
                                assert!(cross[c].is_nan(), "{what} swallowed a NaN cross");
                                assert!(deltas[c].is_nan(), "{what} swallowed a NaN delta");
                                continue;
                            }
                            // A NaN's payload is not part of the contract.
                            let same = |got: f64, want: f64| {
                                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
                            };
                            assert!(same(cross[c], want_cross), "{what} cross {}", cross[c]);
                            assert!(
                                same(deltas[c], want),
                                "{what} delta {} vs {want}",
                                deltas[c]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one entry per row")]
    fn price_block_refuses_a_short_pricer_column() {
        let x = [1.0; 16];
        let mut pricers: [Vec<f64>; 5] = std::array::from_fn(|_| vec![1.0; 4]);
        pricers[2].pop();
        price_block(&x, [0.0; 3], |_| &x, &pricers, &mut [0.0; 4], &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "dot_block rows must match")]
    fn dot_block_refuses_a_row_of_the_wrong_length() {
        let x = [1.0; 16];
        let short = [1.0; 15];
        dot_block(&x, |_| &short, &mut [0.0]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_backend_handles_short_rows_directly() {
        // Dispatch never sends sub-threshold rows to a backend, but the
        // backend functions stay total: check them below the threshold too.
        if !Backend::Avx2.is_available() {
            return;
        }
        for n in 0..20usize {
            let (a, b) = vecs(n);
            let got = unsafe { avx2::dot(&a, &b) };
            let reference = scalar::dot(&a, &b);
            assert_eq!(got.to_bits(), reference.to_bits(), "length {n}");
        }
    }

    #[test]
    fn dispatched_dot_matches_forced_active_backend() {
        let (a, b) = vecs(33);
        let via_dispatch = dot(&a, &b);
        let via_explicit = dot_with(active_backend(), &a, &b);
        assert_eq!(via_dispatch.to_bits(), via_explicit.to_bits());
    }

    #[test]
    fn force_backend_round_trips() {
        let detected = Backend::detect();
        force_backend(Backend::Scalar).unwrap();
        assert_eq!(active_backend(), Backend::Scalar);
        force_backend(detected).unwrap();
        assert_eq!(active_backend(), detected);
        #[cfg(target_arch = "x86_64")]
        assert!(force_backend(Backend::Neon).is_err());
        #[cfg(target_arch = "aarch64")]
        assert!(force_backend(Backend::Avx2).is_err());
    }

    #[test]
    fn nan_and_infinity_propagate_identically() {
        for backend in Backend::available() {
            for (position, len) in [(0usize, 5usize), (3, 20), (17, 33), (40, 64)] {
                // A NaN anywhere must surface as NaN from every backend.
                let (mut a, b) = vecs(len);
                a[position.min(len - 1)] = f64::NAN;
                assert!(
                    dot_with(backend, &a, &b).is_nan(),
                    "{} swallowed a NaN at {position}/{len}",
                    backend.name()
                );
                // A single infinity (with a nonzero partner) must produce
                // the same signed infinity everywhere.
                let (mut a, b) = vecs(len);
                a[position.min(len - 1)] = f64::INFINITY;
                let reference = dot_with(Backend::Scalar, &a, &b);
                let got = dot_with(backend, &a, &b);
                assert_eq!(
                    got.to_bits(),
                    reference.to_bits(),
                    "{} infinity at {position}/{len}: {got} vs {reference}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn unfused_reference_agrees_within_rounding() {
        for n in [0usize, 1, 3, 4, 15, 16, 31, 32, 33, 64] {
            let (a, b) = vecs(n);
            let fused = scalar::dot(&a, &b);
            let unfused = dot_unfused(&a, &b);
            let scale: f64 = a.iter().zip(&b).map(|(&x, &y)| (x * y).abs()).sum();
            assert!(
                (fused - unfused).abs() <= 1e-13 * (1.0 + scale),
                "length {n}: fused {fused} vs unfused {unfused}"
            );
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
        let mut out = [1.0; 2];
        dot_block(&[], |_| &[], &mut out);
        assert_eq!(out, [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mismatched_lengths_panic() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
