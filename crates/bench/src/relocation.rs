//! Shared workload for the relocation-kernel micro-benchmark: the UCPC inner
//! loop evaluated two ways over identical data — the original naive
//! three-sweep path ([`crate::naive`]: `j_after_remove` + (k−1) ×
//! `j_after_add` against cached cluster objectives) and the
//! scalar-aggregate delta-`J` kernel (one fused dot product per candidate,
//! moments read from the flat [`MomentArena`]).
//!
//! Both the criterion bench (`benches/relocation_kernel.rs`) and the
//! `bench_relocation` binary (which emits the machine-readable
//! `BENCH_relocation.json` baseline) drive these functions, so the numbers
//! in the report and the JSON come from the same code path.

use crate::naive::{j_after_add, j_after_remove, j_naive};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use ucpc_core::objective::ClusterStats;
use ucpc_core::pruning::{PricingTable, PruneCounters, PruningConfig};
use ucpc_core::Ucpc;
use ucpc_datasets::uncertainty::{NoiseKind, PdfAssignment, SpreadScaling, UncertaintyModel};
use ucpc_uncertain::simd::{self, Backend};
use ucpc_uncertain::{MomentArena, UncertainObject, UnivariatePdf};

/// One grid point of the benchmark: `n` objects, `m` dimensions, `k` clusters.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Number of objects.
    pub n: usize,
    /// Number of dimensions.
    pub m: usize,
    /// Number of clusters.
    pub k: usize,
}

/// The default n × m × k grid, including the acceptance point
/// (n=10000, m=32, k=20).
pub const GRID: [Shape; 3] = [
    Shape {
        n: 2_000,
        m: 8,
        k: 5,
    },
    Shape {
        n: 10_000,
        m: 32,
        k: 20,
    },
    Shape {
        n: 10_000,
        m: 64,
        k: 10,
    },
];

/// A ready-to-scan workload: the dataset in both representations plus a
/// label assignment and per-cluster statistics.
pub struct Workload {
    /// The objects (consumed by the naive path through `Moments`).
    pub data: Vec<UncertainObject>,
    /// The same moments in flat SoA form (consumed by the kernel path).
    pub arena: MomentArena,
    /// Cluster assignment, every cluster non-empty.
    pub labels: Vec<usize>,
    /// Per-cluster sufficient statistics for `labels`.
    pub stats: Vec<ClusterStats>,
    /// Number of clusters.
    pub k: usize,
}

/// Builds a seeded Gaussian workload for one grid shape.
pub fn workload(shape: Shape, seed: u64) -> Workload {
    let Shape { n, m, k } = shape;
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<UncertainObject> = (0..n)
        .map(|_| {
            UncertainObject::new(
                (0..m)
                    .map(|_| {
                        UnivariatePdf::normal(rng.gen_range(-10.0..10.0), rng.gen_range(0.1..1.5))
                    })
                    .collect(),
            )
        })
        .collect();
    let labels: Vec<usize> = (0..n)
        .map(|i| if i < k { i } else { rng.gen_range(0..k) })
        .collect();
    let arena = MomentArena::from_objects(&data);
    let mut stats = vec![ClusterStats::empty(m); k];
    for (i, &l) in labels.iter().enumerate() {
        stats[l].add_view(&arena.view(i));
    }
    Workload {
        data,
        arena,
        labels,
        stats,
        k,
    }
}

/// One evaluation-only relocation pass on the naive three-sweep path: for
/// every object, `J(src − o)` plus `J(dst + o)` for each of the k−1
/// candidates, against cached per-cluster objectives — exactly the work the
/// pre-kernel UCPC inner loop performed. Returns the sum of best deltas (a
/// value the optimizer cannot discard).
pub fn naive_pass(w: &Workload) -> f64 {
    let j_cache: Vec<f64> = w.stats.iter().map(j_naive).collect();
    let mut acc = 0.0;
    for (i, o) in w.data.iter().enumerate() {
        let src = w.labels[i];
        if w.stats[src].size() <= 1 {
            continue;
        }
        let moments = o.moments();
        let removal_gain = j_after_remove(&w.stats[src], moments) - j_cache[src];
        let mut best = f64::INFINITY;
        for (dst, (stat, cached)) in w.stats.iter().zip(&j_cache).enumerate() {
            if dst == src {
                continue;
            }
            let delta = removal_gain + j_after_add(stat, moments) - cached;
            if delta < best {
                best = delta;
            }
        }
        acc += best;
    }
    acc
}

/// The same evaluation-only pass on the scalar-aggregate delta-`J` kernel,
/// through the scan the engine runs: [`PricingTable::relocation`] prices
/// every candidate with one `dot_block` over the clusters' own mean-sum
/// rows plus hoisted per-cluster pricers (derived once, since the pass
/// moves nothing), under whichever SIMD backend is active.
pub fn kernel_pass(w: &Workload) -> f64 {
    let mut table = PricingTable::new(w.stats.clone());
    let mut acc = 0.0;
    for i in 0..w.arena.len() {
        let src = w.labels[i];
        if w.stats[src].size() <= 1 {
            continue;
        }
        let v = w.arena.view(i);
        if let Some((_, delta, _)) = table.relocation(src, &v) {
            acc += delta;
        }
    }
    acc
}

/// The Section-5.1 uncertainty model the arena-native workloads inject:
/// Normal pdfs with spreads proportional to the per-dimension standard
/// deviation (so the noise scale tracks the blob geometry, not individual
/// coordinate magnitudes).
fn bench_model() -> UncertaintyModel {
    UncertaintyModel {
        scaling: SpreadScaling::DimStd,
        spread_range: (0.02, 0.2),
        ..UncertaintyModel::paper_default(NoiseKind::Normal)
    }
}

/// Builds an arena straight from deterministic points through the
/// `PdfAssignment` pipeline — the batch path the relocation benchmarks
/// default to: pdfs are assigned per point and their truncated moments are
/// written into a pre-reserved [`MomentArena`] with zero per-object heap
/// allocations (`assign_into_arena`); no `UncertainObject` is ever
/// materialized.
fn arena_from_points(points: &[Vec<f64>], rng: &mut StdRng) -> MomentArena {
    let m = points[0].len();
    let inv = 1.0 / points.len() as f64;
    let mut mean = vec![0.0f64; m];
    for p in points {
        for j in 0..m {
            mean[j] += p[j];
        }
    }
    let mut dim_std = vec![0.0f64; m];
    for p in points {
        for j in 0..m {
            let d = p[j] - mean[j] * inv;
            dim_std[j] += d * d;
        }
    }
    for s in &mut dim_std {
        *s = (*s * inv).sqrt().max(1e-9);
    }
    let assignment = PdfAssignment::assign(points, &dim_std, &bench_model(), rng);
    let mut arena = MomentArena::with_capacity(points.len(), m);
    assignment.assign_into_arena(&mut arena);
    arena
}

/// A clustered (Gaussian-blob) workload for the end-to-end pruned-vs-unpruned
/// relocation-phase comparison. Candidate pruning pays off exactly when most
/// objects' cluster neighborhoods are stable — the regime of the paper's
/// datasets — so the pruning benchmark runs on clusterable data; the uniform
/// [`workload`] above (no structure, every margin small) remains the kernel
/// microbench substrate and doubles as pruning's adversarial case. Built
/// through the arena-native `assign_into_arena` pipeline.
pub fn blob_workload(shape: Shape, seed: u64) -> (MomentArena, Vec<usize>) {
    let Shape { n, m, k } = shape;
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect())
        .collect();
    let points: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let c = &centers[i % k];
            (0..m).map(|j| c[j] + rng.gen_range(-1.5..1.5)).collect()
        })
        .collect();
    let arena = arena_from_points(&points, &mut rng);
    let labels: Vec<usize> = (0..n)
        .map(|i| if i < k { i } else { rng.gen_range(0..k) })
        .collect();
    (arena, labels)
}

/// One grid row of the end-to-end pruning comparison.
#[derive(Debug, Clone)]
pub struct PruningRow {
    /// The shape measured.
    pub shape: Shape,
    /// Median wall time of the full relocation phase, pruning off.
    pub unpruned_ns: u128,
    /// Median wall time of the full relocation phase, pruning on.
    pub pruned_ns: u128,
    /// `unpruned_ns / pruned_ns`.
    pub speedup: f64,
    /// Skip/scan counters of the last pruned run.
    pub counters: PruneCounters,
    /// Passes until convergence (identical for both configurations).
    pub iterations: usize,
}

/// Runs the full UCPC relocation phase (identical arena + initial labels)
/// with pruning off and on, `reps` times each, and reports median wall
/// times. Asserts — on every repetition — that the two runs produce
/// identical labels and iteration counts: the benchmark doubles as an
/// end-to-end exactness check.
pub fn pruning_comparison(shape: Shape, seed: u64, reps: usize) -> PruningRow {
    let (arena, labels) = blob_workload(shape, seed);
    let algo = |pruning| Ucpc {
        pruning,
        ..Ucpc::default()
    };

    let mut unpruned_ns = Vec::with_capacity(reps);
    let mut pruned_ns = Vec::with_capacity(reps);
    let mut counters = PruneCounters::default();
    let mut iterations = 0usize;
    for _ in 0..reps {
        // Each run takes its rows by value; the copy is not timed.
        let rows = arena.clone();
        let t = Instant::now();
        let off = algo(PruningConfig::Off)
            .run_on_arena(rows, shape.k, labels.clone())
            .expect("unpruned run");
        unpruned_ns.push(t.elapsed().as_nanos());

        let rows = arena.clone();
        let t = Instant::now();
        let on = algo(PruningConfig::Bounds)
            .run_on_arena(rows, shape.k, labels.clone())
            .expect("pruned run");
        pruned_ns.push(t.elapsed().as_nanos());

        assert_eq!(
            off.clustering.labels(),
            on.clustering.labels(),
            "pruned relocation phase diverged from the reference"
        );
        assert_eq!(off.iterations, on.iterations);
        counters = on.pruning;
        iterations = on.iterations;
    }
    unpruned_ns.sort_unstable();
    pruned_ns.sort_unstable();
    let unpruned = unpruned_ns[unpruned_ns.len() / 2];
    let pruned = pruned_ns[pruned_ns.len() / 2];
    PruningRow {
        shape,
        unpruned_ns: unpruned,
        pruned_ns: pruned,
        speedup: unpruned as f64 / pruned as f64,
        counters,
        iterations,
    }
}

/// Median nanoseconds per call of `f` over `reps` timed repetitions (after
/// one warm-up call). The accumulated objective stays observable so the
/// passes cannot be optimized away.
pub fn median_ns(w: &Workload, reps: usize, f: fn(&Workload) -> f64) -> u128 {
    let mut sink = 0.0;
    sink += f(w); // warm-up
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            sink += f(w);
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    assert!(
        sink.is_finite(),
        "benchmark payload produced a non-finite objective"
    );
    samples[samples.len() / 2]
}

/// One grid row of the scalar-vs-SIMD kernel comparison.
#[derive(Debug, Clone)]
pub struct SimdRow {
    /// The shape measured.
    pub shape: Shape,
    /// Median wall time of one kernel pass under `UCPC_SIMD=scalar`.
    pub scalar_ns: u128,
    /// Median wall time of the same pass under the detected SIMD backend.
    pub simd_ns: u128,
    /// `scalar_ns / simd_ns`.
    pub speedup: f64,
    /// `UCPC_SIMD` name of the SIMD backend measured (`"scalar"` when the
    /// machine has no vector backend and the row is a self-comparison).
    pub backend: &'static str,
    /// Whether the SIMD backend actually engages on this shape. `false`
    /// when `m` is below [`ucpc_uncertain::simd::DISPATCH_THRESHOLD`] (both
    /// legs then run the identical inlined short-row path and the measured
    /// "speedup" is timing noise) or when the machine has no vector
    /// backend.
    pub engaged: bool,
}

/// Times one evaluation-only kernel pass with the scalar backend forced and
/// with the machine's best SIMD backend, and — because the backends promise
/// bit-identical results, not just close ones — runs the *full* UCPC
/// relocation phase under both and asserts byte-identical labels. The
/// process is restored to whatever backend was active on entry (the
/// env-resolved one on first use), so surrounding measurements keep
/// honouring `UCPC_SIMD`.
pub fn simd_comparison(shape: Shape, seed: u64, reps: usize) -> SimdRow {
    let w = workload(shape, seed);
    let restore = simd::active_backend();
    let best = Backend::detect();

    simd::force_backend(Backend::Scalar).expect("scalar backend always available");
    let scalar_ns = median_ns(&w, reps, kernel_pass);
    simd::force_backend(best).expect("detected backend must be available");
    let simd_ns = median_ns(&w, reps, kernel_pass);

    // End-to-end exactness: identical labels from the full relocation phase
    // under the scalar backend and under the SIMD backend.
    let (arena, labels) = blob_workload(shape, seed);
    simd::force_backend(Backend::Scalar).expect("scalar backend always available");
    let scalar_run = Ucpc::default()
        .run_on_arena(arena.clone(), shape.k, labels.clone())
        .expect("scalar-backend run");
    simd::force_backend(best).expect("detected backend must be available");
    let simd_run = Ucpc::default()
        .run_on_arena(arena, shape.k, labels)
        .expect("SIMD-backend run");
    assert_eq!(
        scalar_run.clustering.labels(),
        simd_run.clustering.labels(),
        "SIMD backend diverged from the scalar reference"
    );
    assert_eq!(scalar_run.iterations, simd_run.iterations);
    simd::force_backend(restore).expect("previously active backend must be available");

    SimdRow {
        shape,
        scalar_ns,
        simd_ns,
        speedup: scalar_ns as f64 / simd_ns as f64,
        backend: best.name(),
        engaged: best != Backend::Scalar && shape.m >= simd::DISPATCH_THRESHOLD,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_paths_agree_on_the_same_workload() {
        let w = workload(Shape { n: 200, m: 6, k: 4 }, 42);
        let naive = naive_pass(&w);
        let kernel = kernel_pass(&w);
        assert!(
            (naive - kernel).abs() <= 1e-9 * (1.0 + naive.abs()),
            "naive {naive} vs kernel {kernel}"
        );
    }

    #[test]
    fn workload_clusters_are_nonempty() {
        let w = workload(Shape { n: 50, m: 3, k: 7 }, 1);
        assert!(w.stats.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn simd_comparison_is_exact_across_backends() {
        // Small shape: the point here is the byte-identical-labels assertion
        // inside `simd_comparison`, not the timing.
        let row = simd_comparison(
            Shape {
                n: 300,
                m: 32,
                k: 7,
            },
            3,
            2,
        );
        assert!(row.scalar_ns > 0 && row.simd_ns > 0);
    }

    #[test]
    fn pruning_comparison_is_exact_and_skips() {
        let row = pruning_comparison(Shape { n: 400, m: 8, k: 5 }, 11, 2);
        // `pruning_comparison` asserts label equality internally; here we
        // additionally require the bounds to have fired at all.
        assert!(
            row.counters.skips + row.counters.confirms > 0,
            "no candidate scan was ever pruned: {:?}",
            row.counters
        );
    }
}
