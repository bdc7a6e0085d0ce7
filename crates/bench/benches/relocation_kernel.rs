//! Criterion micro-benchmark of the UCPC relocation pass: the naive
//! three-sweep Corollary-1 evaluation vs the flat-arena scalar-aggregate
//! delta-`J` kernel, plus the kernel under the forced `scalar` backend vs
//! the machine's detected SIMD backend, over an n × m × k grid that
//! includes the acceptance point (n=10000, m=32, k=20), and the fused
//! pricing kernel (`simd::price_block`) against `dot_block` plus the scalar
//! epilogue at the serving shape (k=8, m=16) and the acceptance shape
//! (k=20, m=32). Run `cargo bench --bench relocation_kernel`; the
//! `bench_relocation` binary emits the relocation measurements as
//! `BENCH_relocation.json`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ucpc_bench::relocation::{kernel_pass, naive_pass, workload, Shape, GRID};
use ucpc_bench::streaming::{churn_once, streaming_workload, ChurnSpec};
use ucpc_core::pruning::PruningConfig;
use ucpc_uncertain::simd::{
    active_backend, add_delta, dot_block, force_backend, price_block, Backend,
};

fn bench_relocation_pass(c: &mut Criterion) {
    let restore = active_backend();
    let detected = Backend::detect();
    let mut group = c.benchmark_group("relocation_pass");
    group.sample_size(11);
    for shape in GRID {
        let w = workload(shape, 7);
        let label = format!("n{}_m{}_k{}", shape.n, shape.m, shape.k);
        group.bench_with_input(BenchmarkId::new("naive", &label), &w, |b, w| {
            b.iter(|| black_box(naive_pass(w)))
        });
        // The kernel under the scalar fallback and under the detected SIMD
        // backend; results are bit-identical, only the timing differs.
        force_backend(Backend::Scalar).expect("scalar backend always available");
        group.bench_with_input(BenchmarkId::new("kernel_scalar", &label), &w, |b, w| {
            b.iter(|| black_box(kernel_pass(w)))
        });
        // Only register the SIMD row when there is a distinct SIMD backend;
        // otherwise the ID would duplicate "kernel_scalar".
        if detected != Backend::Scalar {
            force_backend(detected).expect("detected backend must be available");
            group.bench_with_input(
                BenchmarkId::new(format!("kernel_{}", detected.name()), &label),
                &w,
                |b, w| b.iter(|| black_box(kernel_pass(w))),
            );
        }
    }
    group.finish();
    // Back to the env-resolved backend so later benches honour UCPC_SIMD.
    force_backend(restore).expect("previously active backend must be available");
}

fn bench_streaming_churn(c: &mut Criterion) {
    // The IncrementalUcpc churn loop (remove/insert/stabilize), pruning on
    // — the configuration where surgical invalidation engages. Small
    // shape: criterion re-runs the whole cycle many times.
    let shape = Shape {
        n: 2_000,
        m: 16,
        k: 5,
    };
    let spec = ChurnSpec {
        ops: 100,
        stabilize_every: 20,
        passes: 2,
    };
    let w = streaming_workload(shape, spec, 7);
    let mut group = c.benchmark_group("streaming_churn");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("bounds", "n2000_m16_k5"), |b| {
        b.iter(|| black_box(churn_once(&w, PruningConfig::Bounds).objective))
    });
    group.finish();
}

/// One object priced against `k` clusters, as every placement, serving
/// answer and full relocation scan does: the fused kernel against the
/// cross terms of `dot_block` followed by the scalar epilogue. Both write
/// the same bits (`simd::tests`); only the timing differs.
fn bench_price_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("price_block");
    for (k, m) in [(8usize, 16usize), (20, 32)] {
        let rows: Vec<Vec<f64>> = (0..k)
            .map(|c| (0..m).map(|j| ((c * m + j) as f64) * 0.29 - 6.3).collect())
            .collect();
        let columns: [Vec<f64>; 5] =
            std::array::from_fn(|col| (0..k).map(|c| 0.5 + (c * 5 + col) as f64 * 0.37).collect());
        let x: Vec<f64> = (0..m).map(|j| 1.7 - (j as f64) * 0.13).collect();
        let scalars = [2.25, 1.5, 3.75];
        let (mut cross, mut deltas) = (vec![0.0; k], vec![0.0; k]);
        let label = format!("k{k}_m{m}");
        group.bench_function(BenchmarkId::new("fused", &label), |b| {
            b.iter(|| {
                price_block(
                    black_box(&x),
                    scalars,
                    |c| &rows[c],
                    &columns,
                    &mut cross,
                    &mut deltas,
                );
                black_box(&deltas);
            })
        });
        group.bench_function(BenchmarkId::new("dot_block_epilogue", &label), |b| {
            b.iter(|| {
                dot_block(black_box(&x), |c| &rows[c], &mut cross);
                for (c, (delta, &cross)) in deltas.iter_mut().zip(&cross).enumerate() {
                    *delta = add_delta(columns.each_ref().map(|p| p[c]), scalars, cross);
                }
                black_box(&deltas);
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_relocation_pass,
    bench_streaming_churn,
    bench_price_block
);
criterion_main!(benches);
