//! Criterion benchmarks of the closed-form objective machinery: Theorem 3's
//! O(|C| m) evaluation, Corollary 1's O(m) incremental updates, and the
//! Proposition 2/3 identities (J_MM, Ĵ) — the formal backbone of the paper.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ucpc_bench::naive::j_after_add;
use ucpc_core::objective::ClusterStats;
use ucpc_core::ucentroid::UCentroid;
use ucpc_uncertain::{UncertainObject, UnivariatePdf};

fn cluster(n: usize, m: usize, seed: u64) -> Vec<UncertainObject> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            UncertainObject::new(
                (0..m)
                    .map(|_| {
                        UnivariatePdf::normal(rng.gen_range(-5.0..5.0), rng.gen_range(0.1..2.0))
                    })
                    .collect(),
            )
        })
        .collect()
}

fn bench_theorem3_vs_bruteforce(c: &mut Criterion) {
    let objs = cluster(256, 16, 1);
    let refs: Vec<&UncertainObject> = objs.iter().collect();
    let stats = ClusterStats::from_members(objs.iter());

    let mut group = c.benchmark_group("objective_j");
    group.bench_function("theorem3_closed_form", |b| b.iter(|| black_box(stats.j())));
    group.bench_function("bruteforce_via_ucentroid", |b| {
        b.iter(|| {
            let c = UCentroid::from_cluster(&refs);
            let j: f64 = objs
                .iter()
                .map(|o| {
                    ucpc_uncertain::distance::expected_sq_distance_from_moments(
                        o.mu(),
                        o.mu2(),
                        c.mu(),
                        c.mu2(),
                    )
                })
                .sum();
            black_box(j)
        })
    });
    group.finish();
}

fn bench_corollary1_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("corollary1_incremental");
    for m in [4usize, 16, 64] {
        let objs = cluster(128, m, 2);
        let stats = ClusterStats::from_members(objs[..127].iter());
        let extra = objs[127].moments();
        group.bench_with_input(BenchmarkId::new("j_after_add", m), &m, |b, _| {
            b.iter(|| black_box(j_after_add(&stats, extra)))
        });
        group.bench_with_input(BenchmarkId::new("rebuild_from_scratch", m), &m, |b, _| {
            b.iter(|| black_box(ClusterStats::from_members(objs.iter()).j()))
        });
    }
    group.finish();
}

fn bench_proposition_identities(c: &mut Criterion) {
    let objs = cluster(512, 8, 3);
    let stats = ClusterStats::from_members(objs.iter());
    let mut group = c.benchmark_group("proposition_identities");
    group.bench_function("j_uk", |b| b.iter(|| black_box(stats.j_uk())));
    group.bench_function("j_mm", |b| b.iter(|| black_box(stats.j_mm())));
    group.bench_function("j_hat", |b| b.iter(|| black_box(stats.j_hat())));
    group.finish();
}

criterion_group!(
    benches,
    bench_theorem3_vs_bruteforce,
    bench_corollary1_updates,
    bench_proposition_identities
);
criterion_main!(benches);
