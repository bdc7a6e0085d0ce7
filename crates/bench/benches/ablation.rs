//! Ablation benchmarks for the choices the README's "Substitutions" section
//! calls out:
//!
//! * UCPC's J objective vs the pure U-centroid-variance criterion of
//!   Section 4.2.1 (which Theorem 2 reduces to member-variance averaging) on
//!   the Figure-1/Figure-2 archetype workloads — measuring both cost and,
//!   via the harness, which criterion ranks the archetypes correctly;
//! * initializer choice (random partition vs k-means++) for UCPC;
//! * immediate vs capped relocation passes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ucpc_core::objective::ClusterStats;
use ucpc_core::{Initializer, Ucpc};
use ucpc_datasets::benchmark::{generate_fraction, DatasetSpec};
use ucpc_datasets::uncertainty::{NoiseKind, PdfAssignment, UncertaintyModel};
use ucpc_uncertain::{UncertainObject, UnivariatePdf};

/// Figure-2 archetype: close-together high-variance vs far-apart low-variance.
fn figure2_archetypes() -> (Vec<UncertainObject>, Vec<UncertainObject>) {
    let far: Vec<UncertainObject> = [-10.0, 0.0, 10.0]
        .iter()
        .map(|&c| UncertainObject::new(vec![UnivariatePdf::normal(c, 0.1)]))
        .collect();
    let close: Vec<UncertainObject> = [-0.5, 0.0, 0.5]
        .iter()
        .map(|&c| UncertainObject::new(vec![UnivariatePdf::normal(c, 1.0)]))
        .collect();
    (far, close)
}

fn bench_compactness_criteria(c: &mut Criterion) {
    let (far, close) = figure2_archetypes();
    let s_far = ClusterStats::from_members(far.iter());
    let s_close = ClusterStats::from_members(close.iter());

    let mut group = c.benchmark_group("compactness_criteria");
    group.bench_function("j_theorem3", |b| {
        b.iter(|| black_box((s_far.j(), s_close.j())))
    });
    group.bench_function("ucentroid_variance_theorem2", |b| {
        b.iter(|| black_box((s_far.ucentroid_variance(), s_close.ucentroid_variance())))
    });
    group.finish();

    // Sanity printed once per bench run: J ranks the archetypes correctly,
    // the pure-variance criterion does not (Figure 2's point).
    assert!(s_close.j() < s_far.j());
    assert!(s_close.ucentroid_variance() > s_far.ucentroid_variance());
}

fn workload(seed: u64) -> Vec<UncertainObject> {
    let spec = DatasetSpec {
        name: "abl",
        objects: 400,
        attributes: 6,
        classes: 4,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let d = generate_fraction(spec, 1.0, &mut rng);
    let model = UncertaintyModel::paper_default(NoiseKind::Normal);
    PdfAssignment::assign(&d.points, &d.dim_std(), &model, &mut rng).uncertain_objects()
}

fn bench_initializers(c: &mut Criterion) {
    let data = workload(4);
    let mut group = c.benchmark_group("ucpc_initializer");
    for (name, init) in [
        ("random_partition", Initializer::RandomPartition),
        ("random_centroids", Initializer::RandomCentroids),
        ("kmeans_plus_plus", Initializer::KMeansPlusPlus),
    ] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(9);
                let alg = Ucpc {
                    init,
                    ..Ucpc::default()
                };
                black_box(alg.run(&data, 4, &mut rng).unwrap().objective)
            })
        });
    }
    group.finish();
}

fn bench_iteration_caps(c: &mut Criterion) {
    let data = workload(5);
    let mut group = c.benchmark_group("ucpc_iteration_cap");
    for cap in [1usize, 3, 10, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(cap), &cap, |b, &cap| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(9);
                let alg = Ucpc {
                    max_iters: cap,
                    ..Ucpc::default()
                };
                black_box(alg.run(&data, 4, &mut rng).unwrap().objective)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compactness_criteria,
    bench_initializers,
    bench_iteration_caps
);
criterion_main!(benches);
