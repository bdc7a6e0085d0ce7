//! Scheduler-determinism gate for the parallel relocation engine: for a
//! fixed dataset, seed and initial partition, `ParallelUcpc` (work-stealing
//! shards over snapshot-free versioned statistics) must produce
//! **byte-identical** labels, pass counts and applied relocations across
//!
//! * thread counts 1 / 2 / 4 / 8,
//! * candidate pruning off and on, and
//! * the scalar and the machine's detected SIMD dot-product backend,
//!
//! all against **one** shared reference per dataset: the single-threaded
//! model `ref_parallel` (`tests/support/reference.rs`), which proposes
//! against a pass-start clone and re-prices every proposal — so any
//! pairwise combination of the axes is pinned, not just neighbors. SIMD forcing
//! is process-global, but the backends are bit-identical by construction
//! (see `ucpc_uncertain::simd`), so concurrently running tests cannot be
//! perturbed by it.

mod support;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::reference::ref_parallel;
use ucpc::core::parallel::ParallelUcpc;
use ucpc::core::restarts::BestOfRestarts;
use ucpc::core::{PruningConfig, Ucpc};
use ucpc::uncertain::simd::{self, Backend};
use ucpc::uncertain::{MomentArena, UncertainObject, UnivariatePdf};

/// Mixed-family random dataset (same generator family as the pruning
/// exactness suite); every third object duplicates the first so tie-breaks
/// are exercised.
fn dataset(n: usize, m: usize, seed: u64) -> Vec<UncertainObject> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data: Vec<UncertainObject> = (0..n)
        .map(|_| {
            UncertainObject::new(
                (0..m)
                    .map(|_| {
                        let mean = rng.gen_range(-8.0..8.0);
                        let spread = rng.gen_range(0.05..2.0);
                        match rng.gen_range(0..3u8) {
                            0 => UnivariatePdf::uniform_centered(mean, spread),
                            1 => UnivariatePdf::normal(mean, spread),
                            _ => UnivariatePdf::PointMass { x: mean },
                        }
                    })
                    .collect(),
            )
        })
        .collect();
    let first = data[0].clone();
    for i in (0..n).step_by(3) {
        data[i] = first.clone();
    }
    data
}

fn random_labels(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| if i < k { i } else { rng.gen_range(0..k) })
        .collect()
}

#[test]
fn labels_are_identical_across_threads_backends_pruning_and_simd() {
    // Shapes straddle the SIMD dispatch threshold (m = 24 engages AVX2/NEON,
    // m = 4 stays on the short-row path) and include k large relative to n.
    let shapes = [(120usize, 4usize, 5usize), (90, 24, 3), (64, 2, 8)];
    let restore = simd::active_backend();
    for &(n, m, k) in &shapes {
        for seed in [1u64, 2] {
            let data = dataset(n, m, seed);
            let arena = MomentArena::from_objects(&data);
            let init = random_labels(n, k, seed + 31);
            let (labels, iterations, applied, _) =
                ref_parallel(&ParallelUcpc::default(), &arena, k, init.clone());
            let want = (labels, iterations, applied);
            for simd_backend in [Backend::Scalar, Backend::detect()] {
                simd::force_backend(simd_backend).expect("backend available");
                for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
                    for threads in [1usize, 2, 4, 8] {
                        let r = ParallelUcpc {
                            threads,
                            pruning,
                            ..ParallelUcpc::default()
                        }
                        .run_on_arena(&arena, k, init.clone())
                        .unwrap();
                        let got = (r.clustering.labels().to_vec(), r.iterations, r.applied);
                        assert_eq!(
                            want, got,
                            "diverged: n={n} m={m} k={k} seed={seed} \
                             {threads} threads, {pruning:?}, simd {simd_backend:?}"
                        );
                    }
                }
            }
        }
    }
    simd::force_backend(restore).expect("previously active backend");
}

#[test]
fn restart_pool_is_deterministic_across_threads_and_pruning() {
    let data = dataset(72, 3, 9);
    for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
        // One reference per pruning config: thread counts must reproduce
        // bit-identical per-restart objectives (cross-pruning equivalence is
        // the exactness suite's job and tolerates last-ulp drift).
        let mut reference: Option<(usize, Vec<usize>, Vec<f64>)> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut rng = StdRng::seed_from_u64(17);
            let r = BestOfRestarts {
                algorithm: Ucpc {
                    pruning,
                    ..Ucpc::default()
                },
                restarts: 7,
                threads,
            }
            .run(&data, 4, &mut rng)
            .unwrap();
            let got = (
                r.winner,
                r.best.clustering.labels().to_vec(),
                r.objectives.clone(),
            );
            match &reference {
                Some(want) => assert_eq!(
                    want, &got,
                    "restart pool diverged: {threads} threads, {pruning:?}"
                ),
                None => reference = Some(got),
            }
        }
    }
}
