//! Pins the exact relocation-pruning counters of two seeded runs.
//!
//! Pruning is bit-neutral (`tests/pruning_exactness.rs`), so only the
//! counters say *which* tier decided each object. A change to the prune
//! cache's layout, its snapshot rows or the tier ladder that keeps every
//! label but loses (or invents) a skip shows up here as a changed triple.
//! Both runs set pruning explicitly, so the pins hold under any
//! `UCPC_PRUNING`; the SIMD backends are bit-identical, so they hold under
//! any `UCPC_SIMD` too.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ucpc::core::incremental::IncrementalUcpc;
use ucpc::core::{PruneCounters, PruningConfig, Ucpc};
use ucpc::uncertain::{UncertainObject, UnivariatePdf};

/// One object near one of `k` blob centres spaced `gap` apart.
fn blob_object(rng: &mut StdRng, m: usize, k: usize, gap: f64) -> UncertainObject {
    let centre = rng.gen_range(0..k) as f64 * gap;
    UncertainObject::new(
        (0..m)
            .map(|j| {
                let mean = centre + (j % 3) as f64 + rng.gen_range(-2.5..2.5);
                UnivariatePdf::normal(mean, rng.gen_range(0.05..1.0))
            })
            .collect(),
    )
}

/// The decision tally: skips, confirms, full scans.
fn tiers(c: PruneCounters) -> (usize, usize, usize) {
    (c.skips, c.confirms, c.full_scans)
}

#[test]
fn a_churning_then_stabilizing_stream_prunes_exactly_as_pinned() {
    let (m, k, window) = (8, 5, 300);
    let mut rng = StdRng::seed_from_u64(2026);
    let mut live = IncrementalUcpc::new(m, k).unwrap();
    live.set_pruning(PruningConfig::Bounds);
    let mut handles = std::collections::VecDeque::new();
    for _ in 0..window {
        handles.push_back(live.insert(&blob_object(&mut rng, m, k, 6.0)).unwrap());
    }
    let settled = live.stabilize(50);
    // Churn: replace the oldest object, stabilizing every 25 edits.
    let mut churned = 0;
    for edit in 0..400 {
        live.remove(handles.pop_front().unwrap()).unwrap();
        handles.push_back(live.insert(&blob_object(&mut rng, m, k, 6.0)).unwrap());
        if edit % 25 == 24 {
            churned += live.stabilize(3);
        }
    }
    // Then stabilize to convergence.
    let last = live.stabilize(50);
    let counters = live.pruning_counters();
    assert_eq!(
        (settled, churned, last, tiers(counters)),
        (5, 37, 0, (6729, 2634, 1137)),
        "{counters:?}"
    );
    assert!(counters.confirms > 0 && counters.skips > 0);
}

#[test]
fn a_scrambled_batch_run_prunes_exactly_as_pinned() {
    // k = 6 from a random partition: early passes move many objects, so
    // the O(1) tier-0 test often fails and the per-cluster refinement
    // decides; a confirm is reachable only through that refinement.
    let (n, m, k) = (500, 6, 6);
    let mut rng = StdRng::seed_from_u64(77);
    let data: Vec<UncertainObject> = (0..n).map(|_| blob_object(&mut rng, m, k, 5.0)).collect();
    let labels: Vec<usize> = (0..n)
        .map(|i| if i < k { i } else { rng.gen_range(0..k) })
        .collect();
    let run = Ucpc {
        pruning: PruningConfig::Bounds,
        ..Ucpc::default()
    }
    .run_with_labels(&data, k, labels)
    .unwrap();
    assert!(run.converged);
    assert_eq!(
        (run.iterations, run.relocations, tiers(run.pruning)),
        (4, 556, (393, 62, 1545)),
        "{:?}",
        run.pruning
    );
    assert!(run.pruning.confirms > 0 && run.pruning.skips > 0);
}
