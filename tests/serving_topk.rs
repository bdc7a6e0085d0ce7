//! Top-k answer semantics of the serving front door: ranking length
//! clamps to the live cluster count, ties in delta-J keep the lower
//! cluster index (the serial scan's first-wins rule), also below a best
//! that arrived after them, the degenerate
//! `k = 1` margin is `+∞`, and the engine's placement scan
//! ([`best_insertion`]) agrees with the head of the serving ranking — same
//! winner, bit-identical delta — not just on the argmin.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ucpc::core::incremental::IncrementalUcpc;
use ucpc::core::pruning::best_insertion;
use ucpc::core::serving::{
    PlacementAnswer, ServingConfig, ServingResponse, ServingUcpc, MAX_TOP_K,
};
use ucpc::core::PruningConfig;
use ucpc::uncertain::{MomentArena, Moments, UncertainObject, UnivariatePdf};

fn arrival_at(rng: &mut StdRng, m: usize, center: f64) -> Moments {
    let o = UncertainObject::new(
        (0..m)
            .map(|_| UnivariatePdf::normal(center + rng.gen_range(-0.5..0.5), 0.2))
            .collect(),
    );
    o.moments().clone()
}

fn config(top_k: usize) -> ServingConfig {
    ServingConfig {
        batch: 1,
        queue_capacity: 4,
        deadline: None,
        stabilize_every: 0,
        stabilize_passes: 2,
        top_k,
        // WAL fields from the environment: the CI `wal` leg reruns this
        // suite with `UCPC_WAL=on` to prove logging changes no behaviour.
        ..ServingConfig::default()
    }
}

/// Runs one placement query through the serving layer and returns its
/// answer.
fn query(serving: &mut ServingUcpc, mo: &Moments) -> PlacementAnswer {
    serving.submit_query(mo).unwrap();
    serving.flush();
    match serving.pop_response() {
        Some((_, ServingResponse::Placed(a))) => a,
        other => panic!("expected a placement answer, got {other:?}"),
    }
}

#[test]
fn ranking_length_clamps_to_the_live_cluster_count() {
    // top_k = MAX_TOP_K (8) against k = 3 clusters: the answer holds every
    // cluster once, no padding.
    let mut rng = StdRng::seed_from_u64(1);
    let engine = IncrementalUcpc::new(4, 3).unwrap();
    let mut serving = ServingUcpc::over(engine, config(MAX_TOP_K));
    for c in 0..6 {
        let mo = arrival_at(&mut rng, 4, (c % 3) as f64 * 10.0);
        serving.submit_commit(&mo).unwrap();
        serving.poll(std::time::Instant::now());
    }
    while serving.pop_response().is_some() {}

    let probe = arrival_at(&mut rng, 4, 0.0);
    let a = query(&mut serving, &probe);
    assert_eq!(a.ranked().len(), 3, "one entry per live cluster, no more");
    let mut seen: Vec<usize> = a.ranked().iter().map(|&(c, _)| c).collect();
    seen.sort_unstable();
    assert_eq!(seen, vec![0, 1, 2], "each cluster ranked exactly once");
}

#[test]
fn ties_in_delta_j_keep_the_lower_cluster_index() {
    // A fresh engine's k = 4 clusters are bitwise identical, so every
    // delta ties: the ranking must come back in ascending cluster order —
    // the serial scan's strict-less, first-index-wins rule — with a zero
    // margin.
    let mut rng = StdRng::seed_from_u64(2);
    let engine = IncrementalUcpc::new(4, 4).unwrap();
    let mut serving = ServingUcpc::over(engine, config(MAX_TOP_K));
    let probe = arrival_at(&mut rng, 4, 1.0);
    let a = query(&mut serving, &probe);
    let order: Vec<usize> = a.ranked().iter().map(|&(c, _)| c).collect();
    assert_eq!(order, vec![0, 1, 2, 3], "ties must rank by ascending index");
    let d0 = a.ranked()[0].1;
    for &(_, d) in a.ranked() {
        assert_eq!(
            d.to_bits(),
            d0.to_bits(),
            "tied deltas must be bitwise equal"
        );
    }
    assert_eq!(a.best(), (0, d0), "tie at the top goes to cluster 0");
    assert_eq!(a.margin(), 0.0, "tied best and second-best leave no margin");
}

#[test]
fn a_displaced_tie_keeps_its_lower_index() {
    // Clusters 0 and 1 hold the same row, so they tie bitwise; a probe
    // near cluster 2's row ranks 2 first, and the tie below it must still
    // come back in ascending index order.
    let mut rng = StdRng::seed_from_u64(5);
    let (a, p) = (arrival_at(&mut rng, 4, 0.0), arrival_at(&mut rng, 4, 10.0));
    let arena = MomentArena::from_moments([&a, &a, &p]);
    let engine = IncrementalUcpc::from_arena(arena, 3, &[0, 1, 2]).unwrap();
    let mut serving = ServingUcpc::over(engine, config(MAX_TOP_K));
    let answer = query(&mut serving, &arrival_at(&mut rng, 4, 10.0));
    let order: Vec<usize> = answer.ranked().iter().map(|&(c, _)| c).collect();
    assert_eq!(
        order,
        vec![2, 0, 1],
        "the tie below the best ranks by index"
    );
    let (d0, d1) = (answer.ranked()[1].1, answer.ranked()[2].1);
    assert_eq!(d0.to_bits(), d1.to_bits(), "clusters 0 and 1 tie bitwise");
}

#[test]
fn single_cluster_margin_is_infinite() {
    let mut rng = StdRng::seed_from_u64(3);
    let engine = IncrementalUcpc::new(4, 1).unwrap();
    let mut serving = ServingUcpc::over(engine, config(MAX_TOP_K));
    let mo = arrival_at(&mut rng, 4, 0.0);
    serving.submit_commit(&mo).unwrap();
    serving.flush();
    while serving.pop_response().is_some() {}

    let a = query(&mut serving, &arrival_at(&mut rng, 4, 0.0));
    assert_eq!(a.ranked().len(), 1);
    assert_eq!(a.best().0, 0);
    assert_eq!(
        a.margin(),
        f64::INFINITY,
        "with no runner-up the placement is unconditionally stable"
    );
}

#[test]
fn the_placement_scan_agrees_with_the_serving_ranking_head() {
    // Well-separated clusters, pruned relocation passes: the full
    // placement scan must return exactly the head of the serving layer's
    // ranking — winner and delta bits — for every probe.
    let m = 16;
    let k = 6;
    let mut rng = StdRng::seed_from_u64(4);
    let mut engine = IncrementalUcpc::new(m, k).unwrap();
    engine.set_pruning(PruningConfig::Bounds);
    for i in 0..120 {
        let mo = arrival_at(&mut rng, m, (i % k) as f64 * 40.0);
        engine.insert_moments(&mo).unwrap();
    }
    let mut serving = ServingUcpc::over(engine, config(MAX_TOP_K));

    for i in 0..40 {
        let probe = arrival_at(&mut rng, m, (i % k) as f64 * 40.0 + 1.0);
        let a = query(&mut serving, &probe);
        assert_eq!(a.ranked().len(), k.min(MAX_TOP_K));

        let stats = serving.engine().cluster_stats();
        let (fc, fd) = best_insertion(stats, &probe.view()).expect("k > 0");
        assert_eq!(fc, a.best().0, "the scan's winner must head the ranking");
        assert_eq!(
            fd.to_bits(),
            a.best().1.to_bits(),
            "the scan's delta must match the ranking head bitwise"
        );
        // The ranking itself is sorted and strictly consistent with the
        // margin definition.
        for w in a.ranked().windows(2) {
            assert!(w[0].1 <= w[1].1, "ranking out of order");
        }
        assert_eq!(
            a.margin().to_bits(),
            (a.ranked()[1].1 - a.ranked()[0].1).to_bits(),
            "margin is second best minus best"
        );
    }
}
