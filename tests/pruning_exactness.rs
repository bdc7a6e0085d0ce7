//! Exactness gate for drift-bound candidate pruning: over a seeded grid of
//! (n, m, k) shapes — including m=1, k=1, k=n and duplicate objects — a
//! pruned run must produce *byte-identical* assignments and bit-identical
//! (tolerated to 1e-10 relative) objectives for `Ucpc`, `IncrementalUcpc`
//! and `BestOfRestarts`; and a bulk-loaded batch run and a row-by-row
//! loaded streaming engine must relocate alike.
//! Pruning is configured explicitly on both arms so the suite is immune to
//! the `UCPC_PRUNING` environment knob the CI matrix flips.

mod support;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use support::reference::RefStream;
use ucpc::core::fault::IoFaultPlan;
use ucpc::core::incremental::IncrementalUcpc;
use ucpc::core::objective::ClusterStats;
use ucpc::core::pruning::best_insertion;
use ucpc::core::pruning::ClusterDrift;
use ucpc::core::restarts::BestOfRestarts;
use ucpc::core::wal::WAL_HEADER_LEN;
use ucpc::core::{
    LogEntry, LogOp, PruningConfig, ServingConfig, ServingResponse, ServingUcpc, Ucpc, VecIo,
    WalFsync,
};
use ucpc::uncertain::{MomentArena, ObjectHandle, UncertainObject, UnivariatePdf};

/// Mixed-family random dataset; with `duplicates`, every third object is a
/// clone of the first (ties must break identically in both arms).
fn dataset(n: usize, m: usize, seed: u64, duplicates: bool) -> Vec<UncertainObject> {
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
    if duplicates {
        let first = data[0].clone();
        for i in (0..n).step_by(3) {
            data[i] = first.clone();
        }
    }
    data
}

fn random_labels(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| if i < k { i } else { rng.gen_range(0..k) })
        .collect()
}

fn objectives_match(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-10 * (1.0 + a.abs().max(b.abs()))
}

/// (n, m, k) shapes: ordinary, m=1, k=1, k=n.
const GRID: [(usize, usize, usize); 7] = [
    (12, 1, 2),
    (30, 3, 3),
    (40, 8, 5),
    (25, 16, 4),
    (60, 5, 6),
    (10, 2, 1),
    (12, 4, 12),
];

#[test]
fn ucpc_pruned_matches_unpruned_on_the_seeded_grid() {
    for (gi, &(n, m, k)) in GRID.iter().enumerate() {
        for seed in 0..3u64 {
            for duplicates in [false, true] {
                let seed = seed + 100 * gi as u64;
                let data = dataset(n, m, seed, duplicates);
                let labels = random_labels(n, k, seed + 7);
                let run = |pruning| {
                    Ucpc {
                        pruning,
                        ..Ucpc::default()
                    }
                    .run_with_labels(&data, k, labels.clone())
                    .unwrap()
                };
                let off = run(PruningConfig::Off);
                let on = run(PruningConfig::Bounds);
                assert_eq!(
                    off.clustering.labels(),
                    on.clustering.labels(),
                    "labels diverged: n={n} m={m} k={k} seed={seed} dup={duplicates}"
                );
                assert_eq!(off.iterations, on.iterations);
                assert_eq!(off.relocations, on.relocations);
                assert!(
                    objectives_match(off.objective, on.objective),
                    "objective diverged: {} vs {}",
                    off.objective,
                    on.objective
                );
                assert_eq!(off.objective_trace.len(), on.objective_trace.len());
            }
        }
    }
}

#[test]
fn ucpc_pruning_actually_fires_on_clustered_data() {
    // Guard against the suite passing vacuously: on separable data the
    // bounds must skip a meaningful share of scans.
    let data = dataset(120, 4, 99, false);
    let labels = random_labels(120, 4, 3);
    let on = Ucpc {
        pruning: PruningConfig::Bounds,
        ..Ucpc::default()
    }
    .run_with_labels(&data, 4, labels)
    .unwrap();
    assert!(
        on.pruning.skips + on.pruning.confirms > 0,
        "bounds never fired: {:?}",
        on.pruning
    );
    assert_eq!(
        on.pruning.decisions(),
        on.pruning.skips + on.pruning.confirms + on.pruning.full_scans
    );
}

#[test]
fn incremental_ucpc_pruned_matches_unpruned_under_interleaved_edits() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = 3;
        let mut off = IncrementalUcpc::new(2, k).unwrap();
        let mut on = IncrementalUcpc::new(2, k).unwrap();
        off.set_pruning(PruningConfig::Off);
        on.set_pruning(PruningConfig::Bounds);

        let mut ids = Vec::new();
        for step in 0..120 {
            match rng.gen_range(0..10u8) {
                // Mostly inserts.
                0..=5 => {
                    let c = rng.gen_range(-9.0..9.0);
                    let o = UncertainObject::new(vec![
                        UnivariatePdf::normal(c, 0.2),
                        UnivariatePdf::normal(-c, 0.3),
                    ]);
                    let a = off.insert(&o).unwrap();
                    let b = on.insert(&o).unwrap();
                    assert_eq!(a, b, "handles must track");
                    ids.push(a);
                }
                // Occasional removals (possibly of already-removed ids).
                6..=7 => {
                    if !ids.is_empty() {
                        let id = ids[rng.gen_range(0..ids.len())];
                        assert_eq!(off.remove(id), on.remove(id));
                    }
                }
                // Stabilization bursts.
                _ => {
                    let passes = rng.gen_range(1..4usize);
                    assert_eq!(
                        off.stabilize(passes),
                        on.stabilize(passes),
                        "relocation counts diverged at step {step} (seed {seed})"
                    );
                }
            }
            assert_eq!(off.live_labels(), on.live_labels(), "step {step}");
            assert!(objectives_match(off.objective(), on.objective()));
        }
        // Final settle must agree too.
        assert_eq!(off.stabilize(20), on.stabilize(20));
        assert_eq!(off.live_labels(), on.live_labels());
    }
}

/// The bits of every cluster's statistics: rows, size and `J`.
fn stats_bits(stats: &[ClusterStats]) -> Vec<u64> {
    stats
        .iter()
        .flat_map(|s| {
            let rows = s.psi().iter().chain(s.phi()).chain(s.mean_sum());
            rows.map(|x| x.to_bits())
                .chain([s.size() as u64, s.j().to_bits()])
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Drift is charged on read: an edit takes the plain fold under either
/// setting, and the next pruned pass charges the clusters that edits
/// changed when it first reads or stores a cached bound. A seeded churn script
/// flips pruning Off → Bounds → Off → Bounds mid-stream, with stabilize
/// bursts in between. After every step the engine must equal an always-Off
/// twin bit for bit, and the rule must hold: no edit moves a cluster's
/// drift accumulators, and a pruned stabilize after a pruned pass moves
/// those of every cluster changed since that pass's end, and of no other
/// when it relocates nothing.
#[test]
fn lazy_drift_tracking_is_bit_neutral_across_pruning_flips() {
    let k = 4;
    let mut rng = StdRng::seed_from_u64(29);
    let mut twin = IncrementalUcpc::new(2, k).unwrap();
    let mut live = IncrementalUcpc::new(2, k).unwrap();
    twin.set_pruning(PruningConfig::Off);
    let drifts = |e: &IncrementalUcpc| -> Vec<ClusterDrift> { e.pruner().drift().to_vec() };
    // Edits made while a pruned pass's end awaits its charge, edits made
    // with no pruned pass since the flip, and clusters charged.
    let (mut pending, mut fresh, mut charged) = (0, 0, 0);
    for (phase, pruning) in [
        PruningConfig::Off,
        PruningConfig::Bounds,
        PruningConfig::Off,
        PruningConfig::Bounds,
    ]
    .into_iter()
    .enumerate()
    {
        live.set_pruning(pruning);
        // The statistics at the last pruned pass's end since the flip.
        let mut pass_end: Option<Vec<ClusterStats>> = None;
        for step in 0..150 {
            let what = format!("phase {phase} ({pruning:?}), step {step}");
            let before = drifts(&live);
            let edited = match rng.gen_range(0..10u8) {
                0..=4 => {
                    let c = rng.gen_range(-9.0..9.0);
                    let o = UncertainObject::new(vec![
                        UnivariatePdf::normal(c, rng.gen_range(0.05..1.0)),
                        UnivariatePdf::normal((c * 1.7).sin() * 6.0, 0.3),
                    ]);
                    assert_eq!(live.insert(&o), twin.insert(&o), "{what}");
                    true
                }
                5..=7 => {
                    let alive = twin.live_labels();
                    if alive.len() > k {
                        let h = alive[rng.gen_range(0..alive.len())].0;
                        assert_eq!(live.remove(h), twin.remove(h), "{what}");
                    }
                    alive.len() > k
                }
                _ => {
                    let changed: Vec<bool> = match &pass_end {
                        Some(end) => live
                            .cluster_stats()
                            .iter()
                            .zip(end)
                            .map(|(a, b)| a != b)
                            .collect(),
                        None => vec![false; k],
                    };
                    let passes = rng.gen_range(1..4usize);
                    let moves = live.stabilize(passes);
                    assert_eq!(moves, twin.stabilize(passes), "{what}");
                    let after = drifts(&live);
                    for (c, &changed) in changed.iter().enumerate() {
                        let moved = after[c] != before[c];
                        if changed {
                            assert!(moved, "cluster {c} changed but was not charged: {what}");
                            charged += 1;
                        } else if moves == 0 {
                            assert!(!moved, "cluster {c} charged unchanged: {what}");
                        }
                    }
                    if pruning.is_enabled() {
                        pass_end = Some(live.cluster_stats().to_vec());
                    }
                    false
                }
            };
            if edited {
                assert_eq!(drifts(&live), before, "an edit moved drift: {what}");
                *(if pass_end.is_some() {
                    &mut pending
                } else {
                    &mut fresh
                }) += 1;
            }
            assert_eq!(live.live_labels(), twin.live_labels(), "{what}");
            assert_eq!(
                stats_bits(live.cluster_stats()),
                stats_bits(twin.cluster_stats()),
                "{what}"
            );
            assert_eq!(
                live.objective().to_bits(),
                twin.objective().to_bits(),
                "{what}"
            );
        }
    }
    assert!(
        pending > 0 && fresh > 0 && charged > 0,
        "{pending} / {fresh} / {charged}"
    );
    assert!(live.pruning_counters().skips > 0, "pruning must fire");
}

/// A batch `Ucpc` run is a bulk-loaded `IncrementalUcpc` stabilized to
/// convergence: seeded with the same partition, it must relocate exactly
/// like an engine loaded row by row through `apply_round` and stabilized,
/// move for move, under either pruning setting.
#[test]
fn serial_batch_and_streaming_engines_relocate_alike() {
    for (gi, &(n, m, k)) in [
        (30, 3, 3),
        (40, 8, 5),
        (60, 5, 6),
        (200, 16, 8),
        (500, 4, 10),
    ]
    .iter()
    .enumerate()
    {
        let seed = 900 + gi as u64;
        let data = dataset(n, m, seed, false);
        let labels = random_labels(n, k, seed + 1);
        for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
            let batch = Ucpc {
                pruning,
                ..Default::default()
            }
            .run_on_arena(MomentArena::from_objects(&data), k, labels.clone())
            .unwrap();

            let mut live = IncrementalUcpc::new(m, k).unwrap();
            live.set_pruning(pruning);
            for (i, (o, &cluster)) in data.iter().zip(&labels).enumerate() {
                let mo = o.moments();
                let op = LogOp::Insert {
                    slot: i as u32,
                    cluster,
                };
                live.apply_round(&[LogEntry {
                    op,
                    mu: mo.mu(),
                    mu2: mo.mu2(),
                }])
                .unwrap();
            }
            let relocations = live.stabilize(200);

            let ctx = format!("n={n} m={m} k={k} {pruning:?}");
            let streamed: Vec<usize> = live.live_labels().iter().map(|&(_, c)| c).collect();
            assert_eq!(streamed, batch.clustering.labels(), "labels: {ctx}");
            assert_eq!(relocations, batch.relocations, "relocations: {ctx}");
            assert!(relocations > 0, "a random partition must relocate: {ctx}");
            assert_eq!(
                live.objective().to_bits(),
                batch.objective.to_bits(),
                "objective: {ctx}"
            );
        }
    }
}

#[test]
fn best_of_restarts_pruned_matches_unpruned() {
    for seed in 0..3u64 {
        let data = dataset(48, 3, 500 + seed, seed == 1);
        let run = |pruning| {
            let mut rng = StdRng::seed_from_u64(seed);
            BestOfRestarts {
                algorithm: Ucpc {
                    pruning,
                    ..Ucpc::default()
                },
                restarts: 6,
                threads: 2,
            }
            .run(&data, 4, &mut rng)
            .unwrap()
        };
        let off = run(PruningConfig::Off);
        let on = run(PruningConfig::Bounds);
        assert_eq!(off.winner, on.winner);
        assert_eq!(
            off.best.clustering.labels(),
            on.best.clustering.labels(),
            "restart winner labels diverged (seed {seed})"
        );
        assert_eq!(off.objectives.len(), on.objectives.len());
        for (a, b) in off.objectives.iter().zip(&on.objectives) {
            assert!(objectives_match(*a, *b), "restart objective {a} vs {b}");
        }
        // The reused cache is reset per restart, so later restarts still
        // prune from scratch rather than inheriting stale bounds.
        assert!(on.pruning.decisions() > 0);
        assert_eq!(off.pruning.decisions(), 0);
    }
}

/// The engine against the stateless reference model, bit for bit.
fn assert_matches_reference(e: &IncrementalUcpc, r: &RefStream, what: &str) {
    assert_eq!(e.live_labels(), r.live_labels(), "labels: {what}");
    assert_eq!(
        stats_bits(e.cluster_stats()),
        stats_bits(r.cluster_stats()),
        "statistics: {what}"
    );
    assert_eq!(e.objective().to_bits(), r.objective().to_bits(), "{what}");
}

/// One step of seeded churn on the engine and the reference in lockstep:
/// an insert whose placement must be the stateless `best_insertion`'s, a
/// remove, or a stabilize whose relocations (the stateless
/// `best_candidate` scan's, in `RefStream`) must match move for move.
fn churn_step(
    e: &mut IncrementalUcpc,
    r: &mut RefStream,
    live: &mut Vec<ObjectHandle>,
    rng: &mut StdRng,
    what: &str,
) {
    let m = e.cluster_stats()[0].dims();
    match rng.gen_range(0..10u8) {
        0..=4 => {
            let o = &dataset(1, m, rng.next_u64(), false)[0];
            let (want, _) = best_insertion(e.cluster_stats(), &o.moments().view()).unwrap();
            let h = e.insert(o).unwrap();
            assert_eq!(e.label_of(h), Some(want), "placement: {what}");
            assert_eq!(r.insert(o), Ok(h), "handle: {what}");
            live.push(h);
        }
        5..=7 if live.len() > 1 => {
            let h = live.swap_remove(rng.gen_range(0..live.len()));
            e.remove(h).unwrap();
            r.remove(h).unwrap();
        }
        _ => {
            let passes = rng.gen_range(1..4usize);
            assert_eq!(
                e.stabilize(passes),
                r.stabilize(passes),
                "relocations: {what}"
            );
        }
    }
    assert_matches_reference(e, r, what);
}

/// The engine's pricing table rewrites a cluster's pricers in every fold
/// of its statistics, and derives every cluster's after a wholesale
/// refold or a restore. If any mutation path skipped that write, a later
/// placement or relocation would price against an old pricer: this script
/// drives every path — churn with stabilizes, an undone pass (a WAL sink
/// that cannot hold the round), a snapshot restore, and the relabel
/// between `BestOfRestarts` restarts — and holds every decision to the
/// stateless `best_insertion` / `best_candidate` scans bit for bit.
#[test]
fn the_pricing_table_never_prices_a_stale_row() {
    let mut undone_moves = 0;
    for k in [1usize, 2, 3, 5, 8, 20] {
        for m in [1usize, 8, 16, 33] {
            for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
                let mut rng = StdRng::seed_from_u64((k * 100 + m) as u64);
                let mut e = IncrementalUcpc::new(m, k).unwrap();
                e.set_pruning(pruning);
                let mut r = RefStream::new(m, k);
                let mut live = Vec::new();
                let shape = format!("k={k}, m={m}, {pruning:?}");
                for step in 0..3 * k + 40 {
                    let what = format!("{shape}, step {step}");
                    churn_step(&mut e, &mut r, &mut live, &mut rng, &what);
                }

                // A pass whose round the log cannot hold is undone.
                undone_moves += r.clone().stabilize(3);
                let cfg = ServingConfig {
                    batch: 1,
                    queue_capacity: 1,
                    deadline: None,
                    stabilize_every: 0,
                    stabilize_passes: 1,
                    top_k: 1,
                    wal: false,
                    wal_fsync: WalFsync::Flush,
                };
                let mut serving = ServingUcpc::over(e, cfg);
                let full = IoFaultPlan::new().byte_limit(WAL_HEADER_LEN);
                serving.attach_wal(VecIo::with_faults(full)).unwrap();
                serving.submit_stabilize(3).unwrap();
                serving.flush();
                let response = serving.pop_response().map(|(_, resp)| resp);
                assert!(
                    matches!(response, Some(ServingResponse::Failed { .. })),
                    "{shape}: {response:?}"
                );
                e = serving.into_engine();
                assert_matches_reference(&e, &r, &format!("{shape}, undone pass"));
                for step in 0..30 {
                    let what = format!("{shape}, after the undo, step {step}");
                    churn_step(&mut e, &mut r, &mut live, &mut rng, &what);
                }

                // A restored engine prices from fresh rows.
                e = IncrementalUcpc::restore(&e.snapshot()).unwrap();
                for step in 0..30 {
                    let what = format!("{shape}, after the restore, step {step}");
                    churn_step(&mut e, &mut r, &mut live, &mut rng, &what);
                }
                let what = format!("{shape}, settled");
                assert_eq!(e.stabilize(50), r.stabilize(50), "{what}");
                assert_matches_reference(&e, &r, &what);

                // One engine relabelled from restart to restart.
                let n = 3 * k + 10;
                let data = dataset(n, m, (k * m) as u64, false);
                let algorithm = Ucpc {
                    pruning,
                    ..Ucpc::default()
                };
                let restarts = BestOfRestarts {
                    algorithm: algorithm.clone(),
                    restarts: 3,
                    threads: 1,
                };
                let got = restarts
                    .run(&data, k, &mut StdRng::seed_from_u64(7))
                    .unwrap();
                let mut seeds = StdRng::seed_from_u64(7);
                for (restart, &objective) in got.objectives.iter().enumerate() {
                    let mut seeded = StdRng::seed_from_u64(seeds.next_u64());
                    let labels = algorithm.init.initial_partition(&data, k, &mut seeded);
                    let mut reference = RefStream::from_partition(&data, k, &labels);
                    for _ in 0..algorithm.max_iters {
                        if reference.stabilize(1) == 0 {
                            break;
                        }
                    }
                    let what = format!("{shape}, restart {restart}");
                    assert_eq!(
                        objective.to_bits(),
                        reference.objective().to_bits(),
                        "{what}"
                    );
                    if restart == got.winner {
                        let want: Vec<usize> = reference
                            .live_labels()
                            .into_iter()
                            .map(|(_, c)| c)
                            .collect();
                        assert_eq!(got.best.clustering.labels(), &want[..], "{what}");
                    }
                }
            }
        }
    }
    assert!(undone_moves > 0, "no undone pass moved anything");
}
