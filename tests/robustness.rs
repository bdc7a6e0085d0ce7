//! Robustness integration tests: extreme inputs, degenerate shapes, and
//! NaN-freedom across every algorithm.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ucpc::baselines::{FdbScan, Foptics, MmVar, Uahc, UkMeans, UkMedoids};
use ucpc::core::framework::UncertainClusterer;
use ucpc::core::incremental::IncrementalUcpc;
use ucpc::core::restarts::BestOfRestarts;
use ucpc::core::wal::WAL_HEADER_LEN;
use ucpc::core::{
    recover, ChaosPlan, ClusterError, LogEntry, LogOp, ServingConfig, ServingError,
    ServingResponse, ServingUcpc, ShardedUcpc, SharedVecIo, Ucpc, WalError, WalFsync, WalWriter,
};
use ucpc::eval::quality;
use ucpc::uncertain::{MomentArena, Moments, UncertainObject, UnivariatePdf};

fn algorithms() -> Vec<Box<dyn UncertainClusterer>> {
    vec![
        Box::new(Ucpc::default()),
        Box::new(UkMeans::default()),
        Box::new(MmVar::default()),
        Box::new(UkMedoids::default()),
        Box::new(Uahc::default()),
        Box::new(FdbScan::default()),
        Box::new(Foptics::default()),
    ]
}

fn run_all(data: &[UncertainObject], k: usize) {
    for alg in algorithms() {
        let mut rng = StdRng::seed_from_u64(99);
        let c = alg
            .cluster(data, k, &mut rng)
            .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        assert_eq!(c.len(), data.len(), "{}", alg.name());
        // Internal quality must be finite on any valid clustering.
        let q = quality(data, &c);
        assert!(q.q.is_finite(), "{} produced NaN quality", alg.name());
    }
}

#[test]
fn identical_objects_do_not_break_anything() {
    let data: Vec<UncertainObject> = (0..12)
        .map(|_| UncertainObject::new(vec![UnivariatePdf::normal(1.0, 0.5)]))
        .collect();
    run_all(&data, 3);
}

#[test]
fn zero_variance_dataset() {
    let data: Vec<UncertainObject> = (0..10)
        .map(|i| UncertainObject::deterministic(&[i as f64, (i % 3) as f64]))
        .collect();
    run_all(&data, 2);
}

#[test]
fn extreme_scales_mixed_in_one_dataset() {
    // Coordinates spanning 12 orders of magnitude and variances from tiny to
    // huge: everything must stay finite.
    let mut data = Vec::new();
    for i in 0..6 {
        data.push(UncertainObject::new(vec![
            UnivariatePdf::normal(1e-6 * (i as f64 + 1.0), 1e-8),
            UnivariatePdf::normal(1e6 * (i as f64 + 1.0), 1e3),
        ]));
    }
    for i in 0..6 {
        data.push(UncertainObject::new(vec![
            UnivariatePdf::uniform_centered(-1e6 + i as f64, 10.0),
            UnivariatePdf::exponential_with_mean(-50.0 + i as f64, 0.01),
        ]));
    }
    run_all(&data, 2);
}

#[test]
fn k_equals_one_and_k_equals_n() {
    let data: Vec<UncertainObject> = (0..6)
        .map(|i| UncertainObject::new(vec![UnivariatePdf::normal(i as f64 * 3.0, 0.2)]))
        .collect();
    run_all(&data, 1);
    // k = n: partitional algorithms must produce n non-empty clusters.
    let mut rng = StdRng::seed_from_u64(4);
    let c = Ucpc::default()
        .cluster(&data, data.len(), &mut rng)
        .unwrap();
    assert_eq!(c.non_empty(), data.len());
}

#[test]
fn two_objects_two_clusters() {
    let data = vec![
        UncertainObject::new(vec![UnivariatePdf::normal(0.0, 1.0)]),
        UncertainObject::new(vec![UnivariatePdf::normal(10.0, 1.0)]),
    ];
    run_all(&data, 2);
}

#[test]
fn heavily_skewed_exponential_objects() {
    let data: Vec<UncertainObject> = (0..15)
        .map(|i| {
            UncertainObject::with_coverage(
                vec![
                    UnivariatePdf::exponential_with_mean((i % 3) as f64 * 8.0, 0.5),
                    UnivariatePdf::exponential_with_mean((i % 3) as f64 * 8.0, 5.0),
                ],
                0.95,
            )
        })
        .collect();
    run_all(&data, 3);
}

// ---------------------------------------------------------------------------
// Degenerate shapes for the streaming / serving / sharded engines, which the
// batch sweeps above never construct.
// ---------------------------------------------------------------------------

fn point(coords: &[f64]) -> UncertainObject {
    UncertainObject::new(
        coords
            .iter()
            .map(|&c| UnivariatePdf::normal(c, 0.3))
            .collect(),
    )
}

#[test]
fn incremental_engine_degenerate_shapes() {
    // k = 1, m = 1: every insert lands in the only cluster, stabilize has
    // nowhere to move anything, and the objective stays finite throughout.
    let mut eng = IncrementalUcpc::new(1, 1).unwrap();
    let mut handles = Vec::new();
    for i in 0..5 {
        let h = eng.insert(&point(&[i as f64])).unwrap();
        assert_eq!(eng.label_of(h), Some(0));
        handles.push(h);
    }
    assert_eq!(eng.stabilize(3), 0, "k = 1 admits no relocations");
    assert!(eng.objective().is_finite());

    // Drain back down to empty: the engine must survive, report empty, and
    // accept fresh inserts afterwards.
    for h in handles {
        eng.remove(h).unwrap();
    }
    assert!(eng.is_empty());
    assert_eq!(eng.stabilize(2), 0, "empty engine stabilizes trivially");
    let h = eng.insert(&point(&[7.0])).unwrap();
    assert_eq!(eng.label_of(h), Some(0));

    // A single live object with k > 1: the singleton guard must keep
    // stabilize from evicting the only member of its cluster.
    let mut single = IncrementalUcpc::new(2, 3).unwrap();
    let h = single.insert(&point(&[1.0, -1.0])).unwrap();
    assert_eq!(single.len(), 1);
    assert_eq!(single.stabilize(4), 0, "a singleton never relocates");
    assert!(single.label_of(h).is_some());
    assert!(single.objective().is_finite());
}

#[test]
fn serving_layer_empty_flush_and_zero_capacity_queue() {
    // Flushing an empty queue is a no-op: no work, no responses.
    let mut idle = ServingUcpc::new(2, 2, ServingConfig::default()).unwrap();
    assert_eq!(idle.flush(), 0);
    assert!(idle.pop_response().is_none());

    // A zero-capacity queue clamps to the batch size (>= 1): exactly one
    // request is admitted, the next is shed with QueueFull rather than
    // dropped silently, and a flush makes room again.
    let cfg = ServingConfig {
        batch: 1,
        queue_capacity: 0,
        ..ServingConfig::default()
    };
    let mut serving = ServingUcpc::new(1, 2, cfg).unwrap();
    serving.submit_commit_object(&point(&[0.0])).unwrap();
    match serving.submit_commit_object(&point(&[1.0])) {
        Err(ServingError::QueueFull { capacity }) => assert_eq!(capacity, 1),
        other => panic!("expected QueueFull from a clamped zero-capacity queue, got {other:?}"),
    }
    assert_eq!(serving.flush(), 1);
    match serving.pop_response() {
        Some((_, ServingResponse::Committed { .. })) => {}
        other => panic!("expected the shed-survivor commit, got {other:?}"),
    }
    serving
        .submit_commit_object(&point(&[1.0]))
        .expect("flush frees the single queue slot");
    assert_eq!(serving.flush(), 1);

    // Degenerate maintenance on the drained queue: stabilize submitted
    // alone flushes cleanly and the engine stays consistent.
    serving.submit_stabilize(2).unwrap();
    assert_eq!(serving.flush(), 1);
    assert_eq!(serving.engine().len(), 2);
    assert!(serving.engine().objective().is_finite());
}

#[test]
fn sharded_engine_single_object_and_degenerate_k_m() {
    // One object across many shards: every shard but the owner holds an
    // empty partition, and the replicated state still matches single-node.
    let mut sharded = ShardedUcpc::new(1, 2, 8).unwrap();
    let mut single = IncrementalUcpc::new(1, 2).unwrap();
    let hs = sharded.insert(&point(&[3.0])).unwrap();
    let hi = single.insert(&point(&[3.0])).unwrap();
    assert_eq!(hs, hi);
    assert_eq!(sharded.stabilize(3), single.stabilize(3));
    assert_eq!(sharded.objective().to_bits(), single.objective().to_bits());
    sharded.remove(hs).unwrap();
    assert!(sharded.is_empty());

    // k = 1, m = 1 under sharding: inserts, a no-op stabilize, and removal
    // down to empty all replicate bit-identically.
    let mut sharded = ShardedUcpc::new(1, 1, 4).unwrap();
    let mut single = IncrementalUcpc::new(1, 1).unwrap();
    let mut handles = Vec::new();
    for i in 0..6 {
        let hs = sharded.insert(&point(&[i as f64])).unwrap();
        let hi = single.insert(&point(&[i as f64])).unwrap();
        assert_eq!(hs, hi);
        handles.push(hs);
    }
    assert_eq!(sharded.stabilize(2), 0, "k = 1 admits no relocations");
    assert_eq!(sharded.objective().to_bits(), single.objective().to_bits());
    for h in handles {
        sharded.remove(h).unwrap();
    }
    assert!(sharded.is_empty());
    assert_eq!(sharded.objective(), 0.0);
}

#[test]
fn sharded_engine_rejects_zero_shards_and_zero_clusters() {
    assert_eq!(
        ShardedUcpc::new(1, 2, 0).unwrap_err(),
        ClusterError::NoShards
    );
    assert_eq!(
        ShardedUcpc::with_chaos(1, 2, 0, ChaosPlan::mixed(3)).unwrap_err(),
        ClusterError::NoShards
    );
    assert_eq!(
        ShardedUcpc::new(1, 0, 0).unwrap_err(),
        ClusterError::InvalidK { k: 0, n: 0 }
    );
}

#[test]
fn sharded_edits_against_a_downed_shard_are_checked_and_change_nothing() {
    let mut sharded = ShardedUcpc::new(1, 2, 3).unwrap();
    let mut single = IncrementalUcpc::new(1, 2).unwrap();
    let mut handles = Vec::new();
    for x in [0.0, 9.0, 0.4, 9.4, 0.2] {
        handles.push(sharded.insert(&point(&[x])).unwrap());
        single.insert(&point(&[x])).unwrap();
    }
    sharded.crash(1);
    let (labels, rounds) = (sharded.live_labels(), sharded.committed_rounds());
    let bits = |s: &ShardedUcpc| -> Vec<u64> {
        s.cluster_stats()
            .iter()
            .flat_map(|c| [c.j(), c.psi()[0], c.phi()[0], c.mean_sum()[0]])
            .map(f64::to_bits)
            .collect()
    };
    let stats = bits(&sharded);
    let down = Err(ClusterError::ShardDown { shard: 1 });
    assert_eq!(sharded.insert(&point(&[4.0])).map(|_| ()), down);
    assert_eq!(sharded.remove(handles[0]), down);
    assert_eq!(sharded.live_labels(), labels);
    assert_eq!(sharded.committed_rounds(), rounds, "no round was started");
    assert_eq!(bits(&sharded), stats);
    assert!(handles.iter().all(|&h| sharded.label_of(h).is_some()));
    // Once the shard is back, the refused edits go through and the next
    // handle is the one the single-node engine issues.
    sharded.restart(1).unwrap();
    let h = sharded.insert(&point(&[4.0])).unwrap();
    assert_eq!(h, single.insert(&point(&[4.0])).unwrap());
    sharded.remove(handles[0]).unwrap();
    single.remove(handles[0]).unwrap();
    assert_eq!(sharded.live_labels(), single.live_labels());
    assert_eq!(sharded.objective().to_bits(), single.objective().to_bits());
}

#[test]
fn high_dimensional_objects() {
    let m = 64;
    let data: Vec<UncertainObject> = (0..20)
        .map(|i| {
            let base = (i % 2) as f64 * 5.0;
            UncertainObject::new(
                (0..m)
                    .map(|j| UnivariatePdf::normal(base + (j % 7) as f64 * 0.1, 0.3))
                    .collect(),
            )
        })
        .collect();
    run_all(&data, 2);
}

/// Arrivals carrying NaN, ±inf, or a finite `mu = 1e200` whose square
/// overflows, in the second of two dimensions.
fn poisoned_arrivals() -> Vec<Moments> {
    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e200]
        .into_iter()
        .map(|x| Moments::from_mu_mu2(vec![1.0, x], vec![2.0, x * x + 1.0]))
        .collect()
}

#[test]
fn non_finite_arrivals_are_rejected_at_admission() {
    let clean = |i: usize| point(&[i as f64, -(i as f64)]);

    // Streaming engine: checked error, state unchanged.
    let mut engine = IncrementalUcpc::new(2, 2).unwrap();
    for i in 0..6 {
        engine.insert(&clean(i)).unwrap();
    }
    let before = engine.snapshot();
    for mo in poisoned_arrivals() {
        assert_eq!(engine.insert_moments(&mo), Err(ClusterError::NonFinite));
        assert_eq!(engine.snapshot(), before, "rejected arrival changed state");
    }

    // Sharded engine: checked error before any round starts.
    let mut sharded = ShardedUcpc::new(2, 2, 2).unwrap();
    for i in 0..6 {
        sharded.insert(&clean(i)).unwrap();
    }
    let (labels, rounds) = (sharded.live_labels(), sharded.committed_rounds());
    let stats = sharded.cluster_stats().to_vec();
    for mo in poisoned_arrivals() {
        assert_eq!(sharded.insert_moments(&mo), Err(ClusterError::NonFinite));
        assert_eq!(sharded.live_labels(), labels);
        assert_eq!(sharded.committed_rounds(), rounds, "no round was started");
        assert_eq!(sharded.cluster_stats(), &stats[..]);
    }

    // Serving layer: queries and commits are refused before staging, so
    // the queue, the WAL and the engine never see them, and the next
    // flush runs clean.
    let mut serving = ServingUcpc::over(engine, ServingConfig::default());
    let sink = SharedVecIo::new();
    serving.attach_wal(sink.clone()).unwrap();
    serving.submit_commit_object(&clean(9)).unwrap();
    let (queued, logged) = (serving.pending_len(), sink.bytes());
    for mo in poisoned_arrivals() {
        assert_eq!(serving.submit_commit(&mo), Err(ServingError::NonFinite));
        assert_eq!(serving.submit_query(&mo), Err(ServingError::NonFinite));
        assert_eq!(serving.pending_len(), queued);
        assert_eq!(sink.bytes(), logged);
    }
    serving.flush();
    assert!(serving.engine().objective().is_finite());
    assert_eq!(serving.engine().len(), 7);

    // Batch runs: the bulk load checks every row as streaming admission
    // does, on every entry point, so no run starts from a poisoned
    // statistic.
    let objects: Vec<UncertainObject> = (0..6).map(clean).collect();
    let labels = vec![0, 1, 0, 1, 0, 1, 0];
    let refused = Some(ClusterError::NonFinite);
    for mo in poisoned_arrivals() {
        let rows: Vec<&Moments> = objects.iter().map(UncertainObject::moments).collect();
        let arena = MomentArena::from_moments(rows.into_iter().chain([&mo]));
        let run = Ucpc::default().run_on_arena(arena, 2, labels.clone());
        assert_eq!(run.err(), refused);
    }
    // The object entry points see all four poisons.
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e200] {
        let mut data = objects.clone();
        data.push(UncertainObject::deterministic(&[1.0, x]));
        let mut rng = StdRng::seed_from_u64(1);
        let ucpc = Ucpc::default();
        assert_eq!(ucpc.run(&data, 2, &mut rng).err(), refused, "{x}");
        assert_eq!(
            ucpc.run_with_labels(&data, 2, labels.clone()).err(),
            refused
        );
        let restarts = BestOfRestarts {
            restarts: 3,
            ..Default::default()
        };
        assert_eq!(restarts.run(&data, 2, &mut rng).err(), refused, "{x}");
    }
}

#[test]
fn a_logged_non_finite_commit_fails_recovery_instead_of_restoring_nan() {
    // A log written by another tool (or a build without the admission
    // check) can still hold a poison commit; replay checks every inserted
    // row, so recovery refuses it at the end of the intact prefix.
    let engine = IncrementalUcpc::new(2, 2).unwrap();
    let checkpoint = engine.snapshot();
    for mo in poisoned_arrivals() {
        let sink = SharedVecIo::new();
        let mut wal = WalWriter::create(sink.clone(), 2, WalFsync::Off).unwrap();
        let insert = |slot, mu, mu2| LogEntry {
            op: LogOp::Insert { slot, cluster: 0 },
            mu,
            mu2,
        };
        wal.log_round(1, &[insert(0, &[0.0, 1.0][..], &[1.0, 2.0][..])])
            .unwrap();
        wal.log_round(2, &[insert(1, mo.mu(), mo.mu2())]).unwrap();
        let intact = WAL_HEADER_LEN as u64 + (wal.bytes_logged() - WAL_HEADER_LEN as u64) / 2;
        match recover(&checkpoint, &sink.bytes()) {
            Err(WalError::Corrupt {
                valid_bytes,
                frames: 1,
                reason,
            }) => {
                assert_eq!(valid_bytes, intact);
                assert!(reason.contains("non-finite"), "{reason}");
            }
            Err(other) => panic!("wrong error: {other}"),
            Ok(rec) => panic!("recovered objective {}", rec.engine.objective()),
        }
    }
}
