//! Regression + equivalence suite for `IncrementalUcpc` under interleaved
//! inserts, removals and relocation passes.
//!
//! Three pins:
//!
//! 1. **Cache/stat consistency** (seed regression): a removal changes a
//!    cluster's statistics between stabilization passes; a cached bound
//!    that ignored it could skip a scan whose outcome the departed member
//!    changed. The drift charged for the engine's edits when the next
//!    pruned pass reads a cached bound must keep every bound sound.
//! 2. **Reference equivalence**: the engine (free-list row reuse, edits
//!    charged as net changes on the next read, surgical per-cluster
//!    invalidation)
//!    must be *byte-identical* to the per-object reference model `RefStream`
//!    (`tests/support/reference.rs`) — handles, labels, per-cluster
//!    statistics, objectives — across pruning configurations and SIMD
//!    backends, under arbitrary interleavings with slot reuse. A proptest
//!    drives random scripts through both and cross-checks the maintained
//!    aggregates against a from-scratch rebuild after replay.
//! 3. **Aggregate integrity**: the maintained `ClusterStats` stay close to
//!    a from-scratch rebuild after every step of a random interleaving.

mod support;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use support::reference::RefStream;
use ucpc::core::incremental::{IncrementalUcpc, ObjectHandle};
use ucpc::core::objective::ClusterStats;
use ucpc::core::PruningConfig;
use ucpc::uncertain::simd::{self, Backend};
use ucpc::uncertain::{UncertainObject, UnivariatePdf};

fn object(rng: &mut StdRng) -> UncertainObject {
    let c = rng.gen_range(-10.0..10.0);
    UncertainObject::new(vec![
        UnivariatePdf::normal(c, rng.gen_range(0.05..0.8)),
        UnivariatePdf::uniform_centered(-c * 0.5, rng.gen_range(0.1..1.0)),
    ])
}

/// Rebuilds per-cluster statistics from the live objects and labels.
/// Slots are recycled, so objects are recovered through a handle-keyed map
/// rather than by slot index ((slot, generation) pairs are unique within a
/// run).
fn rebuild(
    live: &IncrementalUcpc,
    by_handle: &HashMap<ObjectHandle, UncertainObject>,
) -> Vec<ClusterStats> {
    let mut stats = vec![ClusterStats::empty(2); live.k()];
    for (id, c) in live.live_labels() {
        stats[c].add(by_handle[&id].moments());
    }
    stats
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-7 * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn aggregates_match_rebuild_after_interleaved_removals_and_passes() {
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live = IncrementalUcpc::new(2, 3).unwrap();
        live.set_pruning(PruningConfig::Bounds);
        let mut log: HashMap<ObjectHandle, UncertainObject> = HashMap::new();
        let mut ids = Vec::new();

        for step in 0..150 {
            match rng.gen_range(0..10u8) {
                0..=5 => {
                    let o = object(&mut rng);
                    let h = live.insert(&o).unwrap();
                    ids.push(h);
                    log.insert(h, o);
                }
                6..=7 => {
                    if !ids.is_empty() {
                        // The picked handle may already be stale (its
                        // slot possibly recycled); the checked error is
                        // exactly the no-op the old bool API promised.
                        let id = ids[rng.gen_range(0..ids.len())];
                        let _ = live.remove(id);
                    }
                }
                _ => {
                    live.stabilize(rng.gen_range(1..4usize));
                }
            }

            let rebuilt = rebuild(&live, &log);
            for (c, (kept, fresh)) in live.cluster_stats().iter().zip(&rebuilt).enumerate() {
                assert_eq!(
                    kept.size(),
                    fresh.size(),
                    "cluster {c} size at step {step} (seed {seed})"
                );
                assert!(
                    close(kept.j(), fresh.j()),
                    "cluster {c} J drifted from rebuild: {} vs {} \
                     (step {step}, seed {seed})",
                    kept.j(),
                    fresh.j()
                );
                for j in 0..kept.dims() {
                    assert!(close(kept.psi()[j], fresh.psi()[j]), "psi[{j}]");
                    assert!(close(kept.phi()[j], fresh.phi()[j]), "phi[{j}]");
                    assert!(
                        close(kept.mean_sum()[j], fresh.mean_sum()[j]),
                        "mean_sum[{j}]"
                    );
                }
            }
            let total: f64 = rebuilt.iter().map(ClusterStats::j).sum();
            assert!(close(live.objective(), total), "total objective");
        }
    }
}

#[test]
fn removal_then_stabilize_cannot_reuse_stale_bounds() {
    // Warm the cache with a stabilization pass, then remove members so a
    // previously-hopeless relocation may become beneficial, and verify the
    // next pass rescans instead of skipping on stale bounds — and lands
    // exactly where the cache-free reference model does.
    let mut live = IncrementalUcpc::new(1, 2).unwrap();
    live.set_pruning(PruningConfig::Bounds);
    let mut reference = RefStream::new(1, 2);
    let obj = |c: f64| UncertainObject::new(vec![UnivariatePdf::normal(c, 0.1)]);

    // Cluster layout after insertions + settle: {0.0, 0.2, 0.4} | {9.0, 9.2, 5.5}.
    let mut ids = Vec::new();
    for c in [0.0, 0.2, 0.4, 9.0, 9.2, 5.5] {
        ids.push(live.insert(&obj(c)).unwrap());
        reference.insert(&obj(c)).unwrap();
    }
    // Warm caches at the settled partition.
    assert_eq!(live.stabilize(10), reference.stabilize(10));
    let settled: Vec<(ObjectHandle, usize)> = live.live_labels();
    let right = settled
        .iter()
        .find(|&&(id, _)| id == ids[4])
        .expect("9.2 is live")
        .1;

    // Remove the two far-right anchors; 5.5 should now prefer whichever
    // side wins on the remaining data — recompute, don't trust the cache.
    let decisions_before = live.pruning_counters().decisions();
    for id in [ids[3], ids[4]] {
        live.remove(id).unwrap();
        reference.remove(id).unwrap();
    }
    assert_eq!(live.stabilize(10), reference.stabilize(10));

    let after = live.live_labels();
    let lone = after.iter().find(|&&(id, _)| id == ids[5]).unwrap().1;
    // With {0.0, 0.2, 0.4} on one side and only 5.5 left on the other, a
    // singleton source is pinned by the k-preservation rule. The pass after
    // the removals consulted the warm cache (so the check is not vacuous),
    // and its outcome is the cache-free reference model's, bit for bit.
    let counters = live.pruning_counters();
    assert!(
        counters.decisions() > decisions_before,
        "stabilize after removal must consult the cache, got {counters:?}"
    );
    assert_eq!(lone, right, "handle bookkeeping survived the removals");
    assert_identical(&live, &reference, "removal then stabilize");
}

/// One scripted streaming session: the op stream every equivalence check
/// replays identically on each configuration under test.
#[derive(Debug, Clone)]
enum Op {
    Insert(f64, f64),
    /// Remove the `r`-th (mod live count) still-live handle.
    Remove(usize),
    Stabilize(usize),
}

/// Replays `script` on the engine and, in lockstep, on the reference
/// model, asserting per step that both issue the same handle and apply
/// the same number of relocations. With `global_invalidation` the engine
/// drops its whole prune cache before every stabilization.
fn replay(
    pruning: PruningConfig,
    script: &[Op],
    global_invalidation: bool,
) -> (
    IncrementalUcpc,
    RefStream,
    HashMap<ObjectHandle, UncertainObject>,
) {
    let mut live = IncrementalUcpc::new(2, 3).unwrap();
    live.set_pruning(pruning);
    let mut reference = RefStream::new(2, 3);
    let mut ids: Vec<ObjectHandle> = Vec::new();
    let mut by_handle: HashMap<ObjectHandle, UncertainObject> = HashMap::new();
    for op in script {
        match *op {
            Op::Insert(c, s) => {
                let o = UncertainObject::new(vec![
                    UnivariatePdf::normal(c, s),
                    UnivariatePdf::uniform_centered(-c * 0.5, s + 0.1),
                ]);
                let h = live.insert(&o).unwrap();
                assert_eq!(reference.insert(&o), Ok(h), "handles diverged");
                ids.push(h);
                by_handle.insert(h, o);
            }
            Op::Remove(r) => {
                let alive: Vec<ObjectHandle> = ids
                    .iter()
                    .copied()
                    .filter(|&id| live.label_of(id).is_some())
                    .collect();
                if !alive.is_empty() {
                    let h = alive[r % alive.len()];
                    live.remove(h).expect("picked handle is live");
                    reference.remove(h).expect("picked handle is live");
                }
            }
            Op::Stabilize(p) => {
                if global_invalidation {
                    live.set_pruning(pruning);
                }
                assert_eq!(live.stabilize(p), reference.stabilize(p), "relocations");
            }
        }
    }
    (live, reference, by_handle)
}

/// Byte-level equality of the engine's partition and statistics with the
/// reference model's.
fn assert_identical(a: &IncrementalUcpc, b: &RefStream, what: &str) {
    assert_eq!(a.live_labels(), b.live_labels(), "labels diverged: {what}");
    assert_eq!(
        a.cluster_stats(),
        b.cluster_stats(),
        "cluster statistics diverged bitwise: {what}"
    );
    assert_eq!(
        a.objective().to_bits(),
        b.objective().to_bits(),
        "objective bits diverged: {what}"
    );
}

fn churn_script(seed: u64, steps: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut script = Vec::with_capacity(steps + 8);
    // Seed population so removals and stabilizations have substance.
    for _ in 0..8 {
        script.push(Op::Insert(
            rng.gen_range(-10.0..10.0),
            rng.gen_range(0.05..0.8),
        ));
    }
    for _ in 0..steps {
        script.push(match rng.gen_range(0..10u8) {
            0..=4 => Op::Insert(rng.gen_range(-10.0..10.0), rng.gen_range(0.05..0.8)),
            5..=7 => Op::Remove(rng.gen_range(0..64)),
            _ => Op::Stabilize(rng.gen_range(1..4)),
        });
    }
    script
}

#[test]
fn slab_backend_is_byte_identical_to_objects_backend() {
    // The engine against the per-object reference model (the former
    // `objects` backend), × {pruning off, bounds} × {scalar, detected
    // SIMD}: every configuration must produce the reference's labels,
    // bit-identical per-cluster statistics and objective, and the same
    // result as every other configuration. The SIMD dimension is trivial
    // by the backend bit-identity contract, but asserting it end to end
    // here pins the whole streaming path, slot reuse included.
    let restore = simd::active_backend();
    for seed in 0..4u64 {
        let script = churn_script(seed, 120);
        let mut first: Option<RefStream> = None;
        for simd_backend in [Backend::Scalar, Backend::detect()] {
            simd::force_backend(simd_backend).expect("backend available");
            for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
                let what = format!("seed {seed}, {:?} / {}", pruning, simd_backend.name());
                let (run, reference, _) = replay(pruning, &script, false);
                assert_identical(&run, &reference, &what);
                let first = first.get_or_insert(reference);
                assert_identical(&run, first, &format!("{what} vs first configuration"));
            }
        }
    }
    simd::force_backend(restore).expect("restore prior backend");
}

#[test]
fn stale_handle_errors_are_identical_across_backends() {
    // Satellite regression: a remove of an already-removed id used to be a
    // silent no-op. The engine must return the reference model's checked
    // error — for a double remove and for a handle whose slot has been
    // recycled to a later arrival.
    use ucpc::core::ClusterError;
    let obj = |c: f64| {
        UncertainObject::new(vec![
            UnivariatePdf::normal(c, 0.1),
            UnivariatePdf::uniform_centered(c, 0.5),
        ])
    };
    let mut live = IncrementalUcpc::new(2, 2).unwrap();
    let mut reference = RefStream::new(2, 2);
    let a = live.insert(&obj(0.0)).unwrap();
    let b = live.insert(&obj(9.0)).unwrap();
    reference.insert(&obj(0.0)).unwrap();
    reference.insert(&obj(9.0)).unwrap();
    live.remove(a).unwrap();
    reference.remove(a).unwrap();
    let double = live.remove(a).expect_err("double remove is an error");
    assert_eq!(reference.remove(a), Err(double.clone()));
    // Recycle a's slot; the old handle must still be stale.
    let c = live.insert(&obj(0.5)).unwrap();
    assert_eq!(reference.insert(&obj(0.5)), Ok(c));
    assert_eq!(c.slot(), a.slot(), "slot recycled");
    let recycled = live.remove(a).expect_err("recycled slot is stale");
    assert_eq!(reference.remove(a), Err(recycled));
    assert!(matches!(double, ClusterError::StaleHandle { .. }));
    assert_eq!(live.label_of(a), None);
    assert!(live.label_of(b).is_some() && live.label_of(c).is_some());
    assert_eq!(live.len(), 2, "stale removes must not change state");
    assert_identical(&live, &reference, "after stale removes");
}

#[test]
fn surgical_invalidation_skips_more_than_epoch_bumps() {
    // The whole point of charging edits to the drift bounds: after edits,
    // cached bounds survive (widened). The same script replayed with the whole cache
    // dropped before every stabilization — a global invalidation per edit
    // batch — must reach the same labels and statistics with a strictly
    // lower hit rate.
    let script = churn_script(99, 200);
    let (charged, reference, _) = replay(PruningConfig::Bounds, &script, false);
    let (global, _, _) = replay(PruningConfig::Bounds, &script, true);
    assert_identical(&charged, &reference, "charged run");
    assert_identical(&global, &reference, "globally invalidated run");
    let ct = charged.pruning_counters();
    let cg = global.pruning_counters();
    assert!(
        ct.skip_rate() > cg.skip_rate(),
        "surgical invalidation must raise the cache hit-rate: \
         charged {ct:?} vs global {cg:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Free-list churn property: random interleavings of
    /// insert/remove/stabilize — with slot reuse — keep the engine
    /// byte-identical to the reference model and the maintained aggregates
    /// consistent with a from-scratch rebuild.
    #[test]
    fn random_churn_scripts_keep_backends_identical(
        seed in 0u64..1_000_000,
        steps in 10usize..120,
        pruned in 0u8..2,
    ) {
        let script = churn_script(seed, steps);
        let pruning = if pruned == 1 { PruningConfig::Bounds } else { PruningConfig::Off };
        let (engine, reference, by_handle) = replay(pruning, &script, false);

        prop_assert_eq!(reference.live_labels(), engine.live_labels());
        prop_assert_eq!(reference.cluster_stats(), engine.cluster_stats());
        prop_assert_eq!(
            reference.objective().to_bits(),
            engine.objective().to_bits()
        );

        // Both agree with a from-scratch statistics rebuild, recovering
        // objects through the handle association (slots are recycled, so
        // slot index is not a payload identity).
        let rebuilt = rebuild(&engine, &by_handle);
        for (kept, fresh) in engine.cluster_stats().iter().zip(&rebuilt) {
            prop_assert_eq!(kept.size(), fresh.size());
            prop_assert!(close(kept.j(), fresh.j()));
        }
    }
}
