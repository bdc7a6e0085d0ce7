//! Snapshot/restore exactness suite.
//!
//! The contract under test: interrupting a streaming session mid-churn —
//! snapshot, drop the engine, restore from bytes, continue the same edit
//! script — produces **byte-for-byte** the labels, per-cluster statistic
//! bits and objective bits of the uninterrupted run, and of the per-object
//! reference model `RefStream` (`tests/support/reference.rs`) replaying the
//! same script. Pinned across {pruning off, bounds} × {scalar, detected
//! SIMD}, deterministically and under a property test with random scripts
//! and random cut points. Handles issued before the snapshot stay valid
//! after restore (slot and generation are part of the serialized state),
//! so callers keep their ids across a recovery.

mod support;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::reference::RefStream;
use ucpc::core::incremental::{IncrementalUcpc, ObjectHandle};
use ucpc::core::{PruningConfig, SnapshotError, VecIo};
use ucpc::uncertain::simd::{self, Backend};
use ucpc::uncertain::{UncertainObject, UnivariatePdf};

/// One scripted streaming session, replayed identically with and without
/// the mid-script snapshot/restore interruption.
#[derive(Debug, Clone)]
enum Op {
    Insert(f64, f64),
    /// Remove the `r`-th (mod live count) still-live handle.
    Remove(usize),
    Stabilize(usize),
}

fn churn_script(seed: u64, steps: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut script = Vec::with_capacity(steps + 8);
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

fn apply(live: &mut IncrementalUcpc, ids: &mut Vec<ObjectHandle>, op: &Op) {
    match *op {
        Op::Insert(c, s) => {
            let o = UncertainObject::new(vec![
                UnivariatePdf::normal(c, s),
                UnivariatePdf::uniform_centered(-c * 0.5, s + 0.1),
            ]);
            ids.push(live.insert(&o).unwrap());
        }
        Op::Remove(r) => {
            let alive: Vec<ObjectHandle> = ids
                .iter()
                .copied()
                .filter(|&id| live.label_of(id).is_some())
                .collect();
            if !alive.is_empty() {
                live.remove(alive[r % alive.len()])
                    .expect("picked handle is live");
            }
        }
        Op::Stabilize(p) => {
            live.stabilize(p);
        }
    }
}

/// Runs `script` on a fresh engine; if `cut` is given, snapshots after
/// `cut` ops, drops the engine, restores from bytes and continues — the
/// pre-cut handles are reused verbatim across the interruption.
fn run(pruning: PruningConfig, script: &[Op], cut: Option<usize>) -> IncrementalUcpc {
    let mut live = IncrementalUcpc::new(2, 3).unwrap();
    live.set_pruning(pruning);
    let mut ids: Vec<ObjectHandle> = Vec::new();
    for (i, op) in script.iter().enumerate() {
        if cut == Some(i) {
            let bytes = live.snapshot();
            drop(live);
            live = IncrementalUcpc::restore(&bytes).expect("own snapshot restores");
        }
        apply(&mut live, &mut ids, op);
    }
    live
}

/// `script` replayed on the reference model.
fn reference(script: &[Op]) -> RefStream {
    let mut model = RefStream::new(2, 3);
    let mut ids: Vec<ObjectHandle> = Vec::new();
    for op in script {
        match *op {
            Op::Insert(c, s) => {
                let o = UncertainObject::new(vec![
                    UnivariatePdf::normal(c, s),
                    UnivariatePdf::uniform_centered(-c * 0.5, s + 0.1),
                ]);
                ids.push(model.insert(&o).unwrap());
            }
            Op::Remove(r) => {
                let alive: Vec<ObjectHandle> = ids
                    .iter()
                    .copied()
                    .filter(|&id| model.label_of(id).is_some())
                    .collect();
                if !alive.is_empty() {
                    model.remove(alive[r % alive.len()]).unwrap();
                }
            }
            Op::Stabilize(p) => {
                model.stabilize(p);
            }
        }
    }
    model
}

fn assert_matches_reference(a: &IncrementalUcpc, b: &RefStream, what: &str) {
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

fn assert_identical(a: &IncrementalUcpc, b: &IncrementalUcpc, what: &str) {
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

#[test]
fn restore_mid_churn_continues_bit_identically_across_the_matrix() {
    let restore = simd::active_backend();
    let script = churn_script(7, 140);
    let model = reference(&script);
    for simd_backend in [Backend::Scalar, Backend::detect()] {
        simd::force_backend(simd_backend).expect("backend available");
        for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
            let what = format!("{:?} / {}", pruning, simd_backend.name());
            let uninterrupted = run(pruning, &script, None);
            assert_matches_reference(&uninterrupted, &model, &what);
            for cut in [20, 74, 139] {
                let resumed = run(pruning, &script, Some(cut));
                assert_identical(&uninterrupted, &resumed, &format!("{what}, cut {cut}"));
            }
        }
    }
    simd::force_backend(restore).expect("restore prior backend");
}

#[test]
fn snapshot_of_restored_engine_reproduces_the_bytes() {
    for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
        let live = run(pruning, &churn_script(21, 90), None);
        let bytes = live.snapshot();
        let back = IncrementalUcpc::restore(&bytes).expect("restores");
        assert_eq!(
            back.snapshot(),
            bytes,
            "snapshot(restore(s)) must equal s ({pruning:?})"
        );
    }
}

#[test]
fn streaming_snapshot_roundtrips_and_older_versions_are_rejected() {
    for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
        let what = format!("{pruning:?}");
        let script = churn_script(33, 120);
        let live = run(pruning, &script, None);
        let bytes = live.snapshot();
        // Streaming through a sink that accepts 7 bytes per write
        // produces the same bytes as the in-memory snapshot.
        let mut sink = VecIo::chunked(7);
        let written = live.write_snapshot(&mut sink).expect("sink accepts");
        assert_eq!(written, bytes.len() as u64, "{what}");
        assert_eq!(sink.bytes(), &bytes[..], "streamed bytes diverged: {what}");
        let back = IncrementalUcpc::restore(&bytes).expect("restores");
        assert_matches_reference(&back, &reference(&script), &what);
        // Versions 1 to 4 are no longer read: one format, version 5.
        for version in [1u8, 2, 3, 4] {
            let mut old = bytes.clone();
            old[8..12].copy_from_slice(&u32::from(version).to_le_bytes());
            assert_eq!(
                IncrementalUcpc::restore(&old).unwrap_err(),
                SnapshotError::UnsupportedVersion(version.into()),
                "{what}"
            );
        }
    }
}

/// Drift bookkeeping depends on which passes an engine ran, so version 5
/// leaves it out: the same clustering reached through different pass
/// histories writes the same bytes. One engine runs the script pruned
/// (edits charged to the drift bounds after its first pass), one runs it
/// unpruned and switches pruning on at the end (nothing charged), and one
/// is restored mid-script (cold cache, watermarks from zero).
#[test]
fn engines_with_different_pass_histories_write_identical_snapshots() {
    let script = churn_script(44, 160);
    let pruned = run(PruningConfig::Bounds, &script, None);
    let mut unpruned = run(PruningConfig::Off, &script, None);
    unpruned.set_pruning(PruningConfig::Bounds);
    let recovered = run(PruningConfig::Bounds, &script, Some(script.len() / 2));
    let drift_of = |e: &IncrementalUcpc| e.pruner().drift().to_vec();
    assert!(
        pruned.pruning_counters().skips > 0,
        "the pruned run skipped"
    );
    assert_ne!(drift_of(&pruned), drift_of(&unpruned), "histories differ");
    assert_ne!(drift_of(&pruned), drift_of(&recovered), "histories differ");
    let bytes = pruned.snapshot();
    assert_eq!(unpruned.snapshot(), bytes, "unpruned history");
    assert_eq!(recovered.snapshot(), bytes, "recovered history");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random scripts, random cut points: the interrupted run is always
    /// bit-identical to the uninterrupted one and to the reference model,
    /// with pruning off and on.
    #[test]
    fn random_cut_points_preserve_bit_identity(
        seed in 0u64..1_000_000,
        steps in 20usize..100,
        cut_frac in 0.0f64..1.0,
        pruned in 0u8..2,
    ) {
        let script = churn_script(seed, steps);
        let cut = ((script.len() - 1) as f64 * cut_frac) as usize;
        let pruning = if pruned == 1 { PruningConfig::Bounds } else { PruningConfig::Off };
        let model = reference(&script);
        let resumed = run(pruning, &script, Some(cut));
        prop_assert_eq!(model.live_labels(), resumed.live_labels());
        prop_assert_eq!(model.cluster_stats(), resumed.cluster_stats());
        prop_assert_eq!(model.objective().to_bits(), resumed.objective().to_bits());
    }
}
