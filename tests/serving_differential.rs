//! Differential serving harness: random request scripts — placement
//! queries, commits, removals, stabilizations — replayed through the
//! batched [`ServingUcpc`] front door at batch sizes {1, 3, 16, 64} must
//! produce *bitwise* the answers and engine state of a serial replay of
//! the same requests on the per-object reference model `RefStream`
//! (`tests/support/reference.rs`), across pruning × SIMD backends, and at
//! both kernel regimes (short rows and the dispatched
//! `m ≥ DISPATCH_THRESHOLD` path) and at the shapes either side of it.
//!
//! The serial reference computes every expected placement answer with its
//! own independent implementation (per-cluster `delta_j_add` + a stable
//! sort), so agreement pins the pricing-table reads each answer makes (and
//! the stale marks every mutation leaves), top-k selection and margin —
//! not just the argmin.

mod support;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::reference::RefStream;
use ucpc::core::incremental::{IncrementalUcpc, ObjectHandle};
use ucpc::core::objective::ClusterStats;
use ucpc::core::serving::{PlacementAnswer, ServingConfig, ServingResponse, ServingUcpc};
use ucpc::core::{ClusterError, PruningConfig};
use ucpc::uncertain::arena::MomentView;
use ucpc::uncertain::simd::{self, Backend};
use ucpc::uncertain::{Moments, UncertainObject, UnivariatePdf};

const K: usize = 3;
const TOP_K: usize = 4;
const STABILIZE_EVERY: usize = 3;
const STABILIZE_PASSES: usize = 2;
const BATCH_SIZES: [usize; 4] = [1, 3, 16, 64];

/// One scripted request; arrivals carry their moments so every replay
/// admits identical bits.
#[derive(Debug, Clone)]
enum Op {
    Query(Moments),
    Commit(Moments),
    /// Remove the `r`-th (mod count) still-live committed handle.
    Remove(usize),
    Stabilize(usize),
}

fn arrival(rng: &mut StdRng, m: usize) -> Moments {
    let o = UncertainObject::new(
        (0..m)
            .map(|_| UnivariatePdf::normal(rng.gen_range(-10.0..10.0), rng.gen_range(0.05..0.8)))
            .collect(),
    );
    o.moments().clone()
}

fn script(seed: u64, steps: usize, m: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(steps + 8);
    for _ in 0..8 {
        ops.push(Op::Commit(arrival(&mut rng, m)));
    }
    for _ in 0..steps {
        ops.push(match rng.gen_range(0..10u8) {
            0..=3 => Op::Commit(arrival(&mut rng, m)),
            4..=6 => Op::Query(arrival(&mut rng, m)),
            7..=8 => Op::Remove(rng.gen_range(0..64)),
            _ => Op::Stabilize(rng.gen_range(1..3)),
        });
    }
    ops
}

/// Independent reference answer: per-cluster `delta_j_add` (the serial
/// kernel), ranked by a stable sort (ties keep the lower cluster index),
/// margin = second best − best over all clusters (`+∞` when `k == 1`).
fn reference_answer(stats: &[ClusterStats], v: &MomentView<'_>) -> (Vec<(usize, f64)>, f64) {
    let mut deltas: Vec<(usize, f64)> = stats
        .iter()
        .enumerate()
        .map(|(c, s)| (c, s.delta_j_add(v)))
        .collect();
    deltas.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite deltas"));
    let margin = if deltas.len() > 1 {
        deltas[1].1 - deltas[0].1
    } else {
        f64::INFINITY
    };
    deltas.truncate(TOP_K.min(stats.len()));
    (deltas, margin)
}

/// What the serial replay expects the serving layer to answer, per op that
/// produced a submission.
#[derive(Debug)]
enum Expected {
    Placed(Vec<(usize, f64)>, f64),
    Committed(ObjectHandle, Vec<(usize, f64)>, f64),
    Removed(Result<(), ClusterError>),
    Stabilized(usize),
}

/// Serial reference replay: the reference model, one op at a time,
/// stabilizing after every `STABILIZE_EVERY`-th commit exactly like the
/// serving layer's cadence.
fn replay_serial(ops: &[Op], m: usize) -> (RefStream, Vec<Expected>) {
    replay_serial_k(ops, m, K)
}

/// [`replay_serial`] over `k` clusters.
fn replay_serial_k(ops: &[Op], m: usize, k: usize) -> (RefStream, Vec<Expected>) {
    let mut engine = RefStream::new(m, k);
    let mut ids: Vec<ObjectHandle> = Vec::new();
    let mut commits = 0usize;
    let mut expected = Vec::new();
    for op in ops {
        match op {
            Op::Query(mo) => {
                let (ranked, margin) = reference_answer(engine.cluster_stats(), &mo.view());
                expected.push(Expected::Placed(ranked, margin));
            }
            Op::Commit(mo) => {
                let (ranked, margin) = reference_answer(engine.cluster_stats(), &mo.view());
                let h = engine.insert_moments(mo).unwrap();
                assert_eq!(
                    engine.label_of(h),
                    Some(ranked[0].0),
                    "serial placement disagrees with the reference ranking"
                );
                ids.push(h);
                expected.push(Expected::Committed(h, ranked, margin));
                commits += 1;
                if commits.is_multiple_of(STABILIZE_EVERY) {
                    engine.stabilize(STABILIZE_PASSES);
                }
            }
            Op::Remove(r) => {
                let alive: Vec<ObjectHandle> = ids
                    .iter()
                    .copied()
                    .filter(|&id| engine.label_of(id).is_some())
                    .collect();
                if !alive.is_empty() {
                    let h = alive[r % alive.len()];
                    expected.push(Expected::Removed(engine.remove(h)));
                }
            }
            Op::Stabilize(p) => {
                expected.push(Expected::Stabilized(engine.stabilize(*p)));
            }
        }
    }
    (engine, expected)
}

/// Serving replay at one batch size. Flushes are size-driven through
/// `poll`; a removal forces a flush first, because a client can only
/// address handles it has already received (and the drain keeps the
/// handle list — and hence the removal target — aligned with serial).
fn replay_serving(
    pruning: PruningConfig,
    ops: &[Op],
    m: usize,
    batch: usize,
) -> (ServingUcpc, Vec<ServingResponse>) {
    replay_serving_k(pruning, ops, m, K, batch)
}

/// [`replay_serving`] over `k` clusters.
fn replay_serving_k(
    pruning: PruningConfig,
    ops: &[Op],
    m: usize,
    k: usize,
    batch: usize,
) -> (ServingUcpc, Vec<ServingResponse>) {
    let mut engine = IncrementalUcpc::new(m, k).unwrap();
    engine.set_pruning(pruning);
    let cfg = ServingConfig {
        batch,
        queue_capacity: batch * 4,
        deadline: None,
        stabilize_every: STABILIZE_EVERY,
        stabilize_passes: STABILIZE_PASSES,
        top_k: TOP_K,
        // WAL fields from the environment: the CI `wal` leg reruns this
        // suite with `UCPC_WAL=on` to prove logging changes no behaviour.
        ..ServingConfig::default()
    };
    let mut serving = ServingUcpc::over(engine, cfg);
    let mut ids: Vec<ObjectHandle> = Vec::new();
    let mut log: Vec<ServingResponse> = Vec::new();
    let drain = |serving: &mut ServingUcpc, ids: &mut Vec<ObjectHandle>, log: &mut Vec<_>| {
        while let Some((_, resp)) = serving.pop_response() {
            if let ServingResponse::Committed { handle, .. } = &resp {
                ids.push(*handle);
            }
            log.push(resp);
        }
    };
    for op in ops {
        match op {
            Op::Query(mo) => {
                serving.submit_query(mo).unwrap();
            }
            Op::Commit(mo) => {
                serving.submit_commit(mo).unwrap();
            }
            Op::Remove(r) => {
                serving.flush();
                drain(&mut serving, &mut ids, &mut log);
                let alive: Vec<ObjectHandle> = ids
                    .iter()
                    .copied()
                    .filter(|&id| serving.engine().label_of(id).is_some())
                    .collect();
                if !alive.is_empty() {
                    serving.submit_remove(alive[*r % alive.len()]).unwrap();
                }
            }
            Op::Stabilize(p) => {
                serving.submit_stabilize(*p).unwrap();
            }
        }
        serving.poll(std::time::Instant::now());
        drain(&mut serving, &mut ids, &mut log);
    }
    serving.flush();
    drain(&mut serving, &mut ids, &mut log);
    (serving, log)
}

fn assert_answer(got: &PlacementAnswer, ranked: &[(usize, f64)], margin: f64, what: &str) {
    assert_eq!(
        got.ranked().len(),
        ranked.len(),
        "top-k length diverged: {what}"
    );
    for (i, (&(gc, gd), &(ec, ed))) in got.ranked().iter().zip(ranked).enumerate() {
        assert_eq!(gc, ec, "rank {i} cluster diverged: {what}");
        assert_eq!(
            gd.to_bits(),
            ed.to_bits(),
            "rank {i} delta bits diverged: {what}"
        );
    }
    assert_eq!(
        got.margin().to_bits(),
        margin.to_bits(),
        "margin bits diverged: {what}"
    );
}

fn assert_equivalent(
    serving: &ServingUcpc,
    log: &[ServingResponse],
    serial: &RefStream,
    expected: &[Expected],
    what: &str,
) {
    assert_eq!(log.len(), expected.len(), "response count diverged: {what}");
    for (i, (got, want)) in log.iter().zip(expected).enumerate() {
        let ctx = format!("response {i}: {what}");
        match (got, want) {
            (ServingResponse::Placed(a), Expected::Placed(ranked, margin)) => {
                assert_answer(a, ranked, *margin, &ctx);
            }
            (
                ServingResponse::Committed { handle, answer },
                Expected::Committed(h, ranked, margin),
            ) => {
                assert_eq!(handle, h, "handle diverged: {ctx}");
                assert_answer(answer, ranked, *margin, &ctx);
            }
            (ServingResponse::Removed(got), Expected::Removed(want)) => {
                assert_eq!(got, want, "removal outcome diverged: {ctx}");
            }
            (ServingResponse::Stabilized { relocations }, Expected::Stabilized(want)) => {
                assert_eq!(relocations, want, "relocation count diverged: {ctx}");
            }
            (got, want) => panic!("response kind diverged: {ctx}: {got:?} vs {want:?}"),
        }
    }
    let engine = serving.engine();
    assert_eq!(
        engine.live_labels(),
        serial.live_labels(),
        "labels diverged: {what}"
    );
    assert_eq!(
        engine.cluster_stats(),
        serial.cluster_stats(),
        "cluster statistics diverged bitwise: {what}"
    );
    assert_eq!(
        engine.objective().to_bits(),
        serial.objective().to_bits(),
        "objective bits diverged: {what}"
    );
}

#[test]
fn serving_is_bit_identical_to_serial_across_the_full_matrix() {
    // batch {1,3,16,64} × {off,bounds} × {scalar,detected SIMD}, at
    // m = 16 — the dispatched pricing regime, where the arrival-blocked
    // four-row kernel and the engine's cluster-blocked table scan must
    // still agree bit for bit.
    let restore = simd::active_backend();
    for seed in 0..2u64 {
        let ops = script(seed, 70, 16);
        for simd_backend in [Backend::Scalar, Backend::detect()] {
            simd::force_backend(simd_backend).expect("backend available");
            let (serial, expected) = replay_serial(&ops, 16);
            for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
                for batch in BATCH_SIZES {
                    let (serving, log) = replay_serving(pruning, &ops, 16, batch);
                    assert_equivalent(
                        &serving,
                        &log,
                        &serial,
                        &expected,
                        &format!(
                            "seed {seed}, batch {batch}, {:?} / {}",
                            pruning,
                            simd_backend.name()
                        ),
                    );
                }
            }
        }
    }
    simd::force_backend(restore).expect("restore prior backend");
}

#[test]
fn serving_is_bit_identical_on_short_rows() {
    // m = 2 stays below DISPATCH_THRESHOLD: pricing takes the per-cluster
    // delta_j_add regime. Both prunings × all batch sizes.
    for seed in 0..3u64 {
        let ops = script(seed + 100, 90, 2);
        let (serial, expected) = replay_serial(&ops, 2);
        for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
            for batch in BATCH_SIZES {
                let (serving, log) = replay_serving(pruning, &ops, 2, batch);
                assert_equivalent(
                    &serving,
                    &log,
                    &serial,
                    &expected,
                    &format!("seed {seed}, batch {batch}, {pruning:?} / short rows"),
                );
            }
        }
    }
}

#[test]
fn serving_is_bit_identical_either_side_of_the_dispatch_threshold() {
    // m ∈ {15, 16, 17} straddles DISPATCH_THRESHOLD, and k = 8 clusters
    // with top-4 answers keep the ranking non-trivial. Every answer prices
    // all eight clusters with one `dot_block` over the engine's pricing
    // table: two four-row AVX2 groups at m = 16, the per-row path at 15
    // and 17.
    const WIDE_K: usize = 8;
    let restore = simd::active_backend();
    for m in [15, 16, 17] {
        let ops = script(200 + m as u64, 80, m);
        for simd_backend in [Backend::Scalar, Backend::detect()] {
            simd::force_backend(simd_backend).expect("backend available");
            let (serial, expected) = replay_serial_k(&ops, m, WIDE_K);
            for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
                for batch in BATCH_SIZES {
                    let (serving, log) = replay_serving_k(pruning, &ops, m, WIDE_K, batch);
                    assert_equivalent(
                        &serving,
                        &log,
                        &serial,
                        &expected,
                        &format!(
                            "m {m}, k {WIDE_K}, batch {batch}, {pruning:?} / {}",
                            simd_backend.name()
                        ),
                    );
                }
            }
        }
    }
    simd::force_backend(restore).expect("restore prior backend");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property form: arbitrary scripts and batch sizes keep the serving
    /// layer bit-identical to the serial reference replay, pruning on and
    /// off.
    #[test]
    fn random_scripts_serve_bit_identically(
        seed in 0u64..1_000_000,
        steps in 10usize..80,
        batch_idx in 0usize..BATCH_SIZES.len(),
        pruned in 0u8..2,
        wide in 0u8..2,
    ) {
        let m = if wide == 1 { 16 } else { 2 };
        let ops = script(seed, steps, m);
        let pruning = if pruned == 1 { PruningConfig::Bounds } else { PruningConfig::Off };
        let (serial, expected) = replay_serial(&ops, m);
        let batch = BATCH_SIZES[batch_idx];
        let (serving, log) = replay_serving(pruning, &ops, m, batch);
        assert_equivalent(
            &serving,
            &log,
            &serial,
            &expected,
            &format!("proptest seed {seed}, batch {batch}, m {m}, {pruning:?}"),
        );
    }
}
