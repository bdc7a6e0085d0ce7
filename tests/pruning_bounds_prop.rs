//! Property test of the drift-bound *invariant itself*, not just run-level
//! outcomes: over random relocation sequences — including adversarial,
//! non-greedy moves the search would never take, and streaming edits
//! (inserts/removals outside any relocation), several between two reads
//! and charged as one net change by the next store or decision — whenever
//! the bound machinery says "skip" (or "the cached argmin still wins"), a
//! shadow full scan must agree. A lucky end-to-end equality cannot mask an unsound
//! bound here: every single decision is cross-checked against ground truth.
//! The per-cluster remove-direction version counters (surgical
//! invalidation, see `ucpc_core::pruning`) are exercised directly: edits
//! that empty or nearly empty a cluster bump only that cluster's counter,
//! and every entry that survives must still pass its shadow scan. Every
//! update and decision goes through one `Pruner`, as in the engine.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ucpc::core::objective::ClusterStats;
use ucpc::core::pruning::{PruneDecision, Pruner, PruningConfig, TOLERANCE};
use ucpc::uncertain::{MomentArena, UncertainObject, UnivariatePdf};

fn dataset(n: usize, m: usize, rng: &mut StdRng) -> Vec<UncertainObject> {
    (0..n)
        .map(|_| {
            UncertainObject::new(
                (0..m)
                    .map(|_| {
                        let mean = rng.gen_range(-10.0..10.0);
                        match rng.gen_range(0..3u8) {
                            0 => UnivariatePdf::normal(mean, rng.gen_range(0.05..1.5)),
                            1 => UnivariatePdf::uniform_centered(mean, rng.gen_range(0.1..2.0)),
                            _ => UnivariatePdf::PointMass { x: mean },
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

/// The reference scan: removal gain plus every candidate delta, with the
/// same best/second/argmin semantics as the relocation loops.
fn shadow_scan(
    stats: &[ClusterStats],
    arena: &MomentArena,
    i: usize,
    src: usize,
) -> Option<(usize, f64, f64)> {
    let v = arena.view(i);
    let removal_gain = stats[src].delta_j_remove(&v);
    let mut best: Option<(usize, f64)> = None;
    let mut second = f64::INFINITY;
    for (dst, stat) in stats.iter().enumerate() {
        if dst == src {
            continue;
        }
        let delta = removal_gain + stat.delta_j_add(&v);
        match best {
            Some((_, bd)) if delta >= bd => {
                if delta < second {
                    second = delta;
                }
            }
            Some((_, bd)) => {
                second = bd;
                best = Some((dst, delta));
            }
            None => best = Some((dst, delta)),
        }
    }
    best.map(|(dst, delta)| (dst, delta, second))
}

/// Caches up to `tries` random assigned objects from genuine scans of
/// the pruner's statistics.
fn store_some(
    pruner: &mut Pruner,
    arena: &MomentArena,
    (labels, gens): (&[Option<usize>], &[u32]),
    rng: &mut StdRng,
    tries: usize,
) {
    for _ in 0..tries {
        let i = rng.gen_range(0..labels.len());
        let Some(src) = labels[i] else { continue };
        if pruner.stats()[src].size() <= 1 {
            continue;
        }
        if let Some(scan) = shadow_scan(pruner.stats(), arena, i, src) {
            pruner.store(i, gens[i], src, scan);
        }
    }
}

/// One random script: relocation churn *interleaved with streaming
/// edits* (inserts of pooled extra objects, removals of assigned ones —
/// the engine's edit path, including edits that take clusters through
/// size < 2 and fire the surgical per-cluster invalidation). Each step
/// caches a handful of objects, makes one edit, then validates every
/// cached object's decision against a shadow scan. With `charged`, a step
/// makes 1–4 edits and about half the steps cache more objects straight
/// after them, so `store`'s own charge carries several edits as one net
/// change before the next pass reads it. Returns the number of validated
/// skips.
fn validate_script(
    seed: u64,
    (n, extras, m, k, steps): (usize, usize, usize, usize, usize),
    charged: bool,
) -> Result<usize, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let total = n + extras;
    let data = dataset(total, m, &mut rng);
    let arena = MomentArena::from_objects(&data);
    // Core objects start assigned; the extra pool starts outside the
    // clustering and is streamed in/out by edits.
    let mut labels: Vec<Option<usize>> = (0..total)
        .map(|i| {
            if i >= n {
                None
            } else if i < k {
                Some(i)
            } else {
                Some(rng.gen_range(0..k))
            }
        })
        .collect();
    let mut stats = vec![ClusterStats::empty(m); k];
    for (i, l) in labels.iter().enumerate() {
        if let Some(l) = *l {
            stats[l].add_view(&arena.view(i));
        }
    }

    // Opening a pass covers every object.
    let mut pruner = Pruner::new(stats, PruningConfig::Bounds);
    pruner.begin_pass(total);
    // Each object's generation: bumped on every re-insert, so an entry
    // stored for an earlier stay never serves the next one.
    let mut gens = vec![0u32; total];
    let mut skips = 0;

    for _step in 0..steps {
        store_some(&mut pruner, &arena, (&labels, &gens), &mut rng, 3);

        // Adversarial edits: non-greedy relocations, inserts of pooled
        // objects, removals.
        let edits = if charged { rng.gen_range(1..5usize) } else { 1 };
        for _edit in 0..edits {
            match rng.gen_range(0..4u8) {
                0 => {
                    // Insert: any unassigned object, any cluster — including
                    // empty ones (small transition ⇒ surgical version bump
                    // on exactly that cluster).
                    let unassigned: Vec<usize> =
                        (0..total).filter(|&i| labels[i].is_none()).collect();
                    if let Some(&i) = unassigned.get(rng.gen_range(0..unassigned.len().max(1))) {
                        let dst = rng.gen_range(0..k);
                        pruner.add(dst, &arena.view(i));
                        gens[i] += 1;
                        labels[i] = Some(dst);
                    }
                }
                1 => {
                    // Removal — allowed to empty a cluster.
                    let assigned: Vec<usize> =
                        (0..total).filter(|&i| labels[i].is_some()).collect();
                    if assigned.len() > k {
                        let i = assigned[rng.gen_range(0..assigned.len())];
                        let src = labels[i].take().expect("assigned");
                        pruner.remove(src, &arena.view(i));
                    }
                }
                _ => {
                    let i = rng.gen_range(0..total);
                    if let Some(src) = labels[i] {
                        if pruner.stats()[src].size() > 1 {
                            let mut dst = rng.gen_range(0..k);
                            if dst == src {
                                dst = (dst + 1) % k;
                            }
                            pruner.relocate(i, src, dst, &arena.view(i));
                            labels[i] = Some(dst);
                        }
                    }
                }
            }
        }
        if charged && rng.gen_bool(0.5) {
            store_some(&mut pruner, &arena, (&labels, &gens), &mut rng, 2);
        }

        // Validate every assigned object's decision against ground truth,
        // at the pass scale of the current statistics.
        pruner.begin_pass(total);
        #[allow(clippy::needless_range_loop)]
        for j in 0..total {
            let Some(src) = labels[j] else { continue };
            if pruner.stats()[src].size() <= 1 {
                continue;
            }
            let v = arena.view(j);
            let decision = pruner.decide(j, gens[j], src, &v);
            let truth = shadow_scan(pruner.stats(), &arena, j, src);
            match decision {
                PruneDecision::FullScan => {}
                PruneDecision::Skip => {
                    let (_, best, _) = truth.expect("k >= 2 yields candidates");
                    prop_assert!(
                        best >= -TOLERANCE,
                        "unsound skip: shadow best {best} would relocate \
                         (object {j}, seed {seed})"
                    );
                    skips += 1;
                }
                PruneDecision::ConfirmBest(dst) => {
                    let (true_dst, best, second) = truth.expect("candidates exist");
                    prop_assert_eq!(
                        dst,
                        true_dst,
                        "unsound argmin confirmation (object {}, seed {})",
                        j,
                        seed
                    );
                    prop_assert!(
                        best < second || second == f64::INFINITY,
                        "confirmed argmin is not strictly winning"
                    );
                }
            }
        }
    }
    Ok(skips)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// One edit per step, charged when the validating pass reads it.
    #[test]
    fn skip_and_confirm_decisions_survive_shadow_scans(
        seed in 0u64..1_000_000,
        n in 12usize..40,
        extras in 3usize..10,
        m in 1usize..6,
        k in 2usize..6,
        steps in 10usize..60,
    ) {
        prop_assume!(k < n);
        validate_script(seed, (n, extras, m, k, steps), false)?;
    }

    /// Several edits between two passes, often charged as one net change
    /// by a `store` straight after them.
    #[test]
    fn charged_edits_between_passes_survive_shadow_scans(
        seed in 0u64..1_000_000,
        n in 12usize..40,
        extras in 3usize..10,
        m in 1usize..6,
        k in 2usize..6,
        steps in 10usize..60,
    ) {
        prop_assume!(k < n);
        validate_script(seed, (n, extras, m, k, steps), true)?;
    }
}
