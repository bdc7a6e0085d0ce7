//! Property-style seeded-grid equivalence tests for the scalar-aggregate
//! delta-`J` kernel: over a grid of (n, m, k) shapes and seeds, the kernel
//! must agree with naive from-scratch recomputation after every applied
//! relocation, every `delta_j_*` must match its naive `*_after_*` sweep
//! (`ucpc_bench::naive`), and
//! UCPC's objective trace must stay monotone under the kernel. The
//! statistic updates themselves (`add_view`, `remove_view`) are held bit
//! for bit to the per-dimension reference fold in `tests/support/fold.rs`.

mod support;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use support::fold::RefFold;
use ucpc::core::objective::ClusterStats;
use ucpc::core::Ucpc;
use ucpc::uncertain::{MomentArena, MomentView, UncertainObject, UnivariatePdf};
use ucpc_bench::naive::{
    j_after_add, j_after_remove, j_mm_after_add, j_mm_after_remove, j_naive, j_uk_after_add,
    j_uk_after_remove, j_uk_naive,
};

/// Mixed-family random dataset (means in ±8, spreads in [0.05, 2]).
fn dataset(n: usize, m: usize, seed: u64) -> Vec<UncertainObject> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
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
        .collect()
}

fn random_labels(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut labels: Vec<usize> = (0..n)
        .map(|i| if i < k { i } else { rng.gen_range(0..k) })
        .collect();
    // The first k objects guarantee non-empty clusters wherever they land.
    labels.rotate_left(seed as usize % n.max(1));
    labels
}

/// Total `J` rebuilt from scratch — the ground truth the kernel must track.
fn rebuild_total_j(data: &[UncertainObject], labels: &[usize], k: usize) -> f64 {
    (0..k)
        .filter_map(|c| {
            let members: Vec<&UncertainObject> = labels
                .iter()
                .zip(data)
                .filter(|&(&l, _)| l == c)
                .map(|(_, o)| o)
                .collect();
            if members.is_empty() {
                None
            } else {
                Some(ClusterStats::from_members(members).j())
            }
        })
        .sum()
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

const GRID: [(usize, usize, usize); 5] =
    [(12, 1, 2), (30, 3, 3), (40, 8, 5), (25, 16, 4), (60, 5, 6)];

#[test]
fn kernel_agrees_with_from_scratch_j_after_every_relocation() {
    for (gi, &(n, m, k)) in GRID.iter().enumerate() {
        for seed in 0..3u64 {
            let seed = seed + 100 * gi as u64;
            let data = dataset(n, m, seed);
            let arena = MomentArena::from_objects(&data);
            let mut labels = random_labels(n, k, seed + 7);
            let mut stats = vec![ClusterStats::empty(m); k];
            for (i, &l) in labels.iter().enumerate() {
                stats[l].add_view(&arena.view(i));
            }

            // One full greedy relocation pass, checking after EVERY applied
            // relocation that the incrementally maintained scalar-aggregate
            // objective equals a from-scratch naive recomputation.
            for i in 0..n {
                let src = labels[i];
                if stats[src].size() == 1 {
                    continue;
                }
                let v = arena.view(i);
                let removal_gain = stats[src].delta_j_remove(&v);
                let mut best: Option<(usize, f64)> = None;
                for (dst, stat) in stats.iter().enumerate() {
                    if dst == src {
                        continue;
                    }
                    let delta = removal_gain + stat.delta_j_add(&v);
                    if best.is_none_or(|(_, bd)| delta < bd) {
                        best = Some((dst, delta));
                    }
                }
                let Some((dst, delta)) = best else { continue };
                if delta >= -1e-9 {
                    continue;
                }
                let before: f64 = stats.iter().map(ClusterStats::j).sum();
                stats[src].remove_view(&v);
                stats[dst].add_view(&v);
                labels[i] = dst;
                let after: f64 = stats.iter().map(ClusterStats::j).sum();
                let rebuilt = rebuild_total_j(&data, &labels, k);
                assert!(
                    close(after, rebuilt, 1e-9),
                    "n={n} m={m} k={k} seed={seed}: kernel J {after} vs rebuilt {rebuilt}"
                );
                assert!(
                    close(after - before, delta, 1e-6),
                    "n={n} m={m} k={k} seed={seed}: applied delta {} vs predicted {delta}",
                    after - before
                );
            }
        }
    }
}

#[test]
fn delta_kernel_matches_naive_sweeps_pointwise() {
    for (gi, &(n, m, k)) in GRID.iter().enumerate() {
        let seed = 1000 + gi as u64;
        let data = dataset(n, m, seed);
        let arena = MomentArena::from_objects(&data);
        let labels = random_labels(n, k, seed + 3);
        let mut stats = vec![ClusterStats::empty(m); k];
        for (i, &l) in labels.iter().enumerate() {
            stats[l].add_view(&arena.view(i));
        }

        for i in 0..n {
            let v = arena.view(i);
            let o = data[i].moments();
            let src = labels[i];
            for (c, s) in stats.iter().enumerate() {
                // The kernel's scalar objectives vs the per-dimension sweeps.
                assert!(close(s.j(), j_naive(s), 1e-9), "J scalar vs naive");
                assert!(close(s.j_uk(), j_uk_naive(s), 1e-9), "J_UK scalar vs naive");
                // Add direction is valid against any cluster.
                assert!(
                    close(s.delta_j_add(&v), j_after_add(s, o) - j_naive(s), 1e-9),
                    "delta_j_add vs naive (n={n} m={m} k={k} i={i} c={c})"
                );
                assert!(
                    close(
                        s.delta_j_uk_add(&v),
                        j_uk_after_add(s, o) - j_uk_naive(s),
                        1e-9
                    ),
                    "delta_j_uk_add vs naive"
                );
                assert!(
                    close(s.delta_j_mm_add(&v), j_mm_after_add(s, o) - s.j_mm(), 1e-9),
                    "delta_j_mm_add vs naive"
                );
                // Remove direction only against the member's own cluster.
                if c == src {
                    assert!(
                        close(
                            s.delta_j_remove(&v),
                            j_after_remove(s, o) - j_naive(s),
                            1e-9
                        ),
                        "delta_j_remove vs naive"
                    );
                    assert!(
                        close(
                            s.delta_j_uk_remove(&v),
                            j_uk_after_remove(s, o) - j_uk_naive(s),
                            1e-9
                        ),
                        "delta_j_uk_remove vs naive"
                    );
                    assert!(
                        close(
                            s.delta_j_mm_remove(&v),
                            j_mm_after_remove(s, o) - s.j_mm(),
                            1e-9
                        ),
                        "delta_j_mm_remove vs naive"
                    );
                }
            }
        }
    }
}

/// Total `J_UK` and `J_MM` rebuilt from scratch — ground truth for the UK
/// and MM kernel variants.
fn rebuild_total_uk_mm(data: &[UncertainObject], labels: &[usize], k: usize) -> (f64, f64) {
    (0..k)
        .filter_map(|c| {
            let members: Vec<&UncertainObject> = labels
                .iter()
                .zip(data)
                .filter(|&(&l, _)| l == c)
                .map(|(_, o)| o)
                .collect();
            if members.is_empty() {
                None
            } else {
                let s = ClusterStats::from_members(members);
                Some((s.j_uk(), s.j_mm()))
            }
        })
        .fold((0.0, 0.0), |(uk, mm), (u, m)| (uk + u, mm + m))
}

#[test]
fn uk_and_mm_kernels_agree_with_from_scratch_over_relocation_walks() {
    // The UK (`delta_j_uk_*`) and MM (`delta_j_mm_*`) kernel variants driven
    // through whole greedy relocation walks on the seeded grid — previously
    // only the base delta-J path got this treatment (the pointwise test
    // below exercises UK/MM against a single static labelling).
    for (gi, &(n, m, k)) in GRID.iter().enumerate() {
        for seed in 0..2u64 {
            let seed = seed + 3000 + 100 * gi as u64;
            let data = dataset(n, m, seed);
            let arena = MomentArena::from_objects(&data);
            let mut labels = random_labels(n, k, seed + 5);
            let mut stats = vec![ClusterStats::empty(m); k];
            for (i, &l) in labels.iter().enumerate() {
                stats[l].add_view(&arena.view(i));
            }

            // A UK-means-style greedy pass: relocate wherever the UK kernel
            // says the UK objective drops, verifying both the UK and MM
            // aggregates against from-scratch rebuilds after every applied
            // relocation.
            for i in 0..n {
                let src = labels[i];
                if stats[src].size() == 1 {
                    continue;
                }
                let v = arena.view(i);
                let uk_before: f64 = stats.iter().map(ClusterStats::j_uk).sum();
                let removal_gain = stats[src].delta_j_uk_remove(&v);
                let mut best: Option<(usize, f64)> = None;
                for (dst, stat) in stats.iter().enumerate() {
                    if dst == src {
                        continue;
                    }
                    let delta = removal_gain + stat.delta_j_uk_add(&v);
                    if best.is_none_or(|(_, bd)| delta < bd) {
                        best = Some((dst, delta));
                    }
                }
                let Some((dst, delta)) = best else { continue };
                if delta >= -1e-9 {
                    continue;
                }
                // MM deltas predicted before the move, validated after it.
                let mm_before: f64 = stats.iter().map(ClusterStats::j_mm).sum();
                let mm_delta = stats[src].delta_j_mm_remove(&v) + stats[dst].delta_j_mm_add(&v);

                stats[src].remove_view(&v);
                stats[dst].add_view(&v);
                labels[i] = dst;

                let uk_after: f64 = stats.iter().map(ClusterStats::j_uk).sum();
                let mm_after: f64 = stats.iter().map(ClusterStats::j_mm).sum();
                let (uk_rebuilt, mm_rebuilt) = rebuild_total_uk_mm(&data, &labels, k);
                assert!(
                    close(uk_after, uk_rebuilt, 1e-9),
                    "n={n} m={m} k={k} seed={seed}: UK kernel {uk_after} vs \
                     rebuilt {uk_rebuilt}"
                );
                assert!(
                    close(mm_after, mm_rebuilt, 1e-9),
                    "n={n} m={m} k={k} seed={seed}: MM kernel {mm_after} vs \
                     rebuilt {mm_rebuilt}"
                );
                assert!(
                    close(uk_after - uk_before, delta, 1e-6),
                    "predicted UK delta {delta} vs applied {}",
                    uk_after - uk_before
                );
                assert!(
                    close(mm_after - mm_before, mm_delta, 1e-6),
                    "predicted MM delta {mm_delta} vs applied {}",
                    mm_after - mm_before
                );
            }
        }
    }
}

#[test]
fn objective_trace_stays_monotone_and_final_j_matches_rebuild() {
    for (gi, &(n, m, k)) in GRID.iter().enumerate() {
        for seed in 0..2u64 {
            let seed = seed + 10 * gi as u64;
            let data = dataset(n, m, 2000 + seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let r = Ucpc::default().run(&data, k, &mut rng).unwrap();
            for w in r.objective_trace.windows(2) {
                assert!(
                    w[1] <= w[0] + 1e-6 * (1.0 + w[0].abs()),
                    "n={n} m={m} k={k} seed={seed}: trace rose {w:?}"
                );
            }
            let rebuilt = rebuild_total_j(&data, r.clustering.labels(), k);
            assert!(
                close(r.objective, rebuilt, 1e-9),
                "n={n} m={m} k={k} seed={seed}: final {} vs rebuilt {rebuilt}",
                r.objective
            );
        }
    }
}

/// One object's raw rows and the scalars a `MomentView` carries. Rows are
/// drawn entry by entry, so `mu2` need not be consistent with `mu`: the
/// fold is plain arithmetic on whatever the view holds, its variances
/// derived from the two rows.
struct RawRow {
    mu: Vec<f64>,
    mu2: Vec<f64>,
}

impl RawRow {
    fn view(&self) -> MomentView<'_> {
        let sum_mu_sq: f64 = self.mu.iter().map(|x| x * x).sum();
        let mut v = MomentView {
            mu: &self.mu,
            mu2: &self.mu2,
            sum_mu_sq,
            sum_mu2: self.mu2.iter().sum(),
            sum_var: 0.0,
            norm_mu: sum_mu_sq.sqrt(),
        };
        v.sum_var = v.variances().sum();
        v
    }
}

/// ±0.0, subnormals, ±1e±300 or an ordinary value.
fn hostile(rng: &mut StdRng) -> f64 {
    let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
    sign * match rng.gen_range(0..6u8) {
        0 => 0.0,
        1 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
        2 => 1e300,
        3 => 1e-300,
        _ => rng.gen_range(0.0..8.0),
    }
}

fn raw_row(m: usize, rng: &mut StdRng) -> RawRow {
    let mut draw = || (0..m).map(|_| hostile(rng)).collect::<Vec<f64>>();
    RawRow {
        mu: draw(),
        mu2: draw(),
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_as_reference(stats: &ClusterStats, r: &RefFold, ctx: &str) {
    assert_eq!(bits(stats.psi()), bits(&r.psi), "{ctx}: psi");
    assert_eq!(bits(stats.phi()), bits(&r.phi), "{ctx}: phi");
    assert_eq!(bits(stats.mean_sum()), bits(&r.mean_sum), "{ctx}: mean_sum");
    assert_eq!(stats.size(), r.size, "{ctx}: size");
    assert_eq!(stats.j().to_bits(), r.j().to_bits(), "{ctx}: J");
}

#[test]
fn statistic_updates_match_the_per_dimension_reference_fold_bit_for_bit() {
    for m in (1..=33).chain([64]) {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(7000 + 100 * m as u64 + seed);
            let pool: Vec<RawRow> = (0..24).map(|_| raw_row(m, &mut rng)).collect();
            let mut stats = ClusterStats::empty(m);
            let mut reference = RefFold::new(m);
            let mut members: Vec<usize> = Vec::new();
            // Grow, churn, then drain to empty: large clusters, the small
            // transitions near sizes 0–2 and the re-zeroed empty cluster.
            for (phase, p_add, steps) in
                [("grow", 0.8, 120), ("churn", 0.5, 160), ("drain", 0.0, 0)]
            {
                let steps = if phase == "drain" {
                    members.len()
                } else {
                    steps
                };
                for step in 0..steps {
                    let adding = members.is_empty() || rng.gen_bool(p_add);
                    let i = if adding {
                        let i = rng.gen_range(0..pool.len());
                        members.push(i);
                        stats.add_view(&pool[i].view());
                        reference.add(&pool[i].view());
                        i
                    } else {
                        let i = members.swap_remove(rng.gen_range(0..members.len()));
                        stats.remove_view(&pool[i].view());
                        reference.remove(&pool[i].view());
                        i
                    };
                    let ctx = format!(
                        "m={m} seed={seed} {phase} step {step}: {} row {i}",
                        if adding { "add" } else { "remove" },
                    );
                    assert_same_as_reference(&stats, &reference, &ctx);
                }
            }
            assert!(stats.is_empty(), "m={m} seed={seed}: drained");
        }
    }
}

#[test]
#[should_panic(expected = "dimension mismatch")]
fn adding_a_view_with_a_short_row_panics() {
    let mut stats = ClusterStats::empty(4);
    let short = RawRow {
        mu: vec![1.0; 4],
        mu2: vec![2.0; 3],
    };
    stats.add_view(&short.view());
}

#[test]
fn a_mismatched_view_panics_before_anything_is_folded() {
    let full = RawRow {
        mu: vec![1.0, -2.0, 0.5, 3.0],
        mu2: vec![2.0, 4.5, 0.5, 9.5],
    };
    // Each way a view's rows can disagree with the 4-dimensional cluster:
    // one row one entry short or one entry long.
    let mismatched = [3, 5].into_iter().flat_map(|n| {
        ["mu", "mu2"].map(|row| {
            let len = |r: &str| if r == row { n } else { 4 };
            let bad = RawRow {
                mu: vec![1.0; len("mu")],
                mu2: vec![2.0; len("mu2")],
            };
            (row, n, bad)
        })
    });
    for (row, len, bad) in mismatched {
        for entry in ["add", "remove"] {
            let mut stats = ClusterStats::empty(4);
            let mut reference = RefFold::new(4);
            for _ in 0..3 {
                stats.add_view(&full.view());
                reference.add(&full.view());
            }
            let v = bad.view();
            let folded = catch_unwind(AssertUnwindSafe(|| match entry {
                "add" => stats.add_view(&v),
                _ => stats.remove_view(&v),
            }));
            let ctx = format!("{entry} with a {len}-entry {row} row");
            assert!(folded.is_err(), "{ctx}: folded instead of panicking");
            assert_same_as_reference(&stats, &reference, &ctx);
        }
    }
}
