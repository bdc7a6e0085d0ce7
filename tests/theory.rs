//! Property-based verification of the paper's formal results on randomized
//! inputs: Theorems 1–3, Lemmas 1–5 (as surfaced through the public API),
//! Corollary 1, and Propositions 1–5.

use proptest::prelude::*;
use ucpc::core::objective::ClusterStats;
use ucpc::core::ucentroid::UCentroid;
use ucpc::core::Ucpc;
use ucpc::uncertain::distance::{
    expected_sq_distance, expected_sq_distance_from_moments, expected_sq_distance_to_point,
};
use ucpc::uncertain::{UncertainObject, UnivariatePdf};
use ucpc_bench::naive::{j_after_add, j_after_remove};

/// Strategy: a random uncertain object with `m` dimensions mixing pdf
/// families.
fn uncertain_object(m: usize) -> impl Strategy<Value = UncertainObject> {
    prop::collection::vec((0u8..4, -50.0..50.0f64, 0.01..5.0f64), m).prop_map(|dims| {
        UncertainObject::new(
            dims.into_iter()
                .map(|(fam, mean, spread)| match fam {
                    0 => UnivariatePdf::uniform_centered(mean, spread),
                    1 => UnivariatePdf::normal(mean, spread),
                    2 => UnivariatePdf::exponential_with_mean(mean, 1.0 / spread),
                    _ => UnivariatePdf::PointMass { x: mean },
                })
                .collect(),
        )
    })
}

fn cluster(m: usize, lo: usize, hi: usize) -> impl Strategy<Value = Vec<UncertainObject>> {
    prop::collection::vec(uncertain_object(m), lo..hi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 3: the Ψ/Φ/Υ closed form equals Σ_o ÊD(o, U-centroid).
    #[test]
    fn theorem3_closed_form(objs in cluster(3, 1, 12)) {
        let stats = ClusterStats::from_members(objs.iter());
        let refs: Vec<&UncertainObject> = objs.iter().collect();
        let c = UCentroid::from_cluster(&refs);
        let direct: f64 = objs
            .iter()
            .map(|o| expected_sq_distance_from_moments(o.mu(), o.mu2(), c.mu(), c.mu2()))
            .sum();
        prop_assert!(
            (stats.j() - direct).abs() <= 1e-6 * (1.0 + direct.abs()),
            "J {} vs direct {}", stats.j(), direct
        );
    }

    /// Theorem 3 (second identity): J = (1/|C|) Σ σ² + J_UK.
    #[test]
    fn theorem3_second_identity(objs in cluster(2, 1, 10)) {
        let stats = ClusterStats::from_members(objs.iter());
        let var: f64 = objs.iter().map(|o| o.total_variance()).sum();
        let want = var / objs.len() as f64 + stats.j_uk();
        prop_assert!((stats.j() - want).abs() <= 1e-6 * (1.0 + want.abs()));
    }

    /// Theorem 2: U-centroid variance = |C|^-2 Σ σ².
    #[test]
    fn theorem2_variance(objs in cluster(4, 1, 10)) {
        let refs: Vec<&UncertainObject> = objs.iter().collect();
        let c = UCentroid::from_cluster(&refs);
        let want: f64 = objs.iter().map(|o| o.total_variance()).sum::<f64>()
            / (objs.len() * objs.len()) as f64;
        prop_assert!((c.variance() - want).abs() <= 1e-6 * (1.0 + want));
    }

    /// Proposition 2: J_MM = J_UK / |C|.
    #[test]
    fn proposition2(objs in cluster(3, 1, 10)) {
        let stats = ClusterStats::from_members(objs.iter());
        prop_assert!(
            (stats.j_mm() - stats.j_uk() / objs.len() as f64).abs()
                <= 1e-9 * (1.0 + stats.j_uk().abs())
        );
    }

    /// Proposition 3: Ĵ = 2 J_UK = 2 |C| J_MM.
    #[test]
    fn proposition3(objs in cluster(3, 1, 10)) {
        let stats = ClusterStats::from_members(objs.iter());
        prop_assert!((stats.j_hat() - 2.0 * stats.j_uk()).abs() <= 1e-9 * (1.0 + stats.j_uk().abs()));
        prop_assert!(
            (stats.j_hat() - 2.0 * objs.len() as f64 * stats.j_mm()).abs()
                <= 1e-6 * (1.0 + stats.j_hat().abs())
        );
    }

    /// Corollary 1: O(m) add/remove equals rebuilding from scratch.
    #[test]
    fn corollary1(objs in cluster(3, 2, 10)) {
        let (head, tail) = objs.split_at(objs.len() - 1);
        let extra = &tail[0];
        let partial = ClusterStats::from_members(head.iter());
        let full = ClusterStats::from_members(objs.iter());
        prop_assert!(
            (j_after_add(&partial, extra.moments()) - full.j()).abs()
                <= 1e-6 * (1.0 + full.j().abs())
        );
        prop_assert!(
            (j_after_remove(&full, extra.moments()) - partial.j()).abs()
                <= 1e-6 * (1.0 + partial.j().abs())
        );
    }

    /// Lemma 3 as exposed by the distance module: ÊD(o,o') equals the
    /// moment-space form and the mu/variance decomposition.
    #[test]
    fn lemma3_forms_agree(a in uncertain_object(3), b in uncertain_object(3)) {
        let d1 = expected_sq_distance(&a, &b);
        let d2 = expected_sq_distance_from_moments(a.mu(), a.mu2(), b.mu(), b.mu2());
        prop_assert!((d1 - d2).abs() <= 1e-6 * (1.0 + d1.abs()));
        // Eq. (8) consistency: ÊD to a *deterministic* object reduces to ED.
        let det = UncertainObject::deterministic(b.mu());
        let d3 = expected_sq_distance(&a, &det);
        let d4 = expected_sq_distance_to_point(&a, b.mu());
        prop_assert!((d3 - d4).abs() <= 1e-6 * (1.0 + d3.abs()));
    }

    /// Theorem 1 (region): the U-centroid region is the average box, and all
    /// member-average realizations fall inside it for bounded supports.
    #[test]
    fn theorem1_region(objs in cluster(2, 1, 8)) {
        // Restrict to bounded supports: truncate everything to 99% regions.
        let bounded: Vec<UncertainObject> = objs
            .iter()
            .map(|o| UncertainObject::with_coverage(o.pdfs().to_vec(), 0.99))
            .collect();
        let refs: Vec<&UncertainObject> = bounded.iter().collect();
        let c = UCentroid::from_cluster(&refs);
        for j in 0..2 {
            let lo: f64 = refs.iter().map(|o| o.region().side(j).lo).sum::<f64>()
                / refs.len() as f64;
            let hi: f64 = refs.iter().map(|o| o.region().side(j).hi).sum::<f64>()
                / refs.len() as f64;
            prop_assert!((c.region().side(j).lo - lo).abs() < 1e-9);
            prop_assert!((c.region().side(j).hi - hi).abs() < 1e-9);
        }
    }

    /// Propositions 4–5 (behaviourally): UCPC's objective trace is monotone
    /// non-increasing and the algorithm terminates.
    #[test]
    fn proposition4_monotone_descent(objs in cluster(2, 6, 20), k in 2usize..4) {
        prop_assume!(k <= objs.len());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        use rand::SeedableRng;
        let r = Ucpc::default().run(&objs, k, &mut rng).unwrap();
        for w in r.objective_trace.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-6 * (1.0 + w[0].abs()));
        }
        prop_assert!(r.converged || r.iterations == Ucpc::default().max_iters);
    }
}

/// Proposition 1's constructive counterexample, kept exact (non-random):
/// equal J_UK with different cluster variances.
#[test]
fn proposition1_counterexample() {
    let a = [
        UncertainObject::new(vec![UnivariatePdf::normal(0.0, 1.0)]),
        UncertainObject::new(vec![UnivariatePdf::normal(2.0, 1.0)]),
    ];
    let b = [
        UncertainObject::new(vec![UnivariatePdf::normal(1.0, 3.0_f64.sqrt())]),
        UncertainObject::new(vec![UnivariatePdf::normal(1.0, 1.0)]),
    ];
    let sa = ClusterStats::from_members(a.iter());
    let sb = ClusterStats::from_members(b.iter());
    assert!(
        (sa.j_uk() - sb.j_uk()).abs() < 1e-12,
        "equal J_UK by construction"
    );
    let va: f64 = a.iter().map(|o| o.total_variance()).sum();
    let vb: f64 = b.iter().map(|o| o.total_variance()).sum();
    assert!((va - vb).abs() > 1.0, "different cluster variances");
    assert!((sa.j() - sb.j()).abs() > 0.1, "J tells them apart");
}
