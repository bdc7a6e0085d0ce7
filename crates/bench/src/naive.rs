//! The naive per-dimension references for the scalar-aggregate objective
//! kernel of `ucpc_core::objective`.
//!
//! Each function recomputes an objective of a cluster — as it stands, or
//! with one object added or removed (Corollary 1, Eqs. 15–16) — by the
//! original O(m) sweep over the cluster's public per-dimension aggregates
//! ([`ClusterStats::psi`], [`ClusterStats::phi`],
//! [`ClusterStats::mean_sum`]). The engine never calls them: the
//! equivalence tests compare the kernel against them, and the relocation
//! bench times them as the `naive` baseline ([`crate::relocation`]).

use ucpc_core::ClusterStats;
use ucpc_uncertain::Moments;

/// `J(C)` by the per-dimension sweep: `Σ_j ψ_j/|C| + φ_j − s_j²/|C|`.
/// Zero for an empty cluster.
pub fn j_naive(s: &ClusterStats) -> f64 {
    if s.size() == 0 {
        return 0.0;
    }
    let inv = 1.0 / s.size() as f64;
    let mut acc = 0.0;
    for j in 0..s.dims() {
        acc += s.psi()[j] * inv + s.phi()[j] - s.mean_sum()[j] * s.mean_sum()[j] * inv;
    }
    acc
}

/// `J_UK(C)` by the per-dimension sweep: `Σ_j φ_j − s_j²/|C|`. Zero for an
/// empty cluster.
pub fn j_uk_naive(s: &ClusterStats) -> f64 {
    if s.size() == 0 {
        return 0.0;
    }
    let inv = 1.0 / s.size() as f64;
    let mut acc = 0.0;
    for j in 0..s.dims() {
        acc += s.phi()[j] - s.mean_sum()[j] * s.mean_sum()[j] * inv;
    }
    acc
}

/// `J` of the cluster with `o` added, by three per-dimension sweeps
/// (Corollary 1, Eq. 15).
pub fn j_after_add(s: &ClusterStats, o: &Moments) -> f64 {
    debug_assert_eq!(o.dims(), s.dims(), "dimension mismatch");
    let inv = 1.0 / (s.size() + 1) as f64;
    let mut acc = 0.0;
    for j in 0..s.dims() {
        let psi = s.psi()[j] + o.variance()[j];
        let phi = s.phi()[j] + o.mu2()[j];
        let sum = s.mean_sum()[j] + o.mu()[j];
        acc += psi * inv + phi - sum * sum * inv;
    }
    acc
}

/// `J` of the cluster with member `o` removed (Corollary 1, Eq. 16). Zero
/// if the cluster would become empty.
pub fn j_after_remove(s: &ClusterStats, o: &Moments) -> f64 {
    debug_assert_eq!(o.dims(), s.dims(), "dimension mismatch");
    assert!(s.size() > 0, "cannot remove from an empty cluster");
    if s.size() == 1 {
        return 0.0;
    }
    let inv = 1.0 / (s.size() - 1) as f64;
    let mut acc = 0.0;
    for j in 0..s.dims() {
        let psi = s.psi()[j] - o.variance()[j];
        let phi = s.phi()[j] - o.mu2()[j];
        let sum = s.mean_sum()[j] - o.mu()[j];
        acc += psi * inv + phi - sum * sum * inv;
    }
    acc
}

/// `J_UK` of the cluster with `o` added (the UK-means analogue of
/// Corollary 1).
pub fn j_uk_after_add(s: &ClusterStats, o: &Moments) -> f64 {
    debug_assert_eq!(o.dims(), s.dims(), "dimension mismatch");
    let inv = 1.0 / (s.size() + 1) as f64;
    let mut acc = 0.0;
    for j in 0..s.dims() {
        let phi = s.phi()[j] + o.mu2()[j];
        let sum = s.mean_sum()[j] + o.mu()[j];
        acc += phi - sum * sum * inv;
    }
    acc
}

/// `J_UK` of the cluster with member `o` removed. Zero if the cluster would
/// become empty.
pub fn j_uk_after_remove(s: &ClusterStats, o: &Moments) -> f64 {
    debug_assert_eq!(o.dims(), s.dims(), "dimension mismatch");
    assert!(s.size() > 0, "cannot remove from an empty cluster");
    if s.size() == 1 {
        return 0.0;
    }
    let inv = 1.0 / (s.size() - 1) as f64;
    let mut acc = 0.0;
    for j in 0..s.dims() {
        let phi = s.phi()[j] - o.mu2()[j];
        let sum = s.mean_sum()[j] - o.mu()[j];
        acc += phi - sum * sum * inv;
    }
    acc
}

/// `J_MM` of the cluster with `o` added (Proposition 2: `J_UK/|C|`).
pub fn j_mm_after_add(s: &ClusterStats, o: &Moments) -> f64 {
    j_uk_after_add(s, o) / (s.size() + 1) as f64
}

/// `J_MM` of the cluster with member `o` removed. Zero if the cluster would
/// become empty.
pub fn j_mm_after_remove(s: &ClusterStats, o: &Moments) -> f64 {
    if s.size() <= 1 {
        return 0.0;
    }
    j_uk_after_remove(s, o) / (s.size() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucpc_uncertain::{UncertainObject, UnivariatePdf};

    fn objects() -> Vec<UncertainObject> {
        vec![
            UncertainObject::new(vec![
                UnivariatePdf::normal(0.0, 1.0),
                UnivariatePdf::uniform_centered(2.0, 1.0),
            ]),
            UncertainObject::new(vec![
                UnivariatePdf::normal(3.0, 0.5),
                UnivariatePdf::uniform_centered(-1.0, 2.0),
            ]),
            UncertainObject::new(vec![
                UnivariatePdf::normal(-2.0, 2.0),
                UnivariatePdf::uniform_centered(0.5, 0.5),
            ]),
            UncertainObject::new(vec![
                UnivariatePdf::exponential_with_mean(1.0, 2.0),
                UnivariatePdf::normal(4.0, 0.25),
            ]),
        ]
    }

    #[test]
    fn naive_objectives_match_the_scalar_aggregates() {
        let objs = objects();
        let stats = ClusterStats::from_members(objs.iter());
        assert!((j_naive(&stats) - stats.j()).abs() < 1e-9);
        assert!((j_uk_naive(&stats) - stats.j_uk()).abs() < 1e-9);
        let empty = ClusterStats::empty(2);
        assert_eq!(j_naive(&empty), 0.0);
        assert_eq!(j_uk_naive(&empty), 0.0);
    }

    #[test]
    fn corollary_1_add_matches_rebuild() {
        let objs = objects();
        let stats = ClusterStats::from_members(objs[..3].iter());
        let predicted = j_after_add(&stats, objs[3].moments());
        let rebuilt = ClusterStats::from_members(objs.iter()).j();
        assert!(
            (predicted - rebuilt).abs() < 1e-9,
            "Corollary 1 (add): {predicted} vs {rebuilt}"
        );
    }

    #[test]
    fn corollary_1_remove_matches_rebuild() {
        let objs = objects();
        let stats = ClusterStats::from_members(objs.iter());
        let predicted = j_after_remove(&stats, objs[1].moments());
        let rebuilt = ClusterStats::from_members(
            objs.iter()
                .enumerate()
                .filter(|&(i, _)| i != 1)
                .map(|(_, o)| o),
        )
        .j();
        assert!(
            (predicted - rebuilt).abs() < 1e-9,
            "Corollary 1 (remove): {predicted} vs {rebuilt}"
        );
    }

    #[test]
    fn incremental_juk_and_jmm_match_rebuild() {
        let objs = objects();
        let partial = ClusterStats::from_members(objs[..3].iter());
        let full = ClusterStats::from_members(objs.iter());
        let o = objs[3].moments();
        assert!((j_uk_after_add(&partial, o) - full.j_uk()).abs() < 1e-9);
        assert!((j_mm_after_add(&partial, o) - full.j_mm()).abs() < 1e-9);
        assert!((j_uk_after_remove(&full, o) - partial.j_uk()).abs() < 1e-9);
        assert!((j_mm_after_remove(&full, o) - partial.j_mm()).abs() < 1e-9);
    }

    #[test]
    fn negative_mean_sums_are_handled() {
        // The published Corollary-1 update uses sqrt(Υ), undefined for
        // negative sums; storing the raw sum must make this exact.
        let objs = [
            UncertainObject::new(vec![UnivariatePdf::normal(-5.0, 1.0)]),
            UncertainObject::new(vec![UnivariatePdf::normal(-3.0, 0.5)]),
        ];
        let stats = ClusterStats::from_members(objs.iter());
        assert!(stats.mean_sum()[0] < 0.0);
        let extra = UncertainObject::new(vec![UnivariatePdf::normal(-1.0, 0.2)]);
        let predicted = j_after_add(&stats, extra.moments());
        let rebuilt = ClusterStats::from_members(objs.iter().chain(std::iter::once(&extra))).j();
        assert!((predicted - rebuilt).abs() < 1e-9);
    }

    #[test]
    fn removing_the_last_member_leaves_zero() {
        let objs = objects();
        let mut stats = ClusterStats::empty(2);
        stats.add(objs[0].moments());
        let o = objs[0].moments();
        assert_eq!(j_after_remove(&stats, o), 0.0);
        assert_eq!(j_uk_after_remove(&stats, o), 0.0);
        assert_eq!(j_mm_after_remove(&stats, o), 0.0);
    }
}
