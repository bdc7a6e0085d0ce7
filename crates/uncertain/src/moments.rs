//! First- and second-order moment vectors of uncertain objects (Eqs. 2–6).
//!
//! Every fast algorithm in the paper — UCPC, UK-means, MMVar, UK-medoids'
//! linkage — consumes uncertain objects exclusively through the per-dimension
//! moments `mu_j`, `(mu_2)_j`, `(sigma^2)_j`. [`Moments`] precomputes and
//! stores them once per object (Line 1 of Algorithm 1), so that the clustering
//! loops never touch a pdf again.

use crate::arena::{fold_row, variance, MomentView};
use serde::{Deserialize, Serialize};

/// Per-dimension expected value, second-order moment and variance of an
/// uncertain object, plus the aggregated "global" variance of Eq. (6) and the
/// scalar aggregates consumed by the delta-`J` kernel
/// (see [`crate::arena`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Moments {
    mu: Box<[f64]>,
    mu2: Box<[f64]>,
    var: Box<[f64]>,
    total_var: f64,
    sum_mu_sq: f64,
    sum_mu2: f64,
    norm_mu: f64,
}

impl Moments {
    /// Builds moments from the per-dimension expected values and second-order
    /// moments; variances follow from Eq. (5), `sigma^2_j = (mu_2)_j - mu_j^2`,
    /// through [`crate::arena::variance`].
    ///
    /// Tiny negative variances caused by floating-point cancellation are
    /// clamped to zero so degenerate (point-mass) dimensions are exact. The
    /// scalar aggregates come from the arena's one row fold, so they are
    /// the bits every arena write path stores.
    pub fn from_mu_mu2(mu: Vec<f64>, mu2: Vec<f64>) -> Self {
        assert_eq!(mu.len(), mu2.len(), "moment vectors must have equal length");
        let var: Box<[f64]> = mu
            .iter()
            .zip(&mu2)
            .map(|(&m, &m2)| variance(m, m2))
            .collect();
        let (sum_mu_sq, sum_mu2, total_var) = fold_row(mu.len(), |j| (mu[j], mu2[j]), |_, _, _| {});
        Self {
            mu: mu.into(),
            mu2: mu2.into(),
            var,
            total_var,
            sum_mu_sq,
            sum_mu2,
            norm_mu: sum_mu_sq.sqrt(),
        }
    }

    /// Moments of a deterministic point (`sigma^2 = 0` everywhere).
    pub fn of_point(x: &[f64]) -> Self {
        Self::from_mu_mu2(x.to_vec(), x.iter().map(|&v| v * v).collect())
    }

    /// Empirical moments of a sample set (rows are `m`-dimensional samples).
    pub fn from_samples(samples: &[Vec<f64>]) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        let m = samples[0].len();
        let inv = 1.0 / samples.len() as f64;
        let mut mu = vec![0.0; m];
        let mut mu2 = vec![0.0; m];
        for s in samples {
            assert_eq!(s.len(), m, "ragged sample matrix");
            for j in 0..m {
                mu[j] += s[j];
                mu2[j] += s[j] * s[j];
            }
        }
        for j in 0..m {
            mu[j] *= inv;
            mu2[j] *= inv;
        }
        Self::from_mu_mu2(mu, mu2)
    }

    /// Number of dimensions `m`.
    pub fn dims(&self) -> usize {
        self.mu.len()
    }

    /// Expected-value vector (Eq. 2).
    pub fn mu(&self) -> &[f64] {
        &self.mu
    }

    /// Second-order moment vector (Eq. 2).
    pub fn mu2(&self) -> &[f64] {
        &self.mu2
    }

    /// Variance vector (Eq. 3).
    pub fn variance(&self) -> &[f64] {
        &self.var
    }

    /// "Global" scalar variance, Eq. (6): `sigma^2(o) = || sigma^2 vec ||_1`.
    pub fn total_variance(&self) -> f64 {
        self.total_var
    }

    /// `Σ_j mu_j²` — precomputed for the delta-`J` kernel.
    pub fn sum_mu_sq(&self) -> f64 {
        self.sum_mu_sq
    }

    /// `Σ_j (mu_2)_j` — the object's contribution to `Φ_tot`.
    pub fn sum_mu2(&self) -> f64 {
        self.sum_mu2
    }

    /// `‖mu‖ = sqrt(Σ_j mu_j²)` — precomputed for the pruning drift bounds.
    pub fn norm_mu(&self) -> f64 {
        self.norm_mu
    }

    /// Kernel view over these moments (same shape as
    /// [`crate::arena::MomentArena::view`], for callers that hold moments
    /// outside an arena, e.g. streaming insertion). The view carries no
    /// variance row: a fold derives it from `mu` and `mu2` bit for bit as
    /// [`Self::variance`] holds it.
    pub fn view(&self) -> MomentView<'_> {
        MomentView {
            mu: &self.mu,
            mu2: &self.mu2,
            sum_mu_sq: self.sum_mu_sq,
            sum_mu2: self.sum_mu2,
            sum_var: self.total_var,
            norm_mu: self.norm_mu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_moments_have_zero_variance() {
        let m = Moments::of_point(&[1.0, -2.0, 0.5]);
        assert_eq!(m.variance(), &[0.0, 0.0, 0.0]);
        assert_eq!(m.total_variance(), 0.0);
        assert_eq!(m.mu(), &[1.0, -2.0, 0.5]);
    }

    #[test]
    fn variance_is_mu2_minus_mu_squared() {
        let m = Moments::from_mu_mu2(vec![2.0], vec![6.0]);
        assert_eq!(m.variance(), &[2.0]);
        assert_eq!(m.total_variance(), 2.0);
    }

    #[test]
    fn negative_rounding_is_clamped() {
        let m = Moments::from_mu_mu2(vec![1.0], vec![1.0 - 1e-16]);
        assert_eq!(m.variance(), &[0.0]);
    }

    #[test]
    fn empirical_moments() {
        let samples = vec![vec![0.0, 1.0], vec![2.0, 1.0]];
        let m = Moments::from_samples(&samples);
        assert_eq!(m.mu(), &[1.0, 1.0]);
        assert_eq!(m.mu2(), &[2.0, 1.0]);
        assert_eq!(m.variance(), &[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_moments_panic() {
        let _ = Moments::from_mu_mu2(vec![1.0], vec![1.0, 2.0]);
    }
}
