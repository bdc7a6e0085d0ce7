//! A per-dimension reference fold of `ClusterStats`, written only against
//! the public API.
//!
//! [`RefFold`] restates Corollary 1's add/remove updates the plainest way:
//! one indexed loop over the dimensions and the `⟨s, mu(o)⟩` cross term
//! from the same dispatched `dot` (before an add, after a remove). Each
//! variance comes from the view's `mu` and `mu2` entries through
//! `arena::variance`, the helper every stored variance was computed with.
//! Every row element is one IEEE add or subtract in the same order as the
//! engine's, so the engine's statistics must equal it bit for bit, however
//! the engine's row passes are vectorized.

use ucpc_uncertain::arena::{dot, variance, MomentView};

/// The reference statistics of one cluster (module docs).
#[derive(Debug, Clone)]
pub struct RefFold {
    pub psi: Vec<f64>,
    pub phi: Vec<f64>,
    pub mean_sum: Vec<f64>,
    pub size: usize,
    psi_tot: f64,
    phi_tot: f64,
    s_sq_tot: f64,
}

impl RefFold {
    /// An empty cluster over `m` dimensions.
    pub fn new(m: usize) -> Self {
        Self {
            psi: vec![0.0; m],
            phi: vec![0.0; m],
            mean_sum: vec![0.0; m],
            size: 0,
            psi_tot: 0.0,
            phi_tot: 0.0,
            s_sq_tot: 0.0,
        }
    }

    /// `J(C) = Ψ_tot/|C| + Φ_tot − S₂/|C|`, zero for an empty cluster.
    pub fn j(&self) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        let inv = 1.0 / self.size as f64;
        self.psi_tot * inv + self.phi_tot - self.s_sq_tot * inv
    }

    /// Adds `v`.
    pub fn add(&mut self, v: &MomentView<'_>) {
        let cross = dot(&self.mean_sum, v.mu);
        for j in 0..self.psi.len() {
            self.psi[j] += variance(v.mu[j], v.mu2[j]);
            self.phi[j] += v.mu2[j];
            self.mean_sum[j] += v.mu[j];
        }
        self.psi_tot += v.sum_var;
        self.phi_tot += v.sum_mu2;
        self.s_sq_tot += 2.0 * cross + v.sum_mu_sq;
        self.size += 1;
    }

    /// Removes the member `v`.
    pub fn remove(&mut self, v: &MomentView<'_>) {
        assert!(self.size > 0, "reference: remove from an empty cluster");
        for j in 0..self.psi.len() {
            self.psi[j] -= variance(v.mu[j], v.mu2[j]);
            self.phi[j] -= v.mu2[j];
            self.mean_sum[j] -= v.mu[j];
        }
        let cross = dot(&self.mean_sum, v.mu);
        self.psi_tot -= v.sum_var;
        self.phi_tot -= v.sum_mu2;
        self.s_sq_tot -= 2.0 * cross + v.sum_mu_sq;
        self.size -= 1;
        if self.size == 0 {
            self.psi_tot = 0.0;
            self.phi_tot = 0.0;
            self.s_sq_tot = 0.0;
        }
    }
}
