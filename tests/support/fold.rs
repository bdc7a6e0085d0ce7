//! A per-dimension reference fold of `ClusterStats`, written only against
//! the public API.
//!
//! [`RefFold`] restates Corollary 1's add/remove updates the plainest way:
//! one indexed loop over the dimensions, the `⟨s, mu(o)⟩` cross term from
//! the same dispatched `dot` (before an add, after a remove), and the
//! drift-bound accumulators of `ucpc_core::pruning` written out term by
//! term. Every row element is one IEEE add or subtract in the same order as
//! the engine's, so the engine's statistics must equal it bit for bit,
//! however the engine's row passes are vectorized.

use ucpc_core::pruning::ClusterDrift;
use ucpc_uncertain::arena::{dot, MomentView};

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
    pub drift: ClusterDrift,
}

/// `T(C) = (Ψ_tot − S₂) / (|C| (|C|+1))`, zero for an empty cluster.
fn t_term(size: usize, a: f64) -> f64 {
    if size == 0 {
        0.0
    } else {
        a / (size as f64 * (size + 1) as f64)
    }
}

/// `U(C) = (Ψ_tot − S₂) / (|C| (|C|−1))`, for `size >= 2`.
fn u_term(size: usize, a: f64) -> f64 {
    a / (size as f64 * (size - 1) as f64)
}

/// `‖mu(o)·scale − s‖` through the scalars, clamped at zero.
fn displacement(scale: f64, sum_mu_sq: f64, cross: f64, s_sq: f64) -> f64 {
    (scale * scale * sum_mu_sq - 2.0 * scale * cross + s_sq)
        .max(0.0)
        .sqrt()
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
            drift: ClusterDrift::default(),
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

    /// Adds `v`; returns `⟨s_pre, mu⟩`.
    pub fn add(&mut self, v: &MomentView<'_>) -> f64 {
        let cross = dot(&self.mean_sum, v.mu);
        for j in 0..self.psi.len() {
            self.psi[j] += v.var[j];
            self.phi[j] += v.mu2[j];
            self.mean_sum[j] += v.mu[j];
        }
        self.psi_tot += v.sum_var;
        self.phi_tot += v.sum_mu2;
        self.s_sq_tot += 2.0 * cross + v.sum_mu_sq;
        self.size += 1;
        cross
    }

    /// Removes the member `v`; returns `⟨s_post, mu⟩`.
    pub fn remove(&mut self, v: &MomentView<'_>) -> f64 {
        assert!(self.size > 0, "reference: remove from an empty cluster");
        for j in 0..self.psi.len() {
            self.psi[j] -= v.var[j];
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
        cross
    }

    /// [`Self::add`] accumulating drift; `true` on a small transition.
    pub fn add_tracked(&mut self, v: &MomentView<'_>) -> bool {
        let n = self.size;
        let a_pre = self.psi_tot - self.s_sq_tot;
        let s_sq_pre = self.s_sq_tot;
        let cross = self.add(v);
        let a_post = self.psi_tot - self.s_sq_tot;
        let w = |scale: f64| displacement(scale, v.sum_mu_sq, cross, s_sq_pre);
        let d = &mut self.drift;
        let (inv_pre, inv_post) = (1.0 / (n + 1) as f64, 1.0 / (n + 2) as f64);
        d.add_const += (t_term(n + 1, a_post) - t_term(n, a_pre)).abs();
        d.add_size += inv_pre - inv_post;
        d.add_mean += w((n + 1) as f64) * (inv_pre * inv_post);
        if n < 2 {
            return true;
        }
        let (rinv_pre, rinv_post) = (1.0 / (n - 1) as f64, 1.0 / n as f64);
        d.rem_const += (u_term(n + 1, a_post) - u_term(n, a_pre)).abs();
        d.rem_size += rinv_pre - rinv_post;
        d.rem_mean += w((n - 1) as f64) * (rinv_pre * rinv_post);
        false
    }

    /// [`Self::remove`] accumulating drift; `true` on a small transition.
    pub fn remove_tracked(&mut self, v: &MomentView<'_>) -> bool {
        let n = self.size;
        let a_pre = self.psi_tot - self.s_sq_tot;
        let s_sq_pre = self.s_sq_tot;
        let cross = self.remove(v) + v.sum_mu_sq;
        let a_post = self.psi_tot - self.s_sq_tot;
        let w = |scale: f64| displacement(scale, v.sum_mu_sq, cross, s_sq_pre);
        let d = &mut self.drift;
        let (inv_pre, inv_post) = (1.0 / (n + 1) as f64, 1.0 / n as f64);
        d.add_const += (t_term(n - 1, a_post) - t_term(n, a_pre)).abs();
        d.add_size += inv_post - inv_pre;
        d.add_mean += w((n + 1) as f64) * (inv_pre * inv_post);
        if n < 3 {
            return true;
        }
        let (rinv_pre, rinv_post) = (1.0 / (n - 1) as f64, 1.0 / (n - 2) as f64);
        d.rem_const += (u_term(n - 1, a_post) - u_term(n, a_pre)).abs();
        d.rem_size += rinv_post - rinv_pre;
        d.rem_mean += w((n - 1) as f64) * (rinv_pre * rinv_post);
        false
    }
}
