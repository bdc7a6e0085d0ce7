//! Shared streaming-churn workload: `IncrementalUcpc` under interleaved
//! insert/remove/stabilize traffic, measured with both pruning
//! configurations.
//!
//! The churn loop models the moving-objects deployment: a settled live
//! partition, a stream of departures and arrivals (each arrival placed by
//! the O(k·m) Corollary-1 scan, each departure an O(m) retraction), and a
//! periodic stabilization sweep. Edits take the plain fold, and the next
//! pruned sweep charges each cluster's net change when it first reads a
//! cached bound, so it keeps the cached bounds (surgical invalidation — see
//! `ucpc_core::pruning`). Labels are asserted byte-identical across both
//! configurations on every repetition, so the comparison doubles as an
//! end-to-end exactness check.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use ucpc_core::incremental::{IncrementalUcpc, ObjectHandle};
use ucpc_core::pruning::{PruneCounters, PruningConfig};
use ucpc_uncertain::{UncertainObject, UnivariatePdf};

use crate::relocation::Shape;

/// Churn-loop parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSpec {
    /// Remove-then-insert pairs in the measured window.
    pub ops: usize,
    /// A stabilization sweep runs every `stabilize_every` churn pairs.
    pub stabilize_every: usize,
    /// Relocation passes per stabilization sweep.
    pub passes: usize,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        Self {
            ops: 1_000,
            stabilize_every: 25,
            passes: 2,
        }
    }
}

/// A ready-to-churn streaming workload: the initial window, the arrival
/// stream, and the grid shape it models.
pub struct StreamingWorkload {
    /// Objects inserted before the measured window (the settled partition).
    pub initial: Vec<UncertainObject>,
    /// Arrivals consumed by the churn loop, in order.
    pub replacements: Vec<UncertainObject>,
    /// The modeled shape (`n` = window size, `m`, `k`).
    pub shape: Shape,
    /// The churn-loop parameters.
    pub spec: ChurnSpec,
}

/// Builds a seeded clustered (Gaussian-blob) streaming workload: arrivals
/// are drawn from the same blob geometry as the initial window, so the
/// stream keeps the partition clusterable — the regime where stabilization
/// sweeps converge fast and cached bounds have margins worth keeping.
pub fn streaming_workload(shape: Shape, spec: ChurnSpec, seed: u64) -> StreamingWorkload {
    let Shape { n, m, k } = shape;
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect())
        .collect();
    let draw = |i: usize, rng: &mut StdRng| {
        let c = &centers[i % k];
        UncertainObject::new(
            (0..m)
                .map(|j| {
                    UnivariatePdf::normal(c[j] + rng.gen_range(-1.5..1.5), rng.gen_range(0.1..0.6))
                })
                .collect(),
        )
    };
    let initial: Vec<UncertainObject> = (0..n).map(|i| draw(i, &mut rng)).collect();
    let replacements: Vec<UncertainObject> = (0..spec.ops).map(|i| draw(i, &mut rng)).collect();
    StreamingWorkload {
        initial,
        replacements,
        shape,
        spec,
    }
}

/// Outcome of one churn run: the final partition fingerprint plus the
/// pruning counters accumulated inside the measured window.
pub struct ChurnOutcome {
    /// Live labels after the final sweep, in insertion order.
    pub labels: Vec<(ObjectHandle, usize)>,
    /// Final objective.
    pub objective: f64,
    /// Pruning counters accumulated by the churn window's sweeps.
    pub counters: PruneCounters,
}

/// Runs one full churn cycle (setup + measured window) with the given
/// pruning configuration; returns the outcome. The setup phase — initial
/// insertion and a settling stabilization — is identical across
/// configurations, so outcomes are directly comparable.
pub fn churn_once(w: &StreamingWorkload, pruning: PruningConfig) -> ChurnOutcome {
    let mut live =
        IncrementalUcpc::new(w.shape.m, w.shape.k).expect("valid streaming configuration");
    live.set_pruning(pruning);
    let mut ids: Vec<ObjectHandle> = w
        .initial
        .iter()
        .map(|o| live.insert(o).expect("insert"))
        .collect();
    live.stabilize(5);

    let before = live.pruning_counters();
    for (op, arrival) in w.replacements.iter().enumerate() {
        // FIFO eviction: the op-th oldest handle departs, its replacement
        // arrives (recycling the victim's slot under a fresh generation).
        let victim = ids[op];
        live.remove(victim).expect("victim handle must be live");
        ids.push(live.insert(arrival).expect("insert"));
        if (op + 1) % w.spec.stabilize_every == 0 {
            live.stabilize(w.spec.passes);
        }
    }
    live.stabilize(w.spec.passes);

    let after = live.pruning_counters();
    ChurnOutcome {
        labels: live.live_labels(),
        objective: live.objective(),
        counters: PruneCounters {
            skips: after.skips - before.skips,
            confirms: after.confirms - before.confirms,
            full_scans: after.full_scans - before.full_scans,
        },
    }
}

/// One row of the streaming comparison grid.
#[derive(Debug, Clone)]
pub struct StreamingRow {
    /// The shape measured.
    pub shape: Shape,
    /// Pruning configuration name (`"off"` or `"bounds"`).
    pub pruning: &'static str,
    /// Median wall time of the measured churn window.
    pub churn_ns: u128,
    /// Pruning counters accumulated inside the window (zero when off).
    pub counters: PruneCounters,
}

/// Runs the churn cycle for both pruning configurations, `reps`
/// repetitions each, reporting median wall times of the measured window.
/// Asserts — on every repetition — that all configurations produce
/// byte-identical live labels and bit-identical objectives: the benchmark
/// doubles as an end-to-end streaming exactness check.
pub fn streaming_comparison(
    shape: Shape,
    spec: ChurnSpec,
    seed: u64,
    reps: usize,
) -> Vec<StreamingRow> {
    let w = streaming_workload(shape, spec, seed);
    let mut reference: Option<(Vec<(ObjectHandle, usize)>, u64)> = None;
    let mut rows = Vec::new();
    for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
        let mut ns = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            let t = Instant::now();
            let outcome = churn_once(&w, pruning);
            ns.push(t.elapsed().as_nanos());
            match &reference {
                Some((labels, obj_bits)) => {
                    assert_eq!(
                        labels, &outcome.labels,
                        "streaming labels diverged: {pruning:?}"
                    );
                    assert_eq!(
                        *obj_bits,
                        outcome.objective.to_bits(),
                        "streaming objective bits diverged: {pruning:?}"
                    );
                }
                None => reference = Some((outcome.labels.clone(), outcome.objective.to_bits())),
            }
            last = Some(outcome);
        }
        ns.sort_unstable();
        rows.push(StreamingRow {
            shape,
            pruning: if pruning.is_enabled() {
                "bounds"
            } else {
                "off"
            },
            churn_ns: ns[ns.len() / 2],
            counters: last.expect("reps >= 1").counters,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_comparison_is_exact_across_configurations() {
        let shape = Shape { n: 300, m: 8, k: 4 };
        let spec = ChurnSpec {
            ops: 60,
            stabilize_every: 10,
            passes: 2,
        };
        // Label identity across pruning configurations asserted inside.
        let rows = streaming_comparison(shape, spec, 11, 2);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.churn_ns > 0));
        // Pruned-off rows never touch the counters.
        assert!(rows
            .iter()
            .filter(|r| r.pruning == "off")
            .all(|r| r.counters.decisions() == 0));
    }

    #[test]
    fn surgical_invalidation_beats_epoch_bumps_on_hit_rate() {
        let shape = Shape {
            n: 400,
            m: 16,
            k: 5,
        };
        let spec = ChurnSpec {
            ops: 80,
            stabilize_every: 10,
            passes: 2,
        };
        let w = streaming_workload(shape, spec, 23);
        let charged = churn_once(&w, PruningConfig::Bounds);
        // The same churn with the whole cache dropped (a pruner retire)
        // before every sweep: what an engine that cannot bound its edits
        // must do.
        let mut live = IncrementalUcpc::new(shape.m, shape.k).unwrap();
        live.set_pruning(PruningConfig::Bounds);
        let mut ids: Vec<ObjectHandle> =
            w.initial.iter().map(|o| live.insert(o).unwrap()).collect();
        live.stabilize(5);
        let before = live.pruning_counters();
        for (op, arrival) in w.replacements.iter().enumerate() {
            live.remove(ids[op]).unwrap();
            ids.push(live.insert(arrival).unwrap());
            if (op + 1) % spec.stabilize_every == 0 {
                live.set_pruning(PruningConfig::Bounds);
                live.stabilize(spec.passes);
            }
        }
        live.set_pruning(PruningConfig::Bounds);
        live.stabilize(spec.passes);
        assert_eq!(live.live_labels(), charged.labels);
        let after = live.pruning_counters();
        let bumped = PruneCounters {
            skips: after.skips - before.skips,
            confirms: after.confirms - before.confirms,
            full_scans: after.full_scans - before.full_scans,
        };
        assert!(
            charged.counters.skip_rate() > bumped.skip_rate(),
            "charged skip-rate {} must beat epoch bumps {}",
            charged.counters.skip_rate(),
            bumped.skip_rate()
        );
    }
}
