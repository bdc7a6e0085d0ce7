//! Serving-grid workload: the batched assignment-serving front door
//! ([`ServingUcpc`]) under an open-loop request stream, measured across
//! micro-batch sizes.
//!
//! The stream models the online deployment the serving layer exists for: a
//! settled live window, then a high-rate arrival stream where most
//! requests are *placement queries* (price an arrival, return the top-k
//! clusters with exact delta-`J` margins, commit nothing) and a fraction
//! are *commits* (place and insert). Every batch size replays the same
//! request stream; because the serving layer's batched pricing is
//! bit-identical to serial execution, the final partition must come out
//! byte-identical at every batch size **and** equal to a serial
//! [`IncrementalUcpc`] replay — asserted on every repetition, so the grid
//! doubles as an end-to-end serving exactness check.
//!
//! Measured per batch size: end-to-end arrivals/sec over the stream, and
//! the p50/p99 *response latency* (submission to answer availability —
//! batching trades queueing latency for pricing throughput, and the grid
//! records both sides of that trade).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use ucpc_core::incremental::IncrementalUcpc;
use ucpc_core::pruning::PruningConfig;
use ucpc_core::serving::{ServingConfig, ServingUcpc};
use ucpc_core::wal::{recover, SharedVecIo, WalFsync};
use ucpc_uncertain::{Moments, UncertainObject, UnivariatePdf};

use crate::relocation::Shape;

/// Serving-stream parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServingSpec {
    /// Requests in the measured stream.
    pub arrivals: usize,
    /// Every `commit_every`-th request commits its arrival; the rest are
    /// placement queries.
    pub commit_every: usize,
    /// Top-k entries requested per answer.
    pub top_k: usize,
}

impl Default for ServingSpec {
    fn default() -> Self {
        Self {
            arrivals: 4_000,
            commit_every: 4,
            top_k: 4,
        }
    }
}

/// A ready-to-serve workload: the settled window and the request stream.
pub struct ServingWorkload {
    /// Objects committed before the measured stream (the settled window).
    pub window: Vec<Moments>,
    /// Arrivals served inside the measured window, in order.
    pub stream: Vec<Moments>,
    /// The modeled shape (`n` = window size, `m`, `k`).
    pub shape: Shape,
    /// The stream parameters.
    pub spec: ServingSpec,
}

/// Builds a seeded clustered (Gaussian-blob) serving workload, same
/// geometry as the streaming-churn workload: arrivals are drawn from the
/// window's blob centers so placements stay meaningful.
pub fn serving_workload(shape: Shape, spec: ServingSpec, seed: u64) -> ServingWorkload {
    let Shape { n, m, k } = shape;
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect())
        .collect();
    let mut draw = |i: usize| -> Moments {
        let c = &centers[i % k];
        UncertainObject::new(
            (0..m)
                .map(|j| {
                    UnivariatePdf::normal(c[j] + rng.gen_range(-1.5..1.5), rng.gen_range(0.1..0.6))
                })
                .collect(),
        )
        .moments()
        .clone()
    };
    let window: Vec<Moments> = (0..n).map(&mut draw).collect();
    let stream: Vec<Moments> = (0..spec.arrivals).map(&mut draw).collect();
    ServingWorkload {
        window,
        stream,
        shape,
        spec,
    }
}

/// Outcome of one serving run: the latency samples, the measured wall
/// time, and the final partition fingerprint for the identity assert.
pub struct ServingOutcome {
    /// Response latency (submit → answer available) per request, ns.
    pub latencies_ns: Vec<u128>,
    /// Wall time of the measured stream, ns.
    pub total_ns: u128,
    /// Live labels after the stream, in insertion order (handles strip to
    /// cluster assignments for cross-config comparison).
    pub labels: Vec<usize>,
    /// Final objective bits.
    pub objective_bits: u64,
}

/// Builds and settles the shared engine under the workload window: every
/// configuration (any batch size, and the serial reference) starts from
/// the identical partition.
fn settled_engine(w: &ServingWorkload) -> IncrementalUcpc {
    let mut engine = IncrementalUcpc::new(w.shape.m, w.shape.k).unwrap();
    engine.set_pruning(PruningConfig::Bounds);
    for mo in &w.window {
        engine.insert_moments(mo).expect("window insert");
    }
    engine.stabilize(5);
    engine
}

/// Runs the request stream through the serving layer at one batch size.
/// With `wal_sink`, every commit is logged through the write-ahead log
/// into the shared sink — the WAL-on leg of [`wal_comparison`].
pub fn serve_once(
    w: &ServingWorkload,
    batch: usize,
    wal_sink: Option<SharedVecIo>,
) -> ServingOutcome {
    let mut serving = ServingUcpc::over(
        settled_engine(w),
        ServingConfig {
            batch,
            // Occupancy never exceeds `batch` in this submit-then-poll open
            // loop, and the queue capacity sizes the staging arena — keeping
            // it tight keeps the priced rows L1-resident at every batch size.
            queue_capacity: batch,
            deadline: None,
            stabilize_every: 0,
            stabilize_passes: 2,
            top_k: w.spec.top_k,
            wal: false,
            wal_fsync: WalFsync::Flush,
        },
    );
    if let Some(sink) = wal_sink {
        serving
            .attach_wal(sink)
            .expect("in-memory sink cannot fault");
    }
    let total = w.stream.len();
    let mut submitted_at: Vec<Instant> = Vec::with_capacity(total);
    let mut latencies_ns: Vec<u128> = vec![0; total];
    let start = Instant::now();
    for (i, mo) in w.stream.iter().enumerate() {
        let ticket = if (i + 1) % w.spec.commit_every == 0 {
            serving.submit_commit(mo)
        } else {
            serving.submit_query(mo)
        }
        .expect("queue sized for the batch");
        debug_assert_eq!(ticket as usize, i);
        // One clock read per request (the submit stamp) plus one per
        // non-empty drain; extra reads here would tax every batch size by a
        // constant and blur the amortization the grid is measuring.
        let now = Instant::now();
        submitted_at.push(now);
        if serving.poll(now) > 0 {
            let drained_at = Instant::now();
            while let Some((t, _)) = serving.pop_response() {
                latencies_ns[t as usize] = drained_at
                    .duration_since(submitted_at[t as usize])
                    .as_nanos();
            }
        }
    }
    serving.flush();
    let drained_at = Instant::now();
    while let Some((t, _)) = serving.pop_response() {
        latencies_ns[t as usize] = drained_at
            .duration_since(submitted_at[t as usize])
            .as_nanos();
    }
    let total_ns = start.elapsed().as_nanos();
    let engine = serving.engine();
    ServingOutcome {
        latencies_ns,
        total_ns,
        labels: engine.live_labels().into_iter().map(|(_, c)| c).collect(),
        objective_bits: engine.objective().to_bits(),
    }
}

/// Replays the stream's commits serially — the reference the serving runs
/// must match byte for byte (queries are read-only and vanish).
pub fn serial_reference(w: &ServingWorkload) -> (Vec<usize>, u64) {
    let mut engine = settled_engine(w);
    for (i, mo) in w.stream.iter().enumerate() {
        if (i + 1) % w.spec.commit_every == 0 {
            engine.insert_moments(mo).expect("commit insert");
        }
    }
    (
        engine.live_labels().into_iter().map(|(_, c)| c).collect(),
        engine.objective().to_bits(),
    )
}

/// One row of the serving grid.
#[derive(Debug, Clone, Copy)]
pub struct ServingRow {
    /// The shape measured.
    pub shape: Shape,
    /// Micro-batch size.
    pub batch: usize,
    /// Median response latency, ns.
    pub p50_ns: u128,
    /// 99th-percentile response latency, ns.
    pub p99_ns: u128,
    /// End-to-end request throughput over the measured stream.
    pub arrivals_per_sec: f64,
}

/// Runs the stream at every batch size, `reps` repetitions each (best
/// throughput, latency percentiles from the matching run), asserting on
/// every repetition that the final partition is byte-identical across
/// batch sizes and equal to the serial reference. Repetitions are
/// interleaved round-robin across batch sizes so frequency scaling or a
/// noisy neighbour taxes every batch size alike instead of whichever ran
/// first.
pub fn serving_comparison(
    shape: Shape,
    spec: ServingSpec,
    seed: u64,
    reps: usize,
    batches: &[usize],
) -> Vec<ServingRow> {
    let w = serving_workload(shape, spec, seed);
    let (ref_labels, ref_bits) = serial_reference(&w);
    let mut bests: Vec<Option<ServingOutcome>> = (0..batches.len()).map(|_| None).collect();
    for _ in 0..reps {
        for (slot, &batch) in batches.iter().enumerate() {
            let outcome = serve_once(&w, batch, None);
            assert_eq!(
                outcome.labels, ref_labels,
                "serving labels diverged from serial at batch {batch}"
            );
            assert_eq!(
                outcome.objective_bits, ref_bits,
                "serving objective bits diverged from serial at batch {batch}"
            );
            if bests[slot]
                .as_ref()
                .is_none_or(|b| outcome.total_ns < b.total_ns)
            {
                bests[slot] = Some(outcome);
            }
        }
    }
    let mut rows = Vec::new();
    for (slot, &batch) in batches.iter().enumerate() {
        let mut best = bests[slot].take().expect("reps >= 1");
        best.latencies_ns.sort_unstable();
        let pct = |p: f64| -> u128 {
            let idx = ((best.latencies_ns.len() as f64 - 1.0) * p).round() as usize;
            best.latencies_ns[idx]
        };
        rows.push(ServingRow {
            shape,
            batch,
            p50_ns: pct(0.50),
            p99_ns: pct(0.99),
            arrivals_per_sec: w.stream.len() as f64 / (best.total_ns as f64 * 1e-9),
        });
    }
    rows
}

/// One row of the WAL-overhead grid: the same stream served with logging
/// off and on, interleaved.
#[derive(Debug, Clone, Copy)]
pub struct WalRow {
    /// The shape measured.
    pub shape: Shape,
    /// Micro-batch size.
    pub batch: usize,
    /// Best throughput with the WAL detached.
    pub off_arrivals_per_sec: f64,
    /// Best throughput logging every commit through the WAL.
    pub on_arrivals_per_sec: f64,
    /// Fractional throughput lost to logging: `(off - on) / off`.
    pub overhead_frac: f64,
}

/// Measures WAL-on vs WAL-off serving throughput at one batch size,
/// `reps` repetitions each, interleaved off/on so ambient noise taxes
/// both legs alike. Asserts on every repetition that both legs end
/// byte-identical to the serial reference, and — once per call — that
/// [`recover`] from (streaming checkpoint of the settled window, the
/// WAL-on leg's log) rebuilds the exact final partition: the grid doubles
/// as an end-to-end durability check.
pub fn wal_comparison(
    shape: Shape,
    spec: ServingSpec,
    seed: u64,
    reps: usize,
    batch: usize,
) -> WalRow {
    let w = serving_workload(shape, spec, seed);
    let (ref_labels, ref_bits) = serial_reference(&w);
    let checkpoint = settled_engine(&w).snapshot();
    let mut best_off: Option<u128> = None;
    let mut best_on: Option<u128> = None;
    let mut log_bytes: Option<Vec<u8>> = None;
    for _ in 0..reps.max(1) {
        for logging in [false, true] {
            let sink = logging.then(SharedVecIo::new);
            let outcome = serve_once(&w, batch, sink.clone());
            assert_eq!(
                outcome.labels, ref_labels,
                "serving labels diverged from serial (wal={logging})"
            );
            assert_eq!(
                outcome.objective_bits, ref_bits,
                "serving objective bits diverged from serial (wal={logging})"
            );
            let best = if logging { &mut best_on } else { &mut best_off };
            if best.is_none_or(|b| outcome.total_ns < b) {
                *best = Some(outcome.total_ns);
            }
            if let Some(sink) = sink {
                log_bytes.get_or_insert_with(|| sink.bytes());
            }
        }
    }
    let rec = recover(&checkpoint, log_bytes.as_deref().unwrap_or(&[]))
        .expect("checkpoint + intact log must recover");
    assert!(rec.damage.is_none(), "uncut log reported damage");
    let rec_labels: Vec<usize> = rec
        .engine
        .live_labels()
        .into_iter()
        .map(|(_, c)| c)
        .collect();
    assert_eq!(rec_labels, ref_labels, "recovered labels diverged");
    assert_eq!(
        rec.engine.objective().to_bits(),
        ref_bits,
        "recovered objective bits diverged"
    );
    let rate = |ns: u128| w.stream.len() as f64 / (ns as f64 * 1e-9);
    let off = rate(best_off.expect("reps >= 1"));
    let on = rate(best_on.expect("reps >= 1"));
    WalRow {
        shape,
        batch,
        off_arrivals_per_sec: off,
        on_arrivals_per_sec: on,
        overhead_frac: (off - on) / off,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_grid_is_exact_across_batch_sizes() {
        let shape = Shape {
            n: 300,
            m: 16,
            k: 4,
        };
        let spec = ServingSpec {
            arrivals: 120,
            commit_every: 3,
            top_k: 4,
        };
        // Byte-identity vs the serial reference asserted inside, at every
        // batch size.
        let rows = serving_comparison(shape, spec, 13, 1, &[1, 7, 32]);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.arrivals_per_sec > 0.0));
        assert!(rows.iter().all(|r| r.p50_ns <= r.p99_ns));
    }

    #[test]
    fn wal_grid_recovers_and_measures_both_legs() {
        let shape = Shape {
            n: 300,
            m: 16,
            k: 4,
        };
        let spec = ServingSpec {
            arrivals: 120,
            commit_every: 3,
            top_k: 4,
        };
        // Serial identity and end-to-end recovery asserted inside.
        let row = wal_comparison(shape, spec, 13, 1, 16);
        assert!(row.off_arrivals_per_sec > 0.0);
        assert!(row.on_arrivals_per_sec > 0.0);
        assert!(row.overhead_frac < 1.0);
    }
}
