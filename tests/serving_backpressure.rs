//! Backpressure contract of the serving front door: a saturated ingest
//! queue is a *checked*, in-band condition — [`ServingError::QueueFull`] —
//! never an indefinite block and never a silent drop. Shedding is loss-free
//! for everything already admitted: draining the queue and resubmitting the
//! shed arrival leaves the engine byte-identical to a run that was never
//! saturated.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ucpc::core::serving::{ServingConfig, ServingError, ServingResponse, ServingUcpc};
use ucpc::uncertain::{Moments, UncertainObject, UnivariatePdf};

const M: usize = 4;
const K: usize = 2;

fn arrival(rng: &mut StdRng) -> Moments {
    let o = UncertainObject::new(
        (0..M)
            .map(|_| UnivariatePdf::normal(rng.gen_range(-5.0..5.0), rng.gen_range(0.1..0.5)))
            .collect(),
    );
    o.moments().clone()
}

fn config(batch: usize, queue_capacity: usize) -> ServingConfig {
    ServingConfig {
        batch,
        queue_capacity,
        deadline: None,
        stabilize_every: 0,
        stabilize_passes: 2,
        top_k: 2,
        // WAL fields from the environment: the CI `wal` leg reruns this
        // suite with `UCPC_WAL=on` to prove logging changes no behaviour.
        ..ServingConfig::default()
    }
}

fn serving(batch: usize, queue_capacity: usize) -> ServingUcpc {
    ServingUcpc::new(M, K, config(batch, queue_capacity)).unwrap()
}

#[test]
fn saturation_is_a_checked_error_that_drops_nothing() {
    let mut rng = StdRng::seed_from_u64(7);
    let arrivals: Vec<Moments> = (0..5).map(|_| arrival(&mut rng)).collect();

    // Flushes are poll/flush-driven, and this test never polls — so the
    // 4-slot queue saturates on the 5th submission.
    let mut s = serving(4, 4);
    for mo in &arrivals[..4] {
        s.submit_commit(mo).expect("queue has room");
    }
    assert_eq!(s.pending_len(), 4);

    // Every admission path reports saturation as the same checked error —
    // returning immediately (never blocking) with the queue intact.
    let full = ServingError::QueueFull { capacity: 4 };
    assert_eq!(s.submit_commit(&arrivals[4]), Err(full.clone()));
    assert_eq!(s.submit_query(&arrivals[4]), Err(full.clone()));
    assert_eq!(s.submit_stabilize(1), Err(full.clone()));
    assert_eq!(
        s.pending_len(),
        4,
        "a rejected submission must not shed admitted work"
    );

    // Drain: exactly the four admitted arrivals come back, in order.
    assert_eq!(s.flush(), 4);
    let mut committed = 0;
    while let Some((_, resp)) = s.pop_response() {
        assert!(matches!(resp, ServingResponse::Committed { .. }));
        committed += 1;
    }
    assert_eq!(committed, 4, "admitted requests answered exactly once");

    // The freed queue admits the shed arrival.
    s.submit_commit(&arrivals[4])
        .expect("drained queue has room again");
    assert_eq!(s.flush(), 1);
}

#[test]
fn drained_after_shed_state_matches_a_never_saturated_run() {
    let mut rng = StdRng::seed_from_u64(11);
    let arrivals: Vec<Moments> = (0..12).map(|_| arrival(&mut rng)).collect();

    // Saturating run: 4-slot queue, clients retry shed arrivals after a
    // drain, preserving arrival order.
    let mut shed = serving(4, 4);
    let mut shed_full = 0;
    for mo in &arrivals {
        loop {
            match shed.submit_commit(mo) {
                Ok(_) => break,
                Err(ServingError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 4);
                    shed_full += 1;
                    shed.flush();
                }
                Err(e) => panic!("unexpected admission error: {e:?}"),
            }
        }
    }
    shed.flush();
    assert!(shed_full > 0, "the 4-slot queue must have saturated");

    // Reference run: queue wide enough that saturation never happens.
    let mut wide = serving(4, 64);
    for mo in &arrivals {
        wide.submit_commit(mo).expect("wide queue never saturates");
    }
    wide.flush();

    // Both runs answered every arrival once and agree byte-for-byte.
    let drain = |s: &mut ServingUcpc| {
        let mut handles = Vec::new();
        while let Some((_, resp)) = s.pop_response() {
            match resp {
                ServingResponse::Committed { handle, .. } => handles.push(handle),
                other => panic!("unexpected response: {other:?}"),
            }
        }
        handles
    };
    assert_eq!(
        drain(&mut shed),
        drain(&mut wide),
        "handle sequences diverged"
    );
    assert_eq!(shed.engine().live_labels(), wide.engine().live_labels());
    assert_eq!(shed.engine().cluster_stats(), wide.engine().cluster_stats());
    assert_eq!(
        shed.engine().objective().to_bits(),
        wide.engine().objective().to_bits()
    );
}

#[test]
fn dimension_mismatch_does_not_consume_a_queue_slot() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut s = serving(8, 8);
    let bad = UncertainObject::new(vec![UnivariatePdf::normal(0.0, 1.0); M + 1]);
    assert_eq!(
        s.submit_commit(bad.moments()),
        Err(ServingError::DimensionMismatch {
            expected: M,
            found: M + 1
        })
    );
    assert_eq!(s.pending_len(), 0);
    // The staging row pool is intact: a full capacity's worth of good
    // arrivals still admits.
    for _ in 0..8 {
        let mo = arrival(&mut rng);
        s.submit_commit(&mo)
            .expect("rejected arrival must not leak a staging row");
    }
    assert_eq!(s.pending_len(), 8);
}
