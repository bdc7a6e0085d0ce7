//! Streaming scenario: maintain a live clustering of moving objects as
//! reports arrive and expire, using the incremental UCPC built on
//! Corollary 1 — no batch re-clustering.
//!
//! A dispatch center tracks delivery scooters across three districts.
//! Position reports stream in (each an uncertain object: a Uniform box grown
//! by the report's staleness); old reports expire. The incremental engine
//! inserts each arrival in O(k·m), removes expirations in O(m), and runs a
//! few relocation passes per tick. The final partition is cross-checked
//! against a batch UCPC run over the same window.
//!
//! Run with: `cargo run --release --example streaming_fleet`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use ucpc::core::incremental::IncrementalUcpc;
use ucpc::core::Ucpc;
use ucpc::uncertain::{UncertainObject, UnivariatePdf};

fn report(rng: &mut StdRng, district: usize) -> UncertainObject {
    let centers = [(1.0, 1.0), (7.0, 2.0), (4.0, 7.0)];
    let (cx, cy) = centers[district];
    let px = cx + rng.gen_range(-0.7..0.7);
    let py = cy + rng.gen_range(-0.7..0.7);
    let staleness = rng.gen_range(0.05..0.5); // km of reachable drift
    UncertainObject::new(vec![
        UnivariatePdf::uniform_centered(px, staleness),
        UnivariatePdf::uniform_centered(py, staleness),
    ])
}

fn main() {
    let mut rng = StdRng::seed_from_u64(4242);
    let k = 3;
    let mut engine = IncrementalUcpc::new(2, k).expect("k > 0");
    let mut window = VecDeque::new(); // (handle, object) FIFO of live reports
    let window_size = 90;

    let ticks = 30;
    let arrivals_per_tick = 12;
    for tick in 0..ticks {
        // New reports arrive round-robin across districts.
        for a in 0..arrivals_per_tick {
            let district = (tick + a) % 3;
            let obj = report(&mut rng, district);
            let id = engine.insert(&obj).expect("2-d object");
            window.push_back((id, obj));
        }
        // Expire the oldest reports beyond the window.
        while window.len() > window_size {
            let (id, _) = window.pop_front().expect("non-empty");
            engine.remove(id).expect("window handles are live");
        }
        // A few relocation passes keep the partition near a local optimum.
        let moved = engine.stabilize(3);
        if tick % 10 == 9 {
            println!(
                "tick {tick:2}: {} live reports, objective {:.2}, sizes {:?}, {} relocations",
                engine.len(),
                engine.objective(),
                engine.sizes(),
                moved
            );
        }
    }

    // Cross-check: batch-cluster the final window.
    let live: Vec<UncertainObject> = window.iter().map(|(_, o)| o.clone()).collect();
    let mut batch_rng = StdRng::seed_from_u64(7);
    let batch = Ucpc::default()
        .run(&live, k, &mut batch_rng)
        .expect("valid input");
    println!(
        "\nbatch re-clustering (UCPC): objective {:.2} vs incremental {:.2}",
        batch.objective,
        engine.objective()
    );
    let gap = (engine.objective() - batch.objective).abs() / batch.objective.max(f64::MIN_POSITIVE);
    println!(
        "relative objective gap: {:.1}% (both are local optima)",
        gap * 100.0
    );
}
