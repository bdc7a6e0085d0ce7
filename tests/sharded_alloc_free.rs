//! Zero-allocation gate for the sharded engine's steady-state rounds.
//!
//! A replace on `ShardedUcpc` is two protocol rounds, an insert and a
//! remove. The coordinator seals each round once into its catch-up log's
//! frame buffer, the messages carry sequence numbers only and ride in a
//! reused in-flight buffer, and every participant appends the frame
//! verbatim and decodes it into a reused scratch. So steady churn touches
//! the allocator only when an append-only log grows: the catch-up log
//! opens a 64 KiB block, or a shard log's buffer doubles. This binary pins
//! that with a counting global allocator; it holds exactly one test so no
//! concurrently running test can pollute the counter (integration-test
//! files compile to separate processes).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use ucpc::core::ShardedUcpc;
use ucpc::uncertain::{UncertainObject, UnivariatePdf};

/// System allocator with a global counter of alloc/realloc calls.
struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_sharded_replaces_allocate_nothing_per_round() {
    let (m, k, shards) = (16, 8, 2);
    let (window, replaces) = (2_000, 2_000);
    // Room for the growth of the append-only logs only (about 10 catch-up
    // blocks and a few doublings): one allocation per round would be 4,000.
    let budget = 64;

    // Eight blobs; every payload is materialized before the measured
    // window, which only borrows them.
    let mk = |i: usize| {
        let blob = (i % k) as f64 * 10.0;
        UncertainObject::new(
            (0..m)
                .map(|j| UnivariatePdf::normal(blob + ((i * 7 + j * 3) % 11) as f64 * 0.1, 0.2))
                .collect(),
        )
    };
    let objects: Vec<UncertainObject> = (0..window + replaces).map(mk).collect();

    let mut sharded = ShardedUcpc::new(m, k, shards).unwrap();
    let mut live: VecDeque<_> = objects[..window]
        .iter()
        .map(|o| sharded.insert_moments(o.moments()).unwrap())
        .collect();
    sharded.stabilize(2);

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for o in &objects[window..] {
        live.push_back(sharded.insert_moments(o.moments()).unwrap());
        let oldest = live.pop_front().expect("the window never empties");
        sharded.remove(oldest).unwrap();
    }
    let during = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert!(
        during <= budget,
        "{replaces} sharded replaces made {during} allocator calls (budget {budget})"
    );

    assert_eq!(sharded.len(), window);
    assert_eq!(sharded.retries(), 0, "the clean fabric needs no retries");
    for shard in 0..shards {
        let replica = sharded.shard_stats(shard).expect("every shard is up");
        for (a, b) in replica.iter().zip(sharded.cluster_stats()) {
            assert_eq!(a.size(), b.size());
            assert_eq!(a.j().to_bits(), b.j().to_bits(), "shard {shard} diverged");
        }
    }
}
