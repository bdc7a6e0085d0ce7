//! Zero-allocation and flat-memory gate for the streaming path.
//!
//! `IncrementalUcpc` promises that steady-state churn —
//! insert-after-remove — touches the allocator **zero** times: the freed
//! moment row is recycled in place (the engine's free list), the generation-stamped handle scheme recycles the label-map slot
//! with it, the placement scan and the statistic updates run
//! entirely on borrowed views and stack scalars, and no `Moments` is ever
//! cloned. With slot recycling, **no reservation is needed**: no
//! handle-indexed structure grows at all under steady churn (the slot
//! high-water mark is asserted flat below). This binary pins that promise
//! with a counting global allocator; it holds exactly one test so no
//! concurrently running test can pollute the counter (integration-test
//! files compile to separate processes).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use ucpc::core::incremental::{IncrementalUcpc, ObjectHandle};
use ucpc::core::PruningConfig;
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
fn steady_state_insert_after_remove_allocates_nothing() {
    let m = 16;
    let k = 4;
    let n = 200;
    let churn = 400;

    // All stream payloads are materialized before the measured window; the
    // driver only ever borrows them. The first n seed the window, the rest
    // are the churn arrivals.
    let mk = |i: usize| {
        UncertainObject::new(
            (0..m)
                .map(|j| UnivariatePdf::normal(((i * m + j) % 37) as f64 * 0.5 - 9.0, 0.2))
                .collect(),
        )
    };
    let objects: Vec<UncertainObject> = (0..n + churn).map(mk).collect();

    let mut live = IncrementalUcpc::new(m, k).unwrap();
    live.set_pruning(PruningConfig::Off);
    // Each live handle rides with the index of its payload in `objects`,
    // for the from-scratch rebuild below (slots are recycled, so a slot is
    // not a payload identity).
    let mut ids: Vec<(ObjectHandle, usize)> = objects[..n]
        .iter()
        .enumerate()
        .map(|(i, o)| (live.insert(o).unwrap(), i))
        .collect();

    // One warm-up edit pays the engine free list's first capacity growth.
    // From then on steady-state churn is allocation-free with no
    // reservation at all: slot recycling means no handle-indexed map ever
    // grows, so there is nothing to reserve for.
    let (h0, i0) = ids.remove(0);
    live.remove(h0).expect("warm-up victim is live");
    ids.push((live.insert(&objects[i0]).unwrap(), i0));

    let high_water = live.slot_rows();
    assert_eq!(high_water, n, "slot high-water mark is the live window");

    // The allocator counter is process-global, so the libtest harness
    // thread can race a handful of its own allocations into the measured
    // window. A genuinely per-operation allocation would show up on every
    // attempt (>= churn calls each time), so observing a single
    // zero-allocation churn run pins the contract; retry a few times to
    // shake off harness noise. State persists across attempts.
    let per_attempt = churn / 5;
    let mut cleanest = usize::MAX;
    for attempt in 0..5 {
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        for step in 0..per_attempt {
            let (victim, _) = ids.remove(0);
            live.remove(victim).expect("victim handle must be live");
            let idx = n + attempt * per_attempt + step;
            ids.push((live.insert(&objects[idx]).unwrap(), idx));
        }
        let during = ALLOC_CALLS.load(Ordering::Relaxed) - before;
        cleanest = cleanest.min(during);
        if cleanest == 0 {
            break;
        }
    }
    assert_eq!(
        cleanest, 0,
        "steady-state insert-after-remove hit the allocator on every \
         attempt ({cleanest} calls at best over {per_attempt} ops)"
    );

    assert_eq!(live.len(), n);
    // Flat memory: hundreds of handles churned through, yet every
    // handle-indexed structure is still sized for the live window.
    assert_eq!(
        live.slot_rows(),
        high_water,
        "handle-indexed state must not grow under steady churn"
    );
    assert_eq!(live.pruner().cache_entries(), 0, "no pruned pass ran");

    // The churned partition is still exact: every live handle resolves and
    // the objective matches a from-scratch statistics rebuild.
    let rebuilt: f64 = {
        use ucpc::core::objective::ClusterStats;
        let by_handle: HashMap<ObjectHandle, usize> = ids.iter().copied().collect();
        let mut stats = vec![ClusterStats::empty(m); k];
        for (h, c) in live.live_labels() {
            let o = &objects[by_handle[&h]];
            stats[c].add(o.moments());
        }
        stats.iter().map(ClusterStats::j).sum()
    };
    assert!((live.objective() - rebuilt).abs() <= 1e-7 * (1.0 + rebuilt.abs()));
}
