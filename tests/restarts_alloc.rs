//! Allocation-size gate for unpruned `BestOfRestarts`.
//!
//! The prune cache holds `n·3(k+1)` drift-snapshot `f64`s — at n = 100k,
//! k = 2000 that is ~4.8 GB per worker — and an unpruned search never reads
//! it. This binary pins, with a counting global allocator, that an unpruned
//! multi-restart run never makes an allocation of cache size. It holds
//! exactly one test so no concurrently running test can pollute the
//! counter (integration-test files compile to separate processes).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ucpc::core::restarts::BestOfRestarts;
use ucpc::core::{PruningConfig, Ucpc};
use ucpc::uncertain::{UncertainObject, UnivariatePdf};

/// System allocator recording the largest single request.
struct MaxAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for MaxAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: MaxAlloc = MaxAlloc;

#[test]
fn unpruned_restarts_never_allocate_a_prune_cache() {
    let (n, m, k) = (2000usize, 2usize, 100usize);
    let mut rng = StdRng::seed_from_u64(5);
    let data: Vec<UncertainObject> = (0..n)
        .map(|_| {
            UncertainObject::new(
                (0..m)
                    .map(|_| UnivariatePdf::normal(rng.gen_range(-50.0..50.0), 0.5))
                    .collect(),
            )
        })
        .collect();
    // Both the serial and the work-stealing restart loops.
    for threads in [1, 2] {
        let runner = BestOfRestarts {
            algorithm: Ucpc {
                max_iters: 2,
                pruning: PruningConfig::Off,
                ..Default::default()
            },
            restarts: 2,
            threads,
        };
        LARGEST.store(0, Ordering::Relaxed);
        let result = runner.run(&data, k, &mut StdRng::seed_from_u64(7)).unwrap();
        let largest = LARGEST.load(Ordering::Relaxed);
        assert_eq!(result.objectives.len(), 2);
        let cache_bytes = n * 3 * (k + 1) * std::mem::size_of::<f64>();
        assert!(
            largest < cache_bytes,
            "an unpruned run ({threads} threads) allocated {largest} bytes at once; \
             a prune cache is {cache_bytes}"
        );
    }
}
