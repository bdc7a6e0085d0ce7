//! Work-stealing shard scheduler shared by the parallel drivers.
//!
//! The propose phase of [`crate::parallel::ParallelUcpc`] and the restart
//! loop of [`crate::restarts::BestOfRestarts`] both reduce to the same
//! shape: a fixed list of independent work items (arena shards, restart
//! indices) to be drained by a small pool of workers. Fixed even chunking —
//! one contiguous `n/threads` block per worker — balances perfectly only
//! when every item costs the same; with candidate pruning the
//! per-object cost is wildly skewed (a tier-0 skip is one cache line, a full
//! scan is `k` fused dot products), so a worker whose block happens to hold
//! the converged region finishes early and idles while another grinds
//! through the active region.
//!
//! [`WorkPool`] fixes that with the classic deque discipline: every worker
//! owns a contiguous run of items and drains it **front to back**; when its
//! run is empty it scans the other workers' runs **back to front** and
//! steals the items they have not reached yet. Ownership is transferred by
//! `Option::take` under a per-item mutex, so each item is executed exactly
//! once no matter how many thieves race for it; the mutex doubles as the
//! happens-before edge for the item payload. Claims use `try_lock` — a
//! locked slot is by definition being claimed by someone else, so a thief
//! just moves on. The scan is O(items) per claim, which is irrelevant at
//! the coarse granularity the shard sizing below produces (tens of items).
//!
//! Item order is load-balancing only: the parallel drivers index their
//! results by object/restart, so *which* worker executes an item — and in
//! what order items complete — can never change an outcome. The scheduler
//! determinism tests pin that end to end.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a driver's `threads` field to a concrete worker count: an
/// explicit non-zero value wins; `0` defers to the `UCPC_THREADS`
/// environment knob (read through the shared warn-and-fall-back reader,
/// [`ucpc_uncertain::env::read_knob`] — a set but invalid or zero value
/// warns on stderr), and an unset or invalid knob falls back to
/// [`std::thread::available_parallelism`]. Every parallel entry point
/// (`ParallelUcpc::run*`, `BestOfRestarts::run`) routes through here so the
/// resolution exists exactly once.
pub fn resolve_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    if let Some(t) =
        ucpc_uncertain::env::read_knob("UCPC_THREADS", "a positive integer", parse_threads)
    {
        return t;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses one `UCPC_THREADS` value: a positive integer, anything else ⇒
/// `None` — the pure worker behind [`resolve_threads`]'s knob read,
/// exposed for env-free unit tests.
pub fn parse_threads(v: &str) -> Option<usize> {
    v.parse::<usize>().ok().filter(|&t| t > 0)
}

/// Picks the propose phase's shard size (in arena rows) for a propose phase
/// over `n` objects of `m` dimensions drained by `threads` workers.
///
/// Two pressures, resolved by taking the smaller:
///
/// * **cache residency** — a shard's `mu` rows (the memory a propose scan
///   streams per object) should fit comfortably in one core's L2, so a
///   stolen shard does not evict the thief's working set: `L2_TARGET /
///   (8·m)` rows;
/// * **balance granularity** — there must be enough shards for stealing to
///   matter: at least `BALANCE_SHARDS_PER_WORKER` (4) per worker when `n`
///   permits.
///
/// A floor of `MIN_SHARD_ROWS` (16) keeps the per-shard claim overhead
/// negligible on tiny inputs (where the whole dataset is one shard and the
/// scheduler degenerates to a sequential scan).
pub fn steal_shard_rows(n: usize, m: usize, threads: usize) -> usize {
    /// Target bytes of `mu`-row data per shard (half a typical 512 KiB L2,
    /// leaving room for the cluster statistics and prune-cache lines the
    /// scan also touches).
    const L2_TARGET_BYTES: usize = 256 * 1024;
    /// Minimum shards per worker before cache residency is allowed to win.
    const BALANCE_SHARDS_PER_WORKER: usize = 4;
    /// Smallest shard worth scheduling.
    const MIN_SHARD_ROWS: usize = 16;

    let l2_rows = L2_TARGET_BYTES / (8 * m.max(1));
    let balance_rows = n.div_ceil(BALANCE_SHARDS_PER_WORKER * threads.max(1));
    l2_rows.min(balance_rows).max(MIN_SHARD_ROWS)
}

/// A fixed set of work items drained by a pool of workers with
/// back-to-front stealing (see the module docs). `T` is the item payload —
/// an arena shard with its prune-cache window, or a restart index.
#[derive(Debug)]
pub struct WorkPool<T> {
    /// One slot per item; `None` once claimed.
    slots: Vec<Mutex<Option<T>>>,
    /// Worker `w` owns the contiguous item range `bounds[w]..bounds[w+1]`.
    bounds: Vec<usize>,
    /// Items claimed from a run the claiming worker does not own.
    steals: AtomicUsize,
}

impl<T> WorkPool<T> {
    /// Builds a pool over `items`, split into `workers` contiguous runs of
    /// near-equal length (trailing runs may be empty when there are more
    /// workers than items).
    pub fn new(items: Vec<T>, workers: usize) -> Self {
        let workers = workers.max(1);
        let n = items.len();
        let per = n.div_ceil(workers.min(n.max(1)));
        let bounds: Vec<usize> = (0..=workers).map(|w| (w * per).min(n)).collect();
        Self {
            slots: items.into_iter().map(|t| Mutex::new(Some(t))).collect(),
            bounds,
            steals: AtomicUsize::new(0),
        }
    }

    /// Number of workers the pool was split for.
    pub fn workers(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Claims the next item for `worker`: the front of its own run first,
    /// then — stealing — the *back* of the other workers' runs, starting
    /// from the next worker over. Returns `None` when every item has been
    /// claimed. Each item is returned exactly once across all workers.
    pub fn claim(&self, worker: usize) -> Option<T> {
        debug_assert!(worker < self.workers(), "worker {worker} out of range");
        let (lo, hi) = (self.bounds[worker], self.bounds[worker + 1]);
        for i in lo..hi {
            if let Some(item) = self.try_take(i) {
                return Some(item);
            }
        }
        let workers = self.workers();
        for delta in 1..workers {
            let victim = (worker + delta) % workers;
            let (vlo, vhi) = (self.bounds[victim], self.bounds[victim + 1]);
            for i in (vlo..vhi).rev() {
                if let Some(item) = self.try_take(i) {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(item);
                }
            }
        }
        None
    }

    /// Cross-run claims observed so far.
    pub fn steals(&self) -> usize {
        self.steals.load(Ordering::Relaxed)
    }

    fn try_take(&self, i: usize) -> Option<T> {
        // A locked slot is mid-claim by another worker; skipping it is
        // correct either way (the item will be gone by the time the lock
        // frees).
        self.slots[i].try_lock().ok().and_then(|mut g| g.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn threads_knob_accepts_positive_integers_only_and_warns_otherwise() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads("1"), Some(1));
        assert_eq!(parse_threads("0"), None, "zero workers is meaningless");
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("many"), None);
        let (outcome, warning) = ucpc_uncertain::env::parse_knob(
            "UCPC_THREADS",
            Some("0"),
            "a positive integer",
            parse_threads,
        );
        assert_eq!(outcome.value(), None);
        assert!(warning.unwrap().contains("UCPC_THREADS=\"0\""));
    }

    #[test]
    fn every_item_is_claimed_exactly_once_single_worker() {
        let pool = WorkPool::new((0..10).collect(), 1);
        let mut seen = Vec::new();
        while let Some(i) = pool.claim(0) {
            seen.push(i);
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(pool.steals(), 0);
    }

    #[test]
    fn thieves_drain_foreign_runs_from_the_back() {
        let pool = WorkPool::new((0..8).collect(), 2);
        // Worker 1 never runs; worker 0 drains its own run 0..4 front-first,
        // then steals 7, 6, 5, 4 from worker 1's run back-first.
        let order: Vec<usize> = std::iter::from_fn(|| pool.claim(0)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 7, 6, 5, 4]);
        assert_eq!(pool.steals(), 4);
    }

    #[test]
    fn concurrent_workers_partition_the_items() {
        let pool = WorkPool::new((0..257).collect::<Vec<usize>>(), 4);
        let claimed: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    let pool = &pool;
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(i) = pool.claim(w) {
                            got.push(i);
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<usize> = claimed.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..257).collect::<Vec<_>>());
        assert_eq!(all.iter().collect::<HashSet<_>>().len(), 257);
    }

    #[test]
    fn more_workers_than_items_leaves_trailing_runs_empty() {
        let pool = WorkPool::new(vec![42], 8);
        assert_eq!(pool.workers(), 8);
        assert_eq!(pool.claim(7), Some(42));
        assert_eq!(pool.claim(0), None);
    }

    #[test]
    fn explicit_thread_count_wins_over_resolution() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn shard_rows_balance_and_cache_pressures() {
        // m=32: L2 target allows 1024 rows, but balance wants n/(4·8)=313.
        assert_eq!(steal_shard_rows(10_000, 32, 8), 313);
        // Huge m: cache residency wins, floored at the minimum.
        assert_eq!(steal_shard_rows(10_000, 100_000, 2), 16);
        // Tiny n: floor keeps a single shard.
        assert!(steal_shard_rows(10, 4, 8) >= 10);
    }
}
