//! Churn soak bench: millions of edits through `IncrementalUcpc` over
//! recycled arena rows, gated on **flat memory**.
//!
//! The generation-stamped handle scheme promises that weeks of streaming
//! churn cannot grow any handle-indexed structure: slots are recycled, so
//! the label map, the moment rows and the prune-cache entries all top out
//! at the live-window high-water mark. This binary drives a 10M-edit
//! (default) insert-after-remove soak and asserts, over the measured
//! window:
//!
//! * **zero allocator calls** (counting global allocator — the strongest
//!   possible "nothing grew" witness), and
//! * **flat slot/cache counts** (`slot_rows`, `cache_entries` identical
//!   before and after the window).
//!
//! Rows are written into the `soak_grid` of `BENCH_relocation.json`
//! (spliced in place: every other key keeps its bytes). CI runs the reduced
//! `--check --edits 100000` shape, which prints the gate verdict and exits
//! non-zero on any violation without touching the JSON.
//!
//! Usage: `cargo run --release -p ucpc-bench --bin bench_soak
//! [--check] [--edits N] [output.json]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ucpc_core::incremental::{IncrementalUcpc, ObjectHandle};
use ucpc_core::PruningConfig;
use ucpc_uncertain::{UncertainObject, UnivariatePdf};

/// System allocator with a global counter of alloc/realloc calls — the
/// same witness `tests/streaming_alloc_free.rs` uses, here over a
/// millions-of-edits window.
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

struct SoakRow {
    pruning: &'static str,
    edits: usize,
    window_ns: u128,
    ns_per_edit: f64,
    alloc_calls: usize,
    slot_rows_before: usize,
    slot_rows_after: usize,
    cache_entries_before: usize,
    cache_entries_after: usize,
    relocations: usize,
    flat: bool,
}

/// One soak run: a settled n-object window, then `edits` edits (half
/// removals, half insertions, FIFO victims) with a stabilization sweep
/// every `stabilize_every` pairs. Returns the gate observations.
fn soak(pruning: PruningConfig, edits: usize) -> SoakRow {
    let n = 2_000;
    let m = 8;
    let k = 8;
    let stabilize_every = 1_000;
    let pool = 10_000;

    // All payloads come from a pre-generated cyclic pool so the measured
    // window borrows everything: any allocator call inside the window is
    // the engine's own.
    let mk = |i: usize| {
        UncertainObject::new(
            (0..m)
                .map(|j| {
                    let c = ((i * 31 + j * 7) % 97) as f64 * 0.25 - 12.0;
                    UnivariatePdf::normal(c, 0.3)
                })
                .collect(),
        )
    };
    let objects: Vec<UncertainObject> = (0..pool).map(mk).collect();

    let mut live = IncrementalUcpc::new(m, k).unwrap();
    live.set_pruning(pruning);
    let mut ids: Vec<ObjectHandle> = (0..n)
        .map(|i| live.insert(&objects[i % pool]).unwrap())
        .collect();
    let mut oldest = 0usize;

    // Settle, then warm every lazily-grown structure before the measured
    // window: one stabilization sweep sizes the prune cache (a single
    // allocation, once), and one edit pair pays the engine free list's first
    // capacity growth. From here on the engine has nothing left to grow.
    live.stabilize(5);
    let victim = ids[oldest];
    live.remove(victim).expect("warm-up victim is live");
    ids[oldest] = live.insert(&objects[n % pool]).unwrap();
    live.stabilize(1);

    let slot_rows_before = live.slot_rows();
    let cache_entries_before = live.pruner().cache_entries();
    let pairs = edits / 2;
    let mut relocations = 0usize;

    let alloc_before = ALLOC_CALLS.load(Ordering::Relaxed);
    let t = Instant::now();
    for pair in 0..pairs {
        let victim = ids[oldest];
        live.remove(victim).expect("victim handle is live");
        ids[oldest] = live.insert(&objects[(n + 1 + pair) % pool]).unwrap();
        oldest = (oldest + 1) % n;
        if (pair + 1) % stabilize_every == 0 {
            relocations += live.stabilize(2);
        }
    }
    let window_ns = t.elapsed().as_nanos();
    let alloc_calls = ALLOC_CALLS.load(Ordering::Relaxed) - alloc_before;

    let slot_rows_after = live.slot_rows();
    let cache_entries_after = live.pruner().cache_entries();
    assert_eq!(live.len(), n, "window size is steady");

    let flat = alloc_calls == 0
        && slot_rows_after == slot_rows_before
        && cache_entries_after == cache_entries_before;

    SoakRow {
        pruning: if pruning.is_enabled() {
            "bounds"
        } else {
            "off"
        },
        edits: pairs * 2,
        window_ns,
        ns_per_edit: window_ns as f64 / (pairs * 2) as f64,
        alloc_calls,
        slot_rows_before,
        slot_rows_after,
        cache_entries_before,
        cache_entries_after,
        relocations,
        flat,
    }
}

/// Splices `soak_gate` + `soak_grid` into the JSON baseline at `path`.
fn splice(path: &str, gate: bool, rows: &[SoakRow]) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {path}: {e} (run bench_relocation first)"));
    std::fs::write(path, splice_text(&text, gate, rows))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Replaces the `soak_gate` + `soak_grid` span of `text` with a fresh soak
/// block, preserving every byte before and after it. A text without a soak
/// block gets one appended as its last key.
fn splice_text(text: &str, gate: bool, rows: &[SoakRow]) -> String {
    let mut block = format!(
        ",\n  \"soak_gate\": {{\"flat_memory\": {}, \"required\": true}},\n  \"soak_grid\": [\n",
        gate
    );
    for (i, r) in rows.iter().enumerate() {
        block.push_str(&format!(
            concat!(
                "    {{\"pruning\": \"{}\", \"edits\": {}, ",
                "\"window_ns\": {}, \"ns_per_edit\": {:.1}, \"alloc_calls\": {}, ",
                "\"slot_rows_before\": {}, \"slot_rows_after\": {}, ",
                "\"cache_entries_before\": {}, \"cache_entries_after\": {}, ",
                "\"relocations\": {}, \"flat_memory\": {}}}{}\n"
            ),
            r.pruning,
            r.edits,
            r.window_ns,
            r.ns_per_edit,
            r.alloc_calls,
            r.slot_rows_before,
            r.slot_rows_after,
            r.cache_entries_before,
            r.cache_entries_after,
            r.relocations,
            r.flat,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    block.push_str("  ]");
    // The block ends at the first top-level array close after `soak_grid`.
    const CLOSE: &str = "\n  ]";
    match text.find(",\n  \"soak_gate\"") {
        Some(start) => {
            let grid = start + text[start..].find("\"soak_grid\"").expect("soak_grid");
            let end = grid + text[grid..].find(CLOSE).expect("closed soak_grid") + CLOSE.len();
            format!("{}{block}{}", &text[..start], &text[end..])
        }
        None => {
            let end = text.rfind('}').expect("JSON object");
            let base = text[..end].trim_end().trim_end_matches(',');
            format!("{base}{block}\n}}\n")
        }
    }
}

fn main() {
    let mut check = false;
    let mut edits = 10_000_000usize;
    let mut out_path = "BENCH_relocation.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--edits" => {
                edits = args.next().and_then(|v| v.parse().ok()).expect("--edits N");
            }
            other => out_path = other.to_string(),
        }
    }

    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>22} {:>22} {:>6}",
        "pruning",
        "edits",
        "ns/edit",
        "alloc calls",
        "slot rows (pre/post)",
        "cache entries",
        "flat"
    );
    let mut rows = Vec::new();
    for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
        let r = soak(pruning, edits);
        println!(
            "{:<8} {:>12} {:>12.1} {:>12} {:>11}/{:<10} {:>11}/{:<10} {:>6}",
            r.pruning,
            r.edits,
            r.ns_per_edit,
            r.alloc_calls,
            r.slot_rows_before,
            r.slot_rows_after,
            r.cache_entries_before,
            r.cache_entries_after,
            r.flat
        );
        rows.push(r);
    }
    let gate = rows.iter().all(|r| r.flat);

    if check {
        if gate {
            println!("soak gate: PASS (flat memory over {} edits per row)", edits);
        } else {
            println!("soak gate: FAIL — handle-indexed state grew under steady churn");
            std::process::exit(1);
        }
    } else {
        assert!(gate, "soak gate failed; not writing a violated baseline");
        splice(&out_path, gate, &rows);
        println!("spliced soak_grid into {out_path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(pruning: &'static str) -> SoakRow {
        SoakRow {
            pruning,
            edits: 4,
            window_ns: 40,
            ns_per_edit: 10.0,
            alloc_calls: 0,
            slot_rows_before: 8,
            slot_rows_after: 8,
            cache_entries_before: 8,
            cache_entries_after: 8,
            relocations: 1,
            flat: true,
        }
    }

    #[test]
    fn splice_replaces_only_the_soak_block() {
        let head = "{\n  \"grid\": [\n    {\"n\": 1}\n  ]";
        let stale = concat!(
            ",\n  \"soak_gate\": {\"flat_memory\": false, \"required\": true},",
            "\n  \"soak_grid\": [\n    {\"stale\": 1}\n  ]"
        );
        let tail = ",\n  \"later_grid\": [\n    {\"kept\": true}\n  ]\n}\n";
        let rows = [row("off"), row("bounds")];

        // A file without a soak block gets it appended as the last key.
        let appended = splice_text(&format!("{head}\n}}\n"), true, &rows);
        let block = appended
            .strip_prefix(head)
            .and_then(|rest| rest.strip_suffix("\n}\n"))
            .expect("the soak block goes between the last key and the closing brace");
        assert!(block.starts_with(",\n  \"soak_gate\": {\"flat_memory\": true"));
        assert_eq!(block.matches("\"pruning\": ").count(), rows.len());

        // An existing soak block is replaced by the same bytes, and the keys
        // around it keep theirs.
        let out = splice_text(&format!("{head}{stale}{tail}"), true, &rows);
        assert_eq!(out, format!("{head}{block}{tail}"));
        assert_eq!(splice_text(&out, true, &rows), out);
    }
}
