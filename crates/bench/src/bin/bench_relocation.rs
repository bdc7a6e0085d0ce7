//! Emits the machine-readable relocation baseline, `BENCH_relocation.json`:
//!
//! * median wall time of one evaluation-only UCPC relocation pass on the
//!   naive three-sweep path vs the scalar-aggregate delta-`J` kernel, over
//!   the shared n × m × k grid;
//! * the same kernel pass with the `UCPC_SIMD=scalar` backend forced vs the
//!   machine's detected SIMD backend (AVX2+FMA or NEON), with the full
//!   relocation phase asserted byte-identical between the two backends; and
//! * median wall time of the *full* relocation phase (all passes to
//!   convergence) with candidate pruning off vs on, on the clustered blob
//!   workload, with skip/scan counters — the pruned run is asserted
//!   label-identical to the unpruned one on every repetition; and
//! * the `IncrementalUcpc` streaming churn window (interleaved
//!   remove/insert/stabilize) with pruning {off, bounds}, with live labels
//!   and objective bits asserted identical across both configurations.
//!
//! The clustered batch workload is built through the arena-native
//! `PdfAssignment::assign_into_arena` pipeline (no `UncertainObject`
//! round-trip). The file records the detected SIMD backend and the CPU
//! features its dispatcher probes for (`ucpc_uncertain::simd`).
//!
//! `bench_soak` appends the `soak_gate` and `soak_grid` keys to the same
//! file. The serving, WAL and sharded layers are measured by the
//! repository benchmark (`perfbench/`), not here.
//!
//! Usage: `cargo run --release -p ucpc-bench --bin bench_relocation
//! [output.json]` (default output path: `BENCH_relocation.json`).

use ucpc_bench::relocation::{
    kernel_pass, median_ns, naive_pass, pruning_comparison, simd_comparison, workload, Shape, GRID,
};
use ucpc_bench::streaming::{streaming_comparison, ChurnSpec};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_relocation.json".into());
    let reps = 9;

    let mut rows = Vec::new();
    println!(
        "{:<22} {:>14} {:>14} {:>9}",
        "shape", "naive ns/pass", "kernel ns/pass", "speedup"
    );
    for shape in GRID {
        let w = workload(shape, 7);
        let naive = median_ns(&w, reps, naive_pass);
        let kernel = median_ns(&w, reps, kernel_pass);
        let speedup = naive as f64 / kernel as f64;
        println!(
            "n={:<6} m={:<3} k={:<4} {naive:>14} {kernel:>14} {speedup:>8.2}x",
            shape.n, shape.m, shape.k
        );
        rows.push(format!(
            concat!(
                "    {{\"n\": {}, \"m\": {}, \"k\": {}, ",
                "\"naive_ns_per_pass\": {}, \"kernel_ns_per_pass\": {}, ",
                "\"speedup\": {:.3}}}"
            ),
            shape.n, shape.m, shape.k, naive, kernel, speedup
        ));
    }

    // Scalar backend vs the detected SIMD backend on the identical kernel
    // pass; `simd_comparison` additionally asserts byte-identical labels
    // from the full relocation phase under both backends.
    let mut simd_rows = Vec::new();
    let mut simd_backend = "scalar";
    println!(
        "\n{:<22} {:>14} {:>14} {:>9}",
        "simd (kernel pass)", "scalar ns/pass", "simd ns/pass", "speedup"
    );
    for shape in GRID {
        let row = simd_comparison(shape, 7, reps);
        if row.engaged {
            simd_backend = row.backend;
        }
        println!(
            "n={:<6} m={:<3} k={:<4} {:>14} {:>14} {:>8.2}x  [{}]",
            shape.n,
            shape.m,
            shape.k,
            row.scalar_ns,
            row.simd_ns,
            row.speedup,
            if row.engaged {
                row.backend
            } else {
                "below dispatch threshold — backend not engaged"
            }
        );
        simd_rows.push(format!(
            concat!(
                "    {{\"n\": {}, \"m\": {}, \"k\": {}, ",
                "\"scalar_ns_per_pass\": {}, \"simd_ns_per_pass\": {}, ",
                "\"speedup\": {:.3}, \"simd_engaged\": {}}}"
            ),
            shape.n, shape.m, shape.k, row.scalar_ns, row.simd_ns, row.speedup, row.engaged
        ));
    }

    // End-to-end relocation-phase comparison: pruning off vs on, clustered
    // data, label equality asserted inside `pruning_comparison`.
    let pruning_reps = 5;
    let mut pruning_rows = Vec::new();
    println!(
        "\n{:<22} {:>14} {:>14} {:>9} {:>10}",
        "pruning (end-to-end)", "off ns/run", "bounds ns/run", "speedup", "skip rate"
    );
    for shape in GRID {
        let row = pruning_comparison(shape, 7, pruning_reps);
        let c = row.counters;
        println!(
            "n={:<6} m={:<3} k={:<4} {:>14} {:>14} {:>8.2}x {:>9.1}%",
            shape.n,
            shape.m,
            shape.k,
            row.unpruned_ns,
            row.pruned_ns,
            row.speedup,
            100.0 * c.skip_rate()
        );
        pruning_rows.push(format!(
            concat!(
                "    {{\"n\": {}, \"m\": {}, \"k\": {}, ",
                "\"unpruned_ns_per_run\": {}, \"pruned_ns_per_run\": {}, ",
                "\"speedup\": {:.3}, \"iterations\": {}, ",
                "\"skips\": {}, \"confirms\": {}, \"full_scans\": {}, ",
                "\"skip_rate\": {:.4}}}"
            ),
            shape.n,
            shape.m,
            shape.k,
            row.unpruned_ns,
            row.pruned_ns,
            row.speedup,
            row.iterations,
            c.skips,
            c.confirms,
            c.full_scans,
            c.skip_rate()
        ));
    }

    // Streaming churn grid: IncrementalUcpc pruning off/on on a small and
    // the acceptance shape; labels and objective bits are asserted
    // identical across both configurations inside `streaming_comparison`.
    let acceptance_shape = Shape {
        n: 10_000,
        m: 32,
        k: 20,
    };
    let streaming_reps = 3;
    let spec = ChurnSpec::default();
    let mut streaming_rows = Vec::new();
    println!(
        "\n{:<22} {:<7} {:>14} {:>10}",
        "streaming (churn)", "prune", "ns/window", "skip rate"
    );
    for shape in [
        Shape {
            n: 2_000,
            m: 8,
            k: 5,
        },
        acceptance_shape,
    ] {
        for row in streaming_comparison(shape, spec, 7, streaming_reps) {
            let c = row.counters;
            println!(
                "n={:<6} m={:<3} k={:<4} {:<7} {:>14} {:>9.1}%",
                shape.n,
                shape.m,
                shape.k,
                row.pruning,
                row.churn_ns,
                100.0 * c.skip_rate()
            );
            streaming_rows.push(format!(
                concat!(
                    "    {{\"n\": {}, \"m\": {}, \"k\": {}, ",
                    "\"pruning\": \"{}\", \"churn_ns\": {}, ",
                    "\"skips\": {}, \"confirms\": {}, \"full_scans\": {}, ",
                    "\"skip_rate\": {:.4}}}"
                ),
                shape.n,
                shape.m,
                shape.k,
                row.pruning,
                row.churn_ns,
                c.skips,
                c.confirms,
                c.full_scans,
                c.skip_rate()
            ));
        }
    }

    let acceptance = GRID
        .iter()
        .position(|s| s.n == 10_000 && s.m == 32 && s.k == 20)
        .expect("acceptance shape present in GRID");
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"ucpc_relocation_pass\",\n",
            "  \"description\": \"one evaluation-only UCPC relocation pass: naive three-sweep ",
            "Corollary-1 path vs flat-arena scalar-aggregate delta-J kernel; the same kernel ",
            "pass under UCPC_SIMD=scalar vs the detected SIMD backend (labels asserted ",
            "byte-identical across backends); the full relocation phase with drift-bound ",
            "candidate pruning off vs on (clustered blob workload, pruned labels asserted ",
            "identical to unpruned; workload built via the zero-allocation ",
            "assign_into_arena pipeline); and the IncrementalUcpc streaming ",
            "churn window (interleaved remove/insert/stabilize) with pruning {{off, bounds}} ",
            "— free-list row reuse + edits charged as net changes when a cached bound next ",
            "reads them + surgical per-cluster cache invalidation (live labels and objective ",
            "bits asserted identical across both configurations)\",\n",
            "  \"units\": \"nanoseconds (median of {reps} kernel / {preps} end-to-end / ",
            "{sreps} streaming repetitions, release profile)\",\n",
            "  \"acceptance_shape\": {{\"n\": 10000, \"m\": 32, \"k\": 20}},\n",
            "  \"acceptance_row_index\": {acceptance},\n",
            "  \"simd_backend\": \"{backend}\",\n",
            "  \"cpu_features\": [{features}],\n",
            "  \"grid\": [\n{rows}\n  ],\n",
            "  \"simd_grid\": [\n{srows}\n  ],\n",
            "  \"pruning_grid\": [\n{prows}\n  ],\n",
            "  \"streaming_grid\": [\n{strows}\n  ]\n",
            "}}\n",
        ),
        reps = reps,
        preps = pruning_reps,
        sreps = streaming_reps,
        acceptance = acceptance,
        backend = simd_backend,
        features = ucpc_uncertain::simd::cpu_features()
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", "),
        rows = rows.join(",\n"),
        srows = simd_rows.join(",\n"),
        prows = pruning_rows.join(",\n"),
        strows = streaming_rows.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write benchmark baseline");
    println!("wrote {out_path}");
}
