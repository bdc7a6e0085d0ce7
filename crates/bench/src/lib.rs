//! # ucpc-bench — experiment harness for the paper's evaluation
//!
//! Shared machinery behind the four reproduction binaries:
//!
//! * `table2` — accuracy (Θ, Q) on the benchmark datasets (Table 2);
//! * `table3` — quality (Q) on the microarray datasets (Table 3);
//! * `fig4_efficiency` — clustering runtimes (Figure 4);
//! * `fig5_scalability` — scalability sweep on the KDD Cup '99 analogue
//!   (Figure 5);
//!
//! plus the Criterion micro-benchmarks under `benches/` and the
//! `bench_relocation` and `bench_soak` binaries that emit the committed
//! `BENCH_relocation.json` baseline.
//!
//! Results print in the paper's row/column layout and are also written as
//! CSV under `target/experiments/`.
//!
//! The serving, WAL and sharded layers are measured by the repository
//! benchmark (`perfbench/`, declared in `BENCHMARK.json`) only; this crate
//! keeps the offline kernel grids that benchmark does not cover.
//!
//! ## The relocation baseline
//!
//! [`relocation`] is the shared workload behind the kernel-level numbers:
//! one evaluation-only UCPC relocation pass over a seeded n × m × k grid
//! ([`relocation::GRID`]), measured three ways —
//!
//! * [`relocation::naive_pass`] — the original three-sweep Corollary-1
//!   evaluation (per-dimension loops over `Moments`);
//! * [`relocation::kernel_pass`] — the production scan:
//!   `ucpc_core::pruning::PricingTable::relocation` over a flat
//!   [`ucpc_uncertain::MomentArena`], every candidate's cross term and add
//!   delta from one runtime-dispatched `price_block` over the clusters'
//!   mean-sum rows;
//! * [`relocation::simd_comparison`] — the same kernel pass with the
//!   scalar backend forced vs the machine's detected SIMD backend
//!   (`ucpc_uncertain::simd`), asserting byte-identical labels from the
//!   full relocation phase under both;
//!
//! plus [`relocation::pruning_comparison`], the end-to-end relocation
//! phase with drift-bound candidate pruning off vs on on a clustered
//! workload (built through the zero-allocation
//! `PdfAssignment::assign_into_arena` pipeline), and
//! [`streaming::streaming_comparison`], the `IncrementalUcpc` churn loop
//! over recycled arena rows with pruning off vs on.
//! Every comparison doubles as an exactness check: any label divergence
//! panics the bench.

#![warn(missing_docs)]

pub mod args;
pub mod harness;
pub mod naive;
pub mod relocation;
pub mod report;
pub mod streaming;
