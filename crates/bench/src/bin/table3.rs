//! Reproduces **Table 3**: internal quality (Q) on the real microarray
//! datasets (Neuroblastoma, Leukaemia) for cluster counts
//! k ∈ {2, 3, 5, 10, 15, 20, 25, 30} across all seven algorithms.
//!
//! The microarray objects carry *inherent* probe-level uncertainty (Normal
//! pdfs from the mgMOS-style simulator — the paper's data is not available
//! offline; see the README's "Substitutions" section), and no reference
//! classification exists, so only the internal criterion Q is reported, as
//! in the paper.
//!
//! Flags:
//! * `--genes`  genes (objects) per dataset (default 300; the paper's 22k
//!   genes are intractable for the O(n²)+ baselines on one machine);
//! * `--runs`   runs to average (default 5; paper 50);
//! * `--seed`   base seed (default 2012).

use rand::rngs::StdRng;
use rand::SeedableRng;
use ucpc_bench::args::Args;
use ucpc_bench::harness::{run_timed, Algo, RunConfig};
use ucpc_bench::report::Table;
use ucpc_datasets::microarray::{MicroarraySimulator, LEUKAEMIA, NEUROBLASTOMA};
use ucpc_eval::quality;

const CLUSTER_COUNTS: [usize; 8] = [2, 3, 5, 10, 15, 20, 25, 30];

fn main() {
    let args = Args::from_env();
    let genes = args.usize_or("genes", 300);
    let runs = args.usize_or("runs", 5);
    let seed = args.u64_or("seed", 2012);
    let cfg = RunConfig::default();

    let columns: Vec<String> = Algo::ACCURACY
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    let mut table = Table::new(
        format!("Table 3 — Quality Q on microarray data ({genes} genes, {runs} runs)"),
        columns,
    );

    let mut per_dataset_rows: Vec<(&'static str, Vec<f64>)> = Vec::new();

    for spec in [NEUROBLASTOMA, LEUKAEMIA] {
        let mut rng = StdRng::seed_from_u64(seed ^ spec.genes as u64);
        let data = MicroarraySimulator::default().simulate_genes(spec, genes, &mut rng);

        for &k in &CLUSTER_COUNTS {
            let mut q_sum = vec![0.0; Algo::ACCURACY.len()];
            for run in 0..runs {
                let run_seed =
                    seed ^ (run as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k as u64;
                for (ai, &algo) in Algo::ACCURACY.iter().enumerate() {
                    let c = run_timed(algo, &data.objects, k, run_seed, &cfg)
                        .expect("microarray run failed")
                        .clustering;
                    q_sum[ai] += quality(&data.objects, &c).q;
                }
            }
            let inv = 1.0 / runs as f64;
            let row: Vec<f64> = q_sum.iter().map(|s| s * inv).collect();
            eprintln!("done: {} k={k}", spec.name);
            per_dataset_rows.push((spec.name, row.clone()));
            table.push_row(format!("{}-k{k}", spec.name), row);
        }
    }

    // Aggregates: per-dataset averages, overall average, overall gain.
    for spec_name in ["Neuroblastoma", "Leukaemia"] {
        let subset: Vec<&Vec<f64>> = per_dataset_rows
            .iter()
            .filter(|(n, _)| *n == spec_name)
            .map(|(_, r)| r)
            .collect();
        let mut avg = vec![0.0; Algo::ACCURACY.len()];
        for r in &subset {
            for (a, v) in avg.iter_mut().zip(r.iter()) {
                *a += v;
            }
        }
        for a in &mut avg {
            *a /= subset.len() as f64;
        }
        table.push_row(format!("avg-{spec_name}"), avg);
    }
    let mut overall = vec![0.0; Algo::ACCURACY.len()];
    for (_, r) in &per_dataset_rows {
        for (a, v) in overall.iter_mut().zip(r.iter()) {
            *a += v;
        }
    }
    for a in &mut overall {
        *a /= per_dataset_rows.len() as f64;
    }
    let ucpc = *overall.last().unwrap_or(&0.0);
    let gains: Vec<f64> = overall.iter().map(|&v| ucpc - v).collect();
    table.push_row("overall-avg", overall);
    table.push_row("overall-gain", gains);

    print!("{}", table.render());
    let p = table.save_csv("table3_quality.csv").expect("write csv");
    println!("\nCSV: {}", p.display());
}
