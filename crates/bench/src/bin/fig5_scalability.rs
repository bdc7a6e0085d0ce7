//! Reproduces **Figure 5**: scalability on the KDD Cup '99 dataset — dataset
//! size swept from 5% to 100% with all 23 classes covered in every subset,
//! `k = 23`, fastest algorithms only (UCPC, UK-means, MMVar, MinMax-BB,
//! VDBiP).
//!
//! The paper ran 4 million objects on an HPC cluster; the analogue defaults
//! to 40,000 objects on one machine (`--objects` raises it — the trends the
//! figure reports are linear in `n`, so the relative sweep is preserved at
//! any absolute size; see the README's "Substitutions" section).
//!
//! Flags:
//! * `--objects`  size of the 100% subset (default 40000; paper 4,000,000);
//! * `--seed`     base seed (default 2012);
//! * `--iters`    iteration cap for the iterative algorithms (default 10);
//! * `--samples`  samples/object for the pruning algorithms (default 8).

use rand::rngs::StdRng;
use rand::SeedableRng;
use ucpc_bench::args::Args;
use ucpc_bench::harness::{run_timed, Algo, RunConfig};
use ucpc_bench::report::Table;
use ucpc_datasets::benchmark::{generate_fraction, DatasetSpec, KDDCUP99};
use ucpc_datasets::uncertainty::{NoiseKind, PdfAssignment, UncertaintyModel};

const FRACTIONS: [f64; 6] = [0.05, 0.10, 0.25, 0.50, 0.75, 1.00];

fn main() {
    let args = Args::from_env();
    let objects = args.usize_or("objects", 40_000);
    let seed = args.u64_or("seed", 2012);
    let cfg = RunConfig {
        max_iters: args.usize_or("iters", 10),
        samples_per_object: args.usize_or("samples", 8),
    };

    // The KDD Cup '99 analogue at the configured absolute size.
    let spec = DatasetSpec {
        objects,
        ..KDDCUP99
    };
    let k = spec.classes;

    let mut table = Table::new(
        format!("Figure 5 — scalability on KDDCup99 analogue ({objects} objects, k={k}; ms)"),
        Algo::SCALABILITY.iter().map(|a| a.name().to_string()),
    );

    for frac in FRACTIONS {
        // Regenerate per fraction with all classes covered, as in the paper.
        let mut rng = StdRng::seed_from_u64(seed ^ (frac * 1e4) as u64);
        let d = generate_fraction(spec, frac, &mut rng);
        let model = UncertaintyModel::paper_default(NoiseKind::Normal);
        let a = PdfAssignment::assign(&d.points, &d.dim_std(), &model, &mut rng);
        let data = a.uncertain_objects();

        let row: Vec<f64> = Algo::SCALABILITY
            .iter()
            .map(|&algo| {
                let out = run_timed(algo, &data, k, seed, &cfg)
                    .unwrap_or_else(|e| panic!("{} at {frac}: {e}", algo.name()));
                out.online.as_secs_f64() * 1e3
            })
            .collect();
        eprintln!("done: {:.0}% (n={})", frac * 100.0, data.len());
        table.push_row(format!("{:.0}%", frac * 100.0), row);
    }

    print!("{}", table.render());
    let p = table.save_csv("fig5_scalability.csv").expect("write csv");
    println!("\nCSV: {}", p.display());
}
