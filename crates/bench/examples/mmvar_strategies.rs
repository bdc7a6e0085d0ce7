//! Ablation demo: MMVar's two search strategies on overlapping data.
//!
//! Greedy descent on the raw criterion `Σ σ²(C_MM)` collapses (the mixture
//! variance is intensive in cluster size, so evaporating clusters is locally
//! downhill); the Lloyd alternation keeps a sensible partition. The README's
//! "Substitutions" section records why the Lloyd reading is used for the
//! paper's "MMV" baseline.
use rand::rngs::StdRng;
use rand::SeedableRng;
use ucpc_baselines::{MmVar, MmVarStrategy};
use ucpc_datasets::benchmark::{generate_fraction, YEAST};
use ucpc_datasets::uncertainty::{NoiseKind, PdfAssignment, UncertaintyModel};

fn main() {
    let mut rng = StdRng::seed_from_u64(1);
    let d = generate_fraction(YEAST, 0.1, &mut rng);
    let model = UncertaintyModel::paper_default(NoiseKind::Normal);
    let a = PdfAssignment::assign(&d.points, &d.dim_std(), &model, &mut rng);
    let data = a.uncertain_objects();

    for strategy in [MmVarStrategy::Lloyd, MmVarStrategy::GreedyRelocation] {
        let cfg = MmVar {
            strategy,
            ..Default::default()
        };
        let r = cfg.run(&data, 10, &mut rng).unwrap();
        let mut sizes = r.clustering.sizes();
        sizes.sort_unstable();
        println!(
            "{strategy:?}: objective {:.3}, cluster sizes {:?}",
            r.objective, sizes
        );
    }
}
