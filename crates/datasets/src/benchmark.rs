//! Seeded generators for the benchmark datasets of Table 1(a).
//!
//! The paper draws eight labelled UCI datasets (plus KDD Cup '99 for the
//! scalability study) and injects uncertainty synthetically. The UCI files
//! are not available in this environment, so each dataset is substituted by a
//! seeded Gaussian-mixture generator matching the published shape — object
//! count, attribute count and class count — with class separations chosen so
//! that clusterability is comparable to the originals (imperfectly separated,
//! unequal class sizes). The clustering-vs-uncertainty dynamics the
//! evaluation measures depend on the injected pdfs (Section 5.1), not on the
//! original attribute semantics. The README's "Substitutions" section
//! records this substitution.

use rand::Rng;
use rand::RngCore;

/// Shape of a benchmark dataset (a row of Table 1(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Dataset name as used in the paper's tables.
    pub name: &'static str,
    /// Number of objects.
    pub objects: usize,
    /// Number of attributes (dimensions).
    pub attributes: usize,
    /// Number of reference classes.
    pub classes: usize,
}

/// Iris: 150 objects, 4 attributes, 3 classes.
pub const IRIS: DatasetSpec = DatasetSpec {
    name: "Iris",
    objects: 150,
    attributes: 4,
    classes: 3,
};
/// Wine: 178 objects, 13 attributes, 3 classes.
pub const WINE: DatasetSpec = DatasetSpec {
    name: "Wine",
    objects: 178,
    attributes: 13,
    classes: 3,
};
/// Glass: 214 objects, 10 attributes, 6 classes.
pub const GLASS: DatasetSpec = DatasetSpec {
    name: "Glass",
    objects: 214,
    attributes: 10,
    classes: 6,
};
/// Ecoli: 327 objects, 7 attributes, 5 classes.
pub const ECOLI: DatasetSpec = DatasetSpec {
    name: "Ecoli",
    objects: 327,
    attributes: 7,
    classes: 5,
};
/// Yeast: 1484 objects, 8 attributes, 10 classes.
pub const YEAST: DatasetSpec = DatasetSpec {
    name: "Yeast",
    objects: 1_484,
    attributes: 8,
    classes: 10,
};
/// Image (segmentation): 2310 objects, 19 attributes, 7 classes.
pub const IMAGE: DatasetSpec = DatasetSpec {
    name: "Image",
    objects: 2_310,
    attributes: 19,
    classes: 7,
};
/// Abalone: 4124 objects, 7 attributes, 17 classes.
pub const ABALONE: DatasetSpec = DatasetSpec {
    name: "Abalone",
    objects: 4_124,
    attributes: 7,
    classes: 17,
};
/// Letter (recognition): 7648 objects, 16 attributes, 10 classes.
pub const LETTER: DatasetSpec = DatasetSpec {
    name: "Letter",
    objects: 7_648,
    attributes: 16,
    classes: 10,
};
/// KDD Cup '99: 4 million objects, 42 attributes, 23 classes (scalability).
pub const KDDCUP99: DatasetSpec = DatasetSpec {
    name: "KDDCup99",
    objects: 4_000_000,
    attributes: 42,
    classes: 23,
};

/// The eight accuracy-evaluation datasets of Table 1(a), paper order.
pub fn accuracy_benchmarks() -> [DatasetSpec; 8] {
    [IRIS, WINE, GLASS, ECOLI, YEAST, IMAGE, ABALONE, LETTER]
}

/// A labelled deterministic dataset (before uncertainty injection).
#[derive(Debug, Clone)]
pub struct LabeledDataset {
    /// The generating spec.
    pub spec: DatasetSpec,
    /// Data points, row-major.
    pub points: Vec<Vec<f64>>,
    /// Reference class of each point (`0..spec.classes`).
    pub labels: Vec<usize>,
}

impl LabeledDataset {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Per-dimension standard deviations (used to scale uncertainty spread).
    pub fn dim_std(&self) -> Vec<f64> {
        let m = self.spec.attributes;
        let n = self.points.len() as f64;
        let mut mean = vec![0.0; m];
        for p in &self.points {
            for (mj, &v) in mean.iter_mut().zip(p) {
                *mj += v;
            }
        }
        for v in &mut mean {
            *v /= n;
        }
        let mut var = vec![0.0; m];
        for p in &self.points {
            for j in 0..m {
                let d = p[j] - mean[j];
                var[j] += d * d;
            }
        }
        var.iter().map(|&v| (v / n).sqrt().max(1e-9)).collect()
    }
}

/// Generates the full dataset for `spec` (`fraction = 1.0`).
pub fn generate(spec: DatasetSpec, rng: &mut dyn RngCore) -> LabeledDataset {
    generate_fraction(spec, 1.0, rng)
}

/// Generates a proportional subset of `spec` covering **all** classes — the
/// protocol of the Figure-5 scalability study ("for each selected subset we
/// ensured that all 23 classes were covered").
pub fn generate_fraction(
    spec: DatasetSpec,
    fraction: f64,
    rng: &mut dyn RngCore,
) -> LabeledDataset {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "fraction must be in (0, 1], got {fraction}"
    );
    let m = spec.attributes;
    let k = spec.classes;

    // Class prototypes: centers jittered per class, with a separation factor
    // that keeps classes overlapping but recoverable (mirroring the moderate
    // difficulty of the UCI originals). Scaled by 1/sqrt(m): Gaussian
    // mixtures concentrate with dimensionality, so an m-independent
    // separation would make high-dimensional datasets trivially easy.
    let separation = 16.0 / (m as f64).sqrt();
    let centers: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..m).map(|_| rng.gen_range(0.0..separation)).collect())
        .collect();
    let spreads: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..m).map(|_| rng.gen_range(0.4..1.1)).collect())
        .collect();

    // Unequal class sizes (UCI datasets are imbalanced): weight classes by a
    // squared uniform draw, then scale to the target object count, keeping at
    // least one object per class at every fraction.
    let weights: Vec<f64> = (0..k)
        .map(|_| {
            let u: f64 = rng.gen_range(0.3..1.0);
            u * u
        })
        .collect();
    let total_w: f64 = weights.iter().sum();
    let target = (spec.objects as f64 * fraction).round().max(k as f64) as usize;
    let mut counts: Vec<usize> = weights
        .iter()
        .map(|w| ((w / total_w) * target as f64).round().max(1.0) as usize)
        .collect();
    // Adjust rounding drift onto the largest class.
    let drift = target as isize - counts.iter().sum::<usize>() as isize;
    let largest = counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap_or(0);
    counts[largest] = (counts[largest] as isize + drift).max(1) as usize;

    let mut points = Vec::with_capacity(target);
    let mut labels = Vec::with_capacity(target);
    for (class, &count) in counts.iter().enumerate() {
        for _ in 0..count {
            let p: Vec<f64> = (0..m)
                .map(|j| centers[class][j] + gaussian(rng) * spreads[class][j])
                .collect();
            points.push(p);
            labels.push(class);
        }
    }
    LabeledDataset {
        spec,
        points,
        labels,
    }
}

/// A standard-normal draw via Box–Muller (keeps `rand` distribution-free).
fn gaussian(rng: &mut dyn RngCore) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table_1a_shapes_are_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        for spec in accuracy_benchmarks() {
            let d = generate_fraction(spec, 0.2, &mut rng); // keep tests fast
            let target = (spec.objects as f64 * 0.2).round() as usize;
            assert!(
                d.len().abs_diff(target) <= spec.classes,
                "{}: got {} want ~{target}",
                spec.name,
                d.len()
            );
            assert!(d.points.iter().all(|p| p.len() == spec.attributes));
            let mut seen = vec![false; spec.classes];
            for &l in &d.labels {
                seen[l] = true;
            }
            assert!(seen.iter().all(|&s| s), "{}: class missing", spec.name);
        }
    }

    #[test]
    fn full_iris_has_exact_size() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = generate(IRIS, &mut rng);
        assert_eq!(d.len(), 150);
    }

    #[test]
    fn every_fraction_covers_all_classes() {
        // The Figure-5 protocol: all classes present in every subset.
        let mut rng = StdRng::seed_from_u64(3);
        let spec = DatasetSpec {
            name: "mini-kdd",
            objects: 500,
            attributes: 5,
            classes: 23,
        };
        for frac in [0.05, 0.1, 0.5, 1.0] {
            let d = generate_fraction(spec, frac, &mut rng);
            let mut seen = [false; 23];
            for &l in &d.labels {
                seen[l] = true;
            }
            assert!(seen.iter().all(|&s| s), "fraction {frac} missed a class");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let d1 = generate(IRIS, &mut StdRng::seed_from_u64(7));
        let d2 = generate(IRIS, &mut StdRng::seed_from_u64(7));
        assert_eq!(d1.points, d2.points);
        assert_eq!(d1.labels, d2.labels);
        let d3 = generate(IRIS, &mut StdRng::seed_from_u64(8));
        assert_ne!(d1.points, d3.points);
    }

    #[test]
    fn classes_are_spatially_coherent() {
        // Class means should be farther apart than intra-class scatter on
        // average, so the reference classification is recoverable.
        let mut rng = StdRng::seed_from_u64(4);
        let d = generate(IRIS, &mut rng);
        let m = d.spec.attributes;
        let mut means = vec![vec![0.0; m]; d.spec.classes];
        let mut counts = vec![0usize; d.spec.classes];
        for (p, &l) in d.points.iter().zip(&d.labels) {
            counts[l] += 1;
            for j in 0..m {
                means[l][j] += p[j];
            }
        }
        for (mean, &c) in means.iter_mut().zip(&counts) {
            for v in mean.iter_mut() {
                *v /= c as f64;
            }
        }
        // At least one pair of class means is well separated.
        let mut max_sep: f64 = 0.0;
        for a in 0..d.spec.classes {
            for b in (a + 1)..d.spec.classes {
                let sep: f64 = (0..m)
                    .map(|j| (means[a][j] - means[b][j]).powi(2))
                    .sum::<f64>()
                    .sqrt();
                max_sep = max_sep.max(sep);
            }
        }
        assert!(
            max_sep > 2.0,
            "classes too entangled: max separation {max_sep}"
        );
    }

    #[test]
    fn dim_std_is_positive() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = generate(IRIS, &mut rng);
        assert!(d.dim_std().iter().all(|&s| s > 0.0));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = generate_fraction(IRIS, 0.0, &mut rng);
    }
}
