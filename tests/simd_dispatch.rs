//! Dispatch-matrix and property tests of the runtime-dispatched SIMD dot
//! kernel (`ucpc_uncertain::simd`): every backend the machine can run is
//! held to the documented bit-identity contract against the scalar
//! fallback, and the unfused reference loop bounds the rounding error.
//! The end-to-end guarantee — byte-identical clustering labels across
//! backends — is checked by running the full UCPC search under each.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ucpc::core::framework::UncertainClusterer;
use ucpc::core::Ucpc;
use ucpc::uncertain::simd::{dot_unfused, dot_with, force_backend, Backend, DISPATCH_THRESHOLD};
use ucpc::uncertain::{UncertainObject, UnivariatePdf};

/// One ULP of `x` (the spacing to the next representable magnitude), with a
/// subnormal floor.
fn ulp(x: f64) -> f64 {
    let a = x.abs();
    if a == 0.0 || !a.is_finite() {
        return f64::MIN_POSITIVE;
    }
    (f64::from_bits(a.to_bits() + 1) - a).max(f64::MIN_POSITIVE)
}

#[test]
fn dispatch_matrix_covers_every_backend_and_length() {
    // The machine must support at least the scalar backend, and on x86_64
    // CI/dev hardware we expect AVX2 too — but the matrix adapts.
    let backends = Backend::available();
    assert!(backends.contains(&Backend::Scalar));
    for n in 0..=64usize {
        let a: Vec<f64> = (0..n).map(|i| (i as f64) * 0.73 - 11.0).collect();
        let b: Vec<f64> = (0..n).map(|i| 5.0 - (i as f64) * 0.41).collect();
        let reference = dot_with(Backend::Scalar, &a, &b);
        let naive: f64 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
        assert!(
            (reference - naive).abs() < 1e-9 * (1.0 + naive.abs()),
            "scalar vs naive at length {n}"
        );
        for &backend in &backends {
            let got = dot_with(backend, &a, &b);
            assert_eq!(
                got.to_bits(),
                reference.to_bits(),
                "{backend:?} != scalar at length {n}"
            );
        }
    }
}

#[test]
fn nan_and_infinity_propagate_on_every_backend() {
    for backend in Backend::available() {
        for n in [1usize, 7, 16, 33, 64] {
            for pos in [0, n / 2, n - 1] {
                let mut a: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
                let b: Vec<f64> = (0..n).map(|i| 2.0 - i as f64 * 0.5).collect();
                a[pos] = f64::NAN;
                assert!(
                    dot_with(backend, &a, &b).is_nan(),
                    "{backend:?} swallowed NaN at {pos}/{n}"
                );
                a[pos] = f64::NEG_INFINITY;
                let reference = dot_with(Backend::Scalar, &a, &b);
                let got = dot_with(backend, &a, &b);
                assert_eq!(
                    got.to_bits(),
                    reference.to_bits(),
                    "{backend:?} -inf at {pos}/{n}: {got} vs {reference}"
                );
            }
        }
    }
}

#[test]
fn clustering_labels_are_byte_identical_across_backends() {
    // The whole point of the bit-identity contract: the backend knob can
    // never change a clustering result. Run the full UCPC search (m above
    // the dispatch threshold so the SIMD paths actually engage) under every
    // available backend and compare labels exactly.
    let m = DISPATCH_THRESHOLD + 4;
    let data: Vec<UncertainObject> = (0..120)
        .map(|i| {
            let c = (i % 3) as f64 * 9.0;
            UncertainObject::new(
                (0..m)
                    .map(|j| UnivariatePdf::normal(c + (i + j) as f64 * 0.05, 0.4))
                    .collect(),
            )
        })
        .collect();
    let detected = Backend::detect();
    let mut reference: Option<Vec<usize>> = None;
    for backend in Backend::available() {
        force_backend(backend).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let labels = Ucpc::default()
            .cluster(&data, 3, &mut rng)
            .unwrap()
            .labels()
            .to_vec();
        match &reference {
            None => reference = Some(labels),
            Some(expected) => assert_eq!(
                &labels, expected,
                "backend {backend:?} changed clustering labels"
            ),
        }
    }
    force_backend(detected).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random inputs (including large magnitude spreads): every available
    /// backend agrees with the scalar backend within 1 ULP of the result —
    /// in fact exactly, by the bit-identity contract — and the unfused
    /// reference loop agrees within a ULP-scaled accumulation bound.
    #[test]
    fn backends_agree_within_one_ulp(
        n in 0usize..96,
        seed in 0u64..1_000_000,
        scale_exp in -12i32..12,
    ) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = 2.0f64.powi(scale_exp);
        let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0) * scale).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();

        let reference = dot_with(Backend::Scalar, &a, &b);
        for backend in Backend::available() {
            let got = dot_with(backend, &a, &b);
            prop_assert!(
                (got - reference).abs() <= ulp(reference),
                "{:?}: {} vs scalar {}",
                backend, got, reference
            );
            // The contract is actually stronger: bit-identical.
            prop_assert_eq!(got.to_bits(), reference.to_bits());
        }

        // The unfused PR 1 loop differs only by per-element rounding:
        // |fused − unfused| ≤ n·ε·Σ|a_i b_i| is a safe envelope.
        let unfused = dot_unfused(&a, &b);
        let magnitude: f64 = a.iter().zip(&b).map(|(&x, &y)| (x * y).abs()).sum();
        let bound = (n as f64 + 1.0) * f64::EPSILON * magnitude + f64::MIN_POSITIVE;
        prop_assert!(
            (reference - unfused).abs() <= bound,
            "fused {} vs unfused {} exceeds envelope {}",
            reference, unfused, bound
        );
    }
}
