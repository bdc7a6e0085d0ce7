//! Corruption fuzz for `snapshot::restore`.
//!
//! The contract: `restore` over arbitrary damaged input — truncations,
//! bit flips, hostile length fields — returns a checked `SnapshotError`.
//! It never panics, and it never trusts a length field it has not
//! clamped against the remaining input, so a hostile count cannot drive a
//! huge allocation. Every single-bit flip anywhere in the stream is
//! *detected*: magic/version checks over the 12-byte head, CRC-32 over
//! every chunk.

mod support;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use support::reference::RefStream;
use ucpc::core::codec::crc32;
use ucpc::core::incremental::IncrementalUcpc;
use ucpc::core::{PruningConfig, SnapshotError};
use ucpc::uncertain::{UncertainObject, UnivariatePdf};

/// Valid victim snapshots, one per pruning configuration, built once.
/// Each victim's engine is checked against the reference model first, so
/// the fuzz starts from a state known to be right.
fn victims() -> &'static Vec<Vec<u8>> {
    static VICTIMS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    VICTIMS.get_or_init(|| {
        let mut out = Vec::new();
        for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
            let mut engine = IncrementalUcpc::new(2, 3).unwrap();
            engine.set_pruning(pruning);
            let mut reference = RefStream::new(2, 3);
            let mut rng = StdRng::seed_from_u64(5);
            let mut handles = Vec::new();
            for _ in 0..40 {
                let o = UncertainObject::new(vec![
                    UnivariatePdf::normal(rng.gen_range(-10.0..10.0), 0.3),
                    UnivariatePdf::uniform_centered(rng.gen_range(-3.0..3.0), 0.5),
                ]);
                handles.push(engine.insert(&o).unwrap());
                reference.insert(&o).unwrap();
            }
            for i in [3, 11, 26] {
                engine.remove(handles[i]).unwrap();
                reference.remove(handles[i]).unwrap();
            }
            assert_eq!(engine.stabilize(3), reference.stabilize(3));
            let bytes = engine.snapshot();
            let back = IncrementalUcpc::restore(&bytes).unwrap();
            assert_eq!(back.live_labels(), reference.live_labels());
            assert_eq!(back.cluster_stats(), reference.cluster_stats());
            out.push(bytes);
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Any strict truncation of a valid snapshot (either victim) is a
    /// checked error: every read is bounded by the input, so starving the
    /// tail can only surface as `SnapshotError`.
    #[test]
    fn truncations_always_fail_checked(which in 0usize..2, frac in 0.0f64..1.0) {
        let v = &victims()[which];
        let cut = ((v.len() - 1) as f64 * frac) as usize;
        prop_assert!(IncrementalUcpc::restore(&v[..cut]).is_err());
    }

    /// Any single-bit flip never panics and is always *detected* as a
    /// checked error.
    #[test]
    fn bit_flips_never_panic_and_v2_always_detects(
        which in 0usize..2,
        frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let v = &victims()[which];
        let pos = ((v.len() - 1) as f64 * frac) as usize;
        let mut bent = v.clone();
        bent[pos] ^= 1 << bit;
        prop_assert!(
            IncrementalUcpc::restore(&bent).is_err(),
            "flip at byte {} bit {} undetected", pos, bit
        );
    }

    /// Random garbage never panics. (Almost everything fails the magic
    /// check; what survives must fail a later structural check.)
    #[test]
    fn random_bytes_never_panic(seed in 0u64..1_000_000, len in 0usize..4096) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
        prop_assert!(IncrementalUcpc::restore(&bytes).is_err());
    }
}

/// A hostile count must fail fast against the pre-allocation clamp, not
/// reach an allocator — and the clamp itself, not the checksum, must be
/// what stops it. So the META chunk's `k` or `n_slots` is patched to
/// `u64::MAX` (with `n_free` kept consistent, so the free-list check
/// passes) and the chunk CRC is re-sealed: the input is checksum-clean and
/// asks restore for ~10^19 clusters or slots backed by a few hundred bytes.
#[test]
fn hostile_meta_count_fields_fail_fast_without_allocating() {
    let victim = &victims()[0];
    // Head: magic(8) + version(4). META chunk: len u32 at 12, kind at 16,
    // pruning 17, then u64 fields m 18, k 26, live 34, n_slots 42,
    // n_free 50 — see the module docs format table.
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let len = u32::from_le_bytes(victim[12..16].try_into().unwrap()) as usize;
    let crc_at = 16 + len;
    let live = u64_at(victim, 34);
    for (field, patches) in [
        ("k", vec![(26, u64::MAX)]),
        ("n_slots", vec![(42, u64::MAX), (50, u64::MAX - live)]),
    ] {
        let mut bent = victim.clone();
        for (at, value) in patches {
            bent[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
        let crc = crc32(&bent[12..crc_at]);
        bent[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            IncrementalUcpc::restore(&bent).unwrap_err(),
            SnapshotError::Truncated,
            "hostile {field}"
        );
    }
}

/// The first chunk's length field patched to `u32::MAX` claims a 4 GiB
/// payload; the reader must reject it against the bytes actually present
/// before allocating anything.
#[test]
fn hostile_v2_chunk_length_fails_fast_without_allocating() {
    let mut bent = victims()[1].clone();
    // Head: magic(8) + version(4); the first chunk's length is at 12.
    bent[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        IncrementalUcpc::restore(&bent).unwrap_err(),
        SnapshotError::Truncated
    );
}

/// The byte offsets of every chunk of a snapshot: `(start, kind)`, where
/// `start` is the chunk's length field. The head is 12 bytes; a chunk is
/// `len u32 | kind u8 | body | crc u32`.
fn chunks(snapshot: &[u8]) -> Vec<(usize, u8)> {
    let mut out = Vec::new();
    let mut at = 12;
    while at < snapshot.len() {
        let len = u32::from_le_bytes(snapshot[at..at + 4].try_into().unwrap()) as usize;
        out.push((at, snapshot[at + 4]));
        at += 4 + len + 4;
    }
    out
}

/// Overwrites `bytes` at `at` inside the chunk starting at `chunk` and
/// re-seals that chunk's CRC, so only restore's own checks can object.
fn patch_and_reseal(snapshot: &[u8], chunk: usize, at: usize, bytes: &[u8]) -> Vec<u8> {
    let mut bent = snapshot.to_vec();
    bent[at..at + bytes.len()].copy_from_slice(bytes);
    let len = u32::from_le_bytes(bent[chunk..chunk + 4].try_into().unwrap()) as usize;
    let crc_at = chunk + 4 + len;
    let crc = crc32(&bent[chunk..crc_at]);
    bent[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    bent
}

/// Restore checks its STATS section against the rows instead of trusting
/// it: a checksum-clean snapshot whose cluster 0 claims `psi[0] = NaN`, or
/// size 0 while live slots carry label 0, or whose first row is NaN, is
/// corrupt: restored as-is, the first would yield `J = NaN` and the
/// second a panic in the next relocation pass.
#[test]
fn restore_refuses_stats_that_disagree_with_the_rows_or_are_not_finite() {
    for victim in victims() {
        let back = IncrementalUcpc::restore(victim).unwrap();
        // META is the first chunk: after pruning 17, the five u64 fields
        // from m at 18 to n_free at 50, then cluster 0's STATS from 58:
        // size u64, psi m × f64.
        let size_at = 58;
        let size = u64::from_le_bytes(victim[size_at..size_at + 8].try_into().unwrap());
        assert_eq!(size as usize, back.sizes()[0], "offsets match the format");
        assert!(size > 0, "cluster 0 has members");
        let rows = chunks(victim)
            .into_iter()
            .find(|&(_, kind)| kind == 4)
            .expect("a ROWS chunk")
            .0;
        for (what, bent) in [
            (
                "psi[0] = NaN",
                patch_and_reseal(victim, 12, size_at + 8, &f64::NAN.to_le_bytes()),
            ),
            (
                "size = 0",
                patch_and_reseal(victim, 12, size_at, &0u64.to_le_bytes()),
            ),
            (
                "row mu[0] = NaN",
                patch_and_reseal(victim, rows, rows + 5, &f64::NAN.to_le_bytes()),
            ),
        ] {
            assert!(
                matches!(
                    IncrementalUcpc::restore(&bent),
                    Err(SnapshotError::Corrupt(_))
                ),
                "{what}: {:?}",
                IncrementalUcpc::restore(&bent).map(|e| e.objective())
            );
        }
    }
}
