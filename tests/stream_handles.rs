//! Generation-stamped handle suite for the streaming engine: heavy
//! free-list reuse and slot recycling, against the per-object reference
//! model (`tests/support/reference.rs`).
//!
//! The contract: under removal-heavy churn the engine issues exactly the
//! model's handles (last freed, first reused; a slot's generation bumps,
//! wrapping, when it is freed), and its labels, statistics and objective
//! bits match the model's through insertions, removals and relocation
//! passes, so a recycled row carries nothing of its previous occupant into
//! a fold or a scan. Every removed handle, however many times its slot was
//! recycled since, is a checked `ClusterError::StaleHandle`, never a
//! silent read of the slot's next occupant. Generation wraparound is the
//! `incremental::tests::generation_wraps_without_aliasing` unit test,
//! which seeds a slot's generation at `u32::MAX`.

mod support;

use proptest::prelude::*;
use std::collections::HashSet;
use support::reference::RefStream;
use ucpc::core::framework::ClusterError;
use ucpc::core::incremental::{IncrementalUcpc, ObjectHandle};
use ucpc::core::PruningConfig;
use ucpc::uncertain::Moments;

fn mo(seed: u64, m: usize) -> Moments {
    // Cheap deterministic per-seed payload; distinct across seeds so an
    // aliased read cannot accidentally match.
    let mu: Vec<f64> = (0..m).map(|j| (seed as f64) * 0.37 + j as f64).collect();
    let mu2: Vec<f64> = mu.iter().map(|&x| x * x + 0.25).collect();
    Moments::from_mu_mu2(mu, mu2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Removal-heavy random churn with periodic relocation passes: slots
    /// are recycled constantly, yet every handle, label and statistic
    /// matches the reference model bit for bit, and every retired handle
    /// is stale.
    #[test]
    fn churned_engine_matches_the_reference_bitwise(
        seed in 0u64..1_000_000,
        steps in 50usize..300,
        m in 1usize..6,
        k in 1usize..4,
        pruning in 0u8..2,
    ) {
        let mut engine = IncrementalUcpc::new(m, k).unwrap();
        if pruning == 1 {
            engine.set_pruning(PruningConfig::Bounds);
        }
        let mut reference = RefStream::new(m, k);
        let mut live: Vec<ObjectHandle> = Vec::new();
        let mut retired: Vec<ObjectHandle> = Vec::new();
        let mut issued: HashSet<ObjectHandle> = HashSet::new();

        // Deterministic pseudo-random walk off the proptest seed; biased
        // toward removal so the free list sees real traffic.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..steps {
            let r = next();
            if live.is_empty() || r % 5 < 2 {
                let arrival = mo(seed.wrapping_add(step as u64), m);
                let h = engine.insert_moments(&arrival).unwrap();
                prop_assert_eq!(reference.insert_moments(&arrival), Ok(h));
                prop_assert!(issued.insert(h), "handles are unique per run");
                live.push(h);
            } else {
                let idx = (r as usize / 5) % live.len();
                let h = live.swap_remove(idx);
                engine.remove(h).unwrap();
                reference.remove(h).unwrap();
                retired.push(h);
            }
            if step % 25 == 24 {
                prop_assert_eq!(engine.stabilize(2), reference.stabilize(2));
            }
        }

        prop_assert_eq!(engine.len(), live.len());
        prop_assert_eq!(engine.live_labels(), reference.live_labels());
        prop_assert_eq!(engine.cluster_stats(), reference.cluster_stats());
        prop_assert_eq!(engine.objective().to_bits(), reference.objective().to_bits());
        // Every retired handle is a checked error, no matter how many
        // occupants its slot has seen since.
        for &h in &retired {
            prop_assert_eq!(engine.label_of(h), None);
            let stale = ClusterError::StaleHandle {
                slot: h.slot() as u32,
                generation: h.generation(),
            };
            prop_assert_eq!(engine.remove(h), Err(stale));
        }
        prop_assert_eq!(engine.live_labels(), reference.live_labels());
    }
}
