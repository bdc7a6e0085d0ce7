//! Differential chaos harness for the sharded engine.
//!
//! Every test drives a [`ShardedUcpc`] and a single-node
//! [`IncrementalUcpc`] through the *same* scripted edit sequence and
//! asserts byte-identity — handle sequences, live labels, per-cluster
//! sufficient-statistic bits, and the objective — at every checkpoint of
//! the script. The sharded runs cover shard counts {1, 2, 4, 8}, seeded
//! fault schedules spanning drops / duplicates / reorders / bounded
//! delays, and mid-run participant crashes that recover from checkpoint +
//! WAL (including a torn log repaired by coordinator catch-up).
//!
//! Seeds fold in `UCPC_CHAOS_SEED` (via [`ChaosPlan::seed_from_env`]) so
//! CI can sweep fresh fault schedules without a code change; any failure
//! reproduces locally by exporting the same seed. SIMD coverage comes
//! from running this suite under the `UCPC_SIMD` env matrix — the kernels
//! are exact, so every lane width must reach the same bits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ucpc::core::incremental::IncrementalUcpc;
use ucpc::core::{ChaosPlan, PruningConfig, ShardedUcpc};
use ucpc::uncertain::{ObjectHandle, UncertainObject, UnivariatePdf};

const M: usize = 3;
const K: usize = 4;

fn object(rng: &mut StdRng) -> UncertainObject {
    UncertainObject::new(
        (0..M)
            .map(|_| UnivariatePdf::normal(rng.gen_range(-8.0..8.0), rng.gen_range(0.05..1.5)))
            .collect(),
    )
}

enum Step {
    Insert(UncertainObject),
    /// Remove the live handle at this index (modulo the live count).
    Remove(usize),
    Stabilize(usize),
}

/// A deterministic edit script: inserts dominate early so removals always
/// have material to work with, stabilize passes are sprinkled throughout.
fn script(seed: u64, len: usize) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live = 0usize;
    let mut steps = Vec::with_capacity(len);
    for _ in 0..len {
        let roll: f64 = rng.gen();
        if live < K + 2 || roll < 0.55 {
            steps.push(Step::Insert(object(&mut rng)));
            live += 1;
        } else if roll < 0.80 {
            steps.push(Step::Remove(rng.gen_range(0..64)));
            live -= 1;
        } else {
            steps.push(Step::Stabilize(1 + rng.gen_range(0..3usize)));
        }
    }
    steps.push(Step::Stabilize(4));
    steps
}

/// Byte-level equality of the replicated state: labels, per-cluster
/// sufficient statistics, and the objective.
fn assert_same_bits(sharded: &ShardedUcpc, single: &IncrementalUcpc, ctx: &str) {
    assert_eq!(sharded.len(), single.len(), "{ctx}: live count");
    assert_eq!(sharded.live_labels(), single.live_labels(), "{ctx}: labels");
    assert_eq!(
        sharded.objective().to_bits(),
        single.objective().to_bits(),
        "{ctx}: objective bits"
    );
    for (c, (a, b)) in sharded
        .cluster_stats()
        .iter()
        .zip(single.cluster_stats())
        .enumerate()
    {
        assert_eq!(a.size(), b.size(), "{ctx}: cluster {c} size");
        assert_eq!(
            a.j().to_bits(),
            b.j().to_bits(),
            "{ctx}: cluster {c} J bits"
        );
        assert_eq!(
            a.psi().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.psi().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{ctx}: cluster {c} psi bits"
        );
        assert_eq!(
            a.phi().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.phi().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{ctx}: cluster {c} phi bits"
        );
        assert_eq!(
            a.mean_sum().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.mean_sum().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{ctx}: cluster {c} mean-sum bits"
        );
    }
}

/// Applies one step to both engines, asserting the handle sequences stay
/// in lockstep. Returns whether the step was a stabilize (the natural
/// checkpoint for full-state comparison).
fn apply_step(
    step: &Step,
    sharded: &mut ShardedUcpc,
    single: &mut IncrementalUcpc,
    handles: &mut Vec<ObjectHandle>,
) -> bool {
    match step {
        Step::Insert(o) => {
            let hs = sharded.insert(o).expect("sharded insert");
            let hi = single.insert(o).expect("single insert");
            assert_eq!(hs, hi, "slot allocation diverged");
            handles.push(hs);
            false
        }
        Step::Remove(idx) => {
            let h = handles.swap_remove(idx % handles.len());
            sharded.remove(h).expect("sharded remove");
            single.remove(h).expect("single remove");
            false
        }
        Step::Stabilize(passes) => {
            let rounds = sharded.committed_rounds();
            let ms = sharded.stabilize(*passes);
            let mi = single.stabilize(*passes);
            assert_eq!(ms, mi, "relocation counts diverged");
            assert_eq!(
                sharded.committed_rounds(),
                rounds + 1,
                "one round per stabilize"
            );
            true
        }
    }
}

fn run_script(sharded: &mut ShardedUcpc, single: &mut IncrementalUcpc, steps: &[Step], ctx: &str) {
    let mut handles = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        if apply_step(step, sharded, single, &mut handles) {
            assert_same_bits(sharded, single, &format!("{ctx}, step {i}"));
        }
    }
    assert_same_bits(sharded, single, &format!("{ctx}, final"));
}

fn chaos_seed(salt: u64) -> u64 {
    // seed_from_env replaces the seed when UCPC_CHAOS_SEED is set; the
    // salt keeps distinct schedule slots distinct either way.
    ChaosPlan::clean(0xC0FF_EE00).seed_from_env().seed ^ salt
}

#[test]
fn clean_transport_matches_single_node_across_shard_counts_and_pruning() {
    for shards in [1usize, 2, 4, 8] {
        for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
            let mut sharded = ShardedUcpc::new(M, K, shards).unwrap();
            let mut single = IncrementalUcpc::new(M, K).unwrap();
            single.set_pruning(pruning);
            let steps = script(17, 60);
            run_script(
                &mut sharded,
                &mut single,
                &steps,
                &format!("clean, {shards} shard(s), pruning {pruning:?}"),
            );
            assert_eq!(
                sharded.retries(),
                0,
                "a clean transport must never retry ({shards} shards)"
            );
        }
    }
}

#[test]
fn fault_schedules_reach_identical_bits_at_every_shard_count() {
    let mut total_retries = 0u64;
    for shards in [1usize, 2, 4, 8] {
        let schedules = [
            ("drops", ChaosPlan::drops(chaos_seed(shards as u64), 0.25)),
            (
                "duplicates",
                ChaosPlan::duplicates(chaos_seed(0x10 + shards as u64), 0.25),
            ),
            (
                "reorders+delays",
                ChaosPlan::reorders(chaos_seed(0x20 + shards as u64), 0.30, 4),
            ),
            ("mixed", ChaosPlan::mixed(chaos_seed(0x30 + shards as u64))),
        ];
        for (name, plan) in schedules {
            let mut sharded = ShardedUcpc::with_chaos(M, K, shards, plan).unwrap();
            let mut single = IncrementalUcpc::new(M, K).unwrap();
            let steps = script(23, 40);
            run_script(
                &mut sharded,
                &mut single,
                &steps,
                &format!("{name}, {shards} shards"),
            );
            total_retries += sharded.retries();
        }
    }
    assert!(
        total_retries > 0,
        "lossy schedules must exercise the retry path"
    );
}

#[test]
fn mid_run_crash_recovery_and_rejoin_stays_bit_identical() {
    let crash_shard = 2;
    let mut sharded = ShardedUcpc::with_chaos(M, K, 4, ChaosPlan::mixed(chaos_seed(0x40))).unwrap();
    let mut single = IncrementalUcpc::new(M, K).unwrap();
    let steps = script(31, 48);
    let (first, rest) = steps.split_at(20);
    let (second, third) = rest.split_at(14);

    let mut handles = Vec::new();
    for step in first {
        apply_step(step, &mut sharded, &mut single, &mut handles);
    }
    // Checkpoint, keep editing so the WAL accumulates rounds past the
    // checkpoint, then crash: recovery must replay checkpoint + WAL and
    // rejoin at the committed watermark.
    sharded.checkpoint_shard(crash_shard).unwrap();
    for step in second {
        apply_step(step, &mut sharded, &mut single, &mut handles);
    }
    sharded.crash(crash_shard);
    sharded.restart(crash_shard).unwrap();
    assert_eq!(
        sharded.shard_applied(crash_shard),
        Some(sharded.committed_rounds()),
        "rejoin must land on the committed watermark"
    );
    assert_same_bits(&sharded, &single, "after crash + WAL recovery");

    // Tear the recovered shard's log mid-frame and crash again: the valid
    // prefix replays, coordinator catch-up supplies the missing rounds.
    sharded.truncate_shard_wal(crash_shard, 10);
    sharded.crash(crash_shard);
    sharded.restart(crash_shard).unwrap();
    assert_same_bits(&sharded, &single, "after torn log + catch-up");

    for step in third {
        if apply_step(step, &mut sharded, &mut single, &mut handles) {
            assert_same_bits(&sharded, &single, "post-recovery stabilize");
        }
    }
    assert_same_bits(&sharded, &single, "final state after recovery");
}
