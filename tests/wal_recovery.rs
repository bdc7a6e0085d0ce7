//! Crash-point recovery differential suite.
//!
//! The contract under test is the durability half of the serving layer's
//! crash-safety story: a serving engine logging through the write-ahead
//! log can lose its process at **any byte** of the log, and
//! `recover(checkpoint, wal_prefix)` plus replay of the lost suffix
//! rebuilds labels, handles, per-cluster statistic bits and objective
//! bits **byte-identical** to the run that never crashed, and to the
//! per-object reference model `RefStream` (`tests/support/reference.rs`)
//! serving the same request script serially. The oracle is driven by the
//! requests, never by decoding the log: decoded decisions folded into the
//! oracle would check the fold against itself. Pinned with pruning off and
//! on, at every frame boundary and mid-frame, from a checksummed snapshot
//! checkpoint; plus a bit-flip sweep asserting corruption anywhere in the
//! log or checkpoint surfaces as a checked error or reported damage, and
//! hostile checksum-valid rounds that recovery must refuse — never a
//! panic, never silent divergence.

mod support;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::reference::RefStream;
use ucpc::core::codec::crc32;
use ucpc::core::fault::IoFault;
use ucpc::core::incremental::{IncrementalUcpc, ObjectHandle};
use ucpc::core::serving::{ServingConfig, ServingResponse, ServingUcpc};
use ucpc::core::wal::{
    recover, scan_wal, DurableIo, LogEntry, LogOp, SharedVecIo, WalError, WalFsync, WalScan,
    WalWriter, WAL_HEADER_LEN, WAL_MAGIC,
};
use ucpc::core::PruningConfig;
use ucpc::uncertain::{UncertainObject, UnivariatePdf};

/// One scripted serving mutation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Commit(f64, f64),
    /// Remove the `r`-th (mod count) committed handle — possibly stale,
    /// which the serving layer answers without logging.
    Remove(usize),
    Stabilize(usize),
}

fn script(seed: u64, steps: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..steps)
        .map(|_| match rng.gen_range(0..10u8) {
            0..=5 => Op::Commit(rng.gen_range(-10.0..10.0), rng.gen_range(0.05..0.8)),
            6..=7 => Op::Remove(rng.gen_range(0..64)),
            _ => Op::Stabilize(rng.gen_range(1..3)),
        })
        .collect()
}

fn obj(c: f64, s: f64) -> UncertainObject {
    UncertainObject::new(vec![
        UnivariatePdf::normal(c, s),
        UnivariatePdf::uniform_centered(-c * 0.5, s + 0.1),
    ])
}

/// The arrivals of the settled live window the checkpoint captures.
fn settled_arrivals() -> Vec<UncertainObject> {
    let mut rng = StdRng::seed_from_u64(11);
    (0..10)
        .map(|_| obj(rng.gen_range(-10.0..10.0), 0.3))
        .collect()
}

/// A settled live window: what the checkpoint captures.
fn settled(pruning: PruningConfig) -> IncrementalUcpc {
    let mut engine = IncrementalUcpc::new(2, 3).unwrap();
    engine.set_pruning(pruning);
    for o in settled_arrivals() {
        engine.insert(&o).unwrap();
    }
    engine.stabilize(3);
    engine
}

/// One request as the client submitted it, with the handle a remove
/// named resolved at submission time.
#[derive(Debug, Clone, Copy)]
enum Sent {
    Commit(f64, f64),
    Remove(ObjectHandle),
    Stabilize(usize),
}

/// Commits per cadence stabilization in [`logged_run`].
const STABILIZE_EVERY: usize = 5;
/// Passes per cadence stabilization in [`logged_run`].
const STABILIZE_PASSES: usize = 2;

/// The reference model after the settled window and the request script,
/// served one request at a time: a commit is an insert, and every
/// `STABILIZE_EVERY`-th commit runs the cadence stabilization right after
/// it; a remove of a stale handle is refused and changes nothing.
fn reference_model(requests: &[Sent]) -> RefStream {
    let mut model = RefStream::new(2, 3);
    for o in settled_arrivals() {
        model.insert(&o).unwrap();
    }
    model.stabilize(3);
    let mut commits = 0;
    for &r in requests {
        match r {
            Sent::Commit(c, s) => {
                model.insert(&obj(c, s)).unwrap();
                commits += 1;
                if commits % STABILIZE_EVERY == 0 {
                    model.stabilize(STABILIZE_PASSES);
                }
            }
            Sent::Remove(h) => {
                let _ = model.remove(h);
            }
            Sent::Stabilize(passes) => {
                model.stabilize(passes);
            }
        }
    }
    model
}

/// Everything one uninterrupted logged serving run leaves behind: the
/// checkpoint it started from, the full log it wrote, and the final
/// state the recovery at every cut must reproduce.
struct LoggedRun {
    checkpoint: Vec<u8>,
    wal: Vec<u8>,
    scan: WalScan,
    serving: ServingUcpc,
    requests: Vec<Sent>,
}

/// Runs the script through a serving engine logging into a shared sink.
/// Mixed micro-batches (batch 4) and a stabilize cadence make the log
/// carry every kind of round: commits, removes, explicit and cadence
/// stabilizations.
fn logged_run(pruning: PruningConfig) -> LoggedRun {
    let engine = settled(pruning);
    let checkpoint = engine.snapshot();
    let sink = SharedVecIo::new();
    let mut serving = ServingUcpc::over(
        engine,
        ServingConfig {
            batch: 4,
            queue_capacity: 16,
            deadline: None,
            stabilize_every: STABILIZE_EVERY,
            stabilize_passes: STABILIZE_PASSES,
            top_k: 2,
            ..ServingConfig::default()
        },
    );
    serving.detach_wal();
    serving.attach_wal(sink.clone()).unwrap();
    let mut handles: Vec<ObjectHandle> = Vec::new();
    let mut requests = Vec::new();
    let drain = |serving: &mut ServingUcpc, handles: &mut Vec<ObjectHandle>| {
        serving.flush();
        while let Some((_, resp)) = serving.pop_response() {
            match resp {
                ServingResponse::Committed { handle, .. } => handles.push(handle),
                ServingResponse::Failed { error } => panic!("faultless sink failed: {error}"),
                _ => {}
            }
        }
    };
    let mut queued = 0usize;
    for op in script(29, 60) {
        let sent = match op {
            Op::Commit(c, s) => Sent::Commit(c, s),
            Op::Remove(r) if !handles.is_empty() => Sent::Remove(handles[r % handles.len()]),
            Op::Remove(_) => continue,
            Op::Stabilize(p) => Sent::Stabilize(p),
        };
        match sent {
            Sent::Commit(c, s) => serving.submit_commit_object(&obj(c, s)),
            Sent::Remove(h) => serving.submit_remove(h),
            Sent::Stabilize(p) => serving.submit_stabilize(p),
        }
        .unwrap();
        requests.push(sent);
        queued += 1;
        if queued == 4 {
            queued = 0;
            drain(&mut serving, &mut handles);
        }
    }
    drain(&mut serving, &mut handles);
    assert!(serving.wal().unwrap().poisoned().is_none());
    let wal = sink.bytes();
    let scan = scan_wal(&wal).expect("own log scans");
    assert!(scan.damage.is_none(), "uncut log reported damage");
    assert_eq!(scan.records.len() as u64, serving.wal().unwrap().frames());
    assert!(
        scan.records.len() > 20,
        "script too small to exercise recovery"
    );
    LoggedRun {
        checkpoint,
        wal,
        scan,
        serving,
        requests,
    }
}

/// Every prefix length worth cutting at: 0 (crash before the header),
/// inside the header, every frame boundary, and the midpoint of every
/// frame.
fn cut_points(scan: &WalScan, wal_len: usize) -> Vec<usize> {
    let mut cuts = vec![0, 1, WAL_HEADER_LEN / 2, WAL_HEADER_LEN - 1, WAL_HEADER_LEN];
    let mut prev = WAL_HEADER_LEN as u64;
    for &end in &scan.frame_ends {
        cuts.push(((prev + end) / 2) as usize);
        cuts.push(end as usize);
        prev = end;
    }
    debug_assert_eq!(prev as usize, wal_len);
    cuts
}

#[test]
fn recovery_at_every_cut_point_is_bit_identical_across_the_matrix() {
    for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
        let what = format!("{pruning:?}");
        let run = logged_run(pruning);
        let reference = run.serving.engine();
        let model = reference_model(&run.requests);
        assert_eq!(reference.live_labels(), model.live_labels(), "{what}");
        assert_eq!(reference.cluster_stats(), model.cluster_stats(), "{what}");
        assert_eq!(
            reference.objective().to_bits(),
            model.objective().to_bits(),
            "{what}"
        );
        for cut in cut_points(&run.scan, run.wal.len()) {
            let rec = recover(&run.checkpoint, &run.wal[..cut])
                .unwrap_or_else(|e| panic!("{what}, cut {cut}: {e}"));
            // A cut on a frame boundary (or before any log bytes) is a
            // clean prefix; anything else must be reported as damage
            // with the salvage point right at the last boundary.
            let boundary =
                cut == 0 || cut == WAL_HEADER_LEN || run.scan.frame_ends.contains(&(cut as u64));
            if boundary {
                assert!(rec.damage.is_none(), "{what}, cut {cut}: {:?}", rec.damage);
                assert_eq!(rec.valid_bytes as usize, cut, "{what}, cut {cut}");
            } else {
                assert!(rec.damage.is_some(), "{what}, cut {cut}: damage unreported");
                assert!(rec.valid_bytes as usize <= cut, "{what}, cut {cut}");
            }
            // Finish the script: replay the rounds the crash cut off.
            let mut engine = rec.engine;
            for r in &run.scan.records[rec.frames_applied as usize..] {
                engine.apply_round(&r.entries).expect("suffix replays");
            }
            assert_eq!(
                engine.live_labels(),
                reference.live_labels(),
                "labels/handles diverged: {what}, cut {cut}"
            );
            assert_eq!(
                engine.cluster_stats(),
                reference.cluster_stats(),
                "cluster statistic bits diverged: {what}, cut {cut}"
            );
            assert_eq!(
                engine.objective().to_bits(),
                reference.objective().to_bits(),
                "objective bits diverged: {what}, cut {cut}"
            );
        }
    }
}

#[test]
fn corruption_anywhere_is_a_checked_error_or_reported_damage() {
    let run = logged_run(PruningConfig::Bounds);
    // Flip bits across the whole log: CRC-32 catches every single-bit
    // flip inside a frame or the header, and flips in the magic/version
    // prefix are hard errors — recovery must never panic and never
    // silently accept a flipped log as fully intact.
    for pos in 0..run.wal.len() {
        let bit = (pos % 8) as u8;
        let mut bent = run.wal.clone();
        bent[pos] ^= 1 << bit;
        match recover(&run.checkpoint, &bent) {
            Err(_) => {}
            Ok(rec) => assert!(
                rec.damage.is_some(),
                "flip at byte {pos} bit {bit} went undetected"
            ),
        }
    }
    // Flip bits across the checkpoint: every byte past the 12-byte
    // head is under a chunk checksum, and head flips fail the magic or
    // version check — always a checked snapshot error.
    for pos in (0..run.checkpoint.len()).step_by(3) {
        let bit = (pos % 8) as u8;
        let mut bent = run.checkpoint.clone();
        bent[pos] ^= 1 << bit;
        assert!(
            recover(&bent, &run.wal).is_err(),
            "checkpoint flip at byte {pos} bit {bit} went undetected"
        );
    }
}

#[test]
fn recovery_from_a_faulted_writer_matches_the_applied_prefix() {
    // Drive a serving engine into an injected ENOSPC mid-flush: the
    // serving layer refuses the unlogged mutations (log-before-apply), and
    // recovery from the torn sink must reproduce exactly the engine the
    // survivor is left holding.
    let engine = settled(PruningConfig::Bounds);
    let checkpoint = engine.snapshot();
    let mut serving = ServingUcpc::over(
        engine,
        ServingConfig {
            batch: 8,
            queue_capacity: 16,
            deadline: None,
            stabilize_every: 0,
            stabilize_passes: 2,
            top_k: 2,
            ..ServingConfig::default()
        },
    );
    serving.detach_wal();
    // Room for the header and exactly two commit frames plus a torn sliver
    // of the third; the rest of the batch hits the wall. A commit frame is
    // len 4, tag 1, seq 8, count 4, one insert entry (op 1, slot 4,
    // cluster 4, then its m = 2 row as 2 × 2 f64s) and crc 4.
    let commit_frame = 4 + 1 + 8 + 4 + (1 + 4 + 4 + 2 * 2 * 8) + 4;
    let sink = SharedVecIo::limited(WAL_HEADER_LEN + 2 * commit_frame + 7);
    serving.attach_wal(sink.clone()).unwrap();
    for c in [0.0, 1.0, 2.0, 3.0, 4.0] {
        serving.submit_commit_object(&obj(c, 0.3)).unwrap();
    }
    serving.flush();
    let mut failed = 0;
    while let Some((_, resp)) = serving.pop_response() {
        if let ServingResponse::Failed { error } = resp {
            assert!(
                matches!(error, WalError::Io(_) | WalError::Poisoned(_)),
                "{error:?}"
            );
            failed += 1;
        }
    }
    assert_eq!(failed, 3, "commits past the wall must be refused");
    let rec = recover(&checkpoint, &sink.bytes()).unwrap();
    assert!(rec.damage.is_some(), "torn tail must be reported");
    assert_eq!(rec.frames_applied, 2);
    assert_eq!(
        rec.engine.live_labels(),
        serving.engine().live_labels(),
        "recovered state diverged from the survivor"
    );
    assert_eq!(
        rec.engine.objective().to_bits(),
        serving.engine().objective().to_bits()
    );
}

#[test]
fn damage_report_carries_offset_and_frame_index_of_first_damaged_frame() {
    let run = logged_run(PruningConfig::Bounds);
    // Damage frame 5 (0-based): its bytes span frame_ends[4]..frame_ends[5].
    let start = run.scan.frame_ends[4];
    let end = run.scan.frame_ends[5];

    // Mid-frame truncation: the report must name the damaged frame's own
    // byte offset and index, not just flag "damaged somewhere".
    let cut = ((start + end) / 2) as usize;
    let scan = scan_wal(&run.wal[..cut]).expect("valid prefix scans");
    let damage = scan.damage.expect("torn frame must be reported");
    assert_eq!(damage.offset, start, "offset of the first damaged frame");
    assert_eq!(damage.frame_index, 5, "index of the first damaged frame");
    assert_eq!(scan.valid_bytes, start, "salvage stops at the damage");
    assert_eq!(scan.records.len(), 5);

    // Mid-frame corruption in an otherwise complete log: same report,
    // and the intact suffix after the flip is NOT resurrected (a frame
    // boundary can't be trusted past a corrupt frame).
    let mut bent = run.wal.clone();
    let flip = ((start + end) / 2) as usize;
    bent[flip] ^= 0x40;
    let scan = scan_wal(&bent).expect("corrupt frame is damage, not an error");
    let damage = scan.damage.expect("corrupt frame must be reported");
    assert_eq!(damage.offset, start);
    assert_eq!(damage.frame_index, 5);
    assert_eq!(scan.records.len(), 5, "no frames past the corruption");

    // The same report surfaces through full recovery.
    let rec = recover(&run.checkpoint, &bent).expect("recovery salvages the prefix");
    let damage = rec.damage.expect("recovery reports the damage");
    assert_eq!((damage.offset, damage.frame_index), (start, 5));
}

#[test]
fn checkpoint_rotation_under_injected_sync_failure_is_atomic() {
    use ucpc::core::fault::IoFaultPlan;
    use ucpc::core::wal::VecIo;

    let engine = settled(PruningConfig::Bounds);
    let mut serving = ServingUcpc::over(
        engine,
        ServingConfig {
            batch: 2,
            queue_capacity: 16,
            deadline: None,
            stabilize_every: 0,
            stabilize_passes: 1,
            top_k: 1,
            ..ServingConfig::default()
        },
    );
    serving.detach_wal();

    // Poison the attached writer with an injected ENOSPC mid-commit.
    let torn = SharedVecIo::limited(WAL_HEADER_LEN + 10);
    serving.attach_wal(torn).unwrap();
    serving.submit_commit_object(&obj(1.0, 0.3)).unwrap();
    serving.submit_commit_object(&obj(2.0, 0.3)).unwrap();
    serving.flush();
    while serving.pop_response().is_some() {}
    assert!(
        serving.wal().unwrap().poisoned().is_some(),
        "writer must be poisoned by the injected fault"
    );
    let labels_before = serving.engine().live_labels();
    let objective_before = serving.engine().objective().to_bits();

    // Rotation attempt whose snapshot sync fails: a checked error, and
    // NO partial rotation — the poisoned writer stays attached, the
    // fresh log sink is never even created.
    let mut bad_snap = VecIo::with_faults(IoFaultPlan::new().failing_syncs());
    let fresh = SharedVecIo::new();
    let err = serving
        .checkpoint_into(&mut bad_snap, fresh.clone())
        .expect_err("failing snapshot sync must refuse the rotation");
    assert!(matches!(err, WalError::Io(_)), "{err:?}");
    assert!(
        serving.wal().unwrap().poisoned().is_some(),
        "failed rotation must leave the old (poisoned) writer in place"
    );
    assert!(fresh.bytes().is_empty(), "no header in the abandoned log");

    // Same discipline when the fresh log itself cannot be created.
    let mut snap = VecIo::new();
    serving
        .checkpoint_into(&mut snap, SharedVecIo::limited(4))
        .expect_err("unwritable fresh log must refuse the rotation");
    assert!(serving.wal().unwrap().poisoned().is_some());

    // And attach_wal under the same fault: checked error, old writer kept.
    serving
        .attach_wal(SharedVecIo::limited(4))
        .expect_err("unwritable attach must be refused");
    assert!(serving.wal().unwrap().poisoned().is_some());

    // The engine never moved through any of the failed rotations.
    assert_eq!(serving.engine().live_labels(), labels_before);
    assert_eq!(serving.engine().objective().to_bits(), objective_before);

    // A healthy rotation then recovers the pipeline: the poisoned writer
    // comes back out, and the new checkpoint + log pair round-trips.
    let mut snap = VecIo::new();
    let good = SharedVecIo::new();
    let old = serving
        .checkpoint_into(&mut snap, good.clone())
        .expect("healthy rotation succeeds")
        .expect("previous writer is returned");
    assert!(old.poisoned().is_some());
    assert!(serving.wal().unwrap().poisoned().is_none());
    serving.submit_commit_object(&obj(3.0, 0.3)).unwrap();
    serving.flush();
    while serving.pop_response().is_some() {}
    let rec = recover(snap.bytes(), &good.bytes()).expect("rotated pair recovers");
    assert!(rec.damage.is_none());
    assert_eq!(rec.engine.live_labels(), serving.engine().live_labels());
    assert_eq!(
        rec.engine.objective().to_bits(),
        serving.engine().objective().to_bits()
    );
}

/// A shared in-memory sink whose `fail_at`-th sync (counting from 1)
/// fails; every other call passes through.
#[derive(Debug)]
struct FlakySync {
    inner: SharedVecIo,
    syncs: u64,
    fail_at: u64,
}

impl DurableIo for FlakySync {
    fn write(&mut self, buf: &[u8]) -> Result<usize, IoFault> {
        self.inner.write(buf)
    }

    fn sync(&mut self) -> Result<(), IoFault> {
        self.syncs += 1;
        if self.syncs == self.fail_at {
            return Err(IoFault::Failed {
                at: 0,
                what: "injected sync failure",
            });
        }
        self.inner.sync()
    }
}

#[test]
fn a_failed_per_frame_sync_still_logs_the_frame_it_follows() {
    // Under `UCPC_WAL_FSYNC=every` the second sync — the first commit
    // frame's — fails after the frame is fully appended. The frame is
    // readable at recovery, so the commit must apply; the writer is
    // poisoned, so the later commits must not.
    let engine = settled(PruningConfig::Bounds);
    let checkpoint = engine.snapshot();
    let mut serving = ServingUcpc::over(
        engine,
        ServingConfig {
            batch: 8,
            queue_capacity: 16,
            deadline: None,
            stabilize_every: 0,
            stabilize_passes: 2,
            top_k: 2,
            wal: false,
            wal_fsync: WalFsync::Every,
        },
    );
    let sink = SharedVecIo::new();
    serving
        .attach_wal(FlakySync {
            inner: sink.clone(),
            syncs: 0,
            fail_at: 2,
        })
        .unwrap();
    for c in [0.0, 1.0, 2.0] {
        serving.submit_commit_object(&obj(c, 0.3)).unwrap();
    }
    serving.flush();
    let responses: Vec<ServingResponse> = std::iter::from_fn(|| serving.pop_response())
        .map(|(_, r)| r)
        .collect();
    assert!(
        matches!(responses[0], ServingResponse::Committed { .. }),
        "{:?}",
        responses[0]
    );
    for r in &responses[1..] {
        assert!(
            matches!(
                r,
                ServingResponse::Failed {
                    error: WalError::Poisoned(_)
                }
            ),
            "{r:?}"
        );
    }
    assert!(serving.wal().unwrap().poisoned().is_some());
    assert_eq!(serving.engine().len(), settled_arrivals().len() + 1);
    let rec = recover(&checkpoint, &sink.bytes()).unwrap();
    assert_eq!(rec.damage, None);
    assert_eq!(rec.frames_applied, 1);
    assert_eq!(rec.engine.live_labels(), serving.engine().live_labels());
    assert_eq!(rec.engine.cluster_stats(), serving.engine().cluster_stats());
    assert_eq!(
        rec.engine.objective().to_bits(),
        serving.engine().objective().to_bits()
    );
}

#[test]
fn a_stabilize_whose_round_hits_enospc_fails_and_changes_nothing() {
    // Two identical servings: the probe's log has room for everything,
    // the victim's for the commits only, so its stabilization runs its
    // passes and then cannot log their moves. Arrivals far past the
    // window drag one cluster's mean away from its older members, which
    // the stabilization then relocates.
    let commits = [25.0, 26.0, 27.0, 28.0];
    let serve = |sink: SharedVecIo| {
        let engine = settled(PruningConfig::Bounds);
        let mut serving = ServingUcpc::over(
            engine,
            ServingConfig {
                batch: 16,
                queue_capacity: 16,
                deadline: None,
                stabilize_every: 0,
                stabilize_passes: 2,
                top_k: 2,
                ..ServingConfig::default()
            },
        );
        serving.detach_wal();
        serving.attach_wal(sink).unwrap();
        for c in commits {
            serving.submit_commit_object(&obj(c, 0.3)).unwrap();
        }
        serving.flush();
        while serving.pop_response().is_some() {}
        serving
    };
    let checkpoint = settled(PruningConfig::Bounds).snapshot();
    let probe_sink = SharedVecIo::new();
    let mut probe = serve(probe_sink.clone());
    let commits_end = probe.wal().unwrap().bytes_logged() as usize;
    probe.submit_stabilize(3).unwrap();
    probe.flush();
    let moves = scan_wal(&probe_sink.bytes())
        .unwrap()
        .records
        .last()
        .unwrap()
        .entries
        .len();
    assert!(moves > 0, "the stabilization must relocate something");

    let sink = SharedVecIo::limited(commits_end + 10);
    let mut victim = serve(sink.clone());
    let before = victim.engine().clone();
    victim.submit_stabilize(3).unwrap();
    // Queries in the same flush, answered after the undone pass.
    let queries = [-5.0, 5.0, 26.0];
    for c in queries {
        victim.submit_query_object(&obj(c, 0.3)).unwrap();
    }
    victim.flush();
    let (_, resp) = victim.pop_response().unwrap();
    assert!(
        matches!(
            resp,
            ServingResponse::Failed {
                error: WalError::Io(IoFault::NoSpace { .. })
            }
        ),
        "{resp:?}"
    );
    let after = victim.engine();
    assert_eq!(after.live_labels(), before.live_labels());
    assert_eq!(after.cluster_stats(), before.cluster_stats());
    assert_eq!(after.objective().to_bits(), before.objective().to_bits());
    // Each query is answered against the restored statistics, bit for bit
    // what a live `delta_j_add` scan of `before` ranks.
    for c in queries {
        let (_, resp) = victim.pop_response().unwrap();
        let ServingResponse::Placed(answer) = resp else {
            panic!("query at {c} answered {resp:?}")
        };
        let o = obj(c, 0.3);
        let v = o.moments().view();
        let mut deltas: Vec<(usize, f64)> = before
            .cluster_stats()
            .iter()
            .enumerate()
            .map(|(c, s)| (c, s.delta_j_add(&v)))
            .collect();
        deltas.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite deltas"));
        let want: Vec<(usize, u64)> = deltas[..2].iter().map(|&(c, d)| (c, d.to_bits())).collect();
        let got: Vec<(usize, u64)> = answer
            .ranked()
            .iter()
            .map(|&(c, d)| (c, d.to_bits()))
            .collect();
        assert_eq!(got, want, "query at {c}");
        let margin = deltas[1].1 - deltas[0].1;
        assert_eq!(answer.margin().to_bits(), margin.to_bits(), "query at {c}");
    }

    // Recovery equals the survivor, and both evolve identically.
    let rec = recover(&checkpoint, &sink.bytes()).unwrap();
    assert!(rec.damage.is_some(), "the torn round must be reported");
    let (mut survivor, mut recovered) = (victim.into_engine(), rec.engine);
    assert_eq!(recovered.live_labels(), survivor.live_labels());
    assert_eq!(recovered.cluster_stats(), survivor.cluster_stats());
    assert_eq!(survivor.stabilize(3), recovered.stabilize(3));
    assert_eq!(recovered.live_labels(), survivor.live_labels());
    assert_eq!(recovered.cluster_stats(), survivor.cluster_stats());
    assert_eq!(
        recovered.objective().to_bits(),
        survivor.objective().to_bits()
    );
}

#[test]
fn a_flipped_log_header_byte_is_a_checked_error() {
    let run = logged_run(PruningConfig::Off);
    for pos in 0..WAL_HEADER_LEN {
        let mut bent = run.wal.clone();
        bent[pos] ^= 0x04;
        match recover(&run.checkpoint, &bent) {
            Err(WalError::BadMagic) => assert!(pos < WAL_MAGIC.len(), "byte {pos}"),
            Err(WalError::Corrupt {
                valid_bytes: 0,
                frames: 0,
                ..
            }) => assert!(pos >= WAL_MAGIC.len(), "byte {pos}"),
            other => panic!("byte {pos}: {other:?}"),
        }
    }
}

#[test]
fn a_version_1_log_is_rejected_as_unsupported() {
    let checkpoint = settled(PruningConfig::Off).snapshot();
    let mut header = WAL_MAGIC.to_vec();
    header.extend_from_slice(&1u32.to_le_bytes());
    header.extend_from_slice(&2u64.to_le_bytes());
    let crc = crc32(&header);
    header.extend_from_slice(&crc.to_le_bytes());
    assert_eq!(
        recover(&checkpoint, &header).unwrap_err(),
        WalError::UnsupportedVersion(1)
    );
}

#[test]
fn hostile_rounds_are_refused_at_the_intact_prefix() {
    // One intact round, then a checksum-valid round that must not apply.
    // Recovery reports it as corrupt at the end of the intact round —
    // never a panic, never a silently different engine.
    let engine = settled(PruningConfig::Off);
    assert!(
        engine.sizes().iter().all(|&n| n > 0),
        "every cluster is live"
    );
    let checkpoint = engine.snapshot();
    let labels = engine.live_labels();
    let (h, c) = (labels[0].0.slot() as u32, labels[0].1);
    let other = (c + 1) % 3;
    // No slot is free, so the intact round takes the next fresh slot and
    // the one after it is never allocated.
    let next = engine.slot_rows() as u32;
    let (row, row2, nan): (&[f64], &[f64], &[f64]) = (&[0.5, -0.5], &[0.5, 1.0], &[f64::NAN, 0.0]);
    let insert = |slot, cluster, mu: &'static [f64], mu2: &'static [f64]| LogEntry {
        op: LogOp::Insert { slot, cluster },
        mu,
        mu2,
    };
    let remove = |slot, cluster| LogEntry::bare(LogOp::Remove { slot, cluster });
    let relocate = |slot, src, dst| LogEntry::bare(LogOp::Move { slot, src, dst });
    // Drains cluster `c` member by member, then once more.
    let mut drain: Vec<_> = labels
        .iter()
        .filter(|&&(_, l)| l == c)
        .map(|&(m, _)| remove(m.slot() as u32, c))
        .collect();
    drain.push(remove(h, c));
    let cases = vec![
        (2, vec![insert(next + 1, 3, row, row2)], "out of range"),
        (2, vec![relocate(h, c, 3)], "out of range"),
        (
            2,
            vec![insert(next + 5, 0, row, row2)],
            "would not allocate",
        ),
        (2, vec![remove(next + 1, 0)], "free slot"),
        (2, vec![remove(h, other)], "wrong cluster"),
        (2, vec![relocate(next + 1, 0, 1)], "free slot"),
        (2, vec![relocate(h, other, c)], "wrong cluster"),
        (2, drain, "empty cluster"),
        (2, vec![insert(next + 1, 0, nan, row2)], "non-finite"),
        (
            2,
            vec![LogEntry::bare(LogOp::Insert {
                slot: next + 1,
                cluster: 0,
            })],
            "missing",
        ),
        (3, vec![], "sequence"),
    ];
    for (seq, bad, why) in cases {
        let sink = SharedVecIo::new();
        let mut w = WalWriter::create(sink.clone(), 2, WalFsync::Off).unwrap();
        w.log_round(1, &[insert(next, 0, row, row2)]).unwrap();
        let intact = w.bytes_logged();
        w.log_round(seq, &bad).unwrap();
        match recover(&checkpoint, &sink.bytes()) {
            Err(WalError::Corrupt {
                valid_bytes,
                frames,
                reason,
            }) => {
                assert_eq!((valid_bytes, frames), (intact, 1), "{bad:?}");
                assert!(reason.contains(why), "{bad:?}: {reason}");
            }
            other => panic!("{bad:?}: {other:?}"),
        }
    }
}
