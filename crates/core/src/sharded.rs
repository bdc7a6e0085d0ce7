//! Fault-tolerant sharded UCPC: a coordinator/participant layer that
//! partitions the live window across in-process "nodes" while keeping
//! labels, statistics bits and the objective **byte-identical to the
//! single-node [`crate::incremental::IncrementalUcpc`]** at every shard
//! count, under every injected fault schedule.
//!
//! # A shard follows the coordinator's log
//!
//! The single-node engine's state is a fold over a sequence of exact
//! `ClusterStats` transitions (`add_view` / `remove_view`), and the fold's
//! bits depend on its order: floating-point addition is not associative.
//! So the layer replicates the *sequence*, not the result, as the
//! [`LogEntry`] rounds every WAL holds. Every node is an
//! [`IncrementalUcpc`] replica folding those rounds through
//! [`IncrementalUcpc::apply_round`]:
//!
//! 1. The **coordinator** (node 0) decides and folds. An insert, a remove
//!    or a whole `stabilize` call runs on its replica, with the placement
//!    scan, relocation passes and pruning of the single-node engine, and
//!    it allocates slots and generations as a single node does, so
//!    handles match. The call's mutations become one round under the next
//!    sequence number; a `stabilize` that moves nothing commits an empty
//!    round.
//! 2. The coordinator seals the round into one WAL frame in its log. Each
//!    **participant** (shard `s`, node `s + 1`) takes the rounds past its
//!    watermark from that log in order, appends each frame verbatim to its
//!    shard log and folds it. The shard log's writer belongs to the
//!    shard's durable state, not to the participant, and nothing else
//!    writes to or locks it. Every replica runs `add_view`/`remove_view`
//!    itself, because the `S₂` update depends on the target's current
//!    sums: shipping the decisions and replaying the fold reproduces the
//!    bits, shipping deltas would not. The round commits once every
//!    participant holds it.
//!
//! All nodes are in-process, so only sequence numbers cross the fabric,
//! and each participant holds every live row, as the coordinator does. In
//! exchange serving, WAL replay and sharding share one fold, one state
//! encoding and one log shape. A shard's durable state is a serving
//! engine's: a checkpoint plus the WAL written since, in the formats
//! [`crate::wal`] and [`crate::snapshot`] document. Every shard is
//! checkpointed when the engine is built, so [`crate::wal::recover`] is
//! the one way a shard comes back.
//!
//! # Robustness
//!
//! Messages travel through a seeded chaos fabric ([`crate::fault`]) that
//! drops, duplicates, reorders and delays them per a [`ChaosPlan`]
//! ([`ShardedUcpc::new`] runs the lossless FIFO [`ChaosPlan::clean`]).
//! Replication is cumulative log shipping, as Raft followers track the
//! leader's log index:
//!
//! * **One cumulative message** — the coordinator sends each participant
//!   an [`Append`] naming the round in flight. The participant takes every
//!   round past its watermark up to that one and then sends the same
//!   `Append` back. No copy claims more than its sender held, so a
//!   duplicated, reordered or pre-crash copy takes nothing twice, and the
//!   coordinator counts a reply only when it covers the round in flight.
//! * **Retry with backoff** — the coordinator resends to every participant
//!   that has not answered, on deadlines counted in transport ticks that
//!   double per resend. The fabric steps only when nothing is deliverable,
//!   so schedules are deterministic.
//! * **Crash + recovery** — [`ShardedUcpc::crash`] drops a participant's
//!   volatile state; its checkpoint and shard log survive. While a shard
//!   is down, edits are refused with [`ClusterError::ShardDown`].
//!   [`ShardedUcpc::restart`] recovers the shard through
//!   [`crate::wal::recover`], re-checkpoints it, and takes the rounds it
//!   lacks from the coordinator's log in-process, as an `Append` would.
//! * **Bounded catch-up** — [`ShardedUcpc::checkpoint_shard`] trims every
//!   frame all shard checkpoints hold off the coordinator's log, since no
//!   shard recovers below its own checkpoint.
//!
//! The differential chaos harness (`tests/sharded_differential.rs`) pins
//! the headline: at shard counts {1, 2, 4, 8}, under clean and chaotic
//! schedules, with mid-run crash/recovery, the final labels, stats bits
//! and objective equal the single-node engine's bit-for-bit.

use crate::codec::Writer;
use crate::fault::{ChaosPlan, ChaosTransport};
use crate::framework::ClusterError;
use crate::incremental::IncrementalUcpc;
use crate::objective::ClusterStats;
use crate::snapshot::SnapshotError;
use crate::wal::{
    decode_frame, encode_checkpoint, encode_round, recover, LogEntry, Recovery, VecIo, WalError,
    WalFsync, WalWriter,
};
use std::ops::Range;
use ucpc_uncertain::{Moments, ObjectHandle, UncertainObject};

/// Ticks before an unanswered `Append` is resent; doubles per resend, to 64×.
const RETRY_BASE: u64 = 4;

/// Resends per round before a shard is declared unreachable.
const MAX_ATTEMPTS: u32 = 64;

/// The one protocol message, sent both ways. From the coordinator (node 0)
/// it asks a participant to hold every round up to `upto`; a participant
/// echoes it back once its watermark covers `upto`. Rounds are named by
/// sequence number only: a round's content is its sealed frame in the
/// coordinator's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Append {
    /// Sending node (0 = coordinator, `shard + 1` = participant).
    pub from: usize,
    /// Destination node.
    pub to: usize,
    /// The last round asked for (a request) or held (its echo).
    pub upto: u64,
}

/// The `expect` message of folds over rounds the coordinator built:
/// well-formed by construction, unlike rounds read back from a log.
const BUILT_ROUND: &str = "coordinator-built rounds are well-formed";

/// A shard log on `io`: a WAL of round frames, synced per round so a
/// round is durable before the shard acknowledges it.
fn shard_log(io: VecIo, m: usize) -> WalWriter<VecIo> {
    // Invariant: shard logs are unbounded in-memory sinks with no fault
    // plan, so neither the header write nor its sync can fail.
    WalWriter::create(io, m, WalFsync::Every).expect("in-memory shard log cannot fault")
}

/// One shard node's volatile state: an [`IncrementalUcpc`] replica
/// folding every round through [`IncrementalUcpc::apply_round`] and an
/// applied-sequence watermark. Its write-ahead shard log, which appends
/// the coordinator's sealed frames verbatim, is durable state
/// ([`ShardDurable`]) that each call is handed.
#[derive(Debug)]
struct Participant {
    engine: IncrementalUcpc,
    /// Highest round reflected in durable + volatile state. Rounds are
    /// taken in sequence order only, so a single watermark (not a gap
    /// set) suffices.
    applied: u64,
    /// The round being folded, decoded in place so that steady rounds
    /// allocate nothing.
    scratch: Vec<LogEntry>,
}

impl Participant {
    /// A participant holding `engine` at watermark `applied`.
    fn new(engine: IncrementalUcpc, applied: u64) -> Self {
        Self {
            engine,
            applied,
            scratch: Vec::new(),
        }
    }

    /// Takes every round past the watermark up to `upto`, in sequence
    /// order: each is read from the coordinator's `log`, appended verbatim
    /// to the shard log `wal` and folded. Returns whether the watermark
    /// now covers `upto`; it does not if `log` no longer holds a round it
    /// needs. A duplicate or stale request takes nothing. Round frames are
    /// atomic: a crash mid-round recovers to the previous round boundary.
    fn take_rounds(&mut self, upto: u64, log: &RoundLog, wal: &mut WalWriter<VecIo>) -> bool {
        while self.applied < upto {
            let Some(frame) = log.frame(self.applied + 1) else {
                return false;
            };
            // Invariant: see `shard_log` — the in-memory sink cannot fault.
            wal.append_frame(frame)
                .expect("in-memory shard log cannot fault");
            let folded = decode_frame(frame, self.engine.m, &mut self.scratch)
                .map_err(|_| "round frame does not decode")
                .and_then(|_| self.engine.apply_round(&self.scratch));
            folded.expect(BUILT_ROUND);
            self.applied += 1;
        }
        true
    }

    /// The participant's message loop body: take the rounds `msg` asks for
    /// and, once the watermark covers them, echo `msg` back; a request
    /// `log` can no longer serve goes unanswered. The echo names the round
    /// asked for, not the watermark, so a stale request's reply answers no
    /// later round, and the replies (and so the fault schedule) depend only
    /// on the requests delivered.
    fn handle(
        &mut self,
        msg: Append,
        log: &RoundLog,
        wal: &mut WalWriter<VecIo>,
        tx: &mut ChaosTransport<Append>,
    ) {
        if self.take_rounds(msg.upto, log, wal) {
            tx.send(
                msg.from,
                Append {
                    from: msg.to,
                    to: msg.from,
                    ..msg
                },
            );
        }
    }
}

/// A shard's surviving storage: the last checkpoint's bytes plus the
/// shard log accumulated since. Both live outside the participant, which
/// borrows the log's writer per call, so [`ShardedUcpc::crash`] destroys
/// only volatile state — exactly a process crash.
#[derive(Debug)]
struct ShardDurable {
    checkpoint: Vec<u8>,
    /// The watermark `checkpoint` holds; no recovery starts below it.
    checkpointed: u64,
    /// The shard log: its writer, and in its sink the bytes recovery
    /// reads.
    log: WalWriter<VecIo>,
}

/// Bytes a catch-up log block holds: frames fill fixed blocks rather than
/// one growing buffer, so an append never copies the frames already held.
const LOG_BLOCK: usize = 64 << 10;

/// The coordinator's catch-up log: the sealed frame of every committed
/// round past the lowest shard checkpoint, concatenated, plus that of the
/// round in flight. These are the bytes every shard log appends.
#[derive(Debug, Default)]
struct RoundLog {
    /// Rounds trimmed off the front: the log holds rounds `trimmed + 1`
    /// on.
    trimmed: u64,
    /// The frames, concatenated into blocks of at least [`LOG_BLOCK`]
    /// bytes that never outgrow their capacity.
    blocks: Vec<Vec<u8>>,
    /// Each held frame's block and byte range in it, in sequence order.
    frames: Vec<(usize, Range<usize>)>,
    /// The encoder's reused frame buffer.
    scratch: Writer,
}

impl RoundLog {
    /// Sequence number the next round takes.
    fn end(&self) -> u64 {
        self.trimmed + self.frames.len() as u64 + 1
    }

    /// Seals `entries` as round [`Self::end`] with the WAL's round encoder
    /// and appends the frame; returns its sequence number.
    fn push<R: AsRef<[f64]>>(&mut self, entries: &[LogEntry<R>]) -> Result<u64, WalError> {
        let seq = self.end();
        let frame = encode_round(&mut self.scratch, seq, entries)?;
        if self
            .blocks
            .last()
            .is_none_or(|b| b.capacity() - b.len() < frame.len())
        {
            self.blocks
                .push(Vec::with_capacity(frame.len().max(LOG_BLOCK)));
        }
        let b = self.blocks.len() - 1;
        let block = &mut self.blocks[b];
        self.frames
            .push((b, block.len()..block.len() + frame.len()));
        block.extend_from_slice(frame);
        Ok(seq)
    }

    /// The sealed frame of round `seq`, if the log holds it.
    fn frame(&self, seq: u64) -> Option<&[u8]> {
        let i = usize::try_from(seq.checked_sub(self.trimmed + 1)?).ok()?;
        let (b, range) = self.frames.get(i)?;
        self.blocks.get(*b)?.get(range.clone())
    }

    /// Trims every frame up to round `floor` off the front of the log, and
    /// the blocks no frame it keeps lies in.
    fn trim(&mut self, floor: u64) {
        let n = floor
            .saturating_sub(self.trimmed)
            .min(self.frames.len() as u64) as usize;
        self.frames.drain(..n);
        self.trimmed += n as u64;
        let dropped = self.frames.first().map_or(self.blocks.len(), |(b, _)| *b);
        self.blocks.drain(..dropped);
        self.frames.iter_mut().for_each(|(b, _)| *b -= dropped);
    }
}

/// A UCPC partition sharded across in-process coordinator/participant
/// nodes, byte-identical to [`crate::incremental::IncrementalUcpc`] at
/// any shard count under any tolerated fault schedule (see the module
/// docs for the replication and the bit-identity argument).
///
/// ```
/// use ucpc_core::sharded::ShardedUcpc;
/// use ucpc_uncertain::{UncertainObject, UnivariatePdf};
///
/// let mut sharded = ShardedUcpc::new(1, 2, 4).unwrap();
/// let mut ids = Vec::new();
/// for c in [0.0, 0.2, 9.0, 9.2] {
///     let o = UncertainObject::new(vec![UnivariatePdf::normal(c, 0.1)]);
///     ids.push(sharded.insert(&o).unwrap());
/// }
/// sharded.stabilize(5);
/// assert_eq!(sharded.label_of(ids[0]), sharded.label_of(ids[1]));
/// assert_ne!(sharded.label_of(ids[0]), sharded.label_of(ids[2]));
/// ```
#[derive(Debug)]
pub struct ShardedUcpc {
    shards: usize,
    transport: ChaosTransport<Append>,
    /// Node 0's engine replica: it allocates slots and generations (so
    /// handle sequences match the single-node engine), and it decides
    /// and folds every round before the round is shipped.
    engine: IncrementalUcpc,
    /// Sealed frames of the committed rounds past the lowest shard
    /// checkpoint (rounds start at 1), for participants to append.
    log: RoundLog,
    /// Per shard, for the round in flight: the tick its next resend is
    /// due and the resends so far, or `None` once the shard holds the
    /// round. Reused round to round.
    waiting: Vec<Option<(u64, u32)>>,
    /// Protocol retransmissions performed (diagnostic).
    retries: u64,
    participants: Vec<Option<Participant>>,
    durable: Vec<ShardDurable>,
}

impl ShardedUcpc {
    /// A sharded engine over `m` dimensions, `k` clusters and `shards`
    /// participants on a lossless FIFO fabric: [`Self::with_chaos`] under
    /// [`ChaosPlan::clean`]. `k == 0` is [`ClusterError::InvalidK`] and
    /// `shards == 0` is [`ClusterError::NoShards`].
    pub fn new(m: usize, k: usize, shards: usize) -> Result<Self, ClusterError> {
        Self::with_chaos(m, k, shards, ChaosPlan::clean(0))
    }

    /// [`Self::new`] on a chaos fabric faulting per `plan` (node 0 is the
    /// coordinator, nodes `1..=shards` the participants). Every shard
    /// starts as a clone of the coordinator's empty replica, checkpointed
    /// at watermark 0.
    pub fn with_chaos(
        m: usize,
        k: usize,
        shards: usize,
        plan: ChaosPlan,
    ) -> Result<Self, ClusterError> {
        let engine = IncrementalUcpc::new(m, k)?;
        if shards == 0 {
            return Err(ClusterError::NoShards);
        }
        let mut sharded = Self {
            shards,
            transport: ChaosTransport::new(shards + 1, plan),
            participants: (0..shards).map(|_| None).collect(),
            engine,
            log: RoundLog::default(),
            waiting: Vec::with_capacity(shards),
            retries: 0,
            durable: (0..shards)
                .map(|_| ShardDurable {
                    checkpoint: Vec::new(),
                    checkpointed: 0,
                    log: shard_log(VecIo::new(), m),
                })
                .collect(),
        };
        for shard in 0..shards {
            let p = Participant::new(sharded.engine.clone(), 0);
            sharded.anchor(shard, p);
        }
        Ok(sharded)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.engine.k
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// Whether no objects are present.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// Current total objective `Σ_C J(C)` from the coordinator replica.
    pub fn objective(&self) -> f64 {
        self.engine.objective()
    }

    /// The coordinator's per-cluster statistics replica.
    pub fn cluster_stats(&self) -> &[ClusterStats] {
        self.engine.cluster_stats()
    }

    /// A live participant's statistics replica (`None` while crashed) —
    /// the differential harness asserts these are bit-identical to the
    /// coordinator's after every committed round.
    pub fn shard_stats(&self, shard: usize) -> Option<&[ClusterStats]> {
        self.participants[shard]
            .as_ref()
            .map(|p| p.engine.cluster_stats())
    }

    /// A live participant's applied-sequence watermark.
    pub fn shard_applied(&self, shard: usize) -> Option<u64> {
        self.participants[shard].as_ref().map(|p| p.applied)
    }

    /// Rounds committed so far.
    pub fn committed_rounds(&self) -> u64 {
        self.log.end() - 1
    }

    /// Protocol retransmissions performed so far (0 on a clean fabric).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Current cluster of a live object; `None` if the handle is stale.
    pub fn label_of(&self, h: ObjectHandle) -> Option<usize> {
        self.engine.label_of(h)
    }

    /// Current handles and labels of all live objects, in slot order —
    /// directly comparable with the single-node engine's
    /// [`IncrementalUcpc::live_labels`] because the coordinator's replica
    /// allocates slots and generations as the single-node engine does.
    pub fn live_labels(&self) -> Vec<(ObjectHandle, usize)> {
        self.engine.live_labels()
    }

    /// Inserts an object into the cluster minimizing the objective
    /// increase, through a full protocol round; returns the same
    /// generation-stamped handle the single-node engine would.
    pub fn insert(&mut self, object: &UncertainObject) -> Result<ObjectHandle, ClusterError> {
        self.insert_moments(object.moments())
    }

    /// [`Self::insert`] for an arrival already reduced to its moments. A
    /// down shard is [`ClusterError::ShardDown`], a wrong dimensionality
    /// [`ClusterError::DimensionMismatch`] and a non-finite arrival
    /// [`ClusterError::NonFinite`]; each changes nothing and starts no
    /// round.
    pub fn insert_moments(&mut self, mo: &Moments) -> Result<ObjectHandle, ClusterError> {
        self.shards_up()?;
        let (h, op) = self.engine.insert_logged(mo)?;
        // The engine holds the arrival's rows bit for bit, so the frame
        // borrows them from the arrival.
        let (mu, mu2) = (mo.mu(), mo.mu2());
        self.run_round(&[LogEntry { op, mu, mu2 }]);
        Ok(h)
    }

    /// Removes a live object. A down shard is [`ClusterError::ShardDown`]
    /// and a stale handle [`ClusterError::StaleHandle`], both checked
    /// before anything changes.
    pub fn remove(&mut self, h: ObjectHandle) -> Result<(), ClusterError> {
        self.shards_up()?;
        let op = self.engine.remove_logged(h)?;
        self.run_round(&[LogEntry::bare(op)]);
        Ok(())
    }

    /// Runs up to `passes` relocation passes of Algorithm 1 on the
    /// coordinator's replica — the single-node pass itself, pruning
    /// included — and replicates every move it made as one round (an
    /// empty one if nothing moved); returns the number of relocations. A
    /// down shard is [`ClusterError::ShardDown`], checked before any pass
    /// runs, so nothing changes.
    pub fn try_stabilize(&mut self, passes: usize) -> Result<usize, ClusterError> {
        self.shards_up()?;
        let mut moves = Vec::new();
        let relocations = self
            .engine
            .stabilize_with(passes, |op| moves.push(LogEntry::bare(op)));
        self.run_round(&moves);
        Ok(relocations)
    }

    /// [`Self::try_stabilize`] for a caller that keeps every shard up.
    ///
    /// # Panics
    ///
    /// Panics, before any pass runs, if a shard is down: restart it
    /// first.
    pub fn stabilize(&mut self, passes: usize) -> usize {
        self.try_stabilize(passes)
            .unwrap_or_else(|down| panic!("cannot stabilize: {down}"))
    }

    /// [`ClusterError::ShardDown`] naming the first crashed shard, if any.
    fn shards_up(&self) -> Result<(), ClusterError> {
        match self.participants.iter().position(Option::is_none) {
            Some(shard) => Err(ClusterError::ShardDown { shard }),
            None => Ok(()),
        }
    }

    /// Kills a participant's volatile state (its process). Durable bytes
    /// — checkpoint and shard log — survive for [`Self::restart`]. Until
    /// then, inserts, removes and [`Self::try_stabilize`] are
    /// [`ClusterError::ShardDown`], and [`Self::stabilize`] panics.
    pub fn crash(&mut self, shard: usize) {
        assert!(
            self.participants[shard].is_some(),
            "shard {shard} is already down"
        );
        self.participants[shard] = None;
    }

    /// Recovers a crashed shard from its checkpoint and shard log through
    /// [`crate::wal::recover`], re-anchors its durable state as
    /// [`Self::checkpoint_shard`] does (so a torn tail is dropped, not
    /// appended after), then takes the committed rounds it lacks from the
    /// coordinator's log in-process, as an `Append` would. Whatever
    /// `recover` refuses, a replica of another `m` or `k`, or a watermark
    /// outside the rounds the coordinator keeps is a checked [`WalError`]
    /// and leaves the shard down; a torn log tail is not an error, because
    /// catch-up repairs it.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or still running.
    pub fn restart(&mut self, shard: usize) -> Result<(), WalError> {
        assert!(
            self.participants[shard].is_none(),
            "shard {shard} is running"
        );
        let d = &self.durable[shard];
        let Recovery {
            engine, applied, ..
        } = recover(&d.checkpoint, d.log.io().bytes())?;
        if engine.m != self.engine.m {
            return Err(WalError::DimensionMismatch {
                expected: self.engine.m,
                found: engine.m,
            });
        }
        if engine.k != self.engine.k {
            return Err(SnapshotError::Corrupt("checkpoint cluster count mismatch").into());
        }
        // Catch-up takes the committed rounds the coordinator's log holds,
        // so the recovered watermark must lie in `trimmed..end`.
        if applied >= self.log.end() || applied < self.log.trimmed {
            return Err(SnapshotError::Corrupt("shard watermark outside the catch-up log").into());
        }
        self.anchor(shard, Participant::new(engine, applied));
        // The re-anchor trims no round past this shard's watermark, so the
        // log holds every round the participant takes here.
        let committed = self.committed_rounds();
        if let Some(p) = &mut self.participants[shard] {
            p.take_rounds(committed, &self.log, &mut self.durable[shard].log);
        }
        Ok(())
    }

    /// Checkpoints a live shard: serializes its full state, installs it
    /// as the durable checkpoint, then rotates the shard log to a fresh
    /// header — the same checkpoint-then-rotate discipline as
    /// [`crate::serving::ServingUcpc::checkpoint_into`], at shard
    /// granularity. The coordinator then trims every committed round all
    /// shard checkpoints hold off its log: no catch-up can need it. A
    /// crashed shard is [`ClusterError::ShardDown`] and changes nothing:
    /// its durable bytes are what [`Self::restart`] recovers from.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn checkpoint_shard(&mut self, shard: usize) -> Result<(), ClusterError> {
        let p = self.participants[shard]
            .take()
            .ok_or(ClusterError::ShardDown { shard })?;
        self.anchor(shard, p);
        Ok(())
    }

    /// Runs shard `shard` as `p`, checkpointed as [`Self::checkpoint_shard`]
    /// describes.
    fn anchor(&mut self, shard: usize, p: Participant) {
        let d = &mut self.durable[shard];
        d.checkpoint = encode_checkpoint(&p.engine, p.applied);
        d.checkpointed = p.applied;
        // The rotated log reuses the old one's buffer.
        let mut io = std::mem::take(d.log.io_mut());
        io.truncate(0);
        d.log = shard_log(io, self.engine.m);
        let floor = self.durable.iter().map(|d| d.checkpointed).min();
        self.log.trim(floor.unwrap_or(0));
        self.participants[shard] = Some(p);
    }

    /// Truncates a shard's *durable* log to `keep` bytes — the
    /// crash-surgery hook recovery tests cut torn tails with. A running
    /// participant keeps its state and appends its next rounds after the
    /// cut. After a cut inside a frame, recovery stops at the tear and
    /// catch-up supplies the rest; after a cut on a frame boundary, the
    /// rounds appended since do not follow the log's sequence, and
    /// [`Self::restart`] refuses the log.
    pub fn truncate_shard_wal(&mut self, shard: usize, keep: usize) {
        self.durable[shard].log.io_mut().truncate(keep);
    }

    /// Delivers every deliverable message: live participants handle theirs
    /// (a crashed shard's mail is lost), and the coordinator stops waiting
    /// on every shard whose reply covers round `seq`. Returns whether
    /// anything was delivered.
    fn pump(&mut self, seq: u64) -> bool {
        let mut progressed = false;
        for shard in 0..self.shards {
            while let Some(msg) = self.transport.recv(shard + 1) {
                progressed = true;
                if let Some(p) = self.participants[shard].as_mut() {
                    let wal = &mut self.durable[shard].log;
                    p.handle(msg, &self.log, wal, &mut self.transport);
                }
            }
        }
        while let Some(reply) = self.transport.recv(0) {
            progressed = true;
            // Node 0 wraps out of range, as does any node past the shards.
            let wait = self.waiting.get_mut(reply.from.wrapping_sub(1));
            if let Some(wait) = wait.filter(|_| reply.upto >= seq) {
                *wait = None;
            }
        }
        progressed
    }

    /// One full committed round of entries the coordinator has already
    /// decided and folded: seal them into its log, send every shard an
    /// `Append` up to the new round, and drive the fabric until each shard
    /// replies that it holds the round, resending to the rest on backed-off
    /// deadlines counted in transport ticks (the fabric steps only when
    /// nothing was deliverable, so schedules are deterministic). Lockstep:
    /// the next sequence number is not used until this one is replicated.
    fn run_round<R: AsRef<[f64]>>(&mut self, entries: &[LogEntry<R>]) {
        let seq = self.log.push(entries).expect(BUILT_ROUND);
        let append = |shard: usize| Append {
            from: 0,
            to: shard + 1,
            upto: seq,
        };
        self.waiting.clear();
        let due = self.transport.tick + RETRY_BASE;
        self.waiting.resize(self.shards, Some((due, 0)));
        for shard in 0..self.shards {
            self.transport.send(shard + 1, append(shard));
        }
        while self.waiting.iter().any(Option::is_some) {
            if self.pump(seq) {
                continue;
            }
            self.transport.step();
            let now = self.transport.tick;
            for (shard, wait) in self.waiting.iter_mut().enumerate() {
                let Some((due, resends)) = wait.as_mut().filter(|(due, _)| now >= *due) else {
                    continue;
                };
                assert!(
                    *resends < MAX_ATTEMPTS,
                    "shard {shard} unresponsive after {resends} retransmissions"
                );
                self.transport.send(shard + 1, append(shard));
                self.retries += 1;
                *resends += 1;
                *due = now + (RETRY_BASE << (*resends).min(6));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Dice;
    use crate::wal::{scan_wal, DurableIo, LogOp, WalRecord, WAL_HEADER_LEN};
    use ucpc_uncertain::UnivariatePdf;

    fn obj(c: f64) -> UncertainObject {
        UncertainObject::new(vec![UnivariatePdf::normal(c, 0.2)])
    }

    fn bits_equal(a: &ClusterStats, b: &ClusterStats) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        a.size() == b.size()
            && a.j().to_bits() == b.j().to_bits()
            && bits(a.psi()) == bits(b.psi())
            && bits(a.phi()) == bits(b.phi())
            && bits(a.mean_sum()) == bits(b.mean_sum())
    }

    fn assert_matches_single_node(sharded: &ShardedUcpc, single: &IncrementalUcpc) {
        assert_eq!(sharded.live_labels(), single.live_labels());
        assert_eq!(
            sharded.objective().to_bits(),
            single.objective().to_bits(),
            "objective must be bit-identical"
        );
        for (a, b) in sharded.cluster_stats().iter().zip(single.cluster_stats()) {
            assert!(bits_equal(a, b), "coordinator stats replica diverged");
        }
        let coordinator = sharded.engine.snapshot();
        for (shard, p) in sharded.participants.iter().enumerate() {
            let p = p.as_ref().expect("shard alive");
            for (a, b) in p.engine.cluster_stats().iter().zip(single.cluster_stats()) {
                assert!(bits_equal(a, b), "shard {shard} stats replica diverged");
            }
            assert!(
                p.engine.snapshot() == coordinator,
                "shard {shard} replica diverged"
            );
        }
    }

    fn drive_script(sharded: &mut ShardedUcpc, single: &mut IncrementalUcpc) {
        let mut handles = Vec::new();
        for (i, c) in [0.0, 0.3, 9.0, 9.1, 0.1, 8.8, 0.2, 9.3, 4.5, 0.05]
            .iter()
            .enumerate()
        {
            let o = obj(*c);
            let hs = sharded.insert(&o).unwrap();
            let hn = single.insert(&o).unwrap();
            assert_eq!(hs, hn, "handle sequences must match");
            handles.push(hs);
            if i % 4 == 3 {
                assert_eq!(sharded.stabilize(3), single.stabilize(3));
            }
        }
        sharded.remove(handles[2]).unwrap();
        single.remove(handles[2]).unwrap();
        assert!(sharded.remove(handles[2]).is_err(), "stale handle checked");
        let o = obj(7.7);
        assert_eq!(sharded.insert(&o).unwrap(), single.insert(&o).unwrap());
        assert_eq!(sharded.stabilize(5), single.stabilize(5));
    }

    #[test]
    fn clean_sharded_run_is_bit_identical_to_single_node() {
        for shards in [1, 2, 3, 4] {
            let mut sharded = ShardedUcpc::new(1, 2, shards).unwrap();
            let mut single = IncrementalUcpc::new(1, 2).unwrap();
            drive_script(&mut sharded, &mut single);
            assert_matches_single_node(&sharded, &single);
            assert_eq!(sharded.retries(), 0, "clean fabric needs no retries");
        }
    }

    #[test]
    fn chaotic_fabric_reaches_the_same_bits_with_retries() {
        let plan = ChaosPlan::mixed(42).seed_from_env();
        let mut sharded = ShardedUcpc::with_chaos(1, 2, 3, plan).unwrap();
        let mut single = IncrementalUcpc::new(1, 2).unwrap();
        drive_script(&mut sharded, &mut single);
        assert_matches_single_node(&sharded, &single);
    }

    #[test]
    fn the_chaos_schedule_is_pinned() {
        // Captured on the commit before rounds became sealed frames that
        // messages name by sequence number: the same sends, in the same
        // order, roll the same dice.
        for (shards, retries) in [(2, 16), (3, 26)] {
            let mut sharded = ShardedUcpc::with_chaos(1, 2, shards, ChaosPlan::mixed(42)).unwrap();
            let mut single = IncrementalUcpc::new(1, 2).unwrap();
            drive_script(&mut sharded, &mut single);
            assert_eq!(
                (sharded.retries(), sharded.committed_rounds()),
                (retries, 15),
                "{shards} shards"
            );
        }
    }

    /// Every live shard's log is the WAL header plus the coordinator's
    /// frames for the rounds past that shard's checkpoint.
    fn assert_logs_are_the_coordinators_frames(sharded: &ShardedUcpc) {
        let header = WalWriter::create(VecIo::new(), sharded.engine.m, WalFsync::Off)
            .unwrap()
            .into_io()
            .into_bytes();
        for (shard, d) in sharded.durable.iter().enumerate() {
            if sharded.participants[shard].is_none() {
                continue;
            }
            let mut expected = header.clone();
            for seq in d.checkpointed + 1..=sharded.committed_rounds() {
                expected.extend_from_slice(sharded.log.frame(seq).unwrap());
            }
            assert_eq!(d.log.io().bytes(), expected, "shard {shard}");
        }
    }

    #[test]
    fn shard_logs_hold_the_coordinators_frames_through_chaos_checkpoints_and_crashes() {
        let plan = ChaosPlan::mixed(42).seed_from_env();
        let mut sharded = ShardedUcpc::with_chaos(1, 2, 3, plan).unwrap();
        let mut single = IncrementalUcpc::new(1, 2).unwrap();
        let mut handles = Vec::new();
        for (i, c) in [0.0, 0.3, 9.0, 9.1, 0.1, 8.8, 0.2, 9.3, 4.5, 0.05, 7.7, 0.4]
            .into_iter()
            .enumerate()
        {
            let h = sharded.insert(&obj(c)).unwrap();
            assert_eq!(h, single.insert(&obj(c)).unwrap());
            handles.push(h);
            match i % 4 {
                0 => sharded.checkpoint_shard(i % 3).unwrap(),
                1 => {
                    sharded.crash((i + 1) % 3);
                    assert_logs_are_the_coordinators_frames(&sharded);
                    sharded.restart((i + 1) % 3).unwrap();
                }
                2 => assert_eq!(sharded.stabilize(3), single.stabilize(3)),
                _ => {
                    let h = handles.remove(0);
                    sharded.remove(h).unwrap();
                    single.remove(h).unwrap();
                }
            }
            assert_logs_are_the_coordinators_frames(&sharded);
        }
        assert!(sharded.retries() > 0, "the schedule is lossy");
        assert_matches_single_node(&sharded, &single);
    }

    #[test]
    fn checkpointing_a_crashed_shard_is_refused_and_changes_nothing() {
        let mut sharded = ShardedUcpc::new(1, 2, 2).unwrap();
        for c in [0.0, 9.0, 0.3, 9.3] {
            sharded.insert(&obj(c)).unwrap();
        }
        sharded.checkpoint_shard(0).unwrap();
        sharded.insert(&obj(0.1)).unwrap();
        sharded.crash(1);
        let durable = |s: &ShardedUcpc| {
            let d = &s.durable[1];
            let log = d.log.io().bytes().to_vec();
            (d.checkpoint.clone(), d.checkpointed, log, s.log.trimmed)
        };
        let before = durable(&sharded);
        assert_eq!(
            sharded.checkpoint_shard(1),
            Err(ClusterError::ShardDown { shard: 1 })
        );
        assert_eq!(durable(&sharded), before, "the durable bytes stay put");
        sharded.restart(1).unwrap();
        assert_eq!(sharded.shard_applied(1), Some(sharded.committed_rounds()));
        sharded.checkpoint_shard(1).unwrap();
    }

    #[test]
    fn crash_recovery_rejoins_bit_identically() {
        let mut sharded = ShardedUcpc::new(1, 2, 2).unwrap();
        let mut single = IncrementalUcpc::new(1, 2).unwrap();
        for c in [0.0, 0.4, 9.0, 9.2, 0.2, 8.9, 0.3, 9.4, 0.1] {
            let o = obj(c);
            sharded.insert(&o).unwrap();
            single.insert(&o).unwrap();
        }
        sharded.checkpoint_shard(0).unwrap();
        sharded.crash(0);
        sharded.restart(0).unwrap();
        assert_eq!(sharded.shard_applied(0), Some(sharded.committed_rounds()));
        assert_eq!(sharded.stabilize(5), single.stabilize(5));
        assert_matches_single_node(&sharded, &single);
    }

    #[test]
    fn torn_shard_log_is_repaired_by_catchup() {
        let mut sharded = ShardedUcpc::new(1, 2, 2).unwrap();
        let mut single = IncrementalUcpc::new(1, 2).unwrap();
        for c in [0.0, 0.4, 9.0, 9.2, 0.2, 8.9, 0.3, 9.4, 0.1, 9.5] {
            let o = obj(c);
            sharded.insert(&o).unwrap();
            single.insert(&o).unwrap();
        }
        sharded.crash(1);
        // A cut three bytes into frame i + 1 keeps frames 0..=i whole:
        // recovery lands on frame i's round, before any catch-up.
        let (genesis, log) = (
            sharded.durable[1].checkpoint.clone(),
            sharded.durable[1].log.io().bytes().to_vec(),
        );
        let scan = scan_wal(&log).unwrap();
        for i in [0, scan.records.len() / 2, scan.records.len() - 2] {
            let seq = scan.records[i].seq;
            let cut = scan.frame_ends[i] as usize + 3;
            let r = recover(&genesis, &log[..cut]).unwrap();
            assert_eq!(r.applied, seq, "cut {cut} lands on frame {i}");
        }
        // Tear the log mid-header; recovery salvages the empty prefix and
        // catch-up replays the difference.
        sharded.truncate_shard_wal(1, 11);
        sharded.restart(1).unwrap();
        assert_eq!(sharded.shard_applied(1), Some(sharded.committed_rounds()));
        assert_eq!(sharded.stabilize(5), single.stabilize(5));
        assert_matches_single_node(&sharded, &single);
    }

    #[test]
    fn a_running_shard_appends_after_a_cut_and_recovers_to_the_tear() {
        let mut sharded = ShardedUcpc::new(1, 2, 2).unwrap();
        let mut single = IncrementalUcpc::new(1, 2).unwrap();
        let mut handles = Vec::new();
        for c in [0.0, 1.0, 10.0, 11.0, 12.0] {
            let h = sharded.insert(&obj(c)).unwrap();
            assert_eq!(h, single.insert(&obj(c)).unwrap());
            handles.push(h);
        }
        // Cut shard 1's log three bytes into round 3 while the shard runs.
        let ends = scan_wal(sharded.durable[1].log.io().bytes())
            .unwrap()
            .frame_ends;
        let cut = ends[1] as usize + 3;
        sharded.truncate_shard_wal(1, cut);
        let torn = sharded.durable[1].log.io().bytes().to_vec();
        // The running shard keeps folding and appends after the tear.
        assert_eq!(sharded.insert(&obj(0.5)), single.insert(&obj(0.5)));
        sharded.remove(handles[0]).unwrap();
        single.remove(handles[0]).unwrap();
        let moved = sharded.stabilize(3);
        assert_eq!(moved, single.stabilize(3));
        assert!(moved > 0, "the stabilize round carries moves");
        let committed = sharded.committed_rounds();
        assert_eq!(sharded.shard_applied(1), Some(committed));
        let mut expected = torn;
        for seq in 6..=committed {
            expected.extend_from_slice(sharded.log.frame(seq).unwrap());
        }
        let log = sharded.durable[1].log.io().bytes();
        assert_eq!(log, expected, "the rounds after the cut follow the tear");
        // Recovery stops at the tear; catch-up supplies the rest.
        let r = recover(&sharded.durable[1].checkpoint, log).unwrap();
        assert_eq!((r.applied, r.valid_bytes), (2, ends[1]));
        assert!(r.damage.is_some(), "the tear is damage, not an error");
        sharded.crash(1);
        sharded.restart(1).unwrap();
        assert_eq!(sharded.shard_applied(1), Some(committed));
        assert_logs_are_the_coordinators_frames(&sharded);
        assert_matches_single_node(&sharded, &single);
    }

    /// Installs `checkpoint` + `log` as shard 0's durable bytes and
    /// restarts it. A checked error leaves the shard down (`false`); a
    /// rejoin must land on the committed watermark with the coordinator's
    /// stats bits (`true`).
    fn restart_from(sharded: &mut ShardedUcpc, checkpoint: &[u8], log: &[u8]) -> bool {
        let d = &mut sharded.durable[0];
        d.checkpoint = checkpoint.to_vec();
        let io = d.log.io_mut();
        io.truncate(0);
        io.write_all(log).unwrap();
        if sharded.restart(0).is_err() {
            return false;
        }
        assert_eq!(sharded.shard_applied(0), Some(sharded.committed_rounds()));
        let replica = sharded.shard_stats(0).unwrap();
        assert!(replica
            .iter()
            .zip(sharded.cluster_stats())
            .all(|(a, b)| bits_equal(a, b)));
        sharded.crash(0);
        true
    }

    #[test]
    fn corrupt_shard_durable_state_is_a_checked_error_or_a_repaired_rejoin() {
        let mut sharded = ShardedUcpc::new(1, 2, 2).unwrap();
        for c in [0.0, 9.0, 0.3, 9.3, 0.1] {
            sharded.insert(&obj(c)).unwrap();
        }
        sharded.checkpoint_shard(0).unwrap();
        for c in [9.1, 0.2] {
            sharded.insert(&obj(c)).unwrap();
        }
        sharded.crash(0);
        let checkpoint = sharded.durable[0].checkpoint.clone();
        let log = sharded.durable[0].log.io().bytes().to_vec();
        assert!(restart_from(&mut sharded, &checkpoint, &log));
        // Every truncation — 0 to 4 bytes included, once an underflow.
        for cut in 0..checkpoint.len() {
            assert!(!restart_from(&mut sharded, &checkpoint[..cut], &log));
        }
        for byte in 0..checkpoint.len() {
            for bit in 0..8 {
                let mut bent = checkpoint.clone();
                bent[byte] ^= 1 << bit;
                assert!(!restart_from(&mut sharded, &bent, &log), "{byte}:{bit}");
            }
        }
        let mut dice = Dice::new(11);
        for len in [5, 12, 40, 300] {
            let garbage: Vec<u8> = (0..len).map(|_| dice.pick(256) as u8).collect();
            restart_from(&mut sharded, &garbage, &log);
        }
        // A torn tail past whole rounds rejoins through catch-up.
        for &end in &scan_wal(&log).unwrap().frame_ends {
            assert!(restart_from(
                &mut sharded,
                &checkpoint,
                &log[..end as usize - 1]
            ));
        }
        // A bad log header is a checked error; a torn one is a torn tail.
        for byte in 0..WAL_HEADER_LEN {
            let mut bent = log.clone();
            bent[byte] ^= 0x10;
            assert!(!restart_from(&mut sharded, &checkpoint, &bent), "{byte}");
            assert!(restart_from(&mut sharded, &checkpoint, &log[..byte]));
        }
        // Checksum-valid rounds, written through the log writer, that name
        // a cluster >= k, drain an empty cluster, carry a non-finite row,
        // name a free slot or the wrong cluster, or insert where the
        // engine would not allocate: checked errors at the end of the intact log,
        // never replay panics or silent poison. Slots 0..7 are live, 0, 2,
        // 4 and 6 in cluster 0 and 1, 3 and 5 in cluster 1; slot 7 is the
        // next to allocate.
        let rounds = scan_wal(&log).unwrap().records;
        let last = rounds.last().expect("the log holds rounds").seq;
        let with_round = |extra: &[LogEntry]| {
            let mut w = WalWriter::create(VecIo::new(), 1, WalFsync::Off).unwrap();
            for r in &rounds {
                w.log_round(r.seq, &r.entries).unwrap();
            }
            w.log_round(last + 1, extra).unwrap();
            w.into_io().into_bytes()
        };
        let insert = |slot, cluster| LogEntry {
            op: LogOp::Insert { slot, cluster },
            mu: vec![0.5],
            mu2: vec![0.5],
        };
        let bare = |op| LogEntry {
            op,
            mu: Vec::new(),
            mu2: Vec::new(),
        };
        let remove = |slot, cluster| bare(LogOp::Remove { slot, cluster });
        let relocate = |src, dst| bare(LogOp::Move { slot: 0, src, dst });
        let nan = LogEntry {
            op: LogOp::Insert {
                slot: 7,
                cluster: 0,
            },
            mu: vec![f64::NAN],
            mu2: vec![f64::NAN],
        };
        for (bad, why) in [
            (vec![nan], "non-finite"),
            (vec![insert(7, 2)], "out of range"),
            (vec![relocate(0, 2)], "out of range"),
            (vec![relocate(9, 0)], "out of range"),
            (
                vec![remove(1, 1), remove(3, 1), remove(5, 1), remove(1, 1)],
                "empty cluster",
            ),
            (vec![remove(7, 0)], "free slot or the wrong cluster"),
            (vec![remove(1, 0)], "free slot or the wrong cluster"),
            (vec![insert(3, 0)], "would not allocate"),
            (
                vec![insert(7, 0), remove(7, 0), remove(7, 0)],
                "free slot or the wrong cluster",
            ),
        ] {
            let bent = with_round(&bad);
            assert_eq!(&bent[..log.len()], &log[..], "re-logged prefix");
            match recover(&checkpoint, &bent) {
                Err(WalError::Corrupt {
                    valid_bytes,
                    frames,
                    reason,
                }) => {
                    let intact = (log.len() as u64, rounds.len() as u64);
                    assert_eq!((valid_bytes, frames), intact, "{bad:?}");
                    assert!(reason.contains(why), "{bad:?}: {reason}");
                }
                other => panic!("{bad:?}: {other:?}"),
            }
            assert!(!restart_from(&mut sharded, &checkpoint, &bent), "{bad:?}");
        }
        // The last of those rounds is valid without its final removal.
        let fine = with_round(&[insert(7, 0), remove(7, 0)]);
        assert!(recover(&checkpoint, &fine).is_ok());
        // A checkpoint holding a non-finite row is corrupt, not restored:
        // the live row of slot 0 is swapped for an infinite one.
        let mut p = recover(&checkpoint, &[]).unwrap();
        p.engine
            .rows
            .overwrite_row_with(0, 1, |_| (f64::INFINITY, 0.5));
        let poisoned = encode_checkpoint(&p.engine, p.applied);
        match recover(&poisoned, &[]) {
            Err(WalError::Snapshot(SnapshotError::Corrupt(reason))) => {
                assert!(reason.contains("non-finite"), "{reason}")
            }
            other => panic!("{other:?}"),
        }
        assert!(!restart_from(&mut sharded, &poisoned, &log));
    }

    #[test]
    fn chaos_transport_is_reproducible_from_its_seed() {
        let run = |plan: ChaosPlan| {
            let mut sharded = ShardedUcpc::with_chaos(1, 2, 2, plan).unwrap();
            for c in [0.0, 9.0, 0.1, 9.1, 0.2] {
                sharded.insert(&obj(c)).unwrap();
            }
            sharded.stabilize(3);
            (sharded.retries(), sharded.live_labels())
        };
        let plan = ChaosPlan::mixed(7).seed_from_env();
        assert_eq!(run(plan), run(plan), "same seed, same schedule");
    }

    #[test]
    fn a_pass_that_moves_nothing_commits_an_empty_round_that_replays_and_catches_up() {
        let mut sharded = ShardedUcpc::new(1, 2, 2).unwrap();
        let mut single = IncrementalUcpc::new(1, 2).unwrap();
        for c in [0.0, 0.4, 9.0, 9.2, 0.2, 8.9, 0.3, 9.4, 0.1, 9.5] {
            sharded.insert(&obj(c)).unwrap();
            single.insert(&obj(c)).unwrap();
        }
        sharded.stabilize(5);
        single.stabilize(5);
        let before = (
            sharded.committed_rounds(),
            sharded.durable[1].log.io().bytes().len(),
        );
        assert_eq!(sharded.stabilize(1), 0, "the window has settled");
        let still: Vec<u64> = (before.0 + 1..=sharded.committed_rounds()).collect();
        assert!(!still.is_empty(), "a pass that moves nothing still commits");
        // The sequence numbers of the empty rounds past `before`.
        let empty = |log: &[u8]| -> Vec<u64> {
            let scan = scan_wal(log).unwrap();
            scan.records
                .into_iter()
                .filter(|r: &WalRecord| r.entries.is_empty() && r.seq > before.0)
                .map(|r| r.seq)
                .collect()
        };
        let log = sharded.durable[1].log.io().bytes();
        assert_eq!(empty(log), still, "zero-entry rounds scan back");
        let r = recover(&sharded.durable[1].checkpoint, log).unwrap();
        assert_eq!(r.applied, sharded.committed_rounds(), "and replay in order");
        // Cut the empty rounds from shard 1's log: catch-up resends them.
        sharded.crash(1);
        sharded.truncate_shard_wal(1, before.1);
        sharded.restart(1).unwrap();
        assert_eq!(sharded.shard_applied(1), Some(sharded.committed_rounds()));
        assert_eq!(empty(sharded.durable[1].log.io().bytes()), still);
        assert_matches_single_node(&sharded, &single);
    }

    /// The coordinator asks a one-shard participant for rounds up to `upto`.
    fn append(upto: u64) -> Append {
        Append {
            from: 0,
            to: 1,
            upto,
        }
    }

    /// The participant's reply: it holds every round up to `upto`.
    fn held(upto: u64) -> Append {
        Append {
            from: 1,
            to: 0,
            upto,
        }
    }

    /// A coordinator log holding rounds `1..=n`, round `i` inserting slot
    /// `i - 1`.
    fn inserts(n: u32) -> RoundLog {
        let mut log = RoundLog::default();
        for slot in 0..n {
            let insert = LogOp::Insert { slot, cluster: 0 };
            log.push(&[LogEntry {
                op: insert,
                mu: [1.0],
                mu2: [2.0],
            }])
            .unwrap();
        }
        log
    }

    fn empty() -> IncrementalUcpc {
        IncrementalUcpc::new(1, 2).unwrap()
    }

    #[test]
    fn pre_crash_copies_neither_refold_a_round_nor_answer_one() {
        let mut sharded = ShardedUcpc::new(1, 2, 1).unwrap();
        let mut single = IncrementalUcpc::new(1, 2).unwrap();
        for c in [0.0, 9.0, 0.3, 9.3] {
            assert_eq!(sharded.insert(&obj(c)), single.insert(&obj(c)));
        }
        // Crash with a log torn inside round 3: recovery lands on round 2
        // and the restart catches up to round 4 in-process.
        sharded.crash(0);
        let ends = scan_wal(sharded.durable[0].log.io().bytes())
            .unwrap()
            .frame_ends;
        sharded.truncate_shard_wal(0, ends[2] as usize - 1);
        sharded.restart(0).unwrap();
        assert_eq!(sharded.shard_applied(0), Some(4));
        // Copies from the previous life, still in flight: requests for
        // rounds 2 and 4, and the old participant's reply for round 4.
        let stale = [append(2), append(4), held(4)];
        stale
            .into_iter()
            .for_each(|msg| sharded.transport.send(msg.to, msg));
        assert_eq!(sharded.insert(&obj(0.1)), single.insert(&obj(0.1)));
        assert_eq!(sharded.shard_applied(0), Some(5));
        assert_logs_are_the_coordinators_frames(&sharded);
        let seqs: Vec<u64> = scan_wal(sharded.durable[0].log.io().bytes())
            .unwrap()
            .records
            .iter()
            .map(|r| r.seq)
            .collect();
        assert_eq!(seqs, [3, 4, 5], "each round logged once, in order");
        assert_matches_single_node(&sharded, &single);
        // A stale reply covers no round past the one its sender held: with
        // every new message lost, round 6 waits out its resends for the
        // rejoined shard instead of committing on the old copies.
        stale
            .into_iter()
            .for_each(|msg| sharded.transport.send(msg.to, msg));
        sharded.transport.plan.drop = 1.0;
        let lost =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sharded.insert(&obj(9.1))));
        let why = lost.expect_err("round 6 must wait for the rejoined shard");
        let why = why.downcast_ref::<String>().expect("a formatted panic");
        assert!(why.contains("shard 0 unresponsive"), "{why}");
        assert_eq!(sharded.retries(), u64::from(MAX_ATTEMPTS));
    }

    #[test]
    fn an_append_takes_every_round_up_to_it_in_order() {
        let mut p = Participant::new(empty(), 0);
        let mut wal = shard_log(VecIo::new(), 1);
        let mut tx = ChaosTransport::new(2, ChaosPlan::clean(0));
        let rounds = inserts(4);
        p.handle(append(3), &rounds, &mut wal, &mut tx);
        assert_eq!(tx.recv(0), Some(held(3)));
        let log = wal.io().bytes();
        let seqs: Vec<u64> = scan_wal(log)
            .unwrap()
            .records
            .iter()
            .map(|r| r.seq)
            .collect();
        assert_eq!(seqs, [1, 2, 3], "no gap, and nothing past the request");
        let frames: Vec<u8> = (1..=3)
            .flat_map(|seq| rounds.frame(seq).unwrap().to_vec())
            .collect();
        assert_eq!(
            log[WAL_HEADER_LEN..],
            frames[..],
            "the coordinator's frames"
        );
        assert_eq!((p.applied, p.engine.len()), (3, 3));
    }

    #[test]
    fn a_duplicated_apply_is_re_acked_without_a_second_frame() {
        let mut p = Participant::new(empty(), 0);
        let mut wal = shard_log(VecIo::new(), 1);
        let mut tx = ChaosTransport::new(2, ChaosPlan::clean(0));
        let replies = |tx: &mut ChaosTransport<Append>| -> Vec<Append> {
            std::iter::from_fn(|| tx.recv(0)).collect()
        };
        let rounds = inserts(1);
        p.handle(append(1), &rounds, &mut wal, &mut tx);
        assert_eq!(replies(&mut tx), [held(1)]);
        let (log, state) = (wal.io().bytes().to_vec(), p.engine.snapshot());
        assert_eq!(scan_wal(&log).unwrap().records.len(), 1);
        p.handle(append(1), &rounds, &mut wal, &mut tx);
        assert_eq!(replies(&mut tx), [held(1)], "re-acked");
        assert_eq!(wal.io().bytes(), log, "no second log frame");
        assert!(p.engine.snapshot() == state, "no second fold");
        assert_eq!((p.applied, p.engine.len()), (1, 1));
    }

    #[test]
    fn a_round_missing_from_the_coordinator_log_goes_unanswered() {
        let mut p = Participant::new(empty(), 0);
        let mut wal = shard_log(VecIo::new(), 1);
        let mut tx = ChaosTransport::new(2, ChaosPlan::clean(0));
        let mut trimmed = inserts(1);
        trimmed.trim(1);
        p.handle(append(1), &trimmed, &mut wal, &mut tx);
        assert!(tx.recv(0).is_none(), "not acknowledged");
        assert_eq!((p.applied, wal.io().bytes().len()), (0, WAL_HEADER_LEN));
        // The retry finds the round once the log holds it.
        p.handle(append(1), &inserts(1), &mut wal, &mut tx);
        assert_eq!(tx.recv(0), Some(held(1)));
        assert_eq!((p.applied, p.engine.len()), (1, 1));
    }

    #[test]
    fn the_catch_up_log_holds_whole_frames_across_blocks_and_trims() {
        let mut log = RoundLog::default();
        // 16 KiB frames, and one frame larger than a block.
        let (row, big) = (vec![0.5; 1_000], vec![0.25; LOG_BLOCK / 8]);
        let mut sealed = Vec::new();
        for slot in 0..12 {
            let r = if slot == 7 { &big } else { &row };
            let round = [LogEntry {
                op: LogOp::Insert { slot, cluster: 0 },
                mu: r.as_slice(),
                mu2: r.as_slice(),
            }];
            let seq = log.push(&round).unwrap();
            let mut w = Writer::default();
            sealed.push(encode_round(&mut w, seq, &round).unwrap().to_vec());
        }
        assert!(log.blocks.len() > 3, "the frames span several blocks");
        let holds = |log: &RoundLog, from: u64| {
            assert_eq!(log.frame(from - 1), None, "trimmed");
            for seq in from..=12 {
                assert_eq!(log.frame(seq), Some(&sealed[seq as usize - 1][..]));
            }
            assert_eq!((log.frame(13), log.end()), (None, 13));
        };
        holds(&log, 1);
        log.trim(5);
        holds(&log, 6);
        log.trim(12);
        assert!(log.blocks.is_empty() && log.frames.is_empty(), "no bytes");
        holds(&log, 13);
    }

    #[test]
    fn a_torn_stabilize_round_recovers_at_every_cut() {
        let mut sharded = ShardedUcpc::new(1, 3, 2).unwrap();
        let mut single = IncrementalUcpc::new(1, 3).unwrap();
        for c in [
            5.8, 4.02, 8.42, 7.95, 3.87, 2.99, 6.98, 5.64, 3.71, 2.95, 0.27, 0.38,
        ] {
            sharded.insert(&obj(c)).unwrap();
            single.insert(&obj(c)).unwrap();
        }
        let (rounds, start) = (
            sharded.committed_rounds(),
            sharded.durable[0].log.io().bytes().len(),
        );
        let genesis = sharded.durable[0].checkpoint.clone();
        let moved = sharded.stabilize(5);
        assert_eq!(moved, single.stabilize(5));
        assert!(moved > 1, "the round carries several moves");
        assert_eq!(sharded.committed_rounds(), rounds + 1, "one round per call");
        let log = sharded.durable[0].log.io().bytes().to_vec();
        let scan = scan_wal(&log).unwrap();
        let frame = scan.records.last().unwrap();
        assert_eq!((frame.seq, frame.entries.len()), (rounds + 1, moved));
        for cut in start..log.len() {
            let r = recover(&genesis, &log[..cut]).unwrap();
            assert_eq!(r.applied, rounds, "cut {cut} drops the torn round");
            sharded.crash(0);
            let d = &mut sharded.durable[0];
            d.checkpoint.clone_from(&genesis);
            let io = d.log.io_mut();
            io.truncate(0);
            io.write_all(&log[..cut]).unwrap();
            sharded.restart(0).unwrap();
            assert_eq!(sharded.shard_applied(0), Some(rounds + 1), "cut {cut}");
            assert_matches_single_node(&sharded, &single);
        }
        assert_eq!(sharded.stabilize(1), single.stabilize(1));
        assert_eq!(sharded.committed_rounds(), rounds + 2, "one round per call");
        assert_matches_single_node(&sharded, &single);
    }

    #[test]
    fn checkpointing_every_shard_empties_the_catch_up_log() {
        let mut sharded = ShardedUcpc::new(1, 2, 3).unwrap();
        let mut single = IncrementalUcpc::new(1, 2).unwrap();
        let mut handles = Vec::new();
        for c in [0.0, 9.0, 0.3, 9.3, 0.1, 9.1] {
            handles.push(sharded.insert(&obj(c)).unwrap());
            single.insert(&obj(c)).unwrap();
            if handles.len() == 2 {
                sharded.checkpoint_shard(0).unwrap();
            }
        }
        let stale = sharded.durable[0].checkpoint.clone();
        assert_eq!(sharded.stabilize(3), single.stabilize(3));
        for shard in 0..3 {
            assert!(
                !sharded.log.frames.is_empty(),
                "shard {shard} still needs rounds"
            );
            sharded.checkpoint_shard(shard).unwrap();
        }
        assert!(
            sharded.log.frames.is_empty(),
            "every checkpoint holds every round"
        );
        assert!(sharded.log.blocks.is_empty(), "and the log holds no bytes");
        sharded.remove(handles[1]).unwrap();
        single.remove(handles[1]).unwrap();
        assert_eq!(sharded.insert(&obj(0.2)), single.insert(&obj(0.2)));
        assert_eq!(sharded.log.frames.len(), 2);
        // Exactly those two frames: what every rotated shard log appended.
        for d in &sharded.durable {
            assert_eq!(
                sharded.log.blocks.concat(),
                d.log.io().bytes()[WAL_HEADER_LEN..]
            );
        }
        sharded.crash(1);
        sharded.restart(1).unwrap();
        assert_eq!(sharded.shard_applied(1), Some(sharded.committed_rounds()));
        assert_matches_single_node(&sharded, &single);
        // State older than the rounds kept for catch-up cannot rejoin.
        sharded.crash(0);
        let (checkpoint, log) = (
            sharded.durable[0].checkpoint.clone(),
            sharded.durable[0].log.io().bytes().to_vec(),
        );
        assert!(!restart_from(&mut sharded, &stale, &[]));
        assert!(!restart_from(&mut sharded, &[], &[]));
        assert!(restart_from(&mut sharded, &checkpoint, &log));
    }

    #[test]
    fn a_shard_logs_the_bytes_a_serving_wal_logs() {
        use crate::serving::{ServingConfig, ServingResponse, ServingUcpc};
        let cfg = ServingConfig {
            batch: 1,
            stabilize_every: 0,
            wal: false,
            ..ServingConfig::default()
        };
        let mut serving = ServingUcpc::new(1, 3, cfg).unwrap();
        let wal = crate::wal::SharedVecIo::new();
        serving.attach_wal(wal.clone()).unwrap();
        let mut sharded = ShardedUcpc::new(1, 3, 1).unwrap();
        let served = |serving: &mut ServingUcpc| {
            assert_eq!(serving.flush(), 1);
            serving.pop_response().unwrap().1
        };
        let mut handles = Vec::new();
        let mut moved = 0;
        for (i, c) in [
            5.8, 4.02, 8.42, 7.95, 3.87, 2.99, 6.98, 5.64, 3.71, 2.95, 0.27, 0.38,
        ]
        .into_iter()
        .enumerate()
        {
            serving.submit_commit_object(&obj(c)).unwrap();
            let ServingResponse::Committed { handle, .. } = served(&mut serving) else {
                panic!("commit {i} failed");
            };
            assert_eq!(sharded.insert(&obj(c)).unwrap(), handle);
            handles.push(handle);
            if i % 3 == 2 {
                let h = handles.remove(0);
                serving.submit_remove(h).unwrap();
                assert_eq!(served(&mut serving), ServingResponse::Removed(Ok(())));
                sharded.remove(h).unwrap();
            }
            if i % 4 == 3 {
                serving.submit_stabilize(3).unwrap();
                let ServingResponse::Stabilized { relocations } = served(&mut serving) else {
                    panic!("stabilize {i} failed");
                };
                assert_eq!(sharded.stabilize(3), relocations);
                moved += relocations;
            }
        }
        assert!(moved > 0, "the script logs moves");
        assert_eq!(
            wal.bytes(),
            sharded.durable[0].log.io().bytes(),
            "one log shape"
        );
    }

    #[test]
    fn try_stabilize_refuses_a_down_shard_before_its_passes() {
        let mut sharded = ShardedUcpc::new(1, 2, 2).unwrap();
        let mut single = IncrementalUcpc::new(1, 2).unwrap();
        // Adversarial order: the first pass has moves to make.
        for c in [0.0, 1.0, 10.0, 11.0, 12.0] {
            assert_eq!(sharded.insert(&obj(c)), single.insert(&obj(c)));
        }
        sharded.crash(1);
        let (rounds, objective) = (sharded.committed_rounds(), sharded.objective());
        assert_eq!(
            sharded.try_stabilize(3),
            Err(ClusterError::ShardDown { shard: 1 })
        );
        assert_eq!(sharded.committed_rounds(), rounds, "no round ran");
        assert_eq!(sharded.objective().to_bits(), objective.to_bits());
        sharded.restart(1).unwrap();
        let moved = single.stabilize(3);
        assert!(moved > 0, "the script relocates");
        assert_eq!(sharded.try_stabilize(3), Ok(moved));
        assert_eq!(sharded.committed_rounds(), rounds + 1);
        assert_matches_single_node(&sharded, &single);
    }

    #[test]
    #[should_panic(expected = "shard 1 is down")]
    fn stabilize_with_a_shard_down_panics_before_its_passes() {
        let mut sharded = ShardedUcpc::new(1, 2, 2).unwrap();
        sharded.insert(&obj(0.0)).unwrap();
        sharded.crash(1);
        sharded.stabilize(1);
    }
}
