//! Checksummed write-ahead log of engine mutations, and crash recovery.
//!
//! A process crash between snapshots loses every edit since the last
//! checkpoint. This module closes that hole with the classic database
//! discipline, built to the repo's exactness bar: **log before apply**,
//! recover by **replaying the logged suffix on top of the last snapshot**,
//! and prove the recovered engine *byte-identical* — labels, handles,
//! [`ClusterStats`] bits, objective — to the engine that never crashed
//! (`tests/wal_recovery.rs` pins this at every possible crash point).
//!
//! # Why replay is bit-exact
//!
//! Every log, serving or shard, holds one kind of record: a **round** of
//! [`LogEntry`] decisions — `Insert` an object into a cluster, `Remove`
//! it, `Move` it. A serving commit or remove is a one-entry round; a
//! stabilization is one round of the moves its passes made.
//!
//! 1. **One fold.** The engine changes state only through
//!    [`IncrementalUcpc::apply_round`]: inserts, removes, every move of a
//!    relocation pass, the serving flush and every sharded replica all
//!    apply entries there. Recovery applies the logged entries through the
//!    same function, in the same order, to a state that is bit-identical
//!    by induction (the snapshot restores bit for bit), so it performs the
//!    identical `add_view`/`remove_view` steps. No pricing kernel runs at
//!    recovery, so replay does not depend on serial pricing equalling
//!    batched pricing, and a stabilization costs its moves, not its passes.
//! 2. **Rows round-trip through their bits.** An `Insert` carries the
//!    arrival's `(mu, mu2)` rows as raw IEEE-754 bits, and the engine
//!    derives the rest of the row through one canonical fold, live and at
//!    replay alike. A `Remove` or `Move` carries no row: the engine
//!    already holds it.
//! 3. **The decision names everything else.** An `Insert` names the slot
//!    the engine's LIFO free list hands out next (any other is refused), so
//!    issued handles coincide. Drift bookkeeping is the one thing replay
//!    need not reproduce: a recovered engine's drift starts at zero and is
//!    charged only by its own pruned passes, and the snapshot leaves it out,
//!    so a recovered engine and the live one still write the same bytes.
//!
//! # Format
//!
//! A WAL is a [`crate::codec`] stream — the codec docs hold the header
//! and frame layout, with `m` the dimensionality validated against the
//! engine. Each frame's payload is one round:
//!
//! ```text
//! tag 1 Round  seq u64, count u32, count × entry
//! entry        op u8, slot u32, then
//!                op 1 Insert / 2 Remove: cluster u32
//!                op 3 Move:              src u32, dst u32
//!              then, iff op has bit 0x80 set: mu m × f64, mu2 m × f64
//! ```
//!
//! A round holds only the mutations it made, so `count` may be 0. Only
//! `Insert`s carry a row, in every log: every replica holds the row a
//! `Remove` or `Move` names. At `m = 16` a commit frame is 286 bytes, a
//! remove 30, and a stabilization 21 plus 13 per move.
//!
//! # Checkpoints and their watermark
//!
//! A log is replayed onto the checkpoint it was started after. A serving
//! checkpoint is a plain [`IncrementalUcpc::snapshot`], and its log counts
//! rounds from 1. A shard checkpoint leads the same container with a
//! SHARD chunk holding its *watermark* `w`, the last round it reflects
//! (`applied u64`, kind 6 in the [`crate::snapshot`] table), and its log
//! continues the coordinator's sequence at `w + 1`. [`recover`] reads
//! either, treats a plain snapshot as watermark 0, and refuses a round
//! that does not follow its predecessor: a log replayed onto the wrong
//! checkpoint is [`WalError::Corrupt`], never a silent gap.
//!
//! One encoder and one decoder own this layout. The encoder seals a round
//! into a reused frame buffer: [`WalWriter::log_round`] logs the result,
//! and the sharded coordinator seals each round once, for every shard log
//! to append verbatim through the writer's `append_frame`, so the shard
//! logs need no encoding of their own. The decoder reads a frame's
//! entries and rows in bulk into a caller's `Vec`: [`scan_wal`] passes a
//! fresh one per frame, and a shard its reused scratch, so a steady
//! round decodes without allocating.
//!
//! # Torn tails, corruption, and poisoning
//!
//! [`scan_wal`] walks frames until the first one that is torn (runs past
//! the end of the buffer) or fails its checksum, then stops: everything
//! before is the **valid prefix**, everything after is damage. [`recover`]
//! replays the valid prefix and reports the damage as a [`WalDamage`]
//! carrying the byte offset and frame index of the first damaged frame — a
//! crash mid-append is expected, not an error in the log's past. A
//! complete header that fails its checksum, and an intact round that does
//! not apply, are [`WalError::Corrupt`] instead.
//!
//! A *write* failure is different: after a failed or short append the tail
//! of the log is indeterminate, so any further append could sit after
//! garbage and be silently unreachable at recovery. [`WalWriter`] therefore
//! **poisons itself permanently** on the first I/O fault — every later
//! append returns [`WalError::Poisoned`]. A frame fully appended before a
//! failed sync still counts as logged (it is readable at recovery), so a
//! mutation is applied *iff* its frame is readable.
//!
//! All I/O goes through the pluggable [`DurableIo`] trait; [`VecIo`] is the
//! in-memory implementation with byte-exact fault injection (ENOSPC at any
//! offset, short writes, failing fsync) and [`FileIo`] is the `std::fs`
//! one.

use crate::codec::{crc32, scan_frames, Reader, Writer};
use crate::incremental::IncrementalUcpc;
use crate::objective::ClusterStats;
use crate::snapshot::{ChunkWriter, Sections, SnapshotError, CHUNK_SHARD};
use std::fmt;
use std::io::Write as _;

/// Magic prefix of a WAL byte stream.
pub const WAL_MAGIC: &[u8; 8] = b"UCPCWAL\0";
/// Current WAL format version; readers reject any other.
pub const WAL_VERSION: u32 = 2;
/// Size of the fixed WAL header (magic + version + m + crc).
pub const WAL_HEADER_LEN: usize = 8 + 4 + 8 + 4;

const TAG_ROUND: u8 = 1;

const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;
const OP_MOVE: u8 = 3;
/// Set on an entry's op byte when the entry carries its row.
const OP_ROW: u8 = 0x80;

pub use crate::codec::WalDamage;

// ---------------------------------------------------------------------------
// Log entries
// ---------------------------------------------------------------------------

/// One logged mutation: the decision (a [`LogOp`]) and, when the entry
/// carries it, the object's raw moment rows. `R` is the row storage:
/// `Vec<f64>` for decoded and shipped entries, `&[f64]` for entries that
/// borrow their row from where it already lives. An entry without a row
/// has empty `mu` and `mu2`.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry<R = Vec<f64>> {
    /// What happened.
    pub op: LogOp,
    /// `E[X_j]` row of the object, or empty.
    pub mu: R,
    /// `E[X_j²]` row of the object, or empty.
    pub mu2: R,
}

impl LogEntry<&'static [f64]> {
    /// An entry without a row: a `Remove` or `Move`, whose row the engine
    /// applying it already holds.
    pub fn bare(op: LogOp) -> Self {
        Self {
            op,
            mu: &[],
            mu2: &[],
        }
    }
}

impl<R: AsRef<[f64]>> LogEntry<R> {
    /// The entry's row, which must be `m`-dimensional.
    pub(crate) fn row(&self, m: usize) -> Result<(&[f64], &[f64]), &'static str> {
        let (mu, mu2) = (self.mu.as_ref(), self.mu2.as_ref());
        if mu.len() != m || mu2.len() != m {
            return Err("round entry is missing its row");
        }
        Ok((mu, mu2))
    }
}

/// The decision a [`LogEntry`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogOp {
    /// The arrival in `slot` joined `cluster`.
    Insert {
        /// Slot of the arrival.
        slot: u32,
        /// Cluster the placement scan picked.
        cluster: usize,
    },
    /// The object in `slot` left `cluster`.
    Remove {
        /// Slot of the departure.
        slot: u32,
        /// Cluster it departed from.
        cluster: usize,
    },
    /// The object in `slot` relocated from `src` to `dst`.
    Move {
        /// Slot of the relocated object.
        slot: u32,
        /// Cluster it left.
        src: usize,
        /// Cluster it joined.
        dst: usize,
    },
}

impl LogOp {
    /// The per-entry check every replica runs before it folds an entry
    /// into its statistics: every named cluster exists and the drained
    /// cluster is not empty. Returns the drained and the joined cluster.
    pub(crate) fn check(
        self,
        stats: &[ClusterStats],
    ) -> Result<(Option<usize>, Option<usize>), &'static str> {
        let (drained, joined) = match self {
            LogOp::Insert { cluster, .. } => (None, Some(cluster)),
            LogOp::Remove { cluster, .. } => (Some(cluster), None),
            LogOp::Move { src, dst, .. } => (Some(src), Some(dst)),
        };
        if drained.into_iter().chain(joined).any(|c| c >= stats.len()) {
            return Err("round names a cluster out of range");
        }
        if drained.is_some_and(|c| stats[c].is_empty()) {
            return Err("round drains an empty cluster");
        }
        Ok((drained, joined))
    }
}

// ---------------------------------------------------------------------------
// DurableIo — the pluggable byte sink
// ---------------------------------------------------------------------------

pub use crate::fault::IoFault;
use crate::fault::IoFaultPlan;

/// An append-only durable byte sink: the seam between the WAL / streaming
/// snapshot writers and the world, pluggable so tests can inject torn
/// tails, short writes, and ENOSPC at any byte offset.
///
/// Contract: [`DurableIo::write`] appends a *prefix* of `buf` and returns
/// how many bytes it accepted (a short count models a torn write);
/// [`DurableIo::sync`] makes everything accepted so far durable.
pub trait DurableIo: fmt::Debug {
    /// Appends a prefix of `buf`, returning the number of bytes accepted.
    fn write(&mut self, buf: &[u8]) -> Result<usize, IoFault>;

    /// Forces everything accepted so far to durable storage.
    fn sync(&mut self) -> Result<(), IoFault>;

    /// Appends all of `buf`, looping over short writes. A fault mid-loop
    /// leaves a torn tail in the sink — callers treat that as fatal for
    /// the stream (see [`WalWriter`] poisoning).
    fn write_all(&mut self, mut buf: &[u8]) -> Result<(), IoFault> {
        while !buf.is_empty() {
            let n = self.write(buf)?;
            if n == 0 {
                return Err(IoFault::WriteZero);
            }
            buf = buf.get(n..).unwrap_or(&[]);
        }
        Ok(())
    }
}

impl<T: DurableIo + ?Sized> DurableIo for Box<T> {
    fn write(&mut self, buf: &[u8]) -> Result<usize, IoFault> {
        (**self).write(buf)
    }
    fn sync(&mut self) -> Result<(), IoFault> {
        (**self).sync()
    }
}

/// In-memory [`DurableIo`] with byte-exact fault injection: an optional
/// capacity limit (ENOSPC at that exact offset), an optional maximum chunk
/// per `write` call (forces short writes), and optional sync failure.
/// The buffer keeps whatever was accepted before a fault — exactly the
/// torn tail a real device would leave.
#[derive(Debug, Clone, Default)]
pub struct VecIo {
    buf: Vec<u8>,
    plan: IoFaultPlan,
    syncs: u64,
}

impl VecIo {
    /// An unbounded, fault-free in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink injecting the faults of `plan` — the shared configuration
    /// surface of [`crate::fault`], so WAL and transport chaos tests
    /// describe faults the same way.
    pub fn with_faults(plan: IoFaultPlan) -> Self {
        Self {
            plan,
            ..Self::default()
        }
    }

    /// A sink that accepts exactly `limit` bytes and then reports
    /// [`IoFault::NoSpace`] — ENOSPC at a chosen byte offset.
    pub fn limited(limit: usize) -> Self {
        Self::with_faults(IoFaultPlan::new().byte_limit(limit))
    }

    /// A sink that accepts at most `max_chunk` bytes per `write` call —
    /// every multi-byte append becomes a sequence of short writes.
    pub fn chunked(max_chunk: usize) -> Self {
        Self::with_faults(IoFaultPlan::new().short_writes(max_chunk))
    }

    /// Makes every subsequent [`DurableIo::sync`] fail.
    pub fn failing_syncs(mut self) -> Self {
        self.plan = self.plan.failing_syncs();
        self
    }

    /// Everything accepted so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the sink, yielding the accepted bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Truncates the buffer to `len` bytes (no-op when already shorter):
    /// the crash-surgery hook a shard log is cut with, and the reset a
    /// shard log's buffer gets when its checkpoint rotates it.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Number of successful [`DurableIo::sync`] calls — lets tests pin the
    /// group-commit policy (one sync per flush, not per frame).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

impl DurableIo for VecIo {
    fn write(&mut self, buf: &[u8]) -> Result<usize, IoFault> {
        if buf.is_empty() {
            return Ok(0);
        }
        let n = self.plan.admit(self.buf.len(), buf.len())?;
        self.buf.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn sync(&mut self) -> Result<(), IoFault> {
        self.plan.check_sync(self.buf.len())?;
        self.syncs += 1;
        Ok(())
    }
}

/// An in-memory [`DurableIo`] writing through a shared handle: clones
/// observe the same buffer, so a harness can hand one clone to
/// [`WalWriter::create`] (even boxed behind `dyn DurableIo`) and keep
/// reading the accumulated log bytes through another — the seam the
/// crash-point differential tests cut at. An optional capacity limit
/// injects ENOSPC at that exact offset, leaving the torn tail readable.
#[derive(Debug, Clone, Default)]
pub struct SharedVecIo {
    inner: std::sync::Arc<std::sync::Mutex<VecIo>>,
}

impl SharedVecIo {
    /// An empty shared sink that never faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty shared sink injecting the faults of `plan` — the same
    /// [`crate::fault::IoFaultPlan`] surface as [`VecIo::with_faults`],
    /// so the crash/recovery harnesses configure both sinks identically.
    pub fn with_faults(plan: IoFaultPlan) -> Self {
        Self {
            inner: std::sync::Arc::new(std::sync::Mutex::new(VecIo::with_faults(plan))),
        }
    }

    /// An empty shared sink returning [`IoFault::NoSpace`] once `limit`
    /// bytes have been accepted.
    pub fn limited(limit: usize) -> Self {
        Self::with_faults(IoFaultPlan::new().byte_limit(limit))
    }

    /// A copy of everything accepted so far.
    pub fn bytes(&self) -> Vec<u8> {
        self.lock().buf.clone()
    }

    /// Truncates the shared buffer to `len` bytes (no-op when already
    /// shorter) — the crash-surgery hook recovery harnesses use to cut a
    /// torn tail.
    pub fn truncate(&self, len: usize) {
        self.lock().buf.truncate(len);
    }

    /// The buffer, also after a writer panicked holding the lock: a
    /// panic mid-append leaves at worst a torn tail, which every reader
    /// already tolerates.
    fn lock(&self) -> std::sync::MutexGuard<'_, VecIo> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl DurableIo for SharedVecIo {
    fn write(&mut self, buf: &[u8]) -> Result<usize, IoFault> {
        self.lock().write(buf)
    }

    fn sync(&mut self) -> Result<(), IoFault> {
        self.lock().sync()
    }
}

/// [`DurableIo`] over a real file (`std::fs`): appends with
/// [`std::io::Write`], syncs with [`std::fs::File::sync_all`]. Errors lose
/// their OS detail crossing into the static [`IoFault`] — the offset is
/// what recovery needs.
#[derive(Debug)]
pub struct FileIo {
    file: std::fs::File,
    written: u64,
}

impl FileIo {
    /// Creates (truncating) the file at `path` as an append sink.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self {
            file: std::fs::File::create(path)?,
            written: 0,
        })
    }
}

impl DurableIo for FileIo {
    fn write(&mut self, buf: &[u8]) -> Result<usize, IoFault> {
        match self.file.write(buf) {
            Ok(n) => {
                self.written += n as u64;
                Ok(n)
            }
            Err(e) if e.kind() == std::io::ErrorKind::StorageFull => {
                Err(IoFault::NoSpace { at: self.written })
            }
            Err(_) => Err(IoFault::Failed {
                at: self.written,
                what: "file write failed",
            }),
        }
    }

    fn sync(&mut self) -> Result<(), IoFault> {
        self.file.sync_all().map_err(|_| IoFault::Failed {
            at: self.written,
            what: "fsync failed",
        })
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Checked failure of the WAL layer — appending, scanning, or recovering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The buffer does not start with the `UCPCWAL\0` magic: not a WAL.
    BadMagic,
    /// The header is intact but declares a version this build does not
    /// read.
    UnsupportedVersion(u32),
    /// The log is damaged past `valid_bytes`: frames `0..frames` (the
    /// valid prefix, ending at byte `valid_bytes`) are intact and
    /// replayable; what follows is corrupt, or an intact round that does
    /// not apply. Recovery refuses the log rather than replay past it.
    Corrupt {
        /// Byte offset of the end of the last intact frame (or header).
        valid_bytes: u64,
        /// Number of intact frames before the damage.
        frames: u64,
        /// What the scanner or the fold tripped on.
        reason: &'static str,
    },
    /// An append or sync faulted; the log tail is now indeterminate.
    Io(IoFault),
    /// The writer was poisoned by an earlier fault (the payload): once any
    /// append fails the tail is indeterminate, so no further mutation may
    /// be logged — and therefore none may be applied.
    Poisoned(IoFault),
    /// The WAL's dimensionality does not match the engine restored from
    /// the snapshot — the log belongs to a different stream.
    DimensionMismatch {
        /// Dimensionality of the snapshot engine.
        expected: usize,
        /// Dimensionality declared by the WAL header.
        found: usize,
    },
    /// The snapshot half of [`recover`] failed.
    Snapshot(SnapshotError),
    /// A round's frame payload exceeds its `u32` length field. Nothing was
    /// appended, so the log is intact and the round must not apply.
    FrameTooLarge,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "buffer does not start with the UCPCWAL magic"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "WAL format version {v} is not supported (expected {WAL_VERSION})"
                )
            }
            Self::Corrupt {
                valid_bytes,
                frames,
                reason,
            } => write!(
                f,
                "WAL damaged after {frames} intact frames ({valid_bytes} bytes): {reason}"
            ),
            Self::Io(fault) => write!(f, "WAL append faulted: {fault}"),
            Self::Poisoned(fault) => {
                write!(f, "WAL poisoned by an earlier fault: {fault}")
            }
            Self::DimensionMismatch { expected, found } => write!(
                f,
                "WAL logs {found}-dimensional arrivals, snapshot engine has {expected}"
            ),
            Self::Snapshot(e) => write!(f, "snapshot half of recovery failed: {e}"),
            Self::FrameTooLarge => write!(f, "WAL round exceeds the u32 frame length field"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<SnapshotError> for WalError {
    fn from(e: SnapshotError) -> Self {
        WalError::Snapshot(e)
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// When the WAL writer syncs its sink — the `UCPC_WAL_FSYNC` knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalFsync {
    /// Never sync (the OS decides); fastest, weakest.
    Off,
    /// One sync per [`WalWriter::group_commit`] — the group-commit policy
    /// the serving layer invokes once per flush. The default.
    #[default]
    Flush,
    /// Sync after every frame; strongest, slowest.
    Every,
}

impl WalFsync {
    /// Parses one `UCPC_WAL_FSYNC` value (`off`, `flush`, `every`),
    /// anything else ⇒ `None` — pure, exposed for env-free unit tests.
    pub fn parse(v: &str) -> Option<Self> {
        match v {
            "off" | "0" => Some(Self::Off),
            "flush" => Some(Self::Flush),
            "every" => Some(Self::Every),
            _ => None,
        }
    }
}

/// Appends checksummed round frames to a [`DurableIo`] sink —
/// log-before-apply's logging half.
///
/// Permanently poisons itself on the first I/O fault (module docs): every
/// subsequent append or sync returns [`WalError::Poisoned`] with the
/// original fault, so a caller honouring log-before-apply stops mutating
/// exactly where the durable history stops.
#[derive(Debug)]
pub struct WalWriter<I: DurableIo> {
    io: I,
    fsync: WalFsync,
    frames: u64,
    bytes: u64,
    poison: Option<IoFault>,
    scratch: Writer,
}

impl<I: DurableIo> WalWriter<I> {
    /// Starts a log for `m`-dimensional arrivals on `io`, writing the
    /// checksummed header immediately.
    pub fn create(io: I, m: usize, fsync: WalFsync) -> Result<Self, WalError> {
        let mut head = Writer::with_capacity(WAL_HEADER_LEN);
        head.bytes(WAL_MAGIC);
        head.u32(WAL_VERSION);
        head.u64(m as u64);
        let crc = crc32(head.as_slice());
        head.u32(crc);
        let mut w = Self {
            io,
            fsync,
            frames: 0,
            bytes: 0,
            poison: None,
            scratch: Writer::default(),
        };
        w.write(head.as_slice())?;
        // The header's buffer becomes the reused frame buffer.
        w.scratch = head;
        if w.fsync == WalFsync::Every {
            w.sync_or_poison()?;
        }
        Ok(w)
    }

    /// The sink (e.g. to read back a [`VecIo`] buffer).
    pub fn io(&self) -> &I {
        &self.io
    }

    /// The sink, for surgery beneath the writer: the frame and byte
    /// counts do not follow what is done to it.
    pub(crate) fn io_mut(&mut self) -> &mut I {
        &mut self.io
    }

    /// Consumes the writer, yielding the sink.
    pub fn into_io(self) -> I {
        self.io
    }

    /// Frames fully appended so far (the header is not a frame).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Bytes fully appended so far, header included — the offset a healthy
    /// [`scan_wal`] will report as `valid_bytes`.
    pub fn bytes_logged(&self) -> u64 {
        self.bytes
    }

    /// The fault that poisoned this writer, if any.
    pub fn poisoned(&self) -> Option<&IoFault> {
        self.poison.as_ref()
    }

    /// Logs one round: its sequence number and entries, rows as raw moment
    /// bits for the entries that carry one. Rows are borrowed, so logging
    /// allocates nothing beyond the writer's reused frame buffer.
    ///
    /// `Ok` means the frame was fully appended and will be readable at
    /// recovery. Under [`WalFsync::Every`] a sync that fails after the
    /// append poisons the writer, yet the round still counts as logged.
    pub fn log_round<R: AsRef<[f64]>>(
        &mut self,
        seq: u64,
        entries: &[LogEntry<R>],
    ) -> Result<(), WalError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let logged = encode_round(&mut scratch, seq, entries).and_then(|f| self.append_frame(f));
        self.scratch = scratch;
        logged
    }

    /// Appends one round frame sealed elsewhere, by [`encode_round`],
    /// verbatim: a shard appends the coordinator's frame, so both logs hold
    /// the same bytes. The caller vouches that `frame` is one whole sealed
    /// round frame; its bytes are not checked again. Poisoning and syncing
    /// are those of [`Self::log_round`].
    pub(crate) fn append_frame(&mut self, frame: &[u8]) -> Result<(), WalError> {
        if let Some(fault) = &self.poison {
            return Err(WalError::Poisoned(fault.clone()));
        }
        self.write(frame)?;
        self.frames += 1;
        if self.fsync == WalFsync::Every {
            // The frame is readable whether or not this sync succeeds: a
            // failure poisons later appends but does not unlog this one.
            let _ = self.sync_or_poison();
        }
        Ok(())
    }

    /// Group commit: makes every frame logged so far durable with one sync
    /// (under [`WalFsync::Flush`]; a no-op under `Off`, already done under
    /// `Every`). The serving layer calls this once per flush.
    pub fn group_commit(&mut self) -> Result<(), WalError> {
        if let Some(fault) = &self.poison {
            return Err(WalError::Poisoned(fault.clone()));
        }
        if self.fsync == WalFsync::Flush {
            self.sync_or_poison()?;
        }
        Ok(())
    }

    /// Writes `bytes` whole, poisoning on any fault.
    fn write(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        match self.io.write_all(bytes) {
            Ok(()) => {
                self.bytes += bytes.len() as u64;
                Ok(())
            }
            Err(fault) => {
                self.poison = Some(fault.clone());
                Err(WalError::Io(fault))
            }
        }
    }

    fn sync_or_poison(&mut self) -> Result<(), WalError> {
        match self.io.sync() {
            Ok(()) => Ok(()),
            Err(fault) => {
                self.poison = Some(fault.clone());
                Err(WalError::Io(fault))
            }
        }
    }
}

/// Seals round `seq` into `p` as one frame — the round payload the module
/// docs lay out, behind its length and CRC — and returns the frame. The one
/// round encoder: [`WalWriter::log_round`] logs what it returns, and the
/// sharded coordinator ships it for every shard log to append verbatim.
/// [`WalError::FrameTooLarge`] leaves `p` unsealed.
#[inline]
pub(crate) fn encode_round<'p, R: AsRef<[f64]>>(
    p: &'p mut Writer,
    seq: u64,
    entries: &[LogEntry<R>],
) -> Result<&'p [u8], WalError> {
    p.begin_frame();
    p.u8(TAG_ROUND);
    p.u64(seq);
    p.u32(entries.len() as u32);
    for e in entries {
        let (mu, mu2) = (e.mu.as_ref(), e.mu2.as_ref());
        let row = if mu.is_empty() { 0 } else { OP_ROW };
        let (op, slot, cluster, dst) = match e.op {
            LogOp::Insert { slot, cluster } => (OP_INSERT, slot, cluster, None),
            LogOp::Remove { slot, cluster } => (OP_REMOVE, slot, cluster, None),
            LogOp::Move { slot, src, dst } => (OP_MOVE, slot, src, Some(dst)),
        };
        p.u8(op | row);
        p.u32(slot);
        p.u32(cluster as u32);
        if let Some(dst) = dst {
            p.u32(dst as u32);
        }
        if row != 0 {
            p.f64s(mu);
            p.f64s(mu2);
        }
    }
    p.seal_frame().ok_or(WalError::FrameTooLarge)
}

// ---------------------------------------------------------------------------
// Scanner
// ---------------------------------------------------------------------------

/// One decoded WAL frame — a round, the unit of replay.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Round sequence number.
    pub seq: u64,
    /// The round's entries, in apply order.
    pub entries: Vec<LogEntry>,
}

/// Result of [`scan_wal`]: the intact prefix of a log, plus where (and
/// why) it stops being intact.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Dimensionality declared by the header, when the header was intact.
    pub m: Option<usize>,
    /// Decoded rounds of the valid prefix, in log order.
    pub records: Vec<WalRecord>,
    /// Byte offset just past frame `i` — `frame_ends[i]` is the smallest
    /// prefix of the log that still contains frames `0..=i` whole. The
    /// crash-point harness cuts at exactly these offsets.
    pub frame_ends: Vec<u64>,
    /// Byte offset of the end of the valid prefix (header end if no frame
    /// is intact, `0` if the header itself is torn).
    pub valid_bytes: u64,
    /// The damage past `valid_bytes`, if any, with the byte offset and
    /// frame index of the first damaged frame. `None` means the log is
    /// clean to the end.
    pub damage: Option<WalDamage>,
}

/// Walks a WAL byte stream, decoding the longest valid prefix.
///
/// Hard errors ([`WalError::BadMagic`], [`WalError::UnsupportedVersion`])
/// mean the buffer is not a replayable log at all. Damage — a torn or
/// checksum-failing header or frame — is *not* an error here: the scan
/// stops at the salvage point and reports the damage in
/// [`WalScan::damage`], because a torn tail is exactly what a crash
/// mid-append leaves behind. (Recovery refuses a *complete* header that
/// fails its checksum; see [`recover`].)
pub fn scan_wal(bytes: &[u8]) -> Result<WalScan, WalError> {
    let mut scan = WalScan {
        m: None,
        records: Vec::new(),
        frame_ends: Vec::new(),
        valid_bytes: 0,
        damage: None,
    };
    let mut head = Reader::new(bytes);
    if head.take(8).is_ok_and(|magic| magic != WAL_MAGIC) {
        return Err(WalError::BadMagic);
    }
    let header_damage = |reason| {
        Some(WalDamage {
            offset: 0,
            frame_index: 0,
            reason,
        })
    };
    let (Ok(version), Ok(m_raw), Ok(stored)) = (head.u32(), head.u64(), head.u32()) else {
        scan.damage = header_damage("torn header");
        return Ok(scan);
    };
    if crc32(&bytes[..WAL_HEADER_LEN - 4]) != stored {
        scan.damage = header_damage("header checksum mismatch");
        return Ok(scan);
    }
    if version != WAL_VERSION {
        return Err(WalError::UnsupportedVersion(version));
    }
    let Ok(m) = usize::try_from(m_raw) else {
        return Err(WalError::Corrupt {
            valid_bytes: 0,
            frames: 0,
            reason: "header dimensionality overflows usize",
        });
    };
    let frames = scan_frames(bytes, WAL_HEADER_LEN, |p| {
        let mut entries = Vec::new();
        let seq = decode_round(p, m, &mut entries).ok()?;
        Some(WalRecord { seq, entries })
    });
    scan.m = Some(m);
    scan.records = frames.frames;
    scan.frame_ends = frames.frame_ends;
    scan.valid_bytes = frames.valid_bytes;
    scan.damage = frames.damage;
    Ok(scan)
}

/// Decodes one checksummed frame payload into `entries`, which ends up
/// holding exactly the round, and returns its sequence number; an error if
/// the tag or shape is wrong, after which `entries` is unspecified. The one
/// round decoder: [`scan_wal`] passes a fresh `Vec`, a shard its reused
/// scratch, whose entries and rows are overwritten in place without
/// allocating. Every count is clamped against the payload before
/// allocating.
pub(crate) fn decode_round(
    payload: &[u8],
    m: usize,
    entries: &mut Vec<LogEntry>,
) -> Result<u64, SnapshotError> {
    let mut r = Reader::new(payload);
    if r.u8()? != TAG_ROUND {
        return Err(SnapshotError::Corrupt("unknown record tag"));
    }
    let seq = r.u64()?;
    let count = r.u32()? as usize;
    // An entry is at least its op, slot and one cluster.
    r.ensure(count, 9)?;
    entries.truncate(count);
    entries.reserve(count - entries.len());
    for i in 0..count {
        let op = r.u8()?;
        let slot = r.u32()?;
        let op_kind = match op & !OP_ROW {
            OP_INSERT => LogOp::Insert {
                slot,
                cluster: r.u32()? as usize,
            },
            OP_REMOVE => LogOp::Remove {
                slot,
                cluster: r.u32()? as usize,
            },
            OP_MOVE => LogOp::Move {
                slot,
                src: r.u32()? as usize,
                dst: r.u32()? as usize,
            },
            _ => return Err(SnapshotError::Corrupt("unknown round entry op")),
        };
        if i == entries.len() {
            entries.push(LogEntry {
                op: op_kind,
                mu: Vec::new(),
                mu2: Vec::new(),
            });
        }
        let e = &mut entries[i];
        e.op = op_kind;
        e.mu.clear();
        e.mu2.clear();
        if op & OP_ROW != 0 {
            r.f64s_into(m, &mut e.mu)?;
            r.f64s_into(m, &mut e.mu2)?;
        }
    }
    if r.remaining() != 0 {
        return Err(SnapshotError::Corrupt("record carries trailing bytes"));
    }
    Ok(seq)
}

/// [`decode_round`] of a whole frame, `len ‖ payload ‖ crc`, whose
/// checksum the caller vouches for: a shard holds the frame its own
/// coordinator sealed. The length field must span the frame exactly.
pub(crate) fn decode_frame(
    frame: &[u8],
    m: usize,
    entries: &mut Vec<LogEntry>,
) -> Result<u64, SnapshotError> {
    let mut r = Reader::new(frame);
    let len = r.u32()? as usize;
    let payload = r.take(len)?;
    if r.remaining() != 4 {
        return Err(SnapshotError::Corrupt(
            "frame length does not span the frame",
        ));
    }
    decode_round(payload, m, entries)
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Outcome of [`recover`]: the rebuilt engine plus the salvage report.
#[derive(Debug)]
pub struct Recovery {
    /// The engine, bit-identical to the uninterrupted run at the point of
    /// the last intact frame.
    pub engine: IncrementalUcpc,
    /// The last round the engine reflects: the checkpoint's watermark plus
    /// the rounds replayed on top of it.
    pub applied: u64,
    /// WAL frames replayed on top of the snapshot.
    pub frames_applied: u64,
    /// Byte offset of the end of the valid WAL prefix.
    pub valid_bytes: u64,
    /// Damage found past the valid prefix — the byte offset and frame
    /// index of the first damaged frame — or `None` for a clean log.
    /// Recovery *applied* the valid prefix either way; the caller decides
    /// whether a torn tail is an expected crash artifact or cause for
    /// alarm.
    pub damage: Option<WalDamage>,
}

/// A shard checkpoint of `engine` at watermark `applied`: a SHARD chunk
/// holding the watermark, then the engine's snapshot sections and END (see
/// the module docs), which [`recover`] reads back.
pub(crate) fn encode_checkpoint(engine: &IncrementalUcpc, applied: u64) -> Vec<u8> {
    let mut io = VecIo::new();
    let written = ChunkWriter::start(&mut io).and_then(|mut out| {
        out.begin(CHUNK_SHARD).u64(applied);
        out.seal()?;
        engine.write_sections(&mut out)?;
        out.finish()
    });
    written.expect("in-memory sink cannot fault");
    io.into_bytes()
}

/// Rebuilds an engine from its last checkpoint plus the WAL written since:
/// restores the checkpoint, scans the log's valid prefix, and folds every
/// intact round through [`IncrementalUcpc::apply_round`]. See the module
/// docs for the byte-identity derivation and the salvage semantics.
///
/// The checkpoint is a plain snapshot ([`IncrementalUcpc::snapshot`]),
/// whose log numbers its rounds from 1, or a shard checkpoint led by its
/// watermark `w` (`encode_checkpoint`), whose log continues at round
/// `w + 1`. Either way [`Recovery::applied`] reports the last round
/// applied, and a round that does not follow its predecessor is
/// [`WalError::Corrupt`]: the log does not belong on that checkpoint.
///
/// An empty `wal` (crash before the log header was written) recovers to
/// exactly the checkpoint. A torn or corrupt tail truncates replay at the
/// salvage point, reported in [`Recovery::damage`]. A complete header that
/// fails its checksum, a header of another dimensionality, or an intact
/// round that does not apply is a hard error: checkpoint and log are not
/// from the same history. A checksum-valid round can still be corrupt; the
/// error then names the end of the intact prefix before it.
pub fn recover(checkpoint: &[u8], wal: &[u8]) -> Result<Recovery, WalError> {
    let mut sections = Sections::open(checkpoint)?;
    let mut applied = if sections.next_is(CHUNK_SHARD) {
        sections.entry(CHUNK_SHARD)?.u64()?
    } else {
        0
    };
    let mut engine = IncrementalUcpc::read_sections(&mut sections)?;
    sections.finish()?;
    if wal.is_empty() {
        return Ok(Recovery {
            engine,
            applied,
            frames_applied: 0,
            valid_bytes: 0,
            damage: None,
        });
    }
    let scan = scan_wal(wal)?;
    if let Some(found) = scan.m.filter(|&found| found != engine.m) {
        return Err(WalError::DimensionMismatch {
            expected: engine.m,
            found,
        });
    }
    if scan.m.is_none() && wal.len() >= WAL_HEADER_LEN {
        return Err(WalError::Corrupt {
            valid_bytes: 0,
            frames: 0,
            reason: "log header checksum mismatch",
        });
    }
    for (i, rec) in scan.records.iter().enumerate() {
        let replayed = if rec.seq != applied.wrapping_add(1) {
            Err("round does not follow the log's sequence")
        } else {
            engine.apply_round(&rec.entries)
        };
        if let Err(reason) = replayed {
            return Err(WalError::Corrupt {
                valid_bytes: i
                    .checked_sub(1)
                    .map_or(WAL_HEADER_LEN as u64, |j| scan.frame_ends[j]),
                frames: i as u64,
                reason,
            });
        }
        applied = rec.seq;
    }
    Ok(Recovery {
        engine,
        applied,
        frames_applied: scan.records.len() as u64,
        valid_bytes: scan.valid_bytes,
        damage: scan.damage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Writer;
    use crate::pruning::PruningConfig;
    use ucpc_uncertain::{UncertainObject, UnivariatePdf};

    fn obj(c: f64) -> UncertainObject {
        UncertainObject::new(vec![
            UnivariatePdf::normal(c, 0.2),
            UnivariatePdf::uniform_centered(-c, 0.5),
        ])
    }

    /// An entry carrying the row `(mu, mu2)`.
    fn with_row(op: LogOp, mu: &[f64], mu2: &[f64]) -> LogEntry {
        LogEntry {
            op,
            mu: mu.to_vec(),
            mu2: mu2.to_vec(),
        }
    }

    /// An entry without a row.
    fn bare(op: LogOp) -> LogEntry {
        with_row(op, &[], &[])
    }

    /// A one-entry round inserting `(mu, mu2)` into slot 0 of cluster 0.
    fn insert_round(mu: &[f64], mu2: &[f64]) -> [LogEntry; 1] {
        [with_row(
            LogOp::Insert {
                slot: 0,
                cluster: 0,
            },
            mu,
            mu2,
        )]
    }

    const EMPTY: &[LogEntry] = &[];

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn shared_sink_reads_and_appends_after_a_writer_panicked() {
        let mut io = SharedVecIo::new();
        io.write_all(b"ab").unwrap();
        let held = io.clone();
        let died = std::thread::spawn(move || {
            let _guard = held.inner.lock().unwrap();
            panic!("writer died holding the sink lock");
        })
        .join();
        assert!(died.is_err() && io.inner.is_poisoned());
        assert_eq!(io.bytes(), b"ab");
        io.write_all(b"c").unwrap();
        io.truncate(2);
        io.write_all(b"d").unwrap();
        assert_eq!(io.bytes(), b"abd");
    }

    #[test]
    fn header_then_frames_scan_back_exactly() {
        let (mu, mu2) = ([1.0, -2.5], [2.0, 7.0]);
        let insert = LogOp::Insert {
            slot: 3,
            cluster: 1,
        };
        let relocate = LogOp::Move {
            slot: 3,
            src: 1,
            dst: 0,
        };
        let remove = LogOp::Remove {
            slot: 3,
            cluster: 0,
        };
        let rounds = vec![
            // A serving commit, remove and stabilization...
            WalRecord {
                seq: 1,
                entries: vec![with_row(insert, &mu, &mu2)],
            },
            WalRecord {
                seq: 2,
                entries: vec![bare(remove)],
            },
            WalRecord {
                seq: 3,
                entries: vec![bare(relocate), bare(relocate)],
            },
            // ... a round whose every entry carries a row, which the
            // codec reads back for any op ...
            WalRecord {
                seq: 9,
                entries: [insert, relocate, remove]
                    .into_iter()
                    .map(|op| with_row(op, &mu, &mu2))
                    .collect(),
            },
            // ... and a round that moved nothing.
            WalRecord {
                seq: 10,
                entries: Vec::new(),
            },
        ];
        let mut w = WalWriter::create(VecIo::new(), 2, WalFsync::Flush).unwrap();
        for r in &rounds {
            w.log_round(r.seq, &r.entries).unwrap();
        }
        w.group_commit().unwrap();
        assert_eq!(w.frames(), 5);
        assert_eq!(w.io().syncs(), 1, "group commit syncs once per flush");
        let bytes = w.into_io().into_bytes();
        let scan = scan_wal(&bytes).unwrap();
        assert_eq!(scan.m, Some(2));
        assert_eq!(scan.damage, None);
        assert_eq!(scan.valid_bytes, bytes.len() as u64);
        assert_eq!(scan.records, rounds);
        assert_eq!(scan.frame_ends.len(), 5);
        assert_eq!(*scan.frame_ends.last().unwrap(), bytes.len() as u64);
    }

    #[test]
    fn frames_have_the_documented_sizes() {
        // m = 16: a frame is len 4 + tag 1 + seq 8 + count 4 + crc 4 = 21
        // bytes plus its entries; an entry is op 1 + slot 4 + one cluster
        // 4 (two for a move), plus 256 bytes of row when it carries one.
        let row = [0.5; 16];
        let mut w = WalWriter::create(VecIo::new(), 16, WalFsync::Off).unwrap();
        let mut sizes = Vec::new();
        let mut log = |entries: &[LogEntry]| {
            let before = w.bytes_logged();
            w.log_round(1, entries).unwrap();
            sizes.push(w.bytes_logged() - before);
        };
        let remove = LogOp::Remove {
            slot: 0,
            cluster: 0,
        };
        let relocate = LogOp::Move {
            slot: 0,
            src: 0,
            dst: 1,
        };
        log(&insert_round(&row, &row));
        log(&[bare(remove)]);
        log(&[bare(relocate), bare(relocate)]);
        log(&[with_row(remove, &row, &row)]);
        log(&[with_row(relocate, &row, &row)]);
        log(EMPTY);
        assert_eq!(sizes, [286, 30, 47, 286, 290, 21]);
    }

    /// Row bits that a decode through any float arithmetic would lose: a
    /// signed zero, a NaN payload, a subnormal and an infinity.
    const ODD_ROW: [f64; 4] = [
        -0.0,
        f64::from_bits(0x7FF8_DEAD_BEEF_0001),
        5e-324,
        f64::INFINITY,
    ];

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The frame [`encode_round`] seals for `entries` as round `seq`.
    fn sealed(seq: u64, entries: &[LogEntry]) -> Vec<u8> {
        encode_round(&mut Writer::default(), seq, entries)
            .unwrap()
            .to_vec()
    }

    #[test]
    fn encoded_rounds_decode_to_the_same_bits() {
        let m = ODD_ROW.len();
        let insert = LogOp::Insert {
            slot: 7,
            cluster: 2,
        };
        let remove = LogOp::Remove {
            slot: 7,
            cluster: 1,
        };
        let relocate = LogOp::Move {
            slot: 4,
            src: 0,
            dst: 3,
        };
        let rounds: [Vec<LogEntry>; 4] = [
            vec![with_row(insert, &ODD_ROW, &[1.0, -2.0, 3.0, -4.0])],
            vec![bare(remove)],
            vec![bare(relocate), bare(relocate)],
            Vec::new(),
        ];
        for (seq, round) in (u64::MAX - 3..=u64::MAX).zip(&rounds) {
            let frame = sealed(seq, round);
            let mut decoded = Vec::new();
            assert_eq!(decode_frame(&frame, m, &mut decoded), Ok(seq));
            assert_eq!(decoded.len(), round.len());
            for (d, e) in decoded.iter().zip(round) {
                assert_eq!(d.op, e.op);
                assert_eq!((bits(&d.mu), bits(&d.mu2)), (bits(&e.mu), bits(&e.mu2)));
            }
            // The writer logs the same frame, which scans back alike.
            let mut w = WalWriter::create(VecIo::new(), m, WalFsync::Off).unwrap();
            w.log_round(seq, round).unwrap();
            assert_eq!(&w.io().bytes()[WAL_HEADER_LEN..], &frame[..]);
        }
    }

    #[test]
    fn a_reused_scratch_holds_exactly_the_last_round() {
        let (mu, mu2) = ([1.5, -2.5], [3.0, 7.0]);
        let insert = LogOp::Insert {
            slot: 3,
            cluster: 1,
        };
        let relocate = LogOp::Move {
            slot: 2,
            src: 1,
            dst: 0,
        };
        let remove = LogOp::Remove {
            slot: 3,
            cluster: 1,
        };
        let rounds = [
            vec![
                with_row(insert, &mu, &mu2),
                with_row(relocate, &mu2, &mu),
                bare(relocate),
            ],
            vec![bare(remove)],
            vec![with_row(insert, &mu2, &mu)],
        ];
        let mut scratch = Vec::new();
        for (seq, round) in (1..).zip(&rounds) {
            assert_eq!(decode_frame(&sealed(seq, round), 2, &mut scratch), Ok(seq));
            assert_eq!(&scratch, round, "round {seq}: no stale entries or rows");
        }
    }

    #[test]
    fn truncated_frames_and_flipped_ops_are_checked_errors() {
        let row = [0.5, -0.25];
        let frames = [
            sealed(
                1,
                &[with_row(
                    LogOp::Insert {
                        slot: 0,
                        cluster: 0,
                    },
                    &row,
                    &row,
                )],
            ),
            sealed(
                2,
                &[bare(LogOp::Remove {
                    slot: 0,
                    cluster: 0,
                })],
            ),
            sealed(
                3,
                &[bare(LogOp::Move {
                    slot: 0,
                    src: 0,
                    dst: 1,
                })],
            ),
            sealed(4, EMPTY),
        ];
        let mut scratch = Vec::new();
        for frame in &frames {
            for cut in 0..frame.len() {
                assert!(
                    decode_frame(&frame[..cut], 2, &mut scratch).is_err(),
                    "cut {cut}"
                );
            }
        }
        // len 4, tag 1, seq 8, count 4: the first entry's op byte.
        let op = 4 + 1 + 8 + 4;
        for frame in &frames[..3] {
            for bit in 0..8 {
                let mut bent = frame.clone();
                bent[op] ^= 1 << bit;
                let err = decode_frame(&bent, 2, &mut scratch).unwrap_err();
                assert!(
                    matches!(err, SnapshotError::Truncated | SnapshotError::Corrupt(_)),
                    "op {:#04x}: {err:?}",
                    bent[op]
                );
            }
        }
    }

    #[test]
    fn every_fsync_syncs_per_frame() {
        let mut w = WalWriter::create(VecIo::new(), 1, WalFsync::Every).unwrap();
        w.log_round(1, EMPTY).unwrap();
        w.log_round(2, EMPTY).unwrap();
        w.group_commit().unwrap();
        // Header + 2 frames, and group_commit adds nothing under Every.
        assert_eq!(w.io().syncs(), 3);
        let mut w = WalWriter::create(VecIo::new(), 1, WalFsync::Off).unwrap();
        w.log_round(1, EMPTY).unwrap();
        w.group_commit().unwrap();
        assert_eq!(w.io().syncs(), 0);
    }

    #[test]
    fn torn_tail_salvages_to_the_last_intact_frame() {
        let mut w = WalWriter::create(VecIo::new(), 1, WalFsync::Off).unwrap();
        w.log_round(1, &insert_round(&[1.0], &[2.0])).unwrap();
        w.log_round(2, &insert_round(&[3.0], &[10.0])).unwrap();
        let bytes = w.into_io().into_bytes();
        let full = scan_wal(&bytes).unwrap();
        let first_end = full.frame_ends[0] as usize;
        // Cut mid-second-frame: every cut strictly between the two frame
        // boundaries salvages exactly one record.
        for cut in first_end + 1..bytes.len() {
            let scan = scan_wal(&bytes[..cut]).unwrap();
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_bytes, first_end as u64);
            assert!(
                matches!(scan.damage, Some(WalDamage { frame_index: 1, .. })),
                "cut at {cut}: {:?}",
                scan.damage
            );
        }
    }

    #[test]
    fn bit_flips_never_pass_the_checksum() {
        let mut w = WalWriter::create(VecIo::new(), 1, WalFsync::Off).unwrap();
        w.log_round(1, &insert_round(&[1.0], &[2.0])).unwrap();
        let relocate = LogOp::Move {
            slot: 0,
            src: 0,
            dst: 1,
        };
        w.log_round(2, &[bare(relocate)]).unwrap();
        let bytes = w.into_io().into_bytes();
        let clean = scan_wal(&bytes).unwrap();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                match scan_wal(&flipped) {
                    Ok(scan) => assert!(
                        scan.records.len() < clean.records.len() || scan.damage.is_some(),
                        "flip {byte}:{bit} silently accepted"
                    ),
                    // Flips inside the magic / version land here.
                    Err(WalError::BadMagic | WalError::UnsupportedVersion(_)) => {}
                    Err(e) => panic!("flip {byte}:{bit}: unexpected {e:?}"),
                }
            }
        }
    }

    #[test]
    fn enospc_poisons_the_writer_permanently() {
        // Room for the header and one frame, then the wall.
        let round = insert_round(&[1.0], &[2.0]);
        let mut probe = WalWriter::create(VecIo::new(), 1, WalFsync::Off).unwrap();
        probe.log_round(1, &round).unwrap();
        let one_frame = probe.bytes_logged() as usize;

        for limit in WAL_HEADER_LEN..one_frame {
            let mut w = WalWriter::create(VecIo::limited(limit), 1, WalFsync::Off).unwrap();
            let err = w.log_round(1, &round).unwrap_err();
            assert!(
                matches!(err, WalError::Io(IoFault::NoSpace { .. })),
                "{err:?}"
            );
            // Sticky: later appends fail without touching the sink.
            let tail = w.io().bytes().len();
            let err = w.log_round(1, EMPTY).unwrap_err();
            assert!(matches!(err, WalError::Poisoned(_)), "{err:?}");
            assert_eq!(w.io().bytes().len(), tail, "poisoned append wrote bytes");
            let err = w.group_commit().unwrap_err();
            assert!(matches!(err, WalError::Poisoned(_)));
            // The torn sink still salvages to the header.
            let scan = scan_wal(w.io().bytes()).unwrap();
            assert_eq!(scan.records.len(), 0);
            assert_eq!(scan.valid_bytes, WAL_HEADER_LEN as u64);
        }
    }

    #[test]
    fn short_writes_are_transparent() {
        let mut chunked = WalWriter::create(VecIo::chunked(3), 2, WalFsync::Off).unwrap();
        let mut whole = WalWriter::create(VecIo::new(), 2, WalFsync::Off).unwrap();
        let remove = LogOp::Remove {
            slot: 0,
            cluster: 1,
        };
        for w in [&mut chunked, &mut whole] {
            w.log_round(1, &insert_round(&[1.0, 2.0], &[3.0, 8.0]))
                .unwrap();
            w.log_round(2, &[bare(remove)]).unwrap();
        }
        assert_eq!(chunked.io().bytes(), whole.io().bytes());
    }

    #[test]
    fn failing_sync_poisons_too() {
        let mut w = WalWriter::create(VecIo::new().failing_syncs(), 1, WalFsync::Flush).unwrap();
        w.log_round(1, EMPTY).unwrap();
        let err = w.group_commit().unwrap_err();
        assert!(
            matches!(err, WalError::Io(IoFault::Failed { .. })),
            "{err:?}"
        );
        let err = w.log_round(2, EMPTY).unwrap_err();
        assert!(matches!(err, WalError::Poisoned(_)), "{err:?}");
    }

    #[test]
    fn recover_replays_snapshot_plus_log() {
        for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
            let mut reference = IncrementalUcpc::new(2, 2).unwrap();
            reference.set_pruning(pruning);
            let mut handles = Vec::new();
            for c in [0.0, 1.0] {
                handles.push(reference.insert(&obj(c)).unwrap());
            }
            let checkpoint = reference.snapshot();
            // Post-checkpoint traffic on the public API, each mutation
            // logged as the round it makes.
            let mut w = WalWriter::create(VecIo::new(), 2, WalFsync::Flush).unwrap();
            let mut seq = 0;
            let mut log = |entries: &[LogEntry<&[f64]>]| {
                seq += 1;
                w.log_round(seq, entries).unwrap();
            };
            let arrivals = [obj(10.0), obj(11.0), obj(0.25)];
            for a in &arrivals {
                let h = reference.insert(a).unwrap();
                let op = LogOp::Insert {
                    slot: h.slot() as u32,
                    cluster: reference.label_of(h).unwrap(),
                };
                let mo = a.moments();
                log(&[LogEntry {
                    op,
                    mu: mo.mu(),
                    mu2: mo.mu2(),
                }]);
            }
            let cluster = reference.label_of(handles[0]).unwrap();
            reference.remove(handles[0]).unwrap();
            log(&[LogEntry::bare(LogOp::Remove {
                slot: handles[0].slot() as u32,
                cluster,
            })]);
            let mut moves = Vec::new();
            reference.stabilize_with(3, |op| moves.push(LogEntry::bare(op)));
            assert!(!moves.is_empty(), "the script must relocate something");
            log(&moves);
            w.group_commit().unwrap();

            let rec = recover(&checkpoint, w.io().bytes()).unwrap();
            assert_eq!(rec.frames_applied, 5);
            assert_eq!(rec.damage, None);
            assert_eq!(rec.engine.live_labels(), reference.live_labels());
            assert_eq!(
                rec.engine.objective().to_bits(),
                reference.objective().to_bits()
            );
            assert_eq!(rec.engine.snapshot(), reference.snapshot(), "{pruning:?}");
        }
    }

    #[test]
    fn recover_tolerates_an_empty_log_and_rejects_mismatches() {
        let mut e = IncrementalUcpc::new(2, 2).unwrap();
        e.insert(&obj(1.0)).unwrap();
        let snap = e.snapshot();
        let rec = recover(&snap, &[]).unwrap();
        assert_eq!(rec.frames_applied, 0);
        assert_eq!(rec.engine.snapshot(), snap);

        // Wrong dimensionality: the log is from a different stream.
        let w = WalWriter::create(VecIo::new(), 5, WalFsync::Off).unwrap();
        assert_eq!(
            recover(&snap, w.io().bytes()).unwrap_err(),
            WalError::DimensionMismatch {
                expected: 2,
                found: 5
            }
        );
        // Not a WAL at all.
        assert_eq!(
            recover(&snap, b"definitely not a log").unwrap_err(),
            WalError::BadMagic
        );
        // Corrupt snapshot half.
        assert!(matches!(
            recover(b"definitely not a snapshot", &[]).unwrap_err(),
            WalError::Snapshot(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn replay_of_a_never_live_handle_is_a_checked_error() {
        let mut e = IncrementalUcpc::new(2, 2).unwrap();
        e.insert(&obj(1.0)).unwrap();
        let snap = e.snapshot();
        let mut w = WalWriter::create(VecIo::new(), 2, WalFsync::Off).unwrap();
        let remove = LogOp::Remove {
            slot: 99,
            cluster: 0,
        };
        w.log_round(1, &[bare(remove)]).unwrap();
        match recover(&snap, w.io().bytes()) {
            Err(WalError::Corrupt {
                valid_bytes,
                frames: 0,
                reason,
            }) => {
                assert_eq!(valid_bytes, WAL_HEADER_LEN as u64);
                assert!(reason.contains("free slot"), "{reason}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn recover_continues_a_watermark_checkpoint_at_the_next_round() {
        for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
            let fresh = || {
                let mut e = IncrementalUcpc::new(2, 2).unwrap();
                e.set_pruning(pruning);
                e
            };
            // Rounds 1..=7: six one-entry inserts, then a pass's moves.
            let mut live = fresh();
            let mut rounds = Vec::new();
            for c in [0.0, 1.0, 10.0, 11.0, 0.25, 10.5] {
                let o = obj(c);
                let h = live.insert(&o).unwrap();
                let op = LogOp::Insert {
                    slot: h.slot() as u32,
                    cluster: live.label_of(h).unwrap(),
                };
                rounds.push(vec![with_row(op, o.moments().mu(), o.moments().mu2())]);
            }
            let mut moves = Vec::new();
            live.stabilize_with(3, |op| moves.push(bare(op)));
            assert!(!moves.is_empty(), "the script must relocate something");
            rounds.push(moves);
            let last = rounds.len() as u64;
            let log_from = |first: u64| {
                let mut w = WalWriter::create(VecIo::new(), 2, WalFsync::Off).unwrap();
                for seq in first..=last {
                    w.log_round(seq, &rounds[seq as usize - 1]).unwrap();
                }
                w.into_io().into_bytes()
            };
            // A plain snapshot is watermark 0: its log starts at round 1.
            let rec = recover(&fresh().snapshot(), &log_from(1)).unwrap();
            assert_eq!(rec.applied, last);
            assert_eq!(rec.engine.snapshot(), live.snapshot(), "{pruning:?}");
            for watermark in [0, 1, 4, last] {
                let mut at = fresh();
                for round in &rounds[..watermark as usize] {
                    at.apply_round(round).unwrap();
                }
                let checkpoint = encode_checkpoint(&at, watermark);
                let rec = recover(&checkpoint, &log_from(watermark + 1)).unwrap();
                assert_eq!((rec.applied, rec.frames_applied), (last, last - watermark));
                assert_eq!(rec.damage, None);
                assert_eq!(rec.engine.live_labels(), live.live_labels());
                assert_eq!(rec.engine.objective().to_bits(), live.objective().to_bits());
                assert_eq!(rec.engine.snapshot(), live.snapshot(), "{pruning:?}");
                // The checkpoint alone recovers to its own watermark.
                let rec = recover(&checkpoint, &[]).unwrap();
                assert_eq!(rec.applied, watermark);
                assert_eq!(rec.engine.snapshot(), at.snapshot());
                if watermark == 0 {
                    continue;
                }
                // A log that starts over at round 1 is not this
                // checkpoint's: its first round does not follow.
                match recover(&checkpoint, &log_from(1)) {
                    Err(WalError::Corrupt {
                        valid_bytes,
                        frames: 0,
                        reason,
                    }) => {
                        assert_eq!(valid_bytes, WAL_HEADER_LEN as u64);
                        assert!(reason.contains("does not follow"), "{reason}");
                    }
                    other => panic!("watermark {watermark}: {other:?}"),
                }
            }
        }
    }
}
