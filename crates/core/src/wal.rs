//! Checksummed write-ahead log of serving mutations, and crash recovery.
//!
//! A process crash between snapshots loses every edit since the last
//! checkpoint. This module closes that hole with the classic database
//! discipline, built to the repo's exactness bar: **log before apply**,
//! recover by **replaying the logged suffix on top of the last snapshot**,
//! and prove the recovered engine *byte-identical* — labels, handles,
//! [`ClusterStats`](crate::objective::ClusterStats) bits, objective — to
//! the engine that never crashed (`tests/wal_recovery.rs` pins this at
//! every possible crash point).
//!
//! # Why replay is bit-exact
//!
//! Three facts, each already load-bearing elsewhere in the workspace,
//! compose into the recovery guarantee:
//!
//! 1. **Moments round-trip through their defining bits.** Every arrival is
//!    logged as its `(mu, mu_2)` vectors in raw little-endian IEEE-754 bits
//!    (exactly like `UCPCSNAP`, through the same [`crate::codec`]). All
//!    [`Moments`] construction funnels through [`Moments::from_mu_mu2`], a
//!    pure function of those bits — so rebuilding the arrival at recovery
//!    reproduces its variance row and every scalar aggregate bit for bit.
//! 2. **Placement is a pure function of engine state and arrival bits.**
//!    The serving layer's batched commit is shadow-asserted bit-identical
//!    to the serial [`IncrementalUcpc::insert_moments`] scan at the same
//!    point of the edit sequence (see [`crate::serving`]). Replay *runs*
//!    the serial scan — on an engine whose state is bit-identical by
//!    induction — so it picks the same cluster and mutates the same bits,
//!    and even the issued [`ObjectHandle`]s coincide (same slot/generation
//!    discipline).
//! 3. **Cadence is logged, not re-derived.** Every stabilization the
//!    serving layer runs — explicit *or* cadence-triggered — writes its own
//!    [`WalRecord::Stabilize`] frame before running, so recovery never has
//!    to reconstruct the batching/cadence configuration: the log *is* the
//!    mutation sequence.
//!
//! # Format
//!
//! A WAL is a [`crate::codec`] stream — the codec docs hold the header
//! and frame layout, with `m` the dimensionality validated against the
//! engine. Each frame's payload is one record:
//!
//! ```text
//! tag 1 Commit     mu m × f64, mu2 m × f64
//! tag 2 Remove     slot u32, gen u32
//! tag 3 Stabilize  passes u64
//! tag 4 Round      seq u64, count u32, count × { op u8, slot u32,
//!                  op 1 Insert / 2 Remove: cluster u32, 3 Move: src u32,
//!                  dst u32; then mu m × f64, mu2 m × f64 }
//! ```
//!
//! Tags 1–3 are the serving log; tag 4 is the shard log of
//! [`crate::sharded`], one frame per replicated round. A round holds only
//! the mutations it made, so `count` may be 0. Each log kind
//! rejects the other's records with [`WalError::ForeignRecord`].
//!
//! # Torn tails, corruption, and poisoning
//!
//! [`scan_wal`] walks frames until the first one that is torn (runs past
//! the end of the buffer) or fails its checksum, then stops: everything
//! before is the **valid prefix**, everything after is damage. [`recover`]
//! replays the valid prefix and reports the damage as a [`WalDamage`]
//! carrying the byte offset and frame index of the first damaged frame — a
//! crash mid-append is expected, not an error in the log's past.
//!
//! A *write* failure is different: after a failed or short append the tail
//! of the log is indeterminate, so any further append could sit after
//! garbage and be silently unreachable at recovery. [`WalWriter`] therefore
//! **poisons itself permanently** on the first I/O fault — every later
//! append returns [`WalError::Poisoned`] — preserving the invariant that a
//! mutation is applied *iff* its frame is durably readable.
//!
//! All I/O goes through the pluggable [`DurableIo`] trait; [`VecIo`] is the
//! in-memory implementation with byte-exact fault injection (ENOSPC at any
//! offset, short writes, failing fsync) and [`FileIo`] is the `std::fs`
//! one.

use crate::codec::{crc32, scan_frames, Reader, Writer};
use crate::framework::ClusterError;
use crate::incremental::{IncrementalUcpc, ObjectHandle};
use crate::sharded::{LogEntry, LogOp};
use crate::snapshot::SnapshotError;
use std::fmt;
use std::io::Write as _;
use ucpc_uncertain::Moments;

/// Magic prefix of a WAL byte stream.
pub const WAL_MAGIC: &[u8; 8] = b"UCPCWAL\0";
/// Current WAL format version; readers reject any other.
pub const WAL_VERSION: u32 = 1;
/// Size of the fixed WAL header (magic + version + m + crc).
pub const WAL_HEADER_LEN: usize = 8 + 4 + 8 + 4;

const TAG_COMMIT: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_STABILIZE: u8 = 3;
const TAG_ROUND: u8 = 4;

const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;
const OP_MOVE: u8 = 3;

pub use crate::codec::WalDamage;

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
    /// torn tail, and checkpoint rotation uses to reset a shard log.
    pub fn truncate(&self, len: usize) {
        self.lock().buf.truncate(len);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecIo> {
        self.inner.lock().expect("sink mutex poisoned")
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
    /// replayable; everything after is torn or corrupt. This is the
    /// salvage point — [`recover`] applies the prefix and surfaces this
    /// alongside, never silently.
    Corrupt {
        /// Byte offset of the end of the last intact frame (or header).
        valid_bytes: u64,
        /// Number of intact frames before the damage.
        frames: u64,
        /// What the scanner tripped on.
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
    /// A checksummed, well-formed frame did not apply cleanly (e.g. a
    /// remove of a handle that was never live) — the log and snapshot
    /// disagree about history.
    Replay(ClusterError),
    /// A well-formed record of the other log kind: a shard
    /// [`WalRecord::Round`] replayed into a serving engine, or a serving
    /// mutation found in a shard log.
    ForeignRecord,
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
            Self::Replay(e) => write!(f, "WAL frame did not replay cleanly: {e}"),
            Self::ForeignRecord => write!(f, "WAL record belongs to the other log kind"),
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

/// Appends checksummed mutation frames to a [`DurableIo`] sink —
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
        let mut w = Self {
            io,
            fsync,
            frames: 0,
            bytes: 0,
            poison: None,
            scratch: Writer::with_capacity(WAL_HEADER_LEN),
        };
        w.scratch.bytes(WAL_MAGIC);
        w.scratch.u32(WAL_VERSION);
        w.scratch.u64(m as u64);
        let crc = crc32(w.scratch.as_slice());
        w.scratch.u32(crc);
        w.commit_scratch()?;
        if w.fsync == WalFsync::Every {
            w.sync_or_poison()?;
        }
        Ok(w)
    }

    /// The sink (e.g. to read back a [`VecIo`] buffer).
    pub fn io(&self) -> &I {
        &self.io
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

    /// Logs a committed arrival as its raw moment bits.
    /// `mu` and `mu2` must have the header's dimensionality.
    pub fn log_commit(&mut self, mu: &[f64], mu2: &[f64]) -> Result<(), WalError> {
        debug_assert_eq!(mu.len(), mu2.len());
        self.append_frame(|p| {
            p.u8(TAG_COMMIT);
            p.f64s(mu);
            p.f64s(mu2);
        })
    }

    /// Logs an (effective) removal by its generation-stamped handle.
    pub fn log_remove(&mut self, h: ObjectHandle) -> Result<(), WalError> {
        self.append_frame(|p| {
            p.u8(TAG_REMOVE);
            p.u32(h.slot() as u32);
            p.u32(h.generation());
        })
    }

    /// Logs a stabilization (explicit or cadence-triggered) about to run.
    pub fn log_stabilize(&mut self, passes: u64) -> Result<(), WalError> {
        self.append_frame(|p| {
            p.u8(TAG_STABILIZE);
            p.u64(passes);
        })
    }

    /// Logs one replicated shard round (a [`crate::sharded`] shard log):
    /// its sequence number and entries, rows as raw moment bits.
    pub fn log_round(&mut self, seq: u64, entries: &[LogEntry]) -> Result<(), WalError> {
        self.append_frame(|p| {
            p.u8(TAG_ROUND);
            p.u64(seq);
            p.u32(entries.len() as u32);
            for e in entries {
                let (op, slot) = match e.op {
                    LogOp::Insert { slot, .. } => (OP_INSERT, slot),
                    LogOp::Remove { slot, .. } => (OP_REMOVE, slot),
                    LogOp::Move { slot, .. } => (OP_MOVE, slot),
                };
                p.u8(op);
                p.u32(slot);
                match e.op {
                    LogOp::Insert { cluster, .. } | LogOp::Remove { cluster, .. } => {
                        p.u32(cluster as u32);
                    }
                    LogOp::Move { src, dst, .. } => {
                        p.u32(src as u32);
                        p.u32(dst as u32);
                    }
                }
                p.f64s(&e.mu);
                p.f64s(&e.mu2);
            }
        })
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

    fn append_frame(&mut self, build: impl FnOnce(&mut Writer)) -> Result<(), WalError> {
        if let Some(fault) = &self.poison {
            return Err(WalError::Poisoned(fault.clone()));
        }
        self.scratch.begin_frame();
        build(&mut self.scratch);
        self.scratch.seal_frame();
        self.commit_scratch()?;
        self.frames += 1;
        if self.fsync == WalFsync::Every {
            self.sync_or_poison()?;
        }
        Ok(())
    }

    /// Writes the assembled scratch buffer whole, poisoning on any fault.
    fn commit_scratch(&mut self) -> Result<(), WalError> {
        let bytes = self.scratch.as_slice();
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

// ---------------------------------------------------------------------------
// Scanner
// ---------------------------------------------------------------------------

/// One decoded WAL frame — the unit of replay.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An arrival committed into the engine, as its defining moment bits.
    Commit {
        /// Expected-value vector, bit-exact.
        mu: Vec<f64>,
        /// Second-order moment vector, bit-exact.
        mu2: Vec<f64>,
    },
    /// An effective removal (the handle was live when logged).
    Remove(ObjectHandle),
    /// A stabilization of up to `passes` relocation passes.
    Stabilize {
        /// Relocation passes requested.
        passes: u64,
    },
    /// One replicated round of a [`crate::sharded`] shard log.
    Round {
        /// Global round sequence number.
        seq: u64,
        /// The round's log entries, in apply order.
        entries: Vec<LogEntry>,
    },
}

impl From<WalDamage> for WalError {
    /// The equivalent checked error: frames `0..frame_index` (ending at
    /// byte `offset`) are intact, everything after is damage.
    fn from(d: WalDamage) -> Self {
        WalError::Corrupt {
            valid_bytes: d.offset,
            frames: d.frame_index,
            reason: d.reason,
        }
    }
}

/// Result of [`scan_wal`]: the intact prefix of a log, plus where (and
/// why) it stops being intact.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Dimensionality declared by the header, when the header was intact.
    pub m: Option<usize>,
    /// Decoded frames of the valid prefix, in log order.
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
/// mid-append leaves behind.
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
    let frames = scan_frames(bytes, WAL_HEADER_LEN, |p| decode_payload(p, m).ok());
    scan.m = Some(m);
    scan.records = frames.frames;
    scan.frame_ends = frames.frame_ends;
    scan.valid_bytes = frames.valid_bytes;
    scan.damage = frames.damage;
    Ok(scan)
}

/// Decodes one checksummed frame payload; an error if the tag or shape is
/// wrong. Every count is clamped against the payload before allocating.
fn decode_payload(payload: &[u8], m: usize) -> Result<WalRecord, SnapshotError> {
    let mut r = Reader::new(payload);
    let record = match r.u8()? {
        TAG_COMMIT => WalRecord::Commit {
            mu: r.f64s(m)?,
            mu2: r.f64s(m)?,
        },
        TAG_REMOVE => WalRecord::Remove(ObjectHandle::new(r.u32()?, r.u32()?)),
        TAG_STABILIZE => WalRecord::Stabilize { passes: r.u64()? },
        TAG_ROUND => {
            let seq = r.u64()?;
            let count = r.u32()? as usize;
            r.ensure(count, 5)?;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                entries.push(decode_entry(&mut r, m)?);
            }
            WalRecord::Round { seq, entries }
        }
        _ => return Err(SnapshotError::Corrupt("unknown record tag")),
    };
    if r.remaining() != 0 {
        return Err(SnapshotError::Corrupt("record carries trailing bytes"));
    }
    Ok(record)
}

fn decode_entry(r: &mut Reader<'_>, m: usize) -> Result<LogEntry, SnapshotError> {
    let tag = r.u8()?;
    let slot = r.u32()?;
    let op = match tag {
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
    Ok(LogEntry {
        op,
        mu: r.f64s(m)?,
        mu2: r.f64s(m)?,
    })
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

/// Replays one decoded WAL record on a live engine — the single replay
/// step [`recover`] folds, exposed so the crash-point harness can finish
/// an interrupted log suffix on a recovered engine.
///
/// A commit rebuilds the arrival via [`Moments::from_mu_mu2`] (bit-exact
/// from the logged bits) and inserts it through the serial scan — which
/// the serving layer's batched commit is shadow-asserted equal to — so
/// replay reproduces labels, handles, and statistics bits exactly. A
/// shard [`WalRecord::Round`] is [`WalError::ForeignRecord`]: it belongs
/// to a shard log, not to a serving engine's.
pub fn apply_record(engine: &mut IncrementalUcpc, rec: &WalRecord) -> Result<(), WalError> {
    match rec {
        WalRecord::Commit { mu, mu2 } => engine
            .insert_moments(&Moments::from_mu_mu2(mu.clone(), mu2.clone()))
            .map(|_| ())
            .map_err(WalError::Replay),
        WalRecord::Remove(h) => engine.remove(*h).map_err(WalError::Replay),
        WalRecord::Stabilize { passes } => {
            engine.stabilize(usize::try_from(*passes).unwrap_or(usize::MAX));
            Ok(())
        }
        WalRecord::Round { .. } => Err(WalError::ForeignRecord),
    }
}

/// Rebuilds an engine from its last checkpoint plus the WAL written since:
/// restores the snapshot, scans the log's valid prefix, and
/// replays every intact frame. See the module docs for the byte-identity
/// derivation and the salvage semantics.
///
/// An empty `wal` (crash before the log header was written) recovers to
/// exactly the snapshot. A torn or corrupt tail truncates replay at the
/// salvage point, reported in [`Recovery::damage`]. A log whose *intact*
/// frames do not apply cleanly — or whose dimensionality disagrees with
/// the snapshot — is a hard error: snapshot and log are not from the same
/// history.
pub fn recover(snapshot: &[u8], wal: &[u8]) -> Result<Recovery, WalError> {
    let mut engine = IncrementalUcpc::restore(snapshot)?;
    if wal.is_empty() {
        return Ok(Recovery {
            engine,
            frames_applied: 0,
            valid_bytes: 0,
            damage: None,
        });
    }
    let scan = scan_wal(wal)?;
    if let Some(m) = scan.m {
        if m != engine.m {
            return Err(WalError::DimensionMismatch {
                expected: engine.m,
                found: m,
            });
        }
    }
    for rec in &scan.records {
        apply_record(&mut engine, rec)?;
    }
    Ok(Recovery {
        engine,
        frames_applied: scan.records.len() as u64,
        valid_bytes: scan.valid_bytes,
        damage: scan.damage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucpc_uncertain::{UncertainObject, UnivariatePdf};

    fn obj(c: f64) -> UncertainObject {
        UncertainObject::new(vec![
            UnivariatePdf::normal(c, 0.2),
            UnivariatePdf::uniform_centered(-c, 0.5),
        ])
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn header_then_frames_scan_back_exactly() {
        let (slot, mu, mu2) = (3, vec![1.0, -2.5], vec![2.0, 7.0]);
        let entries: Vec<LogEntry> = [
            LogOp::Insert { slot, cluster: 1 },
            LogOp::Move {
                slot,
                src: 1,
                dst: 0,
            },
            LogOp::Remove { slot, cluster: 0 },
        ]
        .into_iter()
        .map(|op| LogEntry {
            op,
            mu: mu.clone(),
            mu2: mu2.clone(),
        })
        .collect();
        let mut w = WalWriter::create(VecIo::new(), 2, WalFsync::Flush).unwrap();
        w.log_commit(&[1.5, -2.0], &[3.0, 4.25]).unwrap();
        w.log_remove(ObjectHandle::new(7, 3)).unwrap();
        w.log_stabilize(4).unwrap();
        w.log_round(9, &entries).unwrap();
        w.log_round(10, &[]).unwrap();
        w.group_commit().unwrap();
        assert_eq!(w.frames(), 5);
        assert_eq!(w.io().syncs(), 1, "group commit syncs once per flush");
        let bytes = w.into_io().into_bytes();
        let scan = scan_wal(&bytes).unwrap();
        assert_eq!(scan.m, Some(2));
        assert_eq!(scan.damage, None);
        assert_eq!(scan.valid_bytes, bytes.len() as u64);
        assert_eq!(
            scan.records,
            vec![
                WalRecord::Commit {
                    mu: vec![1.5, -2.0],
                    mu2: vec![3.0, 4.25],
                },
                WalRecord::Remove(ObjectHandle::new(7, 3)),
                WalRecord::Stabilize { passes: 4 },
                WalRecord::Round { seq: 9, entries },
                WalRecord::Round {
                    seq: 10,
                    entries: Vec::new(),
                },
            ]
        );
        assert_eq!(scan.frame_ends.len(), 5);
        assert_eq!(*scan.frame_ends.last().unwrap(), bytes.len() as u64);
    }

    #[test]
    fn every_fsync_syncs_per_frame() {
        let mut w = WalWriter::create(VecIo::new(), 1, WalFsync::Every).unwrap();
        w.log_stabilize(1).unwrap();
        w.log_stabilize(1).unwrap();
        w.group_commit().unwrap();
        // Header + 2 frames, and group_commit adds nothing under Every.
        assert_eq!(w.io().syncs(), 3);
        let mut w = WalWriter::create(VecIo::new(), 1, WalFsync::Off).unwrap();
        w.log_stabilize(1).unwrap();
        w.group_commit().unwrap();
        assert_eq!(w.io().syncs(), 0);
    }

    #[test]
    fn torn_tail_salvages_to_the_last_intact_frame() {
        let mut w = WalWriter::create(VecIo::new(), 1, WalFsync::Off).unwrap();
        w.log_commit(&[1.0], &[2.0]).unwrap();
        w.log_commit(&[3.0], &[10.0]).unwrap();
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
        w.log_commit(&[1.0], &[2.0]).unwrap();
        w.log_stabilize(2).unwrap();
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
        let mut probe = WalWriter::create(VecIo::new(), 1, WalFsync::Off).unwrap();
        probe.log_commit(&[1.0], &[2.0]).unwrap();
        let one_frame = probe.bytes_logged() as usize;

        for limit in WAL_HEADER_LEN..one_frame {
            let mut w = WalWriter::create(VecIo::limited(limit), 1, WalFsync::Off).unwrap();
            let err = w.log_commit(&[1.0], &[2.0]).unwrap_err();
            assert!(
                matches!(err, WalError::Io(IoFault::NoSpace { .. })),
                "{err:?}"
            );
            // Sticky: later appends fail without touching the sink.
            let tail = w.io().bytes().len();
            let err = w.log_stabilize(1).unwrap_err();
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
        for w in [&mut chunked, &mut whole] {
            w.log_commit(&[1.0, 2.0], &[3.0, 8.0]).unwrap();
            w.log_remove(ObjectHandle::new(0, 1)).unwrap();
        }
        assert_eq!(chunked.io().bytes(), whole.io().bytes());
    }

    #[test]
    fn failing_sync_poisons_too() {
        let mut w = WalWriter::create(VecIo::new().failing_syncs(), 1, WalFsync::Flush).unwrap();
        w.log_stabilize(1).unwrap();
        let err = w.group_commit().unwrap_err();
        assert!(
            matches!(err, WalError::Io(IoFault::Failed { .. })),
            "{err:?}"
        );
        let err = w.log_stabilize(1).unwrap_err();
        assert!(matches!(err, WalError::Poisoned(_)), "{err:?}");
    }

    #[test]
    fn recover_replays_snapshot_plus_log() {
        let mut reference = IncrementalUcpc::new(2, 2).unwrap();
        let mut handles = Vec::new();
        for c in [0.0, 0.5, 8.0] {
            handles.push(reference.insert(&obj(c)).unwrap());
        }
        let checkpoint = reference.snapshot();
        // Post-checkpoint traffic, logged as it happens.
        let mut w = WalWriter::create(VecIo::new(), 2, WalFsync::Flush).unwrap();
        let arrivals = [obj(8.5), obj(0.25)];
        for a in &arrivals {
            let mo = a.moments();
            w.log_commit(mo.mu(), mo.mu2()).unwrap();
            reference.insert(a).unwrap();
        }
        w.log_remove(handles[1]).unwrap();
        reference.remove(handles[1]).unwrap();
        w.log_stabilize(3).unwrap();
        reference.stabilize(3);
        w.group_commit().unwrap();

        let rec = recover(&checkpoint, w.io().bytes()).unwrap();
        assert_eq!(rec.frames_applied, 4);
        assert_eq!(rec.damage, None);
        assert_eq!(rec.engine.live_labels(), reference.live_labels());
        assert_eq!(
            rec.engine.objective().to_bits(),
            reference.objective().to_bits()
        );
        assert_eq!(rec.engine.snapshot(), reference.snapshot());
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
        w.log_remove(ObjectHandle::new(99, 7)).unwrap();
        let err = recover(&snap, w.io().bytes()).unwrap_err();
        assert!(matches!(err, WalError::Replay(_)), "{err:?}");
        // A shard round belongs to a shard log, not a serving engine.
        let round = WalRecord::Round {
            seq: 1,
            entries: Vec::new(),
        };
        assert_eq!(apply_record(&mut e, &round), Err(WalError::ForeignRecord));
    }
}
