//! Batched assignment serving over [`IncrementalUcpc`] — the point-query
//! front door: "here is a new uncertain object; which cluster, with what
//! confidence?"
//!
//! # Shape
//!
//! [`ServingUcpc`] wraps a live [`IncrementalUcpc`] behind an ingest queue.
//! Requests — placement queries, commits, removals, stabilizations — are
//! *submitted* (admitted into the queue, arrival moments staged into a
//! preallocated scratch arena, a [`Ticket`] issued) and later *flushed* as
//! one micro-batch, either explicitly ([`ServingUcpc::flush`]) or through
//! [`ServingUcpc::poll`] when the batch-size or deadline trigger fires.
//! A flush runs the state machine admit → batch → price → apply → respond:
//!
//! 1. **price** — requests are replayed in submission order, and each
//!    answer reads the engine's pricing table: a query or commit is priced
//!    at its turn against every cluster, one dispatched [`price_block`]
//!    over the clusters' own `mean_sum` rows and their hoisted add pricers
//!    ([`AddPricer`], held as columns beside the statistics and rewritten
//!    by every fold; on AVX2, four clusters per reduction and per delta),
//!    and its `k` deltas are folded into a ranked answer;
//! 2. **apply** — commits, removals and every move of a stabilization
//!    become [`LogEntry`] rounds applied through
//!    [`IncrementalUcpc::apply_round`], the engine's one mutation path;
//! 3. **respond** — each request's answer ([`ServingResponse`]) is queued
//!    in submission order for [`ServingUcpc::pop_response`], with placement
//!    answers carrying the top-`k'` clusters by exact delta-`J` and the
//!    best/second-best margin.
//!
//! Backpressure is saturating and checked: a submit against a full queue
//! returns [`ServingError::QueueFull`] — it never blocks and never drops
//! silently — and the caller sheds or retries after a flush.
//!
//! # Why batched pricing is bit-identical to serial
//!
//! The correctness bar is the engine's own: a committed batch of `B`
//! arrivals must leave labels, `ClusterStats` and the objective
//! **byte-identical** to `B` serial [`IncrementalUcpc::insert`] calls.
//! That holds by construction:
//!
//! * **Deltas.** Each answer reads the engine's pricing table: the very
//!   routine the serial placement scan prices through (held bit for bit
//!   to the reference [`best_insertion`]), which yields
//!   `stats[c].delta_j_add(v)` for every `c`, pruning on or off.
//!   `delta_j_add(v)` is a *pure function* of the bits of `stats[c]` and
//!   `v`: it *is* `add_pricer().price(.., dot(s_c, mu(v)))`, and
//!   [`price_block`]'s crosses and deltas are contractually bit-identical
//!   to the single [`dot`] and that formula (the SIMD module's
//!   bit-identity contract; rows below
//!   [`DISPATCH_THRESHOLD`] take the same unfused core in both). Each
//!   answer is priced at its turn, after every mutation before it in the
//!   flush, and every engine mutation is a fold of the table that owns
//!   the statistics, which rewrites the touched clusters' pricers in the
//!   same call (a commit the cluster it fed, a removal the cluster it
//!   drained, a relocation both ends; an undone stabilization refolds all
//!   `k` and derives each cluster's pricers once), so the deltas are, bit
//!   for bit, what a live scan computes at that point of the edit
//!   sequence. The fold keeps the scan's exact strict-less,
//!   first-index-wins-ties semantics, so its argmin matches the serial
//!   scan bit for bit (debug builds shadow-assert this against a live
//!   full scan on every commit).
//! * **Storage.** The staged copy of an arrival is written **verbatim**
//!   ([`MomentArena::overwrite_row`] on admission), and a commit is the
//!   same `Insert` entry a serial [`IncrementalUcpc::insert`] applies: the
//!   arrival's `(mu, mu2)` rows, the cluster, and the slot the engine
//!   allocates next. [`IncrementalUcpc::apply_round`] derives the stored
//!   row through the engine's one canonical fold and replays the serial
//!   insert's mutation sequence (store, the pruner's statistics update, slot
//!   and label write), so even the issued [`ObjectHandle`]s coincide.
//! * **Cadence.** Stabilization runs on a *commit counter*
//!   ([`ServingConfig::stabilize_every`]), firing immediately after every
//!   N-th commit — mid-batch when the batch spans the boundary — so the
//!   stabilization points in the edit sequence are independent of how
//!   arrivals were batched, and a serial replay reproduces them exactly.
//!
//! The differential harness (`tests/serving_differential.rs`) pins all of
//! this across batch sizes × pruning × SIMD backends, against a serial
//! replay on the per-object reference model.
//!
//! # Durability
//!
//! With a write-ahead log attached ([`ServingUcpc::attach_wal`], or the
//! `UCPC_WAL=on` auto-attach), the flush logs every mutation as a round of
//! [`LogEntry`] decisions and ends with one group-commit sync. A commit is
//! one `Insert` carrying the arrival's row and an effective removal one
//! `Remove`, each logged **before** it is applied. A stabilization,
//! explicit or cadence-triggered, is one round of the `Move`s its passes
//! made, logged *after* the passes run on a saved copy of what they
//! mutate; if that round cannot be logged, the passes are undone. Rounds
//! are numbered from 1 in every log.
//!
//! The invariant is *applied iff logged*: a mutation whose round cannot
//! be written answers [`ServingResponse::Failed`] and leaves the engine as
//! it was, and after the first fault the writer stays poisoned (the file
//! tail is indeterminate, so later frames could be unreachable) until the
//! caller rotates logs. [`ServingUcpc::checkpoint_into`] is that rotation:
//! stream a chunked snapshot, sync it, start a fresh log.
//! [`crate::wal::recover`]`(snapshot, wal)` then folds the rounds through
//! the same [`IncrementalUcpc::apply_round`], pricing nothing, and
//! rebuilds an engine byte-identical to the never-crashed run at every
//! crash point — the derivation lives in the [`crate::wal`] module docs,
//! and `tests/wal_recovery.rs` pins it at every frame boundary and
//! mid-frame cut.
//!
//! # Knobs
//!
//! [`ServingConfig::default`] honours `UCPC_BATCH` (micro-batch size),
//! `UCPC_STABILIZE` (stabilize after every N commits, `0`/`off` = never),
//! `UCPC_WAL` (`on` auto-attaches an in-memory write-ahead log) and
//! `UCPC_WAL_FSYNC` (`off`/`flush`/`every` sync policy), all read through
//! the shared warn-and-fall-back knob reader
//! ([`ucpc_uncertain::env::read_knob`]).
//!
//! [`best_insertion`]: crate::pruning::best_insertion
//! [`dot`]: ucpc_uncertain::simd::dot
//! [`price_block`]: ucpc_uncertain::simd::price_block
//! [`AddPricer`]: crate::objective::AddPricer
//! [`DISPATCH_THRESHOLD`]: ucpc_uncertain::simd::DISPATCH_THRESHOLD
//! [`MomentArena::overwrite_row`]: ucpc_uncertain::MomentArena::overwrite_row

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::framework::ClusterError;
use crate::incremental::{IncrementalUcpc, ObjectHandle, PassUndo};
use crate::wal::{DurableIo, LogEntry, LogOp, VecIo, WalError, WalFsync, WalWriter};
use ucpc_uncertain::{MomentArena, Moments, UncertainObject};

/// The serving layer's write-ahead logger: a [`WalWriter`] over a boxed
/// sink, so the same field serves an in-memory [`VecIo`] (tests, the
/// `UCPC_WAL=on` auto-attach) and a [`FileIo`](crate::wal::FileIo).
pub type BoxedWal = WalWriter<Box<dyn DurableIo>>;

/// Time source for the deadline flush trigger — pluggable so the deadline
/// path gets exact tests instead of sleep-based ones.
pub trait Clock: std::fmt::Debug {
    /// The current instant.
    fn now(&self) -> Instant;
}

/// The real time source: [`Instant::now`]. The default.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// Monotonically increasing request identifier, issued at submission and
/// echoed with the request's [`ServingResponse`]. Responses come back in
/// ticket (= submission) order.
pub type Ticket = u64;

/// The most clusters a [`PlacementAnswer`] can rank. Answers are fixed-size
/// so steady-state serving allocates nothing per request.
pub const MAX_TOP_K: usize = 8;

/// Checked submission failure of [`ServingUcpc`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServingError {
    /// The ingest queue is at capacity: the request was *not* admitted
    /// (shed). Flush (or poll past a trigger) and resubmit — admission
    /// never blocks and never drops an admitted request.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The arrival's dimensionality does not match the engine's.
    DimensionMismatch {
        /// Engine dimensionality `m`.
        expected: usize,
        /// The arrival's dimensionality.
        found: usize,
    },
    /// The arrival carries a NaN or infinite moment, or a finite one whose
    /// precomputed scalars overflow: it was not admitted, logged or staged.
    NonFinite,
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull { capacity } => {
                write!(f, "serving queue full ({capacity} pending requests)")
            }
            Self::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "arrival has {found} dimensions, engine expects {expected}"
                )
            }
            Self::NonFinite => write!(f, "arrival has a non-finite moment"),
        }
    }
}

impl std::error::Error for ServingError {}

/// Top-`k'` placement answer for one arrival: the `len` best clusters by
/// exact delta-`J` (ascending; ties keep the lower cluster index, matching
/// the placement scan), plus the exact confidence margin
/// `second_best − best` over **all** `k` clusters (`+∞` when `k == 1`:
/// there is no runner-up to close the gap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementAnswer {
    entries: [(usize, f64); MAX_TOP_K],
    len: u8,
    margin: f64,
}

impl PlacementAnswer {
    /// The ranked `(cluster, delta_J)` entries, best first.
    pub fn ranked(&self) -> &[(usize, f64)] {
        &self.entries[..self.len as usize]
    }

    /// The winning cluster and its exact objective increase — bit-identical
    /// to what the serial placement scan returns.
    pub fn best(&self) -> (usize, f64) {
        self.entries[0]
    }

    /// `delta_J(second_best) − delta_J(best)` over all `k` clusters —
    /// the exact confidence margin of the assignment. `+∞` when `k == 1`.
    pub fn margin(&self) -> f64 {
        self.margin
    }
}

/// One flushed request's answer, paired with its [`Ticket`] by
/// [`ServingUcpc::pop_response`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServingResponse {
    /// A placement query: ranked clusters and margin; nothing committed.
    Placed(PlacementAnswer),
    /// A commit: the arrival was inserted into `answer.best().0` and is
    /// addressable by `handle`.
    Committed {
        /// Generation-stamped handle of the stored arrival.
        handle: ObjectHandle,
        /// The placement answer the commit acted on.
        answer: PlacementAnswer,
    },
    /// A removal: `Ok` if the handle was live, the engine's checked
    /// [`ClusterError::StaleHandle`] otherwise.
    Removed(Result<(), ClusterError>),
    /// An explicit stabilization: relocations applied.
    Stabilized {
        /// Relocations the pass(es) applied.
        relocations: usize,
    },
    /// The request's mutation could not be written to the attached
    /// write-ahead log, so it was **not applied** (a stabilization's
    /// passes were undone) — the engine only ever holds state the log can
    /// reproduce. After the first fault the writer is poisoned
    /// ([`WalError::Poisoned`]), so every later mutation fails the same
    /// way until the caller rotates the log
    /// ([`ServingUcpc::checkpoint_into`]) or detaches it.
    Failed {
        /// The logging failure.
        error: WalError,
    },
}

/// Configuration of a [`ServingUcpc`]. Plain data; fields are clamped to
/// sane bounds at [`ServingUcpc`] construction (`batch ≥ 1`,
/// `queue_capacity ≥ batch`, `1 ≤ top_k ≤ MAX_TOP_K`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingConfig {
    /// Micro-batch size: [`ServingUcpc::poll`] flushes once this many
    /// requests are pending. Env default: `UCPC_BATCH`, else 16.
    pub batch: usize,
    /// Pending-request capacity; a submit beyond it is shed with a checked
    /// [`ServingError::QueueFull`]. Default: `4 × batch`.
    pub queue_capacity: usize,
    /// Deadline trigger: [`ServingUcpc::poll`] flushes a non-empty queue
    /// whose *oldest* request has waited at least this long, so a trickle
    /// of arrivals is never stranded waiting for a full batch. `None`
    /// (default) disables the trigger — flushing is then size-driven or
    /// explicit.
    pub deadline: Option<Duration>,
    /// Stabilize cadence: run [`IncrementalUcpc::stabilize`] immediately
    /// after every N-th commit (counted across flushes, firing mid-batch
    /// when needed, so results are independent of batch size). `0` = never.
    /// Env default: `UCPC_STABILIZE`, else 0.
    pub stabilize_every: usize,
    /// Relocation passes per cadence-triggered stabilization.
    pub stabilize_passes: usize,
    /// Clusters ranked per [`PlacementAnswer`] (clamped to
    /// [`MAX_TOP_K`] and to `k`).
    pub top_k: usize,
    /// Whether construction auto-attaches a write-ahead log (an in-memory
    /// [`VecIo`] sink; attach a file-backed sink explicitly via
    /// [`ServingUcpc::attach_wal`] for real durability). Env default:
    /// `UCPC_WAL`, else off.
    pub wal: bool,
    /// Fsync policy for the attached log. Env default: `UCPC_WAL_FSYNC`,
    /// else [`WalFsync::Flush`] (one sync per flush — group commit).
    pub wal_fsync: WalFsync,
}

impl ServingConfig {
    /// Parses one `UCPC_BATCH` value: a positive integer, anything else ⇒
    /// `None` — pure, exposed for env-free unit tests.
    pub fn parse_batch(v: &str) -> Option<usize> {
        v.parse::<usize>().ok().filter(|&b| b > 0)
    }

    /// Parses one `UCPC_STABILIZE` value: a non-negative integer or
    /// `"off"` (= 0 = never), anything else ⇒ `None` — pure, exposed for
    /// env-free unit tests.
    pub fn parse_stabilize(v: &str) -> Option<usize> {
        match v {
            "off" => Some(0),
            _ => v.parse::<usize>().ok(),
        }
    }

    /// Parses one `UCPC_WAL` value (`on`/`1`/`off`/`0`), anything else ⇒
    /// `None` — pure, exposed for env-free unit tests.
    pub fn parse_wal(v: &str) -> Option<bool> {
        match v {
            "on" | "1" => Some(true),
            "off" | "0" => Some(false),
            _ => None,
        }
    }
}

impl Default for ServingConfig {
    /// Batch size from `UCPC_BATCH` (default 16), stabilize cadence from
    /// `UCPC_STABILIZE` (default 0 = never), write-ahead logging from
    /// `UCPC_WAL` (default off) with its fsync policy from
    /// `UCPC_WAL_FSYNC` (default `flush`), all through the shared
    /// warn-and-fall-back knob reader; queue capacity `4 × batch`, no
    /// deadline, 2 stabilize passes, full [`MAX_TOP_K`] ranking.
    fn default() -> Self {
        let batch =
            ucpc_uncertain::env::read_knob("UCPC_BATCH", "a positive integer", Self::parse_batch)
                .unwrap_or(16);
        let stabilize_every = ucpc_uncertain::env::read_knob(
            "UCPC_STABILIZE",
            "a non-negative integer or off",
            Self::parse_stabilize,
        )
        .unwrap_or(0);
        let wal =
            ucpc_uncertain::env::read_knob("UCPC_WAL", "on|off", Self::parse_wal).unwrap_or(false);
        let wal_fsync =
            ucpc_uncertain::env::read_knob("UCPC_WAL_FSYNC", "off|flush|every", WalFsync::parse)
                .unwrap_or_default();
        Self {
            batch,
            queue_capacity: batch * 4,
            deadline: None,
            stabilize_every,
            stabilize_passes: 2,
            top_k: MAX_TOP_K,
            wal,
            wal_fsync,
        }
    }
}

/// What one queued request does at apply time. Query/commit arrivals own
/// one staging row each until their flush answers them.
#[derive(Debug, Clone, Copy)]
enum ReqKind {
    Query { row: u32 },
    Commit { row: u32 },
    Remove(ObjectHandle),
    Stabilize { passes: usize },
}

#[derive(Debug, Clone, Copy)]
struct Request {
    ticket: Ticket,
    at: Instant,
    kind: ReqKind,
}

/// The batched assignment-serving front door over a live
/// [`IncrementalUcpc`] — see the [module docs](self) for the state machine
/// and the bit-identity derivation.
///
/// ```
/// use ucpc_core::serving::{ServingConfig, ServingResponse, ServingUcpc};
/// use ucpc_uncertain::{UncertainObject, UnivariatePdf};
///
/// let cfg = ServingConfig { batch: 2, ..ServingConfig::default() };
/// let mut serving = ServingUcpc::new(1, 2, cfg).unwrap();
/// let o = |c: f64| UncertainObject::new(vec![UnivariatePdf::normal(c, 0.1)]);
///
/// let t0 = serving.submit_commit_object(&o(0.0)).unwrap();
/// let t1 = serving.submit_query_object(&o(9.0)).unwrap();
/// assert_eq!(serving.flush(), 2);
///
/// let (ticket, resp) = serving.pop_response().unwrap();
/// assert_eq!(ticket, t0);
/// assert!(matches!(resp, ServingResponse::Committed { .. }));
/// let (ticket, resp) = serving.pop_response().unwrap();
/// assert_eq!(ticket, t1);
/// let ServingResponse::Placed(answer) = resp else { unreachable!() };
/// assert_eq!(answer.ranked().len(), 2);
/// assert!(answer.margin() >= 0.0);
/// ```
#[derive(Debug)]
pub struct ServingUcpc {
    engine: IncrementalUcpc,
    cfg: ServingConfig,
    /// Scratch rows for queued arrivals: `queue_capacity` rows, written in
    /// place per admission ([`MomentArena::overwrite_row`], a verbatim
    /// copy), recycled through `free_rows` — no allocation per request.
    staging: MomentArena,
    free_rows: Vec<u32>,
    pending: VecDeque<Request>,
    responses: VecDeque<(Ticket, ServingResponse)>,
    next_ticket: Ticket,
    commits_since_stabilize: usize,
    /// Construction time, stamped on requests instead of a per-admission
    /// clock read whenever no deadline trigger is configured.
    epoch: Instant,
    /// Time source for deadline stamps ([`SystemClock`] by default;
    /// injectable via [`Self::set_clock`] so deadline tests are exact).
    clock: Box<dyn Clock>,
    /// The attached write-ahead log, if any: every mutation is logged
    /// here as a round, and [`Self::flush`] group-commits once at the end
    /// (module docs, "Durability").
    wal: Option<BoxedWal>,
    /// The moves of the current logged relocation pass: one round.
    moves: Vec<LogEntry<&'static [f64]>>,
    /// The engine state a logged relocation pass started from, kept
    /// between passes so that saving it reuses the same buffers.
    undo: PassUndo,
}

impl ServingUcpc {
    /// A serving layer over a fresh engine of `m` dimensions and `k`
    /// clusters.
    pub fn new(m: usize, k: usize, cfg: ServingConfig) -> Result<Self, ClusterError> {
        Ok(Self::over(IncrementalUcpc::new(m, k)?, cfg))
    }

    /// Wraps an existing live engine (its current partition is served
    /// as-is). Config fields are clamped: `batch ≥ 1`,
    /// `queue_capacity ≥ batch`, `1 ≤ top_k ≤ MAX_TOP_K`. All queue-scoped
    /// buffers are preallocated here; steady-state serving allocates only
    /// what the engine itself would under serial edits.
    pub fn over(engine: IncrementalUcpc, mut cfg: ServingConfig) -> Self {
        cfg.batch = cfg.batch.max(1);
        cfg.queue_capacity = cfg.queue_capacity.max(cfg.batch);
        cfg.top_k = cfg.top_k.clamp(1, MAX_TOP_K);
        let cap = cfg.queue_capacity;
        let m = engine.m;
        let mut staging = MomentArena::with_capacity(cap, m);
        for _ in 0..cap {
            staging.push_row_with(m, |_| (0.0, 0.0));
        }
        let wal = cfg.wal.then(|| {
            WalWriter::create(
                Box::new(VecIo::new()) as Box<dyn DurableIo>,
                m,
                cfg.wal_fsync,
            )
            // Invariant: a `VecIo` header write has no I/O to fail.
            .expect("in-memory sink cannot fault")
        });
        Self {
            moves: Vec::new(),
            undo: PassUndo::default(),
            engine,
            staging,
            free_rows: (0..cap as u32).rev().collect(),
            pending: VecDeque::with_capacity(cap),
            responses: VecDeque::with_capacity(cap),
            next_ticket: 0,
            cfg,
            commits_since_stabilize: 0,
            epoch: Instant::now(),
            clock: Box::new(SystemClock),
            wal,
        }
    }

    /// Replaces the deadline-trigger time source (tests inject a manual
    /// clock here; production keeps the default [`SystemClock`]).
    pub fn set_clock(&mut self, clock: Box<dyn Clock>) {
        self.clock = clock;
    }

    /// [`Self::poll`] at the attached clock's current time.
    pub fn poll_now(&mut self) -> usize {
        let now = self.clock.now();
        self.poll(now)
    }

    /// Attaches a write-ahead log over `io`, writing its header now. Every
    /// subsequent mutation is logged before it is applied. Replaces (and
    /// drops) any previously attached log — rotate with
    /// [`Self::checkpoint_into`] instead to keep history contiguous.
    pub fn attach_wal<I: DurableIo + 'static>(&mut self, io: I) -> Result<(), WalError> {
        let writer = WalWriter::create(
            Box::new(io) as Box<dyn DurableIo>,
            self.engine.m,
            self.cfg.wal_fsync,
        )?;
        self.wal = Some(writer);
        Ok(())
    }

    /// Detaches and returns the write-ahead log, if one was attached.
    /// Subsequent mutations are no longer logged.
    pub fn detach_wal(&mut self) -> Option<BoxedWal> {
        self.wal.take()
    }

    /// The attached write-ahead log, if any — e.g. to check
    /// [`WalWriter::poisoned`] or read back a [`VecIo`] buffer.
    pub fn wal(&self) -> Option<&BoxedWal> {
        self.wal.as_ref()
    }

    /// Checkpoint + log-rotate, the durability maintenance step: streams a
    /// snapshot of the **flushed** engine state into `snapshot_io`
    /// (chunked — never materializes the full state; see
    /// [`IncrementalUcpc::write_snapshot`]), syncs it, then starts a fresh
    /// write-ahead log on `wal_io` and returns the retired writer (whose
    /// sink holds exactly the frames the snapshot has absorbed). Pending
    /// (unflushed) requests are untouched — they will log to the new WAL
    /// when flushed. On any fault the engine, the old log, and the
    /// attachment state are all unchanged.
    pub fn checkpoint_into<S: DurableIo, W: DurableIo + 'static>(
        &mut self,
        snapshot_io: &mut S,
        wal_io: W,
    ) -> Result<Option<BoxedWal>, WalError> {
        self.engine
            .write_snapshot(snapshot_io)
            .map_err(WalError::Snapshot)?;
        snapshot_io.sync().map_err(WalError::Io)?;
        let fresh = WalWriter::create(
            Box::new(wal_io) as Box<dyn DurableIo>,
            self.engine.m,
            self.cfg.wal_fsync,
        )?;
        Ok(self.wal.replace(fresh))
    }

    /// The wrapped engine (read-only; flushed state only — pending requests
    /// are not yet reflected).
    pub fn engine(&self) -> &IncrementalUcpc {
        &self.engine
    }

    /// Unwraps the serving layer. Pending (unflushed) requests are
    /// discarded; flush first to apply them.
    pub fn into_engine(self) -> IncrementalUcpc {
        self.engine
    }

    /// The active configuration (after construction-time clamping).
    pub fn config(&self) -> &ServingConfig {
        &self.cfg
    }

    /// Requests admitted but not yet flushed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Answers flushed but not yet popped.
    pub fn response_len(&self) -> usize {
        self.responses.len()
    }

    fn admit(&mut self, mo: &Moments) -> Result<u32, ServingError> {
        self.check_admission()?;
        if mo.dims() != self.engine.m {
            return Err(ServingError::DimensionMismatch {
                expected: self.engine.m,
                found: mo.dims(),
            });
        }
        if !mo.view().is_finite() {
            return Err(ServingError::NonFinite);
        }
        // Invariant: there are `queue_capacity` staging rows, each held by
        // at most one pending arrival, and the queue is not full.
        let row = self
            .free_rows
            .pop()
            .expect("staging rows cover queue capacity");
        // Verbatim copy: the staged row carries exactly the arrival's bits.
        self.staging.overwrite_row(row as usize, mo);
        Ok(row)
    }

    fn enqueue(&mut self, kind: ReqKind) -> Ticket {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        // `at` only feeds the deadline trigger; without one, a clock read
        // per admission is pure overhead — stamp the construction epoch.
        let at = if self.cfg.deadline.is_some() {
            self.clock.now()
        } else {
            self.epoch
        };
        self.pending.push_back(Request { ticket, at, kind });
        ticket
    }

    fn check_admission(&self) -> Result<(), ServingError> {
        if self.pending.len() >= self.cfg.queue_capacity {
            return Err(ServingError::QueueFull {
                capacity: self.cfg.queue_capacity,
            });
        }
        Ok(())
    }

    /// Queues a placement query for an arrival given by its moments:
    /// answered at the next flush with a [`ServingResponse::Placed`],
    /// nothing committed. This is the allocation-free admission path.
    pub fn submit_query(&mut self, mo: &Moments) -> Result<Ticket, ServingError> {
        let row = self.admit(mo)?;
        Ok(self.enqueue(ReqKind::Query { row }))
    }

    /// [`Self::submit_query`] for a pdf-form arrival (its precomputed
    /// moments are staged; the pdfs never reach the engine).
    pub fn submit_query_object(&mut self, o: &UncertainObject) -> Result<Ticket, ServingError> {
        self.submit_query(o.moments())
    }

    /// Queues an arrival for placement *and insertion*: answered at the
    /// next flush with a [`ServingResponse::Committed`] carrying the stored
    /// object's handle. Committed state is byte-identical to a serial
    /// [`IncrementalUcpc::insert`] at the same point of the edit sequence
    /// (module docs).
    pub fn submit_commit(&mut self, mo: &Moments) -> Result<Ticket, ServingError> {
        let row = self.admit(mo)?;
        Ok(self.enqueue(ReqKind::Commit { row }))
    }

    /// [`Self::submit_commit`] for a pdf-form arrival.
    pub fn submit_commit_object(&mut self, o: &UncertainObject) -> Result<Ticket, ServingError> {
        self.submit_commit(o.moments())
    }

    /// Queues a removal of a committed object; answered at the next flush
    /// with [`ServingResponse::Removed`] (a stale handle is a checked
    /// in-band error there, not an admission failure).
    pub fn submit_remove(&mut self, h: ObjectHandle) -> Result<Ticket, ServingError> {
        self.check_admission()?;
        Ok(self.enqueue(ReqKind::Remove(h)))
    }

    /// Queues an explicit stabilization (up to `passes` relocation passes
    /// at its position in the request order); answered with
    /// [`ServingResponse::Stabilized`].
    pub fn submit_stabilize(&mut self, passes: usize) -> Result<Ticket, ServingError> {
        self.check_admission()?;
        Ok(self.enqueue(ReqKind::Stabilize { passes }))
    }

    /// Flushes now if a trigger fires: the batch-size trigger
    /// (`pending ≥ batch`) or the deadline trigger (the oldest pending
    /// request has waited `≥ deadline` as of `now`). Returns the number of
    /// responses produced (0 if no trigger fired). Callers drive this from
    /// their event loop; `now` is passed in so pacing is testable.
    pub fn poll(&mut self, now: Instant) -> usize {
        let Some(front) = self.pending.front() else {
            return 0;
        };
        let size_due = self.pending.len() >= self.cfg.batch;
        let deadline_due = self
            .cfg
            .deadline
            .is_some_and(|d| now.saturating_duration_since(front.at) >= d);
        if size_due || deadline_due {
            self.flush()
        } else {
            0
        }
    }

    /// Flushes every pending request as one micro-batch (price and apply
    /// in submission order → respond; module docs) regardless of triggers.
    /// Returns the number of responses produced.
    pub fn flush(&mut self) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        let n = self.pending.len();
        // Nothing is admitted mid-flush, so this drains exactly the batch
        // pending now.
        while let Some(req) = self.pending.pop_front() {
            let response = match req.kind {
                ReqKind::Query { row } => {
                    let answer = self.answer_for(row);
                    self.free_rows.push(row);
                    ServingResponse::Placed(answer)
                }
                ReqKind::Commit { row } => {
                    let answer = self.answer_for(row);
                    // Nothing is admitted mid-flush, so the row stays
                    // intact for the rest of this request.
                    self.free_rows.push(row);
                    let best = answer.best().0;
                    let v = self.staging.view(row as usize);
                    #[cfg(debug_assertions)]
                    {
                        // The fold must agree with a live full scan of
                        // `cluster_stats()` — the direct check that every
                        // statistics change rewrote its pricers.
                        // Invariant: `k >= 1` at engine construction.
                        let shadow =
                            crate::pruning::best_insertion(self.engine.cluster_stats(), &v)
                                .expect("k >= 1 clusters");
                        debug_assert_eq!(
                            (best, answer.best().1.to_bits()),
                            (shadow.0, shadow.1.to_bits()),
                            "batch fold diverged from the serial scan"
                        );
                    }
                    let handle = self.engine.next_handle();
                    let op = LogOp::Insert {
                        slot: handle.slot() as u32,
                        cluster: best,
                    };
                    let entry = LogEntry {
                        op,
                        mu: v.mu,
                        mu2: v.mu2,
                    };
                    // An arrival the WAL cannot hold is never committed.
                    if let Err(error) = log_then_apply(&mut self.wal, &mut self.engine, &[entry]) {
                        self.responses
                            .push_back((req.ticket, ServingResponse::Failed { error }));
                        continue;
                    }
                    self.commits_since_stabilize += 1;
                    // A cadence pass whose round cannot be logged is undone
                    // and leaves the counter standing: neither log nor
                    // engine saw it.
                    if self.cfg.stabilize_every != 0
                        && self.commits_since_stabilize >= self.cfg.stabilize_every
                        && self.stabilize_logged(self.cfg.stabilize_passes).is_ok()
                    {
                        self.commits_since_stabilize = 0;
                    }
                    ServingResponse::Committed { handle, answer }
                }
                ReqKind::Remove(h) => match self.engine.label_of(h) {
                    // Only an *effective* remove reaches the log: replaying
                    // a stale-handle remove would be a false corruption at
                    // recovery, so it must never be a WAL frame.
                    None => ServingResponse::Removed(self.engine.remove(h)),
                    Some(cluster) => {
                        let entry = LogEntry::bare(LogOp::Remove {
                            slot: h.slot() as u32,
                            cluster,
                        });
                        if let Err(error) =
                            log_then_apply(&mut self.wal, &mut self.engine, &[entry])
                        {
                            self.responses
                                .push_back((req.ticket, ServingResponse::Failed { error }));
                            continue;
                        }
                        ServingResponse::Removed(Ok(()))
                    }
                },
                ReqKind::Stabilize { passes } => match self.stabilize_logged(passes) {
                    Ok(relocations) => ServingResponse::Stabilized { relocations },
                    Err(error) => ServingResponse::Failed { error },
                },
            };
            self.responses.push_back((req.ticket, response));
        }
        // Group commit: one sync makes the whole flush's frames durable
        // (under WalFsync::Flush). A failure poisons the writer — later
        // mutations come back ServingResponse::Failed — but this flush's
        // responses are already queued; durability-sensitive callers check
        // WalWriter::poisoned before trusting them.
        if let Some(w) = &mut self.wal {
            let _ = w.group_commit();
        }
        n
    }

    /// Runs up to `passes` relocation passes and logs their moves as one
    /// round. The pass runs first — its moves are known only afterwards —
    /// on a saved copy of what it mutates: if the round cannot be logged,
    /// the pass is undone (statistics and labels restored, pruner retired)
    /// and the logging failure returned, so
    /// the engine still holds only state the log can reproduce.
    fn stabilize_logged(&mut self, passes: usize) -> Result<usize, WalError> {
        let Some(w) = &mut self.wal else {
            return Ok(self.engine.stabilize(passes));
        };
        self.engine.save_pass_into(&mut self.undo);
        let moves = &mut self.moves;
        moves.clear();
        let relocations = self
            .engine
            .stabilize_with(passes, |op| moves.push(LogEntry::bare(op)));
        if let Err(error) = w.log_round(w.frames() + 1, moves) {
            self.engine.undo_pass(&mut self.undo, moves);
            return Err(error);
        }
        Ok(relocations)
    }

    /// The oldest unread `(ticket, response)`, in submission order.
    pub fn pop_response(&mut self) -> Option<(Ticket, ServingResponse)> {
        self.responses.pop_front()
    }

    /// The placement answer for the arrival staged in `row`: its deltas
    /// from the engine's pricing table against the statistics as they stand
    /// now, folded into a ranked answer.
    fn answer_for(&mut self, row: u32) -> PlacementAnswer {
        let v = self.staging.view(row as usize);
        let deltas = self.engine.placement_deltas(&v);
        let k = deltas.len();
        fold_with(k, self.cfg.top_k.min(k), |c| deltas[c])
    }
}

/// Log before apply: logs one round to the attached log, if any, then
/// applies it. Rounds are numbered after the log's last frame, so serving
/// rounds count from 1 in every log.
fn log_then_apply(
    wal: &mut Option<BoxedWal>,
    engine: &mut IncrementalUcpc,
    entries: &[LogEntry<&[f64]>],
) -> Result<(), WalError> {
    if let Some(w) = wal {
        w.log_round(w.frames() + 1, entries)?;
    }
    // Invariant: the flush builds rounds from priced, admitted arrivals at
    // the engine's next slot and from live handles in their own clusters.
    engine
        .apply_round(entries)
        .expect("a round the flush built applies");
    Ok(())
}

/// Folds one arrival's `k` deltas into a [`PlacementAnswer`]: best/second
/// with the scan's exact strict-less, first-index-wins-ties `consider`
/// semantics, plus the top-`top` ranked insertion (ties keep the lower
/// cluster index). Pure in `delta_of`.
fn fold_with(k: usize, top: usize, delta_of: impl FnMut(usize) -> f64) -> PlacementAnswer {
    // Monomorphize the insertion network on its width so the inner
    // compare-exchange chain fully unrolls into selects.
    match top.clamp(2, MAX_TOP_K) {
        2 => fold_net::<2>(k, top, delta_of),
        3 => fold_net::<3>(k, top, delta_of),
        4 => fold_net::<4>(k, top, delta_of),
        5 => fold_net::<5>(k, top, delta_of),
        6 => fold_net::<6>(k, top, delta_of),
        7 => fold_net::<7>(k, top, delta_of),
        _ => fold_net::<MAX_TOP_K>(k, top, delta_of),
    }
}

/// The fold proper, as a branchless insertion network of width `W`
/// (`W = max(top, 2)`, so the best/second margin falls out of slots 0/1).
///
/// Each cluster's delta is inserted into the sorted slot array with every
/// slot written select-style: real delta orderings are adversarial for a
/// branch predictor (the ranked-insertion formulation measurably stalled
/// on misses), while selects cost the same few cycles regardless of order.
/// Every slot decides from the array as it stood before the insert: the
/// arrival takes the first slot whose delta it is strictly below, and every
/// slot past that one takes its predecessor. So an arrival lands after
/// every seated delta it ties, and a displaced entry never passes an equal
/// one; seating order is ascending `c`, so ties keep the lower cluster
/// index — the placement scan's first-index-wins-ties semantics.
fn fold_net<const W: usize>(
    k: usize,
    top: usize,
    mut delta_of: impl FnMut(usize) -> f64,
) -> PlacementAnswer {
    let mut d = [f64::INFINITY; W];
    let mut ci = [usize::MAX; W];
    for c in 0..k {
        let delta = delta_of(c);
        // Bottom up, so that slot `i - 1` still holds its old entry.
        for i in (0..W).rev() {
            let above = i.saturating_sub(1);
            let shift = i > 0 && delta < d[above];
            let take = delta < d[i];
            (d[i], ci[i]) = if shift {
                (d[above], ci[above])
            } else if take {
                (delta, c)
            } else {
                (d[i], ci[i])
            };
        }
    }
    let len = top.min(k);
    let mut entries = [(0usize, 0.0f64); MAX_TOP_K];
    for i in 0..len.min(W) {
        entries[i] = (ci[i], d[i]);
    }
    PlacementAnswer {
        entries,
        len: len as u8,
        margin: d[1] - d[0],
    }
}

#[cfg(test)]
impl ServingUcpc {
    /// Test hook: mutate the config after construction (unit tests only).
    fn config_mut_for_tests(&mut self) -> &mut ServingConfig {
        &mut self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucpc_uncertain::UnivariatePdf;

    fn obj(c: f64) -> UncertainObject {
        UncertainObject::new(vec![
            UnivariatePdf::normal(c, 0.2),
            UnivariatePdf::uniform_centered(-c, 0.5),
        ])
    }

    fn cfg(batch: usize) -> ServingConfig {
        ServingConfig {
            batch,
            queue_capacity: batch * 2,
            deadline: None,
            stabilize_every: 0,
            stabilize_passes: 2,
            top_k: MAX_TOP_K,
            wal: false,
            wal_fsync: WalFsync::Flush,
        }
    }

    #[test]
    fn batch_knob_accepts_positive_integers_only() {
        assert_eq!(ServingConfig::parse_batch("64"), Some(64));
        assert_eq!(
            ServingConfig::parse_batch("0"),
            None,
            "empty batches never flush"
        );
        assert_eq!(ServingConfig::parse_batch("-1"), None);
        assert_eq!(ServingConfig::parse_batch("lots"), None);
        let (outcome, warning) = ucpc_uncertain::env::parse_knob(
            "UCPC_BATCH",
            Some("lots"),
            "a positive integer",
            ServingConfig::parse_batch,
        );
        assert_eq!(outcome.value(), None);
        assert!(warning.unwrap().contains("UCPC_BATCH=\"lots\""));
    }

    #[test]
    fn stabilize_knob_accepts_counts_and_off() {
        assert_eq!(ServingConfig::parse_stabilize("100"), Some(100));
        assert_eq!(ServingConfig::parse_stabilize("0"), Some(0));
        assert_eq!(ServingConfig::parse_stabilize("off"), Some(0));
        assert_eq!(ServingConfig::parse_stabilize("-3"), None);
        assert_eq!(ServingConfig::parse_stabilize("never"), None);
    }

    #[test]
    fn config_is_clamped_at_construction() {
        let serving = ServingUcpc::new(
            2,
            3,
            ServingConfig {
                batch: 0,
                queue_capacity: 0,
                deadline: None,
                stabilize_every: 0,
                stabilize_passes: 1,
                top_k: 100,
                wal: false,
                wal_fsync: WalFsync::Flush,
            },
        )
        .unwrap();
        assert_eq!(serving.config().batch, 1);
        assert_eq!(serving.config().queue_capacity, 1);
        assert_eq!(serving.config().top_k, MAX_TOP_K);
    }

    #[test]
    fn responses_come_back_in_submission_order() {
        let mut serving = ServingUcpc::new(2, 2, cfg(8)).unwrap();
        let t0 = serving.submit_commit_object(&obj(0.0)).unwrap();
        let t1 = serving.submit_query_object(&obj(5.0)).unwrap();
        let t2 = serving.submit_stabilize(1).unwrap();
        assert_eq!(serving.pending_len(), 3);
        assert_eq!(serving.flush(), 3);
        assert_eq!(serving.pending_len(), 0);
        let tickets: Vec<Ticket> = std::iter::from_fn(|| serving.pop_response())
            .map(|(t, _)| t)
            .collect();
        assert_eq!(tickets, vec![t0, t1, t2]);
    }

    #[test]
    fn poll_fires_on_batch_size_and_deadline() {
        let mut serving = ServingUcpc::new(
            2,
            2,
            ServingConfig {
                deadline: Some(Duration::from_millis(0)),
                ..cfg(2)
            },
        )
        .unwrap();
        // Deadline 0: any pending request is immediately due.
        serving.submit_query_object(&obj(1.0)).unwrap();
        assert_eq!(serving.poll(Instant::now()), 1);
        // No deadline: below batch size nothing fires, at batch size it does.
        serving.config_mut_for_tests().deadline = None;
        serving.submit_query_object(&obj(1.0)).unwrap();
        assert_eq!(serving.poll(Instant::now()), 0);
        serving.submit_query_object(&obj(2.0)).unwrap();
        assert_eq!(serving.poll(Instant::now()), 2);
        assert_eq!(serving.poll(Instant::now()), 0, "empty queue: no-op");
    }

    #[test]
    fn dimension_mismatch_is_checked_at_admission() {
        let mut serving = ServingUcpc::new(3, 2, cfg(4)).unwrap();
        let err = serving.submit_query_object(&obj(1.0)).unwrap_err();
        assert_eq!(
            err,
            ServingError::DimensionMismatch {
                expected: 3,
                found: 2
            }
        );
        assert_eq!(serving.pending_len(), 0, "rejected arrival holds nothing");
    }

    #[test]
    fn wal_knob_accepts_on_off_and_fsync_policies() {
        assert_eq!(ServingConfig::parse_wal("on"), Some(true));
        assert_eq!(ServingConfig::parse_wal("1"), Some(true));
        assert_eq!(ServingConfig::parse_wal("off"), Some(false));
        assert_eq!(ServingConfig::parse_wal("0"), Some(false));
        assert_eq!(ServingConfig::parse_wal("yes"), None);
        assert_eq!(WalFsync::parse("off"), Some(WalFsync::Off));
        assert_eq!(WalFsync::parse("flush"), Some(WalFsync::Flush));
        assert_eq!(WalFsync::parse("every"), Some(WalFsync::Every));
        assert_eq!(WalFsync::parse("always"), None);
        let (outcome, warning) = ucpc_uncertain::env::parse_knob(
            "UCPC_WAL",
            Some("yes"),
            "on|off",
            ServingConfig::parse_wal,
        );
        assert_eq!(outcome.value(), None);
        assert!(warning.unwrap().contains("UCPC_WAL=\"yes\""));
    }

    /// Manual clock for exact deadline tests: no sleeping, no flakiness.
    #[derive(Debug, Clone)]
    struct FakeClock(std::rc::Rc<std::cell::Cell<Instant>>);

    impl Clock for FakeClock {
        fn now(&self) -> Instant {
            self.0.get()
        }
    }

    #[test]
    fn deadline_trigger_is_exact_under_an_injected_clock() {
        let start = Instant::now();
        let hand = std::rc::Rc::new(std::cell::Cell::new(start));
        let mut serving = ServingUcpc::new(
            2,
            2,
            ServingConfig {
                deadline: Some(Duration::from_secs(5)),
                ..cfg(100)
            },
        )
        .unwrap();
        serving.set_clock(Box::new(FakeClock(hand.clone())));
        serving.submit_query_object(&obj(1.0)).unwrap();
        // One tick short of the deadline: nothing fires.
        hand.set(start + Duration::from_secs(5) - Duration::from_nanos(1));
        assert_eq!(serving.poll_now(), 0);
        // Exactly at the deadline: the flush fires.
        hand.set(start + Duration::from_secs(5));
        assert_eq!(serving.poll_now(), 1);
        // The stamp comes from the injected clock too: a request admitted
        // at a later hand position is due exactly 5s after *that*.
        let t1 = start + Duration::from_secs(100);
        hand.set(t1);
        serving.submit_query_object(&obj(2.0)).unwrap();
        hand.set(t1 + Duration::from_secs(4));
        assert_eq!(serving.poll_now(), 0);
        hand.set(t1 + Duration::from_secs(5));
        assert_eq!(serving.poll_now(), 1);
    }

    #[test]
    fn wal_on_changes_no_bits_and_logs_every_mutation() {
        let mut logged = ServingUcpc::new(
            2,
            2,
            ServingConfig {
                wal: true,
                ..cfg(8)
            },
        )
        .unwrap();
        let mut plain = ServingUcpc::new(2, 2, cfg(8)).unwrap();
        let mut handles = Vec::new();
        for s in [&mut logged, &mut plain] {
            for c in [0.0, 0.5, 8.0, 8.5] {
                s.submit_commit_object(&obj(c)).unwrap();
            }
            s.flush();
            let mut hs = Vec::new();
            while let Some((_, r)) = s.pop_response() {
                if let ServingResponse::Committed { handle, .. } = r {
                    hs.push(handle);
                }
            }
            handles.push(hs);
        }
        assert_eq!(handles[0], handles[1], "logging must not perturb handles");
        assert_eq!(
            logged.engine().objective().to_bits(),
            plain.engine().objective().to_bits()
        );
        assert_eq!(logged.wal().unwrap().frames(), 4);
        assert!(plain.wal().is_none());
    }

    #[test]
    fn enospc_mid_flush_fails_checked_and_skips_the_apply() {
        let mut serving = ServingUcpc::new(2, 2, cfg(8)).unwrap();
        // Header + one commit frame (len, tag, seq, count, one row-carrying
        // insert entry, crc), then the wall: the second commit's frame
        // cannot fit.
        let header_and_one =
            crate::wal::WAL_HEADER_LEN + 4 + 1 + 8 + 4 + (1 + 4 + 4 + 2 * 2 * 8) + 4;
        serving.attach_wal(VecIo::limited(header_and_one)).unwrap();
        serving.submit_commit_object(&obj(0.0)).unwrap();
        serving.submit_commit_object(&obj(8.0)).unwrap();
        serving.submit_stabilize(1).unwrap();
        serving.flush();
        let (_, first) = serving.pop_response().unwrap();
        assert!(matches!(first, ServingResponse::Committed { .. }));
        let (_, second) = serving.pop_response().unwrap();
        assert!(
            matches!(
                second,
                ServingResponse::Failed {
                    error: WalError::Io(_)
                }
            ),
            "{second:?}"
        );
        // Poisoned: the stabilize after it fails too, and the engine holds
        // exactly the one logged commit.
        let (_, third) = serving.pop_response().unwrap();
        assert!(
            matches!(
                third,
                ServingResponse::Failed {
                    error: WalError::Poisoned(_)
                }
            ),
            "{third:?}"
        );
        assert_eq!(serving.engine().len(), 1, "unlogged commit must not apply");
        assert!(serving.wal().unwrap().poisoned().is_some());
    }

    #[test]
    fn checkpoint_rotates_the_log_and_recovers_bitwise() {
        let mut serving = ServingUcpc::new(
            2,
            2,
            ServingConfig {
                wal: true,
                ..cfg(8)
            },
        )
        .unwrap();
        for c in [0.0, 0.5, 8.0] {
            serving.submit_commit_object(&obj(c)).unwrap();
        }
        serving.flush();
        let mut snap_io = VecIo::new();
        let fresh_log = crate::wal::SharedVecIo::new();
        let retired = serving
            .checkpoint_into(&mut snap_io, fresh_log.clone())
            .unwrap()
            .expect("a log was attached");
        assert_eq!(
            retired.frames(),
            3,
            "retired log holds pre-checkpoint frames"
        );
        assert_eq!(snap_io.syncs(), 1, "checkpoint syncs the snapshot");
        // Post-checkpoint traffic lands in the fresh log only.
        serving.submit_commit_object(&obj(8.5)).unwrap();
        serving.flush();
        assert_eq!(serving.wal().unwrap().frames(), 1);
        // Crash now: snapshot + rotated WAL rebuild the exact engine.
        let rec = crate::wal::recover(snap_io.bytes(), &fresh_log.bytes()).unwrap();
        assert_eq!(rec.frames_applied, 1);
        assert!(rec.damage.is_none());
        assert_eq!(
            rec.engine.snapshot(),
            serving.engine().snapshot(),
            "recovered state is bit-identical to the live engine"
        );
    }

    #[test]
    fn commit_matches_direct_insert() {
        let mut serving = ServingUcpc::new(2, 2, cfg(4)).unwrap();
        let mut direct = IncrementalUcpc::new(2, 2).unwrap();
        for c in [0.0, 0.5, 8.0, 8.5] {
            serving.submit_commit_object(&obj(c)).unwrap();
            direct.insert(&obj(c)).unwrap();
        }
        serving.flush();
        assert_eq!(
            serving.engine().objective().to_bits(),
            direct.objective().to_bits()
        );
        assert_eq!(serving.engine().live_labels(), direct.live_labels());
    }

    /// An `m`-dimensional arrival centred on `c` (`arrival(c, 2)` is
    /// [`obj`]); `m = 16` reaches the dispatched `price_block` kernel.
    fn arrival(c: f64, m: usize) -> UncertainObject {
        UncertainObject::new(
            (0..m)
                .map(|j| match j % 2 {
                    0 => UnivariatePdf::normal(c, 0.2),
                    _ => UnivariatePdf::uniform_centered(-c, 0.5),
                })
                .collect(),
        )
    }

    /// One request of a scripted flush.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Query(f64),
        Commit(f64),
        Remove(ObjectHandle),
    }

    /// What a live full scan answers for `o` right now: `delta_j_add` over
    /// ascending `c`, ranked by a stable sort, as `(cluster, delta bits)`,
    /// plus the margin bits.
    fn live_scan(
        engine: &IncrementalUcpc,
        o: &UncertainObject,
        top: usize,
    ) -> (Vec<(usize, u64)>, u64) {
        let v = o.moments().view();
        let mut deltas: Vec<(usize, f64)> = engine
            .cluster_stats()
            .iter()
            .enumerate()
            .map(|(c, s)| (c, s.delta_j_add(&v)))
            .collect();
        deltas.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite deltas"));
        let margin = match deltas.len() {
            1 => f64::INFINITY,
            _ => deltas[1].1 - deltas[0].1,
        };
        let ranked = deltas.iter().take(top).map(|&(c, d)| (c, d.to_bits()));
        (ranked.collect(), margin.to_bits())
    }

    fn bits(answer: &PlacementAnswer) -> (Vec<(usize, u64)>, u64) {
        let ranked = answer.ranked().iter().map(|&(c, d)| (c, d.to_bits()));
        (ranked.collect(), answer.margin().to_bits())
    }

    /// Submits `steps` as one flush and checks every answer against a live
    /// full scan on a serial replay at the same point of the edit sequence
    /// (cadence stabilizes included). Returns the committed handles and the
    /// relocations of every cadence stabilize the replay ran.
    fn flush_matches_live_scan(
        serving: &mut ServingUcpc,
        m: usize,
        steps: &[Step],
    ) -> (Vec<ObjectHandle>, Vec<usize>) {
        let mut shadow = serving.engine().clone();
        let mut since = serving.commits_since_stabilize;
        let cfg = serving.config().clone();
        for &step in steps {
            match step {
                Step::Query(c) => serving.submit_query_object(&arrival(c, m)),
                Step::Commit(c) => serving.submit_commit_object(&arrival(c, m)),
                Step::Remove(h) => serving.submit_remove(h),
            }
            .unwrap();
        }
        assert_eq!(serving.flush(), steps.len());
        let (mut handles, mut relocations) = (Vec::new(), Vec::new());
        for (i, &step) in steps.iter().enumerate() {
            let (_, got) = serving.pop_response().unwrap();
            match (step, got) {
                (Step::Query(c), ServingResponse::Placed(answer)) => {
                    let want = live_scan(&shadow, &arrival(c, m), cfg.top_k);
                    assert_eq!(bits(&answer), want, "query {i} of {steps:?}");
                }
                (Step::Commit(c), ServingResponse::Committed { handle, answer }) => {
                    let o = arrival(c, m);
                    let want = live_scan(&shadow, &o, cfg.top_k);
                    assert_eq!(bits(&answer), want, "commit {i} of {steps:?}");
                    assert_eq!(shadow.insert_moments(o.moments()).unwrap(), handle);
                    handles.push(handle);
                    since += 1;
                    if cfg.stabilize_every != 0 && since >= cfg.stabilize_every {
                        relocations.push(shadow.stabilize(cfg.stabilize_passes));
                        since = 0;
                    }
                }
                (Step::Remove(h), ServingResponse::Removed(got)) => {
                    assert_eq!(got, shadow.remove(h), "remove {i} of {steps:?}");
                }
                (step, got) => panic!("{step:?} answered {got:?}"),
            }
        }
        assert_eq!(serving.engine().cluster_stats(), shadow.cluster_stats());
        (handles, relocations)
    }

    #[test]
    fn a_commit_and_a_remove_on_one_cluster_reprice_before_the_next_query() {
        for m in [2, 16] {
            let mut serving = ServingUcpc::new(m, 2, cfg(16)).unwrap();
            let steps = [0.0, 10.0, 0.5, 10.5].map(Step::Commit);
            let (prefill, _) = flush_matches_live_scan(&mut serving, m, &steps);
            let low = serving.engine().label_of(prefill[0]).unwrap();
            let steps = [
                Step::Query(1.0),
                Step::Commit(0.2),
                Step::Remove(prefill[0]),
                Step::Query(0.3),
                Step::Query(9.0),
                Step::Commit(0.4),
            ];
            let (committed, _) = flush_matches_live_scan(&mut serving, m, &steps);
            assert_eq!(serving.engine().label_of(committed[0]), Some(low));
        }
    }

    #[test]
    fn a_cadence_stabilize_that_relocates_mid_flush_reprices_every_cluster() {
        for m in [2, 16] {
            let every = ServingConfig {
                stabilize_every: 4,
                ..cfg(16)
            };
            let mut serving = ServingUcpc::new(m, 2, every).unwrap();
            // Greedy placement seats 1.0 beside 10 and 11; the cadence
            // stabilize after the fourth commit moves it back beside 0.
            let steps = [
                Step::Commit(0.0),
                Step::Commit(1.0),
                Step::Query(5.0),
                Step::Commit(10.0),
                Step::Commit(11.0),
                Step::Query(0.5),
                Step::Query(10.5),
                Step::Commit(0.2),
            ];
            let (_, relocations) = flush_matches_live_scan(&mut serving, m, &steps);
            assert!(relocations[0] > 0, "the cadence stabilize must relocate");
        }
    }

    #[test]
    fn a_stale_handle_remove_after_a_live_one_answers_like_a_live_scan() {
        for m in [2, 16] {
            let mut serving = ServingUcpc::new(m, 2, cfg(16)).unwrap();
            let steps = [0.0, 10.0, 0.5].map(Step::Commit);
            let (prefill, _) = flush_matches_live_scan(&mut serving, m, &steps);
            let h = prefill[0];
            // A live remove as the last request, then the same handle again,
            // now stale: both flushes answer like a live scan.
            flush_matches_live_scan(&mut serving, m, &[Step::Query(1.0), Step::Remove(h)]);
            flush_matches_live_scan(&mut serving, m, &[Step::Query(1.0), Step::Remove(h)]);
        }
    }

    #[test]
    fn a_commit_as_the_last_request_leaves_the_next_flush_exact() {
        for m in [2, 16] {
            let mut serving = ServingUcpc::new(m, 2, cfg(16)).unwrap();
            let steps = [0.0, 10.0].map(Step::Commit);
            flush_matches_live_scan(&mut serving, m, &steps);
            let steps = [Step::Query(1.0), Step::Query(9.0), Step::Commit(0.3)];
            flush_matches_live_scan(&mut serving, m, &steps);
            let steps = [Step::Query(0.2), Step::Commit(9.5), Step::Query(0.1)];
            flush_matches_live_scan(&mut serving, m, &steps);
        }
    }

    #[test]
    fn the_ranking_is_a_stable_sort_of_the_deltas() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Few distinct values, `±0.0` among them, so most inputs tie.
        let values = [-1.5, -0.0, 0.0, 0.25, 2.0, -1.5e-9, 1e300];
        let bits = |r: &[(usize, f64)]| -> Vec<(usize, u64)> {
            r.iter().map(|&(c, d)| (c, d.to_bits())).collect()
        };
        let mut rng = StdRng::seed_from_u64(7);
        for k in 1..=10 {
            for top in 1..=MAX_TOP_K {
                for _ in 0..64 {
                    let deltas: Vec<f64> = (0..k)
                        .map(|_| values[rng.gen_range(0..values.len())])
                        .collect();
                    // A stable sort by delta alone: ties, `±0.0` included,
                    // keep ascending cluster order.
                    let mut sorted: Vec<(usize, f64)> =
                        deltas.iter().copied().enumerate().collect();
                    sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
                    let a = fold_with(k, top, |c| deltas[c]);
                    let want = &sorted[..top.min(k)];
                    assert_eq!(bits(a.ranked()), bits(want), "{deltas:?}, top {top}");
                    let margin = match sorted[..] {
                        [(_, best), (_, second), ..] => second - best,
                        _ => f64::INFINITY,
                    };
                    assert_eq!(a.margin().to_bits(), margin.to_bits(), "{deltas:?}");
                }
            }
        }
    }
}
