//! Versioned binary snapshot/restore for the streaming engine.
//!
//! [`IncrementalUcpc::snapshot`] serializes the complete logical state of a
//! live clustering — its moment rows, slot generations and free-list,
//! labels, per-cluster [`ClusterStats`] and the pruning configuration —
//! into a self-describing byte buffer. [`IncrementalUcpc::restore`]
//! reassembles an engine that is **bit-identical** to the original:
//! continuing the same edit script on the restored engine produces
//! byte-for-byte the labels, statistics bits and objective of the
//! uninterrupted run, with pruning on/off and on every SIMD backend
//! (`tests/snapshot_roundtrip.rs`).
//!
//! # Why the round-trip is exact
//!
//! Every number crosses the boundary as raw IEEE-754 bits
//! ([`f64::to_bits`] / [`f64::from_bits`], little-endian), never through
//! decimal formatting. Statistics are installed verbatim through
//! `ClusterStats::from_raw_parts` — nothing is re-derived from the rows.
//! Live rows are rebuilt from their serialized `(mu, mu2)` pairs through
//! the same canonical per-dimension fold every insertion uses, which is
//! bit-identical to the original write (see [`crate::incremental`] for
//! the derivation). Freed rows are *not* serialized and restore as zeros:
//! a freed row is never read (the next occupant overwrites it whole), so
//! its residual bytes are not logical state — and zeroing them makes
//! `snapshot(restore(s)) == s` hold bytewise.
//!
//! The pruner's state is deliberately excluded, cache and watermarks
//! alike, and only its configuration is written: restore builds
//! [`Pruner::new`], the state [`Pruner::retire`] leaves — an empty cache
//! whose entries regrow invalid, which is always sound (an invalid entry
//! forces the exact full scan), and every watermark (per-cluster
//! `versions`, drift totals, per-cluster drift accumulators) at zero. With
//! no entry left, nothing needs the history the watermarks describe, and
//! that history is not logical state anyway: drift is charged only when a
//! pruned pass reads or stores a cached bound (see [`crate::incremental`]),
//! so a coordinator that runs passes and a replica that only replays them
//! hold different drift for the same clustering. Two engines with the
//! same clustering write the same bytes.
//!
//! # Format
//!
//! One format, version 5: a 12-byte head, then bounded, individually
//! CRC-32-checksummed chunks — each one a [`crate::codec`] frame whose
//! payload starts with the section kind. [`IncrementalUcpc::write_snapshot`]
//! streams them to a [`DurableIo`] sink, so a checkpoint never
//! materializes the full state in one buffer (the moment rows, the
//! dominant term, go out [`ROWS_PER_CHUNK`] rows at a time), and any
//! flipped or torn byte is caught by the chunk checksum rather than by
//! downstream validation. Readers reject every other version — versions 1
//! to 4 included — with [`SnapshotError::UnsupportedVersion`]. Version 4
//! dropped version 3's META backend byte when recycled arena rows became
//! the only moment store; version 5 dropped the prune watermarks above (META's
//! `epoch`, `versions` and drift totals, and STATS's six drift
//! accumulators).
//!
//! The head and the chunk framing are in the [`crate::codec`] table; the
//! sections, in this order, are:
//!
//! ```text
//! kind 1 META   pruning u8 (0 Off, 1 Bounds), m u64, k u64, live u64,
//!               n_slots u64, n_free u64, k × STATS
//! kind 2 SLOTS  per slot: flag u8, label u64 if live, gen u32
//!               (≤ SLOTS_PER_CHUNK slots per chunk, ascending)
//! kind 3 FREE   freed slots u32, LIFO order (≤ FREE_PER_CHUNK each)
//! kind 4 ROWS   live rows { mu m × f64, mu2 m × f64 }, ascending slot
//!               order (≤ ROWS_PER_CHUNK rows per chunk)
//! kind 5 END    empty — a stream without it is truncated
//! STATS         size u64, psi m × f64, phi m × f64, mean_sum m × f64,
//!               psi_tot f64, phi_tot f64, s_sq_tot f64
//! ```
//!
//! Kind 6 SHARD is a checkpoint's *watermark*, the last round the state
//! reflects: a shard checkpoint is the same container with a SHARD chunk
//! (`applied u64`) ahead of META. [`IncrementalUcpc::restore`] refuses
//! it; [`crate::wal::recover`] reads the watermark and replays the log
//! from the round after it. The [`crate::wal`] docs hold its layout.
//!
//! Chunk boundaries are fixed constants, so the bytes of a given engine
//! state are deterministic and `snapshot(restore(s)) == s` holds bytewise.
//! Restore clamps every count against the bytes actually present *before*
//! allocating, so a hostile count fails fast as
//! [`SnapshotError::Truncated`] instead of reserving unbounded memory
//! (`tests/snapshot_fuzz.rs` fuzzes truncations, bit flips and hostile
//! counts).

use crate::codec::{scan_frames, Reader, Writer, CHECKSUM_MISMATCH};
use crate::incremental::IncrementalUcpc;
use crate::objective::ClusterStats;
use crate::pruning::{Pruner, PruningConfig};
use crate::wal::{DurableIo, IoFault, VecIo};
use std::fmt;
use ucpc_uncertain::MomentArena;

const MAGIC: &[u8; 8] = b"UCPCSNAP";
const VERSION: u32 = 5;
const HEAD_LEN: usize = 12;

const CHUNK_META: u8 = 1;
const CHUNK_SLOTS: u8 = 2;
const CHUNK_FREE: u8 = 3;
const CHUNK_ROWS: u8 = 4;
const CHUNK_END: u8 = 5;
pub(crate) const CHUNK_SHARD: u8 = 6;

/// Moment rows per `ROWS` chunk — the writer's peak buffer is
/// `ROWS_PER_CHUNK × 16m` bytes regardless of how many objects are live.
pub const ROWS_PER_CHUNK: usize = 512;
/// Slot entries per `SLOTS` chunk.
pub const SLOTS_PER_CHUNK: usize = 4096;
/// Free-list entries per `FREE` chunk.
pub const FREE_PER_CHUNK: usize = 4096;

/// Errors from [`IncrementalUcpc::restore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the `UCPCSNAP` magic.
    BadMagic,
    /// The buffer's format version is not one this build reads.
    UnsupportedVersion(u32),
    /// The buffer ended before the declared state was complete.
    Truncated,
    /// The buffer decodes to an inconsistent state (bad tag, slot count,
    /// label range, free-list shape, section order, or trailing bytes).
    Corrupt(&'static str),
    /// A chunk failed its CRC-32 — a flipped or torn byte inside the
    /// named section.
    ChecksumMismatch(&'static str),
    /// The [`DurableIo`] sink faulted while streaming a snapshot out.
    Io(IoFault),
    /// A chunk's payload exceeds its `u32` length field; nothing of the
    /// chunk was written.
    FrameTooLarge,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "snapshot does not start with the UCPCSNAP magic"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "snapshot format version {v} is not supported (expected {VERSION})"
                )
            }
            Self::Truncated => write!(f, "snapshot buffer is truncated"),
            Self::Corrupt(what) => write!(f, "snapshot is corrupt: {what}"),
            Self::ChecksumMismatch(section) => {
                write!(f, "snapshot {section} chunk failed its checksum")
            }
            Self::Io(fault) => write!(f, "snapshot write faulted: {fault}"),
            Self::FrameTooLarge => write!(f, "snapshot chunk exceeds the u32 length field"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn section_name(kind: u8) -> &'static str {
    match kind {
        CHUNK_META => "META",
        CHUNK_SLOTS => "SLOTS",
        CHUNK_FREE => "FREE",
        CHUNK_ROWS => "ROWS",
        CHUNK_END => "END",
        CHUNK_SHARD => "SHARD",
        _ => "unknown",
    }
}

/// Streams one container to a sink: the head, then one CRC'd chunk per
/// [`Self::begin`] / [`Self::seal`], closed by [`Self::finish`]'s END.
/// The chunk buffer is reused, so peak memory is one chunk.
pub(crate) struct ChunkWriter<'a, I: DurableIo> {
    io: &'a mut I,
    w: Writer,
    written: u64,
}

impl<'a, I: DurableIo> ChunkWriter<'a, I> {
    pub(crate) fn start(io: &'a mut I) -> Result<Self, SnapshotError> {
        let mut out = Self {
            io,
            w: Writer::with_capacity(4096),
            written: 0,
        };
        out.w.bytes(MAGIC);
        out.w.u32(VERSION);
        out.write()?;
        Ok(out)
    }

    /// Starts a chunk of `kind`; the caller writes its body.
    pub(crate) fn begin(&mut self, kind: u8) -> &mut Writer {
        self.w.begin_frame();
        self.w.u8(kind);
        &mut self.w
    }

    /// Seals the chunk begun by [`Self::begin`] and streams it out; a
    /// chunk too long for its length field is refused unwritten.
    pub(crate) fn seal(&mut self) -> Result<(), SnapshotError> {
        self.w.seal_frame().ok_or(SnapshotError::FrameTooLarge)?;
        self.write()
    }

    fn write(&mut self) -> Result<(), SnapshotError> {
        let bytes = self.w.as_slice();
        self.io.write_all(bytes).map_err(SnapshotError::Io)?;
        self.written += bytes.len() as u64;
        Ok(())
    }

    /// Writes `items` as a section of `kind`, at most `per_chunk` per chunk.
    pub(crate) fn chunked<T>(
        &mut self,
        kind: u8,
        per_chunk: usize,
        items: impl IntoIterator<Item = T>,
        mut put: impl FnMut(&mut Writer, T),
    ) -> Result<(), SnapshotError> {
        let mut in_chunk = 0usize;
        for item in items {
            if in_chunk == 0 {
                self.begin(kind);
            }
            put(&mut self.w, item);
            in_chunk += 1;
            if in_chunk == per_chunk {
                self.seal()?;
                in_chunk = 0;
            }
        }
        if in_chunk > 0 {
            self.seal()?;
        }
        Ok(())
    }

    /// Writes the END chunk; returns the bytes written in total.
    pub(crate) fn finish(mut self) -> Result<u64, SnapshotError> {
        self.begin(CHUNK_END);
        self.seal()?;
        Ok(self.written)
    }
}

/// The chunks of one container, read back in order and checked end to end:
/// magic, version, every chunk's CRC (through the codec's salvage scan),
/// the section order, and an END chunk closing the stream with nothing
/// after it.
pub(crate) struct Sections<'a> {
    /// The whole input, which every count is clamped against.
    input: &'a [u8],
    chunks: std::vec::IntoIter<&'a [u8]>,
    cur: Reader<'a>,
    kind: u8,
    /// Whether the scan reached the end of the input undamaged.
    clean: bool,
    /// What running out of intact chunks before END means.
    cut: SnapshotError,
}

impl<'a> Sections<'a> {
    pub(crate) fn open(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let mut head = Reader::new(bytes);
        if head.take(8)? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = head.u32()?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let scan = scan_frames(bytes, HEAD_LEN, Some);
        let cut = match &scan.damage {
            Some(d) if d.reason == CHECKSUM_MISMATCH => {
                // Names the section by the damaged chunk's own kind byte.
                let kind = bytes.get(d.offset as usize + 4).copied().unwrap_or(0);
                SnapshotError::ChecksumMismatch(section_name(kind))
            }
            _ => SnapshotError::Truncated,
        };
        Ok(Self {
            input: bytes,
            chunks: scan.frames.into_iter(),
            cur: Reader::new(&[]),
            kind: CHUNK_END,
            clean: scan.damage.is_none(),
            cut,
        })
    }

    fn next_chunk(&mut self) -> Result<(), SnapshotError> {
        let chunk = self.chunks.next().ok_or_else(|| self.cut.clone())?;
        let (&kind, body) = chunk
            .split_first()
            .ok_or(SnapshotError::Corrupt("empty chunk"))?;
        self.kind = kind;
        self.cur = Reader::new(body);
        Ok(())
    }

    /// The reader for the next entry of section `kind`, moving on to the
    /// section's next chunk once the current one is used up. Entries never
    /// straddle chunks.
    pub(crate) fn entry(&mut self, kind: u8) -> Result<&mut Reader<'a>, SnapshotError> {
        while self.cur.remaining() == 0 {
            self.next_chunk()?;
            if self.kind != kind {
                return Err(SnapshotError::Corrupt("section missing or out of order"));
            }
        }
        if self.kind != kind {
            return Err(SnapshotError::Corrupt("section carries extra entries"));
        }
        Ok(&mut self.cur)
    }

    /// Whether the next chunk opens section `kind`, for a section a
    /// container may lead with or leave out.
    pub(crate) fn next_is(&self, kind: u8) -> bool {
        let next = self.chunks.as_slice().first().and_then(|c| c.first());
        self.cur.remaining() == 0 && next == Some(&kind)
    }

    /// Pre-allocation clamp for entries owed by later chunks: `units`
    /// entries of at least `bytes_each` bytes must fit in the whole input.
    pub(crate) fn ensure(&self, units: usize, bytes_each: usize) -> Result<(), SnapshotError> {
        Reader::new(self.input).ensure(units, bytes_each)
    }

    /// Checks that the END chunk follows the last section and closes the
    /// input.
    pub(crate) fn finish(mut self) -> Result<(), SnapshotError> {
        if self.cur.remaining() != 0 {
            return Err(SnapshotError::Corrupt("section carries extra entries"));
        }
        self.next_chunk()?;
        if self.kind != CHUNK_END {
            return Err(SnapshotError::Corrupt("section carries extra entries"));
        }
        if self.cur.remaining() != 0 {
            return Err(SnapshotError::Corrupt("END chunk carries payload"));
        }
        if self.chunks.len() != 0 || !self.clean {
            return Err(SnapshotError::Corrupt("trailing bytes"));
        }
        Ok(())
    }
}

/// The STATS encoding of the module docs.
fn write_stats(w: &mut Writer, stats: &[ClusterStats]) {
    for s in stats {
        w.u64(s.size() as u64);
        w.f64s(s.psi());
        w.f64s(s.phi());
        w.f64s(s.mean_sum());
        let (psi_tot, phi_tot, s_sq_tot) = s.scalar_aggregates();
        w.f64s(&[psi_tot, phi_tot, s_sq_tot]);
    }
}

/// Inverse of [`write_stats`] for `k` clusters of `m` dimensions.
fn read_stats(r: &mut Reader<'_>, m: usize, k: usize) -> Result<Vec<ClusterStats>, SnapshotError> {
    // Each cluster owes at least its size and three scalars.
    r.ensure(k, 32)?;
    let mut stats = Vec::with_capacity(k);
    for _ in 0..k {
        let size = r.usize()?;
        let rows = [r.f64s(m)?, r.f64s(m)?, r.f64s(m)?];
        let t = [r.f64()?, r.f64()?, r.f64()?];
        if !rows.iter().flatten().chain(&t).all(|x| x.is_finite()) {
            return Err(SnapshotError::Corrupt("cluster statistics are non-finite"));
        }
        let [psi, phi, mean_sum] = rows;
        let [psi_tot, phi_tot, s_sq_tot] = t;
        stats.push(ClusterStats::from_raw_parts(
            psi, phi, mean_sum, size, psi_tot, phi_tot, s_sq_tot,
        ));
    }
    Ok(stats)
}

impl IncrementalUcpc {
    /// Serializes the complete logical state into a versioned byte buffer:
    /// [`Self::write_snapshot`] into memory. See the
    /// [module docs](crate::snapshot) for the format and the bit-identity
    /// argument.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut io = VecIo::new();
        self.write_snapshot(&mut io)
            .expect("in-memory sink cannot fault");
        io.into_bytes()
    }

    /// Streams the snapshot to `io` as bounded, checksummed chunks (module
    /// docs), returning the bytes written. Peak writer memory is one chunk
    /// (`ROWS_PER_CHUNK × 16m` bytes for the dominant row section)
    /// regardless of live-set size, which is what lets checkpoint +
    /// log-rotate run inside the serving loop without materializing the
    /// full state. The sink is *not* synced here — durability policy
    /// belongs to the caller (see `ServingUcpc::checkpoint_into`).
    pub fn write_snapshot<I: DurableIo>(&self, io: &mut I) -> Result<u64, SnapshotError> {
        let mut out = ChunkWriter::start(io)?;
        self.write_sections(&mut out)?;
        out.finish()
    }

    /// Writes the engine's sections, META through ROWS, into an open
    /// container: the snapshot's whole body, and the shard checkpoint's
    /// after its watermark chunk.
    pub(crate) fn write_sections<I: DurableIo>(
        &self,
        out: &mut ChunkWriter<'_, I>,
    ) -> Result<(), SnapshotError> {
        let n_slots = self.labels.len();
        let w = out.begin(CHUNK_META);
        w.u8(match self.pruner.config() {
            PruningConfig::Off => 0,
            PruningConfig::Bounds => 1,
        });
        for v in [self.m, self.k, self.len(), n_slots, self.free.len()] {
            w.u64(v as u64);
        }
        write_stats(w, self.cluster_stats());
        out.seal()?;
        out.chunked(CHUNK_SLOTS, SLOTS_PER_CHUNK, 0..n_slots, |w, slot| {
            match self.labels[slot] {
                Some(c) => {
                    w.u8(1);
                    w.u64(c as u64);
                }
                None => w.u8(0),
            }
            w.u32(self.gens[slot]);
        })?;
        out.chunked(CHUNK_FREE, FREE_PER_CHUNK, &self.free, |w, &s| w.u32(s))?;
        let live = (0..n_slots).filter(|&slot| self.labels[slot].is_some());
        out.chunked(CHUNK_ROWS, ROWS_PER_CHUNK, live, |w, slot| {
            let v = self.rows.view(slot);
            w.f64s(v.mu);
            w.f64s(v.mu2);
        })
    }

    /// Rebuilds the engine from a [`Self::snapshot`] /
    /// [`Self::write_snapshot`] buffer, bit-identical to the engine that
    /// produced it. Its pruner is [`Pruner::new`] under the saved
    /// configuration: an empty cache (entries regrow invalid — always
    /// sound), zero watermarks and zero counters.
    ///
    /// Statistics are not trusted either: a cluster whose size differs
    /// from the number of live slots labelled with it, or any non-finite
    /// statistic or row, is [`SnapshotError::Corrupt`] — state the live
    /// engine never holds, which a later removal or relocation would trip
    /// over.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut sections = Sections::open(bytes)?;
        let engine = Self::read_sections(&mut sections)?;
        sections.finish()?;
        Ok(engine)
    }

    /// Reads the sections [`Self::write_sections`] wrote, with every check
    /// of [`Self::restore`] but the closing END.
    pub(crate) fn read_sections(sections: &mut Sections<'_>) -> Result<Self, SnapshotError> {
        let r = sections.entry(CHUNK_META)?;
        let pruning = match r.u8()? {
            0 => PruningConfig::Off,
            1 => PruningConfig::Bounds,
            _ => return Err(SnapshotError::Corrupt("unknown pruning tag")),
        };
        let m = r.usize()?;
        let k = r.usize()?;
        if k == 0 {
            return Err(SnapshotError::Corrupt("k must be at least 1"));
        }
        let live = r.usize()?;
        let n_slots = r.usize()?;
        let n_free = r.usize()?;
        if n_slots.checked_sub(live) != Some(n_free) {
            return Err(SnapshotError::Corrupt("free-list length mismatch"));
        }
        let stats = read_stats(r, m, k)?;
        // Entries owed by later chunks must fit in the whole input before
        // anything is reserved for them.
        sections.ensure(n_slots, 5)?;
        sections.ensure(n_free, 4)?;
        sections.ensure(live.checked_mul(m).ok_or(SnapshotError::Truncated)?, 16)?;

        let mut labels = Vec::with_capacity(n_slots);
        let mut gens = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            let r = sections.entry(CHUNK_SLOTS)?;
            labels.push(match r.u8()? {
                0 => None,
                1 => match r.usize()? {
                    c if c < k => Some(c),
                    _ => return Err(SnapshotError::Corrupt("label out of range")),
                },
                _ => return Err(SnapshotError::Corrupt("unknown slot flag")),
            });
            gens.push(r.u32()?);
        }
        if labels.iter().flatten().count() != live {
            return Err(SnapshotError::Corrupt(
                "live count does not match slot flags",
            ));
        }
        let mut members = vec![0usize; k];
        for &c in labels.iter().flatten() {
            members[c] += 1;
        }
        if stats.iter().zip(&members).any(|(s, &n)| s.size() != n) {
            return Err(SnapshotError::Corrupt(
                "cluster size does not match its label count",
            ));
        }
        let mut free = Vec::with_capacity(n_free);
        let mut freed = vec![false; n_slots];
        for _ in 0..n_free {
            let s = sections.entry(CHUNK_FREE)?.u32()?;
            let slot = s as usize;
            if slot >= n_slots || labels[slot].is_some() || freed[slot] {
                return Err(SnapshotError::Corrupt("free-list entry invalid"));
            }
            freed[slot] = true;
            free.push(s);
        }
        let mut rows = MomentArena::with_capacity(n_slots, m);
        for l in &labels {
            if l.is_some() {
                let r = sections.entry(CHUNK_ROWS)?;
                let (mu, mu2) = (r.f64s(m)?, r.f64s(m)?);
                // The same canonical per-dimension fold the original
                // insertion used — bit-identical row reconstruction.
                rows.push_row_with(m, |d| (mu[d], mu2[d]));
                if !rows.view(rows.len() - 1).is_finite() {
                    return Err(SnapshotError::Corrupt("row is non-finite"));
                }
            } else {
                rows.push_row_with(m, |_| (0.0, 0.0));
            }
        }
        Ok(Self {
            m,
            k,
            rows,
            labels,
            gens,
            free,
            pruner: Pruner::new(stats, pruning),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::RefStream;
    use ucpc_uncertain::{UncertainObject, UnivariatePdf};

    fn obj(c: f64) -> UncertainObject {
        UncertainObject::new(vec![
            UnivariatePdf::normal(c, 0.2),
            UnivariatePdf::uniform_centered(c, 0.6),
        ])
    }

    /// An engine after a churn script with slot reuse, and the reference
    /// model after the same script.
    fn churned(pruning: PruningConfig) -> (IncrementalUcpc, RefStream) {
        let mut inc = IncrementalUcpc::new(2, 3).unwrap();
        let mut reference = RefStream::new(2, 3);
        inc.set_pruning(pruning);
        let mut live = Vec::new();
        for i in 0..12 {
            let o = obj((i % 4) as f64 * 3.0);
            live.push(inc.insert(&o).unwrap());
            reference.insert(&o).unwrap();
        }
        assert_eq!(inc.stabilize(4), reference.stabilize(4));
        for _ in 0..5 {
            let victim = live.remove(1);
            inc.remove(victim).unwrap();
            reference.remove(victim).unwrap();
            live.push(inc.insert(&obj(1.5)).unwrap());
            reference.insert(&obj(1.5)).unwrap();
        }
        assert_eq!(inc.stabilize(4), reference.stabilize(4));
        (inc, reference)
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
            let (inc, reference) = churned(pruning);
            let bytes = inc.snapshot();
            let back = IncrementalUcpc::restore(&bytes).unwrap();
            assert_eq!(back.len(), reference.len());
            assert_eq!(back.live_labels(), reference.live_labels());
            assert_eq!(back.cluster_stats(), reference.cluster_stats());
            assert_eq!(
                back.objective().to_bits(),
                reference.objective().to_bits(),
                "objective must round-trip bitwise ({pruning:?})"
            );
            // Chunk boundaries are fixed constants: snapshotting the
            // restored engine reproduces the exact bytes.
            assert_eq!(back.snapshot(), bytes, "snapshot(restore(s)) == s");
        }
    }

    #[test]
    fn v2_roundtrip_is_bit_identical_and_deterministic() {
        for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
            let (mut inc, mut reference) = churned(pruning);
            let bytes = inc.snapshot();
            // Serializing the same engine twice yields the same bytes.
            assert_eq!(inc.snapshot(), bytes, "snapshot is deterministic");
            let mut back = IncrementalUcpc::restore(&bytes).unwrap();
            assert_eq!(back.snapshot(), bytes, "snapshot(restore(s)) == s");
            // The restored engine evolves exactly like the original.
            let a = inc.insert(&obj(2.25)).unwrap();
            let b = back.insert(&obj(2.25)).unwrap();
            assert_eq!(a, b, "handle assignment survives restore ({pruning:?})");
            assert_eq!(reference.insert(&obj(2.25)), Ok(a));
            inc.stabilize(4);
            back.stabilize(4);
            reference.stabilize(4);
            assert_eq!(back.live_labels(), reference.live_labels());
            assert_eq!(
                back.objective().to_bits(),
                reference.objective().to_bits(),
                "objective stays bitwise equal after restore ({pruning:?})"
            );
            assert_eq!(back.snapshot(), inc.snapshot(), "states stay identical");
        }
    }

    #[test]
    fn v2_streams_rows_in_bounded_chunks() {
        // Enough live objects to force several ROWS chunks.
        let mut inc = IncrementalUcpc::new(2, 3).unwrap();
        for i in 0..(2 * ROWS_PER_CHUNK + 17) {
            inc.insert(&obj((i % 5) as f64)).unwrap();
        }
        let bytes = inc.snapshot();
        let back = IncrementalUcpc::restore(&bytes).unwrap();
        assert_eq!(back.snapshot(), bytes);
        assert_eq!(back.len(), inc.len());
    }

    #[test]
    fn v2_write_snapshot_surfaces_sink_faults() {
        let inc = churned(PruningConfig::Bounds).0;
        let full = inc.snapshot().len();
        // ENOSPC at any offset is a checked error, never a panic.
        for limit in [0, 11, 12, 40, full - 1] {
            let mut io = VecIo::limited(limit);
            let err = inc.write_snapshot(&mut io).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Io(_)),
                "limit {limit}: {err:?}"
            );
        }
    }

    #[test]
    fn v2_rejects_flips_truncations_and_reordering() {
        let inc = churned(PruningConfig::Bounds).0;
        let bytes = inc.snapshot();
        // Any truncation fails checked.
        for cut in [12, 13, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                IncrementalUcpc::restore(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        // A flipped byte inside a chunk is caught by that chunk's CRC.
        let mut flipped = bytes.clone();
        flipped[20] ^= 0x40;
        assert_eq!(
            IncrementalUcpc::restore(&flipped).unwrap_err(),
            SnapshotError::ChecksumMismatch("META")
        );
        // A well-formed container missing its sections is rejected.
        let mut io = VecIo::new();
        ChunkWriter::start(&mut io).unwrap().finish().unwrap();
        assert_eq!(
            IncrementalUcpc::restore(io.bytes()).unwrap_err(),
            SnapshotError::Corrupt("section missing or out of order")
        );
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let inc = churned(PruningConfig::Bounds).0;
        let bytes = inc.snapshot();
        assert_eq!(
            IncrementalUcpc::restore(b"not a snapshot at all...").unwrap_err(),
            SnapshotError::BadMagic
        );
        // Versions 1 to 4 are gone; any version but 5 is rejected.
        for version in [1, 2, 3, 4, 99] {
            let mut other = bytes.clone();
            other[8] = version;
            assert_eq!(
                IncrementalUcpc::restore(&other).unwrap_err(),
                SnapshotError::UnsupportedVersion(version.into())
            );
        }
        assert_eq!(
            IncrementalUcpc::restore(&bytes[..bytes.len() - 1]).unwrap_err(),
            SnapshotError::Truncated
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            IncrementalUcpc::restore(&trailing).unwrap_err(),
            SnapshotError::Corrupt("trailing bytes")
        );
    }
}
