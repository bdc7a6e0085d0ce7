//! The one binary encoding layer: every durable byte the workspace writes
//! — snapshot chunks, WAL frames, shard-log rounds and shard checkpoints —
//! goes out through its `Writer` and comes back through its `Reader` and
//! `scan_frames`.
//!
//! Integers are little-endian; an `f64` is its [`f64::to_bits`] pattern,
//! little-endian, so every statistic and moment row round-trips bit for
//! bit. Every stream is a fixed head followed by self-delimiting frames:
//!
//! ```text
//! frame    len      u32         payload length in bytes
//!          payload  len × u8    first byte = record tag / section kind
//!          crc      u32         CRC-32 (IEEE) of len ‖ payload
//!
//! stream            head                                  payload tags
//! WAL / shard log   "UCPCWAL\0" | version u32 = 2 |       1 Round
//!                   m u64 | crc u32 (of the 20 bytes)
//! snapshot /        "UCPCSNAP" | version u32 = 5          1 META, 2 SLOTS,
//! shard checkpoint                                        3 FREE, 4 ROWS, 5 END,
//!                                                         6 SHARD
//! ```
//!
//! [`crate::wal`] and [`crate::snapshot`] document the payload of each tag.
//!
//! Readers never trust a length they have not checked: `Reader::ensure`
//! clamps a count against the unread input *before* anything is
//! allocated, and `scan_frames` rejects a frame that runs past the end of
//! its buffer before reading its payload — a hostile `u32::MAX` or
//! `u64::MAX` count costs nothing but the error.

use crate::snapshot::SnapshotError;
use std::fmt;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes` — the
/// checksum guarding every frame and the WAL header.
///
/// Dispatched at run time: on `x86_64` with `pclmulqdq` and `sse4.1`, an
/// input of at least 16 bytes (a remove frame and the WAL header too) has
/// its whole 16-byte blocks folded by the carry-less-multiply kernel, and
/// the table loop finishes the `< 16`-byte tail. Shorter inputs and other
/// targets take the table loop alone. Both paths compute the same
/// function of the bytes, so the choice never shows on disk.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN && clmul::available() {
        let (blocks, tail) = bytes.as_chunks::<16>();
        // SAFETY: `available` just confirmed the CPU features the kernel is
        // compiled for, and `blocks` holds at least `MIN_LEN / 16 = 1`
        // block.
        let state = unsafe { clmul::fold(!0, blocks) };
        return !crc32_tables(state, tail);
    }
    !crc32_tables(!0, bytes)
}

// Slicing-by-8: table[0] is the classic byte-at-a-time table; table[k]
// advances a byte through k additional zero bytes, so eight table lookups
// retire eight input bytes per iteration. The tables are built at compile
// time, so the portable path needs no runtime init.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// The portable path: advances the running (pre-inverted) CRC `c` over
/// `bytes`, slicing-by-8.
fn crc32_tables(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Carry-less-multiply CRC-32 folding after Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction" (Intel,
/// 2009), with the bit-reflected constants zlib and Linux use for
/// `0xEDB88320`. Four 128-bit lanes fold 64 bytes per step; the lanes then
/// fold into one, which reduces to 64 bits, and a Barrett reduction yields
/// the 32-bit remainder.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// Inputs shorter than this stay on the table loop. [`fold`] needs one
    /// whole block, and from one block up it keeps pace with the table
    /// loop or beats it (on a 2-core x86-64 host: 16 bytes at par, a
    /// 26-byte remove frame 9.5 → 7.3 ns, 63 bytes 31 → 16 ns), so a longer
    /// minimum would only give speed away.
    pub(super) const MIN_LEN: usize = 16;

    /// `x^(4·128+32)`, `x^(4·128−32) mod P` (low, high): folds a lane 512
    /// bits forward.
    const K1_K2: (i64, i64) = (0x0001_5444_2bd4, 0x0001_c6e4_1596);
    /// `x^(128+32)`, `x^(128−32) mod P`: folds a lane 128 bits forward;
    /// the high one alone also reduces 128 bits to 96.
    const K3_K4: (i64, i64) = (0x0001_7519_97d0, 0x0000_ccaa_009e);
    /// `x^64 mod P`: reduces 96 bits to 64.
    const K5: i64 = 0x0001_63cd_6124;
    /// `P'` and `μ = ⌊x^64 / P⌋`, reflected: the Barrett pair.
    const POLY_MU: (i64, i64) = (0x0001_db71_0641, 0x0001_f701_1641);

    /// Whether this CPU runs [`fold`]. The standard library caches the
    /// CPUID probe, so this is two loads of a static after the first call.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// `(acc.lo · k.lo) ⊕ (acc.hi · k.hi) ⊕ next`: `acc` carried forward
    /// by the distance `k` encodes, onto `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_onto(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and the load is unaligned.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Advances the running (pre-inverted) CRC `state` over `blocks`, as
    /// the table loop would.
    ///
    /// Four or more blocks run four lanes, 512 bits apart, folded into
    /// one at the end; one to three blocks start from a single lane. Either
    /// way the remaining blocks fold onto the one lane 128 bits at a time.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse4.1` (see [`available`]).
    /// `blocks` must hold at least one block; none panics.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold(state: u32, blocks: &[[u8; 16]]) -> u32 {
        let k3k4 = _mm_set_epi64x(K3_K4.1, K3_K4.0);
        let first = _mm_xor_si128(load(&blocks[0]), _mm_cvtsi32_si128(state as i32));
        let (mut x, rest) = match blocks {
            [_, b1, b2, b3, rest @ ..] => {
                let k1k2 = _mm_set_epi64x(K1_K2.1, K1_K2.0);
                let (mut x0, mut x1, mut x2, mut x3) = (first, load(b1), load(b2), load(b3));
                let mut quads = rest.chunks_exact(4);
                for q in &mut quads {
                    x0 = fold_onto(x0, k1k2, load(&q[0]));
                    x1 = fold_onto(x1, k1k2, load(&q[1]));
                    x2 = fold_onto(x2, k1k2, load(&q[2]));
                    x3 = fold_onto(x3, k1k2, load(&q[3]));
                }
                let x = fold_onto(fold_onto(fold_onto(x0, k3k4, x1), k3k4, x2), k3k4, x3);
                (x, quads.remainder())
            }
            _ => (first, &blocks[1..]),
        };
        for b in rest {
            x = fold_onto(x, k3k4, load(b));
        }

        // 128 → 96 bits: the low 64 times K4, onto the high 64.
        x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
        // 96 → 64 bits: the low 32 times K5, onto the high 64.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let k5 = _mm_set_epi64x(0, K5);
        x = _mm_xor_si128(
            _mm_srli_si128(x, 4),
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
        );
        // Barrett: q = ⌊x·μ⌋ on the low 32 bits, then x ⊕ q·P.
        let poly_mu = _mm_set_epi64x(POLY_MU.1, POLY_MU.0);
        let q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
        let qp = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, qp), 1) as u32
    }
}

/// Appends `vals` to `p` as LE IEEE-754 bit patterns. On little-endian
/// targets the in-memory representation *is* that byte stream (`f64` has
/// no padding and `u8` has alignment 1), so the copy is one `memcpy`
/// instead of a per-element loop — this sits on the serving commit path.
pub(crate) fn extend_f64_bits(p: &mut Vec<u8>, vals: &[f64]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: the pointer comes from a live `&[f64]` of `vals.len()`
        // elements, i.e. `vals.len() * 8` initialized bytes that the shared
        // borrow keeps alive and unaliased by writers for this call; `u8`
        // has alignment 1 and every byte pattern is a valid `u8`.
        let bytes =
            unsafe { std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), vals.len() * 8) };
        p.extend_from_slice(bytes);
    }
    #[cfg(target_endian = "big")]
    {
        for &v in vals {
            p.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
}

/// The LE writer and frame encoder, over one scratch buffer that callers
/// keep and reuse: [`Self::begin_frame`] clears it, the put methods append
/// the payload, and [`Self::seal_frame`] returns the finished frame for a
/// single sink write. Peak memory is one frame.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Everything written since the last clear.
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64s(&mut self, vs: &[f64]) {
        extend_f64_bits(&mut self.buf, vs);
    }

    /// Starts a frame: clears the buffer and reserves the length field.
    pub(crate) fn begin_frame(&mut self) {
        self.buf.clear();
        self.buf.extend_from_slice(&[0; 4]);
    }

    /// Patches the length of the frame begun by [`Self::begin_frame`],
    /// appends the CRC-32 over `len ‖ payload`, and returns the frame —
    /// or `None`, leaving the frame unsealed, when the payload is too long
    /// for the length field (see [`frame_len`]).
    pub(crate) fn seal_frame(&mut self) -> Option<&[u8]> {
        let len = frame_len(self.buf.len() - 4)?;
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        Some(&self.buf)
    }
}

/// The `u32` length field of a frame with a `payload`-byte payload, or
/// `None` when it does not fit: a truncated field would make the frame
/// unreadable, so such a frame must never reach a sink.
pub(crate) fn frame_len(payload: usize) -> Option<u32> {
    u32::try_from(payload).ok()
}

/// Bounds-checked LE reader: every getter returns
/// [`SnapshotError::Truncated`] past the end of its slice instead of
/// panicking.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        self.take(N)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.array::<1>()?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64` count or index that must fit in `usize`.
    pub(crate) fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Corrupt("count overflows usize"))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// `n` floats, clamped against the unread input before allocating.
    pub(crate) fn f64s(&mut self, n: usize) -> Result<Vec<f64>, SnapshotError> {
        let mut out = Vec::new();
        self.f64s_into(n, &mut out)?;
        Ok(out)
    }

    /// Appends `n` floats to `out`, decoded in bulk from 8-byte chunks. The
    /// bytes are taken, and so clamped against the input, before `out`
    /// grows; an `out` with room left does not allocate.
    pub(crate) fn f64s_into(&mut self, n: usize, out: &mut Vec<f64>) -> Result<(), SnapshotError> {
        let bytes = self.take(n.checked_mul(8).ok_or(SnapshotError::Truncated)?)?;
        let (chunks, _) = bytes.as_chunks::<8>();
        out.extend(chunks.iter().map(|c| f64::from_le_bytes(*c)));
        Ok(())
    }

    /// Pre-allocation clamp: `units` entries of at least `bytes_each`
    /// encoded bytes apiece must still fit in the unread input, else the
    /// input is truncated. Call it *before* any `Vec::with_capacity`, so a
    /// flipped count field can demand at most the input's own size.
    pub(crate) fn ensure(&self, units: usize, bytes_each: usize) -> Result<(), SnapshotError> {
        match units.checked_mul(bytes_each) {
            Some(total) if total <= self.remaining() => Ok(()),
            _ => Err(SnapshotError::Truncated),
        }
    }
}

/// Where (and why) a framed byte stream stops being intact — the damage
/// report of the codec's salvage scan, and through it of
/// [`crate::wal::scan_wal`] and [`crate::wal::recover`].
///
/// Carries the *location* of the first damaged frame, not just a flag:
/// `offset` is the byte at which that frame starts (equivalently, the
/// end of the valid prefix) and `frame_index` is its zero-based index —
/// the coordinates an operator needs to inspect, truncate, or quarantine
/// the tail. Header damage reports `offset == 0` and `frame_index == 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalDamage {
    /// Byte offset where the first damaged frame starts (0 when the
    /// header itself is damaged).
    pub offset: u64,
    /// Zero-based index of the first damaged frame (== the number of
    /// intact frames before it).
    pub frame_index: u64,
    /// What the scanner tripped on.
    pub reason: &'static str,
}

impl fmt::Display for WalDamage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frame {} (byte offset {}) is damaged: {}",
            self.frame_index, self.offset, self.reason
        )
    }
}

/// [`WalDamage::reason`] of a frame whose bytes are all present but fail
/// the CRC — as opposed to a torn one that runs past the end.
pub(crate) const CHECKSUM_MISMATCH: &str = "frame checksum mismatch";

/// The intact prefix of a framed stream: what [`scan_frames`] returns.
#[derive(Debug)]
pub(crate) struct Salvage<T> {
    /// Decoded intact frames, in stream order.
    pub(crate) frames: Vec<T>,
    /// `frame_ends[i]` is the byte offset just past frame `i`.
    pub(crate) frame_ends: Vec<u64>,
    /// End of the valid prefix (`start` if no frame is intact).
    pub(crate) valid_bytes: u64,
    /// The first damaged frame, or `None` if the stream is clean to its end.
    pub(crate) damage: Option<WalDamage>,
}

/// Walks the frames of `bytes` from offset `start` until the first one that
/// is torn (runs past the end), fails its CRC, or whose payload `decode`
/// rejects; everything before it is the valid prefix. Damage is reported,
/// never an error and never a panic: a torn tail is exactly what a crash
/// mid-append leaves behind.
pub(crate) fn scan_frames<'a, T>(
    bytes: &'a [u8],
    start: usize,
    mut decode: impl FnMut(&'a [u8]) -> Option<T>,
) -> Salvage<T> {
    let mut out = Salvage {
        frames: Vec::new(),
        frame_ends: Vec::new(),
        valid_bytes: start as u64,
        damage: None,
    };
    let mut pos = start;
    while pos < bytes.len() {
        let mut r = Reader::new(&bytes[pos..]);
        // Torn check first: a frame that runs past the end is a crash
        // mid-append, however implausible its length field.
        let framed = r.u32().and_then(|len| {
            let payload = r.take(len as usize)?;
            Ok((payload, r.u32()?))
        });
        let reason = match framed {
            Err(_) if bytes.len() - pos < 4 => "torn frame length",
            Err(_) => "torn frame",
            Ok((payload, crc)) => {
                let end = pos + 4 + payload.len();
                if crc32(&bytes[pos..end]) != crc {
                    CHECKSUM_MISMATCH
                } else if let Some(frame) = decode(payload) {
                    out.frames.push(frame);
                    pos = end + 4;
                    out.frame_ends.push(pos as u64);
                    out.valid_bytes = pos as u64;
                    continue;
                } else {
                    "malformed frame payload"
                }
            }
        };
        out.damage = Some(WalDamage {
            offset: out.valid_bytes,
            frame_index: out.frames.len() as u64,
            reason,
        });
        break;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The table loop alone, as every input took it before dispatch.
    fn portable(bytes: &[u8]) -> u32 {
        !crc32_tables(!0, bytes)
    }

    /// The reflected IEEE CRC-32 one bit at a time: no table and no fold,
    /// the definition both fast paths must reproduce.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut v = vec![0u8; len];
        StdRng::seed_from_u64(seed).fill_bytes(&mut v);
        v
    }

    #[test]
    fn dispatched_crc_matches_the_table_loop_at_every_length_and_offset() {
        // Every length 0..=1024 at every start offset 0..16: both sides of
        // the kernel threshold, every tail length and every load alignment.
        let buf = random_bytes(1024 + 16, 22);
        for offset in 0..16 {
            for len in 0..=1024 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), portable(s), "len {len} at offset {offset}");
            }
        }
        for (i, len) in [4_095, 4_096, 65_537, 524_291].into_iter().enumerate() {
            let s = random_bytes(len, i as u64);
            assert_eq!(crc32(&s), portable(&s), "len {len}");
        }
    }

    #[test]
    fn dispatched_crc_matches_a_bitwise_reference_at_every_length() {
        // Every length 0..=600 at three start offsets: the table loop
        // alone, one to three whole blocks on one lane and the four-lane
        // body, each with every tail length.
        let buf = random_bytes(600 + 7, 23);
        for offset in [0, 3, 7] {
            for len in 0..=600 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), bitwise(s), "len {len} at offset {offset}");
            }
        }
    }

    #[test]
    fn crc_matches_independent_zlib_vectors() {
        // Values from Python's `zlib.crc32`, not from this code: one input
        // above the kernel threshold with every byte value, one long run of
        // zeros.
        let ramp: Vec<u8> = (0..=255).collect();
        assert_eq!(crc32(&ramp), 0x2905_8C73);
        assert_eq!(crc32(&[0; 4096]), 0xC71C_0011);
    }

    #[test]
    fn frame_length_field_refuses_payloads_past_u32() {
        assert_eq!(frame_len(0), Some(0));
        assert_eq!(frame_len(u32::MAX as usize), Some(u32::MAX));
        assert_eq!(frame_len(u32::MAX as usize + 1), None);
        assert_eq!(frame_len(usize::MAX), None);
    }

    #[test]
    fn frames_round_trip_and_salvage_stops_at_the_first_damage() {
        let mut w = Writer::default();
        let mut stream = vec![0xAB];
        for payload in [&b"one"[..], b"", b"three"] {
            w.begin_frame();
            w.bytes(payload);
            stream.extend_from_slice(w.seal_frame().unwrap());
        }
        let clean = scan_frames(&stream, 1, Some);
        assert_eq!(clean.frames, vec![&b"one"[..], b"", b"three"]);
        assert_eq!(clean.frame_ends, vec![12, 20, 33]);
        assert_eq!((clean.valid_bytes, clean.damage), (33, None));

        let mut bent = stream.clone();
        bent[25] ^= 1;
        let s = scan_frames(&bent, 1, Some);
        assert_eq!(s.frames.len(), 2);
        assert_eq!(s.damage.unwrap().reason, CHECKSUM_MISMATCH);
        for cut in 13..20 {
            let s = scan_frames(&stream[..cut], 1, Some);
            let d = s.damage.unwrap();
            assert_eq!((s.valid_bytes, d.offset, d.frame_index), (12, 12, 1));
        }
        let s = scan_frames(&stream, 1, |p: &[u8]| (!p.is_empty()).then_some(p));
        assert_eq!(s.damage.unwrap().reason, "malformed frame payload");
    }
}
