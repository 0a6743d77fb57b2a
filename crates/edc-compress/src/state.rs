//! Reusable compressor scratch state and the word-wide match-extension
//! primitive shared by the LZ-family hot paths.
//!
//! Every codec used to rebuild its working set — hash tables, chain arrays,
//! token buffers, Huffman scratch — on each `compress` call. For a store
//! that compresses millions of 4 KiB blocks, those allocations and table
//! memsets dominate the cost of the codec itself. [`CompressorState`] owns
//! all of that scratch so a worker thread pays for it once and then runs
//! allocation-free in steady state; [`Codec::compress_with`] is the entry
//! point that threads it through.
//!
//! ## Stream stability
//!
//! Reusing state must never change the emitted bytes: `compress_with` over
//! a dirty, previously-used state produces exactly the stream a fresh
//! `compress` would. Hash tables are invalidated between inputs by an
//! epoch stamp (see `StampTable`) rather than a memset, which is both
//! O(1) and semantically identical to starting from an empty table. The
//! guarantee is enforced by golden-stream fixtures and property tests.
//!
//! ## The decode side
//!
//! Decoding needs far less: Deflate's two Huffman tables, kept in a
//! per-thread scratch of their own (`with_decode_scratch`), and the
//! `Output` cursor through which all three LZ decoders write - it owns
//! the bounds checks and the one overlap-aware match copy.
//!
//! [`Codec::compress_with`]: crate::Codec::compress_with

use std::cell::RefCell;

use crate::bitio::BitReader;
use crate::DecompressError;

/// Reusable per-thread (or per-worker) compressor scratch.
///
/// One instance serves every codec: each codec keeps its own table inside
/// so interleaving codecs on one state is safe. States are cheap to create
/// but expensive to warm up (first use sizes the tables), so pools should
/// create one per worker thread and keep it across batches.
///
/// The struct is opaque; all fields are crate-internal scratch.
pub struct CompressorState {
    /// Lzf single-probe match table (2^14 slots).
    pub(crate) lzf_table: StampTable,
    /// Lz4 single-probe match table (2^15 slots).
    pub(crate) lz4_table: StampTable,
    /// Deflate chain matcher, token buffer and Huffman scratch.
    pub(crate) deflate: crate::deflate::DeflateScratch,
    /// Count of `compress_with` calls that had to grow internal scratch.
    pub(crate) alloc_events: u64,
}

impl CompressorState {
    /// Create an empty (cold) state. Tables are sized lazily on first use.
    pub fn new() -> Self {
        CompressorState {
            lzf_table: StampTable::new(),
            lz4_table: StampTable::new(),
            deflate: crate::deflate::DeflateScratch::new(),
            alloc_events: 0,
        }
    }

    /// Number of `compress_with` calls that grew internal scratch buffers.
    ///
    /// In steady state this is stable: once the tables and buffers are
    /// warm, further calls perform zero heap allocation inside the codec.
    /// Pipelines assert their hot loops are allocation-free by comparing
    /// this counter across flushes.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }
}

impl Default for CompressorState {
    fn default() -> Self {
        Self::new()
    }
}

std::thread_local! {
    /// Fallback state for the stateless `compress`/`compress_into` entry
    /// points, so even callers without a pool amortize table setup.
    static THREAD_STATE: RefCell<CompressorState> = RefCell::new(CompressorState::new());
}

/// Run `f` with this thread's shared [`CompressorState`].
pub(crate) fn with_thread_state<R>(f: impl FnOnce(&mut CompressorState) -> R) -> R {
    THREAD_STATE.with(|cell| f(&mut cell.borrow_mut()))
}

std::thread_local! {
    /// Decode-side scratch (today: Deflate's code lengths and Huffman
    /// tables). `Codec::decompress_into` takes no state argument and every
    /// reader in the workspace calls it as is, so the scratch lives here
    /// rather than behind a new trait method; it is its own cell so a
    /// decode may run while [`THREAD_STATE`] is borrowed.
    static DECODE_SCRATCH: RefCell<crate::deflate::InflateScratch> =
        RefCell::new(crate::deflate::InflateScratch::new());
}

/// Run `f` with this thread's decode scratch.
pub(crate) fn with_decode_scratch<R>(
    f: impl FnOnce(&mut crate::deflate::InflateScratch) -> R,
) -> R {
    DECODE_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// Epoch-stamped position table: a hash table of input positions that can
/// be invalidated in O(1) between inputs.
///
/// Each slot packs `(epoch << 32) | position`. A lookup only returns the
/// position when the slot's epoch matches the table's current epoch, so
/// bumping the epoch makes every existing entry read as "empty" — exactly
/// the semantics of a freshly cleared table, without the per-call memset
/// that used to dominate small-block compression.
pub(crate) struct StampTable {
    slots: Vec<u64>,
    epoch: u32,
}

impl StampTable {
    pub(crate) const fn new() -> Self {
        StampTable { slots: Vec::new(), epoch: 0 }
    }

    /// Start a new input: size the table to `len` slots and invalidate all
    /// entries from previous inputs.
    pub(crate) fn begin(&mut self, len: usize) {
        if self.slots.len() != len {
            self.slots.clear();
            self.slots.resize(len, 0);
            self.epoch = 0;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: ancient stamps could collide with the new
            // epoch. Hard-reset once every 2^32 inputs.
            self.slots.fill(0);
            self.epoch = 1;
        }
    }

    /// Record `pos` at `h` for the current input.
    #[inline]
    pub(crate) fn set(&mut self, h: usize, pos: usize) {
        debug_assert!(pos <= u32::MAX as usize, "input exceeds 4 GiB");
        self.slots[h] = (u64::from(self.epoch) << 32) | pos as u64;
    }

    /// Record `pos` at `h` and return the position the slot held, if it
    /// was written during the current input: the lookup and the update of
    /// the LZ hot loops, once per input byte, from a single slot access.
    #[inline]
    pub(crate) fn replace(&mut self, h: usize, pos: usize) -> Option<usize> {
        debug_assert!(pos <= u32::MAX as usize, "input exceeds 4 GiB");
        let slot = &mut self.slots[h];
        let s = *slot;
        *slot = (u64::from(self.epoch) << 32) | pos as u64;
        ((s >> 32) as u32 == self.epoch).then_some(s as u32 as usize)
    }

    /// Backing capacity in slots (for allocation-event accounting).
    pub(crate) fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `max`, compared eight bytes at a time.
///
/// This is the word-wide replacement for the byte-at-a-time match
/// extension loops in the LZ codecs: unaligned little-endian `u64` loads
/// are XORed and the first differing byte located with `trailing_zeros`.
/// The result is exactly the count a byte loop would produce, so
/// tokenization — and therefore the emitted stream — is unchanged.
///
/// Requires `a < b` and `b + max <= data.len()` (the caller matches
/// against earlier data only, and caps `max` at the remaining input).
#[inline]
pub fn common_prefix_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    debug_assert!(a < b, "match source must precede match target");
    debug_assert!(b + max <= data.len(), "max overruns the input");
    let mut len = 0usize;
    while len + 8 <= max {
        let x = u64::from_le_bytes(data[a + len..a + len + 8].try_into().expect("8-byte slice"));
        let y = u64::from_le_bytes(data[b + len..b + len + 8].try_into().expect("8-byte slice"));
        let diff = x ^ y;
        if diff != 0 {
            return len + (diff.trailing_zeros() >> 3) as usize;
        }
        len += 8;
    }
    while len < max && data[a + len] == data[b + len] {
        len += 1;
    }
    len
}

/// Largest output buffer sized up front from a caller's `expected_len`:
/// the length may come from untrusted metadata, and a corrupt
/// multi-gigabyte value must fail cheaply via the stream's own checks
/// rather than abort on allocation. Larger outputs grow as they fill.
const MAX_PRESIZED_OUTPUT: usize = 16 << 20;

/// The decoders' output cursor over the caller's `Vec`.
///
/// The buffer is sized once, up front, and written through `pos`; every
/// write is bounds-checked against `expected_len` *before* it happens, so
/// a crafted stream can never hold more than the caller declared, even
/// transiently. Dropping the cursor truncates the buffer to the bytes
/// actually produced, on success and on every error path alike.
pub(crate) struct Output<'a> {
    buf: &'a mut Vec<u8>,
    pos: usize,
    expected_len: usize,
}

impl<'a> Output<'a> {
    pub(crate) fn new(buf: &'a mut Vec<u8>, expected_len: usize) -> Self {
        // Not cleared first: whatever a reused buffer still holds is
        // overwritten or truncated away, and only growth costs a fill.
        buf.resize(expected_len.min(MAX_PRESIZED_OUTPUT), 0);
        Output { buf, pos: 0, expected_len }
    }

    /// Make `buf[..end]` writable, or refuse because `end` is past
    /// `expected_len`.
    #[inline]
    fn make_room(&mut self, end: usize) -> Result<(), DecompressError> {
        if end > self.buf.len() {
            grow(self.buf, end, self.expected_len)?;
        }
        Ok(())
    }

    /// Append one byte.
    #[inline]
    pub(crate) fn push(&mut self, byte: u8) -> Result<(), DecompressError> {
        self.make_room(self.pos + 1)?;
        self.buf[self.pos] = byte;
        self.pos += 1;
        Ok(())
    }

    /// Append `src`.
    #[inline]
    pub(crate) fn extend(&mut self, src: &[u8]) -> Result<(), DecompressError> {
        let end = self.pos + src.len();
        self.make_room(end)?;
        self.buf[self.pos..end].copy_from_slice(src);
        self.pos = end;
        Ok(())
    }

    /// Append the literal run `input[at..at + len]`, `Truncated` if the
    /// input is shorter. A short run with slack on both sides moves as
    /// one fixed-width block (a pair of vector moves instead of a
    /// `memcpy` call), of which only `len` bytes count; the rest is
    /// overwritten by later output or dropped by the final truncation.
    #[inline]
    pub(crate) fn extend_from(
        &mut self,
        input: &[u8],
        at: usize,
        len: usize,
    ) -> Result<(), DecompressError> {
        const BLOCK: usize = 32;
        if len <= BLOCK {
            let dst = self.buf.get_mut(self.pos..self.pos + BLOCK);
            if let (Some(src), Some(dst)) = (input.get(at..at + BLOCK), dst) {
                dst.copy_from_slice(src);
                self.pos += len;
                return Ok(());
            }
        }
        self.extend(input.get(at..at + len).ok_or(DecompressError::Truncated)?)
    }

    /// Fill the rest of the declared output with whole bytes read from
    /// `r` at whatever bit offset it stands - the stored-block fallback of
    /// the bit-packed codecs. Seven bytes per refill while the stream has
    /// them, single bytes for the tail, so a short stream is `Truncated`
    /// after exactly the bytes it did hold.
    pub(crate) fn fill_from_bits(&mut self, r: &mut BitReader<'_>) -> Result<(), DecompressError> {
        while self.pos < self.expected_len {
            if self.expected_len - self.pos >= 7 && r.bits_remaining() >= 56 {
                let word = r.read_bits(56)?;
                self.extend(&word.to_le_bytes()[..7])?;
            } else {
                self.push(r.read_bits(8)? as u8)?;
            }
        }
        Ok(())
    }

    /// Append `len` bytes copied from `dist >= 1` bytes back; the source
    /// may overlap the bytes being written (`dist < len` repeats the last
    /// `dist` bytes, LZ77's run-length idiom). This is the one match copy
    /// of the Lzf, Lz4 and Deflate decoders.
    ///
    /// The common case - `dist >= 16` with sixteen bytes of slack after the
    /// match - moves whole 16-byte words, each loaded after the previous
    /// one was stored, so a word never reads bytes this copy has yet to
    /// write. The last word may spill up to fifteen bytes past the match;
    /// the slack guard keeps the spill inside the buffer, where later
    /// output overwrites it or the final truncation drops it. Everything
    /// else is [`copy_match_exact`], out of line.
    #[inline]
    pub(crate) fn copy_match(&mut self, dist: usize, len: usize) -> Result<(), DecompressError> {
        debug_assert!(dist >= 1, "zero distance is the caller's to reject");
        let pos = self.pos;
        if dist > pos {
            return Err(DecompressError::BadReference { at: pos, offset: dist });
        }
        let end = pos + len;
        self.make_room(end)?;
        let buf = &mut self.buf[..];
        let src = pos - dist;
        if dist >= 16 && end + 16 <= buf.len() {
            let mut k = 0;
            while k < len {
                let word: [u8; 16] = buf[src + k..src + k + 16].try_into().expect("16-byte slice");
                buf[pos + k..pos + k + 16].copy_from_slice(&word);
                k += 16;
            }
        } else {
            copy_match_exact(buf, pos, dist, len);
        }
        self.pos = end;
        Ok(())
    }

    /// End the decode: the stream must have produced exactly
    /// `expected_len` bytes.
    pub(crate) fn finish(self) -> Result<(), DecompressError> {
        if self.pos != self.expected_len {
            return Err(DecompressError::SizeMismatch {
                expected: self.expected_len,
                actual: self.pos,
            });
        }
        Ok(())
    }
}

/// `buf[pos..pos + len]` = the `len` bytes starting `dist` back, writing
/// nothing past `pos + len`: the match copy for short distances and for
/// the last bytes of the buffer.
///
/// Copy what the source holds, then keep doubling what has been written:
/// a disjoint match (`dist >= len`) is one `copy_within`, a match that
/// repeats a period shorter than itself a few. `done` stays a multiple
/// of `dist` until the last round, so every round copies whole periods
/// from the start of the pattern and the phase never slips.
#[inline(never)]
fn copy_match_exact(buf: &mut [u8], pos: usize, dist: usize, len: usize) {
    let src = pos - dist;
    let mut done = 0;
    while done < len {
        let n = (dist + done).min(len - done);
        buf.copy_within(src..src + n, pos + done);
        done += n;
    }
}

/// The arm of [`Output::make_room`] that only an `expected_len` above the
/// presize cap reaches with `end` in range: at least double `buf`. It
/// takes the `Vec`, not the cursor, so that the cursor never leaves the
/// decode loop's registers.
#[cold]
#[inline(never)]
fn grow(buf: &mut Vec<u8>, end: usize, expected_len: usize) -> Result<(), DecompressError> {
    if end > expected_len {
        return Err(DecompressError::OutputOverflow { expected: expected_len });
    }
    buf.resize(end.max(buf.len() * 2).min(expected_len), 0);
    Ok(())
}

impl Drop for Output<'_> {
    fn drop(&mut self) {
        self.buf.truncate(self.pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-at-a-time reference for `common_prefix_len`.
    fn byte_prefix_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
        let mut len = 0;
        while len < max && data[a + len] == data[b + len] {
            len += 1;
        }
        len
    }

    #[test]
    fn word_prefix_matches_byte_loop() {
        // A buffer with runs and mismatches at every alignment.
        let data: Vec<u8> = (0..512usize).map(|i| (i / 7 % 5) as u8).collect();
        for a in 0..64 {
            for b in (a + 1)..96 {
                let max = (data.len() - b).min(300);
                assert_eq!(
                    common_prefix_len(&data, a, b, max),
                    byte_prefix_len(&data, a, b, max),
                    "a={a} b={b} max={max}"
                );
            }
        }
    }

    #[test]
    fn word_prefix_respects_max() {
        let data = vec![9u8; 100];
        assert_eq!(common_prefix_len(&data, 0, 10, 0), 0);
        assert_eq!(common_prefix_len(&data, 0, 10, 7), 7);
        assert_eq!(common_prefix_len(&data, 0, 10, 8), 8);
        assert_eq!(common_prefix_len(&data, 0, 10, 90), 90);
    }

    #[test]
    fn word_prefix_finds_mismatch_inside_word() {
        let mut data = vec![5u8; 64];
        for k in 0..16 {
            data[32 + k] = 5;
        }
        data[32 + 11] = 6; // mismatch at offset 11: mid-word
        assert_eq!(common_prefix_len(&data, 0, 32, 32), 11);
    }

    #[test]
    fn output_refuses_before_it_writes() {
        let mut buf = Vec::new();
        let mut out = Output::new(&mut buf, 10);
        out.extend(b"abcdefgh").unwrap();
        assert_eq!(out.copy_match(9, 1), Err(DecompressError::BadReference { at: 8, offset: 9 }));
        assert_eq!(out.copy_match(8, 3), Err(DecompressError::OutputOverflow { expected: 10 }));
        assert_eq!(out.extend(b"xyz"), Err(DecompressError::OutputOverflow { expected: 10 }));
        assert_eq!(out.extend_from(b"xy", 0, 3), Err(DecompressError::Truncated));
        out.push(b'i').unwrap();
        assert_eq!(out.finish(), Err(DecompressError::SizeMismatch { expected: 10, actual: 9 }));
        assert_eq!(buf, b"abcdefghi", "the buffer holds what was produced, no more");
    }

    #[test]
    fn outputs_past_the_presize_cap_grow_as_they_fill() {
        use crate::{Codec, Lz4};
        // One literal, then a single match of 20 MiB at distance 1: the
        // declared length is above the cap, so the buffer starts at the
        // cap and has to grow - and an absurd declared length costs no
        // more memory than the stream's own output.
        let len = 20 << 20;
        let mut stream = vec![0x1F, 0xEE, 0x01, 0x00];
        stream.resize(stream.len() + (len - 1 - 4 - 15) / 255, 255);
        stream.push(((len - 1 - 4 - 15) % 255) as u8);
        let mut out = Vec::new();
        Lz4::new().decompress_into(&stream, len, &mut out).unwrap();
        assert_eq!(out.len(), len);
        assert!(out.iter().all(|&b| b == 0xEE));
        let err = Lz4::new().decompress_into(&stream, usize::MAX >> 1, &mut out).unwrap_err();
        assert!(matches!(err, DecompressError::SizeMismatch { actual, .. } if actual == len));
        assert!(out.capacity() < 3 * len, "capacity {} follows the output", out.capacity());
    }

    #[test]
    fn stamp_table_reads_as_empty_after_begin() {
        let mut t = StampTable::new();
        t.begin(16);
        assert_eq!(t.replace(3, 77), None);
        t.set(3, 78);
        assert_eq!(t.replace(3, 79), Some(78));
        t.begin(16);
        assert_eq!(t.replace(3, 80), None, "entries from the previous input must be invisible");
        t.begin(8); // resize also invalidates
        assert_eq!(t.replace(3, 81), None);
    }

    #[test]
    fn alloc_events_stabilize() {
        use crate::{Codec, Deflate, Lz4, Lzf};
        let mut state = CompressorState::new();
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        let mut out = Vec::new();
        for codec in [&Lzf::new() as &dyn Codec, &Lz4::new(), &Deflate::new()] {
            codec.compress_with(&mut state, &data, &mut out);
        }
        let warm = state.alloc_events();
        for _ in 0..5 {
            for codec in [&Lzf::new() as &dyn Codec, &Lz4::new(), &Deflate::new()] {
                codec.compress_with(&mut state, &data, &mut out);
            }
        }
        assert_eq!(state.alloc_events(), warm, "steady-state compression must not allocate");
    }
}
