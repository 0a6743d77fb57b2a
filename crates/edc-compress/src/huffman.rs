//! Canonical, length-limited Huffman coding shared by the Gzip-class
//! ([`crate::deflate`]) and Bzip2-class ([`crate::bwt`]) codecs.
//!
//! Code lengths are built with a standard heap-based Huffman construction;
//! if the deepest code exceeds [`MAX_CODE_LEN`], frequencies are halved
//! (rounding up) and the tree rebuilt — the same pragmatic depth-limiting
//! strategy production encoders use. Codes are assigned canonically and
//! stored bit-reversed so they can be emitted directly into the LSB-first
//! bitstream and decoded with a single table lookup.

use crate::bitio::{BitReader, BitWriter};
use crate::DecompressError;

/// Maximum Huffman code length (DEFLATE's limit; keeps decode tables small).
pub const MAX_CODE_LEN: u32 = 15;

/// Reverse the low `len` bits of `code` (`1 <= len <= 32`).
#[inline]
fn reverse_bits(code: u32, len: u32) -> u32 {
    code.reverse_bits() >> (32 - len)
}

/// Compute Huffman code lengths for `freqs`, limited to `MAX_CODE_LEN`.
///
/// Returns one length per symbol; unused symbols (zero frequency) get
/// length 0. If exactly one symbol is used it gets length 1 (a zero-length
/// code cannot be written to the stream).
///
/// Convenience wrapper over [`LengthBuilder`]; hot paths keep a builder
/// (and an output `Vec`) alive across calls to avoid its allocations.
pub fn build_code_lengths(freqs: &[u64]) -> Vec<u8> {
    let mut lengths = Vec::new();
    LengthBuilder::new().build_into(freqs, &mut lengths);
    lengths
}

/// Reusable scratch for length-limited Huffman construction.
///
/// The per-block tree build used to allocate a node arena and a fresh
/// `BinaryHeap` on every call; this builder keeps both (plus the scaled
/// frequency copy) across calls. The lengths produced are identical to
/// [`build_code_lengths`]'s: the heap's pop order is fully determined by
/// the `(freq, node_index)` keys, which are unique, so internal heap
/// layout differences cannot change the tree.
pub struct LengthBuilder {
    scaled: Vec<u64>,
    used: Vec<usize>,
    parent: Vec<usize>,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    depths: Vec<u8>,
}

impl LengthBuilder {
    /// Create an empty builder; scratch is sized on first use.
    pub fn new() -> Self {
        LengthBuilder {
            scaled: Vec::new(),
            used: Vec::new(),
            parent: Vec::new(),
            heap: std::collections::BinaryHeap::new(),
            depths: Vec::new(),
        }
    }

    /// Compute code lengths for `freqs` into `lengths` (cleared first).
    ///
    /// Semantics match [`build_code_lengths`] exactly.
    pub fn build_into(&mut self, freqs: &[u64], lengths: &mut Vec<u8>) {
        assert!(!freqs.is_empty(), "need at least one symbol");
        lengths.clear();
        lengths.resize(freqs.len(), 0);
        self.used.clear();
        self.used.extend((0..freqs.len()).filter(|&s| freqs[s] > 0));
        match self.used.len() {
            0 => return,
            1 => {
                lengths[self.used[0]] = 1;
                return;
            }
            _ => {}
        }

        self.scaled.clear();
        self.scaled.extend_from_slice(freqs);
        loop {
            self.huffman_depths();
            let max = self.depths.iter().copied().max().unwrap_or(0);
            if u32::from(max) <= MAX_CODE_LEN {
                for (&s, &l) in self.used.iter().zip(self.depths.iter()) {
                    lengths[s] = l;
                }
                return;
            }
            // Flatten the distribution and retry; terminates because all
            // frequencies converge to 1 (perfectly balanced tree).
            for f in self.scaled.iter_mut() {
                if *f > 0 {
                    *f = (*f).div_ceil(2);
                }
            }
        }
    }

    /// Plain Huffman tree construction over the `used` symbols of
    /// `scaled`; leaves depth-per-used-symbol in `self.depths`.
    fn huffman_depths(&mut self) {
        let LengthBuilder { scaled, used, parent, heap, depths } = self;
        // Node arena: leaves first, then internal nodes.
        let n = used.len();
        debug_assert!(n >= 2);
        parent.clear();
        parent.resize(2 * n - 1, usize::MAX);
        // Min-heap of (freq, node_index); tie-break on node index for
        // determinism across platforms.
        heap.clear();
        heap.extend(used.iter().enumerate().map(|(i, &s)| std::cmp::Reverse((scaled[s], i))));
        let mut next = n;
        while heap.len() > 1 {
            let std::cmp::Reverse((fa, a)) = heap.pop().unwrap();
            let std::cmp::Reverse((fb, b)) = heap.pop().unwrap();
            parent[a] = next;
            parent[b] = next;
            heap.push(std::cmp::Reverse((fa + fb, next)));
            next += 1;
        }
        // Depth of each leaf = chain length to the root.
        depths.clear();
        depths.extend((0..n).map(|leaf| {
            let mut d = 0u8;
            let mut node = leaf;
            while parent[node] != usize::MAX {
                node = parent[node];
                d += 1;
            }
            d
        }));
    }

    /// Summed backing capacities (for allocation-event accounting).
    pub fn capacity(&self) -> usize {
        self.scaled.capacity()
            + self.used.capacity()
            + self.parent.capacity()
            + self.heap.capacity()
            + self.depths.capacity()
    }
}

impl Default for LengthBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Encoder table: canonical codes, stored bit-reversed for LSB-first output.
#[derive(Debug, Clone)]
pub struct Encoder {
    codes: Vec<u32>,
    lens: Vec<u8>,
}

impl Encoder {
    /// Build the encoder from canonical code lengths.
    pub fn from_lengths(lengths: &[u8]) -> Self {
        let mut e = Encoder::empty();
        e.rebuild(lengths);
        e
    }

    /// An encoder with no symbols, as a target for [`Encoder::rebuild`].
    pub fn empty() -> Self {
        Encoder { codes: Vec::new(), lens: Vec::new() }
    }

    /// Rebuild the table in place from new code lengths, reusing the
    /// existing backing storage. Equivalent to `*self = from_lengths(..)`
    /// without the two allocations per block.
    pub fn rebuild(&mut self, lengths: &[u8]) {
        canonical_codes_into(lengths, &mut self.codes);
        self.lens.clear();
        self.lens.extend_from_slice(lengths);
    }

    /// Summed backing capacities (for allocation-event accounting).
    pub fn capacity(&self) -> usize {
        self.codes.capacity() + self.lens.capacity()
    }

    /// Emit `symbol` into `w`.
    #[inline]
    pub fn write(&self, w: &mut BitWriter, symbol: usize) {
        let len = self.lens[symbol];
        debug_assert!(len > 0, "encoding symbol {symbol} with zero-length code");
        w.write_bits(self.codes[symbol] as u64, u32::from(len));
    }

    /// `symbol`'s code, ready for LSB-first output, and its length in
    /// bits, for callers that assemble several codes into one write.
    #[inline]
    pub(crate) fn code(&self, symbol: usize) -> (u32, u32) {
        (self.codes[symbol], u32::from(self.lens[symbol]))
    }

    /// Code length of `symbol` in bits (0 = symbol unused).
    #[inline]
    pub fn len(&self, symbol: usize) -> u8 {
        self.lens[symbol]
    }
}

/// Assign canonical codes (shorter codes first, then by symbol index)
/// into a reused buffer, bit-reversed and so ready for LSB-first emission.
/// The count arrays are fixed stack arrays (lengths are capped at
/// [`MAX_CODE_LEN`]), so a warm call is allocation-free.
fn canonical_codes_into(lengths: &[u8], codes: &mut Vec<u32>) {
    let max_len = lengths.iter().copied().max().unwrap_or(0) as u32;
    assert!(max_len <= MAX_CODE_LEN, "code length exceeds limit");
    let mut bl_count = [0u32; MAX_CODE_LEN as usize + 1];
    for &l in lengths {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = [0u32; MAX_CODE_LEN as usize + 2];
    let mut code = 0u32;
    for bits in 1..=max_len as usize {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    codes.clear();
    codes.extend(lengths.iter().map(|&l| {
        if l == 0 {
            0
        } else {
            let c = next_code[l as usize];
            next_code[l as usize] += 1;
            reverse_bits(c, u32::from(l))
        }
    }));
}

/// Table-driven decoder with a two-level table: the low `root_bits` bits
/// of the stream index a root table that resolves every code of at most
/// that length in one lookup; longer codes go through a per-prefix
/// subtable indexed by their remaining bits. The root stays L1-resident
/// however skewed the code is, where a flat `1 << max_len` table does not.
///
/// Each entry is a `u32`:
///
/// ```text
/// bits 0..5   length of the code in bits (what the reader must skip)
/// bit  5      root entry naming a subtable: bits 0..5 are then the
///             subtable's index width and bits 8.. its start
/// bits 8..32  the symbol's payload, chosen by whoever built the table
/// ```
///
/// and an all-zero entry means no code maps here. A decoder is rebuilt in
/// place (`rebuild`), so one kept across streams allocates on
/// its first use only.
#[derive(Debug, Clone, Default)]
pub struct Decoder {
    table: Vec<u32>,
    root_bits: u32,
    /// No symbol has a code: every lookup fails, with its own message.
    empty: bool,
    /// Canonical codes of the lengths being built (scratch).
    codes: Vec<u32>,
}

/// Mask of an entry's code-length field.
const ENTRY_LEN: u32 = 0x1F;
/// Marks a root entry that names a subtable.
const ENTRY_SUBTABLE: u32 = 0x20;

impl Decoder {
    /// Shift of an entry's payload (or subtable start).
    pub(crate) const PAYLOAD_SHIFT: u32 = 8;

    /// Root width for plain symbol decoding. Ten bits is a 4 KiB root:
    /// it resolves all but the rarest codes of a byte-sized alphabet in
    /// one lookup and leaves most of L1 to the data being decoded.
    const ROOT_BITS: u32 = 10;

    /// Build the decoder from canonical code lengths; each symbol's
    /// payload is its index, as [`Decoder::read`] expects.
    ///
    /// Errors if the lengths describe an over-subscribed code (would decode
    /// ambiguously), which indicates a corrupt header.
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, DecompressError> {
        let mut d = Decoder::default();
        d.rebuild(lengths, Self::ROOT_BITS, |sym| sym as u32)?;
        Ok(d)
    }

    /// Rebuild in place for new code lengths, reusing the table storage.
    /// `payload(symbol)` supplies the upper 24 bits of each entry.
    ///
    /// Errors as [`Decoder::from_lengths`], leaving a decoder whose every
    /// lookup fails.
    pub(crate) fn rebuild(
        &mut self,
        lengths: &[u8],
        root_bits: u32,
        payload: impl Fn(usize) -> u32,
    ) -> Result<(), DecompressError> {
        debug_assert!((1..=MAX_CODE_LEN).contains(&root_bits));
        let max_len = u32::from(lengths.iter().copied().max().unwrap_or(0));
        self.root_bits = root_bits;
        self.empty = max_len == 0;
        self.table.clear();
        // Room for the worst code up front - every long code alone in a
        // full-width subtable - so that a warm decoder never allocates,
        // whatever code the next stream brings.
        self.table.reserve((1 << root_bits) + (lengths.len() << (MAX_CODE_LEN - root_bits)));
        self.table.resize(1 << root_bits, 0);
        if max_len == 0 {
            return Ok(());
        }
        if max_len > MAX_CODE_LEN {
            return Err(DecompressError::Malformed("code length exceeds limit"));
        }
        // Kraft check: an over-subscribed set of lengths is corrupt.
        let kraft: u64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (MAX_CODE_LEN - u32::from(l)))
            .sum();
        if kraft > 1u64 << MAX_CODE_LEN {
            return Err(DecompressError::Malformed("over-subscribed Huffman code"));
        }
        canonical_codes_into(lengths, &mut self.codes);
        let Decoder { table, codes, .. } = self;
        let root_size = 1usize << root_bits;
        let root_mask = root_size - 1;

        if max_len > root_bits {
            // Size each subtable by the longest code under its root
            // prefix (a prefix-free code never puts a short code and a
            // subtable in one root slot), then place them after the root.
            for (&len, &code) in lengths.iter().zip(codes.iter()) {
                let len = u32::from(len);
                if len > root_bits {
                    let slot = &mut table[code as usize & root_mask];
                    *slot = (*slot).max(len - root_bits);
                }
            }
            for i in 0..root_size {
                let index_bits = table[i];
                if index_bits != 0 {
                    let start = table.len();
                    table[i] = (start as u32) << Self::PAYLOAD_SHIFT | ENTRY_SUBTABLE | index_bits;
                    table.resize(start + (1 << index_bits), 0);
                }
            }
        }

        for (sym, (&len, &code)) in lengths.iter().zip(codes.iter()).enumerate() {
            if len == 0 {
                continue;
            }
            let len = u32::from(len);
            let entry = payload(sym) << Self::PAYLOAD_SHIFT | len;
            // The reversed code occupies the low bits of the index into
            // its (sub)table; every setting of the remaining high index
            // bits maps to this symbol.
            let (start, index_bits, index, used) = if len <= root_bits {
                (0, root_bits, code as usize, len)
            } else {
                let sub = table[code as usize & root_mask];
                (
                    (sub >> Self::PAYLOAD_SHIFT) as usize,
                    sub & ENTRY_LEN,
                    (code >> root_bits) as usize,
                    len - root_bits,
                )
            };
            let slots = &mut table[start..start + (1 << index_bits)];
            for slot in slots[index..].iter_mut().step_by(1 << used) {
                *slot = entry;
            }
        }
        Ok(())
    }

    /// Resolve the next code in `r`, skip it and return its entry; zero
    /// (nothing skipped) when no code matches. The caller has refilled
    /// `r` since it last skipped more than `56 - MAX_CODE_LEN` bits, and
    /// checks [`BitReader::overdrawn`] before trusting the entry.
    #[inline]
    pub(crate) fn lookup(&self, r: &mut BitReader<'_>) -> u32 {
        let bits = r.bits();
        let mut e = self.table[bits as usize & ((1 << self.root_bits) - 1)];
        if e & ENTRY_SUBTABLE != 0 {
            let index = (bits >> self.root_bits) as usize & ((1 << (e & ENTRY_LEN)) - 1);
            e = self.table[(e >> Self::PAYLOAD_SHIFT) as usize + index];
        }
        r.skip(e & ENTRY_LEN);
        e
    }

    /// The error for a [`Decoder::lookup`] that returned zero.
    #[cold]
    pub(crate) fn no_code_error(&self) -> DecompressError {
        if self.empty {
            DecompressError::Malformed("decoding with empty code")
        } else {
            DecompressError::Malformed("invalid Huffman code")
        }
    }

    /// Decode one symbol from `r` (for decoders built by
    /// [`Decoder::from_lengths`]).
    #[inline]
    pub fn read(&self, r: &mut BitReader<'_>) -> Result<usize, DecompressError> {
        r.refill();
        let e = self.lookup(r);
        if e == 0 {
            return Err(self.no_code_error());
        }
        if r.overdrawn() {
            return Err(DecompressError::Truncated);
        }
        Ok((e >> Self::PAYLOAD_SHIFT) as usize)
    }

    /// Summed backing capacities (for allocation-event accounting).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.table.capacity() + self.codes.capacity()
    }
}

// ---------------------------------------------------------------------------
// Code-length header serialization (DEFLATE-style run-length tokens, emitted
// as raw 5-bit tokens — compact enough without a second Huffman layer).
// ---------------------------------------------------------------------------

const TOK_COPY_PREV: u64 = 16; // repeat previous length 3–6 times (2 extra bits)
const TOK_ZERO_SHORT: u64 = 17; // 3–10 zeros (3 extra bits)
const TOK_ZERO_LONG: u64 = 18; // 11–138 zeros (7 extra bits)

/// Serialize a code-length array into `w`.
pub fn write_lengths(w: &mut BitWriter, lengths: &[u8]) {
    let mut i = 0usize;
    while i < lengths.len() {
        let l = lengths[i];
        // Count the run of equal lengths starting here.
        let mut run = 1usize;
        while i + run < lengths.len() && lengths[i + run] == l {
            run += 1;
        }
        if l == 0 {
            let mut left = run;
            while left >= 11 {
                let take = left.min(138);
                w.write_bits(TOK_ZERO_LONG, 5);
                w.write_bits((take - 11) as u64, 7);
                left -= take;
            }
            if left >= 3 {
                w.write_bits(TOK_ZERO_SHORT, 5);
                w.write_bits((left - 3) as u64, 3);
                left = 0;
            }
            for _ in 0..left {
                w.write_bits(0, 5);
            }
        } else {
            // Literal once, then copy-prev runs.
            w.write_bits(u64::from(l), 5);
            let mut left = run - 1;
            while left >= 3 {
                let take = left.min(6);
                w.write_bits(TOK_COPY_PREV, 5);
                w.write_bits((take - 3) as u64, 2);
                left -= take;
            }
            for _ in 0..left {
                w.write_bits(u64::from(l), 5);
            }
        }
        i += run;
    }
}

/// Deserialize `count` code lengths from `r`.
///
/// Convenience wrapper over [`read_lengths_into`] for callers without a
/// buffer to reuse.
pub fn read_lengths(r: &mut BitReader<'_>, count: usize) -> Result<Vec<u8>, DecompressError> {
    let mut lengths = vec![0u8; count];
    read_lengths_into(r, &mut lengths)?;
    Ok(lengths)
}

/// Deserialize `lengths.len()` code lengths from `r` into `lengths`.
pub fn read_lengths_into(r: &mut BitReader<'_>, lengths: &mut [u8]) -> Result<(), DecompressError> {
    let mut filled = 0usize;
    while filled < lengths.len() {
        let tok = r.read_bits(5)?;
        let (value, rep) = match tok {
            0..=15 => (tok as u8, 1),
            TOK_COPY_PREV => {
                let rep = 3 + r.read_bits(2)? as usize;
                let prev = *lengths[..filled]
                    .last()
                    .ok_or(DecompressError::Malformed("copy-prev with no previous length"))?;
                (prev, rep)
            }
            TOK_ZERO_SHORT => (0, 3 + r.read_bits(3)? as usize),
            TOK_ZERO_LONG => (0, 11 + r.read_bits(7)? as usize),
            _ => return Err(DecompressError::Malformed("invalid length token")),
        };
        lengths
            .get_mut(filled..filled + rep)
            .ok_or(DecompressError::Malformed("length run overflows table"))?
            .fill(value);
        filled += rep;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_symbols(freqs: &[u64], stream: &[usize]) {
        let lengths = build_code_lengths(freqs);
        let enc = Encoder::from_lengths(&lengths);
        let mut w = BitWriter::new();
        write_lengths(&mut w, &lengths);
        for &s in stream {
            enc.write(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let read_lens = read_lengths(&mut r, freqs.len()).unwrap();
        assert_eq!(read_lens, lengths);
        let dec = Decoder::from_lengths(&read_lens).unwrap();
        for &s in stream {
            assert_eq!(dec.read(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn kraft_inequality_holds() {
        let freqs: Vec<u64> = (1..=64).map(|i| i * i).collect();
        let lengths = build_code_lengths(&freqs);
        let kraft: f64 = lengths.iter().filter(|&&l| l > 0).map(|&l| 2f64.powi(-i32::from(l))).sum();
        assert!(kraft <= 1.0 + 1e-12, "kraft = {kraft}");
    }

    #[test]
    fn lengths_respect_limit_under_skew() {
        // Fibonacci-like frequencies force deep trees in unlimited Huffman.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lengths = build_code_lengths(&freqs);
        assert!(lengths.iter().all(|&l| u32::from(l) <= MAX_CODE_LEN));
        // Still decodable.
        assert!(Decoder::from_lengths(&lengths).is_ok());
    }

    #[test]
    fn long_codes_resolve_through_subtables() {
        // The same skew, decoded: codes past the root width go through a
        // subtable, and at a root narrower than most of the code as well.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            (a, b) = (b, a + b);
        }
        let lengths = build_code_lengths(&freqs);
        assert!(lengths.iter().any(|&l| u32::from(l) > Decoder::ROOT_BITS));
        let stream: Vec<usize> = (0..40).chain((0..40).rev()).collect();
        roundtrip_symbols(&freqs, &stream);

        let enc = Encoder::from_lengths(&lengths);
        let mut w = BitWriter::new();
        for &s in &stream {
            enc.write(&mut w, s);
        }
        let bytes = w.finish();
        let mut dec = Decoder::default();
        dec.rebuild(&lengths, 3, |sym| sym as u32).unwrap();
        let mut r = BitReader::new(&bytes);
        for &s in &stream {
            assert_eq!(dec.read(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn incomplete_code_rejects_unmapped_bits() {
        // One symbol of length 2 leaves three quarters of the code space
        // unmapped, in the root and (length 12) in a subtable.
        for len in [2u8, 12] {
            let mut lengths = vec![0u8; 8];
            lengths[5] = len;
            let dec = Decoder::from_lengths(&lengths).unwrap();
            assert_eq!(dec.read(&mut BitReader::new(&[0, 0])).unwrap(), 5);
            assert_eq!(
                dec.read(&mut BitReader::new(&[0xFF, 0xFF])),
                Err(DecompressError::Malformed("invalid Huffman code"))
            );
        }
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let mut freqs = vec![1u64; 16];
        freqs[3] = 1000;
        let lengths = build_code_lengths(&freqs);
        let min = lengths.iter().copied().filter(|&l| l > 0).min().unwrap();
        assert_eq!(lengths[3], min);
    }

    #[test]
    fn single_symbol_alphabet() {
        let mut freqs = vec![0u64; 256];
        freqs[42] = 7;
        let lengths = build_code_lengths(&freqs);
        assert_eq!(lengths[42], 1);
        assert_eq!(lengths.iter().filter(|&&l| l > 0).count(), 1);
        roundtrip_symbols(&freqs, &[42, 42, 42, 42]);
    }

    #[test]
    fn empty_alphabet() {
        let freqs = vec![0u64; 16];
        let lengths = build_code_lengths(&freqs);
        assert!(lengths.iter().all(|&l| l == 0));
        let dec = Decoder::from_lengths(&lengths).unwrap();
        let mut r = BitReader::new(&[0u8; 4]);
        assert!(dec.read(&mut r).is_err());
    }

    #[test]
    fn two_symbol_roundtrip() {
        let mut freqs = vec![0u64; 8];
        freqs[1] = 3;
        freqs[6] = 9;
        roundtrip_symbols(&freqs, &[1, 6, 6, 1, 6, 6, 6, 1]);
    }

    #[test]
    fn full_byte_alphabet_roundtrip() {
        let mut freqs = vec![0u64; 256];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = (i as u64 % 17) + 1;
        }
        let stream: Vec<usize> = (0..2000).map(|i| (i * 31) % 256).collect();
        roundtrip_symbols(&freqs, &stream);
    }

    #[test]
    fn length_header_roundtrip_with_long_zero_runs() {
        let mut lengths = vec![0u8; 300];
        lengths[0] = 5;
        lengths[150] = 5;
        lengths[151] = 5;
        lengths[152] = 5;
        lengths[153] = 5;
        lengths[299] = 2;
        let mut w = BitWriter::new();
        write_lengths(&mut w, &lengths);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(read_lengths(&mut r, 300).unwrap(), lengths);
    }

    #[test]
    fn oversubscribed_code_rejected() {
        // Three codes of length 1 cannot coexist.
        let lengths = [1u8, 1, 1];
        assert!(Decoder::from_lengths(&lengths).is_err());
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let freqs: Vec<u64> = (0..32).map(|i| 1 + (i % 5) as u64 * 10).collect();
        let lengths = build_code_lengths(&freqs);
        let mut codes = Vec::new();
        canonical_codes_into(&lengths, &mut codes);
        // Check pairwise prefix-freedom over the *reversed* (stored) codes,
        // interpreting them in LSB-first read order.
        for a in 0..lengths.len() {
            for b in 0..lengths.len() {
                if a == b || lengths[a] == 0 || lengths[b] == 0 || lengths[a] > lengths[b] {
                    continue;
                }
                let mask = (1u32 << lengths[a]) - 1;
                assert!(
                    (codes[b] & mask != codes[a]),
                    "code {a} is a read-order prefix of code {b}"
                );
            }
        }
    }

    #[test]
    fn truncated_code_stream_detected() {
        let mut freqs = vec![0u64; 8];
        freqs[0] = 1;
        freqs[1] = 1;
        freqs[2] = 2;
        let lengths = build_code_lengths(&freqs);
        let enc = Encoder::from_lengths(&lengths);
        let mut w = BitWriter::new();
        for _ in 0..100 {
            enc.write(&mut w, 2);
        }
        let mut bytes = w.finish();
        bytes.truncate(2);
        let dec = Decoder::from_lengths(&lengths).unwrap();
        let mut r = BitReader::new(&bytes);
        let mut err = None;
        for _ in 0..100 {
            if let Err(e) = dec.read(&mut r) {
                err = Some(e);
                break;
            }
        }
        assert!(err.is_some(), "must eventually hit truncation");
    }
}
