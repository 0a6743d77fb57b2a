//! LSB-first bit-level I/O used by the Huffman-coded codecs
//! ([`crate::deflate`] and [`crate::bwt`]).
//!
//! Bits are packed least-significant-bit first within each byte, the same
//! convention DEFLATE uses: the first bit written lands in bit 0 of the
//! first byte. Codes are written with their own most-significant bit last,
//! so the reader can consume them by repeated single-bit reads or by table
//! lookup over a right-aligned window.

use crate::DecompressError;

/// Accumulates bits LSB-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Bit accumulator; valid low `nbits` bits.
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a writer that reuses `out` (cleared) as its backing buffer.
    pub fn with_buffer(mut out: Vec<u8>) -> Self {
        out.clear();
        Self { out, acc: 0, nbits: 0 }
    }

    /// Append the low `count` bits of `bits` (LSB first). `count <= 57`.
    #[inline]
    pub fn write_bits(&mut self, bits: u64, count: u32) {
        debug_assert!(count <= 57, "write_bits supports at most 57 bits per call");
        debug_assert!(count == 64 || bits < (1u64 << count), "value wider than count");
        // `nbits < 8` on entry (whole bytes flush below), so the widest
        // write fills the accumulator to at most 7 + 57 = 64 bits.
        self.acc |= bits << self.nbits;
        self.nbits += count;
        if self.nbits >= 8 {
            // Flush every whole byte in one copy — the little-endian byte
            // order of `acc` is exactly the LSB-first stream order.
            let whole = (self.nbits / 8) as usize;
            self.out.extend_from_slice(&self.acc.to_le_bytes()[..whole]);
            let shift = whole * 8;
            self.acc = if shift == 64 { 0 } else { self.acc >> shift };
            self.nbits -= shift as u32;
        }
    }

    /// Append a full byte (equivalent to `write_bits(byte, 8)`).
    #[inline]
    pub fn write_byte(&mut self, byte: u8) {
        self.write_bits(byte as u64, 8);
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.out.len() as u64 * 8 + u64::from(self.nbits)
    }

    /// Number of whole bytes that `finish` would currently produce.
    pub fn byte_len(&self) -> usize {
        self.out.len() + usize::from(self.nbits > 0)
    }

    /// Flush any partial byte (zero-padded high bits) and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xFF) as u8);
        }
        self.out
    }
}

/// Reads bits LSB-first from a byte slice.
///
/// The accumulator is topped up eight input bytes at a time. Past the end
/// of the input a refill supplies zero bits and counts them in `pad`, so
/// the hot decode loops can consume without a `Result` per bit-field and
/// ask once per token — via `overdrawn` — whether any of the
/// bits they used were padding. The check is latched: once a padding bit
/// has been consumed it stays consumed.
#[derive(Debug)]
pub struct BitReader<'a> {
    input: &'a [u8],
    /// Next byte to load.
    pos: usize,
    /// Bit buffer; the low `nbits` bits are the next bits of the stream.
    /// Bits above `nbits` may hold a preview of the next input byte (the
    /// bulk refill ORs in a whole word); the next refill ORs the same
    /// values over them, so they are never wrong, only uncounted.
    acc: u64,
    nbits: u32,
    /// How many of the bits counted in `nbits` since the input ran out
    /// are zero padding rather than stream bits.
    pad: u32,
}

impl<'a> BitReader<'a> {
    /// Largest `count` the bit-field methods accept: what one refill
    /// guarantees to have buffered.
    pub const MAX_BITS: u32 = 56;

    /// Create a reader over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Self { input, pos: 0, acc: 0, nbits: 0, pad: 0 }
    }

    /// Top the buffer up to at least [`BitReader::MAX_BITS`] bits, zero
    /// padding past the end of the input.
    #[inline]
    pub(crate) fn refill(&mut self) {
        if let Some(word) = self.input.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte slice"));
            self.acc |= word << self.nbits;
            let bytes = (63 - self.nbits) >> 3;
            self.pos += bytes as usize;
            self.nbits += bytes * 8;
        } else {
            self.refill_tail();
        }
    }

    /// The last seven bytes of the input, then padding.
    #[cold]
    fn refill_tail(&mut self) {
        while self.nbits < Self::MAX_BITS {
            if let Some(&b) = self.input.get(self.pos) {
                self.acc |= u64::from(b) << self.nbits;
                self.pos += 1;
            } else {
                self.pad += 8;
            }
            self.nbits += 8;
        }
    }

    /// The buffered bits, next bit lowest. Valid up to
    /// [`BitReader::MAX_BITS`] bits after a [`BitReader::refill`], less
    /// whatever [`BitReader::skip`] dropped since.
    #[inline]
    pub(crate) fn bits(&self) -> u64 {
        self.acc
    }

    /// Drop `count` buffered bits. The caller refilled recently enough
    /// that `count` bits are buffered (real or padding).
    #[inline]
    pub(crate) fn skip(&mut self, count: u32) {
        debug_assert!(count <= self.nbits, "skip past the refilled bits");
        self.acc >>= count;
        self.nbits -= count;
    }

    /// [`BitReader::bits`] masked to `count` bits, then skipped.
    #[inline]
    pub(crate) fn take(&mut self, count: u32) -> u64 {
        let v = self.acc & ((1u64 << count) - 1);
        self.skip(count);
        v
    }

    /// Whether any bit consumed so far was padding past the end of input.
    #[inline]
    pub(crate) fn overdrawn(&self) -> bool {
        self.pad > self.nbits
    }

    /// Read `count` bits (LSB-first). Errors with [`DecompressError::Truncated`]
    /// if the stream has fewer bits left.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u64, DecompressError> {
        debug_assert!(count <= Self::MAX_BITS);
        if self.nbits < count {
            self.refill();
        }
        let v = self.take(count);
        if self.overdrawn() {
            return Err(DecompressError::Truncated);
        }
        Ok(v)
    }

    /// Number of bits still available (buffered + unread bytes).
    pub fn bits_remaining(&self) -> usize {
        self.nbits.saturating_sub(self.pad) as usize + (self.input.len() - self.pos) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_writer_produces_empty_output() {
        assert!(BitWriter::new().finish().is_empty());
    }

    #[test]
    fn single_bits_round_trip() {
        let pattern = [1u64, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1];
        let mut w = BitWriter::new();
        for &b in &pattern {
            w.write_bits(b, 1);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bits(1).unwrap(), b);
        }
    }

    #[test]
    fn mixed_width_round_trip() {
        let fields: &[(u64, u32)] = &[
            (0b101, 3),
            (0xFFFF, 16),
            (0, 1),
            (0x1234_5678, 32),
            (0b1, 1),
            (0x1F_FFFF_FFFF_FFFF, 53),
            (42, 7),
        ];
        let mut w = BitWriter::new();
        for &(v, n) in fields {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in fields {
            assert_eq!(r.read_bits(n).unwrap(), v, "field of width {n}");
        }
    }

    #[test]
    fn lsb_first_byte_layout() {
        let mut w = BitWriter::new();
        // First-written bit must be bit 0 of the first byte.
        w.write_bits(1, 1);
        w.write_bits(0, 1);
        w.write_bits(1, 1);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0000_0101]);
    }

    #[test]
    fn read_past_end_is_truncated() {
        let mut r = BitReader::new(&[0xAB]);
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
        assert_eq!(r.read_bits(1), Err(DecompressError::Truncated));
    }

    #[test]
    fn bulk_refill_agrees_with_single_bits_at_every_length() {
        // Inputs shorter than, equal to and longer than the 8-byte refill
        // word, read in widths that straddle every refill boundary.
        let bytes: Vec<u8> = (0..40u32).map(|i| (i * 73 + 19) as u8).collect();
        for len in 0..bytes.len() {
            let input = &bytes[..len];
            for width in [1u32, 3, 7, 8, 13, 31, 56] {
                let mut wide = BitReader::new(input);
                let mut narrow = BitReader::new(input);
                for _ in 0..(len * 8) as u32 / width {
                    let mut expect = 0u64;
                    for bit in 0..width {
                        expect |= narrow.read_bits(1).unwrap() << bit;
                    }
                    assert_eq!(wide.read_bits(width).unwrap(), expect, "len {len} width {width}");
                }
                let left = len * 8 % width as usize;
                assert_eq!(wide.bits_remaining(), left);
                assert_eq!(wide.read_bits(left as u32 + 1), Err(DecompressError::Truncated));
            }
        }
    }

    #[test]
    fn overdraw_is_latched_not_raised() {
        let mut r = BitReader::new(&[0xA5, 0x01]);
        r.refill();
        assert_eq!(r.take(9), 0x1A5);
        assert!(!r.overdrawn());
        assert_eq!(r.take(7), 0);
        assert!(!r.overdrawn(), "the stream held exactly sixteen bits");
        assert_eq!(r.take(1), 0, "padding reads as zero");
        assert!(r.overdrawn());
        r.refill();
        assert!(r.overdrawn(), "a refill does not forgive an overdraw");
    }

    #[test]
    fn byte_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.byte_len(), 0);
        w.write_bits(0b11, 2);
        assert_eq!(w.byte_len(), 1);
        w.write_bits(0x3F, 6);
        assert_eq!(w.byte_len(), 1);
        w.write_bits(1, 1);
        assert_eq!(w.byte_len(), 2);
    }

    #[test]
    fn write_byte_equivalence() {
        let mut a = BitWriter::new();
        a.write_bits(3, 2);
        a.write_byte(0xC3);
        let mut b = BitWriter::new();
        b.write_bits(3, 2);
        b.write_bits(0xC3, 8);
        assert_eq!(a.finish(), b.finish());
    }
}
