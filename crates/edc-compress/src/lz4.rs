//! Lz4-class codec: token-based fast LZ in the style of the LZ4 block
//! format.
//!
//! Like [`crate::lzf`] this sits at the fast end of the ratio/speed
//! trade-off, but with the LZ4 container layout: each *sequence* is
//! `token · [literal-length extension] · literals · offset(2B LE) ·
//! [match-length extension]`, with 4-bit length nibbles in the token and
//! `255`-valued extension bytes. Minimum match length is 4; the final
//! sequence carries literals only.

use crate::state::{common_prefix_len, CompressorState, Output};
use crate::{Codec, CodecId, DecompressError};

const MIN_MATCH: usize = 4;
const MAX_OFFSET: usize = u16::MAX as usize;
const HASH_BITS: u32 = 15;

/// Lz4-class fast LZ codec. See the [module docs](self) for the format.
#[derive(Debug, Default, Clone, Copy)]
pub struct Lz4 {
    _private: (),
}

impl Lz4 {
    /// Create the codec (stateless; `const` so it can back a `static`).
    pub const fn new() -> Self {
        Self { _private: () }
    }
}

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Write an LZ4-style length: `nibble` already holds `min(len, 15)`; emit
/// extension bytes for the remainder.
#[inline]
fn push_length_ext(out: &mut Vec<u8>, mut rest: usize) {
    while rest >= 255 {
        out.push(255);
        rest -= 255;
    }
    out.push(rest as u8);
}

#[inline]
fn read_length_ext(input: &[u8], i: &mut usize, base: usize) -> Result<usize, DecompressError> {
    let mut len = base;
    if base == 15 {
        loop {
            if *i >= input.len() {
                return Err(DecompressError::Truncated);
            }
            let b = input[*i];
            *i += 1;
            len += b as usize;
            if b != 255 {
                break;
            }
        }
    }
    Ok(len)
}

impl Codec for Lz4 {
    fn id(&self) -> CodecId {
        CodecId::Lz4
    }

    fn compress_with(&self, state: &mut CompressorState, input: &[u8], out: &mut Vec<u8>) {
        out.clear();
        let n = input.len();
        out.reserve(n / 2 + 16);
        if n < MIN_MATCH + 1 {
            // Single literal-only sequence.
            emit_sequence(out, input, 0, n, None);
            return;
        }
        // Epoch-stamped table: previous inputs' entries read as empty
        // without a per-call memset (see `crate::state::StampTable`).
        let table = &mut state.lz4_table;
        let cap0 = table.capacity();
        table.begin(1 << HASH_BITS);
        let mut lit_start = 0usize;
        let mut i = 0usize;
        let limit = n - MIN_MATCH;
        while i <= limit {
            let cand = table.replace(hash4(input, i), i);
            let cand = match cand {
                Some(c)
                    if i - c <= MAX_OFFSET
                        && input[c..c + MIN_MATCH] == input[i..i + MIN_MATCH] =>
                {
                    c
                }
                _ => {
                    i += 1;
                    continue;
                }
            };
            // Word-wide extension; first MIN_MATCH bytes already verified.
            let max_len = n - i;
            let len = common_prefix_len(input, cand, i, max_len);
            emit_sequence(out, input, lit_start, i, Some((i - cand, len)));
            let match_end = i + len;
            let insert_to = match_end.min(limit + 1);
            let mut j = i + 1;
            while j < insert_to {
                table.set(hash4(input, j), j);
                j += 2; // sparser insertion than Lzf: trades ratio for speed
            }
            i = match_end;
            lit_start = i;
        }
        // Trailing literal-only sequence (always emitted, even if empty, so
        // the decoder sees a well-formed final token when there are no
        // trailing literals and the stream is non-empty).
        if lit_start < n || out.is_empty() {
            emit_sequence(out, input, lit_start, n, None);
        }
        if state.lz4_table.capacity() != cap0 {
            state.alloc_events += 1;
        }
    }

    fn decompress_into(
        &self,
        input: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), DecompressError> {
        let mut out = Output::new(out, expected_len);
        if input.is_empty() {
            if expected_len == 0 {
                return Ok(());
            }
            return Err(DecompressError::Truncated);
        }
        let mut i = 0usize;
        while i < input.len() {
            let token = input[i];
            i += 1;
            let lit_len = read_length_ext(input, &mut i, (token >> 4) as usize)?;
            out.extend_from(input, i, lit_len)?;
            i += lit_len;
            if i == input.len() {
                break; // final, literal-only sequence
            }
            let Some(&[lo, hi]) = input.get(i..i + 2) else {
                return Err(DecompressError::Truncated);
            };
            let offset = u16::from_le_bytes([lo, hi]) as usize;
            i += 2;
            if offset == 0 {
                return Err(DecompressError::Malformed("zero match offset"));
            }
            let match_len = read_length_ext(input, &mut i, (token & 0x0F) as usize)? + MIN_MATCH;
            out.copy_match(offset, match_len)?;
        }
        out.finish()
    }
}

/// Emit one sequence: literals `input[lit_start..lit_end]` then an optional
/// `(offset, len)` match.
fn emit_sequence(
    out: &mut Vec<u8>,
    input: &[u8],
    lit_start: usize,
    lit_end: usize,
    m: Option<(usize, usize)>,
) {
    let lit_len = lit_end - lit_start;
    let lit_nib = lit_len.min(15) as u8;
    let match_nib = match m {
        Some((_, len)) => (len - MIN_MATCH).min(15) as u8,
        None => 0,
    };
    out.push(lit_nib << 4 | match_nib);
    if lit_len >= 15 {
        push_length_ext(out, lit_len - 15);
    }
    out.extend_from_slice(&input[lit_start..lit_end]);
    if let Some((offset, len)) = m {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if len - MIN_MATCH >= 15 {
            push_length_ext(out, len - MIN_MATCH - 15);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let c = Lz4::new().compress(data);
        Lz4::new().decompress(&c, data.len()).expect("round trip")
    }

    #[test]
    fn empty_input() {
        assert_eq!(roundtrip(b""), b"");
    }

    #[test]
    fn tiny_inputs() {
        for n in 1..=6 {
            let data: Vec<u8> = (0..n as u8).map(|b| b.wrapping_mul(37)).collect();
            assert_eq!(roundtrip(&data), data);
        }
    }

    #[test]
    fn all_zero_block_compresses_hard() {
        let data = vec![0u8; 4096];
        let c = Lz4::new().compress(&data);
        assert!(c.len() < 64, "got {}", c.len());
        assert_eq!(Lz4::new().decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn long_literal_run_extension_bytes() {
        // >15+255 distinct literals exercises multi-byte length extension.
        let data: Vec<u8> = (0..300u32).map(|i| (i * 97 % 256) as u8).collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn long_match_extension_bytes() {
        // One long repeated region exercises match-length extensions.
        let mut data = b"seed".to_vec();
        data.extend(std::iter::repeat_n(b'q', 1000));
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn overlapping_copy() {
        let mut data = Vec::new();
        for _ in 0..500 {
            data.extend_from_slice(b"ab");
        }
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn text_compresses() {
        let data: Vec<u8> = b"flash based storage systems benefit from compression "
            .iter()
            .copied()
            .cycle()
            .take(16384)
            .collect();
        let c = Lz4::new().compress(&data);
        assert!(c.len() < data.len() / 4);
        assert_eq!(Lz4::new().decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn zero_offset_rejected() {
        // token: 0 literals, match nibble 0 => match len 4, offset 0 (invalid).
        let stream = [0x00u8, 0x00, 0x00];
        let err = Lz4::new().decompress(&stream, 4).unwrap_err();
        assert_eq!(err, DecompressError::Malformed("zero match offset"));
    }

    #[test]
    fn reference_before_start_rejected() {
        // 1 literal 'A', then match len 4 at offset 5 (> output so far).
        let stream = [0x10u8, b'A', 0x05, 0x00];
        let err = Lz4::new().decompress(&stream, 5).unwrap_err();
        assert!(matches!(err, DecompressError::BadReference { .. }));
    }

    #[test]
    fn truncated_literals_rejected() {
        let stream = [0x50u8, b'a', b'b']; // promises 5 literals, has 2
        assert_eq!(Lz4::new().decompress(&stream, 5), Err(DecompressError::Truncated));
    }

    #[test]
    fn truncated_offset_rejected() {
        let stream = [0x10u8, b'a', 0x01]; // match follows but only 1 offset byte
        assert_eq!(Lz4::new().decompress(&stream, 5), Err(DecompressError::Truncated));
    }

    #[test]
    fn length_extension_blowup_is_output_overflow() {
        // 4 literals then a match whose 255-valued extension bytes declare
        // a ~2.5k match at offset 1: the decoder must reject before copying
        // anything past `expected_len`, not allocate the whole run.
        let mut stream = vec![0x4Fu8, b'a', b'b', b'c', b'd', 0x01, 0x00];
        stream.extend_from_slice(&[255; 10]);
        stream.push(7);
        let err = Lz4::new().decompress(&stream, 16).unwrap_err();
        assert!(matches!(err, DecompressError::OutputOverflow { expected: 16 }));
    }

    #[test]
    fn oversized_literal_run_is_output_overflow() {
        // Token promises 8 literals but the caller expects only 4 bytes.
        let stream = [0x80u8, b'a', b'b', b'c', b'd', b'e', b'f', b'g', b'h'];
        let err = Lz4::new().decompress(&stream, 4).unwrap_err();
        assert!(matches!(err, DecompressError::OutputOverflow { expected: 4 }));
    }

    #[test]
    fn expected_len_enforced() {
        let data = b"abcdabcdabcdabcd";
        let c = Lz4::new().compress(data);
        // Undershooting the real size trips the in-loop output cap;
        // overshooting it trips the final size check.
        assert!(matches!(
            Lz4::new().decompress(&c, data.len() - 1),
            Err(DecompressError::OutputOverflow { .. })
        ));
        assert!(matches!(
            Lz4::new().decompress(&c, data.len() + 1),
            Err(DecompressError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn deterministic_output() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 7 * 41) as u8).collect();
        assert_eq!(Lz4::new().compress(&data), Lz4::new().compress(&data));
    }

    #[test]
    fn match_at_max_offset() {
        let marker = b"XYZW";
        let mut data = marker.to_vec();
        data.extend((0..MAX_OFFSET - marker.len()).map(|i| (i % 89 + 100) as u8));
        data.extend_from_slice(marker);
        assert_eq!(roundtrip(&data), data);
    }
}
