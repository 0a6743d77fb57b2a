//! Lzf-class codec: a byte-oriented LZ with literal runs and short
//! back-references, in the style of Marc Lehmann's LibLZF.
//!
//! This is the *fast/weak* end of EDC's algorithm ladder: a single-probe
//! hash table (no chains), greedy matching, and a byte-aligned container —
//! so both compression and decompression run at memory-copy-like speeds,
//! at the cost of a modest compression ratio.
//!
//! ## Container format
//!
//! The stream is a sequence of control sequences:
//!
//! * **Literal run** — control byte `0..=31` = run length − 1, followed by
//!   that many literal bytes (runs of 1..=32).
//! * **Short match** — control byte `LLL OOOOO` with `LLL` in `1..=6`:
//!   match length = `LLL + 2` (3..=8), then one byte of low offset bits;
//!   offset = `(OOOOO << 8 | low) + 1` (1..=8192).
//! * **Long match** — control byte `111 OOOOO`, then an extension byte
//!   `len − 9` (lengths 9..=264), then the low offset byte.
//!
//! Matches may overlap their own output (RLE-style), exactly as in LZ77.

use crate::state::{common_prefix_len, CompressorState, Output};
use crate::{Codec, CodecId, DecompressError};

/// Window size: offsets are 13 bits, biased by one.
const MAX_OFFSET: usize = 1 << 13;
/// Longest match encodable by the long form.
const MAX_MATCH: usize = 264;
/// Shortest match worth encoding (a 3-byte match costs 2 bytes).
const MIN_MATCH: usize = 3;
/// Longest literal run per control byte.
const MAX_LITERAL_RUN: usize = 32;
/// log2 of the hash-table size.
const HASH_BITS: u32 = 14;

/// Lzf-class fast LZ codec. See the [module docs](self) for the format.
#[derive(Debug, Default, Clone, Copy)]
pub struct Lzf {
    _private: (),
}

impl Lzf {
    /// Create the codec (stateless; `const` so it can back a `static`).
    pub const fn new() -> Self {
        Self { _private: () }
    }
}

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let v = u32::from(data[i]) | u32::from(data[i + 1]) << 8 | u32::from(data[i + 2]) << 16;
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Flush `input[start..end]` as literal runs.
fn push_literals(out: &mut Vec<u8>, input: &[u8], start: usize, end: usize) {
    let mut i = start;
    while i < end {
        let run = (end - i).min(MAX_LITERAL_RUN);
        out.push((run - 1) as u8);
        out.extend_from_slice(&input[i..i + run]);
        i += run;
    }
}

impl Codec for Lzf {
    fn id(&self) -> CodecId {
        CodecId::Lzf
    }

    fn compress_with(&self, state: &mut CompressorState, input: &[u8], out: &mut Vec<u8>) {
        out.clear();
        let n = input.len();
        out.reserve(n / 2 + 16);
        if n < MIN_MATCH + 1 {
            push_literals(out, input, 0, n);
            return;
        }
        // Single-probe hash table of candidate positions; entries from
        // previous inputs are invalidated by the epoch stamp, not a memset.
        let table = &mut state.lzf_table;
        let cap0 = table.capacity();
        table.begin(1 << HASH_BITS);
        let mut lit_start = 0usize;
        let mut i = 0usize;
        // Leave room so hash3 never reads past the end.
        let limit = n - MIN_MATCH;
        while i <= limit {
            let cand = table.replace(hash3(input, i), i);
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
            // Extend the match word-wise; the first MIN_MATCH bytes are
            // already known equal, so the full common prefix is the match.
            let max_len = (n - i).min(MAX_MATCH);
            let len = common_prefix_len(input, cand, i, max_len);
            push_literals(out, input, lit_start, i);
            let offset = i - cand - 1; // biased
            if len <= 8 {
                out.push((((len - 2) as u8) << 5) | (offset >> 8) as u8);
            } else {
                out.push(0b111 << 5 | (offset >> 8) as u8);
                out.push((len - 9) as u8);
            }
            out.push((offset & 0xFF) as u8);
            // Insert a few positions inside the match so later data can
            // reference it (cheap partial insertion keeps speed high).
            let match_end = i + len;
            let insert_to = match_end.min(limit + 1);
            let mut j = i + 1;
            while j < insert_to {
                table.set(hash3(input, j), j);
                j += 1;
            }
            i = match_end;
            lit_start = i;
        }
        push_literals(out, input, lit_start, n);
        if state.lzf_table.capacity() != cap0 {
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
        let mut i = 0usize;
        while i < input.len() {
            let ctrl = input[i];
            i += 1;
            let len_field = (ctrl >> 5) as usize;
            if len_field == 0 {
                // Literal run.
                let run = (ctrl & 0x1F) as usize + 1;
                out.extend_from(input, i, run)?;
                i += run;
            } else {
                let len = if len_field == 7 {
                    let ext = *input.get(i).ok_or(DecompressError::Truncated)? as usize;
                    i += 1;
                    ext + 9
                } else {
                    len_field + 2
                };
                let low = *input.get(i).ok_or(DecompressError::Truncated)? as usize;
                i += 1;
                let offset = (((ctrl & 0x1F) as usize) << 8 | low) + 1;
                out.copy_match(offset, len)?;
            }
        }
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let c = Lzf::new().compress(data);
        Lzf::new().decompress(&c, data.len()).expect("round trip")
    }

    #[test]
    fn empty_input() {
        assert_eq!(roundtrip(b""), b"");
        assert!(Lzf::new().compress(b"").is_empty());
    }

    #[test]
    fn tiny_inputs_stored_as_literals() {
        for n in 1..=4 {
            let data: Vec<u8> = (0..n as u8).collect();
            assert_eq!(roundtrip(&data), data);
        }
    }

    #[test]
    fn repetitive_data_compresses() {
        let data = vec![b'x'; 4096];
        let c = Lzf::new().compress(&data);
        assert!(c.len() < data.len() / 8, "got {} bytes", c.len());
        assert_eq!(Lzf::new().decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn text_roundtrip_and_shrinks() {
        let data: Vec<u8> = b"the quick brown fox jumps over the lazy dog. "
            .iter()
            .copied()
            .cycle()
            .take(8192)
            .collect();
        let c = Lzf::new().compress(&data);
        assert!(c.len() < data.len());
        assert_eq!(Lzf::new().decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn overlapping_match_rle_style() {
        // "abc" then 300 repeats of it exercises overlapped copies + long form.
        let mut data = Vec::new();
        for _ in 0..301 {
            data.extend_from_slice(b"abc");
        }
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn incompressible_data_expands_bounded() {
        // Pseudo-random bytes: literal-run framing adds 1/32 overhead.
        let mut x: u32 = 0x1234_5678;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        let c = Lzf::new().compress(&data);
        assert!(c.len() <= data.len() + data.len() / 32 + 16);
        assert_eq!(Lzf::new().decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn max_offset_boundary_match() {
        // A 4-byte marker, MAX_OFFSET-4 junk bytes, then the marker again:
        // the second occurrence is exactly MAX_OFFSET away.
        let marker = b"MARK";
        let mut data = marker.to_vec();
        data.extend((0..MAX_OFFSET - marker.len()).map(|i| (i % 251) as u8));
        data.extend_from_slice(marker);
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn truncated_stream_detected() {
        let data = vec![b'z'; 1000];
        let mut c = Lzf::new().compress(&data);
        c.truncate(c.len() - 1);
        // Either truncated mid-sequence or wrong total size.
        assert!(Lzf::new().decompress(&c, data.len()).is_err());
    }

    #[test]
    fn bad_reference_detected() {
        // Control byte for a match of len 3 at offset 1, but no prior output.
        let stream = [0b001_00000u8, 0x00];
        let err = Lzf::new().decompress(&stream, 3).unwrap_err();
        assert!(matches!(err, DecompressError::BadReference { .. }));
    }

    #[test]
    fn size_mismatch_detected() {
        let data = b"hello hello hello hello";
        let c = Lzf::new().compress(data);
        let err = Lzf::new().decompress(&c, data.len() + 5).unwrap_err();
        assert!(matches!(err, DecompressError::SizeMismatch { .. }));
    }

    #[test]
    fn oversized_literal_run_is_output_overflow() {
        // A 32-byte literal run against a 4-byte expected length must fail
        // before the copy, not after producing 32 bytes.
        let mut stream = vec![31u8];
        stream.extend_from_slice(&[0xAB; 32]);
        let err = Lzf::new().decompress(&stream, 4).unwrap_err();
        assert!(matches!(err, DecompressError::OutputOverflow { expected: 4 }));
    }

    #[test]
    fn oversized_match_is_output_overflow() {
        // One literal byte, then a maximal long match (len 264, offset 1):
        // the output would reach 265 bytes against an expected 8.
        let stream = [0u8, b'a', 0b111_00000, 255, 0];
        let err = Lzf::new().decompress(&stream, 8).unwrap_err();
        assert!(matches!(err, DecompressError::OutputOverflow { expected: 8 }));
    }

    #[test]
    fn literal_run_chunking_at_32() {
        // 33 distinct bytes force two literal runs.
        let data: Vec<u8> = (0u8..33).collect();
        let c = Lzf::new().compress(&data);
        assert_eq!(c.len(), 33 + 2, "two control bytes expected");
        assert_eq!(Lzf::new().decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn deterministic_output() {
        let data: Vec<u8> = (0..2048u32).map(|i| (i * 31 % 256) as u8).collect();
        assert_eq!(Lzf::new().compress(&data), Lzf::new().compress(&data));
    }
}
