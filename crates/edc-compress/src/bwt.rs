//! Bzip2-class codec: Burrows–Wheeler transform, move-to-front, zero
//! run-length coding and canonical Huffman coding.
//!
//! This is the *slow/strong* end of EDC's ladder — the best compression
//! ratio of the four codecs at by far the highest CPU cost, matching
//! Bzip2's position in the paper's Fig. 2. The block-sorting core uses the
//! cyclic prefix-doubling sorter from [`crate::suffix`], which is
//! worst-case `O(n log² n)` and therefore needs no bzip2-style RLE1
//! pre-pass to defuse repetitive inputs.
//!
//! ## Container format
//!
//! A leading bit selects `1` = raw fallback (verbatim bytes) or `0` =
//! compressed. Compressed data is a sequence of independent blocks of at
//! most [`BLOCK_SIZE`] input bytes, each:
//!
//! * block length (32 bits) and BWT primary index (32 bits),
//! * serialized Huffman code lengths for the 258-symbol RUNA/RUNB alphabet,
//! * Huffman-coded symbols terminated by `EOB_SYM`.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{build_code_lengths, read_lengths, write_lengths, Decoder, Encoder};
use crate::mtf::{mtf_decode, mtf_encode};
use crate::rle::{zrle_decode, zrle_encode, EOB_SYM, NUM_SYMBOLS};
use crate::state::{CompressorState, Output};
use crate::suffix::sort_rotations;
use crate::{Codec, CodecId, DecompressError};

/// Default input bytes per BWT block.
pub const BLOCK_SIZE: usize = 64 * 1024;
/// Largest supported block size (the format's length checks depend on it).
pub const MAX_BLOCK_SIZE: usize = 900 * 1024;

/// Bzip2-class block-sorting codec. See the [module docs](self) for the format.
///
/// Like the `bzip2 -1 … -9` levels, the encoder's *block size* trades
/// memory and CPU for ratio: larger sorting blocks expose more repeated
/// context. All block sizes decode interchangeably.
#[derive(Debug, Clone, Copy)]
pub struct Bwt {
    block_size: usize,
}

impl Default for Bwt {
    fn default() -> Self {
        Self::new()
    }
}

impl Bwt {
    /// Create the codec at the default 64 KiB block size.
    pub const fn new() -> Self {
        Self { block_size: BLOCK_SIZE }
    }

    /// Create the codec with an explicit sorting-block size (the bzip2
    /// level analogue; `bzip2 -9` uses 900 KiB).
    ///
    /// # Panics
    /// Panics unless `4096 <= block_size <= MAX_BLOCK_SIZE`.
    pub const fn with_block_size(block_size: usize) -> Self {
        assert!(block_size >= 4096 && block_size <= MAX_BLOCK_SIZE, "block size out of range");
        Self { block_size }
    }
}

/// Forward BWT: returns `(last_column, primary_index)` where `primary_index`
/// is the row of the unrotated input in the sorted rotation matrix.
pub fn bwt_forward(data: &[u8]) -> (Vec<u8>, u32) {
    let n = data.len();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let order = sort_rotations(data);
    let mut out = Vec::with_capacity(n);
    let mut primary = 0u32;
    for (row, &start) in order.iter().enumerate() {
        let start = start as usize;
        out.push(data[(start + n - 1) % n]);
        if start == 0 {
            primary = row as u32;
        }
    }
    (out, primary)
}

/// Inverse BWT via the LF mapping.
pub fn bwt_inverse(last: &[u8], primary: u32) -> Result<Vec<u8>, DecompressError> {
    let n = last.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let primary = primary as usize;
    if primary >= n {
        return Err(DecompressError::Malformed("BWT primary index out of range"));
    }
    // base[c] = number of bytes < c in the block.
    let mut count = [0usize; 256];
    for &b in last {
        count[b as usize] += 1;
    }
    let mut base = [0usize; 256];
    let mut sum = 0usize;
    for c in 0..256 {
        base[c] = sum;
        sum += count[c];
    }
    // lf[i] = row of the rotation obtained by rotating row i right by one.
    let mut occ = [0usize; 256];
    let mut lf = vec![0u32; n];
    for (i, &b) in last.iter().enumerate() {
        lf[i] = (base[b as usize] + occ[b as usize]) as u32;
        occ[b as usize] += 1;
    }
    // Walk backwards from the primary row emitting last-column bytes.
    let mut out = vec![0u8; n];
    let mut row = primary;
    for slot in out.iter_mut().rev() {
        *slot = last[row];
        row = lf[row] as usize;
    }
    Ok(out)
}

impl Codec for Bwt {
    fn id(&self) -> CodecId {
        CodecId::Bwt
    }

    fn compress_with(&self, _state: &mut CompressorState, input: &[u8], out: &mut Vec<u8>) {
        let mut w = BitWriter::new();
        w.write_bits(0, 1); // compressed
        for block in input.chunks(self.block_size) {
            let (last, primary) = bwt_forward(block);
            let mtf = mtf_encode(&last);
            let mut symbols = zrle_encode(&mtf);
            symbols.push(EOB_SYM);

            let mut freqs = vec![0u64; NUM_SYMBOLS];
            for &s in &symbols {
                freqs[s as usize] += 1;
            }
            let lengths = build_code_lengths(&freqs);
            let enc = Encoder::from_lengths(&lengths);

            w.write_bits(block.len() as u64, 32);
            w.write_bits(u64::from(primary), 32);
            write_lengths(&mut w, &lengths);
            for &s in &symbols {
                enc.write(&mut w, s as usize);
            }
        }
        *out = w.finish();
        if out.len() > input.len() + 1 {
            let mut w = BitWriter::new();
            w.write_bits(1, 1);
            for &b in input {
                w.write_byte(b);
            }
            *out = w.finish();
        }
    }

    fn decompress_into(
        &self,
        input: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), DecompressError> {
        out.clear();
        if input.is_empty() {
            return Err(DecompressError::Truncated);
        }
        let mut r = BitReader::new(input);
        if r.read_bits(1)? == 1 {
            return Output::new(out, expected_len).fill_from_bits(&mut r);
        }
        // Never pre-allocate an untrusted length (see `state::Output`).
        out.reserve(expected_len.min(16 << 20));
        while out.len() < expected_len {
            let block_len = r.read_bits(32)? as usize;
            if block_len == 0 || block_len > MAX_BLOCK_SIZE {
                return Err(DecompressError::Malformed("bad BWT block length"));
            }
            // Each block must fit inside the declared output; reject before
            // decoding rather than after materializing an oversized block.
            if out.len() + block_len > expected_len {
                return Err(DecompressError::OutputOverflow { expected: expected_len });
            }
            let primary = r.read_bits(32)? as u32;
            let lengths = read_lengths(&mut r, NUM_SYMBOLS)?;
            let dec = Decoder::from_lengths(&lengths)?;
            let mut symbols = Vec::with_capacity(block_len / 2 + 8);
            loop {
                let s = dec.read(&mut r)? as u16;
                if s == EOB_SYM {
                    break;
                }
                symbols.push(s);
                if symbols.len() > 2 * block_len + 64 {
                    return Err(DecompressError::Malformed("runaway symbol stream"));
                }
            }
            // `block_len` caps the zero-run expansion: adversarial digit
            // strings would otherwise overflow the run accumulator.
            let mtf = zrle_decode(&symbols, block_len)
                .ok_or(DecompressError::Malformed("invalid or oversized RUNA/RUNB run"))?;
            if mtf.len() != block_len {
                return Err(DecompressError::Malformed("BWT block length mismatch"));
            }
            let last = mtf_decode(&mtf);
            let block = bwt_inverse(&last, primary)?;
            out.extend_from_slice(&block);
        }
        if out.len() != expected_len {
            return Err(DecompressError::SizeMismatch { expected: expected_len, actual: out.len() });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::Deflate;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let c = Bwt::new().compress(data);
        Bwt::new().decompress(&c, data.len()).expect("round trip")
    }

    #[test]
    fn bwt_banana() {
        // Classic example: rotation-sorted "banana" has last column "nnbaaa".
        let (last, primary) = bwt_forward(b"banana");
        assert_eq!(&last, b"nnbaaa");
        assert_eq!(bwt_inverse(&last, primary).unwrap(), b"banana");
    }

    #[test]
    fn bwt_inverse_rejects_bad_primary() {
        let (last, _) = bwt_forward(b"banana");
        assert!(bwt_inverse(&last, 6).is_err());
    }

    #[test]
    fn bwt_forward_inverse_pseudorandom() {
        let mut x = 42u64;
        for len in [1usize, 2, 7, 100, 1000] {
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (x >> 56) as u8
                })
                .collect();
            let (last, primary) = bwt_forward(&data);
            assert_eq!(bwt_inverse(&last, primary).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(roundtrip(b""), b"");
    }

    #[test]
    fn single_byte() {
        assert_eq!(roundtrip(b"Q"), b"Q");
    }

    #[test]
    fn periodic_input() {
        let data: Vec<u8> = b"ab".iter().copied().cycle().take(4096).collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn all_zeros_compress_tiny() {
        let data = vec![0u8; 65536];
        let c = Bwt::new().compress(&data);
        assert!(c.len() < 256, "got {}", c.len());
        assert_eq!(Bwt::new().decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn multi_block_input() {
        // Crosses the BLOCK_SIZE boundary: 2.5 blocks.
        let data: Vec<u8> = (0..BLOCK_SIZE * 5 / 2)
            .map(|i| ((i / 7) % 251) as u8)
            .collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn exact_block_boundary() {
        let data: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 17) as u8).collect();
        assert_eq!(roundtrip(&data), data);
        let data2: Vec<u8> = (0..2 * BLOCK_SIZE).map(|i| (i % 13) as u8).collect();
        assert_eq!(roundtrip(&data2), data2);
    }

    #[test]
    fn beats_deflate_on_text() {
        // The strong codec must out-compress the mid codec on natural-ish
        // text — the ratio ordering the paper's Fig. 2 depends on.
        let mut data = Vec::new();
        let sentences = [
            "the workload monitor computes the calculated iops every second. ",
            "compressible blocks are merged by the sequentiality detector. ",
            "flash translation layers perform out of place updates on write. ",
            "garbage collection erases victim blocks and migrates live pages. ",
        ];
        let mut seed = 7u64;
        while data.len() < 60_000 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            data.extend_from_slice(sentences[(seed >> 33) as usize % sentences.len()].as_bytes());
        }
        let b = Bwt::new().compress(&data);
        let d = Deflate::new().compress(&data);
        assert!(b.len() < d.len(), "bwt {} !< deflate {}", b.len(), d.len());
        assert_eq!(Bwt::new().decompress(&b, data.len()).unwrap(), data);
    }

    #[test]
    fn block_sizes_trade_ratio_and_interoperate() {
        // Repetition with a long period only becomes visible to larger
        // sorting blocks.
        let mut data = Vec::new();
        let phrase: Vec<u8> = (0..50_000u32).map(|i| (i % 253) as u8).collect();
        for _ in 0..4 {
            data.extend_from_slice(&phrase);
        }
        let small = Bwt::with_block_size(16 * 1024).compress(&data);
        let large = Bwt::with_block_size(256 * 1024).compress(&data);
        assert!(large.len() < small.len(), "large blocks {} !< small {}", large.len(), small.len());
        // Any encoder's output decodes with any decoder instance.
        assert_eq!(Bwt::new().decompress(&large, data.len()).unwrap(), data);
        assert_eq!(Bwt::with_block_size(4096).decompress(&small, data.len()).unwrap(), data);
    }

    #[test]
    fn incompressible_raw_fallback_bound() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let c = Bwt::new().compress(&data);
        assert!(c.len() <= data.len() + 1);
        assert_eq!(Bwt::new().decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn truncated_stream_detected() {
        let data: Vec<u8> = b"abcdefgh".iter().copied().cycle().take(8192).collect();
        let mut c = Bwt::new().compress(&data);
        c.truncate(c.len() / 3);
        assert!(Bwt::new().decompress(&c, data.len()).is_err());
    }

    #[test]
    fn wrong_expected_len_detected() {
        let data = b"rotations rotations rotations";
        let c = Bwt::new().compress(data);
        assert!(Bwt::new().decompress(&c, data.len() + 3).is_err());
    }

    #[test]
    fn deterministic_output() {
        let data: Vec<u8> =
            (0..30_000u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
        assert_eq!(Bwt::new().compress(&data), Bwt::new().compress(&data));
    }
}
