//! # edc-compress
//!
//! From-scratch lossless compression substrate for the EDC (Elastic Data
//! Compression) reproduction.
//!
//! The EDC paper (Mao et al., IPDPS 2017) evaluates four compression
//! algorithms — Lzf, Lz4, Gzip and Bzip2 — whose defining property for the
//! system-level experiments is the *trade-off ordering* between compression
//! ratio and speed:
//!
//! * ratio: `Bzip2 > Gzip > Lz4 ≈ Lzf`
//! * speed: `Lzf ≈ Lz4 > Gzip > Bzip2`
//! * decompression is substantially faster than compression for all of them.
//!
//! This crate implements one codec per algorithm *family*, from scratch (no
//! third-party compression crates):
//!
//! * [`Lzf`] — byte-oriented LZ with literal runs and back-references,
//!   single-probe hash table (LibLZF-style).
//! * [`Lz4`] — token-based fast LZ with greedy hash-table matching
//!   (LZ4-block-style).
//! * [`Deflate`] — LZ77 with hash-chain match finding followed by canonical
//!   Huffman coding of literals/lengths/distances (Gzip-class).
//! * [`Bwt`] — block-sorting compressor: Burrows–Wheeler transform (prefix
//!   doubling suffix sort), move-to-front, zero run-length encoding and
//!   Huffman coding (Bzip2-class).
//!
//! All codecs implement the [`Codec`] trait, round-trip losslessly for any
//! input (enforced by unit + property tests), and are addressable by the
//! 3-bit [`CodecId`] tag that EDC stores in its block-mapping entries.
//!
//! Two additional pieces support the EDC engine:
//!
//! * [`estimator`] — the sampling-based compressibility estimator EDC uses to
//!   decide write-through vs. compress (paper §III-D).
//! * [`cost`] — a calibrated deterministic cost model (ns/byte) so that the
//!   discrete-event simulator charges realistic, reproducible CPU time for
//!   (de)compression instead of noisy wall-clock measurements.
//!
//! ## Quick example
//!
//! ```
//! use edc_compress::{Codec, CodecId, codec_by_id};
//!
//! let data = b"an example block of fairly compressible text text text text";
//! let codec = codec_by_id(CodecId::Lzf).unwrap();
//! let compressed = codec.compress(data);
//! let restored = codec.decompress(&compressed, data.len()).unwrap();
//! assert_eq!(restored, data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitio;
pub mod bwt;
pub mod checksum;
pub mod cost;
pub mod deflate;
pub mod estimator;
pub mod frame;
pub mod huffman;
pub mod lz4;
pub mod lzf;
pub mod mtf;
pub mod rle;
pub mod state;
pub mod suffix;

use core::fmt;

pub use bwt::Bwt;
pub use checksum::{checksum64, Checksum64};
pub use cost::{CostModel, CodecCost};
pub use deflate::Deflate;
pub use estimator::{CompressibilityClass, Estimator, EstimatorConfig};
pub use lz4::Lz4;
pub use lzf::Lzf;
pub use state::{common_prefix_len, CompressorState};

/// Error returned when decompression fails.
///
/// A correct EDC store never produces these for blocks it wrote itself; they
/// guard against corrupted or truncated input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompressError {
    /// The compressed stream ended before the declared output was produced.
    Truncated,
    /// A back-reference pointed before the start of the output buffer.
    BadReference {
        /// Output cursor position at which the bad reference was found.
        at: usize,
        /// Offset that was requested.
        offset: usize,
    },
    /// The output did not match the expected decompressed size.
    SizeMismatch {
        /// Size the caller expected.
        expected: usize,
        /// Size actually produced.
        actual: usize,
    },
    /// The stream contained an invalid symbol or malformed header.
    Malformed(&'static str),
    /// A decoded symbol was outside the range valid at that point.
    BadSymbol {
        /// Which alphabet/table rejected the symbol.
        what: &'static str,
        /// The symbol's value, widened for display.
        symbol: u32,
    },
    /// Decoding would have produced more than `expected_len` bytes.
    ///
    /// Hardened decoders enforce `out.len() <= expected_len` *before*
    /// copying each literal run or match — a crafted stream can therefore
    /// never balloon the output buffer past what the caller sized for.
    OutputOverflow {
        /// The caller's declared output size.
        expected: usize,
    },
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed stream truncated"),
            DecompressError::BadReference { at, offset } => {
                write!(f, "bad back-reference at output position {at} (offset {offset})")
            }
            DecompressError::SizeMismatch { expected, actual } => {
                write!(f, "decompressed size mismatch: expected {expected}, got {actual}")
            }
            DecompressError::Malformed(what) => write!(f, "malformed stream: {what}"),
            DecompressError::BadSymbol { what, symbol } => {
                write!(f, "invalid symbol {symbol} for {what}")
            }
            DecompressError::OutputOverflow { expected } => {
                write!(f, "stream would exceed the expected output size of {expected} bytes")
            }
        }
    }
}

impl std::error::Error for DecompressError {}

/// The 3-bit compression-algorithm tag stored in every EDC mapping entry
/// (paper Fig. 5: the `Tag` field, where `000` means "no compression").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum CodecId {
    /// `000` — stored uncompressed (write-through).
    None = 0,
    /// `001` — Lzf-class fast LZ.
    Lzf = 1,
    /// `010` — Lz4-class fast LZ.
    Lz4 = 2,
    /// `011` — Gzip-class (LZ77 + Huffman).
    Deflate = 3,
    /// `100` — Bzip2-class (BWT + MTF + RLE + Huffman).
    Bwt = 4,
}

impl CodecId {
    /// All identifiers that name an actual codec (everything but [`CodecId::None`]).
    pub const ALL_CODECS: [CodecId; 4] = [CodecId::Lzf, CodecId::Lz4, CodecId::Deflate, CodecId::Bwt];

    /// Decode a 3-bit tag value.
    pub fn from_tag(tag: u8) -> Option<CodecId> {
        match tag {
            0 => Some(CodecId::None),
            1 => Some(CodecId::Lzf),
            2 => Some(CodecId::Lz4),
            3 => Some(CodecId::Deflate),
            4 => Some(CodecId::Bwt),
            _ => None,
        }
    }

    /// The 3-bit tag value for this codec.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Human-readable name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            CodecId::None => "Native",
            CodecId::Lzf => "Lzf",
            CodecId::Lz4 => "Lz4",
            CodecId::Deflate => "Gzip",
            CodecId::Bwt => "Bzip2",
        }
    }
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A lossless block codec.
///
/// Implementations must be pure functions of their input: the same input
/// always produces the same output (required for deterministic simulation),
/// and `decompress(compress(x), x.len()) == x` for every `x`.
///
/// A codec implements one encoder, [`Codec::compress_with`], and one
/// decoder, [`Codec::decompress_into`]; the other entry points are
/// provided wrappers around those two.
pub trait Codec: Send + Sync {
    /// Identifier stored in EDC mapping entries.
    fn id(&self) -> CodecId;

    /// Compress `input` into `out` (replacing its contents) using
    /// caller-pooled scratch `state`.
    ///
    /// This is the hot-path entry point: hash tables, chain arrays, token
    /// buffers and Huffman scratch live in `state` and are reused across
    /// calls, so a warmed-up worker performs zero heap allocation per
    /// block. The stream written depends only on `input`, not on what the
    /// state was previously used for (enforced by golden-stream fixtures
    /// and property tests). It is self-contained and may be larger than
    /// the input for incompressible data (EDC stores such blocks
    /// uncompressed instead — see the 75 % rule in `edc-core`).
    fn compress_with(&self, state: &mut CompressorState, input: &[u8], out: &mut Vec<u8>);

    /// Decompress a stream produced by [`Codec::compress_with`] into a
    /// caller-owned buffer, replacing its contents.
    ///
    /// `expected_len` is the original (uncompressed) size, which EDC always
    /// knows from its mapping entry; codecs use it to size the output buffer
    /// and to validate stream integrity.
    fn decompress_into(
        &self,
        input: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), DecompressError>;

    /// [`Codec::compress_with`] on this thread's pooled scratch state, so
    /// even pool-less callers amortize the match-table setup.
    fn compress_into(&self, input: &[u8], out: &mut Vec<u8>) {
        state::with_thread_state(|state| self.compress_with(state, input, out));
    }

    /// Compress `input` into a fresh buffer (see [`Codec::compress_into`]).
    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.compress_into(input, &mut out);
        out
    }

    /// Decompress into a fresh buffer (see [`Codec::decompress_into`]).
    fn decompress(&self, input: &[u8], expected_len: usize) -> Result<Vec<u8>, DecompressError> {
        let mut out = Vec::new();
        self.decompress_into(input, expected_len, &mut out)?;
        Ok(out)
    }
}

/// Error from a [`CodecRegistry`] lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The tag was [`CodecId::None`]: the data is stored uncompressed
    /// (write-through) and there is no codec to run. Callers that can
    /// serve raw bytes handle this variant explicitly; reaching a
    /// decompressor with it is a logic error worth surfacing as data.
    WriteThrough,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::WriteThrough => {
                write!(f, "tag is CodecId::None: write-through data has no codec")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// The table of codec implementations, addressed by [`CodecId`].
///
/// Replaces ad-hoc `codec_by_id(...).expect(...)` call sites with a typed
/// lookup: [`CodecRegistry::get`] returns [`CodecError::WriteThrough`] for
/// [`CodecId::None`] instead of forcing every caller to re-derive why the
/// `Option` is `None`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecRegistry;

impl CodecRegistry {
    /// Look up the codec for `id`; [`CodecId::None`] is a typed error.
    pub fn get(id: CodecId) -> Result<&'static dyn Codec, CodecError> {
        static LZF: Lzf = Lzf::new();
        static LZ4: Lz4 = Lz4::new();
        static DEFLATE: Deflate = Deflate::new();
        static BWT: Bwt = Bwt::new();
        match id {
            CodecId::None => Err(CodecError::WriteThrough),
            CodecId::Lzf => Ok(&LZF),
            CodecId::Lz4 => Ok(&LZ4),
            CodecId::Deflate => Ok(&DEFLATE),
            CodecId::Bwt => Ok(&BWT),
        }
    }
}

/// Look up the codec implementation for a tag.
///
/// Returns `None` for [`CodecId::None`] (write-through has no codec).
/// Thin `Option` adapter over [`CodecRegistry::get`] for callers that
/// treat write-through as an ordinary branch rather than an error.
pub fn codec_by_id(id: CodecId) -> Option<&'static dyn Codec> {
    CodecRegistry::get(id).ok()
}

/// Compression ratio of a (original, compressed) size pair, following the
/// paper's definition: `original / compressed` — higher is better.
///
/// Returns 1.0 when `compressed` is zero alongside a zero-sized original
/// (empty block), and `inf`-free saturation otherwise.
pub fn compression_ratio(original: usize, compressed: usize) -> f64 {
    if original == 0 {
        return 1.0;
    }
    if compressed == 0 {
        // Degenerate; treat an empty encoding of non-empty data as ratio of
        // original bytes (cannot happen with our codecs, which always emit
        // at least a header).
        return original as f64;
    }
    original as f64 / compressed as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_id_tag_round_trip() {
        for id in [CodecId::None, CodecId::Lzf, CodecId::Lz4, CodecId::Deflate, CodecId::Bwt] {
            assert_eq!(CodecId::from_tag(id.tag()), Some(id));
        }
    }

    #[test]
    fn codec_id_rejects_out_of_range_tags() {
        for tag in 5..=7 {
            assert_eq!(CodecId::from_tag(tag), None);
        }
        assert_eq!(CodecId::from_tag(255), None);
    }

    #[test]
    fn codec_id_tag_fits_three_bits() {
        for id in CodecId::ALL_CODECS {
            assert!(id.tag() < 8, "{id:?} tag must fit in the 3-bit field");
        }
    }

    #[test]
    fn codec_lookup_matches_id() {
        for id in CodecId::ALL_CODECS {
            let codec = codec_by_id(id).expect("codec must exist");
            assert_eq!(codec.id(), id);
        }
        assert!(codec_by_id(CodecId::None).is_none());
    }

    #[test]
    fn registry_types_the_write_through_case() {
        for id in CodecId::ALL_CODECS {
            assert_eq!(CodecRegistry::get(id).expect("codec must exist").id(), id);
        }
        assert_eq!(CodecRegistry::get(CodecId::None).err(), Some(CodecError::WriteThrough));
        assert!(!CodecError::WriteThrough.to_string().is_empty());
    }

    #[test]
    fn decompress_into_matches_decompress() {
        let data: Vec<u8> = (0..=255u8).cycle().take(6000).collect();
        let mut out = vec![0xAAu8; 3]; // stale content must be cleared
        for id in CodecId::ALL_CODECS {
            let codec = CodecRegistry::get(id).unwrap();
            let c = codec.compress(&data);
            codec.decompress_into(&c, data.len(), &mut out).expect("round trip");
            assert_eq!(out, data, "{id} decompress_into mismatch");
        }
    }

    #[test]
    fn display_names_match_paper_labels() {
        assert_eq!(CodecId::None.to_string(), "Native");
        assert_eq!(CodecId::Deflate.to_string(), "Gzip");
        assert_eq!(CodecId::Bwt.to_string(), "Bzip2");
    }

    #[test]
    fn compression_ratio_definition() {
        assert_eq!(compression_ratio(4096, 2048), 2.0);
        assert_eq!(compression_ratio(4096, 4096), 1.0);
        assert_eq!(compression_ratio(0, 0), 1.0);
        assert!(compression_ratio(4096, 1024) > compression_ratio(4096, 2048));
    }

    #[test]
    fn all_codecs_round_trip_basic_corpus() {
        let samples: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![0u8],
            vec![7u8; 4096],
            b"the quick brown fox jumps over the lazy dog".to_vec(),
            (0..=255u8).cycle().take(8192).collect(),
            b"abcabcabcabcabcabcabcabcabcabcabcabc".to_vec(),
        ];
        for id in CodecId::ALL_CODECS {
            let codec = codec_by_id(id).unwrap();
            for s in &samples {
                let c = codec.compress(s);
                let d = codec.decompress(&c, s.len()).unwrap_or_else(|e| {
                    panic!("{id}: decompress failed on {} bytes: {e}", s.len())
                });
                assert_eq!(&d, s, "{id} failed round-trip on {} byte sample", s.len());
            }
        }
    }
}
