//! Sampling-based compressibility estimation (paper §III-D).
//!
//! EDC decides *whether* to compress a block before spending the CPU time
//! compressing it, by probing a small sample. The paper cites
//! content-based sampling (Xie et al., ATC'13; Harnik et al., FAST'13);
//! following that line, the estimator here:
//!
//! 1. gathers a strided sample of the block (so that locally uniform
//!    regions do not dominate),
//! 2. computes the byte-entropy of the sample, and
//! 3. runs the cheap [`Lzf`] codec over the sample as an LZ
//!    probe.
//!
//! The final estimated *compressed fraction* (compressed/original, lower is
//! more compressible) is the minimum of the two signals: entropy catches
//! skewed byte distributions, the LZ probe catches repetition that entropy
//! misses. Blocks whose estimate exceeds the write-through threshold (75 %
//! in the paper — the same quantum EDC's allocator uses) are stored
//! uncompressed.

use std::cell::RefCell;

use crate::{Codec, Lzf};

std::thread_local! {
    /// The gathered sample and the probe's output, kept per thread so an
    /// estimate allocates nothing once both are warm: the estimator runs
    /// once per sealed run, and most runs are one or two blocks.
    static SCRATCH: RefCell<(Vec<u8>, Vec<u8>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Compressibility class, aligned with EDC's quantized allocation sizes
/// (paper Fig. 5: compressed blocks get 25 %, 50 % or 75 % of the original
/// size; anything worse is written through).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CompressibilityClass {
    /// Estimated to fit in ≤ 25 % of the original size.
    High,
    /// Estimated to fit in ≤ 50 %.
    Medium,
    /// Estimated to fit in ≤ 75 %.
    Low,
    /// Estimated > 75 %: write through uncompressed.
    Incompressible,
}

impl CompressibilityClass {
    /// The allocation quantum for this class as a fraction of the original
    /// block size (1.0 = stored uncompressed).
    pub fn allocation_fraction(self) -> f64 {
        match self {
            CompressibilityClass::High => 0.25,
            CompressibilityClass::Medium => 0.50,
            CompressibilityClass::Low => 0.75,
            CompressibilityClass::Incompressible => 1.0,
        }
    }

    /// Classify an exact or estimated compressed fraction.
    pub fn from_fraction(fraction: f64, write_through_threshold: f64) -> Self {
        if fraction > write_through_threshold {
            CompressibilityClass::Incompressible
        } else if fraction > 0.50 {
            CompressibilityClass::Low
        } else if fraction > 0.25 {
            CompressibilityClass::Medium
        } else {
            CompressibilityClass::High
        }
    }
}

/// Configuration for the sampling estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Bytes of sample gathered per block (clamped to the block size).
    pub sample_len: usize,
    /// Number of strided sub-samples the sample is gathered from.
    pub sample_chunks: usize,
    /// Estimated-fraction threshold above which a block is written through
    /// uncompressed (the paper's 75 % rule).
    pub write_through_threshold: f64,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig { sample_len: 512, sample_chunks: 4, write_through_threshold: 0.75 }
    }
}

/// Result of probing one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressibilityEstimate {
    /// Estimated compressed/original fraction (lower = more compressible).
    pub fraction: f64,
    /// Quantized class.
    pub class: CompressibilityClass,
}

/// Sampling compressibility estimator. Stateless and cheap enough to sit on
/// the write path (it touches `sample_len` bytes per block, not the block).
///
/// ```
/// use edc_compress::Estimator;
///
/// let estimator = Estimator::default();
/// assert!(!estimator.is_incompressible(&vec![0u8; 4096])); // zeros compress
/// let noise: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
/// assert!(estimator.is_incompressible(&noise)); // pseudo-random does not
/// ```
#[derive(Debug, Clone)]
pub struct Estimator {
    config: EstimatorConfig,
    probe: Lzf,
}

impl Default for Estimator {
    fn default() -> Self {
        Estimator::new(EstimatorConfig::default())
    }
}

impl Estimator {
    /// Create an estimator with the given configuration.
    pub fn new(config: EstimatorConfig) -> Self {
        assert!(config.sample_len > 0, "sample_len must be positive");
        assert!(config.sample_chunks > 0, "sample_chunks must be positive");
        assert!(
            (0.0..=1.0).contains(&config.write_through_threshold),
            "threshold must be a fraction"
        );
        Estimator { config, probe: Lzf::new() }
    }

    /// The active configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// Gather the strided sample of `block` into `buf`.
    fn sample_into(&self, block: &[u8], buf: &mut Vec<u8>) {
        buf.clear();
        let want = self.config.sample_len.min(block.len());
        if want == block.len() {
            buf.extend_from_slice(block);
            return;
        }
        let chunks = self.config.sample_chunks.min(want);
        let per_chunk = want / chunks;
        // Spread chunk starts evenly across the block.
        for c in 0..chunks {
            let start = c * (block.len() - per_chunk) / chunks.max(1);
            buf.extend_from_slice(&block[start..start + per_chunk]);
        }
    }

    /// Shannon entropy of `data` in bits/byte, divided by 8 to give the
    /// entropy-coding lower bound as a compressed fraction.
    fn entropy_fraction(data: &[u8]) -> f64 {
        if data.is_empty() {
            return 1.0;
        }
        let mut counts = [0u32; 256];
        for &b in data {
            counts[b as usize] += 1;
        }
        let n = data.len() as f64;
        let mut bits = 0.0f64;
        for &c in &counts {
            if c > 0 {
                let p = f64::from(c) / n;
                bits -= p * p.log2();
            }
        }
        bits / 8.0
    }

    /// Estimate the compressibility of `block`.
    pub fn estimate(&self, block: &[u8]) -> CompressibilityEstimate {
        if block.is_empty() {
            return CompressibilityEstimate {
                fraction: 1.0,
                class: CompressibilityClass::Incompressible,
            };
        }
        let (entropy, lz) = SCRATCH.with(|cell| {
            let (sample, probed) = &mut *cell.borrow_mut();
            self.sample_into(block, sample);
            self.probe.compress_into(sample, probed);
            (Self::entropy_fraction(sample), probed.len() as f64 / sample.len() as f64)
        });
        let fraction = entropy.min(lz).clamp(0.0, 2.0);
        CompressibilityEstimate {
            fraction,
            class: CompressibilityClass::from_fraction(
                fraction,
                self.config.write_through_threshold,
            ),
        }
    }

    /// Convenience: should this block be written through uncompressed?
    pub fn is_incompressible(&self, block: &[u8]) -> bool {
        self.estimate(block).class == CompressibilityClass::Incompressible
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift_bytes(n: usize, mut x: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn zeros_are_highly_compressible() {
        let est = Estimator::default().estimate(&vec![0u8; 4096]);
        assert_eq!(est.class, CompressibilityClass::High);
        assert!(est.fraction < 0.1, "fraction {}", est.fraction);
    }

    #[test]
    fn random_bytes_are_incompressible() {
        let data = xorshift_bytes(4096, 0xABCD_EF01_2345_6789);
        let est = Estimator::default().estimate(&data);
        assert_eq!(est.class, CompressibilityClass::Incompressible);
        assert!(est.fraction > 0.9, "fraction {}", est.fraction);
    }

    #[test]
    fn text_is_compressible() {
        let data: Vec<u8> = b"the elastic compression scheme monitors io intensity "
            .iter()
            .copied()
            .cycle()
            .take(4096)
            .collect();
        let est = Estimator::default().estimate(&data);
        assert!(est.class < CompressibilityClass::Incompressible);
        assert!(est.fraction < 0.5, "fraction {}", est.fraction);
    }

    #[test]
    fn empty_block_is_write_through() {
        let est = Estimator::default().estimate(&[]);
        assert_eq!(est.class, CompressibilityClass::Incompressible);
    }

    #[test]
    fn small_block_smaller_than_sample() {
        let est = Estimator::default().estimate(b"tiny");
        // Must not panic; 4 incompressible-looking bytes.
        assert!(est.fraction > 0.0);
    }

    #[test]
    fn strided_sampling_sees_mixed_content() {
        // Compressible head, incompressible tail: a head-only sampler would
        // say "High"; strided sampling must notice the random half.
        let mut data = vec![b'a'; 8192];
        data.extend(xorshift_bytes(8192, 99));
        let est = Estimator::default().estimate(&data);
        assert!(
            est.fraction > 0.25,
            "strided sample must see the random tail, got {}",
            est.fraction
        );
    }

    #[test]
    fn class_thresholds() {
        let t = 0.75;
        assert_eq!(CompressibilityClass::from_fraction(0.1, t), CompressibilityClass::High);
        assert_eq!(CompressibilityClass::from_fraction(0.25, t), CompressibilityClass::High);
        assert_eq!(CompressibilityClass::from_fraction(0.3, t), CompressibilityClass::Medium);
        assert_eq!(CompressibilityClass::from_fraction(0.50, t), CompressibilityClass::Medium);
        assert_eq!(CompressibilityClass::from_fraction(0.6, t), CompressibilityClass::Low);
        assert_eq!(CompressibilityClass::from_fraction(0.75, t), CompressibilityClass::Low);
        assert_eq!(
            CompressibilityClass::from_fraction(0.76, t),
            CompressibilityClass::Incompressible
        );
    }

    #[test]
    fn allocation_fractions_match_paper_quanta() {
        assert_eq!(CompressibilityClass::High.allocation_fraction(), 0.25);
        assert_eq!(CompressibilityClass::Medium.allocation_fraction(), 0.50);
        assert_eq!(CompressibilityClass::Low.allocation_fraction(), 0.75);
        assert_eq!(CompressibilityClass::Incompressible.allocation_fraction(), 1.0);
    }

    #[test]
    fn custom_threshold_is_respected() {
        // With a strict threshold, mildly compressible data is written through.
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 64) as u8).collect();
        let strict = Estimator::new(EstimatorConfig {
            write_through_threshold: 0.05,
            ..EstimatorConfig::default()
        });
        assert!(strict.is_incompressible(&data));
        let lax = Estimator::default();
        assert!(!lax.is_incompressible(&data));
    }

    #[test]
    #[should_panic(expected = "sample_len must be positive")]
    fn zero_sample_len_rejected() {
        let _ = Estimator::new(EstimatorConfig { sample_len: 0, ..EstimatorConfig::default() });
    }

    #[test]
    fn estimator_is_deterministic() {
        let data = xorshift_bytes(4096, 7);
        let e = Estimator::default();
        assert_eq!(e.estimate(&data), e.estimate(&data));
    }
}
