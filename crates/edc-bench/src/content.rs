//! Seeded block content for the benches and campaigns.
//!
//! Every workload here verifies reads against the exact bytes it wrote,
//! so content is a pure function of a small tag: a repeated text phrase
//! (compresses well under every codec), xorshift noise (incompressible),
//! or 4-symbol "acgt" noise (Lzf keeps it near raw, Deflate's entropy
//! coder quarters it — the headroom background recompression needs).
//! The committed `.edcrr` fixture is recorded from these generators, so
//! their output must not change.

/// `phrase` repeated out to `len` bytes.
pub fn cycled(phrase: &str, len: usize) -> Vec<u8> {
    phrase.bytes().cycle().take(len).collect()
}

/// A compressible 4 KiB block with deterministic per-tag content.
pub fn text_block(tag: u64) -> Vec<u8> {
    cycled(&format!("edc fault campaign block {tag} elastic compression payload "), 4096)
}

/// `len` bytes drawn from the xorshift64 stream seeded with `seed | 1`,
/// each state mapped to a byte by `symbol`.
fn xorshift_bytes(seed: u64, len: usize, symbol: impl Fn(u64) -> u8) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            symbol(x)
        })
        .collect()
}

/// An incompressible 4 KiB block.
pub fn noise_block(seed: u64) -> Vec<u8> {
    xorshift_bytes(seed, 4096, |x| (x >> 48) as u8)
}

/// `len` bytes of low-entropy 4-symbol content unique to `seed`.
pub fn acgt_run(seed: u64, len: usize) -> Vec<u8> {
    xorshift_bytes(edc_datagen::rng::splitmix64(seed), len, |x| b"acgt"[((x >> 60) & 3) as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_resists_and_text_yields_to_compression() {
        let lzf = edc_compress::CodecRegistry::get(edc_compress::CodecId::Lzf).expect("lzf");
        assert!(lzf.compress(&noise_block(1)).len() >= 4096);
        assert!(lzf.compress(&text_block(1)).len() < 1024);
    }
}
