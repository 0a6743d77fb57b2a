//! Quickstart: an EDC-compressed block store on real bytes.
//!
//! Writes a few kinds of content through the full EDC pipeline (monitor →
//! sequentiality detector → compressibility estimate → elastic codec
//! selection → quantized allocation), reads everything back, and prints
//! what the engine decided per run.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use edc::datagen::{ContentGenerator, DataMix};
use edc::prelude::*;

fn main() -> Result<(), EdcError> {
    // A 16 MiB device image with the paper-default configuration.
    let mut store = EdcPipeline::new(16 << 20, PipelineConfig::default());
    let mut generator = ContentGenerator::new(7, DataMix::primary_storage());

    println!("writing 64 blocks of mixed content through EDC...\n");
    println!("{:>9} {:>7} {:>8} {:>12} {:>12}", "run_start", "blocks", "codec", "payload_B", "alloc_B");

    // Slow writes (1 per 50 ms): the workload monitor reads ~20 calculated
    // IOPS, so the ladder picks the *strong* codec for compressible runs.
    let mut originals = Vec::new();
    let mut t_ns: u64 = 0;
    for i in 0..64u64 {
        let (_, data) = generator.block(4096);
        originals.push((i, data.clone()));
        report(&store.write(t_ns, i * 4096, &data)?);
        t_ns += 50_000_000;
    }
    report(&store.flush_all(t_ns)?);

    // Read everything back and verify.
    for (i, data) in &originals {
        let got = store.read(t_ns, i * 4096, 4096)?;
        assert_eq!(&got, data, "block {i} corrupted");
    }
    println!("\nall 64 blocks verified byte-identical after decompression");
    println!(
        "logical written: {} KiB, physical written: {} KiB, compression ratio: {:.2}",
        store.stats().logical_written / 1024,
        store.stats().physical_written / 1024,
        store.stats().compression_ratio()
    );
    let stats = store.alloc_stats();
    println!(
        "allocator: {} placements, {} written through (75% rule), {} B internal fragmentation",
        stats.placements, stats.write_through, stats.internal_frag_bytes
    );
    Ok(())
}

fn report(results: &[WriteResult]) {
    for r in results {
        let codec = match r.tag {
            CodecId::None => "store",
            other => other.name(),
        };
        println!(
            "{:>9} {:>7} {:>8} {:>12} {:>12}",
            r.start_block, r.blocks, codec, r.payload_bytes, r.allocated_bytes
        );
    }
}
