//! The heaviest end-to-end test: a synthetic workload replayed through the
//! *real-bytes* EDC pipeline — actual content, actual compression, actual
//! mapping and slot allocation — with a shadow copy verifying every read
//! and final state byte-for-byte.

use edc::core::pipeline::{EdcPipeline, PipelineConfig};
use edc::datagen::{BlockClass, ContentGenerator};
use edc::trace::{OpType, SynthConfig, Trace};
use std::collections::HashMap;

const BLOCK: u64 = 4096;
/// Pipeline capacity: 32 MiB = 8192 logical blocks.
const CAPACITY: u64 = 32 << 20;

/// Deterministic content for (block, version): every overwrite of a block
/// gets fresh content so stale reads are detectable.
fn content_for(block: u64, version: u64) -> Vec<u8> {
    let class = match (block ^ version) % 5 {
        0 => BlockClass::Text,
        1 => BlockClass::Code,
        2 => BlockClass::Binary,
        3 => BlockClass::Media,
        _ => BlockClass::Zero,
    };
    let mut g = ContentGenerator::pure(block.wrapping_mul(31) ^ version, class);
    g.block_of(class, BLOCK as usize)
}

fn workload() -> Trace {
    SynthConfig {
        duration_s: 30.0,
        on_rate: 600.0,
        off_rate: 20.0,
        mean_on_s: 1.0,
        mean_off_s: 1.5,
        read_fraction: 0.35,
        size_dist: vec![(4096, 0.6), (8192, 0.25), (16384, 0.15)],
        seq_prob: 0.45,
        volume_bytes: CAPACITY,
        batch_mean: 4.0,
    }
    .generate("pipeline-replay", 2026)
}

#[test]
fn real_bytes_pipeline_survives_full_workload() {
    let trace = workload();
    assert!(trace.requests.len() > 2000, "need a substantial workload");
    let mut store = EdcPipeline::new(CAPACITY, PipelineConfig::default());
    // Shadow state: block -> current version.
    let mut shadow: HashMap<u64, u64> = HashMap::new();
    let mut version = 0u64;
    let mut writes = 0u64;
    let mut verified_reads = 0u64;

    for req in &trace.requests {
        let start_block = (req.offset % CAPACITY) / BLOCK;
        let nblocks = (u64::from(req.len)).div_ceil(BLOCK).max(1);
        let nblocks = nblocks.min(CAPACITY / BLOCK - start_block);
        match req.op {
            OpType::Write => {
                version += 1;
                let mut data = Vec::with_capacity((nblocks * BLOCK) as usize);
                for b in start_block..start_block + nblocks {
                    data.extend(content_for(b, version));
                    shadow.insert(b, version);
                }
                store.write(req.arrival_ns, start_block * BLOCK, &data).expect("write");
                writes += 1;
            }
            OpType::Read => {
                let got = store
                    .read(req.arrival_ns, start_block * BLOCK, nblocks * BLOCK)
                    .expect("read must succeed");
                for (i, b) in (start_block..start_block + nblocks).enumerate() {
                    let slice = &got[i * BLOCK as usize..(i + 1) * BLOCK as usize];
                    match shadow.get(&b) {
                        Some(&v) => {
                            assert_eq!(
                                slice,
                                content_for(b, v).as_slice(),
                                "block {b} returned wrong content"
                            );
                            verified_reads += 1;
                        }
                        None => {
                            assert!(
                                slice.iter().all(|&x| x == 0),
                                "unwritten block {b} must read zero"
                            );
                        }
                    }
                }
            }
        }
    }
    store.flush_all(u64::MAX / 2).expect("flush");

    // Final sweep: every shadowed block must decompress to its last write.
    // (Bounded to 1500 blocks; coverage is already random.)
    for (&b, &v) in shadow.iter().take(1500) {
        let got = store.read(u64::MAX / 2, b * BLOCK, BLOCK).expect("final read");
        assert_eq!(got, content_for(b, v), "final state of block {b}");
    }

    assert!(writes > 1000, "workload must write, got {writes}");
    assert!(verified_reads > 200, "workload must verify reads, got {verified_reads}");
    assert!(
        store.stats().compression_ratio() > 1.2,
        "mixed content must compress, ratio {}",
        store.stats().compression_ratio()
    );
    // The allocator must have seen both compressed and write-through runs.
    let stats = store.alloc_stats();
    assert!(stats.write_through > 0, "media/random blocks must write through");
    assert!(stats.placements > stats.write_through, "most runs must compress");
}
