//! File-type semantic hints (paper §VI future work #1): a filesystem that
//! knows what lives where tells EDC, and EDC stops wasting effort.
//!
//! Writes the same media-heavy dataset twice — once blind, once with
//! hints — and compares wasted compression work and outcomes.
//!
//! ```text
//! cargo run --release --example type_hints
//! ```

use edc::core::hints::FileTypeHint;
use edc::datagen::{BlockClass, ContentGenerator, DataMix};
use edc::prelude::*;

/// A synthetic "volume layout": (extension, block range, content class).
const LAYOUT: &[(&str, u64, u64, BlockClass)] = &[
    ("log", 0, 64, BlockClass::Text),
    ("jpg", 64, 64, BlockClass::Media),
    ("sqlite", 128, 64, BlockClass::Binary),
    ("mp4", 192, 64, BlockClass::Media),
];

/// Per-extension tally of how runs were stored.
#[derive(Default, Clone)]
struct RangeOutcome {
    by_tag: std::collections::BTreeMap<&'static str, u64>,
}

fn run(with_hints: bool) -> (EdcPipeline, Vec<(&'static str, RangeOutcome)>) {
    let mut store = EdcPipeline::new(16 << 20, PipelineConfig::default());
    let mut generator = ContentGenerator::new(99, DataMix::primary_storage());
    if with_hints {
        for &(ext, start, blocks, _) in LAYOUT {
            if let Some(hint) = FileTypeHint::from_extension(ext) {
                store.set_hint(start * 4096, blocks * 4096, hint);
            }
        }
    }
    let mut outcomes: Vec<(&'static str, RangeOutcome)> =
        LAYOUT.iter().map(|&(ext, ..)| (ext, RangeOutcome::default())).collect();
    let mut record = |r: &WriteResult| {
        for (i, &(_, start, blocks, _)) in LAYOUT.iter().enumerate() {
            if r.start_block >= start && r.start_block < start + blocks {
                let tag = match r.tag {
                    CodecId::None => "store",
                    other => other.name(),
                };
                *outcomes[i].1.by_tag.entry(tag).or_default() += u64::from(r.blocks);
            }
        }
    };
    let mut t = 0u64;
    for &(_, start, blocks, class) in LAYOUT {
        for b in start..start + blocks {
            let data = generator.block_of(class, 4096);
            store.write(t, b * 4096, &data).expect("write").iter().for_each(&mut record);
            t += 20_000_000; // 50 writes/s: idle, ladder would pick Gzip
        }
    }
    store.flush_all(t).expect("flush").iter().for_each(&mut record);
    (store, outcomes)
}

fn main() {
    println!("volume layout: 64 blocks each of .log, .jpg, .sqlite, .mp4\n");
    for with_hints in [false, true] {
        let (store, outcomes) = run(with_hints);
        println!("== {} ==", if with_hints { "with file-type hints" } else { "blind" });
        for (ext, o) in &outcomes {
            let parts: Vec<String> =
                o.by_tag.iter().map(|(tag, n)| format!("{n} blocks {tag}")).collect();
            println!("  .{ext:<7} {}", parts.join(", "));
        }
        println!("  ratio {:.3}\n", store.stats().compression_ratio());
    }
    println!(
        "hints veto the estimator sampling on .jpg/.mp4 (same outcome, zero probe\n\
         work) and cap .sqlite at the fast Lzf tier instead of idle-time Gzip —\n\
         trading a little ratio for database read/write latency."
    );
}
