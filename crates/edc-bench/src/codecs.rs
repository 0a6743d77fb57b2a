//! `bench-codecs`: per-codec throughput and ratio rows at the block and
//! at the run size, beside an earlier report's when one is named.

use crate::harness::parse_report;
use crate::{CmdError, CmdResult, Harness};
use edc_compress::{CodecId, CodecRegistry, CompressorState};
use edc_datagen::{BlockClass, ContentGenerator, DataMix};
use std::path::Path;

/// Per-codec throughput and ratio sweep: every codec in the elastic
/// ladder against every `edc-datagen` corpus class at the 4 KiB block
/// size, and the three ladder codecs on 16 KiB and 64 KiB runs, compress
/// and decompress. `prior` names an earlier `BENCH_codecs.json` whose
/// encode rows, decode rows and ratios are recorded beside this run's —
/// recorded, never gated on. Writes `BENCH_codecs.json`.
pub fn run(smoke: bool, out_dir: &Path, prior: Option<&Path>) -> CmdResult {
    // Read up front: a mistyped path should not cost a full run.
    let prior = prior
        .map(|path| {
            std::fs::read_to_string(path)
                .map_err(|e| CmdError::Usage(format!("reading --prior {}: {e}", path.display())))
        })
        .transpose()?;
    let samples = if smoke { 3 } else { 9 };
    let n_blocks: usize = if smoke { 4 } else { 64 };
    // The paper's flash-page unit and the selector's per-block granularity;
    // merged runs are timed separately below.
    let block_len: usize = 4 * 1024;

    let mut h = Harness::new("codecs", samples);
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    h.metric("available_cpus", cpus as f64);
    h.metric("block_bytes", block_len as f64);
    h.metric("blocks_per_class", n_blocks as f64);
    if smoke {
        h.note("smoke run: reduced block count and samples; absolute numbers are not comparable to full runs");
    }

    for class in BlockClass::ALL {
        let mut gen = ContentGenerator::pure(0xEDC, class);
        let blocks: Vec<Vec<u8>> = (0..n_blocks).map(|_| gen.block_of(class, block_len)).collect();
        let total: u64 = blocks.iter().map(|b| b.len() as u64).sum();
        let cname = format!("{class:?}").to_lowercase();
        for id in CodecId::ALL_CODECS {
            let codec = CodecRegistry::get(id).expect("ladder codec");
            let label = id.name().to_lowercase();
            // Compress with a pooled state, as the pipeline's drain does.
            let mut state = CompressorState::new();
            let mut out = Vec::new();
            h.run_bytes(&format!("compress/{label}/{cname}"), total, || {
                for b in &blocks {
                    codec.compress_with(&mut state, b, &mut out);
                    std::hint::black_box(out.len());
                }
            });
            let streams: Vec<Vec<u8>> = blocks.iter().map(|b| codec.compress(b)).collect();
            let comp_total: u64 = streams.iter().map(|s| s.len() as u64).sum();
            h.metric(&format!("ratio_{label}_{cname}"), total as f64 / comp_total.max(1) as f64);
            let mut dec = Vec::new();
            h.run_bytes(&format!("decompress/{label}/{cname}"), total, || {
                for (s, b) in streams.iter().zip(&blocks) {
                    codec.decompress_into(s, b.len(), &mut dec).expect("round trip");
                    std::hint::black_box(dec.len());
                }
            });
        }
    }

    // The unit of the write and cold-read paths is a sealed run, not a
    // block: up to 16 blocks go through one `compress_with` call and come
    // back through one decode, so the ladder codecs are also timed on
    // 16 KiB and 64 KiB inputs, where the per-call setup the block-sized
    // cases pay (Deflate's header and tables) is amortized and the match
    // finder and copy loops dominate. Pure classes first, then the two
    // shapes a run of real blocks takes that a pure class does not: four
    // 16 KiB units drawn from the primary-storage mix (compressible and
    // incompressible stretches inside one input), and a run no codec can
    // shrink.
    let ladder = [CodecId::Lzf, CodecId::Lz4, CodecId::Deflate];
    let pure_runs = |class: BlockClass, len: usize, count: usize| -> Vec<Vec<u8>> {
        let mut gen = ContentGenerator::pure(0xEDC, class);
        (0..count).map(|_| gen.block_of(class, len)).collect()
    };
    let n_runs = (n_blocks / 8).max(2);
    let mut run_sets: Vec<(&str, String, Vec<Vec<u8>>)> = Vec::new();
    for (tag, len, count) in [("run16k", 16 * 1024, n_runs * 4), ("run64k", 64 * 1024, n_runs)] {
        for class in [BlockClass::Text, BlockClass::Code, BlockClass::Binary] {
            run_sets.push((tag, format!("{class:?}").to_lowercase(), pure_runs(class, len, count)));
        }
    }
    let mut mix = ContentGenerator::new(0xEDC, DataMix::primary_storage());
    let mixed = (0..n_runs * 2).map(|_| (0..4).flat_map(|_| mix.block(16 * 1024).1).collect());
    run_sets.push(("run64k", "mixed".into(), mixed.collect()));
    let media = pure_runs(BlockClass::Media, 64 * 1024, n_runs);
    run_sets.push(("run64k", "incompressible".into(), media));
    for (tag, cname, runs) in &run_sets {
        let total: u64 = runs.iter().map(|r| r.len() as u64).sum();
        for id in ladder {
            let codec = CodecRegistry::get(id).expect("ladder codec");
            let label = id.name().to_lowercase();
            let mut state = CompressorState::new();
            let mut out = Vec::new();
            h.run_bytes(&format!("compress_{tag}/{label}/{cname}"), total, || {
                for r in runs {
                    codec.compress_with(&mut state, r, &mut out);
                    std::hint::black_box(out.len());
                }
            });
            let streams: Vec<Vec<u8>> = runs.iter().map(|r| codec.compress(r)).collect();
            let comp_total: u64 = streams.iter().map(|s| s.len() as u64).sum();
            let ratio = total as f64 / comp_total.max(1) as f64;
            h.metric(&format!("ratio_{tag}_{label}_{cname}"), ratio);
            let mut dec = Vec::new();
            h.run_bytes(&format!("decompress_{tag}/{label}/{cname}"), total, || {
                for (s, r) in streams.iter().zip(runs) {
                    codec.decompress_into(s, r.len(), &mut dec).expect("round trip");
                    std::hint::black_box(dec.len());
                }
            });
        }
    }

    // Dedup content-hash primitive: the per-chunk fingerprint cost the
    // dedup front-end adds to every sealed run, at the 4 KiB block unit
    // and at a large merged-chunk size (64 KiB = 16 blocks, the chunker's
    // max). Reported in both MiB/s (harness unit) and GiB/s (metric).
    for (len, label) in [(4 * 1024usize, "4k"), (64 * 1024usize, "64k")] {
        let mut gen = ContentGenerator::pure(0xEDC, BlockClass::Text);
        let bufs: Vec<Vec<u8>> =
            (0..n_blocks).map(|_| gen.block_of(BlockClass::Text, len)).collect();
        let total: u64 = bufs.iter().map(|b| b.len() as u64).sum();
        let r = h.run_bytes(&format!("content_hash64/{label}"), total, || {
            for b in &bufs {
                std::hint::black_box(edc_core::content_hash64(b, 0xEDC0_DE0D));
            }
        });
        let gib_s = r.throughput_mib_s().unwrap_or(0.0) / 1024.0;
        h.metric(&format!("content_hash64_gib_s_{label}"), gib_s);
        eprintln!("# content_hash64/{label}: {gib_s:.2} GiB/s");
    }

    // Before/after: `--prior FILE` names the BENCH_codecs.json the same
    // command wrote on the same host with the codecs of the commit being
    // compared against; its encode and decode rows and its ratios are
    // recorded beside this run's.
    if let Some(prior) = prior {
        let prior = parse_report(&prior);
        for (case, before) in prior.cases {
            let Some(before) = before else { continue };
            if !case.starts_with("compress") && !case.starts_with("decompress") {
                continue;
            }
            let fresh = h.results().iter().find(|r| r.name == case);
            let Some(now) = fresh.and_then(|r| r.throughput_mib_s()) else { continue };
            let key = case.replace('/', "_");
            h.metric(&format!("prior_{key}_mib_s"), before);
            h.metric(&format!("speedup_{key}"), if before > 0.0 { now / before } else { 0.0 });
            eprintln!("# {case}: {before:.1} -> {now:.1} MiB/s ({:.2}x vs prior)", now / before);
        }
        for (name, before) in prior.metrics {
            if name.starts_with("ratio_") {
                h.metric(&format!("prior_{name}"), before);
            }
        }
    }

    h.finish(out_dir, 0)
}
