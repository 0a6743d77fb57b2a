//! `bench-codecs`: per-codec throughput and ratio rows, the live
//! encoders against the frozen pre-refactor ones in the same run.

use crate::harness::parse_report;
use crate::{CmdError, CmdResult, Harness};
use edc_compress::{baseline, CodecId, CodecRegistry, CompressorState};
use edc_datagen::{BlockClass, ContentGenerator};
use std::path::Path;

/// Per-codec throughput and ratio sweep: every codec in the elastic
/// ladder against every `edc-datagen` corpus class, compress and
/// decompress, with the frozen pre-refactor encoders
/// ([`edc_compress::baseline`]) timed by the same harness in the same run
/// as the hot-path speedup baseline. `prior` names an earlier
/// `BENCH_codecs.json` whose decode rows are recorded beside this run's
/// — recorded, never gated on. Writes `BENCH_codecs.json`.
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
    // this is the size the write path hands each codec. Merged-run-sized
    // (16 KiB) throughput is measured separately in the baseline section.
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

    // The read path's unit: a cold read decodes one whole merged run, so
    // the ladder codecs are also timed on 64 KiB runs, where the per-call
    // setup the block-sized cases pay (Deflate's header and tables) is
    // amortized and the copy loops dominate.
    let run_len: usize = 64 * 1024;
    let n_runs = (n_blocks / 8).max(2);
    for class in [BlockClass::Text, BlockClass::Code, BlockClass::Binary] {
        let mut gen = ContentGenerator::pure(0xEDC, class);
        let runs: Vec<Vec<u8>> = (0..n_runs).map(|_| gen.block_of(class, run_len)).collect();
        let total: u64 = runs.iter().map(|r| r.len() as u64).sum();
        let cname = format!("{class:?}").to_lowercase();
        for id in [CodecId::Lzf, CodecId::Lz4, CodecId::Deflate] {
            let codec = CodecRegistry::get(id).expect("ladder codec");
            let streams: Vec<Vec<u8>> = runs.iter().map(|r| codec.compress(r)).collect();
            let mut dec = Vec::new();
            let label = id.name().to_lowercase();
            h.run_bytes(&format!("decompress_run64k/{label}/{cname}"), total, || {
                for (s, r) in streams.iter().zip(&runs) {
                    codec.decompress_into(s, r.len(), &mut dec).expect("round trip");
                    std::hint::black_box(dec.len());
                }
            });
        }
    }

    // Pre-refactor baseline, same harness, same run, same text corpus —
    // the honest denominator for the hot-path speedup claims. Bwt has no
    // frozen baseline (its hot path was not refactored). The refactored
    // encoder is re-timed here, back-to-back with its baseline, rather
    // than reusing the sweep's number from minutes earlier: on shared
    // machines throughput drifts over a run, and adjacency is what makes
    // the before/after pair comparable. Both the block-sized (4 KiB, the
    // write path's unit — where the eliminated per-call setup is a large
    // share of the work) and the merged-run-sized (16 KiB) pairs are
    // recorded; the speedup is size-dependent and both numbers are real.
    for (len, suffix) in [(block_len, ""), (16 * 1024, "_run16k")] {
        let mut gen = ContentGenerator::pure(0xEDC, BlockClass::Text);
        let blocks: Vec<Vec<u8>> =
            (0..n_blocks).map(|_| gen.block_of(BlockClass::Text, len)).collect();
        let total: u64 = blocks.iter().map(|b| b.len() as u64).sum();
        for id in [CodecId::Lzf, CodecId::Lz4, CodecId::Deflate] {
            let codec = CodecRegistry::get(id).expect("ladder codec");
            let label = id.name().to_lowercase();
            let pre = h
                .run_bytes(&format!("compress_prerefactor{suffix}/{label}/text"), total, || {
                    for b in &blocks {
                        std::hint::black_box(baseline::compress(id, b).len());
                    }
                })
                .throughput_mib_s()
                .unwrap_or(0.0);
            let mut state = CompressorState::new();
            let mut out = Vec::new();
            let live = h
                .run_bytes(&format!("compress_refactored{suffix}/{label}/text"), total, || {
                    for b in &blocks {
                        codec.compress_with(&mut state, b, &mut out);
                        std::hint::black_box(out.len());
                    }
                })
                .throughput_mib_s()
                .unwrap_or(0.0);
            h.metric(&format!("prerefactor_compress_mib_s_{label}{suffix}"), pre);
            h.metric(&format!("compress_mib_s_{label}{suffix}"), live);
            let speedup = if pre > 0.0 { live / pre } else { 0.0 };
            h.metric(&format!("compress_speedup_vs_prerefactor_{label}{suffix}"), speedup);
            eprintln!(
                "# {label}/{len}B: {pre:.1} -> {live:.1} MiB/s ({speedup:.2}x vs pre-refactor)"
            );
            if id == CodecId::Deflate && suffix.is_empty() && speedup < 2.0 {
                h.note(&format!(
                    "gzip hot-path speedup at the 4 KiB block size is {speedup:.2}x, short \
                     of the 2x goal on this machine/run: with the bit-identical-stream \
                     constraint the chain walk is unchanged algorithmically, so the gain \
                     comes from eliminated per-call setup, word-wide extension and emit \
                     batching only"
                ));
            }
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

    // Decode before/after: `--prior FILE` names the BENCH_codecs.json the
    // same command wrote on the same host at the commit being compared
    // against; its decode rows are recorded beside this run's.
    if let Some(prior) = prior {
        for (case, before) in parse_report(&prior).cases {
            let Some(before) = before else { continue };
            if !case.starts_with("decompress") {
                continue;
            }
            let fresh = h.results().iter().find(|r| r.name == case);
            let Some(now) = fresh.and_then(|r| r.throughput_mib_s()) else { continue };
            let key = case.replace('/', "_");
            h.metric(&format!("prior_{key}_mib_s"), before);
            h.metric(&format!("speedup_{key}"), if before > 0.0 { now / before } else { 0.0 });
            eprintln!("# {case}: {before:.1} -> {now:.1} MiB/s ({:.2}x vs prior)", now / before);
        }
    }

    h.finish(out_dir, 0)
}
