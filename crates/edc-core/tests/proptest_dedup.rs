//! Property test: the dedup front-end is observationally invisible.
//!
//! Two [`ShardedPipeline`]s replay the same randomized schedule of
//! writes (with a heavy, recency-biased duplicate fraction), reads,
//! overwrite churn, flushes, idle recompression passes and
//! power-cut/recover cycles; one runs with the content-defined dedup
//! front-end enabled, the other with it disabled. Every read — and a
//! final whole-space sweep — must return bit-identical bytes: sharing
//! physical runs between logical writers may change the layout and the
//! flash traffic, never the logical contents.
//!
//! Run at 1 shard and at 8 shards per the tentpole's sharded-safety
//! requirement. After every recovery and at the end, the dedup arm's
//! refcount ledger must pass its two-way mapping cross-check
//! ([`ShardedPipeline::verify_dedup`]). Cut points flush both arms
//! first (the deterministic cut pattern shared with `proptest_heat`);
//! cuts *inside* dedup-hit writes and shared-run relocation are swept
//! exhaustively by `edc-bench`'s
//! `dedup::tests::power_cut_anywhere_in_dedup_writes_and_relocation_loses_nothing`.

use edc_compress::CodecId;
use edc_core::dedup::DedupConfig;
use edc_core::pipeline::PipelineConfig;
use edc_core::shard::{ShardConfig, ShardedPipeline};
use edc_core::HeatConfig;
use edc_datagen::proptest::cases;
use edc_datagen::rng::Rng64;

const BB: u64 = 4096;
/// Logical blocks the schedules address.
const SPACE_BLOCKS: u64 = 64;
/// Heat half-life; idle gaps jump several of these so cold shared runs
/// become relocation candidates for the recompression pass.
const HALF_LIFE_NS: u64 = 1_000_000_000;

/// A fresh 4 KiB block: compressible (small alphabet) or incompressible
/// (arbitrary bytes), so shared runs land on both sides of the
/// keep-raw-if-not-smaller decision.
fn fresh_block(rng: &mut Rng64) -> Vec<u8> {
    let mut b = vec![0u8; BB as usize];
    if rng.chance(0.7) {
        for byte in &mut b {
            *byte = b'a' + rng.below(6) as u8;
        }
    } else {
        rng.fill_bytes(&mut b);
    }
    b
}

/// A block payload that is, with probability ~0.5, a byte-exact copy of
/// an earlier payload from `pool` (recency-biased) — the repetition that
/// makes the dedup arm actually share runs.
fn pooled_block(rng: &mut Rng64, pool: &mut Vec<Vec<u8>>) -> Vec<u8> {
    if !pool.is_empty() && rng.chance(0.5) {
        let n = pool.len();
        let back = rng.below(n.min(8) as u64) as usize;
        return pool[n - 1 - back].clone();
    }
    let b = fresh_block(rng);
    pool.push(b.clone());
    b
}

#[derive(Debug)]
enum Op {
    /// Write `data` at `block` on both arms.
    Write { block: u64, data: Vec<u8> },
    /// Read `blocks` blocks at `block` and compare the arms' bytes.
    Read { block: u64, blocks: u64 },
    /// Overwrite churn: hammer one narrow range several times — the
    /// refcount-release pressure that frees shared runs back to unique
    /// (and unique runs back to the allocator).
    Churn { block: u64, versions: Vec<Vec<u8>> },
    /// Flush both arms.
    Flush,
    /// Jump the clock several half-lives, then run a budget-bounded
    /// recompression pass on both arms — in the dedup arm this is where
    /// cold *shared* runs relocate and re-point their referrers.
    IdleRecompress { gap_half_lives: u64, budget: usize },
    /// Flush both arms, then power-cut/recover both (the dedup arm's
    /// refcount ledger is rebuilt from the journal; contents and ledger
    /// consistency must survive).
    CutAndRecover,
}

fn gen_schedule(rng: &mut Rng64, pool: &mut Vec<Vec<u8>>) -> Vec<Op> {
    let n = rng.range_usize(16, 48);
    (0..n)
        .map(|_| match rng.below(10) {
            0..=3 => {
                let blocks = rng.range_u64(1, 5);
                let block = rng.below(SPACE_BLOCKS - blocks + 1);
                let data: Vec<u8> =
                    (0..blocks).flat_map(|_| pooled_block(rng, pool)).collect();
                Op::Write { block, data }
            }
            4 | 5 => {
                let blocks = rng.range_u64(1, 9);
                Op::Read { block: rng.below(SPACE_BLOCKS - blocks + 1), blocks }
            }
            6 => {
                let block = rng.below(SPACE_BLOCKS - 1);
                let versions =
                    (0..rng.range_usize(2, 5)).map(|_| pooled_block(rng, pool)).collect();
                Op::Churn { block, versions }
            }
            7 => Op::Flush,
            8 => Op::IdleRecompress {
                gap_half_lives: rng.range_u64(1, 6),
                budget: rng.range_usize(1, 12),
            },
            _ => Op::CutAndRecover,
        })
        .collect()
}

fn config(extent_blocks: u64, dedup: bool) -> PipelineConfig {
    PipelineConfig {
        dedup: DedupConfig { enabled: dedup, ..DedupConfig::default() },
        heat: HeatConfig {
            enabled: true,
            extent_blocks,
            half_life_ns: HALF_LIFE_NS,
            ..HeatConfig::default()
        },
        ..PipelineConfig::default()
    }
}

fn run_property(shards: usize) {
    let mut total_hits = 0u64;
    cases(16).run("dedup never changes read bytes", |rng| {
        let extent_blocks = rng.range_u64(1, 9);
        let mk = |dedup: bool| {
            ShardedPipeline::new(
                shards as u64 * 4 * 1024 * 1024,
                ShardConfig { shards, extent_blocks, pipeline: config(extent_blocks, dedup) },
            )
        };
        let deduped = mk(true);
        let control = mk(false);
        let mut pool: Vec<Vec<u8>> = Vec::new();
        let mut now = 0u64;
        for op in gen_schedule(rng, &mut pool) {
            now += rng.range_u64(10_000, 2_000_000);
            match op {
                Op::Write { block, data } => {
                    deduped.write(now, block * BB, &data).expect("deduped write");
                    control.write(now, block * BB, &data).expect("control write");
                }
                Op::Read { block, blocks } => {
                    let a = deduped.read(now, block * BB, blocks * BB).expect("deduped read");
                    let b = control.read(now, block * BB, blocks * BB).expect("control read");
                    assert_eq!(
                        a, b,
                        "read of blocks [{block}, {}) diverged with {shards} shard(s), \
                         extent {extent_blocks}",
                        block + blocks
                    );
                }
                Op::Churn { block, versions } => {
                    for data in &versions {
                        now += rng.range_u64(10_000, 500_000);
                        deduped.write(now, block * BB, data).expect("churn write");
                        control.write(now, block * BB, data).expect("churn write");
                    }
                }
                Op::Flush => {
                    deduped.flush_all(now).expect("deduped flush");
                    control.flush_all(now).expect("control flush");
                }
                Op::IdleRecompress { gap_half_lives, budget } => {
                    deduped.flush_all(now).expect("pre-pass flush");
                    control.flush_all(now).expect("pre-pass flush");
                    now += gap_half_lives * HALF_LIFE_NS;
                    deduped.recompress(now, CodecId::Deflate, budget).expect("deduped pass");
                    control.recompress(now, CodecId::Deflate, budget).expect("control pass");
                }
                Op::CutAndRecover => {
                    deduped.flush_all(now).expect("deduped flush");
                    control.flush_all(now).expect("control flush");
                    let r = deduped.recover().expect("deduped recover");
                    control.recover().expect("control recover");
                    assert_eq!(r.payload_mismatches, 0, "recovery replayed corrupt payloads");
                    deduped.verify_dedup().expect("ledger consistent after recovery");
                }
            }
        }
        // Final sweep: the entire address space must agree byte for
        // byte, and the dedup arm must audit clean both ways.
        now += 1;
        deduped.flush_all(now).expect("deduped flush");
        control.flush_all(now).expect("control flush");
        let a = deduped.read(now, 0, SPACE_BLOCKS * BB).expect("deduped sweep");
        let b = control.read(now, 0, SPACE_BLOCKS * BB).expect("control sweep");
        assert_eq!(a, b, "final sweep diverged with {shards} shard(s), extent {extent_blocks}");
        let audit = deduped.verify().expect("audit");
        assert_eq!(audit.unrecoverable, 0, "deduped store failed its integrity audit");
        deduped.verify_dedup().expect("final ledger cross-check");
        total_hits += deduped.stats().dedup_hits;
    });
    // The schedules repeat themselves on purpose; the front-end must
    // actually have shared something or the property ran vacuously.
    assert!(total_hits > 0, "no schedule produced a single dedup hit");
}

#[test]
fn dedup_invisible_at_one_shard() {
    run_property(1);
}

#[test]
fn dedup_invisible_at_eight_shards() {
    run_property(8);
}
