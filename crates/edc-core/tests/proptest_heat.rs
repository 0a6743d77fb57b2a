//! Property test: background recompression is observationally invisible.
//!
//! Two heat-enabled [`ShardedPipeline`]s replay the same randomized
//! schedule of writes, reads, flushes, overwrite churn (GC pressure),
//! idle gaps and power-cut/recover cycles; one additionally runs
//! budget-bounded [`ShardedPipeline::recompress`] passes wherever the
//! schedule says so, the other never does. Every read — and a final
//! whole-space sweep — must return bit-identical bytes: re-encoding cold
//! runs and demoting incompressible ones may change the physical layout,
//! never the logical contents.
//!
//! Run at 1 shard and at 8 shards, per the tentpole's sharded-safety
//! requirement. Cut points flush both stores first (the deterministic
//! power-cut pattern shared with `proptest_sharded`); cuts *inside* a
//! recompression pass are swept exhaustively by the pipeline unit tests
//! and `edc-bench`'s
//! `heat::tests::power_cut_anywhere_in_a_recompression_pass_loses_nothing`.

use edc_compress::CodecId;
use edc_core::pipeline::PipelineConfig;
use edc_core::shard::{ShardConfig, ShardedPipeline};
use edc_core::HeatConfig;
use edc_datagen::proptest::cases;
use edc_datagen::rng::Rng64;

const BB: u64 = 4096;
/// Logical blocks the schedules address.
const SPACE_BLOCKS: u64 = 64;
/// Heat half-life; idle gaps jump several of these so runs genuinely
/// cool and the recompressing arm has real work to do.
const HALF_LIFE_NS: u64 = 1_000_000_000;

/// A 4 KiB block: compressible (small alphabet) or incompressible
/// (arbitrary bytes), so recompression sees both gainful runs and
/// demotion candidates.
fn gen_block(rng: &mut Rng64) -> Vec<u8> {
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

#[derive(Debug)]
enum Op {
    /// Write `data` at `block` on both arms.
    Write { block: u64, data: Vec<u8> },
    /// Read `blocks` blocks at `block` and compare the arms' bytes.
    Read { block: u64, blocks: u64 },
    /// Overwrite churn: hammer one narrow range several times — the
    /// overwrite pressure that forces run supersession and space reuse.
    Churn { block: u64, versions: Vec<Vec<u8>> },
    /// Flush both arms.
    Flush,
    /// Jump the clock several half-lives, then run a budget-bounded
    /// recompression pass on the recompressing arm only.
    IdleRecompress { gap_half_lives: u64, budget: usize },
    /// Flush both arms, then power-cut/recover both (heat state resets;
    /// contents must not change).
    CutAndRecover,
}

fn gen_schedule(rng: &mut Rng64) -> Vec<Op> {
    let n = rng.range_usize(16, 48);
    (0..n)
        .map(|_| match rng.below(10) {
            0..=3 => {
                let blocks = rng.range_u64(1, 5);
                let block = rng.below(SPACE_BLOCKS - blocks + 1);
                let data: Vec<u8> = (0..blocks).flat_map(|_| gen_block(rng)).collect();
                Op::Write { block, data }
            }
            4 | 5 => {
                let blocks = rng.range_u64(1, 9);
                Op::Read { block: rng.below(SPACE_BLOCKS - blocks + 1), blocks }
            }
            6 => {
                let block = rng.below(SPACE_BLOCKS - 1);
                let versions = (0..rng.range_usize(2, 5)).map(|_| gen_block(rng)).collect();
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

fn heat_config(extent_blocks: u64) -> PipelineConfig {
    PipelineConfig {
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
    cases(16).run("recompression never changes read bytes", |rng| {
        let extent_blocks = rng.range_u64(1, 9);
        let mk = || {
            ShardedPipeline::new(
                shards as u64 * 4 * 1024 * 1024,
                ShardConfig { shards, extent_blocks, pipeline: heat_config(extent_blocks) },
            )
        };
        let recompressing = mk();
        let control = mk();
        let mut now = 0u64;
        for op in gen_schedule(rng) {
            now += rng.range_u64(10_000, 2_000_000);
            match op {
                Op::Write { block, data } => {
                    recompressing.write(now, block * BB, &data).expect("recompressing write");
                    control.write(now, block * BB, &data).expect("control write");
                }
                Op::Read { block, blocks } => {
                    let a =
                        recompressing.read(now, block * BB, blocks * BB).expect("recomp read");
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
                        recompressing.write(now, block * BB, data).expect("churn write");
                        control.write(now, block * BB, data).expect("churn write");
                    }
                }
                Op::Flush => {
                    recompressing.flush_all(now).expect("recompressing flush");
                    control.flush_all(now).expect("control flush");
                }
                Op::IdleRecompress { gap_half_lives, budget } => {
                    recompressing.flush_all(now).expect("pre-pass flush");
                    control.flush_all(now).expect("pre-pass flush");
                    now += gap_half_lives * HALF_LIFE_NS;
                    recompressing
                        .recompress(now, CodecId::Deflate, budget)
                        .expect("recompress pass");
                }
                Op::CutAndRecover => {
                    recompressing.flush_all(now).expect("recompressing flush");
                    control.flush_all(now).expect("control flush");
                    let r = recompressing.recover().expect("recompressing recover");
                    control.recover().expect("control recover");
                    assert_eq!(r.payload_mismatches, 0, "recovery replayed corrupt payloads");
                }
            }
        }
        // Final sweep: the entire address space must agree byte for byte,
        // and both stores must audit clean.
        now += 1;
        recompressing.flush_all(now).expect("recompressing flush");
        control.flush_all(now).expect("control flush");
        let a = recompressing.read(now, 0, SPACE_BLOCKS * BB).expect("recompressing sweep");
        let b = control.read(now, 0, SPACE_BLOCKS * BB).expect("control sweep");
        assert_eq!(a, b, "final sweep diverged with {shards} shard(s), extent {extent_blocks}");
        let audit = recompressing.verify().expect("audit");
        assert_eq!(audit.unrecoverable, 0, "recompressed store failed its integrity audit");
    });
}

#[test]
fn recompression_invisible_at_one_shard() {
    run_property(1);
}

#[test]
fn recompression_invisible_at_eight_shards() {
    run_property(8);
}
