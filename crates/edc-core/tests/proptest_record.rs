//! Property tests over the record/replay subsystem, on the in-tree
//! harness (`edc_datagen::proptest`):
//!
//! 1. A random op schedule — writes, reads, flushes, scrubs,
//!    recompression passes, hints, fault plans, power cuts and
//!    recoveries — recorded through a [`Recorder`] replays bit-exactly
//!    from the saved `.edcrr` bytes, at 1 shard and at 8 shards, with
//!    and without injected faults.
//! 2. The replayed store ends in *exactly* the recorded store's state:
//!    identical [`PipelineStats`] and identical contents for every
//!    offset the schedule touched.
//! 3. Truncating a log anywhere inside a record is detected as a torn
//!    tail (never a panic), and the intact prefix still replays clean.

use edc_core::pipeline::PipelineStats;
use edc_core::store::Op;
use edc_core::{parse_edcrr, FileTypeHint, ManualClock, Recorder, Replayer, ShardedPipeline, StoreSpec};
use edc_datagen::proptest::cases;
use edc_datagen::rng::Rng64;
use edc_flash::FaultPlan;

const BB: u64 = 4096;
/// Ranks are spaced 3 blocks apart so neighbouring runs never merge.
const RANKS: u64 = 12;

fn rank_offset(rank: u64) -> u64 {
    rank * 3 * BB
}

/// A 1–2 block payload: compressible (small alphabet) or incompressible.
fn gen_data(rng: &mut Rng64) -> Vec<u8> {
    let blocks = rng.range_u64(1, 3);
    let mut b = vec![0u8; (blocks * BB) as usize];
    if rng.chance(0.7) {
        for byte in &mut b {
            *byte = b'a' + rng.below(5) as u8;
        }
    } else {
        rng.fill_bytes(&mut b);
    }
    b
}

/// A random fault plan: mostly benign rates, occasionally a power cut
/// armed at a small program index.
fn gen_fault_plan(rng: &mut Rng64) -> FaultPlan {
    FaultPlan {
        seed: rng.next_u64(),
        read_error_rate: if rng.chance(0.5) { 0.05 } else { 0.0 },
        bit_rot_rate: if rng.chance(0.3) { 0.02 } else { 0.0 },
        read_retries: rng.below(3) as u32,
        power_cut_after_programs: rng.chance(0.3).then(|| rng.range_u64(1, 40)),
        ..FaultPlan::none()
    }
}

/// A random op schedule over the rank set. Power cuts are followed by a
/// recovery so later ops run against a powered store; every schedule
/// ends with a flush, a full read-back sweep and a stats snapshot, so
/// the recorded log pins the final state of every touched offset.
fn gen_schedule(rng: &mut Rng64, shards: u32) -> Vec<Op> {
    let n = rng.range_u64(15, 40);
    let mut ops: Vec<Op> = Vec::new();
    if rng.chance(0.5) {
        ops.push(Op::SetHint {
            offset: 0,
            len: RANKS * 3 * BB,
            hint: if rng.chance(0.5) { FileTypeHint::Text } else { FileTypeHint::Database },
        });
    }
    if rng.chance(0.5) {
        ops.push(Op::SetFaultPlan(gen_fault_plan(rng)));
    }
    for _ in 0..n {
        let roll = rng.below(100);
        let op = match roll {
            0..=39 => Op::Write { offset: rank_offset(rng.below(RANKS)), data: gen_data(rng) },
            40..=49 => Op::WriteBatch {
                writes: (0..rng.range_u64(1, 4))
                    .map(|_| (rank_offset(rng.below(RANKS)), gen_data(rng)))
                    .collect(),
            },
            50..=64 => Op::Read {
                offset: rank_offset(rng.below(RANKS)),
                len: rng.range_u64(1, 3) * BB,
            },
            65..=74 => Op::Flush,
            75..=79 => Op::Stats,
            80..=84 => Op::Scrub,
            85..=88 => Op::Verify,
            89..=92 => Op::RecompressPass {
                target: edc_compress::CodecId::Deflate,
                max_rewrites: rng.range_u64(1, 16),
            },
            93..=95 => Op::SetFaultPlan(gen_fault_plan(rng)),
            96..=97 => Op::TruncateJournal {
                shard: rng.below(u64::from(shards.max(1))) as u32,
                bytes: rng.range_u64(0, 128),
            },
            _ => Op::PowerCut,
        };
        let cut = matches!(op, Op::PowerCut);
        ops.push(op);
        if cut {
            ops.push(Op::Recover);
        }
    }
    ops.push(Op::Flush);
    for rank in 0..RANKS {
        ops.push(Op::Read { offset: rank_offset(rank), len: 2 * BB });
    }
    ops.push(Op::Stats);
    ops
}

/// Record the schedule against a fresh store built from `spec`; returns
/// the log bytes, the live store and its final stats.
fn record(spec: &StoreSpec, ops: &[Op]) -> (Vec<u8>, ShardedPipeline, PipelineStats) {
    let store = spec.build();
    let mut rec = Recorder::new(*spec);
    let mut clock = ManualClock::new(0, 2_000_000);
    for op in ops {
        rec.apply(&store, &mut clock, op);
    }
    let stats = store.stats();
    (rec.into_bytes(), store, stats)
}

/// The core property at one shard count.
fn check_round_trip(rng: &mut Rng64, shards: u32) {
    let spec = StoreSpec {
        capacity_bytes: 16 << 20,
        shards,
        extent_blocks: 8,
        cache_runs: if rng.chance(0.7) { 16 } else { 0 },
        parity: rng.chance(0.5),
        fault: if rng.chance(0.3) { gen_fault_plan(rng) } else { FaultPlan::none() },
        ..StoreSpec::default()
    };
    let ops = gen_schedule(rng, shards);
    let (bytes, original, original_stats) = record(&spec, &ops);

    // 1. The saved log replays bit-exactly against a fresh store.
    let log = parse_edcrr(&bytes).expect("recorded log parses");
    assert!(!log.torn_tail, "recorder produced a torn log");
    let fresh = log.spec.build();
    let report = Replayer::replay_against(&fresh, &log);
    assert!(
        report.is_exact(),
        "replay diverged ({} of {} ops): {:?}",
        report.divergences.len(),
        report.ops,
        report.divergences.first()
    );

    // 2. The replayed store ends in the recorded store's exact state:
    // same aggregate stats, same contents at every touched offset.
    assert_eq!(fresh.stats(), original_stats, "replayed stats differ");
    for rank in 0..RANKS {
        let now = u64::MAX / 2;
        let a = original.read(now, rank_offset(rank), 2 * BB).map_err(|e| e.to_string());
        let b = fresh.read(now, rank_offset(rank), 2 * BB).map_err(|e| e.to_string());
        assert_eq!(a, b, "rank {rank} contents differ after replay");
    }
}

#[test]
fn record_replay_round_trips_one_shard() {
    cases(24).run("record/replay, plain pipeline", |rng| check_round_trip(rng, 0));
}

#[test]
fn record_replay_round_trips_eight_shards() {
    cases(16).run("record/replay, 8 shards", |rng| check_round_trip(rng, 8));
}

#[test]
fn truncated_logs_are_torn_never_panic() {
    cases(16).run("torn-tail detection", |rng| {
        let spec = StoreSpec { capacity_bytes: 16 << 20, shards: 0, ..StoreSpec::default() };
        let ops = gen_schedule(rng, 0);
        let (bytes, _, _) = record(&spec, &ops);
        // Cut anywhere strictly inside the record stream.
        let header = edc_core::record::SPEC_BYTES + 16;
        let cut_at = header + rng.below((bytes.len() - header) as u64) as usize;
        match parse_edcrr(&bytes[..cut_at]) {
            Ok(log) => {
                assert!(log.torn_tail, "truncated log parsed as complete");
                // The intact prefix still replays clean (divergence-free;
                // the report itself flags the tear).
                let report = Replayer::replay(&bytes[..cut_at]).expect("prefix replays");
                assert!(report.divergences.is_empty(), "intact prefix diverged");
                assert!(report.torn_tail);
            }
            // Cutting inside the header itself is a hard parse error.
            Err(_) => assert!(cut_at < edc_core::record::SPEC_BYTES + 16),
        }
    });
}
