//! Property tests for the async ring front-end.
//!
//! 1. **Ring ≡ blocking.** Under random schedules of single-extent
//!    writes and reads — with injected read faults and armed mid-drain
//!    power cuts, at 1 and 8 shards — every completion the ring posts is
//!    digest-identical to the blocking `ShardedPipeline::dispatch` of the
//!    same op on a control store — reads, writes and the typed
//!    errors of a cut alike — and after recovery the two stores' entire
//!    address spaces read back bit-identical.
//!
//! 2. **Recorded ring replays bit-exactly.** A `Recorder` wrapped
//!    around the ring logs ops in drain order, coalesced groups
//!    included; the resulting `.edcrr` log — including a power cut
//!    firing mid-drain and the subsequent recovery — replays bit-exactly
//!    through the blocking path.

use edc_core::clock::Clock;
use edc_core::record::{Recorder, Replayer, StoreSpec};
use edc_core::ring::{Ring, RingConfig, RingError, Ticket};
use edc_core::shard::{ShardConfig, ShardedPipeline};
use edc_core::store::{Op, OpOutput};
use edc_core::pipeline::PipelineConfig;
use edc_datagen::proptest::cases;
use edc_datagen::rng::Rng64;
use edc_flash::FaultPlan;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

const BB: u64 = 4096;
const SPACE_BLOCKS: u64 = 64;

/// A 4 KiB block, compressible or not.
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

/// A random data-plane op whose footprint stays inside one extent, so
/// the ring accepts it (cross-extent ops are the caller's to split).
fn gen_ring_op(rng: &mut Rng64, extent_blocks: u64) -> Op {
    let extents = SPACE_BLOCKS / extent_blocks.min(SPACE_BLOCKS);
    let extent = rng.below(extents.max(1));
    let within = rng.below(extent_blocks);
    let max_blocks = extent_blocks - within;
    let blocks = rng.range_u64(1, max_blocks + 1);
    let block = extent * extent_blocks + within;
    let offset = block * BB;
    if rng.chance(0.65) {
        let data: Vec<u8> = (0..blocks).flat_map(|_| gen_block(rng)).collect();
        Op::Write { offset, data }
    } else {
        Op::Read { offset, len: blocks * BB }
    }
}

fn gen_plan(rng: &mut Rng64) -> FaultPlan {
    FaultPlan {
        seed: rng.next_u64(),
        read_error_rate: if rng.chance(0.4) { 0.15 } else { 0.0 },
        power_cut_after_programs: if rng.chance(0.5) {
            Some(rng.range_u64(1, 60))
        } else {
            None
        },
        ..FaultPlan::none()
    }
}

#[test]
fn ring_reads_bit_identical_to_blocking_under_faults_and_cuts() {
    cases(18).run("ring == blocking under faults and power cuts", |rng| {
        let shards = if rng.chance(0.5) { 1 } else { 8 };
        let extent_blocks = rng.range_u64(1, 9);
        let depth = rng.range_usize(2, 17);
        let mut pc = PipelineConfig::default();
        pc.dedup.enabled = rng.chance(0.3);
        let cfg = ShardConfig { shards, extent_blocks, pipeline: pc };
        let capacity = shards as u64 * 4 * 1024 * 1024;
        let ring_store = ShardedPipeline::new(capacity, cfg.clone());
        let ctrl = ShardedPipeline::new(capacity, cfg);
        let plan = gen_plan(rng);
        let cut_armed = plan.power_cut_after_programs.is_some();
        ring_store.set_fault_plan(plan);
        ctrl.set_fault_plan(plan);

        let n_ops = rng.range_usize(20, 61);
        let schedule: Vec<Op> = (0..n_ops).map(|_| gen_ring_op(rng, extent_blocks)).collect();
        let mut now = 0u64;

        Ring::serve(&ring_store, RingConfig { depth, shards }, |ring| {
            // ticket → expected digest from the blocking control store.
            let mut expected: HashMap<Ticket, u64> = HashMap::new();
            let mut outstanding: VecDeque<Ticket> = VecDeque::new();
            let verify = |t: Ticket, out: &OpOutput, expected: &mut HashMap<Ticket, u64>| {
                let want = expected.remove(&t).expect("unknown ticket completed");
                assert_eq!(
                    out.digest(),
                    want,
                    "shard {} seq {} diverged from the blocking path \
                     ({shards} shards, extent {extent_blocks}, depth {depth}, cut {cut_armed})",
                    t.shard(),
                    t.seq()
                );
            };
            for op in &schedule {
                now += 500_000;
                let want = ctrl.dispatch(now, op).digest();
                loop {
                    match ring.submit(now, op.clone()) {
                        Ok(t) => {
                            expected.insert(t, want);
                            outstanding.push_back(t);
                            break;
                        }
                        Err(RingError::Full) => {
                            let t = outstanding.pop_front().expect("full ring has tickets");
                            let out = ring.wait(t).expect("completion");
                            verify(t, &out, &mut expected);
                        }
                        Err(e) => panic!("submit refused a valid single-extent op: {e}"),
                    }
                }
                // Opportunistic harvesting keeps the window honest.
                if rng.chance(0.3) {
                    if let Some((t, out)) = ring.try_reap() {
                        outstanding.retain(|o| *o != t);
                        verify(t, &out, &mut expected);
                    }
                }
            }
            while let Some(t) = outstanding.pop_front() {
                let out = ring.wait(t).expect("completion");
                verify(t, &out, &mut expected);
            }
            assert!(expected.is_empty(), "every submission must complete");
        });

        // The two stores must agree on power state; recover both and
        // sweep the whole space — bit-identical bytes, or the identical
        // typed error under the shared fault stream.
        now += 500_000;
        assert_eq!(ring_store.powered(), ctrl.powered(), "power state diverged");
        let a = ring_store.dispatch(now, &Op::Recover);
        let b = ctrl.dispatch(now, &Op::Recover);
        assert_eq!(a.digest(), b.digest(), "recovery reports diverged");
        now += 500_000;
        let sweep = Op::Read { offset: 0, len: SPACE_BLOCKS * BB };
        let a = ring_store.dispatch(now, &sweep);
        let b = ctrl.dispatch(now, &sweep);
        assert_eq!(
            a.digest(),
            b.digest(),
            "final sweep diverged ({shards} shards, extent {extent_blocks}, depth {depth}, \
             cut {cut_armed})"
        );
    });
}

/// Monotonic shared clock: the ring driver and the blocking record
/// phases draw from the same stream, so timestamps in the log are
/// consistent no matter which side drew them.
struct SharedClock<'a>(&'a AtomicU64);

impl Clock for SharedClock<'_> {
    fn now_ns(&mut self) -> u64 {
        self.0.fetch_add(500_000, Ordering::Relaxed) + 500_000
    }
}

#[test]
fn recorded_ring_replays_bit_exact_including_mid_drain_power_cut() {
    cases(12).run("recorded ring replays bit-exactly", |rng| {
        let shards = if rng.chance(0.5) { 1u32 } else { 8 };
        let extent_blocks = rng.range_u64(1, 9);
        let depth = rng.range_usize(2, 17);
        let spec = StoreSpec {
            capacity_bytes: 32 << 20,
            shards,
            extent_blocks,
            dedup: rng.chance(0.3),
            ..StoreSpec::default()
        };
        let store = ShardedPipeline::new(
            spec.capacity_bytes,
            ShardConfig {
                shards: shards as usize,
                extent_blocks,
                pipeline: spec.pipeline_config(),
            },
        );
        let time = AtomicU64::new(0);
        let mut clock = SharedClock(&time);
        let mut rec = Recorder::new(spec);
        // Arm a power cut that fires mid-drain, through the recorded
        // surface so replay arms the identical plan.
        let plan = FaultPlan {
            seed: rng.next_u64(),
            read_error_rate: if rng.chance(0.3) { 0.1 } else { 0.0 },
            power_cut_after_programs: Some(rng.range_u64(1, 40)),
            ..FaultPlan::none()
        };
        rec.apply(&store, &mut clock, &Op::SetFaultPlan(plan));

        let n_ops = rng.range_usize(20, 61);
        let schedule: Vec<Op> =
            (0..n_ops).map(|_| gen_ring_op(rng, extent_blocks)).collect();
        let rec_cell = std::sync::Mutex::new(rec);
        Ring::serve_recorded(
            &store,
            RingConfig { depth, shards: shards as usize },
            &rec_cell,
            |ring| {
                let mut outstanding: VecDeque<Ticket> = VecDeque::new();
                for op in &schedule {
                    let now = time.fetch_add(500_000, Ordering::Relaxed) + 500_000;
                    loop {
                        match ring.submit(now, op.clone()) {
                            Ok(t) => {
                                outstanding.push_back(t);
                                break;
                            }
                            Err(RingError::Full) => {
                                let t = outstanding.pop_front().expect("tickets exist");
                                ring.wait(t).expect("completion");
                            }
                            Err(e) => panic!("submit refused a valid op: {e}"),
                        }
                    }
                }
                ring.drain();
            },
        );
        let mut rec = rec_cell.into_inner().expect("recorder intact");

        // Blocking epilogue, recorded through the same log: recover the
        // cut store, sweep the space, snapshot the counters.
        rec.apply(&store, &mut clock, &Op::Recover);
        rec.apply(&store, &mut clock, &Op::Read { offset: 0, len: SPACE_BLOCKS * BB });
        rec.apply(&store, &mut clock, &Op::Stats);

        let report = Replayer::replay(rec.bytes()).expect("log parses");
        assert!(
            report.is_exact(),
            "replay diverged ({shards} shards, extent {extent_blocks}, depth {depth}): \
             {:?}",
            report.divergences.first()
        );
    });
}
