//! Heat-aware background recompression against a control arm that never
//! runs the pass, as seeded tests: the recompressing arm ends with a
//! strictly smaller store, hot reads stay cache hits in both arms, and a
//! power cut anywhere in the pass loses nothing.

use crate::content::{heat_block, HEAT_RUN_BLOCKS};
use edc_compress::CodecId;
use edc_core::pipeline::{EdcPipeline, PipelineConfig};
use edc_core::{SelectorConfig, ShardConfig, ShardedPipeline};
use edc_datagen::{Rng64, Zipfian};

/// Block slots between consecutive runs; the gap keeps the
/// sequentiality detector from merging neighbouring ranks and matches
/// the sharded front-end's extent size.
const HEAT_SLOT_BLOCKS: u64 = 8;
/// Simulated-clock step per op: 2 ms/op at 4 pages per op ≈ 2000
/// calculated IOPS — squarely in the paper ladder's middle (Lzf) band,
/// leaving the strongest rung as background-recompression headroom.
const HEAT_CLOCK_STEP_NS: u64 = 2_000_000;
/// Heat half-life: one simulated second, so a round of steady-state
/// traffic is several half-lives and the untouched tail genuinely cools.
const HEAT_HALF_LIFE_NS: u64 = 1_000_000_000;
/// Simulated idle window after the steady-state rounds: long enough for
/// the cold tail (and the mid-popularity middle) to decay below the cold
/// threshold while the hot head — orders of magnitude hotter — stays hot.
/// This is the idle bandwidth the background pass converts into space.
const HEAT_IDLE_GAP_NS: u64 = 3 * HEAT_HALF_LIFE_NS;

/// Device offset of a rank's run.
fn heat_offset(rank: u64) -> u64 {
    rank * HEAT_SLOT_BLOCKS * 4096
}

/// One steady-state op: `(rank, is_write)`.
type HeatOp = (u64, bool);

/// The heat workload's write-path config: the ladder is pinned to its
/// sustained-load rung (Lzf), which is what the elastic selector picks
/// under steady 2000-IOPS traffic — and the regime in which
/// recompression debt accumulates. The background pass upgrades whatever
/// of it goes cold to the strong codec; the control arm is the identical
/// write path with the pass never run (the "static ladder" outcome).
pub(crate) fn heat_pipeline_config() -> PipelineConfig {
    PipelineConfig {
        selector: SelectorConfig {
            rungs: vec![edc_core::LadderRung { max_calc_iops: f64::INFINITY, codec: CodecId::Lzf }],
        },
        // Cache sized past the working set: hot reads must be hits in
        // BOTH arms, so the hit counts isolate the background pass rather
        // than cache sizing.
        cache_runs: 512,
        heat: edc_core::HeatConfig {
            enabled: true,
            half_life_ns: HEAT_HALF_LIFE_NS,
            ..edc_core::HeatConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// One driven arm: the store, each rank's latest version, the simulated
/// clock and the count of reads that did not return their latest version.
struct HeatArm {
    s: ShardedPipeline,
    versions: Vec<u64>,
    clock: u64,
    errors: u64,
}

impl HeatArm {
    fn tick(&mut self) -> u64 {
        self.clock += HEAT_CLOCK_STEP_NS;
        self.clock
    }

    /// Read one rank at the next tick, counting a wrong payload.
    fn read_rank(&mut self, rank: u64) {
        let now = self.tick();
        let got = self.s.read(now, heat_offset(rank), HEAT_RUN_BLOCKS * 4096).expect("heat read");
        if got != heat_block(rank, self.versions[rank as usize]) {
            self.errors += 1;
        }
    }
}

/// Drive one arm: fill every rank, replay the shared steady-state
/// schedule, recompressing after each round when `recompress_target` is
/// set, then idle and drain the backlog in budget-bounded passes. Both
/// arms see byte-identical traffic — the only difference is the
/// background pass.
fn heat_drive(
    n_ranks: u64,
    schedule: &[Vec<HeatOp>],
    recompress_target: Option<CodecId>,
    budget_per_shard: usize,
) -> HeatArm {
    let s = ShardedPipeline::new(
        64 << 20,
        ShardConfig {
            shards: 4,
            extent_blocks: HEAT_SLOT_BLOCKS,
            pipeline: heat_pipeline_config(),
        },
    );
    let mut arm = HeatArm { s, versions: vec![0u64; n_ranks as usize], clock: 0, errors: 0 };

    for rank in 0..n_ranks {
        let now = arm.tick();
        arm.s.write(now, heat_offset(rank), &heat_block(rank, 0)).expect("fill write");
    }
    let now = arm.tick();
    arm.s.flush_all(now).expect("fill flush");

    for round in schedule {
        for &(rank, is_write) in round {
            if is_write {
                let now = arm.tick();
                arm.versions[rank as usize] += 1;
                arm.s
                    .write(now, heat_offset(rank), &heat_block(rank, arm.versions[rank as usize]))
                    .expect("steady write");
            } else {
                arm.read_rank(rank);
            }
        }
        let now = arm.tick();
        arm.s.flush_all(now).expect("round flush");
        if let Some(target) = recompress_target {
            let now = arm.tick();
            arm.s.recompress(now, target, budget_per_shard).expect("recompress pass");
        }
    }

    // Idle window: traffic stops for several half-lives, then the
    // recompressing arm drains its backlog in budget-bounded passes —
    // the "turn idle bandwidth into space savings" half of the claim.
    arm.clock += HEAT_IDLE_GAP_NS;
    if let Some(target) = recompress_target {
        for _ in 0..16 {
            let now = arm.tick();
            let r = arm.s.recompress(now, target, budget_per_shard).expect("idle pass");
            if r.recompressed == 0 && r.demoted == 0 {
                break;
            }
        }
    }
    arm
}

/// Fully verify an arm: every rank reads back its latest version and the
/// store audits clean. Returns the arm's accumulated error count.
fn heat_verify(arm: &mut HeatArm, n_ranks: u64) -> u64 {
    for rank in 0..n_ranks {
        arm.read_rank(rank);
    }
    let audit = arm.s.verify().expect("verify audit");
    arm.errors += audit.unrecoverable;
    arm.errors
}

/// The cache lookups `f` costs `arm`: `(hits, misses)`.
fn cache_delta(arm: &mut HeatArm, f: impl FnOnce(&mut HeatArm)) -> (u64, u64) {
    let before = arm.s.stats().cache;
    f(arm);
    let after = arm.s.stats().cache;
    (after.hits - before.hits, after.misses - before.misses)
}

/// What one heat-versus-control run measured, every figure exact.
#[derive(Debug)]
struct HeatOutcome {
    /// Live stored bytes of the recompressing arm and of the control.
    live: (u64, u64),
    /// Runs the background passes rewrote with the strong codec.
    recompressed_runs: u64,
    /// Cache `(hits, misses)` of the untimed first read of the hot list,
    /// recompressing arm then control.
    first_read: [(u64, u64); 2],
    /// Cache `(hits, misses)` of the second read of the same list.
    second_read: [(u64, u64); 2],
    /// Verify errors (wrong payloads plus unrecoverable runs), both arms.
    errors: [u64; 2],
}

/// Drive the seeded Zipfian workload (θ = 0.99, seed `0xEDC_4EA7`)
/// through both arms: `rounds` × `ops_per_round` steady-state ops (one in
/// three a write) over `n_ranks` 16 KiB runs, 64 rewrites per shard per
/// pass, then read the `measure_reads`-long hot list twice in each arm.
fn heat_vs_control(
    n_ranks: u64,
    rounds: usize,
    ops_per_round: usize,
    measure_reads: usize,
) -> HeatOutcome {
    let zipf = Zipfian::new(n_ranks as usize, 0.99);
    let mut rng = Rng64::seed_from_u64(0xEDC_4EA7);
    let schedule: Vec<Vec<HeatOp>> = (0..rounds)
        .map(|_| {
            (0..ops_per_round)
                .map(|_| (zipf.sample(&mut rng) as u64, rng.chance(1.0 / 3.0)))
                .collect()
        })
        .collect();
    let measure: Vec<u64> = (0..measure_reads).map(|_| zipf.sample(&mut rng) as u64).collect();

    let target = SelectorConfig::default().strongest_codec();
    let mut arms = [Some(target), None].map(|t| heat_drive(n_ranks, &schedule, t, 64));
    let read_all = |arm: &mut HeatArm| measure.iter().for_each(|&rank| arm.read_rank(rank));
    let first_read = arms.each_mut().map(|arm| cache_delta(arm, read_all));
    let second_read = arms.each_mut().map(|arm| cache_delta(arm, read_all));
    let errors = arms.each_mut().map(|arm| heat_verify(arm, n_ranks));
    HeatOutcome {
        live: (arms[0].s.live_stored_bytes(), arms[1].s.live_stored_bytes()),
        recompressed_runs: arms[0].s.stats().recompressed_runs,
        first_read,
        second_read,
        errors,
    }
}

/// The space claim: the recompressing arm ends strictly smaller than
/// the control and rewrote something, by exactly `live` bytes (heat,
/// control) and `runs` runs.
fn assert_store_shrinks(o: &HeatOutcome, live: (u64, u64), runs: u64) {
    assert!(o.live.0 < o.live.1, "recompressing arm not strictly smaller: {o:?}");
    assert!(o.recompressed_runs > 0, "the background pass never recompressed: {o:?}");
    assert_eq!((o.live, o.recompressed_runs), (live, runs), "exact figures moved: {o:?}");
}

/// The hot-read claim as cache counts: the pass costs the hot list no
/// miss the control does not pay (exactly `first_read`), and once read,
/// every block of the list is a hit in both arms.
fn assert_hot_reads_hit(o: &HeatOutcome, measure_reads: usize, first_read: [(u64, u64); 2]) {
    let ([heat, control], all) = (o.first_read, measure_reads as u64 * HEAT_RUN_BLOCKS);
    assert!(heat.1 <= control.1, "the pass cost the hot list cache misses: {o:?}");
    assert_eq!((heat.0 + heat.1, control.0 + control.1), (all, all), "a read skipped the cache");
    assert_eq!(o.second_read, [(all, 0); 2], "a hot read missed the cache: {o:?}");
    assert_eq!(o.first_read, first_read, "exact figures moved: {o:?}");
}

mod tests {
    use super::*;
    use crate::sweep::{cut_sweep, CutScenario};
    use std::sync::OnceLock;

    /// The smoke-size run (48 ranks, 3 × 400 ops, 600 hot reads), driven
    /// once and shared by the three claims.
    fn smoke() -> &'static HeatOutcome {
        static OUTCOME: OnceLock<HeatOutcome> = OnceLock::new();
        OUTCOME.get_or_init(|| heat_vs_control(48, 3, 400, 600))
    }

    #[test]
    fn recompression_shrinks_the_store() {
        assert_store_shrinks(smoke(), (528_384, 589_824), 15);
    }

    #[test]
    fn hot_reads_stay_cache_hits_in_both_arms() {
        assert_hot_reads_hit(smoke(), 600, [(2_393, 7), (2_385, 15)]);
    }

    #[test]
    fn both_arms_read_back_their_latest_versions_and_audit_clean() {
        assert_eq!(smoke().errors, [0, 0], "verify errors");
    }

    #[test]
    #[ignore = "full size: ~1 s in release, too slow for a debug build"]
    fn heat_claims_hold_at_full_size() {
        let o = heat_vs_control(160, 8, 1500, 2500);
        assert_store_shrinks(&o, (1_462_272, 1_966_080), 214);
        assert_hot_reads_hit(&o, 2500, [(9_984, 16), (9_939, 61)]);
        assert_eq!(o.errors, [0, 0], "verify errors");
    }

    /// Power-cut sweep over a background recompression pass: fill a store,
    /// let everything cool, then cut at every page program of the pass.
    /// Every run must read back bit-exact after recovery — the pass never
    /// changes content, so there is no "old version" to accept.
    fn heat_power_cut_sweep(runs: u64) {
        let flushed_at = (runs + 1) * HEAT_CLOCK_STEP_NS;
        // Everything cools far past the threshold before the pass runs.
        let cold_at = runs * HEAT_CLOCK_STEP_NS + 400 * HEAT_HALF_LIFE_NS;
        let scenario = CutScenario {
            make: &|| EdcPipeline::new(8 << 20, heat_pipeline_config()),
            prepare: &|p| {
                for rank in 0..runs {
                    let now = (rank + 1) * HEAT_CLOCK_STEP_NS;
                    p.write(now, heat_offset(rank), &heat_block(rank, 0)).expect("sweep write");
                }
                p.flush_all(flushed_at).expect("sweep flush");
            },
            drive: &|p| p.recompress_pass(cold_at, CodecId::Deflate, usize::MAX).map(|_| ()),
            count_lost: &|p| {
                let mut lost = 0;
                for rank in 0..runs {
                    match p.read(1 << 40, heat_offset(rank), HEAT_RUN_BLOCKS * 4096) {
                        Ok(got) if got == heat_block(rank, 0) => {}
                        _ => lost += 1,
                    }
                }
                (runs - lost, lost)
            },
        };
        let what = format!("recompression pass over {runs} runs");
        cut_sweep(&what, &scenario).0.assert_zero_loss(&what);
    }

    #[test]
    fn power_cut_anywhere_in_a_recompression_pass_loses_nothing() {
        heat_power_cut_sweep(6);
        heat_power_cut_sweep(16);
    }
}
