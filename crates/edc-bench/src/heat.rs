//! `bench-heat`: heat-aware background recompression against a control
//! arm that never runs the pass — space, hot-read p99, and a power-cut
//! sweep across the pass.

use crate::content::acgt_run;
use crate::harness::percentile;
use crate::sweep::{cut_sweep, CutScenario, SweepReport};
use crate::{CmdResult, Harness};
use edc_compress::CodecId;
use edc_core::pipeline::{EdcPipeline, PipelineConfig};
use edc_core::{SelectorConfig, ShardConfig, ShardedPipeline, TieredSeries};
use std::path::Path;
use std::time::Instant;

/// Blocks per run in the heat bench (16 KiB runs).
const HEAT_RUN_BLOCKS: u64 = 4;
/// Block slots between consecutive runs; the gap keeps the
/// sequentiality detector from merging neighbouring ranks and matches
/// the sharded front-end's extent size.
const HEAT_SLOT_BLOCKS: u64 = 8;
/// Simulated-clock step per op: 2 ms/op at 4 pages per op ≈ 2000
/// calculated IOPS — squarely in the paper ladder's middle (Lzf) band,
/// leaving the strongest rung as background-recompression headroom.
const HEAT_CLOCK_STEP_NS: u64 = 2_000_000;
/// Heat half-life used by the bench: one simulated second, so a round of
/// steady-state traffic is several half-lives and the untouched tail
/// genuinely cools.
const HEAT_HALF_LIFE_NS: u64 = 1_000_000_000;
/// Simulated idle window after the steady-state rounds: long enough for
/// the cold tail (and the mid-popularity middle) to decay below the cold
/// threshold while the hot head — orders of magnitude hotter — stays hot.
/// This is the idle bandwidth the background pass converts into space.
const HEAT_IDLE_GAP_NS: u64 = 3 * HEAT_HALF_LIFE_NS;

/// Compressible low-entropy payload unique to `(rank, version)`:
/// 4-symbol content that Lzf compresses modestly and Deflate much
/// better, so background recompression has headroom that survives the
/// quantized allocator.
pub(crate) fn heat_block(rank: u64, version: u64) -> Vec<u8> {
    acgt_run(rank.wrapping_mul(1_000_003).wrapping_add(version), (HEAT_RUN_BLOCKS * 4096) as usize)
}

/// Device offset of a rank's run.
fn heat_offset(rank: u64) -> u64 {
    rank * HEAT_SLOT_BLOCKS * 4096
}

/// One steady-state op in the heat bench: `(rank, is_write)`.
type HeatOp = (u64, bool);

/// The heat bench's write-path config: the ladder is pinned to its
/// sustained-load rung (Lzf), which is what the elastic selector picks
/// under the bench's steady 2000-IOPS traffic — and the regime in which
/// recompression debt accumulates. The background pass upgrades whatever
/// of it goes cold to the strong codec; the control arm is the identical
/// write path with the pass never run (the "static ladder" outcome).
pub(crate) fn heat_pipeline_config() -> PipelineConfig {
    PipelineConfig {
        selector: SelectorConfig {
            rungs: vec![edc_core::LadderRung { max_calc_iops: f64::INFINITY, codec: CodecId::Lzf }],
        },
        // Cache sized past the working set: hot reads must be hits in
        // BOTH arms, so the p99 gate isolates the cost of the background
        // pass rather than cache sizing.
        cache_runs: 512,
        heat: edc_core::HeatConfig {
            enabled: true,
            half_life_ns: HEAT_HALF_LIFE_NS,
            ..edc_core::HeatConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// Steady-state ops between telemetry samples in the heat bench. Coarse
/// enough that `stats()` (which locks every shard) stays off the hot
/// path, fine enough that a full run pushes a few hundred points through
/// the tiered ring.
const HEAT_SAMPLE_EVERY_OPS: usize = 50;

/// One driven arm of the heat bench, ready for latency measurement.
struct HeatArm {
    s: ShardedPipeline,
    versions: Vec<u64>,
    clock: u64,
    errors: u64,
    /// Live stored bytes over simulated time, tier-decimated so a soak
    /// run's full trajectory fits in O(log n) points.
    live_series: TieredSeries,
    /// Fleet-wide cache hit rate over simulated time, same decimation.
    hit_series: TieredSeries,
}

impl HeatArm {
    fn tick(&mut self) -> u64 {
        self.clock += HEAT_CLOCK_STEP_NS;
        self.clock
    }

    /// Push one telemetry sample at the current simulated time.
    fn sample_telemetry(&mut self) {
        let live = self.s.live_stored_bytes();
        let hit = self.s.stats().cache.hit_rate();
        self.live_series.push(self.clock, live as f64);
        self.hit_series.push(self.clock, hit);
    }

    /// Read one rank, verifying content; returns the wall-clock ns spent
    /// in the read call itself.
    fn timed_read(&mut self, rank: u64) -> u64 {
        let now = self.tick();
        let t0 = Instant::now();
        let got =
            self.s.read(now, heat_offset(rank), HEAT_RUN_BLOCKS * 4096).expect("measured read");
        let dt = t0.elapsed().as_nanos() as u64;
        if got != heat_block(rank, self.versions[rank as usize]) {
            self.errors += 1;
        }
        dt
    }
}

/// Drive one arm of the heat bench: fill every rank, replay the shared
/// steady-state schedule, recompressing after each round when
/// `recompress_target` is set. Both arms see byte-identical traffic —
/// the only difference is the background pass.
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
    let mut arm = HeatArm {
        s,
        versions: vec![0u64; n_ranks as usize],
        clock: 0,
        errors: 0,
        live_series: TieredSeries::new(32, 4),
        hit_series: TieredSeries::new(32, 4),
    };

    for rank in 0..n_ranks {
        let now = arm.tick();
        arm.s.write(now, heat_offset(rank), &heat_block(rank, 0)).expect("fill write");
    }
    let now = arm.tick();
    arm.s.flush_all(now).expect("fill flush");
    arm.sample_telemetry();

    let mut ops_since_sample = 0usize;
    for round in schedule {
        for &(rank, is_write) in round {
            let now = arm.tick();
            ops_since_sample += 1;
            if ops_since_sample >= HEAT_SAMPLE_EVERY_OPS {
                ops_since_sample = 0;
                arm.sample_telemetry();
            }
            if is_write {
                arm.versions[rank as usize] += 1;
                arm.s
                    .write(now, heat_offset(rank), &heat_block(rank, arm.versions[rank as usize]))
                    .expect("steady write");
            } else {
                let got = arm
                    .s
                    .read(now, heat_offset(rank), HEAT_RUN_BLOCKS * 4096)
                    .expect("steady read");
                if got != heat_block(rank, arm.versions[rank as usize]) {
                    arm.errors += 1;
                }
            }
        }
        let now = arm.tick();
        arm.s.flush_all(now).expect("round flush");
        if let Some(target) = recompress_target {
            let now = arm.tick();
            arm.s.recompress(now, target, budget_per_shard).expect("recompress pass");
        }
        arm.sample_telemetry();
    }

    // Idle window: traffic stops for several half-lives, then the
    // recompressing arm drains its backlog in budget-bounded passes —
    // the "turn idle bandwidth into space savings" half of the claim.
    arm.clock += HEAT_IDLE_GAP_NS;
    if let Some(target) = recompress_target {
        for _ in 0..16 {
            let now = arm.tick();
            let r = arm.s.recompress(now, target, budget_per_shard).expect("idle pass");
            arm.sample_telemetry();
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
        let now = arm.tick();
        let got = arm.s.read(now, heat_offset(rank), HEAT_RUN_BLOCKS * 4096).expect("verify read");
        if got != heat_block(rank, arm.versions[rank as usize]) {
            arm.errors += 1;
        }
    }
    let audit = arm.s.verify().expect("verify audit");
    arm.errors += audit.unrecoverable;
    arm.errors
}
/// Power-cut sweep over a background recompression pass: fill a store,
/// let everything cool, then cut at every page program of the pass.
/// Every run must read back bit-exact after recovery — the pass never
/// changes content, so there is no "old version" to accept.
fn heat_power_cut_sweep(smoke: bool) -> SweepReport {
    let runs: u64 = if smoke { 6 } else { 16 };
    let flushed_at = (runs + 1) * HEAT_CLOCK_STEP_NS;
    // Everything cools far past the threshold before the pass runs.
    let cold_at = runs * HEAT_CLOCK_STEP_NS + 400 * HEAT_HALF_LIFE_NS;
    let scenario = CutScenario {
        make: &|| EdcPipeline::new(8 << 20, heat_pipeline_config()),
        prepare: &|p| {
            for rank in 0..runs {
                p.write((rank + 1) * HEAT_CLOCK_STEP_NS, heat_offset(rank), &heat_block(rank, 0))
                    .expect("sweep write");
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
    cut_sweep("recompression pass", &scenario).0
}

/// Heat-aware background recompression benchmark: a seeded Zipfian
/// steady-state workload driven through two byte-identical sharded
/// pipelines — one running `recompress` after every round, one never —
/// gated on the recompressing arm ending with a strictly smaller live
/// footprint AND hot-read p99 within 5% of the control, plus a power-cut
/// sweep across the pass proving zero journaled-run data loss. Writes
/// `BENCH_heat.json`; fails on any gate violation.
pub fn run(smoke: bool, out_dir: &Path) -> CmdResult {
    use edc_datagen::{Rng64, Zipfian};
    let n_ranks: u64 = if smoke { 48 } else { 160 };
    let rounds: usize = if smoke { 3 } else { 8 };
    let ops_per_round: usize = if smoke { 400 } else { 1500 };
    let measure_reads: usize = if smoke { 600 } else { 2500 };
    let budget_per_shard: usize = 64;
    let theta = 0.99;

    let mut h = Harness::new("heat", 1);
    let mut failures = 0u64;
    h.metric("ranks", n_ranks as f64);
    h.metric("rounds", rounds as f64);
    h.metric("ops_per_round", ops_per_round as f64);
    h.metric("zipf_theta", theta);
    if smoke {
        h.note("smoke run: reduced workload; absolute numbers are not comparable to full runs");
    }

    // Shared schedule: both arms replay the identical op sequence, so the
    // only difference between them is the background pass.
    let zipf = Zipfian::new(n_ranks as usize, theta);
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
    eprintln!(
        "# heat bench: {n_ranks} ranks x {rounds} rounds x {ops_per_round} ops, \
         recompression target {target:?}"
    );
    let mut heat = heat_drive(n_ranks, &schedule, Some(target), budget_per_shard);
    let mut control = heat_drive(n_ranks, &schedule, None, budget_per_shard);

    // Interleaved latency measurement: alternating the arms read-by-read
    // cancels machine drift (thermal, page cache) that a
    // one-arm-then-the-other protocol would attribute to whichever arm
    // ran second. One untimed warm-up pass each, then the timed reads.
    for &rank in &measure {
        heat.timed_read(rank);
        control.timed_read(rank);
    }
    let mut heat_lat = Vec::with_capacity(measure.len());
    let mut control_lat = Vec::with_capacity(measure.len());
    for (i, &rank) in measure.iter().enumerate() {
        // Swap which arm goes first every iteration: going first or
        // second in a pair has its own micro-cost, and it must not load
        // onto one arm systematically.
        if i % 2 == 0 {
            heat_lat.push(heat.timed_read(rank));
            control_lat.push(control.timed_read(rank));
        } else {
            control_lat.push(control.timed_read(rank));
            heat_lat.push(heat.timed_read(rank));
        }
    }
    let (heat_p50, heat_p99) = (percentile(&mut heat_lat, 50), percentile(&mut heat_lat, 99));
    let (control_p50, control_p99) =
        (percentile(&mut control_lat, 50), percentile(&mut control_lat, 99));

    let heat_errors = heat_verify(&mut heat, n_ranks);
    let control_errors = heat_verify(&mut control, n_ranks);
    failures += heat_errors + control_errors;
    if heat_errors + control_errors > 0 {
        eprintln!(
            "# FAIL: {heat_errors} heat-arm and {control_errors} control-arm verification \
             error(s)"
        );
    }

    let heat_live = heat.s.live_stored_bytes();
    let control_live = control.s.live_stored_bytes();
    let stats = heat.s.stats();
    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    let saving = 1.0 - heat_live as f64 / control_live.max(1) as f64;
    h.metric("heat_live_mib", mib(heat_live));
    h.metric("control_live_mib", mib(control_live));
    h.metric("space_saving_pct", saving * 100.0);
    h.metric("recompressed_runs", stats.recompressed_runs as f64);
    h.metric("demoted_runs", stats.demoted_runs as f64);
    h.metric("heat_read_p50_us", heat_p50 as f64 / 1e3);
    h.metric("heat_read_p99_us", heat_p99 as f64 / 1e3);
    h.metric("control_read_p50_us", control_p50 as f64 / 1e3);
    h.metric("control_read_p99_us", control_p99 as f64 / 1e3);
    let p99_ratio = heat_p99 as f64 / control_p99.max(1) as f64;
    h.metric("p99_ratio_heat_vs_control", p99_ratio);

    // Trajectory series: how each arm's live footprint (and the heat
    // arm's cache hit rate) moved over simulated time, tier-decimated by
    // `TieredSeries` so even a full soak run emits O(log n) points while
    // keeping the newest region at full resolution.
    let pts =
        |s: &TieredSeries| s.samples().into_iter().map(|p| (p.t_ns, p.value)).collect::<Vec<_>>();
    h.metric("telemetry_pushed", heat.live_series.pushed() as f64);
    h.metric("telemetry_retained", heat.live_series.len() as f64);
    h.metric("telemetry_tiers", heat.live_series.tier_count() as f64);
    h.series("heat_live_bytes", pts(&heat.live_series));
    h.series("control_live_bytes", pts(&control.live_series));
    h.series("heat_cache_hit_rate", pts(&heat.hit_series));
    eprintln!(
        "# space: heat {:.2} MiB vs control {:.2} MiB ({:.1}% saved, {} runs recompressed, \
         {} demoted)",
        mib(heat_live),
        mib(control_live),
        saving * 100.0,
        stats.recompressed_runs,
        stats.demoted_runs
    );
    eprintln!(
        "# read p99: heat {:.1} µs vs control {:.1} µs ({p99_ratio:.3}x)",
        heat_p99 as f64 / 1e3,
        control_p99 as f64 / 1e3
    );
    // Gate 1: the whole point — strictly better space than the static
    // ladder left alone.
    if heat_live >= control_live {
        eprintln!("# FAIL: recompressing arm did not end with a strictly smaller footprint");
        failures += 1;
    }
    if stats.recompressed_runs == 0 {
        eprintln!("# FAIL: the background pass never recompressed anything");
        failures += 1;
    }
    // Gate 2: hot reads must not pay for it (5% p99 budget; a smoke
    // run's two ~5 µs arms are too short to resolve 5%, so it only
    // catches a gross regression).
    let p99_budget = if smoke { 1.5 } else { 1.05 };
    if p99_ratio > p99_budget {
        eprintln!("# FAIL: hot-read p99 regressed {p99_ratio:.3}x (budget {p99_budget}x)");
        failures += 1;
    }

    // Timed pass over a fully cold store.
    let cold_runs: u64 = if smoke { 16 } else { 64 };
    h.run_prepared(
        "recompress_cold_store",
        Some(cold_runs * HEAT_RUN_BLOCKS * 4096),
        || {
            let mut p = EdcPipeline::new(64 << 20, heat_pipeline_config());
            let mut clock = 0u64;
            for rank in 0..cold_runs {
                clock += HEAT_CLOCK_STEP_NS;
                p.write(clock, heat_offset(rank), &heat_block(rank, 0)).expect("cold write");
            }
            p.flush_all(clock + HEAT_CLOCK_STEP_NS).expect("cold flush");
            (p, clock + 400 * HEAT_HALF_LIFE_NS)
        },
        |(mut p, now)| {
            let r = p.recompress_pass(now, target, usize::MAX).expect("timed pass");
            (r.recompressed, p)
        },
    );

    // Gate 3: a power cut anywhere inside the pass loses nothing.
    let sweep = heat_power_cut_sweep(smoke);
    h.metric("power_cut_points", sweep.cut_points as f64);
    h.metric("power_cut_lost_blocks", sweep.lost as f64);
    h.metric("power_cut_payload_mismatches", sweep.payload_mismatches as f64);
    eprintln!(
        "# power-cut sweep: {} cut points across the pass, {} lost block(s), {} payload \
         mismatch(es)",
        sweep.cut_points, sweep.lost, sweep.payload_mismatches
    );
    if sweep.violations() > 0 {
        eprintln!("# FAIL: power-cut sweep across the recompression pass lost data");
        failures += sweep.violations();
    }

    h.finish(out_dir, failures)?;
    eprintln!(
        "# heat bench passed: {:.1}% space saved at {p99_ratio:.3}x p99, zero data loss \
         across {} mid-pass power cuts",
        saving * 100.0,
        sweep.cut_points
    );
    Ok(())
}
