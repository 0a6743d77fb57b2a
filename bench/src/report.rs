//! From tallies to named metrics: the end-to-end values of the untraced run,
//! the per-layer values and the budget of the traced run, host facts, and
//! the text and JSON they are printed as.

use crate::hist::Hist;
use crate::json::{obj, Json};
use crate::scenario::{Lane, Outcome, RoundStat, Tally};
use crate::spec::{Better, END_TO_END, FAILED_OPS_SHARE, PER_LAYER};
use crate::trace::{Name, OpKind, Tracer};

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
}

/// Median of the finite `values` (0 when there are none).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
}

/// What a run reports for a quantity it measured several times (once per
/// round, per recovery, per pass): the best repeat — the shortest time, the
/// highest rate. Disturbances on this kind of host are one-sided: bursts of
/// a second or so, and episodes of minutes, that slow everything by 15–40 %
/// and never speed anything up. Over ten runs of one workload the best round
/// spread half as widely as the lower quartile of the rounds and a third as
/// widely as their median, because one clean round in a run is enough for it.
/// Rounds are long enough (thousands of ops, a third of a second and up)
/// that what a change does within a round still shows in the round's own
/// percentiles.
pub fn best(values: &[f64], better: Better) -> f64 {
    let finite = values.iter().copied().filter(|x| x.is_finite());
    match better {
        Better::Lower => finite.reduce(f64::min),
        Better::Higher => finite.reduce(f64::max),
    }
    .unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Start `VmHWM` afresh, so that in a run of several workloads each one
/// reports its own peak. Where the kernel refuses, the peak stays cumulative.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since the last reset (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Throughput and percentiles of one direction of traffic: per round, then
/// `best` over the rounds that carried it.
pub struct LaneSummary {
    /// Which rounds the lane was taken from.
    pub source: &'static str,
    pub per_s: f64,
    pub mib_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: u64,
    /// Highest percentile with at least ten samples beyond it.
    pub top: Option<(f64, f64)>,
}

fn summarize(
    source: &'static str,
    rounds: &[RoundStat],
    lane: impl Fn(&RoundStat) -> Lane,
) -> LaneSummary {
    let lanes: Vec<(Lane, u64)> = rounds
        .iter()
        .map(|r| (lane(r), r.busy_ns))
        .filter(|(l, _)| l.hist.count() > 0)
        .collect();
    let secs = |busy: u64| busy as f64 / 1e9;
    let mut all = Hist::new();
    lanes.iter().for_each(|(l, _)| all.merge(&l.hist));
    let over_rounds = |better: Better, f: &dyn Fn(&(Lane, u64)) -> f64| {
        best(&lanes.iter().map(f).collect::<Vec<_>>(), better)
    };
    LaneSummary {
        source,
        per_s: over_rounds(Better::Higher, &|(l, busy)| {
            ratio(l.hist.count() as f64, secs(*busy))
        }),
        mib_s: over_rounds(Better::Higher, &|(l, busy)| {
            ratio(l.bytes as f64 / (1u64 << 20) as f64, secs(*busy))
        }),
        p50_us: over_rounds(Better::Lower, &|(l, _)| l.hist.percentile(0.5) / 1e3),
        p99_us: over_rounds(Better::Lower, &|(l, _)| l.hist.percentile(0.99) / 1e3),
        samples: all.count(),
        top: all.highest_supported().map(|(p, v)| (p, v / 1e3)),
    }
}

fn both(r: &RoundStat) -> Lane {
    let mut l = r.write.clone();
    l.hist.merge(&r.read.hist);
    l.bytes += r.read.bytes;
    l
}

pub struct Lanes {
    pub write: LaneSummary,
    pub read: LaneSummary,
    pub op: LaneSummary,
}

/// Writes come from the measured rounds when those write, else from the
/// prefill each set-up did; reads from the rounds when those read, else
/// from the post-recovery read-back scans.
pub fn lanes(t: &Tally) -> Lanes {
    let any = |f: fn(&RoundStat) -> u64| t.rounds.iter().any(|r| f(r) > 0);
    let write = if any(|r| r.write.hist.count()) {
        summarize("rounds", &t.rounds, |r| r.write.clone())
    } else {
        summarize("prefill", &t.prefills, |r| r.write.clone())
    };
    let read = if any(|r| r.read.hist.count()) {
        summarize("rounds", &t.rounds, |r| r.read.clone())
    } else {
        summarize("scans", &t.scans, |r| r.read.clone())
    };
    Lanes {
        write,
        read,
        op: summarize("rounds", &t.rounds, both),
    }
}

/// The end-to-end metrics: the fifteen of `spec::END_TO_END`, in that order,
/// then `failed_ops_share` (see `spec::FAILED_OPS_SHARE`).
pub fn end_to_end(t: &Tally, l: &Lanes) -> Vec<Metric> {
    let value = |name: &str| match name {
        "setup_s" => median(&t.setup_s),
        "write_mib_s" => l.write.mib_s,
        "write_p50_us" => l.write.p50_us,
        "write_p99_us" => l.write.p99_us,
        "read_mib_s" => l.read.mib_s,
        "read_p50_us" => l.read.p50_us,
        "read_p99_us" => l.read.p99_us,
        "ops_per_s" => l.op.per_s,
        "op_p50_us" => l.op.p50_us,
        "op_p99_us" => l.op.p99_us,
        "stored_per_logical" => t.stored_per_logical,
        "flash_written_per_logical" => t.flash_written_per_logical,
        "recover_ms" => best(&t.recover_ms, Better::Lower),
        "bg_pass_ms" => best(&t.bg_pass_ms, Better::Lower),
        "peak_rss_mib" => peak_rss_mib(),
        other => unreachable!("no rule for end-to-end metric {other}"),
    };
    END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: value(m.name),
            unit: m.unit,
            better: m.better,
        })
        .chain([failed_ops_share(t.attempted, t.failed)])
        .collect()
}

fn failed_ops_share(attempted: u64, failed: u64) -> Metric {
    let m = &FAILED_OPS_SHARE;
    Metric {
        name: m.name,
        value: ratio(failed as f64, attempted as f64),
        unit: m.unit,
        better: m.better,
    }
}

/// The traced run of one workload: the same stream along every route, the
/// routes taking turns round by round so their walls can be subtracted.
pub struct TracedRun {
    /// The workload's front-end, no spans: counts and the overhead baseline.
    pub untraced: Outcome,
    /// The workload's front-end with spans around the driver's calls.
    pub front: Outcome,
    /// Blocking `ShardedPipeline`, when the front-end is the ring.
    pub shard: Option<Outcome>,
    /// Straight into the shard pipelines, when the front-end is not the
    /// pipeline itself (otherwise `front` is this route).
    pub pipeline: Option<Outcome>,
    /// Straight into the pipelines with the layer shadow replaying every op.
    pub shadowed: Outcome,
}

impl TracedRun {
    pub fn outcomes(&self) -> impl Iterator<Item = &Outcome> {
        [
            Some(&self.untraced),
            Some(&self.front),
            self.shard.as_ref(),
            self.pipeline.as_ref(),
            Some(&self.shadowed),
        ]
        .into_iter()
        .flatten()
    }
}

/// Busy nanoseconds per op, round by round.
fn walls(rounds: &[RoundStat]) -> Vec<f64> {
    rounds
        .iter()
        .map(|r| ratio(r.busy_ns as f64, r.ops() as f64))
        .collect()
}

/// Median over rounds of `f(a_r, b_r)`: the routes ran each round back to
/// back, so the pairing cancels whatever the machine was doing then.
fn paired(a: &Outcome, b: &Outcome, f: impl Fn(f64, f64) -> f64) -> f64 {
    median(
        &walls(&a.tally.rounds)
            .iter()
            .zip(walls(&b.tally.rounds))
            .map(|(&x, y)| f(x, y))
            .collect::<Vec<_>>(),
    )
}

/// One side (writes or reads) of the pipeline budget: the pipeline call's
/// span on the shadowed route, the shadow leaves under it, and what they
/// leave unattributed — per op, so that leaves + unattributed = span.
pub struct Side {
    pub ops: u64,
    pub span_ns: f64,
    pub leaves: Vec<(&'static str, f64)>,
    pub unattributed_ns: f64,
}

fn side(tr: &Tracer, span: Name, kind: OpKind) -> Side {
    let a = tr.agg_kind(span, kind);
    let per_op = |ns: f64| ratio(ns, a.count as f64);
    let leaves: Vec<(&'static str, f64)> = tr
        .leaves(kind)
        .into_iter()
        .map(|(n, ns)| (n, per_op(ns)))
        .collect();
    let span_ns = per_op(a.total_ns as f64);
    let attributed: f64 = leaves.iter().map(|(_, ns)| ns).sum();
    Side {
        ops: a.count,
        span_ns,
        unattributed_ns: span_ns - attributed,
        leaves,
    }
}

/// Where a front-end op's time goes, outside in: each layer's own cost is
/// the paired difference between two routes' walls, and the three lines add
/// up to `front_ns_per_op` (which the measured front-end wall should match).
pub struct Budget {
    pub front: &'static str,
    pub front_ns_per_op: f64,
    pub front_measured_ns_per_op: f64,
    pub ring_self_ns_per_op: f64,
    pub shard_self_ns_per_op: f64,
    pub pipeline_ns_per_op: f64,
    /// Shadowed route's wall over the clean pipeline route's: how much the
    /// shadow's own work between calls slows the calls it attributes.
    pub shadow_inflation: f64,
    pub write: Side,
    pub read: Side,
}

pub fn budget(front: &'static str, run: &TracedRun) -> Budget {
    let tr = run
        .shadowed
        .tracer
        .as_ref()
        .expect("the shadowed route is traced");
    let pipeline = run.pipeline.as_ref().unwrap_or(&run.front);
    // ring -> shard -> pipeline; a layer the workload does not have costs 0.
    let below_ring = run.shard.as_ref().unwrap_or(&run.front);
    let ring_self = run
        .shard
        .as_ref()
        .map_or(0.0, |s| paired(&run.front, s, |f, s| f - s));
    let shard_self = run
        .pipeline
        .as_ref()
        .map_or(0.0, |p| paired(below_ring, p, |s, p| s - p));
    let pipeline_ns = median(&walls(&pipeline.tally.rounds));
    Budget {
        front,
        front_ns_per_op: ring_self + shard_self + pipeline_ns,
        front_measured_ns_per_op: median(&walls(&run.front.tally.rounds)),
        ring_self_ns_per_op: ring_self,
        shard_self_ns_per_op: shard_self,
        pipeline_ns_per_op: pipeline_ns,
        shadow_inflation: paired(&run.shadowed, pipeline, ratio),
        write: side(tr, Name::PipeWrite, OpKind::Write),
        read: side(tr, Name::PipeRead, OpKind::Read),
    }
}

/// Mean span of a driver-timed call on a route (0 when it never ran).
fn span_per_call(o: &Outcome, name: Name, kind: OpKind) -> f64 {
    let a = o
        .tracer
        .as_ref()
        .map(|t| t.agg_kind(name, kind))
        .unwrap_or_default();
    ratio(a.total_ns as f64, a.count as f64)
}

/// The per-layer metrics, in `spec::PER_LAYER` order.
pub fn per_layer(run: &TracedRun, b: &Budget) -> Vec<Metric> {
    let direct = &run.shadowed;
    let pipeline = run.pipeline.as_ref().unwrap_or(&run.front);
    let tr = direct
        .tracer
        .as_ref()
        .expect("the shadowed route is traced");
    let ftr = run
        .front
        .tracer
        .as_ref()
        .expect("the front-end route is traced");
    let u = &run.untraced.tally;
    let (c, runs) = (&u.counts, &u.runs);
    let kops = c.ops as f64 / 1e3;
    let ring = u.ring.unwrap_or_default();
    let kib = |name: Name| tr.per_unit(name) * 1024.0;
    let share = |side: &Side| ratio(side.unattributed_ns, side.span_ns);
    let passes = u.passes.len() as f64;
    let pass_sum =
        |f: fn(&edc::core::RecompressReport) -> u64| u.passes.iter().map(f).sum::<u64>() as f64;
    let (attempted, failed) = run.outcomes().fold((0, 0), |(a, f), o| {
        (a + o.tally.attempted, f + o.tally.failed)
    });
    let fid = direct.fidelity;
    let value = |name: &str| match name {
        "ring.submit_ns_per_op" => ftr.per_call(Name::RingSubmit),
        "ring.wait_ns_per_op" => ratio(
            ftr.net_ns(Name::RingWait),
            ftr.agg(Name::RingSubmit).count as f64,
        ),
        "ring.self_ns_per_op" => b.ring_self_ns_per_op,
        "ring.drained_batches_per_kop" => {
            ratio(ring.drained_batches as f64, ring.completed as f64 / 1e3)
        }
        "ring.coalesced_write_share" => ratio(ring.coalesced_writes as f64, ring.completed as f64),
        "ring.max_batch" => ring.max_batch as f64,
        "ring.rejected_full" => ring.rejected_full as f64,
        "shard.self_ns_per_op" => b.shard_self_ns_per_op,
        "shard.split_ops_share" => ratio(c.split_ops as f64, c.ops as f64),
        "pipeline.write_ns_per_op" => span_per_call(pipeline, Name::PipeWrite, OpKind::Write),
        "pipeline.read_ns_per_op" => span_per_call(pipeline, Name::PipeRead, OpKind::Read),
        "pipeline.flush_ns_per_run" => {
            ratio(direct.tally.flush_ns as f64, direct.tally.flush_runs as f64)
        }
        "pipeline.unattributed_write_share" => share(&b.write),
        "pipeline.unattributed_read_share" => share(&b.read),
        "pipeline.copyout_ns_per_kib" => kib(Name::CopyOut),
        "pipeline.programs_per_kop" => ratio(c.stats.programs as f64, kops),
        "monitor.ns_per_call" => tr.per_call(Name::Monitor),
        "selector.ns_per_call" => tr.per_call(Name::Selector),
        "selector.bytes_share_none" => ratio(runs.blocks_none as f64, runs.blocks as f64),
        "selector.bytes_share_lzf" => ratio(runs.blocks_lzf as f64, runs.blocks as f64),
        "selector.bytes_share_deflate" => ratio(runs.blocks_deflate as f64, runs.blocks as f64),
        "sd.ns_per_call" => tr.per_call(Name::Sd),
        "sd.blocks_per_run" => ratio(runs.blocks as f64, runs.runs as f64),
        "sd.runs_per_kop" => ratio(runs.runs as f64, runs.write_calls as f64 / 1e3),
        "estimator.ns_per_kib" => kib(Name::Estimator),
        "estimator.write_through_share" => ratio(
            direct.est_write_through_bytes as f64,
            direct.est_bytes as f64,
        ),
        "lzf.enc_ns_per_kib" => kib(Name::LzfEnc),
        "lzf.dec_ns_per_kib" => kib(Name::LzfDec),
        "lzf.ratio" => ratio(runs.lzf_raw as f64, runs.lzf_payload as f64),
        "deflate.enc_ns_per_kib" => kib(Name::DeflateEnc),
        "deflate.dec_ns_per_kib" => kib(Name::DeflateDec),
        "deflate.ratio" => ratio(runs.deflate_raw as f64, runs.deflate_payload as f64),
        "checksum.ns_per_kib" => kib(Name::Checksum),
        "dedup.chunk_hash_ns_per_kib" => kib(Name::DedupChunkHash),
        "dedup.hit_share" => ratio(c.stats.dedup_hits as f64, c.stats.journal_records as f64),
        "dedup.elided_bytes_share" => ratio(
            c.stats.dedup_elided_bytes as f64,
            c.stats.logical_written as f64,
        ),
        "allocator.ns_per_place" => tr.per_call(Name::Allocator),
        "allocator.internal_frag_share" => ratio(
            c.alloc.internal_frag_bytes as f64,
            c.alloc.allocated_bytes as f64,
        ),
        "allocator.quantum_change_share" => {
            ratio(c.alloc.quantum_changes as f64, c.alloc.placements as f64)
        }
        "slots.ns_per_alloc_release" => tr.per_unit(Name::Slots),
        "mapping.get_ns_per_block" => tr.per_unit(Name::MapGet),
        "mapping.insert_ns_per_run" => tr.per_unit(Name::MapInsert),
        "mapping.mapped_blocks" => c.mapped_blocks as f64,
        "journal.append_ns_per_record" => tr.per_unit(Name::JournalAppend),
        "journal.replay_ns_per_record" => tr.per_unit(Name::JournalReplay),
        "journal.bytes_per_op" => ratio(c.stats.journal_bytes as f64, c.ops as f64),
        "journal.records_per_kop" => ratio(c.stats.journal_records as f64, kops),
        "cache.lookup_ns" => tr.per_call(Name::CacheLookup),
        "cache.insert_ns" => tr.per_call(Name::CacheInsert),
        "cache.hit_rate" => ratio(
            c.stats.cache.hits as f64,
            (c.stats.cache.hits + c.stats.cache.misses) as f64,
        ),
        "cache.evictions_per_kop" => ratio(c.stats.cache.evictions as f64, kops),
        "cache.invalidations_per_kop" => ratio(c.stats.cache.invalidations as f64, kops),
        "heat.record_ns_per_call" => tr.per_call(Name::Heat),
        "heat.recompressed_runs_per_pass" => ratio(pass_sum(|p| p.recompressed), passes),
        "heat.scanned_per_pass" => ratio(pass_sum(|p| p.scanned), passes),
        "heat.bytes_reclaimed_share" => {
            ratio(pass_sum(|p| p.bytes_reclaimed), u.live_before_passes as f64)
        }
        "trace.overhead_share" => paired(&run.front, &run.untraced, ratio) - 1.0,
        "trace.shadow_fidelity" => ratio(fid.agreed as f64, fid.checked as f64),
        "failed_ops_share" => failed_ops_share(attempted, failed).value,
        other => unreachable!("no rule for per-layer metric {other}"),
    };
    PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: value(m.name),
            unit: m.unit,
            better: m.better,
        })
        .collect()
}

pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    obj([("value", m.value.into()), ("unit", m.unit.into())]),
                )
            })
            .collect(),
    )
}

/// The line the driver reads: last on standard output.
pub fn contract_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    obj([
        ("correct", (failed == 0).into()),
        ("attempted", attempted.max(1).into()),
        ("failed", failed.into()),
        ("metrics", metrics_json(metrics)),
    ])
    .line()
}

fn lane_json(l: &LaneSummary) -> Json {
    let top = match l.top {
        Some((p, v)) => obj([("p", p.into()), ("us", v.into())]),
        None => Json::Null,
    };
    obj([
        ("from", l.source.into()),
        ("samples", l.samples.into()),
        ("per_s", l.per_s.into()),
        ("mib_s", l.mib_s.into()),
        ("p50_us", l.p50_us.into()),
        ("p99_us", l.p99_us.into()),
        ("highest_supported", top),
    ])
}

pub fn lanes_json(l: &Lanes) -> Json {
    obj([
        ("write", lane_json(&l.write)),
        ("read", lane_json(&l.read)),
        ("op", lane_json(&l.op)),
    ])
}

fn round_percentiles(rounds: &[RoundStat], p: f64) -> Vec<f64> {
    rounds
        .iter()
        .map(|r| both(r).hist.percentile(p) / 1e3)
        .collect()
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| v.into()).collect())
}

pub fn op_counts_json(t: &Tally) -> Json {
    let sum = |rs: &[RoundStat]| rs.iter().map(RoundStat::ops).sum::<u64>();
    obj([
        ("setups", (t.setup_s.len() as u64).into()),
        (
            "prefill_ops_per_setup",
            t.prefills.last().map_or(0, RoundStat::ops).into(),
        ),
        ("rounds", (t.rounds.len() as u64).into()),
        ("measured_ops", sum(&t.rounds).into()),
        ("scans", (t.scans.len() as u64).into()),
        ("scan_ops", sum(&t.scans).into()),
        ("recoveries", (t.recover_ms.len() as u64).into()),
        ("recompress_passes", (t.bg_pass_ms.len() as u64).into()),
        ("round_ns_per_op", nums(&walls(&t.rounds))),
        ("round_op_p50_us", nums(&round_percentiles(&t.rounds, 0.5))),
        ("round_op_p99_us", nums(&round_percentiles(&t.rounds, 0.99))),
        ("pass_ms", nums(&t.bg_pass_ms)),
        ("recover_ms", nums(&t.recover_ms)),
        ("setup_s", nums(&t.setup_s)),
        ("attempted", t.attempted.into()),
        ("failed", t.failed.into()),
    ])
}

fn side_json(s: &Side) -> Json {
    obj([
        ("ops", s.ops.into()),
        ("span_ns_per_op", s.span_ns.into()),
        (
            "leaves_ns_per_op",
            Json::Obj(
                s.leaves
                    .iter()
                    .map(|(n, v)| (n.to_string(), (*v).into()))
                    .collect(),
            ),
        ),
        ("unattributed_ns_per_op", s.unattributed_ns.into()),
    ])
}

pub fn budget_json(b: &Budget) -> Json {
    obj([
        ("front_end", b.front.into()),
        ("front_end_ns_per_op", b.front_ns_per_op.into()),
        (
            "front_end_measured_ns_per_op",
            b.front_measured_ns_per_op.into(),
        ),
        ("shadow_inflation", b.shadow_inflation.into()),
        ("ring_self_ns_per_op", b.ring_self_ns_per_op.into()),
        ("shard_self_ns_per_op", b.shard_self_ns_per_op.into()),
        ("pipeline_ns_per_op", b.pipeline_ns_per_op.into()),
        ("pipeline_write", side_json(&b.write)),
        ("pipeline_read", side_json(&b.read)),
    ])
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Facts about where and how a run-set was made.
pub fn host_json(seed: u64, seconds: f64, count_scale: f64, quick: bool) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    obj([
        ("nproc", nproc.into()),
        ("cpu_model", cpu.into()),
        ("rustc", command_line("rustc", &["-V"]).into()),
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).into(),
        ),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("count_scale", count_scale.into()),
        ("quick", quick.into()),
    ])
}

pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<38} {:>16.4} {:<10} ({} is better)",
            m.name,
            m.value,
            m.unit,
            m.better.as_str()
        );
    }
}

pub fn print_lanes(l: &Lanes) {
    for (name, s) in [("write", &l.write), ("read", &l.read), ("op", &l.op)] {
        let top = s.top.map_or(String::new(), |(p, v)| {
            format!(", p{:.4} = {:.2} us", p * 100.0, v)
        });
        println!(
            "  {name:<5} from {:<7} n = {:<9} p50 = {:.2} us, p99 = {:.2} us{top}",
            s.source, s.samples, s.p50_us, s.p99_us
        );
    }
}

pub fn print_budget(b: &Budget) {
    println!(
        "budget, ns/op: {} {:.0} (measured {:.0}) = ring {:.0} + shard {:.0} + pipeline {:.0}",
        b.front,
        b.front_ns_per_op,
        b.front_measured_ns_per_op,
        b.ring_self_ns_per_op,
        b.shard_self_ns_per_op,
        b.pipeline_ns_per_op
    );
    println!(
        "  shadowed route runs {:.3}x the clean pipeline route; its spans split as:",
        b.shadow_inflation
    );
    for (name, s) in [("pipeline.write", &b.write), ("pipeline.read", &b.read)] {
        if s.ops == 0 {
            continue;
        }
        println!("  {name} {:.0} ns/op over {} ops =", s.span_ns, s.ops);
        for (leaf, ns) in &s.leaves {
            println!("    {leaf:<22} {ns:>12.1}");
        }
        println!("    {:<22} {:>12.1}", "unattributed", s.unattributed_ns);
    }
}
