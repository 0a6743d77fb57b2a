//! One skeleton every workload runs through: set-up (several times; `setup_s`
//! is their median), warm-up, measured rounds, final flush, space snapshot,
//! background passes, power cut + recovery, and a bit-exact read-back of
//! every slot against the driver's own model.
//!
//! Closed loop, one client: the next call is issued when the previous one
//! returned (through the ring: when fewer than `qd` are in flight). Every
//! call's `now_ns` comes from the generated schedule, never from the wall
//! clock, so the selector band a run lands in is an input. The store is
//! flushed where the workload says so and nowhere else. Outputs are compared
//! outside the timed span of the call that produced them.

use crate::gen::{Inputs, OpRec, BLOCK, HEAT_IDLE_GAP_NS, HEAT_STEP_NS};
use crate::hist::Hist;
use crate::shadow::Shadow;
use crate::trace::{Name, OpKind, Tracer};
use edc::core::{AllocStats, PipelineStats, RecompressReport, RecoveryError, RecoveryReport};
use edc::prelude::{
    BatchWrite, CodecId, EdcError, EdcPipeline, Op, OpOutput, PipelineConfig, ReadError, Ring,
    RingConfig, RingStats, ShardConfig, ShardedPipeline, Ticket, WriteResult,
};
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

/// How the ops of one run reach the store. A workload's own front-end is
/// one of these (`Plan::front`) and is what the untraced run uses; the
/// traced run repeats the stream one layer further in each time, so each
/// layer's cost is a difference of two walls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `Ring` over a `ShardedPipeline`, one submitter keeping `qd` in flight.
    Ring { qd: usize },
    /// Blocking `ShardedPipeline`.
    Shard,
    /// Straight into the owning shard's `EdcPipeline` (`with_shard`). As a
    /// front-end: the store is one `EdcPipeline`, called directly.
    Direct,
}

impl Path {
    pub fn label(self) -> &'static str {
        match self {
            Path::Ring { .. } => "ring",
            Path::Shard => "shard",
            Path::Direct => "pipeline",
        }
    }
}

pub struct Plan {
    pub name: &'static str,
    pub front: Path,
    pub shards: usize,
    pub extent_blocks: u64,
    pub pipeline: fn() -> PipelineConfig,
    /// Every round runs on a newly built store (rounds do identical work).
    pub fresh_store_per_round: bool,
    /// Flush, idle gap and one Deflate recompress pass after every round,
    /// with this many rewrites per shard (at count scale 1).
    pub round_pass_budget: Option<usize>,
    /// Times the untraced run sets up (`setup_s` is taken over them): more
    /// for the workloads whose set-up is too short to time well once.
    pub setups: usize,
    /// Share of the untraced op counts each traced path runs.
    pub trace_scale: f64,
    pub gen: fn(u64, f64) -> Inputs,
}

impl Plan {
    /// Device bytes (split evenly across shards): twice the logical
    /// footprint. Segregated-fit slots strand space across size classes
    /// under overwrite churn, and a wrapped bump cursor would overwrite
    /// live data.
    fn capacity(&self, inp: &Inputs) -> u64 {
        let footprint = inp.model.len() as u64 * inp.pool.unit_bytes() as u64;
        (2 * footprint).max(64 << 20)
    }

    fn shard_pipeline(&self, shard: usize) -> PipelineConfig {
        let mut cfg = (self.pipeline)();
        if self.front != Path::Direct {
            // What `ShardedPipeline::new` does to each shard's config.
            cfg.journal_shard = shard as u8;
            cfg.heat.extent_blocks = self.extent_blocks;
        }
        cfg
    }
}

pub enum Store {
    One(Box<EdcPipeline>),
    Many(ShardedPipeline),
}

impl Store {
    pub fn build(plan: &Plan, inp: &Inputs) -> Store {
        match plan.front {
            Path::Direct => Store::One(Box::new(EdcPipeline::new(
                plan.capacity(inp),
                (plan.pipeline)(),
            ))),
            _ => Store::Many(ShardedPipeline::new(
                plan.capacity(inp),
                ShardConfig {
                    shards: plan.shards,
                    extent_blocks: plan.extent_blocks,
                    pipeline: (plan.pipeline)(),
                },
            )),
        }
    }

    /// The shard that owns the whole range, if one does.
    fn shard_of(&self, offset: u64, len: u64) -> Option<usize> {
        match self {
            Store::One(_) => Some(0),
            Store::Many(s) => s.single_shard_of(offset, len),
        }
    }

    fn write(
        &mut self,
        direct: bool,
        now_ns: u64,
        offset: u64,
        data: &[u8],
    ) -> Result<Vec<WriteResult>, EdcError> {
        let batch = [BatchWrite {
            now_ns,
            offset,
            data,
        }];
        match self {
            Store::One(p) => p.write_batch(&batch),
            Store::Many(s) => match s.single_shard_of(offset, data.len() as u64) {
                Some(i) if direct => s.with_shard(i, |p| p.write_batch(&batch)),
                _ => s.write_batch(&batch),
            },
        }
    }

    fn read(
        &mut self,
        direct: bool,
        now_ns: u64,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, ReadError> {
        match self {
            Store::One(p) => p.read(now_ns, offset, len),
            Store::Many(s) => match s.single_shard_of(offset, len) {
                Some(i) if direct => s.with_shard(i, |p| p.read(now_ns, offset, len)),
                _ => s.read(now_ns, offset, len),
            },
        }
    }

    fn flush_all(&mut self, now_ns: u64) -> Result<Vec<WriteResult>, EdcError> {
        match self {
            Store::One(p) => p.flush_all(now_ns),
            Store::Many(s) => s.flush_all(now_ns),
        }
    }

    fn recompress(
        &mut self,
        now_ns: u64,
        target: CodecId,
        budget: usize,
    ) -> Result<RecompressReport, EdcError> {
        match self {
            Store::One(p) => p.recompress_pass(now_ns, target, budget),
            Store::Many(s) => s.recompress(now_ns, target, budget),
        }
    }

    fn cut_power(&mut self) {
        match self {
            Store::One(p) => p.cut_power(),
            Store::Many(s) => s.cut_power(),
        }
    }

    fn recover(&mut self) -> Result<RecoveryReport, RecoveryError> {
        match self {
            Store::One(p) => p.recover(),
            Store::Many(s) => s.recover(),
        }
    }

    fn stats(&self) -> PipelineStats {
        match self {
            Store::One(p) => p.stats(),
            Store::Many(s) => s.stats(),
        }
    }

    fn live_stored_bytes(&self) -> u64 {
        match self {
            Store::One(p) => p.live_stored_bytes(),
            Store::Many(s) => s.live_stored_bytes(),
        }
    }

    fn alloc_stats(&self) -> AllocStats {
        match self {
            Store::One(p) => p.alloc_stats(),
            Store::Many(s) => (0..s.shard_count()).fold(AllocStats::default(), |mut acc, i| {
                let a = s.with_shard(i, |p| p.alloc_stats());
                acc.placements += a.placements;
                acc.allocated_bytes += a.allocated_bytes;
                acc.payload_bytes += a.payload_bytes;
                acc.internal_frag_bytes += a.internal_frag_bytes;
                acc.write_through += a.write_through;
                acc.quantum_changes += a.quantum_changes;
                acc
            }),
        }
    }
}

/// Latencies and volume of one direction of traffic in one round.
#[derive(Default, Clone)]
pub struct Lane {
    pub hist: Hist,
    pub bytes: u64,
}

/// One round (or one set-up's prefill, or one read-back scan).
#[derive(Default, Clone)]
pub struct RoundStat {
    pub write: Lane,
    pub read: Lane,
    /// Time the client spent inside store calls (blocking paths) or the
    /// round's wall time (ring, where calls overlap).
    pub busy_ns: u64,
}

impl RoundStat {
    pub fn ops(&self) -> u64 {
        self.write.hist.count() + self.read.hist.count()
    }

    fn record(&mut self, write: bool, ns: u64, bytes: u64) {
        let lane = if write {
            &mut self.write
        } else {
            &mut self.read
        };
        lane.hist.record(ns);
        lane.bytes += bytes;
    }
}

/// What the store said about the runs it flushed (`WriteResult`s).
#[derive(Default, Debug, Clone, PartialEq)]
pub struct RunTally {
    /// Write calls made (each returns zero or more flushed runs).
    pub write_calls: u64,
    pub runs: u64,
    pub blocks: u64,
    pub blocks_none: u64,
    pub blocks_lzf: u64,
    pub blocks_deflate: u64,
    pub lzf_raw: u64,
    pub lzf_payload: u64,
    pub deflate_raw: u64,
    pub deflate_payload: u64,
}

impl RunTally {
    fn add(&mut self, results: &[WriteResult]) {
        for r in results {
            let raw = u64::from(r.blocks) * BLOCK;
            self.runs += 1;
            self.blocks += u64::from(r.blocks);
            let stored = r.allocated_bytes > 0; // a dedup hit stores nothing
            match r.tag {
                CodecId::None => self.blocks_none += u64::from(r.blocks),
                CodecId::Deflate => {
                    self.blocks_deflate += u64::from(r.blocks);
                    if stored {
                        self.deflate_raw += raw;
                        self.deflate_payload += r.payload_bytes;
                    }
                }
                _ => {
                    self.blocks_lzf += u64::from(r.blocks);
                    if stored {
                        self.lzf_raw += raw;
                        self.lzf_payload += r.payload_bytes;
                    }
                }
            }
        }
    }
}

/// Store counters over the measured rounds (deltas), exact for a seed.
#[derive(Default, Debug, Clone, PartialEq)]
pub struct Counts {
    pub ops: u64,
    pub split_ops: u64,
    pub stats: PipelineStats,
    pub alloc: AllocStats,
    pub mapped_blocks: u64,
}

impl Counts {
    fn add_delta(
        &mut self,
        end: &PipelineStats,
        begin: &PipelineStats,
        a1: &AllocStats,
        a0: &AllocStats,
    ) {
        let s = &mut self.stats;
        s.logical_written += end.logical_written - begin.logical_written;
        s.physical_written += end.physical_written - begin.physical_written;
        s.journal_records += end.journal_records - begin.journal_records;
        s.journal_bytes += end.journal_bytes - begin.journal_bytes;
        s.programs += end.programs - begin.programs;
        s.cache.hits += end.cache.hits - begin.cache.hits;
        s.cache.misses += end.cache.misses - begin.cache.misses;
        s.cache.evictions += end.cache.evictions - begin.cache.evictions;
        s.cache.invalidations += end.cache.invalidations - begin.cache.invalidations;
        s.dedup_hits += end.dedup_hits - begin.dedup_hits;
        s.dedup_elided_bytes += end.dedup_elided_bytes - begin.dedup_elided_bytes;
        let a = &mut self.alloc;
        a.placements += a1.placements - a0.placements;
        a.allocated_bytes += a1.allocated_bytes - a0.allocated_bytes;
        a.internal_frag_bytes += a1.internal_frag_bytes - a0.internal_frag_bytes;
        a.quantum_changes += a1.quantum_changes - a0.quantum_changes;
        self.mapped_blocks = end.mapped_blocks;
    }
}

/// Everything one scenario run measured.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    pub prefills: Vec<RoundStat>,
    pub rounds: Vec<RoundStat>,
    pub scans: Vec<RoundStat>,
    pub recover_ms: Vec<f64>,
    pub bg_pass_ms: Vec<f64>,
    pub passes: Vec<RecompressReport>,
    /// Live stored bytes right before / reclaimed by the recompress passes.
    pub live_before_passes: u64,
    pub stored_per_logical: f64,
    pub flash_written_per_logical: f64,
    pub runs: RunTally,
    pub counts: Counts,
    pub ring: Option<RingStats>,
    pub digest: u64,
    pub measured_ops: u64,
    /// Σ time in `flush_all` and the runs those calls returned.
    pub flush_ns: u64,
    pub flush_runs: u64,
}

/// Cache verdicts the shadow and the store agreed / were compared on.
#[derive(Default, Debug, Clone, Copy)]
pub struct Fidelity {
    pub checked: u64,
    pub agreed: u64,
}

struct TraceCtx {
    tracer: Tracer,
    /// One shadow per shard on the direct path; empty otherwise.
    shadows: Vec<Shadow>,
    fidelity: Fidelity,
    /// Bytes the shadows' estimators saw / flagged incompressible.
    est: (u64, u64),
}

impl TraceCtx {
    fn new() -> TraceCtx {
        TraceCtx {
            tracer: Tracer::new(),
            shadows: Vec::new(),
            fidelity: Fidelity::default(),
            est: (0, 0),
        }
    }

    /// Fresh shadows for a fresh store (banking what the old ones found).
    fn reset_shadows(&mut self, plan: &Plan, inp: &Inputs) {
        self.bank_shadows();
        self.shadows = (0..plan.shards)
            .map(|i| {
                Shadow::new(
                    plan.capacity(inp) / plan.shards as u64,
                    plan.shard_pipeline(i),
                )
            })
            .collect();
    }

    /// Keep what the current shadows found before they are replaced.
    fn bank_shadows(&mut self) {
        for s in self.shadows.drain(..) {
            self.fidelity.checked += s.runs_checked;
            self.fidelity.agreed += s.runs_agreed;
            self.est.0 += s.est_bytes;
            self.est.1 += s.est_write_through_bytes;
        }
    }

    fn shadow_cache(&self) -> (u64, u64) {
        self.shadows.iter().fold((0, 0), |(h, m), s| {
            let c = s.cache_stats();
            (h + c.hits, m + c.misses)
        })
    }
}

/// One way of running a workload's op stream.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    pub path: Path,
    pub spans: bool,
    pub shadow: bool,
    pub epilogue: Epilogue,
}

/// Background passes (on workloads that do not already run one per round),
/// power-cut + recovery cycles and full read-back scans after the rounds.
#[derive(Debug, Clone, Copy)]
pub struct Epilogue {
    pub passes: usize,
    pub recoveries: usize,
    pub scans: usize,
}

impl Epilogue {
    /// The untraced run: enough repeats that one of each escapes a burst.
    pub const FULL: Epilogue = Epilogue {
        passes: 7,
        recoveries: 9,
        scans: 3,
    };
    /// The traced run's untraced baseline: every kind of check, once.
    pub const ONCE: Epilogue = Epilogue {
        passes: 1,
        recoveries: 1,
        scans: 1,
    };
    /// A traced path: one span of each kind, no scan.
    pub const SPANS: Epilogue = Epilogue {
        passes: 1,
        recoveries: 1,
        scans: 0,
    };
    pub const NONE: Epilogue = Epilogue {
        passes: 0,
        recoveries: 0,
        scans: 0,
    };
}

/// Ten half-lives of idle time before the epilogue's passes: all but the
/// very hottest extents have gone cold, so every pass has work to do.
const EPILOGUE_IDLE_GAP_NS: u64 = 10_000_000_000;

/// Target of the epilogue's passes on workloads with no background work of
/// their own. A budgeted Deflate pass costs more from one pass to the next,
/// because each re-encodes every run an earlier pass could not shrink; so
/// these workloads report a pass over a *settled* store instead — every
/// cold write-through run re-tried, nothing gained — which repeats exactly.
/// The ladder's fast rung keeps that affordable in every run.
const SETTLED_TARGET: CodecId = CodecId::Lzf;

pub struct Outcome {
    pub tally: Tally,
    pub tracer: Option<Tracer>,
    pub fidelity: Fidelity,
    pub est_bytes: u64,
    pub est_write_through_bytes: u64,
}

/// One store being driven through one workload along one path. Several
/// runners over the same inputs can take turns round by round, so that
/// whatever the machine is doing at that moment hits all of them alike.
pub struct Runner {
    plan: &'static Plan,
    inputs: Rc<Inputs>,
    lane: Route,
    /// The plan's `round_pass_budget`, count-scaled.
    round_pass_budget: Option<usize>,
    store: Store,
    tc: Option<TraceCtx>,
    tally: Tally,
    /// Counter snapshots at the start of the measured rounds.
    begin: (PipelineStats, AllocStats),
    /// Store and shadow cache `(hits, misses)` at the last comparison.
    cache_seen: ((u64, u64), (u64, u64)),
}

impl Runner {
    /// Set-up: build the store and prefill it.
    pub fn new(plan: &'static Plan, inputs: Rc<Inputs>, lane: Route, scale: f64) -> Runner {
        let store = Store::build(plan, &inputs);
        let mut tc = lane.spans.then(TraceCtx::new);
        if let Some(tc) = tc.as_mut().filter(|_| lane.shadow) {
            tc.reset_shadows(plan, &inputs);
        }
        let mut r = Runner {
            plan,
            round_pass_budget: plan
                .round_pass_budget
                .map(|b| crate::gen::scaled(b, scale, 2)),
            lane,
            store,
            tc,
            tally: Tally::default(),
            begin: Default::default(),
            cache_seen: Default::default(),
            inputs,
        };
        r.tally.digest = r.inputs.digest;
        r.tally.measured_ops = r.inputs.measured_ops() as u64;
        let (inputs, path) = (Rc::clone(&r.inputs), r.blocking());
        let mut pre = RoundStat::default();
        for op in &inputs.prefill {
            exec_blocking(
                &mut r.store,
                path,
                &inputs,
                op,
                Some(&mut pre),
                &mut r.tally,
                r.tc.as_mut(),
            );
        }
        if let Some(last) = inputs.prefill.last() {
            flush(
                &mut r.store,
                path,
                last.now_ns + 1,
                &mut pre,
                &mut r.tally,
                r.tc.as_mut(),
            );
        }
        r.tally.prefills.push(pre);
        r
    }

    /// The path control-plane calls (flush, recover, recompress) and the
    /// prefill take: the ring carries data-plane ops only.
    fn blocking(&self) -> Path {
        if matches!(self.lane.path, Path::Ring { .. }) {
            Path::Shard
        } else {
            self.lane.path
        }
    }

    fn ops(&mut self, ops: &[OpRec], mut rs: Option<&mut RoundStat>) {
        let inputs = Rc::clone(&self.inputs);
        if let Path::Ring { qd } = self.lane.path {
            let Store::Many(sharded) = &self.store else {
                unreachable!("the ring needs a sharded store")
            };
            let (tally, tc) = (&mut self.tally, self.tc.as_mut());
            let stats = Ring::serve(
                sharded,
                RingConfig {
                    depth: 64,
                    shards: 0,
                },
                |ring| {
                    ring_round(ring, qd, &inputs, ops, rs, tally, tc);
                    ring.stats()
                },
            );
            let total = self.tally.ring.get_or_insert_with(RingStats::default);
            total.submitted += stats.submitted;
            total.completed += stats.completed;
            total.rejected_full += stats.rejected_full;
            total.drained_batches += stats.drained_batches;
            total.coalesced_groups += stats.coalesced_groups;
            total.coalesced_writes += stats.coalesced_writes;
            total.max_batch = total.max_batch.max(stats.max_batch);
        } else {
            for op in ops {
                exec_blocking(
                    &mut self.store,
                    self.lane.path,
                    &inputs,
                    op,
                    rs.as_deref_mut(),
                    &mut self.tally,
                    self.tc.as_mut(),
                );
            }
        }
    }

    /// The 5 % of untimed ops before the measured rounds.
    pub fn warmup(&mut self) {
        let inputs = Rc::clone(&self.inputs);
        self.ops(&inputs.warmup, None);
        self.tally.ring = None;
        self.mark_begin();
    }

    fn mark_begin(&mut self) {
        self.begin = (self.store.stats(), self.store.alloc_stats());
        let c = self.begin.0.cache;
        self.cache_seen = (
            (c.hits, c.misses),
            self.tc.as_ref().map_or((0, 0), TraceCtx::shadow_cache),
        );
    }

    pub fn rounds(&self) -> usize {
        self.inputs.rounds.len()
    }

    /// Measured round `r`, with whatever the workload does between rounds.
    pub fn round(&mut self, r: usize) {
        let inputs = Rc::clone(&self.inputs);
        let (plan, path) = (self.plan, self.blocking());
        if plan.fresh_store_per_round {
            self.store = Store::build(plan, &inputs);
            if let Some(tc) = self.tc.as_mut().filter(|_| self.lane.shadow) {
                tc.reset_shadows(plan, &inputs);
            }
            self.mark_begin();
        }
        let mut rs = RoundStat::default();
        self.ops(&inputs.rounds[r], Some(&mut rs));
        let end = inputs.rounds[r].last().map_or(0, |op| op.now_ns);
        let last = r + 1 == inputs.rounds.len();
        if last || plan.fresh_store_per_round || self.round_pass_budget.is_some() {
            flush(
                &mut self.store,
                path,
                end + HEAT_STEP_NS,
                &mut rs,
                &mut self.tally,
                self.tc.as_mut(),
            );
        }
        if let Some(budget) = self.round_pass_budget {
            if self.tally.live_before_passes == 0 {
                self.tally.live_before_passes = self.store.live_stored_bytes();
            }
            let now = end + HEAT_STEP_NS + HEAT_IDLE_GAP_NS;
            let spec = PassSpec {
                target: CodecId::Deflate,
                budget,
                shadow: self.lane.shadow,
            };
            pass(
                &mut self.store,
                spec,
                path,
                now,
                &mut self.tally,
                self.tc.as_mut(),
            );
        }
        self.tally.rounds.push(rs);
        if last || plan.fresh_store_per_round {
            let (s1, a1) = (self.store.stats(), self.store.alloc_stats());
            self.tally
                .counts
                .add_delta(&s1, &self.begin.0, &a1, &self.begin.1);
        }
        // Cache verdicts: the shadow's hits and misses against the store's,
        // round by round.
        if let Some(tc) = self.tc.as_mut().filter(|_| self.lane.shadow) {
            let c = self.store.stats().cache;
            let (real, shadow) = ((c.hits, c.misses), tc.shadow_cache());
            let (real0, shadow0) = self.cache_seen;
            let d = |now: (u64, u64), then: (u64, u64)| (now.0 - then.0, now.1 - then.1);
            let (dr, ds) = (d(real, real0), d(shadow, shadow0));
            let lookups = dr.0 + dr.1;
            let off = dr.0.abs_diff(ds.0).max(dr.1.abs_diff(ds.1));
            tc.fidelity.checked += lookups;
            tc.fidelity.agreed += lookups - off.min(lookups);
            self.cache_seen = (real, shadow);
        }
    }

    /// Space snapshot, then the epilogue: background passes, power cuts
    /// and recoveries, and read-back scans of every slot against `model`
    /// (the driver's own, unless a test passes a doctored one).
    pub fn finish(mut self, model: &[u32]) -> Outcome {
        let inputs = Rc::clone(&self.inputs);
        let (path, tally) = (self.blocking(), &mut self.tally);
        tally.counts.ops = tally.rounds.iter().map(RoundStat::ops).sum();
        let s = self.store.stats();
        let live = self.store.live_stored_bytes();
        tally.stored_per_logical =
            (live + s.journal_bytes) as f64 / (s.mapped_blocks * BLOCK).max(1) as f64;
        tally.flash_written_per_logical =
            s.physical_written as f64 / s.logical_written.max(1) as f64;

        let e = self.lane.epilogue;
        let mut now = inputs.end_ns + 2 * HEAT_STEP_NS + EPILOGUE_IDLE_GAP_NS;
        if self.round_pass_budget.is_none() && e.passes > 0 {
            tally.live_before_passes = live;
            // One unbudgeted pass settles the store, untimed; the passes
            // after it each re-try the same runs, so they are repeats of
            // one piece of work.
            tally.attempted += 1;
            if self
                .store
                .recompress(now, SETTLED_TARGET, usize::MAX)
                .is_err()
            {
                tally.failed += 1;
            }
            let settled = PassSpec {
                target: SETTLED_TARGET,
                budget: usize::MAX,
                shadow: false,
            };
            for _ in 0..e.passes {
                now += HEAT_STEP_NS;
                pass(&mut self.store, settled, path, now, tally, self.tc.as_mut());
            }
        }
        for _ in 0..e.recoveries {
            self.store.cut_power();
            recover(&mut self.store, path, tally, self.tc.as_mut());
        }
        if let Some(tc) = self.tc.as_mut().filter(|_| e.recoveries > 0) {
            tc.tracer.op_begin(OpKind::Other);
            for s in &mut tc.shadows {
                s.replay_journal(&mut tc.tracer);
            }
            tc.tracer.op_end();
        }
        for _ in 0..e.scans {
            let mut rs = RoundStat::default();
            for (slot, &unit) in model.iter().enumerate() {
                now += 100_000;
                let op = OpRec {
                    now_ns: now,
                    offset: slot as u64 * inputs.slot_stride,
                    unit,
                    write: false,
                };
                exec_blocking(
                    &mut self.store,
                    path,
                    &inputs,
                    &op,
                    Some(&mut rs),
                    tally,
                    None,
                );
            }
            tally.scans.push(rs);
        }

        let (tracer, fidelity, est) = match self.tc {
            Some(mut tc) => {
                tc.bank_shadows();
                (Some(tc.tracer), tc.fidelity, tc.est)
            }
            None => (None, Fidelity::default(), (0, 0)),
        };
        Outcome {
            tally: self.tally,
            tracer,
            fidelity,
            est_bytes: est.0,
            est_write_through_bytes: est.1,
        }
    }
}

/// Run `routes` over one set of inputs, taking turns round by round; the
/// outcomes come back in the order of `routes`.
pub fn run_routes(plan: &'static Plan, seed: u64, scale: f64, routes: &[Route]) -> Vec<Outcome> {
    let inputs = Rc::new((plan.gen)(seed, scale));
    let mut runners: Vec<Runner> = routes
        .iter()
        .map(|&route| Runner::new(plan, Rc::clone(&inputs), route, scale))
        .collect();
    runners.iter_mut().for_each(Runner::warmup);
    for r in 0..inputs.rounds.len() {
        runners.iter_mut().for_each(|runner| runner.round(r));
    }
    runners
        .into_iter()
        .map(|runner| runner.finish(&inputs.model))
        .collect()
}

/// The untraced run: set-up `plan.setups` times (timed, for `setup_s`; every
/// prefill is also a sample of the write path), then one lane end to end.
pub fn run_untraced(plan: &'static Plan, seed: u64, scale: f64, corrupt_model: bool) -> Outcome {
    let lane = Route {
        path: plan.front,
        spans: false,
        shadow: false,
        epilogue: Epilogue::FULL,
    };
    let mut earlier = Tally::default();
    let mut runner: Option<Runner> = None;
    for _ in 0..plan.setups.max(1) {
        // Free the previous set-up first, or peak memory would double.
        if let Some(old) = runner.take() {
            earlier.attempted += old.tally.attempted;
            earlier.failed += old.tally.failed;
            earlier.prefills.extend(old.tally.prefills);
        }
        let t0 = Instant::now();
        let inputs = Rc::new((plan.gen)(seed, scale));
        runner = Some(Runner::new(plan, inputs, lane, scale));
        earlier.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut runner = runner.expect("at least one set-up ran");
    runner.warmup();
    (0..runner.rounds()).for_each(|r| runner.round(r));
    let mut model = runner.inputs.model.clone();
    if corrupt_model {
        // Test hook: expect the wrong bytes in one slot.
        let slot = model.len() / 2;
        model[slot] = if model[slot] == 0 { 1 } else { 0 };
    }
    let mut out = runner.finish(&model);
    out.tally.attempted += earlier.attempted;
    out.tally.failed += earlier.failed;
    out.tally.setup_s = earlier.setup_s;
    earlier.prefills.append(&mut out.tally.prefills);
    out.tally.prefills = earlier.prefills;
    out
}

fn span_names(path: Path) -> (Name, Name, Name, Name, Name) {
    match path {
        Path::Direct => (
            Name::PipeWrite,
            Name::PipeRead,
            Name::PipeFlush,
            Name::PipeRecover,
            Name::PipeRecompress,
        ),
        _ => (
            Name::ShardWrite,
            Name::ShardRead,
            Name::ShardFlush,
            Name::ShardRecover,
            Name::ShardRecompress,
        ),
    }
}

/// One blocking call, timed; its output checked after the timed span and,
/// on the shadowed path, its inputs replayed through the layer shadow.
fn exec_blocking(
    store: &mut Store,
    path: Path,
    inp: &Inputs,
    op: &OpRec,
    rs: Option<&mut RoundStat>,
    tally: &mut Tally,
    mut tc: Option<&mut TraceCtx>,
) {
    let direct = path == Path::Direct;
    let (w_name, r_name, ..) = span_names(path);
    let unit = inp.pool.unit(op.unit);
    let len = unit.len() as u64;
    tally.attempted += 1;
    let kind = if op.write {
        OpKind::Write
    } else {
        OpKind::Read
    };
    let start = tc.as_mut().map(|tc| {
        tc.tracer.op_begin(kind);
        tc.tracer.now()
    });
    let t0 = Instant::now();
    let (ns, results) = if op.write {
        let res = store.write(direct, op.now_ns, op.offset, unit);
        (t0.elapsed().as_nanos() as u64, res.ok())
    } else {
        let res = store.read(direct, op.now_ns, op.offset, len);
        let ns = t0.elapsed().as_nanos() as u64;
        // Compared here, after the clock stopped.
        (
            ns,
            res.ok().filter(|bytes| bytes == unit).map(|_| Vec::new()),
        )
    };
    if let Some(rs) = rs {
        rs.record(op.write, ns, len);
        rs.busy_ns += ns;
    }
    if let (Some(tc), Some(start)) = (tc.as_mut(), start) {
        tc.tracer.child(
            if op.write { w_name } else { r_name },
            start,
            start + ns,
            len,
        );
    }
    tally.runs.write_calls += u64::from(op.write);
    match &results {
        Some(results) => tally.runs.add(results),
        None => tally.failed += 1,
    }
    if let Some(tc) = tc {
        if !tc.shadows.is_empty() {
            let shard = store
                .shard_of(op.offset, len)
                .expect("workload ops stay inside one extent");
            let sh = &mut tc.shadows[shard];
            if op.write {
                sh.write(&mut tc.tracer, op.now_ns, op.offset, unit);
                sh.check(results.as_deref().unwrap_or(&[]));
            } else {
                sh.read(&mut tc.tracer, op.now_ns, op.offset, len);
            }
        }
        tc.tracer.op_end();
    }
    if store.shard_of(op.offset, len).is_none() {
        tally.counts.split_ops += 1;
    }
}

/// `flush_all`, charged to the round's busy time (each write's share of the
/// final flush) but not to any single write's latency.
fn flush(
    store: &mut Store,
    path: Path,
    now_ns: u64,
    rs: &mut RoundStat,
    tally: &mut Tally,
    tc: Option<&mut TraceCtx>,
) {
    let (_, _, f_name, ..) = span_names(path);
    tally.attempted += 1;
    let t0 = Instant::now();
    let res = store.flush_all(now_ns);
    let ns = t0.elapsed().as_nanos() as u64;
    rs.busy_ns += ns;
    tally.flush_ns += ns;
    let results = res.unwrap_or_else(|_| {
        tally.failed += 1;
        Vec::new()
    });
    tally.flush_runs += results.len() as u64;
    tally.runs.add(&results);
    if let Some(tc) = tc {
        tc.tracer.op_begin(OpKind::Other);
        let start = tc.tracer.now().saturating_sub(ns);
        tc.tracer
            .child(f_name, start, start + ns, results.len() as u64);
        for shard in 0..tc.shadows.len() {
            tc.shadows[shard].flush(&mut tc.tracer, now_ns);
            // `flush_all` reports shard by shard, runs in seal order.
            let mine: Vec<WriteResult> = results
                .iter()
                .filter(|r| {
                    store.shard_of(r.start_block * BLOCK, u64::from(r.blocks) * BLOCK)
                        == Some(shard)
                })
                .cloned()
                .collect();
            tc.shadows[shard].check(&mine);
        }
        tc.tracer.op_end();
    }
}

/// What one recompress pass is asked to do.
#[derive(Clone, Copy)]
struct PassSpec {
    target: CodecId,
    /// Rewrites per shard.
    budget: usize,
    /// Replay the pass through the layer shadows (traced route only).
    shadow: bool,
}

/// One recompress pass at virtual time `now_ns`.
fn pass(
    store: &mut Store,
    spec: PassSpec,
    path: Path,
    now_ns: u64,
    tally: &mut Tally,
    tc: Option<&mut TraceCtx>,
) {
    let PassSpec {
        target,
        budget,
        shadow,
    } = spec;
    let (.., p_name) = span_names(path);
    tally.attempted += 1;
    let t0 = Instant::now();
    let res = store.recompress(now_ns, target, budget);
    let ns = t0.elapsed().as_nanos() as u64;
    tally.bg_pass_ms.push(ns as f64 / 1e6);
    let report = res.unwrap_or_else(|_| {
        tally.failed += 1;
        RecompressReport::default()
    });
    tally.passes.push(report);
    if let Some(tc) = tc {
        tc.tracer.op_begin(OpKind::Other);
        let start = tc.tracer.now().saturating_sub(ns);
        tc.tracer.child(p_name, start, start + ns, report.scanned);
        if shadow {
            let mut mine = crate::shadow::ShadowPass::default();
            for s in &mut tc.shadows {
                let p = s.recompress(&mut tc.tracer, now_ns, target, budget);
                mine.scanned += p.scanned;
                mine.recompressed += p.recompressed;
                mine.demoted += p.demoted;
            }
            tc.fidelity.checked += 1;
            let real = (report.scanned, report.recompressed, report.demoted);
            if !tc.shadows.is_empty() && real == (mine.scanned, mine.recompressed, mine.demoted) {
                tc.fidelity.agreed += 1;
            }
        }
        tc.tracer.op_end();
    }
}

fn recover(store: &mut Store, path: Path, tally: &mut Tally, tc: Option<&mut TraceCtx>) {
    let (.., r_name, _) = span_names(path);
    tally.attempted += 1;
    let t0 = Instant::now();
    let res = store.recover();
    let ns = t0.elapsed().as_nanos() as u64;
    tally.recover_ms.push(ns as f64 / 1e6);
    let records = match res {
        Ok(r) if r.payload_mismatches == 0 && !r.torn_tail => r.scanned_records,
        _ => {
            tally.failed += 1;
            0
        }
    };
    if let Some(tc) = tc {
        tc.tracer.op_begin(OpKind::Other);
        let start = tc.tracer.now().saturating_sub(ns);
        tc.tracer.child(r_name, start, start + ns, records);
        tc.tracer.op_end();
    }
}

struct InFlight {
    ticket: Ticket,
    t0: Instant,
    op: OpRec,
}

/// One round through the ring: keep `qd` ops in flight, reaping by `poll`
/// over the window and blocking in `wait` on the oldest only when nothing
/// has landed. Latency is submit → completion reaped.
fn ring_round(
    ring: &Ring<'_>,
    qd: usize,
    inp: &Inputs,
    ops: &[OpRec],
    mut rs: Option<&mut RoundStat>,
    tally: &mut Tally,
    mut tc: Option<&mut TraceCtx>,
) {
    let wall = Instant::now();
    let mut window: VecDeque<InFlight> = VecDeque::with_capacity(qd);
    let len = inp.pool.unit_bytes() as u64;
    for op in ops {
        tally.attempted += 1;
        if let Some(tc) = tc.as_mut() {
            tc.tracer.op_begin(if op.write {
                OpKind::Write
            } else {
                OpKind::Read
            });
        }
        if window.len() >= qd {
            reap(
                ring,
                inp,
                &mut window,
                rs.as_deref_mut(),
                tally,
                tc.as_deref_mut(),
            );
        }
        let ring_op = if op.write {
            Op::Write {
                offset: op.offset,
                data: inp.pool.unit(op.unit).to_vec(),
            }
        } else {
            Op::Read {
                offset: op.offset,
                len,
            }
        };
        let start = tc.as_ref().map(|tc| tc.tracer.now());
        let t0 = Instant::now();
        let ticket = ring.submit(op.now_ns, ring_op);
        if let (Some(tc), Some(start)) = (tc.as_mut(), start) {
            tc.tracer.leaf(Name::RingSubmit, start, len);
        }
        match ticket {
            Ok(ticket) => window.push_back(InFlight {
                ticket,
                t0,
                op: *op,
            }),
            Err(_) => tally.failed += 1,
        }
        if let Some(tc) = tc.as_mut() {
            tc.tracer.op_end();
        }
    }
    if let Some(tc) = tc.as_mut() {
        tc.tracer.op_begin(OpKind::Other);
    }
    while !window.is_empty() {
        reap(
            ring,
            inp,
            &mut window,
            rs.as_deref_mut(),
            tally,
            tc.as_deref_mut(),
        );
    }
    if let Some(tc) = tc.as_mut() {
        tc.tracer.op_end();
    }
    if let Some(rs) = rs {
        rs.busy_ns += wall.elapsed().as_nanos() as u64;
    }
}

/// Take one completion off the window and check it against the model.
fn reap(
    ring: &Ring<'_>,
    inp: &Inputs,
    window: &mut VecDeque<InFlight>,
    rs: Option<&mut RoundStat>,
    tally: &mut Tally,
    tc: Option<&mut TraceCtx>,
) {
    let start = tc.as_ref().map(|tc| tc.tracer.now());
    let mut landed = None;
    for (i, f) in window.iter().enumerate() {
        if let Ok(Some(out)) = ring.poll(f.ticket) {
            landed = Some((i, out));
            break;
        }
    }
    let (i, out) = landed.unwrap_or_else(|| {
        let oldest = window.front().expect("reap on an empty window");
        (
            0,
            ring.wait(oldest.ticket)
                .unwrap_or_else(|e| OpOutput::Err(e.to_string())),
        )
    });
    let f = window.remove(i).expect("index from the scan above");
    let ns = f.t0.elapsed().as_nanos() as u64;
    if let (Some(tc), Some(start)) = (tc, start) {
        tc.tracer.leaf(Name::RingWait, start, 1);
    }
    let len = inp.pool.unit_bytes() as u64;
    if let Some(rs) = rs {
        rs.record(f.op.write, ns, len);
    }
    tally.runs.write_calls += u64::from(f.op.write);
    match out {
        OpOutput::Writes(results) if f.op.write => tally.runs.add(&results),
        OpOutput::Read { len: got, checksum }
            if !f.op.write && got == len && checksum == inp.pool.sum(f.op.unit) => {}
        _ => tally.failed += 1,
    }
}
