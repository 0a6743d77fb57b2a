//! In-memory spans for the traced run.
//!
//! The tree is two levels deep by design: a root `op` per driver operation,
//! whose children are the front-end call the driver made (`ring.submit`,
//! `shard.write`, `pipeline.read`, …) and the layer shadow's leaves
//! (`estimator`, `lzf.enc`, `cache.lookup`, …). Every span is aggregated by
//! name as it closes — so memory is bounded however long the run — and one
//! op in `SAMPLE_EVERY` keeps its spans verbatim for the trace file.

use crate::json::{obj, Json};
use std::time::Instant;

pub const SAMPLE_EVERY: u64 = 64;
/// Cap on verbatim spans kept for the trace file.
const MAX_SAMPLED_SPANS: usize = 200_000;

macro_rules! span_names {
    ($($variant:ident => $text:literal,)*) => {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Name { $($variant,)* }
        pub const NAMES: &[&str] = &[$($text,)*];
    };
}

span_names! {
    Op => "op",
    RingSubmit => "ring.submit",
    RingWait => "ring.wait",
    ShardWrite => "shard.write",
    ShardRead => "shard.read",
    ShardFlush => "shard.flush_all",
    ShardRecover => "shard.recover",
    ShardRecompress => "shard.recompress",
    PipeWrite => "pipeline.write",
    PipeRead => "pipeline.read",
    PipeFlush => "pipeline.flush_all",
    PipeRecover => "pipeline.recover",
    PipeRecompress => "pipeline.recompress_pass",
    Monitor => "monitor",
    Selector => "selector",
    Sd => "sd",
    Estimator => "estimator",
    DedupChunkHash => "dedup.chunk_hash",
    DedupIndex => "dedup.index",
    LzfEnc => "lzf.enc",
    LzfDec => "lzf.dec",
    DeflateEnc => "deflate.enc",
    DeflateDec => "deflate.dec",
    Checksum => "checksum",
    Allocator => "allocator.place",
    Slots => "slots",
    Program => "device.program",
    JournalAppend => "journal.append",
    JournalReplay => "journal.replay",
    MapInsert => "mapping.insert_run",
    MapGet => "mapping.get",
    MapScan => "mapping.live_runs",
    CacheLookup => "cache.lookup",
    CacheInsert => "cache.insert",
    CopyOut => "pipeline.copyout",
    Heat => "heat.record",
    HeatClassify => "heat.classify",
}

/// What kind of driver operation a root `op` span stands for; children are
/// aggregated per kind so a write's leaves and a read's leaves add up
/// separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Write = 0,
    Read = 1,
    Other = 2,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Σ of what the span processed (bytes, blocks, records — per name).
    pub units: u64,
}

struct Span {
    id: u64,
    parent: u64,
    name: Name,
    op_seq: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    agg: Vec<[Agg; 3]>,
    kind: OpKind,
    /// Time inside root `op` spans not covered by any child.
    op_self_ns: u64,
    sampled: Vec<Span>,
    next_id: u64,
    op_seq: u64,
    /// `(id, start, children ns)` of the open root.
    open: Option<(u64, u64, u64)>,
    /// Cost of one empty leaf on this host, subtracted per leaf when
    /// per-layer times are derived (reported as `timer_ns`).
    pub timer_ns: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        let mut t = Tracer {
            t0: Instant::now(),
            agg: vec![[Agg::default(); 3]; NAMES.len()],
            kind: OpKind::Other,
            op_self_ns: 0,
            sampled: Vec::new(),
            next_id: 1,
            op_seq: 0,
            open: None,
            timer_ns: 0.0,
        };
        // Calibrate on a throwaway op so the real aggregates start clean.
        const N: u64 = 20_000;
        t.op_begin(OpKind::Other);
        for _ in 0..N {
            let s = t.now();
            t.leaf(Name::Selector, s, 0);
        }
        t.op_end();
        t.timer_ns = t.agg(Name::Selector).total_ns as f64 / N as f64;
        t.agg.fill([Agg::default(); 3]);
        t.sampled.clear();
        t.op_self_ns = 0;
        t.op_seq = 0;
        t
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Whether the open op's spans are kept verbatim for the trace file.
    fn keeps_this_op(&self) -> bool {
        self.op_seq.is_multiple_of(SAMPLE_EVERY) && self.sampled.len() < MAX_SAMPLED_SPANS
    }

    pub fn op_begin(&mut self, kind: OpKind) {
        debug_assert!(self.open.is_none(), "ops do not nest");
        self.kind = kind;
        let id = self.next_id;
        self.next_id += 1;
        self.open = Some((id, self.now(), 0));
    }

    /// Close a child span that started at `start` (from [`Tracer::now`]).
    pub fn leaf(&mut self, name: Name, start: u64, units: u64) {
        let end = self.now();
        self.child(name, start, end, units);
    }

    /// Record a child span with both ends known (a front-end call the
    /// driver timed itself).
    pub fn child(&mut self, name: Name, start: u64, end: u64, units: u64) {
        let a = &mut self.agg[name as usize][self.kind as usize];
        a.count += 1;
        a.total_ns += end - start;
        a.units += units;
        let Some((parent, _, kids)) = self.open.as_mut() else {
            return;
        };
        *kids += end - start;
        let parent = *parent;
        if self.keeps_this_op() {
            let id = self.next_id;
            self.next_id += 1;
            self.sampled.push(Span {
                id,
                parent,
                name,
                op_seq: self.op_seq,
                start_ns: start,
                end_ns: end,
            });
        }
    }

    pub fn op_end(&mut self) {
        let (id, start, kids) = self.open.take().expect("op_end without op_begin");
        let end = self.now();
        let a = &mut self.agg[Name::Op as usize][self.kind as usize];
        a.count += 1;
        a.total_ns += end - start;
        self.op_self_ns += (end - start).saturating_sub(kids);
        if self.keeps_this_op() {
            self.sampled.push(Span {
                id,
                parent: 0,
                name: Name::Op,
                op_seq: self.op_seq,
                start_ns: start,
                end_ns: end,
            });
        }
        self.op_seq += 1;
    }

    /// Aggregate of `name` under ops of `kind`.
    pub fn agg_kind(&self, name: Name, kind: OpKind) -> Agg {
        self.agg[name as usize][kind as usize]
    }

    /// Aggregate of `name` under every kind of op.
    pub fn agg(&self, name: Name) -> Agg {
        self.agg_at(name as usize)
    }

    fn agg_at(&self, i: usize) -> Agg {
        self.agg[i].iter().fold(Agg::default(), |mut acc, a| {
            acc.count += a.count;
            acc.total_ns += a.total_ns;
            acc.units += a.units;
            acc
        })
    }

    /// The shadow leaves (every name from `monitor` on) under ops of `kind`,
    /// timer cost taken out, as `(name, net ns)` for the leaves that ran.
    pub fn leaves(&self, kind: OpKind) -> Vec<(&'static str, f64)> {
        (0..NAMES.len())
            .filter(|&i| i >= Name::Monitor as usize)
            .map(|i| (NAMES[i], self.agg[i][kind as usize]))
            .filter(|(_, a)| a.count > 0)
            .map(|(n, a)| {
                (
                    n,
                    (a.total_ns as f64 - a.count as f64 * self.timer_ns).max(0.0),
                )
            })
            .collect()
    }

    /// Total of a leaf with the calibrated timer cost taken out.
    pub fn net_ns(&self, name: Name) -> f64 {
        let a = self.agg(name);
        (a.total_ns as f64 - a.count as f64 * self.timer_ns).max(0.0)
    }

    /// Net nanoseconds per processed unit (0 when the leaf never ran).
    pub fn per_unit(&self, name: Name) -> f64 {
        let a = self.agg(name);
        if a.units == 0 {
            0.0
        } else {
            self.net_ns(name) / a.units as f64
        }
    }

    /// Net nanoseconds per call (0 when the leaf never ran).
    pub fn per_call(&self, name: Name) -> f64 {
        let a = self.agg(name);
        if a.count == 0 {
            0.0
        } else {
            self.net_ns(name) / a.count as f64
        }
    }

    /// The trace file: per-name aggregates (self time equals total time for
    /// every child, children being leaves; the root's self time is what its
    /// children do not cover) plus the sampled spans.
    pub fn to_json(&self, workload: &str, variant: &str) -> Json {
        let totals: Vec<Agg> = (0..NAMES.len()).map(|i| self.agg_at(i)).collect();
        let names: Vec<Json> = NAMES
            .iter()
            .zip(&totals)
            .filter(|(_, a)| a.count > 0)
            .map(|(n, a)| {
                let self_ns = if *n == "op" {
                    self.op_self_ns
                } else {
                    a.total_ns
                };
                obj([
                    ("name", (*n).into()),
                    ("count", a.count.into()),
                    ("total_ns", a.total_ns.into()),
                    ("self_ns", self_ns.into()),
                    ("units", a.units.into()),
                ])
            })
            .collect();
        let spans: Vec<Json> = self
            .sampled
            .iter()
            .map(|s| {
                obj([
                    ("id", s.id.into()),
                    ("parent", s.parent.into()),
                    ("name", NAMES[s.name as usize].into()),
                    ("op_seq", s.op_seq.into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                ])
            })
            .collect();
        obj([
            ("workload", workload.into()),
            ("variant", variant.into()),
            ("sample_every", SAMPLE_EVERY.into()),
            ("timer_ns", self.timer_ns.into()),
            ("names", Json::Arr(names)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        t.op_begin(OpKind::Write);
        t.child(Name::PipeWrite, 10, 110, 4096);
        t.child(Name::LzfEnc, 120, 150, 4096);
        t.op_end();
        let op = t.agg(Name::Op);
        assert_eq!(op.count, 1);
        assert_eq!(t.agg(Name::PipeWrite).total_ns, 100);
        assert_eq!(t.op_self_ns, op.total_ns.saturating_sub(130));
        // Op 0 is sampled: root plus both children are kept verbatim.
        assert_eq!(t.sampled.len(), 3);
        assert!(t
            .sampled
            .iter()
            .filter(|s| s.parent != 0)
            .all(|s| s.parent == t.sampled[2].id));
    }

    #[test]
    fn one_op_in_sixty_four_is_sampled() {
        let mut t = Tracer::new();
        for _ in 0..(3 * SAMPLE_EVERY) {
            t.op_begin(OpKind::Read);
            let s = t.now();
            t.leaf(Name::Monitor, s, 1);
            t.op_end();
        }
        assert_eq!(t.sampled.len(), 6);
        assert_eq!(t.agg(Name::Monitor).count, 3 * SAMPLE_EVERY);
        assert_eq!(t.agg_kind(Name::Monitor, OpKind::Write).count, 0);
        assert_eq!(t.leaves(OpKind::Read).len(), 1);
    }
}
