//! The op-dispatch surface: one serializable [`Op`] enum and one entry
//! point, [`ShardedPipeline::dispatch`].
//!
//! Every externally observable mutation of a store is an [`Op`]: a value
//! that can be encoded to bytes, logged, hashed and replayed.
//! [`ShardedPipeline::dispatch`] is the one place an op becomes a call.
//! The recorder and replayer ([`crate::record`]) and the async ring's
//! drainers ([`crate::ring`]) all go through it, so a ring completion is
//! the blocking path's output by construction. A plain single-owner
//! pipeline is dispatched to as a one-shard store
//! ([`ShardedPipeline::from_pipeline`]).
//!
//! Outputs are summarized as [`OpOutput`] and digested to a `u64`
//! ([`OpOutput::digest`]) so a replay can diff observable behaviour
//! without storing payload bytes: read contents are captured as
//! `(len, checksum64)`, write results and reports field-by-field. Any
//! behavioural divergence — different codec choice, different allocation,
//! a fault firing at a different point — changes a digest.

use crate::dedup::DedupReport;
use crate::error::EdcError;
use crate::hints::FileTypeHint;
use crate::pipeline::{
    BatchWrite, PipelineStats, ReadError, RecompressReport, RecoveryReport, ScrubReport,
    WriteResult,
};
use crate::shard::ShardedPipeline;
use edc_compress::{checksum64, CodecId};
use edc_flash::{FaultPlan, FAULT_PLAN_BYTES};

/// One serializable store operation — the unit of record/replay.
///
/// Each op corresponds to one [`ShardedPipeline`] entry point; the
/// timestamp is *not* part of the op because time is drawn from a
/// [`Clock`](crate::clock::Clock) by the dispatcher and recorded
/// alongside the op (time is an input, see [`crate::clock`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Write `data` at byte `offset` (both 4 KiB-aligned).
    Write {
        /// Byte offset of the write (4 KiB-aligned).
        offset: u64,
        /// Payload (whole 4 KiB blocks).
        data: Vec<u8>,
    },
    /// A batch of writes sharing one drawn timestamp.
    WriteBatch {
        /// `(offset, data)` pairs, applied in order.
        writes: Vec<(u64, Vec<u8>)>,
    },
    /// Read `len` bytes at `offset` (both 4 KiB-aligned).
    Read {
        /// Byte offset (4 KiB-aligned).
        offset: u64,
        /// Length in bytes (4 KiB-aligned).
        len: u64,
    },
    /// Store every buffered run ([`ShardedPipeline::flush_all`]).
    Flush,
    /// Verify-and-heal pass over every live run ([`ShardedPipeline::scrub`]).
    Scrub,
    /// Read-only integrity audit ([`ShardedPipeline::verify`]).
    Verify,
    /// Rebuild the mapping from the journal ([`ShardedPipeline::recover`]) —
    /// typically after a [`Op::PowerCut`].
    Recover,
    /// Heat-aware background recompression pass.
    RecompressPass {
        /// Codec cold runs are rewritten with.
        target: CodecId,
        /// Rewrite budget (per shard on a sharded store).
        max_rewrites: u64,
    },
    /// Register a file-type hint over `[offset, offset + len)`.
    SetHint {
        /// Byte offset of the hinted range (4 KiB-aligned).
        offset: u64,
        /// Range length in bytes (4 KiB-aligned).
        len: u64,
        /// The hint.
        hint: FileTypeHint,
    },
    /// Replace the fault plan, restarting the decision stream.
    SetFaultPlan(FaultPlan),
    /// Tear shard `shard`'s journal to its first `bytes` bytes
    /// (simulates a cut mid-way through a journal page program).
    TruncateJournal {
        /// Shard index (0 on a plain pipeline).
        shard: u32,
        /// Bytes of journal to keep.
        bytes: u64,
    },
    /// Cut power immediately at this op boundary (deterministic "yank
    /// the cord now", independent of the program clock).
    PowerCut,
    /// Snapshot aggregate counters — recording one makes the replayer
    /// diff the full [`PipelineStats`] at that point.
    Stats,
    /// Cross-check the dedup refcount ledger against the mapping table
    /// both ways ([`ShardedPipeline::verify_dedup`]).
    VerifyDedup,
}

/// Byte tags of the [`Op`] wire encoding (one per variant).
mod tag {
    pub const WRITE: u8 = 1;
    pub const WRITE_BATCH: u8 = 2;
    pub const READ: u8 = 3;
    pub const FLUSH: u8 = 4;
    pub const SCRUB: u8 = 5;
    pub const VERIFY: u8 = 6;
    pub const RECOVER: u8 = 7;
    pub const RECOMPRESS: u8 = 8;
    pub const SET_HINT: u8 = 9;
    pub const SET_FAULT_PLAN: u8 = 10;
    pub const TRUNCATE_JOURNAL: u8 = 11;
    pub const POWER_CUT: u8 = 12;
    pub const STATS: u8 = 13;
    pub const VERIFY_DEDUP: u8 = 14;
}

/// Stable u8 encoding of a [`FileTypeHint`] for the wire format.
fn hint_to_u8(h: FileTypeHint) -> u8 {
    match h {
        FileTypeHint::Precompressed => 0,
        FileTypeHint::Text => 1,
        FileTypeHint::Database => 2,
        FileTypeHint::VmImage => 3,
    }
}

fn hint_from_u8(b: u8) -> Option<FileTypeHint> {
    Some(match b {
        0 => FileTypeHint::Precompressed,
        1 => FileTypeHint::Text,
        2 => FileTypeHint::Database,
        3 => FileTypeHint::VmImage,
        _ => return None,
    })
}

/// Little-endian cursor over a byte slice; every getter returns `None`
/// past the end so corrupt logs surface as parse failures, not panics.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.at)?;
        self.at += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.buf.get(self.at..self.at + 4)?;
        self.at += 4;
        Some(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.buf.get(self.at..self.at + 8)?;
        self.at += 8;
        Some(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let b = self.buf.get(self.at..self.at + n)?;
        self.at += n;
        Some(b)
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

impl Op {
    /// Append the wire encoding of this op to `out` (tag byte followed by
    /// fixed-width little-endian fields; payloads length-prefixed u32).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Op::Write { offset, data } => {
                out.push(tag::WRITE);
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                out.extend_from_slice(data);
            }
            Op::WriteBatch { writes } => {
                out.push(tag::WRITE_BATCH);
                out.extend_from_slice(&(writes.len() as u32).to_le_bytes());
                for (offset, data) in writes {
                    out.extend_from_slice(&offset.to_le_bytes());
                    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                    out.extend_from_slice(data);
                }
            }
            Op::Read { offset, len } => {
                out.push(tag::READ);
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            Op::Flush => out.push(tag::FLUSH),
            Op::Scrub => out.push(tag::SCRUB),
            Op::Verify => out.push(tag::VERIFY),
            Op::Recover => out.push(tag::RECOVER),
            Op::RecompressPass { target, max_rewrites } => {
                out.push(tag::RECOMPRESS);
                out.push(*target as u8);
                out.extend_from_slice(&max_rewrites.to_le_bytes());
            }
            Op::SetHint { offset, len, hint } => {
                out.push(tag::SET_HINT);
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.push(hint_to_u8(*hint));
            }
            Op::SetFaultPlan(plan) => {
                out.push(tag::SET_FAULT_PLAN);
                out.extend_from_slice(&plan.encode());
            }
            Op::TruncateJournal { shard, bytes } => {
                out.push(tag::TRUNCATE_JOURNAL);
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&bytes.to_le_bytes());
            }
            Op::PowerCut => out.push(tag::POWER_CUT),
            Op::Stats => out.push(tag::STATS),
            Op::VerifyDedup => out.push(tag::VERIFY_DEDUP),
        }
    }

    /// The wire encoding as a fresh buffer (see [`Op::encode_into`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decode one op that must span exactly `bytes`. Returns `None` on a
    /// bad tag, short/extra bytes, or invalid field values — corrupt logs
    /// fail parsing, they never panic.
    pub fn decode(bytes: &[u8]) -> Option<Op> {
        let mut c = Cursor::new(bytes);
        let op = match c.u8()? {
            tag::WRITE => {
                let offset = c.u64()?;
                let n = c.u32()? as usize;
                Op::Write { offset, data: c.bytes(n)?.to_vec() }
            }
            tag::WRITE_BATCH => {
                let count = c.u32()?;
                let mut writes = Vec::new();
                for _ in 0..count {
                    let offset = c.u64()?;
                    let n = c.u32()? as usize;
                    writes.push((offset, c.bytes(n)?.to_vec()));
                }
                Op::WriteBatch { writes }
            }
            tag::READ => Op::Read { offset: c.u64()?, len: c.u64()? },
            tag::FLUSH => Op::Flush,
            tag::SCRUB => Op::Scrub,
            tag::VERIFY => Op::Verify,
            tag::RECOVER => Op::Recover,
            tag::RECOMPRESS => Op::RecompressPass {
                target: CodecId::from_tag(c.u8()?)?,
                max_rewrites: c.u64()?,
            },
            tag::SET_HINT => Op::SetHint {
                offset: c.u64()?,
                len: c.u64()?,
                hint: hint_from_u8(c.u8()?)?,
            },
            tag::SET_FAULT_PLAN => Op::SetFaultPlan(FaultPlan::decode(c.bytes(FAULT_PLAN_BYTES)?)?),
            tag::TRUNCATE_JOURNAL => Op::TruncateJournal { shard: c.u32()?, bytes: c.u64()? },
            tag::POWER_CUT => Op::PowerCut,
            tag::STATS => Op::Stats,
            tag::VERIFY_DEDUP => Op::VerifyDedup,
            _ => return None,
        };
        c.done().then_some(op)
    }

    /// Short human-readable label for divergence reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Write { .. } => "write",
            Op::WriteBatch { .. } => "write_batch",
            Op::Read { .. } => "read",
            Op::Flush => "flush",
            Op::Scrub => "scrub",
            Op::Verify => "verify",
            Op::Recover => "recover",
            Op::RecompressPass { .. } => "recompress_pass",
            Op::SetHint { .. } => "set_hint",
            Op::SetFaultPlan(_) => "set_fault_plan",
            Op::TruncateJournal { .. } => "truncate_journal",
            Op::PowerCut => "power_cut",
            Op::Stats => "stats",
            Op::VerifyDedup => "verify_dedup",
        }
    }
}

/// The observable outcome of dispatching one [`Op`].
///
/// Read payloads are summarized as `(len, checksum64)` rather than kept,
/// so a log of a million reads stays compact while still pinning every
/// returned byte; errors are summarized by their `Display` string (the
/// typed errors all render deterministically).
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutput {
    /// Runs flushed by a write/flush op, in seal order.
    Writes(Vec<WriteResult>),
    /// A read's returned bytes, summarized.
    Read {
        /// Bytes returned.
        len: u64,
        /// `checksum64(payload, len)` of the returned bytes.
        checksum: u64,
    },
    /// Outcome of [`Op::Recover`].
    Recovery(RecoveryReport),
    /// Outcome of [`Op::Scrub`] or [`Op::Verify`].
    Scrub(ScrubReport),
    /// Outcome of [`Op::RecompressPass`].
    Recompress(RecompressReport),
    /// Outcome of [`Op::Stats`].
    Stats(PipelineStats),
    /// Outcome of [`Op::VerifyDedup`].
    Dedup(DedupReport),
    /// An op with no observable return value succeeded.
    Unit,
    /// The op failed; the typed error, rendered.
    Err(String),
}

impl OpOutput {
    /// Short label for divergence reports.
    pub fn kind(&self) -> &'static str {
        match self {
            OpOutput::Writes(_) => "writes",
            OpOutput::Read { .. } => "read",
            OpOutput::Recovery(_) => "recovery",
            OpOutput::Scrub(_) => "scrub",
            OpOutput::Recompress(_) => "recompress",
            OpOutput::Stats(_) => "stats",
            OpOutput::Dedup(_) => "dedup",
            OpOutput::Unit => "unit",
            OpOutput::Err(_) => "err",
        }
    }

    /// Wire tag of this output variant (stored in the log next to the
    /// digest so a divergence report can name both sides).
    pub fn tag(&self) -> u8 {
        match self {
            OpOutput::Writes(_) => 1,
            OpOutput::Read { .. } => 2,
            OpOutput::Recovery(_) => 3,
            OpOutput::Scrub(_) => 4,
            OpOutput::Recompress(_) => 5,
            OpOutput::Stats(_) => 6,
            OpOutput::Unit => 7,
            OpOutput::Err(_) => 8,
            OpOutput::Dedup(_) => 9,
        }
    }

    /// Collapse the output to a 64-bit digest of a canonical encoding.
    ///
    /// Two outputs digest equal iff every observable field matches —
    /// codec tags, allocated bytes, report counters, read checksums, the
    /// full stats snapshot. This is the value the replayer diffs.
    pub fn digest(&self) -> u64 {
        let mut buf = Vec::with_capacity(128);
        let push = |buf: &mut Vec<u8>, v: u64| buf.extend_from_slice(&v.to_le_bytes());
        match self {
            OpOutput::Writes(rs) => {
                push(&mut buf, rs.len() as u64);
                for r in rs {
                    push(&mut buf, r.start_block);
                    push(&mut buf, u64::from(r.blocks));
                    buf.push(r.tag as u8);
                    push(&mut buf, r.payload_bytes);
                    push(&mut buf, r.allocated_bytes);
                }
            }
            OpOutput::Read { len, checksum } => {
                push(&mut buf, *len);
                push(&mut buf, *checksum);
            }
            OpOutput::Recovery(r) => {
                push(&mut buf, r.scanned_records);
                push(&mut buf, r.replayed_runs);
                push(&mut buf, r.payload_mismatches);
                buf.push(r.torn_tail as u8);
            }
            OpOutput::Scrub(r) => {
                push(&mut buf, r.scanned);
                push(&mut buf, r.clean);
                push(&mut buf, r.repaired);
                push(&mut buf, r.unrecoverable);
            }
            OpOutput::Recompress(r) => {
                push(&mut buf, r.scanned);
                push(&mut buf, r.recompressed);
                push(&mut buf, r.demoted);
                push(&mut buf, r.skipped_precompressed);
                push(&mut buf, r.skipped_demoted);
                push(&mut buf, r.skipped_no_gain);
                push(&mut buf, r.skipped_unreadable);
                push(&mut buf, r.skipped_shared);
                push(&mut buf, r.bytes_reclaimed);
            }
            OpOutput::Stats(s) => {
                push(&mut buf, s.logical_written);
                push(&mut buf, s.physical_written);
                push(&mut buf, s.mapped_blocks);
                push(&mut buf, s.live_runs);
                push(&mut buf, s.journal_records);
                push(&mut buf, s.journal_bytes);
                push(&mut buf, s.degraded_reads);
                push(&mut buf, s.programs);
                push(&mut buf, s.recompressed_runs);
                push(&mut buf, s.demoted_runs);
                push(&mut buf, s.cache.hits);
                push(&mut buf, s.cache.misses);
                push(&mut buf, s.cache.evictions);
                push(&mut buf, s.cache.invalidations);
                push(&mut buf, s.dedup_hits);
                push(&mut buf, s.dedup_elided_bytes);
            }
            OpOutput::Dedup(r) => {
                push(&mut buf, r.runs);
                push(&mut buf, r.shared_runs);
                push(&mut buf, r.extra_refs);
            }
            OpOutput::Unit => {}
            OpOutput::Err(msg) => buf.extend_from_slice(msg.as_bytes()),
        }
        checksum64(&buf, u64::from(self.tag()))
    }

    /// Fold a write/flush outcome into an output record.
    fn from_writes(r: Result<Vec<WriteResult>, EdcError>) -> OpOutput {
        match r {
            Ok(v) => OpOutput::Writes(v),
            Err(e) => OpOutput::Err(e.to_string()),
        }
    }

    /// Fold a read outcome into an output record (length + checksum
    /// summary on success, rendered error otherwise).
    fn from_read(r: Result<Vec<u8>, ReadError>) -> OpOutput {
        match r {
            Ok(bytes) => OpOutput::Read {
                len: bytes.len() as u64,
                checksum: checksum64(&bytes, bytes.len() as u64),
            },
            Err(e) => OpOutput::Err(e.to_string()),
        }
    }
}

impl ShardedPipeline {
    /// Apply one op at time `now_ns` — the single dispatch point of the
    /// whole API. Invalid parameters (unaligned or empty hint ranges,
    /// out-of-range shard indices, reads and writes running past the
    /// address space or the device) come back as [`OpOutput::Err`], never
    /// a panic or an unbounded allocation, so a corrupt or adversarial log
    /// replays safely.
    pub fn dispatch(&self, now_ns: u64, op: &Op) -> OpOutput {
        match op {
            Op::Write { offset, data } => OpOutput::from_writes(self.write_batch(&[BatchWrite {
                now_ns,
                offset: *offset,
                data,
            }])),
            Op::WriteBatch { writes } => {
                let batch: Vec<BatchWrite<'_>> = writes
                    .iter()
                    .map(|(offset, data)| BatchWrite { now_ns, offset: *offset, data })
                    .collect();
                OpOutput::from_writes(self.write_batch(&batch))
            }
            Op::Read { offset, len } => OpOutput::from_read(self.read(now_ns, *offset, *len)),
            Op::Flush => OpOutput::from_writes(self.flush_all(now_ns)),
            Op::Scrub => match self.scrub() {
                Ok(r) => OpOutput::Scrub(r),
                Err(e) => OpOutput::Err(e.to_string()),
            },
            Op::Verify => match self.verify() {
                Ok(r) => OpOutput::Scrub(r),
                Err(e) => OpOutput::Err(e.to_string()),
            },
            Op::Recover => match self.recover() {
                Ok(r) => OpOutput::Recovery(r),
                Err(e) => OpOutput::Err(e.to_string()),
            },
            Op::RecompressPass { target, max_rewrites } => {
                let budget = usize::try_from(*max_rewrites).unwrap_or(usize::MAX);
                match self.recompress(now_ns, *target, budget) {
                    Ok(r) => OpOutput::Recompress(r),
                    Err(e) => OpOutput::Err(e.to_string()),
                }
            }
            Op::SetHint { offset, len, hint } => {
                if !offset.is_multiple_of(crate::scheme::BLOCK_BYTES)
                    || !len.is_multiple_of(crate::scheme::BLOCK_BYTES)
                {
                    return OpOutput::Err("unaligned hint range".to_string());
                }
                if *len == 0 {
                    return OpOutput::Err("empty hint range".to_string());
                }
                if offset.checked_add(*len).is_none() {
                    return OpOutput::Err("hint range out of bounds".to_string());
                }
                self.set_hint(*offset, *len, *hint);
                OpOutput::Unit
            }
            Op::SetFaultPlan(plan) => {
                if !(0.0..=1.0).contains(&plan.read_error_rate)
                    || !(0.0..=1.0).contains(&plan.program_error_rate)
                    || !(0.0..=1.0).contains(&plan.erase_error_rate)
                    || !(0.0..=1.0).contains(&plan.bit_rot_rate)
                {
                    return OpOutput::Err("fault rate outside [0, 1]".to_string());
                }
                self.set_fault_plan(*plan);
                OpOutput::Unit
            }
            Op::TruncateJournal { shard, bytes } => {
                let shard = *shard as usize;
                if shard >= self.shard_count() {
                    return OpOutput::Err(format!("shard {shard} out of range"));
                }
                let bytes = usize::try_from(*bytes).unwrap_or(usize::MAX);
                self.truncate_journal_bytes(shard, bytes);
                OpOutput::Unit
            }
            Op::PowerCut => {
                self.cut_power();
                OpOutput::Unit
            }
            Op::Stats => OpOutput::Stats(self.stats()),
            Op::VerifyDedup => match self.verify_dedup() {
                Ok(r) => OpOutput::Dedup(r),
                Err(e) => OpOutput::Err(e.to_string()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::Write { offset: 4096, data: vec![7u8; 8192] },
            Op::WriteBatch {
                writes: vec![(0, vec![1u8; 4096]), (1 << 20, vec![2u8; 4096])],
            },
            Op::Read { offset: 4096, len: 8192 },
            Op::Flush,
            Op::Scrub,
            Op::Verify,
            Op::Recover,
            Op::RecompressPass { target: CodecId::Deflate, max_rewrites: 42 },
            Op::SetHint { offset: 0, len: 4096, hint: FileTypeHint::Database },
            Op::SetFaultPlan(FaultPlan {
                seed: 5,
                bit_rot_rate: 0.25,
                ..FaultPlan::none()
            }),
            Op::TruncateJournal { shard: 3, bytes: 130 },
            Op::PowerCut,
            Op::Stats,
            Op::VerifyDedup,
        ]
    }

    #[test]
    fn every_op_round_trips() {
        for op in sample_ops() {
            let bytes = op.encode();
            assert_eq!(Op::decode(&bytes), Some(op.clone()), "round trip of {}", op.kind());
        }
    }

    #[test]
    fn decode_rejects_trailing_and_truncated_bytes() {
        for op in sample_ops() {
            let mut bytes = op.encode();
            bytes.push(0);
            assert_eq!(Op::decode(&bytes), None, "trailing byte accepted for {}", op.kind());
            bytes.pop();
            bytes.pop();
            if bytes.is_empty() {
                continue;
            }
            assert_eq!(Op::decode(&bytes), None, "truncation accepted for {}", op.kind());
        }
        assert_eq!(Op::decode(&[]), None);
        assert_eq!(Op::decode(&[0xFF]), None);
    }

    /// The three store shapes a log can name: a plain pipeline adopted as
    /// one shard (`shards = 0`), and one and two shards.
    fn fresh_stores() -> [ShardedPipeline; 3] {
        use crate::pipeline::{EdcPipeline, PipelineConfig};
        use crate::shard::ShardConfig;
        let sharded = |shards| {
            ShardedPipeline::new(1 << 20, ShardConfig { shards, ..ShardConfig::default() })
        };
        [
            ShardedPipeline::from_pipeline(EdcPipeline::new(1 << 20, PipelineConfig::default())),
            sharded(1),
            sharded(2),
        ]
    }

    #[test]
    fn adversarial_ranges_come_back_typed_on_every_front_end() {
        use crate::ring::{Ring, RingConfig, RingError};

        // Well-formed ops a corrupt or hostile log can carry: a read far
        // larger than any device, a read and a write whose end wraps the
        // 64-bit address space, an empty hint range, and a hint range
        // over a quarter of the address space (accepted: `Unit`).
        let table = [
            (Op::Read { offset: 0, len: 1 << 46 }, Some("read runs past")),
            (Op::Read { offset: u64::MAX - 4095, len: 8192 }, Some("read runs past")),
            (Op::Write { offset: u64::MAX - 4095, data: vec![7u8; 8192] }, Some("write runs past")),
            (Op::SetHint { offset: 0, len: 0, hint: FileTypeHint::Text }, Some("empty hint range")),
            (Op::SetHint { offset: 0, len: 1 << 62, hint: FileTypeHint::Text }, None),
        ];
        for (op, want) in &table {
            let check = |out: OpOutput, path: &str| match (want, out) {
                (Some(want), OpOutput::Err(msg)) => assert!(msg.contains(want), "{op:?}: {msg}"),
                (None, OpOutput::Unit) => {}
                (_, other) => panic!("{op:?} {path}: {other:?}"),
            };
            for store in fresh_stores() {
                check(store.dispatch(0, op), &format!("on {} shard(s)", store.shard_count()));
                // The op left the store usable.
                let block = Op::Write { offset: 0, data: vec![1u8; 4096] };
                assert!(matches!(store.dispatch(1, &block), OpOutput::Writes(_)));
                let read = store.dispatch(2, &Op::Read { offset: 0, len: 4096 });
                assert!(matches!(read, OpOutput::Read { len: 4096, .. }), "{read:?}");
            }
            for store in fresh_stores() {
                Ring::serve(&store, RingConfig::default(), |ring| {
                    match ring.submit(0, op.clone()) {
                        // Refused at the door...
                        Err(e) => assert!(
                            matches!(
                                e,
                                RingError::OutOfRange
                                    | RingError::CrossShard
                                    | RingError::Unsupported("set_hint")
                            ),
                            "{op:?}: {e}"
                        ),
                        // ...or by the pipeline, exactly as on the blocking path.
                        Ok(t) => check(ring.wait(t).unwrap(), "through the ring"),
                    }
                });
            }
        }
    }

    #[test]
    fn mutated_op_encodings_dispatch_without_panicking() {
        use edc_datagen::rng::Rng64;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        // Values that sit on the boundaries `dispatch` has to police.
        const INTERESTING: [u64; 7] =
            [0, 1, 4096, 1 << 46, 1 << 62, u64::MAX - 4095, u64::MAX];
        let seeds: Vec<Vec<u8>> = sample_ops().iter().map(Op::encode).collect();
        let mut rng = Rng64::seed_from_u64(0xED_C0FF);
        let mut decoded = 0;
        for case in 0..2_000 {
            let mut bytes = seeds[rng.below_usize(seeds.len())].clone();
            for _ in 0..rng.range_usize(1, 4) {
                match rng.below(4) {
                    // Byte flip.
                    0 if !bytes.is_empty() => {
                        let i = rng.below_usize(bytes.len());
                        bytes[i] ^= rng.range_u64(1, 256) as u8;
                    }
                    // A boundary value over any 8-byte window.
                    1 if bytes.len() >= 8 => {
                        let i = rng.below_usize(bytes.len() - 7);
                        let v = INTERESTING[rng.below_usize(INTERESTING.len())];
                        bytes[i..i + 8].copy_from_slice(&v.to_le_bytes());
                    }
                    // Truncation.
                    2 => bytes.truncate(rng.below_usize(bytes.len() + 1)),
                    // Splice: this prefix, another encoding's suffix.
                    _ => {
                        let other = &seeds[rng.below_usize(seeds.len())];
                        bytes.truncate(rng.below_usize(bytes.len() + 1));
                        bytes.extend_from_slice(&other[rng.below_usize(other.len() + 1)..]);
                    }
                }
            }
            let Some(op) = Op::decode(&bytes) else { continue };
            decoded += 1;
            for store in fresh_stores() {
                let shards = store.shard_count();
                let run = catch_unwind(AssertUnwindSafe(|| store.dispatch(1, &op)));
                assert!(run.is_ok(), "case {case}: {op:?} panicked on {shards} shard(s)");
            }
        }
        assert!(decoded > 300, "only {decoded} of 2000 mutants decoded");
    }

    #[test]
    fn digests_separate_variants_and_fields() {
        let a = OpOutput::Unit;
        let b = OpOutput::Err(String::new());
        assert_ne!(a.digest(), b.digest(), "empty payloads must still differ by variant");
        let r1 = OpOutput::Read { len: 4096, checksum: 1 };
        let r2 = OpOutput::Read { len: 4096, checksum: 2 };
        assert_ne!(r1.digest(), r2.digest());
        assert_eq!(r1.digest(), OpOutput::Read { len: 4096, checksum: 1 }.digest());
    }

    #[test]
    fn write_result_digest_tracks_every_field() {
        let base = WriteResult {
            start_block: 1,
            blocks: 2,
            tag: CodecId::Lz4,
            payload_bytes: 100,
            allocated_bytes: 1024,
        };
        let d0 = OpOutput::Writes(vec![base.clone()]).digest();
        for variant in [
            WriteResult { start_block: 9, ..base.clone() },
            WriteResult { blocks: 3, ..base.clone() },
            WriteResult { tag: CodecId::Lzf, ..base.clone() },
            WriteResult { payload_bytes: 101, ..base.clone() },
            WriteResult { allocated_bytes: 2048, ..base },
        ] {
            assert_ne!(OpOutput::Writes(vec![variant]).digest(), d0);
        }
    }
}
