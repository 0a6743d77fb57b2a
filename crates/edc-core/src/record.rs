//! Deterministic record/replay: the `.edcrr` log format.
//!
//! A [`Recorder`] captures every [`Op`] dispatched to a
//! [`ShardedPipeline`], together with the timestamp drawn from the
//! [`Clock`] and a digest of the op's observable output, into a compact
//! length-prefixed binary log. A [`Replayer`] rebuilds a fresh store from
//! the log's [`StoreSpec`] header, re-applies every op with the recorded
//! timestamps through [`ShardedPipeline::dispatch`], and diffs the output
//! digests — any fuzz crash, power-cut loss, or fault-campaign anomaly
//! becomes a replayable artifact and a golden test, the same trick
//! `wasm-rr` uses.
//!
//! Determinism rests on three design decisions made elsewhere:
//! timestamps are recorded inputs (not sampled by the store), fault
//! decisions are a pure function of `(seed, draw counter)`
//! ([`edc_flash::FaultState`]), and a run is compressed on the calling
//! thread when it seals. Given those, `(spec, ops, timestamps)`
//! determines every observable output, so a digest mismatch on replay is
//! a real behavioural divergence — a changed codec choice, allocation,
//! fault landing point, or recovered state.
//!
//! ## Wire format
//!
//! ```text
//! header:  magic "EDCRR2\0\0" | StoreSpec (93 B fixed) | crc64(header)
//! record:  payload_len u32 | payload | crc64(payload, seq)
//! payload: now_ns u64 | op_len u32 | op bytes | output tag u8 | output digest u64
//! ```
//!
//! All integers little-endian. Each record's CRC is seeded with its
//! sequence number (like the mapping journal), so reordered or truncated
//! records surface as a torn tail, never as silent misparse.

use crate::clock::Clock;
use crate::pipeline::{EdcPipeline, PipelineConfig};
use crate::shard::{ShardConfig, ShardedPipeline};
use crate::store::{Op, OpOutput};
use edc_compress::checksum64;
use edc_flash::{FaultPlan, FAULT_PLAN_BYTES};

/// Magic bytes opening every `.edcrr` log. Bumped to `EDCRR2` when the
/// spec grew its dedup flag byte; v1 logs no longer parse (re-record).
pub const MAGIC: [u8; 8] = *b"EDCRR2\0\0";

/// Fixed encoded size of a [`StoreSpec`].
pub const SPEC_BYTES: usize = 40 + FAULT_PLAN_BYTES;

/// Everything needed to rebuild the recorded store from scratch.
///
/// The spec pins the store *shape* (capacity, sharding, cache, parity,
/// heat policy, fault plan). The codec ladder is either the paper
/// default or, with [`StoreSpec::fast_ladder`], pinned to the fast
/// rung; estimator and allocator use defaults — campaigns that need
/// anything fancier replay via [`Replayer::replay_against`] with their
/// own store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreSpec {
    /// Device capacity in bytes (split evenly across shards).
    pub capacity_bytes: u64,
    /// Shard count; `1..=16` builds a [`ShardedPipeline`] of that many
    /// shards, and `0` a plain [`EdcPipeline`] adopted as one shard
    /// ([`ShardedPipeline::from_pipeline`]: no extent routing, no
    /// per-shard heat extents).
    pub shards: u32,
    /// Extent size in 4 KiB blocks (sharded stores only).
    pub extent_blocks: u64,
    /// Read-cache capacity in runs (0 disables).
    pub cache_runs: u32,
    /// Store an XOR parity page with every run.
    pub parity: bool,
    /// Enable heat tracking / background recompression.
    pub heat_enabled: bool,
    /// Enable the content-defined dedup front-end.
    pub dedup: bool,
    /// Pin the codec ladder to its fast rung (Lzf at every IOPS level)
    /// instead of the paper-default elastic ladder. Fixtures that
    /// exercise background recompression record with this set so the
    /// write path leaves headroom for the pass to upgrade cold runs.
    pub fast_ladder: bool,
    /// Heat decay half-life in simulated ns.
    pub heat_half_life_ns: u64,
    /// Initial fault plan (later plans arrive as
    /// [`Op::SetFaultPlan`] records).
    pub fault: FaultPlan,
}

impl Default for StoreSpec {
    fn default() -> Self {
        StoreSpec {
            capacity_bytes: 64 << 20,
            shards: 0,
            extent_blocks: 64,
            cache_runs: 32,
            parity: false,
            heat_enabled: true,
            dedup: false,
            fast_ladder: false,
            heat_half_life_ns: 1_000_000_000,
            fault: FaultPlan::none(),
        }
    }
}

impl StoreSpec {
    /// Fixed-width encoding (see [`SPEC_BYTES`]). Bytes 20..24 are a
    /// reserved word (the retired worker count of older logs): written as
    /// 0, ignored by [`StoreSpec::decode`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SPEC_BYTES);
        out.extend_from_slice(&self.capacity_bytes.to_le_bytes());
        out.extend_from_slice(&self.shards.to_le_bytes());
        out.extend_from_slice(&self.extent_blocks.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&self.cache_runs.to_le_bytes());
        out.push(self.parity as u8);
        out.push(self.heat_enabled as u8);
        out.push(self.dedup as u8);
        out.push(self.fast_ladder as u8);
        out.extend_from_slice(&self.heat_half_life_ns.to_le_bytes());
        out.extend_from_slice(&self.fault.encode());
        debug_assert_eq!(out.len(), SPEC_BYTES);
        out
    }

    /// Inverse of [`StoreSpec::encode`]; `None` on short input or invalid
    /// flag bytes.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < SPEC_BYTES {
            return None;
        }
        let u64_at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
        if bytes[28] > 1 || bytes[29] > 1 || bytes[30] > 1 || bytes[31] > 1 {
            return None;
        }
        Some(StoreSpec {
            capacity_bytes: u64_at(0),
            shards: u32_at(8),
            extent_blocks: u64_at(12),
            cache_runs: u32_at(24),
            parity: bytes[28] == 1,
            heat_enabled: bytes[29] == 1,
            dedup: bytes[30] == 1,
            fast_ladder: bytes[31] == 1,
            heat_half_life_ns: u64_at(32),
            fault: FaultPlan::decode(&bytes[40..40 + FAULT_PLAN_BYTES])?,
        })
    }

    /// The pipeline configuration this spec describes (defaults for the
    /// codec ladder, estimator and allocator).
    pub fn pipeline_config(&self) -> PipelineConfig {
        let selector = if self.fast_ladder {
            crate::selector::SelectorConfig {
                rungs: vec![crate::selector::LadderRung {
                    max_calc_iops: f64::INFINITY,
                    codec: edc_compress::CodecId::Lzf,
                }],
            }
        } else {
            crate::selector::SelectorConfig::default()
        };
        PipelineConfig {
            cache_runs: self.cache_runs as usize,
            parity: self.parity,
            fault: self.fault,
            selector,
            dedup: crate::dedup::DedupConfig {
                enabled: self.dedup,
                ..crate::dedup::DedupConfig::default()
            },
            heat: crate::heat::HeatConfig {
                enabled: self.heat_enabled,
                half_life_ns: self.heat_half_life_ns.max(1),
                ..crate::heat::HeatConfig::default()
            },
            ..PipelineConfig::default()
        }
    }

    /// Build a fresh store of the recorded shape.
    ///
    /// # Panics
    ///
    /// Panics if the spec violates store invariants (shards > 16,
    /// capacity below one block per shard) — validate specs from
    /// untrusted bytes with [`StoreSpec::validate`] first.
    pub fn build(&self) -> ShardedPipeline {
        if self.shards == 0 {
            ShardedPipeline::from_pipeline(EdcPipeline::new(
                self.capacity_bytes,
                self.pipeline_config(),
            ))
        } else {
            ShardedPipeline::new(
                self.capacity_bytes,
                ShardConfig {
                    shards: self.shards as usize,
                    extent_blocks: self.extent_blocks,
                    pipeline: self.pipeline_config(),
                },
            )
        }
    }

    /// Check the spec can be built without panicking.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards > 16 {
            return Err(format!("shard count {} exceeds 16", self.shards));
        }
        if self.shards > 0 && self.extent_blocks == 0 {
            return Err("extent_blocks must be >= 1".to_string());
        }
        let ways = u64::from(self.shards.max(1));
        if self.capacity_bytes / ways < crate::scheme::BLOCK_BYTES {
            return Err("capacity below one block per shard".to_string());
        }
        for rate in [
            self.fault.read_error_rate,
            self.fault.program_error_rate,
            self.fault.erase_error_rate,
            self.fault.bit_rot_rate,
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault rate {rate} outside [0, 1]"));
            }
        }
        Ok(())
    }
}

/// Appends `(now_ns, op, output digest)` records to an in-memory
/// `.edcrr` log.
pub struct Recorder {
    spec: StoreSpec,
    buf: Vec<u8>,
    ops: u64,
}

impl Recorder {
    /// Start a log for a store built from `spec` (the header is written
    /// immediately).
    pub fn new(spec: StoreSpec) -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&spec.encode());
        let crc = checksum64(&buf, 0);
        buf.extend_from_slice(&crc.to_le_bytes());
        Recorder { spec, buf, ops: 0 }
    }

    /// The spec this log opens with.
    pub fn spec(&self) -> &StoreSpec {
        &self.spec
    }

    /// Append one already-dispatched op with its drawn timestamp and
    /// observed output.
    pub fn record(&mut self, now_ns: u64, op: &Op, output: &OpOutput) {
        let mut payload = Vec::with_capacity(32);
        payload.extend_from_slice(&now_ns.to_le_bytes());
        let op_bytes = op.encode();
        payload.extend_from_slice(&(op_bytes.len() as u32).to_le_bytes());
        payload.extend_from_slice(&op_bytes);
        payload.push(output.tag());
        payload.extend_from_slice(&output.digest().to_le_bytes());
        self.buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let crc = checksum64(&payload, self.ops);
        self.buf.extend_from_slice(&payload);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.ops += 1;
    }

    /// Draw a timestamp from `clock`, dispatch `op` against `store`
    /// ([`ShardedPipeline::dispatch`]), record the outcome, and hand the
    /// output back — the one-liner that makes any driver loop a recorded
    /// driver loop.
    pub fn apply(&mut self, store: &ShardedPipeline, clock: &mut impl Clock, op: &Op) -> OpOutput {
        let now_ns = clock.now_ns();
        let output = store.dispatch(now_ns, op);
        self.record(now_ns, op, &output);
        output
    }

    /// Ops recorded so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The complete log bytes (header + records).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the recorder, returning the log bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write the log to `path` (conventionally `*.edcrr`).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, &self.buf)
    }
}

/// One parsed log record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Timestamp drawn for the op.
    pub now_ns: u64,
    /// The op itself.
    pub op: Op,
    /// Wire tag of the recorded output variant.
    pub output_tag: u8,
    /// Digest of the recorded output.
    pub output_digest: u64,
}

/// A fully parsed `.edcrr` log.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedLog {
    /// The store shape recorded in the header.
    pub spec: StoreSpec,
    /// Every intact record, in order.
    pub records: Vec<LogRecord>,
    /// Whether parsing stopped at a truncated or corrupt record; the
    /// records before the tear are trustworthy (per-record CRCs).
    pub torn_tail: bool,
}

/// Parse a `.edcrr` log. A bad header is an error; a torn record tail is
/// tolerated and flagged ([`ParsedLog::torn_tail`]).
pub fn parse(bytes: &[u8]) -> Result<ParsedLog, String> {
    let header_len = MAGIC.len() + SPEC_BYTES;
    if bytes.len() < header_len + 8 {
        return Err("log shorter than the header".to_string());
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err("bad magic (not an .edcrr log)".to_string());
    }
    let crc = u64::from_le_bytes(bytes[header_len..header_len + 8].try_into().unwrap());
    if checksum64(&bytes[..header_len], 0) != crc {
        return Err("header checksum mismatch".to_string());
    }
    let spec = StoreSpec::decode(&bytes[MAGIC.len()..header_len])
        .ok_or_else(|| "invalid store spec".to_string())?;
    spec.validate()?;

    let mut records = Vec::new();
    let mut torn_tail = false;
    let mut at = header_len + 8;
    let mut seq = 0u64;
    while at < bytes.len() {
        let parsed = (|| {
            let len_bytes = bytes.get(at..at + 4)?;
            let payload_len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
            let payload = bytes.get(at + 4..at + 4 + payload_len)?;
            let crc_bytes = bytes.get(at + 4 + payload_len..at + 12 + payload_len)?;
            let crc = u64::from_le_bytes(crc_bytes.try_into().unwrap());
            if checksum64(payload, seq) != crc {
                return None;
            }
            if payload.len() < 21 {
                return None;
            }
            let now_ns = u64::from_le_bytes(payload[..8].try_into().unwrap());
            let op_len = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
            let op_bytes = payload.get(12..12 + op_len)?;
            let tail = payload.get(12 + op_len..)?;
            if tail.len() != 9 {
                return None;
            }
            let op = Op::decode(op_bytes)?;
            Some((
                LogRecord {
                    now_ns,
                    op,
                    output_tag: tail[0],
                    output_digest: u64::from_le_bytes(tail[1..9].try_into().unwrap()),
                },
                at + 12 + payload_len,
            ))
        })();
        match parsed {
            Some((rec, next)) => {
                records.push(rec);
                at = next;
                seq += 1;
            }
            None => {
                torn_tail = true;
                break;
            }
        }
    }
    Ok(ParsedLog { spec, records, torn_tail })
}

/// One point where a replayed output differed from the recorded one.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Record index (0-based) within the log.
    pub index: u64,
    /// Kind of the diverging op (see [`Op::kind`]).
    pub op: String,
    /// Output variant tag recorded at capture time.
    pub expected_tag: u8,
    /// Output digest recorded at capture time.
    pub expected_digest: u64,
    /// The output the replay actually produced.
    pub actual: OpOutput,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "op #{} ({}): recorded output tag {} digest {:#018x}, replay produced {} digest {:#018x}",
            self.index,
            self.op,
            self.expected_tag,
            self.expected_digest,
            self.actual.kind(),
            self.actual.digest()
        )
    }
}

/// What a replay found.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayReport {
    /// Ops re-executed.
    pub ops: u64,
    /// Every output mismatch, in log order.
    pub divergences: Vec<Divergence>,
    /// Whether the log ended in a torn/corrupt record (the intact prefix
    /// was still replayed).
    pub torn_tail: bool,
}

impl ReplayReport {
    /// True when the replay was bit-exact: no divergence, no torn tail.
    pub fn is_exact(&self) -> bool {
        self.divergences.is_empty() && !self.torn_tail
    }
}

/// Why [`Replayer::replay_as`] refused to run a log.
///
/// Replaying a log against a store of a different *shape* than the one
/// it was recorded on — different capacity, sharding, parity layout, or
/// fault plan — produces a wall of digest divergences that look like
/// behavioural regressions but are really a harness mistake. Array
/// campaigns hit this first: a RAIS-backed store presents a different
/// geometry than the single-device specs all existing goldens were
/// recorded against, so the replay layer refuses up front with a typed
/// error instead of diverging op by op.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayRefusal {
    /// The log bytes failed to parse (bad magic, torn header, invalid
    /// spec) — same failures [`parse`] reports.
    Parse(String),
    /// The target store's shape disagrees with the spec the log was
    /// recorded against on a behaviour-determining field.
    SpecMismatch {
        /// Name of the first disagreeing [`StoreSpec`] field.
        field: &'static str,
        /// The value the log was recorded with.
        recorded: String,
        /// The value the replay target declares.
        actual: String,
    },
}

impl std::fmt::Display for ReplayRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayRefusal::Parse(e) => write!(f, "log does not parse: {e}"),
            ReplayRefusal::SpecMismatch { field, recorded, actual } => write!(
                f,
                "replay target shape disagrees with the recorded spec: \
                 {field} was recorded as {recorded}, target declares {actual}"
            ),
        }
    }
}

impl std::error::Error for ReplayRefusal {}

impl StoreSpec {
    /// Check that a store built from `self` can faithfully replay a log
    /// recorded against `recorded`, reporting the first disagreeing
    /// shape field as a typed [`ReplayRefusal::SpecMismatch`].
    pub fn require_matches(&self, recorded: &StoreSpec) -> Result<(), ReplayRefusal> {
        macro_rules! same {
            ($field:ident) => {
                if self.$field != recorded.$field {
                    return Err(ReplayRefusal::SpecMismatch {
                        field: stringify!($field),
                        recorded: format!("{:?}", recorded.$field),
                        actual: format!("{:?}", self.$field),
                    });
                }
            };
        }
        same!(capacity_bytes);
        same!(shards);
        same!(extent_blocks);
        same!(cache_runs);
        same!(parity);
        same!(heat_enabled);
        same!(dedup);
        same!(fast_ladder);
        same!(heat_half_life_ns);
        same!(fault);
        Ok(())
    }
}

/// Re-executes `.edcrr` logs against fresh stores.
pub struct Replayer;

impl Replayer {
    /// Parse `bytes`, rebuild the recorded store shape, and re-dispatch
    /// every op with its recorded timestamp, diffing output digests.
    pub fn replay(bytes: &[u8]) -> Result<ReplayReport, String> {
        let log = parse(bytes)?;
        Ok(Self::replay_against(&log.spec.build(), &log))
    }

    /// Replay `bytes` onto a fresh store built from `target`, refusing
    /// with a typed [`ReplayRefusal`] when `target`'s shape disagrees
    /// with the spec the log was recorded against.
    ///
    /// This is the entry point for harnesses that *declare* the store
    /// they intend to replay on (an array-backed campaign, a re-shaped
    /// fuzz target): a log captured on a single-device spec is rejected
    /// before the first op is dispatched, instead of replaying into a
    /// wall of meaningless digest divergences.
    pub fn replay_as(target: &StoreSpec, bytes: &[u8]) -> Result<ReplayReport, ReplayRefusal> {
        let log = parse(bytes).map_err(ReplayRefusal::Parse)?;
        target.require_matches(&log.spec)?;
        Ok(Self::replay_against(&target.build(), &log))
    }

    /// Replay an already-parsed log against a caller-provided store —
    /// the hook for stores with non-default ladders or estimators (a
    /// custom plain pipeline goes in through
    /// [`ShardedPipeline::from_pipeline`]). The store must be freshly
    /// built to the same shape the log records, or every digest will
    /// (rightly) diverge.
    pub fn replay_against(store: &ShardedPipeline, log: &ParsedLog) -> ReplayReport {
        let mut report =
            ReplayReport { ops: 0, divergences: Vec::new(), torn_tail: log.torn_tail };
        for (i, rec) in log.records.iter().enumerate() {
            let output = store.dispatch(rec.now_ns, &rec.op);
            report.ops += 1;
            if output.digest() != rec.output_digest || output.tag() != rec.output_tag {
                report.divergences.push(Divergence {
                    index: i as u64,
                    op: rec.op.kind().to_string(),
                    expected_tag: rec.output_tag,
                    expected_digest: rec.output_digest,
                    actual: output,
                });
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn spec_round_trips() {
        let spec = StoreSpec {
            capacity_bytes: 128 << 20,
            shards: 8,
            extent_blocks: 32,
            cache_runs: 64,
            parity: true,
            heat_enabled: false,
            dedup: true,
            fast_ladder: true,
            heat_half_life_ns: 77,
            fault: FaultPlan { seed: 3, read_error_rate: 0.01, ..FaultPlan::none() },
        };
        assert_eq!(StoreSpec::decode(&spec.encode()), Some(spec));
        assert_eq!(StoreSpec::decode(&[0u8; SPEC_BYTES - 1]), None);
    }

    fn drive(spec: StoreSpec) -> Vec<u8> {
        let store = spec.build();
        let mut clock = ManualClock::new(0, 1_000_000);
        let mut rec = Recorder::new(spec);
        let ops = [
            Op::Write { offset: 0, data: vec![0x41; 16384] },
            Op::Write { offset: 16384, data: (0..4096u32).flat_map(|i| (i as u8).to_le_bytes()).collect() },
            Op::Flush,
            Op::Read { offset: 0, len: 16384 },
            Op::Stats,
            Op::PowerCut,
            Op::Read { offset: 0, len: 4096 },
            Op::Recover,
            Op::Read { offset: 0, len: 16384 },
            Op::Stats,
        ];
        for op in &ops {
            rec.apply(&store, &mut clock, op);
        }
        rec.into_bytes()
    }

    #[test]
    fn record_replay_is_bit_exact_plain_and_sharded() {
        for shards in [0u32, 4] {
            let bytes = drive(StoreSpec { shards, ..StoreSpec::default() });
            let report = Replayer::replay(&bytes).expect("parse");
            assert_eq!(report.ops, 10);
            assert!(report.is_exact(), "divergences: {:?}", report.divergences);
        }
    }

    #[test]
    fn tampered_log_data_diverges_on_replay() {
        let bytes = drive(StoreSpec::default());
        let log = parse(&bytes).unwrap();
        // Flip one payload byte of the first write op and re-record the
        // log (fresh CRCs), keeping the captured digests: the replay must
        // notice the read/stats outputs no longer match.
        let mut rec = Recorder::new(log.spec);
        for (i, r) in log.records.iter().enumerate() {
            let mut op = r.op.clone();
            if i == 0 {
                if let Op::Write { data, .. } = &mut op {
                    data[0] ^= 1;
                }
            }
            // Re-encode with the original digests.
            let mut payload = Vec::new();
            payload.extend_from_slice(&r.now_ns.to_le_bytes());
            let op_bytes = op.encode();
            payload.extend_from_slice(&(op_bytes.len() as u32).to_le_bytes());
            payload.extend_from_slice(&op_bytes);
            payload.push(r.output_tag);
            payload.extend_from_slice(&r.output_digest.to_le_bytes());
            rec.buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            let crc = checksum64(&payload, rec.ops);
            rec.buf.extend_from_slice(&payload);
            rec.buf.extend_from_slice(&crc.to_le_bytes());
            rec.ops += 1;
        }
        let report = Replayer::replay(rec.bytes()).expect("parse");
        assert!(!report.divergences.is_empty(), "tampered write went unnoticed");
    }

    #[test]
    fn torn_tail_is_flagged_and_prefix_replays() {
        let bytes = drive(StoreSpec::default());
        let cut = bytes.len() - 5;
        let log = parse(&bytes[..cut]).unwrap();
        assert!(log.torn_tail);
        assert_eq!(log.records.len(), 9, "all complete records kept");
        let report = Replayer::replay(&bytes[..cut]).expect("parse");
        assert!(report.torn_tail);
        assert!(report.divergences.is_empty());
        assert!(!report.is_exact());
    }

    #[test]
    fn corrupt_header_is_an_error() {
        let mut bytes = drive(StoreSpec::default());
        bytes[3] ^= 0xFF;
        assert!(Replayer::replay(&bytes).is_err());
        let mut bytes2 = drive(StoreSpec::default());
        bytes2[MAGIC.len() + 2] ^= 0xFF; // spec byte: header CRC catches it
        assert!(Replayer::replay(&bytes2).is_err());
        assert!(Replayer::replay(&bytes2[..10]).is_err());
    }

    #[test]
    fn mismatched_target_spec_is_refused_not_diverged() {
        let recorded = StoreSpec::default();
        let bytes = drive(recorded);
        // Same shape replays fine.
        let report = Replayer::replay_as(&recorded, &bytes).expect("same shape accepted");
        assert!(report.is_exact());
        // A differently-shaped target (what an array-backed campaign
        // would declare) is refused with a typed error naming the field.
        let reshaped = StoreSpec { shards: 4, capacity_bytes: 256 << 20, ..recorded };
        match Replayer::replay_as(&reshaped, &bytes) {
            Err(ReplayRefusal::SpecMismatch { field, .. }) => {
                assert_eq!(field, "capacity_bytes");
            }
            other => panic!("expected a spec mismatch, got {other:?}"),
        }
        // Garbage bytes surface as a typed parse refusal.
        assert!(matches!(
            Replayer::replay_as(&recorded, b"not a log"),
            Err(ReplayRefusal::Parse(_))
        ));
    }

    #[test]
    fn faulty_run_with_cut_and_recovery_replays_exactly() {
        let spec = StoreSpec {
            shards: 2,
            parity: true,
            fault: FaultPlan {
                seed: 1234,
                read_error_rate: 0.05,
                bit_rot_rate: 0.02,
                read_retries: 2,
                allow_degraded_reads: true,
                ..FaultPlan::none()
            },
            ..StoreSpec::default()
        };
        let store = spec.build();
        let mut clock = ManualClock::new(0, 500_000);
        let mut rec = Recorder::new(spec);
        for i in 0..24u64 {
            let fill = vec![(i % 251) as u8; 8192];
            rec.apply(&store, &mut clock, &Op::Write { offset: i * 8192, data: fill });
        }
        rec.apply(&store, &mut clock, &Op::Flush);
        for i in 0..24u64 {
            rec.apply(&store, &mut clock, &Op::Read { offset: i * 8192, len: 8192 });
        }
        rec.apply(&store, &mut clock, &Op::PowerCut);
        rec.apply(&store, &mut clock, &Op::Recover);
        rec.apply(&store, &mut clock, &Op::Scrub);
        rec.apply(&store, &mut clock, &Op::Stats);
        let report = Replayer::replay(rec.bytes()).expect("parse");
        assert!(report.is_exact(), "divergences: {:?}", report.divergences);
    }
}
