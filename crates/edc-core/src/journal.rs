//! Append-only mapping-table journal for crash recovery.
//!
//! The pipeline's mapping table ([`crate::mapping::BlockMap`]) is volatile:
//! a power cut mid-flush would orphan every compressed run on the device.
//! The journal is the durable record — each committed run appends one
//! fixed-size, checksummed [`MappingEntry`] record, written *after* the
//! run's payload pages so that a record's presence implies its payload is
//! durable (classic write-ahead ordering, payload-then-commit).
//!
//! [`crate::pipeline::EdcPipeline::recover`] replays the journal in append
//! order: later records supersede earlier ones exactly as the original
//! `insert_run` calls did, so the rebuilt table equals the pre-crash table
//! restricted to runs whose commit record landed. Replay stops at the
//! first torn or corrupt record (a cut mid-append leaves a recognizable
//! partial tail), and every record carries its own CRC so a damaged middle
//! record cannot smuggle garbage into the rebuilt mapping.
//!
//! The journal models an on-flash structure but lives in memory here, like
//! the pipeline's device image; what matters for the reproduction is the
//! *ordering contract* between payload programs and the commit record,
//! which the pipeline enforces against the simulated power-cut clock.

use crate::mapping::MappingEntry;
use core::fmt;
use edc_compress::{checksum64, CodecId};

/// Magic bytes opening every record.
const MAGIC: [u8; 4] = *b"EDCJ";

/// Serialized size of one journal record:
/// magic(4) + seq(8) + tag(1) + run_start(8) + run_blocks(4) +
/// device_offset(8) + stored_bytes(8) + compressed_bytes(8) +
/// checksum(8) + record_crc(8).
///
/// The tag byte carries the 3-bit codec tag in its low bits, the owning
/// shard id in bits 3–6 (`SHARD_SHIFT`/`SHARD_MASK`) and the run's parity
/// flag in bit 7 (`PARITY_BIT`) — the record layout (and so old journals,
/// whose shard bits are all zero) is unchanged by either feature.
pub const RECORD_BYTES: usize = 65;

/// Bit 7 of the record's tag byte: set when the run carries an XOR parity
/// page (see [`MappingEntry::parity`]).
const PARITY_BIT: u8 = 0x80;

/// Low bits of the record's tag byte holding the codec tag proper.
const CODEC_MASK: u8 = 0b0000_0111;

/// Codec-bits value marking a dedup *reference* record ([`DedupRef`]):
/// `0b110` is not a valid [`CodecId`] tag, so legacy journals can never
/// contain one (they replay with every refcount = 1) and pre-dedup
/// replayers reject such records as torn rather than misparse them.
const REF_BITS: u8 = 0b110;

/// Bits 3–6 of the record's tag byte hold the id of the shard that owns
/// the journal stream. Pre-sharding journals carry zeros here, which
/// decodes as shard 0 — the single shard of a legacy pipeline.
const SHARD_SHIFT: u32 = 3;
const SHARD_MASK: u8 = 0b0111_1000;

/// Maximum shard count representable in a journal record (4 bits).
pub const MAX_SHARDS: usize = 16;

/// A semantically impossible journal record — decoded cleanly (CRC valid)
/// but describing a placement that cannot exist on the device. Unlike a
/// torn tail this indicates real corruption or a logic bug, so recovery
/// surfaces it instead of silently skipping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryError {
    /// Sequence number of the offending record.
    pub seq: u64,
    /// What was impossible about it.
    pub reason: &'static str,
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal record {} is invalid: {}", self.seq, self.reason)
    }
}

impl std::error::Error for RecoveryError {}

/// A dedup reference record: the run at `run_start` shares the already-
/// journaled run stored at `device_offset` instead of storing its own
/// payload. Physical fields (codec tag, stored/compressed bytes, parity)
/// are inherited from that target's live record at replay time; the
/// record carries only what is sharer-specific plus the content hash (so
/// recovery can re-teach the hash index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedupRef {
    /// First logical block of the sharing run.
    pub run_start: u64,
    /// Length of the sharing run in blocks (must equal the target's).
    pub run_blocks: u32,
    /// Device offset of the shared target run.
    pub device_offset: u64,
    /// Content hash of the shared raw bytes (0 = unknown, hash-index
    /// repopulation only; never used for correctness).
    pub content_hash: u64,
    /// Checksum of the stored payload seeded with the sharer's
    /// `run_start` (each referrer's entries verify independently).
    pub checksum: u64,
}

/// One decoded journal record: a mapping-table insertion proper, or a
/// dedup reference that aliases an earlier one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecord {
    /// A committed run with its own stored payload.
    Put(MappingEntry),
    /// A dedup sharer pointing at an earlier run's payload.
    Ref(DedupRef),
}

/// What a journal replay produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Replay {
    /// Decoded `Put` entries, in append order (the pre-dedup view; equals
    /// the `Put` subsequence of [`Replay::records`]).
    pub entries: Vec<MappingEntry>,
    /// Every decoded record — `Put`s and dedup `Ref`s — in append order.
    pub records: Vec<JournalRecord>,
    /// Records scanned, including the torn/corrupt one that stopped the
    /// scan (if any).
    pub scanned: u64,
    /// Whether the scan stopped early at a torn or corrupt record.
    pub torn_tail: bool,
    /// Sequence number of the first cleanly-decoded record whose shard id
    /// does not match the journal's own shard. Replay stops there (the
    /// prefix is kept); recovery surfaces it as a routing error rather
    /// than silently adopting another shard's mappings.
    pub wrong_shard: Option<u64>,
}

/// The append-only journal of mapping-table insertions.
#[derive(Debug, Clone, Default)]
pub struct MappingJournal {
    buf: Vec<u8>,
    seq: u64,
    shard: u8,
}

impl MappingJournal {
    /// An empty journal for the legacy single-shard pipeline (shard 0).
    pub fn new() -> Self {
        MappingJournal::default()
    }

    /// An empty journal owned by shard `shard` of a sharded pipeline.
    /// Every appended record carries the id in tag-byte bits 3–6.
    pub fn with_shard(shard: u8) -> Self {
        assert!(
            (shard as usize) < MAX_SHARDS,
            "shard id {shard} does not fit the record's 4-bit field"
        );
        MappingJournal { buf: Vec::new(), seq: 0, shard }
    }

    /// The shard that owns this journal stream (0 for legacy journals).
    pub fn shard(&self) -> u8 {
        self.shard
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.seq
    }

    /// Journal size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Append one committed run's mapping entry.
    pub fn append(&mut self, entry: &MappingEntry) {
        let start = self.buf.len();
        self.buf.extend_from_slice(&MAGIC);
        self.buf.extend_from_slice(&self.seq.to_le_bytes());
        self.buf.push(
            entry.tag.tag()
                | (self.shard << SHARD_SHIFT)
                | if entry.parity { PARITY_BIT } else { 0 },
        );
        self.buf.extend_from_slice(&entry.run_start.to_le_bytes());
        self.buf.extend_from_slice(&entry.run_blocks.to_le_bytes());
        self.buf.extend_from_slice(&entry.device_offset.to_le_bytes());
        self.buf.extend_from_slice(&entry.stored_bytes.to_le_bytes());
        self.buf.extend_from_slice(&entry.compressed_bytes.to_le_bytes());
        self.buf.extend_from_slice(&entry.checksum.to_le_bytes());
        let crc = checksum64(&self.buf[start..], self.seq);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.seq += 1;
    }

    /// Append one dedup reference record (see [`DedupRef`]): `entry` is
    /// the *sharer's* mapping entry pointing at the shared offset, and
    /// `content_hash` the hash of the shared raw bytes (0 = unknown).
    /// Field mapping onto the fixed record layout: the codec bits carry
    /// `REF_BITS`, `stored_bytes` carries the content hash, and
    /// `compressed_bytes` is zero (both physical sizes replay from the
    /// target's own record).
    pub fn append_ref(&mut self, entry: &MappingEntry, content_hash: u64) {
        let start = self.buf.len();
        self.buf.extend_from_slice(&MAGIC);
        self.buf.extend_from_slice(&self.seq.to_le_bytes());
        self.buf.push(REF_BITS | (self.shard << SHARD_SHIFT));
        self.buf.extend_from_slice(&entry.run_start.to_le_bytes());
        self.buf.extend_from_slice(&entry.run_blocks.to_le_bytes());
        self.buf.extend_from_slice(&entry.device_offset.to_le_bytes());
        self.buf.extend_from_slice(&content_hash.to_le_bytes());
        self.buf.extend_from_slice(&0u64.to_le_bytes());
        self.buf.extend_from_slice(&entry.checksum.to_le_bytes());
        let crc = checksum64(&self.buf[start..], self.seq);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.seq += 1;
    }

    /// Truncate the journal to its first `bytes` bytes — the test hook for
    /// simulating a tear mid-record (a cut between the pipeline's payload
    /// programs and commit record never produces one; a cut inside a real
    /// device's journal page program would).
    pub fn truncate_bytes(&mut self, bytes: usize) {
        self.buf.truncate(bytes);
        self.seq = (self.buf.len() / RECORD_BYTES) as u64;
    }

    /// Drop every record (a fresh device).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.seq = 0;
    }

    /// Decode the journal. Replay stops at the first record that is
    /// incomplete, has bad magic, an out-of-order sequence number, an
    /// invalid codec tag, or a CRC mismatch — everything before the stop
    /// point is trustworthy, everything after is unreachable by
    /// construction (records are appended strictly in order).
    pub fn replay(&self) -> Replay {
        let mut out = Replay::default();
        let mut at = 0usize;
        let mut seq = 0u64;
        while at < self.buf.len() {
            out.scanned += 1;
            if self.buf.len() - at < RECORD_BYTES {
                out.torn_tail = true;
                break;
            }
            let rec = &self.buf[at..at + RECORD_BYTES];
            let crc = u64::from_le_bytes(rec[RECORD_BYTES - 8..].try_into().expect("8 bytes"));
            let parity = rec[12] & PARITY_BIT != 0;
            let rec_shard = (rec[12] & SHARD_MASK) >> SHARD_SHIFT;
            let codec_bits = rec[12] & CODEC_MASK;
            let is_ref = codec_bits == REF_BITS;
            let tag = CodecId::from_tag(codec_bits);
            let rec_seq = u64::from_le_bytes(rec[4..12].try_into().expect("8 bytes"));
            let valid = rec[..4] == MAGIC
                && rec_seq == seq
                && (tag.is_some() || is_ref)
                && checksum64(&rec[..RECORD_BYTES - 8], seq) == crc;
            if !valid {
                out.torn_tail = true;
                break;
            }
            if rec_shard != self.shard {
                out.wrong_shard = Some(seq);
                break;
            }
            let u64_at = |o: usize| u64::from_le_bytes(rec[o..o + 8].try_into().expect("8 bytes"));
            let run_blocks = u32::from_le_bytes(rec[21..25].try_into().expect("4 bytes"));
            if is_ref {
                out.records.push(JournalRecord::Ref(DedupRef {
                    run_start: u64_at(13),
                    run_blocks,
                    device_offset: u64_at(25),
                    content_hash: u64_at(33),
                    checksum: u64_at(49),
                }));
            } else {
                let entry = MappingEntry {
                    tag: tag.expect("validated above"),
                    run_start: u64_at(13),
                    run_blocks,
                    device_offset: u64_at(25),
                    stored_bytes: u64_at(33),
                    compressed_bytes: u64_at(41),
                    checksum: u64_at(49),
                    parity,
                };
                out.entries.push(entry);
                out.records.push(JournalRecord::Put(entry));
            }
            seq += 1;
            at += RECORD_BYTES;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: u64) -> MappingEntry {
        MappingEntry {
            tag: if i.is_multiple_of(2) { CodecId::Lz4 } else { CodecId::None },
            run_start: i * 7,
            run_blocks: 1 + (i as u32 % 5),
            device_offset: i * 4096,
            stored_bytes: 2048,
            compressed_bytes: 1500 + i,
            checksum: i.wrapping_mul(0xDEAD_BEEF),
            parity: i.is_multiple_of(3),
        }
    }

    #[test]
    fn round_trips_every_field() {
        let mut j = MappingJournal::new();
        let entries: Vec<MappingEntry> = (0..20).map(entry).collect();
        for e in &entries {
            j.append(e);
        }
        assert_eq!(j.records(), 20);
        assert_eq!(j.len_bytes(), 20 * RECORD_BYTES);
        let r = j.replay();
        assert!(!r.torn_tail);
        assert_eq!(r.scanned, 20);
        assert_eq!(r.entries, entries);
    }

    #[test]
    fn empty_journal_replays_empty() {
        let r = MappingJournal::new().replay();
        assert_eq!(r, Replay::default());
    }

    #[test]
    fn later_record_supersedes_same_run_with_different_codec() {
        // Background recompression relies on append-order replay: the
        // same logical run is journaled again with a different codec tag
        // and device offset (Lzf run rewritten as Deflate, or demoted to
        // None), and replay must present both records in order so the
        // recovering mapper keeps only the later one.
        let mut j = MappingJournal::new();
        let original = MappingEntry {
            tag: CodecId::Lzf,
            run_start: 40,
            run_blocks: 4,
            device_offset: 8192,
            stored_bytes: 12288,
            compressed_bytes: 11000,
            checksum: 0xAB,
            parity: false,
        };
        let recompressed = MappingEntry {
            tag: CodecId::Deflate,
            device_offset: 65536,
            stored_bytes: 4096,
            compressed_bytes: 3000,
            checksum: 0xCD,
            ..original
        };
        let demoted = MappingEntry {
            tag: CodecId::None,
            device_offset: 131072,
            stored_bytes: 16384,
            compressed_bytes: 16384,
            checksum: 0xEF,
            ..original
        };
        j.append(&original);
        j.append(&recompressed);
        j.append(&demoted);
        let r = j.replay();
        assert_eq!(r.entries, vec![original, recompressed, demoted]);
        // Replaying through a BlockMap (what recovery does) leaves only
        // the last rewrite live.
        let mut map = crate::mapping::BlockMap::new();
        let mut evicted = Vec::new();
        for e in &r.entries {
            evicted.extend(map.insert_run(*e));
        }
        let mut evicted_offsets: Vec<u64> = evicted.iter().map(|e| e.device_offset).collect();
        evicted_offsets.dedup();
        assert_eq!(
            evicted_offsets,
            vec![8192, 65536],
            "each rewrite evicts its predecessor (one entry per covered block)"
        );
        assert_eq!(map.get(40).unwrap().tag, CodecId::None);
        assert_eq!(map.get(43).unwrap().device_offset, 131072);
    }

    #[test]
    fn ref_records_round_trip_and_interleave_with_puts() {
        let mut j = MappingJournal::with_shard(3);
        let put = entry(0);
        j.append(&put);
        let sharer = MappingEntry {
            run_start: 400,
            checksum: 0x5A5A,
            ..put
        };
        j.append_ref(&sharer, 0xFEED_F00D);
        j.append(&entry(1));
        let r = j.replay();
        assert!(!r.torn_tail && r.wrong_shard.is_none());
        assert_eq!(r.entries, vec![put, entry(1)], "entries stays the Put-only view");
        assert_eq!(r.records.len(), 3);
        assert_eq!(r.records[0], JournalRecord::Put(put));
        assert_eq!(
            r.records[1],
            JournalRecord::Ref(DedupRef {
                run_start: 400,
                run_blocks: put.run_blocks,
                device_offset: put.device_offset,
                content_hash: 0xFEED_F00D,
                checksum: 0x5A5A,
            })
        );
        assert_eq!(r.records[2], JournalRecord::Put(entry(1)));
    }

    #[test]
    fn legacy_replay_has_put_only_records() {
        // A journal with no dedup activity replays with records ==
        // entries mapped through Put — the refcounts-all-one case.
        let mut j = MappingJournal::new();
        for i in 0..6 {
            j.append(&entry(i));
        }
        let r = j.replay();
        assert_eq!(r.records.len(), r.entries.len());
        assert!(r
            .records
            .iter()
            .zip(&r.entries)
            .all(|(rec, e)| *rec == JournalRecord::Put(*e)));
    }

    #[test]
    fn torn_tail_detected_and_prefix_kept() {
        let mut j = MappingJournal::new();
        for i in 0..5 {
            j.append(&entry(i));
        }
        // Tear mid-way through the last record.
        j.truncate_bytes(4 * RECORD_BYTES + 17);
        let r = j.replay();
        assert!(r.torn_tail);
        assert_eq!(r.entries.len(), 4);
        assert_eq!(r.scanned, 5);
        assert_eq!(r.entries, (0..4).map(entry).collect::<Vec<_>>());
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let mut j = MappingJournal::new();
        for i in 0..6 {
            j.append(&entry(i));
        }
        // Flip one payload byte of record 3: its CRC no longer matches.
        j.buf[3 * RECORD_BYTES + 20] ^= 0xFF;
        let r = j.replay();
        assert!(r.torn_tail);
        assert_eq!(r.entries.len(), 3, "replay must stop before the damaged record");
    }

    #[test]
    fn bad_magic_stops_replay() {
        let mut j = MappingJournal::new();
        j.append(&entry(0));
        j.append(&entry(1));
        j.buf[RECORD_BYTES] = b'X'; // wreck record 1's magic (and its CRC input)
        let r = j.replay();
        assert!(r.torn_tail);
        assert_eq!(r.entries.len(), 1);
    }

    #[test]
    fn clear_resets() {
        let mut j = MappingJournal::new();
        j.append(&entry(0));
        j.clear();
        assert_eq!(j.records(), 0);
        assert_eq!(j.replay(), Replay::default());
    }

    #[test]
    fn shard_id_round_trips_without_disturbing_fields() {
        for shard in [0u8, 1, 7, 15] {
            let mut j = MappingJournal::with_shard(shard);
            let entries: Vec<MappingEntry> = (0..12).map(entry).collect();
            for e in &entries {
                j.append(e);
            }
            let r = j.replay();
            assert!(!r.torn_tail);
            assert_eq!(r.wrong_shard, None);
            assert_eq!(r.entries, entries, "shard bits must not leak into codec/parity");
        }
    }

    #[test]
    fn legacy_records_decode_as_shard_zero() {
        // A journal written before sharding existed (shard bits zero) must
        // replay cleanly under a shard-0 owner — byte-for-byte identical
        // encoding, so `new()` vs `with_shard(0)` produce the same stream.
        let mut legacy = MappingJournal::new();
        let mut shard0 = MappingJournal::with_shard(0);
        for i in 0..8 {
            legacy.append(&entry(i));
            shard0.append(&entry(i));
        }
        assert_eq!(legacy.buf, shard0.buf);
        let r = legacy.replay();
        assert!(!r.torn_tail && r.wrong_shard.is_none());
        assert_eq!(r.entries.len(), 8);
    }

    #[test]
    fn foreign_shard_record_stops_replay() {
        let mut j = MappingJournal::with_shard(2);
        for i in 0..4 {
            j.append(&entry(i));
        }
        // Rewrite record 2's shard bits to shard 5 and fix up its CRC so the
        // record decodes cleanly — replay must stop at it and report routing.
        let at = 2 * RECORD_BYTES;
        j.buf[at + 12] = (j.buf[at + 12] & !super::SHARD_MASK) | (5 << super::SHARD_SHIFT);
        let crc = checksum64(&j.buf[at..at + RECORD_BYTES - 8], 2);
        j.buf[at + RECORD_BYTES - 8..at + RECORD_BYTES].copy_from_slice(&crc.to_le_bytes());
        let r = j.replay();
        assert_eq!(r.wrong_shard, Some(2));
        assert_eq!(r.entries.len(), 2, "prefix before the foreign record is kept");
        assert!(!r.torn_tail);
    }
}
