//! The block-mapping table (paper §III-C, Fig. 5).
//!
//! EDC tracks, per 4 KiB logical block, where and how its data is stored:
//! the *LBA*, the compressed *Size*, and a 3-bit *Tag* naming the codec
//! (`000` = uncompressed). Because the Sequentiality Detector merges
//! contiguous writes into one compressed unit, an entry also records the
//! merged run it belongs to — a read of any block in the run fetches and
//! decompresses the whole run.
//!
//! The table is a plain map with a single owner: an
//! [`EdcPipeline`](crate::pipeline::EdcPipeline) is `&mut self`, and a
//! sharded store puts each pipeline — table included — behind its shard's
//! one lock, so the table itself takes none.

use edc_compress::CodecId;
use std::collections::HashMap;

/// Per-block mapping entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingEntry {
    /// Codec tag (the paper's 3-bit field).
    pub tag: CodecId,
    /// First logical block of the merged run this block belongs to.
    pub run_start: u64,
    /// Length of the run in 4 KiB blocks (1 = unmerged).
    pub run_blocks: u32,
    /// Device byte address where the run's data lives (the paper's LBA
    /// field, from the quantized slot allocator).
    pub device_offset: u64,
    /// Flash bytes allocated for the whole run (post-quantization).
    pub stored_bytes: u64,
    /// Compressed payload bytes of the whole run.
    pub compressed_bytes: u64,
    /// 64-bit checksum of the stored payload (0 when unused, e.g. in the
    /// content-modelled simulator).
    pub checksum: u64,
    /// Whether the run carries an XOR parity page as its last stored page
    /// (DESIGN.md §10): parity = XOR of the payload's zero-padded 4 KiB
    /// pages, enabling reconstruction of any single rotted payload page.
    pub parity: bool,
}

impl MappingEntry {
    /// This block's even share of the run's allocated space, used for
    /// space accounting on per-block invalidation (rounded up so shares
    /// never under-count the allocation).
    pub fn share_bytes(&self) -> u64 {
        self.stored_bytes.div_ceil(u64::from(self.run_blocks))
    }

    /// Pack the paper's Fig. 5 fields — LBA, Size, Tag — into a 64-bit
    /// word: 44-bit LBA (sectors), 17-bit size (sectors, up to 128 MiB of
    /// run), 3-bit tag. Demonstrates the on-flash metadata layout; the
    /// in-memory table keeps the richer struct.
    pub fn pack_fields(lba_sector: u64, size_sectors: u32, tag: CodecId) -> u64 {
        assert!(lba_sector < 1 << 44, "LBA exceeds 44 bits");
        assert!(size_sectors < 1 << 17, "size exceeds 17 bits");
        (lba_sector << 20) | (u64::from(size_sectors) << 3) | u64::from(tag.tag())
    }

    /// Inverse of [`MappingEntry::pack_fields`].
    pub fn unpack_fields(word: u64) -> Option<(u64, u32, CodecId)> {
        let tag = CodecId::from_tag((word & 0b111) as u8)?;
        let size = ((word >> 3) & 0x1FFFF) as u32;
        let lba = word >> 20;
        Some((lba, size, tag))
    }
}

/// Logical-block → mapping-entry table.
#[derive(Debug, Default)]
pub struct BlockMap {
    blocks: HashMap<u64, MappingEntry>,
}

impl BlockMap {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a block.
    pub fn get(&self, block: u64) -> Option<MappingEntry> {
        self.blocks.get(&block).copied()
    }

    /// Insert entries for every block of a merged run; returns the evicted
    /// old entries (for space reclamation accounting).
    pub fn insert_run(&mut self, entry: MappingEntry) -> Vec<MappingEntry> {
        (entry.run_start..entry.run_start + u64::from(entry.run_blocks))
            .filter_map(|b| self.blocks.insert(b, entry))
            .collect()
    }

    /// Remove one block's entry (invalidation).
    pub fn remove(&mut self, block: u64) -> Option<MappingEntry> {
        self.blocks.remove(&block)
    }

    /// Number of mapped blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Every live *run* (deduplicated by device offset), sorted by device
    /// offset: the unit the scrubber walks. Blocks of one merged run share
    /// a single entry value, so one representative per `device_offset`
    /// suffices — for a dedup-shared offset, the referrer with the
    /// smallest `run_start`, so the representative is deterministic (hash
    /// iteration order is not) for reproducible scrubs and fault injection.
    pub fn live_runs(&self) -> Vec<MappingEntry> {
        let mut best: HashMap<u64, MappingEntry> = HashMap::new();
        for entry in self.blocks.values() {
            best.entry(entry.device_offset)
                .and_modify(|e| {
                    if entry.run_start < e.run_start {
                        *e = *entry;
                    }
                })
                .or_insert(*entry);
        }
        let mut runs: Vec<MappingEntry> = best.into_values().collect();
        runs.sort_by_key(|e| e.device_offset);
        runs
    }

    /// Every live `(device_offset, run_start)` referrer with its count of
    /// live blocks, sorted by `(device_offset, run_start)`. This is the
    /// mapping side of the dedup refcount cross-check: the ledger must
    /// list exactly these referrers with exactly these counts.
    pub fn referrer_counts(&self) -> Vec<(MappingEntry, u32)> {
        let mut counts: HashMap<(u64, u64), (MappingEntry, u32)> = HashMap::new();
        for entry in self.blocks.values() {
            counts
                .entry((entry.device_offset, entry.run_start))
                .and_modify(|c| c.1 += 1)
                .or_insert((*entry, 1));
        }
        let mut out: Vec<(MappingEntry, u32)> = counts.into_values().collect();
        out.sort_by_key(|(e, _)| (e.device_offset, e.run_start));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(start: u64, blocks: u32, tag: CodecId) -> MappingEntry {
        MappingEntry {
            tag,
            run_start: start,
            run_blocks: blocks,
            device_offset: start * 4096,
            stored_bytes: 2048 * u64::from(blocks),
            compressed_bytes: 1800 * u64::from(blocks),
            checksum: 0,
            parity: false,
        }
    }

    #[test]
    fn insert_and_get_single_block() {
        let mut m = BlockMap::new();
        m.insert_run(entry(7, 1, CodecId::Lzf));
        let e = m.get(7).unwrap();
        assert_eq!(e.tag, CodecId::Lzf);
        assert_eq!(e.run_blocks, 1);
        assert!(m.get(8).is_none());
    }

    #[test]
    fn run_entries_cover_every_block() {
        let mut m = BlockMap::new();
        m.insert_run(entry(100, 16, CodecId::Deflate));
        for b in 100..116 {
            let e = m.get(b).unwrap();
            assert_eq!(e.run_start, 100);
            assert_eq!(e.run_blocks, 16);
        }
        assert!(m.get(99).is_none());
        assert!(m.get(116).is_none());
        assert_eq!(m.len(), 16);
    }

    #[test]
    fn overwrite_returns_evicted_entries() {
        let mut m = BlockMap::new();
        m.insert_run(entry(0, 4, CodecId::Lzf));
        let evicted = m.insert_run(entry(2, 4, CodecId::Deflate));
        assert_eq!(evicted.len(), 2); // blocks 2 and 3 were mapped
        assert_eq!(m.get(0).unwrap().tag, CodecId::Lzf);
        assert_eq!(m.get(3).unwrap().tag, CodecId::Deflate);
        assert_eq!(m.len(), 6);
    }

    #[test]
    fn remove_invalidates() {
        let mut m = BlockMap::new();
        m.insert_run(entry(5, 1, CodecId::Bwt));
        assert!(m.remove(5).is_some());
        assert!(m.remove(5).is_none());
        assert!(m.is_empty());
    }

    #[test]
    fn share_bytes_rounds_up() {
        let e = MappingEntry {
            tag: CodecId::Lzf,
            run_start: 0,
            run_blocks: 3,
            device_offset: 0,
            stored_bytes: 10_000,
            compressed_bytes: 9_000,
            checksum: 0,
            parity: false,
        };
        assert_eq!(e.share_bytes(), 3334);
    }

    #[test]
    fn pack_unpack_round_trip() {
        for (lba, size, tag) in [
            (0u64, 0u32, CodecId::None),
            (123_456_789, 4, CodecId::Lzf),
            ((1 << 44) - 1, (1 << 17) - 1, CodecId::Bwt),
        ] {
            let w = MappingEntry::pack_fields(lba, size, tag);
            assert_eq!(MappingEntry::unpack_fields(w), Some((lba, size, tag)));
        }
    }

    #[test]
    fn unpack_rejects_bad_tag() {
        // Tag bits 0b111 are not a valid codec.
        assert!(MappingEntry::unpack_fields(0b111).is_none());
    }

    #[test]
    #[should_panic(expected = "LBA exceeds")]
    fn pack_rejects_oversized_lba() {
        let _ = MappingEntry::pack_fields(1 << 44, 0, CodecId::None);
    }

    #[test]
    fn live_runs_dedup_by_device_offset() {
        let mut m = BlockMap::new();
        m.insert_run(entry(0, 4, CodecId::Lzf)); // one run, 4 block entries
        m.insert_run(entry(10, 2, CodecId::Deflate));
        let runs = m.live_runs();
        assert_eq!(runs.len(), 2, "4+2 block entries collapse to 2 runs");
        assert_eq!(runs[0].device_offset, 0);
        assert_eq!(runs[1].device_offset, 10 * 4096);
        assert!(BlockMap::new().live_runs().is_empty());
    }

    #[test]
    fn shared_offset_representative_is_smallest_run_start() {
        // Two referrers of one device offset (a dedup share): exactly one
        // entry is kept for the offset, and it is the smallest run_start,
        // deterministically.
        let mut m = BlockMap::new();
        let a = MappingEntry { device_offset: 9999, ..entry(40, 4, CodecId::Lzf) };
        let b = MappingEntry { device_offset: 9999, ..entry(8, 4, CodecId::Lzf) };
        m.insert_run(a);
        m.insert_run(b);
        let runs = m.live_runs();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].run_start, 8);
        assert_eq!(m.len(), 8);
    }

    #[test]
    fn referrer_counts_track_live_blocks_per_referrer() {
        let mut m = BlockMap::new();
        let a = MappingEntry { device_offset: 777, ..entry(0, 4, CodecId::Lzf) };
        let b = MappingEntry { device_offset: 777, ..entry(100, 4, CodecId::Lzf) };
        m.insert_run(a);
        m.insert_run(b);
        // Overwrite one of b's blocks with an unrelated run.
        m.insert_run(entry(103, 1, CodecId::None));
        let counts = m.referrer_counts();
        let at_777: Vec<(u64, u32)> = counts
            .iter()
            .filter(|(e, _)| e.device_offset == 777)
            .map(|(e, n)| (e.run_start, *n))
            .collect();
        assert_eq!(at_777, vec![(0, 4), (100, 3)]);
    }
}
