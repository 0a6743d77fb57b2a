//! Quantized slot store: device-space management for compressed blocks.
//!
//! Fig. 5's design implies a segregated-fit layout: compressed runs occupy
//! slots of quantized sizes, and because an overwrite whose compressed
//! size drifts within the same quantum reuses a same-sized slot, the store
//! never fragments across quanta ("the space can be well utilized and
//! unnecessary fragmentations can be avoided"). The store hands out device
//! byte addresses: fresh space comes from a bump cursor, freed slots are
//! recycled per size class (LIFO, so recently-freed — and recently-erased —
//! space is reused first). Each live slot's record also keeps the
//! background recompression pass's no-gain verdict for it, so a pass does
//! not re-try a payload it already failed to shrink (DESIGN.md §12).

use edc_compress::CodecId;
use std::collections::HashMap;

/// A live slot's record. A slot shared by a merged run's blocks returns to
/// the free pool only when its last block is superseded — releasing
/// earlier would let two live runs alias the same device bytes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Blocks still referencing the slot.
    refs: u32,
    /// Slot bytes.
    bytes: u64,
    /// The target codec a background recompression pass found this slot's
    /// payload cannot shrink to. Everything that verdict depends on — the
    /// payload, the run length, the slot size — is fixed while the slot
    /// lives, so it lives and dies with this record: a fresh record
    /// (`alloc_run`, `adopt_run`) starts without one. It fits in the
    /// padding of the two fields above.
    no_gain: Option<CodecId>,
}

/// Segregated-fit slot allocator over a device's logical byte space.
#[derive(Debug, Clone)]
pub struct SlotStore {
    device_bytes: u64,
    /// Bump cursor for never-used space.
    cursor: u64,
    /// Free slots per size class (bytes → stack of offsets).
    free: HashMap<u64, Vec<u64>>,
    /// Live slots by device offset.
    refs: HashMap<u64, Slot>,
    /// Live allocated bytes.
    live_bytes: u64,
    /// Times the cursor wrapped (fragmentation overflow; should be rare).
    wraps: u64,
}

impl SlotStore {
    /// Create a store over `device_bytes` of device space.
    pub fn new(device_bytes: u64) -> Self {
        assert!(device_bytes > 0);
        SlotStore {
            device_bytes,
            cursor: 0,
            free: HashMap::new(),
            refs: HashMap::new(),
            live_bytes: 0,
            wraps: 0,
        }
    }

    /// Allocate a slot of `bytes` to be referenced by `blocks` mapping
    /// entries; the slot frees automatically once `blocks` block
    /// references have been dropped via [`SlotStore::release_block_ref`].
    pub fn alloc_run(&mut self, bytes: u64, blocks: u32) -> u64 {
        assert!(blocks > 0);
        let off = self.alloc(bytes);
        self.refs.insert(off, Slot { refs: blocks, bytes, no_gain: None });
        off
    }

    /// Adopt a pre-existing slot at a fixed `offset` — the recovery path:
    /// journal replay re-registers each surviving run exactly where the
    /// pre-crash allocator placed it. The bump cursor advances past the
    /// adopted slot, and any stale free-pool entry at this offset is
    /// scrubbed (an earlier replayed run may have "freed" the slot that a
    /// later run then legitimately reused).
    pub fn adopt_run(&mut self, offset: u64, bytes: u64, blocks: u32) {
        assert!(blocks > 0);
        assert!(bytes > 0 && offset + bytes <= self.device_bytes, "adopted slot exceeds device");
        if let Some(stack) = self.free.get_mut(&bytes) {
            stack.retain(|&o| o != offset);
        }
        self.refs.insert(offset, Slot { refs: blocks, bytes, no_gain: None });
        self.live_bytes += bytes;
        self.cursor = self.cursor.max(offset + bytes);
    }

    /// Add `blocks` additional block references to the live slot at
    /// `offset` — a dedup sharer's mapping entries now point at it. The
    /// slot then frees only after *every* referrer's blocks release, so a
    /// shared run can never be erased while refs are outstanding.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not live (sharing a dead slot is a logic
    /// bug, never a recoverable condition).
    pub fn add_run_refs(&mut self, offset: u64, blocks: u32) {
        assert!(blocks > 0);
        let e = self.refs.get_mut(&offset).expect("add_run_refs on a dead slot");
        e.refs += blocks;
    }

    /// Outstanding block references to the slot at `offset` (0 when the
    /// slot is not live) — the dedup integrity audit's cross-check hook.
    pub fn block_refs(&self, offset: u64) -> u32 {
        self.refs.get(&offset).map_or(0, |e| e.refs)
    }

    /// Drop one block's reference to the slot at `offset` (the block's
    /// mapping entry was superseded). Returns `Some((offset, bytes))` when
    /// this was the last reference and the slot returned to the free pool.
    pub fn release_block_ref(&mut self, offset: u64) -> Option<(u64, u64)> {
        let Slot { refs: remaining, bytes, .. } = self.refs.get_mut(&offset).map(|e| {
            e.refs = e.refs.saturating_sub(1);
            *e
        })?;
        if remaining == 0 {
            self.refs.remove(&offset);
            self.release(offset, bytes);
            return Some((offset, bytes));
        }
        None
    }

    /// The target codec a background pass found the live slot at `offset`
    /// cannot shrink to, if one was recorded. Once the cursor has wrapped,
    /// fresh space may overlap a live slot and change its bytes, so no
    /// verdict is trusted any more.
    pub(crate) fn no_gain(&self, offset: u64) -> Option<CodecId> {
        if self.wraps > 0 {
            return None;
        }
        self.refs.get(&offset).and_then(|e| e.no_gain)
    }

    /// Record that re-compressing the live slot at `offset` with `target`
    /// would not shrink it (a no-op on a dead slot).
    pub(crate) fn set_no_gain(&mut self, offset: u64, target: CodecId) {
        if let Some(e) = self.refs.get_mut(&offset) {
            e.no_gain = Some(target);
        }
    }

    /// Allocate a slot of exactly `bytes`; returns its device offset.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        assert!(bytes > 0 && bytes <= self.device_bytes);
        self.live_bytes += bytes;
        if let Some(stack) = self.free.get_mut(&bytes) {
            if let Some(off) = stack.pop() {
                return off;
            }
        }
        if self.cursor + bytes > self.device_bytes {
            // Segregated-fit overflow: recycle from the start. Slots that
            // still live there are overwritten (the mapping layer has
            // long since superseded them in workloads that reach this).
            self.cursor = 0;
            self.wraps += 1;
        }
        let off = self.cursor;
        self.cursor += bytes;
        off
    }

    /// Return a slot of `bytes` at `offset` to the free pool.
    pub fn release(&mut self, offset: u64, bytes: u64) {
        debug_assert!(offset + bytes <= self.device_bytes);
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
        self.free.entry(bytes).or_default().push(offset);
    }

    /// Live allocated bytes.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Number of cursor wraps (fragmentation overflows).
    pub fn wraps(&self) -> u64 {
        self.wraps
    }
}

#[cfg(test)]
impl SlotStore {
    /// Forget every recorded no-gain verdict.
    pub(crate) fn forget_no_gain(&mut self) {
        for e in self.refs.values_mut() {
            e.no_gain = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_allocations_bump_sequentially() {
        let mut s = SlotStore::new(1 << 20);
        assert_eq!(s.alloc(1024), 0);
        assert_eq!(s.alloc(2048), 1024);
        assert_eq!(s.alloc(1024), 3072);
        assert_eq!(s.live_bytes(), 4096);
    }

    #[test]
    fn freed_slots_are_recycled_by_size() {
        let mut s = SlotStore::new(1 << 20);
        let a = s.alloc(2048);
        let _b = s.alloc(2048);
        s.release(a, 2048);
        // Same size class: reuse a's slot.
        assert_eq!(s.alloc(2048), a);
        // Different size class: fresh space.
        let c = s.alloc(1024);
        assert_eq!(c, 4096);
    }

    #[test]
    fn quantum_drift_within_class_reuses_slot() {
        // The Fig. 5 rationale: overwrite cycles at a stable quantum reuse
        // one slot forever.
        let mut s = SlotStore::new(1 << 20);
        let first = s.alloc(2048);
        for _ in 0..100 {
            s.release(first, 2048);
            assert_eq!(s.alloc(2048), first);
        }
        assert_eq!(s.live_bytes(), 2048);
    }

    #[test]
    fn run_slot_frees_only_after_last_block_reference() {
        let mut s = SlotStore::new(1 << 20);
        let off = s.alloc_run(8192, 4);
        // Three of four blocks superseded: slot still live.
        for _ in 0..3 {
            assert_eq!(s.release_block_ref(off), None);
        }
        // A fresh allocation of the same class must NOT reuse the live slot.
        let other = s.alloc(8192);
        assert_ne!(other, off, "live slot must not be handed out again");
        // Last reference frees it.
        assert_eq!(s.release_block_ref(off), Some((off, 8192)));
        assert_eq!(s.alloc(8192), off, "freed slot is reusable");
    }

    #[test]
    fn shared_slot_survives_until_every_referrer_releases() {
        let mut s = SlotStore::new(1 << 20);
        let off = s.alloc_run(8192, 4); // writer: 4 block refs
        s.add_run_refs(off, 4); // dedup sharer: 4 more
        assert_eq!(s.block_refs(off), 8);
        // The writer's blocks all release: slot must stay live.
        for _ in 0..4 {
            assert_eq!(s.release_block_ref(off), None);
        }
        assert_eq!(s.block_refs(off), 4);
        assert_ne!(s.alloc(8192), off, "shared slot must not be reallocated");
        // The sharer's blocks release: now it frees.
        for _ in 0..3 {
            assert_eq!(s.release_block_ref(off), None);
        }
        assert_eq!(s.release_block_ref(off), Some((off, 8192)));
        assert_eq!(s.block_refs(off), 0);
    }

    #[test]
    #[should_panic(expected = "dead slot")]
    fn sharing_a_dead_slot_panics() {
        let mut s = SlotStore::new(1 << 20);
        s.add_run_refs(4096, 1);
    }

    #[test]
    fn double_release_is_harmless() {
        let mut s = SlotStore::new(1 << 20);
        let off = s.alloc_run(1024, 1);
        assert!(s.release_block_ref(off).is_some());
        // Further releases (e.g. duplicate evictions) are no-ops.
        assert_eq!(s.release_block_ref(off), None);
        // The slot appears exactly once in the pool.
        assert_eq!(s.alloc(1024), off);
        let next = s.alloc(1024);
        assert_ne!(next, off, "offset must not be handed out twice");
    }

    #[test]
    fn cursor_wraps_when_exhausted() {
        let mut s = SlotStore::new(4096);
        s.alloc(4096);
        let off = s.alloc(1024); // no free slot: wraps
        assert_eq!(off, 0);
        assert_eq!(s.wraps(), 1);
    }

    #[test]
    fn live_bytes_tracks_alloc_release() {
        let mut s = SlotStore::new(1 << 20);
        let a = s.alloc(3072);
        assert_eq!(s.live_bytes(), 3072);
        s.release(a, 3072);
        assert_eq!(s.live_bytes(), 0);
    }

    #[test]
    #[should_panic]
    fn oversized_alloc_rejected() {
        let mut s = SlotStore::new(1024);
        let _ = s.alloc(2048);
    }

    #[test]
    fn adopt_run_replays_placements() {
        let mut s = SlotStore::new(1 << 20);
        // Replay two runs at the offsets a pre-crash allocator chose.
        s.adopt_run(4096, 2048, 2);
        s.adopt_run(8192, 1024, 1);
        assert_eq!(s.live_bytes(), 3072);
        // Fresh allocations land past every adopted slot.
        assert_eq!(s.alloc(1024), 9216);
        // Adopted slots free normally once their references drop.
        assert_eq!(s.release_block_ref(8192), Some((8192, 1024)));
    }

    #[test]
    fn adopt_scrubs_stale_free_entry() {
        // Replay order: run A at offset 0 is superseded (slot freed), then
        // run B legitimately reuses offset 0. The free pool must not hand
        // offset 0 out again while B lives.
        let mut s = SlotStore::new(1 << 20);
        s.adopt_run(0, 2048, 1);
        s.release_block_ref(0); // A fully superseded → 0 enters the pool
        s.adopt_run(0, 2048, 1); // B reuses the same offset
        let next = s.alloc(2048);
        assert_ne!(next, 0, "live adopted slot must not be reallocated");
    }

    #[test]
    fn no_gain_verdict_lives_and_dies_with_the_slot_record() {
        assert_eq!(std::mem::size_of::<Slot>(), std::mem::size_of::<(u32, u64)>());
        let mut s = SlotStore::new(1 << 20);
        let off = s.alloc_run(8192, 2);
        s.set_no_gain(off, CodecId::Deflate);
        assert_eq!(s.no_gain(off), Some(CodecId::Deflate));
        // A partial release keeps the record, and with it the verdict.
        assert_eq!(s.release_block_ref(off), None);
        assert_eq!(s.no_gain(off), Some(CodecId::Deflate));
        // The last release drops it; the LIFO reuse at the same offset is
        // a fresh record without one.
        assert!(s.release_block_ref(off).is_some());
        assert_eq!(s.no_gain(off), None);
        assert_eq!(s.alloc_run(8192, 1), off);
        assert_eq!(s.no_gain(off), None);
        // Re-creating a live record (recovery's adopt) drops it too.
        s.set_no_gain(off, CodecId::Lzf);
        s.adopt_run(off, 8192, 1);
        assert_eq!(s.no_gain(off), None);
        // A dead slot takes no verdict.
        s.set_no_gain(1 << 19, CodecId::Lzf);
        assert_eq!(s.no_gain(1 << 19), None);
    }

    #[test]
    fn no_gain_verdicts_are_not_trusted_after_a_cursor_wrap() {
        let mut s = SlotStore::new(4096);
        let off = s.alloc_run(2048, 1);
        s.set_no_gain(off, CodecId::Deflate);
        s.alloc(2048);
        // The wrap hands out the live slot's bytes again, so its verdict
        // no longer describes what the slot holds.
        assert_eq!(s.alloc(1024), 0);
        assert_eq!(s.no_gain(off), None);
    }
}
