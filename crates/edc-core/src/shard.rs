//! Sharded concurrent pipeline front-end (DESIGN.md §11).
//!
//! [`crate::pipeline::EdcPipeline`] is a single-owner `&mut self` object:
//! every read and write from every client serializes on one owner, no
//! matter how many cores the host has. [`ShardedPipeline`] scales the
//! front-end the way a production storage target does — by *partitioning*
//! the logical address space across N independent pipelines, each behind
//! its own lock with its own journal stream, run cache, allocator and
//! device region. Requests touching different shards proceed fully in
//! parallel with zero shared mutable state on the hot path; requests to
//! the same shard serialize on that shard's lock only.
//!
//! ## Routing
//!
//! Logical blocks are grouped into fixed-size *extents* of
//! [`ShardConfig::extent_blocks`] blocks; extent `e` belongs to shard
//! `e % shards`. Extents (256 KiB at the default 64 blocks) are large
//! enough that the sequentiality detector still merges contiguous writes
//! into multi-block runs within a shard, while striping extents
//! round-robin spreads hot ranges across all shards. Writes and reads
//! spanning an extent boundary are split and routed piecewise.
//!
//! This is the only store type ops are dispatched to:
//! [`ShardedPipeline::dispatch`] (in [`crate::store`], beside
//! [`Op`](crate::store::Op)) serves the recorder, the replayer and the
//! ring, and a plain pipeline takes part as a one-shard store through
//! [`ShardedPipeline::from_pipeline`].
//!
//! ## Per-shard journals
//!
//! Every shard owns a [`crate::journal::MappingJournal`] whose records
//! carry the shard id in tag-byte bits 3–6. A pre-sharding journal (all
//! shard bits zero) replays exactly as shard 0's stream, so a store
//! adopted through [`ShardedPipeline::from_pipeline`] recovers through
//! [`ShardedPipeline::recover`] unchanged. A record that
//! decodes cleanly but names a different shard aborts that shard's
//! recovery instead of silently serving another shard's data.
//!
//! ## Consistency model
//!
//! Each individual read or write piece is atomic under its shard's lock;
//! a multi-extent operation is *not* atomic as a whole (pieces land
//! per-shard, like a request split across RAID stripes). Maintenance
//! operations (`flush_all`, `recover`, `scrub`, `verify`) fan out across
//! shards on worker threads ([`crate::parallel::par_map_indexed`]) and
//! aggregate the per-shard reports; [`ShardedPipeline::stats`] instead
//! acquires *all* shard locks before reading any counter, so its totals
//! are one instant's truth.

use crate::dedup::DedupReport;
use crate::error::{EdcError, WriteError};
use crate::journal::{RecoveryError, MAX_SHARDS};
use crate::parallel::par_map_indexed;
use crate::pipeline::{
    BatchWrite, EdcPipeline, PipelineConfig, PipelineStats, ReadError, RecompressReport,
    RecoveryReport, ScrubReport, WriteResult,
};
use crate::scheme::BLOCK_BYTES;
use edc_compress::CodecId;
use std::sync::Mutex;

/// Configuration of a [`ShardedPipeline`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards (1 ..= [`MAX_SHARDS`]). One shard degenerates to
    /// a locked serial pipeline — the control case in benchmarks.
    pub shards: usize,
    /// Extent size in 4 KiB blocks (≥ 1). Contiguous writes merge into
    /// runs only within one extent, so larger extents favour merging and
    /// smaller ones favour spread.
    pub extent_blocks: u64,
    /// Template for every shard's pipeline. `journal_shard` is overwritten
    /// per shard; everything else (ladder, SD, cache size, parity,
    /// fault plan) applies to each shard independently.
    pub pipeline: PipelineConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shards: 4, extent_blocks: 64, pipeline: PipelineConfig::default() }
    }
}

/// One logical-address piece of a split request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Piece {
    shard: usize,
    offset: u64,
    len: u64,
}

/// A concurrent, shard-per-lock front-end over N [`EdcPipeline`]s.
///
/// All entry points take `&self`: clients on different threads call
/// `write`/`read` directly, and the routing layer serializes only the
/// shards each request actually touches.
pub struct ShardedPipeline {
    shards: Vec<Mutex<EdcPipeline>>,
    extent_blocks: u64,
    /// Device bytes summed over shards: the most one read may ask for.
    capacity_bytes: u64,
}

impl ShardedPipeline {
    /// Create a sharded store over `capacity_bytes` of device space,
    /// split evenly across shards. Each shard's journal is stamped with
    /// its shard id.
    pub fn new(capacity_bytes: u64, config: ShardConfig) -> Self {
        assert!(
            config.shards >= 1 && config.shards <= MAX_SHARDS,
            "shard count must be 1..={MAX_SHARDS}"
        );
        assert!(config.extent_blocks >= 1, "extent must hold at least one block");
        let per_shard = capacity_bytes / config.shards as u64;
        assert!(per_shard >= BLOCK_BYTES, "capacity below one block per shard");
        let shards = (0..config.shards)
            .map(|i| {
                let mut pc = config.pipeline.clone();
                pc.journal_shard = i as u8;
                // Align heat-tracking extents with the routing extents:
                // a heat extent then never straddles two shards, so each
                // shard's tracker is fully local ("sharded-safe layout").
                pc.heat.extent_blocks = config.extent_blocks;
                Mutex::new(EdcPipeline::new(per_shard, pc))
            })
            .collect();
        ShardedPipeline {
            shards,
            extent_blocks: config.extent_blocks,
            capacity_bytes: per_shard * config.shards as u64,
        }
    }

    /// Adopt an existing single-owner pipeline as a one-shard front-end
    /// that behaves exactly like the pipeline itself: its journal stays
    /// shard 0, its fault plan's seed is kept (lane 0), every request is
    /// one piece, and its heat extents are left as configured. This is how
    /// a `shards = 0` [`StoreSpec`](crate::record::StoreSpec) builds, and
    /// how a store whose journal predates sharding (shard bits all zero)
    /// is recovered.
    pub fn from_pipeline(pipeline: EdcPipeline) -> Self {
        assert_eq!(
            pipeline.config().journal_shard,
            0,
            "an adopted pipeline must carry the legacy shard id 0"
        );
        let capacity_bytes = pipeline.capacity_bytes();
        ShardedPipeline { shards: vec![Mutex::new(pipeline)], extent_blocks: 64, capacity_bytes }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Extent size in 4 KiB blocks.
    pub fn extent_blocks(&self) -> u64 {
        self.extent_blocks
    }

    /// Shard owning logical `block`.
    fn shard_of_block(&self, block: u64) -> usize {
        ((block / self.extent_blocks) % self.shards.len() as u64) as usize
    }

    /// Shard owning the whole byte range `[offset, offset + len)`, or
    /// `None` if the range straddles an extent boundary and therefore
    /// fans out to more than one piece. The ring front-end routes on
    /// this: an op it accepts touches exactly one shard, so one drainer
    /// owns it end to end. A zero-length range belongs to the shard of
    /// its offset; a range running past the 64-bit address space belongs
    /// to none.
    pub fn single_shard_of(&self, offset: u64, len: u64) -> Option<usize> {
        let last = offset.checked_add(len.saturating_sub(1))?;
        if self.shards.len() == 1 {
            return Some(0);
        }
        let extent_bytes = self.extent_blocks * BLOCK_BYTES;
        if offset / extent_bytes == last / extent_bytes {
            Some(self.shard_of_block(offset / BLOCK_BYTES))
        } else {
            None
        }
    }

    /// Split `[offset, offset + len)` at extent boundaries into
    /// shard-routed pieces, in address order; `None` when the range runs
    /// past the 64-bit address space.
    fn pieces(&self, offset: u64, len: u64) -> Option<Vec<Piece>> {
        let end = offset.checked_add(len)?;
        if self.shards.len() == 1 {
            return Some(vec![Piece { shard: 0, offset, len }]);
        }
        let extent_bytes = self.extent_blocks * BLOCK_BYTES;
        let mut out = Vec::new();
        let mut at = offset;
        while at < end {
            let extent = at / extent_bytes;
            let extent_end = (extent + 1).saturating_mul(extent_bytes);
            let stop = end.min(extent_end);
            out.push(Piece {
                shard: self.shard_of_block(at / BLOCK_BYTES),
                offset: at,
                len: stop - at,
            });
            at = stop;
        }
        Some(out)
    }

    /// Lock shard `i` and run `f` against its pipeline. The maintenance /
    /// test hook for anything the aggregate surface doesn't expose:
    /// arming per-shard fault plans, tearing one shard's journal,
    /// inspecting one shard's device image.
    pub fn with_shard<T>(&self, i: usize, f: impl FnOnce(&mut EdcPipeline) -> T) -> T {
        f(&mut self.shards[i].lock().expect("shard poisoned"))
    }

    /// Write `data` (whole 4 KiB blocks) at byte `offset`, concurrently
    /// with other callers. Pieces crossing extent boundaries are routed to
    /// their shards in address order; returns every run the write flushed,
    /// across all touched shards.
    pub fn write(
        &self,
        now_ns: u64,
        offset: u64,
        data: &[u8],
    ) -> Result<Vec<WriteResult>, EdcError> {
        self.write_batch(&[BatchWrite { now_ns, offset, data }])
    }

    /// Accept a batch of writes. The whole batch is validated up front
    /// (alignment, whole blocks, range) before any byte is accepted, matching
    /// [`EdcPipeline::write_batch`]; pieces are then grouped per shard and
    /// applied with one lock acquisition per touched shard. Each shard's
    /// sub-batch is atomic under its lock; the batch as a whole is not
    /// (per-shard atomicity, like a stripe-split RAID request).
    pub fn write_batch(&self, writes: &[BatchWrite<'_>]) -> Result<Vec<WriteResult>, EdcError> {
        // Group pieces per shard, preserving batch order within a shard.
        let mut per_shard: Vec<Vec<BatchWrite<'_>>> = vec![Vec::new(); self.shards.len()];
        for w in writes {
            if !w.offset.is_multiple_of(BLOCK_BYTES)
                || w.data.is_empty()
                || !(w.data.len() as u64).is_multiple_of(BLOCK_BYTES)
            {
                return Err(WriteError::Unaligned.into());
            }
            let pieces = self.pieces(w.offset, w.data.len() as u64).ok_or(WriteError::OutOfRange)?;
            for p in pieces {
                let skip = (p.offset - w.offset) as usize;
                per_shard[p.shard].push(BatchWrite {
                    now_ns: w.now_ns,
                    offset: p.offset,
                    data: &w.data[skip..skip + p.len as usize],
                });
            }
        }
        let mut results = Vec::new();
        for (i, batch) in per_shard.iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let mut shard = self.shards[i].lock().expect("shard poisoned");
            results.extend(shard.write_batch(batch)?);
        }
        Ok(results)
    }

    /// Read `len` bytes at `offset` (both 4 KiB-aligned), concurrently
    /// with other callers. Each piece is served under its shard's lock;
    /// unwritten blocks read as zeroes. One read may ask for at most the
    /// store's device capacity (summed over shards).
    pub fn read(&self, now_ns: u64, offset: u64, len: u64) -> Result<Vec<u8>, ReadError> {
        if !offset.is_multiple_of(BLOCK_BYTES) || !len.is_multiple_of(BLOCK_BYTES) {
            return Err(ReadError::Unaligned);
        }
        if len > self.capacity_bytes {
            return Err(ReadError::OutOfRange);
        }
        let pieces = self.pieces(offset, len).ok_or(ReadError::OutOfRange)?;
        // Pieces are contiguous and in address order: the first one's
        // buffer becomes the result and the rest append to it.
        let mut out = Vec::new();
        for p in pieces {
            let piece = self.shards[p.shard].lock().expect("shard poisoned").read(
                now_ns,
                p.offset,
                p.len,
            )?;
            if out.is_empty() {
                out = piece;
                out.reserve_exact(len as usize - out.len());
            } else {
                out.extend_from_slice(&piece);
            }
        }
        Ok(out)
    }

    /// Flush every shard's buffered run, fanning the shards
    /// across worker threads. Results are concatenated in shard order.
    pub fn flush_all(&self, now_ns: u64) -> Result<Vec<WriteResult>, EdcError> {
        let per_shard = self.for_each_shard(|p| p.flush_all(now_ns));
        let mut results = Vec::new();
        for r in per_shard {
            results.extend(r?);
        }
        Ok(results)
    }

    /// Recover every shard from its journal and compose one report:
    /// counters sum, `torn_tail` is true if any shard's journal ended
    /// torn. A record routed to the wrong shard aborts with that shard's
    /// [`RecoveryError`]. Legacy single-shard journals (shard bits zero)
    /// replay unchanged through a one-shard front-end
    /// ([`ShardedPipeline::from_pipeline`]).
    pub fn recover(&self) -> Result<RecoveryReport, RecoveryError> {
        let per_shard = self.for_each_shard(|p| p.recover());
        let mut report = RecoveryReport::default();
        for r in per_shard {
            let r = r?;
            report.scanned_records += r.scanned_records;
            report.replayed_runs += r.replayed_runs;
            report.payload_mismatches += r.payload_mismatches;
            report.torn_tail |= r.torn_tail;
        }
        Ok(report)
    }

    /// Scrub every shard (verify + heal, see [`EdcPipeline::scrub`]) and
    /// merge the per-shard reports.
    pub fn scrub(&self) -> Result<ScrubReport, EdcError> {
        self.merge_scrub(self.for_each_shard(|p| p.scrub()))
    }

    /// Read-only integrity audit of every shard (see
    /// [`EdcPipeline::verify`]); nothing is healed or rewritten.
    pub fn verify(&self) -> Result<ScrubReport, EdcError> {
        self.merge_scrub(self.for_each_shard(|p| p.verify()))
    }

    /// Cross-check every shard's dedup refcount ledger against its
    /// mapping table (see [`EdcPipeline::verify_dedup`]) and merge the
    /// per-shard reports. The ledger is per shard — routing never shares
    /// a run across shards — so the fan-out needs no cross-shard state.
    pub fn verify_dedup(&self) -> Result<DedupReport, EdcError> {
        let per_shard = self.for_each_shard(|p| p.verify_dedup());
        let mut report = DedupReport::default();
        for r in per_shard {
            report.merge(&r?);
        }
        Ok(report)
    }

    /// Heat-aware background recompression across every shard (see
    /// [`EdcPipeline::recompress_pass`]), fanned across worker threads
    /// like the other maintenance passes. Each shard consults its own
    /// heat tracker — heat extents are aligned with routing extents at
    /// construction, so no cross-shard state exists to synchronise.
    /// `max_rewrites_per_shard` is each shard's idle-bandwidth budget;
    /// the merged report sums all shards.
    pub fn recompress(
        &self,
        now_ns: u64,
        target: CodecId,
        max_rewrites_per_shard: usize,
    ) -> Result<RecompressReport, EdcError> {
        let per_shard =
            self.for_each_shard(|p| p.recompress_pass(now_ns, target, max_rewrites_per_shard));
        let mut report = RecompressReport::default();
        for r in per_shard {
            report.merge(&r?);
        }
        Ok(report)
    }

    /// Aggregate statistics. All shard locks are acquired (in index
    /// order) *before* any counter is read, so the totals — including the
    /// merged [`crate::cache::CacheStats`] — reflect a single instant.
    pub fn stats(&self) -> PipelineStats {
        let guards: Vec<_> =
            self.shards.iter().map(|m| m.lock().expect("shard poisoned")).collect();
        let mut total = PipelineStats::default();
        for g in &guards {
            total.merge(&g.stats());
        }
        total
    }

    /// Current live on-flash footprint summed over every shard (see
    /// [`EdcPipeline::live_stored_bytes`]). Shard locks are taken in index
    /// order so the sum reflects one instant.
    pub fn live_stored_bytes(&self) -> u64 {
        self.shards.iter().map(|m| m.lock().expect("shard poisoned").live_stored_bytes()).sum()
    }

    /// Register a file-type hint over `[offset, offset + len)` (both
    /// 4 KiB-aligned, `len > 0`; see [`EdcPipeline::set_hint`]). Every
    /// shard gets the whole range, so the cost is one registration per
    /// shard whatever the length. A shard only looks hints up at the
    /// starts of runs it owns, and later hints win per block, so each
    /// block resolves exactly as if the range had been split at extent
    /// boundaries.
    pub fn set_hint(&self, offset: u64, len: u64, hint: crate::hints::FileTypeHint) {
        for m in &self.shards {
            m.lock().expect("shard poisoned").set_hint(offset, len, hint);
        }
    }

    /// Arm `plan` on every shard, restarting each decision stream. Shard
    /// 0 keeps the plan's seed verbatim (a one-shard front-end then draws
    /// the exact stream a plain [`EdcPipeline`] would); shard `i > 0`
    /// gets a seed mixed with its index so shards fault independently
    /// rather than in lockstep.
    pub fn set_fault_plan(&self, plan: edc_flash::FaultPlan) {
        for (i, m) in self.shards.iter().enumerate() {
            m.lock().expect("shard poisoned").set_fault_plan(plan.for_lane(i));
        }
    }

    /// Injected-fault counters summed over every shard. Locks are taken
    /// in index order so the totals reflect one instant.
    pub fn fault_stats(&self) -> edc_flash::FaultStats {
        let guards: Vec<_> =
            self.shards.iter().map(|m| m.lock().expect("shard poisoned")).collect();
        let mut total = edc_flash::FaultStats::default();
        for g in &guards {
            total.merge(&g.fault_stats());
        }
        total
    }

    /// Tear shard `shard`'s journal to its first `bytes` bytes (the
    /// mid-journal-program crash hook, see
    /// [`EdcPipeline::truncate_journal_bytes`]).
    pub fn truncate_journal_bytes(&self, shard: usize, bytes: usize) {
        self.shards[shard].lock().expect("shard poisoned").truncate_journal_bytes(bytes);
    }

    /// Cut power on every shard immediately (see
    /// [`EdcPipeline::cut_power`]); [`ShardedPipeline::recover`] brings
    /// the store back.
    pub fn cut_power(&self) {
        for m in &self.shards {
            m.lock().expect("shard poisoned").cut_power();
        }
    }

    /// Whether every shard currently has power.
    pub fn powered(&self) -> bool {
        self.shards.iter().all(|m| m.lock().expect("shard poisoned").powered())
    }

    /// Run `f` against every shard concurrently, results in shard order.
    fn for_each_shard<T: Send>(&self, f: impl Fn(&mut EdcPipeline) -> T + Sync) -> Vec<T> {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        par_map_indexed(self.shards.len(), workers, |i| {
            f(&mut self.shards[i].lock().expect("shard poisoned"))
        })
    }

    fn merge_scrub(
        &self,
        per_shard: Vec<Result<ScrubReport, EdcError>>,
    ) -> Result<ScrubReport, EdcError> {
        let mut report = ScrubReport::default();
        for r in per_shard {
            report.merge(&r?);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_flash::FaultPlan;

    const BB: usize = BLOCK_BYTES as usize;

    fn text_block(i: u64) -> Vec<u8> {
        format!("sharded pipeline block {i} lorem ipsum dolor sit amet ")
            .into_bytes()
            .into_iter()
            .cycle()
            .take(BB)
            .collect()
    }

    fn small(shards: usize) -> ShardedPipeline {
        ShardedPipeline::new(
            shards as u64 * 4 * 1024 * 1024,
            ShardConfig { shards, extent_blocks: 4, ..ShardConfig::default() },
        )
    }

    #[test]
    fn routing_splits_at_extent_boundaries() {
        let s = small(4);
        // Blocks 0..4 are extent 0 (shard 0), 4..8 extent 1 (shard 1), ...
        let pieces = s.pieces(0, 12 * BLOCK_BYTES).unwrap();
        assert_eq!(
            pieces,
            vec![
                Piece { shard: 0, offset: 0, len: 4 * BLOCK_BYTES },
                Piece { shard: 1, offset: 4 * BLOCK_BYTES, len: 4 * BLOCK_BYTES },
                Piece { shard: 2, offset: 8 * BLOCK_BYTES, len: 4 * BLOCK_BYTES },
            ]
        );
        // Extent wrap-around: extent 4 routes back to shard 0.
        assert_eq!(s.shard_of_block(16), 0);
        // Mid-extent start stops at the extent edge.
        let pieces = s.pieces(2 * BLOCK_BYTES, 4 * BLOCK_BYTES).unwrap();
        assert_eq!(
            pieces,
            vec![
                Piece { shard: 0, offset: 2 * BLOCK_BYTES, len: 2 * BLOCK_BYTES },
                Piece { shard: 1, offset: 4 * BLOCK_BYTES, len: 2 * BLOCK_BYTES },
            ]
        );
    }

    #[test]
    fn writes_read_back_across_shards() {
        for shards in [1, 2, 3, 8] {
            let s = small(shards);
            let mut now = 0u64;
            for i in 0..64u64 {
                s.write(now, i * BLOCK_BYTES, &text_block(i)).unwrap();
                now += 1_000_000;
            }
            s.flush_all(now).unwrap();
            for i in 0..64u64 {
                assert_eq!(
                    s.read(now, i * BLOCK_BYTES, BLOCK_BYTES).unwrap(),
                    text_block(i),
                    "block {i} with {shards} shards"
                );
            }
            // A single spanning read crosses every shard.
            let all = s.read(now, 0, 64 * BLOCK_BYTES).unwrap();
            for i in 0..64u64 {
                assert_eq!(&all[i as usize * BB..(i as usize + 1) * BB], &text_block(i));
            }
        }
    }

    #[test]
    fn spanning_write_lands_piecewise() {
        let s = small(2);
        // One 8-block write spans extents 0 (shard 0) and 1 (shard 1).
        let data: Vec<u8> = (0..8u64).flat_map(text_block).collect();
        s.write(0, 0, &data).unwrap();
        s.flush_all(1).unwrap();
        assert_eq!(s.read(2, 0, 8 * BLOCK_BYTES).unwrap(), data);
        // Both shards got some of it.
        let s0 = s.with_shard(0, |p| p.stats().logical_written);
        let s1 = s.with_shard(1, |p| p.stats().logical_written);
        assert_eq!(s0, 4 * BLOCK_BYTES);
        assert_eq!(s1, 4 * BLOCK_BYTES);
    }

    #[test]
    fn unaligned_batch_rejected_before_any_write() {
        let s = small(2);
        let good = text_block(0);
        let err = s.write_batch(&[
            BatchWrite { now_ns: 0, offset: 0, data: &good },
            BatchWrite { now_ns: 0, offset: 123, data: &good },
        ]);
        assert!(err.is_err());
        assert_eq!(s.stats().logical_written, 0, "validation must precede acceptance");
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let s = small(4);
        for i in 0..32u64 {
            s.write(i, i * BLOCK_BYTES, &text_block(i)).unwrap();
        }
        s.flush_all(99).unwrap();
        let stats = s.stats();
        assert_eq!(stats.logical_written, 32 * BLOCK_BYTES);
        assert_eq!(stats.mapped_blocks, 32);
        let per_shard: u64 = (0..4).map(|i| s.with_shard(i, |p| p.stats().logical_written)).sum();
        assert_eq!(per_shard, stats.logical_written);
        assert!(stats.journal_records > 0);
        assert!(stats.compression_ratio() >= 1.0);
    }

    #[test]
    fn recover_composes_per_shard_journals() {
        let s = small(4);
        let mut now = 0;
        for i in 0..48u64 {
            s.write(now, i * BLOCK_BYTES, &text_block(i)).unwrap();
            now += 500_000;
        }
        s.flush_all(now).unwrap();
        let report = s.recover().unwrap();
        assert!(report.replayed_runs > 0);
        assert!(!report.torn_tail);
        assert_eq!(report.payload_mismatches, 0);
        for i in 0..48u64 {
            assert_eq!(s.read(now, i * BLOCK_BYTES, BLOCK_BYTES).unwrap(), text_block(i));
        }
    }

    #[test]
    fn legacy_single_shard_journal_recovers_through_sharded_front_end() {
        // A store written entirely through the pre-sharding API...
        let mut legacy = EdcPipeline::new(8 * 1024 * 1024, PipelineConfig::default());
        let mut now = 0;
        for i in 0..32u64 {
            legacy.write(now, i * BLOCK_BYTES, &text_block(i)).unwrap();
            now += 1_000_000;
        }
        legacy.flush_all(now).unwrap();
        assert!(legacy.stats().journal_records > 0);
        // ...adopted by the sharded front-end: its journal (shard bits
        // zero) replays through ShardedPipeline::recover unchanged.
        let s = ShardedPipeline::from_pipeline(legacy);
        let report = s.recover().unwrap();
        assert!(report.replayed_runs > 0);
        assert_eq!(report.payload_mismatches, 0);
        for i in 0..32u64 {
            assert_eq!(s.read(now, i * BLOCK_BYTES, BLOCK_BYTES).unwrap(), text_block(i));
        }
    }

    #[test]
    fn power_cut_on_one_shard_recovers_fleet_wide() {
        let s = small(2);
        let mut now = 0;
        for i in 0..16u64 {
            s.write(now, i * BLOCK_BYTES, &text_block(i)).unwrap();
            now += 1_000_000;
        }
        s.flush_all(now).unwrap();
        // Cut shard 1's power at its very next page program; shard 0 stays
        // healthy. The doomed write routes to blocks 4..8 → extent 1 →
        // shard 1.
        s.with_shard(1, |p| {
            p.set_fault_plan(FaultPlan {
                power_cut_after_programs: Some(0),
                ..FaultPlan::none()
            })
        });
        let doomed = text_block(99);
        let r = s.write(now, 4 * BLOCK_BYTES, &doomed);
        // The write may be buffered (cut trips at the flush) — force it.
        let flushed = r.and_then(|_| s.flush_all(now + 1));
        assert!(flushed.is_err(), "the armed cut must fire during the flush");
        assert!(!s.with_shard(1, |p| p.powered()));
        // Whole-front-end recovery brings every shard back; everything
        // journaled before the cut survives, the doomed write does not.
        let report = s.recover().unwrap();
        assert!(report.replayed_runs > 0);
        for i in 0..16u64 {
            assert_eq!(
                s.read(now, i * BLOCK_BYTES, BLOCK_BYTES).unwrap(),
                text_block(i),
                "journaled block {i} must survive the cut"
            );
        }
    }

    #[test]
    fn scrub_and_verify_aggregate_clean_reports() {
        let s = small(3);
        for i in 0..24u64 {
            s.write(i, i * BLOCK_BYTES, &text_block(i)).unwrap();
        }
        s.flush_all(25).unwrap();
        let v = s.verify().unwrap();
        assert_eq!(v.scanned, v.clean);
        assert!(v.scanned > 0);
        assert_eq!(v.repaired, 0);
        let sc = s.scrub().unwrap();
        assert_eq!(sc.scanned, v.scanned);
        assert_eq!(sc.clean, sc.scanned);
    }

    #[test]
    fn recompress_fans_out_and_preserves_reads() {
        // 4-ary content with a pinned-Lzf ladder: plenty of headroom for
        // the background pass to upgrade cold runs to Deflate.
        let lowent = |seed: u64| -> Vec<u8> {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            (0..4 * BB)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    b"acgt"[(x >> 60) as usize & 3]
                })
                .collect()
        };
        let s = ShardedPipeline::new(
            4 * 8 * 1024 * 1024,
            ShardConfig {
                shards: 4,
                extent_blocks: 4,
                pipeline: PipelineConfig {
                    selector: crate::selector::SelectorConfig {
                        rungs: vec![crate::selector::LadderRung {
                            max_calc_iops: f64::INFINITY,
                            codec: edc_compress::CodecId::Lzf,
                        }],
                    },
                    ..PipelineConfig::default()
                },
            },
        );
        let mut now = 0u64;
        let mut expect = Vec::new();
        for i in 0..16u64 {
            let data = lowent(i);
            s.write(now, i * 4 * BLOCK_BYTES, &data).unwrap();
            now += 1_000_000;
            expect.push((i * 4 * BLOCK_BYTES, data));
        }
        s.flush_all(now).unwrap();
        // Long silence cools every extent on every shard.
        now += 400_000_000_000;
        let report = s.recompress(now, CodecId::Deflate, usize::MAX).unwrap();
        assert!(report.recompressed > 0, "{report:?}");
        assert_eq!(report.skipped_unreadable, 0);
        // The merged stats see the per-shard counters.
        assert_eq!(s.stats().recompressed_runs, report.recompressed);
        // More than one shard did work (extents stripe round-robin).
        let busy = (0..4)
            .filter(|&i| s.with_shard(i, |p| p.stats().recompressed_runs) > 0)
            .count();
        assert!(busy > 1, "recompression stayed on {busy} shard(s)");
        for (i, (off, data)) in expect.iter().enumerate() {
            assert_eq!(
                &s.read(now + i as u64, *off, data.len() as u64).unwrap(),
                data,
                "run {i} changed by sharded recompression"
            );
        }
        assert_eq!(s.verify().unwrap().unrecoverable, 0);
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn rejects_zero_shards() {
        let _ = ShardedPipeline::new(
            1024 * 1024,
            ShardConfig { shards: 0, ..ShardConfig::default() },
        );
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn rejects_more_than_max_shards() {
        let _ = ShardedPipeline::new(
            64 * 1024 * 1024,
            ShardConfig { shards: MAX_SHARDS + 1, ..ShardConfig::default() },
        );
    }
}
