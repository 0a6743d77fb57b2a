//! The real-bytes EDC pipeline: a usable compressed block store.
//!
//! [`EdcPipeline`] is the library front-end of EDC for actual data (the
//! trace-replay experiments use [`crate::scheme`] instead, with modelled
//! content). Give it 4 KiB-aligned writes and it runs the full paper
//! pipeline — workload monitor, sequentiality detector, sampling
//! compressibility estimate, threshold-ladder codec selection, real
//! compression with the `edc-compress` codecs, quantized allocation — and
//! stores the result in an in-memory device image. Reads locate the run
//! via the mapping table, decompress according to the 3-bit tag, and
//! return the original bytes.
//!
//! # One write path
//!
//! A run is stored when it seals. Every flush trigger — a non-contiguous
//! write, a full run, a read (paper §III-E), an explicit
//! [`EdcPipeline::flush_all`] — hands the sequentiality detector's merged
//! run to one routine that takes the codec decision (hint, sampling
//! estimate, intensity ladder) against the monitor state of that instant,
//! compresses into the pipeline's one reusable scratch buffer with its
//! one pooled [`CompressorState`]
//! ([`edc_compress::Codec::compress_with`], so the steady state allocates
//! nothing per run), and commits: slot allocation, payload pages, journal
//! record, mapping update. [`EdcPipeline::write_batch`] accepts many
//! writes in one call; a batch amortises the shard lock and the call
//! overhead, not compression — its results and its stored bytes are
//! exactly those of issuing the same writes one call each.
//!
//! Reads consult a decompressed-run LRU ([`crate::cache::RunCache`])
//! keyed by the run's device offset; overwrites invalidate it. A hit
//! serves the read from DRAM, skipping both the device fetch and the
//! decompressor. Write-through runs bypass the cache entirely — their
//! payload already lies uncompressed in the device image and is copied
//! out directly.
//!
//! # Faults and crash recovery
//!
//! Every public entry point is fallible: failures come back as typed
//! [`crate::error::EdcError`] values, never panics. Arm a seeded
//! [`edc_flash::FaultPlan`] via [`PipelineConfig::fault`] (or
//! [`EdcPipeline::set_fault_plan`]) and the store injects transient read
//! faults (retried up to the plan's budget, then
//! [`ReadError::Unrecoverable`]), persistent per-page bit rot (caught by
//! the payload checksums), and a one-shot power cut after N page
//! programs. Committed runs are journaled ([`crate::journal`]) with
//! payload-then-commit ordering, so after a cut
//! [`EdcPipeline::recover`] rebuilds the mapping table with zero data
//! loss for every run whose commit record was durable.
//!
//! ```
//! use edc_core::pipeline::{BatchWrite, EdcPipeline, PipelineConfig};
//!
//! # fn main() -> Result<(), edc_core::error::EdcError> {
//! let mut store = EdcPipeline::new(1 << 20, PipelineConfig::default());
//! let block = vec![b'x'; 4096];
//! store.write(0, 0, &block)?;
//! store.flush_all(1_000_000)?; // or let the next read/non-contiguous write flush
//! assert_eq!(store.read(2_000_000, 0, 4096)?, block);
//!
//! // Batched: hand over many writes at once; each run is stored as it
//! // seals and the results come back in seal order.
//! let batch: Vec<BatchWrite<'_>> = (0..4)
//!     .map(|i| BatchWrite { now_ns: 3_000_000 + i, offset: (8 + 3 * i) * 4096, data: &block })
//!     .collect();
//! let results = store.write_batch(&batch)?;
//! let tail = store.flush_all(4_000_000)?;
//! assert_eq!(results.len() + tail.len(), 4);
//! # Ok(()) }
//! ```

use crate::allocator::{AllocPolicy, AllocStats, QuantizedAllocator};
use crate::cache::{CacheStats, RunCache};
use crate::dedup::{chunk_blocks, content_hash64, DedupConfig, DedupIndex, DedupReport, GearTable};
use crate::error::{EdcError, WriteError};
use crate::heat::{HeatConfig, HeatTracker, Temperature};
use crate::hints::{FileTypeHint, HintRegistry};
use crate::journal::{JournalRecord, MappingJournal, RecoveryError};
use crate::mapping::{BlockMap, MappingEntry};
use crate::monitor::WorkloadMonitor;
use crate::scheme::BLOCK_BYTES;
use crate::sd::{MergedRun, SdConfig, SequentialityDetector};
use crate::selector::{codec_strength, AlgorithmSelector, SelectorConfig};
use crate::slots::SlotStore;
use edc_compress::{
    checksum64, codec_by_id, Codec, CodecId, CodecRegistry, CompressorState, DecompressError,
    Estimator, EstimatorConfig,
};
use edc_flash::{FaultError, FaultPlan, FaultState, FaultStats};
use edc_trace::{OpType, Request};
use std::collections::HashMap;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Threshold ladder (calculated IOPS → codec).
    pub selector: SelectorConfig,
    /// Sequentiality-detector parameters.
    pub sd: SdConfig,
    /// Sampling-estimator parameters (includes the 75 % write-through rule).
    pub estimator: EstimatorConfig,
    /// Allocation policy.
    pub alloc: AllocPolicy,
    /// Decompressed-run read-cache capacity, in runs (0 disables it).
    pub cache_runs: usize,
    /// Seeded fault-injection plan ([`FaultPlan::none`] by default).
    pub fault: FaultPlan,
    /// Store an XOR parity page with every run (one extra 4 KiB page per
    /// run, DESIGN.md §10). Parity lets [`EdcPipeline::scrub`] and the
    /// foreground read path reconstruct any single rotted payload page.
    /// Off by default — it trades space for self-healing.
    pub parity: bool,
    /// Shard id stamped into every journal record (bits 3–6 of the tag
    /// byte, DESIGN.md §11). 0 — the default, and what every pre-sharding
    /// journal implicitly carries — keeps the record stream byte-identical
    /// to the legacy format. Set by [`crate::shard::ShardedPipeline`] when
    /// it builds its per-shard pipelines; must be < 16.
    pub journal_shard: u8,
    /// Modelled per-device-access service time, ns (0 — the default —
    /// disables the model entirely). A real flash fetch or program costs
    /// tens of microseconds during which the host CPU is idle; sleeping
    /// for this long on every media touch lets accesses to *different*
    /// shards of a [`crate::shard::ShardedPipeline`] overlap in time while
    /// a single pipeline behind one lock cannot. Used by the concurrency
    /// benchmark; cache hits never pay it.
    pub device_dwell_ns: u64,
    /// Per-extent heat tracking and the background recompression policy
    /// ([`EdcPipeline::recompress_pass`], DESIGN.md §12).
    pub heat: HeatConfig,
    /// Content-defined dedup front-end (FastCDC chunking + refcounted
    /// content-addressed runs, DESIGN.md §14). Off by default — and with
    /// the toggle off the write path is bit-identical to a store built
    /// without dedup at all.
    pub dedup: DedupConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            selector: SelectorConfig::default(),
            sd: SdConfig::default(),
            estimator: EstimatorConfig::default(),
            alloc: AllocPolicy::default(),
            cache_runs: 64,
            fault: FaultPlan::none(),
            parity: false,
            journal_shard: 0,
            device_dwell_ns: 0,
            heat: HeatConfig::default(),
            dedup: DedupConfig::default(),
        }
    }
}

/// One write in a [`EdcPipeline::write_batch`] call.
#[derive(Debug, Clone, Copy)]
pub struct BatchWrite<'a> {
    /// Arrival time, ns.
    pub now_ns: u64,
    /// Byte offset (4 KiB-aligned).
    pub offset: u64,
    /// Payload (whole 4 KiB blocks).
    pub data: &'a [u8],
}

/// What happened to a flushed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteResult {
    /// First logical block of the run.
    pub start_block: u64,
    /// Run length in blocks.
    pub blocks: u32,
    /// Codec actually used (`None` = written through).
    pub tag: CodecId,
    /// Compressed payload size (equals the raw size when written through).
    pub payload_bytes: u64,
    /// Flash bytes allocated (post-quantization).
    pub allocated_bytes: u64,
}

/// Errors from [`EdcPipeline::read`].
#[derive(Debug)]
pub enum ReadError {
    /// Stored payload failed to decompress — device image corruption.
    Corrupt(DecompressError),
    /// Stored payload hash does not match the mapping entry's checksum —
    /// silent corruption caught before decompression.
    ChecksumMismatch {
        /// First logical block of the damaged run.
        run_start: u64,
    },
    /// Read is not 4 KiB-aligned.
    Unaligned,
    /// `offset + len` does not fit the 64-bit byte address space, or one
    /// read asks for more bytes than the store's device holds.
    OutOfRange,
    /// Transient read faults exhausted the plan's retry budget.
    Unrecoverable {
        /// First logical block of the unreadable run.
        run_start: u64,
    },
    /// The store is powered off after a simulated power cut; call
    /// [`EdcPipeline::recover`] first.
    Offline,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Corrupt(e) => write!(f, "stored data corrupt: {e}"),
            ReadError::ChecksumMismatch { run_start } => {
                write!(f, "checksum mismatch in run starting at block {run_start}")
            }
            ReadError::Unaligned => write!(f, "read must be 4 KiB aligned"),
            ReadError::OutOfRange => {
                write!(f, "read runs past the address space or exceeds the device capacity")
            }
            ReadError::Unrecoverable { run_start } => {
                write!(f, "run starting at block {run_start} unreadable after retries")
            }
            ReadError::Offline => {
                write!(f, "store is powered off after a power cut; recover() first")
            }
        }
    }
}

impl std::error::Error for ReadError {}

/// What [`EdcPipeline::recover`] reconstructed from the journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal records scanned, including any torn/corrupt tail record.
    pub scanned_records: u64,
    /// Live runs restored into the mapping table.
    pub replayed_runs: u64,
    /// Journaled runs dropped because their payload no longer matched its
    /// checksum (zero under the pipeline's payload-then-commit ordering
    /// unless the image rotted after the crash).
    pub payload_mismatches: u64,
    /// Whether the journal ended in a torn or corrupt record.
    pub torn_tail: bool,
}

/// What a [`EdcPipeline::scrub`] pass found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Live runs walked.
    pub scanned: u64,
    /// Runs whose checksum, decode and parity page all verified.
    pub clean: u64,
    /// Runs with damage that parity reconstruction healed (payload repairs
    /// are rewritten out-of-place through the journal; a stale parity page
    /// over a healthy payload is refreshed in its slot).
    pub repaired: u64,
    /// Damaged runs parity could not reconstruct — left in place so a
    /// degraded read policy can still get at the raw bytes.
    pub unrecoverable: u64,
}

impl ScrubReport {
    /// Fold another report into this one (per-shard aggregation).
    pub fn merge(&mut self, other: &ScrubReport) {
        self.scanned += other.scanned;
        self.clean += other.clean;
        self.repaired += other.repaired;
        self.unrecoverable += other.unrecoverable;
    }
}

/// What one [`EdcPipeline::recompress_pass`] did (DESIGN.md §12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecompressReport {
    /// Live runs examined.
    pub scanned: u64,
    /// Cold runs rewritten with the target codec.
    pub recompressed: u64,
    /// Hot near-incompressible runs rewritten as write-through.
    pub demoted: u64,
    /// Runs under a `FileTypeHint::Precompressed` range — never touched.
    pub skipped_precompressed: u64,
    /// Runs on extents already demoted to write-through — never
    /// re-promoted by the background pass.
    pub skipped_demoted: u64,
    /// Cold runs whose recompression would not shrink their slot (after
    /// quantization and any parity page) — left in place. Counts both the
    /// trials that found no gain this pass and the runs whose slot
    /// remembers that verdict, at this target, from an earlier trial.
    pub skipped_no_gain: u64,
    /// Runs that could not be fetched/decoded this pass (transient read
    /// faults, damage) — left for scrub to deal with.
    pub skipped_unreadable: u64,
    /// Runs skipped because dedup sharing makes relocation unsafe this
    /// pass: a referrer (or the owner itself) is partially superseded, so
    /// rewriting the full run range would resurrect stale blocks.
    pub skipped_shared: u64,
    /// Flash bytes freed by recompression (old slot minus new slot).
    pub bytes_reclaimed: u64,
}

impl RecompressReport {
    /// Fold another report into this one (per-shard aggregation).
    pub fn merge(&mut self, other: &RecompressReport) {
        self.scanned += other.scanned;
        self.recompressed += other.recompressed;
        self.demoted += other.demoted;
        self.skipped_precompressed += other.skipped_precompressed;
        self.skipped_demoted += other.skipped_demoted;
        self.skipped_no_gain += other.skipped_no_gain;
        self.skipped_unreadable += other.skipped_unreadable;
        self.skipped_shared += other.skipped_shared;
        self.bytes_reclaimed += other.bytes_reclaimed;
    }
}

/// A consistent snapshot of a pipeline's counters, designed to aggregate:
/// [`crate::shard::ShardedPipeline::stats`] merges one per shard into a
/// fleet-wide view.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Cumulative logical bytes accepted.
    pub logical_written: u64,
    /// Cumulative flash bytes allocated.
    pub physical_written: u64,
    /// 4 KiB blocks currently mapped.
    pub mapped_blocks: u64,
    /// Live (deduplicated) runs currently mapped.
    pub live_runs: u64,
    /// Committed runs journaled so far.
    pub journal_records: u64,
    /// Journal size in bytes.
    pub journal_bytes: u64,
    /// Reads served raw despite a checksum mismatch.
    pub degraded_reads: u64,
    /// Cumulative page programs — the power-cut clock position.
    pub programs: u64,
    /// Cold runs rewritten with a stronger codec by background
    /// recompression, cumulative.
    pub recompressed_runs: u64,
    /// Hot runs demoted to write-through by background recompression,
    /// cumulative.
    pub demoted_runs: u64,
    /// Read-cache counters.
    pub cache: CacheStats,
    /// Writes elided entirely because their content already lived in a
    /// stored run (dedup hits), cumulative.
    pub dedup_hits: u64,
    /// Logical bytes those hits never compressed or programmed.
    pub dedup_elided_bytes: u64,
}

impl PipelineStats {
    /// Fold another pipeline's counters into this one.
    pub fn merge(&mut self, other: &PipelineStats) {
        self.logical_written += other.logical_written;
        self.physical_written += other.physical_written;
        self.mapped_blocks += other.mapped_blocks;
        self.live_runs += other.live_runs;
        self.journal_records += other.journal_records;
        self.journal_bytes += other.journal_bytes;
        self.degraded_reads += other.degraded_reads;
        self.programs += other.programs;
        self.recompressed_runs += other.recompressed_runs;
        self.demoted_runs += other.demoted_runs;
        self.cache.merge(&other.cache);
        self.dedup_hits += other.dedup_hits;
        self.dedup_elided_bytes += other.dedup_elided_bytes;
    }

    /// The paper's compression ratio over everything written (1.0 when
    /// nothing was stored yet).
    pub fn compression_ratio(&self) -> f64 {
        if self.physical_written == 0 {
            return 1.0;
        }
        self.logical_written as f64 / self.physical_written as f64
    }
}

/// An EDC-compressed block store over an in-memory device image.
pub struct EdcPipeline {
    config: PipelineConfig,
    monitor: WorkloadMonitor,
    selector: AlgorithmSelector,
    sd: SequentialityDetector,
    estimator: Estimator,
    allocator: QuantizedAllocator,
    slots: SlotStore,
    map: BlockMap,
    /// Device image: compressed payloads live at their slot offsets.
    device: Vec<u8>,
    /// Bytes of the run currently buffered in the SD.
    pending: Vec<u8>,
    /// Reusable compression output buffer.
    scratch: Vec<u8>,
    /// Pooled codec state (hash tables, chains, Huffman scratch), so
    /// steady-state compression allocates nothing.
    codec_state: CompressorState,
    /// Recycled decompressed-run buffers for the read path (bounded).
    read_buf_pool: Vec<Vec<u8>>,
    /// Decompressed-run LRU, keyed by device offset (unique per live run).
    cache: RunCache<Vec<u8>>,
    /// File-type semantic hints (paper §VI future work #1).
    hints: HintRegistry,
    /// Durable record of committed mapping insertions, replayed by
    /// [`EdcPipeline::recover`].
    journal: MappingJournal,
    /// Seeded fault-decision stream (inactive by default).
    faults: FaultState,
    /// Decayed per-extent heat, updated on the read/write hot paths and
    /// consulted by [`EdcPipeline::recompress_pass`]. Volatile: reset on
    /// recovery, like the monitor state.
    heat: HeatTracker,
    /// Reads served raw despite a checksum mismatch (opt-in degradation).
    degraded_reads: u64,
    /// Cumulative background-recompression outcomes (see
    /// [`PipelineStats`]).
    recompressed_runs: u64,
    demoted_runs: u64,
    /// Seeded gear table for the content-defined chunker (built once).
    gear: GearTable,
    /// Content-addressed run index + refcount ledger (DESIGN.md §14).
    dedup: DedupIndex,
    /// Cumulative dedup-hit counters (see [`PipelineStats`]).
    dedup_hits: u64,
    dedup_elided_bytes: u64,
    logical_written: u64,
    physical_written: u64,
}

impl EdcPipeline {
    /// Create a store over `capacity_bytes` of device space.
    pub fn new(capacity_bytes: u64, config: PipelineConfig) -> Self {
        assert!(capacity_bytes >= BLOCK_BYTES, "capacity below one block");
        EdcPipeline {
            selector: AlgorithmSelector::new(config.selector.clone()),
            sd: SequentialityDetector::new(config.sd),
            estimator: Estimator::new(config.estimator),
            allocator: QuantizedAllocator::new(config.alloc),
            slots: SlotStore::new(capacity_bytes),
            map: BlockMap::new(),
            device: vec![0; capacity_bytes as usize],
            pending: Vec::new(),
            scratch: Vec::new(),
            codec_state: CompressorState::new(),
            read_buf_pool: Vec::new(),
            cache: RunCache::new(config.cache_runs),
            hints: HintRegistry::new(),
            journal: MappingJournal::with_shard(config.journal_shard),
            faults: FaultState::new(config.fault),
            heat: HeatTracker::new(config.heat),
            degraded_reads: 0,
            recompressed_runs: 0,
            demoted_runs: 0,
            gear: GearTable::new(config.dedup.seed),
            dedup: DedupIndex::new(),
            dedup_hits: 0,
            dedup_elided_bytes: 0,
            monitor: WorkloadMonitor::default(),
            logical_written: 0,
            physical_written: 0,
            config,
        }
    }

    /// Write `data` (a multiple of 4 KiB) at byte `offset` (4 KiB-aligned)
    /// at time `now_ns`. Returns the results of any run this write flushed
    /// (one per content-defined chunk with dedup on, otherwise at most
    /// one); the written data itself is buffered until a flush trigger.
    pub fn write(
        &mut self,
        now_ns: u64,
        offset: u64,
        data: &[u8],
    ) -> Result<Vec<WriteResult>, EdcError> {
        self.write_batch(&[BatchWrite { now_ns, offset, data }])
    }

    /// Accept a batch of writes at once. Each run is stored the moment a
    /// write of the batch seals it; results come back in seal order and
    /// are bit-identical to issuing the same writes one call each.
    ///
    /// The whole batch is validated before any write is accepted, so an
    /// alignment or range error leaves the store untouched.
    pub fn write_batch(&mut self, writes: &[BatchWrite<'_>]) -> Result<Vec<WriteResult>, EdcError> {
        self.check_powered()?;
        for w in writes {
            let len = w.data.len() as u64;
            if !w.offset.is_multiple_of(BLOCK_BYTES) || len == 0 || !len.is_multiple_of(BLOCK_BYTES)
            {
                return Err(WriteError::Unaligned.into());
            }
            if w.offset.checked_add(len).is_none() {
                return Err(WriteError::OutOfRange.into());
            }
        }
        let mut results = Vec::new();
        for w in writes {
            let start = w.offset / BLOCK_BYTES;
            let blocks = (w.data.len() as u64 / BLOCK_BYTES) as u32;
            self.monitor.record(&Request {
                arrival_ns: w.now_ns,
                op: OpType::Write,
                offset: w.offset,
                len: w.data.len() as u32,
            });
            self.logical_written += w.data.len() as u64;
            self.heat.record(w.now_ns, start, u64::from(blocks));
            // A failed store (a power cut) still leaves this write
            // buffered, in step with the detector that just accepted it.
            let stored = match self.sd.on_write(start, blocks, w.now_ns) {
                Some(run) => self.store_run(w.now_ns, run, |r| results.push(r)),
                None => Ok(()),
            };
            self.pending.extend_from_slice(w.data);
            stored?;
        }
        Ok(results)
    }

    /// Register a file-type hint for the byte range `[offset, offset+len)`
    /// (4 KiB-aligned). An upper layer that knows the content type of a
    /// range uses this to constrain EDC's codec choice — the paper's §VI
    /// future work #1.
    pub fn set_hint(&mut self, offset: u64, len: u64, hint: FileTypeHint) {
        assert!(offset.is_multiple_of(BLOCK_BYTES) && len.is_multiple_of(BLOCK_BYTES), "hint range must be aligned");
        self.hints.set(offset / BLOCK_BYTES, len / BLOCK_BYTES, hint);
    }

    /// Force-flush the run buffered in the sequentiality detector, if
    /// any (timeout, shutdown). Returns one result per stored run — one
    /// per content-defined chunk with dedup on — in order.
    pub fn flush_all(&mut self, now_ns: u64) -> Result<Vec<WriteResult>, EdcError> {
        self.check_powered()?;
        let mut results = Vec::new();
        if let Some(run) = self.sd.drain() {
            self.store_run(now_ns, run, |r| results.push(r))?;
        }
        Ok(results)
    }

    /// Size of the device image: the most one read may ask for.
    pub(crate) fn capacity_bytes(&self) -> u64 {
        self.device.len() as u64
    }

    /// Typed guard used by every entry point: a store that lost power
    /// rejects I/O until [`EdcPipeline::recover`] runs.
    fn check_powered(&self) -> Result<(), EdcError> {
        if self.faults.powered() {
            Ok(())
        } else {
            Err(WriteError::Offline.into())
        }
    }

    /// Sleep for the configured per-device-access service time (see
    /// [`PipelineConfig::device_dwell_ns`]). A no-op at the default 0.
    fn device_dwell(&self) {
        let ns = self.config.device_dwell_ns;
        if ns > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(ns));
        }
    }

    /// Read `len` bytes at `offset` (both 4 KiB-aligned). Unwritten blocks
    /// read as zeroes, as on a real device. One read may ask for at most
    /// the device's capacity.
    pub fn read(&mut self, now_ns: u64, offset: u64, len: u64) -> Result<Vec<u8>, ReadError> {
        if !offset.is_multiple_of(BLOCK_BYTES) || !len.is_multiple_of(BLOCK_BYTES) {
            return Err(ReadError::Unaligned);
        }
        if offset.checked_add(len).is_none() || len > self.capacity_bytes() {
            return Err(ReadError::OutOfRange);
        }
        if !self.faults.powered() {
            return Err(ReadError::Offline);
        }
        self.monitor.record(&Request {
            arrival_ns: now_ns,
            op: OpType::Read,
            offset,
            len: len as u32,
        });
        // Reads break write sequentiality: flush first (paper §III-E).
        // The only failure the read-triggered flush can hit is a power
        // cut, which leaves the store offline.
        if let Some(run) = self.sd.on_read() {
            if self.store_run(now_ns, run, |_| {}).is_err() {
                return Err(ReadError::Offline);
            }
        }
        let mut out = vec![0u8; len as usize];
        let start = offset / BLOCK_BYTES;
        let blocks = len / BLOCK_BYTES;
        self.heat.record(now_ns, start, blocks);
        let bb = BLOCK_BYTES as usize;
        // Walk block by block, consulting each block's OWN mapping entry —
        // a neighbouring block may belong to an older run that still covers
        // this block's address range, and copying from that run would
        // resurrect superseded data.
        //
        // Write-through runs are copied straight out of the device image
        // (their payload IS the raw bytes — no decompression, no cache).
        // Compressed runs are served from the decompressed-run LRU.
        let mut verified_off = u64::MAX; // write-through run already checksummed
        for b in start..start + blocks {
            let Some(entry) = self.map.get(b) else {
                continue;
            };
            let src = ((b - entry.run_start) * BLOCK_BYTES) as usize;
            let dst = ((b - start) * BLOCK_BYTES) as usize;
            if entry.tag == CodecId::None {
                if verified_off != entry.device_offset {
                    match self.fetch_run(&entry) {
                        // A write-through payload IS the raw data, so a
                        // campaign may opt in to serving it despite the
                        // mismatch instead of failing the read.
                        Err(ReadError::ChecksumMismatch { .. })
                            if self.faults.plan().allow_degraded_reads =>
                        {
                            self.degraded_reads += 1;
                        }
                        fetched => fetched?,
                    }
                    verified_off = entry.device_offset;
                }
                let at = entry.device_offset as usize + src;
                out[dst..dst + bb].copy_from_slice(&self.device[at..at + bb]);
                continue;
            }
            if let Some(run) = self.cache.lookup(entry.device_offset) {
                out[dst..dst + bb].copy_from_slice(&run[src..src + bb]);
                continue;
            }
            // Decompress into a recycled buffer; the buffer the cache
            // insert displaces (the run itself when the cache is off) comes
            // back for the next miss, so a warm read path stops allocating.
            let mut run = self.read_buf_pool.pop().unwrap_or_default();
            if let Err(e) = self.run_raw_bytes(&entry, &mut run) {
                self.recycle_read_buf(run);
                return Err(e);
            }
            out[dst..dst + bb].copy_from_slice(&run[src..src + bb]);
            if let Some(displaced) = self.cache.insert(entry.device_offset, run) {
                self.recycle_read_buf(displaced);
            }
        }
        Ok(out)
    }

    /// Return a spent decompression buffer to the bounded read pool.
    fn recycle_read_buf(&mut self, mut buf: Vec<u8>) {
        const POOL_RUNS: usize = 8;
        if self.read_buf_pool.len() < POOL_RUNS && buf.capacity() > 0 {
            buf.clear();
            self.read_buf_pool.push(buf);
        }
    }

    /// Draw the fault plan's read-path decisions before touching the
    /// device image at `entry`'s slot: transient read faults (retried up
    /// to the plan's budget, then [`ReadError::Unrecoverable`]) and
    /// persistent bit rot, flipped directly into the stored payload so
    /// the checksum audit downstream catches it. Cache hits never get
    /// here — decompressed runs live in DRAM.
    fn fault_device_access(&mut self, entry: &MappingEntry) -> Result<(), ReadError> {
        self.device_dwell();
        if !self.faults.plan().is_active() {
            return Ok(());
        }
        let retries = self.faults.plan().read_retries;
        let mut attempt = 0u32;
        while self.faults.read_fault() {
            if attempt >= retries {
                return Err(ReadError::Unrecoverable { run_start: entry.run_start });
            }
            attempt += 1;
        }
        if let Some(bit) = self.faults.bit_rot() {
            let bits = entry.compressed_bytes.max(1) * 8;
            let bit = u64::from(bit) % bits;
            let at = (entry.device_offset + bit / 8) as usize;
            self.device[at] ^= 1 << (bit % 8);
        }
        Ok(())
    }

    /// The stored payload bytes of `entry`'s run in the device image.
    fn payload(&self, entry: &MappingEntry) -> &[u8] {
        let off = entry.device_offset as usize;
        &self.device[off..off + entry.compressed_bytes as usize]
    }

    /// Check a stored payload against its mapping-entry checksum. Catches
    /// silent corruption that would otherwise decode "successfully" to
    /// wrong bytes (or, written through, be returned verbatim).
    fn verify_checksum(&self, entry: &MappingEntry) -> Result<(), ReadError> {
        if checksum64(self.payload(entry), entry.run_start) != entry.checksum {
            return Err(ReadError::ChecksumMismatch { run_start: entry.run_start });
        }
        Ok(())
    }

    /// The one modelled device fetch: draw the fault plan's read decisions,
    /// check the payload against its checksum and, on a mismatch, let a run
    /// carrying parity rebuild a single rotted page right now instead of
    /// failing. On `Ok` the payload in the device image verifies.
    fn fetch_run(&mut self, entry: &MappingEntry) -> Result<(), ReadError> {
        self.fault_device_access(entry)?;
        match self.verify_checksum(entry) {
            Err(e) if !self.try_parity_repair(entry) => Err(e),
            _ => Ok(()),
        }
    }

    /// Fetch a live run's *raw* (decompressed) bytes into `out` (cleared
    /// first — pass a pooled buffer to skip the allocation): the payload
    /// itself for a write-through run, a decode for a compressed one,
    /// whose checksum mismatch is always a hard error — there is no raw
    /// payload to degrade to.
    fn run_raw_bytes(&mut self, entry: &MappingEntry, out: &mut Vec<u8>) -> Result<(), ReadError> {
        self.fetch_run(entry)?;
        let payload = self.payload(entry);
        if entry.tag != CodecId::None {
            return Self::decode_payload(entry, payload, out);
        }
        out.clear();
        out.extend_from_slice(payload);
        Ok(())
    }

    /// Decode a compressed run's (already verified) `payload` — no fault
    /// injection, no checksum, so the scrubber can audit a run without
    /// re-drawing from the fault stream and parity repair can try a
    /// candidate that is not in the device image yet.
    fn decode_payload(
        entry: &MappingEntry,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), ReadError> {
        let original = (u64::from(entry.run_blocks) * BLOCK_BYTES) as usize;
        // A `None` tag cannot reach here (the callers branch on it), but
        // the typed path keeps this panic-free regardless.
        let codec = CodecRegistry::get(entry.tag)
            .map_err(|_| ReadError::Unrecoverable { run_start: entry.run_start })?;
        codec.decompress_into(payload, original, out).map_err(ReadError::Corrupt)
    }

    /// Try to reconstruct a single damaged payload page from the run's XOR
    /// parity page. Each payload page in turn is treated as the casualty
    /// and rebuilt as parity ⊕ (every other page); a candidate wins when
    /// the payload re-hashes to the journaled checksum (and, for a
    /// compressed run, decodes in full). On success the rebuilt bytes are
    /// patched into the device image — the payload again matches its
    /// journaled checksum, so crash recovery's audit stays satisfied
    /// without a new journal record — and `true` is returned.
    fn try_parity_repair(&mut self, entry: &MappingEntry) -> bool {
        if !entry.parity || entry.stored_bytes <= BLOCK_BYTES {
            return false;
        }
        let bb = BLOCK_BYTES as usize;
        let off = entry.device_offset as usize;
        let plen = entry.compressed_bytes as usize;
        let parity_at = off + entry.stored_bytes as usize - bb;
        let mut candidate = self.payload(entry).to_vec();
        let mut rebuilt = [0u8; BLOCK_BYTES as usize];
        let mut damaged = [0u8; BLOCK_BYTES as usize];
        let mut decoded = self.read_buf_pool.pop().unwrap_or_default();
        let mut repaired = false;
        for page in 0..plen.div_ceil(bb).max(1) {
            // Rebuild this page from the parity and all the others.
            rebuilt.copy_from_slice(&self.device[parity_at..parity_at + bb]);
            for (j, chunk) in candidate.chunks(bb).enumerate() {
                if j == page {
                    continue;
                }
                for (d, s) in rebuilt.iter_mut().zip(chunk) {
                    *d ^= s;
                }
            }
            let lo = page * bb;
            let hi = (lo + bb).min(plen);
            damaged[..hi - lo].copy_from_slice(&candidate[lo..hi]);
            candidate[lo..hi].copy_from_slice(&rebuilt[..hi - lo]);
            let plausible = checksum64(&candidate, entry.run_start) == entry.checksum;
            let decodes = plausible
                && (entry.tag == CodecId::None
                    || Self::decode_payload(entry, &candidate, &mut decoded).is_ok());
            if decodes {
                self.device[off + lo..off + hi].copy_from_slice(&candidate[lo..hi]);
                repaired = true;
                break;
            }
            candidate[lo..hi].copy_from_slice(&damaged[..hi - lo]);
        }
        self.recycle_read_buf(decoded);
        repaired
    }

    /// The write path, run at the moment a flush trigger seals `run` (its
    /// bytes are the pending buffer). Decide — hint → estimate → select,
    /// against the monitor state of this instant — then store: the run
    /// whole with dedup off; with dedup on, split at its content-defined
    /// cut points (block granular, FastCDC-style gear hash) so identical
    /// content sequences become identical storable units regardless of
    /// logical position. Runs at or below the chunker's minimum pass
    /// through unsplit, and every chunk inherits the run's codec decision,
    /// keeping the ladder's intensity semantics intact. `emit` receives
    /// one result per stored chunk, in order.
    fn store_run(
        &mut self,
        now_ns: u64,
        run: MergedRun,
        mut emit: impl FnMut(WriteResult),
    ) -> Result<(), EdcError> {
        let mut bytes = std::mem::take(&mut self.pending);
        debug_assert_eq!(bytes.len() as u64, run.bytes(), "SD buffer out of sync");
        let hint = self.hints.lookup(run.start_block);
        // 0. A semantic hint can settle the question without sampling.
        let codec = if hint.is_some_and(FileTypeHint::settles_compressibility) {
            CodecId::None
        } else if self.estimator.is_incompressible(&bytes) {
            // 1. Sampling compressibility check.
            CodecId::None
        } else {
            // 2. Intensity ladder, constrained by any hint.
            let choice = self.selector.select(self.monitor.calculated_iops(now_ns));
            hint.map_or(choice, |h| h.constrain(choice))
        };
        let codec = codec_by_id(codec);
        if self.config.dedup.enabled {
            let bb = BLOCK_BYTES as usize;
            let mut at = 0usize;
            for len in chunk_blocks(&self.gear, &self.config.dedup, &bytes) {
                let chunk = &bytes[at * bb..(at + len as usize) * bb];
                emit(self.store_chunk(run.start_block + at as u64, chunk, codec)?);
                at += len as usize;
            }
        } else {
            emit(self.store_chunk(run.start_block, &bytes, codec)?);
        }
        bytes.clear();
        self.pending = bytes;
        Ok(())
    }

    /// Store one chunk of a sealed run (`None` = write through). With
    /// dedup on, the content-addressed index is probed first: a live
    /// stored run with identical content (byte-compared before sharing —
    /// a hash collision is only ever a wasted compare) is shared instead
    /// of written, skipping compression, allocation and payload
    /// programming entirely. Probe and commit are adjacent, so the target
    /// cannot change in between, and an identical earlier chunk of the
    /// same call is simply already in the index. Anything else is
    /// compressed, placed (quantized allocation with the
    /// keep-raw-if-not-smaller fallback) and committed as a fresh run.
    fn store_chunk(
        &mut self,
        start_block: u64,
        raw: &[u8],
        codec: Option<&'static dyn Codec>,
    ) -> Result<WriteResult, EdcError> {
        let blocks = (raw.len() as u64 / BLOCK_BYTES) as u32;
        let mut hash = None;
        if self.config.dedup.enabled {
            let h = content_hash64(raw, self.config.dedup.seed);
            let mut cmp = self.read_buf_pool.pop().unwrap_or_default();
            let target = self.dedup.candidates(h).iter().find_map(|&off| {
                let t = self.dedup.template(off)?;
                (t.run_blocks == blocks && self.chunk_matches_stored(t, raw, &mut cmp))
                    .then_some(*t)
            });
            self.recycle_read_buf(cmp);
            if let Some(target) = target {
                self.dedup.add_referrer(target.device_offset, start_block, blocks);
                self.commit_ref(&target, start_block, h)?;
                self.dedup_hits += 1;
                self.dedup_elided_bytes += raw.len() as u64;
                return Ok(WriteResult {
                    start_block,
                    blocks,
                    tag: target.tag,
                    payload_bytes: target.compressed_bytes,
                    allocated_bytes: 0,
                });
            }
            hash = Some(h);
        }
        let mut comp = std::mem::take(&mut self.scratch);
        if let Some(codec) = codec {
            codec.compress_with(&mut self.codec_state, raw, &mut comp);
        }
        let comp_len = if codec.is_some() { comp.len() } else { raw.len() } as u64;
        let prev = self
            .map
            .get(start_block)
            .filter(|e| e.run_start == start_block && e.run_blocks == blocks);
        let placement =
            self.allocator.place(raw.len() as u64, comp_len, prev.map(|e| e.stored_bytes));
        let (tag, payload): (CodecId, &[u8]) = match codec {
            Some(codec) if placement.compressed => (codec.id(), &comp),
            _ => (CodecId::None, raw),
        };
        let stored_bytes =
            placement.allocated_bytes + if self.config.parity { BLOCK_BYTES } else { 0 };
        let committed = self.commit_run(tag, start_block, blocks, payload, stored_bytes, None);
        let payload_bytes = payload.len() as u64;
        self.scratch = comp;
        let entry = committed?;
        if hash.is_some() {
            self.dedup.insert_unique(hash, entry);
        }
        Ok(WriteResult {
            start_block,
            blocks,
            tag,
            payload_bytes,
            allocated_bytes: placement.allocated_bytes,
        })
    }

    /// The one place a run becomes durable: slot allocation, payload
    /// pages programmed page by page against the power-cut clock — a cut
    /// mid-run leaves a partial payload with no commit record, exactly
    /// what recovery expects — then the parity page, the journal commit
    /// record and the mapping update. A cut can orphan a payload but
    /// never journal a run whose payload is missing. `stored_bytes` is the
    /// slot size, parity page included.
    ///
    /// `moved` makes the commit an out-of-place rewrite of a live run
    /// (scrub repair, recompression, demotion): it carries the run's old
    /// device offset and its referrers, which must come from
    /// [`EdcPipeline::relocation_referrers`] or stale blocks would
    /// resurrect. The new record supersedes the old one on replay (a cut
    /// before it leaves the old run live), the dedup ledger state moves
    /// to the new offset, and every sharer is re-pointed through its own
    /// journaled `Ref` record; their superseded entries drain the old
    /// slot's references, freeing it once the last one moves.
    fn commit_run(
        &mut self,
        tag: CodecId,
        run_start: u64,
        run_blocks: u32,
        payload: &[u8],
        stored_bytes: u64,
        moved: Option<(u64, &[(u64, u32)])>,
    ) -> Result<MappingEntry, EdcError> {
        // The slot is referenced by every block of the run and frees only
        // when all are superseded. With parity on, its last page holds
        // the XOR of the payload's zero-padded pages, programmed after
        // the payload and before the commit record.
        let parity = self.config.parity;
        let device_offset = self.slots.alloc_run(stored_bytes, run_blocks);
        let off = device_offset as usize;
        let bb = BLOCK_BYTES as usize;
        for page in 0..payload.len().div_ceil(bb).max(1) {
            self.faults.program_page().map_err(fault_to_edc)?;
            let lo = page * bb;
            let hi = (lo + bb).min(payload.len());
            self.device[off + lo..off + hi].copy_from_slice(&payload[lo..hi]);
        }
        if parity {
            self.faults.program_page().map_err(fault_to_edc)?;
            let page = xor_parity(payload);
            let at = off + stored_bytes as usize - bb;
            self.device[at..at + bb].copy_from_slice(&page);
        }
        // One dwell per stored run: the media is busy programming the
        // run's pages while this shard's lock is held, and sleeps on
        // different shards overlap.
        self.device_dwell();
        self.physical_written += stored_bytes;
        let entry = MappingEntry {
            tag,
            run_start,
            run_blocks,
            device_offset,
            stored_bytes,
            compressed_bytes: payload.len() as u64,
            checksum: checksum64(payload, run_start),
            parity,
        };
        // The commit point: one more page program for the journal
        // record. A cut here drops the run (payload durable but
        // unreferenced) — never the reverse.
        self.faults.program_page().map_err(fault_to_edc)?;
        self.journal.append(&entry);
        // Carry the ledger state (hash, referrer counts) to the new
        // offset before the mapping update releases the old one.
        if let Some((old_offset, _)) = moved {
            self.dedup.relocate(old_offset, entry);
        }
        for old in self.map.insert_run(entry) {
            self.release_superseded(&old);
        }
        if let Some((_, referrers)) = moved {
            // The content hash carries over: it is a hash of the *raw*
            // bytes, which a rewrite does not change.
            let hash = self.dedup.content_hash(device_offset).unwrap_or(0);
            for &(r_start, _) in referrers {
                if r_start != run_start {
                    self.commit_ref(&entry, r_start, hash)?;
                }
            }
        }
        Ok(entry)
    }

    /// Point the run-sized range at `run_start` at the stored run `target`
    /// — a foreground dedup hit, or a sharer following its relocated run:
    /// the slot takes the new block references first, then the `Ref`
    /// commit record is journaled (new-ref-then-commit: a cut can orphan a
    /// taken reference — volatile state recovery rebuilds anyway — but
    /// never journal a reference that was not taken), then the mapping
    /// re-points.
    fn commit_ref(
        &mut self,
        target: &MappingEntry,
        run_start: u64,
        hash: u64,
    ) -> Result<(), EdcError> {
        let checksum = checksum64(self.payload(target), run_start);
        let sharer = MappingEntry { run_start, checksum, ..*target };
        self.slots.add_run_refs(target.device_offset, target.run_blocks);
        self.faults.program_page().map_err(fault_to_edc)?;
        self.journal.append_ref(&sharer, hash);
        for old in self.map.insert_run(sharer) {
            self.release_superseded(&old);
        }
        Ok(())
    }

    /// Everything that must happen when a mapping insertion supersedes an
    /// old entry's block: drop the block's slot reference (the slot frees
    /// at zero), mirror the release into the dedup refcount ledger (a
    /// no-op for untracked runs), and invalidate any cached decompression
    /// of the superseded run — a later read must never see it.
    fn release_superseded(&mut self, old: &MappingEntry) {
        self.slots.release_block_ref(old.device_offset);
        self.dedup.release_block(old.device_offset, old.run_start);
        if let Some(stale) = self.cache.invalidate(old.device_offset) {
            self.recycle_read_buf(stale);
        }
    }

    /// Byte-compare a candidate chunk against the stored run `template`
    /// describes: checksum first (a rotted payload must never be adopted
    /// as a dedup target), then the raw bytes — decoded into `scratch`
    /// for compressed runs, straight out of the image for write-through
    /// ones. Draws nothing from the fault stream: a dedup probe is a
    /// pure lookup, not a modelled device access.
    fn chunk_matches_stored(
        &self,
        template: &MappingEntry,
        raw: &[u8],
        scratch: &mut Vec<u8>,
    ) -> bool {
        let payload = self.payload(template);
        if checksum64(payload, template.run_start) != template.checksum {
            return false;
        }
        if template.tag == CodecId::None {
            return payload == raw;
        }
        Self::decode_payload(template, payload, scratch).is_ok() && scratch[..] == raw[..]
    }

    /// Rebuild the store's volatile state from the durable journal after
    /// a (simulated) crash: restore power, reset the mapping table, slot
    /// store, caches and buffers, replay every valid journal record in
    /// append order, then audit each surviving run's payload against its
    /// checksum. Runs whose commit record landed before the cut come back
    /// with zero data loss; the run being stored at the instant of the
    /// cut is dropped (its blocks read as before that write, or zero).
    ///
    /// Also valid on a healthy store: recovery then rebuilds exactly the
    /// state it already had.
    pub fn recover(&mut self) -> Result<RecoveryReport, RecoveryError> {
        self.faults.power_cycle();
        let capacity = self.device.len() as u64;
        self.map = BlockMap::new();
        self.slots = SlotStore::new(capacity);
        self.cache = RunCache::new(self.config.cache_runs);
        self.sd = SequentialityDetector::new(self.config.sd);
        self.pending.clear();
        // Temperature is ephemeral statistics, not durable metadata: the
        // recovered store re-learns heat (and re-cools demoted extents)
        // before the background pass touches anything.
        self.heat.reset();
        // The refcount ledger is rebuilt from the journal: `Put` records
        // enter with one referrer (so a legacy journal replays with every
        // refcount = 1, exactly the pre-dedup state), `Ref` records add
        // sharers and re-teach content hashes.
        self.dedup.reset();
        let replay = self.journal.replay();
        // A cleanly-decoded record carrying another shard's id means the
        // journal stream was mis-routed — adopting its mappings would
        // serve another shard's data at this shard's offsets.
        if let Some(seq) = replay.wrong_shard {
            return Err(RecoveryError { seq, reason: "record belongs to another shard" });
        }
        // Replay re-runs each committed insertion, tracking which runs
        // are still live (not fully superseded by a later record).
        let mut live: HashMap<u64, MappingEntry> = HashMap::new();
        for (seq, record) in replay.records.iter().enumerate() {
            let seq = seq as u64;
            let inserted = match record {
                JournalRecord::Put(entry) => {
                    if entry.run_blocks == 0 {
                        return Err(RecoveryError { seq, reason: "zero-length run" });
                    }
                    if entry.parity && entry.stored_bytes <= BLOCK_BYTES {
                        return Err(RecoveryError {
                            seq,
                            reason: "parity run too small for its parity page",
                        });
                    }
                    let payload_slot =
                        entry.stored_bytes - if entry.parity { BLOCK_BYTES } else { 0 };
                    if entry.compressed_bytes > payload_slot {
                        return Err(RecoveryError { seq, reason: "payload exceeds its slot" });
                    }
                    if entry.stored_bytes == 0 || entry.device_offset + entry.stored_bytes > capacity
                    {
                        return Err(RecoveryError { seq, reason: "slot beyond device" });
                    }
                    self.slots.adopt_run(entry.device_offset, entry.stored_bytes, entry.run_blocks);
                    live.insert(entry.device_offset, *entry);
                    self.dedup.insert_unique(None, *entry);
                    *entry
                }
                JournalRecord::Ref(r) => {
                    // A sharer's commit record: the target must still be
                    // live at this point of the replay (the foreground
                    // path only ever references live runs, so anything
                    // else is journal corruption).
                    let Some(template) = live.get(&r.device_offset).copied() else {
                        return Err(RecoveryError {
                            seq,
                            reason: "dedup ref to a dead or unknown run",
                        });
                    };
                    if template.run_blocks != r.run_blocks {
                        return Err(RecoveryError { seq, reason: "dedup ref length mismatch" });
                    }
                    let sharer = MappingEntry {
                        run_start: r.run_start,
                        run_blocks: r.run_blocks,
                        checksum: r.checksum,
                        ..template
                    };
                    self.slots.add_run_refs(r.device_offset, r.run_blocks);
                    self.dedup.add_referrer(r.device_offset, r.run_start, r.run_blocks);
                    if r.content_hash != 0 {
                        self.dedup.learn_hash(r.device_offset, r.content_hash);
                    }
                    sharer
                }
            };
            for old in self.map.insert_run(inserted) {
                self.dedup.release_block(old.device_offset, old.run_start);
                if self.slots.release_block_ref(old.device_offset).is_some() {
                    live.remove(&old.device_offset);
                }
            }
        }
        let mut report = RecoveryReport {
            scanned_records: replay.scanned,
            torn_tail: replay.torn_tail,
            ..RecoveryReport::default()
        };
        // Audit: a journaled run's payload must still hash to its record's
        // checksum. Payload-then-commit ordering guarantees it at crash
        // time; rot or image damage after the crash can still break it,
        // and such runs are dropped rather than served corrupt. A shared
        // run drops with EVERY referrer — a dedup sharer pointing at a
        // rotted payload must not survive either.
        let mut survivors: Vec<MappingEntry> = live.into_values().collect();
        survivors.sort_by_key(|e| e.device_offset);
        for entry in survivors {
            if self.verify_checksum(&entry).is_ok() {
                report.replayed_runs += 1;
            } else {
                report.payload_mismatches += 1;
                let referrers = self
                    .dedup
                    .referrers(entry.device_offset)
                    .unwrap_or_else(|| vec![(entry.run_start, entry.run_blocks)]);
                for (r_start, _) in referrers {
                    for b in r_start..r_start + u64::from(entry.run_blocks) {
                        if self.map.get(b).is_some_and(|e| e.device_offset == entry.device_offset)
                        {
                            self.map.remove(b);
                            self.slots.release_block_ref(entry.device_offset);
                        }
                    }
                }
                self.dedup.purge(entry.device_offset);
            }
        }
        Ok(report)
    }

    /// Background integrity scrub: walk every live run, verify its
    /// checksum *and* a full decode (compressed runs) plus its parity page
    /// (parity runs), and heal what verification fails.
    ///
    /// * Payload damage that parity can reconstruct is repaired and the
    ///   run rewritten **out-of-place** — fresh slot, payload and parity
    ///   pages programmed against the power-cut clock, then a journal
    ///   commit record, exactly like a foreground flush — so the repair is
    ///   durable and the suspect slot is retired. The superseded slot's
    ///   cached decompression is invalidated with it.
    /// * A stale parity page over a healthy payload is recomputed in its
    ///   slot (the payload itself never moved).
    /// * Damage parity cannot reconstruct is counted
    ///   [`ScrubReport::unrecoverable`] and left in place for a degraded
    ///   read policy to salvage.
    ///
    /// The walk draws from the fault plan like any device access, so a
    /// rot-injection campaign rots runs *as the scrubber fetches them* —
    /// the scrub-campaign benchmark measures exactly this. A power cut
    /// mid-rewrite surfaces as a typed error; payload-then-commit ordering
    /// keeps the old (already in-place-repaired) run recoverable, so the
    /// cut loses nothing.
    pub fn scrub(&mut self) -> Result<ScrubReport, EdcError> {
        self.check_powered()?;
        let mut report = ScrubReport::default();
        let mut decoded = self.read_buf_pool.pop().unwrap_or_default();
        for entry in self.map.live_runs() {
            report.scanned += 1;
            if self.fault_device_access(&entry).is_err() {
                // Transient read faults exhausted the retry budget: the
                // run cannot even be fetched to audit this pass.
                report.unrecoverable += 1;
                continue;
            }
            if self.run_is_healthy(&entry, &mut decoded) {
                if self.parity_page_fresh(&entry) {
                    report.clean += 1;
                } else {
                    self.refresh_parity_page(&entry);
                    report.repaired += 1;
                }
                continue;
            }
            if self.try_parity_repair(&entry) {
                // Reconstructed in place; now retire the suspect slot —
                // unless a referrer (dedup sharing) is partially
                // superseded, in which case relocation is unsafe and the
                // in-place repair alone has to carry the run.
                if let Some(referrers) = self.relocation_referrers(&entry) {
                    let mut payload = self.read_buf_pool.pop().unwrap_or_default();
                    payload.extend_from_slice(self.payload(&entry));
                    let res = self.commit_run(
                        entry.tag,
                        entry.run_start,
                        entry.run_blocks,
                        &payload,
                        entry.stored_bytes,
                        Some((entry.device_offset, &referrers)),
                    );
                    self.recycle_read_buf(payload);
                    res?;
                }
                report.repaired += 1;
            } else {
                report.unrecoverable += 1;
            }
        }
        self.recycle_read_buf(decoded);
        Ok(report)
    }

    /// The audit of one run that [`EdcPipeline::scrub`] and
    /// [`EdcPipeline::verify`] share: checksum, plus a full decode into
    /// `scratch` for compressed runs (a checksum can't catch a payload
    /// that was stored corrupt — decode proves the bytes still expand).
    /// Draws nothing from the fault stream.
    fn run_is_healthy(&self, entry: &MappingEntry, scratch: &mut Vec<u8>) -> bool {
        self.verify_checksum(entry).is_ok()
            && (entry.tag == CodecId::None
                || Self::decode_payload(entry, self.payload(entry), scratch).is_ok())
    }

    /// Whether a run's stored parity page still equals the XOR of its
    /// payload pages (vacuously true for runs without parity).
    fn parity_page_fresh(&self, entry: &MappingEntry) -> bool {
        if !entry.parity || entry.stored_bytes <= BLOCK_BYTES {
            return true;
        }
        let bb = BLOCK_BYTES as usize;
        let at = (entry.device_offset + entry.stored_bytes) as usize - bb;
        self.device[at..at + bb] == xor_parity(self.payload(entry))[..]
    }

    /// Recompute a run's parity page from its (healthy) payload, in its
    /// slot. Like [`EdcPipeline::try_parity_repair`]'s payload patch this
    /// restores the journaled state rather than creating new state, so no
    /// journal record is needed.
    fn refresh_parity_page(&mut self, entry: &MappingEntry) {
        let bb = BLOCK_BYTES as usize;
        let page = xor_parity(self.payload(entry));
        let at = (entry.device_offset + entry.stored_bytes) as usize - bb;
        self.device[at..at + bb].copy_from_slice(&page);
    }

    /// The referrers of a relocation candidate, as `(run_start, blocks)`
    /// pairs with the mapping's representative first — or `None` when any
    /// referrer (the representative included) is partially superseded:
    /// re-inserting the full run range would then resurrect stale blocks,
    /// so the caller must leave the run in place. Untracked runs (dedup
    /// off, or adopted from a legacy journal) audit their single implicit
    /// referrer the same way.
    fn relocation_referrers(&self, entry: &MappingEntry) -> Option<Vec<(u64, u32)>> {
        let mut referrers = self
            .dedup
            .referrers(entry.device_offset)
            .unwrap_or_else(|| vec![(entry.run_start, entry.run_blocks)]);
        referrers.sort_unstable_by_key(|&(s, _)| (s != entry.run_start, s));
        for &(r_start, _) in &referrers {
            for b in r_start..r_start + u64::from(entry.run_blocks) {
                let live = self.map.get(b).is_some_and(|e| {
                    e.device_offset == entry.device_offset && e.run_start == r_start
                });
                if !live {
                    return None;
                }
            }
        }
        Some(referrers)
    }

    /// Heat-aware background recompression (the GC-cooperation policy,
    /// DESIGN.md §12): walk up to the whole live-run set, classify each
    /// run by its decayed extent heat at `now_ns`, and
    ///
    /// * **cold** runs whose codec tag is strictly weaker than `target`
    ///   are re-compressed with `target` (the ladder's strongest codec —
    ///   [`SelectorConfig::strongest_codec`]) using the pooled
    ///   [`CompressorState`], but only when the new quantized slot is
    ///   strictly smaller than the old one. A trial that finds no gain is
    ///   remembered with the slot, and while the slot lives later passes
    ///   at the same target count it `skipped_no_gain` without fetching,
    ///   decoding or encoding it again;
    /// * **hot** runs whose achieved ratio is at or below
    ///   [`HeatConfig::demote_ratio`] are demoted to write-through, so
    ///   their reads skip decompression entirely; the covered extents are
    ///   flagged and excluded from future recompression until a crash
    ///   resets the (volatile) flag;
    /// * `FileTypeHint::Precompressed` runs are never touched.
    ///
    /// Every rewrite is durable and crash-consistent: fresh slot, payload
    /// (+ parity) pages programmed against the power-cut clock *before*
    /// the journal commit record, mapping updated, superseded slot
    /// released and its cached decompression dropped — exactly the
    /// foreground flush discipline, so a power cut mid-pass loses no
    /// journaled run (the old record still wins on replay). A cut
    /// surfaces as the usual typed error; call [`EdcPipeline::recover`].
    ///
    /// `max_rewrites` bounds the rewrites (not the scan) per pass — the
    /// caller's idle-bandwidth budget; a GC slice passes a small number,
    /// a dedicated background sweep can pass `usize::MAX`. After a cold
    /// run moves, its decompressed bytes are re-inserted into the read
    /// cache under the new offset (the pass just held them anyway), so
    /// the first post-relocation read pays no decompression.
    pub fn recompress_pass(
        &mut self,
        now_ns: u64,
        target: CodecId,
        max_rewrites: usize,
    ) -> Result<RecompressReport, EdcError> {
        self.check_powered()?;
        let mut report = RecompressReport::default();
        if !self.config.heat.enabled || max_rewrites == 0 || target == CodecId::None {
            return Ok(report);
        }
        let codec = CodecRegistry::get(target)?;
        let mut rewrites = 0usize;
        for entry in self.map.live_runs() {
            if rewrites >= max_rewrites {
                break;
            }
            // A dedup sharer enumerates once per referrer; relocating the
            // run under one referrer re-points them all, leaving the
            // siblings' snapshot entries stale. Those were already
            // handled this pass — don't re-count (or re-touch) them.
            let stale = self
                .map
                .get(entry.run_start)
                .is_none_or(|e| e.device_offset != entry.device_offset);
            if stale {
                continue;
            }
            report.scanned += 1;
            let blocks = u64::from(entry.run_blocks);
            if self.hints.lookup(entry.run_start).is_some_and(FileTypeHint::settles_compressibility)
            {
                report.skipped_precompressed += 1;
                continue;
            }
            if self.heat.run_demoted(entry.run_start, blocks) {
                report.skipped_demoted += 1;
                continue;
            }
            match self.heat.classify_run(now_ns, entry.run_start, blocks) {
                Temperature::Hot => {
                    let raw_len = blocks * BLOCK_BYTES;
                    let achieved = raw_len as f64 / entry.compressed_bytes.max(1) as f64;
                    if entry.tag == CodecId::None || achieved > self.config.heat.demote_ratio {
                        continue; // hot and worth its compression: leave it
                    }
                    let Some(referrers) = self.relocation_referrers(&entry) else {
                        report.skipped_shared += 1;
                        continue;
                    };
                    let mut raw = self.read_buf_pool.pop().unwrap_or_default();
                    if self.run_raw_bytes(&entry, &mut raw).is_err() {
                        self.recycle_read_buf(raw);
                        report.skipped_unreadable += 1;
                        continue;
                    }
                    let stored =
                        raw_len + if self.config.parity { BLOCK_BYTES } else { 0 };
                    let res = self.commit_run(
                        CodecId::None,
                        entry.run_start,
                        entry.run_blocks,
                        &raw,
                        stored,
                        Some((entry.device_offset, &referrers)),
                    );
                    self.recycle_read_buf(raw);
                    res?;
                    self.heat.mark_demoted(entry.run_start, blocks);
                    self.demoted_runs += 1;
                    report.demoted += 1;
                    rewrites += 1;
                }
                Temperature::Cold => {
                    if codec_strength(entry.tag) >= codec_strength(target) {
                        continue; // already at (or above) the target tier
                    }
                    let Some(referrers) = self.relocation_referrers(&entry) else {
                        report.skipped_shared += 1;
                        continue;
                    };
                    // The slot's payload cannot have changed since an
                    // earlier trial at this target found no gain.
                    if self.slots.no_gain(entry.device_offset) == Some(target) {
                        report.skipped_no_gain += 1;
                        continue;
                    }
                    let mut raw = self.read_buf_pool.pop().unwrap_or_default();
                    if self.run_raw_bytes(&entry, &mut raw).is_err() {
                        self.recycle_read_buf(raw);
                        report.skipped_unreadable += 1;
                        continue;
                    }
                    let mut comp = std::mem::take(&mut self.scratch);
                    codec.compress_with(&mut self.codec_state, &raw, &mut comp);
                    let (raw_len, comp_len) = (raw.len() as u64, comp.len() as u64);
                    let placement = self.allocator.quantum_for(raw_len, comp_len);
                    let stored = placement.allocated_bytes
                        + if self.config.parity { BLOCK_BYTES } else { 0 };
                    if !placement.compressed || stored >= entry.stored_bytes {
                        self.slots.set_no_gain(entry.device_offset, target);
                        report.skipped_no_gain += 1;
                        self.recycle_read_buf(raw);
                        self.scratch = comp;
                        continue;
                    }
                    self.allocator.place(raw_len, comp_len, None);
                    let res = self.commit_run(
                        target,
                        entry.run_start,
                        entry.run_blocks,
                        &comp,
                        stored,
                        Some((entry.device_offset, &referrers)),
                    );
                    self.scratch = comp;
                    let new_entry = match res {
                        Ok(e) => e,
                        Err(e) => {
                            self.recycle_read_buf(raw);
                            return Err(e);
                        }
                    };
                    // The pass already holds the decompressed bytes:
                    // seed the cache under the new offset so the first
                    // post-relocation read skips the (stronger, slower)
                    // decompressor.
                    if let Some(displaced) = self.cache.insert(new_entry.device_offset, raw) {
                        self.recycle_read_buf(displaced);
                    }
                    report.bytes_reclaimed += entry.stored_bytes - stored;
                    self.recompressed_runs += 1;
                    report.recompressed += 1;
                    rewrites += 1;
                }
                Temperature::Warm => {}
            }
        }
        Ok(report)
    }

    /// The heat tracker (read-only view for tests and benchmarks).
    pub fn heat(&self) -> &HeatTracker {
        &self.heat
    }

    /// Replace the fault plan, restarting the decision stream (campaigns
    /// arm faults *after* preconditioning this way).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.config.fault = plan;
        self.faults = FaultState::new(plan);
    }

    /// Injected-fault counters so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// Whether the (simulated) store currently has power.
    pub fn powered(&self) -> bool {
        self.faults.powered()
    }

    /// Cut power immediately, regardless of any armed program budget —
    /// the deterministic "yank the cord now" behind
    /// [`crate::store::Op::PowerCut`]. Every subsequent entry point
    /// errors until [`EdcPipeline::recover`] runs.
    pub fn cut_power(&mut self) {
        self.faults.cut_power();
    }

    /// Test hook: tear the journal to its first `bytes` bytes, simulating
    /// a cut mid-way through a journal page program.
    pub fn truncate_journal_bytes(&mut self, bytes: usize) {
        self.journal.truncate_bytes(bytes);
    }

    /// Current live on-flash footprint: the stored bytes (allocated quanta
    /// plus any parity page) of every live run. Unlike the cumulative
    /// [`PipelineStats::physical_written`], this shrinks when background
    /// recompression or overwrites release space — it is the number the
    /// heat bench's space gate compares.
    pub fn live_stored_bytes(&self) -> u64 {
        self.map.live_runs().iter().map(|e| e.stored_bytes).sum()
    }

    /// Allocator statistics.
    pub fn alloc_stats(&self) -> AllocStats {
        self.allocator.stats()
    }

    /// One snapshot of every counter.
    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            logical_written: self.logical_written,
            physical_written: self.physical_written,
            mapped_blocks: self.map.len() as u64,
            live_runs: self.map.live_runs().len() as u64,
            journal_records: self.journal.records(),
            journal_bytes: self.journal.len_bytes() as u64,
            degraded_reads: self.degraded_reads,
            programs: self.faults.programs(),
            recompressed_runs: self.recompressed_runs,
            demoted_runs: self.demoted_runs,
            cache: self.cache.stats(),
            dedup_hits: self.dedup_hits,
            dedup_elided_bytes: self.dedup_elided_bytes,
        }
    }

    /// Read-only integrity audit: walk every live run and check its
    /// checksum, a full decode (compressed runs) and parity-page freshness
    /// — the non-healing counterpart of [`EdcPipeline::scrub`]. Nothing is
    /// repaired or rewritten and no fault-plan decisions are drawn, so a
    /// verify pass never perturbs a campaign. Failing runs are counted
    /// [`ScrubReport::unrecoverable`]; `repaired` is always zero.
    pub fn verify(&self) -> Result<ScrubReport, EdcError> {
        self.check_powered()?;
        let mut report = ScrubReport::default();
        let mut buf = Vec::new();
        for entry in self.map.live_runs() {
            report.scanned += 1;
            if self.run_is_healthy(&entry, &mut buf) && self.parity_page_fresh(&entry) {
                report.clean += 1;
            } else {
                report.unrecoverable += 1;
            }
        }
        Ok(report)
    }

    /// Cross-check the dedup refcount ledger against the mapping table
    /// both ways — the §14 analogue of the slot store's
    /// bucket cross-check in [`EdcPipeline::verify`]:
    ///
    /// * every ledger referrer must be present in the mapping with
    ///   exactly its recorded live block count, per tracked offset the
    ///   mapping must hold exactly the ledger's referrers, and the slot
    ///   store's outstanding block references must equal the ledger's
    ///   total live blocks;
    /// * conversely no mapped offset may carry sharing the ledger does
    ///   not know about, and with dedup enabled every live run must be
    ///   tracked.
    ///
    /// Read-only and fault-free; returns aggregate counters on success
    /// and a typed [`EdcError::Integrity`] on the first inconsistency.
    pub fn verify_dedup(&self) -> Result<DedupReport, EdcError> {
        self.check_powered()?;
        // Mapping side: live block counts grouped offset → referrers.
        let mut map_side: HashMap<u64, Vec<(u64, u32)>> = HashMap::new();
        for (entry, blocks) in self.map.referrer_counts() {
            map_side.entry(entry.device_offset).or_default().push((entry.run_start, blocks));
        }
        let mut report = DedupReport::default();
        for referrers in map_side.values() {
            report.runs += 1;
            if referrers.len() > 1 {
                report.shared_runs += 1;
                report.extra_refs += referrers.len() as u64 - 1;
            }
        }
        if !self.config.dedup.enabled && self.dedup.is_empty() {
            // A store with no ledger at all must also have no sharing.
            if report.shared_runs > 0 {
                return Err(EdcError::Integrity("shared run on a store with no dedup ledger"));
            }
            return Ok(report);
        }
        // Ledger → mapping: every recorded referrer really holds exactly
        // its recorded blocks, and the slot refcount agrees.
        for (off, referrers) in self.dedup.ledger() {
            let map_refs = map_side.get(&off).map_or(&[][..], Vec::as_slice);
            if map_refs.len() != referrers.len() {
                return Err(EdcError::Integrity("ledger and mapping disagree on referrer count"));
            }
            let mut total = 0u32;
            for &(r_start, blocks) in &referrers {
                total += blocks;
                if !map_refs.iter().any(|&(s, n)| s == r_start && n == blocks) {
                    return Err(EdcError::Integrity("ledger referrer missing from the mapping"));
                }
            }
            if self.slots.block_refs(off) != total {
                return Err(EdcError::Integrity("slot refcount disagrees with the ledger"));
            }
        }
        // Mapping → ledger: sharing outside the ledger is always an
        // inconsistency; an untracked unique run is legal only while
        // dedup is disabled (stored before the ledger existed).
        for (off, referrers) in &map_side {
            if self.dedup.tracked(*off) {
                continue;
            }
            if referrers.len() > 1 {
                return Err(EdcError::Integrity("shared run missing from the dedup ledger"));
            }
            if self.config.dedup.enabled {
                return Err(EdcError::Integrity("live run missing from the dedup ledger"));
            }
        }
        Ok(report)
    }

    /// Codec-scratch growth events of the pooled [`CompressorState`].
    /// After a warm-up this stays constant: steady-state compression
    /// performs no codec-side allocation.
    pub fn codec_state_alloc_events(&self) -> u64 {
        self.codec_state.alloc_events()
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }
}

/// XOR of a payload's zero-padded 4 KiB pages: the run's parity page.
/// Any single payload page equals this XORed with all the other pages.
fn xor_parity(payload: &[u8]) -> Vec<u8> {
    let bb = BLOCK_BYTES as usize;
    let mut page = vec![0u8; bb];
    for chunk in payload.chunks(bb) {
        for (d, s) in page.iter_mut().zip(chunk) {
            *d ^= s;
        }
    }
    page
}

/// Map a flash-level fault surfacing on the pipeline's write path into
/// the unified error: power loss and powered-off get their write-path
/// types, anything else passes through as a raw fault.
fn fault_to_edc(e: FaultError) -> EdcError {
    match e {
        FaultError::PowerCut { after_programs } => WriteError::PowerCut { after_programs }.into(),
        FaultError::PoweredOff => WriteError::Offline.into(),
        other => EdcError::Fault(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text_block(tag: u8) -> Vec<u8> {
        format!("block {tag} elastic compression pipeline content ")
            .into_bytes()
            .into_iter()
            .cycle()
            .take(4096)
            .collect()
    }

    fn random_block(seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 48) as u8
            })
            .collect()
    }

    fn pipeline() -> EdcPipeline {
        EdcPipeline::new(4 << 20, PipelineConfig::default())
    }

    #[test]
    fn write_read_round_trip() {
        let mut p = pipeline();
        let data = text_block(1);
        p.write(0, 0, &data).unwrap();
        p.flush_all(1_000).unwrap();
        assert_eq!(p.read(2_000, 0, 4096).unwrap(), data);
    }

    #[test]
    fn read_flushes_pending_writes() {
        let mut p = pipeline();
        let data = text_block(2);
        p.write(0, 8192, &data).unwrap();
        // No explicit flush: the read must still see the data.
        assert_eq!(p.read(1_000, 8192, 4096).unwrap(), data);
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let mut p = pipeline();
        assert_eq!(p.read(0, 0, 8192).unwrap(), vec![0u8; 8192]);
    }

    #[test]
    fn sequential_writes_merge_into_one_run() {
        let mut p = pipeline();
        let a = text_block(3);
        let b = text_block(4);
        let c = text_block(5);
        assert!(p.write(0, 0, &a).unwrap().is_empty());
        assert!(p.write(10, 4096, &b).unwrap().is_empty());
        assert!(p.write(20, 8192, &c).unwrap().is_empty());
        let r = p.flush_all(30).unwrap().pop().expect("flush merged run");
        assert_eq!(r.blocks, 3);
        assert_eq!(r.start_block, 0);
        // Round trip across the merged run.
        let all = p.read(40, 0, 3 * 4096).unwrap();
        assert_eq!(&all[..4096], &a[..]);
        assert_eq!(&all[4096..8192], &b[..]);
        assert_eq!(&all[8192..], &c[..]);
    }

    #[test]
    fn compressible_data_is_compressed_and_saves_space() {
        let mut p = pipeline();
        for i in 0..32u64 {
            p.write(i, i * 4096, &text_block(i as u8)).unwrap();
        }
        p.flush_all(100).unwrap();
        assert!(p.stats().compression_ratio() > 1.5, "ratio {}", p.stats().compression_ratio());
    }

    #[test]
    fn steady_state_drains_do_not_allocate_codec_scratch() {
        // Idle-band arrivals on the default ladder: every run goes to
        // Deflate, the most scratch-hungry codec.
        let mut p = EdcPipeline::new(32 << 20, PipelineConfig::default());
        let mut now = 0u64;
        let round = |p: &mut EdcPipeline, now: &mut u64| {
            for i in 0..8u64 {
                // Non-adjacent offsets: each write seals its own run.
                let flushed = p.write(*now, i * 3 * 4096, &text_block(i as u8)).unwrap();
                assert!(flushed.iter().all(|r| r.tag == CodecId::Deflate), "{flushed:?}");
                *now += 100_000_000;
            }
            p.flush_all(*now).unwrap();
            *now += 100_000_000;
        };
        // Warm-up rounds grow the pooled scratch once.
        round(&mut p, &mut now);
        round(&mut p, &mut now);
        let warmed = p.codec_state_alloc_events();
        for _ in 0..4 {
            round(&mut p, &mut now);
        }
        assert_eq!(
            p.codec_state_alloc_events(),
            warmed,
            "steady-state drain grew codec scratch"
        );
    }

    #[test]
    fn incompressible_data_written_through() {
        let mut p = pipeline();
        let r = {
            p.write(0, 0, &random_block(42)).unwrap();
            p.flush_all(1).unwrap().pop().unwrap()
        };
        assert_eq!(r.tag, CodecId::None);
        assert_eq!(r.allocated_bytes, 4096);
        assert_eq!(p.read(2, 0, 4096).unwrap(), random_block(42));
    }

    #[test]
    fn high_intensity_skips_compression() {
        let mut p = pipeline();
        // 20k writes/s sustained: the 1 s monitor window exceeds the
        // 4 000 calc-IOPS skip threshold within 200 ms.
        let mut last = None;
        for i in 0..6000u64 {
            let off = (i % 400) * 3 * 4096; // non-contiguous: flush each time
            last = p.write(i * 50_000, off, &text_block(9)).unwrap().pop().or(last);
        }
        let r = last.expect("flushes happened");
        assert_eq!(r.tag, CodecId::None, "burst writes must skip compression");
    }

    #[test]
    fn idle_writes_use_strong_codec() {
        let mut p = pipeline();
        // One write every 100 ms: ~10 calculated IOPS → Gzip band.
        let mut results = Vec::new();
        for i in 0..20u64 {
            results.extend(p.write(i * 100_000_000, (i * 5) * 4096, &text_block(7)).unwrap());
        }
        results.extend(p.flush_all(20 * 100_000_000).unwrap());
        assert!(
            results.iter().any(|r| r.tag == CodecId::Deflate),
            "idle writes should pick Gzip, got {:?}",
            results.iter().map(|r| r.tag).collect::<Vec<_>>()
        );
    }

    #[test]
    fn overwrite_returns_latest_data() {
        let mut p = pipeline();
        let v1 = text_block(1);
        let v2 = random_block(77);
        p.write(0, 4096, &v1).unwrap();
        p.flush_all(1).unwrap();
        p.write(2, 4096, &v2).unwrap();
        p.flush_all(3).unwrap();
        assert_eq!(p.read(4, 4096, 4096).unwrap(), v2);
    }

    #[test]
    fn partial_read_of_merged_run() {
        let mut p = pipeline();
        let a = text_block(11);
        let b = text_block(12);
        p.write(0, 0, &a).unwrap();
        p.write(1, 4096, &b).unwrap();
        p.flush_all(2).unwrap();
        // Read only the second block of the two-block run.
        assert_eq!(p.read(3, 4096, 4096).unwrap(), b);
    }

    #[test]
    fn multi_block_write_round_trip() {
        let mut p = pipeline();
        let mut big = text_block(20);
        big.extend(text_block(21));
        big.extend(random_block(5));
        big.extend(text_block(22));
        p.write(0, 16384, &big).unwrap();
        p.flush_all(1).unwrap();
        assert_eq!(p.read(2, 16384, big.len() as u64).unwrap(), big);
    }

    #[test]
    fn unaligned_write_rejected_as_typed_error() {
        let mut p = pipeline();
        assert!(matches!(
            p.write(0, 100, &text_block(0)),
            Err(EdcError::Write(WriteError::Unaligned))
        ));
        // The whole batch is validated up front: nothing was accepted.
        assert_eq!(p.stats().logical_written, 0);
        p.write(1, 0, &text_block(0)).unwrap();
    }

    #[test]
    fn unaligned_read_errors() {
        let mut p = pipeline();
        assert!(matches!(p.read(0, 100, 4096), Err(ReadError::Unaligned)));
        assert!(matches!(p.read(0, 0, 100), Err(ReadError::Unaligned)));
    }

    #[test]
    fn precompressed_hint_skips_compression_of_compressible_data() {
        let mut p = pipeline();
        p.set_hint(0, 8192, FileTypeHint::Precompressed);
        let data = text_block(40); // would normally compress well
        p.write(0, 0, &data).unwrap();
        let r = p.flush_all(1).unwrap().pop().unwrap();
        assert_eq!(r.tag, CodecId::None, "hint must veto compression");
        assert_eq!(p.read(2, 0, 4096).unwrap(), data);
    }

    #[test]
    fn database_hint_caps_codec_at_fast_tier() {
        let mut p = pipeline();
        p.set_hint(0, 4096, FileTypeHint::Database);
        // Slow writes → ladder would pick the strong codec; the hint caps it.
        p.write(0, 0, &text_block(41)).unwrap();
        let r = p.flush_all(100_000_000).unwrap().pop().unwrap();
        assert_eq!(r.tag, CodecId::Lzf, "database hint caps at Lzf, got {:?}", r.tag);
    }

    #[test]
    fn unhinted_ranges_unaffected() {
        let mut p = pipeline();
        p.set_hint(1 << 20, 4096, FileTypeHint::Precompressed);
        p.write(0, 0, &text_block(42)).unwrap();
        let r = p.flush_all(100_000_000).unwrap().pop().unwrap();
        assert_ne!(r.tag, CodecId::None, "hint elsewhere must not leak");
    }

    #[test]
    fn corrupted_device_image_detected_by_checksum() {
        let mut p = pipeline();
        let data = text_block(33);
        p.write(0, 0, &data).unwrap();
        p.flush_all(1).unwrap();
        // Flip one byte of the stored payload behind the pipeline's back.
        p.device[0] ^= 0x01;
        match p.read(2, 0, 4096) {
            Err(ReadError::ChecksumMismatch { run_start }) => assert_eq!(run_start, 0),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn partial_overwrite_of_merged_run_reads_fresh_data() {
        // Regression: block 1's entry must win over the older merged run
        // (blocks 0..3) that still covers its address range.
        let mut p = pipeline();
        let old: Vec<Vec<u8>> = (0..4).map(|i| text_block(50 + i)).collect();
        for (i, blockdata) in old.iter().enumerate() {
            p.write(i as u64, i as u64 * 4096, blockdata).unwrap();
        }
        p.flush_all(10).unwrap(); // one merged 4-block run
        let fresh = random_block(4242);
        p.write(20, 4096, &fresh).unwrap(); // overwrite only block 1
        p.flush_all(30).unwrap();
        // A read spanning the whole range must mix old and new correctly.
        let got = p.read(40, 0, 4 * 4096).unwrap();
        assert_eq!(&got[..4096], &old[0][..], "block 0 from the old run");
        assert_eq!(&got[4096..8192], &fresh[..], "block 1 must be the overwrite");
        assert_eq!(&got[8192..12288], &old[2][..], "block 2 from the old run");
        assert_eq!(&got[12288..], &old[3][..], "block 3 from the old run");
    }

    #[test]
    fn mapping_tags_recorded() {
        let mut p = pipeline();
        p.write(0, 0, &text_block(1)).unwrap();
        let r = p.flush_all(1).unwrap().pop().unwrap();
        assert_ne!(r.tag, CodecId::None, "slow text write should compress");
        assert!(r.payload_bytes < 4096);
        assert!(r.allocated_bytes <= 4096);
    }

    #[test]
    fn write_batch_flushes_multiple_runs() {
        let mut p = pipeline();
        let blocks: Vec<Vec<u8>> = (0..8).map(|i| text_block(60 + i)).collect();
        // Non-contiguous offsets: every write after the first seals the
        // previous single-block run.
        let batch: Vec<BatchWrite<'_>> = blocks
            .iter()
            .enumerate()
            .map(|(i, data)| BatchWrite {
                now_ns: i as u64,
                offset: (i as u64 * 3) * 4096,
                data,
            })
            .collect();
        let mut results = p.write_batch(&batch).unwrap();
        results.extend(p.flush_all(100).unwrap());
        assert_eq!(results.len(), 8);
        for (i, data) in blocks.iter().enumerate() {
            assert_eq!(&p.read(200 + i as u64, (i as u64 * 3) * 4096, 4096).unwrap(), data);
        }
    }

    #[test]
    fn repeated_reads_hit_run_cache() {
        let mut p = pipeline();
        let data = text_block(70);
        p.write(0, 0, &data).unwrap();
        p.flush_all(1).unwrap();
        assert_eq!(p.read(2, 0, 4096).unwrap(), data); // miss, fills cache
        assert_eq!(p.read(3, 0, 4096).unwrap(), data); // hit
        let s = p.stats().cache;
        assert!(s.hits > 0, "second read must be served from cache, stats {s:?}");
        assert!(s.hit_rate() > 0.0);
    }

    #[test]
    fn partial_overwrite_invalidates_cached_run() {
        // Mirror of partial_overwrite_of_merged_run_reads_fresh_data with
        // the read cache active: the overwrite must drop the cached
        // decompressed run so later reads never see stale block 1 bytes.
        let mut p = pipeline();
        assert!(p.config().cache_runs > 0, "cache enabled by default");
        let old: Vec<Vec<u8>> = (0..4).map(|i| text_block(80 + i)).collect();
        for (i, blockdata) in old.iter().enumerate() {
            p.write(i as u64, i as u64 * 4096, blockdata).unwrap();
        }
        p.flush_all(10).unwrap(); // one merged 4-block run
        // Populate the cache with the merged run's decompression.
        let first = p.read(20, 0, 4 * 4096).unwrap();
        assert_eq!(&first[4096..8192], &old[1][..]);
        assert!(p.stats().cache.misses > 0, "first read fills the cache");
        let fresh = random_block(777);
        p.write(30, 4096, &fresh).unwrap(); // overwrite only block 1
        p.flush_all(40).unwrap();
        assert!(
            p.stats().cache.invalidations > 0,
            "overwrite must invalidate the cached run, stats {:?}",
            p.stats().cache
        );
        let got = p.read(50, 0, 4 * 4096).unwrap();
        assert_eq!(&got[..4096], &old[0][..], "block 0 from the old run");
        assert_eq!(&got[4096..8192], &fresh[..], "block 1 must be the overwrite");
        assert_eq!(&got[8192..12288], &old[2][..], "block 2 from the old run");
        assert_eq!(&got[12288..], &old[3][..], "block 3 from the old run");
    }

    #[test]
    fn disabled_cache_reads_still_correct() {
        let mut p = EdcPipeline::new(
            4 << 20,
            PipelineConfig { cache_runs: 0, ..PipelineConfig::default() },
        );
        let a = text_block(90);
        let b = text_block(91);
        p.write(0, 0, &a).unwrap();
        p.write(1, 4096, &b).unwrap();
        p.flush_all(2).unwrap();
        let got = p.read(3, 0, 8192).unwrap();
        assert_eq!(&got[..4096], &a[..]);
        assert_eq!(&got[4096..], &b[..]);
        let s = p.stats().cache;
        assert_eq!((s.hits, s.misses), (0, 0), "disabled cache records nothing");
    }

    /// The smoke workload shared by the crash tests: a few merged runs, a
    /// write-through run, and an overwrite. Returns (offset, data) pairs
    /// describing the expected final contents.
    fn crash_workload(p: &mut EdcPipeline) -> Vec<(u64, Vec<u8>)> {
        let mut expect = Vec::new();
        for i in 0..6u64 {
            let data = text_block(i as u8);
            p.write(i, (i * 3) * 4096, &data).unwrap();
            expect.push(((i * 3) * 4096, data));
        }
        let rand = random_block(99);
        p.write(10, 40 * 4096, &rand).unwrap();
        expect.push((40 * 4096, rand));
        p.flush_all(20).unwrap();
        // Overwrite run 0 after the first flush.
        let v2 = text_block(200);
        p.write(30, 0, &v2).unwrap();
        p.flush_all(40).unwrap();
        expect[0] = (0, v2);
        expect
    }

    #[test]
    fn power_cut_at_every_program_recovers_with_zero_data_loss() {
        // Learn the clean run's program count, then cut at every index.
        let mut clean = pipeline();
        crash_workload(&mut clean);
        let total = clean.stats().programs;
        assert!(total > 8, "workload too small to exercise cuts ({total})");
        for cut in 0..total {
            let mut p = pipeline();
            p.set_fault_plan(FaultPlan {
                power_cut_after_programs: Some(cut),
                ..FaultPlan::none()
            });
            let mut cut_err = None;
            let expect = {
                // Drive the same workload; the cut surfaces as a typed
                // error somewhere along the way.
                let mut run = || -> Result<Vec<(u64, Vec<u8>)>, EdcError> {
                    let mut expect = Vec::new();
                    for i in 0..6u64 {
                        let data = text_block(i as u8);
                        p.write(i, (i * 3) * 4096, &data)?;
                        expect.push(((i * 3) * 4096, data));
                    }
                    let rand = random_block(99);
                    p.write(10, 40 * 4096, &rand)?;
                    expect.push((40 * 4096, rand));
                    p.flush_all(20)?;
                    let v2 = text_block(200);
                    p.write(30, 0, &v2)?;
                    p.flush_all(40)?;
                    expect[0] = (0, v2);
                    Ok(expect)
                };
                match run() {
                    Ok(e) => e,
                    Err(e) => {
                        cut_err = Some(e);
                        Vec::new()
                    }
                }
            };
            assert!(
                expect.is_empty(),
                "cut {cut}/{total} must interrupt the workload"
            );
            assert!(
                matches!(cut_err, Some(EdcError::Write(WriteError::PowerCut { .. }))),
                "cut {cut}: expected PowerCut, got {cut_err:?}"
            );
            // Store is offline until recovery.
            assert!(matches!(p.read(50, 0, 4096), Err(ReadError::Offline)));
            assert!(matches!(
                p.write(50, 0, &text_block(0)),
                Err(EdcError::Write(WriteError::Offline))
            ));
            let report = p.recover().expect("recovery succeeds at any cut point");
            assert_eq!(
                report.payload_mismatches, 0,
                "cut {cut}: journaled runs must never lose payload"
            );
            assert!(!report.torn_tail, "commit-record granularity leaves no torn tail");
            // Every journaled run reads back exactly; blocks whose run
            // missed its commit read as never-written (zero) or their
            // pre-overwrite contents — never garbage.
            let clean_expect = {
                let mut c = pipeline();
                crash_workload(&mut c)
            };
            let old0 = text_block(0);
            for (off, data) in &clean_expect {
                let got = p.read(60, *off, 4096).expect("post-recovery read");
                if *off == 0 {
                    assert!(
                        got == *data || got == old0 || got == vec![0u8; 4096],
                        "cut {cut}: block 0 must be v2, v1 or unwritten"
                    );
                } else {
                    assert!(
                        got == *data || got == vec![0u8; 4096],
                        "cut {cut}: offset {off} must be its data or unwritten"
                    );
                }
            }
            // The store accepts writes again.
            p.write(70, 80 * 4096, &text_block(3)).unwrap();
            p.flush_all(80).unwrap();
        }
    }

    #[test]
    fn recover_on_healthy_store_rebuilds_identical_state() {
        let mut p = pipeline();
        let expect = crash_workload(&mut p);
        let report = p.recover().expect("recovery on a healthy store");
        assert_eq!(report.payload_mismatches, 0);
        assert_eq!(u64::from(report.torn_tail), 0);
        assert!(report.replayed_runs > 0);
        for (off, data) in &expect {
            assert_eq!(&p.read(100, *off, 4096).unwrap(), data, "offset {off}");
        }
    }

    #[test]
    fn torn_journal_tail_drops_only_the_torn_record() {
        let mut p = pipeline();
        let expect = crash_workload(&mut p);
        // Tear mid-way through the final record (as a cut inside a real
        // journal page program would).
        p.truncate_journal_bytes(p.stats().journal_bytes as usize - 10);
        let report = p.recover().expect("recovery tolerates a torn tail");
        assert!(report.torn_tail);
        assert_eq!(report.payload_mismatches, 0);
        // All but the torn run read back; the torn one reads old/zero.
        for (off, data) in &expect[1..expect.len() - 1] {
            let got = p.read(100, *off, 4096).unwrap();
            assert!(got == *data || got == vec![0u8; 4096]);
        }
    }

    #[test]
    fn read_faults_surface_as_typed_errors_never_panic() {
        // Cache disabled so every read touches the "device" and draws.
        let mut p = EdcPipeline::new(
            4 << 20,
            PipelineConfig { cache_runs: 0, ..PipelineConfig::default() },
        );
        let data = text_block(5);
        p.write(0, 0, &data).unwrap();
        p.flush_all(1).unwrap();
        p.set_fault_plan(FaultPlan {
            seed: 7,
            read_error_rate: 0.9,
            read_retries: 1,
            ..FaultPlan::none()
        });
        let mut errors = 0;
        let mut oks = 0;
        for i in 0..50u64 {
            match p.read(10 + i, 0, 4096) {
                Ok(got) => {
                    assert_eq!(got, data);
                    oks += 1;
                }
                Err(ReadError::Unrecoverable { run_start }) => {
                    assert_eq!(run_start, 0);
                    errors += 1;
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(errors > 0, "90 % fault rate with 1 retry must fail sometimes");
        assert!(oks + errors == 50, "every read returns, typed either way");
        assert!(p.fault_stats().read_faults > 0);
    }

    #[test]
    fn bit_rot_is_caught_by_checksums() {
        let mut p = EdcPipeline::new(
            4 << 20,
            PipelineConfig { cache_runs: 0, ..PipelineConfig::default() },
        );
        let data = text_block(9);
        p.write(0, 0, &data).unwrap();
        p.flush_all(1).unwrap();
        p.set_fault_plan(FaultPlan { seed: 3, bit_rot_rate: 1.0, ..FaultPlan::none() });
        // Every device access rots one stored bit; the checksum must catch
        // it before the decompressor can return wrong bytes.
        let mut mismatches = 0;
        for i in 0..4u64 {
            match p.read(10 + i, 0, 4096) {
                Ok(got) => assert_eq!(got, data, "a served read must be correct"),
                Err(ReadError::ChecksumMismatch { run_start }) => {
                    assert_eq!(run_start, 0);
                    mismatches += 1;
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(mismatches > 0, "persistent rot must eventually trip the checksum");
        assert!(p.fault_stats().rot_pages > 0);
    }

    #[test]
    fn degraded_reads_serve_raw_write_through_payload() {
        let mut p = pipeline();
        let data = random_block(123); // incompressible → write-through
        p.write(0, 0, &data).unwrap();
        let r = p.flush_all(1).unwrap().pop().unwrap();
        assert_eq!(r.tag, CodecId::None);
        // Corrupt one stored byte behind the pipeline's back.
        let entry = p.map.get(0).unwrap();
        p.device[entry.device_offset as usize + 10] ^= 0xFF;
        // Strict mode: hard error.
        assert!(matches!(p.read(2, 0, 4096), Err(ReadError::ChecksumMismatch { .. })));
        assert_eq!(p.stats().degraded_reads, 0);
        // Degraded mode: serve the raw payload, count it.
        p.set_fault_plan(FaultPlan { allow_degraded_reads: true, ..FaultPlan::none() });
        let got = p.read(3, 0, 4096).unwrap();
        assert_eq!(got.len(), 4096);
        let mut diff = 0;
        for (a, b) in got.iter().zip(data.iter()) {
            if a != b {
                diff += 1;
            }
        }
        assert_eq!(diff, 1, "exactly the corrupted byte differs");
        assert_eq!(p.stats().degraded_reads, 1);
    }

    #[test]
    fn journal_grows_one_record_per_committed_run() {
        let mut p = pipeline();
        assert_eq!(p.stats().journal_records, 0);
        crash_workload(&mut p);
        assert!(p.stats().journal_records >= 8, "records {}", p.stats().journal_records);
        assert_eq!(
            p.stats().journal_bytes as usize,
            p.stats().journal_records as usize * crate::journal::RECORD_BYTES
        );
    }

    fn parity_pipeline() -> EdcPipeline {
        EdcPipeline::new(
            4 << 20,
            PipelineConfig { parity: true, ..PipelineConfig::default() },
        )
    }

    /// Write one compressed and one write-through run under parity.
    /// Returns their (offset, data) pairs.
    fn parity_workload(p: &mut EdcPipeline) -> Vec<(u64, Vec<u8>)> {
        let mut stored = Vec::new();
        let mut big = text_block(70);
        big.extend(text_block(71));
        big.extend(text_block(72));
        stored.push((0u64, big)); // compresses → multi-page payload
        stored.push((8 * 4096, random_block(99))); // write-through
        for (i, (off, data)) in stored.iter().enumerate() {
            p.write(i as u64, *off, data).unwrap();
            p.flush_all(10 + i as u64).unwrap();
        }
        stored
    }

    #[test]
    fn parity_runs_round_trip_and_carry_the_extra_page() {
        let mut p = parity_pipeline();
        let stored = parity_workload(&mut p);
        for (i, (off, data)) in stored.iter().enumerate() {
            assert_eq!(&p.read(100 + i as u64, *off, data.len() as u64).unwrap(), data);
        }
        for entry in p.map.live_runs() {
            assert!(entry.parity);
            assert!(
                entry.stored_bytes >= entry.compressed_bytes + BLOCK_BYTES,
                "slot must hold payload plus a parity page"
            );
        }
        // A clean store scrubs clean.
        let report = p.scrub().unwrap();
        assert_eq!(report.scanned, 2);
        assert_eq!(report.clean, 2);
        assert_eq!((report.repaired, report.unrecoverable), (0, 0));
    }

    #[test]
    fn parity_runs_survive_recovery() {
        let mut p = parity_pipeline();
        let stored = parity_workload(&mut p);
        let report = p.recover().unwrap();
        assert_eq!(report.replayed_runs, 2);
        assert_eq!(report.payload_mismatches, 0);
        for (i, (off, data)) in stored.iter().enumerate() {
            assert_eq!(&p.read(200 + i as u64, *off, data.len() as u64).unwrap(), data);
        }
    }

    #[test]
    fn scrub_repairs_rotted_payload_page_from_parity() {
        let mut p = parity_pipeline();
        let stored = parity_workload(&mut p);
        // Rot one byte in each run's stored payload, behind the pipeline.
        for (off, _) in &stored {
            let entry = p.map.get(off / BLOCK_BYTES).unwrap();
            p.device[(entry.device_offset + entry.compressed_bytes / 2) as usize] ^= 0x40;
        }
        let report = p.scrub().unwrap();
        assert_eq!(report.scanned, 2);
        assert_eq!(report.repaired, 2, "both rotted runs must heal: {report:?}");
        assert_eq!(report.unrecoverable, 0);
        // Healed data reads back exactly; a second pass finds nothing.
        for (i, (off, data)) in stored.iter().enumerate() {
            assert_eq!(&p.read(300 + i as u64, *off, data.len() as u64).unwrap(), data);
        }
        let again = p.scrub().unwrap();
        assert_eq!(again.clean, again.scanned);
        // The durable rewrite journaled the repaired runs anew, so even a
        // crash right now loses nothing.
        p.recover().unwrap();
        for (i, (off, data)) in stored.iter().enumerate() {
            assert_eq!(&p.read(400 + i as u64, *off, data.len() as u64).unwrap(), data);
        }
    }

    #[test]
    fn scrub_refreshes_stale_parity_page_in_place() {
        let mut p = parity_pipeline();
        let stored = parity_workload(&mut p);
        let entry = p.map.get(0).unwrap();
        // Rot the parity page itself; the payload stays healthy.
        let at = (entry.device_offset + entry.stored_bytes) as usize - 1;
        p.device[at] ^= 0x01;
        let before = entry.device_offset;
        let report = p.scrub().unwrap();
        assert_eq!(report.repaired, 1, "{report:?}");
        assert_eq!(
            p.map.get(0).unwrap().device_offset,
            before,
            "healthy payload must not move for a parity refresh"
        );
        // Parity is whole again: rot the payload and repair must work.
        p.device[p.map.get(0).unwrap().device_offset as usize] ^= 0x80;
        assert_eq!(p.scrub().unwrap().repaired, 1);
        assert_eq!(&p.read(500, 0, stored[0].1.len() as u64).unwrap(), &stored[0].1);
    }

    #[test]
    fn scrub_without_parity_reports_unrecoverable_and_leaves_run() {
        let mut p = pipeline(); // parity off
        let data = text_block(44);
        p.write(0, 0, &data).unwrap();
        p.flush_all(1).unwrap();
        let entry = p.map.get(0).unwrap();
        p.device[entry.device_offset as usize] ^= 0x04;
        let report = p.scrub().unwrap();
        assert_eq!(report.unrecoverable, 1, "{report:?}");
        assert_eq!(report.repaired, 0);
        // The run stays mapped (degraded policies may still want it)…
        assert!(matches!(p.read(2, 0, 4096), Err(ReadError::ChecksumMismatch { .. })));
    }

    #[test]
    fn foreground_read_repairs_from_parity_without_a_scrub() {
        let mut p = parity_pipeline();
        let stored = parity_workload(&mut p);
        for (off, _) in &stored {
            let entry = p.map.get(off / BLOCK_BYTES).unwrap();
            p.device[entry.device_offset as usize] ^= 0x20;
        }
        // No scrub: the read itself reconstructs both the compressed and
        // the write-through payloads.
        for (i, (off, data)) in stored.iter().enumerate() {
            assert_eq!(&p.read(600 + i as u64, *off, data.len() as u64).unwrap(), data);
        }
        assert_eq!(p.stats().degraded_reads, 0, "repair must beat degradation");
        // The in-place patch restored the journaled bytes: recovery agrees.
        assert_eq!(p.recover().unwrap().payload_mismatches, 0);
    }

    #[test]
    fn scrub_rewrite_invalidates_stale_cache_entry() {
        // Satellite: a scrub rewrite frees the old slot; if its cached
        // decompression survived, a later run reusing that offset would
        // serve the dead run's bytes.
        let mut p = parity_pipeline();
        let v1 = text_block(81);
        p.write(0, 0, &v1).unwrap();
        p.flush_all(1).unwrap();
        // Populate the read cache for the run's (old) device offset.
        assert_eq!(p.read(2, 0, 4096).unwrap(), v1);
        let old = p.map.get(0).unwrap();
        assert!(p.cache.lookup(old.device_offset).is_some(), "cache should hold the run");
        // Rot the payload → scrub repairs and rewrites out-of-place.
        p.device[old.device_offset as usize] ^= 0x08;
        assert_eq!(p.scrub().unwrap().repaired, 1);
        let moved = p.map.get(0).unwrap();
        assert_ne!(moved.device_offset, old.device_offset, "repair must move the run");
        assert!(p.stats().cache.invalidations >= 1);
        // Same-sized overwrite of a different logical range: the freed
        // slot is reused for fresh content at the old device offset.
        let v2 = text_block(82);
        p.write(10, 64 * 4096, &v2).unwrap();
        p.flush_all(11).unwrap();
        let fresh = p.map.get(64).unwrap();
        assert_eq!(
            fresh.device_offset, old.device_offset,
            "test premise: the freed slot is reused (same size class)"
        );
        assert_eq!(p.read(20, 64 * 4096, 4096).unwrap(), v2, "stale cache must not leak");
        assert_eq!(p.read(21, 0, 4096).unwrap(), v1, "moved run still intact");
    }

    /// Low-entropy but match-poor content (4-symbol random): the fast LZ
    /// tier leaves a lot on the table that an entropy-coding codec
    /// recovers, so recompression has real headroom.
    fn lowent_block(seed: u64) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                b"acgt"[(x >> 60) as usize & 3]
            })
            .collect()
    }

    /// Configuration for recompression tests: every write compresses
    /// with Lzf regardless of intensity, and heat extents match the
    /// 8-block run stride so each run cools independently.
    fn heat_config(demote_ratio: f64) -> PipelineConfig {
        PipelineConfig {
            selector: SelectorConfig {
                rungs: vec![crate::selector::LadderRung {
                    max_calc_iops: f64::INFINITY,
                    codec: CodecId::Lzf,
                }],
            },
            heat: crate::heat::HeatConfig {
                extent_blocks: 8,
                demote_ratio,
                ..crate::heat::HeatConfig::default()
            },
            ..PipelineConfig::default()
        }
    }

    fn heat_pipeline(demote_ratio: f64) -> EdcPipeline {
        EdcPipeline::new(8 << 20, heat_config(demote_ratio))
    }

    /// Write `runs` four-block runs of 4-ary content at an 8-block
    /// stride, one run per heat extent, and return the expected bytes.
    fn heat_workload(p: &mut EdcPipeline, runs: u64) -> Vec<(u64, Vec<u8>)> {
        let mut now = 0u64;
        let mut stored = Vec::new();
        for i in 0..runs {
            let data: Vec<u8> =
                (0..4).flat_map(|b| lowent_block(i * 16 + b)).collect();
            p.write(now, i * 8 * 4096, &data).unwrap();
            now += 1_000_000;
            stored.push((i * 8 * 4096, data));
        }
        p.flush_all(now).unwrap();
        stored
    }

    #[test]
    fn cold_runs_recompress_to_stronger_codec() {
        let mut p = heat_pipeline(1.1);
        let stored = heat_workload(&mut p, 8);
        let physical_before = p.stats().physical_written;
        let live_before = p.slots.live_bytes();
        // 200 s of silence: every extent decays far below the cold
        // threshold.
        let report = p.recompress_pass(200_000_000_000, CodecId::Deflate, usize::MAX).unwrap();
        assert!(report.recompressed > 0, "no cold run upgraded: {report:?}");
        assert!(report.bytes_reclaimed > 0);
        assert_eq!(report.demoted, 0);
        assert_eq!(report.skipped_unreadable, 0);
        assert_eq!(p.stats().recompressed_runs, report.recompressed);
        assert!(
            p.slots.live_bytes() < live_before,
            "recompression must shrink the live footprint: {} -> {}",
            live_before,
            p.slots.live_bytes()
        );
        assert!(p.stats().physical_written > physical_before, "rewrites are real flash writes");
        // Logical bytes are untouched...
        for (i, (off, data)) in stored.iter().enumerate() {
            assert_eq!(
                &p.read(200_000_100_000 + i as u64, *off, data.len() as u64).unwrap(),
                data,
                "run {i} changed by recompression"
            );
        }
        // ...the store still audits clean, and the rewrites are durable:
        // recovery replays the recompressed runs from the journal.
        let v = p.verify().unwrap();
        assert_eq!(v.unrecoverable, 0);
        p.recover().unwrap();
        for (i, (off, data)) in stored.iter().enumerate() {
            assert_eq!(
                &p.read(200_000_200_000 + i as u64, *off, data.len() as u64).unwrap(),
                data,
                "run {i} lost across recovery"
            );
        }
    }

    /// Write `runs` `blocks`-block runs of noise (stored write-through, and
    /// no codec can shrink them) at runs `first..` of the 8-block stride.
    fn noise_workload(p: &mut EdcPipeline, first: u64, runs: u64, blocks: u64) {
        for i in first..first + runs {
            let data: Vec<u8> =
                (0..blocks).flat_map(|b| random_block(2 * (i * 16 + b) + 1)).collect();
            p.write(i * 1_000_000, i * 8 * 4096, &data).unwrap();
        }
        p.flush_all((first + runs) * 1_000_000).unwrap();
    }

    /// A recompression pass during which every device fetch fails: a run
    /// the pass re-tries is counted `skipped_unreadable`, a run whose slot
    /// remembers a no-gain verdict at `target` still `skipped_no_gain`.
    fn blind_pass(p: &mut EdcPipeline, now: u64, target: CodecId) -> RecompressReport {
        p.set_fault_plan(FaultPlan { read_error_rate: 1.0, read_retries: 0, ..FaultPlan::none() });
        let report = p.recompress_pass(now, target, usize::MAX).unwrap();
        p.set_fault_plan(FaultPlan::none());
        report
    }

    #[test]
    fn second_pass_finds_nothing_left_to_do() {
        let mut p = heat_pipeline(1.1);
        heat_workload(&mut p, 6);
        noise_workload(&mut p, 6, 3, 4);
        let now = 200_000_000_000;
        let first = p.recompress_pass(now, CodecId::Deflate, usize::MAX).unwrap();
        assert!(first.recompressed > 0);
        assert!(first.skipped_no_gain >= 3, "the noise runs cannot gain: {first:?}");
        let second = blind_pass(&mut p, now + 1, CodecId::Deflate);
        assert_eq!(second.recompressed, 0, "already at target tier: {second:?}");
        assert_eq!(second.demoted, 0);
        assert_eq!(second.skipped_unreadable, 0, "a second pass fetched a run: {second:?}");
        assert_eq!(second.skipped_no_gain, first.skipped_no_gain);
    }

    #[test]
    fn a_pass_that_gains_nothing_places_nothing() {
        let mut p = heat_pipeline(1.1);
        noise_workload(&mut p, 0, 4, 4);
        let before = p.alloc_stats();
        let report = p.recompress_pass(200_000_000_000, CodecId::Lzf, usize::MAX).unwrap();
        assert_eq!(report.skipped_no_gain, 4, "{report:?}");
        assert_eq!(p.alloc_stats(), before, "a discarded trial is not a placement");
    }

    #[test]
    fn no_gain_verdict_is_dropped_exactly_when_it_must_be() {
        let mut p = heat_pipeline(1.1);
        noise_workload(&mut p, 0, 4, 4);
        let mut now = 200_000_000_000;
        let first = p.recompress_pass(now, CodecId::Deflate, usize::MAX).unwrap();
        assert_eq!(first.skipped_no_gain, 4, "{first:?}");
        // A verdict answers for its own target only.
        now += 1;
        let other = blind_pass(&mut p, now, CodecId::Lzf);
        assert_eq!((other.skipped_unreadable, other.skipped_no_gain), (4, 0), "{other:?}");
        let same = blind_pass(&mut p, now + 1, CodecId::Deflate);
        assert_eq!((same.skipped_unreadable, same.skipped_no_gain), (0, 4), "{same:?}");
        // Run 0 is overwritten in full (a fresh slot), run 1 in part (its
        // slot and verdict live on, but the run cannot move).
        let fresh: Vec<u8> = (0..4).flat_map(|b| random_block(2 * (500 + b) + 1)).collect();
        p.write(now + 2, 0, &fresh).unwrap();
        p.write(now + 3, 9 * 4096, &random_block(600)).unwrap();
        p.flush_all(now + 4).unwrap();
        now += 400_000_000_000;
        let after = blind_pass(&mut p, now, CodecId::Deflate);
        // Re-tried: the new run 0 and the one-block run inside run 1.
        assert_eq!(after.skipped_unreadable, 2, "{after:?}");
        assert_eq!(after.skipped_shared, 1, "{after:?}");
        assert_eq!(after.skipped_no_gain, 2, "runs 2 and 3 are remembered: {after:?}");
        now += 1;
        let tried = p.recompress_pass(now, CodecId::Deflate, usize::MAX).unwrap();
        assert_eq!((tried.skipped_no_gain, tried.skipped_shared), (4, 1), "{tried:?}");
        now += 1;
        assert_eq!(blind_pass(&mut p, now, CodecId::Deflate).skipped_unreadable, 0);
        // Recovery rebuilds the slot store: every run is re-tried.
        p.cut_power();
        p.recover().unwrap();
        let recovered = blind_pass(&mut p, now + 1, CodecId::Deflate);
        assert_eq!(recovered.skipped_no_gain, 0, "{recovered:?}");
        assert_eq!(recovered.skipped_unreadable, 4, "{recovered:?}");
        assert_eq!(recovered.skipped_shared, 1, "{recovered:?}");
    }

    #[test]
    fn a_reused_slot_does_not_inherit_the_no_gain_verdict() {
        let mut p = heat_pipeline(1.1);
        // Three blocks of noise: a 12 KiB write-through slot.
        noise_workload(&mut p, 0, 1, 3);
        let noise = p.map.get(0).unwrap();
        let mut now = 200_000_000_000;
        let first = p.recompress_pass(now, CodecId::Deflate, usize::MAX).unwrap();
        assert_eq!(first.skipped_no_gain, 1, "{first:?}");
        assert_eq!(p.slots.no_gain(noise.device_offset), Some(CodecId::Deflate));
        // Zeros over all three blocks free the slot; then four blocks of
        // 4-ary content stored with Lzf take the same 12 KiB class, and
        // the per-class LIFO hands them that very offset.
        p.write(now + 1, 0, &[0u8; 3 * 4096]).unwrap();
        p.flush_all(now + 2).unwrap();
        let data: Vec<u8> = (0..4).flat_map(|b| lowent_block(700 + b)).collect();
        p.write(now + 3, 16 * 4096, &data).unwrap();
        p.flush_all(now + 4).unwrap();
        let fresh = p.map.get(16).unwrap();
        assert_eq!(
            (fresh.device_offset, fresh.tag),
            (noise.device_offset, CodecId::Lzf),
            "test premise: the Lzf run reuses the noise run's slot"
        );
        now += 400_000_000_000;
        let report = p.recompress_pass(now, CodecId::Deflate, usize::MAX).unwrap();
        assert_eq!(report.recompressed, 1, "{report:?}");
        assert_eq!(p.map.get(16).unwrap().tag, CodecId::Deflate);
        assert_eq!(p.read(now + 1, 16 * 4096, data.len() as u64).unwrap(), data);
    }

    /// The oracle for the no-gain verdicts: one seeded schedule of writes,
    /// partial overwrites, reads, budgeted passes at both targets and
    /// power cuts, driven into two stores, one of which forgets every
    /// verdict before each pass. Every observable must agree.
    #[test]
    fn no_gain_verdicts_never_change_a_decision() {
        use edc_datagen::Rng64;
        /// Apply one op to both stores; their outputs, `Debug`-rendered.
        fn both<T: std::fmt::Debug>(
            p: &mut EdcPipeline,
            twin: &mut EdcPipeline,
            mut op: impl FnMut(&mut EdcPipeline) -> T,
        ) -> (String, String) {
            (format!("{:?}", op(p)), format!("{:?}", op(twin)))
        }
        let shared = PipelineConfig {
            parity: true,
            dedup: DedupConfig { enabled: true, ..DedupConfig::default() },
            ..heat_config(1.1)
        };
        for (case, config) in [heat_config(1.1), shared].into_iter().enumerate() {
            let mut rng = Rng64::seed_from_u64(0xED_C027 + case as u64);
            let mut p = EdcPipeline::new(8 << 20, config.clone());
            let mut twin = EdcPipeline::new(8 << 20, config);
            let extents = 12u64;
            let (mut now, mut no_gain) = (0u64, 0u64);
            for step in 0..160 {
                now += 1_000_000;
                // Few seeds per family, so dedup finds duplicates.
                let (seed, family) = (rng.below(6), rng.below(4));
                let content = |blocks: u64| -> Vec<u8> {
                    (0..blocks)
                        .flat_map(|b| match family {
                            0 => random_block(seed * 16 + b + 1),
                            1 => lowent_block(seed * 16 + b),
                            2 => text_block((seed * 16 + b) as u8),
                            _ => vec![0u8; 4096],
                        })
                        .collect()
                };
                let (a, b) = match rng.below(10) {
                    0..=3 => {
                        let data = content(rng.range_u64(1, 9));
                        let at = rng.below(extents) * 8 * 4096;
                        both(&mut p, &mut twin, |s| s.write(now, at, &data))
                    }
                    4 | 5 => {
                        let data = content(1);
                        let at = rng.below(extents * 8) * 4096;
                        both(&mut p, &mut twin, |s| s.write(now, at, &data))
                    }
                    6 => {
                        let at = rng.below(extents * 8) * 4096;
                        let len = rng.range_u64(1, 17) * 4096;
                        both(&mut p, &mut twin, |s| s.read(now, at, len))
                    }
                    7 | 8 => {
                        now += rng.below(4_000_000_000);
                        let target = if rng.chance(0.5) { CodecId::Lzf } else { CodecId::Deflate };
                        let budget = [1, 2, 4, usize::MAX][rng.below_usize(4)];
                        twin.slots.forget_no_gain();
                        let report = p.recompress_pass(now, target, budget);
                        no_gain += report.as_ref().map_or(0, |r| r.skipped_no_gain);
                        let twin_report = twin.recompress_pass(now, target, budget);
                        (format!("{report:?}"), format!("{twin_report:?}"))
                    }
                    _ => {
                        p.cut_power();
                        twin.cut_power();
                        both(&mut p, &mut twin, EdcPipeline::recover)
                    }
                };
                assert_eq!(a, b, "case {case} step {step}");
            }
            p.flush_all(now).unwrap();
            twin.flush_all(now).unwrap();
            assert_eq!(p.stats(), twin.stats(), "case {case}");
            assert_eq!(p.live_stored_bytes(), twin.live_stored_bytes(), "case {case}");
            assert_eq!(p.alloc_stats(), twin.alloc_stats(), "case {case}");
            let len = extents * 8 * 4096;
            assert!(p.read(now + 1, 0, len).unwrap() == twin.read(now + 1, 0, len).unwrap());
            assert!(p.stats().recompressed_runs > 0, "case {case}: the schedule never rewrote");
            assert!(no_gain > 0, "case {case}: the schedule never met a no-gain run");
        }
    }

    #[test]
    fn rewrite_budget_bounds_work_per_pass() {
        let mut p = heat_pipeline(1.1);
        heat_workload(&mut p, 8);
        let report = p.recompress_pass(200_000_000_000, CodecId::Deflate, 2).unwrap();
        assert!(report.recompressed <= 2, "budget exceeded: {report:?}");
        assert_eq!(report.recompressed, 2, "budget not used: {report:?}");
    }

    #[test]
    fn hot_low_ratio_runs_demote_to_write_through() {
        // A generous demote threshold makes every compressed run "not
        // worth it" once hot, so the demotion path fires deterministically.
        let mut p = heat_pipeline(1_000.0);
        let stored = heat_workload(&mut p, 4);
        // Hammer run 0 with reads at the pass timestamp: its extent is
        // hot, everything else has cooled.
        let now = 200_000_000_000;
        for r in 0..8u64 {
            assert_eq!(p.read(now, 0, 4 * 4096).unwrap()[..], stored[0].1[..], "read {r}");
        }
        let report = p.recompress_pass(now, CodecId::Deflate, usize::MAX).unwrap();
        assert_eq!(report.demoted, 1, "exactly the hot run demotes: {report:?}");
        assert_eq!(p.stats().demoted_runs, 1);
        assert!(p.heat().run_demoted(0, 4));
        // Logical bytes unchanged, including the demoted run.
        for (i, (off, data)) in stored.iter().enumerate() {
            assert_eq!(
                &p.read(now + 10 + i as u64, *off, data.len() as u64).unwrap(),
                data,
                "run {i} changed by demotion"
            );
        }
        // The demoted extent is excluded from future recompression even
        // once cold — it would just get re-inflated reads.
        let later = p.recompress_pass(now + 400_000_000_000, CodecId::Deflate, usize::MAX).unwrap();
        assert_eq!(later.recompressed, 0, "demoted run re-promoted: {later:?}");
        assert!(later.skipped_demoted >= 1);
        // After a crash the volatile flag resets with the heat; the run
        // must re-cool before the pass touches it again, and every byte
        // survives.
        p.recover().unwrap();
        assert!(!p.heat().run_demoted(0, 4));
        for (i, (off, data)) in stored.iter().enumerate() {
            assert_eq!(
                &p.read(now + 20 + i as u64, *off, data.len() as u64).unwrap(),
                data,
                "run {i} lost across recovery"
            );
        }
    }

    #[test]
    fn precompressed_hint_excluded_from_recompression() {
        let mut p = heat_pipeline(1.1);
        // Hinted range: written through at flush time (PR 2 contract)...
        p.set_hint(0, 8 * 4096, FileTypeHint::Precompressed);
        let hinted: Vec<u8> = (0..4).flat_map(|b| lowent_block(900 + b)).collect();
        p.write(0, 0, &hinted).unwrap();
        // ...plus an unhinted control run that should recompress. Writing
        // it breaks sequentiality, so this call flushes the hinted run.
        let control: Vec<u8> = (0..4).flat_map(|b| lowent_block(950 + b)).collect();
        let hinted_result = p.write(1_000_000, 8 * 4096, &control).unwrap().pop();
        assert_eq!(
            hinted_result.expect("hinted run flushed").tag,
            CodecId::None,
            "hint forces write-through"
        );
        p.flush_all(2_000_000).unwrap();
        let records_before = p.stats().journal_records;
        let report = p.recompress_pass(200_000_000_000, CodecId::Deflate, usize::MAX).unwrap();
        assert!(report.skipped_precompressed >= 1, "{report:?}");
        assert_eq!(report.recompressed, 1, "only the control run moves: {report:?}");
        // Exactly one rewrite hit the journal — the hinted run (tag None,
        // cold, nominally upgradeable) appended nothing.
        assert_eq!(p.stats().journal_records, records_before + 1);
        assert_eq!(p.read(200_000_000_001, 0, hinted.len() as u64).unwrap(), hinted);
        assert_eq!(
            p.read(200_000_000_002, 8 * 4096, control.len() as u64).unwrap(),
            control
        );
    }

    #[test]
    fn recompression_relocation_never_serves_stale_cache() {
        // Overwrite-churn against background recompression: every round
        // relocates cold runs (freeing slots) and rewrites fresh data
        // (reusing them). A stale cache entry keyed by a recycled device
        // offset would surface as a wrong read immediately.
        let mut p = heat_pipeline(1.1);
        let mut now = 0u64;
        let mut expect: Vec<(u64, Vec<u8>)> = Vec::new();
        for i in 0..6u64 {
            let data: Vec<u8> = (0..4).flat_map(|b| lowent_block(i * 16 + b)).collect();
            p.write(now, i * 8 * 4096, &data).unwrap();
            now += 1_000_000;
            expect.push((i * 8 * 4096, data));
        }
        p.flush_all(now).unwrap();
        for round in 1..20u64 {
            // Populate the cache for every run...
            for (off, data) in &expect {
                assert_eq!(
                    &p.read(now, *off, data.len() as u64).unwrap(),
                    data,
                    "round {round} pre-read"
                );
            }
            // ...cool everything and relocate it...
            now += 400_000_000_000;
            p.recompress_pass(now, CodecId::Deflate, usize::MAX).unwrap();
            // ...then overwrite half the runs with fresh content, which
            // recycles freed slots of the same size classes.
            for (i, (off, data)) in expect.iter_mut().enumerate() {
                if i as u64 % 2 == round % 2 {
                    continue;
                }
                *data = (0..4)
                    .flat_map(|b| lowent_block(round * 1_000 + i as u64 * 16 + b))
                    .collect();
                p.write(now, *off, data).unwrap();
                now += 1_000_000;
            }
            p.flush_all(now).unwrap();
            for (i, (off, data)) in expect.iter().enumerate() {
                assert_eq!(
                    &p.read(now + i as u64, *off, data.len() as u64).unwrap(),
                    data,
                    "round {round} run {i}: stale bytes served"
                );
            }
        }
        assert!(p.stats().cache.invalidations > 0, "churn never hit the cache");
        assert!(p.stats().recompressed_runs > 0, "churn never recompressed");
    }

    #[test]
    fn power_cut_mid_recompression_loses_no_data() {
        // Cut at each of the first programs of the recompression pass:
        // whatever the journal holds at the cut — old record or new —
        // recovery must serve every original byte.
        for cut in 0..8u64 {
            let mut p = heat_pipeline(1.1);
            let stored = heat_workload(&mut p, 4);
            p.set_fault_plan(FaultPlan {
                power_cut_after_programs: Some(cut),
                ..FaultPlan::none()
            });
            match p.recompress_pass(200_000_000_000, CodecId::Deflate, usize::MAX) {
                Ok(report) => assert!(report.recompressed > 0, "cut {cut} did nothing"),
                Err(EdcError::Write(WriteError::PowerCut { .. })) => {}
                Err(other) => panic!("cut {cut}: unexpected error {other:?}"),
            }
            let report = p.recover().unwrap();
            assert_eq!(report.payload_mismatches, 0, "cut {cut}");
            for (i, (off, data)) in stored.iter().enumerate() {
                assert_eq!(
                    &p.read(900 + i as u64, *off, data.len() as u64).unwrap(),
                    data,
                    "cut {cut}: run {i} lost"
                );
            }
        }
    }

    #[test]
    fn disabled_heat_makes_the_pass_a_no_op() {
        let mut p = EdcPipeline::new(
            4 << 20,
            PipelineConfig {
                heat: crate::heat::HeatConfig { enabled: false, ..Default::default() },
                ..PipelineConfig::default()
            },
        );
        p.write(0, 0, &text_block(1)).unwrap();
        p.flush_all(1).unwrap();
        let report = p.recompress_pass(200_000_000_000, CodecId::Deflate, usize::MAX).unwrap();
        assert_eq!(report, RecompressReport::default());
    }

    #[test]
    fn power_cut_mid_scrub_rewrite_loses_no_data() {
        // Sweep the cut across every program of the scrub's rewrite: at
        // any cut point, recovery must bring back every byte (the old run
        // was repaired in place before the rewrite began).
        for cut in 0..6u64 {
            let mut p = parity_pipeline();
            let stored = parity_workload(&mut p);
            let entry = p.map.get(0).unwrap();
            p.device[(entry.device_offset + 1) as usize] ^= 0x02;
            p.set_fault_plan(FaultPlan {
                power_cut_after_programs: Some(cut),
                ..FaultPlan::none()
            });
            match p.scrub() {
                Ok(report) => assert_eq!(report.repaired, 1, "cut {cut}: {report:?}"),
                Err(EdcError::Write(WriteError::PowerCut { .. })) => {}
                Err(other) => panic!("cut {cut}: unexpected error {other:?}"),
            }
            let report = p.recover().unwrap();
            assert_eq!(report.payload_mismatches, 0, "cut {cut}");
            for (i, (off, data)) in stored.iter().enumerate() {
                assert_eq!(
                    &p.read(900 + i as u64, *off, data.len() as u64).unwrap(),
                    data,
                    "cut {cut}: data lost"
                );
            }
        }
    }

    fn dedup_pipeline() -> EdcPipeline {
        EdcPipeline::new(
            8 << 20,
            PipelineConfig {
                dedup: DedupConfig { enabled: true, ..DedupConfig::default() },
                ..PipelineConfig::default()
            },
        )
    }

    #[test]
    fn dedup_hit_elides_flash_programs_and_storage() {
        let mut p = dedup_pipeline();
        let data = text_block(7);
        p.write(0, 0, &data).unwrap();
        p.flush_all(1).unwrap();
        let physical_once = p.stats().physical_written;
        let live_once = p.live_stored_bytes();
        // The same bytes at a far-away logical block: a dedup hit.
        p.write(10, 10 * 4096, &data).unwrap();
        let r = p.flush_all(11).unwrap().pop().expect("sealed run");
        assert_eq!(r.allocated_bytes, 0, "a hit allocates no flash");
        let stats = p.stats();
        assert_eq!(stats.dedup_hits, 1);
        assert_eq!(stats.dedup_elided_bytes, 4096);
        assert_eq!(stats.physical_written, physical_once, "a hit programs no page data");
        assert_eq!(p.live_stored_bytes(), live_once, "a hit stores no new payload");
        assert_eq!(p.read(20, 0, 4096).unwrap(), data);
        assert_eq!(p.read(21, 10 * 4096, 4096).unwrap(), data);
        let report = p.verify_dedup().unwrap();
        assert_eq!(report.shared_runs, 1);
        assert_eq!(report.extra_refs, 1);
    }

    #[test]
    fn duplicate_within_one_drain_dedups_against_earlier_chunk() {
        let mut p = dedup_pipeline();
        let (data, last) = (text_block(9), text_block(6));
        // Two identical single-block runs sealed by one call (the third
        // write only seals the second): the first is stored and indexed
        // at its seal point, so the second shares its fresh run.
        let at = |now_ns, block: u64, data| BatchWrite { now_ns, offset: block * 4096, data };
        let results = p.write_batch(&[at(0, 0, &data), at(1, 20, &data), at(2, 40, &last)]).unwrap();
        assert_eq!(results.len(), 2);
        assert!(results[0].allocated_bytes > 0, "the first copy stores: {results:?}");
        assert_eq!(results[1].allocated_bytes, 0, "the second copy is a hit: {results:?}");
        p.flush_all(3).unwrap();
        assert_eq!(p.stats().dedup_hits, 1);
        assert_eq!(p.read(3, 0, 4096).unwrap(), data);
        assert_eq!(p.read(4, 20 * 4096, 4096).unwrap(), data);
        assert_eq!(p.verify_dedup().unwrap().shared_runs, 1);
    }

    #[test]
    fn target_superseded_earlier_in_the_drain_demotes_to_a_unique_store() {
        let mut p = dedup_pipeline();
        let dup = text_block(9);
        p.write(0, 0, &dup).unwrap();
        p.flush_all(1).unwrap();
        // One call, three runs (the fourth write only seals the third):
        // the first overwrites the only referrer of the stored run and so
        // frees its slot, the second is new content that moves into the
        // freed slot, the third carries the old run's content. By the
        // third's probe the old run is gone from the index and its offset
        // holds the second run, so the third stores as a unique run.
        let (other, third, last) = (text_block(4), text_block(5), text_block(6));
        let at = |now_ns, block: u64, data| BatchWrite { now_ns, offset: block * 4096, data };
        let batch = [at(10, 0, &other), at(11, 30, &third), at(12, 20, &dup), at(13, 40, &last)];
        let results = p.write_batch(&batch).unwrap();
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.allocated_bytes > 0), "every chunk stores: {results:?}");
        assert_eq!(p.map.get(30).unwrap().device_offset, 0, "the freed slot was reused");
        assert_eq!(p.stats().dedup_hits, 0);
        p.flush_all(14).unwrap();
        assert_eq!(p.read(20, 0, 4096).unwrap(), other);
        assert_eq!(p.read(21, 30 * 4096, 4096).unwrap(), third);
        assert_eq!(p.read(22, 20 * 4096, 4096).unwrap(), dup);
        assert_eq!(p.verify_dedup().unwrap().shared_runs, 0);
    }

    #[test]
    fn overwrite_releases_refs_and_zero_ref_run_is_freed() {
        let mut p = dedup_pipeline();
        let dup = text_block(3);
        p.write(0, 0, &dup).unwrap();
        p.flush_all(1).unwrap();
        p.write(10, 10 * 4096, &dup).unwrap();
        p.flush_all(11).unwrap();
        assert_eq!(p.verify_dedup().unwrap().shared_runs, 1);
        let live_shared = p.live_stored_bytes();
        // Overwrite one referrer: the run drops back to a single ref.
        let fresh = random_block(77);
        p.write(20, 0, &fresh).unwrap();
        p.flush_all(21).unwrap();
        let report = p.verify_dedup().unwrap();
        assert_eq!(report.shared_runs, 0, "one referrer left");
        assert_eq!(p.read(30, 0, 4096).unwrap(), fresh);
        assert_eq!(p.read(31, 10 * 4096, 4096).unwrap(), dup);
        // Overwrite the last referrer: the run reaches zero refs and its
        // slot is reclaimed (live bytes fall below the shared steady state).
        let fresh2 = random_block(99);
        p.write(40, 10 * 4096, &fresh2).unwrap();
        p.flush_all(41).unwrap();
        p.verify_dedup().unwrap();
        assert_eq!(p.read(50, 10 * 4096, 4096).unwrap(), fresh2);
        assert!(
            p.live_stored_bytes() > live_shared,
            "two incompressible blocks replaced one shared text run"
        );
        let v = p.verify().unwrap();
        assert_eq!(v.unrecoverable, 0);
    }

    /// A 16-block run the default chunker splits at two or more
    /// content-defined cut points, with its chunk lengths.
    fn split_run() -> (Vec<u8>, Vec<u32>) {
        let config = DedupConfig::default();
        let gear = GearTable::new(config.seed);
        (0u64..)
            .map(|seed| (0..16).flat_map(|b| random_block(seed * 16 + b + 1)).collect::<Vec<u8>>())
            .find_map(|data| {
                let cuts = chunk_blocks(&gear, &config, &data);
                (cuts.len() >= 3).then_some((data, cuts))
            })
            .expect("some seed splits")
    }

    #[test]
    fn write_reports_every_chunk_of_a_split_run() {
        let mut p = dedup_pipeline();
        let (data, cuts) = split_run();
        assert!(p.write(0, 0, &data).unwrap().is_empty());
        // A non-contiguous write seals the 16-block run: one result per
        // chunk, not just the last one.
        let results = p.write(1, 64 * 4096, &text_block(1)).unwrap();
        assert_eq!(results.iter().map(|r| r.blocks).collect::<Vec<_>>(), cuts);
        assert_eq!(results.iter().map(|r| r.blocks).sum::<u32>(), 16);
        assert_eq!(
            results.iter().map(|r| r.allocated_bytes).sum::<u64>(),
            p.stats().physical_written,
            "no chunk's allocation goes unreported"
        );
    }

    #[test]
    fn mid_batch_power_cut_matches_one_call_per_write() {
        // Five non-contiguous single-block writes: the batch seals four
        // runs (two programs each: one payload page, one commit record).
        let blocks: Vec<Vec<u8>> = (0..5).map(|i| text_block(40 + i)).collect();
        let batch: Vec<BatchWrite<'_>> = blocks
            .iter()
            .enumerate()
            .map(|(i, data)| BatchWrite { now_ns: i as u64, offset: i as u64 * 3 * 4096, data })
            .collect();
        let mut clean = pipeline();
        assert_eq!(clean.write_batch(&batch).unwrap().len(), 4);
        let total = clean.stats().programs;
        assert_eq!(total, 8);
        for cut in 0..total {
            let plan = FaultPlan { power_cut_after_programs: Some(cut), ..FaultPlan::none() };
            let (mut batched, mut serial) = (pipeline(), pipeline());
            batched.set_fault_plan(plan);
            serial.set_fault_plan(plan);
            let b = batched.write_batch(&batch);
            let s = batch.iter().try_for_each(|w| serial.write(w.now_ns, w.offset, w.data).map(drop));
            for res in [b.map(drop), s] {
                assert!(
                    matches!(res, Err(EdcError::Write(WriteError::PowerCut { .. }))),
                    "cut {cut}: a typed power cut, got {res:?}"
                );
            }
            assert_eq!(batched.recover().unwrap(), serial.recover().unwrap(), "cut {cut}");
            assert_eq!(batched.stats(), serial.stats(), "cut {cut}");
            assert!(batched.device == serial.device, "cut {cut}: device images differ");
            // The journal holds exactly the runs committed before the cut;
            // every later block reads as unwritten.
            let committed = batched.stats().journal_records as usize;
            assert_eq!(committed as u64, cut / 2, "cut {cut}");
            for (i, data) in blocks.iter().enumerate() {
                let got = batched.read(100, i as u64 * 3 * 4096, 4096).unwrap();
                let want = if i < committed { data.clone() } else { vec![0u8; 4096] };
                assert_eq!(got, want, "cut {cut}: block of write {i}");
                assert_eq!(serial.read(100, i as u64 * 3 * 4096, 4096).unwrap(), want);
            }
        }
    }

    #[test]
    fn long_sequential_run_is_chunked_at_content_defined_cuts() {
        let mut p = dedup_pipeline();
        let blocks = 40u64;
        let data: Vec<u8> = (0..blocks).flat_map(|i| random_block(i * 31 + 5)).collect();
        p.write(0, 0, &data).unwrap();
        let results = p.flush_all(1).unwrap();
        assert!(results.len() >= 2, "a {blocks}-block run must split (max 16 blocks/chunk)");
        let max = p.config().dedup.max_chunk_blocks;
        let mut covered = 0u64;
        for r in &results {
            assert!(r.blocks <= max, "chunk of {} blocks exceeds max {max}", r.blocks);
            covered += u64::from(r.blocks);
        }
        assert_eq!(covered, blocks, "chunks must tile the run exactly");
        assert_eq!(p.read(2, 0, blocks * 4096).unwrap(), data);
        // Rewriting the same content elsewhere dedups chunk-for-chunk:
        // identical bytes produce identical cut points.
        p.write(10, 64 * 4096, &data).unwrap();
        p.flush_all(11).unwrap();
        assert_eq!(p.stats().dedup_hits, results.len() as u64);
        assert_eq!(p.read(12, 64 * 4096, blocks * 4096).unwrap(), data);
        p.verify_dedup().unwrap();
    }

    #[test]
    fn recovery_rebuilds_the_refcount_ledger() {
        let mut p = dedup_pipeline();
        let dup = text_block(6);
        p.write(0, 0, &dup).unwrap();
        p.flush_all(1).unwrap();
        p.write(10, 10 * 4096, &dup).unwrap();
        p.flush_all(11).unwrap();
        p.cut_power();
        let report = p.recover().unwrap();
        assert_eq!(report.payload_mismatches, 0);
        let d = p.verify_dedup().unwrap();
        assert_eq!(d.shared_runs, 1, "the Ref record must rebuild sharing");
        assert_eq!(p.read(20, 0, 4096).unwrap(), dup);
        assert_eq!(p.read(21, 10 * 4096, 4096).unwrap(), dup);
        // The rebuilt refcounts must gate freeing: dropping one referrer
        // keeps the other readable, dropping both reclaims the slot.
        p.write(30, 0, &random_block(1)).unwrap();
        p.flush_all(31).unwrap();
        assert_eq!(p.read(40, 10 * 4096, 4096).unwrap(), dup);
        p.write(50, 10 * 4096, &random_block(2)).unwrap();
        p.flush_all(51).unwrap();
        p.verify_dedup().unwrap();
        assert_eq!(p.verify().unwrap().unrecoverable, 0);
        // A second recovery replays the overwrites' releases too.
        p.cut_power();
        p.recover().unwrap();
        p.verify_dedup().unwrap();
        assert_eq!(p.read(60, 10 * 4096, 4096).unwrap(), random_block(2));
    }

    #[test]
    fn recompression_relocates_shared_runs_and_repoints_sharers() {
        let mut p = EdcPipeline::new(
            8 << 20,
            PipelineConfig {
                selector: SelectorConfig {
                    rungs: vec![crate::selector::LadderRung {
                        max_calc_iops: f64::INFINITY,
                        codec: CodecId::Lzf,
                    }],
                },
                heat: crate::heat::HeatConfig {
                    extent_blocks: 8,
                    demote_ratio: 1.1,
                    ..crate::heat::HeatConfig::default()
                },
                dedup: DedupConfig { enabled: true, ..DedupConfig::default() },
                ..PipelineConfig::default()
            },
        );
        let data: Vec<u8> = (0..4).flat_map(lowent_block).collect();
        p.write(0, 0, &data).unwrap();
        p.flush_all(1).unwrap();
        p.write(1_000_000, 16 * 4096, &data).unwrap();
        p.flush_all(1_000_001).unwrap();
        assert!(p.stats().dedup_hits >= 1, "identical 4-block runs must share");
        let shared_before = p.verify_dedup().unwrap().shared_runs;
        assert!(shared_before >= 1);
        // Long silence cools every extent; the pass upgrades Lzf → Deflate,
        // relocating shared runs and re-pointing every sharer.
        let report = p.recompress_pass(300_000_000_000, CodecId::Deflate, usize::MAX).unwrap();
        assert!(report.recompressed > 0, "{report:?}");
        assert_eq!(p.read(300_000_000_001, 0, data.len() as u64).unwrap(), data);
        assert_eq!(p.read(300_000_000_002, 16 * 4096, data.len() as u64).unwrap(), data);
        let d = p.verify_dedup().unwrap();
        assert_eq!(d.shared_runs, shared_before, "sharing survives relocation");
        assert_eq!(p.verify().unwrap().unrecoverable, 0);
        // The relocation journaled everything: recovery sees the moved run
        // and its re-pointed sharers.
        p.cut_power();
        p.recover().unwrap();
        p.verify_dedup().unwrap();
        assert_eq!(p.read(300_000_000_003, 0, data.len() as u64).unwrap(), data);
        assert_eq!(p.read(300_000_000_004, 16 * 4096, data.len() as u64).unwrap(), data);
    }

    #[test]
    fn dedup_off_leaves_behavior_and_ledger_empty() {
        let mut on = dedup_pipeline();
        let mut off = pipeline();
        let mut now = 0u64;
        for i in 0..24u64 {
            let data = if i % 3 == 0 { text_block(1) } else { text_block(i as u8) };
            on.write(now, i * 2 * 4096, &data).unwrap();
            off.write(now, i * 2 * 4096, &data).unwrap();
            now += 1_000_000;
        }
        on.flush_all(now).unwrap();
        off.flush_all(now).unwrap();
        assert_eq!(off.stats().dedup_hits, 0);
        assert_eq!(off.stats().dedup_elided_bytes, 0);
        assert!(on.stats().dedup_hits > 0);
        // Same logical contents either way.
        for i in 0..24u64 {
            assert_eq!(
                on.read(now + i, i * 2 * 4096, 4096).unwrap(),
                off.read(now + i, i * 2 * 4096, 4096).unwrap(),
            );
        }
        // ...but the deduped store programs less flash.
        assert!(on.stats().physical_written < off.stats().physical_written);
        off.verify_dedup().unwrap();
    }

    #[test]
    fn verify_dedup_catches_a_tampered_ledger() {
        let mut p = dedup_pipeline();
        let dup = text_block(4);
        p.write(0, 0, &dup).unwrap();
        p.flush_all(1).unwrap();
        p.write(10, 10 * 4096, &dup).unwrap();
        p.flush_all(11).unwrap();
        let off = p.map.get(0).expect("mapped").device_offset;
        p.dedup.purge(off);
        let err = p.verify_dedup().unwrap_err();
        assert!(matches!(err, EdcError::Integrity(_)), "{err}");
    }

    #[test]
    fn shared_runs_survive_gc_churn_with_verified_ledger() {
        let mut p = dedup_pipeline();
        let dup_a = text_block(11);
        let dup_b = text_block(22);
        let mut now = 0u64;
        // Churn: hot rotation of duplicate and unique content over a small
        // logical window forces constant allocate/release traffic while
        // two duplicate families stay permanently shared.
        for round in 0..12u64 {
            for slot in 0..6u64 {
                let data = match (round + slot) % 3 {
                    0 => dup_a.clone(),
                    1 => dup_b.clone(),
                    _ => random_block(round * 131 + slot),
                };
                p.write(now, slot * 4 * 4096, &data).unwrap();
                now += 1_000_000;
            }
            p.flush_all(now).unwrap();
            now += 1_000_000;
            // The ledger and mapping must agree after every drain; a run
            // with outstanding refs being erased would trip this (or the
            // SlotStore's own release panic) immediately.
            p.verify_dedup().unwrap();
            assert_eq!(p.verify().unwrap().unrecoverable, 0);
        }
        assert!(p.stats().dedup_hits > 0);
        for slot in 0..6u64 {
            let expect = match (11 + slot) % 3 {
                0 => dup_a.clone(),
                1 => dup_b.clone(),
                _ => random_block(11 * 131 + slot),
            };
            assert_eq!(p.read(now, slot * 4 * 4096, 4096).unwrap(), expect, "slot {slot}");
        }
    }
}
