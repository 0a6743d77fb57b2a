//! The layer shadow: one pipeline's data path rebuilt from the leaf modules'
//! public functions, fed the same inputs as the real store.
//!
//! Product code carries no spans yet (ROADMAP item 1), so the traced run
//! attributes time from outside: after each real call the driver replays
//! the call's inputs here, with a span around every leaf — monitor,
//! selector, SD, estimator, chunker and hash, codec, checksum, allocator,
//! slot store, journal, mapping table, run cache, heat tracker. The shadow
//! keeps the state those leaves need (its own device image included), and
//! predicts each run's codec tag and payload length; `trace.shadow_fidelity`
//! is how often the real store agreed. What the real call took beyond the
//! shadow's leaves is reported as `pipeline.unattributed_*`.

use crate::gen::BLOCK;
use crate::trace::{Name, Tracer};
use edc::compress::{checksum64, CodecId, CodecRegistry, CompressorState, Estimator};
use edc::core::cache::CacheStats;
use edc::core::dedup::{chunk_blocks, GearTable};
use edc::core::selector::codec_strength;
use edc::core::{
    content_hash64, AlgorithmSelector, BlockMap, DedupIndex, HeatTracker, MappingEntry,
    MappingJournal, MergedRun, PipelineConfig, QuantizedAllocator, RunCache, SequentialityDetector,
    SlotStore, Temperature, WorkloadMonitor, WriteResult,
};
use std::collections::VecDeque;

/// What the shadow expects the store to report for one stored run.
struct Predicted {
    start_block: u64,
    blocks: u32,
    tag: CodecId,
    payload_bytes: u64,
    dedup_hit: bool,
}

/// What one shadowed recompress pass did (compared with the real report).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ShadowPass {
    pub scanned: u64,
    pub recompressed: u64,
    pub demoted: u64,
}

pub struct Shadow {
    cfg: PipelineConfig,
    monitor: WorkloadMonitor,
    selector: AlgorithmSelector,
    sd: SequentialityDetector,
    estimator: Estimator,
    allocator: QuantizedAllocator,
    slots: SlotStore,
    map: BlockMap,
    device: Vec<u8>,
    pending: Vec<u8>,
    state: CompressorState,
    comp: Vec<u8>,
    cache: RunCache<Vec<u8>>,
    bufs: Vec<Vec<u8>>,
    journal: MappingJournal,
    heat: HeatTracker,
    gear: GearTable,
    dedup: DedupIndex,
    predicted: VecDeque<Predicted>,
    /// Runs whose prediction was compared with a real `WriteResult`.
    pub runs_checked: u64,
    pub runs_agreed: u64,
    /// Bytes the estimator looked at / flagged incompressible.
    pub est_bytes: u64,
    pub est_write_through_bytes: u64,
}

fn enc_name(tag: CodecId) -> Name {
    if tag == CodecId::Deflate {
        Name::DeflateEnc
    } else {
        Name::LzfEnc
    }
}

fn dec_name(tag: CodecId) -> Name {
    if tag == CodecId::Deflate {
        Name::DeflateDec
    } else {
        Name::LzfDec
    }
}

impl Shadow {
    /// A shadow of one pipeline of `capacity_bytes` configured as `cfg`
    /// (for a shard: the shard's own config and capacity).
    pub fn new(capacity_bytes: u64, cfg: PipelineConfig) -> Shadow {
        Shadow {
            monitor: WorkloadMonitor::default(),
            selector: AlgorithmSelector::new(cfg.selector.clone()),
            sd: SequentialityDetector::new(cfg.sd),
            estimator: Estimator::new(cfg.estimator),
            allocator: QuantizedAllocator::new(cfg.alloc),
            slots: SlotStore::new(capacity_bytes),
            map: BlockMap::new(),
            device: vec![0; capacity_bytes as usize],
            pending: Vec::new(),
            state: CompressorState::new(),
            comp: Vec::new(),
            cache: RunCache::new(cfg.cache_runs),
            bufs: Vec::new(),
            journal: MappingJournal::with_shard(cfg.journal_shard),
            heat: HeatTracker::new(cfg.heat),
            gear: GearTable::new(cfg.dedup.seed),
            dedup: DedupIndex::new(),
            predicted: VecDeque::new(),
            runs_checked: 0,
            runs_agreed: 0,
            est_bytes: 0,
            est_write_through_bytes: 0,
            cfg,
        }
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Replay one `write` call.
    pub fn write(&mut self, tr: &mut Tracer, now_ns: u64, offset: u64, data: &[u8]) {
        let start = offset / BLOCK;
        let blocks = (data.len() as u64 / BLOCK) as u32;
        let t = tr.now();
        self.monitor.record_pages(now_ns, blocks);
        tr.leaf(Name::Monitor, t, 0);
        let t = tr.now();
        self.heat.record(now_ns, start, u64::from(blocks));
        tr.leaf(Name::Heat, t, 0);
        let t = tr.now();
        let sealed = self.sd.on_write(start, blocks, now_ns);
        let bytes = sealed.as_ref().map(|_| self.take_pending());
        self.pending.extend_from_slice(data);
        tr.leaf(Name::Sd, t, 0);
        if let (Some(run), Some(bytes)) = (sealed, bytes) {
            self.seal_and_store(tr, now_ns, &run, bytes);
        }
    }

    /// The SD buffer's bytes, leaving a recycled empty buffer behind.
    fn take_pending(&mut self) -> Vec<u8> {
        let next = self.bufs.pop().unwrap_or_default();
        std::mem::replace(&mut self.pending, next)
    }

    /// Replay one `flush_all` call.
    pub fn flush(&mut self, tr: &mut Tracer, now_ns: u64) {
        if let Some(run) = self.sd.drain() {
            let bytes = self.take_pending();
            self.seal_and_store(tr, now_ns, &run, bytes);
        }
    }

    /// Compare the store's results for the call just replayed with what the
    /// shadow predicted, oldest first.
    pub fn check(&mut self, results: &[WriteResult]) {
        for r in results {
            self.runs_checked += 1;
            let Some(p) = self.predicted.pop_front() else {
                continue;
            };
            let same_place = p.start_block == r.start_block && p.blocks == r.blocks;
            let same_outcome = p.tag == r.tag
                && p.payload_bytes == r.payload_bytes
                && p.dedup_hit == (r.allocated_bytes == 0);
            if same_place && same_outcome {
                self.runs_agreed += 1;
            }
        }
        // Whatever is left was predicted for a run the store did not report
        // from this call; count it as a disagreement.
        self.runs_checked += self.predicted.len() as u64;
        self.predicted.clear();
    }

    /// The decision half (estimate → select), then storage of every chunk.
    fn seal_and_store(&mut self, tr: &mut Tracer, now_ns: u64, run: &MergedRun, bytes: Vec<u8>) {
        let t = tr.now();
        let incompressible = self.estimator.is_incompressible(&bytes);
        tr.leaf(Name::Estimator, t, bytes.len() as u64);
        self.est_bytes += bytes.len() as u64;
        let codec = if incompressible {
            self.est_write_through_bytes += bytes.len() as u64;
            CodecId::None
        } else {
            let t = tr.now();
            let iops = self.monitor.calculated_iops(now_ns);
            tr.leaf(Name::Monitor, t, 0);
            let t = tr.now();
            let codec = self.selector.select(iops);
            tr.leaf(Name::Selector, t, 0);
            codec
        };
        let cuts = if self.cfg.dedup.enabled {
            let t = tr.now();
            let cuts = chunk_blocks(&self.gear, &self.cfg.dedup, &bytes);
            tr.leaf(Name::DedupChunkHash, t, bytes.len() as u64);
            cuts
        } else {
            vec![run.blocks]
        };
        let mut at = 0u32;
        for len in cuts {
            let lo = (u64::from(at) * BLOCK) as usize;
            let hi = lo + (u64::from(len) * BLOCK) as usize;
            self.store_chunk(
                tr,
                run.start_block + u64::from(at),
                len,
                &bytes[lo..hi],
                codec,
            );
            at += len;
        }
        self.recycle(bytes);
    }

    /// The storage half for one chunk: dedup probe, encode, place, program,
    /// checksum, journal, map — mirroring `EdcPipeline::drain_sealed`.
    fn store_chunk(
        &mut self,
        tr: &mut Tracer,
        start: u64,
        blocks: u32,
        raw: &[u8],
        codec: CodecId,
    ) {
        let mut hash = None;
        if self.cfg.dedup.enabled {
            let t = tr.now();
            let h = content_hash64(raw, self.cfg.dedup.seed);
            tr.leaf(Name::DedupChunkHash, t, 0);
            hash = Some(h);
            let t = tr.now();
            let mut target = self.dedup_target(h, blocks, raw);
            if target.is_some() {
                // The store confirms a hit twice: at probe time and again
                // at commit time, in case the drain superseded the target.
                target = self.dedup_target(h, blocks, raw);
            }
            tr.leaf(Name::DedupIndex, t, 1);
            if let Some(template) = target {
                self.share_run(tr, start, blocks, &template, h);
                return;
            }
        }
        let mut comp = std::mem::take(&mut self.comp);
        let compressed = codec != CodecId::None;
        if compressed {
            let t = tr.now();
            let c = CodecRegistry::get(codec).expect("ladder codecs are registered");
            c.compress_with(&mut self.state, raw, &mut comp);
            tr.leaf(enc_name(codec), t, raw.len() as u64);
        }
        let comp_len = if compressed { comp.len() } else { raw.len() } as u64;
        let t = tr.now();
        let prev = self
            .map
            .get(start)
            .filter(|e| e.run_start == start && e.run_blocks == blocks);
        let placement =
            self.allocator
                .place(raw.len() as u64, comp_len, prev.map(|e| e.stored_bytes));
        tr.leaf(Name::Allocator, t, 0);
        let (tag, payload): (CodecId, &[u8]) = if compressed && placement.compressed {
            (codec, &comp[..])
        } else {
            (CodecId::None, raw)
        };
        let entry = self.commit(tr, tag, start, blocks, payload, placement.allocated_bytes);
        if let Some(h) = hash {
            let t = tr.now();
            self.dedup.insert_unique(Some(h), entry);
            tr.leaf(Name::DedupIndex, t, 0);
        }
        self.predicted.push_back(Predicted {
            start_block: start,
            blocks,
            tag,
            payload_bytes: payload.len() as u64,
            dedup_hit: false,
        });
        self.comp = comp;
    }

    /// Slot, device program, checksum, journal record and mapping update
    /// for a payload that is going to flash.
    fn commit(
        &mut self,
        tr: &mut Tracer,
        tag: CodecId,
        start: u64,
        blocks: u32,
        payload: &[u8],
        stored_bytes: u64,
    ) -> MappingEntry {
        let t = tr.now();
        let device_offset = self.slots.alloc_run(stored_bytes, blocks);
        tr.leaf(Name::Slots, t, 1);
        let t = tr.now();
        let off = device_offset as usize;
        self.device[off..off + payload.len()].copy_from_slice(payload);
        tr.leaf(Name::Program, t, payload.len() as u64);
        let t = tr.now();
        let checksum = checksum64(payload, start);
        tr.leaf(Name::Checksum, t, payload.len() as u64);
        let entry = MappingEntry {
            tag,
            run_start: start,
            run_blocks: blocks,
            device_offset,
            stored_bytes,
            compressed_bytes: payload.len() as u64,
            checksum,
            parity: false,
        };
        let t = tr.now();
        self.journal.append(&entry);
        tr.leaf(Name::JournalAppend, t, 1);
        self.map_insert(tr, entry);
        entry
    }

    fn map_insert(&mut self, tr: &mut Tracer, entry: MappingEntry) {
        let t = tr.now();
        let evicted = self.map.insert_run(entry);
        tr.leaf(Name::MapInsert, t, 1);
        if evicted.is_empty() {
            return;
        }
        // `release_superseded`: slot reference, dedup ledger, stale cache
        // entry — all charged to the slot store's leaf.
        let t = tr.now();
        for old in &evicted {
            self.slots.release_block_ref(old.device_offset);
            self.dedup.release_block(old.device_offset, old.run_start);
            if let Some(stale) = self.cache.invalidate(old.device_offset) {
                self.recycle(stale);
            }
        }
        tr.leaf(Name::Slots, t, 0);
    }

    /// A live stored run whose raw bytes equal `raw`, if the index has one
    /// (checksum, then decode-and-compare, as `chunk_matches_stored` does).
    fn dedup_target(&mut self, hash: u64, blocks: u32, raw: &[u8]) -> Option<MappingEntry> {
        let mut scratch = self.bufs.pop().unwrap_or_default();
        let mut found = None;
        for &off in self.dedup.candidates(hash) {
            let Some(t) = self.dedup.template(off).copied() else {
                continue;
            };
            if t.run_blocks != blocks {
                continue;
            }
            let o = t.device_offset as usize;
            let payload = &self.device[o..o + t.compressed_bytes as usize];
            if checksum64(payload, t.run_start) != t.checksum {
                continue;
            }
            let same = if t.tag == CodecId::None {
                payload == raw
            } else {
                CodecRegistry::get(t.tag)
                    .is_ok_and(|c| c.decompress_into(payload, raw.len(), &mut scratch).is_ok())
                    && scratch[..] == raw[..]
            };
            if same {
                found = Some(t);
                break;
            }
        }
        self.recycle(scratch);
        found
    }

    /// A dedup hit: take the references, journal the `Ref`, re-point.
    fn share_run(
        &mut self,
        tr: &mut Tracer,
        start: u64,
        blocks: u32,
        template: &MappingEntry,
        hash: u64,
    ) {
        let t = tr.now();
        let o = template.device_offset as usize;
        let checksum = checksum64(
            &self.device[o..o + template.compressed_bytes as usize],
            start,
        );
        tr.leaf(Name::Checksum, t, template.compressed_bytes);
        let sharer = MappingEntry {
            run_start: start,
            run_blocks: blocks,
            checksum,
            ..*template
        };
        let t = tr.now();
        self.slots.add_run_refs(template.device_offset, blocks);
        tr.leaf(Name::Slots, t, 1);
        let t = tr.now();
        self.dedup
            .add_referrer(template.device_offset, start, blocks);
        tr.leaf(Name::DedupIndex, t, 0);
        let t = tr.now();
        self.journal.append_ref(&sharer, hash);
        tr.leaf(Name::JournalAppend, t, 1);
        self.map_insert(tr, sharer);
        self.predicted.push_back(Predicted {
            start_block: start,
            blocks,
            tag: template.tag,
            payload_bytes: template.compressed_bytes,
            dedup_hit: true,
        });
    }

    fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.bufs.len() < 8 && buf.capacity() > 0 {
            buf.clear();
            self.bufs.push(buf);
        }
    }

    /// Replay one `read` call. The store drops the results of a run a read
    /// seals, so the shadow's predictions for it are dropped unchecked too.
    pub fn read(&mut self, tr: &mut Tracer, now_ns: u64, offset: u64, len: u64) {
        let start = offset / BLOCK;
        let blocks = len / BLOCK;
        let t = tr.now();
        self.monitor.record_pages(now_ns, blocks as u32);
        tr.leaf(Name::Monitor, t, 0);
        let t = tr.now();
        let sealed = self.sd.on_read();
        tr.leaf(Name::Sd, t, 0);
        if let Some(run) = sealed {
            let bytes = self.take_pending();
            self.seal_and_store(tr, now_ns, &run, bytes);
            self.predicted.clear();
        }
        let t = tr.now();
        let mut out = vec![0u8; len as usize];
        tr.leaf(Name::CopyOut, t, 0);
        let t = tr.now();
        self.heat.record(now_ns, start, blocks);
        tr.leaf(Name::Heat, t, 0);
        let t = tr.now();
        let entries: Vec<Option<MappingEntry>> =
            (start..start + blocks).map(|b| self.map.get(b)).collect();
        tr.leaf(Name::MapGet, t, blocks);
        let bb = BLOCK as usize;
        let mut verified_off = u64::MAX;
        for (i, entry) in entries.iter().enumerate() {
            let Some(entry) = entry else { continue };
            let src = ((start + i as u64 - entry.run_start) * BLOCK) as usize;
            let dst = i * bb;
            let off = entry.device_offset as usize;
            if entry.tag == CodecId::None {
                if verified_off != entry.device_offset {
                    let t = tr.now();
                    let payload = &self.device[off..off + entry.compressed_bytes as usize];
                    std::hint::black_box(checksum64(payload, entry.run_start));
                    tr.leaf(Name::Checksum, t, entry.compressed_bytes);
                    verified_off = entry.device_offset;
                }
                let t = tr.now();
                out[dst..dst + bb].copy_from_slice(&self.device[off + src..off + src + bb]);
                tr.leaf(Name::CopyOut, t, BLOCK);
                continue;
            }
            let t = tr.now();
            let hit = self.cache.lookup(entry.device_offset);
            tr.leaf(Name::CacheLookup, t, 1);
            if let Some(run) = hit {
                let t = tr.now();
                out[dst..dst + bb].copy_from_slice(&run[src..src + bb]);
                tr.leaf(Name::CopyOut, t, BLOCK);
                continue;
            }
            let mut run = self.bufs.pop().unwrap_or_default();
            self.decode(tr, entry, &mut run);
            let t = tr.now();
            out[dst..dst + bb].copy_from_slice(&run[src..src + bb]);
            tr.leaf(Name::CopyOut, t, BLOCK);
            let t = tr.now();
            let displaced = self.cache.insert(entry.device_offset, run);
            tr.leaf(Name::CacheInsert, t, 1);
            if let Some(d) = displaced {
                self.recycle(d);
            }
        }
        std::hint::black_box(&out);
    }

    /// Checksum and decode a compressed run from the shadow device.
    fn decode(&mut self, tr: &mut Tracer, entry: &MappingEntry, out: &mut Vec<u8>) {
        let off = entry.device_offset as usize;
        let payload = &self.device[off..off + entry.compressed_bytes as usize];
        let t = tr.now();
        std::hint::black_box(checksum64(payload, entry.run_start));
        tr.leaf(Name::Checksum, t, entry.compressed_bytes);
        let raw_len = (u64::from(entry.run_blocks) * BLOCK) as usize;
        let t = tr.now();
        let codec = CodecRegistry::get(entry.tag).expect("stored tags are registered");
        codec
            .decompress_into(payload, raw_len, out)
            .expect("shadow payload decodes");
        tr.leaf(dec_name(entry.tag), t, raw_len as u64);
    }

    /// Replay one `recompress_pass` (stores without dedup sharing only):
    /// cold runs below `target` are re-encoded when that shrinks their
    /// slot, hot runs at or below the demote ratio become write-through.
    pub fn recompress(
        &mut self,
        tr: &mut Tracer,
        now_ns: u64,
        target: CodecId,
        budget: usize,
    ) -> ShadowPass {
        assert!(
            !self.cfg.dedup.enabled,
            "the shadow does not re-point dedup sharers"
        );
        let mut pass = ShadowPass::default();
        if !self.cfg.heat.enabled || budget == 0 || target == CodecId::None {
            return pass;
        }
        let t = tr.now();
        let live = self.map.live_runs();
        tr.leaf(Name::MapScan, t, live.len() as u64);
        let mut rewrites = 0usize;
        for entry in live {
            if rewrites >= budget {
                break;
            }
            // Superseded since the snapshot (as the real pass checks).
            if self
                .map
                .get(entry.run_start)
                .is_none_or(|e| e.device_offset != entry.device_offset)
            {
                continue;
            }
            pass.scanned += 1;
            let blocks = u64::from(entry.run_blocks);
            let t = tr.now();
            let demoted = self.heat.run_demoted(entry.run_start, blocks);
            let temp = self.heat.classify_run(now_ns, entry.run_start, blocks);
            tr.leaf(Name::HeatClassify, t, 1);
            if demoted {
                continue;
            }
            let raw_len = blocks * BLOCK;
            let whole = (entry.run_start..entry.run_start + blocks).all(|b| {
                self.map.get(b).is_some_and(|e| {
                    e.device_offset == entry.device_offset && e.run_start == entry.run_start
                })
            });
            match temp {
                Temperature::Hot => {
                    let achieved = raw_len as f64 / entry.compressed_bytes.max(1) as f64;
                    if entry.tag == CodecId::None || achieved > self.cfg.heat.demote_ratio || !whole
                    {
                        continue;
                    }
                    let mut raw = self.bufs.pop().unwrap_or_default();
                    self.decode(tr, &entry, &mut raw);
                    self.commit(
                        tr,
                        CodecId::None,
                        entry.run_start,
                        entry.run_blocks,
                        &raw,
                        raw_len,
                    );
                    self.recycle(raw);
                    self.heat.mark_demoted(entry.run_start, blocks);
                    pass.demoted += 1;
                    rewrites += 1;
                }
                Temperature::Cold => {
                    if codec_strength(entry.tag) >= codec_strength(target) || !whole {
                        continue;
                    }
                    let mut raw = self.bufs.pop().unwrap_or_default();
                    if entry.tag == CodecId::None {
                        let off = entry.device_offset as usize;
                        raw.clear();
                        raw.extend_from_slice(
                            &self.device[off..off + entry.compressed_bytes as usize],
                        );
                    } else {
                        self.decode(tr, &entry, &mut raw);
                    }
                    let mut comp = std::mem::take(&mut self.comp);
                    let t = tr.now();
                    let codec = CodecRegistry::get(target).expect("target codec is registered");
                    codec.compress_with(&mut self.state, &raw, &mut comp);
                    tr.leaf(enc_name(target), t, raw.len() as u64);
                    let t = tr.now();
                    let placement = self
                        .allocator
                        .place(raw.len() as u64, comp.len() as u64, None);
                    tr.leaf(Name::Allocator, t, 0);
                    if placement.compressed && placement.allocated_bytes < entry.stored_bytes {
                        let new = self.commit(
                            tr,
                            target,
                            entry.run_start,
                            entry.run_blocks,
                            &comp,
                            placement.allocated_bytes,
                        );
                        // The pass seeds the cache with the bytes it holds.
                        let t = tr.now();
                        let displaced = self.cache.insert(new.device_offset, raw);
                        tr.leaf(Name::CacheInsert, t, 1);
                        if let Some(d) = displaced {
                            self.recycle(d);
                        }
                        pass.recompressed += 1;
                        rewrites += 1;
                    } else {
                        self.recycle(raw);
                    }
                    self.comp = comp;
                }
                Temperature::Warm => {}
            }
        }
        pass
    }

    /// Decode the shadow journal, as recovery does; returns records read.
    pub fn replay_journal(&mut self, tr: &mut Tracer) -> u64 {
        let t = tr.now();
        let replay = self.journal.replay();
        tr.leaf(Name::JournalReplay, t, replay.scanned);
        replay.scanned
    }
}
