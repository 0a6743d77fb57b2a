//! The content-defined dedup front-end against a dedup-off control arm,
//! as seeded tests: a 40 %-duplicate stream programs fewer flash pages
//! by exactly one per hit, a duplicate-free stream stores exactly what
//! dedup off stores, every block reads back bit-exact, and a power cut
//! anywhere in dedup-hit writes and a shared-run relocation loses
//! nothing.

use edc_core::pipeline::{EdcPipeline, PipelineConfig, PipelineStats};
use edc_datagen::{BlockClass, DataMix, DupStream};

/// Pipeline config for the two arms: everything at its default except
/// the dedup front-end toggle under test.
fn dedup_config(dedup_on: bool) -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    cfg.dedup.enabled = dedup_on;
    cfg
}

/// `blocks` seeded 4 KiB text blocks (seed `0xEDC_D0D0`, Zipfian reuse
/// at θ = 0.99) dialled to `dup_fraction` duplicates. Text is
/// compressible, so the codec work a hit elides is realistic, and
/// practically collision-free, so a 0 % stream really is duplicate-free.
fn dup_stream(blocks: usize, dup_fraction: f64) -> Vec<Vec<u8>> {
    let mut s = DupStream::new(0xEDC_D0D0, DataMix::pure(BlockClass::Text), dup_fraction, 0.99);
    (0..blocks).map(|_| s.block(4096)).collect()
}

/// Write `blocks` into a fresh pipeline, 2 ms apart, each once at its
/// own scattered offset, and flush; check that every block reads back
/// bit-exact and the refcount ledger cross-checks; return the counters.
fn write_stream(blocks: &[Vec<u8>], dedup_on: bool) -> PipelineStats {
    let n = blocks.len() as u64;
    let mut p = EdcPipeline::new((n * 4096 * 2).max(16 << 20), dedup_config(dedup_on));
    // Contiguous offsets would be merged into multi-block runs by the
    // sequentiality detector, hiding the block-granular duplicates the
    // stream injects; an odd prime multiplier permutes `0..n`.
    let pos = |i: usize| (i as u64).wrapping_mul(2_654_435_761) % n * 4096;
    for (i, b) in blocks.iter().enumerate() {
        p.write((i as u64 + 1) * 2_000_000, pos(i), b).expect("stream write");
    }
    p.flush_all((n + 1) * 2_000_000).expect("stream flush");
    for (i, b) in blocks.iter().enumerate() {
        let got = p.read((n + 2) * 2_000_000, pos(i), 4096).expect("read back");
        assert!(&got == b, "dedup {dedup_on}: block {i} did not read back bit-exact");
    }
    p.verify_dedup().expect("refcount ledger cross-check");
    p.stats()
}

/// The counters a dedup claim is stated in.
#[derive(Debug, PartialEq, Eq)]
struct Stored {
    physical_written: u64,
    programs: u64,
    journal_records: u64,
    journal_bytes: u64,
    dedup_hits: u64,
}

impl From<PipelineStats> for Stored {
    fn from(s: PipelineStats) -> Self {
        Stored {
            physical_written: s.physical_written,
            programs: s.programs,
            journal_records: s.journal_records,
            journal_bytes: s.journal_bytes,
            dedup_hits: s.dedup_hits,
        }
    }
}

/// Both streams of `blocks` blocks through both arms: `[dup-40 %, dup-free]`,
/// each `(dedup on, dedup off)`.
fn dedup_vs_control(blocks: usize) -> [(Stored, Stored); 2] {
    [0.40, 0.0].map(|frac| {
        let stream = dup_stream(blocks, frac);
        (write_stream(&stream, true).into(), write_stream(&stream, false).into())
    })
}

/// The flash-bytes claim on the duplicate mix: dedup hits, and programs
/// strictly fewer flash bytes than dedup off.
fn assert_fewer_bytes(on40: &Stored, off40: &Stored) {
    assert!(on40.dedup_hits > 0, "no dedup hit on a 40 %-duplicate stream: {on40:?}");
    assert!(on40.physical_written < off40.physical_written, "dedup saved no flash bytes");
    assert_eq!(off40.dedup_hits, 0, "dedup off hit");
}

/// The write-work claim on the duplicate mix: each hit avoids exactly
/// one page program.
fn assert_one_program_per_hit(on40: &Stored, off40: &Stored) {
    assert_eq!(on40.programs + on40.dedup_hits, off40.programs, "a hit is not one program saved");
}

mod tests {
    use super::*;
    use crate::content::acgt_run;
    use crate::heat::heat_pipeline_config;
    use crate::sweep::{cut_sweep, CutScenario};
    use edc_compress::CodecId;
    use std::sync::OnceLock;

    /// `Stored` for pinned figures, fields in declaration order.
    fn stored(physical_written: u64, programs: u64, journal: (u64, u64), hits: u64) -> Stored {
        let (journal_records, journal_bytes) = journal;
        Stored { physical_written, programs, journal_records, journal_bytes, dedup_hits: hits }
    }

    /// Journal records and bytes of the smoke-size streams, equal in
    /// every arm: a hit journals a reference record the size of a run
    /// record.
    const J: (u64, u64) = (1_200, 78_000);

    /// The smoke-size streams (1 200 blocks each), driven once and shared
    /// by the three claims.
    fn smoke() -> &'static [(Stored, Stored); 2] {
        static ARMS: OnceLock<[(Stored, Stored); 2]> = OnceLock::new();
        ARMS.get_or_init(|| dedup_vs_control(1_200))
    }

    #[test]
    fn duplicates_cut_the_flash_bytes_written() {
        let (on40, off40) = &smoke()[0];
        assert_fewer_bytes(on40, off40);
        assert_eq!(
            (on40.physical_written, on40.dedup_hits, off40.physical_written),
            (1_515_520, 460, 2_457_600)
        );
    }

    #[test]
    fn each_dedup_hit_saves_exactly_one_page_program() {
        let (on40, off40) = &smoke()[0];
        assert_one_program_per_hit(on40, off40);
        assert_eq!(
            (on40, off40),
            (&stored(1_515_520, 1_940, J, 460), &stored(2_457_600, 2_400, J, 0))
        );
    }

    #[test]
    fn dedup_changes_nothing_a_duplicate_free_stream_stores() {
        let (on0, off0) = &smoke()[1];
        assert_eq!(on0, off0, "dedup changed what a duplicate-free stream stores");
        assert_eq!(on0, &stored(2_457_600, 2_400, J, 0));
    }

    #[test]
    #[ignore = "full size: ~1 s in release, too slow for a debug build"]
    fn dedup_claims_hold_at_full_size() {
        const J: (u64, u64) = (10_000, 650_000);
        let [(on40, off40), (on0, off0)] = dedup_vs_control(10_000);
        assert_fewer_bytes(&on40, &off40);
        assert_one_program_per_hit(&on40, &off40);
        assert_eq!(
            (on40, off40),
            (stored(12_383_232, 16_047, J, 3_953), stored(20_477_952, 20_000, J, 0))
        );
        assert_eq!(on0, off0, "dedup changed what a duplicate-free stream stores");
        assert_eq!(on0, stored(20_478_976, 20_000, J, 0));
    }

    /// Power-cut sweep across the dedup write path and a shared-run
    /// relocation: unique writes, then dedup-hit writes sharing the first
    /// run, then a cooled recompression pass that relocates the shared run —
    /// cut at every page program of the whole sequence, recover, and check
    /// nothing committed is lost. Within a drain runs commit in write order,
    /// so a zero-filled block *below* the highest committed block is a loss,
    /// not an uncommitted write.
    fn dedup_power_cut_sweep(uniques: u64, dups: u64) {
        let slots = uniques + dups;
        let run_blocks: u64 = 4;
        let step = 2_000_000u64;
        // Each slot is a 4-block (16 KiB) run — big enough that a cooled
        // Deflate rewrite reclaims whole pages — placed 8 blocks apart so the
        // sequentiality detector never merges neighbouring slots. Duplicate
        // slots repeat unique 0's payload from block 64 up; the seeded
        // chunker cuts identical payloads identically, so every duplicate
        // chunk shares unique 0's stored run(s). ACGT noise, as in the heat
        // bench: Lzf keeps it ~raw, Deflate quarters it — so the cooled pass
        // has whole pages to reclaim per run.
        let expect = |s: u64| -> Vec<u8> {
            let src = if s < uniques { s } else { 0 };
            acgt_run(src.wrapping_mul(0x9E37_79B9).wrapping_add(7), (run_blocks * 4096) as usize)
        };
        let offset = |s: u64| {
            if s < uniques {
                s * 8 * 4096
            } else {
                (64 + (s - uniques) * 8) * 4096
            }
        };
        // Everything cools far past the threshold before the pass runs.
        let cold_at = slots * step + 400 * 1_000_000_000;
        let scenario = CutScenario {
            // Pin the write-path ladder to Lzf (as the heat bench does) so the
            // cooled Deflate pass has a tier to move the shared run up to.
            make: &|| {
                let mut cfg = heat_pipeline_config();
                cfg.dedup.enabled = true;
                EdcPipeline::new(8 << 20, cfg)
            },
            prepare: &|_| {},
            drive: &|p| {
                for s in 0..slots {
                    p.write((s + 1) * step, offset(s), &expect(s))?;
                }
                p.flush_all((slots + 1) * step)?;
                let pass = p.recompress_pass(cold_at, CodecId::Deflate, usize::MAX)?;
                // Only an uninterrupted run gets this far: it must actually
                // exercise the relocation of a *shared* run.
                assert!(pass.recompressed > 0, "sweep must exercise a relocation: {pass:?}");
                let ledger = p.verify_dedup()?;
                assert!(ledger.shared_runs >= 1, "sweep must relocate a *shared* run: {ledger:?}");
                Ok(())
            },
            count_lost: &|p| {
                p.verify_dedup().expect("refcount ledger cross-check after recovery");
                // Per 4 KiB block: 0 = reads back committed content, 1 = still
                // zero-filled (its chunk's commit never happened), 2 = torn or
                // unreadable. Chunks commit in write order, so committed blocks
                // form a prefix of the written sequence.
                let mut states = Vec::with_capacity((slots * run_blocks) as usize);
                for s in 0..slots {
                    let want = expect(s);
                    for k in 0..run_blocks {
                        let lo = (k * 4096) as usize;
                        states.push(match p.read(cold_at + step, offset(s) + k * 4096, 4096) {
                            Ok(got) if got[..] == want[lo..lo + 4096] => 0u8,
                            Ok(got) if got.iter().all(|&b| b == 0) => 1,
                            _ => 2,
                        });
                    }
                }
                let last_committed = states.iter().rposition(|&st| st == 0);
                let lost = states
                    .iter()
                    .enumerate()
                    .filter(|&(s, &st)| st != 0 && !(st == 1 && Some(s) > last_committed))
                    .count() as u64;
                (states.len() as u64 - lost, lost)
            },
        };
        let what = format!("dedup writes + relocation, {uniques} unique + {dups} duplicate runs");
        cut_sweep(&what, &scenario).0.assert_zero_loss(&what);
    }

    #[test]
    fn power_cut_anywhere_in_dedup_writes_and_relocation_loses_nothing() {
        dedup_power_cut_sweep(2, 2);
        dedup_power_cut_sweep(4, 3);
    }
}
