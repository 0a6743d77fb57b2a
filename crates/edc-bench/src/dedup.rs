//! `bench-dedup`: the content-defined dedup front-end against a
//! dedup-off control arm — flash bytes, paired write throughput, and a
//! power-cut sweep across dedup-hit writes and a shared-run relocation.

use crate::content::acgt_run;
use crate::heat::heat_pipeline_config;
use crate::sweep::{cut_sweep, CutScenario, SweepReport};
use crate::{CmdResult, Harness};
use edc_compress::CodecId;
use edc_core::pipeline::{EdcPipeline, PipelineConfig, PipelineStats};
use std::path::Path;
use std::time::Instant;

/// Pipeline config for the dedup bench arms: everything at its default
/// except the dedup front-end toggle under test.
fn dedup_bench_config(dedup_on: bool) -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    cfg.dedup.enabled = dedup_on;
    cfg
}

/// Power-cut sweep across the dedup write path and a shared-run
/// relocation: unique writes, then dedup-hit writes sharing the first
/// run, then a cooled recompression pass that relocates the shared run —
/// cut at every page program of the whole sequence, recover, and check
/// nothing committed is lost. Within a drain runs commit in write order,
/// so a zero-filled block *below* the highest committed block is a loss,
/// not an uncommitted write.
fn dedup_power_cut_sweep(smoke: bool) -> SweepReport {
    let uniques: u64 = if smoke { 2 } else { 4 };
    let dups: u64 = if smoke { 2 } else { 3 };
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
    let offset = |s: u64| if s < uniques { s * 8 * 4096 } else { (64 + (s - uniques) * 8) * 4096 };
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
    cut_sweep("dedup writes + relocation", &scenario).0
}

/// Content-defined dedup front-end benchmark: two seeded block streams
/// (a 40 %-duplicate Zipfian-reuse mix and a duplicate-free control mix)
/// each driven through a dedup-on and a dedup-off pipeline. Gated on the
/// duplicate mix programming strictly fewer flash bytes *and* writing at
/// least as fast with dedup on, the duplicate-free mix staying within 5 %
/// of the dedup-off control (the hashing-overhead budget), bit-exact
/// read-back on every arm, a clean two-way refcount-ledger cross-check,
/// and a power-cut sweep across the dedup write path and a shared-run
/// relocation proving zero committed-data loss. Writes
/// `BENCH_dedup.json`; fails on any gate violation.
pub fn run(smoke: bool, out_dir: &Path) -> CmdResult {
    use edc_datagen::{BlockClass, DataMix, DupStream};
    let stream_blocks: usize = if smoke { 1_200 } else { 10_000 };
    let samples: u32 = if smoke { 5 } else { 7 };
    let capacity = (stream_blocks as u64 * 4096 * 2).max(16 << 20);
    let theta = 0.99;
    let dial = 0.40;

    let mut h = Harness::new("dedup", samples);
    let mut failures = 0u64;
    h.metric("stream_blocks", stream_blocks as f64);
    h.metric("dup_dial", dial);
    h.metric("zipf_theta", theta);
    if smoke {
        h.note("smoke run: reduced workload; absolute numbers are not comparable to full runs");
    }

    // Text blocks for both mixes: compressible (so the codec work a dedup
    // hit elides is realistic) and practically collision-free (so the
    // duplicate-free control really is dedup-free and measures pure
    // hashing overhead).
    let make_stream = |frac: f64| {
        let mut s = DupStream::new(0xEDC_D0D0, DataMix::pure(BlockClass::Text), frac, theta);
        let blocks: Vec<Vec<u8>> = (0..stream_blocks).map(|_| s.block(4096)).collect();
        (blocks, s.achieved_dup_fraction())
    };
    let (dup40, achieved40) = make_stream(dial);
    let (dup0, achieved0) = make_stream(0.0);
    h.metric("dup40_achieved_fraction", achieved40);
    h.metric("dup0_achieved_fraction", achieved0);
    eprintln!(
        "# dedup bench: {stream_blocks} x 4 KiB blocks per arm, duplicate mix dialed \
         {dial} (achieved {achieved40:.3})"
    );

    // Scatter the logical placement with a multiplicative permutation:
    // contiguous offsets would be merged into multi-block runs by the
    // sequentiality detector, hiding the block-granular duplicates the
    // mix injects. (The multiplier is odd and prime, so it permutes
    // `0..stream_blocks` for any modulus.)
    let pos = |i: usize| (i as u64).wrapping_mul(2_654_435_761) % stream_blocks as u64;
    let total_bytes = stream_blocks as u64 * 4096;
    // Write one round of the stream into a pipeline, timed.
    fn drive_window(
        p: &mut EdcPipeline,
        window: &[Vec<u8>],
        base: usize,
        clock0: u64,
        pos: &impl Fn(usize) -> u64,
    ) -> u64 {
        let t0 = Instant::now();
        let mut clock = clock0;
        for (j, b) in window.iter().enumerate() {
            clock += 2_000_000;
            p.write(clock, pos(base + j) * 4096, b).expect("bench write");
        }
        t0.elapsed().as_nanos() as u64
    }
    // One paired sample: both arms advance through the stream
    // round-by-round, alternating who goes first, so scheduler and
    // frequency drift land on both arms alike — the throughput gates
    // compare the two arms at a few percent, far below the drift a
    // one-arm-then-the-other protocol shows on a busy machine.
    let time_pair = |blocks: &[Vec<u8>], flip: bool| -> (u64, u64, EdcPipeline, EdcPipeline) {
        let rounds = 16;
        let mut p_on = EdcPipeline::new(capacity, dedup_bench_config(true));
        let mut p_off = EdcPipeline::new(capacity, dedup_bench_config(false));
        let (mut t_on, mut t_off) = (0u64, 0u64);
        let mut clock = 0u64;
        let chunk = blocks.len().div_ceil(rounds);
        for (r, window) in blocks.chunks(chunk).enumerate() {
            let base = r * chunk;
            if (r % 2 == 0) ^ flip {
                t_on += drive_window(&mut p_on, window, base, clock, &pos);
                t_off += drive_window(&mut p_off, window, base, clock, &pos);
            } else {
                t_off += drive_window(&mut p_off, window, base, clock, &pos);
                t_on += drive_window(&mut p_on, window, base, clock, &pos);
            }
            clock += window.len() as u64 * 2_000_000;
        }
        let t0 = Instant::now();
        p_on.flush_all(clock + 2_000_000).expect("bench flush");
        t_on += t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        p_off.flush_all(clock + 2_000_000).expect("bench flush");
        t_off += t0.elapsed().as_nanos() as u64;
        (t_on, t_off, p_on, p_off)
    };
    let mut measured: Vec<(f64, PipelineStats)> = Vec::new();
    // Median of per-sample paired ratios (throughput on / throughput off):
    // each sample's two arms share the same machine moment, so the ratio
    // is drift-free even when absolute throughput swings between samples.
    let mut paired_ratios: Vec<f64> = Vec::new();
    for (mix, blocks) in [("dup40", &dup40), ("dup0", &dup0)] {
        std::hint::black_box(time_pair(blocks, false));
        let (mut on_ns, mut off_ns) = (Vec::new(), Vec::new());
        let mut last = None;
        for s in 0..samples {
            let (t_on, t_off, p_on, p_off) = time_pair(blocks, s % 2 == 1);
            on_ns.push(t_on);
            off_ns.push(t_off);
            last = Some((p_on, p_off));
        }
        let mut ratios: Vec<f64> =
            on_ns.iter().zip(&off_ns).map(|(&a, &b)| b as f64 / a as f64).collect();
        ratios.sort_by(f64::total_cmp);
        paired_ratios.push(ratios[ratios.len() / 2]);
        let (p_on, p_off) = last.expect("at least one sample");
        for (arm, samples_ns, mut p) in [("on", on_ns, p_on), ("off", off_ns, p_off)] {
            let name = format!("write/{mix}/{arm}");
            let case = h.record_case(&name, samples_ns, Some(total_bytes));
            // Gate on the *fastest* sample: the work is deterministic, so
            // min-of-N converges on the true cost while the median still
            // carries scheduler interference at these short run times.
            let mib_s = total_bytes as f64 / (1 << 20) as f64 / (case.min_ns as f64 * 1e-9);
            // Correctness, outside the timed region: every block reads
            // back bit-exact (offsets are never overwritten, so the
            // expected bytes are just the stream), and the refcount
            // ledger cross-checks.
            let now = stream_blocks as u64 * 2_000_000 + 4_000_000;
            let mut bad = 0u64;
            for (i, b) in blocks.iter().enumerate() {
                match p.read(now, pos(i) * 4096, 4096) {
                    Ok(got) if &got == b => {}
                    _ => bad += 1,
                }
            }
            if bad > 0 {
                eprintln!("# FAIL: {name}: {bad} block(s) did not read back bit-exact");
                failures += 1;
            }
            if let Err(e) = p.verify_dedup() {
                eprintln!("# FAIL: {name}: refcount ledger cross-check: {e:?}");
                failures += 1;
            }
            measured.push((mib_s, p.stats()));
        }
    }
    let (on40_mib_s, on40) = (measured[0].0, measured[0].1);
    let (off40_mib_s, off40) = (measured[1].0, measured[1].1);
    let (_, on0) = (measured[2].0, measured[2].1);
    let (ratio40, ratio0) = (paired_ratios[0], paired_ratios[1]);
    let mib = |b: u64| b as f64 / (1 << 20) as f64;

    h.metric("dup40_flash_mib_on", mib(on40.physical_written));
    h.metric("dup40_flash_mib_off", mib(off40.physical_written));
    h.metric("dup40_flash_saving_pct", {
        100.0 * (1.0 - on40.physical_written as f64 / off40.physical_written.max(1) as f64)
    });
    h.metric("dup40_dedup_hits", on40.dedup_hits as f64);
    h.metric("dup40_elided_mib", mib(on40.dedup_elided_bytes));
    h.metric("dup40_throughput_ratio_on_vs_off", ratio40);
    h.metric("dup0_dedup_hits", on0.dedup_hits as f64);
    h.metric("dup0_throughput_ratio_on_vs_off", ratio0);
    eprintln!(
        "# dup mix: {:.2} MiB programmed with dedup on vs {:.2} MiB off ({} hits, {:.2} MiB \
         elided), write {:.1} vs {:.1} MiB/s ({ratio40:.3}x paired)",
        mib(on40.physical_written),
        mib(off40.physical_written),
        on40.dedup_hits,
        mib(on40.dedup_elided_bytes),
        on40_mib_s,
        off40_mib_s
    );
    eprintln!(
        "# dup-free mix: dedup-on at {ratio0:.3}x the dedup-off write throughput, \
         {} stray hit(s)",
        on0.dedup_hits
    );

    // Gate 1: the whole point — the duplicate mix must program strictly
    // fewer flash bytes than the dedup-off control, by actually hitting.
    if on40.physical_written >= off40.physical_written {
        eprintln!("# FAIL: dedup did not program strictly fewer flash bytes on the dup mix");
        failures += 1;
    }
    if on40.dedup_hits == 0 {
        eprintln!("# FAIL: the dedup front-end never hit on a 40%-duplicate mix");
        failures += 1;
    }
    // Gate 2: hits elide compression and program work, so the dup mix
    // must also *write* at least as fast as the control.
    if ratio40 < 1.0 {
        eprintln!(
            "# FAIL: dup-mix write throughput fell below the dedup-off control \
             ({ratio40:.3}x paired)"
        );
        failures += 1;
    }
    // Gate 3: on duplicate-free data the chunker + content hash must stay
    // within the 5% hot-path overhead budget.
    if ratio0 < 0.95 {
        eprintln!(
            "# FAIL: hashing overhead on duplicate-free data exceeded the 5% budget \
             ({ratio0:.3}x paired)"
        );
        failures += 1;
    }

    // Gate 4: a power cut anywhere through the dedup-hit write path or
    // the shared-run relocation loses nothing committed.
    let sweep = dedup_power_cut_sweep(smoke);
    h.metric("power_cut_points", sweep.cut_points as f64);
    h.metric("power_cut_lost_blocks", sweep.lost as f64);
    h.metric("power_cut_payload_mismatches", sweep.payload_mismatches as f64);
    eprintln!(
        "# power-cut sweep: {} cut points across dedup writes + relocation, {} lost block(s), \
         {} payload mismatch(es)",
        sweep.cut_points, sweep.lost, sweep.payload_mismatches
    );
    if sweep.violations() > 0 {
        eprintln!("# FAIL: power-cut sweep across the dedup write path lost data");
        failures += sweep.violations();
    }

    h.finish(out_dir, failures)?;
    eprintln!(
        "# dedup bench passed: {:.1}% flash bytes saved on the dup mix at {ratio0:.3}x dup-free \
         overhead, zero committed-data loss across {} power cuts",
        100.0 * (1.0 - on40.physical_written as f64 / off40.physical_written.max(1) as f64),
        sweep.cut_points
    );
    Ok(())
}
