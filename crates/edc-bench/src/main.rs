//! `edc-bench` — regenerate the EDC paper's tables and figures.
//!
//! ```text
//! cargo run -p edc-bench --release -- all
//! cargo run -p edc-bench --release -- fig10 --quick
//! cargo run -p edc-bench --release -- fig12 --out results
//! ```
//!
//! Subcommands: `fig1 fig2 fig3 table1 table2 fig8 fig9 fig10 fig11 fig12
//! ablations bench-pipeline bench-concurrency bench-codecs bench-heat
//! bench-dedup check-bench fault-campaign fuzz scrub-campaign
//! rais-campaign replay record-golden all`. `--quick` shrinks trace
//! durations (and bench workloads) for smoke runs; `--smoke` does the
//! same for `bench-concurrency`, `bench-codecs`, `bench-heat`,
//! `bench-dedup`, `fault-campaign`, `fuzz`, `scrub-campaign` and
//! `rais-campaign`; `--out DIR` sets the output directory (default
//! `results/`); `check-bench --baseline DIR --fresh DIR` compares
//! committed `BENCH_*.json` baselines against a fresh run and fails on
//! any >10% throughput regression (and on any `gate0_*` metric that is
//! nonzero in the fresh run); `bench-codecs --prior FILE` records the
//! decode rows of an earlier `BENCH_codecs.json` (same host, the commit
//! compared against) beside the fresh ones as `prior_decompress_*` /
//! `speedup_decompress_*` metrics; `replay <log.edcrr>...` re-executes
//! recorded op logs and exits non-zero on any divergence;
//! `record-golden <path>` regenerates the committed golden fixture.

use edc_bench::env::{ExperimentEnv, Platform};
use edc_bench::experiments as ex;
use edc_bench::{Harness, Table};
use edc_core::error::EdcError;
use edc_core::pipeline::{BatchWrite, EdcPipeline, PipelineConfig, PipelineStats};
use edc_core::{
    ManualClock, Op, OpOutput, Recorder, Replayer, Ring, RingConfig, RingStats, SelectorConfig,
    ShardConfig, ShardedPipeline, StoreSpec, Ticket, TieredSeries,
};
use edc_flash::{
    FaultError, FaultPlan, IoKind, LossReason, RaisArray, RaisLevel, SsdConfig, SsdDevice,
};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Micro-benchmark of the batched multi-core write path against the
/// serial one, plus the decompressed-run read cache. Writes
/// `BENCH_pipeline.json` into the output directory.
///
/// The serial and batched pipelines receive the identical write sequence
/// and their device images are asserted bit-identical — the parallel
/// drain is a wall-clock optimization, never a semantic one.
fn bench_pipeline(quick: bool, out_dir: &Path) {
    const WORKERS: usize = 4;
    let runs: usize = if quick { 64 } else { 256 };
    let run_blocks: usize = 4; // 16 KiB per run
    let samples = if quick { 3 } else { 7 };

    // Compressible workload (Linux-source-like text) split into runs.
    // Timestamps 100 ms apart keep calculated IOPS in the strong-codec
    // band, where the compression fan-out matters most.
    let corpus = edc_datagen::corpus::linux_source_like(11, runs, run_blocks * 4096);
    let batch: Vec<BatchWrite<'_>> = corpus
        .blocks
        .iter()
        .enumerate()
        .map(|(i, data)| BatchWrite {
            now_ns: i as u64 * 100_000_000,
            // Stride leaves a gap between runs so none of them merge.
            offset: (i * (run_blocks + 1) * 4096) as u64,
            data,
        })
        .collect();
    let device_bytes = ((runs + 1) * (run_blocks + 1) * 4096) as u64;
    let end_ns = runs as u64 * 100_000_000;
    let make = |workers: usize| {
        EdcPipeline::new(device_bytes, PipelineConfig { workers, ..PipelineConfig::default() })
    };
    let total_bytes = corpus.total_bytes() as u64;

    let mut h = Harness::new("pipeline", samples);
    let serial_ns = h
        .run_prepared("flush_serial_1worker", Some(total_bytes), || make(1), |mut p| {
            for w in &batch {
                p.write(w.now_ns, w.offset, w.data).expect("write");
            }
            p.flush(end_ns).expect("flush");
            p
        })
        .median_ns;
    let batched_ns = h
        .run_prepared(
            &format!("flush_batched_{WORKERS}workers"),
            Some(total_bytes),
            || make(WORKERS),
            |mut p| {
                p.write_batch(&batch).expect("write_batch");
                p.flush_all(end_ns).expect("flush_all");
                p
            },
        )
        .median_ns;

    // Correctness gate: the batched multi-core store must be bit-identical
    // to the serial one.
    let mut serial = make(1);
    for w in &batch {
        serial.write(w.now_ns, w.offset, w.data).expect("write");
    }
    serial.flush(end_ns).expect("flush");
    let mut batched = make(WORKERS);
    batched.write_batch(&batch).expect("write_batch");
    batched.flush_all(end_ns).expect("flush_all");
    assert_eq!(
        serial.device_image(),
        batched.device_image(),
        "batched device image diverged from serial"
    );
    eprintln!("# bit-identical: serial and {WORKERS}-worker device images match");

    // Read path: repeated reads of every run, served from the run cache
    // after the first pass.
    h.run_prepared(
        "read_cached_two_passes",
        Some(2 * total_bytes),
        || {
            let mut p = make(WORKERS);
            p.write_batch(&batch).expect("write_batch");
            p.flush_all(end_ns).expect("flush_all");
            p
        },
        |mut p| {
            for pass in 0..2u64 {
                for w in &batch {
                    p.read(end_ns + pass + 1, w.offset, w.data.len() as u64).expect("read");
                }
            }
            p.stats().cache
        },
    );
    let mut probe = make(WORKERS);
    probe.write_batch(&batch).expect("write_batch");
    probe.flush_all(end_ns).expect("flush_all");
    for pass in 0..2u64 {
        for w in &batch {
            probe.read(end_ns + pass + 1, w.offset, w.data.len() as u64).expect("read");
        }
    }
    let cache = probe.stats().cache;

    let speedup = serial_ns as f64 / batched_ns as f64;
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    h.metric("speedup_batched_vs_serial", speedup);
    h.metric("workers", WORKERS as f64);
    h.metric("available_cpus", cpus as f64);
    h.metric("oversubscribed", f64::from(cpus < WORKERS));
    h.metric("runs", runs as f64);
    h.metric("bit_identical", 1.0);
    h.metric("read_cache_hit_rate", cache.hit_rate());
    h.metric("read_cache_hits", cache.hits as f64);
    // Annotate rather than silently report a sub-1 speedup: on a machine
    // with fewer CPUs than workers the fan-out *cannot* win, and the
    // number would otherwise read as a parallelism regression.
    if cpus < WORKERS {
        h.note(&format!(
            "only {cpus} CPU(s) available for {WORKERS} workers — \
             speedup_batched_vs_serial reflects oversubscription overhead, \
             not a parallel-drain regression"
        ));
    }

    print!("{}", h.render());
    let path = h.write_json(out_dir).expect("writing BENCH_pipeline.json");
    eprintln!("# wrote {}", path.display());
}

/// Simulated per-device-access service time for the concurrency bench:
/// 100 µs, the order of a NAND page program/read. Sleeps on different
/// shards overlap, which is exactly the effect the sharded front-end
/// exists to exploit — and it makes the bench meaningful even on a
/// single-CPU host, where pure-CPU overlap is impossible.
const CONC_DWELL_NS: u64 = 100_000;
/// Simulated-clock advance per operation: 500 µs/op ≈ 2000 calculated
/// IOPS, squarely in the selector's middle (Lzf) band regardless of the
/// client thread count, so every sweep point compresses the same way.
const CONC_CLOCK_STEP_NS: u64 = 500_000;
/// Extent size (blocks) used by the concurrency bench: small extents
/// stripe a thread's pool across every shard.
const CONC_EXTENT_BLOCKS: u64 = 4;
/// Extents per client thread; with stride-7 block selection each thread
/// touches all shard residues.
const CONC_EXTENTS_PER_THREAD: u64 = 8;

/// A compressible 4 KiB block unique to `(thread, block, version)`, so
/// every read in the mixed workload can assert the exact expected bytes.
fn conc_block(thread: usize, block: u64, version: u32) -> Vec<u8> {
    format!("edc concurrency bench t{thread} b{block} v{version} elastic compression payload ")
        .into_bytes()
        .into_iter()
        .cycle()
        .take(4096)
        .collect()
}

/// Outcome of one closed-loop mixed read/write run.
struct MixedRun {
    wall_ns: u64,
    ops: u64,
    p50_ns: u64,
    p99_ns: u64,
    hit_rate: f64,
    errors: u64,
}

impl MixedRun {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.wall_ns.max(1) as f64 * 1e-9)
    }
}

/// Drive `threads` closed-loop clients against a `shards`-way
/// [`ShardedPipeline`]: each thread owns a disjoint pool of
/// [`CONC_EXTENTS_PER_THREAD`] extents, pre-filled before timing, and
/// issues a 2:1 write/read mix with stride-7 block selection (no
/// sequential merging, so every write pays its device dwell inside the
/// loop). Every read is verified against the exact expected content, the
/// whole pool is re-verified after a final flush, and the aggregated
/// stats are cross-checked against the client-side byte counts.
fn conc_mixed_run(shards: usize, threads: usize, ops_per_thread: usize) -> MixedRun {
    let pool_blocks = CONC_EXTENTS_PER_THREAD * CONC_EXTENT_BLOCKS;
    let s = ShardedPipeline::new(
        64 << 20,
        ShardConfig {
            shards,
            extent_blocks: CONC_EXTENT_BLOCKS,
            pipeline: PipelineConfig {
                device_dwell_ns: CONC_DWELL_NS,
                ..PipelineConfig::default()
            },
        },
    );
    let clock = AtomicU64::new(0);
    let tick = |clock: &AtomicU64| clock.fetch_add(1, Ordering::Relaxed) * CONC_CLOCK_STEP_NS;

    // Fill every pool (untimed) so timed reads always have real data.
    for t in 0..threads {
        for local in 0..pool_blocks {
            let gb = t as u64 * pool_blocks + local;
            s.write(tick(&clock), gb * 4096, &conc_block(t, gb, 0)).expect("fill write");
        }
    }
    s.flush_all(tick(&clock)).expect("fill flush");
    let fill_bytes = threads as u64 * pool_blocks * 4096;

    let errors = AtomicU64::new(0);
    let written = AtomicU64::new(0);
    let t0 = Instant::now();
    let per_thread: Vec<(Vec<u64>, Vec<u32>)> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (s, clock, errors, written) = (&s, &clock, &errors, &written);
                sc.spawn(move || {
                    let mut versions = vec![0u32; pool_blocks as usize];
                    let mut lat = Vec::with_capacity(ops_per_thread);
                    for i in 0..ops_per_thread {
                        // Stride 7 (coprime to the pool) scatters
                        // consecutive ops so writes never merge into the
                        // previous run; the per-thread phase offset
                        // decorrelates which shard each client hits at a
                        // given instant (every pool spans the same eight
                        // extent residues, so unphased clients would
                        // convoy on one shard at a time).
                        let local = (i as u64 * 7 + t as u64 * 13) % pool_blocks;
                        let gb = t as u64 * pool_blocks + local;
                        let now_ns = tick(clock);
                        let op_t0 = Instant::now();
                        if i % 3 == 2 {
                            let got = s.read(now_ns, gb * 4096, 4096).expect("mixed read");
                            if got != conc_block(t, gb, versions[local as usize]) {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        } else {
                            let v = versions[local as usize] + 1;
                            s.write(now_ns, gb * 4096, &conc_block(t, gb, v))
                                .expect("mixed write");
                            versions[local as usize] = v;
                            written.fetch_add(4096, Ordering::Relaxed);
                        }
                        lat.push(op_t0.elapsed().as_nanos() as u64);
                    }
                    (lat, versions)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;

    // Post-run: flush, verify every block against its final version, and
    // check the aggregated stats add up to the client-side ledger.
    s.flush_all(tick(&clock)).expect("final flush");
    let mut errors = errors.load(Ordering::Relaxed);
    for (t, (_, versions)) in per_thread.iter().enumerate() {
        for (local, &v) in versions.iter().enumerate() {
            let gb = t as u64 * pool_blocks + local as u64;
            let got = s.read(tick(&clock), gb * 4096, 4096).expect("verify read");
            if got != conc_block(t, gb, v) {
                errors += 1;
            }
        }
    }
    let stats = s.stats();
    if stats.logical_written != fill_bytes + written.load(Ordering::Relaxed) {
        eprintln!(
            "# FAIL: aggregated logical_written {} != client ledger {}",
            stats.logical_written,
            fill_bytes + written.load(Ordering::Relaxed)
        );
        errors += 1;
    }

    let mut lat: Vec<u64> = per_thread.iter().flat_map(|(l, _)| l.iter().copied()).collect();
    lat.sort_unstable();
    MixedRun {
        wall_ns,
        ops: lat.len() as u64,
        p50_ns: lat[lat.len() / 2],
        p99_ns: lat[lat.len() * 99 / 100],
        hit_rate: stats.cache.hit_rate(),
        errors,
    }
}

/// The identical single-client workload driven through a bare
/// [`EdcPipeline`] — the serial baseline the 1-thread sharded figure is
/// gated against (within 10%).
fn conc_serial_run(ops: usize) -> MixedRun {
    let pool_blocks = CONC_EXTENTS_PER_THREAD * CONC_EXTENT_BLOCKS;
    let mut p = EdcPipeline::new(
        64 << 20,
        PipelineConfig { device_dwell_ns: CONC_DWELL_NS, ..PipelineConfig::default() },
    );
    let mut clock = 0u64;
    let mut tick = || {
        clock += 1;
        (clock - 1) * CONC_CLOCK_STEP_NS
    };
    for local in 0..pool_blocks {
        p.write(tick(), local * 4096, &conc_block(0, local, 0)).expect("fill write");
    }
    p.flush_all(tick()).expect("fill flush");
    let mut versions = vec![0u32; pool_blocks as usize];
    let mut errors = 0u64;
    let mut lat = Vec::with_capacity(ops);
    let t0 = Instant::now();
    for i in 0..ops {
        let local = (i as u64 * 7) % pool_blocks;
        let now_ns = tick();
        let op_t0 = Instant::now();
        if i % 3 == 2 {
            let got = p.read(now_ns, local * 4096, 4096).expect("serial read");
            if got != conc_block(0, local, versions[local as usize]) {
                errors += 1;
            }
        } else {
            let v = versions[local as usize] + 1;
            p.write(now_ns, local * 4096, &conc_block(0, local, v)).expect("serial write");
            versions[local as usize] = v;
        }
        lat.push(op_t0.elapsed().as_nanos() as u64);
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    lat.sort_unstable();
    MixedRun {
        wall_ns,
        ops: lat.len() as u64,
        p50_ns: lat[lat.len() / 2],
        p99_ns: lat[lat.len() * 99 / 100],
        hit_rate: p.stats().cache.hit_rate(),
        errors,
    }
}

/// Outcome of one ring QD run: the closed-loop results plus the ring's
/// own telemetry, harvested before the drainers shut down.
struct RingRun {
    run: MixedRun,
    occupancy: Vec<(u64, f64)>,
    latency_us: Vec<(u64, f64)>,
    stats: RingStats,
}

/// Drive `qd` closed-loop *slots* from `threads` submitter threads
/// through a [`Ring`] over an 8-shard store — the async analogue of
/// [`conc_mixed_run`], where queue depth rather than submitter count
/// sets the in-flight op count. Each slot owns a disjoint
/// 32-block pool and runs the same stride-7 2:1 write/read mix; every
/// read completion's checksum is verified against the exact expected
/// block, the pool is re-verified after shutdown, and the store's
/// aggregated stats are cross-checked against the client byte ledger.
fn conc_ring_run(qd: usize, threads: usize, ops_per_slot: usize) -> RingRun {
    const RING_SHARDS: usize = 8;
    type Inflight = VecDeque<(usize, Ticket, Option<u64>, Instant)>;
    let pool_blocks = CONC_EXTENTS_PER_THREAD * CONC_EXTENT_BLOCKS;
    assert_eq!(qd % threads, 0, "slots divide evenly across submitters");
    let slots_per_thread = qd / threads;
    let s = ShardedPipeline::new(
        256 << 20,
        ShardConfig {
            shards: RING_SHARDS,
            extent_blocks: CONC_EXTENT_BLOCKS,
            pipeline: PipelineConfig {
                device_dwell_ns: CONC_DWELL_NS,
                ..PipelineConfig::default()
            },
        },
    );
    let clock = AtomicU64::new(0);
    let tick = |clock: &AtomicU64| clock.fetch_add(1, Ordering::Relaxed) * CONC_CLOCK_STEP_NS;

    // Fill every slot's pool (untimed) so timed reads always verify.
    for slot in 0..qd {
        for local in 0..pool_blocks {
            let gb = slot as u64 * pool_blocks + local;
            s.write(tick(&clock), gb * 4096, &conc_block(slot, gb, 0)).expect("fill write");
        }
    }
    s.flush_all(tick(&clock)).expect("fill flush");
    let fill_bytes = qd as u64 * pool_blocks * 4096;

    let errors = AtomicU64::new(0);
    let written = AtomicU64::new(0);
    // Per-shard depth = qd: the closed loop caps total in-flight at qd,
    // so the ring never rejects even if every slot lands on one shard —
    // backpressure is exercised by the smoke/property tests, not here.
    let (wall_ns, per_thread, occupancy, latency_us, stats) =
        Ring::serve(&s, RingConfig { depth: qd, shards: RING_SHARDS }, |ring| {
            let t0 = Instant::now();
            let per_thread: Vec<(Vec<u64>, Vec<Vec<u32>>)> = std::thread::scope(|sc| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let (clock, errors, written) = (&clock, &errors, &written);
                        sc.spawn(move || {
                            let base_slot = t * slots_per_thread;
                            let mut versions =
                                vec![vec![0u32; pool_blocks as usize]; slots_per_thread];
                            let mut next_op = vec![0usize; slots_per_thread];
                            let mut inflight: Inflight = VecDeque::new();
                            let mut lat = Vec::with_capacity(slots_per_thread * ops_per_slot);
                            let submit = |sl: usize,
                                          next_op: &mut [usize],
                                          versions: &mut [Vec<u32>],
                                          inflight: &mut Inflight| {
                                let i = next_op[sl];
                                next_op[sl] = i + 1;
                                // Same stride-7 walk as the blocking
                                // clients, with the same per-actor phase
                                // offset (here per slot) so concurrent
                                // slots spread across shards instead of
                                // marching on one in lockstep.
                                let slot = base_slot + sl;
                                let local =
                                    ((i as u64 * 7 + slot as u64 * 13) % pool_blocks) as usize;
                                let gb = slot as u64 * pool_blocks + local as u64;
                                let now_ns = tick(clock);
                                let (ticket, expect) = if i % 3 == 2 {
                                    let want = edc_compress::checksum64(
                                        &conc_block(slot, gb, versions[sl][local]),
                                        4096,
                                    );
                                    let op = Op::Read { offset: gb * 4096, len: 4096 };
                                    (ring.submit(now_ns, op).expect("ring read"), Some(want))
                                } else {
                                    let v = versions[sl][local] + 1;
                                    versions[sl][local] = v;
                                    written.fetch_add(4096, Ordering::Relaxed);
                                    let op = Op::Write {
                                        offset: gb * 4096,
                                        data: conc_block(slot, gb, v),
                                    };
                                    (ring.submit(now_ns, op).expect("ring write"), None)
                                };
                                inflight.push_back((sl, ticket, expect, Instant::now()));
                            };
                            let check = |expect: Option<u64>, out: OpOutput| match (expect, out)
                            {
                                (Some(want), OpOutput::Read { len, checksum }) => {
                                    if len != 4096 || checksum != want {
                                        errors.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                (None, OpOutput::Writes(_)) => {}
                                (_, other) => {
                                    eprintln!("# ring op failed: {}", other.kind());
                                    errors.fetch_add(1, Ordering::Relaxed);
                                }
                            };
                            // Prime one op per slot, then keep every slot
                            // closed-loop: poll the whole window and
                            // resubmit whatever landed, in *completion*
                            // order; block on the oldest ticket only when
                            // a full sweep reaps nothing. Strict FIFO
                            // reaping would park every slot behind the
                            // busiest shard's oldest op and let the other
                            // shards run dry.
                            for sl in 0..slots_per_thread {
                                submit(sl, &mut next_op, &mut versions, &mut inflight);
                            }
                            while !inflight.is_empty() {
                                let mut reaped = 0usize;
                                let mut i = 0;
                                while i < inflight.len() {
                                    let ticket = inflight[i].1;
                                    match ring.poll(ticket).expect("in-flight ticket known") {
                                        Some(out) => {
                                            let (sl, _, expect, t_submit) =
                                                inflight.remove(i).expect("index in bounds");
                                            lat.push(t_submit.elapsed().as_nanos() as u64);
                                            check(expect, out);
                                            if next_op[sl] < ops_per_slot {
                                                submit(
                                                    sl,
                                                    &mut next_op,
                                                    &mut versions,
                                                    &mut inflight,
                                                );
                                            }
                                            reaped += 1;
                                        }
                                        None => i += 1,
                                    }
                                }
                                if reaped > 0 {
                                    continue;
                                }
                                let (sl, ticket, expect, t_submit) =
                                    inflight.pop_front().expect("loop guard");
                                let out = ring.wait(ticket).expect("ring completion");
                                lat.push(t_submit.elapsed().as_nanos() as u64);
                                check(expect, out);
                                if next_op[sl] < ops_per_slot {
                                    submit(sl, &mut next_op, &mut versions, &mut inflight);
                                }
                            }
                            (lat, versions)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("submitter thread")).collect()
            });
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let occ: Vec<(u64, f64)> =
                ring.occupancy_series().into_iter().map(|p| (p.t_ns, p.value)).collect();
            let lat_s: Vec<(u64, f64)> =
                ring.latency_series().into_iter().map(|p| (p.t_ns, p.value)).collect();
            (wall_ns, per_thread, occ, lat_s, ring.stats())
        });

    // Post-run: flush, verify every block against its final version, and
    // check the aggregated stats add up to the client-side ledger.
    s.flush_all(tick(&clock)).expect("final flush");
    let mut err_count = errors.load(Ordering::Relaxed);
    for (t, (_, vers)) in per_thread.iter().enumerate() {
        for (sl, slot_versions) in vers.iter().enumerate() {
            let slot = t * slots_per_thread + sl;
            for (local, &v) in slot_versions.iter().enumerate() {
                let gb = slot as u64 * pool_blocks + local as u64;
                let got = s.read(tick(&clock), gb * 4096, 4096).expect("verify read");
                if got != conc_block(slot, gb, v) {
                    err_count += 1;
                }
            }
        }
    }
    let pstats = s.stats();
    if pstats.logical_written != fill_bytes + written.load(Ordering::Relaxed) {
        eprintln!(
            "# FAIL: aggregated logical_written {} != client ledger {}",
            pstats.logical_written,
            fill_bytes + written.load(Ordering::Relaxed)
        );
        err_count += 1;
    }
    if stats.submitted != stats.completed {
        eprintln!(
            "# FAIL: ring submitted {} != completed {}",
            stats.submitted, stats.completed
        );
        err_count += 1;
    }

    let mut lat: Vec<u64> = per_thread.iter().flat_map(|(l, _)| l.iter().copied()).collect();
    lat.sort_unstable();
    RingRun {
        run: MixedRun {
            wall_ns,
            ops: lat.len() as u64,
            p50_ns: lat[lat.len() / 2],
            p99_ns: lat[lat.len() * 99 / 100],
            hit_rate: pstats.cache.hit_rate(),
            errors: err_count,
        },
        occupancy,
        latency_us,
        stats,
    }
}

/// Pull the recorded `flush_serial_1worker` throughput out of
/// `BENCH_pipeline.json` (hand-parsed; the harness writes one case per
/// line).
fn recorded_serial_flush_mib_s(path: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.contains("\"flush_serial_1worker\""))?;
    let key = "\"throughput_mib_s\": ";
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Closed-loop multi-threaded mixed read/write benchmark of the
/// [`ShardedPipeline`] front-end: a client-thread sweep (1/2/4/8 threads
/// against 8 shards), a shard-count sweep (1/2/4/8 shards under 8
/// threads), a [`Ring`] queue-depth sweep (QD 1/4/16/64/256 from at most
/// 4 submitter threads, with the ring's occupancy and completion-latency
/// series attached), per-op p50/p99 latency, cache hit ratio, and an
/// in-process serial [`EdcPipeline`] baseline. Writes
/// `BENCH_concurrency.json`; exits non-zero on any correctness
/// violation, on 1-thread throughput regressing the serial baseline by
/// more than 10%, on a sub-linear 8-thread speedup, on the ring at
/// QD >= 64 falling short of the 8-thread blocking figure (or QD=1
/// falling more than 10% behind 1-thread blocking), or on the 1-shard
/// front-end flush regressing the serial figure recorded in
/// `BENCH_pipeline.json`.
fn bench_concurrency(smoke: bool, out_dir: &Path) {
    let ops_per_thread: usize = if smoke { 252 } else { 2001 };
    let mut h = Harness::new("concurrency", 1);
    let mut failures = 0u64;
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    h.metric("available_cpus", cpus as f64);
    h.metric("ops_per_thread", ops_per_thread as f64);
    h.metric("device_dwell_us", CONC_DWELL_NS as f64 / 1e3);
    h.metric("clock_step_us", CONC_CLOCK_STEP_NS as f64 / 1e3);
    h.note(
        "device_dwell_ns models per-access media service time as a sleep, so shard \
         parallelism overlaps device time even on a single-CPU host; latencies and \
         throughput are dwell-dominated by design",
    );
    if smoke {
        h.note("smoke run: reduced op count; absolute numbers are not comparable to full runs");
    }

    // Serial baseline: the same single-client workload on a bare pipeline.
    let serial = conc_serial_run(ops_per_thread);
    failures += serial.errors;
    h.metric("serial_ops_per_s", serial.ops_per_s());
    h.metric("serial_p50_us", serial.p50_ns as f64 / 1e3);
    h.metric("serial_p99_us", serial.p99_ns as f64 / 1e3);
    eprintln!(
        "# serial EdcPipeline baseline: {:.0} ops/s (p50 {:.0} µs, p99 {:.0} µs)",
        serial.ops_per_s(),
        serial.p50_ns as f64 / 1e3,
        serial.p99_ns as f64 / 1e3
    );

    // Client-thread sweep at 8 shards.
    let mut t1_ops_s = 0.0;
    let mut t8_ops_s = 0.0;
    for threads in [1usize, 2, 4, 8] {
        let r = conc_mixed_run(8, threads, ops_per_thread);
        failures += r.errors;
        let ops_s = r.ops_per_s();
        if threads == 1 {
            t1_ops_s = ops_s;
        }
        if threads == 8 {
            t8_ops_s = ops_s;
        }
        h.metric(&format!("ops_per_s_t{threads}"), ops_s);
        h.metric(&format!("mib_s_t{threads}"), ops_s * 4096.0 / (1 << 20) as f64);
        h.metric(&format!("p50_us_t{threads}"), r.p50_ns as f64 / 1e3);
        h.metric(&format!("p99_us_t{threads}"), r.p99_ns as f64 / 1e3);
        h.metric(&format!("cache_hit_rate_t{threads}"), r.hit_rate);
        eprintln!(
            "# {threads} thread(s) x 8 shards: {ops_s:.0} ops/s (p50 {:.0} µs, p99 {:.0} µs, \
             cache hit {:.2}), {} verify error(s)",
            r.p50_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3,
            r.hit_rate,
            r.errors
        );
    }
    let speedup = t8_ops_s / t1_ops_s.max(1e-9);
    h.metric("speedup_t8_vs_t1", speedup);
    let vs_serial = t1_ops_s / serial.ops_per_s().max(1e-9);
    h.metric("sharded_t1_vs_serial", vs_serial);
    if vs_serial < 0.9 {
        eprintln!(
            "# FAIL: 1-thread sharded throughput is {vs_serial:.2}x the serial \
             EdcPipeline baseline (must stay within 10%)"
        );
        failures += 1;
    }
    // Dwell overlap makes the scaling CPU-independent; smoke runs get a
    // softer bar only because their op counts are small enough for warmup
    // noise to matter.
    let floor = if smoke { 1.5 } else { 2.0 };
    if speedup < floor {
        eprintln!("# FAIL: 8-thread speedup {speedup:.2}x below the {floor:.1}x floor");
        failures += 1;
    }

    // Shard-count sweep under a fixed 8-thread load: how much of the
    // scaling the partitioning itself buys.
    for shards in [1usize, 2, 4, 8] {
        let r = conc_mixed_run(shards, 8, ops_per_thread);
        failures += r.errors;
        h.metric(&format!("ops_per_s_shards{shards}_t8"), r.ops_per_s());
        eprintln!(
            "# 8 threads x {shards} shard(s): {:.0} ops/s, {} verify error(s)",
            r.ops_per_s(),
            r.errors
        );
    }

    // Ring QD sweep: at most 4 submitter threads drive 1/4/16/64/256
    // closed-loop slots through the async ring over the same 8-shard
    // store shape as the thread sweep. The point being demonstrated:
    // queue depth, not submitter thread count, saturates the device —
    // 4 threads at QD >= 64 must meet or beat the 8-thread blocking
    // figure, while QD=1 stays within 10% of 1-thread blocking (the
    // ring hand-off is noise next to the device dwell).
    let ring_total_target = 4 * ops_per_thread;
    let mut ring_qd1_ops_s = 0.0;
    let mut ring_sat_ops_s = 0.0f64;
    for qd in [1usize, 4, 16, 64, 256] {
        let threads = qd.min(4);
        let ops_per_slot = (ring_total_target / qd).max(16);
        let rr = conc_ring_run(qd, threads, ops_per_slot);
        failures += rr.run.errors;
        let ops_s = rr.run.ops_per_s();
        if qd == 1 {
            ring_qd1_ops_s = ops_s;
        }
        if qd >= 64 {
            ring_sat_ops_s = ring_sat_ops_s.max(ops_s);
        }
        h.record_case(
            &format!("ring_qd{qd}_t{threads}"),
            vec![rr.run.wall_ns.max(1)],
            Some(rr.run.ops * 4096),
        );
        h.metric(&format!("ring_ops_per_s_qd{qd}"), ops_s);
        h.metric(&format!("ring_p50_us_qd{qd}"), rr.run.p50_ns as f64 / 1e3);
        h.metric(&format!("ring_p99_us_qd{qd}"), rr.run.p99_ns as f64 / 1e3);
        eprintln!(
            "# ring qd {qd} x {threads} submitter(s): {ops_s:.0} ops/s (p50 {:.0} µs, p99 \
             {:.0} µs), {} batches (max {}), {} writes coalesced into {} groups, {} verify \
             error(s)",
            rr.run.p50_ns as f64 / 1e3,
            rr.run.p99_ns as f64 / 1e3,
            rr.stats.drained_batches,
            rr.stats.max_batch,
            rr.stats.coalesced_writes,
            rr.stats.coalesced_groups,
            rr.run.errors
        );
        if qd == 64 {
            // Queue-depth telemetry from the deep run: per-drain shard
            // occupancy and mean submit->completion latency, straight
            // from the ring's own tiered series.
            h.series("ring_occupancy", rr.occupancy);
            h.series("ring_completion_latency_us", rr.latency_us);
            h.metric("ring_qd64_drained_batches", rr.stats.drained_batches as f64);
            h.metric("ring_qd64_max_batch", rr.stats.max_batch as f64);
            h.metric("ring_qd64_coalesced_groups", rr.stats.coalesced_groups as f64);
            h.metric("ring_qd64_coalesced_writes", rr.stats.coalesced_writes as f64);
        }
    }
    let ring_saturation = ring_sat_ops_s / t8_ops_s.max(1e-9);
    h.metric("ring_saturation_vs_t8", ring_saturation);
    // Smoke runs get a softer bar: op counts are small enough that ring
    // spin-up and warmup noise are a visible fraction of the run.
    let sat_floor = if smoke { 0.8 } else { 1.0 };
    if ring_saturation < sat_floor {
        eprintln!(
            "# FAIL: ring at QD>=64 reaches {ring_saturation:.2}x of the 8-thread blocking \
             path (floor {sat_floor:.1}x) — 4 async submitters must saturate like 8 blocked \
             threads"
        );
        failures += 1;
    }
    let ring_qd1_vs_t1 = ring_qd1_ops_s / t1_ops_s.max(1e-9);
    h.metric("ring_qd1_vs_blocking_t1", ring_qd1_vs_t1);
    let qd1_floor = if smoke { 0.7 } else { 0.9 };
    if ring_qd1_vs_t1 < qd1_floor {
        eprintln!(
            "# FAIL: ring QD=1 throughput is {ring_qd1_vs_t1:.2}x the 1-thread blocking \
             path (floor {qd1_floor:.1}x) — the submit/complete hand-off must stay noise"
        );
        failures += 1;
    }

    // Front-end overhead tripwire: the bench-pipeline serial flush
    // workload pushed through a 1-shard sharded front-end must not
    // regress the figure recorded in BENCH_pipeline.json (the routing +
    // lock wrapper is supposed to be noise).
    let runs: usize = 64;
    let run_blocks: usize = 4;
    let corpus = edc_datagen::corpus::linux_source_like(11, runs, run_blocks * 4096);
    let batch: Vec<BatchWrite<'_>> = corpus
        .blocks
        .iter()
        .enumerate()
        .map(|(i, data)| BatchWrite {
            now_ns: i as u64 * 100_000_000,
            offset: (i * (run_blocks + 1) * 4096) as u64,
            data,
        })
        .collect();
    let device_bytes = ((runs + 1) * (run_blocks + 1) * 4096) as u64;
    let end_ns = runs as u64 * 100_000_000;
    let total_bytes = corpus.total_bytes() as u64;
    let mut fh = Harness::new("frontend", 3);
    let front = fh
        .run_prepared(
            "frontend_flush_1shard",
            Some(total_bytes),
            || {
                ShardedPipeline::new(
                    device_bytes,
                    ShardConfig {
                        shards: 1,
                        pipeline: PipelineConfig { workers: 1, ..PipelineConfig::default() },
                        ..ShardConfig::default()
                    },
                )
            },
            |s| {
                s.write_batch(&batch).expect("write_batch");
                s.flush_all(end_ns).expect("flush_all");
                s
            },
        )
        .throughput_mib_s()
        .unwrap_or(0.0);
    h.metric("frontend_flush_1shard_mib_s", front);
    match recorded_serial_flush_mib_s(&out_dir.join("BENCH_pipeline.json")) {
        Some(reference) => {
            let ratio = front / reference.max(1e-9);
            h.metric("recorded_serial_flush_mib_s", reference);
            h.metric("frontend_vs_recorded_serial", ratio);
            eprintln!(
                "# 1-shard front-end flush: {front:.1} MiB/s vs recorded serial \
                 {reference:.1} MiB/s ({ratio:.2}x)"
            );
            // 0.7 rather than 0.9: the recorded figure may come from a
            // different-sized run on a drifting shared machine; the gate
            // exists to catch the front-end getting structurally slow.
            if ratio < 0.7 {
                eprintln!("# FAIL: sharded front-end regresses the recorded serial flush");
                failures += 1;
            }
        }
        None => h.note(
            "BENCH_pipeline.json missing or without flush_serial_1worker throughput; \
             front-end regression tripwire skipped",
        ),
    }

    print!("{}", h.render());
    let path = h.write_json(out_dir).expect("writing BENCH_concurrency.json");
    eprintln!("# wrote {}", path.display());
    if failures > 0 {
        eprintln!("# concurrency bench FAILED with {failures} violation(s)");
        std::process::exit(1);
    }
    eprintln!(
        "# concurrency bench passed: {speedup:.2}x at 8 threads, 1-thread at \
         {vs_serial:.2}x of serial, zero verification errors"
    );
}

/// Per-codec throughput and ratio sweep: every codec in the elastic
/// ladder against every `edc-datagen` corpus class, compress and
/// decompress, with the frozen pre-refactor encoders
/// ([`edc_compress::baseline`]) timed by the same harness in the same run
/// as the hot-path speedup baseline. Writes `BENCH_codecs.json`.
fn bench_codecs(smoke: bool, out_dir: &Path, prior: Option<&Path>) {
    use edc_compress::{baseline, CodecId, CodecRegistry, CompressorState};
    use edc_datagen::{BlockClass, ContentGenerator};

    let samples = if smoke { 3 } else { 9 };
    let n_blocks: usize = if smoke { 4 } else { 64 };
    // The paper's flash-page unit and the selector's per-block granularity;
    // this is the size the write path hands each codec. Merged-run-sized
    // (16 KiB) throughput is measured separately in the baseline section.
    let block_len: usize = 4 * 1024;

    let mut h = Harness::new("codecs", samples);
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    h.metric("available_cpus", cpus as f64);
    h.metric("block_bytes", block_len as f64);
    h.metric("blocks_per_class", n_blocks as f64);
    if smoke {
        h.note("smoke run: reduced block count and samples; absolute numbers are not comparable to full runs");
    }

    for class in BlockClass::ALL {
        let mut gen = ContentGenerator::pure(0xEDC, class);
        let blocks: Vec<Vec<u8>> = (0..n_blocks).map(|_| gen.block_of(class, block_len)).collect();
        let total: u64 = blocks.iter().map(|b| b.len() as u64).sum();
        let cname = format!("{class:?}").to_lowercase();
        for id in CodecId::ALL_CODECS {
            let codec = CodecRegistry::get(id).expect("ladder codec");
            let label = id.name().to_lowercase();
            // Compress with a pooled state, as the pipeline's drain does.
            let mut state = CompressorState::new();
            let mut out = Vec::new();
            h.run_bytes(&format!("compress/{label}/{cname}"), total, || {
                for b in &blocks {
                    codec.compress_with(&mut state, b, &mut out);
                    std::hint::black_box(out.len());
                }
            });
            let streams: Vec<Vec<u8>> = blocks.iter().map(|b| codec.compress(b)).collect();
            let comp_total: u64 = streams.iter().map(|s| s.len() as u64).sum();
            h.metric(&format!("ratio_{label}_{cname}"), total as f64 / comp_total.max(1) as f64);
            let mut dec = Vec::new();
            h.run_bytes(&format!("decompress/{label}/{cname}"), total, || {
                for (s, b) in streams.iter().zip(&blocks) {
                    codec.decompress_into(s, b.len(), &mut dec).expect("round trip");
                    std::hint::black_box(dec.len());
                }
            });
        }
    }

    // The read path's unit: a cold read decodes one whole merged run, so
    // the ladder codecs are also timed on 64 KiB runs, where the per-call
    // setup the block-sized cases pay (Deflate's header and tables) is
    // amortized and the copy loops dominate.
    let run_len: usize = 64 * 1024;
    let n_runs = (n_blocks / 8).max(2);
    for class in [BlockClass::Text, BlockClass::Code, BlockClass::Binary] {
        let mut gen = ContentGenerator::pure(0xEDC, class);
        let runs: Vec<Vec<u8>> = (0..n_runs).map(|_| gen.block_of(class, run_len)).collect();
        let total: u64 = runs.iter().map(|r| r.len() as u64).sum();
        let cname = format!("{class:?}").to_lowercase();
        for id in [CodecId::Lzf, CodecId::Lz4, CodecId::Deflate] {
            let codec = CodecRegistry::get(id).expect("ladder codec");
            let streams: Vec<Vec<u8>> = runs.iter().map(|r| codec.compress(r)).collect();
            let mut dec = Vec::new();
            let label = id.name().to_lowercase();
            h.run_bytes(&format!("decompress_run64k/{label}/{cname}"), total, || {
                for (s, r) in streams.iter().zip(&runs) {
                    codec.decompress_into(s, r.len(), &mut dec).expect("round trip");
                    std::hint::black_box(dec.len());
                }
            });
        }
    }

    // Pre-refactor baseline, same harness, same run, same text corpus —
    // the honest denominator for the hot-path speedup claims. Bwt has no
    // frozen baseline (its hot path was not refactored). The refactored
    // encoder is re-timed here, back-to-back with its baseline, rather
    // than reusing the sweep's number from minutes earlier: on shared
    // machines throughput drifts over a run, and adjacency is what makes
    // the before/after pair comparable. Both the block-sized (4 KiB, the
    // write path's unit — where the eliminated per-call setup is a large
    // share of the work) and the merged-run-sized (16 KiB) pairs are
    // recorded; the speedup is size-dependent and both numbers are real.
    for (len, suffix) in [(block_len, ""), (16 * 1024, "_run16k")] {
        let mut gen = ContentGenerator::pure(0xEDC, BlockClass::Text);
        let blocks: Vec<Vec<u8>> = (0..n_blocks).map(|_| gen.block_of(BlockClass::Text, len)).collect();
        let total: u64 = blocks.iter().map(|b| b.len() as u64).sum();
        for id in [CodecId::Lzf, CodecId::Lz4, CodecId::Deflate] {
            let codec = CodecRegistry::get(id).expect("ladder codec");
            let label = id.name().to_lowercase();
            let pre = h
                .run_bytes(&format!("compress_prerefactor{suffix}/{label}/text"), total, || {
                    for b in &blocks {
                        std::hint::black_box(baseline::compress(id, b).len());
                    }
                })
                .throughput_mib_s()
                .unwrap_or(0.0);
            let mut state = CompressorState::new();
            let mut out = Vec::new();
            let live = h
                .run_bytes(&format!("compress_refactored{suffix}/{label}/text"), total, || {
                    for b in &blocks {
                        codec.compress_with(&mut state, b, &mut out);
                        std::hint::black_box(out.len());
                    }
                })
                .throughput_mib_s()
                .unwrap_or(0.0);
            h.metric(&format!("prerefactor_compress_mib_s_{label}{suffix}"), pre);
            h.metric(&format!("compress_mib_s_{label}{suffix}"), live);
            let speedup = if pre > 0.0 { live / pre } else { 0.0 };
            h.metric(&format!("compress_speedup_vs_prerefactor_{label}{suffix}"), speedup);
            eprintln!(
                "# {label}/{len}B: {pre:.1} -> {live:.1} MiB/s ({speedup:.2}x vs pre-refactor)"
            );
            if id == CodecId::Deflate && suffix.is_empty() && speedup < 2.0 {
                h.note(&format!(
                    "gzip hot-path speedup at the 4 KiB block size is {speedup:.2}x, short \
                     of the 2x goal on this machine/run: with the bit-identical-stream \
                     constraint the chain walk is unchanged algorithmically, so the gain \
                     comes from eliminated per-call setup, word-wide extension and emit \
                     batching only"
                ));
            }
        }
    }

    // Dedup content-hash primitive: the per-chunk fingerprint cost the
    // dedup front-end adds to every sealed run, at the 4 KiB block unit
    // and at a large merged-chunk size (64 KiB = 16 blocks, the chunker's
    // max). Reported in both MiB/s (harness unit) and GiB/s (metric).
    for (len, label) in [(4 * 1024usize, "4k"), (64 * 1024usize, "64k")] {
        let mut gen = ContentGenerator::pure(0xEDC, BlockClass::Text);
        let bufs: Vec<Vec<u8>> =
            (0..n_blocks).map(|_| gen.block_of(BlockClass::Text, len)).collect();
        let total: u64 = bufs.iter().map(|b| b.len() as u64).sum();
        let r = h.run_bytes(&format!("content_hash64/{label}"), total, || {
            for b in &bufs {
                std::hint::black_box(edc_core::content_hash64(b, 0xEDC0_DE0D));
            }
        });
        let gib_s = r.throughput_mib_s().unwrap_or(0.0) / 1024.0;
        h.metric(&format!("content_hash64_gib_s_{label}"), gib_s);
        eprintln!("# content_hash64/{label}: {gib_s:.2} GiB/s");
    }

    // Decode before/after: `--prior FILE` names the BENCH_codecs.json the
    // same command wrote on the same host at the commit being compared
    // against; its decode rows are recorded beside this run's.
    if let Some(prior) = prior {
        let text = std::fs::read_to_string(prior).expect("reading --prior BENCH_codecs.json");
        for (case, before) in parse_case_throughputs(&text) {
            if !case.starts_with("decompress") {
                continue;
            }
            let fresh = h.results().iter().find(|r| r.name == case);
            let Some(now) = fresh.and_then(|r| r.throughput_mib_s()) else { continue };
            let key = case.replace('/', "_");
            h.metric(&format!("prior_{key}_mib_s"), before);
            h.metric(&format!("speedup_{key}"), if before > 0.0 { now / before } else { 0.0 });
            eprintln!("# {case}: {before:.1} -> {now:.1} MiB/s ({:.2}x vs prior)", now / before);
        }
    }

    print!("{}", h.render());
    let path = h.write_json(out_dir).expect("writing BENCH_codecs.json");
    eprintln!("# wrote {}", path.display());
}

/// Blocks per run in the heat bench (16 KiB runs).
const HEAT_RUN_BLOCKS: u64 = 4;
/// Block slots between consecutive runs; the gap keeps the
/// sequentiality detector from merging neighbouring ranks and matches
/// the sharded front-end's extent size.
const HEAT_SLOT_BLOCKS: u64 = 8;
/// Simulated-clock step per op: 2 ms/op at 4 pages per op ≈ 2000
/// calculated IOPS — squarely in the paper ladder's middle (Lzf) band,
/// leaving the strongest rung as background-recompression headroom.
const HEAT_CLOCK_STEP_NS: u64 = 2_000_000;
/// Heat half-life used by the bench: one simulated second, so a round of
/// steady-state traffic is several half-lives and the untouched tail
/// genuinely cools.
const HEAT_HALF_LIFE_NS: u64 = 1_000_000_000;
/// Simulated idle window after the steady-state rounds: long enough for
/// the cold tail (and the mid-popularity middle) to decay below the cold
/// threshold while the hot head — orders of magnitude hotter — stays hot.
/// This is the idle bandwidth the background pass converts into space.
const HEAT_IDLE_GAP_NS: u64 = 3 * HEAT_HALF_LIFE_NS;

/// Compressible low-entropy payload unique to `(rank, version)`:
/// 4-symbol content that Lzf compresses modestly and Deflate much
/// better, so background recompression has headroom that survives the
/// quantized allocator.
fn heat_block(rank: u64, version: u64) -> Vec<u8> {
    let mut x = edc_datagen::rng::splitmix64(rank.wrapping_mul(1_000_003).wrapping_add(version)) | 1;
    (0..HEAT_RUN_BLOCKS * 4096)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            b"acgt"[((x >> 60) & 3) as usize]
        })
        .collect()
}

/// Device offset of a rank's run.
fn heat_offset(rank: u64) -> u64 {
    rank * HEAT_SLOT_BLOCKS * 4096
}

/// One steady-state op in the heat bench: `(rank, is_write)`.
type HeatOp = (u64, bool);

/// The heat bench's write-path config: the ladder is pinned to its
/// sustained-load rung (Lzf), which is what the elastic selector picks
/// under the bench's steady 2000-IOPS traffic — and the regime in which
/// recompression debt accumulates. The background pass upgrades whatever
/// of it goes cold to the strong codec; the control arm is the identical
/// write path with the pass never run (the "static ladder" outcome).
fn heat_pipeline_config() -> PipelineConfig {
    PipelineConfig {
        selector: edc_core::selector::SelectorConfig {
            rungs: vec![edc_core::LadderRung {
                max_calc_iops: f64::INFINITY,
                codec: edc_compress::CodecId::Lzf,
            }],
        },
        // Cache sized past the working set: hot reads must be hits in
        // BOTH arms, so the p99 gate isolates the cost of the background
        // pass rather than cache sizing.
        cache_runs: 512,
        heat: edc_core::HeatConfig {
            enabled: true,
            half_life_ns: HEAT_HALF_LIFE_NS,
            ..edc_core::HeatConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// Steady-state ops between telemetry samples in the heat bench. Coarse
/// enough that `stats()` (which locks every shard) stays off the hot
/// path, fine enough that a full run pushes a few hundred points through
/// the tiered ring.
const HEAT_SAMPLE_EVERY_OPS: usize = 50;

/// One driven arm of the heat bench, ready for latency measurement.
struct HeatArm {
    s: ShardedPipeline,
    versions: Vec<u64>,
    clock: u64,
    errors: u64,
    /// Live stored bytes over simulated time, tier-decimated so a soak
    /// run's full trajectory fits in O(log n) points.
    live_series: TieredSeries,
    /// Fleet-wide cache hit rate over simulated time, same decimation.
    hit_series: TieredSeries,
}

impl HeatArm {
    fn tick(&mut self) -> u64 {
        self.clock += HEAT_CLOCK_STEP_NS;
        self.clock
    }

    /// Push one telemetry sample at the current simulated time.
    fn sample_telemetry(&mut self) {
        let live = self.s.live_stored_bytes();
        let hit = self.s.stats().cache.hit_rate();
        self.live_series.push(self.clock, live as f64);
        self.hit_series.push(self.clock, hit);
    }

    /// Read one rank, verifying content; returns the wall-clock ns spent
    /// in the read call itself.
    fn timed_read(&mut self, rank: u64) -> u64 {
        let now = self.tick();
        let t0 = Instant::now();
        let got =
            self.s.read(now, heat_offset(rank), HEAT_RUN_BLOCKS * 4096).expect("measured read");
        let dt = t0.elapsed().as_nanos() as u64;
        if got != heat_block(rank, self.versions[rank as usize]) {
            self.errors += 1;
        }
        dt
    }
}

/// Drive one arm of the heat bench: fill every rank, replay the shared
/// steady-state schedule, recompressing after each round when
/// `recompress_target` is set. Both arms see byte-identical traffic —
/// the only difference is the background pass.
fn heat_drive(
    n_ranks: u64,
    schedule: &[Vec<HeatOp>],
    recompress_target: Option<edc_compress::CodecId>,
    budget_per_shard: usize,
) -> HeatArm {
    let s = ShardedPipeline::new(
        64 << 20,
        ShardConfig {
            shards: 4,
            extent_blocks: HEAT_SLOT_BLOCKS,
            pipeline: heat_pipeline_config(),
        },
    );
    let mut arm = HeatArm {
        s,
        versions: vec![0u64; n_ranks as usize],
        clock: 0,
        errors: 0,
        live_series: TieredSeries::new(32, 4),
        hit_series: TieredSeries::new(32, 4),
    };

    for rank in 0..n_ranks {
        let now = arm.tick();
        arm.s.write(now, heat_offset(rank), &heat_block(rank, 0)).expect("fill write");
    }
    let now = arm.tick();
    arm.s.flush_all(now).expect("fill flush");
    arm.sample_telemetry();

    let mut ops_since_sample = 0usize;
    for round in schedule {
        for &(rank, is_write) in round {
            let now = arm.tick();
            ops_since_sample += 1;
            if ops_since_sample >= HEAT_SAMPLE_EVERY_OPS {
                ops_since_sample = 0;
                arm.sample_telemetry();
            }
            if is_write {
                arm.versions[rank as usize] += 1;
                arm.s
                    .write(now, heat_offset(rank), &heat_block(rank, arm.versions[rank as usize]))
                    .expect("steady write");
            } else {
                let got = arm
                    .s
                    .read(now, heat_offset(rank), HEAT_RUN_BLOCKS * 4096)
                    .expect("steady read");
                if got != heat_block(rank, arm.versions[rank as usize]) {
                    arm.errors += 1;
                }
            }
        }
        let now = arm.tick();
        arm.s.flush_all(now).expect("round flush");
        if let Some(target) = recompress_target {
            let now = arm.tick();
            arm.s.recompress(now, target, budget_per_shard).expect("recompress pass");
        }
        arm.sample_telemetry();
    }

    // Idle window: traffic stops for several half-lives, then the
    // recompressing arm drains its backlog in budget-bounded passes —
    // the "turn idle bandwidth into space savings" half of the claim.
    arm.clock += HEAT_IDLE_GAP_NS;
    if let Some(target) = recompress_target {
        for _ in 0..16 {
            let now = arm.tick();
            let r = arm.s.recompress(now, target, budget_per_shard).expect("idle pass");
            arm.sample_telemetry();
            if r.recompressed == 0 && r.demoted == 0 {
                break;
            }
        }
    }
    arm
}

/// Fully verify an arm: every rank reads back its latest version and the
/// store audits clean. Returns the arm's accumulated error count.
fn heat_verify(arm: &mut HeatArm, n_ranks: u64) -> u64 {
    for rank in 0..n_ranks {
        let now = arm.tick();
        let got =
            arm.s.read(now, heat_offset(rank), HEAT_RUN_BLOCKS * 4096).expect("verify read");
        if got != heat_block(rank, arm.versions[rank as usize]) {
            arm.errors += 1;
        }
    }
    let audit = arm.s.verify().expect("verify audit");
    arm.errors += audit.unrecoverable;
    arm.errors
}

/// p99 of a sorted-in-place latency vector, ns.
fn p_ns(lat: &mut [u64], pct: usize) -> u64 {
    lat.sort_unstable();
    lat[lat.len() * pct / 100]
}

/// Power-cut sweep over a background recompression pass: learn the pass's
/// page-program count from a clean run, then cut at every program index,
/// recover, and verify every run reads back bit-exact. Returns
/// `(cut_points, lost_blocks, payload_mismatches)`.
fn heat_power_cut_sweep(smoke: bool) -> (u64, u64, u64) {
    use edc_compress::CodecId;
    let runs: u64 = if smoke { 6 } else { 16 };
    let mk = || EdcPipeline::new(8 << 20, heat_pipeline_config());
    let drive = |p: &mut EdcPipeline| {
        let mut clock = 0u64;
        for rank in 0..runs {
            clock += HEAT_CLOCK_STEP_NS;
            p.write(clock, heat_offset(rank), &heat_block(rank, 0)).expect("sweep write");
        }
        p.flush_all(clock + HEAT_CLOCK_STEP_NS).expect("sweep flush");
        // Everything cools far past the threshold before the pass runs.
        clock + 400 * HEAT_HALF_LIFE_NS
    };

    // Clean run: how many page programs does the pass itself issue?
    let mut clean = mk();
    let cold_at = drive(&mut clean);
    let before = clean.stats().programs;
    clean.recompress_pass(cold_at, CodecId::Deflate, usize::MAX).expect("clean pass");
    let pass_programs = clean.stats().programs - before;

    let (mut lost, mut mismatches) = (0u64, 0u64);
    for cut in 0..pass_programs {
        let mut p = mk();
        let cold_at = drive(&mut p);
        p.set_fault_plan(FaultPlan {
            power_cut_after_programs: Some(cut),
            ..FaultPlan::none()
        });
        // The cut aborts the pass mid-flight; that is the point.
        let _ = p.recompress_pass(cold_at, CodecId::Deflate, usize::MAX);
        let report = p.recover().expect("recovery after cut");
        mismatches += report.payload_mismatches;
        for rank in 0..runs {
            match p.read(1 << 40, heat_offset(rank), HEAT_RUN_BLOCKS * 4096) {
                Ok(got) if got == heat_block(rank, 0) => {}
                _ => lost += 1,
            }
        }
    }
    (pass_programs, lost, mismatches)
}

/// Heat-aware background recompression benchmark: a seeded Zipfian
/// steady-state workload driven through two byte-identical sharded
/// pipelines — one running `recompress` after every round, one never —
/// gated on the recompressing arm ending with a strictly smaller live
/// footprint AND hot-read p99 within 5% of the control, plus a power-cut
/// sweep across the pass proving zero journaled-run data loss. Writes
/// `BENCH_heat.json`; exits non-zero on any gate failure.
fn bench_heat(smoke: bool, out_dir: &Path) {
    use edc_datagen::{Rng64, Zipfian};
    let n_ranks: u64 = if smoke { 48 } else { 160 };
    let rounds: usize = if smoke { 3 } else { 8 };
    let ops_per_round: usize = if smoke { 400 } else { 1500 };
    let measure_reads: usize = if smoke { 600 } else { 2500 };
    let budget_per_shard: usize = 64;
    let theta = 0.99;

    let mut h = Harness::new("heat", 1);
    let mut failures = 0u64;
    h.metric("ranks", n_ranks as f64);
    h.metric("rounds", rounds as f64);
    h.metric("ops_per_round", ops_per_round as f64);
    h.metric("zipf_theta", theta);
    if smoke {
        h.note("smoke run: reduced workload; absolute numbers are not comparable to full runs");
    }

    // Shared schedule: both arms replay the identical op sequence, so the
    // only difference between them is the background pass.
    let zipf = Zipfian::new(n_ranks as usize, theta);
    let mut rng = Rng64::seed_from_u64(0xEDC_4EA7);
    let schedule: Vec<Vec<HeatOp>> = (0..rounds)
        .map(|_| {
            (0..ops_per_round)
                .map(|_| (zipf.sample(&mut rng) as u64, rng.chance(1.0 / 3.0)))
                .collect()
        })
        .collect();
    let measure: Vec<u64> =
        (0..measure_reads).map(|_| zipf.sample(&mut rng) as u64).collect();

    let target = SelectorConfig::default().strongest_codec();
    eprintln!(
        "# heat bench: {n_ranks} ranks x {rounds} rounds x {ops_per_round} ops, \
         recompression target {target:?}"
    );
    let mut heat = heat_drive(n_ranks, &schedule, Some(target), budget_per_shard);
    let mut control = heat_drive(n_ranks, &schedule, None, budget_per_shard);

    // Interleaved latency measurement: alternating the arms read-by-read
    // cancels machine drift (thermal, page cache) that a
    // one-arm-then-the-other protocol would attribute to whichever arm
    // ran second. One untimed warm-up pass each, then the timed reads.
    for &rank in &measure {
        heat.timed_read(rank);
        control.timed_read(rank);
    }
    let mut heat_lat = Vec::with_capacity(measure.len());
    let mut control_lat = Vec::with_capacity(measure.len());
    for (i, &rank) in measure.iter().enumerate() {
        // Swap which arm goes first every iteration: going first or
        // second in a pair has its own micro-cost, and it must not load
        // onto one arm systematically.
        if i % 2 == 0 {
            heat_lat.push(heat.timed_read(rank));
            control_lat.push(control.timed_read(rank));
        } else {
            control_lat.push(control.timed_read(rank));
            heat_lat.push(heat.timed_read(rank));
        }
    }
    let (heat_p50, heat_p99) = (p_ns(&mut heat_lat, 50), p_ns(&mut heat_lat, 99));
    let (control_p50, control_p99) = (p_ns(&mut control_lat, 50), p_ns(&mut control_lat, 99));

    let heat_errors = heat_verify(&mut heat, n_ranks);
    let control_errors = heat_verify(&mut control, n_ranks);
    failures += heat_errors + control_errors;
    if heat_errors + control_errors > 0 {
        eprintln!(
            "# FAIL: {heat_errors} heat-arm and {control_errors} control-arm verification \
             error(s)"
        );
    }

    let heat_live = heat.s.live_stored_bytes();
    let control_live = control.s.live_stored_bytes();
    let stats = heat.s.stats();
    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    let saving = 1.0 - heat_live as f64 / control_live.max(1) as f64;
    h.metric("heat_live_mib", mib(heat_live));
    h.metric("control_live_mib", mib(control_live));
    h.metric("space_saving_pct", saving * 100.0);
    h.metric("recompressed_runs", stats.recompressed_runs as f64);
    h.metric("demoted_runs", stats.demoted_runs as f64);
    h.metric("heat_read_p50_us", heat_p50 as f64 / 1e3);
    h.metric("heat_read_p99_us", heat_p99 as f64 / 1e3);
    h.metric("control_read_p50_us", control_p50 as f64 / 1e3);
    h.metric("control_read_p99_us", control_p99 as f64 / 1e3);
    let p99_ratio = heat_p99 as f64 / control_p99.max(1) as f64;
    h.metric("p99_ratio_heat_vs_control", p99_ratio);

    // Trajectory series: how each arm's live footprint (and the heat
    // arm's cache hit rate) moved over simulated time, tier-decimated by
    // `TieredSeries` so even a full soak run emits O(log n) points while
    // keeping the newest region at full resolution.
    let pts =
        |s: &TieredSeries| s.samples().into_iter().map(|p| (p.t_ns, p.value)).collect::<Vec<_>>();
    h.metric("telemetry_pushed", heat.live_series.pushed() as f64);
    h.metric("telemetry_retained", heat.live_series.len() as f64);
    h.metric("telemetry_tiers", heat.live_series.tier_count() as f64);
    h.series("heat_live_bytes", pts(&heat.live_series));
    h.series("control_live_bytes", pts(&control.live_series));
    h.series("heat_cache_hit_rate", pts(&heat.hit_series));
    eprintln!(
        "# space: heat {:.2} MiB vs control {:.2} MiB ({:.1}% saved, {} runs recompressed, \
         {} demoted)",
        mib(heat_live),
        mib(control_live),
        saving * 100.0,
        stats.recompressed_runs,
        stats.demoted_runs
    );
    eprintln!(
        "# read p99: heat {:.1} µs vs control {:.1} µs ({p99_ratio:.3}x)",
        heat_p99 as f64 / 1e3,
        control_p99 as f64 / 1e3
    );
    // Gate 1: the whole point — strictly better space than the static
    // ladder left alone.
    if heat_live >= control_live {
        eprintln!("# FAIL: recompressing arm did not end with a strictly smaller footprint");
        failures += 1;
    }
    if stats.recompressed_runs == 0 {
        eprintln!("# FAIL: the background pass never recompressed anything");
        failures += 1;
    }
    // Gate 2: hot reads must not pay for it (5% p99 budget).
    if p99_ratio > 1.05 {
        eprintln!("# FAIL: hot-read p99 regressed {p99_ratio:.3}x (budget 1.05x)");
        failures += 1;
    }

    // Timed pass over a fully cold store, for the throughput tripwire.
    let cold_runs: u64 = if smoke { 16 } else { 64 };
    h.run_prepared(
        "recompress_cold_store",
        Some(cold_runs * HEAT_RUN_BLOCKS * 4096),
        || {
            let mut p = EdcPipeline::new(64 << 20, heat_pipeline_config());
            let mut clock = 0u64;
            for rank in 0..cold_runs {
                clock += HEAT_CLOCK_STEP_NS;
                p.write(clock, heat_offset(rank), &heat_block(rank, 0)).expect("cold write");
            }
            p.flush_all(clock + HEAT_CLOCK_STEP_NS).expect("cold flush");
            (p, clock + 400 * HEAT_HALF_LIFE_NS)
        },
        |(mut p, now)| {
            let r = p.recompress_pass(now, target, usize::MAX).expect("timed pass");
            (r.recompressed, p)
        },
    );

    // Gate 3: a power cut anywhere inside the pass loses nothing.
    let (cut_points, lost, mismatches) = heat_power_cut_sweep(smoke);
    h.metric("power_cut_points", cut_points as f64);
    h.metric("power_cut_lost_blocks", lost as f64);
    h.metric("power_cut_payload_mismatches", mismatches as f64);
    eprintln!(
        "# power-cut sweep: {cut_points} cut points across the pass, {lost} lost block(s), \
         {mismatches} payload mismatch(es)"
    );
    if lost > 0 || mismatches > 0 {
        eprintln!("# FAIL: power-cut sweep across the recompression pass lost data");
        failures += 1;
    }

    print!("{}", h.render());
    let path = h.write_json(out_dir).expect("writing BENCH_heat.json");
    eprintln!("# wrote {}", path.display());
    if failures > 0 {
        eprintln!("# heat bench FAILED with {failures} violation(s)");
        std::process::exit(1);
    }
    eprintln!(
        "# heat bench passed: {:.1}% space saved at {p99_ratio:.3}x p99, zero data loss \
         across {cut_points} mid-pass power cuts",
        saving * 100.0
    );
}

/// Pipeline config for the dedup bench arms: everything at its default
/// except the dedup front-end toggle under test.
fn dedup_bench_config(dedup_on: bool) -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    cfg.dedup.enabled = dedup_on;
    cfg
}

/// Power-cut sweep across the dedup write path and a shared-run
/// relocation: learn the total page-program count from a clean run
/// (unique writes, then dedup-hit writes sharing the first run, then a
/// cooled recompression pass that relocates the shared run), cut at
/// every program index, recover, and check nothing committed is lost.
/// Within a drain runs commit in write order, so a zero-filled slot
/// *below* the highest committed slot is a loss, not an uncommitted
/// write. Returns `(cut_points, lost_blocks, payload_mismatches)`.
fn dedup_power_cut_sweep(smoke: bool) -> (u64, u64, u64) {
    use edc_compress::CodecId;
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
    // chunk shares unique 0's stored run(s).
    // ACGT noise, as in [`heat_block`]: Lzf finds no matches and keeps it
    // ~raw, Deflate's entropy coder quarters it — so the cooled pass has
    // whole pages to reclaim per run.
    let expect = |s: u64| -> Vec<u8> {
        let src = if s < uniques { s } else { 0 };
        let mut x = edc_datagen::rng::splitmix64(src.wrapping_mul(0x9E37_79B9).wrapping_add(7)) | 1;
        (0..run_blocks * 4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                b"acgt"[((x >> 60) & 3) as usize]
            })
            .collect()
    };
    let offset = |s: u64| if s < uniques { s * 8 * 4096 } else { (64 + (s - uniques) * 8) * 4096 };
    // Pin the write-path ladder to Lzf (as the heat bench does) so the
    // cooled Deflate pass has a tier to move the shared run up to.
    let mk = || {
        let mut cfg = heat_pipeline_config();
        cfg.dedup.enabled = true;
        EdcPipeline::new(8 << 20, cfg)
    };
    let drive = |p: &mut EdcPipeline| -> u64 {
        let mut clock = 0u64;
        for s in 0..slots {
            clock += step;
            // Cut runs abort mid-write; that is the point.
            let _ = p.write(clock, offset(s), &expect(s));
        }
        let _ = p.flush_all(clock + step);
        // Everything cools far past the threshold before the pass runs.
        clock + 400 * 1_000_000_000
    };

    // Clean run: how many page programs does the whole sequence issue,
    // and does it actually exercise a shared-run relocation?
    let mut clean = mk();
    let cold_at = drive(&mut clean);
    let pass = clean.recompress_pass(cold_at, CodecId::Deflate, usize::MAX).expect("clean pass");
    assert!(pass.recompressed > 0, "sweep must exercise a relocation: {pass:?}");
    let ledger = clean.verify_dedup().expect("clean ledger");
    assert!(ledger.shared_runs >= 1, "sweep must relocate a *shared* run: {ledger:?}");
    let total_programs = clean.stats().programs;

    let (mut lost, mut mismatches) = (0u64, 0u64);
    for cut in 0..total_programs {
        let mut p = mk();
        p.set_fault_plan(FaultPlan {
            power_cut_after_programs: Some(cut),
            ..FaultPlan::none()
        });
        let cold_at = drive(&mut p);
        let _ = p.recompress_pass(cold_at, CodecId::Deflate, usize::MAX);
        let report = p.recover().expect("recovery after cut");
        mismatches += report.payload_mismatches;
        p.verify_dedup().expect("refcount ledger cross-check after recovery");
        let now = cold_at + step;
        // Per 4 KiB block: 0 = reads back committed content, 1 = still
        // zero-filled (its chunk's commit never happened), 2 = torn or
        // unreadable. Chunks commit in write order, so committed blocks
        // form a prefix of the written sequence.
        let mut states = Vec::with_capacity((slots * run_blocks) as usize);
        for s in 0..slots {
            let want = expect(s);
            for k in 0..run_blocks {
                let lo = (k * 4096) as usize;
                states.push(match p.read(now, offset(s) + k * 4096, 4096) {
                    Ok(got) if got[..] == want[lo..lo + 4096] => 0u8,
                    Ok(got) if got.iter().all(|&b| b == 0) => 1,
                    _ => 2,
                });
            }
        }
        let last_committed = states.iter().rposition(|&st| st == 0);
        for (s, &st) in states.iter().enumerate() {
            let uncommitted_tail = st == 1 && Some(s) > last_committed;
            if st != 0 && !uncommitted_tail {
                lost += 1;
            }
        }
    }
    (total_programs, lost, mismatches)
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
/// `BENCH_dedup.json`; exits non-zero on any gate failure.
fn bench_dedup(smoke: bool, out_dir: &Path) {
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
        for (arm, samples_ns, mut p) in
            [("on", on_ns, p_on), ("off", off_ns, p_off)]
        {
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
    let (cut_points, lost, mismatches) = dedup_power_cut_sweep(smoke);
    h.metric("power_cut_points", cut_points as f64);
    h.metric("power_cut_lost_blocks", lost as f64);
    h.metric("power_cut_payload_mismatches", mismatches as f64);
    eprintln!(
        "# power-cut sweep: {cut_points} cut points across dedup writes + relocation, \
         {lost} lost block(s), {mismatches} payload mismatch(es)"
    );
    if lost > 0 || mismatches > 0 {
        eprintln!("# FAIL: power-cut sweep across the dedup write path lost data");
        failures += 1;
    }

    print!("{}", h.render());
    let path = h.write_json(out_dir).expect("writing BENCH_dedup.json");
    eprintln!("# wrote {}", path.display());
    if failures > 0 {
        eprintln!("# dedup bench FAILED with {failures} violation(s)");
        std::process::exit(1);
    }
    eprintln!(
        "# dedup bench passed: {:.1}% flash bytes saved on the dup mix at {ratio0:.3}x dup-free \
         overhead, zero committed-data loss across {cut_points} power cuts",
        100.0 * (1.0 - on40.physical_written as f64 / off40.physical_written.max(1) as f64),
    );
}

/// Extract `(case_name, throughput_mib_s)` pairs from a harness JSON
/// report (hand-parsed, one case per line — see [`Harness::to_json`]).
fn parse_case_throughputs(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name_at) = line.find("\"name\": \"") else { continue };
        let rest = &line[name_at + 9..];
        let Some(name_end) = rest.find('"') else { continue };
        let name = rest[..name_end].to_string();
        let key = "\"throughput_mib_s\": ";
        let Some(t_at) = line.find(key) else { continue };
        let rest = &line[t_at + key.len()..];
        let Some(end) = rest.find([',', '}']) else { continue };
        if let Ok(v) = rest[..end].trim().parse::<f64>() {
            out.push((name, v));
        }
    }
    out
}

/// Bench-regression tripwire: compare every `BENCH_*.json` in `baseline`
/// against its counterpart in `fresh`, failing (exit 1) when any case's
/// `throughput_mib_s` regressed by more than 10%. Cases present only in
/// the baseline (renamed or dropped) also fail — a silent drop is how a
/// tripwire goes blind.
fn check_bench(baseline: &Path, fresh: &Path) {
    let mut failures = 0u64;
    let mut compared = 0u64;
    let mut entries: Vec<PathBuf> = match std::fs::read_dir(baseline) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                    n.starts_with("BENCH_") && n.ends_with(".json")
                })
            })
            .collect(),
        Err(e) => {
            eprintln!("# check-bench: cannot read baseline dir {}: {e}", baseline.display());
            std::process::exit(2);
        }
    };
    entries.sort();
    if entries.is_empty() {
        eprintln!("# check-bench: no BENCH_*.json baselines in {}", baseline.display());
        std::process::exit(2);
    }
    for base_path in entries {
        let name = base_path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_string();
        let base_text = std::fs::read_to_string(&base_path).expect("reading baseline");
        let fresh_path = fresh.join(&name);
        let fresh_text = match std::fs::read_to_string(&fresh_path) {
            Ok(t) => t,
            Err(_) => {
                eprintln!("# FAIL: {name}: no fresh counterpart at {}", fresh_path.display());
                failures += 1;
                continue;
            }
        };
        let fresh_cases = parse_case_throughputs(&fresh_text);
        let base_cases = parse_case_throughputs(&base_text);
        // Gate metrics: campaigns encode pass/fail verdicts as `gate0_*`
        // counters. A committed baseline only ever records them at zero,
        // so the fresh run must (a) still carry every baseline gate and
        // (b) hold each of its own gates at exactly 0.0.
        let fresh_gates = parse_gate_metrics(&fresh_text);
        for (gate, _) in parse_gate_metrics(&base_text) {
            if !fresh_gates.iter().any(|(g, _)| *g == gate) {
                eprintln!("# FAIL: {name}: gate metric {gate:?} missing from fresh run");
                failures += 1;
            }
        }
        for (gate, value) in &fresh_gates {
            if *value == 0.0 {
                eprintln!("# ok: {name} {gate} = 0");
            } else {
                eprintln!("# FAIL: {name} {gate}: {value} (gate metrics must be exactly 0)");
                failures += 1;
            }
        }
        if base_cases.is_empty() {
            // Campaign outputs (faults, fuzz, scrub, ...) carry verdicts,
            // not throughput cases; with nothing measurable on either
            // side there is nothing to compare. But a baseline losing
            // all its cases while the fresh run still has them means the
            // baseline file was clobbered — fail that, don't skip it.
            if fresh_cases.is_empty() {
                eprintln!("# note: {name}: no measurable cases on either side");
            } else {
                eprintln!("# FAIL: {name}: baseline has no measurable cases but fresh run does");
                failures += 1;
            }
            continue;
        }
        for (case, base_mib_s) in base_cases {
            // Presence first: a committed baseline case must exist in the
            // fresh run even when its baseline throughput is zero —
            // skipping it silently is how a renamed/dropped case escapes
            // the tripwire.
            let Some((_, fresh_mib_s)) = fresh_cases.iter().find(|(c, _)| *c == case) else {
                eprintln!("# FAIL: {name}: case {case:?} missing from fresh run");
                failures += 1;
                continue;
            };
            if base_mib_s <= 0.0 {
                // Present but unmeasurable baseline: nothing to compare.
                continue;
            }
            compared += 1;
            let ratio = fresh_mib_s / base_mib_s;
            let verdict = if ratio < 0.9 {
                failures += 1;
                "FAIL"
            } else {
                "ok"
            };
            eprintln!(
                "# {verdict}: {name} {case}: {base_mib_s:.1} -> {fresh_mib_s:.1} MiB/s \
                 ({ratio:.2}x)"
            );
        }
    }
    if failures > 0 {
        eprintln!(
            "# check-bench FAILED: {failures} regression(s)/gap(s) over {compared} compared \
             case(s) (tolerance: >10% throughput drop)"
        );
        std::process::exit(1);
    }
    eprintln!("# check-bench passed: {compared} case(s), none regressed past 10%");
}

/// Extract `gate0_*` entries from the single-line `"metrics": {...}`
/// object campaign reports carry (hand-parsed like
/// [`parse_case_throughputs`]; the workspace has no serde).
fn parse_gate_metrics(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(at) = line.find("\"metrics\": {") else { continue };
        let body = &line[at + "\"metrics\": {".len()..];
        let body = &body[..body.rfind('}').unwrap_or(body.len())];
        for part in body.split(", ") {
            let Some((key, value)) = part.split_once(": ") else { continue };
            let key = key.trim().trim_matches('"');
            if !key.starts_with("gate0_") {
                continue;
            }
            if let Ok(value) = value.trim().parse::<f64>() {
                out.push((key.to_string(), value));
            }
        }
    }
    out
}

/// A compressible 4 KiB block with deterministic per-tag content.
fn campaign_text_block(tag: u64) -> Vec<u8> {
    format!("edc fault campaign block {tag} elastic compression payload ")
        .into_bytes()
        .into_iter()
        .cycle()
        .take(4096)
        .collect()
}

/// An incompressible 4 KiB block (xorshift noise).
fn campaign_noise_block(seed: u64) -> Vec<u8> {
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

/// One expected run in the fault campaign: `(offset, old_data, new_data)`.
type CampaignRun = (u64, Option<Vec<u8>>, Vec<u8>);

/// The campaign's pipeline workload: `runs` two-block runs (every fourth
/// incompressible), one overwrite at the end. Returns the expected final
/// contents as `(offset, old_data, new_data)` — `old_data` differs from
/// `new_data` only for the overwritten range, so crash verification can
/// accept either committed version.
fn campaign_drive(p: &mut EdcPipeline, runs: u64) -> Result<Vec<CampaignRun>, EdcError> {
    let mut expect: Vec<CampaignRun> = Vec::new();
    for i in 0..runs {
        let mut data = if i % 4 == 3 {
            campaign_noise_block(i * 977 + 13)
        } else {
            campaign_text_block(i)
        };
        data.extend(campaign_text_block(i + 1000));
        // Stride 3 leaves gaps so runs never merge with each other.
        let offset = (i * 3) * 4096;
        p.write(i, offset, &data)?;
        expect.push((offset, None, data));
    }
    p.flush_all(runs)?;
    // Overwrite the first run: crash verification must accept v1 or v2.
    let mut v2 = campaign_text_block(7777);
    v2.extend(campaign_text_block(8888));
    p.write(runs + 10, 0, &v2)?;
    p.flush_all(runs + 20)?;
    let old = std::mem::replace(&mut expect[0].2, v2);
    expect[0].1 = Some(old);
    Ok(expect)
}

/// Verify post-recovery contents block by block. Every block must read as
/// its expected data, its pre-overwrite data, or all zeroes (run never
/// committed) — anything else is data loss. Returns (verified, lost).
fn campaign_verify(
    p: &mut EdcPipeline,
    expect: &[CampaignRun],
) -> (u64, u64) {
    let zero = vec![0u8; 4096];
    let (mut verified, mut lost) = (0u64, 0u64);
    for (off, old, data) in expect {
        for b in 0..(data.len() / 4096) as u64 {
            let at = off + b * 4096;
            let got = match p.read(1 << 40, at, 4096) {
                Ok(g) => g,
                Err(_) => {
                    lost += 1;
                    continue;
                }
            };
            let lo = (b * 4096) as usize;
            let want = &data[lo..lo + 4096];
            let want_old = old.as_ref().map(|o| &o[lo..lo + 4096]);
            if got == want || got == zero || want_old.is_some_and(|w| got == w) {
                verified += 1;
            } else {
                lost += 1;
            }
        }
    }
    (verified, lost)
}

/// Fault-injection campaign: sweep a simulated power cut across every
/// page-program index of a pipeline workload (recovering and verifying
/// after each), then drive the raw SSD simulator through a fault-rate
/// matrix. Writes `BENCH_faults.json`; exits non-zero if any journaled
/// run loses data, or if any fault fires at zero fault rate.
fn fault_campaign(smoke: bool, out_dir: &Path) {
    let runs: u64 = if smoke { 10 } else { 48 };
    let samples = if smoke { 3 } else { 5 };
    let mk = || EdcPipeline::new(8 << 20, PipelineConfig::default());
    let mut h = Harness::new("faults", samples);
    let mut failures = 0u64;

    // Baseline: zero fault rate must mean zero faults and zero loss.
    let mut clean = mk();
    let expect = campaign_drive(&mut clean, runs).expect("clean run cannot fault");
    let total_programs = clean.stats().programs;
    let committed_runs = clean.stats().journal_records;
    let (clean_verified, clean_lost) = campaign_verify(&mut clean, &expect);
    let stats = clean.fault_stats();
    let clean_faults = stats.read_faults
        + stats.program_faults
        + stats.erase_faults
        + stats.rot_pages
        + stats.power_cuts;
    if clean_lost > 0 || clean_faults > 0 {
        eprintln!("# FAIL: zero fault rate produced loss={clean_lost} faults={clean_faults}");
        failures += 1;
    }
    eprintln!(
        "# clean run: {committed_runs} journaled runs, {total_programs} page programs, \
         {clean_verified} blocks verified"
    );

    // Power-cut sweep: cut at EVERY page-program index, recover, verify.
    let mut cuts = 0u64;
    let mut recover_failures = 0u64;
    let mut payload_mismatches = 0u64;
    let mut replayed_total = 0u64;
    let mut lost_total = 0u64;
    let mut verified_total = 0u64;
    let mut recovery_ns_sum = 0u128;
    let mut recovery_ns_max = 0u128;
    for cut in 0..total_programs {
        let mut p = mk();
        p.set_fault_plan(FaultPlan {
            power_cut_after_programs: Some(cut),
            ..FaultPlan::none()
        });
        match campaign_drive(&mut p, runs) {
            Err(EdcError::Write(edc_core::error::WriteError::PowerCut { .. })) => {}
            other => {
                eprintln!("# FAIL: cut {cut} did not surface as PowerCut ({other:?})");
                save_crash_artifact(&campaign_artifact(cut, runs), out_dir, &format!("fault_cut_{cut}.edcrr"));
                failures += 1;
                continue;
            }
        }
        let t0 = Instant::now();
        let report = match p.recover() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("# FAIL: recovery after cut {cut}: {e}");
                save_crash_artifact(&campaign_artifact(cut, runs), out_dir, &format!("fault_cut_{cut}.edcrr"));
                recover_failures += 1;
                failures += 1;
                continue;
            }
        };
        let dt = t0.elapsed().as_nanos();
        recovery_ns_sum += dt;
        recovery_ns_max = recovery_ns_max.max(dt);
        payload_mismatches += report.payload_mismatches;
        replayed_total += report.replayed_runs;
        let (v, l) = campaign_verify(&mut p, &expect);
        verified_total += v;
        lost_total += l;
        // A cut that lost data (or recovered mismatched payloads) becomes
        // a replayable `.edcrr` artifact: the same schedule re-driven
        // through a Recorder, so the failure is pinned as a golden log
        // that `edc-bench replay` re-executes bit-exactly.
        if l > 0 || report.payload_mismatches > 0 {
            save_crash_artifact(&campaign_artifact(cut, runs), out_dir, &format!("fault_cut_{cut}.edcrr"));
        }
        cuts += 1;
    }
    if lost_total > 0 || payload_mismatches > 0 {
        eprintln!(
            "# FAIL: power-cut sweep lost {lost_total} blocks, \
             {payload_mismatches} payload mismatches"
        );
        failures += 1;
    }
    eprintln!(
        "# power-cut sweep: {cuts} cut points, {replayed_total} runs replayed, \
         {verified_total} blocks verified, {lost_total} lost"
    );

    // Timed recovery at the midpoint cut (the representative case).
    let mid = total_programs / 2;
    h.run_prepared(
        "recover_after_midpoint_cut",
        None,
        || {
            let mut p = mk();
            p.set_fault_plan(FaultPlan {
                power_cut_after_programs: Some(mid),
                ..FaultPlan::none()
            });
            let _ = campaign_drive(&mut p, runs);
            p
        },
        |mut p| {
            let report = p.recover().expect("recovery");
            (report.replayed_runs, p)
        },
    );

    // Record/replay gate, on by default: the midpoint-cut schedule is
    // re-driven through a Recorder and the log replayed against a fresh
    // store, so the capture path is exercised on every campaign run —
    // not only on the runs where something already went wrong.
    let rec = campaign_artifact(mid, runs);
    h.metric("recorded_ops_midpoint_cut", rec.ops() as f64);
    h.metric("recorded_log_bytes_midpoint_cut", rec.bytes().len() as f64);
    match Replayer::replay(rec.bytes()) {
        Ok(report) if report.is_exact() => eprintln!(
            "# record/replay: midpoint-cut log ({} ops, {} bytes) replays bit-exactly",
            report.ops,
            rec.bytes().len()
        ),
        Ok(report) => {
            for d in &report.divergences {
                eprintln!("# FAIL: record/replay: {d}");
            }
            eprintln!("# FAIL: midpoint-cut record/replay diverged");
            failures += 1;
        }
        Err(e) => {
            eprintln!("# FAIL: midpoint-cut log does not parse: {e}");
            failures += 1;
        }
    }

    // Device-level matrix: transient/program/erase fault rates against the
    // raw SSD simulator, with a power cycle and an FTL integrity audit at
    // the end of every cell.
    let rates: &[f64] = if smoke { &[0.0, 0.01] } else { &[0.0, 0.001, 0.01, 0.05] };
    let ops: u64 = if smoke { 2_000 } else { 20_000 };
    for &rate in rates {
        let mut dev = SsdDevice::new(SsdConfig { logical_bytes: 64 << 20, ..SsdConfig::default() });
        dev.precondition(0.5);
        dev.set_fault_plan(FaultPlan {
            seed: 0xEDC + (rate * 1e6) as u64,
            read_error_rate: rate,
            program_error_rate: rate,
            erase_error_rate: rate / 2.0,
            ..FaultPlan::none()
        });
        let (mut read_errs, mut write_errs) = (0u64, 0u64);
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for i in 0..ops {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let offset = (x % (64 << 20)) & !4095;
            let kind = if i % 3 == 0 { IoKind::Read } else { IoKind::Write };
            match dev.try_submit(i * 20_000, kind, offset, 4096) {
                Ok(_) => {}
                Err(FaultError::ReadFault) => read_errs += 1,
                Err(FaultError::PowerCut { .. }) | Err(FaultError::PoweredOff) => {
                    dev.power_cycle();
                }
                Err(_) => write_errs += 1,
            }
        }
        if let Err(e) = dev.verify_integrity() {
            eprintln!("# FAIL: FTL integrity after rate {rate}: {e}");
            failures += 1;
        }
        // Power cycle and re-audit: volatile-state reset must not break
        // the FTL's mapping invariants either.
        dev.power_cycle();
        if let Err(e) = dev.verify_integrity() {
            eprintln!("# FAIL: FTL integrity after power cycle at rate {rate}: {e}");
            failures += 1;
        }
        let fs = dev.fault_stats();
        if rate == 0.0 && (read_errs + write_errs + fs.read_faults + fs.program_faults) > 0 {
            eprintln!("# FAIL: faults fired at zero rate");
            failures += 1;
        }
        let pct = (rate * 1e4) as u64; // basis points keep metric names stable
        h.metric(&format!("device_read_errors_bp{pct}"), read_errs as f64);
        h.metric(&format!("device_write_errors_bp{pct}"), write_errs as f64);
        h.metric(&format!("device_injected_read_faults_bp{pct}"), fs.read_faults as f64);
        h.metric(&format!("device_injected_program_faults_bp{pct}"), fs.program_faults as f64);
        h.metric(&format!("device_injected_erase_faults_bp{pct}"), fs.erase_faults as f64);
        h.metric(&format!("device_retired_blocks_bp{pct}"), dev.ftl_stats().retired_blocks as f64);
        eprintln!(
            "# device rate {rate}: injected {}/{}/{} read/program/erase faults, surfaced \
             {read_errs} read + {write_errs} write errors, {} retired blocks, integrity ok",
            fs.read_faults,
            fs.program_faults,
            fs.erase_faults,
            dev.ftl_stats().retired_blocks
        );
    }

    h.metric("cut_points", cuts as f64);
    h.metric("committed_runs_clean", committed_runs as f64);
    h.metric("page_programs_clean", total_programs as f64);
    h.metric("recovered_runs_total", replayed_total as f64);
    h.metric("recovered_cuts_pct", if total_programs == 0 { 100.0 } else {
        100.0 * (total_programs - recover_failures) as f64 / total_programs as f64
    });
    h.metric("data_loss_blocks", lost_total as f64);
    h.metric("data_loss_pct", if verified_total + lost_total == 0 { 0.0 } else {
        100.0 * lost_total as f64 / (verified_total + lost_total) as f64
    });
    h.metric("payload_mismatches", payload_mismatches as f64);
    h.metric("recovery_ns_mean", if cuts == 0 { 0.0 } else {
        (recovery_ns_sum / u128::from(cuts)) as f64
    });
    h.metric("recovery_ns_max", recovery_ns_max as f64);

    print!("{}", h.render());
    let path = h.write_json(out_dir).expect("writing BENCH_faults.json");
    eprintln!("# wrote {}", path.display());
    if failures > 0 {
        eprintln!("# fault campaign FAILED with {failures} violation(s)");
        std::process::exit(1);
    }
    eprintln!("# fault campaign passed: zero data loss across {cuts} power-cut points");
}

/// Structure-aware decoder fuzzing campaign: ≥100k seeded mutations of
/// valid codec/frame streams (5k under `--smoke`) driven through every
/// decoder behind a panic oracle. Writes `BENCH_fuzz.json`; exits
/// non-zero — printing each minimized crasher as pasteable Rust — if any
/// decode panics, overruns the expected length, or silently returns the
/// wrong size.
fn fuzz_cmd(smoke: bool, out_dir: &Path) {
    let total: u64 = if smoke { 5_000 } else { 120_000 };
    const SEED: u64 = 0xEDC_F002;
    eprintln!("# fuzz: {total} inputs, seed {SEED:#x}");
    let t0 = Instant::now();
    let report = edc_bench::fuzz::run_campaign(total, SEED);
    let elapsed = t0.elapsed().as_secs_f64();

    let mut h = Harness::new("fuzz", 1);
    h.metric("inputs", report.inputs as f64);
    h.metric("rejected", report.rejected as f64);
    h.metric("accepted", report.accepted as f64);
    h.metric("crashes", report.crashes.len() as f64);
    h.metric("inputs_per_sec", report.inputs as f64 / elapsed.max(1e-9));
    h.note(&format!("seed {SEED:#x}; every decode ran behind a panic/overrun oracle"));
    print!("{}", h.render());
    let path = h.write_json(out_dir).expect("writing BENCH_fuzz.json");
    eprintln!("# wrote {}", path.display());
    eprintln!(
        "# fuzz: {} inputs in {elapsed:.1}s — {} rejected, {} accepted, {} crash(es)",
        report.inputs,
        report.rejected,
        report.accepted,
        report.crashes.len()
    );
    if !report.passed() {
        let dir = out_dir.join("crashers");
        let _ = std::fs::create_dir_all(&dir);
        for (i, c) in report.crashes.iter().enumerate() {
            eprintln!("{}", edc_bench::fuzz::render_crash(c));
            // Persist the minimized stream too, so the crasher survives
            // scrollback and can be re-fed to the decoders directly.
            let p = dir.join(format!("fuzz_{i}.bin"));
            match std::fs::write(&p, &c.input) {
                Ok(()) => eprintln!("# crash input saved: {}", p.display()),
                Err(e) => eprintln!("# warn: cannot save {}: {e}", p.display()),
            }
        }
        eprintln!("# fuzz campaign FAILED: add the minimized streams above as regressions");
        std::process::exit(1);
    }
    eprintln!("# fuzz campaign passed: zero panics, overruns or wrong-length decodes");
}

/// Scrub/read-repair campaign: drive a parity-enabled pipeline workload,
/// arm per-access bit rot at a sweep of rates (each access rots at most
/// one bit of one page — the single-page-per-run model parity is built
/// for), scrub, and verify every block. Writes `BENCH_scrub.json`; exits
/// non-zero on any unrepaired loss.
fn scrub_campaign(smoke: bool, out_dir: &Path) {
    let runs: u64 = if smoke { 10 } else { 48 };
    let samples = if smoke { 3 } else { 5 };
    let rates: &[f64] = if smoke { &[0.0, 1.0] } else { &[0.0, 0.05, 0.25, 1.0] };
    let mk = || {
        EdcPipeline::new(8 << 20, PipelineConfig { parity: true, ..PipelineConfig::default() })
    };
    let mut h = Harness::new("scrub", samples);
    let mut failures = 0u64;

    for &rate in rates {
        let mut p = mk();
        let expect = campaign_drive(&mut p, runs).expect("clean drive cannot fault");
        p.set_fault_plan(FaultPlan {
            seed: 0xEDC4 + (rate * 100.0) as u64,
            bit_rot_rate: rate,
            ..FaultPlan::none()
        });
        let report = match p.scrub() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("# FAIL: scrub at rot rate {rate}: {e}");
                failures += 1;
                continue;
            }
        };
        // Disarm injection; verification reads must see healed data.
        p.set_fault_plan(FaultPlan::none());
        let (verified, lost) = campaign_verify(&mut p, &expect);
        let second = p.scrub().expect("quiescent scrub");
        if report.unrecoverable > 0 || lost > 0 {
            eprintln!(
                "# FAIL: rot rate {rate}: {} unrecoverable run(s), {lost} lost block(s)",
                report.unrecoverable
            );
            failures += 1;
        }
        if rate == 0.0 && report.repaired > 0 {
            eprintln!("# FAIL: zero rot rate repaired {} run(s)", report.repaired);
            failures += 1;
        }
        if second.clean != second.scanned {
            eprintln!("# FAIL: rot rate {rate}: second scrub pass not clean ({second:?})");
            failures += 1;
        }
        let pct = (rate * 100.0) as u64;
        h.metric(&format!("scanned_rot{pct}"), report.scanned as f64);
        h.metric(&format!("repaired_rot{pct}"), report.repaired as f64);
        h.metric(&format!("unrecoverable_rot{pct}"), report.unrecoverable as f64);
        h.metric(&format!("verified_blocks_rot{pct}"), verified as f64);
        h.metric(&format!("lost_blocks_rot{pct}"), lost as f64);
        eprintln!(
            "# rot rate {rate}: scanned {} clean {} repaired {} unrecoverable {} — \
             {verified} blocks verified, {lost} lost",
            report.scanned, report.clean, report.repaired, report.unrecoverable
        );
    }

    // Control: the same full-rot pass WITHOUT parity cannot self-heal —
    // the runs scrub unrecoverable. Demonstrates the parity page is what
    // buys the repair, not the scrub walk itself.
    let mut bare = EdcPipeline::new(8 << 20, PipelineConfig::default());
    let expect = campaign_drive(&mut bare, runs).expect("clean drive cannot fault");
    bare.set_fault_plan(FaultPlan { seed: 0xEDC5, bit_rot_rate: 1.0, ..FaultPlan::none() });
    let control = bare.scrub().expect("scrub without parity");
    bare.set_fault_plan(FaultPlan::none());
    let (_, control_lost) = campaign_verify(&mut bare, &expect);
    if control.unrecoverable == 0 {
        eprintln!("# FAIL: parity-less control healed itself — campaign proves nothing");
        failures += 1;
    }
    h.metric("control_noparity_unrecoverable", control.unrecoverable as f64);
    h.metric("control_noparity_lost_blocks", control_lost as f64);
    eprintln!(
        "# control (no parity, full rot): {} unrecoverable, {control_lost} lost block(s)",
        control.unrecoverable
    );

    // Timed scrub of a fully rotted store (every run needs a repair).
    h.run_prepared(
        "scrub_repair_full_rot",
        None,
        || {
            let mut p = mk();
            campaign_drive(&mut p, runs).expect("clean drive cannot fault");
            p.set_fault_plan(FaultPlan { seed: 0xEDC6, bit_rot_rate: 1.0, ..FaultPlan::none() });
            p
        },
        |mut p| {
            let report = p.scrub().expect("scrub");
            (report.repaired, p)
        },
    );

    print!("{}", h.render());
    let path = h.write_json(out_dir).expect("writing BENCH_scrub.json");
    eprintln!("# wrote {}", path.display());
    if failures > 0 {
        eprintln!("# scrub campaign FAILED with {failures} violation(s)");
        std::process::exit(1);
    }
    eprintln!("# scrub campaign passed: zero unrepaired loss at single-page-per-run rot");
}

/// Raw chunk content for the RAIS campaign: compressible text for most
/// `(row, pos)` slots, xorshift noise for every fourth, distinguished by
/// overwrite generation `generation`.
fn rais_chunk_content(chunk: usize, row: u64, pos: usize, generation: u64) -> Vec<u8> {
    let tag = row * 131 + pos as u64 * 17 + generation * 10_007;
    let mut out = Vec::with_capacity(chunk);
    while out.len() < chunk {
        if (row + pos as u64) % 4 == 3 {
            out.extend(campaign_noise_block(tag * 977 + 13));
        } else {
            out.extend(campaign_text_block(tag));
        }
    }
    out.truncate(chunk);
    out
}

/// What the RAIS campaign actually stores for `raw`: the Lzf stream when
/// it wins, the raw bytes when it doesn't (the pipeline's write-through
/// rule, so stored legs have genuinely variable compressed lengths).
fn rais_stored_form(raw: &[u8]) -> Vec<u8> {
    let lzf = edc_compress::codec_by_id(edc_compress::CodecId::Lzf).expect("lzf codec");
    let compressed = lzf.compress(raw);
    if compressed.len() < raw.len() {
        compressed
    } else {
        raw.to_vec()
    }
}

/// RAIS failure campaign (the elastic-RAIS tentpole gate): sweep
/// member-kill timing × bit-rot rate across RAIS0 (striping control) and
/// RAIS5 (compressed parity), checking that
///
/// 1. the RAIS5 sweep ends with **zero unrepaired loss** — every chunk
///    reads back bit-identical through rot repair, degraded service, and
///    online rebuild, and a sample of reconstructed legs round-trips
///    through the real Lzf decoder;
/// 2. RAIS0 loses data **loudly** — killed or rotted legs surface as
///    typed `Unrecoverable` errors, never silent garbage (and the control
///    must actually lose legs, or the sweep proves nothing);
/// 3. compressed parity writes strictly fewer device bytes than the
///    one-full-chunk-per-update control a compression-blind array pays;
/// 4. the paper's single-SSD trend (Fig. 11: compressed legs finish
///    device service faster than write-through legs) still holds on an
///    array that has been killed and rebuilt.
///
/// Gate outcomes are written as `gate0_*` metrics (must be exactly 0 in
/// a passing run — `check-bench` re-verifies committed baselines stay
/// that way). Writes `BENCH_rais.json`; exits non-zero on any gate
/// failure.
fn rais_campaign(smoke: bool, out_dir: &Path) {
    const MEMBERS: usize = 5;
    const CHUNK: u64 = 64 * 1024;
    let member_cfg = SsdConfig {
        logical_bytes: 4 << 20, // 64 rows per member
        overprovision: 0.25,
        sectors_per_block: 64,
        gc_low_watermark: 3,
        ..SsdConfig::default()
    };
    let rows_written: u64 = if smoke { 12 } else { 48 };
    let kill_fracs: &[f64] = if smoke { &[0.5] } else { &[0.25, 0.5, 0.75] };
    // Per-fetch corruption probabilities, armed on ONE member at a time
    // (`set_member_fault_plan`). That keeps the sweep in the survivable
    // single-failure-per-row regime by construction — array-wide rot can
    // corrupt two legs of one row between repairs, which is a genuine
    // double fault (the URE-during-rebuild scenario) and rightly
    // unrepairable, so the zero-loss gate would then depend on seed luck
    // instead of the redundancy argument.
    let rot_rates: &[f64] = if smoke { &[0.0, 0.5] } else { &[0.0, 0.2, 0.5] };
    let samples = if smoke { 3 } else { 5 };

    let mut h = Harness::new("rais", samples);
    let mut failures = 0u64;

    // Fill rows `[0, rows)` of `a` and record (raw, stored) per slot.
    let fill = |a: &mut RaisArray, rows: u64, now: &mut u64| -> Vec<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut expect = Vec::new();
        for row in 0..rows {
            let legs: Vec<(Vec<u8>, Vec<u8>)> = (0..a.data_width())
                .map(|pos| {
                    let raw = rais_chunk_content(CHUNK as usize, row, pos, 0);
                    let stored = rais_stored_form(&raw);
                    (raw, stored)
                })
                .collect();
            let refs: Vec<&[u8]> = legs.iter().map(|(_, s)| s.as_slice()).collect();
            *now += 1_000_000;
            a.write_row(*now, row, &refs).expect("foreground write_row");
            expect.push(legs);
        }
        expect
    };

    // ---- RAIS5: the zero-loss sweep -------------------------------------
    let mut unrepaired = 0u64;
    let mut mismatches = 0u64;
    let mut degraded_reads = 0u64;
    let mut rot_repaired = 0u64;
    let mut rebuilt_chunks = 0u64;
    let mut decoded_samples = 0u64;
    let mut parity_written = 0u64;
    let mut parity_control = 0u64;
    let mut virtual_over_exported = 0.0f64;
    let mut scenario_idx = 0u64;

    for &kill_frac in kill_fracs {
        for &rot in rot_rates {
            let idx = scenario_idx;
            scenario_idx += 1;
            let mut a = RaisArray::new(RaisLevel::Rais5, MEMBERS, member_cfg, CHUNK)
                .expect("campaign RAIS5 shape is valid");
            let mut now = 0u64;
            let dw = a.data_width();
            let kill_at = ((rows_written as f64 * kill_frac) as u64).clamp(1, rows_written - 1);

            // Healthy foreground writes up to the kill point.
            let mut expect = fill(&mut a, kill_at, &mut now);

            // Rot soak on the healthy prefix: arm sticky bit rot on one
            // member (a different one than the upcoming kill victim),
            // scrub (detect + repair from the row), disarm, then scrub
            // again — the quiescent pass must come back fully repaired.
            if rot > 0.0 {
                let rot_member = (idx as usize + 1) % MEMBERS;
                a.set_member_fault_plan(
                    rot_member,
                    FaultPlan { seed: 0xEDC_A150 + idx, bit_rot_rate: rot, ..FaultPlan::none() },
                )
                .expect("arm rot member");
                now += 1_000_000;
                let first = a.scrub(now).expect("rot scrub");
                a.set_member_fault_plan(rot_member, FaultPlan::none()).expect("disarm rot");
                now += 1_000_000;
                let second = a.scrub(now).expect("quiescent scrub");
                rot_repaired += first.repaired + second.repaired;
                unrepaired += second.unrepaired;
                if second.unrepaired > 0 {
                    eprintln!(
                        "# FAIL: scenario {idx} (kill@{kill_frac}, rot {rot}): \
                         {} leg(s) unrepaired after quiescent scrub",
                        second.unrepaired
                    );
                    failures += 1;
                }
            }

            // Kill one member; remaining foreground writes land degraded
            // (the victim's legs become parity-backed phantoms).
            let victim = idx as usize % MEMBERS;
            a.kill_member(victim).expect("kill victim");
            for row in kill_at..rows_written {
                let legs: Vec<(Vec<u8>, Vec<u8>)> = (0..dw)
                    .map(|pos| {
                        let raw = rais_chunk_content(CHUNK as usize, row, pos, 0);
                        let stored = rais_stored_form(&raw);
                        (raw, stored)
                    })
                    .collect();
                let refs: Vec<&[u8]> = legs.iter().map(|(_, s)| s.as_slice()).collect();
                now += 1_000_000;
                a.write_row(now, row, &refs).expect("degraded write_row");
                expect.push(legs);
            }

            // Full degraded verification: every chunk bit-identical, and
            // compressed legs must round-trip the real Lzf decoder.
            let mut verify = |a: &mut RaisArray,
                              expect: &[Vec<(Vec<u8>, Vec<u8>)>],
                              now: &mut u64,
                              phase: &str|
             -> (u64, u64) {
                let lzf =
                    edc_compress::codec_by_id(edc_compress::CodecId::Lzf).expect("lzf codec");
                let (mut loss, mut bad) = (0u64, 0u64);
                let mut decoded = 0u64;
                for (row, legs) in expect.iter().enumerate() {
                    for (pos, (raw, stored)) in legs.iter().enumerate() {
                        *now += 1_000_000;
                        match a.read_chunk(*now, row as u64, pos) {
                            Ok(read) => {
                                if &read.data != stored {
                                    eprintln!(
                                        "# FAIL: scenario {idx} {phase}: chunk ({row},{pos}) \
                                         not bit-identical"
                                    );
                                    bad += 1;
                                } else if stored.len() < raw.len() {
                                    // A genuinely compressed leg: prove the
                                    // served bytes still decode to the
                                    // original logical content.
                                    match lzf.decompress(&read.data, raw.len()) {
                                        Ok(back) if &back == raw => decoded += 1,
                                        _ => {
                                            eprintln!(
                                                "# FAIL: scenario {idx} {phase}: chunk \
                                                 ({row},{pos}) no longer decodes"
                                            );
                                            bad += 1;
                                        }
                                    }
                                }
                            }
                            Err(e) => {
                                eprintln!(
                                    "# FAIL: scenario {idx} {phase}: chunk ({row},{pos}): {e}"
                                );
                                loss += 1;
                            }
                        }
                    }
                }
                decoded_samples += decoded;
                (loss, bad)
            };
            let (l, b) = verify(&mut a, &expect, &mut now, "degraded");
            unrepaired += l;
            mismatches += b;
            failures += l + b;

            // Online rebuild: walk stripes in small steps with foreground
            // overwrites interleaved between steps.
            a.start_rebuild(victim).expect("start rebuild");
            let mut generation = 1u64;
            loop {
                now += 1_000_000;
                let step = a.rebuild_step(now, victim, 4).expect("rebuild step");
                rebuilt_chunks += step.reconstructed_chunks;
                if step.lost_chunks > 0 {
                    eprintln!(
                        "# FAIL: scenario {idx}: rebuild lost {} chunk(s)",
                        step.lost_chunks
                    );
                    unrepaired += step.lost_chunks;
                    failures += 1;
                }
                if step.done {
                    break;
                }
                // Foreground overwrite racing the rebuild walker.
                let row = (step.rows_done * 7 + idx) % rows_written;
                let pos = generation as usize % dw;
                let raw = rais_chunk_content(CHUNK as usize, row, pos, generation);
                let stored = rais_stored_form(&raw);
                now += 1_000_000;
                a.write_chunk(now, row, pos, &stored).expect("foreground during rebuild");
                expect[row as usize][pos] = (raw, stored);
                generation += 1;
            }
            if let Err(e) = a.verify_integrity() {
                eprintln!("# FAIL: scenario {idx}: integrity after rebuild: {e}");
                failures += 1;
                mismatches += 1;
            }
            let (l, b) = verify(&mut a, &expect, &mut now, "rebuilt");
            unrepaired += l;
            mismatches += b;
            failures += l + b;

            // Re-kill a *different* member: the rebuilt array must carry a
            // second, independent failure.
            let second = (victim + 2) % MEMBERS;
            a.kill_member(second).expect("kill second member");
            let (l, b) = verify(&mut a, &expect, &mut now, "re-killed");
            unrepaired += l;
            mismatches += b;
            failures += l + b;

            degraded_reads += a.repair_stats().degraded_reads;
            let cap = a.capacity();
            parity_written += cap.parity_bytes_written;
            parity_control += cap.parity_control_bytes;
            virtual_over_exported = virtual_over_exported
                .max(cap.virtual_bytes as f64 / cap.exported_bytes as f64);
        }
    }

    // ---- RAIS0 control: loss must be typed, never silent ----------------
    let mut rais0_typed = 0u64;
    let mut rais0_silent = 0u64;
    {
        let rot = *rot_rates.last().expect("at least one rot rate");
        let mut a = RaisArray::new(RaisLevel::Rais0, MEMBERS, member_cfg, CHUNK)
            .expect("campaign RAIS0 shape is valid");
        let mut now = 0u64;
        let expect = fill(&mut a, rows_written, &mut now);
        if rot > 0.0 {
            // Sticky rot with no redundancy: reads must fail typed.
            a.set_member_fault_plans(FaultPlan {
                seed: 0xEDC_A0A0,
                bit_rot_rate: rot,
                ..FaultPlan::none()
            });
        }
        a.kill_member(1).expect("kill RAIS0 member");
        for (row, legs) in expect.iter().enumerate() {
            for (pos, (_, stored)) in legs.iter().enumerate() {
                now += 1_000_000;
                match a.read_chunk(now, row as u64, pos) {
                    Ok(read) if &read.data == stored => {}
                    Ok(_) => {
                        eprintln!("# FAIL: RAIS0 served silent garbage at ({row},{pos})");
                        rais0_silent += 1;
                    }
                    Err(edc_flash::ArrayError::Unrecoverable { reason, .. }) => {
                        assert_eq!(reason, LossReason::NoRedundancy);
                        rais0_typed += 1;
                    }
                    Err(e) => {
                        eprintln!("# FAIL: RAIS0 unexpected error at ({row},{pos}): {e}");
                        rais0_silent += 1;
                    }
                }
            }
        }
        if rais0_typed == 0 {
            eprintln!("# FAIL: RAIS0 control lost nothing — the sweep proves nothing");
            failures += 1;
        }
        failures += rais0_silent;
    }

    // ---- Fig. 11 trend on a rebuilt array -------------------------------
    // Compressed legs must still finish device service faster than
    // write-through legs after a kill + online rebuild (the single-SSD
    // "compression shortens reads" trend surviving redundancy repair).
    let trend_violation = {
        let mut a = RaisArray::new(RaisLevel::Rais5, MEMBERS, member_cfg, CHUNK)
            .expect("trend RAIS5 shape is valid");
        let mut now = 0u64;
        let _ = fill(&mut a, rows_written.min(8), &mut now);
        a.kill_member(3).expect("kill");
        now += 1_000_000;
        let progress = a.rebuild(now, 3).expect("trend rebuild");
        assert!(progress.done && progress.lost_chunks == 0, "trend rebuild must be clean");
        // One row of tiny compressed legs, one row of write-through legs.
        let small = rais_stored_form(&rais_chunk_content(CHUNK as usize, 0, 0, 9));
        assert!(small.len() < CHUNK as usize / 2, "text chunk must compress well");
        let raw: Vec<u8> = rais_chunk_content(CHUNK as usize, 3, 0, 9);
        let dw = a.data_width();
        let small_row: Vec<&[u8]> = (0..dw).map(|_| small.as_slice()).collect();
        let raw_row: Vec<&[u8]> = (0..dw).map(|_| raw.as_slice()).collect();
        now += 1_000_000;
        a.write_row(now, 0, &small_row).expect("compressed row");
        now += 1_000_000;
        a.write_row(now, 1, &raw_row).expect("write-through row");
        let mut mean = |row: u64, now: &mut u64| -> f64 {
            let mut total = 0u64;
            let mut n = 0u64;
            for pass in 0..4u64 {
                for pos in 0..dw {
                    *now += 1_000_000 * (pass + 1);
                    let read = a.read_chunk(*now, row, pos).expect("trend read");
                    total += read.completion.finish_ns - read.completion.start_ns;
                    n += 1;
                }
            }
            total as f64 / n as f64
        };
        let compressed_ns = mean(0, &mut now);
        let through_ns = mean(1, &mut now);
        h.metric("trend_compressed_read_ns", compressed_ns);
        h.metric("trend_writethrough_read_ns", through_ns);
        eprintln!(
            "# rebuilt-array trend: compressed leg {compressed_ns:.0} ns vs \
             write-through {through_ns:.0} ns"
        );
        if compressed_ns < through_ns {
            0.0
        } else {
            failures += 1;
            eprintln!("# FAIL: compressed legs no longer faster on the rebuilt array");
            1.0
        }
    };

    // ---- Timed cases (check-bench throughput tripwire) ------------------
    let make_killed = || {
        let mut a = RaisArray::new(RaisLevel::Rais5, MEMBERS, member_cfg, CHUNK)
            .expect("timed RAIS5 shape is valid");
        let mut now = 0u64;
        let expect = fill(&mut a, rows_written, &mut now);
        a.kill_member(2).expect("kill");
        (a, expect, now)
    };
    let logical = rows_written * (MEMBERS as u64 - 1) * CHUNK;
    h.run_prepared(
        "degraded_read_sweep",
        Some(logical),
        make_killed,
        |(mut a, expect, mut now)| {
            let mut served = 0u64;
            for (row, legs) in expect.iter().enumerate() {
                for pos in 0..legs.len() {
                    now += 1_000_000;
                    served += a.read_chunk(now, row as u64, pos).expect("timed read").data.len()
                        as u64;
                }
            }
            (served, a)
        },
    );
    h.run_prepared(
        "rebuild_member_online",
        Some(rows_written * CHUNK),
        make_killed,
        |(mut a, _, mut now)| {
            now += 1_000_000;
            let progress = a.rebuild(now, 2).expect("timed rebuild");
            assert!(progress.done);
            (progress.reconstructed_bytes, a)
        },
    );

    // ---- Gate metrics (gate0_* must be exactly 0 in a passing run) ------
    let parity_gate = if parity_written < parity_control { 0.0 } else { 1.0 };
    if parity_gate > 0.0 {
        eprintln!(
            "# FAIL: compressed parity wrote {parity_written} B, not below the \
             uncompressed control {parity_control} B"
        );
        failures += 1;
    }
    h.metric("gate0_unrepaired_loss", unrepaired as f64);
    h.metric("gate0_degraded_mismatches", mismatches as f64);
    h.metric("gate0_rais0_silent_corruption", rais0_silent as f64);
    h.metric("gate0_parity_not_below_control", parity_gate);
    h.metric("gate0_trend_violation", trend_violation);
    h.metric("rais5_scenarios", scenario_idx as f64);
    h.metric("degraded_reads", degraded_reads as f64);
    h.metric("rot_repaired_legs", rot_repaired as f64);
    h.metric("rebuilt_chunks", rebuilt_chunks as f64);
    h.metric("lzf_decoded_samples", decoded_samples as f64);
    h.metric("rais0_typed_losses", rais0_typed as f64);
    h.metric("parity_written_mib", parity_written as f64 / (1 << 20) as f64);
    h.metric("parity_control_mib", parity_control as f64 / (1 << 20) as f64);
    h.metric("virtual_over_exported", virtual_over_exported);
    if rot_rates.iter().any(|&r| r > 0.0) && rot_repaired == 0 {
        eprintln!("# FAIL: rot scenarios repaired nothing — injection never fired");
        failures += 1;
    }
    if decoded_samples == 0 {
        eprintln!("# FAIL: no compressed leg was decode-verified");
        failures += 1;
    }

    eprintln!(
        "# RAIS5 sweep: {scenario_idx} scenario(s), {degraded_reads} degraded read(s), \
         {rot_repaired} rot repair(s), {rebuilt_chunks} rebuilt chunk(s), \
         {decoded_samples} Lzf decode proof(s), {unrepaired} unrepaired, \
         {mismatches} mismatch(es)"
    );
    eprintln!(
        "# RAIS0 control: {rais0_typed} typed loss(es), {rais0_silent} silent corruption(s)"
    );
    eprintln!(
        "# parity bytes: compressed {parity_written} < control {parity_control} \
         ({:.2}x); peak virtual/exported {virtual_over_exported:.2}x",
        parity_control as f64 / parity_written.max(1) as f64
    );

    print!("{}", h.render());
    let path = h.write_json(out_dir).expect("writing BENCH_rais.json");
    eprintln!("# wrote {}", path.display());
    if failures > 0 {
        eprintln!("# rais campaign FAILED with {failures} violation(s)");
        std::process::exit(1);
    }
    eprintln!(
        "# rais campaign passed: zero unrepaired loss across the kill x rot sweep, \
         compressed parity below control, trend intact on the rebuilt array"
    );
}

/// Re-record the fault campaign's schedule for one power-cut point as a
/// self-contained `.edcrr` artifact: the same writes/overwrite/flushes,
/// then recovery and a full read-back sweep, all dispatched through a
/// [`Recorder`] against a store whose spec arms the cut. The saved log
/// replays bit-exactly with `edc-bench replay` — and starts diverging
/// the moment the engine's behaviour at that cut point changes.
fn campaign_artifact(cut: u64, runs: u64) -> Recorder {
    let spec = StoreSpec {
        capacity_bytes: 8 << 20,
        shards: 0,
        fault: FaultPlan { power_cut_after_programs: Some(cut), ..FaultPlan::none() },
        ..StoreSpec::default()
    };
    let mut store = spec.build();
    let mut rec = Recorder::new(spec);
    let mut clock = ManualClock::new(0, 1);
    let mut ops: Vec<Op> = Vec::new();
    for i in 0..runs {
        let mut data = if i % 4 == 3 {
            campaign_noise_block(i * 977 + 13)
        } else {
            campaign_text_block(i)
        };
        data.extend(campaign_text_block(i + 1000));
        ops.push(Op::Write { offset: (i * 3) * 4096, data });
    }
    ops.push(Op::Flush);
    let mut v2 = campaign_text_block(7777);
    v2.extend(campaign_text_block(8888));
    ops.push(Op::Write { offset: 0, data: v2 });
    ops.push(Op::Flush);
    ops.push(Op::Recover);
    for i in 0..runs {
        ops.push(Op::Read { offset: (i * 3) * 4096, len: 2 * 4096 });
    }
    ops.push(Op::Stats);
    for op in &ops {
        rec.apply(store.as_mut(), &mut clock, op);
    }
    rec
}

/// Save a crash artifact under `<out_dir>/crashers/`, logging where it
/// went (best-effort: artifact I/O must never mask the original failure).
fn save_crash_artifact(rec: &Recorder, out_dir: &Path, name: &str) {
    let dir = out_dir.join("crashers");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("# warn: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    match rec.save(&path) {
        Ok(()) => eprintln!(
            "# crash artifact: {} ({} ops; `edc-bench replay {}`)",
            path.display(),
            rec.ops(),
            path.display()
        ),
        Err(e) => eprintln!("# warn: cannot save {}: {e}", path.display()),
    }
}

/// `edc-bench replay <log.edcrr>...` — re-execute recorded op logs
/// against freshly built stores and diff every output digest. Exits 0
/// only when every log replays bit-exactly (no divergence, no torn
/// tail); prints each divergence otherwise.
fn replay_cmd(paths: &[PathBuf]) {
    if paths.is_empty() {
        eprintln!("usage: edc-bench replay <log.edcrr> [more.edcrr ...]");
        std::process::exit(2);
    }
    let mut failures = 0u64;
    for path in paths {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("# FAIL: {}: {e}", path.display());
                failures += 1;
                continue;
            }
        };
        match Replayer::replay(&bytes) {
            Ok(report) if report.is_exact() => {
                eprintln!("# {}: {} op(s) replayed bit-exactly", path.display(), report.ops);
            }
            Ok(report) => {
                if report.torn_tail {
                    eprintln!(
                        "# FAIL: {}: torn tail after {} intact op(s)",
                        path.display(),
                        report.ops
                    );
                }
                for d in &report.divergences {
                    eprintln!("# FAIL: {}: {d}", path.display());
                }
                eprintln!(
                    "# FAIL: {}: {} divergence(s) across {} op(s)",
                    path.display(),
                    report.divergences.len(),
                    report.ops
                );
                failures += 1;
            }
            Err(e) => {
                eprintln!("# FAIL: {}: {e}", path.display());
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("# replay FAILED: {failures} of {} log(s) diverged", paths.len());
        std::process::exit(1);
    }
    eprintln!("# replay passed: {} log(s) bit-exact", paths.len());
}

/// `edc-bench record-golden <path>` — record a deterministic mixed op
/// schedule (writes, batches, hints, faults, a power cut, recovery,
/// scrub, recompression, journal truncation) against a 2-shard parity
/// store and save it as a golden `.edcrr` fixture. Used once to generate
/// the committed fixture under `tests/fixtures/`; kept for regeneration
/// whenever the engine's observable behaviour intentionally changes.
fn record_golden(path: &Path) {
    use edc_core::FileTypeHint;
    let spec = StoreSpec {
        capacity_bytes: 16 << 20,
        shards: 2,
        extent_blocks: 8,
        workers: 2,
        cache_runs: 16,
        parity: true,
        dedup: true,
        // Writes land on the fast (Lzf) rung so the recompression passes
        // below have a stronger codec to upgrade cold runs to — the same
        // shape the heat and dedup benches drive. The paper-default
        // elastic ladder would store this trickle of writes at Deflate
        // (calculated IOPS ≈ 0) and leave the passes nothing to do.
        fast_ladder: true,
        ..StoreSpec::default()
    };
    let mut store = spec.build();
    let mut rec = Recorder::new(spec);
    // 2 ms/op, the heat bench's steady mid-ladder cadence.
    let mut clock = ManualClock::new(0, 2_000_000);
    let mut ops: Vec<Op> = Vec::new();
    ops.push(Op::SetHint { offset: 0, len: 64 * 4096, hint: FileTypeHint::Text });
    for i in 0..12u64 {
        let mut data = if i % 5 == 4 {
            campaign_noise_block(i * 31 + 7)
        } else {
            campaign_text_block(i)
        };
        data.extend(campaign_text_block(i + 100));
        ops.push(Op::Write { offset: i * 3 * 4096, data });
    }
    ops.push(Op::WriteBatch {
        writes: (0..4u64)
            .map(|i| ((40 + i * 3) * 4096, campaign_text_block(200 + i)))
            .collect(),
    });
    ops.push(Op::Flush);
    for i in [0u64, 3, 7, 11] {
        ops.push(Op::Read { offset: i * 3 * 4096, len: 2 * 4096 });
    }
    ops.push(Op::Stats);
    // Arm bit rot, overwrite, scrub it clean, then recompress the lot.
    ops.push(Op::SetFaultPlan(FaultPlan {
        seed: 0xEDC_601D,
        bit_rot_rate: 0.02,
        ..FaultPlan::none()
    }));
    ops.push(Op::Write { offset: 0, data: campaign_text_block(7777) });
    ops.push(Op::Flush);
    ops.push(Op::Scrub);
    ops.push(Op::RecompressPass {
        target: edc_compress::CodecId::Deflate,
        max_rewrites: u64::MAX,
    });
    ops.push(Op::Verify);
    // Yank the cord, recover, tear one shard's journal, recover again.
    ops.push(Op::PowerCut);
    ops.push(Op::Read { offset: 0, len: 4096 });
    ops.push(Op::Recover);
    ops.push(Op::TruncateJournal { shard: 1, bytes: 64 });
    ops.push(Op::Recover);
    for i in 0..12u64 {
        ops.push(Op::Read { offset: i * 3 * 4096, len: 2 * 4096 });
    }
    ops.push(Op::Stats);
    for op in &ops {
        rec.apply(store.as_mut(), &mut clock, op);
    }
    // Dedup phase: three copies of one 4-block payload (two dedup hits),
    // a full overwrite releasing the first reference, then a long idle
    // gap so the cooled recompression pass relocates the still-shared run
    // and re-points its surviving referrers through journaled Ref
    // records. ACGT noise (as in the heat bench) so the Deflate rewrite
    // has pages to reclaim over the Lzf-stored original; blocks 64, 80
    // and 96 start even-numbered extents, keeping all three runs unsplit
    // on shard 0 — the per-shard dedup index only links runs it owns.
    let dup = heat_block(999, 0);
    let run_bytes = dup.len() as u64;
    for off in [64u64, 80, 96] {
        rec.apply(
            store.as_mut(),
            &mut clock,
            &Op::Write { offset: off * 4096, data: dup.clone() },
        );
    }
    rec.apply(store.as_mut(), &mut clock, &Op::Flush);
    let shared = match rec.apply(store.as_mut(), &mut clock, &Op::VerifyDedup) {
        edc_core::OpOutput::Dedup(r) => r,
        other => panic!("verify_dedup failed while recording: {other:?}"),
    };
    assert!(shared.extra_refs >= 2, "fixture must capture dedup hits: {shared:?}");
    rec.apply(
        store.as_mut(),
        &mut clock,
        &Op::Write { offset: 64 * 4096, data: heat_block(4242, 1) },
    );
    rec.apply(store.as_mut(), &mut clock, &Op::Flush);
    rec.apply(store.as_mut(), &mut clock, &Op::VerifyDedup);
    clock.advance(400_000_000_000);
    let pass = match rec.apply(
        store.as_mut(),
        &mut clock,
        &Op::RecompressPass { target: edc_compress::CodecId::Deflate, max_rewrites: u64::MAX },
    ) {
        edc_core::OpOutput::Recompress(r) => r,
        other => panic!("recompress failed while recording: {other:?}"),
    };
    assert!(pass.recompressed > 0, "fixture must capture a relocation: {pass:?}");
    assert!(pass.skipped_shared == 0, "the shared run must relocate, not be skipped: {pass:?}");
    let after = match rec.apply(store.as_mut(), &mut clock, &Op::VerifyDedup) {
        edc_core::OpOutput::Dedup(r) => r,
        other => panic!("verify_dedup failed while recording: {other:?}"),
    };
    assert!(after.shared_runs >= 1, "sharing must survive relocation: {after:?}");
    for off in [64u64, 80, 96] {
        rec.apply(store.as_mut(), &mut clock, &Op::Read { offset: off * 4096, len: run_bytes });
    }
    rec.apply(store.as_mut(), &mut clock, &Op::Scrub);
    rec.apply(store.as_mut(), &mut clock, &Op::Stats);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("fixture dir");
    }
    rec.save(path).expect("saving golden log");
    eprintln!("# recorded {} op(s) ({} bytes) into {}", rec.ops(), rec.bytes().len(), path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    let out_value_idx = args.iter().position(|a| a == "--out").map(|i| i + 1);
    let operands: Vec<(usize, String)> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && Some(*i) != out_value_idx)
        .map(|(i, a)| (i, a.clone()))
        .collect();
    let cmd = operands.first().map(|(_, a)| a.clone()).unwrap_or_else(|| "all".to_string());

    if cmd == "replay" {
        let paths: Vec<PathBuf> =
            operands.iter().skip(1).map(|(_, a)| PathBuf::from(a)).collect();
        replay_cmd(&paths);
        return;
    }
    if cmd == "record-golden" {
        let Some((_, path)) = operands.get(1) else {
            eprintln!("usage: edc-bench record-golden <path.edcrr>");
            std::process::exit(2);
        };
        record_golden(Path::new(path));
        return;
    }

    // The pipeline micro-bench and fault campaign need no trace
    // environment; run them before the (expensive) ExperimentEnv
    // construction.
    if cmd == "bench-pipeline" {
        bench_pipeline(quick, &out_dir);
        return;
    }
    if cmd == "bench-concurrency" {
        let smoke = quick || args.iter().any(|a| a == "--smoke");
        bench_concurrency(smoke, &out_dir);
        return;
    }
    if cmd == "bench-codecs" {
        let smoke = quick || args.iter().any(|a| a == "--smoke");
        let prior = args.iter().position(|a| a == "--prior").and_then(|i| args.get(i + 1));
        bench_codecs(smoke, &out_dir, prior.map(Path::new));
        return;
    }
    if cmd == "fault-campaign" {
        let smoke = quick || args.iter().any(|a| a == "--smoke");
        fault_campaign(smoke, &out_dir);
        return;
    }
    if cmd == "fuzz" {
        let smoke = quick || args.iter().any(|a| a == "--smoke");
        fuzz_cmd(smoke, &out_dir);
        return;
    }
    if cmd == "scrub-campaign" {
        let smoke = quick || args.iter().any(|a| a == "--smoke");
        scrub_campaign(smoke, &out_dir);
        return;
    }
    if cmd == "rais-campaign" {
        let smoke = quick || args.iter().any(|a| a == "--smoke");
        rais_campaign(smoke, &out_dir);
        return;
    }
    if cmd == "bench-heat" {
        let smoke = quick || args.iter().any(|a| a == "--smoke");
        bench_heat(smoke, &out_dir);
        return;
    }
    if cmd == "bench-dedup" {
        let smoke = quick || args.iter().any(|a| a == "--smoke");
        bench_dedup(smoke, &out_dir);
        return;
    }
    if cmd == "check-bench" {
        let dir_arg = |flag: &str, default: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from(default))
        };
        check_bench(&dir_arg("--baseline", "results-baseline"), &dir_arg("--fresh", "results"));
        return;
    }

    let started = Instant::now();
    eprintln!("# edc-bench: building environment (quick={quick}) ...");
    let env = ExperimentEnv::new(quick);
    eprintln!("# environment ready in {:.1}s", started.elapsed().as_secs_f64());

    let emit = |t: &Table, name: &str| {
        t.write_csv(&out_dir, name).unwrap_or_else(|e| panic!("writing {name}.csv: {e}"));
        println!("{}", t.render());
    };

    let run_fig1 = || emit(&ex::fig1(&env), "fig1");
    let run_fig2 = || emit(&ex::fig2(quick), "fig2");
    let run_fig3 = || {
        let (series, summary) = ex::fig3(&env);
        series.write_csv(&out_dir, "fig3").expect("fig3.csv");
        println!("{}", summary.render());
        println!("(full per-second series written to fig3.csv)\n");
    };
    let run_table1 = || emit(&ex::table1(&env), "table1");
    let run_table2 = || emit(&ex::table2(&env), "table2");
    let run_single = || {
        eprintln!("# replaying scheme x trace matrix on a single SSD ...");
        let t0 = Instant::now();
        let cells = env.run_matrix(Platform::SingleSsd);
        eprintln!("# matrix done in {:.1}s", t0.elapsed().as_secs_f64());
        emit(&ex::fig8(&cells, &env), "fig8");
        emit(&ex::fig9(&cells, &env), "fig9");
        emit(
            &ex::fig_response(&cells, &env, "Fig.10  Avg response time, single SSD (normalized to Native = 1.0)"),
            "fig10",
        );
        emit(&ex::rw_breakdown(&cells, &env), "rw_breakdown");
    };
    let run_fig11 = || {
        eprintln!("# replaying scheme x trace matrix on RAIS5 ...");
        let t0 = Instant::now();
        let cells = env.run_matrix(Platform::Rais5);
        eprintln!("# matrix done in {:.1}s", t0.elapsed().as_secs_f64());
        emit(
            &ex::fig_response(&cells, &env, "Fig.11  Avg response time, RAIS5 (normalized to Native = 1.0)"),
            "fig11",
        );
    };
    let run_fig12 = || emit(&ex::fig12(&env), "fig12");
    let run_ablations = || {
        emit(&ex::ablate_sd(&env), "ablate_sd");
        emit(&ex::ablate_alloc(&env), "ablate_alloc");
        emit(&ex::ablate_threshold(&env), "ablate_threshold");
        emit(&ex::ablate_ladder(&env), "ablate_ladder");
        emit(&ex::ablate_feedback(&env), "ablate_feedback");
        emit(&ex::ablate_cache(&env), "ablate_cache");
        emit(&ex::ablate_nvram(&env), "ablate_nvram");
    };
    let run_future_work = || {
        emit(&ex::endurance(&env), "endurance");
        emit(&ex::energy(&env), "energy");
        emit(&ex::hdd(&env), "hdd");
    };
    let run_mixed = || emit(&ex::mixed(&env), "mixed");
    let run_calibrate = || emit(&ex::calibrate(quick), "calibrate");
    let run_timeline = || {
        let t = ex::timeline(&env);
        t.write_csv(&out_dir, "timeline").expect("timeline.csv");
        println!("== {} == ({} rows written to timeline.csv)\n", t.title, t.len());
    };

    match cmd.as_str() {
        "fig1" => run_fig1(),
        "fig2" => run_fig2(),
        "fig3" => run_fig3(),
        "table1" => run_table1(),
        "table2" => run_table2(),
        "fig8" | "fig9" | "fig10" => run_single(),
        "fig11" => run_fig11(),
        "fig12" => run_fig12(),
        "ablations" => run_ablations(),
        "endurance" | "energy" | "hdd" | "future-work" => run_future_work(),
        "timeline" => run_timeline(),
        "mixed" => run_mixed(),
        "calibrate" => run_calibrate(),
        "all" => {
            run_table1();
            run_table2();
            run_fig1();
            run_fig2();
            run_fig3();
            run_single();
            run_fig11();
            run_fig12();
            run_ablations();
            run_future_work();
            run_timeline();
            run_mixed();
            run_calibrate();
        }
        other => {
            eprintln!("unknown command {other:?}");
            eprintln!("commands: fig1 fig2 fig3 table1 table2 fig8 fig9 fig10 fig11 fig12 ablations future-work timeline mixed calibrate bench-pipeline bench-concurrency bench-codecs bench-heat bench-dedup check-bench fault-campaign fuzz scrub-campaign rais-campaign replay record-golden all");
            std::process::exit(2);
        }
    }
    eprintln!("# total {:.1}s; CSVs in {}", started.elapsed().as_secs_f64(), out_dir.display());
}
