//! `bench-concurrency`: closed-loop verified mixed read/write load over
//! the sharded front-end and the async ring, gated against an in-process
//! serial baseline.

use crate::content::cycled;
use crate::harness::percentile;
use crate::{CmdResult, Harness};
use edc_core::pipeline::{EdcPipeline, PipelineConfig};
use edc_core::{Op, OpOutput, Ring, RingConfig, RingStats, ShardConfig, ShardedPipeline, Ticket};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

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
    let phrase =
        format!("edc concurrency bench t{thread} b{block} v{version} elastic compression payload ");
    cycled(&phrase, 4096)
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
    /// Fold the per-op latencies of a run into its summary.
    fn new(wall_ns: u64, mut lat: Vec<u64>, hit_rate: f64, errors: u64) -> Self {
        MixedRun {
            wall_ns,
            ops: lat.len() as u64,
            p50_ns: percentile(&mut lat, 50),
            p99_ns: percentile(&mut lat, 99),
            hit_rate,
            errors,
        }
    }

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
                            s.write(now_ns, gb * 4096, &conc_block(t, gb, v)).expect("mixed write");
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

    let lat: Vec<u64> = per_thread.iter().flat_map(|(l, _)| l.iter().copied()).collect();
    MixedRun::new(wall_ns, lat, stats.cache.hit_rate(), errors)
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
    MixedRun::new(wall_ns, lat, p.stats().cache.hit_rate(), errors)
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
                            let submit =
                                |sl: usize,
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
                            let check = |expect: Option<u64>, out: OpOutput| match (expect, out) {
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
        eprintln!("# FAIL: ring submitted {} != completed {}", stats.submitted, stats.completed);
        err_count += 1;
    }

    let lat: Vec<u64> = per_thread.iter().flat_map(|(l, _)| l.iter().copied()).collect();
    RingRun {
        run: MixedRun::new(wall_ns, lat, pstats.cache.hit_rate(), err_count),
        occupancy,
        latency_us,
        stats,
    }
}

/// Closed-loop multi-threaded mixed read/write benchmark of the
/// [`ShardedPipeline`] front-end: a client-thread sweep (1/2/4/8 threads
/// against 8 shards), a shard-count sweep (1/2/4/8 shards under 8
/// threads), a [`Ring`] queue-depth sweep (QD 1/4/16/64/256 from at most
/// 4 submitter threads, with the ring's occupancy and completion-latency
/// series attached), per-op p50/p99 latency, cache hit ratio, and an
/// in-process serial [`EdcPipeline`] baseline. Writes
/// `BENCH_concurrency.json`; fails on any correctness violation, on
/// 1-thread throughput regressing the serial baseline by more than 10%,
/// on a sub-linear 8-thread speedup, or on the ring at QD >= 64 falling
/// short of the 8-thread blocking figure (or QD=1 falling more than 10%
/// behind 1-thread blocking). Every gate compares two arms measured in
/// this one process.
pub fn run(smoke: bool, out_dir: &Path) -> CmdResult {
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
    // Two short runs against each other: the smoke bar only has to
    // catch a broken front-end, not a neighbour's burst.
    let serial_floor = if smoke { 0.7 } else { 0.9 };
    if vs_serial < serial_floor {
        eprintln!(
            "# FAIL: 1-thread sharded throughput is {vs_serial:.2}x the serial \
             EdcPipeline baseline (floor {serial_floor:.1}x)"
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

    h.finish(out_dir, failures)?;
    eprintln!(
        "# concurrency bench passed: {speedup:.2}x at 8 threads, 1-thread at \
         {vs_serial:.2}x of serial, zero verification errors"
    );
    Ok(())
}
