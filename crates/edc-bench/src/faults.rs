//! `fault-campaign`: a power cut at every page program of a write
//! workload, a replay-gated recording of the midpoint cut, and a
//! device-level fault-rate matrix. Also home of the campaign [`Workload`]
//! the scrub campaign reuses.

use crate::content::{noise_block, text_block};
use crate::sweep::{cut_sweep, CutScenario};
use crate::{CmdResult, Harness};
use edc_core::error::EdcError;
use edc_core::pipeline::{EdcPipeline, PipelineConfig};
use edc_core::{ManualClock, Op, Recorder, Replayer, StoreSpec};
use edc_flash::{FaultError, FaultPlan, IoKind, SsdConfig, SsdDevice};
use std::path::Path;

/// The campaigns' pipeline workload: two-block runs (every fourth led by
/// an incompressible block) three blocks apart so none merge, flushed,
/// then one overwrite of the first run — so crash verification has a
/// block range with two committed versions to accept.
pub struct Workload {
    /// `(offset, data)` of each first-generation run, in write order.
    writes: Vec<(u64, Vec<u8>)>,
    /// Second version of the first run, written after the first flush.
    overwrite: Vec<u8>,
}

impl Workload {
    /// The workload over `runs` runs.
    pub fn new(runs: u64) -> Self {
        let writes = (0..runs)
            .map(|i| {
                let mut data = if i % 4 == 3 { noise_block(i * 977 + 13) } else { text_block(i) };
                data.extend(text_block(i + 1000));
                (i * 3 * 4096, data)
            })
            .collect();
        let mut overwrite = text_block(7777);
        overwrite.extend(text_block(8888));
        Workload { writes, overwrite }
    }

    fn runs(&self) -> u64 {
        self.writes.len() as u64
    }

    /// Issue the workload against `p`, stopping at the first error.
    pub fn drive(&self, p: &mut EdcPipeline) -> Result<(), EdcError> {
        let runs = self.runs();
        for (i, (offset, data)) in self.writes.iter().enumerate() {
            p.write(i as u64, *offset, data)?;
        }
        p.flush_all(runs)?;
        p.write(runs + 10, 0, &self.overwrite)?;
        p.flush_all(runs + 20)?;
        Ok(())
    }

    /// Check the store block by block: every block must read as its
    /// final data, its pre-overwrite data, or all zeroes (its run never
    /// committed) — anything else is data loss. Returns `(verified, lost)`.
    pub fn count_lost(&self, p: &mut EdcPipeline) -> (u64, u64) {
        let zero = vec![0u8; 4096];
        let (mut verified, mut lost) = (0u64, 0u64);
        for (i, (offset, first)) in self.writes.iter().enumerate() {
            let (data, old) = if i == 0 { (&self.overwrite, Some(first)) } else { (first, None) };
            for (b, want) in data.chunks(4096).enumerate() {
                let lo = b * 4096;
                match p.read(1 << 40, offset + lo as u64, 4096) {
                    Ok(got)
                        if got == want
                            || got == zero
                            || old.is_some_and(|o| got == o[lo..lo + 4096]) =>
                    {
                        verified += 1
                    }
                    _ => lost += 1,
                }
            }
        }
        (verified, lost)
    }

    /// The workload as recorded ops, for one power-cut point: the same
    /// writes, overwrite and flushes, then recovery and a full read-back
    /// sweep, all dispatched through a [`Recorder`] against a store whose
    /// spec arms the cut. The log replays bit-exactly with `edc-bench
    /// replay` — and starts diverging the moment the engine's behaviour
    /// at that cut point changes.
    fn record_cut(&self, cut: u64) -> Recorder {
        let spec = StoreSpec {
            capacity_bytes: 8 << 20,
            shards: 0,
            fault: FaultPlan { power_cut_after_programs: Some(cut), ..FaultPlan::none() },
            ..StoreSpec::default()
        };
        let store = spec.build();
        let mut rec = Recorder::new(spec);
        let mut clock = ManualClock::new(0, 1);
        let write =
            |(offset, data): &(u64, Vec<u8>)| Op::Write { offset: *offset, data: data.clone() };
        let mut ops: Vec<Op> = self.writes.iter().map(write).collect();
        ops.push(Op::Flush);
        ops.push(Op::Write { offset: 0, data: self.overwrite.clone() });
        ops.push(Op::Flush);
        ops.push(Op::Recover);
        ops.extend(
            self.writes.iter().map(|(offset, _)| Op::Read { offset: *offset, len: 2 * 4096 }),
        );
        ops.push(Op::Stats);
        for op in &ops {
            rec.apply(&store, &mut clock, op);
        }
        rec
    }
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

/// Fault-injection campaign: sweep a simulated power cut across every
/// page-program index of a pipeline workload (recovering and verifying
/// after each), then drive the raw SSD simulator through a fault-rate
/// matrix. Writes `BENCH_faults.json`; fails if any journaled run loses
/// data, or if any fault fires at zero fault rate.
pub fn run(smoke: bool, out_dir: &Path) -> CmdResult {
    let runs: u64 = if smoke { 10 } else { 48 };
    let samples = if smoke { 3 } else { 5 };
    let mk = || EdcPipeline::new(8 << 20, PipelineConfig::default());
    let workload = Workload::new(runs);
    let mut h = Harness::new("faults", samples);
    let mut failures = 0u64;

    // Power-cut sweep: cut at EVERY page-program index, recover, verify.
    let (sweep, mut clean) = cut_sweep(
        "fault campaign",
        &CutScenario {
            make: &mk,
            prepare: &|_| {},
            drive: &|p| workload.drive(p),
            count_lost: &|p| workload.count_lost(p),
        },
    );

    // Baseline: zero fault rate must mean zero faults and zero loss.
    let committed_runs = clean.stats().journal_records;
    let (clean_verified, clean_lost) = workload.count_lost(&mut clean);
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
        "# clean run: {committed_runs} journaled runs, {} page programs, \
         {clean_verified} blocks verified",
        sweep.programs
    );

    // Every cut that misbehaved becomes a replayable `.edcrr` artifact:
    // the same schedule re-driven through a Recorder, so the failure is
    // pinned as a log that `edc-bench replay` re-executes bit-exactly.
    for &cut in &sweep.bad_cuts {
        save_crash_artifact(&workload.record_cut(cut), out_dir, &format!("fault_cut_{cut}.edcrr"));
    }
    failures += sweep.violations();
    if sweep.lost > 0 || sweep.payload_mismatches > 0 {
        eprintln!(
            "# FAIL: power-cut sweep lost {} blocks, {} payload mismatches",
            sweep.lost, sweep.payload_mismatches
        );
    }
    eprintln!(
        "# power-cut sweep: {} cut points, {} runs replayed, {} blocks verified, {} lost",
        sweep.cut_points, sweep.replayed_runs, sweep.verified, sweep.lost
    );

    // Timed recovery at the midpoint cut (the representative case).
    let mid = sweep.programs / 2;
    h.run_prepared(
        "recover_after_midpoint_cut",
        None,
        || {
            let mut p = mk();
            p.set_fault_plan(FaultPlan {
                power_cut_after_programs: Some(mid),
                ..FaultPlan::none()
            });
            let _ = workload.drive(&mut p);
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
    let rec = workload.record_cut(mid);
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

    failures += device_matrix(smoke, &mut h);

    let pct = |part: u64, whole: u64, empty: f64| {
        if whole == 0 {
            empty
        } else {
            100.0 * part as f64 / whole as f64
        }
    };
    h.metric("cut_points", sweep.cut_points as f64);
    h.metric("committed_runs_clean", committed_runs as f64);
    h.metric("page_programs_clean", sweep.programs as f64);
    h.metric("recovered_runs_total", sweep.replayed_runs as f64);
    h.metric(
        "recovered_cuts_pct",
        pct(sweep.programs - sweep.recover_failures, sweep.programs, 100.0),
    );
    h.metric("data_loss_blocks", sweep.lost as f64);
    h.metric("data_loss_pct", pct(sweep.lost, sweep.verified + sweep.lost, 0.0));
    h.metric("payload_mismatches", sweep.payload_mismatches as f64);
    h.metric(
        "recovery_ns_mean",
        (sweep.recovery_ns_sum / u128::from(sweep.cut_points.max(1))) as f64,
    );
    h.metric("recovery_ns_max", sweep.recovery_ns_max as f64);

    h.finish(out_dir, failures)?;
    eprintln!(
        "# fault campaign passed: zero data loss across {} power-cut points",
        sweep.cut_points
    );
    Ok(())
}

/// Device-level matrix: transient/program/erase fault rates against the
/// raw SSD simulator, with a power cycle and an FTL integrity audit at
/// the end of every cell. Returns the violations it counted.
fn device_matrix(smoke: bool, h: &mut Harness) -> u64 {
    let mut failures = 0u64;
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
    failures
}
