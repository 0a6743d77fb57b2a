//! The fault campaign, as seeded tests: a power cut at every page program
//! of a write workload, a replay-gated recording of the midpoint cut, and
//! a device-level fault-rate matrix. Also home of the campaign
//! [`Workload`] the scrub campaign reuses.

use crate::content::{noise_block, text_block};
use crate::sweep::{cut_sweep, CutScenario};
use edc_core::error::EdcError;
use edc_core::pipeline::{EdcPipeline, PipelineConfig};
use edc_core::{ManualClock, Op, Recorder, Replayer, StoreSpec};
use edc_flash::{FaultError, FaultPlan, IoKind, SsdConfig, SsdDevice};
use std::path::PathBuf;

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
    /// The workload sizes the campaigns run: a small one, then the full
    /// one.
    pub const RUNS: [u64; 2] = [10, 48];

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

/// Where a failing test saves its crash artifacts: `target/tmp/crashers`.
/// Cargo hands `target/tmp` to integration tests as
/// `CARGO_TARGET_TMPDIR` but not to unit tests, so it is found from the
/// test binary's own path (`target/<profile>/deps/<binary>`).
pub fn crash_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    let target = exe.ancestors().nth(3).expect("test binary sits in target/<profile>/deps");
    target.join("tmp").join("crashers")
}

/// Save `rec` as `<crash_dir>/<name>`, logging where it went
/// (best-effort: artifact I/O must never mask the original failure).
fn save_crash_artifact(rec: &Recorder, name: &str) {
    let path = crash_dir().join(name);
    match std::fs::create_dir_all(crash_dir()).and_then(|()| rec.save(&path)) {
        Ok(()) => eprintln!(
            "# crash artifact: {} ({} ops; `edc-bench replay {}`)",
            path.display(),
            rec.ops(),
            path.display()
        ),
        Err(e) => eprintln!("# cannot save {}: {e}", path.display()),
    }
}

/// Sweep a simulated power cut across every page-program index of the
/// workload at each size, recovering and verifying after each. Every cut
/// that misbehaves is saved as a replayable `.edcrr` artifact before the
/// test fails: the same schedule re-driven through a [`Recorder`].
#[test]
fn power_cut_at_every_program_loses_no_committed_block() {
    for runs in Workload::RUNS {
        let workload = Workload::new(runs);
        let mk = || EdcPipeline::new(8 << 20, PipelineConfig::default());
        let (sweep, mut clean) = cut_sweep(
            &format!("fault campaign, {runs} runs"),
            &CutScenario {
                make: &mk,
                prepare: &|_| {},
                drive: &|p| workload.drive(p),
                count_lost: &|p| workload.count_lost(p),
            },
        );

        // Zero fault rate must mean zero faults and zero loss.
        let (clean_verified, clean_lost) = workload.count_lost(&mut clean);
        let f = clean.fault_stats();
        let clean_faults =
            f.read_faults + f.program_faults + f.erase_faults + f.rot_pages + f.power_cuts;
        assert_eq!(
            (clean_lost, clean_faults),
            (0, 0),
            "{runs} runs: zero fault rate produced loss and faults"
        );
        assert_eq!(clean_verified, 2 * runs, "{runs} runs: every clean block verifies");

        for &cut in &sweep.bad_cuts {
            save_crash_artifact(
                &workload.record_cut(cut),
                &format!("fault_{runs}runs_cut_{cut}.edcrr"),
            );
        }
        sweep.assert_zero_loss(&format!("fault campaign, {runs} runs"));
    }
}

/// Record/replay gate, on every run: the midpoint-cut schedule is
/// re-driven through a [`Recorder`] and the log replayed against a fresh
/// store, so the capture path is exercised — not only on the runs where
/// something already went wrong.
#[test]
fn midpoint_cut_recording_replays_bit_exactly() {
    for runs in Workload::RUNS {
        let workload = Workload::new(runs);
        let mut clean = EdcPipeline::new(8 << 20, PipelineConfig::default());
        workload.drive(&mut clean).expect("the clean run cannot fault");
        let mid = clean.stats().programs / 2;
        let rec = workload.record_cut(mid);
        let report = Replayer::replay(rec.bytes())
            .unwrap_or_else(|e| panic!("{runs} runs, cut {mid}: the log does not parse: {e}"));
        if !report.is_exact() {
            save_crash_artifact(&rec, &format!("fault_{runs}runs_midpoint_cut_{mid}.edcrr"));
        }
        assert!(
            report.is_exact(),
            "{runs} runs, cut {mid}: replay diverged: {:?}",
            report.divergences
        );
        assert_eq!(report.ops, rec.ops(), "{runs} runs, cut {mid}: every recorded op replays");
    }
}

/// Device-level matrix: transient/program/erase fault rates against the
/// raw SSD simulator, with an FTL integrity audit after the run and again
/// after a power cycle. Zero rate must mean zero faults.
#[test]
fn device_fault_matrix_keeps_the_ftl_consistent() {
    // Two short cells, then the full matrix.
    let cells: [(u64, &[f64]); 2] = [(2_000, &[0.0, 0.01]), (20_000, &[0.0, 0.001, 0.01, 0.05])];
    for (ops, rate) in
        cells.into_iter().flat_map(|(ops, rates)| rates.iter().map(move |&r| (ops, r)))
    {
        let seed = 0xEDC + (rate * 1e6) as u64;
        let mut dev = SsdDevice::new(SsdConfig { logical_bytes: 64 << 20, ..SsdConfig::default() });
        dev.precondition(0.5);
        dev.set_fault_plan(FaultPlan {
            seed,
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
            panic!("rate {rate}, {ops} ops, seed {seed:#x}: FTL integrity: {e}");
        }
        // Power cycle and re-audit: volatile-state reset must not break
        // the FTL's mapping invariants either.
        dev.power_cycle();
        if let Err(e) = dev.verify_integrity() {
            panic!("rate {rate}, {ops} ops, seed {seed:#x}: FTL integrity after power cycle: {e}");
        }
        let fs = dev.fault_stats();
        if rate == 0.0 {
            assert_eq!(
                read_errs + write_errs + fs.read_faults + fs.program_faults,
                0,
                "{ops} ops, seed {seed:#x}: faults fired at zero rate"
            );
        }
    }
}
