//! The power-cut sweep: cut at every page program of a scenario, recover,
//! and count what was lost.
//!
//! One driver for every test that proves "a power cut anywhere in X loses
//! nothing committed" — the fault campaign's write workload, the heat
//! bench's background recompression pass, the dedup bench's
//! hit-and-relocate sequence. A clean run of the scenario teaches the
//! driver how many page programs its armed phase issues; each of those
//! program indices then gets a fresh store, the same preamble, a
//! [`FaultPlan`] cutting power at that index, the armed phase (which
//! must die of the cut), [`EdcPipeline::recover`], and the scenario's own
//! loss rule. What "lost" means stays with the scenario — either
//! committed version or zero, exact, a committed prefix — and only the
//! loop is shared.

use edc_core::error::{EdcError, WriteError};
use edc_core::pipeline::EdcPipeline;
use edc_flash::FaultPlan;

/// One power-cut scenario, as closures over a store.
pub struct CutScenario<'a> {
    /// Build a fresh store.
    pub make: &'a dyn Fn() -> EdcPipeline,
    /// Un-armed preamble, run before the cut is armed; its page programs
    /// are outside the sweep.
    pub prepare: &'a dyn Fn(&mut EdcPipeline),
    /// The armed phase. On the clean run it must succeed; with a cut
    /// armed inside its program window it must return the typed
    /// [`WriteError::PowerCut`].
    pub drive: &'a dyn Fn(&mut EdcPipeline) -> Result<(), EdcError>,
    /// The loss rule, applied to the recovered store: `(verified, lost)`
    /// in the scenario's own unit.
    pub count_lost: &'a dyn Fn(&mut EdcPipeline) -> (u64, u64),
}

/// What a [`cut_sweep`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Page programs the armed phase issues on a clean run — the window
    /// of cut indices swept.
    pub programs: u64,
    /// Cuts that surfaced typed, recovered and were checked by the loss
    /// rule (equals `programs` in a passing sweep).
    pub cut_points: u64,
    /// Units the loss rule accepted, summed over all cuts.
    pub verified: u64,
    /// Units the loss rule counted lost, summed over all cuts.
    pub lost: u64,
    /// Journaled runs whose payload failed its checksum at recovery.
    pub payload_mismatches: u64,
    /// Cuts whose armed phase did not end in a typed power-cut error.
    pub unsurfaced_cuts: u64,
    /// Cuts after which `recover()` itself failed.
    pub recover_failures: u64,
    /// Every cut index that misbehaved in any of the ways above, for
    /// callers that save a crash artifact per bad cut.
    pub bad_cuts: Vec<u64>,
}

impl SweepReport {
    /// The sweep's pass condition: it swept at least one cut, and every
    /// cut surfaced as a typed power cut, recovered, and lost nothing.
    ///
    /// # Panics
    /// Naming `what` and every cut that misbehaved, otherwise.
    pub fn assert_zero_loss(&self, what: &str) {
        assert!(self.programs > 0, "{what}: the armed phase programs nothing; the sweep is empty");
        assert!(
            self.bad_cuts.is_empty()
                && self.unsurfaced_cuts + self.recover_failures == 0
                && (self.lost, self.payload_mismatches) == (0, 0),
            "{what}: bad cuts {:?} of {}: {} not surfaced as PowerCut, {} failed recovery, \
             {} unit(s) lost, {} payload mismatch(es)",
            self.bad_cuts,
            self.programs,
            self.unsurfaced_cuts,
            self.recover_failures,
            self.lost,
            self.payload_mismatches
        );
        assert_eq!(self.cut_points, self.programs, "{what}: every program index is a checked cut");
    }
}

/// Sweep a power cut across every page program of `scenario`'s armed
/// phase. Returns the report and the clean run's store, so callers can
/// make scenario-specific checks on what an uninterrupted run leaves.
///
/// # Panics
/// If the armed phase fails on the clean (un-cut) run — a broken
/// scenario, not a finding.
pub fn cut_sweep(what: &str, scenario: &CutScenario<'_>) -> (SweepReport, EdcPipeline) {
    let mut clean = (scenario.make)();
    (scenario.prepare)(&mut clean);
    let before = clean.stats().programs;
    if let Err(e) = (scenario.drive)(&mut clean) {
        panic!("{what}: the clean run cannot fault: {e}");
    }
    let mut report =
        SweepReport { programs: clean.stats().programs - before, ..SweepReport::default() };

    for cut in 0..report.programs {
        let mut p = (scenario.make)();
        (scenario.prepare)(&mut p);
        p.set_fault_plan(FaultPlan { power_cut_after_programs: Some(cut), ..FaultPlan::none() });
        match (scenario.drive)(&mut p) {
            Err(EdcError::Write(WriteError::PowerCut { .. })) => {}
            other => {
                eprintln!("# FAIL: {what}: cut {cut} did not surface as PowerCut ({other:?})");
                report.unsurfaced_cuts += 1;
                report.bad_cuts.push(cut);
                continue;
            }
        }
        let recovery = match p.recover() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("# FAIL: {what}: recovery after cut {cut}: {e}");
                report.recover_failures += 1;
                report.bad_cuts.push(cut);
                continue;
            }
        };
        report.payload_mismatches += recovery.payload_mismatches;
        let (verified, lost) = (scenario.count_lost)(&mut p);
        report.verified += verified;
        report.lost += lost;
        if lost > 0 || recovery.payload_mismatches > 0 {
            report.bad_cuts.push(cut);
        }
        report.cut_points += 1;
    }
    (report, clean)
}

mod tests {
    use super::*;
    use crate::content::text_block;
    use edc_core::pipeline::PipelineConfig;

    /// Three single-block runs, two blocks apart so none merge.
    fn three_runs<'a>(count_lost: &'a dyn Fn(&mut EdcPipeline) -> (u64, u64)) -> CutScenario<'a> {
        CutScenario {
            make: &|| EdcPipeline::new(1 << 20, PipelineConfig::default()),
            prepare: &|_| {},
            drive: &|p| {
                for i in 0..3u64 {
                    p.write(i, i * 2 * 4096, &text_block(i))?;
                }
                p.flush_all(3).map(|_| ())
            },
            count_lost,
        }
    }

    #[test]
    fn three_run_scenario_sweeps_every_program_and_loses_nothing() {
        // Each block reads as written, or as zeroes when its run's commit
        // record never landed.
        let new_or_zero = |p: &mut EdcPipeline| {
            let (mut verified, mut lost) = (0, 0);
            for i in 0..3u64 {
                match p.read(1 << 40, i * 2 * 4096, 4096) {
                    Ok(got) if got == text_block(i) || got.iter().all(|&b| b == 0) => verified += 1,
                    _ => lost += 1,
                }
            }
            (verified, lost)
        };
        let (report, clean) = cut_sweep("three runs", &three_runs(&new_or_zero));
        assert!(report.programs >= 3, "one payload program per run at least: {report:?}");
        assert_eq!(report.programs, clean.stats().programs);
        assert_eq!(report.cut_points, report.programs);
        assert_eq!(report.verified, 3 * report.programs);
        assert_eq!((report.lost, report.payload_mismatches), (0, 0));
        assert!(report.bad_cuts.is_empty());
        report.assert_zero_loss("three runs");
    }

    #[test]
    fn one_planted_lost_block_fails_the_sweep_and_the_campaign() {
        // The loss rule claims a lost block after the very first cut only.
        let calls = std::cell::Cell::new(0u64);
        let planted = |_: &mut EdcPipeline| {
            calls.set(calls.get() + 1);
            (2, u64::from(calls.get() == 1))
        };
        let (report, _) = cut_sweep("planted", &three_runs(&planted));
        assert_eq!(report.lost, 1);
        assert_eq!(report.bad_cuts, vec![0]);
        assert_eq!(report.cut_points, report.programs, "a lossy cut still counts as swept");
        let failed = std::panic::catch_unwind(|| report.assert_zero_loss("planted"))
            .expect_err("one lost block fails the sweep");
        let message = failed.downcast_ref::<String>().expect("formatted panic message");
        assert!(message.contains("planted: bad cuts [0]"), "{message}");
    }
}
