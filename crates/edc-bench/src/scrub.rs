//! `scrub-campaign`: per-access bit rot against a parity-enabled store,
//! healed by `scrub()`, with a parity-less control that cannot heal.

use crate::faults::Workload;
use crate::{CmdResult, Harness};
use edc_core::pipeline::{EdcPipeline, PipelineConfig};
use edc_flash::FaultPlan;
use std::path::Path;

/// Scrub/read-repair campaign: drive a parity-enabled pipeline workload,
/// arm per-access bit rot at a sweep of rates (each access rots at most
/// one bit of one page — the single-page-per-run model parity is built
/// for), scrub, and verify every block. Writes `BENCH_scrub.json`; fails
/// on any unrepaired loss.
pub fn run(smoke: bool, out_dir: &Path) -> CmdResult {
    let runs: u64 = if smoke { 10 } else { 48 };
    let samples = if smoke { 3 } else { 5 };
    let rates: &[f64] = if smoke { &[0.0, 1.0] } else { &[0.0, 0.05, 0.25, 1.0] };
    let workload = Workload::new(runs);
    let mk =
        || EdcPipeline::new(8 << 20, PipelineConfig { parity: true, ..PipelineConfig::default() });
    let mut h = Harness::new("scrub", samples);
    let mut failures = 0u64;

    for &rate in rates {
        let mut p = mk();
        workload.drive(&mut p).expect("clean drive cannot fault");
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
        let (verified, lost) = workload.count_lost(&mut p);
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
    workload.drive(&mut bare).expect("clean drive cannot fault");
    bare.set_fault_plan(FaultPlan { seed: 0xEDC5, bit_rot_rate: 1.0, ..FaultPlan::none() });
    let control = bare.scrub().expect("scrub without parity");
    bare.set_fault_plan(FaultPlan::none());
    let (_, control_lost) = workload.count_lost(&mut bare);
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
            workload.drive(&mut p).expect("clean drive cannot fault");
            p.set_fault_plan(FaultPlan { seed: 0xEDC6, bit_rot_rate: 1.0, ..FaultPlan::none() });
            p
        },
        |mut p| {
            let report = p.scrub().expect("scrub");
            (report.repaired, p)
        },
    );

    h.finish(out_dir, failures)?;
    eprintln!("# scrub campaign passed: zero unrepaired loss at single-page-per-run rot");
    Ok(())
}
