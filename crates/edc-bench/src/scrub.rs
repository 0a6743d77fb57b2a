//! The scrub campaign, as a seeded test: per-access bit rot against a
//! parity-enabled store, healed by `scrub()`, with a parity-less control
//! that cannot heal.

use crate::faults::Workload;
use edc_core::pipeline::{EdcPipeline, PipelineConfig};
use edc_flash::FaultPlan;

/// Drive the campaign workload into a parity-enabled pipeline, arm
/// per-access bit rot at a sweep of rates (each access rots at most one
/// bit of one page — the single-page-per-run model parity is built for),
/// scrub, and verify every block: no unrepaired loss at any rate. The
/// same full-rot pass *without* parity must scrub unrecoverable, or the
/// campaign proves nothing — the parity page is what buys the repair,
/// not the scrub walk itself.
#[test]
fn scrub_heals_single_page_rot_and_the_parityless_control_cannot() {
    for runs in Workload::RUNS {
        let workload = Workload::new(runs);
        for rate in [0.0, 0.05, 0.25, 1.0] {
            let seed = 0xEDC4 + (rate * 100.0) as u64;
            let scenario = format!("{runs} runs, rot rate {rate}, seed {seed:#x}");
            let mut p = EdcPipeline::new(
                8 << 20,
                PipelineConfig { parity: true, ..PipelineConfig::default() },
            );
            workload.drive(&mut p).expect("clean drive cannot fault");
            p.set_fault_plan(FaultPlan { seed, bit_rot_rate: rate, ..FaultPlan::none() });
            let report = p.scrub().unwrap_or_else(|e| panic!("{scenario}: scrub: {e}"));
            // Disarm injection; verification reads must see healed data.
            p.set_fault_plan(FaultPlan::none());
            let (_, lost) = workload.count_lost(&mut p);
            let second = p.scrub().expect("quiescent scrub");
            assert_eq!(
                (report.unrecoverable, lost),
                (0, 0),
                "{scenario}: unrecoverable runs and lost blocks ({report:?})"
            );
            if rate == 0.0 {
                assert_eq!(report.repaired, 0, "{scenario}: zero rot rate repaired runs");
            }
            assert_eq!(
                second.clean, second.scanned,
                "{scenario}: second pass not clean ({second:?})"
            );
        }

        let seed = 0xEDC5;
        let mut bare = EdcPipeline::new(8 << 20, PipelineConfig::default());
        workload.drive(&mut bare).expect("clean drive cannot fault");
        bare.set_fault_plan(FaultPlan { seed, bit_rot_rate: 1.0, ..FaultPlan::none() });
        let control = bare.scrub().expect("scrub without parity");
        assert!(
            control.unrecoverable > 0,
            "{runs} runs, seed {seed:#x}: the parity-less control healed itself ({control:?})"
        );
    }
}
