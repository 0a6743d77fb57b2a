//! `check-bench`: the verdict check over `BENCH_*.json` reports.
//!
//! Compares the *shape and verdicts* of a fresh run with the committed
//! baselines, never their timings: every `gate0_*` metric of the fresh
//! run must be exactly 0, and no gate or case *name* the baseline carries
//! may have vanished (a silent rename or drop is how a gate goes blind).
//! Measured times and rates are not compared — two runs on different
//! days say nothing about each other; the repo benchmark's paired
//! protocol (`bench/`) is the only place commits are compared by speed.

use crate::harness::parse_report;
use crate::{verdict, CmdError, CmdResult};
use std::path::{Path, PathBuf};

/// The violations of one fresh report against its baseline, as messages.
pub fn report_violations(baseline: &str, fresh: &str) -> Vec<String> {
    let (base, fresh) = (parse_report(baseline), parse_report(fresh));
    let mut out = Vec::new();
    for (case, _) in &base.cases {
        if !fresh.cases.iter().any(|(c, _)| c == case) {
            out.push(format!("case {case:?} missing from fresh run"));
        }
    }
    // A committed baseline only ever records its gates at zero, so the
    // fresh run must still carry every one of them and hold each of its
    // own at exactly 0.
    for (gate, _) in base.gates() {
        if !fresh.gates().any(|(g, _)| g == gate) {
            out.push(format!("gate metric {gate:?} missing from fresh run"));
        }
    }
    for (gate, value) in fresh.gates() {
        if value != 0.0 {
            out.push(format!("{gate}: {value} (gate metrics must be exactly 0)"));
        }
    }
    out
}

/// Check every `BENCH_*.json` in `baseline` against its counterpart in
/// `fresh`. A baseline directory that cannot be read, or holds no
/// reports, is a [`CmdError::Usage`]: there is nothing to check against.
pub fn run(baseline: &Path, fresh: &Path) -> CmdResult {
    let listing = std::fs::read_dir(baseline).map_err(|e| {
        CmdError::Usage(format!(
            "# check-bench: cannot read baseline dir {}: {e}",
            baseline.display()
        ))
    })?;
    let mut reports: Vec<PathBuf> = listing
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    reports.sort();
    if reports.is_empty() {
        return Err(CmdError::Usage(format!(
            "# check-bench: no BENCH_*.json baselines in {}",
            baseline.display()
        )));
    }
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let mut failures = 0u64;
    for base_path in &reports {
        let name = base_path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        let violations = match (read(base_path), read(&fresh.join(name))) {
            (Ok(base), Ok(fresh)) => report_violations(&base, &fresh),
            (Err(e), _) | (_, Err(e)) => vec![e],
        };
        if violations.is_empty() {
            eprintln!("# ok: {name}");
        }
        for v in &violations {
            eprintln!("# FAIL: {name}: {v}");
        }
        failures += violations.len() as u64;
    }
    verdict("check-bench", failures)?;
    eprintln!(
        "# check-bench passed: {} report(s), every gate 0, no gate or case vanished",
        reports.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Harness;

    /// A report with two cases timed at `ns` per sample and the given gate.
    fn report(ns: u64, gate: f64) -> Harness {
        let mut h = Harness::new("t", 1);
        h.record_case("write/a", vec![ns], Some(1 << 20));
        h.record_case("recover", vec![ns], None);
        h.metric("gate0_loss", gate);
        h.metric("ops_per_s", 1e9 / ns as f64);
        h
    }

    #[test]
    fn a_slower_fresh_run_passes() {
        // Every case 50 % slower, same names, gates at zero.
        let (base, fresh) = (report(1_000_000, 0.0), report(1_500_000, 0.0));
        assert_eq!(report_violations(&base.to_json(), &fresh.to_json()), Vec::<String>::new());
    }

    #[test]
    fn a_nonzero_gate_fails() {
        for bad in [2.0, f64::NAN] {
            let v = report_violations(&report(1_000, 0.0).to_json(), &report(1_000, bad).to_json());
            assert_eq!(v.len(), 1, "{v:?}");
            assert!(v[0].contains("gate0_loss"));
        }
    }

    #[test]
    fn a_vanished_gate_or_case_fails() {
        let base = report(1_000, 0.0).to_json();
        let mut renamed = Harness::new("t", 1);
        renamed.record_case("write/a", vec![1_000], Some(1 << 20));
        renamed.record_case("recover_renamed", vec![1_000], None);
        renamed.metric("gate0_loss_renamed", 0.0);
        let v = report_violations(&base, &renamed.to_json());
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("\"recover\""), "{v:?}");
        assert!(v[1].contains("\"gate0_loss\""), "{v:?}");
        // New names in the fresh run are not violations.
        assert!(report_violations(&renamed.to_json(), &renamed.to_json()).is_empty());
    }

    #[test]
    fn directories_are_checked_and_an_empty_baseline_is_a_usage_error() {
        let dir = std::env::temp_dir().join(format!("edc-check-bench-{}", std::process::id()));
        let (base, fresh, empty) = (dir.join("base"), dir.join("fresh"), dir.join("empty"));
        std::fs::create_dir_all(&empty).unwrap();
        report(1_000, 0.0).write_json(&base).unwrap();
        assert_eq!(run(&base, &base), Ok(()));
        // No fresh counterpart, then a failing one.
        assert!(matches!(run(&base, &fresh), Err(CmdError::Failed { violations: 1, .. })));
        report(1_000, 1.0).write_json(&fresh).unwrap();
        let failed = run(&base, &fresh).unwrap_err();
        assert_eq!(failed.exit_status(), 1);
        for unusable in [&empty, &dir.join("absent")] {
            let e = run(unusable, &fresh).unwrap_err();
            assert!(matches!(e, CmdError::Usage(_)), "{e:?}");
            assert_eq!(e.exit_status(), 2);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
