//! `replay`: re-execute recorded `.edcrr` op logs and diff every output.

use crate::{verdict, CmdError, CmdResult};
use edc_core::Replayer;
use std::path::PathBuf;

/// `edc-bench replay <log.edcrr>...` — re-execute recorded op logs
/// against freshly built stores and diff every output digest. Passes
/// only when every log replays bit-exactly (no divergence, no torn
/// tail); prints each divergence otherwise.
pub fn run(paths: &[PathBuf]) -> CmdResult {
    if paths.is_empty() {
        return Err(CmdError::Usage(
            "usage: edc-bench replay <log.edcrr> [more.edcrr ...]".to_string(),
        ));
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
    verdict(&format!("replay of {} log(s)", paths.len()), failures)?;
    eprintln!("# replay passed: {} log(s) bit-exact", paths.len());
    Ok(())
}
