//! # edc-bench
//!
//! Experiment harness regenerating every table and figure of the EDC
//! paper's evaluation (§II measurements and §IV results). One module per
//! subcommand of the `edc-bench` binary, which is argument parsing plus a
//! dispatch table over them:
//!
//! * [`figures`] — `fig1` … `fig12`, `table1`, `table2`, the DESIGN.md
//!   ablations, the future-work group and `all`, over one
//!   [`ExperimentEnv`];
//! * [`codecs`] — `bench-codecs`, the per-codec throughput and ratio
//!   rows;
//! * [`replay`], [`golden`] — `.edcrr` replay and fixture recording.
//!
//! Shared pieces: the timing [`Harness`] and its report parser, and the
//! seeded block [`content`].
//!
//! The zero-loss campaigns and the space claims are seeded tests of this
//! crate, compiled only under `cargo test`: the power-cut sweep driver
//! (`sweep`), the fault, scrub and RAIS campaigns (`faults`, `scrub`,
//! `rais`), the decoder and `.edcrr` fuzzer (`fuzz`), and heat-aware
//! recompression and dedup against their control arms, with a power-cut
//! sweep each (`heat`, `dedup`). Their full sizes that are too slow for
//! a debug build are `#[ignore]`d and run with
//! `cargo test --release -- --ignored`.
//!
//! A wall-clock number measured here is never compared with one
//! committed from another run; comparing commits is the repo benchmark's
//! job (`bench/`, declared by `BENCHMARK.json`).
//!
//! See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codecs;
pub mod content;
pub mod env;
pub mod experiments;
pub mod figures;
pub mod golden;
pub mod harness;
pub mod output;
pub mod replay;

pub use env::ExperimentEnv;
pub use harness::Harness;
pub use output::Table;

/// Why a subcommand did not pass; the binary maps it to its exit status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmdError {
    /// `violations` checks of `what` failed (exit status 1): today only
    /// a replay that diverged.
    Failed {
        /// The run that failed.
        what: String,
        /// How many failures it counted.
        violations: u64,
    },
    /// The invocation or its input files cannot be used (exit status 2).
    Usage(String),
}

impl CmdError {
    /// The process exit status this error maps to.
    pub fn exit_status(&self) -> i32 {
        match self {
            CmdError::Failed { .. } => 1,
            CmdError::Usage(_) => 2,
        }
    }
}

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmdError::Failed { what, violations } => {
                write!(f, "# {what} FAILED with {violations} violation(s)")
            }
            CmdError::Usage(msg) => f.write_str(msg),
        }
    }
}

/// What every subcommand returns.
pub type CmdResult = Result<(), CmdError>;

/// `Ok` at zero violations, [`CmdError::Failed`] otherwise.
pub fn verdict(what: &str, violations: u64) -> CmdResult {
    if violations == 0 {
        Ok(())
    } else {
        Err(CmdError::Failed { what: what.to_string(), violations })
    }
}

#[cfg(test)]
mod dedup;
#[cfg(test)]
mod faults;
#[cfg(test)]
mod fuzz;
#[cfg(test)]
mod heat;
#[cfg(test)]
mod rais;
#[cfg(test)]
mod scrub;
#[cfg(test)]
mod sweep;
