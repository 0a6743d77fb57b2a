//! # edc-bench
//!
//! Experiment harness regenerating every table and figure of the EDC
//! paper's evaluation (§II measurements and §IV results), plus the
//! verdict campaigns that prove the real-bytes store loses nothing. One
//! module per subcommand of the `edc-bench` binary, which is argument
//! parsing plus a dispatch table over them:
//!
//! * [`figures`] — `fig1` … `fig12`, `table1`, `table2`, the DESIGN.md
//!   ablations, the future-work group and `all`, over one
//!   [`ExperimentEnv`];
//! * [`concurrency`], [`codecs`], [`heat`], [`dedup`] — the `bench-*`
//!   subcommands: every timing gate compares two arms measured in the
//!   same process;
//! * [`faults`], [`fuzz`], [`scrub`], [`rais`] — the zero-loss campaigns;
//! * [`check`] — `check-bench`, the verdict check over `BENCH_*.json`;
//! * [`replay`], [`golden`] — `.edcrr` replay and fixture recording.
//!
//! Shared pieces: the timing [`Harness`] and its report parser, the
//! power-cut [`sweep`] driver, and the seeded block [`content`].
//!
//! A wall-clock number measured here is never compared with one
//! committed from another run; comparing commits is the repo benchmark's
//! job (`bench/`, declared by `BENCHMARK.json`).
//!
//! See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod codecs;
pub mod concurrency;
pub mod content;
pub mod dedup;
pub mod env;
pub mod experiments;
pub mod faults;
pub mod figures;
pub mod fuzz;
pub mod golden;
pub mod harness;
pub mod heat;
pub mod output;
pub mod rais;
pub mod replay;
pub mod scrub;
pub mod sweep;

pub use env::ExperimentEnv;
pub use harness::Harness;
pub use output::Table;

/// Why a subcommand did not pass; the binary maps it to its exit status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmdError {
    /// `violations` gates of `what` failed (exit status 1).
    Failed {
        /// The campaign or bench that failed.
        what: String,
        /// How many gate violations it counted.
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
