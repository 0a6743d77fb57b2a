//! `edc-bench` — regenerate the EDC paper's tables and figures, and run
//! the store's verdict campaigns.
//!
//! ```text
//! cargo run -p edc-bench --release -- all
//! cargo run -p edc-bench --release -- fig10 --quick
//! cargo run -p edc-bench --release -- fig12 --out results
//! ```
//!
//! Subcommands: `fig1 fig2 fig3 table1 table2 fig8 fig9 fig10 fig11 fig12
//! ablations future-work timeline mixed calibrate bench-concurrency
//! bench-codecs bench-heat bench-dedup check-bench fault-campaign fuzz
//! scrub-campaign rais-campaign replay record-golden all` (the default).
//! This file is argument parsing plus the dispatch table; each subcommand
//! lives in the `edc_bench` library module the table names.
//!
//! Flags: `--quick` shrinks trace durations and bench workloads for smoke
//! runs, and `--smoke` does the same for the `bench-*` subcommands and
//! the campaigns; `--out DIR` sets the output directory (default
//! `results/`); `check-bench --baseline DIR --fresh DIR` checks a fresh
//! run's `BENCH_*.json` against the committed ones — every `gate0_*`
//! metric exactly 0, no gate or case name vanished, timings never
//! compared; `bench-codecs --prior FILE` records the decode rows of an
//! earlier `BENCH_codecs.json` (same host, the commit compared against)
//! beside the fresh ones as `prior_decompress_*` / `speedup_decompress_*`
//! metrics; `replay <log.edcrr>...` re-executes recorded op logs and
//! fails on any divergence; `record-golden <path>` regenerates the
//! committed golden fixture. An unknown subcommand or flag exits 2; a
//! failed gate exits 1.

use edc_bench::figures::{self, Figures};
use edc_bench::{
    check, codecs, concurrency, dedup, faults, fuzz, golden, heat, rais, replay, scrub, CmdResult,
};
use std::path::PathBuf;

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    /// The subcommand (`all` when none is given).
    cmd: String,
    /// `--quick`.
    quick: bool,
    /// `--smoke` or `--quick`.
    smoke: bool,
    /// `--out DIR`.
    out_dir: PathBuf,
    /// `--prior FILE`.
    prior: Option<PathBuf>,
    /// `--baseline DIR`.
    baseline: PathBuf,
    /// `--fresh DIR`.
    fresh: PathBuf,
    /// Everything after the subcommand that is not a flag.
    operands: Vec<PathBuf>,
}

/// One row of the dispatch table.
struct Command {
    /// The subcommand's name, then any aliases the usage string omits.
    names: &'static [&'static str],
    run: Run,
}

/// What a row runs.
enum Run {
    /// One group of paper figures, over a freshly built environment.
    Figures(fn(&Figures)),
    /// Anything else, handed the parsed arguments it needs.
    Cmd(fn(&Args) -> CmdResult),
}

const fn fig(names: &'static [&'static str], group: fn(&Figures)) -> Command {
    Command { names, run: Run::Figures(group) }
}

const fn cmd(names: &'static [&'static str], run: fn(&Args) -> CmdResult) -> Command {
    Command { names, run: Run::Cmd(run) }
}

const COMMANDS: &[Command] = &[
    fig(&["fig1"], Figures::fig1),
    fig(&["fig2"], Figures::fig2),
    fig(&["fig3"], Figures::fig3),
    fig(&["table1"], Figures::table1),
    fig(&["table2"], Figures::table2),
    fig(&["fig8"], Figures::single_ssd),
    fig(&["fig9"], Figures::single_ssd),
    fig(&["fig10"], Figures::single_ssd),
    fig(&["fig11"], Figures::fig11),
    fig(&["fig12"], Figures::fig12),
    fig(&["ablations"], Figures::ablations),
    fig(&["future-work", "endurance", "energy", "hdd"], Figures::future_work),
    fig(&["timeline"], Figures::timeline),
    fig(&["mixed"], Figures::mixed),
    fig(&["calibrate"], Figures::calibrate),
    cmd(&["bench-concurrency"], |a| concurrency::run(a.smoke, &a.out_dir)),
    cmd(&["bench-codecs"], |a| codecs::run(a.smoke, &a.out_dir, a.prior.as_deref())),
    cmd(&["bench-heat"], |a| heat::run(a.smoke, &a.out_dir)),
    cmd(&["bench-dedup"], |a| dedup::run(a.smoke, &a.out_dir)),
    cmd(&["check-bench"], |a| check::run(&a.baseline, &a.fresh)),
    cmd(&["fault-campaign"], |a| faults::run(a.smoke, &a.out_dir)),
    cmd(&["fuzz"], |a| fuzz::run(a.smoke, &a.out_dir)),
    cmd(&["scrub-campaign"], |a| scrub::run(a.smoke, &a.out_dir)),
    cmd(&["rais-campaign"], |a| rais::run(a.smoke, &a.out_dir)),
    cmd(&["replay"], |a| replay::run(&a.operands)),
    cmd(&["record-golden"], |a| golden::run(a.operands.first().map(PathBuf::as_path))),
    fig(&["all"], Figures::all),
];

/// The usage text, generated from the table so the two cannot drift.
fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.names[0]).collect();
    format!(
        "usage: edc-bench [COMMAND] [--quick] [--smoke] [--out DIR] [--prior FILE] \
         [--baseline DIR] [--fresh DIR] [OPERAND...]\ncommands: {}",
        names.join(" ")
    )
}

/// Parse the arguments after the program name; `Err` is the complaint.
fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        cmd: String::new(),
        quick: false,
        smoke: false,
        out_dir: PathBuf::from("results"),
        prior: None,
        baseline: PathBuf::from("results-baseline"),
        fresh: PathBuf::from("results"),
        operands: Vec::new(),
    };
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        let mut value =
            || argv.next().ok_or_else(|| format!("{arg} needs a value")).map(PathBuf::from);
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--smoke" => args.smoke = true,
            "--out" => args.out_dir = value()?,
            "--prior" => args.prior = Some(value()?),
            "--baseline" => args.baseline = value()?,
            "--fresh" => args.fresh = value()?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            _ if args.cmd.is_empty() => args.cmd = arg,
            _ => args.operands.push(PathBuf::from(arg)),
        }
    }
    args.smoke |= args.quick;
    if args.cmd.is_empty() {
        args.cmd = "all".to_string();
    }
    Ok(args)
}

fn main() {
    let bad_invocation = |complaint: String| -> ! {
        eprintln!("{complaint}\n{}", usage());
        std::process::exit(2);
    };
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| bad_invocation(e));
    let Some(command) = COMMANDS.iter().find(|c| c.names.contains(&args.cmd.as_str())) else {
        bad_invocation(format!("unknown command {:?}", args.cmd));
    };
    let outcome = match command.run {
        Run::Figures(group) => figures::run(args.quick, &args.out_dir, group),
        Run::Cmd(run) => run(&args),
    };
    if let Err(e) = outcome {
        eprintln!("{e}");
        std::process::exit(e.exit_status());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_values_and_operands_parse_in_any_order() {
        let a = parse_str("--out o bench-codecs --smoke --prior old.json").unwrap();
        assert_eq!((a.cmd.as_str(), a.quick, a.smoke), ("bench-codecs", false, true));
        assert_eq!((a.out_dir, a.prior), (PathBuf::from("o"), Some(PathBuf::from("old.json"))));
        let a = parse_str("replay a.edcrr b.edcrr").unwrap();
        assert_eq!(a.operands, [PathBuf::from("a.edcrr"), PathBuf::from("b.edcrr")]);
        let a = parse_str("--quick").unwrap();
        assert_eq!((a.cmd.as_str(), a.quick, a.smoke), ("all", true, true));
        let a = parse_str("check-bench").unwrap();
        assert_eq!((a.baseline, a.fresh), ("results-baseline".into(), "results".into()));
    }

    #[test]
    fn unknown_flags_and_missing_values_are_refused() {
        assert_eq!(parse_str("fig1 --nonsense").unwrap_err(), "unknown flag \"--nonsense\"");
        assert_eq!(parse_str("fig1 --out").unwrap_err(), "--out needs a value");
    }

    #[test]
    fn usage_and_module_doc_list_exactly_the_dispatched_subcommands() {
        let listed: Vec<&str> = COMMANDS.iter().map(|c| c.names[0]).collect();
        assert_eq!(listed.len(), 27);
        let mut unique: Vec<&str> = COMMANDS.iter().flat_map(|c| c.names).copied().collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 30, "a name dispatches to one row only");
        assert!(usage().ends_with(&listed.join(" ")));
        // The module doc's "Subcommands:" sentence is the same list.
        let doc: String = include_str!("main.rs")
            .lines()
            .map_while(|l| l.strip_prefix("//!"))
            .collect::<Vec<_>>()
            .join("");
        let doc = doc.split_once("Subcommands: `").expect("doc lists subcommands").1;
        let doc_names: Vec<&str> = doc.split_once('`').unwrap().0.split_whitespace().collect();
        assert_eq!(doc_names, listed);
    }
}
