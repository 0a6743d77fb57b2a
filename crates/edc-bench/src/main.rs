//! `edc-bench` — regenerate the EDC paper's tables and figures, and run
//! the codec bench.
//!
//! ```text
//! cargo run -p edc-bench --release -- all
//! cargo run -p edc-bench --release -- fig10 --quick
//! cargo run -p edc-bench --release -- fig12 --out results
//! ```
//!
//! Subcommands: `fig1 fig2 fig3 table1 table2 fig8 fig9 fig10 fig11 fig12
//! ablations future-work timeline mixed calibrate bench-codecs replay
//! record-golden all` (the default). This file is argument parsing plus
//! the dispatch table; each subcommand lives in the `edc_bench` library
//! module the table names.
//!
//! Flags, each taken only by the subcommands that read it (any other
//! flag exits 2): `--quick` shrinks trace durations for the figures and
//! acts as `--smoke` for `bench-codecs`, where `--smoke` shrinks the
//! sweep; `--out DIR` sets the output directory (default `results/`) of
//! the figures and the bench; `bench-codecs --prior FILE`
//! records the decode rows of an earlier `BENCH_codecs.json` (same host,
//! the commit compared against) beside the fresh ones as
//! `prior_decompress_*` / `speedup_decompress_*` metrics. `replay
//! <log.edcrr>...` re-executes recorded op logs and fails on any
//! divergence; `record-golden <path>` regenerates the committed golden
//! fixtures; no other subcommand takes an operand. An unknown
//! subcommand or flag, or a stray operand, exits 2; a failed replay
//! exits 1.
//!
//! The zero-loss campaigns (power cuts, faults, scrub, RAIS, fuzzing)
//! and the heat and dedup space claims are seeded tests of the
//! `edc_bench` library, not subcommands.

use edc_bench::figures::{self, Figures};
use edc_bench::{codecs, golden, replay, CmdResult};
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
    /// Everything after the subcommand that is not a flag.
    operands: Vec<PathBuf>,
    /// Every flag given, in order, for the chosen row to vet.
    flags: Vec<String>,
}

/// One row of the dispatch table.
struct Command {
    /// The subcommand's name, then any aliases the usage string omits.
    names: &'static [&'static str],
    /// The flags the row reads; any other flag is refused.
    flags: &'static [&'static str],
    /// Whether the row reads operands; if not, one is refused.
    operands: bool,
    run: Run,
}

/// What a row runs.
enum Run {
    /// One group of paper figures, over a freshly built environment.
    Figures(fn(&Figures)),
    /// Anything else, handed the parsed arguments it needs.
    Cmd(fn(&Args) -> CmdResult),
}

/// What a figure group reads.
const FIGURE_FLAGS: &[&str] = &["--quick", "--out"];

const fn fig(names: &'static [&'static str], group: fn(&Figures)) -> Command {
    Command { names, flags: FIGURE_FLAGS, operands: false, run: Run::Figures(group) }
}

const fn cmd(
    names: &'static [&'static str],
    flags: &'static [&'static str],
    operands: bool,
    run: fn(&Args) -> CmdResult,
) -> Command {
    Command { names, flags, operands, run: Run::Cmd(run) }
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
    cmd(&["bench-codecs"], &["--quick", "--smoke", "--out", "--prior"], false, |a| {
        codecs::run(a.smoke, &a.out_dir, a.prior.as_deref())
    }),
    cmd(&["replay"], &[], true, |a| replay::run(&a.operands)),
    cmd(&["record-golden"], &[], true, |a| golden::run(a.operands.first().map(PathBuf::as_path))),
    fig(&["all"], Figures::all),
];

/// The usage text, generated from the table so the two cannot drift.
fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.names[0]).collect();
    format!(
        "usage: edc-bench [COMMAND] [--quick] [--smoke] [--out DIR] [--prior FILE] \
         [OPERAND...]\ncommands: {}",
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
        operands: Vec::new(),
        flags: Vec::new(),
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
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            _ if args.cmd.is_empty() => {
                args.cmd = arg;
                continue;
            }
            _ => {
                args.operands.push(PathBuf::from(arg));
                continue;
            }
        }
        args.flags.push(arg);
    }
    args.smoke |= args.quick;
    if args.cmd.is_empty() {
        args.cmd = "all".to_string();
    }
    Ok(args)
}

/// The row `args` names, once it is known to read every flag and
/// operand given.
fn command(args: &Args) -> Result<&'static Command, String> {
    let Some(command) = COMMANDS.iter().find(|c| c.names.contains(&args.cmd.as_str())) else {
        return Err(format!("unknown command {:?}", args.cmd));
    };
    if let Some(flag) = args.flags.iter().find(|f| !command.flags.contains(&f.as_str())) {
        return Err(format!("{} does not take {flag}", args.cmd));
    }
    match args.operands.first() {
        Some(operand) if !command.operands => {
            Err(format!("{} takes no operand, got {}", args.cmd, operand.display()))
        }
        _ => Ok(command),
    }
}

fn main() {
    let resolved = parse(std::env::args().skip(1)).and_then(|args| Ok((command(&args)?, args)));
    let (command, args) = resolved.unwrap_or_else(|complaint| {
        eprintln!("{complaint}\n{}", usage());
        std::process::exit(2);
    });
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
        assert_eq!(a.flags, ["--quick"]);
    }

    #[test]
    fn unknown_flags_and_missing_values_are_refused() {
        assert_eq!(parse_str("fig1 --nonsense").unwrap_err(), "unknown flag \"--nonsense\"");
        assert_eq!(parse_str("fig1 --out").unwrap_err(), "--out needs a value");
        // A known flag the subcommand does not read is refused too.
        let resolve = |line: &str| parse_str(line).and_then(|a| command(&a).map(|c| c.names[0]));
        assert_eq!(resolve("fig1 --prior x").unwrap_err(), "fig1 does not take --prior");
        assert_eq!(resolve("replay --smoke a.edcrr").unwrap_err(), "replay does not take --smoke");
        assert_eq!(resolve("--smoke").unwrap_err(), "all does not take --smoke");
        assert_eq!(resolve("fig1 --quick --out o"), Ok("fig1"));
        assert_eq!(resolve("bench-codecs --quick --prior old.json"), Ok("bench-codecs"));
        assert_eq!(resolve("replay a.edcrr"), Ok("replay"));
        assert_eq!(resolve("record-golden g.edcrr"), Ok("record-golden"));
        // Only `replay` and `record-golden` read operands.
        assert_eq!(
            resolve("table1 bogus-operand --out o").unwrap_err(),
            "table1 takes no operand, got bogus-operand"
        );
        assert_eq!(
            resolve("bench-codecs stray --smoke").unwrap_err(),
            "bench-codecs takes no operand, got stray"
        );
        let readers: Vec<&str> =
            COMMANDS.iter().filter(|c| c.operands).map(|c| c.names[0]).collect();
        assert_eq!(readers, ["replay", "record-golden"]);
        // The deleted subcommands are unknown commands.
        for gone in [
            "fault-campaign",
            "scrub-campaign",
            "rais-campaign",
            "fuzz",
            "check-bench",
            "bench-concurrency",
            "bench-heat",
            "bench-dedup",
        ] {
            assert_eq!(resolve(gone).unwrap_err(), format!("unknown command {gone:?}"));
        }
    }

    #[test]
    fn usage_and_module_doc_list_exactly_the_dispatched_subcommands() {
        let listed: Vec<&str> = COMMANDS.iter().map(|c| c.names[0]).collect();
        assert_eq!(listed.len(), 19);
        let mut unique: Vec<&str> = COMMANDS.iter().flat_map(|c| c.names).copied().collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 22, "a name dispatches to one row only");
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
