//! The repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! edc-perfbench run --seed N [--seconds S] [--workload W] [--trace 0|1] [--quick] [--out FILE]
//! edc-perfbench compare A.json B.json
//! ```
//!
//! `run` with `--workload` and `--trace` is the driver's contract: one
//! workload, one mode, and the last line of standard output is one JSON
//! object. Without them it runs every workload untraced, then traced, and
//! writes the run-set JSON that `compare` reads.

mod compare;
mod gen;
mod hist;
mod json;
mod report;
mod scenario;
mod shadow;
mod spec;
mod trace;
mod workloads;

use json::{obj, Json};
use report::{Metric, TracedRun};
use scenario::{Epilogue, Path, Plan, Route};
use std::path::PathBuf;

/// Run length the op counts in `gen` are calibrated for, on the 2-CPU host
/// the benchmark was defined on; `--seconds` scales every count linearly.
const REFERENCE_SECONDS: f64 = 8.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: edc-perfbench run --seed N [--seconds S] [--workload W] [--trace 0|1] [--quick] [--out FILE]\n\
         \x20      edc-perfbench compare A.json B.json\n\
         workloads: {}",
        spec::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2)
}

fn parse_run(args: &[String]) -> Args {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: REFERENCE_SECONDS,
        trace: None,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = Some(value()),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        usage();
    }
    a
}

impl Args {
    /// The one factor every op count is multiplied by.
    fn count_scale(&self) -> f64 {
        self.seconds / REFERENCE_SECONDS * if self.quick { 0.05 } else { 1.0 }
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn traced(plan: &'static Plan, a: &Args) -> TracedRun {
    let front = plan.front;
    let route = |path, spans, shadow, epilogue| Route {
        path,
        spans,
        shadow,
        epilogue,
    };
    let mut routes = vec![
        route(front, false, false, Epilogue::ONCE),
        route(front, true, false, Epilogue::NONE),
    ];
    if matches!(front, Path::Ring { .. }) {
        routes.push(route(Path::Shard, true, false, Epilogue::NONE));
    }
    if front != Path::Direct {
        routes.push(route(Path::Direct, true, false, Epilogue::NONE));
    }
    routes.push(route(Path::Direct, true, true, Epilogue::SPANS));
    let mut out =
        scenario::run_routes(plan, a.seed, a.count_scale() * plan.trace_scale, &routes).into_iter();
    let mut next = || out.next().expect("one outcome per route");
    TracedRun {
        untraced: next(),
        front: next(),
        shard: matches!(front, Path::Ring { .. }).then(&mut next),
        pipeline: (front != Path::Direct).then(&mut next),
        shadowed: next(),
    }
}

/// Write the per-workload trace file: aggregates and the 1-in-64 op sample
/// of every traced path.
fn write_trace(plan: &Plan, run: &TracedRun) {
    let routes = [
        (Some(&run.front), plan.front.label()),
        (run.shard.as_ref(), "shard"),
        (run.pipeline.as_ref(), "pipeline"),
        (Some(&run.shadowed), "pipeline+shadow"),
    ];
    let docs: Vec<Json> = routes
        .iter()
        .filter_map(|(o, route)| {
            o.and_then(|o| o.tracer.as_ref())
                .map(|t| t.to_json(plan.name, route))
        })
        .collect();
    let dir = out_dir();
    let file = dir.join(format!("trace_{}.json", plan.name));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, Json::Arr(docs).pretty()))
    {
        eprintln!("could not write {}: {e}", file.display());
    }
}

struct WorkloadReport {
    json: Json,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn report_untraced(plan: &'static Plan, a: &Args) -> WorkloadReport {
    report::reset_peak_rss();
    let o = scenario::run_untraced(plan, a.seed, a.count_scale(), false);
    let lanes = report::lanes(&o.tally);
    let mut metrics = report::end_to_end(&o.tally, &lanes);
    println!(
        "== {} — untraced, seed {}, count scale {} ==",
        plan.name,
        a.seed,
        a.count_scale()
    );
    report::print_metrics("end-to-end:", &metrics);
    report::print_lanes(&lanes);
    println!(
        "  attempted {} ops, failed {}",
        o.tally.attempted, o.tally.failed
    );
    let json = obj([
        ("digest", format!("{:016x}", o.tally.digest).into()),
        ("untraced", report::op_counts_json(&o.tally)),
        ("latency", report::lanes_json(&lanes)),
        ("end_to_end", report::metrics_json(&metrics)),
    ]);
    // The driver's result line carries the metrics `BENCHMARK.json` bounds.
    metrics.truncate(spec::END_TO_END.len());
    WorkloadReport {
        json,
        attempted: o.tally.attempted,
        failed: o.tally.failed,
        metrics,
    }
}

fn report_traced(plan: &'static Plan, a: &Args) -> WorkloadReport {
    let run = traced(plan, a);
    write_trace(plan, &run);
    let budget = report::budget(plan.front.label(), &run);
    let metrics = report::per_layer(&run, &budget);
    println!(
        "== {} — traced, seed {}, count scale {} ==",
        plan.name,
        a.seed,
        a.count_scale() * plan.trace_scale
    );
    report::print_metrics("per-layer:", &metrics);
    report::print_budget(&budget);
    let (attempted, failed) = run.outcomes().fold((0, 0), |(x, f), o| {
        (x + o.tally.attempted, f + o.tally.failed)
    });
    let timer_ns = run.front.tracer.as_ref().map_or(0.0, |t| t.timer_ns);
    let json = obj([
        (
            "traced_digest",
            format!("{:016x}", run.untraced.tally.digest).into(),
        ),
        (
            "traced",
            obj([
                ("count_scale", (a.count_scale() * plan.trace_scale).into()),
                ("routes", (run.outcomes().count() as u64).into()),
                (
                    "measured_ops_per_route",
                    run.untraced.tally.measured_ops.into(),
                ),
                ("attempted", attempted.into()),
                ("failed", failed.into()),
                ("timer_ns_per_span", timer_ns.into()),
            ]),
        ),
        ("per_layer", report::metrics_json(&metrics)),
        ("budget", report::budget_json(&budget)),
    ]);
    WorkloadReport {
        json,
        attempted,
        failed,
        metrics,
    }
}

fn merge(parts: Vec<Json>) -> Json {
    Json::Obj(
        parts
            .into_iter()
            .flat_map(|p| p.as_obj().map(<[_]>::to_vec).unwrap_or_default())
            .collect(),
    )
}

fn run(a: &Args) -> i32 {
    let plans: Vec<&'static Plan> = match &a.workload {
        Some(name) => vec![workloads::plan(name).unwrap_or_else(|| usage())],
        None => workloads::PLANS.iter().collect(),
    };
    let mut failed_total = 0;
    let mut docs = Vec::new();
    let mut last = None;
    for plan in plans {
        let spec = spec::workload(plan.name).expect("every plan has a spec entry");
        let mut parts = vec![obj([("name", plan.name.into()), ("why", spec.why.into())])];
        for mode in [false, true] {
            if a.trace.is_some_and(|t| t != mode) {
                continue;
            }
            let r = if mode {
                report_traced(plan, a)
            } else {
                report_untraced(plan, a)
            };
            failed_total += r.failed;
            parts.push(r.json);
            last = Some((r.attempted, r.failed, r.metrics));
        }
        docs.push(merge(parts));
    }
    let contract = a.workload.is_some() && a.trace.is_some();
    if !contract || a.out.is_some() {
        let doc = obj([
            ("schema", 1u64.into()),
            ("comparable", (!a.quick).into()),
            (
                "host",
                report::host_json(a.seed, a.seconds, a.count_scale(), a.quick),
            ),
            ("workloads", Json::Arr(docs)),
        ]);
        let file = a
            .out
            .clone()
            .unwrap_or_else(|| out_dir().join(format!("runset_seed{}.json", a.seed)));
        let dir = file.parent().map(PathBuf::from).unwrap_or_default();
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, doc.pretty())) {
            Ok(()) => println!("wrote {}", file.display()),
            Err(e) => {
                eprintln!("could not write {}: {e}", file.display());
                return 2;
            }
        }
    }
    if a.quick {
        println!("--quick: counts / 20, same code paths; these numbers are NOT comparable with a full run");
    }
    if let (true, Some((attempted, failed, metrics))) = (contract, last) {
        println!("{}", report::contract_line(attempted, failed, &metrics));
        return 0;
    }
    i32::from(failed_total > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(&parse_run(rest)),
        Some((cmd, [x, y])) if cmd == "compare" => compare::main(x, y),
        _ => usage(),
    };
    std::process::exit(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> Args {
        Args {
            workload: None,
            seed,
            seconds: REFERENCE_SECONDS,
            trace: None,
            quick: true,
            out: None,
        }
    }

    /// On a small store the layer shadow predicts what the real store does —
    /// codec tag, payload length, cache verdict, pass outcome — for every
    /// workload, no op fails, and each side of the budget adds up.
    #[test]
    fn shadow_agrees_with_the_store_and_the_budget_adds_up() {
        for plan in &workloads::PLANS {
            let run = traced(plan, &quick(11));
            let budget = report::budget(plan.front.label(), &run);
            let metrics = report::per_layer(&run, &budget);
            let value = |name: &str| metrics.iter().find(|m| m.name == name).expect(name).value;
            assert!(
                run.shadowed.fidelity.checked > 0,
                "{}: nothing compared",
                plan.name
            );
            assert!(
                value("trace.shadow_fidelity") >= 0.99,
                "{}: {}",
                plan.name,
                value("trace.shadow_fidelity")
            );
            assert_eq!(value("failed_ops_share"), 0.0, "{}", plan.name);
            for side in [&budget.write, &budget.read] {
                let leaves: f64 = side.leaves.iter().map(|(_, ns)| ns).sum();
                let gap = (leaves + side.unattributed_ns - side.span_ns).abs();
                assert!(
                    gap <= 1e-6 * side.span_ns.max(1.0),
                    "{}: budget off by {gap} ns",
                    plan.name
                );
            }
        }
    }

    /// A read-back that returns the wrong bytes is a failed op: expecting
    /// the wrong unit in one slot fails that slot's read in every scan, and
    /// nothing else.
    #[test]
    fn a_seeded_mis_verify_is_counted_in_failed_ops_share() {
        let plan = workloads::plan("ingest_bursty").unwrap();
        let scale = quick(3).count_scale();
        let clean = scenario::run_untraced(plan, 3, scale, false).tally;
        assert_eq!(clean.failed, 0);
        let bad = scenario::run_untraced(plan, 3, scale, true).tally;
        assert_eq!(bad.failed, bad.scans.len() as u64);
        assert_eq!(bad.attempted, clean.attempted);
        let share = report::end_to_end(&bad, &report::lanes(&bad))
            .pop()
            .expect("sixteen metrics");
        assert_eq!(share.name, "failed_ops_share");
        assert_eq!(share.value, bad.failed as f64 / bad.attempted as f64);
        assert!(share.value > 0.0);
    }

    /// Same seed, same counts: what `compare` demands of two run-sets.
    #[test]
    fn counts_repeat_exactly_for_a_seed() {
        let plan = workloads::plan("ingest_dedup").unwrap();
        let scale = quick(5).count_scale();
        let (a, b) = (
            scenario::run_untraced(plan, 5, scale, false).tally,
            scenario::run_untraced(plan, 5, scale, false).tally,
        );
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.stored_per_logical, b.stored_per_logical);
    }
}
