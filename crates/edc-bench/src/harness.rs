//! Dependency-free micro-benchmark harness.
//!
//! The workspace builds offline, so instead of `criterion` the in-tree
//! benches use this: median-of-N wall-clock timing over
//! [`std::time::Instant`], an optional per-iteration setup closure that
//! stays outside the timed region, throughput derivation from a bytes
//! count, and hand-rolled JSON output (no serde) for machine consumption
//! under `results/` — read back by [`parse_report`], the one parser of
//! that format.
//!
//! ```
//! use edc_bench::harness::Harness;
//!
//! let mut h = Harness::new("example", 5);
//! h.run("sum", || (0..1000u64).sum::<u64>());
//! println!("{}", h.render());
//! ```

use crate::{verdict, CmdError, CmdResult};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Timing of one benchmark case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Case name.
    pub name: String,
    /// All wall-clock samples, ns, in run order.
    pub samples_ns: Vec<u64>,
    /// Median sample, ns — the headline number.
    pub median_ns: u64,
    /// Fastest sample, ns.
    pub min_ns: u64,
    /// Slowest sample, ns.
    pub max_ns: u64,
    /// Bytes processed per iteration, when the case declared them.
    pub bytes_per_iter: Option<u64>,
}

impl CaseResult {
    /// Throughput in MiB/s from the median sample (None without a bytes
    /// count or with a zero-time median).
    pub fn throughput_mib_s(&self) -> Option<f64> {
        let bytes = self.bytes_per_iter?;
        if self.median_ns == 0 {
            return None;
        }
        Some(bytes as f64 / (1 << 20) as f64 / (self.median_ns as f64 * 1e-9))
    }
}

/// A named collection of benchmark cases plus free-form scalar metrics.
#[derive(Debug)]
pub struct Harness {
    /// Suite name (becomes the JSON `suite` field).
    pub name: String,
    samples: u32,
    results: Vec<CaseResult>,
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
    series: Vec<(String, Vec<(u64, f64)>)>,
}

impl Harness {
    /// A suite taking `samples` timed samples per case (after one
    /// untimed warm-up run). The median of the samples is reported.
    pub fn new(name: &str, samples: u32) -> Self {
        assert!(samples > 0, "at least one sample");
        Harness {
            name: name.to_string(),
            samples,
            results: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Time `routine` without setup. Returns the recorded case.
    pub fn run<T>(&mut self, name: &str, mut routine: impl FnMut() -> T) -> &CaseResult {
        self.run_prepared(name, None, || (), |()| routine())
    }

    /// Time `routine` with a declared bytes-per-iteration count so the
    /// report can show throughput.
    pub fn run_bytes<T>(
        &mut self,
        name: &str,
        bytes_per_iter: u64,
        mut routine: impl FnMut() -> T,
    ) -> &CaseResult {
        self.run_prepared(name, Some(bytes_per_iter), || (), |()| routine())
    }

    /// Time `routine(state)` where `state = setup()` runs before every
    /// sample, *outside* the timed region — the equivalent of criterion's
    /// `iter_batched`. Use it when the routine consumes or mutates state
    /// (e.g. a pipeline that must be rebuilt per sample).
    pub fn run_prepared<S, T>(
        &mut self,
        name: &str,
        bytes_per_iter: Option<u64>,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> T,
    ) -> &CaseResult {
        // Warm-up: populate caches/allocators, untimed.
        std::hint::black_box(routine(setup()));
        let mut samples_ns = Vec::with_capacity(self.samples as usize);
        for _ in 0..self.samples {
            let state = setup();
            let t0 = Instant::now();
            std::hint::black_box(routine(state));
            samples_ns.push(t0.elapsed().as_nanos() as u64);
        }
        self.record_case(name, samples_ns, bytes_per_iter)
    }

    /// Record a case from externally collected wall-clock samples — for
    /// protocols the closure-driven runners can't express, such as
    /// interleaving two arms' samples to cancel machine drift.
    pub fn record_case(
        &mut self,
        name: &str,
        samples_ns: Vec<u64>,
        bytes_per_iter: Option<u64>,
    ) -> &CaseResult {
        assert!(!samples_ns.is_empty(), "at least one sample");
        let mut sorted = samples_ns.clone();
        let median_ns = percentile(&mut sorted, 50);
        let case = CaseResult {
            name: name.to_string(),
            median_ns,
            min_ns: sorted[0],
            max_ns: sorted[sorted.len() - 1],
            samples_ns,
            bytes_per_iter,
        };
        self.results.push(case);
        self.results.last().expect("just pushed")
    }

    /// Attach a derived scalar (a speedup, a hit rate) to the report.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Attach a free-form annotation that travels with the report (e.g.
    /// "workers oversubscribe the 1 available CPU; speedup < 1 expected").
    /// Notes land in both the rendered text and the JSON `notes` array, so
    /// a surprising number is never silently reported without its context.
    pub fn note(&mut self, text: &str) {
        self.notes.push(text.to_string());
    }

    /// Attach a named trajectory series — `(t_ns, value)` points in
    /// chronological order, e.g. the samples drained from an
    /// `edc_core::TieredSeries` at the end of a soak run. Series land in
    /// the JSON report under a dedicated `series` section so dashboards
    /// can plot how a metric moved over the run, not just where it ended.
    pub fn series(&mut self, name: &str, points: impl IntoIterator<Item = (u64, f64)>) {
        self.series.push((name.to_string(), points.into_iter().collect()));
    }

    /// All recorded cases, in run order.
    pub fn results(&self) -> &[CaseResult] {
        &self.results
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!("== bench {} == (median of {} samples)\n", self.name, self.samples);
        for r in &self.results {
            out.push_str(&format!(
                "  {:<40} median {:>12.3} ms  (min {:.3}, max {:.3})",
                r.name,
                r.median_ns as f64 / 1e6,
                r.min_ns as f64 / 1e6,
                r.max_ns as f64 / 1e6,
            ));
            if let Some(t) = r.throughput_mib_s() {
                out.push_str(&format!("  {t:>8.1} MiB/s"));
            }
            out.push('\n');
        }
        for (k, v) in &self.metrics {
            out.push_str(&format!("  {k:<40} {v:.4}\n"));
        }
        for (name, points) in &self.series {
            out.push_str(&format!("  series {name:<33} {} points", points.len()));
            if let (Some(first), Some(last)) = (points.first(), points.last()) {
                out.push_str(&format!("  ({:.4} -> {:.4})", first.1, last.1));
            }
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }

    /// The report as a JSON document (hand-rolled; the workspace has no
    /// serde).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"suite\": {},\n", json_str(&self.name)));
        s.push_str(&format!("  \"samples_per_case\": {},\n", self.samples));
        s.push_str("  \"cases\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            s.push_str("    {");
            s.push_str(&format!("\"name\": {}, ", json_str(&r.name)));
            s.push_str(&format!("\"median_ns\": {}, ", r.median_ns));
            s.push_str(&format!("\"min_ns\": {}, ", r.min_ns));
            s.push_str(&format!("\"max_ns\": {}, ", r.max_ns));
            if let Some(b) = r.bytes_per_iter {
                s.push_str(&format!("\"bytes_per_iter\": {b}, "));
            }
            if let Some(t) = r.throughput_mib_s() {
                s.push_str(&format!("\"throughput_mib_s\": {t:.3}, "));
            }
            s.push_str(&format!(
                "\"samples_ns\": [{}]}}",
                r.samples_ns.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(", ")
            ));
            s.push_str(if i + 1 == self.results.len() { "\n" } else { ",\n" });
        }
        s.push_str("  ],\n");
        s.push_str("  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{}: {}", json_str(k), json_num(*v)));
        }
        s.push_str("},\n");
        // Trajectory series carry no `"name": ` key, so the line-based
        // [`parse_report`] never mistakes a series for a timed case.
        s.push_str("  \"series\": {");
        for (i, (name, points)) in self.series.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {}: [", json_str(name)));
            for (j, (t_ns, value)) in points.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("{{\"t_ns\": {t_ns}, \"value\": {}}}", json_num(*value)));
            }
            s.push(']');
        }
        if !self.series.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n");
        s.push_str("  \"notes\": [");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&json_str(n));
        }
        s.push_str("]\n}\n");
        s
    }

    /// Write the JSON report to `dir/BENCH_<name>.json`, creating `dir`.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }

    /// How every bench and campaign ends: print the report, write
    /// `BENCH_<name>.json` into `out_dir`, and turn the `violations` the
    /// run counted into its verdict.
    pub fn finish(&self, out_dir: &Path, violations: u64) -> CmdResult {
        print!("{}", self.render());
        let path = self.write_json(out_dir).map_err(|e| {
            CmdError::Usage(format!(
                "writing BENCH_{}.json into {}: {e}",
                self.name,
                out_dir.display()
            ))
        })?;
        eprintln!("# wrote {}", path.display());
        verdict(&self.name, violations)
    }
}

/// The `pct`-th percentile of `samples` by nearest rank (the element at
/// `len * pct / 100` once sorted; sorts in place). The one percentile
/// rule of every latency figure the harness reports.
pub fn percentile(samples: &mut [u64], pct: usize) -> u64 {
    assert!(!samples.is_empty(), "at least one sample");
    samples.sort_unstable();
    samples[(samples.len() * pct / 100).min(samples.len() - 1)]
}

/// What [`parse_report`] reads back from a `BENCH_*.json` document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedReport {
    /// Every case, in file order: its name and, when the case declared a
    /// bytes count, its `throughput_mib_s`.
    pub cases: Vec<(String, Option<f64>)>,
    /// Every scalar metric, in file order; a non-finite value (written
    /// as `null`) reads back as NaN, so a NaN gate still fails the check.
    pub metrics: Vec<(String, f64)>,
}

impl ParsedReport {
    /// The `gate0_*` verdict metrics (must be exactly 0 in a passing run).
    pub fn gates(&self) -> impl Iterator<Item = (&str, f64)> {
        self.metrics.iter().filter(|(k, _)| k.starts_with("gate0_")).map(|(k, v)| (k.as_str(), *v))
    }
}

/// Parse what [`Harness::to_json`] wrote. Line-based, relying on that
/// writer's layout (one case per line, the `metrics` object on one line;
/// the workspace has no serde); lines of any other shape are skipped.
pub fn parse_report(text: &str) -> ParsedReport {
    let mut report = ParsedReport::default();
    for line in text.lines() {
        if let Some(rest) = line.trim_start().strip_prefix("{\"name\": ") {
            let Some((name, rest)) = json_unstr(rest) else { continue };
            let throughput = rest
                .split_once("\"throughput_mib_s\": ")
                .and_then(|(_, v)| v[..v.find([',', '}'])?].trim().parse().ok());
            report.cases.push((name, throughput));
        } else if let Some(mut body) = line.trim_start().strip_prefix("\"metrics\": {") {
            while let Some((key, rest)) = json_unstr(body) {
                let rest = rest.strip_prefix(": ").unwrap_or(rest);
                let end = rest.find([',', '}']).unwrap_or(rest.len());
                match rest[..end].trim() {
                    "null" => report.metrics.push((key, f64::NAN)),
                    value => report.metrics.extend(value.parse().ok().map(|v| (key, v))),
                }
                body = rest[end..].trim_start_matches([',', ' ']);
            }
        }
    }
    report
}

/// Read one JSON string literal as [`json_str`] writes it from the front
/// of `s`; returns the unescaped string and the text after the closing
/// quote.
fn json_unstr(s: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = s.strip_prefix('"')?.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 2..])),
            '\\' => match chars.next()?.1 {
                'u' => {
                    let hex = s.get(i + 3..i + 7)?;
                    out.push(char::from_u32(u32::from_str_radix(hex, 16).ok()?)?);
                    chars.nth(3);
                }
                escaped => out.push(escaped),
            },
            c => out.push(c),
        }
    }
    None
}

/// JSON string literal (the names used here never need exotic escapes,
/// but quote/backslash/control handling keeps the output always valid).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number: finite floats as-is, non-finite as null (JSON has no NaN).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_requested_sample_count() {
        let mut h = Harness::new("t", 7);
        let r = h.run("noop", || 1 + 1);
        assert_eq!(r.samples_ns.len(), 7);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
    }

    #[test]
    fn setup_runs_outside_timed_region() {
        // Untestable directly without clock control; assert the plumbing:
        // setup runs once per sample plus the warm-up.
        let mut setups = 0u32;
        let mut h = Harness::new("t", 3);
        h.run_prepared("case", None, || setups += 1, |()| ());
        assert_eq!(setups, 4);
    }

    #[test]
    fn throughput_derives_from_bytes() {
        let mut h = Harness::new("t", 3);
        let r = h.run_bytes("copy", 1 << 20, || vec![0u8; 1 << 20]);
        assert_eq!(r.bytes_per_iter, Some(1 << 20));
        assert!(r.throughput_mib_s().unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut h = Harness::new("suite \"x\"", 2);
        h.run("a", || ());
        h.metric("speedup", 2.5);
        h.metric("nan", f64::NAN);
        h.note("ran with \"reduced\" load");
        let j = h.to_json();
        assert!(j.contains("\"suite \\\"x\\\"\""));
        assert!(j.contains("\"speedup\": 2.500000"));
        assert!(j.contains("\"nan\": null"));
        assert!(j.contains("\"notes\": [\"ran with \\\"reduced\\\" load\"]"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn series_lands_in_json_and_render() {
        let mut h = Harness::new("t", 2);
        h.run("a", || ());
        h.series("live_bytes", vec![(0, 1.0), (1_000, 2.5), (2_000, f64::NAN)]);
        let j = h.to_json();
        assert!(j.contains("\"series\": {"));
        assert!(j.contains("\"live_bytes\": [{\"t_ns\": 0, \"value\": 1.000000}"));
        assert!(j.contains("{\"t_ns\": 2000, \"value\": null}"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        // The line-based parser must not mistake a series for a case.
        assert_eq!(parse_report(&j).cases, vec![("a".to_string(), None)]);
        let text = h.render();
        assert!(text.contains("series live_bytes"));
        assert!(text.contains("3 points"));
    }

    #[test]
    fn parse_round_trips_case_names_and_gates() {
        let mut h = Harness::new("t", 2);
        h.run("plain", || ());
        h.record_case("write/dup40/on", vec![2_000_000, 1_000_000], Some(1 << 20));
        h.run("quoted \"name\" \\ \u{1}", || ());
        h.metric("gate0_unrepaired_loss", 0.0);
        h.metric("speedup", 2.5);
        h.metric("nan", f64::NAN);
        h.metric("gate0_trend_violation", 1.0);
        h.series("live_bytes", vec![(0, 1.0), (1_000, 2.5)]);
        h.note("a \"note\": 1, with, commas");
        let parsed = parse_report(&h.to_json());
        let names: Vec<&str> = parsed.cases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["plain", "write/dup40/on", "quoted \"name\" \\ \u{1}"]);
        assert_eq!(parsed.cases[0].1, None);
        // 1 MiB at the 2 ms median (the upper of two samples) = 500 MiB/s.
        assert_eq!(parsed.cases[1].1, Some(500.0));
        assert_eq!(
            parsed.gates().collect::<Vec<_>>(),
            [("gate0_unrepaired_loss", 0.0), ("gate0_trend_violation", 1.0)]
        );
        // Non-finite metrics are written as null and read back as NaN.
        assert_eq!(parsed.metrics.len(), 4);
        assert_eq!(parsed.metrics[1], ("speedup".to_string(), 2.5));
        assert!(parsed.metrics[2].0 == "nan" && parsed.metrics[2].1.is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank_on_the_sorted_samples() {
        let mut lat: Vec<u64> = (1..=200).rev().collect();
        assert_eq!(percentile(&mut lat, 50), 101);
        assert_eq!(percentile(&mut lat, 99), 199);
        assert_eq!(percentile(&mut lat, 100), 200);
        assert_eq!(percentile(&mut [7], 99), 7);
    }

    #[test]
    fn render_mentions_every_case() {
        let mut h = Harness::new("t", 2);
        h.run("alpha", || ());
        h.run_bytes("beta", 4096, || ());
        let text = h.render();
        assert!(text.contains("alpha") && text.contains("beta"));
        assert!(text.contains("MiB/s"));
    }
}
