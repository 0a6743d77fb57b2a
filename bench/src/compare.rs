//! `compare <a.json> <b.json>`: do two run-sets agree?
//!
//! Per (workload, end-to-end metric): how much worse `b` is than `a`, as a
//! share of `a`, against the metric's bound. Every count metric and the
//! op-stream digest must be identical. Exit code 1 on a breach, on any
//! failed op, or when the two sets are not comparable at all.

use crate::json::Json;
use crate::spec::{self, Better, Kind};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn value(doc: &Json, section: &str, name: &str) -> Option<f64> {
    doc.get(section)?.get(name)?.get("value")?.as_f64()
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Returns the problems found (empty = the sets agree), printing one row per
/// end-to-end metric as it goes.
pub fn compare(a: &Json, b: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    for key in ["seed", "seconds", "count_scale", "quick"] {
        let (x, y) = (
            a.get("host").and_then(|h| h.get(key)),
            b.get("host").and_then(|h| h.get(key)),
        );
        if x != y {
            problems.push(format!(
                "host.{key} differs: {x:?} vs {y:?} — not the same inputs"
            ));
        }
    }
    for doc in [a, b] {
        if doc.get("comparable").and_then(Json::as_bool) != Some(true) {
            problems.push("a --quick run-set is stamped non-comparable".to_string());
        }
    }
    let empty: &[Json] = &[];
    let list = |d: &Json| {
        d.get("workloads")
            .and_then(Json::as_arr)
            .unwrap_or(empty)
            .to_vec()
    };
    let (wa, wb) = (list(a), list(b));
    if wa.len() != wb.len() || wa.is_empty() {
        problems.push(format!("{} vs {} workloads", wa.len(), wb.len()));
        return problems;
    }
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for (x, y) in wa.iter().zip(&wb) {
        let name = x.get("name").and_then(Json::as_str).unwrap_or("?");
        if y.get("name").and_then(Json::as_str) != Some(name) {
            problems.push(format!("workload order differs at {name}"));
            continue;
        }
        if x.get("digest") != y.get("digest") {
            problems.push(format!("{name}: op-stream digests differ"));
        }
        for (side, doc) in [("a", x), ("b", y)] {
            for (mode, section) in [("untraced", "end_to_end"), ("traced", "per_layer")] {
                let share = value(doc, section, spec::FAILED_OPS_SHARE.name);
                if share != Some(0.0) {
                    problems.push(format!(
                        "{name}: {side} {mode} run has failed_ops_share {share:?}"
                    ));
                }
            }
        }
        for m in &spec::END_TO_END {
            let (Some(va), Some(vb)) = (
                value(x, "end_to_end", m.name),
                value(y, "end_to_end", m.name),
            ) else {
                problems.push(format!("{name}: {} missing", m.name));
                continue;
            };
            let w = worse_by(va, vb, m.better);
            let flag = if w > m.bound { "  BREACH" } else { "" };
            println!(
                "{name:<16} {:<28} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.1}%{flag}",
                m.name,
                w * 100.0,
                m.bound * 100.0
            );
            if w > m.bound {
                problems.push(format!(
                    "{name}: {} worse by {:.2} % (bound {:.1} %)",
                    m.name,
                    w * 100.0,
                    m.bound * 100.0
                ));
            }
        }
        for m in spec::PER_LAYER.iter().filter(|m| m.kind == Kind::Count) {
            let (va, vb) = (value(x, "per_layer", m.name), value(y, "per_layer", m.name));
            if va.is_none() || va != vb {
                problems.push(format!(
                    "{name}: count {} differs: {va:?} vs {vb:?}",
                    m.name
                ));
            }
        }
    }
    problems
}

pub fn main(a: &str, b: &str) -> i32 {
    let docs = load(a).and_then(|x| load(b).map(|y| (x, y)));
    let (x, y) = match docs {
        Ok(d) => d,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let problems = compare(&x, &y);
    if problems.is_empty() {
        println!("the two run-sets agree: every end-to-end metric within its bound, every count metric and op-stream digest identical");
        0
    } else {
        for p in &problems {
            println!("PROBLEM: {p}");
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn runset(write_mib_s: f64, hits: f64, failed_share: f64) -> Json {
        let metric = |v: f64| obj([("value", v.into()), ("unit", "x".into())]);
        let failed = spec::FAILED_OPS_SHARE.name;
        let e2e = Json::Obj(
            spec::END_TO_END
                .iter()
                .map(|m| {
                    (
                        m.name,
                        if m.name == "write_mib_s" {
                            write_mib_s
                        } else {
                            1.0
                        },
                    )
                })
                .chain([(failed, failed_share)])
                .map(|(name, v)| (name.to_string(), metric(v)))
                .collect(),
        );
        let layers = Json::Obj(
            spec::PER_LAYER
                .iter()
                .map(|m| match m.name {
                    "cache.hit_rate" => (m.name, hits),
                    n if n == failed => (n, failed_share),
                    n => (n, 2.0),
                })
                .map(|(name, v)| (name.to_string(), metric(v)))
                .collect(),
        );
        obj([
            ("comparable", true.into()),
            (
                "host",
                obj([("seed", 1u64.into()), ("seconds", 8.0.into())]),
            ),
            (
                "workloads",
                Json::Arr(vec![obj([
                    ("name", "ingest_bursty".into()),
                    ("digest", "abc".into()),
                    ("end_to_end", e2e),
                    ("per_layer", layers),
                ])]),
            ),
        ])
    }

    #[test]
    fn identical_sets_agree_and_noise_within_bound_passes() {
        assert!(compare(&runset(100.0, 0.5, 0.0), &runset(100.0, 0.5, 0.0)).is_empty());
        assert!(compare(&runset(100.0, 0.5, 0.0), &runset(95.0, 0.5, 0.0)).is_empty());
        // Better is never a breach.
        assert!(compare(&runset(100.0, 0.5, 0.0), &runset(150.0, 0.5, 0.0)).is_empty());
    }

    #[test]
    fn breach_count_drift_and_failed_ops_are_problems() {
        assert_eq!(
            compare(&runset(100.0, 0.5, 0.0), &runset(70.0, 0.5, 0.0)).len(),
            1
        );
        assert_eq!(
            compare(&runset(100.0, 0.5, 0.0), &runset(100.0, 0.5001, 0.0)).len(),
            1
        );
        // Both of b's runs failed an op, and the count no longer matches a's.
        assert_eq!(
            compare(&runset(100.0, 0.5, 0.0), &runset(100.0, 0.5, 0.01)).len(),
            3
        );
        // The same failures on both sides are still refused.
        assert_eq!(
            compare(&runset(100.0, 0.5, 0.01), &runset(100.0, 0.5, 0.01)).len(),
            4
        );
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, Better::Lower), 0.0);
    }
}
