//! The names the benchmark is judged on: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `../BENCHMARK.json` lists the
//! same names; a unit test keeps the two from drifting apart.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "ingest_bursty",
        why: "the paper's scenario: bursty sequential overwrites in all three ladder bands; estimator, codecs, allocator and journal work, the read cache does not",
    },
    Workload {
        name: "read_hot",
        why: "Zipf reads over 48 runs that fit the 64-run cache: map lookup, LRU and copy-out are everything, codecs nothing",
    },
    Workload {
        name: "read_cold",
        why: "uniform reads over 16x the cache: fetch, checksum and decode dominate and the cache only evicts; the bypass pair of read_hot",
    },
    Workload {
        name: "oltp_ring",
        why: "8 KiB 70/30 Zipf overwrites and reads through Ring at QD 16 on 2 shards: SD cannot merge, slots churn, cache is invalidated, host overhead shows",
    },
    Workload {
        name: "ingest_dedup",
        why: "40 % duplicate blocks with dedup on: chunk+hash, the dedup index and Ref journal records work here and are bypassed everywhere else",
    },
    Workload {
        name: "heat_recompress",
        why: "Zipf 2:1 read/write rounds on 4 shards, each followed by an idle gap and a budgeted recompress pass: the only background work in the system",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Every workload reports every one of these (the driver's contract); the
/// README says which phase of each workload a metric comes from.
pub const END_TO_END: [EndToEnd; 15] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_mib_s",
        unit: "MiB/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p99_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_mib_s",
        unit: "MiB/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p99_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p99_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "stored_per_logical",
        unit: "ratio",
        better: Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "flash_written_per_logical",
        unit: "ratio",
        better: Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "recover_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "bg_pass_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.15,
    },
];

/// How `compare` treats a per-layer metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A wall-clock measurement from the traced run: reported, never gated.
    Time,
    /// Read from the store's own counters; exact for a `(seed, seconds)`.
    Count,
    /// A counter that depends on how the ring's drainer threads were
    /// scheduled: reported, not compared for equality.
    Sched,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn t(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Lower,
        kind: Kind::Time,
    }
}
const fn c(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        kind: Kind::Count,
    }
}
const fn s(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        kind: Kind::Sched,
    }
}

/// Module names are the layers. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [PerLayer; 59] = [
    t("ring.submit_ns_per_op", "ns/op"),
    t("ring.wait_ns_per_op", "ns/op"),
    t("ring.self_ns_per_op", "ns/op"),
    s("ring.drained_batches_per_kop", "1/kop", Lower),
    s("ring.coalesced_write_share", "share", Higher),
    s("ring.max_batch", "count", Higher),
    c("ring.rejected_full", "count", Lower),
    t("shard.self_ns_per_op", "ns/op"),
    c("shard.split_ops_share", "share", Lower),
    t("pipeline.write_ns_per_op", "ns/op"),
    t("pipeline.read_ns_per_op", "ns/op"),
    t("pipeline.flush_ns_per_run", "ns/run"),
    t("pipeline.unattributed_write_share", "share"),
    t("pipeline.unattributed_read_share", "share"),
    t("pipeline.copyout_ns_per_kib", "ns/KiB"),
    c("pipeline.programs_per_kop", "1/kop", Lower),
    t("monitor.ns_per_call", "ns/call"),
    t("selector.ns_per_call", "ns/call"),
    c("selector.bytes_share_none", "share", Lower),
    c("selector.bytes_share_lzf", "share", Higher),
    c("selector.bytes_share_deflate", "share", Higher),
    t("sd.ns_per_call", "ns/call"),
    c("sd.blocks_per_run", "blocks", Higher),
    c("sd.runs_per_kop", "1/kop", Lower),
    t("estimator.ns_per_kib", "ns/KiB"),
    c("estimator.write_through_share", "share", Lower),
    t("lzf.enc_ns_per_kib", "ns/KiB"),
    t("lzf.dec_ns_per_kib", "ns/KiB"),
    c("lzf.ratio", "ratio", Higher),
    t("deflate.enc_ns_per_kib", "ns/KiB"),
    t("deflate.dec_ns_per_kib", "ns/KiB"),
    c("deflate.ratio", "ratio", Higher),
    t("checksum.ns_per_kib", "ns/KiB"),
    t("dedup.chunk_hash_ns_per_kib", "ns/KiB"),
    c("dedup.hit_share", "share", Higher),
    c("dedup.elided_bytes_share", "share", Higher),
    t("allocator.ns_per_place", "ns/call"),
    c("allocator.internal_frag_share", "share", Lower),
    c("allocator.quantum_change_share", "share", Lower),
    t("slots.ns_per_alloc_release", "ns/call"),
    t("mapping.get_ns_per_block", "ns/block"),
    t("mapping.insert_ns_per_run", "ns/run"),
    c("mapping.mapped_blocks", "blocks", Higher),
    t("journal.append_ns_per_record", "ns/record"),
    t("journal.replay_ns_per_record", "ns/record"),
    c("journal.bytes_per_op", "B/op", Lower),
    c("journal.records_per_kop", "1/kop", Lower),
    t("cache.lookup_ns", "ns"),
    t("cache.insert_ns", "ns"),
    c("cache.hit_rate", "share", Higher),
    c("cache.evictions_per_kop", "1/kop", Lower),
    c("cache.invalidations_per_kop", "1/kop", Lower),
    t("heat.record_ns_per_call", "ns/call"),
    c("heat.recompressed_runs_per_pass", "runs/pass", Higher),
    c("heat.scanned_per_pass", "runs/pass", Lower),
    c("heat.bytes_reclaimed_share", "share", Higher),
    t("trace.overhead_share", "share"),
    PerLayer {
        name: "trace.shadow_fidelity",
        unit: "share",
        better: Higher,
        kind: Kind::Count,
    },
    FAILED_OPS_SHARE,
];

/// Failed, refused or mis-verified ops over ops attempted. The sixteenth
/// end-to-end metric: `run` prints it with the other fifteen and `compare`
/// refuses any value above 0. It is 0 on every healthy run, and the driver
/// judges an end-to-end metric as a share of its parent's median, so
/// `BENCHMARK.json` cannot list it there; it carries it as a per-layer count
/// and the driver reads failures from `failed` / `attempted` of the result
/// line.
pub const FAILED_OPS_SHARE: PerLayer = c("failed_ops_share", "share", Lower);

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn names(list: &[Json]) -> Vec<String> {
        list.iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    /// `BENCHMARK.json` is written by hand; this is what keeps it honest.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let w = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(
            names(w),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (j, w) in w.iter().zip(&WORKLOADS) {
            assert_eq!(j.get("why").unwrap().as_str().unwrap(), w.why);
            assert!(
                w.why.len() <= 200,
                "{} why is {} chars",
                w.name,
                w.why.len()
            );
        }
        let e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(
            names(e),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (j, m) in e.iter().zip(&END_TO_END) {
            assert_eq!(j.get("unit").unwrap().as_str().unwrap(), m.unit);
            assert_eq!(
                j.get("better").unwrap().as_str().unwrap(),
                m.better.as_str()
            );
            assert_eq!(j.get("bound").unwrap().as_f64().unwrap(), m.bound);
            assert!(m.bound <= 0.25);
        }
        let p = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(
            names(p),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (j, m) in p.iter().zip(&PER_LAYER) {
            assert_eq!(j.get("unit").unwrap().as_str().unwrap(), m.unit);
            assert_eq!(
                j.get("better").unwrap().as_str().unwrap(),
                m.better.as_str()
            );
        }
    }
}
