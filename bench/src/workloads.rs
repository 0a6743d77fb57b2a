//! The six workloads: which front-end, which store, which inputs. What each
//! one is for is in `spec::WORKLOADS` (and `README.md`); the op streams are
//! in `gen`.

use crate::gen;
use crate::scenario::{Path, Plan};
use edc::core::selector::{LadderRung, SelectorConfig};
use edc::core::HeatConfig;
use edc::prelude::{CodecId, PipelineConfig};

fn default_config() -> PipelineConfig {
    PipelineConfig::default()
}

fn dedup_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    cfg.dedup.enabled = true;
    cfg
}

/// `bench-heat`'s write path: the ladder pinned to its sustained-load rung
/// (Lzf), heat tracking on with a one-second half-life, and a cache larger
/// than any shard's hot set so the foreground tail shows the passes'
/// relocations rather than cache sizing.
fn heat_config() -> PipelineConfig {
    PipelineConfig {
        selector: SelectorConfig {
            rungs: vec![LadderRung {
                max_calc_iops: f64::INFINITY,
                codec: CodecId::Lzf,
            }],
        },
        cache_runs: 512,
        heat: HeatConfig {
            enabled: true,
            half_life_ns: 1_000_000_000,
            ..HeatConfig::default()
        },
        ..PipelineConfig::default()
    }
}

pub static PLANS: [Plan; 6] = [
    Plan {
        name: "ingest_bursty",
        front: Path::Direct,
        shards: 1,
        extent_blocks: 64,
        pipeline: default_config,
        fresh_store_per_round: false,
        round_pass_budget: None,
        setups: 7,
        trace_scale: 0.24,
        gen: gen::ingest_bursty,
    },
    Plan {
        name: "read_hot",
        front: Path::Direct,
        shards: 1,
        extent_blocks: 64,
        pipeline: default_config,
        fresh_store_per_round: false,
        round_pass_budget: None,
        setups: 3,
        trace_scale: 0.24,
        gen: gen::read_hot,
    },
    Plan {
        name: "read_cold",
        front: Path::Direct,
        shards: 1,
        extent_blocks: 64,
        pipeline: default_config,
        fresh_store_per_round: false,
        round_pass_budget: None,
        setups: 3,
        trace_scale: 0.24,
        gen: gen::read_cold,
    },
    Plan {
        name: "oltp_ring",
        front: Path::Ring { qd: 16 },
        shards: 2,
        extent_blocks: 64,
        pipeline: default_config,
        fresh_store_per_round: false,
        round_pass_budget: None,
        setups: 7,
        trace_scale: 0.16,
        gen: gen::oltp_ring,
    },
    Plan {
        name: "ingest_dedup",
        front: Path::Direct,
        shards: 1,
        extent_blocks: 64,
        pipeline: dedup_config,
        fresh_store_per_round: true,
        round_pass_budget: None,
        setups: 3,
        trace_scale: 0.24,
        gen: gen::ingest_dedup,
    },
    Plan {
        name: "heat_recompress",
        front: Path::Shard,
        shards: 4,
        extent_blocks: gen::HEAT_SLOT_BLOCKS,
        pipeline: heat_config,
        fresh_store_per_round: false,
        round_pass_budget: Some(64),
        setups: 3,
        trace_scale: 0.16,
        gen: gen::heat_recompress,
    },
];

pub fn plan(name: &str) -> Option<&'static Plan> {
    PLANS.iter().find(|p| p.name == name)
}
