//! # edc-core
//!
//! Elastic Data Compression (EDC) — the primary contribution of Mao et
//! al., *"Elastic Data Compression with Improved Performance and Space
//! Efficiency for Flash-based Storage Systems"* (IPDPS 2017) — plus the
//! Native and fixed-compression baselines it is evaluated against.
//!
//! EDC is a block-device-level compression layer that matches data of
//! different compressibility with different compression algorithms while
//! leveraging access idleness:
//!
//! * a [`monitor::WorkloadMonitor`] measures I/O intensity
//!   as *calculated IOPS* (4 KiB page-units per second),
//! * an [`selector::AlgorithmSelector`] maps intensity
//!   to a codec through a threshold ladder — strong codecs when idle, fast
//!   codecs when busy, none during bursts,
//! * a sampling compressibility check writes incompressible blocks through
//!   uncompressed (the 75 % rule),
//! * a [`sd::SequentialityDetector`] merges
//!   contiguous writes so larger units are compressed (paper Fig. 7),
//! * a [`allocator::QuantizedAllocator`] places
//!   compressed data in 25/50/75/100 % quanta (paper Fig. 5) backed by a
//!   segregated-fit [`slots::SlotStore`],
//! * a [`mapping::BlockMap`] tracks per-block LBA, size
//!   and the 3-bit codec tag.
//!
//! Two front-ends expose the pipeline:
//!
//! * [`pipeline::EdcPipeline`] — the real-bytes engine: give it actual
//!   block writes and it estimates, merges, compresses (with the
//!   from-scratch codecs in `edc-compress`) and hands back compressed
//!   segments plus mapping updates.
//! * [`scheme::SimScheme`] — the trace-replay engine used for the paper's
//!   experiments, where content compressibility comes from a calibrated
//!   [`content::ContentModel`] and CPU cost from the
//!   deterministic cost model, so multi-hour traces replay in seconds.
//!
//! Concurrent clients stripe over N pipelines through
//! [`shard::ShardedPipeline`], and [`ring::Ring`] adds an asynchronous
//! submission/completion-queue front-end on top of it — fixed-depth
//! per-shard rings with typed backpressure, so queue depth rather than
//! caller thread count drives device saturation. Every [`store::Op`] —
//! the serializable unit the ring carries and [`record`] logs — reaches a
//! store through one entry point, [`shard::ShardedPipeline::dispatch`];
//! a plain pipeline takes part as a one-shard store
//! ([`shard::ShardedPipeline::from_pipeline`]).
//!
//! Every pipeline entry point is fallible, funnelling into the unified
//! [`error::EdcError`]. Arm a seeded `edc_flash::FaultPlan` and the store
//! injects read faults, bit rot and power cuts; committed runs are
//! journaled ([`journal::MappingJournal`]) so
//! [`pipeline::EdcPipeline::recover`] rebuilds the mapping table after a
//! crash with zero data loss for journaled runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocator;
pub mod cache;
pub mod clock;
pub mod content;
pub mod dedup;
pub mod error;
pub mod feedback;
pub mod heat;
pub mod hints;
pub mod journal;
pub mod mapping;
pub mod monitor;
pub mod parallel;
pub mod pipeline;
pub mod record;
pub mod ring;
pub mod scheme;
pub mod sd;
pub mod selector;
pub mod shard;
pub mod slots;
pub mod store;
pub mod telemetry;

pub use allocator::{AllocPolicy, AllocStats, QuantizedAllocator};
pub use cache::{CacheStats, RunCache};
pub use clock::{Clock, ManualClock, WallClock};
pub use content::{CalibrationConfig, ContentModel};
pub use dedup::{content_hash64, DedupConfig, DedupIndex, DedupReport};
pub use error::{EdcError, WriteError};
pub use feedback::{FeedbackConfig, FeedbackSelector};
pub use heat::{HeatConfig, HeatTracker, Temperature};
pub use hints::{FileTypeHint, HintRegistry};
pub use journal::{MappingJournal, RecoveryError, Replay};
pub use mapping::{BlockMap, MappingEntry};
pub use monitor::WorkloadMonitor;
pub use pipeline::{
    EdcPipeline, PipelineConfig, PipelineStats, ReadError, RecompressReport, RecoveryReport,
    ScrubReport, WriteResult,
};
pub use record::{
    parse as parse_edcrr, Divergence, LogRecord, ParsedLog, Recorder, ReplayRefusal,
    ReplayReport, Replayer, StoreSpec,
};
pub use ring::{Ring, RingConfig, RingError, RingStats, Ticket};
pub use scheme::{CodecUsage, EdcConfig, Policy, SimConfig, SimScheme, BLOCK_BYTES};
pub use sd::{MergedRun, SdConfig, SequentialityDetector};
pub use selector::{codec_strength, AlgorithmSelector, LadderRung, SelectorConfig};
pub use shard::{ShardConfig, ShardedPipeline};
pub use slots::SlotStore;
pub use store::{Op, OpOutput};
pub use telemetry::{Sample, TieredSeries};
