//! # edc — Elastic Data Compression for flash-based storage
//!
//! A from-scratch Rust reproduction of Mao, Jiang, Wu, Yang & Xi,
//! *"Elastic Data Compression with Improved Performance and Space
//! Efficiency for Flash-based Storage Systems"* (IPDPS 2017).
//!
//! EDC is a block-device-level compression layer that picks its
//! compression algorithm *elastically*: strong, slow codecs while the
//! system is idle; fast, weak codecs while it is busy; no compression at
//! all for bursts and for incompressible data. This workspace implements
//! the complete system and every substrate it needs:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`compress`] | Lzf-, Lz4-, Gzip(DEFLATE)- and Bzip2(BWT)-class codecs written from scratch, the sampling compressibility estimator, and the deterministic cost model |
//! | [`datagen`] | SDGen-equivalent synthetic content with controllable compressibility |
//! | [`trace`] | SPC/MSR trace parsers, synthetic bursty workload generators, workload statistics |
//! | [`flash`] | NAND SSD simulator: page-mapped FTL, garbage collection, wear, RAIS arrays |
//! | [`sim`] | discrete-event replay engine: event queue, CPU pool, latency accounting |
//! | [`core`] | EDC itself — monitor, selector, sequentiality detector, quantized allocator, mapping table — plus the Native/fixed baselines, a real-bytes [`EdcPipeline`](core::pipeline::EdcPipeline), the concurrent [`ShardedPipeline`](core::shard::ShardedPipeline) front-end, and the asynchronous [`Ring`](core::ring::Ring) submission/completion front-end |
//!
//! ## Quickstart
//!
//! ```
//! use edc::prelude::*;
//!
//! fn main() -> Result<(), EdcError> {
//!     // A 1 MiB EDC-compressed block store.
//!     let mut store = EdcPipeline::new(1 << 20, PipelineConfig::default());
//!     let block = vec![b'a'; 4096];
//!     store.write(0, 0, &block)?;          // buffered by the Sequentiality Detector
//!     store.flush_all(1_000)?;             // compress + place
//!     assert_eq!(store.read(2_000, 0, 4096)?, block);
//!     assert!(store.stats().compression_ratio() > 1.0);
//!     Ok(())
//! }
//! ```
//!
//! Every entry point is fallible: failures — including injected flash
//! faults and simulated power cuts (see [`prelude::FaultPlan`]) — come
//! back as typed [`prelude::EdcError`] values, and
//! [`EdcPipeline::recover`](core::pipeline::EdcPipeline::recover) replays
//! the mapping journal after a crash.
//!
//! See `examples/` for runnable scenarios and `crates/edc-bench` for the
//! harness that regenerates every figure and table of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use edc_compress as compress;
pub use edc_core as core;
pub use edc_datagen as datagen;
pub use edc_flash as flash;
pub use edc_sim as sim;
pub use edc_trace as trace;

/// The one-line import for typical users: the pipeline, its
/// configuration, the unified error, codec identifiers, fault plans, the
/// device configuration, and the op-dispatch / record-replay surface
/// ([`Op`](edc_core::store::Op), dispatched through
/// [`ShardedPipeline::dispatch`](edc_core::shard::ShardedPipeline::dispatch),
/// and [`Recorder`](edc_core::record::Recorder)).
///
/// ```
/// use edc::prelude::*;
///
/// let mut store = EdcPipeline::new(1 << 20, PipelineConfig::default());
/// assert!(store.read(0, 0, 4096).is_ok());
/// ```
pub mod prelude {
    pub use edc_compress::CodecId;
    pub use edc_core::error::EdcError;
    pub use edc_core::pipeline::{
        BatchWrite, EdcPipeline, PipelineConfig, PipelineStats, ReadError, RecoveryReport,
        WriteResult,
    };
    pub use edc_core::ring::{Ring, RingConfig, RingError, RingStats, Ticket};
    pub use edc_core::shard::{ShardConfig, ShardedPipeline};
    pub use edc_core::{
        Clock, ManualClock, Op, OpOutput, Recorder, ReplayRefusal, ReplayReport, Replayer,
        StoreSpec, TieredSeries, WallClock,
    };
    pub use edc_flash::{FaultPlan, SsdConfig};
}
