//! Cross-crate integration: generated workloads and content flowing
//! through the full simulation and the real-bytes pipeline.

use edc::compress::{codec_by_id, CodecId};
use edc::core::pipeline::{EdcPipeline, PipelineConfig};
use edc::core::{
    CalibrationConfig, ContentModel, EdcConfig, Policy, SimConfig, SimScheme,
};
use edc::datagen::{BlockClass, ContentGenerator, DataMix};
use edc::flash::SsdConfig;
use edc::sim::replay::{replay, ReplayReport};
use edc::sim::Storage;
use edc::trace::{Trace, TracePreset};
use std::sync::Arc;

fn content() -> Arc<ContentModel> {
    Arc::new(ContentModel::calibrate(
        DataMix::primary_storage(),
        5,
        CalibrationConfig { samples: 1, small_bytes: 4096, large_bytes: 16384 },
    ))
}

fn storage() -> Storage {
    Storage::single(SsdConfig { logical_bytes: 64 << 20, ..SsdConfig::default() })
}

fn sim() -> SimConfig {
    SimConfig { cpu_workers: 1, ..SimConfig::default() }
}

fn run(policy: Policy, trace: &Trace, c: &Arc<ContentModel>) -> ReplayReport {
    let mut scheme = SimScheme::new(policy, storage(), sim(), c.clone());
    replay(trace, &mut scheme)
}

#[test]
fn full_matrix_on_synthetic_fin1() {
    let trace = TracePreset::Fin1.generate(20.0, 99);
    let c = content();
    let native = run(Policy::Native, &trace, &c);
    let lzf = run(Policy::Fixed(CodecId::Lzf), &trace, &c);
    let gzip = run(Policy::Fixed(CodecId::Deflate), &trace, &c);
    let bzip2 = run(Policy::Fixed(CodecId::Bwt), &trace, &c);
    let edc = run(Policy::Elastic(EdcConfig::default()), &trace, &c);

    // Every scheme must complete every request.
    let n = trace.requests.len() as u64;
    for r in [&native, &lzf, &gzip, &bzip2, &edc] {
        assert_eq!(r.overall.count, n, "{} lost requests", r.scheme);
    }
    // Ratio ordering (paper Fig. 8): Native < Lzf ≤ EDC ≤ Gzip < Bzip2.
    let rat = |r: &ReplayReport| r.space.compression_ratio();
    assert_eq!(rat(&native), 1.0);
    assert!(rat(&lzf) > 1.2);
    assert!(rat(&gzip) > rat(&lzf));
    assert!(rat(&bzip2) > rat(&gzip));
    assert!(rat(&edc) > rat(&lzf) * 0.95, "EDC {} vs Lzf {}", rat(&edc), rat(&lzf));
    assert!(rat(&edc) < rat(&bzip2));
    // Response ordering (paper Fig. 10): EDC fastest of the compressed
    // schemes; Bzip2 slowest by a wide margin.
    let ms = |r: &ReplayReport| r.overall.mean_ns;
    assert!(ms(&edc) < ms(&lzf), "EDC {} !< Lzf {}", ms(&edc), ms(&lzf));
    assert!(ms(&lzf) < ms(&gzip));
    assert!(ms(&gzip) < ms(&bzip2));
    assert!(ms(&bzip2) > 2 * ms(&native), "Bzip2 must visibly hurt latency");
    // Composite (paper Fig. 9): EDC best overall.
    for r in [&native, &lzf, &gzip, &bzip2] {
        assert!(
            edc.composite() > r.composite(),
            "EDC composite {} !> {} {}",
            edc.composite(),
            r.scheme,
            r.composite()
        );
    }
}

#[test]
fn replay_is_deterministic_end_to_end() {
    let trace = TracePreset::Usr0.generate(15.0, 7);
    let c = content();
    let a = run(Policy::Elastic(EdcConfig::default()), &trace, &c);
    let b = run(Policy::Elastic(EdcConfig::default()), &trace, &c);
    assert_eq!(a.overall, b.overall);
    assert_eq!(a.space, b.space);
    assert_eq!(a.ftl, b.ftl);
}

#[test]
fn compression_reduces_device_writes_and_erases() {
    // The endurance argument (paper §III-A objective 3): compressed
    // schemes write fewer bytes, so the FTL erases less.
    let trace = TracePreset::Prxy0.generate(30.0, 3);
    let c = content();
    let native = run(Policy::Native, &trace, &c);
    let lzf = run(Policy::Fixed(CodecId::Lzf), &trace, &c);
    assert!(
        lzf.device.bytes_written < native.device.bytes_written,
        "lzf {} !< native {}",
        lzf.device.bytes_written,
        native.device.bytes_written
    );
    assert!(lzf.ftl.erases <= native.ftl.erases);
}

#[test]
fn pipeline_stores_datagen_content_losslessly() {
    // Real bytes through the real pipeline: every content class, mixed
    // write sizes, interleaved reads.
    let mut store = EdcPipeline::new(8 << 20, PipelineConfig::default());
    let mut generator = ContentGenerator::new(31, DataMix::primary_storage());
    let mut written: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut t = 0u64;
    for i in 0..100u64 {
        let blocks = 1 + (i % 4) as usize;
        let mut data = Vec::new();
        for _ in 0..blocks {
            data.extend(generator.block(4096).1);
        }
        let offset = (i * 7 % 1500) * 4096;
        // Overwrites of earlier offsets are part of the test.
        written.retain(|(o, d)| o + d.len() as u64 <= offset || *o >= offset + data.len() as u64);
        store.write(t, offset, &data).expect("write");
        written.push((offset, data));
        t += 1_000_000;
        if i % 7 == 0 {
            // Interleaved read of the most recent write (flushes the SD).
            let (o, d) = written.last().unwrap().clone();
            assert_eq!(store.read(t, o, d.len() as u64).unwrap(), d);
        }
    }
    store.flush_all(t).expect("flush");
    for (o, d) in &written {
        assert_eq!(&store.read(t, *o, d.len() as u64).unwrap(), d, "offset {o}");
    }
    assert!(store.stats().compression_ratio() > 1.0);
}

#[test]
fn pipeline_tags_match_real_codecs() {
    // A compressible block stored by the pipeline must decompress with
    // the advertised codec from the raw device image semantics — verified
    // indirectly: write-through of random data, compression of text.
    let mut store = EdcPipeline::new(1 << 20, PipelineConfig::default());
    let mut generator = ContentGenerator::new(8, DataMix::primary_storage());
    let text = generator.block_of(BlockClass::Text, 4096);
    let noise = generator.block_of(BlockClass::Random, 4096);
    store.write(0, 0, &text).unwrap();
    let r1 = store.flush_all(1).unwrap().pop().unwrap();
    store.write(2, 8192, &noise).unwrap();
    let r2 = store.flush_all(3).unwrap().pop().unwrap();
    assert_ne!(r1.tag, CodecId::None, "text must compress");
    assert!(r1.payload_bytes < 4096);
    assert_eq!(r2.tag, CodecId::None, "noise must be written through");
    // And the payload sizes are consistent with running the codec directly.
    if let Some(codec) = codec_by_id(r1.tag) {
        assert_eq!(codec.compress(&text).len() as u64, r1.payload_bytes);
    }
}

#[test]
fn estimator_and_codecs_agree_on_datagen_classes() {
    // The estimator (which EDC trusts for the 75 % rule) must agree with
    // actual Lzf output on which datagen classes are incompressible.
    let estimator = edc::compress::Estimator::default();
    let lzf = codec_by_id(CodecId::Lzf).unwrap();
    let mut generator = ContentGenerator::new(17, DataMix::primary_storage());
    for class in BlockClass::ALL {
        let mut est_wt = 0i32;
        let mut real_wt = 0i32;
        const N: usize = 12;
        for _ in 0..N {
            let b = generator.block_of(class, 4096);
            if estimator.is_incompressible(&b) {
                est_wt += 1;
            }
            if lzf.compress(&b).len() > 3 * 4096 / 4 {
                real_wt += 1;
            }
        }
        let diff = (est_wt - real_wt).abs();
        assert!(
            diff <= N as i32 / 3,
            "{class:?}: estimator said {est_wt}/{N} write-through, lzf said {real_wt}/{N}"
        );
    }
}

#[test]
fn edc_write_through_dominates_for_incompressible_mix() {
    // A pure-random workload: EDC must end up storing essentially
    // everything uncompressed and match Native's space.
    let c = Arc::new(ContentModel::calibrate(
        DataMix::pure(BlockClass::Random),
        5,
        CalibrationConfig { samples: 1, small_bytes: 4096, large_bytes: 16384 },
    ));
    let trace = TracePreset::Fin1.generate(10.0, 2);
    let edc = run(Policy::Elastic(EdcConfig::default()), &trace, &c);
    assert!(
        edc.space.compression_ratio() < 1.05,
        "random content must not 'compress', got {}",
        edc.space.compression_ratio()
    );
}

#[test]
fn edc_works_on_rais5_and_hdd_platforms() {
    // The scheme must be platform-agnostic: RAIS5 (paper Fig. 11) and the
    // HDD backend (paper §VI future work) run the same policy unchanged.
    let trace = TracePreset::Fin2.generate(10.0, 23);
    let c = content();
    let platforms: Vec<(&str, Storage)> = vec![
        (
            "rais5",
            Storage::rais(
                edc::flash::RaisLevel::Rais5,
                5,
                SsdConfig { logical_bytes: 64 << 20, ..SsdConfig::default() },
            )
            .expect("valid RAIS5 shape"),
        ),
        ("hdd", Storage::hdd(256 << 20, edc::flash::HddTiming::default())),
    ];
    for (name, storage) in platforms {
        let mut scheme = SimScheme::new(
            Policy::Elastic(EdcConfig::default()),
            storage,
            sim(),
            c.clone(),
        );
        let report = replay(&trace, &mut scheme);
        assert_eq!(report.overall.count, trace.requests.len() as u64, "{name} lost requests");
        assert!(report.space.compression_ratio() > 1.1, "{name} must compress");
        assert!(report.overall.mean_ns > 0);
    }
}

#[test]
fn wear_leveling_config_reaches_the_scheme_device() {
    // SsdConfig::wear_level_threshold flows through Storage into the FTL.
    let trace = TracePreset::Prxy0.generate(20.0, 3);
    let c = content();
    let cfg = SsdConfig {
        logical_bytes: 32 << 20,
        wear_level_threshold: 4,
        ..SsdConfig::default()
    };
    let mut scheme = SimScheme::new(
        Policy::Native,
        Storage::single(cfg),
        SimConfig { precondition: 1.0, ..sim() },
        c,
    );
    let report = replay(&trace, &mut scheme);
    if report.wear.total_erases > 50 {
        // With WL active the spread stays bounded.
        assert!(report.wear.gini < 0.9, "wear too concentrated: {}", report.wear.gini);
    }
}
