//! `record-golden`: regenerate the committed golden `.edcrr` fixtures.

use crate::content::{noise_block, text_block};
use crate::heat::heat_block;
use crate::{CmdError, CmdResult};
use edc_compress::CodecId;
use edc_core::{FileTypeHint, ManualClock, Op, OpOutput, Recorder, StoreSpec};
use edc_flash::FaultPlan;
use std::path::Path;

/// Record a deterministic mixed op schedule (writes, batches, hints,
/// faults, a power cut, recovery, scrub, recompression, journal
/// truncation, dedup hits and a shared-run relocation) against a parity
/// store of `shards` shards (`0`: a plain pipeline).
///
/// # Panics
/// If the engine no longer produces the dedup hits and the relocation
/// the fixture exists to capture.
pub fn record(shards: u32) -> Recorder {
    let spec = StoreSpec {
        capacity_bytes: 16 << 20,
        shards,
        extent_blocks: 8,
        cache_runs: 16,
        parity: true,
        dedup: true,
        // Writes land on the fast (Lzf) rung so the recompression passes
        // below have a stronger codec to upgrade cold runs to — the same
        // shape the heat and dedup benches drive. The paper-default
        // elastic ladder would store this trickle of writes at Deflate
        // (calculated IOPS ≈ 0) and leave the passes nothing to do.
        fast_ladder: true,
        ..StoreSpec::default()
    };
    let store = spec.build();
    let mut rec = Recorder::new(spec);
    // 2 ms/op, the heat bench's steady mid-ladder cadence.
    let mut clock = ManualClock::new(0, 2_000_000);
    let mut ops: Vec<Op> = Vec::new();
    ops.push(Op::SetHint { offset: 0, len: 64 * 4096, hint: FileTypeHint::Text });
    for i in 0..12u64 {
        let mut data = if i % 5 == 4 { noise_block(i * 31 + 7) } else { text_block(i) };
        data.extend(text_block(i + 100));
        ops.push(Op::Write { offset: i * 3 * 4096, data });
    }
    ops.push(Op::WriteBatch {
        writes: (0..4u64).map(|i| ((40 + i * 3) * 4096, text_block(200 + i))).collect(),
    });
    ops.push(Op::Flush);
    for i in [0u64, 3, 7, 11] {
        ops.push(Op::Read { offset: i * 3 * 4096, len: 2 * 4096 });
    }
    ops.push(Op::Stats);
    // Arm bit rot, overwrite, scrub it clean, then recompress the lot.
    ops.push(Op::SetFaultPlan(FaultPlan {
        seed: 0xEDC_601D,
        bit_rot_rate: 0.02,
        ..FaultPlan::none()
    }));
    ops.push(Op::Write { offset: 0, data: text_block(7777) });
    ops.push(Op::Flush);
    ops.push(Op::Scrub);
    ops.push(Op::RecompressPass { target: CodecId::Deflate, max_rewrites: u64::MAX });
    ops.push(Op::Verify);
    // Yank the cord, recover, tear one shard's journal, recover again.
    ops.push(Op::PowerCut);
    ops.push(Op::Read { offset: 0, len: 4096 });
    ops.push(Op::Recover);
    ops.push(Op::TruncateJournal { shard: 1, bytes: 64 });
    ops.push(Op::Recover);
    for i in 0..12u64 {
        ops.push(Op::Read { offset: i * 3 * 4096, len: 2 * 4096 });
    }
    ops.push(Op::Stats);
    for op in &ops {
        rec.apply(&store, &mut clock, op);
    }
    // Dedup phase: three copies of one 4-block payload (two dedup hits),
    // a full overwrite releasing the first reference, then a long idle
    // gap so the cooled recompression pass relocates the still-shared run
    // and re-points its surviving referrers through journaled Ref
    // records. ACGT noise (as in the heat bench) so the Deflate rewrite
    // has pages to reclaim over the Lzf-stored original; blocks 64, 80
    // and 96 start even-numbered extents, keeping all three runs unsplit
    // on shard 0 — the per-shard dedup index only links runs it owns.
    let dup = heat_block(999, 0);
    let run_bytes = dup.len() as u64;
    for off in [64u64, 80, 96] {
        rec.apply(&store, &mut clock, &Op::Write { offset: off * 4096, data: dup.clone() });
    }
    rec.apply(&store, &mut clock, &Op::Flush);
    let shared = match rec.apply(&store, &mut clock, &Op::VerifyDedup) {
        OpOutput::Dedup(r) => r,
        other => panic!("verify_dedup failed while recording: {other:?}"),
    };
    assert!(shared.extra_refs >= 2, "fixture must capture dedup hits: {shared:?}");
    rec.apply(
        &store,
        &mut clock,
        &Op::Write { offset: 64 * 4096, data: heat_block(4242, 1) },
    );
    rec.apply(&store, &mut clock, &Op::Flush);
    rec.apply(&store, &mut clock, &Op::VerifyDedup);
    clock.advance(400_000_000_000);
    let pass = match rec.apply(
        &store,
        &mut clock,
        &Op::RecompressPass { target: CodecId::Deflate, max_rewrites: u64::MAX },
    ) {
        OpOutput::Recompress(r) => r,
        other => panic!("recompress failed while recording: {other:?}"),
    };
    assert!(pass.recompressed > 0, "fixture must capture a relocation: {pass:?}");
    assert!(pass.skipped_shared == 0, "the shared run must relocate, not be skipped: {pass:?}");
    let after = match rec.apply(&store, &mut clock, &Op::VerifyDedup) {
        OpOutput::Dedup(r) => r,
        other => panic!("verify_dedup failed while recording: {other:?}"),
    };
    assert!(after.shared_runs >= 1, "sharing must survive relocation: {after:?}");
    for off in [64u64, 80, 96] {
        rec.apply(&store, &mut clock, &Op::Read { offset: off * 4096, len: run_bytes });
    }
    rec.apply(&store, &mut clock, &Op::Scrub);
    rec.apply(&store, &mut clock, &Op::Stats);
    rec
}

/// `edc-bench record-golden <path>` — save [`record`]'s log on a
/// 2-shard store as a golden `.edcrr` fixture at `path`, and the same
/// schedule on a plain pipeline as `golden_plain.edcrr` beside it. Used to
/// generate the committed fixtures under `tests/fixtures/`; kept for
/// regeneration whenever the engine's observable behaviour intentionally
/// changes.
pub fn run(path: Option<&Path>) -> CmdResult {
    let Some(path) = path else {
        return Err(CmdError::Usage("usage: edc-bench record-golden <path.edcrr>".to_string()));
    };
    let plain = path.with_file_name("golden_plain.edcrr");
    for (shards, path) in [(2, path.to_path_buf()), (0, plain)] {
        let rec = record(shards);
        let save = || {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            rec.save(&path)
        };
        save().map_err(|e| CmdError::Usage(format!("saving {}: {e}", path.display())))?;
        eprintln!(
            "# recorded {} op(s) ({} bytes) into {}",
            rec.ops(),
            rec.bytes().len(),
            path.display()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    /// The committed fixtures are exactly what `record-golden` writes
    /// today: pins the op schedule and the [`crate::content`] generators
    /// under it, on two shards and on a plain pipeline.
    #[test]
    fn record_reproduces_the_committed_fixture() {
        let sharded = include_bytes!("../../../tests/fixtures/golden_sharded.edcrr");
        let plain = include_bytes!("../../../tests/fixtures/golden_plain.edcrr");
        assert!(super::record(2).bytes() == sharded, "record-golden drifted from the fixture");
        assert!(super::record(0).bytes() == plain, "record-golden drifted from the plain twin");
    }
}
