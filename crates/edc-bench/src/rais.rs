//! `rais-campaign`: member-kill timing × bit-rot sweep over a RAIS5
//! array storing real Lzf-compressed chunks, with a RAIS0 control that
//! must lose data loudly.

use crate::content::{noise_block, text_block};
use crate::{CmdResult, Harness};
use edc_flash::{FaultPlan, LossReason, RaisArray, RaisLevel, SsdConfig};
use std::path::Path;

/// Raw chunk content for the RAIS campaign: compressible text for most
/// `(row, pos)` slots, xorshift noise for every fourth, distinguished by
/// overwrite generation `generation`.
fn rais_chunk_content(chunk: usize, row: u64, pos: usize, generation: u64) -> Vec<u8> {
    let tag = row * 131 + pos as u64 * 17 + generation * 10_007;
    let mut out = Vec::with_capacity(chunk);
    while out.len() < chunk {
        if (row + pos as u64) % 4 == 3 {
            out.extend(noise_block(tag * 977 + 13));
        } else {
            out.extend(text_block(tag));
        }
    }
    out.truncate(chunk);
    out
}

/// What the RAIS campaign actually stores for `raw`: the Lzf stream when
/// it wins, the raw bytes when it doesn't (the pipeline's write-through
/// rule, so stored legs have genuinely variable compressed lengths).
fn rais_stored_form(raw: &[u8]) -> Vec<u8> {
    let lzf = edc_compress::codec_by_id(edc_compress::CodecId::Lzf).expect("lzf codec");
    let compressed = lzf.compress(raw);
    if compressed.len() < raw.len() {
        compressed
    } else {
        raw.to_vec()
    }
}

/// RAIS failure campaign (the elastic-RAIS tentpole gate): sweep
/// member-kill timing × bit-rot rate across RAIS0 (striping control) and
/// RAIS5 (compressed parity), checking that
///
/// 1. the RAIS5 sweep ends with **zero unrepaired loss** — every chunk
///    reads back bit-identical through rot repair, degraded service, and
///    online rebuild, and a sample of reconstructed legs round-trips
///    through the real Lzf decoder;
/// 2. RAIS0 loses data **loudly** — killed or rotted legs surface as
///    typed `Unrecoverable` errors, never silent garbage (and the control
///    must actually lose legs, or the sweep proves nothing);
/// 3. compressed parity writes strictly fewer device bytes than the
///    one-full-chunk-per-update control a compression-blind array pays;
/// 4. the paper's single-SSD trend (Fig. 11: compressed legs finish
///    device service faster than write-through legs) still holds on an
///    array that has been killed and rebuilt.
///
/// Gate outcomes are written as `gate0_*` metrics (must be exactly 0 in
/// a passing run — `check-bench` re-verifies committed baselines stay
/// that way). Writes `BENCH_rais.json`; fails on any gate violation.
pub fn run(smoke: bool, out_dir: &Path) -> CmdResult {
    const MEMBERS: usize = 5;
    const CHUNK: u64 = 64 * 1024;
    let member_cfg = SsdConfig {
        logical_bytes: 4 << 20, // 64 rows per member
        overprovision: 0.25,
        sectors_per_block: 64,
        gc_low_watermark: 3,
        ..SsdConfig::default()
    };
    let rows_written: u64 = if smoke { 12 } else { 48 };
    let kill_fracs: &[f64] = if smoke { &[0.5] } else { &[0.25, 0.5, 0.75] };
    // Per-fetch corruption probabilities, armed on ONE member at a time
    // (`set_member_fault_plan`). That keeps the sweep in the survivable
    // single-failure-per-row regime by construction — array-wide rot can
    // corrupt two legs of one row between repairs, which is a genuine
    // double fault (the URE-during-rebuild scenario) and rightly
    // unrepairable, so the zero-loss gate would then depend on seed luck
    // instead of the redundancy argument.
    let rot_rates: &[f64] = if smoke { &[0.0, 0.5] } else { &[0.0, 0.2, 0.5] };
    let samples = if smoke { 3 } else { 5 };

    let mut h = Harness::new("rais", samples);
    let mut failures = 0u64;

    // Fill rows `[0, rows)` of `a` and record (raw, stored) per slot.
    let fill = |a: &mut RaisArray, rows: u64, now: &mut u64| -> Vec<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut expect = Vec::new();
        for row in 0..rows {
            let legs: Vec<(Vec<u8>, Vec<u8>)> = (0..a.data_width())
                .map(|pos| {
                    let raw = rais_chunk_content(CHUNK as usize, row, pos, 0);
                    let stored = rais_stored_form(&raw);
                    (raw, stored)
                })
                .collect();
            let refs: Vec<&[u8]> = legs.iter().map(|(_, s)| s.as_slice()).collect();
            *now += 1_000_000;
            a.write_row(*now, row, &refs).expect("foreground write_row");
            expect.push(legs);
        }
        expect
    };

    // ---- RAIS5: the zero-loss sweep -------------------------------------
    let mut unrepaired = 0u64;
    let mut mismatches = 0u64;
    let mut degraded_reads = 0u64;
    let mut rot_repaired = 0u64;
    let mut rebuilt_chunks = 0u64;
    let mut decoded_samples = 0u64;
    let mut parity_written = 0u64;
    let mut parity_control = 0u64;
    let mut virtual_over_exported = 0.0f64;
    let mut scenario_idx = 0u64;

    for &kill_frac in kill_fracs {
        for &rot in rot_rates {
            let idx = scenario_idx;
            scenario_idx += 1;
            let mut a = RaisArray::new(RaisLevel::Rais5, MEMBERS, member_cfg, CHUNK)
                .expect("campaign RAIS5 shape is valid");
            let mut now = 0u64;
            let dw = a.data_width();
            let kill_at = ((rows_written as f64 * kill_frac) as u64).clamp(1, rows_written - 1);

            // Healthy foreground writes up to the kill point.
            let mut expect = fill(&mut a, kill_at, &mut now);

            // Rot soak on the healthy prefix: arm sticky bit rot on one
            // member (a different one than the upcoming kill victim),
            // scrub (detect + repair from the row), disarm, then scrub
            // again — the quiescent pass must come back fully repaired.
            if rot > 0.0 {
                let rot_member = (idx as usize + 1) % MEMBERS;
                a.set_member_fault_plan(
                    rot_member,
                    FaultPlan { seed: 0xEDC_A150 + idx, bit_rot_rate: rot, ..FaultPlan::none() },
                )
                .expect("arm rot member");
                now += 1_000_000;
                let first = a.scrub(now).expect("rot scrub");
                a.set_member_fault_plan(rot_member, FaultPlan::none()).expect("disarm rot");
                now += 1_000_000;
                let second = a.scrub(now).expect("quiescent scrub");
                rot_repaired += first.repaired + second.repaired;
                unrepaired += second.unrepaired;
                if second.unrepaired > 0 {
                    eprintln!(
                        "# FAIL: scenario {idx} (kill@{kill_frac}, rot {rot}): \
                         {} leg(s) unrepaired after quiescent scrub",
                        second.unrepaired
                    );
                    failures += 1;
                }
            }

            // Kill one member; remaining foreground writes land degraded
            // (the victim's legs become parity-backed phantoms).
            let victim = idx as usize % MEMBERS;
            a.kill_member(victim).expect("kill victim");
            for row in kill_at..rows_written {
                let legs: Vec<(Vec<u8>, Vec<u8>)> = (0..dw)
                    .map(|pos| {
                        let raw = rais_chunk_content(CHUNK as usize, row, pos, 0);
                        let stored = rais_stored_form(&raw);
                        (raw, stored)
                    })
                    .collect();
                let refs: Vec<&[u8]> = legs.iter().map(|(_, s)| s.as_slice()).collect();
                now += 1_000_000;
                a.write_row(now, row, &refs).expect("degraded write_row");
                expect.push(legs);
            }

            // Full degraded verification: every chunk bit-identical, and
            // compressed legs must round-trip the real Lzf decoder.
            let mut verify = |a: &mut RaisArray,
                              expect: &[Vec<(Vec<u8>, Vec<u8>)>],
                              now: &mut u64,
                              phase: &str|
             -> (u64, u64) {
                let lzf = edc_compress::codec_by_id(edc_compress::CodecId::Lzf).expect("lzf codec");
                let (mut loss, mut bad) = (0u64, 0u64);
                let mut decoded = 0u64;
                for (row, legs) in expect.iter().enumerate() {
                    for (pos, (raw, stored)) in legs.iter().enumerate() {
                        *now += 1_000_000;
                        match a.read_chunk(*now, row as u64, pos) {
                            Ok(read) => {
                                if &read.data != stored {
                                    eprintln!(
                                        "# FAIL: scenario {idx} {phase}: chunk ({row},{pos}) \
                                         not bit-identical"
                                    );
                                    bad += 1;
                                } else if stored.len() < raw.len() {
                                    // A genuinely compressed leg: prove the
                                    // served bytes still decode to the
                                    // original logical content.
                                    match lzf.decompress(&read.data, raw.len()) {
                                        Ok(back) if &back == raw => decoded += 1,
                                        _ => {
                                            eprintln!(
                                                "# FAIL: scenario {idx} {phase}: chunk \
                                                 ({row},{pos}) no longer decodes"
                                            );
                                            bad += 1;
                                        }
                                    }
                                }
                            }
                            Err(e) => {
                                eprintln!(
                                    "# FAIL: scenario {idx} {phase}: chunk ({row},{pos}): {e}"
                                );
                                loss += 1;
                            }
                        }
                    }
                }
                decoded_samples += decoded;
                (loss, bad)
            };
            let (l, b) = verify(&mut a, &expect, &mut now, "degraded");
            unrepaired += l;
            mismatches += b;
            failures += l + b;

            // Online rebuild: walk stripes in small steps with foreground
            // overwrites interleaved between steps.
            a.start_rebuild(victim).expect("start rebuild");
            let mut generation = 1u64;
            loop {
                now += 1_000_000;
                let step = a.rebuild_step(now, victim, 4).expect("rebuild step");
                rebuilt_chunks += step.reconstructed_chunks;
                if step.lost_chunks > 0 {
                    eprintln!("# FAIL: scenario {idx}: rebuild lost {} chunk(s)", step.lost_chunks);
                    unrepaired += step.lost_chunks;
                    failures += 1;
                }
                if step.done {
                    break;
                }
                // Foreground overwrite racing the rebuild walker.
                let row = (step.rows_done * 7 + idx) % rows_written;
                let pos = generation as usize % dw;
                let raw = rais_chunk_content(CHUNK as usize, row, pos, generation);
                let stored = rais_stored_form(&raw);
                now += 1_000_000;
                a.write_chunk(now, row, pos, &stored).expect("foreground during rebuild");
                expect[row as usize][pos] = (raw, stored);
                generation += 1;
            }
            if let Err(e) = a.verify_integrity() {
                eprintln!("# FAIL: scenario {idx}: integrity after rebuild: {e}");
                failures += 1;
                mismatches += 1;
            }
            let (l, b) = verify(&mut a, &expect, &mut now, "rebuilt");
            unrepaired += l;
            mismatches += b;
            failures += l + b;

            // Re-kill a *different* member: the rebuilt array must carry a
            // second, independent failure.
            let second = (victim + 2) % MEMBERS;
            a.kill_member(second).expect("kill second member");
            let (l, b) = verify(&mut a, &expect, &mut now, "re-killed");
            unrepaired += l;
            mismatches += b;
            failures += l + b;

            degraded_reads += a.repair_stats().degraded_reads;
            let cap = a.capacity();
            parity_written += cap.parity_bytes_written;
            parity_control += cap.parity_control_bytes;
            virtual_over_exported =
                virtual_over_exported.max(cap.virtual_bytes as f64 / cap.exported_bytes as f64);
        }
    }

    // ---- RAIS0 control: loss must be typed, never silent ----------------
    let mut rais0_typed = 0u64;
    let mut rais0_silent = 0u64;
    {
        let rot = *rot_rates.last().expect("at least one rot rate");
        let mut a = RaisArray::new(RaisLevel::Rais0, MEMBERS, member_cfg, CHUNK)
            .expect("campaign RAIS0 shape is valid");
        let mut now = 0u64;
        let expect = fill(&mut a, rows_written, &mut now);
        if rot > 0.0 {
            // Sticky rot with no redundancy: reads must fail typed.
            a.set_member_fault_plans(FaultPlan {
                seed: 0xEDC_A0A0,
                bit_rot_rate: rot,
                ..FaultPlan::none()
            });
        }
        a.kill_member(1).expect("kill RAIS0 member");
        for (row, legs) in expect.iter().enumerate() {
            for (pos, (_, stored)) in legs.iter().enumerate() {
                now += 1_000_000;
                match a.read_chunk(now, row as u64, pos) {
                    Ok(read) if &read.data == stored => {}
                    Ok(_) => {
                        eprintln!("# FAIL: RAIS0 served silent garbage at ({row},{pos})");
                        rais0_silent += 1;
                    }
                    Err(edc_flash::ArrayError::Unrecoverable { reason, .. }) => {
                        assert_eq!(reason, LossReason::NoRedundancy);
                        rais0_typed += 1;
                    }
                    Err(e) => {
                        eprintln!("# FAIL: RAIS0 unexpected error at ({row},{pos}): {e}");
                        rais0_silent += 1;
                    }
                }
            }
        }
        if rais0_typed == 0 {
            eprintln!("# FAIL: RAIS0 control lost nothing — the sweep proves nothing");
            failures += 1;
        }
        failures += rais0_silent;
    }

    // ---- Fig. 11 trend on a rebuilt array -------------------------------
    // Compressed legs must still finish device service faster than
    // write-through legs after a kill + online rebuild (the single-SSD
    // "compression shortens reads" trend surviving redundancy repair).
    let trend_violation = {
        let mut a = RaisArray::new(RaisLevel::Rais5, MEMBERS, member_cfg, CHUNK)
            .expect("trend RAIS5 shape is valid");
        let mut now = 0u64;
        let _ = fill(&mut a, rows_written.min(8), &mut now);
        a.kill_member(3).expect("kill");
        now += 1_000_000;
        let progress = a.rebuild(now, 3).expect("trend rebuild");
        assert!(progress.done && progress.lost_chunks == 0, "trend rebuild must be clean");
        // One row of tiny compressed legs, one row of write-through legs.
        let small = rais_stored_form(&rais_chunk_content(CHUNK as usize, 0, 0, 9));
        assert!(small.len() < CHUNK as usize / 2, "text chunk must compress well");
        let raw: Vec<u8> = rais_chunk_content(CHUNK as usize, 3, 0, 9);
        let dw = a.data_width();
        let small_row: Vec<&[u8]> = (0..dw).map(|_| small.as_slice()).collect();
        let raw_row: Vec<&[u8]> = (0..dw).map(|_| raw.as_slice()).collect();
        now += 1_000_000;
        a.write_row(now, 0, &small_row).expect("compressed row");
        now += 1_000_000;
        a.write_row(now, 1, &raw_row).expect("write-through row");
        let mut mean = |row: u64, now: &mut u64| -> f64 {
            let mut total = 0u64;
            let mut n = 0u64;
            for pass in 0..4u64 {
                for pos in 0..dw {
                    *now += 1_000_000 * (pass + 1);
                    let read = a.read_chunk(*now, row, pos).expect("trend read");
                    total += read.completion.finish_ns - read.completion.start_ns;
                    n += 1;
                }
            }
            total as f64 / n as f64
        };
        let compressed_ns = mean(0, &mut now);
        let through_ns = mean(1, &mut now);
        h.metric("trend_compressed_read_ns", compressed_ns);
        h.metric("trend_writethrough_read_ns", through_ns);
        eprintln!(
            "# rebuilt-array trend: compressed leg {compressed_ns:.0} ns vs \
             write-through {through_ns:.0} ns"
        );
        if compressed_ns < through_ns {
            0.0
        } else {
            failures += 1;
            eprintln!("# FAIL: compressed legs no longer faster on the rebuilt array");
            1.0
        }
    };

    // ---- Timed cases ----------------------------------------------------
    let make_killed = || {
        let mut a = RaisArray::new(RaisLevel::Rais5, MEMBERS, member_cfg, CHUNK)
            .expect("timed RAIS5 shape is valid");
        let mut now = 0u64;
        let expect = fill(&mut a, rows_written, &mut now);
        a.kill_member(2).expect("kill");
        (a, expect, now)
    };
    let logical = rows_written * (MEMBERS as u64 - 1) * CHUNK;
    h.run_prepared(
        "degraded_read_sweep",
        Some(logical),
        make_killed,
        |(mut a, expect, mut now)| {
            let mut served = 0u64;
            for (row, legs) in expect.iter().enumerate() {
                for pos in 0..legs.len() {
                    now += 1_000_000;
                    served +=
                        a.read_chunk(now, row as u64, pos).expect("timed read").data.len() as u64;
                }
            }
            (served, a)
        },
    );
    h.run_prepared(
        "rebuild_member_online",
        Some(rows_written * CHUNK),
        make_killed,
        |(mut a, _, mut now)| {
            now += 1_000_000;
            let progress = a.rebuild(now, 2).expect("timed rebuild");
            assert!(progress.done);
            (progress.reconstructed_bytes, a)
        },
    );

    // ---- Gate metrics (gate0_* must be exactly 0 in a passing run) ------
    let parity_gate = if parity_written < parity_control { 0.0 } else { 1.0 };
    if parity_gate > 0.0 {
        eprintln!(
            "# FAIL: compressed parity wrote {parity_written} B, not below the \
             uncompressed control {parity_control} B"
        );
        failures += 1;
    }
    h.metric("gate0_unrepaired_loss", unrepaired as f64);
    h.metric("gate0_degraded_mismatches", mismatches as f64);
    h.metric("gate0_rais0_silent_corruption", rais0_silent as f64);
    h.metric("gate0_parity_not_below_control", parity_gate);
    h.metric("gate0_trend_violation", trend_violation);
    h.metric("rais5_scenarios", scenario_idx as f64);
    h.metric("degraded_reads", degraded_reads as f64);
    h.metric("rot_repaired_legs", rot_repaired as f64);
    h.metric("rebuilt_chunks", rebuilt_chunks as f64);
    h.metric("lzf_decoded_samples", decoded_samples as f64);
    h.metric("rais0_typed_losses", rais0_typed as f64);
    h.metric("parity_written_mib", parity_written as f64 / (1 << 20) as f64);
    h.metric("parity_control_mib", parity_control as f64 / (1 << 20) as f64);
    h.metric("virtual_over_exported", virtual_over_exported);
    if rot_rates.iter().any(|&r| r > 0.0) && rot_repaired == 0 {
        eprintln!("# FAIL: rot scenarios repaired nothing — injection never fired");
        failures += 1;
    }
    if decoded_samples == 0 {
        eprintln!("# FAIL: no compressed leg was decode-verified");
        failures += 1;
    }

    eprintln!(
        "# RAIS5 sweep: {scenario_idx} scenario(s), {degraded_reads} degraded read(s), \
         {rot_repaired} rot repair(s), {rebuilt_chunks} rebuilt chunk(s), \
         {decoded_samples} Lzf decode proof(s), {unrepaired} unrepaired, \
         {mismatches} mismatch(es)"
    );
    eprintln!("# RAIS0 control: {rais0_typed} typed loss(es), {rais0_silent} silent corruption(s)");
    eprintln!(
        "# parity bytes: compressed {parity_written} < control {parity_control} \
         ({:.2}x); peak virtual/exported {virtual_over_exported:.2}x",
        parity_control as f64 / parity_written.max(1) as f64
    );

    h.finish(out_dir, failures)?;
    eprintln!(
        "# rais campaign passed: zero unrepaired loss across the kill x rot sweep, \
         compressed parity below control, trend intact on the rebuilt array"
    );
    Ok(())
}
