//! The RAIS campaign, as seeded tests: member-kill timing × bit-rot sweep
//! over a RAIS5 array storing real Lzf-compressed chunks, with a RAIS0
//! control that must lose data loudly.

use crate::content::{noise_block, text_block};
use edc_flash::{ArrayError, FaultPlan, LossReason, RaisArray, RaisLevel, SsdConfig};

const MEMBERS: usize = 5;
const CHUNK: u64 = 64 * 1024;

/// Raw chunk content for the RAIS campaign: compressible text for most
/// `(row, pos)` slots, xorshift noise for every fourth, distinguished by
/// overwrite generation `generation`.
fn rais_chunk_content(row: u64, pos: usize, generation: u64) -> Vec<u8> {
    let tag = row * 131 + pos as u64 * 17 + generation * 10_007;
    let mut out = Vec::with_capacity(CHUNK as usize);
    while out.len() < CHUNK as usize {
        if (row + pos as u64) % 4 == 3 {
            out.extend(noise_block(tag * 977 + 13));
        } else {
            out.extend(text_block(tag));
        }
    }
    out.truncate(CHUNK as usize);
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

/// `(raw, stored)` of every leg of generation-0 row `row`.
type Row = Vec<(Vec<u8>, Vec<u8>)>;

fn row_legs(a: &RaisArray, row: u64) -> Row {
    (0..a.data_width())
        .map(|pos| {
            let raw = rais_chunk_content(row, pos, 0);
            let stored = rais_stored_form(&raw);
            (raw, stored)
        })
        .collect()
}

/// Write generation-0 rows `rows` of `a`, returning what each slot holds.
fn fill(a: &mut RaisArray, rows: std::ops::Range<u64>, now: &mut u64) -> Vec<Row> {
    rows.map(|row| {
        let legs = row_legs(a, row);
        let refs: Vec<&[u8]> = legs.iter().map(|(_, s)| s.as_slice()).collect();
        *now += 1_000_000;
        a.write_row(*now, row, &refs).unwrap_or_else(|e| panic!("write_row {row}: {e}"));
        legs
    })
    .collect()
}

/// Read every chunk of `expect` back: each must be bit-identical to what
/// was stored, and every genuinely compressed leg must still decode to
/// its raw content through the real Lzf decoder. Returns how many legs
/// were decode-verified.
///
/// # Panics
/// On the first chunk that fails to read, differs, or no longer decodes,
/// naming `scenario` and `phase`.
fn verify(a: &mut RaisArray, expect: &[Row], now: &mut u64, scenario: &str, phase: &str) -> u64 {
    let lzf = edc_compress::codec_by_id(edc_compress::CodecId::Lzf).expect("lzf codec");
    let mut decoded = 0u64;
    for (row, legs) in expect.iter().enumerate() {
        for (pos, (raw, stored)) in legs.iter().enumerate() {
            *now += 1_000_000;
            let read = a
                .read_chunk(*now, row as u64, pos)
                .unwrap_or_else(|e| panic!("{scenario} {phase}: chunk ({row},{pos}) lost: {e}"));
            assert!(
                &read.data == stored,
                "{scenario} {phase}: chunk ({row},{pos}) not bit-identical"
            );
            if stored.len() < raw.len() {
                let back = lzf.decompress(&read.data, raw.len());
                assert!(
                    back.as_ref().is_ok_and(|b| b == raw),
                    "{scenario} {phase}: chunk ({row},{pos}) no longer decodes"
                );
                decoded += 1;
            }
        }
    }
    decoded
}

/// The RAIS failure campaign (the elastic-RAIS gate): sweep member-kill
/// timing × bit-rot rate across RAIS0 (striping control) and RAIS5
/// (compressed parity), checking that
///
/// 1. the RAIS5 sweep ends with **zero unrepaired loss** — every chunk
///    reads back bit-identical through rot repair, degraded service, and
///    online rebuild, and reconstructed legs round-trip through the real
///    Lzf decoder;
/// 2. RAIS0 loses data **loudly** — killed or rotted legs surface as
///    typed `Unrecoverable` errors, never silent garbage (and the control
///    must actually lose legs, or the sweep proves nothing);
/// 3. compressed parity writes strictly fewer device bytes than the
///    one-full-chunk-per-update control a compression-blind array pays;
/// 4. the paper's single-SSD trend (Fig. 11: compressed legs finish
///    device service faster than write-through legs) still holds on an
///    array that has been killed and rebuilt.
///
/// Rot is armed on ONE member at a time (`set_member_fault_plan`), which
/// keeps the sweep in the survivable single-failure-per-row regime by
/// construction — array-wide rot can corrupt two legs of one row between
/// repairs, a genuine double fault that is rightly unrepairable.
fn rais_campaign(rows_written: u64, kill_fracs: &[f64], rot_rates: &[f64]) {
    let member_cfg = SsdConfig {
        logical_bytes: 4 << 20, // 64 rows per member
        overprovision: 0.25,
        sectors_per_block: 64,
        gc_low_watermark: 3,
        ..SsdConfig::default()
    };
    let rais5 = || RaisArray::new(RaisLevel::Rais5, MEMBERS, member_cfg, CHUNK).expect("shape");

    // ---- RAIS5: the zero-loss sweep -------------------------------------
    let (mut rot_repaired, mut decoded, mut scenarios) = (0u64, 0u64, 0u64);
    let (mut parity_written, mut parity_control) = (0u64, 0u64);
    for &kill_frac in kill_fracs {
        for &rot in rot_rates {
            let idx = scenarios;
            scenarios += 1;
            let seed = 0xEDC_A150 + idx;
            let scenario = format!(
                "{rows_written} rows, scenario {idx} (kill@{kill_frac}, rot {rot}, seed {seed:#x})"
            );
            let mut a = rais5();
            let mut now = 0u64;
            let kill_at = ((rows_written as f64 * kill_frac) as u64).clamp(1, rows_written - 1);

            // Healthy foreground writes up to the kill point.
            let mut expect = fill(&mut a, 0..kill_at, &mut now);

            // Rot soak on the healthy prefix: arm sticky bit rot on one
            // member (a different one than the upcoming kill victim),
            // scrub (detect + repair from the row), disarm, then scrub
            // again — the quiescent pass must come back fully repaired.
            if rot > 0.0 {
                let rot_member = (idx as usize + 1) % MEMBERS;
                let plan = FaultPlan { seed, bit_rot_rate: rot, ..FaultPlan::none() };
                a.set_member_fault_plan(rot_member, plan).expect("arm rot member");
                now += 1_000_000;
                let first = a.scrub(now).expect("rot scrub");
                a.set_member_fault_plan(rot_member, FaultPlan::none()).expect("disarm rot");
                now += 1_000_000;
                let second = a.scrub(now).expect("quiescent scrub");
                rot_repaired += first.repaired + second.repaired;
                assert_eq!(
                    second.unrepaired, 0,
                    "{scenario}: legs unrepaired after quiescent scrub"
                );
            }

            // Kill one member; remaining foreground writes land degraded
            // (the victim's legs become parity-backed phantoms).
            let victim = idx as usize % MEMBERS;
            a.kill_member(victim).expect("kill victim");
            expect.extend(fill(&mut a, kill_at..rows_written, &mut now));
            decoded += verify(&mut a, &expect, &mut now, &scenario, "degraded");

            // Online rebuild: walk stripes in small steps with foreground
            // overwrites interleaved between steps.
            a.start_rebuild(victim).expect("start rebuild");
            let mut generation = 1u64;
            loop {
                now += 1_000_000;
                let step = a.rebuild_step(now, victim, 4).expect("rebuild step");
                assert_eq!(step.lost_chunks, 0, "{scenario}: rebuild lost chunks");
                if step.done {
                    break;
                }
                // Foreground overwrite racing the rebuild walker.
                let row = (step.rows_done * 7 + idx) % rows_written;
                let pos = generation as usize % a.data_width();
                let raw = rais_chunk_content(row, pos, generation);
                let stored = rais_stored_form(&raw);
                now += 1_000_000;
                a.write_chunk(now, row, pos, &stored).expect("foreground during rebuild");
                expect[row as usize][pos] = (raw, stored);
                generation += 1;
            }
            if let Err(e) = a.verify_integrity() {
                panic!("{scenario}: integrity after rebuild: {e}");
            }
            decoded += verify(&mut a, &expect, &mut now, &scenario, "rebuilt");

            // Re-kill a *different* member: the rebuilt array must carry a
            // second, independent failure.
            a.kill_member((victim + 2) % MEMBERS).expect("kill second member");
            decoded += verify(&mut a, &expect, &mut now, &scenario, "re-killed");

            let cap = a.capacity();
            parity_written += cap.parity_bytes_written;
            parity_control += cap.parity_control_bytes;
        }
    }
    assert!(
        !rot_rates.iter().any(|&r| r > 0.0) || rot_repaired > 0,
        "{rows_written} rows: rot scenarios repaired nothing — injection never fired"
    );
    assert!(decoded > 0, "{rows_written} rows: no compressed leg was decode-verified");
    assert!(
        parity_written < parity_control,
        "{rows_written} rows: compressed parity wrote {parity_written} B, not below the \
         uncompressed control {parity_control} B"
    );

    // ---- RAIS0 control: loss must be typed, never silent ----------------
    let mut a = RaisArray::new(RaisLevel::Rais0, MEMBERS, member_cfg, CHUNK).expect("shape");
    let mut now = 0u64;
    let expect = fill(&mut a, 0..rows_written, &mut now);
    let rot = *rot_rates.last().expect("at least one rot rate");
    if rot > 0.0 {
        // Sticky rot with no redundancy: reads must fail typed.
        a.set_member_fault_plans(FaultPlan {
            seed: 0xEDC_A0A0,
            bit_rot_rate: rot,
            ..FaultPlan::none()
        });
    }
    a.kill_member(1).expect("kill RAIS0 member");
    let mut typed = 0u64;
    for (row, legs) in expect.iter().enumerate() {
        for (pos, (_, stored)) in legs.iter().enumerate() {
            now += 1_000_000;
            match a.read_chunk(now, row as u64, pos) {
                Ok(read) => assert!(
                    &read.data == stored,
                    "RAIS0, {rows_written} rows, seed 0xedca0a0: silent garbage at ({row},{pos})"
                ),
                Err(ArrayError::Unrecoverable { reason, .. }) => {
                    assert_eq!(reason, LossReason::NoRedundancy);
                    typed += 1;
                }
                Err(e) => {
                    panic!("RAIS0, {rows_written} rows: unexpected error at ({row},{pos}): {e}")
                }
            }
        }
    }
    assert!(
        typed > 0,
        "RAIS0, {rows_written} rows: the control lost nothing — the sweep proves nothing"
    );

    // ---- Fig. 11 trend on a rebuilt array -------------------------------
    // Compressed legs must still finish device service faster than
    // write-through legs after a kill + online rebuild (the single-SSD
    // "compression shortens reads" trend surviving redundancy repair).
    let mut a = rais5();
    let mut now = 0u64;
    fill(&mut a, 0..rows_written.min(8), &mut now);
    a.kill_member(3).expect("kill");
    now += 1_000_000;
    let progress = a.rebuild(now, 3).expect("trend rebuild");
    assert!(progress.done && progress.lost_chunks == 0, "trend rebuild must be clean");
    // One row of tiny compressed legs, one row of write-through legs.
    let small = rais_stored_form(&rais_chunk_content(0, 0, 9));
    assert!(small.len() < CHUNK as usize / 2, "text chunk must compress well");
    let raw = rais_chunk_content(3, 0, 9);
    let dw = a.data_width();
    now += 1_000_000;
    a.write_row(now, 0, &vec![small.as_slice(); dw]).expect("compressed row");
    now += 1_000_000;
    a.write_row(now, 1, &vec![raw.as_slice(); dw]).expect("write-through row");
    let mut service_ns = |row: u64| -> u64 {
        let mut total = 0u64;
        for pass in 0..4u64 {
            for pos in 0..dw {
                now += 1_000_000 * (pass + 1);
                let read = a.read_chunk(now, row, pos).expect("trend read");
                total += read.completion.finish_ns - read.completion.start_ns;
            }
        }
        total
    };
    let (compressed_ns, through_ns) = (service_ns(0), service_ns(1));
    assert!(
        compressed_ns < through_ns,
        "{rows_written} rows: compressed legs ({compressed_ns} ns) no longer faster than \
         write-through legs ({through_ns} ns) on the rebuilt array"
    );
}

/// The campaign at its smoke size: 12 rows, one kill point, rot off and
/// on.
#[test]
fn rais_campaign_loses_nothing_and_rais0_fails_loudly() {
    rais_campaign(12, &[0.5], &[0.0, 0.5]);
}

/// The full campaign: 48 rows, three kill points × three rot rates.
/// Release-only (`cargo test --release -- --ignored`); about 16 s in a
/// debug build.
#[test]
#[ignore = "full size; run with --release -- --ignored"]
fn rais_campaign_full_loses_nothing_and_rais0_fails_loudly() {
    rais_campaign(48, &[0.25, 0.5, 0.75], &[0.0, 0.2, 0.5]);
}
