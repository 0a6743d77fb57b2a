//! Dependency-free, seeded, structure-aware fuzzer for every
//! `edc-compress` decoder.
//!
//! The decoder-hardening contract (DESIGN.md §10) says: for *arbitrary*
//! input bytes, `decompress`/`decompress_into` must return a typed error
//! or an exactly-sized `Ok` — never panic, never loop unboundedly, and
//! never grow the output past `expected_len`. This module is the proof
//! engine behind that claim:
//!
//! * **Corpus** — valid compressed streams of every codec over text-like,
//!   zero, periodic and random blocks (plus framed streams for
//!   [`edc_compress::frame`]).
//! * **Mutations** — seeded bit flips, byte sets, truncations, random
//!   extensions, cross-stream splices, region duplications, and pure
//!   random byte strings; each decoded against several expected lengths
//!   (the true one, zero, small, and decorrelated random values).
//! * **Oracle** — every decode runs under [`std::panic::catch_unwind`]
//!   (with the default hook silenced for the run): a panic, an `Ok` of
//!   the wrong size, or an output buffer past `expected_len` is a crash.
//! * **Minimizer** — greedy chunk-then-byte removal shrinks any crasher
//!   before it is reported, so the reproducer that lands in a regression
//!   fixture is as small as the failure allows.
//!
//! The `edc-bench fuzz` subcommand ([`run`]) drives [`run_campaign`] and
//! fails on any crash; minimized crashers are printed as Rust array
//! literals ready to check in under
//! `crates/edc-compress/tests/fuzz_regressions.rs`.

use crate::{CmdResult, Harness};
use edc_compress::{codec_by_id, frame, Codec, CodecId};
use edc_datagen::rng::Rng64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// What the oracle observed for one decoded input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Typed error, buffer within bounds — the expected outcome for
    /// mutated input.
    Rejected,
    /// Clean decode of exactly `expected_len` bytes (mutations that load
    /// only dead stream regions can still decode).
    Accepted,
    /// The decoder panicked.
    Panicked,
    /// `Ok` was returned but the output length was not `expected_len`.
    WrongLength,
    /// The output buffer exceeded `expected_len` (even on an `Err`).
    Overrun,
}

/// A minimized crashing input.
#[derive(Debug, Clone)]
pub struct Crash {
    /// Codec whose decoder misbehaved (`None` = the frame decoder).
    pub codec: Option<CodecId>,
    /// Expected length passed to the decoder.
    pub expected_len: usize,
    /// Minimized input bytes that still reproduce the failure.
    pub input: Vec<u8>,
    /// Which contract clause was violated.
    pub verdict: Verdict,
}

/// Aggregate result of a fuzz campaign.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Total mutated/random inputs decoded (each counted once, even
    /// though several expected lengths are tried per input).
    pub inputs: u64,
    /// Decodes that returned a typed error within bounds.
    pub rejected: u64,
    /// Decodes that legitimately succeeded.
    pub accepted: u64,
    /// Contract violations, minimized. Empty means the campaign passed.
    pub crashes: Vec<Crash>,
}

impl FuzzReport {
    /// True when no decoder violated the hardening contract.
    pub fn passed(&self) -> bool {
        self.crashes.is_empty()
    }
}

/// Decode `input` with `codec` against `expected_len` under the panic
/// oracle. Returns the verdict for this single decode.
fn oracle(codec: &dyn Codec, input: &[u8], expected_len: usize) -> Verdict {
    let mut out = Vec::new();
    let result = catch_unwind(AssertUnwindSafe(|| codec.decompress_into(input, expected_len, &mut out)));
    match result {
        Err(_) => Verdict::Panicked,
        Ok(Ok(())) => {
            if out.len() == expected_len {
                Verdict::Accepted
            } else {
                Verdict::WrongLength
            }
        }
        Ok(Err(_)) => {
            if out.len() > expected_len {
                Verdict::Overrun
            } else {
                Verdict::Rejected
            }
        }
    }
}

/// Decode a frame under the panic oracle (frames carry their own length).
fn frame_oracle(input: &[u8]) -> Verdict {
    match catch_unwind(AssertUnwindSafe(|| frame::decompress(input))) {
        Err(_) => Verdict::Panicked,
        Ok(Ok(_)) => Verdict::Accepted,
        Ok(Err(_)) => Verdict::Rejected,
    }
}

fn is_crash(v: Verdict) -> bool {
    matches!(v, Verdict::Panicked | Verdict::WrongLength | Verdict::Overrun)
}

/// One corpus entry: a valid stream and the original length it encodes.
struct Seed {
    stream: Vec<u8>,
    original_len: usize,
}

/// Build the valid-stream corpus for one codec: text-like, all-zero,
/// periodic, random, tiny and empty blocks.
fn corpus_for(codec: &dyn Codec, rng: &mut Rng64) -> Vec<Seed> {
    let mut blocks: Vec<Vec<u8>> = vec![
        Vec::new(),
        vec![0u8; 4096],
        b"elastic data compression for flash based storage systems "
            .iter()
            .copied()
            .cycle()
            .take(4096)
            .collect(),
        (0..=255u8).cycle().take(2048).collect(),
        vec![rng.next_u64() as u8; 37],
    ];
    let mut random = vec![0u8; 1024];
    rng.fill_bytes(&mut random);
    blocks.push(random);
    let mut alphabet = vec![0u8; 3000];
    for b in &mut alphabet {
        *b = b'a' + rng.below(5) as u8;
    }
    blocks.push(alphabet);
    blocks
        .into_iter()
        .map(|b| Seed { stream: codec.compress(&b), original_len: b.len() })
        .collect()
}

/// Apply one seeded mutation to `stream` in place; may change its length.
fn mutate(rng: &mut Rng64, stream: &mut Vec<u8>, donor: &[u8]) {
    match rng.below(7) {
        // Bit flips.
        0 => {
            if stream.is_empty() {
                stream.push(rng.next_u64() as u8);
                return;
            }
            for _ in 0..rng.range_usize(1, 9) {
                let pos = rng.below_usize(stream.len());
                stream[pos] ^= 1 << rng.below(8);
            }
        }
        // Byte sets.
        1 => {
            if stream.is_empty() {
                return;
            }
            for _ in 0..rng.range_usize(1, 5) {
                let pos = rng.below_usize(stream.len());
                stream[pos] = rng.next_u64() as u8;
            }
        }
        // Truncation.
        2 => {
            let keep = rng.below_usize(stream.len() + 1);
            stream.truncate(keep);
        }
        // Random extension.
        3 => {
            let mut tail = vec![0u8; rng.range_usize(1, 64)];
            rng.fill_bytes(&mut tail);
            stream.extend_from_slice(&tail);
        }
        // Splice a window from another valid stream.
        4 => {
            if donor.is_empty() {
                return;
            }
            let from = rng.below_usize(donor.len());
            let len = rng.range_usize(1, (donor.len() - from).min(64) + 1);
            let at = rng.below_usize(stream.len() + 1);
            for (k, b) in donor[from..from + len].iter().enumerate() {
                stream.insert(at + k, *b);
            }
        }
        // Duplicate an internal region (length-extension style streams
        // stress accumulator paths this way).
        5 => {
            if stream.is_empty() {
                return;
            }
            let from = rng.below_usize(stream.len());
            let len = rng.range_usize(1, (stream.len() - from).min(32) + 1);
            let chunk = stream[from..from + len].to_vec();
            let at = rng.below_usize(stream.len() + 1);
            for (k, b) in chunk.into_iter().enumerate() {
                stream.insert(at + k, b);
            }
        }
        // Saturate a region with 0xFF (maximal length nibbles/extensions).
        _ => {
            if stream.is_empty() {
                return;
            }
            let from = rng.below_usize(stream.len());
            let len = rng.range_usize(1, (stream.len() - from).min(16) + 1);
            for b in &mut stream[from..from + len] {
                *b = 0xFF;
            }
        }
    }
}

/// Expected lengths to try for a mutated stream whose seed decoded to
/// `original_len` bytes.
fn expected_lens(rng: &mut Rng64, original_len: usize) -> [usize; 4] {
    [original_len, 0, rng.below_usize(64), rng.below_usize(1 << 16)]
}

/// Greedy minimizer: repeatedly remove chunks (halving window sizes down
/// to single bytes) while the crash still reproduces.
fn minimize(codec: &dyn Codec, mut input: Vec<u8>, expected_len: usize, want: Verdict) -> Vec<u8> {
    let reproduces = |bytes: &[u8]| oracle(codec, bytes, expected_len) == want;
    let mut window = (input.len() / 2).max(1);
    while window >= 1 {
        let mut i = 0;
        while i + window <= input.len() {
            let mut candidate = input.clone();
            candidate.drain(i..i + window);
            if reproduces(&candidate) {
                input = candidate;
                // Do not advance: the next window now sits at `i`.
            } else {
                i += 1;
            }
        }
        if window == 1 {
            break;
        }
        window /= 2;
    }
    input
}

/// Run a fuzz campaign of `total_inputs` mutated/random inputs spread
/// across all codecs plus the frame decoder, deterministically from
/// `seed`. The default panic hook is silenced for the duration so the
/// intentional panic-probing stays quiet; it is restored before return.
pub fn run_campaign(total_inputs: u64, seed: u64) -> FuzzReport {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = run_campaign_inner(total_inputs, seed);
    std::panic::set_hook(prev_hook);
    report
}

fn run_campaign_inner(total_inputs: u64, seed: u64) -> FuzzReport {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut report = FuzzReport::default();

    let codecs: Vec<&'static dyn Codec> =
        CodecId::ALL_CODECS.iter().map(|&id| codec_by_id(id).expect("ladder codec")).collect();
    let corpora: Vec<Vec<Seed>> = codecs.iter().map(|c| corpus_for(*c, &mut rng)).collect();
    // Frame corpus: framed streams of every codec (incl. write-through).
    let frame_corpus: Vec<Vec<u8>> = [CodecId::None, CodecId::Lzf, CodecId::Lz4, CodecId::Deflate, CodecId::Bwt]
        .iter()
        .map(|&id| {
            frame::compress(id, b"framed fuzz corpus payload framed fuzz corpus payload")
        })
        .collect();

    while report.inputs < total_inputs {
        report.inputs += 1;
        // ~1 in 8 inputs fuzz the frame decoder; the rest a raw codec.
        if rng.chance(0.125) {
            let mut stream = if rng.chance(0.3) {
                let mut raw = vec![0u8; rng.below_usize(256)];
                rng.fill_bytes(&mut raw);
                raw
            } else {
                frame_corpus[rng.below_usize(frame_corpus.len())].clone()
            };
            let donor = frame_corpus[rng.below_usize(frame_corpus.len())].clone();
            mutate(&mut rng, &mut stream, &donor);
            match frame_oracle(&stream) {
                Verdict::Rejected => report.rejected += 1,
                Verdict::Accepted => report.accepted += 1,
                v => report.crashes.push(Crash {
                    codec: None,
                    expected_len: 0,
                    input: stream,
                    verdict: v,
                }),
            }
            continue;
        }

        let ci = rng.below_usize(codecs.len());
        let codec = codecs[ci];
        let corpus = &corpora[ci];
        // Structure-aware mutation of a valid stream, or pure random bytes.
        let (mut stream, original_len) = if rng.chance(0.75) {
            let s = &corpus[rng.below_usize(corpus.len())];
            (s.stream.clone(), s.original_len)
        } else {
            let mut raw = vec![0u8; rng.below_usize(512)];
            rng.fill_bytes(&mut raw);
            let len = raw.len() * 2;
            (raw, len)
        };
        let donor = corpus[rng.below_usize(corpus.len())].stream.clone();
        for _ in 0..rng.range_usize(1, 4) {
            mutate(&mut rng, &mut stream, &donor);
        }

        let mut worst: Option<(Verdict, usize)> = None;
        for expected in expected_lens(&mut rng, original_len) {
            let v = oracle(codec, &stream, expected);
            if is_crash(v) {
                worst = Some((v, expected));
                break;
            }
            match v {
                Verdict::Rejected => report.rejected += 1,
                Verdict::Accepted => report.accepted += 1,
                _ => unreachable!("crash verdicts break above"),
            }
        }
        if let Some((verdict, expected_len)) = worst {
            let input = minimize(codec, stream, expected_len, verdict);
            report.crashes.push(Crash {
                codec: Some(codec.id()),
                expected_len,
                input,
                verdict,
            });
            // Keep hunting: one campaign can surface several distinct bugs.
        }
    }
    report
}

/// Render a crash as a ready-to-paste Rust byte-array literal.
pub fn render_crash(c: &Crash) -> String {
    let codec = c.codec.map_or("frame".to_string(), |id| id.name().to_string());
    let bytes: Vec<String> = c.input.iter().map(|b| format!("0x{b:02X}")).collect();
    format!(
        "// {codec} {:?} expected_len={}\nlet stream = [{}];",
        c.verdict,
        c.expected_len,
        bytes.join(", ")
    )
}

/// Structure-aware decoder fuzzing campaign: ≥100k seeded mutations of
/// valid codec/frame streams (5k under `--smoke`) driven through every
/// decoder behind a panic oracle. Writes `BENCH_fuzz.json`; fails —
/// printing each minimized crasher as pasteable Rust — if any decode
/// panics, overruns the expected length, or silently returns the wrong
/// size.
pub fn run(smoke: bool, out_dir: &Path) -> CmdResult {
    let total: u64 = if smoke { 5_000 } else { 120_000 };
    const SEED: u64 = 0xEDC_F002;
    eprintln!("# fuzz: {total} inputs, seed {SEED:#x}");
    let t0 = Instant::now();
    let report = run_campaign(total, SEED);
    let elapsed = t0.elapsed().as_secs_f64();

    let mut h = Harness::new("fuzz", 1);
    h.metric("inputs", report.inputs as f64);
    h.metric("rejected", report.rejected as f64);
    h.metric("accepted", report.accepted as f64);
    h.metric("crashes", report.crashes.len() as f64);
    h.metric("inputs_per_sec", report.inputs as f64 / elapsed.max(1e-9));
    h.note(&format!("seed {SEED:#x}; every decode ran behind a panic/overrun oracle"));
    eprintln!(
        "# fuzz: {} inputs in {elapsed:.1}s — {} rejected, {} accepted, {} crash(es)",
        report.inputs,
        report.rejected,
        report.accepted,
        report.crashes.len()
    );
    if !report.passed() {
        let dir = out_dir.join("crashers");
        let _ = std::fs::create_dir_all(&dir);
        for (i, c) in report.crashes.iter().enumerate() {
            eprintln!("{}", render_crash(c));
            // Persist the minimized stream too, so the crasher survives
            // scrollback and can be re-fed to the decoders directly.
            let p = dir.join(format!("fuzz_{i}.bin"));
            match std::fs::write(&p, &c.input) {
                Ok(()) => eprintln!("# crash input saved: {}", p.display()),
                Err(e) => eprintln!("# warn: cannot save {}: {e}", p.display()),
            }
        }
        eprintln!("# add the minimized streams above as regressions");
    }
    h.finish(out_dir, report.crashes.len() as u64)?;
    eprintln!("# fuzz campaign passed: zero panics, overruns or wrong-length decodes");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small deterministic campaign must find nothing on the hardened
    /// decoders — this is the in-tree smoke version of `edc-bench fuzz`.
    #[test]
    fn small_campaign_is_clean() {
        let report = run_campaign(1500, 0xEDC_F022);
        assert_eq!(report.inputs, 1500);
        assert!(report.passed(), "crashes: {:?}", report.crashes);
        assert!(report.rejected > 0, "mutations never rejected — corpus broken?");
        assert!(report.accepted > 0, "nothing decoded — corpus broken?");
    }

    /// The campaign is deterministic in its seed.
    #[test]
    fn campaign_is_deterministic() {
        let a = run_campaign(300, 42);
        let b = run_campaign(300, 42);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.crashes.len(), b.crashes.len());
    }

    /// The minimizer shrinks a known crasher-shaped input while the
    /// verdict is preserved (exercised against a Rejected verdict, which
    /// the minimizer treats identically to a crash verdict).
    #[test]
    fn minimizer_preserves_verdict() {
        let codec = codec_by_id(CodecId::Lzf).unwrap();
        let data = vec![7u8; 512];
        let mut stream = codec.compress(&data);
        stream.truncate(stream.len() / 2);
        let v = oracle(codec, &stream, data.len());
        assert_eq!(v, Verdict::Rejected);
        let min = minimize(codec, stream.clone(), data.len(), v);
        assert!(min.len() <= stream.len());
        assert_eq!(oracle(codec, &min, data.len()), v);
    }

    #[test]
    fn render_crash_is_pasteable() {
        let c = Crash {
            codec: Some(CodecId::Lz4),
            expected_len: 64,
            input: vec![0x4F, 0xFF],
            verdict: Verdict::Overrun,
        };
        let s = render_crash(&c);
        assert!(s.contains("0x4F, 0xFF"));
        assert!(s.contains("expected_len=64"));
    }
}
