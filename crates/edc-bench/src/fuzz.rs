//! Dependency-free, seeded, structure-aware fuzzer for every
//! `edc-compress` decoder and the `.edcrr` log reader, run as tests.
//!
//! The decoder-hardening contract (DESIGN.md §10) says: for *arbitrary*
//! input bytes, `decompress`/`decompress_into` must return a typed error
//! or an exactly-sized `Ok` — never panic, never loop unboundedly, and
//! never grow the output past `expected_len`. This module is the proof
//! engine behind that claim:
//!
//! * **Corpus** — valid compressed streams of every codec over text-like,
//!   zero, periodic and random blocks, framed streams for
//!   [`edc_compress::frame`], and the two committed golden `.edcrr` logs
//!   for [`edc_core::parse_edcrr`].
//! * **Mutations** — seeded bit flips, byte sets, truncations, random
//!   extensions, cross-stream splices, region duplications, and pure
//!   random byte strings; each decoded against several expected lengths
//!   (the true one, zero, small, and decorrelated random values).
//! * **Oracle** — every decode runs under [`std::panic::catch_unwind`]
//!   (with the panic hook silenced on the fuzzing thread): a panic, an
//!   `Ok` of the wrong size, or an output buffer past `expected_len` is a
//!   crash.
//! * **Minimizer** — chunked delta debugging (remove whole windows,
//!   halving the window down to single bytes) shrinks every crasher
//!   before it is reported, so the reproducer that lands in a regression
//!   fixture is as small as the failure allows.
//!
//! A failing campaign panics with each crasher as a Rust array literal
//! ready to check in under
//! `crates/edc-compress/tests/fuzz_regressions.rs`.

use edc_compress::{codec_by_id, frame, Codec, CodecId};
use edc_datagen::rng::Rng64;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// The decoders the campaign drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoder {
    /// One codec's raw stream decoder.
    Codec(CodecId),
    /// [`frame::decompress`].
    Frame,
    /// [`edc_core::parse_edcrr`].
    Edcrr,
}

/// A crashing input, minimized.
#[derive(Debug, Clone)]
pub struct Crash {
    /// The decoder that misbehaved.
    pub decoder: Decoder,
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

    /// Count one self-delimiting decode (`expected_len` does not apply),
    /// `verdict` giving the decoder's verdict on any input; a crasher is
    /// minimized first.
    fn tally(&mut self, decoder: Decoder, input: Vec<u8>, verdict: impl Fn(&[u8]) -> Verdict) {
        match verdict(&input) {
            Verdict::Rejected => self.rejected += 1,
            Verdict::Accepted => self.accepted += 1,
            want => {
                let input = minimize(input, |b| verdict(b) == want);
                self.crashes.push(Crash { decoder, expected_len: 0, input, verdict: want });
            }
        }
    }

    /// The campaign's pass condition.
    ///
    /// # Panics
    /// With every crasher rendered as pasteable Rust, if any decoder
    /// violated the hardening contract.
    pub fn assert_clean(&self, what: &str) {
        let crashers: Vec<String> = self
            .crashes
            .iter()
            .enumerate()
            .map(|(i, c)| match c.decoder {
                Decoder::Edcrr => save_log_crasher(i, c),
                _ => render_crash(c),
            })
            .collect();
        assert!(
            self.passed(),
            "{what}: {} crash(es); add the minimized streams as regressions:\n{}",
            crashers.len(),
            crashers.join("\n")
        );
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

/// Run a self-delimiting decoder (a frame, a log) under the panic oracle.
fn parse_oracle<T, E>(parse: impl Fn(&[u8]) -> Result<T, E>, input: &[u8]) -> Verdict {
    match catch_unwind(AssertUnwindSafe(|| parse(input))) {
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
            stream.splice(at..at, donor[from..from + len].iter().copied());
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
            stream.splice(at..at, chunk);
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

/// Oracle calls one crasher's minimization may spend. Chunked removal
/// needs about two calls per window size on an input that shrinks to a
/// few bytes, and one per window position on one that does not; the cap
/// only bites on a large input that barely shrinks (a mutated `.edcrr`
/// log), which is then saved as far as it got.
const MINIMIZE_CALLS: usize = 20_000;

/// Chunked delta debugging: remove windows of `input` while
/// `reproduces` still holds, stepping a whole window past each removal
/// that loses the failure, halving the window down to single bytes.
fn minimize(mut input: Vec<u8>, mut reproduces: impl FnMut(&[u8]) -> bool) -> Vec<u8> {
    let mut calls = 0;
    let mut window = (input.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i + window <= input.len() && calls < MINIMIZE_CALLS {
            let mut candidate = input.clone();
            candidate.drain(i..i + window);
            calls += 1;
            if reproduces(&candidate) {
                input = candidate;
                // Do not advance: the next window now sits at `i`.
            } else {
                i += window;
            }
        }
        if window == 1 {
            return input;
        }
        window /= 2;
    }
}

/// A campaign stops at this many crashers. A broken decoder crashes on a
/// large share of inputs, and minimizing thousands of them would take
/// hours; a handful is enough to act on.
const MAX_CRASHES: usize = 8;

thread_local! {
    /// Set while this thread runs a campaign: its probing panics are
    /// expected and must not be printed.
    static FUZZING: Cell<bool> = const { Cell::new(false) };
}

/// Run a fuzz campaign of `total_inputs` mutated/random inputs spread
/// across all codecs plus the frame decoder, then one more input per
/// eight on the `.edcrr` reader, deterministically from `seed`. Panics on
/// this thread stay quiet for the duration; other threads' panics (tests
/// running beside it) still print.
pub fn run_campaign(total_inputs: u64, seed: u64) -> FuzzReport {
    static QUIET_HOOK: std::sync::Once = std::sync::Once::new();
    QUIET_HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !FUZZING.with(Cell::get) {
                default(info);
            }
        }));
    });
    FUZZING.with(|f| f.set(true));
    let report = run_campaign_inner(total_inputs, seed);
    FUZZING.with(|f| f.set(false));
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

    while report.inputs < total_inputs && report.crashes.len() < MAX_CRASHES {
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
            report.tally(Decoder::Frame, stream, |b| parse_oracle(frame::decompress, b));
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
            let input = minimize(stream, |b| oracle(codec, b, expected_len) == verdict);
            report.crashes.push(Crash {
                decoder: Decoder::Codec(codec.id()),
                expected_len,
                input,
                verdict,
            });
            // Keep hunting: one campaign can surface several distinct bugs.
        }
    }

    // The `.edcrr` reader: each golden log mutated like a codec stream.
    // It draws after the loop above, so a seed's codec and frame inputs
    // do not depend on it.
    let logs: [&[u8]; 2] = [
        include_bytes!("../../../tests/fixtures/golden_sharded.edcrr"),
        include_bytes!("../../../tests/fixtures/golden_plain.edcrr"),
    ];
    for _ in 0..total_inputs / 8 {
        if report.crashes.len() >= MAX_CRASHES {
            break;
        }
        report.inputs += 1;
        let mut log = logs[rng.below_usize(logs.len())].to_vec();
        let donor = logs[rng.below_usize(logs.len())];
        for _ in 0..rng.range_usize(1, 4) {
            mutate(&mut rng, &mut log, donor);
        }
        report.tally(Decoder::Edcrr, log, |b| parse_oracle(edc_core::parse_edcrr, b));
    }
    report
}

/// Save a minimized crashing `.edcrr` mutant — a log, too large to print
/// — under the crash directory, and say where it went.
fn save_log_crasher(i: usize, c: &Crash) -> String {
    let dir = crate::faults::crash_dir();
    let path = dir.join(format!("fuzz_edcrr_{i}.edcrr"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &c.input)) {
        Ok(()) => {
            format!("// edcrr {:?}: {} bytes saved to {}", c.verdict, c.input.len(), path.display())
        }
        Err(e) => format!("// edcrr {:?}: cannot save {}: {e}", c.verdict, path.display()),
    }
}

/// Render a crash as a ready-to-paste Rust byte-array literal.
pub fn render_crash(c: &Crash) -> String {
    let decoder = match c.decoder {
        Decoder::Codec(id) => id.name(),
        Decoder::Frame => "frame",
        Decoder::Edcrr => "edcrr",
    };
    let bytes: Vec<String> = c.input.iter().map(|b| format!("0x{b:02X}")).collect();
    format!(
        "// {decoder} {:?} expected_len={}\nlet stream = [{}];",
        c.verdict,
        c.expected_len,
        bytes.join(", ")
    )
}

mod tests {
    use super::*;

    /// The seed of the smoke and full campaigns.
    const SEED: u64 = 0xEDC_F002;

    /// A small deterministic campaign must find nothing on the hardened
    /// decoders.
    #[test]
    fn small_campaign_is_clean() {
        let report = run_campaign(1500, 0xEDC_F022);
        assert_eq!(report.inputs, 1500 + 1500 / 8, "codec and frame inputs, then .edcrr ones");
        report.assert_clean("1500 inputs, seed 0xedcf022");
        assert!(report.rejected > 0, "mutations never rejected — corpus broken?");
        assert!(report.accepted > 0, "nothing decoded — corpus broken?");
    }

    /// The smoke campaign: 5k inputs, the first 5k of the full campaign.
    #[test]
    fn fuzz_campaign_smoke_is_clean() {
        run_campaign(5_000, SEED).assert_clean("5k inputs, seed 0xedcf002");
    }

    /// The full campaign: 120k inputs (≈500k decodes). Release-only
    /// (`cargo test --release -- --ignored`); about 30 s in a debug build.
    #[test]
    #[ignore = "full size; run with --release -- --ignored"]
    fn fuzz_campaign_full_is_clean() {
        run_campaign(120_000, SEED).assert_clean("120k inputs, seed 0xedcf002");
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
        let min = minimize(stream.clone(), |b| oracle(codec, b, data.len()) == v);
        assert!(min.len() <= stream.len());
        assert_eq!(oracle(codec, &min, data.len()), v);
    }

    /// A failure that needs one byte of a 4 KiB input shrinks to that
    /// byte in 24 oracle calls, wherever the byte sits: two per window
    /// size, 2 048 down to 1. Stepping one byte past each failed removal,
    /// as the minimizer once did, took 2 071 calls with the byte at 2 047.
    #[test]
    fn minimizer_finds_one_marker_byte_in_few_calls() {
        let mut input = vec![0u8; 4096];
        input[2_047] = 0xAB;
        let mut calls = 0;
        let min = minimize(input, |b| {
            calls += 1;
            b.contains(&0xAB)
        });
        assert_eq!(min, [0xAB]);
        assert_eq!(calls, 24);
    }

    #[test]
    fn render_crash_is_pasteable() {
        let c = Crash {
            decoder: Decoder::Codec(CodecId::Lz4),
            expected_len: 64,
            input: vec![0x4F, 0xFF],
            verdict: Verdict::Overrun,
        };
        let s = render_crash(&c);
        assert!(s.contains("0x4F, 0xFF"));
        assert!(s.contains("expected_len=64"));
    }
}
