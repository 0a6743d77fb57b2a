//! The decode side's edges: where the input runs out, where a match
//! overlaps its own output, and what a failed decode leaves behind.
//!
//! The decoders refill their bit buffer eight bytes at a time, copy
//! matches in word strides that may spill past the match, and rebuild
//! Deflate's Huffman tables in a per-thread scratch. Each of those has an
//! edge that a plain round trip never visits: the last seven bytes of a
//! stream, a match closer to the end of the buffer than a stride, a
//! distance shorter than a stride, a scratch that a corrupt header left
//! half written. These tests walk them, against a byte-at-a-time copy
//! that lives here and nowhere in the crate.

use edc_compress::{codec_by_id, Codec, CodecId, Deflate, Lz4, Lzf};
use edc_datagen::{BlockClass, ContentGenerator};

/// LZ77 match semantics, one byte at a time: the reference every copy
/// below is checked against.
fn reference_match(out: &mut Vec<u8>, dist: usize, len: usize) {
    for _ in 0..len {
        out.push(out[out.len() - dist]);
    }
}

/// `n` bytes with no repeats at any distance up to 256.
fn distinct(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 7 + 3) as u8).collect()
}

fn lzf_literals(stream: &mut Vec<u8>, bytes: &[u8]) {
    for run in bytes.chunks(32) {
        stream.push(run.len() as u8 - 1);
        stream.extend_from_slice(run);
    }
}

fn lzf_match(stream: &mut Vec<u8>, dist: usize, len: usize) {
    let offset = dist - 1;
    if len <= 8 {
        stream.push(((len - 2) << 5 | offset >> 8) as u8);
    } else {
        stream.extend_from_slice(&[(0b111 << 5 | offset >> 8) as u8, (len - 9) as u8]);
    }
    stream.push(offset as u8);
}

fn lz4_length(stream: &mut Vec<u8>, mut rest: usize) {
    while rest >= 255 {
        stream.push(255);
        rest -= 255;
    }
    stream.push(rest as u8);
}

/// One LZ4 sequence: `literals`, then a match unless `m` is `None` (the
/// final, literal-only sequence).
fn lz4_sequence(stream: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let match_nibble = m.map_or(0, |(_, len)| (len - 4).min(15));
    stream.push((literals.len().min(15) << 4 | match_nibble) as u8);
    if literals.len() >= 15 {
        lz4_length(stream, literals.len() - 15);
    }
    stream.extend_from_slice(literals);
    if let Some((dist, len)) = m {
        stream.extend_from_slice(&(dist as u16).to_le_bytes());
        if len - 4 >= 15 {
            lz4_length(stream, len - 4 - 15);
        }
    }
}

/// Distances on both sides of the 16-byte stride, and one far enough
/// back that source and destination never meet.
fn distances() -> impl Iterator<Item = usize> {
    (1..=18).chain([31, 32, 33, 200])
}

#[test]
fn hand_built_lz_matches_agree_with_the_reference_copy() {
    let mut out = Vec::new();
    for dist in distances() {
        let head = distinct(dist.max(5));
        for len in 3..=264 {
            // With nothing after the match the copy ends at the end of
            // the buffer and may not spill; with a tail it may.
            for tail in [&b""[..], b"twenty bytes of tail."] {
                let mut expect = head.clone();
                reference_match(&mut expect, dist, len);
                expect.extend_from_slice(tail);

                let mut stream = Vec::new();
                lzf_literals(&mut stream, &head);
                lzf_match(&mut stream, dist, len);
                lzf_literals(&mut stream, tail);
                Lzf::new().decompress_into(&stream, expect.len(), &mut out).expect("lzf");
                assert_eq!(out, expect, "lzf dist {dist} len {len} tail {}", tail.len());

                if len >= 4 {
                    let mut stream = Vec::new();
                    lz4_sequence(&mut stream, &head, Some((dist, len)));
                    lz4_sequence(&mut stream, tail, None);
                    Lz4::new().decompress_into(&stream, expect.len(), &mut out).expect("lz4");
                    assert_eq!(out, expect, "lz4 dist {dist} len {len} tail {}", tail.len());
                }
            }
        }
    }
}

#[test]
fn deflate_periodic_inputs_agree_with_the_reference_copy() {
    // The encoder turns a period-p input into matches at distance p (and
    // multiples of it), of every length up to its 258-byte cap and, past
    // that, back-to-back.
    let mut out = Vec::new();
    for level in [1, 6] {
        let codec = Deflate::with_level(level);
        for period in 1..=16 {
            for len in 3..=264 {
                for tail in [&b""[..], b"twenty bytes of tail."] {
                    let mut expect = distinct(period);
                    reference_match(&mut expect, period, len);
                    expect.extend_from_slice(tail);
                    let stream = codec.compress(&expect);
                    codec.decompress_into(&stream, expect.len(), &mut out).expect("deflate");
                    assert_eq!(out, expect, "level {level} period {period} len {len}");
                }
            }
        }
    }
}

/// Runs the codecs see in the store: every class of generated content,
/// at a block and at a merged-run size.
fn corpus() -> Vec<Vec<u8>> {
    let mut inputs = Vec::new();
    for class in BlockClass::ALL {
        let mut gen = ContentGenerator::pure(0xDEC0DE, class);
        inputs.push(gen.block_of(class, 4096));
        inputs.push(gen.block_of(class, 16 * 1024));
    }
    inputs
}

#[test]
fn every_strict_prefix_of_a_corpus_stream_is_a_typed_error() {
    // The bulk refill and the fixed-width literal copy both look ahead of
    // the byte they need; a stream cut anywhere must still fail typed,
    // inside the declared length, and never decode as if complete.
    let mut out = Vec::new();
    for id in [CodecId::Lzf, CodecId::Lz4, CodecId::Deflate] {
        let codec = codec_by_id(id).unwrap();
        for input in corpus() {
            let stream = codec.compress(&input);
            for cut in 0..stream.len() {
                let result = codec.decompress_into(&stream[..cut], input.len(), &mut out);
                assert!(result.is_err(), "{id}: {cut}/{} bytes decoded as whole", stream.len());
                assert!(out.len() <= input.len(), "{id}: output overran at cut {cut}");
                assert_eq!(out, input[..out.len()], "{id}: wrote bytes the prefix does not hold");
            }
        }
    }
}

#[test]
fn a_failed_decode_leaves_no_trace_in_the_thread_scratch() {
    let codec = Deflate::new();
    let poison = ContentGenerator::pure(7, BlockClass::Code).block_of(BlockClass::Code, 16 * 1024);
    let poison = codec.compress(&poison);
    let inputs = corpus();
    let streams: Vec<Vec<u8>> = inputs.iter().map(|input| codec.compress(input)).collect();
    let decode_all = |streams: &[Vec<u8>]| -> Vec<Vec<u8>> {
        let decode = |(stream, input): (&Vec<u8>, &Vec<u8>)| codec.decompress(stream, input.len());
        streams.iter().zip(&inputs).map(|pair| decode(pair).expect("valid stream")).collect()
    };

    // Streams that die at different depths of the header: inside the
    // literal/length lengths, inside the distance lengths (the first
    // table is then freshly read, the second half read), and after both
    // were read but a flipped length made the code over-subscribed.
    let mut failures = 0;
    let mut out = Vec::new();
    let mut fails = |stream: &[u8]| codec.decompress_into(stream, 16 * 1024, &mut out).is_err();
    for cut in 1..poison.len().min(160) {
        failures += usize::from(fails(&poison[..cut]));
        let mut flipped = poison.clone();
        flipped[cut] ^= 0x5A;
        failures += usize::from(fails(&flipped));
        assert_eq!(decode_all(&streams), inputs, "after poison at byte {cut}");
    }
    assert!(failures > 160, "the poison streams were meant to fail: {failures}");

    // And a thread that never saw a bad stream agrees byte for byte.
    let fresh = std::thread::scope(|s| s.spawn(|| decode_all(&streams)).join());
    assert_eq!(fresh.expect("fresh thread"), decode_all(&streams));
}
