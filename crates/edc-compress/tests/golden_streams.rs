//! Golden compressed-stream fixtures per codec.
//!
//! The `(length, checksum64)` pairs below pin what each encoder emits
//! today: any format or tokenization drift fails this suite loudly. The
//! Lzf, Lz4 and Bwt rows date from before `CompressorState` existed and
//! have never changed; the Deflate rows were regenerated when its match
//! finder was rewritten (4-byte hash chains, zlib's lazy thresholds, the
//! miss-streak stride, raw blocks on a size tie), which is the one time
//! those streams were meant to change. What the encoder before that
//! wrote is kept in `fixtures/deflate_pr3_streams.bin` and must decode
//! for ever.
//!
//! All three entry points are checked against the fixtures: `compress`,
//! `compress_into` (dirty output buffer), and `compress_with` (reused
//! state across every fixture, worst case for stale-table bugs).

use edc_compress::{checksum64, Bwt, Codec, CompressorState, Deflate, Lz4, Lzf};

/// `(codec, fixture, compressed_len, checksum64(stream, 0))`.
const GOLDEN: &[(&str, &str, usize, u64)] = &[
    ("lzf", "empty", 0, 0xb8cb396de59eab6a),
    ("lzf", "byte", 2, 0xdeb0535ba0b081ee),
    ("lzf", "fox", 43, 0xc33fa68be4825ae6),
    ("lzf", "text4k", 99, 0x90e8a355a88b1b12),
    ("lzf", "zeros4k", 50, 0xd81235f4fb2aa0d9),
    ("lzf", "rand4k", 4224, 0x3eedf2f95365bdaf),
    ("lzf", "mixed16k", 8816, 0xaa942d3d5501b996),
    ("lz4", "empty", 1, 0x8f197df95cc99a8b),
    ("lz4", "byte", 2, 0x6b1bd7a7fc2163fd),
    ("lz4", "fox", 44, 0x9e22215a8eaf72dd),
    ("lz4", "text4k", 64, 0xe3e50a13292c09c4),
    ("lz4", "zeros4k", 20, 0x9e28e30adcffc76b),
    ("lz4", "rand4k", 4114, 0x67cab295c20a2396),
    ("lz4", "mixed16k", 7973, 0x09bc34e8897cd49d),
    ("deflate6", "empty", 1, 0xb0c5c6d43506a5a7),
    ("deflate6", "byte", 2, 0x403c420b1f0bad08),
    ("deflate6", "fox", 43, 0x83a9ae614c45d766),
    ("deflate6", "text4k", 66, 0x8da767befea3a9aa),
    ("deflate6", "zeros4k", 16, 0x2731c244f7a736f3),
    ("deflate6", "rand4k", 4097, 0x9c41cfa00712d84a),
    ("deflate6", "mixed16k", 4359, 0xed2e3c46a7330831),
    ("deflate1", "empty", 1, 0xb0c5c6d43506a5a7),
    ("deflate1", "byte", 2, 0x403c420b1f0bad08),
    ("deflate1", "fox", 43, 0x83a9ae614c45d766),
    ("deflate1", "text4k", 66, 0x8da767befea3a9aa),
    ("deflate1", "zeros4k", 16, 0x2731c244f7a736f3),
    ("deflate1", "rand4k", 4097, 0x9c41cfa00712d84a),
    ("deflate1", "mixed16k", 4391, 0x4c979966703db4cf),
    ("deflate9", "empty", 1, 0xb0c5c6d43506a5a7),
    ("deflate9", "byte", 2, 0x403c420b1f0bad08),
    ("deflate9", "fox", 43, 0x83a9ae614c45d766),
    ("deflate9", "text4k", 66, 0x8da767befea3a9aa),
    ("deflate9", "zeros4k", 16, 0x2731c244f7a736f3),
    ("deflate9", "rand4k", 4097, 0x9c41cfa00712d84a),
    ("deflate9", "mixed16k", 4358, 0x26f7f25a3cf2a198),
    ("bwt", "empty", 1, 0x8f197df95cc99a8b),
    ("bwt", "byte", 2, 0x403c420b1f0bad08),
    ("bwt", "fox", 44, 0x3610cdd9e9a2035c),
    ("bwt", "text4k", 103, 0x55011fd6db03b793),
    ("bwt", "zeros4k", 15, 0xadde6d1685527933),
    ("bwt", "rand4k", 4097, 0x9c41cfa00712d84a),
    ("bwt", "mixed16k", 3128, 0x61bb9ceca783d91a),
];

fn xorshift(mut x: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 56) as u8
        })
        .collect()
}

fn fixture(name: &str) -> Vec<u8> {
    match name {
        "empty" => Vec::new(),
        "byte" => b"A".to_vec(),
        "fox" => b"the quick brown fox jumps over the lazy dog".to_vec(),
        "text4k" => b"elastic data compression for flash storage "
            .iter()
            .copied()
            .cycle()
            .take(4096)
            .collect(),
        "zeros4k" => vec![0u8; 4096],
        "rand4k" => xorshift(0x9E37_79B9_7F4A_7C15, 4096),
        "mixed16k" => {
            let mut mixed = Vec::new();
            for i in 0..1000u32 {
                mixed.extend_from_slice(&i.to_le_bytes());
                mixed.extend_from_slice(&(u64::from(i) * 3).to_le_bytes());
                mixed.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
            }
            mixed
        }
        other => panic!("unknown fixture {other}"),
    }
}

fn codec(name: &str) -> Box<dyn Codec> {
    match name {
        "lzf" => Box::new(Lzf::new()),
        "lz4" => Box::new(Lz4::new()),
        "deflate6" => Box::new(Deflate::new()),
        "deflate1" => Box::new(Deflate::with_level(1)),
        "deflate9" => Box::new(Deflate::with_level(9)),
        "bwt" => Box::new(Bwt::new()),
        other => panic!("unknown codec {other}"),
    }
}

fn check(label: &str, cname: &str, fname: &str, stream: &[u8], len: usize, sum: u64) {
    assert_eq!(
        stream.len(),
        len,
        "{label}: {cname}/{fname} stream length drifted from golden fixture"
    );
    assert_eq!(
        checksum64(stream, 0),
        sum,
        "{label}: {cname}/{fname} stream bytes drifted from golden fixture"
    );
}

#[test]
fn compress_matches_golden_streams() {
    for &(cname, fname, len, sum) in GOLDEN {
        let stream = codec(cname).compress(&fixture(fname));
        check("compress", cname, fname, &stream, len, sum);
    }
}

#[test]
fn compress_into_matches_golden_streams() {
    // A dirty, reused output buffer must not leak into the stream.
    let mut out = vec![0xAA; 64];
    for &(cname, fname, len, sum) in GOLDEN {
        codec(cname).compress_into(&fixture(fname), &mut out);
        check("compress_into", cname, fname, &out, len, sum);
    }
}

#[test]
fn compress_with_reused_state_matches_golden_streams() {
    // One state shared across every codec's fixtures in sequence: stale
    // hash-table or chain entries from a previous input would surface as
    // a different tokenization here.
    let mut state = CompressorState::new();
    let mut out = Vec::new();
    for _round in 0..2 {
        for &(cname, fname, len, sum) in GOLDEN {
            codec(cname).compress_with(&mut state, &fixture(fname), &mut out);
            check("compress_with", cname, fname, &out, len, sum);
        }
    }
}

#[test]
fn golden_streams_round_trip() {
    for &(cname, fname, _, _) in GOLDEN {
        let codec = codec(cname);
        let input = fixture(fname);
        let stream = codec.compress(&input);
        let back = codec
            .decompress(&stream, input.len())
            .expect("golden stream must decompress");
        assert_eq!(back, input, "{cname}/{fname} round trip");
    }
}

/// The fixture inputs in the order `fixtures/deflate_pr3_streams.bin`
/// numbers them.
const FIXTURES: [&str; 7] = ["empty", "byte", "fox", "text4k", "zeros4k", "rand4k", "mixed16k"];

#[test]
fn streams_of_the_previous_deflate_encoder_still_decode() {
    // Images written before the match finder was rewritten hold these
    // streams (the seven inputs at levels 1, 6 and 9, written by the
    // encoder this repository shipped until then). Records are `level,
    // input index, input length u32, stream length u32, stream`.
    let mut rest: &[u8] = include_bytes!("fixtures/deflate_pr3_streams.bin");
    let mut seen = 0;
    while let [level, input, header @ ..] = rest {
        let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().unwrap()) as usize;
        let (stream, tail) = header[8..].split_at(word(4));
        let expected = fixture(FIXTURES[usize::from(*input)]);
        assert_eq!(expected.len(), word(0));
        let back = Deflate::new().decompress(stream, expected.len());
        assert_eq!(back.as_ref(), Ok(&expected), "level {level} {}", FIXTURES[usize::from(*input)]);
        rest = tail;
        seen += 1;
    }
    assert_eq!(seen, 21);
}

#[test]
fn golden_stream_prefixes_fail_typed() {
    // Every strict prefix of every golden stream is an error - never a
    // short success, never a panic, never more output than declared. The
    // decoders read ahead of the byte they need (8-byte bit refills,
    // fixed-width literal copies); this pins what they do at the end of
    // the input. The empty fixture is left out: it has nothing to lose.
    let mut out = Vec::new();
    for &(cname, fname, _, _) in GOLDEN.iter().filter(|g| g.1 != "empty") {
        let codec = codec(cname);
        let input = fixture(fname);
        let stream = codec.compress(&input);
        for cut in 0..stream.len() {
            let result = codec.decompress_into(&stream[..cut], input.len(), &mut out);
            assert!(result.is_err(), "{cname}/{fname}: {cut}/{} bytes decoded", stream.len());
            assert!(out.len() <= input.len(), "{cname}/{fname}: output overran at cut {cut}");
        }
    }
}
