//! The encoder against two oracles: its own size prediction, and a
//! bit-at-a-time inflate that shares nothing with the table-driven
//! decoder in `deflate.rs` but the format.

use super::*;
use edc_datagen::{BlockClass, ContentGenerator};

/// The reference decoder's reader: one bit per step.
struct Bits<'a> {
    stream: &'a [u8],
    at: usize,
}

impl Bits<'_> {
    fn take(&mut self, count: u32) -> Result<usize, DecompressError> {
        let mut value = 0usize;
        for k in 0..count {
            let byte = *self.stream.get(self.at >> 3).ok_or(DecompressError::Truncated)?;
            value |= usize::from(byte >> (self.at & 7) & 1) << k;
            self.at += 1;
        }
        Ok(value)
    }

    /// A code-length header: 5-bit tokens, three of them run lengths.
    fn lengths(&mut self, count: usize) -> Result<Vec<u8>, DecompressError> {
        let mut lens: Vec<u8> = Vec::new();
        while lens.len() < count {
            let (value, rep) = match self.take(5)? {
                16 => match lens.last() {
                    Some(&prev) => (prev, 3 + self.take(2)?),
                    None => return Err(DecompressError::Malformed("no previous length")),
                },
                17 => (0, 3 + self.take(3)?),
                18 => (0, 11 + self.take(7)?),
                tok @ 0..=15 => (tok as u8, 1),
                _ => return Err(DecompressError::Malformed("length token")),
            };
            lens.extend(std::iter::repeat_n(value, rep));
        }
        (lens.len() == count).then_some(lens).ok_or(DecompressError::Malformed("length run"))
    }

    /// One symbol of a canonical code, given its symbols grouped by code
    /// length. Among codes of one length symbols are numbered in order,
    /// and the first code of a length follows from the counts of the
    /// shorter ones; a code arrives most significant bit first.
    fn symbol(&mut self, by_len: &[Vec<usize>]) -> Result<usize, DecompressError> {
        let (mut code, mut first) = (0usize, 0usize);
        for of_len in &by_len[1..] {
            code |= self.take(1)?;
            if code - first < of_len.len() {
                return Ok(of_len[code - first]);
            }
            first = (first + of_len.len()) << 1;
            code <<= 1;
        }
        Err(DecompressError::Malformed("no such code"))
    }
}

/// The symbols of each code length, in symbol order.
fn by_len(lens: &[u8]) -> Vec<Vec<usize>> {
    (0..=15).map(|len| (0..lens.len()).filter(|&s| lens[s] == len).collect()).collect()
}

/// Reference inflate: one bit per read, codes resolved by walking the
/// canonical code length by length (no tables), matches copied a byte at
/// a time. Slow and obviously right; it is the differential oracle for
/// every stream either encoder generation wrote.
fn reference_inflate(stream: &[u8], expected_len: usize) -> Result<Vec<u8>, DecompressError> {
    let mut bits = Bits { stream, at: 0 };
    let mut out = Vec::new();
    if bits.take(1)? == 1 {
        for _ in 0..expected_len {
            out.push(bits.take(8)? as u8);
        }
        return Ok(out);
    }
    let lit_code = by_len(&bits.lengths(NUM_LITLEN)?);
    let dist_code = by_len(&bits.lengths(NUM_DIST)?);
    loop {
        match bits.symbol(&lit_code)? {
            sym @ 0..=255 => out.push(sym as u8),
            EOB => break,
            sym => {
                let (base, extra) = LEN_TABLE[sym - 257];
                let len = usize::from(base) + bits.take(u32::from(extra))?;
                let (base, extra) = DIST_TABLE[bits.symbol(&dist_code)?];
                let dist = usize::from(base) + bits.take(u32::from(extra))?;
                if dist > out.len() {
                    return Err(DecompressError::BadReference { at: out.len(), offset: dist });
                }
                for _ in 0..len {
                    out.push(out[out.len() - dist]);
                }
            }
        }
    }
    if out.len() != expected_len {
        return Err(DecompressError::SizeMismatch { expected: expected_len, actual: out.len() });
    }
    Ok(out)
}

/// `len` bytes of each content family the encoder's levers care about.
fn corpus(len: usize) -> Vec<(String, Vec<u8>)> {
    let mut inputs: Vec<(String, Vec<u8>)> = BlockClass::ALL
        .iter()
        .map(|&class| {
            (format!("{class:?}"), ContentGenerator::pure(0xEDC, class).block_of(class, len))
        })
        .collect();
    // Four symbols, no structure: full chains of short matches.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let acgt = (0..len).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b"acgt"[(x >> 60 & 3) as usize]
    });
    inputs.push(("acgt".into(), acgt.collect()));
    // 16 KiB units taking turns: the miss-streak stride has to wind up
    // and reset inside one run.
    let mut gen = ContentGenerator::pure(0xA17, BlockClass::Text);
    let mut alternating = Vec::new();
    for unit in 0.. {
        let class = [BlockClass::Text, BlockClass::Random][unit % 2];
        let room = len - alternating.len();
        if room == 0 {
            break;
        }
        alternating.extend(gen.block_of(class, room.min(16 * 1024)));
    }
    inputs.push(("alternating".into(), alternating));
    inputs
}

const LENGTHS: [usize; 13] =
    [0, 1, 2, 3, 4, 5, 4096, 32_767, 32_768, 32_769, 65_536, 65_537, 70_000];

#[test]
fn every_stream_round_trips_and_is_sized_before_it_is_emitted() {
    // One state for the whole matrix: stale heads and chain links from
    // every earlier input, the `prev` window wrapping on the long ones,
    // the hash running out four bytes before the end on the short ones.
    let mut state = CompressorState::new();
    let (mut out, mut back) = (Vec::new(), Vec::new());
    let mut warm = None;
    for round in 0..2 {
        for len in LENGTHS {
            for (name, input) in corpus(len) {
                for level in [1u8, 6, 9] {
                    let what = format!("{name}/{len} at level {level}");
                    let codec = Deflate::with_level(level);
                    codec.compress_with(&mut state, &input, &mut out);
                    codec.decompress_into(&out, len, &mut back).expect(&what);
                    assert_eq!(back, input, "{what}: round trip");
                    if round == 1 {
                        continue; // the second round is about allocations
                    }
                    assert_eq!(reference_inflate(&out, len).as_ref(), Ok(&input), "{what}");

                    // The same tokens again, this time emitted whatever
                    // their size: the prediction must be the length, and
                    // the block kind what emit-then-compare would pick.
                    let st = &mut state.deflate;
                    tokenize_into(&input, codec.effort, st);
                    let mut w = BitWriter::new();
                    let predicted = st.begin_block(&mut w);
                    st.emit_tokens(&mut w);
                    assert_eq!(w.bit_len(), predicted, "{what}: predicted size");
                    let huffman = w.finish();
                    let raw = huffman.len() > len;
                    assert_eq!(out[0] & 1 == 1, raw, "{what}: block kind");
                    assert_eq!(out.len(), if raw { len + 1 } else { huffman.len() }, "{what}");
                    if !raw {
                        assert_eq!(out, huffman, "{what}: stream");
                    }
                }
            }
        }
        let events = state.alloc_events();
        assert_eq!(*warm.get_or_insert(events), events, "a warm state allocated");
    }
}

/// `(level, input index, input length, stream)` records of the committed
/// streams the PR 3 encoder wrote for the golden inputs.
fn old_encoder_streams() -> Vec<(u8, usize, usize, &'static [u8])> {
    let mut rest: &'static [u8] = include_bytes!("../../tests/fixtures/deflate_pr3_streams.bin");
    let mut records = Vec::new();
    while let [level, input, header @ ..] = rest {
        let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().unwrap()) as usize;
        let (stream, tail) = header[8..].split_at(word(4));
        records.push((*level, usize::from(*input), word(0), stream));
        rest = tail;
    }
    records
}

#[test]
fn old_encoder_streams_decode_alike_under_both_decoders() {
    let records = old_encoder_streams();
    assert_eq!(records.len(), 21, "seven inputs at levels 1, 6 and 9");
    let mut out = Vec::new();
    for (level, input, len, stream) in records {
        let result = Deflate::new().decompress_into(stream, len, &mut out);
        let reference = reference_inflate(stream, len);
        assert_eq!(result, Ok(()), "level {level} input {input}");
        assert_eq!(reference, Ok(out.clone()), "level {level} input {input}");
    }
}
