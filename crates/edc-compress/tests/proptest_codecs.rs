//! Property-based tests: every codec must round-trip every input, reject
//! mutated streams gracefully (error, never panic), and the BWT core must
//! invert exactly. Runs on the in-tree harness (`edc_datagen::proptest`).

use edc_compress::bwt::{bwt_forward, bwt_inverse};
use edc_compress::{codec_by_id, CodecId, CompressorState, Estimator};
use edc_datagen::proptest::{block, cases, vec_u8};

#[test]
fn lzf_round_trips() {
    cases(64).run("lzf_round_trips", |rng| {
        let data = block(rng, 4096);
        let codec = codec_by_id(CodecId::Lzf).unwrap();
        let c = codec.compress(&data);
        assert_eq!(codec.decompress(&c, data.len()).unwrap(), data);
    });
}

#[test]
fn lz4_round_trips() {
    cases(64).run("lz4_round_trips", |rng| {
        let data = block(rng, 4096);
        let codec = codec_by_id(CodecId::Lz4).unwrap();
        let c = codec.compress(&data);
        assert_eq!(codec.decompress(&c, data.len()).unwrap(), data);
    });
}

#[test]
fn deflate_round_trips() {
    cases(64).run("deflate_round_trips", |rng| {
        let data = block(rng, 4096);
        let codec = codec_by_id(CodecId::Deflate).unwrap();
        let c = codec.compress(&data);
        assert_eq!(codec.decompress(&c, data.len()).unwrap(), data);
    });
}

#[test]
fn bwt_round_trips() {
    cases(64).run("bwt_round_trips", |rng| {
        let data = block(rng, 4096);
        let codec = codec_by_id(CodecId::Bwt).unwrap();
        let c = codec.compress(&data);
        assert_eq!(codec.decompress(&c, data.len()).unwrap(), data);
    });
}

/// `compress_into` must produce byte-identical streams to `compress`,
/// including when the scratch buffer is dirty from a previous, different
/// input — the batched pipeline's bit-identical guarantee rests on this.
#[test]
fn compress_into_matches_compress() {
    cases(64).run("compress_into_matches_compress", |rng| {
        let data = block(rng, 4096);
        let other = block(rng, 4096);
        for id in CodecId::ALL_CODECS {
            let codec = codec_by_id(id).unwrap();
            let fresh = codec.compress(&data);
            let mut reused = Vec::new();
            codec.compress_into(&other, &mut reused); // dirty the buffer
            codec.compress_into(&data, &mut reused);
            assert_eq!(reused, fresh, "{id}: compress_into diverged from compress");
        }
    });
}

/// `compress_with` over one long-lived, shared `CompressorState` must stay
/// byte-identical to a fresh-state `compress`, no matter what the state
/// compressed before — including other codecs, since every codec keeps its
/// scratch inside the same state. This is the property the worker-pooled
/// write path depends on.
#[test]
fn compress_with_reused_state_matches_fresh() {
    cases(64).run("compress_with_reused_state_matches_fresh", |rng| {
        let data = block(rng, 4096);
        let dirt = block(rng, 4096);
        let mut state = CompressorState::new();
        let mut out = Vec::new();
        // Dirty every codec's scratch (tables, token buffers, Huffman
        // state) with an unrelated input before each real compression.
        for id in CodecId::ALL_CODECS {
            let codec = codec_by_id(id).unwrap();
            codec.compress_with(&mut state, &dirt, &mut out);
        }
        for id in CodecId::ALL_CODECS {
            let codec = codec_by_id(id).unwrap();
            let fresh = codec.compress(&data);
            codec.compress_with(&mut state, &data, &mut out);
            assert_eq!(out, fresh, "{id}: reused-state compress_with diverged from compress");
        }
    });
}

#[test]
fn bwt_transform_inverts() {
    cases(64).run("bwt_transform_inverts", |rng| {
        let data = vec_u8(rng, 0, 2048);
        let (last, primary) = bwt_forward(&data);
        assert_eq!(last.len(), data.len());
        assert_eq!(bwt_inverse(&last, primary).unwrap(), data);
    });
}

/// Corrupted streams must produce an error or wrong-but-bounded output,
/// never a panic. (Codecs validate sizes and references, not checksums,
/// so a bit flip may decode to different bytes of the same length —
/// EDC's mapping layer owns integrity.)
#[test]
fn mutated_streams_never_panic() {
    cases(64).run("mutated_streams_never_panic", |rng| {
        let data = vec_u8(rng, 1, 1024);
        let flip_byte = rng.next_u64() as u8;
        let pos_seed = rng.next_u64() as usize;
        for id in CodecId::ALL_CODECS {
            let codec = codec_by_id(id).unwrap();
            let mut c = codec.compress(&data);
            let pos = pos_seed % c.len();
            c[pos] ^= flip_byte | 1; // guaranteed change
            // The hardened-decoder contract: Ok with exactly expected_len
            // bytes, or a typed Err with the buffer never past the cap.
            let mut out = Vec::new();
            match codec.decompress_into(&c, data.len(), &mut out) {
                Ok(()) => assert_eq!(out.len(), data.len(), "{id}: Ok with wrong length"),
                Err(_) => assert!(
                    out.len() <= data.len(),
                    "{id}: buffer grew to {} past expected {}",
                    out.len(),
                    data.len()
                ),
            }
        }
    });
}

#[test]
fn truncated_streams_never_panic() {
    cases(64).run("truncated_streams_never_panic", |rng| {
        let data = vec_u8(rng, 1, 1024);
        let keep_seed = rng.next_u64() as usize;
        for id in CodecId::ALL_CODECS {
            let codec = codec_by_id(id).unwrap();
            let c = codec.compress(&data);
            let keep = keep_seed % c.len();
            let mut out = Vec::new();
            match codec.decompress_into(&c[..keep], data.len(), &mut out) {
                Ok(()) => assert_eq!(out.len(), data.len(), "{id}: Ok with wrong length"),
                Err(_) => assert!(out.len() <= data.len(), "{id}: buffer past expected_len"),
            }
        }
    });
}

/// The full hardening contract over arbitrarily mutated inputs: random
/// expected lengths, heavier mutations (multi-byte flips, splices of pure
/// noise), and both entry points. `decompress`/`decompress_into` must
/// return `Err` or an exactly-sized `Ok`, never panic, and never let the
/// output exceed `expected_len`.
#[test]
fn arbitrary_mutations_uphold_output_cap() {
    cases(96).run("arbitrary_mutations_uphold_output_cap", |rng| {
        let data = block(rng, 2048);
        for id in CodecId::ALL_CODECS {
            let codec = codec_by_id(id).unwrap();
            let mut c = codec.compress(&data);
            // 1..=8 random byte mutations (set, not just flip).
            if !c.is_empty() {
                for _ in 0..rng.range_usize(1, 9) {
                    let pos = rng.below_usize(c.len());
                    c[pos] = rng.next_u64() as u8;
                }
            }
            // Sometimes splice pure noise into the middle.
            if rng.chance(0.3) {
                let splice = vec_u8(rng, 1, 64);
                let at = rng.below_usize(c.len() + 1);
                for (k, b) in splice.into_iter().enumerate() {
                    c.insert(at + k, b);
                }
            }
            // Random expected length, decorrelated from the data.
            let expected = rng.below_usize(4096);
            let mut out = Vec::new();
            match codec.decompress_into(&c, expected, &mut out) {
                Ok(()) => assert_eq!(out.len(), expected, "{id}: Ok with wrong length"),
                Err(_) => assert!(
                    out.len() <= expected,
                    "{id}: buffer grew to {} past expected {expected}",
                    out.len()
                ),
            }
        }
    });
}

/// The estimator's fraction must be a sane probe of the real Lzf ratio:
/// highly repetitive blocks estimate compressible, and the estimate is
/// always in a bounded range.
#[test]
fn estimator_fraction_bounded() {
    cases(64).run("estimator_fraction_bounded", |rng| {
        let data = block(rng, 4096);
        let est = Estimator::default().estimate(&data);
        assert!(est.fraction >= 0.0 && est.fraction <= 2.0);
    });
}

#[test]
fn estimator_flags_constant_blocks() {
    cases(64).run("estimator_flags_constant_blocks", |rng| {
        let byte = rng.next_u64() as u8;
        let len = rng.range_usize(64, 4096);
        let data = vec![byte; len];
        let est = Estimator::default().estimate(&data);
        assert!(est.fraction < 0.25, "constant block estimated {}", est.fraction);
    });
}

/// Compressed-size monotonicity sanity: appending an identical copy of
/// the data must not *more than double* (plus slack) the compressed size
/// for LZ codecs — the second copy is one big match.
#[test]
fn lz_codecs_exploit_self_similarity() {
    cases(64).run("lz_codecs_exploit_self_similarity", |rng| {
        let data = vec_u8(rng, 64, 512);
        let doubled: Vec<u8> = data.iter().chain(data.iter()).copied().collect();
        for id in [CodecId::Lzf, CodecId::Lz4, CodecId::Deflate] {
            let codec = codec_by_id(id).unwrap();
            let single = codec.compress(&data).len();
            let both = codec.compress(&doubled).len();
            assert!(both <= 2 * single + 64, "{id}: doubled {both} vs single {single}");
        }
    });
}

/// Huffman length headers and frames built from arbitrary bits must
/// never panic the decoders (error paths only).
#[test]
fn random_bits_never_panic_decoders() {
    cases(128).run("random_bits_never_panic_decoders", |rng| {
        let bits = vec_u8(rng, 0, 512);
        use edc_compress::bitio::BitReader;
        use edc_compress::huffman::read_lengths;
        let mut r = BitReader::new(&bits);
        let _ = read_lengths(&mut r, 286); // may Err; must not panic
        for id in CodecId::ALL_CODECS {
            let codec = codec_by_id(id).unwrap();
            let _ = codec.decompress(&bits, 4096); // may Err; must not panic
        }
        let _ = edc_compress::frame::decompress(&bits);
    });
}

/// Frames round-trip for arbitrary content and reject arbitrary
/// single-byte corruption anywhere in the frame.
#[test]
fn frames_round_trip_and_reject_corruption() {
    cases(128).run("frames_round_trip_and_reject_corruption", |rng| {
        let data = vec_u8(rng, 0, 2048);
        let pos_seed = rng.next_u64() as usize;
        let flip = rng.range_u64(1, 256) as u8;
        let f = edc_compress::frame::compress(CodecId::Lz4, &data);
        let (codec, got) = edc_compress::frame::decompress(&f).unwrap();
        assert_eq!(codec, CodecId::Lz4);
        assert_eq!(&got, &data);
        let mut bad = f.clone();
        let pos = pos_seed % bad.len();
        bad[pos] ^= flip;
        // Any corruption must surface as an error: the header checksum
        // catches flips that the size/reference validation would miss.
        assert!(edc_compress::frame::decompress(&bad).is_err(), "flip at {pos} undetected");
    });
}
