//! Gzip-class codec: LZ77 with hash-chain match finding and lazy
//! evaluation, followed by canonical Huffman coding of a DEFLATE-style
//! literal/length + distance alphabet.
//!
//! This is EDC's *mid-ladder* algorithm: a noticeably better ratio than the
//! fast LZ codecs (it spends effort on chained match search and entropy
//! coding) at several times their CPU cost — the same trade-off position
//! Gzip occupies in the paper's Fig. 2.
//!
//! ## Container format
//!
//! A single bit selects the block type:
//!
//! * `1` — *raw block*: the input bytes follow verbatim (fallback when
//!   entropy coding would expand the data).
//! * `0` — *Huffman block*: serialized code lengths for the literal/length
//!   alphabet (286 symbols) and the distance alphabet (30 symbols), then
//!   the token stream terminated by the end-of-block symbol (256).
//!
//! Length and distance symbols use DEFLATE's base/extra-bits tables, so the
//! match space is lengths 3..=258 over a 32 KiB window.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{
    read_lengths_into, write_lengths, Decoder, Encoder, LengthBuilder, MAX_CODE_LEN,
};
use crate::state::{common_prefix_len, with_decode_scratch, CompressorState, Output, StampTable};
use crate::{Codec, CodecId, DecompressError};

const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const WINDOW_SIZE: usize = 32 * 1024;
const HASH_BITS: u32 = 15;
const NUM_LITLEN: usize = 286; // 0–255 literals, 256 EOB, 257–285 lengths
const NUM_DIST: usize = 30;
const EOB: usize = 256;

/// DEFLATE length-code table: `(base_length, extra_bits)` for codes 257..=285.
const LEN_TABLE: [(u16, u8); 29] = [
    (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0), (9, 0), (10, 0),
    (11, 1), (13, 1), (15, 1), (17, 1),
    (19, 2), (23, 2), (27, 2), (31, 2),
    (35, 3), (43, 3), (51, 3), (59, 3),
    (67, 4), (83, 4), (99, 4), (115, 4),
    (131, 5), (163, 5), (195, 5), (227, 5),
    (258, 0),
];

/// DEFLATE distance-code table: `(base_distance, extra_bits)` for codes 0..=29.
const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0), (2, 0), (3, 0), (4, 0),
    (5, 1), (7, 1), (9, 2), (13, 2),
    (17, 3), (25, 3), (33, 4), (49, 4),
    (65, 5), (97, 5), (129, 6), (193, 6),
    (257, 7), (385, 7), (513, 8), (769, 8),
    (1025, 9), (1537, 9), (2049, 10), (3073, 10),
    (4097, 11), (6145, 11), (8193, 12), (12289, 12),
    (16385, 13), (24577, 13),
];

/// Length symbol index per match length, replacing a `partition_point`
/// binary search in the per-token hot loop with one table load.
/// `LEN_SYM[len - MIN_MATCH]` is the index into [`LEN_TABLE`].
const LEN_SYM: [u8; MAX_MATCH - MIN_MATCH + 1] = {
    let mut t = [0u8; MAX_MATCH - MIN_MATCH + 1];
    let mut len = MIN_MATCH;
    while len <= MAX_MATCH {
        let mut idx = 0usize;
        let mut j = 0usize;
        while j < LEN_TABLE.len() {
            if LEN_TABLE[j].0 as usize <= len {
                idx = j;
            }
            j += 1;
        }
        t[len - MIN_MATCH] = idx as u8;
        len += 1;
    }
    t
};

/// Distance symbol LUT in zlib's two-tier layout: distances 1..=256 index
/// the first 256 entries directly; larger distances share a symbol per
/// 128-wide bucket (all [`DIST_TABLE`] bases above 256 are 1 + a multiple
/// of 128, so `(dist - 1) >> 7` lands each distance on its code).
const DIST_SYM: [u8; 512] = {
    const fn dist_idx(d: usize) -> u8 {
        let mut idx = 0usize;
        let mut j = 0usize;
        while j < DIST_TABLE.len() {
            if DIST_TABLE[j].0 as usize <= d {
                idx = j;
            }
            j += 1;
        }
        idx as u8
    }
    let mut t = [0u8; 512];
    let mut d = 1usize;
    while d <= 256 {
        t[d - 1] = dist_idx(d);
        d += 1;
    }
    let mut k = 2usize; // first bucket above 256: distances 257..=384
    while k < 256 {
        t[256 + k] = dist_idx((k << 7) + 1);
        k += 1;
    }
    t
};

/// Map a match length (3..=258) to `(code_index, extra_value, extra_bits)`.
#[inline]
fn length_code(len: usize) -> (usize, u64, u8) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    let idx = LEN_SYM[len - MIN_MATCH] as usize;
    let (base, extra) = LEN_TABLE[idx];
    (257 + idx, (len - usize::from(base)) as u64, extra)
}

/// Map a distance (1..=32768) to `(code_index, extra_value, extra_bits)`.
#[inline]
fn dist_code(dist: usize) -> (usize, u64, u8) {
    debug_assert!((1..=WINDOW_SIZE).contains(&dist));
    let idx = if dist <= 256 {
        DIST_SYM[dist - 1] as usize
    } else {
        DIST_SYM[256 + ((dist - 1) >> 7)] as usize
    };
    let (base, extra) = DIST_TABLE[idx];
    (idx, (dist - usize::from(base)) as u64, extra)
}

/// One LZ77 token prior to entropy coding, packed into a word. A literal
/// is its byte value. A match has [`TOKEN_MATCH`] set over the four
/// fields the emit pass needs, worked out once when the match is found:
///
/// ```text
/// bits  0..13  distance extra value      bits 18..23  length extra value
/// bits 13..18  distance symbol (0..=29)  bits 23..28  length symbol - 257
/// ```
type Token = u32;
const TOKEN_MATCH: Token = 1 << 31;
const TOKEN_DIST_SYM_SHIFT: u32 = 13;
const TOKEN_LEN_EXTRA_SHIFT: u32 = 18;
const TOKEN_LEN_SYM_SHIFT: u32 = 23;
/// Every token field but the distance extra value is five bits wide.
const TOKEN_FIELD_MASK: u32 = 31;

/// Match-finder effort parameters, derived from a compression level. The
/// names in brackets are zlib's for the same knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Effort {
    /// Chain probes per position; the knob that buys ratio with CPU time.
    max_chain: u32,
    /// Stop searching once a match at least this long is found
    /// (`nice_length`).
    nice_len: usize,
    /// Look for a longer match one position on only while the match in
    /// hand is shorter than this; 0 is greedy matching (`max_lazy`).
    lazy_below: usize,
    /// A match in hand at least this long quarters the chain of that
    /// second search (`good_length`).
    good_len: usize,
}

/// Gzip-class codec. See the [module docs](self) for format details.
///
/// Like zlib, the encoder takes a *level* (1–9) trading CPU for ratio:
/// level 1 probes few chain candidates greedily, level 9 searches deep
/// chains with lazy evaluation. The stream format is identical across
/// levels — any level decompresses any stream.
#[derive(Debug, Clone, Copy)]
pub struct Deflate {
    effort: Effort,
}

impl Default for Deflate {
    fn default() -> Self {
        Self::new()
    }
}

impl Deflate {
    /// Default level (6): the zlib-like balance used by the EDC ladder.
    pub const fn new() -> Self {
        Self::with_level(6)
    }

    /// Create the codec at an explicit compression level.
    ///
    /// # Panics
    /// Panics unless `1 <= level <= 9`.
    pub const fn with_level(level: u8) -> Self {
        let (max_chain, nice_len, lazy_below, good_len) = match level {
            1 => (4, 8, 0, 0),
            2 => (8, 16, 0, 0),
            3 => (16, 24, 0, 0),
            4 => (24, 32, 8, 4),
            5 => (40, 64, 16, 8),
            6 => (64, 96, 16, 8),
            7 => (96, 128, 32, 8),
            8 => (160, 192, 128, 32),
            9 => (256, MAX_MATCH, MAX_MATCH, 32),
            _ => panic!("deflate level must be 1..=9"),
        };
        Deflate { effort: Effort { max_chain, nice_len, lazy_below, good_len } }
    }
}

/// Bytes hashed per chain head. Four, not the format's three-byte minimum
/// match: a chain then holds positions that really share four bytes, so
/// `max_chain` probes visit that many true candidates instead of mostly
/// three-byte collisions - a third faster, at a better ratio on text and
/// code. Three-byte matches are not looked for; inputs whose best matches
/// are that short (4-symbol noise, packed counters) pay 1-9 % in size
/// (DESIGN.md §9).
const HASH_LEN: usize = 4;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes(data[i..i + HASH_LEN].try_into().expect("4-byte slice"));
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

const NIL: u32 = u32::MAX;

/// All per-call working memory of the Deflate encoder, owned by
/// [`CompressorState`] so steady-state compression never allocates: chain
/// matcher arrays, the token buffer, frequency tables, Huffman build
/// scratch and both encoder tables (rebuilt in place per block).
pub(crate) struct DeflateScratch {
    /// Chain heads per hash bucket, epoch-stamped so previous inputs'
    /// entries read as empty without clearing 256 KiB per call.
    head: StampTable,
    /// Previous position in the chain, indexed by `pos & (WINDOW_SIZE-1)`.
    /// Never cleared between inputs: chains are only entered through
    /// `head`, and every reachable entry is (re)written while inserting
    /// positions of the *current* input, so stale values are unreachable.
    prev: Vec<u32>,
    tokens: Vec<Token>,
    /// Symbol counts of `tokens`, kept as the tokens are pushed.
    lit_freq: [u64; NUM_LITLEN],
    dist_freq: [u64; NUM_DIST],
    lit_lens: Vec<u8>,
    dist_lens: Vec<u8>,
    lit_enc: Encoder,
    dist_enc: Encoder,
    builder: LengthBuilder,
}

impl DeflateScratch {
    pub(crate) fn new() -> Self {
        DeflateScratch {
            head: StampTable::new(),
            prev: Vec::new(),
            tokens: Vec::new(),
            lit_freq: [0; NUM_LITLEN],
            dist_freq: [0; NUM_DIST],
            lit_lens: Vec::new(),
            dist_lens: Vec::new(),
            lit_enc: Encoder::empty(),
            dist_enc: Encoder::empty(),
            builder: LengthBuilder::new(),
        }
    }

    /// Summed backing capacities, used to detect allocation events.
    pub(crate) fn capacity_signature(&self) -> usize {
        self.head.capacity()
            + self.prev.capacity()
            + self.tokens.capacity()
            + self.lit_lens.capacity()
            + self.dist_lens.capacity()
            + self.lit_enc.capacity()
            + self.dist_enc.capacity()
            + self.builder.capacity()
    }

    /// Start the Huffman block for the tokens just produced: build both
    /// codes from the counts, write the block flag and the two code-length
    /// headers into `w`, and return the exact length in bits the block
    /// will have once [`DeflateScratch::emit_tokens`] has run - header
    /// bits as written plus `freq * (code length + extra bits)` over both
    /// alphabets - so the caller can choose a raw block before a single
    /// token is emitted.
    fn begin_block(&mut self, w: &mut BitWriter) -> u64 {
        self.builder.build_into(&self.lit_freq, &mut self.lit_lens);
        self.builder.build_into(&self.dist_freq, &mut self.dist_lens);
        w.write_bits(0, 1);
        write_lengths(w, &self.lit_lens);
        write_lengths(w, &self.dist_lens);
        let mut bits = w.bit_len();
        for (&freq, &len) in self.lit_freq.iter().zip(&self.lit_lens) {
            bits += freq * u64::from(len);
        }
        for (&freq, &(_, extra)) in self.lit_freq[EOB + 1..].iter().zip(&LEN_TABLE) {
            bits += freq * u64::from(extra);
        }
        for (sym, &freq) in self.dist_freq.iter().enumerate() {
            bits += freq * u64::from(self.dist_lens[sym] + DIST_TABLE[sym].1);
        }
        bits
    }

    /// Entropy-code the tokens and the end-of-block symbol into `w`.
    ///
    /// A match goes out as one write of at most 15 + 5 + 15 + 13 = 48
    /// bits, assembled from two 32-entry tables that hold each length and
    /// distance symbol's code, code length and extra-bit count; literal
    /// codes are gathered three to a write.
    fn emit_tokens(&mut self, w: &mut BitWriter) {
        const CODE_BITS: u32 = 16;
        const CODE_MASK: u32 = (1 << CODE_BITS) - 1;
        const LEN_MASK: u32 = 15;
        const EXTRA_SHIFT: u32 = CODE_BITS + 4;
        self.lit_enc.rebuild(&self.lit_lens);
        self.dist_enc.rebuild(&self.dist_lens);
        // code | code length << 16 | extra-bit count << 20, per symbol.
        let mut len_tab = [0u32; 32];
        for (sym, &(_, extra)) in LEN_TABLE.iter().enumerate() {
            let (code, len) = self.lit_enc.code(EOB + 1 + sym);
            len_tab[sym] = code | len << CODE_BITS | u32::from(extra) << EXTRA_SHIFT;
        }
        let mut dist_tab = [0u32; 32];
        for (sym, &(_, extra)) in DIST_TABLE.iter().enumerate() {
            let (code, len) = self.dist_enc.code(sym);
            dist_tab[sym] = code | len << CODE_BITS | u32::from(extra) << EXTRA_SHIFT;
        }
        // Literal codes waiting to be written: three fit one write.
        let (mut acc, mut nbits) = (0u64, 0u32);
        for &token in &self.tokens {
            if token & TOKEN_MATCH == 0 {
                let (code, len) = self.lit_enc.code(token as usize);
                acc |= u64::from(code) << nbits;
                nbits += len;
                if nbits > 57 - MAX_CODE_LEN {
                    w.write_bits(acc, nbits);
                    (acc, nbits) = (0, 0);
                }
                continue;
            }
            if nbits > 0 {
                w.write_bits(acc, nbits);
            }
            let l = len_tab[(token >> TOKEN_LEN_SYM_SHIFT & TOKEN_FIELD_MASK) as usize];
            let d = dist_tab[(token >> TOKEN_DIST_SYM_SHIFT & TOKEN_FIELD_MASK) as usize];
            acc = u64::from(l & CODE_MASK);
            nbits = l >> CODE_BITS & LEN_MASK;
            acc |= u64::from(token >> TOKEN_LEN_EXTRA_SHIFT & TOKEN_FIELD_MASK) << nbits;
            nbits += l >> EXTRA_SHIFT;
            acc |= u64::from(d & CODE_MASK) << nbits;
            nbits += d >> CODE_BITS & LEN_MASK;
            acc |= u64::from(token & ((1 << TOKEN_DIST_SYM_SHIFT) - 1)) << nbits;
            nbits += d >> EXTRA_SHIFT;
            w.write_bits(acc, nbits);
            (acc, nbits) = (0, 0);
        }
        let (code, len) = self.lit_enc.code(EOB);
        w.write_bits(acc | u64::from(code) << nbits, nbits + len);
    }
}

/// Hash-chain match finder over a 32 KiB sliding window, borrowing its
/// arrays from [`DeflateScratch`].
struct ChainMatcher<'a> {
    head: &'a mut StampTable,
    /// Fixed-size array reference so the `& (WINDOW_SIZE - 1)` mask
    /// provably stays in bounds — no per-probe bounds check in the walk.
    prev: &'a mut [u32; WINDOW_SIZE],
    nice_len: usize,
}

impl ChainMatcher<'_> {
    /// Push position `i` onto the chain of its four bytes and return the
    /// chain's previous head (or [`NIL`]): the first candidate for a match
    /// at `i`, from a single access to the head slot.
    ///
    /// Inserting before searching is safe even for the one candidate that
    /// shares `i`'s `prev` slot, `i - WINDOW_SIZE`: it is the farthest
    /// position a match may start at, the walk probes it before following
    /// its (now overwritten) link, and that link fails the walk's
    /// monotonicity guard.
    #[inline]
    fn insert(&mut self, data: &[u8], i: usize) -> u32 {
        let before = match self.head.replace(hash4(data, i), i) {
            Some(p) => p as u32,
            None => NIL,
        };
        self.prev[i & (WINDOW_SIZE - 1)] = before;
        before
    }

    /// Best `(len, dist)` match for position `i` that is strictly longer
    /// than `floor >= 1`, or `None`, walking at most `chain` candidates
    /// from `cand` (what [`ChainMatcher::insert`] returned for `i`).
    ///
    /// `floor` makes the lazy second search cheap: the caller only cares
    /// about a match longer than the one it already holds, so candidates
    /// at or below that length fail the two-byte pre-check and never pay
    /// a full prefix scan.
    fn find(
        &self,
        mut cand: u32,
        data: &[u8],
        i: usize,
        max_len: usize,
        floor: usize,
        mut chain: u32,
    ) -> Option<(usize, usize)> {
        let mut best_len = floor;
        if best_len >= max_len {
            return None; // nothing longer than the floor can fit
        }
        let mut best_dist = 0usize;
        // The byte pair a candidate must match at offsets `best_len - 1`
        // and `best_len` to possibly beat the best (zlib's
        // `scan_end1`/`scan_end` trick, fused into one 16-bit compare);
        // re-read only when the best improves. In bounds: `1 <= best_len <
        // max_len <= data.len() - i` throughout (the nice_len break below
        // fires before `best_len` can reach `max_len`).
        let pair_at = |p: usize| -> u16 {
            u16::from_le_bytes(data[p - 1..=p].try_into().expect("2-byte slice"))
        };
        let mut wanted = pair_at(i + best_len);
        while cand != NIL && chain > 0 {
            let c = cand as usize;
            if i - c > WINDOW_SIZE {
                break;
            }
            // Pair pre-check before the word-wide scan (`c < i`, so
            // `c + best_len` is in bounds too). A candidate whose common
            // prefix exceeds `best_len` matches at both offsets, so this
            // rejects only candidates that cannot improve.
            if pair_at(c + best_len) == wanted {
                let len = common_prefix_len(data, c, i, max_len);
                if len > best_len {
                    best_len = len;
                    best_dist = i - c;
                    if len >= self.nice_len.min(max_len) {
                        break;
                    }
                    wanted = pair_at(i + best_len);
                }
            }
            let next = self.prev[c & (WINDOW_SIZE - 1)];
            // Guard against stale entries that wrapped around the window.
            if next != NIL && next as usize >= c {
                break;
            }
            cand = next;
            chain -= 1;
        }
        (best_dist != 0).then_some((best_len, best_dist))
    }
}

/// Where the tokenizer puts its tokens: the buffer and the symbol counts
/// of what is in it, kept in step so no second walk has to count.
struct TokenSink<'a> {
    tokens: &'a mut Vec<Token>,
    lit_freq: &'a mut [u64; NUM_LITLEN],
    dist_freq: &'a mut [u64; NUM_DIST],
}

impl TokenSink<'_> {
    #[inline]
    fn literals(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.tokens.push(Token::from(b));
            self.lit_freq[usize::from(b)] += 1;
        }
    }

    #[inline]
    fn matched(&mut self, len: usize, dist: usize) {
        let (len_sym, len_extra, _) = length_code(len);
        let (dist_sym, dist_extra, _) = dist_code(dist);
        self.tokens.push(
            TOKEN_MATCH
                | ((len_sym - (EOB + 1)) as Token) << TOKEN_LEN_SYM_SHIFT
                | (len_extra as Token) << TOKEN_LEN_EXTRA_SHIFT
                | (dist_sym as Token) << TOKEN_DIST_SYM_SHIFT
                | dist_extra as Token,
        );
        self.lit_freq[len_sym] += 1;
        self.dist_freq[dist_sym] += 1;
    }
}

/// Tokenize `input` into `scratch.tokens`, counting symbols into
/// `scratch.lit_freq`/`dist_freq` (end-of-block included) as it goes.
///
/// Matching is zlib's lazy scheme: a match shorter than `lazy_below` is
/// held while the next position is searched for a strictly longer one -
/// with a quarter of the chain once the held match reaches `good_len` -
/// and gives way to it as a literal. Positions that find nothing count a
/// miss streak; every 32 misses the tokenizer steps one byte further
/// between searches (LZ4's acceleration), so an incompressible stretch
/// inside a mixed run costs a fraction of a chain walk per byte, and the
/// first match resets the stride. Skipped bytes are not entered into the
/// chains.
fn tokenize_into(input: &[u8], effort: Effort, scratch: &mut DeflateScratch) {
    let n = input.len();
    let DeflateScratch { head, prev, tokens, lit_freq, dist_freq, .. } = scratch;
    lit_freq.fill(0);
    dist_freq.fill(0);
    lit_freq[EOB] = 1;
    tokens.clear();
    // The worst case is all literals, which the stride makes cheap to
    // reach: reserving it up front keeps the first incompressible run on
    // a warm state from growing the buffer mid-loop.
    tokens.reserve(n);
    let mut sink = TokenSink { tokens, lit_freq, dist_freq };
    if n < HASH_LEN {
        sink.literals(input);
        return;
    }
    head.begin(1 << HASH_BITS);
    if prev.len() != WINDOW_SIZE {
        prev.clear();
        prev.resize(WINDOW_SIZE, NIL);
    }
    let prev: &mut [u32; WINDOW_SIZE] =
        (&mut prev[..]).try_into().expect("prev sized to the window");
    let mut m = ChainMatcher { head, prev, nice_len: effort.nice_len };
    let limit = n - HASH_LEN; // last position where hash4 is valid
    let max_len = |i: usize| (n - i).min(MAX_MATCH);
    let mut misses = 0usize;
    let mut i = 0usize;
    while i <= limit {
        let cand = m.insert(input, i);
        let Some((mut len, mut dist)) =
            m.find(cand, input, i, max_len(i), MIN_MATCH, effort.max_chain)
        else {
            misses += 1;
            let next = (i + 1 + (misses >> 5)).min(n);
            sink.literals(&input[i..next]);
            i = next;
            continue;
        };
        misses = 0;
        // Positions up to `inserted` are in the chains already.
        let mut inserted = i;
        if len < effort.lazy_below && i < limit {
            let chain = effort.max_chain >> if len >= effort.good_len { 2 } else { 0 };
            let cand = m.insert(input, i + 1);
            inserted = i + 1;
            if let Some(longer) = m.find(cand, input, i + 1, max_len(i + 1), len, chain) {
                sink.literals(&input[i..=i]);
                i += 1;
                (len, dist) = longer;
            }
        }
        sink.matched(len, dist);
        // Enter the positions the match covers into the dictionary.
        let match_end = i + len;
        for j in inserted + 1..match_end.min(limit + 1) {
            m.insert(input, j);
        }
        i = match_end;
    }
    sink.literals(&input[i..]);
}

/// The raw block: the flag bit, then the input verbatim, seven bytes to a
/// write.
fn write_raw(w: &mut BitWriter, input: &[u8]) {
    w.write_bits(1, 1);
    let mut chunks = input.chunks_exact(7);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word[..7].copy_from_slice(chunk);
        w.write_bits(u64::from_le_bytes(word), 56);
    }
    for &b in chunks.remainder() {
        w.write_byte(b);
    }
}

impl Codec for Deflate {
    fn id(&self) -> CodecId {
        CodecId::Deflate
    }

    fn compress_with(&self, state: &mut CompressorState, input: &[u8], out: &mut Vec<u8>) {
        let cap0 = state.deflate.capacity_signature();
        let st = &mut state.deflate;
        tokenize_into(input, self.effort, st);
        // The caller's buffer backs the bit stream directly.
        let mut w = BitWriter::with_buffer(std::mem::take(out));
        let huffman_bits = st.begin_block(&mut w);
        // A raw block is the flag bit and the input, one byte more than
        // the input. It wins ties: the same bytes stored, decoded three
        // times faster.
        if huffman_bits.div_ceil(8) > input.len() as u64 {
            w = BitWriter::with_buffer(w.finish());
            write_raw(&mut w, input);
        } else {
            st.emit_tokens(&mut w);
            debug_assert_eq!(w.bit_len(), huffman_bits, "block size predicted wrongly");
        }
        *out = w.finish();
        if state.deflate.capacity_signature() != cap0 {
            state.alloc_events += 1;
        }
    }

    fn decompress_into(
        &self,
        input: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), DecompressError> {
        let mut out = Output::new(out, expected_len);
        if input.is_empty() {
            return Err(DecompressError::Truncated);
        }
        let mut r = BitReader::new(input);
        if r.read_bits(1)? == 1 {
            return out.fill_from_bits(&mut r);
        }
        with_decode_scratch(|scratch| {
            scratch.read_tables(&mut r)?;
            inflate_tokens(r, &scratch.lit_dec, &scratch.dist_dec, &mut out)
        })?;
        out.finish()
    }
}

/// Root widths of the two decode tables. Ten bits for literals/lengths, a
/// 4 KiB root that stays in L1 beside the window being copied from: on
/// 64 KiB runs 9 to 11 bits decode alike, but the tables are rebuilt per
/// block, and on 4 KiB blocks 11 bits costs 4-7 % (the fill doubles per
/// bit) while 9 sends 10 % more time through subtables on binary content.
/// The 30-symbol distance alphabet rarely passes eight.
const LIT_ROOT_BITS: u32 = 10;
const DIST_ROOT_BITS: u32 = 8;

// What Deflate keeps in the payload of a decode-table entry: the token's
// class, how many extra bits follow the code, and the base those bits add
// to - so one lookup replaces the symbol decode plus a `LEN_TABLE` or
// `DIST_TABLE` load. An end-of-block entry has neither class bit set.
const ENTRY_EXTRA_SHIFT: u32 = Decoder::PAYLOAD_SHIFT;
const ENTRY_EXTRA_MASK: u32 = 0xF;
const ENTRY_LITERAL: u32 = 1 << (Decoder::PAYLOAD_SHIFT + 4);
const ENTRY_MATCH: u32 = 1 << (Decoder::PAYLOAD_SHIFT + 5);
const ENTRY_BASE_SHIFT: u32 = Decoder::PAYLOAD_SHIFT + 8;

/// The `Decoder::rebuild` payload for a token of `class`.
const fn entry_payload(class: u32, base: u16, extra: u8) -> u32 {
    let entry = (base as u32) << ENTRY_BASE_SHIFT | class | (extra as u32) << ENTRY_EXTRA_SHIFT;
    entry >> Decoder::PAYLOAD_SHIFT
}

/// Decode-side working memory, one per thread
/// ([`crate::state::with_decode_scratch`]): the two code-length arrays and
/// both decode tables, rebuilt in place for every Huffman block so a warm
/// decode allocates nothing. A failed decode may leave any of it half
/// written; the next one overwrites all of it before reading any.
pub(crate) struct InflateScratch {
    lit_lens: [u8; NUM_LITLEN],
    dist_lens: [u8; NUM_DIST],
    lit_dec: Decoder,
    dist_dec: Decoder,
}

impl InflateScratch {
    pub(crate) fn new() -> Self {
        InflateScratch {
            lit_lens: [0; NUM_LITLEN],
            dist_lens: [0; NUM_DIST],
            lit_dec: Decoder::default(),
            dist_dec: Decoder::default(),
        }
    }

    /// Read a Huffman block's header and build both tables from it.
    fn read_tables(&mut self, r: &mut BitReader<'_>) -> Result<(), DecompressError> {
        read_lengths_into(r, &mut self.lit_lens)?;
        read_lengths_into(r, &mut self.dist_lens)?;
        self.lit_dec.rebuild(&self.lit_lens, LIT_ROOT_BITS, |sym| match sym {
            0..=255 => entry_payload(ENTRY_LITERAL, sym as u16, 0),
            EOB => entry_payload(0, 0, 0),
            _ => {
                let (base, extra) = LEN_TABLE[sym - 257];
                entry_payload(ENTRY_MATCH, base, extra)
            }
        })?;
        self.dist_dec.rebuild(&self.dist_lens, DIST_ROOT_BITS, |sym| {
            let (base, extra) = DIST_TABLE[sym];
            entry_payload(ENTRY_MATCH, base, extra)
        })
    }

    /// Summed backing capacities, used to detect allocation events.
    #[cfg(test)]
    fn capacity_signature(&self) -> usize {
        self.lit_dec.capacity() + self.dist_dec.capacity()
    }
}

/// Decode a Huffman block's tokens up to its end-of-block symbol.
///
/// One refill covers a whole match token - at most 15 + 5 + 15 + 13 = 48
/// of the 56 bits it guarantees - or three literals, so the fields are
/// taken without a check each; one [`BitReader::overdrawn`] test per
/// token, made before anything is written, reports a stream that ended
/// inside it. The reader is taken by value so its fields live in
/// registers across the loop.
fn inflate_tokens(
    mut r: BitReader<'_>,
    lit_dec: &Decoder,
    dist_dec: &Decoder,
    out: &mut Output<'_>,
) -> Result<(), DecompressError> {
    // An entry's base plus the extra bits that follow its code.
    let value = |r: &mut BitReader<'_>, e: u32| {
        let extra = r.take(e >> ENTRY_EXTRA_SHIFT & ENTRY_EXTRA_MASK);
        (e >> ENTRY_BASE_SHIFT) as usize + extra as usize
    };
    'token: loop {
        r.refill();
        let mut e = lit_dec.lookup(&mut r);
        if e & ENTRY_LITERAL != 0 {
            // Up to two more codes on the same refill (3 x 15 <= 56).
            for spare in (0..3).rev() {
                if r.overdrawn() {
                    return Err(DecompressError::Truncated);
                }
                out.push((e >> ENTRY_BASE_SHIFT) as u8)?;
                if spare == 0 {
                    continue 'token;
                }
                e = lit_dec.lookup(&mut r);
                if e & ENTRY_LITERAL == 0 {
                    break;
                }
            }
            // The literals and this code used up to 45 bits.
            r.refill();
        }
        if e & ENTRY_MATCH == 0 {
            return match e {
                0 => Err(lit_dec.no_code_error()),
                _ if r.overdrawn() => Err(DecompressError::Truncated),
                _ => Ok(()), // end of block
            };
        }
        let len = value(&mut r, e);
        let d = dist_dec.lookup(&mut r);
        if d == 0 {
            // Nothing was skipped for it, so an overdraw here happened in
            // the length fields, ahead of the bad code.
            return Err(match r.overdrawn() {
                true => DecompressError::Truncated,
                false => dist_dec.no_code_error(),
            });
        }
        let dist = value(&mut r, d);
        if r.overdrawn() {
            return Err(DecompressError::Truncated);
        }
        out.copy_match(dist, len)?;
    }
}

#[cfg(test)]
mod encoder_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lzf::Lzf;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let c = Deflate::new().compress(data);
        Deflate::new().decompress(&c, data.len()).expect("round trip")
    }

    #[test]
    fn empty_input() {
        assert_eq!(roundtrip(b""), b"");
    }

    #[test]
    fn single_byte() {
        assert_eq!(roundtrip(b"A"), b"A");
    }

    #[test]
    fn length_code_table_covers_range() {
        for len in MIN_MATCH..=MAX_MATCH {
            let (code, extra, bits) = length_code(len);
            assert!((257..=285).contains(&code), "len {len} -> code {code}");
            let (base, tbits) = LEN_TABLE[code - 257];
            assert_eq!(u32::from(bits), u32::from(tbits));
            assert_eq!(usize::from(base) + extra as usize, len);
        }
    }

    #[test]
    fn dist_code_table_covers_range() {
        for dist in [1usize, 2, 3, 4, 5, 100, 1024, 4096, 10000, 32768] {
            let (code, extra, _bits) = dist_code(dist);
            assert!(code < NUM_DIST);
            let (base, _) = DIST_TABLE[code];
            assert_eq!(usize::from(base) + extra as usize, dist);
        }
    }

    #[test]
    fn repeated_text_high_ratio() {
        let data: Vec<u8> = b"elastic data compression for flash storage "
            .iter()
            .copied()
            .cycle()
            .take(16384)
            .collect();
        let c = Deflate::new().compress(&data);
        assert!(c.len() < data.len() / 10, "ratio too low: {} bytes", c.len());
        assert_eq!(Deflate::new().decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn better_ratio_than_lzf_on_text() {
        // The mid-ladder codec must out-compress the fast codec on text —
        // this ordering is load-bearing for the paper's Fig. 2.
        let mut data = Vec::new();
        let words = [
            "request", "storage", "flash", "latency", "compression", "block",
            "buffer", "queue", "page", "erase", "write", "read",
        ];
        let mut seed = 11u64;
        for _ in 0..4000 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            data.extend_from_slice(words[(seed >> 33) as usize % words.len()].as_bytes());
            data.push(b' ');
        }
        let d = Deflate::new().compress(&data);
        let l = Lzf::new().compress(&data);
        assert!(d.len() < l.len(), "deflate {} !< lzf {}", d.len(), l.len());
        assert_eq!(Deflate::new().decompress(&d, data.len()).unwrap(), data);
    }

    #[test]
    fn incompressible_falls_back_to_raw() {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        let c = Deflate::new().compress(&data);
        assert!(c.len() <= data.len() + 1, "raw fallback bound violated: {}", c.len());
        assert_eq!(Deflate::new().decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn all_zero_block() {
        let data = vec![0u8; 65536];
        let c = Deflate::new().compress(&data);
        assert!(c.len() < 600, "got {}", c.len());
        assert_eq!(Deflate::new().decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn max_match_length_block() {
        // A run long enough to require several MAX_MATCH tokens.
        let mut data = vec![b'r'; MAX_MATCH * 4 + 17];
        data[0] = b's'; // avoid the trivial all-same case
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn long_range_match_across_window() {
        let mut data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let tail = data[..1000].to_vec();
        data.extend_from_slice(&tail); // match at distance 20 000
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn truncated_stream_detected() {
        let data: Vec<u8> = b"hello world ".iter().copied().cycle().take(4096).collect();
        let mut c = Deflate::new().compress(&data);
        c.truncate(c.len() / 2);
        assert!(Deflate::new().decompress(&c, data.len()).is_err());
    }

    #[test]
    fn garbage_stream_detected() {
        let garbage: Vec<u8> = (0..512u32).map(|i| (i * 7 + 3) as u8).collect();
        // Must error, never panic.
        let _ = Deflate::new().decompress(&garbage, 4096).is_err();
    }

    #[test]
    fn wrong_expected_len_detected() {
        let data = b"abcabcabcabcabcabc";
        let c = Deflate::new().compress(data);
        assert!(Deflate::new().decompress(&c, data.len() + 1).is_err());
        assert!(Deflate::new().decompress(&c, data.len() - 1).is_err());
    }

    #[test]
    fn undersized_expected_len_is_output_overflow() {
        // The decoder must refuse to produce byte `expected_len + 1`, even
        // mid-match: the output buffer never exceeds what the caller sized.
        let data: Vec<u8> = b"abcabcabcabc".iter().copied().cycle().take(2048).collect();
        let c = Deflate::new().compress(&data);
        let err = Deflate::new().decompress(&c, 100).unwrap_err();
        assert!(matches!(err, DecompressError::OutputOverflow { expected: 100 }));
    }

    #[test]
    fn warm_decode_allocates_nothing() {
        // 1 000 streams of mixed codec, size and content into one reused
        // `Vec`: after the first Deflate decode neither the thread's
        // decode scratch nor the output buffer may grow again.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut out = Vec::with_capacity(16 * 1024);
        let out_capacity = out.capacity();
        let mut warm = None;
        for i in 0..1000 {
            let len = 64 + (next() % (16 * 1024 - 64)) as usize;
            let data: Vec<u8> = match i % 4 {
                0 => (0..len).map(|k| b"flash page erase block "[k % 23]).collect(),
                1 => (0..len).map(|k| (k / 3 % 7) as u8 ^ (next() % 3 == 0) as u8).collect(),
                2 => (0..len).map(|_| (next() >> 56) as u8).collect(), // deep codes
                _ => (0..len).map(|k| (next() >> 59) as u8 * u8::from(k % 512 >= 400)).collect(),
            };
            let codec: &dyn Codec = if i % 3 == 0 { &Lzf::new() } else { &Deflate::with_level(1) };
            let stream = codec.compress(&data);
            codec.decompress_into(&stream, data.len(), &mut out).expect("round trip");
            assert_eq!(out, data);
            if codec.id() == CodecId::Deflate {
                let signature = with_decode_scratch(|s| s.capacity_signature());
                assert_eq!(*warm.get_or_insert(signature), signature, "scratch grew at stream {i}");
            }
        }
        assert!(warm.is_some_and(|signature| signature > 0));
        assert_eq!(out.capacity(), out_capacity);
    }

    #[test]
    fn deterministic_output() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 131 % 256) as u8).collect();
        assert_eq!(Deflate::new().compress(&data), Deflate::new().compress(&data));
    }

    #[test]
    fn levels_trade_size_for_effort() {
        // Monotone-ish: level 9 must not produce a larger stream than
        // level 1 on matchy text, and every level round-trips.
        let data: Vec<u8> = b"the elastic compression ladder trades ratio for speed "
            .iter()
            .copied()
            .cycle()
            .take(32768)
            .collect();
        let mut sizes = Vec::new();
        for level in 1..=9u8 {
            let codec = Deflate::with_level(level);
            let c = codec.compress(&data);
            assert_eq!(codec.decompress(&c, data.len()).unwrap(), data, "level {level}");
            sizes.push(c.len());
        }
        assert!(sizes[8] <= sizes[0], "level 9 {} !<= level 1 {}", sizes[8], sizes[0]);
    }

    #[test]
    fn levels_are_stream_compatible() {
        // A level-1 decoder state machine must read a level-9 stream.
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 100) as u8).collect();
        let c = Deflate::with_level(9).compress(&data);
        assert_eq!(Deflate::with_level(1).decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    #[should_panic(expected = "level must be 1..=9")]
    fn level_zero_rejected() {
        let _ = Deflate::with_level(0);
    }

    #[test]
    fn binary_structured_data() {
        // Struct-like records with repeating layout.
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(&i.to_le_bytes());
            data.extend_from_slice(&(i as u64 * 3).to_le_bytes());
            data.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
        }
        let c = Deflate::new().compress(&data);
        assert!(c.len() < data.len() / 2);
        assert_eq!(Deflate::new().decompress(&c, data.len()).unwrap(), data);
    }
}

