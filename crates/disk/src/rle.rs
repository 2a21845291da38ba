//! Word-granular run-length encoding: the one byte code of the
//! [`ModeledStore`], compressed swap images and journal records.
//!
//! Table 1 writes more than 4 GB of object data through the swap path;
//! a laptop-scale reproduction cannot hold that for real. The workloads'
//! rows are highly repetitive (the paper's Test-2 program "just adds
//! some numbers held by each process"), so images are run-length coded
//! over 32-bit words: constant rows shrink to a handful of bytes, and
//! arbitrary data round-trips unchanged at its own size.
//!
//! **Stream.** `[records u32]`, the records, then `[tail_len u8][tail…]`
//! for the 0–3 bytes past the last whole word, all little-endian. The
//! top bit of a record's header word says which of two kinds it is:
//!
//! * clear: a *repeat* `[n][word]`, `n` copies of `word`;
//! * set: a *literal* `[0x8000_0000 | n][n words]`, `n` words as they
//!   are.
//!
//! The encoder writes a repeat for each run of three or more equal
//! words, and for a run of two unless a literal is open (inside one the
//! pair costs the same 8 bytes and spares the next literal's header).
//! Every other word joins the open literal, which is copied as one
//! slice. A `len`-byte section whose adjacent words all differ
//! therefore costs exactly `len + 9` bytes (the record count, one
//! literal header, the tail length), and no section costs more than
//! [`RleImage::stream_bound`].
//!
//! **Block scan.** The encoder searches for two things: where the
//! next run starts (the first word equal to its successor) and where a
//! run ends (the first word unequal to the run's). Both searches test
//! their first 16 words one by one, where a short run ends, and then
//! go 16 words a step: `scan` loads a block, tests every word of it
//! without a branch and looks word by word only inside a block that
//! holds a hit. Incompressible data and long runs thus cost one branch
//! per 16 words. Under a mask the words are XORed as they are loaded;
//! `Plain` and `Masked` are the two kinds of section, so neither
//! loop tests which kind it reads. The records are the ones the
//! word-by-word search wrote.
//!
//! **Backward readability.** Before literals, every record was a repeat
//! (a lone word a repeat of one), written exactly as a repeat is today.
//! Those counts stay below 2³¹ in any section under 8 GiB, so such a
//! stream reads as repeats here and decodes to the same bytes. No
//! section encodes longer than it did then: a literal of `k` words
//! costs `4 + 4k` bytes where `k` one-word repeats cost `8k`.
//!
//! [`ModeledStore`]: crate::modeled::ModeledStore

use std::ops::Range;

/// Set in a literal record's header word; clear in a repeat's.
const LITERAL_FLAG: u32 = 0x8000_0000;

/// Most words one record covers: the header's low 31 bits.
const MAX_WORDS: usize = !LITERAL_FLAG as usize;

/// Deterministic decode failure: the byte stream is not a valid
/// [`RleImage::to_bytes`] stream (truncated mid-record, impossible
/// tail length, or arithmetic overflow in the declared geometry).
///
/// Journals and swap images both feed stored bytes back through this
/// parser, and a torn append makes truncated streams a *real* input —
/// parsing must reject them as data, never panic or slice out of
/// bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptImage {
    /// Byte offset at which parsing failed.
    pub at: usize,
}

impl std::fmt::Display for CorruptImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt RLE image (parse failed at byte {})", self.at)
    }
}

impl std::error::Error for CorruptImage {}

/// An RLE-compressed byte image: its stream bytes and the length they
/// decode to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RleImage {
    bytes: Vec<u8>,
    /// Original length in bytes.
    len: usize,
}

/// Words a search tests one by one before it goes a block at a time,
/// and the words of a block.
const BLOCK: usize = 16;

/// A section to encode: its bytes ([`Plain`]), or its bytes XOR a
/// mask's ([`Masked`]).
trait Section: Copy {
    /// Its length in bytes.
    fn len(self) -> usize;

    /// Words `at..at + N`.
    fn words<const N: usize>(self, at: usize) -> [u32; N];

    /// Word `at`.
    fn word(self, at: usize) -> u32;

    /// Append bytes `range`.
    fn copy(self, out: &mut Vec<u8>, range: Range<usize>);
}

/// Words `at..at + N` of `bytes`.
#[inline(always)]
fn words<const N: usize>(bytes: &[u8], at: usize) -> [u32; N] {
    let w = bytes.as_chunks::<4>().0[at..].first_chunk::<N>();
    w.expect("words in range").map(u32::from_le_bytes)
}

/// A section's own bytes.
#[derive(Clone, Copy)]
struct Plain<'a>(&'a [u8]);

impl Section for Plain<'_> {
    fn len(self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    fn words<const N: usize>(self, at: usize) -> [u32; N] {
        words(self.0, at)
    }

    #[inline(always)]
    fn word(self, at: usize) -> u32 {
        u32::from_le_bytes(self.0.as_chunks::<4>().0[at])
    }

    fn copy(self, out: &mut Vec<u8>, range: Range<usize>) {
        out.extend_from_slice(&self.0[range]);
    }
}

/// A section's bytes XOR a mask's of the same length.
#[derive(Clone, Copy)]
struct Masked<'a>(&'a [u8], &'a [u8]);

impl Section for Masked<'_> {
    fn len(self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    fn words<const N: usize>(self, at: usize) -> [u32; N] {
        let (d, m) = (words::<N>(self.0, at), words::<N>(self.1, at));
        std::array::from_fn(|t| d[t] ^ m[t])
    }

    #[inline(always)]
    fn word(self, at: usize) -> u32 {
        Plain(self.0).word(at) ^ Plain(self.1).word(at)
    }

    fn copy(self, out: &mut Vec<u8>, range: Range<usize>) {
        let at = out.len();
        out.extend_from_slice(&self.0[range.clone()]);
        xor_into(&mut out[at..], &self.1[range]);
    }
}

/// The first `k` in `from..to` where `hit(k)`. `any(at)` says whether
/// `hit` holds anywhere in `at..at + BLOCK`, testing every word without
/// a branch. The first [`BLOCK`] words are tested one by one (a short
/// run ends among them), then whole blocks with `any`, then word by
/// word inside the block that said yes or past the last whole block.
#[inline(always)]
fn scan(
    from: usize,
    to: usize,
    hit: impl Fn(usize) -> bool,
    any: impl Fn(usize) -> bool,
) -> Option<usize> {
    let near = to.min(from + BLOCK);
    if let Some(k) = (from..near).find(|&k| hit(k)) {
        return Some(k);
    }
    let mut at = near;
    while at + BLOCK <= to && !any(at) {
        at += BLOCK;
    }
    (at..to).find(|&k| hit(k))
}

/// Where the next run starts: the first `k` in `from..to` whose word
/// equals its successor.
#[inline(always)]
fn run_start(section: impl Section, from: usize, to: usize) -> Option<usize> {
    let hit = |k| section.word(k) == section.word(k + 1);
    let any = |at| {
        let w: [u32; BLOCK + 1] = section.words(at);
        (0..BLOCK).fold(false, |any, t| any | (w[t] == w[t + 1]))
    };
    scan(from, to, hit, any)
}

/// Where a run of `word` ends: the first `k` in `from..to` whose word
/// differs from it.
#[inline(always)]
fn run_end(section: impl Section, word: u32, from: usize, to: usize) -> Option<usize> {
    let hit = |k| section.word(k) != word;
    let any = |at| {
        let w: [u32; BLOCK] = section.words(at);
        w.iter().fold(false, |any, &x| any | (x != word))
    };
    scan(from, to, hit, any)
}

/// The one record writer: append the whole stream of `section`. No
/// record covers more than `MAX` words ([`MAX_WORDS`] but in tests).
fn write_records<const MAX: usize>(out: &mut Vec<u8>, section: impl Section) {
    let header = out.len();
    out.extend_from_slice(&[0; 4]);
    // Writes the records of one literal, returning how many.
    let literal = |out: &mut Vec<u8>, range: Range<usize>| {
        if range.len() == 1 {
            // A lone word (a sparse diff's usual literal) as one write.
            let both = u64::from(section.word(range.start)) << 32 | u64::from(LITERAL_FLAG | 1);
            out.extend_from_slice(&both.to_le_bytes());
            return 1;
        }
        let starts = range.clone().step_by(MAX);
        for start in starts.clone() {
            let end = range.end.min(start + MAX);
            out.extend_from_slice(&(LITERAL_FLAG | (end - start) as u32).to_le_bytes());
            section.copy(out, 4 * start..4 * end);
        }
        starts.len() as u32
    };
    let mut records = 0u32;
    let len = section.len();
    let n = len / 4;
    // Words `open..i` are scanned and wait in the literal being gathered.
    let (mut open, mut i) = (0, 0);
    while i < n {
        // The next run starts at the first word equal to its successor.
        let Some(k) = run_start(section, i, n - 1) else {
            break;
        };
        let (w, cap) = (section.word(k), n.min(k + MAX));
        let j = run_end(section, w, k + 2, cap).unwrap_or(cap);
        if j - k > 2 || open == k {
            if open < k {
                records += literal(out, open..k);
            }
            // `[count u32][word u32]`, little-endian, as one write.
            let both = u64::from(w) << 32 | (j - k) as u64;
            out.extend_from_slice(&both.to_le_bytes());
            records += 1;
            open = j;
        }
        i = j;
    }
    if open < n {
        records += literal(out, open..n);
    }
    out[header..header + 4].copy_from_slice(&records.to_le_bytes());
    out.push((len - 4 * n) as u8);
    section.copy(out, 4 * n..len);
}

/// One record as the walker hands it over.
enum Piece<'a> {
    /// `len` bytes of `word` repeated.
    Repeat { word: u32, len: usize },
    /// Bytes as they are: a literal's words, or the stream's tail.
    Literal(&'a [u8]),
}

/// The one record walker: check the framing of the stream at the head
/// of `bytes` and hand each record to `visit` with its logical byte
/// offset, the tail last as a literal. A record that would end past
/// `limit` is corrupt at its header, before its body is read; a stream
/// cut short is corrupt at its end. Returns `(stream bytes consumed,
/// logical length)`.
fn walk<'a>(
    bytes: &'a [u8],
    limit: usize,
    mut visit: impl FnMut(usize, Piece<'a>),
) -> Result<(usize, usize), CorruptImage> {
    let corrupt = |at: usize| CorruptImage { at };
    let take = |at: usize, n: usize| {
        let body = bytes.get(at..).and_then(|b| b.get(..n));
        body.ok_or(corrupt(bytes.len()))
    };
    let word_at =
        |at: usize| take(at, 4).map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes")));
    let mut at = 4;
    let mut pos = 0usize;
    for _ in 0..word_at(0)? {
        let header = word_at(at)?;
        let (literal, words) = (
            header & LITERAL_FLAG != 0,
            (header & !LITERAL_FLAG) as usize,
        );
        let end = (words.checked_mul(4))
            .and_then(|len| len.checked_add(pos))
            .filter(|&end| end <= limit)
            .ok_or(corrupt(at))?;
        let len = end - pos;
        if literal {
            visit(pos, Piece::Literal(take(at + 4, len)?));
            at += 4 + len;
        } else {
            visit(
                pos,
                Piece::Repeat {
                    word: word_at(at + 4)?,
                    len,
                },
            );
            at += 8;
        }
        pos = end;
    }
    let tail_len = *bytes.get(at).ok_or(corrupt(bytes.len()))? as usize;
    if tail_len >= 4 || tail_len > limit - pos {
        return Err(corrupt(at));
    }
    visit(pos, Piece::Literal(take(at + 1, tail_len)?));
    Ok((at + 1 + tail_len, pos + tail_len))
}

/// XOR `src` onto the front of `dst`.
fn xor_into(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

impl RleImage {
    /// Compress `data`.
    pub fn encode(data: &[u8]) -> RleImage {
        let mut bytes = Vec::new();
        RleImage::write_stream(&mut bytes, data, None);
        RleImage {
            bytes,
            len: data.len(),
        }
    }

    /// The most bytes [`RleImage::write_stream`] appends for a
    /// `len`-byte section: `len + 9`, plus a literal header per 2³¹ − 1
    /// words past the first. Reserve it before writing a section and
    /// the section never reallocates.
    pub fn stream_bound(len: usize) -> usize {
        len + 9 + 4 * (len / 4 / MAX_WORDS)
    }

    /// Append to `out` exactly the bytes
    /// `RleImage::encode(x).to_bytes()` would be for `x = data`, or for
    /// `x = data XOR mask` given a `mask` of the same length — in one
    /// scan that writes each record where it belongs: a literal is one
    /// slice copy (XORed in one pass under a mask), with no XOR buffer.
    pub fn write_stream(out: &mut Vec<u8>, data: &[u8], mask: Option<&[u8]>) {
        match mask {
            None => write_records::<MAX_WORDS>(out, Plain(data)),
            Some(mask) => {
                assert_eq!(mask.len(), data.len(), "mask/data size mismatch");
                write_records::<MAX_WORDS>(out, Masked(data, mask));
            }
        }
    }

    /// XOR the image serialised at the head of `bytes` (a
    /// [`RleImage::to_bytes`] stream) onto `out` in one pass — no
    /// `RleImage`, no decoded copy. `out` grows where the image is
    /// longer, so onto an empty `out` this is `from_bytes` + `decode`.
    /// Returns `(stream bytes consumed, logical length)`. A record that
    /// would end past `limit` (the object's size, which the caller
    /// knows) is corrupt at its header before anything of it is copied,
    /// so a hostile count never sizes an allocation; every other error
    /// is [`RleImage::from_bytes`]'s, at the same offset.
    pub fn xor_stream(
        bytes: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> Result<(usize, usize), CorruptImage> {
        // `out` holds at least `pos` bytes: each piece grows it to its end.
        walk(bytes, limit, |pos, piece| match piece {
            Piece::Literal(raw) => {
                let overlap = (out.len() - pos).min(raw.len());
                xor_into(&mut out[pos..], &raw[..overlap]);
                out.extend_from_slice(&raw[overlap..]);
            }
            Piece::Repeat { word, len } => {
                let end = pos + len;
                if end > out.len() {
                    out.resize(end, 0);
                }
                if word != 0 {
                    for w in out[pos..end].as_chunks_mut::<4>().0 {
                        *w = (u32::from_le_bytes(*w) ^ word).to_le_bytes();
                    }
                }
            }
        })
    }

    /// Decompress back to the original bytes.
    pub fn decode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        RleImage::xor_stream(&self.bytes, &mut out, self.len).expect("an image is a valid stream");
        out
    }

    /// Original (logical) size in bytes.
    pub fn logical_len(&self) -> usize {
        self.len
    }

    /// Bytes of the compressed form: its stream's length.
    pub fn stored_len(&self) -> usize {
        self.bytes.len()
    }

    /// The self-describing byte stream (the on-disk form of a
    /// compressed swap image; see the module docs for the layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// Parse a stream produced by [`RleImage::to_bytes`]. Returns the
    /// image and the number of bytes consumed (streams concatenate), or
    /// a [`CorruptImage`] error if the stream is truncated or its
    /// declared geometry is inconsistent — never panics on bad bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<(RleImage, usize), CorruptImage> {
        let (used, len) = walk(bytes, usize::MAX, |_, _| {})?;
        let bytes = bytes[..used].to_vec();
        Ok((RleImage { bytes, len }, used))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl RleImage {
        /// Records in the stream (its header word).
        fn records(&self) -> u32 {
            u32::from_le_bytes(*self.bytes.first_chunk().unwrap())
        }

        /// `decode()`, unless the image declares more than `limit`
        /// bytes (which `decode` would try to allocate).
        fn decode_bounded(&self, limit: usize) -> Option<Vec<u8>> {
            (self.len <= limit).then(|| self.decode())
        }
    }

    #[test]
    fn constant_row_compresses_to_one_run() {
        let data: Vec<u8> = std::iter::repeat_n(7u32.to_le_bytes(), 1_000_000)
            .flatten()
            .collect();
        let img = RleImage::encode(&data);
        assert_eq!(img.records(), 1);
        assert_eq!(img.logical_len(), 4_000_000);
        assert!(img.stored_len() < 16);
        assert_eq!(img.decode(), data);
    }

    #[test]
    fn empty_roundtrip() {
        let img = RleImage::encode(&[]);
        assert_eq!(img.decode(), Vec::<u8>::new());
        // The record count and the tail length, nothing else.
        assert_eq!(img.stored_len(), 5);
    }

    #[test]
    fn unaligned_tail_roundtrip() {
        let data = vec![1u8, 2, 3, 4, 5, 6, 7];
        let img = RleImage::encode(&data);
        assert_eq!(img.decode(), data);
        assert!(img.to_bytes().ends_with(&[3, 5, 6, 7]), "tail length, tail");
    }

    #[test]
    fn alternating_words_make_distinct_runs() {
        let mut data = Vec::new();
        for i in 0..100u32 {
            data.extend_from_slice(&(i % 2).to_le_bytes());
        }
        let img = RleImage::encode(&data);
        // A hundred one-word runs are one literal: 409 bytes, not the
        // 805 of a hundred repeat records.
        assert_eq!(img.records(), 1);
        assert_eq!(img.stored_len(), data.len() + 9);
        assert_eq!(img.decode(), data);
    }

    #[test]
    fn pairs_between_lone_words_join_the_literal() {
        let image = |words: &[u32]| {
            let data: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let img = RleImage::encode(&data);
            assert_eq!(img.decode(), data);
            (img.records(), img.stored_len())
        };
        // Inside a literal a pair costs its 8 bytes either way, and as
        // a repeat it would cost the next literal a header.
        assert_eq!(image(&[1, 2, 2, 3, 4, 4, 5]), (1, 4 + 4 + 28 + 1));
        // With no literal open a pair is a repeat, as it always was.
        assert_eq!(image(&[2, 2, 3, 3, 3]), (2, 4 + 8 + 8 + 1));
        assert_eq!(image(&[2, 2, 3]), (2, 4 + 8 + 8 + 1));
    }

    #[test]
    fn byte_stream_roundtrip_and_concatenation() {
        let a = RleImage::encode(&[7u8; 4096]);
        let b = RleImage::encode(&[1u8, 2, 3, 4, 5, 6, 7]);
        let mut stream = a.to_bytes();
        stream.extend_from_slice(&b.to_bytes());
        let (a2, used_a) = RleImage::from_bytes(&stream).expect("valid stream");
        let (b2, used_b) = RleImage::from_bytes(&stream[used_a..]).expect("valid stream");
        assert_eq!(a2, a);
        assert_eq!(b2, b);
        assert_eq!(used_a + used_b, stream.len());
        assert_eq!(a2.decode(), vec![7u8; 4096]);
        assert_eq!(b2.decode(), vec![1u8, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn garbage_headers_error_instead_of_panicking() {
        // Empty, short header, run record missing, tail byte missing,
        // impossible tail length, astronomically-overflowing geometry.
        assert!(RleImage::from_bytes(&[]).is_err());
        assert!(RleImage::from_bytes(&[1, 0]).is_err());
        assert!(RleImage::from_bytes(&[1, 0, 0, 0, 9, 9]).is_err());
        assert!(
            RleImage::from_bytes(&[0, 0, 0, 0]).is_err(),
            "missing tail-length byte"
        );
        let mut bad_tail = RleImage::encode(&[1, 2, 3, 4]).to_bytes();
        let tail_at = bad_tail.len() - 1;
        bad_tail[tail_at] = 7; // tail_len must be < 4
        assert!(RleImage::from_bytes(&bad_tail).is_err());
        // Valid structure, declared payload overflows usize on no real
        // machine — but the largest repeat count times many repeats
        // must not wrap the word accounting silently either way.
        let mut huge = Vec::new();
        huge.extend_from_slice(&2u32.to_le_bytes());
        for _ in 0..2 {
            huge.extend_from_slice(&(MAX_WORDS as u32).to_le_bytes());
            huge.extend_from_slice(&0u32.to_le_bytes());
        }
        huge.push(0);
        let parsed = RleImage::from_bytes(&huge);
        if let Ok((img, _)) = parsed {
            assert_eq!(img.logical_len(), 2 * MAX_WORDS * 4);
        }
    }

    #[test]
    fn xor_stream_bounds_absurd_run_counts_by_the_limit() {
        // One repeat of 2³¹ − 1 words: 8 GB if anybody believed it.
        let mut huge = 1u32.to_le_bytes().to_vec();
        huge.extend_from_slice(&0x7FFF_FFFFu32.to_le_bytes());
        huge.extend_from_slice(&7u32.to_le_bytes());
        huge.push(0);
        assert!(RleImage::from_bytes(&huge).is_ok(), "well framed");
        let mut out = Vec::new();
        assert_eq!(
            RleImage::xor_stream(&huge, &mut out, 1 << 20),
            Err(CorruptImage { at: 4 })
        );
        assert!(out.is_empty(), "nothing allocated for the run");
        // A literal that declares more than the limit is refused at its
        // header, payload present or not, before a byte is copied.
        for (words, present) in [(0x7FFF_FFFF, 2), (5, 5)] {
            let mut lit = 1u32.to_le_bytes().to_vec();
            lit.extend_from_slice(&(LITERAL_FLAG | words).to_le_bytes());
            lit.extend(std::iter::repeat_n(9u8, 4 * present));
            lit.push(0);
            assert_eq!(
                RleImage::xor_stream(&lit, &mut out, 16),
                Err(CorruptImage { at: 4 }),
                "{words} words"
            );
            assert!(out.is_empty(), "nothing copied for the literal");
        }
        // A literal whose payload is cut short fails at the stream end.
        let mut short = 1u32.to_le_bytes().to_vec();
        short.extend_from_slice(&(LITERAL_FLAG | 3).to_le_bytes());
        short.extend_from_slice(&[9; 8]);
        let err = CorruptImage { at: short.len() };
        assert_eq!(RleImage::xor_stream(&short, &mut Vec::new(), 16), Err(err));
        assert_eq!(RleImage::from_bytes(&short), Err(err));
        // The limit is exact, tail included.
        let seven = RleImage::encode(&[1, 2, 3, 4, 5, 6, 7]).to_bytes();
        assert_eq!(
            RleImage::xor_stream(&seven, &mut out, 7),
            Ok((seven.len(), 7))
        );
        assert!(RleImage::xor_stream(&seven, &mut Vec::new(), 6).is_err());
    }

    /// One record of the encoding before literals: `count` repetitions
    /// of `word`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Run {
        count: u32,
        word: u32,
    }

    /// The encoder before literals: every maximal run of equal words,
    /// a lone word a run of one.
    fn encode_by_pushing(data: &[u8]) -> Vec<Run> {
        let mut runs: Vec<Run> = Vec::new();
        for w in data.chunks_exact(4) {
            let w = u32::from_le_bytes(w.try_into().unwrap());
            match runs.last_mut() {
                Some(r) if r.word == w && r.count < u32::MAX => r.count += 1,
                _ => runs.push(Run { count: 1, word: w }),
            }
        }
        runs
    }

    /// The serialiser that went with it: `[runs u32][(count u32, word
    /// u32)…][tail_len u8][tail…]`.
    fn old_to_bytes(runs: &[Run], data: &[u8]) -> Vec<u8> {
        let tail = &data[data.len() / 4 * 4..];
        let mut out = (runs.len() as u32).to_le_bytes().to_vec();
        for r in runs {
            out.extend_from_slice(&r.count.to_le_bytes());
            out.extend_from_slice(&r.word.to_le_bytes());
        }
        out.push(tail.len() as u8);
        out.extend_from_slice(tail);
        out
    }

    /// `data`'s stream, or `data XOR mask`'s, with records of at most
    /// `M` words.
    fn encode_capped<const M: usize>(data: &[u8], mask: Option<&[u8]>) -> Vec<u8> {
        let mut out = Vec::new();
        match mask {
            None => write_records::<M>(&mut out, Plain(data)),
            Some(mask) => write_records::<M>(&mut out, Masked(data, mask)),
        }
        out
    }

    /// The scan before blocks, as it was: each run found and extended
    /// one word at a time, records of at most `max` words.
    fn word_by_word(data: &[u8], mask: Option<&[u8]>, max: usize) -> Vec<u8> {
        let byte = |i: usize| data[i] ^ mask.map_or(0, |m| m[i]);
        let word = |i: usize| u32::from_le_bytes(std::array::from_fn(|b| byte(4 * i + b)));
        let literal = |out: &mut Vec<u8>, words: Range<usize>| {
            for start in words.clone().step_by(max) {
                let end = words.end.min(start + max);
                out.extend_from_slice(&(LITERAL_FLAG | (end - start) as u32).to_le_bytes());
                out.extend((4 * start..4 * end).map(byte));
            }
            words.step_by(max).len() as u32
        };
        let (mut out, mut records) = (vec![0; 4], 0);
        let n = data.len() / 4;
        let (mut open, mut i) = (0, 0);
        while i < n {
            let Some(k) = (i..n - 1).find(|&k| word(k) == word(k + 1)) else {
                break;
            };
            let (w, cap) = (word(k), n.min(k + max));
            let j = (k + 2..cap).find(|&j| word(j) != w).unwrap_or(cap);
            if j - k > 2 || open == k {
                if open < k {
                    records += literal(&mut out, open..k);
                }
                out.extend_from_slice(&((j - k) as u32).to_le_bytes());
                out.extend_from_slice(&w.to_le_bytes());
                records += 1;
                open = j;
            }
            i = j;
        }
        if open < n {
            records += literal(&mut out, open..n);
        }
        out[..4].copy_from_slice(&records.to_le_bytes());
        out.push((data.len() - 4 * n) as u8);
        out.extend((4 * n..data.len()).map(byte));
        out
    }

    /// Every run of every length at every start in sections of up to
    /// `words` words, each with tails of 0–3 bytes, unmasked and under
    /// a mask, against the word-by-word scan with the same cap.
    fn check_runs_at_every_edge<const M: usize>(words: usize) {
        // Adjacent words all differ; the run's own word differs from
        // every other.
        let other = |i: usize| (i as u32).wrapping_mul(0x9E37_79B9) | 1;
        let noise: Vec<u8> = (0..4 * words + 3).map(|i| (i * 131 % 251) as u8).collect();
        for n in 0..=words {
            for start in 0..n {
                for len in 2..=n - start {
                    let mut delta: Vec<u8> = (0..n)
                        .map(|i| {
                            if (start..start + len).contains(&i) {
                                0
                            } else {
                                other(i)
                            }
                        })
                        .flat_map(u32::to_le_bytes)
                        .collect();
                    delta.extend_from_slice(&[7, 8, 9][..n % 4]);
                    let data = &noise[..delta.len()];
                    let mask: Vec<u8> = data.iter().zip(&delta).map(|(d, x)| d ^ x).collect();
                    let at = format!("cap {M}, {n} words, run {start}..{}", start + len);
                    assert_eq!(
                        encode_capped::<M>(&delta, None),
                        word_by_word(&delta, None, M),
                        "{at}"
                    );
                    assert_eq!(
                        encode_capped::<M>(data, Some(&mask)),
                        word_by_word(&delta, None, M),
                        "{at}, masked"
                    );
                }
            }
        }
    }

    #[test]
    fn runs_at_block_edges_match_the_word_by_word_scan() {
        // Up to three blocks and a partial one: runs starting on the
        // last word of a block, two- and three-word runs across an edge,
        // runs ending one word either side of one.
        check_runs_at_every_edge::<MAX_WORDS>(3 * BLOCK + 5);
    }

    #[test]
    fn runs_past_the_record_cap_match_the_word_by_word_scan() {
        // Runs (and literals) longer than a record holds split at the
        // cap, on and off block edges.
        check_runs_at_every_edge::<2>(2 * BLOCK + 3);
        check_runs_at_every_edge::<3>(2 * BLOCK + 3);
        check_runs_at_every_edge::<5>(2 * BLOCK + 3);
        check_runs_at_every_edge::<{ BLOCK + 1 }>(3 * BLOCK + 3);
    }

    /// Bytes with long runs, short runs and noise, any length.
    fn runny_bytes() -> impl Strategy<Value = Vec<u8>> {
        (
            proptest::collection::vec((any::<u8>(), 0usize..40), 0..24),
            proptest::collection::vec(any::<u8>(), 0..4),
        )
            .prop_map(|(runs, tail)| {
                let mut data: Vec<u8> = runs
                    .iter()
                    .flat_map(|&(b, n)| std::iter::repeat_n([b % 3, 0, 0, 0], n).flatten())
                    .collect();
                data.extend_from_slice(&tail);
                data
            })
    }

    /// Runs of one to four words, so that lone words, pairs and runs
    /// that pay for a repeat interleave in every order.
    fn choppy_bytes() -> impl Strategy<Value = Vec<u8>> {
        (
            proptest::collection::vec((0u8..3, 1usize..5), 0..48),
            proptest::collection::vec(any::<u8>(), 0..4),
        )
            .prop_map(|(runs, tail)| {
                let mut data: Vec<u8> = runs
                    .iter()
                    .flat_map(|&(b, n)| std::iter::repeat_n([b, 0, 0, 0], n).flatten())
                    .collect();
                data.extend_from_slice(&tail);
                data
            })
    }

    /// Words no two adjacent ones of which are equal, and a tail.
    fn incompressible_bytes() -> impl Strategy<Value = Vec<u8>> {
        (
            proptest::collection::vec(any::<u32>(), 0..300),
            proptest::collection::vec(any::<u8>(), 0..4),
        )
            .prop_map(|(mut words, tail)| {
                for i in 1..words.len() {
                    if words[i] == words[i - 1] {
                        words[i] = words[i].wrapping_add(1);
                    }
                }
                let mut data: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                data.extend_from_slice(&tail);
                data
            })
    }

    /// `data` through the encoder, unmasked and under a mask, checked
    /// against the old encoding and against its own decoders.
    fn check_encoding(data: &[u8], salt: u8) -> Result<(), String> {
        let old = old_to_bytes(&encode_by_pushing(data), data);
        let img = RleImage::encode(data);
        prop_assert_eq!(&img.to_bytes(), &word_by_word(data, None, MAX_WORDS));
        prop_assert!(
            img.stored_len() <= old.len(),
            "{} > {}",
            img.stored_len(),
            old.len()
        );
        prop_assert!(img.stored_len() <= RleImage::stream_bound(data.len()));
        prop_assert_eq!(img.decode(), data.to_vec());
        let (back, used) = RleImage::from_bytes(&img.to_bytes()).expect("valid stream");
        prop_assert_eq!((&back, used), (&img, img.stored_len()));
        // A stream written in place == encode-then-serialise, appended
        // after whatever the buffer already held.
        let mut out = vec![0xEE; 3];
        RleImage::write_stream(&mut out, data, None);
        prop_assert_eq!(&out[3..], &img.to_bytes()[..]);
        // Masked: == "collect the XOR, then encode it".
        let mask: Vec<u8> = data
            .iter()
            .enumerate()
            .map(|(i, b)| if i % 7 < 5 { *b } else { b ^ salt })
            .collect();
        let delta: Vec<u8> = data.iter().zip(&mask).map(|(a, b)| a ^ b).collect();
        let mut out = Vec::new();
        RleImage::write_stream(&mut out, data, Some(&mask));
        prop_assert_eq!(&out, &word_by_word(data, Some(&mask), MAX_WORDS));
        prop_assert_eq!(out, RleImage::encode(&delta).to_bytes());
        Ok(())
    }

    proptest! {
        /// The one writer never writes a longer stream than the encoder
        /// before literals, and every form of it agrees.
        #[test]
        fn shared_scanner_matches_the_old_construction(
            runny in runny_bytes(),
            choppy in choppy_bytes(),
            noise in proptest::collection::vec(any::<u8>(), 0..600),
            salt in any::<u8>(),
        ) {
            for data in [runny, choppy, noise] {
                check_encoding(&data, salt)?;
            }
        }

        #[test]
        fn incompressible_sections_cost_their_length_plus_nine(data in incompressible_bytes()) {
            let img = RleImage::encode(&data);
            prop_assert_eq!(img.stored_len(), data.len() + 9);
            prop_assert_eq!(img.stored_len(), RleImage::stream_bound(data.len()));
            prop_assert_eq!(img.decode(), data);
        }

        /// A stream of the encoder before literals decodes to the same
        /// bytes through both decoders, and onto a buffer.
        #[test]
        fn old_streams_decode_to_the_same_bytes(
            runny in runny_bytes(),
            choppy in choppy_bytes(),
            noise in proptest::collection::vec(any::<u8>(), 0..600),
            base in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            for data in [runny, choppy, noise] {
                let old = old_to_bytes(&encode_by_pushing(&data), &data);
                let mut out = Vec::new();
                prop_assert_eq!(RleImage::xor_stream(&old, &mut out, data.len()), Ok((old.len(), data.len())));
                prop_assert_eq!(&out, &data);
                let (img, used) = RleImage::from_bytes(&old).expect("valid old stream");
                prop_assert_eq!(used, old.len());
                prop_assert_eq!(img.decode(), data.clone());
                let mut onto = base.clone();
                let mut want = base.clone();
                RleImage::xor_stream(&RleImage::encode(&data).to_bytes(), &mut want, usize::MAX).unwrap();
                RleImage::xor_stream(&old, &mut onto, usize::MAX).unwrap();
                prop_assert_eq!(onto, want);
            }
        }

        /// The streaming decoder against the parse-then-decode oracle,
        /// on a valid stream with any one bit flipped or cut anywhere:
        /// same verdict, same bytes — fresh, and XORed onto a buffer
        /// shorter or longer than the image — and the same error offset
        /// unless the limit stopped the streaming decoder first.
        #[test]
        fn xor_stream_matches_parse_then_decode(
            data in runny_bytes(),
            choppy in choppy_bytes(),
            pick in any::<bool>(),
            base in proptest::collection::vec(any::<u8>(), 0..200),
            flip in any::<usize>(),
            cut in any::<usize>(),
            damage in 0u8..3,
        ) {
            const LIMIT: usize = 4096;
            let data = if pick { data } else { choppy };
            let mut stream = RleImage::encode(&data).to_bytes();
            let len = stream.len();
            match damage {
                0 => {}
                1 => stream[flip % len] ^= 1 << (flip % 8),
                _ => stream.truncate(cut % len),
            }
            let oracle = RleImage::from_bytes(&stream).map(|(img, used)| (img.decode_bounded(LIMIT), used));
            let mut fresh = Vec::new();
            let mut onto = base.clone();
            let got = RleImage::xor_stream(&stream, &mut fresh, LIMIT);
            prop_assert_eq!(got, RleImage::xor_stream(&stream, &mut onto, LIMIT));
            match oracle {
                // A flipped header may declare a record past the limit:
                // the streaming decoder stops at that header, no later
                // than wherever the unbounded parse failed.
                Err(e) => prop_assert!(got == Err(e) || got.is_err_and(|g| g.at < e.at)),
                Ok((None, _)) => prop_assert!(got.is_err()),
                Ok((Some(plain), used)) => {
                    prop_assert_eq!(got, Ok((used, plain.len())));
                    prop_assert_eq!(&fresh, &plain);
                    let mut want = base.clone();
                    want.resize(base.len().max(plain.len()), 0);
                    for (w, p) in want.iter_mut().zip(&plain) {
                        *w ^= p;
                    }
                    prop_assert_eq!(onto, want);
                }
            }
        }

        #[test]
        fn xor_stream_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            limit in 0usize..256,
        ) {
            let mut out = vec![0xAB; 16];
            if let Ok((used, len)) = RleImage::xor_stream(&bytes, &mut out, limit) {
                prop_assert!(used <= bytes.len() && len <= limit && len <= out.len());
            }
        }

        #[test]
        fn roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let img = RleImage::encode(&data);
            prop_assert_eq!(img.decode(), data.clone());
            prop_assert_eq!(img.logical_len(), data.len());
            let (back, used) = RleImage::from_bytes(&img.to_bytes()).expect("valid stream");
            prop_assert_eq!(used, img.to_bytes().len());
            prop_assert_eq!(back.decode(), data);
        }

        #[test]
        fn truncation_at_every_boundary_is_detected(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let stream = RleImage::encode(&data).to_bytes();
            for cut in 0..stream.len() {
                prop_assert!(
                    RleImage::from_bytes(&stream[..cut]).is_err(),
                    "prefix of {cut}/{} bytes must not parse", stream.len()
                );
            }
        }

        #[test]
        fn roundtrip_repetitive(word in any::<u32>(), reps in 0usize..512, tail in proptest::collection::vec(any::<u8>(), 0..4)) {
            let mut data: Vec<u8> = std::iter::repeat_n(word.to_le_bytes(), reps).flatten().collect();
            data.extend_from_slice(&tail);
            let img = RleImage::encode(&data);
            prop_assert_eq!(img.decode(), data);
            prop_assert!(img.records() <= 1);
        }
    }
}
