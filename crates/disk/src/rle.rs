//! Word-granular run-length encoding for the modeled store.
//!
//! Table 1 writes more than 4 GB of object data through the swap path;
//! a laptop-scale reproduction cannot hold that for real. The workloads'
//! rows are highly repetitive (the paper's Test-2 program "just adds
//! some numbers held by each process"), so the [`ModeledStore`]
//! compresses images with a run-length code over 32-bit words: constant
//! rows shrink to a handful of bytes while arbitrary data round-trips
//! unchanged (at worst ~2× expansion, only ever paid by small test
//! inputs).
//!
//! [`ModeledStore`]: crate::modeled::ModeledStore

/// One run: `count` repetitions of `word`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    pub count: u32,
    pub word: u32,
}

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

/// An RLE-compressed byte image.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RleImage {
    runs: Vec<Run>,
    /// 0–3 bytes that did not fill a whole word.
    tail: Vec<u8>,
    /// Original length in bytes.
    len: usize,
}

/// The little-endian words of `data` (a trailing 1–3 bytes excluded).
fn words(data: &[u8]) -> impl Iterator<Item = u32> + '_ {
    data.as_chunks::<4>()
        .0
        .iter()
        .map(|w| u32::from_le_bytes(*w))
}

/// The one run scanner: fold `words` into maximal runs of equal words
/// (none longer than `u32::MAX`) and hand each to `emit`.
fn scan_runs(mut words: impl Iterator<Item = u32>, mut emit: impl FnMut(Run)) {
    let Some(word) = words.next() else { return };
    let mut run = Run { count: 1, word };
    for word in words {
        if word == run.word && run.count < u32::MAX {
            run.count += 1;
        } else {
            emit(run);
            run = Run { count: 1, word };
        }
    }
    emit(run);
}

impl RleImage {
    /// Compress `data`.
    pub fn encode(data: &[u8]) -> RleImage {
        let mut runs: Vec<Run> = Vec::new();
        scan_runs(words(data), |run| runs.push(run));
        RleImage {
            runs,
            tail: data[data.len() & !3..].to_vec(),
            len: data.len(),
        }
    }

    /// Append to `out` exactly the bytes
    /// `RleImage::encode(x).to_bytes()` would be for `x = data`, or for
    /// `x = data XOR mask` given a `mask` of the same length — in one
    /// scan that writes each `(count, word)` record where it belongs:
    /// no run vector, no serialised copy, no XOR buffer.
    pub fn write_stream(out: &mut Vec<u8>, data: &[u8], mask: Option<&[u8]>) {
        let header = out.len();
        out.extend_from_slice(&[0; 4]);
        let mut runs = 0u32;
        let record = |run: Run| {
            // `[count u32][word u32]`, little-endian, as one write.
            let both = u64::from(run.word) << 32 | u64::from(run.count);
            out.extend_from_slice(&both.to_le_bytes());
            runs += 1;
        };
        let tail_at = data.len() & !3;
        match mask {
            None => {
                scan_runs(words(data), record);
                out.push((data.len() - tail_at) as u8);
                out.extend_from_slice(&data[tail_at..]);
            }
            Some(mask) => {
                assert_eq!(mask.len(), data.len(), "mask/data size mismatch");
                scan_runs(words(data).zip(words(mask)).map(|(d, m)| d ^ m), record);
                out.push((data.len() - tail_at) as u8);
                out.extend(
                    data[tail_at..]
                        .iter()
                        .zip(&mask[tail_at..])
                        .map(|(d, m)| d ^ m),
                );
            }
        }
        out[header..header + 4].copy_from_slice(&runs.to_le_bytes());
    }

    /// XOR the image serialised at the head of `bytes` (a
    /// [`RleImage::to_bytes`] stream) onto `out` in one pass — no
    /// `RleImage`, no decoded copy. `out` grows where the image is
    /// longer, so onto an empty `out` this is `from_bytes` + `decode`.
    /// Returns `(stream bytes consumed, logical length)`. An image
    /// longer than `limit` (the object's size, which the caller knows)
    /// is corrupt at the run that crosses it, so a hostile run count
    /// never sizes an allocation; framing errors are
    /// [`RleImage::from_bytes`]'s, at the same offsets.
    pub fn xor_stream(
        bytes: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> Result<(usize, usize), CorruptImage> {
        let corrupt = |at: usize| CorruptImage { at };
        let header = bytes.first_chunk::<4>().ok_or(corrupt(bytes.len()))?;
        let mut at = 4;
        let mut pos = 0usize;
        for _ in 0..u32::from_le_bytes(*header) {
            let rec = bytes.get(at..).and_then(<[u8]>::first_chunk::<8>);
            let both = u64::from_le_bytes(*rec.ok_or(corrupt(bytes.len()))?);
            let (count, word) = (both as u32 as usize, (both >> 32) as u32);
            let end = count
                .checked_mul(4)
                .and_then(|b| b.checked_add(pos))
                .filter(|&end| end <= limit)
                .ok_or(corrupt(at))?;
            at += 8;
            if pos == out.len() && count == 1 {
                // A literal word past the end: incompressible data.
                out.extend_from_slice(&word.to_le_bytes());
            } else {
                if end > out.len() {
                    out.resize(end, 0);
                }
                if word != 0 {
                    for w in out[pos..end].as_chunks_mut::<4>().0 {
                        *w = (u32::from_le_bytes(*w) ^ word).to_le_bytes();
                    }
                }
            }
            pos = end;
        }
        let tail_len = *bytes.get(at).ok_or(corrupt(bytes.len()))? as usize;
        if tail_len >= 4 || pos + tail_len > limit {
            return Err(corrupt(at));
        }
        at += 1;
        let tail = bytes.get(at..at + tail_len).ok_or(corrupt(bytes.len()))?;
        if pos + tail_len > out.len() {
            out.resize(pos + tail_len, 0);
        }
        for (o, t) in out[pos..].iter_mut().zip(tail) {
            *o ^= t;
        }
        Ok((at + tail_len, pos + tail_len))
    }

    /// Decompress back to the original bytes.
    pub fn decode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for r in &self.runs {
            let bytes = r.word.to_le_bytes();
            for _ in 0..r.count {
                out.extend_from_slice(&bytes);
            }
        }
        out.extend_from_slice(&self.tail);
        debug_assert_eq!(out.len(), self.len);
        out
    }

    /// Original (logical) size in bytes.
    pub fn logical_len(&self) -> usize {
        self.len
    }

    /// Actual memory held by the compressed form.
    pub fn stored_len(&self) -> usize {
        self.runs.len() * std::mem::size_of::<Run>() + self.tail.len()
    }

    /// Serialize to a self-describing byte stream (the on-disk form of
    /// a compressed swap image): `[runs u32][(count u32, word u32)…]`
    /// `[tail_len u8][tail…]`, all little-endian.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.runs.len() * 8 + 1 + self.tail.len());
        out.extend_from_slice(&(self.runs.len() as u32).to_le_bytes());
        for r in &self.runs {
            out.extend_from_slice(&r.count.to_le_bytes());
            out.extend_from_slice(&r.word.to_le_bytes());
        }
        debug_assert!(self.tail.len() < 4);
        out.push(self.tail.len() as u8);
        out.extend_from_slice(&self.tail);
        out
    }

    /// Parse a stream produced by [`RleImage::to_bytes`]. Returns the
    /// image and the number of bytes consumed (streams concatenate), or
    /// a [`CorruptImage`] error if the stream is truncated or its
    /// declared geometry is inconsistent — never panics on bad bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<(RleImage, usize), CorruptImage> {
        let corrupt = |at: usize| CorruptImage { at };
        let header: [u8; 4] = bytes
            .get(0..4)
            .and_then(|b| b.try_into().ok())
            .ok_or(corrupt(bytes.len()))?;
        let n_runs = u32::from_le_bytes(header) as usize;
        let mut runs = Vec::with_capacity(n_runs.min(bytes.len() / 8 + 1));
        let mut at = 4;
        let mut words = 0usize;
        for _ in 0..n_runs {
            let rec = bytes.get(at..at + 8).ok_or(corrupt(bytes.len()))?;
            let count = u32::from_le_bytes(rec[0..4].try_into().expect("4-byte chunk"));
            let word = u32::from_le_bytes(rec[4..8].try_into().expect("4-byte chunk"));
            runs.push(Run { count, word });
            words = words.checked_add(count as usize).ok_or(corrupt(at))?;
            at += 8;
        }
        let tail_len = *bytes.get(at).ok_or(corrupt(bytes.len()))? as usize;
        if tail_len >= 4 {
            return Err(corrupt(at));
        }
        at += 1;
        let tail = bytes.get(at..at + tail_len).ok_or(corrupt(bytes.len()))?;
        at += tail_len;
        let len = words
            .checked_mul(4)
            .and_then(|b| b.checked_add(tail_len))
            .ok_or(corrupt(at))?;
        Ok((
            RleImage {
                runs,
                tail: tail.to_vec(),
                len,
            },
            at,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constant_row_compresses_to_one_run() {
        let data: Vec<u8> = std::iter::repeat_n(7u32.to_le_bytes(), 1_000_000)
            .flatten()
            .collect();
        let img = RleImage::encode(&data);
        assert_eq!(img.runs.len(), 1);
        assert_eq!(img.logical_len(), 4_000_000);
        assert!(img.stored_len() < 16);
        assert_eq!(img.decode(), data);
    }

    #[test]
    fn empty_roundtrip() {
        let img = RleImage::encode(&[]);
        assert_eq!(img.decode(), Vec::<u8>::new());
        assert_eq!(img.stored_len(), 0);
    }

    #[test]
    fn unaligned_tail_roundtrip() {
        let data = vec![1u8, 2, 3, 4, 5, 6, 7];
        let img = RleImage::encode(&data);
        assert_eq!(img.decode(), data);
        assert_eq!(img.tail, vec![5, 6, 7]);
    }

    #[test]
    fn alternating_words_make_distinct_runs() {
        let mut data = Vec::new();
        for i in 0..100u32 {
            data.extend_from_slice(&(i % 2).to_le_bytes());
        }
        let img = RleImage::encode(&data);
        assert_eq!(img.runs.len(), 100);
        assert_eq!(img.decode(), data);
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
        // machine — but a u32::MAX run count times many runs must not
        // wrap the word accounting silently either way.
        let mut huge = Vec::new();
        huge.extend_from_slice(&2u32.to_le_bytes());
        for _ in 0..2 {
            huge.extend_from_slice(&u32::MAX.to_le_bytes());
            huge.extend_from_slice(&0u32.to_le_bytes());
        }
        huge.push(0);
        let parsed = RleImage::from_bytes(&huge);
        if let Ok((img, _)) = parsed {
            assert_eq!(img.logical_len(), 2 * (u32::MAX as usize) * 4);
        }
    }

    impl RleImage {
        /// `decode()`, unless the image declares more than `limit`
        /// bytes (which `decode` would try to allocate).
        fn decode_bounded(&self, limit: usize) -> Option<Vec<u8>> {
            (self.len <= limit).then(|| self.decode())
        }
    }

    #[test]
    fn xor_stream_bounds_absurd_run_counts_by_the_limit() {
        // One run of u32::MAX words: 16 GB if anybody believed it.
        let mut huge = 1u32.to_le_bytes().to_vec();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&7u32.to_le_bytes());
        huge.push(0);
        assert!(RleImage::from_bytes(&huge).is_ok(), "well framed");
        let mut out = Vec::new();
        assert_eq!(
            RleImage::xor_stream(&huge, &mut out, 1 << 20),
            Err(CorruptImage { at: 4 })
        );
        assert!(out.is_empty(), "nothing allocated for the run");
        // The limit is exact, tail included.
        let seven = RleImage::encode(&[1, 2, 3, 4, 5, 6, 7]).to_bytes();
        assert_eq!(
            RleImage::xor_stream(&seven, &mut out, 7),
            Ok((seven.len(), 7))
        );
        assert!(RleImage::xor_stream(&seven, &mut Vec::new(), 6).is_err());
    }

    /// `RleImage::encode` as it was before the shared scanner.
    fn encode_by_pushing(data: &[u8]) -> RleImage {
        let mut runs: Vec<Run> = Vec::new();
        for w in data.chunks_exact(4) {
            let w = u32::from_le_bytes(w.try_into().unwrap());
            match runs.last_mut() {
                Some(r) if r.word == w && r.count < u32::MAX => r.count += 1,
                _ => runs.push(Run { count: 1, word: w }),
            }
        }
        RleImage {
            runs,
            tail: data[data.len() / 4 * 4..].to_vec(),
            len: data.len(),
        }
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

    proptest! {
        #[test]
        fn shared_scanner_matches_the_old_construction(data in runny_bytes(), salt in any::<u8>()) {
            let old = encode_by_pushing(&data);
            prop_assert_eq!(&RleImage::encode(&data), &old);
            // A stream written in place == the old build-then-serialise,
            // appended after whatever the buffer already held.
            let mut out = vec![0xEE; 3];
            RleImage::write_stream(&mut out, &data, None);
            prop_assert_eq!(&out[3..], &old.to_bytes()[..]);
            // Masked: == the old "collect the XOR, then encode it".
            let mask: Vec<u8> = data.iter().enumerate().map(|(i, b)| if i % 7 < 5 { *b } else { b ^ salt }).collect();
            let delta: Vec<u8> = data.iter().zip(&mask).map(|(a, b)| a ^ b).collect();
            let mut out = Vec::new();
            RleImage::write_stream(&mut out, &data, Some(&mask));
            prop_assert_eq!(out, encode_by_pushing(&delta).to_bytes());
        }

        /// The streaming decoder against the parse-then-decode oracle,
        /// on a valid stream with any one bit flipped or cut anywhere:
        /// same verdict, same error offset, same bytes — fresh, and
        /// XORed onto a buffer shorter or longer than the image.
        #[test]
        fn xor_stream_matches_parse_then_decode(
            data in runny_bytes(),
            base in proptest::collection::vec(any::<u8>(), 0..200),
            flip in any::<usize>(),
            cut in any::<usize>(),
            damage in 0u8..3,
        ) {
            const LIMIT: usize = 4096;
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
                Err(e) => prop_assert_eq!(got, Err(e)),
                // A flipped count may declare more than the limit.
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
            prop_assert!(img.runs.len() <= 2);
        }
    }
}
