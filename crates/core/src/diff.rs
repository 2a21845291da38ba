//! Word-granular diffs (§3.5).
//!
//! LOTS follows TreadMarks in shipping *diffs* — runtime encodings of
//! the words an interval changed — instead of whole objects. A diff is
//! computed by comparing the object against its twin and applied by
//! copying the changed runs over the target.
//!
//! **The wire form is the only form.** A [`WordDiff`] *is* its
//! encoding: one immutable [`Bytes`] laid out as
//! `[nruns u32]` then, per run of consecutive changed words,
//! `[start_word u32][len u32][len × u32]`, all little-endian, plus the
//! word count and extent cached when the bytes were produced or
//! validated.
//! [`WordDiff::compute`] writes that buffer in one pass over twin and
//! current; [`WordDiff::encode`] hands out another reference to it;
//! [`WordDiff::from_wire`] adopts a received payload after checking its
//! framing, without copying; [`WordDiff::apply`] is one slice copy per
//! run. Nothing re-materialises the runs as vectors.
//!
//! **Who holds one.** A diff is shared by reference, never rebuilt: the
//! writer's [`NodeState`] caches it from `barrier_prepare` until the
//! barrier finishes, the lock service's accumulated log keeps CS diffs
//! until the epoch reset, and the envelope that carries it to the home
//! holds the same buffer. The home drops it once applied.
//!
//! **Ordering is not this module's business.** Overlapping *lock-era*
//! writes are ordered by a per-word release timestamp kept by the home
//! (see `NodeState::apply_remote_diff`): a timestamp of 0 there means
//! "never written under a lock" and is never stored, so a barrier-only
//! diff costs exactly the run copies below. [`WordDiff::iter_runs`] and
//! [`WordDiff::iter_words`] are the views that guarded path and the
//! lock service read through.
//!
//! [`NodeState`]: crate::node::NodeState

use bytes::Bytes;

/// Equal stretches are skipped this many bytes per comparison before
/// falling back to single words.
const BLOCK: usize = 32;

/// A byte stream that is not a valid diff encoding: truncated, a run
/// count or run length that disagrees with the bytes present, trailing
/// bytes, a run whose `start + len` overflows — or, from
/// [`WordDiff::check_fits`], a run that reaches past its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptDiff {
    /// Byte offset in the encoding at which it was rejected.
    pub at: usize,
}

impl std::fmt::Display for CorruptDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt diff (rejected at byte {})", self.at)
    }
}

impl std::error::Error for CorruptDiff {}

/// A word-granular object diff, held in its wire encoding.
#[derive(Clone, PartialEq, Eq)]
pub struct WordDiff {
    /// The validated encoding (see the module docs for the layout).
    wire: Bytes,
    /// Changed words over all runs.
    words: usize,
    /// One past the highest word index any run writes.
    end_word: usize,
}

impl std::fmt::Debug for WordDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter_words()).finish()
    }
}

/// Bytes covered by the leading `N`-byte chunks of `a` and `b` that
/// compare equal (`SAME`) or unequal (`!SAME`) pairwise.
fn chunk_prefix<const N: usize, const SAME: bool>(a: &[u8], b: &[u8]) -> usize {
    let pairs = a.as_chunks::<N>().0.iter().zip(b.as_chunks::<N>().0);
    N * pairs.take_while(|(x, y)| (x == y) == SAME).count()
}

/// Bytes (a multiple of 4) before the first word where `a` and `b`
/// differ: whole blocks first, then the words of the block that did.
fn equal_prefix(a: &[u8], b: &[u8]) -> usize {
    let at = chunk_prefix::<BLOCK, true>(a, b);
    at + chunk_prefix::<4, true>(&a[at..], &b[at..])
}

/// Split one `[start][len][len × u32]` run off the front of `rest`:
/// `(start, body, what follows)`, or `None` where `rest` is too short
/// to hold it.
fn split_run(rest: &[u8]) -> Option<(u32, &[u8], &[u8])> {
    let (head, tail) = rest.split_first_chunk::<8>()?;
    let [s0, s1, s2, s3, l0, l1, l2, l3] = *head;
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    let (body, tail) = tail.split_at_checked(len.checked_mul(4)?)?;
    Some((u32::from_le_bytes([s0, s1, s2, s3]), body, tail))
}

impl WordDiff {
    /// Compare `current` against `twin` (equal lengths, word-aligned)
    /// and encode the maximal runs of changed words.
    pub fn compute(twin: &[u8], current: &[u8]) -> WordDiff {
        assert_eq!(twin.len(), current.len(), "twin/current size mismatch");
        WordDiff::compute_pieces(current.len(), |at| &twin[at..], |at| &current[at..])
    }

    /// [`WordDiff::compute`] over `n` bytes that each side hands out
    /// in pieces: `twin(at)` and `current(at)` are the bytes from
    /// offset `at` on, as many whole words as the side likes (at least
    /// one). How bytes in the zero state are diffed without a buffer of
    /// zeros: their pieces come from one static zero block.
    pub(crate) fn compute_pieces<'t, 'c>(
        n: usize,
        twin: impl Fn(usize) -> &'t [u8],
        current: impl Fn(usize) -> &'c [u8],
    ) -> WordDiff {
        assert_eq!(n % 4, 0, "objects are word-aligned");
        // Sized for the dense case (one run covering everything) and
        // trimmed below: only an update alternating changed and
        // unchanged words outgrows it, and nothing is doubled on the
        // way to a typical sparse diff.
        let mut wire = Vec::with_capacity(4 + 8 + n);
        wire.extend_from_slice(&[0; 4]);
        let (mut runs, mut words, mut end_word, mut at) = (0usize, 0usize, 0usize, 0usize);
        loop {
            // Skip the equal words, piece by piece until one differs.
            while at < n {
                let (t, c) = (twin(at), current(at));
                let same = equal_prefix(t, c);
                at += same;
                if same < t.len().min(c.len()) {
                    break;
                }
            }
            if at == n {
                break;
            }
            // Copy the changed words, their run length patched in after.
            let (start, head) = (at, wire.len());
            wire.extend_from_slice(&((at / 4) as u32).to_le_bytes());
            wire.extend_from_slice(&[0; 4]);
            while at < n {
                let (t, c) = (twin(at), current(at));
                let len = chunk_prefix::<4, false>(t, c);
                wire.extend_from_slice(&c[..len]);
                at += len;
                if len < t.len().min(c.len()) {
                    break;
                }
            }
            let len = (at - start) / 4;
            wire[head + 4..head + 8].copy_from_slice(&(len as u32).to_le_bytes());
            runs += 1;
            words += len;
            end_word = at / 4;
        }
        wire[..4].copy_from_slice(&(runs as u32).to_le_bytes());
        wire.shrink_to_fit();
        WordDiff {
            wire: Bytes::from(wire),
            words,
            end_word,
        }
    }

    /// Adopt a received encoding without copying it. The framing is
    /// checked once, here: the run count, every run length, that
    /// `start + len` fits a word index, and that the runs account for
    /// exactly the bytes present. Whether the runs fit a particular
    /// target is [`WordDiff::check_fits`]'s question.
    pub fn from_wire(wire: Bytes) -> Result<WordDiff, CorruptDiff> {
        let truncated = CorruptDiff { at: wire.len() };
        let rejected = |rest: &[u8]| CorruptDiff {
            at: wire.len() - rest.len(),
        };
        let (count, mut rest) = wire.split_first_chunk::<4>().ok_or(truncated)?;
        let (mut words, mut end_word) = (0usize, 0u64);
        for _ in 0..u32::from_le_bytes(*count) {
            let (start, body, tail) = split_run(rest).ok_or(truncated)?;
            let end = u64::from(start) + (body.len() / 4) as u64;
            if end > u64::from(u32::MAX) {
                return Err(rejected(rest));
            }
            words += body.len() / 4;
            end_word = end_word.max(end);
            rest = tail;
        }
        if !rest.is_empty() {
            return Err(rejected(rest));
        }
        Ok(WordDiff {
            wire,
            words,
            end_word: end_word as usize,
        })
    }

    /// [`WordDiff::from_wire`] over borrowed bytes (one copy).
    pub fn decode(data: &[u8]) -> Result<WordDiff, CorruptDiff> {
        WordDiff::from_wire(Bytes::copy_from_slice(data))
    }

    /// The wire encoding: another handle on the diff's own buffer.
    pub fn encode(&self) -> Bytes {
        self.wire.clone()
    }

    /// Does every run land inside a target of `target_len` bytes? A
    /// diff computed here fits the object it was computed from; one
    /// that arrived from a peer is checked against the local object
    /// before anything is written. The error names the first run that
    /// reaches past the end.
    pub fn check_fits(&self, target_len: usize) -> Result<(), CorruptDiff> {
        if self.end_word <= target_len / 4 {
            return Ok(());
        }
        let mut at = 4;
        for (start, body) in self.iter_runs() {
            if start as usize + body.len() / 4 > target_len / 4 {
                break;
            }
            at += 8 + body.len();
        }
        Err(CorruptDiff { at })
    }

    /// Overwrite `target` with this diff's words, one copy per run.
    ///
    /// # Panics
    /// If a run reaches past `target` — callers holding a diff from
    /// outside check [`WordDiff::check_fits`] first.
    pub fn apply(&self, target: &mut [u8]) {
        assert!(
            self.check_fits(target.len()).is_ok(),
            "diff writes up to word {} of a {}-byte target",
            self.end_word,
            target.len()
        );
        for (start, body) in self.iter_runs() {
            let off = start as usize * 4;
            target[off..off + body.len()].copy_from_slice(body);
        }
    }

    /// Is there anything in the diff?
    pub fn is_empty(&self) -> bool {
        self.words == 0
    }

    /// Number of changed words.
    pub fn changed_words(&self) -> usize {
        self.words
    }

    /// Bytes this diff occupies on the wire.
    pub fn wire_size(&self) -> usize {
        self.wire.len()
    }

    /// Iterate `(start_word, new bytes)` per run, in wire order.
    pub fn iter_runs(&self) -> impl Iterator<Item = (u32, &[u8])> + '_ {
        let mut rest = &self.wire[4..];
        std::iter::from_fn(move || {
            let (start, body, tail) = split_run(rest)?;
            rest = tail;
            Some((start, body))
        })
    }

    /// Iterate `(word_index, value)` pairs.
    pub fn iter_words(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.iter_runs().flat_map(|(start, body)| {
            let words = body.as_chunks::<4>().0.iter().enumerate();
            words.map(move |(k, w)| (start + k as u32, u32::from_le_bytes(*w)))
        })
    }

    /// Test constructor: the diff that sets each `(word_index, value)`
    /// — what `compute` emits when exactly those words changed.
    #[cfg(test)]
    pub(crate) fn from_words(words: &[(u32, u32)]) -> WordDiff {
        let len = words.iter().map(|w| w.0 as usize + 1).max().unwrap_or(0) * 4;
        let (mut twin, mut current) = (vec![0; len], vec![0; len]);
        for &(w, v) in words {
            let at = w as usize * 4;
            current[at..at + 4].copy_from_slice(&v.to_le_bytes());
            twin[at..at + 4].copy_from_slice(&(!v).to_le_bytes());
        }
        WordDiff::compute(&twin, &current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The word-at-a-time `compute` this module used to ship, kept as
    /// the reference the single-pass encoder is compared against.
    fn oracle_compute(twin: &[u8], current: &[u8]) -> Vec<(u32, Vec<u32>)> {
        let word =
            |buf: &[u8], i: usize| u32::from_le_bytes(buf[i * 4..i * 4 + 4].try_into().unwrap());
        let mut runs = Vec::new();
        let words = current.len() / 4;
        let mut i = 0usize;
        while i < words {
            if word(twin, i) == word(current, i) {
                i += 1;
                continue;
            }
            let start = i;
            let mut vals = Vec::new();
            while i < words && word(twin, i) != word(current, i) {
                vals.push(word(current, i));
                i += 1;
            }
            runs.push((start as u32, vals));
        }
        runs
    }

    /// The word-at-a-time `encode` that went with it.
    fn oracle_encode(runs: &[(u32, Vec<u32>)]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(runs.len() as u32).to_le_bytes());
        for (start, words) in runs {
            buf.extend_from_slice(&start.to_le_bytes());
            buf.extend_from_slice(&(words.len() as u32).to_le_bytes());
            for w in words {
                buf.extend_from_slice(&w.to_le_bytes());
            }
        }
        buf
    }

    fn set_word(buf: &mut [u8], w: usize, v: u32) {
        buf[w * 4..w * 4 + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// New encoder == old construction, and applying it to the twin
    /// gives back `current`.
    fn assert_matches_oracle(twin: &[u8], current: &[u8]) {
        let d = WordDiff::compute(twin, current);
        let runs = oracle_compute(twin, current);
        assert_eq!(&d.encode()[..], &oracle_encode(&runs)[..]);
        assert_eq!(d.iter_runs().count(), runs.len());
        assert_eq!(
            d.changed_words(),
            runs.iter().map(|r| r.1.len()).sum::<usize>()
        );
        assert_eq!(d.wire_size(), d.encode().len());
        assert_eq!(WordDiff::decode(&d.encode()), Ok(d.clone()));
        let mut rebuilt = twin.to_vec();
        d.apply(&mut rebuilt);
        assert_eq!(rebuilt, current);
    }

    #[test]
    fn identical_buffers_give_empty_diff() {
        let a = vec![7u8; 64];
        let d = WordDiff::compute(&a, &a);
        assert!(d.is_empty());
        assert_eq!(d.changed_words(), 0);
        assert_eq!(d.wire_size(), 4);
    }

    #[test]
    fn sparse_update_produces_small_diff() {
        let twin = vec![0u8; 4096];
        let mut cur = twin.clone();
        set_word(&mut cur, 100, 99);
        let d = WordDiff::compute(&twin, &cur);
        assert_eq!(d.iter_runs().count(), 1);
        assert_eq!(d.changed_words(), 1);
        // "If the object update is sparse, sending diffs is more
        //  favorable than sending whole objects" (§3.5).
        assert!(d.wire_size() < cur.len() / 10);
    }

    #[test]
    fn consecutive_changes_coalesce_into_one_run() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        for w in 4..9 {
            set_word(&mut cur, w, w as u32);
        }
        let d = WordDiff::compute(&twin, &cur);
        let runs: Vec<(u32, &[u8])> = d.iter_runs().collect();
        assert_eq!(runs, vec![(4, &cur[16..36])]);
    }

    #[test]
    fn apply_reconstructs_current() {
        let twin: Vec<u8> = (0..256u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut cur = twin.clone();
        for w in [0usize, 17, 18, 19, 255] {
            set_word(&mut cur, w, 0xDEAD_BEEF);
        }
        assert_matches_oracle(&twin, &cur);
    }

    #[test]
    fn edge_shapes_match_the_oracle() {
        // Lengths around the block width, runs touching word 0 and the
        // last word, nothing changed and everything changed.
        for len in [0usize, 4, 28, 32, 36, 64, 100] {
            let twin: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert_matches_oracle(&twin, &twin);
            let all: Vec<u8> = twin.iter().map(|b| !b).collect();
            assert_matches_oracle(&twin, &all);
            for w in [0, len / 8, (len / 4).saturating_sub(1)] {
                if w < len / 4 {
                    let mut cur = twin.clone();
                    set_word(&mut cur, w, 0xDEAD_BEEF);
                    assert_matches_oracle(&twin, &cur);
                }
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let twin = vec![0u8; 400];
        let mut cur = twin.clone();
        for w in [1usize, 2, 3, 50, 98, 99] {
            set_word(&mut cur, w, (w * 3) as u32);
        }
        let d = WordDiff::compute(&twin, &cur);
        let enc = d.encode();
        assert_eq!(enc.len(), d.wire_size());
        assert!(
            enc.try_join(&d.encode().slice(enc.len()..)).is_some(),
            "one allocation"
        );
        assert_eq!(WordDiff::from_wire(enc), Ok(d));
    }

    #[test]
    fn iter_words_lists_every_change() {
        let twin = vec![0u8; 32];
        let mut cur = twin.clone();
        set_word(&mut cur, 0, 1);
        set_word(&mut cur, 7, 2);
        let d = WordDiff::compute(&twin, &cur);
        let pairs: Vec<(u32, u32)> = d.iter_words().collect();
        assert_eq!(pairs, vec![(0, 1), (7, 2)]);
        assert_eq!(WordDiff::from_words(&pairs), d);
    }

    #[test]
    fn dense_update_diff_larger_than_object() {
        // Fully rewritten object: diff ≥ data (run headers) — the case
        // where whole-object transfer would win (§5 future work).
        let twin = vec![0u8; 64];
        let cur = vec![1u8; 64];
        let d = WordDiff::compute(&twin, &cur);
        assert_eq!(d.changed_words(), 16);
        assert!(d.wire_size() >= 64);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_lengths_panic() {
        WordDiff::compute(&[0u8; 8], &[0u8; 12]);
    }

    #[test]
    fn lying_frames_are_typed_errors() {
        let good = WordDiff::from_words(&[(2, 7), (3, 8), (9, 1)])
            .encode()
            .to_vec();
        assert!(WordDiff::decode(&good).is_ok());
        assert_eq!(WordDiff::decode(&[]), Err(CorruptDiff { at: 0 }));
        assert_eq!(WordDiff::decode(&[1, 0, 0]), Err(CorruptDiff { at: 3 }));
        // Every proper prefix is truncated; trailing bytes are refused.
        for cut in 0..good.len() {
            assert!(WordDiff::decode(&good[..cut]).is_err(), "prefix {cut}");
        }
        let mut long = good.clone();
        long.push(0);
        assert_eq!(WordDiff::decode(&long), Err(CorruptDiff { at: good.len() }));
        // A run count or run length the bytes do not back.
        let mut lying = good.clone();
        lying[0] = 3;
        assert!(WordDiff::decode(&lying).is_err());
        let mut lying = good.clone();
        lying[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(WordDiff::decode(&lying).is_err());
        // start + len past the last word index.
        let mut wraps = good.clone();
        wraps[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(WordDiff::decode(&wraps), Err(CorruptDiff { at: 4 }));
    }

    #[test]
    fn a_run_past_the_target_is_refused_before_any_write() {
        let d = WordDiff::from_words(&[(0, 1), (9, 2)]);
        assert_eq!(d.check_fits(40), Ok(()));
        // The second run's header sits after [nruns] + one 12-byte run.
        assert_eq!(d.check_fits(36), Err(CorruptDiff { at: 16 }));
    }

    #[test]
    #[should_panic(expected = "diff writes up to word 10 of a 36-byte target")]
    fn apply_asserts_the_fit_it_was_promised() {
        WordDiff::from_words(&[(0, 1), (9, 2)]).apply(&mut [0u8; 36]);
    }

    fn word_pairs() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
        // A twin and a current that agree on most words: each word is
        // rewritten with probability ~1/4, so runs of every short
        // length and equal stretches past the block width both occur.
        proptest::collection::vec((any::<u32>(), 0u8..4, any::<u32>()), 0..96).prop_map(|ws| {
            let twin = ws.iter().flat_map(|w| w.0.to_le_bytes()).collect();
            let cur = ws
                .iter()
                .flat_map(|&(old, roll, new)| if roll == 0 { new } else { old }.to_le_bytes())
                .collect();
            (twin, cur)
        })
    }

    proptest! {
        #[test]
        fn single_pass_encoder_matches_the_oracle((twin, cur) in word_pairs()) {
            assert_matches_oracle(&twin, &cur);
        }

        #[test]
        fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..96)) {
            if let Ok(d) = WordDiff::decode(&data) {
                prop_assert_eq!(&d.encode()[..], &data[..]);
                prop_assert_eq!(d.iter_words().count(), d.changed_words());
                let mut target = [0u8; 64];
                if d.check_fits(target.len()).is_ok() {
                    d.apply(&mut target);
                }
            }
        }

        #[test]
        fn bit_flips_of_valid_encodings_never_panic((twin, cur) in word_pairs(), flip in any::<u32>()) {
            let mut wire = WordDiff::compute(&twin, &cur).encode().to_vec();
            let bit = flip as usize % (wire.len() * 8);
            wire[bit / 8] ^= 1 << (bit % 8);
            if let Ok(d) = WordDiff::decode(&wire) {
                let mut target = twin.clone();
                if d.check_fits(target.len()).is_ok() {
                    d.apply(&mut target);
                }
            }
        }
    }
}
