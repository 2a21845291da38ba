//! Copy-on-write host bytes: the one byte store under LOTS objects and
//! JIAJIA pages.
//!
//! §3.3: an object costs "only a trace of control information" until it
//! is accessed. DMM offsets and JIAJIA's flat addresses are *modelled* —
//! every charge follows them — but no host byte lives at one: a LOTS
//! object (in a slot beside its [`crate::object::ObjCtl`], made when it
//! first holds bytes or a twin) and a JIAJIA page (in its page record)
//! each hold a [`Held`]: a [`CowBytes`] for the data and one for the
//! interval twin, each in one of three states.
//!
//! * **zero** — nothing allocated; reads as zeros. A fresh or eagerly
//!   mapped object, an unmapped one, a page nobody wrote, and the twin
//!   of a first write all stay here until somebody looks.
//! * **owned** — a `Vec<u8>` nobody else can see, written in place.
//! * **shared** — an immutable [`Bytes`]. Other handles on the same
//!   buffer may be held by the twin, by reply payloads in flight, and
//!   by the nodes that adopted such a payload as *their* copy. None of
//!   them can write through it.
//!
//! A version is therefore metadata over immutable bytes: serving one,
//! fetching one and twinning one are reference-count moves. Bytes are
//! copied in exactly two places: [`CowBytes::write`] on a buffer some
//! other handle still shares (the one copy of a write interval, made
//! at the writer's first write after the twin was taken), and the
//! pooled buffer a view guard decodes into — taken from its cluster
//! run's guard-buffer pool and given back when the guard drops, so it
//! is allocated once per run, not once per guard. A read of bytes in
//! the zero state copies nothing: it is handed out from one static
//! 64 KB zero block (`zeros`, [`CowBytes::or_zeros`]; [`CowBytes::peek`]
//! stays `None`), and so is a diff against them (`diff`): a first
//! write's twin stays zero through the interval diff.

use bytes::Bytes;

use crate::diff::WordDiff;

/// Bytes of the static block never-written bytes are read from.
const ZERO_BLOCK: usize = 64 << 10;

static ZEROS: [u8; ZERO_BLOCK] = [0; ZERO_BLOCK];

/// Hand `f` `len` zero bytes from the static zero block, as
/// `(offset, piece)` pieces of whole `elem`-byte elements.
pub(crate) fn zeros(len: usize, elem: usize, mut f: impl FnMut(usize, &[u8])) {
    let step = ZERO_BLOCK / elem * elem;
    assert!(
        step > 0,
        "an element of {elem} bytes outgrows the zero block"
    );
    let mut at = 0;
    while at < len {
        let n = step.min(len - at);
        f(at, &ZEROS[..n]);
        at += n;
    }
}

/// Bytes that are copied only when written while shared.
pub struct CowBytes(State);

enum State {
    /// This many zeros.
    Zero(usize),
    Owned(Vec<u8>),
    Shared(Bytes),
}

impl CowBytes {
    /// `len` zero bytes, none of them allocated.
    pub fn zero(len: usize) -> CowBytes {
        CowBytes(State::Zero(len))
    }

    /// The bytes, unless nobody has looked at them since
    /// [`CowBytes::zero`] (they are all zeros then).
    pub fn peek(&self) -> Option<&[u8]> {
        match &self.0 {
            State::Zero(_) => None,
            State::Owned(v) => Some(v),
            State::Shared(b) => Some(b),
        }
    }

    /// The bytes, or — while nobody has looked at them — as many from
    /// the static zero block, which holds 64 KB.
    pub fn or_zeros(&self) -> &[u8] {
        match &self.0 {
            State::Zero(len) => &ZEROS[..*len],
            State::Owned(v) => v,
            State::Shared(b) => b,
        }
    }

    /// The bytes as one slice. Never copies, but a zero buffer is
    /// allocated (zeroed by the allocator) on first sight — a reader
    /// that can take zeros from elsewhere asks [`CowBytes::peek`], and
    /// a diff goes through `diff`. The swap-out encode is the one
    /// caller: `SwapImage::encode` takes the object as one slice, and a
    /// mapped victim nobody wrote is rare enough not to bend it.
    pub fn read(&mut self) -> &[u8] {
        if let State::Zero(len) = self.0 {
            self.0 = State::Owned(vec![0; len]);
        }
        self.peek().expect("materialized above")
    }

    /// The bytes, for writing in place. Copies only when another handle
    /// on a shared buffer is alive (or views only part of it).
    pub fn write(&mut self) -> &mut [u8] {
        if !matches!(self.0, State::Owned(_)) {
            self.0 = State::Owned(match std::mem::replace(&mut self.0, State::Zero(0)) {
                State::Zero(len) => vec![0; len],
                State::Shared(b) => b.into(),
                State::Owned(v) => v,
            });
        }
        match &mut self.0 {
            State::Owned(v) => v,
            _ => unreachable!("made owned above"),
        }
    }

    /// How many bytes there are.
    fn len(&self) -> usize {
        match &self.0 {
            State::Zero(len) => *len,
            State::Owned(v) => v.len(),
            State::Shared(b) => b.len(),
        }
    }

    /// The bytes from offset `at` on: all of them, or — in the zero
    /// state — as many as the static zero block holds.
    fn piece(&self, at: usize) -> &[u8] {
        match self.peek() {
            Some(bytes) => &bytes[at..],
            None => &ZEROS[..(self.len() - at).min(ZERO_BLOCK)],
        }
    }

    /// An immutable handle on the current bytes, O(1): an owned buffer
    /// becomes shared where it lies, so later writes cannot reach what
    /// the handle sees.
    pub fn share(&mut self) -> Bytes {
        let b = match std::mem::replace(&mut self.0, State::Zero(0)) {
            State::Zero(len) => Bytes::from(vec![0; len]),
            State::Owned(v) => Bytes::from(v),
            State::Shared(b) => b,
        };
        self.0 = State::Shared(b.clone());
        b
    }

    /// A second buffer over the current bytes, O(1) and without
    /// allocating: zero stays zero, anything else is shared
    /// ([`CowBytes::share`]) between the two.
    pub fn snapshot(&mut self) -> CowBytes {
        match self.0 {
            State::Zero(len) => CowBytes::zero(len),
            _ => self.share().into(),
        }
    }
}

/// The words of `current` that differ from `twin` (equal lengths), as
/// [`WordDiff::compute`] encodes them. A side in the zero state is read
/// from the static zero block piece by piece, so nothing is allocated
/// but the diff.
pub(crate) fn diff(twin: &CowBytes, current: &CowBytes) -> WordDiff {
    assert_eq!(twin.len(), current.len(), "twin/current size mismatch");
    WordDiff::compute_pieces(current.len(), |at| twin.piece(at), |at| current.piece(at))
}

/// A copy's host bytes and its interval twin: a LOTS object's while it
/// holds either, a JIAJIA page's always.
#[derive(Debug)]
pub struct Held {
    /// The bytes: zero (nothing allocated) until first touched, and a
    /// LOTS object's whenever it is not mapped.
    pub data: CowBytes,
    /// The interval twin, if the copy was written this interval: the
    /// pre-write bytes, sharing `data`'s buffer until the first write.
    /// While a LOTS object is on disk the twin's bytes are in the swap
    /// image and this holds only the fact that there is one.
    pub twin: Option<CowBytes>,
}

impl Held {
    /// `len` zero bytes and no twin.
    pub fn zero(len: usize) -> Held {
        Held {
            data: CowBytes::zero(len),
            twin: None,
        }
    }

    /// Twin the bytes ahead of a write, unless this interval already
    /// did; returns whether it did now (the interval's first write).
    /// The twin shares the bytes until the writer first writes them.
    pub fn twin_before_write(&mut self) -> bool {
        let first = self.twin.is_none();
        if first {
            self.twin = Some(self.data.snapshot());
        }
        first
    }

    /// Install a clean copy fetched from elsewhere: the reply payload
    /// becomes the bytes as it is. Over a copy this interval wrote, the
    /// words this node wrote for which `keep(word, value)` holds go
    /// back on top, and the twin becomes the fetched copy, so only
    /// they are diffed at the next flush.
    pub fn install(&mut self, fetched: Bytes, mut keep: impl FnMut(u32, u32) -> bool) {
        let mut fetched = CowBytes::from(fetched);
        if self.twin.is_some() {
            let own = self.interval_diff();
            self.twin = Some(fetched.snapshot());
            let data = fetched.write();
            for (w, v) in own.iter_words().filter(|&(w, v)| keep(w, v)) {
                let at = 4 * w as usize;
                data[at..at + 4].copy_from_slice(&v.to_le_bytes());
            }
        }
        self.data = fetched;
    }

    /// Overwrite `words` (index, value) of the bytes and of a live
    /// twin, so the interval diff does not take words that came with a
    /// lock grant for local writes.
    pub fn patch_words(&mut self, words: impl Iterator<Item = (u32, u32)>) {
        let data = self.data.write();
        let mut twin = self.twin.as_mut().map(CowBytes::write);
        for (word, val) in words {
            let at = word as usize * 4;
            data[at..at + 4].copy_from_slice(&val.to_le_bytes());
            if let Some(twin) = &mut twin {
                twin[at..at + 4].copy_from_slice(&val.to_le_bytes());
            }
        }
    }

    /// The words written since the interval twin was taken.
    pub fn interval_diff(&self) -> WordDiff {
        let twin = self.twin.as_ref().expect("a written copy has a twin");
        diff(twin, &self.data)
    }
}

impl From<Bytes> for CowBytes {
    fn from(b: Bytes) -> CowBytes {
        CowBytes(State::Shared(b))
    }
}

impl From<Vec<u8>> for CowBytes {
    fn from(v: Vec<u8>) -> CowBytes {
        CowBytes(State::Owned(v))
    }
}

impl std::fmt::Debug for CowBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            State::Zero(len) => write!(f, "CowBytes(zero, {len} bytes)"),
            State::Owned(v) => write!(f, "CowBytes(owned, {} bytes)", v.len()),
            State::Shared(b) => write!(f, "CowBytes(shared, {} bytes)", b.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_allocates_on_first_sight_only() {
        let mut b = CowBytes::zero(64);
        assert!(b.peek().is_none());
        assert!(b.snapshot().peek().is_none(), "a zero snapshot is zero");
        assert!(b.peek().is_none(), "and leaves its source zero");
        assert_eq!(b.read(), &[0u8; 64]);
        assert!(b.peek().is_some());
        let mut w = CowBytes::zero(8);
        w.write()[3] = 7;
        assert_eq!(w.read(), &[0, 0, 0, 7, 0, 0, 0, 0]);
        assert_eq!(CowBytes::zero(4).share(), &[0u8; 4][..]);
    }

    #[test]
    fn a_first_writes_interval_diff_leaves_its_zero_twin_unallocated() {
        let mut held = Held::zero(1 << 20);
        assert!(held.twin_before_write());
        held.data.write()[5] = 1;
        let diff = held.interval_diff();
        assert_eq!(diff.iter_words().collect::<Vec<_>>(), vec![(1, 1 << 8)]);
        let twin = held.twin.as_ref().expect("twinned above");
        assert!(twin.peek().is_none(), "the zero twin was never allocated");
    }

    #[test]
    fn a_diff_against_zeros_matches_one_against_a_zero_buffer() {
        // Runs at the start, across the zero block's bound, at the end
        // — and a side in the zero state on either side of the diff.
        let (block, len) = (ZERO_BLOCK, 3 * ZERO_BLOCK);
        let mut bytes = vec![0u8; len];
        for at in [0, 4, block - 8, block - 4, block, 2 * block + 4, len - 4] {
            bytes[at] = 0xa5;
        }
        let zeros = vec![0u8; len];
        let written = CowBytes::from(bytes.clone());
        let zero = CowBytes::zero(len);
        assert_eq!(diff(&zero, &written), WordDiff::compute(&zeros, &bytes));
        assert_eq!(diff(&written, &zero), WordDiff::compute(&bytes, &zeros));
        assert!(diff(&zero, &CowBytes::zero(len)).is_empty());
        assert!(zero.peek().is_none());
    }

    #[test]
    fn an_owned_buffer_is_written_in_place() {
        let mut b = CowBytes::from(vec![1u8; 32]);
        let at = b.read().as_ptr();
        b.write()[0] = 2;
        b.write()[1] = 3;
        assert_eq!(b.read().as_ptr(), at);
        // Sharing moves no byte either.
        assert_eq!(b.share().as_ptr(), at);
    }

    #[test]
    fn a_write_copies_only_while_another_handle_is_alive() {
        let mut b = CowBytes::from(vec![5u8; 32]);
        let at = b.read().as_ptr();
        let lent = b.share();
        b.write()[0] = 6;
        assert_ne!(b.read().as_ptr(), at, "the loan pinned the old buffer");
        assert_eq!(lent, &[5u8; 32][..], "and still reads what it was lent");
        // The loan returned before the write: the buffer is reclaimed.
        let at = b.read().as_ptr();
        drop(b.share());
        b.write()[1] = 7;
        assert_eq!(b.read().as_ptr(), at);
        assert_eq!(&b.read()[..3], &[6, 7, 5]);
    }

    #[test]
    fn a_snapshot_and_its_source_diverge_on_write() {
        let mut data = CowBytes::from(vec![1u8; 16]);
        let mut twin = data.snapshot();
        assert_eq!(twin.read().as_ptr(), data.read().as_ptr());
        data.write()[0] = 9;
        assert_eq!(twin.read(), &[1u8; 16]);
        twin.write()[1] = 8;
        assert_eq!(&data.read()[..2], &[9, 1]);
        // An adopted payload is shared with whoever else holds it.
        let reply = Bytes::from(vec![4u8; 16]);
        let mut copy = CowBytes::from(reply.clone());
        assert_eq!(copy.read().as_ptr(), reply.as_ptr());
        copy.write()[0] = 0;
        assert_eq!(reply, &[4u8; 16][..]);
    }
}
