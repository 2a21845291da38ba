//! Offline stand-in for the [`bytes`](https://docs.rs/bytes) crate.
//!
//! The build environment has no crates.io access, so this workspace
//! vendors the *subset* of the `bytes` API its crates actually use:
//! cheaply clonable immutable [`Bytes`] (an `Arc`-shared buffer with a
//! zero-copy [`Bytes::slice`], an O(1) `From<Vec<u8>>` and the way back,
//! `From<Bytes> for Vec<u8>`) and a growable [`BytesMut`] builder.
//! Semantics match the real crate for this subset; swap the real dependency back in by
//! deleting the shim from the workspace `[patch]`-free path deps. One
//! addition has no upstream twin: [`Bytes::try_join`], the rejoin the
//! real crate offers only on `BytesMut` (`unsplit`).

#![forbid(unsafe_code)]

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Cheaply clonable, immutable byte buffer: a shared `Vec<u8>` plus a
/// view window, so [`Bytes::slice`], [`Clone`] and the conversion from
/// a `Vec<u8>` are all O(1) — the vector's allocation *is* the backing
/// buffer, as in the real crate.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Empty buffer (no backing bytes are allocated).
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    pub fn from_static(src: &'static [u8]) -> Self {
        // The shim copies once instead of borrowing 'static storage;
        // callers only rely on the resulting value semantics.
        Bytes::copy_from_slice(src)
    }

    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes::from(src.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Zero-copy sub-view sharing the same backing allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= end && end <= len,
            "range {begin}..{end} out of bounds for Bytes of len {len}"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// Rejoin two views that [`Bytes::slice`] cut from one buffer:
    /// `Some(self ++ next)` without copying when `next` starts exactly
    /// where `self` ends in the *same* backing allocation, `None`
    /// otherwise (a gap, an overlap, or two different buffers). The
    /// `Bytes`-side counterpart of the real crate's `BytesMut::unsplit`.
    pub fn try_join(&self, next: &Bytes) -> Option<Bytes> {
        (Arc::ptr_eq(&self.data, &next.data) && self.end == next.start).then(|| Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: next.end,
        })
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl From<Bytes> for Vec<u8> {
    /// Reuses the allocation when `b` is the sole handle on its buffer
    /// and views all of it (as in the real crate); copies otherwise.
    fn from(b: Bytes) -> Vec<u8> {
        if b.start != 0 || b.end != b.data.len() {
            return b.to_vec();
        }
        Arc::try_unwrap(b.data).unwrap_or_else(|shared| shared.to_vec())
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// O(1): the vector moves behind the `Arc`, its bytes stay put.
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"{} bytes\"", self.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state)
    }
}

/// Growable byte builder; [`BytesMut::freeze`] converts to [`Bytes`].
#[derive(Clone, Default, Debug)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    /// O(1): hands the builder's allocation to the [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_a_view() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.slice(1..).len(), 2);
    }

    #[test]
    fn from_vec_freeze_and_slice_share_the_original_allocation() {
        let v = vec![7u8; 100];
        let p = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), p, "From<Vec<u8>> must not copy");
        assert_eq!(b.slice(10..20).as_ptr(), p.wrapping_add(10));
        assert_eq!(b.clone().as_ptr(), p);
        let mut m = BytesMut::with_capacity(64);
        m.extend_from_slice(&[1, 2, 3]);
        let p = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), p, "freeze must not copy");
    }

    #[test]
    fn try_join_rejoins_adjacent_slices_without_copying() {
        let b = Bytes::from((0..=99u8).collect::<Vec<_>>());
        let (lo, mid, hi) = (b.slice(..40), b.slice(40..70), b.slice(70..));
        let joined = lo.try_join(&mid).unwrap().try_join(&hi).unwrap();
        assert_eq!(joined, b);
        assert_eq!(joined.as_ptr(), b.as_ptr());
        // An empty view joins at its position.
        assert_eq!(lo.try_join(&b.slice(40..40)).unwrap(), lo);
    }

    #[test]
    fn try_join_refuses_gaps_overlaps_and_foreign_buffers() {
        let b = Bytes::from(vec![5u8; 100]);
        assert!(b.slice(..40).try_join(&b.slice(41..)).is_none(), "gap");
        assert!(b.slice(..40).try_join(&b.slice(39..)).is_none(), "overlap");
        assert!(b.slice(40..).try_join(&b.slice(..40)).is_none(), "reversed");
        let twin = Bytes::from(vec![5u8; 100]);
        assert!(
            b.slice(..40).try_join(&twin.slice(40..)).is_none(),
            "equal bytes in another allocation are not adjacent"
        );
    }

    #[test]
    fn into_vec_reuses_the_allocation_of_a_sole_whole_view() {
        let b = Bytes::from(vec![9u8; 100]);
        let p = b.as_ptr();
        // Shared: the vector is a copy and the other handle is intact.
        let other = b.clone();
        let v = Vec::from(b);
        assert_ne!(v.as_ptr(), p, "another handle is alive");
        assert_eq!(other, v[..]);
        // A partial view copies even when it is the only handle.
        let (lo, hi) = (other.slice(..50), other.slice(50..));
        drop(other);
        let half = Vec::from(lo.clone());
        assert_eq!((half.len(), half.as_ptr() == p), (50, false));
        // Rejoined to the whole buffer and alone: no copy.
        let whole = lo.try_join(&hi).unwrap();
        drop((lo, hi));
        let v = Vec::from(whole);
        assert_eq!((v.as_ptr(), v.len()), (p, 100));
    }

    #[test]
    fn bytes_mut_roundtrip() {
        let mut m = BytesMut::with_capacity(8);
        m.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        m.extend_from_slice(&[1, 2]);
        let b = m.freeze();
        assert_eq!(b.len(), 6);
        assert_eq!(&b[..4], &0xDEAD_BEEFu32.to_le_bytes());
    }
}
