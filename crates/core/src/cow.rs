//! Copy-on-write host bytes of one object (or of its interval twin).
//!
//! §3.3: an object costs "only a trace of control information" until it
//! is accessed. DMM offsets are *modelled* — the allocator hands them
//! out and every charge follows them — but no host byte lives at one:
//! each object holds a [`CowBytes`] for its data and one for its twin
//! (in a slot beside its [`crate::object::ObjCtl`], made when it first
//! holds either), in one of three states.
//!
//! * **zero** — nothing allocated; reads as zeros. A fresh or eagerly
//!   mapped object, an unmapped one, and the twin of a first write all
//!   stay here until somebody looks.
//! * **owned** — a `Vec<u8>` nobody else can see, written in place.
//! * **shared** — an immutable [`Bytes`]. Other handles on the same
//!   buffer may be held by this object's twin, by reply payloads in
//!   flight, and by the nodes that adopted such a payload as *their*
//!   copy of the object. None of them can write through it.
//!
//! A version is therefore metadata over immutable bytes: serving one,
//! fetching one and twinning one are reference-count moves. Bytes are
//! copied in exactly two places: [`CowBytes::write`] on a buffer some
//! other handle still shares (the one copy of a write interval, made
//! at the writer's first write after the twin was taken), and the
//! pooled buffer a view guard decodes into — taken from its cluster
//! run's guard-buffer pool and given back when the guard drops, so it
//! is allocated once per run, not once per guard. A read of bytes in
//! the zero state copies nothing: the access path hands them out from
//! a static zero block ([`CowBytes::peek`] stays `None`).

use bytes::Bytes;

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

    /// The bytes. Never copies; a zero buffer is allocated (zeroed by
    /// the allocator) on first sight — a reader that can take zeros
    /// from elsewhere asks [`CowBytes::peek`] instead.
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
