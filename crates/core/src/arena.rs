//! Host memory behind the DMM arena, the twin arena and JIAJIA's
//! shared-space mirror.
//!
//! The modelled systems map address space lazily (§3.3: an object
//! costs "only a trace of control information" until it is accessed),
//! and the host should too: a simulated node must not touch a page of
//! host memory the modelled program never wrote. [`Arena`] gets there
//! with one number. The buffer comes zeroed from the allocator
//! (`calloc`, so untouched pages are never committed), every mutable
//! borrow raises a *dirty high-water mark*, and [`Arena::zero`] — the
//! only place an extent is ever cleared — writes zeros only below the
//! mark, where recycled data can be. Virtual time, counters and every
//! mapping decision are untouched: this is purely which host pages get
//! written.

use std::ops::{Index, IndexMut, Range};

/// A fixed-size, zero-initialised byte arena that tracks how far it has
/// ever been written.
pub struct Arena {
    bytes: Vec<u8>,
    /// No byte at or above this offset was ever borrowed mutably, so
    /// `bytes[mark..]` still reads as the zeros it was allocated with.
    mark: usize,
}

impl Arena {
    /// An arena of `len` zero bytes.
    pub fn new(len: usize) -> Arena {
        Arena {
            bytes: vec![0u8; len],
            mark: 0,
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True iff the arena holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Make `range` read as zeros. Only the part below the dirty mark
    /// — space that may hold a previous tenant's data — is written;
    /// the rest has been zero since allocation.
    pub fn zero(&mut self, range: Range<usize>) {
        let clean_from = range.start.max(range.end.min(self.mark));
        self.bytes[range.start..clean_from].fill(0);
        debug_assert!(
            self.bytes[clean_from..range.end].iter().all(|&b| b == 0),
            "bytes {clean_from}..{} lie above the dirty mark {} but are not zero",
            range.end,
            self.mark
        );
    }
}

impl Index<Range<usize>> for Arena {
    type Output = [u8];

    fn index(&self, range: Range<usize>) -> &[u8] {
        &self.bytes[range]
    }
}

impl IndexMut<Range<usize>> for Arena {
    fn index_mut(&mut self, range: Range<usize>) -> &mut [u8] {
        self.mark = self.mark.max(range.end);
        &mut self.bytes[range]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_clears_recycled_bytes_and_skips_untouched_ones() {
        let mut a = Arena::new(64);
        a[8..24].copy_from_slice(&[0xAB; 16]);
        assert_eq!(a.mark, 24);
        // Straddles the mark: 16..24 is recycled, 24..40 never written.
        a.zero(16..40);
        assert_eq!(&a[8..16], &[0xAB; 8]);
        assert_eq!(&a[16..40], &[0u8; 24]);
        assert_eq!(a.mark, 24, "zeroing exposes nothing mutably");
        // Entirely above the mark: nothing to do, nothing raised.
        a.zero(40..64);
        assert_eq!(a.mark, 24);
        // Entirely below it.
        a.zero(8..16);
        assert_eq!(&a[0..64], &[0u8; 64]);
    }

    #[test]
    fn every_mutable_borrow_raises_the_mark() {
        let mut a = Arena::new(32);
        let _ = &a[0..32];
        assert_eq!(a.mark, 0, "reads are free");
        a[4..8].fill(1);
        a[0..2].fill(1);
        assert_eq!(a.mark, 8);
        a.zero(0..32);
        assert_eq!(&a[0..32], &[0u8; 32]);
    }
}
