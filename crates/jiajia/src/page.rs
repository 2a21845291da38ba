//! Page table for the JIAJIA baseline.
//!
//! JIAJIA v1.1 (Hu, Shi, Tang — HPCN'99) is a *page-based, home-based*
//! software DSM under Scope Consistency. Shared memory is carved into
//! 4 KB pages; each page has a fixed home assigned **round-robin** at
//! allocation (the paper's §4.1 notes this placement when explaining
//! ME's behaviour). Non-home copies are cached on access and
//! invalidated when any other node writes the page.

use std::sync::atomic::AtomicU64;

use lots_core::cow::Held;
use lots_core::state_table::{StateTable, EITHER, NO, YES};
use lots_net::NodeId;

/// Page size (same as the OS page granularity LOTS assumes).
pub const PAGE_BYTES: usize = 4096;

/// Per-node record of one shared page: its control state and this
/// node's copy of its bytes.
#[derive(Debug)]
pub struct PageCtl {
    pub home: NodeId,
    /// The local copy is usable; otherwise it must be fetched from the
    /// home on access (home copies are always valid).
    pub valid: bool,
    /// Barrier epoch of the local copy.
    pub version: u64,
    /// Written by this node since the last synchronization flush.
    pub written: bool,
    /// First-touch placement: the home is provisional until the first
    /// barrier at which the page was written assigns the real one.
    pub pending: bool,
    /// This node's copy and its interval twin. A page nobody wrote
    /// holds no byte, and only a non-home writer twins it.
    pub held: Held,
}

impl PageCtl {
    pub fn new(home: NodeId) -> PageCtl {
        PageCtl {
            home,
            // Fresh shared memory is zero everywhere: all copies agree.
            valid: true,
            version: 0,
            written: false,
            pending: false,
            held: Held::zero(PAGE_BYTES),
        }
    }
}

/// What a node may know about a page: every legal combination of its
/// record's validity and flags, whether this node is its home, whether
/// the record holds bytes (a frame) and a twin, and whether its
/// allocation was freed this interval (`JiaNode::page_state` reads
/// them). A frame never matters: a page without one reads as zeros.
/// Every row is reached by the lattice's `all_pairs` points
/// (`tests/state_tables.rs`).
pub static PAGE_STATES: StateTable<7> = StateTable {
    axes: "(valid, home, frame, twin, written, tombstoned, pending)",
    rows: &[
        // JIAJIA is home-based: the home's copy is always valid. A
        // first-touch home is pending until a barrier assigns it.
        [YES, YES, EITHER, NO, NO, NO, EITHER],
        // The home writes in place, without a twin.
        [YES, YES, EITHER, NO, YES, NO, EITHER],
        // A cached copy (or a page nobody wrote: zeros everywhere).
        [YES, NO, EITHER, NO, NO, NO, EITHER],
        // A write fault twinned the cached copy before the write.
        [YES, NO, EITHER, YES, YES, NO, EITHER],
        // Invalidated by a write notice: refetched from the home.
        [NO, NO, EITHER, NO, NO, NO, EITHER],
        // A lock's write notice over this node's unflushed writes: the
        // refetch puts them back on top of the home's copy.
        [NO, NO, EITHER, YES, YES, NO, EITHER],
        // Freed this interval: fenced until the barrier reclaims
        // it; the tombstone dropped its twin and publishes nothing.
        [EITHER, EITHER, EITHER, NO, NO, YES, EITHER],
    ],
    reached: AtomicU64::new(0),
};

/// The page table of one node: control records materialized only as
/// far up as one was ever changed. Every page above reads as the
/// fresh record [`PageCtl::new`] gives it (round-robin home), so a
/// large shared space costs a node nothing for the part it never
/// touches.
pub struct PageTable {
    /// Records of pages `0..changed.len()`.
    changed: Vec<PageCtl>,
    /// The fresh record of a page above them, by `page % n`.
    fresh: Vec<PageCtl>,
    n_pages: usize,
}

impl PageTable {
    /// `n_pages` fresh pages homed round-robin over `n` nodes.
    pub fn new(n_pages: usize, n: usize) -> PageTable {
        PageTable {
            changed: Vec::new(),
            fresh: (0..n).map(PageCtl::new).collect(),
            n_pages,
        }
    }

    /// Number of pages in the shared space.
    pub fn page_count(&self) -> usize {
        self.n_pages
    }
}

impl std::ops::Index<usize> for PageTable {
    type Output = PageCtl;

    fn index(&self, page: usize) -> &PageCtl {
        assert!(
            page < self.n_pages,
            "page {page} is outside the shared space"
        );
        self.changed
            .get(page)
            .unwrap_or_else(|| &self.fresh[page % self.fresh.len()])
    }
}

impl std::ops::IndexMut<usize> for PageTable {
    fn index_mut(&mut self, page: usize) -> &mut PageCtl {
        assert!(
            page < self.n_pages,
            "page {page} is outside the shared space"
        );
        let n = self.fresh.len();
        while self.changed.len() <= page {
            self.changed.push(PageCtl::new(self.changed.len() % n));
        }
        &mut self.changed[page]
    }
}

/// Index arithmetic helpers.
#[inline]
pub fn page_of(addr: usize) -> usize {
    addr / PAGE_BYTES
}

#[inline]
pub fn page_base(page: usize) -> usize {
    page * PAGE_BYTES
}

/// Split the byte range `[addr, addr+len)` into per-page subranges.
pub fn split_range(addr: usize, len: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    // Yields (page, offset_in_page, len_in_page).
    let mut cur = addr;
    let end = addr + len;
    std::iter::from_fn(move || {
        if cur >= end {
            return None;
        }
        let page = page_of(cur);
        let off = cur - page_base(page);
        let take = (PAGE_BYTES - off).min(end - cur);
        cur += take;
        Some((page, off, take))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_page_is_valid_zero() {
        let p = PageCtl::new(2);
        assert!(p.valid);
        assert_eq!(p.home, 2);
        assert!(!p.written);
    }

    #[test]
    fn the_page_table_grows_only_to_the_highest_changed_page() {
        let mut t = PageTable::new(1 << 20, 3);
        assert_eq!((t[0].home, t[5].home, t[(1 << 20) - 1].home), (0, 2, 0));
        assert!(t.changed.is_empty(), "reads materialize nothing");
        t[4].written = true;
        assert_eq!(t.changed.len(), 5);
        assert!(t[4].written && !t[3].written && !t[5].written);
        assert_eq!((t[3].home, t[4].home, t[5].home), (0, 1, 2));
        assert_eq!(t.page_count(), 1 << 20);
    }

    #[test]
    #[should_panic(expected = "outside the shared space")]
    fn a_page_past_the_space_is_refused() {
        let _ = PageTable::new(8, 2)[8];
    }

    #[test]
    fn page_arithmetic() {
        assert_eq!(page_of(0), 0);
        assert_eq!(page_of(4095), 0);
        assert_eq!(page_of(4096), 1);
        assert_eq!(page_base(3), 12288);
    }

    #[test]
    fn split_range_within_one_page() {
        let parts: Vec<_> = split_range(100, 200).collect();
        assert_eq!(parts, vec![(0, 100, 200)]);
    }

    #[test]
    fn split_range_spanning_pages() {
        let parts: Vec<_> = split_range(4000, 5000).collect();
        assert_eq!(parts, vec![(0, 4000, 96), (1, 0, 4096), (2, 0, 808)]);
        let total: usize = parts.iter().map(|&(_, _, l)| l).sum();
        assert_eq!(total, 5000);
    }

    #[test]
    fn split_range_page_aligned() {
        let parts: Vec<_> = split_range(8192, 8192).collect();
        assert_eq!(parts, vec![(2, 0, 4096), (3, 0, 4096)]);
    }
}
