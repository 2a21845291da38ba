//! Per-node state of the JIAJIA baseline: the shared-space mirror,
//! page cache, twins and diff bookkeeping — plus the page-granular
//! object lifecycle (free-list allocation, free/reclaim) mirroring the
//! LOTS surface. Page homes and the replicated name directory are
//! `lots_core`'s (`Placement::home`, `directory::NameDirectory`).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;

use bytes::Bytes;
use lots_core::diff::{CorruptDiff, WordDiff};
use lots_core::directory::NameDirectory;
use lots_core::{DsmError, NamedAllocReq, Placement};
use lots_net::NodeId;
use lots_sim::{CpuModel, DiskModel, DiskQueue, NodeStats, SimClock, SimDuration, TimeCategory};

use crate::page::{page_base, page_of, split_range, PageCtl, PageState, PageTable, PAGE_BYTES};

/// A node's copy of one shared page.
type Frame = [u8; PAGE_BYTES];

/// Result of a page access attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageAccess {
    Ready,
    /// `page` faulted; fetch it from `home` and retry (successive
    /// SIGSEGVs fault a range in one page at a time).
    NeedFetch {
        page: usize,
        home: NodeId,
    },
}

/// One live allocation (page-granular, as `jia_alloc` rounds to
/// pages).
#[derive(Debug, Clone)]
struct JiaAlloc {
    /// Pages covered.
    pages: usize,
    /// Requested byte size (pre-rounding); `free` must match it.
    bytes: usize,
    /// Freed this interval (tombstoned until the barrier reclaims).
    tombstoned: bool,
}

/// Per-node JIAJIA state (behind a mutex, shared with the comm handler).
pub struct JiaNode {
    pub me: NodeId,
    pub n: usize,
    /// Local mirror of the shared space, one frame per page the node
    /// installed, wrote or applied a diff to, indexed by page (and as
    /// long as the highest such page). A page without a frame still
    /// reads as the zeros it started with, and no host byte stands for
    /// it; reclamation drops the frame.
    frames: Vec<Option<Box<Frame>>>,
    /// Size of the shared space.
    shared_bytes: usize,
    pages: PageTable,
    twins: HashMap<u32, Vec<u8>>,
    /// Pages this node wrote since the last flush.
    dirty: Vec<u32>,
    /// Pages this node wrote since the last barrier. A lock release
    /// flushes `dirty` but the barrier must still send a notice for
    /// each of these pages.
    interval: BTreeSet<u32>,
    /// Free page extents: first page → page count (first-fit lowest,
    /// coalesced on reclaim). Every node performs the same allocations
    /// and replays the same barrier-agreed reclamations, so addresses
    /// agree cluster-wide.
    free_pages: BTreeMap<usize, usize>,
    /// Live (and tombstoned) allocations by base address.
    allocs: BTreeMap<usize, JiaAlloc>,
    /// Replicated name directory (changes only at barriers) with this
    /// interval's staged frees — `(first page, pages)` — and named
    /// allocations.
    names: NameDirectory<usize, (u32, u32)>,
    /// Default placement for unadorned allocs.
    pub default_placement: Placement,
    /// Serial local-disk device for the persistence journal. JIAJIA
    /// itself never touches disk (no swap); the device exists only
    /// when the run enables the `lots-persist` journal.
    diskq: Option<DiskQueue>,
    pub clock: SimClock,
    pub stats: NodeStats,
    pub cpu: CpuModel,
}

impl JiaNode {
    pub fn new(
        me: NodeId,
        n: usize,
        shared_bytes: usize,
        cpu: CpuModel,
        clock: SimClock,
        stats: NodeStats,
    ) -> JiaNode {
        assert_eq!(
            shared_bytes % PAGE_BYTES,
            0,
            "shared space is page-granular"
        );
        let n_pages = shared_bytes / PAGE_BYTES;
        JiaNode {
            me,
            n,
            frames: Vec::new(),
            shared_bytes,
            // Round-robin home allocation on pages (paper §4.1).
            pages: PageTable::new(n_pages, n),
            twins: HashMap::new(),
            dirty: Vec::new(),
            interval: BTreeSet::new(),
            free_pages: std::iter::once((0, n_pages)).collect(),
            allocs: BTreeMap::new(),
            names: NameDirectory::default(),
            default_placement: Placement::RoundRobin,
            diskq: None,
            clock,
            stats,
            cpu,
        }
    }

    /// Attach the local-disk device the persistence journal books its
    /// I/O on (called once at bootstrap when the journal is enabled).
    pub fn enable_persist_disk(&mut self, model: DiskModel) {
        self.diskq = Some(DiskQueue::new(model));
    }

    fn charge(&self, cat: TimeCategory, d: SimDuration) {
        self.clock.advance(d);
        self.stats.charge(cat, d);
    }

    /// Allocate `bytes` of shared space (JIAJIA's `jia_alloc`) under
    /// the node's default placement. Collective: every node performs
    /// the same allocations, so addresses agree.
    pub fn jia_alloc(&mut self, bytes: usize) -> Result<usize, DsmError> {
        self.jia_alloc_placed(bytes, self.default_placement)
    }

    /// [`JiaNode::jia_alloc`] with an explicit page placement.
    /// First-fit over the free page extents: the lowest-addressed
    /// extent that fits — freed ranges are *reused*, so a cumulative
    /// allocation history far beyond `shared_bytes` fits a fixed
    /// space. `jia_alloc` rounds to pages, so distinct allocations
    /// never share a page (but rows *within* one allocation do — the
    /// false sharing the paper analyses in LU).
    pub fn jia_alloc_placed(
        &mut self,
        bytes: usize,
        placement: Placement,
    ) -> Result<usize, DsmError> {
        placement.check(self.n)?;
        let limit = self.shared_bytes;
        let pages = bytes.div_ceil(PAGE_BYTES).max(1);
        let Some(first) = self
            .free_pages
            .iter()
            .find(|&(_, &len)| len >= pages)
            .map(|(&p, _)| p)
        else {
            return Err(DsmError::OutOfSharedMemory {
                requested: bytes,
                limit,
            });
        };
        let extent = self.free_pages.remove(&first).expect("extent exists");
        if extent > pages {
            self.free_pages.insert(first + pages, extent - pages);
        }
        for p in first..first + pages {
            let (home, pending) = placement.home(p as u32, 0, self.n);
            let mut ctl = PageCtl::new(home);
            ctl.pending = pending;
            ctl.version = self.pages[p].version;
            self.pages[p] = ctl;
        }
        self.allocs.insert(
            page_base(first),
            JiaAlloc {
                pages,
                bytes,
                tombstoned: false,
            },
        );
        Ok(page_base(first))
    }

    // ------------------------------------------------------------------
    // Object lifecycle: free, named objects (tombstone → barrier
    // reclamation, page-granular)
    // ------------------------------------------------------------------

    /// Free a live allocation: tombstone its pages immediately (every
    /// further application access fails with
    /// [`DsmError::UseAfterFree`]) and stage the range for
    /// cluster-wide reclamation at the next barrier.
    pub fn free_alloc(&mut self, addr: usize, bytes: usize) -> Result<(), DsmError> {
        let Some(info) = self.allocs.get(&addr) else {
            return Err(DsmError::BadFree {
                alloc: addr.into(),
                reason: "not the base address of a live allocation — free needs \
                         the original allocation handle"
                    .into(),
            });
        };
        DsmError::check_free(addr.into(), (!info.tombstoned).then_some(info.bytes), bytes)?;
        let pages = info.pages;
        let first = addr / PAGE_BYTES;
        self.allocs.get_mut(&addr).expect("checked").tombstoned = true;
        for p in first..first + pages {
            self.pages[p].freed = true;
            // The tombstone publishes nothing: drop pending diffs.
            self.twins.remove(&(p as u32));
            self.pages[p].twin = false;
        }
        let outside = |&p: &u32| !(first..first + pages).contains(&(p as usize));
        self.dirty.retain(outside);
        self.interval.retain(outside);
        self.names.stage_free((first as u32, pages as u32));
        Ok(())
    }

    /// Stage a named allocation for commit at the next barrier.
    pub fn stage_named(&mut self, req: NamedAllocReq) -> Result<(), DsmError> {
        self.names.stage(req, self.n, None)
    }

    /// Resolve a committed name into `(base address, element count)`,
    /// checking the recorded element size.
    pub fn lookup_named(&self, name: &str, elem_size: usize) -> Result<(usize, usize), DsmError> {
        let live = |addr| self.allocs.get(&addr).is_some_and(|a| !a.tombstoned);
        self.names.lookup(name, elem_size, live)
    }

    /// Take the interval's staged frees and named allocations for the
    /// barrier rendezvous.
    pub fn take_lifecycle(&mut self) -> (Vec<(u32, u32)>, Vec<NamedAllocReq>) {
        self.names.take()
    }

    /// First-touch resolution at barrier exit: a pending page written
    /// this interval is re-homed to its (lowest-ranked) writer when it
    /// had exactly one — safe, because the writer's copy equals the
    /// provisional home's copy once the diff flush is acknowledged.
    /// Multi-writer pending pages keep the provisional home (the diffs
    /// already merged there).
    pub fn resolve_pending_homes(&mut self, written: &[crate::services::PageNotice]) {
        for notice in written {
            let p = notice.page as usize;
            if !self.pages[p].pending || self.pages[p].freed {
                continue;
            }
            if !notice.multi {
                self.pages[p].home = notice.writer;
            }
            self.pages[p].pending = false;
        }
    }

    /// Barrier exit: reclaim the cluster-agreed freed ranges (zero the
    /// pages back to the fresh-allocation state on every node, return
    /// the range to the free list, drop directory entries) and commit
    /// the agreed named allocations in deterministic order.
    pub fn finish_lifecycle(&mut self, freed: &[(u32, u32)], named: &[NamedAllocReq], seq: u64) {
        for &(first, pages) in freed {
            self.reclaim_range(first as usize, pages as usize, seq);
        }
        for req in named {
            let addr = self
                .jia_alloc_placed(req.bytes, req.placement)
                .unwrap_or_else(|e| panic!("committing named {:?}: {e}", req.name));
            self.names.insert(req, addr);
        }
    }

    /// Reclaim one freed page range: every node resets the pages to
    /// the fresh state (zero bytes, valid, round-robin home at `seq`),
    /// so a reuse starts from a cluster-consistent zero fill.
    fn reclaim_range(&mut self, first: usize, pages: usize, seq: u64) {
        let addr = page_base(first);
        if let Some(info) = self.allocs.remove(&addr) {
            debug_assert_eq!(info.pages, pages, "free range disagrees with allocation");
            self.names.remove_at(addr);
            self.stats.count_object_freed((pages * PAGE_BYTES) as u64);
        }
        for p in first..first + pages {
            self.twins.remove(&(p as u32));
            if let Some(frame) = self.frames.get_mut(p) {
                *frame = None;
            }
            let mut ctl = PageCtl::new(p % self.n);
            ctl.version = seq;
            self.pages[p] = ctl;
        }
        self.dirty
            .retain(|&p| !(first..first + pages).contains(&(p as usize)));
        // Return the range to the free list, coalescing neighbours.
        let mut start = first;
        let mut len = pages;
        if let Some((&p_off, &p_len)) = self.free_pages.range(..first).next_back() {
            if p_off + p_len == first {
                self.free_pages.remove(&p_off);
                start = p_off;
                len += p_len;
            }
        }
        if let Some(&n_len) = self.free_pages.get(&(first + pages)) {
            self.free_pages.remove(&(first + pages));
            len += n_len;
        }
        self.free_pages.insert(start, len);
    }

    /// Free shared pages (diagnostics; the space a fresh allocation
    /// could still take).
    pub fn free_page_count(&self) -> usize {
        self.free_pages.values().sum()
    }

    /// Live (non-tombstoned) allocations.
    pub fn live_allocs(&self) -> usize {
        self.allocs.values().filter(|a| !a.tombstoned).count()
    }

    /// The use-after-free fence: an error naming the accessed address
    /// if any page of `[addr, addr+len)` is tombstoned.
    fn fence_freed(&self, addr: usize, len: usize) -> Result<(), DsmError> {
        match split_range(addr, len).any(|(page, _, _)| self.pages[page].freed) {
            true => Err(DsmError::UseAfterFree { alloc: addr.into() }),
            false => Ok(()),
        }
    }

    /// Begin a read of `[addr, addr+len)`: returns the first page that
    /// needs fetching, if any (the caller fetches and retries), or
    /// [`DsmError::UseAfterFree`] if the range reaches a freed page.
    pub fn begin_read(&mut self, addr: usize, len: usize) -> Result<PageAccess, DsmError> {
        self.fence_freed(addr, len)?;
        for (page, _, _) in split_range(addr, len) {
            let ctl = &self.pages[page];
            if ctl.home != self.me && ctl.state == PageState::Invalid {
                // SIGSEGV read fault + handler.
                self.stats.count_page_fault();
                self.charge(TimeCategory::AccessCheck, self.cpu.page_fault);
                return Ok(PageAccess::NeedFetch {
                    page,
                    home: ctl.home,
                });
            }
        }
        Ok(PageAccess::Ready)
    }

    /// Begin a write: like a read, plus twin creation (write fault) on
    /// the first write to each non-home page this interval.
    pub fn begin_write(&mut self, addr: usize, len: usize) -> Result<PageAccess, DsmError> {
        self.fence_freed(addr, len)?;
        for (page, _, _) in split_range(addr, len) {
            let home = self.pages[page].home;
            if home != self.me && self.pages[page].state == PageState::Invalid {
                self.stats.count_page_fault();
                self.charge(TimeCategory::AccessCheck, self.cpu.page_fault);
                return Ok(PageAccess::NeedFetch { page, home });
            }
        }
        for (page, _, _) in split_range(addr, len) {
            let is_home = self.pages[page].home == self.me;
            if !self.pages[page].written {
                self.pages[page].written = true;
                self.dirty.push(page as u32);
            }
            if !is_home && !self.pages[page].twin {
                // Write fault: twin the page before first modification.
                self.stats.count_page_fault();
                self.charge(TimeCategory::AccessCheck, self.cpu.page_fault);
                self.twins.insert(page as u32, self.mem_page(page).to_vec());
                self.pages[page].twin = true;
                self.charge(TimeCategory::Diffing, self.cpu.diffing(PAGE_BYTES as u64));
            }
        }
        Ok(PageAccess::Ready)
    }

    /// Read access to `[addr, addr+len)`, which must lie in one page,
    /// after `begin_read` returned `Ready`. A page without a frame
    /// reads as zeros and still gets none.
    pub fn bytes(&self, addr: usize, len: usize) -> &[u8] {
        let (page, off) = within_page(addr, len);
        &self.mem_page(page)[off..off + len]
    }

    /// Write access to `[addr, addr+len)`, which must lie in one page,
    /// after `begin_write` returned `Ready`: the page gets its frame.
    pub fn bytes_mut(&mut self, addr: usize, len: usize) -> &mut [u8] {
        let (page, off) = within_page(addr, len);
        &mut self.frame_mut(page)[off..off + len]
    }

    /// Hand `f` the bytes of `range` through [`JiaNode::bytes`], one
    /// piece per page in address order, as `(offset within the range,
    /// piece)`.
    pub fn read_pages(&self, range: &Range<usize>, mut f: impl FnMut(usize, &[u8])) {
        for (page, off, len) in split_range(range.start, range.len()) {
            let at = page_base(page) + off;
            f(at - range.start, self.bytes(at, len));
        }
    }

    /// The writing counterpart of [`JiaNode::read_pages`], through
    /// [`JiaNode::bytes_mut`].
    pub fn write_pages(&mut self, range: &Range<usize>, mut f: impl FnMut(usize, &mut [u8])) {
        for (page, off, len) in split_range(range.start, range.len()) {
            let at = page_base(page) + off;
            f(at - range.start, self.bytes_mut(at, len));
        }
    }

    /// One page of the mirror; a page without a frame reads as zeros.
    fn mem_page(&self, page: usize) -> &Frame {
        static ZERO_PAGE: Frame = [0; PAGE_BYTES];
        match self.frames.get(page) {
            Some(Some(frame)) => frame,
            _ => &ZERO_PAGE,
        }
    }

    /// The frame of `page`, zero-filled when the page has none yet.
    fn frame_mut(&mut self, page: usize) -> &mut Frame {
        assert!(
            page < self.page_count(),
            "page {page} is outside the shared space"
        );
        if self.frames.len() <= page {
            self.frames.resize_with(page + 1, || None);
        }
        self.frames[page].get_or_insert_with(|| Box::new([0; PAGE_BYTES]))
    }

    /// Install a page fetched from its home.
    pub fn install_page(&mut self, page: usize, data: &[u8], version: u64) {
        self.frame_mut(page).copy_from_slice(data);
        self.pages[page].state = PageState::Valid;
        self.pages[page].version = version;
    }

    /// Home-side page service (comm handler).
    ///
    /// Senders address by the *cluster-agreed* home; this node's own
    /// table may still lag behind it. Allocation and first-touch
    /// bookkeeping are replayed by each app thread at its own virtual
    /// time, so when this node straggles (e.g. blocked on a
    /// retransmission-delayed fetch), a request for a page it is the
    /// agreed home of can arrive before the local replay runs. The
    /// mirror is still authoritative: reclamation dropped the page's
    /// frame at least one network latency earlier (the freeing
    /// barrier's exit), which the conservative engine wall-orders
    /// before this service — and a page without a frame is served as
    /// the zero page it is.
    pub fn serve_page(&mut self, page: usize) -> (Bytes, u64) {
        (
            Bytes::copy_from_slice(self.mem_page(page)),
            self.pages[page].version,
        )
    }

    /// Home-side diff application (comm handler).
    ///
    /// Like [`JiaNode::serve_page`], the sender addressed the
    /// cluster-agreed home; the local table may not have replayed the
    /// allocation that made this node home yet. Applying the word diff
    /// touches only the mirror, which commutes with that lagging
    /// bookkeeping — the table converges at this node's next replay.
    ///
    /// The diff came off the wire, so it is held to the page first: a
    /// run past the page's end is an error, never a write into the next
    /// page.
    pub fn apply_remote_diff(&mut self, page: usize, diff: &WordDiff) -> Result<(), CorruptDiff> {
        diff.check_fits(PAGE_BYTES)?;
        diff.apply(self.frame_mut(page));
        self.charge(
            TimeCategory::Diffing,
            self.cpu.diffing(diff.changed_words() as u64 * 4),
        );
        Ok(())
    }

    /// Take the current dirty set, producing for each non-home page its
    /// diff (to flush to the home) and for each page its write notice.
    /// Twins are consumed; `written` flags reset.
    pub fn flush_dirty(&mut self) -> (Vec<(u32, WordDiff)>, Vec<u32>) {
        let dirty = std::mem::take(&mut self.dirty);
        let mut diffs = Vec::new();
        let mut notices = Vec::with_capacity(dirty.len());
        for page in dirty {
            let p = page as usize;
            notices.push(page);
            self.interval.insert(page);
            self.pages[p].written = false;
            if self.pages[p].home == self.me {
                continue; // home writes are already in place
            }
            let twin = self
                .twins
                .remove(&page)
                .expect("dirty non-home page has twin");
            self.pages[p].twin = false;
            let diff = WordDiff::compute(&twin, self.mem_page(p));
            self.charge(TimeCategory::Diffing, self.cpu.diffing(PAGE_BYTES as u64));
            if !diff.is_empty() {
                self.stats.count_diff(diff.wire_size() as u64);
                diffs.push((page, diff));
            }
        }
        (diffs, notices)
    }

    /// [`JiaNode::flush_dirty`] at a barrier: the diffs still to flush,
    /// and a write notice for every page written in the interval,
    /// including those a lock release already flushed.
    pub fn end_interval(&mut self) -> (Vec<(u32, WordDiff)>, Vec<u32>) {
        let (diffs, _) = self.flush_dirty();
        let notices = std::mem::take(&mut self.interval).into_iter().collect();
        (diffs, notices)
    }

    /// Invalidate cached copies of pages written by other nodes
    /// (applied at barrier exit / lock acquire).
    pub fn invalidate(&mut self, pages: &[u32], seq: u64) {
        for &page in pages {
            let p = page as usize;
            if self.pages[p].home == self.me {
                self.pages[p].version = seq;
            } else {
                self.pages[p].state = PageState::Invalid;
            }
        }
    }

    /// Record the barrier epoch on pages whose local copy stayed valid
    /// (this node was the sole writer).
    pub fn bump_versions(&mut self, pages: &[u32], seq: u64) {
        for &page in pages {
            self.pages[page as usize].version = seq;
        }
    }

    /// Number of pages in the shared space.
    pub fn page_count(&self) -> usize {
        self.pages.page_count()
    }

    pub fn page_home(&self, page: usize) -> NodeId {
        self.pages[page].home
    }

    pub fn shared_bytes(&self) -> usize {
        self.shared_bytes
    }
}

/// The page `[addr, addr+len)` lies in and the range's offset there;
/// panics if the range crosses a page bound.
fn within_page(addr: usize, len: usize) -> (usize, usize) {
    let (page, off) = (page_of(addr), addr % PAGE_BYTES);
    assert!(
        off + len <= PAGE_BYTES,
        "bytes {addr:#x}..{:#x} cross a page bound",
        addr + len
    );
    (page, off)
}

/// Pages play the role LOTS objects play: the journal's "object id" is
/// the page index, its content a whole 4 KB page.
impl lots_core::cluster::Journaled for JiaNode {
    type Written = crate::services::PageNotice;
    type Error = std::convert::Infallible;

    /// Pages of live (non-tombstoned) allocations.
    fn persist_live_meta(&self) -> Vec<lots_persist::ObjMeta> {
        let mut out = Vec::new();
        for (&addr, alloc) in &self.allocs {
            if alloc.tombstoned {
                continue;
            }
            let first = addr / PAGE_BYTES;
            for p in first..first + alloc.pages {
                out.push(lots_persist::ObjMeta {
                    id: p as u32,
                    home: self.pages[p].home as u32,
                    version: self.pages[p].version,
                    bytes: PAGE_BYTES as u64,
                    parent: None,
                });
            }
        }
        out
    }

    /// Names bind to their allocation's first page.
    fn persist_names(&self) -> Vec<lots_persist::NamedMeta> {
        self.names
            .entries()
            .map(|(name, entry)| lots_persist::NamedMeta {
                name: name.to_string(),
                id: (entry.at / PAGE_BYTES) as u32,
                elem_size: entry.elem_size as u32,
                len: entry.len as u64,
            })
            .collect()
    }

    /// The modelled shared space is flat and always resident (whether
    /// the host holds a frame for a page does not matter), so every
    /// live page is one mapped extent at its own byte address.
    fn persist_extents(&self) -> Vec<lots_persist::Extent> {
        self.persist_live_meta()
            .into_iter()
            .map(|m| lots_persist::Extent {
                id: m.id,
                addr: (m.id as u64) * PAGE_BYTES as u64,
                bytes: PAGE_BYTES as u64,
                mapped: true,
            })
            .collect()
    }

    /// Must run after the barrier's home resolution and reclamation.
    fn persist_written_content(
        &self,
        written: &[crate::services::PageNotice],
    ) -> Result<Vec<(u32, Vec<u8>)>, Self::Error> {
        Ok(written
            .iter()
            .filter(|n| {
                let p = n.page as usize;
                self.pages[p].home == self.me && !self.pages[p].freed
            })
            .map(|n| (n.page, self.mem_page(n.page as usize).to_vec()))
            .collect())
    }

    /// `None` unless [`JiaNode::enable_persist_disk`] was called: with
    /// persistence off JIAJIA models no disk at all.
    fn persist_disk(&mut self) -> Option<&mut DiskQueue> {
        self.diskq.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lots_sim::machine::pentium4_2ghz;

    fn node(me: NodeId, n: usize) -> JiaNode {
        JiaNode::new(
            me,
            n,
            64 * PAGE_BYTES,
            pentium4_2ghz(),
            SimClock::new(),
            NodeStats::new(),
        )
    }

    #[test]
    fn homes_round_robin() {
        let n = node(0, 4);
        assert_eq!(n.page_home(0), 0);
        assert_eq!(n.page_home(1), 1);
        assert_eq!(n.page_home(5), 1);
        assert_eq!(n.page_home(7), 3);
    }

    #[test]
    fn alloc_is_page_rounded_and_deterministic() {
        let mut a = node(0, 2);
        let mut b = node(1, 2);
        assert_eq!(a.jia_alloc(100).unwrap(), b.jia_alloc(100).unwrap());
        assert_eq!(a.jia_alloc(5000).unwrap(), 4096);
        assert_eq!(b.jia_alloc(5000).unwrap(), 4096);
        assert_eq!(a.jia_alloc(1).unwrap(), 4096 + 8192);
    }

    #[test]
    fn alloc_limit_enforced() {
        let mut a = node(0, 2);
        assert!(a.jia_alloc(63 * PAGE_BYTES).is_ok());
        assert!(matches!(
            a.jia_alloc(2 * PAGE_BYTES),
            Err(DsmError::OutOfSharedMemory { .. })
        ));
    }

    #[test]
    fn local_write_then_read() {
        let mut n = node(0, 2);
        let addr = n.jia_alloc(8192).unwrap();
        assert_eq!(n.begin_write(addr, 8), Ok(PageAccess::Ready));
        n.bytes_mut(addr, 8).copy_from_slice(&7u64.to_le_bytes());
        assert_eq!(n.begin_read(addr, 8), Ok(PageAccess::Ready));
        assert_eq!(
            u64::from_le_bytes(n.bytes_mut(addr, 8).try_into().unwrap()),
            7
        );
    }

    #[test]
    fn non_home_write_creates_twin_and_diff() {
        let mut n = node(1, 2); // page 0's home is node 0
        let addr = n.jia_alloc(4096).unwrap();
        assert_eq!(n.begin_write(addr, 4), Ok(PageAccess::Ready));
        n.bytes_mut(addr, 4).copy_from_slice(&5u32.to_le_bytes());
        let (diffs, notices) = n.flush_dirty();
        assert_eq!(notices, vec![0]);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].0, 0);
        let words: Vec<(u32, u32)> = diffs[0].1.iter_words().collect();
        assert_eq!(words, vec![(0, 5)]);
        assert!(n.stats.page_faults() >= 1, "write fault charged");
    }

    #[test]
    fn home_write_produces_notice_but_no_diff() {
        let mut n = node(0, 2);
        let addr = n.jia_alloc(4096).unwrap();
        n.begin_write(addr, 4).unwrap();
        n.bytes_mut(addr, 4).copy_from_slice(&5u32.to_le_bytes());
        let (diffs, notices) = n.flush_dirty();
        assert!(diffs.is_empty());
        assert_eq!(notices, vec![0]);
    }

    #[test]
    fn a_remote_diff_past_the_page_is_refused_not_written_next_door() {
        let mut n = node(0, 2);
        let addr = n.jia_alloc(2 * PAGE_BYTES).unwrap();
        // One run of two words starting at the page's last word.
        let mut wire = Vec::new();
        for v in [1u32, PAGE_BYTES as u32 / 4 - 1, 2, 7, 9] {
            wire.extend_from_slice(&v.to_le_bytes());
        }
        let reach = WordDiff::decode(&wire).expect("well-framed");
        assert!(n.apply_remote_diff(0, &reach).is_err());
        assert_eq!(n.bytes(addr + PAGE_BYTES - 4, 4), [0u8; 4]);
        assert_eq!(n.bytes(addr + PAGE_BYTES, 4), [0u8; 4]);
    }

    #[test]
    fn invalidation_forces_refetch() {
        let mut n = node(1, 2);
        let addr = n.jia_alloc(4096).unwrap();
        assert_eq!(
            n.begin_read(addr, 4),
            Ok(PageAccess::Ready),
            "initially valid zeros"
        );
        n.invalidate(&[0], 1);
        assert_eq!(
            n.begin_read(addr, 4),
            Ok(PageAccess::NeedFetch { page: 0, home: 0 })
        );
        n.install_page(0, &vec![9u8; PAGE_BYTES], 1);
        assert_eq!(n.begin_read(addr, 4), Ok(PageAccess::Ready));
        assert_eq!(n.bytes_mut(addr, 1)[0], 9);
    }

    #[test]
    fn home_invalidation_just_bumps_version() {
        let mut n = node(0, 2);
        n.invalidate(&[0], 3);
        assert_eq!(
            n.begin_read(0, 4),
            Ok(PageAccess::Ready),
            "home copy never invalid"
        );
    }

    #[test]
    fn free_tombstones_pages_then_reclaim_reuses_the_range() {
        let mut n = node(0, 2);
        let a = n.jia_alloc(2 * PAGE_BYTES).unwrap();
        let b = n.jia_alloc(PAGE_BYTES).unwrap();
        assert_eq!(n.begin_write(a, 8), Ok(PageAccess::Ready));
        n.bytes_mut(a, 4).copy_from_slice(&7u32.to_le_bytes());
        n.free_alloc(a, 2 * PAGE_BYTES).unwrap();
        // Double free and size mismatch are rejected.
        assert!(matches!(
            n.free_alloc(a, 2 * PAGE_BYTES),
            Err(DsmError::UseAfterFree { .. })
        ));
        assert!(matches!(n.free_alloc(b, 17), Err(DsmError::BadFree { .. })));
        // The freed write never flushes.
        let (diffs, notices) = n.flush_dirty();
        assert!(diffs.is_empty());
        assert!(notices.is_empty(), "freed pages publish nothing");
        let (frees, _) = n.take_lifecycle();
        assert_eq!(frees, vec![(0, 2)]);
        n.finish_lifecycle(&frees, &[], 1);
        assert_eq!(n.bytes(a, 4), &[0, 0, 0, 0], "reclaim zero-fills");
        assert_eq!(n.live_allocs(), 1);
        // Reuse: the next two-page allocation takes the freed range.
        let c = n.jia_alloc(2 * PAGE_BYTES).unwrap();
        assert_eq!(c, a, "lowest freed range is reused first");
    }

    #[test]
    fn tombstoned_page_access_is_fenced() {
        let mut n = node(0, 2);
        let a = n.jia_alloc(PAGE_BYTES).unwrap();
        n.free_alloc(a, PAGE_BYTES).unwrap();
        let fenced = Err(DsmError::UseAfterFree {
            alloc: (a + 4).into(),
        });
        assert_eq!(n.begin_read(a + 4, 4), fenced);
        assert_eq!(n.begin_write(a + 4, 4), fenced);
    }

    #[test]
    fn named_commit_lookup_and_free() {
        let mut n = node(0, 2);
        n.stage_named(NamedAllocReq {
            name: "grid".into(),
            bytes: 64,
            elem_size: 4,
            len: 16,
            placement: Placement::RoundRobin,
            placement_explicit: false,
        })
        .unwrap();
        assert!(matches!(
            n.lookup_named("grid", 4),
            Err(DsmError::NameNotFound { .. })
        ));
        let (frees, named) = n.take_lifecycle();
        n.finish_lifecycle(&frees, &named, 1);
        let (addr, len) = n.lookup_named("grid", 4).unwrap();
        assert_eq!(len, 16);
        assert!(matches!(
            n.lookup_named("grid", 8),
            Err(DsmError::NameTypeMismatch { .. })
        ));
        n.free_alloc(addr, 64).unwrap();
        let (frees, _) = n.take_lifecycle();
        n.finish_lifecycle(&frees, &[], 2);
        assert!(matches!(
            n.lookup_named("grid", 4),
            Err(DsmError::NameNotFound { .. })
        ));
    }

    #[test]
    fn placement_homes_pages() {
        let mut n = node(0, 4);
        let fixed = n
            .jia_alloc_placed(2 * PAGE_BYTES, Placement::Fixed(3))
            .unwrap();
        assert_eq!(n.page_home(fixed / PAGE_BYTES), 3);
        assert_eq!(n.page_home(fixed / PAGE_BYTES + 1), 3);
        let ft = n
            .jia_alloc_placed(PAGE_BYTES, Placement::FirstTouch)
            .unwrap();
        let p = ft / PAGE_BYTES;
        assert!(n.pages[p].pending);
        // A single-writer notice re-homes the pending page.
        n.resolve_pending_homes(&[crate::services::PageNotice {
            page: p as u32,
            writer: 2,
            multi: false,
        }]);
        assert_eq!(n.page_home(p), 2);
        assert!(!n.pages[p].pending);
    }

    #[test]
    fn writes_spanning_pages_dirty_both() {
        let mut n = node(0, 1);
        let addr = n.jia_alloc(2 * PAGE_BYTES).unwrap();
        n.begin_write(addr + PAGE_BYTES - 4, 8).unwrap();
        n.bytes_mut(addr + PAGE_BYTES - 4, 4).fill(1);
        n.bytes_mut(addr + PAGE_BYTES, 4).fill(1);
        let (_, notices) = n.flush_dirty();
        assert_eq!(notices, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "cross a page bound")]
    fn the_byte_accessors_stay_within_one_page() {
        let mut n = node(0, 1);
        let addr = n.jia_alloc(2 * PAGE_BYTES).unwrap();
        n.bytes_mut(addr + PAGE_BYTES - 4, 8);
    }

    /// Pages `n` holds a frame for.
    fn frames(n: &JiaNode) -> usize {
        n.frames.iter().flatten().count()
    }

    #[test]
    fn a_node_holds_a_frame_for_each_page_it_touched_and_no_other() {
        let space = 64 << 20;
        let mut n = JiaNode::new(
            1,
            2,
            space,
            pentium4_2ghz(),
            SimClock::new(),
            NodeStats::new(),
        );
        let a = n.jia_alloc(space).unwrap();
        let last = space / PAGE_BYTES - 1;
        // Reads of untouched pages see zeros and materialize nothing.
        for p in [0, 7, last] {
            let at = page_base(p);
            assert_eq!(n.begin_read(at, PAGE_BYTES), Ok(PageAccess::Ready));
            n.read_pages(&(at..at + PAGE_BYTES), |_, b| {
                assert!(b.iter().all(|&x| x == 0))
            });
        }
        assert_eq!(frames(&n), 0);
        // A home write, a non-home write (twinned), an install and a
        // diff each give their page one frame.
        for p in [1, 2] {
            assert_eq!(n.begin_write(page_base(p) + 8, 4), Ok(PageAccess::Ready));
            n.bytes_mut(page_base(p) + 8, 4).fill(3);
        }
        n.install_page(4000, &[5; PAGE_BYTES], 1);
        let mut word = [0u8; PAGE_BYTES];
        word[..4].copy_from_slice(&9u32.to_le_bytes());
        let diff = WordDiff::compute(&[0; PAGE_BYTES], &word);
        n.apply_remote_diff(last, &diff).unwrap();
        let touched = [1, 2, 4000, last];
        assert_eq!(frames(&n), touched.len());
        // Rereading them, or another untouched page, adds none.
        for p in touched.into_iter().chain([9]) {
            n.read_pages(&(page_base(p)..page_base(p + 1)), |_, _| {});
        }
        assert_eq!(frames(&n), touched.len());
        assert_eq!(n.bytes(page_base(2) + 8, 4), [3; 4]);
        assert_eq!(n.bytes(page_base(4000), 4), [5; 4]);
        assert_eq!(n.bytes(page_base(last), 4), 9u32.to_le_bytes());
        // Reclamation releases every frame; the pages read zero again.
        n.free_alloc(a, space).unwrap();
        let (frees, _) = n.take_lifecycle();
        n.finish_lifecycle(&frees, &[], 1);
        assert_eq!(frames(&n), 0);
        for p in touched {
            assert!(n.bytes(page_base(p), PAGE_BYTES).iter().all(|&x| x == 0));
        }
    }
}
