//! Application-facing JIAJIA API: the same [`DsmApi`]/[`DsmSlice`]
//! traits the LOTS system implements, and the same `Pointer<T>`
//! ([`JiaSlice`] is lots-core's one `Slice`), so the paper's workloads
//! run unchanged on both systems (§4.1).
//!
//! Accounting differences from LOTS are captured by the two impls:
//! JIAJIA runs no per-access software check (page protection hardware
//! does the work), so `charge_access_checks` is a no-op and, as the
//! slice's [`ViewHost`], it reaches a byte range through the page-fault
//! walk — faults charged only on actual misses — and records accesses
//! page by page. The flat address space is captured by the
//! `alloc_chunks` override: chunks of one allocation are consecutive
//! ranges of shared pages, so chunks that are not page-multiples share
//! pages — the false sharing §4.1 analyses in LU.

use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;
use lots_core::api::{Slice, ViewHost, ViewRegistry};
use lots_core::cluster::Seat;
use lots_core::pod::Pod;
use lots_core::{DsmApi, DsmError, DsmSlice, NamedAllocReq, Placement};
use lots_net::{NodeId, TrafficStats, WireSize};
use lots_sim::{NodeStats, SimInstant};
use parking_lot::MutexGuard;

use crate::node::{JiaNode, PageAccess};
use crate::runtime::Jiajia;
use crate::services::{JiaBarrier, JiaLocks};

/// Data-plane messages between JIAJIA nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JMsg {
    /// Fault-service request for one page.
    PageReq {
        /// Page number.
        page: u32,
    },
    /// Home's reply carrying the page bytes.
    PageReply {
        /// Page number.
        page: u32,
        /// Barrier epoch of the served copy.
        version: u64,
    },
    /// A flushed interval diff for a non-home page.
    DiffSend {
        /// Page number.
        page: u32,
    },
    /// Home's acknowledgement of an applied diff.
    DiffAck {
        /// Page number.
        page: u32,
    },
}

impl WireSize for JMsg {
    fn wire_size(&self) -> usize {
        match self {
            JMsg::PageReq { .. } => 2 + 4,
            JMsg::PageReply { .. } => 2 + 4 + 8,
            JMsg::DiffSend { .. } => 2 + 4,
            JMsg::DiffAck { .. } => 2 + 4,
        }
    }
}

/// One node's handle on the JIAJIA shared space.
pub struct JiaDsm {
    /// The driver's half of the handle: clock, node state, endpoint,
    /// fault plan, detector (race objects on this side are *pages*),
    /// journal (pages as objects), view-guard registry.
    pub(crate) seat: Seat<Jiajia>,
    pub(crate) barrier: Arc<JiaBarrier>,
    pub(crate) locks: Arc<JiaLocks>,
}

impl DsmApi for JiaDsm {
    type Error = DsmError;
    type Slice<'d, T: Pod> = JiaSlice<'d, T>;

    fn me(&self) -> NodeId {
        self.seat.ctx.me
    }

    fn n(&self) -> usize {
        self.seat.n
    }

    fn now(&self) -> SimInstant {
        self.seat.ctx.clock.now()
    }

    fn seed(&self) -> u64 {
        self.seat.seed
    }

    /// `jia_alloc`: allocate a shared array of `len` elements.
    fn try_alloc<T: Pod>(&self, len: usize) -> Result<JiaSlice<'_, T>, DsmError> {
        let placement = self.node().default_placement;
        self.try_alloc_placed(len, placement)
    }

    /// `jia_alloc` with an explicit page placement ([`Placement`]
    /// drives the per-page home assignment of §4.1).
    fn try_alloc_placed<T: Pod>(
        &self,
        len: usize,
        placement: Placement,
    ) -> Result<JiaSlice<'_, T>, DsmError> {
        if len == 0 {
            return Err(DsmError::EmptyAlloc);
        }
        let addr = self.node().jia_alloc_placed(len * T::SIZE, placement)?;
        Ok(Slice::new(self, SharedSpace, addr, len))
    }

    /// Page-granular free: tombstones the allocation's pages
    /// immediately and reclaims the range cluster-wide at the next
    /// barrier.
    fn try_free<T: Pod>(&self, slice: JiaSlice<'_, T>) -> Result<(), DsmError> {
        let bytes = slice.bytes();
        self.seat.views.assert_no_views_over(
            0,
            &bytes,
            "free",
            format_args!("shared bytes {:#x}..{:#x}", bytes.start, bytes.end),
        );
        self.node().free_alloc(bytes.start, bytes.len())
    }

    fn try_alloc_named<T: Pod>(&self, name: &str, len: usize) -> Result<(), DsmError> {
        let placement = self.node().default_placement;
        self.try_alloc_named_placed::<T>(name, len, placement)
    }

    fn try_alloc_named_placed<T: Pod>(
        &self,
        name: &str,
        len: usize,
        placement: Placement,
    ) -> Result<(), DsmError> {
        self.node().stage_named(NamedAllocReq {
            name: name.to_string(),
            bytes: len * T::SIZE,
            elem_size: T::SIZE,
            len,
            placement,
            // JIAJIA has no striping config to override; the flag only
            // matters to the LOTS segment-placement logic.
            placement_explicit: true,
        })
    }

    fn try_lookup<T: Pod>(&self, name: &str) -> Result<JiaSlice<'_, T>, DsmError> {
        let (addr, len) = self.node().lookup_named(name, T::SIZE)?;
        Ok(Slice::new(self, SharedSpace, addr, len))
    }

    /// One flat allocation carved into `chunks` consecutive ranges —
    /// real JIAJIA has no object granularity, so chunks share pages
    /// wherever `chunk_len` is not a page multiple.
    fn try_alloc_chunks<T: Pod>(
        &self,
        chunks: usize,
        chunk_len: usize,
    ) -> Result<Vec<JiaSlice<'_, T>>, DsmError> {
        let flat = self.try_alloc::<T>(chunks * chunk_len)?;
        Ok((0..chunks)
            .map(|c| flat.offset(c * chunk_len).prefix(chunk_len))
            .collect())
    }

    /// Global barrier: flush diffs to homes, exchange write notices,
    /// invalidate written pages.
    fn barrier(&self) {
        self.seat.views.assert_no_live_views("barrier");
        self.seat.enter_barrier();
        let (diffs, notices) = self.node().end_interval();
        self.flush_diffs(diffs);
        let (frees, named) = self.node().take_lifecycle();
        // Stamp the detector before the rendezvous: the node that
        // completes the barrier must see every earlier node's clock.
        if let Some(d) = &self.seat.analyze {
            d.on_barrier_enter(self.me());
        }
        let round = self.barrier.enter(&self.seat.ctx, notices, frees, named);
        let mut node = self.node();
        // First-touch placement resolves before invalidation, so the
        // new home keeps its (authoritative) copy.
        node.resolve_pending_homes(&round.written);
        // A page stays valid at its sole writer (it holds the newest
        // data); everyone else — including the writers of a falsely
        // shared page — must refetch from the home.
        let stale: Vec<u32> = round
            .written
            .iter()
            .filter(|n| n.multi || n.writer != self.me())
            .map(|n| n.page)
            .collect();
        node.invalidate(&stale, round.seq);
        // Version bookkeeping for pages this node kept.
        let kept: Vec<u32> = round
            .written
            .iter()
            .filter(|n| !n.multi && n.writer == self.me())
            .map(|n| n.page)
            .collect();
        node.bump_versions(&kept, round.seq);
        // Reclaim the cluster-agreed freed ranges and commit the named
        // allocations (deterministic order on every node).
        node.finish_lifecycle(&round.freed, &round.named, round.seq);
        drop(node);
        // Journal the completed interval (diffs of home-owned written
        // pages, lifecycle records, checkpoint manifest when due).
        self.seat
            .journal_barrier(&round.written, round.seq)
            .unwrap_or_else(|never| match never {});
        // Only after the full rendezvous: the exit clock joins every
        // node's enter stamp, starting a fresh interval.
        if let Some(d) = &self.seat.analyze {
            d.on_barrier_exit(self.me());
        }
    }

    /// Acquire a lock, invalidating pages its notices name.
    fn lock(&self, lock: u32) {
        self.seat.views.assert_no_live_views("lock");
        let invalidate = self.locks.acquire(lock, &self.seat.ctx);
        // Happens-before edge lands only once the grant is actually
        // held, so a racing acquirer can't observe it early.
        if let Some(d) = &self.seat.analyze {
            d.on_lock_acquire(self.me(), lock);
        }
        // Version bump is barrier-scoped; locks just invalidate.
        self.node().invalidate(&invalidate, 0);
    }

    /// Release a lock: flush this interval's diffs to homes and attach
    /// the write notices to the lock.
    fn unlock(&self, lock: u32) {
        self.seat.views.assert_no_live_views("unlock");
        let (diffs, notices) = self.node().flush_dirty();
        self.flush_diffs(diffs);
        // Publish the clock before the service hands the lock on —
        // the next acquirer must join everything done in this CS.
        if let Some(d) = &self.seat.analyze {
            d.on_lock_release(self.me(), lock);
        }
        self.locks.release(lock, &self.seat.ctx, notices);
    }

    fn charge_compute(&self, ops: u64) {
        self.seat.charge_compute(ops);
    }

    /// No-op: a page-based system runs no software access check —
    /// §4.1's "factor 2" overhead exists only on the object side.
    fn charge_access_checks(&self, _n: u64) {}

    fn stats(&self) -> &NodeStats {
        &self.seat.ctx.stats
    }

    fn traffic(&self) -> &TrafficStats {
        &self.seat.ctx.traffic
    }
}

impl JiaDsm {
    /// This node's state, locked (the comm handler shares it).
    fn node(&self) -> MutexGuard<'_, JiaNode> {
        self.seat.node.lock()
    }

    /// Eagerly flush this interval's diffs to their pages' homes and
    /// wait until every home has applied its share.
    fn flush_diffs(&self, diffs: Vec<(u32, lots_core::WordDiff)>) {
        let sends = diffs.into_iter().map(|(page, diff)| {
            let home = self.node().page_home(page as usize);
            debug_assert_ne!(home, self.me());
            (home, JMsg::DiffSend { page }, diff.encode())
        });
        self.seat
            .send_and_await_acks(sends, |msg| matches!(msg, JMsg::DiffAck { .. }));
    }

    /// Fault pages in until `bytes` is usable (for writing if `write`:
    /// the write walk also twins each page once), and return the node
    /// locked with every page of it ready — or the use-after-free
    /// fence's error if the range reaches a freed page.
    #[inline]
    fn fault_in(
        &self,
        bytes: &Range<usize>,
        write: bool,
    ) -> Result<MutexGuard<'_, JiaNode>, DsmError> {
        let (addr, len) = (bytes.start, bytes.len());
        loop {
            let mut node = self.node();
            let access = match write {
                true => node.begin_write(addr, len)?,
                false => node.begin_read(addr, len)?,
            };
            match access {
                PageAccess::Ready => return Ok(node),
                PageAccess::NeedFetch { page, home } => {
                    drop(node);
                    self.fetch_page(page, home);
                }
            }
        }
    }

    /// Fetch one page from its home (one fault service round trip).
    fn fetch_page(&self, page: usize, home: NodeId) {
        self.seat.net.send(
            home,
            JMsg::PageReq { page: page as u32 },
            Bytes::new(),
            self.seat.ctx.clock.now(),
        );
        let env = self.seat.await_reply();
        match env.msg {
            JMsg::PageReply { page, version } => {
                self.node()
                    .install_page(page as usize, &env.payload, version);
            }
            other => panic!("unexpected reply while fetching page: {other:?}"),
        }
    }
}

/// A JIAJIA handle: flat shared addresses (ordinary pointers in real
/// JIAJIA).
pub type JiaSlice<'d, T> = Slice<'d, JiaDsm, T>;

/// The unit a [`JiaSlice`] addresses: JIAJIA's one flat shared space.
#[derive(Debug, Clone, Copy)]
pub struct SharedSpace;

impl std::fmt::Display for SharedSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the shared space")
    }
}

impl ViewHost for JiaDsm {
    type Unit = SharedSpace;
    type Error = DsmError;

    fn views(&self) -> &ViewRegistry {
        &self.seat.views
    }

    fn key(_: SharedSpace) -> u32 {
        0
    }

    /// Race objects are pages here (the system's coherence unit): the
    /// flat range splits on page bounds, one record per page.
    #[inline]
    fn record(&self, _: SharedSpace, bytes: &Range<usize>, write: bool) {
        if let Some(d) = &self.seat.analyze {
            for (page, off, chunk) in crate::page::split_range(bytes.start, bytes.len()) {
                let (start, end) = (off as u64, (off + chunk) as u64);
                d.on_access(self.me(), page as u32, start, end, write);
            }
        }
    }

    /// One piece per page, in address order: the page-fault walk makes
    /// the whole range usable, and the node's mirror holds each page
    /// in a frame of its own. Allocations are page-aligned and every
    /// element size divides the page, so no element straddles two
    /// pieces. JIAJIA runs no software check, so `checks` is not
    /// charged.
    #[inline]
    fn read_span(
        &self,
        _: SharedSpace,
        bytes: Range<usize>,
        write: bool,
        _checks: u64,
        _elem: usize,
        f: impl FnMut(usize, &[u8]),
    ) -> Result<(), DsmError> {
        self.fault_in(&bytes, write)?.read_pages(&bytes, f);
        Ok(())
    }

    #[inline]
    fn write_span(
        &self,
        _: SharedSpace,
        bytes: Range<usize>,
        _checks: u64,
        _elem: usize,
        f: impl FnMut(usize, &mut [u8]),
    ) -> Result<(), DsmError> {
        self.fault_in(&bytes, true)?.write_pages(&bytes, f);
        Ok(())
    }
}
