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
use lots_net::{NodeId, TrafficStats};
use lots_sim::{NodeStats, SimInstant};
use parking_lot::MutexGuard;

use crate::node::JiaNode;
use crate::runtime::Jiajia;
use crate::services::{JiaBarrier, JiaLocks};

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
        self.try_alloc_placed(len, Placement::RoundRobin)
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
        self.try_alloc_named_placed::<T>(name, len, Placement::RoundRobin)
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
        self.seat.enter_barrier();
        let (diffs, notices) = self.node().end_interval();
        self.flush_diffs(diffs);
        let (frees, named) = self.node().take_lifecycle();
        let round = self.barrier.enter(&self.seat.ctx, notices, frees, named);
        self.node().exit_barrier(&round);
        self.seat
            .exit_barrier(&round.written, round.seq)
            .unwrap_or_else(|never| match never {});
    }

    /// Acquire a lock, invalidating pages its notices name.
    fn lock(&self, lock: u32) {
        let invalidate = self
            .seat
            .acquire_lock(lock, |ctx| self.locks.acquire(lock, ctx));
        // Version bump is barrier-scoped; locks just invalidate.
        self.node().invalidate(&invalidate, 0);
    }

    /// Release a lock: flush this interval's diffs to homes and attach
    /// the write notices to the lock.
    fn unlock(&self, lock: u32) {
        self.seat.release_lock(lock, |ctx| {
            let (diffs, notices) = self.node().flush_dirty();
            self.flush_diffs(diffs);
            self.locks.release(lock, ctx, notices);
        });
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
    /// wait until every home has applied its share. A page diff carries
    /// no timestamp.
    fn flush_diffs(&self, diffs: Vec<(u32, lots_core::WordDiff)>) {
        self.seat.send_diffs(diffs.into_iter().map(|(page, diff)| {
            let home = self.node().page_home(page as usize);
            (home, page, None, diff.encode())
        }));
    }
}

/// Install a page fetched from its home ([`Seat::ready`]'s `install`).
fn install_page(node: &mut JiaNode, page: u32, copy: Bytes, version: u64) -> Result<(), DsmError> {
    node.install_page(page as usize, copy, version);
    Ok(())
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
    /// the whole range usable, and each page's record holds its own
    /// bytes. Allocations are page-aligned and every
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
        let (addr, len) = (bytes.start, bytes.len());
        let begin = |node: &mut JiaNode| match write {
            true => node.begin_write(addr, len),
            false => node.begin_read(addr, len),
        };
        self.seat.ready(begin, install_page)?.read_pages(&bytes, f);
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
        let (addr, len) = (bytes.start, bytes.len());
        let begin = |node: &mut JiaNode| node.begin_write(addr, len);
        self.seat.ready(begin, install_page)?.write_pages(&bytes, f);
        Ok(())
    }
}
