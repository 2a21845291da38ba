//! The application-facing shared-memory API.
//!
//! This module defines the **one** interface every workload in this
//! repository programs against, and the one handle both systems hand
//! out:
//!
//! * [`DsmApi`] — one node's handle on a shared object space (alloc,
//!   lock/unlock, barrier, cost accounting, stats). Implemented by
//!   [`Dsm`] here (covering both LOTS and the LOTS-x ablation) and by
//!   `lots_jiajia::JiaDsm`, so applications are written once and run
//!   on every system, exactly as the paper ports each app to both
//!   DSMs (§4.1).
//! * [`DsmSlice`] — the paper's `Pointer<T>` (§3.2/§3.3): a small
//!   copyable handle supporting pointer arithmetic whose accessors run
//!   the status-checking routine that C++ LOTS hides behind operator
//!   overloading.
//! * [`Slice`] — the one `DsmSlice` implementation, with one read guard
//!   ([`View`]) and one mutable guard ([`ViewMut`]). It owns everything
//!   a handle does: bounds checks, pointer arithmetic, the seven access
//!   methods, check counts, the conflict checks of the guard registry
//!   ([`ViewRegistry`]), guard buffering and write-back.
//! * [`ViewHost`] — what a system implements for it: a `Copy` unit
//!   handle the byte offsets are relative to (a LOTS object; JIAJIA's
//!   one flat space), how an access is recorded for race analysis, an
//!   optional pin for a guard's lifetime, and a read/write span
//!   primitive that runs the access check and hands out a byte range
//!   as pieces (one per covered segment on LOTS, one for JIAJIA's
//!   page-fault walk). [`SharedSlice`] and `lots_jiajia::JiaSlice` are
//!   `Slice` over the two hosts.
//!
//! # Check accounting (§4.2)
//!
//! The paper measures 20–25 ns per software access check and shows SOR
//! spending more than half its time in checks because **every** `a[i]`
//! is a checked access. The accounting rules here mirror that:
//!
//! * **Element ops** ([`DsmSlice::read`], [`DsmSlice::write`],
//!   [`DsmSlice::read_into`], [`DsmSlice::write_from`], …) charge one
//!   access check *per element touched* ([`DsmSlice::update`] charges
//!   two, like `a[i] += x`). They model the paper's original
//!   per-access-check API.
//! * **View guards** charge one access check *per guard*, however many
//!   elements the view spans: the check and miss handling run once at
//!   guard creation, the object stays pinned (§3.3's statement
//!   pinning, subsuming [`Dsm::statement`]) for the guard's lifetime,
//!   and the inner loop runs over a plain `&[T]`/`&mut [T]` with no
//!   further checks. The write-back on drop charges none. This is the
//!   API change that collapses the §4.2 overhead on hot loops.
//! * A guard over an **empty range** touches no object and charges no
//!   checks (LOTS still opens its statement pin).
//!
//! Guards buffer their range once at creation (the real system hands
//! out a direct pointer; the simulated cost model is identical), in a
//! buffer taken from their cluster run's one guard-buffer pool and
//! given back on drop, so two rules are enforced with panics, by the
//! one [`ViewRegistry`] every implementation's handle carries:
//!
//! 1. Guards must be dropped before the next synchronization operation
//!    ([`DsmApi::barrier`], [`DsmApi::lock`], [`DsmApi::unlock`]) —
//!    sync redefines what the memory contains.
//! 2. While a guard is live, other accesses to the same data may not
//!    overlap it: a write may not overlap any live view, and any
//!    access may not overlap a live mutable view (the buffered
//!    snapshot would go stale, or clobber the access on write-back).
//!    Disjoint ranges — e.g. a read view and a mutable view of
//!    different rows, or of different halves of one object — interleave
//!    freely.

use std::ops::{Deref, DerefMut, Range};

use lots_net::{NodeId, TrafficStats};
use lots_sim::{NodeStats, SimInstant};

use crate::config::Placement;
use crate::consistency::locks::LockId;
use crate::pod::Pod;

mod dsm;
mod slice;

pub use dsm::{Dsm, ObjUnit, SharedSlice, StmtGuard};
pub(crate) use slice::GuardPool;
pub use slice::{Slice, View, ViewHost, ViewMut, ViewRegistry};

// ----------------------------------------------------------------------
// The shared-memory traits
// ----------------------------------------------------------------------

/// One node's handle on a shared memory space: the single API every
/// workload is written against (see the module docs).
///
/// Implementations: [`Dsm`] (LOTS and LOTS-x) and `lots_jiajia::JiaDsm`.
pub trait DsmApi {
    /// Errors surfaced by the fallible (`try_*`) surface.
    type Error: std::error::Error + Send + Sync + 'static;

    /// The `Pointer<T>` handle type this system hands out.
    type Slice<'d, T: Pod>: DsmSlice<Elem = T, Error = Self::Error>
    where
        Self: 'd;

    /// This node's rank.
    fn me(&self) -> NodeId;

    /// Cluster size.
    fn n(&self) -> usize;

    /// Current virtual time on this node.
    fn now(&self) -> SimInstant;

    /// The cluster seed (`ClusterOptions::seed` / `JiaOptions::seed`,
    /// default 0). Seeded workloads fold it into their RNG streams so
    /// a run's data set is reproducible end to end from one `u64`.
    fn seed(&self) -> u64;

    /// Allocate a shared array of `len` elements (the paper's
    /// `Pointer<T> p; p.alloc(len)`) under [`Placement::RoundRobin`].
    /// Collective in the SPMD sense: every node must perform the same
    /// allocations in the same order, which is what makes the handles
    /// agree cluster-wide (named allocations lift this restriction —
    /// see [`DsmApi::try_alloc_named`]).
    fn try_alloc<T: Pod>(&self, len: usize) -> Result<Self::Slice<'_, T>, Self::Error>;

    /// Panicking [`DsmApi::try_alloc`].
    fn alloc<T: Pod>(&self, len: usize) -> Self::Slice<'_, T> {
        self.try_alloc(len)
            .unwrap_or_else(|e| panic!("alloc of {len} elements: {e}"))
    }

    /// [`DsmApi::try_alloc`] with an explicit initial-home
    /// [`Placement`] (collective like `try_alloc`; every node must
    /// pass the same placement).
    fn try_alloc_placed<T: Pod>(
        &self,
        len: usize,
        placement: Placement,
    ) -> Result<Self::Slice<'_, T>, Self::Error>;

    /// Panicking [`DsmApi::try_alloc_placed`].
    fn alloc_placed<T: Pod>(&self, len: usize, placement: Placement) -> Self::Slice<'_, T> {
        self.try_alloc_placed(len, placement)
            .unwrap_or_else(|e| panic!("alloc of {len} elements ({placement:?}): {e}"))
    }

    /// Free a shared object. The handle must cover the whole original
    /// allocation (no `offset`/`prefix` sub-slices). The object is
    /// tombstoned immediately — any further access through any handle
    /// panics like the view-guard fences — and its DMM/twin/control
    /// space, swap image and directory entries are reclaimed
    /// **cluster-wide at the next barrier**, riding the barrier's
    /// diff-propagation round; the freed id is then reused by later
    /// allocations. Unlike `alloc`, `free` is *not* collective: any
    /// one node's free reclaims the object everywhere.
    ///
    /// # Fence durability
    ///
    /// Handles are `Copy`, so stale copies can outlive the free — as
    /// dangling pointers do in the real systems — and the fence is
    /// best-effort beyond the tombstone window:
    ///
    /// * **LOTS** keeps the freeing node's fence through reclamation
    ///   (the slot stays `Free`) and drops it only when a later
    ///   allocation *reuses* the slot — from then on a stale handle
    ///   aliases the new object, exactly like a dangling `Pointer<T>`
    ///   in the C++ runtime.
    /// * **JIAJIA** fences tombstoned pages only until the reclaiming
    ///   barrier re-zeroes them: pages, like raw memory, carry no
    ///   identity afterwards, so a stale handle silently reads the
    ///   fresh zero fill (or a later allocation's data). Page-based
    ///   systems cannot do better — one of the object-vs-page contrasts
    ///   the paper draws.
    fn try_free<T: Pod>(&self, slice: Self::Slice<'_, T>) -> Result<(), Self::Error>;

    /// Panicking [`DsmApi::try_free`].
    fn free<T: Pod>(&self, slice: Self::Slice<'_, T>) {
        self.try_free(slice)
            .unwrap_or_else(|e| panic!("free failed: {e}"))
    }

    /// Stage a named allocation of `len` elements under
    /// [`Placement::RoundRobin`]. Named allocations are *not*
    /// collective: any subset of nodes (typically one) stages them,
    /// and they materialize cluster-wide at the next barrier, after
    /// which **every** node — the allocator included — attaches via
    /// [`DsmApi::try_lookup`]. Staging the same name twice (locally or
    /// from two nodes in one interval) is an error/panic.
    fn try_alloc_named<T: Pod>(&self, name: &str, len: usize) -> Result<(), Self::Error>;

    /// Panicking [`DsmApi::try_alloc_named`].
    fn alloc_named<T: Pod>(&self, name: &str, len: usize) {
        self.try_alloc_named::<T>(name, len)
            .unwrap_or_else(|e| panic!("alloc_named({name:?}, {len}): {e}"))
    }

    /// [`DsmApi::try_alloc_named`] with an explicit [`Placement`].
    fn try_alloc_named_placed<T: Pod>(
        &self,
        name: &str,
        len: usize,
        placement: Placement,
    ) -> Result<(), Self::Error>;

    /// Panicking [`DsmApi::try_alloc_named_placed`].
    fn alloc_named_placed<T: Pod>(&self, name: &str, len: usize, placement: Placement) {
        self.try_alloc_named_placed::<T>(name, len, placement)
            .unwrap_or_else(|e| panic!("alloc_named({name:?}, {len}, {placement:?}): {e}"))
    }

    /// Resolve a committed name into a handle. The element type must
    /// match the staging `alloc_named::<T>` call (checked through the
    /// element size recorded in the replicated directory). Names
    /// staged this interval are not yet visible — they commit at the
    /// next barrier.
    fn try_lookup<T: Pod>(&self, name: &str) -> Result<Self::Slice<'_, T>, Self::Error>;

    /// Panicking [`DsmApi::try_lookup`].
    fn lookup<T: Pod>(&self, name: &str) -> Self::Slice<'_, T> {
        self.try_lookup(name)
            .unwrap_or_else(|e| panic!("lookup({name:?}): {e}"))
    }

    /// Fallible [`DsmApi::alloc_chunks`]: `chunks == 0` or
    /// `chunk_len == 0` is rejected with the same error as
    /// `try_alloc(0)` (`EmptyAlloc`), on every system.
    fn try_alloc_chunks<T: Pod>(
        &self,
        chunks: usize,
        chunk_len: usize,
    ) -> Result<Vec<Self::Slice<'_, T>>, Self::Error> {
        if chunks == 0 || chunk_len == 0 {
            // Reject exactly like a zero-length alloc, whatever this
            // system's error type calls it.
            self.try_alloc::<T>(0)?;
            unreachable!("try_alloc(0) must return the empty-alloc error");
        }
        (0..chunks).map(|_| self.try_alloc(chunk_len)).collect()
    }

    /// Allocate `chunks` arrays of `chunk_len` elements each in this
    /// system's natural data layout. The default allocates one object
    /// per chunk — §3.2: "LOTS treats each pointer or row as a separate
    /// object". Page-based systems override this with one flat
    /// allocation whose chunks share pages (the false sharing §4.1
    /// analyses in LU).
    fn alloc_chunks<T: Pod>(&self, chunks: usize, chunk_len: usize) -> Vec<Self::Slice<'_, T>> {
        self.try_alloc_chunks(chunks, chunk_len)
            .unwrap_or_else(|e| panic!("alloc of {chunks} chunks × {chunk_len} elements: {e}"))
    }

    /// Global memory barrier: publish this interval's writes and make
    /// every other node's writes visible (§3.4).
    fn barrier(&self);

    /// Acquire a cluster-wide lock, applying the updates that Scope
    /// Consistency makes visible at this acquire (§3.4).
    fn lock(&self, lock: LockId);

    /// Release a cluster-wide lock, publishing the critical section's
    /// updates.
    fn unlock(&self, lock: LockId);

    /// Run `f` inside the critical section guarded by `lock`.
    fn with_lock<R>(&self, lock: LockId, f: impl FnOnce() -> R) -> R {
        self.lock(lock);
        let r = f();
        self.unlock(lock);
        r
    }

    /// Charge `ops` element operations of application compute to this
    /// node's virtual clock (the workload cost model).
    fn charge_compute(&self, ops: u64);

    /// Charge `n` additional access checks without touching data — the
    /// workload cost-model hook for per-element re-accesses the
    /// object-based system would check (§4.2). A no-op on systems with
    /// no software check (JIAJIA).
    fn charge_access_checks(&self, n: u64);

    /// Node statistics (time breakdown, access-check counts, swaps).
    fn stats(&self) -> &NodeStats;

    /// Network traffic counters of this node.
    fn traffic(&self) -> &TrafficStats;
}

/// A typed handle on a shared array — the paper's `Pointer<T>`.
///
/// Copyable like a raw pointer; supports the paper's pointer
/// arithmetic (§3.3: LOTS "supports a limited set of pointer
/// operations … such as `*(a+4)=1`") via [`DsmSlice::offset`] and
/// [`DsmSlice::prefix`]. All data access goes through the element ops
/// or the view guards; see the module docs for the check-accounting
/// contract of each.
pub trait DsmSlice: Copy + std::fmt::Debug {
    /// Element type stored in the shared array.
    type Elem: Pod;

    /// Error type of the fallible surface (matches the owning
    /// [`DsmApi::Error`]).
    type Error: std::error::Error + Send + Sync + 'static;

    /// Read-only view guard: derefs to `&[Self::Elem]`.
    type View<'g>: Deref<Target = [Self::Elem]>
    where
        Self: 'g;

    /// Mutable view guard: derefs to `&mut [Self::Elem]`, written back
    /// to the shared object when dropped.
    type ViewMut<'g>: DerefMut<Target = [Self::Elem]>
    where
        Self: 'g;

    /// Elements addressable through this handle.
    fn len(&self) -> usize;

    /// Pointer arithmetic: a handle shifted forward by `delta`
    /// elements. `offset(len)` is allowed and yields an explicitly
    /// **empty tail handle**: `is_empty()` is true, empty views and
    /// bulk ops over zero elements succeed, and element accessors
    /// panic with a message naming the empty handle.
    fn offset(&self, delta: usize) -> Self;

    /// Pointer arithmetic: a handle restricted to the first `len`
    /// elements.
    fn prefix(&self, len: usize) -> Self;

    /// Accounting primitive behind every read: a read view over
    /// `range` charging `checks` access checks. Applications normally
    /// call [`DsmSlice::view`] (one check per guard); the element-wise
    /// compat ops call this with per-element check counts.
    fn try_view_checked(
        &self,
        range: Range<usize>,
        checks: u64,
    ) -> Result<Self::View<'_>, Self::Error>;

    /// Accounting primitive behind every write: the mutable
    /// counterpart of [`DsmSlice::try_view_checked`].
    fn try_view_mut_checked(
        &self,
        range: Range<usize>,
        checks: u64,
    ) -> Result<Self::ViewMut<'_>, Self::Error>;

    /// True iff the handle addresses zero elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Open a bulk read scope over `range`: one access check, one miss
    /// resolution, then check-free `&[T]` access for the guard's
    /// lifetime. The guard decodes the range once at creation into its
    /// own buffer, straight from the shared memory (for a striped LOTS
    /// object, from each covered segment in turn) — the real system
    /// would hand out a direct pointer; the simulated cost model is
    /// identical, no per-element checks.
    fn view(&self, range: Range<usize>) -> Self::View<'_> {
        self.try_view(range.clone())
            .unwrap_or_else(|e| panic!("view {range:?} of {self:?}: {e}"))
    }

    /// Fallible [`DsmSlice::view`].
    fn try_view(&self, range: Range<usize>) -> Result<Self::View<'_>, Self::Error> {
        let checks = !range.is_empty() as u64;
        self.try_view_checked(range, checks)
    }

    /// Open a bulk write scope over `range`: one access check at
    /// creation, check-free `&mut [T]` access for the guard's
    /// lifetime, write-back on drop. The guard decodes the range once
    /// at creation into its own buffer and encodes it back in place on
    /// drop, with no staging copy in between; overlapping accesses to
    /// the same data while the guard is live are rejected with a panic
    /// (the snapshot would go stale or clobber them on write-back).
    fn view_mut(&self, range: Range<usize>) -> Self::ViewMut<'_> {
        self.try_view_mut(range.clone())
            .unwrap_or_else(|e| panic!("view_mut {range:?} of {self:?}: {e}"))
    }

    /// Fallible [`DsmSlice::view_mut`].
    fn try_view_mut(&self, range: Range<usize>) -> Result<Self::ViewMut<'_>, Self::Error> {
        let checks = !range.is_empty() as u64;
        self.try_view_mut_checked(range, checks)
    }

    /// Read element `i` (one access check).
    fn read(&self, i: usize) -> Self::Elem {
        self.try_read(i)
            .unwrap_or_else(|e| panic!("read {self:?}[{i}]: {e}"))
    }

    /// Fallible [`DsmSlice::read`].
    fn try_read(&self, i: usize) -> Result<Self::Elem, Self::Error>;

    /// Write element `i` (one access check).
    fn write(&self, i: usize, v: Self::Elem) {
        self.try_write(i, v)
            .unwrap_or_else(|e| panic!("write {self:?}[{i}]: {e}"))
    }

    /// Fallible [`DsmSlice::write`].
    fn try_write(&self, i: usize, v: Self::Elem) -> Result<(), Self::Error>;

    /// Read-modify-write element `i` (two access checks, like
    /// `a[i] += x`).
    fn update(&self, i: usize, f: impl FnOnce(Self::Elem) -> Self::Elem) {
        self.try_update(i, f)
            .unwrap_or_else(|e| panic!("update {self:?}[{i}]: {e}"))
    }

    /// Fallible [`DsmSlice::update`].
    fn try_update(
        &self,
        i: usize,
        f: impl FnOnce(Self::Elem) -> Self::Elem,
    ) -> Result<(), Self::Error>;

    /// Bulk read of `out.len()` elements starting at `start`; charged
    /// as one access check per element, like the element loop it
    /// replaces (§4.2's accounting).
    fn read_into(&self, start: usize, out: &mut [Self::Elem]) {
        self.try_read_into(start, out)
            .unwrap_or_else(|e| panic!("bulk read of {self:?}: {e}"))
    }

    /// Fallible [`DsmSlice::read_into`].
    fn try_read_into(&self, start: usize, out: &mut [Self::Elem]) -> Result<(), Self::Error>;

    /// Bulk read returning a fresh vector (one check per element).
    fn read_vec(&self, start: usize, len: usize) -> Vec<Self::Elem> {
        let mut out = vec![Self::Elem::default(); len];
        self.read_into(start, &mut out);
        out
    }

    /// Bulk write of `vals` starting at `start` (one check per
    /// element).
    fn write_from(&self, start: usize, vals: &[Self::Elem]) {
        self.try_write_from(start, vals)
            .unwrap_or_else(|e| panic!("bulk write of {self:?}: {e}"))
    }

    /// Fallible [`DsmSlice::write_from`].
    fn try_write_from(&self, start: usize, vals: &[Self::Elem]) -> Result<(), Self::Error>;

    /// Fill the whole slice with `v` (one check per element, one
    /// write-only pass).
    fn fill(&self, v: Self::Elem) {
        self.write_from(0, &vec![v; self.len()]);
    }
}
