//! The LOTS implementation of the API (§3.2/§3.3): [`Dsm`] runs the
//! barrier and lock protocols of §3.4 over the node state and resolves
//! misses through the data plane; [`SharedSlice`] is the `Pointer<T>`
//! whose every access passes the §4.2 status check; the view guards pin
//! what they cover for their lifetime.

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut, Range};
use std::sync::Arc;

use bytes::Bytes;
use lots_net::{NodeId, TrafficStats};
use lots_sim::{NodeStats, SimInstant, TimeCategory};
use parking_lot::MutexGuard;

use super::{element_bounds, range_bounds, DsmApi, DsmSlice, ViewHost, ViewPin, ViewRegistry};
use crate::cluster::Seat;
use crate::config::Placement;
use crate::consistency::barrier::BarrierService;
use crate::consistency::locks::{LockId, LockService};
use crate::node::{LotsError, NodeState, RangeAccess};
use crate::object::{NamedAllocReq, ObjectId};
use crate::pod::Pod;
use crate::protocol::messages::Msg;
use crate::runtime::Lots;

/// One node's handle on the LOTS shared object space (the paper's
/// runtime library instance).
///
/// Not `Sync`: each simulated process has exactly one application
/// thread driving its `Dsm` (SPMD style, as in the paper). The shared
/// API lives on the [`DsmApi`] and [`DsmSlice`] traits; LOTS-specific
/// extras (statement scopes, swap introspection) are inherent methods.
pub struct Dsm {
    /// The driver's half of the handle: clock, node state, endpoint,
    /// fault plan, detector, journal, view-guard registry.
    pub(crate) seat: Seat<Lots>,
    pub(crate) locks: Arc<LockService>,
    pub(crate) barrier: Arc<BarrierService>,
}

impl DsmApi for Dsm {
    type Error = LotsError;
    type Slice<'d, T: Pod> = SharedSlice<'d, T>;

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

    fn try_alloc<T: Pod>(&self, len: usize) -> Result<SharedSlice<'_, T>, LotsError> {
        if len == 0 {
            return Err(LotsError::EmptyAlloc);
        }
        let id = self.node().register_object(len * T::SIZE)?;
        Ok(self.whole(id, len))
    }

    fn try_alloc_placed<T: Pod>(
        &self,
        len: usize,
        placement: Placement,
    ) -> Result<SharedSlice<'_, T>, LotsError> {
        if len == 0 {
            return Err(LotsError::EmptyAlloc);
        }
        let id = self
            .node()
            .register_object_placed(len * T::SIZE, placement)?;
        Ok(self.whole(id, len))
    }

    fn try_free<T: Pod>(&self, slice: SharedSlice<'_, T>) -> Result<(), LotsError> {
        // Same fence as the sync operations: a buffered guard over a
        // dying object would write back into a reclaimed slot.
        self.seat
            .views
            .assert_no_views_over(slice.id.0, &(0..usize::MAX), "free", slice.id);
        if slice.base != 0 {
            return Err(LotsError::BadFree {
                obj: slice.id,
                reason: format!(
                    "handle is offset {} elements into the object — free \
                     needs the original allocation handle",
                    slice.base
                ),
            });
        }
        self.node().free_object(slice.id, slice.len * T::SIZE)
    }

    fn try_alloc_named<T: Pod>(&self, name: &str, len: usize) -> Result<(), LotsError> {
        let placement = self.node().cfg.alloc.placement;
        self.stage_named_req::<T>(name, len, placement, false)
    }

    fn try_alloc_named_placed<T: Pod>(
        &self,
        name: &str,
        len: usize,
        placement: Placement,
    ) -> Result<(), LotsError> {
        self.stage_named_req::<T>(name, len, placement, true)
    }

    fn try_lookup<T: Pod>(&self, name: &str) -> Result<SharedSlice<'_, T>, LotsError> {
        let (id, len) = self.node().lookup_named(name, T::SIZE)?;
        Ok(self.whole(id, len))
    }

    fn barrier(&self) {
        self.try_barrier()
            .unwrap_or_else(|e| panic!("barrier failed: {e}"))
    }

    fn lock(&self, lock: LockId) {
        self.seat.views.assert_no_live_views("lock");
        let grant = self.locks.acquire(lock, &self.seat.ctx);
        // Happens-before edge lands only once the grant is actually
        // held, so a racing acquirer can't observe it early.
        if let Some(d) = &self.seat.analyze {
            d.on_lock_acquire(self.me(), lock);
        }
        let mut node = self.node();
        node.apply_lock_updates(&grant.updates);
        for &(obj, holder) in &grant.invalidate {
            node.wi_invalidate(obj, holder)
                .unwrap_or_else(|e| panic!("lock {lock}: invalidate {obj}: {e}"));
        }
        node.enter_cs(lock);
    }

    fn unlock(&self, lock: LockId) {
        self.seat.views.assert_no_live_views("unlock");
        // Publish the clock before the service hands the lock on —
        // the next acquirer must join everything done in this CS.
        if let Some(d) = &self.seat.analyze {
            d.on_lock_release(self.me(), lock);
        }
        self.locks
            .release(lock, &self.seat.ctx, |ts| self.node().exit_cs(lock, ts));
    }

    fn charge_compute(&self, ops: u64) {
        self.seat.charge_compute(ops);
    }

    fn charge_access_checks(&self, n: u64) {
        self.node().charge_checks(n);
    }

    fn stats(&self) -> &NodeStats {
        &self.seat.ctx.stats
    }

    fn traffic(&self) -> &TrafficStats {
        &self.seat.ctx.traffic
    }
}

impl Dsm {
    /// This node's state, locked (the comm handler shares it).
    fn node(&self) -> MutexGuard<'_, NodeState> {
        self.seat.node.lock()
    }

    /// A handle on all `len` elements of object `id`.
    fn whole<T: Pod>(&self, id: ObjectId, len: usize) -> SharedSlice<'_, T> {
        SharedSlice {
            dsm: self,
            id,
            base: 0,
            len,
            striped: self.node().stripe_of(id).is_some(),
            _pd: PhantomData,
        }
    }

    /// Group several accesses into one pinning scope — the equivalent
    /// of the multi-operand statement `a[5] = b[5] + c[5]` of §3.3:
    /// every object touched inside stays mapped until the scope ends.
    /// View guards open the same kind of scope implicitly.
    pub fn statement(&self) -> StmtGuard<'_> {
        self.node().enter_stmt();
        StmtGuard { dsm: self }
    }

    /// Fallible [`DsmApi::barrier`].
    pub fn try_barrier(&self) -> Result<(), LotsError> {
        self.seat.views.assert_no_live_views("barrier");
        let entered = self.seat.enter_barrier();
        // Stamp the detector before the rendezvous: the node that
        // completes the barrier must see every earlier node's clock.
        if let Some(d) = &self.seat.analyze {
            d.on_barrier_enter(self.me());
        }
        // Phase A: collect notices plus the interval's staged frees
        // and named allocations, and receive the plan.
        let (notices, frees, named) = {
            let mut node = self.node();
            let notices = node.barrier_collect()?;
            let (frees, named) = node.take_lifecycle();
            (notices, frees, named)
        };
        let plan = self.barrier.enter(&self.seat.ctx, notices, frees, named);
        // Phase B: propagate diffs of multi-writer objects to homes.
        self.node().barrier_prepare(&plan.send_diffs, self.me())?;
        let sends = plan.my_sends(self.me()).map(|(obj, home)| {
            let node = self.node();
            let ts = node.write_ts_of(obj);
            (
                home,
                Msg::DiffSend { obj, ts },
                node.cached_diff(obj).encode(),
            )
        });
        self.seat
            .send_and_await_acks(sends, |msg| matches!(msg, Msg::DiffAck { .. }));
        // Phase C: drain (if there were diffs), then apply
        // migrations/invalidations, reclaim the freed set, and commit
        // named allocations.
        self.barrier.drain(&self.seat.ctx, &plan);
        let seq = plan.seq;
        self.node()
            .barrier_finish(&plan.written, &plan.freed, &plan.named, seq)?;
        // Persistence: journal the interval just published (before the
        // crash-fault check below — the paper's crash model dies right
        // *after* a completed barrier, so that barrier's records are on
        // the log the rejoin reads back).
        self.seat.journal_barrier(&plan.written, seq)?;
        // Only after the full rendezvous: the exit clock joins every
        // node's enter stamp, starting a fresh interval.
        if let Some(d) = &self.seat.analyze {
            d.on_barrier_exit(self.me());
        }
        if self
            .seat
            .crash_fault
            .as_ref()
            .is_some_and(|c| c.at_barrier == entered)
        {
            self.crash_rejoin_now()?;
        }
        Ok(())
    }

    /// Fault injection: the node dies right after completing the chosen
    /// barrier and comes back through the rejoin protocol. State moves
    /// per [`NodeState::crash_rejoin`]; this wrapper charges the reboot
    /// outage and the analytic directory/image rebuild transfer (the
    /// same modeling style as the lock/barrier control plane) and
    /// surfaces the rejoin counters.
    fn crash_rejoin_now(&self) -> Result<(), LotsError> {
        let fault = self.seat.crash_fault.as_ref().expect("checked by caller");
        let summary = self.node().crash_rejoin()?;
        // The outage: the node is simply gone while it reboots.
        self.seat.ctx.clock.advance(fault.reboot);
        self.seat
            .ctx
            .stats
            .charge(TimeCategory::SyncWait, fault.reboot);
        // With the journal on, the node rebuilds its home-owned
        // masters from its own checkpointed log — a local blocking
        // disk read — and peers only re-send the directory/name table
        // plus the deltas appended after the checkpoint. Without it,
        // peers re-send the full master images (the PR-era protocol).
        let peer_bytes = match &self.seat.journal {
            Some(journal) => {
                let (log_bytes, since) = {
                    let j = journal.lock();
                    (j.log_bytes_at_checkpoint(), j.log_bytes_since_checkpoint())
                };
                if log_bytes > 0 {
                    self.node().persist_read_blocking(log_bytes);
                    self.seat.ctx.stats.count_rejoin_log_bytes(log_bytes);
                }
                summary.directory_bytes + since
            }
            None => summary.directory_bytes + summary.master_bytes,
        };
        let d = self.seat.ctx.net.request_reply(64, peer_bytes as usize);
        self.seat.ctx.clock.advance(d);
        self.seat.ctx.stats.charge(TimeCategory::Network, d);
        self.seat.ctx.traffic.record_send(64, 1);
        self.seat.ctx.traffic.record_recv(peer_bytes as usize);
        self.seat.ctx.stats.count_rejoin(peer_bytes);
        Ok(())
    }

    /// Event-only barrier (`run_barrier()`, §3.6): no memory effects.
    ///
    /// Deliberately invisible to the race detector: the paper defines
    /// it as a pure rendezvous with no memory semantics, so it orders
    /// *events*, not accesses — treating it as a happens-before edge
    /// would hide real ScC races.
    pub fn run_barrier(&self) {
        self.barrier.run_barrier(&self.seat.ctx);
    }

    /// Bytes of shared objects registered (cluster-wide logical size).
    pub fn total_object_bytes(&self) -> u64 {
        self.node().total_object_bytes()
    }

    /// Current home node of an object (tests/diagnostics; homes move
    /// at barriers under the migrating-home protocol).
    pub fn object_home(&self, id: ObjectId) -> NodeId {
        self.node().home_of(id)
    }

    /// Is the local copy of `id` usable without a remote fetch?
    pub fn object_locally_valid(&self, id: ObjectId) -> bool {
        self.node().ctl(id).locally_valid()
    }

    /// Is `id` currently mapped in this node's DMM area?
    pub fn object_mapped(&self, id: ObjectId) -> bool {
        self.node().ctl(id).offset().is_some()
    }

    /// Bytes currently held by this node's backing store — the actual
    /// (post-compression) store-resident size.
    pub fn swapped_bytes(&self) -> u64 {
        self.node().swapped_bytes()
    }

    /// Snapshot and cross-check the node's swap accounting (resident
    /// vs swapped vs materialized bytes, including the cumulative
    /// free/dematerialization counters); panics if the incremental
    /// counters drifted from the mapping states.
    pub fn swap_accounting(&self) -> crate::node::SwapAccounting {
        self.node().swap_accounting()
    }

    /// Fragmentation snapshot of this node's DMM allocator (free
    /// bytes, largest hole, external-fragmentation ratio).
    pub fn frag_stats(&self) -> crate::alloc::FragStats {
        self.node().frag_stats()
    }

    /// Object-table slots on this node (live + tombstoned + reusable).
    /// Bounded by the peak working set under alloc/free churn, however
    /// large the cumulative allocation history grows — the control-
    /// space half of address reuse.
    pub fn object_slots(&self) -> usize {
        self.node().object_count()
    }

    /// An element or bulk access made outside any guard: reject it if
    /// it conflicts with a live guard, then record it for analysis.
    fn direct_access(&self, obj: ObjectId, range: &Range<usize>, write: bool, striped: bool) {
        self.seat
            .views
            .check_view_conflict(obj.0, range, write, obj);
        self.analyze_access(obj, range, write, striped);
    }

    /// Record an application access with the race detector. A no-op
    /// branch when analysis is off; never advances virtual time.
    ///
    /// Reads of **striped** objects are not recorded: a striped read
    /// pins the segment versions published at the last barrier (the
    /// snapshot the writer can no longer touch), so a concurrent
    /// in-flight write is not a data race — the reader provably sees
    /// the pre-write version. Writes are still recorded: two writers
    /// hitting one segment in the same interval race exactly as they
    /// would on an unstriped object.
    fn analyze_access(&self, obj: ObjectId, range: &Range<usize>, write: bool, striped: bool) {
        if striped && !write {
            return;
        }
        if let Some(d) = &self.seat.analyze {
            d.on_access(
                self.me(),
                obj.0,
                range.start as u64,
                range.end as u64,
                write,
            );
        }
    }

    /// Stage a named allocation, recording whether the placement was an
    /// explicit `*_placed` choice (explicit placements override the
    /// striping config's per-segment default).
    fn stage_named_req<T: Pod>(
        &self,
        name: &str,
        len: usize,
        placement: Placement,
        placement_explicit: bool,
    ) -> Result<(), LotsError> {
        self.node().stage_named(NamedAllocReq {
            name: name.to_string(),
            bytes: len * T::SIZE,
            elem_size: T::SIZE,
            len,
            placement,
            placement_explicit,
        })
    }

    /// Number of segments backing `id`: the stripe-child count of a
    /// striped object, `1` for an ordinary single-home object
    /// (tests/diagnostics).
    pub fn segment_count(&self, id: ObjectId) -> usize {
        self.node().segments(&id).len()
    }

    /// Current home of every segment of `id`, in segment order — a
    /// one-element vector for unstriped objects (tests/diagnostics;
    /// homes move at barriers under the migrating-home protocol).
    pub fn segment_homes(&self, id: ObjectId) -> Vec<NodeId> {
        let node = self.node();
        node.segments(&id)
            .iter()
            .map(|&c| node.home_of(ObjectId(c)))
            .collect()
    }

    // ------------------------------------------------------------------
    // Access plumbing
    // ------------------------------------------------------------------

    /// Pass the access check for byte range `bytes` of object `id`,
    /// fetching whatever the range needs from its home — or, for a
    /// striped object, from every covered segment's home in one
    /// parallel fan-out. Returns the locked node, every covered byte
    /// mapped and pinned.
    fn ready_range(
        &self,
        id: ObjectId,
        bytes: &Range<usize>,
        write: bool,
        mut checks: u64,
    ) -> Result<MutexGuard<'_, NodeState>, LotsError> {
        loop {
            let mut node = self.node();
            let fetches = match node.begin_access_range(id, bytes, write, checks)? {
                RangeAccess::Ready => return Ok(node),
                RangeAccess::Fetch(list) => list,
            };
            drop(node);
            self.fetch_objects(&fetches)?;
            // The retry re-runs the (now cheap) check once, as the real
            // system would on returning from the miss handler.
            checks = 1;
        }
    }

    /// Run `f` over byte range `bytes` of object `id` once the access
    /// check passes (for writing if `write`: a mutable view decodes
    /// under the check its write-back relies on). `f` sees exactly the
    /// range's bytes, in place in the object's own buffer: as one
    /// piece at offset 0 for an unstriped object, as one piece per
    /// covered segment (each with its byte offset within the range,
    /// each a whole number of `elem`-byte elements) for a striped one
    /// — see [`NodeState::range_read`].
    pub(crate) fn read_range(
        &self,
        id: ObjectId,
        bytes: Range<usize>,
        write: bool,
        checks: u64,
        elem: usize,
        f: impl FnMut(usize, &[u8]),
    ) -> Result<(), LotsError> {
        let mut node = self.ready_range(id, &bytes, write, checks)?;
        node.range_read(id, &bytes, elem, f);
        Ok(())
    }

    /// The writing counterpart of [`Dsm::read_range`]: `f` sees the
    /// same pieces mutably. The object's one host copy per write
    /// interval happens here, at the first piece handed out.
    pub(crate) fn write_range(
        &self,
        id: ObjectId,
        bytes: Range<usize>,
        checks: u64,
        elem: usize,
        f: impl FnMut(usize, &mut [u8]),
    ) -> Result<(), LotsError> {
        let mut node = self.ready_range(id, &bytes, true, checks)?;
        node.range_write(id, &bytes, elem, f);
        Ok(())
    }

    /// Fetch clean copies of several objects through the data plane in
    /// one round: all requests leave now (the NIC pipelines the tiny
    /// request headers), and the replies — served by *distinct* homes
    /// for a striped range — overlap in flight. The caller's clock
    /// advances to the last arrival, so a range striped over `k` homes
    /// pays roughly one segment's transfer time, not `k` of them.
    fn fetch_objects(&self, targets: &[(ObjectId, NodeId)]) -> Result<(), LotsError> {
        let t0 = self.seat.ctx.clock.now();
        for &(id, target) in targets {
            assert_ne!(target, self.me(), "fetch from self implies corrupted state");
            self.seat
                .net
                .send(target, Msg::ObjReq { obj: id }, Bytes::new(), t0);
        }
        let mut pending = targets.len();
        while pending > 0 {
            let env = self.seat.await_reply();
            match env.msg {
                Msg::ObjReply { obj, version } if targets.iter().any(|&(id, _)| id == obj) => {
                    let mut node = self.node();
                    node.install_fetch(obj, env.payload, version)?;
                    pending -= 1;
                }
                other => panic!("unexpected reply while fetching {targets:?}: {other:?}"),
            }
        }
        Ok(())
    }

    /// Decode the elements of byte range `bytes` of `id` onto the end
    /// of `out`, piece by piece straight from the object's bytes — the
    /// one host copy a view guard makes.
    fn decode_range<T: Pod>(
        &self,
        id: ObjectId,
        bytes: Range<usize>,
        write: bool,
        checks: u64,
        out: &mut Vec<T>,
    ) -> Result<(), LotsError> {
        self.read_range(id, bytes, write, checks, T::SIZE, |_, b| {
            out.extend(b.chunks_exact(T::SIZE).map(T::read_from))
        })
    }

    /// Encode `vals` over byte range `bytes` of `id` (which they cover
    /// exactly), piece by piece straight into the object's bytes.
    fn encode_range<T: Pod>(
        &self,
        id: ObjectId,
        bytes: Range<usize>,
        checks: u64,
        vals: &[T],
    ) -> Result<(), LotsError> {
        self.write_range(id, bytes, checks, T::SIZE, |at, b| {
            for (v, slot) in vals[at / T::SIZE..].iter().zip(b.chunks_exact_mut(T::SIZE)) {
                v.write_to(slot);
            }
        })
    }
}

/// RAII pin scope returned by [`Dsm::statement`].
pub struct StmtGuard<'d> {
    dsm: &'d Dsm,
}

impl Drop for StmtGuard<'_> {
    fn drop(&mut self) {
        self.dsm.node().exit_stmt();
    }
}

/// A typed handle on a LOTS shared object — the paper's `Pointer<T>`.
///
/// All access methods live on the [`DsmSlice`] trait; the inherent
/// surface only exposes the LOTS object identity.
pub struct SharedSlice<'d, T: Pod> {
    dsm: &'d Dsm,
    id: ObjectId,
    base: usize,
    len: usize,
    /// Whether the object is striped (cached at handle creation; drives
    /// the snapshot-read exemption in the race detector).
    striped: bool,
    _pd: PhantomData<T>,
}

impl<T: Pod> Clone for SharedSlice<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for SharedSlice<'_, T> {}

impl<T: Pod> SharedSlice<'_, T> {
    /// The object's cluster-wide ID.
    pub fn id(&self) -> ObjectId {
        self.id
    }
}

impl<'d, T: Pod> DsmSlice for SharedSlice<'d, T> {
    type Elem = T;
    type Error = LotsError;
    type View<'g>
        = ObjView<'g, T>
    where
        Self: 'g;
    type ViewMut<'g>
        = ObjViewMut<'g, T>
    where
        Self: 'g;

    fn len(&self) -> usize {
        self.len
    }

    fn offset(&self, delta: usize) -> Self {
        assert!(delta <= self.len, "pointer arithmetic out of bounds");
        SharedSlice {
            base: self.base + delta,
            len: self.len - delta,
            ..*self
        }
    }

    fn prefix(&self, len: usize) -> Self {
        assert!(len <= self.len, "pointer arithmetic out of bounds");
        SharedSlice { len, ..*self }
    }

    fn try_view_checked(
        &self,
        range: Range<usize>,
        checks: u64,
    ) -> Result<ObjView<'_, T>, LotsError> {
        range_bounds(self, self.len, &range);
        let bytes = (self.base + range.start) * T::SIZE..(self.base + range.end) * T::SIZE;
        let mut view = ObjView {
            pin: self.dsm.pin_view(self.id, &bytes, false, self.striped),
            data: Vec::with_capacity(range.len()),
        };
        if !range.is_empty() {
            self.dsm
                .decode_range(self.id, bytes, false, checks, &mut view.data)?;
        }
        Ok(view)
    }

    // Element and bulk ops: the trait defaults (guard-based) are
    // semantically right but allocate a buffer per call; these direct
    // overrides keep the §4.2 fast path at one table lookup, exactly
    // like the seed's element-wise implementation.

    fn try_read(&self, i: usize) -> Result<T, LotsError> {
        element_bounds(self, self.len, i);
        let at = (self.base + i) * T::SIZE;
        self.dsm
            .direct_access(self.id, &(at..at + T::SIZE), false, self.striped);
        let mut out = T::default();
        self.dsm
            .read_range(self.id, at..at + T::SIZE, false, 1, T::SIZE, |_, b| {
                out = T::read_from(b)
            })?;
        Ok(out)
    }

    fn try_write(&self, i: usize, v: T) -> Result<(), LotsError> {
        element_bounds(self, self.len, i);
        let at = (self.base + i) * T::SIZE;
        self.dsm
            .direct_access(self.id, &(at..at + T::SIZE), true, self.striped);
        self.dsm
            .write_range(self.id, at..at + T::SIZE, 1, T::SIZE, |_, b| v.write_to(b))
    }

    fn try_update(&self, i: usize, f: impl FnOnce(T) -> T) -> Result<(), LotsError> {
        element_bounds(self, self.len, i);
        let at = (self.base + i) * T::SIZE;
        self.dsm
            .direct_access(self.id, &(at..at + T::SIZE), true, self.striped);
        let mut f = Some(f);
        self.dsm
            .write_range(self.id, at..at + T::SIZE, 2, T::SIZE, |_, b| {
                let f = f.take().expect("one element is one piece");
                f(T::read_from(b)).write_to(b);
            })
    }

    fn try_read_into(&self, start: usize, out: &mut [T]) -> Result<(), LotsError> {
        if out.is_empty() {
            return Ok(());
        }
        range_bounds(self, self.len, &(start..start + out.len()));
        let at = (self.base + start) * T::SIZE;
        let span = at..at + out.len() * T::SIZE;
        self.dsm.direct_access(self.id, &span, false, self.striped);
        let checks = out.len() as u64;
        self.dsm
            .read_range(self.id, span, false, checks, T::SIZE, |at, b| {
                for (slot, chunk) in out[at / T::SIZE..].iter_mut().zip(b.chunks_exact(T::SIZE)) {
                    *slot = T::read_from(chunk);
                }
            })
    }

    fn try_write_from(&self, start: usize, vals: &[T]) -> Result<(), LotsError> {
        if vals.is_empty() {
            return Ok(());
        }
        range_bounds(self, self.len, &(start..start + vals.len()));
        let at = (self.base + start) * T::SIZE;
        let span = at..at + vals.len() * T::SIZE;
        self.dsm.direct_access(self.id, &span, true, self.striped);
        self.dsm
            .encode_range(self.id, span, vals.len() as u64, vals)
    }

    fn try_view_mut_checked(
        &self,
        range: Range<usize>,
        checks: u64,
    ) -> Result<ObjViewMut<'_, T>, LotsError> {
        range_bounds(self, self.len, &range);
        let bytes = (self.base + range.start) * T::SIZE..(self.base + range.end) * T::SIZE;
        let mut view = ObjViewMut {
            pin: self.dsm.pin_view(self.id, &bytes, true, self.striped),
            id: self.id,
            at: bytes.start,
            data: Vec::with_capacity(range.len()),
        };
        if !range.is_empty() {
            // The write access runs the check, resolves a miss, creates
            // the twin and marks the object dirty once, up front; the
            // guard's write-back then costs nothing extra.
            self.dsm
                .decode_range(self.id, bytes, true, checks, &mut view.data)?;
        }
        Ok(view)
    }
}

impl<T: Pod> std::fmt::Debug for SharedSlice<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SharedSlice({}, base {}, len {})",
            self.id, self.base, self.len
        )
    }
}

impl ViewHost for Dsm {
    fn views(&self) -> &ViewRegistry {
        &self.seat.views
    }

    /// A live guard holds a statement pin scope (§3.3), like
    /// [`Dsm::statement`].
    fn pin(&self) {
        self.node().enter_stmt();
    }

    fn unpin(&self) {
        self.node().exit_stmt();
    }
}

impl Dsm {
    /// Open a guard's pin over byte range `bytes` of `obj`: one logical
    /// access over the whole span — a write for a mutable view, a read
    /// otherwise.
    fn pin_view(
        &self,
        obj: ObjectId,
        bytes: &Range<usize>,
        mutable: bool,
        striped: bool,
    ) -> ViewPin<'_, Dsm> {
        let pin = ViewPin::new(self, obj.0, obj, bytes, mutable);
        if !bytes.is_empty() {
            self.analyze_access(obj, bytes, mutable, striped);
        }
        pin
    }
}

/// Read view guard over a LOTS object (returned by
/// [`DsmSlice::view`]): the access check and any miss handling ran
/// once at creation, and the object stays pinned in the DMM area until
/// the guard drops.
pub struct ObjView<'d, T: Pod> {
    pin: ViewPin<'d, Dsm>,
    data: Vec<T>,
}

impl<T: Pod> Deref for ObjView<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        let _ = &self.pin;
        &self.data
    }
}

/// Mutable view guard over a LOTS object (returned by
/// [`DsmSlice::view_mut`]): one access check at creation, the object
/// pinned for the guard's lifetime, and the buffered elements written
/// back to the shared object on drop.
pub struct ObjViewMut<'d, T: Pod> {
    pin: ViewPin<'d, Dsm>,
    id: ObjectId,
    at: usize,
    data: Vec<T>,
}

impl<T: Pod> Deref for ObjViewMut<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T: Pod> DerefMut for ObjViewMut<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T: Pod> Drop for ObjViewMut<'_, T> {
    fn drop(&mut self) {
        if self.data.is_empty() {
            return;
        }
        let data = std::mem::take(&mut self.data);
        let span = self.at..self.at + data.len() * T::SIZE;
        // Zero further checks: the check ran at guard creation, and the
        // pin guarantees the object is still mapped.
        self.pin
            .host
            .encode_range(self.id, span, 0, &data)
            .unwrap_or_else(|e| panic!("view_mut write-back of {}: {e}", self.id));
    }
}
