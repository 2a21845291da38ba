//! The LOTS implementation of the API (§3.2/§3.3): [`Dsm`] runs the
//! barrier and lock protocols of §3.4 over the node state and resolves
//! misses through the data plane. As the [`ViewHost`] of
//! [`SharedSlice`] it passes the §4.2 status check for a byte range of
//! an object and hands the range out one piece per covered segment,
//! pins a guard's statement scope, and exempts striped reads from race
//! analysis.

use std::ops::Range;
use std::sync::Arc;

use lots_net::{NodeId, TrafficStats};
use lots_sim::{NodeStats, SimInstant, TimeCategory};
use parking_lot::MutexGuard;

use super::{DsmApi, Slice, ViewHost, ViewRegistry};
use crate::cluster::Seat;
use crate::config::Placement;
use crate::consistency::barrier::BarrierService;
use crate::consistency::locks::{LockId, LockService};
use crate::error::DsmError;
use crate::node::NodeState;
use crate::object::{NamedAllocReq, ObjectId};
use crate::pod::Pod;
use crate::runtime::Lots;

/// One node's handle on the LOTS shared object space (the paper's
/// runtime library instance).
///
/// Not `Sync`: each simulated process has exactly one application
/// thread driving its `Dsm` (SPMD style, as in the paper). The shared
/// API lives on the [`DsmApi`] and [`DsmSlice`](super::DsmSlice)
/// traits; LOTS-specific extras (statement scopes, swap introspection)
/// are inherent methods.
pub struct Dsm {
    /// The driver's half of the handle: clock, node state, endpoint,
    /// fault plan, detector, journal, view-guard registry.
    pub(crate) seat: Seat<Lots>,
    pub(crate) locks: Arc<LockService>,
    pub(crate) barrier: Arc<BarrierService>,
}

impl DsmApi for Dsm {
    type Error = DsmError;
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

    fn try_alloc<T: Pod>(&self, len: usize) -> Result<SharedSlice<'_, T>, DsmError> {
        self.alloc_whole(len, None)
    }

    fn try_alloc_placed<T: Pod>(
        &self,
        len: usize,
        placement: Placement,
    ) -> Result<SharedSlice<'_, T>, DsmError> {
        self.alloc_whole(len, Some(placement))
    }

    fn try_free<T: Pod>(&self, slice: SharedSlice<'_, T>) -> Result<(), DsmError> {
        // Same fence as the sync operations: a buffered guard over a
        // dying object would write back into a reclaimed slot.
        let (id, bytes) = (slice.id(), slice.bytes());
        self.seat
            .views
            .assert_no_views_over(id.0, &(0..usize::MAX), "free", id);
        if bytes.start != 0 {
            return Err(DsmError::BadFree {
                alloc: id.into(),
                reason: format!(
                    "handle is offset {} elements into the object — free \
                     needs the original allocation handle",
                    bytes.start / T::SIZE
                )
                .into(),
            });
        }
        self.node().free_object(id, bytes.len())
    }

    fn try_alloc_named<T: Pod>(&self, name: &str, len: usize) -> Result<(), DsmError> {
        self.stage_named_req::<T>(name, len, Placement::RoundRobin, false)
    }

    fn try_alloc_named_placed<T: Pod>(
        &self,
        name: &str,
        len: usize,
        placement: Placement,
    ) -> Result<(), DsmError> {
        self.stage_named_req::<T>(name, len, placement, true)
    }

    fn try_lookup<T: Pod>(&self, name: &str) -> Result<SharedSlice<'_, T>, DsmError> {
        let (id, len) = self.node().lookup_named(name, T::SIZE)?;
        Ok(self.whole(id, len))
    }

    fn barrier(&self) {
        self.try_barrier()
            .unwrap_or_else(|e| panic!("barrier failed: {e}"))
    }

    fn lock(&self, lock: LockId) {
        let grant = self
            .seat
            .acquire_lock(lock, |ctx| self.locks.acquire(lock, ctx));
        let mut node = self.node();
        node.apply_lock_updates(&grant.updates);
        let fetch = node
            .wi_invalidate(&grant.invalidate)
            .unwrap_or_else(|e| panic!("lock {lock}: invalidate: {e}"));
        drop(node);
        self.seat
            .fetch(&fetch, |node, unit, copy, version| {
                node.install_fetch(ObjectId(unit), copy, version, Some(lock))
            })
            .unwrap_or_else(|e| panic!("lock {lock}: fetch: {e}"));
        self.node().enter_cs(lock);
    }

    fn unlock(&self, lock: LockId) {
        self.seat.release_lock(lock, |ctx| {
            self.locks
                .release(lock, ctx, |ts| self.node().exit_cs(lock, ts))
        });
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

    /// Register a `len`-element object under `placement` (round-robin
    /// if `None`) and hand out all of it, locking the node once.
    fn alloc_whole<T: Pod>(
        &self,
        len: usize,
        placement: Option<Placement>,
    ) -> Result<SharedSlice<'_, T>, DsmError> {
        if len == 0 {
            return Err(DsmError::EmptyAlloc);
        }
        let mut node = self.node();
        let explicit = placement.is_some();
        let placement = placement.unwrap_or(Placement::RoundRobin);
        let (id, striped) = node.register_object_with(len * T::SIZE, placement, explicit)?;
        Ok(Slice::new(self, ObjUnit { id, striped }, 0, len))
    }

    /// A handle on all `len` elements of object `id`.
    fn whole<T: Pod>(&self, id: ObjectId, len: usize) -> SharedSlice<'_, T> {
        let striped = self.node().stripe_of(id).is_some();
        Slice::new(self, ObjUnit { id, striped }, 0, len)
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
    pub fn try_barrier(&self) -> Result<(), DsmError> {
        let entered = self.seat.enter_barrier();
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
        let diffs = plan.my_sends(self.me()).map(|(obj, home)| {
            let node = self.node();
            let ts = node.write_ts_of(obj);
            (home, obj.0, Some(ts), node.cached_diff(obj).encode())
        });
        self.seat.send_diffs(diffs);
        // Phase C: drain (if there were diffs), then apply
        // migrations/invalidations, reclaim the freed set, and commit
        // named allocations.
        self.barrier.drain(&self.seat.ctx, &plan);
        let seq = plan.seq;
        self.node()
            .barrier_finish(&plan.written, &plan.freed, &plan.named, seq)?;
        self.seat.exit_barrier(&plan.written, seq)?;
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
    fn crash_rejoin_now(&self) -> Result<(), DsmError> {
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

    /// Stage a named allocation, recording whether the placement was an
    /// explicit `*_placed` choice (explicit placements override the
    /// striping config's per-segment default).
    fn stage_named_req<T: Pod>(
        &self,
        name: &str,
        len: usize,
        placement: Placement,
        placement_explicit: bool,
    ) -> Result<(), DsmError> {
        self.node().stage_named(NamedAllocReq {
            name: name.to_string(),
            bytes: len * T::SIZE,
            elem_size: T::SIZE,
            len,
            placement,
            placement_explicit,
        })
    }

    /// Pass the access check for byte range `bytes` of object `id`,
    /// fetching whatever the range needs from its home — or, for a
    /// striped object, from every covered segment's home in one
    /// parallel fan-out ([`Seat::ready`]). Returns the locked node,
    /// every covered byte mapped and pinned.
    fn ready_bytes(
        &self,
        id: ObjectId,
        bytes: &Range<usize>,
        write: bool,
        mut checks: u64,
    ) -> Result<MutexGuard<'_, NodeState>, DsmError> {
        self.seat.ready(
            |node| {
                let access = node.begin_access_range(id, bytes, write, checks);
                // A retry re-runs the (now cheap) check once, as the
                // real system would on returning from the miss handler.
                checks = 1;
                access
            },
            |node, unit, copy, version| node.install_fetch(ObjectId(unit), copy, version, None),
        )
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

/// A LOTS handle: the paper's `Pointer<T>` over one shared object.
pub type SharedSlice<'d, T> = Slice<'d, Dsm, T>;

/// The unit a [`SharedSlice`] addresses: one object, and whether it is
/// striped (cached at handle creation; it drives the snapshot-read
/// exemption in the race detector).
#[derive(Debug, Clone, Copy)]
pub struct ObjUnit {
    id: ObjectId,
    striped: bool,
}

impl std::fmt::Display for ObjUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.id.fmt(f)
    }
}

impl<T: Pod> SharedSlice<'_, T> {
    /// The object's cluster-wide ID.
    pub fn id(&self) -> ObjectId {
        self.unit().id
    }
}

impl ViewHost for Dsm {
    type Unit = ObjUnit;
    type Error = DsmError;

    fn views(&self) -> &ViewRegistry {
        &self.seat.views
    }

    fn key(unit: ObjUnit) -> u32 {
        unit.id.0
    }

    /// A live guard holds a statement pin scope (§3.3), like
    /// [`Dsm::statement`].
    fn pin(&self) {
        self.node().enter_stmt();
    }

    fn unpin(&self) {
        self.node().exit_stmt();
    }

    /// Reads of **striped** objects are not recorded: a striped read
    /// pins the segment versions published at the last barrier (the
    /// snapshot the writer can no longer touch), so a concurrent
    /// in-flight write is not a data race — the reader provably sees
    /// the pre-write version. Writes are still recorded: two writers
    /// hitting one segment in the same interval race exactly as they
    /// would on an unstriped object.
    #[inline]
    fn record(&self, unit: ObjUnit, bytes: &Range<usize>, write: bool) {
        if unit.striped && !write {
            return;
        }
        if let Some(d) = &self.seat.analyze {
            let (start, end) = (bytes.start as u64, bytes.end as u64);
            d.on_access(self.me(), unit.id.0, start, end, write);
        }
    }

    /// The pieces are the range's bytes in place in the object's own
    /// buffer: one piece at offset 0 for an unstriped object, one per
    /// covered segment for a striped one — see
    /// [`NodeState::range_read`].
    #[inline]
    fn read_span(
        &self,
        unit: ObjUnit,
        bytes: Range<usize>,
        write: bool,
        checks: u64,
        elem: usize,
        f: impl FnMut(usize, &[u8]),
    ) -> Result<(), DsmError> {
        let node = self.ready_bytes(unit.id, &bytes, write, checks)?;
        node.range_read(unit.id, &bytes, elem, f);
        Ok(())
    }

    /// The object's one host copy per write interval happens here, at
    /// the first piece handed out.
    #[inline]
    fn write_span(
        &self,
        unit: ObjUnit,
        bytes: Range<usize>,
        checks: u64,
        elem: usize,
        f: impl FnMut(usize, &mut [u8]),
    ) -> Result<(), DsmError> {
        let mut node = self.ready_bytes(unit.id, &bytes, true, checks)?;
        node.range_write(unit.id, &bytes, elem, f);
        Ok(())
    }
}
