//! §3.2 — the object table: registration under a placement (striped
//! allocations as a parent plus one child per segment), the
//! tombstone-then-reclaim object lifecycle, and named allocations
//! through the replicated name directory.

use lots_disk::DiskError;
use lots_net::NodeId;
use lots_sim::TimeCategory;

use super::{DsmError, NodeState};
use crate::alloc::AllocError;
use crate::config::Placement;
use crate::object::{
    Life, Mapping, NamedAllocReq, ObjCtl, ObjectId, StripeInfo, HOME_PENDING, MAX_OBJECT_BYTES,
    STRIPE_CHILD,
};

impl NodeState {
    /// Register a shared object of `size` bytes under round-robin
    /// placement (see [`NodeState::register_object_placed`]).
    pub fn register_object(&mut self, size: usize) -> Result<ObjectId, DsmError> {
        self.register_object_with(size, Placement::RoundRobin, false)
            .map(|(id, _)| id)
    }

    /// Register a shared object with an explicitly chosen placement
    /// (the `*_placed` surface): the placement also overrides the
    /// striping config's per-segment default.
    pub fn register_object_placed(
        &mut self,
        size: usize,
        placement: Placement,
    ) -> Result<ObjectId, DsmError> {
        self.register_object_with(size, placement, true)
            .map(|(id, _)| id)
    }

    /// Register a shared object of `size` bytes (word-aligned up) and
    /// try to map it eagerly, as `alloc()` does in the paper. Returns
    /// the cluster-wide object id — deterministic: the lowest
    /// free-reclaimed slot, else a fresh one, so allocation order plus
    /// the barrier-agreed reclamation history make ids agree
    /// cluster-wide.
    ///
    /// With striping configured, allocations larger than one segment
    /// take the striped path: the returned parent id routes to
    /// per-segment child objects with independent homes. The flag
    /// beside the id says whether the object was striped; `explicit`
    /// marks a placement chosen by the caller (the `*_placed` surface).
    pub(crate) fn register_object_with(
        &mut self,
        size: usize,
        placement: Placement,
        explicit: bool,
    ) -> Result<(ObjectId, bool), DsmError> {
        placement.check(self.n)?;
        let req_bytes = size;
        let size = size.div_ceil(4) * 4;
        if size > MAX_OBJECT_BYTES {
            return Err(DsmError::ObjectTooLarge {
                size,
                max: MAX_OBJECT_BYTES,
            });
        }
        if let Some(striping) = self.cfg.striping {
            let seg_bytes = striping.segment_bytes.max(4).div_ceil(4) * 4;
            if size > seg_bytes {
                let seg_placement = if explicit {
                    placement
                } else {
                    striping.placement
                };
                seg_placement.check(self.n)?;
                return self
                    .register_striped(req_bytes, size, seg_bytes, placement, seg_placement)
                    .map(|id| (id, true));
            }
        }
        let id = self.place_top(size, req_bytes, placement);
        self.charge(TimeCategory::LargeObject, self.cpu.map_syscall);
        let out = self.map_registered(id).map(|()| (id, false));
        if out.is_err() {
            // A failed registration must not consume the slot: the
            // recoverable try_alloc surface would otherwise leak a
            // phantom Live object (and a reclaimed id) per failure.
            self.retire(id)?;
        }
        self.check_state(id.0);
        self.sync_frag_gauges();
        out
    }

    /// Map a just-registered object as `alloc()` does in the paper:
    /// eagerly, but only while space is free (mmap-like laziness —
    /// allocation must not trigger swap traffic for data that has never
    /// been touched). Under LOTS-x mapping is permanent and mandatory.
    fn map_registered(&mut self, id: ObjectId) -> Result<(), DsmError> {
        if !self.cfg.large_object_space {
            return self.try_map(id).map_err(|e| match e {
                DsmError::OutOfDmm { requested } => DsmError::LotsXCapacity { requested },
                e => e,
            });
        }
        let size = self.objects[id.0 as usize].size();
        match self.alloc.alloc(size) {
            Ok(offset) => {
                self.objects[id.0 as usize].set_mapping(Mapping::Mapped { offset });
                self.materialized_cum += size as u64;
                Ok(())
            }
            Err(AllocError::NoSpace { .. }) => Ok(()), // lazy (§3.3)
            Err(AllocError::TooLarge { size, max }) => Err(DsmError::ObjectTooLarge { size, max }),
        }
    }

    /// Place an application-visible object (unstriped, or a striped
    /// parent) homed by `placement`.
    fn place_top(&mut self, size: usize, req_bytes: usize, placement: Placement) -> ObjectId {
        let n = self.n;
        self.place(|id| {
            let (home, home_pending) = placement.home(id, 0, n);
            let mut ctl = ObjCtl::new(size, home);
            ctl.set_req_bytes(req_bytes);
            ctl.set_flag(HOME_PENDING, home_pending);
            ctl
        })
    }

    /// Put the control record `ctl(id)` builds into the lowest
    /// reclaimed slot, else a fresh one; returns its id.
    fn place(&mut self, ctl: impl FnOnce(u32) -> ObjCtl) -> ObjectId {
        let id = match self.free_ids.pop_first() {
            Some(id) => {
                debug_assert_eq!(self.objects[id as usize].life, Life::Free);
                id
            }
            None => self.objects.len() as u32,
        };
        self.objects.put(id, ctl(id));
        ObjectId(id)
    }

    /// Striped registration: the parent slot is taken first, then one
    /// child per segment in segment order, so every node derives the
    /// same ids from the same allocation history. The parent's data
    /// never materializes; each child is an ordinary object with its
    /// own home, twin, swap image and barrier notices.
    fn register_striped(
        &mut self,
        req_bytes: usize,
        size: usize,
        seg_bytes: usize,
        parent_placement: Placement,
        seg_placement: Placement,
    ) -> Result<ObjectId, DsmError> {
        let nsegs = size.div_ceil(seg_bytes);
        let parent = self.place_top(size, req_bytes, parent_placement);
        self.charge(TimeCategory::LargeObject, self.cpu.map_syscall);
        let mut children = Vec::with_capacity(nsegs);
        let mut failed = None;
        for s in 0..nsegs {
            let child_size = seg_bytes.min(size - s * seg_bytes);
            let (chome, cpending) = seg_placement.home(parent.0, s as u32, self.n);
            let cid = self.place(|_| {
                let mut ctl = ObjCtl::new(child_size, chome);
                ctl.set_flag(HOME_PENDING, cpending);
                ctl
            });
            self.objects.set_parent(cid.0 as usize, parent.0, s as u32);
            children.push(cid.0);
            self.charge(TimeCategory::LargeObject, self.cpu.map_syscall);
            // Segment by segment, like the unstriped path.
            if let Err(e) = self.map_registered(cid) {
                failed = Some(e);
                break;
            }
            self.check_state(cid.0);
        }
        if let Some(e) = failed {
            // Unwind: a failed registration must not consume any slot.
            for &c in children.iter().rev() {
                self.retire(ObjectId(c))?;
            }
            self.retire(parent)?;
            self.sync_frag_gauges();
            return Err(e);
        }
        self.objects.set_stripe(
            parent.0 as usize,
            StripeInfo {
                seg_bytes,
                children,
            },
        );
        self.check_state(parent.0);
        self.sync_frag_gauges();
        Ok(parent)
    }

    /// Refresh the fragmentation gauges mirrored into the node's
    /// statistics.
    pub(super) fn sync_frag_gauges(&self) {
        let frag = self.alloc.frag_stats();
        self.stats
            .set_dmm_gauges(frag.free_bytes, frag.largest_hole);
    }

    // ------------------------------------------------------------------
    // Object lifecycle: free, named objects (tombstone → barrier
    // reclamation; see the module docs of `api`)
    // ------------------------------------------------------------------

    /// Free a live object: tombstone it immediately (every further
    /// application access errors with [`DsmError::UseAfterFree`]) and
    /// stage it for cluster-wide reclamation at the next barrier.
    /// `req_bytes` must match the original allocation — sub-slice
    /// handles cannot free.
    pub fn free_object(&mut self, id: ObjectId, req_bytes: usize) -> Result<(), DsmError> {
        let live = self
            .objects
            .get(id.0 as usize)
            .filter(|o| o.life == Life::Live);
        DsmError::check_free(id.into(), live.map(|o| o.req_bytes()), req_bytes)?;
        self.tombstone(id);
        // A striped parent frees its segment children with it: the
        // whole family is tombstoned now and reclaimed at the barrier.
        let children = self.stripe_of(id).map_or(0, |s| s.children.len());
        for s in 0..children {
            self.tombstone(ObjectId(self.segments(&id)[s]));
        }
        Ok(())
    }

    /// Fence `id` off and stage it for reclamation. The tombstone
    /// publishes nothing: any pending write notice is dropped so the
    /// barrier plan never schedules diffs for it.
    fn tombstone(&mut self, id: ObjectId) {
        self.objects[id.0 as usize].life = Life::Tombstoned;
        self.dirty.retain(|&o| o != id.0);
        self.names.stage_free(id);
        self.check_state(id.0);
    }

    /// Stage a named allocation for commit at the next barrier; its
    /// placement — and, unless chosen explicitly, the striping
    /// config's segment placement — is validated now.
    pub fn stage_named(&mut self, req: NamedAllocReq) -> Result<(), DsmError> {
        let segment = self
            .cfg
            .striping
            .filter(|_| !req.placement_explicit)
            .map(|s| s.placement);
        self.names.stage(req, self.n, segment)
    }

    /// Resolve a committed name into its object and element count,
    /// checking the element size recorded in the replicated directory.
    pub fn lookup_named(
        &self,
        name: &str,
        elem_size: usize,
    ) -> Result<(ObjectId, usize), DsmError> {
        let live = |id: ObjectId| self.objects[id.0 as usize].life == Life::Live;
        self.names.lookup(name, elem_size, live)
    }

    /// Take the interval's staged frees and named allocations for the
    /// barrier rendezvous.
    pub fn take_lifecycle(&mut self) -> (Vec<ObjectId>, Vec<NamedAllocReq>) {
        self.names.take()
    }

    /// Reclaim one freed slot at a barrier: release its DMM block or
    /// swap image (through the same path barrier invalidation uses),
    /// drop its directory entry, and return the id to the free list
    /// for reuse.
    pub(super) fn reclaim(&mut self, id: ObjectId) -> Result<(), DsmError> {
        let idx = id.0 as usize;
        debug_assert_ne!(
            self.objects[idx].life,
            Life::Free,
            "{id} reclaimed twice in one barrier"
        );
        let (size, child) = (
            self.objects[idx].size(),
            self.objects[idx].flag(STRIPE_CHILD),
        );
        self.retire(id)?;
        debug_assert!(
            matches!(self.store.get(id.0 as u64), Err(DiskError::NotFound(_))),
            "freed {id} must leave no swap image behind"
        );
        // The munmap/unlink analogue of the reclamation pass.
        self.charge(TimeCategory::LargeObject, self.cpu.map_syscall);
        // Stripe children ride their parent's reclamation: the parent
        // alone counts the free (with the full logical size), so the
        // app-facing counter stays one event per `free` call.
        if !child {
            self.stats.count_object_freed(size as u64);
        }
        self.names.remove_at(id);
        Ok(())
    }

    /// Give slot `id` back for reuse: drop its copy, everything kept
    /// beside its record and its flags, and mark it free.
    fn retire(&mut self, id: ObjectId) -> Result<(), DsmError> {
        let idx = id.0 as usize;
        self.invalidate_local(id)?;
        self.objects.clear_side_state(idx);
        let ctl = &mut self.objects[idx];
        ctl.set_flag(HOME_PENDING, false);
        ctl.life = Life::Free;
        self.free_ids.insert(id.0);
        self.check_state(id.0);
        Ok(())
    }

    /// Commit one barrier-agreed named allocation (every node replays
    /// the same list in the same order, so the ids agree).
    pub(super) fn commit_named(&mut self, req: &NamedAllocReq) -> Result<(), DsmError> {
        let (id, _) =
            self.register_object_with(req.bytes, req.placement, req.placement_explicit)?;
        self.names.insert(req, id);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Table lookups
    // ------------------------------------------------------------------

    /// Number of object-table slots (live + tombstoned + reusable):
    /// the resident control-space footprint. Churn workloads assert
    /// this stays bounded while cumulative allocations grow unbounded.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Slots currently reclaimed and awaiting reuse.
    pub fn free_slots(&self) -> usize {
        self.free_ids.len()
    }

    /// Size in bytes of object `id`.
    pub fn object_size(&self, id: ObjectId) -> usize {
        self.objects[id.0 as usize].size()
    }

    /// Current home node of object `id`.
    pub fn home_of(&self, id: ObjectId) -> NodeId {
        self.objects[id.0 as usize].home()
    }

    /// Control state of object `id` (tests/diagnostics).
    pub fn ctl(&self, id: ObjectId) -> &ObjCtl {
        &self.objects[id.0 as usize]
    }

    /// Striping record of `id`, if it is a striped parent
    /// (tests/diagnostics).
    #[inline]
    pub fn stripe_of(&self, id: ObjectId) -> Option<&StripeInfo> {
        self.objects.stripe(id.0 as usize)
    }

    /// The segments backing `id`, in address order: a striped parent's
    /// children, or `id` itself — an unstriped object is its own
    /// one-segment cover. Borrows, never allocates.
    #[inline]
    pub(crate) fn segments<'a>(&'a self, id: &'a ObjectId) -> &'a [u32] {
        match self.stripe_of(*id) {
            Some(stripe) => &stripe.children,
            None => std::slice::from_ref(&id.0),
        }
    }
}
