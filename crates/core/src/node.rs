//! Per-node DSM state: the DMM allocator, dynamic memory mapper,
//! pinning, and interval bookkeeping.
//!
//! One `NodeState` exists per simulated process, shared (behind a
//! mutex) between the node's application thread and its comm handler.
//! It implements §3.2 (allocation), §3.3 (dynamic mapping, swapping,
//! pinning) and the node-local halves of §3.4/§3.5 (twins, diffs,
//! lock-update application, barrier bookkeeping).
//!
//! DMM offsets are modelled, bytes are per object: the allocator hands
//! out offsets in a `dmm_bytes` space that every mapping decision,
//! charge and report follows, but no host buffer of that size exists.
//! An object's host bytes (and its twin's) are [`CowBytes`] in its
//! control record — nothing until touched, adopted from the reply on a
//! fetch, lent to the reply on a serve, dropped when the object leaves
//! the DMM area.

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;
use lots_disk::{BackingStore, DiskError};
use lots_net::NodeId;
use lots_sim::{CpuModel, DiskQueue, NodeStats, SimClock, SimDuration, SimInstant, TimeCategory};

use crate::alloc::{AllocError, DmmAllocator, FragStats};
use crate::config::{LotsConfig, Placement};
use crate::consistency::locks::WordUpdate;
use crate::cow::CowBytes;
use crate::diff::{CorruptDiff, WordDiff};
use crate::object::{Life, Mapping, NamedAllocReq, ObjCtl, ObjectId, Share, StripeInfo};
use crate::swap::{build_policy, Candidate, ImageTwin, SwapImage, SwapPolicy};

/// Errors surfaced to applications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LotsError {
    /// Object exceeds the maximum single-object size (§4.3: bounded by
    /// the DMM area).
    ObjectTooLarge {
        /// Requested object size in bytes.
        size: usize,
        /// Largest single object this configuration can map.
        max: usize,
    },
    /// §5: every mapped object is pinned by the current statement and
    /// nothing can be swapped out.
    OutOfDmm {
        /// Bytes the failed mapping needed.
        requested: usize,
    },
    /// LOTS-x (no large-object support) requires every object to stay
    /// mapped; allocation beyond the DMM area is a hard error (§1: "the
    /// application is too large to fit in the system").
    LotsXCapacity {
        /// Bytes the failed allocation needed.
        requested: usize,
    },
    /// Backing-store failure (out of disk, missing image).
    Disk(String),
    /// Stored bytes (a swap image or journal record) failed to decode:
    /// truncated or corrupted input is reported deterministically, not
    /// by a panic or an out-of-bounds slice.
    CorruptImage {
        /// Byte offset at which the decoder rejected the stream.
        at: usize,
    },
    /// A diff received from a peer is not a valid encoding, or writes
    /// past the object it names: hostile or damaged wire bytes are a
    /// typed error at the home, not an index panic in its comm turn.
    CorruptDiff {
        /// Byte offset in the encoding at which it was rejected.
        at: usize,
    },
    /// Zero-length allocation: shared objects must hold at least one
    /// element.
    EmptyAlloc,
    /// Access through a handle to a freed object — the lifecycle
    /// analogue of the view-guard fences. Raised from `free` to the
    /// barrier that reclaims the slot, and forever after through any
    /// stale handle.
    UseAfterFree {
        /// The freed object.
        obj: ObjectId,
    },
    /// `free` called with a handle that does not cover the whole
    /// original allocation (an `offset`/`prefix` sub-slice, a length
    /// mismatch, or a foreign handle).
    BadFree {
        /// The object the handle points into.
        obj: ObjectId,
        /// What was wrong with the handle.
        reason: String,
    },
    /// `lookup` of a name with no committed directory entry (never
    /// allocated, not yet committed at a barrier, or reclaimed by a
    /// free).
    NameNotFound {
        /// The looked-up name.
        name: String,
    },
    /// Typed `lookup::<T>` where `T`'s size disagrees with the element
    /// size the object was allocated with.
    NameTypeMismatch {
        /// The looked-up name.
        name: String,
        /// Element size recorded in the directory.
        expected: usize,
        /// Element size of the requested `T`.
        actual: usize,
    },
    /// `alloc_named` with a name already in the directory or already
    /// staged locally this interval.
    DuplicateName {
        /// The conflicting name.
        name: String,
    },
    /// [`Placement::Fixed`] names a node outside the cluster — a
    /// deterministic config error surfaced at alloc time on every
    /// system, never an index panic mid-protocol.
    BadPlacement {
        /// The out-of-range node the placement requested.
        requested: NodeId,
        /// Cluster size (valid nodes are `0..n`).
        n: usize,
    },
}

impl std::fmt::Display for LotsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LotsError::ObjectTooLarge { size, max } => {
                write!(
                    f,
                    "object of {size} bytes exceeds single-object limit {max}"
                )
            }
            LotsError::OutOfDmm { requested } => write!(
                f,
                "no swappable object in DMM area for a {requested}-byte mapping \
                 (all mapped objects pinned by the current statement)"
            ),
            LotsError::LotsXCapacity { requested } => write!(
                f,
                "LOTS-x: DMM area exhausted allocating {requested} bytes \
                 (large-object-space support disabled)"
            ),
            LotsError::Disk(e) => write!(f, "backing store: {e}"),
            LotsError::CorruptImage { at } => {
                write!(f, "corrupt stored image (decode failed at byte {at})")
            }
            LotsError::CorruptDiff { at } => {
                write!(f, "corrupt diff from a peer (rejected at byte {at})")
            }
            LotsError::EmptyAlloc => write!(f, "cannot allocate an empty shared object"),
            LotsError::UseAfterFree { obj } => write!(
                f,
                "use after free: {obj} was freed — handles to it are fenced off \
                 like the view-guard fences"
            ),
            LotsError::BadFree { obj, reason } => {
                write!(f, "free of {obj} rejected: {reason}")
            }
            LotsError::NameNotFound { name } => write!(
                f,
                "no committed object named {name:?} (named allocations materialize \
                 at the next barrier)"
            ),
            LotsError::NameTypeMismatch {
                name,
                expected,
                actual,
            } => write!(
                f,
                "object {name:?} holds {expected}-byte elements, lookup asked for \
                 {actual}-byte elements"
            ),
            LotsError::DuplicateName { name } => {
                write!(f, "an object named {name:?} already exists")
            }
            LotsError::BadPlacement { requested, n } => write!(
                f,
                "Placement::Fixed({requested}) outside the cluster (valid nodes are 0..{n})"
            ),
        }
    }
}

impl std::error::Error for LotsError {}

impl From<DiskError> for LotsError {
    fn from(e: DiskError) -> LotsError {
        LotsError::Disk(e.to_string())
    }
}

impl From<lots_disk::CorruptImage> for LotsError {
    fn from(e: lots_disk::CorruptImage) -> LotsError {
        LotsError::CorruptImage { at: e.at }
    }
}

impl From<CorruptDiff> for LotsError {
    fn from(e: CorruptDiff) -> LotsError {
        LotsError::CorruptDiff { at: e.at }
    }
}

/// Outcome of starting an access: either the object is locally usable,
/// or a clean copy must be fetched from its home first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The local copy is mapped and usable.
    Ready,
    /// The local copy is stale; fetch a clean one from `home` first.
    NeedFetch {
        /// Node currently holding the authoritative copy.
        home: NodeId,
    },
}

/// Outcome of starting a byte-range access (the striping-aware
/// generalization of [`Access`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeAccess {
    /// Unstriped object, mapped and locally usable. Either way the
    /// access runs through [`NodeState::range_read`] or
    /// [`NodeState::range_write`].
    Ready,
    /// Striped object with every covered segment valid, mapped and
    /// pinned.
    Striped,
    /// Stale copies: fetch each `(segment object, home)` pair — from
    /// *distinct* homes in the striped case — then retry.
    Fetch(Vec<(ObjectId, NodeId)>),
}

/// An open critical section: the guarding lock plus CS-entry snapshots
/// of every object written inside it (used to compute the release
/// updates of the homeless write-update protocol).
#[derive(Debug)]
pub struct CsFrame {
    /// The guarding lock.
    pub lock: u32,
    /// CS-entry snapshots of objects written inside, by object id.
    pub cs_twins: HashMap<u32, Bytes>,
}

/// Per-node DSM state.
pub struct NodeState {
    /// This node's rank.
    pub me: NodeId,
    /// Cluster size.
    pub n: usize,
    /// Protocol configuration.
    pub cfg: LotsConfig,
    /// CPU cost model.
    pub cpu: CpuModel,
    alloc: DmmAllocator,
    objects: Vec<ObjCtl>,
    store: Arc<dyn BackingStore>,
    /// The node's virtual clock.
    pub clock: SimClock,
    /// The node's time/counter statistics.
    pub stats: NodeStats,
    /// Statement counter driving the pinning mechanism (§3.3).
    stmt: u64,
    /// Nesting depth of explicit statement guards.
    stmt_depth: u32,
    /// Open critical sections (innermost last).
    cs_stack: Vec<CsFrame>,
    /// Lock updates received for objects not currently materialized;
    /// applied when the object is next installed. word → (ts, value).
    pending_lock_updates: HashMap<u32, HashMap<u32, (u64, u32)>>,
    /// Last-writer-wins guard for the barrier diff phase: object →
    /// word → highest lock release timestamp written there this
    /// interval. Lock-era only: a timestamp of 0 ("never written under
    /// a lock") is never stored, so an interval without critical
    /// sections leaves the map empty.
    barrier_word_guard: HashMap<u32, HashMap<u32, u64>>,
    /// Objects written since the last barrier.
    dirty: Vec<u32>,
    /// Release timestamp of this node's last CS write per object.
    obj_release_ts: HashMap<u32, u64>,
    /// Diffs cached at barrier entry (so later remote applications
    /// cannot contaminate them).
    cached_diffs: HashMap<u32, WordDiff>,
    /// Write-invalidate lock mode: object → node holding the freshest
    /// copy, used instead of the home for the next fetch.
    fetch_override: HashMap<u32, NodeId>,
    /// Victim-selection policy (see [`crate::swap`]).
    policy: Box<dyn SwapPolicy>,
    /// The local disk as a virtual-time device: batched write-behind,
    /// blocking reads, serial service.
    diskq: DiskQueue,
    /// Read-ahead buffer: swap key → (encoded image, completion time of
    /// its in-flight device read).
    prefetched: HashMap<u64, (Vec<u8>, SimInstant)>,
    /// Last demand swap-in, driving the stride predictor.
    last_swapin: Option<u32>,
    /// Logical bytes of objects currently mapped in the DMM area.
    resident_logical: u64,
    /// Logical bytes of objects currently swapped out (`OnDisk`).
    swapped_logical: u64,
    /// Cumulative logical bytes ever materialized locally (zero-fill
    /// maps and home fetches; swap round trips do not re-count).
    materialized_cum: u64,
    /// Cumulative logical bytes de-materialized locally (barrier
    /// invalidations and free reclamation).
    dematerialized_cum: u64,
    /// Object-table slots reclaimed by frees, awaiting reuse (lowest
    /// id first, so reuse is deterministic cluster-wide).
    free_ids: BTreeSet<u32>,
    /// Replicated name directory: name → (slot, element size, len).
    /// Identical on every node — entries change only at barriers.
    names: HashMap<String, NamedEntry>,
    /// Objects freed this interval (tombstoned; reclaimed cluster-wide
    /// at the next barrier).
    freed_pending: Vec<u32>,
    /// Named allocations staged this interval (committed cluster-wide
    /// at the next barrier).
    pending_named: Vec<NamedAllocReq>,
}

/// Outcome of a simulated crash + rejoin (see
/// [`NodeState::crash_rejoin`]): what the rebuild moved, so the caller
/// can charge virtual time and surface rejoin counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejoinSummary {
    /// Home-owned masters peers re-sent into the swap store.
    pub masters_checkpointed: usize,
    /// Cached copies of remote objects lost with the DMM arena.
    pub copies_dropped: usize,
    /// Directory + name-table bytes re-fetched from peers.
    pub directory_bytes: u64,
    /// Logical bytes of rebuilt masters transferred from peer copies.
    pub master_bytes: u64,
}

/// One replicated name-directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NamedEntry {
    id: u32,
    elem_size: usize,
    len: usize,
}

/// A consistent snapshot of the node's swap accounting, used by the
/// `resident + swapped == allocated` invariant tests.
///
/// With the object-lifecycle API the invariant extends across frees:
/// `resident + swapped + dematerialized == cumulative materialized`,
/// where *dematerialized* counts bytes released by barrier
/// invalidations **and** by free reclamation — every byte that was
/// ever locally materialized is either still here or was accounted
/// out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapAccounting {
    /// Logical bytes of mapped objects (incremental counter).
    pub resident_logical: u64,
    /// Logical bytes of swapped-out objects (incremental counter).
    pub swapped_logical: u64,
    /// Logical bytes of all locally materialized objects — every
    /// object whose data lives here, mapped or on disk (independent
    /// scan of the mapping states).
    pub materialized: u64,
    /// Bytes the backing store actually holds (compressed; includes
    /// retained clean images of currently mapped objects).
    pub store_resident: u64,
    /// Cumulative logical bytes ever materialized locally.
    pub materialized_cum: u64,
    /// Cumulative logical bytes released by invalidations and frees.
    pub dematerialized_cum: u64,
    /// Cumulative logical bytes of objects reclaimed by `free` on this
    /// node (whether or not their data was locally materialized at
    /// reclaim time; from the `objects_freed` counters).
    pub freed_bytes: u64,
}

impl NodeState {
    /// Fresh per-node state over the given configuration, cost models
    /// and backing store.
    pub fn new(
        me: NodeId,
        n: usize,
        cfg: LotsConfig,
        cpu: CpuModel,
        store: Arc<dyn BackingStore>,
        clock: SimClock,
        stats: NodeStats,
    ) -> NodeState {
        let alloc = DmmAllocator::with_fit(
            cfg.dmm_bytes,
            cfg.small_threshold,
            cfg.large_threshold,
            cfg.alloc.fit,
        );
        let policy = build_policy(cfg.swap.policy);
        let diskq = DiskQueue::new(store.model());
        NodeState {
            me,
            n,
            alloc,
            objects: Vec::new(),
            store,
            clock,
            stats,
            cpu,
            cfg,
            stmt: 1,
            stmt_depth: 0,
            cs_stack: Vec::new(),
            pending_lock_updates: HashMap::new(),
            barrier_word_guard: HashMap::new(),
            dirty: Vec::new(),
            obj_release_ts: HashMap::new(),
            cached_diffs: HashMap::new(),
            fetch_override: HashMap::new(),
            policy,
            diskq,
            prefetched: HashMap::new(),
            last_swapin: None,
            resident_logical: 0,
            swapped_logical: 0,
            materialized_cum: 0,
            dematerialized_cum: 0,
            free_ids: BTreeSet::new(),
            names: HashMap::new(),
            freed_pending: Vec::new(),
            pending_named: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Allocation (§3.2)
    // ------------------------------------------------------------------

    /// Register a shared object of `size` bytes under the configured
    /// default placement (see [`NodeState::register_object_placed`]).
    pub fn register_object(&mut self, size: usize) -> Result<ObjectId, LotsError> {
        self.register_object_with(size, self.cfg.alloc.placement, false)
    }

    /// Register a shared object with an explicitly chosen placement
    /// (the `*_placed` surface): the placement also overrides the
    /// striping config's per-segment default.
    pub fn register_object_placed(
        &mut self,
        size: usize,
        placement: Placement,
    ) -> Result<ObjectId, LotsError> {
        self.register_object_with(size, placement, true)
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
    /// per-segment child objects with independent homes.
    fn register_object_with(
        &mut self,
        size: usize,
        placement: Placement,
        explicit: bool,
    ) -> Result<ObjectId, LotsError> {
        self.check_placement(placement)?;
        let req_bytes = size;
        let size = size.div_ceil(4) * 4;
        if let Some(striping) = self.cfg.striping {
            let seg_bytes = striping.segment_bytes.max(4).div_ceil(4) * 4;
            if size > seg_bytes {
                let seg_placement = if explicit {
                    placement
                } else {
                    striping.placement
                };
                self.check_placement(seg_placement)?;
                return self.register_striped(req_bytes, size, seg_bytes, placement, seg_placement);
            }
        }
        let id = self.take_slot();
        let (home, home_pending) = self.resolve_placement(id, placement);
        let mut ctl = ObjCtl::new(size, home);
        ctl.req_bytes = req_bytes;
        ctl.home_pending = home_pending;
        self.objects[id.0 as usize] = ctl;
        self.charge(TimeCategory::LargeObject, self.cpu.map_syscall);
        let out = self.map_registered(id).map(|()| id);
        if out.is_err() {
            // A failed registration must not consume the slot: the
            // recoverable try_alloc surface would otherwise leak a
            // phantom Live object (and a reclaimed id) per failure.
            let ctl = &mut self.objects[id.0 as usize];
            debug_assert_eq!(ctl.mapping, Mapping::Unmapped, "failed register never maps");
            ctl.life = Life::Free;
            self.free_ids.insert(id.0);
        }
        self.sync_frag_gauges();
        out
    }

    /// Map a just-registered object as `alloc()` does in the paper:
    /// eagerly, but only while space is free (mmap-like laziness —
    /// allocation must not trigger swap traffic for data that has never
    /// been touched). Under LOTS-x mapping is permanent and mandatory.
    fn map_registered(&mut self, id: ObjectId) -> Result<(), LotsError> {
        if !self.cfg.large_object_space {
            return self.try_map(id).map_err(|e| match e {
                LotsError::OutOfDmm { requested } => LotsError::LotsXCapacity { requested },
                e => e,
            });
        }
        let size = self.objects[id.0 as usize].size;
        match self.alloc.alloc(size) {
            Ok(offset) => {
                self.objects[id.0 as usize].mapping = Mapping::Mapped { offset };
                self.resident_logical += size as u64;
                self.materialized_cum += size as u64;
                Ok(())
            }
            Err(AllocError::NoSpace { .. }) => Ok(()), // lazy (§3.3)
            Err(AllocError::TooLarge { size, max }) => Err(LotsError::ObjectTooLarge { size, max }),
        }
    }

    /// Lowest reclaimed slot, else a fresh one.
    fn take_slot(&mut self) -> ObjectId {
        match self.free_ids.iter().next().copied() {
            Some(id) => {
                self.free_ids.remove(&id);
                debug_assert_eq!(self.objects[id as usize].life, Life::Free);
                ObjectId(id)
            }
            None => {
                let id = self.objects.len() as u32;
                // Placeholder; the caller overwrites the slot.
                self.objects.push(ObjCtl::new(4, 0));
                ObjectId(id)
            }
        }
    }

    /// Validate a [`Placement`] against the cluster size: `Fixed` homes
    /// outside `0..n` are a deterministic alloc-time config error.
    fn check_placement(&self, placement: Placement) -> Result<(), LotsError> {
        match placement {
            Placement::Fixed(node) if node >= self.n => Err(LotsError::BadPlacement {
                requested: node,
                n: self.n,
            }),
            _ => Ok(()),
        }
    }

    /// Resolve a (pre-validated) [`Placement`] into (initial home,
    /// home-pending flag).
    fn resolve_placement(&self, id: ObjectId, placement: Placement) -> (NodeId, bool) {
        let round_robin = (id.0 as usize) % self.n;
        match placement {
            Placement::RoundRobin => (round_robin, false),
            Placement::Fixed(node) => {
                debug_assert!(node < self.n, "Fixed placement validated at entry");
                (node, false)
            }
            // Provisional home; never serves a fetch (all copies stay
            // zero-valid until the first write barrier assigns the
            // real home to the first writer).
            Placement::FirstTouch => (round_robin, true),
            Placement::ConsistentHash => ((stripe_hash(id.0, 0) as usize) % self.n, false),
        }
    }

    /// Per-segment home of a striped allocation: the directory's
    /// `(object, segment) → home` map, evaluated identically on every
    /// node.
    fn resolve_segment_placement(
        &self,
        parent: u32,
        seg: u32,
        placement: Placement,
    ) -> (NodeId, bool) {
        let rotated = (parent as usize + seg as usize) % self.n;
        match placement {
            Placement::RoundRobin => (rotated, false),
            Placement::Fixed(node) => {
                debug_assert!(node < self.n, "Fixed placement validated at entry");
                (node, false)
            }
            Placement::FirstTouch => (rotated, true),
            Placement::ConsistentHash => ((stripe_hash(parent, seg) as usize) % self.n, false),
        }
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
    ) -> Result<ObjectId, LotsError> {
        let nsegs = size.div_ceil(seg_bytes);
        let parent = self.take_slot();
        let (home, home_pending) = self.resolve_placement(parent, parent_placement);
        let mut ctl = ObjCtl::new(size, home);
        ctl.req_bytes = req_bytes;
        ctl.home_pending = home_pending;
        self.objects[parent.0 as usize] = ctl;
        self.charge(TimeCategory::LargeObject, self.cpu.map_syscall);
        let mut children = Vec::with_capacity(nsegs);
        let mut failed = None;
        for s in 0..nsegs {
            let child_size = seg_bytes.min(size - s * seg_bytes);
            let cid = self.take_slot();
            let (chome, cpending) =
                self.resolve_segment_placement(parent.0, s as u32, seg_placement);
            let mut cctl = ObjCtl::new(child_size, chome);
            cctl.home_pending = cpending;
            cctl.parent = Some((parent.0, s as u32));
            self.objects[cid.0 as usize] = cctl;
            children.push(cid.0);
            self.charge(TimeCategory::LargeObject, self.cpu.map_syscall);
            // Segment by segment, like the unstriped path.
            if let Err(e) = self.map_registered(cid) {
                failed = Some(e);
                break;
            }
        }
        if let Some(e) = failed {
            // Unwind: a failed registration must not consume any slot.
            for &c in children.iter().rev() {
                let cid = ObjectId(c);
                if self.objects[c as usize].offset().is_some() {
                    self.invalidate_local(cid)?;
                }
                let cctl = &mut self.objects[c as usize];
                cctl.parent = None;
                cctl.life = Life::Free;
                self.free_ids.insert(c);
            }
            let pctl = &mut self.objects[parent.0 as usize];
            pctl.life = Life::Free;
            self.free_ids.insert(parent.0);
            self.sync_frag_gauges();
            return Err(e);
        }
        self.objects[parent.0 as usize].stripe = Some(StripeInfo {
            seg_bytes,
            children,
        });
        self.sync_frag_gauges();
        Ok(parent)
    }

    /// Refresh the fragmentation gauges mirrored into [`NodeStats`].
    fn sync_frag_gauges(&self) {
        let frag = self.alloc.frag_stats();
        self.stats
            .set_dmm_gauges(frag.free_bytes, frag.largest_hole);
    }

    /// Snapshot the DMM allocator's fragmentation state.
    pub fn frag_stats(&self) -> FragStats {
        self.alloc.frag_stats()
    }

    // ------------------------------------------------------------------
    // Object lifecycle: free, named objects (tombstone → barrier
    // reclamation; see the module docs of `api`)
    // ------------------------------------------------------------------

    /// Free a live object: tombstone it immediately (every further
    /// application access errors with [`LotsError::UseAfterFree`]) and
    /// stage it for cluster-wide reclamation at the next barrier.
    /// `req_bytes` must match the original allocation — sub-slice
    /// handles cannot free.
    pub fn free_object(&mut self, id: ObjectId, req_bytes: usize) -> Result<(), LotsError> {
        let idx = id.0 as usize;
        if idx >= self.objects.len() || self.objects[idx].life != Life::Live {
            return Err(LotsError::UseAfterFree { obj: id });
        }
        if self.objects[idx].req_bytes != req_bytes {
            return Err(LotsError::BadFree {
                obj: id,
                reason: format!(
                    "handle covers {req_bytes} bytes, the allocation holds {}",
                    self.objects[idx].req_bytes
                ),
            });
        }
        self.objects[idx].life = Life::Tombstoned;
        // The tombstone publishes nothing: drop any pending write
        // notice so the barrier plan never schedules diffs for it.
        self.dirty.retain(|&o| o != id.0);
        self.freed_pending.push(id.0);
        // A striped parent frees its segment children with it: the
        // whole family is tombstoned now and reclaimed at the barrier.
        if let Some(stripe) = self.objects[idx].stripe.clone() {
            for &c in &stripe.children {
                self.objects[c as usize].life = Life::Tombstoned;
                self.dirty.retain(|&o| o != c);
                self.freed_pending.push(c);
            }
        }
        Ok(())
    }

    /// Stage a named allocation for commit at the next barrier. The
    /// placement is validated eagerly so a bad `Fixed` home errors at
    /// alloc time, not inside the barrier's deterministic commit replay.
    pub fn stage_named(&mut self, req: NamedAllocReq) -> Result<(), LotsError> {
        if self.names.contains_key(&req.name)
            || self.pending_named.iter().any(|p| p.name == req.name)
        {
            return Err(LotsError::DuplicateName { name: req.name });
        }
        if req.len == 0 {
            return Err(LotsError::EmptyAlloc);
        }
        self.check_placement(req.placement)?;
        if let Some(striping) = self.cfg.striping {
            if !req.placement_explicit {
                self.check_placement(striping.placement)?;
            }
        }
        self.pending_named.push(req);
        Ok(())
    }

    /// Resolve a committed name into its object, checking the element
    /// size recorded in the replicated directory.
    pub fn lookup_named(
        &self,
        name: &str,
        elem_size: usize,
    ) -> Result<(ObjectId, usize), LotsError> {
        let entry = self
            .names
            .get(name)
            .ok_or_else(|| LotsError::NameNotFound {
                name: name.to_string(),
            })?;
        if self.objects[entry.id as usize].life != Life::Live {
            return Err(LotsError::UseAfterFree {
                obj: ObjectId(entry.id),
            });
        }
        if entry.elem_size != elem_size {
            return Err(LotsError::NameTypeMismatch {
                name: name.to_string(),
                expected: entry.elem_size,
                actual: elem_size,
            });
        }
        Ok((ObjectId(entry.id), entry.len))
    }

    /// Take the interval's staged frees and named allocations for the
    /// barrier rendezvous.
    pub fn take_lifecycle(&mut self) -> (Vec<ObjectId>, Vec<NamedAllocReq>) {
        let frees = std::mem::take(&mut self.freed_pending)
            .into_iter()
            .map(ObjectId)
            .collect();
        (frees, std::mem::take(&mut self.pending_named))
    }

    /// Reclaim one freed slot at a barrier: release its DMM block or
    /// swap image (through the same path barrier invalidation uses),
    /// drop its directory entry, and return the id to the free list
    /// for reuse.
    fn reclaim(&mut self, id: ObjectId) -> Result<(), LotsError> {
        let idx = id.0 as usize;
        debug_assert_ne!(
            self.objects[idx].life,
            Life::Free,
            "{id} reclaimed twice in one barrier"
        );
        let size = self.objects[idx].size as u64;
        self.invalidate_local(id)?;
        debug_assert!(
            matches!(self.store.get(id.0 as u64), Err(DiskError::NotFound(_))),
            "freed {id} must leave no swap image behind"
        );
        // The munmap/unlink analogue of the reclamation pass.
        self.charge(TimeCategory::LargeObject, self.cpu.map_syscall);
        // Stripe children ride their parent's reclamation: the parent
        // alone counts the free (with the full logical size), so the
        // app-facing counter stays one event per `free` call.
        if self.objects[idx].parent.is_none() {
            self.stats.count_object_freed(size);
        }
        if let Some(name) = self.objects[idx].name.take() {
            self.names.remove(&name);
        }
        let ctl = &mut self.objects[idx];
        ctl.twin = None;
        ctl.written = false;
        ctl.home_pending = false;
        ctl.stripe = None;
        ctl.parent = None;
        ctl.life = Life::Free;
        self.free_ids.insert(id.0);
        Ok(())
    }

    /// Commit one barrier-agreed named allocation (every node replays
    /// the same list in the same order, so the ids agree).
    fn commit_named(&mut self, req: &NamedAllocReq) -> Result<(), LotsError> {
        assert!(
            !self.names.contains_key(&req.name),
            "named object {:?} committed twice (two nodes staged the same name \
             in one interval)",
            req.name
        );
        let id = self.register_object_with(req.bytes, req.placement, req.placement_explicit)?;
        self.objects[id.0 as usize].name = Some(req.name.clone());
        self.names.insert(
            req.name.clone(),
            NamedEntry {
                id: id.0,
                elem_size: req.elem_size,
                len: req.len,
            },
        );
        Ok(())
    }

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
        self.objects[id.0 as usize].size
    }

    /// Current home node of object `id`.
    pub fn home_of(&self, id: ObjectId) -> NodeId {
        self.objects[id.0 as usize].home
    }

    /// Control state of object `id` (tests/diagnostics).
    pub fn ctl(&self, id: ObjectId) -> &ObjCtl {
        &self.objects[id.0 as usize]
    }

    fn charge(&self, cat: TimeCategory, d: SimDuration) {
        self.clock.advance(d);
        self.stats.charge(cat, d);
    }

    // ------------------------------------------------------------------
    // Dynamic memory mapping and swapping (§3.3)
    // ------------------------------------------------------------------

    /// Map `id` into the DMM area, swapping out victims as needed, and
    /// apply the lock updates that were parked while it was not.
    fn try_map(&mut self, id: ObjectId) -> Result<(), LotsError> {
        if self.objects[id.0 as usize].offset().is_none() {
            self.map_in(id)?;
            self.apply_pending_updates(id);
        }
        Ok(())
    }

    /// Give unmapped `id` a DMM block and its host bytes: the decoded
    /// swap image if it sat on disk, nothing (it reads as zeros until
    /// touched, or until a fetch installs a copy) if it never mapped.
    fn map_in(&mut self, id: ObjectId) -> Result<(), LotsError> {
        let idx = id.0 as usize;
        let size = self.objects[idx].size;
        let offset = loop {
            match self.alloc.alloc(size) {
                Ok(off) => break off,
                Err(AllocError::TooLarge { size, max }) => {
                    return Err(LotsError::ObjectTooLarge { size, max })
                }
                Err(AllocError::NoSpace { size }) => {
                    if !self.cfg.large_object_space {
                        return Err(LotsError::LotsXCapacity { requested: size });
                    }
                    if !self.evict_some()? {
                        return Err(LotsError::OutOfDmm { requested: size });
                    }
                }
            }
        };
        self.charge(TimeCategory::LargeObject, self.cpu.map_syscall);
        debug_assert!(
            self.objects[idx].data.peek().is_none(),
            "unmapped {id} held bytes"
        );
        match self.objects[idx].mapping {
            Mapping::OnDisk => {
                // The image stays on disk: while the in-memory copy is
                // unmodified, a later eviction is free of disk writes.
                debug_assert!(self.objects[idx].clean_on_disk);
                let img = self.fetch_image(id.0 as u64)?;
                let (data, twin) = SwapImage::decode(&img, size)?;
                if self.cfg.swap.compress {
                    // One decode pass over the object's words.
                    self.charge(TimeCategory::LargeObject, self.cpu.diffing(size as u64));
                }
                let ctl = &mut self.objects[idx];
                ctl.data = data.into_owned().into();
                // A barrier may have retired the interval while the
                // object sat on disk; only restore a live twin.
                if let Some(live) = &mut ctl.twin {
                    *live = match twin {
                        ImageTwin::Zero => CowBytes::zero(size),
                        ImageTwin::Bytes(tw) => tw.into_owned().into(),
                        ImageTwin::None => unreachable!("dirty object swapped without twin"),
                    };
                }
                self.swapped_logical -= size as u64;
                if self.cfg.swap.read_ahead {
                    self.issue_read_ahead(id.0);
                }
            }
            Mapping::Unmapped => self.materialized_cum += size as u64,
            Mapping::Mapped { .. } => unreachable!("only unmapped objects are mapped in"),
        }
        self.objects[idx].mapping = Mapping::Mapped { offset };
        self.resident_logical += size as u64;
        self.sync_frag_gauges();
        Ok(())
    }

    /// Obtain the encoded swap image of `key`, either from the
    /// read-ahead buffer or through a demand read on the disk device,
    /// waiting (in virtual time) for the device to deliver it.
    fn fetch_image(&mut self, key: u64) -> Result<Vec<u8>, LotsError> {
        let (img, ready) = match self.prefetched.remove(&key) {
            Some(hit) => {
                self.stats.count_prefetch_hit();
                hit
            }
            None => {
                // The store's own duration is superseded by the device
                // queue, which also orders this read after any pending
                // write-back.
                let (img, _store_time) = self.store.get(key)?;
                let op = self.diskq.read(self.clock.now(), img.len() as u64);
                (img, op.done)
            }
        };
        let before = self.clock.now();
        let now = self.clock.advance_to(ready);
        self.stats
            .charge(TimeCategory::Disk, now.saturating_sub(before));
        self.stats.count_swap_in(img.len() as u64);
        Ok(img)
    }

    /// Stride prediction for the read-ahead: two stripe children of the
    /// same parent stride in *segment* space (so a sequential scan of a
    /// striped object prefetches the next segment, whatever slot ids
    /// the children landed on); two plain objects stride in id space as
    /// before. A mixed pair predicts nothing.
    fn predict_next(&self, last: u32, obj: u32) -> Option<u32> {
        match (
            self.objects[last as usize].parent,
            self.objects[obj as usize].parent,
        ) {
            (Some((lp, ls)), Some((op, os))) if lp == op => {
                let stripe = self.objects[op as usize].stripe.as_ref()?;
                let next = os as i64 + (os as i64 - ls as i64);
                (next >= 0 && (next as usize) < stripe.children.len())
                    .then(|| stripe.children[next as usize])
            }
            (None, None) => {
                let p = obj as i64 + (obj as i64 - last as i64);
                (p >= 0 && (p as usize) < self.objects.len()).then_some(p as u32)
            }
            _ => None,
        }
    }

    /// Stride read-ahead: after the demand swap-in of `obj`, predict
    /// the next swapped-out object from the recent swap-in stride and
    /// start its device read so the data is (often) already local when
    /// the predicted access arrives.
    fn issue_read_ahead(&mut self, obj: u32) {
        let predicted = match self.last_swapin {
            Some(last) if last != obj => self.predict_next(last, obj),
            _ => None,
        };
        self.last_swapin = Some(obj);
        let Some(pred) = predicted else { return };
        let key = pred as u64;
        if self.prefetched.contains_key(&key)
            || self.objects[pred as usize].mapping != Mapping::OnDisk
        {
            return;
        }
        let Ok((img, _store_time)) = self.store.get(key) else {
            return;
        };
        let op = self.diskq.read(self.clock.now(), img.len() as u64);
        self.prefetched.insert(key, (img, op.done));
    }

    /// Free DMM space by evicting up to [`crate::config::SwapConfig::batch_evict`]
    /// policy-chosen victims in one batched write-back trip. Only
    /// objects untouched by the current statement are candidates — the
    /// pinning fence of §3.3, enforced here and not in the policy.
    /// Returns `false` when everything mapped is pinned.
    fn evict_some(&mut self) -> Result<bool, LotsError> {
        let mut candidates: Vec<Candidate> = self
            .objects
            .iter()
            .enumerate()
            .filter(|(_, ctl)| ctl.offset().is_some() && ctl.last_access < self.stmt)
            .map(|(idx, ctl)| Candidate {
                obj: idx as u32,
                last_access: ctl.last_access,
                size: ctl.size,
            })
            .collect();
        if candidates.is_empty() {
            return Ok(false);
        }
        let batch = self.cfg.swap.batch_evict.max(1).min(candidates.len());
        let mut victims = Vec::with_capacity(batch);
        for _ in 0..batch {
            let v = self
                .policy
                .choose(&candidates)
                // A policy declining to choose defers to LRU order.
                .or_else(|| crate::swap::LruPolicy.choose(&candidates))
                .expect("LRU always picks from a non-empty candidate list");
            candidates.retain(|c| c.obj != v);
            victims.push(v);
            if candidates.is_empty() {
                break;
            }
        }
        self.swap_out_batch(&victims)?;
        Ok(true)
    }

    /// Write the victims' images (for those whose disk copy is stale)
    /// in one batched device trip and release their DMM blocks. The
    /// write-back is asynchronous: the application does not stall on
    /// it — a later read on the busy device absorbs the cost.
    fn swap_out_batch(&mut self, victims: &[u32]) -> Result<(), LotsError> {
        let mut write_sizes = Vec::with_capacity(victims.len());
        for &v in victims {
            let idx = v as usize;
            let ctl = &mut self.objects[idx];
            let (offset, size) = (ctl.offset().expect("victims are mapped"), ctl.size);
            if !ctl.clean_on_disk {
                // An untouched twin is all zeros, which the image
                // elides: the empty slice says so without allocating.
                let twin = ctl.twin.as_ref().map(|t| t.peek().unwrap_or(&[]));
                let img = SwapImage::encode(ctl.data.read(), twin, self.cfg.swap.compress);
                if self.cfg.swap.compress {
                    // One encode pass over the object's words.
                    self.charge(TimeCategory::LargeObject, self.cpu.diffing(size as u64));
                }
                let stored = img.len() as u64;
                // Store the bytes now (host-side); the device trip below
                // carries the virtual-time cost.
                self.store.put(v as u64, &img)?;
                self.objects[idx].clean_on_disk = true;
                self.stats.count_swap_out(stored);
                write_sizes.push(stored);
            }
            self.charge(TimeCategory::LargeObject, self.cpu.map_syscall);
            self.alloc.free(offset);
            let ctl = &mut self.objects[idx];
            ctl.mapping = Mapping::OnDisk;
            // The image holds the bytes now, the twin's included.
            ctl.data = CowBytes::zero(size);
            if let Some(twin) = &mut ctl.twin {
                *twin = CowBytes::zero(size);
            }
            self.resident_logical -= size as u64;
            self.swapped_logical += size as u64;
            self.policy.on_remove(v);
        }
        if !write_sizes.is_empty() {
            self.diskq.write_batch(self.clock.now(), &write_sizes);
            self.stats.count_swap_batch();
        }
        self.sync_frag_gauges();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Statements and pinning (§3.3)
    // ------------------------------------------------------------------

    /// Begin an explicit statement: objects accessed until `exit_stmt`
    /// share one pin scope (like all operands of `a[5]=b[5]+c[5]`).
    pub fn enter_stmt(&mut self) {
        if self.stmt_depth == 0 {
            self.stmt += 1;
        }
        self.stmt_depth += 1;
    }

    /// Close the innermost statement scope (see
    /// [`NodeState::enter_stmt`]).
    pub fn exit_stmt(&mut self) {
        debug_assert!(self.stmt_depth > 0);
        self.stmt_depth -= 1;
    }

    fn current_stmt(&mut self) -> u64 {
        if self.stmt_depth == 0 {
            // Implicit statement: each bare access is its own scope.
            self.stmt += 1;
        }
        self.stmt
    }

    // ------------------------------------------------------------------
    // Access path (§3.3)
    // ------------------------------------------------------------------

    /// Run the access check for `checks` element accesses to `id`
    /// (the §4.2-measured 20–25 ns lookup, plus pinning when the
    /// large-object space is enabled), map the object, and create twins
    /// for writes. Returns `NeedFetch` if the local copy is stale — the
    /// caller fetches from the home and calls [`NodeState::install_fetch`].
    pub fn begin_access(
        &mut self,
        id: ObjectId,
        write: bool,
        checks: u64,
    ) -> Result<Access, LotsError> {
        if self.objects[id.0 as usize].life != Life::Live {
            // The status-checking routine is exactly where a freed
            // object is fenced off — same mechanism as a swap check.
            return Err(LotsError::UseAfterFree { obj: id });
        }
        let stmt = self.current_stmt();
        self.stats.count_access_checks(checks);
        let check_t = self.cpu.checks(checks);
        self.clock.advance(check_t);
        self.stats.charge(TimeCategory::AccessCheck, check_t);
        if self.cfg.large_object_space {
            let pin_t = SimDuration(self.cpu.pin_update.0 * checks);
            self.clock.advance(pin_t);
            self.stats.charge(TimeCategory::LargeObject, pin_t);
        }
        let idx = id.0 as usize;
        if !self.objects[idx].locally_valid() {
            let target = self
                .fetch_override
                .get(&id.0)
                .copied()
                .unwrap_or(self.objects[idx].home);
            return Ok(Access::NeedFetch { home: target });
        }
        self.try_map(id)?;
        if self.objects[idx].last_access != stmt {
            // One policy touch per distinct statement: reference bits
            // and segment promotion track statements, not element ops.
            self.policy.on_access(id.0);
        }
        self.objects[idx].last_access = stmt;
        if write {
            self.prepare_write(id);
        }
        Ok(Access::Ready)
    }

    /// Striping-aware access: run the §4.2 check once per guard on the
    /// parent handle, then resolve the byte range. Unstriped objects
    /// delegate to [`NodeState::begin_access`]; striped objects check
    /// only the *covered* segments, returning every stale one (with its
    /// own home) in a single [`RangeAccess::Fetch`] so the caller fans
    /// the fetches out in parallel.
    pub fn begin_access_range(
        &mut self,
        id: ObjectId,
        bytes: &Range<usize>,
        write: bool,
        checks: u64,
    ) -> Result<RangeAccess, LotsError> {
        if self.objects[id.0 as usize].life != Life::Live {
            return Err(LotsError::UseAfterFree { obj: id });
        }
        if self.objects[id.0 as usize].stripe.is_none() {
            return match self.begin_access(id, write, checks)? {
                Access::Ready => Ok(RangeAccess::Ready),
                Access::NeedFetch { home } => Ok(RangeAccess::Fetch(vec![(id, home)])),
            };
        }
        // One status check per guard (§4.2), charged on the parent —
        // striping does not multiply the software check cost.
        let stmt = self.current_stmt();
        self.stats.count_access_checks(checks);
        let check_t = self.cpu.checks(checks);
        self.clock.advance(check_t);
        self.stats.charge(TimeCategory::AccessCheck, check_t);
        if self.cfg.large_object_space {
            let pin_t = SimDuration(self.cpu.pin_update.0 * checks);
            self.clock.advance(pin_t);
            self.stats.charge(TimeCategory::LargeObject, pin_t);
        }
        let stripe = self.objects[id.0 as usize]
            .stripe
            .clone()
            .expect("checked above");
        let first = bytes.start / stripe.seg_bytes;
        let last = bytes.end.saturating_sub(1).max(bytes.start) / stripe.seg_bytes;
        let mut fetches = Vec::new();
        for s in first..=last {
            let c = stripe.children[s];
            if !self.objects[c as usize].locally_valid() {
                let target = self
                    .fetch_override
                    .get(&c)
                    .copied()
                    .unwrap_or(self.objects[c as usize].home);
                fetches.push((ObjectId(c), target));
            }
        }
        if !fetches.is_empty() {
            return Ok(RangeAccess::Fetch(fetches));
        }
        for s in first..=last {
            let cid = ObjectId(stripe.children[s]);
            self.try_map(cid)?;
            let cidx = cid.0 as usize;
            if self.objects[cidx].last_access != stmt {
                self.policy.on_access(cid.0);
            }
            // The pin stamp lands on each covered segment: earlier
            // segments of this guard are fenced against eviction while
            // later ones map in.
            self.objects[cidx].last_access = stmt;
            if write {
                self.prepare_write(cid);
            }
        }
        Ok(RangeAccess::Striped)
    }

    /// The covered segments of striped range `bytes` of `id`, and
    /// whether they can run piece by piece in place: always, unless the
    /// range spans segments whose size is not a multiple of `elem`, so
    /// that an element can straddle two of them.
    fn stripe_cover(
        &self,
        id: ObjectId,
        bytes: &Range<usize>,
        elem: usize,
    ) -> (Range<usize>, bool) {
        let seg_bytes = self.stripe_of(id).expect("a striped object").seg_bytes;
        let first = bytes.start / seg_bytes;
        let last = bytes.end.saturating_sub(1).max(bytes.start) / seg_bytes;
        (
            first..last + 1,
            first == last || seg_bytes.is_multiple_of(elem),
        )
    }

    /// Segment `s` of striped `id`: its child's slot, and the part of
    /// the child that range `bytes` of the parent covers.
    fn stripe_piece(&self, id: ObjectId, bytes: &Range<usize>, s: usize) -> (usize, Range<usize>) {
        let stripe = self.stripe_of(id).expect("a striped object");
        let seg_start = s * stripe.seg_bytes;
        let child = stripe.children[s] as usize;
        let ctl = &self.objects[child];
        debug_assert!(ctl.offset().is_some(), "covered segment pinned and mapped");
        let from = bytes.start.max(seg_start) - seg_start;
        let to = bytes.end.min(seg_start + ctl.size) - seg_start;
        (child, from..to)
    }

    /// Striped range `bytes` of `id`, gathered into one buffer.
    fn stripe_gather(&mut self, id: ObjectId, bytes: &Range<usize>, segs: Range<usize>) -> Vec<u8> {
        let mut buf = Vec::with_capacity(bytes.len());
        for s in segs {
            let (child, piece) = self.stripe_piece(id, bytes, s);
            buf.extend_from_slice(&self.objects[child].data.read()[piece]);
        }
        debug_assert_eq!(buf.len(), bytes.len(), "gather covered the whole range");
        buf
    }

    /// Run `f` over byte range `bytes` of `id`, which
    /// [`NodeState::begin_access_range`] found ready. `f` sees the
    /// range in place in the object's own buffer: as one piece at
    /// offset 0 for an unstriped object; for a striped one piece by
    /// piece in address order — one call per covered segment with the
    /// piece's byte offset within the range — so a view decodes from
    /// the segments directly. Pieces hold whole `elem`-byte elements;
    /// only when an element can straddle two segments is a spanning
    /// range gathered into a staging buffer and run as one piece. Pure
    /// data movement with no virtual-time charge either way.
    pub fn range_read(
        &mut self,
        id: ObjectId,
        bytes: &Range<usize>,
        elem: usize,
        mut f: impl FnMut(usize, &[u8]),
    ) {
        if self.stripe_of(id).is_none() {
            return f(0, &self.object_bytes(id)[bytes.clone()]);
        }
        let (segs, in_place) = self.stripe_cover(id, bytes, elem);
        if !in_place {
            return f(0, &self.stripe_gather(id, bytes, segs));
        }
        let mut at = 0;
        for s in segs {
            let (child, piece) = self.stripe_piece(id, bytes, s);
            let len = piece.len();
            f(at, &self.objects[child].data.read()[piece]);
            at += len;
        }
        debug_assert_eq!(at, bytes.len(), "pieces covered the whole range");
    }

    /// The writing counterpart of [`NodeState::range_read`] (the access
    /// must have been begun for writing): `f` encodes into the object
    /// or its segments directly, and a staged range is scattered back.
    pub fn range_write(
        &mut self,
        id: ObjectId,
        bytes: &Range<usize>,
        elem: usize,
        mut f: impl FnMut(usize, &mut [u8]),
    ) {
        if self.stripe_of(id).is_none() {
            return f(0, &mut self.object_bytes_mut(id)[bytes.clone()]);
        }
        let (segs, in_place) = self.stripe_cover(id, bytes, elem);
        let staged = (!in_place).then(|| {
            let mut buf = self.stripe_gather(id, bytes, segs.clone());
            f(0, &mut buf);
            buf
        });
        let mut at = 0;
        for s in segs {
            let (child, piece) = self.stripe_piece(id, bytes, s);
            let len = piece.len();
            let target = &mut self.objects[child].data.write()[piece];
            match &staged {
                None => f(at, target),
                Some(buf) => target.copy_from_slice(&buf[at..at + len]),
            }
            at += len;
        }
        debug_assert_eq!(at, bytes.len(), "pieces covered the whole range");
    }

    /// The in-memory copy is about to diverge from the disk image:
    /// drop the stale image and clear the clean flag.
    fn mark_mutated(&mut self, idx: usize) {
        if self.objects[idx].clean_on_disk {
            self.store
                .remove(idx as u64)
                .expect("clean_on_disk implies a stored image");
            self.objects[idx].clean_on_disk = false;
        }
    }

    /// Twin creation (interval twin + CS twin) ahead of a write. Both
    /// share the pre-write bytes; the interval's one copy is made when
    /// the writer first takes them mutably.
    fn prepare_write(&mut self, id: ObjectId) {
        let idx = id.0 as usize;
        self.mark_mutated(idx);
        let ctl = &mut self.objects[idx];
        if ctl.twin.is_none() {
            ctl.twin = Some(ctl.data.snapshot());
            let size = ctl.size as u64;
            self.charge(TimeCategory::Diffing, self.cpu.diffing(size));
        }
        let ctl = &mut self.objects[idx];
        if !ctl.written {
            ctl.written = true;
            self.dirty.push(id.0);
        }
        if let Some(frame) = self.cs_stack.last_mut() {
            frame
                .cs_twins
                .entry(id.0)
                .or_insert_with(|| ctl.data.share());
        }
    }

    /// Raw bytes of a mapped object (after `begin_access` returned
    /// `Ready`).
    pub fn object_bytes(&mut self, id: ObjectId) -> &[u8] {
        let ctl = &mut self.objects[id.0 as usize];
        debug_assert!(ctl.offset().is_some(), "{id} is not mapped");
        ctl.data.read()
    }

    /// Mutable raw bytes of a mapped object (after `begin_access` for
    /// writing returned `Ready`).
    pub fn object_bytes_mut(&mut self, id: ObjectId) -> &mut [u8] {
        let ctl = &mut self.objects[id.0 as usize];
        debug_assert!(ctl.offset().is_some(), "{id} is not mapped");
        ctl.data.write()
    }

    /// Install a clean copy fetched from the home: the reply payload
    /// becomes the object's bytes as it is.
    pub fn install_fetch(
        &mut self,
        id: ObjectId,
        bytes: Bytes,
        version: u64,
    ) -> Result<(), LotsError> {
        let idx = id.0 as usize;
        debug_assert_eq!(bytes.len(), self.objects[idx].size);
        self.objects[idx].share = Share::Valid; // must precede mapping
        if self.objects[idx].offset().is_none() {
            self.map_in(id)?;
        }
        self.objects[idx].data = bytes.into();
        self.objects[idx].version = version;
        self.mark_mutated(idx);
        self.fetch_override.remove(&id.0);
        self.apply_pending_updates(id);
        Ok(())
    }

    /// Write-invalidate lock mode (§3.4 ablation): drop the local copy
    /// and redirect the next fetch to the last releaser.
    pub fn wi_invalidate(&mut self, id: ObjectId, holder: NodeId) -> Result<(), LotsError> {
        if holder == self.me || self.objects[id.0 as usize].life != Life::Live {
            return Ok(());
        }
        self.invalidate_local(id)?;
        self.sync_frag_gauges();
        self.fetch_override.insert(id.0, holder);
        Ok(())
    }

    /// Release timestamp of this node's last CS write to `id` this
    /// interval (0 if the object was only written outside locks).
    pub fn release_ts_of(&self, id: ObjectId) -> u64 {
        self.obj_release_ts.get(&id.0).copied().unwrap_or(0)
    }

    /// Charge `n` bare access checks (workload cost-model hook for
    /// re-accesses of already-resolved objects, e.g. `b[i][j±1]` after
    /// `b[i][j]` — each is still a checked access in LOTS).
    pub fn charge_checks(&mut self, n: u64) {
        self.stats.count_access_checks(n);
        let check_t = self.cpu.checks(n);
        self.clock.advance(check_t);
        self.stats.charge(TimeCategory::AccessCheck, check_t);
        if self.cfg.large_object_space {
            let pin_t = SimDuration(self.cpu.pin_update.0 * n);
            self.clock.advance(pin_t);
            self.stats.charge(TimeCategory::LargeObject, pin_t);
        }
    }

    /// Serve a read of the full object (comm handler). Usually the home
    /// serves; under the write-invalidate lock ablation the last
    /// releaser may serve instead. Either way the local copy must be
    /// clean — a stale server is a protocol bug.
    pub fn serve_object(&mut self, id: ObjectId) -> Result<(Bytes, u64), LotsError> {
        let idx = id.0 as usize;
        assert!(
            self.objects[idx].locally_valid(),
            "node {} asked to serve stale {id} (home {})",
            self.me,
            self.objects[idx].home
        );
        self.try_map(id)?;
        let ctl = &mut self.objects[idx];
        // Snapshot versioning: a stripe segment being written this
        // interval serves its *twin* — the immutable copy published
        // at the last barrier — so readers pin that version and
        // never observe the in-flight writer. (Untouched segments
        // serve their data, which *is* the published version.)
        let published = match &mut ctl.twin {
            Some(twin) if ctl.parent.is_some() => twin,
            _ => &mut ctl.data,
        };
        // Lent, not copied: the transport fragments the version's own
        // buffer by slicing, and a later write here copies away from it.
        Ok((published.share(), ctl.version))
    }

    // ------------------------------------------------------------------
    // Lock-path updates (§3.4 homeless write-update, §3.5 diffs)
    // ------------------------------------------------------------------

    /// Open a critical section guarded by `lock`.
    pub fn enter_cs(&mut self, lock: u32) {
        self.cs_stack.push(CsFrame {
            lock,
            cs_twins: HashMap::new(),
        });
    }

    /// Close the innermost critical section and return the updates made
    /// inside it (per object: the words changed since CS entry).
    pub fn exit_cs(&mut self, lock: u32, release_ts: u64) -> Vec<(ObjectId, WordDiff)> {
        let frame = self.cs_stack.pop().expect("exit_cs without enter_cs");
        debug_assert_eq!(frame.lock, lock, "unbalanced lock nesting");
        let mut updates = Vec::with_capacity(frame.cs_twins.len());
        for (obj, snapshot) in frame.cs_twins {
            let id = ObjectId(obj);
            let ctl = &mut self.objects[obj as usize];
            debug_assert!(
                ctl.offset().is_some(),
                "CS-written object is pinned and mapped"
            );
            let size = ctl.size;
            let diff = WordDiff::compute(&snapshot, ctl.data.read());
            self.charge(TimeCategory::Diffing, self.cpu.diffing(size as u64));
            if !diff.is_empty() {
                // Release timestamps start at 1, so 0 stays free to
                // mean "no lock wrote this" here and in the guard.
                debug_assert!(release_ts > 0, "lock release timestamps start at 1");
                self.obj_release_ts.insert(obj, release_ts);
                // Seed the barrier word guard NOW, not at barrier
                // entry: if this node ends up the object's home, remote
                // interval diffs with older release timestamps — or
                // none at all (ts 0) — start arriving on the comm
                // handler the moment the barrier plan is out, and must
                // not clobber this CS's words. (Seeding in
                // barrier_prepare is too late — an early remote diff
                // can overwrite the bytes first, making the local twin
                // diff look empty; see the quickstart lost-update bug.)
                self.seed_word_guard(obj, &diff, release_ts);
                self.stats.count_diff(diff.wire_size() as u64);
                updates.push((id, diff));
            }
        }
        updates
    }

    /// Apply updates delivered with a lock grant. Valid mapped copies
    /// are patched in place (data + active twin, so the words are not
    /// re-diffed as local writes); everything else is parked in the
    /// pending table until the object materializes.
    pub fn apply_lock_updates(&mut self, updates: &[(ObjectId, Vec<WordUpdate>)]) {
        for (id, words) in updates {
            let idx = id.0 as usize;
            if self.objects[idx].life != Life::Live {
                // Updates for a tombstoned object die with it at the
                // next barrier; applying (or parking) them would leak
                // into a reused slot.
                continue;
            }
            let applicable =
                self.objects[idx].locally_valid() && self.objects[idx].offset().is_some();
            if applicable {
                self.mark_mutated(idx);
                self.objects[idx].patch_words(words.iter().map(|&(word, _ts, val)| (word, val)));
                self.charge(
                    TimeCategory::Diffing,
                    self.cpu.diffing(words.len() as u64 * 4),
                );
            } else {
                let pend = self.pending_lock_updates.entry(id.0).or_default();
                for &(word, ts, val) in words {
                    match pend.get(&word) {
                        Some(&(old_ts, _)) if old_ts > ts => {}
                        _ => {
                            pend.insert(word, (ts, val));
                        }
                    }
                }
            }
        }
    }

    fn apply_pending_updates(&mut self, id: ObjectId) {
        let Some(words) = self.pending_lock_updates.remove(&id.0) else {
            return;
        };
        let idx = id.0 as usize;
        debug_assert!(self.objects[idx].offset().is_some(), "called after mapping");
        self.mark_mutated(idx);
        self.objects[idx].patch_words(words.into_iter().map(|(word, (_ts, val))| (word, val)));
    }

    // ------------------------------------------------------------------
    // Barrier-path bookkeeping (§3.4 migrating-home write-invalidate)
    // ------------------------------------------------------------------

    /// Phase A of a barrier: take the dirty set as write notices
    /// (object, size, this node's consistent view of its home, and
    /// whether a first-touch home assignment is still pending). Diffs
    /// are *not* computed yet — the plan decides which objects are
    /// multi-writer and actually need one (§3.4 benefit 1: a single
    /// writer propagates nothing, so nothing is diffed either).
    pub fn barrier_collect(&mut self) -> Result<Vec<(ObjectId, usize, NodeId, bool)>, LotsError> {
        // The barrier opens a fresh statement scope: pins from the last
        // application statement expire, so dirty objects can be swapped
        // in even under full DMM pressure.
        self.stmt += 1;
        let dirty = std::mem::take(&mut self.dirty);
        Ok(dirty
            .into_iter()
            .map(|obj| {
                let ctl = &self.objects[obj as usize];
                (ObjectId(obj), ctl.size, ctl.home, ctl.home_pending)
            })
            .collect())
    }

    /// Phase B preparation, after the plan arrived: compute and cache
    /// the diffs this node must send, and — where this node is the home
    /// of a multi-writer object it also wrote — seed the word guard
    /// with its own writes so older remote timestamps cannot clobber
    /// newer local CS writes.
    pub fn barrier_prepare(
        &mut self,
        send_diffs: &[(NodeId, ObjectId, NodeId)],
        me: NodeId,
    ) -> Result<(), LotsError> {
        for &(writer, id, home) in send_diffs {
            let obj = id.0;
            if writer == me {
                self.try_map(id)?;
                let size = self.objects[obj as usize].size;
                let diff = self.objects[obj as usize].interval_diff();
                self.charge(TimeCategory::Diffing, self.cpu.diffing(size as u64));
                self.stats.count_diff(diff.wire_size() as u64);
                self.cached_diffs.insert(obj, diff);
            } else if home == me && self.objects[obj as usize].written {
                // The modelled home maps the object (a swap-in here is
                // modelled work) and diffs it against its twin to find
                // its own interval writes; both are charged whether or
                // not the host needs the answer.
                self.try_map(id)?;
                let size = self.objects[obj as usize].size;
                self.charge(TimeCategory::Diffing, self.cpu.diffing(size as u64));
                // Only writes made under a lock carry a timestamp to
                // defend: with none (ts 0 ≡ no guard entry) there is
                // nothing to seed and the host skips the comparison.
                // Remote diffs may already have applied (the comm
                // handler races ahead of this app-thread phase), so
                // seeding merges by maximum: a blind insert would roll
                // an applied newer timestamp back and let a stale diff
                // overwrite it.
                let ts = self.release_ts_of(id);
                if ts > 0 {
                    let diff = self.objects[obj as usize].interval_diff();
                    self.seed_word_guard(obj, &diff, ts);
                }
            }
        }
        Ok(())
    }

    /// The diff cached by [`NodeState::barrier_prepare`] for `id`.
    pub fn cached_diff(&self, id: ObjectId) -> &WordDiff {
        &self.cached_diffs[&id.0]
    }

    /// Raise the guard of every word `diff` changes in `obj` to at
    /// least `ts` (a lock release timestamp, so never 0).
    fn seed_word_guard(&mut self, obj: u32, diff: &WordDiff, ts: u64) {
        let guard = self.barrier_word_guard.entry(obj).or_default();
        for (word, _) in diff.iter_words() {
            let seen = guard.entry(word).or_insert(ts);
            *seen = (*seen).max(ts);
        }
    }

    /// Words currently guarded by a lock release timestamp.
    #[cfg(test)]
    fn guarded_words(&self) -> usize {
        self.barrier_word_guard.values().map(HashMap::len).sum()
    }

    /// Home-side application of a remote barrier diff (`ts` is the
    /// sender's last lock release timestamp for the object, 0 if it
    /// only wrote outside locks).
    ///
    /// The mechanism is the run copy; the per-word guard (last CS
    /// writer wins) is a policy only lock-era writes pay for. A guard
    /// entry exists only where some lock release wrote, and an absent
    /// entry reads as timestamp 0, which no diff is older than — so a
    /// `ts == 0` diff for an object nobody guarded is applied whole and
    /// records nothing (recording 0 would be recording "absent"). Any
    /// other combination walks the words against the object's guard,
    /// found once per diff.
    pub fn apply_remote_diff(
        &mut self,
        id: ObjectId,
        diff: &WordDiff,
        ts: u64,
    ) -> Result<(), LotsError> {
        self.try_map(id)?;
        // The diff came off the wire: it must land inside this object.
        diff.check_fits(self.objects[id.0 as usize].size)?;
        self.mark_mutated(id.0 as usize);
        let target = self.objects[id.0 as usize].data.write();
        let applied = if ts == 0 && !self.barrier_word_guard.contains_key(&id.0) {
            diff.apply(target);
            diff.changed_words()
        } else {
            let guard = self.barrier_word_guard.entry(id.0).or_default();
            let mut count = 0;
            for (word, val) in diff.iter_words() {
                if guard.get(&word).is_some_and(|&prev| prev > ts) {
                    continue;
                }
                let off = word as usize * 4;
                target[off..off + 4].copy_from_slice(&val.to_le_bytes());
                if ts > 0 {
                    guard.insert(word, ts);
                }
                count += 1;
            }
            count
        };
        self.charge(TimeCategory::Diffing, self.cpu.diffing(applied as u64 * 4));
        Ok(())
    }

    /// Final barrier phase: apply home migrations (clearing first-touch
    /// pending flags the plan resolved), invalidate written objects we
    /// are not home of, reclaim the barrier-agreed freed set, commit
    /// the barrier-agreed named allocations, and clear interval state.
    ///
    /// `written` lists every object any node wrote this interval with
    /// its (possibly migrated) home; `seq` becomes the new version.
    pub fn barrier_finish(
        &mut self,
        written: &[(ObjectId, NodeId)],
        freed: &[ObjectId],
        named: &[NamedAllocReq],
        seq: u64,
    ) -> Result<(), LotsError> {
        for &(id, home) in written {
            let idx = id.0 as usize;
            let is_segment = self.objects[idx].parent.is_some();
            self.objects[idx].home = home;
            self.objects[idx].home_pending = false;
            if home == self.me {
                // We hold the authoritative copy.
                self.objects[idx].share = Share::Valid;
                self.objects[idx].version = seq;
                if is_segment {
                    // The write-notice round publishes this segment's
                    // new immutable version, counted at its home.
                    self.stats.count_version_published();
                }
            } else {
                self.invalidate_local(id)?;
            }
            if is_segment && self.objects[idx].twin.is_some() {
                // Dropping the twin discards the superseded snapshot
                // version readers pinned last interval.
                self.stats.count_version_reclaimed();
            }
            self.objects[idx].twin = None;
            self.objects[idx].written = false;
        }
        // Frees before named commits, so a commit can reuse a slot
        // reclaimed at this same barrier.
        for &id in freed {
            self.reclaim(id)?;
        }
        for req in named {
            self.commit_named(req)?;
        }
        // One gauge refresh for the whole invalidate + reclaim pass
        // (the gauges are last-value-only; `commit_named` syncs its own
        // registrations).
        self.sync_frag_gauges();
        self.barrier_word_guard.clear();
        self.pending_lock_updates.clear();
        self.obj_release_ts.clear();
        self.cached_diffs.clear();
        self.fetch_override.clear();
        debug_assert!(self.dirty.is_empty(), "dirty set consumed in collect");
        #[cfg(debug_assertions)]
        {
            // Cross-check the swap counters at every interval boundary.
            let _ = self.swap_accounting();
        }
        Ok(())
    }

    /// Drop the local copy: free its DMM block and host bytes, or its
    /// disk image ("free the
    /// memory storing the updates", §3.4). Leaves the fragmentation
    /// gauges stale — each refresh walks the allocator's free lists, so
    /// the caller runs [`NodeState::sync_frag_gauges`] once after the
    /// last object it drops.
    fn invalidate_local(&mut self, id: ObjectId) -> Result<(), LotsError> {
        let idx = id.0 as usize;
        let size = self.objects[idx].size as u64;
        match self.objects[idx].mapping {
            Mapping::Mapped { offset } => {
                self.alloc.free(offset);
                self.objects[idx].data = CowBytes::zero(size as usize);
                self.resident_logical -= size;
                self.dematerialized_cum += size;
                if self.objects[idx].clean_on_disk {
                    self.store.remove(id.0 as u64)?;
                }
            }
            Mapping::OnDisk => {
                self.swapped_logical -= size;
                self.dematerialized_cum += size;
                self.prefetched.remove(&(id.0 as u64));
                self.store.remove(id.0 as u64)?;
            }
            Mapping::Unmapped => {}
        }
        self.policy.on_remove(id.0);
        self.objects[idx].clean_on_disk = false;
        self.objects[idx].mapping = Mapping::Unmapped;
        self.objects[idx].share = Share::Invalid;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Crash + rejoin
    // ------------------------------------------------------------------

    /// Simulated crash and rejoin at an interval boundary.
    ///
    /// The node dies immediately after completing a barrier: its DMM
    /// area (and every in-memory cache) is lost, while its swap store
    /// — a disk file in the paper's system — survives the reboot. At
    /// that instant every copy in the cluster is barrier-consistent, so
    /// peers hold byte-identical images of the masters this node homes;
    /// the rejoin protocol rebuilds the node's directory entries, name
    /// table and home-owned object state from those copies plus the
    /// surviving swap store. We model the rebuilt masters landing in
    /// the swap store (a batched write of their images, byte-identical
    /// to what the swap-in path will reload) and the cached
    /// copies of remote objects simply vanishing; the caller charges
    /// the reboot outage and the directory/image transfer time.
    ///
    /// Values are unchanged everywhere — only virtual time moves — so
    /// a crash-rejoin run finishes with checksums identical to the
    /// fault-free run.
    pub fn crash_rejoin(&mut self) -> Result<RejoinSummary, LotsError> {
        // The crash dissolves every pin scope.
        self.stmt += 1;
        let mut masters: Vec<u32> = Vec::new();
        let mut lost: Vec<ObjectId> = Vec::new();
        let mut master_bytes = 0u64;
        for (idx, ctl) in self.objects.iter().enumerate() {
            if ctl.offset().is_none() {
                // Unmapped copies hold no DMM state; OnDisk images live
                // in the store and survive the reboot as-is.
                continue;
            }
            if ctl.home == self.me {
                masters.push(idx as u32);
                master_bytes += ctl.size as u64;
            } else {
                lost.push(ObjectId(idx as u32));
            }
        }
        let copies_dropped = lost.len();
        let masters_checkpointed = masters.len();
        // Peers re-send the masters this node homes; the rebuilt images
        // land in the swap store exactly as a swap-out would put them.
        self.swap_out_batch(&masters)?;
        // Cached copies of remotely-homed objects died with the DMM area.
        for id in lost {
            self.invalidate_local(id)?;
        }
        self.sync_frag_gauges();
        // In-memory read-ahead state is gone too.
        self.prefetched.clear();
        self.last_swapin = None;
        // Directory + name-table rebuild traffic: one entry per live
        // object slot (home, version, size, flags) plus the replicated
        // name directory.
        let live_slots = self.objects.iter().filter(|o| o.life != Life::Free).count() as u64;
        let name_bytes: u64 = self.names.keys().map(|k| k.len() as u64 + 16).sum();
        Ok(RejoinSummary {
            masters_checkpointed,
            copies_dropped,
            directory_bytes: live_slots * 24 + name_bytes,
            master_bytes,
        })
    }

    // ------------------------------------------------------------------
    // Persistence (the journal snapshots are the `Journaled` impl below)
    // ------------------------------------------------------------------

    /// Blocking read of `bytes` from the node's disk device (journal
    /// read-back during a crash rejoin), advancing this node's clock
    /// to the device's completion time.
    pub fn persist_read_blocking(&mut self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let op = self.diskq.read(self.clock.now(), bytes);
        let before = self.clock.now();
        let now = self.clock.advance_to(op.done);
        self.stats
            .charge(TimeCategory::Disk, now.saturating_sub(before));
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Bytes currently mapped in the DMM area.
    pub fn mapped_bytes(&self) -> usize {
        self.alloc.used_bytes()
    }

    /// Total logical bytes of all live (and tombstoned-but-unreclaimed)
    /// objects on this node. Stripe children are excluded: the parent
    /// already carries the allocation's full logical size.
    pub fn total_object_bytes(&self) -> u64 {
        self.objects
            .iter()
            .filter(|o| o.life != Life::Free && o.parent.is_none())
            .map(|o| o.size as u64)
            .sum()
    }

    /// Striping record of `id`, if it is a striped parent
    /// (tests/diagnostics).
    pub fn stripe_of(&self, id: ObjectId) -> Option<&StripeInfo> {
        self.objects[id.0 as usize].stripe.as_ref()
    }

    /// Bytes of swap images held by the backing store — the bytes
    /// *actually* stored (post-compression), which is what counts
    /// against the platform's free disk space.
    pub fn swapped_bytes(&self) -> u64 {
        self.store.used_bytes()
    }

    /// Logical bytes of objects currently swapped out (`OnDisk`).
    pub fn swapped_logical_bytes(&self) -> u64 {
        self.swapped_logical
    }

    /// Logical bytes of objects currently mapped in the DMM area.
    pub fn resident_logical_bytes(&self) -> u64 {
        self.resident_logical
    }

    /// Snapshot the swap accounting and cross-check the incremental
    /// counters against an independent scan of the mapping states.
    /// Invariant: every locally materialized byte is either resident or
    /// swapped — `resident + swapped == allocated`-and-materialized.
    pub fn swap_accounting(&self) -> SwapAccounting {
        let mut resident = 0u64;
        let mut swapped = 0u64;
        for ctl in &self.objects {
            match ctl.mapping {
                Mapping::Mapped { .. } => resident += ctl.size as u64,
                Mapping::OnDisk => swapped += ctl.size as u64,
                Mapping::Unmapped => {}
            }
        }
        let acct = SwapAccounting {
            resident_logical: self.resident_logical,
            swapped_logical: self.swapped_logical,
            materialized: resident + swapped,
            store_resident: self.store.used_bytes(),
            materialized_cum: self.materialized_cum,
            dematerialized_cum: self.dematerialized_cum,
            freed_bytes: self.stats.freed_object_bytes(),
        };
        assert_eq!(
            acct.resident_logical, resident,
            "resident counter drifted from the mapping states"
        );
        assert_eq!(
            acct.swapped_logical, swapped,
            "swapped counter drifted from the mapping states"
        );
        assert_eq!(
            acct.resident_logical + acct.swapped_logical + acct.dematerialized_cum,
            acct.materialized_cum,
            "resident + swapped + dematerialized (invalidated or freed) must \
             equal the cumulative materialized bytes"
        );
        acct
    }

    /// The backing store (shared with the cluster harness).
    pub fn store(&self) -> &Arc<dyn BackingStore> {
        &self.store
    }
}

/// FNV-1a over `(parent id, segment index)` — the consistent-hash
/// directory function behind [`Placement::ConsistentHash`]. Pure and
/// seedless, so every node computes the same segment home (JIAJIA
/// reuses it over `(page index, 0)` for page homes).
pub fn stripe_hash(parent: u32, seg: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in parent.to_le_bytes().into_iter().chain(seg.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl crate::cluster::Journaled for NodeState {
    type Written = (ObjectId, NodeId);
    type Error = LotsError;

    /// One [`lots_persist::ObjMeta`] per live object slot. Stripe
    /// children appear individually (each is an ordinary directory
    /// object with its own home and diffs); the parent rides along so
    /// restore can rebuild the stripe record.
    fn persist_live_meta(&self) -> Vec<lots_persist::ObjMeta> {
        self.objects
            .iter()
            .enumerate()
            .filter(|(_, ctl)| ctl.life != Life::Free)
            .map(|(idx, ctl)| lots_persist::ObjMeta {
                id: idx as u32,
                home: ctl.home as u32,
                version: ctl.version,
                bytes: ctl.size as u64,
                parent: ctl.parent,
            })
            .collect()
    }

    fn persist_names(&self) -> Vec<lots_persist::NamedMeta> {
        self.names
            .iter()
            .map(|(name, e)| lots_persist::NamedMeta {
                name: name.clone(),
                id: e.id,
                elem_size: e.elem_size as u32,
                len: e.len as u64,
            })
            .collect()
    }

    /// The DMM extent map: one extent per live slot with its DMM
    /// address (when mapped).
    fn persist_extents(&self) -> Vec<lots_persist::Extent> {
        self.objects
            .iter()
            .enumerate()
            .filter(|(_, ctl)| ctl.life != Life::Free)
            .map(|(idx, ctl)| lots_persist::Extent {
                id: idx as u32,
                addr: ctl.offset().unwrap_or(0) as u64,
                bytes: ctl.size as u64,
                mapped: ctl.offset().is_some(),
            })
            .collect()
    }

    /// The object's bytes when mapped (zeros while untouched), the
    /// decoded swap image when the master sits on disk, the valid
    /// zero-fill when never materialized.
    fn persist_written_content(
        &self,
        written: &[(ObjectId, NodeId)],
    ) -> Result<Vec<(u32, Vec<u8>)>, LotsError> {
        let mut out = Vec::new();
        for &(id, home) in written {
            if home != self.me {
                continue;
            }
            let ctl = &self.objects[id.0 as usize];
            if ctl.life == Life::Free {
                continue;
            }
            let content = match ctl.mapping {
                Mapping::OnDisk => {
                    let (img, _store_time) = self.store.get(id.0 as u64)?;
                    let (data, _twin) = SwapImage::decode(&img, ctl.size)?;
                    data.into_owned()
                }
                Mapping::Mapped { .. } | Mapping::Unmapped => ctl
                    .data
                    .peek()
                    .map_or_else(|| vec![0u8; ctl.size], <[u8]>::to_vec),
            };
            out.push((id.0, content));
        }
        Ok(out)
    }

    fn persist_disk(&mut self) -> Option<&mut DiskQueue> {
        Some(&mut self.diskq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lots_disk::MemStore;
    use lots_sim::machine::pentium4_2ghz;
    use lots_sim::DiskModel;

    fn small_node(dmm: usize) -> NodeState {
        node_with(LotsConfig::small(dmm))
    }

    /// A single-node cluster's state over `cfg`, backed by a modelled
    /// in-memory disk.
    fn node_with(cfg: LotsConfig) -> NodeState {
        node_of(0, 1, cfg)
    }

    /// Node `me` of `n`, likewise.
    fn node_of(me: NodeId, n: usize, cfg: LotsConfig) -> NodeState {
        let store = Arc::new(MemStore::new(DiskModel {
            per_op: SimDuration::from_micros(100),
            write_bps: 50_000_000,
            read_bps: 50_000_000,
        }));
        NodeState::new(
            me,
            n,
            cfg,
            pentium4_2ghz(),
            store,
            SimClock::new(),
            NodeStats::new(),
        )
    }

    fn write_words(node: &mut NodeState, id: ObjectId, vals: &[(usize, u32)]) {
        match node.begin_access(id, true, vals.len() as u64).unwrap() {
            Access::Ready => {
                for &(w, v) in vals {
                    node.object_bytes_mut(id)[w * 4..w * 4 + 4].copy_from_slice(&v.to_le_bytes());
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn read_word(node: &mut NodeState, id: ObjectId, w: usize) -> u32 {
        match node.begin_access(id, false, 1).unwrap() {
            Access::Ready => {
                u32::from_le_bytes(node.object_bytes(id)[w * 4..w * 4 + 4].try_into().unwrap())
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn register_maps_eagerly_and_zero_fills() {
        let mut n = small_node(64 * 1024);
        let id = n.register_object(100).unwrap();
        assert_eq!(n.object_size(id), 100);
        assert_eq!(read_word(&mut n, id, 0), 0);
        assert!(matches!(n.ctl(id).mapping, Mapping::Mapped { .. }));
    }

    #[test]
    fn swap_out_and_back_preserves_data() {
        // DMM of 32 KB: lower half 16 KB fits one 9 KB object at a time,
        // so every access to the other object swaps.
        let mut n = small_node(32 * 1024);
        let a = n.register_object(9 * 1024).unwrap();
        let b = n.register_object(9 * 1024).unwrap();
        write_words(&mut n, a, &[(0, 111), (5, 55)]);
        write_words(&mut n, b, &[(0, 222)]); // maps b, evicting dirty a
        assert!(n.stats.swaps_out() >= 1, "a out at b's mapping");
        assert_eq!(read_word(&mut n, a, 0), 111);
        assert_eq!(read_word(&mut n, a, 5), 55);
        assert!(n.stats.swaps_in() >= 1);
        assert_eq!(read_word(&mut n, b, 0), 222);
        assert_eq!(read_word(&mut n, a, 1), 0, "untouched words stay zero");
        // Dirty evictions wrote to disk once each; the later read-only
        // crossings re-evict *clean* copies, which skip the disk write
        // ("every object is swapped out once", §4.3).
        assert_eq!(n.stats.swaps_out(), 2);
        assert!(n.stats.swaps_in() >= 3);
    }

    #[test]
    fn twin_survives_swap_roundtrip() {
        let mut n = small_node(32 * 1024);
        let a = n.register_object(9 * 1024).unwrap();
        let b = n.register_object(9 * 1024).unwrap();
        write_words(&mut n, a, &[(3, 9)]);
        write_words(&mut n, b, &[(0, 1)]); // evicts dirty a with twin
        let _ = read_word(&mut n, a, 3); // brings a back
        let notices = n.barrier_collect().unwrap();
        assert_eq!(notices.len(), 2);
        // Pretend the plan made us a sender for a: its diff must be
        // computed against the twin that went through the disk.
        n.barrier_prepare(&[(0, a, 0)], 0).unwrap();
        let diff_a = n.cached_diff(a);
        let words: Vec<(u32, u32)> = diff_a.iter_words().collect();
        assert_eq!(words, vec![(3, 9)]);
    }

    #[test]
    fn pinned_objects_are_not_evicted() {
        let mut n = small_node(32 * 1024);
        let a = n.register_object(9 * 1024).unwrap();
        let b = n.register_object(9 * 1024).unwrap();
        // One statement touching both: the second mapping may not evict
        // the first (it is pinned), so there is no room and the access
        // must fail with the §5 condition.
        n.enter_stmt();
        let _ = read_word(&mut n, a, 0);
        let r = n.begin_access(b, false, 1);
        n.exit_stmt();
        assert!(matches!(r, Err(LotsError::OutOfDmm { .. })), "{r:?}");
        // Outside the statement, eviction is allowed again.
        assert_eq!(read_word(&mut n, b, 0), 0);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut n = small_node(64 * 1024); // lower half 32 KB: two 12 KB fit
        let a = n.register_object(12 * 1024).unwrap();
        let b = n.register_object(12 * 1024).unwrap();
        // No room left: c stays lazily unmapped (mmap-like alloc).
        let c = n.register_object(12 * 1024).unwrap();
        assert!(matches!(n.ctl(c).mapping, Mapping::Unmapped));
        // First touch of c maps it, evicting the LRU (a: lowest stamp).
        let _ = read_word(&mut n, c, 0);
        assert!(matches!(n.ctl(a).mapping, Mapping::OnDisk));
        assert!(matches!(n.ctl(b).mapping, Mapping::Mapped { .. }));
        // Touch b, then a again: the LRU victim is now c.
        let _ = read_word(&mut n, b, 0);
        let _ = read_word(&mut n, a, 0);
        assert!(matches!(n.ctl(c).mapping, Mapping::OnDisk));
        assert!(matches!(n.ctl(b).mapping, Mapping::Mapped { .. }));
    }

    #[test]
    fn lots_x_rejects_overflow() {
        let store = Arc::new(MemStore::new(DiskModel {
            per_op: SimDuration::ZERO,
            write_bps: 1,
            read_bps: 1,
        }));
        let mut n = NodeState::new(
            0,
            1,
            LotsConfig::lots_x(32 * 1024),
            pentium4_2ghz(),
            store,
            SimClock::new(),
            NodeStats::new(),
        );
        let _a = n.register_object(9 * 1024).unwrap();
        let r = n.register_object(9 * 1024);
        assert!(matches!(r, Err(LotsError::LotsXCapacity { .. })), "{r:?}");
    }

    #[test]
    fn oversized_object_rejected() {
        let mut n = small_node(32 * 1024);
        let r = n.register_object(64 * 1024);
        assert!(matches!(r, Err(LotsError::ObjectTooLarge { .. })), "{r:?}");
    }

    #[test]
    fn failed_registration_releases_its_slot() {
        let mut n = small_node(32 * 1024);
        let a = n.register_object(64).unwrap();
        let bytes_before = n.total_object_bytes();
        // A recoverable failure must not leak a phantom Live object
        // or burn an id: probe-and-recover allocation stays bounded.
        for _ in 0..3 {
            assert!(matches!(
                n.register_object(64 * 1024),
                Err(LotsError::ObjectTooLarge { .. })
            ));
        }
        assert_eq!(n.total_object_bytes(), bytes_before);
        assert_eq!(n.free_slots(), 1, "the failed slot awaits reuse");
        let b = n.register_object(64).unwrap();
        assert_eq!(b.0, a.0 + 1, "the released slot is reused");
        assert_eq!(n.object_count(), 2);
    }

    #[test]
    fn cs_twin_yields_release_updates() {
        let mut n = small_node(64 * 1024);
        let a = n.register_object(256).unwrap();
        write_words(&mut n, a, &[(0, 1)]); // pre-CS write
        n.enter_cs(7);
        write_words(&mut n, a, &[(2, 42)]);
        let updates = n.exit_cs(7, 1);
        assert_eq!(updates.len(), 1);
        let (id, diff) = &updates[0];
        assert_eq!(*id, a);
        let words: Vec<(u32, u32)> = diff.iter_words().collect();
        assert_eq!(
            words,
            vec![(2, 42)],
            "only CS-era writes in release updates"
        );
    }

    #[test]
    fn lock_updates_apply_to_arena_and_twin() {
        let mut n = small_node(64 * 1024);
        let a = n.register_object(64).unwrap();
        write_words(&mut n, a, &[(0, 5)]); // creates twin
        n.apply_lock_updates(&[(a, vec![(3, 1, 77)])]);
        assert_eq!(read_word(&mut n, a, 3), 77);
        // Word 3 came from a grant, not a local write: interval diff
        // must not contain it.
        let _ = n.barrier_collect().unwrap();
        n.barrier_prepare(&[(0, a, 0)], 0).unwrap();
        let words: Vec<(u32, u32)> = n.cached_diff(a).iter_words().collect();
        assert_eq!(words, vec![(0, 5)]);
    }

    #[test]
    fn pending_updates_apply_on_materialize() {
        let mut n = small_node(32 * 1024);
        let a = n.register_object(9 * 1024).unwrap();
        let b = n.register_object(9 * 1024).unwrap();
        let _ = read_word(&mut n, b, 0); // a evicted to disk
        assert!(matches!(n.ctl(a).mapping, Mapping::OnDisk));
        n.apply_lock_updates(&[(a, vec![(4, 1, 99)])]);
        assert_eq!(
            read_word(&mut n, a, 4),
            99,
            "pending update applied on swap-in"
        );
    }

    #[test]
    fn barrier_finish_invalidate_and_keep() {
        let store = Arc::new(MemStore::new(DiskModel {
            per_op: SimDuration::ZERO,
            write_bps: u64::MAX,
            read_bps: u64::MAX,
        }));
        let mut n = NodeState::new(
            1,
            4,
            LotsConfig::small(64 * 1024),
            pentium4_2ghz(),
            store,
            SimClock::new(),
            NodeStats::new(),
        );
        let a = n.register_object(64).unwrap(); // home = 0
        let b = n.register_object(64).unwrap(); // home = 1 (me)
        write_words(&mut n, a, &[(0, 1)]);
        write_words(&mut n, b, &[(0, 2)]);
        let _ = n.barrier_collect().unwrap();
        // a migrates to node 2; b stays home here.
        n.barrier_finish(&[(a, 2), (b, 1)], &[], &[], 1).unwrap();
        assert_eq!(n.ctl(a).share, Share::Invalid);
        assert_eq!(n.ctl(a).mapping, Mapping::Unmapped);
        assert_eq!(n.ctl(a).home, 2);
        assert_eq!(n.ctl(b).share, Share::Valid);
        assert!(n.ctl(b).offset().is_some());
        assert!(n.ctl(b).twin.is_none());
    }

    /// The gauges mirrored into the node's statistics, beside a fresh
    /// measurement of the allocator.
    fn assert_gauges_current(n: &NodeState) {
        let fresh = n.alloc.frag_stats();
        assert_eq!(n.stats.dmm_free_bytes(), fresh.free_bytes);
        assert_eq!(n.stats.dmm_largest_hole(), fresh.largest_hole);
    }

    #[test]
    fn barrier_finish_leaves_the_frag_gauges_current() {
        // Node 1 of 4 wrote 160 objects (each a region block of its
        // own, not a slab slot); the 120 homed elsewhere are
        // invalidated in one pass, which refreshes the gauges once, at
        // its end.
        const BYTES: usize = 8 * 1024;
        let mut n = node_of(1, 4, LotsConfig::small(4 << 20));
        let written: Vec<(ObjectId, NodeId)> = (0..160)
            .map(|_| {
                let id = n.register_object(BYTES).unwrap();
                write_words(&mut n, id, &[(0, 7)]);
                (id, n.ctl(id).home)
            })
            .collect();
        let free_before = n.stats.dmm_free_bytes();
        let _ = n.barrier_collect().unwrap();
        n.barrier_finish(&written, &[], &[], 1).unwrap();
        let dropped = written.iter().filter(|&&(_, home)| home != 1).count();
        assert!(dropped >= 100, "{dropped} objects invalidated");
        let freed = n.stats.dmm_free_bytes() - free_before;
        assert!(freed >= (BYTES * dropped) as u64, "freed {freed} bytes");
        assert_gauges_current(&n);
    }

    #[test]
    fn single_invalidations_leave_the_frag_gauges_current() {
        // Write-invalidate drops one remote copy...
        let mut n = small_node(32 * 1024);
        let a = n.register_object(9 * 1024).unwrap();
        let free_before = n.stats.dmm_free_bytes();
        n.objects[a.0 as usize].home = 1;
        n.wi_invalidate(a, 1).unwrap();
        assert_eq!(n.ctl(a).mapping, Mapping::Unmapped);
        assert!(n.stats.dmm_free_bytes() > free_before);
        assert_gauges_current(&n);
        // ... and so does an eviction: mapping c swaps b out.
        let b = n.register_object(9 * 1024).unwrap();
        write_words(&mut n, b, &[(0, 1)]);
        let c = n.register_object(9 * 1024).unwrap();
        write_words(&mut n, c, &[(0, 2)]);
        assert!(n.stats.swaps_out() >= 1);
        assert_gauges_current(&n);
    }

    #[test]
    fn remote_diff_respects_ts_guard() {
        let mut n = small_node(64 * 1024);
        let a = n.register_object(64).unwrap();
        // Home wrote word 0 under ts 5 (guard seeded in prepare: this
        // node is home of a multi-writer object it also wrote).
        n.enter_cs(1);
        write_words(&mut n, a, &[(0, 50)]);
        let _ = n.exit_cs(1, 5);
        let _ = n.barrier_collect().unwrap();
        n.barrier_prepare(&[(1, a, 0)], 0).unwrap();
        // A remote writer with older ts must not clobber word 0 but may
        // write word 1.
        let older = WordDiff::from_words(&[(0, 999), (1, 111)]);
        n.apply_remote_diff(a, &older, 3).unwrap();
        assert_eq!(read_word(&mut n, a, 0), 50);
        assert_eq!(read_word(&mut n, a, 1), 111);
        // A newer ts wins.
        let newer = WordDiff::from_words(&[(0, 1000)]);
        n.apply_remote_diff(a, &newer, 9).unwrap();
        assert_eq!(read_word(&mut n, a, 0), 1000);
    }

    #[test]
    fn barrier_only_diffs_around_a_lock_era_diff_keep_last_cs_writer() {
        let mut n = small_node(64 * 1024);
        let a = n.register_object(64).unwrap();
        // ts 0 first: applied whole, nothing recorded.
        let plain = WordDiff::from_words(&[(0, 1), (1, 2)]);
        n.apply_remote_diff(a, &plain, 0).unwrap();
        assert_eq!(n.guarded_words(), 0);
        // A lock-era diff overwrites word 1 and guards what it wrote.
        let locked = WordDiff::from_words(&[(1, 40), (2, 41)]);
        n.apply_remote_diff(a, &locked, 4).unwrap();
        assert_eq!(n.guarded_words(), 2);
        // ts 0 afterwards: loses on the guarded word, wins elsewhere,
        // and still records nothing.
        let late = WordDiff::from_words(&[(0, 7), (1, 8), (3, 9)]);
        n.apply_remote_diff(a, &late, 0).unwrap();
        let got: Vec<u32> = (0..4).map(|w| read_word(&mut n, a, w)).collect();
        assert_eq!(got, vec![7, 40, 41, 9]);
        assert_eq!(n.guarded_words(), 2);
    }

    #[test]
    fn cs_words_survive_a_barrier_only_diff_that_reaches_the_home_first() {
        // The quickstart lost-update case: the home's CS write is
        // guarded from `exit_cs` on, so a remote interval diff that
        // never saw a lock (ts 0) and lands before the home's own
        // barrier_prepare cannot roll the word back.
        let mut n = small_node(64 * 1024);
        let a = n.register_object(64).unwrap();
        n.enter_cs(1);
        write_words(&mut n, a, &[(0, 50)]);
        let _ = n.exit_cs(1, 2);
        let early = WordDiff::from_words(&[(0, 999), (1, 5)]);
        n.apply_remote_diff(a, &early, 0).unwrap();
        let _ = n.barrier_collect().unwrap();
        n.barrier_prepare(&[(1, a, 0)], 0).unwrap();
        assert_eq!(read_word(&mut n, a, 0), 50);
        assert_eq!(read_word(&mut n, a, 1), 5);
    }

    #[test]
    fn a_lock_free_multi_writer_interval_never_populates_the_guard() {
        // p = 4, one 1 KB object homed at node 0, every node writes its
        // own quarter (word 0 and the last word included) outside any
        // lock: the barrier merges by run copy alone.
        let mut nodes: Vec<NodeState> = (0..4)
            .map(|me| node_of(me, 4, LotsConfig::small(64 * 1024)))
            .collect();
        let mut a = ObjectId(0);
        for (me, n) in nodes.iter_mut().enumerate() {
            a = n.register_object(1024).unwrap();
            n.objects[a.0 as usize].home = 0;
            let mine: Vec<(usize, u32)> =
                (me * 64..me * 64 + 64).map(|w| (w, w as u32 + 1)).collect();
            write_words(n, a, &mine);
            let _ = n.barrier_collect().unwrap();
        }
        let plan = [(1, a, 0), (2, a, 0), (3, a, 0)];
        let (home, writers) = nodes.split_first_mut().unwrap();
        home.barrier_prepare(&plan, 0).unwrap();
        assert_eq!(home.guarded_words(), 0);
        for (i, w) in writers.iter_mut().enumerate() {
            w.barrier_prepare(&plan, i + 1).unwrap();
            let diff = WordDiff::from_wire(w.cached_diff(a).encode()).unwrap();
            assert_eq!(diff.changed_words(), 64);
            home.apply_remote_diff(a, &diff, w.release_ts_of(a))
                .unwrap();
            assert_eq!(home.guarded_words(), 0, "after node {}'s diff", i + 1);
            assert_eq!(w.guarded_words(), 0);
        }
        for w in [0usize, 63, 64, 200, 255] {
            assert_eq!(read_word(home, a, w), w as u32 + 1);
        }
    }

    #[test]
    fn a_remote_diff_past_the_object_is_a_typed_error_not_a_stray_write() {
        let mut n = small_node(64 * 1024);
        let a = n.register_object(64).unwrap();
        let b = n.register_object(64).unwrap();
        // Word 16 is one past `a`: a neighbouring block of the DMM area.
        let reach = WordDiff::from_words(&[(15, 1), (16, 2)]);
        for ts in [0, 3] {
            assert!(matches!(
                n.apply_remote_diff(a, &reach, ts),
                Err(LotsError::CorruptDiff { .. })
            ));
        }
        assert_eq!(read_word(&mut n, a, 15), 0, "refused before any write");
        assert_eq!(read_word(&mut n, b, 0), 0);
    }

    #[test]
    fn swap_accounting_invariant_holds_through_churn() {
        let mut n = small_node(32 * 1024);
        let a = n.register_object(9 * 1024).unwrap();
        let b = n.register_object(9 * 1024).unwrap();
        write_words(&mut n, a, &[(0, 1)]);
        write_words(&mut n, b, &[(0, 2)]); // evicts a
        let acct = n.swap_accounting();
        assert_eq!(
            acct.resident_logical + acct.swapped_logical,
            acct.materialized,
            "resident + swapped == allocated-and-materialized"
        );
        assert_eq!(acct.swapped_logical, 9 * 1024);
        // The dirty eviction wrote a compressed image: actual store
        // bytes are far below the logical 9 KB (constant-ish data).
        assert!(acct.store_resident > 0);
        assert!(acct.store_resident < acct.swapped_logical);
        let _ = read_word(&mut n, a, 0); // swap b out, a back in
        let acct = n.swap_accounting();
        assert_eq!(
            acct.resident_logical + acct.swapped_logical,
            acct.materialized
        );
    }

    #[test]
    fn batched_eviction_frees_multiple_victims_in_one_trip() {
        let mut cfg = LotsConfig::small(64 * 1024);
        cfg.swap.batch_evict = 4;
        let mut n = node_with(cfg);
        // Lower half 32 KB: four 8001-byte mediums fit (rounded to
        // 8008); mapping a fifth evicts a whole batch of four.
        let objs: Vec<ObjectId> = (0..5).map(|_| n.register_object(8001).unwrap()).collect();
        for (k, &o) in objs.iter().take(4).enumerate() {
            write_words(&mut n, o, &[(0, k as u32 + 1)]);
        }
        let _ = read_word(&mut n, objs[4], 0);
        assert_eq!(n.stats.swaps_out(), 4, "one trip evicted the batch");
        assert_eq!(n.stats.swap_batches(), 1);
        for (k, &o) in objs.iter().take(4).enumerate() {
            assert_eq!(read_word(&mut n, o, 0), k as u32 + 1);
        }
    }

    #[test]
    fn free_tombstones_then_barrier_reclaims_and_reuses_the_slot() {
        let mut n = small_node(64 * 1024);
        let a = n.register_object(256).unwrap();
        let b = n.register_object(256).unwrap();
        write_words(&mut n, a, &[(0, 7)]);
        n.free_object(a, 256).unwrap();
        // Tombstoned: fenced off immediately, slot still consumed.
        assert!(matches!(
            n.begin_access(a, false, 1),
            Err(LotsError::UseAfterFree { .. })
        ));
        assert!(matches!(
            n.free_object(a, 256),
            Err(LotsError::UseAfterFree { .. })
        ));
        assert_eq!(n.object_count(), 2);
        // The write never becomes a notice; the free rides the barrier.
        let notices = n.barrier_collect().unwrap();
        assert!(notices.is_empty(), "freed object publishes nothing");
        let (frees, named) = n.take_lifecycle();
        assert_eq!(frees, vec![a]);
        assert!(named.is_empty());
        n.barrier_finish(&[], &frees, &[], 1).unwrap();
        assert_eq!(n.free_slots(), 1);
        assert_eq!(n.ctl(a).life, Life::Free);
        // Reuse: the next registration takes the reclaimed id.
        let c = n.register_object(64).unwrap();
        assert_eq!(c, a, "lowest reclaimed slot is reused");
        assert_eq!(n.object_count(), 2);
        assert_eq!(read_word(&mut n, c, 0), 0, "reused slot is zero-filled");
        let _ = b;
    }

    #[test]
    fn free_of_swapped_out_object_drops_the_disk_image() {
        let mut n = small_node(32 * 1024);
        let a = n.register_object(9 * 1024).unwrap();
        let b = n.register_object(9 * 1024).unwrap();
        write_words(&mut n, a, &[(0, 1)]);
        write_words(&mut n, b, &[(0, 2)]); // evicts dirty a to disk
        assert!(matches!(n.ctl(a).mapping, Mapping::OnDisk));
        let store_before = n.swapped_bytes();
        assert!(store_before > 0);
        n.free_object(a, 9 * 1024).unwrap();
        let (frees, _) = n.take_lifecycle();
        let _ = n.barrier_collect().unwrap();
        n.barrier_finish(&[(b, 0)], &frees, &[], 1).unwrap();
        assert_eq!(n.swapped_bytes(), 0, "freed image leaves the store");
        let acct = n.swap_accounting();
        assert_eq!(acct.freed_bytes, 9 * 1024);
        assert_eq!(
            acct.resident_logical + acct.swapped_logical + acct.dematerialized_cum,
            acct.materialized_cum
        );
        assert_eq!(n.stats.objects_freed(), 1);
    }

    #[test]
    fn bad_free_rejects_size_mismatch() {
        let mut n = small_node(64 * 1024);
        let a = n.register_object(256).unwrap();
        assert!(matches!(
            n.free_object(a, 128),
            Err(LotsError::BadFree { .. })
        ));
        assert_eq!(n.ctl(a).life, Life::Live);
    }

    #[test]
    fn named_commit_and_lookup_roundtrip() {
        let mut n = small_node(64 * 1024);
        n.stage_named(NamedAllocReq {
            name: "grid".into(),
            bytes: 64,
            elem_size: 4,
            len: 16,
            placement: Placement::RoundRobin,
            placement_explicit: false,
        })
        .unwrap();
        // Duplicate staging rejected before commit.
        assert!(matches!(
            n.stage_named(NamedAllocReq {
                name: "grid".into(),
                bytes: 4,
                elem_size: 4,
                len: 1,
                placement: Placement::RoundRobin,
                placement_explicit: false,
            }),
            Err(LotsError::DuplicateName { .. })
        ));
        // Not visible before the barrier.
        assert!(matches!(
            n.lookup_named("grid", 4),
            Err(LotsError::NameNotFound { .. })
        ));
        let (frees, named) = n.take_lifecycle();
        n.barrier_finish(&[], &frees, &named, 1).unwrap();
        let (id, len) = n.lookup_named("grid", 4).unwrap();
        assert_eq!(len, 16);
        assert_eq!(n.object_size(id), 64);
        // Wrong element size is a typed-lookup error.
        assert!(matches!(
            n.lookup_named("grid", 8),
            Err(LotsError::NameTypeMismatch { .. })
        ));
        // Freeing the named object removes the directory entry.
        n.free_object(id, 64).unwrap();
        let (frees, _) = n.take_lifecycle();
        n.barrier_finish(&[], &frees, &[], 2).unwrap();
        assert!(matches!(
            n.lookup_named("grid", 4),
            Err(LotsError::NameNotFound { .. })
        ));
    }

    #[test]
    fn placement_resolves_homes() {
        let store = Arc::new(MemStore::new(DiskModel {
            per_op: SimDuration::ZERO,
            write_bps: u64::MAX,
            read_bps: u64::MAX,
        }));
        let mut n = NodeState::new(
            1,
            4,
            LotsConfig::small(64 * 1024),
            pentium4_2ghz(),
            store,
            SimClock::new(),
            NodeStats::new(),
        );
        let rr = n.register_object_placed(64, Placement::RoundRobin).unwrap();
        assert_eq!(n.home_of(rr), rr.0 as usize % 4);
        assert!(!n.ctl(rr).home_pending);
        let fx = n.register_object_placed(64, Placement::Fixed(3)).unwrap();
        assert_eq!(n.home_of(fx), 3);
        let ft = n.register_object_placed(64, Placement::FirstTouch).unwrap();
        assert!(n.ctl(ft).home_pending);
        // The barrier's written list assigns the real home.
        n.barrier_finish(&[(ft, 2)], &[], &[], 1).unwrap();
        assert_eq!(n.home_of(ft), 2);
        assert!(!n.ctl(ft).home_pending);
    }

    fn striped_node(me: NodeId, n: usize, dmm: usize, seg: usize) -> NodeState {
        let store = Arc::new(MemStore::new(DiskModel {
            per_op: SimDuration::from_micros(100),
            write_bps: 50_000_000,
            read_bps: 50_000_000,
        }));
        let cfg = LotsConfig::small(dmm).with_striping(crate::config::Striping::segments_of(seg));
        NodeState::new(
            me,
            n,
            cfg,
            pentium4_2ghz(),
            store,
            SimClock::new(),
            NodeStats::new(),
        )
    }

    #[test]
    fn striped_registration_spreads_segment_homes() {
        let mut n = striped_node(0, 4, 256 * 1024, 1024);
        let id = n.register_object(10 * 1024).unwrap();
        let stripe = n.stripe_of(id).unwrap().clone();
        assert_eq!(stripe.children.len(), 10);
        assert_eq!(stripe.seg_bytes, 1024);
        // RoundRobin per segment: (parent + seg) % n.
        for (s, &c) in stripe.children.iter().enumerate() {
            let ctl = n.ctl(ObjectId(c));
            assert_eq!(ctl.home, (id.0 as usize + s) % 4);
            assert_eq!(ctl.parent, Some((id.0, s as u32)));
            assert_eq!(ctl.size, 1024);
        }
        // The parent never materializes; logical bytes count once.
        assert_eq!(n.ctl(id).mapping, Mapping::Unmapped);
        assert_eq!(n.total_object_bytes(), 10 * 1024);
    }

    #[test]
    fn small_objects_stay_unstriped_under_striping_config() {
        let mut n = striped_node(0, 4, 256 * 1024, 1024);
        let id = n.register_object(1024).unwrap();
        assert!(n.stripe_of(id).is_none());
        assert_eq!(read_word(&mut n, id, 0), 0);
    }

    #[test]
    fn consistent_hash_homes_are_deterministic_and_in_range() {
        let mut a = striped_node(0, 4, 256 * 1024, 1024);
        let mut b = striped_node(3, 4, 256 * 1024, 1024);
        let ida = a
            .register_object_placed(8 * 1024, Placement::ConsistentHash)
            .unwrap();
        let idb = b
            .register_object_placed(8 * 1024, Placement::ConsistentHash)
            .unwrap();
        assert_eq!(ida, idb);
        let ha: Vec<NodeId> = a
            .stripe_of(ida)
            .unwrap()
            .children
            .iter()
            .map(|&c| a.ctl(ObjectId(c)).home)
            .collect();
        let hb: Vec<NodeId> = b
            .stripe_of(idb)
            .unwrap()
            .children
            .iter()
            .map(|&c| b.ctl(ObjectId(c)).home)
            .collect();
        assert_eq!(ha, hb, "every node derives the same segment homes");
        assert!(ha.iter().all(|&h| h < 4));
        assert!(
            ha.iter().collect::<std::collections::HashSet<_>>().len() > 1,
            "hashing spreads 8 segments over more than one home: {ha:?}"
        );
    }

    #[test]
    fn fixed_placement_out_of_range_errors_at_alloc_time() {
        let mut n = striped_node(0, 4, 256 * 1024, 1024);
        let r = n.register_object_placed(64, Placement::Fixed(4));
        assert_eq!(
            r,
            Err(LotsError::BadPlacement { requested: 4, n: 4 }),
            "no panic, no consumed slot"
        );
        assert_eq!(n.object_count(), 0);
        // Striped path validates too, without leaking child slots.
        let r = n.register_object_placed(8 * 1024, Placement::Fixed(7));
        assert_eq!(r, Err(LotsError::BadPlacement { requested: 7, n: 4 }));
        assert_eq!(n.object_count(), 0);
        // Staged named allocations validate eagerly at staging time.
        let r = n.stage_named(NamedAllocReq {
            name: "bad".into(),
            bytes: 64,
            elem_size: 4,
            len: 16,
            placement: Placement::Fixed(99),
            placement_explicit: true,
        });
        assert_eq!(
            r,
            Err(LotsError::BadPlacement {
                requested: 99,
                n: 4
            })
        );
    }

    /// Write `data` over a pinned striped range as `elem`-byte
    /// elements; returns the `(offset, len)` of every piece `f` saw.
    fn striped_write(
        n: &mut NodeState,
        id: ObjectId,
        range: &Range<usize>,
        elem: usize,
        data: &[u8],
    ) -> Vec<(usize, usize)> {
        let mut pieces = Vec::new();
        n.range_write(id, range, elem, |at, b| {
            pieces.push((at, b.len()));
            b.copy_from_slice(&data[at..at + b.len()]);
        });
        pieces
    }

    fn striped_read(n: &mut NodeState, id: ObjectId, range: &Range<usize>) -> Vec<u8> {
        let mut out = Vec::new();
        n.range_read(id, range, 4, |at, b| {
            assert_eq!(at, out.len(), "pieces arrive in address order");
            out.extend_from_slice(b);
        });
        out
    }

    #[test]
    fn striped_range_access_pins_and_runs_in_place_across_segments() {
        let mut n = striped_node(0, 1, 256 * 1024, 1024);
        let id = n.register_object(4 * 1024).unwrap();
        // Write a spanning range in one guard: bytes 1020..1032 cross
        // the seg 0 / seg 1 boundary.
        let range = 1020..1032;
        match n.begin_access_range(id, &range, true, 3).unwrap() {
            RangeAccess::Striped => {}
            other => panic!("unexpected {other:?}"),
        }
        let pieces = striped_write(&mut n, id, &range, 4, &[7u8; 12]);
        assert_eq!(pieces, vec![(0, 4), (4, 8)], "one piece per segment");
        // Both covered segments got twins and write notices.
        let stripe = n.stripe_of(id).unwrap().clone();
        assert!(n.ctl(ObjectId(stripe.children[0])).twin.is_some());
        assert!(n.ctl(ObjectId(stripe.children[1])).twin.is_some());
        assert!(n.ctl(ObjectId(stripe.children[2])).twin.is_none());
        // Read back through a fresh guard.
        let readback = n.begin_access_range(id, &range, false, 1).unwrap();
        assert_eq!(readback, RangeAccess::Striped);
        assert_eq!(striped_read(&mut n, id, &range), vec![7u8; 12]);
        // Within-segment ranges run in place.
        let r2 = 0..8;
        assert_eq!(
            n.begin_access_range(id, &r2, false, 1).unwrap(),
            RangeAccess::Striped
        );
        assert_eq!(striped_read(&mut n, id, &r2), vec![0u8; 8]);
    }

    #[test]
    fn straddling_elements_take_the_staging_path() {
        // 1028-byte segments: 8-byte element 128 occupies bytes
        // 1024..1032, half in segment 0 and half in segment 1, so a
        // spanning range must reach `f` as one contiguous piece.
        let mut n = striped_node(0, 1, 256 * 1024, 1028);
        let id = n.register_object(4 * 1028).unwrap();
        let range = 1016..2064; // elements 127..258: segments 0, 1, 2
        let data: Vec<u8> = (0..range.len()).map(|i| (i % 251) as u8 + 1).collect();
        assert_eq!(
            n.begin_access_range(id, &range, true, 1).unwrap(),
            RangeAccess::Striped
        );
        let pieces = striped_write(&mut n, id, &range, 8, &data);
        assert_eq!(pieces, vec![(0, range.len())], "gathered into one piece");
        // The scatter landed every byte in its segment: read it back
        // piecewise (4-byte words never straddle) and inside one segment.
        let _ = n.begin_access_range(id, &range, false, 1).unwrap();
        assert_eq!(striped_read(&mut n, id, &range), data);
        let inner = 1032..1040;
        let _ = n.begin_access_range(id, &inner, false, 1).unwrap();
        assert_eq!(striped_read(&mut n, id, &inner), data[16..24]);
        // A range inside one segment never stages, whatever `elem` is.
        let pieces = striped_write(&mut n, id, &inner, 8, &[9u8; 8]);
        assert_eq!(pieces, vec![(0, 8)]);
    }

    #[test]
    fn written_segment_serves_its_published_snapshot() {
        let mut n = striped_node(0, 1, 256 * 1024, 1024);
        let id = n.register_object(2 * 1024).unwrap();
        let seg0 = ObjectId(n.stripe_of(id).unwrap().children[0]);
        let range = 0..4;
        // Publish version 1 of segment 0 with word 0 = 5.
        let _ = n.begin_access_range(id, &range, true, 1).unwrap();
        striped_write(&mut n, id, &range, 4, &5u32.to_le_bytes());
        let _ = n.barrier_collect().unwrap();
        n.barrier_finish(&[(seg0, 0)], &[], &[], 1).unwrap();
        assert_eq!(n.stats.versions_published(), 1);
        assert_eq!(n.stats.versions_reclaimed(), 1, "the version-0 snapshot");
        // Start an in-flight write (word 0 = 9, not yet published).
        let _ = n.begin_access_range(id, &range, true, 1).unwrap();
        striped_write(&mut n, id, &range, 4, &9u32.to_le_bytes());
        // A reader's fetch sees the *published* version 1 value.
        let (bytes, version) = n.serve_object(seg0).unwrap();
        assert_eq!(version, 1);
        assert_eq!(&bytes[0..4], &5u32.to_le_bytes());
        // The writer goes on; what was served, and what is served next,
        // stays the pre-interval version.
        let _ = n.begin_access_range(id, &range, true, 1).unwrap();
        striped_write(&mut n, id, &range, 4, &9u32.to_le_bytes());
        assert_eq!(&bytes[0..4], &5u32.to_le_bytes());
        let (again, version) = n.serve_object(seg0).unwrap();
        assert_eq!(
            (version, again.as_ptr()),
            (1, bytes.as_ptr()),
            "same version, same buffer"
        );
        // The next barrier publishes 9 and reclaims the old snapshot.
        let _ = n.barrier_collect().unwrap();
        n.barrier_finish(&[(seg0, 0)], &[], &[], 2).unwrap();
        assert_eq!(n.stats.versions_published(), 2);
        assert_eq!(n.stats.versions_reclaimed(), 2);
        let (bytes, version) = n.serve_object(seg0).unwrap();
        assert_eq!(version, 2);
        assert_eq!(&bytes[0..4], &9u32.to_le_bytes());
    }

    #[test]
    fn freeing_a_striped_parent_reclaims_the_whole_family() {
        let mut n = striped_node(0, 1, 256 * 1024, 1024);
        let id = n.register_object(4 * 1024).unwrap();
        let slots = n.object_count();
        assert_eq!(slots, 5, "parent + 4 children");
        n.free_object(id, 4 * 1024).unwrap();
        assert!(matches!(
            n.begin_access_range(id, &(0..4), false, 1),
            Err(LotsError::UseAfterFree { .. })
        ));
        let (frees, _) = n.take_lifecycle();
        assert_eq!(frees.len(), 5);
        let _ = n.barrier_collect().unwrap();
        n.barrier_finish(&[], &frees, &[], 1).unwrap();
        assert_eq!(n.free_slots(), 5);
        assert_eq!(n.stats.objects_freed(), 1, "one free event per call");
        assert_eq!(n.swap_accounting().freed_bytes, 4 * 1024);
        // Reuse: a fresh striped alloc reclaims the same slots.
        let id2 = n.register_object(4 * 1024).unwrap();
        assert_eq!(n.object_count(), 5);
        let _ = id2;
    }

    #[test]
    fn striped_scan_prefetches_next_segment() {
        // dmm 32 KB: lower half 16 KB holds one 9 KB segment at a
        // time, so a sequential scan of the striped object swaps per
        // segment; the (parent, seg) stride predictor must hit.
        let mut cfg = LotsConfig::small(32 * 1024)
            .with_striping(crate::config::Striping::segments_of(9 * 1024));
        cfg.swap.read_ahead = true;
        let mut n = node_with(cfg);
        let id = n.register_object(6 * 9 * 1024).unwrap();
        for pass in 0..3u32 {
            for s in 0..6usize {
                let at = s * 9 * 1024;
                let range = at..at + 4;
                match n.begin_access_range(id, &range, true, 1).unwrap() {
                    RangeAccess::Striped => {}
                    other => panic!("single-node scan never fetches: {other:?}"),
                }
                striped_write(&mut n, id, &range, 4, &(pass + s as u32).to_le_bytes());
            }
        }
        assert!(
            n.stats.prefetch_hits() > 0,
            "sequential striped scan must hit the read-ahead buffer"
        );
        for s in 0..6usize {
            let at = s * 9 * 1024;
            let range = at..at + 4;
            let _ = n.begin_access_range(id, &range, false, 1).unwrap();
            assert_eq!(
                striped_read(&mut n, id, &range),
                (2 + s as u32).to_le_bytes()
            );
        }
    }

    // ------------------------------------------------------------------
    // Sharing: replies, fetched copies and twins are handles on one
    // immutable buffer until somebody writes, and nobody's write reaches
    // anybody else's handle.
    // ------------------------------------------------------------------

    /// Nodes `0..n` of one cluster, each having registered the same
    /// `bytes`-sized object (homed at node 0 by round robin).
    fn cluster_with_object(n: usize, bytes: usize) -> (Vec<NodeState>, ObjectId) {
        let mut nodes: Vec<NodeState> = (0..n)
            .map(|me| node_of(me, n, LotsConfig::small(64 * 1024)))
            .collect();
        let ids: Vec<ObjectId> = nodes
            .iter_mut()
            .map(|node| node.register_object(bytes).unwrap())
            .collect();
        assert!(ids.iter().all(|&id| id == ids[0]) && nodes[0].home_of(ids[0]) == 0);
        (nodes, ids[0])
    }

    /// Fetch `id` into `reader` from `home` with the real payload.
    fn fetch(reader: &mut NodeState, home: &mut NodeState, id: ObjectId) -> Bytes {
        assert_eq!(
            reader.begin_access(id, false, 1).unwrap(),
            Access::NeedFetch { home: home.me }
        );
        let (reply, version) = home.serve_object(id).unwrap();
        reader.install_fetch(id, reply.clone(), version).unwrap();
        reply
    }

    #[test]
    fn a_served_reply_is_stable_across_the_homes_later_writes() {
        let (mut nodes, a) = cluster_with_object(2, 64);
        let home = &mut nodes[0];
        write_words(home, a, &[(0, 1), (1, 2)]);
        let (reply, _) = home.serve_object(a).unwrap();
        let served = reply.to_vec();
        write_words(home, a, &[(0, 10)]);
        assert_eq!(reply, served[..], "after a write");
        home.apply_lock_updates(&[(a, vec![(1, 1, 20)])]);
        assert_eq!(reply, served[..], "after a lock update (data and twin)");
        let diff = WordDiff::from_words(&[(2, 30)]);
        home.apply_remote_diff(a, &diff, 0).unwrap();
        assert_eq!(reply, served[..], "after a remote diff");
        let _ = home.barrier_collect().unwrap();
        home.barrier_finish(&[(a, 0)], &[], &[], 1).unwrap();
        assert_eq!(reply, served[..], "after the barrier");
        let got: Vec<u32> = (0..3).map(|w| read_word(home, a, w)).collect();
        assert_eq!(got, vec![10, 20, 30]);
    }

    #[test]
    fn a_fetched_copy_is_adopted_and_private() {
        let (mut nodes, a) = cluster_with_object(3, 64);
        let [home, b, c] = &mut nodes[..] else {
            unreachable!()
        };
        write_words(home, a, &[(0, 1)]);
        let _ = home.barrier_collect().unwrap();
        for n in [&mut *home, &mut *b, &mut *c] {
            n.barrier_finish(&[(a, 0)], &[], &[], 1).unwrap();
        }
        let reply = fetch(b, home, a);
        assert_eq!(
            b.object_bytes(a).as_ptr(),
            reply.as_ptr(),
            "adopted, not copied"
        );
        drop(reply);
        let _ = fetch(c, home, a);
        // The home's writes stay at the home ...
        write_words(home, a, &[(0, 2)]);
        assert_eq!(read_word(b, a, 0), 1);
        // ... and a reader's writes reach neither the home nor a third
        // node holding the same version.
        write_words(b, a, &[(0, 3), (1, 4)]);
        assert_eq!((read_word(home, a, 0), read_word(home, a, 1)), (2, 0));
        assert_eq!((read_word(c, a, 0), read_word(c, a, 1)), (1, 0));
        assert_eq!((read_word(b, a, 0), read_word(b, a, 1)), (3, 4));
    }

    #[test]
    fn pending_updates_survive_a_fetch() {
        let (mut nodes, a) = cluster_with_object(2, 64);
        let [home, b] = &mut nodes[..] else {
            unreachable!()
        };
        write_words(home, a, &[(2, 5)]);
        let _ = home.barrier_collect().unwrap();
        home.barrier_finish(&[(a, 0)], &[], &[], 1).unwrap();
        b.barrier_finish(&[(a, 0)], &[], &[], 1).unwrap();
        // A grant's updates for a stale copy are parked, and land on
        // the fetched bytes rather than under them.
        b.apply_lock_updates(&[(a, vec![(3, 1, 77)])]);
        let reply = fetch(b, home, a);
        assert_eq!((read_word(b, a, 2), read_word(b, a, 3)), (5, 77));
        assert_eq!(&reply[12..16], &[0u8; 4], "the home's version is untouched");
    }

    #[test]
    fn untouched_objects_and_twins_hold_no_allocation() {
        // Lower half 16 KB: one 9 KB object mapped at a time.
        let mut n = small_node(32 * 1024);
        let a = n.register_object(9 * 1024).unwrap();
        assert!(n.ctl(a).offset().is_some(), "eagerly mapped");
        assert!(n.ctl(a).data.peek().is_none(), "yet nothing allocated");
        // Journaling the untouched master writes zeros.
        let content = crate::cluster::Journaled::persist_written_content(&n, &[(a, 0)]).unwrap();
        assert_eq!(content, vec![(a.0, vec![0u8; 9 * 1024])]);
        assert!(n.ctl(a).data.peek().is_none());
        // Swapping it out and back in still reads zeros.
        let b = n.register_object(9 * 1024).unwrap();
        write_words(&mut n, b, &[(1, 6)]); // maps b, evicting a
        assert_eq!(n.ctl(a).mapping, Mapping::OnDisk);
        let twin = n.ctl(b).twin.as_ref().expect("b was written");
        assert!(twin.peek().is_none(), "the twin of a first write is zero");
        assert!(read_all(&mut n, a).iter().all(|&x| x == 0)); // evicts b
                                                              // b's zero twin went through the image (`ImageTwin::Zero`) and
                                                              // came back as nothing.
        assert_eq!(read_word(&mut n, b, 1), 6);
        let twin = n.ctl(b).twin.as_ref().expect("the interval is still open");
        assert!(twin.peek().is_none());
        let _ = n.barrier_collect().unwrap();
        n.barrier_prepare(&[(0, b, 0)], 0).unwrap();
        let words: Vec<(u32, u32)> = n.cached_diff(b).iter_words().collect();
        assert_eq!(words, vec![(1, 6)]);
    }

    // ------------------------------------------------------------------
    // DMM offsets are reused; bytes are not. Each test fills an object
    // with 0xFF, recycles its extent, and checks that the next tenant of
    // the same offset reads zeros (or its own swap image), never the
    // previous tenant — whichever path handed the extent out.
    // ------------------------------------------------------------------

    /// Overwrite all of `id` with 0xFF through the range access path.
    fn fill_ff(n: &mut NodeState, id: ObjectId) {
        let range = 0..n.object_size(id);
        match n.begin_access_range(id, &range, true, 1).unwrap() {
            RangeAccess::Fetch(list) => panic!("single-node access never fetches: {list:?}"),
            _ => n.range_write(id, &range, 4, |_, b| b.fill(0xFF)),
        }
    }

    fn read_all(n: &mut NodeState, id: ObjectId) -> Vec<u8> {
        let range = 0..n.object_size(id);
        match n.begin_access_range(id, &range, false, 1).unwrap() {
            RangeAccess::Fetch(list) => panic!("single-node access never fetches: {list:?}"),
            _ => striped_read(n, id, &range),
        }
    }

    /// DMM offsets of `id` (its segments' when striped).
    fn extents(n: &NodeState, id: ObjectId) -> Vec<Option<usize>> {
        match n.stripe_of(id) {
            Some(s) => s
                .children
                .iter()
                .map(|&c| n.ctl(ObjectId(c)).offset())
                .collect(),
            None => vec![n.ctl(id).offset()],
        }
    }

    /// Free `id` and run the barrier that reclaims it.
    fn free_and_reclaim(n: &mut NodeState, id: ObjectId, seq: u64) {
        n.free_object(id, n.ctl(id).req_bytes).unwrap();
        let _ = n.barrier_collect().unwrap();
        let (frees, named) = n.take_lifecycle();
        n.barrier_finish(&[], &frees, &named, seq).unwrap();
    }

    #[test]
    fn eager_map_onto_a_recycled_extent_reads_zero() {
        let striping = crate::config::Striping::segments_of(8 * 1024);
        for (what, cfg) in [
            ("lots", LotsConfig::small(256 * 1024)),
            ("lots-x", LotsConfig::lots_x(256 * 1024)),
            (
                "lots striped",
                LotsConfig::small(256 * 1024).with_striping(striping),
            ),
            (
                "lots-x striped",
                LotsConfig::lots_x(256 * 1024).with_striping(striping),
            ),
        ] {
            let mut n = node_with(cfg);
            let a = n.register_object(40 * 1024).unwrap();
            assert_eq!(n.stripe_of(a).is_some(), what.ends_with("striped"));
            fill_ff(&mut n, a);
            let old = extents(&n, a);
            free_and_reclaim(&mut n, a, 1);
            let b = n.register_object(40 * 1024).unwrap();
            assert_eq!(extents(&n, b), old, "{what}: same extents reused");
            assert!(
                read_all(&mut n, b).iter().all(|&x| x == 0),
                "{what}: recycled extent must read zero"
            );
        }
    }

    #[test]
    fn lazy_map_onto_a_recycled_extent_reads_zero() {
        // 64 KB DMM area, 32 KB lower half: a and b fill it, c stays
        // lazily unmapped. Recycling a's extent while c is untouched
        // sends c's first access through the `Unmapped` arm of try_map.
        let mut n = small_node(64 * 1024);
        let a = n.register_object(12 * 1024).unwrap();
        let _b = n.register_object(12 * 1024).unwrap();
        let c = n.register_object(12 * 1024).unwrap();
        assert_eq!(n.ctl(c).mapping, Mapping::Unmapped);
        fill_ff(&mut n, a);
        let old = n.ctl(a).offset();
        free_and_reclaim(&mut n, a, 1);
        assert!(read_all(&mut n, c).iter().all(|&x| x == 0));
        assert_eq!(n.ctl(c).offset(), old, "c mapped onto a's old extent");
        assert_eq!(n.stats.swaps_out(), 0, "no eviction was needed");
    }

    #[test]
    fn swap_in_onto_recycled_space_restores_data_and_a_zero_twin() {
        // Lower half 16 KB: one 9 KB object mapped at a time.
        let mut n = small_node(32 * 1024);
        // Interval 1: a gets dirty data *and* a dirty twin — the second
        // write finds the first already twinned, so only a
        // sealed-then-rewritten object has non-zero twin bytes.
        let a = n.register_object(9 * 1024).unwrap();
        fill_ff(&mut n, a);
        let _ = n.barrier_collect().unwrap();
        n.barrier_finish(&[(a, 0)], &[], &[], 1).unwrap();
        write_words(&mut n, a, &[(0, 1)]); // twin := the 0xFF image
        let old = n.ctl(a).offset();
        free_and_reclaim(&mut n, a, 2);
        // Interval 3: b takes the extent, is written (all-zero twin),
        // evicted dirty by c, and swapped back in onto the same space.
        let b = n.register_object(9 * 1024).unwrap();
        let c = n.register_object(9 * 1024).unwrap();
        assert_eq!(n.ctl(b).offset(), old, "b recycles a's extent");
        write_words(&mut n, b, &[(3, 9)]);
        let _ = read_word(&mut n, c, 0); // evicts b: data + ImageTwin::Zero
        assert_eq!(n.ctl(b).mapping, Mapping::OnDisk);
        assert_eq!(read_word(&mut n, b, 3), 9);
        assert_eq!(n.ctl(b).offset(), old, "swapped back onto the extent");
        assert_eq!(read_word(&mut n, b, 4), 0);
        // The twin the barrier diffs against must be all zeros again:
        // stale 0xFF twin bytes would turn every untouched word into a
        // spurious "changed to 0" entry.
        let _ = n.barrier_collect().unwrap();
        n.barrier_prepare(&[(0, b, 0)], 0).unwrap();
        let words: Vec<(u32, u32)> = n.cached_diff(b).iter_words().collect();
        assert_eq!(words, vec![(3, 9)]);
    }

    #[test]
    fn crash_rejoin_keeps_recycled_extents_clean() {
        let mut n = small_node(64 * 1024);
        let a = n.register_object(12 * 1024).unwrap();
        let keep = n.register_object(12 * 1024).unwrap();
        fill_ff(&mut n, a);
        write_words(&mut n, keep, &[(7, 77)]);
        let old = n.ctl(a).offset();
        free_and_reclaim(&mut n, a, 1);
        // The crash checkpoints the surviving master to the swap store
        // and empties the DMM area.
        let summary = n.crash_rejoin().unwrap();
        assert_eq!(summary.masters_checkpointed, 1);
        assert_eq!(n.mapped_bytes(), 0);
        let b = n.register_object(12 * 1024).unwrap();
        assert_eq!(n.ctl(b).offset(), old, "b lands on a's dirty extent");
        assert!(read_all(&mut n, b).iter().all(|&x| x == 0));
        assert_eq!(
            read_word(&mut n, keep, 7),
            77,
            "master rebuilt from its image"
        );
        assert_eq!(read_word(&mut n, keep, 8), 0);
    }

    #[test]
    fn read_ahead_prefetches_the_strided_next_object() {
        let mut cfg = LotsConfig::small(32 * 1024);
        cfg.swap.read_ahead = true;
        let mut n = node_with(cfg);
        // Three 9 KB objects through a 16 KB lower half: streaming
        // over them swaps constantly with stride 1.
        let objs: Vec<ObjectId> = (0..3)
            .map(|_| n.register_object(9 * 1024).unwrap())
            .collect();
        for pass in 0..3u32 {
            for (k, &o) in objs.iter().enumerate() {
                write_words(&mut n, o, &[(1, pass + k as u32)]);
            }
        }
        assert!(
            n.stats.prefetch_hits() > 0,
            "strided streaming must hit the read-ahead buffer"
        );
        for (k, &o) in objs.iter().enumerate() {
            assert_eq!(read_word(&mut n, o, 1), 2 + k as u32);
        }
    }
}
