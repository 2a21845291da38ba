//! Per-node DSM state: one `NodeState` per simulated process, shared
//! (behind a mutex) between the node's application thread and its comm
//! handler. The state is declared here, with its introspection and
//! journaling hooks; its behaviour is split along the paper's seams:
//!
//! | paper | module |
//! |---|---|
//! | §3.2 object table, placement, named lifecycle | `node/table.rs` |
//! | §3.3 dynamic mapping, swapping, pinning, crash-rejoin | `node/mapping.rs` |
//! | §3.3/§4.2 the access check and range runs | `node/access.rs` |
//! | §3.4/§3.5 twins, diffs, lock updates, barriers, serving | `node/coherence.rs` |
//!
//! DMM offsets are modelled, bytes are per object: the allocator hands
//! out offsets in a `dmm_bytes` space that every mapping decision,
//! charge and report follows, but no host buffer of that size exists.
//! An object's host bytes and twin are a [`Held`] beside its control
//! record — nothing until touched, adopted from the reply on a fetch,
//! lent to the reply on a serve, dropped when the object leaves the DMM
//! area.
//!
//! There is no trait over node state shared with JIAJIA's page node,
//! but both hold their bytes the same way: a JIAJIA page's record holds
//! a [`Held`] too, so twinning before a write, installing a fetched
//! copy over this interval's own words, serving by lending and reading
//! never-written bytes from the static zero block are one code path
//! under both systems. The rest is policy (the lock-era word guard,
//! segments serving their twin, the write-invalidate filter on which
//! words go back on top of a fetched copy).
//!
//! [`Held`]: crate::cow::Held

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use lots_disk::BackingStore;
use lots_net::NodeId;
use lots_sim::{CpuModel, DiskQueue, NodeStats, SimClock, SimDuration, SimInstant, TimeCategory};

use crate::alloc::{DmmAllocator, FragStats};
use crate::config::LotsConfig;
use crate::cow::CowBytes;
use crate::diff::WordDiff;
use crate::directory::NameDirectory;
use crate::error::DsmError;
use crate::layout::{LARGE_OBJECT_BYTES, SMALL_OBJECT_BYTES};
use crate::object::{Life, Mapping, ObjectId, OBJ_STATES, STRIPE_CHILD};
use crate::swap::SwapImage;
use objects::ObjectTable;

mod access;
mod coherence;
mod mapping;
mod objects;
mod table;
#[cfg(test)]
mod tests;

/// An open critical section: the guarding lock plus CS-entry snapshots
/// of every object written inside it (used to compute the release
/// updates of the homeless write-update protocol).
#[derive(Debug)]
pub struct CsFrame {
    /// The guarding lock.
    pub lock: u32,
    /// CS-entry snapshots of objects written inside, by object id.
    pub cs_twins: HashMap<u32, CowBytes>,
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
    objects: ObjectTable,
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
    /// word → highest write timestamp (see `write_ts`) written there
    /// this interval. Lock-era only: a timestamp of 0 ("written before
    /// any lock release") is never stored, so an interval without
    /// critical sections leaves the map empty.
    barrier_word_guard: HashMap<u32, HashMap<u32, u64>>,
    /// Objects written since the last barrier.
    dirty: Vec<u32>,
    /// Per object, the timestamp this node's writes to it carry at the
    /// barrier: the release timestamp of the last critical section
    /// that wrote it, or — for a write outside any critical section
    /// made after this node released a lock — one more than that
    /// release, so it beats every CS write the release follows. One
    /// counter numbers the releases of every lock, so this holds
    /// across locks, and a CS write that follows this one through a
    /// later release carries a higher timestamp still. No entry (0)
    /// until one of the two happens.
    write_ts: HashMap<u32, u64>,
    /// Highest lock release timestamp this node made this interval
    /// (0: none yet).
    released: u64,
    /// Diffs cached at barrier entry (so later remote applications
    /// cannot contaminate them).
    cached_diffs: HashMap<u32, WordDiff>,
    /// Write-invalidate lock mode: object → node holding the freshest
    /// copy, used instead of the home for the next fetch.
    fetch_override: HashMap<u32, NodeId>,
    /// Write-invalidate lock mode: object → word → the lock and value of
    /// this node's last release that wrote it this interval. The next
    /// holder of that lock took the word from here, so a grant of the
    /// same lock brings it back as new or newer (see
    /// [`NodeState::install_fetch`]).
    lock_published: HashMap<u32, HashMap<u32, (u32, u32)>>,
    /// The local disk as a virtual-time device: batched write-behind,
    /// blocking reads, serial service.
    diskq: DiskQueue,
    /// Read-ahead buffer: swap key → (encoded image, completion time of
    /// its in-flight device read).
    prefetched: HashMap<u64, (Vec<u8>, SimInstant)>,
    /// Last demand swap-in, driving the stride predictor.
    last_swapin: Option<u32>,
    /// Cumulative logical bytes ever materialized locally (zero-fill
    /// maps and home fetches; swap round trips do not re-count).
    materialized_cum: u64,
    /// Cumulative logical bytes de-materialized locally (barrier
    /// invalidations and free reclamation).
    dematerialized_cum: u64,
    /// Object-table slots reclaimed by frees, awaiting reuse (lowest
    /// id first, so reuse is deterministic cluster-wide).
    free_ids: BTreeSet<u32>,
    /// Replicated name directory (identical on every node — entries
    /// change only at barriers) with this interval's staged frees and
    /// named allocations.
    names: NameDirectory<ObjectId, ObjectId>,
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
    /// Logical bytes of mapped objects.
    pub resident_logical: u64,
    /// Logical bytes of swapped-out objects.
    pub swapped_logical: u64,
    /// Logical bytes of all locally materialized objects — every
    /// object whose data lives here, mapped or on disk.
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
            SMALL_OBJECT_BYTES,
            LARGE_OBJECT_BYTES,
            cfg.alloc.fit,
        );
        let diskq = DiskQueue::new(store.model());
        NodeState {
            me,
            n,
            alloc,
            objects: ObjectTable::default(),
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
            write_ts: HashMap::new(),
            released: 0,
            cached_diffs: HashMap::new(),
            fetch_override: HashMap::new(),
            lock_published: HashMap::new(),
            diskq,
            prefetched: HashMap::new(),
            last_swapin: None,
            materialized_cum: 0,
            dematerialized_cum: 0,
            free_ids: BTreeSet::new(),
            names: NameDirectory::default(),
        }
    }

    fn charge(&self, cat: TimeCategory, d: SimDuration) {
        self.clock.advance(d);
        self.stats.charge(cat, d);
    }

    /// Check the record of object `id` against [`OBJ_STATES`]: every
    /// operation that changes a record ends with this (debug builds).
    #[inline]
    fn check_state(&self, id: u32) {
        if cfg!(debug_assertions) {
            let idx = id as usize;
            let state = self.objects[idx].state(self.objects.twin(idx).is_some());
            OBJ_STATES.check(state, format_args!("obj#{id} on node {}", self.me));
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Snapshot the DMM allocator's fragmentation state.
    pub fn frag_stats(&self) -> FragStats {
        self.alloc.frag_stats()
    }

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
            .filter(|o| o.life != Life::Free && !o.flag(STRIPE_CHILD))
            .map(|o| o.size() as u64)
            .sum()
    }

    /// Bytes of swap images held by the backing store — the bytes
    /// *actually* stored (post-compression), which is what counts
    /// against the platform's free disk space.
    pub fn swapped_bytes(&self) -> u64 {
        self.store.used_bytes()
    }

    /// Logical bytes of objects currently swapped out (`OnDisk`).
    pub fn swapped_logical_bytes(&self) -> u64 {
        self.logical_bytes(|m| m == Mapping::OnDisk)
    }

    /// Logical bytes of objects currently mapped in the DMM area.
    pub fn resident_logical_bytes(&self) -> u64 {
        self.logical_bytes(|m| matches!(m, Mapping::Mapped { .. }))
    }

    /// Logical bytes of the objects whose mapping `is` picks: a scan,
    /// since the mapping states are the one record of where bytes are.
    fn logical_bytes(&self, is: impl Fn(Mapping) -> bool) -> u64 {
        let picked = self.objects.iter().filter(|ctl| is(ctl.mapping()));
        picked.map(|ctl| ctl.size() as u64).sum()
    }

    /// Snapshot the swap accounting and cross-check it against the
    /// cumulative counters: every byte ever materialized here is
    /// resident, swapped, or was released by an invalidation or a free.
    pub fn swap_accounting(&self) -> SwapAccounting {
        let (resident, swapped) = (self.resident_logical_bytes(), self.swapped_logical_bytes());
        let acct = SwapAccounting {
            resident_logical: resident,
            swapped_logical: swapped,
            materialized: resident + swapped,
            store_resident: self.store.used_bytes(),
            materialized_cum: self.materialized_cum,
            dematerialized_cum: self.dematerialized_cum,
            freed_bytes: self.stats.freed_object_bytes(),
        };
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

impl crate::cluster::Journaled for NodeState {
    type Written = (ObjectId, NodeId);
    type Error = DsmError;

    /// One [`lots_persist::ObjMeta`] per live object slot, with its DMM
    /// offset while mapped. Stripe children appear individually (each
    /// is an ordinary directory object with its own home and diffs);
    /// the parent rides along so restore can rebuild the stripe record.
    fn persist_units(&self) -> Vec<(lots_persist::ObjMeta, Option<u64>)> {
        self.objects
            .iter()
            .enumerate()
            .filter(|(_, ctl)| ctl.life != Life::Free)
            .map(|(idx, ctl)| {
                let meta = lots_persist::ObjMeta {
                    id: idx as u32,
                    home: ctl.home() as u32,
                    version: ctl.version,
                    bytes: ctl.size() as u64,
                    parent: self.objects.parent(idx),
                };
                (meta, ctl.offset().map(|at| at as u64))
            })
            .collect()
    }

    fn persist_names(&self) -> Vec<lots_persist::NamedMeta> {
        self.names.persist(|id| id.0)
    }

    /// The object's bytes when mapped (zeros while untouched), the
    /// decoded swap image when the master sits on disk, the valid
    /// zero-fill when never materialized.
    fn persist_written_content(
        &self,
        written: &[(ObjectId, NodeId)],
    ) -> Result<Vec<(u32, Vec<u8>)>, DsmError> {
        let mut out = Vec::new();
        for &(id, home) in written {
            if home != self.me {
                continue;
            }
            let ctl = &self.objects[id.0 as usize];
            if ctl.life == Life::Free {
                continue;
            }
            let content = match ctl.mapping() {
                Mapping::OnDisk => {
                    let img = self.store.get(id.0 as u64)?;
                    let (data, _twin) = SwapImage::decode(&img, ctl.size())?;
                    data.into_owned()
                }
                Mapping::Mapped { .. } | Mapping::Unmapped | Mapping::Stale => self
                    .objects
                    .data(id.0 as usize)
                    .map_or_else(|| vec![0u8; ctl.size()], <[u8]>::to_vec),
            };
            out.push((id.0, content));
        }
        Ok(out)
    }

    fn persist_disk(&mut self) -> Option<&mut DiskQueue> {
        Some(&mut self.diskq)
    }
}
