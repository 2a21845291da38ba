//! Object identity and per-node control information.
//!
//! §3.2: declaring a shared object generates "a unique,
//! known-to-all-machines object ID … the key to access all internal
//! data structures for the object". Allocation then binds memory and
//! sets the mapping state to *mapped* and the shared state to
//! *initial*. The per-object record below is the "trace of control
//! information" that stays resident while object data itself may be
//! swapped out — the mechanism that lets the object space exceed the
//! process space (§1).

use lots_net::NodeId;

use crate::config::Placement;

/// A staged named allocation, committed cluster-wide at the next
/// barrier: every node replays the same deterministic commit list, so
/// object ids (and the replicated name directory) agree without any
/// lockstep-allocation assumption — the allocating node can be the
/// only caller.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NamedAllocReq {
    /// Directory name (`lookup` key).
    pub name: String,
    /// Requested byte size (element count × element size).
    pub bytes: usize,
    /// Element size, checked by typed `lookup::<T>` calls.
    pub elem_size: usize,
    /// Element count.
    pub len: usize,
    /// Initial-home placement of the committed object.
    pub placement: Placement,
    /// Whether [`NamedAllocReq::placement`] was chosen explicitly by a
    /// `*_placed` call (`true`) or inherited from the config default
    /// (`false`). Explicit placements override the striping config's
    /// per-segment default.
    pub placement_explicit: bool,
}

/// Cluster-wide unique object identifier. Fits in 4 bytes so the
/// user-facing handle keeps the size of a C++ pointer (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// Where the object's data currently lives on this node (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapping {
    /// Never materialized here (no local copy yet).
    Unmapped,
    /// Mapped in the DMM area at this (modelled) offset.
    Mapped {
        /// Byte offset of the object's block in the DMM area.
        offset: usize,
    },
    /// Swapped out to the local backing store.
    OnDisk,
}

/// Lifecycle state of an object-table slot.
///
/// `free(slice)` tombstones the object immediately — every further
/// application access panics like the view-guard fences — and the
/// slot's DMM/twin/control space, swap image and directory entries are
/// reclaimed cluster-wide at the next barrier, after which the slot
/// (and its [`ObjectId`]) is reused by later allocations. The fence
/// persists through the `Free` state, but once the slot is *reused* a
/// stale `Copy` of the old handle aliases the new object — the
/// dangling-pointer hazard of the real system (handles stay 4 bytes,
/// §3.3, so there is no generation tag to catch it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Life {
    /// Allocated and accessible.
    #[default]
    Live,
    /// Freed this interval: data still materialized (the home must
    /// keep serving remote readers until the barrier) but local
    /// application access panics.
    Tombstoned,
    /// Reclaimed at a barrier; the slot awaits reuse.
    Free,
}

/// Coherence state of the local copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Share {
    /// Freshly allocated (zero-filled) — consistent cluster-wide at
    /// version 0, so it counts as valid.
    Initial,
    /// Clean copy at `version`.
    Valid,
    /// Stale: must be refetched from the home on next access.
    Invalid,
}

/// Striping record of a parent object: the application-visible handle
/// of a striped allocation is the *parent*, whose data never
/// materializes; each segment is an ordinary directory object (a
/// *child*) with its own home, twin, version and swap image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeInfo {
    /// Segment size in bytes (word-aligned; the final child may be
    /// shorter).
    pub seg_bytes: usize,
    /// Child object ids in segment order. Allocated as consecutive
    /// slots right after the parent, so every node derives the same
    /// list deterministically.
    pub children: Vec<u32>,
}

impl StripeInfo {
    /// The child id covering byte offset `at` of the parent.
    #[inline]
    pub fn child_at(&self, at: usize) -> u32 {
        self.children[at / self.seg_bytes]
    }
}

/// Per-node, per-object control information (the control-area record):
/// the "trace of control information" of §1, kept to the fields every
/// object-node pair needs. What most pairs never set lives beside the
/// table, keyed by id, and costs nothing while unset: the host bytes
/// and twin (a slot that exists only while the object holds either),
/// the stripe record of a striped parent, the `(parent, segment)` of a
/// stripe child, and the name (owned by the name directory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjCtl {
    /// DMM offset while [`Mapping::Mapped`].
    offset: u64,
    /// Version (barrier epoch) of the local copy.
    pub version: u64,
    /// Pinning timestamp: statement counter at last access (§3.3).
    /// Objects with the current statement's stamp are unswappable.
    pub last_access: u64,
    /// Object size in bytes (word-aligned, at most [`MAX_OBJECT_BYTES`]),
    /// with the 0–3 bytes the word rounding added to the requested size
    /// in its low two bits.
    size_pad: u32,
    /// Current home node. Updated cluster-wide at barrier exit when
    /// the migrating-home protocol moves it (§3.4).
    home: u32,
    /// The object's slot in its table's bytes slab, [`NO_SLOT`] while
    /// it holds neither bytes nor a twin.
    pub(crate) slot: u32,
    /// Local coherence state.
    pub share: Share,
    /// Lifecycle state of this slot (see [`Life`]).
    pub life: Life,
    /// Written since the last barrier (drives barrier write notices).
    pub written: bool,
    /// The mapping state without its offset (`PLACE` bits, `UNMAPPED`,
    /// `MAPPED` or `ON_DISK`), then the `CLEAN_ON_DISK`,
    /// `HOME_PENDING`, `STRIPED` and `STRIPE_CHILD` bits.
    flags: u8,
}

// Every object-node pair pays for one record: keep it small.
const _: () = assert!(std::mem::size_of::<ObjCtl>() <= 40);

/// [`ObjCtl::slot`] of an object holding neither bytes nor a twin.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Largest object size the control record holds.
pub const MAX_OBJECT_BYTES: usize = u32::MAX as usize & !3;

/// The two flag bits holding the mapping state, one of the next three.
const PLACE: u8 = 3;
const UNMAPPED: u8 = 0;
const MAPPED: u8 = 1;
const ON_DISK: u8 = 2;
/// The backing store holds a current image of this object — a clean
/// re-eviction can skip the disk write ("every object is swapped out
/// once", §4.3).
const CLEAN_ON_DISK: u8 = 4;
/// First-touch placement: the home is provisional until the first
/// barrier at which the object was written assigns the real one.
const HOME_PENDING: u8 = 8;
/// A striped *parent*: its data never materializes; accesses route to
/// the children.
const STRIPED: u8 = 16;
/// A stripe *child*: invisible to the application and to the name
/// directory, reclaimed with its parent.
const STRIPE_CHILD: u8 = 32;

impl ObjCtl {
    /// Control state for a fresh object of `size` bytes (at most
    /// [`MAX_OBJECT_BYTES`]) homed at `home`.
    pub fn new(size: usize, home: NodeId) -> ObjCtl {
        assert!(size > 0, "zero-sized shared objects are not allocatable");
        assert_eq!(size % 4, 0, "object sizes are word-aligned");
        assert!(
            size <= MAX_OBJECT_BYTES,
            "{size} bytes exceed the record's size field"
        );
        ObjCtl {
            offset: 0,
            version: 0,
            last_access: 0,
            size_pad: size as u32,
            home: narrow_home(home),
            slot: NO_SLOT,
            share: Share::Initial,
            life: Life::Live,
            written: false,
            flags: UNMAPPED,
        }
    }

    /// Object size in bytes (word-aligned).
    #[inline]
    pub fn size(&self) -> usize {
        (self.size_pad & !3) as usize
    }

    /// Requested (pre-word-rounding) byte size — `free` validates that
    /// the handle covers the whole original allocation.
    #[inline]
    pub fn req_bytes(&self) -> usize {
        self.size() - (self.size_pad & 3) as usize
    }

    /// Record the requested size this object's size rounds up from.
    pub(crate) fn set_req_bytes(&mut self, req_bytes: usize) {
        let pad = self.size() - req_bytes;
        assert!(
            pad < 4,
            "{req_bytes} bytes do not round up to {}",
            self.size()
        );
        self.size_pad = (self.size() | pad) as u32;
    }

    /// Current home node.
    #[inline]
    pub fn home(&self) -> NodeId {
        self.home as NodeId
    }

    /// Move the home (barrier exit, §3.4).
    #[inline]
    pub(crate) fn set_home(&mut self, home: NodeId) {
        self.home = narrow_home(home);
    }

    /// Local mapping state.
    #[inline]
    pub fn mapping(&self) -> Mapping {
        match self.flags & PLACE {
            UNMAPPED => Mapping::Unmapped,
            MAPPED => Mapping::Mapped {
                offset: self.offset as usize,
            },
            _ => Mapping::OnDisk,
        }
    }

    /// Set the local mapping state.
    #[inline]
    pub fn set_mapping(&mut self, mapping: Mapping) {
        let (place, offset) = match mapping {
            Mapping::Unmapped => (UNMAPPED, 0),
            Mapping::Mapped { offset } => (MAPPED, offset as u64),
            Mapping::OnDisk => (ON_DISK, 0),
        };
        self.flags = self.flags & !PLACE | place;
        self.offset = offset;
    }

    /// Does the backing store hold a current image of this object?
    #[inline]
    pub fn clean_on_disk(&self) -> bool {
        self.flags & CLEAN_ON_DISK != 0
    }

    /// Record whether the backing store holds a current image.
    #[inline]
    pub(crate) fn set_clean_on_disk(&mut self, clean: bool) {
        self.set_flag(CLEAN_ON_DISK, clean);
    }

    /// Is the home provisional (first-touch placement, not yet
    /// assigned by a barrier)?
    #[inline]
    pub fn home_pending(&self) -> bool {
        self.flags & HOME_PENDING != 0
    }

    /// Mark the home provisional, or settled.
    #[inline]
    pub(crate) fn set_home_pending(&mut self, pending: bool) {
        self.set_flag(HOME_PENDING, pending);
    }

    /// Mark this object a striped parent (or not).
    pub(crate) fn set_striped(&mut self, striped: bool) {
        self.set_flag(STRIPED, striped);
    }

    /// Mark this object a stripe child (or not).
    pub(crate) fn set_stripe_child(&mut self, child: bool) {
        self.set_flag(STRIPE_CHILD, child);
    }

    fn set_flag(&mut self, flag: u8, on: bool) {
        if on {
            self.flags |= flag;
        } else {
            self.flags &= !flag;
        }
    }

    /// Is this object a striped parent (data routed to children)?
    #[inline]
    pub fn is_striped(&self) -> bool {
        self.flags & STRIPED != 0
    }

    /// Is this object a stripe child (invisible segment object)?
    #[inline]
    pub fn is_stripe_child(&self) -> bool {
        self.flags & STRIPE_CHILD != 0
    }

    /// Is the local copy usable without a remote fetch?
    #[inline]
    pub fn locally_valid(&self) -> bool {
        matches!(self.share, Share::Initial | Share::Valid)
    }

    /// Was the local copy dropped, and not fetched again since? Then it
    /// holds no DMM block, no swap image and no swap-policy state.
    #[inline]
    pub(crate) fn is_dropped(&self) -> bool {
        self.share == Share::Invalid && self.flags & PLACE == UNMAPPED
    }

    /// DMM offset if mapped.
    #[inline]
    pub fn offset(&self) -> Option<usize> {
        (self.flags & PLACE == MAPPED).then_some(self.offset as usize)
    }

    /// Number of 32-bit words in the object.
    #[inline]
    pub fn words(&self) -> usize {
        self.size() / 4
    }
}

/// A home as the record holds it. Registration rejects a cluster
/// whose node ids do not fit ([`DsmError::TooManyNodes`]), so no home
/// reaching here is cut short.
///
/// [`DsmError::TooManyNodes`]: crate::error::DsmError::TooManyNodes
fn narrow_home(home: NodeId) -> u32 {
    u32::try_from(home).expect("node ids fit the control record (checked at registration)")
}

/// The most nodes a cluster may have: every home fits the record.
pub(crate) const MAX_NODES: usize = u32::MAX as usize + 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_object_is_initial_unmapped() {
        let c = ObjCtl::new(64, 3);
        assert_eq!(c.mapping(), Mapping::Unmapped);
        assert_eq!(c.share, Share::Initial);
        assert!(c.locally_valid());
        assert_eq!(c.offset(), None);
        assert_eq!(c.words(), 16);
        assert_eq!(c.home(), 3);
        assert_eq!(c.slot, NO_SLOT, "no host byte until touched");
        assert!(!c.written);
    }

    #[test]
    fn mapped_exposes_offset() {
        let mut c = ObjCtl::new(8, 0);
        c.set_mapping(Mapping::Mapped { offset: 4096 });
        assert_eq!(c.offset(), Some(4096));
        assert_eq!(c.mapping(), Mapping::Mapped { offset: 4096 });
    }

    #[test]
    fn invalid_is_not_locally_valid() {
        let mut c = ObjCtl::new(8, 0);
        c.share = Share::Invalid;
        assert!(!c.locally_valid());
        c.share = Share::Valid;
        assert!(c.locally_valid());
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn unaligned_size_rejected() {
        ObjCtl::new(10, 0);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_size_rejected() {
        ObjCtl::new(0, 0);
    }

    #[test]
    fn object_id_display() {
        assert_eq!(ObjectId(17).to_string(), "obj#17");
    }

    #[test]
    fn fresh_object_is_neither_striped_nor_child() {
        let c = ObjCtl::new(64, 0);
        assert!(!c.is_striped());
        assert!(!c.is_stripe_child());
    }

    #[test]
    fn stripe_info_maps_offsets_to_children() {
        let s = StripeInfo {
            seg_bytes: 1024,
            children: vec![7, 8, 9],
        };
        assert_eq!(s.child_at(0), 7);
        assert_eq!(s.child_at(1023), 7);
        assert_eq!(s.child_at(1024), 8);
        assert_eq!(s.child_at(3071), 9);
    }
}
