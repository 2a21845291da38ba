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
use crate::cow::CowBytes;
use crate::diff::WordDiff;

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

/// Per-node, per-object control information (the control-area record).
#[derive(Debug)]
pub struct ObjCtl {
    /// Object size in bytes (word-aligned).
    pub size: usize,
    /// Current home node. Updated cluster-wide at barrier exit when
    /// the migrating-home protocol moves it (§3.4).
    pub home: NodeId,
    /// Local mapping state.
    pub mapping: Mapping,
    /// Local coherence state.
    pub share: Share,
    /// Version (barrier epoch) of the local copy.
    pub version: u64,
    /// Pinning timestamp: statement counter at last access (§3.3).
    /// Objects with the current statement's stamp are unswappable.
    pub last_access: u64,
    /// The object's host bytes while [`Mapping::Mapped`]; zero (nothing
    /// allocated) whenever it is not, and until first touched.
    pub data: CowBytes,
    /// The interval twin, if the object was written this interval: the
    /// pre-write bytes, sharing `data`'s buffer until the first write.
    /// While the object is [`Mapping::OnDisk`] the twin's bytes are in
    /// the swap image and this holds only the fact that there is one.
    pub twin: Option<CowBytes>,
    /// Written since the last barrier (drives barrier write notices).
    pub written: bool,
    /// The backing store holds a current image of this object — a
    /// clean re-eviction can skip the disk write ("every object is
    /// swapped out once", §4.3).
    pub clean_on_disk: bool,
    /// Lifecycle state of this slot (see [`Life`]).
    pub life: Life,
    /// Requested (pre-word-rounding) byte size — `free` validates that
    /// the handle covers the whole original allocation.
    pub req_bytes: usize,
    /// Name in the replicated directory, if this object was allocated
    /// through `alloc_named` (cleared when the slot is reclaimed).
    pub name: Option<String>,
    /// First-touch placement: the home is provisional until the first
    /// barrier at which the object was written assigns the real one.
    pub home_pending: bool,
    /// Striping record if this object is a striped *parent* (its data
    /// never materializes; accesses route to the children).
    pub stripe: Option<StripeInfo>,
    /// `(parent id, segment index)` if this object is a stripe *child*.
    /// Children are invisible to the application and to the name
    /// directory; they are reclaimed with their parent.
    pub parent: Option<(u32, u32)>,
}

impl ObjCtl {
    /// Control state for a fresh object of `size` bytes homed at `home`.
    pub fn new(size: usize, home: NodeId) -> ObjCtl {
        assert!(size > 0, "zero-sized shared objects are not allocatable");
        assert_eq!(size % 4, 0, "object sizes are word-aligned");
        ObjCtl {
            size,
            home,
            mapping: Mapping::Unmapped,
            share: Share::Initial,
            version: 0,
            last_access: 0,
            data: CowBytes::zero(size),
            twin: None,
            written: false,
            clean_on_disk: false,
            life: Life::Live,
            req_bytes: size,
            name: None,
            home_pending: false,
            stripe: None,
            parent: None,
        }
    }

    /// Is this object a striped parent (data routed to children)?
    #[inline]
    pub fn is_striped(&self) -> bool {
        self.stripe.is_some()
    }

    /// Is this object a stripe child (invisible segment object)?
    #[inline]
    pub fn is_stripe_child(&self) -> bool {
        self.parent.is_some()
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
        self.share == Share::Invalid && self.mapping == Mapping::Unmapped
    }

    /// DMM offset if mapped.
    #[inline]
    pub fn offset(&self) -> Option<usize> {
        match self.mapping {
            Mapping::Mapped { offset } => Some(offset),
            _ => None,
        }
    }

    /// Number of 32-bit words in the object.
    #[inline]
    pub fn words(&self) -> usize {
        self.size / 4
    }

    /// Overwrite `words` (index, value) of the mapped copy and of its
    /// live twin, so the interval diff does not take words that came
    /// with a lock grant for local writes.
    pub(crate) fn patch_words(&mut self, words: impl Iterator<Item = (u32, u32)>) {
        let data = self.data.write();
        let mut twin = self.twin.as_mut().map(CowBytes::write);
        for (word, val) in words {
            let at = word as usize * 4;
            data[at..at + 4].copy_from_slice(&val.to_le_bytes());
            if let Some(twin) = &mut twin {
                twin[at..at + 4].copy_from_slice(&val.to_le_bytes());
            }
        }
    }

    /// The words this node wrote since the interval twin was taken.
    pub(crate) fn interval_diff(&mut self) -> WordDiff {
        let twin = self.twin.as_mut().expect("a written object has a twin");
        WordDiff::compute(twin.read(), self.data.read())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_object_is_initial_unmapped() {
        let c = ObjCtl::new(64, 3);
        assert_eq!(c.mapping, Mapping::Unmapped);
        assert_eq!(c.share, Share::Initial);
        assert!(c.locally_valid());
        assert_eq!(c.offset(), None);
        assert_eq!(c.words(), 16);
        assert_eq!(c.home, 3);
        assert!(c.twin.is_none());
        assert!(c.data.peek().is_none(), "no host byte until touched");
        assert!(!c.written);
    }

    #[test]
    fn mapped_exposes_offset() {
        let mut c = ObjCtl::new(8, 0);
        c.mapping = Mapping::Mapped { offset: 4096 };
        assert_eq!(c.offset(), Some(4096));
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
