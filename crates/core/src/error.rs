//! What the DSM API reports, on every system: one [`DsmError`] for
//! LOTS, LOTS-x and JIAJIA. The name directory and
//! [`Placement::check`](crate::config::Placement::check) return it
//! directly, so a lifecycle error reads the same whichever system
//! raised it; only the allocation it names differs ([`AllocRef`]).

use lots_disk::{CorruptImage, DiskError};
use lots_net::NodeId;

use crate::diff::CorruptDiff;
use crate::object::ObjectId;

/// The allocation a lifecycle error names: a LOTS object, or a JIAJIA
/// shared address (an allocation's base, or the freed byte an access
/// reached).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocRef {
    /// A LOTS object (`obj#N`).
    Object(ObjectId),
    /// A JIAJIA shared address (`allocation at 0x…`).
    Addr(usize),
}

impl std::fmt::Display for AllocRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocRef::Object(id) => write!(f, "{id}"),
            AllocRef::Addr(addr) => write!(f, "allocation at {addr:#x}"),
        }
    }
}

impl From<ObjectId> for AllocRef {
    fn from(id: ObjectId) -> AllocRef {
        AllocRef::Object(id)
    }
}

impl From<usize> for AllocRef {
    fn from(addr: usize) -> AllocRef {
        AllocRef::Addr(addr)
    }
}

/// Errors surfaced to applications by the fallible (`try_*`) surface of
/// every system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsmError {
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
    /// JIAJIA's shared space is bounded (128 MB in v1.1, §2): the
    /// "application too large to fit" failure mode LOTS removes.
    OutOfSharedMemory {
        /// Bytes the failed allocation needed.
        requested: usize,
        /// Total shared-space bytes.
        limit: usize,
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
    /// Access through a handle to a freed allocation — the lifecycle
    /// analogue of the view-guard fences. Raised from `free` to the
    /// barrier that reclaims it (on LOTS forever after, through any
    /// stale handle).
    UseAfterFree {
        /// The freed allocation.
        alloc: AllocRef,
    },
    /// `free` called with a handle that does not cover one whole
    /// original allocation (an `offset`/`prefix` sub-slice, a length
    /// mismatch, or a foreign handle).
    BadFree {
        /// The allocation the handle points into.
        alloc: AllocRef,
        /// What was wrong with the handle.
        reason: Box<str>,
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
    /// The cluster has more nodes than an object's control record can
    /// name as its home.
    TooManyNodes {
        /// Cluster size.
        n: usize,
        /// Most nodes a cluster may have.
        max: usize,
    },
    /// [`Placement::Fixed`] names a node outside the cluster — a
    /// deterministic config error surfaced at alloc (or staging) time
    /// on every system, never an index panic mid-protocol.
    ///
    /// [`Placement::Fixed`]: crate::config::Placement::Fixed
    BadPlacement {
        /// The out-of-range node the placement requested.
        requested: NodeId,
        /// Cluster size (valid nodes are `0..n`).
        n: usize,
    },
}

// Every `try_*` on the access path returns `Result<_, DsmError>`:
// keep it from growing.
const _: () = assert!(std::mem::size_of::<DsmError>() <= 40);

impl std::fmt::Display for DsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use DsmError::*;
        match self {
            ObjectTooLarge { size, max } => write!(
                f,
                "object of {size} bytes exceeds single-object limit {max}"
            ),
            OutOfDmm { requested } => write!(
                f,
                "no swappable object in DMM area for a {requested}-byte mapping \
                 (all mapped objects pinned by the current statement)"
            ),
            LotsXCapacity { requested } => write!(
                f,
                "LOTS-x: DMM area exhausted allocating {requested} bytes \
                 (large-object-space support disabled)"
            ),
            OutOfSharedMemory { requested, limit } => write!(
                f,
                "jia_alloc of {requested} bytes exceeds the {limit}-byte shared space"
            ),
            Disk(e) => write!(f, "backing store: {e}"),
            CorruptImage { at } => write!(f, "corrupt stored image (decode failed at byte {at})"),
            CorruptDiff { at } => write!(f, "corrupt diff from a peer (rejected at byte {at})"),
            EmptyAlloc => write!(f, "cannot allocate an empty shared object"),
            UseAfterFree { alloc } => write!(
                f,
                "use after free: {alloc} was freed — handles to it are fenced off \
                 like the view-guard fences"
            ),
            BadFree { alloc, reason } => write!(f, "free of {alloc} rejected: {reason}"),
            NameNotFound { name } => write!(
                f,
                "no committed object named {name:?} (named allocations materialize \
                 at the next barrier)"
            ),
            NameTypeMismatch {
                name,
                expected,
                actual,
            } => write!(
                f,
                "object {name:?} holds {expected}-byte elements, lookup asked for \
                 {actual}-byte elements"
            ),
            DuplicateName { name } => write!(f, "an object named {name:?} already exists"),
            TooManyNodes { n, max } => write!(
                f,
                "a cluster of {n} nodes is more than the {max} an object's home can name"
            ),
            BadPlacement { requested, n } => write!(
                f,
                "Placement::Fixed({requested}) outside the cluster (valid nodes are 0..{n})"
            ),
        }
    }
}

impl std::error::Error for DsmError {}

impl DsmError {
    /// The whole-allocation rule of `free`, on every system, once the
    /// handle has found its allocation: one already freed (`held` is
    /// `None`) is a use after free, and a live one of `held` bytes
    /// must be freed through a handle covering exactly `bytes == held`.
    pub fn check_free(alloc: AllocRef, held: Option<usize>, bytes: usize) -> Result<(), DsmError> {
        match held {
            None => Err(DsmError::UseAfterFree { alloc }),
            Some(held) if held != bytes => Err(DsmError::BadFree {
                alloc,
                reason: format!("handle covers {bytes} bytes, the allocation holds {held}").into(),
            }),
            Some(_) => Ok(()),
        }
    }
}

impl From<DiskError> for DsmError {
    fn from(e: DiskError) -> DsmError {
        DsmError::Disk(e.to_string())
    }
}

impl From<CorruptImage> for DsmError {
    fn from(e: CorruptImage) -> DsmError {
        DsmError::CorruptImage { at: e.at }
    }
}

impl From<CorruptDiff> for DsmError {
    fn from(e: CorruptDiff) -> DsmError {
        DsmError::CorruptDiff { at: e.at }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_freed_allocation_reads_as_each_system_names_it() {
        let lots = DsmError::UseAfterFree {
            alloc: ObjectId(7).into(),
        };
        assert!(lots
            .to_string()
            .starts_with("use after free: obj#7 was freed"));
        let jia = DsmError::BadFree {
            alloc: 0x2000usize.into(),
            reason: "wrong size".into(),
        };
        assert_eq!(
            jia.to_string(),
            "free of allocation at 0x2000 rejected: wrong size"
        );
    }
}
