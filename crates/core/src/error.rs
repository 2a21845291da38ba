//! What the DSM API reports, on every system: one [`DsmError`] for
//! LOTS, LOTS-x and JIAJIA. The name directory and
//! [`Placement::check`](crate::config::Placement::check) return it
//! directly, so a lifecycle error reads the same whichever system
//! raised it; only the allocation it names differs ([`AllocRef`]).
//!
//! What a run may not be is the other error here: [`ConfigError`],
//! which the options' `check` returns before any task exists.

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

/// A run the library refuses to start. Each rule is checked in one
/// function, before the driver registers any task:
/// [`ClusterSpec::check`](crate::cluster::ClusterSpec::check) holds
/// the protocol-independent ones,
/// [`ClusterOptions::check`](crate::ClusterOptions::check) and
/// `lots_jiajia::JiaOptions::check` add each system's own.
/// `run_cluster` and `run_jiajia_cluster` panic with the error's
/// [`Display`](std::fmt::Display) before the run is entered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A cluster of zero nodes.
    NoNodes,
    /// A restore with persistence off: the replay re-journals, barrier
    /// by barrier, to verify itself against the restored log.
    RestoreWithoutPersistence,
    /// A restore at another cluster size than the journals it replays.
    RestoreSizeMismatch {
        /// Nodes the restored journals were written by.
        restored: usize,
        /// Cluster size of the run.
        n: usize,
    },
    /// A fault plan names a node (crash, panic, slowdown or islander)
    /// outside the cluster, where it would never fire.
    FaultNodeOutsideCluster {
        /// The out-of-range node.
        node: usize,
        /// Cluster size (valid nodes are `0..n`).
        n: usize,
    },
    /// Crash-rejoin on JIAJIA, which has none: it keeps no per-node
    /// swap store to rebuild a node from.
    CrashRejoinUnsupported,
    /// A JIAJIA shared space that is not a whole number of its 4 KB
    /// pages (§2, §4.1).
    SharedSpaceNotPageGranular {
        /// The requested shared-space size.
        bytes: usize,
    },
    /// More nodes than an object's control record can name as its home
    /// (§3.2: a home is a node id every machine knows).
    TooManyNodes {
        /// Cluster size.
        n: usize,
        /// Most nodes a cluster may have.
        max: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use ConfigError::*;
        match self {
            NoNodes => write!(f, "a run needs a cluster of at least one node"),
            RestoreWithoutPersistence => write!(
                f,
                "restoring a run needs persistence on: its replay journals again"
            ),
            RestoreSizeMismatch { restored, n } => write!(
                f,
                "the restored journals are of {restored} nodes, the run has {n}"
            ),
            FaultNodeOutsideCluster { node, n } => write!(
                f,
                "the fault plan names node {node}, outside the cluster (valid nodes are 0..{n})"
            ),
            CrashRejoinUnsupported => write!(
                f,
                "JIAJIA has no crash-rejoin: it keeps no per-node swap store to rebuild \
                 a node from (use loss or partition faults instead)"
            ),
            SharedSpaceNotPageGranular { bytes } => write!(
                f,
                "a JIAJIA shared space of {bytes} bytes is not a whole number of 4 KB pages"
            ),
            TooManyNodes { n, max } => write!(
                f,
                "a cluster of {n} nodes is more than the {max} an object's home can name"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

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
