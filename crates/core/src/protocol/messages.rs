//! Data-plane protocol messages.
//!
//! These travel through `lots-net` between node comm handlers (the SIGIO
//! handler analogue): object fetches from homes and the barrier-phase
//! diff propagation of the migrating-home protocol. Synchronization
//! control (lock queues, barrier rendezvous) is coordinated through
//! shared services with analytically charged message costs — the
//! README's "Network model & fault injection" calls them the analytic
//! control plane — so it does not appear here.

use lots_net::WireSize;

use crate::object::ObjectId;

/// Data-plane messages between LOTS nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Ask the home for a clean copy of the object.
    ObjReq {
        /// Requested object.
        obj: ObjectId,
    },
    /// Home's reply; payload carries the object bytes.
    ObjReply {
        /// Served object.
        obj: ObjectId,
        /// Barrier epoch of the served copy.
        version: u64,
    },
    /// Barrier diff propagation to the home (multi-writer objects);
    /// payload carries the encoded [`WordDiff`]. `ts` orders overlapping
    /// lock-era writes (release timestamp; 0 for plain interval diffs).
    ///
    /// [`WordDiff`]: crate::diff::WordDiff
    DiffSend {
        /// Object the diff belongs to.
        obj: ObjectId,
        /// Release timestamp ordering overlapping lock-era writes.
        ts: u64,
    },
    /// Home's acknowledgement that a diff was applied.
    DiffAck {
        /// Object whose diff was applied.
        obj: ObjectId,
    },
}

impl WireSize for Msg {
    fn wire_size(&self) -> usize {
        // Compact C-struct encodings: 2-byte opcode + fields.
        match self {
            Msg::ObjReq { .. } => 2 + 4,
            Msg::ObjReply { .. } => 2 + 4 + 8,
            Msg::DiffSend { .. } => 2 + 4 + 8,
            Msg::DiffAck { .. } => 2 + 4,
        }
    }
}

/// Wire size of the control messages charged analytically by the
/// shared synchronization services.
pub mod ctl {
    /// Lock acquire request (lock id + seen timestamp).
    pub const LOCK_ACQ: usize = 2 + 4 + 8;
    /// Lock grant header (payload: updates, accounted separately).
    pub const LOCK_GRANT: usize = 2 + 4 + 8;
    /// Lock release header (payload: updates).
    pub const LOCK_REL: usize = 2 + 4 + 8;
    /// Barrier enter header; plus per-write-notice bytes.
    pub const BARRIER_ENTER: usize = 2 + 8;
    /// One write notice (object id + diff size hint).
    pub const WRITE_NOTICE: usize = 8;
    /// Barrier plan/exit headers; plus per-instruction bytes.
    pub const BARRIER_PLAN: usize = 2 + 8;
    /// One plan/migration/invalidation entry.
    pub const PLAN_ENTRY: usize = 8;
    /// Barrier done notification.
    pub const BARRIER_DONE: usize = 2 + 8;
    /// Barrier exit header.
    pub const BARRIER_EXIT: usize = 2 + 8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_are_compact() {
        assert_eq!(Msg::ObjReq { obj: ObjectId(1) }.wire_size(), 6);
        assert_eq!(
            Msg::ObjReply {
                obj: ObjectId(1),
                version: 9
            }
            .wire_size(),
            14
        );
        assert_eq!(
            Msg::DiffSend {
                obj: ObjectId(1),
                ts: 0
            }
            .wire_size(),
            14
        );
        assert_eq!(Msg::DiffAck { obj: ObjectId(1) }.wire_size(), 6);
    }

    #[test]
    fn control_sizes_positive() {
        const { assert!(ctl::LOCK_ACQ > 0) }
        const { assert!(ctl::WRITE_NOTICE > 0) }
        const { assert!(ctl::BARRIER_ENTER > 0) }
    }
}
