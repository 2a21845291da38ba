//! Data-plane protocol messages.
//!
//! These travel through `lots-net` between node comm handlers (the SIGIO
//! handler analogue), under both systems: a fetch of one coherence unit
//! (a LOTS object or stripe segment, a JIAJIA page) from the node that
//! serves it, and the diff propagation to a unit's home. The cluster
//! driver builds, serves and awaits every one of them
//! ([`crate::cluster`]). Synchronization control (lock queues, barrier
//! rendezvous) is coordinated through shared services with analytically
//! charged message costs — the README's "Network model & fault
//! injection" calls them the analytic control plane — so it does not
//! appear here.

use lots_net::WireSize;

/// Data-plane messages between nodes, over a `u32` coherence unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Ask for a clean copy of the unit.
    Req {
        /// Requested unit.
        unit: u32,
    },
    /// The served copy; payload carries the unit's bytes.
    Reply {
        /// Served unit.
        unit: u32,
        /// Barrier epoch of the served copy.
        version: u64,
    },
    /// A diff for the unit's home; payload carries the encoded
    /// [`WordDiff`]. LOTS stamps each with the release timestamp that
    /// orders overlapping lock-era writes (0 for plain interval diffs);
    /// JIAJIA's carry none, and none goes on the wire.
    ///
    /// [`WordDiff`]: crate::diff::WordDiff
    Diff {
        /// Unit the diff belongs to.
        unit: u32,
        /// Release timestamp, when the protocol orders diffs by one.
        ts: Option<u64>,
    },
    /// The home's acknowledgement that a diff was applied.
    Ack {
        /// Unit whose diff was applied.
        unit: u32,
    },
}

impl WireSize for Msg {
    fn wire_size(&self) -> usize {
        // Compact C-struct encodings: 2-byte opcode + fields.
        match self {
            Msg::Req { .. } | Msg::Ack { .. } => 2 + 4,
            Msg::Reply { .. } => 2 + 4 + 8,
            Msg::Diff { ts, .. } => 2 + 4 + ts.map_or(0, |_| 8),
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
        let cases = [
            (Msg::Req { unit: 1 }, 6),
            (
                Msg::Reply {
                    unit: 1,
                    version: 9,
                },
                14,
            ),
            (
                Msg::Diff {
                    unit: 1,
                    ts: Some(0),
                },
                14,
            ),
            (Msg::Diff { unit: 1, ts: None }, 6),
            (Msg::Ack { unit: 1 }, 6),
        ];
        for (msg, size) in cases {
            assert_eq!(msg.wire_size(), size, "{msg:?}");
        }
    }

    #[test]
    fn control_sizes_positive() {
        const { assert!(ctl::LOCK_ACQ > 0) }
        const { assert!(ctl::WRITE_NOTICE > 0) }
        const { assert!(ctl::BARRIER_ENTER > 0) }
    }
}
