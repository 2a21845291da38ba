//! Cluster-wide log of messages dropped past the retry budget.
//!
//! When the reliable layer exhausts its fixed retry budget (in practice
//! inside a partition that never heals), a dropped request leaves its
//! requester blocked forever in virtual time. The deadlock detector
//! sees only a generic `Reply` block; this log lets the runtime name
//! the missing `(src, dst, seq)` triples in the deadlock snapshot so
//! the user debugs a concrete lost message, not an ambiguity.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::message::NodeId;

/// Shared, cloneable record of every message the transport dropped.
///
/// A `BTreeSet` keyed by `(src, dst, seq)`: the membership is a pure
/// function of the fault plan (drops are decided by seeded hashes at
/// send time), and the sorted order makes the rendered snapshot
/// deterministic too.
#[derive(Debug, Clone, Default)]
pub struct DropLog {
    inner: Arc<Mutex<BTreeSet<(NodeId, NodeId, u64)>>>,
}

impl DropLog {
    pub fn new() -> DropLog {
        DropLog::default()
    }

    /// Record that the message `src → dst` with sender sequence `seq`
    /// was dropped with no retransmission left.
    pub fn record(&self, src: NodeId, dst: NodeId, seq: u64) {
        self.inner.lock().insert((src, dst, seq));
    }

    /// Total messages dropped so far.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// The dropped `(src, dst, seq)` triples, in sorted order.
    pub fn entries(&self) -> Vec<(NodeId, NodeId, u64)> {
        self.inner.lock().iter().copied().collect()
    }

    /// Deadlock-snapshot rendering: one line per dropped message, empty
    /// when nothing was dropped.
    pub fn render(&self) -> String {
        let log = self.inner.lock();
        if log.is_empty() {
            return String::new();
        }
        let mut out = String::from("  messages dropped past the retry budget:");
        for &(src, dst, seq) in log.iter() {
            let _ = write!(out, "\n    node {src} -> node {dst} seq {seq}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_log_renders_nothing() {
        let log = DropLog::new();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert_eq!(log.render(), "");
    }

    #[test]
    fn entries_are_sorted_and_deduplicated() {
        let log = DropLog::new();
        log.record(2, 0, 9);
        log.record(0, 1, 5);
        log.record(2, 0, 9);
        assert_eq!(log.len(), 2);
        assert_eq!(log.entries(), vec![(0, 1, 5), (2, 0, 9)]);
        let r = log.render();
        assert!(r.contains("node 0 -> node 1 seq 5"), "{r}");
        assert!(r.contains("node 2 -> node 0 seq 9"), "{r}");
    }

    #[test]
    fn clones_share_the_log() {
        let log = DropLog::new();
        let other = log.clone();
        log.record(1, 2, 3);
        assert_eq!(other.len(), 1);
    }
}
