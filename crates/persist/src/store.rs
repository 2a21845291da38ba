//! The durable byte store behind the per-node journals.
//!
//! A [`PersistStore`] is the simulation's "disk platter": one
//! append-only byte log per node, living outside any cluster so it
//! survives teardown (and simulated crashes). Runs write through their
//! [`NodeJournal`]s; a later [`PersistStore::restore`] parses the logs
//! back into a [`RestoredCluster`]. Cloning shares the underlying
//! logs, like cloning a file handle.
//!
//! [`NodeJournal`]: crate::journal::NodeJournal

use std::sync::Arc;

use parking_lot::Mutex;

use crate::restore::{restore, PersistError, RestoredCluster};

/// Cluster-wide set of per-node journal logs. Cheap to clone (shared
/// handle); pass one clone into the run and keep another to restore
/// from after the run (or its crash).
#[derive(Debug, Clone)]
pub struct PersistStore {
    inner: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl PersistStore {
    /// Empty logs for an `n`-node cluster.
    pub fn new(n: usize) -> PersistStore {
        PersistStore {
            inner: Arc::new(Mutex::new(vec![Vec::new(); n])),
        }
    }

    /// Number of node logs.
    pub fn nodes(&self) -> usize {
        self.inner.lock().len()
    }

    /// Current length of one node's log in bytes.
    pub fn log_bytes(&self, node: usize) -> u64 {
        self.inner.lock()[node].len() as u64
    }

    /// Snapshot one node's full log (a copy; the crate's readers borrow).
    pub fn log(&self, node: usize) -> Vec<u8> {
        self.inner.lock()[node].clone()
    }

    /// Run `f` on one node's log under the store lock: appends encode
    /// onto its end, the compactor reads it in place and swaps the
    /// rewrite in.
    pub(crate) fn with_log<R>(&self, node: usize, f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        f(&mut self.inner.lock()[node])
    }

    /// A deep copy with its own private logs (unlike [`Clone`], which
    /// shares them like a file handle) — the base for non-destructive
    /// fault-injection experiments on a finished run's journals.
    pub fn fork(&self) -> PersistStore {
        PersistStore {
            inner: Arc::new(Mutex::new(self.inner.lock().clone())),
        }
    }

    /// Fault injection: tear one node's log to its first `keep` bytes,
    /// as a crash mid-append would. Restore must truncate the readable
    /// log to the last intact record (and the cluster to the last
    /// complete checkpoint).
    pub fn truncate_tail(&self, node: usize, keep: usize) {
        let mut logs = self.inner.lock();
        let len = logs[node].len().min(keep);
        logs[node].truncate(len);
    }

    /// Fault injection: flip one byte of a node's log.
    pub fn corrupt_byte(&self, node: usize, at: usize) {
        let mut logs = self.inner.lock();
        if let Some(b) = logs[node].get_mut(at) {
            *b ^= 0xFF;
        }
    }

    /// Rebuild cluster state from the newest complete checkpoint: per
    /// node, parse the log up to any torn tail, take the newest
    /// manifest sequence completed by *every* node, fold the records
    /// to materialize directory, name table, extent map and home-owned
    /// object content at that checkpoint, and verify every recomputable
    /// seal/manifest digest along the way.
    pub fn restore(&self) -> Result<RestoredCluster, PersistError> {
        restore(&self.inner.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_logs() {
        let s = PersistStore::new(2);
        let s2 = s.clone();
        s.with_log(1, |log| log.extend_from_slice(&[1, 2, 3]));
        assert_eq!(s2.log_bytes(1), 3);
        assert_eq!(s2.log(1), vec![1, 2, 3]);
        assert_eq!(s2.log_bytes(0), 0);
        assert_eq!(s.nodes(), 2);
    }

    #[test]
    fn fault_injection_helpers() {
        let s = PersistStore::new(1);
        s.with_log(0, |log| log.extend_from_slice(&[10, 20, 30, 40]));
        s.corrupt_byte(0, 1);
        assert_eq!(s.log(0), vec![10, 20 ^ 0xFF, 30, 40]);
        s.truncate_tail(0, 2);
        assert_eq!(s.log(0), vec![10, 20 ^ 0xFF]);
        s.truncate_tail(0, 100); // beyond end: no-op
        assert_eq!(s.log_bytes(0), 2);
    }
}
