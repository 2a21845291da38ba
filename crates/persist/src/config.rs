//! Persistence configuration: checkpoint interval and compaction tuning.

use lots_sim::SimDuration;

/// Background log-compaction tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionConfig {
    /// Master switch; `false` leaves logs append-only forever.
    pub enabled: bool,
    /// Trigger threshold: compact once superseded diff bytes make up
    /// at least this many permille of all diff bytes in the log.
    pub garbage_permille: u32,
    /// Don't bother below this many cumulative diff bytes.
    pub min_log_bytes: u64,
    /// How often the compaction daemon re-examines its node's log.
    pub poll: SimDuration,
}

impl Default for CompactionConfig {
    fn default() -> CompactionConfig {
        CompactionConfig {
            enabled: true,
            garbage_permille: 300,
            min_log_bytes: 4096,
            poll: SimDuration::from_millis(1),
        }
    }
}

/// Full persistence configuration, carried by each system's own
/// options (`LotsConfig::persist` on LOTS, `JiaOptions::persist` on
/// JIAJIA, both set with `with_persist`). Absent (`None`) persistence
/// is off and the run is bit-identical to a build without this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistConfig {
    /// Checkpoint every `n`-th barrier (sequences `n, 2n, 3n, …`); the
    /// interval is cluster-uniform, so a cluster checkpoint is the set
    /// of per-node manifests with one sequence number. `0` journals
    /// only: no manifests, so the log cannot seed a restore.
    pub checkpoint_every: u64,
    /// Compaction tuning.
    pub compaction: CompactionConfig,
}

impl PersistConfig {
    /// Journal with a checkpoint every `n`-th barrier and default
    /// compaction.
    pub fn every(n: u64) -> PersistConfig {
        PersistConfig {
            checkpoint_every: n,
            compaction: CompactionConfig::default(),
        }
    }

    /// Does barrier `seq` (1-based) end with a checkpoint?
    pub fn checkpoint_due(&self, seq: u64) -> bool {
        self.checkpoint_every > 0 && seq.is_multiple_of(self.checkpoint_every)
    }

    /// Replace the compaction tuning.
    #[must_use]
    pub fn with_compaction(mut self, compaction: CompactionConfig) -> PersistConfig {
        self.compaction = compaction;
        self
    }

    /// Disable background compaction.
    #[must_use]
    pub fn without_compaction(mut self) -> PersistConfig {
        self.compaction.enabled = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_due() {
        assert!(!PersistConfig::every(0).checkpoint_due(4));
        assert!(!PersistConfig::every(0).checkpoint_due(0));
        let every = PersistConfig::every(4);
        assert!(!every.checkpoint_due(1));
        assert!(every.checkpoint_due(4));
        assert!(every.checkpoint_due(8));
        assert!(!every.checkpoint_due(9));
    }

    #[test]
    fn builders() {
        let p = PersistConfig::every(4).without_compaction();
        assert_eq!(p.checkpoint_every, 4);
        assert!(!p.compaction.enabled);
        let c = CompactionConfig {
            garbage_permille: 500,
            ..CompactionConfig::default()
        };
        assert_eq!(
            PersistConfig::every(2)
                .with_compaction(c.clone())
                .compaction,
            c
        );
    }
}
