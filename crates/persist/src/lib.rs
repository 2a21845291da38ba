//! `lots-persist` — a log-structured durability layer under the DSM.
//!
//! The paper's LOTS is a compute-only DSM: barrier diffs are applied
//! and forgotten, so nothing survives the run. This crate adds the
//! storage layer the ROADMAP names as the foundation for
//! checkpoint/restart: a per-node append-only **diff journal** in
//! which every barrier's published interval diffs — plus the object
//! lifecycle events (alloc / free / name commits / home migration /
//! segment placement) — are recorded as length-prefixed,
//! RLE-compressed, CRC-checksummed records in deterministic order.
//!
//! Three mechanisms layer on the journal:
//!
//! * **Background compaction** ([`NodeJournal::maybe_compact`]) — when
//!   a log's live/garbage ratio crosses a threshold, runs of interval
//!   diffs below the previous sealed checkpoint are squashed into
//!   consolidated [`Record::Compacted`] object images. The runtime
//!   drives this from a scheduler daemon task and charges the I/O on
//!   the same serial disk device as demand traffic, so compaction
//!   visibly competes with the application.
//! * **Incremental checkpoints** ([`PersistConfig::checkpoint_every`])
//!   — every `n`-th barrier each node seals its journal segment and
//!   appends a manifest (directory, name table, per-object version
//!   vector, DMM extent map); a checkpoint is just a manifest plus the
//!   log prefix it pins.
//! * **Restore** ([`PersistStore::restore`]) — rebuilds per-node
//!   object state, homes and the replicated directory purely from the
//!   manifests + journals, truncating any torn tail to the newest
//!   complete checkpoint. The runtimes then replay deterministically
//!   against a [`VerifyPlan`], asserting the rebuilt state digests at
//!   every sealed barrier, to byte-identical reports and checksums.
//!
//! All structures use `BTreeMap` (never hash order) and fixed
//! little-endian encodings, so journal bytes — like every other report
//! in this repository — are a pure function of the simulated schedule.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod journal;
pub mod record;
pub mod restore;
pub mod store;

pub use config::{CompactionConfig, PersistConfig};
pub use journal::{
    BarrierInput, BarrierOutcome, CompactionOutcome, NodeJournal, SealInfo, VerifyPlan,
};
pub use record::{crc32, state_digest, Extent, ManifestBody, NamedMeta, ObjMeta, Record};
pub use restore::{PersistError, RestoredCluster, RestoredNode};
pub use store::PersistStore;
