//! `lots-core` — a Rust reproduction of **LOTS: A Software DSM
//! Supporting Large Object Space** (Cheung, Wang, Lau — CLUSTER 2004).
//!
//! LOTS is an object-based software distributed shared memory runtime
//! whose shared object space can exceed the process address space:
//! object *data* is dynamically and lazily mapped into a fixed DMM
//! region and swapped to local disk under pressure, while only a trace
//! of per-object control information stays resident (§1, §3.3). On top
//! of that live Scope Consistency (§3.4) and a mixed coherence
//! protocol: homeless write-update at locks, migrating-home
//! write-invalidate at barriers, with per-field timestamps eliminating
//! the diff-accumulation problem (§3.5).
//!
//! # Quick start
//!
//! Applications program against the [`DsmApi`]/[`DsmSlice`] traits —
//! the same code runs on LOTS, the LOTS-x ablation, and the JIAJIA
//! baseline. View guards open a bulk access scope that runs the §4.2
//! access check once and exposes a plain slice:
//!
//! ```
//! use lots_core::{run_cluster, ClusterOptions, DsmApi, DsmSlice, LotsConfig};
//! use lots_sim::machine::p4_fedora;
//!
//! let opts = ClusterOptions::new(2, LotsConfig::small(64 * 1024), p4_fedora());
//! let (sums, report) = run_cluster(opts, |dsm| {
//!     let a = dsm.alloc::<i32>(100);
//!     // Each node writes its half through one mutable view:
//!     // one access check, check-free inner loop, write-back on drop.
//!     let half = 50 * dsm.me();
//!     {
//!         let mut mine = a.view_mut(half..half + 50);
//!         for (i, slot) in mine.iter_mut().enumerate() {
//!             *slot = (half + i) as i32;
//!         }
//!     }
//!     dsm.barrier();
//!     let sum = a.view(0..100).iter().map(|&v| v as i64).sum::<i64>();
//!     sum
//! });
//! assert_eq!(sums, vec![4950, 4950]);
//! assert!(report.exec_time.nanos() > 0);
//! ```
//!
//! The crate is organized like the system in the paper:
//!
//! | paper | module |
//! |---|---|
//! | §3.2 allocator, Fig. 4 queues | [`alloc`] |
//! | Fig. 3 address-space layout | [`layout`] |
//! | per-node state, journaling hooks | [`node`] (`node/mod.rs`) |
//! | what the API reports, on every system | [`error`] |
//! | §3.2 object table, placement, named lifecycle | `node/table.rs`, [`config::Placement::home`], [`directory`] |
//! | §3.3 dynamic mapper, swapping, pinning | `node/mapping.rs` |
//! | §3.3/§4.2 access check, range runs | `node/access.rs` |
//! | §3.4/§3.5 twins, diffs, barriers, serving | `node/coherence.rs` |
//! | §3.3 per-object host bytes | [`cow`] |
//! | §3.4 ScC + mixed protocol | [`consistency`] |
//! | §3.5 diffs, Fig. 7 fix | [`diff`], [`consistency::locks`] |
//! | §3.6 transport | `lots-net` crate |
//! | `Pointer<T>` API | [`api`] |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod alloc;
pub mod api;
pub mod cluster;
pub mod config;
pub mod consistency;
pub mod cow;
pub mod diff;
pub mod directory;
pub mod error;
pub mod layout;
pub mod node;
pub mod object;
pub mod pod;
pub mod protocol;
pub mod runtime;
pub mod state_table;
pub mod swap;

pub use alloc::FragStats;
pub use api::{Dsm, DsmApi, DsmSlice, SharedSlice, Slice, StmtGuard, View, ViewMut};
pub use config::{
    AllocConfig, DiffMode, FitPolicy, LockProtocol, LotsConfig, Placement, Striping, SwapConfig,
    SwapPolicyKind,
};
pub use consistency::locks::LockId;
pub use diff::WordDiff;
pub use error::{AllocRef, ConfigError, DsmError};
pub use lots_analyze::{AnalyzeConfig, RaceReport};
pub use lots_net::{NodeId, TrafficStats};
pub use lots_persist::{
    CompactionConfig, PersistConfig, PersistError, PersistStore, RestoredCluster,
};
pub use lots_sim::{FaultPlan, PanicFault, ScheduleScript, SchedulerMode, Topology};
pub use node::SwapAccounting;
pub use object::{Life, NamedAllocReq, ObjectId};
pub use pod::Pod;
pub use runtime::{restore_cluster, run_cluster, ClusterOptions, ClusterReport, NodeReport};
