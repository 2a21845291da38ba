//! **lots** — a Rust reproduction of *LOTS: A Software DSM Supporting
//! Large Object Space* (Cheung, Wang & Lau, IEEE CLUSTER 2004).
//!
//! This façade re-exports the whole system; see the crates for detail:
//!
//! * [`core`] (`lots-core`) — the LOTS DSM itself: dynamic memory
//!   mapping with disk swap, 1024-queue best-fit allocator, Scope
//!   Consistency, mixed coherence protocol, per-field-timestamp diffs.
//! * [`jiajia`] (`lots-jiajia`) — the JIAJIA v1.1 baseline.
//! * [`apps`] (`lots-apps`) — the evaluation workloads (ME, LU, SOR,
//!   RX, and the Test 2 large-object program).
//! * [`sim`], [`net`], [`disk`] — the virtual-time, interconnect and
//!   backing-store substrates.
//!
//! Applications are written **once** against the [`DsmApi`] and
//! [`DsmSlice`] traits and run unchanged on LOTS, the LOTS-x ablation
//! and the JIAJIA baseline. Element accessors (`read`/`write`) charge
//! one §4.2 access check per element; **view guards** run the check
//! once per bulk scope and expose a plain slice for the inner loop:
//!
//! ```
//! use lots::core::{run_cluster, ClusterOptions, DsmApi, DsmSlice, LotsConfig};
//! use lots::sim::machine::p4_fedora;
//!
//! let opts = ClusterOptions::new(4, LotsConfig::small(1 << 20), p4_fedora());
//! let (sums, _report) = run_cluster(opts, |dsm| {
//!     let a = dsm.alloc::<i64>(64);
//!     a.write(dsm.me(), dsm.me() as i64 + 1); // one checked access
//!     dsm.barrier();
//!     // One check for the whole scan, check-free inner loop.
//!     let sum = a.view(0..4).iter().sum::<i64>();
//!     sum
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```

#![forbid(unsafe_code)]

pub use lots_analyze as analyze;
pub use lots_apps as apps;
pub use lots_core as core;
pub use lots_disk as disk;
pub use lots_jiajia as jiajia;
pub use lots_net as net;
pub use lots_persist as persist;
pub use lots_sim as sim;

pub use lots_core::{DsmApi, DsmSlice};
