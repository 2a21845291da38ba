//! `lots-apps` — the paper's evaluation workloads, written **once**,
//! generically over [`lots_core::DsmApi`], and runnable on LOTS,
//! LOTS-x and the JIAJIA baseline (§4.1), plus the Test 2
//! large-object-space program (§4.3). No kernel contains a per-system
//! branch; the system-specific data layout lives behind
//! [`lots_core::DsmApi::alloc_chunks`] and hot loops run through view
//! guards ([`lots_core::DsmSlice::view`]/[`lots_core::DsmSlice::view_mut`]).
//!
//! | app | §4.1 access pattern | favoured protocol |
//! |---|---|---|
//! | [`me`] merge sort | migratory (mergers own half the data) | migrating home |
//! | [`lu`] factorization | single row writer, many readers | object granularity (no false sharing) |
//! | [`sor`] red-black | single writer per row, edge rows read-shared | migrating home |
//! | [`rx`] radix sort | 1/p buckets single-owner, rest ping-pong | fixed home (JIAJIA) at large p |
//! | [`largeobj`] Test 2 | streaming writes/reads over > 4 GB | LOTS only |
//! | [`churn`] object churn | rolling alloc/free window, named checkpoints | the lifecycle API (free/named/placement) |
//! | [`hotobj`] hot object | many readers + rotating writers on one large object | striping (per-segment homes + snapshots) |

#![forbid(unsafe_code)]

pub mod adapter;
pub mod churn;
pub mod hotobj;
pub mod largeobj;
pub mod lu;
pub mod me;
pub mod runner;
pub mod rx;
pub mod sor;

pub use adapter::{alloc_chunked, combine, AppResult, Chunked, DsmProgram};
pub use runner::{run_app, RunConfig, RunOutcome, System};
