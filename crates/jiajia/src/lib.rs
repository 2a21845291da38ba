//! `lots-jiajia` — the paper's evaluation baseline: a JIAJIA-v1.1-like
//! page-based, home-based software DSM under Scope Consistency, built
//! on the same network/time substrates as the LOTS reproduction so the
//! two systems are compared exactly as §4.1 compares them.
//!
//! Key contrasts with LOTS that the Figure 8 experiments exercise:
//!
//! * **page granularity** (4 KB) → read-write and write-write false
//!   sharing on row-structured data (LU);
//! * **fixed, round-robin homes** → only `1/p` of migratory data is
//!   home-local (ME), and every non-home write pays a diff flush;
//! * **no per-access software check** → no object-based overhead, but
//!   SIGSEGV-modeled fault costs on misses;
//! * **bounded shared space** (128 MB in v1.1) → no large-object
//!   support at all.

#![forbid(unsafe_code)]

pub mod api;
pub mod node;
pub mod page;
pub mod runtime;
pub mod services;

pub use api::{JMsg, JiaDsm, JiaSlice, SharedSpace};
pub use page::PAGE_BYTES;
pub use runtime::{
    restore_jiajia_cluster, run_jiajia_cluster, JiaNodeReport, JiaOptions, JiaReport,
};
