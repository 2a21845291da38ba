//! `lots-sim` — virtual-time substrate for the LOTS reproduction.
//!
//! The original paper evaluates LOTS on a 16-node Pentium IV cluster
//! with 100 Mb Fast Ethernet and local IDE/SCSI disks. This crate
//! replaces that hardware with *cost models over virtual time*: every
//! simulated DSM process owns a monotonic [`SimClock`] advanced by the
//! CPU / network / disk models in [`cost`], with calibrated per-platform
//! bundles in [`machine`] and per-category accounting in [`stats`].
//!
//! Protocols and applications in the other crates run for real — real
//! bytes are diffed, shipped and swapped — while time is charged through
//! these models, which is what lets a laptop-scale run reproduce the
//! *shape* of the paper's cluster results.

// The one exception is `sched::affinity` (three libc calls).
#![deny(unsafe_code)]

pub mod clock;
pub mod cost;
pub mod diskq;
pub mod fault;
pub mod machine;
pub mod sched;
pub mod stats;
pub mod topology;

pub use clock::{SimClock, SimDuration, SimInstant};
pub use cost::{CpuModel, DiskModel, NetModel};
pub use diskq::{DiskOp, DiskQueue};
pub use fault::{CrashFault, Delivery, FaultPlan, PanicFault, Partition};
pub use machine::MachineConfig;
pub use sched::{
    run_app_tasks, run_tasks, BlockReason, Choice, DaemonTurn, SchedHandle, ScheduleScript,
    Scheduler, SchedulerMode,
};
pub use stats::{
    home_load_ratio_permille, Counter, NodeStats, SchedSummary, TimeCategory, ALL_CATEGORIES,
    COUNTERS,
};
pub use topology::Topology;
