//! `lots-analyze` — correctness tooling for the LOTS reproduction.
//!
//! The paper's Scope Consistency contract (§2, §4.2) makes a program
//! correct only when every pair of conflicting shared accesses is
//! ordered by the right lock or barrier. Nothing in the runtimes
//! checks that — a data race silently yields whatever the diff-merge
//! order produces. This crate adds the missing checks:
//!
//! * [`RaceDetector`] — per-(node, interval) vector clocks threaded
//!   through both runtimes' sync services and access paths, flagging
//!   conflicting overlapping accesses not ordered by a
//!   happens-before edge. Opt-in via [`AnalyzeConfig`] on
//!   `ClusterOptions` / `JiaOptions`; exact (no sampling, no false
//!   negatives over the executed schedule) and, under the
//!   deterministic scheduler, bit-for-bit replayable.
//! * [`explore_schedules`] — a DFS driver over `ScheduleScript`
//!   decision prefixes that exhaustively
//!   enumerates the within-epoch dispatch orders the conservative
//!   engine claims are equivalent, so the equivalence (and absence of
//!   schedule-dependent deadlocks) can be asserted instead of argued.
//!
//! The third correctness layer, the determinism source lint, is the
//! standalone `tools/lint` binary — it scans source text, not runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explore;
mod race;

pub use explore::{explore_schedules, Exploration};
pub use race::{AccessSite, Race, RaceDetector, RaceReport};

/// Which analyses a cluster run should carry. Default: all off —
/// analysis must never perturb (or tax) a regular run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnalyzeConfig {
    /// Thread a [`RaceDetector`] through the run's sync services and
    /// access paths and attach its [`RaceReport`] to the cluster
    /// report. Detection reads the same virtual-time event stream the
    /// report is built from, so it never changes virtual times,
    /// traffic or fingerprints.
    pub race_detect: bool,
}

impl AnalyzeConfig {
    /// Everything off (the default).
    pub fn off() -> AnalyzeConfig {
        AnalyzeConfig::default()
    }

    /// Race detection on.
    pub fn races() -> AnalyzeConfig {
        AnalyzeConfig { race_detect: true }
    }
}
