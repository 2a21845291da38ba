//! PR 7 acceptance: the ScC race detector.
//!
//! * A deliberately racy workload (unsynchronized read/write of the
//!   same element) is flagged on all three systems, and the report
//!   reproduces byte-for-byte under the deterministic scheduler.
//! * Zero false positives: every paper workload (SOR, LU, ME, RX,
//!   large-object Test 2) plus object churn runs clean on LOTS,
//!   LOTS-x and JIAJIA — they are data-race-free by construction, so
//!   any report here is a detector bug.
//! * Analysis is observability-only: enabling it changes neither
//!   results nor a single virtual-time fingerprint, on any system.
//! * Lock-protocol fingerprints are stable across repeats
//!   for both lock protocols and both diff modes — the regression
//!   gate for the HashMap→BTreeMap conversion in the protocol paths.

use lots::analyze::AnalyzeConfig;
use lots::apps::adapter::{AppResult, DsmProgram};
use lots::apps::runner::{run_app, RunConfig, RunOutcome, System};
use lots::apps::{
    churn::ChurnParams, largeobj, largeobj::LargeObjParams, lu::LuParams, me::MeParams,
    rx::RxParams, sor::SorParams,
};
use lots::core::{DiffMode, DsmApi, DsmSlice, LockProtocol};
use lots::sim::machine::p4_fedora;

const ALL_SYSTEMS: [System; 3] = [System::Lots, System::LotsX, System::Jiajia];

fn cfg(system: System, n: usize) -> RunConfig {
    let mut c = RunConfig::new(system, n, p4_fedora());
    c.seed = 42;
    c.analyze = AnalyzeConfig::races();
    c
}

/// Serialized race report: the whole observable output of a detection
/// run (object, byte span, both access sites).
fn races_of(out: &RunOutcome) -> String {
    out.races
        .as_ref()
        .expect("analysis was enabled")
        .to_string()
}

// ---------------------------------------------------------------------
// The seeded racy workload.
// ---------------------------------------------------------------------

/// Node 0 writes element 0 while node 1 reads it with no ordering
/// between them — the textbook ScC race. The post-race barrier only
/// proves the detector keys on the *access-time* clocks, not the
/// final ones.
#[derive(Debug, Clone, Copy)]
struct RacyKernel;

impl DsmProgram for RacyKernel {
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        let a = dsm.alloc::<i64>(64);
        let mut chk = 0u64;
        if dsm.me() == 0 {
            a.write(0, dsm.seed() as i64 + 1);
        } else {
            chk = a.read(0) as u64;
        }
        dsm.barrier();
        chk = chk.wrapping_add(a.read(0) as u64);
        AppResult {
            checksum: chk,
            elapsed: lots::sim::SimDuration::ZERO,
        }
    }
}

#[test]
fn racy_workload_is_flagged_on_all_three_systems() {
    for system in ALL_SYSTEMS {
        let out = run_app(&cfg(system, 2), RacyKernel);
        let report = out.races.as_ref().expect("analysis was enabled");
        assert!(
            !report.is_empty(),
            "{}: unsynchronized R/W must be flagged",
            system.label()
        );
    }
}

#[test]
fn race_report_reproduces_byte_for_byte() {
    for system in ALL_SYSTEMS {
        let a = races_of(&run_app(&cfg(system, 2), RacyKernel));
        let b = races_of(&run_app(&cfg(system, 2), RacyKernel));
        assert!(!a.is_empty());
        assert_eq!(a, b, "{}: race report drifted", system.label());
    }
}

/// The synchronized twin of [`RacyKernel`]: same accesses, but the
/// reader waits out a barrier first. Exactly zero races.
#[derive(Debug, Clone, Copy)]
struct FixedKernel;

impl DsmProgram for FixedKernel {
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        let a = dsm.alloc::<i64>(64);
        if dsm.me() == 0 {
            a.write(0, dsm.seed() as i64 + 1);
        }
        dsm.barrier();
        AppResult {
            checksum: a.read(0) as u64,
            elapsed: lots::sim::SimDuration::ZERO,
        }
    }
}

#[test]
fn barrier_ordering_silences_the_race() {
    for system in ALL_SYSTEMS {
        let out = run_app(&cfg(system, 2), FixedKernel);
        assert!(
            out.races.as_ref().expect("analysis on").is_empty(),
            "{}: barrier-ordered accesses are not a race",
            system.label()
        );
    }
}

// ---------------------------------------------------------------------
// Zero false positives on the committed workload suite.
// ---------------------------------------------------------------------

/// Wrapper: Test 2 (§4.3) as a [`DsmProgram`].
#[derive(Debug, Clone, Copy)]
struct LargeObjProgram(LargeObjParams);

impl DsmProgram for LargeObjProgram {
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        let out = largeobj::large_object_test(dsm, self.0)
            .unwrap_or_else(|e| panic!("large-object test: {e}"));
        AppResult {
            checksum: out.sum as u64,
            elapsed: out.elapsed,
        }
    }
}

fn assert_clean(label: &str, system: System, out: &RunOutcome) {
    let report = out.races.as_ref().expect("analysis was enabled");
    assert!(
        report.is_empty(),
        "{label} on {} must be race-free, got:\n{report}",
        system.label()
    );
}

#[test]
fn sor_and_lu_run_clean_on_all_systems() {
    for system in ALL_SYSTEMS {
        let sor = run_app(&cfg(system, 4), SorParams { n: 64, iters: 4 });
        assert_clean("SOR", system, &sor);
        let lu = run_app(&cfg(system, 4), LuParams { n: 48 });
        assert_clean("LU", system, &lu);
    }
}

#[test]
fn me_and_rx_run_clean_on_all_systems() {
    for system in ALL_SYSTEMS {
        let me = run_app(
            &cfg(system, 4),
            MeParams {
                total: 1 << 10,
                seed: 20040920,
            },
        );
        assert_clean("ME", system, &me);
        let rx = run_app(
            &cfg(system, 4),
            RxParams {
                total: 1 << 10,
                passes: 2,
                seed: 20040920,
            },
        );
        assert_clean("RX", system, &rx);
    }
}

#[test]
fn largeobj_and_churn_run_clean_on_all_systems() {
    let lo = LargeObjProgram(LargeObjParams {
        rows: 6,
        row_elems: 2048,
    });
    let churn = ChurnParams {
        phases: 4,
        objs_per_phase: 2,
        elems: 1024,
        retain: 1,
        ckpt_elems: 16,
    };
    for system in ALL_SYSTEMS {
        assert_clean("large-object", system, &run_app(&cfg(system, 4), lo));
        assert_clean("churn", system, &run_app(&cfg(system, 4), churn));
    }
}

// ---------------------------------------------------------------------
// Analysis never perturbs the simulation.
// ---------------------------------------------------------------------

#[test]
fn enabling_analysis_leaves_virtual_times_byte_identical() {
    for system in ALL_SYSTEMS {
        let mut off = cfg(system, 4);
        off.analyze = AnalyzeConfig::off();
        let without = run_app(&off, SorParams { n: 64, iters: 4 });
        let with = run_app(&cfg(system, 4), SorParams { n: 64, iters: 4 });
        assert!(without.races.is_none(), "off must mean no report");
        // The fingerprint leaves the race report out: everything else
        // must match.
        assert_eq!(
            (without.per_node, without.fingerprint),
            (with.per_node, with.fingerprint),
            "{}: the detector must be invisible to the simulation",
            system.label()
        );
    }
}

// ---------------------------------------------------------------------
// HashMap→BTreeMap conversion regression: lock-protocol fingerprints
// stay stable across repeats in every protocol/diff-mode
// combination (these are the code paths whose state was converted).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct LockHeavyKernel;

impl DsmProgram for LockHeavyKernel {
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        // Two objects mutated under one lock: the per-field timestamp
        // tables and the lock-carried object metadata (the converted
        // maps) both hold multi-object state.
        let a = dsm.alloc::<i64>(64);
        let b = dsm.alloc::<i64>(64);
        for round in 0..8 {
            dsm.lock(1);
            let at = round % 16;
            let v = a.read(at);
            a.write(at, v + 1);
            b.write(16 + at, v);
            dsm.unlock(1);
        }
        dsm.barrier();
        let sum: i64 = (0..64).map(|i| a.read(i) + b.read(i)).sum();
        AppResult {
            checksum: sum as u64,
            elapsed: lots::sim::SimDuration::ZERO,
        }
    }
}

#[test]
fn lock_protocol_fingerprints_survive_map_conversion() {
    for protocol in [
        LockProtocol::HomelessWriteUpdate,
        LockProtocol::WriteInvalidate,
    ] {
        for diff_mode in [DiffMode::PerFieldOnDemand, DiffMode::AccumulatedDiffs] {
            let mk = || {
                let mut c = cfg(System::Lots, 4);
                c.lots_tweak = match (protocol, diff_mode) {
                    (LockProtocol::HomelessWriteUpdate, DiffMode::PerFieldOnDemand) => {
                        |l: &mut _| {
                            l.lock_protocol = LockProtocol::HomelessWriteUpdate;
                            l.diff_mode = DiffMode::PerFieldOnDemand;
                        }
                    }
                    (LockProtocol::HomelessWriteUpdate, DiffMode::AccumulatedDiffs) => {
                        |l: &mut _| {
                            l.lock_protocol = LockProtocol::HomelessWriteUpdate;
                            l.diff_mode = DiffMode::AccumulatedDiffs;
                        }
                    }
                    (LockProtocol::WriteInvalidate, DiffMode::PerFieldOnDemand) => |l: &mut _| {
                        l.lock_protocol = LockProtocol::WriteInvalidate;
                        l.diff_mode = DiffMode::PerFieldOnDemand;
                    },
                    (LockProtocol::WriteInvalidate, DiffMode::AccumulatedDiffs) => |l: &mut _| {
                        l.lock_protocol = LockProtocol::WriteInvalidate;
                        l.diff_mode = DiffMode::AccumulatedDiffs;
                    },
                };
                let out = run_app(&c, LockHeavyKernel);
                assert_clean("lock-heavy", System::Lots, &out);
                (out.per_node, out.fingerprint)
            };
            assert_eq!(mk(), mk(), "{protocol:?}/{diff_mode:?} drifted");
        }
    }
}
