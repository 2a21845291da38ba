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
//!
//! Everything but the racy kernel runs through `lattice::check`.

mod lattice;

use lattice::*;
use lots::apps::adapter::{AppResult, DsmProgram};
use lots::apps::{largeobj::LargeObjParams, lu::LuParams, me::MeParams};
use lots::core::{DiffMode, DsmApi, DsmSlice, LockProtocol, RaceReport};

/// `n` nodes of each system, seed 42, race detector on.
fn analyzed(n: usize) -> [Point; 3] {
    all_three(n, 64 << 20).map(|p| p.with(|p| (p.seed, p.analyze.race_detect) = (42, true)))
}

/// The race report of one run at `p`.
fn races_of(p: &Point, prog: &(impl DsmProgram + Clone)) -> RaceReport {
    p.run(prog).races.expect("analysis was enabled")
}

// ---------------------------------------------------------------------
// The seeded racy workload.
// ---------------------------------------------------------------------

/// Node 0 writes element 0 while node 1 reads it with no ordering
/// between them — the textbook ScC race — through element ops or
/// through a `view_mut(0..1)` and a `view(0..1)`. The post-race barrier
/// only proves the detector keys on the *access-time* clocks, not the
/// final ones.
#[derive(Debug, Clone, Copy)]
struct RacyKernel(Access);

const RACY: RacyKernel = RacyKernel(Access::Elements);

impl DsmProgram for RacyKernel {
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        let a = dsm.alloc::<i64>(64);
        let (mut chk, v) = (0u64, dsm.seed() as i64 + 1);
        match (dsm.me(), self.0) {
            (0, Access::Elements) => a.write(0, v),
            (0, Access::Guards) => a.view_mut(0..1)[0] = v,
            (_, Access::Elements) => chk = a.read(0) as u64,
            (_, Access::Guards) => chk = a.view(0..1)[0] as u64,
        }
        dsm.barrier();
        untimed(chk.wrapping_add(a.read(0) as u64))
    }
}

#[test]
fn racy_workload_is_flagged_on_all_three_systems() {
    for p in analyzed(2) {
        assert!(
            !races_of(&p, &RACY).is_empty(),
            "{:?}: unsynchronized R/W must be flagged",
            p.system
        );
    }
}

#[test]
fn a_race_through_view_guards_is_the_race_through_elements() {
    for p in analyzed(2) {
        let guards = races_of(&p, &RacyKernel(Access::Guards)).to_string();
        assert_eq!(guards, races_of(&p, &RACY).to_string(), "{:?}", p.system);
    }
}

#[test]
fn race_report_reproduces_byte_for_byte() {
    for p in analyzed(2) {
        // Serialized: object, byte span, both access sites.
        let a = races_of(&p, &RACY).to_string();
        assert_eq!(
            a,
            races_of(&p, &RACY).to_string(),
            "{:?}: race report drifted",
            p.system
        );
        assert_ne!(a, races_of(&p, &FixedKernel).to_string());
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
        untimed(a.read(0) as u64)
    }
}

#[test]
fn barrier_ordering_silences_the_race() {
    for p in analyzed(2) {
        assert!(
            races_of(&p, &FixedKernel).is_empty(),
            "{:?}: barrier-ordered accesses are not a race",
            p.system
        );
    }
}

// ---------------------------------------------------------------------
// Zero false positives on the committed workload suite: every
// `lattice::check` asserts a race-free program reports no races.
// ---------------------------------------------------------------------

#[test]
fn sor_and_lu_run_clean_on_all_systems() {
    check(&analyzed(4), &SOR_SMALL);
    check(&analyzed(4), &LuParams { n: 48 });
}

#[test]
fn me_and_rx_run_clean_on_all_systems() {
    let me = MeParams {
        total: 1 << 10,
        seed: 20040920,
    };
    check(&analyzed(4), &me);
    check(&analyzed(4), &RX_SMALL);
}

#[test]
fn largeobj_and_churn_run_clean_on_all_systems() {
    let lo = Test2(LargeObjParams {
        rows: 6,
        row_elems: 2048,
    });
    check(&analyzed(4), &lo);
    check(&analyzed(4), &CHURN_SMALL);
}

/// Analysis is observability-only: `check` replays every point with
/// the detector flipped and compares results and fingerprints.
#[test]
fn enabling_analysis_leaves_virtual_times_byte_identical() {
    let off = analyzed(4).map(|p| p.with(|p| p.analyze.race_detect = false));
    check(&off, &SOR_SMALL);
}

/// HashMap→BTreeMap conversion regression: lock-protocol fingerprints
/// stay stable across repeats in every protocol/diff-mode combination
/// (the code paths whose state was converted).
#[test]
fn lock_protocol_fingerprints_survive_map_conversion() {
    let mut points = Vec::new();
    for lock_protocol in [
        LockProtocol::HomelessWriteUpdate,
        LockProtocol::WriteInvalidate,
    ] {
        for diff_mode in [DiffMode::PerFieldOnDemand, DiffMode::AccumulatedDiffs] {
            let point = analyzed(4)[0].clone();
            points.push(
                point.with(|p| {
                    (p.lots.lock_protocol, p.lots.diff_mode) = (lock_protocol, diff_mode)
                }),
            );
        }
    }
    check(&points, &Script::random(8).locked());
}
