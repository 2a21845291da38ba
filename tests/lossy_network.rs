//! The lossy network model is invisible to applications and fatal only
//! when told to be.
//!
//! * A seeded plan with loss, duplication, reordering and a healing
//!   minority partition yields checksums identical to the fault-free
//!   run on SOR, RX and object churn, across LOTS, LOTS-x and JIAJIA —
//!   and replays bit for bit (`lattice::check`).
//! * Property-tested over the lattice's lossy plans, reseeded.
//! * Recoverable loss never trips the deadlock detector and no message
//!   stays dropped. Past the retry budget (a partition that never
//!   heals), the detector names the missing `(src, dst, seq)` instead
//!   of an anonymous hang.
//! * The recovery counters flow into the run's totals.

mod lattice;

use lattice::*;
use lots::apps::runner::System;
use lots::sim::{CrashFault, FaultPlan, Partition, SimDuration, SimInstant};
use proptest::prelude::*;

/// The lattice's lossy plan at four nodes: ~4% loss, duplication,
/// reordering, jitter, a straggler and a minority partition that heals
/// mid-run. Retransmission recovers every loss.
fn stress_plan() -> FaultPlan {
    Point::at([0, 0, 0, 0, 0, 0, 2, 0, 2]).cfg.faults
}

/// Four nodes of `system`, seed 42, under `faults`.
fn at(system: System, faults: FaultPlan) -> Point {
    Point::new(system, 4, 64 << 20).with(|p| (p.seed, p.faults) = (42, faults))
}

/// Fault-free and stressed points on every system.
fn clean_and_stressed() -> Vec<Point> {
    let on = |f: FaultPlan| all_three(4, 64 << 20).map(|p| at(p.system, f.clone()));
    [FaultPlan::none(), stress_plan()]
        .into_iter()
        .flat_map(on)
        .collect()
}

#[test]
fn stress_plan_preserves_checksums_on_every_system_and_workload() {
    check(&clean_and_stressed(), &SOR_SMALL);
    check(&clean_and_stressed(), &RX_SMALL);
    check(&clean_and_stressed(), &CHURN_SMALL);
}

/// A faulted LOTS run replays exactly: `check` runs each point twice.
/// (The name dates from when the engine had a second mode.)
#[test]
fn faulted_schedule_is_engine_invariant() {
    let stressed = at(System::Lots, stress_plan());
    check(std::slice::from_ref(&stressed), &SOR_SMALL);
    check(&[stressed], &CHURN_SMALL);
}

#[test]
fn recovery_counters_flow_into_the_outcome() {
    let faulted = at(System::Lots, stress_plan()).run(&CHURN_SMALL);
    assert!(
        faulted.traffic.msgs_retransmitted() > 0,
        "4% loss over a churn run must retransmit at least once"
    );
    assert!(
        faulted.traffic.dups_filtered() > 0,
        "2.5% duplication over a churn run must filter at least one dup"
    );
    assert_eq!(faulted.stats.rejoin_rounds(), 0, "no crash was scheduled");
    assert_eq!(faulted.stats.rejoin_bytes(), 0);

    let crash = FaultPlan {
        crash_node: Some(CrashFault {
            node: 1,
            at_barrier: 1,
            reboot: SimDuration::from_millis(10),
        }),
        ..stress_plan()
    };
    let rejoined = at(System::Lots, crash).run(&CHURN_SMALL);
    assert_eq!(rejoined.stats.rejoin_rounds(), 1, "one crash, one rejoin");
    assert!(
        rejoined.stats.rejoin_bytes() > 0,
        "the rebuild moves real bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The lattice's lossy plans, reseeded, on any system never move a
    /// workload off its sequential model, and replay exactly.
    #[test]
    fn random_lossy_plans_never_change_checksums(
        p in points([0, 0, 0, 0, 0, 0, 2, 0, 2], &[SYSTEM, ANALYZE]),
        which in 0usize..3,
    ) {
        let p = [p.with(|p| (p.dmm_bytes, p.shared_bytes, p.coords) = (64 << 20, 64 << 20, None))];
        match which {
            0 => check(&p, &SOR_SMALL),
            1 => check(&p, &RX_SMALL),
            _ => check(&p, &CHURN_SMALL),
        };
    }
}

/// Heavy but recoverable loss: every blocked wait is resolved by a
/// scheduled retransmission in bounded virtual time.
#[test]
fn recoverable_loss_never_trips_the_deadlock_detector() {
    let faults = FaultPlan {
        seed: 13,
        loss_permille: 200,
        ..FaultPlan::none()
    };
    let runs = check(
        &[
            at(System::Lots, FaultPlan::none()),
            at(System::Lots, faults),
        ],
        &SOR_SMALL,
    );
    assert!(
        ran(&runs[1]).traffic.msgs_retransmitted() > 0,
        "20% loss must retransmit"
    );
}

/// Behind a partition that never heals, every retry is lost and the
/// message is dropped: the requester blocks forever and the deadlock
/// snapshot must name the exact missing messages.
#[test]
#[should_panic(expected = "messages dropped past the retry budget")]
fn unrecoverable_drop_is_named_in_the_deadlock_snapshot() {
    let faults = FaultPlan {
        partitions: vec![Partition {
            start: SimInstant(0),
            end: SimInstant(u64::MAX),
            islanders: vec![3],
        }],
        ..FaultPlan::none()
    };
    at(System::Lots, faults).run(&Script::random(1));
}
