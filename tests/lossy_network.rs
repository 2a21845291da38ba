//! PR 9 acceptance: the lossy network model is invisible to
//! applications and fatal only when told to be.
//!
//! * A seeded plan with loss, duplication, reordering and a healing
//!   minority partition yields checksums byte-identical to the
//!   fault-free run on SOR, RX and object churn, across LOTS, LOTS-x
//!   and JIAJIA — and replays bit for bit, counters included.
//! * Property-tested: random plans (never isolating a majority) keep
//!   that guarantee on every system.
//! * The faulted schedule is engine-invariant: both `SchedulerMode`s
//!   agree byte for byte.
//! * With retransmission on, recoverable loss never trips the
//!   deadlock detector. With it off, the detector names the missing
//!   `(src, dst, seq)` instead of reporting an anonymous hang.
//! * The recovery counters flow into [`RunOutcome`].

use lots::apps::adapter::AppResult;
use lots::apps::runner::{run_app, RunConfig, RunOutcome, System};
use lots::apps::{churn::ChurnParams, rx::RxParams, sor::SorParams};
use lots::core::{run_cluster, ClusterOptions, DsmApi, DsmSlice, LotsConfig};
use lots::sim::machine::p4_fedora;
use lots::sim::{
    CrashFault, FaultPlan, Partition, Retransmit, SchedulerMode, SimDuration, SimInstant,
};
use proptest::prelude::*;

const SOR_SMALL: SorParams = SorParams { n: 64, iters: 8 };
const RX_SMALL: RxParams = RxParams {
    total: 1 << 12,
    passes: 2,
    seed: 20040920,
};
const CHURN_SMALL: ChurnParams = ChurnParams {
    phases: 6,
    objs_per_phase: 2,
    elems: 2048,
    retain: 1,
    ckpt_elems: 16,
};

const SYSTEMS: [System; 3] = [System::Lots, System::LotsX, System::Jiajia];

/// Everything a replay must reproduce: every node's result and the
/// report fingerprint (virtual time, traffic, the recovery counters).
fn observed(o: &RunOutcome) -> (&[AppResult], &str) {
    (&o.per_node, &o.fingerprint)
}

fn cfg(system: System, mode: SchedulerMode, faults: FaultPlan) -> RunConfig {
    let mut c = RunConfig::new(system, 4, p4_fedora());
    c.seed = 42;
    c.scheduler = mode;
    c.faults = faults;
    c
}

/// The committed stress plan: ~4% loss, duplication, reordering and a
/// minority partition that heals mid-run. Retransmission (the default)
/// makes every loss recoverable.
fn stress_plan() -> FaultPlan {
    FaultPlan {
        seed: 777,
        loss_permille: 40,
        dup_permille: 25,
        reorder_permille: 50,
        partitions: vec![Partition {
            start: SimInstant(500_000),
            end: SimInstant(4_000_000),
            islanders: vec![3],
        }],
        ..FaultPlan::none()
    }
}

fn run_one(system: System, mode: SchedulerMode, faults: FaultPlan, which: usize) -> RunOutcome {
    match which {
        0 => run_app(&cfg(system, mode, faults), SOR_SMALL),
        1 => run_app(&cfg(system, mode, faults), RX_SMALL),
        _ => run_app(&cfg(system, mode, faults), CHURN_SMALL),
    }
}

#[test]
fn stress_plan_preserves_checksums_on_every_system_and_workload() {
    for system in SYSTEMS {
        for (which, label) in [(0, "sor"), (1, "rx"), (2, "churn")] {
            let clean = run_one(
                system,
                SchedulerMode::Deterministic,
                FaultPlan::none(),
                which,
            );
            let faulted = run_one(system, SchedulerMode::Deterministic, stress_plan(), which);
            assert_eq!(
                clean.combined.checksum, faulted.combined.checksum,
                "{system:?}/{label}: the fault plan changed the answer"
            );
            assert_eq!(
                faulted.traffic.msgs_dropped(),
                0,
                "{system:?}/{label}: retransmission must recover every loss"
            );
            let replay = run_one(system, SchedulerMode::Deterministic, stress_plan(), which);
            assert_eq!(
                observed(&faulted),
                observed(&replay),
                "{system:?}/{label}: the faulted run must replay bit for bit"
            );
        }
    }
}

#[test]
fn faulted_schedule_is_engine_invariant() {
    for (which, label) in [(0, "sor"), (2, "churn")] {
        let oracle = run_one(
            System::Lots,
            SchedulerMode::Deterministic,
            stress_plan(),
            which,
        );
        let explore = run_one(
            System::Lots,
            SchedulerMode::Explore { max_schedules: 1 },
            stress_plan(),
            which,
        );
        assert_eq!(
            observed(&oracle),
            observed(&explore),
            "{label}: the unscripted Explore mode diverged under faults"
        );
    }
}

#[test]
fn recovery_counters_flow_into_the_outcome() {
    let faulted = run_one(System::Lots, SchedulerMode::Deterministic, stress_plan(), 2);
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
    let rejoined = run_one(System::Lots, SchedulerMode::Deterministic, crash, 2);
    assert_eq!(rejoined.stats.rejoin_rounds(), 1, "one crash, one rejoin");
    assert!(
        rejoined.stats.rejoin_bytes() > 0,
        "the rebuild moves real bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random seeded plans — loss, duplication, reordering, and an
    /// optional single-node (minority) partition — never change what
    /// any system computes, and the perturbed runs replay exactly.
    #[test]
    fn random_lossy_plans_never_change_checksums(
        fault_seed in any::<u64>(),
        loss in 1u16..70,
        dup in 0u16..40,
        reorder in 0u16..60,
        islander in 0usize..4,
        cut_roll in 0u64..4,
        cut_start in 0u64..2_000_000,
        which in 0usize..3,
    ) {
        // ~75% of cases also sever one node (a minority of 4) for a
        // window that heals well inside the retry budget.
        let partitions = if cut_roll > 0 {
            vec![Partition {
                start: SimInstant(cut_start),
                end: SimInstant(cut_start + 3_000_000),
                islanders: vec![islander],
            }]
        } else {
            Vec::new()
        };
        let faults = FaultPlan {
            seed: fault_seed,
            loss_permille: loss,
            dup_permille: dup,
            reorder_permille: reorder,
            partitions,
            ..FaultPlan::none()
        };
        for system in SYSTEMS {
            let clean = run_one(system, SchedulerMode::Deterministic, FaultPlan::none(), which);
            let faulted = run_one(system, SchedulerMode::Deterministic, faults.clone(), which);
            prop_assert_eq!(
                clean.combined.checksum,
                faulted.combined.checksum,
                "{:?}: plan {:?} changed the answer", system, faults
            );
            prop_assert_eq!(faulted.traffic.msgs_dropped(), 0);
            let replay = run_one(system, SchedulerMode::Deterministic, faults.clone(), which);
            prop_assert_eq!(
                observed(&faulted),
                observed(&replay),
                "{:?}: faulted run drifted on replay", system
            );
        }
    }
}

/// Heavy but recoverable loss: the deadlock detector must stay silent,
/// because every blocked wait is resolved by a scheduled retransmission
/// in bounded virtual time.
#[test]
fn recoverable_loss_never_trips_the_deadlock_detector() {
    let faults = FaultPlan {
        seed: 13,
        loss_permille: 200,
        ..FaultPlan::none()
    };
    let clean = run_one(
        System::Lots,
        SchedulerMode::Deterministic,
        FaultPlan::none(),
        0,
    );
    let faulted = run_one(System::Lots, SchedulerMode::Deterministic, faults, 0);
    assert_eq!(clean.combined.checksum, faulted.combined.checksum);
    assert_eq!(faulted.traffic.msgs_dropped(), 0);
    assert!(
        faulted.traffic.msgs_retransmitted() > 0,
        "20% loss must retransmit"
    );
}

/// With retransmission disabled, a first-attempt loss is final: the
/// requester blocks forever and the deadlock snapshot must name the
/// exact missing messages, not report an anonymous hang.
#[test]
#[should_panic(expected = "messages dropped without retransmission")]
fn unrecoverable_drop_is_named_in_the_deadlock_snapshot() {
    let faults = FaultPlan {
        seed: 13,
        loss_permille: 400,
        retransmit: Retransmit {
            enabled: false,
            ..Retransmit::default()
        },
        ..FaultPlan::none()
    };
    let opts = ClusterOptions::new(4, LotsConfig::small(1 << 20), p4_fedora()).with_faults(faults);
    let _ = run_cluster(opts, |dsm| {
        let a = dsm.alloc::<i64>(256);
        let per = 256 / dsm.n();
        for i in 0..per {
            a.write(dsm.me() * per + i, (i + 1) as i64);
        }
        dsm.barrier();
        let mut sum = 0i64;
        for i in 0..256 {
            sum += a.read(i); // remote reads: some request or reply drops
        }
        dsm.barrier();
        sum
    });
}
