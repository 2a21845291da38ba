//! PR 3 acceptance: the virtual-time engine makes whole cluster runs
//! bit-reproducible.
//!
//! * Same seed ⇒ byte-identical reports (clocks, stats, traffic,
//!   scheduler turns/wakes/epochs) on all three systems (LOTS, LOTS-x,
//!   JIAJIA), for SOR and RX.
//! * Seeds actually steer the seeded workloads' data end to end.
//! * Random `FaultPlan` message delays, CPU slowdowns and barrier
//!   panics perturb both engine modes *identically*, run after run.
//! * A seeded lock-order deadlock panics (never hangs) under both
//!   modes, with the virtual-time snapshot headline.
//! * The scheduler's counters, hand-offs included, repeat exactly.
//! * The p = 16 smoke run is deterministic (a CI job; `--ignored`
//!   locally to keep the default suite snappy).

use lots::apps::adapter::AppResult;
use lots::apps::runner::{run_app, RunConfig, RunOutcome, System};
use lots::apps::{rx::RxParams, sor::SorParams};
use lots::core::{run_cluster, ClusterOptions, DsmApi, DsmSlice, LotsConfig};
use lots::sim::machine::p4_fedora;
use lots::sim::{FaultPlan, PanicFault, SchedulerMode, SimDuration, TimeCategory};
use proptest::prelude::*;

const SOR_SMALL: SorParams = SorParams { n: 64, iters: 8 };
const RX_SMALL: RxParams = RxParams {
    total: 1 << 12,
    passes: 2,
    seed: 20040920,
};

/// What two same-seed runs must agree on: the report fingerprint,
/// every node's result, and the scheduler's turns/wakes/epochs (pure
/// functions of the simulated schedule; the host-side fields are left
/// out). Two runs are "byte-identical" iff these match.
fn observed(o: &RunOutcome) -> (String, Vec<AppResult>, [u64; 3]) {
    let s = &o.sched;
    (
        o.fingerprint.clone(),
        o.per_node.clone(),
        [s.turns, s.wakes, s.epochs],
    )
}

fn cfg(system: System, n: usize, seed: u64) -> RunConfig {
    let mut c = RunConfig::new(system, n, p4_fedora());
    c.seed = seed;
    c
}

#[test]
fn sor_same_seed_is_byte_identical_on_all_three_systems() {
    for system in [System::Lots, System::LotsX, System::Jiajia] {
        let a = observed(&run_app(&cfg(system, 4, 42), SOR_SMALL));
        let b = observed(&run_app(&cfg(system, 4, 42), SOR_SMALL));
        assert_eq!(a, b, "SOR drifted between same-seed runs on {system:?}");
    }
}

#[test]
fn rx_same_seed_is_byte_identical_on_all_three_systems() {
    for system in [System::Lots, System::LotsX, System::Jiajia] {
        let a = observed(&run_app(&cfg(system, 4, 42), RX_SMALL));
        let b = observed(&run_app(&cfg(system, 4, 42), RX_SMALL));
        assert_eq!(a, b, "RX drifted between same-seed runs on {system:?}");
    }
}

#[test]
fn cluster_report_is_byte_identical_including_swap_pressure() {
    // Tiny DMM: the swap machinery engages, and its disk timing must
    // reproduce too.
    let run = || {
        let opts = ClusterOptions::new(2, LotsConfig::small(48 * 1024), p4_fedora()).with_seed(7);
        let (sums, report) = run_cluster(opts, |dsm| {
            let a = dsm.alloc::<i64>(2048);
            let b = dsm.alloc::<i64>(2048);
            let per = 2048 / dsm.n();
            let base = dsm.me() * per;
            for i in 0..per {
                a.write(base + i, (base + i) as i64);
            }
            dsm.barrier();
            let mut sum = 0i64;
            for i in 0..2048 {
                sum += a.read(i);
                if i % 512 == 0 {
                    b.write(i, sum); // ping-pong between objects
                }
            }
            dsm.barrier();
            sum
        });
        (sums, report.fingerprint())
    };
    let (s1, f1) = run();
    let (s2, f2) = run();
    assert_eq!(s1, s2);
    assert_eq!(f1, f2, "swap-pressure run must reproduce exactly");
}

#[test]
fn seed_steers_workload_data_end_to_end() {
    let a = run_app(&cfg(System::Lots, 2, 1), RX_SMALL);
    let b = run_app(&cfg(System::Lots, 2, 2), RX_SMALL);
    let c = run_app(&cfg(System::Lots, 2, 1), RX_SMALL);
    assert_ne!(
        a.combined.checksum, b.combined.checksum,
        "different seeds must sort different key sets"
    );
    assert_eq!(a.combined.checksum, c.combined.checksum);
}

#[test]
fn report_surfaces_the_seed() {
    let opts = ClusterOptions::new(1, LotsConfig::small(1 << 20), p4_fedora()).with_seed(31337);
    let (seeds, report) = run_cluster(opts, |dsm| dsm.seed());
    assert_eq!(seeds, vec![31337]);
    assert_eq!(report.seed, 31337);
}

#[test]
#[should_panic(expected = "fault injection: node 1 killed entering barrier 2")]
fn injected_panic_rides_the_poisoning_path() {
    let opts =
        ClusterOptions::new(4, LotsConfig::small(1 << 20), p4_fedora()).with_faults(FaultPlan {
            panic_node: Some(PanicFault {
                node: 1,
                at_barrier: 2,
            }),
            ..FaultPlan::none()
        });
    let _ = run_cluster(opts, |dsm| {
        let a = dsm.alloc::<i64>(64);
        a.write(dsm.me(), 1);
        dsm.barrier(); // survives
        a.write(dsm.me() + 4, 2);
        dsm.barrier(); // node 1 dies here; peers must not hang
        a.read(0)
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random message jitter and a random straggler never change what
    /// the application computes — only when.
    #[test]
    fn fault_delays_never_change_results(
        fault_seed in any::<u64>(),
        delay_us in 1u64..400,
        slow_node in 0usize..4,
        slow_pct in 0u64..150,
    ) {
        let baseline = run_app(&cfg(System::Lots, 4, 9), RX_SMALL);
        let mut faulted = cfg(System::Lots, 4, 9);
        faulted.faults = FaultPlan {
            seed: fault_seed,
            max_msg_delay: SimDuration::from_micros(delay_us),
            cpu_slowdown: vec![(slow_node, 1.0 + slow_pct as f64 / 100.0)],
            ..FaultPlan::none()
        };
        let perturbed = run_app(&faulted, RX_SMALL);
        prop_assert_eq!(baseline.combined.checksum, perturbed.combined.checksum);
        prop_assert_eq!(baseline.stats.access_checks(), perturbed.stats.access_checks());
        // And the perturbed run itself must still be reproducible.
        let again = run_app(&faulted, RX_SMALL);
        prop_assert_eq!(observed(&perturbed), observed(&again));
    }
}

/// The CI smoke job: a p = 16 SOR run (16 app threads driving 16 comm
/// handlers on the turnstile) completes and reproduces exactly.
/// `--ignored` locally.
#[test]
#[ignore = "CI smoke job: run explicitly with --ignored"]
fn p16_sor_determinism_smoke() {
    let a = run_app(&cfg(System::Lots, 16, 2004), SorParams { n: 128, iters: 8 });
    let b = run_app(&cfg(System::Lots, 16, 2004), SorParams { n: 128, iters: 8 });
    assert_eq!(
        observed(&a),
        observed(&b),
        "p=16 SOR drifted between same-seed runs"
    );
    assert!(a.exec_time.nanos() > 0);
    // Sync-wait must be recorded: 16 nodes really rendezvoused.
    assert!(a.stats.time_in(TimeCategory::SyncWait) > SimDuration::ZERO);
}

/// Both engine modes: the canonical order, and `Explore` with no
/// script installed — which must be the same thing.
const ENGINES: [SchedulerMode; 2] = [
    SchedulerMode::Deterministic,
    SchedulerMode::Explore { max_schedules: 1 },
];

/// The CI smoke job beside the p = 16 one: at p = 64 a barrier's
/// arrivals fold through two levels of the combining tree (p = 16 is
/// the last size with one), and the run still reproduces byte for
/// byte, under both engine modes. `--ignored` locally.
#[test]
#[ignore = "CI smoke job: run explicitly with --ignored"]
fn p64_sor_determinism_smoke() {
    let sor = SorParams { n: 128, iters: 4 };
    let oracle = observed(&run_app(&cfg(System::Lots, 64, 2004), sor));
    for mode in ENGINES {
        assert_eq!(
            observed(&run_app(&cfg_with(System::Lots, 64, 2004, mode), sor)),
            oracle,
            "p=64 SOR drifted under {mode:?}"
        );
    }
}

fn cfg_with(system: System, n: usize, seed: u64, mode: SchedulerMode) -> RunConfig {
    let mut c = cfg(system, n, seed);
    c.scheduler = mode;
    c
}

/// Run an app, capturing either what it observed or its panic message —
/// faults that kill a node must kill it *identically* every time.
fn outcome_or_panic(cfg: &RunConfig, prog: impl lots::apps::adapter::DsmProgram) -> String {
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        observed(&run_app(cfg, prog))
    }));
    match res {
        Ok(o) => format!("ok:{o:?}"),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&'static str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic".to_string());
            format!("panic:{msg}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random fault plans — message jitter, a straggler node, and an
    /// optional barrier kill — produce byte-identical outcomes (or
    /// byte-identical panics) run after run, in both engine modes.
    #[test]
    fn random_faults_are_engine_invariant(
        fault_seed in any::<u64>(),
        delay_us in 0u64..400,
        slow_node in 0usize..4,
        slow_pct in 0u64..150,
        kill_roll in 0u64..10,
        kill_node in 0usize..4,
        kill_barrier in 1u64..3,
    ) {
        // ~30% of cases also kill a node at a barrier.
        let kill = (kill_roll < 3).then_some((kill_node, kill_barrier));
        let faults = FaultPlan {
            seed: fault_seed,
            max_msg_delay: SimDuration::from_micros(delay_us),
            cpu_slowdown: vec![(slow_node, 1.0 + slow_pct as f64 / 100.0)],
            panic_node: kill.map(|(node, at_barrier)| PanicFault { node, at_barrier }),
            ..FaultPlan::none()
        };
        for (label, prog) in [("sor", Ok(SOR_SMALL)), ("rx", Err(RX_SMALL))] {
            let run = |mode: SchedulerMode| {
                let mut c = cfg_with(System::Lots, 4, 9, mode);
                c.faults = faults.clone();
                match prog {
                    Ok(p) => outcome_or_panic(&c, p),
                    Err(p) => outcome_or_panic(&c, p),
                }
            };
            let oracle = run(SchedulerMode::Deterministic);
            for mode in ENGINES {
                prop_assert_eq!(
                    run(mode),
                    oracle.clone(),
                    "{} fault outcome diverged under {:?}",
                    label,
                    mode
                );
            }
        }
    }
}

/// Satellite (b): a seeded lock-order deadlock (AB–BA across two nodes)
/// must panic with the engine's virtual-time snapshot — never hang —
/// in both engine modes.
#[test]
fn seeded_deadlock_panics_identically_under_both_engines() {
    let deadlock = |mode: SchedulerMode| {
        let opts =
            ClusterOptions::new(2, LotsConfig::small(1 << 20), p4_fedora()).with_scheduler(mode);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_cluster(opts, |dsm| {
                let a = dsm.alloc::<i64>(64);
                let (first, second) = if dsm.me() == 0 { (1, 2) } else { (2, 1) };
                dsm.lock(first);
                // Force real lock overlap: both nodes hold their first
                // lock across a data exchange before requesting the
                // other's — the classic AB-BA cycle.
                a.write(dsm.me(), 1);
                let _ = a.read(1 - dsm.me());
                dsm.lock(second);
                dsm.unlock(second);
                dsm.unlock(first);
            })
        }));
        let payload = res.expect_err("AB-BA deadlock must panic, not hang");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| {
                payload
                    .downcast_ref::<&'static str>()
                    .map(|s| s.to_string())
            })
            .expect("panic payload should be a string")
    };
    // Which thread's deadlock panic wins the propagation race varies
    // (detector vs. parked task), but every one of them carries the
    // virtual-time deadlock headline — the reason-annotated snapshot
    // itself is unit-tested in `lots_sim::sched`.
    for mode in ENGINES {
        let msg = deadlock(mode);
        assert!(
            msg.contains("virtual-time deadlock"),
            "{mode:?} must name the deadlock: {msg}"
        );
    }
}

/// Many nodes, many barriers, many repetitions: which host thread
/// drives a daemon turn or reaches a rendezvous first must not show in
/// any counter. `handoffs` — application dispatches made from another
/// thread than the task's own — is a function of the schedule too, and
/// bounded by the application tasks' turns (a subset of `turns`): an
/// absorbed sticky wake is a turn without a dispatch.
#[test]
fn scheduler_counters_agree_across_engines_on_a_barrier_heavy_run() {
    let sor = SorParams { n: 64, iters: 12 };
    let counters = |mode| {
        let out = run_app(&cfg_with(System::Lots, 16, 2004, mode), sor);
        let sched = out.sched;
        (sched.turns, sched.wakes, sched.epochs, sched.handoffs)
    };
    let oracle = counters(SchedulerMode::Deterministic);
    assert!(0 < oracle.3 && oracle.3 <= oracle.0, "{oracle:?}");
    for rep in 0..12 {
        for mode in ENGINES {
            assert_eq!(
                counters(mode),
                oracle,
                "(turns, wakes, epochs, handoffs) diverged in repetition {rep} under {mode:?}"
            );
        }
    }
}

/// Only application tasks own host threads: the comm handlers (and
/// compaction daemons) are turn functions the engine runs inline.
#[test]
fn a_p128_lots_run_spawns_128_threads() {
    let out = run_app(&cfg(System::Lots, 128, 7), SorParams { n: 128, iters: 1 });
    assert_eq!(out.sched.threads, 128);
}

#[test]
fn deterministic_sync_wait_is_attributed() {
    // Sanity: scheduler-parked waits charge SyncWait (the accounting
    // is analytic, not wall-clock).
    let out = run_app(&cfg(System::Lots, 4, 0), SOR_SMALL);
    assert!(out.stats.time_in(TimeCategory::SyncWait) > SimDuration::ZERO);
    let _ = TimeCategory::SyncWait; // category stays public API
}
