//! The virtual-time engine makes whole cluster runs bit-reproducible,
//! and the feature product holds together.
//!
//! * Same seed ⇒ identical results, fingerprints and scheduler counters
//!   on all three systems (LOTS, LOTS-x, JIAJIA), for SOR and RX —
//!   every `lattice::check` replays each point.
//! * Seeds steer the seeded workloads' data end to end.
//! * Fault plans — jitter, loss, crashes, barrier kills — perturb runs
//!   identically, run after run.
//! * Every pair of values of system × arena × swap policy × striping ×
//!   persistence × fault kind × analysis × cluster size passes every
//!   lattice check; at a combination the library refuses, the check
//!   compares its `ConfigError` by value and runs nothing.
//! * A seeded lock-order deadlock panics (never hangs); the
//!   scheduler's counters, hand-offs included, repeat exactly.
//!
//! Some test names still say "engines": they date from when the engine
//! had a second mode. Other dispatch orders are `tests/explore.rs`'s.
//! * The p = 16 and p = 64 smoke runs and the deep lattice sweep are CI
//!   jobs (`--ignored` locally).

mod lattice;

use lattice::*;
use lots::apps::runner::{run_app, RunConfig, System};
use lots::apps::sor::SorParams;
use lots::core::{run_cluster, ClusterOptions, ConfigError, DsmApi, DsmSlice, LotsConfig};
use lots::sim::machine::p4_fedora;
use lots::sim::{FaultPlan, PanicFault, SimDuration, TimeCategory};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Four nodes, every other dimension plain.
const N4: Coords = [0, 0, 0, 0, 0, 0, 0, 0, 2];

/// `n` nodes of `system` with room for every app.
fn on(system: System, n: usize, seed: u64) -> Point {
    Point::new(system, n, 64 << 20).seeded(seed)
}

#[test]
fn sor_same_seed_is_byte_identical_on_all_three_systems() {
    check(&all_three(4, 64 << 20).map(|p| p.seeded(42)), &SOR_SMALL);
}

#[test]
fn rx_same_seed_is_byte_identical_on_all_three_systems() {
    check(&all_three(4, 64 << 20).map(|p| p.seeded(42)), &RX_SMALL);
}

#[test]
fn cluster_report_is_byte_identical_including_swap_pressure() {
    let tight = Point::new(System::Lots, 2, TIGHT).seeded(7);
    let runs = check(&[tight], &Script::random(7));
    assert!(
        ran(&runs[0]).stats.swaps_out() > 0,
        "the tight arena must swap"
    );
}

#[test]
fn seed_steers_workload_data_end_to_end() {
    let rx = |seed| checksums(&on(System::Lots, 2, seed).run(&RX_SMALL));
    assert_ne!(rx(1), rx(2), "different seeds must sort different key sets");
    assert_eq!(rx(1), rx(1));
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
    let kill = FaultPlan {
        panic_node: Some(PanicFault {
            node: 1,
            at_barrier: 2,
        }),
        ..FaultPlan::none()
    };
    on(System::Lots, 4, 0)
        .with(|p| p.faults = kill)
        .run(&Script::random(1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Lattice fault plans never change what the application computes
    /// (its sequential model's sum) — only when. A plan that only
    /// delays (jitter and a straggler) does not change the accesses
    /// either.
    #[test]
    fn fault_delays_never_change_results(p in points(N4, &[FAULTS])) {
        let mut clean = p.coords.expect("sampled");
        clean[FAULTS] = 0;
        let runs = check(&[Point::at(clean).seeded(p.seed), p.clone()], &RX_SMALL);
        if p.coords.is_some_and(|c| c[FAULTS] == 1) {
            let [clean, delayed] = [0, 1].map(|k| ran(&runs[k]).stats.access_checks());
            prop_assert_eq!(clean, delayed);
        }
    }
}

/// The CI smoke job: a p = 16 SOR run completes and reproduces exactly.
#[test]
#[ignore = "CI smoke job: run explicitly with --ignored"]
fn p16_sor_determinism_smoke() {
    let runs = check(
        &[on(System::Lots, 16, 2004)],
        &SorParams { n: 128, iters: 8 },
    );
    // Sync-wait must be recorded: 16 nodes really rendezvoused.
    assert!(ran(&runs[0]).stats.time_in(TimeCategory::SyncWait) > SimDuration::ZERO);
}

/// The CI smoke job beside the p = 16 one: at p = 64 a barrier's
/// arrivals fold through two levels of the combining tree, and the run
/// still reproduces.
#[test]
#[ignore = "CI smoke job: run explicitly with --ignored"]
fn p64_sor_determinism_smoke() {
    check(
        &[on(System::Lots, 64, 2004)],
        &SorParams { n: 128, iters: 4 },
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Lattice fault plans plus an optional barrier kill produce
    /// identical outcomes (or identical panics) run after run, with the
    /// race detector on or off.
    #[test]
    fn random_faults_are_engine_invariant(
        p in points(N4, &[FAULTS, ANALYZE]),
        kill_roll in 0u64..10,
        node in 0usize..4,
        at_barrier in 1u64..3,
    ) {
        // ~30% of cases also kill a node at a barrier.
        let faults = FaultPlan {
            panic_node: (kill_roll < 3).then_some(PanicFault { node, at_barrier }),
            ..p.faults.clone()
        };
        let p = p.with(|p| (p.faults, p.coords) = (faults, None));
        check(std::slice::from_ref(&p), &SOR_SMALL);
        check(&[p], &RX_SMALL);
    }
}

/// Every pair of values of the paired dimensions, at supported points.
#[test]
fn the_all_pairs_cover_passes_every_check() {
    check(&all_pairs(&PAIRED), &Script::random(1));
}

/// Ten times the tier-1 cover's points, sampled over every dimension.
#[test]
#[ignore = "CI release job: run explicitly with --ignored"]
fn lattice_deep_sweep() {
    let mut rng = TestRng::deterministic("lattice_deep_sweep");
    for k in 0..10 * all_pairs(&PAIRED).len() {
        let point = points([0; SIZES.len()], &PAIRED).generate(&mut rng);
        check(&[point], &Script::random(k as u64));
    }
}

/// The two combinations the lattice leaves out each fail with their own
/// named error: JIAJIA × crash is refused by value before any task, and
/// LOTS-x below the [`Script`]'s live set fails in the run because its
/// DMM area is exhausted.
#[test]
fn exclusions_fail_with_their_named_message() {
    let crash = Point::at([0, 0, 0, 0, 0, 0, 3, 0, 0]).cfg.faults;
    let jia = Point::new(System::Jiajia, 2, JIA_BYTES).with(|p| p.faults = crash);
    let refused = ConfigError::CrashRejoinUnsupported;
    assert_eq!(rejection(&jia), Some(refused.clone()));
    // `check` asserts the refusal equals `rejection` and runs nothing;
    // a run started anyway panics with the same message.
    let runs = check(std::slice::from_ref(&jia), &Script::random(1));
    assert_eq!(runs[0].as_ref().err(), Some(&refused.to_string()));
    assert_eq!(
        jia.outcome(&Script::random(1)).err(),
        Some(refused.to_string())
    );
    let tight = Point::new(System::LotsX, 2, TIGHT);
    assert_eq!(rejection(&tight), None);
    let e = tight
        .outcome(&Script::random(1))
        .expect_err("LOTS-x must outgrow its DMM area");
    assert!(e.contains("LOTS-x: DMM area exhausted allocating"), "{e}");
}

/// The proptest shim does not shrink, so a failing sampled case prints
/// source text that rebuilds it; that text must round-trip.
#[test]
fn a_sampled_point_prints_a_literal_that_rebuilds_it() {
    let mut rng = TestRng::deterministic("literal");
    let point = points([0; SIZES.len()], &PAIRED).generate(&mut rng);
    let script = Script::random(rng.next_u64());
    let numbers = |s: &str| -> Vec<u64> {
        s.split(|c: char| !c.is_ascii_digit())
            .filter(|t| !t.is_empty())
            .map(|t| t.parse().unwrap())
            .collect()
    };
    let lit = point.literal();
    let nums = numbers(&lit);
    let rebuilt = Point::at(std::array::from_fn(|d| nums[d] as usize)).seeded(nums[SIZES.len()]);
    assert!(lit.starts_with("Point::at(["), "{lit}");
    assert_eq!(format!("{rebuilt:?}"), format!("{point:?}"), "{lit}");
    let lit = script.literal();
    let rebuilt = Script {
        access: match lit.contains("Access::Guards") {
            true => Access::Guards,
            false => Access::Elements,
        },
        ..Script::random(*numbers(&lit).last().unwrap())
    };
    assert_eq!(format!("{rebuilt:?}"), format!("{script:?}"), "{lit}");
}

/// A seeded lock-order deadlock (AB–BA across two nodes) must panic
/// with the engine's virtual-time snapshot — never hang — run after
/// run.
#[test]
fn seeded_deadlock_panics_identically_under_both_engines() {
    for rep in 0..2 {
        let point = on(System::Lots, 2, 0);
        // Which thread's deadlock panic wins the propagation race
        // varies (detector vs. parked task), but every one of them
        // carries the virtual-time deadlock headline.
        let msg = point
            .outcome(&AbBa)
            .expect_err("AB-BA deadlock must panic, not hang");
        assert!(msg.contains("virtual-time deadlock"), "run {rep}: {msg}");
    }
}

/// Both nodes hold their first lock across a data exchange before
/// requesting the other's — the classic AB-BA cycle.
#[derive(Clone, Copy)]
struct AbBa;

impl lots::apps::adapter::DsmProgram for AbBa {
    fn run<D: DsmApi>(&self, dsm: &D) -> lots::apps::adapter::AppResult {
        let a = dsm.alloc::<i64>(64);
        let (first, second) = if dsm.me() == 0 { (1, 2) } else { (2, 1) };
        dsm.lock(first);
        a.write(dsm.me(), 1);
        let _ = a.read(1 - dsm.me());
        dsm.lock(second);
        unreachable!("the cycle never grants")
    }
}

/// Many nodes, many barriers, many repetitions: which host thread
/// drives a daemon turn or reaches a rendezvous first must not show in
/// any counter. `handoffs` is a function of the schedule too, and
/// bounded by the application tasks' turns.
#[test]
fn scheduler_counters_agree_across_engines_on_a_barrier_heavy_run() {
    let sor = SorParams { n: 64, iters: 12 };
    let counters = || sched(&on(System::Lots, 16, 2004).run(&sor));
    let oracle = counters();
    assert!(0 < oracle[3] && oracle[3] <= oracle[0], "{oracle:?}");
    for rep in 0..24 {
        assert_eq!(counters(), oracle, "repetition {rep}");
    }
}

/// Only application tasks own host threads: the comm handlers (and
/// compaction daemons) are turn functions the engine runs inline.
#[test]
fn a_p128_lots_run_spawns_128_threads() {
    let cfg = RunConfig::new(System::Lots, 128, p4_fedora());
    let out = run_app(&cfg, SorParams { n: 128, iters: 1 });
    assert_eq!(out.sched.threads, 128);
}

#[test]
fn deterministic_sync_wait_is_attributed() {
    // Scheduler-parked waits charge SyncWait (the accounting is
    // analytic, not wall-clock).
    let run = on(System::Lots, 4, 0).run(&SOR_SMALL);
    assert!(run.stats.time_in(TimeCategory::SyncWait) > SimDuration::ZERO);
}
