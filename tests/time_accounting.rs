//! Every nanosecond a node's clock moves is charged to exactly one
//! `TimeCategory`: per node, Σ `time_in` over the categories equals
//! the node's final clock. The breakdown a report prints (and the
//! benchmark's `sim.vt_*_permille`) then describes the whole run.
//!
//! Covered on LOTS, LOTS-x and JIAJIA: SOR; RX, which sends diffs; the
//! hot object, striped (segment homes hold their NIC while serving)
//! and — LOTS only — single-home with migration off (its barriers
//! drain diffs); object churn under the loss + crash cocktail (JIAJIA:
//! without the crash), journaled; and a lock-guarded reduction.

use lots::apps::adapter::{AppResult, DsmProgram};
use lots::apps::{churn::ChurnParams, hotobj::HotParams, rx::RxParams, sor::SorParams};
use lots::core::{
    run_cluster, ClusterOptions, DsmApi, DsmSlice, LotsConfig, PersistConfig, Placement, Striping,
};
use lots::jiajia::{run_jiajia_cluster, JiaOptions};
use lots::sim::machine::p4_fedora;
use lots::sim::{CrashFault, FaultPlan, NodeStats, Partition, SimDuration, SimInstant};

/// Check that every node's categories sum to its final clock.
fn assert_fully_charged<'a>(label: &str, nodes: impl Iterator<Item = (SimInstant, &'a NodeStats)>) {
    for (me, (time, stats)) in nodes.enumerate() {
        assert!(time > SimInstant::ZERO, "{label}: node {me} idle");
        assert_eq!(
            stats.total_accounted(),
            SimDuration(time.nanos()),
            "{label}: node {me} charged {} of a {time} clock",
            stats.total_accounted(),
        );
    }
}

/// Run `prog` on LOTS and on LOTS-x, each configured by `tweak`.
fn on_lots(
    label: &str,
    n: usize,
    dmm_bytes: usize,
    tweak: impl Fn(LotsConfig) -> LotsConfig,
    faults: FaultPlan,
    prog: impl DsmProgram + Copy,
) {
    for (system, cfg) in [
        ("LOTS", LotsConfig::small(dmm_bytes)),
        ("LOTS-x", LotsConfig::lots_x(dmm_bytes)),
    ] {
        let opts = ClusterOptions::new(n, tweak(cfg), p4_fedora()).with_faults(faults.clone());
        let (_, report) = run_cluster(opts, move |dsm| prog.run(dsm));
        let nodes = report.nodes.iter().map(|nd| (nd.time, &nd.stats));
        assert_fully_charged(&format!("{label} on {system}"), nodes);
    }
}

/// Run `prog` on JIAJIA.
fn on_jiajia(
    label: &str,
    n: usize,
    faults: FaultPlan,
    persist: Option<PersistConfig>,
    prog: impl DsmProgram,
) {
    let mut opts = JiaOptions::new(n, 16 << 20, p4_fedora()).with_faults(faults);
    opts.spec.persist = persist;
    let (_, report) = run_jiajia_cluster(opts, move |dsm| prog.run(dsm));
    let nodes = report.nodes.iter().map(|nd| (nd.time, &nd.stats));
    assert_fully_charged(&format!("{label} on JIAJIA"), nodes);
}

#[test]
fn sor_charges_every_nanosecond() {
    let sor = SorParams { n: 64, iters: 4 };
    on_lots("SOR", 4, 16 << 20, |c| c, FaultPlan::none(), sor);
    on_jiajia("SOR", 4, FaultPlan::none(), None, sor);
}

#[test]
fn rx_with_diffs_charges_every_nanosecond() {
    let rx = RxParams {
        total: 1 << 12,
        passes: 2,
        seed: 20040920,
    };
    on_lots("RX", 4, 16 << 20, |c| c, FaultPlan::none(), rx);
    on_jiajia("RX", 4, FaultPlan::none(), None, rx);
}

#[test]
fn hot_object_striped_and_single_home_charge_every_nanosecond() {
    let striped = HotParams {
        elems: 128 << 10,
        rounds: 3,
        single_home: false,
    };
    let segments = |c: LotsConfig| LotsConfig {
        striping: Some(Striping::segments_of(16 << 10)),
        ..c
    };
    on_lots(
        "striped hot object",
        8,
        4 << 20,
        segments,
        FaultPlan::none(),
        striped,
    );
    on_jiajia("hot object", 8, FaultPlan::none(), None, striped);
    // Every segment homed at node 0 and kept there: the barriers drain
    // diffs and one home serves every segment.
    let one_home = |c: LotsConfig| LotsConfig {
        striping: Some(Striping {
            segment_bytes: 16 << 10,
            placement: Placement::Fixed(0),
        }),
        home_migration: false,
        ..c
    };
    let single = HotParams {
        single_home: true,
        ..striped
    };
    on_lots(
        "single-home hot object",
        8,
        4 << 20,
        one_home,
        FaultPlan::none(),
        single,
    );
}

#[test]
fn journaled_churn_under_the_fault_cocktail_charges_every_nanosecond() {
    let churn = ChurnParams {
        phases: 8,
        objs_per_phase: 2,
        elems: 2048,
        retain: 1,
        ckpt_elems: 16,
    };
    let cocktail = FaultPlan {
        seed: 7,
        loss_permille: 15,
        dup_permille: 10,
        reorder_permille: 20,
        partitions: vec![Partition {
            start: SimInstant(1_000_000),
            end: SimInstant(5_000_000),
            islanders: vec![3],
        }],
        ..FaultPlan::none()
    };
    let crash = FaultPlan {
        crash_node: Some(CrashFault {
            node: 2,
            at_barrier: 6,
            reboot: SimDuration::from_millis(20),
        }),
        ..cocktail.clone()
    };
    let persist = PersistConfig::every(4);
    let journaled = |c: LotsConfig| c.with_persist(persist.clone());
    on_lots("journaled churn", 4, 1 << 20, journaled, crash, churn);
    // JIAJIA has no rejoin protocol.
    on_jiajia("journaled churn", 4, cocktail, Some(persist), churn);
}

/// Lock-guarded accumulation into one shared counter per round.
#[derive(Clone, Copy)]
struct LockedSum;

impl DsmProgram for LockedSum {
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        let total = dsm.alloc::<i64>(1);
        dsm.barrier();
        for round in 0..4 {
            dsm.lock(0);
            total.write(0, total.read(0) + round + dsm.me() as i64);
            dsm.unlock(0);
            dsm.barrier();
        }
        AppResult {
            checksum: total.read(0) as u64,
            elapsed: SimDuration::ZERO,
        }
    }
}

#[test]
fn lock_grants_and_releases_charge_every_nanosecond() {
    on_lots(
        "locked sum",
        4,
        1 << 20,
        |c| c,
        FaultPlan::none(),
        LockedSum,
    );
    on_jiajia("locked sum", 4, FaultPlan::none(), None, LockedSum);
}
