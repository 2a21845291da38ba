//! Every nanosecond a node's clock moves is charged to exactly one
//! `TimeCategory`: per node, Σ `time_in` over the categories equals
//! the node's final clock. The breakdown a report prints (and the
//! benchmark's `sim.vt_*_permille`) then describes the whole run.
//!
//! Every `lattice::check` asserts it at every point; these wrappers
//! cover LOTS, LOTS-x and JIAJIA on SOR; RX, which sends diffs; the hot
//! object, striped (segment homes hold their NIC while serving) and —
//! LOTS only — single-home with migration off (its barriers drain
//! diffs); object churn under the lattice's loss + crash cocktail
//! (JIAJIA: without the crash), journaled; and a lock-guarded script.

mod lattice;

use lattice::*;
use lots::apps::hotobj::HotParams;
use lots::apps::runner::System;
use lots::core::{LotsConfig, PersistConfig, Placement, Striping};

/// `n` nodes of LOTS, LOTS-x and JIAJIA; `lots` configures the first
/// two.
fn configured(n: usize, bytes: usize, lots: LotsConfig) -> [Point; 3] {
    all_three(n, bytes).map(|p| p.with(|p| p.lots = lots.clone()))
}

#[test]
fn sor_charges_every_nanosecond() {
    check(&all_three(4, 16 << 20), &SOR_SMALL);
}

#[test]
fn rx_with_diffs_charges_every_nanosecond() {
    check(&all_three(4, 16 << 20), &RX_SMALL);
}

#[test]
fn hot_object_striped_and_single_home_charge_every_nanosecond() {
    let segments = LotsConfig::default().with_striping(Striping::segments_of(16 << 10));
    check(&configured(8, 4 << 20, segments), &HOT_TINY);
    // Every segment homed at node 0 and kept there: the barriers drain
    // diffs and one home serves every segment.
    let one_home = LotsConfig {
        striping: Some(Striping {
            segment_bytes: 16 << 10,
            placement: Placement::Fixed(0),
        }),
        home_migration: false,
        ..LotsConfig::default()
    };
    let single = HotParams {
        single_home: true,
        ..HOT_TINY
    };
    check(&configured(8, 4 << 20, one_home)[..1], &single);
}

#[test]
fn journaled_churn_under_the_fault_cocktail_charges_every_nanosecond() {
    let [lossy, crash] = [2, 3].map(|f| Point::at([0, 0, 0, 0, 0, 0, f, 0, 2]).seeded(7));
    let points = all_three(4, 1 << 20).map(|p| {
        // JIAJIA has no rejoin protocol.
        let plan = [&crash, &lossy][(p.system == System::Jiajia) as usize];
        p.with(|p| (p.persist, p.faults) = (Some(PersistConfig::every(4)), plan.faults.clone()))
    });
    check(&points, &CHURN_SMALL);
}

#[test]
fn lock_grants_and_releases_charge_every_nanosecond() {
    check(&all_three(4, 1 << 20), &Script::random(4).locked());
}
