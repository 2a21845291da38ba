//! Striping: the lattice's segment sizes × placements × fault plans
//! must never change what a program reads.
//!
//! * Striped LOTS and LOTS-x agree with the **unstriped oracle**, the
//!   sequential model and JIAJIA, and replay bit for bit
//!   (`lattice::check`).
//! * A view spanning segments that several writers rewrite sees one
//!   barrier cut, whether it reads before or after the writers wrote.
//! * The race detector stays silent on the hot-object snapshot-read
//!   workload (readers overlapping a same-interval writer are reading
//!   pinned published versions, not racing).
//! * `Placement::Fixed(node)` outside the cluster is a deterministic
//!   alloc-time configuration error on all three systems.

mod lattice;

use lattice::*;
use lots::apps::runner::System;
use lots::core::{run_cluster, ClusterOptions, DsmApi, LotsConfig, Placement, Striping};
use lots::jiajia::{run_jiajia_cluster, JiaOptions};
use lots::sim::machine::p4_fedora;
use lots::sim::{FaultPlan, SimDuration};
use proptest::prelude::*;

/// Three LOTS nodes over 1 MB, striped.
const STRIPED: Coords = [0, 0, 0, 0, 1, 0, 0, 0, 1];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Striped LOTS and LOTS-x agree with the unstriped oracle, the
    /// sequential model and page-based JIAJIA, at any striping, fit,
    /// fault plan and cluster size of the lattice.
    #[test]
    fn striped_matches_unstriped_oracle_everywhere(
        p in points(STRIPED, &[STRIPE, FIT, FAULTS, NODES]),
    ) {
        let unstriped = p.clone().with(|p| (p.lots.striping, p.coords) = (None, None));
        let lots_x = p.clone().with(|p| (p.system, p.coords) = (System::LotsX, None));
        let jiajia = p.clone().with(|p| (p.system, p.shared_bytes, p.coords) = (System::Jiajia, JIA_BYTES, None));
        check(&[unstriped, p.clone(), lots_x, jiajia], &Script::random(p.seed));
    }

    /// Striped runs replay bit for bit under every fault plan
    /// (journaled striped runs are in the all-pairs cover).
    #[test]
    fn striped_replay_is_bit_identical(p in points(STRIPED, &[STRIPE, FAULTS])) {
        check(std::slice::from_ref(&p), &Script::random(p.seed));
    }
}

/// The CI-sized hot object on 8 nodes, in 16 KB segments.
fn tiny_hot(analyze: bool) -> Point {
    Point::new(System::Lots, 8, 4 << 20).with(|p| {
        (p.analyze.race_detect, p.lots.striping) = (analyze, Some(Striping::segments_of(16 << 10)))
    })
}

/// The hot-object snapshot workload (readers ahead of and behind the
/// in-flight writer) matches the sequential model and replays exactly.
#[test]
fn hot_object_matches_the_model_and_replays() {
    check(&[tiny_hot(false)], &HOT_TINY);
}

/// Snapshot reads are not races: the ScC detector stays silent on the
/// hot-object workload even though every round a reader overlaps the
/// in-flight writer — it reads the pinned published version.
#[test]
fn race_detector_silent_on_snapshot_reads() {
    check(&[tiny_hot(true)], &HOT_TINY);
}

/// A view spanning striped segments sees one barrier cut: writers
/// rewrite stripes misaligned with the segments and homed on different
/// nodes, and a non-writer's mid-interval views — read before or after
/// the writers wrote — equal the previous barrier's state. Segment
/// sizes do (4096, 4000) and do not (516) divide by 8-byte elements.
#[test]
fn a_striped_view_sees_one_barrier_cut_under_concurrent_writers() {
    // Each placement keeps the index `j` that seeds its rows.
    let placements = [
        (0, Placement::RoundRobin),
        (2, Placement::FirstTouch),
        (3, Placement::Fixed(1)),
    ];
    for (k, segment_bytes) in [4096, 4000, 516].into_iter().enumerate() {
        for (j, placement) in placements {
            let striping = Some(Striping {
                segment_bytes,
                placement,
            });
            let points = [0, 150_000].map(|delay| {
                let faults = FaultPlan::delays(delay, SimDuration(delay));
                Point::new(System::Lots, 4, ROOMY)
                    .with(|p| (p.lots.striping, p.faults) = (striping, faults))
            });
            let elem = [Elem::U32, Elem::U64, Elem::F64][(k + j) % 3];
            for behind in [false, true] {
                let cut = Cut::random((k * 4 + j) as u64);
                check(
                    &points,
                    &Cut {
                        elem,
                        behind,
                        ..cut
                    },
                );
            }
        }
    }
}

/// `Placement::Fixed` outside the cluster fails deterministically at
/// alloc time — collective, named and striping-default paths — on all
/// three systems.
#[test]
fn fixed_placement_out_of_bounds_is_an_alloc_time_error() {
    for cfg in [LotsConfig::small(1 << 20), LotsConfig::lots_x(1 << 20)] {
        let opts = ClusterOptions::new(2, cfg, p4_fedora());
        let (results, _) = run_cluster(opts, |dsm| {
            let collective = dsm.try_alloc_placed::<u32>(16, Placement::Fixed(9));
            let named = if dsm.me() == 0 {
                dsm.try_alloc_named_placed::<u32>("oob", 16, Placement::Fixed(9))
            } else {
                Ok(())
            };
            dsm.barrier();
            (
                format!("{}", collective.expect_err("Fixed(9) on 2 nodes must fail")),
                dsm.me() != 0 || named.is_err(),
            )
        });
        for (msg, named_failed) in results {
            assert!(
                msg.contains("Fixed(9)"),
                "error must name the placement: {msg}"
            );
            assert!(named_failed, "named alloc must reject Fixed(9) when staged");
        }
    }
    let opts = JiaOptions::new(2, 1 << 20, p4_fedora());
    let (results, _) = run_jiajia_cluster(opts, |dsm| {
        format!(
            "{}",
            dsm.try_alloc_placed::<u32>(16, Placement::Fixed(9))
                .expect_err("Fixed(9) on 2 nodes must fail")
        )
    });
    for msg in results {
        assert!(
            msg.contains("Fixed(9)"),
            "error must name the placement: {msg}"
        );
    }
}

/// A striping config whose *default* placement is out of bounds fails
/// every allocation under it, not just explicit per-alloc overrides.
#[test]
fn striping_default_fixed_out_of_bounds_is_an_error() {
    let mut cfg = LotsConfig::small(1 << 20);
    cfg.striping = Some(Striping {
        segment_bytes: 64,
        placement: Placement::Fixed(7),
    });
    let opts = ClusterOptions::new(2, cfg, p4_fedora());
    let (results, _) = run_cluster(opts, |dsm| {
        format!(
            "{}",
            dsm.try_alloc::<u32>(256)
                .expect_err("striping default Fixed(7) on 2 nodes must fail")
        )
    });
    for msg in results {
        assert!(
            msg.contains("Fixed(7)"),
            "error must name the placement: {msg}"
        );
    }
}
