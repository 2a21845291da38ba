//! The swap-subsystem acceptance battery (PR 4).
//!
//! * For every swap policy (and random knob combinations), shrunken-
//!   arena LOTS runs — where the working set overcommits the DMM area
//!   and the swap machinery churns — compute **byte-identical results**
//!   to roomy no-swap runs, and their reports reproduce exactly across
//!   same-seed reruns (extending the PR 2/PR 3 determinism pattern).
//! * All three systems (LOTS, LOTS-x, JIAJIA) agree on the workload
//!   under their respective memory pressure.
//! * The pin/evict fence: objects under live `view`/`view_mut` guards
//!   are never evicted mid-statement, however hard the DMM area is
//!   squeezed, and exhausting the DMM with pinned objects fails loudly
//!   with the §5 error instead of corrupting or hanging.
//! * `swapped_bytes` reports actual store-resident (compressed) bytes,
//!   and `resident + swapped == allocated` holds (regression).

mod lattice;

use lattice::*;
use lots::apps::runner::System;
use lots::core::{
    run_cluster, ClusterOptions, DsmApi, DsmError, DsmSlice, LotsConfig, SwapConfig, SwapPolicyKind,
};
use lots::sim::machine::p4_fedora;
use proptest::prelude::*;

const OBJS: usize = 16;
const LEN: usize = 1024; // i64 elements → 8 KB per object

/// Two LOTS nodes under `swap`, over `bytes`, seeded.
fn lots(bytes: usize, swap: SwapConfig, seed: u64) -> Point {
    Point::new(System::Lots, 2, bytes).with(|p| (p.seed, p.lots.swap) = (seed, swap))
}

/// Check a lock-heavy script at `points`; every tight one must swap.
fn check_swapping(points: &[Point], seed: u64) {
    for (p, run) in points
        .iter()
        .zip(check(points, &Script::random(seed).locked()))
    {
        let swaps = ran(&run).stats.swaps_out();
        assert_eq!(
            swaps > 0,
            p.system == System::Lots && p.dmm_bytes == TIGHT,
            "{p:?}: {swaps} swaps"
        );
    }
}

#[test]
fn every_policy_matches_the_no_swap_run_and_reproduces() {
    let mut points = vec![lots(ROOMY, SwapConfig::default(), 7)];
    for policy in SwapPolicyKind::ALL {
        let swap = SwapConfig {
            policy,
            batch_evict: 4,
            read_ahead: true,
            compress: true,
        };
        points.push(lots(TIGHT, swap, 7));
    }
    check_swapping(&points, 7);
}

#[test]
fn legacy_and_tuned_bundles_agree_on_results() {
    let points = [
        lots(ROOMY, SwapConfig::default(), 3),
        lots(TIGHT, SwapConfig::legacy(), 3),
        lots(TIGHT, SwapConfig::tuned(), 3),
    ];
    check_swapping(&points, 3);
}

#[test]
fn all_three_systems_agree_under_memory_pressure() {
    // LOTS overcommits the tight arena; LOTS-x and JIAJIA get room
    // (they cannot swap — §1).
    let points = [
        lots(TIGHT, SwapConfig::tuned(), 11),
        Point::new(System::LotsX, 2, ROOMY).with(|p| p.seed = 11),
        Point::new(System::Jiajia, 2, JIA_BYTES).with(|p| p.seed = 11),
    ];
    check_swapping(&points, 11);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any swap bundle × fit policy over the tight arena preserves
    /// results and replays exactly.
    #[test]
    fn random_swap_configs_preserve_results_and_reproduce(
        p in points([0, 1, 0, 0, 0, 0, 0, 0, 0, 0], &[SWAP, FIT]),
    ) {
        let roomy = p.clone().with(|p| (p.dmm_bytes, p.coords) = (ROOMY, None));
        check_swapping(&[roomy, p.clone()], p.seed);
    }
}

#[test]
fn live_view_guards_pin_objects_through_extreme_pressure() {
    // Every round holds a mutable guard over the same hot object while
    // opening a second guard on a round-robin object: the second
    // mapping must evict *around* the live guard — a DMM area that
    // holds 4 objects churns through 16 without ever stealing the
    // guarded block mid-statement. Run on every policy.
    for policy in SwapPolicyKind::ALL {
        let swap = SwapConfig {
            policy,
            ..SwapConfig::tuned()
        };
        let opts = ClusterOptions::new(1, LotsConfig::small(TIGHT).with_swap(swap), p4_fedora());
        let (results, report) = run_cluster(opts, move |dsm| {
            let rows: Vec<_> = (0..OBJS).map(|_| dsm.alloc::<i64>(LEN)).collect();
            let hot = rows[0];
            for (round, row) in rows.iter().enumerate().skip(1) {
                let mut ga = hot.view_mut(0..LEN);
                // Opening this guard needs DMM space: the mapper must
                // evict among the *unpinned* objects only.
                let mut gb = row.view_mut(0..LEN);
                assert!(
                    dsm.object_mapped(hot.id()) && dsm.object_mapped(row.id()),
                    "a live guard's object was evicted mid-statement"
                );
                for (i, slot) in ga.iter_mut().enumerate() {
                    *slot = (round * LEN + i) as i64;
                }
                gb.fill(round as i64);
            }
            dsm.barrier();
            let hot_sum: i64 = rows[0].view(0..LEN).iter().sum();
            let last_sum: i64 = rows[OBJS - 1].view(0..LEN).iter().sum();
            (hot_sum, last_sum)
        });
        let last_round = (OBJS - 1) as i64;
        let expect_hot: i64 = (0..LEN as i64).map(|i| last_round * LEN as i64 + i).sum();
        assert_eq!(results[0].0, expect_hot, "{policy:?}: hot write-back");
        assert_eq!(
            results[0].1,
            last_round * LEN as i64,
            "{policy:?}: streamed write-back"
        );
        assert!(
            report.total(|n| n.stats.swaps_out()) > 0,
            "{policy:?}: the churn must have swapped"
        );
    }
}

#[test]
fn exhausting_the_dmm_with_pinned_objects_fails_loudly() {
    // §5: if everything mapped is pinned, the system "can do nothing":
    // the next mapping must surface OutOfDmm — an error, not a hang or
    // an eviction of pinned data. Dropping a guard recovers.
    let opts = ClusterOptions::new(1, LotsConfig::small(TIGHT), p4_fedora());
    let (results, _) = run_cluster(opts, |dsm| {
        let rows: Vec<_> = (0..5).map(|_| dsm.alloc::<i64>(LEN)).collect();
        let mut guards = Vec::new();
        for row in rows.iter().take(4) {
            guards.push(row.view(0..LEN)); // 4 × 8 KB pins fill the lower half
        }
        let err = match rows[4].try_view(0..LEN) {
            Err(DsmError::OutOfDmm { .. }) => true,
            Err(other) => panic!("expected OutOfDmm with all objects pinned, got {other:?}"),
            Ok(_) => panic!("view succeeded although every mapped object is pinned"),
        };
        drop(guards);
        let recovered = rows[4].try_view(0..LEN).is_ok();
        err && recovered
    });
    assert!(results[0]);
}

#[test]
fn swapped_bytes_reports_compressed_store_resident_bytes() {
    // Constant-fill objects compress to a few dozen bytes each: the
    // report's swapped_bytes (actual store bytes) must sit far below
    // the logical swapped bytes, and the resident/swapped/materialized
    // invariant must hold at exit.
    // i32 rows: constant fills are single RLE runs (an i64 constant
    // alternates u32 words and would defeat the word-granular RLE).
    const ILEN: usize = 2 * LEN;
    let opts = ClusterOptions::new(1, LotsConfig::small(TIGHT), p4_fedora());
    let (accts, report) = run_cluster(opts, |dsm| {
        let rows: Vec<_> = (0..OBJS).map(|_| dsm.alloc::<i32>(ILEN)).collect();
        for (r, row) in rows.iter().enumerate() {
            row.view_mut(0..ILEN).fill(r as i32 + 1);
        }
        dsm.barrier();
        let mut sum = 0i64;
        for row in &rows {
            sum += row.view(0..ILEN).iter().map(|&v| v as i64).sum::<i64>();
        }
        assert_eq!(
            sum,
            (1..=OBJS as i64).sum::<i64>() * ILEN as i64,
            "data survived the churn"
        );
        dsm.swap_accounting()
    });
    let acct = accts[0];
    assert_eq!(
        acct.resident_logical + acct.swapped_logical,
        acct.materialized,
        "resident + swapped == allocated"
    );
    let node = &report.nodes[0];
    assert_eq!(node.swapped_logical_bytes, acct.swapped_logical);
    assert_eq!(node.resident_bytes, acct.resident_logical);
    assert!(node.swapped_logical_bytes > 0, "tiny arena must swap");
    assert!(
        node.swapped_bytes < node.swapped_logical_bytes / 10,
        "constant rows must compress hard: {} stored vs {} logical",
        node.swapped_bytes,
        node.swapped_logical_bytes
    );
}
