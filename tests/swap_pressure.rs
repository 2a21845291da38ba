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

use lots::core::{
    run_cluster, ClusterOptions, ClusterReport, DsmApi, DsmSlice, LotsConfig, LotsError,
    SwapConfig, SwapPolicyKind,
};
use lots::jiajia::{run_jiajia_cluster, JiaOptions};
use lots::sim::machine::p4_fedora;
use proptest::prelude::*;

const OBJS: usize = 16;
const LEN: usize = 1024; // i64 elements → 8 KB per object
const TINY_DMM: usize = 64 * 1024; // lower half 32 KB: 4 of 16 objects fit
const ROOMY_DMM: usize = 4 << 20;

/// Non-repetitive per-element data so compression can't trivialize the
/// images and every byte matters to the checksum.
fn mix(seed: u64, r: usize, i: usize) -> i64 {
    let mut x = seed
        .wrapping_add((r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((i as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x ^ (x >> 31)) as i64
}

/// The swap-churn kernel: strided fills, cross-node reads, a lock-
/// guarded counter — every phase forces objects through the swap path
/// on a tiny arena.
fn churn_kernel<D: DsmApi>(dsm: &D) -> u64 {
    let rows: Vec<D::Slice<'_, i64>> = (0..OBJS).map(|_| dsm.alloc::<i64>(LEN)).collect();
    let (me, n) = (dsm.me(), dsm.n());
    for r in (me..OBJS).step_by(n) {
        let mut v = rows[r].view_mut(0..LEN);
        for (i, slot) in v.iter_mut().enumerate() {
            *slot = mix(dsm.seed(), r, i);
        }
    }
    dsm.barrier();
    let mut sum = 0u64;
    for row in &rows {
        let s = row
            .view(0..LEN)
            .iter()
            .fold(0u64, |a, &v| a.wrapping_add(v as u64));
        sum = sum.wrapping_mul(31).wrapping_add(s);
    }
    let me_word = dsm.me();
    dsm.with_lock(1, || rows[0].update(me_word, |v| v.wrapping_add(1)));
    dsm.barrier();
    // Scope Consistency: CS writes are guaranteed visible to the next
    // acquirer of the same lock, so the tail is read under it.
    let tail: i64 = dsm.with_lock(1, || {
        (0..n).fold(0i64, |a, k| a.wrapping_add(rows[0].read(k)))
    });
    dsm.barrier();
    sum.wrapping_add(tail as u64)
}

fn lots_run(dmm: usize, swap: SwapConfig, seed: u64) -> (Vec<u64>, ClusterReport) {
    let opts =
        ClusterOptions::new(2, LotsConfig::small(dmm).with_swap(swap), p4_fedora()).with_seed(seed);
    run_cluster(opts, churn_kernel)
}

#[test]
fn every_policy_matches_the_no_swap_run_and_reproduces() {
    let (no_swap, roomy_report) = lots_run(ROOMY_DMM, SwapConfig::default(), 7);
    assert_eq!(
        roomy_report.total(|n| n.stats.swaps_out()),
        0,
        "roomy baseline must not swap"
    );
    for policy in SwapPolicyKind::ALL {
        let swap = SwapConfig {
            policy,
            batch_evict: 4,
            read_ahead: true,
            compress: true,
        };
        let (r1, rep1) = lots_run(TINY_DMM, swap, 7);
        let (r2, rep2) = lots_run(TINY_DMM, swap, 7);
        assert_eq!(
            r1, no_swap,
            "{policy:?}: swapping must not change application results"
        );
        assert_eq!(r1, r2, "{policy:?}: same-seed reruns must agree");
        assert_eq!(
            rep1.fingerprint(),
            rep2.fingerprint(),
            "{policy:?}: report must be byte-identical across reruns"
        );
        assert!(
            rep1.total(|n| n.stats.swaps_out()) > 0,
            "{policy:?}: the tiny arena must force swapping"
        );
    }
}

#[test]
fn legacy_and_tuned_bundles_agree_on_results() {
    let (baseline, _) = lots_run(ROOMY_DMM, SwapConfig::default(), 3);
    for swap in [SwapConfig::legacy(), SwapConfig::tuned()] {
        let (r, rep) = lots_run(TINY_DMM, swap, 3);
        assert_eq!(r, baseline, "{swap:?}");
        assert!(rep.total(|n| n.stats.swaps_out()) > 0);
    }
}

#[test]
fn all_three_systems_agree_under_memory_pressure() {
    // LOTS overcommits a tiny arena 4×; LOTS-x and JIAJIA get the
    // smallest memory that still fits (they cannot swap — §1).
    let (lots, lots_rep) = lots_run(TINY_DMM, SwapConfig::tuned(), 11);
    assert!(lots_rep.total(|n| n.stats.swaps_out()) > 0);

    let lotsx_opts = ClusterOptions::new(2, LotsConfig::lots_x(1 << 20), p4_fedora()).with_seed(11);
    let (lotsx, _) = run_cluster(lotsx_opts, churn_kernel);

    let jia_opts = JiaOptions::new(2, 1 << 20, p4_fedora()).with_seed(11);
    let (jia, _) = run_jiajia_cluster(jia_opts, churn_kernel);

    assert_eq!(lots, lotsx, "LOTS vs LOTS-x");
    assert_eq!(lots, jia, "LOTS vs JIAJIA");

    // And each constrained system reproduces byte-for-byte too.
    let jia_opts = JiaOptions::new(2, 1 << 20, p4_fedora()).with_seed(11);
    let (jia2, _) = run_jiajia_cluster(jia_opts, churn_kernel);
    assert_eq!(jia, jia2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random knob combinations: any policy × batch × read-ahead ×
    /// compression × seed preserves results and replays exactly.
    #[test]
    fn random_swap_configs_preserve_results_and_reproduce(
        policy_ix in 0usize..3,
        batch in 1usize..6,
        read_ahead in any::<bool>(),
        compress in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let swap = SwapConfig {
            policy: SwapPolicyKind::ALL[policy_ix],
            batch_evict: batch,
            read_ahead,
            compress,
        };
        let (baseline, _) = lots_run(ROOMY_DMM, SwapConfig::default(), seed);
        let (r1, rep1) = lots_run(TINY_DMM, swap, seed);
        let (r2, rep2) = lots_run(TINY_DMM, swap, seed);
        prop_assert_eq!(&r1, &baseline);
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(rep1.fingerprint(), rep2.fingerprint());
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
        let opts = ClusterOptions::new(1, LotsConfig::small(TINY_DMM).with_swap(swap), p4_fedora());
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
    let opts = ClusterOptions::new(1, LotsConfig::small(TINY_DMM), p4_fedora());
    let (results, _) = run_cluster(opts, |dsm| {
        let rows: Vec<_> = (0..5).map(|_| dsm.alloc::<i64>(LEN)).collect();
        let mut guards = Vec::new();
        for row in rows.iter().take(4) {
            guards.push(row.view(0..LEN)); // 4 × 8 KB pins fill the lower half
        }
        let err = match rows[4].try_view(0..LEN) {
            Err(LotsError::OutOfDmm { .. }) => true,
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
    let opts = ClusterOptions::new(1, LotsConfig::small(TINY_DMM), p4_fedora());
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
