//! Chaos battery: `lots_sim::FaultPlan` wired to swap-heavy runs.
//!
//! Message jitter, a straggler CPU and a mid-run node panic are
//! injected while the swap subsystem is churning objects through the
//! disk device. The invariants:
//!
//! * Faults that only stretch time (delays, slowdowns) never change
//!   what a swap-heavy run computes — and the *faulted* run itself
//!   replays bit-for-bit (the PR 3 determinism contract extended over
//!   the new swap machinery: batched write-behind, read-ahead,
//!   compression).
//! * A node panic in the middle of swap traffic poisons the sync
//!   services cleanly: peers fail loudly at their next rendezvous,
//!   nothing hangs, and the original panic is what surfaces.

use lots::core::{run_cluster, ClusterOptions, DsmApi, DsmSlice, LotsConfig, SwapConfig};
use lots::sim::machine::p4_fedora;
use lots::sim::{FaultPlan, PanicFault, SimDuration};
use proptest::prelude::*;

const OBJS: usize = 12;
const LEN: usize = 1024; // i64 elements → 8 KB per object
const TINY_DMM: usize = 64 * 1024; // holds 4 of the 12 objects

fn mix(seed: u64, r: usize, i: usize) -> i64 {
    let mut x = seed
        .wrapping_add((r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((i as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x ^ (x >> 31)) as i64
}

/// Swap-heavy SPMD kernel: two barrier intervals of strided fills and
/// cross-node reads over a 3×-overcommitted DMM area.
fn swap_heavy_kernel<D: DsmApi>(dsm: &D) -> u64 {
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
        sum = sum.wrapping_mul(31).wrapping_add(
            row.view(0..LEN)
                .iter()
                .fold(0u64, |a, &v| a.wrapping_add(v as u64)),
        );
    }
    dsm.barrier();
    // Second interval: rewrite the strided rows, forcing dirty
    // re-evictions with live twins while replies race the faults.
    for r in (me..OBJS).step_by(n) {
        let mut v = rows[r].view_mut(0..LEN);
        for (i, slot) in v.iter_mut().enumerate() {
            *slot = slot.wrapping_add(mix(dsm.seed() ^ 1, r, i));
        }
    }
    dsm.barrier();
    for row in &rows {
        sum = sum.wrapping_mul(31).wrapping_add(
            row.view(0..LEN)
                .iter()
                .fold(0u64, |a, &v| a.wrapping_add(v as u64)),
        );
    }
    sum
}

fn opts(faults: FaultPlan) -> ClusterOptions {
    ClusterOptions::new(
        2,
        LotsConfig::small(TINY_DMM).with_swap(SwapConfig::tuned()),
        p4_fedora(),
    )
    .with_seed(5)
    .with_faults(faults)
}

#[test]
fn delays_and_stragglers_stretch_swap_runs_without_changing_results() {
    let (clean, clean_rep) = run_cluster(opts(FaultPlan::none()), swap_heavy_kernel);
    assert!(
        clean_rep.total(|n| n.stats.swaps_out()) > 0,
        "kernel must actually swap"
    );
    let faults = FaultPlan {
        seed: 99,
        max_msg_delay: SimDuration::from_millis(1),
        cpu_slowdown: vec![(1, 1.7)],
        ..FaultPlan::none()
    };
    let (faulted, faulted_rep) = run_cluster(opts(faults.clone()), swap_heavy_kernel);
    assert_eq!(clean, faulted, "faults must stretch time, not data");
    assert!(
        faulted_rep.exec_time > clean_rep.exec_time,
        "jitter + a straggler must cost virtual time ({} vs {})",
        faulted_rep.exec_time,
        clean_rep.exec_time
    );
    // The faulted run replays bit-for-bit.
    let (again, again_rep) = run_cluster(opts(faults), swap_heavy_kernel);
    assert_eq!(faulted, again);
    assert_eq!(faulted_rep.fingerprint(), again_rep.fingerprint());
}

#[test]
#[should_panic(expected = "fault injection: node 1 killed entering barrier 2")]
fn node_panic_during_swap_traffic_poisons_cleanly() {
    // Node 1 dies at its second barrier — right between the fill and
    // re-write intervals, while evictions are in flight. The peers must
    // fail loudly (poisoned services), never hang, and the injected
    // panic is the one that propagates.
    let faults = FaultPlan {
        panic_node: Some(PanicFault {
            node: 1,
            at_barrier: 2,
        }),
        ..FaultPlan::none()
    };
    let _ = run_cluster(opts(faults), swap_heavy_kernel);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random jitter/straggler plans over the swap-heavy kernel:
    /// results never change, and every faulted run replays exactly.
    #[test]
    fn random_fault_plans_never_corrupt_swap_runs(
        fault_seed in any::<u64>(),
        delay_us in 1u64..700,
        slow_node in 0usize..2,
        slow_pct in 0u64..120,
    ) {
        let (clean, _) = run_cluster(opts(FaultPlan::none()), swap_heavy_kernel);
        let faults = FaultPlan {
            seed: fault_seed,
            max_msg_delay: SimDuration::from_micros(delay_us),
            cpu_slowdown: vec![(slow_node, 1.0 + slow_pct as f64 / 100.0)],
            ..FaultPlan::none()
        };
        let (faulted, rep1) = run_cluster(opts(faults.clone()), swap_heavy_kernel);
        prop_assert_eq!(&clean, &faulted);
        let (again, rep2) = run_cluster(opts(faults), swap_heavy_kernel);
        prop_assert_eq!(faulted, again);
        prop_assert_eq!(rep1.fingerprint(), rep2.fingerprint());
    }
}
