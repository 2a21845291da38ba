//! Chaos battery: fault plans wired to swap-heavy runs.
//!
//! Message jitter, a straggler CPU and a mid-run node panic are
//! injected while the swap subsystem is churning objects through the
//! disk device. The invariants:
//!
//! * Faults that only stretch time never change what a swap-heavy run
//!   computes — and the faulted run itself replays bit-for-bit
//!   (`lattice::check`) over batched write-behind, read-ahead and
//!   compression.
//! * A node panic in the middle of swap traffic poisons the sync
//!   services cleanly: peers fail loudly at their next rendezvous,
//!   nothing hangs, and the original panic is what surfaces.

mod lattice;

use lattice::*;
use lots::apps::runner::System;
use lots::core::SwapConfig;
use lots::sim::{FaultPlan, PanicFault, SimDuration};
use proptest::prelude::*;

/// Two LOTS nodes over the tight arena with the tuned swap bundle.
fn tight(faults: FaultPlan) -> Point {
    Point::new(System::Lots, 2, TIGHT)
        .with(|p| (p.seed, p.faults, p.lots.swap) = (5, faults, SwapConfig::tuned()))
}

#[test]
fn delays_and_stragglers_stretch_swap_runs_without_changing_results() {
    let faults = FaultPlan {
        seed: 99,
        max_msg_delay: SimDuration::from_millis(1),
        cpu_slowdown: vec![(1, 1.7)],
        ..FaultPlan::none()
    };
    let runs = check(
        &[tight(FaultPlan::none()), tight(faults)],
        &Script::random(5),
    );
    let (clean, faulted) = (ran(&runs[0]), ran(&runs[1]));
    assert!(clean.stats.swaps_out() > 0, "the script must actually swap");
    assert!(
        faulted.exec_time > clean.exec_time,
        "jitter + a straggler must cost virtual time ({} vs {})",
        faulted.exec_time,
        clean.exec_time
    );
}

#[test]
#[should_panic(expected = "fault injection: node 1 killed entering barrier 2")]
fn node_panic_during_swap_traffic_poisons_cleanly() {
    // Node 1 dies at its second barrier, while evictions are in flight.
    // The peers must fail loudly (poisoned services), never hang, and
    // the injected panic is the one that propagates.
    let faults = FaultPlan {
        panic_node: Some(PanicFault {
            node: 1,
            at_barrier: 2,
        }),
        ..FaultPlan::none()
    };
    tight(faults).run(&Script::random(5));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The lattice's fault plans over the tight arena, any swap bundle:
    /// results stay the model's, and every faulted run replays exactly.
    #[test]
    fn random_fault_plans_never_corrupt_swap_runs(
        p in points([0, 1, 0, 0, 0, 0, 0, 0, 0], &[SWAP, FAULTS]),
    ) {
        check(&[p], &Script::random(5));
    }
}
