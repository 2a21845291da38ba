//! Kill a cluster mid-run, restore it from its journals, replay —
//! and get the uninterrupted run's answers, bit for bit.
//!
//! The object-churn workload runs on a 4-node LOTS cluster with the
//! persistence subsystem on (`PersistConfig::every(4)` checkpoints)
//! under the full lossy-network cocktail: seeded loss, duplication and
//! reordering, a healing minority partition, and one crash-rejoin.
//! A second run adds a fatal mid-run kill (one node panics entering a
//! barrier); its journals — torn off at the kill — are then restored
//! to the newest cluster-complete checkpoint and replayed. The replay
//! verifies every sealed state digest and virtual clock barrier by
//! barrier, and must finish with checksums, virtual times and traffic
//! **byte-identical** to the uninterrupted run.
//!
//! ```text
//! cargo run --release --example checkpoint_restore
//! LOTS_SMOKE=1 cargo run --release --example checkpoint_restore   # CI job
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use lots::apps::churn::{model_checksum, run_churn, ChurnParams};
use lots::core::{run_cluster, ClusterOptions, Dsm, LotsConfig, PersistConfig, PersistStore};
use lots::sim::machine::p4_fedora;
use lots::sim::{CrashFault, FaultPlan, PanicFault, Partition, SimDuration, SimInstant};

const NODES: usize = 4;

/// The barrier whose entry kills node 2 in the interrupted run. Late
/// enough that the crash-rejoin (barrier 6) has healed and at least
/// two checkpoints (barriers 4 and 8) have sealed on every node.
const KILL_BARRIER: u64 = 11;

/// Seeded loss + dup + reorder, one healing minority partition, one
/// recoverable crash-rejoin — the lossy-network cocktail the restore
/// must be exact under. The crash lands after the first checkpoint
/// (barrier 4) so the rejoining node has journal bytes pinned on its
/// own disk to rebuild masters from.
fn plan() -> FaultPlan {
    FaultPlan {
        seed: 1234,
        loss_permille: 15,
        dup_permille: 30,
        reorder_permille: 25,
        partitions: vec![Partition {
            start: SimInstant(2_000_000),
            end: SimInstant(8_000_000),
            islanders: vec![3],
        }],
        crash_node: Some(CrashFault {
            node: 1,
            at_barrier: 6,
            reboot: SimDuration::from_millis(25),
        }),
        ..FaultPlan::none()
    }
}

fn opts(store: Option<PersistStore>, faults: FaultPlan) -> ClusterOptions {
    let lots = LotsConfig::small(1 << 20).with_persist(PersistConfig::every(4));
    let mut o = ClusterOptions::new(NODES, lots, p4_fedora()).with_faults(faults);
    if let Some(s) = store {
        o = o.with_persist_store(s);
    }
    o
}

fn main() {
    let smoke = std::env::var("LOTS_SMOKE").is_ok_and(|v| v == "1");
    let params = if smoke {
        ChurnParams::smoke()
    } else {
        ChurnParams {
            phases: 96,
            ..ChurnParams::smoke()
        }
    };
    let model = model_checksum(&params, 0);
    let kernel = move |dsm: &Dsm| run_churn(dsm, &params).checksum;

    // 1. The uninterrupted run: churn through the full fault cocktail
    //    with the journal on. Its answers are the bar the restore must
    //    clear exactly.
    let base_store = PersistStore::new(NODES);
    let (base, base_report) = run_cluster(opts(Some(base_store.clone()), plan()), kernel);
    for (node, c) in base.iter().enumerate() {
        assert_eq!(*c, model, "node {node} checksum vs the sequential model");
    }
    let rejoin_log = base_report.total(|n| n.stats.rejoin_log_bytes());
    let log_bytes = base_report.total(|n| n.stats.log_bytes_appended());
    let checkpoints = base_report.total(|n| n.stats.checkpoint_bytes());
    assert!(
        rejoin_log > 0,
        "the rejoin must rebuild masters from its own journal"
    );
    assert!(checkpoints > 0, "every(4) must seal checkpoints");
    println!(
        "uninterrupted: {} phases in {:.3} s, {} journal B appended \
         ({} B of manifests), rejoin read {} B from its own log",
        params.phases,
        base_report.exec_time.as_secs_f64(),
        log_bytes,
        checkpoints,
        rejoin_log,
    );

    // 2. The same run, killed: node 2 panics entering barrier
    //    KILL_BARRIER, poisoning the whole cluster. The journals in
    //    `killed_store` survive the wreck.
    let killed_store = PersistStore::new(NODES);
    let mut kopts = opts(Some(killed_store.clone()), plan());
    kopts.spec.faults.panic_node = Some(PanicFault {
        node: 2,
        at_barrier: KILL_BARRIER,
    });
    // Silence the (intentional) kill's panic chatter; the threads it
    // poisons would otherwise each print a backtrace.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let wreck = catch_unwind(AssertUnwindSafe(|| run_cluster(kopts, kernel)));
    std::panic::set_hook(prev_hook);
    assert!(wreck.is_err(), "the kill must abort the run");
    println!(
        "killed: node 2 died entering barrier {KILL_BARRIER}; journals hold {} B",
        (0..NODES).map(|i| killed_store.log_bytes(i)).sum::<u64>(),
    );

    // 3. Cold-start restore from the wreck's journals, then replay.
    //    Every sealed digest and clock is
    //    re-verified during the replay; the final answers and the full
    //    report fingerprint must equal the uninterrupted run's.
    let base_print = base_report.fingerprint();
    let restored = killed_store.restore().expect("journals restore");
    assert!(
        restored.checkpoint_seq >= 4 && restored.checkpoint_seq.is_multiple_of(4),
        "checkpoint {} is not a sealed multiple of 4",
        restored.checkpoint_seq
    );
    let checkpoint_seq = restored.checkpoint_seq;
    let opts = opts(None, plan()).with_restore(Arc::new(restored));
    let (replayed, report) = run_cluster(opts, kernel);
    assert_eq!(base, replayed, "replay answers diverged");
    assert_eq!(
        base_print,
        report.fingerprint(),
        "replay fingerprint diverged"
    );
    let replayed_barriers = report.total(|n| n.stats.restore_replay_barriers());
    assert!(
        replayed_barriers > 0,
        "barriers beyond checkpoint {checkpoint_seq} must count as replayed"
    );
    println!(
        "restore: checkpoint {checkpoint_seq}, {replayed_barriers} barrier-intervals replayed \
         — answers and fingerprint identical",
    );
    println!("killed, restored, replayed: bit-identical to the uninterrupted run.");
}
