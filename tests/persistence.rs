//! Persistence battery: the `lots-persist` journal must support a
//! cold-start restore whose replay is **bit-identical** to the
//! original run — on LOTS, the LOTS-x ablation, and JIAJIA — and the
//! journal must survive compaction and torn tails unchanged.
//!
//! Every restore here is an honest re-execution under a per-barrier
//! verify plan: the replay panics at the first barrier whose state
//! digest or virtual clock differs from the original log, so a green
//! assertion below proves byte-for-byte equivalence barrier by
//! barrier, not just at the end.

use std::sync::Arc;

use lots::core::{
    restore_cluster, run_cluster, ClusterOptions, CompactionConfig, DsmApi, DsmSlice, LotsConfig,
    PersistConfig, PersistStore,
};
use lots::jiajia::{restore_jiajia_cluster, run_jiajia_cluster, JiaOptions};
use lots::sim::machine::p4_fedora;
use lots::sim::{SchedulerMode, ALL_CATEGORIES, COUNTERS};
use proptest::prelude::*;

/// A random barrier-synchronized SPMD program: per interval and node,
/// writes into the node's own stripe of each object (data-race-free),
/// with optional free+realloc churn between intervals.
#[derive(Debug, Clone)]
struct Script {
    objects: usize,
    elems: usize,
    /// writes[interval][node] = (object, stripe index, value)
    writes: Vec<Vec<Vec<(usize, usize, i32)>>>,
    /// Intervals after which object 0 is freed and re-allocated (the
    /// lifecycle records the journal must carry).
    churn_interval: Option<usize>,
}

fn script_strategy(nodes: usize) -> impl Strategy<Value = Script> {
    (2usize..4, 8usize..25, 0usize..3).prop_flat_map(move |(objects, elems, churn)| {
        // 0 → no churn; k → free+realloc after interval k-1.
        let churn_interval = churn.checked_sub(1);
        let per = elems / nodes;
        let interval = proptest::collection::vec(
            proptest::collection::vec((0..objects, 0..per.max(1), any::<i32>()), 0..5),
            nodes,
        );
        proptest::collection::vec(interval, 2..5).prop_map(move |writes| Script {
            objects,
            elems,
            writes,
            churn_interval,
        })
    })
}

/// Run the script on any DSM; returns node 0's order-canonical
/// checksum of the final state.
fn run_script<D: DsmApi>(dsm: &D, script: &Script) -> u64 {
    let nodes = dsm.n();
    let per = script.elems / nodes;
    let mut objs: Vec<_> = (0..script.objects)
        .map(|_| dsm.alloc::<i32>(script.elems))
        .collect();
    for (k, interval) in script.writes.iter().enumerate() {
        for &(obj, i, v) in &interval[dsm.me()] {
            objs[obj].write(dsm.me() * per + i, v);
        }
        dsm.barrier();
        if script.churn_interval == Some(k) {
            // Lifecycle churn: free object 0 and re-allocate it, so
            // the journal sees Free + Alloc (and slot reuse) records.
            dsm.free(objs.remove(0));
            dsm.barrier();
            objs.insert(0, dsm.alloc::<i32>(script.elems));
            dsm.barrier();
        }
    }
    if dsm.me() == 0 {
        objs.iter()
            .flat_map(|o| o.read_vec(0, script.elems))
            .fold(0u64, |acc, v| acc.wrapping_mul(31).wrapping_add(v as u64))
    } else {
        0
    }
}

fn lots_opts(nodes: usize, dmm: usize, lots_x: bool, persist: PersistConfig) -> ClusterOptions {
    let lots = if lots_x {
        LotsConfig::lots_x(dmm)
    } else {
        LotsConfig::small(dmm)
    }
    .with_persist(persist);
    ClusterOptions::new(nodes, lots, p4_fedora())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// LOTS: restore + replay reproduces results and fingerprints
    /// bit-for-bit, with the digest/clock verify plan armed.
    #[test]
    fn lots_restore_replay_is_bit_identical(script in script_strategy(2)) {
        let script = Arc::new(script);
        let store = PersistStore::new(2);
        let opts = lots_opts(2, 1 << 20, false, PersistConfig::every(2))
            .with_persist_store(store.clone());
        let s1 = Arc::clone(&script);
        let (r1, rep1) = run_cluster(opts, move |dsm| run_script(dsm, &s1));
        let restored = store.restore().expect("journals restore");
        let s2 = Arc::clone(&script);
        let (r2, rep2) = restore_cluster(
            Arc::new(restored),
            lots_opts(2, 1 << 20, false, PersistConfig::every(2)),
            move |dsm| run_script(dsm, &s2),
        );
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(rep1.fingerprint(), rep2.fingerprint());
    }

    /// Same property on the LOTS-x ablation under swap pressure (a
    /// tiny DMM keeps objects cycling through the backing store while
    /// the journal shares the disk device).
    #[test]
    fn lots_x_restore_replay_is_bit_identical(script in script_strategy(2)) {
        let script = Arc::new(script);
        let store = PersistStore::new(2);
        let opts = lots_opts(2, 16 * 1024, true, PersistConfig::every(1))
            .with_persist_store(store.clone());
        let s1 = Arc::clone(&script);
        let (r1, rep1) = run_cluster(opts, move |dsm| run_script(dsm, &s1));
        let restored = store.restore().expect("journals restore");
        let s2 = Arc::clone(&script);
        let (r2, rep2) = restore_cluster(
            Arc::new(restored),
            lots_opts(2, 16 * 1024, true, PersistConfig::every(1)),
            move |dsm| run_script(dsm, &s2),
        );
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(rep1.fingerprint(), rep2.fingerprint());
    }

    /// JIAJIA: the same journal subsystem over pages instead of
    /// objects, same bit-for-bit restore guarantee.
    #[test]
    fn jiajia_restore_replay_is_bit_identical(script in script_strategy(2)) {
        let script = Arc::new(script);
        let store = PersistStore::new(2);
        let opts = JiaOptions::new(2, 4 << 20, p4_fedora())
            .with_persist(PersistConfig::every(2))
            .with_persist_store(store.clone());
        let s1 = Arc::clone(&script);
        let (r1, rep1) = run_jiajia_cluster(opts, move |dsm| run_script(dsm, &s1));
        let restored = store.restore().expect("journals restore");
        let s2 = Arc::clone(&script);
        let (r2, rep2) = restore_jiajia_cluster(
            Arc::new(restored),
            JiaOptions::new(2, 4 << 20, p4_fedora()).with_persist(PersistConfig::every(2)),
            move |dsm| run_script(dsm, &s2),
        );
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(rep1.fingerprint(), rep2.fingerprint());
    }

    /// Compaction invariance: squashing the log must not change what a
    /// restore rebuilds — directory, names, and object content at the
    /// checkpoint are identical with and without compaction.
    #[test]
    fn compaction_preserves_restored_state(script in script_strategy(2)) {
        let script = Arc::new(script);
        let eager = CompactionConfig {
            enabled: true,
            garbage_permille: 1,
            min_log_bytes: 1,
            poll: lots::sim::SimDuration::from_micros(50),
        };
        let run = |compaction: Option<CompactionConfig>| {
            let persist = match compaction {
                Some(c) => PersistConfig::every(1).with_compaction(c),
                None => PersistConfig::every(1).without_compaction(),
            };
            let store = PersistStore::new(2);
            let opts = lots_opts(2, 1 << 20, false, persist).with_persist_store(store.clone());
            let s = Arc::clone(&script);
            let (r, _) = run_cluster(opts, move |dsm| run_script(dsm, &s));
            (r, store.restore().expect("journals restore"))
        };
        let (r_plain, plain) = run(None);
        let (r_compact, compact) = run(Some(eager));
        prop_assert_eq!(r_plain, r_compact);
        prop_assert_eq!(plain.checkpoint_seq, compact.checkpoint_seq);
        for (a, b) in plain.nodes.iter().zip(compact.nodes.iter()) {
            prop_assert_eq!(&a.dir, &b.dir, "node {} directory", a.me);
            prop_assert_eq!(&a.names, &b.names, "node {} names", a.me);
            prop_assert_eq!(&a.objects, &b.objects, "node {} masters", a.me);
        }
    }
}

/// Restore stays exact under a seeded lossy fault plan on the other
/// two systems as well (the `checkpoint_restore` example covers LOTS
/// with the full cocktail): LOTS-x takes loss + duplication +
/// reordering + a healing partition + a crash-rejoin; JIAJIA takes the
/// same minus the crash (it has no rejoin protocol).
#[test]
fn lossy_restore_replay_on_lots_x_and_jiajia() {
    fn kernel<D: DsmApi>(dsm: &D) -> u64 {
        let a = dsm.alloc::<i32>(256);
        let per = 256 / dsm.n();
        for round in 0..6i32 {
            for i in 0..per {
                a.write(dsm.me() * per + i, round * 1000 + i as i32);
            }
            dsm.barrier();
        }
        a.read_vec(0, 256)
            .iter()
            .fold(0u64, |acc, v| acc.wrapping_mul(31).wrapping_add(*v as u64))
    }
    let lossy = lots::sim::FaultPlan {
        seed: 77,
        loss_permille: 20,
        dup_permille: 30,
        reorder_permille: 25,
        partitions: vec![lots::sim::Partition {
            start: lots::sim::SimInstant(200_000),
            end: lots::sim::SimInstant(600_000),
            islanders: vec![2],
        }],
        ..lots::sim::FaultPlan::none()
    };
    let with_crash = lots::sim::FaultPlan {
        crash_node: Some(lots::sim::CrashFault {
            node: 1,
            at_barrier: 3,
            reboot: lots::sim::SimDuration::from_millis(5),
        }),
        ..lossy.clone()
    };

    let store = PersistStore::new(3);
    let opts = lots_opts(3, 16 * 1024, true, PersistConfig::every(2))
        .with_persist_store(store.clone())
        .with_faults(with_crash.clone());
    let (r1, rep1) = run_cluster(opts, kernel);
    assert!(
        rep1.nodes
            .iter()
            .any(|n| n.traffic.msgs_retransmitted() > 0),
        "the plan must exercise loss"
    );
    let restored = store
        .restore()
        .expect("LOTS-x journals restore under faults");
    let (r2, rep2) = restore_cluster(
        Arc::new(restored),
        lots_opts(3, 16 * 1024, true, PersistConfig::every(2)).with_faults(with_crash),
        kernel,
    );
    assert_eq!(r1, r2, "LOTS-x faulted replay diverged");
    assert_eq!(rep1.fingerprint(), rep2.fingerprint());

    let store = PersistStore::new(3);
    let opts = JiaOptions::new(3, 4 << 20, p4_fedora())
        .with_persist(PersistConfig::every(2))
        .with_persist_store(store.clone())
        .with_faults(lossy.clone());
    let (j1, jrep1) = run_jiajia_cluster(opts, kernel);
    let restored = store
        .restore()
        .expect("JIAJIA journals restore under faults");
    let (j2, jrep2) = restore_jiajia_cluster(
        Arc::new(restored),
        JiaOptions::new(3, 4 << 20, p4_fedora())
            .with_persist(PersistConfig::every(2))
            .with_faults(lossy),
        kernel,
    );
    assert_eq!(j1, j2, "JIAJIA faulted replay diverged");
    assert_eq!(jrep1.fingerprint(), jrep2.fingerprint());
}

/// The fingerprint leaves out exactly one row, and has to: a restore
/// whose replay runs past its checkpoint differs from its original run
/// in the `restore_only` row (> 0 there, 0 in the original) and in no
/// other row or category time.
#[test]
fn restore_differs_from_its_original_only_in_the_restore_only_row() {
    let kernel = |dsm: &lots::core::Dsm| {
        let a = dsm.alloc::<i64>(256);
        for round in 0..3 {
            a.write(dsm.me(), round + 1);
            dsm.barrier();
        }
        a.read(0) + a.read(1)
    };
    let opts = || lots_opts(2, 1 << 20, false, PersistConfig::every(2));
    let store = PersistStore::new(2);
    let (r1, rep1) = run_cluster(opts().with_persist_store(store.clone()), kernel);
    let restored = store.restore().expect("journals restore");
    let (r2, rep2) = restore_cluster(Arc::new(restored), opts(), kernel);
    assert_eq!(r1, r2);
    assert_eq!(rep1.fingerprint(), rep2.fingerprint());
    for (a, b) in rep1.nodes.iter().zip(&rep2.nodes) {
        for row in COUNTERS {
            let (was, is) = ((row.get)(&a.stats), (row.get)(&b.stats));
            if row.restore_only {
                assert!(
                    was == 0 && is > 0,
                    "node {} {}: {was} → {is}",
                    a.me,
                    row.name
                );
            } else {
                assert_eq!(was, is, "node {} {}", a.me, row.name);
            }
        }
        for cat in ALL_CATEGORIES {
            assert_eq!(a.stats.time_in(cat), b.stats.time_in(cat), "{}", cat.name());
        }
    }
}

/// A torn final record (simulated crash mid-append) must cost at most
/// the unsealed tail: restore falls back to the last complete
/// checkpoint and the replay re-verifies everything before it.
#[test]
fn torn_tail_falls_back_to_last_sealed_checkpoint() {
    let kernel = |dsm: &lots::core::Dsm| {
        let a = dsm.alloc::<i64>(256);
        for round in 0..4u64 {
            a.write(dsm.me(), round as i64 + 1);
            dsm.barrier();
        }
        a.read(0) + a.read(1)
    };
    let store = PersistStore::new(2);
    let opts =
        lots_opts(2, 1 << 20, false, PersistConfig::every(2)).with_persist_store(store.clone());
    let (r1, _) = run_cluster(opts, kernel);
    let intact = store.restore().expect("intact restore");
    assert_eq!(intact.checkpoint_seq, 4);
    // Chop bytes off node 0's log one step at a time. Restorability
    // must be monotone in the prefix length: before the first sealed
    // manifest survives the cut, restore fails cleanly; from then on
    // every longer prefix restores to a sealed checkpoint (2 or 4) and
    // replays to the original result.
    let full = store.log_bytes(0) as usize;
    let mut restored_once = false;
    for cut in (0..=full).step_by(97).chain([full]) {
        let torn = store.fork();
        torn.truncate_tail(0, cut);
        match torn.restore() {
            Ok(restored) => {
                restored_once = true;
                assert!(
                    restored.checkpoint_seq == 2 || restored.checkpoint_seq == 4,
                    "cut {cut}: checkpoint {} is not a sealed one",
                    restored.checkpoint_seq
                );
                let (r2, _) = restore_cluster(
                    Arc::new(restored),
                    lots_opts(2, 1 << 20, false, PersistConfig::every(2)),
                    kernel,
                );
                assert_eq!(r1, r2, "cut {cut}: replay diverged");
            }
            Err(e) => {
                // Acceptable only before the first checkpoint manifest
                // fits inside the prefix — never after one restored.
                assert!(
                    !restored_once,
                    "cut {cut} of {full} regressed to unrestorable: {e:?}"
                );
            }
        }
    }
    assert!(restored_once, "no prefix ever restored");
}

/// The compaction daemons end in virtual state (the first turn selected
/// after the last application task finished), so how much they compact
/// cannot depend on how fast the host tears the run down: JIAJIA churn
/// — whose last journal appends land right before the applications
/// exit — must journal and compact exactly the same amount on every
/// run, in both engine modes.
#[test]
fn jiajia_compaction_counters_are_identical_run_to_run_and_across_engines() {
    use lots::apps::churn::ChurnParams;
    use lots::apps::{run_app, RunConfig, System};

    let params = ChurnParams {
        phases: 32,
        ..ChurnParams::smoke()
    };
    let run = |mode: SchedulerMode| {
        let mut cfg = RunConfig::new(System::Jiajia, 4, p4_fedora())
            .with_persist(PersistConfig::every(4), None);
        cfg.scheduler = mode;
        let out = run_app(&cfg, params);
        assert!(
            out.stats.compaction_runs() > 0,
            "the daemons must have work"
        );
        (
            out.stats.compaction_runs(),
            out.stats.compaction_bytes_reclaimed(),
            out.stats.log_records(),
            out.stats.log_bytes_appended(),
        )
    };
    let first = run(SchedulerMode::Deterministic);
    for rep in 0..6 {
        for mode in [
            SchedulerMode::Deterministic,
            SchedulerMode::Explore { max_schedules: 1 },
        ] {
            assert_eq!(run(mode), first, "rep {rep} under {mode:?}");
        }
    }
}
