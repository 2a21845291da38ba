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

mod lattice;

use lattice::*;
use lots::apps::runner::System;
use lots::core::{
    run_cluster, ClusterOptions, ConfigError, Dsm, DsmApi, DsmSlice, LotsConfig, PersistConfig,
    PersistStore,
};
use lots::jiajia::{run_jiajia_cluster, JiaOptions};
use lots::sim::machine::p4_fedora;
use lots::sim::{ALL_CATEGORIES, COUNTERS};
use proptest::prelude::*;

fn journaled(system: System, persist: PersistConfig) -> Point {
    Point::new(system, 2, ROOMY).with(|p| p.persist = Some(persist))
}

/// Two LOTS nodes over 1 MB, journaled by `persist`.
fn lots_opts(persist: PersistConfig) -> ClusterOptions {
    ClusterOptions::new(
        2,
        LotsConfig::small(1 << 20).with_persist(persist),
        p4_fedora(),
    )
}

/// `k` rounds of each node writing its slot of one array, a barrier
/// after each.
fn rounds(k: i64) -> impl Fn(&Dsm) -> i64 + Copy + Send + Sync + 'static {
    move |dsm| {
        let a = dsm.alloc::<i64>(256);
        for round in 0..k {
            a.write(dsm.me(), round + 1);
            dsm.barrier();
        }
        a.read(0) + a.read(1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// LOTS: restore + replay reproduces results and fingerprints
    /// bit-for-bit, with the digest/clock verify plan armed.
    #[test]
    fn lots_restore_replay_is_bit_identical(seed in any::<u64>()) {
        check(&[journaled(System::Lots, PersistConfig::every(2))], &Script::random(seed));
    }

    /// Same property on the LOTS-x ablation, sealing every barrier.
    #[test]
    fn lots_x_restore_replay_is_bit_identical(seed in any::<u64>()) {
        check(&[journaled(System::LotsX, PersistConfig::every(1))], &Script::random(seed));
    }

    /// JIAJIA: the same journal subsystem over pages instead of
    /// objects, same bit-for-bit restore guarantee.
    #[test]
    fn jiajia_restore_replay_is_bit_identical(seed in any::<u64>()) {
        let point = journaled(System::Jiajia, PersistConfig::every(2)).with(|p| p.shared_bytes = JIA_BYTES);
        check(&[point], &Script::random(seed));
    }

    /// Compaction invariance: squashing the log must not change what a
    /// restore rebuilds — directory, names, and object content at the
    /// checkpoint are identical with and without compaction.
    #[test]
    fn compaction_preserves_restored_state(seed in any::<u64>()) {
        let run = |persist| {
            let store = PersistStore::new(2);
            let point = journaled(System::Lots, persist).with(|p| p.persist_store = Some(store.clone()));
            (checksums(&point.run(&Script::random(seed))), store.restore().expect("journals restore"))
        };
        let (r_plain, plain) = run(PersistConfig::every(1).without_compaction());
        // The lattice's eager compaction, sealing every barrier.
        let eager = Point::at([0, 0, 0, 0, 0, 2, 0, 0, 0]).cfg.persist.expect("journaled");
        let (r_compact, compact) = run(eager);
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
/// two systems as well: LOTS-x takes loss + duplication + reordering +
/// a healing partition + a crash-rejoin; JIAJIA takes the same minus
/// the crash (it has no rejoin protocol).
#[test]
fn lossy_restore_replay_on_lots_x_and_jiajia() {
    let [lossy, crash] = [2, 3].map(|f| Point::at([0, 0, 0, 0, 0, 0, f, 0, 1]).seeded(77).cfg);
    let lots_x = journaled(System::LotsX, PersistConfig::every(2))
        .with(|p| (p.n, p.faults) = (3, crash.faults));
    let jiajia = journaled(System::Jiajia, PersistConfig::every(2));
    let jiajia = jiajia.with(|p| (p.n, p.shared_bytes, p.faults) = (3, JIA_BYTES, lossy.faults));
    let runs = check(&[lots_x, jiajia], &Script::random(5));
    assert!(
        ran(&runs[0]).traffic.msgs_retransmitted() > 0,
        "the plan must exercise loss"
    );
}

/// The fingerprint leaves out exactly one row, and has to: a restore
/// whose replay runs past its checkpoint differs from its original run
/// in the `restore_only` row (> 0 there, 0 in the original) and in no
/// other row or category time.
#[test]
fn restore_differs_from_its_original_only_in_the_restore_only_row() {
    let kernel = rounds(3);
    let opts = || lots_opts(PersistConfig::every(2));
    let store = PersistStore::new(2);
    let (r1, rep1) = run_cluster(opts().with_persist_store(store.clone()), kernel);
    let restored = store.restore().expect("journals restore");
    let (r2, rep2) = run_cluster(opts().with_restore(Arc::new(restored)), kernel);
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

/// Restore is validated once, before any task, for both systems: with
/// persistence off, or at another cluster size, a restore is refused
/// with the same `ConfigError`, and so the same message, on LOTS and
/// JIAJIA.
#[test]
fn a_restore_without_persistence_or_at_another_size_fails_on_both_systems() {
    let store = PersistStore::new(2);
    let opts = lots_opts(PersistConfig::every(1)).with_persist_store(store.clone());
    run_cluster(opts, rounds(1));
    let restored = Arc::new(store.restore().expect("journals restore"));
    let every = Some(PersistConfig::every(1));
    for (n, persist, refused) in [
        (2, None, ConfigError::RestoreWithoutPersistence),
        (
            3,
            every,
            ConfigError::RestoreSizeMismatch { restored: 2, n: 3 },
        ),
    ] {
        let mut lots = ClusterOptions::new(n, LotsConfig::small(ROOMY), p4_fedora());
        lots.lots.persist = persist.clone();
        let mut jia = JiaOptions::new(n, JIA_BYTES, p4_fedora()).with_restore(restored.clone());
        jia.persist = persist;
        let lots = lots.with_restore(restored.clone());
        assert_eq!(lots.check(), Err(refused.clone()));
        assert_eq!(jia.check(), Err(refused.clone()));
        let lots = caught(|| run_cluster(lots, |dsm| dsm.me()).0);
        let jia = caught(|| run_jiajia_cluster(jia, |dsm| dsm.me()).0);
        let e = lots.expect_err("the restore must fail");
        assert_eq!(e, refused.to_string());
        assert_eq!(jia.expect_err("the restore must fail"), e);
    }
}

/// A torn final record (simulated crash mid-append) must cost at most
/// the unsealed tail: restore falls back to the last complete
/// checkpoint and the replay re-verifies everything before it.
#[test]
fn torn_tail_falls_back_to_last_sealed_checkpoint() {
    let kernel = rounds(4);
    let store = PersistStore::new(2);
    let opts = lots_opts(PersistConfig::every(2)).with_persist_store(store.clone());
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
                let opts = lots_opts(PersistConfig::every(2)).with_restore(Arc::new(restored));
                let (r2, _) = run_cluster(opts, kernel);
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
/// run. (The name dates from when the engine had a second mode.)
#[test]
fn jiajia_compaction_counters_are_identical_run_to_run_and_across_engines() {
    use lots::apps::churn::ChurnParams;
    use lots::apps::{run_app, RunConfig, System};

    let params = ChurnParams {
        phases: 32,
        ..ChurnParams::smoke()
    };
    let run = || {
        let cfg = RunConfig::new(System::Jiajia, 4, p4_fedora())
            .with_persist(PersistConfig::every(4), None);
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
    let first = run();
    for rep in 0..12 {
        assert_eq!(run(), first, "rep {rep}");
    }
}
