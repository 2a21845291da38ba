//! Regression stress for the lock→barrier hand-off: a migratory counter
//! incremented under one lock by three nodes, then merged at a barrier.
//! This is the scenario that once exposed a real-time race between the
//! comm handler applying remote barrier diffs and the app thread seeding
//! the per-word timestamp guard (fixed by max-merging the guard); it
//! must survive arbitrary thread interleavings.

use lots::core::{run_cluster, ClusterOptions, DsmApi, DsmSlice, LotsConfig};
use lots::sim::machine::p4_fedora;

#[test]
fn migratory_counter_survives_interleaving() {
    for _ in 0..30 {
        let opts = ClusterOptions::new(3, LotsConfig::small(1 << 20), p4_fedora());
        let (results, _) = run_cluster(opts, |dsm| {
            let x = dsm.alloc::<i64>(4);
            for _ in 0..25 {
                dsm.lock(9);
                let v = x.read(2);
                x.write(2, v + 1);
                dsm.unlock(9);
            }
            dsm.barrier();
            x.read(2)
        });
        assert_eq!(results, vec![75, 75, 75], "lost updates across the barrier");
    }
}

#[test]
fn home_last_holder_keeps_its_update_across_barrier() {
    // Quickstart's lost-update shape: every node takes the lock exactly
    // once per interval and adds its stripe to one shared total. When
    // the counter's home is the LAST holder, its CS value exists only
    // in its own arena; an older remote interval diff racing in on the
    // comm handler before the guard was seeded used to overwrite it (and
    // make the home's twin diff read empty, so barrier_prepare's
    // guard-seeding never fired). The guard is now seeded at exit_cs.
    for _ in 0..20 {
        let nodes = 4usize;
        let opts = ClusterOptions::new(nodes, LotsConfig::small(1 << 20), p4_fedora());
        let (results, _) = run_cluster(opts, |dsm| {
            // Two allocations so the counter's home is node 1, which
            // also participates in the lock chain.
            let _pad = dsm.alloc::<i64>(8); // home 0
            let counter = dsm.alloc::<i64>(1); // home 1
            let mut total = 0i64;
            for round in 0..3 {
                let mine = (round * dsm.n() + dsm.me() + 1) as i64;
                dsm.with_lock(7, || counter.update(0, |v| v + mine));
                dsm.barrier();
                total = counter.read(0);
                dsm.barrier();
            }
            total
        });
        let expect: i64 = (1..=(3 * nodes) as i64).sum();
        assert_eq!(results, vec![expect; nodes], "lost a node's contribution");
    }
}

#[test]
fn mixed_lock_and_plain_writers_merge_correctly() {
    // One node updates words under the lock while others write disjoint
    // words outside any lock: the barrier must merge both kinds.
    for _ in 0..10 {
        let opts = ClusterOptions::new(3, LotsConfig::small(1 << 20), p4_fedora());
        let (results, _) = run_cluster(opts, |dsm| {
            let x = dsm.alloc::<i64>(8);
            match dsm.me() {
                0 => {
                    for _ in 0..5 {
                        dsm.with_lock(1, || x.update(0, |v| v + 1));
                    }
                }
                1 => x.write(3, 33),
                _ => x.write(5, 55),
            }
            dsm.barrier();
            (x.read(0), x.read(3), x.read(5))
        });
        assert_eq!(results, vec![(5, 33, 55); 3]);
    }
}
