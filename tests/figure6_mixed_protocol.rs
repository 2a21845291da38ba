//! Figure 6 — the mixed coherence protocol.
//!
//! Lock synchronization uses a *homeless write-update* protocol: the
//! updates travel with the lock grant, so the next acquirer reads them
//! without contacting any home. Barrier synchronization uses
//! *migrating-home write-invalidate*: a single writer becomes the new
//! home with zero data transfer (the migration rides the barrier exit
//! message), everyone else invalidates and refetches on demand; an
//! object written by several nodes keeps its home, which gathers the
//! diffs, "avoiding the updates of an object to be scattered".

use lots::core::{
    run_cluster, ClusterOptions, DsmApi, DsmSlice, LockProtocol, LotsConfig, Placement,
};
use lots::sim::machine::p4_fedora;

fn opts(n: usize) -> ClusterOptions {
    ClusterOptions::new(n, LotsConfig::small(1 << 20), p4_fedora())
}

#[test]
fn lock_updates_arrive_with_the_grant_not_from_a_home() {
    let (results, report) = run_cluster(opts(2), |dsm| {
        let x = dsm.alloc::<i32>(4096); // 16 KB object
        let id = x.id();
        if dsm.me() == 0 {
            dsm.lock(1);
            x.write(7, 42);
            dsm.unlock(1);
            dsm.run_barrier();
            true
        } else {
            dsm.run_barrier();
            dsm.lock(1);
            // The grant has already patched our copy: it is locally
            // valid, no ObjReq to any home was needed.
            let valid_before_read = dsm.object_locally_valid(id);
            let v = x.read(7);
            dsm.unlock(1);
            v == 42 && valid_before_read
        }
    });
    assert!(results.iter().all(|&ok| ok));
    // Only the one-word update rode the grant: nothing remotely like
    // the 16 KB object crossed the network.
    let bytes = report.total(|n| n.traffic.bytes_sent());
    assert!(
        bytes < 1024,
        "write-update moved {bytes} B; a fetch would be ≥ 16 KB"
    );
}

#[test]
fn single_writer_migrates_home_with_zero_data_transfer() {
    let (results, report) = run_cluster(opts(4), |dsm| {
        let x = dsm.alloc::<f64>(2048); // 16 KB object
        let id = x.id();
        let original_home = dsm.object_home(id);
        if dsm.me() == 2 {
            x.fill(1.25);
        }
        dsm.barrier();
        (original_home, dsm.object_home(id))
    });
    for &(before, after) in &results {
        assert_eq!(before, 0, "round-robin initial home of object 0");
        assert_eq!(after, 2, "home migrated to the single writer");
    }
    // The 16 KB of written data never crossed the network: only barrier
    // control messages (a few hundred bytes) moved.
    let bytes = report.total(|n| n.traffic.bytes_sent());
    assert!(
        bytes < 2048,
        "migration moved {bytes} B; the object is 16 KB"
    );
}

#[test]
fn multi_writer_object_gathers_diffs_at_home_and_invalidates() {
    let (results, report) = run_cluster(opts(4), |dsm| {
        let x = dsm.alloc::<i32>(1024);
        let id = x.id();
        // All four nodes write disjoint quarters: multi-writer.
        let per = 1024 / dsm.n();
        for i in 0..per {
            x.write(dsm.me() * per + i, (dsm.me() * per + i) as i32);
        }
        dsm.barrier();
        // Home is unchanged (node 0); non-home copies were invalidated
        // ("free the memory storing the updates").
        let home = dsm.object_home(id);
        let invalidated = if dsm.me() == 0 {
            dsm.object_locally_valid(id)
        } else {
            !dsm.object_locally_valid(id)
        };
        // Reading refetches the merged object from the home.
        let sum: i64 = (0..1024).map(|i| x.read(i) as i64).sum();
        (home, invalidated, sum)
    });
    let expected: i64 = (0..1024).sum();
    for &(home, invalidated, sum) in &results {
        assert_eq!(home, 0, "multi-writer object keeps its home");
        assert!(invalidated, "non-home copies invalidated, home copy kept");
        assert_eq!(sum, expected, "home holds the merged updates");
    }
    // Diffs flowed to the home: real data-plane traffic this time.
    let frags = report.total(|n| n.traffic.fragments_sent());
    assert!(frags > 0, "multi-writer diffs must move");
}

#[test]
fn figure6_combined_timeline() {
    // The figure's storyline: x and y start homed at P1; P0 updates
    // them under a lock (update travels to P2 via the grant chain);
    // then P3 alone writes y before a barrier → y's home migrates to
    // P3 and the others invalidate.
    let (results, _) = run_cluster(opts(4), |dsm| {
        let x = dsm.alloc::<i32>(256); // home 0
        let y = dsm.alloc::<i32>(256); // home 1
        match dsm.me() {
            0 => {
                dsm.lock(5);
                x.write(0, 10);
                y.write(0, 20);
                dsm.unlock(5);
            }
            2 => {
                // P2 takes the lock next: sees both updates.
                dsm.lock(5);
                assert_eq!(x.read(0), 10);
                assert_eq!(y.read(0), 20);
                dsm.unlock(5);
            }
            _ => {}
        }
        dsm.barrier();
        if dsm.me() == 3 {
            y.write(1, 30); // sole writer of y this interval
        }
        dsm.barrier();
        (dsm.object_home(y.id()), y.read(0), y.read(1), x.read(0))
    });
    for &(y_home, y0, y1, x0) in &results {
        assert_eq!(y_home, 3, "y migrated to its sole writer P3");
        assert_eq!((y0, y1, x0), (20, 30, 10));
    }
}

/// Under either lock protocol, a lock grant must not cost the acquirer
/// the writes it made earlier in the interval: node A writes `x[0]`
/// outside any lock, node B writes `x[8]` under a lock A then takes,
/// and after the barrier every node reads both — whether A is the home
/// or not. (Write-invalidate used to drop A's written copy at the
/// grant, so every node read `x[0] == 0`.)
#[test]
fn a_lock_grant_keeps_the_acquirers_unpublished_writes() {
    for protocol in [
        LockProtocol::HomelessWriteUpdate,
        LockProtocol::WriteInvalidate,
    ] {
        for a_home in [true, false] {
            let mut o = opts(2);
            o.lots.lock_protocol = protocol;
            let (results, _) = run_cluster(o, move |dsm| {
                let x = dsm.alloc_placed::<i32>(16, Placement::Fixed(usize::from(!a_home)));
                if dsm.me() == 0 {
                    x.write(0, 11);
                }
                dsm.run_barrier();
                if dsm.me() == 1 {
                    dsm.lock(1);
                    x.write(8, 22);
                    dsm.unlock(1);
                }
                dsm.run_barrier();
                if dsm.me() == 0 {
                    dsm.lock(1);
                    dsm.unlock(1);
                }
                dsm.barrier();
                (x.read(0), x.read(8))
            });
            assert_eq!(results, vec![(11, 22); 2], "{protocol:?}, A home: {a_home}");
        }
    }
}

/// A counter two nodes take turns incrementing under one lock keeps
/// every increment under either protocol, whichever node is home.
/// (Write-invalidate used to re-apply, over the releaser's copy, the
/// count this node had published at its previous release, so the
/// counter fell back and increments were lost.)
#[test]
fn alternating_increments_under_one_lock_are_never_lost() {
    const ROUNDS: i32 = 25;
    for protocol in [
        LockProtocol::HomelessWriteUpdate,
        LockProtocol::WriteInvalidate,
    ] {
        for home in [0, 1] {
            let mut o = opts(2);
            o.lots.lock_protocol = protocol;
            let (results, _) = run_cluster(o, move |dsm| {
                let x = dsm.alloc_placed::<i32>(16, Placement::Fixed(home));
                let mut seen = Vec::new();
                for _ in 0..ROUNDS {
                    dsm.lock(1);
                    let v = x.read(0);
                    seen.push(v);
                    x.write(0, v + 1);
                    dsm.unlock(1);
                }
                dsm.barrier();
                (x.read(0), seen)
            });
            for (node, (count, seen)) in results.iter().enumerate() {
                assert_eq!(
                    *count,
                    2 * ROUNDS,
                    "{protocol:?}, home {home}: node {node} read {seen:?}"
                );
            }
        }
    }
}
