//! Property tests for the object-lifecycle API: random
//! alloc/free/named-lookup churn must be byte-identical to a plain
//! sequential model on LOTS, LOTS-x and JIAJIA; faulted runs must
//! compute the same values and replay bit-for-bit; use-after-free
//! through any path (element op, view, lookup) must panic with the
//! fence message; and zero-size chunked allocations must agree with
//! `try_alloc(0)` on every system.

use std::sync::Arc;

use lots::apps::churn::placement_for;
use lots::core::{run_cluster, ClusterOptions, DsmApi, DsmSlice, FaultPlan, LotsConfig, LotsError};
use lots::jiajia::{run_jiajia_cluster, JiaError, JiaOptions};
use lots::sim::machine::p4_fedora;
use lots::sim::SimDuration;
use proptest::prelude::*;

const NODES: usize = 3;

/// One synchronization interval of the random churn program. Raw
/// draws; the interpreter normalizes them into bounds.
#[derive(Debug, Clone)]
struct Phase {
    /// Element counts of this phase's allocations (placement cycles).
    allocs: Vec<usize>,
    /// Writes `(new-object draw, element draw, value)` — applied by
    /// the written object's single owner node, and only to objects
    /// allocated *this* phase: under Scope Consistency a read of data
    /// written in the same interval without a lock is a race, so the
    /// post-barrier sweep must only see sealed generations.
    writes: Vec<(usize, usize, u32)>,
    /// Frees (live-slot draws) — each applied by the object's owner
    /// alone, exercising non-collective reclamation.
    frees: Vec<usize>,
}

type Script = Vec<Phase>;

fn tag(p: usize) -> String {
    format!("t{p}")
}

/// Run the script on one node of any DSM; returns the checksum every
/// node must agree on.
fn run_script<D: DsmApi>(dsm: &D, script: &Script) -> u64 {
    let (n, me) = (dsm.n(), dsm.me());
    let mut live: Vec<(usize, D::Slice<'_, u32>, usize)> = Vec::new();
    let mut uid = 0usize;
    let mut checksum = 0u64;
    for (p, phase) in script.iter().enumerate() {
        for &elems in &phase.allocs {
            let s = dsm.alloc_placed::<u32>(elems, placement_for(uid, n));
            live.push((uid, s, elems));
            uid += 1;
        }
        // One node stages a named object per phase; committed below.
        if me == p % n {
            dsm.alloc_named::<u32>(&tag(p), 8);
        }
        for &(wslot, welem, val) in &phase.writes {
            if phase.allocs.is_empty() {
                break;
            }
            let fresh = live.len() - phase.allocs.len();
            let (u, s, elems) = live[fresh + wslot % phase.allocs.len()];
            if u % n == me {
                s.write(welem % elems, val);
            }
        }
        // Frees come after the writes (a write through a tombstone is
        // a use-after-free by design). Deduped positions, removed from
        // the back so indices stay valid.
        let mut positions: Vec<usize> = phase
            .frees
            .iter()
            .filter(|_| !live.is_empty())
            .map(|&f| f % live.len())
            .collect();
        positions.sort_unstable();
        positions.dedup();
        for pos in positions.into_iter().rev() {
            let (u, s, _elems) = live.remove(pos);
            if u % n == me {
                dsm.free(s);
            }
        }
        dsm.barrier();
        // The named object committed at this barrier: its owner writes
        // it now; every node reads (and one frees) last phase's.
        if me == p % n {
            dsm.lookup::<u32>(&tag(p)).write(0, 1000 + p as u32);
        }
        if p >= 1 {
            let t = dsm.lookup::<u32>(&tag(p - 1));
            checksum = checksum.wrapping_add(t.read(0) as u64);
            if me == p % n {
                dsm.free(t);
            }
        }
        // Full sweep of the live set through view guards.
        for &(_u, s, elems) in &live {
            let sum: u64 = s.view(0..elems).iter().map(|&v| v as u64).sum();
            checksum = checksum.wrapping_add(sum);
        }
    }
    dsm.barrier();
    checksum
}

/// The sequential model: same script, plain vectors.
fn run_model(script: &Script, n: usize) -> u64 {
    let mut live: Vec<(usize, Vec<u32>)> = Vec::new();
    let mut uid = 0usize;
    let mut checksum = 0u64;
    for (p, phase) in script.iter().enumerate() {
        for &elems in &phase.allocs {
            live.push((uid, vec![0u32; elems]));
            uid += 1;
        }
        for &(wslot, welem, val) in &phase.writes {
            if phase.allocs.is_empty() {
                break;
            }
            let slot = live.len() - phase.allocs.len() + wslot % phase.allocs.len();
            let elems = live[slot].1.len();
            live[slot].1[welem % elems] = val;
        }
        let mut positions: Vec<usize> = phase
            .frees
            .iter()
            .filter(|_| !live.is_empty())
            .map(|&f| f % live.len())
            .collect();
        positions.sort_unstable();
        positions.dedup();
        for pos in positions.into_iter().rev() {
            live.remove(pos);
        }
        if p >= 1 {
            checksum = checksum.wrapping_add(1000 + (p as u64 - 1));
        }
        for (_u, data) in &live {
            let sum: u64 = data.iter().map(|&v| v as u64).sum();
            checksum = checksum.wrapping_add(sum);
        }
        let _ = n;
    }
    checksum
}

fn lots_run(script: &Script, cfg: LotsConfig, faults: FaultPlan) -> (Vec<u64>, String) {
    let script = Arc::new(script.clone());
    let opts = ClusterOptions::new(NODES, cfg, p4_fedora()).with_faults(faults);
    let (results, report) = run_cluster(opts, move |dsm| run_script(dsm, &script));
    (results, report.fingerprint())
}

fn jia_run(script: &Script) -> Vec<u64> {
    let script = Arc::new(script.clone());
    let opts = JiaOptions::new(NODES, 1 << 20, p4_fedora());
    let (results, _) = run_jiajia_cluster(opts, move |dsm| run_script(dsm, &script));
    results
}

fn jitter() -> FaultPlan {
    FaultPlan {
        seed: 42,
        max_msg_delay: SimDuration::from_micros(800),
        cpu_slowdown: vec![(1, 1.7)],
        ..FaultPlan::none()
    }
}

fn script_strategy() -> impl Strategy<Value = Script> {
    proptest::collection::vec(
        (
            proptest::collection::vec(1usize..2048, 0..4),
            proptest::collection::vec((any::<usize>(), any::<usize>(), any::<u32>()), 0..6),
            proptest::collection::vec(any::<usize>(), 0..3),
        ),
        2..5,
    )
    .prop_map(|phases| {
        phases
            .into_iter()
            .map(|(allocs, writes, frees)| Phase {
                allocs,
                writes,
                frees,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random churn: every node of every system reports the model's
    /// checksum; a jittered LOTS run computes the same values and
    /// replays bit-for-bit (report fingerprint included).
    #[test]
    fn churn_matches_model_and_replays_under_faults(script in script_strategy()) {
        let expect = run_model(&script, NODES);
        // LOTS under swap pressure (64 KB arena), LOTS-x roomy.
        let (lots, _) = lots_run(&script, LotsConfig::small(64 * 1024), FaultPlan::none());
        for r in &lots {
            prop_assert_eq!(*r, expect, "LOTS vs model");
        }
        let (lotsx, _) = lots_run(&script, LotsConfig::lots_x(1 << 20), FaultPlan::none());
        for r in &lotsx {
            prop_assert_eq!(*r, expect, "LOTS-x vs model");
        }
        for r in jia_run(&script) {
            prop_assert_eq!(r, expect, "JIAJIA vs model");
        }
        // Fault jitter changes times, never values — and replays
        // byte-identically.
        let faulted = lots_run(&script, LotsConfig::small(64 * 1024), jitter());
        for r in &faulted.0 {
            prop_assert_eq!(*r, expect, "faulted LOTS vs model");
        }
        let replay = lots_run(&script, LotsConfig::small(64 * 1024), jitter());
        prop_assert_eq!(faulted, replay, "faulted run must replay bit-for-bit");
    }
}

// ---------------------------------------------------------------------
// Use-after-free fences: every access path panics with the fence
// message between `free` and any later use.
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "use after free")]
fn lots_element_op_after_free_panics() {
    let opts = ClusterOptions::new(1, LotsConfig::small(64 * 1024), p4_fedora());
    let _ = run_cluster(opts, |dsm| {
        let a = dsm.alloc::<u32>(16);
        dsm.free(a);
        a.read(0)
    });
}

#[test]
#[should_panic(expected = "use after free")]
fn lots_view_after_free_panics() {
    let opts = ClusterOptions::new(1, LotsConfig::small(64 * 1024), p4_fedora());
    let _ = run_cluster(opts, |dsm| {
        let a = dsm.alloc::<u32>(16);
        let b = a; // a second handle to the same object
        dsm.free(a);
        let sum = b.view(0..4).iter().sum::<u32>();
        sum
    });
}

#[test]
#[should_panic(expected = "use after free")]
fn lots_lookup_after_free_panics() {
    let opts = ClusterOptions::new(1, LotsConfig::small(64 * 1024), p4_fedora());
    let _ = run_cluster(opts, |dsm| {
        dsm.alloc_named::<u32>("grid", 16);
        dsm.barrier();
        let h = dsm.lookup::<u32>("grid");
        dsm.free(h);
        // Tombstoned this interval: the directory entry is fenced.
        let _ = dsm.lookup::<u32>("grid");
    });
}

#[test]
#[should_panic(expected = "use after free")]
fn lots_write_after_free_panics_even_past_the_reclaiming_barrier() {
    let opts = ClusterOptions::new(1, LotsConfig::small(64 * 1024), p4_fedora());
    let _ = run_cluster(opts, |dsm| {
        let a = dsm.alloc::<u32>(16);
        dsm.free(a);
        dsm.barrier(); // reclaimed: the slot is Free, not reused yet
        a.write(3, 9);
    });
}

#[test]
#[should_panic(expected = "use after free")]
fn jiajia_access_after_free_panics() {
    let opts = JiaOptions::new(1, 64 * 4096, p4_fedora());
    let _ = run_jiajia_cluster(opts, |dsm| {
        let a = dsm.alloc::<u32>(16);
        dsm.free(a);
        a.read(0)
    });
}

#[test]
#[should_panic(expected = "drop it first")]
fn lots_free_under_a_live_view_is_fenced() {
    let opts = ClusterOptions::new(1, LotsConfig::small(64 * 1024), p4_fedora());
    let _ = run_cluster(opts, |dsm| {
        let a = dsm.alloc::<u32>(16);
        let v = a.view(0..8);
        dsm.free(a);
        drop(v);
    });
}

#[test]
fn double_free_and_subslice_free_are_errors() {
    let opts = ClusterOptions::new(1, LotsConfig::small(64 * 1024), p4_fedora());
    let (results, _) = run_cluster(opts, |dsm| {
        let a = dsm.alloc::<u32>(16);
        assert!(matches!(
            dsm.try_free(a.offset(4)),
            Err(LotsError::BadFree { .. })
        ));
        assert!(matches!(
            dsm.try_free(a.prefix(8)),
            Err(LotsError::BadFree { .. })
        ));
        dsm.free(a);
        assert!(matches!(
            dsm.try_free(a),
            Err(LotsError::UseAfterFree { .. })
        ));
        true
    });
    assert_eq!(results, vec![true]);
    let opts = JiaOptions::new(1, 64 * 4096, p4_fedora());
    let (results, _) = run_jiajia_cluster(opts, |dsm| {
        let a = dsm.alloc::<u32>(2048);
        assert!(matches!(
            dsm.try_free(a.prefix(8)),
            Err(JiaError::BadFree { .. })
        ));
        dsm.free(a);
        assert!(matches!(
            dsm.try_free(a),
            Err(JiaError::UseAfterFree { .. })
        ));
        true
    });
    assert_eq!(results, vec![true]);
}

// ---------------------------------------------------------------------
// Zero-size chunked allocations agree with try_alloc(0).
// ---------------------------------------------------------------------

#[test]
fn zero_size_alloc_chunks_agrees_with_empty_alloc_on_lots() {
    let opts = ClusterOptions::new(1, LotsConfig::small(64 * 1024), p4_fedora());
    let (results, _) = run_cluster(opts, |dsm| {
        assert!(matches!(
            dsm.try_alloc::<u32>(0),
            Err(LotsError::EmptyAlloc)
        ));
        assert!(matches!(
            dsm.try_alloc_chunks::<u32>(4, 0),
            Err(LotsError::EmptyAlloc)
        ));
        assert!(matches!(
            dsm.try_alloc_chunks::<u32>(0, 4),
            Err(LotsError::EmptyAlloc)
        ));
        // Non-degenerate chunked allocs still work.
        dsm.try_alloc_chunks::<u32>(3, 8).unwrap().len()
    });
    assert_eq!(results, vec![3]);
}

#[test]
fn zero_size_alloc_chunks_agrees_with_empty_alloc_on_jiajia() {
    let opts = JiaOptions::new(1, 64 * 4096, p4_fedora());
    let (results, _) = run_jiajia_cluster(opts, |dsm| {
        assert!(matches!(dsm.try_alloc::<u32>(0), Err(JiaError::EmptyAlloc)));
        assert!(matches!(
            dsm.try_alloc_chunks::<u32>(4, 0),
            Err(JiaError::EmptyAlloc)
        ));
        assert!(matches!(
            dsm.try_alloc_chunks::<u32>(0, 4),
            Err(JiaError::EmptyAlloc)
        ));
        dsm.try_alloc_chunks::<u32>(3, 8).unwrap().len()
    });
    assert_eq!(results, vec![3]);
}

#[test]
#[should_panic(expected = "cannot allocate an empty")]
fn panicking_alloc_chunks_names_the_empty_alloc() {
    let opts = ClusterOptions::new(1, LotsConfig::small(64 * 1024), p4_fedora());
    let _ = run_cluster(opts, |dsm| {
        let _ = dsm.alloc_chunks::<u32>(4, 0);
    });
}

// ---------------------------------------------------------------------
// Swap accounting across frees: deferred reclamation is visible, then
// the backing store's capacity returns at the barrier.
// ---------------------------------------------------------------------

#[test]
fn freed_swap_images_leave_the_store_and_accounting_balances() {
    let opts = ClusterOptions::new(1, LotsConfig::small(32 * 1024), p4_fedora());
    let (results, report) = run_cluster(opts, |dsm| {
        let objs: Vec<_> = (0..3).map(|_| dsm.alloc::<u32>(9 * 1024 / 4)).collect();
        for (k, o) in objs.iter().enumerate() {
            o.write(0, k as u32 + 1); // dirties; mapping the next evicts
        }
        assert!(
            dsm.swapped_bytes() > 0,
            "three 9 KB objects through a 32 KB arena must swap"
        );
        for o in &objs {
            dsm.free(*o);
        }
        // Tombstoned, not yet reclaimed: the images are still held.
        assert!(dsm.swapped_bytes() > 0, "reclamation is barrier-deferred");
        dsm.barrier();
        // Reclaimed: the store's capacity returns.
        assert_eq!(dsm.swapped_bytes(), 0, "freed images leave the store");
        let acct = dsm.swap_accounting();
        assert_eq!(acct.freed_bytes, 3 * 9 * 1024);
        assert_eq!(
            acct.resident_logical + acct.swapped_logical + acct.dematerialized_cum,
            acct.materialized_cum,
            "resident + swapped + freed/invalidated == cumulative materialized"
        );
        assert_eq!(acct.materialized, 0, "nothing lives after the frees");
        true
    });
    assert_eq!(results, vec![true]);
    assert_eq!(report.nodes[0].swapped_bytes, 0);
    assert_eq!(report.nodes[0].stats.objects_freed(), 3);
}

/// Named objects remove the SPMD lockstep-allocation assumption: a
/// phase that allocates on one node only, with every node (allocator
/// included) attaching by name one barrier later.
#[test]
fn named_objects_cross_node_attach_and_placement() {
    let opts = ClusterOptions::new(4, LotsConfig::small(256 * 1024), p4_fedora());
    let (results, _) = run_cluster(opts, |dsm| {
        if dsm.me() == 2 {
            // Node 2 alone allocates — no other node calls alloc here.
            dsm.alloc_named_placed::<u32>("grid", 64, lots::core::Placement::Fixed(1));
        }
        dsm.barrier();
        let g = dsm.lookup::<u32>("grid");
        assert_eq!(dsm.object_home(g.id()), 1, "Fixed(1) placement honoured");
        if dsm.me() == 2 {
            g.write_from(0, &[7; 64]);
        }
        dsm.barrier();
        let sum: u32 = g.view(0..64).iter().sum();
        // Type mismatch is a directory-checked error.
        assert!(matches!(
            dsm.try_lookup::<u64>("grid"),
            Err(LotsError::NameTypeMismatch { .. })
        ));
        assert!(matches!(
            dsm.try_lookup::<u32>("absent"),
            Err(LotsError::NameNotFound { .. })
        ));
        sum
    });
    assert_eq!(results, vec![7 * 64; 4]);
}

/// A staging request that is wrong twice — the name is taken *and* the
/// placement names a node that does not exist — is reported the same
/// way by every system: as the duplicate. (JIAJIA used to validate the
/// placement first and answer `BadPlacement`.)
#[test]
fn a_doubly_bad_named_request_gets_the_same_error_kind_on_all_three_systems() {
    let bad_home = lots::core::Placement::Fixed(9);
    for cfg in [LotsConfig::small(64 * 1024), LotsConfig::lots_x(64 * 1024)] {
        let opts = ClusterOptions::new(1, cfg, p4_fedora());
        run_cluster(opts, move |dsm| {
            dsm.alloc_named::<u32>("grid", 8);
            assert!(matches!(
                dsm.try_alloc_named_placed::<u32>("grid", 8, bad_home),
                Err(LotsError::DuplicateName { .. })
            ));
            assert!(matches!(
                dsm.try_alloc_named_placed::<u32>("other", 8, bad_home),
                Err(LotsError::BadPlacement { requested: 9, n: 1 })
            ));
        });
    }
    let opts = JiaOptions::new(1, 64 * 4096, p4_fedora());
    run_jiajia_cluster(opts, move |dsm| {
        dsm.alloc_named::<u32>("grid", 8);
        assert!(matches!(
            dsm.try_alloc_named_placed::<u32>("grid", 8, bad_home),
            Err(JiaError::DuplicateName { .. })
        ));
        assert!(matches!(
            dsm.try_alloc_named_placed::<u32>("other", 8, bad_home),
            Err(JiaError::BadPlacement { requested: 9, n: 1 })
        ));
    });
}

/// The name directory's error table, driven through the public API on
/// one node: each row is a request and the error kind it got (`Ok` if
/// none). Both systems hold the same directory, so every row must
/// agree across them.
fn directory_error_table<D: DsmApi>(dsm: &D) -> Vec<(&'static str, String)> {
    fn kind<T, E: std::fmt::Debug>(r: Result<T, E>) -> String {
        r.map_or_else(|e| format!("{e:?}"), |_| "Ok".into())
            .split([' ', '('])
            .next()
            .unwrap()
            .to_string()
    }
    let far = lots::core::Placement::Fixed(9);
    dsm.alloc_named::<u32>("grid", 8);
    let mut rows = vec![
        ("staged, not committed", kind(dsm.try_lookup::<u32>("grid"))),
        ("staged twice", kind(dsm.try_alloc_named::<u32>("grid", 8))),
        (
            "taken and empty",
            kind(dsm.try_alloc_named::<u32>("grid", 0)),
        ),
        ("empty", kind(dsm.try_alloc_named::<u32>("other", 0))),
        (
            "outside the cluster",
            kind(dsm.try_alloc_named_placed::<u32>("other", 8, far)),
        ),
    ];
    dsm.barrier();
    let grid = dsm.lookup::<u32>("grid");
    rows.push((
        "committed twice",
        kind(dsm.try_alloc_named::<u32>("grid", 8)),
    ));
    rows.push(("wrong element type", kind(dsm.try_lookup::<u64>("grid"))));
    rows.push(("never allocated", kind(dsm.try_lookup::<u32>("absent"))));
    dsm.free(grid);
    rows.push(("freed this interval", kind(dsm.try_lookup::<u32>("grid"))));
    dsm.barrier();
    rows.push(("freed and reclaimed", kind(dsm.try_lookup::<u32>("grid"))));
    rows
}

#[test]
fn the_directory_error_table_is_the_same_on_all_three_systems() {
    let want: Vec<(&str, String)> = [
        ("staged, not committed", "NameNotFound"),
        ("staged twice", "DuplicateName"),
        ("taken and empty", "DuplicateName"),
        ("empty", "EmptyAlloc"),
        ("outside the cluster", "BadPlacement"),
        ("committed twice", "DuplicateName"),
        ("wrong element type", "NameTypeMismatch"),
        ("never allocated", "NameNotFound"),
        ("freed this interval", "UseAfterFree"),
        ("freed and reclaimed", "NameNotFound"),
    ]
    .into_iter()
    .map(|(row, kind)| (row, kind.to_string()))
    .collect();
    for (what, cfg) in [
        ("lots", LotsConfig::small(64 * 1024)),
        ("lots-x", LotsConfig::lots_x(64 * 1024)),
    ] {
        let opts = ClusterOptions::new(1, cfg, p4_fedora());
        let (results, _) = run_cluster(opts, directory_error_table);
        assert_eq!(results[0], want, "{what}");
    }
    let opts = JiaOptions::new(1, 64 * 4096, p4_fedora());
    let (results, _) = run_jiajia_cluster(opts, directory_error_table);
    assert_eq!(results[0], want, "jiajia");
}

// ---------------------------------------------------------------------
// Lazy commit: zero-fills are skipped above each arena's dirty mark, so
// an allocation that lands on recycled space must still read zeros —
// on every system, mapping path and recovery path.
// ---------------------------------------------------------------------

const RECYCLE_ELEMS: usize = 9 * 1024 / 4;
const RECYCLE_ROUNDS: usize = 4;

/// Each round: allocate `objs` objects (from round 1 on they land on
/// the extents the previous round freed), check every node reads them
/// as zeros, have one node fill them with a non-zero pattern, let every
/// node read that back (so remote arenas get dirty too), free, and let
/// the barrier reclaim.
fn recycle_rounds<D: DsmApi>(dsm: &D, objs: usize) -> u64 {
    let (n, me) = (dsm.n(), dsm.me());
    let mut sum = 0u64;
    for round in 0..RECYCLE_ROUNDS {
        let live: Vec<_> = (0..objs).map(|_| dsm.alloc::<u32>(RECYCLE_ELEMS)).collect();
        for (k, a) in live.iter().enumerate() {
            let stale = a.view(0..RECYCLE_ELEMS).iter().filter(|&&v| v != 0).count();
            assert_eq!(
                stale, 0,
                "node {me} round {round} object {k}: fresh allocation reads a previous tenant's bytes"
            );
        }
        dsm.barrier();
        if me == round % n {
            for a in &live {
                a.view_mut(0..RECYCLE_ELEMS).fill(u32::MAX - round as u32);
            }
        }
        dsm.barrier();
        for a in &live {
            sum += a
                .view(0..RECYCLE_ELEMS)
                .iter()
                .map(|&v| v as u64)
                .sum::<u64>();
        }
        dsm.barrier();
        if me == (round + 1) % n {
            for a in live {
                dsm.free(a);
            }
        }
        dsm.barrier();
    }
    sum
}

fn recycle_model(objs: usize) -> u64 {
    (0..RECYCLE_ROUNDS as u64)
        .map(|round| (u32::MAX as u64 - round) * (objs * RECYCLE_ELEMS) as u64)
        .sum()
}

#[test]
fn recycled_extents_read_zero_on_every_mapping_and_recovery_path() {
    let striped = |c: LotsConfig| c.with_striping(lots::core::Striping::segments_of(2 * 1024));
    let crash = || FaultPlan {
        crash_node: Some(lots::sim::CrashFault {
            node: 1,
            // Right after a reclaiming barrier, with dirty arenas.
            at_barrier: 8,
            reboot: SimDuration::from_millis(5),
        }),
        ..FaultPlan::none()
    };
    // 32 KB of DMM holds one 9 KB object at a time: the three objects
    // of a round cycle through lazy mapping, eviction and swap-in.
    for (what, cfg, objs, faults) in [
        ("lots", LotsConfig::small(256 * 1024), 2, FaultPlan::none()),
        (
            "lots-x",
            LotsConfig::lots_x(256 * 1024),
            2,
            FaultPlan::none(),
        ),
        (
            "lots striped",
            striped(LotsConfig::small(256 * 1024)),
            2,
            FaultPlan::none(),
        ),
        (
            "lots-x striped",
            striped(LotsConfig::lots_x(256 * 1024)),
            2,
            FaultPlan::none(),
        ),
        (
            "lots under pressure",
            LotsConfig::small(32 * 1024),
            3,
            FaultPlan::none(),
        ),
        (
            "lots striped under pressure",
            striped(LotsConfig::small(32 * 1024)),
            3,
            FaultPlan::none(),
        ),
        (
            "lots crash-rejoin",
            LotsConfig::small(256 * 1024),
            2,
            crash(),
        ),
        (
            "lots crash-rejoin under pressure",
            LotsConfig::small(32 * 1024),
            3,
            crash(),
        ),
    ] {
        let opts = ClusterOptions::new(NODES, cfg, p4_fedora()).with_faults(faults);
        let (results, report) = run_cluster(opts, move |dsm| recycle_rounds(dsm, objs));
        assert_eq!(results, vec![recycle_model(objs); NODES], "{what}");
        if what.contains("pressure") {
            assert!(
                report.total(|n| n.stats.swaps_in()) > 0,
                "{what}: must swap"
            );
        }
        if what.contains("crash") {
            assert_eq!(report.total(|n| n.stats.rejoin_rounds()), 1, "{what}");
        }
    }
    // JIAJIA zeroes at reclaim instead of at allocation; same contract.
    let opts = JiaOptions::new(NODES, 1 << 20, p4_fedora());
    let (results, _) = run_jiajia_cluster(opts, |dsm| recycle_rounds(dsm, 2));
    assert_eq!(results, vec![recycle_model(2); NODES], "jiajia");
}

#[test]
fn recycled_extents_read_zero_across_restore() {
    use lots::core::{restore_cluster, PersistConfig, PersistStore};
    let opts = || {
        let lots = LotsConfig::small(32 * 1024).with_persist(PersistConfig::every(2));
        ClusterOptions::new(NODES, lots, p4_fedora())
    };
    let store = PersistStore::new(NODES);
    let (r1, _) = run_cluster(opts().with_persist_store(store.clone()), |dsm| {
        recycle_rounds(dsm, 3)
    });
    assert_eq!(r1, vec![recycle_model(3); NODES]);
    // The replay re-verifies every sealed digest while its own fresh
    // arenas go through the same recycle pattern.
    let restored = store.restore().expect("journals restore");
    let (r2, _) = restore_cluster(Arc::new(restored), opts(), |dsm| recycle_rounds(dsm, 3));
    assert_eq!(r1, r2);
}
