//! Property tests for the object-lifecycle API: random
//! alloc/free/named-lookup churn must be byte-identical to a plain
//! sequential model on LOTS, LOTS-x and JIAJIA; faulted runs must
//! compute the same values and replay bit-for-bit; use-after-free
//! through any path (element op, view, lookup) must panic with the
//! fence message, and its `try_*` twin return the same `DsmError` on
//! every system; and zero-size chunked allocations must agree with
//! `try_alloc(0)` on every system.

mod lattice;

use std::mem::{discriminant, Discriminant};

use lattice::*;
use lots::apps::runner::System;
use lots::core::{
    run_cluster, AllocRef, ClusterOptions, Dsm, DsmApi, DsmError, DsmSlice, LotsConfig, Placement,
    Striping,
};
use lots::jiajia::{run_jiajia_cluster, JiaDsm, JiaOptions};
use lots::sim::machine::p4_fedora;
use proptest::prelude::*;
use DsmError::*;

const NODES: usize = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random phase scripts — alloc/free/named-lookup churn — report
    /// the model's checksums on LOTS under swap pressure, roomy LOTS-x
    /// and JIAJIA; a jittered LOTS run computes the same values; every
    /// run replays bit for bit.
    #[test]
    fn churn_matches_model_and_replays_under_faults(seed in any::<u64>()) {
        let jitter = Point::at([0, 0, 0, 0, 0, 0, 1, 0, 0, 1]).cfg.faults;
        let points = [
            Point::new(System::Lots, NODES, TIGHT),
            Point::new(System::LotsX, NODES, ROOMY),
            Point::new(System::Jiajia, NODES, JIA_BYTES),
            Point::new(System::Lots, NODES, TIGHT).with(|p| p.faults = jitter),
        ];
        check(&points, &Script::random(seed));
    }
}

/// Run `f` on one LOTS node over 64 KB; its result.
fn lots1<R: Send + 'static>(f: impl Fn(&Dsm) -> R + Send + Sync + 'static) -> R {
    let opts = ClusterOptions::new(1, LotsConfig::small(64 * 1024), p4_fedora());
    run_cluster(opts, f).0.remove(0)
}

/// Run `f` on one JIAJIA node; its result.
fn jia1<R: Send + 'static>(f: impl Fn(&JiaDsm) -> R + Send + Sync + 'static) -> R {
    run_jiajia_cluster(JiaOptions::new(1, 64 * 4096, p4_fedora()), f)
        .0
        .remove(0)
}

/// An error variant, `None` standing for `Ok`.
type Variant = Option<Discriminant<DsmError>>;

/// The variant of the error `r` holds.
fn variant<T>(r: Result<T, DsmError>) -> Variant {
    r.err().as_ref().map(discriminant)
}

// One value of each variant the tables below expect (only the variant
// is compared: the fields differ across systems).
const NAME: String = String::new();
const AT: AllocRef = AllocRef::Addr(0);
const NOT_FOUND: DsmError = NameNotFound { name: NAME };
const DUPLICATE: DsmError = DuplicateName { name: NAME };
const PLACEMENT: DsmError = BadPlacement { requested: 0, n: 0 };
const MISMATCH: DsmError = NameTypeMismatch {
    name: NAME,
    expected: 0,
    actual: 0,
};
const FREED: DsmError = UseAfterFree { alloc: AT };
fn bad_free() -> DsmError {
    let reason = "".into();
    BadFree { alloc: AT, reason }
}

/// `e`'s variant, as [`variant`] reports it.
fn v(e: DsmError) -> Variant {
    Some(discriminant(&e))
}

// ---------------------------------------------------------------------
// Use-after-free fences: every access path panics with the fence
// message between `free` and any later use.
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "use after free")]
fn lots_element_op_after_free_panics() {
    lots1(|dsm| {
        let a = dsm.alloc::<u32>(16);
        dsm.free(a);
        a.read(0)
    });
}

#[test]
#[should_panic(expected = "use after free")]
fn lots_view_after_free_panics() {
    lots1(|dsm| {
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
    lots1(|dsm| {
        dsm.alloc_named::<u32>("grid", 16);
        dsm.barrier();
        dsm.free(dsm.lookup::<u32>("grid"));
        // Tombstoned this interval: the directory entry is fenced.
        let _ = dsm.lookup::<u32>("grid");
    });
}

#[test]
#[should_panic(expected = "use after free")]
fn lots_write_after_free_panics_even_past_the_reclaiming_barrier() {
    lots1(|dsm| {
        let a = dsm.alloc::<u32>(16);
        dsm.free(a);
        dsm.barrier(); // reclaimed: the slot is Free, not reused yet
        a.write(3, 9);
    });
}

#[test]
#[should_panic(expected = "use after free")]
fn jiajia_access_after_free_panics() {
    jia1(|dsm| {
        let a = dsm.alloc::<u32>(16);
        dsm.free(a);
        a.read(0)
    });
}

#[test]
#[should_panic(expected = "drop it first")]
fn lots_free_under_a_live_view_is_fenced() {
    lots1(|dsm| {
        let a = dsm.alloc::<u32>(16);
        let v = a.view(0..8);
        dsm.free(a);
        drop(v);
    });
}

#[test]
fn double_free_and_subslice_free_are_errors() {
    let lots = lots1(|dsm| {
        let a = dsm.alloc::<u32>(16);
        let (offset, prefix) = (
            variant(dsm.try_free(a.offset(4))),
            variant(dsm.try_free(a.prefix(8))),
        );
        dsm.free(a);
        [offset, prefix, variant(dsm.try_free(a))]
    });
    assert_eq!(lots, [v(bad_free()), v(bad_free()), v(FREED)]);
    let jia = jia1(|dsm| {
        let a = dsm.alloc::<u32>(2048);
        let prefix = variant(dsm.try_free(a.prefix(8)));
        dsm.free(a);
        [prefix, variant(dsm.try_free(a))]
    });
    assert_eq!(jia, [v(bad_free()), v(FREED)]);
}

// ---------------------------------------------------------------------
// Zero-size chunked allocations agree with try_alloc(0).
// ---------------------------------------------------------------------

/// `try_alloc(0)` and both empty `try_alloc_chunks`, then the length of
/// a non-degenerate chunked allocation.
fn empty_allocs<D: DsmApi<Error = DsmError>>(dsm: &D) -> (Vec<Variant>, usize) {
    let empty = [0, 1, 2].map(|k| match k {
        0 => variant(dsm.try_alloc::<u32>(0)),
        1 => variant(dsm.try_alloc_chunks::<u32>(4, 0)),
        _ => variant(dsm.try_alloc_chunks::<u32>(0, 4)),
    });
    (
        empty.to_vec(),
        dsm.try_alloc_chunks::<u32>(3, 8).unwrap().len(),
    )
}

#[test]
fn zero_size_alloc_chunks_agrees_with_empty_alloc_on_lots() {
    assert_eq!(lots1(empty_allocs), (vec![v(EmptyAlloc); 3], 3));
}

#[test]
fn zero_size_alloc_chunks_agrees_with_empty_alloc_on_jiajia() {
    assert_eq!(jia1(empty_allocs), (vec![v(EmptyAlloc); 3], 3));
}

#[test]
#[should_panic(expected = "cannot allocate an empty")]
fn panicking_alloc_chunks_names_the_empty_alloc() {
    lots1(|dsm| {
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
    let (_, report) = run_cluster(opts, |dsm| {
        let objs: Vec<_> = (0..3).map(|_| dsm.alloc::<u32>(9 * 1024 / 4)).collect();
        for (k, o) in objs.iter().enumerate() {
            o.write(0, k as u32 + 1); // dirties; mapping the next evicts
        }
        let three = "three 9 KB objects through a 32 KB arena must swap";
        assert!(dsm.swapped_bytes() > 0, "{three}");
        objs.iter().for_each(|&o| dsm.free(o));
        // Tombstoned, not yet reclaimed: the images are still held.
        assert!(dsm.swapped_bytes() > 0, "reclamation is barrier-deferred");
        dsm.barrier();
        // Reclaimed: the store's capacity returns.
        assert_eq!(dsm.swapped_bytes(), 0, "freed images leave the store");
        let acct = dsm.swap_accounting();
        assert_eq!(acct.freed_bytes, 3 * 9 * 1024);
        let held = acct.resident_logical + acct.swapped_logical + acct.dematerialized_cum;
        let all = "resident + swapped + freed/invalidated == cumulative materialized";
        assert_eq!(held, acct.materialized_cum, "{all}");
        assert_eq!(acct.materialized, 0, "nothing lives after the frees");
    });
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
            dsm.alloc_named_placed::<u32>("grid", 64, Placement::Fixed(1));
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
        let errors = [
            variant(dsm.try_lookup::<u64>("grid")),
            variant(dsm.try_lookup::<u32>("absent")),
        ];
        assert_eq!(errors, [v(MISMATCH), v(NOT_FOUND)]);
        sum
    });
    assert_eq!(results, vec![7 * 64; 4]);
}

/// A staging request that is wrong twice — the name is taken *and* the
/// placement names a node that does not exist — is reported the same
/// way by every system: as the duplicate. (JIAJIA used to validate the
/// placement first and answer `BadPlacement`.)
fn doubly_bad<D: DsmApi<Error = DsmError>>(dsm: &D) -> [Result<(), DsmError>; 2] {
    let far = Placement::Fixed(9);
    dsm.alloc_named::<u32>("grid", 8);
    let taken = dsm.try_alloc_named_placed::<u32>("grid", 8, far);
    let other = dsm.try_alloc_named_placed::<u32>("other", 8, far);
    [taken, other]
}

#[test]
fn a_doubly_bad_named_request_gets_the_same_error_kind_on_all_three_systems() {
    let lots_x = ClusterOptions::new(1, LotsConfig::lots_x(64 * 1024), p4_fedora());
    let name = "grid".into();
    let want = [
        Err(DsmError::DuplicateName { name }),
        Err(DsmError::BadPlacement { requested: 9, n: 1 }),
    ];
    assert_eq!(lots1(doubly_bad), want, "lots");
    assert_eq!(run_cluster(lots_x, doubly_bad).0[0], want, "lots-x");
    assert_eq!(jia1(doubly_bad), want, "jiajia");
}

/// The lifecycle error table, driven through the public API on one
/// node: each row is a request and the error variant it got (`None`
/// if none). Every system holds the same directory and fences a freed
/// handle, so every row must agree across them.
fn directory_error_table<D: DsmApi<Error = DsmError>>(dsm: &D) -> Vec<Variant> {
    let far = Placement::Fixed(9);
    dsm.alloc_named::<u32>("grid", 8);
    let mut rows = vec![
        variant(dsm.try_lookup::<u32>("grid")),
        variant(dsm.try_alloc_named::<u32>("grid", 8)),
        variant(dsm.try_alloc_named::<u32>("grid", 0)),
        variant(dsm.try_alloc_named::<u32>("other", 0)),
        variant(dsm.try_alloc_named_placed::<u32>("other", 8, far)),
    ];
    dsm.barrier();
    let grid = dsm.lookup::<u32>("grid");
    rows.push(variant(dsm.try_alloc_named::<u32>("grid", 8)));
    rows.push(variant(dsm.try_lookup::<u64>("grid")));
    rows.push(variant(dsm.try_lookup::<u32>("absent")));
    rows.push(variant(dsm.try_free(grid.offset(4))));
    dsm.free(grid);
    rows.push(variant(dsm.try_lookup::<u32>("grid")));
    rows.push(variant(grid.try_read(0)));
    rows.push(variant(grid.try_write(0, 1)));
    rows.push(variant(grid.try_view(0..4)));
    dsm.barrier();
    rows.push(variant(dsm.try_lookup::<u32>("grid")));
    rows
}

#[test]
fn the_directory_error_table_is_the_same_on_all_three_systems() {
    let want = [
        NOT_FOUND,  // staged, not committed
        DUPLICATE,  // staged twice
        DUPLICATE,  // taken and empty
        EmptyAlloc, // empty
        PLACEMENT,  // outside the cluster
        DUPLICATE,  // committed twice
        MISMATCH,   // wrong element type
        NOT_FOUND,  // never allocated
        bad_free(), // free of an offset sub-slice
        FREED,      // lookup, freed this interval
        FREED,      // try_read through the freed handle
        FREED,      // try_write through the freed handle
        FREED,      // try_view through the freed handle
        NOT_FOUND,  // freed and reclaimed
    ]
    .map(v);
    let lots_x = ClusterOptions::new(1, LotsConfig::lots_x(64 * 1024), p4_fedora());
    assert_eq!(lots1(directory_error_table), want, "lots");
    assert_eq!(
        run_cluster(lots_x, directory_error_table).0[0],
        want,
        "lots-x"
    );
    assert_eq!(jia1(directory_error_table), want, "jiajia");
}

// ---------------------------------------------------------------------
// Lazy commit: zero-fills are skipped above each arena's dirty mark, so
// an allocation that lands on recycled space must still read zeros —
// on every system, mapping path and recovery path. A script's phase 1
// frees the ballast every node read; phase 2 allocates over it, and
// the sweep holds what those objects read to the model.
// ---------------------------------------------------------------------

/// The first script that allocates after freeing its ballast.
fn recycling() -> Script {
    (0..)
        .map(Script::random)
        .find(|s| s.phases.len() > 2 && !s.phases[2].allocs.is_empty())
        .expect("some seed recycles")
}

#[test]
fn recycled_extents_read_zero_on_every_mapping_and_recovery_path() {
    let striped = |p: Point| p.with(|p| p.lots.striping = Some(Striping::segments_of(2048)));
    // Right after the barrier that reclaimed the ballast.
    let crash =
        |p: Point| p.with(|p| p.faults = Point::at([0, 0, 0, 0, 0, 0, 3, 0, 0, 1]).cfg.faults);
    let lots = |bytes| Point::new(System::Lots, NODES, bytes);
    let lotsx = Point::new(System::LotsX, NODES, ROOMY);
    let points = [
        lots(ROOMY),
        lotsx.clone(),
        striped(lots(ROOMY)),
        striped(lotsx),
        crash(lots(ROOMY)),
        lots(TIGHT),
        striped(lots(TIGHT)),
        crash(lots(TIGHT)),
        // JIAJIA zeroes at reclaim instead of at allocation.
        Point::new(System::Jiajia, NODES, JIA_BYTES),
    ];
    let runs = check(&points, &recycling());
    for (p, run) in points.iter().zip(&runs) {
        let stats = &ran(run).stats;
        assert!(p.dmm_bytes > TIGHT || stats.swaps_in() > 0, "{p:?} no swap");
        assert_eq!(
            stats.rejoin_rounds(),
            p.faults.crash_node.iter().count() as u64,
            "{p:?}"
        );
    }
}

#[test]
fn recycled_extents_read_zero_across_restore() {
    // The replay re-verifies every sealed digest while its own fresh
    // arenas go through the same recycle pattern.
    let every = Some(lots::core::PersistConfig::every(2));
    let journaled = Point::new(System::Lots, NODES, TIGHT).with(|p| p.persist = every);
    check(&[journaled], &recycling());
}
