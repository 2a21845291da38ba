//! `NodeState` through its public surface, one node (or a handful
//! wired by hand) at a time, grouped by the module each test
//! exercises. The shared fixtures are in `tests/fixtures.rs`.

mod fixtures;

use fixtures::*;

use super::*;
use crate::config::{Placement, Striping, SwapPolicyKind};
use crate::object::{NamedAllocReq, HOME_PENDING};

// ----------------------------------------------------------------------
// The object table (`table.rs`, §3.2): registration, placement, the
// tombstone-then-reclaim lifecycle.
// ----------------------------------------------------------------------

#[test]
fn register_maps_eagerly_and_zero_fills() {
    let mut n = small_node(64 * 1024);
    let id = n.register_object(100).unwrap();
    assert_eq!(n.object_size(id), 100);
    assert_eq!(read_word(&mut n, id, 0), 0);
    assert!(matches!(n.ctl(id).mapping(), Mapping::Mapped { .. }));
}

#[test]
fn lots_x_rejects_overflow() {
    let mut n = node_with(LotsConfig::lots_x(32 * 1024));
    let _a = n.register_object(9 * 1024).unwrap();
    let r = n.register_object(9 * 1024);
    assert!(matches!(r, Err(DsmError::LotsXCapacity { .. })), "{r:?}");
}

#[test]
fn oversized_object_rejected() {
    let mut n = small_node(32 * 1024);
    let r = n.register_object(64 * 1024);
    assert!(matches!(r, Err(DsmError::ObjectTooLarge { .. })), "{r:?}");
}

#[test]
fn failed_registration_releases_its_slot() {
    let mut n = small_node(32 * 1024);
    let a = n.register_object(64).unwrap();
    let bytes_before = n.total_object_bytes();
    // A recoverable failure must not leak a phantom Live object
    // or burn an id: probe-and-recover allocation stays bounded.
    for _ in 0..3 {
        let r = n.register_object(64 * 1024);
        assert!(matches!(r, Err(DsmError::ObjectTooLarge { .. })));
    }
    assert_eq!(n.total_object_bytes(), bytes_before);
    assert_eq!(n.free_slots(), 1, "the failed slot awaits reuse");
    let b = n.register_object(64).unwrap();
    assert_eq!(b.0, a.0 + 1, "the released slot is reused");
    assert_eq!(n.object_count(), 2);
}

#[test]
fn free_tombstones_then_barrier_reclaims_and_reuses_the_slot() {
    let mut n = small_node(64 * 1024);
    let a = n.register_object(256).unwrap();
    let b = n.register_object(256).unwrap();
    write_words(&mut n, a, &[(0, 7)]);
    n.free_object(a, 256).unwrap();
    // Tombstoned: fenced off immediately, slot still consumed.
    let freed = Err(DsmError::UseAfterFree { alloc: a.into() });
    assert_eq!(n.begin_access_range(a, &(0..4), false, 1), freed);
    assert_eq!(n.free_object(a, 256), freed.map(|_| ()));
    assert_eq!(n.object_count(), 2);
    // The write never becomes a notice; the free rides the barrier.
    let notices = n.barrier_collect().unwrap();
    assert!(notices.is_empty(), "freed object publishes nothing");
    let (frees, named) = n.take_lifecycle();
    assert_eq!(frees, vec![a]);
    assert!(named.is_empty());
    n.barrier_finish(&[], &frees, &[], 1).unwrap();
    assert_eq!(n.free_slots(), 1);
    assert_eq!(n.ctl(a).life, Life::Free);
    // Reuse: the next registration takes the reclaimed id.
    let c = n.register_object(64).unwrap();
    assert_eq!(c, a, "lowest reclaimed slot is reused");
    assert_eq!(n.object_count(), 2);
    assert_eq!(read_word(&mut n, c, 0), 0, "reused slot is zero-filled");
    let _ = b;
}

#[test]
fn bad_free_rejects_size_mismatch() {
    let mut n = small_node(64 * 1024);
    let a = n.register_object(256).unwrap();
    let r = n.free_object(a, 128);
    assert!(matches!(r, Err(DsmError::BadFree { .. })), "{r:?}");
    assert_eq!(n.ctl(a).life, Life::Live);
}

#[test]
fn placement_resolves_homes() {
    let mut n = node_of(1, 4, LotsConfig::small(64 * 1024));
    let rr = n.register_object_placed(64, Placement::RoundRobin).unwrap();
    assert_eq!(n.home_of(rr), rr.0 as usize % 4);
    assert!(!n.ctl(rr).flag(HOME_PENDING));
    let fx = n.register_object_placed(64, Placement::Fixed(3)).unwrap();
    assert_eq!(n.home_of(fx), 3);
    let ft = n.register_object_placed(64, Placement::FirstTouch).unwrap();
    assert!(n.ctl(ft).flag(HOME_PENDING));
    // The barrier's written list assigns the real home.
    n.barrier_finish(&[(ft, 2)], &[], &[], 1).unwrap();
    assert_eq!(n.home_of(ft), 2);
    assert!(!n.ctl(ft).flag(HOME_PENDING));
}

#[test]
fn striped_registration_spreads_segment_homes() {
    let mut n = striped_node(0, 4, 256 * 1024, 1024);
    let id = n.register_object(10 * 1024).unwrap();
    let stripe = n.stripe_of(id).unwrap().clone();
    assert_eq!(stripe.children.len(), 10);
    assert_eq!(stripe.seg_bytes, 1024);
    // RoundRobin per segment: (parent + seg) % n.
    for (s, &c) in stripe.children.iter().enumerate() {
        let ctl = n.ctl(ObjectId(c));
        assert_eq!(ctl.home(), (id.0 as usize + s) % 4);
        assert_eq!(n.objects.parent(c as usize), Some((id.0, s as u32)));
        assert_eq!(ctl.size(), 1024);
    }
    // The parent never materializes; logical bytes count once.
    assert_eq!(n.ctl(id).mapping(), Mapping::Unmapped);
    assert_eq!(n.total_object_bytes(), 10 * 1024);
}

#[test]
fn small_objects_stay_unstriped_under_striping_config() {
    let mut n = striped_node(0, 4, 256 * 1024, 1024);
    let id = n.register_object(1024).unwrap();
    assert!(n.stripe_of(id).is_none());
    assert_eq!(read_word(&mut n, id, 0), 0);
}

#[test]
fn fixed_placement_out_of_range_errors_at_alloc_time() {
    let mut n = striped_node(0, 4, 256 * 1024, 1024);
    let r = n.register_object_placed(64, Placement::Fixed(4));
    assert_eq!(
        r,
        Err(DsmError::BadPlacement { requested: 4, n: 4 }),
        "no panic, no consumed slot"
    );
    assert_eq!(n.object_count(), 0);
    // Striped path validates too, without leaking child slots.
    let r = n.register_object_placed(8 * 1024, Placement::Fixed(7));
    assert_eq!(r, Err(DsmError::BadPlacement { requested: 7, n: 4 }));
    assert_eq!(n.object_count(), 0);
    // Staged named allocations validate eagerly at staging time.
    let r = n.stage_named(NamedAllocReq {
        name: "bad".into(),
        len: 16,
        placement: Placement::Fixed(99),
        ..NamedAllocReq::default()
    });
    let bad = DsmError::BadPlacement {
        requested: 99,
        n: 4,
    };
    assert_eq!(r, Err(bad));
}

#[test]
fn freeing_a_striped_parent_reclaims_the_whole_family() {
    let mut n = striped_node(0, 1, 256 * 1024, 1024);
    let id = n.register_object(4 * 1024).unwrap();
    let slots = n.object_count();
    assert_eq!(slots, 5, "parent + 4 children");
    n.free_object(id, 4 * 1024).unwrap();
    assert!(matches!(
        n.begin_access_range(id, &(0..4), false, 1),
        Err(DsmError::UseAfterFree { .. })
    ));
    let (frees, _) = n.take_lifecycle();
    assert_eq!(frees.len(), 5);
    let _ = n.barrier_collect().unwrap();
    n.barrier_finish(&[], &frees, &[], 1).unwrap();
    assert_eq!(n.free_slots(), 5);
    assert_eq!(n.stats.objects_freed(), 1, "one free event per call");
    assert_eq!(n.swap_accounting().freed_bytes, 4 * 1024);
    // Reuse: a fresh striped alloc reclaims the same slots.
    let id2 = n.register_object(4 * 1024).unwrap();
    assert_eq!(n.object_count(), 5);
    let _ = id2;
}

#[test]
fn named_commit_and_lookup_roundtrip() {
    let mut n = small_node(64 * 1024);
    n.stage_named(NamedAllocReq {
        name: "grid".into(),
        bytes: 64,
        elem_size: 4,
        len: 16,
        placement: Placement::RoundRobin,
        placement_explicit: false,
    })
    .unwrap();
    // Duplicate staging rejected before commit.
    assert!(matches!(
        n.stage_named(NamedAllocReq {
            name: "grid".into(),
            bytes: 4,
            elem_size: 4,
            len: 1,
            placement: Placement::RoundRobin,
            placement_explicit: false,
        }),
        Err(DsmError::DuplicateName { .. })
    ));
    // Not visible before the barrier.
    assert!(matches!(
        n.lookup_named("grid", 4),
        Err(DsmError::NameNotFound { .. })
    ));
    let (frees, named) = n.take_lifecycle();
    n.barrier_finish(&[], &frees, &named, 1).unwrap();
    let (id, len) = n.lookup_named("grid", 4).unwrap();
    assert_eq!(len, 16);
    assert_eq!(n.object_size(id), 64);
    // Wrong element size is a typed-lookup error.
    assert!(matches!(
        n.lookup_named("grid", 8),
        Err(DsmError::NameTypeMismatch { .. })
    ));
    // Freeing the named object removes the directory entry.
    n.free_object(id, 64).unwrap();
    let (frees, _) = n.take_lifecycle();
    n.barrier_finish(&[], &frees, &[], 2).unwrap();
    assert!(matches!(
        n.lookup_named("grid", 4),
        Err(DsmError::NameNotFound { .. })
    ));
}

// ----------------------------------------------------------------------
// Mapping and swapping (`mapping.rs`, §3.3): eviction, pinning, swap
// images, read-ahead, crash-rejoin.
// ----------------------------------------------------------------------

#[test]
fn swap_out_and_back_preserves_data() {
    // DMM of 32 KB: lower half 16 KB fits one 9 KB object at a time,
    // so every access to the other object swaps.
    let mut n = small_node(32 * 1024);
    let a = n.register_object(9 * 1024).unwrap();
    let b = n.register_object(9 * 1024).unwrap();
    write_words(&mut n, a, &[(0, 111), (5, 55)]);
    write_words(&mut n, b, &[(0, 222)]); // maps b, evicting dirty a
    assert!(n.stats.swaps_out() >= 1, "a out at b's mapping");
    assert_eq!(read_word(&mut n, a, 0), 111);
    assert_eq!(read_word(&mut n, a, 5), 55);
    assert!(n.stats.swaps_in() >= 1);
    assert_eq!(read_word(&mut n, b, 0), 222);
    assert_eq!(read_word(&mut n, a, 1), 0, "untouched words stay zero");
    // Dirty evictions wrote to disk once each; the later read-only
    // crossings re-evict *clean* copies, which skip the disk write
    // ("every object is swapped out once", §4.3).
    assert_eq!(n.stats.swaps_out(), 2);
    assert!(n.stats.swaps_in() >= 3);
}

#[test]
fn twin_survives_swap_roundtrip() {
    let mut n = small_node(32 * 1024);
    let a = n.register_object(9 * 1024).unwrap();
    let b = n.register_object(9 * 1024).unwrap();
    write_words(&mut n, a, &[(3, 9)]);
    write_words(&mut n, b, &[(0, 1)]); // evicts dirty a with twin
    let _ = read_word(&mut n, a, 3); // brings a back
    let notices = n.barrier_collect().unwrap();
    assert_eq!(notices.len(), 2);
    // Pretend the plan made us a sender for a: its diff must be
    // computed against the twin that went through the disk.
    n.barrier_prepare(&[(0, a, 0)], 0).unwrap();
    let diff_a = n.cached_diff(a);
    let words: Vec<(u32, u32)> = diff_a.iter_words().collect();
    assert_eq!(words, vec![(3, 9)]);
}

#[test]
fn pinned_objects_are_not_evicted() {
    let mut n = small_node(32 * 1024);
    let a = n.register_object(9 * 1024).unwrap();
    let b = n.register_object(9 * 1024).unwrap();
    // One statement touching both: the second mapping may not evict
    // the first (it is pinned), so there is no room and the access
    // must fail with the §5 condition.
    n.enter_stmt();
    let _ = read_word(&mut n, a, 0);
    let r = n.begin_access_range(b, &(0..4), false, 1);
    n.exit_stmt();
    assert!(matches!(r, Err(DsmError::OutOfDmm { .. })), "{r:?}");
    // Outside the statement, eviction is allowed again.
    assert_eq!(read_word(&mut n, b, 0), 0);
}

#[test]
fn lru_evicts_least_recent() {
    let mut n = small_node(64 * 1024); // lower half 32 KB: two 12 KB fit
    let a = n.register_object(12 * 1024).unwrap();
    let b = n.register_object(12 * 1024).unwrap();
    // No room left: c stays lazily unmapped (mmap-like alloc).
    let c = n.register_object(12 * 1024).unwrap();
    assert!(matches!(n.ctl(c).mapping(), Mapping::Unmapped));
    // First touch of c maps it, evicting the LRU (a: lowest stamp).
    let _ = read_word(&mut n, c, 0);
    assert!(matches!(n.ctl(a).mapping(), Mapping::OnDisk));
    assert!(matches!(n.ctl(b).mapping(), Mapping::Mapped { .. }));
    // Touch b, then a again: the LRU victim is now c.
    let _ = read_word(&mut n, b, 0);
    let _ = read_word(&mut n, a, 0);
    assert!(matches!(n.ctl(c).mapping(), Mapping::OnDisk));
    assert!(matches!(n.ctl(b).mapping(), Mapping::Mapped { .. }));
}

#[test]
fn swap_accounting_invariant_holds_through_churn() {
    let mut n = small_node(32 * 1024);
    let a = n.register_object(9 * 1024).unwrap();
    let b = n.register_object(9 * 1024).unwrap();
    write_words(&mut n, a, &[(0, 1)]);
    write_words(&mut n, b, &[(0, 2)]); // evicts a
                                       // resident + swapped == allocated-and-materialized
    let acct = n.swap_accounting();
    assert_eq!(
        acct.resident_logical + acct.swapped_logical,
        acct.materialized
    );
    assert_eq!(acct.swapped_logical, 9 * 1024);
    // The dirty eviction wrote a compressed image: actual store
    // bytes are far below the logical 9 KB (constant-ish data).
    assert!(acct.store_resident > 0);
    assert!(acct.store_resident < acct.swapped_logical);
    let _ = read_word(&mut n, a, 0); // swap b out, a back in
    let acct = n.swap_accounting();
    assert_eq!(
        acct.resident_logical + acct.swapped_logical,
        acct.materialized
    );
}

#[test]
fn batched_eviction_frees_multiple_victims_in_one_trip() {
    let mut cfg = LotsConfig::small(64 * 1024);
    cfg.swap.batch_evict = 4;
    let mut n = node_with(cfg);
    // Lower half 32 KB: four 8001-byte mediums fit (rounded to
    // 8008); mapping a fifth evicts a whole batch of four.
    let objs: Vec<ObjectId> = (0..5).map(|_| n.register_object(8001).unwrap()).collect();
    for (k, &o) in objs.iter().take(4).enumerate() {
        write_words(&mut n, o, &[(0, k as u32 + 1)]);
    }
    let _ = read_word(&mut n, objs[4], 0);
    assert_eq!(n.stats.swaps_out(), 4, "one trip evicted the batch");
    assert_eq!(n.stats.swap_batches(), 1);
    for (k, &o) in objs.iter().take(4).enumerate() {
        assert_eq!(read_word(&mut n, o, 0), k as u32 + 1);
    }
}

#[test]
fn free_of_swapped_out_object_drops_the_disk_image() {
    let mut n = small_node(32 * 1024);
    let a = n.register_object(9 * 1024).unwrap();
    let b = n.register_object(9 * 1024).unwrap();
    write_words(&mut n, a, &[(0, 1)]);
    write_words(&mut n, b, &[(0, 2)]); // evicts dirty a to disk
    assert!(matches!(n.ctl(a).mapping(), Mapping::OnDisk));
    let store_before = n.swapped_bytes();
    assert!(store_before > 0);
    n.free_object(a, 9 * 1024).unwrap();
    let (frees, _) = n.take_lifecycle();
    let _ = n.barrier_collect().unwrap();
    n.barrier_finish(&[(b, 0)], &frees, &[], 1).unwrap();
    assert_eq!(n.swapped_bytes(), 0, "freed image leaves the store");
    let acct = n.swap_accounting();
    assert_eq!(acct.freed_bytes, 9 * 1024);
    assert_eq!(
        acct.resident_logical + acct.swapped_logical + acct.dematerialized_cum,
        acct.materialized_cum
    );
    assert_eq!(n.stats.objects_freed(), 1);
}

#[test]
fn single_invalidations_leave_the_frag_gauges_current() {
    // Write-invalidate drops one remote copy...
    let mut n = small_node(32 * 1024);
    let a = n.register_object(9 * 1024).unwrap();
    let free_before = n.stats.dmm_free_bytes();
    n.objects[a.0 as usize].set_home(1);
    assert_eq!(n.wi_invalidate(&[(a, 1)]).unwrap(), []);
    assert_eq!(n.ctl(a).mapping(), Mapping::Stale);
    assert!(n.stats.dmm_free_bytes() > free_before);
    assert_gauges_current(&n);
    // ... and so does an eviction: mapping c swaps b out.
    let b = n.register_object(9 * 1024).unwrap();
    write_words(&mut n, b, &[(0, 1)]);
    let c = n.register_object(9 * 1024).unwrap();
    write_words(&mut n, c, &[(0, 2)]);
    assert!(n.stats.swaps_out() >= 1);
    assert_gauges_current(&n);
}

#[test]
fn read_ahead_prefetches_the_strided_next_object() {
    let mut cfg = LotsConfig::small(32 * 1024);
    cfg.swap.read_ahead = true;
    let mut n = node_with(cfg);
    // Three 9 KB objects through a 16 KB lower half: streaming
    // over them swaps constantly with stride 1.
    let objs: Vec<ObjectId> = (0..3)
        .map(|_| n.register_object(9 * 1024).unwrap())
        .collect();
    for pass in 0..3u32 {
        for (k, &o) in objs.iter().enumerate() {
            write_words(&mut n, o, &[(1, pass + k as u32)]);
        }
    }
    assert!(n.stats.prefetch_hits() > 0, "streaming hits the read-ahead");
    for (k, &o) in objs.iter().enumerate() {
        assert_eq!(read_word(&mut n, o, 1), 2 + k as u32);
    }
}

#[test]
fn striped_scan_prefetches_next_segment() {
    // dmm 32 KB: lower half 16 KB holds one 9 KB segment at a
    // time, so a sequential scan of the striped object swaps per
    // segment; the (parent, seg) stride predictor must hit.
    let mut cfg = LotsConfig::small(32 * 1024).with_striping(Striping::segments_of(9 * 1024));
    cfg.swap.read_ahead = true;
    let mut n = node_with(cfg);
    let id = n.register_object(6 * 9 * 1024).unwrap();
    for pass in 0..3u32 {
        for s in 0..6usize {
            let at = s * 9 * 1024;
            let range = at..at + 4;
            write_range(&mut n, id, &range, 4, &(pass + s as u32).to_le_bytes());
        }
    }
    assert!(n.stats.prefetch_hits() > 0, "a scan hits the read-ahead");
    for s in 0..6usize {
        let at = s * 9 * 1024;
        let range = at..at + 4;
        assert_eq!(read_range(&mut n, id, &range), (2 + s as u32).to_le_bytes());
    }
}

// ----------------------------------------------------------------------
// DMM offsets are reused; bytes are not. Each test fills an object
// with 0xFF, recycles its extent, and checks that the next tenant of
// the same offset reads zeros (or its own swap image), never the
// previous tenant — whichever path handed the extent out.
// ----------------------------------------------------------------------

#[test]
fn eager_map_onto_a_recycled_extent_reads_zero() {
    let striping = Striping::segments_of(8 * 1024);
    let (lots, lots_x) = (LotsConfig::small(256 << 10), LotsConfig::lots_x(256 << 10));
    for (what, cfg) in [
        ("lots", lots.clone()),
        ("lots-x", lots_x.clone()),
        ("lots striped", lots.with_striping(striping)),
        ("lots-x striped", lots_x.with_striping(striping)),
    ] {
        let mut n = node_with(cfg);
        let a = n.register_object(40 * 1024).unwrap();
        assert_eq!(n.stripe_of(a).is_some(), what.ends_with("striped"));
        fill_ff(&mut n, a);
        let old = extents(&n, a);
        free_and_reclaim(&mut n, a, 1);
        let b = n.register_object(40 * 1024).unwrap();
        assert_eq!(extents(&n, b), old, "{what}: same extents reused");
        assert!(
            read_all(&mut n, b).iter().all(|&x| x == 0),
            "{what}: recycled extent must read zero"
        );
    }
}

#[test]
fn lazy_map_onto_a_recycled_extent_reads_zero() {
    // 64 KB DMM area, 32 KB lower half: a and b fill it, c stays
    // lazily unmapped. Recycling a's extent while c is untouched
    // sends c's first access through the `Unmapped` arm of try_map.
    let mut n = small_node(64 * 1024);
    let a = n.register_object(12 * 1024).unwrap();
    let _b = n.register_object(12 * 1024).unwrap();
    let c = n.register_object(12 * 1024).unwrap();
    assert_eq!(n.ctl(c).mapping(), Mapping::Unmapped);
    fill_ff(&mut n, a);
    let old = n.ctl(a).offset();
    free_and_reclaim(&mut n, a, 1);
    assert!(read_all(&mut n, c).iter().all(|&x| x == 0));
    assert_eq!(n.ctl(c).offset(), old, "c mapped onto a's old extent");
    assert_eq!(n.stats.swaps_out(), 0, "no eviction was needed");
}

#[test]
fn swap_in_onto_recycled_space_restores_data_and_a_zero_twin() {
    // Lower half 16 KB: one 9 KB object mapped at a time.
    let mut n = small_node(32 * 1024);
    // Interval 1: a gets dirty data *and* a dirty twin — the second
    // write finds the first already twinned, so only a
    // sealed-then-rewritten object has non-zero twin bytes.
    let a = n.register_object(9 * 1024).unwrap();
    fill_ff(&mut n, a);
    seal(&mut n, &[(a, 0)], 1);
    write_words(&mut n, a, &[(0, 1)]); // twin := the 0xFF image
    let old = n.ctl(a).offset();
    free_and_reclaim(&mut n, a, 2);
    // Interval 3: b takes the extent, is written (all-zero twin),
    // evicted dirty by c, and swapped back in onto the same space.
    let b = n.register_object(9 * 1024).unwrap();
    let c = n.register_object(9 * 1024).unwrap();
    assert_eq!(n.ctl(b).offset(), old, "b recycles a's extent");
    write_words(&mut n, b, &[(3, 9)]);
    let _ = read_word(&mut n, c, 0); // evicts b: data + ImageTwin::Zero
    assert_eq!(n.ctl(b).mapping(), Mapping::OnDisk);
    assert_eq!(read_word(&mut n, b, 3), 9);
    assert_eq!(n.ctl(b).offset(), old, "swapped back onto the extent");
    assert_eq!(read_word(&mut n, b, 4), 0);
    // The twin the barrier diffs against must be all zeros again:
    // stale 0xFF twin bytes would turn every untouched word into a
    // spurious "changed to 0" entry.
    let _ = n.barrier_collect().unwrap();
    n.barrier_prepare(&[(0, b, 0)], 0).unwrap();
    let words: Vec<(u32, u32)> = n.cached_diff(b).iter_words().collect();
    assert_eq!(words, vec![(3, 9)]);
}

#[test]
fn crash_rejoin_keeps_recycled_extents_clean() {
    let mut n = small_node(64 * 1024);
    let a = n.register_object(12 * 1024).unwrap();
    let keep = n.register_object(12 * 1024).unwrap();
    fill_ff(&mut n, a);
    write_words(&mut n, keep, &[(7, 77)]);
    let old = n.ctl(a).offset();
    free_and_reclaim(&mut n, a, 1);
    // The crash checkpoints the surviving master to the swap store
    // and empties the DMM area.
    let summary = n.crash_rejoin().unwrap();
    assert_eq!(summary.masters_checkpointed, 1);
    assert_eq!(n.mapped_bytes(), 0);
    let b = n.register_object(12 * 1024).unwrap();
    assert_eq!(n.ctl(b).offset(), old, "b lands on a's dirty extent");
    assert!(read_all(&mut n, b).iter().all(|&x| x == 0));
    assert_eq!(
        read_word(&mut n, keep, 7),
        77,
        "master rebuilt from its image"
    );
    assert_eq!(read_word(&mut n, keep, 8), 0);
}

// ----------------------------------------------------------------------
// The access path (`access.rs`, §3.3/§4.2): one range run over the
// segments a range covers — one piece per segment, staged only where
// an element straddles two.
// ----------------------------------------------------------------------

#[test]
fn striped_range_access_pins_and_runs_in_place_across_segments() {
    let mut n = striped_node(0, 1, 256 * 1024, 1024);
    let id = n.register_object(4 * 1024).unwrap();
    // Write a spanning range in one guard: bytes 1020..1032 cross
    // the seg 0 / seg 1 boundary.
    let range = 1020..1032;
    let pieces = write_range(&mut n, id, &range, 4, &[7u8; 12]);
    assert_eq!(pieces, vec![(0, 4), (4, 8)], "one piece per segment");
    // Both covered segments got twins and write notices.
    let twinned: Vec<bool> = (n.segments(&id).iter())
        .map(|&c| n.objects.twin(c as usize).is_some())
        .collect();
    assert_eq!(twinned, [true, true, false, false]);
    // Read back through a fresh guard.
    assert_eq!(read_range(&mut n, id, &range), vec![7u8; 12]);
    // Within-segment ranges run in place.
    assert_eq!(read_range(&mut n, id, &(0..8)), vec![0u8; 8]);
}

#[test]
fn straddling_elements_take_the_staging_path() {
    // 1028-byte segments: 8-byte element 128 occupies bytes
    // 1024..1032, half in segment 0 and half in segment 1, so a
    // spanning range must reach `f` as one contiguous piece.
    let mut n = striped_node(0, 1, 256 * 1024, 1028);
    let id = n.register_object(4 * 1028).unwrap();
    let range = 1016..2064; // elements 127..258: segments 0, 1, 2
    let data: Vec<u8> = (0..range.len()).map(|i| (i % 251) as u8 + 1).collect();
    let pieces = write_range(&mut n, id, &range, 8, &data);
    assert_eq!(pieces, vec![(0, range.len())], "gathered into one piece");
    // The scatter landed every byte in its segment: read it back
    // piecewise (4-byte words never straddle) and inside one segment.
    assert_eq!(read_range(&mut n, id, &range), data);
    let inner = 1032..1040;
    assert_eq!(read_range(&mut n, id, &inner), data[16..24]);
    // A range inside one segment never stages, whatever `elem` is.
    let pieces = write_range(&mut n, id, &inner, 8, &[9u8; 8]);
    assert_eq!(pieces, vec![(0, 8)]);
}

// ----------------------------------------------------------------------
// Sharing: replies, fetched copies and twins are handles on one
// immutable buffer until somebody writes, and nobody's write reaches
// anybody else's handle.
// ----------------------------------------------------------------------

#[test]
fn a_served_reply_is_stable_across_the_homes_later_writes() {
    let (mut nodes, a) = cluster_with_object(2, 64);
    let home = &mut nodes[0];
    write_words(home, a, &[(0, 1), (1, 2)]);
    let (reply, _) = home.serve_object(a).unwrap();
    let served = reply.to_vec();
    write_words(home, a, &[(0, 10)]);
    assert_eq!(reply, served[..], "after a write");
    home.apply_lock_updates(&[(a, vec![(1, 1, 20)])]);
    assert_eq!(reply, served[..], "after a lock update (data and twin)");
    let diff = WordDiff::from_words(&[(2, 30)]);
    home.apply_remote_diff(a, &diff, 0).unwrap();
    assert_eq!(reply, served[..], "after a remote diff");
    seal(home, &[(a, 0)], 1);
    assert_eq!(reply, served[..], "after the barrier");
    let got: Vec<u32> = (0..3).map(|w| read_word(home, a, w)).collect();
    assert_eq!(got, vec![10, 20, 30]);
}

#[test]
fn a_fetched_copy_is_adopted_and_private() {
    let (mut nodes, a) = cluster_with_object(3, 64);
    let [home, b, c] = &mut nodes[..] else {
        unreachable!()
    };
    write_words(home, a, &[(0, 1)]);
    let _ = home.barrier_collect().unwrap();
    for n in [&mut *home, &mut *b, &mut *c] {
        n.barrier_finish(&[(a, 0)], &[], &[], 1).unwrap();
    }
    let reply = fetch(b, home, a);
    let adopted = b.objects.data(a.0 as usize).expect("installed").as_ptr();
    assert_eq!(adopted, reply.as_ptr(), "adopted, not copied");
    drop(reply);
    let _ = fetch(c, home, a);
    // The home's writes stay at the home ...
    write_words(home, a, &[(0, 2)]);
    assert_eq!(read_word(b, a, 0), 1);
    // ... and a reader's writes reach neither the home nor a third
    // node holding the same version.
    write_words(b, a, &[(0, 3), (1, 4)]);
    assert_eq!((read_word(home, a, 0), read_word(home, a, 1)), (2, 0));
    assert_eq!((read_word(c, a, 0), read_word(c, a, 1)), (1, 0));
    assert_eq!((read_word(b, a, 0), read_word(b, a, 1)), (3, 4));
}

#[test]
fn pending_updates_survive_a_fetch() {
    let (mut nodes, a) = cluster_with_object(2, 64);
    let [home, b] = &mut nodes[..] else {
        unreachable!()
    };
    write_words(home, a, &[(2, 5)]);
    seal(home, &[(a, 0)], 1);
    b.barrier_finish(&[(a, 0)], &[], &[], 1).unwrap();
    // A grant's updates for a stale copy are parked, and land on
    // the fetched bytes rather than under them.
    b.apply_lock_updates(&[(a, vec![(3, 1, 77)])]);
    let reply = fetch(b, home, a);
    assert_eq!((read_word(b, a, 2), read_word(b, a, 3)), (5, 77));
    assert_eq!(&reply[12..16], &[0u8; 4], "the home's version is untouched");
}

#[test]
fn untouched_objects_and_twins_hold_no_allocation() {
    // Lower half 16 KB: one 9 KB object mapped at a time.
    let mut n = small_node(32 * 1024);
    let a = n.register_object(9 * 1024).unwrap();
    assert!(n.ctl(a).offset().is_some(), "eagerly mapped");
    assert!(n.objects.data(a.0 as usize).is_none(), "nothing allocated");
    // Journaling the untouched master writes zeros.
    let content = crate::cluster::Journaled::persist_written_content(&n, &[(a, 0)]).unwrap();
    assert_eq!(content, vec![(a.0, vec![0u8; 9 * 1024])]);
    assert!(n.objects.data(a.0 as usize).is_none());
    // Swapping it out and back in still reads zeros.
    let b = n.register_object(9 * 1024).unwrap();
    write_words(&mut n, b, &[(1, 6)]); // maps b, evicting a
    assert_eq!(n.ctl(a).mapping(), Mapping::OnDisk);
    let twin = n.objects.twin(b.0 as usize).expect("b was written");
    assert!(twin.peek().is_none(), "the twin of a first write is zero");
    // Reading a evicts b, whose zero twin goes through the image
    // (`ImageTwin::Zero`) and comes back as nothing.
    assert!(read_all(&mut n, a).iter().all(|&x| x == 0));
    assert_eq!(read_word(&mut n, b, 1), 6);
    let twin = n.objects.twin(b.0 as usize).expect("interval still open");
    assert!(twin.peek().is_none());
    let _ = n.barrier_collect().unwrap();
    n.barrier_prepare(&[(0, b, 0)], 0).unwrap();
    let words: Vec<(u32, u32)> = n.cached_diff(b).iter_words().collect();
    assert_eq!(words, vec![(1, 6)]);
}

#[test]
fn reading_a_never_written_object_allocates_nothing() {
    // Larger than the zero block, read as 12-byte elements: the zeros
    // come in several pieces, each a whole number of elements.
    let mut n = small_node(1 << 20);
    let a = n.register_object(12 << 14).unwrap();
    let range = 0..n.object_size(a);
    ready(&mut n, a, &range, false, 1);
    let (mut at, mut pieces) = (0, 0);
    n.range_read(a, &range, 12, |from, b| {
        assert!(from == at && b.len() % 12 == 0 && b.iter().all(|&x| x == 0));
        (at, pieces) = (at + b.len(), pieces + 1);
    });
    assert!(at == range.end && pieces > 1, "{pieces} pieces to {at}");
    assert!(n.objects.data(a.0 as usize).is_none(), "the read allocated");
}

// ----------------------------------------------------------------------
// Coherence (`coherence.rs`, §3.4/§3.5): CS twins and release updates,
// parked grant updates, barrier diffs and the lock-era word guard,
// invalidation, published segment versions.
// ----------------------------------------------------------------------

#[test]
fn cs_twin_yields_release_updates() {
    let mut n = small_node(64 * 1024);
    let a = n.register_object(256).unwrap();
    write_words(&mut n, a, &[(0, 1)]); // pre-CS write
    n.enter_cs(7);
    write_words(&mut n, a, &[(2, 42)]);
    let updates = n.exit_cs(7, 1);
    assert_eq!(updates.len(), 1);
    let (id, diff) = &updates[0];
    assert_eq!(*id, a);
    let words: Vec<(u32, u32)> = diff.iter_words().collect();
    assert_eq!(words, [(2, 42)], "only CS-era writes in release updates");
}

#[test]
fn lock_updates_apply_to_arena_and_twin() {
    let mut n = small_node(64 * 1024);
    let a = n.register_object(64).unwrap();
    write_words(&mut n, a, &[(0, 5)]); // creates twin
    n.apply_lock_updates(&[(a, vec![(3, 1, 77)])]);
    assert_eq!(read_word(&mut n, a, 3), 77);
    // Word 3 came from a grant, not a local write: interval diff
    // must not contain it.
    let _ = n.barrier_collect().unwrap();
    n.barrier_prepare(&[(0, a, 0)], 0).unwrap();
    let words: Vec<(u32, u32)> = n.cached_diff(a).iter_words().collect();
    assert_eq!(words, vec![(0, 5)]);
}

#[test]
fn pending_updates_apply_on_materialize() {
    let mut n = small_node(32 * 1024);
    let a = n.register_object(9 * 1024).unwrap();
    let b = n.register_object(9 * 1024).unwrap();
    let _ = read_word(&mut n, b, 0); // a evicted to disk
    assert!(matches!(n.ctl(a).mapping(), Mapping::OnDisk));
    n.apply_lock_updates(&[(a, vec![(4, 1, 99)])]);
    assert_eq!(read_word(&mut n, a, 4), 99, "applied on swap-in");
}

#[test]
fn barrier_finish_invalidate_and_keep() {
    let mut n = node_of(1, 4, LotsConfig::small(64 * 1024));
    let a = n.register_object(64).unwrap(); // home = 0
    let b = n.register_object(64).unwrap(); // home = 1 (me)
    write_words(&mut n, a, &[(0, 1)]);
    write_words(&mut n, b, &[(0, 2)]);
    // a migrates to node 2; b stays home here.
    seal(&mut n, &[(a, 2), (b, 1)], 1);
    assert_eq!(n.ctl(a).mapping(), Mapping::Stale);
    assert_eq!(n.ctl(a).home(), 2);
    assert!(n.ctl(b).locally_valid());
    assert!(n.ctl(b).offset().is_some());
    assert!(n.objects.twin(b.0 as usize).is_none());
}

#[test]
fn barrier_finish_leaves_the_frag_gauges_current() {
    // Node 1 of 4 wrote 160 objects (each a region block of its
    // own, not a slab slot); the 120 homed elsewhere are
    // invalidated in one pass, which refreshes the gauges once, at
    // its end.
    const BYTES: usize = 8 * 1024;
    let mut n = node_of(1, 4, LotsConfig::small(4 << 20));
    let written: Vec<(ObjectId, NodeId)> = (0..160)
        .map(|_| {
            let id = n.register_object(BYTES).unwrap();
            write_words(&mut n, id, &[(0, 7)]);
            (id, n.ctl(id).home())
        })
        .collect();
    let free_before = n.stats.dmm_free_bytes();
    seal(&mut n, &written, 1);
    let dropped = written.iter().filter(|&&(_, home)| home != 1).count();
    assert!(dropped >= 100, "{dropped} objects invalidated");
    let freed = n.stats.dmm_free_bytes() - free_before;
    assert!(freed >= (BYTES * dropped) as u64, "freed {freed} bytes");
    assert_gauges_current(&n);
}

#[test]
fn barrier_exit_over_a_dropped_copy_only_moves_the_home() {
    for policy in SwapPolicyKind::ALL {
        let mut cfg = LotsConfig::small(64 * 1024);
        cfg.swap.policy = policy;
        let mut n = node_of(1, 4, cfg);
        let a = n.register_object(8 * 1024).unwrap(); // home = 0
        write_words(&mut n, a, &[(0, 1)]);
        seal(&mut n, &[(a, 0)], 1);
        let before = footprint(&n);
        // Twice: the second pass over the same list changes nothing.
        for _ in 0..2 {
            n.barrier_finish(&[(a, 2)], &[], &[], 2).unwrap();
            let (mapping, home) = (n.ctl(a).mapping(), n.ctl(a).home());
            assert_eq!((mapping, home), (Mapping::Stale, 2), "{policy:?}");
            assert_eq!(footprint(&n), before, "{policy:?}");
        }
    }
}

#[test]
fn remote_diff_respects_ts_guard() {
    let mut n = small_node(64 * 1024);
    let a = n.register_object(64).unwrap();
    // Home wrote word 0 under ts 5 (guard seeded in prepare: this
    // node is home of a multi-writer object it also wrote).
    n.enter_cs(1);
    write_words(&mut n, a, &[(0, 50)]);
    let _ = n.exit_cs(1, 5);
    let _ = n.barrier_collect().unwrap();
    n.barrier_prepare(&[(1, a, 0)], 0).unwrap();
    // A remote writer with older ts must not clobber word 0 but may
    // write word 1.
    let older = WordDiff::from_words(&[(0, 999), (1, 111)]);
    n.apply_remote_diff(a, &older, 3).unwrap();
    assert_eq!(read_word(&mut n, a, 0), 50);
    assert_eq!(read_word(&mut n, a, 1), 111);
    // A newer ts wins.
    let newer = WordDiff::from_words(&[(0, 1000)]);
    n.apply_remote_diff(a, &newer, 9).unwrap();
    assert_eq!(read_word(&mut n, a, 0), 1000);
}

#[test]
fn barrier_only_diffs_around_a_lock_era_diff_keep_last_cs_writer() {
    let mut n = small_node(64 * 1024);
    let a = n.register_object(64).unwrap();
    // ts 0 first: applied whole, nothing recorded.
    let plain = WordDiff::from_words(&[(0, 1), (1, 2)]);
    n.apply_remote_diff(a, &plain, 0).unwrap();
    assert_eq!(n.guarded_words(), 0);
    // A lock-era diff overwrites word 1 and guards what it wrote.
    let locked = WordDiff::from_words(&[(1, 40), (2, 41)]);
    n.apply_remote_diff(a, &locked, 4).unwrap();
    assert_eq!(n.guarded_words(), 2);
    // ts 0 afterwards: loses on the guarded word, wins elsewhere,
    // and still records nothing.
    let late = WordDiff::from_words(&[(0, 7), (1, 8), (3, 9)]);
    n.apply_remote_diff(a, &late, 0).unwrap();
    let got: Vec<u32> = (0..4).map(|w| read_word(&mut n, a, w)).collect();
    assert_eq!(got, vec![7, 40, 41, 9]);
    assert_eq!(n.guarded_words(), 2);
}

#[test]
fn cs_words_survive_a_barrier_only_diff_that_reaches_the_home_first() {
    // The quickstart lost-update case: the home's CS write is
    // guarded from `exit_cs` on, so a remote interval diff that
    // never saw a lock (ts 0) and lands before the home's own
    // barrier_prepare cannot roll the word back.
    let mut n = small_node(64 * 1024);
    let a = n.register_object(64).unwrap();
    n.enter_cs(1);
    write_words(&mut n, a, &[(0, 50)]);
    let _ = n.exit_cs(1, 2);
    let early = WordDiff::from_words(&[(0, 999), (1, 5)]);
    n.apply_remote_diff(a, &early, 0).unwrap();
    let _ = n.barrier_collect().unwrap();
    n.barrier_prepare(&[(1, a, 0)], 0).unwrap();
    assert_eq!(read_word(&mut n, a, 0), 50);
    assert_eq!(read_word(&mut n, a, 1), 5);
}

#[test]
fn a_post_release_write_survives_an_older_diff_that_reaches_the_home_first() {
    // Released at ts 2, then written outside any CS: the write follows
    // every CS write up to ts 2, so a ts-1 diff landing before the
    // home's own barrier_prepare must not roll it back.
    let mut n = small_node(64 * 1024);
    let a = n.register_object(64).unwrap();
    n.enter_cs(1);
    let _ = n.exit_cs(1, 2);
    write_words(&mut n, a, &[(0, 22)]);
    assert_eq!(n.write_ts_of(a), 3);
    let _ = n.barrier_collect().unwrap();
    n.apply_remote_diff(a, &WordDiff::from_words(&[(0, 11), (1, 5)]), 1)
        .unwrap();
    n.barrier_prepare(&[(1, a, 0)], 0).unwrap();
    assert_eq!((read_word(&mut n, a, 0), read_word(&mut n, a, 1)), (22, 5));
}

#[test]
fn a_lock_free_multi_writer_interval_never_populates_the_guard() {
    // p = 4, one 1 KB object homed at node 0, every node writes its
    // own quarter (word 0 and the last word included) outside any
    // lock: the barrier merges by run copy alone.
    let mut nodes: Vec<NodeState> = (0..4)
        .map(|me| node_of(me, 4, LotsConfig::small(64 << 10)))
        .collect();
    let mut a = ObjectId(0);
    for (me, n) in nodes.iter_mut().enumerate() {
        a = n.register_object(1024).unwrap();
        n.objects[a.0 as usize].set_home(0);
        let mine: Vec<(usize, u32)> = (me * 64..me * 64 + 64).map(|w| (w, w as u32 + 1)).collect();
        write_words(n, a, &mine);
        let _ = n.barrier_collect().unwrap();
    }
    let plan = [(1, a, 0), (2, a, 0), (3, a, 0)];
    let (home, writers) = nodes.split_first_mut().unwrap();
    home.barrier_prepare(&plan, 0).unwrap();
    assert_eq!(home.guarded_words(), 0);
    for (i, w) in writers.iter_mut().enumerate() {
        w.barrier_prepare(&plan, i + 1).unwrap();
        let diff = WordDiff::from_wire(w.cached_diff(a).encode()).unwrap();
        assert_eq!(diff.changed_words(), 64);
        let ts = w.write_ts_of(a);
        home.apply_remote_diff(a, &diff, ts).unwrap();
        assert_eq!(home.guarded_words(), 0, "after node {}'s diff", i + 1);
        assert_eq!(w.guarded_words(), 0);
    }
    for w in [0usize, 63, 64, 200, 255] {
        assert_eq!(read_word(home, a, w), w as u32 + 1);
    }
}

#[test]
fn a_remote_diff_past_the_object_is_a_typed_error_not_a_stray_write() {
    let mut n = small_node(64 * 1024);
    let a = n.register_object(64).unwrap();
    let b = n.register_object(64).unwrap();
    // Word 16 is one past `a`: a neighbouring block of the DMM area.
    let reach = WordDiff::from_words(&[(15, 1), (16, 2)]);
    for ts in [0, 3] {
        let r = n.apply_remote_diff(a, &reach, ts);
        assert!(matches!(r, Err(DsmError::CorruptDiff { .. })), "{r:?}");
    }
    assert_eq!(read_word(&mut n, a, 15), 0, "refused before any write");
    assert_eq!(read_word(&mut n, b, 0), 0);
}

#[test]
fn written_segment_serves_its_published_snapshot() {
    let mut n = striped_node(0, 1, 256 * 1024, 1024);
    let id = n.register_object(2 * 1024).unwrap();
    let seg0 = ObjectId(n.segments(&id)[0]);
    let range = 0..4;
    // Publish version 1 of segment 0 with word 0 = 5.
    write_range(&mut n, id, &range, 4, &5u32.to_le_bytes());
    seal(&mut n, &[(seg0, 0)], 1);
    assert_eq!(n.stats.versions_published(), 1);
    assert_eq!(n.stats.versions_reclaimed(), 1, "the version-0 snapshot");
    // Start an in-flight write (word 0 = 9, not yet published).
    write_range(&mut n, id, &range, 4, &9u32.to_le_bytes());
    // A reader's fetch sees the *published* version 1 value.
    let (bytes, version) = n.serve_object(seg0).unwrap();
    assert_eq!(version, 1);
    assert_eq!(&bytes[0..4], &5u32.to_le_bytes());
    // The writer goes on; what was served, and what is served next,
    // stays the pre-interval version.
    write_range(&mut n, id, &range, 4, &9u32.to_le_bytes());
    assert_eq!(&bytes[0..4], &5u32.to_le_bytes());
    let (again, version) = n.serve_object(seg0).unwrap();
    assert_eq!(
        (version, again.as_ptr()),
        (1, bytes.as_ptr()),
        "same buffer"
    );
    // The next barrier publishes 9 and reclaims the old snapshot.
    seal(&mut n, &[(seg0, 0)], 2);
    assert_eq!(n.stats.versions_published(), 2);
    assert_eq!(n.stats.versions_reclaimed(), 2);
    let (bytes, version) = n.serve_object(seg0).unwrap();
    assert_eq!(version, 2);
    assert_eq!(&bytes[0..4], &9u32.to_le_bytes());
}
