//! Failure injection and the system's documented limits: disk faults
//! surface as errors, capacity edges behave as §4.3/§5 describe, and
//! LOTS-x rejects working sets beyond the DMM area.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lots::core::{run_cluster, ClusterOptions, DsmApi, DsmError, DsmSlice, LotsConfig, SwapConfig};
use lots::disk::{BackingStore, DiskError, ModeledStore, SwapKey};
use lots::sim::machine::p4_fedora;
use lots::sim::DiskModel;

/// A store that starts failing writes after `fail_after` puts.
struct FlakyStore {
    inner: ModeledStore,
    puts: AtomicU64,
    fail_after: u64,
}

impl FlakyStore {
    fn new(fail_after: u64) -> FlakyStore {
        FlakyStore {
            inner: ModeledStore::new(p4_fedora().disk),
            puts: AtomicU64::new(0),
            fail_after,
        }
    }
}

impl BackingStore for FlakyStore {
    fn model(&self) -> DiskModel {
        self.inner.model()
    }

    fn put(&self, key: SwapKey, data: &[u8]) -> Result<(), DiskError> {
        if self.puts.fetch_add(1, Ordering::Relaxed) >= self.fail_after {
            return Err(DiskError::Io("injected write failure".into()));
        }
        self.inner.put(key, data)
    }

    fn get(&self, key: SwapKey) -> Result<Vec<u8>, DiskError> {
        self.inner.get(key)
    }

    fn remove(&self, key: SwapKey) -> Result<(), DiskError> {
        self.inner.remove(key)
    }

    fn used_bytes(&self) -> u64 {
        self.inner.used_bytes()
    }
}

#[test]
fn injected_disk_failure_surfaces_as_error_not_corruption() {
    let opts = ClusterOptions::new(1, LotsConfig::small(64 * 1024), p4_fedora())
        .with_stores(|_| Arc::new(FlakyStore::new(1)));
    let (results, _) = run_cluster(opts, |dsm| {
        // Three 12 KB objects in a 32 KB lower half: two fit, the third
        // mapping evicts (swap-out #1 succeeds), and remapping the
        // first needs swap-out #2 — which the store refuses.
        let a = dsm.alloc::<i64>(1536);
        let b = dsm.alloc::<i64>(1536);
        let c = dsm.alloc::<i64>(1536);
        a.write(0, 1);
        b.write(0, 2);
        c.write(0, 3); // swap-out #1 (a) succeeds
        let r = a.try_read(0); // needs swap-out #2 (b): injected failure
        match r {
            Err(DsmError::Disk(msg)) => msg.contains("injected"),
            other => panic!("expected injected disk failure, got {other:?}"),
        }
    });
    assert!(results[0]);
}

#[test]
fn backing_store_capacity_exhaustion_is_reported() {
    let disk = p4_fedora().disk;
    // Verbatim (uncompressed) images: this test sizes the store in
    // logical bytes; compression would shrink the zero-heavy images
    // far below the 20 KB limit.
    let lots = LotsConfig::small(64 * 1024).with_swap(SwapConfig::legacy());
    let opts = ClusterOptions::new(1, lots, p4_fedora())
        .with_stores(move |_| Arc::new(ModeledStore::with_capacity(disk, 20 * 1024)));
    let (results, _) = run_cluster(opts, |dsm| {
        // Each 12 KB object's swap image slightly exceeds 12 KB; the
        // second eviction exceeds the 20 KB store.
        let a = dsm.alloc::<i64>(1536);
        let b = dsm.alloc::<i64>(1536);
        let c = dsm.alloc::<i64>(1536);
        a.write(0, 1);
        b.write(0, 2);
        c.write(0, 3); // image of a fills most of the 20 KB store
        match a.try_read(0) {
            // image of b cannot fit alongside
            Err(DsmError::Disk(msg)) => msg.contains("full"),
            other => panic!("expected out-of-space, got {other:?}"),
        }
    });
    assert!(results[0], "capacity exhaustion must surface");
}

#[test]
fn statement_pinning_all_objects_hits_the_section5_condition() {
    // §5: "The system can do nothing if all the objects currently
    // mapped in the DMM area are accessed in the same program
    // statement" — the documented limitation, reported as an error.
    let opts = ClusterOptions::new(1, LotsConfig::small(64 * 1024), p4_fedora());
    let (results, _) = run_cluster(opts, |dsm| {
        let a = dsm.alloc::<i64>(1536); // 12 KB each
        let b = dsm.alloc::<i64>(1536);
        let c = dsm.alloc::<i64>(1536);
        let stmt = dsm.statement();
        let _ = a.read(0);
        let _ = b.read(0);
        let r = c.try_read(0);
        drop(stmt);
        let pinned_failure = matches!(r, Err(DsmError::OutOfDmm { .. }));
        // Outside the statement the same access succeeds via eviction.
        let recovered = c.try_read(0).is_ok();
        pinned_failure && recovered
    });
    assert!(results[0]);
}

#[test]
fn lots_x_cannot_outgrow_the_dmm_area() {
    // §1's motivation: without large-object support, "the application
    // is too large to fit in the system".
    let opts = ClusterOptions::new(1, LotsConfig::lots_x(64 * 1024), p4_fedora());
    let (results, _) = run_cluster(opts, |dsm| {
        let _a = dsm.alloc::<i64>(1536);
        let _b = dsm.alloc::<i64>(1536);
        match dsm.try_alloc::<i64>(1536) {
            Err(DsmError::LotsXCapacity { .. }) => true,
            other => panic!("expected LotsXCapacity, got {other:?}"),
        }
    });
    assert!(results[0]);
}

#[test]
fn single_object_larger_than_dmm_rejected_with_clear_error() {
    // §4.3: "the single object size is only limited by the size of the
    // DMM area".
    let opts = ClusterOptions::new(1, LotsConfig::small(64 * 1024), p4_fedora());
    let (results, _) = run_cluster(opts, |dsm| match dsm.try_alloc::<i64>(64 * 1024) {
        Err(DsmError::ObjectTooLarge { max, .. }) => max > 0,
        other => panic!("expected ObjectTooLarge, got {other:?}"),
    });
    assert!(results[0]);
}

#[test]
fn empty_alloc_is_a_recoverable_error_not_a_panic() {
    let opts = ClusterOptions::new(1, LotsConfig::small(64 * 1024), p4_fedora());
    let (results, _) = run_cluster(opts, |dsm| {
        matches!(dsm.try_alloc::<i32>(0), Err(DsmError::EmptyAlloc))
    });
    assert!(results[0], "try_alloc(0) must surface DsmError::EmptyAlloc");

    use lots::jiajia::{run_jiajia_cluster, JiaOptions};
    let (results, _) = run_jiajia_cluster(JiaOptions::new(1, 4 << 20, p4_fedora()), |dsm| {
        matches!(dsm.try_alloc::<i32>(0), Err(DsmError::EmptyAlloc))
    });
    assert!(
        results[0],
        "jia try_alloc(0) must surface DsmError::EmptyAlloc"
    );
}
