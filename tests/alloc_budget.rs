//! Host allocation budget of the bulk payload path.
//!
//! A fetched byte should be heap-allocated once where it leaves (the
//! home's reply buffer, which the transport fragments by slicing and
//! the receiver rejoins in place) and once where the application gets
//! it (the view guard's `Vec<T>`); in between it is copied straight
//! into the DMM arena. This test counts every large heap block a small
//! striped hot-object run allocates and holds the total to a fixed
//! budget per byte sent. Under the deterministic engine the count is
//! exact, so the bound is a number, not a timing.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

use lots::apps::hotobj::{model_checksum, HotParams};
use lots::apps::runner::{run_app, RunConfig, System};
use lots::sim::machine::p4_fedora;

/// Blocks at least this large are payload-sized (a segment, a chunk);
/// control structures and protocol messages stay far below it.
const LARGE: usize = 64 << 10;
/// DMM bytes per node. The arena and the twin arena are exactly this
/// large and are excluded: they are the modelled address space, not
/// payload traffic.
const DMM_BYTES: usize = 3 << 20;

static LARGE_BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count(size: usize) {
    if size >= LARGE && size != DMM_BYTES {
        LARGE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to the system allocator with the
// caller's layout unchanged; the only addition is a relaxed counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn striped_hot_object_allocates_at_most_its_budget_per_byte_sent() {
    // A 1 MB object in 128 KB segments on four nodes: every chunk is
    // two segments, every segment reply two 64 KB fragments.
    let params = HotParams {
        elems: 1 << 17,
        rounds: 3,
        single_home: false,
    };
    let mut cfg = RunConfig::new(System::Lots, 4, p4_fedora());
    cfg.seed = 5;
    cfg.dmm_bytes = DMM_BYTES;
    cfg.lots_tweak = |c| c.striping = Some(lots::core::Striping::segments_of(128 << 10));
    let before = LARGE_BYTES.load(Ordering::Relaxed);
    let out = run_app(&cfg, params);
    let large = LARGE_BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(out.combined.checksum, model_checksum(&params, 5, 4));
    assert!(
        out.bytes_sent >= params.read_bytes(),
        "every timed read crosses the network"
    );
    // Per byte sent: one reply buffer and one guard buffer (2000),
    // plus the writers' guards — the init fill of the whole object and
    // one chunk per round, (1 + 3/4) / 3 of the bytes read at p = 4 —
    // over a denominator that also carries the message headers: 2580.
    let permille = large * 1000 / out.bytes_sent;
    assert!(
        permille <= 2600,
        "{large} bytes in blocks >= {LARGE} B for {} bytes sent: {permille} permille \
         (budget 2600; every extra copy of the payload adds about 1000)",
        out.bytes_sent
    );
}
