//! Host allocation budgets: the bulk payload path, and a cluster that
//! touches next to nothing.
//!
//! A fetched byte is not heap-allocated at all: the reply is lent from
//! the home's version, the transport delivers that buffer whole, the
//! reader adopts it as its copy, and the view guard decodes it into a
//! buffer the run's guard pool hands from guard to guard. A written
//! byte is allocated once, when its object is first touched or copies
//! away from the published version.
//! These tests count *every* large heap block — nothing is excluded,
//! there is no node-sized arena to exclude — and hold the total to a
//! fixed budget. Under the deterministic engine the count is exact, so
//! the bound is a number, not a timing.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use lots::apps::hotobj::{model_checksum, HotParams};
use lots::apps::runner::{run_app, RunConfig, System};
use lots::core::{run_cluster, ClusterOptions, DsmApi, DsmSlice, LotsConfig};
use lots::jiajia::{run_jiajia_cluster, JiaOptions};
use lots::sim::machine::p4_fedora;

/// Blocks at least this large are payload-sized (a segment, a chunk);
/// control structures and protocol messages stay far below it.
const LARGE: usize = 64 << 10;

static LARGE_BYTES: AtomicU64 = AtomicU64::new(0);
/// The counter is process-wide: one measured run at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

struct Counting;

fn count(size: usize) {
    if size >= LARGE {
        LARGE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// Bytes allocated in blocks of at least [`LARGE`] while `run` runs.
fn large_bytes_of<R>(run: impl FnOnce() -> R) -> (R, u64) {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let before = LARGE_BYTES.load(Ordering::Relaxed);
    let out = run();
    (out, LARGE_BYTES.load(Ordering::Relaxed) - before)
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
    cfg.dmm_bytes = 3 << 20;
    cfg.lots.striping = Some(lots::core::Striping::segments_of(128 << 10));
    let (out, large) = large_bytes_of(|| run_app(&cfg, params));
    assert_eq!(out.combined.checksum, model_checksum(&params, 5, 4));
    assert!(
        out.traffic.bytes_sent() >= params.read_bytes(),
        "every timed read crosses the network"
    );
    // Per byte sent: the segments' own buffers — the init fill touches
    // the whole object (1/3 of the bytes read) and each round's rewrite
    // copies one chunk away from the published version (1/4 of the
    // object a round at p = 4: another 1/4 of the bytes read): 583.
    // The reply is the home's version, lent and then adopted, never a
    // buffer of its own; and the guards of every node and round share
    // one pooled buffer of a chunk's size (1/12 of the bytes read): 83.
    // Over a denominator that also carries the message headers: 665.
    let permille = large * 1000 / out.traffic.bytes_sent();
    assert!(
        permille <= 900,
        "{large} bytes in blocks >= {LARGE} B for {} bytes sent: {permille} permille \
         (budget 900; every extra copy of the payload adds about 1000)",
        out.traffic.bytes_sent()
    );
}

#[test]
fn a_cluster_that_touches_one_object_allocates_no_node_sized_buffer() {
    // 64 nodes over a 64 MB DMM area (LOTS) or shared space (JIAJIA),
    // each writing its word of one 4 KB object and reading its
    // neighbour's: the address space is modelled, so what is allocated
    // follows what is touched. (With an arena and a twin arena per
    // node this was 8 GB; with JIAJIA's mirror, 4 GB.)
    const P: usize = 64;
    const SPACE: usize = 64 << 20;
    const BUDGET: u64 = 8 << 20;
    fn touch<D: DsmApi>(dsm: &D) -> u32 {
        let a = dsm.alloc::<u32>(1024);
        a.write(dsm.me(), dsm.me() as u32 + 1);
        dsm.barrier();
        a.read((dsm.me() + 1) % P)
    }
    let neighbours: Vec<u32> = (0..P).map(|me| (me as u32 + 1) % P as u32 + 1).collect();
    let (lots, large) = large_bytes_of(|| {
        let opts = ClusterOptions::new(P, LotsConfig::small(SPACE), p4_fedora());
        run_cluster(opts, touch).0
    });
    assert_eq!(lots, neighbours);
    assert!(large < BUDGET, "LOTS: {large} bytes in blocks >= {LARGE} B");
    let (jiajia, large) =
        large_bytes_of(|| run_jiajia_cluster(JiaOptions::new(P, SPACE, p4_fedora()), touch).0);
    assert_eq!(jiajia, neighbours);
    assert!(
        large < BUDGET,
        "JIAJIA: {large} bytes in blocks >= {LARGE} B"
    );
}

#[test]
fn hot_object_rounds_allocate_only_the_rewriters_segment_copies() {
    // 1 MB in 64 KB segments on eight nodes: every chunk is two
    // segments. Each round every node reads a chunk through one view
    // guard, and one node rewrites its own chunk.
    const P: usize = 8;
    let large_for = |rounds: usize| {
        let params = HotParams {
            elems: 1 << 17,
            rounds,
            single_home: false,
        };
        let mut cfg = RunConfig::new(System::Lots, P, p4_fedora());
        cfg.seed = 3;
        cfg.dmm_bytes = 3 << 20;
        cfg.lots.striping = Some(lots::core::Striping::segments_of(64 << 10));
        let (out, large) = large_bytes_of(|| run_app(&cfg, params));
        assert_eq!(out.combined.checksum, model_checksum(&params, 3, P));
        (large, params.object_bytes() / P as u64)
    };
    let (one, chunk) = large_for(1);
    let (five, _) = large_for(5);
    // Four more rounds: four rewrites of one chunk each. A buffer per
    // guard would add nine chunks a round (eight readers, one writer).
    let per_round = (five - one) / 4;
    assert!(
        per_round <= chunk * 3 / 2,
        "each round allocates {per_round} bytes in blocks >= {LARGE} B \
         (a chunk is {chunk}): more than the rewriter's segment copies"
    );
}
