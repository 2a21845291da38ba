//! Emit a machine-readable `BENCH_summary.json` tracking the repo's
//! perf trajectory: the quickstart virtual time, the SOR 256×256×32
//! (p = 4) point on all three systems with its access-check counts,
//! the large-object swap runs, object churn fault-free, lossy and
//! journaled, a weak-scaling sweep (SOR + object churn at
//! p = 4/16/64/256) with its scheduler counters, the hot-object
//! striping benchmark (one 256 MB object, rotating writers + all-node
//! readers, striped p = 4/16/64 vs a single-home baseline), each
//! section's host seconds, and the modeled §4.2 access-check cost.
//!
//! ```text
//! cargo run --release -p lots-bench --bin bench_summary \
//!     [-- --check] [--out PATH]
//! ```
//!
//! Without `--check` the run rewrites `./BENCH_summary.json` (or
//! `PATH`); under `--check` it writes only when `--out` is given.
//!
//! Every section pushes its fields as rows of one
//! [`lots_bench::summary::Table`]; the file, the check and the stdout
//! listing are all read off those rows. The JSON lands in the current
//! directory (the repo root in CI) so successive PRs can diff it. Under
//! the virtual-time engine every *virtual* number in the file — times,
//! counters, scheduler turns/wakes/epochs/hand-offs — is a pure
//! function of the committed code, so `--check` fails on ANY drift of
//! those, on a field the committed file lacks or has extra, and when
//! there is no committed file. Host seconds are informative only: their
//! *keys* are gated, their values are not. The host-measured probes
//! (a checked read on LOTS and on JIAJIA, a scheduler hand-off,
//! registering and dropping one object-node pair, the heap bytes a pair
//! and a fresh node state hold, and the peak heap bytes per node of a
//! JIAJIA SOR run at p = 64) vary by machine or by allocator and are
//! printed on one line, not written to the JSON. The untimed
//! `codec_host` section is written, as host rows: the MB/s of the
//! journal's CRC-32 and of the RLE encoder over one fixed 1 MB buffer.

// The counting allocator is the one exception.
#![deny(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lots_apps::churn::{model_checksum, ChurnParams};
use lots_apps::hotobj::{model_node_checksum, HotParams};
use lots_apps::largeobj::{expected_sum, large_object_test, LargeObjParams};
use lots_apps::runner::{run_app, RunConfig, System};
use lots_apps::sor::SorParams;
use lots_bench::summary::{self, Table};
use lots_bench::{host_check_ns, measure, App};
use lots_core::node::NodeState;
use lots_core::{
    run_cluster, ClusterOptions, DsmApi, DsmSlice, LotsConfig, NodeId, ObjectId, PersistConfig,
    PersistStore, Placement, Striping, SwapConfig,
};
use lots_disk::{ModeledStore, RleImage};
use lots_persist::crc32;
use lots_sim::machine::{p4_fedora, pentium4_2ghz};
use lots_sim::{
    run_app_tasks, CrashFault, FaultPlan, NodeStats, Partition, SimClock, SimDuration, SimInstant,
};

/// The system allocator, counting the heap bytes currently allocated
/// so that the object-node pair probe can say what a pair holds.
struct CountingAlloc;

/// Heap bytes currently allocated through [`CountingAlloc`].
static HEAP_LIVE: AtomicUsize = AtomicUsize::new(0);

/// The most [`HEAP_LIVE`] has been since it was last set.
static HEAP_PEAK: AtomicUsize = AtomicUsize::new(0);

/// Count `size` more bytes live and raise [`HEAP_PEAK`] to the total.
fn grow_live(size: usize) {
    let live = HEAP_LIVE.fetch_add(size, Ordering::Relaxed) + size;
    if live > HEAP_PEAK.load(Ordering::Relaxed) {
        HEAP_PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the count is
// bookkeeping.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = std::alloc::System.alloc(layout);
        if !p.is_null() {
            grow_live(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = std::alloc::System.alloc_zeroed(layout);
        if !p.is_null() {
            grow_live(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        std::alloc::System.dealloc(ptr, layout);
        HEAP_LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = std::alloc::System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grow_live(new_size);
            HEAP_LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc;

fn heap_live() -> usize {
    HEAP_LIVE.load(Ordering::Relaxed)
}

/// Host-measured cost of one turn hand-off (µs): two tasks of
/// [`run_app_tasks`] — threads on one CPU, as in every cluster run —
/// yield by equal steps, so the engine alternates them and every
/// dispatch parks one thread and wakes the other. Best of three.
fn host_handoff_us() -> f64 {
    const YIELDS: u64 = 20_000;
    let run = || {
        let t0 = Instant::now();
        run_app_tasks(2, |_, h, clock| {
            for _ in 0..YIELDS {
                h.yield_until(clock.advance(SimDuration(10)));
            }
        });
        t0.elapsed().as_secs_f64() * 1e6 / (2 * YIELDS) as f64
    };
    (0..3).map(|_| run()).fold(f64::INFINITY, f64::min)
}

/// What one object-node pair costs the host, on bare node states as
/// SOR's setup at p = 128 pays it: 128 nodes each register the same 512
/// objects of 2 KB (mapped eagerly), then each finishes a first barrier
/// at which all 512 were written, dropping its copies of those homed
/// elsewhere.
struct PairCost {
    /// Host ns to register one pair (best of three).
    register_ns: f64,
    /// Host ns to drop one pair at the first barrier (best of three).
    drop_ns: f64,
    /// Heap bytes one registered pair holds.
    pair_bytes: f64,
    /// Heap bytes `NodeState::new` allocates.
    node_bytes: f64,
}

fn host_pair_cost() -> PairCost {
    const NODES: usize = 128;
    const OBJECTS: usize = 512;
    const PAIRS: f64 = (NODES * OBJECTS) as f64;
    let run = || {
        let machine = p4_fedora();
        let mut nodes: Vec<NodeState> = Vec::with_capacity(NODES);
        let mut node_bytes = 0;
        for me in 0..NODES {
            let store = Arc::new(ModeledStore::new(machine.disk));
            let (cfg, clock, stats) = (
                LotsConfig::small(4 << 20),
                SimClock::new(),
                NodeStats::new(),
            );
            let before = heap_live();
            let node = NodeState::new(me, NODES, cfg, machine.cpu, store, clock, stats);
            node_bytes += heap_live() - before;
            nodes.push(node);
        }
        let before = heap_live();
        let t0 = Instant::now();
        for node in &mut nodes {
            for _ in 0..OBJECTS {
                node.register_object(2048).expect("fits the DMM area");
            }
        }
        let register_ns = t0.elapsed().as_nanos() as f64 / PAIRS;
        let pair_bytes = (heap_live() - before) as f64 / PAIRS;
        let written: Vec<(ObjectId, NodeId)> = (0..OBJECTS as u32)
            .map(|id| (ObjectId(id), nodes[0].home_of(ObjectId(id))))
            .collect();
        let t0 = Instant::now();
        for node in &mut nodes {
            node.barrier_finish(&written, &[], &[], 1).expect("drop");
        }
        PairCost {
            register_ns,
            drop_ns: t0.elapsed().as_nanos() as f64 / PAIRS,
            pair_bytes,
            node_bytes: node_bytes as f64 / NODES as f64,
        }
    };
    (0..3)
        .map(|_| run())
        .reduce(|best, run| PairCost {
            register_ns: best.register_ns.min(run.register_ns),
            drop_ns: best.drop_ns.min(run.drop_ns),
            ..run
        })
        .expect("three runs")
}

/// Peak heap bytes per node of a JIAJIA SOR run at p = 64 with the
/// repo benchmark's `weak_scale` sizes (two rows per node, four
/// iterations, a 2 MB shared space): what a JIAJIA node, its page
/// mirror included, costs the host.
fn jiajia_sor_heap_per_node() -> f64 {
    const P: usize = 64;
    let mut cfg = RunConfig::new(System::Jiajia, P, p4_fedora());
    cfg.shared_bytes = 2 << 20;
    let before = heap_live();
    HEAP_PEAK.store(before, Ordering::Relaxed);
    run_app(&cfg, SorParams { n: 2 * P, iters: 4 });
    (HEAP_PEAK.load(Ordering::Relaxed) - before) as f64 / P as f64
}

/// A run of `system` on `p` nodes of the calibrated machine with
/// `dmm_bytes` DMM arenas.
fn config(system: System, p: usize, dmm_bytes: usize) -> RunConfig {
    let mut cfg = RunConfig::new(system, p, p4_fedora());
    cfg.dmm_bytes = dmm_bytes;
    cfg
}

/// The quickstart program's virtual execution time in milliseconds.
/// It has the shape of `examples/quickstart.rs` (4 nodes, writes, a
/// barrier, a lock-guarded reduction, a barrier) but sums its block
/// through one view where the example loops over `read` and also reads
/// through an `offset`, so the two report different times.
fn quickstart(t: &mut Table) {
    const NODES: usize = 4;
    const LEN: usize = 1024;
    let opts = ClusterOptions::new(NODES, LotsConfig::small(4 << 20), p4_fedora());
    let (_, report) = run_cluster(opts, |dsm| {
        let data = dsm.alloc::<i64>(LEN);
        let counter = dsm.alloc::<i64>(1);
        let per = LEN / dsm.n();
        let base = dsm.me() * per;
        for i in 0..per {
            data.write(base + i, (base + i) as i64);
        }
        dsm.barrier();
        let local = data.view(base..base + per).iter().sum::<i64>();
        dsm.with_lock(1, || counter.update(0, |v| v + local));
        dsm.barrier();
        counter.read(0)
    });
    let ms = report.exec_time.as_secs_f64() * 1e3;
    t.gated("quickstart_ms", format!("{ms:.4}"));
}

/// SOR 256×256, 32 iterations, p = 4 — the tracked Figure 8(c) point
/// (`App::run` at size 256 with `full = false` uses 32 iterations).
fn sor_256_p4(t: &mut Table) {
    let mut checksums = Vec::new();
    for (key, system) in [
        ("jiajia", System::Jiajia),
        ("lots", System::Lots),
        ("lotsx", System::LotsX),
    ] {
        let out = measure(App::Sor, 256, false, RunConfig::new(system, 4, p4_fedora()));
        checksums.push(out.combined.checksum);
        t.secs(format!("{key}_s"), out.combined.elapsed.as_secs_f64());
        t.gated(format!("{key}_access_checks"), out.stats.access_checks());
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "systems disagree on SOR: {checksums:?}"
    );
}

/// The large-object swap subsystem: the legacy path vs the tuned bundle
/// (segmented LRU + batched write-behind + read-ahead + compressed
/// images), each a shrunken Test 2 (8 MB of rows through 1 MB arenas,
/// an 8× overcommit). The counters are the nodes' sums: swaps, bytes
/// actually written, batched trips and read-ahead hits.
fn large_object_swap(t: &mut Table) {
    let params = LargeObjParams {
        rows: 64,
        row_elems: 32 * 1024, // 128 KB rows → 8 MB of shared objects
    };
    for (key, swap) in [
        ("legacy", SwapConfig::legacy()),
        ("tuned", SwapConfig::tuned()),
    ] {
        let cfg = LotsConfig::small(1 << 20).with_swap(swap);
        let (results, report) = run_cluster(ClusterOptions::new(2, cfg, p4_fedora()), move |dsm| {
            large_object_test(dsm, params).expect("large-object bench")
        });
        let total: i64 = results.iter().map(|r| r.sum).sum();
        assert_eq!(total, expected_sum(params), "swap corrupted the bench");
        let s = NodeStats::new();
        for r in &results {
            s.absorb(&r.stats);
        }
        t.secs(format!("{key}_s"), report.exec_time.as_secs_f64());
        t.gated(format!("{key}_swaps_out"), s.swaps_out());
        t.gated(format!("{key}_swaps_in"), s.swaps_in());
        t.gated(format!("{key}_out_bytes"), s.swap_out_bytes());
        t.gated(format!("{key}_batches"), s.swap_batches());
        t.gated(format!("{key}_prefetch_hits"), s.prefetch_hits());
    }
}

/// Object lifecycle under churn: 16 MB of cumulative allocations
/// (free/reuse, named checkpoints, cycling placements) through fixed
/// arenas on all three systems; the checksum is gated against the
/// sequential model, the lifecycle counters against drift.
fn object_churn(t: &mut Table) {
    let params = ChurnParams::smoke();
    let model = model_checksum(&params, 0);
    let mut freed = Vec::new();
    for (key, system, arena) in [
        ("lots", System::Lots, 1usize << 20),
        ("lotsx", System::LotsX, 2 << 20),
        ("jiajia", System::Jiajia, 2 << 20),
    ] {
        let mut cfg = config(system, 4, arena);
        cfg.shared_bytes = 2 << 20;
        let out = run_app(&cfg, params);
        for r in &out.per_node {
            assert_eq!(r.checksum, model, "{key}: churn checksum vs model");
        }
        freed.push(out.stats.objects_freed());
        t.secs(format!("{key}_churn_s"), out.combined.elapsed.as_secs_f64());
        if system == System::Lots {
            t.gated("lots_churn_swaps_out", out.stats.swaps_out());
            t.gated("lots_churn_slots", out.object_slots_max);
            t.gated("lots_churn_frag_permille", out.frag_permille_max);
        }
    }
    assert!(
        freed.windows(2).all(|w| w[0] == w[1]),
        "systems disagree on reclaimed objects: {freed:?}"
    );
    t.gated("churn_checksum", model);
    t.gated("churn_cumulative_bytes", params.cumulative_bytes());
    t.gated("churn_reclaim_events", freed[0]);
}

/// Lossy network + crash-rejoin: the same churn program under a seeded
/// drop/dup/reorder plan, a scheduled minority partition and one
/// crash-rejoin. The checksum is gated against the identical
/// sequential model as the fault-free run (loss must be invisible to
/// applications); the recovery counters are gated so the reliable
/// layer's behavior cannot drift silently.
fn lossy_net(t: &mut Table) {
    let params = ChurnParams::smoke();
    let model = model_checksum(&params, 0);
    let mut cfg = config(System::Lots, 4, 1 << 20);
    cfg.faults = FaultPlan {
        seed: 42,
        loss_permille: 15,
        dup_permille: 10,
        reorder_permille: 20,
        partitions: vec![Partition {
            start: SimInstant(1_000_000),
            end: SimInstant(5_000_000),
            islanders: vec![3],
        }],
        crash_node: Some(CrashFault {
            node: 2,
            at_barrier: 2,
            reboot: SimDuration::from_millis(20),
        }),
        ..FaultPlan::none()
    };
    let out = run_app(&cfg, params);
    for r in &out.per_node {
        assert_eq!(
            r.checksum, model,
            "lossy churn checksum vs fault-free model"
        );
    }
    let (s, tr) = (&out.stats, &out.traffic);
    assert_eq!(
        tr.msgs_dropped(),
        0,
        "reliable layer must recover every loss"
    );
    assert!(tr.msgs_retransmitted() > 0, "the plan must exercise loss");
    t.secs("lossy_churn_s", out.combined.elapsed.as_secs_f64());
    t.gated("lossy_retransmits", tr.msgs_retransmitted());
    t.gated("lossy_dups_filtered", tr.dups_filtered());
    t.gated("lossy_rejoin_rounds", s.rejoin_rounds());
    t.gated("lossy_rejoin_bytes", s.rejoin_bytes());
    // The rejoin split: persistence is off here, so every byte of the
    // master rebuild comes from peers.
    t.gated("lossy_rejoin_log_bytes", s.rejoin_log_bytes());
    t.gated("lossy_rejoin_peer_bytes", s.rejoin_peer_bytes());
}

/// Persistence: the churn program journaling every barrier interval
/// (every(4) checkpoints, background compaction) with one crash-rejoin
/// that rebuilds masters from the node's own journal. A cold-start
/// restore of the run's journals is then replayed and must reproduce
/// the answers and virtual time exactly; every journal counter is
/// virtual-deterministic and gated.
fn persistence(t: &mut Table) {
    let params = ChurnParams::smoke();
    let model = model_checksum(&params, 0);
    let store = PersistStore::new(4);
    let mut cfg =
        config(System::Lots, 4, 1 << 20).with_persist(PersistConfig::every(4), Some(store.clone()));
    cfg.faults = FaultPlan {
        crash_node: Some(CrashFault {
            node: 1,
            at_barrier: 6,
            reboot: SimDuration::from_millis(20),
        }),
        ..FaultPlan::none()
    };
    let first = run_app(&cfg, params);
    for (node, r) in first.per_node.iter().enumerate() {
        assert_eq!(
            r.checksum, model,
            "persist churn node {node} checksum vs model"
        );
    }
    let s = &first.stats;
    assert!(
        s.log_records() > 0 && s.checkpoint_bytes() > 0,
        "the journal must run"
    );
    assert!(
        s.rejoin_log_bytes() > 0,
        "the rejoin must rebuild masters from its own journal"
    );
    let restored = store.restore().expect("bench journals restore");
    let checkpoint_seq = restored.checkpoint_seq;
    cfg.restore = Some(Arc::new(restored));
    let again = run_app(&cfg, params);
    assert_eq!(
        first.per_node, again.per_node,
        "restore replay answers diverged"
    );
    assert_eq!(
        first.exec_time, again.exec_time,
        "restore replay virtual time diverged"
    );
    t.secs("persist_churn_s", first.exec_time.as_secs_f64());
    t.gated("persist_log_records", s.log_records());
    t.gated("persist_log_bytes", s.log_bytes_appended());
    t.gated("persist_checkpoint_bytes", s.checkpoint_bytes());
    t.gated("persist_compaction_runs", s.compaction_runs());
    t.gated(
        "persist_compaction_reclaimed_bytes",
        s.compaction_bytes_reclaimed(),
    );
    t.gated("persist_rejoin_log_bytes", s.rejoin_log_bytes());
    t.gated("persist_rejoin_peer_bytes", s.rejoin_peer_bytes());
    t.gated("persist_checkpoint_seq", checkpoint_seq);
    t.gated(
        "persist_replay_barriers",
        again.stats.restore_replay_barriers(),
    );
}

/// Weak scaling under the engine: SOR with two rows per node and a
/// fixed-shape churn program at p = 4/16/64/256. Virtual seconds and
/// the scheduler's turns/wakes/epochs/hand-offs are functions of the
/// schedule and gated; host wall seconds are informative.
fn weak_scaling(t: &mut Table) {
    let churn = ChurnParams {
        phases: 4,
        objs_per_phase: 1,
        elems: 1024,
        retain: 1,
        ckpt_elems: 16,
    };
    for p in [4usize, 16, 64, 256] {
        for wl in ["sor", "churn"] {
            let cfg = config(System::Lots, p, 4 << 20);
            let t0 = Instant::now();
            let out = match wl {
                "sor" => run_app(&cfg, SorParams { n: 2 * p, iters: 2 }),
                _ => run_app(&cfg, churn),
            };
            let wall = t0.elapsed().as_secs_f64();
            t.secs(format!("{wl}_p{p}_s"), out.exec_time.as_secs_f64());
            t.gated(format!("{wl}_p{p}_turns"), out.sched.turns);
            t.gated(format!("{wl}_p{p}_wakes"), out.sched.wakes);
            t.gated(format!("{wl}_p{p}_epochs"), out.sched.epochs);
            t.gated(format!("{wl}_p{p}_handoffs"), out.sched.handoffs);
            t.host_secs(format!("{wl}_p{p}_host_wall_s"), wall);
        }
    }
}

/// Hot object: one 256 MB named object, every node bulk-reading a
/// rotating chunk while a rotating writer rewrites its own — the
/// single-home bottleneck benchmark. Striped (4 MB segments,
/// per-segment homes settled by the init writes) at p = 4/16/64 against
/// the single-home baseline (all segments Fixed(0), home migration off)
/// at p = 16. Aggregate read MB/s is virtual bytes over virtual
/// seconds — deterministic, gated. Checksums on every run must match
/// the sequential visibility model.
fn hot_object(t: &mut Table) {
    let params = HotParams::bench();
    let mut striped_mbps = Vec::new();
    for (key, p, single_home) in [
        ("p4", 4, false),
        ("p16", 16, false),
        ("p64", 64, false),
        ("single16", 16, true),
    ] {
        let mut cfg = config(System::Lots, p, 448 << 20);
        cfg.lots.striping = Some(Striping {
            segment_bytes: 4 << 20,
            placement: [Placement::RoundRobin, Placement::Fixed(0)][single_home as usize],
        });
        cfg.lots.home_migration = !single_home;
        let out = run_app(
            &cfg,
            HotParams {
                single_home,
                ..params
            },
        );
        for (me, r) in out.per_node.iter().enumerate() {
            assert_eq!(
                r.checksum,
                model_node_checksum(&params, cfg.seed, p, me),
                "hot_object p={p} single_home={single_home}: node {me} checksum vs model"
            );
        }
        let secs = out.combined.elapsed.as_secs_f64();
        let mbps = params.read_bytes() as f64 / secs / 1e6;
        t.secs(format!("hot_{key}_s"), secs);
        t.gated(format!("hot_{key}_read_mbps"), format!("{mbps:.3}"));
        t.gated(
            format!("hot_{key}_home_ratio_permille"),
            out.home_load_ratio_permille,
        );
        if single_home {
            // The striping bars: striping beats the single home ≥ 3× at
            // p = 16 and read throughput keeps climbing with the node
            // count.
            assert!(
                striped_mbps[1] >= 3.0 * mbps,
                "striping too slow: {:.1} MB/s vs 3x single-home {mbps:.1} MB/s",
                striped_mbps[1]
            );
            assert!(
                striped_mbps.windows(2).all(|w| w[1] > w[0]),
                "read throughput must scale with p: {striped_mbps:?}"
            );
        } else {
            let published = out.stats.versions_published();
            let reclaimed = out.stats.versions_reclaimed();
            assert!(published > 0, "p={p}: no versions published");
            assert!(reclaimed > 0, "p={p}: no versions reclaimed");
            t.gated(format!("hot_{key}_versions_published"), published);
            t.gated(format!("hot_{key}_versions_reclaimed"), reclaimed);
            striped_mbps.push(mbps);
        }
    }
}

/// Host MB/s of the journal's checksum and the swap and journal RLE
/// encoder, [`crc32`] and [`RleImage::encode`], over one fixed 1 MB
/// buffer of incompressible words: the best of nine passes of eight
/// calls each.
fn codec_mb_per_s() -> [f64; 2] {
    const LEN: usize = 1 << 20;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let buf: Vec<u8> = (0..LEN / 8)
        .flat_map(|_| {
            // splitmix64
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)).to_le_bytes()
        })
        .collect();
    let rate = |f: &dyn Fn(&[u8])| {
        let best = (0..9)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..8 {
                    f(black_box(&buf));
                }
                t0.elapsed().as_secs_f64() / 8.0
            })
            .fold(f64::MAX, f64::min);
        LEN as f64 / 1e6 / best
    };
    [
        rate(&|b| {
            black_box(crc32(b));
        }),
        rate(&|b| {
            black_box(RleImage::encode(b));
        }),
    ]
}

fn main() {
    // The timed sections in file order: JSON section (`""` is the top
    // level), its `host_wall` key prefix and what fills it.
    let mut t = Table::default();
    for (section, wall, fill) in [
        ("", "quickstart", quickstart as fn(&mut Table)),
        ("sor_256_p4", "sor", sor_256_p4),
        ("large_object_swap", "swap", large_object_swap),
        ("object_churn", "churn", object_churn),
        ("lossy_net", "lossy_net", lossy_net),
        ("persistence", "persistence", persistence),
        ("weak_scaling", "weak_scaling", weak_scaling),
        ("hot_object", "hot_object", hot_object),
    ] {
        t.timed(section, wall);
        fill(&mut t);
    }
    let cpu = pentium4_2ghz();
    t.untimed("access_check_ns");
    t.gated("modeled", cpu.access_check.0);
    t.gated("modeled_pin", cpu.pin_update.0);
    let [crc, rle] = codec_mb_per_s();
    t.untimed("codec_host");
    t.host("crc32_mb_per_s", format!("{crc:.0}"));
    t.host("rle_encode_mb_per_s", format!("{rle:.0}"));
    let rows = t.into_rows();
    summary::print(&rows);
    summary::gate("BENCH_summary.json", &rows);
    let [lots_ns, jia_ns] = [System::Lots, System::Jiajia].map(host_check_ns);
    let handoff_us = host_handoff_us();
    let pair = host_pair_cost();
    let jia_node_bytes = jiajia_sor_heap_per_node();
    println!(
        "host checked read {lots_ns:.1} ns on LOTS, {jia_ns:.1} ns on JIAJIA; \
         hand-off {handoff_us:.2} us; object-node pair {:.0} ns to register, \
         {:.0} ns to drop at the first barrier, {:.1} heap bytes; fresh node \
         state {:.0} heap bytes; JIAJIA SOR p=64 {jia_node_bytes:.0} peak heap \
         bytes per node (host-dependent, not in JSON)",
        pair.register_ns, pair.drop_ns, pair.pair_bytes, pair.node_bytes
    );
}
