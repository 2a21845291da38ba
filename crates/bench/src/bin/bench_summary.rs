//! Emit a machine-readable `BENCH_summary.json` tracking the repo's
//! perf trajectory: the quickstart virtual time, the SOR 256×256×32
//! (p = 4) point on all three systems with its access-check counts,
//! a weak-scaling sweep (SOR + object churn at p = 4/16/64/256) with
//! its scheduler counters, the hot-object striping benchmark (one
//! 256 MB object, rotating writers + all-node readers, striped
//! p = 4/16/64 vs a single-home baseline), and the modeled §4.2
//! access-check cost (the host-measured cost of a checked read on LOTS
//! and on JIAJIA, the host cost of a scheduler hand-off, that of
//! registering and dropping one object-node pair, the heap bytes a
//! pair and a fresh node state hold, and the peak heap bytes per node
//! of a JIAJIA SOR run at p = 64, are printed but kept out of the
//! JSON — they vary by machine or by allocator).
//!
//! ```text
//! cargo run --release -p lots-bench --bin bench_summary \
//!     [-- --check] [--out PATH]
//! ```
//!
//! The JSON lands in the current directory (the repo root in CI) so
//! successive PRs can diff it. Under the virtual-time engine every
//! *virtual* number in the file — times, counters, scheduler
//! turns/wakes/epochs/hand-offs — is a pure function of the committed
//! code, so `--check` fails on ANY drift of those. Host wall-clock
//! seconds are informative only: their *keys* are gated, their values
//! are not.

// The counting allocator is the one exception.
#![deny(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lots_apps::adapter::{AppResult, DsmProgram};
use lots_apps::churn::{model_checksum, ChurnParams};
use lots_apps::largeobj::{expected_sum, large_object_test, LargeObjParams};
use lots_apps::runner::{run_app, RunConfig, System};
use lots_apps::sor::SorParams;
use lots_bench::{measure, App};
use lots_core::node::NodeState;
use lots_core::{
    run_cluster, ClusterOptions, DsmApi, DsmSlice, LotsConfig, NodeId, ObjectId, PersistConfig,
    PersistStore, SwapConfig,
};
use lots_disk::MemStore;
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

/// The quickstart example's virtual execution time in milliseconds
/// (same kernel as `examples/quickstart.rs`).
fn quickstart_ms() -> f64 {
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
    report.exec_time.as_secs_f64() * 1e3
}

/// One shrunken large-object run (Test 2 at 8 MB through 1 MB arenas):
/// virtual seconds and the nodes' summed counters — swaps, bytes
/// actually written (compressed for the tuned bundle), batched trips
/// and read-ahead hits, all deterministic, all gated by `--check`.
struct SwapPoint {
    secs: f64,
    stats: NodeStats,
}

fn large_object_swap(swap: SwapConfig) -> SwapPoint {
    const NODES: usize = 2;
    let params = LargeObjParams {
        rows: 64,
        row_elems: 32 * 1024, // 128 KB rows → 8 MB of shared objects
    };
    let opts = ClusterOptions::new(
        NODES,
        LotsConfig::small(1 << 20).with_swap(swap),
        p4_fedora(),
    );
    let (results, report) = run_cluster(opts, move |dsm| {
        large_object_test(dsm, params).expect("large-object bench")
    });
    let total: i64 = results.iter().map(|r| r.sum).sum();
    assert_eq!(total, expected_sum(params), "swap corrupted the bench");
    let stats = NodeStats::new();
    for r in &results {
        stats.absorb(&r.stats);
    }
    SwapPoint {
        secs: report.exec_time.as_secs_f64(),
        stats,
    }
}

/// The timed loop behind the host-measured fast-path cost of one
/// checked read: a million `read()`s of a resident 1 024-element array
/// on a 1-node cluster. A lone task never parks inside the loop, so the
/// engine adds nothing to the reading; the ns per read lands in the
/// cell as `f64` bits.
struct CheckedReads(Arc<AtomicU64>);

impl DsmProgram for CheckedReads {
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        const READS: u64 = 1_000_000;
        let a = dsm.alloc::<i64>(1024);
        a.write(0, 1);
        let t0 = Instant::now();
        let mut sink = 0i64;
        for i in 0..READS {
            sink = sink.wrapping_add(a.read((i % 1024) as usize));
        }
        let ns = t0.elapsed().as_nanos() as f64 / READS as f64;
        self.0.store(ns.to_bits(), Ordering::Relaxed);
        AppResult {
            checksum: sink as u64,
            elapsed: SimDuration::ZERO,
        }
    }
}

/// Host ns per checked read on `system`.
fn host_check_ns(system: System) -> f64 {
    let ns = Arc::new(AtomicU64::new(0));
    run_app(
        &RunConfig::new(system, 1, p4_fedora()),
        CheckedReads(ns.clone()),
    );
    f64::from_bits(ns.load(Ordering::Relaxed))
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
            let store = Arc::new(MemStore::new(machine.disk));
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

/// Extract the literal text of a `"key": value,`-style numeric field
/// from the committed JSON without a parser dependency.
fn committed_text(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": ");
    let at = json.find(&needle)? + needle.len();
    let tail: String = json[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    (!tail.is_empty()).then_some(tail)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_summary.json".to_string());
    let committed = std::fs::read_to_string("BENCH_summary.json").ok();
    let machine = p4_fedora();
    let cpu = pentium4_2ghz();
    let drifted = std::cell::Cell::new(false);
    // Virtual-time engine: the committed field must match the fresh
    // measurement *textually* — times included.
    let gate = |key: &str, fresh: &str| {
        if let Some(old) = committed.as_deref().and_then(|j| committed_text(j, key)) {
            if old != fresh {
                eprintln!("DRIFT: {key} committed {old} vs measured {fresh}");
                drifted.set(true);
            }
        }
    };
    // Informative fields (host wall-clock): the key must stay in the
    // file, the value is free to vary by host.
    let gate_key = |key: &str| {
        if let Some(json) = committed.as_deref() {
            if committed_text(json, key).is_none() {
                eprintln!("DRIFT: informative key {key} missing from committed JSON");
                drifted.set(true);
            }
        }
    };

    let t_quick = Instant::now();
    let quick_ms = quickstart_ms();
    let quick_wall = t_quick.elapsed().as_secs_f64();
    gate("quickstart_ms", &format!("{quick_ms:.4}"));

    // SOR 256×256, 32 iterations, p = 4 — the tracked Figure 8(c)
    // point (App::run at size 256 with full=false uses 32 iterations).
    let t_sor = Instant::now();
    let mut sor = String::new();
    let mut checksums = Vec::new();
    for (key, system) in [
        ("jiajia", System::Jiajia),
        ("lots", System::Lots),
        ("lotsx", System::LotsX),
    ] {
        let pt = measure(App::Sor, 256, false, RunConfig::new(system, 4, machine));
        checksums.push(pt.outcome.combined.checksum);
        let secs = format!("{:.6}", pt.outcome.combined.elapsed.as_secs_f64());
        let checks = format!("{}", pt.outcome.stats.access_checks());
        gate(&format!("{key}_s"), &secs);
        gate(&format!("{key}_access_checks"), &checks);
        let _ = write!(
            sor,
            "\n    \"{key}_s\": {secs},\n    \"{key}_access_checks\": {checks},"
        );
        println!(
            "SOR 256x256x32 p=4 {:<7} {:>7.3} s  {:>12} checks",
            system.label(),
            pt.outcome.combined.elapsed.as_secs_f64(),
            pt.outcome.stats.access_checks()
        );
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "systems disagree on SOR: {checksums:?}"
    );
    let sor = sor.trim_end_matches(',').to_string();
    let sor_wall = t_sor.elapsed().as_secs_f64();

    // Large-object swap subsystem: the legacy path vs the tuned bundle
    // (segmented LRU + batched write-behind + read-ahead + compressed
    // images) on an 8× overcommitted arena.
    let t_swap = Instant::now();
    let mut swap = String::new();
    for (key, cfg) in [
        ("legacy", SwapConfig::legacy()),
        ("tuned", SwapConfig::tuned()),
    ] {
        let pt = large_object_swap(cfg);
        let s = &pt.stats;
        for (field, fresh) in [
            (format!("{key}_s"), format!("{:.6}", pt.secs)),
            (format!("{key}_swaps_out"), s.swaps_out().to_string()),
            (format!("{key}_swaps_in"), s.swaps_in().to_string()),
            (format!("{key}_out_bytes"), s.swap_out_bytes().to_string()),
            (format!("{key}_batches"), s.swap_batches().to_string()),
            (
                format!("{key}_prefetch_hits"),
                s.prefetch_hits().to_string(),
            ),
        ] {
            gate(&field, &fresh);
            let _ = write!(swap, "\n    \"{field}\": {fresh},");
        }
        println!(
            "large-object 8MB/1MB p=2 {key:<7} {:>7.3} s  {} out / {} in, {} B written, \
             {} trips, {} read-ahead hits",
            pt.secs,
            s.swaps_out(),
            s.swaps_in(),
            s.swap_out_bytes(),
            s.swap_batches(),
            s.prefetch_hits()
        );
    }
    let swap = swap.trim_end_matches(',').to_string();
    let swap_wall = t_swap.elapsed().as_secs_f64();

    // Object lifecycle under churn: 16 MB of cumulative allocations
    // (free/reuse, named checkpoints, cycling placements) through
    // fixed arenas on all three systems; the checksum is gated against
    // the sequential model, the lifecycle counters against drift.
    let t_churn = Instant::now();
    let mut churn = String::new();
    {
        let params = ChurnParams::smoke();
        let model = model_checksum(&params, 0);
        let mut freed = Vec::new();
        for (key, system, arena) in [
            ("lots", System::Lots, 1usize << 20),
            ("lotsx", System::LotsX, 2 << 20),
            ("jiajia", System::Jiajia, 2 << 20),
        ] {
            let mut cfg = RunConfig::new(system, 4, machine);
            cfg.dmm_bytes = arena;
            cfg.shared_bytes = 2 << 20;
            let out = run_app(&cfg, params);
            for r in &out.per_node {
                assert_eq!(r.checksum, model, "{key}: churn checksum vs model");
            }
            freed.push(out.stats.objects_freed());
            let mut fields = vec![(
                format!("{key}_churn_s"),
                format!("{:.6}", out.combined.elapsed.as_secs_f64()),
            )];
            if system == System::Lots {
                let swaps_out = out.stats.swaps_out();
                fields.push(("lots_churn_swaps_out".into(), swaps_out.to_string()));
                fields.push(("lots_churn_slots".into(), out.object_slots_max.to_string()));
                fields.push((
                    "lots_churn_frag_permille".into(),
                    out.frag_permille_max.to_string(),
                ));
            }
            for (field, fresh) in fields {
                gate(&field, &fresh);
                let _ = write!(churn, "\n    \"{field}\": {fresh},");
            }
            println!(
                "object churn p=4 {:<7} {:>7.3} s  {} frees/node, checksum OK",
                system.label(),
                out.combined.elapsed.as_secs_f64(),
                out.stats.objects_freed() / 4,
            );
        }
        assert!(
            freed.windows(2).all(|w| w[0] == w[1]),
            "systems disagree on reclaimed objects: {freed:?}"
        );
        for (field, fresh) in [
            ("churn_checksum".to_string(), model.to_string()),
            (
                "churn_cumulative_bytes".to_string(),
                params.cumulative_bytes().to_string(),
            ),
            ("churn_reclaim_events".to_string(), freed[0].to_string()),
        ] {
            gate(&field, &fresh);
            let _ = write!(churn, "\n    \"{field}\": {fresh},");
        }
    }
    let churn = churn.trim_end_matches(',').to_string();
    let churn_wall = t_churn.elapsed().as_secs_f64();

    // Lossy network + crash-rejoin: the same churn program under a
    // seeded drop/dup/reorder plan, a scheduled minority partition and
    // one crash-rejoin. The checksum is gated against the identical
    // sequential model as the fault-free run (loss must be invisible
    // to applications); the recovery counters are gated so the
    // reliable layer's behavior cannot drift silently.
    let t_lossy = Instant::now();
    let mut lossy = String::new();
    {
        let params = ChurnParams::smoke();
        let model = model_checksum(&params, 0);
        let mut cfg = RunConfig::new(System::Lots, 4, machine);
        cfg.dmm_bytes = 1 << 20;
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
        let (s, t) = (&out.stats, &out.traffic);
        assert_eq!(
            t.msgs_dropped(),
            0,
            "reliable layer must recover every loss"
        );
        assert!(t.msgs_retransmitted() > 0, "the plan must exercise loss");
        for (field, fresh) in [
            (
                "lossy_churn_s",
                format!("{:.6}", out.combined.elapsed.as_secs_f64()),
            ),
            ("lossy_retransmits", t.msgs_retransmitted().to_string()),
            ("lossy_dups_filtered", t.dups_filtered().to_string()),
            ("lossy_rejoin_rounds", s.rejoin_rounds().to_string()),
            ("lossy_rejoin_bytes", s.rejoin_bytes().to_string()),
            // The rejoin split: persistence is off here, so every byte
            // of the master rebuild comes from peers.
            ("lossy_rejoin_log_bytes", s.rejoin_log_bytes().to_string()),
            ("lossy_rejoin_peer_bytes", s.rejoin_peer_bytes().to_string()),
        ] {
            gate(field, &fresh);
            let _ = write!(lossy, "\n    \"{field}\": {fresh},");
        }
        println!(
            "lossy churn p=4 LOTS    {:>7.3} s  {} retransmits, {} dups filtered, \
             {} rejoin ({} B), checksum OK",
            out.combined.elapsed.as_secs_f64(),
            t.msgs_retransmitted(),
            t.dups_filtered(),
            s.rejoin_rounds(),
            s.rejoin_bytes()
        );
    }
    let lossy = lossy.trim_end_matches(',').to_string();
    let lossy_wall = t_lossy.elapsed().as_secs_f64();

    // Persistence: the churn program journaling every barrier interval
    // (every(4) checkpoints, background compaction) with one
    // crash-rejoin that rebuilds masters from the node's own journal.
    // A cold-start restore of the run's journals is then replayed and
    // must reproduce the answers and virtual time exactly; every
    // journal counter is virtual-deterministic and gated.
    let t_persist = Instant::now();
    let mut persist = String::new();
    {
        use std::sync::Arc;

        let params = ChurnParams::smoke();
        let model = model_checksum(&params, 0);
        let store = PersistStore::new(4);
        let mut cfg = RunConfig::new(System::Lots, 4, machine)
            .with_persist(PersistConfig::every(4), Some(store.clone()));
        cfg.dmm_bytes = 1 << 20;
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
        let stats = &first.stats;
        let log_records = stats.log_records();
        let log_bytes = stats.log_bytes_appended();
        let ckpt_bytes = stats.checkpoint_bytes();
        let compactions = stats.compaction_runs();
        let reclaimed = stats.compaction_bytes_reclaimed();
        let rejoin_log = stats.rejoin_log_bytes();
        let rejoin_peer = stats.rejoin_peer_bytes();
        assert!(log_records > 0 && ckpt_bytes > 0, "the journal must run");
        assert!(
            rejoin_log > 0,
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
        let replayed = again.stats.restore_replay_barriers();
        for (field, fresh) in [
            (
                "persist_churn_s",
                format!("{:.6}", first.exec_time.as_secs_f64()),
            ),
            ("persist_log_records", log_records.to_string()),
            ("persist_log_bytes", log_bytes.to_string()),
            ("persist_checkpoint_bytes", ckpt_bytes.to_string()),
            ("persist_compaction_runs", compactions.to_string()),
            ("persist_compaction_reclaimed_bytes", reclaimed.to_string()),
            ("persist_rejoin_log_bytes", rejoin_log.to_string()),
            ("persist_rejoin_peer_bytes", rejoin_peer.to_string()),
            ("persist_checkpoint_seq", checkpoint_seq.to_string()),
            ("persist_replay_barriers", replayed.to_string()),
        ] {
            gate(field, &fresh);
            let _ = write!(persist, "\n    \"{field}\": {fresh},");
        }
        println!(
            "persist churn p=4 LOTS  {:>7.3} s  {} records / {} B journaled, \
             {} compactions ({} B reclaimed), rejoin {} B log + {} B peers, \
             restore at {} replayed {} intervals bit-identically",
            first.exec_time.as_secs_f64(),
            log_records,
            log_bytes,
            compactions,
            reclaimed,
            rejoin_log,
            rejoin_peer,
            checkpoint_seq,
            replayed
        );
    }
    let persist = persist.trim_end_matches(',').to_string();
    let persist_wall = t_persist.elapsed().as_secs_f64();

    // Weak scaling under the engine: SOR with two rows per node and a
    // fixed-shape churn program at p = 4/16/64/256. Virtual seconds
    // and the scheduler's turns/wakes/epochs/hand-offs are functions of
    // the schedule and gated; host wall seconds are informative.
    let t_weak = Instant::now();
    let mut weak = String::new();
    for p in [4usize, 16, 64, 256] {
        let sor_params = SorParams { n: 2 * p, iters: 2 };
        let churn_params = ChurnParams {
            phases: 4,
            objs_per_phase: 1,
            elems: 1024,
            retain: 1,
            ckpt_elems: 16,
        };
        for (wl, run) in [
            ("sor", {
                let mut cfg = RunConfig::new(System::Lots, p, machine);
                cfg.dmm_bytes = 4 << 20;
                let t0 = Instant::now();
                let out = run_app(&cfg, sor_params);
                (out, t0.elapsed().as_secs_f64())
            }),
            ("churn", {
                let mut cfg = RunConfig::new(System::Lots, p, machine);
                cfg.dmm_bytes = 4 << 20;
                let t0 = Instant::now();
                let out = run_app(&cfg, churn_params);
                (out, t0.elapsed().as_secs_f64())
            }),
        ] {
            let (out, wall) = run;
            let sched = &out.sched;
            for (field, fresh) in [
                (
                    format!("{wl}_p{p}_s"),
                    format!("{:.6}", out.exec_time.as_secs_f64()),
                ),
                (format!("{wl}_p{p}_turns"), sched.turns.to_string()),
                (format!("{wl}_p{p}_wakes"), sched.wakes.to_string()),
                (format!("{wl}_p{p}_epochs"), sched.epochs.to_string()),
                (format!("{wl}_p{p}_handoffs"), sched.handoffs.to_string()),
            ] {
                gate(&field, &fresh);
                let _ = write!(weak, "\n    \"{field}\": {fresh},");
            }
            let field = format!("{wl}_p{p}_host_wall_s");
            gate_key(&field);
            let _ = write!(weak, "\n    \"{field}\": {wall:.4},");
            println!(
                "weak scaling {wl:<5} p={p:<3} {:>9.3} virtual s  {:>7.2} host s  \
                 {} turns / {} wakes / {} epochs",
                out.exec_time.as_secs_f64(),
                wall,
                sched.turns,
                sched.wakes,
                sched.epochs
            );
        }
    }
    let weak = weak.trim_end_matches(',').to_string();
    let weak_wall = t_weak.elapsed().as_secs_f64();

    // Hot object: one 256 MB named object, every node bulk-reading a
    // rotating chunk while a rotating writer rewrites its own — the
    // single-home bottleneck benchmark. Striped (4 MB segments,
    // per-segment homes settled by the init writes) at p = 4/16/64
    // against the single-home baseline (all segments Fixed(0), home
    // migration off) at p = 16. Aggregate read MB/s is virtual bytes
    // over virtual seconds — deterministic, gated. Checksums on every
    // run must match the sequential visibility model.
    let t_hot = Instant::now();
    let mut hot = String::new();
    {
        use lots_apps::hotobj::{model_node_checksum, HotParams};
        use lots_core::{Placement, Striping};
        let params = HotParams::bench();
        let run_hot = |p: usize, single_home: bool| {
            let mut cfg = RunConfig::new(System::Lots, p, machine);
            cfg.dmm_bytes = 448 << 20;
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
            let mbps = params.read_bytes() as f64 / out.combined.elapsed.as_secs_f64() / 1e6;
            (out, mbps)
        };
        let mut striped_mbps = Vec::new();
        for p in [4usize, 16, 64] {
            let (out, mbps) = run_hot(p, false);
            let published = out.stats.versions_published();
            let reclaimed = out.stats.versions_reclaimed();
            assert!(published > 0, "p={p}: no versions published");
            assert!(reclaimed > 0, "p={p}: no versions reclaimed");
            striped_mbps.push(mbps);
            for (field, fresh) in [
                (
                    format!("hot_p{p}_s"),
                    format!("{:.6}", out.combined.elapsed.as_secs_f64()),
                ),
                (format!("hot_p{p}_read_mbps"), format!("{mbps:.3}")),
                (
                    format!("hot_p{p}_home_ratio_permille"),
                    out.home_load_ratio_permille.to_string(),
                ),
                (
                    format!("hot_p{p}_versions_published"),
                    published.to_string(),
                ),
                (
                    format!("hot_p{p}_versions_reclaimed"),
                    reclaimed.to_string(),
                ),
            ] {
                gate(&field, &fresh);
                let _ = write!(hot, "\n    \"{field}\": {fresh},");
            }
            println!(
                "hot object 256MB striped  p={p:<3} {:>8.3} s  {:>9.1} MB/s read  \
                 home ratio {} permille, {} versions published / {} reclaimed",
                out.combined.elapsed.as_secs_f64(),
                mbps,
                out.home_load_ratio_permille,
                published,
                reclaimed
            );
        }
        let (base, base_mbps) = run_hot(16, true);
        for (field, fresh) in [
            (
                "hot_single16_s".to_string(),
                format!("{:.6}", base.combined.elapsed.as_secs_f64()),
            ),
            (
                "hot_single16_read_mbps".to_string(),
                format!("{base_mbps:.3}"),
            ),
            (
                "hot_single16_home_ratio_permille".to_string(),
                base.home_load_ratio_permille.to_string(),
            ),
        ] {
            gate(&field, &fresh);
            let _ = write!(hot, "\n    \"{field}\": {fresh},");
        }
        println!(
            "hot object 256MB 1-home   p=16  {:>8.3} s  {:>9.1} MB/s read  \
             home ratio {} permille",
            base.combined.elapsed.as_secs_f64(),
            base_mbps,
            base.home_load_ratio_permille
        );
        // The tentpole's acceptance bars: striping beats the single
        // home ≥ 3× at p = 16 and read throughput keeps climbing with
        // the node count.
        assert!(
            striped_mbps[1] >= 3.0 * base_mbps,
            "striping too slow: {:.1} MB/s vs 3x single-home {base_mbps:.1} MB/s",
            striped_mbps[1]
        );
        assert!(
            striped_mbps.windows(2).all(|w| w[1] > w[0]),
            "read throughput must scale with p: {striped_mbps:?}"
        );
    }
    let hot = hot.trim_end_matches(',').to_string();
    let hot_wall = t_hot.elapsed().as_secs_f64();

    // Host wall-clock per section: keys gated, values informative.
    let mut wall = String::new();
    for (field, secs) in [
        ("quickstart_host_wall_s", quick_wall),
        ("sor_host_wall_s", sor_wall),
        ("swap_host_wall_s", swap_wall),
        ("churn_host_wall_s", churn_wall),
        ("lossy_net_host_wall_s", lossy_wall),
        ("persistence_host_wall_s", persist_wall),
        ("weak_scaling_host_wall_s", weak_wall),
        ("hot_object_host_wall_s", hot_wall),
    ] {
        gate_key(field);
        let _ = write!(wall, "\n    \"{field}\": {secs:.4},");
    }
    let wall = wall.trim_end_matches(',').to_string();

    // Every gated number in the JSON is virtual/modeled and — under
    // the virtual-time engine — exactly reproducible, so CI gates the
    // whole file. The host-measured
    // check cost varies by machine, so it goes to stdout only.
    let json = format!(
        "{{\n  \"quickstart_ms\": {quick_ms:.4},\n  \"sor_256_p4\": {{{sor}\n  }},\n  \
         \"large_object_swap\": {{{swap}\n  }},\n  \
         \"object_churn\": {{{churn}\n  }},\n  \
         \"lossy_net\": {{{lossy}\n  }},\n  \
         \"persistence\": {{{persist}\n  }},\n  \
         \"weak_scaling\": {{{weak}\n  }},\n  \
         \"hot_object\": {{{hot}\n  }},\n  \
         \"host_wall\": {{{wall}\n  }},\n  \
         \"access_check_ns\": {{\n    \"modeled\": {},\n    \"modeled_pin\": {}\n  }}\n}}\n",
        cpu.access_check.0, cpu.pin_update.0
    );
    if check && drifted.get() {
        eprintln!(
            "virtual times or counters drifted from the committed \
             BENCH_summary.json — under the virtual-time engine that means the \
             execution or cost model changed; regenerate with \
             `cargo run --release -p lots-bench --bin bench_summary`"
        );
        std::process::exit(1);
    }
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    let [lots_ns, jia_ns] = [System::Lots, System::Jiajia].map(host_check_ns);
    let handoff_us = host_handoff_us();
    let pair = host_pair_cost();
    let jia_node_bytes = jiajia_sor_heap_per_node();
    println!(
        "quickstart {quick_ms:.2} ms; host checked read {lots_ns:.1} ns on LOTS, \
         {jia_ns:.1} ns on JIAJIA; hand-off {handoff_us:.2} us; object-node pair \
         {:.0} ns to register, {:.0} ns to drop at the first barrier, {:.1} heap bytes; \
         fresh node state {:.0} heap bytes; JIAJIA SOR p=64 {jia_node_bytes:.0} peak \
         heap bytes per node (host-dependent, not in JSON)",
        pair.register_ns, pair.drop_ns, pair.pair_bytes, pair.node_bytes
    );
    println!("wrote {out_path}");
}
