//! The headline feature: a shared object space larger than the DMM
//! area, backed by the local disk (a miniature Table 1 / §4.3 run).
//!
//! Four nodes share 256 MB of objects through 16 MB DMM arenas — 16×
//! more data than fits — with a real file-backed swap store. Every row
//! is written, swapped out, and read back; the checksum proves data
//! integrity through the disk round trip.
//!
//! The run executes twice: once over the pre-overhaul swap path
//! (linear-scan LRU, one victim per trip, verbatim images) and once
//! over the tuned subsystem (pin-aware segmented LRU, 8-victim batched
//! write-behind, stride read-ahead, RLE-compressed images). Both must
//! produce the same checksum; the tuned run must be faster in virtual
//! time and write fewer bytes to disk.
//!
//! ```text
//! cargo run --release --example large_object_space
//! LOTS_SMOKE=1 cargo run --release --example large_object_space   # CI tiny-arena job
//! ```

use std::sync::Arc;

use lots::apps::largeobj::{expected_sum, large_object_test, LargeObjOutcome, LargeObjParams};
use lots::core::{run_cluster, ClusterOptions, LotsConfig, SwapConfig};
use lots::disk::FileStore;
use lots::sim::machine::p4_fedora;
use lots::sim::{NodeStats, SimInstant, TimeCategory};

struct RunSummary {
    exec_time: SimInstant,
    results: Vec<LargeObjOutcome>,
}

impl RunSummary {
    /// The nodes' counters, summed.
    fn sum(&self) -> NodeStats {
        let sum = NodeStats::new();
        for r in &self.results {
            sum.absorb(&r.stats);
        }
        sum
    }
}

fn run(params: LargeObjParams, dmm_bytes: usize, swap: SwapConfig, nodes: usize) -> RunSummary {
    let machine = p4_fedora();
    let disk = machine.disk;
    let opts = ClusterOptions::new(nodes, LotsConfig::small(dmm_bytes).with_swap(swap), machine)
        // Real files in a temp spool directory — the paper's mechanism.
        .with_stores(move |node| {
            Arc::new(FileStore::temp(disk).unwrap_or_else(|e| panic!("node {node} spool: {e}")))
        });
    let (results, report) = run_cluster(opts, move |dsm| {
        let out = large_object_test(dsm, params).expect("large-object run");
        // §3.3 invariant: every materialized byte is resident or swapped.
        let acct = dsm.swap_accounting();
        assert_eq!(
            acct.resident_logical + acct.swapped_logical,
            acct.materialized,
            "resident + swapped must equal the materialized bytes"
        );
        out
    });
    RunSummary {
        exec_time: report.exec_time,
        results,
    }
}

fn main() {
    // LOTS_SMOKE=1: the CI tiny-arena job — 8 MB of objects through
    // 1 MB DMMs (8× overcommit), small enough to finish in a blink.
    let smoke = std::env::var("LOTS_SMOKE").is_ok_and(|v| v == "1");
    const NODES: usize = 4;
    let (params, dmm) = if smoke {
        (
            LargeObjParams {
                rows: 128,
                row_elems: 16 * 1024, // 64 KB rows → 8 MB of shared objects
            },
            1 << 20,
        )
    } else {
        (
            LargeObjParams {
                rows: 256,
                row_elems: 256 * 1024, // 1 MB rows → 256 MB of shared objects
            },
            16 << 20,
        )
    };

    println!(
        "allocating {:.0} MB of shared objects against {} MB DMM arenas…",
        params.total_bytes() as f64 / 1e6,
        dmm >> 20,
    );
    let legacy = run(params, dmm, SwapConfig::legacy(), NODES);
    let tuned = run(params, dmm, SwapConfig::tuned(), NODES);

    for (label, summary) in [("legacy LRU", &legacy), ("tuned", &tuned)] {
        let total: i64 = summary.results.iter().map(|r| r.sum).sum();
        assert_eq!(total, expected_sum(params), "{label}: swap corrupted data");
        let sum = summary.sum();
        let disk_share = summary
            .results
            .iter()
            .map(|r| r.stats.time_in(TimeCategory::Disk))
            .max()
            .expect("nodes");
        println!("— {label} —");
        println!(
            "  virtual time {:.3} s (disk share {:.3} s on the slowest node), checksum OK: {total}",
            summary.exec_time.as_secs_f64(),
            disk_share.as_secs_f64(),
        );
        println!(
            "  {} swap-outs / {} swap-ins, {:.2} MB written in {} batched trips, \
             {} read-ahead hits",
            sum.swaps_out(),
            sum.swaps_in(),
            sum.swap_out_bytes() as f64 / 1e6,
            sum.swap_batches(),
            sum.prefetch_hits(),
        );
        assert!(
            sum.swaps_out() > 0,
            "the object space exceeded the DMM area, so swapping must occur"
        );
    }

    let legacy_out = legacy.sum().swap_out_bytes();
    let tuned_out = tuned.sum().swap_out_bytes();
    assert!(
        tuned.exec_time < legacy.exec_time,
        "tuned swap subsystem must beat the legacy path ({} vs {})",
        tuned.exec_time,
        legacy.exec_time
    );
    assert!(
        tuned_out < legacy_out,
        "compression must shrink swap-out bytes ({tuned_out} vs {legacy_out})"
    );
    println!(
        "tuned subsystem: {:.1}× faster, {:.1}× fewer swap-out bytes",
        legacy.exec_time.as_secs_f64() / tuned.exec_time.as_secs_f64(),
        legacy_out as f64 / tuned_out as f64,
    );
}
