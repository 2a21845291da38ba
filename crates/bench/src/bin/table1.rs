//! Regenerate **Table 1** (§4.3): the large-object-space test on the
//! paper's platforms, plus the 117.77 GB maximum-space run on the
//! PowerEdge 6300 cluster.
//!
//! ```text
//! cargo run --release -p lots-bench --bin table1 [-- --quick] [--skip-max]
//! ```
//!
//! Default: the paper's configuration — 4 nodes, a shared 2-D integer
//! array of X rows × 1 M ints (4 MB rows) totalling > 4 GB, every
//! object swapped out once, execution dominated by disk time. `--quick`
//! divides the problem by 8 (shape only).
//!
//! The paper's system wrote *verbatim* swap images, and Table 1's whole
//! point is disk-time domination, so this bin pins
//! [`SwapConfig::legacy`]; the overhauled subsystem (compression,
//! batching, read-ahead) is measured by `bench_summary` and the
//! `large_object_space` example instead.

#![forbid(unsafe_code)]

use std::sync::Arc;

use lots_apps::largeobj::{expected_sum, large_object_test, LargeObjParams};
use lots_core::{run_cluster, ClusterOptions, DsmApi, DsmError, DsmSlice, LotsConfig, SwapConfig};
use lots_disk::ModeledStore;
use lots_sim::machine::{p3_redhat62, p3_redhat90, p4_fedora, poweredge6300};
use lots_sim::{MachineConfig, TimeCategory};

const NODES: usize = 4;

fn run_platform(machine: MachineConfig, params: LargeObjParams, dmm: usize) {
    let disk = machine.disk;
    let free = machine.free_disk_bytes;
    let lots = LotsConfig::small(dmm).with_swap(SwapConfig::legacy());
    let opts = ClusterOptions::new(NODES, lots, machine)
        .with_stores(move |_| Arc::new(ModeledStore::with_capacity(disk, free)));
    let (results, report) = run_cluster(opts, move |dsm| {
        large_object_test(dsm, params).expect("large-object test failed")
    });
    let total: i64 = results.iter().map(|r| r.sum).sum();
    assert_eq!(total, expected_sum(params), "data corrupted through swap");
    let exec = results
        .iter()
        .map(|r| r.elapsed)
        .max()
        .expect("at least one node");
    let disk_time = results
        .iter()
        .map(|r| r.stats.time_in(TimeCategory::Disk))
        .max()
        .expect("at least one node");
    let swaps: u64 = results.iter().map(|r| r.stats.swaps_out()).sum();
    println!(
        "{:<24} X={:>6} rows  space={:>7.2} GB  exec={:>8.1} s  disk r/w={:>8.1} s  swap-outs={}",
        machine.name,
        params.rows,
        params.total_bytes() as f64 / 1e9,
        exec.as_secs_f64(),
        disk_time.as_secs_f64(),
        swaps
    );
    let _ = report;
}

fn max_space_run(quick: bool) {
    let machine = poweredge6300();
    let row_bytes: u64 = 4 << 20;
    let scale = if quick { 64 } else { 1 };
    let capacity = machine.free_disk_bytes / scale;
    // Fill until each node's free disk is exhausted (§4.3: "we are able
    // to exhaust all the free space available in the hard disks").
    let rows_per_node = (capacity / row_bytes) as usize;
    let rows = rows_per_node * NODES;
    let disk = machine.disk;
    let lots = LotsConfig::small(32 << 20).with_swap(SwapConfig::legacy());
    let opts = ClusterOptions::new(NODES, lots, machine)
        .with_stores(move |_| Arc::new(ModeledStore::with_capacity(disk, capacity)));
    let row_elems = (row_bytes / 4) as usize;
    let (results, _report) = run_cluster(opts, move |dsm| {
        let rows_handles: Vec<_> = (0..rows).map(|_| dsm.alloc::<i32>(row_elems)).collect();
        dsm.barrier();
        // Touch every owned row so it materializes and later swaps out.
        for (r, h) in rows_handles.iter().enumerate() {
            if r % NODES == dsm.me() {
                h.write(0, r as i32);
            }
        }
        dsm.barrier();
        // Attempting one more row's worth of data must hit the disk
        // capacity limit — the space really is exhausted.
        let extra = dsm.alloc::<i32>(row_elems); // registering is always fine
        let exhausted = if dsm.me() == 0 {
            let mut hit_limit = false;
            // Touch enough extra objects to overflow the backing store.
            'outer: for _ in 0..64 {
                match dsm
                    .try_alloc::<i32>(row_elems)
                    .and_then(|h| h.try_read(0).map(drop))
                {
                    Ok(()) => {}
                    Err(DsmError::Disk(e)) => {
                        assert!(e.contains("full"), "unexpected disk error: {e}");
                        hit_limit = true;
                        break 'outer;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            hit_limit
        } else {
            true
        };
        let _ = extra;
        dsm.run_barrier();
        (dsm.swapped_bytes(), exhausted)
    });
    let swapped: u64 = results.iter().map(|(b, _)| *b).sum();
    let exhausted = results.iter().all(|(_, e)| *e);
    let object_space = rows as u64 * row_bytes;
    println!(
        "{:<24} shared object space allocated: {:.2} GB across {NODES} nodes \
         ({} rows x 4 MB; {:.2} GB on disk at exit; free space exhausted: {})",
        machine.name,
        object_space as f64 / 1e9,
        rows,
        swapped as f64 / 1e9,
        exhausted
    );
    if !quick {
        assert!(
            object_space as f64 / 1e9 > 117.0,
            "paper's 117.77 GB object space not reached"
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let skip_max = args.iter().any(|a| a == "--skip-max");
    let scale = if quick { 8 } else { 1 };

    // Paper: total size exceeding 4 GB → X = 1100 rows of 1M ints.
    let params = LargeObjParams {
        rows: 1100 / scale,
        row_elems: 1 << 20,
    };
    println!("Table 1 — testing the large object space support of LOTS on various platforms");
    println!(
        "({} nodes, {} rows x 4MB = {:.2} GB of shared objects{})",
        NODES,
        params.rows,
        params.total_bytes() as f64 / 1e9,
        if quick { ", --quick scale" } else { "" }
    );
    println!();
    for machine in [p3_redhat62(), p3_redhat90(), p4_fedora()] {
        run_platform(machine, params, 32 << 20);
    }
    if !skip_max {
        println!();
        println!("§4.3 maximum object space (Dell PowerEdge 6300 cluster):");
        max_space_run(quick);
    }
}
