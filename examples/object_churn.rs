//! Object lifecycle under churn: a rolling working set whose
//! **cumulative** allocation history dwarfs the fixed arena it runs
//! in — the dynamic-workload shape the alloc-once API could never
//! host. Address, slot and page reuse (free → tombstone →
//! barrier-wide reclamation) is what makes it fit; the checksum
//! (verified against a sequential model on every node) proves data
//! integrity through reuse, swap, named-directory churn and all three
//! placement policies, on LOTS, LOTS-x and JIAJIA alike.
//!
//! ```text
//! cargo run --release --example object_churn
//! LOTS_SMOKE=1 cargo run --release --example object_churn   # CI job
//! ```

use lots::apps::churn::{model_checksum, ChurnParams};
use lots::apps::{run_app, RunConfig, System};
use lots::sim::machine::p4_fedora;

const NODES: usize = 4;

fn main() {
    let smoke = std::env::var("LOTS_SMOKE").is_ok_and(|v| v == "1");
    let params = if smoke {
        ChurnParams::smoke()
    } else {
        ChurnParams {
            phases: 192,
            ..ChurnParams::smoke()
        }
    };
    // Arenas sized so the cumulative history overcommits each system
    // by at least 8×: LOTS swaps inside 1 MB, LOTS-x must keep the
    // live window permanently mapped in 2 MB, JIAJIA's shared space
    // is 2 MB of pages.
    let lots_dmm = 1 << 20;
    let lotsx_dmm = 2 << 20;
    let shared = 2 << 20;
    let model = model_checksum(&params, 0);
    let expected_freed_per_node =
        ((params.phases - params.retain) * params.objs_per_phase + params.phases - 1) as u64;

    println!(
        "churn: {} phases × {} objects of {} KB (+1 named checkpoint/phase), window {}",
        params.phases,
        params.objs_per_phase,
        params.elems * 4 / 1024,
        params.retain,
    );
    println!(
        "cumulative allocations {:.1} MB ({} objects), peak live {:.2} MB",
        params.cumulative_bytes() as f64 / 1e6,
        params.total_allocations(),
        params.peak_live_bytes() as f64 / 1e6,
    );

    for (system, arena) in [
        (System::Lots, lots_dmm),
        (System::LotsX, lotsx_dmm),
        (System::Jiajia, shared),
    ] {
        let mut cfg = RunConfig::new(system, NODES, p4_fedora());
        cfg.dmm_bytes = arena;
        cfg.shared_bytes = shared;
        let out = run_app(&cfg, params);
        let overcommit = params.cumulative_bytes() as f64 / arena as f64;
        assert!(
            overcommit >= 8.0,
            "{}: cumulative history must overcommit the arena ≥ 8×, got {overcommit:.1}×",
            system.label()
        );
        for (node, r) in out.per_node.iter().enumerate() {
            assert_eq!(
                r.checksum,
                model,
                "{} node {node}: churn checksum diverged from the sequential model",
                system.label()
            );
        }
        assert_eq!(
            out.stats.objects_freed(),
            expected_freed_per_node * NODES as u64,
            "{}: every retired generation and checkpoint reclaims on every node",
            system.label()
        );
        println!(
            "— {} ({:.1}× overcommit of {} KB) —",
            system.label(),
            overcommit,
            arena / 1024
        );
        println!(
            "  virtual time {:.3} s, checksum OK, {} frees/node",
            out.combined.elapsed.as_secs_f64(),
            expected_freed_per_node,
        );
        match system {
            System::Lots => {
                assert!(
                    out.stats.swaps_out() > 0,
                    "the 1 MB arena must force swapping under churn"
                );
                // Control space is reused, not grown: the slot table
                // stays at working-set size while the cumulative
                // history is hundreds of allocations.
                let slot_bound = (params.retain + 2) * params.objs_per_phase + 8;
                assert!(
                    out.object_slots_max <= slot_bound,
                    "slot table grew past the working set: {} > {slot_bound}",
                    out.object_slots_max
                );
                println!(
                    "  {} swap-outs / {} swap-ins, {} object-table slots for {} cumulative \
                     allocations, exit fragmentation {}‰",
                    out.stats.swaps_out(),
                    out.stats.swaps_in(),
                    out.object_slots_max,
                    params.total_allocations(),
                    out.frag_permille_max,
                );
            }
            System::LotsX => {
                assert_eq!(out.stats.swaps_out(), 0, "LOTS-x never swaps");
                println!(
                    "  fits permanently mapped only through address reuse \
                     ({} slots, exit fragmentation {}‰)",
                    out.object_slots_max, out.frag_permille_max,
                );
            }
            System::Jiajia => {
                println!(
                    "  page-granular reuse, {} page faults",
                    out.stats.page_faults()
                );
            }
        }
    }
    println!("all three systems agree with the sequential model: {model:#x}");
}
