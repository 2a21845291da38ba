//! Regenerate **Figure 8**: execution time of ME, LU, SOR and RX under
//! LOTS, LOTS-x and JIAJIA v1.1, across problem sizes and cluster
//! sizes (the paper's testbed: 16 × P-IV 2 GHz, 100 Mb Fast Ethernet).
//!
//! ```text
//! cargo run --release -p lots-bench --bin figure8 [-- --full] [--p 2,4,8,16]
//!     [--csv PATH] [--ablate-home] [--ablate-lock]
//! ```
//!
//! Default sizes are laptop-scale but shape-preserving; `--full` runs
//! paper-scale sizes (SOR 1024 with 256 iterations, etc.).

#![forbid(unsafe_code)]

use lots_apps::runner::{run_app, RunConfig, System};
use lots_bench::{measure, render_panel, to_csv, Point, APPS};
use lots_core::LockProtocol;
use lots_sim::machine::p4_fedora;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let ablate_home = args.iter().any(|a| a == "--ablate-home");
    let ablate_lock = args.iter().any(|a| a == "--ablate-lock");
    let ps: Vec<usize> = args
        .iter()
        .position(|a| a == "--p")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').map(|v| v.parse().expect("bad --p")).collect())
        .unwrap_or_else(|| vec![2, 4, 8, 16]);
    let csv_path = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .cloned();

    println!("Figure 8 — execution performance of LOTS (with and without large");
    println!("object space support) compared with JIAJIA V1.1");
    println!(
        "testbed: p in {ps:?} nodes, P4-2GHz/Fedora, 100Mb Fast Ethernet{}",
        if full {
            " (paper-scale sizes)"
        } else {
            " (reduced sizes)"
        }
    );
    println!();

    let machine = p4_fedora();
    let mut points: Vec<Point> = Vec::new();
    for app in APPS {
        for &p in &ps {
            for size in app.sizes(full) {
                for system in [System::Jiajia, System::Lots, System::LotsX] {
                    let pt = measure(app, size, full, RunConfig::new(system, p, machine));
                    eprintln!(
                        "  measured {} {} p={p} size={size}: {:.3}s",
                        app.short(),
                        system.label(),
                        pt.outcome.combined.elapsed.as_secs_f64()
                    );
                    points.push(pt);
                }
            }
            println!("{}", render_panel(app, p, &points));
        }
    }

    if ablate_home {
        println!("=== ablation: migrating home disabled (fixed homes at barriers) ===");
        for app in APPS {
            let size = app.sizes(full)[app.sizes(full).len() / 2];
            for &p in &ps {
                let mut cfg = RunConfig::new(System::Lots, p, machine);
                let base = measure(app, size, full, cfg.clone());
                cfg.lots.home_migration = false;
                let abl = measure(app, size, full, cfg);
                println!(
                    "  {} p={p} size={size}: migrating {:.3}s vs fixed {:.3}s ({:+.1}%)",
                    app.short(),
                    base.outcome.combined.elapsed.as_secs_f64(),
                    abl.outcome.combined.elapsed.as_secs_f64(),
                    (abl.outcome.combined.elapsed.as_secs_f64()
                        / base.outcome.combined.elapsed.as_secs_f64()
                        - 1.0)
                        * 100.0
                );
            }
        }
    }

    if ablate_lock {
        println!("=== ablation: write-invalidate locks instead of write-update ===");
        // A lock-heavy microkernel (migratory counter) shows the
        // protocol difference directly.
        use lots_apps::adapter::{alloc_chunked, AppResult, DsmProgram};
        use lots_core::DsmApi;
        struct MigratoryCounter;
        impl DsmProgram for MigratoryCounter {
            fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
                let a = alloc_chunked::<i64, D>(dsm, 1, 512);
                let t0 = dsm.now();
                for _ in 0..200 {
                    dsm.lock(1);
                    let v = a.read(0, 0);
                    a.write(0, 0, v + 1);
                    dsm.unlock(1);
                }
                dsm.barrier();
                AppResult {
                    checksum: a.read(0, 0) as u64,
                    elapsed: dsm.now().saturating_sub(t0),
                }
            }
        }
        for &p in &ps {
            let mk = |lock_protocol| {
                let mut cfg = RunConfig::new(System::Lots, p, machine);
                cfg.lots.lock_protocol = lock_protocol;
                run_app(&cfg, MigratoryCounter)
            };
            let wu = mk(LockProtocol::HomelessWriteUpdate);
            let wi = mk(LockProtocol::WriteInvalidate);
            println!(
                "  migratory-counter p={p}: write-update {:.3}s vs write-invalidate {:.3}s",
                wu.combined.elapsed.as_secs_f64(),
                wi.combined.elapsed.as_secs_f64()
            );
        }
    }

    if let Some(path) = csv_path {
        std::fs::write(&path, to_csv(&points)).expect("write CSV");
        println!("wrote {} points to {path}", points.len());
    }
}
