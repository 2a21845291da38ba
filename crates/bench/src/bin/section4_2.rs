//! Regenerate the **§4.2** analysis: the overhead of the large-object
//! space support (LOTS vs LOTS-x), the per-access-check cost, and the
//! SOR-1024 access-checking time share.
//!
//! ```text
//! cargo run --release -p lots-bench --bin section4_2 [-- --quick]
//! ```

#![forbid(unsafe_code)]

use lots_apps::runner::{RunConfig, System};
use lots_bench::{host_check_ns, measure, App, APPS, CHECKED_READS};
use lots_sim::machine::{p4_fedora, pentium4_2ghz};
use lots_sim::TimeCategory;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let machine = p4_fedora();

    println!("§4.2 — overhead for large object support");
    println!();
    println!("(1) LOTS vs LOTS-x on the four applications, p = 4:");
    for app in APPS {
        let size = *app.sizes(false).last().expect("sizes");
        let lots = measure(app, size, false, RunConfig::new(System::Lots, 4, machine));
        let lotsx = measure(app, size, false, RunConfig::new(System::LotsX, 4, machine));
        let t = lots.outcome.combined.elapsed.as_secs_f64();
        let tx = lotsx.outcome.combined.elapsed.as_secs_f64();
        println!(
            "  {:<4} size {:>7}: LOTS {:>7.3}s  LOTS-x {:>7.3}s  overhead {:>5.1}%   \
             (paper: 10-15% for RX, <5% others)",
            app.short(),
            size,
            t,
            tx,
            (t / tx - 1.0) * 100.0
        );
    }

    println!();
    println!("(2) access-check cost:");
    let cpu = pentium4_2ghz();
    println!(
        "  modeled (calibrated to the paper's P4-2GHz): {} ns/check (+{} ns pinning)",
        cpu.access_check.0, cpu.pin_update.0
    );
    println!(
        "  host-measured fast path on this machine: {:.1} ns/check \
         (over {CHECKED_READS} checked reads; paper measured 20-25 ns)",
        host_check_ns(System::Lots)
    );

    println!();
    println!("(3) SOR access-check share (paper: n=1024, p=4, 256 iters ->");
    println!("    ~1.5e9 checks/process, 30-37 s of 55 s in checking):");
    let (n, iters_note) = if quick {
        (256, " [--quick: n=256]")
    } else {
        (1024, "")
    };
    let cfg = RunConfig::new(System::Lots, 4, machine);
    let pt = measure(App::Sor, n, !quick, cfg);
    let o = &pt.outcome;
    let per_process = o.stats.access_checks() / 4;
    let check_time = o.stats.time_in(TimeCategory::AccessCheck).as_secs_f64() / 4.0;
    let lo_time = o.stats.time_in(TimeCategory::LargeObject).as_secs_f64() / 4.0;
    let exec = o.combined.elapsed.as_secs_f64();
    println!(
        "  SOR n={n}{iters_note}: {per_process:.3e} checks/process; \
         check {check_time:.1}s + pin {lo_time:.1}s of {exec:.1}s execution \
         ({:.0}% of execution)",
        (check_time + lo_time) / exec * 100.0
    );
}
