//! LOTS vs JIAJIA head-to-head on SOR — one Figure 8(c) point with the
//! full causal story: execution time, traffic, faults, and where the
//! virtual time went on each system.
//!
//! ```text
//! cargo run --release --example sor_showdown
//! ```

use lots::apps::runner::{run_app, RunConfig, System};
use lots::apps::sor::{sor_sequential, SorParams};
use lots::sim::machine::p4_fedora;
use lots::sim::TimeCategory;

fn main() {
    let params = SorParams { n: 256, iters: 32 };
    let p = 4;
    let expected = sor_sequential(params);

    println!(
        "SOR red-black, grid {0}x{0}, {1} iterations, p = {p}",
        params.n, params.iters
    );
    println!();
    for system in [System::Jiajia, System::Lots, System::LotsX] {
        let cfg = RunConfig::new(system, p, p4_fedora());
        let out = run_app(&cfg, params);
        assert_eq!(
            out.combined.checksum,
            expected,
            "{} diverged",
            system.label()
        );
        println!(
            "{:<7}  {:>8.3} s   {:>8.2} MB traffic   {:>9} faults   {:>11} checks",
            system.label(),
            out.combined.elapsed.as_secs_f64(),
            out.traffic.bytes_sent() as f64 / 1e6,
            out.stats.page_faults(),
            out.stats.access_checks(),
        );
        println!(
            "         network {:>7.3} s | sync {:>7.3} s | checks {:>7.3} s | compute {:>7.3} s (summed over nodes)",
            out.stats.time_in(TimeCategory::Network).as_secs_f64(),
            out.stats.time_in(TimeCategory::SyncWait).as_secs_f64(),
            out.stats.time_in(TimeCategory::AccessCheck).as_secs_f64() + out.stats.time_in(TimeCategory::LargeObject).as_secs_f64(),
            out.stats.time_in(TimeCategory::Compute).as_secs_f64(),
        );
    }
    println!();
    println!("why LOTS wins here (§4.1): every row is a single-writer object, so");
    println!("the migrating-home protocol makes each slice home-local after the");
    println!("first barrier, while the page-based baseline keeps flushing diffs to");
    println!("round-robin homes and refetching falsely-shared boundary pages.");
}
