//! Quick calibration probe: one mid-size point per app × p × system.

#![forbid(unsafe_code)]

use lots_apps::runner::{RunConfig, System};
use lots_apps::rx;
use lots_bench::{measure, App};
use lots_sim::machine::p4_fedora;

fn main() {
    for total in [98304usize, 196608, 393216] {
        for p in [2usize, 4, 8, 16] {
            let mut line = format!("RX total {total:>7} p={p:>2}:");
            for system in [System::Jiajia, System::Lots, System::LotsX] {
                let params = rx::RxParams {
                    total,
                    passes: 2,
                    seed: 20040920,
                };
                let cfg = {
                    let mut c = RunConfig::new(system, p, p4_fedora());
                    c.dmm_bytes = 96 << 20;
                    c.shared_bytes = 192 << 20;
                    c
                };
                let out = lots_apps::runner::run_app(&cfg, params);
                line.push_str(&format!(
                    "  {}={:.3}s({:.1}MB)",
                    system.label(),
                    out.combined.elapsed.as_secs_f64(),
                    out.traffic.bytes_sent() as f64 / 1e6,
                ));
            }
            println!("{line}");
        }
    }
    // One LU/SOR/ME spot check at p=16 (the paper's largest cluster).
    for app in [App::Me, App::Lu, App::Sor] {
        let size = app.sizes(false)[1];
        let mut line = format!("{:>3} size {size:>6} p=16:", app.short());
        for system in [System::Jiajia, System::Lots] {
            let pt = measure(app, size, false, RunConfig::new(system, 16, p4_fedora()));
            line.push_str(&format!(
                "  {}={:.3}s",
                system.label(),
                pt.outcome.combined.elapsed.as_secs_f64()
            ));
        }
        println!("{line}");
    }
}
