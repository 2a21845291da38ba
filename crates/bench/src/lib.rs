//! `lots-bench` — harness code shared by the binaries that regenerate
//! the paper's tables and figures (see the README's "Paper tables" for
//! the binaries and what `bench_summary` pins).

#![forbid(unsafe_code)]

pub mod summary;

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lots_apps::adapter::{AppResult, DsmProgram};
use lots_apps::runner::{run_app, RunConfig, RunOutcome, System};
use lots_apps::{lu, me, rx, sor};
use lots_core::{DsmApi, DsmSlice};
use lots_sim::machine::p4_fedora;
use lots_sim::{SimDuration, TimeCategory};

/// The four Figure 8 applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Me,
    Lu,
    Sor,
    Rx,
}

pub const APPS: [App; 4] = [App::Me, App::Lu, App::Sor, App::Rx];

impl App {
    pub fn label(self) -> &'static str {
        match self {
            App::Me => "ME (merge sort)",
            App::Lu => "LU (factorization)",
            App::Sor => "SOR (red-black)",
            App::Rx => "RX (radix sort)",
        }
    }

    pub fn short(self) -> &'static str {
        match self {
            App::Me => "ME",
            App::Lu => "LU",
            App::Sor => "SOR",
            App::Rx => "RX",
        }
    }

    /// Default problem-size sweep (x-axis of the figure panel).
    /// `full` selects paper-scale sizes; otherwise laptop-scale ones
    /// that preserve the curves' shape.
    pub fn sizes(self, full: bool) -> Vec<usize> {
        match (self, full) {
            (App::Me, false) => vec![1 << 15, 1 << 16, 1 << 17],
            (App::Me, true) => vec![1 << 17, 1 << 18, 1 << 19, 1 << 20],
            (App::Lu, false) => vec![96, 144, 192],
            (App::Lu, true) => vec![256, 384, 512],
            (App::Sor, false) => vec![128, 192, 256],
            (App::Sor, true) => vec![512, 768, 1024],
            (App::Rx, false) => vec![1 << 15, 1 << 16, 1 << 17],
            (App::Rx, true) => vec![1 << 17, 1 << 18, 1 << 19],
        }
    }

    /// SOR iteration count (paper: 256).
    pub fn sor_iters(full: bool) -> usize {
        if full {
            256
        } else {
            32
        }
    }

    /// Run the app at `size` on any DSM.
    pub fn run<D: DsmApi>(self, dsm: &D, size: usize, full: bool) -> AppResult {
        match self {
            App::Me => me::me(
                dsm,
                me::MeParams {
                    total: size,
                    seed: 20040920,
                },
            ),
            App::Lu => lu::lu(dsm, lu::LuParams { n: size }),
            App::Sor => sor::sor(
                dsm,
                sor::SorParams {
                    n: size,
                    iters: Self::sor_iters(full),
                },
            ),
            App::Rx => rx::rx(
                dsm,
                rx::RxParams {
                    total: size,
                    passes: 2,
                    seed: 20040920,
                },
            ),
        }
    }
}

/// An [`App`] pinned to a problem size — the runnable unit the
/// runner dispatches ([`DsmProgram`]).
#[derive(Debug, Clone, Copy)]
pub struct AppAtSize {
    pub app: App,
    pub size: usize,
    pub full: bool,
}

impl DsmProgram for AppAtSize {
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        self.app.run(dsm, self.size, self.full)
    }
}

/// One Figure 8 measurement point.
#[derive(Debug, Clone)]
pub struct Point {
    pub app: App,
    pub system: System,
    pub p: usize,
    pub size: usize,
    pub outcome: RunOutcome,
}

/// Measure `app` at `size` on the run `cfg` describes (system, p,
/// machine, LOTS knobs), with the Figure 8 arenas.
pub fn measure(app: App, size: usize, full: bool, mut cfg: RunConfig) -> Point {
    // Plenty of DMM for the timed kernels: Figure 8 sizes fit in
    // memory on both systems (the paper chose "small problem sizes so
    // that the programs could work on both JIAJIA and LOTS").
    cfg.dmm_bytes = 96 << 20;
    cfg.shared_bytes = 192 << 20;
    let outcome = run_app(&cfg, AppAtSize { app, size, full });
    Point {
        app,
        system: cfg.system,
        p: cfg.n,
        size,
        outcome,
    }
}

/// Checked reads [`host_check_ns`] times.
pub const CHECKED_READS: u64 = 1_000_000;

/// The checked reads [`host_check_ns`] times: `read(i % 1024)` of a
/// resident 1 024-element array on a 1-node cluster. A lone task never
/// parks inside the loop, so the engine adds nothing to the reading;
/// the ns per read lands in the cell as `f64` bits.
struct CheckedReads(Arc<AtomicU64>);

impl DsmProgram for CheckedReads {
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        let a = dsm.alloc::<i64>(1024);
        a.write(0, 1);
        let t0 = Instant::now();
        let mut sink = 0i64;
        for i in 0..CHECKED_READS {
            sink = sink.wrapping_add(a.read((i % 1024) as usize));
        }
        let ns = t0.elapsed().as_nanos() as f64 / CHECKED_READS as f64;
        self.0.store(ns.to_bits(), Ordering::Relaxed);
        AppResult {
            checksum: sink as u64,
            elapsed: SimDuration::ZERO,
        }
    }
}

/// Host ns per checked read of a resident object on `system`: the
/// access check's fast path on this machine.
pub fn host_check_ns(system: System) -> f64 {
    let ns = Arc::new(AtomicU64::new(0));
    run_app(
        &RunConfig::new(system, 1, p4_fedora()),
        CheckedReads(ns.clone()),
    );
    f64::from_bits(ns.load(Ordering::Relaxed))
}

/// Render a per-panel table: rows = sizes, columns = systems.
pub fn render_panel(app: App, p: usize, points: &[Point]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "--- {} , p = {p} (seconds) ---", app.label());
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>10} {:>10}   LOTS vs JIAJIA",
        "size", "JIAJIA", "LOTS", "LOTS-x"
    );
    let mut sizes: Vec<usize> = points
        .iter()
        .filter(|pt| pt.app == app && pt.p == p)
        .map(|pt| pt.size)
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    for size in sizes {
        let find = |system: System| {
            points
                .iter()
                .find(|pt| pt.app == app && pt.p == p && pt.size == size && pt.system == system)
                .map(|pt| pt.outcome.combined.elapsed.as_secs_f64())
        };
        let jia = find(System::Jiajia);
        let lots = find(System::Lots);
        let lotsx = find(System::LotsX);
        let speedup = match (jia, lots) {
            (Some(j), Some(l)) if l > 0.0 => format!("{:+.1}%", (j - l) / j * 100.0),
            _ => "-".to_string(),
        };
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |s| format!("{s:.3}"));
        let _ = writeln!(
            out,
            "{:>10} {:>10} {:>10} {:>10}   {}",
            size,
            fmt(jia),
            fmt(lots),
            fmt(lotsx),
            speedup
        );
    }
    out
}

/// CSV rows for downstream plotting.
pub fn to_csv(points: &[Point]) -> String {
    let mut out = String::from(
        "app,system,p,size,seconds,bytes_sent,msgs_sent,access_checks,page_faults,\
         swaps_out,time_network_s,time_sync_s,time_check_s\n",
    );
    for pt in points {
        let o = &pt.outcome;
        let _ = writeln!(
            out,
            "{},{},{},{},{:.6},{},{},{},{},{},{:.6},{:.6},{:.6}",
            pt.app.short(),
            pt.system.label(),
            pt.p,
            pt.size,
            o.combined.elapsed.as_secs_f64(),
            o.traffic.bytes_sent(),
            o.traffic.msgs_sent(),
            o.stats.access_checks(),
            o.stats.page_faults(),
            o.stats.swaps_out(),
            o.stats.time_in(TimeCategory::Network).as_secs_f64(),
            o.stats.time_in(TimeCategory::SyncWait).as_secs_f64(),
            o.stats.time_in(TimeCategory::AccessCheck).as_secs_f64(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lots_sim::machine::p4_fedora;

    #[test]
    fn measure_one_point_per_system() {
        let mut points = Vec::new();
        for system in [System::Jiajia, System::Lots, System::LotsX] {
            points.push(measure(
                App::Lu,
                32,
                false,
                RunConfig::new(system, 2, p4_fedora()),
            ));
        }
        // All systems computed the same factorization.
        let sums: Vec<u64> = points.iter().map(|p| p.outcome.combined.checksum).collect();
        assert_eq!(sums[0], sums[1]);
        assert_eq!(sums[1], sums[2]);
        let panel = render_panel(App::Lu, 2, &points);
        assert!(panel.contains("LU"));
        assert!(panel.contains("32"));
        let csv = to_csv(&points);
        assert_eq!(csv.lines().count(), 4);
    }
}
