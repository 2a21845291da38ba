//! `lots-bench` — the runs behind `bench_paper` (the paper's tables and
//! figures) and `bench_summary` (see the README's "Paper tables" for
//! what each pins).

#![forbid(unsafe_code)]

pub mod paper;
pub mod summary;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lots_apps::adapter::{AppResult, DsmProgram};
use lots_apps::runner::{run_app, RunConfig, RunOutcome, System};
use lots_apps::{lu, me, rx, sor};
use lots_core::{DsmApi, DsmSlice};
use lots_sim::machine::p4_fedora;
use lots_sim::SimDuration;

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

/// Measure `app` at `size` on the run `cfg` describes (system, p,
/// machine, LOTS knobs), with the Figure 8 arenas.
pub fn measure(app: App, size: usize, full: bool, mut cfg: RunConfig) -> RunOutcome {
    // Plenty of DMM for the timed kernels: Figure 8 sizes fit in
    // memory on both systems (the paper chose "small problem sizes so
    // that the programs could work on both JIAJIA and LOTS").
    cfg.dmm_bytes = 96 << 20;
    cfg.shared_bytes = 192 << 20;
    run_app(&cfg, AppAtSize { app, size, full })
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

#[cfg(test)]
mod tests {
    use super::*;
    use lots_sim::machine::p4_fedora;

    #[test]
    fn measure_one_point_per_system() {
        // All systems compute the same factorization.
        let sums = [System::Jiajia, System::Lots, System::LotsX]
            .map(|system| measure(App::Lu, 32, false, RunConfig::new(system, 2, p4_fedora())))
            .map(|o| o.combined.checksum);
        assert_eq!(sums[0], sums[1]);
        assert_eq!(sums[1], sums[2]);
    }
}
