//! Every workload, on every system, must produce the sequential
//! reference result — the correctness backbone behind Figure 8: the
//! curves are only comparable because all three systems compute the
//! same answer.

use lots_apps::runner::{run_app, RunConfig, System};
use lots_apps::{lu, me, rx, sor};
use lots_sim::machine::p4_fedora;

const SYSTEMS: [System; 3] = [System::Lots, System::LotsX, System::Jiajia];

fn cfg(system: System, n: usize) -> RunConfig {
    let mut c = RunConfig::new(system, n, p4_fedora());
    // Small DMM keeps LOTS's swap machinery exercised even at test scale
    // (but large enough for LOTS-x to hold everything).
    c.dmm_bytes = 8 << 20;
    c.shared_bytes = 32 << 20;
    c
}

#[test]
fn sor_matches_sequential_on_all_systems() {
    let params = sor::SorParams { n: 32, iters: 8 };
    let expected = sor::sor_sequential(params);
    for system in SYSTEMS {
        for p in [1usize, 2, 4] {
            let out = run_app(&cfg(system, p), params);
            assert_eq!(
                out.combined.checksum,
                expected,
                "SOR {} p={p}",
                system.label()
            );
        }
    }
}

#[test]
fn lu_matches_sequential_on_all_systems() {
    let params = lu::LuParams { n: 24 };
    let expected = lu::lu_sequential(params);
    for system in SYSTEMS {
        for p in [1usize, 2, 4] {
            let out = run_app(&cfg(system, p), params);
            assert_eq!(
                out.combined.checksum,
                expected,
                "LU {} p={p}",
                system.label()
            );
        }
    }
}

#[test]
fn me_matches_sequential_on_all_systems() {
    for p in [1usize, 2, 4] {
        let params = me::MeParams {
            total: 512,
            seed: 11,
        };
        let expected = me::me_sequential(params, p);
        for system in SYSTEMS {
            let out = run_app(&cfg(system, p), params);
            assert_eq!(
                out.combined.checksum,
                expected,
                "ME {} p={p}",
                system.label()
            );
        }
    }
}

#[test]
fn rx_matches_sequential_on_all_systems() {
    for p in [1usize, 2, 4] {
        let params = rx::RxParams {
            total: 4096,
            passes: 2,
            seed: 5,
        };
        let expected = rx::rx_sequential(params, p);
        for system in SYSTEMS {
            let out = run_app(&cfg(system, p), params);
            assert_eq!(
                out.combined.checksum,
                expected,
                "RX {} p={p}",
                system.label()
            );
        }
    }
}

#[test]
fn lots_swapping_engages_under_pressure_without_changing_results() {
    // A DMM too small for the SOR working set: correctness must be
    // preserved while objects cycle through the backing store.
    // 128-column rows are 1 KB each (medium class, lower half); two
    // matrices × 128 rows ≫ the 48 KB lower half of a 96 KB arena.
    let params = sor::SorParams { n: 128, iters: 4 };
    let expected = sor::sor_sequential(params);
    let mut c = RunConfig::new(System::Lots, 2, p4_fedora());
    c.dmm_bytes = 96 * 1024;
    let out = run_app(&c, params);
    assert_eq!(out.combined.checksum, expected);
    assert!(out.stats.swaps_out() > 0, "swap machinery must engage");
    assert!(out.stats.swaps_in() > 0);
}
