//! Check-accounting acceptance: the view-guard inner loops must
//! collapse the §4.2 software-check overhead by at least an order of
//! magnitude versus the element-wise port, without changing results.

use lots_apps::runner::{run_app, RunConfig, System};
use lots_apps::sor::{sor_sequential, SorParams};
use lots_sim::machine::p4_fedora;

#[test]
fn sor_views_run_10x_fewer_checks_than_elementwise() {
    let params = SorParams { n: 32, iters: 4 };
    let p = 2;
    let out = run_app(&RunConfig::new(System::Lots, p, p4_fedora()), params);
    assert_eq!(out.combined.checksum, sor_sequential(params), "correctness");

    // The seed's element-wise path charged, per row per sweep: n checks
    // for each of the up-to-3 stencil-source rows read (read_chunk),
    // n re-access checks (the b[r][c±1] accounting), and n checks for
    // the row write — ≥ 4n even ignoring boundary rows and the init/
    // checksum phases. Summed over 2·iters sweeps and all n rows of
    // the cluster:
    let n = params.n as u64;
    let elementwise_floor = 2 * params.iters as u64 * n * 4 * n;
    assert!(
        out.stats.access_checks() * 10 <= elementwise_floor,
        "view guards must cut checks ≥10×: got {} checks vs element-wise floor {}",
        out.stats.access_checks(),
        elementwise_floor
    );
    // And the guard path is itself accounted: at least one check per
    // row update (4 guards per row), so the counter is not silently
    // zero.
    assert!(
        out.stats.access_checks() >= 2 * params.iters as u64 * n,
        "guard checks must still be counted, got {}",
        out.stats.access_checks()
    );
}
