//! The paper's results, run once: every Figure 8 point at paper scale
//! (app × p ∈ {2, 4, 8, 16} × size on JIAJIA, LOTS and LOTS-x, with
//! the three systems' checksums asserted equal), the home-migration
//! and lock-protocol ablations, Table 1 with the §4.3 maximum-space
//! run, and §4.2. Prints the Figure 8 panels, Table 1 and §4.2 from
//! the rows, then writes or checks the committed `BENCH_paper.json`.
//!
//! ```text
//! cargo run --release -p lots-bench --bin bench_paper [-- --check] [--out PATH]
//! ```
//!
//! Without `--check` the run rewrites `./BENCH_paper.json` (or `PATH`);
//! under `--check` it fails on any drift of a virtual value and writes
//! only where `--out` points. The rows are `lots_bench::paper::table`.

#![forbid(unsafe_code)]

use lots_bench::{paper, summary};

fn main() {
    let rows = paper::table();
    print!("{}", paper::views(&rows));
    summary::gate("BENCH_paper.json", &rows);
}
