//! The paper's results as data: every run behind Figure 8, the two
//! Figure 8 ablations, Table 1 (with the §4.3 maximum-space run) and
//! §4.2, each a set of rows of one [`Table`] that `bench_paper` writes
//! to (or checks against) `BENCH_paper.json`, and the printers that
//! show those rows as the paper does. The printers read rows only, so
//! what is printed is what is gated.
//!
//! Virtual seconds are gated at nanosecond precision — every virtual
//! time is a whole number of nanoseconds — so a printed figure read
//! back from its row equals the one computed from the run.

use std::fmt::Write as _;
use std::str::FromStr;
use std::sync::Arc;

use lots_apps::adapter::{alloc_chunked, AppResult, DsmProgram};
use lots_apps::largeobj::{expected_sum, large_object_test, LargeObjOutcome, LargeObjParams};
use lots_apps::runner::{run_app, RunConfig, System};
use lots_core::{
    run_cluster, ClusterOptions, DsmApi, DsmError, DsmSlice, LockProtocol, LotsConfig, SwapConfig,
};
use lots_disk::ModeledStore;
use lots_sim::machine::{p3_redhat62, p3_redhat90, p4_fedora, pentium4_2ghz, poweredge6300};
use lots_sim::{MachineConfig, SimDuration, TimeCategory};

use crate::summary::{Row, Table};
use crate::{host_check_ns, measure, App, APPS, CHECKED_READS};

/// Figure 8's cluster sizes.
const PS: [usize; 4] = [2, 4, 8, 16];

/// The three systems, keyed as in the rows, in Figure 8's column order.
const SYSTEMS: [(&str, System); 3] = [
    ("jiajia", System::Jiajia),
    ("lots", System::Lots),
    ("lotsx", System::LotsX),
];

/// Table 1's cluster size.
const NODES: usize = 4;

/// Table 1's shared array: X = 1 100 rows of 1 M ints, > 4 GB.
const TABLE1: LargeObjParams = LargeObjParams {
    rows: 1100,
    row_elems: 1 << 20,
};

/// Table 1's platforms, keyed as in the rows.
fn platforms() -> [(&'static str, MachineConfig); 3] {
    [
        ("p3_redhat62", p3_redhat62()),
        ("p3_redhat90", p3_redhat90()),
        ("p4_fedora", p4_fedora()),
    ]
}

/// The §4.3 maximum-space run's rows: 4 MB each.
const ROW_BYTES: u64 = 4 << 20;

/// Every paper run, in file order.
pub fn table() -> Vec<Row> {
    let mut t = Table::default();
    t.timed("figure8", "figure8");
    figure8(&mut t);
    t.timed("figure8_ablation", "figure8_ablation");
    figure8_ablation(&mut t);
    t.timed("table1", "table1");
    table1(&mut t);
    t.timed("section4_2", "section4_2");
    section4_2(&mut t);
    t.into_rows()
}

/// Virtual seconds as gated text: exact to the nanosecond.
fn secs(d: SimDuration) -> String {
    format!("{:.9}", d.as_secs_f64())
}

/// The row-key prefix of `app` at `size` on `p` nodes.
fn point(app: App, p: usize, size: usize) -> String {
    format!("{}_p{p}_n{size}", app.short().to_lowercase())
}

/// The reduced size the ablations run `app` at: the middle one.
fn ablation_size(app: App) -> usize {
    let sizes = app.sizes(false);
    sizes[sizes.len() / 2]
}

/// The reduced size §4.2 (1) runs `app` at: the largest.
fn overhead_size(app: App) -> usize {
    *app.sizes(false).last().expect("every app has sizes")
}

/// Figure 8 at paper scale: every app × p × size on the three systems,
/// each point's time, traffic, checks and the check and pin time §4.2
/// (3) reads, and one checksum per (app, p, size) that all three
/// systems must agree on.
fn figure8(t: &mut Table) {
    for app in APPS {
        for p in PS {
            for size in app.sizes(true) {
                let pt = point(app, p, size);
                let mut sums = Vec::new();
                for (sys, system) in SYSTEMS {
                    let o = measure(app, size, true, RunConfig::new(system, p, p4_fedora()));
                    sums.push(o.combined.checksum);
                    t.gated(format!("{pt}_{sys}_s"), secs(o.combined.elapsed));
                    t.gated(format!("{pt}_{sys}_bytes_sent"), o.traffic.bytes_sent());
                    t.gated(format!("{pt}_{sys}_access_checks"), o.stats.access_checks());
                    let check = o.stats.time_in(TimeCategory::AccessCheck);
                    t.gated(format!("{pt}_{sys}_check_s"), secs(check));
                    let pin = o.stats.time_in(TimeCategory::LargeObject);
                    t.gated(format!("{pt}_{sys}_pin_s"), secs(pin));
                }
                assert!(
                    sums.windows(2).all(|w| w[0] == w[1]),
                    "{} p={p} size={size}: JIAJIA, LOTS and LOTS-x disagree on the checksum: {sums:?}",
                    app.short()
                );
                t.gated(format!("{pt}_checksum"), sums[0]);
            }
        }
    }
}

/// The migratory counter: 200 lock-guarded increments per node of one
/// shared word, a lock-heavy kernel that shows the lock protocol
/// difference directly.
struct MigratoryCounter;

/// Increments per node of [`MigratoryCounter`].
const INCREMENTS: usize = 200;

impl DsmProgram for MigratoryCounter {
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        let a = alloc_chunked::<i64, D>(dsm, 1, 512);
        let t0 = dsm.now();
        for _ in 0..INCREMENTS {
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

/// The ablations on LOTS at the reduced mid sizes: fixed homes against
/// migrating ones on the four apps, and write-invalidate locks against
/// write-update on the migratory counter.
fn figure8_ablation(t: &mut Table) {
    for app in APPS {
        let size = ablation_size(app);
        for p in PS {
            let pt = point(app, p, size);
            let mut cfg = RunConfig::new(System::Lots, p, p4_fedora());
            let migrating = measure(app, size, false, cfg.clone());
            t.gated(
                format!("{pt}_migrating_s"),
                secs(migrating.combined.elapsed),
            );
            cfg.lots.home_migration = false;
            let fixed = measure(app, size, false, cfg);
            t.gated(format!("{pt}_fixed_s"), secs(fixed.combined.elapsed));
        }
    }
    for p in PS {
        for (key, protocol) in [
            ("write_update", LockProtocol::HomelessWriteUpdate),
            ("write_invalidate", LockProtocol::WriteInvalidate),
        ] {
            let mut cfg = RunConfig::new(System::Lots, p, p4_fedora());
            cfg.lots.lock_protocol = protocol;
            let o = run_app(&cfg, MigratoryCounter);
            t.gated(format!("migratory_p{p}_{key}_s"), secs(o.combined.elapsed));
            // What node 0 reads at the end: `INCREMENTS × p` unless
            // increments were lost.
            let count = o.per_node[0].checksum;
            t.gated(format!("migratory_p{p}_{key}_count"), count);
        }
    }
}

/// Table 1: the large-object test on each platform, then the §4.3
/// maximum-space run. The paper's system wrote *verbatim* swap images,
/// and Table 1's point is disk-time domination, so every run here pins
/// [`SwapConfig::legacy`]; the tuned swap subsystem is measured by
/// `bench_summary` and the `large_object_space` example.
fn table1(t: &mut Table) {
    for (key, machine) in platforms() {
        let (results, _) = run_cluster(table1_cluster(machine), |dsm| {
            large_object_test(dsm, TABLE1).expect("large-object test failed")
        });
        let total: i64 = results.iter().map(|r| r.sum).sum();
        assert_eq!(total, expected_sum(TABLE1), "data corrupted through swap");
        let slowest = |f: fn(&LargeObjOutcome) -> SimDuration| {
            secs(results.iter().map(f).max().expect("NODES nodes"))
        };
        t.gated(format!("{key}_exec_s"), slowest(|r| r.elapsed));
        t.gated(
            format!("{key}_disk_s"),
            slowest(|r| r.stats.time_in(TimeCategory::Disk)),
        );
        let swaps: u64 = results.iter().map(|r| r.stats.swaps_out()).sum();
        t.gated(format!("{key}_swaps_out"), swaps);
    }
    max_space(t);
}

/// Table 1's cluster on `machine`: 32 MB arenas, legacy swap images,
/// and the machine's free disk as each node's modelled backing store.
fn table1_cluster(machine: MachineConfig) -> ClusterOptions {
    let (disk, capacity) = (machine.disk, machine.free_disk_bytes);
    let lots = LotsConfig::small(32 << 20).with_swap(SwapConfig::legacy());
    ClusterOptions::new(NODES, lots, machine)
        .with_stores(move |_| Arc::new(ModeledStore::with_capacity(disk, capacity)))
}

/// §4.3's maximum object space: 4 MB rows on the PowerEdge 6300 cluster
/// until each node's free disk is exhausted ("we are able to exhaust
/// all the free space available in the hard disks"), then one more
/// allocation must hit the disk's capacity limit.
fn max_space(t: &mut Table) {
    let machine = poweredge6300();
    let rows = (machine.free_disk_bytes / ROW_BYTES) as usize * NODES;
    let row_elems = (ROW_BYTES / 4) as usize;
    let (results, _) = run_cluster(table1_cluster(machine), move |dsm| {
        let handles: Vec<_> = (0..rows).map(|_| dsm.alloc::<i32>(row_elems)).collect();
        dsm.barrier();
        // Touch every owned row so it materializes and later swaps out.
        for (r, h) in handles.iter().enumerate() {
            if r % NODES == dsm.me() {
                h.write(0, r as i32);
            }
        }
        dsm.barrier();
        let _extra = dsm.alloc::<i32>(row_elems); // registering is always fine
        let exhausted = dsm.me() != 0
            || (0..64).any(|_| {
                match dsm
                    .try_alloc::<i32>(row_elems)
                    .and_then(|h| h.try_read(0).map(drop))
                {
                    Ok(()) => false,
                    Err(DsmError::Disk(e)) => {
                        assert!(e.contains("full"), "unexpected disk error: {e}");
                        true
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            });
        dsm.run_barrier();
        (dsm.swapped_bytes(), exhausted)
    });
    let object_space = rows as u64 * ROW_BYTES;
    assert!(
        object_space as f64 / 1e9 > 117.0,
        "paper's 117.77 GB object space not reached"
    );
    t.gated("max_rows", rows);
    t.gated("max_object_space_bytes", object_space);
    let swapped: u64 = results.iter().map(|(b, _)| *b).sum();
    t.gated("max_swapped_bytes", swapped);
    t.gated("max_exhausted", results.iter().all(|(_, e)| *e));
}

/// §4.2: (1) LOTS and LOTS-x at each app's largest reduced size on
/// p = 4; (2) the modelled check and pin costs, and the host's checked
/// read on each system (host rows). Part (3) has no run of its own: it
/// reads Figure 8's SOR n = 1024, p = 4 LOTS point.
fn section4_2(t: &mut Table) {
    for app in APPS {
        let size = overhead_size(app);
        for (sys, system) in &SYSTEMS[1..] {
            let o = measure(app, size, false, RunConfig::new(*system, 4, p4_fedora()));
            t.gated(
                format!("{}_{sys}_s", point(app, 4, size)),
                secs(o.combined.elapsed),
            );
        }
    }
    let cpu = pentium4_2ghz();
    t.gated("modeled_check_ns", cpu.access_check.0);
    t.gated("modeled_pin_ns", cpu.pin_update.0);
    for (sys, system) in SYSTEMS {
        t.host(
            format!("{sys}_host_check_ns"),
            format!("{:.1}", host_check_ns(system)),
        );
    }
}

/// The value of row `section.key`.
///
/// # Panics
///
/// If no row has that name or its value does not parse as a `T`.
fn value<T: FromStr>(rows: &[Row], section: &str, key: &str) -> T {
    let row = rows
        .iter()
        .find(|r| r.section == section && r.key == key)
        .unwrap_or_else(|| panic!("no paper row {section}.{key}"));
    row.value
        .parse()
        .unwrap_or_else(|_| panic!("paper row {section}.{key} = {}", row.value))
}

/// Figure 8, Table 1 and §4.2 as the paper shows them, read off `rows`.
pub fn views(rows: &[Row]) -> String {
    let mut out = String::new();
    figure8_view(rows, &mut out);
    table1_view(rows, &mut out);
    section4_2_view(rows, &mut out);
    out
}

fn figure8_view(rows: &[Row], out: &mut String) {
    out.push_str("Figure 8 — execution performance of LOTS (with and without large\n");
    out.push_str("object space support) compared with JIAJIA V1.1\n");
    let _ = writeln!(
        out,
        "testbed: p in {PS:?} nodes, P4-2GHz/Fedora, 100Mb Fast Ethernet (paper-scale sizes)\n"
    );
    for app in APPS {
        for p in PS {
            let _ = writeln!(out, "--- {} , p = {p} (seconds) ---", app.label());
            let _ = writeln!(
                out,
                "{:>10} {:>10} {:>10} {:>10}   LOTS vs JIAJIA",
                "size", "JIAJIA", "LOTS", "LOTS-x"
            );
            for size in app.sizes(true) {
                out.push_str(&panel_line(rows, app, p, size));
            }
            out.push('\n');
        }
    }
    out.push_str("=== ablation: migrating home disabled (fixed homes at barriers) ===\n");
    for app in APPS {
        let size = ablation_size(app);
        for p in PS {
            let pt = point(app, p, size);
            let s = |run: &str| value::<f64>(rows, "figure8_ablation", &format!("{pt}_{run}_s"));
            let (migrating, fixed) = (s("migrating"), s("fixed"));
            let _ = writeln!(
                out,
                "  {} p={p} size={size}: migrating {migrating:.3}s vs fixed {fixed:.3}s ({:+.1}%)",
                app.short(),
                (fixed / migrating - 1.0) * 100.0
            );
        }
    }
    out.push_str("=== ablation: write-invalidate locks instead of write-update ===\n");
    for p in PS {
        let v = |field: &str| {
            value::<f64>(rows, "figure8_ablation", &format!("migratory_p{p}_{field}"))
        };
        let _ = writeln!(
            out,
            "  migratory-counter p={p}: write-update {:.3}s vs write-invalidate {:.3}s \
             (counter {} vs {} of {})",
            v("write_update_s"),
            v("write_invalidate_s"),
            v("write_update_count"),
            v("write_invalidate_count"),
            INCREMENTS * p
        );
    }
    out.push('\n');
}

/// One line of a Figure 8 panel: the three systems' seconds and LOTS'
/// gain over JIAJIA.
fn panel_line(rows: &[Row], app: App, p: usize, size: usize) -> String {
    let pt = point(app, p, size);
    let [jia, lots, lotsx] =
        SYSTEMS.map(|(sys, _)| value::<f64>(rows, "figure8", &format!("{pt}_{sys}_s")));
    format!(
        "{size:>10} {jia:>10.3} {lots:>10.3} {lotsx:>10.3}   {:+.1}%\n",
        (jia - lots) / jia * 100.0
    )
}

fn table1_view(rows: &[Row], out: &mut String) {
    out.push_str("Table 1 — testing the large object space support of LOTS on various platforms\n");
    let _ = writeln!(
        out,
        "({NODES} nodes, {} rows x 4MB = {:.2} GB of shared objects)\n",
        TABLE1.rows,
        TABLE1.total_bytes() as f64 / 1e9
    );
    for (key, machine) in platforms() {
        let v = |field: &str| value::<f64>(rows, "table1", &format!("{key}_{field}"));
        let _ = writeln!(
            out,
            "{:<24} X={:>6} rows  space={:>7.2} GB  exec={:>8.1} s  disk r/w={:>8.1} s  swap-outs={}",
            machine.name,
            TABLE1.rows,
            TABLE1.total_bytes() as f64 / 1e9,
            v("exec_s"),
            v("disk_s"),
            value::<u64>(rows, "table1", &format!("{key}_swaps_out"))
        );
    }
    let gb = |key: &str| value::<u64>(rows, "table1", key) as f64 / 1e9;
    let _ = writeln!(
        out,
        "\n§4.3 maximum object space (Dell PowerEdge 6300 cluster):\n\
         {:<24} shared object space allocated: {:.2} GB across {NODES} nodes \
         ({} rows x 4 MB; {:.2} GB on disk at exit; free space exhausted: {})\n",
        poweredge6300().name,
        gb("max_object_space_bytes"),
        value::<usize>(rows, "table1", "max_rows"),
        gb("max_swapped_bytes"),
        value::<bool>(rows, "table1", "max_exhausted")
    );
}

fn section4_2_view(rows: &[Row], out: &mut String) {
    out.push_str("§4.2 — overhead for large object support\n\n");
    out.push_str("(1) LOTS vs LOTS-x on the four applications, p = 4:\n");
    for app in APPS {
        out.push_str(&overhead_line(rows, app));
    }
    let host = |sys: &str| value::<f64>(rows, "section4_2", &format!("{sys}_host_check_ns"));
    let _ = writeln!(
        out,
        "\n(2) access-check cost:\n  \
         modeled (calibrated to the paper's P4-2GHz): {} ns/check (+{} ns pinning)\n  \
         host-measured fast path on this machine: {:.1} ns/check on LOTS, {:.1} on LOTS-x, \
         {:.1} on JIAJIA (over {CHECKED_READS} checked reads; paper measured 20-25 ns)\n",
        value::<u64>(rows, "section4_2", "modeled_check_ns"),
        value::<u64>(rows, "section4_2", "modeled_pin_ns"),
        host("lots"),
        host("lotsx"),
        host("jiajia")
    );
    out.push_str("(3) SOR access-check share (paper: n=1024, p=4, 256 iters ->\n");
    out.push_str("    ~1.5e9 checks/process, 30-37 s of 55 s in checking):\n");
    out.push_str(&checks_line(rows));
}

/// §4.2 (1) for `app`: LOTS' overhead over LOTS-x.
fn overhead_line(rows: &[Row], app: App) -> String {
    let size = overhead_size(app);
    let pt = point(app, 4, size);
    let s = |sys: &str| value::<f64>(rows, "section4_2", &format!("{pt}_{sys}_s"));
    let (t, tx) = (s("lots"), s("lotsx"));
    format!(
        "  {:<4} size {size:>7}: LOTS {t:>7.3}s  LOTS-x {tx:>7.3}s  overhead {:>5.1}%   \
         (paper: 10-15% for RX, <5% others)\n",
        app.short(),
        (t / tx - 1.0) * 100.0
    )
}

/// §4.2 (3): the checks per process and the check and pin share of
/// Figure 8's SOR n = 1024, p = 4 run on LOTS.
fn checks_line(rows: &[Row]) -> String {
    let pt = format!("{}_lots", point(App::Sor, 4, 1024));
    let v = |field: &str| value::<f64>(rows, "figure8", &format!("{pt}_{field}"));
    let per_process = value::<u64>(rows, "figure8", &format!("{pt}_access_checks")) / 4;
    let (check, pin, exec) = (v("check_s") / 4.0, v("pin_s") / 4.0, v("s"));
    format!(
        "  SOR n=1024: {per_process:.3e} checks/process; \
         check {check:.1}s + pin {pin:.1}s of {exec:.1}s execution \
         ({:.0}% of execution)\n",
        (check + pin) / exec * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(section: &'static str, key: &str, value: &str) -> Row {
        Row {
            section,
            key: key.to_string(),
            value: value.to_string(),
            host: false,
        }
    }

    #[test]
    fn the_printers_read_only_rows() {
        let rows = [
            row("figure8", "sor_p4_n1024_jiajia_s", "396.200000000"),
            row("figure8", "sor_p4_n1024_lots_s", "11.360000000"),
            row("figure8", "sor_p4_n1024_lotsx_s", "11.350000000"),
            row("figure8", "sor_p4_n1024_lots_access_checks", "2103299"),
            row("figure8", "sor_p4_n1024_lots_check_s", "0.046272578"),
            row("figure8", "sor_p4_n1024_lots_pin_s", "0.010516495"),
            row("section4_2", "rx_p4_n131072_lots_s", "1.100000000"),
            row("section4_2", "rx_p4_n131072_lotsx_s", "1.000000000"),
        ];
        assert_eq!(
            panel_line(&rows, App::Sor, 4, 1024),
            "      1024    396.200     11.360     11.350   +97.1%\n"
        );
        assert_eq!(
            overhead_line(&rows, App::Rx),
            "  RX   size  131072: LOTS   1.100s  LOTS-x   1.000s  overhead  10.0%   \
             (paper: 10-15% for RX, <5% others)\n"
        );
        assert_eq!(
            checks_line(&rows),
            "  SOR n=1024: 5.258e5 checks/process; check 0.0s + pin 0.0s of 11.4s \
             execution (0% of execution)\n"
        );
    }
}
