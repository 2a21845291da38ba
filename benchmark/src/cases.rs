//! One *case* = one cluster run of one kernel on one system, driven
//! through `run_cluster` / `run_jiajia_cluster` (and their `restore_*`
//! twins) with everything the reports expose harvested into plain
//! numbers. `lots_apps::run_app` builds its clusters the same way but
//! drops half of what the per-layer table needs (diff counts, fragment
//! counts, the diffing/handler time categories), so the benchmark
//! keeps `RunConfig` as the case description and reads the reports
//! itself.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use lots_apps::churn::{self, ChurnParams};
use lots_apps::hotobj::{self, HotParams};
use lots_apps::largeobj::{self, LargeObjParams};
use lots_apps::lu::{self, LuParams};
use lots_apps::me::{self, MeParams};
use lots_apps::rx::{self, RxParams};
use lots_apps::sor::{self, SorParams};
use lots_apps::{AppResult, RunConfig, System};
use lots_core::{
    restore_cluster, run_cluster, ClusterOptions, ClusterReport, DsmApi, DsmSlice, LotsConfig,
};
use lots_jiajia::{restore_jiajia_cluster, run_jiajia_cluster, JiaOptions, JiaReport};
use lots_net::TrafficStats;
use lots_persist::PersistStore;
use lots_sim::{NodeStats, SchedSummary, ALL_CATEGORIES};

use crate::spanned::Spanned;
use crate::trace::TraceSink;

/// SplitMix64 finalizer: the benchmark's own incompressible stream.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The benchmark-owned variant of Test 2 that varies compressibility:
/// even rows hold one constant (RLE collapses them to a run), odd rows
/// a SplitMix64 stream (RLE cannot shrink them), so the swap path sees
/// both extremes in one run.
#[derive(Debug, Clone, Copy)]
pub struct MixedRows {
    /// Rows of the shared array.
    pub rows: usize,
    /// `i32` elements per row.
    pub row_elems: usize,
    /// Stream seed of the odd rows.
    pub seed: u64,
}

impl MixedRows {
    fn value(&self, r: usize, i: usize) -> i32 {
        if r.is_multiple_of(2) {
            largeobj::row_value(r)
        } else {
            mix(self.seed ^ ((r as u64) << 32) ^ i as u64) as i32
        }
    }

    /// What node `me` of `p` must sum to: its rows, replayed
    /// sequentially.
    pub fn expected(&self, p: usize, me: usize) -> u64 {
        let mut sum = 0i64;
        for r in (me..self.rows).step_by(p) {
            for i in 0..self.row_elems {
                sum += self.value(r, i) as i64;
            }
        }
        sum as u64
    }

    /// Same phases as `large_object_test`: declare every row, fill my
    /// rows through one mutable view each, sum them back.
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        let (p, me) = (dsm.n(), dsm.me());
        let rows: Vec<D::Slice<'_, i32>> = (0..self.rows)
            .map(|_| dsm.alloc::<i32>(self.row_elems))
            .collect();
        dsm.barrier();
        let t0 = dsm.now();
        for r in (me..self.rows).step_by(p) {
            let mut v = rows[r].view_mut(0..self.row_elems);
            for (i, slot) in v.iter_mut().enumerate() {
                *slot = self.value(r, i);
            }
        }
        dsm.barrier();
        let mut sum = 0i64;
        for r in (me..self.rows).step_by(p) {
            sum += rows[r]
                .view(0..self.row_elems)
                .iter()
                .map(|&v| v as i64)
                .sum::<i64>();
            dsm.charge_compute(self.row_elems as u64);
        }
        dsm.barrier();
        AppResult {
            checksum: sum as u64,
            elapsed: dsm.now().saturating_sub(t0),
        }
    }
}

/// The program a case runs on every node.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    /// Merge sort (Figure 8a).
    Me(MeParams),
    /// LU factorization (Figure 8b).
    Lu(LuParams),
    /// Red-black SOR (Figure 8c).
    Sor(SorParams),
    /// Radix sort (Figure 8d).
    Rx(RxParams),
    /// Rolling alloc/free window with named checkpoints.
    Churn(ChurnParams),
    /// One large object, rotating writer, every node reading.
    Hot(HotParams),
    /// Table 1 Test 2.
    LargeObj(LargeObjParams),
    /// Test 2 with compressibility varied.
    MixedRows(MixedRows),
}

impl Kernel {
    /// Run on one node of any system.
    pub fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        match *self {
            Kernel::Me(p) => me::me(dsm, p),
            Kernel::Lu(p) => lu::lu(dsm, p),
            Kernel::Sor(p) => sor::sor(dsm, p),
            Kernel::Rx(p) => rx::rx(dsm, p),
            Kernel::Churn(p) => churn::run_churn(dsm, &p),
            Kernel::Hot(p) => hotobj::run_hot_object(dsm, &p),
            Kernel::LargeObj(p) => {
                let out = largeobj::large_object_test(dsm, p)
                    .unwrap_or_else(|e| panic!("large-object test: {e}"));
                AppResult {
                    checksum: out.sum as u64,
                    elapsed: out.elapsed,
                }
            }
            Kernel::MixedRows(p) => p.run(dsm),
        }
    }

    /// The sequential model's answer for a `p`-node run under cluster
    /// seed `seed`.
    pub fn expected(&self, seed: u64, p: usize) -> Expected {
        match *self {
            // ME and RX fold the cluster seed into their key-set seed.
            Kernel::Me(k) => Expected::Combined(me::me_sequential(
                MeParams {
                    seed: k.seed ^ seed,
                    ..k
                },
                p,
            )),
            Kernel::Rx(k) => Expected::Combined(rx::rx_sequential(
                RxParams {
                    seed: k.seed ^ seed,
                    ..k
                },
                p,
            )),
            Kernel::Lu(k) => Expected::Combined(lu::lu_sequential(k)),
            Kernel::Sor(k) => Expected::Combined(sor::sor_sequential(k)),
            Kernel::Churn(k) => Expected::PerNode(vec![churn::model_checksum(&k, seed); p]),
            Kernel::Hot(k) => Expected::PerNode(
                (0..p)
                    .map(|me| hotobj::model_node_checksum(&k, seed, p, me))
                    .collect(),
            ),
            Kernel::LargeObj(k) => Expected::Combined(largeobj::expected_sum(k) as u64),
            Kernel::MixedRows(k) => Expected::PerNode((0..p).map(|me| k.expected(p, me)).collect()),
        }
    }
}

/// What a case's per-node checksums are verified against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// One op per node: its checksum equals the model's.
    PerNode(Vec<u64>),
    /// One op: the wrapping sum over nodes equals the model's.
    Combined(u64),
}

/// Whether a case counts toward `virtual_s` or `virtual_baseline_s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Full LOTS in the headline configuration.
    Primary,
    /// LOTS-x, JIAJIA, single-home, legacy swap.
    Baseline,
}

/// One case of a workload. `cfg` carries `RunConfig::new` defaults for
/// everything the workload does not pin — in particular the library's
/// default `SchedulerMode`.
pub struct Case {
    /// Unique within the workload; also the trace process name.
    pub name: &'static str,
    /// Which virtual sum it feeds.
    pub role: Role,
    /// System, size, arenas, seed, faults, persistence.
    pub cfg: RunConfig,
    /// The program.
    pub kernel: Kernel,
    /// The sequential model's answer (computed during set-up).
    pub expected: Expected,
    /// Cross-system agreement group: cases sharing a group must report
    /// the same combined checksum.
    pub agree: Option<&'static str>,
}

impl Case {
    /// A case with its model answer computed.
    pub fn new(
        name: &'static str,
        role: Role,
        cfg: RunConfig,
        kernel: Kernel,
        agree: Option<&'static str>,
    ) -> Case {
        let expected = kernel.expected(cfg.seed, cfg.n);
        Case {
            name,
            role,
            cfg,
            kernel,
            expected,
            agree,
        }
    }
}

/// Summed-over-nodes counters, by per-layer metric name.
pub type Counts = BTreeMap<&'static str, u64>;

type NodeCounter = fn(&NodeStats, &TrafficStats) -> u64;

/// Every per-node counter both runtimes expose, under the per-layer
/// metric it feeds.
const NODE_COUNTERS: &[(&str, NodeCounter)] = &[
    ("net.bytes_sent", |_, t| t.bytes_sent()),
    ("net.msgs_sent", |_, t| t.msgs_sent()),
    ("net.fragments_sent", |_, t| t.fragments_sent()),
    ("net.retransmits", |_, t| t.msgs_retransmitted()),
    ("net.dups_filtered", |_, t| t.dups_filtered()),
    ("net.msgs_dropped", |_, t| t.msgs_dropped()),
    ("persist.log_records", |s, _| s.log_records()),
    ("persist.log_bytes", |s, _| s.log_bytes_appended()),
    ("persist.checkpoint_bytes", |s, _| s.checkpoint_bytes()),
    ("persist.compaction_runs", |s, _| s.compaction_runs()),
    ("persist.compaction_reclaimed_bytes", |s, _| {
        s.compaction_bytes_reclaimed()
    }),
    ("core.access_checks", |s, _| s.access_checks()),
    ("core.diffs_created", |s, _| s.diffs_created()),
    ("core.diff_bytes_sent", |s, _| s.diff_bytes_sent()),
    ("core.swaps_out", |s, _| s.swaps_out()),
    ("core.swaps_in", |s, _| s.swaps_in()),
    ("core.swap_out_bytes", |s, _| s.swap_out_bytes()),
    ("core.swap_batches", |s, _| s.swap_batches()),
    ("core.prefetch_hits", |s, _| s.prefetch_hits()),
    ("core.home_requests_served", |s, _| s.home_requests_served()),
    ("core.home_bytes_served", |s, _| s.home_bytes_served()),
    ("core.versions_published", |s, _| s.versions_published()),
    ("core.versions_reclaimed", |s, _| s.versions_reclaimed()),
    ("core.objects_freed", |s, _| s.objects_freed()),
    ("core.rejoin_log_bytes", |s, _| s.rejoin_log_bytes()),
    ("core.rejoin_peer_bytes", |s, _| s.rejoin_peer_bytes()),
    ("jiajia.page_faults", |s, _| s.page_faults()),
];

/// Everything one cluster run reported, on both clocks.
#[derive(Debug, Clone)]
pub struct CaseOut {
    /// Per-node kernel results.
    pub per_node: Vec<AppResult>,
    /// The report's virtual execution time, in nanoseconds.
    pub exec_ns: u64,
    /// Summed node counters plus the scheduler's turns/wakes/epochs.
    pub counts: Counts,
    /// Worst per-node DMM fragmentation at exit (LOTS only).
    pub frag_permille_max: u64,
    /// Largest per-node object-table size at exit (LOTS only).
    pub object_slots_max: u64,
    /// Hottest home's served bytes over the mean, in permille.
    pub home_load_ratio_permille: u64,
    /// Σ over nodes of `NodeStats::time_in`, per `ALL_CATEGORIES` slot.
    pub time_in_ns: [u64; 8],
    /// Host-side scheduler observations (`max_concurrent`, busy ns).
    pub sched: SchedSummary,
    /// Host wall of the run itself (a replay is timed separately).
    pub host_s: f64,
}

impl CaseOut {
    /// Wrapping sum of the per-node checksums.
    pub fn combined_checksum(&self) -> u64 {
        self.per_node
            .iter()
            .fold(0u64, |a, r| a.wrapping_add(r.checksum))
    }
}

/// What a persistent case adds: restore the journals, replay, compare.
#[derive(Debug, Clone)]
pub struct ReplayOut {
    /// The replay produced the same per-node answers.
    pub answers_equal: bool,
    /// … and the same virtual execution time.
    pub exec_equal: bool,
    /// Barriers re-executed beyond the checkpoint.
    pub replay_barriers: u64,
    /// Σ `PersistStore::log_bytes` after the original run — what the
    /// in-RAM journals hold.
    pub store_resident_bytes: u64,
    /// Host seconds in `PersistStore::restore`.
    pub restore_host_s: f64,
    /// Host seconds in `restore_cluster` / `restore_jiajia_cluster`.
    pub replay_host_s: f64,
}

/// A finished case.
#[derive(Debug, Clone)]
pub struct CaseRun {
    /// The (original) run.
    pub out: CaseOut,
    /// The restore + replay, for cases with persistence on.
    pub replay: Option<ReplayOut>,
}

fn harvest<'a>(
    per_node: Vec<AppResult>,
    exec_ns: u64,
    sched: Option<SchedSummary>,
    nodes: impl Iterator<Item = (&'a NodeStats, &'a TrafficStats)>,
    host_s: f64,
) -> CaseOut {
    let mut counts = Counts::new();
    let mut time_in_ns = [0u64; 8];
    let mut served = Vec::new();
    for (stats, traffic) in nodes {
        for &(key, read) in NODE_COUNTERS {
            *counts.entry(key).or_default() += read(stats, traffic);
        }
        for (slot, cat) in time_in_ns.iter_mut().zip(ALL_CATEGORIES) {
            *slot += stats.time_in(cat).0;
        }
        served.push(stats.home_bytes_served());
    }
    let sched = sched.expect("the benchmark runs engine modes only (no FreeRunning)");
    counts.insert("sim.turns", sched.turns);
    counts.insert("sim.wakes", sched.wakes);
    counts.insert("sim.epochs", sched.epochs);
    let total: u64 = served.iter().sum();
    let max = served.iter().copied().max().unwrap_or(0);
    CaseOut {
        per_node,
        exec_ns,
        counts,
        frag_permille_max: 0,
        object_slots_max: 0,
        home_load_ratio_permille: (max * served.len() as u64 * 1000)
            .checked_div(total)
            .unwrap_or(0),
        time_in_ns,
        sched,
        host_s,
    }
}

fn harvest_lots(per_node: Vec<AppResult>, report: &ClusterReport, host_s: f64) -> CaseOut {
    let mut out = harvest(
        per_node,
        report.exec_time.0,
        report.sched.clone(),
        report.nodes.iter().map(|n| (&n.stats, &n.traffic)),
        host_s,
    );
    out.frag_permille_max = report
        .nodes
        .iter()
        .map(|n| n.frag.external_frag_permille)
        .max()
        .unwrap_or(0);
    out.object_slots_max = report
        .nodes
        .iter()
        .map(|n| n.object_slots as u64)
        .max()
        .unwrap_or(0);
    out
}

fn harvest_jia(per_node: Vec<AppResult>, report: &JiaReport, host_s: f64) -> CaseOut {
    harvest(
        per_node,
        report.exec_time.0,
        report.sched.clone(),
        report.nodes.iter().map(|n| (&n.stats, &n.traffic)),
        host_s,
    )
}

/// `ClusterOptions` for a LOTS / LOTS-x case — the construction
/// `lots_apps::run_app` performs, minus the persist store (the caller
/// decides which store a run journals into).
fn lots_options(cfg: &RunConfig) -> ClusterOptions {
    let mut lots = match cfg.system {
        System::Lots => LotsConfig::small(cfg.dmm_bytes),
        System::LotsX => LotsConfig::lots_x(cfg.dmm_bytes),
        System::Jiajia => unreachable!("JIAJIA cases build JiaOptions"),
    };
    (cfg.lots_tweak)(&mut lots);
    if let Some(p) = &cfg.persist {
        lots = lots.with_persist(p.clone());
    }
    ClusterOptions::new(cfg.n, lots, cfg.machine)
        .with_seed(cfg.seed)
        .with_scheduler(cfg.scheduler)
        .with_faults(cfg.faults.clone())
        .with_topology(cfg.topology.clone())
        .with_analyze(cfg.analyze)
}

fn jia_options(cfg: &RunConfig) -> JiaOptions {
    let mut opts = JiaOptions::new(cfg.n, cfg.shared_bytes, cfg.machine)
        .with_seed(cfg.seed)
        .with_scheduler(cfg.scheduler)
        .with_faults(cfg.faults.clone())
        .with_topology(cfg.topology.clone())
        .with_analyze(cfg.analyze);
    if let Some(p) = &cfg.persist {
        opts = opts.with_persist(p.clone());
    }
    opts
}

/// Run `kernel` on one node, through the span-recording wrapper when a
/// sink is given: one `apps.kernel` span around the whole closure, one
/// `core.api.*` span per call inside it.
fn run_node<D: DsmApi + 'static>(
    kernel: Kernel,
    dsm: &D,
    trace: Option<(&TraceSink, &str)>,
) -> AppResult {
    let Some((sink, case)) = trace else {
        return kernel.run(dsm);
    };
    let now = || dsm.now().0;
    let rec = sink.recorder(&now);
    let result = {
        let _k = rec.span("apps.kernel");
        kernel.run(&Spanned::new(dsm, &rec))
    };
    sink.submit(case, dsm.me(), rec);
    result
}

/// Run one case (and, with persistence on, restore its journals and
/// replay them). `trace` wraps every node's kernel in the
/// span-recording `DsmApi`; replays are never traced.
pub fn run_case(case: &Case, trace: Option<&TraceSink>) -> CaseRun {
    let kernel = case.kernel;
    let store = case
        .cfg
        .persist
        .as_ref()
        .map(|_| PersistStore::new(case.cfg.n));
    let traced = trace.map(|sink| (sink.clone(), case.name));
    let timed = Instant::now();
    // The two runtimes' entry points differ only in their option and
    // report types; `$run`/`$restore` name the pair to use.
    macro_rules! drive {
        ($opts:expr, $run:ident, $restore:ident, $harvest:ident) => {{
            let mut opts = $opts;
            if let Some(s) = &store {
                opts = opts.with_persist_store(s.clone());
            }
            let (results, report) = $run(opts, move |dsm| {
                run_node(kernel, dsm, traced.as_ref().map(|(s, c)| (s, *c)))
            });
            let out = $harvest(results, &report, timed.elapsed().as_secs_f64());
            let replay = store.as_ref().map(|store| {
                let store_resident_bytes = (0..store.nodes()).map(|n| store.log_bytes(n)).sum();
                let t = Instant::now();
                let restored = store
                    .restore()
                    .unwrap_or_else(|e| panic!("{}: journals must restore: {e}", case.name));
                let restore_host_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let (again, report2) =
                    $restore(Arc::new(restored), $opts, move |dsm| kernel.run(dsm));
                ReplayOut {
                    answers_equal: again == out.per_node,
                    exec_equal: report2.exec_time == report.exec_time,
                    replay_barriers: report2
                        .nodes
                        .iter()
                        .map(|n| n.stats.restore_replay_barriers())
                        .sum(),
                    store_resident_bytes,
                    restore_host_s,
                    replay_host_s: t.elapsed().as_secs_f64(),
                }
            });
            CaseRun { out, replay }
        }};
    }
    match case.cfg.system {
        System::Lots | System::LotsX => drive!(
            lots_options(&case.cfg),
            run_cluster,
            restore_cluster,
            harvest_lots
        ),
        System::Jiajia => drive!(
            jia_options(&case.cfg),
            run_jiajia_cluster,
            restore_jiajia_cluster,
            harvest_jia
        ),
    }
}
