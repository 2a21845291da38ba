//! Uniform harness for running a workload on LOTS, LOTS-x or JIAJIA
//! and harvesting comparable measurements — the shape of every Figure 8
//! data point.
//!
//! Since every workload is generic over [`lots_core::DsmApi`], this is
//! pure dispatch: pick the system, boot its cluster, hand each node's
//! handle to the same [`DsmProgram`].

use std::sync::Arc;

use lots_core::cluster::{ClusterSpec, NodeRecord, Report};
use lots_core::{
    run_cluster, AnalyzeConfig, ClusterOptions, ConfigError, LotsConfig, RaceReport,
    RestoredCluster, TrafficStats,
};
use lots_jiajia::{run_jiajia_cluster, JiaOptions};
use lots_sim::{
    FaultPlan, MachineConfig, NodeStats, SchedSummary, SchedulerMode, SimDuration, SimInstant,
    Topology,
};

use crate::adapter::{combine, AppResult, DsmProgram};

/// The three systems of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// The full LOTS system.
    Lots,
    /// LOTS without large-object-space support (§4.1/§4.2 ablation).
    LotsX,
    /// The page-based JIAJIA v1.1 baseline.
    Jiajia,
}

impl System {
    /// Human-readable label used in tables and plots.
    pub fn label(self) -> &'static str {
        match self {
            System::Lots => "LOTS",
            System::LotsX => "LOTS-x",
            System::Jiajia => "JIAJIA",
        }
    }
}

/// One run's configuration: everything that decides what a run does.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which system executes the workload.
    pub system: System,
    /// Cluster size.
    pub n: usize,
    /// Simulated machine (CPU, network, disk models).
    pub machine: MachineConfig,
    /// DMM arena per node (LOTS) — shrink to engage swapping.
    pub dmm_bytes: usize,
    /// Shared space (JIAJIA).
    pub shared_bytes: usize,
    /// Every LOTS/LOTS-x knob. Its `dmm_bytes`, `large_object_space`
    /// and `persist` come from [`RunConfig::dmm_bytes`],
    /// [`RunConfig::system`] and [`RunConfig::persist`].
    pub lots: LotsConfig,
    /// Applied to the LOTS configuration last. Prefer
    /// [`RunConfig::lots`]: this fn-pointer form stays for callers
    /// that still assign it.
    pub lots_tweak: fn(&mut LotsConfig),
    /// Cluster seed: folded into the seeded workloads' RNG streams and
    /// surfaced in the reports.
    pub seed: u64,
    /// Engine mode. It has one value; the field stays for callers that
    /// still assign it.
    pub scheduler: SchedulerMode,
    /// Seeded fault injection.
    pub faults: FaultPlan,
    /// Network shape. It has one value, the uniform switch; the field
    /// stays for callers that still assign it.
    pub topology: Topology,
    /// Correctness analysis (off by default; enabling it never
    /// changes virtual times or workload results).
    pub analyze: AnalyzeConfig,
    /// Persistence journal configuration (`None` — the default —
    /// disables it; measurements are then bit-identical to earlier
    /// builds). Applies to every system: LOTS journals object diffs,
    /// JIAJIA page diffs.
    pub persist: Option<lots_core::PersistConfig>,
    /// Caller-owned journal store, to restore from after the run (only
    /// meaningful with [`RunConfig::persist`] set).
    pub persist_store: Option<lots_core::PersistStore>,
    /// Replay against a restored journal (see
    /// [`lots_core::cluster::ClusterSpec::restore`]).
    pub restore: Option<Arc<RestoredCluster>>,
}

impl RunConfig {
    /// Defaults: 64 MB DMM arenas, 128 MB JIAJIA shared space, the
    /// deterministic scheduler, seed 0, no faults.
    pub fn new(system: System, n: usize, machine: MachineConfig) -> RunConfig {
        RunConfig {
            system,
            n,
            machine,
            dmm_bytes: 64 << 20,
            shared_bytes: 128 << 20,
            lots: LotsConfig::default(),
            lots_tweak: |_| {},
            seed: 0,
            scheduler: SchedulerMode::Deterministic,
            faults: FaultPlan::none(),
            topology: Topology::uniform(),
            analyze: AnalyzeConfig::off(),
            persist: None,
            persist_store: None,
            restore: None,
        }
    }

    /// Enable the persistence journal (see
    /// [`lots_core::PersistConfig`]), optionally with a caller-owned
    /// store to restore from later.
    pub fn with_persist(
        mut self,
        persist: lots_core::PersistConfig,
        store: Option<lots_core::PersistStore>,
    ) -> RunConfig {
        self.persist = Some(persist);
        self.persist_store = store;
        self
    }

    /// Set the network shape (there is one; kept for source
    /// compatibility).
    pub fn with_topology(mut self, topology: Topology) -> RunConfig {
        self.topology = topology;
        self
    }
}

/// Harvested measurements of one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Cluster-combined checksum and timed-section duration.
    pub combined: AppResult,
    /// Per-node results.
    pub per_node: Vec<AppResult>,
    /// Full virtual execution time (slowest node, includes init).
    pub exec_time: SimInstant,
    /// Every node counter and category time, summed over nodes. What a
    /// system does not have (page faults on LOTS; access checks,
    /// swapping, versions, rejoins on JIAJIA) reads 0. Note that every
    /// node reclaims its local slot of a freed object, so one
    /// cluster-wide `free` counts `n` times in `objects_freed`.
    pub stats: NodeStats,
    /// Every traffic counter, summed over nodes.
    pub traffic: TrafficStats,
    /// Hottest-home load imbalance: max per-node `home_bytes_served`
    /// over the per-node mean, in permille (1000 = perfectly even;
    /// `n × 1000` = one node served everything; 0 = no home traffic).
    pub home_load_ratio_permille: u64,
    /// Worst per-node external fragmentation of the DMM allocator at
    /// exit, in permille (LOTS/LOTS-x; 0 on page-based systems).
    pub frag_permille_max: u64,
    /// Largest per-node object-table slot count at exit (LOTS/LOTS-x;
    /// 0 on page-based systems). Bounded under churn while cumulative
    /// allocations grow — the control-space half of address reuse.
    pub object_slots_max: usize,
    /// Whole-run scheduler counters. `turns`/`wakes`/`epochs`/
    /// `handoffs` are pure functions of the simulated schedule;
    /// `worker_busy_ns` describes host execution only.
    pub sched: SchedSummary,
    /// Per node: its final clock and Σ `time_in` over the categories.
    pub clocks: Vec<(SimInstant, SimDuration)>,
    /// Race-detector report (`Some` iff [`RunConfig::analyze`] asked
    /// for race detection).
    pub races: Option<RaceReport>,
    /// The run's [`Report::fingerprint`]: equal iff two runs were
    /// indistinguishable.
    pub fingerprint: String,
}

/// Sum the per-node counters of a finished run into a [`RunOutcome`]
/// — the same harvest for every system. The LOTS-only
/// `frag_permille_max`/`object_slots_max` start at 0 for the caller to
/// fill.
fn harvest<N: NodeRecord>(per_node: Vec<AppResult>, report: &Report<N>) -> RunOutcome {
    let (stats, traffic) = (NodeStats::new(), TrafficStats::new());
    let mut clocks = Vec::with_capacity(report.nodes.len());
    for node in &report.nodes {
        let (clock, s, t) = node.common();
        stats.absorb(s);
        traffic.absorb(t);
        clocks.push((clock, s.total_accounted()));
    }
    RunOutcome {
        combined: combine(&per_node),
        per_node,
        exec_time: report.exec_time,
        stats,
        traffic,
        home_load_ratio_permille: report.home_load_ratio_permille(),
        frag_permille_max: 0,
        object_slots_max: 0,
        sched: report
            .sched
            .clone()
            .expect("the engine reports its counters"),
        clocks,
        races: report.races.clone(),
        fingerprint: report.fingerprint(),
    }
}

/// The options one system's cluster boots with.
enum Options {
    Lots(ClusterOptions),
    Jiajia(JiaOptions),
}

impl RunConfig {
    /// What [`run_app`] would be rejected with, asked without starting
    /// anything: the system's options' `check`.
    pub fn check(&self) -> Result<(), ConfigError> {
        match self.options() {
            Options::Lots(opts) => opts.check(),
            Options::Jiajia(opts) => opts.check(),
        }
    }

    /// The options [`run_app`] runs and [`RunConfig::check`] checks.
    fn options(&self) -> Options {
        let mut spec = ClusterSpec::new(self.n, self.machine);
        spec.seed = self.seed;
        spec.scheduler = self.scheduler;
        spec.faults = self.faults.clone();
        spec.topology = self.topology.clone();
        spec.analyze = self.analyze;
        spec.persist_store = self.persist_store.clone();
        spec.restore = self.restore.clone();
        match self.system {
            System::Lots | System::LotsX => {
                let mut lots = LotsConfig {
                    dmm_bytes: self.dmm_bytes,
                    large_object_space: self.system == System::Lots,
                    persist: self.persist.clone(),
                    ..self.lots.clone()
                };
                (self.lots_tweak)(&mut lots);
                Options::Lots(ClusterOptions {
                    spec,
                    ..ClusterOptions::new(self.n, lots, self.machine)
                })
            }
            System::Jiajia => Options::Jiajia(JiaOptions {
                spec,
                persist: self.persist.clone(),
                ..JiaOptions::new(self.n, self.shared_bytes, self.machine)
            }),
        }
    }
}

/// Run `prog` on the configured system and cluster size. Panics with
/// the [`RunConfig::check`] error before any task exists if the
/// configuration is rejected.
pub fn run_app<P: DsmProgram>(cfg: &RunConfig, prog: P) -> RunOutcome {
    match cfg.options() {
        Options::Lots(opts) => {
            let (results, report) = run_cluster(opts, move |dsm| prog.run(dsm));
            let mut out = harvest(results, &report);
            let nodes = report.nodes.iter();
            out.frag_permille_max = nodes
                .clone()
                .map(|n| n.frag.external_frag_permille)
                .max()
                .unwrap_or(0);
            out.object_slots_max = nodes.map(|n| n.object_slots).max().unwrap_or(0);
            out
        }
        Options::Jiajia(opts) => {
            let (results, report) = run_jiajia_cluster(opts, move |dsm| prog.run(dsm));
            harvest(results, &report)
        }
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::adapter::alloc_chunked;
    use lots_core::{DsmApi, PersistConfig, PersistStore};
    use lots_jiajia::PAGE_BYTES;
    use lots_sim::machine::p4_fedora;
    use lots_sim::{CrashFault, Partition, SimDuration, TimeCategory};

    struct TrivialKernel;

    impl DsmProgram for TrivialKernel {
        fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
            let a = alloc_chunked::<i64, D>(dsm, 4, 16);
            if dsm.me() == 0 {
                for c in 0..4 {
                    a.write(c, 3, (c * 10) as i64);
                }
            }
            dsm.barrier();
            let sum: i64 = (0..4).map(|c| a.read(c, 3)).sum();
            AppResult {
                checksum: sum as u64,
                elapsed: SimDuration::ZERO,
            }
        }
    }

    #[test]
    fn all_systems_agree_on_a_trivial_kernel() {
        for system in [System::Lots, System::LotsX, System::Jiajia] {
            let cfg = RunConfig::new(system, 2, p4_fedora());
            let out = run_app(&cfg, TrivialKernel);
            assert_eq!(out.combined.checksum, 2 * 60, "{}", system.label());
        }
    }

    struct CounterKernel;

    impl DsmProgram for CounterKernel {
        fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
            let a = alloc_chunked::<i64, D>(dsm, 2, 1024);
            a.write(dsm.me() % 2, 0, 1);
            dsm.barrier();
            let _ = a.read(0, 0);
            AppResult {
                checksum: 0,
                elapsed: SimDuration::ZERO,
            }
        }
    }

    #[test]
    fn outcome_carries_system_specific_counters() {
        let lots = run_app(&RunConfig::new(System::Lots, 2, p4_fedora()), CounterKernel);
        assert!(lots.stats.access_checks() > 0);
        assert_eq!(lots.stats.page_faults(), 0);
        let jia = run_app(
            &RunConfig::new(System::Jiajia, 2, p4_fedora()),
            CounterKernel,
        );
        assert_eq!(jia.stats.access_checks(), 0);
        assert!(jia.stats.page_faults() > 0);
        // The rows a page DSM counts too: its faults, diffs, home
        // service and frees, and the driver's journal rows. Every other
        // row is LOTS-only and reads zero out of the shared harvest
        // because JIAJIA's nodes never count it.
        const PAGE_DSM_ROWS: [&str; 13] = [
            "page_faults",
            "diffs_created",
            "diff_bytes_sent",
            "home_requests_served",
            "home_bytes_served",
            "objects_freed",
            "freed_object_bytes",
            "log_records",
            "log_bytes_appended",
            "compaction_runs",
            "compaction_bytes_reclaimed",
            "checkpoint_bytes",
            "restore_replay_barriers",
        ];
        for row in lots_sim::COUNTERS {
            if !PAGE_DSM_ROWS.contains(&row.name) {
                assert_eq!((row.get)(&jia.stats), 0, "{}", row.name);
            }
        }
        for cat in [TimeCategory::LargeObject, TimeCategory::Disk] {
            assert_eq!(jia.stats.time_in(cat), SimDuration::ZERO, "{}", cat.name());
        }
        assert_eq!((jia.frag_permille_max, jia.object_slots_max), (0, 0));
    }

    /// Application closures that started: a refused run starts none.
    static STARTED: AtomicUsize = AtomicUsize::new(0);

    fn started<D>(_: &D) {
        STARTED.fetch_add(1, Ordering::Relaxed);
    }

    /// [`started`] as a program for `run_app`.
    struct Started;

    impl DsmProgram for Started {
        fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
            started(dsm);
            let elapsed = SimDuration::ZERO;
            AppResult {
                checksum: 0,
                elapsed,
            }
        }
    }

    /// The text `run` panicked with.
    fn panic_text(run: impl FnOnce()) -> String {
        let e = catch_unwind(AssertUnwindSafe(run)).expect_err("the run is refused");
        e.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    /// One minimal configuration per `ConfigError` variant: `check`
    /// answers it by value, and `run_cluster` or `run_jiajia_cluster`,
    /// and `run_app`, panic with exactly its text before any node's
    /// application closure runs.
    #[test]
    fn every_refused_configuration_is_a_value_before_any_task() {
        let store = PersistStore::new(2);
        let journaled = LotsConfig::small(1 << 20).with_persist(PersistConfig::every(1));
        let opts = ClusterOptions::new(2, journaled, p4_fedora()).with_persist_store(store.clone());
        run_cluster(opts, |dsm| dsm.barrier());
        let restored = Some(Arc::new(store.restore().expect("journals restore")));
        let on = |system, n| RunConfig::new(system, n, p4_fedora());
        let (start, end, islanders) = (SimInstant::ZERO, SimInstant(1), vec![2]);
        let partitions = vec![Partition {
            start,
            end,
            islanders,
        }];
        let (node, at_barrier, reboot) = (1, 1, SimDuration::ZERO);
        let crash_node = Some(CrashFault {
            node,
            at_barrier,
            reboot,
        });
        let bytes = PAGE_BYTES + 4;
        use ConfigError::*;
        let rows = [
            (NoNodes, on(System::Jiajia, 0)),
            (
                RestoreWithoutPersistence,
                RunConfig {
                    restore: restored.clone(),
                    ..on(System::Lots, 2)
                },
            ),
            (
                RestoreSizeMismatch { restored: 2, n: 3 },
                RunConfig {
                    restore: restored,
                    ..on(System::Jiajia, 3)
                }
                .with_persist(PersistConfig::every(1), None),
            ),
            (
                FaultNodeOutsideCluster { node: 2, n: 2 },
                RunConfig {
                    faults: FaultPlan {
                        partitions,
                        ..FaultPlan::none()
                    },
                    ..on(System::LotsX, 2)
                },
            ),
            (
                CrashRejoinUnsupported,
                RunConfig {
                    faults: FaultPlan {
                        crash_node,
                        ..FaultPlan::none()
                    },
                    ..on(System::Jiajia, 2)
                },
            ),
            (
                SharedSpaceNotPageGranular { bytes },
                RunConfig {
                    shared_bytes: bytes,
                    ..on(System::Jiajia, 2)
                },
            ),
        ];
        for (want, cfg) in rows {
            assert_eq!(cfg.check(), Err(want.clone()));
            let direct = panic_text(|| match cfg.options() {
                Options::Lots(opts) => drop(run_cluster(opts, started)),
                Options::Jiajia(opts) => drop(run_jiajia_cluster(opts, started)),
            });
            assert_eq!(direct, want.to_string());
            assert_eq!(panic_text(|| drop(run_app(&cfg, Started))), direct);
        }
        assert_eq!(STARTED.load(Ordering::Relaxed), 0, "a refused run started");
        // A node id past u32 does not fit a home; `check` allocates
        // nothing per node, so the cluster is never built.
        let n = u32::MAX as usize + 2;
        let max = n - 1;
        assert_eq!(on(System::Lots, n).check(), Err(TooManyNodes { n, max }));
    }
}
