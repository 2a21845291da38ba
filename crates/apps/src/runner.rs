//! Uniform harness for running a workload on LOTS, LOTS-x or JIAJIA
//! and harvesting comparable measurements — the shape of every Figure 8
//! data point.
//!
//! Since every workload is generic over [`lots_core::DsmApi`], this is
//! pure dispatch: pick the system, boot its cluster, hand each node's
//! handle to the same [`DsmProgram`].

use lots_core::cluster::{ClusterSpec, Report};
use lots_core::{run_cluster, AnalyzeConfig, ClusterOptions, LotsConfig, RaceReport, TrafficStats};
use lots_jiajia::{run_jiajia_cluster, JiaOptions};
use lots_sim::{
    FaultPlan, MachineConfig, NodeStats, SchedSummary, SchedulerMode, SimDuration, SimInstant,
    TimeCategory, Topology,
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

/// One run's configuration.
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
    /// Protocol knobs for ablations (applied to LOTS/LOTS-x).
    pub lots_tweak: fn(&mut LotsConfig),
    /// Cluster seed: folded into the seeded workloads' RNG streams and
    /// surfaced in the reports.
    pub seed: u64,
    /// Engine mode (the sequential oracle by default).
    pub scheduler: SchedulerMode,
    /// Seeded fault injection.
    pub faults: FaultPlan,
    /// Per-link latency/bandwidth overrides (uniform by default).
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
            lots_tweak: |_| {},
            seed: 0,
            scheduler: SchedulerMode::Deterministic,
            faults: FaultPlan::none(),
            topology: Topology::uniform(),
            analyze: AnalyzeConfig::off(),
            persist: None,
            persist_store: None,
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

    /// Install per-link latency/bandwidth overrides.
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
    /// Total bytes sent on the interconnect.
    pub bytes_sent: u64,
    /// Total messages sent on the interconnect.
    pub msgs_sent: u64,
    /// Software access checks run (object-based systems only).
    pub access_checks: u64,
    /// SIGSEGV-modeled page faults (page-based systems only).
    pub page_faults: u64,
    /// Objects swapped out to the backing store.
    pub swaps_out: u64,
    /// Objects swapped back in.
    pub swaps_in: u64,
    /// Bytes actually written to the backing stores (post-compression).
    pub swap_out_bytes: u64,
    /// Batched eviction trips booked on the disk devices.
    pub swap_batches: u64,
    /// Swap-ins served from the read-ahead buffers.
    pub prefetch_hits: u64,
    /// Object/page requests this cluster's homes served (summed).
    pub home_requests_served: u64,
    /// Payload bytes those home replies carried (summed).
    pub home_bytes_served: u64,
    /// Hottest-home load imbalance: max per-node `home_bytes_served`
    /// over the per-node mean, in permille (1000 = perfectly even;
    /// `n × 1000` = one node served everything; 0 = no home traffic).
    pub home_load_ratio_permille: u64,
    /// Immutable segment versions published at barriers (striped
    /// objects; LOTS/LOTS-x only).
    pub versions_published: u64,
    /// Superseded segment versions reclaimed at barriers (striped
    /// objects; LOTS/LOTS-x only).
    pub versions_reclaimed: u64,
    /// Reclamation events of the lifecycle API summed over nodes:
    /// every node reclaims its local slot of a freed object, so one
    /// cluster-wide `free` counts `n` times here (divide by the
    /// cluster size for distinct objects).
    pub objects_freed: u64,
    /// Worst per-node external fragmentation of the DMM allocator at
    /// exit, in permille (LOTS/LOTS-x; 0 on page-based systems).
    pub frag_permille_max: u64,
    /// Largest per-node object-table slot count at exit (LOTS/LOTS-x;
    /// 0 on page-based systems). Bounded under churn while cumulative
    /// allocations grow — the control-space half of address reuse.
    pub object_slots_max: usize,
    /// Messages the lossy transport dropped past their retry budget
    /// (always 0 while retransmission is enabled).
    pub msgs_dropped: u64,
    /// Retransmission attempts the reliable layer paid for.
    pub msgs_retransmitted: u64,
    /// Duplicates discarded by the receive path's dedupe filters.
    pub dups_filtered: u64,
    /// Crash-rejoin rounds completed (LOTS/LOTS-x only).
    pub rejoin_rounds: u64,
    /// Total bytes those rejoins moved (local journal read-back plus
    /// peer traffic — the sum of the two fields below).
    pub rejoin_bytes: u64,
    /// Rejoin bytes read back from the node's own journal (persistence
    /// on; 0 otherwise).
    pub rejoin_log_bytes: u64,
    /// Rejoin bytes peers sent over the network (the directory plus —
    /// journal off — every rebuilt master, or — journal on — only the
    /// post-checkpoint deltas).
    pub rejoin_peer_bytes: u64,
    /// Persistence-journal records appended (0 with the journal off).
    pub log_records: u64,
    /// Persistence-journal bytes appended (write-behind).
    pub log_bytes_appended: u64,
    /// Background compaction runs completed.
    pub compaction_runs: u64,
    /// Journal bytes compaction squashed away.
    pub compaction_bytes_reclaimed: u64,
    /// Checkpoint manifest bytes written (part of `log_bytes_appended`).
    pub checkpoint_bytes: u64,
    /// Barriers re-executed beyond the checkpoint during a restore
    /// replay (0 outside `restore_cluster`/`restore_jiajia_cluster`).
    pub restore_replay_barriers: u64,
    /// Summed node time in access checking.
    pub time_access_check: SimDuration,
    /// Summed node time in large-object bookkeeping (mapping, pinning).
    pub time_large_object: SimDuration,
    /// Summed node time blocked on the network.
    pub time_network: SimDuration,
    /// Summed node time blocked in synchronization.
    pub time_sync: SimDuration,
    /// Summed node time in backing-store I/O.
    pub time_disk: SimDuration,
    /// Summed node time in application compute.
    pub time_compute: SimDuration,
    /// Whole-run scheduler counters; always `Some` (the `Option` is
    /// kept for source compatibility). `turns`/`wakes`/`epochs`/
    /// `handoffs` are pure functions of the simulated schedule;
    /// `worker_busy_ns` describes host execution only.
    pub sched: Option<SchedSummary>,
    /// Race-detector report (`Some` iff [`RunConfig::analyze`] asked
    /// for race detection).
    pub races: Option<RaceReport>,
}

impl RunOutcome {
    /// The paper's reported metric: the slowest node's timed section.
    pub fn time_secs(&self) -> f64 {
        self.combined.elapsed.as_secs_f64()
    }
}

/// Sum the per-node counters of a finished run into a [`RunOutcome`]
/// — the same harvest for every system. What a system does not have
/// (page faults on LOTS; access checks, swapping, versions, rejoins on
/// JIAJIA) reads 0 because its nodes never counted any; the
/// LOTS-only `frag_permille_max`/`object_slots_max` start at 0 for the
/// caller to fill.
fn harvest<N>(
    per_node: Vec<AppResult>,
    report: &Report<N>,
    parts: impl Fn(&N) -> (&NodeStats, &TrafficStats),
) -> RunOutcome {
    let nodes: Vec<_> = report.nodes.iter().map(parts).collect();
    let stat = |get: fn(&NodeStats) -> u64| -> u64 { nodes.iter().map(|(s, _)| get(s)).sum() };
    let traffic =
        |get: fn(&TrafficStats) -> u64| -> u64 { nodes.iter().map(|(_, t)| get(t)).sum() };
    let time = |cat: TimeCategory| -> SimDuration {
        SimDuration(nodes.iter().map(|(s, _)| s.time_in(cat).0).sum())
    };
    RunOutcome {
        combined: combine(&per_node),
        per_node,
        exec_time: report.exec_time,
        bytes_sent: traffic(TrafficStats::bytes_sent),
        msgs_sent: traffic(TrafficStats::msgs_sent),
        access_checks: stat(NodeStats::access_checks),
        page_faults: stat(NodeStats::page_faults),
        swaps_out: stat(NodeStats::swaps_out),
        swaps_in: stat(NodeStats::swaps_in),
        swap_out_bytes: stat(NodeStats::swap_out_bytes),
        swap_batches: stat(NodeStats::swap_batches),
        prefetch_hits: stat(NodeStats::prefetch_hits),
        home_requests_served: stat(NodeStats::home_requests_served),
        home_bytes_served: stat(NodeStats::home_bytes_served),
        home_load_ratio_permille: lots_sim::home_load_ratio_permille(
            nodes.iter().map(|(s, _)| s.home_bytes_served()),
        ),
        versions_published: stat(NodeStats::versions_published),
        versions_reclaimed: stat(NodeStats::versions_reclaimed),
        objects_freed: stat(NodeStats::objects_freed),
        frag_permille_max: 0,
        object_slots_max: 0,
        msgs_dropped: traffic(TrafficStats::msgs_dropped),
        msgs_retransmitted: traffic(TrafficStats::msgs_retransmitted),
        dups_filtered: traffic(TrafficStats::dups_filtered),
        rejoin_rounds: stat(NodeStats::rejoin_rounds),
        rejoin_bytes: stat(NodeStats::rejoin_bytes),
        rejoin_log_bytes: stat(NodeStats::rejoin_log_bytes),
        rejoin_peer_bytes: stat(NodeStats::rejoin_peer_bytes),
        log_records: stat(NodeStats::log_records),
        log_bytes_appended: stat(NodeStats::log_bytes_appended),
        compaction_runs: stat(NodeStats::compaction_runs),
        compaction_bytes_reclaimed: stat(NodeStats::compaction_bytes_reclaimed),
        checkpoint_bytes: stat(NodeStats::checkpoint_bytes),
        restore_replay_barriers: stat(NodeStats::restore_replay_barriers),
        time_access_check: time(TimeCategory::AccessCheck),
        time_large_object: time(TimeCategory::LargeObject),
        time_network: time(TimeCategory::Network),
        time_sync: time(TimeCategory::SyncWait),
        time_disk: time(TimeCategory::Disk),
        time_compute: time(TimeCategory::Compute),
        sched: report.sched.clone(),
        races: report.races.clone(),
    }
}

/// Run `prog` on the configured system and cluster size.
pub fn run_app<P: DsmProgram>(cfg: &RunConfig, prog: P) -> RunOutcome {
    let mut spec = ClusterSpec::new(cfg.n, cfg.machine);
    spec.seed = cfg.seed;
    spec.scheduler = cfg.scheduler;
    spec.faults = cfg.faults.clone();
    spec.topology = cfg.topology.clone();
    spec.analyze = cfg.analyze;
    spec.persist_store = cfg.persist_store.clone();
    match cfg.system {
        System::Lots | System::LotsX => {
            let mut lots = if cfg.system == System::Lots {
                LotsConfig::small(cfg.dmm_bytes)
            } else {
                LotsConfig::lots_x(cfg.dmm_bytes)
            };
            (cfg.lots_tweak)(&mut lots);
            if let Some(p) = &cfg.persist {
                lots = lots.with_persist(p.clone());
            }
            let opts = ClusterOptions {
                spec,
                ..ClusterOptions::new(cfg.n, lots, cfg.machine)
            };
            let (results, report) = run_cluster(opts, move |dsm| prog.run(dsm));
            let mut out = harvest(results, &report, |n| (&n.stats, &n.traffic));
            let nodes = report.nodes.iter();
            out.frag_permille_max = nodes
                .clone()
                .map(|n| n.frag.external_frag_permille)
                .max()
                .unwrap_or(0);
            out.object_slots_max = nodes.map(|n| n.object_slots).max().unwrap_or(0);
            out
        }
        System::Jiajia => {
            spec.persist = cfg.persist.clone();
            let opts = JiaOptions {
                spec,
                ..JiaOptions::new(cfg.n, cfg.shared_bytes, cfg.machine)
            };
            let (results, report) = run_jiajia_cluster(opts, move |dsm| prog.run(dsm));
            harvest(results, &report, |n| (&n.stats, &n.traffic))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::alloc_chunked;
    use lots_core::DsmApi;
    use lots_sim::machine::p4_fedora;

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
                elapsed: lots_sim::SimDuration::ZERO,
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
                elapsed: lots_sim::SimDuration::ZERO,
            }
        }
    }

    #[test]
    fn outcome_carries_system_specific_counters() {
        let lots = run_app(&RunConfig::new(System::Lots, 2, p4_fedora()), CounterKernel);
        assert!(lots.access_checks > 0);
        assert_eq!(lots.page_faults, 0);
        let jia = run_app(
            &RunConfig::new(System::Jiajia, 2, p4_fedora()),
            CounterKernel,
        );
        assert_eq!(jia.access_checks, 0);
        assert!(jia.page_faults > 0);
        // Everything else a page DSM has no notion of reads zero out
        // of the shared harvest because its nodes never count it.
        let zeros = [
            jia.swaps_out,
            jia.swaps_in,
            jia.swap_out_bytes,
            jia.swap_batches,
            jia.prefetch_hits,
            jia.versions_published,
            jia.versions_reclaimed,
            jia.frag_permille_max,
            jia.object_slots_max as u64,
            jia.rejoin_rounds,
            jia.rejoin_bytes,
            jia.time_large_object.0,
            jia.time_disk.0,
        ];
        assert_eq!(zeros, [0; 13]);
    }
}
