//! LOTS on the cluster driver: the object-coherence [`Protocol`].
//!
//! [`run_cluster`] boots `n` simulated LOTS processes through
//! [`crate::cluster::run`], which owns everything a run does
//! regardless of protocol — the application and comm tasks on the
//! virtual-time engine, the interconnect with its seeded faults,
//! journals and compaction daemons, panic poisoning and triage,
//! teardown, report assembly. What is LOTS-specific lives
//! here: building a [`NodeState`] and a [`Dsm`], serving an object's
//! copy or applying a barrier diff to it on the comm task (the paper's
//! SIGIO handler, §3.6; the driver owns the messages), and the
//! LOTS-only columns of the node report. Two runs with the same
//! [`ClusterOptions`] produce byte-identical [`ClusterReport`]s, under
//! any installed schedule script.

use std::sync::Arc;

use lots_disk::{BackingStore, ModeledStore};
use lots_net::{NodeId, TrafficStats};
use lots_persist::{PersistConfig, RestoredCluster};
use lots_sim::{BlockReason, CpuModel, MachineConfig, NodeStats, SimClock, SimInstant};

use crate::api::Dsm;
use crate::cluster::{self, ClusterSpec, NodeRecord, NodeSummary, Protocol, Seat, Served};
use crate::config::LotsConfig;
use crate::consistency::barrier::BarrierService;
use crate::consistency::locks::LockService;
use crate::diff::WordDiff;
use crate::error::{ConfigError, DsmError};
use crate::node::NodeState;
use crate::object::{ObjectId, MAX_NODES, STRIPE_CHILD};

/// Everything needed to start a LOTS cluster run.
pub struct ClusterOptions {
    /// The protocol-independent part: size, machine, seed, faults,
    /// analysis, journal store (see
    /// [`ClusterSpec`] and the `with_*` builders).
    pub spec: ClusterSpec,
    /// LOTS protocol configuration, persistence included
    /// ([`LotsConfig::persist`]).
    pub lots: LotsConfig,
    /// Backing-store factory, one store per node. Defaults to
    /// unbounded [`ModeledStore`]s timed by the machine's disk model.
    pub store_factory: Box<dyn Fn(NodeId) -> Arc<dyn BackingStore> + Send + Sync>,
}

impl ClusterOptions {
    /// Options with the default in-memory backing stores and
    /// [`ClusterSpec::new`]'s defaults.
    pub fn new(n: usize, lots: LotsConfig, machine: MachineConfig) -> ClusterOptions {
        let disk = machine.disk;
        ClusterOptions {
            spec: ClusterSpec::new(n, machine),
            lots,
            store_factory: Box::new(move |_| Arc::new(ModeledStore::new(disk))),
        }
    }

    /// Why this run may not start, if it may not: [`ClusterSpec`]'s
    /// rules, then a cluster too large for an object's home to name.
    pub fn check(&self) -> Result<(), ConfigError> {
        self.spec.check(self.lots.persist.is_some())?;
        let (n, max) = (self.spec.n, MAX_NODES);
        if n > max {
            return Err(ConfigError::TooManyNodes { n, max });
        }
        Ok(())
    }

    /// Replace the backing-store factory (e.g. file-backed spools).
    pub fn with_stores(
        mut self,
        f: impl Fn(NodeId) -> Arc<dyn BackingStore> + Send + Sync + 'static,
    ) -> ClusterOptions {
        self.store_factory = Box::new(f);
        self
    }
}

crate::spec_builders!(ClusterOptions);

/// Per-node outcome of a run.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// The node's rank.
    pub me: NodeId,
    /// Final virtual time (the node's execution time).
    pub time: SimInstant,
    /// The node's time/counter statistics.
    pub stats: NodeStats,
    /// The node's traffic counters.
    pub traffic: TrafficStats,
    /// Logical bytes of shared objects registered.
    pub object_bytes: u64,
    /// Bytes left in the swap store at exit — actual store-resident
    /// (post-compression) bytes, what counts against free disk space.
    pub swapped_bytes: u64,
    /// Logical bytes of objects swapped out at exit.
    pub swapped_logical_bytes: u64,
    /// Logical bytes of objects still mapped in the DMM area at exit.
    pub resident_bytes: u64,
    /// DMM fragmentation snapshot at exit (free bytes, largest hole,
    /// external-fragmentation ratio).
    pub frag: crate::alloc::FragStats,
    /// Object-table slots at exit (control-space footprint; bounded
    /// under churn while cumulative allocations grow).
    pub object_slots: usize,
    /// Scheduler dispatches of this node's app + comm tasks. A pure
    /// function of the simulated schedule: identical run to run.
    pub sched_turns: u64,
    /// Wakes delivered to this node's app + comm tasks; deterministic
    /// like `sched_turns`.
    pub sched_wakes: u64,
}

/// Cluster-wide outcome of a LOTS run (see [`cluster::Report`]).
pub type ClusterReport = cluster::Report<NodeReport>;

impl NodeRecord for NodeReport {
    fn common(&self) -> (SimInstant, &NodeStats, &TrafficStats) {
        (self.time, &self.stats, &self.traffic)
    }

    fn protocol_columns(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("obj", self.object_bytes),
            ("swapped", self.swapped_bytes),
            ("swapped_logical", self.swapped_logical_bytes),
            ("resident", self.resident_bytes),
            ("slots", self.object_slots as u64),
            ("frag", self.frag.external_frag_permille),
        ]
    }
}

/// The LOTS protocol instance of one run: configuration plus the
/// cluster-wide synchronization services.
pub(crate) struct Lots {
    n: usize,
    cfg: LotsConfig,
    store_factory: Box<dyn Fn(NodeId) -> Arc<dyn BackingStore> + Send + Sync>,
    locks: Arc<LockService>,
    barrier: Arc<BarrierService>,
}

impl Protocol for Lots {
    type Node = NodeState;
    type Dsm = Dsm;
    type NodeReport = NodeReport;

    const NAME: &'static str = "lots";
    // The `Reply` reason tells the conservative lock-grant gate this
    // task cannot issue a lock request before the reply's
    // (lookahead-bounded) arrival.
    const REPLY_WAIT: BlockReason = BlockReason::Reply;

    fn persist(&self) -> Option<&PersistConfig> {
        self.cfg.persist.as_ref()
    }

    fn new_node(&self, me: NodeId, cpu: CpuModel, clock: SimClock, stats: NodeStats) -> NodeState {
        let store = (self.store_factory)(me);
        NodeState::new(me, self.n, self.cfg.clone(), cpu, store, clock, stats)
    }

    fn new_dsm(&self, seat: Seat<Lots>) -> Dsm {
        Dsm {
            seat,
            locks: Arc::clone(&self.locks),
            barrier: Arc::clone(&self.barrier),
        }
    }

    /// A stripe segment's reply holds the home's NIC until it is on
    /// the wire: concurrent readers of *one* home queue behind each
    /// other (the single-home bottleneck), while readers of a striped
    /// object fan out over distinct homes and overlap. A plain object's
    /// reply does not.
    fn serve_copy(node: &mut NodeState, unit: u32) -> Result<Served, DsmError> {
        let obj = ObjectId(unit);
        let hold_nic = node.ctl(obj).flag(STRIPE_CHILD);
        let (bytes, version) = node.serve_object(obj)?;
        Ok(Served {
            bytes,
            version,
            hold_nic,
        })
    }

    /// Every LOTS diff carries its release timestamp (0 for a plain
    /// interval diff), which the home's word guard orders by.
    fn apply_diff(
        node: &mut NodeState,
        unit: u32,
        diff: &WordDiff,
        ts: Option<u64>,
    ) -> Result<(), DsmError> {
        node.apply_remote_diff(ObjectId(unit), diff, ts.unwrap_or(0))
    }

    fn poison(&self) {
        self.barrier.poison();
        self.locks.poison();
    }

    fn node_report(summary: NodeSummary, node: &NodeState) -> NodeReport {
        NodeReport {
            me: summary.me,
            time: summary.time,
            stats: summary.stats,
            traffic: summary.traffic,
            object_bytes: node.total_object_bytes(),
            swapped_bytes: node.swapped_bytes(),
            swapped_logical_bytes: node.swapped_logical_bytes(),
            resident_bytes: node.resident_logical_bytes(),
            frag: node.frag_stats(),
            object_slots: node.object_count(),
            sched_turns: summary.sched_turns,
            sched_wakes: summary.sched_wakes,
        }
    }
}

/// Run an SPMD application on a simulated LOTS cluster.
///
/// `app` is invoked once per node with that node's [`Dsm`]; the call
/// returns each node's result plus the cluster report (virtual
/// execution time, per-node stats and traffic). Same options ⇒
/// byte-identical report. Panics with the [`ConfigError`] of
/// [`ClusterOptions::check`] before any task exists if the options
/// are rejected.
pub fn run_cluster<R, F>(opts: ClusterOptions, app: F) -> (Vec<R>, ClusterReport)
where
    R: Send + 'static,
    F: Fn(&Dsm) -> R + Send + Sync + 'static,
{
    if let Err(e) = opts.check() {
        panic!("{e}");
    }
    let ClusterOptions {
        spec,
        lots,
        store_factory,
    } = opts;
    let locks = Arc::new(LockService::new(spec.n, lots.diff_mode, lots.lock_protocol));
    let barrier = Arc::new(BarrierService::new(
        spec.n,
        lots.home_migration,
        Arc::clone(&locks),
    ));
    let proto = Lots {
        n: spec.n,
        cfg: lots,
        store_factory,
        locks,
        barrier,
    };
    cluster::run(spec, proto, app)
}

/// `run_cluster(opts.with_restore(restored), app)` (see
/// [`ClusterSpec::restore`]); prefer that form.
pub fn restore_cluster<R, F>(
    restored: Arc<RestoredCluster>,
    opts: ClusterOptions,
    app: F,
) -> (Vec<R>, ClusterReport)
where
    R: Send + 'static,
    F: Fn(&Dsm) -> R + Send + Sync + 'static,
{
    run_cluster(opts.with_restore(restored), app)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DsmApi, DsmSlice};
    use crate::config::Placement;
    use crate::object::Mapping;
    use lots_persist::PersistStore;
    use lots_sim::machine::p4_fedora;
    use lots_sim::{FaultPlan, PanicFault};

    fn opts(n: usize, dmm: usize) -> ClusterOptions {
        ClusterOptions::new(n, LotsConfig::small(dmm), p4_fedora())
    }

    #[test]
    fn single_node_roundtrip() {
        let (results, report) = run_cluster(opts(1, 64 * 1024), |dsm| {
            let a = dsm.alloc::<i32>(100);
            a.write(5, 42);
            a.read(5)
        });
        assert_eq!(results, vec![42]);
        assert!(report.exec_time.nanos() > 0);
    }

    #[test]
    fn two_nodes_see_writes_after_barrier() {
        let (results, _) = run_cluster(opts(2, 64 * 1024), |dsm| {
            let a = dsm.alloc::<i32>(16);
            if dsm.me() == 0 {
                a.write(3, 77);
            }
            dsm.barrier();
            a.read(3)
        });
        assert_eq!(results, vec![77, 77]);
    }

    #[test]
    fn migrated_home_serves_later_readers() {
        let (results, report) = run_cluster(opts(4, 64 * 1024), |dsm| {
            let a = dsm.alloc::<i32>(64);
            if dsm.me() == 2 {
                a.fill(9);
            }
            dsm.barrier();
            // Home migrated to node 2 (single writer); all others fetch.
            let v = a.read(63);
            dsm.barrier();
            v
        });
        assert_eq!(results, vec![9, 9, 9, 9]);
        // Three fetches of a 256-byte object happened.
        let bytes: u64 = report.total(|n| n.traffic.bytes_sent());
        assert!(bytes > 3 * 256, "traffic {bytes}");
    }

    #[test]
    fn multi_writer_object_merges_at_home() {
        let (results, _) = run_cluster(opts(4, 64 * 1024), |dsm| {
            let a = dsm.alloc::<i32>(4);
            a.write(dsm.me(), dsm.me() as i32 + 1);
            dsm.barrier();
            (0..4).map(|i| a.read(i)).sum::<i32>()
        });
        assert_eq!(results, vec![10, 10, 10, 10]);
    }

    #[test]
    fn lock_updates_propagate_without_barrier() {
        let (results, _) = run_cluster(opts(2, 64 * 1024), |dsm| {
            let a = dsm.alloc::<i32>(8);
            for _ in 0..10 {
                dsm.lock(1);
                let v = a.read(0);
                a.write(0, v + 1);
                dsm.unlock(1);
            }
            dsm.barrier();
            a.read(0)
        });
        // All 20 increments survive iff every grant carried the prior
        // critical sections' updates (no lost updates).
        assert_eq!(results, vec![20, 20]);
    }

    #[test]
    fn a_write_after_a_lock_hand_off_beats_the_critical_section_before_it() {
        // Node 0 writes element 0 under lock 1; node 1 takes and
        // releases the lock after it, then writes element 0 outside any
        // critical section. Node 1's write happens after node 0's, so
        // it must be what every node reads after the barrier — whoever
        // is home, the later writer included.
        for home in 0..3 {
            let (results, _) = run_cluster(opts(3, 64 * 1024), move |dsm| {
                let a = dsm.alloc_placed::<u32>(4, Placement::Fixed(home));
                if dsm.me() == home {
                    a.write(3, 1);
                }
                dsm.barrier();
                match dsm.me() {
                    0 => {
                        dsm.lock(1);
                        a.write(0, 11);
                        dsm.unlock(1);
                    }
                    1 => {
                        dsm.charge_compute(1_000_000);
                        dsm.lock(1);
                        dsm.unlock(1);
                        a.write(0, 22);
                    }
                    _ => {}
                }
                dsm.barrier();
                a.read(0)
            });
            assert_eq!(results, vec![22; 3], "home {home}");
        }
    }

    #[test]
    fn a_write_before_a_lock_hand_off_loses_to_the_critical_section_after_it() {
        // Across two locks: node 1 releases lock 1 (once or twice),
        // writes element 0 outside any critical section, then hands
        // lock 2 to node 0, which writes element 0 under it. Node 0's
        // write happens after node 1's, however many releases of the
        // other lock came first. Every node reads the object before
        // the first barrier, so node 1's write needs no fetch from a
        // home that is busy computing.
        for lock1_releases in 1..=2 {
            for home in 0..3 {
                let (results, _) = run_cluster(opts(3, 64 * 1024), move |dsm| {
                    let a = dsm.alloc_placed::<u32>(4, Placement::Fixed(home));
                    a.read(0);
                    dsm.barrier();
                    match dsm.me() {
                        0 => {
                            dsm.charge_compute(1_000_000);
                            dsm.lock(2);
                            a.write(0, 11);
                            dsm.unlock(2);
                        }
                        1 => {
                            for _ in 0..lock1_releases {
                                dsm.lock(1);
                                dsm.unlock(1);
                            }
                            a.write(0, 22);
                            dsm.lock(2);
                            dsm.unlock(2);
                        }
                        _ => {}
                    }
                    dsm.barrier();
                    a.read(0)
                });
                assert_eq!(
                    results,
                    vec![11; 3],
                    "home {home}, {lock1_releases} release(s)"
                );
            }
        }
    }

    #[test]
    fn clock_and_traffic_recorded() {
        let (_, report) = run_cluster(opts(2, 64 * 1024), |dsm| {
            let a = dsm.alloc::<i64>(1024);
            if dsm.me() == 1 {
                a.fill(7);
            }
            dsm.barrier();
            a.read(1023)
        });
        for node in &report.nodes {
            assert!(node.time.nanos() > 0);
            assert!(node.stats.access_checks() > 0);
        }
        assert!(report.exec_time >= report.nodes[0].time);
    }

    fn contended_kernel(dsm: &Dsm) -> i64 {
        let a = dsm.alloc::<i64>(256);
        let per = 256 / dsm.n();
        let base = dsm.me() * per;
        for i in 0..per {
            a.write(base + i, (base + i) as i64);
        }
        dsm.barrier();
        let mut sum = 0;
        for _ in 0..4 {
            dsm.lock(1);
            let v = a.read(0);
            a.write(0, v + 1);
            dsm.unlock(1);
        }
        dsm.barrier();
        for i in 0..256 {
            sum += a.read(i);
        }
        sum
    }

    #[test]
    #[should_panic(expected = "fault injection")]
    fn fault_plan_panics_the_chosen_node() {
        let o = opts(2, 64 * 1024).with_faults(FaultPlan {
            panic_node: Some(PanicFault {
                node: 1,
                at_barrier: 1,
            }),
            ..FaultPlan::none()
        });
        let _ = run_cluster(o, |dsm| {
            let a = dsm.alloc::<i32>(4);
            a.write(dsm.me(), 1);
            dsm.barrier();
            a.read(0)
        });
    }

    #[test]
    fn fault_delays_and_slowdowns_change_times_not_values() {
        let base = run_cluster(opts(2, 64 * 1024), contended_kernel);
        let o = opts(2, 64 * 1024).with_faults(FaultPlan {
            seed: 99,
            max_msg_delay: lots_sim::SimDuration::from_millis(2),
            cpu_slowdown: vec![(1, 2.0)],
            ..FaultPlan::none()
        });
        let perturbed = run_cluster(o, contended_kernel);
        assert_eq!(base.0, perturbed.0, "faulted run must compute same values");
        assert!(
            perturbed.1.exec_time > base.1.exec_time,
            "delays + a straggler must cost virtual time ({} vs {})",
            perturbed.1.exec_time,
            base.1.exec_time
        );
    }

    #[test]
    fn lossy_network_with_retransmission_preserves_values() {
        let base = run_cluster(opts(3, 256 * 1024), contended_kernel);
        let o = opts(3, 256 * 1024).with_faults(FaultPlan {
            seed: 7,
            loss_permille: 60,
            dup_permille: 40,
            reorder_permille: 80,
            ..FaultPlan::none()
        });
        let lossy = run_cluster(o, contended_kernel);
        assert_eq!(base.0, lossy.0, "lossy run must compute the same values");
        let retransmits = lossy.1.total(|n| n.traffic.msgs_retransmitted());
        assert!(retransmits > 0, "6% loss must force some retransmissions");
        assert_eq!(
            lossy.1.total(|n| n.traffic.msgs_dropped()),
            0,
            "the reliable layer must recover every loss"
        );
        assert!(
            lossy.1.exec_time > base.1.exec_time,
            "retransmission timeouts must cost virtual time"
        );
    }

    #[test]
    fn scheduled_partition_heals_and_values_survive() {
        let base = run_cluster(opts(4, 256 * 1024), contended_kernel);
        let o = opts(4, 256 * 1024).with_faults(FaultPlan {
            seed: 11,
            partitions: vec![lots_sim::Partition {
                start: SimInstant(50_000),
                end: SimInstant(3_000_000),
                islanders: vec![3],
            }],
            ..FaultPlan::none()
        });
        let cut = run_cluster(o, contended_kernel);
        assert_eq!(base.0, cut.0, "partitioned run must compute same values");
        assert_eq!(cut.1.total(|n| n.traffic.msgs_dropped()), 0);
    }

    #[test]
    fn crash_rejoin_preserves_values_and_costs_time() {
        let kernel = |dsm: &Dsm| {
            let a = dsm.alloc::<i64>(512);
            let per = 512 / dsm.n();
            let base = dsm.me() * per;
            for i in 0..per {
                a.write(base + i, (base + i) as i64 * 3);
            }
            dsm.barrier();
            let mut sum = 0i64;
            for i in 0..512 {
                sum += a.read(i);
            }
            dsm.barrier();
            sum
        };
        let base = run_cluster(opts(4, 256 * 1024), kernel);
        let o = opts(4, 256 * 1024).with_faults(FaultPlan {
            crash_node: Some(lots_sim::CrashFault {
                node: 1,
                at_barrier: 1,
                reboot: lots_sim::SimDuration::from_millis(50),
            }),
            ..FaultPlan::none()
        });
        let crashed = run_cluster(o, kernel);
        assert_eq!(base.0, crashed.0, "rejoin must preserve every value");
        assert_eq!(crashed.1.total(|n| n.stats.rejoin_rounds()), 1);
        assert!(crashed.1.total(|n| n.stats.rejoin_bytes()) > 0);
        assert!(
            crashed.1.exec_time > base.1.exec_time,
            "the reboot outage must cost virtual time"
        );
    }

    /// A new counter is one row of its table: the fingerprint must pick
    /// it up without being told. Bumping any single row or category
    /// time on one node of a finished report changes the fingerprint —
    /// except the row marked `restore_only`.
    #[test]
    fn fingerprint_covers_every_row() {
        let (_, report) = run_cluster(opts(2, 64 * 1024), contended_kernel);
        let node = &report.nodes[1];
        let mut last = report.fingerprint();
        let mut changed = |what: &str, expect: bool| {
            let now = report.fingerprint();
            assert_eq!(now != last, expect, "bumping {what}");
            last = now;
        };
        for row in lots_sim::COUNTERS {
            (row.add)(&node.stats, 1);
            changed(row.name, !row.restore_only);
        }
        for row in lots_net::TRAFFIC_COUNTERS {
            (row.add)(&node.traffic, 1);
            changed(row.name, true);
        }
        for cat in lots_sim::ALL_CATEGORIES {
            node.stats.charge(cat, lots_sim::SimDuration(1));
            changed(cat.name(), true);
        }
    }

    #[test]
    fn report_carries_seed() {
        let (_, report) = run_cluster(opts(1, 64 * 1024).with_seed(777), |dsm| dsm.seed());
        assert_eq!(report.seed, 777);
    }

    #[test]
    fn persistence_journals_checkpoints_and_replays_identically() {
        let with_persist = |mut o: ClusterOptions| {
            o.lots = o
                .lots
                .clone()
                .with_persist(lots_persist::PersistConfig::every(1));
            o
        };
        let store = PersistStore::new(3);
        let o = with_persist(opts(3, 256 * 1024)).with_persist_store(store.clone());
        let (r1, rep1) = run_cluster(o, contended_kernel);
        assert!(rep1.total(|n| n.stats.log_records()) > 0);
        assert!(rep1.total(|n| n.stats.log_bytes_appended()) > 0);
        assert!(rep1.total(|n| n.stats.checkpoint_bytes()) > 0);
        let restored = store.restore().expect("journals restore");
        assert_eq!(restored.checkpoint_seq, 2, "both barriers checkpointed");
        // Honest replay against the restored verify plan: every sealed
        // digest and virtual clock must be reproduced exactly.
        let o = with_persist(opts(3, 256 * 1024)).with_restore(Arc::new(restored));
        let (r2, rep2) = run_cluster(o, contended_kernel);
        assert_eq!(r1, r2, "replay must compute the same values");
        assert_eq!(
            rep1.fingerprint(),
            rep2.fingerprint(),
            "replay must be byte-identical in time and traffic"
        );
    }

    /// A checkpoint's extent map holds each live object at its DMM
    /// offset while it is mapped, and unmapped while it is swapped out.
    #[test]
    fn a_checkpoint_extent_is_the_dmm_offset_or_unmapped() {
        let store = PersistStore::new(1);
        let mut o = opts(1, 64 * 1024).with_persist_store(store.clone());
        o.lots = o.lots.with_persist(lots_persist::PersistConfig::every(1));
        let (results, _) = run_cluster(o, |dsm| {
            let objs: Vec<_> = (0..4).map(|_| dsm.alloc::<i32>(4096)).collect();
            for (i, a) in objs.iter().enumerate() {
                a.fill(i as i32 + 1);
            }
            dsm.barrier();
            // Nothing moves between the checkpoint and this look.
            let node = dsm.seat.node.lock();
            let place = |id| {
                let ctl = node.ctl(id);
                (id.0, ctl.offset(), ctl.mapping() == Mapping::OnDisk)
            };
            objs.iter().map(|a| place(a.id())).collect::<Vec<_>>()
        });
        let objects = &results[0];
        assert!(objects.iter().any(|o| o.1.is_some()), "none mapped");
        assert!(objects.iter().any(|o| o.2), "none swapped");
        let restored = store.restore().expect("journals restore");
        let extents = &restored.nodes[0].extents;
        assert_eq!(extents.len(), objects.len());
        for &(id, at, on_disk) in objects {
            let e = extents.iter().find(|e| e.id == id).expect("an extent");
            assert_eq!((e.mapped, e.addr), (at.is_some(), at.unwrap_or(0) as u64));
            assert!(!(on_disk && e.mapped), "{id} is on disk");
            assert_eq!(e.bytes, 4 * 4096);
        }
    }

    #[test]
    fn torn_journal_tail_replays_beyond_the_checkpoint() {
        let with_persist = |mut o: ClusterOptions| {
            o.lots = o
                .lots
                .clone()
                .with_persist(lots_persist::PersistConfig::every(1));
            o
        };
        let store = PersistStore::new(2);
        let o = with_persist(opts(2, 256 * 1024)).with_persist_store(store.clone());
        let (r1, _) = run_cluster(o, contended_kernel);
        // Tear node 1's log mid-way: restore falls back to the newest
        // manifest both nodes completed, and the replay re-executes
        // (and re-verifies) the barriers beyond it.
        let full = store.log_bytes(1) as usize;
        store.truncate_tail(1, full - full / 3);
        let restored = store.restore().expect("torn log still restores");
        assert!(restored.checkpoint_seq >= 1);
        let o = with_persist(opts(2, 256 * 1024)).with_restore(Arc::new(restored.clone()));
        let (r2, rep2) = run_cluster(o, contended_kernel);
        assert_eq!(r1, r2);
        if restored.checkpoint_seq < 2 {
            assert!(
                rep2.total(|n| n.stats.restore_replay_barriers()) > 0,
                "barriers beyond the torn checkpoint count as replayed"
            );
        }
    }

    #[test]
    fn rejoin_reads_own_journal_when_persistence_is_on() {
        // One object per node, each written solely by its node, so the
        // migrating-home protocol makes every node (the crash victim
        // included) home of a master after barrier 1.
        let kernel = |dsm: &Dsm| {
            let objs: Vec<_> = (0..dsm.n()).map(|_| dsm.alloc::<i64>(256)).collect();
            for i in 0..256 {
                objs[dsm.me()].write(i, (dsm.me() * 256 + i) as i64 * 3);
            }
            dsm.barrier();
            let mut sum = 0i64;
            for o in &objs {
                for i in 0..256 {
                    sum += o.read(i);
                }
            }
            dsm.barrier();
            sum
        };
        let faults = || FaultPlan {
            crash_node: Some(lots_sim::CrashFault {
                node: 1,
                at_barrier: 1,
                reboot: lots_sim::SimDuration::from_millis(50),
            }),
            ..FaultPlan::none()
        };
        let base = run_cluster(opts(4, 256 * 1024).with_faults(faults()), kernel);
        let mut o = opts(4, 256 * 1024).with_faults(faults());
        o.lots = o.lots.with_persist(lots_persist::PersistConfig::every(1));
        let journaled = run_cluster(o, kernel);
        assert_eq!(base.0, journaled.0, "values survive either rejoin path");
        // Without the journal every rebuilt byte crosses the network.
        assert_eq!(base.1.total(|n| n.stats.rejoin_log_bytes()), 0);
        assert!(base.1.total(|n| n.stats.rejoin_peer_bytes()) > 0);
        // With it, the masters come back from the node's own log and
        // peers only send the directory + post-checkpoint deltas.
        assert!(journaled.1.total(|n| n.stats.rejoin_log_bytes()) > 0);
        assert!(
            journaled.1.total(|n| n.stats.rejoin_peer_bytes())
                < base.1.total(|n| n.stats.rejoin_peer_bytes()),
            "journal rejoin must shift master rebuild off the network"
        );
    }
}
