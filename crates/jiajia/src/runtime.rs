//! JIAJIA on the cluster driver: the page-coherence [`Protocol`].
//!
//! [`run_jiajia_cluster`] runs through the *same*
//! [`lots_core::cluster::run`] as LOTS — same engine, tasks, network,
//! faults, journals, compaction daemons, panic handling and teardown —
//! which is what makes LOTS-vs-JIAJIA deltas attributable to the
//! protocols, not the harness. Only the page-DSM policy lives here:
//! building a [`JiaNode`] and a [`JiaDsm`], and serving a page copy or
//! applying an eager diff flush to one on the comm task (the driver
//! owns the messages).

use std::sync::Arc;

use lots_core::cluster::{self, ClusterSpec, NodeSummary, Protocol, Seat, Served};
use lots_core::diff::WordDiff;
use lots_core::{ConfigError, DsmError};
use lots_net::NodeId;
use lots_persist::{PersistConfig, RestoredCluster};
use lots_sim::{BlockReason, CpuModel, DiskModel, MachineConfig, NodeStats, SimClock};

use crate::api::JiaDsm;
use crate::node::JiaNode;
use crate::page::PAGE_BYTES;
use crate::services::{JiaBarrier, JiaLocks};

/// Options for a JIAJIA cluster run.
pub struct JiaOptions {
    /// The protocol-independent part: size, machine, seed, faults,
    /// analysis, journal store (see [`ClusterSpec`] and the `with_*`
    /// builders).
    pub spec: ClusterSpec,
    /// Shared-space size (v1.1 default limit: 128 MB, §2 of the paper).
    pub shared_bytes: usize,
    /// Persistence journal (`None` — the default — disables it; see
    /// [`PersistConfig`]). JIAJIA journals *page* diffs: the journal's
    /// object id is the page index.
    pub persist: Option<PersistConfig>,
}

impl JiaOptions {
    /// Options with [`ClusterSpec::new`]'s defaults.
    pub fn new(n: usize, shared_bytes: usize, machine: MachineConfig) -> JiaOptions {
        JiaOptions {
            spec: ClusterSpec::new(n, machine),
            shared_bytes,
            persist: None,
        }
    }

    /// Why this run may not start, if it may not: [`ClusterSpec`]'s
    /// rules, then JIAJIA's own — no crash-rejoin, and a shared space
    /// of whole pages.
    pub fn check(&self) -> Result<(), ConfigError> {
        self.spec.check(self.persist.is_some())?;
        if self.spec.faults.crash_node.is_some() {
            return Err(ConfigError::CrashRejoinUnsupported);
        }
        let bytes = self.shared_bytes;
        if !bytes.is_multiple_of(PAGE_BYTES) {
            return Err(ConfigError::SharedSpaceNotPageGranular { bytes });
        }
        Ok(())
    }

    /// Enable the persistence journal (see [`PersistConfig`]).
    pub fn with_persist(mut self, persist: PersistConfig) -> JiaOptions {
        self.persist = Some(persist);
        self
    }
}

lots_core::spec_builders!(JiaOptions);

/// Per-node outcome: exactly the driver's part (a page DSM adds no
/// columns of its own).
pub type JiaNodeReport = NodeSummary;

/// Cluster-wide outcome of a JIAJIA run (see [`cluster::Report`]).
pub type JiaReport = cluster::Report<JiaNodeReport>;

/// The JIAJIA protocol instance of one run: configuration plus the
/// cluster-wide synchronization services.
pub(crate) struct Jiajia {
    n: usize,
    shared_bytes: usize,
    persist: Option<PersistConfig>,
    /// The disk model journal I/O is booked on, with persistence on.
    disk: DiskModel,
    barrier: Arc<JiaBarrier>,
    locks: Arc<JiaLocks>,
}

impl Protocol for Jiajia {
    type Node = JiaNode;
    type Dsm = JiaDsm;
    type NodeReport = JiaNodeReport;

    const NAME: &'static str = "jia";
    // A plain block, not `Reply`: the lock-grant gate then bounds a
    // waiting task by its block-time clock.
    const REPLY_WAIT: BlockReason = BlockReason::Other;

    fn persist(&self) -> Option<&PersistConfig> {
        self.persist.as_ref()
    }

    fn new_node(&self, me: NodeId, cpu: CpuModel, clock: SimClock, stats: NodeStats) -> JiaNode {
        let mut node = JiaNode::new(me, self.n, self.shared_bytes, cpu, clock, stats);
        if self.persist.is_some() {
            node.enable_persist_disk(self.disk);
        }
        node
    }

    fn new_dsm(&self, seat: Seat<Jiajia>) -> JiaDsm {
        JiaDsm {
            seat,
            barrier: Arc::clone(&self.barrier),
            locks: Arc::clone(&self.locks),
        }
    }

    /// A page copy; its reply frees the home's NIC at once.
    fn serve_copy(node: &mut JiaNode, page: u32) -> Result<Served, DsmError> {
        let (bytes, version) = node.serve_page(page as usize);
        Ok(Served {
            bytes,
            version,
            hold_nic: false,
        })
    }

    /// Page diffs carry no timestamp: the home applies each whole.
    fn apply_diff(
        node: &mut JiaNode,
        page: u32,
        diff: &WordDiff,
        _ts: Option<u64>,
    ) -> Result<(), DsmError> {
        Ok(node.apply_remote_diff(page as usize, diff)?)
    }

    fn poison(&self) {
        self.barrier.poison();
        self.locks.poison();
    }

    fn node_report(summary: NodeSummary, _node: &JiaNode) -> JiaNodeReport {
        summary
    }
}

/// Run an SPMD application on a simulated JIAJIA cluster. Panics with
/// the [`ConfigError`] of [`JiaOptions::check`] before any task exists
/// if the options are rejected.
pub fn run_jiajia_cluster<R, F>(opts: JiaOptions, app: F) -> (Vec<R>, JiaReport)
where
    R: Send + 'static,
    F: Fn(&JiaDsm) -> R + Send + Sync + 'static,
{
    if let Err(e) = opts.check() {
        panic!("{e}");
    }
    let n = opts.spec.n;
    let proto = Jiajia {
        n,
        shared_bytes: opts.shared_bytes,
        persist: opts.persist,
        disk: opts.spec.machine.disk,
        barrier: Arc::new(JiaBarrier::new(n)),
        locks: Arc::new(JiaLocks::new(n)),
    };
    cluster::run(opts.spec, proto, app)
}

/// `run_jiajia_cluster(opts.with_restore(restored), app)` (see
/// [`ClusterSpec::restore`]); prefer that form.
pub fn restore_jiajia_cluster<R, F>(
    restored: Arc<RestoredCluster>,
    opts: JiaOptions,
    app: F,
) -> (Vec<R>, JiaReport)
where
    R: Send + 'static,
    F: Fn(&JiaDsm) -> R + Send + Sync + 'static,
{
    run_jiajia_cluster(opts.with_restore(restored), app)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lots_core::{DsmApi, DsmSlice};
    use lots_persist::PersistStore;
    use lots_sim::machine::p4_fedora;
    use lots_sim::FaultPlan;

    fn opts(n: usize) -> JiaOptions {
        JiaOptions::new(n, 256 * 4096, p4_fedora())
    }

    #[test]
    fn single_node_roundtrip() {
        let (results, report) = run_jiajia_cluster(opts(1), |dsm| {
            let a = dsm.alloc::<i32>(100);
            a.write(5, 42);
            dsm.barrier();
            a.read(5)
        });
        assert_eq!(results, vec![42]);
        // Home-local accesses cost nothing in a page DSM (no software
        // checks — §4.1 factor 2); only the barrier accrues time.
        assert!(report.exec_time.nanos() > 0);
    }

    /// A `view_mut` and a `view` over three pages (starting and ending
    /// mid-page) hand the elements out in order, on a node that homes
    /// the middle page and one that homes the outer two.
    fn views_round_trip_across_three_pages<T>()
    where
        T: lots_core::pod::Pod + From<i32> + PartialEq + std::fmt::Debug,
    {
        let per_page = PAGE_BYTES / T::SIZE;
        let len = 3 * per_page;
        let span = 100..len - 100;
        let (results, _) = run_jiajia_cluster(opts(2), move |dsm| {
            let a = dsm.alloc::<T>(len);
            if dsm.me() == 1 {
                let init: Vec<T> = (0..len as i32).map(T::from).collect();
                a.write_from(0, &init);
            }
            dsm.barrier();
            if dsm.me() == 0 {
                let mut v = a.view_mut(span.clone());
                for (x, i) in v.iter_mut().zip(span.clone()) {
                    assert_eq!(*x, T::from(i as i32));
                    *x = T::from(-(i as i32));
                }
            }
            dsm.barrier();
            let expect = |i: usize| match span.contains(&i) {
                true => T::from(-(i as i32)),
                false => T::from(i as i32),
            };
            let view = a.view(span.clone());
            assert!(view.iter().zip(span.clone()).all(|(x, i)| *x == expect(i)));
            drop(view);
            a.read_vec(0, len) == (0..len).map(expect).collect::<Vec<T>>()
        });
        assert_eq!(results, vec![true, true]);
    }

    #[test]
    fn views_spanning_three_pages_round_trip_f64() {
        views_round_trip_across_three_pages::<f64>();
    }

    #[test]
    fn views_spanning_three_pages_round_trip_i32() {
        views_round_trip_across_three_pages::<i32>();
    }

    #[test]
    fn writes_visible_after_barrier() {
        let (results, _) = run_jiajia_cluster(opts(2), |dsm| {
            let a = dsm.alloc::<i32>(2048);
            if dsm.me() == 1 {
                // Page 0's home is node 0: node 1 writes a non-home page.
                a.write(3, 77);
            }
            dsm.barrier();
            a.read(3)
        });
        assert_eq!(results, vec![77, 77]);
    }

    #[test]
    fn false_sharing_merges_at_home() {
        let (results, report) = run_jiajia_cluster(opts(4), |dsm| {
            let a = dsm.alloc::<i32>(8); // one page, 4 writers
            a.write(dsm.me(), dsm.me() as i32 + 1);
            dsm.barrier();
            (0..4).map(|i| a.read(i)).sum::<i32>()
        });
        assert_eq!(results, vec![10, 10, 10, 10]);
        // Write-write false sharing: three non-home writers each sent a
        // whole-page-fault + diff; readers refetched the page.
        let faults = report.total(|n| n.stats.page_faults());
        assert!(faults >= 6, "faults {faults}");
    }

    #[test]
    fn lock_transfers_updates_via_home() {
        let (results, _) = run_jiajia_cluster(opts(2), |dsm| {
            let a = dsm.alloc::<i32>(4);
            for _ in 0..10 {
                dsm.lock(1);
                let v = a.read(0);
                a.write(0, v + 1);
                dsm.unlock(1);
            }
            dsm.barrier();
            a.read(0)
        });
        assert_eq!(results, vec![20, 20]);
    }

    #[test]
    #[should_panic(expected = "node 1 exploded")]
    fn peer_panic_fails_loudly_instead_of_hanging() {
        let _ = run_jiajia_cluster(opts(2), |dsm| {
            let a = dsm.alloc::<i32>(16);
            if dsm.me() == 1 {
                panic!("node 1 exploded");
            }
            dsm.barrier();
            a.read(0)
        });
    }

    #[test]
    fn page_granularity_traffic() {
        // Reading one i32 from a remote page moves a whole 4 KB page.
        let (_, report) = run_jiajia_cluster(opts(2), |dsm| {
            let a = dsm.alloc::<i32>(2048);
            if dsm.me() == 0 {
                a.write(0, 1);
            }
            dsm.barrier();
            a.read(0)
        });
        let bytes = report.total(|n| n.traffic.bytes_sent());
        assert!(bytes >= 4096, "page fetch moves ≥ one page, got {bytes}");
    }

    #[test]
    fn lossy_network_with_retransmission_preserves_values() {
        let kernel = |dsm: &JiaDsm| {
            let a = dsm.alloc::<i32>(2048);
            a.write(dsm.me() * 16, dsm.me() as i32 + 1);
            dsm.barrier();
            (0..3).map(|i| a.read(i * 16)).sum::<i32>()
        };
        let base = run_jiajia_cluster(opts(3), kernel);
        let o = opts(3).with_faults(FaultPlan {
            seed: 5,
            loss_permille: 80,
            dup_permille: 40,
            ..FaultPlan::none()
        });
        let lossy = run_jiajia_cluster(o, kernel);
        assert_eq!(base.0, lossy.0, "lossy run must compute the same values");
        let dropped = lossy.1.total(|n| n.traffic.msgs_dropped());
        assert_eq!(dropped, 0, "the reliable layer must recover every loss");
        assert!(lossy.1.exec_time >= base.1.exec_time);
    }

    #[test]
    #[should_panic(expected = "JIAJIA has no crash-rejoin")]
    fn crash_fault_is_rejected_up_front() {
        let o = opts(2).with_faults(FaultPlan {
            crash_node: Some(lots_sim::CrashFault {
                node: 1,
                at_barrier: 1,
                reboot: lots_sim::SimDuration::from_millis(1),
            }),
            ..FaultPlan::none()
        });
        assert_eq!(o.check(), Err(ConfigError::CrashRejoinUnsupported));
        let _ = run_jiajia_cluster(o, |dsm| dsm.me());
    }

    #[test]
    fn persistence_journals_checkpoints_and_replays_identically() {
        let kernel = |dsm: &JiaDsm| {
            let a = dsm.alloc::<i32>(2048);
            a.write(dsm.me() * 16, dsm.me() as i32 + 1);
            dsm.barrier();
            let s: i32 = (0..3).map(|i| a.read(i * 16)).sum();
            dsm.barrier();
            s
        };
        let store = PersistStore::new(3);
        let o = opts(3)
            .with_persist(PersistConfig::every(1))
            .with_persist_store(store.clone());
        let (r1, rep1) = run_jiajia_cluster(o, kernel);
        assert!(rep1.total(|n| n.stats.log_records()) > 0);
        assert!(rep1.total(|n| n.stats.checkpoint_bytes()) > 0);
        let restored = store.restore().expect("journals restore");
        assert_eq!(restored.checkpoint_seq, 2, "both barriers checkpointed");
        let o = opts(3).with_persist(PersistConfig::every(1));
        let (r2, rep2) = run_jiajia_cluster(o.with_restore(Arc::new(restored)), kernel);
        assert_eq!(r1, r2, "replay must compute the same values");
        assert_eq!(
            rep1.fingerprint(),
            rep2.fingerprint(),
            "replay must be byte-identical"
        );
    }

    /// A checkpoint's extent map holds every live page, mapped at its
    /// own byte address; a page freed before the barrier is gone.
    #[test]
    fn a_checkpoint_maps_every_live_page_at_its_byte_address() {
        let store = PersistStore::new(2);
        let o = opts(2)
            .with_persist(PersistConfig::every(1))
            .with_persist_store(store.clone());
        run_jiajia_cluster(o, |dsm| {
            let a = dsm.alloc::<i32>(3 * 1024);
            let freed = dsm.alloc::<i32>(1024);
            let b = dsm.alloc::<i32>(1024);
            a.write(dsm.me() * 1024, 1);
            b.write(dsm.me(), 2);
            dsm.free(freed);
            dsm.barrier();
        });
        let restored = store.restore().expect("journals restore");
        for node in &restored.nodes {
            let mut pages: Vec<u32> = node.dir.iter().map(|m| m.id).collect();
            pages.sort_unstable();
            assert_eq!(pages, [0, 1, 2, 4], "node {}", node.me);
            let mut mapped: Vec<u32> = node.extents.iter().map(|e| e.id).collect();
            mapped.sort_unstable();
            assert_eq!(mapped, pages, "node {}", node.me);
            for e in &node.extents {
                let at = e.id as u64 * PAGE_BYTES as u64;
                assert_eq!((e.mapped, e.addr, e.bytes), (true, at, PAGE_BYTES as u64));
            }
        }
    }

    #[test]
    fn persistence_off_leaves_reports_unchanged() {
        let kernel = |dsm: &JiaDsm| {
            let a = dsm.alloc::<i32>(2048);
            a.write(dsm.me() * 8, 7);
            dsm.barrier();
            a.read(8)
        };
        let plain = run_jiajia_cluster(opts(2), kernel);
        let journaled = run_jiajia_cluster(opts(2).with_persist(PersistConfig::every(1)), kernel);
        assert_eq!(plain.0, journaled.0);
        // The journal is write-behind and JIAJIA reads nothing back
        // from disk mid-run, so virtual times are unchanged.
        assert_eq!(plain.1.exec_time, journaled.1.exec_time);
        assert_eq!(plain.1.nodes[0].stats.log_records(), 0);
        assert!(journaled.1.nodes[0].stats.log_records() > 0);
    }

    #[test]
    fn deterministic_mode_reproduces_reports_exactly() {
        let kernel = |dsm: &JiaDsm| {
            let a = dsm.alloc::<i32>(2048);
            a.write(dsm.me() * 8, dsm.me() as i32 + 1);
            dsm.barrier();
            dsm.lock(3);
            let v = a.read(0);
            a.write(0, v + 1);
            dsm.unlock(3);
            dsm.barrier();
            a.read(0) + a.read(8)
        };
        let run = || {
            let (results, report) = run_jiajia_cluster(opts(3), kernel);
            let fp: String = report
                .nodes
                .iter()
                .map(|nd| {
                    format!(
                        "{}:{}:{}:{};",
                        nd.me,
                        nd.time.nanos(),
                        nd.stats.page_faults(),
                        nd.traffic.bytes_sent()
                    )
                })
                .collect();
            (results, fp)
        };
        let (r1, f1) = run();
        let (r2, f2) = run();
        assert_eq!(r1, r2);
        assert_eq!(f1, f2, "same seed must give byte-identical reports");
    }
}
