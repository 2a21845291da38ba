//! The cluster driver: everything about running `n` simulated DSM
//! processes that does not depend on *which* DSM they speak.
//!
//! LOTS (object coherence) and the JIAJIA baseline (page coherence)
//! are compared under one harness — this one. A [`Protocol`] supplies
//! the policy: its per-node state (with the journal snapshots of
//! [`Journaled`]), application handle, how a node serves a copy of one
//! coherence unit and applies a diff to one, how waiters are poisoned
//! and what a node reports at exit. [`run`] and the [`Seat`] it hands
//! each node supply the mechanism, written once:
//!
//! * one **application task** per node running the user's SPMD closure
//!   on its own host thread — the only threads a run has — and one
//!   **comm handler** per node: as in the paper, where communication
//!   is a SIGIO *handler* (§3.6), it is code the runtime invokes, not a
//!   process with a stack. Each is an engine daemon whose turn function
//!   (`Comm::turn`) the virtual-time engine ([`lots_sim::sched`]) runs
//!   inline on whichever thread is at its dispatch point; app tasks
//!   get ids `0..n` and comm tasks `n..2n`, so clock ties resolve
//!   app-first in rank order, and both tasks of node `i` carry node
//!   index `i` (one task per node per epoch);
//! * the interconnect with seeded faults and the drop log
//!   wired into the deadlock snapshot;
//! * the data plane (`cluster/plane.rs`): one [`Msg`] type over a
//!   `u32` unit for both systems. The comm turn serves a `Req` or a
//!   `Diff` — handler-entry charge, the protocol's hook
//!   ([`Protocol::serve_copy`], [`Protocol::apply_diff`]), the
//!   home-request count, the answer at the later of now and the
//!   message's arrival — and forwards a `Reply` or an `Ack` to the
//!   node's application task. The application side is [`Seat::fetch`]
//!   (every request sent at one instant, each reply installed as it
//!   arrives), [`Seat::ready`] (the miss loop around the protocol's
//!   access check) and [`Seat::send_diffs`];
//! * with persistence on — set in the protocol's own options and read
//!   through [`Protocol::persist`] — one journal per node and one
//!   **compaction daemon** per node polling it in virtual time —
//!   stackless too — plus the post-barrier journal append
//!   ([`Seat::exit_barrier`]) and the disk booking of both;
//! * the application handle's protocol-independent half: compute
//!   charging, reply waits, the view-guard registry, and the brackets
//!   of every sync operation ([`Seat::enter_barrier`]/
//!   [`Seat::exit_barrier`], [`Seat::acquire_lock`]/
//!   [`Seat::release_lock`]): the view-guard fence, the barrier-entry
//!   count and fault, the race detector's stamps and the journal
//!   append;
//! * panic handling: a dying task poisons the protocol's rendezvous
//!   *before* it retires — a daemon turn does so on the thread that
//!   happened to drive it, which the engine then does *not* unwind —
//!   every thread is joined, and the panic that started it — not the
//!   "poisoned" panics it induced — is re-raised;
//! * teardown decided in virtual state: daemons end on the first turn
//!   selected after the last application task finished
//!   ([`SchedHandle::apps_live`]), so how many turns they get never
//!   depends on how fast the host joined the app threads;
//! * report assembly.
//!
//! The driver is generic and monomorphised per protocol: the comm turn
//! and the protocol's hooks are direct calls.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use lots_analyze::{AnalyzeConfig, RaceDetector, RaceReport};
use lots_net::{cluster_net, Envelope, NetSender, NodeId, TrafficStats};
use lots_persist::{
    BarrierInput, Extent, NamedMeta, NodeJournal, ObjMeta, PersistConfig, PersistStore,
    RestoredCluster,
};
use lots_sim::{
    run_tasks, BlockReason, CpuModel, CrashFault, DaemonTurn, DiskQueue, FaultPlan, MachineConfig,
    NodeStats, SchedHandle, SchedSummary, ScheduleScript, Scheduler, SchedulerMode, SimClock,
    SimDuration, SimInstant, TimeCategory, Topology,
};
use parking_lot::Mutex;

use crate::api::{GuardPool, ViewRegistry};
use crate::consistency::SyncCtx;
use crate::diff::WordDiff;
use crate::error::{ConfigError, DsmError};
use crate::protocol::Msg;

mod plane;

use plane::Comm;
pub use plane::{RangeAccess, Served};

/// The coherence-protocol half of a cluster run (see the module docs).
///
/// On the data plane a protocol owns no message: the driver sends,
/// serves and awaits every one. It keeps how a node serves a copy of a
/// unit ([`Protocol::serve_copy`]) and applies a diff to one
/// ([`Protocol::apply_diff`]) on the comm task, and — through the
/// closures it hands [`Seat::ready`] and [`Seat::fetch`] — how its
/// access check finds stale units and how a fetched copy is installed.
pub trait Protocol: Send + Sync + 'static {
    /// One node's protocol state, shared by its app and comm tasks.
    type Node: Journaled + Send + 'static;
    /// The handle the application closure is called with. Built on the
    /// app thread (it need not be `Send`).
    type Dsm;
    /// What a node reports at exit.
    type NodeReport;

    /// Task and thread name prefix (`"{NAME}-app-3"`).
    const NAME: &'static str;

    /// How an application task's wait for a forwarded reply is
    /// classified for the conservative lock-grant gate and the
    /// deadlock snapshot (see `Seat::await_reply`).
    const REPLY_WAIT: BlockReason;

    /// The run's journal setting, from the protocol's own options
    /// (`None` — no journals, no compaction daemons, and a run
    /// bit-identical to one without the subsystem).
    fn persist(&self) -> Option<&PersistConfig>;

    /// Build node `me`'s state around its clock and statistics.
    fn new_node(&self, me: NodeId, cpu: CpuModel, clock: SimClock, stats: NodeStats) -> Self::Node;

    /// Build the application handle from the node's [`Seat`].
    fn new_dsm(&self, seat: Seat<Self>) -> Self::Dsm;

    /// A clean copy of `unit` for a fetch's reply, served on the comm
    /// task after the driver charged the handler entry. Disk time the
    /// protocol charges to the node's clock here delays the reply.
    fn serve_copy(node: &mut Self::Node, unit: u32) -> Result<Served, DsmError>;

    /// Apply a diff of `unit` a peer sent this node, its home, on the
    /// comm task; `ts` is the timestamp the sender stamped it with.
    fn apply_diff(
        node: &mut Self::Node,
        unit: u32,
        diff: &WordDiff,
        ts: Option<u64>,
    ) -> Result<(), DsmError>;

    /// A task died: make every current and future waiter of the
    /// protocol's rendezvous fail loudly instead of waiting for a peer
    /// that will never arrive. The panic message of such a waiter must
    /// contain `"peer app thread panicked"`.
    fn poison(&self);

    /// Node report from the driver's part and the node's final state.
    fn node_report(summary: NodeSummary, node: &Self::Node) -> Self::NodeReport;
}

/// The node-state half of persistence: the post-barrier snapshots the
/// journal appends, which differ per coherence unit (objects with
/// migrating homes at DMM offsets; pages with fixed homes at their
/// flat addresses), and the node's disk device, on which the driver
/// books the journal's I/O. Everything else about journaling — when,
/// in what order, what is counted and booked, and the checkpoint's
/// extent map built from the units — is [`Seat::exit_barrier`] and the
/// compaction daemon, written once.
pub trait Journaled {
    /// One entry of a barrier's cluster-agreed written set.
    type Written;
    /// Why a master's content could not be read back.
    type Error;

    /// One [`ObjMeta`] per live coherence unit (the post-barrier
    /// directory), each with the address the unit is mapped at, or
    /// `None` while it is not resident (a swapped-out LOTS object).
    fn persist_units(&self) -> Vec<(ObjMeta, Option<u64>)>;

    /// The committed name table.
    fn persist_names(&self) -> Vec<NamedMeta>;

    /// Post-barrier content of every unit in `written` this node is
    /// home of — the masters whose interval diffs the journal appends.
    /// A pure snapshot read; no virtual time is charged.
    fn persist_written_content(
        &self,
        written: &[Self::Written],
    ) -> Result<Vec<(u32, Vec<u8>)>, Self::Error>;

    /// The node's serial disk device; `None` books nothing.
    fn persist_disk(&mut self) -> Option<&mut DiskQueue>;
}

/// The protocol-independent configuration of a run. Both option
/// structs ([`crate::ClusterOptions`], `lots_jiajia::JiaOptions`)
/// embed one as their `spec` field and get its builder methods from
/// [`spec_builders!`](crate::spec_builders).
///
/// Whether a run journals is not set here: each protocol's options
/// hold it ([`crate::LotsConfig::persist`], `JiaOptions::persist`),
/// and the driver asks the protocol ([`Protocol::persist`]). The spec
/// holds only where the journals go and what a restore replays.
pub struct ClusterSpec {
    /// Cluster size.
    pub n: usize,
    /// Simulated machine (CPU, network, disk models).
    pub machine: MachineConfig,
    /// The network shape. It has one value, the uniform switch: every
    /// link runs on the machine's network model and the engine's
    /// lookahead window is its latency, floored above zero. Kept for
    /// source compatibility.
    pub topology: Topology,
    /// The engine's dispatch discipline. It has one value and the
    /// engine does not consult it; a permuted order is [`Self::explore`].
    pub scheduler: SchedulerMode,
    /// Cluster seed: surfaced to applications via
    /// [`crate::DsmApi::seed`] (seeded workloads fold it into their
    /// RNG streams) and echoed in [`Report::seed`].
    pub seed: u64,
    /// Seeded fault injection (delays, loss, stragglers, node panics).
    pub faults: FaultPlan,
    /// Correctness analysis (off by default — a disabled config adds
    /// one branch per access and leaves virtual times untouched).
    pub analyze: AnalyzeConfig,
    /// Schedule script: the engine consults it at every multi-member
    /// epoch batch, so it pins the dispatch order among the
    /// permutations the lookahead argument claims equivalent (the
    /// `lots-analyze` explorer enumerates them). `None` means
    /// canonical order.
    pub explore: Option<ScheduleScript>,
    /// Journal store, only consulted with persistence on; `None` then
    /// creates a fresh in-memory store. Pass a shared handle to
    /// inspect the logs after the run or to restore from them later.
    pub persist_store: Option<PersistStore>,
    /// Cold-start restore: the state rebuilt from a [`PersistStore`]
    /// (see [`PersistStore::restore`]) to verify the run against,
    /// barrier by barrier.
    ///
    /// Restore is an *honest re-execution*: the application restarts
    /// from its beginning under the same options and deterministically
    /// repeats every barrier interval, journaling into a fresh scratch
    /// store (any `persist_store` is ignored, so the original logs stay
    /// untouched). Each node's journal asserts — at every sealed
    /// barrier — that the replay reproduces the original log's state
    /// digest **and** virtual clock, and panics at the first
    /// divergence; barriers beyond the restored checkpoint are counted
    /// in [`lots_sim::NodeStats::restore_replay_barriers`]. A passing
    /// restore therefore proves the rebuilt-from-log state is
    /// byte-identical to the original run's at the checkpoint, and the
    /// final results and reports equal the uninterrupted run's exactly.
    ///
    /// The run must have the original's cluster size and persistence
    /// policy; [`ClusterSpec::check`] rejects one with persistence off
    /// or at another size.
    pub restore: Option<Arc<RestoredCluster>>,
}

impl ClusterSpec {
    /// `n` nodes of `machine`: uniform topology, the sequential
    /// engine, seed 0, no faults, no analysis, no journal store and no
    /// restore.
    pub fn new(n: usize, machine: MachineConfig) -> ClusterSpec {
        ClusterSpec {
            n,
            machine,
            topology: Topology::uniform(),
            scheduler: SchedulerMode::Deterministic,
            seed: 0,
            faults: FaultPlan::none(),
            analyze: AnalyzeConfig::off(),
            explore: None,
            persist_store: None,
            restore: None,
        }
    }

    /// The rules every run obeys, whichever protocol it speaks, for a
    /// run that journals iff `persisting` (the protocol's options say):
    /// at least one node, a restore with persistence on and at the
    /// journals' size, and a fault plan that names only nodes of the
    /// cluster. Each option struct's `check` runs this first.
    pub fn check(&self, persisting: bool) -> Result<(), ConfigError> {
        let n = self.n;
        if n == 0 {
            return Err(ConfigError::NoNodes);
        }
        if let Some(restored) = &self.restore {
            if !persisting {
                return Err(ConfigError::RestoreWithoutPersistence);
            }
            let restored = restored.nodes.len();
            if restored != n {
                return Err(ConfigError::RestoreSizeMismatch { restored, n });
            }
        }
        match self.faults.nodes().find(|&node| node >= n) {
            Some(node) => Err(ConfigError::FaultNodeOutsideCluster { node, n }),
            None => Ok(()),
        }
    }
}

/// The builder methods of an options struct that embeds a
/// [`ClusterSpec`](crate::cluster::ClusterSpec) as its `spec` field.
#[macro_export]
macro_rules! spec_builders {
    ($opts:ty) => {
        impl $opts {
            /// Set the network shape (there is one; kept for source
            /// compatibility).
            pub fn with_topology(mut self, topology: $crate::Topology) -> Self {
                self.spec.topology = topology;
                self
            }

            /// Set the engine mode (there is one; kept for source
            /// compatibility).
            pub fn with_scheduler(mut self, mode: $crate::SchedulerMode) -> Self {
                self.spec.scheduler = mode;
                self
            }

            /// Set the cluster seed (workload data reproducibility).
            pub fn with_seed(mut self, seed: u64) -> Self {
                self.spec.seed = seed;
                self
            }

            /// Attach a fault plan.
            pub fn with_faults(mut self, faults: $crate::FaultPlan) -> Self {
                self.spec.faults = faults;
                self
            }

            /// Enable correctness analysis (e.g. `AnalyzeConfig::races`).
            pub fn with_analyze(mut self, analyze: $crate::AnalyzeConfig) -> Self {
                self.spec.analyze = analyze;
                self
            }

            /// Install a schedule script (see `ClusterSpec::explore`).
            pub fn with_explore_script(mut self, script: $crate::ScheduleScript) -> Self {
                self.spec.explore = Some(script);
                self
            }

            /// Journal into the given store (only meaningful with
            /// persistence on). The caller keeps a clone to inspect or
            /// restore from after the run.
            pub fn with_persist_store(mut self, store: $crate::PersistStore) -> Self {
                self.spec.persist_store = Some(store);
                self
            }

            /// Restore from `restored` (see `ClusterSpec::restore`).
            pub fn with_restore(
                mut self,
                restored: ::std::sync::Arc<$crate::RestoredCluster>,
            ) -> Self {
                self.spec.restore = Some(restored);
                self
            }
        }
    };
}

/// What the driver hands a protocol to build one node's application
/// handle from: the node's clock, state and endpoint, and every step of
/// the handle that does not depend on the protocol — compute charging,
/// the data plane's application side ([`Seat::fetch`], [`Seat::ready`],
/// [`Seat::send_diffs`]; the protocol sends no message itself) and the
/// brackets of every sync operation.
pub struct Seat<P: Protocol + ?Sized> {
    /// Clock, statistics, cost models and scheduler handle of this
    /// node's application task (`ctx.me` is the rank).
    pub ctx: SyncCtx,
    /// The node's state, shared with its comm task.
    pub node: Arc<Mutex<P::Node>>,
    /// Sending half of the node's endpoint: only the data plane sends.
    net: NetSender<Msg>,
    /// Replies the comm task forwards (see `Seat::await_reply`).
    replies: Arc<Mutex<VecDeque<Envelope<Msg>>>>,
    /// Cluster size.
    pub n: usize,
    /// Cluster seed.
    pub seed: u64,
    /// Fault injection: panic on entering this (1-based) barrier.
    pub fault_barrier: Option<u64>,
    /// Fault injection: crash-and-rejoin after a barrier.
    pub crash_fault: Option<CrashFault>,
    /// Cluster-wide race detector, when analysis is on.
    pub analyze: Option<Arc<RaceDetector>>,
    /// The node's journal, when persistence is on (shared with its
    /// compaction daemon). `None` skips the whole subsystem — one
    /// branch per barrier, virtual times untouched.
    pub journal: Option<Arc<Mutex<NodeJournal>>>,
    /// The application's live view guards.
    pub views: ViewRegistry,
    /// Barriers this node has entered (drives `fault_barrier`).
    barriers_entered: Cell<u64>,
}

impl<P: Protocol> Seat<P> {
    /// Charge `ops` element operations of application compute to the
    /// node's virtual clock (the workload cost model).
    pub fn charge_compute(&self, ops: u64) {
        let d = self.ctx.cpu.compute(ops);
        self.ctx.clock.advance(d);
        self.ctx.stats.charge(TimeCategory::Compute, d);
    }

    /// Open a barrier, before the protocol's own steps: fence off live
    /// view guards, count the entry — or die here, if the fault plan
    /// kills this node entering it — and stamp the race detector.
    /// Returns the barrier's 1-based number.
    pub fn enter_barrier(&self) -> u64 {
        self.views.assert_no_live_views("barrier");
        let entered = self.barriers_entered.get() + 1;
        self.barriers_entered.set(entered);
        if self.fault_barrier == Some(entered) {
            panic!(
                "fault injection: node {} killed entering barrier {entered}",
                self.ctx.me
            );
        }
        // Stamp the detector before the rendezvous: the node that
        // completes the barrier must see every earlier node's clock.
        self.stamp(|d, me| d.on_barrier_enter(me));
        entered
    }

    /// Close barrier `seq`, once the protocol has applied its
    /// cluster-agreed `written` set: journal the interval just
    /// published (`journal_barrier`), then stamp the race
    /// detector — only after the full rendezvous, so the exit clock
    /// joins every node's enter stamp, starting a fresh interval.
    ///
    /// A crash fault strikes after this: the paper's crash model dies
    /// right *after* a completed barrier, so that barrier's records
    /// are on the log the rejoin reads back.
    pub fn exit_barrier(
        &self,
        written: &[<P::Node as Journaled>::Written],
        seq: u64,
    ) -> Result<(), <P::Node as Journaled>::Error> {
        self.journal_barrier(written, seq)?;
        self.stamp(|d, me| d.on_barrier_exit(me));
        Ok(())
    }

    /// Acquire `lock` through the protocol's `acquire`, fenced against
    /// live view guards. The race detector's happens-before edge lands
    /// only once the grant is actually held, so a racing acquirer
    /// cannot observe it early.
    pub fn acquire_lock<G>(&self, lock: u32, acquire: impl FnOnce(&SyncCtx) -> G) -> G {
        self.views.assert_no_live_views("lock");
        let grant = acquire(&self.ctx);
        self.stamp(|d, me| d.on_lock_acquire(me, lock));
        grant
    }

    /// Release `lock` through the protocol's `release`, fenced against
    /// live view guards. The race detector's clock is published first:
    /// the next acquirer must join everything done in the critical
    /// section. (The protocol's release may flush diffs before it
    /// hands the lock on; the detector records no access during it.)
    pub fn release_lock(&self, lock: u32, release: impl FnOnce(&SyncCtx)) {
        self.views.assert_no_live_views("unlock");
        self.stamp(|d, me| d.on_lock_release(me, lock));
        release(&self.ctx);
    }

    /// Stamp the race detector, when analysis is on.
    fn stamp(&self, f: impl FnOnce(&RaceDetector, NodeId)) {
        if let Some(d) = &self.analyze {
            f(d, self.ctx.me);
        }
    }

    /// Wait on the application task for the next reply its comm task
    /// forwards — parked on the scheduler until the comm task's wake,
    /// which carries the reply's arrival time — then advance the clock
    /// to that arrival, charging the wait as network time.
    fn await_reply(&self) -> Envelope<Msg> {
        let env = loop {
            if let Some(env) = self.replies.lock().pop_front() {
                break env;
            }
            self.ctx.sched.block_with(P::REPLY_WAIT);
        };
        self.ctx
            .stats
            .charge_until(TimeCategory::Network, &self.ctx.clock, env.arrival);
        env
    }

    /// Persistence hook, run after every completed barrier (a no-op
    /// without a journal): snapshot the post-barrier units, name table
    /// and written home-owned masters — and, when a checkpoint is due,
    /// the extent map, one extent per unit at its mapped address —
    /// append one deterministic record batch to the node's journal,
    /// and book the bytes on the node's serial disk device as a
    /// write-behind batch — the device gets busier but the application
    /// never stalls on journal I/O (the next demand read or swap trip
    /// queues behind the append). Lock order matches the compaction
    /// daemon: journal, then node.
    fn journal_barrier(
        &self,
        written: &[<P::Node as Journaled>::Written],
        seq: u64,
    ) -> Result<(), <P::Node as Journaled>::Error> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let mut j = journal.lock();
        let mut node = self.node.lock();
        let units = node.persist_units();
        let extents = match j.checkpoint_due(seq) {
            true => units
                .iter()
                .map(|(meta, addr)| Extent {
                    id: meta.id,
                    addr: addr.unwrap_or(0),
                    bytes: meta.bytes,
                    mapped: addr.is_some(),
                })
                .collect(),
            false => Vec::new(),
        };
        let input = BarrierInput {
            seq,
            clock_nanos: self.ctx.clock.now().nanos(),
            live: units.into_iter().map(|(meta, _)| meta).collect(),
            names: node.persist_names(),
            written_home: node.persist_written_content(written)?,
            extents,
        };
        let out = j.append_barrier(input);
        if !out.write_sizes.is_empty() {
            if let Some(disk) = node.persist_disk() {
                disk.write_batch(self.ctx.clock.now(), &out.write_sizes);
            }
        }
        self.ctx.stats.count_log_append(out.records, out.bytes);
        if out.checkpoint_bytes > 0 {
            self.ctx.stats.count_checkpoint(out.checkpoint_bytes);
        }
        if out.replayed {
            self.ctx.stats.count_restore_replay_barrier();
        }
        Ok(())
    }
}

/// The driver's part of a node's exit report.
#[derive(Debug, Clone)]
pub struct NodeSummary {
    /// The node's rank.
    pub me: NodeId,
    /// Final virtual time (the node's execution time).
    pub time: SimInstant,
    /// The node's time/counter statistics.
    pub stats: NodeStats,
    /// The node's traffic counters.
    pub traffic: TrafficStats,
    /// Scheduler dispatches of this node's app + comm tasks. A pure
    /// function of the simulated schedule: identical run to run.
    pub sched_turns: u64,
    /// Wakes delivered to this node's app + comm tasks; deterministic
    /// like `sched_turns`.
    pub sched_wakes: u64,
}

/// What [`Report`] reads of a protocol's per-node report.
pub trait NodeRecord {
    /// The driver's part: final clock, counters and traffic.
    fn common(&self) -> (SimInstant, &NodeStats, &TrafficStats);

    /// The protocol's own columns, `(name, value)` in report order —
    /// part of [`Report::fingerprint`]. None by default.
    fn protocol_columns(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

impl NodeRecord for NodeSummary {
    fn common(&self) -> (SimInstant, &NodeStats, &TrafficStats) {
        (self.time, &self.stats, &self.traffic)
    }
}

/// Cluster-wide outcome, over the protocol's per-node report `N`.
#[derive(Debug, Clone)]
pub struct Report<N> {
    /// Per-node reports, indexed by rank.
    pub nodes: Vec<N>,
    /// Execution time: the slowest node's final virtual clock.
    pub exec_time: SimInstant,
    /// The seed the cluster ran with.
    pub seed: u64,
    /// Whole-run scheduler counters; always `Some` (the `Option` is
    /// kept for source compatibility). `turns`/`wakes`/`epochs`/
    /// `handoffs` are functions of the schedule; `worker_busy_ns`
    /// describes host execution only.
    pub sched: Option<SchedSummary>,
    /// Race-detector report (`Some` iff analysis was enabled).
    pub races: Option<RaceReport>,
}

impl<N: NodeRecord> Report<N> {
    /// Sum over nodes of a per-node counter.
    pub fn total<F: Fn(&N) -> u64>(&self, f: F) -> u64 {
        self.nodes.iter().map(f).sum()
    }

    /// Home-load imbalance over the nodes' `home_bytes_served` (see
    /// [`lots_sim::home_load_ratio_permille`]).
    pub fn home_load_ratio_permille(&self) -> u64 {
        lots_sim::home_load_ratio_permille(
            self.nodes.iter().map(|n| n.common().1.home_bytes_served()),
        )
    }

    /// Every virtual number in the report, serialized: the seed, the
    /// execution time and, per node, the final clock, the protocol's
    /// own columns, every row of both counter tables
    /// ([`lots_net::TRAFFIC_COUNTERS`], [`lots_sim::COUNTERS`]) and
    /// every category time. Equal fingerprints mean two runs were
    /// indistinguishable.
    ///
    /// Left out: the scheduler's counters (a `ScheduleScript` may
    /// permute turns and wakes), the race report (enabling analysis
    /// must leave the fingerprint unchanged) and the one row marked
    /// `restore_only`, which tells a restore from its original run.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("seed={} exec={}", self.seed, self.exec_time.nanos());
        for (i, node) in self.nodes.iter().enumerate() {
            let (time, stats, traffic) = node.common();
            let _ = write!(s, " [{i} t={}", time.nanos());
            for (name, v) in node.protocol_columns() {
                let _ = write!(s, " {name}={v}");
            }
            for row in lots_net::TRAFFIC_COUNTERS {
                let _ = write!(s, " {}={}", row.name, (row.get)(traffic));
            }
            for row in lots_sim::COUNTERS.iter().filter(|r| !r.restore_only) {
                let _ = write!(s, " {}={}", row.name, (row.get)(stats));
            }
            for cat in lots_sim::ALL_CATEGORIES {
                let _ = write!(s, " {}={}", cat.name(), stats.time_in(cat).nanos());
            }
            s.push(']');
        }
        s
    }
}

/// Run `f`; if it panics, poison the protocol before the panic
/// continues — so before the task retires (see [`run_tasks`]). For a
/// daemon turn the panic continues into the engine, which retires the
/// daemon and spares the thread that was driving it.
fn poison_on_panic<P: Protocol, T>(proto: &P, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        proto.poison();
        resume_unwind(payload)
    })
}

/// The message of a panic payload, when it carries one.
fn panic_text(payload: &(dyn Any + Send)) -> Option<&str> {
    match payload.downcast_ref::<&'static str>() {
        Some(s) => Some(s),
        None => payload.downcast_ref::<String>().map(String::as_str),
    }
}

/// Re-raise the *original* panic among `panics` (task order): the
/// first one that is neither a waiter reporting that its service was
/// poisoned nor a deadlock snapshot (which is what a task parked for a
/// reply reports once the comm task that owed it one has died),
/// falling back to the first of those.
fn reraise_original(mut panics: Vec<Box<dyn Any + Send>>) -> ! {
    let secondary = |p: &Box<dyn Any + Send>| {
        panic_text(p.as_ref()).is_some_and(|msg| {
            msg.contains("peer app thread panicked") || msg.contains("virtual-time deadlock")
        })
    };
    let first_original = panics.iter().position(|p| !secondary(p)).unwrap_or(0);
    resume_unwind(panics.swap_remove(first_original))
}

/// One turn of a node's compaction daemon. It carries its own clock:
/// it polls in virtual time independently of the node's app/comm
/// progress, and the engine's one-task-per-node-per-epoch rule keeps
/// the interleaving deterministic.
fn compaction_turn<P: Protocol>(
    me: &SchedHandle,
    clock: &SimClock,
    poll: SimDuration,
    node: &Mutex<P::Node>,
    journal: &Mutex<NodeJournal>,
    stats: &NodeStats,
) -> DaemonTurn {
    if !me.apps_live() {
        return DaemonTurn::Done;
    }
    // Compact under the journal lock, then book the run's I/O on
    // the node's serial disk device at daemon time — a blocking read
    // of the folded prefix (the daemon sleeps through it), then a
    // write-behind put of the rewritten log: demand reads and swap
    // write-backs queue behind both.
    let out = journal.lock().maybe_compact();
    if let Some(out) = out {
        if let Some(disk) = node.lock().persist_disk() {
            let read = disk.read(clock.now(), out.read_bytes);
            if out.write_bytes > 0 {
                disk.write_batch(read.done, &[out.write_bytes]);
            }
            clock.advance_to(read.done);
        }
        stats.count_compaction(out.reclaimed);
    }
    let next = clock.now() + poll;
    clock.advance_to(next);
    DaemonTurn::Until(next)
}

/// Run the SPMD closure `app` on a simulated cluster speaking `proto`.
///
/// Returns each node's result in rank order plus the cluster report.
/// Same `spec` ⇒ byte-identical report; a permuting
/// [`ClusterSpec::explore`] script changes only the scheduler counters.
/// The caller has checked the options first (`run_cluster` and
/// `run_jiajia_cluster` do): nothing here rejects a configuration.
pub fn run<P, R, F>(spec: ClusterSpec, proto: P, app: F) -> (Vec<R>, Report<P::NodeReport>)
where
    P: Protocol,
    R: Send,
    F: Fn(&P::Dsm) -> R + Send + Sync,
{
    let n = spec.n;
    // The daemons' turn functions outlive this frame's borrows (the
    // engine owns them), so they share the protocol through an `Arc`.
    let proto = Arc::new(proto);
    let clocks: Vec<SimClock> = (0..n).map(|_| SimClock::new()).collect();
    let sched = Scheduler::new(
        spec.scheduler,
        spec.topology.lookahead(&spec.machine.net, n),
    );
    if let Some(script) = &spec.explore {
        sched.set_script(script.clone());
    }
    let register = |role: &str, i: usize, clock: &SimClock, daemon: bool| {
        sched.register(format!("{}-{role}-{i}", P::NAME), clock.clone(), i, daemon)
    };
    let app_tasks: Vec<SchedHandle> = (0..n)
        .map(|i| register("app", i, &clocks[i], false))
        .collect();
    let comm_tasks: Vec<SchedHandle> = (0..n)
        .map(|i| register("comm", i, &clocks[i], true))
        .collect();
    let compaction_poll = proto
        .persist()
        .filter(|p| p.compaction.enabled)
        .map(|p| p.compaction.poll);
    let compaction_tasks: Vec<(SchedHandle, SimClock)> = match compaction_poll {
        Some(_) => (0..n)
            .map(|i| {
                let clock = SimClock::new();
                (register("persist", i, &clock, true), clock)
            })
            .collect(),
        None => Vec::new(),
    };

    // delay_for() short-circuits when no delay is configured, so the
    // net layer can take the whole plan whenever anything is active.
    let fault_delays = spec
        .faults
        .is_active()
        .then(|| Arc::new(spec.faults.clone()));
    let net = cluster_net::<Msg>(n, spec.machine.net, Some(comm_tasks.clone()), fault_delays);
    // If a lost message strands a requester and trips the deadlock
    // detector, its snapshot names the dropped (src, dst, seq).
    let drops = net.drops.clone();
    sched.set_diagnostic(move || drops.render());

    let persist = proto.persist().map(|cfg| {
        // A restore's replay journals into a fresh scratch store.
        let store = spec
            .persist_store
            .clone()
            .filter(|_| spec.restore.is_none());
        (cfg, store.unwrap_or_else(|| PersistStore::new(n)))
    });
    // One detector instance spans the cluster: nodes stamp it through
    // their application handles, the report is drained after the join.
    let detector = spec
        .analyze
        .race_detect
        .then(|| Arc::new(RaceDetector::new(n)));

    // Every node's guards draw their buffers from one pool.
    let guards = Arc::new(GuardPool::default());

    let (app, app_proto) = (&app, &*proto);
    let mut tasks = Vec::with_capacity(n);
    let mut probes = Vec::with_capacity(n);
    for (me, (tx, rx)) in net.endpoints.into_iter().enumerate() {
        let clock = clocks[me].clone();
        let stats = NodeStats::new();
        let cpu = spec.machine.cpu.scaled(spec.faults.cpu_factor(me));
        let node = Arc::new(Mutex::new(proto.new_node(
            me,
            cpu,
            clock.clone(),
            stats.clone(),
        )));
        // The node's journal is appended by the app thread after every
        // barrier and compacted by the node's daemon.
        let journal = persist.as_ref().map(|&(cfg, ref store)| {
            let mut j = NodeJournal::new(me, store.clone(), cfg.clone());
            if let Some(restored) = &spec.restore {
                j.set_verify(restored.verify_plan(me));
            }
            Arc::new(Mutex::new(j))
        });
        probes.push((stats.clone(), tx.stats().clone(), Arc::clone(&node)));

        let replies = Arc::new(Mutex::new(VecDeque::new()));
        let seat = Seat {
            ctx: SyncCtx {
                me,
                clock,
                stats: stats.clone(),
                traffic: tx.stats().clone(),
                net: spec.machine.net,
                cpu,
                sched: app_tasks[me].clone(),
            },
            node: Arc::clone(&node),
            net: tx.clone(),
            replies: Arc::clone(&replies),
            n,
            seed: spec.seed,
            fault_barrier: spec.faults.panic_barrier_for(me),
            crash_fault: spec.faults.crash_for(me),
            analyze: detector.clone(),
            journal: journal.clone(),
            views: ViewRegistry::new(Arc::clone(&guards)),
            barriers_entered: Cell::new(0),
        };
        // A panicking node can never reach the next rendezvous, and a
        // dead comm or compaction task strands its peers just the
        // same: every body poisons on its way out.
        tasks.push((app_tasks[me].clone(), move |_: &SchedHandle| {
            poison_on_panic(app_proto, || app(&app_proto.new_dsm(seat)))
        }));
        let mut comm = Comm::<P> {
            app: app_tasks[me].clone(),
            node: Arc::clone(&node),
            clock: clocks[me].clone(),
            stats: stats.clone(),
            cpu,
            net: tx,
            rx,
            replies,
        };
        let comm_proto = Arc::clone(&proto);
        comm_tasks[me].set_turn(move |me| poison_on_panic(&*comm_proto, || comm.turn(me)));
        if let (Some(poll), Some(journal)) = (compaction_poll, journal) {
            let (task, pclock) = &compaction_tasks[me];
            let (pclock, proto) = (pclock.clone(), Arc::clone(&proto));
            task.set_turn(move |me| {
                poison_on_panic(&*proto, || {
                    compaction_turn::<P>(me, &pclock, poll, &node, &journal, &stats)
                })
            });
        }
    }

    // Everything is joined before any panic is propagated.
    let mut results = Vec::with_capacity(n);
    let mut panics = Vec::new();
    for outcome in run_tasks(&sched, tasks) {
        match outcome {
            Ok(result) => results.push(result),
            Err(payload) => panics.push(payload),
        }
    }
    if !panics.is_empty() {
        reraise_original(panics);
    }

    let nodes: Vec<P::NodeReport> = probes
        .into_iter()
        .enumerate()
        .map(|(me, (stats, traffic, node))| {
            let summary = NodeSummary {
                me,
                time: clocks[me].now(),
                stats,
                traffic,
                sched_turns: app_tasks[me].turns() + comm_tasks[me].turns(),
                sched_wakes: app_tasks[me].wakes() + comm_tasks[me].wakes(),
            };
            P::node_report(summary, &node.lock())
        })
        .collect();
    let exec_time = clocks
        .iter()
        .map(SimClock::now)
        .max()
        .unwrap_or(SimInstant::ZERO);
    (
        results,
        Report {
            nodes,
            exec_time,
            seed: spec.seed,
            sched: Some(sched.summary()),
            races: detector.map(|d| d.report()),
        },
    )
}

#[cfg(test)]
mod tests;
