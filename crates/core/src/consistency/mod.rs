//! Scope Consistency synchronization services (§3.4).
//!
//! Locks implement the homeless write-update side of the mixed
//! protocol; barriers implement the migrating-home write-invalidate
//! side. Both are *shared cluster services*: the queueing/rendezvous is
//! in-process state behind a mutex, with every wait parked on the
//! virtual-time scheduler ([`sched_wait_step`]), while the
//! control-message costs (requests, grants, enter/exit) are charged
//! analytically to the participants' virtual clocks and traffic
//! counters — see DESIGN.md §2.

pub mod barrier;
pub mod locks;

use lots_net::TrafficStats;
use lots_sim::{BlockReason, CpuModel, NetModel, NodeStats, SchedHandle, SimClock};
use parking_lot::{Mutex, MutexGuard};

/// One virtual-time-engine wait step, shared by every sync service
/// (LOTS and JIAJIA barriers and locks): register the calling task in
/// the service's waiter list, hand the execution token back to the
/// scheduler (declaring `reason` so the deadlock detector and the
/// conservative lock-grant gate can classify the wait), and re-acquire
/// the state lock once woken. Callers loop on their rendezvous
/// condition (re-checking poison) around this — wakes are collective,
/// so spurious wakeups are expected.
///
/// The registration happens under the same mutex the waker drains, and
/// wakes delivered between the guard drop and [`SchedHandle::block_with`]
/// are sticky (the block returns immediately), so the step is
/// lost-wakeup-free — under the sequential turnstile *and* under the
/// parallel engine, where the waker may be a concurrent batch member.
pub fn sched_wait_step<'a, T>(
    mutex: &'a Mutex<T>,
    mut guard: MutexGuard<'a, T>,
    waiters: impl FnOnce(&mut T) -> &mut Vec<SchedHandle>,
    h: &SchedHandle,
    reason: BlockReason,
) -> MutexGuard<'a, T> {
    waiters(&mut guard).push(h.clone());
    drop(guard);
    h.block_with(reason);
    mutex.lock()
}

/// Per-node handles the synchronization services need to charge
/// virtual time and traffic, and to park the caller while it waits.
#[derive(Clone)]
pub struct SyncCtx {
    /// This node's rank.
    pub me: lots_net::NodeId,
    /// The node's virtual clock.
    pub clock: SimClock,
    /// The node's time/counter statistics.
    pub stats: NodeStats,
    /// The node's traffic counters.
    pub traffic: TrafficStats,
    /// Interconnect cost model.
    pub net: NetModel,
    /// CPU cost model.
    pub cpu: CpuModel,
    /// The calling (application) task's scheduler handle: every wait
    /// in the services parks through it, so the caller must be that
    /// task's thread, inside a turn.
    pub sched: SchedHandle,
}

impl SyncCtx {
    /// A context with fresh statistics and traffic counters for the
    /// task `sched` running on `clock` — what a service needs when it
    /// is exercised outside a cluster run (unit tests, benches; see
    /// [`lots_sim::run_app_tasks`]).
    pub fn standalone(
        me: lots_net::NodeId,
        machine: &lots_sim::MachineConfig,
        clock: SimClock,
        sched: SchedHandle,
    ) -> SyncCtx {
        SyncCtx {
            me,
            clock,
            stats: NodeStats::new(),
            traffic: TrafficStats::new(),
            net: machine.net,
            cpu: machine.cpu,
            sched,
        }
    }
}
