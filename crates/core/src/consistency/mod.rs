//! Scope Consistency synchronization services (§3.4): the
//! **mechanisms**, written once, and LOTS' **policies** over them.
//!
//! Every system this repository compares synchronizes through the same
//! two mechanisms, so that what differs between them is coherence
//! policy and nothing else:
//!
//! * [`Rendezvous`] — an all-node meeting point: arrival accounting
//!   (arrivals fold up a combining tree of fan-in 16, whose root is
//!   the manager), the round's result, parking and poisoning. What the
//!   round *computes* from the nodes' contributions is a closure. LOTS'
//!   [`barrier::BarrierService`] is three of them (enter/plan, a drain
//!   entered only when the plan schedules diffs, event-only);
//!   `lots_jiajia`'s barrier is one.
//! * [`LockQueue`] — per-lock queues granting in virtual
//!   request-arrival order, with the release chain, per-node `seen`
//!   timestamps, parking and poisoning. What a release logs and what a
//!   grant carries is the policy's state `S` and two closures. LOTS'
//!   [`locks::LockService`] logs word updates (homeless write-update,
//!   §3.5); `lots_jiajia`'s locks log page write notices.
//!
//! Both are *shared cluster services*: the queueing is in-process
//! state behind a mutex, every wait is parked on the virtual-time
//! scheduler, and the control-message costs (requests, grants,
//! enter/exit) are charged analytically to the participants' virtual
//! clocks and traffic counters — the README's "Network model & fault
//! injection" calls them the analytic control plane.
//!
//! # Why no wakeup is lost
//!
//! A waiter registers in the service's waiter list **under the same
//! mutex** the waker drains it under (`park_until`), and a wake
//! delivered between the guard drop and [`SchedHandle::block_with`] is
//! sticky (the block returns at once). So whoever changes the
//! condition either finds the waiter registered and wakes it, or the
//! waiter sees the new condition before it registers. Wakes are
//! collective (a completed round, a release and a poisoning each wake
//! the whole list), so spurious wakeups are expected and every waiter
//! loops on its condition, re-checking the poison flag, in
//! `park_until` — the one place a sync service parks.
//!
//! # Why the outcome is a function of virtual time
//!
//! Which host thread reaches a service first is an accident of the
//! engine's dispatch order, and a [`lots_sim::ScheduleScript`]
//! permutes it on purpose; replay and journal restore depend on the
//! result not noticing. Hence:
//!
//! * a rendezvous charges each combining step at the CPU speed of its
//!   group's *virtual* last arriver — lex-max `(arrival, node)` — not
//!   of whichever thread completed the round; groups are runs of
//!   consecutive ranks, and the round's contributions reach the policy
//!   in rank order;
//! * a lock queue orders waiters by `(request arrival, node)`, and the
//!   front waiter of a free lock additionally waits on the engine's
//!   conservative grant gate ([`SchedHandle::block_gated`]) until no
//!   other task could still issue a request sorting ahead of it. The
//!   gate bounds competing *requests*, not the previous holder's
//!   release, so the grant condition is re-checked after promotion.

pub mod barrier;
mod lock_queue;
pub mod locks;
mod rendezvous;

pub use lock_queue::{LockQueue, Published};
pub use rendezvous::{merge_lifecycle, named_wire_bytes, Arrivals, Rendezvous};

use lots_net::TrafficStats;
use lots_sim::{BlockReason, CpuModel, NetModel, NodeStats, SchedHandle, SimClock};
use parking_lot::{Mutex, MutexGuard};

/// Park task `h` until `ready` holds of the state behind `mutex`.
/// `ready` runs under the lock, before the first wait and after every
/// wake; it is also where a service re-checks its poison flag (by
/// panicking). Each wait registers `h` in the service's waiter list,
/// hands the execution token back to the scheduler (declaring
/// `reason` so the deadlock detector and the conservative lock-grant
/// gate can classify the wait) and re-acquires the lock once woken.
/// Lost-wakeup-free — see the module docs.
fn park_until<'a, T>(
    mutex: &'a Mutex<T>,
    mut guard: MutexGuard<'a, T>,
    waiters: impl Fn(&mut T) -> &mut Vec<SchedHandle>,
    h: &SchedHandle,
    reason: BlockReason,
    ready: impl Fn(&T) -> bool,
) -> MutexGuard<'a, T> {
    while !ready(&guard) {
        waiters(&mut guard).push(h.clone());
        drop(guard);
        h.block_with(reason);
        guard = mutex.lock();
    }
    guard
}

/// Wake every task parked in `waiters` (they re-check their condition
/// and re-register if it does not hold yet).
fn wake_all(waiters: &mut Vec<SchedHandle>) {
    for w in waiters.drain(..) {
        w.wake();
    }
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
    /// is exercised outside a cluster run (unit tests; see
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

#[cfg(test)]
mod tests {
    //! Harness shared by the unit tests of the mechanisms and of the
    //! LOTS services built on them.

    use super::SyncCtx;
    use lots_net::NodeId;
    use lots_sim::machine::p4_fedora;
    use lots_sim::{run_app_tasks, SimClock};

    /// Run `body` as node `me`'s application task on each of `n` nodes.
    pub fn on_nodes<R: Send>(n: usize, body: impl Fn(&SyncCtx) -> R + Sync) -> Vec<R> {
        run_app_tasks(n, |me, h, clock| {
            body(&SyncCtx::standalone(
                me,
                &p4_fedora(),
                clock.clone(),
                h.clone(),
            ))
        })
    }

    /// Run `body` on one scheduler task that plays every node in turn:
    /// the `ctx(me)` it is handed makes node `me`'s context (own clock,
    /// that task's handle).
    pub fn solo(body: impl Fn(&dyn Fn(NodeId) -> SyncCtx) + Sync) {
        run_app_tasks(1, |_, h, _| {
            body(&|me| SyncCtx::standalone(me, &p4_fedora(), SimClock::new(), h.clone()))
        });
    }
}
