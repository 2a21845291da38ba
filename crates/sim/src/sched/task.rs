//! Task bookkeeping shared by the engine: state machine, block
//! reasons, and per-task counters.

use std::sync::Arc;
use std::thread::Thread;

use crate::clock::{SimClock, SimInstant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskState {
    Runnable,
    Running,
    Blocked,
    Finished,
}

/// Why a blocked task is blocked.
///
/// The reason is load-bearing, not just diagnostic: the conservative
/// lock-grant gate (`crate::sched::lookahead`) classifies every
/// blocked task by reason to bound the earliest virtual instant at
/// which it could still issue a competing lock request, and the
/// deadlock detector prints it so a stuck run names what each task was
/// waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Generic block. Conservatively treated as able to act again at
    /// its block-time clock (same bound as a runnable task).
    Other,
    /// Waiting for a reply envelope forwarded by the node's comm task.
    /// Bounded below by `m + lookahead`: the reply is carried by a
    /// daemon whose next event is at or after the global minimum `m`,
    /// plus at least one wire latency.
    Reply,
    /// Enqueued in a lock's virtual-time waiter queue, behind the
    /// front. `at` is the request's virtual arrival at the lock
    /// service; `rank` the requester's node. Its next competing
    /// request cannot precede its current one.
    LockQueue { at: u64, rank: usize },
    /// Front of a lock's waiter queue, waiting for the conservative
    /// grant gate. Woken **only** by gate promotion at an epoch
    /// boundary (plain wakes are ignored), so a grant can never be
    /// observed before every competing earlier request is ruled out.
    LockGate { at: u64, rank: usize },
    /// Full-cluster barrier rendezvous. Excluded from the grant gate:
    /// barrier exit causally requires every node — including the gated
    /// requester — to enter first, so a barrier-blocked task cannot
    /// issue a lock request before the gated grant completes.
    Barrier,
    /// Idle daemon (comm task with no buffered messages). Parked at
    /// virtual infinity until a message arrives or the engine releases
    /// the daemons after the last application task.
    Idle,
}

impl BlockReason {
    pub(crate) fn name(self) -> &'static str {
        match self {
            BlockReason::Other => "blocked",
            BlockReason::Reply => "reply-wait",
            BlockReason::LockQueue { .. } => "lock-queue",
            BlockReason::LockGate { .. } => "lock-gate",
            BlockReason::Barrier => "barrier-wait",
            BlockReason::Idle => "idle",
        }
    }
}

/// How one turn of a daemon's turn function ended — what the engine
/// does with the daemon next (see [`super::SchedHandle::set_turn`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonTurn {
    /// Nothing to do: park at virtual infinity ([`BlockReason::Idle`])
    /// until a wake — a message hint, or the engine's end-of-run
    /// release — makes the daemon runnable again.
    Idle,
    /// Stay runnable at this virtual instant (a timed yield: buffered
    /// work whose time lies at or beyond the turn's horizon).
    Until(SimInstant),
    /// The daemon is finished; its turn function is dropped.
    Done,
}

/// A daemon's body: one call is one turn. Runs inline on whichever
/// host thread is at the engine's dispatch point.
pub(crate) type TurnFn = Box<dyn FnMut() -> DaemonTurn + Send>;

pub(crate) struct Task {
    pub name: Arc<str>,
    pub clock: SimClock,
    /// Simulated node this task belongs to. At most one task per node
    /// runs per epoch (the app task and the comm handler share the
    /// node clock).
    pub node: usize,
    pub daemon: bool,
    pub state: TaskState,
    /// Virtual instant ordering this task among runnables: its clock
    /// when it blocked (virtual infinity for idle daemons), min-merged
    /// with any wake hints (message arrival times) delivered since.
    pub ready_at: u64,
    /// Why the task is blocked (meaningful only in `Blocked`).
    pub reason: BlockReason,
    /// Sticky wake delivered while the task was running; consumed by
    /// its next block/yield, which then returns immediately (for a
    /// daemon: by the end of its turn, which is then re-run).
    pub wake_pending: bool,
    /// Virtual horizon of the task's current turn: events strictly
    /// before it are safe to consume (set at dispatch).
    pub horizon: u64,
    /// Application tasks: the parked OS thread to unpark on dispatch
    /// (set by `attach`). Daemons never have one.
    pub thread: Option<Thread>,
    /// Daemons: the turn function (set by `set_turn`; taken out while a
    /// turn runs, dropped when the daemon is done).
    pub turn: Option<TurnFn>,
    /// Times this task was dispatched.
    pub turns: u64,
    /// Wake calls aimed at this task.
    pub wakes: u64,
}

impl Task {
    pub(crate) fn new(name: Arc<str>, clock: SimClock, node: usize, daemon: bool) -> Task {
        let ready_at = clock.now().nanos();
        Task {
            name,
            clock,
            node,
            daemon,
            state: TaskState::Runnable,
            ready_at,
            reason: BlockReason::Other,
            wake_pending: false,
            horizon: u64::MAX,
            thread: None,
            turn: None,
            turns: 0,
            wakes: 0,
        }
    }

    /// Blocked → runnable, no later than virtual instant `hint`
    /// (hints min-merge with the block-time ready instant).
    pub(crate) fn unblock(&mut self, hint: u64) {
        self.state = TaskState::Runnable;
        self.reason = BlockReason::Other;
        self.ready_at = self.ready_at.min(hint);
    }

    /// Any state → finished: nothing can wake the task again, and a
    /// daemon's turn function is dropped.
    pub(crate) fn retire(&mut self) {
        self.state = TaskState::Finished;
        self.wake_pending = false;
        self.turn = None;
    }

    /// The (ready, id) dispatch key this task sorts under.
    pub(crate) fn key(&self, id: usize) -> (u64, usize) {
        (self.ready_at, id)
    }
}
