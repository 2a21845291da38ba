//! The conservative parallel discrete-event engine.
//!
//! # Execution model
//!
//! Execution proceeds in **epochs**. At each epoch boundary (all
//! previously dispatched tasks blocked or finished) the engine, under
//! one mutex:
//!
//! 1. **Promotes lock gates** (`crate::sched::lookahead`): front
//!    waiters of virtual-time-ordered lock queues whose grant can no
//!    longer be preceded by any competing request become runnable.
//! 2. **Selects a batch** (`crate::sched::queue`): every runnable
//!    task whose ready time lies within `lookahead` of the global
//!    minimum `m` — at most one per node — with the epoch horizon
//!    `H = m + L` (or `H = ∞` for a solo batch).
//! 3. **Dispatches** the batch onto the worker pool: all members
//!    concurrently under [`SchedulerMode::Parallel`] (up to `workers`
//!    unparked at once), or one at a time in ascending `(ready, id)`
//!    order under [`SchedulerMode::Deterministic`].
//!
//! # Why the two modes produce byte-identical reports
//!
//! The epoch/lookahead safety argument, in full:
//!
//! * **Batch membership is decided before any member runs**, so both
//!   modes compute the same batches from the same boundary states.
//! * **No member can place an event in a co-member's consumable
//!   past.** Every cross-node interaction rides the simulated network:
//!   a member whose turn starts at `ready ≥ m` sends messages whose
//!   arrival is at least `ready + L ≥ m + L = H` (the cost model's
//!   `one_way` is bounded below by the minimum link latency, and fault
//!   injection only *adds* delay). Comm tasks consume buffered
//!   messages in `(arrival, src, seq)` order and only strictly below
//!   their turn's horizon `H`, so the set *and* order of messages a
//!   comm turn handles is a pure function of virtual time — messages
//!   racing in from co-members sort at or beyond `H` and wait for a
//!   later epoch regardless of physical arrival order.
//! * **Shared service state is order-invariant within an epoch.**
//!   Clock merges (`advance_to`) and statistics are commutative;
//!   barrier rendezvous fold their inputs with max/set-union merges
//!   keyed by `(arrive, node)`; lock queues order by virtual request
//!   arrival and grants pass through the conservative gate, which only
//!   opens at an epoch boundary once no competing earlier request can
//!   exist. Intra-batch physical interleaving therefore cannot change
//!   any virtual value.
//! * **Wake hints min-merge.** A blocked task's ready time is its
//!   block-time clock, lowered (never raised) by message-arrival
//!   hints; concurrent wakes commute.
//!
//! By induction over epochs, the cluster state at every epoch boundary
//! — and hence every report — is identical under `Deterministic`,
//! `Parallel { workers: 1 }` and `Parallel { workers: N }`. The
//! sequential mode stays the oracle; `tests/determinism.rs` gates the
//! equivalence on every committed workload.
//!
//! # Threads and daemons
//!
//! Only **application tasks** own an OS thread, used as a coroutine
//! stack: it parks between turns, and the engine unparks at most
//! `workers` of them at a time, so a `p = 256` cluster costs `p` host
//! threads of which a bounded number are *runnable* (host CPU pressure
//! is `min(batch, workers)`); parked stacks are lazily-committed
//! virtual memory.
//!
//! **Daemons are stackless.** A daemon is a turn function
//! ([`SchedHandle::set_turn`]): one call is one turn, ending in
//! [`DaemonTurn::Idle`], [`DaemonTurn::Until`] or [`DaemonTurn::Done`].
//! When the engine dispatches a daemon it does not wake anybody: the
//! host thread that is at the dispatch point — an application thread
//! inside `block`/`yield_until`/`finish`, or the launcher inside
//! [`Scheduler::launch`] — runs the turn *inline*, outside the state
//! mutex, and ends it like any other turn, which may dispatch the next
//! daemon. It keeps going until no dispatched daemon is waiting; by
//! then, unless the run is over, the engine has dispatched a
//! thread-backed task — the driver's own (it returns to its caller
//! without ever parking) or another's (already unparked; the driver
//! parks). A daemon turn is a turn in
//! every counted respect — `turns`, wakes, sticky wakes, horizon,
//! worker slot — so which thread happened to drive it is invisible to
//! every report. Under [`SchedulerMode::Parallel`] the daemon members
//! of a batch run one after another on their driver(s) while the
//! application members run concurrently on their own threads; the
//! safety argument above never relied on an order.
//!
//! A turn function that panics is caught on the driving thread, which
//! is *not* unwound: the daemon is retired, its payload kept for
//! [`run_tasks`](super::run_tasks) to hand back, and the run goes on.
//!
//! Per-worker busy time is tracked in host nanoseconds for the
//! scheduler-observability counters (informative only — host time
//! never feeds virtual state).
//!
//! # Deadlock detection
//!
//! The detector only examines quiesced states: it runs at an epoch
//! boundary, after gate promotion, when nothing is runnable. If a
//! non-daemon is still blocked, no wake can ever arrive (only running
//! tasks produce wakes), so the engine
//! panics every parked thread with a snapshot that names each task's
//! blocked-on reason (daemons included, with state and ready time).

use std::any::Any;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::clock::{SimDuration, SimInstant};
use crate::stats::SchedSummary;

use super::explore::ScheduleScript;
use super::lookahead;
use super::queue;
use super::task::{BlockReason, DaemonTurn, Task, TaskState};
use super::SchedulerMode;

#[derive(Default)]
struct State {
    tasks: Vec<Task>,
    /// [`SchedulerMode::Explore`]: the decision stream that reorders
    /// multi-member epoch batches. `None` keeps the canonical order.
    script: Option<ScheduleScript>,
    /// Selected batch members not yet dispatched, in dispatch order.
    pending: Vec<usize>,
    /// Index into `pending` of the next member to dispatch.
    next: usize,
    /// Daemons dispatched (state `Running`) whose turn no host thread
    /// has picked up yet; drained by [`Scheduler::drive`].
    inline: VecDeque<usize>,
    /// Tasks currently dispatched (state `Running`).
    running: usize,
    /// Application (non-daemon) tasks not yet finished.
    live_apps: usize,
    /// Payloads of daemon turn functions that panicked, in the order
    /// they died.
    daemon_panics: Vec<Box<dyn Any + Send>>,
    /// Batch selection's working space, reused across epochs.
    per_node: queue::PerNode,
    launched: bool,
    deadlocked: bool,
    /// Horizon of the current epoch, copied to tasks at dispatch.
    horizon: u64,
    /// Worker-pool slots: dispatch start instant per busy slot.
    slots: Vec<Option<Instant>>,
    /// Accumulated host busy-time per worker slot, in nanoseconds.
    busy_ns: Vec<u64>,
    epochs: u64,
    turns: u64,
    wakes: u64,
    max_concurrent: usize,
    /// Whether any application (non-daemon) task was still unfinished
    /// when the current epoch's batch was selected. Fixed for the whole
    /// epoch, so every batch member reads the same value regardless of
    /// host thread timing — see [`SchedHandle::apps_live`].
    epoch_live: bool,
    /// Set once the daemons have been released (see `select_epoch`).
    daemons_released: bool,
    /// Extra context appended to deadlock snapshots — the runtime
    /// installs a hook that renders, e.g., the transport's log of
    /// messages dropped without retransmission, so a node blocked on a
    /// lost reply is named `(src, dst, seq)` instead of a bare `Reply`.
    diagnostic: Option<Box<dyn Fn() -> String + Send + Sync>>,
}

/// The cluster-wide epoch engine (see the module docs).
pub struct Scheduler {
    state: Mutex<State>,
    /// Concurrency cap: 1 in `Deterministic`, `workers` in `Parallel`.
    cap: usize,
    /// Lookahead window in nanoseconds (minimum link latency).
    lookahead: u64,
}

/// One task's identity on a [`Scheduler`]: the handle node threads use
/// to attach, block and get woken. Cheap to clone; any thread may call
/// [`SchedHandle::wake`], but [`SchedHandle::attach`], the blocking
/// calls and [`SchedHandle::finish`] belong to the owning thread.
#[derive(Clone)]
pub struct SchedHandle {
    sched: Arc<Scheduler>,
    id: usize,
}

impl std::fmt::Debug for SchedHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SchedHandle(task {})", self.id)
    }
}

impl Scheduler {
    /// A fresh engine. `lookahead` is the network's minimum link
    /// latency — see [`crate::cost::NetModel::min_latency`].
    pub fn new(mode: SchedulerMode, lookahead: SimDuration) -> Arc<Scheduler> {
        let cap = match mode {
            // Explore permutes within-epoch order but dispatches one
            // task at a time, like the sequential oracle — a schedule
            // is a total dispatch order, so it must be sequential to
            // be a *schedule* at all.
            SchedulerMode::Deterministic | SchedulerMode::Explore { .. } => 1,
            SchedulerMode::Parallel { workers } => workers.max(1),
        };
        Arc::new(Scheduler {
            state: Mutex::new(State {
                slots: vec![None; cap],
                busy_ns: vec![0; cap],
                ..State::default()
            }),
            cap,
            lookahead: lookahead.0,
        })
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Tolerate poisoning: the deadlock detector panics while the
        // guard is held, and every other thread must still be able to
        // observe the `deadlocked` flag to fail loudly.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register a task before [`Scheduler::launch`]. `clock` is the
    /// node clock this task advances; `node` its simulated node (at
    /// most one task per node runs per epoch); `daemon` marks service
    /// tasks (comm handlers) that legitimately stay idle until the
    /// engine releases them after the last application task (see
    /// [`SchedHandle::apps_live`]) — a daemon has no thread, its body
    /// is the turn function installed with [`SchedHandle::set_turn`].
    /// Non-daemon tasks must be registered first, in rank order — the
    /// conservative lock gate compares their ids with node ranks.
    pub fn register(
        self: &Arc<Self>,
        name: impl Into<String>,
        clock: SimClock,
        node: usize,
        daemon: bool,
    ) -> SchedHandle {
        let mut st = self.lock();
        assert!(!st.launched, "register after launch");
        let id = st.tasks.len();
        assert!(
            daemon || id == node,
            "non-daemon tasks must be registered first, in rank order"
        );
        st.tasks.push(Task::new(name.into(), clock, node, daemon));
        st.live_apps += usize::from(!daemon);
        SchedHandle {
            sched: Arc::clone(self),
            id,
        }
    }

    /// Install the schedule script that [`SchedulerMode::Explore`]
    /// consults at every multi-member epoch. Call before
    /// [`Scheduler::launch`].
    pub fn set_script(&self, script: ScheduleScript) {
        let mut st = self.lock();
        assert!(!st.launched, "set_script after launch");
        st.script = Some(script);
    }

    /// Install a hook whose output is appended to every deadlock
    /// snapshot (empty output is skipped). The runtimes wire this to
    /// the transport's drop log so irrecoverable message loss is named
    /// in the panic instead of surfacing as an anonymous blocked task.
    pub fn set_diagnostic(&self, hook: impl Fn() -> String + Send + Sync + 'static) {
        let mut st = self.lock();
        st.diagnostic = Some(Box::new(hook));
    }

    /// Start execution: select and dispatch the first epoch. Call
    /// once, after all tasks are registered and every daemon has its
    /// turn function; application threads may attach before or after.
    /// Daemon turns dispatched ahead of the first application task run
    /// on the calling thread.
    pub fn launch(&self) {
        let mut st = self.lock();
        assert!(!st.launched, "launch called twice");
        if let Some(t) = st.tasks.iter().find(|t| t.daemon && t.turn.is_none()) {
            panic!("daemon {} has no turn function (set_turn)", t.name);
        }
        st.launched = true;
        Self::select_epoch(&mut st, self.cap, self.lookahead);
        drop(self.drive(st));
    }

    /// Run dispatched daemon turns inline, on the calling thread and
    /// outside the state mutex, until none is waiting — each end of
    /// turn may dispatch the next. Every dispatch point calls this
    /// before it parks or returns, so a daemon queued under the lock is
    /// always picked up: by the thread that queued it, or by one that
    /// reached its own dispatch point first.
    fn drive<'a>(&'a self, mut st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        while let Some(id) = st.inline.pop_front() {
            let mut turn = st.tasks[id]
                .turn
                .take()
                .expect("a dispatched daemon has its turn function");
            let outcome = loop {
                drop(st);
                let outcome = catch_unwind(AssertUnwindSafe(&mut turn));
                st = self.lock();
                // A wake that landed while the turn ran is sticky: the
                // daemon runs again at once, as a thread returning from
                // `block` would have gone round its loop.
                let done = matches!(outcome, Ok(DaemonTurn::Done) | Err(_));
                if done || !Self::absorb_sticky_wake(&mut st, id) {
                    break outcome;
                }
            };
            let state = &mut *st;
            let t = &mut state.tasks[id];
            match outcome {
                Ok(DaemonTurn::Idle) => {
                    t.turn = Some(turn);
                    t.state = TaskState::Blocked;
                    t.reason = BlockReason::Idle;
                    // Idle daemons park at virtual infinity so they
                    // never hold the lookahead window back; a message
                    // hint or the end-of-run release lowers this.
                    t.ready_at = u64::MAX;
                }
                Ok(DaemonTurn::Until(at)) => {
                    t.turn = Some(turn);
                    t.state = TaskState::Runnable;
                    t.ready_at = at.nanos();
                }
                Ok(DaemonTurn::Done) => t.retire(),
                Err(payload) => {
                    t.retire();
                    state.daemon_panics.push(payload);
                }
            }
            Self::end_turn(&mut st, id, self.cap, self.lookahead);
        }
        st
    }

    /// Consume task `id`'s sticky wake, if one is pending: its turn
    /// goes on instead of ending.
    ///
    /// For an application task the absorbed wake counts as the
    /// dispatch it stands in for: its wakes are rendezvous completions,
    /// and had the co-member's wake landed a moment later, on the
    /// blocked task, the engine would have dispatched it — so `turns`
    /// does not depend on which side of that race the wake fell. A
    /// daemon's wakes are arrival hints for events at or beyond its
    /// horizon: the re-run turn ends `Until(arrival)` and the dispatch
    /// the hint asked for still happens, so nothing is counted.
    fn absorb_sticky_wake(st: &mut State, id: usize) -> bool {
        let live = st.live_apps > 0;
        let t = &mut st.tasks[id];
        if !t.wake_pending {
            return false;
        }
        t.wake_pending = false;
        if live && !t.daemon {
            t.turns += 1;
            st.turns += 1;
        }
        true
    }

    /// Payloads of the daemon turn functions that panicked so far, and
    /// the end of every daemon: remaining turn functions are dropped
    /// (they hold handles on this engine). For the code that joins a
    /// run — see [`run_tasks`](super::run_tasks).
    pub(crate) fn retire_daemons(&self) -> Vec<Box<dyn Any + Send>> {
        let mut st = self.lock();
        for t in st.tasks.iter_mut().filter(|t| t.daemon) {
            t.turn = None;
        }
        std::mem::take(&mut st.daemon_panics)
    }

    /// Epoch boundary: promote lock gates, select the next batch,
    /// start dispatching it. Caller must have verified quiescence
    /// (`running == 0`, no pending members).
    fn select_epoch(st: &mut State, cap: usize, lookahead: u64) {
        debug_assert_eq!(st.running, 0);
        debug_assert_eq!(st.next, st.pending.len());
        if st.deadlocked {
            return; // everyone is being panicked awake; stop dispatching
        }
        st.epoch_live = st.live_apps > 0;
        if !st.epoch_live && !st.daemons_released {
            // The last application task has finished: wake every
            // daemon, once, so each gets a turn that reads
            // `apps_live() == false` — its cue to end. Decided here, at
            // a quiesced epoch boundary, teardown is a function of
            // virtual state like everything else.
            st.daemons_released = true;
            let mut released = 0;
            for t in st.tasks.iter_mut().filter(|t| t.daemon) {
                released += 1;
                t.wakes += 1;
                if t.state == TaskState::Blocked {
                    let now = t.clock.now().nanos();
                    t.unblock(now);
                }
            }
            st.wakes += released;
        }
        for id in lookahead::promotable(&st.tasks, lookahead) {
            let t = &mut st.tasks[id];
            t.state = TaskState::Runnable;
            t.reason = BlockReason::Other;
        }
        match queue::select(&st.tasks, lookahead, &mut st.per_node) {
            Some(mut batch) => {
                // Explore mode: let the script pick the dispatch order
                // of a multi-member batch. Selecting repeatedly among
                // the remaining members enumerates all k! orders of a
                // k-member batch; the conservative safety argument
                // says every one must yield the same report.
                if batch.members.len() > 1 {
                    if let Some(script) = &st.script {
                        let mut rest = std::mem::take(&mut batch.members);
                        while rest.len() > 1 {
                            batch.members.push(rest.remove(script.choose(rest.len())));
                        }
                        batch.members.extend(rest);
                    }
                }
                st.horizon = batch.horizon;
                st.pending = batch.members;
                st.next = 0;
                // Count the epoch only while application tasks are
                // still live: the batches after that serve daemon
                // teardown and are kept out of the report's counters.
                if st.epoch_live {
                    st.epochs += 1;
                }
                st.max_concurrent = st.max_concurrent.max(st.pending.len().min(cap));
                Self::refill(st, cap);
            }
            None => {
                // Nothing runnable and nothing promotable: the run
                // is over, unless a *worker* is still blocked — it
                // can never be woken now.
                if st
                    .tasks
                    .iter()
                    .any(|t| !t.daemon && t.state == TaskState::Blocked)
                {
                    st.deadlocked = true;
                    let snapshot = Self::render(st);
                    for t in &st.tasks {
                        if let Some(th) = &t.thread {
                            th.unpark();
                        }
                    }
                    panic!(
                        "virtual-time deadlock: no task is runnable or promotable \
                         but workers are blocked\n{snapshot}"
                    );
                }
            }
        }
    }

    /// Dispatch pending batch members up to the concurrency cap.
    fn refill(st: &mut State, cap: usize) {
        // Like epochs, turns are only counted while application tasks
        // are live.
        let live = st.live_apps > 0;
        while st.running < cap && st.next < st.pending.len() {
            let id = st.pending[st.next];
            st.next += 1;
            let slot = st
                .slots
                .iter()
                .position(|s| s.is_none())
                .expect("running < cap implies a free slot");
            // det:allow(host-time): worker busy-time observability only
            // (`worker_busy_ns`); host nanoseconds never feed virtual
            // state, reports or fingerprints.
            st.slots[slot] = Some(Instant::now());
            let horizon = st.horizon;
            st.running += 1;
            if live {
                st.turns += 1;
            }
            let t = &mut st.tasks[id];
            debug_assert_eq!(t.state, TaskState::Runnable);
            t.state = TaskState::Running;
            t.horizon = horizon;
            t.worker = slot;
            if live {
                t.turns += 1;
            }
            if t.daemon {
                st.inline.push_back(id);
            } else if let Some(th) = &t.thread {
                th.unpark();
            }
        }
    }

    /// A dispatched task's turn ended (it blocked, yielded or
    /// finished): release its worker slot, keep the pool full, and
    /// close the epoch when the batch has fully quiesced.
    fn end_turn(st: &mut State, id: usize, cap: usize, lookahead: u64) {
        let slot = st.tasks[id].worker;
        if let Some(start) = st.slots[slot].take() {
            st.busy_ns[slot] += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        st.running -= 1;
        Self::refill(st, cap);
        if st.running == 0 && st.next == st.pending.len() {
            Self::select_epoch(st, cap, lookahead);
        }
    }

    fn render(st: &State) -> String {
        let mut out = String::new();
        for (i, t) in st.tasks.iter().enumerate() {
            let reason = match t.state {
                TaskState::Blocked => format!(" on {}", t.reason.name()),
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "  task {i} {:<14} {:?}{}{} clock {} ready {}",
                t.name,
                t.state,
                reason,
                if t.daemon { " (daemon)" } else { "" },
                t.clock.now(),
                SimInstant(t.ready_at),
            );
        }
        if let Some(hook) = &st.diagnostic {
            let extra = hook();
            if !extra.is_empty() {
                let _ = writeln!(out, "{extra}");
            }
        }
        out
    }

    /// Scheduler-observability snapshot: turns, wakes, epochs, the
    /// maximum dispatch concurrency, host busy-time per worker, and
    /// the number of host threads bound to tasks.
    pub fn summary(&self) -> SchedSummary {
        let st = self.lock();
        SchedSummary {
            turns: st.turns,
            wakes: st.wakes,
            epochs: st.epochs,
            max_concurrent: st.max_concurrent,
            worker_busy_ns: st.busy_ns.clone(),
            threads: st.tasks.iter().filter(|t| t.thread.is_some()).count(),
        }
    }
}

use crate::clock::SimClock;

impl SchedHandle {
    /// This task's id (registration order; also the tie-breaker).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The name this task was registered under.
    pub fn name(&self) -> String {
        self.sched.lock().tasks[self.id].name.clone()
    }

    /// Whether any application (non-daemon) task was still unfinished
    /// when this task's current turn was selected. The value is fixed
    /// per epoch — co-members of a batch all read the same answer, in
    /// every engine mode — so a daemon that ends itself on the first
    /// turn that reads `false` does so at a point decided by virtual
    /// state alone, never by host thread timing. The engine guarantees
    /// every daemon such a turn: when the last application task has
    /// finished it wakes each daemon once (counted like any wake).
    pub fn apps_live(&self) -> bool {
        self.sched.lock().epoch_live
    }

    /// Install this daemon's body: `turn` is called once per dispatch,
    /// with this handle, and says how the turn ended. Call once, before
    /// [`Scheduler::launch`].
    ///
    /// The turn runs on whichever host thread is at the engine's
    /// dispatch point (see the [module docs](self)), so it must not
    /// block — no [`SchedHandle::block`], `yield_until` or `finish` on
    /// its own handle, no wait on another task — and must not hold a
    /// lock across its return. It reads [`SchedHandle::horizon`] and
    /// [`SchedHandle::apps_live`] and wakes other tasks like any
    /// running task. It must return [`DaemonTurn::Done`] on the first
    /// turn whose `apps_live()` reads `false`.
    pub fn set_turn(&self, mut turn: impl FnMut(&SchedHandle) -> DaemonTurn + Send + 'static) {
        let me = self.clone();
        let mut st = self.sched.lock();
        assert!(!st.launched, "set_turn after launch");
        let t = &mut st.tasks[self.id];
        assert!(t.daemon, "only daemons have turn functions");
        assert!(t.turn.is_none(), "set_turn called twice");
        t.turn = Some(Box::new(move || turn(&me)));
    }

    /// Bind the calling thread to this task and park until dispatched.
    /// Must be the first scheduler call on the task's own thread.
    pub fn attach(&self) {
        let mut st = self.sched.lock();
        let t = &mut st.tasks[self.id];
        assert!(!t.daemon, "daemons have no thread to attach");
        t.thread = Some(std::thread::current());
        self.await_dispatch(st);
    }

    /// Hand the execution token back: park this task until another
    /// task wakes it. If a wake
    /// arrived while this task was running, returns immediately —
    /// callers always re-check their wait condition in a loop.
    pub fn block(&self) {
        self.block_with(BlockReason::Other);
    }

    /// [`SchedHandle::block`] with an explicit reason — feeds the
    /// conservative lock gate's bounds and the deadlock snapshot.
    pub fn block_with(&self, reason: BlockReason) {
        let mut st = self.sched.lock();
        debug_assert_eq!(st.tasks[self.id].state, TaskState::Running);
        if Scheduler::absorb_sticky_wake(&mut st, self.id) {
            return;
        }
        let t = &mut st.tasks[self.id];
        t.state = TaskState::Blocked;
        t.reason = reason;
        t.ready_at = t.clock.now().nanos();
        self.park(st);
    }

    /// Block as the gated front of a lock queue with request key
    /// `(at, rank)`. Returns only when the engine has proven, at an
    /// epoch boundary, that no competing request can sort ahead —
    /// plain wakes (including any sticky wake already pending) are
    /// ignored, so the caller may take the grant unconditionally
    /// (after re-checking service poisoning).
    pub fn block_gated(&self, at: SimInstant, rank: usize) {
        let mut st = self.sched.lock();
        let t = &mut st.tasks[self.id];
        debug_assert_eq!(t.state, TaskState::Running);
        // A sticky wake is a stale condition signal (a release we
        // already observed); the gate is the only valid waker here.
        t.wake_pending = false;
        t.state = TaskState::Blocked;
        t.reason = BlockReason::LockGate {
            at: at.nanos(),
            rank,
        };
        t.ready_at = t.clock.now().nanos();
        self.park(st);
    }

    /// End this turn but stay runnable at virtual instant `at` — a
    /// timed yield. A sticky wake makes it return immediately, like
    /// [`SchedHandle::block`].
    pub fn yield_until(&self, at: SimInstant) {
        let mut st = self.sched.lock();
        debug_assert_eq!(st.tasks[self.id].state, TaskState::Running);
        if Scheduler::absorb_sticky_wake(&mut st, self.id) {
            return;
        }
        let t = &mut st.tasks[self.id];
        t.state = TaskState::Runnable;
        t.ready_at = at.nanos();
        self.park(st);
    }

    /// This thread's task has just left `Running` (the caller set its
    /// new state): close its turn, run whatever daemon turns that
    /// dispatches, then park until the task is dispatched again.
    fn park<'a>(&'a self, mut st: MutexGuard<'a, State>) {
        let sched = &*self.sched;
        debug_assert!(!st.tasks[self.id].daemon, "a daemon turn may not block");
        Scheduler::end_turn(&mut st, self.id, sched.cap, sched.lookahead);
        let st = sched.drive(st);
        self.await_dispatch(st);
    }

    /// Park the calling thread until its task is `Running`.
    fn await_dispatch<'a>(&'a self, mut st: MutexGuard<'a, State>) {
        loop {
            if st.deadlocked {
                panic!(
                    "virtual-time deadlock detected while task {} ({}) was parked\n{}",
                    self.id,
                    st.tasks[self.id].name,
                    Scheduler::render(&st)
                );
            }
            if st.tasks[self.id].state == TaskState::Running {
                return;
            }
            drop(st);
            std::thread::park();
            st = self.sched.lock();
        }
    }

    /// The virtual horizon of this task's current turn: buffered
    /// events with arrival strictly before it are safe to consume;
    /// later ones belong to a future epoch.
    pub fn horizon(&self) -> SimInstant {
        SimInstant(self.sched.lock().tasks[self.id].horizon)
    }

    /// Make this task runnable; call from a running task (a wake never
    /// restarts an idle engine). On a blocked task the ready time stays
    /// its block-time clock (idle daemons resume at their own clock).
    pub fn wake(&self) {
        self.wake_inner(None);
    }

    /// Make this task runnable no later than virtual instant `at`
    /// (e.g. the arrival of the message that unblocks it). Hints
    /// min-merge: concurrent wakes from different senders commute.
    pub fn wake_at(&self, at: SimInstant) {
        self.wake_inner(Some(at));
    }

    fn wake_inner(&self, at: Option<SimInstant>) {
        let mut st = self.sched.lock();
        st.wakes += 1;
        let t = &mut st.tasks[self.id];
        t.wakes += 1;
        match t.state {
            TaskState::Blocked => {
                // Gated tasks are woken only by gate promotion: an
                // early wake (a stale waiter-list entry drained by a
                // release) must not let a grant through the gate.
                if matches!(t.reason, BlockReason::LockGate { .. }) {
                    return;
                }
                let hint = at
                    .map(SimInstant::nanos)
                    .unwrap_or_else(|| t.clock.now().nanos());
                t.unblock(hint);
            }
            TaskState::Running => t.wake_pending = true,
            TaskState::Runnable => {
                if let Some(a) = at {
                    t.ready_at = t.ready_at.min(a.nanos());
                }
            }
            TaskState::Finished => {}
        }
    }

    /// Retire this task and keep the engine running: the daemon turns
    /// its departure dispatches run here, on the retiring thread.
    /// Idempotent.
    pub fn finish(&self) {
        let mut st = self.sched.lock();
        let t = &mut st.tasks[self.id];
        if t.state == TaskState::Finished {
            return;
        }
        let (was_running, was_app) = (t.state == TaskState::Running, !t.daemon);
        t.retire();
        st.live_apps -= usize::from(was_app);
        if was_running {
            let sched = &*self.sched;
            Scheduler::end_turn(&mut st, self.id, sched.cap, sched.lookahead);
            drop(sched.drive(st));
        }
    }

    /// This task's dispatch count (scheduler observability).
    pub fn turns(&self) -> u64 {
        self.sched.lock().tasks[self.id].turns
    }

    /// Wake calls aimed at this task (scheduler observability).
    pub fn wakes(&self) -> u64 {
        self.sched.lock().tasks[self.id].wakes
    }
}
