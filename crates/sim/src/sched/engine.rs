//! The conservative discrete-event engine.
//!
//! # Execution model
//!
//! Execution proceeds in **epochs**. At each epoch boundary (the
//! previous batch fully dispatched, its last member blocked or
//! finished) the engine, under one mutex:
//!
//! 1. **Promotes lock gates** (`crate::sched::lookahead`): front
//!    waiters of virtual-time-ordered lock queues whose grant can no
//!    longer be preceded by any competing request become runnable.
//! 2. **Selects a batch** (`crate::sched::queue`): every runnable
//!    task whose ready time lies within `lookahead` of the global
//!    minimum `m` — at most one per node — with the epoch horizon
//!    `H = m + L` (or `H = ∞` for a solo batch).
//! 3. **Dispatches** the batch **one member at a time**: in ascending
//!    `(ready, id)` order, or in the order an installed
//!    [`ScheduleScript`] picks. The next member is dispatched when the
//!    previous one's turn ends, so at most one task is `Running` — and
//!    at most one task thread is runnable — at any instant.
//!
//! # Why every dispatch order of a batch produces the same report
//!
//! The epoch/lookahead safety argument — the claim scripted
//! exploration checks by enumeration:
//!
//! * **Batch membership is decided before any member runs**, so every
//!   order computes the same batches from the same boundary states.
//! * **No member can place an event in a co-member's consumable
//!   past.** Every cross-node interaction rides the simulated network:
//!   a member whose turn starts at `ready ≥ m` sends messages whose
//!   arrival is at least `ready + L ≥ m + L = H` (the cost model's
//!   `one_way` is bounded below by the minimum link latency, and fault
//!   injection only *adds* delay). Comm tasks consume their mailbox
//!   in `(arrival, src, seq)` order and only strictly below
//!   their turn's horizon `H`, so the set *and* order of messages a
//!   comm turn handles is a pure function of virtual time — messages
//!   from co-members sort at or beyond `H` and wait for a later epoch
//!   whichever member ran first.
//! * **Shared service state is order-invariant within an epoch.**
//!   Clock merges (`advance_to`) and statistics are commutative;
//!   barrier rendezvous fold their inputs with max/set-union merges
//!   keyed by `(arrive, node)`; lock queues order by virtual request
//!   arrival and grants pass through the conservative gate, which only
//!   opens at an epoch boundary once no competing earlier request can
//!   exist.
//! * **Wake hints min-merge.** A blocked task's ready time is its
//!   block-time clock, lowered (never raised) by message-arrival
//!   hints; wakes commute.
//!
//! By induction over epochs, every virtual value in the cluster state
//! at an epoch boundary — and hence in every report — is the same for
//! every within-batch order. The canonical order is the one the
//! committed numbers come from; `tests/explore.rs` enumerates the
//! others on small models.
//!
//! # Threads and daemons
//!
//! Only **application tasks** own an OS thread, used as a coroutine
//! stack: it parks between turns and is unparked when its task is
//! dispatched, so a `p = 256` cluster costs `p` host threads of which
//! one is runnable; parked stacks are lazily-committed virtual memory.
//! Because a second CPU could never be used,
//! [`run_tasks`](super::run_tasks) spawns them all onto the launcher's
//! CPU, which makes the hand-off a local context switch — exactly one,
//! because the wake goes out *after* the state mutex is released.
//! Dispatch only records the thread to wake; the guard that holds the
//! state (`Locked`) unlocks and then unparks it, on every path that
//! lets go of the state: a task parking, `launch`, `finish`, the
//! inline daemon turns of `drive` (a panicking one included) and
//! unwinding. Unparked under the lock, the woken thread would preempt
//! its waker on the shared CPU, find the mutex held, block on it, and
//! cost the waker a switch back in before it could unlock.
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
//! without ever parking) or another's (already unparked — a
//! *hand-off*, counted in [`SchedSummary::handoffs`]; the driver
//! parks). A daemon turn is a turn in every counted respect — `turns`,
//! wakes, sticky wakes, horizon — and since exactly one thread is at a
//! dispatch point at a time, which thread drives it is itself a
//! function of the schedule.
//!
//! A turn function that panics is caught on the driving thread, which
//! is *not* unwound: the daemon is retired, its payload kept for
//! [`run_tasks`](super::run_tasks) to hand back, and the run goes on.
//!
//! Host time spent inside turns is accumulated for the
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
use std::fmt::Write as _;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::Thread;
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
    /// The decision stream that reorders multi-member epoch batches.
    /// `None` keeps the canonical order.
    script: Option<ScheduleScript>,
    /// Selected batch members not yet dispatched, in dispatch order.
    pending: Vec<usize>,
    /// Index into `pending` of the next member to dispatch.
    next: usize,
    /// The daemon dispatched (state `Running`) whose turn no host
    /// thread has picked up yet; taken by [`Scheduler::drive`].
    inline: Option<usize>,
    /// When the one dispatched task (state `Running`) was dispatched;
    /// `None` between turns.
    running: Option<Instant>,
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
    /// Accumulated host time inside turns, in nanoseconds.
    busy_ns: u64,
    epochs: u64,
    turns: u64,
    wakes: u64,
    /// Application dispatches made from another thread than the
    /// dispatched task's own.
    handoffs: u64,
    /// The thread of the task a hand-off dispatched, not yet unparked:
    /// [`Locked`] unparks it once the state mutex is released.
    wake: Option<Thread>,
    /// Whether any application (non-daemon) task was still unfinished
    /// when the current epoch's batch was selected. Fixed for the whole
    /// epoch, so every batch member reads the same value regardless of
    /// host thread timing — see [`SchedHandle::apps_live`].
    epoch_live: bool,
    /// Set once the daemons have been released (see `select_epoch`).
    daemons_released: bool,
    /// Extra context appended to deadlock snapshots — the runtime
    /// installs a hook that renders, e.g., the transport's log of
    /// messages dropped past the retry budget, so a node blocked on a
    /// lost reply is named `(src, dst, seq)` instead of a bare `Reply`.
    diagnostic: Option<Box<dyn Fn() -> String + Send + Sync>>,
}

/// The cluster-wide epoch engine (see the module docs).
pub struct Scheduler {
    state: Mutex<State>,
    /// Lookahead window in nanoseconds (minimum link latency).
    lookahead: u64,
}

/// The engine state, locked. Letting go of it — dropping it, also
/// while unwinding, or [`Locked::unlocked`] — releases the mutex first
/// and unparks the thread a hand-off dispatched second (see *Threads
/// and daemons* in the module docs), so no path can lose the wake or
/// deliver it while the woken thread would still block on the mutex.
struct Locked<'a> {
    mutex: &'a Mutex<State>,
    /// `None` only while [`Locked::unlocked`] runs its closure.
    guard: Option<MutexGuard<'a, State>>,
}

impl<'a> Locked<'a> {
    fn new(mutex: &'a Mutex<State>) -> Locked<'a> {
        // Tolerate poisoning: the deadlock detector panics while the
        // guard is held, and every other thread must still be able to
        // observe the `deadlocked` flag to fail loudly.
        let guard = mutex.lock().unwrap_or_else(|e| e.into_inner());
        Locked {
            mutex,
            guard: Some(guard),
        }
    }

    /// Release the mutex, then deliver the pending wake.
    fn release(&mut self) {
        if let Some(mut st) = self.guard.take() {
            let wake = st.wake.take();
            drop(st);
            if let Some(th) = wake {
                th.unpark();
            }
        }
    }

    /// Run `f` with the mutex released (and the pending wake
    /// delivered), then take the mutex back.
    fn unlocked<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.release();
        let out = f();
        *self = Locked::new(self.mutex);
        out
    }
}

impl Drop for Locked<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

impl Deref for Locked<'_> {
    type Target = State;
    fn deref(&self) -> &State {
        self.guard.as_ref().expect("engine state is locked")
    }
}

impl DerefMut for Locked<'_> {
    fn deref_mut(&mut self) -> &mut State {
        self.guard.as_mut().expect("engine state is locked")
    }
}

/// One task's identity on a [`Scheduler`]: the handle node threads use
/// to attach, block and get woken. Cheap to clone; any thread may call
/// [`SchedHandle::wake`], but [`SchedHandle::attach`], the blocking
/// calls and [`SchedHandle::finish`] belong to the owning thread.
#[derive(Clone)]
pub struct SchedHandle {
    sched: Arc<Scheduler>,
    id: usize,
    name: Arc<str>,
}

impl std::fmt::Debug for SchedHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SchedHandle(task {})", self.id)
    }
}

impl Scheduler {
    /// A fresh engine. `lookahead` is the network's minimum link
    /// latency — see [`crate::cost::NetModel::min_latency`].
    ///
    /// The mode is not consulted (there is one): what permutes a run's
    /// within-epoch order is a script installed with
    /// [`Scheduler::set_script`].
    pub fn new(_mode: SchedulerMode, lookahead: SimDuration) -> Arc<Scheduler> {
        Arc::new(Scheduler {
            state: Mutex::new(State::default()),
            lookahead: lookahead.0,
        })
    }

    fn lock(&self) -> Locked<'_> {
        Locked::new(&self.state)
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
        let name: Arc<str> = name.into().into();
        st.tasks
            .push(Task::new(Arc::clone(&name), clock, node, daemon));
        st.live_apps += usize::from(!daemon);
        SchedHandle {
            sched: Arc::clone(self),
            id,
            name,
        }
    }

    /// Install the schedule script the engine consults at every
    /// multi-member epoch. Call before [`Scheduler::launch`].
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
        Self::select_epoch(&mut st, self.lookahead);
        drop(self.drive(st));
    }

    /// Run dispatched daemon turns inline, on the calling thread and
    /// outside the state mutex, until none is waiting — each end of
    /// turn may dispatch the next. Every dispatch point calls this
    /// before it parks or returns, without letting go of the lock in
    /// between, so the thread that dispatched a daemon runs its turn.
    fn drive<'a>(&'a self, mut st: Locked<'a>) -> Locked<'a> {
        while let Some(id) = st.inline.take() {
            let mut turn = st.tasks[id]
                .turn
                .take()
                .expect("a dispatched daemon has its turn function");
            let outcome = loop {
                let outcome = st.unlocked(|| catch_unwind(AssertUnwindSafe(&mut turn)));
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
            Self::end_turn(&mut st, self.lookahead);
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
    /// (nothing running, no pending members).
    fn select_epoch(st: &mut State, lookahead: u64) {
        debug_assert!(st.running.is_none());
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
                // With a script installed, let it pick the dispatch order
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
                Self::refill(st);
            }
            None => {
                // Nothing runnable and nothing promotable: the run is
                // over, unless an application task is still blocked —
                // it can never be woken now.
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
                         but application tasks are blocked\n{snapshot}"
                    );
                }
            }
        }
    }

    /// Dispatch the next pending batch member, if there is one. Caller
    /// must have seen the previous member's turn end.
    fn refill(st: &mut State) {
        debug_assert!(st.running.is_none());
        if st.next == st.pending.len() {
            return;
        }
        let id = st.pending[st.next];
        st.next += 1;
        // det:allow(host-time): busy-time observability only
        // (`worker_busy_ns`); host nanoseconds never feed virtual
        // state, reports or fingerprints.
        st.running = Some(Instant::now());
        // Like epochs, turns are only counted while application tasks
        // are live.
        let live = st.live_apps > 0;
        st.turns += u64::from(live);
        let t = &mut st.tasks[id];
        debug_assert_eq!(t.state, TaskState::Runnable);
        t.state = TaskState::Running;
        t.horizon = st.horizon;
        t.turns += u64::from(live);
        if t.daemon {
            st.inline = Some(id);
            return;
        }
        // The dispatching thread goes on with this task's turn if it is
        // the task's own; otherwise the turn is handed off. A task
        // dispatched before its thread attached (the launcher did it)
        // finds itself running when it does.
        let me = std::thread::current().id();
        if t.thread.as_ref().map(|th| th.id()) != Some(me) {
            debug_assert!(st.wake.is_none(), "one hand-off at a time");
            st.wake = t.thread.clone();
            st.handoffs += 1;
        }
    }

    /// The dispatched task's turn ended (it blocked, yielded or
    /// finished): dispatch the batch's next member, or close the epoch
    /// when there is none.
    fn end_turn(st: &mut State, lookahead: u64) {
        if let Some(start) = st.running.take() {
            st.busy_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        Self::refill(st);
        if st.running.is_none() {
            Self::select_epoch(st, lookahead);
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

    /// Scheduler-observability snapshot: turns, wakes, epochs,
    /// hand-offs, host busy-time, and the number of host threads bound
    /// to tasks.
    pub fn summary(&self) -> SchedSummary {
        let st = self.lock();
        SchedSummary {
            turns: st.turns,
            wakes: st.wakes,
            epochs: st.epochs,
            handoffs: st.handoffs,
            max_concurrent: 1,
            worker_busy_ns: vec![st.busy_ns],
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
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether any application (non-daemon) task was still unfinished
    /// when this task's current turn was selected. The value is fixed
    /// per epoch — co-members of a batch all read the same answer,
    /// whichever was dispatched first — so a daemon that ends itself on the first
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
    fn park<'a>(&'a self, mut st: Locked<'a>) {
        let sched = &*self.sched;
        debug_assert!(!st.tasks[self.id].daemon, "a daemon turn may not block");
        Scheduler::end_turn(&mut st, sched.lookahead);
        let st = sched.drive(st);
        self.await_dispatch(st);
    }

    /// Park the calling thread until its task is `Running`.
    fn await_dispatch<'a>(&'a self, mut st: Locked<'a>) {
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
            st.unlocked(std::thread::park);
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
            Scheduler::end_turn(&mut st, sched.lookahead);
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
