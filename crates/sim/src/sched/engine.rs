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
//! # Worker pool
//!
//! Tasks are OS threads used as coroutine stacks: they park between
//! turns and the engine unparks at most `workers` of them at a time,
//! so a `p = 256` cluster costs a bounded number of *runnable* threads
//! (host CPU pressure is `min(batch, workers)`), while parked stacks
//! are lazily-committed virtual memory. Per-worker busy time is
//! tracked in host nanoseconds for the scheduler-observability
//! counters (informative only — host time never feeds virtual state).
//!
//! # Deadlock detection
//!
//! The detector only examines quiesced states: it runs at an epoch
//! boundary, after gate promotion, when nothing is runnable. If a
//! non-daemon is still blocked, no wake can ever arrive (only running
//! tasks produce wakes), so the engine
//! panics every parked thread with a snapshot that names each task's
//! blocked-on reason.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::clock::{SimDuration, SimInstant};
use crate::stats::SchedSummary;

use super::explore::ScheduleScript;
use super::lookahead;
use super::queue;
use super::task::{BlockReason, Task, TaskState};
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
    /// Tasks currently dispatched (state `Running`).
    running: usize,
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
    /// tasks (comm threads) that legitimately stay blocked until the
    /// engine releases them after the last application task (see
    /// [`SchedHandle::apps_live`]). Non-daemon tasks must be registered
    /// first, in rank order — the conservative lock gate compares
    /// their ids with node ranks.
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
    /// once, after all tasks are registered and their threads spawned.
    pub fn launch(&self) {
        let mut st = self.lock();
        assert!(!st.launched, "launch called twice");
        st.launched = true;
        Self::select_epoch(&mut st, self.cap, self.lookahead);
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
        st.epoch_live = st
            .tasks
            .iter()
            .any(|t| !t.daemon && t.state != TaskState::Finished);
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
        match queue::select(&st.tasks, lookahead) {
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
        let live = st
            .tasks
            .iter()
            .any(|t| !t.daemon && t.state != TaskState::Finished);
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
            if let Some(th) = &t.thread {
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
    /// maximum dispatch concurrency, and host busy-time per worker.
    pub fn summary(&self) -> SchedSummary {
        let st = self.lock();
        SchedSummary {
            turns: st.turns,
            wakes: st.wakes,
            epochs: st.epochs,
            max_concurrent: st.max_concurrent,
            worker_busy_ns: st.busy_ns.clone(),
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

    /// Bind the calling thread to this task and park until dispatched.
    /// Must be the first scheduler call on the task's own thread.
    pub fn attach(&self) {
        {
            let mut st = self.sched.lock();
            st.tasks[self.id].thread = Some(std::thread::current());
        }
        self.wait_until_running();
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
        {
            let mut st = self.sched.lock();
            let t = &mut st.tasks[self.id];
            debug_assert_eq!(t.state, TaskState::Running, "block() by a non-running task");
            if t.wake_pending {
                t.wake_pending = false;
                return;
            }
            t.state = TaskState::Blocked;
            t.reason = reason;
            t.ready_at = match reason {
                // Idle daemons park at virtual infinity so they never
                // hold the lookahead window back; a message hint or
                // the end-of-run release lowers this.
                BlockReason::Idle => u64::MAX,
                _ => t.clock.now().nanos(),
            };
            Scheduler::end_turn(&mut st, self.id, self.sched.cap, self.sched.lookahead);
        }
        self.wait_until_running();
    }

    /// Block as the gated front of a lock queue with request key
    /// `(at, rank)`. Returns only when the engine has proven, at an
    /// epoch boundary, that no competing request can sort ahead —
    /// plain wakes (including any sticky wake already pending) are
    /// ignored, so the caller may take the grant unconditionally
    /// (after re-checking service poisoning).
    pub fn block_gated(&self, at: SimInstant, rank: usize) {
        {
            let mut st = self.sched.lock();
            let t = &mut st.tasks[self.id];
            debug_assert_eq!(t.state, TaskState::Running, "block by a non-running task");
            // A sticky wake is a stale condition signal (a release we
            // already observed); the gate is the only valid waker here.
            t.wake_pending = false;
            t.state = TaskState::Blocked;
            t.reason = BlockReason::LockGate {
                at: at.nanos(),
                rank,
            };
            t.ready_at = t.clock.now().nanos();
            Scheduler::end_turn(&mut st, self.id, self.sched.cap, self.sched.lookahead);
        }
        self.wait_until_running();
    }

    /// End this turn but stay runnable at virtual instant `at` — a
    /// timed yield, used by comm tasks holding buffered messages whose
    /// arrival lies beyond the current horizon. A sticky wake makes it
    /// return immediately, like [`SchedHandle::block`].
    pub fn yield_until(&self, at: SimInstant) {
        {
            let mut st = self.sched.lock();
            let t = &mut st.tasks[self.id];
            debug_assert_eq!(t.state, TaskState::Running, "yield by a non-running task");
            if t.wake_pending {
                t.wake_pending = false;
                return;
            }
            t.state = TaskState::Runnable;
            t.ready_at = at.nanos();
            Scheduler::end_turn(&mut st, self.id, self.sched.cap, self.sched.lookahead);
        }
        self.wait_until_running();
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

    /// Retire this task and keep the engine running. Idempotent.
    pub fn finish(&self) {
        let mut st = self.sched.lock();
        let t = &mut st.tasks[self.id];
        let was_running = t.state == TaskState::Running;
        t.state = TaskState::Finished;
        t.wake_pending = false;
        if was_running {
            Scheduler::end_turn(&mut st, self.id, self.sched.cap, self.sched.lookahead);
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

    fn wait_until_running(&self) {
        loop {
            {
                let st = self.sched.lock();
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
            }
            std::thread::park();
        }
    }
}
