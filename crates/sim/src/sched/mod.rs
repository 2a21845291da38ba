//! Deterministic virtual-time scheduling — the conservative
//! discrete-event engine every cluster run executes on. There is no
//! other execution model: application threads, comm handlers and
//! compaction daemons are all tasks here, and nothing in a run waits
//! on a host clock or an OS condition variable.
//!
//! > **Lookahead windows.** Let `m` be the smallest ready time among
//! > runnable tasks and `L` the network's minimum link latency. Every
//! > runnable task with ready time in `[m, m + L)` — at most one per
//! > node — may run *in any order*, because no message sent inside
//! > the window can arrive before `m + L`: nothing any member does
//! > can land in a co-member's consumable past.
//!
//! The engine executes these window batches in **epochs**, one member
//! at a time: exactly one task runs at any instant, so exactly one task
//! thread is runnable, and [`run_tasks`] puts them all on one CPU.
//! Each batch drains in key order (cooperative lowest-clock-first
//! execution — the order every committed number comes from) unless a
//! [`ScheduleScript`] is installed ([`Scheduler::set_script`]), which
//! picks the within-batch order instead. Every cross-task interaction
//! is made order-invariant within an epoch (arrival-ordered message
//! consumption under a horizon, virtual-time-ordered lock queues
//! behind a conservative grant gate, merge-folded barrier rendezvous)
//! — so every order produces the same virtual results, which is what a
//! scripted exploration enumerates and checks. The full safety
//! argument lives in [`engine`].
//!
//! Submodules: [`engine`] (epoch driver, handles, deadlock detector),
//! [`run`] (thread plumbing: [`run_tasks`]), `affinity` (the one CPU
//! the task threads share), `queue` (per-node run queues and batch
//! selection), `task` (task state and [`BlockReason`]), `lookahead`
//! (the conservative lock-grant gate).
//!
//! # Integration contract
//!
//! * Tasks are registered up front ([`Scheduler::register`]).
//!   Application tasks run on threads of their own through
//!   [`run_tasks`], which attaches each thread to its task, retires
//!   the task when its body ends (also by panic), launches the engine
//!   and joins.
//! * A task must never hold an application lock across
//!   [`SchedHandle::block`] — release, block, re-acquire (the wait
//!   loops in the sync services do exactly this).
//! * Whoever makes a blocked task's wait condition true calls
//!   [`SchedHandle::wake`]/[`SchedHandle::wake_at`] on it. Wakes are
//!   sticky: waking a *running* task makes its next `block` return
//!   immediately, so check-then-block races are lost-wakeup-free. A
//!   sticky wake absorbed by an application task counts as the
//!   dispatch it stood in for.
//! * Service tasks are registered as *daemons*. A daemon has no
//!   thread: its body is a **turn function**
//!   ([`SchedHandle::set_turn`]), called once per dispatch and
//!   answering with a [`DaemonTurn`] — idle until woken, runnable
//!   again at an instant, or done.
//!   * *Who drives it:* whichever host thread is at the engine's
//!     dispatch point when the daemon's turn comes up — an application
//!     thread inside `block`/`yield_until`/`finish`, or the launcher —
//!     runs the turn inline, outside the engine's mutex ([`engine`]
//!     has the details). Which thread that is changes nothing a
//!     report can show.
//!   * *What it may do:* everything a running task may — read
//!     [`SchedHandle::horizon`] and [`SchedHandle::apps_live`], wake
//!     other tasks, take and release locks, panic (the driving thread
//!     is not unwound; [`run_tasks`] hands the payload back).
//!   * *What it may not do:* block — no `block`/`yield_until`/`finish`
//!     on its handle, no waiting for another task in any form, since
//!     the thread it would park is somebody else's — or hold a lock
//!     across its return, since the next turn may run on a different
//!     thread, or inside a caller that already holds that lock.
//!   * *When it ends:* a daemon may stay idle without tripping the
//!     deadlock detector, and must answer [`DaemonTurn::Done`] on the
//!     first turn whose [`SchedHandle::apps_live`] reads `false` (the
//!     engine wakes each daemon once when the last application task
//!     has finished).
//!   * A comm turn may only consume buffered messages with arrival
//!     strictly below [`SchedHandle::horizon`], in `(arrival, src,
//!     seq)` order, and answers [`DaemonTurn::Until`] its next event.

#[allow(unsafe_code)]
mod affinity;
pub mod engine;
pub mod explore;
pub(crate) mod lookahead;
pub(crate) mod queue;
pub mod run;
pub(crate) mod task;

pub use engine::{SchedHandle, Scheduler};
pub use explore::{Choice, ScheduleScript};
pub use run::{run_app_tasks, run_tasks};
pub use task::{BlockReason, DaemonTurn};

/// The engine's one dispatch discipline, named for source
/// compatibility: [`Scheduler::new`] takes it and does not consult it.
/// A permuted within-epoch order is a [`ScheduleScript`], not a mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// Epochs are drained one task at a time in ascending
    /// `(ready, id)` order (or the installed script's order).
    /// Bit-reproducible runs, no wall-clock polling.
    #[default]
    Deterministic,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{SimClock, SimDuration, SimInstant};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex as StdMutex};

    type Body<'a> = Box<dyn FnOnce(&SchedHandle) + Send + 'a>;

    fn turnstile() -> Arc<Scheduler> {
        // L = 0: every epoch is a solo batch — the PR 3 turnstile.
        Scheduler::new(SchedulerMode::Deterministic, SimDuration::ZERO)
    }

    fn clock_at(nanos: u64) -> SimClock {
        let clock = SimClock::new();
        clock.advance(SimDuration(nanos));
        clock
    }

    /// Run the bodies and unwrap every task's result.
    fn run_ok(sched: &Scheduler, tasks: Vec<(SchedHandle, Body<'_>)>) {
        for r in run_tasks(sched, tasks) {
            r.expect("task panicked");
        }
    }

    /// The panic message of a task that must have died.
    fn panic_message(result: std::thread::Result<()>) -> String {
        let err = result.expect_err("task must panic");
        match err.downcast_ref::<&'static str>() {
            Some(s) => s.to_string(),
            None => err.downcast_ref::<String>().cloned().unwrap_or_default(),
        }
    }

    #[test]
    fn lowest_ready_time_runs_first() {
        let sched = turnstile();
        let log = StdMutex::new(Vec::new());
        // Tasks 0/1/2 start with clocks 30/10/20: expect 1, 2, 0.
        let tasks = [30u64, 10, 20]
            .into_iter()
            .enumerate()
            .map(|(i, start)| {
                let clock = clock_at(start);
                let h = sched.register(format!("t{i}"), clock.clone(), i, false);
                let log = &log;
                let body: Body =
                    Box::new(move |_| log.lock().unwrap().push((i, clock.now().nanos())));
                (h, body)
            })
            .collect();
        run_ok(&sched, tasks);
        assert_eq!(*log.lock().unwrap(), vec![(1, 10), (2, 20), (0, 30)]);
    }

    #[test]
    fn ping_pong_is_deterministic_and_clock_ordered() {
        // Two tasks alternate; each wakes the other, then blocks. The
        // interleaving must follow the clocks exactly, every run.
        let run = || {
            let sched = turnstile();
            let log = StdMutex::new(Vec::new());
            let clocks = [SimClock::new(), SimClock::new()];
            let handles = [
                sched.register("a", clocks[0].clone(), 0, false),
                sched.register("b", clocks[1].clone(), 1, false),
            ];
            let tasks = (0..2usize)
                .map(|i| {
                    let (c, peer, log) = (clocks[i].clone(), handles[1 - i].clone(), &log);
                    let body: Body = Box::new(move |h| {
                        for step in 0..4u64 {
                            log.lock().unwrap().push((i, c.now().nanos()));
                            // Task 0 takes bigger steps than task 1, so the
                            // engine must interleave them unevenly.
                            c.advance(SimDuration(if i == 0 { 30 } else { 10 } * (step + 1)));
                            peer.wake();
                            h.block();
                        }
                        peer.wake();
                    });
                    (handles[i].clone(), body)
                })
                .collect();
            run_ok(&sched, tasks);
            // The two strictly alternate: every dispatch is a hand-off.
            let s = sched.summary();
            assert_eq!(s.handoffs, s.turns);
            (log.into_inner().unwrap(), s.handoffs)
        };
        let (a, handoffs) = run();
        assert_eq!((a.clone(), handoffs), run(), "same program, same schedule");
        // Every dispatch picked the lowest-clock runnable task: the
        // fast task (short steps) gets dispatched whenever its clock
        // trails, regardless of OS thread timing.
        assert_eq!(
            a,
            vec![
                (0, 0),
                (1, 0),
                (0, 30),
                (1, 10),
                (0, 90),
                (1, 30),
                (0, 180),
                (1, 60),
            ]
        );
    }

    #[test]
    fn a_task_dispatched_from_its_own_thread_is_no_handoff() {
        // A lone task that yields three times is dispatched four times:
        // by the launcher, then three times by itself.
        let sched = turnstile();
        let clock = SimClock::new();
        let h = sched.register("solo", clock.clone(), 0, false);
        let body: Body = Box::new(move |h| {
            for _ in 0..3 {
                h.yield_until(clock.advance(SimDuration(10)));
            }
        });
        run_ok(&sched, vec![(h.clone(), body)]);
        assert_eq!((h.turns(), sched.summary().handoffs), (4, 1));
    }

    #[test]
    fn sticky_wake_prevents_lost_wakeups() {
        let sched = turnstile();
        let h = sched.register("worker", SimClock::new(), 0, false);
        let waker_ready = AtomicBool::new(false);
        let woken = AtomicBool::new(false);
        // A second thread (not a task) delivers the wake while the
        // worker is Running: it must be recorded sticky so the block
        // below returns immediately instead of parking forever (there
        // is no other task to wake us).
        std::thread::scope(|s| {
            let (ext, waker_ready, woken) = (h.clone(), &waker_ready, &woken);
            s.spawn(move || {
                while !waker_ready.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                ext.wake();
                woken.store(true, Ordering::Release);
            });
            let body: Body = Box::new(move |h| {
                waker_ready.store(true, Ordering::Release);
                while !woken.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                h.block();
            });
            run_ok(&sched, vec![(h, body)]);
        });
    }

    /// A turn function that records `apps_live()` each turn and ends
    /// on the first `false`, idling in between.
    fn until_apps_gone(seen: &Arc<StdMutex<Vec<bool>>>) -> impl FnMut(&SchedHandle) -> DaemonTurn {
        let seen = Arc::clone(seen);
        move |h| {
            let live = h.apps_live();
            seen.lock().unwrap().push(live);
            if live {
                DaemonTurn::Idle
            } else {
                DaemonTurn::Done
            }
        }
    }

    #[test]
    fn idle_daemons_are_released_when_the_last_app_finishes() {
        // The daemon (clock 0) runs first and goes idle while the app
        // (clock 10) is still live. When the app finishes the engine
        // must wake the daemon, and that turn must read
        // `apps_live() == false`.
        let sched = turnstile();
        let app = sched.register("app", clock_at(10), 0, false);
        let daemon = sched.register("daemon", SimClock::new(), 0, true);
        let seen = Arc::new(StdMutex::new(Vec::new()));
        daemon.set_turn(until_apps_gone(&seen));
        let app_body: Body = Box::new(|_| {});
        run_ok(&sched, vec![(app, app_body)]);
        assert_eq!(*seen.lock().unwrap(), vec![true, false]);
        // The release is counted like any wake; the post-app turn is
        // not a counted turn.
        assert_eq!(daemon.wakes(), 1);
        let s = sched.summary();
        assert_eq!((s.turns, s.wakes, s.epochs), (2, 1, 2));
    }

    #[test]
    fn deadlock_is_detected_not_hung() {
        let sched = turnstile();
        let h = sched.register("stuck", SimClock::new(), 0, false);
        // Nobody will ever wake us: block must panic on deadlock.
        let body: Body = Box::new(|h| h.block());
        let msg = panic_message(run_tasks(&sched, vec![(h, body)]).remove(0));
        assert!(msg.contains("virtual-time deadlock"), "got: {msg}");
    }

    #[test]
    fn deadlock_snapshot_names_block_reasons() {
        let sched = turnstile();
        let h = sched.register("lonely", SimClock::new(), 0, false);
        // A barrier wait that no peer will ever complete.
        let body: Body = Box::new(|h| h.block_with(BlockReason::Barrier));
        let msg = panic_message(run_tasks(&sched, vec![(h, body)]).remove(0));
        assert!(msg.contains("barrier-wait"), "got: {msg}");
    }

    #[test]
    fn deadlock_snapshot_lists_daemons_with_state_and_ready_time() {
        // One daemon idle at virtual infinity and one already done,
        // beside an app nobody will wake.
        let sched = turnstile();
        let h = sched.register("stuck", clock_at(10), 0, false);
        sched
            .register("idler", SimClock::new(), 0, true)
            .set_turn(|_| DaemonTurn::Idle);
        sched
            .register("quitter", SimClock::new(), 1, true)
            .set_turn(|_| DaemonTurn::Done);
        let body: Body = Box::new(|h| h.block());
        let msg = panic_message(run_tasks(&sched, vec![(h, body)]).remove(0));
        let line = |name: &str| {
            msg.lines()
                .find(|l| l.contains(name))
                .unwrap_or_else(|| panic!("no {name} line in: {msg}"))
        };
        let idler = line("idler");
        assert!(idler.contains("Blocked on idle (daemon)"), "got: {idler}");
        let infinity = format!("ready {}", SimInstant(u64::MAX));
        assert!(idler.ends_with(&infinity), "got: {idler}");
        let quitter = line("quitter");
        assert!(quitter.contains("Finished (daemon)"), "got: {quitter}");
        assert!(
            quitter.ends_with(&format!("ready {}", SimInstant::ZERO)),
            "got: {quitter}"
        );
    }

    #[test]
    fn wake_at_orders_runnable_tasks() {
        // A controller wakes daemon 1 at t=500 and daemon 2 at t=100
        // while it is still running; once it finishes, the t=100
        // daemon must be dispatched first despite its higher id.
        let sched = turnstile();
        let log = Arc::new(StdMutex::new(Vec::new()));
        // The controller's clock starts at 10, so both daemons (at 0)
        // run — and go idle — before it is dispatched.
        let ctl = sched.register("ctl", clock_at(10), 0, false);
        let daemons: Vec<SchedHandle> = (1..=2usize)
            .map(|i| sched.register(format!("d{i}"), SimClock::new(), i, true))
            .collect();
        for (i, h) in daemons.iter().enumerate() {
            let (log, mut hinted) = (Arc::clone(&log), false);
            h.set_turn(move |_| {
                if !std::mem::replace(&mut hinted, true) {
                    return DaemonTurn::Idle; // until the hint arrives
                }
                log.lock().unwrap().push(i + 1);
                DaemonTurn::Done
            });
        }
        let body: Body = Box::new(move |_| {
            daemons[0].wake_at(SimInstant(500));
            daemons[1].wake_at(SimInstant(100));
        });
        run_ok(&sched, vec![(ctl, body)]);
        assert_eq!(*log.lock().unwrap(), vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "daemon d has no turn function")]
    fn a_daemon_without_a_turn_function_fails_the_launch() {
        let sched = turnstile();
        let app = sched.register("app", SimClock::new(), 0, false);
        sched.register("d", SimClock::new(), 0, true);
        let body: Body = Box::new(|_| {});
        run_ok(&sched, vec![(app, body)]);
    }

    #[test]
    fn a_sticky_wake_during_an_inline_turn_reruns_it_without_a_dispatch() {
        // The daemon wakes itself on its first call, then answers
        // `Idle`: the wake is sticky (it is running), so the engine
        // calls the turn function again at once instead of idling it.
        let sched = turnstile();
        let app = sched.register("app", clock_at(10), 0, false);
        let daemon = sched.register("daemon", SimClock::new(), 0, true);
        let seen = Arc::new(StdMutex::new(Vec::new()));
        let (mut inner, mut first) = (until_apps_gone(&seen), true);
        daemon.set_turn(move |h| {
            if std::mem::replace(&mut first, false) {
                h.wake();
            }
            inner(h)
        });
        let app_body: Body = Box::new(|_| {});
        run_ok(&sched, vec![(app, app_body)]);
        // Three calls: two in the first dispatch, one at teardown.
        assert_eq!(*seen.lock().unwrap(), vec![true, true, false]);
        // Two turns in two epochs — daemon, then app — as without the
        // self-wake: the re-run was no dispatch. The self-wake and the
        // teardown release are the two wakes.
        let s = sched.summary();
        assert_eq!((s.turns, s.wakes, s.epochs), (2, 2, 2));
        assert_eq!(daemon.turns(), 1);
    }

    #[test]
    fn a_panicking_turn_does_not_unwind_the_thread_driving_it() {
        // The app's `yield_until` dispatches the daemon, so the app's
        // thread drives the turn that panics. The app must come back
        // from the yield unharmed; the payload comes back from
        // `run_tasks`, after the tasks' own results.
        let sched = turnstile();
        let app = sched.register("app", SimClock::new(), 0, false);
        let daemon = sched.register("daemon", clock_at(5), 1, true);
        daemon.set_turn(|_| panic!("daemon exploded"));
        let survived = AtomicBool::new(false);
        let body: Body = Box::new(|h| {
            h.yield_until(SimInstant(10));
            survived.store(true, Ordering::Release);
        });
        let mut results = run_tasks(&sched, vec![(app, body)]);
        assert_eq!(results.len(), 2);
        assert_eq!(panic_message(results.remove(1)), "daemon exploded");
        results.remove(0).expect("the driving task is not unwound");
        assert!(survived.load(Ordering::Acquire));
        assert_eq!(sched.summary().threads, 1, "daemons have no thread");
    }

    #[test]
    fn horizon_is_infinite_solo_and_windowed_in_batches() {
        // Task 0 starts at clock 0, task 1 at 10 000, L = 1 000: each
        // first turn is solo (infinite horizon). Task 0 advances to
        // 10 000 and blocks; task 1 wakes it and yields to the same
        // instant — the next epoch is a two-member batch with horizon
        // m + L = 11 000.
        let sched = Scheduler::new(SchedulerMode::Deterministic, SimDuration(1_000));
        let seen = StdMutex::new(Vec::new());
        let c0 = SimClock::new();
        let c1 = clock_at(10_000);
        let h0 = sched.register("t0", c0.clone(), 0, false);
        let h1 = sched.register("t1", c1.clone(), 1, false);
        let (seen0, seen1, peer) = (&seen, &seen, h0.clone());
        let t0: Body = Box::new(move |h| {
            seen0.lock().unwrap().push((0, h.horizon().nanos()));
            c0.advance(SimDuration(10_000));
            h.block(); // task 1 wakes us into the joint window
            seen0.lock().unwrap().push((0, h.horizon().nanos()));
        });
        let t1: Body = Box::new(move |h| {
            seen1.lock().unwrap().push((1, h.horizon().nanos()));
            peer.wake();
            h.yield_until(c1.now()); // runnable again at 10 000
            seen1.lock().unwrap().push((1, h.horizon().nanos()));
        });
        run_ok(&sched, vec![(h0, t0), (h1, t1)]);
        let mut got = seen.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(
            got,
            vec![(0, 11_000), (0, u64::MAX), (1, 11_000), (1, u64::MAX)]
        );
        assert_eq!(sched.summary().epochs, 3);
    }

    #[test]
    fn gate_promotion_waits_for_competitors() {
        // Task 0 parks on the lock-grant gate with key (100, 0). While
        // task 1 is still runnable at clock 0 it could yet issue an
        // earlier request, so the gate must hold; once task 1 blocks at
        // clock 5 000 its bound moves past the key and task 0 resumes.
        let sched = turnstile();
        let log = StdMutex::new(Vec::new());
        let c1 = SimClock::new();
        let h0 = sched.register("gated", SimClock::new(), 0, false);
        let h1 = sched.register("rival", c1.clone(), 1, false);
        let (log0, log1, peer) = (&log, &log, h1.clone());
        let gated: Body = Box::new(move |h| {
            h.block_gated(SimInstant(100), 0);
            log0.lock().unwrap().push("granted");
            peer.wake();
        });
        let rival: Body = Box::new(move |h| {
            c1.advance(SimDuration(5_000));
            log1.lock().unwrap().push("rival-blocked");
            h.block();
        });
        run_ok(&sched, vec![(h0, gated), (h1, rival)]);
        assert_eq!(*log.lock().unwrap(), vec!["rival-blocked", "granted"]);
    }

    /// Run `scenario` on a thread of its own and fail — instead of
    /// hanging the test binary — if it has not returned in time: a
    /// lost wake leaves every task thread parked for good.
    fn finishes<R: Send + 'static>(scenario: impl FnOnce() -> R + Send + 'static) -> R {
        let run = std::thread::spawn(scenario);
        for _ in 0..6_000 {
            if run.is_finished() {
                return run
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("a hand-off was lost: the run never finished")
    }

    #[test]
    fn every_path_that_lets_go_of_the_engine_delivers_its_hand_off() {
        // Two apps and two daemons, with every dispatch of an app made
        // from another thread than its own:
        // 1. `launch` dispatches app 0, whose thread attached first;
        // 2. app 0 blocks (`park`) and hands off to app 1;
        // 3. app 1's `yield_until` drives daemon `d-ok`, which wakes
        //    app 0 and idles — `drive` dispatches app 0;
        // 4. app 0 blocks again and hands off to app 1;
        // 5. app 1's `yield_until` drives daemon `d-boom`, which wakes
        //    app 0 and panics — the engine dispatches app 0 anyway;
        // 6. app 0 finishes (`finish`), handing off to app 1.
        let (summary, panicked) = finishes(|| {
            let sched = turnstile();
            let a0 = sched.register("a0", SimClock::new(), 0, false);
            let a1 = sched.register("a1", clock_at(1), 1, false);
            let (w0, w0_again) = (a0.clone(), a0.clone());
            let mut woke = false;
            sched
                .register("d-ok", clock_at(3), 2, true)
                .set_turn(move |h| {
                    if !h.apps_live() {
                        return DaemonTurn::Done;
                    }
                    if !std::mem::replace(&mut woke, true) {
                        w0.wake();
                    }
                    DaemonTurn::Idle
                });
            sched
                .register("d-boom", clock_at(5), 3, true)
                .set_turn(move |_| {
                    w0_again.wake();
                    panic!("daemon exploded")
                });
            let sched = &sched;
            std::thread::scope(|s| {
                let t0 = s.spawn(move || {
                    a0.attach();
                    a0.block();
                    a0.block();
                    a0.finish();
                });
                while !t0.is_finished() && sched.summary().threads == 0 {
                    std::thread::yield_now();
                }
                let t1 = s.spawn(move || {
                    a1.attach();
                    a1.yield_until(SimInstant(4));
                    a1.yield_until(SimInstant(6));
                    a1.finish();
                });
                // App 0's thread is attached: launching hands it off.
                sched.launch();
                for t in [t0, t1] {
                    t.join().expect("app threads are not unwound");
                }
            });
            (sched.summary(), sched.retire_daemons().len())
        });
        assert_eq!(panicked, 1, "the exploding daemon's payload is kept");
        assert_eq!(summary.handoffs, 6, "{summary:?}");
    }

    /// Voluntary context switches of the calling thread so far.
    #[cfg(target_os = "linux")]
    fn voluntary_switches() -> u64 {
        let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs");
        let line = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
        line.expect("voluntary_ctxt_switches")
            .trim()
            .parse()
            .expect("a count")
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_hand_off_costs_one_context_switch() {
        // Two tasks on one CPU pass the turn back and forth. A thread
        // gives up its CPU voluntarily only to park, once per hand-off
        // away from it — unless it was woken while the engine mutex was
        // still held, preempted its waker and then had to block on that
        // mutex: that is a second voluntary switch for the hand-off.
        const ROUNDS: u64 = 2_000;
        let switches = finishes(|| {
            let sched = turnstile();
            let clocks = [SimClock::new(), SimClock::new()];
            let handles = [
                sched.register("a", clocks[0].clone(), 0, false),
                sched.register("b", clocks[1].clone(), 1, false),
            ];
            let tasks = (0..2usize)
                .map(|i| {
                    let (c, peer) = (clocks[i].clone(), handles[1 - i].clone());
                    let body = move |h: &SchedHandle| {
                        let before = voluntary_switches();
                        for _ in 0..ROUNDS {
                            c.advance(SimDuration(10));
                            peer.wake();
                            h.block();
                        }
                        peer.wake();
                        voluntary_switches() - before
                    };
                    (handles[i].clone(), body)
                })
                .collect();
            let switches: u64 = run_tasks(&sched, tasks)
                .into_iter()
                .map(|r| r.expect("task panicked"))
                .sum();
            assert!(sched.summary().handoffs >= 2 * ROUNDS);
            switches
        });
        // 2 × ROUNDS parks, one per hand-off. Waking under the mutex
        // measures 1.7–1.9 switches per hand-off; the bound sits half
        // way, so host load and spurious wake-ups cannot trip it.
        assert!(
            switches < 3 * ROUNDS,
            "{switches} voluntary switches for {} hand-offs",
            2 * ROUNDS
        );
    }

    #[test]
    fn run_app_tasks_returns_results_in_rank_order() {
        let got = run_app_tasks(3, |rank, h, clock| {
            clock.advance(SimDuration(100 - rank as u64));
            h.yield_until(clock.now());
            rank * 10
        });
        assert_eq!(got, vec![0, 10, 20]);
    }
}
