//! Thread plumbing for engine tasks: one place that spawns an
//! application task's OS thread, binds it, runs its body, retires it
//! and joins — used by the cluster driver, by the sync services' unit
//! tests and benches, and by this module's own tests. Daemons get no
//! thread: their turn functions run on these threads (and on the
//! launching one), wherever the engine's dispatch point happens to be.
//!
//! The engine lets one task thread run at a time, so all of them are
//! spawned onto one CPU — the launcher's (see `affinity`): a turn
//! hand-off is then a local context switch, not a wake of a thread on
//! an idle CPU.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

use crate::clock::{SimClock, SimDuration};

use super::{affinity, SchedHandle, Scheduler, SchedulerMode};

/// Run every `(task, body)` pair — the application tasks — to
/// completion on `sched`, together with the daemons registered on it.
///
/// Each task gets an OS thread named after it that calls
/// [`SchedHandle::attach`], runs `body`, and — whether `body` returned
/// or panicked — [`SchedHandle::finish`]es before the thread exits, so
/// a dying task can never strand the engine. A body that must warn its
/// peers about its own panic (poisoning a rendezvous) does so inside
/// `body`, i.e. *before* the finish, whose dispatch could otherwise
/// trip the deadlock detector on the still-blocked peers and mask the
/// original panic. The same goes for a daemon's turn function: it is
/// retired the moment its panic reaches the engine.
///
/// The threads are born on the CPU the caller is on and stay there;
/// the caller's own affinity is back as it was by the time this
/// returns or unwinds.
///
/// Results come back in `tasks` order once every thread is joined,
/// followed by one `Err` per daemon whose turn function panicked.
/// Nothing is re-raised here, so the caller sees every panic and
/// decides which one to propagate.
pub fn run_tasks<'env, R, F>(
    sched: &Scheduler,
    tasks: Vec<(SchedHandle, F)>,
) -> Vec<thread::Result<R>>
where
    R: Send + 'env,
    F: FnOnce(&SchedHandle) -> R + Send + 'env,
{
    // Launch first: a task dispatched before its thread exists finds
    // itself running when it attaches, and a launch that panics (a
    // daemon without a turn function) leaves no thread parked.
    sched.launch();
    let mut results: Vec<_> = thread::scope(|scope| {
        let threads: Vec<_> = {
            // Threads inherit the spawner's affinity: narrowed for the
            // spawn loop only, restored when the guard drops (also if
            // a spawn panics).
            let _one_cpu = affinity::narrow_to_current_cpu();
            tasks
                .into_iter()
                .map(|(task, body)| {
                    thread::Builder::new()
                        .name(task.name().to_owned())
                        .spawn_scoped(scope, move || {
                            task.attach();
                            let result = catch_unwind(AssertUnwindSafe(|| body(&task)));
                            task.finish();
                            result.unwrap_or_else(|payload| resume_unwind(payload))
                        })
                        .expect("spawn task thread")
                })
                .collect()
        };
        threads.into_iter().map(|t| t.join()).collect()
    });
    results.extend(sched.retire_daemons().into_iter().map(Err));
    results
}

/// `n` application tasks — one per node, fresh clocks — on a default
/// sequential engine with no lookahead: runs `body(rank, handle,
/// clock)` on each via [`run_tasks`] and returns the results in rank
/// order, re-raising the first panic. For code that needs a *running*
/// task to call into scheduler-parked services without a whole cluster
/// around it.
pub fn run_app_tasks<R, F>(n: usize, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &SchedHandle, &SimClock) -> R + Sync,
{
    let sched: Arc<Scheduler> = Scheduler::new(SchedulerMode::default(), SimDuration::ZERO);
    let body = &body;
    let tasks = (0..n)
        .map(|rank| {
            let clock = SimClock::new();
            let task = sched.register(format!("app-{rank}"), clock.clone(), rank, false);
            (task, move |h: &SchedHandle| body(rank, h, &clock))
        })
        .collect();
    run_tasks(&sched, tasks)
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    /// The calling thread's `Cpus_allowed_list`, e.g. `0-1` or `1`.
    fn cpus_allowed() -> String {
        let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs");
        let line = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"));
        line.expect("Cpus_allowed_list").trim().to_owned()
    }

    #[test]
    fn task_threads_share_one_cpu_and_the_launcher_keeps_its_own() {
        let before = cpus_allowed();
        let seen = run_app_tasks(8, |_, _, _| cpus_allowed());
        assert_eq!(cpus_allowed(), before, "launcher mask restored");
        // A one-CPU list is a bare number, and the same one for all.
        assert!(seen[0].parse::<usize>().is_ok(), "{seen:?}");
        assert!(seen.iter().all(|s| *s == seen[0]), "{seen:?}");
    }

    #[test]
    fn the_launcher_keeps_its_mask_when_a_body_panics() {
        let before = cpus_allowed();
        let died = catch_unwind(|| {
            run_app_tasks(8, |rank, _, _| assert_ne!(rank, 3, "body 3 dies"));
        });
        assert!(died.is_err());
        assert_eq!(cpus_allowed(), before);
    }

    #[test]
    fn a_launcher_already_confined_to_one_cpu_still_runs() {
        let _confined = affinity::narrow_to_current_cpu();
        let before = cpus_allowed();
        let seen = run_app_tasks(2, |_, _, _| cpus_allowed());
        assert_eq!(seen, vec![before.clone(), before.clone()]);
        assert_eq!(cpus_allowed(), before);
    }
}
