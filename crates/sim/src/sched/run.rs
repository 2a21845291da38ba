//! Thread plumbing for engine tasks: one place that spawns an
//! application task's OS thread, binds it, runs its body, retires it
//! and joins — used by the cluster driver, by the sync services' unit
//! tests and benches, and by this module's own tests. Daemons get no
//! thread: their turn functions run on these threads (and on the
//! launching one), wherever the engine's dispatch point happens to be.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

use crate::clock::{SimClock, SimDuration};

use super::{SchedHandle, Scheduler, SchedulerMode};

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
        let threads: Vec<_> = tasks
            .into_iter()
            .map(|(task, body)| {
                thread::Builder::new()
                    .name(task.name())
                    .spawn_scoped(scope, move || {
                        task.attach();
                        let result = catch_unwind(AssertUnwindSafe(|| body(&task)));
                        task.finish();
                        result.unwrap_or_else(|payload| resume_unwind(payload))
                    })
                    .expect("spawn task thread")
            })
            .collect();
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
