//! PR 7 acceptance: exhaustive schedule exploration.
//!
//! Schedule scripts (`ClusterOptions::with_explore_script`) +
//! [`lots::analyze::explore_schedules`] mechanically check the
//! engine's conservative-gate equivalence claim: every dispatch order
//! the lookahead gate treats as concurrent (epoch-batch permutations,
//! and through them lock-grant service orders) must produce a
//! byte-identical outcome.
//!
//! * A 3-node lock+barrier model is enumerated to exhaustion — over a
//!   hundred distinct schedules, one fingerprint.
//! * The AB–BA deadlock kernel from `tests/determinism.rs` is found
//!   by exploration without any seed hint: every schedule ends in the
//!   engine's virtual-time deadlock panic, never a hang, and the
//!   explorer keeps enumerating through the panicking runs.

use std::sync::Once;

use lots::analyze::explore_schedules;
use lots::core::{run_cluster, ClusterOptions, DsmApi, DsmSlice, LotsConfig, ScheduleScript};
use lots::sim::machine::p4_fedora;

/// Expected-panic runs (deadlocks, poisoned peers) are part of the
/// search space: silence their default-hook stderr spew, but keep the
/// hook for anything unexpected.
fn quiet_expected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&'static str>()
                        .map(|s| s.to_string())
                });
            let expected = msg
                .as_deref()
                .is_some_and(|m| m.contains("virtual-time deadlock") || m.contains("poisoned"));
            if !expected {
                default(info);
            }
        }));
    });
}

/// Panic payload as a string (for outcome keys).
fn payload_msg(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| {
            payload
                .downcast_ref::<&'static str>()
                .map(|s| s.to_string())
        })
        .unwrap_or_else(|| "opaque panic".to_string())
}

/// Run one scripted cluster execution of `app` with the race detector
/// on, folding a panic into the outcome string so deadlock schedules
/// are data, not aborts.
fn scripted_run<R: std::fmt::Debug + Send + 'static>(
    n: usize,
    script: ScheduleScript,
    app: fn(&lots::core::Dsm) -> R,
) -> String {
    let opts = ClusterOptions::new(n, LotsConfig::small(1 << 20), p4_fedora())
        .with_explore_script(script)
        .with_analyze(lots::analyze::AnalyzeConfig::races());
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_cluster(opts, app))) {
        // Every virtual observable: results, the report fingerprint
        // (which leaves out the engine's turns and wakes — a permuted
        // dispatch order may legally cost an extra blocked turn) and
        // the race report beside it.
        Ok((results, report)) => format!(
            "ok results={results:?} {} races={:?}",
            report.fingerprint(),
            report.races
        ),
        Err(payload) => {
            let msg = payload_msg(payload);
            if msg.contains("virtual-time deadlock") {
                "deadlock:virtual-time deadlock".to_string()
            } else {
                format!("panic:{msg}")
            }
        }
    }
}

/// The 3-node lock+barrier model: enough concurrent structure for a
/// three-digit schedule space, small enough to exhaust in seconds.
fn lock_barrier_model(dsm: &lots::core::Dsm) -> i64 {
    let a = dsm.alloc::<i64>(8);
    a.write(dsm.me(), dsm.me() as i64 + 1);
    dsm.barrier();
    dsm.lock(1);
    let v = a.read(3);
    a.write(3, v + 1);
    dsm.unlock(1);
    a.read(3)
}

#[test]
fn exhaustive_exploration_finds_one_fingerprint() {
    quiet_expected_panics();
    const BUDGET: usize = 2000;
    let (outcomes, exploration) =
        explore_schedules(BUDGET, |script| scripted_run(3, script, lock_barrier_model));
    assert!(
        exploration.exhausted,
        "search space larger than the cap: saw {} schedules",
        exploration.schedules
    );
    assert!(
        exploration.schedules >= 100,
        "model too small to be interesting: {} schedules",
        exploration.schedules
    );
    let canonical = &outcomes[0];
    assert!(
        canonical.starts_with("ok"),
        "model must not fail: {canonical}"
    );
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(
            o, canonical,
            "schedule {i} of {} diverged — the conservative gate's \
             equivalence claim is violated",
            exploration.schedules
        );
    }
}

/// The AB–BA kernel of `tests/determinism.rs`: both nodes hold their
/// first lock across a data exchange before requesting the other's.
fn abba_kernel(dsm: &lots::core::Dsm) {
    let a = dsm.alloc::<i64>(64);
    let (first, second) = if dsm.me() == 0 { (1, 2) } else { (2, 1) };
    dsm.lock(first);
    a.write(dsm.me(), 1);
    let _ = a.read(1 - dsm.me());
    dsm.lock(second);
    dsm.unlock(second);
    dsm.unlock(first);
}

#[test]
fn exploration_finds_the_abba_deadlock() {
    quiet_expected_panics();
    let (outcomes, exploration) =
        explore_schedules(64, |script| scripted_run(2, script, abba_kernel));
    assert!(exploration.schedules >= 1);
    let deadlocks = outcomes
        .iter()
        .filter(|o| o.starts_with("deadlock:"))
        .count();
    assert!(
        deadlocks > 0,
        "exploration must surface the AB-BA deadlock: {outcomes:?}"
    );
    // The cycle is schedule-independent (the data exchange forces the
    // lock overlap), so *every* enumerated schedule must hit it — and
    // none may hang.
    assert_eq!(
        deadlocks,
        outcomes.len(),
        "deadlock must not be schedule-lucky: {outcomes:?}"
    );
}

/// Scripted canonical order (empty prefix) equals a run with no script:
/// a script is an instrumented superset, not a different simulation.
#[test]
fn canonical_explore_schedule_matches_deterministic_engine() {
    quiet_expected_panics();
    let deterministic = || {
        let opts = ClusterOptions::new(3, LotsConfig::small(1 << 20), p4_fedora());
        let (results, report) = run_cluster(opts, lock_barrier_model);
        format!("ok results={results:?} exec={}", report.exec_time.nanos())
    };
    let explored = {
        let opts = ClusterOptions::new(3, LotsConfig::small(1 << 20), p4_fedora())
            .with_explore_script(ScheduleScript::default());
        let (results, report) = run_cluster(opts, lock_barrier_model);
        format!("ok results={results:?} exec={}", report.exec_time.nanos())
    };
    assert_eq!(deterministic(), explored);
}
