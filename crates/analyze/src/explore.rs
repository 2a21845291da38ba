//! Exhaustive schedule exploration — the DFS driver over
//! [`ScheduleScript`] decision prefixes.
//!
//! An installed script makes the engine consult it at every epoch
//! whose batch has more than one member; the script's
//! trace records each decision's pick and arity. This driver walks
//! the resulting decision tree depth-first: run with a prefix, read
//! the trace, backtrack to the deepest non-exhausted decision,
//! increment it, repeat. A run that panics (e.g. into the
//! virtual-time deadlock detector) still leaves a valid trace of the
//! decisions made before the panic, so deadlocking branches are
//! backtracked past like any other.

use lots_sim::ScheduleScript;

/// Outcome of an exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exploration {
    /// How many distinct schedules were executed.
    pub schedules: usize,
    /// Whether the whole decision tree was enumerated (`false` means
    /// the `max_schedules` budget ran out first).
    pub exhausted: bool,
}

/// Run `run` once per distinct schedule, depth-first, up to
/// `max_schedules` runs. `run` receives a fresh [`ScheduleScript`]
/// per schedule and must install it on the run it performs (via
/// `ClusterOptions::with_explore_script` / the JIAJIA equivalent) —
/// and must not panic: wrap the cluster run in
/// [`std::panic::catch_unwind`] and fold panics (deadlocks) into `R`.
///
/// Returns every schedule's result in enumeration order, plus whether
/// the tree was exhausted. The first schedule is the canonical
/// dispatch order, so `results[0]` always matches a run with no
/// script installed.
pub fn explore_schedules<R>(
    max_schedules: usize,
    mut run: impl FnMut(ScheduleScript) -> R,
) -> (Vec<R>, Exploration) {
    let mut results = Vec::new();
    let mut prefix: Vec<usize> = Vec::new();
    let mut exhausted = false;
    while results.len() < max_schedules {
        let script = ScheduleScript::new(prefix.clone());
        results.push(run(script.clone()));
        let trace = script.trace();
        // Backtrack: deepest decision with an untried alternative.
        let Some(i) = (0..trace.len()).rfind(|&i| trace[i].picked + 1 < trace[i].arity) else {
            exhausted = true;
            break;
        };
        prefix = trace[..i].iter().map(|c| c.picked).collect();
        prefix.push(trace[i].picked + 1);
    }
    let schedules = results.len();
    (
        results,
        Exploration {
            schedules,
            exhausted,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerates_a_fixed_tree_exhaustively() {
        // A synthetic "program": two decision points of arity 3 and 2
        // → 6 schedules, each visited exactly once.
        let (results, ex) = explore_schedules(100, |script| {
            let a = script.choose(3);
            let b = script.choose(2);
            (a, b)
        });
        assert!(ex.exhausted);
        assert_eq!(ex.schedules, 6);
        let mut seen = results.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 6, "all schedules distinct: {results:?}");
    }

    #[test]
    fn budget_stops_enumeration() {
        let (results, ex) = explore_schedules(4, |script| script.choose(10));
        assert_eq!(results, vec![0, 1, 2, 3]);
        assert!(!ex.exhausted);
    }

    #[test]
    fn data_dependent_arity_is_walked_correctly() {
        // Branch 0 opens a deeper subtree than branch 1 — the DFS
        // must not assume a uniform tree shape.
        let (results, ex) = explore_schedules(100, |script| {
            let a = script.choose(2);
            let b = if a == 0 { script.choose(3) } else { 9 };
            (a, b)
        });
        assert!(ex.exhausted);
        assert_eq!(results, vec![(0, 0), (0, 1), (0, 2), (1, 9)]);
    }

    #[test]
    fn choiceless_program_is_one_schedule() {
        let (results, ex) = explore_schedules(100, |_| 42);
        assert_eq!(results, vec![42]);
        assert!(ex.exhausted);
    }
}
