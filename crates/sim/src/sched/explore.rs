//! Schedule scripting for exhaustive exploration.
//!
//! The conservative engine claims that every dispatch order of an
//! epoch batch (and hence every lock-grant processing order within
//! it) produces byte-identical reports. [`ScheduleScript`] turns that
//! claim into something mechanically checkable: once a script is
//! installed ([`Scheduler::set_script`](super::Scheduler::set_script))
//! the engine consults it at every point where more than one batch
//! member could be dispatched next, instead of always using the
//! canonical ascending `(ready, id)` order.
//!
//! A script is a **decision prefix** plus a **trace**. Replaying a run
//! with a longer prefix steers it down a different branch of the
//! schedule tree; the recorded trace (each choice's pick and arity)
//! tells the driver how to backtrack. The DFS driver itself lives in
//! `lots-analyze` — this module only provides the choice point.

use std::sync::{Arc, Mutex};

/// One recorded decision: which alternative was picked out of how
/// many. Arity-1 decisions are never recorded (nothing to explore).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// Index picked, in `0..arity`.
    pub picked: usize,
    /// Number of alternatives that existed at this point.
    pub arity: usize,
}

#[derive(Default)]
struct ScriptState {
    /// Decisions to replay, outermost first.
    prefix: Vec<usize>,
    /// How many decisions have been consumed so far.
    cursor: usize,
    /// Every decision actually taken this run (replayed or defaulted).
    trace: Vec<Choice>,
}

/// A shared, replayable schedule decision stream (see module docs).
/// Cheap to clone; all clones observe the same state.
#[derive(Clone, Default)]
pub struct ScheduleScript {
    inner: Arc<Mutex<ScriptState>>,
}

impl ScheduleScript {
    /// A script that replays `prefix` and then takes alternative 0 at
    /// every further decision (the canonical order).
    pub fn new(prefix: Vec<usize>) -> ScheduleScript {
        ScheduleScript {
            inner: Arc::new(Mutex::new(ScriptState {
                prefix,
                cursor: 0,
                trace: Vec::new(),
            })),
        }
    }

    /// Take the next decision among `arity` alternatives: the next
    /// prefix entry if one remains (clamped to the arity, which is a
    /// pure function of the decisions before it and so never actually
    /// clamps during a well-formed DFS), otherwise 0. Arity ≤ 1 is a
    /// non-decision and is neither consumed nor traced.
    pub fn choose(&self, arity: usize) -> usize {
        if arity <= 1 {
            return 0;
        }
        let mut st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let picked = if st.cursor < st.prefix.len() {
            st.prefix[st.cursor].min(arity - 1)
        } else {
            0
        };
        st.cursor += 1;
        st.trace.push(Choice { picked, arity });
        picked
    }

    /// The decisions taken so far this run. Valid even after a run
    /// that panicked mid-way (e.g. into the deadlock detector): the
    /// trace covers every choice made before the panic, which is
    /// exactly what a DFS needs to backtrack past it.
    pub fn trace(&self) -> Vec<Choice> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .trace
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_prefix_then_defaults_to_zero() {
        let s = ScheduleScript::new(vec![2, 1]);
        assert_eq!(s.choose(3), 2);
        assert_eq!(s.choose(2), 1);
        assert_eq!(s.choose(4), 0);
        assert_eq!(
            s.trace(),
            vec![
                Choice {
                    picked: 2,
                    arity: 3
                },
                Choice {
                    picked: 1,
                    arity: 2
                },
                Choice {
                    picked: 0,
                    arity: 4
                },
            ]
        );
    }

    #[test]
    fn arity_one_is_transparent() {
        let s = ScheduleScript::new(vec![1]);
        assert_eq!(s.choose(1), 0);
        assert_eq!(
            s.choose(2),
            1,
            "prefix entry must not be consumed by arity-1"
        );
        assert!(s.trace().len() == 1);
    }
}
