//! Per-node run queues and epoch batch selection.
//!
//! An epoch's batch is chosen under one rule: a runnable task may join
//! the batch iff its ready time lies strictly inside the lookahead
//! window `[m, m + L)`, where `m` is the minimum ready time over all
//! runnable tasks and `L` the minimum link latency — no message sent
//! by any batch member can arrive before `m + L`, so nothing a member
//! does can land in a co-member's consumable past. Two refinements:
//!
//! * **One task per node.** App and comm tasks of a node share the
//!   node's clock (and its `NodeState`); only the node's min-key task
//!   joins, the other waits for a later epoch.
//! * **Never empty.** When the window admits nobody (`L = 0`, or a
//!   lone straggler), the global min-key task runs solo with an
//!   infinite horizon — the pure turnstile regime, trivially safe
//!   because nothing else runs.

use super::task::{Task, TaskState};

/// Outcome of batch selection: the chosen task ids in dispatch order
/// (ascending (ready, id)) and the epoch horizon.
pub(crate) struct Batch {
    pub members: Vec<usize>,
    pub horizon: u64,
}

/// Per-node minimum `(ready, id)` keys, indexed by node: [`select`]'s
/// working space, owned by the caller so one allocation serves every
/// epoch of a run.
pub(crate) type PerNode = Vec<Option<(u64, usize)>>;

/// Select the next epoch's batch. Returns `None` when nothing is
/// runnable (idle, or deadlock — the caller distinguishes).
/// `per_node` is scratch: its contents on entry are ignored.
pub(crate) fn select(tasks: &[Task], lookahead: u64, per_node: &mut PerNode) -> Option<Batch> {
    // Per-node minima first: at most one task per node may run.
    per_node.clear();
    for (id, t) in tasks.iter().enumerate() {
        if t.state != TaskState::Runnable {
            continue;
        }
        if t.node >= per_node.len() {
            per_node.resize(t.node + 1, None);
        }
        let key = t.key(id);
        let slot = &mut per_node[t.node];
        if slot.is_none_or(|min| key < min) {
            *slot = Some(key);
        }
    }
    let &(m, min_id) = per_node.iter().flatten().min()?;
    let bound = m.saturating_add(lookahead);
    let mut members: Vec<(u64, usize)> = per_node
        .iter()
        .flatten()
        .copied()
        .filter(|&(ready, _)| ready < bound)
        .collect();
    if members.is_empty() {
        members.push((m, min_id));
    }
    members.sort_unstable();
    let horizon = if members.len() == 1 { u64::MAX } else { bound };
    Some(Batch {
        members: members.into_iter().map(|(_, id)| id).collect(),
        horizon,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;

    /// The routine `select` replaced, kept as the oracle: it found each
    /// task's node slot with a linear scan (quadratic in runnable
    /// tasks) but is otherwise the same rule.
    fn select_reference(tasks: &[Task], lookahead: u64) -> Option<Batch> {
        let mut per_node: Vec<(u64, usize)> = Vec::new();
        for (id, t) in tasks.iter().enumerate() {
            if t.state != TaskState::Runnable {
                continue;
            }
            let key = t.key(id);
            match per_node.iter_mut().find(|(_, i)| tasks[*i].node == t.node) {
                Some(slot) => {
                    if key < (slot.0, slot.1) {
                        *slot = key;
                    }
                }
                None => per_node.push(key),
            }
        }
        let &(m, min_id) = per_node.iter().min()?;
        let bound = m.saturating_add(lookahead);
        let mut members: Vec<(u64, usize)> = per_node
            .iter()
            .copied()
            .filter(|&(ready, _)| ready < bound)
            .collect();
        if members.is_empty() {
            members.push((m, min_id));
        }
        members.sort_unstable();
        let horizon = if members.len() == 1 { u64::MAX } else { bound };
        Some(Batch {
            members: members.into_iter().map(|(_, id)| id).collect(),
            horizon,
        })
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A seeded task set: two tasks (app + comm) on most nodes, random
    /// states, ready times drawn from a narrow range so ties, windows
    /// that admit many nodes and windows that admit none all occur.
    fn task_set(seed: u64, nodes: usize) -> Vec<Task> {
        let mut rng = seed | 1;
        (0..2 * nodes)
            .map(|i| {
                let mut t = Task::new(
                    format!("t{i}").into(),
                    SimClock::new(),
                    i % nodes,
                    i >= nodes,
                );
                t.ready_at = match xorshift(&mut rng) % 8 {
                    0 => u64::MAX, // idle daemon parked at virtual infinity
                    _ => 1_000 + xorshift(&mut rng) % 64,
                };
                t.state = match xorshift(&mut rng) % 4 {
                    0 => TaskState::Blocked,
                    1 if i % 7 == 0 => TaskState::Finished,
                    _ => TaskState::Runnable,
                };
                t
            })
            .collect()
    }

    #[test]
    fn batches_match_the_reference_routine_exactly() {
        // One scratch vector across every call, as the engine uses it.
        let mut scratch = PerNode::new();
        for seed in 1..=200u64 {
            for nodes in [1, 2, 5, 16, 64] {
                let tasks = task_set(seed * 31 + nodes as u64, nodes);
                for lookahead in [0, 1, 7, 32, 1_000, u64::MAX] {
                    let got = select(&tasks, lookahead, &mut scratch);
                    let want = select_reference(&tasks, lookahead);
                    match (got, want) {
                        (None, None) => {}
                        (Some(g), Some(w)) => {
                            assert_eq!(g.members, w.members, "seed {seed} p {nodes} L {lookahead}");
                            assert_eq!(g.horizon, w.horizon, "seed {seed} p {nodes} L {lookahead}");
                        }
                        _ => panic!("seed {seed} p {nodes} L {lookahead}: one side found no batch"),
                    }
                }
            }
        }
    }

    #[test]
    fn nothing_runnable_selects_nothing() {
        let mut tasks = task_set(3, 4);
        for t in &mut tasks {
            t.state = TaskState::Blocked;
        }
        assert!(select(&tasks, 10, &mut PerNode::new()).is_none());
        assert!(select(&[], 10, &mut PerNode::new()).is_none());
    }
}
