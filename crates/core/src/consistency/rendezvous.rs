//! The all-node rendezvous both barrier services are built from (see
//! the [module docs](super) for the lost-wakeup and virtual-order
//! arguments).

use std::collections::BTreeSet;
use std::sync::Arc;

use lots_net::NodeId;
use lots_sim::{BlockReason, NetModel, SchedHandle, SimDuration, SimInstant, TimeCategory};
use parking_lot::Mutex;

use crate::object::NamedAllocReq;
use crate::protocol::messages::ctl;

use super::SyncCtx;

/// Per-entry manager processing cost when building/applying plans.
const PLAN_ENTRY_COST: SimDuration = SimDuration(250);

/// Wire bytes a list of named allocations adds to a barrier message.
pub fn named_wire_bytes(named: &[NamedAllocReq]) -> usize {
    named.iter().map(|r| ctl::WRITE_NOTICE + r.name.len()).sum()
}

/// Merge the lifecycle halves of a round's contributions, given in
/// rank order: the union of the freed sets, sorted, and the named
/// allocations in commit order — by staging node, then staging order.
/// Both are pure functions of the interval's calls, which is what keeps
/// ids and the replicated name directory cluster-consistent and faulted
/// runs replayable.
pub fn merge_lifecycle<F: Ord>(
    per_node: impl IntoIterator<Item = (Vec<F>, Vec<NamedAllocReq>)>,
) -> (Vec<F>, Vec<NamedAllocReq>) {
    let mut freed = BTreeSet::new();
    let mut named = Vec::new();
    for (frees, staged) in per_node {
        freed.extend(frees);
        named.extend(staged);
    }
    (freed.into_iter().collect(), named)
}

/// Arrivals one combining step folds into a single message: the
/// barrier's arrival tree has this fan-in at every level, and its root
/// is the manager. At most `FAN_IN` nodes (the paper's 16-node
/// cluster) there is one level and the root is a central manager.
const FAN_IN: usize = 16;

/// What the last arriver's `complete` closure is handed.
pub struct Arrivals<In> {
    /// 1-based number of this round.
    pub round: u64,
    /// Every node's contribution, in rank order.
    pub contributions: Vec<(NodeId, In)>,
    /// When the latest message of the arrival tree's top level reaches
    /// the manager: an enter message at `n ≤ 16`, else a group's
    /// combined message.
    pub enter_max: SimInstant,
    /// Manager-side cost of handling the messages of the tree's top
    /// level (the `n` enter messages at `n ≤ 16`), at the CPU speed of
    /// that level's virtual last arriver.
    pub manager_cost: SimDuration,
}

impl<In> Arrivals<In> {
    /// When the round's result is ready at the manager if it lists
    /// `entries` written/freed/named entries: the last enter message
    /// is in, handled, and every entry processed.
    pub fn ready_after(&self, entries: usize) -> SimInstant {
        self.enter_max + self.manager_cost + PLAN_ENTRY_COST * entries as u64
    }
}

/// One node's arrival record — or, above the tree's leaves, one
/// group's, standing for the group's virtual last arriver.
#[derive(Clone, Copy)]
struct Arrival {
    node: NodeId,
    arrive: SimInstant,
    send_bytes: usize,
    handler_entry: SimDuration,
}

impl Arrival {
    /// The group's *virtual* last arriver: lex-max `(arrive, node)`.
    fn last(group: &[Arrival]) -> Arrival {
        *group
            .iter()
            .max_by_key(|a| (a.arrive, a.node))
            .expect("a group has members")
    }

    /// Fold rank-ordered arrivals up the combining tree and return the
    /// manager's `(enter_max, manager_cost)`. A group of `FAN_IN`
    /// consecutive records is ready at its latest arrival, plus
    /// `|group|` handler entries at its last arriver's CPU speed, plus
    /// the one-way trip of the group's summed bytes to the next level;
    /// levels fold until at most `FAN_IN` remain, and those are the
    /// manager's.
    fn combine(mut level: Vec<Arrival>, net: &NetModel) -> (SimInstant, SimDuration) {
        while level.len() > FAN_IN {
            level = level
                .chunks(FAN_IN)
                .map(|group| {
                    let last = Arrival::last(group);
                    let send_bytes = group.iter().map(|a| a.send_bytes).sum();
                    Arrival {
                        arrive: last.arrive
                            + last.handler_entry * group.len() as u64
                            + net.one_way(send_bytes),
                        send_bytes,
                        ..last
                    }
                })
                .collect();
        }
        let last = Arrival::last(&level);
        (last.arrive, last.handler_entry * level.len() as u64)
    }
}

struct State<In, Out> {
    /// Completed rounds.
    generation: u64,
    /// This round's arrivals and contributions so far, in host arrival
    /// order.
    arrivals: Vec<(Arrival, In)>,
    /// The latest completed round's result and exit time. A waiter
    /// reads it before it can enter the next round, and the next round
    /// cannot complete without it.
    result: Option<(Arc<Out>, SimInstant)>,
    /// Set when a task died: every current and future caller must
    /// propagate instead of waiting for a round that cannot complete.
    poisoned: bool,
    /// Tasks parked in this rendezvous.
    waiters: Vec<SchedHandle>,
}

impl<In, Out> State<In, Out> {
    fn check_poison(&self) {
        if self.poisoned {
            panic!("barrier poisoned: a peer app thread panicked (see its panic above)");
        }
    }
}

/// A reusable meeting point of `n` nodes. Each round every node calls
/// [`Rendezvous::meet`] once with a contribution `In`; the last to
/// arrive turns the contributions into the round's result `Out`, which
/// every node receives.
pub struct Rendezvous<In, Out> {
    n: usize,
    state: Mutex<State<In, Out>>,
}

impl<In, Out> Rendezvous<In, Out> {
    /// A rendezvous of `n` nodes.
    pub fn new(n: usize) -> Self {
        Rendezvous {
            n,
            state: Mutex::new(State {
                generation: 0,
                arrivals: Vec::with_capacity(n),
                result: None,
                poisoned: false,
                waiters: Vec::new(),
            }),
        }
    }

    /// Mark the cluster as dead after a task panic and wake all
    /// waiters so they fail loudly instead of waiting for a peer that
    /// will never arrive.
    pub fn poison(&self) {
        let mut st = self.state.lock();
        st.poisoned = true;
        super::wake_all(&mut st.waiters);
    }

    /// Take part in the current round and return its result, with the
    /// exit message's arrival merged into the caller's clock.
    ///
    /// Virtual accounting, the same for every instance: the caller
    /// sends `send_bytes` towards the manager, and its arrival record
    /// `(node, arrive, send_bytes, handler_entry)` is folded up a
    /// combining tree of fan-in 16 (a single level, the manager
    /// itself, at `n ≤ 16`; see [`Arrivals::manager_cost`]). The round
    /// is ready at whatever `complete` — run once, by the last
    /// arriver, under the rendezvous lock while every other node is
    /// parked — returns beside the result (normally
    /// [`Arrivals::enter_max`] plus manager processing); every node
    /// then receives `recv_bytes(result)` and charges the exit advance
    /// to [`TimeCategory::SyncWait`] (what the node's comm task did
    /// meanwhile is already charged to its own category). One slow
    /// node stalls everyone, as on a real cluster; manager-side
    /// fan-out is folded into the per-node accounting.
    pub fn meet(
        &self,
        ctx: &SyncCtx,
        send_bytes: usize,
        contribution: In,
        complete: impl FnOnce(Arrivals<In>) -> (Out, SimInstant),
        recv_bytes: impl FnOnce(&Out) -> usize,
    ) -> Arc<Out> {
        let mut st = self.state.lock();
        st.check_poison();
        let my_round = st.generation;
        ctx.traffic
            .record_send(send_bytes, ctx.net.fragments(send_bytes));
        let arrival = Arrival {
            node: ctx.me,
            arrive: ctx.clock.now() + ctx.net.one_way(send_bytes),
            send_bytes,
            handler_entry: ctx.cpu.handler_entry,
        };
        st.arrivals.push((arrival, contribution));
        if st.arrivals.len() == self.n {
            let mut arrivals = std::mem::replace(&mut st.arrivals, Vec::with_capacity(self.n));
            arrivals.sort_by_key(|(a, _)| a.node);
            let (records, contributions): (Vec<Arrival>, Vec<(NodeId, In)>) =
                arrivals.into_iter().map(|(a, c)| (a, (a.node, c))).unzip();
            let (enter_max, manager_cost) = Arrival::combine(records, &ctx.net);
            let done = complete(Arrivals {
                round: my_round + 1,
                contributions,
                enter_max,
                manager_cost,
            });
            st.result = Some((Arc::new(done.0), done.1));
            st.generation += 1;
            super::wake_all(&mut st.waiters);
        } else {
            st = super::park_until(
                &self.state,
                st,
                |s| &mut s.waiters,
                &ctx.sched,
                BlockReason::Barrier,
                |s| {
                    s.check_poison();
                    s.generation != my_round
                },
            );
        }
        let (out, ready) = st.result.clone().expect("set by the last arriver");
        drop(st);
        let bytes = recv_bytes(&out);
        ctx.traffic.record_recv(bytes);
        ctx.stats.charge_until(
            TimeCategory::SyncWait,
            &ctx.clock,
            ready + ctx.net.one_way(bytes),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::on_nodes;
    use super::*;
    use lots_sim::machine::p4_fedora;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A rendezvous whose result is its round number and the ranks it
    /// was handed, ready as soon as the enter messages are handled.
    type Roll = Rendezvous<u64, (u64, Vec<(NodeId, u64)>)>;

    fn meet(rv: &Roll, c: &SyncCtx, mine: u64) -> Arc<(u64, Vec<(NodeId, u64)>)> {
        rv.meet(
            c,
            16,
            mine,
            |a| {
                let ready = a.ready_after(0);
                ((a.round, a.contributions), ready)
            },
            |_| 16,
        )
    }

    #[test]
    fn rounds_reuse_one_rendezvous_and_see_contributions_in_rank_order() {
        let rv = Roll::new(3);
        for round in 1..=3u64 {
            let seen = on_nodes(3, |c| {
                // Reverse the host arrival order: the engine runs
                // the task with the earliest clock first.
                c.clock.advance(SimDuration::from_micros(10 - c.me as u64));
                c.sched.yield_until(c.clock.now());
                meet(&rv, c, round * 10 + c.me as u64)
            });
            let expected: Vec<(NodeId, u64)> =
                (0..3).map(|me| (me, round * 10 + me as u64)).collect();
            for got in seen {
                assert_eq!(*got, (round, expected.clone()));
            }
        }
    }

    #[test]
    fn exit_time_follows_the_virtual_last_arrivers_cpu() {
        let rv = Roll::new(2);
        // Node 1 arrives 30 ms late *and* on a 4× slower CPU: it is the
        // lex-max `(arrive, node)` arriver, so the manager cost is
        // charged at its handler speed, and nobody leaves before it
        // came.
        let exits = on_nodes(2, |c| {
            let mut c = c.clone();
            if c.me == 1 {
                c.clock.advance(SimDuration::from_millis(30));
                c.cpu = c.cpu.scaled(4.0);
            }
            meet(&rv, &c, 0);
            (c.clock.now(), c.net.one_way(16), c.cpu.handler_entry)
        });
        let (exit, wire, slow_handler) = exits[1];
        assert_eq!(exits[0].0, exit, "one exit time for the cluster");
        let arrived = SimInstant(30_000_000) + wire;
        assert_eq!(exit, arrived + SimDuration(slow_handler.0 * 2) + wire);
        assert!(slow_handler > exits[0].2);
        // A tie on arrival goes to the higher rank.
        let exits = on_nodes(2, |c| {
            let mut c = c.clone();
            if c.me == 1 {
                c.cpu = c.cpu.scaled(4.0);
            }
            meet(&rv, &c, 0);
            c.clock.now()
        });
        assert_eq!(
            exits[0],
            SimInstant::ZERO + wire + SimDuration(slow_handler.0 * 2) + wire
        );
    }

    #[test]
    fn forty_nodes_fold_through_three_groups_of_the_arrival_tree() {
        // Ranks 0..16, 16..32 and 32..40 form the tree's leaf groups.
        // Node 3, in the first, is a 1 µs straggler on a 4× slower
        // CPU; node 35, in the last, is late by `late`.
        let run = |late: SimDuration| {
            let rv = Roll::new(40);
            on_nodes(40, |c| {
                let mut c = c.clone();
                if c.me == 3 {
                    c.clock.advance(SimDuration::from_micros(1));
                    c.cpu = c.cpu.scaled(4.0);
                }
                if c.me == 35 {
                    c.clock.advance(late);
                }
                meet(&rv, &c, 0);
                (c.clock.now(), c.cpu.handler_entry)
            })
        };
        let ctx_of = |exits: &[(SimInstant, SimDuration)]| (exits[0].1, exits[3].1);
        let wire = |bytes: usize| p4_fedora().net.one_way(bytes);
        // Each group is ready at its last arrival, plus its size in
        // handler entries at that arriver's speed, plus its summed
        // 16-byte messages' trip to the manager, which handles the
        // three group messages at its own last arriver's speed.
        let group = |arrive: SimInstant, size: u64, handler: SimDuration| {
            arrive + handler * size + wire(16 * size as usize)
        };
        // A 30 ms straggler decides the round.
        let late = SimDuration::from_millis(30);
        let exits = run(late);
        let (h, slow_h) = ctx_of(&exits);
        assert_eq!(slow_h, h * 4);
        let last_group = group(SimInstant::ZERO + late + wire(16), 8, h);
        let expected = last_group + h * 3 + wire(16);
        assert!(last_group > group(SimInstant::ZERO + wire(16), 16, h));
        assert!(last_group > group(SimInstant(1_000) + wire(16), 16, slow_h));
        for (exit, _) in &exits {
            assert_eq!(*exit, expected);
        }
        // A 10 µs straggler loses to the slow first group, whose CPU
        // then also prices the manager's step.
        let late = SimDuration::from_micros(10);
        let exits = run(late);
        let first_group = group(SimInstant(1_000) + wire(16), 16, slow_h);
        assert!(first_group > group(SimInstant::ZERO + late + wire(16), 8, h));
        let expected = first_group + slow_h * 3 + wire(16);
        for (exit, _) in &exits {
            assert_eq!(*exit, expected);
        }
    }

    #[test]
    fn three_hundred_nodes_fold_through_a_second_tree_level() {
        // 300 ranks: 18 leaf groups of 16 and one of 12 (ranks
        // 288..300), then a level of 16 + 3 groups, then a manager of
        // two. Rank 299 straggles by 5 ms and sets every level's pace.
        let rv = Roll::new(300);
        let late = SimDuration::from_millis(5);
        let exits = on_nodes(300, |c| {
            if c.me == 299 {
                c.clock.advance(late);
            }
            meet(&rv, c, 0);
            c.clock.now()
        });
        let m = p4_fedora();
        let (h, wire) = (m.cpu.handler_entry, |b: usize| m.net.one_way(b));
        let leaf = SimInstant::ZERO + late + wire(16) + h * 12 + wire(12 * 16);
        // Above it: groups 16, 17 (16 ranks each) and 18 (12 ranks).
        let level_one = leaf + h * 3 + wire(16 * 16 + 16 * 16 + 12 * 16);
        let expected = level_one + h * 2 + wire(16);
        for exit in exits {
            assert_eq!(exit, expected);
        }
    }

    #[test]
    fn poison_wakes_parked_waiters_and_fails_every_later_caller() {
        let rv = Roll::new(2);
        let died = on_nodes(2, |c| {
            if c.me == 1 {
                // Let node 0 park first, then kill the round.
                c.clock.advance(SimDuration::from_millis(1));
                c.sched.yield_until(c.clock.now());
                rv.poison();
            }
            let err = catch_unwind(AssertUnwindSafe(|| meet(&rv, c, 0)))
                .expect_err("a poisoned rendezvous never completes");
            err.downcast_ref::<&str>().map(|s| s.to_string())
        });
        for msg in died {
            let msg = msg.expect("a literal panic message");
            assert!(msg.contains("peer app thread panicked"), "got: {msg}");
        }
    }
}
