//! The all-node rendezvous both barrier services are built from (see
//! the [module docs](super) for the lost-wakeup and virtual-order
//! arguments).

use std::collections::BTreeSet;
use std::sync::Arc;

use lots_net::NodeId;
use lots_sim::{BlockReason, SchedHandle, SimDuration, SimInstant, TimeCategory};
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

/// What the last arriver's `complete` closure is handed.
pub struct Arrivals<In> {
    /// 1-based number of this round.
    pub round: u64,
    /// Every node's contribution, in rank order.
    pub contributions: Vec<(NodeId, In)>,
    /// Latest modelled arrival of an enter message at the manager.
    pub enter_max: SimInstant,
    /// Manager-side cost of handling the `n` enter messages, at the
    /// virtual last arriver's CPU speed.
    pub manager_cost: SimDuration,
}

impl<In> Arrivals<In> {
    /// When the round's result is ready at the manager if it lists
    /// `entries` written/freed/named entries: the last enter message
    /// is in, handled, and every entry processed.
    pub fn ready_after(&self, entries: usize) -> SimInstant {
        self.enter_max + self.manager_cost + SimDuration(PLAN_ENTRY_COST.0 * entries as u64)
    }
}

/// The *virtual* last arriver of a round: lex-max `(arrive, node)`,
/// carrying that node's per-entry handler cost.
#[derive(Clone, Copy)]
struct LastArriver {
    arrive: SimInstant,
    node: NodeId,
    handler_entry: SimDuration,
}

impl LastArriver {
    const ZERO: LastArriver = LastArriver {
        arrive: SimInstant::ZERO,
        node: 0,
        handler_entry: SimDuration::ZERO,
    };
}

struct State<In, Out> {
    /// Completed rounds.
    generation: u64,
    /// This round's contributions so far, in host arrival order.
    contributions: Vec<(NodeId, In)>,
    enter_max: SimInstant,
    last: LastArriver,
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
                contributions: Vec::with_capacity(n),
                enter_max: SimInstant::ZERO,
                last: LastArriver::ZERO,
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
    /// sends `send_bytes` to the manager; the round is ready at
    /// whatever `complete` — run once, by the last arriver, under the
    /// rendezvous lock while every other node is parked — returns
    /// beside the result (normally [`Arrivals::enter_max`] plus
    /// manager processing); every node then receives
    /// `recv_bytes(result)` and charges the whole stall to
    /// [`TimeCategory::SyncWait`]. One slow node stalls everyone, as
    /// on a real cluster; manager-side fan-out is folded into the
    /// per-node accounting.
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
        let wait_from = ctx.clock.now();
        ctx.traffic
            .record_send(send_bytes, ctx.net.fragments(send_bytes));
        let arrive = wait_from + ctx.net.one_way(send_bytes);
        st.enter_max = st.enter_max.max(arrive);
        if (arrive, ctx.me) >= (st.last.arrive, st.last.node) {
            st.last = LastArriver {
                arrive,
                node: ctx.me,
                handler_entry: ctx.cpu.handler_entry,
            };
        }
        st.contributions.push((ctx.me, contribution));
        if st.contributions.len() == self.n {
            let mut contributions =
                std::mem::replace(&mut st.contributions, Vec::with_capacity(self.n));
            contributions.sort_by_key(|c| c.0);
            let done = complete(Arrivals {
                round: my_round + 1,
                contributions,
                enter_max: st.enter_max,
                manager_cost: SimDuration(st.last.handler_entry.0 * self.n as u64),
            });
            st.result = Some((Arc::new(done.0), done.1));
            st.enter_max = SimInstant::ZERO;
            st.last = LastArriver::ZERO;
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
        let now = ctx.clock.advance_to(ready + ctx.net.one_way(bytes));
        ctx.stats
            .charge(TimeCategory::SyncWait, now.saturating_sub(wait_from));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::on_nodes;
    use super::*;
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
