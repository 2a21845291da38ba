//! Barriers with the migrating-home write-invalidate protocol (§3.4).
//!
//! A barrier is one [`Rendezvous`] round, and a second only when the
//! first schedules diffs (the mechanism — arrival accounting up a
//! combining tree, parking, poisoning — is documented [there](super));
//! what is LOTS' own is what each round computes:
//!
//! * **Enter/plan** — every node reports its write notices (objects it
//!   wrote this interval, with its consistent view of their homes). The
//!   last arriver builds the plan: an object with a *single* writer
//!   migrates its home to that writer with **no data transfer** (the
//!   migration rides the barrier exit message); an object with multiple
//!   writers keeps its home and every non-home writer must send its
//!   diff to the home. A plan with no diff sends has nothing to drain:
//!   its builder resets the lock-service epoch there and then, since
//!   every other node is parked in this round.
//! * **Drain** — only when the plan schedules diffs (every node holds
//!   the same plan, so every node makes the same choice): after the
//!   diff sends are acknowledged, nodes rendezvous again, and the last
//!   arriver resets the lock-service epoch (all lock updates are now
//!   reflected at homes).
//!
//! On exit every node applies migrations and invalidates its copies of
//! written objects it is not home of, under the plan's sequence number.
//! A third rendezvous, with nothing to compute, is the event-only
//! `run_barrier()` of §3.6.

use std::collections::BTreeMap;
use std::sync::Arc;

use lots_net::NodeId;
use lots_sim::SimInstant;

use crate::object::{NamedAllocReq, ObjectId};
use crate::protocol::messages::ctl;

use super::locks::LockService;
use super::{merge_lifecycle, named_wire_bytes, Arrivals, Rendezvous, SyncCtx};

/// The plan the manager (last arriver) computes for one barrier.
#[derive(Debug, Default)]
pub struct BarrierPlan {
    /// Barrier sequence number (1-based).
    pub seq: u64,
    /// Diff-propagation instructions: (writer, object, home).
    pub send_diffs: Vec<(NodeId, ObjectId, NodeId)>,
    /// Every object written this interval with its (possibly migrated)
    /// new home.
    pub written: Vec<(ObjectId, NodeId)>,
    /// Objects freed this interval (union over all nodes, sorted):
    /// every node reclaims them on exit. A freed object is dropped
    /// from `written`/`send_diffs` — its updates die with it.
    pub freed: Vec<ObjectId>,
    /// Named allocations staged this interval, in deterministic commit
    /// order (see [`merge_lifecycle`]): every node commits them on
    /// exit.
    pub named: Vec<NamedAllocReq>,
}

impl BarrierPlan {
    /// The diff sends node `me` is responsible for.
    pub fn my_sends<'a>(&'a self, me: NodeId) -> impl Iterator<Item = (ObjectId, NodeId)> + 'a {
        self.send_diffs
            .iter()
            .filter(move |&&(w, _, _)| w == me)
            .map(|&(_, obj, home)| (obj, home))
    }
}

/// One write notice: object, its diff's wire size, the reporting
/// node's (cluster-consistent) view of the object's home, and whether
/// a first-touch home assignment is still pending.
pub type Notice = (ObjectId, usize, NodeId, bool);

/// What one node brings to the enter rendezvous: its write notices
/// and the interval's staged frees and named allocations.
type Entered = (Vec<Notice>, Vec<ObjectId>, Vec<NamedAllocReq>);

/// Cluster-wide barrier service.
pub struct BarrierService {
    migration: bool,
    locks: Arc<LockService>,
    enter: Rendezvous<Entered, BarrierPlan>,
    drain: Rendezvous<(), ()>,
    run: Rendezvous<(), ()>,
}

impl BarrierService {
    /// A barrier service for `n` nodes; `migration` enables the
    /// migrating-home policy (§3.4).
    pub fn new(n: usize, migration: bool, locks: Arc<LockService>) -> BarrierService {
        BarrierService {
            migration,
            locks,
            enter: Rendezvous::new(n),
            drain: Rendezvous::new(n),
            run: Rendezvous::new(n),
        }
    }

    /// Mark the cluster as dead after an app-thread panic and wake all
    /// waiters so they fail loudly instead of hanging at a rendezvous
    /// the panicked node will never reach.
    pub fn poison(&self) {
        self.enter.poison();
        self.drain.poison();
        self.run.poison();
    }

    /// Rendezvous 1: submit write notices plus this interval's staged
    /// frees and named allocations, receive the plan.
    pub fn enter(
        &self,
        ctx: &SyncCtx,
        notices: Vec<Notice>,
        frees: Vec<ObjectId>,
        named: Vec<NamedAllocReq>,
    ) -> Arc<BarrierPlan> {
        let enter_bytes = ctl::BARRIER_ENTER
            + notices.len() * ctl::WRITE_NOTICE
            + frees.len() * ctl::PLAN_ENTRY
            + named_wire_bytes(&named);
        self.enter.meet(
            ctx,
            enter_bytes,
            (notices, frees, named),
            |arrivals| self.build_plan(arrivals),
            |plan| {
                ctl::BARRIER_PLAN
                    + (plan.written.len() + plan.freed.len()) * ctl::PLAN_ENTRY
                    + named_wire_bytes(&plan.named)
            },
        )
    }

    fn build_plan(&self, mut arrivals: Arrivals<Entered>) -> (BarrierPlan, SimInstant) {
        let contributions = std::mem::take(&mut arrivals.contributions);
        let mut noticed: Vec<(NodeId, Notice)> = Vec::new();
        let (freed, named) = merge_lifecycle(contributions.into_iter().map(
            |(writer, (notices, frees, named))| {
                noticed.extend(notices.into_iter().map(|notice| (writer, notice)));
                (frees, named)
            },
        ));
        // Group notices by object. A freed object is dropped first: the
        // free wins over concurrent writes, so no diff is ever
        // scheduled (or computed, §3.4 benefit 1) for it.
        let mut by_obj: BTreeMap<ObjectId, (NodeId, bool, Vec<NodeId>)> = BTreeMap::new();
        for (writer, (obj, _size, home, pending)) in noticed {
            if freed.binary_search(&obj).is_ok() {
                continue;
            }
            let entry = by_obj.entry(obj).or_insert((home, pending, Vec::new()));
            debug_assert_eq!(
                (entry.0, entry.1),
                (home, pending),
                "inconsistent home views for {obj}"
            );
            entry.2.push(writer);
        }
        let mut send_diffs = Vec::new();
        let mut written = Vec::new();
        for (obj, (home, pending, writers)) in by_obj {
            // First-touch placement: the first write barrier assigns
            // the home — the single writer, or the lowest-ranked of
            // several (the provisional round-robin home never served,
            // since every copy was the valid zero-fill until now).
            let home = if pending {
                *writers.iter().min().expect("noticed objects have writers")
            } else {
                home
            };
            if writers.len() == 1 {
                let w = writers[0];
                if self.migration || pending {
                    // Single writer: migrate the home to it; the data
                    // is already there, zero transfer (§3.4 benefit 1).
                    written.push((obj, w));
                } else {
                    // Ablation: fixed home — the writer must push its
                    // diff home like any other.
                    if w != home {
                        send_diffs.push((w, obj, home));
                    }
                    written.push((obj, home));
                }
            } else {
                // Multiple writers: updates are gathered at the home
                // (§3.4 benefit 2: no scattering).
                for &w in &writers {
                    if w != home {
                        send_diffs.push((w, obj, home));
                    }
                }
                written.push((obj, home));
            }
        }
        if send_diffs.is_empty() {
            // Nothing to drain: every other node is parked in this
            // round, which is all the drain would guarantee.
            self.locks.reset_epoch();
        }
        let plan_time = arrivals.ready_after(written.len() + freed.len() + named.len());
        let plan = BarrierPlan {
            seq: arrivals.round,
            send_diffs,
            written,
            freed,
            named,
        };
        (plan, plan_time)
    }

    /// Rendezvous 2, only if `plan` schedules diffs: all diff sends
    /// acknowledged; wait for the cluster and reset the lock epoch (the
    /// exit time is merged into the caller's clock). Without diffs it
    /// returns at once — [`BarrierService::enter`] already reset the
    /// epoch.
    pub fn drain(&self, ctx: &SyncCtx, plan: &BarrierPlan) {
        if plan.send_diffs.is_empty() {
            return;
        }
        self.drain.meet(
            ctx,
            ctl::BARRIER_DONE,
            (),
            |arrivals| {
                // Every node is blocked here: lock logs can be reset
                // safely (all lock-era updates are now reflected at the
                // homes via the writers' interval diffs).
                self.locks.reset_epoch();
                ((), arrivals.ready_after(0))
            },
            |_| ctl::BARRIER_EXIT,
        );
    }

    /// The event-only `run_barrier()` of §3.6: synchronizes execution
    /// without any memory consistency actions.
    pub fn run_barrier(&self, ctx: &SyncCtx) {
        self.run.meet(
            ctx,
            ctl::BARRIER_ENTER,
            (),
            |arrivals| ((), arrivals.ready_after(0)),
            |_| ctl::BARRIER_EXIT,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::on_nodes;
    use super::*;
    use crate::config::{DiffMode, LockProtocol};
    use lots_sim::machine::p4_fedora;
    use lots_sim::SimDuration;

    fn service(n: usize, migration: bool) -> Arc<BarrierService> {
        let locks = Arc::new(LockService::new(
            n,
            DiffMode::PerFieldOnDemand,
            LockProtocol::HomelessWriteUpdate,
        ));
        Arc::new(BarrierService::new(n, migration, locks))
    }

    /// Run one barrier round across threads; returns each node's plan.
    fn round(
        svc: &Arc<BarrierService>,
        notices: Vec<Vec<Notice>>,
    ) -> Vec<(Arc<BarrierPlan>, SimInstant)> {
        round_lifecycle(
            svc,
            notices.into_iter().map(|n| (n, vec![], vec![])).collect(),
        )
    }

    /// Like [`round`], with per-node staged frees and named allocs.
    fn round_lifecycle(
        svc: &Arc<BarrierService>,
        inputs: Vec<(Vec<Notice>, Vec<ObjectId>, Vec<NamedAllocReq>)>,
    ) -> Vec<(Arc<BarrierPlan>, SimInstant)> {
        on_nodes(inputs.len(), |c| {
            let (notices, frees, named) = inputs[c.me].clone();
            let plan = svc.enter(c, notices, frees, named);
            svc.drain(c, &plan);
            (plan, c.clock.now())
        })
    }

    #[test]
    fn single_writer_migrates_home_without_data() {
        let svc = service(3, true);
        let results = round(
            &svc,
            vec![
                vec![(ObjectId(7), 40, 0, false)], // node 0 wrote obj7 (home 0)... home=0
                vec![],
                vec![],
            ],
        );
        let plan = &results[0].0;
        assert!(plan.send_diffs.is_empty(), "no data transfer on migration");
        assert_eq!(plan.written, vec![(ObjectId(7), 0)]);
        // Writer elsewhere migrates home to the writer.
        let results = round(
            &svc,
            vec![vec![], vec![(ObjectId(7), 40, 0, false)], vec![]],
        );
        let plan = &results[0].0;
        assert!(plan.send_diffs.is_empty());
        assert_eq!(plan.written, vec![(ObjectId(7), 1)]);
    }

    #[test]
    fn fixed_home_mode_sends_diff_home() {
        let svc = service(2, false);
        let results = round(&svc, vec![vec![], vec![(ObjectId(3), 16, 0, false)]]);
        let plan = &results[0].0;
        assert_eq!(plan.send_diffs, vec![(1, ObjectId(3), 0)]);
        assert_eq!(plan.written, vec![(ObjectId(3), 0)]);
    }

    #[test]
    fn multi_writer_keeps_home_and_gathers_diffs() {
        let svc = service(3, true);
        let results = round(
            &svc,
            vec![
                vec![(ObjectId(5), 8, 1, false)],
                vec![(ObjectId(5), 8, 1, false)],
                vec![(ObjectId(5), 8, 1, false)],
            ],
        );
        let plan = &results[0].0;
        assert_eq!(plan.written, vec![(ObjectId(5), 1)]);
        // Writers 0 and 2 send to home 1; home itself does not.
        let mut senders: Vec<NodeId> = plan.send_diffs.iter().map(|&(w, _, _)| w).collect();
        senders.sort_unstable();
        assert_eq!(senders, vec![0, 2]);
        assert!(plan.my_sends(1).next().is_none());
        assert_eq!(plan.my_sends(0).collect::<Vec<_>>(), vec![(ObjectId(5), 1)]);
    }

    #[test]
    fn freed_objects_drop_out_of_the_plan_and_union() {
        let svc = service(3, true);
        // Node 0 and node 1 both write obj 4; node 2 frees it (and obj
        // 9, which nobody wrote). Node 1 also frees obj 4 — the union
        // dedups.
        let results = round_lifecycle(
            &svc,
            vec![
                (vec![(ObjectId(4), 8, 1, false)], vec![], vec![]),
                (vec![(ObjectId(4), 8, 1, false)], vec![ObjectId(4)], vec![]),
                (vec![], vec![ObjectId(4), ObjectId(9)], vec![]),
            ],
        );
        let plan = &results[0].0;
        assert!(plan.written.is_empty(), "free wins over concurrent writes");
        assert!(plan.send_diffs.is_empty(), "no diffs for dead objects");
        assert_eq!(plan.freed, vec![ObjectId(4), ObjectId(9)]);
    }

    #[test]
    fn named_commits_order_by_node_then_stage_order() {
        let svc = service(2, true);
        let req = |name: &str| NamedAllocReq {
            name: name.into(),
            bytes: 64,
            elem_size: 4,
            len: 16,
            placement: crate::config::Placement::RoundRobin,
            placement_explicit: false,
        };
        let results = round_lifecycle(
            &svc,
            vec![
                (vec![], vec![], vec![req("n0-a"), req("n0-b")]),
                (vec![], vec![], vec![req("n1-a")]),
            ],
        );
        for (plan, _) in &results {
            let names: Vec<&str> = plan.named.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(names, vec!["n0-a", "n0-b", "n1-a"]);
        }
    }

    #[test]
    fn first_touch_pending_home_goes_to_lowest_writer() {
        // Multi-writer pending object: home = lowest-ranked writer.
        let svc = service(3, true);
        let results = round(
            &svc,
            vec![
                vec![],
                vec![(ObjectId(2), 8, 2, true)],
                vec![(ObjectId(2), 8, 2, true)],
            ],
        );
        let plan = &results[0].0;
        assert_eq!(plan.written, vec![(ObjectId(2), 1)]);
        assert_eq!(plan.send_diffs, vec![(2, ObjectId(2), 1)]);
        // Single pending writer becomes home even without migration.
        let svc = service(3, false);
        let results = round(&svc, vec![vec![], vec![], vec![(ObjectId(7), 8, 1, true)]]);
        let plan = &results[0].0;
        assert_eq!(plan.written, vec![(ObjectId(7), 2)]);
        assert!(plan.send_diffs.is_empty());
    }

    #[test]
    fn exit_time_dominated_by_slowest_node() {
        // Through both rendezvous of a barrier, not just one.
        let svc = service(2, true);
        let times: Vec<SimInstant> = on_nodes(2, |c| {
            if c.me == 1 {
                c.clock.advance(SimDuration::from_millis(30)); // slow worker
            }
            let plan = svc.enter(c, vec![], vec![], vec![]);
            svc.drain(c, &plan);
            c.clock.now()
        });
        for t in &times {
            assert!(t.nanos() >= 30_000_000, "exit before slowest entered: {t}");
        }
        assert_eq!(times[0], times[1]);
    }

    /// Every node writes object 5 (home 0): nodes 1.. must send diffs.
    fn multi_writer(n: usize) -> Vec<Vec<Notice>> {
        vec![vec![(ObjectId(5), 8, 0, false)]; n]
    }

    #[test]
    fn a_barrier_without_diffs_exits_at_the_enter_rounds_exit_time() {
        let svc = service(2, true);
        let exits = on_nodes(2, |c| {
            if c.me == 1 {
                c.clock.advance(SimDuration::from_millis(30));
            }
            let plan = svc.enter(c, vec![], vec![], vec![]);
            let entered = c.clock.now();
            // Work between the rounds shows whether a node waits for
            // the other in a second one.
            c.clock
                .advance(SimDuration::from_micros(100 * (c.me as u64 + 1)));
            svc.drain(c, &plan);
            (entered, c.clock.now())
        });
        assert_eq!(exits[0].0, exits[1].0, "one enter exit for the cluster");
        // One rendezvous: node 0 leaves the drain without waiting for
        // node 1's longer work.
        let wire = |b: usize| p4_fedora().net.one_way(b);
        let h = p4_fedora().cpu.handler_entry;
        let enter_exit =
            SimInstant(30_000_000) + wire(ctl::BARRIER_ENTER) + h * 2 + wire(ctl::BARRIER_PLAN);
        assert_eq!(exits[0].0, enter_exit);
        assert_eq!(exits[0].1, enter_exit + SimDuration::from_micros(100));
        assert_eq!(exits[1].1, enter_exit + SimDuration::from_micros(200));
    }

    #[test]
    fn a_multi_writer_barrier_still_drains_before_it_finishes() {
        let svc = service(2, true);
        let notices = multi_writer(2);
        let exits = on_nodes(2, |c| {
            let plan = svc.enter(c, notices[c.me].clone(), vec![], vec![]);
            assert_eq!(plan.send_diffs, vec![(1, ObjectId(5), 0)]);
            let entered = c.clock.now();
            // Node 1 pushes its diff home before it drains.
            if c.me == 1 {
                c.clock.advance(SimDuration::from_millis(5));
            }
            svc.drain(c, &plan);
            (entered, c.clock.now())
        });
        assert_eq!(exits[0].1, exits[1].1, "one drain exit for the cluster");
        assert!(
            exits[0].1 > exits[1].0 + SimDuration::from_millis(5),
            "the home waits for the sender's drain: {exits:?}"
        );
    }

    #[test]
    fn a_barrier_without_diffs_still_resets_the_lock_epoch() {
        let svc = service(2, true);
        let fresh_grant_bytes = on_nodes(2, |c| {
            if c.me == 0 {
                svc.locks.acquire(1, c);
                svc.locks.release(1, c, |_| {
                    vec![(ObjectId(0), crate::diff::WordDiff::from_words(&[(0, 1)]))]
                });
            }
            let plan = svc.enter(c, vec![], vec![], vec![]);
            assert!(plan.send_diffs.is_empty());
            svc.drain(c, &plan);
            // Node 1 has seen nothing of lock 1: before the epoch
            // reset its grant would carry node 0's word.
            (c.me == 1).then(|| {
                let bytes = svc.locks.acquire(1, c).payload_bytes;
                svc.locks.release(1, c, |_| vec![]);
                bytes
            })
        });
        assert_eq!(fresh_grant_bytes, vec![None, Some(0)]);
    }

    #[test]
    fn seqs_count_barriers_whether_or_not_they_drain() {
        let svc = service(2, true);
        let notices = multi_writer(2);
        let seqs = on_nodes(2, |c| {
            (1..=4u64)
                .map(|b| {
                    let mine = if b % 2 == 1 {
                        notices[c.me].clone()
                    } else {
                        vec![]
                    };
                    let plan = svc.enter(c, mine, vec![], vec![]);
                    assert_eq!(plan.send_diffs.is_empty(), b % 2 == 0);
                    svc.drain(c, &plan);
                    plan.seq
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(seqs, vec![vec![1, 2, 3, 4]; 2]);
    }

    #[test]
    fn barrier_reusable_across_rounds_with_increasing_seq() {
        let svc = service(2, true);
        for expected_seq in 1..=3u64 {
            let seqs = on_nodes(2, |c| {
                let plan = svc.enter(c, vec![], vec![], vec![]);
                svc.drain(c, &plan);
                plan.seq
            });
            assert_eq!(seqs, vec![expected_seq; 2]);
        }
    }

    #[test]
    fn run_barrier_synchronizes_clocks_only() {
        let svc = service(3, true);
        let times = on_nodes(3, |c| {
            c.clock.advance(SimDuration::from_micros(c.me as u64 * 500));
            svc.run_barrier(c);
            c.clock.now()
        });
        assert_eq!(times[0], times[1]);
        assert_eq!(times[1], times[2]);
        assert!(times[0].nanos() >= 1_000_000);
    }

    #[test]
    fn poison_reaches_a_waiter_parked_in_each_of_the_three_rendezvous() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        type Entry = fn(&BarrierService, &SyncCtx);
        let entries: [Entry; 3] = [
            |svc, c| {
                svc.enter(c, vec![], vec![], vec![]);
            },
            |svc, c| {
                // A plan with a diff to drain: the drain rendezvous runs.
                let plan = BarrierPlan {
                    send_diffs: vec![(1, ObjectId(1), 0)],
                    ..BarrierPlan::default()
                };
                svc.drain(c, &plan);
            },
            |svc, c| svc.run_barrier(c),
        ];
        for parked_in in entries {
            let svc = service(2, true);
            on_nodes(2, |c| {
                if c.me == 1 {
                    // Let node 0 park first, then kill the cluster.
                    c.clock.advance(SimDuration::from_millis(1));
                    c.sched.yield_until(c.clock.now());
                    svc.poison();
                }
                // Node 0 is woken out of `parked_in`; afterwards every
                // entry point refuses every caller.
                let tries: &[Entry] = if c.me == 0 { &[parked_in] } else { &entries };
                for entry in tries {
                    let err = catch_unwind(AssertUnwindSafe(|| entry(&svc, c)))
                        .expect_err("a poisoned barrier never completes");
                    let msg = err.downcast_ref::<&str>().expect("a literal message");
                    assert!(msg.contains("barrier poisoned: a peer app thread panicked"));
                }
            });
        }
    }
}
