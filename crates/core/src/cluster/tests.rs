//! The driver's own contract, exercised once through a toy
//! protocol — an echo fetch, no coherence — instead of once per
//! runtime.

use super::*;
use crate::config::{DiffMode, LockProtocol};
use crate::consistency::barrier::BarrierService;
use crate::consistency::locks::LockService;
use bytes::Bytes;
use lots_sim::machine::p4_fedora;

/// The unit whose service makes the serving comm task panic.
const BOOM: u32 = u32::MAX;

/// Echo protocol: a node serves a unit's copy with the unit's number
/// as its version, and its state is the log of units it served; the
/// only rendezvous is an event-only barrier.
struct Toy {
    barrier: Arc<BarrierService>,
    persist: Option<PersistConfig>,
}

struct ToyDsm {
    seat: Seat<Toy>,
    barrier: Arc<BarrierService>,
}

impl ToyDsm {
    fn me(&self) -> NodeId {
        self.seat.ctx.me
    }

    /// Request `unit` from `dst` without waiting for the reply.
    fn send(&self, dst: NodeId, unit: u32) {
        let now = self.seat.ctx.clock.now();
        self.seat
            .net
            .send(dst, Msg::Req { unit }, Bytes::new(), now);
    }

    /// Fetch every `(unit, server)` of `targets` in one round: the
    /// echoed units, in reply order.
    fn fetch(&self, targets: &[(u32, NodeId)]) -> Vec<u32> {
        let mut echoed = Vec::new();
        let install = |_: &mut Vec<u32>, _, _, version| {
            echoed.push(version as u32);
            Ok(())
        };
        self.seat
            .fetch(targets, install)
            .expect("the toy installs anything");
        echoed
    }

    fn ping(&self, dst: NodeId, x: u32) -> u32 {
        self.fetch(&[(x, dst)])[0]
    }

    fn rendezvous(&self) {
        self.barrier.run_barrier(&self.seat.ctx);
    }
}

/// Nothing to journal and no disk to book it on.
impl Journaled for Vec<u32> {
    type Written = ();
    type Error = std::convert::Infallible;

    fn persist_units(&self) -> Vec<(ObjMeta, Option<u64>)> {
        Vec::new()
    }

    fn persist_names(&self) -> Vec<NamedMeta> {
        Vec::new()
    }

    fn persist_written_content(&self, _: &[()]) -> Result<Vec<(u32, Vec<u8>)>, Self::Error> {
        Ok(Vec::new())
    }

    fn persist_disk(&mut self) -> Option<&mut DiskQueue> {
        None
    }
}

impl Protocol for Toy {
    type Node = Vec<u32>;
    type Dsm = ToyDsm;
    type NodeReport = (NodeSummary, Vec<u32>);

    const NAME: &'static str = "toy";
    const REPLY_WAIT: BlockReason = BlockReason::Reply;

    fn persist(&self) -> Option<&PersistConfig> {
        self.persist.as_ref()
    }

    fn new_node(&self, _: NodeId, _: CpuModel, _: SimClock, _: NodeStats) -> Vec<u32> {
        Vec::new()
    }

    fn new_dsm(&self, seat: Seat<Toy>) -> ToyDsm {
        ToyDsm {
            seat,
            barrier: Arc::clone(&self.barrier),
        }
    }

    fn serve_copy(node: &mut Vec<u32>, unit: u32) -> Result<Served, DsmError> {
        if unit == BOOM {
            panic!("comm exploded");
        }
        node.push(unit);
        Ok(Served {
            bytes: Bytes::new(),
            version: unit.into(),
            hold_nic: false,
        })
    }

    fn apply_diff(_: &mut Vec<u32>, _: u32, _: &WordDiff, _: Option<u64>) -> Result<(), DsmError> {
        Ok(())
    }

    fn poison(&self) {
        self.barrier.poison();
    }

    fn node_report(summary: NodeSummary, node: &Vec<u32>) -> Self::NodeReport {
        (summary, node.clone())
    }
}

fn toy(n: usize) -> Toy {
    let locks = Arc::new(LockService::new(
        n,
        DiffMode::PerFieldOnDemand,
        LockProtocol::HomelessWriteUpdate,
    ));
    Toy {
        barrier: Arc::new(BarrierService::new(n, true, locks)),
        persist: None,
    }
}

fn spec(n: usize) -> ClusterSpec {
    ClusterSpec::new(n, p4_fedora())
}

/// Every node pings its right neighbour, then all rendezvous.
fn ring(dsm: &ToyDsm) -> u32 {
    let n = dsm.seat.n;
    let echoed = dsm.ping((dsm.me() + 1) % n, 100 + dsm.me() as u32);
    dsm.rendezvous();
    echoed
}

#[test]
fn teardown_ends_comm_and_compaction_daemons_with_and_without_persistence() {
    // `run` returning at all means every app thread was joined
    // (they are scoped threads) — and with the daemons' turns
    // running on those threads, that every daemon answered `Done`.
    let counters = [None, Some(PersistConfig::every(1))].map(|persist| {
        let (results, report) = run(spec(3), Toy { persist, ..toy(3) }, ring);
        assert_eq!(results, vec![100, 101, 102]);
        for (me, (summary, served)) in report.nodes.iter().enumerate() {
            assert_eq!(*served, vec![100 + ((me + 2) % 3) as u32]);
            assert_eq!(summary.stats.compaction_runs(), 0, "nothing to compact");
        }
        let sched = report.sched.expect("always reported");
        (report.exec_time, sched.wakes)
    });
    // The compaction daemons cost the run nothing but their own
    // release at teardown: one engine wake each.
    let [(plain_time, plain_wakes), (journaled_time, journaled_wakes)] = counters;
    assert_eq!(plain_time, journaled_time);
    assert_eq!(journaled_wakes, plain_wakes + 3);
}

#[test]
#[should_panic(expected = "node 2 exploded")]
fn the_original_app_panic_surfaces_not_a_poisoned_waiter() {
    // Nodes 0 and 1 — earlier in task order — die with the
    // "poisoned" panic node 2's death induces; node 2's own panic
    // is the one that must come out.
    let _ = run(spec(3), toy(3), |dsm| {
        if dsm.me() == 2 {
            panic!("node 2 exploded");
        }
        dsm.rendezvous();
    });
}

#[test]
#[should_panic(expected = "comm exploded")]
fn a_comm_panic_poisons_before_its_task_retires() {
    // Both apps wait at the rendezvous when node 1's comm task
    // dies. Retiring it first would let the deadlock detector fire
    // on the blocked apps and replace this panic with its own.
    let _ = run(spec(2), toy(2), |dsm| {
        if dsm.me() == 0 {
            dsm.send(1, BOOM);
        }
        dsm.rendezvous();
    });
}

#[test]
fn a_comm_panic_surfaces_over_the_deadlock_of_a_reply_waiter() {
    // Node 0 pings node 1 after a `BOOM` killed a comm task: node 1's,
    // which would serve the ping, or node 0's own, which would hand it
    // the reply. Either way node 0 parks for a reply that cannot come
    // and the deadlock detector fires on it — earlier in task order
    // than the handler's payload, which is what `run` must re-raise.
    for victim in [1, 0] {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run(spec(2), toy(2), |dsm| {
                if dsm.me() != victim {
                    dsm.send(victim, BOOM);
                }
                if dsm.me() == 0 {
                    dsm.ping(1, 7);
                }
            })
        }));
        let payload = outcome.map(drop).expect_err("run re-raises");
        let msg = panic_text(payload.as_ref());
        assert_eq!(msg, Some("comm exploded"), "victim {victim}");
    }
}

#[test]
fn a_comm_panic_does_not_unwind_the_app_thread_driving_it() {
    // The same fault, watched from inside. The apps rendezvous
    // until something stops them, so no app thread is ever in
    // `finish`: the comm turn that panics is driven by one of them
    // from inside a rendezvous `block`. No app may see the
    // handler's payload — each dies of the poison the turn left
    // behind — and `run` re-raises the handler's own.
    let seen = Mutex::new(Vec::new());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run(spec(2), toy(2), |dsm| {
            if dsm.me() == 0 {
                dsm.send(1, BOOM);
            }
            let died = catch_unwind(AssertUnwindSafe(|| loop {
                dsm.rendezvous();
            }))
            .expect_err("only a panic ends the loop");
            let msg = panic_text(died.as_ref()).unwrap_or_default();
            seen.lock().push(msg.to_string());
            resume_unwind(died)
        })
    }));
    let payload = outcome.map(drop).expect_err("run re-raises");
    assert_eq!(panic_text(payload.as_ref()), Some("comm exploded"));
    let seen = seen.into_inner();
    assert_eq!(seen.len(), 2);
    for msg in seen {
        assert!(msg.contains("peer app thread panicked"), "got: {msg}");
    }
}

#[test]
fn only_application_tasks_own_threads() {
    // p = 64 with persistence on: 64 app tasks, 64 comm handlers,
    // 64 compaction daemons — and 64 host threads.
    let persist = Some(PersistConfig::every(1));
    let (results, report) = run(spec(64), Toy { persist, ..toy(64) }, ring);
    assert_eq!(results.len(), 64);
    assert_eq!(report.sched.expect("always reported").threads, 64);
}

#[test]
fn messages_at_or_beyond_the_horizon_wait_for_a_later_turn() {
    // An observer app (node 0) and node 1's comm task start in one
    // batch with horizon 0 + L. Two pings are already queued for
    // the comm task: one arriving inside the window, one far
    // beyond it. The comm task's first turn must serve only the
    // first; the observer checks that from a later, solo turn,
    // after which the comm task serves the second.
    const L: SimDuration = SimDuration(1_000_000);
    let late = SimInstant(5 * L.0);
    let sched = Scheduler::new(SchedulerMode::default(), L);
    let observer = sched.register("observer", SimClock::new(), 0, false);
    let comm_clock = SimClock::new();
    let comm = sched.register("comm", comm_clock.clone(), 1, true);
    let mut endpoints = cluster_net::<Msg>(2, p4_fedora().net, None, None)
        .endpoints
        .into_iter();
    let (tx0, _rx0) = endpoints.next().expect("node 0");
    let (tx1, rx1) = endpoints.next().expect("node 1");
    assert!(
        tx0.send(1, Msg::Req { unit: 1 }, Bytes::new(), SimInstant::ZERO)
            .arrival
            < SimInstant(L.0)
    );
    assert!(
        tx0.send(1, Msg::Req { unit: 2 }, Bytes::new(), late)
            .arrival
            > late
    );
    let served = Arc::new(Mutex::new(Vec::new()));
    let mut handler = Comm::<Toy> {
        app: observer.clone(),
        node: Arc::clone(&served),
        clock: comm_clock,
        stats: NodeStats::new(),
        cpu: p4_fedora().cpu,
        net: tx1,
        rx: rx1,
        replies: Default::default(),
    };
    comm.set_turn(move |me| handler.turn(me));
    let observe = |me: &SchedHandle| {
        me.yield_until(SimInstant(2 * L.0));
        assert_eq!(
            *served.lock(),
            vec![1],
            "ping 2 is beyond the first horizon"
        );
    };
    for outcome in run_tasks(&sched, vec![(observer, observe)]) {
        outcome.expect("task panicked");
    }
    assert_eq!(*served.lock(), vec![1, 2]);
}

#[test]
fn a_fetch_sends_every_request_at_once_and_ends_at_the_last_reply() {
    // Node 0 fetches one unit from node 1, then three units from three
    // distinct servers. The three requests leave at one instant and
    // their round trips overlap: the round costs about one round trip,
    // never the sum of three.
    let (results, report) = run(spec(4), toy(4), |dsm| {
        if dsm.me() != 0 {
            return None;
        }
        let clock = &dsm.seat.ctx.clock;
        let t0 = clock.now();
        assert_eq!(dsm.fetch(&[(7, 1)]), [7]);
        let (t1, one) = (clock.now(), clock.now().saturating_sub(t0));
        let mut echoed = dsm.fetch(&[(10, 1), (11, 2), (12, 3)]);
        echoed.sort_unstable();
        assert_eq!(echoed, [10, 11, 12]);
        Some((one, clock.now().saturating_sub(t1)))
    });
    let (one, three) = results[0].expect("node 0 measured");
    assert!(one > SimDuration::ZERO);
    assert!(
        three >= one && three < one + one,
        "one round trip takes {one}, three overlapping ones {three}"
    );
    for (me, served) in [(1, vec![7, 10]), (2, vec![11]), (3, vec![12])] {
        assert_eq!(report.nodes[me].1, served, "node {me}");
    }
}
