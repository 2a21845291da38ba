//! Endpoints: the per-node handle on the simulated interconnect.
//!
//! Every node has one mailbox: the messages addressed to it, whole and
//! in virtual-arrival order, shared by every sender. An endpoint is
//! split into a shareable [`NetSender`] (the app task and the comm
//! handler both send) and a [`NetReceiver`] that drains the node's own
//! mailbox (only the comm handler — the paper's SIGIO handler —
//! receives). Sending enqueues at once and wakes the destination's comm
//! task with the virtual arrival time; nothing ever waits on a mailbox
//! in host time. The per-link [`LinkClock`]s price a large payload's
//! fragments (count, per-fragment headers, flow-control stalls) into
//! its arrival and wire bytes, and the message travels as one
//! [`Envelope`]. Every link runs on the one [`NetModel`] of the
//! machine. Under a [`FaultPlan`] every fault is decided once per
//! message at send time: the reliable layer's fixed retransmission is
//! folded into the arrival, a message that exhausts the retry budget
//! is recorded in the [`DropLog`] instead of being enqueued, and a
//! duplicated message is enqueued twice under one key.

use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use lots_sim::{Delivery, FaultPlan, NetModel, SchedHandle, SimDuration, SimInstant};
use parking_lot::Mutex;

use crate::droplog::DropLog;
use crate::flow::{LinkClock, Transmission};
use crate::message::{Buffered, Envelope, NodeId, WireSize};
use crate::stats::TrafficStats;

/// Every node's mailbox, indexed by destination: a heap that pops the
/// earliest `(arrival, src, seq)` first.
type Mailboxes<M> = Arc<Vec<Mutex<BinaryHeap<Buffered<M>>>>>;

/// Sending half; cheap to clone and share between the tasks of one
/// node.
pub struct NetSender<M> {
    id: NodeId,
    model: NetModel,
    mailboxes: Mailboxes<M>,
    links: Arc<Vec<LinkClock>>,
    seq: Arc<AtomicU64>,
    stats: TrafficStats,
    /// The comm task of each node, woken (with the message's virtual
    /// arrival time) whenever something is sent to it. `None` only for
    /// endpoints built outside a cluster run ([`cluster`]).
    wakers: Option<Arc<Vec<SchedHandle>>>,
    /// Seeded per-message loss/delay/dup/reorder injection.
    faults: Option<Arc<FaultPlan>>,
    /// Messages whose every transmission attempt was lost.
    drops: DropLog,
}

impl<M> Clone for NetSender<M> {
    fn clone(&self) -> Self {
        NetSender {
            id: self.id,
            model: self.model,
            mailboxes: Arc::clone(&self.mailboxes),
            links: Arc::clone(&self.links),
            seq: Arc::clone(&self.seq),
            stats: self.stats.clone(),
            wakers: self.wakers.clone(),
            faults: self.faults.clone(),
            drops: self.drops.clone(),
        }
    }
}

impl<M: WireSize + Clone + Send + 'static> NetSender<M> {
    /// Transmit `msg` + `payload` to `dst`, offered at sender virtual
    /// time `now`. Returns the modeled transmission timing; the caller
    /// decides which parts of it to charge to its clock.
    ///
    /// Under a lossy fault plan the reliable layer is folded in
    /// analytically: the returned `arrival` already includes every
    /// retransmission timeout the seeded loss/partition decisions cost
    /// this message, and a message whose retry budget is exhausted
    /// enqueues nothing at all (the drop is recorded for the deadlock
    /// snapshot). Faults only ever *add* delay, so the conservative
    /// lookahead bound — arrival ≥ send + link latency — holds
    /// under every plan.
    pub fn send(&self, dst: NodeId, msg: M, payload: Bytes, now: SimInstant) -> Transmission {
        assert_ne!(dst, self.id, "node {} sending to itself", self.id);
        let body = msg.wire_size() + payload.len();
        let mut tx = self.links[dst].transmit(&self.model, now, body);
        self.stats.record_send(tx.wire_bytes, tx.fragments);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut duplicate = false;
        if let Some(f) = &self.faults {
            // Injected in-flight jitter and reordering hold-back:
            // stretch the arrival only (the sender's link occupancy is
            // unaffected).
            tx.arrival += f.delay_for(self.id, dst, seq);
            let window = SimDuration(4 * self.model.latency.0 + 4 * self.model.per_fragment.0);
            tx.arrival += f.reorder_delay_for(self.id, dst, seq, window);
            let flight = tx.arrival.saturating_sub(tx.depart);
            match f.delivery(self.id, dst, seq, tx.depart, flight) {
                Delivery::Deliver {
                    arrival,
                    retransmits,
                } => {
                    if retransmits > 0 {
                        self.stats.record_retransmits(retransmits);
                    }
                    tx.arrival = arrival;
                }
                Delivery::Dropped { .. } => {
                    self.stats.record_drop();
                    self.drops.record(self.id, dst, seq);
                    return tx;
                }
            }
            duplicate = f.duplicates(self.id, dst, seq);
        }
        let env = Buffered::new(Envelope {
            src: self.id,
            msg,
            payload,
            sent_at: now,
            arrival: tx.arrival,
            wire_bytes: tx.wire_bytes,
            fragments: tx.fragments,
            seq,
        });
        let mut mailbox = self.mailboxes[dst].lock();
        if duplicate {
            // A second copy in flight: same key, so it pops right
            // behind the original and the receiver drops it.
            self.stats.record_dup_sent();
            mailbox.push(env.clone());
        }
        mailbox.push(env);
        drop(mailbox);
        if let Some(w) = &self.wakers {
            w[dst].wake_at(tx.arrival);
        }
        tx
    }

    /// Traffic counters for this node.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }
}

/// Receiving half: drains the node's own mailbox, on exactly one task
/// (the comm handler).
pub struct NetReceiver<M> {
    id: NodeId,
    mailboxes: Mailboxes<M>,
    stats: TrafficStats,
    /// Key of the last message popped. A duplicate shares its
    /// original's key and pops right behind it, so this one key is the
    /// whole dedupe filter.
    last: Option<(u64, NodeId, u64)>,
}

impl<M> NetReceiver<M> {
    /// The earliest message arriving strictly before `horizon`, if any.
    pub fn pop_before(&mut self, horizon: SimInstant) -> Option<Envelope<M>> {
        self.pop(Some(horizon))
    }

    /// The earliest message in the mailbox, if any.
    pub fn try_recv(&mut self) -> Option<Envelope<M>> {
        self.pop(None)
    }

    /// Arrival of the earliest message in the mailbox, if any.
    pub fn next_arrival(&self) -> Option<SimInstant> {
        let mailbox = self.mailboxes[self.id].lock();
        mailbox.peek().map(|b| SimInstant(b.arrival_ns()))
    }

    fn pop(&mut self, horizon: Option<SimInstant>) -> Option<Envelope<M>> {
        let mut mailbox = self.mailboxes[self.id].lock();
        loop {
            let next = mailbox
                .peek_mut()
                .filter(|b| horizon.is_none_or(|h| b.arrival_ns() < h.nanos()))?;
            let b = PeekMut::pop(next);
            if self.last == Some(b.key) {
                self.stats.record_dup_filtered();
                continue;
            }
            self.last = Some(b.key);
            let env = b.into_env();
            self.stats.record_recv(env.wire_bytes);
            return Some(env);
        }
    }
}

/// Build the two halves of one node's endpoint.
fn endpoint_pair<M>(
    id: NodeId,
    model: NetModel,
    mailboxes: Mailboxes<M>,
    wakers: Option<Arc<Vec<SchedHandle>>>,
    faults: Option<Arc<FaultPlan>>,
    drops: DropLog,
) -> (NetSender<M>, NetReceiver<M>) {
    let stats = TrafficStats::new();
    let links = Arc::new((0..mailboxes.len()).map(|_| LinkClock::new()).collect());
    (
        NetSender {
            id,
            model,
            mailboxes: Arc::clone(&mailboxes),
            links,
            seq: Arc::new(AtomicU64::new(0)),
            stats: stats.clone(),
            wakers,
            faults,
            drops,
        },
        NetReceiver {
            id,
            mailboxes,
            stats,
            last: None,
        },
    )
}

/// A fully built cluster interconnect: the per-node endpoints plus the
/// shared log of irrecoverably dropped messages (for the deadlock
/// detector's diagnostics).
pub struct ClusterNet<M> {
    pub endpoints: Vec<(NetSender<M>, NetReceiver<M>)>,
    pub drops: DropLog,
}

/// Build a fully connected cluster of `n` bare endpoints: no faults,
/// no scheduler tasks to wake.
pub fn cluster<M: WireSize + Clone + Send + 'static>(
    n: usize,
    model: NetModel,
) -> Vec<(NetSender<M>, NetReceiver<M>)> {
    cluster_net(n, model, None, None).endpoints
}

/// The full-feature cluster constructor. `wakers` holds the scheduler
/// task of each node's receiver (its comm task), woken with the
/// virtual arrival time on every send addressed to it; `faults`
/// injects seeded per-message delays/loss/duplication/reordering.
/// Every link runs on `model`. Returns the drop log alongside the
/// endpoints.
pub fn cluster_net<M: WireSize + Clone + Send + 'static>(
    n: usize,
    model: NetModel,
    wakers: Option<Vec<SchedHandle>>,
    faults: Option<Arc<FaultPlan>>,
) -> ClusterNet<M> {
    assert!(n >= 1, "cluster needs at least one node");
    if let Some(w) = &wakers {
        assert_eq!(w.len(), n, "one waker per node");
    }
    let wakers = wakers.map(Arc::new);
    let drops = DropLog::new();
    let mailboxes = Arc::new((0..n).map(|_| Mutex::new(BinaryHeap::new())).collect());
    let endpoints = (0..n)
        .map(|id| {
            endpoint_pair(
                id,
                model,
                Arc::clone(&mailboxes),
                wakers.clone(),
                faults.clone(),
                drops.clone(),
            )
        })
        .collect();
    ClusterNet { endpoints, drops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lots_sim::SimDuration;

    #[derive(Debug, Clone, PartialEq)]
    struct TestMsg(u32);

    impl WireSize for TestMsg {
        fn wire_size(&self) -> usize {
            8
        }
    }

    fn model() -> NetModel {
        NetModel {
            latency: SimDuration::from_micros(100),
            bandwidth_bps: 10_000_000,
            per_fragment: SimDuration::from_micros(10),
            max_datagram: 4096,
            window_frags: 8,
        }
    }

    #[test]
    fn small_message_roundtrip() {
        let mut eps = cluster::<TestMsg>(2, model());
        let (tx1, _) = eps.remove(1);
        let (_, mut rx0) = {
            let (s, r) = eps.remove(0);
            (s, r)
        };
        let t = tx1.send(0, TestMsg(42), Bytes::from_static(b"hello"), SimInstant(0));
        assert_eq!(t.fragments, 1);
        let env = rx0.try_recv().expect("a sent message is in the mailbox");
        assert_eq!(env.src, 1);
        assert_eq!(env.msg, TestMsg(42));
        assert_eq!(&env.payload[..], b"hello");
        assert_eq!(env.arrival, t.arrival);
    }

    #[test]
    fn large_message_fragments_and_reassembles() {
        let mut eps = cluster::<TestMsg>(2, model());
        let (tx1, _) = eps.remove(1);
        let (_, mut rx0) = eps.remove(0);
        let payload: Bytes = (0..20_000u32)
            .map(|i| (i % 256) as u8)
            .collect::<Vec<_>>()
            .into();
        let t = tx1.send(0, TestMsg(7), payload.clone(), SimInstant(0));
        assert!(t.fragments >= 5, "fragments={}", t.fragments);
        let env = rx0.try_recv().expect("the message is in the mailbox");
        assert_eq!(env.fragments, t.fragments);
        assert_eq!(env.payload, payload);
        assert_eq!(env.payload.as_ptr(), payload.as_ptr(), "the sent buffer");
        assert!(rx0.try_recv().is_none());
    }

    /// A message is received as the wire bytes it was sent as, whatever
    /// its fragment count.
    #[test]
    fn received_wire_bytes_equal_sent_wire_bytes() {
        let mut eps = cluster::<TestMsg>(2, lots_sim::machine::p4_fedora().net);
        let (tx1, _) = eps.remove(1);
        let (_, mut rx0) = eps.remove(0);
        for len in [100, 65_530, 65_536, 100_001, 512 << 10, 4 << 20] {
            let t = tx1.send(0, TestMsg(1), Bytes::from(vec![0u8; len]), SimInstant(0));
            let env = rx0.try_recv().expect("the message is in the mailbox");
            assert_eq!(env.wire_bytes, t.wire_bytes, "{len} B payload");
            assert_eq!(env.fragments, t.fragments, "{len} B payload");
            assert_eq!(rx0.stats.bytes_received(), tx1.stats().bytes_sent());
        }
    }

    /// Whatever order the senders push in, the mailbox yields
    /// `(arrival, src, seq)` order, and each duplicated message once.
    #[test]
    fn mailbox_yields_virtual_order_and_each_message_once() {
        use lots_sim::FaultPlan;
        let plan = FaultPlan {
            seed: 3,
            dup_permille: 500,
            ..FaultPlan::default()
        };
        let net = cluster_net::<TestMsg>(3, model(), None, Some(Arc::new(plan)));
        let mut eps = net.endpoints;
        let (tx2, _) = eps.remove(2);
        let (tx1, _) = eps.remove(1);
        let (_, mut rx0) = eps.remove(0);
        let mut sent = Vec::new();
        // Node 1 sends late traffic first, node 2 early traffic after it.
        for k in 0..20u64 {
            for (tx, at) in [(&tx1, 1_000_000 - 40_000 * k), (&tx2, 500_000 - 20_000 * k)] {
                let t = tx.send(
                    0,
                    TestMsg(k as u32),
                    Bytes::from(vec![0u8; 64]),
                    SimInstant(at),
                );
                sent.push(t.arrival);
            }
        }
        assert!(sent.windows(2).any(|w| w[1] < w[0]), "pushed out of order");
        let got: Vec<_> = std::iter::from_fn(|| rx0.try_recv())
            .map(|env| (env.arrival, env.src, env.seq))
            .collect();
        assert_eq!(got.len(), sent.len(), "each message arrives once");
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "virtual order: {got:?}"
        );
        let dups = tx1.stats().dups_sent() + tx2.stats().dups_sent();
        assert!(dups > 0, "50% dup rate over 40 msgs");
        assert_eq!(rx0.stats.dups_filtered(), dups);
    }

    #[test]
    fn messages_from_same_sender_keep_order_and_serialize() {
        let mut eps = cluster::<TestMsg>(2, model());
        let (tx1, _) = eps.remove(1);
        let (_, mut rx0) = eps.remove(0);
        let t1 = tx1.send(0, TestMsg(1), Bytes::from(vec![0u8; 8000]), SimInstant(0));
        let t2 = tx1.send(0, TestMsg(2), Bytes::from(vec![1u8; 100]), SimInstant(0));
        // Link serialization: second departs after first finishes.
        assert!(t2.arrival > t1.arrival);
        let a = rx0.try_recv().expect("first message");
        let b = rx0.try_recv().expect("second message");
        assert_eq!(a.msg, TestMsg(1));
        assert_eq!(b.msg, TestMsg(2));
    }

    #[test]
    fn an_empty_mailbox_yields_none() {
        let mut eps = cluster::<TestMsg>(2, model());
        let (_, mut rx0) = eps.remove(0);
        assert!(rx0.try_recv().is_none());
    }

    #[test]
    fn fault_delays_stretch_arrival_only() {
        use lots_sim::{FaultPlan, SimDuration};
        let max = SimDuration::from_millis(5);
        let plain = cluster::<TestMsg>(2, model());
        let faulty =
            cluster_net::<TestMsg>(2, model(), None, Some(Arc::new(FaultPlan::delays(7, max))))
                .endpoints;
        let send = |eps: &[(NetSender<TestMsg>, NetReceiver<TestMsg>)]| {
            eps[1]
                .0
                .send(0, TestMsg(1), Bytes::from_static(b"x"), SimInstant(0))
        };
        let a = send(&plain);
        let b = send(&faulty);
        assert_eq!(a.sender_free, b.sender_free, "link occupancy unchanged");
        assert!(b.arrival >= a.arrival);
        assert!(b.arrival.saturating_sub(a.arrival) <= max);
    }

    #[test]
    fn stats_count_both_directions() {
        let mut eps = cluster::<TestMsg>(3, model());
        let (tx2, _) = eps.remove(2);
        let (_, mut rx0) = eps.remove(0);
        tx2.send(0, TestMsg(9), Bytes::from(vec![0u8; 1000]), SimInstant(0));
        assert_eq!(tx2.stats().msgs_sent(), 1);
        assert!(tx2.stats().bytes_sent() >= 1000);
        assert!(rx0.try_recv().is_some());
    }

    #[test]
    fn loss_with_retransmission_delays_but_delivers_everything() {
        use lots_sim::FaultPlan;
        let plan = FaultPlan {
            seed: 5,
            loss_permille: 400,
            ..FaultPlan::default()
        };
        let net = cluster_net::<TestMsg>(2, model(), None, Some(Arc::new(plan)));
        let mut eps = net.endpoints;
        let (tx1, _) = eps.remove(1);
        let (_, mut rx0) = eps.remove(0);
        for k in 0..50u32 {
            tx1.send(
                0,
                TestMsg(k),
                Bytes::from(vec![k as u8; 100]),
                SimInstant(0),
            );
        }
        let got = std::iter::from_fn(|| rx0.try_recv()).count();
        assert_eq!(got, 50, "retransmission must deliver every message");
        assert!(tx1.stats().msgs_retransmitted() > 0, "40% loss, 50 msgs");
        assert_eq!(tx1.stats().msgs_dropped(), 0);
        assert!(net.drops.is_empty());
    }

    /// A message past the retry budget is dropped, counted and logged.
    /// (The name predates the fixed retry budget.)
    #[test]
    fn loss_without_retransmission_drops_and_logs() {
        use lots_sim::{FaultPlan, Partition};
        // Node 0 is cut off for good: every attempt of every message to
        // it is lost, so the retry budget runs out on each.
        let plan = FaultPlan {
            partitions: vec![Partition {
                start: SimInstant(0),
                end: SimInstant(u64::MAX),
                islanders: vec![0],
            }],
            ..FaultPlan::default()
        };
        let net = cluster_net::<TestMsg>(3, model(), None, Some(Arc::new(plan)));
        let mut eps = net.endpoints;
        let (_, mut rx2) = eps.remove(2);
        let (tx1, _) = eps.remove(1);
        let (_, mut rx0) = eps.remove(0);
        for k in 0..5u32 {
            tx1.send(0, TestMsg(k), Bytes::from_static(b"y"), SimInstant(0));
        }
        // A link within the majority side is untouched.
        tx1.send(2, TestMsg(9), Bytes::from_static(b"y"), SimInstant(0));
        assert!(rx0.try_recv().is_none(), "nothing crosses the cut");
        assert_eq!(rx2.try_recv().map(|env| env.msg), Some(TestMsg(9)));
        assert_eq!(tx1.stats().msgs_dropped(), 5);
        assert_eq!(net.drops.len(), 5);
        let rendered = net.drops.render();
        for (src, dst, seq) in net.drops.entries() {
            assert_eq!((src, dst), (1, 0));
            assert!(rendered.contains(&format!("node {src} -> node {dst} seq {seq}")));
        }
    }

    #[test]
    fn duplicates_are_injected_and_filtered() {
        use lots_sim::FaultPlan;
        let plan = FaultPlan {
            seed: 2,
            dup_permille: 900,
            ..FaultPlan::default()
        };
        let net = cluster_net::<TestMsg>(2, model(), None, Some(Arc::new(plan)));
        let mut eps = net.endpoints;
        let (tx1, _) = eps.remove(1);
        let (_, mut rx0) = eps.remove(0);
        // Single- and multi-fragment messages alike are duplicated whole.
        for k in 0..20u32 {
            let len = if k % 2 == 0 { 64 } else { 9000 };
            tx1.send(
                0,
                TestMsg(k),
                Bytes::from(vec![k as u8; len]),
                SimInstant(0),
            );
        }
        let mut got = 0;
        while let Some(env) = rx0.try_recv() {
            assert_eq!(env.payload[0], env.msg.0 as u8);
            got += 1;
        }
        assert_eq!(got, 20, "each message delivered exactly once");
        assert!(tx1.stats().dups_sent() > 0, "90% dup rate over 20 msgs");
        assert_eq!(rx0.stats.dups_filtered(), tx1.stats().dups_sent());
    }

    #[test]
    fn reordering_scrambles_arrivals_but_loses_nothing() {
        use lots_sim::FaultPlan;
        let plan = FaultPlan {
            seed: 8,
            reorder_permille: 500,
            ..FaultPlan::default()
        };
        let net = cluster_net::<TestMsg>(2, model(), None, Some(Arc::new(plan)));
        let mut eps = net.endpoints;
        let (tx1, _) = eps.remove(1);
        let (_, mut rx0) = eps.remove(0);
        let mut arrivals = Vec::new();
        for k in 0..40u32 {
            let len = if k % 4 == 0 { 9000 } else { 32 };
            let t = tx1.send(0, TestMsg(k), Bytes::from(vec![0u8; len]), SimInstant(0));
            arrivals.push(t.arrival);
        }
        assert!(
            arrivals.windows(2).any(|w| w[1] < w[0]),
            "hold-back delays must invert some arrival order"
        );
        let got = std::iter::from_fn(|| rx0.try_recv()).count();
        assert_eq!(got, 40, "reordering must not lose messages");
    }

    #[test]
    fn partition_with_retransmission_delivers_after_heal() {
        use lots_sim::{FaultPlan, Partition};
        let plan = FaultPlan {
            partitions: vec![Partition {
                start: SimInstant(0),
                end: SimInstant(50_000_000),
                islanders: vec![0],
            }],
            ..FaultPlan::default()
        };
        let net = cluster_net::<TestMsg>(2, model(), None, Some(Arc::new(plan)));
        let mut eps = net.endpoints;
        let (tx1, _) = eps.remove(1);
        let (_, mut rx0) = eps.remove(0);
        let t = tx1.send(0, TestMsg(3), Bytes::from_static(b"z"), SimInstant(0));
        assert!(
            t.arrival >= SimInstant(50_000_000),
            "delivery {} must wait out the partition",
            t.arrival
        );
        let env = rx0.try_recv().expect("delivered after the heal");
        assert_eq!(env.arrival, t.arrival);
        assert!(tx1.stats().msgs_retransmitted() > 0);
    }

    #[test]
    #[should_panic(expected = "sending to itself")]
    fn self_send_rejected() {
        let mut eps = cluster::<TestMsg>(2, model());
        let (tx0, _) = eps.remove(0);
        tx0.send(0, TestMsg(0), Bytes::new(), SimInstant(0));
    }

    #[test]
    fn concurrent_senders_to_one_receiver() {
        let eps = cluster::<TestMsg>(4, model());
        let mut it = eps.into_iter();
        let (_, mut rx0) = it.next().unwrap();
        let senders: Vec<_> = it.map(|(s, _)| s).collect();
        let mut handles = Vec::new();
        for (i, s) in senders.into_iter().enumerate() {
            handles.push(std::thread::spawn(move || {
                for k in 0..25u32 {
                    s.send(
                        0,
                        TestMsg(k),
                        Bytes::from(vec![i as u8; 6000]),
                        SimInstant(0),
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut got = 0;
        while let Some(env) = rx0.try_recv() {
            assert_eq!(env.payload.len(), 6000);
            got += 1;
        }
        assert_eq!(got, 75, "lost messages");
    }
}
