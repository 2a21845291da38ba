//! The data plane, written once for both systems: the fetch of a
//! coherence unit's copy and the diff round on the application side
//! ([`Seat::fetch`], [`Seat::ready`], [`Seat::send_diffs`]), and the
//! comm handler that serves them (`Comm`). A protocol supplies only
//! its access check and how it installs a copy, serves one
//! ([`Protocol::serve_copy`]) and applies a diff
//! ([`Protocol::apply_diff`]).

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use lots_net::{Envelope, NetReceiver, NetSender, NodeId, Transmission};
use lots_sim::{CpuModel, DaemonTurn, NodeStats, SchedHandle, SimClock, SimInstant, TimeCategory};
use parking_lot::{Mutex, MutexGuard};

use super::{Protocol, Seat};
use crate::diff::WordDiff;
use crate::error::DsmError;
use crate::protocol::Msg;

/// A copy [`Protocol::serve_copy`] hands the driver for a reply.
pub struct Served {
    /// The unit's bytes, lent to the reply.
    pub bytes: Bytes,
    /// Barrier epoch of the copy.
    pub version: u64,
    /// The reply holds the server's NIC until it is on the wire, so
    /// concurrent readers of one server queue behind each other.
    pub hold_nic: bool,
}

/// What a protocol's access check found (see [`Seat::ready`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeAccess {
    /// Every unit the range covers is usable: the check left it so
    /// (mapped, pinned, twinned for a write).
    Ready,
    /// Stale copies: fetch each `(unit, server)` pair, then check
    /// again.
    Fetch(Vec<(u32, NodeId)>),
}

impl<P: Protocol> Seat<P> {
    /// Fetch clean copies of `targets`, each `(unit, server)`, in one
    /// round: every request leaves now (the NIC pipelines the tiny
    /// request headers), and the replies — from *distinct* servers for
    /// a striped range — overlap in flight. Each reply is handed to
    /// `install` with the node locked as it arrives, and the clock ends
    /// at the last arrival, so `k` servers cost about one transfer,
    /// not `k` of them.
    pub fn fetch(
        &self,
        targets: &[(u32, NodeId)],
        mut install: impl FnMut(&mut P::Node, u32, Bytes, u64) -> Result<(), DsmError>,
    ) -> Result<(), DsmError> {
        let t0 = self.ctx.clock.now();
        for &(unit, server) in targets {
            assert_ne!(
                server, self.ctx.me,
                "fetch from self implies corrupted state"
            );
            self.net.send(server, Msg::Req { unit }, Bytes::new(), t0);
        }
        for _ in targets {
            let env = self.await_reply();
            match env.msg {
                Msg::Reply { unit, version } if targets.iter().any(|&(u, _)| u == unit) => {
                    install(&mut self.node.lock(), unit, env.payload, version)?;
                }
                other => panic!("unexpected reply while fetching {targets:?}: {other:?}"),
            }
        }
        Ok(())
    }

    /// The miss loop: run the protocol's access check `begin` with the
    /// node locked, [`Seat::fetch`] whatever it finds stale through
    /// `install`, and check again — until the check finds the range
    /// ready, which returns the node still locked.
    #[inline]
    pub fn ready(
        &self,
        mut begin: impl FnMut(&mut P::Node) -> Result<RangeAccess, DsmError>,
        mut install: impl FnMut(&mut P::Node, u32, Bytes, u64) -> Result<(), DsmError>,
    ) -> Result<MutexGuard<'_, P::Node>, DsmError> {
        loop {
            let mut node = self.node.lock();
            let misses = match begin(&mut node)? {
                RangeAccess::Ready => return Ok(node),
                RangeAccess::Fetch(misses) => misses,
            };
            drop(node);
            self.fetch(&misses, &mut install)?;
        }
    }

    /// Push each `(home, unit, ts, encoded diff)` of `diffs` onto the
    /// wire back to back (the sender is busy until its NIC is free
    /// again, charged as network time), then wait until every home
    /// acknowledged its diff — how both systems propagate diffs.
    pub fn send_diffs(&self, diffs: impl IntoIterator<Item = (NodeId, u32, Option<u64>, Bytes)>) {
        let mut pending = 0usize;
        for (home, unit, ts, diff) in diffs {
            debug_assert_ne!(home, self.ctx.me, "a diff for a unit this node is home of");
            let tx = self
                .net
                .send(home, Msg::Diff { unit, ts }, diff, self.ctx.clock.now());
            self.ctx
                .stats
                .charge_until(TimeCategory::Network, &self.ctx.clock, tx.sender_free);
            pending += 1;
        }
        for _ in 0..pending {
            let env = self.await_reply();
            if !matches!(env.msg, Msg::Ack { .. }) {
                panic!("unexpected message while awaiting diff acks: {:?}", env.msg);
            }
        }
    }
}

/// The comm handler of one node: service the mailbox in virtual order,
/// and only the messages strictly inside the current turn's horizon —
/// anything a concurrent batch member sends arrives at or beyond the
/// horizon, so the serviced set (and order) is independent of host
/// thread timing. Senders wake this task with each message's arrival
/// time.
pub(super) struct Comm<P: Protocol> {
    /// The node's application task, woken with each forwarded reply.
    pub(super) app: SchedHandle,
    pub(super) node: Arc<Mutex<P::Node>>,
    /// The node's clock and statistics (shared with its app task).
    pub(super) clock: SimClock,
    pub(super) stats: NodeStats,
    /// The node's CPU: what entering the handler costs.
    pub(super) cpu: CpuModel,
    pub(super) net: NetSender<Msg>,
    pub(super) rx: NetReceiver<Msg>,
    /// The app task's `Seat::replies`.
    pub(super) replies: Arc<Mutex<VecDeque<Envelope<Msg>>>>,
}

impl<P: Protocol> Comm<P> {
    /// One dispatch of the handler (`me` is its own task).
    pub(super) fn turn(&mut self, me: &SchedHandle) -> DaemonTurn {
        let horizon = me.horizon();
        while let Some(env) = self.rx.pop_before(horizon) {
            self.serve(env);
        }
        if !me.apps_live() {
            return DaemonTurn::Done;
        }
        match self.rx.next_arrival() {
            // Future traffic waiting: runnable again at its arrival —
            // it competes in batch selection like any other event.
            Some(arrival) => DaemonTurn::Until(arrival),
            // Nothing pending: idle at virtual infinity until a sender
            // wakes us (or the engine does, once the apps are gone).
            None => DaemonTurn::Idle,
        }
    }

    /// Serve one envelope: a request or a diff runs the protocol's hook
    /// and answers its sender; a reply goes to the app task. The
    /// handler runs when the message arrives or when the node's own
    /// work frees the CPU, whichever is later, and steals node time;
    /// the answer leaves at the later of the message's arrival and the
    /// end of the service (disk time the hook charged included).
    fn serve(&self, env: Envelope<Msg>) {
        let (src, arrival) = (env.src, env.arrival);
        match env.msg {
            Msg::Reply { .. } | Msg::Ack { .. } => {
                self.replies.lock().push_back(env);
                self.app.wake_at(arrival);
            }
            Msg::Req { unit } => {
                let served = P::serve_copy(&mut self.enter_handler(), unit)
                    .unwrap_or_else(|e| panic!("serving unit {unit}: {e}"));
                self.stats.count_home_request(served.bytes.len() as u64);
                let reply = Msg::Reply {
                    unit,
                    version: served.version,
                };
                let tx = self.answer(src, arrival, reply, served.bytes);
                if served.hold_nic {
                    self.stats
                        .charge_until(TimeCategory::Network, &self.clock, tx.sender_free);
                }
            }
            Msg::Diff { unit, ts } => {
                // The payload *is* the diff: adopted after a framing
                // check, not re-parsed into a copy.
                WordDiff::from_wire(env.payload)
                    .map_err(DsmError::from)
                    .and_then(|diff| P::apply_diff(&mut self.enter_handler(), unit, &diff, ts))
                    .unwrap_or_else(|e| {
                        panic!("applying diff for unit {unit} from node {src}: {e}")
                    });
                self.answer(src, arrival, Msg::Ack { unit }, Bytes::new());
            }
        }
    }

    /// Charge the handler entry and lock the node for the service.
    fn enter_handler(&self) -> MutexGuard<'_, P::Node> {
        let node = self.node.lock();
        self.stats
            .charge(TimeCategory::Handler, self.cpu.handler_entry);
        self.clock.advance(self.cpu.handler_entry);
        node
    }

    /// Answer `dst` at the later of now and `arrival`.
    fn answer(&self, dst: NodeId, arrival: SimInstant, msg: Msg, payload: Bytes) -> Transmission {
        self.net
            .send(dst, msg, payload, self.clock.now().max(arrival))
    }
}
