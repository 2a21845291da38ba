//! The per-lock grant queue both lock services are built from (see
//! the [module docs](super) for the lost-wakeup and virtual-order
//! arguments).

use std::collections::{BTreeMap, BTreeSet};

use lots_net::NodeId;
use lots_sim::{BlockReason, SchedHandle, SimInstant, TimeCategory};
use parking_lot::Mutex;

use crate::protocol::messages::ctl;

use super::SyncCtx;

/// What a release published, as its policy reports it.
pub struct Published {
    /// Bytes the release message carries beyond [`ctl::LOCK_REL`].
    pub payload_bytes: usize,
    /// Whether the releaser has thereby seen its own release, so that
    /// its next grant starts after it.
    pub releaser_seen: bool,
}

/// One lock: the queue mechanism's state plus the policy's log `S`.
struct Slot<S> {
    /// Timestamp of this lock's latest release this epoch (0: none).
    ts: u64,
    holder: Option<NodeId>,
    /// Requests keyed by their *virtual arrival* at the manager,
    /// `(req_arrive, node)` — not by host FIFO.
    queue: BTreeSet<(u64, NodeId)>,
    /// When the manager finished handling the latest release.
    release_time: SimInstant,
    /// Per node: highest release ts already delivered.
    seen: Vec<u64>,
    /// Tasks parked behind the holder or the queue's front.
    waiters: Vec<SchedHandle>,
    log: S,
}

/// Every lock's slot and the poison flag, behind the queue's one
/// mutex.
struct Locks<S> {
    slots: BTreeMap<u32, Slot<S>>,
    /// Releases so far this epoch, of every lock: a release's
    /// timestamp. One counter for all locks makes timestamps grow
    /// along every release → acquire chain, whichever locks it passes
    /// through, so they order writes published under different locks
    /// too; per lock they still grow, as the logs and `seen` need.
    released: u64,
    /// Set when a task died; waiters unblock and propagate instead of
    /// waiting on a holder that will never release.
    poisoned: bool,
}

impl<S: Default> Locks<S> {
    /// The slot of `lock`, created free on first use.
    fn slot(&mut self, lock: u32, n: usize) -> &mut Slot<S> {
        self.slots.entry(lock).or_insert_with(|| Slot {
            ts: 0,
            holder: None,
            queue: BTreeSet::new(),
            release_time: SimInstant::ZERO,
            seen: vec![0; n],
            waiters: Vec::new(),
            log: S::default(),
        })
    }

    /// Whether `lock` is free with `key` at the front of its queue —
    /// after failing loudly if the queue is poisoned.
    fn grantable(&self, lock: u32, key: &(u64, NodeId)) -> bool {
        if self.poisoned {
            panic!("lock service poisoned: a peer app thread panicked (see its panic above)");
        }
        let slot = &self.slots[&lock];
        slot.holder.is_none() && slot.queue.first() == Some(key)
    }
}

/// Cluster-wide locks granted in virtual request-arrival order. Each
/// lock has a manager node (`lock % n`, as in JIAJIA) that the acquire,
/// grant and release messages are modelled against, and a policy log
/// `S` the two closures of [`LockQueue::acquire`] and
/// [`LockQueue::release`] read and write.
pub struct LockQueue<S> {
    n: usize,
    locks: Mutex<Locks<S>>,
}

impl<S: Default> LockQueue<S> {
    /// Lock queues for `n` nodes.
    pub fn new(n: usize) -> Self {
        LockQueue {
            n,
            locks: Mutex::new(Locks {
                slots: BTreeMap::new(),
                released: 0,
                poisoned: false,
            }),
        }
    }

    /// The manager node of a lock (static distribution).
    pub fn manager_of(&self, lock: u32) -> NodeId {
        lock as usize % self.n
    }

    /// Mark the cluster as dead after a task panic and wake all lock
    /// waiters so they fail loudly instead of hanging. A waiter
    /// registers under the same mutex after checking the flag, so it
    /// is either woken here or sees the flag on its next check.
    pub fn poison(&self) {
        let mut locks = self.locks.lock();
        locks.poisoned = true;
        for slot in locks.slots.values_mut() {
            super::wake_all(&mut slot.waiters);
        }
    }

    /// Acquire `lock` for `ctx.me`: blocks until granted in virtual
    /// request-arrival order, then returns what `grant` built, with
    /// the grant message's arrival merged into the caller's clock.
    ///
    /// `grant(log, seen)` runs under the queue's mutex once the caller
    /// holds the lock; `seen` is the highest release timestamp already
    /// delivered to the caller. It returns the grant and the bytes it
    /// adds to [`ctl::LOCK_GRANT`] on the wire.
    ///
    /// The wait has two stages. While the lock is held or earlier-keyed
    /// requests are queued ahead, the task waits in the slot's waiter
    /// list (reason `LockQueue`), re-woken by each release. Once it is
    /// the front waiter of a free lock it parks on the engine's
    /// conservative grant gate, and re-checks the grant condition after
    /// promotion (module docs).
    pub fn acquire<G>(
        &self,
        lock: u32,
        ctx: &SyncCtx,
        grant: impl FnOnce(&S, u64) -> (G, usize),
    ) -> G {
        let mut locks = self.locks.lock();
        // Virtual: the acquire request reaches the manager.
        let req_arrive = ctx.clock.now() + ctx.net.one_way(ctl::LOCK_ACQ);
        ctx.traffic.record_send(ctl::LOCK_ACQ, 1);
        let key = (req_arrive.nanos(), ctx.me);
        locks.slot(lock, self.n).queue.insert(key);
        let queued = BlockReason::LockQueue {
            at: key.0,
            rank: ctx.me,
        };
        loop {
            locks = super::park_until(
                &self.locks,
                locks,
                |l| &mut l.slot(lock, self.n).waiters,
                &ctx.sched,
                queued,
                |l| l.grantable(lock, &key),
            );
            drop(locks);
            ctx.sched.block_gated(req_arrive, ctx.me);
            locks = self.locks.lock();
            if locks.grantable(lock, &key) {
                break;
            }
        }
        let st = locks.slot(lock, self.n);
        st.queue.remove(&key);
        st.holder = Some(ctx.me);
        // Virtual: grant issued when both the request has arrived and
        // the previous holder has released.
        let grant_issued = req_arrive.max(st.release_time) + ctx.cpu.handler_entry;
        let (granted, payload_bytes) = grant(&st.log, st.seen[ctx.me]);
        st.seen[ctx.me] = st.ts;
        drop(locks);
        let grant_bytes = ctl::LOCK_GRANT + payload_bytes;
        ctx.traffic.record_recv(grant_bytes);
        ctx.stats.charge_until(
            TimeCategory::SyncWait,
            &ctx.clock,
            grant_issued + ctx.net.one_way(grant_bytes),
        );
        granted
    }

    /// Release `lock`. `publish(log, ts)` runs under the queue's mutex
    /// with the release's timestamp and merges what the critical
    /// section wrote into the log. The release message reaches the
    /// manager, the next grant chains after it, and every waiter is
    /// re-woken; any sender-side cost is the caller's to charge.
    pub fn release(
        &self,
        lock: u32,
        ctx: &SyncCtx,
        publish: impl FnOnce(&mut S, u64) -> Published,
    ) {
        let mut locks = self.locks.lock();
        locks.released += 1;
        let ts = locks.released;
        let st = locks.slot(lock, self.n);
        assert_eq!(st.holder, Some(ctx.me), "releasing a lock not held");
        st.ts = ts;
        let published = publish(&mut st.log, ts);
        if published.releaser_seen {
            st.seen[ctx.me] = ts;
        }
        let rel_bytes = ctl::LOCK_REL + published.payload_bytes;
        ctx.traffic
            .record_send(rel_bytes, ctx.net.fragments(rel_bytes));
        let arrive = ctx.clock.now() + ctx.net.one_way(rel_bytes);
        st.release_time = st.release_time.max(arrive) + ctx.cpu.handler_entry;
        st.holder = None;
        super::wake_all(&mut st.waiters);
    }

    /// Start a new epoch on every lock: timestamps and per-node `seen`
    /// rewind to zero and `clear` empties each log. Only sound while
    /// no lock is held or requested — the barrier's last arriver calls
    /// it while every other node is parked in a barrier rendezvous.
    pub fn reset_epoch(&self, clear: impl Fn(&mut S)) {
        let mut locks = self.locks.lock();
        locks.released = 0;
        for st in locks.slots.values_mut() {
            st.ts = 0;
            st.seen.iter_mut().for_each(|s| *s = 0);
            clear(&mut st.log);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{on_nodes, solo};
    use super::*;
    use lots_sim::SimDuration;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A queue with nothing to log: grants and releases carry nothing.
    type Bare = LockQueue<()>;

    fn acquire(q: &Bare, lock: u32, c: &SyncCtx) {
        q.acquire(lock, c, |_, _| ((), 0));
    }

    fn release(q: &Bare, lock: u32, c: &SyncCtx) {
        q.release(lock, c, |_, _| Published {
            payload_bytes: 0,
            releaser_seen: false,
        });
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let q = Bare::new(4);
        // Non-atomic read-modify-write under the lock: a lost update
        // would show as a short count.
        let counter = AtomicU64::new(0);
        on_nodes(4, |c| {
            for _ in 0..200 {
                acquire(&q, 0, c);
                let seen = counter.load(Ordering::Relaxed);
                counter.store(seen + 1, Ordering::Relaxed);
                release(&q, 0, c);
            }
        });
        assert_eq!(counter.into_inner(), 800);
    }

    #[test]
    fn virtual_time_chains_through_releases() {
        solo(|ctx| {
            let q = Bare::new(2);
            let c0 = ctx(0);
            acquire(&q, 1, &c0);
            assert!(c0.clock.now().nanos() > 0, "RTT charged");
            c0.clock.advance(SimDuration::from_millis(50)); // long CS
            release(&q, 1, &c0);
            let c1 = ctx(1);
            acquire(&q, 1, &c1);
            // Node 1's grant cannot precede node 0's release.
            assert!(c1.clock.now().nanos() >= 50_000_000, "{}", c1.clock.now());
            release(&q, 1, &c1);
        });
    }

    #[test]
    fn grants_follow_virtual_request_order_when_host_order_is_reversed() {
        let q = Bare::new(2);
        let order = Mutex::new(Vec::new());
        let granted_at = on_nodes(2, |c| {
            if c.me == 0 {
                // Dispatched first (rank order at t = 0), but its
                // request leaves 5 ms into its turn: it reaches the
                // service first on the host and second in virtual
                // time. The free lock must wait for node 1.
                c.clock.advance(SimDuration::from_millis(5));
            }
            acquire(&q, 7, c);
            order.lock().push(c.me);
            let at = c.clock.now();
            release(&q, 7, c);
            at
        });
        assert_eq!(*order.lock(), vec![1, 0]);
        assert!(granted_at[1] < granted_at[0]);
    }

    #[test]
    fn poison_wakes_queued_waiters_and_fails_every_later_caller() {
        let q = Bare::new(3);
        let died = on_nodes(3, |c| {
            match c.me {
                // Holds the lock for good.
                0 => return acquire(&q, 3, c),
                // Queues behind it at t = 1 ms.
                1 => drop(c.clock.advance(SimDuration::from_millis(1))),
                // Kills the service at t = 2 ms, then tries another lock.
                _ => {
                    c.clock.advance(SimDuration::from_millis(2));
                    c.sched.yield_until(c.clock.now());
                    q.poison();
                }
            }
            let lock = if c.me == 1 { 3 } else { 4 };
            let err = catch_unwind(AssertUnwindSafe(|| acquire(&q, lock, c)))
                .expect_err("a poisoned queue never grants");
            let msg = err.downcast_ref::<&str>().expect("a literal message");
            assert!(msg.contains("peer app thread panicked"), "got: {msg}");
        });
        assert_eq!(died.len(), 3);
    }
}
