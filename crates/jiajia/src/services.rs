//! JIAJIA synchronization services: home-based ScC barrier and locks.
//!
//! Like the LOTS services, the rendezvous/queueing is in-process state
//! whose waits park on the virtual-time scheduler, while control-message
//! costs are charged analytically (DESIGN.md §2). The key protocol
//! differences from LOTS:
//!
//! * diffs are **eagerly flushed to fixed homes** at every release and
//!   barrier entry (home-based, no migration);
//! * synchronization carries **write notices only** — invalidations,
//!   never data (write-invalidate on both paths).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use lots_core::consistency::SyncCtx;
use lots_core::protocol::messages::ctl;
use lots_core::NamedAllocReq;
use lots_net::NodeId;
use lots_sim::{BlockReason, SchedHandle, SimDuration, SimInstant, TimeCategory};
use parking_lot::Mutex;

/// One aggregated write notice: the page, one of its writers, and
/// whether more than one node wrote it (write-write false sharing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageNotice {
    pub page: u32,
    pub writer: NodeId,
    pub multi: bool,
}

/// Barrier outcome: every page written in the interval (union of all
/// nodes' notices), the freed page ranges and named allocations every
/// node must replay on exit, plus the barrier sequence number.
pub struct JiaBarrierRound {
    pub written: Arc<Vec<PageNotice>>,
    /// Freed ranges (first page, pages), union over nodes, sorted.
    pub freed: Arc<Vec<(u32, u32)>>,
    /// Named allocations in deterministic commit order (staging node,
    /// then staging order).
    pub named: Arc<Vec<NamedAllocReq>>,
    pub seq: u64,
}

struct BarState {
    seq: u64,
    gen: u64,
    count: usize,
    enter_max: SimInstant,
    /// The *virtual* last arriver — lex-max `(arrive, node)` — and its
    /// per-entry handler cost. Exit processing is charged at this
    /// node's CPU speed, not the physically-last thread's (which races
    /// under the parallel engine once CPU-slowdown faults differ).
    enter_last: (SimInstant, NodeId, SimDuration),
    notices: Vec<(u32, NodeId)>,
    frees: BTreeSet<(u32, u32)>,
    named: Vec<(NodeId, usize, NamedAllocReq)>,
    result: Option<Arc<Vec<PageNotice>>>,
    freed_result: Option<Arc<Vec<(u32, u32)>>>,
    named_result: Option<Arc<Vec<NamedAllocReq>>>,
    exit_time: SimInstant,
    /// Set when a node's app thread panicked: waiters must unblock and
    /// propagate instead of waiting for an impossible rendezvous.
    poisoned: bool,
    /// Scheduler-parked waiters (re-registered on every wake; drained
    /// by the last arriver or by poison).
    sched_waiters: Vec<SchedHandle>,
}

/// The cluster barrier (single rendezvous: diffs are acked before
/// entering, so the exit can carry the invalidation set directly).
pub struct JiaBarrier {
    n: usize,
    state: Mutex<BarState>,
}

impl JiaBarrier {
    pub fn new(n: usize) -> JiaBarrier {
        JiaBarrier {
            n,
            state: Mutex::new(BarState {
                seq: 1,
                gen: 0,
                count: 0,
                enter_max: SimInstant::ZERO,
                enter_last: (SimInstant::ZERO, 0, SimDuration::ZERO),
                notices: Vec::new(),
                frees: BTreeSet::new(),
                named: Vec::new(),
                result: None,
                freed_result: None,
                named_result: None,
                exit_time: SimInstant::ZERO,
                poisoned: false,
                sched_waiters: Vec::new(),
            }),
        }
    }

    /// Mark the cluster as dead after an app-thread panic and wake all
    /// waiters so they fail loudly instead of hanging.
    pub fn poison(&self) {
        let mut st = self.state.lock();
        st.poisoned = true;
        for w in st.sched_waiters.drain(..) {
            w.wake();
        }
    }

    fn check_poison(st: &BarState) {
        if st.poisoned {
            panic!("barrier poisoned: a peer app thread panicked (see its panic above)");
        }
    }

    pub fn enter(
        &self,
        ctx: &SyncCtx,
        notices: Vec<u32>,
        frees: Vec<(u32, u32)>,
        named: Vec<NamedAllocReq>,
    ) -> JiaBarrierRound {
        let mut st = self.state.lock();
        Self::check_poison(&st);
        let my_gen = st.gen;
        let wait_from = ctx.clock.now();
        let named_bytes: usize = named.iter().map(|r| ctl::WRITE_NOTICE + r.name.len()).sum();
        let bytes = ctl::BARRIER_ENTER
            + notices.len() * ctl::WRITE_NOTICE
            + frees.len() * ctl::PLAN_ENTRY
            + named_bytes;
        ctx.traffic.record_send(bytes, ctx.net.fragments(bytes));
        let arrive = ctx.clock.now() + ctx.net.one_way(bytes);
        st.enter_max = st.enter_max.max(arrive);
        if (arrive, ctx.me) >= (st.enter_last.0, st.enter_last.1) {
            st.enter_last = (arrive, ctx.me, ctx.cpu.handler_entry);
        }
        st.notices.extend(notices.into_iter().map(|p| (p, ctx.me)));
        st.frees.extend(frees);
        for (idx, req) in named.into_iter().enumerate() {
            st.named.push((ctx.me, idx, req));
        }
        st.count += 1;
        let seq = st.seq;
        if st.count == self.n {
            let mut raw = std::mem::take(&mut st.notices);
            raw.sort_unstable();
            // Pages of a freed allocation drop out of the round: the
            // free wins over concurrent writes.
            let freed_pages: BTreeSet<u32> = st
                .frees
                .iter()
                .flat_map(|&(first, pages)| first..first + pages)
                .collect();
            let mut written: Vec<PageNotice> = Vec::with_capacity(raw.len());
            for (page, writer) in raw {
                if freed_pages.contains(&page) {
                    continue;
                }
                match written.last_mut() {
                    Some(last) if last.page == page => last.multi = true,
                    _ => written.push(PageNotice {
                        page,
                        writer,
                        multi: false,
                    }),
                }
            }
            let freed: Vec<(u32, u32)> = std::mem::take(&mut st.frees).into_iter().collect();
            // Commit order: staging node, then staging order — a pure
            // function of the interval's calls, independent of the
            // rendezvous arrival order.
            let mut named_keyed = std::mem::take(&mut st.named);
            named_keyed.sort_by_key(|k| (k.0, k.1));
            let named_list: Vec<NamedAllocReq> =
                named_keyed.into_iter().map(|(_, _, r)| r).collect();
            st.exit_time = st.enter_max
                + SimDuration(st.enter_last.2 .0 * self.n as u64)
                + SimDuration(250 * (written.len() + freed.len() + named_list.len()) as u64);
            st.result = Some(Arc::new(written));
            st.freed_result = Some(Arc::new(freed));
            st.named_result = Some(Arc::new(named_list));
            st.seq += 1;
            st.count = 0;
            st.enter_max = SimInstant::ZERO;
            st.enter_last = (SimInstant::ZERO, 0, SimDuration::ZERO);
            st.gen += 1;
            for w in st.sched_waiters.drain(..) {
                w.wake();
            }
        } else {
            while st.gen == my_gen {
                st = lots_core::consistency::sched_wait_step(
                    &self.state,
                    st,
                    |s| &mut s.sched_waiters,
                    &ctx.sched,
                    BlockReason::Barrier,
                );
                Self::check_poison(&st);
            }
        }
        let written = Arc::clone(st.result.as_ref().expect("result set by last arriver"));
        let freed = Arc::clone(st.freed_result.as_ref().expect("set by last arriver"));
        let named = Arc::clone(st.named_result.as_ref().expect("set by last arriver"));
        let exit = st.exit_time;
        drop(st);
        let exit_named_bytes: usize = named.iter().map(|r| ctl::WRITE_NOTICE + r.name.len()).sum();
        let exit_bytes =
            ctl::BARRIER_EXIT + (written.len() + freed.len()) * ctl::PLAN_ENTRY + exit_named_bytes;
        ctx.traffic.record_recv(exit_bytes);
        let now = ctx.clock.advance_to(exit + ctx.net.one_way(exit_bytes));
        ctx.stats
            .charge(TimeCategory::SyncWait, now.saturating_sub(wait_from));
        JiaBarrierRound {
            written,
            freed,
            named,
            seq,
        }
    }
}

struct LockState {
    ts: u64,
    holder: Option<NodeId>,
    /// Waiters ordered by virtual request arrival `(req_arrive, node)`
    /// — the grant order is a pure function of virtual time (see the
    /// LOTS lock service for the full argument).
    waiters: BTreeSet<(u64, NodeId)>,
    release_time: SimInstant,
    /// Write notices: page → (last release ts, writer). A `BTreeMap`
    /// so the grant's invalidation list is page-ordered by
    /// construction — iteration order here reaches the wire.
    notices: BTreeMap<u32, (u64, NodeId)>,
    seen: Vec<u64>,
    /// Scheduler-parked waiters on this lock.
    sched_waiters: Vec<SchedHandle>,
}

/// Home-based ScC locks: grants carry invalidation notices only.
pub struct JiaLocks {
    n: usize,
    locks: Mutex<BTreeMap<u32, Arc<Mutex<LockState>>>>,
    /// Set when a node's app thread panicked; waiters unblock and
    /// propagate instead of waiting on a holder that will never release.
    poisoned: std::sync::atomic::AtomicBool,
}

impl JiaLocks {
    pub fn new(n: usize) -> JiaLocks {
        JiaLocks {
            n,
            locks: Mutex::new(BTreeMap::new()),
            poisoned: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// See [`JiaBarrier::poison`].
    pub fn poison(&self) {
        self.poisoned
            .store(true, std::sync::atomic::Ordering::Release);
        let locks = self.locks.lock();
        for entry in locks.values() {
            // Drain under the entry mutex: a waiter registers itself
            // under it after checking the flag, so it is either woken
            // here or sees the flag on its next check.
            for w in entry.lock().sched_waiters.drain(..) {
                w.wake();
            }
        }
    }

    fn check_poison(&self) {
        if self.poisoned.load(std::sync::atomic::Ordering::Acquire) {
            panic!("lock service poisoned: a peer app thread panicked (see its panic above)");
        }
    }

    fn entry(&self, lock: u32) -> Arc<Mutex<LockState>> {
        let mut locks = self.locks.lock();
        Arc::clone(locks.entry(lock).or_insert_with(|| {
            Arc::new(Mutex::new(LockState {
                ts: 0,
                holder: None,
                waiters: BTreeSet::new(),
                release_time: SimInstant::ZERO,
                notices: BTreeMap::new(),
                seen: vec![0; self.n],
                sched_waiters: Vec::new(),
            }))
        }))
    }

    /// Acquire: blocks in virtual request-arrival order; returns the
    /// pages to invalidate. The front waiter of a free lock parks on the conservative grant gate
    /// ([`SchedHandle::block_gated`]) so a grant is observed only once
    /// no earlier-sorting request can still appear; the gate bounds
    /// competing requests, not the holder's release, so the condition
    /// is re-checked after promotion.
    pub fn acquire(&self, lock: u32, ctx: &SyncCtx) -> Vec<u32> {
        let entry = self.entry(lock);
        let mut st = entry.lock();
        let wait_from = ctx.clock.now();
        let req_arrive = ctx.clock.now() + ctx.net.one_way(ctl::LOCK_ACQ);
        ctx.traffic.record_send(ctl::LOCK_ACQ, 1);
        self.check_poison();
        let key = (req_arrive.nanos(), ctx.me);
        st.waiters.insert(key);
        let h = &ctx.sched;
        loop {
            if st.holder.is_none() && st.waiters.first() == Some(&key) {
                drop(st);
                h.block_gated(req_arrive, ctx.me);
                st = entry.lock();
                self.check_poison();
                if st.holder.is_none() && st.waiters.first() == Some(&key) {
                    break;
                }
            } else {
                st = lots_core::consistency::sched_wait_step(
                    &entry,
                    st,
                    |s| &mut s.sched_waiters,
                    h,
                    BlockReason::LockQueue {
                        at: req_arrive.nanos(),
                        rank: ctx.me,
                    },
                );
                self.check_poison();
            }
        }
        st.waiters.remove(&key);
        st.holder = Some(ctx.me);
        let seen = st.seen[ctx.me];
        // BTreeMap iteration is page-ordered, so the invalidation
        // list needs no defensive sort.
        let invalidate: Vec<u32> = st
            .notices
            .iter()
            .filter(|&(_, &(ts, writer))| ts > seen && writer != ctx.me)
            .map(|(&p, _)| p)
            .collect();
        st.seen[ctx.me] = st.ts;
        let grant_issued = req_arrive.max(st.release_time) + ctx.cpu.handler_entry;
        let grant_bytes = ctl::LOCK_GRANT + invalidate.len() * 8;
        drop(st);
        ctx.traffic.record_recv(grant_bytes);
        let now = ctx
            .clock
            .advance_to(grant_issued + ctx.net.one_way(grant_bytes));
        ctx.stats
            .charge(TimeCategory::SyncWait, now.saturating_sub(wait_from));
        invalidate
    }

    /// Release with the pages this node wrote (diffs were already
    /// flushed to homes by the caller).
    pub fn release(&self, lock: u32, ctx: &SyncCtx, written: Vec<u32>) {
        let entry = self.entry(lock);
        let mut st = entry.lock();
        assert_eq!(st.holder, Some(ctx.me), "releasing a lock not held");
        st.ts += 1;
        let ts = st.ts;
        for page in written {
            st.notices.insert(page, (ts, ctx.me));
        }
        st.seen[ctx.me] = ts;
        let rel_bytes = ctl::LOCK_REL + 8;
        ctx.traffic.record_send(rel_bytes, 1);
        let arrive = ctx.clock.now() + ctx.net.one_way(rel_bytes);
        st.release_time = st.release_time.max(arrive) + ctx.cpu.handler_entry;
        st.holder = None;
        for w in st.sched_waiters.drain(..) {
            w.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lots_sim::machine::p4_fedora;
    use lots_sim::{run_app_tasks, SimClock};

    /// Run `body` on one scheduler task that plays every node in turn:
    /// the `ctx(me)` it is handed makes node `me`'s context (own clock,
    /// that task's handle).
    fn solo(body: impl Fn(&dyn Fn(NodeId) -> SyncCtx) + Sync) {
        run_app_tasks(1, |_, h, _| {
            body(&|me| SyncCtx::standalone(me, &p4_fedora(), SimClock::new(), h.clone()))
        });
    }

    #[test]
    fn barrier_unions_notices_and_marks_false_sharing() {
        let b = JiaBarrier::new(3);
        let rounds = run_app_tasks(3, |me, h, clock| {
            let c = SyncCtx::standalone(me, &p4_fedora(), clock.clone(), h.clone());
            // Page 5 is written by everyone (false sharing); the
            // others have single writers.
            let round = b.enter(&c, vec![me as u32, 10 + me as u32, 5], vec![], vec![]);
            (round.written, round.seq)
        });
        for (written, seq) in rounds {
            assert_eq!(seq, 1);
            let pages: Vec<u32> = written.iter().map(|n| n.page).collect();
            assert_eq!(pages, vec![0, 1, 2, 5, 10, 11, 12]);
            for n in written.iter() {
                if n.page == 5 {
                    assert!(n.multi, "page 5 has three writers");
                } else {
                    assert!(!n.multi);
                    assert_eq!(n.writer as u32, n.page % 10);
                }
            }
        }
    }

    #[test]
    fn lock_notices_gate_on_seen_ts() {
        solo(|ctx| {
            let l = JiaLocks::new(2);
            let c0 = ctx(0);
            let c1 = ctx(1);
            l.acquire(1, &c0);
            l.release(1, &c0, vec![4, 5]);
            assert_eq!(l.acquire(1, &c1), vec![4, 5]);
            l.release(1, &c1, vec![]);
            // Re-acquire by node 1: nothing new.
            assert_eq!(l.acquire(1, &c1), Vec::<u32>::new());
            l.release(1, &c1, vec![]);
            // Node 0 still sees node 1's... nothing (node 1 wrote nothing).
            assert_eq!(l.acquire(1, &c0), Vec::<u32>::new());
            l.release(1, &c0, vec![]);
        });
    }

    #[test]
    fn lock_excludes_and_chains_time() {
        solo(|ctx| {
            let l = Arc::new(JiaLocks::new(2));
            let c0 = ctx(0);
            l.acquire(9, &c0);
            c0.clock.advance(lots_sim::SimDuration::from_millis(20));
            l.release(9, &c0, vec![]);
            let c1 = ctx(1);
            l.acquire(9, &c1);
            assert!(c1.clock.now().nanos() >= 20_000_000);
            l.release(9, &c1, vec![]);
        });
    }
}
