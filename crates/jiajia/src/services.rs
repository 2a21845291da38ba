//! JIAJIA synchronization services: home-based ScC barrier and locks.
//!
//! The mechanisms — rendezvous, lock queue, parking, poisoning,
//! control-message charging — are the ones LOTS uses
//! ([`lots_core::consistency`], which owns the lost-wakeup and
//! virtual-order arguments). This module is only JIAJIA's policy over
//! them, and the key protocol differences from LOTS:
//!
//! * diffs are **eagerly flushed to fixed homes** at every release and
//!   barrier entry (home-based, no migration) — by the caller, before
//!   it comes here, so the barrier is a *single* rendezvous whose exit
//!   carries the invalidation set directly;
//! * synchronization carries **write notices only** — invalidations,
//!   never data (write-invalidate on both paths). A release is
//!   therefore a fixed-size message with no sender-side fragment cost,
//!   and the releaser has by definition seen its own notices.

use std::collections::BTreeSet;
use std::sync::Arc;

use lots_core::consistency::locks::{stale_units, WriteNotices};
use lots_core::consistency::{
    merge_lifecycle, named_wire_bytes, LockQueue, Published, Rendezvous, SyncCtx,
};
use lots_core::protocol::messages::ctl;
use lots_core::NamedAllocReq;
use lots_net::NodeId;

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
    pub written: Vec<PageNotice>,
    /// Freed ranges (first page, pages), union over nodes, sorted.
    pub freed: Vec<(u32, u32)>,
    /// Named allocations in deterministic commit order (staging node,
    /// then staging order).
    pub named: Vec<NamedAllocReq>,
    pub seq: u64,
}

/// What one node brings to the barrier: the pages it wrote and the
/// interval's staged frees and named allocations.
type Entered = (Vec<u32>, Vec<(u32, u32)>, Vec<NamedAllocReq>);

/// The cluster barrier.
pub struct JiaBarrier {
    round: Rendezvous<Entered, JiaBarrierRound>,
}

impl JiaBarrier {
    pub fn new(n: usize) -> JiaBarrier {
        JiaBarrier {
            round: Rendezvous::new(n),
        }
    }

    /// Mark the cluster as dead after an app-thread panic and wake all
    /// waiters so they fail loudly instead of hanging.
    pub fn poison(&self) {
        self.round.poison();
    }

    pub fn enter(
        &self,
        ctx: &SyncCtx,
        notices: Vec<u32>,
        frees: Vec<(u32, u32)>,
        named: Vec<NamedAllocReq>,
    ) -> Arc<JiaBarrierRound> {
        let bytes = ctl::BARRIER_ENTER
            + notices.len() * ctl::WRITE_NOTICE
            + frees.len() * ctl::PLAN_ENTRY
            + named_wire_bytes(&named);
        self.round.meet(
            ctx,
            bytes,
            (notices, frees, named),
            |mut arrivals| {
                let mut raw: Vec<(u32, NodeId)> = Vec::new();
                let contributions = std::mem::take(&mut arrivals.contributions);
                let (freed, named) = merge_lifecycle(contributions.into_iter().map(
                    |(writer, (pages, frees, named))| {
                        raw.extend(pages.into_iter().map(|p| (p, writer)));
                        (frees, named)
                    },
                ));
                raw.sort_unstable();
                // Pages of a freed allocation drop out of the round: the
                // free wins over concurrent writes.
                let freed_pages: BTreeSet<u32> = freed
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
                let exit = arrivals.ready_after(written.len() + freed.len() + named.len());
                let round = JiaBarrierRound {
                    written,
                    freed,
                    named,
                    seq: arrivals.round,
                };
                (round, exit)
            },
            |round| {
                ctl::BARRIER_EXIT
                    + (round.written.len() + round.freed.len()) * ctl::PLAN_ENTRY
                    + named_wire_bytes(&round.named)
            },
        )
    }
}

/// Home-based ScC locks: a lock logs page write notices, and a grant
/// carries the invalidations they imply.
pub struct JiaLocks {
    queue: LockQueue<WriteNotices>,
}

impl JiaLocks {
    pub fn new(n: usize) -> JiaLocks {
        JiaLocks {
            queue: LockQueue::new(n),
        }
    }

    /// See [`JiaBarrier::poison`].
    pub fn poison(&self) {
        self.queue.poison();
    }

    /// Acquire: blocks in virtual request-arrival order (see
    /// [`LockQueue::acquire`]); returns the pages to invalidate.
    pub fn acquire(&self, lock: u32, ctx: &SyncCtx) -> Vec<u32> {
        self.queue.acquire(lock, ctx, |notices, seen| {
            let invalidate: Vec<u32> = stale_units(notices, seen, ctx.me)
                .map(|(page, _)| page)
                .collect();
            let bytes = invalidate.len() * 8;
            (invalidate, bytes)
        })
    }

    /// Release with the pages this node wrote (diffs were already
    /// flushed to homes by the caller).
    pub fn release(&self, lock: u32, ctx: &SyncCtx, written: Vec<u32>) {
        self.queue.release(lock, ctx, |notices, ts| {
            for page in written {
                notices.insert(page, (ts, ctx.me));
            }
            Published {
                payload_bytes: 8,
                releaser_seen: true,
            }
        });
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
            b.enter(&c, vec![me as u32, 10 + me as u32, 5], vec![], vec![])
        });
        for round in rounds {
            assert_eq!(round.seq, 1);
            let pages: Vec<u32> = round.written.iter().map(|n| n.page).collect();
            assert_eq!(pages, vec![0, 1, 2, 5, 10, 11, 12]);
            for n in round.written.iter() {
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
}
