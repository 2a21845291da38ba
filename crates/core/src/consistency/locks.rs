//! Distributed locks with the homeless write-update protocol (§3.4)
//! and the per-field-timestamp diff engine that eliminates diff
//! accumulation (§3.5, Figure 7).
//!
//! Queueing, grant order, the release chain and per-node `seen`
//! timestamps are the shared [`LockQueue`] mechanism (documented
//! [there](super)); this module is LOTS' policy over it — what the
//! manager logs per lock and what a grant carries. Per lock, either:
//!
//! * **Per-field mode** (LOTS): for every object updated under the
//!   lock, a map `word → (timestamp, value)`. A grant sends exactly the
//!   words newer than the requester's last-seen timestamp — the
//!   on-demand diff of Figure 7b; nothing is ever re-sent.
//! * **Accumulated mode** (TreadMarks-style, the Figure 7a baseline):
//!   the list of whole release diffs by timestamp. A grant re-sends
//!   every diff newer than the requester's timestamp, including words
//!   that later diffs overwrite — the *diff accumulation* overhead.
//!
//! Both modes deliver updates as `(object, [(word, ts, value)])`, so
//! application at the acquirer is identical; only the wire bytes (and
//! hence virtual network time) differ.

use std::collections::BTreeMap;

use lots_net::NodeId;
use lots_sim::TimeCategory;

use crate::config::{DiffMode, LockProtocol};
use crate::diff::WordDiff;
use crate::object::ObjectId;

use super::{LockQueue, Published, SyncCtx};

/// Application-visible lock identifier.
pub type LockId = u32;

/// One granted word update: (word index, release timestamp, value).
pub type WordUpdate = (u32, u64, u32);

/// Updates delivered with a grant, ready for
/// [`NodeState::apply_lock_updates`].
///
/// [`NodeState::apply_lock_updates`]: crate::node::NodeState::apply_lock_updates
pub type GrantUpdates = Vec<(ObjectId, Vec<WordUpdate>)>;

/// What a grant tells the acquirer to do (write-update mode carries
/// updates; write-invalidate mode carries invalidations + fetch hints).
#[derive(Debug, Default)]
pub struct Grant {
    /// Word updates to apply at acquire (write-update mode).
    pub updates: GrantUpdates,
    /// Objects to invalidate and the node holding the freshest copy
    /// (write-invalidate ablation mode only).
    pub invalidate: Vec<(ObjectId, NodeId)>,
    /// Wire bytes the grant payload occupied (Figure 7's measure).
    pub payload_bytes: usize,
}

/// Write notices of one lock: `unit → (last release ts, last writer)`
/// for the coherence units (objects here, pages in `lots_jiajia`)
/// written under it. A `BTreeMap`, so a grant's invalidation list is
/// unit-ordered by construction — iteration order here reaches the
/// wire.
pub type WriteNotices = BTreeMap<u32, (u64, NodeId)>;

/// The units of `notices` a requester that has seen every release up
/// to `seen` must invalidate, each with its last writer — the grant of
/// a write-invalidate lock (LOTS' ablation mode, and JIAJIA's only
/// mode). The requester's own writes are already in its copy.
pub fn stale_units(
    notices: &WriteNotices,
    seen: u64,
    me: NodeId,
) -> impl Iterator<Item = (u32, NodeId)> + '_ {
    notices
        .iter()
        .filter(move |&(_, &(ts, writer))| ts > seen && writer != me)
        .map(|(&unit, &(_, writer))| (unit, writer))
}

/// What the manager logs per lock between two barriers.
#[derive(Default)]
struct LockLog {
    /// Per-field mode: obj → word → (ts, value). `BTreeMap`s so the
    /// grant payload is (obj, word)-ordered by construction.
    per_field: BTreeMap<u32, BTreeMap<u32, (u64, u32)>>,
    /// Accumulated mode: (release ts, obj, whole diff).
    accumulated: Vec<(u64, u32, WordDiff)>,
    /// Objects written under the lock (write-invalidate grants).
    obj_meta: WriteNotices,
}

/// The cluster-wide lock service.
pub struct LockService {
    diff_mode: DiffMode,
    protocol: LockProtocol,
    queue: LockQueue<LockLog>,
}

impl LockService {
    /// A lock service for `n` nodes under the given diff and protocol
    /// modes.
    pub fn new(n: usize, diff_mode: DiffMode, protocol: LockProtocol) -> LockService {
        LockService {
            diff_mode,
            protocol,
            queue: LockQueue::new(n),
        }
    }

    /// Mark the cluster as dead after an app-thread panic and wake all
    /// lock waiters so they fail loudly instead of hanging.
    pub fn poison(&self) {
        self.queue.poison();
    }

    /// The manager node of a lock (static distribution, as in JIAJIA).
    pub fn manager_of(&self, lock: LockId) -> NodeId {
        self.queue.manager_of(lock)
    }

    /// Acquire `lock` for `ctx.me`: blocks until granted in virtual
    /// request-arrival order (see [`LockQueue::acquire`]), then returns
    /// the grant with its virtual arrival already merged into the
    /// caller's clock.
    pub fn acquire(&self, lock: LockId, ctx: &SyncCtx) -> Grant {
        self.queue.acquire(lock, ctx, |log, seen| {
            let grant = self.build_grant(log, seen, ctx.me);
            let bytes = grant.payload_bytes;
            (grant, bytes)
        })
    }

    fn build_grant(&self, log: &LockLog, seen: u64, me: NodeId) -> Grant {
        match self.protocol {
            LockProtocol::WriteInvalidate => {
                let invalidate: Vec<(ObjectId, NodeId)> = stale_units(&log.obj_meta, seen, me)
                    .map(|(obj, writer)| (ObjectId(obj), writer))
                    .collect();
                Grant {
                    updates: Vec::new(),
                    payload_bytes: invalidate.len() * 8,
                    invalidate,
                }
            }
            LockProtocol::HomelessWriteUpdate => match self.diff_mode {
                DiffMode::PerFieldOnDemand => {
                    // Fig. 7b: on-demand diff — only words newer than
                    // the requester's timestamp.
                    // per_field's BTreeMaps iterate (obj, word)-ordered,
                    // so the update list is sorted by construction.
                    let mut updates: GrantUpdates = Vec::new();
                    let mut payload = 0usize;
                    for (&obj, words) in &log.per_field {
                        let fresh: Vec<(u32, u64, u32)> = words
                            .iter()
                            .filter(|&(_, &(ts, _))| ts > seen)
                            .map(|(&w, &(ts, v))| (w, ts, v))
                            .collect();
                        if fresh.is_empty() {
                            continue;
                        }
                        payload += 8 + fresh.len() * 8; // obj hdr + (word,val)
                        updates.push((ObjectId(obj), fresh));
                    }
                    Grant {
                        updates,
                        invalidate: Vec::new(),
                        payload_bytes: payload,
                    }
                }
                DiffMode::AccumulatedDiffs => {
                    // Fig. 7a: replay every stored diff newer than the
                    // requester's timestamp, redundancy included.
                    let mut updates: GrantUpdates = Vec::new();
                    let mut payload = 0usize;
                    for (ts, obj, diff) in &log.accumulated {
                        if *ts <= seen {
                            continue;
                        }
                        payload += 8 + diff.wire_size();
                        let words: Vec<(u32, u64, u32)> =
                            diff.iter_words().map(|(w, v)| (w, *ts, v)).collect();
                        updates.push((ObjectId(*obj), words));
                    }
                    Grant {
                        updates,
                        invalidate: Vec::new(),
                        payload_bytes: payload,
                    }
                }
            },
        }
    }

    /// Release `lock`, merging the critical section's updates into the
    /// manager's log. `make_updates` is called with the release
    /// timestamp and must return the CS diffs (from
    /// [`NodeState::exit_cs`]).
    ///
    /// [`NodeState::exit_cs`]: crate::node::NodeState::exit_cs
    pub fn release(
        &self,
        lock: LockId,
        ctx: &SyncCtx,
        make_updates: impl FnOnce(u64) -> Vec<(ObjectId, WordDiff)>,
    ) {
        self.queue.release(lock, ctx, |log, ts| {
            let mut payload_bytes = 0usize;
            for (obj, diff) in make_updates(ts) {
                payload_bytes += 8 + diff.wire_size();
                log.obj_meta.insert(obj.0, (ts, ctx.me));
                match self.diff_mode {
                    DiffMode::PerFieldOnDemand => {
                        let words = log.per_field.entry(obj.0).or_default();
                        for (w, v) in diff.iter_words() {
                            words.insert(w, (ts, v));
                        }
                    }
                    DiffMode::AccumulatedDiffs => log.accumulated.push((ts, obj.0, diff)),
                }
            }
            // The release message carries the updates. The releaser's
            // `seen` stays put: its next grant re-delivers its own
            // words (they equal what it holds).
            Published {
                payload_bytes,
                releaser_seen: false,
            }
        });
        // Sender-side cost of pushing the release out.
        let push = ctx.net.per_fragment;
        ctx.clock.advance(push);
        ctx.stats.charge(TimeCategory::Network, push);
    }

    /// Barrier-epoch reset (§3.4): after a barrier every update has
    /// been propagated to homes, so lock logs are cleared and per-node
    /// timestamps rewound. Called by the last node to arrive at the
    /// barrier's drain — or at its enter round, when the plan has no
    /// diffs to drain — while all others are still blocked.
    pub fn reset_epoch(&self) {
        self.queue.reset_epoch(|log| {
            log.per_field.clear();
            log.accumulated.clear();
            log.obj_meta.clear();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::solo;
    use super::*;

    #[test]
    fn uncontended_acquire_grants_immediately() {
        solo(|ctx| {
            let svc = LockService::new(
                2,
                DiffMode::PerFieldOnDemand,
                LockProtocol::HomelessWriteUpdate,
            );
            let c = ctx(0);
            let g = svc.acquire(1, &c);
            assert!(g.updates.is_empty());
            assert!(c.clock.now().nanos() > 0, "RTT charged");
            svc.release(1, &c, |_| vec![]);
        });
    }

    #[test]
    fn updates_flow_to_next_acquirer() {
        solo(|ctx| {
            let svc = LockService::new(
                2,
                DiffMode::PerFieldOnDemand,
                LockProtocol::HomelessWriteUpdate,
            );
            let c0 = ctx(0);
            let c1 = ctx(1);
            svc.acquire(9, &c0);
            svc.release(9, &c0, |ts| {
                assert_eq!(ts, 1);
                vec![(ObjectId(4), WordDiff::from_words(&[(0, 10), (1, 20)]))]
            });
            let g = svc.acquire(9, &c1);
            assert_eq!(g.updates.len(), 1);
            assert_eq!(g.updates[0].0, ObjectId(4));
            let mut words = g.updates[0].1.clone();
            words.sort_unstable_by_key(|&(w, _, _)| w);
            assert_eq!(words, vec![(0, 1, 10), (1, 1, 20)]);
            svc.release(9, &c1, |_| vec![]);
        });
    }

    #[test]
    fn no_redundant_resend_in_per_field_mode() {
        solo(|ctx| {
            let svc = LockService::new(
                2,
                DiffMode::PerFieldOnDemand,
                LockProtocol::HomelessWriteUpdate,
            );
            let c0 = ctx(0);
            let c1 = ctx(1);
            svc.acquire(1, &c0);
            svc.release(1, &c0, |_| {
                vec![(ObjectId(0), WordDiff::from_words(&[(0, 1)]))]
            });
            let g1 = svc.acquire(1, &c1);
            assert_eq!(g1.updates.len(), 1);
            svc.release(1, &c1, |_| vec![]);
            // Node 1 acquires again without intervening updates: nothing new.
            let g2 = svc.acquire(1, &c1);
            assert!(g2.updates.is_empty());
            assert_eq!(g2.payload_bytes, 0);
            svc.release(1, &c1, |_| vec![]);
        });
    }

    #[test]
    fn accumulated_mode_resends_overlapping_diffs() {
        solo(|ctx| {
            // Figure 7: the same field updated at ts1..ts3; a fresh
            // acquirer receives all three copies in accumulated mode but
            // exactly one (the latest) in per-field mode.
            let mk = |mode| LockService::new(3, mode, LockProtocol::HomelessWriteUpdate);
            for (mode, expected_copies) in [
                (DiffMode::AccumulatedDiffs, 3),
                (DiffMode::PerFieldOnDemand, 1),
            ] {
                let svc = mk(mode);
                let c0 = ctx(0);
                for v in [1u32, 2, 3] {
                    svc.acquire(5, &c0);
                    svc.release(5, &c0, |_| {
                        vec![(ObjectId(8), WordDiff::from_words(&[(0, v)]))]
                    });
                }
                let c2 = ctx(2);
                let g = svc.acquire(5, &c2);
                let copies: usize = g.updates.iter().map(|(_, w)| w.len()).sum();
                assert_eq!(copies, expected_copies, "mode {mode:?}");
                // Either way the final value must win.
                let last = g
                    .updates
                    .iter()
                    .flat_map(|(_, ws)| ws.iter())
                    .max_by_key(|&&(_, ts, _)| ts)
                    .copied()
                    .unwrap();
                assert_eq!(last.2, 3);
                svc.release(5, &c2, |_| vec![]);
            }
        });
    }

    #[test]
    fn write_invalidate_mode_sends_invalidations() {
        solo(|ctx| {
            let svc =
                LockService::new(2, DiffMode::PerFieldOnDemand, LockProtocol::WriteInvalidate);
            let c0 = ctx(0);
            let c1 = ctx(1);
            svc.acquire(1, &c0);
            svc.release(1, &c0, |_| {
                vec![(ObjectId(3), WordDiff::from_words(&[(0, 1)]))]
            });
            let g = svc.acquire(1, &c1);
            assert!(g.updates.is_empty());
            assert_eq!(g.invalidate, vec![(ObjectId(3), 0)]);
            svc.release(1, &c1, |_| vec![]);
        });
    }

    #[test]
    fn reset_epoch_clears_logs_idempotently() {
        solo(|ctx| {
            let svc = LockService::new(
                3,
                DiffMode::PerFieldOnDemand,
                LockProtocol::HomelessWriteUpdate,
            );
            let c0 = ctx(0);
            svc.acquire(1, &c0);
            svc.release(1, &c0, |_| {
                vec![(ObjectId(0), WordDiff::from_words(&[(0, 1)]))]
            });
            // What a node that has seen nothing is granted: the logged
            // word before the reset, nothing after it.
            let fresh_grant_bytes = |me| {
                let c = ctx(me);
                let bytes = svc.acquire(1, &c).payload_bytes;
                svc.release(1, &c, |_| vec![]);
                bytes
            };
            assert!(fresh_grant_bytes(1) > 0);
            svc.reset_epoch();
            svc.reset_epoch(); // idempotent
            assert_eq!(fresh_grant_bytes(2), 0);
        });
    }

    #[test]
    fn manager_assignment_round_robin() {
        let svc = LockService::new(
            4,
            DiffMode::PerFieldOnDemand,
            LockProtocol::HomelessWriteUpdate,
        );
        assert_eq!(svc.manager_of(0), 0);
        assert_eq!(svc.manager_of(5), 1);
        assert_eq!(svc.manager_of(7), 3);
    }
}
