//! ScC vector-clock race detection.
//!
//! # Model
//!
//! Every node `p` carries a vector clock `V_p` whose own component
//! counts `p`'s completed *release segments* (it starts at 1 and is
//! incremented at every lock release and barrier exit). Happens-before
//! edges are exactly the ones Scope Consistency provides:
//!
//! * **lock release → next acquire of the same lock**: the release
//!   joins `V_p` into the lock's clock; an acquire joins the lock's
//!   clock into the acquirer.
//! * **barrier**: a total join — every node publishes its clock at
//!   entry; every node leaves with the element-wise maximum.
//!
//! Data-plane traffic (object fetches, diff propagation) creates *no*
//! edges: under ScC, data movement does not order accesses — only
//! synchronization does. Likewise `run_barrier` (§3.6), the
//! event-only barrier with no memory semantics, creates no edges.
//!
//! Each access is stamped with its node's current clock. An earlier
//! access by `q` with stamp `W` happens-before a current access by
//! `p ≠ q` iff `W[q] ≤ V_p[q]` — `p` has synchronized (directly or
//! transitively) with a release of `q` made at or after the access.
//! Two overlapping accesses to the same object, at least one a write,
//! with no such edge, are a race.
//!
//! # Exactness and memory
//!
//! Detection is online and exhaustive over the executed schedule: no
//! sampling, no lock-set approximation — a flagged pair is a real
//! unordered conflict *of this run*. Under the deterministic
//! scheduler the run (and hence the report) replays bit-for-bit.
//!
//! Access records are cleared at every barrier rendezvous: once all
//! `n` nodes have entered, every recorded access happens-before every
//! post-barrier access, so no cleared record can ever race again.
//! This bounds memory to one barrier interval and makes object-id
//! reuse after `free` (which reclaims at barriers) safe.

use std::collections::BTreeMap;

use parking_lot::Mutex;

/// One side of a detected race: which node, in which synchronization
/// interval (a per-node counter incremented at every lock
/// acquire/release and barrier entry/exit), and whether it wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct AccessSite {
    /// The accessing node's rank.
    pub node: usize,
    /// The node's synchronization-interval number at the access.
    pub interval: u64,
    /// Whether this side wrote (at least one side of a race always
    /// did).
    pub write: bool,
}

/// One detected race: two unordered conflicting accesses to an
/// overlapping byte range of one object. Repeated conflicts between
/// the same pair of sites are widened into one race spanning
/// `start..end`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// The object (LOTS object id; JIAJIA page number).
    pub object: u32,
    /// First overlapping byte offset within the object.
    pub start: u64,
    /// One past the last overlapping byte offset.
    pub end: u64,
    /// The lexicographically smaller access site.
    pub first: AccessSite,
    /// The other access site.
    pub second: AccessSite,
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rw = |w: bool| if w { "write" } else { "read" };
        write!(
            f,
            "object {} bytes {}..{}: node {} interval {} ({}) unordered with node {} interval {} ({})",
            self.object,
            self.start,
            self.end,
            self.first.node,
            self.first.interval,
            rw(self.first.write),
            self.second.node,
            self.second.interval,
            rw(self.second.write),
        )
    }
}

/// The deterministic outcome of a race-detection run: all detected
/// races, deduplicated by site pair and sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RaceReport {
    /// The races, sorted by (object, range, sites).
    pub races: Vec<Race>,
}

impl RaceReport {
    /// No races detected?
    pub fn is_empty(&self) -> bool {
        self.races.is_empty()
    }

    /// Number of distinct races (site pairs).
    pub fn len(&self) -> usize {
        self.races.len()
    }
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.races.is_empty() {
            return write!(f, "no races detected");
        }
        writeln!(f, "{} race(s) detected:", self.races.len())?;
        for r in &self.races {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

/// A sorted, coalesced set of half-open byte ranges.
#[derive(Debug, Clone, Default)]
struct RangeSet {
    /// Disjoint, sorted, non-adjacent spans.
    spans: Vec<(u64, u64)>,
}

impl RangeSet {
    /// Insert `start..end`, merging overlapping/adjacent spans.
    fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let i = self.spans.partition_point(|&(_, e)| e < start);
        let mut j = i;
        let (mut s, mut e) = (start, end);
        while j < self.spans.len() && self.spans[j].0 <= e {
            s = s.min(self.spans[j].0);
            e = e.max(self.spans[j].1);
            j += 1;
        }
        self.spans.splice(i..j, [(s, e)]);
    }

    /// The intersection of `start..end` with this set, as the overall
    /// overlapping span (min..max of all intersections), if any.
    fn overlap(&self, start: u64, end: u64) -> Option<(u64, u64)> {
        let i = self.spans.partition_point(|&(_, e)| e <= start);
        let mut hit: Option<(u64, u64)> = None;
        for &(s, e) in &self.spans[i..] {
            if s >= end {
                break;
            }
            let (os, oe) = (s.max(start), e.min(end));
            hit = Some(match hit {
                Some((hs, he)) => (hs.min(os), he.max(oe)),
                None => (os, oe),
            });
        }
        hit
    }
}

/// One node's accesses to one object within one synchronization
/// interval, with the vector-clock stamp shared by all of them.
#[derive(Debug, Clone)]
struct AccessRecord {
    node: usize,
    interval: u64,
    /// The node's vector clock at the time of these accesses (clocks
    /// only change at synchronization operations, so one stamp covers
    /// the whole interval).
    vc: Vec<u64>,
    reads: RangeSet,
    writes: RangeSet,
}

struct NodeClock {
    vc: Vec<u64>,
    interval: u64,
}

#[derive(Default)]
struct DetectorState {
    nodes: Vec<NodeClock>,
    /// Per-lock clock: the join of every releaser's clock so far.
    locks: BTreeMap<u32, Vec<u64>>,
    /// Barrier rendezvous: stamps published at entry, count of
    /// entered nodes, and the join every node copies at exit.
    barrier_stamps: Vec<Vec<u64>>,
    barrier_count: usize,
    exit_join: Vec<u64>,
    /// Live access records, per object, cleared at every barrier.
    objects: BTreeMap<u32, Vec<AccessRecord>>,
    /// Detected races keyed by normalized site pair (dedup + widen).
    races: BTreeMap<(u32, AccessSite, AccessSite), (u64, u64)>,
}

/// The cluster-wide ScC race detector (see module docs). One instance
/// is shared by all nodes of a run; every method is thread-safe.
pub struct RaceDetector {
    n: usize,
    inner: Mutex<DetectorState>,
}

impl RaceDetector {
    /// A detector for an `n`-node cluster.
    pub fn new(n: usize) -> RaceDetector {
        RaceDetector {
            n,
            inner: Mutex::new(DetectorState {
                nodes: (0..n)
                    .map(|p| {
                        let mut vc = vec![0; n];
                        vc[p] = 1; // segment numbering starts at 1
                        NodeClock { vc, interval: 0 }
                    })
                    .collect(),
                barrier_stamps: vec![Vec::new(); n],
                exit_join: vec![0; n],
                ..DetectorState::default()
            }),
        }
    }

    /// Record an access by `node` to bytes `start..end` of `object`
    /// and check it against every other node's live records.
    pub fn on_access(&self, node: usize, object: u32, start: u64, end: u64, write: bool) {
        if start >= end || self.n <= 1 {
            return;
        }
        let mut st = self.inner.lock();
        let st = &mut *st;
        let me = &st.nodes[node];
        let (my_vc, my_interval) = (me.vc.clone(), me.interval);
        let records = st.objects.entry(object).or_default();
        for r in records.iter() {
            if r.node == node {
                continue;
            }
            // r happens-before the current access iff this node has
            // synchronized with a release r's node made at or after r.
            if r.vc[r.node] <= my_vc[r.node] {
                continue;
            }
            // Unordered: any overlap with an opposing kind is a race.
            let opposing: &[(&RangeSet, bool)] = if write {
                &[(&r.writes, true), (&r.reads, false)]
            } else {
                &[(&r.writes, true)]
            };
            for &(set, other_wrote) in opposing {
                if let Some((os, oe)) = set.overlap(start, end) {
                    let a = AccessSite {
                        node: r.node,
                        interval: r.interval,
                        write: other_wrote,
                    };
                    let b = AccessSite {
                        node,
                        interval: my_interval,
                        write,
                    };
                    let (first, second) = if a <= b { (a, b) } else { (b, a) };
                    let span = st.races.entry((object, first, second)).or_insert((os, oe));
                    span.0 = span.0.min(os);
                    span.1 = span.1.max(oe);
                }
            }
        }
        // Fold the access into this node's record for the interval.
        let rec = match records
            .iter_mut()
            .find(|r| r.node == node && r.interval == my_interval)
        {
            Some(r) => r,
            None => {
                records.push(AccessRecord {
                    node,
                    interval: my_interval,
                    vc: my_vc,
                    reads: RangeSet::default(),
                    writes: RangeSet::default(),
                });
                records.last_mut().expect("just pushed")
            }
        };
        if write {
            rec.writes.insert(start, end);
        } else {
            rec.reads.insert(start, end);
        }
    }

    /// `node` acquired `lock`: join the lock's clock into the node.
    pub fn on_lock_acquire(&self, node: usize, lock: u32) {
        let mut st = self.inner.lock();
        let st = &mut *st;
        if let Some(lc) = st.locks.get(&lock) {
            let me = &mut st.nodes[node];
            for (v, l) in me.vc.iter_mut().zip(lc) {
                *v = (*v).max(*l);
            }
        }
        st.nodes[node].interval += 1;
    }

    /// `node` is releasing `lock`: publish the node's clock into the
    /// lock and start a new release segment. Call *before* the lock
    /// service hands the lock on, so the edge is in place when the
    /// next holder's acquire hook runs.
    pub fn on_lock_release(&self, node: usize, lock: u32) {
        let mut st = self.inner.lock();
        let st = &mut *st;
        let me = &mut st.nodes[node];
        let lc = st.locks.entry(lock).or_insert_with(|| vec![0; me.vc.len()]);
        for (l, v) in lc.iter_mut().zip(&me.vc) {
            *l = (*l).max(*v);
        }
        me.vc[node] += 1;
        me.interval += 1;
    }

    /// `node` is entering the cluster barrier: publish its clock.
    /// When the last node enters, the total join is computed and all
    /// access records are cleared (every recorded access now
    /// happens-before everything after the barrier). Call *before*
    /// the barrier service's rendezvous, so all entries are published
    /// by the time any exit hook runs.
    pub fn on_barrier_enter(&self, node: usize) {
        let mut st = self.inner.lock();
        let st = &mut *st;
        st.nodes[node].interval += 1;
        st.barrier_stamps[node] = st.nodes[node].vc.clone();
        st.barrier_count += 1;
        if st.barrier_count == self.n {
            let mut join = vec![0; self.n];
            for stamp in &st.barrier_stamps {
                for (j, s) in join.iter_mut().zip(stamp) {
                    *j = (*j).max(*s);
                }
            }
            st.exit_join = join;
            st.barrier_count = 0;
            st.objects.clear();
        }
    }

    /// `node` left the cluster barrier: adopt the total join and
    /// start a new release segment. Call after the barrier service
    /// returns.
    pub fn on_barrier_exit(&self, node: usize) {
        let mut st = self.inner.lock();
        let st = &mut *st;
        let join = st.exit_join.clone();
        let me = &mut st.nodes[node];
        me.vc = join;
        me.vc[node] += 1;
        me.interval += 1;
    }

    /// The deterministic report of everything detected so far.
    pub fn report(&self) -> RaceReport {
        let st = self.inner.lock();
        let mut races: Vec<Race> = st
            .races
            .iter()
            .map(|(&(object, first, second), &(start, end))| Race {
                object,
                start,
                end,
                first,
                second,
            })
            .collect();
        races.sort_by(|a, b| {
            (a.object, a.start, a.end, a.first, a.second)
                .cmp(&(b.object, b.start, b.end, b.first, b.second))
        });
        RaceReport { races }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsynchronized_write_write_is_a_race() {
        let d = RaceDetector::new(2);
        d.on_access(0, 7, 0, 8, true);
        d.on_access(1, 7, 4, 12, true);
        let rep = d.report();
        assert_eq!(rep.len(), 1);
        let r = &rep.races[0];
        assert_eq!((r.object, r.start, r.end), (7, 4, 8));
        assert!(r.first.write && r.second.write);
    }

    #[test]
    fn disjoint_ranges_do_not_race() {
        let d = RaceDetector::new(2);
        d.on_access(0, 7, 0, 8, true);
        d.on_access(1, 7, 8, 16, true);
        assert!(d.report().is_empty());
    }

    #[test]
    fn reads_do_not_race_with_reads() {
        let d = RaceDetector::new(2);
        d.on_access(0, 3, 0, 64, false);
        d.on_access(1, 3, 0, 64, false);
        assert!(d.report().is_empty());
    }

    #[test]
    fn lock_edge_orders_the_accesses() {
        let d = RaceDetector::new(2);
        d.on_lock_acquire(0, 1);
        d.on_access(0, 7, 0, 8, true);
        d.on_lock_release(0, 1);
        d.on_lock_acquire(1, 1);
        d.on_access(1, 7, 0, 8, true);
        d.on_lock_release(1, 1);
        assert!(d.report().is_empty(), "{}", d.report());
    }

    #[test]
    fn different_locks_do_not_order() {
        let d = RaceDetector::new(2);
        d.on_lock_acquire(0, 1);
        d.on_access(0, 7, 0, 8, true);
        d.on_lock_release(0, 1);
        d.on_lock_acquire(1, 2);
        d.on_access(1, 7, 0, 8, true);
        d.on_lock_release(1, 2);
        assert_eq!(d.report().len(), 1);
    }

    #[test]
    fn barrier_orders_and_clears() {
        let d = RaceDetector::new(3);
        d.on_access(0, 9, 0, 100, true);
        for p in 0..3 {
            d.on_barrier_enter(p);
        }
        for p in 0..3 {
            d.on_barrier_exit(p);
        }
        d.on_access(1, 9, 0, 100, false);
        d.on_access(2, 9, 0, 100, false);
        assert!(d.report().is_empty(), "{}", d.report());
    }

    #[test]
    fn transitive_lock_chain_orders() {
        // 0 -> 1 via lock A, 1 -> 2 via lock B: 0's write is ordered
        // before 2's read transitively.
        let d = RaceDetector::new(3);
        d.on_lock_acquire(0, 1);
        d.on_access(0, 5, 0, 4, true);
        d.on_lock_release(0, 1);
        d.on_lock_acquire(1, 1);
        d.on_lock_release(1, 1);
        d.on_lock_acquire(1, 2);
        d.on_lock_release(1, 2);
        d.on_lock_acquire(2, 2);
        d.on_access(2, 5, 0, 4, false);
        d.on_lock_release(2, 2);
        assert!(d.report().is_empty(), "{}", d.report());
    }

    #[test]
    fn repeated_conflicts_dedupe_and_widen() {
        let d = RaceDetector::new(2);
        d.on_access(0, 7, 0, 64, true);
        d.on_access(1, 7, 0, 8, true);
        d.on_access(1, 7, 32, 40, true);
        let rep = d.report();
        assert_eq!(rep.len(), 1, "{rep}");
        assert_eq!((rep.races[0].start, rep.races[0].end), (0, 40));
    }

    #[test]
    fn report_is_deterministic() {
        let run = || {
            let d = RaceDetector::new(4);
            for p in 0..4 {
                d.on_access(p, 1, 0, 16, true);
            }
            d.report()
        };
        assert_eq!(run(), run());
        assert!(!run().is_empty());
    }
}
