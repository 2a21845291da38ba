//! Time-breakdown accounting.
//!
//! §4.1 of the paper decomposes the LOTS/JIAJIA execution-time gap into
//! (1) coherence-protocol efficiency, (2) object- vs page-based access
//! checking, and (3) large-object-space support, and §4.2 reports the
//! share of time spent in access checking. To reproduce those analyses
//! every node tracks *where* its virtual time went, per category.

use std::sync::atomic::Ordering::Relaxed;

use crate::clock::{SimClock, SimDuration, SimInstant};

/// Category of virtual time spent on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeCategory {
    /// Application compute (element operations).
    Compute,
    /// Shared-object access checking (factor 2 of §4.1).
    AccessCheck,
    /// Large-object-space support: pinning + map checks + swap I/O
    /// (factor 3 of §4.1).
    LargeObject,
    /// Waiting on network transfers and remote service.
    Network,
    /// Disk I/O for the swap backing store.
    Disk,
    /// Twin creation, diff computation/application.
    Diffing,
    /// Synchronization stalls (barrier wait, lock wait).
    SyncWait,
    /// Protocol handler service on behalf of remote nodes.
    Handler,
}

/// Every category, in accumulator-slot order: a category's slot is
/// its position here (= its discriminant).
pub const ALL_CATEGORIES: [TimeCategory; 8] = [
    TimeCategory::Compute,
    TimeCategory::AccessCheck,
    TimeCategory::LargeObject,
    TimeCategory::Network,
    TimeCategory::Disk,
    TimeCategory::Diffing,
    TimeCategory::SyncWait,
    TimeCategory::Handler,
];

impl TimeCategory {
    pub fn name(self) -> &'static str {
        match self {
            TimeCategory::Compute => "compute",
            TimeCategory::AccessCheck => "access-check",
            TimeCategory::LargeObject => "large-object",
            TimeCategory::Network => "network",
            TimeCategory::Disk => "disk",
            TimeCategory::Diffing => "diffing",
            TimeCategory::SyncWait => "sync-wait",
            TimeCategory::Handler => "handler",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One row of a counter table declared with
/// [`counters!`](crate::counters): what a report, a sum or a
/// fingerprint needs to handle the counter without naming it.
pub struct Counter<S: 'static> {
    /// The counter's (and its getter's) name.
    pub name: &'static str,
    /// Read the counter.
    pub get: fn(&S) -> u64,
    /// Add to the counter.
    pub add: fn(&S, u64),
    /// Marked `[restore_only]` in the table: only a restore's replay
    /// counts it (0 in an original run, > 0 in its restore), so a
    /// fingerprint comparing a run with its restore leaves it out.
    pub restore_only: bool,
}

/// Declare a table of `u64` counters, once. The table is the only
/// list of what the counters are: adding a counter is one row here
/// plus its increment site (a hand-written recorder beside the
/// table); sums, reports and fingerprints pick it up from the rows.
///
/// ```text
/// counters! {
///     /// Docs of the stats type.
///     pub struct Stats, rows ROWS, time time_ns: [8];
///     /// Docs of the counter and its getter.
///     some_counter,
///     only_counted_by_a_restore [restore_only],
/// }
/// ```
///
/// For `pub struct Stats` it generates a cheaply cloneable handle on
/// shared atomics (a private `Inner` with one `AtomicU64` per row, plus
/// the optional `time` slot array), a `Stats::name()` getter per row,
/// the row list `ROWS: &[Counter<Stats>]` in declaration order, and
/// `Stats::absorb(&self, other)`, which adds every row and every time
/// slot of `other` into `self`. One table per module (the inner type is
/// always called `Inner`).
#[macro_export]
macro_rules! counters {
    (@restore_only) => { false };
    (@restore_only restore_only) => { true };
    (
        $(#[$meta:meta])*
        pub struct $stats:ident, rows $rows:ident $(, time $slots:ident: [$n:expr])?;
        $($(#[$doc:meta])* $name:ident $([$flag:ident])?,)*
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default)]
        pub struct $stats {
            inner: ::std::sync::Arc<Inner>,
        }

        #[derive(Debug, Default)]
        struct Inner {
            $($slots: [::std::sync::atomic::AtomicU64; $n],)?
            $($name: ::std::sync::atomic::AtomicU64,)*
        }

        impl $stats {
            $(
                $(#[$doc])*
                pub fn $name(&self) -> u64 {
                    self.inner.$name.load(::std::sync::atomic::Ordering::Relaxed)
                }
            )*

            /// Add every counter (and time slot) of `other` into this
            /// one: Σ over nodes is a fresh value absorbing each node.
            pub fn absorb(&self, other: &$stats) {
                for row in $rows {
                    (row.add)(self, (row.get)(other));
                }
                $(
                    for (mine, theirs) in self.inner.$slots.iter().zip(&other.inner.$slots) {
                        mine.fetch_add(
                            theirs.load(::std::sync::atomic::Ordering::Relaxed),
                            ::std::sync::atomic::Ordering::Relaxed,
                        );
                    }
                )?
            }
        }

        #[doc = concat!("Every counter of a [`", stringify!($stats), "`], in declaration order.")]
        pub const $rows: &[$crate::Counter<$stats>] = &[$(
            $crate::Counter {
                name: stringify!($name),
                get: $stats::$name,
                add: |s, n| {
                    s.inner.$name.fetch_add(n, ::std::sync::atomic::Ordering::Relaxed);
                },
                restore_only: $crate::counters!(@restore_only $($flag)?),
            },
        )*];
    };
}

counters! {
    /// Lock-free per-node accumulator of virtual time by category, plus
    /// event counters used by the §4.2 analysis.
    pub struct NodeStats, rows COUNTERS, time time_ns: [ALL_CATEGORIES.len()];
    /// Software access checks run.
    access_checks,
    /// Objects swapped out to the backing store.
    swaps_out,
    /// Objects swapped back in.
    swaps_in,
    /// Bytes written to the backing store by swap-outs (post-compression).
    swap_out_bytes,
    /// Bytes read from the backing store by swap-ins (post-compression).
    swap_in_bytes,
    /// Batched eviction trips booked on the disk device. The mean batch
    /// size is `swaps_out_written / swap_batches` (clean re-evictions
    /// skip the disk and belong to no batch).
    swap_batches,
    /// Swap-ins that hit the read-ahead buffer instead of issuing a
    /// demand read.
    prefetch_hits,
    /// SIGSEGV-modeled page faults (page-based systems).
    page_faults,
    /// Diffs created.
    diffs_created,
    /// Diff bytes put on the wire.
    diff_bytes_sent,
    /// Objects reclaimed by `free` (counted at barrier reclamation).
    objects_freed,
    /// Cumulative logical bytes of objects reclaimed by `free`.
    freed_object_bytes,
    /// Bytes currently free in the DMM arena (gauge).
    dmm_free_bytes,
    /// Largest contiguous free DMM extent (gauge).
    dmm_largest_hole,
    /// Object/page copy requests this node served as home.
    home_requests_served,
    /// Payload bytes this node shipped serving home requests.
    home_bytes_served,
    /// Immutable segment versions published at barriers.
    versions_published,
    /// Superseded segment versions reclaimed at barriers.
    versions_reclaimed,
    /// Crash-rejoin rounds this node went through.
    rejoin_rounds,
    /// Journal bytes read back from the node's own log during rejoins.
    rejoin_log_bytes,
    /// Directory/name-table/master bytes re-fetched from peers during
    /// rejoins.
    rejoin_peer_bytes,
    /// Journal records appended by this node.
    log_records,
    /// Journal bytes appended by this node.
    log_bytes_appended,
    /// Background compaction runs on this node's log.
    compaction_runs,
    /// Log bytes reclaimed by compaction.
    compaction_bytes_reclaimed,
    /// Checkpoint manifest bytes appended by this node.
    checkpoint_bytes,
    /// Barriers this node replayed past the checkpoint it restored
    /// from (0 outside restore runs).
    restore_replay_barriers [restore_only],
}

/// Hottest-home load imbalance of a per-node `home_bytes_served`
/// series: the maximum over the per-node mean, in permille (integer
/// math, so deterministic). `1000` is a perfectly balanced cluster; a
/// single-home hotspot on an `n`-node cluster reads `n × 1000`; `0`
/// means no home traffic at all.
pub fn home_load_ratio_permille(per_node: impl IntoIterator<Item = u64>) -> u64 {
    let (mut max, mut total, mut n) = (0u64, 0u128, 0u128);
    for bytes in per_node {
        max = max.max(bytes);
        total += bytes as u128;
        n += 1;
    }
    (max as u128 * n * 1000).checked_div(total).unwrap_or(0) as u64
}

impl NodeStats {
    pub fn new() -> NodeStats {
        NodeStats::default()
    }

    #[inline]
    pub fn charge(&self, cat: TimeCategory, d: SimDuration) {
        self.inner.time_ns[cat.index()].fetch_add(d.0, Relaxed);
    }

    /// Move `clock` forward to `t` (never back) and charge the advance
    /// to `cat`; returns the clock's new time. A wait charges only what
    /// it moves: time charged elsewhere meanwhile, e.g. by the node's
    /// comm task while the caller was parked, is not counted twice.
    pub fn charge_until(&self, cat: TimeCategory, clock: &SimClock, t: SimInstant) -> SimInstant {
        let before = clock.now();
        let now = clock.advance_to(t);
        self.charge(cat, now.saturating_sub(before));
        now
    }

    #[inline]
    pub fn time_in(&self, cat: TimeCategory) -> SimDuration {
        SimDuration(self.inner.time_ns[cat.index()].load(Relaxed))
    }

    pub fn total_accounted(&self) -> SimDuration {
        SimDuration(self.inner.time_ns.iter().map(|a| a.load(Relaxed)).sum())
    }

    /// What was counted between `before` (an [`absorb`]ed snapshot of
    /// this node's stats) and now: every row and time slot, as a fresh
    /// value. A gauge that fell reads 0.
    ///
    /// [`absorb`]: NodeStats::absorb
    pub fn since(&self, before: &NodeStats) -> NodeStats {
        let delta = NodeStats::new();
        for row in COUNTERS {
            (row.add)(&delta, (row.get)(self).saturating_sub((row.get)(before)));
        }
        for cat in ALL_CATEGORIES {
            delta.charge(cat, self.time_in(cat).saturating_sub(before.time_in(cat)));
        }
        delta
    }

    #[inline]
    pub fn count_access_checks(&self, n: u64) {
        self.inner.access_checks.fetch_add(n, Relaxed);
    }

    /// Record one object swapped out, with the bytes actually written
    /// to the backing store (compressed size when compression is on).
    #[inline]
    pub fn count_swap_out(&self, stored_bytes: u64) {
        self.inner.swaps_out.fetch_add(1, Relaxed);
        self.inner.swap_out_bytes.fetch_add(stored_bytes, Relaxed);
    }

    /// Record one object swapped back in, with the bytes actually read
    /// from the backing store.
    #[inline]
    pub fn count_swap_in(&self, stored_bytes: u64) {
        self.inner.swaps_in.fetch_add(1, Relaxed);
        self.inner.swap_in_bytes.fetch_add(stored_bytes, Relaxed);
    }

    /// Record one batched eviction trip to the disk device.
    #[inline]
    pub fn count_swap_batch(&self) {
        self.inner.swap_batches.fetch_add(1, Relaxed);
    }

    /// Record a swap-in served from the read-ahead buffer.
    #[inline]
    pub fn count_prefetch_hit(&self) {
        self.inner.prefetch_hits.fetch_add(1, Relaxed);
    }

    /// Record one object reclaimed by the lifecycle API, with its
    /// logical byte size.
    #[inline]
    pub fn count_object_freed(&self, logical_bytes: u64) {
        self.inner.objects_freed.fetch_add(1, Relaxed);
        self.inner
            .freed_object_bytes
            .fetch_add(logical_bytes, Relaxed);
    }

    /// Mirror the DMM allocator's fragmentation gauges (free bytes and
    /// largest free extent); updated by the owning node on every
    /// allocator transition.
    #[inline]
    pub fn set_dmm_gauges(&self, free_bytes: u64, largest_hole: u64) {
        self.inner.dmm_free_bytes.store(free_bytes, Relaxed);
        self.inner.dmm_largest_hole.store(largest_hole, Relaxed);
    }

    /// Record one copy/page request this node served as home, with the
    /// payload bytes shipped. The per-node spread of this counter is
    /// the home-load profile that striping flattens.
    #[inline]
    pub fn count_home_request(&self, bytes: u64) {
        self.inner.home_requests_served.fetch_add(1, Relaxed);
        self.inner.home_bytes_served.fetch_add(bytes, Relaxed);
    }

    /// Record one immutable segment version published at a barrier
    /// (counted at the segment's home).
    #[inline]
    pub fn count_version_published(&self) {
        self.inner.versions_published.fetch_add(1, Relaxed);
    }

    /// Record one superseded segment version reclaimed at a barrier
    /// (its twin snapshot discarded).
    #[inline]
    pub fn count_version_reclaimed(&self) {
        self.inner.versions_reclaimed.fetch_add(1, Relaxed);
    }

    /// Record one crash-rejoin round completed by this node, with the
    /// directory/name-table/master bytes re-fetched from peer replicas.
    #[inline]
    pub fn count_rejoin(&self, peer_bytes: u64) {
        self.inner.rejoin_rounds.fetch_add(1, Relaxed);
        self.inner.rejoin_peer_bytes.fetch_add(peer_bytes, Relaxed);
    }

    /// Record journal bytes a rejoining node read back from its own
    /// durable log (persistence on: masters rebuilt locally instead of
    /// being re-shipped by peers).
    #[inline]
    pub fn count_rejoin_log_bytes(&self, bytes: u64) {
        self.inner.rejoin_log_bytes.fetch_add(bytes, Relaxed);
    }

    /// Total bytes a rejoin cost, from either source.
    pub fn rejoin_bytes(&self) -> u64 {
        self.rejoin_log_bytes() + self.rejoin_peer_bytes()
    }

    /// Record one barrier's journal append batch.
    #[inline]
    pub fn count_log_append(&self, records: u64, bytes: u64) {
        self.inner.log_records.fetch_add(records, Relaxed);
        self.inner.log_bytes_appended.fetch_add(bytes, Relaxed);
    }

    /// Record one background compaction run and the log bytes it
    /// reclaimed.
    #[inline]
    pub fn count_compaction(&self, bytes_reclaimed: u64) {
        self.inner.compaction_runs.fetch_add(1, Relaxed);
        self.inner
            .compaction_bytes_reclaimed
            .fetch_add(bytes_reclaimed, Relaxed);
    }

    /// Record the bytes of one sealed checkpoint manifest.
    #[inline]
    pub fn count_checkpoint(&self, manifest_bytes: u64) {
        self.inner
            .checkpoint_bytes
            .fetch_add(manifest_bytes, Relaxed);
    }

    /// Record one barrier replayed beyond the restored checkpoint.
    #[inline]
    pub fn count_restore_replay_barrier(&self) {
        self.inner.restore_replay_barriers.fetch_add(1, Relaxed);
    }

    #[inline]
    pub fn count_page_fault(&self) {
        self.inner.page_faults.fetch_add(1, Relaxed);
    }

    #[inline]
    pub fn count_diff(&self, bytes_sent: u64) {
        self.inner.diffs_created.fetch_add(1, Relaxed);
        self.inner.diff_bytes_sent.fetch_add(bytes_sent, Relaxed);
    }

    /// Render a one-line breakdown, for harness output.
    pub fn breakdown(&self) -> String {
        let mut parts = Vec::with_capacity(ALL_CATEGORIES.len());
        for cat in ALL_CATEGORIES {
            let t = self.time_in(cat);
            if t > SimDuration::ZERO {
                parts.push(format!("{}={}", cat.name(), t));
            }
        }
        parts.join(" ")
    }
}

/// Whole-run counters from the virtual-time scheduler, reported once
/// per cluster run.
///
/// `turns`, `wakes`, `epochs` and `handoffs` are pure functions of the
/// simulated schedule: identical run to run for the same workload
/// (`turns`, `wakes` and `epochs` are part of the byte-identity
/// contract). `worker_busy_ns` and `threads` describe the *host*
/// execution; they are informative only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedSummary {
    /// Task dispatches over the whole run.
    pub turns: u64,
    /// Wake calls delivered (including sticky wakes and hints).
    pub wakes: u64,
    /// Epoch barriers crossed (batch selections).
    pub epochs: u64,
    /// Application-task dispatches made by a thread other than the
    /// dispatched task's own: the turns that cost an OS-thread
    /// hand-off (`unpark` there, `park` here). The rest of an
    /// application task's turns went on without one — the task ended
    /// its turn and was itself dispatched next, or absorbed a sticky
    /// wake.
    pub handoffs: u64,
    /// Tasks dispatched at once: always 1 (the engine dispatches a
    /// batch one member at a time).
    pub max_concurrent: usize,
    /// Host nanoseconds spent inside turns; one element. Host-side;
    /// informative only.
    pub worker_busy_ns: Vec<u64>,
    /// OS threads that bound themselves to a task: one per application
    /// task, none for daemons.
    pub threads: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_read_back() {
        let s = NodeStats::new();
        s.charge(TimeCategory::Compute, SimDuration(100));
        s.charge(TimeCategory::Compute, SimDuration(50));
        s.charge(TimeCategory::Disk, SimDuration(7));
        assert_eq!(s.time_in(TimeCategory::Compute), SimDuration(150));
        assert_eq!(s.time_in(TimeCategory::Disk), SimDuration(7));
        assert_eq!(s.time_in(TimeCategory::Network), SimDuration::ZERO);
        assert_eq!(s.total_accounted(), SimDuration(157));
    }

    #[test]
    fn counters_accumulate() {
        let s = NodeStats::new();
        s.count_access_checks(10);
        s.count_access_checks(5);
        s.count_swap_out(100);
        s.count_swap_in(60);
        s.count_swap_in(40);
        s.count_swap_batch();
        s.count_prefetch_hit();
        s.count_diff(128);
        s.count_diff(64);
        s.count_home_request(4096);
        s.count_home_request(512);
        s.count_version_published();
        s.count_version_published();
        s.count_version_reclaimed();
        assert_eq!(s.home_requests_served(), 2);
        assert_eq!(s.home_bytes_served(), 4608);
        assert_eq!(s.versions_published(), 2);
        assert_eq!(s.versions_reclaimed(), 1);
        assert_eq!(s.access_checks(), 15);
        assert_eq!(s.swaps_out(), 1);
        assert_eq!(s.swaps_in(), 2);
        assert_eq!(s.swap_out_bytes(), 100);
        assert_eq!(s.swap_in_bytes(), 100);
        assert_eq!(s.swap_batches(), 1);
        assert_eq!(s.prefetch_hits(), 1);
        assert_eq!(s.diffs_created(), 2);
        assert_eq!(s.diff_bytes_sent(), 192);
    }

    #[test]
    fn lifecycle_counters_and_gauges() {
        let s = NodeStats::new();
        s.count_object_freed(4096);
        s.count_object_freed(1024);
        assert_eq!(s.objects_freed(), 2);
        assert_eq!(s.freed_object_bytes(), 5120);
        s.set_dmm_gauges(1000, 400);
        s.set_dmm_gauges(800, 300); // gauges overwrite, not accumulate
        assert_eq!(s.dmm_free_bytes(), 800);
        assert_eq!(s.dmm_largest_hole(), 300);
    }

    #[test]
    fn persistence_counters_accumulate() {
        let s = NodeStats::new();
        s.count_log_append(5, 512);
        s.count_log_append(2, 100);
        s.count_compaction(300);
        s.count_checkpoint(128);
        s.count_restore_replay_barrier();
        s.count_restore_replay_barrier();
        s.count_rejoin(1000);
        s.count_rejoin_log_bytes(400);
        assert_eq!(s.log_records(), 7);
        assert_eq!(s.log_bytes_appended(), 612);
        assert_eq!(s.compaction_runs(), 1);
        assert_eq!(s.compaction_bytes_reclaimed(), 300);
        assert_eq!(s.checkpoint_bytes(), 128);
        assert_eq!(s.restore_replay_barriers(), 2);
        assert_eq!(s.rejoin_rounds(), 1);
        assert_eq!(s.rejoin_peer_bytes(), 1000);
        assert_eq!(s.rejoin_log_bytes(), 400);
        assert_eq!(s.rejoin_bytes(), 1400);
    }

    #[test]
    fn clones_share_counters() {
        let s = NodeStats::new();
        let s2 = s.clone();
        s.count_page_fault();
        assert_eq!(s2.page_faults(), 1);
    }

    #[test]
    fn breakdown_lists_only_nonzero() {
        let s = NodeStats::new();
        s.charge(TimeCategory::Network, SimDuration::from_micros(3));
        let b = s.breakdown();
        assert!(b.contains("network="));
        assert!(!b.contains("compute="));
    }

    #[test]
    fn all_categories_lists_every_category_at_its_own_slot() {
        for (slot, c) in ALL_CATEGORIES.into_iter().enumerate() {
            assert_eq!(c.index(), slot, "{} out of order", c.name());
        }
    }

    #[test]
    fn counter_table_reads_the_same_atomics_as_the_getters() {
        let s = NodeStats::new();
        s.count_swap_out(100);
        s.count_page_fault();
        let by_name = |name: &str| {
            let row = COUNTERS.iter().find(|r| r.name == name).expect(name);
            (row.get)(&s)
        };
        assert_eq!(by_name("swaps_out"), 1);
        assert_eq!(by_name("swap_out_bytes"), 100);
        assert_eq!(by_name("page_faults"), 1);
        assert_eq!(by_name("access_checks"), 0);
        let names: std::collections::BTreeSet<_> = COUNTERS.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), COUNTERS.len(), "counter names are unique");
    }

    #[test]
    fn absorb_sums_every_row_and_slot_and_since_takes_them_back() {
        let (a, b) = (NodeStats::new(), NodeStats::new());
        a.count_swap_out(100);
        a.charge(TimeCategory::Disk, SimDuration(7));
        b.count_swap_out(20);
        b.count_page_fault();
        b.charge(TimeCategory::Disk, SimDuration(3));
        let sum = NodeStats::new();
        sum.absorb(&a);
        let before = NodeStats::new();
        before.absorb(&sum);
        sum.absorb(&b);
        assert_eq!((sum.swaps_out(), sum.swap_out_bytes()), (2, 120));
        assert_eq!(sum.page_faults(), 1);
        assert_eq!(sum.time_in(TimeCategory::Disk), SimDuration(10));
        let delta = sum.since(&before);
        for row in COUNTERS {
            assert_eq!((row.get)(&delta), (row.get)(&b), "{}", row.name);
        }
        for cat in ALL_CATEGORIES {
            assert_eq!(delta.time_in(cat), b.time_in(cat), "{}", cat.name());
        }
    }

    #[test]
    fn exactly_one_row_is_restore_only() {
        let marked: Vec<_> = COUNTERS
            .iter()
            .filter(|r| r.restore_only)
            .map(|r| r.name)
            .collect();
        assert_eq!(marked, ["restore_replay_barriers"]);
    }

    #[test]
    fn home_load_ratio_is_max_over_mean() {
        assert_eq!(home_load_ratio_permille([]), 0);
        assert_eq!(home_load_ratio_permille([0, 0]), 0);
        assert_eq!(home_load_ratio_permille([5, 5, 5, 5]), 1000);
        assert_eq!(home_load_ratio_permille([0, 8, 0, 0]), 4000);
        assert_eq!(home_load_ratio_permille([u64::MAX, u64::MAX]), 1000);
    }
}
