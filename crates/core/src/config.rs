//! Runtime configuration for a LOTS cluster.

use lots_net::NodeId;

use crate::error::DsmError;
use crate::layout::SEGMENT_BYTES;

/// Initial-home placement policy for a shared-object allocation
/// (chosen per-alloc via `DsmApi::try_alloc_placed`; plain `alloc` and
/// `alloc_named` use [`Placement::RoundRobin`]).
///
/// Placement only picks the *initial* home; the §3.4 migrating-home
/// protocol still moves single-writer objects to their writer at every
/// barrier, so placement composes with migration rather than replacing
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Home = object id modulo cluster size — the historical behaviour
    /// (and JIAJIA's page placement, §4.1).
    #[default]
    RoundRobin,
    /// Home pinned to one node (data that one rank owns logically,
    /// e.g. a coordinator structure).
    Fixed(NodeId),
    /// Home deferred to the first barrier at which the object was
    /// written: the single writer — or the lowest-ranked of several
    /// writers — becomes the home ("first touch" at interval
    /// granularity). Until then every copy is the valid zero-fill, so
    /// no fetch can observe the provisional home.
    FirstTouch,
}

impl Placement {
    /// Stable label used in reports and bench summaries.
    pub fn label(self) -> &'static str {
        match self {
            Placement::RoundRobin => "round-robin",
            Placement::Fixed(_) => "fixed",
            Placement::FirstTouch => "first-touch",
        }
    }

    /// Validate against cluster size `n`: a `Fixed` home outside
    /// `0..n` is a deterministic alloc-time config error on every
    /// system, never an index panic mid-protocol.
    pub fn check(self, n: usize) -> Result<(), DsmError> {
        match self {
            Placement::Fixed(requested) if requested >= n => {
                Err(DsmError::BadPlacement { requested, n })
            }
            _ => Ok(()),
        }
    }

    /// The directory's `(unit, segment) → (initial home, home pending)`
    /// function, evaluated identically on every node (§3.2's
    /// known-to-all-machines id keys the home). A LOTS object is
    /// `(id, 0)`, a stripe segment `(parent, s)`, a JIAJIA page
    /// `(page, 0)`. A first-touch home is provisional: it never serves
    /// a fetch (every copy stays the valid zero-fill) until the first
    /// write barrier assigns the real home to the first writer.
    pub fn home(self, unit: u32, seg: u32, n: usize) -> (NodeId, bool) {
        let rotated = (unit as usize + seg as usize) % n;
        match self {
            Placement::RoundRobin => (rotated, false),
            Placement::Fixed(node) => {
                debug_assert!(node < n, "Fixed placement validated at entry");
                (node, false)
            }
            Placement::FirstTouch => (rotated, true),
        }
    }
}

/// Striping configuration for large objects (the BlobSeer-inspired
/// answer to the single-home bottleneck): allocations larger than
/// [`Striping::segment_bytes`] are split into fixed-size segments, each
/// an ordinary directory object with its *own* home, so concurrent
/// misses on one hot object fan out across the cluster instead of
/// queueing on a single peer.
///
/// Segments inherit the full coherence machinery — twins, word diffs,
/// barrier write notices, swap, home migration — at segment
/// granularity. Writers publish immutable segment versions at each
/// barrier; a guard pins the published snapshot for its lifetime and
/// never observes in-flight writers (see README §"Striped objects &
/// versioning").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Striping {
    /// Segment size in bytes (word-aligned, > 0). Objects of at most
    /// this size stay unstriped; larger ones are split into
    /// `ceil(size / segment_bytes)` segments.
    pub segment_bytes: usize,
    /// Default per-segment placement: [`Placement::RoundRobin`] rotates
    /// homes by `(id + segment) % n`, [`Placement::Fixed`] pins every
    /// segment to one node, [`Placement::FirstTouch`] defers each segment's
    /// home to its first writer. An explicit `*_placed` allocation
    /// overrides this per object.
    pub placement: Placement,
}

impl Default for Striping {
    fn default() -> Striping {
        Striping {
            segment_bytes: crate::layout::DEFAULT_STRIPE_SEGMENT_BYTES,
            placement: Placement::RoundRobin,
        }
    }
}

impl Striping {
    /// Striping with the given segment size and round-robin segment
    /// homes.
    pub fn segments_of(segment_bytes: usize) -> Striping {
        Striping {
            segment_bytes,
            ..Striping::default()
        }
    }
}

/// Which free extent the DMM allocator picks when several fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitPolicy {
    /// Approximate best fit through the Figure 4 size-class queues —
    /// the paper's allocator and the historical default.
    #[default]
    BestFit,
    /// First fit in address order (from the region end the size class
    /// grows from): cheaper per allocation, more external
    /// fragmentation under churn — the trade-off the fragmentation
    /// counters in `NodeStats` make visible.
    FirstFit,
}

impl FitPolicy {
    /// Stable label used in reports and bench summaries.
    pub fn label(self) -> &'static str {
        match self {
            FitPolicy::BestFit => "best-fit",
            FitPolicy::FirstFit => "first-fit",
        }
    }
}

/// Object-lifecycle knobs: how the DMM allocator picks free extents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocConfig {
    /// Free-extent selection policy of the DMM allocator.
    pub fit: FitPolicy,
}

/// How lock-protected updates propagate (§3.4; the paper's choice is
/// [`LockProtocol::HomelessWriteUpdate`], the ablation keeps the
/// write-invalidate alternative it argues against).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockProtocol {
    /// Updates (on-demand diffs) travel with the lock grant — the
    /// paper's design, efficient for migratory/producer-consumer data.
    HomelessWriteUpdate,
    /// Grant carries invalidations; the acquirer refetches from the
    /// last releaser on access.
    WriteInvalidate,
}

/// How the lock managers store and serve update history (§3.5, Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffMode {
    /// Per-field (per-word) timestamps; diffs computed on demand
    /// against the requester's timestamp — no redundant data (Fig. 7b).
    PerFieldOnDemand,
    /// TreadMarks-style accumulated whole diffs keyed by timestamp;
    /// overlapping updates are re-sent (Fig. 7a) — the *diff
    /// accumulation* problem LOTS eliminates.
    AccumulatedDiffs,
}

/// Which eviction policy the dynamic memory mapper uses when the DMM
/// area is out of contiguous space (§3.3; one `swap::VictimSelector`
/// serves both). Both respect the
/// statement-pinning fence — objects touched by the current statement
/// are never candidates — and both produce byte-identical application
/// results; they differ only in *which* unpinned victim goes to disk,
/// and therefore in swap traffic and virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwapPolicyKind {
    /// Least-recently-used by statement stamp — the paper's §3.3 policy
    /// and the historical default.
    #[default]
    Lru,
    /// Pin-aware segmented LRU: objects re-referenced since they were
    /// mapped in (the hot barrier-interval working set) are protected;
    /// single-touch streaming objects are evicted first.
    SegLru,
}

impl SwapPolicyKind {
    /// Stable label used in reports and bench summaries.
    pub fn label(self) -> &'static str {
        match self {
            SwapPolicyKind::Lru => "lru",
            SwapPolicyKind::SegLru => "seglru",
        }
    }

    /// All selectable policies (test matrices sweep this).
    pub const ALL: [SwapPolicyKind; 2] = [SwapPolicyKind::Lru, SwapPolicyKind::SegLru];
}

/// Swap-subsystem knobs: eviction policy, write-back batching,
/// read-ahead and image compression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapConfig {
    /// Victim-selection policy.
    pub policy: SwapPolicyKind,
    /// Maximum victims written back per eviction trip (≥ 1). A batch
    /// pays the disk's per-operation cost once, so batching amortizes
    /// seeks under heavy eviction churn.
    pub batch_evict: usize,
    /// Stride read-ahead: on a demand swap-in, predict the next
    /// swapped-out object from the recent swap-in stride and start its
    /// disk read early.
    pub read_ahead: bool,
    /// RLE-compress swap images (data section plus the interval twin
    /// stored as a delta against the data). Disk time and backing-store
    /// capacity are charged for the bytes actually stored.
    pub compress: bool,
}

impl Default for SwapConfig {
    fn default() -> SwapConfig {
        SwapConfig {
            policy: SwapPolicyKind::Lru,
            batch_evict: 1,
            read_ahead: false,
            compress: true,
        }
    }
}

impl SwapConfig {
    /// The throughput-tuned bundle used by the large-object benchmarks:
    /// segmented LRU, 8-victim write-back batches, stride read-ahead
    /// and compressed images.
    pub fn tuned() -> SwapConfig {
        SwapConfig {
            policy: SwapPolicyKind::SegLru,
            batch_evict: 8,
            read_ahead: true,
            compress: true,
        }
    }

    /// The pre-overhaul swap path: linear-scan LRU, one victim per
    /// trip, no read-ahead, verbatim images. Benchmarks use this as the
    /// comparison baseline.
    pub fn legacy() -> SwapConfig {
        SwapConfig {
            policy: SwapPolicyKind::Lru,
            batch_evict: 1,
            read_ahead: false,
            compress: false,
        }
    }
}

/// Configuration of one LOTS cluster run.
#[derive(Debug, Clone)]
pub struct LotsConfig {
    /// Capacity of the DMM area arena per node. Paper: 512 MB; tests
    /// and experiments shrink it to force swapping at small scale.
    pub dmm_bytes: usize,
    /// Large-object-space support (dynamic mapping + pinning + swap).
    /// `false` gives LOTS-x, the paper's ablation in §4.1/§4.2 —
    /// objects are mapped permanently and must all fit in the DMM area.
    pub large_object_space: bool,
    /// Lock-path coherence protocol.
    pub lock_protocol: LockProtocol,
    /// Lock-manager diff bookkeeping mode.
    pub diff_mode: DiffMode,
    /// Home migration at barriers (§3.4). Disabling it fixes homes at
    /// their initial assignment (ablation: pure home-based barriers).
    pub home_migration: bool,
    /// Swap-subsystem configuration (policy, batching, read-ahead,
    /// compression). Only meaningful when
    /// [`LotsConfig::large_object_space`] is enabled.
    pub swap: SwapConfig,
    /// Object-lifecycle configuration (allocator fit policy).
    pub alloc: AllocConfig,
    /// Large-object striping (`None` keeps every object whole at one
    /// home — the historical behaviour). When set, allocations larger
    /// than [`Striping::segment_bytes`] are split into per-segment
    /// directory objects with independent homes and barrier-published
    /// snapshot versions.
    pub striping: Option<Striping>,
    /// Persistence configuration (`None` — the default — disables the
    /// diff journal entirely: no journal is constructed, no records
    /// are appended, no compaction daemon is registered, and every
    /// report is bit-identical to a run without the persistence
    /// subsystem).
    pub persist: Option<lots_persist::PersistConfig>,
}

impl Default for LotsConfig {
    fn default() -> LotsConfig {
        LotsConfig {
            dmm_bytes: SEGMENT_BYTES as usize,
            large_object_space: true,
            lock_protocol: LockProtocol::HomelessWriteUpdate,
            diff_mode: DiffMode::PerFieldOnDemand,
            home_migration: true,
            swap: SwapConfig::default(),
            alloc: AllocConfig::default(),
            striping: None,
            persist: None,
        }
    }
}

impl LotsConfig {
    /// A small-arena configuration convenient for tests: forces the
    /// swap machinery to engage at kilobyte scale.
    pub fn small(dmm_bytes: usize) -> LotsConfig {
        LotsConfig {
            dmm_bytes,
            ..LotsConfig::default()
        }
    }

    /// The LOTS-x variant (§4.1): large-object-space support disabled.
    pub fn lots_x(dmm_bytes: usize) -> LotsConfig {
        LotsConfig {
            dmm_bytes,
            large_object_space: false,
            ..LotsConfig::default()
        }
    }

    /// Replace the swap-subsystem configuration.
    #[must_use]
    pub fn with_swap(mut self, swap: SwapConfig) -> LotsConfig {
        self.swap = swap;
        self
    }

    /// Enable large-object striping with the given configuration.
    #[must_use]
    pub fn with_striping(mut self, striping: Striping) -> LotsConfig {
        self.striping = Some(striping);
        self
    }

    /// Enable the persistence subsystem (per-node diff journal,
    /// background compaction, checkpoint manifests) with the given
    /// configuration.
    #[must_use]
    pub fn with_persist(mut self, persist: lots_persist::PersistConfig) -> LotsConfig {
        self.persist = Some(persist);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = LotsConfig::default();
        assert_eq!(c.dmm_bytes, 512 << 20);
        assert!(c.large_object_space);
        assert_eq!(c.lock_protocol, LockProtocol::HomelessWriteUpdate);
        assert_eq!(c.diff_mode, DiffMode::PerFieldOnDemand);
        assert!(c.home_migration);
    }

    #[test]
    fn lots_x_disables_large_object_space() {
        let c = LotsConfig::lots_x(1 << 20);
        assert!(!c.large_object_space);
        assert_eq!(c.dmm_bytes, 1 << 20);
    }

    #[test]
    fn thresholds_ordered() {
        // The §3.2 split every node's allocator is built with: large
        // blocks grow up from the bottom of the lower half, medium ones
        // down from its top, small ones pack into the upper half.
        use crate::alloc::DmmAllocator;
        use crate::layout::{LARGE_OBJECT_BYTES, SMALL_OBJECT_BYTES};
        let mut a = DmmAllocator::new(1 << 20, SMALL_OBJECT_BYTES, LARGE_OBJECT_BYTES);
        let mut at = |size| a.alloc(size).expect("room");
        let (small, medium, large) = (
            at(SMALL_OBJECT_BYTES - 8),
            at(SMALL_OBJECT_BYTES),
            at(LARGE_OBJECT_BYTES),
        );
        assert!(large < medium && medium < small, "{large} {medium} {small}");
    }

    #[test]
    fn swap_defaults_keep_lru_single_victim() {
        let c = LotsConfig::default();
        assert_eq!(c.swap.policy, SwapPolicyKind::Lru);
        assert_eq!(c.swap.batch_evict, 1);
        assert!(!c.swap.read_ahead);
        assert!(c.swap.compress);
        let legacy = SwapConfig::legacy();
        assert!(!legacy.compress);
        let tuned = SwapConfig::tuned();
        assert_eq!(tuned.policy, SwapPolicyKind::SegLru);
        assert!(tuned.batch_evict > 1);
        assert!(tuned.read_ahead);
    }

    #[test]
    fn policy_labels_are_stable() {
        let labels: Vec<&str> = SwapPolicyKind::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["lru", "seglru"]);
    }

    #[test]
    fn alloc_defaults_preserve_seed_behavior() {
        let c = LotsConfig::default();
        assert_eq!(c.alloc.fit, FitPolicy::BestFit);
    }

    #[test]
    fn placement_and_fit_labels_are_stable() {
        assert_eq!(Placement::RoundRobin.label(), "round-robin");
        assert_eq!(Placement::Fixed(3).label(), "fixed");
        assert_eq!(Placement::FirstTouch.label(), "first-touch");
        assert_eq!(FitPolicy::BestFit.label(), "best-fit");
        assert_eq!(FitPolicy::FirstFit.label(), "first-fit");
    }

    #[test]
    fn placement_home_is_pinned_for_every_placement() {
        // (placement, unit, seg, n) → (home, pending), hard-coded: the
        // homes LOTS objects, stripe segments and JIAJIA pages get.
        let table = [
            (Placement::RoundRobin, 0, 0, 4, (0, false)),
            (Placement::RoundRobin, 7, 0, 4, (3, false)),
            (Placement::RoundRobin, 7, 3, 4, (2, false)),
            (Placement::RoundRobin, u32::MAX, u32::MAX, 3, (0, false)),
            (Placement::Fixed(2), 9, 5, 4, (2, false)),
            (Placement::FirstTouch, 5, 0, 4, (1, true)),
            (Placement::FirstTouch, 5, 2, 4, (3, true)),
        ];
        for (placement, unit, seg, n, want) in table {
            assert_eq!(
                placement.home(unit, seg, n),
                want,
                "{placement:?}.home({unit}, {seg}, {n})"
            );
        }
        assert_eq!(Placement::Fixed(3).check(4), Ok(()));
        assert_eq!(
            Placement::Fixed(4).check(4),
            Err(DsmError::BadPlacement { requested: 4, n: 4 })
        );
        assert_eq!(Placement::FirstTouch.check(1), Ok(()));
    }

    #[test]
    fn striping_is_off_by_default() {
        assert_eq!(LotsConfig::default().striping, None);
        assert_eq!(LotsConfig::small(1 << 20).striping, None);
        assert_eq!(LotsConfig::lots_x(1 << 20).striping, None);
    }

    #[test]
    fn with_striping_sets_segment_size() {
        let c = LotsConfig::default().with_striping(Striping::segments_of(1 << 20));
        let s = c.striping.unwrap();
        assert_eq!(s.segment_bytes, 1 << 20);
        assert_eq!(s.placement, Placement::RoundRobin);
        assert_eq!(
            Striping::default().segment_bytes,
            crate::layout::DEFAULT_STRIPE_SEGMENT_BYTES
        );
    }
}
