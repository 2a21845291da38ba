//! The LOTS memory allocator (§3.2, Figure 4).
//!
//! The DMM arena is split in half. The upper half serves small objects
//! through page-packing slabs; in the lower half, medium objects grow
//! downward from the middle and large objects upward from the bottom —
//! the space-efficient placement policy of §3.2. Figure 4 keeps the
//! free blocks in 1 024 size-class queues and takes the best fit from
//! the first class upward that holds one; here each region keeps one
//! queue of its free extents ordered by length, then offset. The
//! classes are consecutive size ranges, so the first fitting extent of
//! the lowest class that has one is the shortest fitting extent
//! overall — the first entry of the ordered queue at or after the
//! request's size — and the one queue places every block where the
//! 1 024 would (`tests::a_fixed_churn_places_every_block_where_it_always_did`).
//! The largest hole is its last entry, and an empty region costs no
//! queue headers. A barrier returns all the copies it drops through
//! [`DmmAllocator::free_many`]: sorted, run-coalesced, one queue
//! insertion per run of adjacent blocks.
//!
//! No index sits beside the two regions: a block's offset says what
//! it is — a medium or large block if it lies in the lower half, a slab
//! slot otherwise — so `free` needs no per-block lookup, and the slab
//! finds a page's state by its page number and a slot size's open
//! pages by its grain count. What does get looked up is what only the
//! allocator knows: the lower region's used queue (the block's size,
//! and whether a block starts at the offset at all) and the page's
//! free slots. An offset that starts no live block panics in either
//! half.

pub mod region;
pub mod slab;

use crate::config::FitPolicy;
use crate::layout::PAGE_BYTES;
use region::{Dir, Region};
use slab::SlabPages;

/// Allocation granularity in bytes.
pub const GRAIN: usize = 8;

/// Round a request up to the allocation granularity.
#[inline]
pub fn round_up(size: usize) -> usize {
    size.div_ceil(GRAIN) * GRAIN
}

/// A point-in-time snapshot of the allocator's fragmentation state —
/// the §3.2 health metrics surfaced through `NodeStats`, `NodeReport`
/// and `BENCH_summary` (Sears & van Ingen: large-object stores live or
/// die by their allocate/free churn behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FragStats {
    /// Bytes currently free across both DMM regions.
    pub free_bytes: u64,
    /// Largest single free extent (the biggest object mappable without
    /// swapping).
    pub largest_hole: u64,
    /// External fragmentation in permille: `1000 × (1 − largest_hole /
    /// free_bytes)`, 0 when nothing is free. 0 means all free space is
    /// one hole; 999 means the free space is shattered.
    pub external_frag_permille: u64,
}

impl FragStats {
    /// Compute the ratio form from the two gauges.
    pub fn from_gauges(free_bytes: u64, largest_hole: u64) -> FragStats {
        let external_frag_permille = (largest_hole * 1000)
            .checked_div(free_bytes)
            .map_or(0, |filled| 1000 - filled);
        FragStats {
            free_bytes,
            largest_hole,
            external_frag_permille,
        }
    }
}

/// Allocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The object can never fit (exceeds its region's capacity).
    TooLarge {
        /// Requested bytes.
        size: usize,
        /// Largest size this allocator can ever satisfy.
        max: usize,
    },
    /// No contiguous space right now — the mapper must swap (§3.3).
    NoSpace {
        /// Requested bytes.
        size: usize,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::TooLarge { size, max } => {
                write!(
                    f,
                    "object of {size} bytes exceeds maximum object size {max}"
                )
            }
            AllocError::NoSpace { size } => {
                write!(
                    f,
                    "no contiguous DMM space for {size} bytes (swap required)"
                )
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Allocator over one node's DMM arena.
#[derive(Debug)]
pub struct DmmAllocator {
    lower: Region,
    upper: Region,
    slabs: SlabPages,
    small_threshold: usize,
    large_threshold: usize,
    capacity: usize,
    fit: FitPolicy,
}

impl DmmAllocator {
    /// Build an allocator for an arena of `capacity` bytes with the
    /// default best-fit extent selection. A node passes
    /// [`SMALL_OBJECT_BYTES`] and [`LARGE_OBJECT_BYTES`] as
    /// `small_threshold`/`large_threshold`.
    ///
    /// [`SMALL_OBJECT_BYTES`]: crate::layout::SMALL_OBJECT_BYTES
    /// [`LARGE_OBJECT_BYTES`]: crate::layout::LARGE_OBJECT_BYTES
    pub fn new(capacity: usize, small_threshold: usize, large_threshold: usize) -> DmmAllocator {
        DmmAllocator::with_fit(
            capacity,
            small_threshold,
            large_threshold,
            FitPolicy::BestFit,
        )
    }

    /// Build an allocator with an explicit [`FitPolicy`] (see
    /// [`crate::config::AllocConfig`]).
    pub fn with_fit(
        capacity: usize,
        small_threshold: usize,
        large_threshold: usize,
        fit: FitPolicy,
    ) -> DmmAllocator {
        assert!(capacity >= 2 * PAGE_BYTES, "arena too small to partition");
        assert!(small_threshold <= PAGE_BYTES);
        assert!(small_threshold <= large_threshold);
        // Page-align the boundary so slab pages are page-aligned.
        let half = capacity / 2 / PAGE_BYTES * PAGE_BYTES;
        DmmAllocator {
            lower: Region::new(0, half),
            upper: Region::new(half, capacity - half),
            slabs: SlabPages::new(half),
            small_threshold,
            large_threshold,
            capacity,
            fit,
        }
    }

    /// Allocate `size` bytes; returns the arena offset.
    pub fn alloc(&mut self, size: usize) -> Result<usize, AllocError> {
        assert!(size > 0);
        let rounded = round_up(size);
        let fit = self.fit;
        let offset = if rounded < self.small_threshold {
            let upper = &mut self.upper;
            self.slabs
                .alloc(rounded, || upper.alloc(PAGE_BYTES, Dir::Low, fit))
        } else {
            if rounded > self.max_object_size() {
                return Err(AllocError::TooLarge {
                    size: rounded,
                    max: self.max_object_size(),
                });
            }
            let dir = if rounded >= self.large_threshold {
                Dir::Low // large: increasing addresses of the lower half
            } else {
                Dir::High // medium: decreasing addresses of the lower half
            };
            self.lower.alloc(rounded, dir, fit)
        };
        offset.ok_or(AllocError::NoSpace { size: rounded })
    }

    /// Free the block at `offset`; the offset alone says which half
    /// holds it. Panics if no live block starts there.
    pub fn free(&mut self, offset: usize) {
        if self.lower.contains(offset) {
            self.lower.free(offset);
        } else if let Some(page) = self.slabs.free(offset) {
            self.upper.free(page);
        }
    }

    /// Free every block in `offsets` (sorted in place), leaving the
    /// allocator as one [`DmmAllocator::free`] per offset would: the
    /// lower region's blocks, and the slab pages the freed slots
    /// drain, each go back in one coalescing pass. Panics, like
    /// `free`, on an offset that starts no live block.
    pub fn free_many(&mut self, offsets: &mut [usize]) {
        offsets.sort_unstable();
        let split = offsets.partition_point(|&o| self.lower.contains(o));
        let (lower, upper) = offsets.split_at_mut(split);
        let mut pages: Vec<usize> = upper.iter().filter_map(|&o| self.slabs.free(o)).collect();
        self.lower.free_many(lower);
        self.upper.free_many(&mut pages);
    }

    /// Largest object the placement policy can ever satisfy (bounded by
    /// the lower half, where medium and large objects live; the paper's
    /// bound is the whole 512 MB DMM area — see the README's "Object-node
    /// pairs at allocator speed" for the two halves).
    pub fn max_object_size(&self) -> usize {
        self.lower.free_bytes() + self.lower.used_bytes()
    }

    /// Total bytes managed by the allocator.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently allocated across both regions.
    pub fn used_bytes(&self) -> usize {
        self.lower.used_bytes() + self.upper.used_bytes()
    }

    /// Largest contiguous free extent anywhere in the arena.
    pub fn largest_free(&self) -> usize {
        self.lower.largest_free().max(self.upper.largest_free())
    }

    /// Snapshot the fragmentation gauges: total free bytes and largest
    /// hole over the whole arena, with the external-fragmentation
    /// ratio computed over the *lower* region only — the upper half is
    /// slab-packed, so its fragmentation is internal by construction
    /// and would dilute the ratio.
    pub fn frag_stats(&self) -> FragStats {
        let lower = FragStats::from_gauges(
            self.lower.free_bytes() as u64,
            self.lower.largest_free() as u64,
        );
        FragStats {
            free_bytes: (self.capacity - self.used_bytes()) as u64,
            largest_hole: self.largest_free() as u64,
            external_frag_permille: lower.external_frag_permille,
        }
    }

    /// Invariant check for tests.
    pub fn check_invariants(&self) {
        self.lower.check_invariants();
        self.upper.check_invariants();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_up_to_grain() {
        assert_eq!(round_up(1), 8);
        assert_eq!(round_up(8), 8);
        assert_eq!(round_up(9), 16);
        assert_eq!(round_up(4093), 4096);
    }

    fn alloc_128k() -> DmmAllocator {
        DmmAllocator::new(128 * 1024, 1024, 16 * 1024)
    }

    #[test]
    fn small_objects_go_to_upper_half() {
        let mut a = alloc_128k();
        let o = a.alloc(64).unwrap();
        assert!(o >= 64 * 1024, "small object at {o}, expected upper half");
    }

    #[test]
    fn medium_objects_grow_downward_in_lower_half() {
        let mut a = alloc_128k();
        let m1 = a.alloc(4096).unwrap();
        let m2 = a.alloc(4096).unwrap();
        assert!(m1 < 64 * 1024);
        assert_eq!(m1, 64 * 1024 - 4096);
        assert_eq!(m2, m1 - 4096);
    }

    #[test]
    fn large_objects_grow_upward_in_lower_half() {
        let mut a = alloc_128k();
        let l1 = a.alloc(16 * 1024).unwrap();
        let l2 = a.alloc(16 * 1024).unwrap();
        assert_eq!(l1, 0);
        assert_eq!(l2, 16 * 1024);
    }

    #[test]
    fn three_classes_coexist_per_policy() {
        let mut a = alloc_128k();
        let small = a.alloc(100).unwrap();
        let medium = a.alloc(8 * 1024).unwrap();
        let large = a.alloc(20 * 1024).unwrap();
        assert!(small >= 64 * 1024);
        assert!((32 * 1024..64 * 1024).contains(&medium));
        assert_eq!(large, 0);
        a.check_invariants();
    }

    #[test]
    fn free_and_reuse() {
        let mut a = alloc_128k();
        let m = a.alloc(4096).unwrap();
        a.free(m);
        let m2 = a.alloc(4096).unwrap();
        assert_eq!(m, m2);
        a.check_invariants();
    }

    #[test]
    fn exhaustion_is_no_space() {
        let mut a = alloc_128k();
        // Lower half is 64 KB; two 30 KB larges fit, a third cannot.
        a.alloc(30 * 1024).unwrap();
        a.alloc(30 * 1024).unwrap();
        match a.alloc(30 * 1024) {
            Err(AllocError::NoSpace { .. }) => {}
            other => panic!("expected NoSpace, got {other:?}"),
        }
    }

    #[test]
    fn oversized_object_rejected_permanently() {
        let mut a = alloc_128k();
        match a.alloc(100 * 1024) {
            Err(AllocError::TooLarge { max, .. }) => assert_eq!(max, 64 * 1024),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn small_objects_fill_pages_before_new_page() {
        let mut a = alloc_128k();
        let offs: Vec<usize> = (0..10).map(|_| a.alloc(400).unwrap()).collect();
        let pages: std::collections::HashSet<usize> = offs.iter().map(|o| o / PAGE_BYTES).collect();
        assert_eq!(pages.len(), 1, "ten 400-byte objects fit one page");
        // 4096/400->408 slot => 10 slots/page; the 11th opens a page.
        let extra = a.alloc(400).unwrap();
        assert!(!pages.contains(&(extra / PAGE_BYTES)));
        a.check_invariants();
    }

    #[test]
    fn freeing_all_smalls_returns_pages() {
        let mut a = alloc_128k();
        let used0 = a.used_bytes();
        let offs: Vec<usize> = (0..20).map(|_| a.alloc(256).unwrap()).collect();
        for o in offs {
            a.free(o);
        }
        assert_eq!(a.used_bytes(), used0);
        a.check_invariants();
    }

    #[test]
    #[should_panic(expected = "unknown offset")]
    fn free_unknown_offset_panics() {
        let mut a = alloc_128k();
        a.free(12345);
    }

    #[test]
    fn used_bytes_tracks_all_classes() {
        let mut a = alloc_128k();
        a.alloc(100).unwrap(); // small: page charged to upper
        a.alloc(8 * 1024).unwrap();
        a.alloc(20 * 1024).unwrap();
        assert_eq!(a.used_bytes(), PAGE_BYTES + 8 * 1024 + 20 * 1024);
    }

    #[test]
    fn first_fit_reuses_the_nearest_hole_not_the_snuggest() {
        // Large class grows upward: carve [used 16K][hole 16K][used
        // 16K][free tail], then allocate 16K twice — first fit takes
        // the lowest-addressed hole first, then the tail. Best fit
        // would agree on the first but the test pins the address-order
        // scan.
        let mut a = DmmAllocator::with_fit(128 * 1024, 1024, 16 * 1024, FitPolicy::FirstFit);
        let _keep0 = a.alloc(16 * 1024).unwrap();
        let hole = a.alloc(16 * 1024).unwrap();
        let keep1 = a.alloc(16 * 1024).unwrap();
        a.free(hole);
        let b = a.alloc(16 * 1024).unwrap();
        assert_eq!(b, hole, "first fit takes the lowest-addressed hole");
        let c = a.alloc(16 * 1024).unwrap();
        assert_eq!(c, keep1 + 16 * 1024, "then the tail");
        a.check_invariants();
    }

    #[test]
    fn frag_stats_track_holes() {
        let mut a = alloc_128k();
        let whole = a.frag_stats();
        assert_eq!(
            whole.external_frag_permille, 0,
            "untouched arena: one hole per region"
        );
        let blocks: Vec<usize> = (0..4).map(|_| a.alloc(8 * 1024).unwrap()).collect();
        a.free(blocks[0]);
        a.free(blocks[2]);
        let frag = a.frag_stats();
        assert_eq!(frag.free_bytes, (128 * 1024 - 2 * 8 * 1024) as u64);
        assert!(
            frag.largest_hole >= 32 * 1024,
            "large-class space still contiguous"
        );
        assert!(frag.external_frag_permille > 0, "interleaved frees shatter");
    }

    /// 2 000 steps of seeded churn: allocate a small, medium or large
    /// block, or free a random live one. Returns an FNV-1a digest of
    /// every outcome (the offset, or `u64::MAX` for `NoSpace`), the
    /// gauges at the end, and the bytes still used.
    fn churn(fit: FitPolicy) -> (u64, FragStats, usize) {
        churn_freeing(fit, |a, batch| batch.iter().for_each(|&o| a.free(o)))
    }

    /// [`churn`], with each run of frees queued and handed to `free`
    /// as one batch just before the next allocation (and at the end) —
    /// the allocator is only observed by allocations, so the outcomes
    /// are those of freeing at once.
    fn churn_freeing(
        fit: FitPolicy,
        mut free: impl FnMut(&mut DmmAllocator, &mut [usize]),
    ) -> (u64, FragStats, usize) {
        let mut a = DmmAllocator::with_fit(256 * 1024, 1024, 16 * 1024, fit);
        let (mut x, mut digest) = (0x9e37_79b9_7f4a_7c15u64, 0xcbf2_9ce4_8422_2325u64);
        let (mut live, mut batch) = (Vec::new(), Vec::new());
        let mut flush = |a: &mut DmmAllocator, batch: &mut Vec<usize>| {
            free(a, batch);
            batch.clear();
            a.check_invariants();
        };
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pick = (x >> 32) as usize;
            let outcome = if pick % 5 < 2 && !live.is_empty() {
                let o = live.swap_remove(pick % live.len());
                batch.push(o);
                o as u64
            } else {
                flush(&mut a, &mut batch);
                let size = match pick % 3 {
                    0 => 1 + pick % 1000,
                    1 => 1024 + pick % (15 * 1024),
                    _ => 16 * 1024 + pick % (24 * 1024),
                };
                match a.alloc(size) {
                    Ok(o) => {
                        live.push(o);
                        o as u64
                    }
                    Err(AllocError::NoSpace { .. }) => u64::MAX,
                    Err(e) => panic!("{e}"),
                }
            };
            digest = (digest ^ outcome).wrapping_mul(0x0100_0000_01b3);
        }
        flush(&mut a, &mut batch);
        (digest, a.frag_stats(), a.used_bytes())
    }

    #[test]
    fn free_many_leaves_what_one_free_per_offset_leaves() {
        for fit in [FitPolicy::BestFit, FitPolicy::FirstFit] {
            let batched = churn_freeing(fit, |a, batch| a.free_many(batch));
            assert_eq!(batched, churn(fit), "{fit:?}");
        }
    }

    #[test]
    fn a_fixed_churn_places_every_block_where_it_always_did() {
        // Recorded when every block's kind was still looked up in a
        // hash map beside the regions.
        let best = (
            0xce89_1c63_2c4c_dce5,
            FragStats {
                free_bytes: 86_720,
                largest_hole: 40_960,
                external_frag_permille: 585,
            },
            175_424,
        );
        let first = (
            0x81bc_cb9e_b7cd_9e27,
            FragStats {
                free_bytes: 89_576,
                largest_hole: 61_440,
                external_frag_permille: 639,
            },
            172_568,
        );
        assert_eq!(churn(FitPolicy::BestFit), best);
        assert_eq!(churn(FitPolicy::FirstFit), first);
    }

    #[test]
    fn freeing_an_unknown_offset_panics_in_both_regions() {
        // A medium block at 60 K and a 64-byte slot at the start of the
        // first upper page (64 K).
        let fresh = || {
            let mut a = alloc_128k();
            assert_eq!(a.alloc(4096).unwrap(), 60 * 1024);
            assert_eq!(a.alloc(64).unwrap(), 64 * 1024);
            a
        };
        let unknown = [
            12345,          // lower region, never allocated
            60 * 1024 + 64, // inside the live medium block
            64 * 1024 + 8,  // inside the live slot
            64 * 1024 + 64, // a free slot of the live slab page
            68 * 1024,      // an upper page holding no slab
            128 * 1024,     // past the arena
        ];
        for offset in unknown {
            let mut a = fresh();
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.free(offset)));
            assert!(died.is_err(), "freeing {offset} must panic");
        }
        let mut a = fresh();
        a.free(60 * 1024);
        a.free(64 * 1024);
        assert_eq!(a.used_bytes(), 0);
    }

    #[test]
    fn frag_stats_from_gauges_edge_cases() {
        assert_eq!(FragStats::from_gauges(0, 0).external_frag_permille, 0);
        assert_eq!(FragStats::from_gauges(100, 100).external_frag_permille, 0);
        assert_eq!(FragStats::from_gauges(100, 25).external_frag_permille, 750);
    }
}
