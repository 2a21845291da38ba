//! Extent allocator for one region of the DMM area.
//!
//! Free extents are indexed two ways: by address (for coalescing on
//! free) and in one set ordered by `(length, offset)` (for best-fit
//! allocation). Figure 4 spreads the free blocks over 1 024 size-class
//! queues and searches from the request's class upward; because the
//! classes are ranges of sizes in increasing order, the first extent
//! that search finds is the shortest extent at least as long as the
//! request, which is the first entry of the ordered set at or after
//! `(size, 0)`. One ordered queue therefore picks the same blocks as
//! the 1 024 queues, and costs nothing while the region is empty.
//! Used blocks are tracked in the used queue, as in the figure.
//! Allocation direction is a preference — medium objects take the
//! *highest*-addressed fit, large objects the *lowest* (§3.2:
//! "medium-sized objects are assigned in decreasing addresses of the
//! lower half, and large-sized objects are allocated in increasing
//! addresses").

use std::collections::{BTreeMap, BTreeSet};

use crate::config::FitPolicy;

/// Preferred end of the region for an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Allocate from the low end (small/medium classes).
    Low,
    /// Allocate from the high end (large class).
    High,
}

/// One contiguous region managed by two indexes of its free extents.
#[derive(Debug)]
pub struct Region {
    base: usize,
    size: usize,
    /// Free extents as `(length, offset)`, shortest first: the Figure 4
    /// queues as one ordered queue, for best fit.
    free_by_size: BTreeSet<(usize, usize)>,
    /// Free extents by offset, for coalescing.
    free_by_offset: BTreeMap<usize, usize>,
    /// Used blocks by offset → size (Fig. 4's used queue).
    used: BTreeMap<usize, usize>,
    used_bytes: usize,
}

impl Region {
    /// A region covering `[base, base + size)`.
    pub fn new(base: usize, size: usize) -> Region {
        let mut r = Region {
            base,
            size,
            free_by_size: BTreeSet::new(),
            free_by_offset: BTreeMap::new(),
            used: BTreeMap::new(),
            used_bytes: 0,
        };
        if size > 0 {
            r.insert_free(base, size);
        }
        r
    }

    fn insert_free(&mut self, offset: usize, len: usize) {
        debug_assert!(len > 0);
        self.free_by_size.insert((len, offset));
        self.free_by_offset.insert(offset, len);
    }

    fn remove_free(&mut self, offset: usize, len: usize) {
        let removed = self.free_by_size.remove(&(len, offset));
        debug_assert!(
            removed,
            "free extent ({offset},{len}) missing from the size queue"
        );
        self.free_by_offset.remove(&offset);
    }

    /// Allocate `size` bytes (already grain-rounded) under `fit`.
    ///
    /// [`FitPolicy::BestFit`] takes the shortest fitting extent (ties
    /// broken toward `dir`), then splits it leaving the remainder on
    /// the side away from `dir`. [`FitPolicy::FirstFit`] takes the
    /// fitting extent nearest the preferred end in address order.
    pub fn alloc(&mut self, size: usize, dir: Dir, fit: FitPolicy) -> Option<usize> {
        debug_assert!(size > 0);
        let chosen: Option<(usize, usize)> = match fit {
            FitPolicy::BestFit => self.best_fit(size, dir),
            FitPolicy::FirstFit => self.first_fit(size, dir),
        };
        let (len, offset) = chosen?;
        self.remove_free(offset, len);
        let alloc_off = match dir {
            Dir::Low => offset,
            Dir::High => offset + len - size,
        };
        if len > size {
            match dir {
                Dir::Low => self.insert_free(offset + size, len - size),
                Dir::High => self.insert_free(offset, len - size),
            }
        }
        self.used.insert(alloc_off, size);
        self.used_bytes += size;
        Some(alloc_off)
    }

    /// The Figure 4 best fit: the shortest fitting extent, ties toward
    /// `dir` — the first entry at or after `(size, 0)`, or for
    /// [`Dir::High`] the last entry of that length group. Returns
    /// `(len, offset)` of the chosen free extent.
    fn best_fit(&self, size: usize, dir: Dir) -> Option<(usize, usize)> {
        let &(len, lowest) = self.free_by_size.range((size, 0)..).next()?;
        match dir {
            Dir::Low => Some((len, lowest)),
            Dir::High => self
                .free_by_size
                .range(..=(len, usize::MAX))
                .next_back()
                .copied(),
        }
    }

    /// First fit in address order from the preferred end: the
    /// lowest-addressed fitting extent for [`Dir::Low`], the highest
    /// for [`Dir::High`].
    fn first_fit(&self, size: usize, dir: Dir) -> Option<(usize, usize)> {
        match dir {
            Dir::Low => self
                .free_by_offset
                .iter()
                .find(|&(_, &len)| len >= size)
                .map(|(&off, &len)| (len, off)),
            Dir::High => self
                .free_by_offset
                .iter()
                .rev()
                .find(|&(_, &len)| len >= size)
                .map(|(&off, &len)| (len, off)),
        }
    }

    /// Free the block at `offset`, coalescing with free neighbours.
    pub fn free(&mut self, offset: usize) {
        self.free_many(&mut [offset]);
    }

    /// Free every block in `offsets` (sorted in place). Each run of
    /// address-adjacent blocks, merged with the free extents on either
    /// side, goes back as one extent. Coalesced extents are the
    /// maximal free runs whatever the order of the frees, so the end
    /// state is the one `free` per offset would leave.
    pub fn free_many(&mut self, offsets: &mut [usize]) {
        offsets.sort_unstable();
        let mut blocks = offsets.iter().copied().peekable();
        while let Some(start) = blocks.next() {
            let mut end = start + self.take_used(start);
            while let Some(next) = blocks.next_if_eq(&end) {
                end += self.take_used(next);
            }
            let start = self.absorb_prev(start);
            let end = self.absorb_next(end);
            self.insert_free(start, end - start);
        }
    }

    /// Drop the used block at `offset` from the used queue; returns
    /// its size.
    fn take_used(&mut self, offset: usize) -> usize {
        let size = self
            .used
            .remove(&offset)
            .unwrap_or_else(|| panic!("freeing unallocated offset {offset} (unknown offset)"));
        self.used_bytes -= size;
        size
    }

    /// Take the free extent ending at `start` off the queues, if any;
    /// returns where the merged extent now starts.
    fn absorb_prev(&mut self, start: usize) -> usize {
        match self.free_by_offset.range(..start).next_back() {
            Some((&off, &len)) if off + len == start => {
                self.remove_free(off, len);
                off
            }
            _ => start,
        }
    }

    /// Take the free extent starting at `end` off the queues, if any;
    /// returns where the merged extent now ends.
    fn absorb_next(&mut self, end: usize) -> usize {
        match self.free_by_offset.get(&end) {
            Some(&len) => {
                self.remove_free(end, len);
                end + len
            }
            None => end,
        }
    }

    /// Does `offset` fall inside this region?
    pub fn contains(&self, offset: usize) -> bool {
        offset >= self.base && offset < self.base + self.size
    }

    /// Bytes currently allocated in this region.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Bytes currently free in this region.
    pub fn free_bytes(&self) -> usize {
        self.size - self.used_bytes
    }

    /// Largest single free extent (the *contiguous space* §3.3 checks
    /// before deciding to swap): the last entry of the size queue.
    pub fn largest_free(&self) -> usize {
        self.free_by_size.last().map_or(0, |&(len, _)| len)
    }

    /// Internal consistency check (test/proptest hook): the free
    /// extents and used blocks tile the region exactly, no two free
    /// extents touch, the byte total and the size queue agree with the
    /// offset index, and `largest_free` with a direct walk of it.
    pub fn check_invariants(&self) {
        let mut events: Vec<(usize, usize, bool)> = self
            .free_by_offset
            .iter()
            .map(|(&o, &l)| (o, l, true))
            .chain(self.used.iter().map(|(&o, &l)| (o, l, false)))
            .collect();
        events.sort();
        let mut cursor = self.base;
        let mut prev_was_free = false;
        for (off, len, is_free) in events {
            assert_eq!(off, cursor, "gap or overlap at {off}");
            assert!(
                !(is_free && prev_was_free),
                "free extent at {off} touches the free extent before it"
            );
            cursor += len;
            prev_was_free = is_free;
        }
        assert_eq!(
            cursor,
            self.base + self.size,
            "extents stop short of the region end"
        );
        assert_eq!(self.used_bytes, self.used.values().sum::<usize>());
        assert_eq!(self.free_by_size.len(), self.free_by_offset.len());
        for &(len, off) in &self.free_by_size {
            assert_eq!(
                self.free_by_offset.get(&off),
                Some(&len),
                "size queue disagrees at {off}"
            );
        }
        let largest = self.free_by_offset.values().copied().max().unwrap_or(0);
        assert_eq!(self.largest_free(), largest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_low_takes_lowest_fit() {
        let mut r = Region::new(0, 1024);
        let a = r.alloc(128, Dir::Low, FitPolicy::BestFit).unwrap();
        assert_eq!(a, 0);
        let b = r.alloc(128, Dir::Low, FitPolicy::BestFit).unwrap();
        assert_eq!(b, 128);
        r.check_invariants();
    }

    #[test]
    fn alloc_high_takes_highest_fit() {
        let mut r = Region::new(0, 1024);
        let a = r.alloc(128, Dir::High, FitPolicy::BestFit).unwrap();
        assert_eq!(a, 1024 - 128);
        let b = r.alloc(64, Dir::High, FitPolicy::BestFit).unwrap();
        assert_eq!(b, 1024 - 128 - 64);
        r.check_invariants();
    }

    #[test]
    fn opposite_directions_grow_toward_each_other() {
        let mut r = Region::new(0, 4096);
        let large = r.alloc(1024, Dir::Low, FitPolicy::BestFit).unwrap();
        let medium = r.alloc(512, Dir::High, FitPolicy::BestFit).unwrap();
        assert_eq!(large, 0);
        assert_eq!(medium, 4096 - 512);
        assert_eq!(r.free_bytes(), 4096 - 1536);
        assert_eq!(r.largest_free(), 4096 - 1536);
        r.check_invariants();
    }

    #[test]
    fn best_fit_prefers_snuggest_extent() {
        let mut r = Region::new(0, 4096);
        // Carve: [used 512][free 512][used 512][free 2560]
        let a = r.alloc(512, Dir::Low, FitPolicy::BestFit).unwrap(); // 0
        let hole = r.alloc(512, Dir::Low, FitPolicy::BestFit).unwrap(); // 512
        let _c = r.alloc(512, Dir::Low, FitPolicy::BestFit).unwrap(); // 1024
        r.free(hole);
        // A 384-byte request best-fits the 512 hole, not the big tail.
        let d = r.alloc(384, Dir::Low, FitPolicy::BestFit).unwrap();
        assert_eq!(d, 512);
        r.check_invariants();
        let _ = a;
    }

    #[test]
    fn free_coalesces_neighbours() {
        let mut r = Region::new(0, 1024);
        let a = r.alloc(256, Dir::Low, FitPolicy::BestFit).unwrap();
        let b = r.alloc(256, Dir::Low, FitPolicy::BestFit).unwrap();
        let c = r.alloc(256, Dir::Low, FitPolicy::BestFit).unwrap();
        r.free(a);
        r.free(c);
        assert_eq!(r.largest_free(), 512); // tail 256 + c 256
        r.free(b);
        assert_eq!(r.largest_free(), 1024);
        assert_eq!(r.used_bytes(), 0);
        r.check_invariants();
    }

    #[test]
    fn free_many_merges_two_runs_across_a_free_extent() {
        // [0 used][128 run][256 run][384 free][512 run][640 run][768 used][896 used]
        let fill = || {
            let mut r = Region::new(0, 1024);
            let blocks: Vec<usize> = (0..8)
                .map(|_| r.alloc(128, Dir::Low, FitPolicy::BestFit).unwrap())
                .collect();
            r.free(blocks[3]);
            (r, blocks)
        };
        let (mut batched, blocks) = fill();
        batched.free_many(&mut [blocks[5], blocks[1], blocks[4], blocks[2]]);
        batched.check_invariants();
        assert_eq!(batched.largest_free(), 640, "one extent [128, 768)");
        assert_eq!(batched.free_bytes(), 640);
        let (mut one_by_one, _) = fill();
        for b in [5, 1, 4, 2] {
            one_by_one.free(blocks[b]);
        }
        assert_eq!(format!("{batched:?}"), format!("{one_by_one:?}"));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut r = Region::new(0, 256);
        assert!(r.alloc(512, Dir::Low, FitPolicy::BestFit).is_none());
        let _a = r.alloc(256, Dir::Low, FitPolicy::BestFit).unwrap();
        assert!(r.alloc(8, Dir::Low, FitPolicy::BestFit).is_none());
    }

    #[test]
    fn fragmentation_blocks_contiguous_request() {
        let mut r = Region::new(0, 1024);
        let blocks: Vec<usize> = (0..8)
            .map(|_| r.alloc(128, Dir::Low, FitPolicy::BestFit).unwrap())
            .collect();
        // Free alternating blocks: 512 free total, max contiguous 128.
        for (i, &b) in blocks.iter().enumerate() {
            if i % 2 == 0 {
                r.free(b);
            }
        }
        assert_eq!(r.free_bytes(), 512);
        assert_eq!(r.largest_free(), 128);
        assert!(
            r.alloc(256, Dir::Low, FitPolicy::BestFit).is_none(),
            "must require swapping"
        );
        r.check_invariants();
    }

    #[test]
    fn cached_largest_free_tracks_the_queues_through_churn() {
        // check_invariants compares the largest free extent with a
        // direct walk of the offset index.
        for fit in [FitPolicy::BestFit, FitPolicy::FirstFit] {
            let mut r = Region::new(0, 64 * 1024);
            let mut live: Vec<usize> = Vec::new();
            let mut x = 0x9E37_79B9u32;
            for step in 0..2000u32 {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                if !x.is_multiple_of(3) || live.is_empty() {
                    let size = 64 * (1 + (x >> 8) as usize % 96);
                    let dir = if x & 16 == 0 { Dir::Low } else { Dir::High };
                    live.extend(r.alloc(size, dir, fit));
                } else {
                    r.free(live.swap_remove((x >> 8) as usize % live.len()));
                }
                if step.is_multiple_of(7) {
                    r.check_invariants();
                }
            }
            for off in live {
                r.free(off);
                r.check_invariants();
            }
            assert_eq!(r.largest_free(), 64 * 1024);
        }
    }

    /// What best fit must pick, by a brute-force scan of the offset
    /// index: the shortest fitting extent, ties toward `dir`, and the
    /// block at that end of it.
    fn brute_force_best_fit(r: &Region, size: usize, dir: Dir) -> Option<usize> {
        let fits = r.free_by_offset.iter().filter(|&(_, &len)| len >= size);
        let (&off, &len) = match dir {
            Dir::Low => fits.min_by_key(|&(&off, &len)| (len, off)),
            Dir::High => fits.min_by_key(|&(&off, &len)| (len, std::cmp::Reverse(off))),
        }?;
        Some(match dir {
            Dir::Low => off,
            Dir::High => off + len - size,
        })
    }

    #[test]
    fn best_fit_matches_a_brute_force_scan() {
        // Few distinct sizes, so equal-length holes (the tie-breaks)
        // are common.
        for seed in 1..=24u32 {
            let mut r = Region::new(0, 32 * 1024);
            let mut live: Vec<usize> = Vec::new();
            let mut x = seed.wrapping_mul(0x9E37_79B9) | 1;
            for _ in 0..400 {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                let pick = (x >> 8) as usize;
                match x % 6 {
                    0 if !live.is_empty() => r.free(live.swap_remove(pick % live.len())),
                    1 if !live.is_empty() => {
                        let mut batch: Vec<usize> = (0..1 + pick % 4)
                            .map_while(|k| {
                                (!live.is_empty())
                                    .then(|| live.swap_remove((pick >> k) % live.len()))
                            })
                            .collect();
                        r.free_many(&mut batch);
                    }
                    _ => {
                        let size = 64 * [1, 2, 3, 4, 6, 8][pick % 6];
                        let dir = if x & 64 == 0 { Dir::Low } else { Dir::High };
                        let want = brute_force_best_fit(&r, size, dir);
                        let got = r.alloc(size, dir, FitPolicy::BestFit);
                        assert_eq!(got, want, "seed {seed}: {size} bytes {dir:?}");
                        live.extend(got);
                    }
                }
                r.check_invariants();
            }
        }
    }

    #[test]
    #[should_panic(expected = "freeing unallocated")]
    fn double_free_panics() {
        let mut r = Region::new(0, 256);
        let a = r.alloc(64, Dir::Low, FitPolicy::BestFit).unwrap();
        r.free(a);
        r.free(a);
    }

    #[test]
    fn nonzero_base_respected() {
        let mut r = Region::new(4096, 1024);
        let a = r.alloc(100, Dir::Low, FitPolicy::BestFit).unwrap();
        assert!(a >= 4096);
        assert!(r.contains(a));
        assert!(!r.contains(0));
        r.check_invariants();
    }
}
