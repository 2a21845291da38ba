//! Extent allocator for one region of the DMM area.
//!
//! Free extents are indexed two ways: by address (for coalescing on
//! free) and through the Figure 4 size-class queues (for approximate
//! best-fit allocation). A bitmap beside the queues marks the
//! non-empty classes, so finding the next class that holds an extent
//! is one bit scan rather than a walk over empty queues. Used blocks
//! are tracked in the used queue, as in the figure. Allocation
//! direction is a preference — medium objects take the
//! *highest*-addressed fit, large objects the *lowest* (§3.2:
//! "medium-sized objects are assigned in decreasing addresses of the
//! lower half, and large-sized objects are allocated in increasing
//! addresses").

use std::collections::{BTreeMap, BTreeSet};

use crate::config::FitPolicy;

use super::classes::{class_of, NUM_CLASSES};

/// Preferred end of the region for an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Allocate from the low end (small/medium classes).
    Low,
    /// Allocate from the high end (large class).
    High,
}

/// One contiguous region managed by extent lists + size-class queues.
#[derive(Debug)]
pub struct Region {
    base: usize,
    size: usize,
    /// Free extents by class: ordered (size, offset) for best-fit.
    free_by_class: Vec<BTreeSet<(usize, usize)>>,
    /// Bit `c` set ⇔ `free_by_class[c]` is non-empty.
    nonempty: [u64; NUM_CLASSES / 64],
    /// Free extents by offset, for coalescing.
    free_by_offset: BTreeMap<usize, usize>,
    /// Used blocks by offset → size (Fig. 4's used queue).
    used: BTreeMap<usize, usize>,
    used_bytes: usize,
    /// Length of the largest free extent, kept current by
    /// `insert_free` (raise) and `alloc` (rescan when it took the
    /// extent that held the maximum) so the gauges refreshed on every
    /// allocation read it without walking the class queues.
    largest_free: usize,
}

impl Region {
    /// A region covering `[base, base + size)`.
    pub fn new(base: usize, size: usize) -> Region {
        let mut r = Region {
            base,
            size,
            free_by_class: (0..NUM_CLASSES).map(|_| BTreeSet::new()).collect(),
            nonempty: [0; NUM_CLASSES / 64],
            free_by_offset: BTreeMap::new(),
            used: BTreeMap::new(),
            used_bytes: 0,
            largest_free: 0,
        };
        if size > 0 {
            r.insert_free(base, size);
        }
        r
    }

    fn insert_free(&mut self, offset: usize, len: usize) {
        debug_assert!(len > 0);
        let class = class_of(len);
        self.free_by_class[class].insert((len, offset));
        self.nonempty[class / 64] |= 1 << (class % 64);
        self.free_by_offset.insert(offset, len);
        self.largest_free = self.largest_free.max(len);
    }

    fn remove_free(&mut self, offset: usize, len: usize) {
        let class = class_of(len);
        let set = &mut self.free_by_class[class];
        let removed = set.remove(&(len, offset));
        debug_assert!(removed, "free extent ({offset},{len}) missing from class");
        if set.is_empty() {
            self.nonempty[class / 64] &= !(1 << (class % 64));
        }
        self.free_by_offset.remove(&offset);
    }

    /// The lowest non-empty class at or above `from`.
    fn class_at_or_above(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.nonempty.get(word)? & (u64::MAX << (from % 64));
        while bits == 0 {
            word += 1;
            bits = *self.nonempty.get(word)?;
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }

    /// The highest non-empty class at or below `to`.
    fn class_at_or_below(&self, to: usize) -> Option<usize> {
        let mut word = to / 64;
        let mut bits = self.nonempty[word] & (u64::MAX >> (63 - to % 64));
        while bits == 0 {
            word = word.checked_sub(1)?;
            bits = self.nonempty[word];
        }
        Some(word * 64 + 63 - bits.leading_zeros() as usize)
    }

    /// Allocate `size` bytes (already grain-rounded) under `fit`.
    ///
    /// [`FitPolicy::BestFit`] scans size classes from the request's
    /// class upward; inside the first class with a fitting extent it
    /// takes the smallest fitting extent (ties broken toward `dir`),
    /// then splits it leaving the remainder on the side away from
    /// `dir`. [`FitPolicy::FirstFit`] takes the fitting extent nearest
    /// the preferred end in address order.
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
        if len == self.largest_free {
            // The extent that held the maximum is gone (its remainder,
            // if any, is already back on the queues): the new maximum
            // sits in that extent's class or below.
            self.largest_free = self.scan_largest_free(class_of(len));
        }
        self.used.insert(alloc_off, size);
        self.used_bytes += size;
        Some(alloc_off)
    }

    /// The Figure 4 best-fit scan: smallest fitting extent, ties toward
    /// `dir`. Returns `(len, offset)` of the chosen free extent. The
    /// bitmap skips the empty classes, and only the request's own class
    /// can hold extents too short for it, so at most two are visited.
    fn best_fit(&self, size: usize, dir: Dir) -> Option<(usize, usize)> {
        let own = class_of(size);
        let mut class = self.class_at_or_above(own)?;
        loop {
            // Entries are (len, offset) in order; the first fitting
            // length group is the best fit within this class.
            let mut best: Option<(usize, usize)> = None;
            for &(len, offset) in self.free_by_class[class].range((size, 0)..) {
                match best {
                    None => best = Some((len, offset)),
                    Some((blen, _)) if len == blen => {
                        if dir == Dir::High {
                            best = Some((len, offset)); // keep scanning same-size group for highest offset
                        } else {
                            break; // lowest offset of smallest size already held
                        }
                    }
                    Some(_) => break,
                }
            }
            if best.is_some() {
                return best;
            }
            // Every extent of a higher class fits.
            debug_assert_eq!(class, own);
            class = self.class_at_or_above(class + 1)?;
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
            // The merged extent outgrows any neighbour it absorbed, so
            // the cached maximum only ever needs raising here.
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

    /// Size of the used block starting at `offset`, if any.
    pub fn used_size(&self, offset: usize) -> Option<usize> {
        self.used.get(&offset).copied()
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
    /// before deciding to swap).
    pub fn largest_free(&self) -> usize {
        self.largest_free
    }

    /// The largest free extent in classes `..=top`: the last entry of
    /// the highest non-empty class there (classes are ordered by size).
    fn scan_largest_free(&self, top: usize) -> usize {
        self.class_at_or_below(top)
            .and_then(|class| self.free_by_class[class].last())
            .map_or(0, |&(len, _)| len)
    }

    /// Number of live allocations in this region.
    pub fn used_blocks(&self) -> usize {
        self.used.len()
    }

    /// Internal consistency check (test/proptest hook): the free
    /// extents and used blocks tile the region exactly, no two free
    /// extents touch, the byte total and the class queues agree with
    /// the offset index, and the bitmap and the cached maximum agree
    /// with the queues as a direct walk finds them.
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
        let mut largest = 0;
        for (class, set) in self.free_by_class.iter().enumerate() {
            let bit = self.nonempty[class / 64] >> (class % 64) & 1 == 1;
            assert_eq!(bit, !set.is_empty(), "bitmap disagrees with class {class}");
            for &(len, off) in set {
                assert_eq!(class_of(len), class);
                assert_eq!(self.free_by_offset.get(&off), Some(&len));
                largest = largest.max(len);
            }
        }
        let classed: usize = self.free_by_class.iter().map(|s| s.len()).sum();
        assert_eq!(classed, self.free_by_offset.len());
        assert_eq!(self.largest_free, largest);
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
        // check_invariants compares the cached maximum with a fresh
        // walk of the class queues after every operation.
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
