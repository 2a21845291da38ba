//! Small-object page packing (§3.2).
//!
//! "For small objects of the same size, LOTS tries its best to allocate
//! them in the same page. This will reduce the number of page faults …
//! for example, when an application is traversing a linked list, in
//! which every element is of the same size." Pages are carved out of
//! the upper half of the DMM area; each page serves one slot size.

use std::collections::BTreeSet;

use crate::layout::PAGE_BYTES;

use super::GRAIN;

/// Slot-allocation state of one 4 KB page dedicated to `slot_size`.
#[derive(Debug)]
struct PageState {
    slot_size: usize,
    slots: usize,
    free_slots: BTreeSet<usize>,
}

impl PageState {
    fn new(slot_size: usize) -> PageState {
        let slots = PAGE_BYTES / slot_size;
        PageState {
            slot_size,
            slots,
            free_slots: (0..slots).collect(),
        }
    }

    fn full(&self) -> bool {
        self.free_slots.is_empty()
    }

    fn empty(&self) -> bool {
        self.free_slots.len() == self.slots
    }
}

/// Slab allocator over pages provided by the caller.
///
/// The caller owns the page supply (a [`Region`] in the upper DMM
/// half); `SlabPages` asks for pages through the closure passed to
/// [`SlabPages::alloc`] and reports drained pages from
/// [`SlabPages::free`] so they can be returned.
///
/// [`Region`]: super::region::Region
#[derive(Debug, Default)]
pub struct SlabPages {
    /// Offset of the first page the supply can hand out.
    base: usize,
    /// Pages (by base offset) with at least one free slot, per slot
    /// size in grains; grown to the largest slot size asked for.
    open: Vec<BTreeSet<usize>>,
    /// Live pages by page number from `base`; grown to the highest
    /// page handed out so far.
    pages: Vec<Option<PageState>>,
}

impl SlabPages {
    /// An empty slab directory whose pages come from offsets at or
    /// above `base`.
    pub fn new(base: usize) -> SlabPages {
        SlabPages {
            base,
            ..SlabPages::default()
        }
    }

    /// The page whose base offset is `page_off`, if it is live.
    fn page_mut(&mut self, page_off: usize) -> Option<&mut PageState> {
        let at = page_off.checked_sub(self.base)? / PAGE_BYTES;
        self.pages.get_mut(at)?.as_mut()
    }

    /// Slot size a small request of `size` bytes uses.
    pub fn slot_size(size: usize) -> usize {
        super::round_up(size)
    }

    /// Allocate a slot for a small object of `size` bytes. `get_page`
    /// supplies a fresh page-aligned `PAGE_BYTES` extent when the open
    /// pages of this slot size are all full; it may fail (region full).
    pub fn alloc(
        &mut self,
        size: usize,
        get_page: impl FnOnce() -> Option<usize>,
    ) -> Option<usize> {
        let slot = Self::slot_size(size);
        debug_assert!(slot <= PAGE_BYTES);
        let class = slot / GRAIN;
        if class >= self.open.len() {
            self.open.resize_with(class + 1, BTreeSet::new);
        }
        let open = &mut self.open[class];
        let page_off = match open.iter().next() {
            Some(&p) => p,
            None => {
                let p = get_page()?;
                debug_assert_eq!(p % PAGE_BYTES, 0, "slab pages must be page-aligned");
                let at = (p - self.base) / PAGE_BYTES;
                if at >= self.pages.len() {
                    self.pages.resize_with(at + 1, || None);
                }
                self.pages[at] = Some(PageState::new(slot));
                open.insert(p);
                p
            }
        };
        let page = self.page_mut(page_off).expect("open page exists");
        let idx = *page.free_slots.iter().next().expect("open page has slots");
        page.free_slots.remove(&idx);
        if page.full() {
            self.open[class].remove(&page_off);
        }
        Some(page_off + idx * slot)
    }

    /// Free the slot at `offset`; returns `Some(page_offset)` when the
    /// whole page drained and should go back to the region.
    pub fn free(&mut self, offset: usize) -> Option<usize> {
        let page_off = offset / PAGE_BYTES * PAGE_BYTES;
        let page = self
            .page_mut(page_off)
            .unwrap_or_else(|| panic!("freeing unknown offset {offset}: no slab page there"));
        let idx = (offset - page_off) / page.slot_size;
        assert!(
            (offset - page_off).is_multiple_of(page.slot_size) && idx < page.slots,
            "freeing unknown offset {offset}: not a slot of its slab page"
        );
        let was_full = page.full();
        assert!(
            page.free_slots.insert(idx),
            "double free of slab slot {offset}"
        );
        let slot = page.slot_size;
        if page.empty() {
            self.pages[(page_off - self.base) / PAGE_BYTES] = None;
            self.open[slot / GRAIN].remove(&page_off);
            Some(page_off)
        } else {
            if was_full {
                self.open[slot / GRAIN].insert(page_off);
            }
            None
        }
    }

    /// Live slab pages.
    #[cfg(test)]
    fn page_count(&self) -> usize {
        self.pages.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_size_objects_share_a_page() {
        let mut s = SlabPages::new(0);
        let mut next_page = 0usize;
        let mut supply = || {
            let p = next_page;
            next_page += PAGE_BYTES;
            Some(p)
        };
        // 40-byte "linked list nodes" (the paper's example).
        let a = s.alloc(40, &mut supply).unwrap();
        let b = s.alloc(40, &mut supply).unwrap();
        let c = s.alloc(33, &mut supply).unwrap(); // rounds to 40
        assert_eq!(a / PAGE_BYTES, b / PAGE_BYTES);
        assert_eq!(a / PAGE_BYTES, c / PAGE_BYTES);
        assert_eq!(s.page_count(), 1);
    }

    #[test]
    fn different_sizes_use_different_pages() {
        let mut s = SlabPages::new(0);
        let mut next = 0usize;
        let a = s
            .alloc(40, || {
                next += PAGE_BYTES;
                Some(next - PAGE_BYTES)
            })
            .unwrap();
        let b = s
            .alloc(104, || {
                next += PAGE_BYTES;
                Some(next - PAGE_BYTES)
            })
            .unwrap();
        assert_ne!(a / PAGE_BYTES, b / PAGE_BYTES);
        assert_eq!(s.page_count(), 2);
    }

    #[test]
    fn page_fills_then_new_page() {
        let mut s = SlabPages::new(0);
        let per_page = PAGE_BYTES / 512;
        let mut next = 0usize;
        let mut supply_calls = 0;
        let mut offsets = Vec::new();
        for _ in 0..per_page + 1 {
            offsets.push(
                s.alloc(512, || {
                    supply_calls += 1;
                    next += PAGE_BYTES;
                    Some(next - PAGE_BYTES)
                })
                .unwrap(),
            );
        }
        assert_eq!(supply_calls, 2);
        assert_eq!(s.page_count(), 2);
        // All offsets distinct.
        let set: std::collections::HashSet<_> = offsets.iter().collect();
        assert_eq!(set.len(), offsets.len());
    }

    #[test]
    fn drained_page_is_returned() {
        let mut s = SlabPages::new(0);
        let a = s.alloc(1024, || Some(0)).unwrap();
        let b = s.alloc(1024, || unreachable!()).unwrap();
        assert_eq!(s.free(a), None);
        assert_eq!(s.free(b), Some(0));
        assert_eq!(s.page_count(), 0);
    }

    #[test]
    fn refill_reuses_slot_of_freed_object() {
        let mut s = SlabPages::new(0);
        let a = s.alloc(256, || Some(PAGE_BYTES * 3)).unwrap();
        let _b = s.alloc(256, || unreachable!("page still open")).unwrap();
        assert_eq!(s.free(a), None, "page still holds _b");
        let c = s.alloc(256, || unreachable!("page still open")).unwrap();
        assert_eq!(a, c, "freed slot is reused first");
    }

    #[test]
    fn supply_failure_propagates() {
        let mut s = SlabPages::new(0);
        assert!(s.alloc(64, || None).is_none());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_detected() {
        let mut s = SlabPages::new(0);
        let a = s.alloc(64, || Some(0)).unwrap();
        let _b = s.alloc(64, || unreachable!()).unwrap();
        s.free(a);
        s.free(a);
    }
}
