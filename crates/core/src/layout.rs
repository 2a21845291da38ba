//! The Figure 3 process-space partition.
//!
//! LOTS claims the middle of the 32-bit process space, `0x5000_0000`
//! through `0xAFFF_FFFF`, and splits it into three equal 512 MB
//! segments: the **DMM area** (dynamically mapped object data), the
//! **twin area** (pre-synchronization copies used to compute diffs) and
//! the **control area** (timestamps and lock information). An object at
//! DMM address `A` has its twin at `A + 0x2000_0000` and its control
//! information at `A + 0x4000_0000`.
//!
//! The reproduction keeps the same *virtual* address arithmetic — all
//! addresses handed to applications are Figure 3 addresses — over a
//! DMM area of configurable size (`dmm_bytes ≤ 512 MB`) whose offsets
//! (`addr - DMM_BASE`) are modelled: each object's host bytes, and its
//! twin's, live with the object (see [`crate::cow`]).

/// Base virtual address of the DMM area.
pub const DMM_BASE: u64 = 0x5000_0000;
/// Base virtual address of the twin area.
pub const TWIN_BASE: u64 = 0x7000_0000;
/// Base virtual address of the control area.
pub const CONTROL_BASE: u64 = 0x9000_0000;
/// First address past the LOTS-managed region.
pub const REGION_END: u64 = 0xB000_0000;
/// Segment size: 512 MB, the paper's DMM-area capacity (which also
/// bounds the size of a single object, §4.3).
pub const SEGMENT_BYTES: u64 = 0x2000_0000;
/// Offset from an object's DMM address to its twin.
pub const TWIN_OFFSET: u64 = 0x2000_0000;
/// Offset from an object's DMM address to its control information.
pub const CONTROL_OFFSET: u64 = 0x4000_0000;

/// A virtual address inside the DMM area.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DmmAddr(pub u64);

impl DmmAddr {
    /// Construct from a DMM offset.
    #[inline]
    pub fn from_offset(offset: usize) -> DmmAddr {
        debug_assert!((offset as u64) < SEGMENT_BYTES);
        DmmAddr(DMM_BASE + offset as u64)
    }

    /// DMM offset of this address.
    #[inline]
    pub fn offset(self) -> usize {
        debug_assert!(self.in_dmm());
        (self.0 - DMM_BASE) as usize
    }

    /// The twin-area address of this object (Fig. 3: `A + 0x2000_0000`).
    #[inline]
    pub fn twin(self) -> u64 {
        self.0 + TWIN_OFFSET
    }

    /// The control-area address of this object (`A + 0x4000_0000`).
    #[inline]
    pub fn control(self) -> u64 {
        self.0 + CONTROL_OFFSET
    }

    /// Whether the address lies inside the DMM segment.
    #[inline]
    pub fn in_dmm(self) -> bool {
        (DMM_BASE..DMM_BASE + SEGMENT_BYTES).contains(&self.0)
    }
}

/// OS page size assumed by the small-object packing policy (§3.2) and
/// by the JIAJIA baseline's page granularity.
pub const PAGE_BYTES: usize = 4096;

/// Objects strictly smaller than this are "small" and packed together
/// into pages in the upper half of the DMM area (§3.2).
pub const SMALL_OBJECT_BYTES: usize = 1024;

/// Objects at least this large are "large" and allocated upward in the
/// lower half of the DMM area; sizes in between are "medium", allocated
/// downward (§3.2).
pub const LARGE_OBJECT_BYTES: usize = 64 * 1024;

/// Default stripe-segment size (4 MB) used by
/// [`Striping::default`](crate::config::Striping): large enough that a
/// segment amortizes per-message protocol costs, small enough that a
/// multi-hundred-MB object spreads over dozens of homes. Distinct from
/// [`SEGMENT_BYTES`], the Figure 3 *address-space* segment (512 MB).
pub const DEFAULT_STRIPE_SEGMENT_BYTES: usize = 4 << 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_constants() {
        // The three segments tile 0x5000_0000..0xB000_0000 exactly.
        assert_eq!(DMM_BASE + SEGMENT_BYTES, TWIN_BASE);
        assert_eq!(TWIN_BASE + SEGMENT_BYTES, CONTROL_BASE);
        assert_eq!(CONTROL_BASE + SEGMENT_BYTES, REGION_END);
        assert_eq!(SEGMENT_BYTES, 512 << 20);
    }

    #[test]
    fn paper_offset_rule() {
        // "an object occupying an address A in the DMM area will also
        //  occupy the corresponding address (A+0x20000000) in the twin
        //  area and the control area (A+0x40000000)".
        let a = DmmAddr(0x5000_abcd);
        assert_eq!(a.twin(), 0x7000_abcd);
        assert_eq!(a.control(), 0x9000_abcd);
    }

    #[test]
    fn offset_roundtrip() {
        let a = DmmAddr::from_offset(12345);
        assert_eq!(a.0, DMM_BASE + 12345);
        assert_eq!(a.offset(), 12345);
        assert!(a.in_dmm());
        assert!(!DmmAddr(TWIN_BASE).in_dmm());
    }

    #[test]
    fn single_object_bound_is_dmm_segment() {
        // §4.3: "the single object size is only limited by the size of
        // the DMM area, which is 512MB in our current implementation".
        assert_eq!(SEGMENT_BYTES as usize, 512 * 1024 * 1024);
    }
}
