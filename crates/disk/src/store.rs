//! The backing-store abstraction behind the dynamic memory mapper.
//!
//! §3.3: when the DMM area lacks contiguous space, mapped objects are
//! swapped out "to the local disk"; §4.3 exhausts "all the free hard
//! disk space available" to reach a 117.77 GB shared object space. The
//! mapper only needs put/get/remove plus capacity accounting, so that is
//! the whole trait; three implementations trade realism for scale.

use lots_sim::{DiskModel, SimDuration};

/// Key identifying a swapped-out object's image on disk.
pub type SwapKey = u64;

/// Errors a backing store can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// The key has no stored image (double-free or read-before-write).
    NotFound(SwapKey),
    /// The store's capacity would be exceeded.
    OutOfSpace { need: u64, free: u64 },
    /// Underlying I/O failure (file store only).
    Io(String),
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::NotFound(k) => write!(f, "no swap image for key {k}"),
            DiskError::OutOfSpace { need, free } => {
                write!(f, "backing store full: need {need} bytes, {free} free")
            }
            DiskError::Io(e) => write!(f, "backing store I/O error: {e}"),
        }
    }
}

impl std::error::Error for DiskError {}

/// A swap backing store. All methods are `&self`: stores are shared
/// between a node's app thread and its comm handler.
pub trait BackingStore: Send + Sync {
    /// The disk cost model this store charges time with. The swap
    /// subsystem builds its virtual-time device queue
    /// (`lots_sim::DiskQueue`) from the same model, so queued and
    /// store-reported timings agree.
    fn model(&self) -> DiskModel;

    /// Store (or replace) the image for `key`; returns the modeled disk
    /// time for the write.
    fn put(&self, key: SwapKey, data: &[u8]) -> Result<SimDuration, DiskError>;

    /// Fetch the image for `key`; returns the data and the modeled disk
    /// time for the read.
    fn get(&self, key: SwapKey) -> Result<(Vec<u8>, SimDuration), DiskError>;

    /// Discard the image for `key`, freeing its space.
    fn remove(&self, key: SwapKey) -> Result<(), DiskError>;

    /// Logical bytes currently stored (what counts against capacity).
    fn used_bytes(&self) -> u64;

    /// Capacity limit in logical bytes, if any.
    fn capacity_bytes(&self) -> Option<u64>;

    /// Remaining logical space, `u64::MAX` if unbounded.
    fn free_bytes(&self) -> u64 {
        match self.capacity_bytes() {
            Some(cap) => cap.saturating_sub(self.used_bytes()),
            None => u64::MAX,
        }
    }

    /// Total images stored.
    fn object_count(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert_eq!(
            DiskError::NotFound(9).to_string(),
            "no swap image for key 9"
        );
        let e = DiskError::OutOfSpace { need: 10, free: 4 };
        assert!(e.to_string().contains("need 10"));
        assert!(DiskError::Io("boom".into()).to_string().contains("boom"));
    }
}
