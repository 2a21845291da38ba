//! The backing-store abstraction behind the dynamic memory mapper.
//!
//! §3.3: when the DMM area lacks contiguous space, mapped objects are
//! swapped out "to the local disk"; §4.3 exhausts "all the free hard
//! disk space available" to reach a 117.77 GB shared object space. The
//! mapper only needs put/get/remove plus the bytes stored, so that is
//! the whole trait; two implementations trade realism for scale.

use lots_sim::DiskModel;

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
    /// The disk this store stands for. The swap subsystem builds its
    /// virtual-time device queue (`lots_sim::DiskQueue`) from it: that
    /// queue is the one disk clock, and the store only holds bytes.
    fn model(&self) -> DiskModel;

    /// Store (or replace) the image for `key`.
    fn put(&self, key: SwapKey, data: &[u8]) -> Result<(), DiskError>;

    /// Fetch the image for `key`.
    fn get(&self, key: SwapKey) -> Result<Vec<u8>, DiskError>;

    /// Discard the image for `key`, freeing its space.
    fn remove(&self, key: SwapKey) -> Result<(), DiskError>;

    /// Logical bytes currently stored (what counts against capacity;
    /// a `put` past it fails with [`DiskError::OutOfSpace`]).
    fn used_bytes(&self) -> u64;
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
