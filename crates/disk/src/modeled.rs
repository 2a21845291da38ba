//! Capacity-modeled store with compressed images: the
//! default swap store of every cluster run.
//!
//! Sized for the Table 1 / §4.3 experiments: the paper swaps >4 GB of
//! object data per run and allocates a 117.77 GB object space, far past
//! what a laptop-scale container should write for real. This store keeps
//! *logical* byte accounting (what counts against the platform's free
//! disk) exact, while holding images RLE-compressed in memory, so data
//! integrity is still verified end-to-end.

use std::collections::HashMap;

use lots_sim::DiskModel;
use parking_lot::Mutex;

use crate::rle::RleImage;
use crate::store::{BackingStore, DiskError, SwapKey};

/// Modeled-disk store: exact logical accounting, compressed storage.
pub struct ModeledStore {
    model: DiskModel,
    capacity: Option<u64>,
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    images: HashMap<SwapKey, RleImage>,
    used_logical: u64,
}

impl ModeledStore {
    pub fn new(model: DiskModel) -> ModeledStore {
        ModeledStore {
            model,
            capacity: None,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Store with a free-disk-space limit, as in §4.3 where allocation
    /// is bounded by "the free space available in the hard disks".
    pub fn with_capacity(model: DiskModel, capacity_bytes: u64) -> ModeledStore {
        ModeledStore {
            capacity: Some(capacity_bytes),
            ..ModeledStore::new(model)
        }
    }
}

impl BackingStore for ModeledStore {
    fn model(&self) -> DiskModel {
        self.model
    }

    fn put(&self, key: SwapKey, data: &[u8]) -> Result<(), DiskError> {
        let mut inner = self.inner.lock();
        let replaced = inner.images.get(&key).map_or(0, |i| i.logical_len() as u64);
        let new_used = inner.used_logical - replaced + data.len() as u64;
        if let Some(cap) = self.capacity {
            if new_used > cap {
                return Err(DiskError::OutOfSpace {
                    need: data.len() as u64,
                    free: cap.saturating_sub(inner.used_logical - replaced),
                });
            }
        }
        inner.images.insert(key, RleImage::encode(data));
        inner.used_logical = new_used;
        Ok(())
    }

    fn get(&self, key: SwapKey) -> Result<Vec<u8>, DiskError> {
        let inner = self.inner.lock();
        let img = inner.images.get(&key).ok_or(DiskError::NotFound(key))?;
        Ok(img.decode())
    }

    fn remove(&self, key: SwapKey) -> Result<(), DiskError> {
        let mut inner = self.inner.lock();
        let img = inner.images.remove(&key).ok_or(DiskError::NotFound(key))?;
        inner.used_logical -= img.logical_len() as u64;
        Ok(())
    }

    fn used_bytes(&self) -> u64 {
        self.inner.lock().used_logical
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lots_sim::SimDuration;

    impl ModeledStore {
        /// Host memory the compressed images hold.
        fn resident_bytes(&self) -> usize {
            let inner = self.inner.lock();
            inner.images.values().map(|i| i.stored_len()).sum()
        }
    }

    fn model() -> DiskModel {
        DiskModel {
            per_op: SimDuration::from_micros(500),
            write_bps: 10_000_000,
            read_bps: 12_000_000,
        }
    }

    #[test]
    fn gigabytes_of_constant_data_stay_tiny() {
        let s = ModeledStore::new(model());
        // 256 "rows" of 4 MB each = 1 GB logical.
        let row: Vec<u8> = std::iter::repeat_n(3u32.to_le_bytes(), 1 << 20)
            .flatten()
            .collect();
        for k in 0..256 {
            s.put(k, &row).unwrap();
        }
        assert_eq!(s.used_bytes(), 256 * 4 * (1 << 20));
        assert!(
            s.resident_bytes() < 256 * 64,
            "resident={}",
            s.resident_bytes()
        );
        assert_eq!(s.get(17).unwrap(), row);
    }

    #[test]
    fn timing_reflects_logical_size() {
        // The device queue prices what the store accounts: logical
        // bytes, not the few the compressed image holds.
        let s = ModeledStore::new(model());
        s.put(0, &vec![0u8; 10_000_000]).unwrap();
        assert!(s.resident_bytes() < 64);
        // 10 MB at 10 MB/s = 1 s + per_op.
        assert_eq!(
            s.model().write_time(s.used_bytes()),
            SimDuration(1_000_000_000) + SimDuration::from_micros(500)
        );
    }

    #[test]
    fn capacity_limits_logical_bytes() {
        let s = ModeledStore::with_capacity(model(), 1_000_000);
        s.put(0, &vec![0u8; 600_000]).unwrap();
        let err = s.put(1, &vec![0u8; 600_000]).unwrap_err();
        assert!(matches!(err, DiskError::OutOfSpace { free: 400_000, .. }));
        s.remove(0).unwrap();
        s.put(1, &vec![0u8; 600_000]).unwrap();
    }

    #[test]
    fn put_get_roundtrip() {
        let s = ModeledStore::new(model());
        s.put(1, b"hello world").unwrap();
        assert_eq!(s.get(1).unwrap(), b"hello world");
        assert_eq!(s.used_bytes(), 11);
    }

    #[test]
    fn replace_updates_usage() {
        let s = ModeledStore::new(model());
        s.put(1, &[0u8; 100]).unwrap();
        s.put(1, &[0u8; 40]).unwrap();
        assert_eq!(s.used_bytes(), 40);
        assert_eq!(s.get(1).unwrap(), [0u8; 40]);
    }

    #[test]
    fn remove_frees_space() {
        let s = ModeledStore::new(model());
        s.put(1, &[0u8; 100]).unwrap();
        s.remove(1).unwrap();
        assert_eq!(s.used_bytes(), 0);
        assert_eq!(s.get(1), Err(DiskError::NotFound(1)));
        assert_eq!(s.remove(1), Err(DiskError::NotFound(1)));
    }

    #[test]
    fn capacity_enforced() {
        let s = ModeledStore::with_capacity(model(), 150);
        s.put(1, &[0u8; 100]).unwrap();
        let err = s.put(2, &[0u8; 100]).unwrap_err();
        assert_eq!(
            err,
            DiskError::OutOfSpace {
                need: 100,
                free: 50
            }
        );
        // Replacement that fits is fine even at high usage.
        s.put(1, &[0u8; 150]).unwrap();
        assert_eq!(s.used_bytes(), 150);
        assert!(s.put(2, &[0u8; 4]).is_err(), "full");
    }

    #[test]
    fn read_faster_than_write_in_this_model() {
        let m = ModeledStore::new(model()).model();
        assert!(m.read_time(1_000_000) < m.write_time(1_000_000));
    }

    #[test]
    fn nonrepetitive_data_roundtrips() {
        let s = ModeledStore::new(model());
        let data: Vec<u8> = (0..9999u32).flat_map(|i| i.to_le_bytes()).collect();
        s.put(5, &data).unwrap();
        assert_eq!(s.get(5).unwrap(), data);
    }
}
