//! Capacity- and timing-modeled store with compressed images: the
//! default swap store of every cluster run.
//!
//! Sized for the Table 1 / §4.3 experiments: the paper swaps >4 GB of
//! object data per run and allocates a 117.77 GB object space, far past
//! what a laptop-scale container should write for real. This store keeps
//! *logical* byte accounting (what counts against the platform's free
//! disk) exact, while holding images RLE-compressed in memory, so data
//! integrity is still verified end-to-end.

use std::collections::HashMap;

use lots_sim::{DiskModel, SimDuration};
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
            model,
            capacity: Some(capacity_bytes),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Actual host memory held by compressed images (diagnostic).
    pub fn resident_bytes(&self) -> usize {
        self.inner
            .lock()
            .images
            .values()
            .map(|i| i.stored_len())
            .sum()
    }
}

impl BackingStore for ModeledStore {
    fn model(&self) -> DiskModel {
        self.model
    }

    fn put(&self, key: SwapKey, data: &[u8]) -> Result<SimDuration, DiskError> {
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
        Ok(self.model.write_time(data.len() as u64))
    }

    fn get(&self, key: SwapKey) -> Result<(Vec<u8>, SimDuration), DiskError> {
        let inner = self.inner.lock();
        let img = inner.images.get(&key).ok_or(DiskError::NotFound(key))?;
        Ok((img.decode(), self.model.read_time(img.logical_len() as u64)))
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

    fn capacity_bytes(&self) -> Option<u64> {
        self.capacity
    }

    fn object_count(&self) -> usize {
        self.inner.lock().images.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let (back, _) = s.get(17).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn timing_reflects_logical_size() {
        let s = ModeledStore::new(model());
        let row = vec![0u8; 10_000_000];
        let t = s.put(0, &row).unwrap();
        // 10 MB at 10 MB/s = 1 s + per_op.
        assert_eq!(
            t,
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
        let t = s.put(1, b"hello world").unwrap();
        assert!(t > SimDuration::ZERO);
        let (data, rt) = s.get(1).unwrap();
        assert_eq!(data, b"hello world");
        assert!(rt > SimDuration::ZERO);
        assert_eq!(s.used_bytes(), 11);
        assert_eq!(s.object_count(), 1);
    }

    #[test]
    fn replace_updates_usage() {
        let s = ModeledStore::new(model());
        s.put(1, &[0u8; 100]).unwrap();
        s.put(1, &[0u8; 40]).unwrap();
        assert_eq!(s.used_bytes(), 40);
        assert_eq!(s.object_count(), 1);
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
        assert_eq!(s.free_bytes(), 0);
    }

    #[test]
    fn read_faster_than_write_in_this_model() {
        let s = ModeledStore::new(model());
        let w = s.put(1, &[0u8; 1_000_000]).unwrap();
        let (_, r) = s.get(1).unwrap();
        assert!(r < w);
    }

    #[test]
    fn nonrepetitive_data_roundtrips() {
        let s = ModeledStore::new(model());
        let data: Vec<u8> = (0..9999u32).flat_map(|i| i.to_le_bytes()).collect();
        s.put(5, &data).unwrap();
        let (back, _) = s.get(5).unwrap();
        assert_eq!(back, data);
    }
}
