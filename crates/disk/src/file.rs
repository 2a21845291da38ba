//! File-backed store: real files on the real local disk.
//!
//! The closest analogue of the paper's actual mechanism — every swapped
//! object becomes a file under a spool directory, written and read with
//! buffered I/O. *Time* comes from the node's disk queue over the
//! [`DiskModel`] (the virtual platform's disk, not the host's), so
//! experiments stay calibrated while the data path is genuine.

use std::collections::HashMap;
use std::fs;
use std::io::{Read, Write};
use std::path::PathBuf;

use lots_sim::DiskModel;
use parking_lot::Mutex;

use crate::store::{BackingStore, DiskError, SwapKey};

/// Spool-directory backing store.
pub struct FileStore {
    model: DiskModel,
    dir: PathBuf,
    capacity: Option<u64>,
    inner: Mutex<Inner>,
    /// Remove the spool directory on drop.
    cleanup: bool,
}

#[derive(Default)]
struct Inner {
    sizes: HashMap<SwapKey, u64>,
    used: u64,
}

impl FileStore {
    /// Open (creating) a spool directory. The directory is removed on
    /// drop if `cleanup` is set.
    pub fn new(
        dir: impl Into<PathBuf>,
        model: DiskModel,
        capacity: Option<u64>,
        cleanup: bool,
    ) -> Result<FileStore, DiskError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| DiskError::Io(e.to_string()))?;
        Ok(FileStore {
            model,
            dir,
            capacity,
            inner: Mutex::new(Inner::default()),
            cleanup,
        })
    }

    /// A store in a fresh unique temp directory (cleaned up on drop).
    pub fn temp(model: DiskModel) -> Result<FileStore, DiskError> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = format!(
            "lots-swap-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        FileStore::new(std::env::temp_dir().join(unique), model, None, true)
    }

    fn path_for(&self, key: SwapKey) -> PathBuf {
        self.dir.join(format!("obj-{key:016x}.swp"))
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        if self.cleanup {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

impl BackingStore for FileStore {
    fn model(&self) -> DiskModel {
        self.model
    }

    fn put(&self, key: SwapKey, data: &[u8]) -> Result<(), DiskError> {
        let mut inner = self.inner.lock();
        let replaced = inner.sizes.get(&key).copied().unwrap_or(0);
        let new_used = inner.used - replaced + data.len() as u64;
        if let Some(cap) = self.capacity {
            if new_used > cap {
                return Err(DiskError::OutOfSpace {
                    need: data.len() as u64,
                    free: cap.saturating_sub(inner.used - replaced),
                });
            }
        }
        let path = self.path_for(key);
        let mut f = std::io::BufWriter::new(
            fs::File::create(&path).map_err(|e| DiskError::Io(e.to_string()))?,
        );
        f.write_all(data)
            .map_err(|e| DiskError::Io(e.to_string()))?;
        f.flush().map_err(|e| DiskError::Io(e.to_string()))?;
        inner.sizes.insert(key, data.len() as u64);
        inner.used = new_used;
        Ok(())
    }

    fn get(&self, key: SwapKey) -> Result<Vec<u8>, DiskError> {
        let size = {
            let inner = self.inner.lock();
            *inner.sizes.get(&key).ok_or(DiskError::NotFound(key))?
        };
        let mut data = Vec::with_capacity(size as usize);
        fs::File::open(self.path_for(key))
            .map_err(|e| DiskError::Io(e.to_string()))?
            .read_to_end(&mut data)
            .map_err(|e| DiskError::Io(e.to_string()))?;
        Ok(data)
    }

    fn remove(&self, key: SwapKey) -> Result<(), DiskError> {
        let mut inner = self.inner.lock();
        let size = inner.sizes.remove(&key).ok_or(DiskError::NotFound(key))?;
        inner.used -= size;
        fs::remove_file(self.path_for(key)).map_err(|e| DiskError::Io(e.to_string()))?;
        Ok(())
    }

    fn used_bytes(&self) -> u64 {
        self.inner.lock().used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lots_sim::SimDuration;

    impl FileStore {
        /// The spool directory in use.
        fn dir(&self) -> &std::path::Path {
            &self.dir
        }
    }

    fn model() -> DiskModel {
        DiskModel {
            per_op: SimDuration::from_micros(200),
            write_bps: 20_000_000,
            read_bps: 30_000_000,
        }
    }

    #[test]
    fn roundtrip_through_real_files() {
        let s = FileStore::temp(model()).unwrap();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 256) as u8).collect();
        s.put(42, &data).unwrap();
        assert!(s.path_for(42).exists());
        assert_eq!(s.get(42).unwrap(), data);
        assert_eq!(s.used_bytes(), 10_000);
    }

    #[test]
    fn remove_deletes_file() {
        let s = FileStore::temp(model()).unwrap();
        s.put(1, b"abc").unwrap();
        let p = s.path_for(1);
        assert!(p.exists());
        s.remove(1).unwrap();
        assert!(!p.exists());
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn temp_dir_cleaned_on_drop() {
        let dir;
        {
            let s = FileStore::temp(model()).unwrap();
            s.put(1, b"abc").unwrap();
            dir = s.dir().to_path_buf();
            assert!(dir.exists());
        }
        assert!(!dir.exists());
    }

    #[test]
    fn capacity_respected() {
        let dir = std::env::temp_dir().join(format!("lots-captest-{}", std::process::id()));
        let s = FileStore::new(&dir, model(), Some(100), true).unwrap();
        s.put(1, &[0u8; 80]).unwrap();
        assert!(matches!(
            s.put(2, &[0u8; 40]),
            Err(DiskError::OutOfSpace { .. })
        ));
    }

    #[test]
    fn missing_key_errors() {
        let s = FileStore::temp(model()).unwrap();
        assert_eq!(s.get(5).unwrap_err(), DiskError::NotFound(5));
    }
}
