//! `lots-disk` — swap backing stores for the LOTS dynamic memory mapper.
//!
//! §3.3 of the paper swaps objects out of the DMM area "to the local
//! disk", and §4.3 sizes the shared object space by the free disk space
//! available (117.77 GB in their Dell PowerEdge test). This crate
//! provides the [`BackingStore`] trait the mapper uses plus two
//! implementations:
//!
//! * [`ModeledStore`] — in memory, with exact logical capacity
//!   accounting and RLE-compressed images; the default store, and what
//!   makes the paper's >4 GB and 117.77 GB experiments runnable at
//!   laptop scale (see the README's "Large object space: the swap
//!   subsystem").
//! * [`FileStore`] — real files in a spool directory; closest to the
//!   paper's mechanism.
//!
//! A store only holds bytes and counts them: it reports no I/O time.
//! The caller's `lots_sim::DiskQueue`, built from the store's
//! [`lots_sim::DiskModel`], is the one disk clock.

#![forbid(unsafe_code)]

pub mod file;
pub mod modeled;
pub mod rle;
pub mod store;

pub use file::FileStore;
pub use modeled::ModeledStore;
pub use rle::{CorruptImage, RleImage};
pub use store::{BackingStore, DiskError, SwapKey};
