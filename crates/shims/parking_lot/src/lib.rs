//! Offline stand-in for [`parking_lot`](https://docs.rs/parking_lot),
//! implemented over `std::sync` and cut down to what the workspace
//! calls: a [`Mutex`] whose `lock()` returns the guard directly. Like
//! `parking_lot`'s, it is not poisoning: a lock a panicking thread held
//! is recovered transparently, which matches `parking_lot`'s "keep
//! going" semantics.

#![forbid(unsafe_code)]

use std::sync;

/// The guard [`Mutex::lock`] returns: `std`'s own.
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

/// Non-poisoning mutex; `lock()` returns the guard directly.
#[derive(Default, Debug)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}
