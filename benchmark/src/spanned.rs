//! A delegating `DsmApi`/`DsmSlice` wrapper that records one span per
//! call — the `core.api` boundary seen from the application's side.
//!
//! The wrapper forwards **every** method an implementation overrides
//! (not just the required ones), reads only `now()` on the way, and
//! adds no shared-memory traffic of its own, so a wrapped kernel
//! produces bit-identical checksums and virtual times (gated by the
//! harness self-tests on LOTS and JIAJIA).
//!
//! Span names: `core.api.{alloc,free,alloc_named,lookup,barrier,lock,
//! unlock,view,view_mut,writeback,elem}`. A mutable view is two spans
//! — opening it (`view_mut`: access check + miss handling) and
//! dropping it (`writeback`) — with the application's own fill loop in
//! between left to its parent, the kernel span. `elem` covers the
//! per-element compat accessors (`read`/`write`/`update`/bulk copies).

use std::ops::{Deref, DerefMut, Range};

use lots_core::{DsmApi, DsmSlice, LockId, Placement, Pod};
use lots_net::{NodeId, TrafficStats};
use lots_sim::{NodeStats, SimInstant};

use crate::trace::Recorder;

/// `inner` with every call recorded into `rec`.
pub struct Spanned<'r, D> {
    inner: &'r D,
    rec: &'r Recorder<'r>,
}

impl<'r, D: DsmApi> Spanned<'r, D> {
    /// Wrap `inner`; `rec` must read `inner`'s clock.
    pub fn new(inner: &'r D, rec: &'r Recorder<'r>) -> Spanned<'r, D> {
        Spanned { inner, rec }
    }

    fn wrap<S>(&self, inner: S) -> SpannedSlice<'_, 'r, S> {
        SpannedSlice {
            inner,
            rec: self.rec,
        }
    }
}

impl<'r, D: DsmApi + 'static> DsmApi for Spanned<'r, D> {
    type Error = D::Error;
    type Slice<'d, T: Pod>
        = SpannedSlice<'d, 'r, D::Slice<'d, T>>
    where
        Self: 'd;

    fn me(&self) -> NodeId {
        self.inner.me()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn now(&self) -> SimInstant {
        self.inner.now()
    }

    fn seed(&self) -> u64 {
        self.inner.seed()
    }

    fn try_alloc<T: Pod>(&self, len: usize) -> Result<Self::Slice<'_, T>, Self::Error> {
        let _s = self.rec.span("core.api.alloc");
        Ok(self.wrap(self.inner.try_alloc(len)?))
    }

    fn try_alloc_placed<T: Pod>(
        &self,
        len: usize,
        placement: Placement,
    ) -> Result<Self::Slice<'_, T>, Self::Error> {
        let _s = self.rec.span("core.api.alloc");
        Ok(self.wrap(self.inner.try_alloc_placed(len, placement)?))
    }

    fn try_free<T: Pod>(&self, slice: Self::Slice<'_, T>) -> Result<(), Self::Error> {
        let _s = self.rec.span("core.api.free");
        self.inner.try_free(slice.inner)
    }

    fn try_alloc_named<T: Pod>(&self, name: &str, len: usize) -> Result<(), Self::Error> {
        let _s = self.rec.span("core.api.alloc_named");
        self.inner.try_alloc_named::<T>(name, len)
    }

    fn try_alloc_named_placed<T: Pod>(
        &self,
        name: &str,
        len: usize,
        placement: Placement,
    ) -> Result<(), Self::Error> {
        let _s = self.rec.span("core.api.alloc_named");
        self.inner.try_alloc_named_placed::<T>(name, len, placement)
    }

    fn try_lookup<T: Pod>(&self, name: &str) -> Result<Self::Slice<'_, T>, Self::Error> {
        let _s = self.rec.span("core.api.lookup");
        Ok(self.wrap(self.inner.try_lookup(name)?))
    }

    fn try_alloc_chunks<T: Pod>(
        &self,
        chunks: usize,
        chunk_len: usize,
    ) -> Result<Vec<Self::Slice<'_, T>>, Self::Error> {
        let _s = self.rec.span("core.api.alloc");
        let parts = self.inner.try_alloc_chunks(chunks, chunk_len)?;
        Ok(parts.into_iter().map(|s| self.wrap(s)).collect())
    }

    fn barrier(&self) {
        let _s = self.rec.span("core.api.barrier");
        self.inner.barrier()
    }

    fn lock(&self, lock: LockId) {
        let _s = self.rec.span("core.api.lock");
        self.inner.lock(lock)
    }

    fn unlock(&self, lock: LockId) {
        let _s = self.rec.span("core.api.unlock");
        self.inner.unlock(lock)
    }

    fn charge_compute(&self, ops: u64) {
        self.inner.charge_compute(ops)
    }

    fn charge_access_checks(&self, n: u64) {
        self.inner.charge_access_checks(n)
    }

    fn stats(&self) -> &NodeStats {
        self.inner.stats()
    }

    fn traffic(&self) -> &TrafficStats {
        self.inner.traffic()
    }
}

/// A handle of the wrapped system plus the recorder.
pub struct SpannedSlice<'d, 'r, S> {
    inner: S,
    rec: &'d Recorder<'r>,
}

impl<S: Copy> Clone for SpannedSlice<'_, '_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: Copy> Copy for SpannedSlice<'_, '_, S> {}

impl<S: std::fmt::Debug> std::fmt::Debug for SpannedSlice<'_, '_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<S: DsmSlice> SpannedSlice<'_, '_, S> {
    fn with(&self, inner: S) -> Self {
        SpannedSlice {
            inner,
            rec: self.rec,
        }
    }
}

impl<S: DsmSlice> DsmSlice for SpannedSlice<'_, '_, S> {
    type Elem = S::Elem;
    type Error = S::Error;
    type View<'g>
        = S::View<'g>
    where
        Self: 'g;
    type ViewMut<'g>
        = SpannedViewMut<'g, S::ViewMut<'g>>
    where
        Self: 'g;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn offset(&self, delta: usize) -> Self {
        self.with(self.inner.offset(delta))
    }

    fn prefix(&self, len: usize) -> Self {
        self.with(self.inner.prefix(len))
    }

    fn try_view_checked(
        &self,
        range: Range<usize>,
        checks: u64,
    ) -> Result<Self::View<'_>, Self::Error> {
        let _s = self.rec.span("core.api.view");
        self.inner.try_view_checked(range, checks)
    }

    fn try_view_mut_checked(
        &self,
        range: Range<usize>,
        checks: u64,
    ) -> Result<Self::ViewMut<'_>, Self::Error> {
        let _s = self.rec.span("core.api.view_mut");
        Ok(SpannedViewMut {
            inner: Some(self.inner.try_view_mut_checked(range, checks)?),
            rec: self.rec,
        })
    }

    fn try_view(&self, range: Range<usize>) -> Result<Self::View<'_>, Self::Error> {
        let _s = self.rec.span("core.api.view");
        self.inner.try_view(range)
    }

    fn try_view_mut(&self, range: Range<usize>) -> Result<Self::ViewMut<'_>, Self::Error> {
        let _s = self.rec.span("core.api.view_mut");
        Ok(SpannedViewMut {
            inner: Some(self.inner.try_view_mut(range)?),
            rec: self.rec,
        })
    }

    fn try_read(&self, i: usize) -> Result<Self::Elem, Self::Error> {
        let _s = self.rec.span("core.api.elem");
        self.inner.try_read(i)
    }

    fn try_write(&self, i: usize, v: Self::Elem) -> Result<(), Self::Error> {
        let _s = self.rec.span("core.api.elem");
        self.inner.try_write(i, v)
    }

    fn try_update(
        &self,
        i: usize,
        f: impl FnOnce(Self::Elem) -> Self::Elem,
    ) -> Result<(), Self::Error> {
        let _s = self.rec.span("core.api.elem");
        self.inner.try_update(i, f)
    }

    fn try_read_into(&self, start: usize, out: &mut [Self::Elem]) -> Result<(), Self::Error> {
        let _s = self.rec.span("core.api.elem");
        self.inner.try_read_into(start, out)
    }

    fn try_write_from(&self, start: usize, vals: &[Self::Elem]) -> Result<(), Self::Error> {
        let _s = self.rec.span("core.api.elem");
        self.inner.try_write_from(start, vals)
    }
}

/// A mutable view guard whose drop (the write-back) is its own span.
pub struct SpannedViewMut<'g, V> {
    /// `Some` until drop hands the guard to its write-back span.
    inner: Option<V>,
    rec: &'g Recorder<'g>,
}

impl<V: Deref> Deref for SpannedViewMut<'_, V> {
    type Target = V::Target;

    fn deref(&self) -> &V::Target {
        self.inner.as_ref().expect("guard is live until drop")
    }
}

impl<V: DerefMut> DerefMut for SpannedViewMut<'_, V> {
    fn deref_mut(&mut self) -> &mut V::Target {
        self.inner.as_mut().expect("guard is live until drop")
    }
}

impl<V> Drop for SpannedViewMut<'_, V> {
    fn drop(&mut self) {
        let _s = self.rec.span("core.api.writeback");
        drop(self.inner.take());
    }
}
