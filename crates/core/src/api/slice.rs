//! The one `Pointer<T>` (§3.2/§3.3) under every system: [`Slice`]
//! implements [`DsmSlice`] once over a byte span of a unit, with one
//! read guard ([`View`]) and one mutable guard ([`ViewMut`]); the
//! guards' bookkeeping is the [`ViewRegistry`] every handle carries.
//! How a span's bytes are reached is the system's [`ViewHost`].

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut, Range};
use std::sync::Arc;

use parking_lot::Mutex;

use super::DsmSlice;
use crate::pod::Pod;

// ----------------------------------------------------------------------
// The per-system hook
// ----------------------------------------------------------------------

/// What a [`Slice`] needs of the system it was opened on: the one
/// per-system piece of a `Pointer<T>`.
pub trait ViewHost {
    /// What a handle's byte offsets are relative to, carried by every
    /// handle: an object on LOTS, the one flat space on JIAJIA. Its
    /// `Display` names it in panic messages.
    type Unit: Copy + fmt::Display;

    /// Errors a failed access surfaces.
    type Error: std::error::Error + Send + Sync + 'static;

    /// The handle's guard registry.
    fn views(&self) -> &ViewRegistry;

    /// The key `unit`'s guard spans are registered under.
    fn key(unit: Self::Unit) -> u32;

    /// Pin whatever a live guard must keep mapped. Nothing by default:
    /// only a system that can unmap under the application has to.
    fn pin(&self) {}

    /// Undo [`ViewHost::pin`] when the guard drops.
    fn unpin(&self) {}

    /// Record an application access to `bytes` of `unit` with the race
    /// detector, if there is one. Never advances virtual time.
    fn record(&self, unit: Self::Unit, bytes: &Range<usize>, write: bool);

    /// Pass the access check for `bytes` of `unit` (for writing if
    /// `write`), charging `checks` checks, and hand `f` the range's
    /// bytes in order as `(offset within the range, piece)` pieces,
    /// each a whole number of `elem`-byte elements.
    fn read_span(
        &self,
        unit: Self::Unit,
        bytes: Range<usize>,
        write: bool,
        checks: u64,
        elem: usize,
        f: impl FnMut(usize, &[u8]),
    ) -> Result<(), Self::Error>;

    /// The writing counterpart of [`ViewHost::read_span`]: `f` sees the
    /// same pieces mutably.
    fn write_span(
        &self,
        unit: Self::Unit,
        bytes: Range<usize>,
        checks: u64,
        elem: usize,
        f: impl FnMut(usize, &mut [u8]),
    ) -> Result<(), Self::Error>;
}

// ----------------------------------------------------------------------
// The handle
// ----------------------------------------------------------------------

/// A typed handle on `len` elements of shared memory — the paper's
/// `Pointer<T>` — starting `at` bytes into a unit of system `H`.
///
/// All access methods live on the [`DsmSlice`] trait; see the `api`
/// module docs for the check accounting.
pub struct Slice<'d, H: ViewHost, T: Pod> {
    host: &'d H,
    unit: H::Unit,
    at: usize,
    len: usize,
    _pd: PhantomData<T>,
}

impl<H: ViewHost, T: Pod> Clone for Slice<'_, H, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<H: ViewHost, T: Pod> Copy for Slice<'_, H, T> {}

impl<'d, H: ViewHost, T: Pod> Slice<'d, H, T> {
    /// A handle on `len` elements starting `at` bytes into `unit`.
    pub fn new(host: &'d H, unit: H::Unit, at: usize, len: usize) -> Self {
        Slice {
            host,
            unit,
            at,
            len,
            _pd: PhantomData,
        }
    }

    /// The unit the handle addresses.
    pub(crate) fn unit(&self) -> H::Unit {
        self.unit
    }

    /// The bytes of its unit the handle covers.
    pub fn bytes(&self) -> Range<usize> {
        self.at..self.at + self.len * T::SIZE
    }

    /// The bytes of element range `range`, bounds-checked.
    #[inline]
    fn span(&self, range: &Range<usize>) -> Range<usize> {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "view range {range:?} out of bounds (len {}) on {self:?}",
            self.len
        );
        self.at + range.start * T::SIZE..self.at + range.end * T::SIZE
    }

    /// The bytes of element `i`, with an explicit message on an empty
    /// (e.g. `offset(len)`) handle.
    #[inline]
    fn element(&self, i: usize) -> Range<usize> {
        if self.len == 0 {
            panic!("element access on empty handle {self:?} (offset(len) tail)");
        }
        assert!(
            i < self.len,
            "index {i} out of bounds (len {}) on {self:?}",
            self.len
        );
        let at = self.at + i * T::SIZE;
        at..at + T::SIZE
    }

    /// An element or bulk access made outside any guard: reject it if
    /// it conflicts with a live guard, then record it for analysis.
    #[inline]
    fn direct(&self, bytes: &Range<usize>, write: bool) {
        let views = self.host.views();
        views.check_view_conflict(H::key(self.unit), bytes, write, self.unit);
        self.host.record(self.unit, bytes, write);
    }

    /// Open a guard over element range `range`: register and pin it,
    /// then record and decode the span as one logical access — a write
    /// for a mutable view, a read otherwise — charging `checks`.
    fn open(
        &self,
        range: Range<usize>,
        checks: u64,
        write: bool,
    ) -> Result<(ViewPin<'d, H>, usize, Vec<T>), H::Error> {
        let bytes = self.span(&range);
        let pin = ViewPin::new(self.host, self.unit, &bytes, write);
        let (at, mut data) = (bytes.start, None);
        if !bytes.is_empty() {
            self.host.record(self.unit, &bytes, write);
            // A mutable view runs the write check, resolves a miss and
            // twins once, up front; its write-back costs nothing extra.
            // The buffer is taken at the first piece, after the check
            // and any miss: a guard waiting on a fetch holds none.
            let pool = &self.host.views().pool;
            self.host
                .read_span(self.unit, bytes, write, checks, T::SIZE, |_, b| {
                    whole_elements::<T>(b);
                    let data = data.get_or_insert_with(|| pool.take::<T>(range.len()));
                    data.extend(b.chunks_exact(T::SIZE).map(T::read_from))
                })?;
        }
        Ok((pin, at, data.unwrap_or_default()))
    }
}

/// Hold a host to the [`ViewHost::read_span`] contract: `piece` is a
/// whole number of elements. The chunked decode and encode would
/// otherwise drop the bytes of a split element without a word.
#[inline]
fn whole_elements<T: Pod>(piece: &[u8]) {
    assert!(
        piece.len().is_multiple_of(T::SIZE),
        "a piece of {} bytes splits an element of {} bytes",
        piece.len(),
        T::SIZE
    );
}

/// Encode the elements of `vals` that piece `piece` (found `at` bytes
/// into their range) covers.
fn encode<T: Pod>(vals: &[T], at: usize, piece: &mut [u8]) {
    whole_elements::<T>(piece);
    for (b, v) in piece.chunks_exact_mut(T::SIZE).zip(&vals[at / T::SIZE..]) {
        v.write_to(b);
    }
}

impl<'d, H: ViewHost, T: Pod> DsmSlice for Slice<'d, H, T> {
    type Elem = T;
    type Error = H::Error;
    type View<'g>
        = View<'g, H, T>
    where
        Self: 'g;
    type ViewMut<'g>
        = ViewMut<'g, H, T>
    where
        Self: 'g;

    fn len(&self) -> usize {
        self.len
    }

    fn offset(&self, delta: usize) -> Self {
        assert!(delta <= self.len, "pointer arithmetic out of bounds");
        Slice {
            at: self.at + delta * T::SIZE,
            len: self.len - delta,
            ..*self
        }
    }

    fn prefix(&self, len: usize) -> Self {
        assert!(len <= self.len, "pointer arithmetic out of bounds");
        Slice { len, ..*self }
    }

    fn try_view_checked(
        &self,
        range: Range<usize>,
        checks: u64,
    ) -> Result<View<'_, H, T>, H::Error> {
        let (pin, _, data) = self.open(range, checks, false)?;
        Ok(View { pin, data })
    }

    fn try_view_mut_checked(
        &self,
        range: Range<usize>,
        checks: u64,
    ) -> Result<ViewMut<'_, H, T>, H::Error> {
        let (pin, at, data) = self.open(range, checks, true)?;
        Ok(ViewMut { pin, at, data })
    }

    // The element and bulk ops work in place, with no guard and no
    // buffer: the §4.2 fast path is one table lookup per call.

    #[inline]
    fn try_read(&self, i: usize) -> Result<T, H::Error> {
        let bytes = self.element(i);
        self.direct(&bytes, false);
        let mut out = T::default();
        let read = |_, b: &[u8]| out = T::read_from(b);
        self.host
            .read_span(self.unit, bytes, false, 1, T::SIZE, read)?;
        Ok(out)
    }

    #[inline]
    fn try_write(&self, i: usize, v: T) -> Result<(), H::Error> {
        let bytes = self.element(i);
        self.direct(&bytes, true);
        self.host
            .write_span(self.unit, bytes, 1, T::SIZE, |_, b| v.write_to(b))
    }

    #[inline]
    fn try_update(&self, i: usize, f: impl FnOnce(T) -> T) -> Result<(), H::Error> {
        let bytes = self.element(i);
        self.direct(&bytes, true);
        let mut f = Some(f);
        self.host.write_span(self.unit, bytes, 2, T::SIZE, |_, b| {
            let f = f.take().expect("one element is one piece");
            f(T::read_from(b)).write_to(b);
        })
    }

    #[inline]
    fn try_read_into(&self, start: usize, out: &mut [T]) -> Result<(), H::Error> {
        if out.is_empty() {
            return Ok(());
        }
        let bytes = self.span(&(start..start + out.len()));
        self.direct(&bytes, false);
        let checks = out.len() as u64;
        self.host
            .read_span(self.unit, bytes, false, checks, T::SIZE, |at, b| {
                whole_elements::<T>(b);
                for (slot, b) in out[at / T::SIZE..].iter_mut().zip(b.chunks_exact(T::SIZE)) {
                    *slot = T::read_from(b);
                }
            })
    }

    #[inline]
    fn try_write_from(&self, start: usize, vals: &[T]) -> Result<(), H::Error> {
        if vals.is_empty() {
            return Ok(());
        }
        let bytes = self.span(&(start..start + vals.len()));
        self.direct(&bytes, true);
        let write = |at, b: &mut [u8]| encode(vals, at, b);
        let checks = vals.len() as u64;
        self.host
            .write_span(self.unit, bytes, checks, T::SIZE, write)
    }
}

impl<H: ViewHost, T: Pod> fmt::Debug for Slice<'_, H, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (unit, at, len) = (self.unit, self.at, self.len);
        write!(f, "Slice({unit}, at {at:#x}, len {len})")
    }
}

// ----------------------------------------------------------------------
// The guards
// ----------------------------------------------------------------------

/// Read view guard (returned by [`DsmSlice::view`]): the access check
/// and any miss handling ran once at creation, and what the host pins
/// stays pinned until the guard drops.
pub struct View<'d, H: ViewHost, T: Pod> {
    /// The span, the pin and the live count, released on drop.
    pin: ViewPin<'d, H>,
    data: Vec<T>,
}

impl<H: ViewHost, T: Pod> Deref for View<'_, H, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<H: ViewHost, T: Pod> Drop for View<'_, H, T> {
    fn drop(&mut self) {
        let data = std::mem::take(&mut self.data);
        self.pin.host.views().pool.give(data);
    }
}

/// Mutable view guard (returned by [`DsmSlice::view_mut`]): one access
/// check at creation, pinned for its lifetime, and the buffered
/// elements written back in place on drop.
pub struct ViewMut<'d, H: ViewHost, T: Pod> {
    pin: ViewPin<'d, H>,
    at: usize,
    data: Vec<T>,
}

impl<H: ViewHost, T: Pod> Deref for ViewMut<'_, H, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<H: ViewHost, T: Pod> DerefMut for ViewMut<'_, H, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<H: ViewHost, T: Pod> Drop for ViewMut<'_, H, T> {
    fn drop(&mut self) {
        let (pin, data) = (&self.pin, std::mem::take(&mut self.data));
        if !data.is_empty() {
            let span = self.at..self.at + data.len() * T::SIZE;
            // Zero further checks: the check ran at guard creation, and
            // the pin keeps the span where it was.
            pin.host
                .write_span(pin.unit, span, 0, T::SIZE, |at, b| encode(&data, at, b))
                .unwrap_or_else(|e| panic!("view_mut write-back of {}: {e}", pin.unit));
        }
        pin.host.views().pool.give(data);
    }
}

// ----------------------------------------------------------------------
// View-guard bookkeeping
// ----------------------------------------------------------------------

/// One live guard's byte extent.
struct ViewSpan {
    token: u64,
    unit: u32,
    start: usize,
    end: usize,
    mutable: bool,
}

impl ViewSpan {
    fn overlaps(&self, unit: u32, range: &Range<usize>) -> bool {
        self.unit == unit && self.start < range.end && range.start < self.end
    }
}

/// The live view guards of one application handle, and the two rules
/// of the `api` module docs. A span is a byte range within a unit,
/// registered under the unit's [`ViewHost::key`]. Messages name the
/// unit through a `Display` argument the caller supplies.
#[derive(Default)]
pub struct ViewRegistry {
    /// Live guards, empty ones included.
    live: Cell<u32>,
    next_token: Cell<u64>,
    /// Spans of the live non-empty guards.
    spans: RefCell<Vec<ViewSpan>>,
    /// Where the guards' buffers come from and go back to.
    pool: Arc<GuardPool>,
}

impl ViewRegistry {
    /// A registry whose guards draw their buffers from `pool`.
    pub(crate) fn new(pool: Arc<GuardPool>) -> ViewRegistry {
        ViewRegistry {
            pool,
            ..ViewRegistry::default()
        }
    }

    /// Rule 1: panic if any guard is live at synchronization `what`.
    pub fn assert_no_live_views(&self, what: &str) {
        assert_eq!(
            self.live.get(),
            0,
            "{what} while view guards are live — drop views before synchronizing"
        );
    }

    /// Panic (fence-style) if a live guard overlaps `range` of `unit`:
    /// a buffered guard over dying memory would write back into a
    /// reclaimed slot.
    pub fn assert_no_views_over(
        &self,
        unit: u32,
        range: &Range<usize>,
        what: &str,
        name: impl fmt::Display,
    ) {
        assert!(
            !self.spans.borrow().iter().any(|s| s.overlaps(unit, range)),
            "{what} of {name} while a view guard over it is live — drop it first"
        );
    }

    /// Rule 2: reject an access to `range` of `unit` that conflicts
    /// with a live guard — a write may not overlap any view, a read may
    /// not overlap a mutable view (the buffered snapshot would go stale
    /// or clobber the access on write-back).
    #[inline]
    fn check_view_conflict(
        &self,
        unit: u32,
        range: &Range<usize>,
        write: bool,
        name: impl fmt::Display,
    ) {
        if self.live.get() != 0 {
            self.reject_conflict(unit, range, write, &name);
        }
    }

    /// The slow half of [`ViewRegistry::check_view_conflict`], with a
    /// guard live.
    fn reject_conflict(
        &self,
        unit: u32,
        range: &Range<usize>,
        write: bool,
        name: &dyn fmt::Display,
    ) {
        for s in self.spans.borrow().iter() {
            if s.overlaps(unit, range) && (write || s.mutable) {
                panic!(
                    "{} bytes {:#x}..{:#x} of {name} overlap a live {} view ({:#x}..{:#x}) — drop it first",
                    if write { "write to" } else { "read of" },
                    range.start,
                    range.end,
                    if s.mutable { "mutable" } else { "read" },
                    s.start,
                    s.end
                );
            }
        }
    }
}

/// Spare guard buffers, at most this many: enough for the four guards
/// SOR holds live at once.
const SPARES: usize = 4;

/// The spare guard buffers of one cluster run, shared by every node's
/// [`ViewRegistry`] and dropped with the run. A guard decodes its span
/// into a `Vec<T>` taken from here and gives it back, cleared, when it
/// drops, so a bulk view reuses a warm buffer rather than allocating
/// one of its span's size. One pool serves the whole cluster because
/// one task runs at a time: one node's dropped buffer serves the next
/// node's guard, and the mutex is never contended. Spares are keyed by
/// element type through [`Any`].
#[derive(Default)]
pub(crate) struct GuardPool {
    spares: Mutex<Vec<Box<dyn Any + Send>>>,
}

impl GuardPool {
    /// An empty `Vec<T>` with room for `len` elements: the most recent
    /// `T` spare (grown if it is short), else a fresh one.
    fn take<T: Pod>(&self, len: usize) -> Vec<T> {
        let spare = {
            let mut spares = self.spares.lock();
            let at = spares.iter().rposition(|b| b.is::<Vec<T>>());
            at.map(|at| spares.remove(at))
        };
        let mut data = spare.map_or_else(Vec::new, |b| *b.downcast().expect("a Vec<T>"));
        data.reserve_exact(len);
        data
    }

    /// Keep `data`'s buffer for a later guard, unless it has none or
    /// the pool is full.
    fn give<T: Pod>(&self, mut data: Vec<T>) {
        if data.capacity() == 0 {
            return;
        }
        data.clear();
        let mut spares = self.spares.lock();
        if spares.len() < SPARES {
            spares.push(Box::new(data));
        }
    }
}

/// The bookkeeping half of a view guard: its registered span, the
/// host's pin, and its count among the live guards.
struct ViewPin<'d, H: ViewHost> {
    host: &'d H,
    unit: H::Unit,
    token: Option<u64>,
}

impl<'d, H: ViewHost> ViewPin<'d, H> {
    /// Register a guard over `bytes` of `unit` (after conflict-checking
    /// it as one access: a write if `mutable`). An empty range touches
    /// nothing and registers no span, but still counts as live.
    fn new(host: &'d H, unit: H::Unit, bytes: &Range<usize>, mutable: bool) -> Self {
        let (views, key) = (host.views(), H::key(unit));
        let token = (!bytes.is_empty()).then(|| {
            views.check_view_conflict(key, bytes, mutable, unit);
            let token = views.next_token.get();
            views.next_token.set(token + 1);
            views.spans.borrow_mut().push(ViewSpan {
                token,
                unit: key,
                start: bytes.start,
                end: bytes.end,
                mutable,
            });
            token
        });
        host.pin();
        views.live.set(views.live.get() + 1);
        ViewPin { host, unit, token }
    }
}

impl<H: ViewHost> Drop for ViewPin<'_, H> {
    fn drop(&mut self) {
        let views = self.host.views();
        if let Some(token) = self.token {
            views.spans.borrow_mut().retain(|s| s.token != token);
        }
        self.host.unpin();
        views.live.set(views.live.get() - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DsmError;
    use crate::object::ObjectId;

    /// A host over one flat buffer that hands every span out in two
    /// pieces, cut `cut` bytes in — mid-element unless `cut` is a
    /// multiple of the element size — and fails every access once
    /// `freed`.
    struct Cutting {
        cut: usize,
        mem: RefCell<Vec<u8>>,
        freed: Cell<bool>,
        views: ViewRegistry,
    }

    impl Cutting {
        fn new(cut: usize) -> Cutting {
            Cutting {
                cut,
                mem: RefCell::new((0..64).collect()),
                freed: Cell::new(false),
                views: ViewRegistry::default(),
            }
        }

        fn check(&self) -> Result<(), DsmError> {
            if self.freed.get() {
                return Err(DsmError::UseAfterFree {
                    alloc: ObjectId(0).into(),
                });
            }
            Ok(())
        }

        /// Spare buffers in the pool.
        fn spares(&self) -> usize {
            self.views.pool.spares.lock().len()
        }
    }

    impl ViewHost for Cutting {
        type Unit = &'static str;
        type Error = DsmError;

        fn views(&self) -> &ViewRegistry {
            &self.views
        }

        fn key(_: &'static str) -> u32 {
            0
        }

        fn record(&self, _: &'static str, _: &Range<usize>, _: bool) {}

        fn read_span(
            &self,
            _: &'static str,
            bytes: Range<usize>,
            _: bool,
            _: u64,
            _: usize,
            mut f: impl FnMut(usize, &[u8]),
        ) -> Result<(), DsmError> {
            self.check()?;
            let mem = self.mem.borrow();
            let (head, tail) = mem[bytes].split_at(self.cut);
            f(0, head);
            f(self.cut, tail);
            Ok(())
        }

        fn write_span(
            &self,
            _: &'static str,
            bytes: Range<usize>,
            _: u64,
            _: usize,
            mut f: impl FnMut(usize, &mut [u8]),
        ) -> Result<(), DsmError> {
            self.check()?;
            let mut mem = self.mem.borrow_mut();
            let (head, tail) = mem[bytes].split_at_mut(self.cut);
            f(0, head);
            f(self.cut, tail);
            Ok(())
        }
    }

    #[test]
    fn pieces_on_element_bounds_round_trip() {
        let host = Cutting::new(16);
        let s = Slice::<_, u64>::new(&host, "buffer", 8, 4);
        let vals: Vec<u64> = s.view(0..4).iter().map(|v| v + 1).collect();
        s.view_mut(0..4).copy_from_slice(&vals);
        assert_eq!(&s.view(0..4)[..], &vals[..]);
    }

    #[test]
    #[should_panic(expected = "a piece of 6 bytes splits an element of 8 bytes")]
    fn a_view_over_a_piece_that_splits_an_element_panics() {
        let host = Cutting::new(6);
        let _ = Slice::<_, f64>::new(&host, "buffer", 0, 4).view(0..4);
    }

    #[test]
    #[should_panic(expected = "a piece of 6 bytes splits an element of 4 bytes")]
    fn a_write_over_a_piece_that_splits_an_element_panics() {
        let host = Cutting::new(6);
        Slice::<_, i32>::new(&host, "buffer", 0, 4).write_from(0, &[1, 2, 3, 4]);
    }

    #[test]
    fn a_dropped_guards_buffer_serves_the_next_guard_of_its_type() {
        let host = Cutting::new(16);
        let s = Slice::<_, u64>::new(&host, "buffer", 0, 8);
        let first = s.view(0..4);
        let at = first.as_ptr();
        assert_eq!(host.spares(), 0);
        drop(first);
        assert_eq!(host.spares(), 1, "given back on drop");
        let mut second = s.view_mut(2..6);
        assert_eq!(second.as_ptr(), at, "the same buffer");
        assert_eq!(host.spares(), 0, "taken out while live");
        second[0] = 7;
        drop(second);
        assert_eq!(host.spares(), 1, "given back after the write-back");
        assert_eq!(s.view(2..4)[0], 7);
        assert_eq!(s.view(0..4).as_ptr(), at);
    }

    #[test]
    fn a_guard_of_another_element_type_never_gets_the_buffer() {
        let host = Cutting::new(16);
        let wide = Slice::<_, u64>::new(&host, "buffer", 0, 8);
        let at = wide.view(0..4).as_ptr() as usize;
        assert_eq!(host.spares(), 1);
        let narrow = Slice::<_, u32>::new(&host, "buffer", 0, 16);
        let view = narrow.view(0..8);
        assert_ne!(view.as_ptr() as usize, at);
        assert_eq!(host.spares(), 1, "the u64 buffer stays spare");
        drop(view);
        assert_eq!(host.spares(), 2);
        assert_eq!(wide.view(0..4).as_ptr() as usize, at);
    }

    #[test]
    fn a_reused_buffer_shows_only_its_own_span() {
        let host = Cutting::new(16);
        let s = Slice::<_, u64>::new(&host, "buffer", 0, 8);
        let all: Vec<u64> = s.view(0..8).to_vec();
        let tail = s.view(6..8);
        assert_eq!(&tail[..], &all[6..8]);
        drop(tail);
        let mut w = s.view_mut(6..8);
        w.copy_from_slice(&[1, 2]);
        drop(w);
        // The spare held [1, 2]; a later guard sees only its own span.
        let head = s.view(0..2);
        assert_eq!(&head[..], &all[..2]);
        assert_eq!(head.len(), 2);
    }

    #[test]
    fn a_guard_whose_access_fails_takes_no_buffer() {
        let host = Cutting::new(16);
        let s = Slice::<_, u64>::new(&host, "buffer", 0, 8);
        let at = s.view(0..4).as_ptr();
        host.freed.set(true);
        assert!(matches!(
            s.try_view(0..4),
            Err(DsmError::UseAfterFree { .. })
        ));
        assert!(s.try_view_mut(0..4).is_err());
        assert_eq!(host.spares(), 1, "the spare was never taken");
        host.freed.set(false);
        assert_eq!(s.view(0..4).as_ptr(), at);
    }
}
