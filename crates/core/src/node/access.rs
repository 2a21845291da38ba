//! §3.3/§4.2 — the access path: the status check every access pays
//! (the 20–25 ns lookup, plus the pin stamp when the large-object
//! space is on), miss detection over the segments a byte range covers,
//! and running the range in place in the object's own bytes.
//!
//! There is one path for every object: an unstriped object is its own
//! one-segment cover ([`NodeState::segments`]), so the striped loop
//! over `[id]` is the unstriped access.

use std::ops::Range;

use bytes::Bytes;
use lots_sim::{SimDuration, TimeCategory};

use super::{DsmError, NodeState};
use crate::cluster::RangeAccess;
use crate::cow::zeros;
use crate::object::{Life, ObjectId, RETOUCHED, TOUCHED};

impl NodeState {
    /// Run the access check for byte range `bytes` of `id`: one §4.2
    /// status check per guard, charged `checks` times on the handle —
    /// striping does not multiply the software check cost. Then resolve
    /// the range over the segments it covers: every stale one is
    /// returned, with its own home, in a single [`RangeAccess::Fetch`]
    /// (the caller fans the fetches out in parallel — from *distinct*
    /// homes in the striped case — installs them with
    /// [`NodeState::install_fetch`] and retries); otherwise each covered
    /// segment is mapped, pinned and — for writes — twinned, and the
    /// access runs through [`NodeState::range_read`] or
    /// [`NodeState::range_write`].
    pub fn begin_access_range(
        &mut self,
        id: ObjectId,
        bytes: &Range<usize>,
        write: bool,
        checks: u64,
    ) -> Result<RangeAccess, DsmError> {
        if self.objects[id.0 as usize].life != Life::Live {
            // The status-checking routine is exactly where a freed
            // object is fenced off — same mechanism as a swap check.
            return Err(DsmError::UseAfterFree { alloc: id.into() });
        }
        let stmt = self.current_stmt();
        self.charge_checks(checks);
        let (segs, _) = self.cover(id, bytes, 1);
        let mut fetches = Vec::new();
        for s in segs.clone() {
            let seg = self.segments(&id)[s];
            let ctl = &self.objects[seg as usize];
            if !ctl.locally_valid() {
                let target = self.fetch_override.get(&seg).copied().unwrap_or(ctl.home());
                fetches.push((seg, target));
            }
        }
        if !fetches.is_empty() {
            return Ok(RangeAccess::Fetch(fetches));
        }
        for s in segs {
            let seg = ObjectId(self.segments(&id)[s]);
            self.try_map(seg)?;
            let idx = seg.0 as usize;
            let ctl = &mut self.objects[idx];
            if ctl.last_access != stmt {
                // One touch per distinct statement: segmented LRU
                // promotes by statements, not element ops.
                ctl.set_flag(RETOUCHED, ctl.flag(TOUCHED));
                ctl.set_flag(TOUCHED, true);
            }
            // The pin stamp lands on each covered segment: earlier
            // segments of this guard are fenced against eviction while
            // later ones map in.
            self.objects[idx].last_access = stmt;
            if write {
                self.prepare_write(seg);
            }
        }
        Ok(RangeAccess::Ready)
    }

    /// Charge `n` access checks: the §4.2 lookup, plus the pin-stamp
    /// update when the large-object space is enabled. Also the workload
    /// cost-model hook for re-accesses of already-resolved objects
    /// (e.g. `b[i][j±1]` after `b[i][j]` — each is still a checked
    /// access in LOTS).
    #[inline]
    pub fn charge_checks(&mut self, n: u64) {
        self.stats.count_access_checks(n);
        let check_t = self.cpu.checks(n);
        self.clock.advance(check_t);
        self.stats.charge(TimeCategory::AccessCheck, check_t);
        if self.cfg.large_object_space {
            let pin_t = SimDuration(self.cpu.pin_update.0 * n);
            self.clock.advance(pin_t);
            self.stats.charge(TimeCategory::LargeObject, pin_t);
        }
    }

    /// The segments range `bytes` of `id` covers, as indices into
    /// [`NodeState::segments`], and whether they can run piece by piece
    /// in place: always, unless the range spans segments whose size is
    /// not a multiple of `elem`, so that an element can straddle two of
    /// them. An unstriped object is covered by its one segment, which
    /// the per-access check learns without dividing.
    #[inline]
    fn cover(&self, id: ObjectId, bytes: &Range<usize>, elem: usize) -> (Range<usize>, bool) {
        let Some(stripe) = self.stripe_of(id) else {
            return (0..1, true);
        };
        let first = bytes.start / stripe.seg_bytes;
        let last = bytes.end.saturating_sub(1).max(bytes.start) / stripe.seg_bytes;
        (
            first..last + 1,
            first == last || stripe.seg_bytes.is_multiple_of(elem),
        )
    }

    /// Covered segment `s` of `id`: its slot, and the part of it that
    /// range `bytes` of the handle covers.
    #[inline]
    fn piece(&self, id: ObjectId, bytes: &Range<usize>, s: usize) -> (usize, Range<usize>) {
        let (seg, seg_start) = match self.stripe_of(id) {
            Some(stripe) => (stripe.children[s] as usize, s * stripe.seg_bytes),
            None => (id.0 as usize, 0),
        };
        let ctl = &self.objects[seg];
        debug_assert!(ctl.offset().is_some(), "covered segment pinned and mapped");
        let from = bytes.start.max(seg_start) - seg_start;
        let to = bytes.end.min(seg_start + ctl.size()) - seg_start;
        (seg, from..to)
    }

    /// Range `bytes` of `id`, gathered into one buffer.
    fn gather(&self, id: ObjectId, bytes: &Range<usize>, segs: Range<usize>) -> Vec<u8> {
        let mut buf = Vec::with_capacity(bytes.len());
        for s in segs {
            let (seg, piece) = self.piece(id, bytes, s);
            match self.objects.data(seg) {
                Some(data) => buf.extend_from_slice(&data[piece]),
                None => buf.resize(buf.len() + piece.len(), 0),
            }
        }
        debug_assert_eq!(buf.len(), bytes.len(), "gather covered the whole range");
        buf
    }

    /// Run `f` over byte range `bytes` of `id`, which
    /// [`NodeState::begin_access_range`] found ready. `f` sees the
    /// range in place in the object's own bytes, piece by piece in
    /// address order — one call per covered segment with the piece's
    /// byte offset within the range, so an unstriped object is one
    /// piece at offset 0 and a view decodes from the segments directly.
    /// Pieces hold whole `elem`-byte elements; only when an element can
    /// straddle two segments is a spanning range gathered into a
    /// staging buffer and run as one piece. A segment that holds no
    /// bytes (never written) is read from a static zero block, not
    /// materialized. Pure data movement with no virtual-time charge
    /// either way.
    #[inline]
    pub fn range_read(
        &self,
        id: ObjectId,
        bytes: &Range<usize>,
        elem: usize,
        mut f: impl FnMut(usize, &[u8]),
    ) {
        let (segs, in_place) = self.cover(id, bytes, elem);
        if !in_place {
            return f(0, &self.gather(id, bytes, segs));
        }
        let mut at = 0;
        for s in segs {
            let (seg, piece) = self.piece(id, bytes, s);
            let len = piece.len();
            match self.objects.data(seg) {
                Some(data) => f(at, &data[piece]),
                None => zeros(len, elem, |off, z| f(at + off, z)),
            }
            at += len;
        }
        debug_assert_eq!(at, bytes.len(), "pieces covered the whole range");
    }

    /// The writing counterpart of [`NodeState::range_read`] (the access
    /// must have been begun for writing): `f` encodes into the object
    /// or its segments directly, and a staged range is scattered back.
    #[inline]
    pub fn range_write(
        &mut self,
        id: ObjectId,
        bytes: &Range<usize>,
        elem: usize,
        mut f: impl FnMut(usize, &mut [u8]),
    ) {
        let (segs, in_place) = self.cover(id, bytes, elem);
        let staged = (!in_place).then(|| {
            let mut buf = self.gather(id, bytes, segs.clone());
            f(0, &mut buf);
            buf
        });
        let mut at = 0;
        for s in segs {
            let (seg, piece) = self.piece(id, bytes, s);
            let len = piece.len();
            let target = &mut self.objects.held_mut(seg).data.write()[piece];
            match &staged {
                None => f(at, target),
                Some(buf) => target.copy_from_slice(&buf[at..at + len]),
            }
            at += len;
        }
        debug_assert_eq!(at, bytes.len(), "pieces covered the whole range");
    }

    /// Install a clean copy fetched from the home: the reply payload
    /// becomes the object's bytes as it is. Over a copy this interval
    /// wrote (a write-invalidate grant of lock `under` fetches its last
    /// releaser's copy over it), this node's own words go back on top,
    /// and the twin becomes the fetched copy, so only those words are
    /// diffed at the barrier. A word this node last wrote in a critical
    /// section of `under`, and has not rewritten since its release,
    /// stays as fetched: every later holder of `under` took it from
    /// here, so the releaser's copy holds it or a newer value.
    pub fn install_fetch(
        &mut self,
        id: ObjectId,
        bytes: Bytes,
        version: u64,
        under: Option<u32>,
    ) -> Result<(), DsmError> {
        let idx = id.0 as usize;
        debug_assert_eq!(bytes.len(), self.objects[idx].size());
        if self.objects[idx].offset().is_none() {
            self.map_in(id)?;
        }
        // Only a copy this interval wrote has published words: the
        // interval's twin and `lock_published` both end at the barrier.
        let published = under.zip(self.lock_published.get_mut(&id.0));
        self.objects.held_mut(idx).install(bytes, |w, v| {
            (published.as_ref()).is_none_or(|(lock, words)| words.get(&w) != Some(&(*lock, v)))
        });
        if let Some((lock, words)) = published {
            words.retain(|_, (l, _)| *l != lock);
        }
        self.objects[idx].version = version;
        self.mark_mutated(idx);
        self.fetch_override.remove(&id.0);
        self.apply_pending_updates(id);
        self.check_state(id.0);
        Ok(())
    }
}
