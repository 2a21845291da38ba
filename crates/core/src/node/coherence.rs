//! §3.4/§3.5 — the node-local halves of the mixed coherence protocol:
//! twins ahead of writes, homeless write-update at locks (CS twins,
//! release updates, parked grant updates, the write-invalidate
//! ablation), migrating-home write-invalidate at barriers (write
//! notices, interval diffs, the lock-era word guard, home-side diff
//! application, invalidation) and serving a clean copy to a fetch.

use std::collections::HashMap;

use bytes::Bytes;
use lots_net::NodeId;
use lots_sim::TimeCategory;

use super::{CsFrame, DsmError, NodeState};
use crate::config::LockProtocol;
use crate::consistency::locks::WordUpdate;
use crate::diff::WordDiff;
use crate::object::{Life, NamedAllocReq, ObjectId, HOME_PENDING, STRIPE_CHILD};

impl NodeState {
    /// Twin creation (interval twin + CS twin) ahead of a write. Both
    /// share the pre-write bytes; the interval's one copy is made when
    /// the writer first takes them mutably.
    pub(super) fn prepare_write(&mut self, id: ObjectId) {
        let idx = id.0 as usize;
        self.mark_mutated(idx);
        if self.objects.held_mut(idx).twin_before_write() {
            // The interval's first write: a write notice at the barrier.
            let size = self.objects[idx].size() as u64;
            self.charge(TimeCategory::Diffing, self.cpu.diffing(size));
            self.dirty.push(id.0);
        }
        if let Some(frame) = self.cs_stack.last_mut() {
            let held = self.objects.held_mut(idx);
            frame
                .cs_twins
                .entry(id.0)
                .or_insert_with(|| held.data.snapshot());
        } else if self.released > 0 {
            // Outside any critical section, after a release: this
            // write follows every CS write published up to it.
            let ts = self.write_ts.entry(id.0).or_default();
            *ts = (*ts).max(self.released + 1);
        }
        self.check_state(id.0);
    }

    /// Serve a read of the full object (comm handler). Usually the home
    /// serves; under the write-invalidate lock ablation the last
    /// releaser may serve instead. Either way the local copy must be
    /// clean — a stale server is a protocol bug.
    pub fn serve_object(&mut self, id: ObjectId) -> Result<(Bytes, u64), DsmError> {
        let idx = id.0 as usize;
        assert!(
            self.objects[idx].locally_valid(),
            "node {} asked to serve stale {id} (home {})",
            self.me,
            self.objects[idx].home()
        );
        self.try_map(id)?;
        let (segment, version) = (
            self.objects[idx].flag(STRIPE_CHILD),
            self.objects[idx].version,
        );
        let held = self.objects.held_mut(idx);
        // Snapshot versioning: a stripe segment being written this
        // interval serves its *twin* — the immutable copy published
        // at the last barrier — so readers pin that version and
        // never observe the in-flight writer. (Untouched segments
        // serve their data, which *is* the published version.)
        let published = match &mut held.twin {
            Some(twin) if segment => twin,
            _ => &mut held.data,
        };
        // Lent, not copied: the transport fragments the version's own
        // buffer by slicing, and a later write here copies away from it.
        Ok((published.share(), version))
    }

    // ------------------------------------------------------------------
    // Lock-path updates (§3.4 homeless write-update, §3.5 diffs)
    // ------------------------------------------------------------------

    /// Open a critical section guarded by `lock`.
    pub fn enter_cs(&mut self, lock: u32) {
        self.cs_stack.push(CsFrame {
            lock,
            cs_twins: HashMap::new(),
        });
    }

    /// Close the innermost critical section and return the updates made
    /// inside it (per object: the words changed since CS entry).
    pub fn exit_cs(&mut self, lock: u32, release_ts: u64) -> Vec<(ObjectId, WordDiff)> {
        let frame = self.cs_stack.pop().expect("exit_cs without enter_cs");
        debug_assert_eq!(frame.lock, lock, "unbalanced lock nesting");
        self.released = self.released.max(release_ts);
        let mut updates = Vec::with_capacity(frame.cs_twins.len());
        for (obj, snapshot) in frame.cs_twins {
            let (id, idx) = (ObjectId(obj), obj as usize);
            debug_assert!(
                self.objects[idx].offset().is_some(),
                "CS-written object is pinned and mapped"
            );
            let size = self.objects[idx].size();
            let diff = crate::cow::diff(&snapshot, &self.objects.held_mut(idx).data);
            self.charge(TimeCategory::Diffing, self.cpu.diffing(size as u64));
            if !diff.is_empty() {
                // Release timestamps start at 1, so 0 stays free to
                // mean "no lock wrote this" here and in the guard.
                debug_assert!(release_ts > 0, "lock release timestamps start at 1");
                self.write_ts.insert(obj, release_ts);
                // Seed the barrier word guard NOW, not at barrier
                // entry: if this node ends up the object's home, remote
                // interval diffs with older release timestamps — or
                // none at all (ts 0) — start arriving on the comm
                // handler the moment the barrier plan is out, and must
                // not clobber this CS's words. (Seeding in
                // barrier_prepare is too late — an early remote diff
                // can overwrite the bytes first, making the local twin
                // diff look empty; see the quickstart lost-update bug.)
                self.seed_word_guard(obj, &diff, release_ts);
                if self.cfg.lock_protocol == LockProtocol::WriteInvalidate {
                    let published = self.lock_published.entry(obj).or_default();
                    published.extend(diff.iter_words().map(|(w, v)| (w, (lock, v))));
                }
                self.stats.count_diff(diff.wire_size() as u64);
                updates.push((id, diff));
            }
        }
        updates
    }

    /// Apply updates delivered with a lock grant. Mapped copies are
    /// patched in place (data + active twin, so the words are not
    /// re-diffed as local writes); everything else is parked in the
    /// pending table until the object materializes.
    pub fn apply_lock_updates(&mut self, updates: &[(ObjectId, Vec<WordUpdate>)]) {
        for (id, words) in updates {
            let idx = id.0 as usize;
            if self.objects[idx].life != Life::Live {
                // Updates for a tombstoned object die with it at the
                // next barrier; applying (or parking) them would leak
                // into a reused slot.
                continue;
            }
            if self.objects[idx].offset().is_some() {
                self.mark_mutated(idx);
                self.objects
                    .held_mut(idx)
                    .patch_words(words.iter().map(|&(word, _ts, val)| (word, val)));
                self.charge(
                    TimeCategory::Diffing,
                    self.cpu.diffing(words.len() as u64 * 4),
                );
                self.check_state(id.0);
            } else {
                let pend = self.pending_lock_updates.entry(id.0).or_default();
                for &(word, ts, val) in words {
                    match pend.get(&word) {
                        Some(&(old_ts, _)) if old_ts > ts => {}
                        _ => {
                            pend.insert(word, (ts, val));
                        }
                    }
                }
            }
        }
    }

    /// Patch the updates parked for `id` onto its just-mapped copy.
    pub(super) fn apply_pending_updates(&mut self, id: ObjectId) {
        let Some(words) = self.pending_lock_updates.remove(&id.0) else {
            return;
        };
        let idx = id.0 as usize;
        debug_assert!(self.objects[idx].offset().is_some(), "called after mapping");
        self.mark_mutated(idx);
        self.objects
            .held_mut(idx)
            .patch_words(words.into_iter().map(|(word, (_ts, val))| (word, val)));
    }

    /// Write-invalidate lock mode (§3.4 ablation): for each object a
    /// grant names with its last releaser, drop the local copy and
    /// redirect its next fetch to the releaser — unless the copy holds
    /// words nobody else has: this interval's own writes, or the
    /// home's master. Those are returned, for the caller to fetch the
    /// releaser's copy over now ([`NodeState::install_fetch`] under
    /// the granted lock keeps the own words that copy lacks).
    pub fn wi_invalidate(
        &mut self,
        grant: &[(ObjectId, NodeId)],
    ) -> Result<Vec<(u32, NodeId)>, DsmError> {
        let mut fetch = Vec::new();
        for &(id, holder) in grant {
            let (idx, me) = (id.0 as usize, self.me);
            if holder == me || self.objects[idx].life != Life::Live {
                continue;
            }
            if self.objects.twin(idx).is_some() || self.objects[idx].home() == me {
                fetch.push((id.0, holder));
                continue;
            }
            self.invalidate_local(id)?;
            self.sync_frag_gauges();
            self.fetch_override.insert(id.0, holder);
            self.check_state(id.0);
        }
        Ok(fetch)
    }

    /// The timestamp this node's interval diff of `id` carries: that of
    /// its last write under or after a lock release (0 if every write
    /// came before this node released any lock).
    pub fn write_ts_of(&self, id: ObjectId) -> u64 {
        self.write_ts.get(&id.0).copied().unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Barrier-path bookkeeping (§3.4 migrating-home write-invalidate)
    // ------------------------------------------------------------------

    /// Phase A of a barrier: take the dirty set as write notices
    /// (object, size, this node's consistent view of its home, and
    /// whether a first-touch home assignment is still pending). Diffs
    /// are *not* computed yet — the plan decides which objects are
    /// multi-writer and actually need one (§3.4 benefit 1: a single
    /// writer propagates nothing, so nothing is diffed either).
    pub fn barrier_collect(&mut self) -> Result<Vec<(ObjectId, usize, NodeId, bool)>, DsmError> {
        // The barrier opens a fresh statement scope: pins from the last
        // application statement expire, so dirty objects can be swapped
        // in even under full DMM pressure.
        self.stmt += 1;
        let dirty = std::mem::take(&mut self.dirty);
        Ok(dirty
            .into_iter()
            .map(|obj| {
                let ctl = &self.objects[obj as usize];
                (
                    ObjectId(obj),
                    ctl.size(),
                    ctl.home(),
                    ctl.flag(HOME_PENDING),
                )
            })
            .collect())
    }

    /// Phase B preparation, after the plan arrived: compute and cache
    /// the diffs this node must send, and — where this node is the home
    /// of a multi-writer object it also wrote — seed the word guard
    /// with its own writes (unless a remote diff already did) so older
    /// remote timestamps cannot clobber newer local writes.
    pub fn barrier_prepare(
        &mut self,
        send_diffs: &[(NodeId, ObjectId, NodeId)],
        me: NodeId,
    ) -> Result<(), DsmError> {
        for &(writer, id, home) in send_diffs {
            let obj = id.0;
            if writer == me {
                self.try_map(id)?;
                let size = self.objects[obj as usize].size();
                let diff = self.objects.held_mut(obj as usize).interval_diff();
                self.charge(TimeCategory::Diffing, self.cpu.diffing(size as u64));
                self.stats.count_diff(diff.wire_size() as u64);
                self.cached_diffs.insert(obj, diff);
            } else if home == me && self.objects.twin(obj as usize).is_some() {
                // The modelled home maps the object (a swap-in here is
                // modelled work) and diffs it against its twin to find
                // its own interval writes; both are charged whether or
                // not the host needs the answer.
                self.try_map(id)?;
                let size = self.objects[obj as usize].size();
                self.charge(TimeCategory::Diffing, self.cpu.diffing(size as u64));
                self.seed_own_writes(id);
            }
        }
        Ok(())
    }

    /// The diff cached by [`NodeState::barrier_prepare`] for `id`.
    pub fn cached_diff(&self, id: ObjectId) -> &WordDiff {
        &self.cached_diffs[&id.0]
    }

    /// Home side, once per object and interval: guard this node's own
    /// interval writes to `id` with their timestamp. Runs at the first
    /// remote diff for `id` or at `barrier_prepare`, whichever comes
    /// first — the comm handler can race ahead of the app thread's
    /// phase B, and once a remote diff has landed, data against twin
    /// would show its words too. Writes without a timestamp (ts 0 ≡ no
    /// guard entry) have nothing to defend; the host skips them.
    fn seed_own_writes(&mut self, id: ObjectId) {
        if let Some(ts) = self.write_ts.remove(&id.0) {
            let diff = self.objects.held_mut(id.0 as usize).interval_diff();
            self.seed_word_guard(id.0, &diff, ts);
        }
    }

    /// Raise the guard of every word `diff` changes in `obj` to at
    /// least `ts` (a write timestamp, never 0). Merging by maximum
    /// keeps an applied newer timestamp from being rolled back.
    fn seed_word_guard(&mut self, obj: u32, diff: &WordDiff, ts: u64) {
        let guard = self.barrier_word_guard.entry(obj).or_default();
        for (word, _) in diff.iter_words() {
            let seen = guard.entry(word).or_insert(ts);
            *seen = (*seen).max(ts);
        }
    }

    /// Words currently guarded by a lock release timestamp.
    #[cfg(test)]
    pub(super) fn guarded_words(&self) -> usize {
        self.barrier_word_guard.values().map(HashMap::len).sum()
    }

    /// Home-side application of a remote barrier diff (`ts` is the
    /// sender's [`NodeState::write_ts_of`] for the object).
    ///
    /// The mechanism is the run copy; the per-word guard (last CS
    /// writer wins) is a policy only lock-era writes pay for. A guard
    /// entry exists only where some lock release wrote, and an absent
    /// entry reads as timestamp 0, which no diff is older than — so a
    /// `ts == 0` diff for an object nobody guarded is applied whole and
    /// records nothing (recording 0 would be recording "absent"). Any
    /// other combination walks the words against the object's guard,
    /// found once per diff.
    pub fn apply_remote_diff(
        &mut self,
        id: ObjectId,
        diff: &WordDiff,
        ts: u64,
    ) -> Result<(), DsmError> {
        self.try_map(id)?;
        // The diff came off the wire: it must land inside this object.
        diff.check_fits(self.objects[id.0 as usize].size())?;
        self.seed_own_writes(id);
        self.mark_mutated(id.0 as usize);
        self.check_state(id.0);
        let target = self.objects.held_mut(id.0 as usize).data.write();
        let applied = if ts == 0 && !self.barrier_word_guard.contains_key(&id.0) {
            diff.apply(target);
            diff.changed_words()
        } else {
            let guard = self.barrier_word_guard.entry(id.0).or_default();
            let mut count = 0;
            for (word, val) in diff.iter_words() {
                if guard.get(&word).is_some_and(|&prev| prev > ts) {
                    continue;
                }
                let off = word as usize * 4;
                target[off..off + 4].copy_from_slice(&val.to_le_bytes());
                if ts > 0 {
                    guard.insert(word, ts);
                }
                count += 1;
            }
            count
        };
        self.charge(TimeCategory::Diffing, self.cpu.diffing(applied as u64 * 4));
        Ok(())
    }

    /// Final barrier phase: apply home migrations (clearing first-touch
    /// pending flags the plan resolved), invalidate written objects we
    /// are not home of (their DMM blocks go back in one batched free; a
    /// copy already dropped only learns its new home), reclaim the
    /// barrier-agreed freed set, commit the barrier-agreed named
    /// allocations, and clear interval state.
    ///
    /// `written` lists every object any node wrote this interval with
    /// its (possibly migrated) home; `seq` becomes the new version.
    pub fn barrier_finish(
        &mut self,
        written: &[(ObjectId, NodeId)],
        freed: &[ObjectId],
        named: &[NamedAllocReq],
        seq: u64,
    ) -> Result<(), DsmError> {
        let mut dropped = Vec::new();
        for &(id, home) in written {
            let idx = id.0 as usize;
            let is_segment = self.objects[idx].flag(STRIPE_CHILD);
            self.objects[idx].set_home(home);
            self.objects[idx].set_flag(HOME_PENDING, false);
            if home == self.me {
                // We hold the authoritative copy.
                self.objects[idx].version = seq;
                if is_segment {
                    // The write-notice round publishes this segment's
                    // new immutable version, counted at its home.
                    self.stats.count_version_published();
                }
            } else if self.objects[idx].locally_valid() {
                dropped.extend(self.drop_local(id)?);
            }
            if self.objects.take_twin(idx).is_some() && is_segment {
                // Dropping the twin discards the superseded snapshot
                // version readers pinned last interval.
                self.stats.count_version_reclaimed();
            }
            self.check_state(id.0);
        }
        self.alloc.free_many(&mut dropped);
        // Frees before named commits, so a commit can reuse a slot
        // reclaimed at this same barrier.
        for &id in freed {
            self.reclaim(id)?;
        }
        for req in named {
            self.commit_named(req)?;
        }
        // One gauge refresh for the whole invalidate + reclaim pass
        // (the gauges are last-value-only; `commit_named` syncs its own
        // registrations).
        self.sync_frag_gauges();
        self.barrier_word_guard.clear();
        self.pending_lock_updates.clear();
        self.write_ts.clear();
        self.released = 0;
        self.cached_diffs.clear();
        self.fetch_override.clear();
        self.lock_published.clear();
        debug_assert!(self.dirty.is_empty(), "dirty set consumed in collect");
        #[cfg(debug_assertions)]
        {
            // Cross-check the swap counters at every interval boundary.
            let _ = self.swap_accounting();
        }
        Ok(())
    }
}
