//! §3.3 — the dynamic memory mapper: mapping objects into the DMM
//! area on demand, swapping unpinned victims out to the local disk
//! (batched write-back, stride read-ahead), statement pinning, dropping
//! local copies, and the crash + rejoin rebuild of that state.

use lots_sim::TimeCategory;

use super::{DsmError, NodeState, RejoinSummary};
use crate::alloc::AllocError;
use crate::cow::CowBytes;
use crate::object::{Life, Mapping, ObjectId, CLEAN_ON_DISK, RETOUCHED, TOUCHED};
use crate::swap::{victim, Candidate, ImageTwin, SwapImage};

impl NodeState {
    /// Map `id` into the DMM area, swapping out victims as needed, and
    /// apply the lock updates that were parked while it was not.
    #[inline]
    pub(super) fn try_map(&mut self, id: ObjectId) -> Result<(), DsmError> {
        if self.objects[id.0 as usize].offset().is_none() {
            self.map_in(id)?;
            self.apply_pending_updates(id);
            self.check_state(id.0);
        }
        Ok(())
    }

    /// Give unmapped (or stale) `id` a DMM block and its host bytes: the
    /// decoded swap image if it sat on disk, nothing (it reads as zeros
    /// until touched, or until a fetch installs a copy) otherwise.
    pub(super) fn map_in(&mut self, id: ObjectId) -> Result<(), DsmError> {
        let idx = id.0 as usize;
        let size = self.objects[idx].size();
        let offset = loop {
            match self.alloc.alloc(size) {
                Ok(off) => break off,
                Err(AllocError::TooLarge { size, max }) => {
                    return Err(DsmError::ObjectTooLarge { size, max })
                }
                Err(AllocError::NoSpace { size }) => {
                    if !self.cfg.large_object_space {
                        return Err(DsmError::LotsXCapacity { requested: size });
                    }
                    if !self.evict_some()? {
                        return Err(DsmError::OutOfDmm { requested: size });
                    }
                }
            }
        };
        self.charge(TimeCategory::LargeObject, self.cpu.map_syscall);
        debug_assert!(self.objects.data(idx).is_none(), "unmapped {id} held bytes");
        if self.objects[idx].mapping() == Mapping::OnDisk {
            // The image stays on disk: while the in-memory copy is
            // unmodified, a later eviction is free of disk writes.
            let img = self.fetch_image(id.0 as u64)?;
            let (data, twin) = SwapImage::decode(&img, size)?;
            if self.cfg.swap.compress {
                // One decode pass over the object's words.
                self.charge(TimeCategory::LargeObject, self.cpu.diffing(size as u64));
            }
            let held = self.objects.held_mut(idx);
            held.data = data.into_owned().into();
            // A barrier may have retired the interval while the
            // object sat on disk; only restore a live twin.
            if let Some(live) = &mut held.twin {
                *live = match twin {
                    ImageTwin::Zero => CowBytes::zero(size),
                    ImageTwin::Bytes(tw) => tw.into_owned().into(),
                    ImageTwin::None => unreachable!("dirty object swapped without twin"),
                };
            }
            if self.cfg.swap.read_ahead {
                self.issue_read_ahead(id.0);
            }
        } else {
            self.materialized_cum += size as u64;
        }
        self.objects[idx].set_mapping(Mapping::Mapped { offset });
        self.sync_frag_gauges();
        Ok(())
    }

    /// Obtain the encoded swap image of `key`, either from the
    /// read-ahead buffer or through a demand read on the disk device,
    /// waiting (in virtual time) for the device to deliver it.
    fn fetch_image(&mut self, key: u64) -> Result<Vec<u8>, DsmError> {
        let (img, ready) = match self.prefetched.remove(&key) {
            Some(hit) => {
                self.stats.count_prefetch_hit();
                hit
            }
            None => {
                // The device queue times the read, after any pending
                // write-back.
                let img = self.store.get(key)?;
                let op = self.diskq.read(self.clock.now(), img.len() as u64);
                (img, op.done)
            }
        };
        self.stats
            .charge_until(TimeCategory::Disk, &self.clock, ready);
        self.stats.count_swap_in(img.len() as u64);
        Ok(img)
    }

    /// Stride prediction for the read-ahead: two stripe children of the
    /// same parent stride in *segment* space (so a sequential scan of a
    /// striped object prefetches the next segment, whatever slot ids
    /// the children landed on); two plain objects stride in id space as
    /// before. A mixed pair predicts nothing.
    fn predict_next(&self, last: u32, obj: u32) -> Option<u32> {
        match (
            self.objects.parent(last as usize),
            self.objects.parent(obj as usize),
        ) {
            (Some((lp, ls)), Some((op, os))) if lp == op => {
                let stripe = self.objects.stripe(op as usize)?;
                let next = os as i64 + (os as i64 - ls as i64);
                (next >= 0 && (next as usize) < stripe.children.len())
                    .then(|| stripe.children[next as usize])
            }
            (None, None) => {
                let p = obj as i64 + (obj as i64 - last as i64);
                (p >= 0 && (p as usize) < self.objects.len()).then_some(p as u32)
            }
            _ => None,
        }
    }

    /// Stride read-ahead: after the demand swap-in of `obj`, predict
    /// the next swapped-out object from the recent swap-in stride and
    /// start its device read so the data is (often) already local when
    /// the predicted access arrives.
    fn issue_read_ahead(&mut self, obj: u32) {
        let predicted = match self.last_swapin {
            Some(last) if last != obj => self.predict_next(last, obj),
            _ => None,
        };
        self.last_swapin = Some(obj);
        let Some(pred) = predicted else { return };
        let key = pred as u64;
        if self.prefetched.contains_key(&key)
            || self.objects[pred as usize].mapping() != Mapping::OnDisk
        {
            return;
        }
        let Ok(img) = self.store.get(key) else {
            return;
        };
        let op = self.diskq.read(self.clock.now(), img.len() as u64);
        self.prefetched.insert(key, (img, op.done));
    }

    /// Free DMM space by evicting up to [`crate::config::SwapConfig::batch_evict`]
    /// selected victims in one batched write-back trip. Only objects
    /// untouched by the current statement are candidates — the pinning
    /// fence of §3.3, enforced here and not in the selector.
    /// Returns `false` when everything mapped is pinned.
    fn evict_some(&mut self) -> Result<bool, DsmError> {
        let mut candidates: Vec<Candidate> = self
            .objects
            .iter()
            .enumerate()
            .filter(|(_, ctl)| ctl.offset().is_some() && ctl.last_access < self.stmt)
            .map(|(idx, ctl)| Candidate {
                obj: idx as u32,
                last_access: ctl.last_access,
                hot: ctl.flag(RETOUCHED),
            })
            .collect();
        if candidates.is_empty() {
            return Ok(false);
        }
        let batch = self.cfg.swap.batch_evict.max(1).min(candidates.len());
        let mut victims = Vec::with_capacity(batch);
        for _ in 0..batch {
            let v = victim(&candidates, self.cfg.swap.policy);
            candidates.retain(|c| c.obj != v);
            victims.push(v);
        }
        self.swap_out_batch(&victims)?;
        Ok(true)
    }

    /// Write the victims' images (for those whose disk copy is stale)
    /// in one batched device trip and release their DMM blocks. The
    /// write-back is asynchronous: the application does not stall on
    /// it — a later read on the busy device absorbs the cost.
    fn swap_out_batch(&mut self, victims: &[u32]) -> Result<(), DsmError> {
        let mut write_sizes = Vec::with_capacity(victims.len());
        for &v in victims {
            let idx = v as usize;
            let ctl = &self.objects[idx];
            let (offset, size) = (ctl.offset().expect("victims are mapped"), ctl.size());
            if !ctl.flag(CLEAN_ON_DISK) {
                // An untouched twin is all zeros, which the image
                // elides: the empty slice says so without allocating.
                let held = self.objects.held_mut(idx);
                let twin = held.twin.as_ref().map(|t| t.peek().unwrap_or(&[]));
                let img = SwapImage::encode(held.data.read(), twin, self.cfg.swap.compress);
                if self.cfg.swap.compress {
                    // One encode pass over the object's words.
                    self.charge(TimeCategory::LargeObject, self.cpu.diffing(size as u64));
                }
                let stored = img.len() as u64;
                // Store the bytes now (host-side); the device trip below
                // carries the virtual-time cost.
                self.store.put(v as u64, &img)?;
                self.objects[idx].set_flag(CLEAN_ON_DISK, true);
                self.stats.count_swap_out(stored);
                write_sizes.push(stored);
            }
            self.charge(TimeCategory::LargeObject, self.cpu.map_syscall);
            self.alloc.free(offset);
            self.objects[idx].set_mapping(Mapping::OnDisk);
            // The image holds the bytes now, the twin's included.
            self.objects.drop_bytes(idx);
            self.objects[idx].set_flag(TOUCHED | RETOUCHED, false);
            self.check_state(v);
        }
        if !write_sizes.is_empty() {
            self.diskq.write_batch(self.clock.now(), &write_sizes);
            self.stats.count_swap_batch();
        }
        self.sync_frag_gauges();
        Ok(())
    }

    /// The in-memory copy is about to diverge from the disk image:
    /// drop the stale image and clear the clean flag.
    pub(super) fn mark_mutated(&mut self, idx: usize) {
        if self.objects[idx].flag(CLEAN_ON_DISK) {
            self.store
                .remove(idx as u64)
                .expect("clean_on_disk implies a stored image");
            self.objects[idx].set_flag(CLEAN_ON_DISK, false);
        }
    }

    /// Drop the local copy, leaving it stale: free its DMM block and
    /// host bytes, or its disk image ("free the memory storing the
    /// updates", §3.4). Leaves the fragmentation gauges stale — each
    /// refresh walks the allocator's free lists, so the caller runs
    /// [`NodeState::sync_frag_gauges`] once after the last object it
    /// drops.
    pub(super) fn invalidate_local(&mut self, id: ObjectId) -> Result<(), DsmError> {
        if let Some(offset) = self.drop_local(id)? {
            self.alloc.free(offset);
        }
        Ok(())
    }

    /// [`NodeState::invalidate_local`] short of the allocator: returns
    /// the DMM offset the copy held, for the caller to free (a barrier
    /// frees all of its copies in one pass).
    pub(super) fn drop_local(&mut self, id: ObjectId) -> Result<Option<usize>, DsmError> {
        let idx = id.0 as usize;
        let size = self.objects[idx].size() as u64;
        let freed = match self.objects[idx].mapping() {
            Mapping::Mapped { offset } => {
                self.objects.drop_data(idx);
                self.dematerialized_cum += size;
                if self.objects[idx].flag(CLEAN_ON_DISK) {
                    self.store.remove(id.0 as u64)?;
                }
                Some(offset)
            }
            Mapping::OnDisk => {
                self.dematerialized_cum += size;
                self.prefetched.remove(&(id.0 as u64));
                self.store.remove(id.0 as u64)?;
                None
            }
            Mapping::Unmapped | Mapping::Stale => None,
        };
        self.objects[idx].set_flag(CLEAN_ON_DISK | TOUCHED | RETOUCHED, false);
        self.objects[idx].set_mapping(Mapping::Stale);
        Ok(freed)
    }

    // ------------------------------------------------------------------
    // Statements and pinning (§3.3)
    // ------------------------------------------------------------------

    /// Begin an explicit statement: objects accessed until `exit_stmt`
    /// share one pin scope (like all operands of `a[5]=b[5]+c[5]`).
    pub fn enter_stmt(&mut self) {
        if self.stmt_depth == 0 {
            self.stmt += 1;
        }
        self.stmt_depth += 1;
    }

    /// Close the innermost statement scope (see
    /// [`NodeState::enter_stmt`]).
    pub fn exit_stmt(&mut self) {
        debug_assert!(self.stmt_depth > 0);
        self.stmt_depth -= 1;
    }

    /// The pin stamp of the access being made: the open explicit
    /// statement's, else a fresh one — each bare access is its own
    /// scope.
    #[inline]
    pub(super) fn current_stmt(&mut self) -> u64 {
        if self.stmt_depth == 0 {
            self.stmt += 1;
        }
        self.stmt
    }

    // ------------------------------------------------------------------
    // Crash + rejoin
    // ------------------------------------------------------------------

    /// Simulated crash and rejoin at an interval boundary.
    ///
    /// The node dies immediately after completing a barrier: its DMM
    /// area (and every in-memory cache) is lost, while its swap store
    /// — a disk file in the paper's system — survives the reboot. At
    /// that instant every copy in the cluster is barrier-consistent, so
    /// peers hold byte-identical images of the masters this node homes;
    /// the rejoin protocol rebuilds the node's directory entries, name
    /// table and home-owned object state from those copies plus the
    /// surviving swap store. We model the rebuilt masters landing in
    /// the swap store (a batched write of their images, byte-identical
    /// to what the swap-in path will reload) and the cached
    /// copies of remote objects simply vanishing; the caller charges
    /// the reboot outage and the directory/image transfer time.
    ///
    /// Values are unchanged everywhere — only virtual time moves — so
    /// a crash-rejoin run finishes with checksums identical to the
    /// fault-free run.
    pub fn crash_rejoin(&mut self) -> Result<RejoinSummary, DsmError> {
        // The crash dissolves every pin scope.
        self.stmt += 1;
        let mut masters: Vec<u32> = Vec::new();
        let mut lost: Vec<ObjectId> = Vec::new();
        let mut master_bytes = 0u64;
        for (idx, ctl) in self.objects.iter().enumerate() {
            if ctl.offset().is_none() {
                // Unmapped copies hold no DMM state; OnDisk images live
                // in the store and survive the reboot as-is.
                continue;
            }
            if ctl.home() == self.me {
                masters.push(idx as u32);
                master_bytes += ctl.size() as u64;
            } else {
                lost.push(ObjectId(idx as u32));
            }
        }
        let copies_dropped = lost.len();
        let masters_checkpointed = masters.len();
        // Peers re-send the masters this node homes; the rebuilt images
        // land in the swap store exactly as a swap-out would put them.
        self.swap_out_batch(&masters)?;
        // Cached copies of remotely-homed objects died with the DMM area.
        for id in lost {
            self.invalidate_local(id)?;
            self.check_state(id.0);
        }
        self.sync_frag_gauges();
        // In-memory read-ahead state is gone too.
        self.prefetched.clear();
        self.last_swapin = None;
        // Directory + name-table rebuild traffic: one entry per live
        // object slot (home, version, size, flags) plus the replicated
        // name directory.
        let live_slots = self.objects.iter().filter(|o| o.life != Life::Free).count() as u64;
        let name_bytes: u64 = self
            .names
            .entries()
            .map(|(name, _)| name.len() as u64 + 16)
            .sum();
        Ok(RejoinSummary {
            masters_checkpointed,
            copies_dropped,
            directory_bytes: live_slots * 24 + name_bytes,
            master_bytes,
        })
    }

    /// Blocking read of `bytes` from the node's disk device (journal
    /// read-back during a crash rejoin), advancing this node's clock
    /// to the device's completion time.
    pub fn persist_read_blocking(&mut self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let op = self.diskq.read(self.clock.now(), bytes);
        self.stats
            .charge_until(TimeCategory::Disk, &self.clock, op.done);
    }
}
