//! The object table: one dense [`ObjCtl`] per object-node pair, and
//! beside it what few pairs ever set, each filled only while set — the
//! host bytes and twin in a slab slot, the stripe record of a striped
//! parent and the `(parent, segment)` of a stripe child in maps keyed
//! by id. (The name of a named object is the name directory's.)

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};

use crate::cow::{CowBytes, Held};
use crate::object::{ObjCtl, StripeInfo, NO_SLOT, STRIPED, STRIPE_CHILD};

/// Per-node object table, indexed by object id.
#[derive(Debug, Default)]
pub(super) struct ObjectTable {
    ctls: Vec<ObjCtl>,
    /// Bytes slots; an object's [`ObjCtl::slot`] indexes it.
    held: Vec<Held>,
    /// Slots of `held` no object uses, reused last-freed first.
    spare: Vec<u32>,
    /// Striped parents' records.
    stripes: HashMap<u32, StripeInfo>,
    /// Stripe children's `(parent id, segment index)`.
    parents: HashMap<u32, (u32, u32)>,
}

/// The records, by id.
impl Deref for ObjectTable {
    type Target = [ObjCtl];

    #[inline]
    fn deref(&self) -> &[ObjCtl] {
        &self.ctls
    }
}

impl DerefMut for ObjectTable {
    #[inline]
    fn deref_mut(&mut self) -> &mut [ObjCtl] {
        &mut self.ctls
    }
}

impl ObjectTable {
    /// Put `ctl` at `id`: the next fresh slot, or a reclaimed one,
    /// which holds nothing beside its record.
    pub(super) fn put(&mut self, id: u32, ctl: ObjCtl) {
        let idx = id as usize;
        if idx == self.ctls.len() {
            self.ctls.push(ctl);
        } else {
            debug_assert!(
                !self.has_side_state(idx),
                "slot {id} reused with side state"
            );
            self.ctls[idx] = ctl;
        }
    }

    /// The object's bytes, unless it holds none (it reads as zeros).
    pub(super) fn data(&self, idx: usize) -> Option<&[u8]> {
        self.slot(idx).and_then(|held| held.data.peek())
    }

    /// The object's interval twin, if it was written this interval.
    pub(super) fn twin(&self, idx: usize) -> Option<&CowBytes> {
        self.slot(idx).and_then(|held| held.twin.as_ref())
    }

    fn slot(&self, idx: usize) -> Option<&Held> {
        let slot = self.ctls[idx].slot;
        (slot != NO_SLOT).then(|| &self.held[slot as usize])
    }

    /// The object's bytes and twin, for reading or writing: a slot is
    /// made (zero bytes, no twin) if the object has none. The caller
    /// is about to give it bytes or a twin; one that leaves it with
    /// neither gives the slot back through [`ObjectTable::drop_data`]
    /// or [`ObjectTable::take_twin`].
    #[inline]
    pub(super) fn held_mut(&mut self, idx: usize) -> &mut Held {
        let slot = match self.ctls[idx].slot {
            NO_SLOT => self.open_slot(idx),
            slot => slot,
        };
        &mut self.held[slot as usize]
    }

    /// Give `idx` a slot (zero bytes, no twin) and return it.
    #[cold]
    fn open_slot(&mut self, idx: usize) -> u32 {
        let fresh = Held::zero(self.ctls[idx].size());
        let slot = match self.spare.pop() {
            Some(slot) => {
                self.held[slot as usize] = fresh;
                slot
            }
            None => {
                self.held.push(fresh);
                (self.held.len() - 1) as u32
            }
        };
        self.ctls[idx].slot = slot;
        slot
    }

    /// Drop the object's bytes (it reads as zeros again).
    pub(super) fn drop_data(&mut self, idx: usize) {
        if self.slot(idx).is_some() {
            let size = self.ctls[idx].size();
            self.held_mut(idx).data = CowBytes::zero(size);
            self.release_if_empty(idx);
        }
    }

    /// Drop the object's bytes and its twin's, keeping only the fact
    /// that it has a twin (a swap image holds them now).
    pub(super) fn drop_bytes(&mut self, idx: usize) {
        if self.slot(idx).is_some_and(|held| held.twin.is_some()) {
            let size = self.ctls[idx].size();
            self.held_mut(idx).twin = Some(CowBytes::zero(size));
        }
        self.drop_data(idx);
    }

    /// Take the object's interval twin, if it has one.
    pub(super) fn take_twin(&mut self, idx: usize) -> Option<CowBytes> {
        self.slot(idx)?;
        let twin = self.held_mut(idx).twin.take();
        self.release_if_empty(idx);
        twin
    }

    /// Give the slot back once it holds neither bytes nor a twin.
    fn release_if_empty(&mut self, idx: usize) {
        let ctl = &mut self.ctls[idx];
        let held = &mut self.held[ctl.slot as usize];
        if held.data.peek().is_none() && held.twin.is_none() {
            self.spare.push(ctl.slot);
            ctl.slot = NO_SLOT;
        }
    }

    /// The stripe record of `idx`, if it is a striped parent.
    #[inline]
    pub(super) fn stripe(&self, idx: usize) -> Option<&StripeInfo> {
        if self.ctls[idx].flag(STRIPED) {
            self.stripe_record(idx)
        } else {
            None
        }
    }

    /// The map lookup behind [`ObjectTable::stripe`], out of line: the
    /// access path of an unstriped object inlines only the flag test.
    #[inline(never)]
    fn stripe_record(&self, idx: usize) -> Option<&StripeInfo> {
        self.stripes.get(&(idx as u32))
    }

    /// Make `idx` the striped parent of `stripe`'s children.
    pub(super) fn set_stripe(&mut self, idx: usize, stripe: StripeInfo) {
        self.ctls[idx].set_flag(STRIPED, true);
        self.stripes.insert(idx as u32, stripe);
    }

    /// `(parent id, segment index)` of `idx`, if it is a stripe child.
    pub(super) fn parent(&self, idx: usize) -> Option<(u32, u32)> {
        if self.ctls[idx].flag(STRIPE_CHILD) {
            self.parents.get(&(idx as u32)).copied()
        } else {
            None
        }
    }

    /// Make `idx` segment `seg` of striped parent `parent`.
    pub(super) fn set_parent(&mut self, idx: usize, parent: u32, seg: u32) {
        self.ctls[idx].set_flag(STRIPE_CHILD, true);
        self.parents.insert(idx as u32, (parent, seg));
    }

    /// Forget everything beside the record of a slot being reclaimed:
    /// bytes, twin, stripe record and parent link.
    pub(super) fn clear_side_state(&mut self, idx: usize) {
        self.drop_data(idx);
        self.take_twin(idx);
        let ctl = &mut self.ctls[idx];
        ctl.set_flag(STRIPED | STRIPE_CHILD, false);
        self.stripes.remove(&(idx as u32));
        self.parents.remove(&(idx as u32));
    }

    /// Does slot `idx` hold anything beside its record?
    pub(super) fn has_side_state(&self, idx: usize) -> bool {
        let id = idx as u32;
        self.ctls[idx].slot != NO_SLOT
            || self.stripes.contains_key(&id)
            || self.parents.contains_key(&id)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use lots_disk::ModeledStore;
    use lots_net::NodeId;
    use lots_sim::machine::pentium4_2ghz;
    use lots_sim::{DiskModel, NodeStats, SimClock, SimDuration};

    use super::*;
    use crate::cluster::RangeAccess;
    use crate::config::{LotsConfig, Placement, Striping};
    use crate::node::{DsmError, NodeState};
    use crate::object::{Life, Mapping, NamedAllocReq, ObjectId, MAX_OBJECT_BYTES};

    /// Node 0 of `n` over `cfg`, backed by a modelled in-memory disk.
    fn node(n: usize, cfg: LotsConfig) -> NodeState {
        let store = Arc::new(ModeledStore::new(DiskModel {
            per_op: SimDuration::from_micros(100),
            write_bps: 50_000_000,
            read_bps: 50_000_000,
        }));
        let (clock, stats) = (SimClock::new(), NodeStats::new());
        NodeState::new(0, n, cfg, pentium4_2ghz(), store, clock, stats)
    }

    /// Every entry beside the records belongs to a slot that needs it:
    /// a stripe record to a striped parent that is not free, a parent
    /// link to one of its children, a bytes slot to exactly one object
    /// that holds bytes or a twin (bytes only while mapped), a name to
    /// a live object. Spare slots are the slots nobody holds.
    fn assert_side_state_needed(n: &NodeState) {
        let t = &n.objects;
        for (&id, stripe) in &t.stripes {
            assert!(t[id as usize].flag(STRIPED) && t[id as usize].life != Life::Free);
            for (s, &c) in stripe.children.iter().enumerate() {
                assert_eq!(t.parents.get(&c), Some(&(id, s as u32)), "child {c}");
            }
        }
        for (&id, &(parent, _)) in &t.parents {
            assert!(t[id as usize].flag(STRIPE_CHILD) && t[id as usize].life != Life::Free);
            assert!(t.stripes.contains_key(&parent), "{id}'s parent {parent}");
        }
        let mut owner = vec![None; t.held.len()];
        for (idx, ctl) in t.iter().enumerate() {
            if ctl.slot == NO_SLOT {
                continue;
            }
            assert_ne!(ctl.life, Life::Free, "freed {idx} holds a slot");
            assert_eq!(owner[ctl.slot as usize].replace(idx), None, "slot shared");
            let held = &t.held[ctl.slot as usize];
            assert!(
                held.data.peek().is_some() || held.twin.is_some(),
                "{idx}: empty slot"
            );
            if held.data.peek().is_some() {
                assert!(ctl.offset().is_some(), "unmapped {idx} holds bytes");
            }
        }
        for &slot in &t.spare {
            assert_eq!(owner[slot as usize], None, "spare slot {slot} in use");
        }
        assert_eq!(owner.iter().flatten().count() + t.spare.len(), t.held.len());
        for (name, entry) in n.names.entries() {
            assert_eq!(t[entry.at.0 as usize].life, Life::Live, "{name:?}");
        }
    }

    fn write(n: &mut NodeState, id: ObjectId, val: u8) {
        let all = 0..n.object_size(id);
        let access = n.begin_access_range(id, &all, true, 1).unwrap();
        assert_eq!(access, RangeAccess::Ready);
        n.range_write(id, &all, 4, |_, buf| buf.fill(val));
    }

    fn barrier(n: &mut NodeState, seq: u64) {
        let written: Vec<(ObjectId, NodeId)> = (n.barrier_collect().unwrap().into_iter())
            .map(|(id, _, home, _)| (id, home))
            .collect();
        let (freed, named) = n.take_lifecycle();
        n.barrier_finish(&written, &freed, &named, seq).unwrap();
        assert_side_state_needed(n);
    }

    #[test]
    fn side_tables_hold_only_what_live_slots_need() {
        // Node 0 of 2 over a 32 KB area (a 16 KB lower half), striping
        // above 4 KB: a 12 KB object is three 4 KB children, and a
        // fourth 4 KB object has to evict one of them.
        let cfg = LotsConfig::small(32 * 1024).with_striping(Striping::segments_of(4096));
        let mut n = node(2, cfg);
        // Round-robin homes: `mine` here, `theirs` on node 1.
        let mine = n.register_object(2048).unwrap();
        let theirs = n.register_object(2046).unwrap();
        assert_eq!((n.home_of(mine), n.home_of(theirs)), (0, 1));
        write(&mut n, mine, 1);
        write(&mut n, theirs, 2);
        assert_side_state_needed(&n);
        barrier(&mut n, 1);
        assert!(
            n.objects.data(mine.0 as usize).is_some(),
            "the home keeps its bytes"
        );
        assert!(
            !n.objects.has_side_state(theirs.0 as usize),
            "a dropped copy holds none"
        );

        let striped = n.register_object(12 * 1024).unwrap();
        assert_eq!(n.segments(&striped).len(), 3);
        write(&mut n, striped, 3);
        n.free_object(mine, 2048).unwrap();
        n.stage_named(NamedAllocReq {
            name: "grid".into(),
            bytes: 1024,
            elem_size: 4,
            len: 256,
            placement: Placement::RoundRobin,
            placement_explicit: false,
        })
        .unwrap();
        assert_side_state_needed(&n);
        barrier(&mut n, 2);
        // The named commit reuses the slot `free` gave back, clean.
        let (grid, _) = n.lookup_named("grid", 4).unwrap();
        assert_eq!(grid, mine);
        assert!(!n.objects.has_side_state(grid.0 as usize));

        // Written 4 KB objects fill the lower half until one evicts: a
        // copy on disk keeps its slot only while it has a twin.
        let mut more = Vec::new();
        while n.objects.iter().all(|c| c.mapping() != Mapping::OnDisk) {
            assert!(more.len() < 4, "the lower half holds at most four");
            more.push(n.register_object(4096).unwrap());
            write(&mut n, more[more.len() - 1], 4);
            assert_side_state_needed(&n);
        }
        barrier(&mut n, 3);

        n.free_object(striped, 12 * 1024).unwrap();
        n.free_object(grid, 1024).unwrap();
        barrier(&mut n, 4);
        assert!(n.objects.stripes.is_empty() && n.objects.parents.is_empty());
        assert_eq!(n.names.entries().count(), 0);
        for id in more.into_iter().chain([theirs]) {
            n.free_object(id, n.ctl(id).req_bytes()).unwrap();
        }
        barrier(&mut n, 5);
        assert!((0..n.objects.len()).all(|idx| !n.objects.has_side_state(idx)));
        assert_eq!(n.objects.spare.len(), n.objects.held.len());
    }

    #[test]
    fn a_field_the_record_narrows_is_a_typed_error_at_registration() {
        // A cluster too large for the home field never starts
        // (`ClusterOptions::check`). Striped, the object would need
        // no DMM block of its size.
        let striped = LotsConfig::small(32 * 1024).with_striping(Striping::segments_of(4096));
        assert_eq!(
            node(1, striped).register_object(MAX_OBJECT_BYTES + 1),
            Err(DsmError::ObjectTooLarge {
                size: MAX_OBJECT_BYTES + 4,
                max: MAX_OBJECT_BYTES
            })
        );
    }
}
