//! The replicated name directory and the interval's staged lifecycle
//! (§3.2: every object has one known-to-all-machines id; a *name*
//! reaches that id through this table, identically on every node).
//!
//! One type, held by both systems' node state: LOTS maps names to
//! object ids, JIAJIA to base addresses, with the same staging rules
//! and the same error order. Entries change only at barriers — a name
//! staged this interval is invisible until every node commits it, and
//! a name freed this interval stays (fenced as a use-after-free) until
//! the barrier that reclaims it. Allocation, striping's per-segment
//! placement and reclamation stay with each system.

use std::collections::HashMap;
use std::hash::Hash;

use lots_persist::NamedMeta;

use crate::config::Placement;
use crate::error::{AllocRef, DsmError};
use crate::object::NamedAllocReq;

/// One replicated directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NamedEntry<H> {
    /// The named allocation (an object id on LOTS, a base address on
    /// JIAJIA).
    pub at: H,
    /// Element size recorded at staging, checked by typed lookups.
    pub elem_size: usize,
    /// Element count.
    pub len: usize,
}

/// One node's name directory, plus the frees (`F`) and named
/// allocations staged this interval for the next barrier. It owns the
/// names: an allocation finds its own through [`NameDirectory::remove_at`].
#[derive(Debug)]
pub struct NameDirectory<H, F> {
    names: HashMap<String, NamedEntry<H>>,
    /// The name of each named allocation.
    by_at: HashMap<H, String>,
    frees: Vec<F>,
    named: Vec<NamedAllocReq>,
}

impl<H, F> Default for NameDirectory<H, F> {
    fn default() -> Self {
        NameDirectory {
            names: HashMap::new(),
            by_at: HashMap::new(),
            frees: Vec::new(),
            named: Vec::new(),
        }
    }
}

impl<H: Copy + Eq + Hash + Into<AllocRef>, F> NameDirectory<H, F> {
    /// Stage a named allocation for commit at the next barrier,
    /// checking in this order: the name is new (neither committed nor
    /// staged), the request is not empty, and `req.placement` — then
    /// `segment`, the per-segment default a LOTS striped allocation
    /// would also resolve through — lies inside a cluster of `n` nodes.
    /// Placements are checked eagerly so a bad home errors here, not
    /// inside the barrier's deterministic commit replay.
    pub fn stage(
        &mut self,
        req: NamedAllocReq,
        n: usize,
        segment: Option<Placement>,
    ) -> Result<(), DsmError> {
        if self.names.contains_key(&req.name) || self.named.iter().any(|p| p.name == req.name) {
            return Err(DsmError::DuplicateName { name: req.name });
        }
        if req.len == 0 {
            return Err(DsmError::EmptyAlloc);
        }
        req.placement.check(n)?;
        if let Some(segment) = segment {
            segment.check(n)?;
        }
        self.named.push(req);
        Ok(())
    }

    /// Stage a freed allocation for cluster-wide reclamation at the
    /// next barrier.
    pub fn stage_free(&mut self, freed: F) {
        self.frees.push(freed);
    }

    /// Resolve a committed name into `(allocation, element count)`.
    /// `live` tells whether the entry's allocation is still live: one
    /// freed this interval keeps its entry until the reclaiming barrier,
    /// and is a use-after-free until then.
    pub fn lookup(
        &self,
        name: &str,
        elem_size: usize,
        live: impl FnOnce(H) -> bool,
    ) -> Result<(H, usize), DsmError> {
        let entry = self.names.get(name).ok_or_else(|| DsmError::NameNotFound {
            name: name.to_string(),
        })?;
        if !live(entry.at) {
            return Err(DsmError::UseAfterFree {
                alloc: entry.at.into(),
            });
        }
        if entry.elem_size != elem_size {
            return Err(DsmError::NameTypeMismatch {
                name: name.to_string(),
                expected: entry.elem_size,
                actual: elem_size,
            });
        }
        Ok((entry.at, entry.len))
    }

    /// Take the interval's staged frees and named allocations for the
    /// barrier rendezvous.
    pub fn take(&mut self) -> (Vec<F>, Vec<NamedAllocReq>) {
        (
            std::mem::take(&mut self.frees),
            std::mem::take(&mut self.named),
        )
    }

    /// Commit one barrier-agreed named allocation, placed at `at` by
    /// the caller (every node replays the same list in the same order,
    /// so the entries agree).
    pub fn insert(&mut self, req: &NamedAllocReq, at: H) {
        let entry = NamedEntry {
            at,
            elem_size: req.elem_size,
            len: req.len,
        };
        let old = self.names.insert(req.name.clone(), entry);
        assert!(
            old.is_none(),
            "named object {:?} committed twice (two nodes staged the same name \
             in one interval)",
            req.name
        );
        self.by_at.insert(at, req.name.clone());
    }

    /// Drop the name of reclaimed allocation `at`, if it has one.
    pub fn remove_at(&mut self, at: H) {
        if let Some(name) = self.by_at.remove(&at) {
            self.names.remove(&name);
        }
    }

    /// Every committed entry, in no particular order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &NamedEntry<H>)> {
        self.names.iter().map(|(name, e)| (name.as_str(), e))
    }

    /// The committed name table as a journal snapshot holds it, each
    /// allocation named by its journal id, `id(at)` (an object id on
    /// LOTS, the first page on JIAJIA).
    pub fn persist(&self, id: impl Fn(H) -> u32) -> Vec<NamedMeta> {
        self.entries()
            .map(|(name, e)| NamedMeta {
                name: name.to_string(),
                id: id(e.at),
                elem_size: e.elem_size as u32,
                len: e.len as u64,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(name: &str, len: usize, placement: Placement) -> NamedAllocReq {
        NamedAllocReq {
            name: name.into(),
            bytes: len * 4,
            elem_size: 4,
            len,
            placement,
            placement_explicit: false,
        }
    }

    #[test]
    fn every_error_in_order_and_the_tombstone_window() {
        let rr = Placement::RoundRobin;
        let mut dir: NameDirectory<usize, usize> = NameDirectory::default();
        // Staging: duplicate, then empty, then placement — a request
        // wrong in several ways reports the first.
        dir.stage(req("grid", 16, rr), 4, None).unwrap();
        let dup = Err(DsmError::DuplicateName {
            name: "grid".into(),
        });
        assert_eq!(dir.stage(req("grid", 0, Placement::Fixed(9)), 4, None), dup);
        assert_eq!(
            dir.stage(req("a", 0, Placement::Fixed(9)), 4, None),
            Err(DsmError::EmptyAlloc)
        );
        let bad = Err(DsmError::BadPlacement { requested: 9, n: 4 });
        assert_eq!(dir.stage(req("a", 1, Placement::Fixed(9)), 4, None), bad);
        assert_eq!(
            dir.stage(req("a", 1, rr), 4, Some(Placement::Fixed(9))),
            bad
        );
        // Staged is not committed: invisible until the barrier.
        let live = |_: usize| true;
        let missing = Err(DsmError::NameNotFound {
            name: "grid".into(),
        });
        assert_eq!(dir.lookup("grid", 4, live), missing);
        let (frees, named) = dir.take();
        assert!(frees.is_empty());
        assert_eq!(named.len(), 1, "only the good request was staged");
        dir.insert(&named[0], 7);
        assert_eq!(dir.lookup("grid", 4, live), Ok((7, 16)));
        assert_eq!(dir.stage(req("grid", 1, rr), 4, None), dup, "committed");
        assert_eq!(
            dir.lookup("grid", 8, live),
            Err(DsmError::NameTypeMismatch {
                name: "grid".into(),
                expected: 4,
                actual: 8
            })
        );
        // Freed this interval: the entry stays until the barrier and is
        // a use-after-free before the element size is even compared.
        dir.stage_free(7);
        let freed = |at: usize| at != 7;
        let fenced = Err(DsmError::UseAfterFree { alloc: 7.into() });
        assert_eq!(dir.lookup("grid", 4, freed), fenced);
        assert_eq!(dir.lookup("grid", 8, freed), fenced);
        assert_eq!(dir.stage(req("grid", 1, rr), 4, None), dup, "still taken");
        // The reclaiming barrier drops the name, freeing it for reuse.
        assert_eq!(dir.take(), (vec![7], vec![]));
        dir.remove_at(7);
        assert_eq!(dir.lookup("grid", 4, freed), missing);
        assert_eq!(dir.entries().count(), 0);
        dir.stage(req("grid", 1, rr), 4, None).unwrap();
    }

    #[test]
    #[should_panic(expected = "committed twice")]
    fn a_name_committed_twice_is_a_protocol_bug() {
        let mut dir: NameDirectory<usize, usize> = NameDirectory::default();
        let r = req("grid", 1, Placement::RoundRobin);
        dir.insert(&r, 1);
        dir.insert(&r, 2);
    }
}
