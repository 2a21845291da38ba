//! The per-node append-only diff journal and its compactor.
//!
//! A [`NodeJournal`] is driven once per barrier, after the node's
//! interval has been published: [`NodeJournal::append_barrier`] turns
//! the node's post-barrier view (live directory, name table, content
//! of home-owned masters written this interval) into a deterministic
//! record batch — lifecycle deltas, XOR diffs against the previously
//! journaled content, a digest-carrying seal, and (when the checkpoint
//! policy fires) a manifest. The caller books the returned record
//! sizes on its serial disk device as one write-behind batch, so the
//! application never stalls on journal I/O.
//!
//! An append costs what it writes: records are encoded straight onto
//! the node's log, a written object is scanned once (its XOR against
//! the shadow leaves the scan as RLE records inside the diff's frame), and
//! the seal re-hashes only what the interval wrote ([`Shadow`]).
//!
//! Compaction ([`NodeJournal::maybe_compact`]) rewrites the log when
//! the superseded share of diff bytes crosses the configured
//! threshold: every diff at or below the **previous** sealed
//! checkpoint is squashed into consolidated [`Record::Compacted`]
//! images placed just before that checkpoint's manifest. Squashing
//! only below the previous checkpoint keeps the newest checkpoint
//! re-foldable even if a later crash tears the newest manifest off
//! some node's log and regresses the cluster-wide restore point. A
//! run is one pass over the log where it lies: each record CRC-checked
//! and decoded once, folded or copied across, and accounted as it lands.

use std::collections::BTreeMap;

use crate::config::PersistConfig;
use crate::record::{
    decode_view, encode_rle_into, state_digest, Extent, ManifestBody, NamedMeta, ObjMeta, Record,
    Shadow,
};
use crate::restore::Fold;
use crate::store::PersistStore;

/// One barrier's post-publication view of a node, handed to
/// [`NodeJournal::append_barrier`].
#[derive(Debug, Clone)]
pub struct BarrierInput {
    /// Barrier sequence (1-based, monotonically increasing).
    pub seq: u64,
    /// The node's virtual clock at the barrier, in nanoseconds.
    pub clock_nanos: u64,
    /// Every live object after the barrier (id order not required;
    /// the journal sorts internally).
    pub live: Vec<ObjMeta>,
    /// The full committed name table after the barrier.
    pub names: Vec<NamedMeta>,
    /// `(id, content)` of every object this node homes whose master
    /// changed this interval. Freed ids are skipped by the journal.
    pub written_home: Vec<(u32, Vec<u8>)>,
    /// DMM extent map; only consulted when this barrier checkpoints
    /// (callers may leave it empty otherwise — see
    /// [`NodeJournal::checkpoint_due`]).
    pub extents: Vec<Extent>,
}

/// What one barrier appended, for the caller to book on its disk
/// device and count into its node stats.
#[derive(Debug, Clone, Default)]
pub struct BarrierOutcome {
    /// Per-record byte sizes, in append order (one write-behind batch).
    pub write_sizes: Vec<u64>,
    /// Records appended.
    pub records: u64,
    /// Total bytes appended.
    pub bytes: u64,
    /// Bytes of the checkpoint manifest, if this barrier checkpointed.
    pub checkpoint_bytes: u64,
    /// Under a [`VerifyPlan`]: `true` iff this barrier lies beyond the
    /// restored checkpoint (it was replayed, not verified-from-disk).
    pub replayed: bool,
}

/// What one compaction run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Log bytes the compactor read (the prefix it folded).
    pub read_bytes: u64,
    /// Bytes of the rewritten prefix it put back (consolidated images
    /// plus surviving records).
    pub write_bytes: u64,
    /// Net log bytes reclaimed.
    pub reclaimed: u64,
}

/// Digest + clock of one sealed barrier, as recovered by restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealInfo {
    /// The sealed state digest.
    pub digest: u64,
    /// The node's virtual clock at the seal, in nanoseconds.
    pub clock: u64,
}

/// Barrier-by-barrier verification installed on a replaying node's
/// journal: the replay must reproduce every sealed digest and clock
/// recovered from the original log, or panic at the first divergent
/// barrier.
#[derive(Debug, Clone, Default)]
pub struct VerifyPlan {
    /// The restored cluster checkpoint; barriers beyond it count as
    /// replayed.
    pub checkpoint_seq: u64,
    /// Every sealed barrier recovered from the original log.
    pub seals: BTreeMap<u64, SealInfo>,
}

/// One node's append-only journal.
pub struct NodeJournal {
    me: usize,
    store: PersistStore,
    cfg: PersistConfig,
    /// Directory as last journaled.
    dir: BTreeMap<u32, ObjMeta>,
    /// Name table as last journaled.
    names: BTreeMap<String, NamedMeta>,
    /// Last-journaled content of home-owned masters, each with its
    /// cached digest.
    shadows: BTreeMap<u32, Shadow>,
    /// Bytes of the newest diff/image record per object (live bytes).
    diff_live: BTreeMap<u32, u64>,
    /// Cumulative diff/image record bytes in the log.
    diff_total: u64,
    /// Sealed checkpoint sequences, ascending.
    manifests: Vec<u64>,
    /// Newest barrier compaction has squashed up to.
    compacted_upto: u64,
    /// Log length right after the newest manifest was appended.
    bytes_at_checkpoint: u64,
    verify: Option<VerifyPlan>,
}

impl NodeJournal {
    /// A fresh journal for node `me` writing into `store`.
    pub fn new(me: usize, store: PersistStore, cfg: PersistConfig) -> NodeJournal {
        NodeJournal {
            me,
            store,
            cfg,
            dir: BTreeMap::new(),
            names: BTreeMap::new(),
            shadows: BTreeMap::new(),
            diff_live: BTreeMap::new(),
            diff_total: 0,
            manifests: Vec::new(),
            compacted_upto: 0,
            bytes_at_checkpoint: 0,
            verify: None,
        }
    }

    /// Install a restore verification plan (replaying runs only).
    pub fn set_verify(&mut self, plan: VerifyPlan) {
        self.verify = Some(plan);
    }

    /// Will barrier `seq` seal a checkpoint? Callers use this to
    /// decide whether to bother building the extent map.
    pub fn checkpoint_due(&self, seq: u64) -> bool {
        self.cfg.checkpoint_due(seq)
    }

    /// Log bytes pinned by the newest checkpoint (what a rejoining
    /// node reads back from its own disk to rebuild masters).
    pub fn log_bytes_at_checkpoint(&self) -> u64 {
        self.bytes_at_checkpoint
    }

    /// Log bytes appended after the newest checkpoint (what a
    /// rejoining node must still re-fetch from peers).
    pub fn log_bytes_since_checkpoint(&self) -> u64 {
        self.store
            .log_bytes(self.me)
            .saturating_sub(self.bytes_at_checkpoint)
    }

    /// Journal one barrier. Returns the appended record sizes for the
    /// caller to book on the disk device as a write-behind batch.
    pub fn append_barrier(&mut self, input: BarrierInput) -> BarrierOutcome {
        let me = self.me as u32;
        let seq = input.seq;
        let live: BTreeMap<u32, ObjMeta> = input.live.into_iter().map(|m| (m.id, m)).collect();
        let names: BTreeMap<String, NamedMeta> = input
            .names
            .into_iter()
            .map(|nm| (nm.name.clone(), nm))
            .collect();
        let mut written = input.written_home;
        written.sort_by_key(|(id, _)| *id);
        let checkpoint = self.checkpoint_due(seq);
        let mut out = BarrierOutcome::default();
        let digest = self.store.with_log(self.me, |log| {
            let start = log.len();
            let mut put = |log: &mut Vec<u8>, rec: Record| {
                out.write_sizes.push(rec.encode_into(log) as u64);
            };
            // Frees first, in id order (slot reuse emits Free before
            // the replacement Alloc below).
            for id in self.dir.keys().filter(|id| !live.contains_key(id)) {
                put(log, Record::Free { id: *id });
                self.shadows.remove(id);
                self.diff_live.remove(id);
            }
            for (id, m) in &live {
                match self.dir.get(id) {
                    None => put(log, Record::Alloc(m.clone())),
                    Some(old) if old.bytes != m.bytes || old.parent != m.parent => {
                        // Slot reuse: same id, different object.
                        put(log, Record::Free { id: *id });
                        put(log, Record::Alloc(m.clone()));
                        self.shadows.remove(id);
                        self.diff_live.remove(id);
                    }
                    Some(old) if old.home != m.home => {
                        let home = m.home;
                        put(log, Record::HomeMigrate { id: *id, home });
                    }
                    _ => {}
                }
                if m.home != me {
                    // Not (or no longer) ours to master; the new home's
                    // journal carries the content from here on.
                    self.shadows.remove(id);
                    self.diff_live.remove(id);
                }
            }
            for name in self.names.keys().filter(|n| !names.contains_key(*n)) {
                put(log, Record::NameDrop { name: name.clone() });
            }
            for (name, nm) in &names {
                if self.names.get(name) != Some(nm) {
                    put(log, Record::NameCommit(nm.clone()));
                }
            }
            for (id, content) in written {
                // Skip an object freed at this same barrier, and
                // (defensively) one that is not ours to master.
                if live.get(&id).is_none_or(|meta| meta.home != me) {
                    continue;
                }
                let shadow = self.shadows.get(&id).map(Shadow::bytes);
                let sz = encode_rle_into(log, false, id, seq, &content, shadow) as u64;
                out.write_sizes.push(sz);
                self.diff_total += sz;
                self.diff_live.insert(id, sz);
                self.shadows.insert(id, Shadow::new(content));
            }
            self.dir = live;
            self.names = names;
            let digest = state_digest(seq, &self.dir, &self.names, &mut self.shadows);
            let clock = input.clock_nanos;
            out.write_sizes
                .push(Record::Seal { seq, clock, digest }.encode_into(log) as u64);
            if checkpoint {
                let manifest = Record::Manifest(Box::new(ManifestBody {
                    seq,
                    digest,
                    dir: self.dir.values().cloned().collect(),
                    names: self.names.values().cloned().collect(),
                    extents: input.extents,
                }));
                out.checkpoint_bytes = manifest.encode_into(log) as u64;
                out.write_sizes.push(out.checkpoint_bytes);
                self.manifests.push(seq);
                self.bytes_at_checkpoint = log.len() as u64;
            }
            out.records = out.write_sizes.len() as u64;
            out.bytes = (log.len() - start) as u64;
            digest
        });
        if let Some(plan) = &self.verify {
            if let Some(info) = plan.seals.get(&seq) {
                assert_eq!(
                    info.digest, digest,
                    "restore verification failed: node {} state digest mismatch at barrier {seq}",
                    self.me
                );
                assert_eq!(
                    info.clock, input.clock_nanos,
                    "restore verification failed: node {} virtual clock mismatch at barrier {seq}",
                    self.me
                );
            }
            out.replayed = seq > plan.checkpoint_seq;
        }
        out
    }

    /// Would a compaction run fire right now? True once the superseded
    /// share of diff bytes crosses the configured threshold and there
    /// is a previous checkpoint to squash below.
    pub fn compaction_due(&self) -> bool {
        let c = &self.cfg.compaction;
        if !c.enabled || self.manifests.len() < 2 {
            return false;
        }
        let k_prev = self.manifests[self.manifests.len() - 2];
        if k_prev <= self.compacted_upto {
            return false;
        }
        if self.diff_total < c.min_log_bytes {
            return false;
        }
        let live: u64 = self.diff_live.values().sum();
        let garbage = self.diff_total.saturating_sub(live);
        garbage * 1000 >= u64::from(c.garbage_permille) * self.diff_total
    }

    /// Run one compaction if due: fold the log up to the previous
    /// checkpoint, squash its diffs into consolidated images placed
    /// just before that checkpoint's manifest, and rewrite the log.
    /// The caller charges `read_bytes`/`write_bytes` on the node's
    /// serial disk device (compaction competes with demand I/O).
    /// A record that does not decode or apply ends the run with the
    /// log and the journal's accounting untouched.
    pub fn maybe_compact(&mut self) -> Option<CompactionOutcome> {
        if !self.compaction_due() {
            return None;
        }
        let me = self.me as u32;
        let k_prev = self.manifests[self.manifests.len() - 2];
        let (outcome, acct) = self.store.with_log(self.me, |log| {
            let old: &[u8] = log;
            let mut new_log: Vec<u8> = Vec::with_capacity(old.len());
            // Diff accounting and the checkpoint pin of the new log.
            let (mut diff_total, mut diff_live, mut pin) = (0u64, BTreeMap::new(), 0u64);
            let mut fold = Fold::new(me);
            let mut folding = true;
            let (mut read_bytes, mut write_bytes) = (0u64, 0u64);
            let mut at = 0;
            while at < old.len() {
                let (view, used) = decode_view(&old[at..])?;
                let frame = &old[at..at + used];
                at += used;
                if folding {
                    fold.apply(&view).ok()?;
                    read_bytes += used as u64;
                }
                let keep = match &view.rec {
                    Record::Manifest(b) if folding && b.seq == k_prev => {
                        // The horizon marker first: even a run that
                        // leaves no images must tell restore which
                        // seals can no longer be re-folded.
                        Record::CompactionHorizon { upto_seq: k_prev }.encode_into(&mut new_log);
                        // Consolidated images for every live master at
                        // k_prev, in id order, ahead of the manifest
                        // that pins them.
                        let mine = b.homed_at(me);
                        for (id, shadow) in fold.content.iter().filter(|(id, _)| mine.contains(id))
                        {
                            let image = shadow.bytes();
                            let sz = encode_rle_into(&mut new_log, true, *id, k_prev, image, None);
                            diff_total += sz as u64;
                            diff_live.insert(*id, sz as u64);
                        }
                        folding = false;
                        write_bytes = (new_log.len() + used) as u64;
                        true
                    }
                    Record::Diff { seq, .. } => *seq > k_prev,
                    Record::Compacted { upto_seq, .. } | Record::CompactionHorizon { upto_seq } => {
                        *upto_seq > k_prev
                    }
                    _ => true,
                };
                if !keep {
                    continue;
                }
                new_log.extend_from_slice(frame);
                match &view.rec {
                    Record::Diff { id, .. } | Record::Compacted { id, .. } => {
                        diff_total += used as u64;
                        diff_live.insert(*id, used as u64);
                    }
                    Record::Free { id } => {
                        diff_live.remove(id);
                    }
                    Record::Manifest(_) => pin = new_log.len() as u64,
                    _ => {}
                }
            }
            let outcome = CompactionOutcome {
                read_bytes,
                write_bytes,
                reclaimed: (old.len() as u64).saturating_sub(new_log.len() as u64),
            };
            *log = new_log;
            Some((outcome, (diff_total, diff_live, pin)))
        })?;
        (self.diff_total, self.diff_live, self.bytes_at_checkpoint) = acct;
        self.compacted_upto = k_prev;
        Some(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompactionConfig;
    use crate::record::RLE_FRAME;

    fn meta(id: u32, home: u32, bytes: u64) -> ObjMeta {
        ObjMeta {
            id,
            home,
            version: 0,
            bytes,
            parent: None,
        }
    }

    fn input(seq: u64, live: Vec<ObjMeta>, written: Vec<(u32, Vec<u8>)>) -> BarrierInput {
        BarrierInput {
            seq,
            clock_nanos: seq * 1000,
            live,
            names: Vec::new(),
            written_home: written,
            extents: Vec::new(),
        }
    }

    #[test]
    fn single_node_journal_restores_content() {
        let store = PersistStore::new(1);
        let mut j = NodeJournal::new(0, store.clone(), PersistConfig::every(2));
        let o = meta(1, 0, 8);
        let out = j.append_barrier(input(1, vec![o.clone()], vec![(1, vec![1u8; 8])]));
        assert!(out.records >= 3); // alloc, diff, seal
        assert_eq!(out.checkpoint_bytes, 0);
        let out = j.append_barrier(input(2, vec![o.clone()], vec![(1, vec![2u8; 8])]));
        assert!(out.checkpoint_bytes > 0, "barrier 2 checkpoints");
        assert_eq!(j.log_bytes_at_checkpoint(), store.log_bytes(0));
        let restored = store.restore().expect("restore");
        assert_eq!(restored.checkpoint_seq, 2);
        let n0 = &restored.nodes[0];
        assert_eq!(n0.objects.get(&1).unwrap(), &vec![2u8; 8]);
        assert_eq!(n0.dir.len(), 1);
        assert_eq!(n0.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_truncates_to_last_checkpoint() {
        let store = PersistStore::new(1);
        let mut j = NodeJournal::new(0, store.clone(), PersistConfig::every(2));
        let o = meta(1, 0, 8);
        for seq in 1..=4 {
            j.append_barrier(input(seq, vec![o.clone()], vec![(1, vec![seq as u8; 8])]));
        }
        let full = store.log_bytes(0);
        // Tear mid-way through the final barrier's records: restore
        // falls back to checkpoint 2... or 4 if the manifest survived.
        for keep in (0..full).rev() {
            store.truncate_tail(0, keep as usize);
            match store.restore() {
                Ok(r) => assert!(r.checkpoint_seq == 2 || r.checkpoint_seq == 4),
                Err(e) => assert_eq!(e, crate::restore::PersistError::NoCheckpoint { node: 0 }),
            }
        }
    }

    #[test]
    fn free_and_slot_reuse_reset_content() {
        let store = PersistStore::new(1);
        let mut j = NodeJournal::new(0, store.clone(), PersistConfig::every(1));
        j.append_barrier(input(1, vec![meta(1, 0, 8)], vec![(1, vec![7u8; 8])]));
        // Slot 1 reused for a differently-sized object.
        j.append_barrier(input(2, vec![meta(1, 0, 16)], vec![(1, vec![9u8; 16])]));
        let restored = store.restore().expect("restore");
        assert_eq!(
            restored.nodes[0].objects.get(&1).unwrap(),
            &vec![9u8; 16],
            "reused slot must not inherit the old object's shadow"
        );
        // Freed entirely.
        j.append_barrier(input(3, vec![], vec![]));
        let restored = store.restore().expect("restore");
        assert!(restored.nodes[0].objects.is_empty());
        assert!(restored.nodes[0].dir.is_empty());
    }

    #[test]
    fn home_migration_moves_mastership_between_journals() {
        let store = PersistStore::new(2);
        let cfg = PersistConfig::every(1);
        let mut j0 = NodeJournal::new(0, store.clone(), cfg.clone());
        let mut j1 = NodeJournal::new(1, store.clone(), cfg);
        // Barrier 1: object homed at 0.
        j0.append_barrier(input(1, vec![meta(1, 0, 8)], vec![(1, vec![1u8; 8])]));
        j1.append_barrier(input(1, vec![meta(1, 0, 8)], vec![]));
        // Barrier 2: home migrates to 1, which writes it.
        j0.append_barrier(input(2, vec![meta(1, 1, 8)], vec![]));
        j1.append_barrier(input(2, vec![meta(1, 1, 8)], vec![(1, vec![2u8; 8])]));
        let restored = store.restore().expect("restore");
        assert!(restored.nodes[0].objects.is_empty());
        assert_eq!(restored.nodes[1].objects.get(&1).unwrap(), &vec![2u8; 8]);
        assert_eq!(restored.nodes[0].dir, restored.nodes[1].dir);
    }

    #[test]
    fn names_commit_and_drop() {
        let store = PersistStore::new(1);
        let mut j = NodeJournal::new(0, store.clone(), PersistConfig::every(1));
        let nm = NamedMeta {
            name: "grid".into(),
            id: 1,
            elem_size: 4,
            len: 2,
        };
        let mut inp = input(1, vec![meta(1, 0, 8)], vec![]);
        inp.names = vec![nm.clone()];
        j.append_barrier(inp);
        let restored = store.restore().expect("restore");
        assert_eq!(restored.nodes[0].names, vec![nm]);
        j.append_barrier(input(2, vec![], vec![]));
        let restored = store.restore().expect("restore");
        assert!(restored.nodes[0].names.is_empty());
    }

    #[test]
    fn an_incompressible_rewrite_journals_at_its_own_size() {
        // Two 64 KB contents of distinct noise words: their XOR has no
        // two equal neighbours, so the delta is one literal.
        const SIZE: usize = 64 << 10;
        let noise = |salt: u32| -> Vec<u8> {
            let words = (0..SIZE as u32 / 4).map(|i| (i ^ salt).wrapping_mul(0x9E37_79B9));
            words.flat_map(u32::to_le_bytes).collect()
        };
        let store = PersistStore::new(1);
        let mut j = NodeJournal::new(0, store.clone(), PersistConfig::every(4));
        let o = meta(1, 0, SIZE as u64);
        j.append_barrier(input(1, vec![o.clone()], vec![(1, noise(0))]));
        let out = j.append_barrier(input(2, vec![o], vec![(1, noise(0x5555_5555))]));
        // Barrier 2 appends the diff, then the seal. The diff is the
        // object's size plus the frame and the RLE stream's 9 bytes.
        assert_eq!(out.write_sizes.len(), 2);
        assert_eq!(out.write_sizes[0], (SIZE + RLE_FRAME + 9) as u64);
    }

    fn churn(j: &mut NodeJournal, barriers: u64) {
        let o = meta(1, 0, 64);
        for seq in 1..=barriers {
            let mut content = vec![0u8; 64];
            content[(seq as usize * 7) % 64] = seq as u8;
            j.append_barrier(input(seq, vec![o.clone()], vec![(1, content)]));
        }
    }

    fn eager_compaction(every: u64) -> PersistConfig {
        PersistConfig::every(every).with_compaction(CompactionConfig {
            enabled: true,
            garbage_permille: 100,
            min_log_bytes: 64,
            poll: lots_sim::SimDuration::from_millis(1),
        })
    }

    #[test]
    fn compaction_reclaims_and_preserves_restore() {
        let store = PersistStore::new(1);
        let mut j = NodeJournal::new(0, store.clone(), eager_compaction(4));
        churn(&mut j, 12);
        let before = store.restore().expect("restore before compaction");
        assert!(
            j.compaction_due(),
            "12 single-object diffs are mostly garbage"
        );
        let pre_bytes = store.log_bytes(0);
        let out = j.maybe_compact().expect("compaction runs");
        assert!(out.reclaimed > 0);
        assert!(out.read_bytes > 0 && out.write_bytes > 0);
        assert_eq!(store.log_bytes(0), pre_bytes - out.reclaimed);
        let after = store.restore().expect("restore after compaction");
        assert_eq!(before.checkpoint_seq, after.checkpoint_seq);
        assert_eq!(before.nodes[0].objects, after.nodes[0].objects);
        assert_eq!(before.nodes[0].dir, after.nodes[0].dir);
        assert_eq!(before.nodes[0].seals, after.nodes[0].seals);
        // A second immediate run is not due (nothing newly garbage).
        assert!(j.maybe_compact().is_none());
    }

    /// Diff accounting and the checkpoint pin as the compactor used to
    /// take them: a second decode of the log it had just rewritten.
    fn recount(log: &[u8]) -> (u64, BTreeMap<u32, u64>, u64) {
        let (mut total, mut live, mut pin) = (0, BTreeMap::new(), 0);
        let mut at = 0;
        while at < log.len() {
            let (rec, used) = crate::record::decode_record(&log[at..]).expect("intact log");
            at += used;
            match rec {
                Record::Diff { id, .. } | Record::Compacted { id, .. } => {
                    total += used as u64;
                    live.insert(id, used as u64);
                }
                Record::Free { id } => {
                    live.remove(&id);
                }
                Record::Manifest(_) => pin = at as u64,
                _ => {}
            }
        }
        (total, live, pin)
    }

    proptest::proptest! {
        /// Random journals — objects of several sizes written, freed,
        /// re-sized in place and migrated away — compacted whenever
        /// due: the single pass's accounting is what a re-decode of
        /// the rewritten log says, restore agrees with the journal's
        /// shadows before and after, and every cached digest is the
        /// digest of the bytes beside it.
        #[test]
        fn compaction_accounts_in_one_pass_and_digests_stay_fresh(
            steps in proptest::collection::vec(
                proptest::collection::vec((0u32..5, 0u8..8, proptest::prelude::any::<u8>()), 0..4),
                4..24,
            ),
        ) {
            let store = PersistStore::new(2);
            let mut j = NodeJournal::new(0, store.clone(), eager_compaction(2));
            // Node 1 journals nothing of its own but must checkpoint
            // for the cluster to have a restore point.
            let mut peer = NodeJournal::new(1, store.clone(), eager_compaction(2));
            let mut objs: BTreeMap<u32, (ObjMeta, Vec<u8>)> = BTreeMap::new();
            for (k, step) in steps.iter().enumerate() {
                let seq = k as u64 + 1;
                let mut written = BTreeMap::new();
                for &(id, op, fill) in step {
                    let bytes = [24u64, 61, 128][fill as usize % 3];
                    match op {
                        0 => drop(objs.remove(&id)),
                        1 => drop(objs.insert(id, (meta(id, 0, bytes), vec![0; bytes as usize]))),
                        2 => if let Some((m, _)) = objs.get_mut(&id) { m.home ^= 1 },
                        _ => if let Some((m, c)) = objs.get_mut(&id) {
                            let at = fill as usize % c.len();
                            c[at..].fill(fill);
                            if m.home == 0 { written.insert(id, c.clone()); }
                        },
                    }
                }
                written.retain(|id, _| objs.get(id).is_some_and(|(m, _)| m.home == 0));
                let live: Vec<ObjMeta> = objs.values().map(|(m, _)| m.clone()).collect();
                j.append_barrier(input(seq, live.clone(), written.into_iter().collect()));
                peer.append_barrier(input(seq, live, Vec::new()));
                let before = store.restore();
                if let Some(out) = j.maybe_compact() {
                    let log = store.log(0);
                    proptest::prop_assert_eq!(
                        (j.diff_total, j.diff_live.clone(), j.bytes_at_checkpoint),
                        recount(&log)
                    );
                    proptest::prop_assert!(out.write_bytes <= log.len() as u64);
                    // Same state either side of the rewrite (the log
                    // offsets are what moved).
                    let state = |r: Result<crate::RestoredCluster, _>| {
                        r.map(|r| (r.checkpoint_seq, r.nodes[0].objects.clone(), r.nodes[0].seals.clone()))
                    };
                    proptest::prop_assert_eq!(state(before.clone()), state(store.restore()));
                }
                for (id, sh) in &mut j.shadows {
                    let fresh = Shadow::new(sh.bytes().to_vec()).digest();
                    proptest::prop_assert_eq!(sh.digest(), fresh, "object {}", id);
                }
                if let Ok(r) = before {
                    if r.checkpoint_seq == seq {
                        let mine: BTreeMap<u32, Vec<u8>> =
                            j.shadows.iter().map(|(id, s)| (*id, s.bytes().to_vec())).collect();
                        proptest::prop_assert_eq!(&r.nodes[0].objects, &mine);
                    }
                }
            }
        }
    }

    #[test]
    fn a_corrupt_byte_anywhere_leaves_compaction_a_no_op() {
        let store = PersistStore::new(1);
        let mut j = NodeJournal::new(0, store.clone(), eager_compaction(4));
        churn(&mut j, 12);
        assert!(j.compaction_due());
        let intact = store.log(0);
        let accounting = (j.diff_total, j.diff_live.clone(), j.bytes_at_checkpoint);
        for at in 0..intact.len() {
            store.corrupt_byte(0, at);
            let damaged = store.log(0);
            assert_eq!(j.maybe_compact(), None, "byte {at}");
            assert_eq!(store.log(0), damaged, "byte {at}: log rewritten");
            assert_eq!(
                (j.diff_total, j.diff_live.clone(), j.bytes_at_checkpoint),
                accounting,
                "byte {at}: accounting moved"
            );
            store.corrupt_byte(0, at);
        }
        assert_eq!(store.log(0), intact);
        assert!(j.maybe_compact().is_some(), "the intact log still compacts");
    }

    #[test]
    fn never_policy_never_checkpoints() {
        let store = PersistStore::new(1);
        let mut j = NodeJournal::new(0, store.clone(), PersistConfig::every(0));
        churn(&mut j, 4);
        assert_eq!(
            store.restore(),
            Err(crate::restore::PersistError::NoCheckpoint { node: 0 })
        );
        assert_eq!(j.log_bytes_at_checkpoint(), 0);
        assert_eq!(j.log_bytes_since_checkpoint(), store.log_bytes(0));
    }

    #[test]
    fn verify_plan_accepts_identical_replay_and_counts_replayed() {
        let store = PersistStore::new(1);
        let mut j = NodeJournal::new(0, store.clone(), PersistConfig::every(2));
        churn(&mut j, 4);
        let restored = store.restore().expect("restore");
        assert_eq!(restored.checkpoint_seq, 4);
        // Tear the log back past barrier 4's manifest so the plan's
        // checkpoint is 2, then replay barriers 1..=4 identically.
        let store2 = PersistStore::new(1);
        let mut j2 = NodeJournal::new(0, store2.clone(), PersistConfig::every(2));
        let mut plan = restored.verify_plan(0);
        plan.checkpoint_seq = 2;
        j2.set_verify(plan);
        let o = meta(1, 0, 64);
        let mut replayed = 0;
        for seq in 1..=4u64 {
            let mut content = vec![0u8; 64];
            content[(seq as usize * 7) % 64] = seq as u8;
            let out = j2.append_barrier(input(seq, vec![o.clone()], vec![(1, content)]));
            replayed += u64::from(out.replayed);
        }
        assert_eq!(replayed, 2, "barriers 3 and 4 lie beyond checkpoint 2");
        assert_eq!(store2.log(0), store.log(0), "replay is byte-identical");
    }

    #[test]
    #[should_panic(expected = "state digest mismatch at barrier 2")]
    fn verify_plan_panics_on_divergent_replay() {
        let store = PersistStore::new(1);
        let mut j = NodeJournal::new(0, store.clone(), PersistConfig::every(2));
        churn(&mut j, 2);
        let restored = store.restore().expect("restore");
        let mut j2 = NodeJournal::new(0, PersistStore::new(1), PersistConfig::every(2));
        j2.set_verify(restored.verify_plan(0));
        let o = meta(1, 0, 64);
        j2.append_barrier(input(
            1,
            vec![o.clone()],
            vec![(1, {
                let mut c = vec![0u8; 64];
                c[7] = 1;
                c
            })],
        ));
        // Divergent content at barrier 2.
        j2.append_barrier(input(2, vec![o], vec![(1, vec![0xAA; 64])]));
    }
}
