//! Cold-start restore: journals + manifests → cluster state.
//!
//! Restore is a pure fold over each node's record stream. Parsing
//! stops at the first frame that fails its length/CRC check (a torn
//! append), the cluster checkpoint `K` is the newest manifest sequence
//! completed by **every** node, and each node's state at `K` is
//! rebuilt purely from its records: compacted images seed object
//! content, interval diffs XOR on top, lifecycle records maintain the
//! directory and name table, and the manifest at `K` supplies the
//! authoritative version vector and extent map.
//!
//! The logs are borrowed, never copied: each record is CRC-checked and
//! decoded once, into a view whose payload still lies in the log (the
//! views are kept because the cluster checkpoint and the compaction
//! horizon are facts about the *whole* log), and the fold scans each
//! payload once, XORing its runs on as they are parsed — never past
//! the size the directory gives the object
//! ([`PersistError::Inconsistent`] otherwise).
//!
//! Every digest that is still recomputable is verified during the
//! fold: seal digests for barriers newer than the newest compaction
//! horizon (older seals may reference diffs compaction has squashed),
//! and manifest digests from that horizon on. A replayed run then
//! re-verifies the same digests barrier-by-barrier through its
//! [`VerifyPlan`](crate::journal::VerifyPlan).

use std::collections::BTreeMap;

use lots_disk::RleImage;

use crate::journal::SealInfo;
use crate::record::{decode_view, state_digest, Extent, NamedMeta, ObjMeta, Record, Shadow, View};

/// Why a restore could not produce a consistent cluster state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// A node's readable log contains no complete checkpoint manifest.
    NoCheckpoint {
        /// The node without a manifest.
        node: usize,
    },
    /// The cluster checkpoint sequence exists on other nodes but this
    /// node's log has no manifest at it (policies are cluster-uniform,
    /// so this indicates a damaged log).
    MissingManifest {
        /// The node missing the manifest.
        node: usize,
        /// The cluster checkpoint sequence.
        seq: u64,
    },
    /// A recomputed state digest disagrees with the sealed one.
    DigestMismatch {
        /// The node whose fold diverged.
        node: usize,
        /// The barrier at which it diverged.
        seq: u64,
    },
    /// A structurally valid record could not be applied (e.g. a diff
    /// whose RLE payload does not parse).
    Inconsistent {
        /// The node with the bad record.
        node: usize,
        /// Log byte offset of the record.
        at: usize,
        /// What went wrong.
        what: &'static str,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::NoCheckpoint { node } => {
                write!(f, "node {node}: no complete checkpoint manifest in log")
            }
            PersistError::MissingManifest { node, seq } => {
                write!(f, "node {node}: no manifest at cluster checkpoint {seq}")
            }
            PersistError::DigestMismatch { node, seq } => {
                write!(f, "node {node}: state digest mismatch at barrier {seq}")
            }
            PersistError::Inconsistent { node, at, what } => {
                write!(f, "node {node}: {what} at log byte {at}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// One node's state rebuilt at the cluster checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct RestoredNode {
    /// The node's rank.
    pub me: usize,
    /// Replicated directory at the checkpoint (id order), including
    /// the per-object version vector from the manifest.
    pub dir: Vec<ObjMeta>,
    /// Name table at the checkpoint.
    pub names: Vec<NamedMeta>,
    /// The node's DMM extent map at the checkpoint.
    pub extents: Vec<Extent>,
    /// Content of every home-owned master this node had journaled by
    /// the checkpoint. Objects never published through a barrier have
    /// no journaled content (they are still in their unwritten state).
    pub objects: BTreeMap<u32, Vec<u8>>,
    /// Digest + virtual clock of every seal in the readable log
    /// (including barriers after the checkpoint — replay verifies
    /// against these).
    pub seals: BTreeMap<u64, SealInfo>,
    /// Log bytes up to and including the checkpoint manifest — what a
    /// rejoining node reads back from its own disk.
    pub log_bytes_at_checkpoint: u64,
    /// Total readable log bytes.
    pub log_bytes_total: u64,
    /// Bytes dropped from the tail as torn/corrupt.
    pub torn_bytes: u64,
}

/// Cluster state rebuilt from a [`PersistStore`](crate::PersistStore).
#[derive(Debug, Clone, PartialEq)]
pub struct RestoredCluster {
    /// The cluster checkpoint: newest manifest sequence completed by
    /// every node.
    pub checkpoint_seq: u64,
    /// Per-node rebuilt state, indexed by rank.
    pub nodes: Vec<RestoredNode>,
}

impl RestoredCluster {
    /// The verification plan a replaying node runs against: every
    /// sealed digest/clock in its log, and the checkpoint sequence
    /// separating verified-from-disk barriers from replayed ones.
    pub fn verify_plan(&self, node: usize) -> crate::journal::VerifyPlan {
        crate::journal::VerifyPlan {
            checkpoint_seq: self.checkpoint_seq,
            seals: self.nodes[node].seals.clone(),
        }
    }
}

/// Streaming fold of one node's record stream: directory membership,
/// name table, and home-owned master content. Shared by restore and by
/// the compactor (which folds to the previous checkpoint to build its
/// consolidated images).
pub(crate) struct Fold {
    me: u32,
    /// Directory as of the last applied record. `version` fields are
    /// best-effort (alloc-time); digests exclude them.
    pub dir: BTreeMap<u32, ObjMeta>,
    /// Name table as of the last applied record.
    pub names: BTreeMap<String, NamedMeta>,
    /// Home-owned master content (mirrors the journal's shadows).
    pub content: BTreeMap<u32, Shadow>,
}

impl Fold {
    pub(crate) fn new(me: u32) -> Fold {
        Fold {
            me,
            dir: BTreeMap::new(),
            names: BTreeMap::new(),
            content: BTreeMap::new(),
        }
    }

    /// Apply one record. Seal/manifest records are fold no-ops (the
    /// caller checks digests around them).
    pub(crate) fn apply(&mut self, view: &View<'_>) -> Result<(), &'static str> {
        match &view.rec {
            Record::Alloc(m) => {
                self.dir.insert(m.id, m.clone());
                self.content.remove(&m.id);
            }
            Record::Free { id } => {
                self.dir.remove(id);
                self.content.remove(id);
            }
            Record::NameCommit(nm) => {
                self.names.insert(nm.name.clone(), nm.clone());
            }
            Record::NameDrop { name } => {
                self.names.remove(name);
            }
            Record::HomeMigrate { id, home } => {
                if let Some(m) = self.dir.get_mut(id) {
                    m.home = *home;
                }
                if *home != self.me {
                    self.content.remove(id);
                }
            }
            Record::Diff { id, .. } => return self.xor_onto(*id, view.payload, false),
            Record::Compacted { id, .. } => return self.xor_onto(*id, view.payload, true),
            Record::Seal { .. } | Record::Manifest(_) | Record::CompactionHorizon { .. } => {}
        }
        Ok(())
    }

    /// XOR one RLE payload onto object `id`'s content (onto nothing,
    /// for an `image`) as it is parsed. The payload is checksummed but
    /// not trusted: it may not decode past the size the directory
    /// gives the object, whatever length its runs declare.
    fn xor_onto(&mut self, id: u32, payload: &[u8], image: bool) -> Result<(), &'static str> {
        let meta = self
            .dir
            .get(&id)
            .ok_or("payload for an object not in the directory")?;
        let limit = usize::try_from(meta.bytes).unwrap_or(usize::MAX);
        let cur = self.content.entry(id).or_default().bytes_mut();
        if image {
            cur.clear();
        }
        RleImage::xor_stream(payload, cur, limit)
            .map(drop)
            .map_err(|_| match image {
                false => "corrupt diff payload",
                true => "corrupt image payload",
            })
    }

    /// The fold's state digest at barrier `seq`.
    pub(crate) fn digest(&mut self, seq: u64) -> u64 {
        state_digest(seq, &self.dir, &self.names, &mut self.content)
    }
}

/// One node's log as decoded views, the readable length, and the two
/// whole-log facts a fold needs before it starts.
struct ParsedLog<'a> {
    recs: Vec<(View<'a>, std::ops::Range<usize>)>,
    readable: usize,
    last_manifest: Option<u64>,
    horizon: u64,
}

fn parse_log(bytes: &[u8]) -> ParsedLog<'_> {
    let mut p = ParsedLog {
        recs: Vec::new(),
        readable: 0,
        last_manifest: None,
        horizon: 0,
    };
    while let Some((view, used)) = decode_view(&bytes[p.readable..]) {
        match &view.rec {
            Record::Compacted { upto_seq, .. } | Record::CompactionHorizon { upto_seq } => {
                p.horizon = p.horizon.max(*upto_seq);
            }
            Record::Manifest(b) => p.last_manifest = p.last_manifest.max(Some(b.seq)),
            _ => {}
        }
        p.recs.push((view, p.readable..p.readable + used));
        p.readable += used;
    }
    p
}

pub(crate) fn restore(logs: &[Vec<u8>]) -> Result<RestoredCluster, PersistError> {
    let parsed: Vec<ParsedLog> = logs.iter().map(|log| parse_log(log)).collect();
    // The cluster checkpoint: newest manifest every node completed.
    let mut k = u64::MAX;
    for (node, p) in parsed.iter().enumerate() {
        k = k.min(p.last_manifest.ok_or(PersistError::NoCheckpoint { node })?);
    }
    let mut nodes = Vec::with_capacity(logs.len());
    for (node, p) in parsed.iter().enumerate() {
        let c_max = p.horizon;
        let mut fold = Fold::new(node as u32);
        let mut seals = BTreeMap::new();
        let mut snapshot = None;
        for (view, span) in &p.recs {
            fold.apply(view)
                .map_err(|what| PersistError::Inconsistent {
                    node,
                    at: span.start,
                    what,
                })?;
            match &view.rec {
                Record::Seal { seq, clock, digest } => {
                    seals.insert(
                        *seq,
                        SealInfo {
                            digest: *digest,
                            clock: *clock,
                        },
                    );
                    // Seals at or below the compaction horizon may
                    // reference squashed diffs; skip those.
                    if *seq > c_max && fold.digest(*seq) != *digest {
                        return Err(PersistError::DigestMismatch { node, seq: *seq });
                    }
                }
                Record::Manifest(b) => {
                    if b.seq >= c_max && fold.digest(b.seq) != b.digest {
                        return Err(PersistError::DigestMismatch { node, seq: b.seq });
                    }
                    if b.seq == k {
                        let mine = b.homed_at(node as u32);
                        let home_owned = fold.content.iter().filter(|(id, _)| mine.contains(id));
                        snapshot = Some(RestoredNode {
                            me: node,
                            dir: b.dir.clone(),
                            names: b.names.clone(),
                            extents: b.extents.clone(),
                            objects: home_owned
                                .map(|(id, c)| (*id, c.bytes().to_vec()))
                                .collect(),
                            seals: BTreeMap::new(),
                            log_bytes_at_checkpoint: span.end as u64,
                            log_bytes_total: p.readable as u64,
                            torn_bytes: (logs[node].len() - p.readable) as u64,
                        });
                    }
                }
                _ => {}
            }
        }
        let snapshot = snapshot.ok_or(PersistError::MissingManifest { node, seq: k })?;
        nodes.push(RestoredNode { seals, ..snapshot });
    }
    Ok(RestoredCluster {
        checkpoint_seq: k,
        nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PersistStore;

    #[test]
    fn error_display() {
        assert!(PersistError::NoCheckpoint { node: 2 }
            .to_string()
            .contains("node 2"));
        assert!(PersistError::DigestMismatch { node: 0, seq: 9 }
            .to_string()
            .contains("barrier 9"));
        assert!(PersistError::MissingManifest { node: 1, seq: 4 }
            .to_string()
            .contains("checkpoint 4"));
        assert!(PersistError::Inconsistent {
            node: 0,
            at: 12,
            what: "corrupt diff payload"
        }
        .to_string()
        .contains("byte 12"));
    }

    /// A one-node log: object 1 (`bytes` long) allocated, then `rec`,
    /// then a seal and a manifest — every frame CRC-valid.
    fn log_with(bytes: u64, rec: Record) -> PersistStore {
        let meta = ObjMeta {
            id: 1,
            home: 0,
            version: 0,
            bytes,
            parent: None,
        };
        let manifest = crate::record::ManifestBody {
            seq: 1,
            digest: 0,
            dir: vec![meta.clone()],
            names: Vec::new(),
            extents: Vec::new(),
        };
        let seal = Record::Seal {
            seq: 1,
            clock: 0,
            digest: 0,
        };
        let store = PersistStore::new(1);
        store.with_log(0, |log| {
            for r in [
                Record::Alloc(meta),
                rec,
                seal,
                Record::Manifest(Box::new(manifest)),
            ] {
                r.encode_into(log);
            }
        });
        store
    }

    /// `[1 run: count × word][no tail]` as an RLE stream.
    fn one_run(count: u32, word: u32) -> Vec<u8> {
        let mut rle = 1u32.to_le_bytes().to_vec();
        rle.extend_from_slice(&count.to_le_bytes());
        rle.extend_from_slice(&word.to_le_bytes());
        rle.push(0);
        rle
    }

    #[test]
    fn a_payload_may_not_decode_past_its_object() {
        // CRC-valid, well-framed, and declaring 16 GB for a 64-byte
        // object: a typed error, not an allocation.
        for (rec, what) in [
            (
                Record::Diff {
                    id: 1,
                    seq: 1,
                    delta: one_run(u32::MAX, 0),
                },
                "corrupt diff payload",
            ),
            (
                Record::Compacted {
                    id: 1,
                    upto_seq: 1,
                    image: one_run(u32::MAX, 7),
                },
                "corrupt image payload",
            ),
            (
                Record::Diff {
                    id: 1,
                    seq: 1,
                    delta: one_run(17, 7),
                },
                "corrupt diff payload",
            ),
            (
                Record::Diff {
                    id: 2,
                    seq: 1,
                    delta: one_run(1, 7),
                },
                "payload for an object not in the directory",
            ),
        ] {
            let err = log_with(64, rec).restore().expect_err("hostile payload");
            let PersistError::Inconsistent {
                node: 0,
                at,
                what: got,
            } = err
            else {
                panic!("{err:?}");
            };
            assert_eq!(got, what);
            assert!(at > 0, "the alloc record precedes it");
        }
        // Exactly the object's size still applies (and then fails the
        // made-up seal digest, which is the next check along).
        let full = Record::Diff {
            id: 1,
            seq: 1,
            delta: one_run(16, 7),
        };
        assert_eq!(
            log_with(64, full).restore(),
            Err(PersistError::DigestMismatch { node: 0, seq: 1 })
        );
    }

    #[test]
    fn empty_store_has_no_checkpoint() {
        let s = PersistStore::new(2);
        assert_eq!(s.restore(), Err(PersistError::NoCheckpoint { node: 0 }));
    }
}
