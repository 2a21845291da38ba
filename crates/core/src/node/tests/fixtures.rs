//! The shared fixtures of the `NodeState` tests: nodes over a modelled
//! in-memory disk, accesses through the one range path, and the
//! barrier, fetch and free sequences the test groups replay.

use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;
use lots_disk::ModeledStore;
use lots_net::NodeId;
use lots_sim::machine::pentium4_2ghz;
use lots_sim::{DiskModel, NodeStats, SimClock, SimDuration};

use crate::alloc::FragStats;
use crate::cluster::RangeAccess;
use crate::config::{LotsConfig, Striping};
use crate::node::{NodeState, SwapAccounting};
use crate::object::ObjectId;

pub(super) fn small_node(dmm: usize) -> NodeState {
    node_with(LotsConfig::small(dmm))
}

/// A single-node cluster's state over `cfg`, backed by a modelled
/// in-memory disk.
pub(super) fn node_with(cfg: LotsConfig) -> NodeState {
    node_of(0, 1, cfg)
}

/// Node `me` of `n`, likewise.
pub(super) fn node_of(me: NodeId, n: usize, cfg: LotsConfig) -> NodeState {
    let store = Arc::new(ModeledStore::new(DiskModel {
        per_op: SimDuration::from_micros(100),
        write_bps: 50_000_000,
        read_bps: 50_000_000,
    }));
    let (clock, stats) = (SimClock::new(), NodeStats::new());
    NodeState::new(me, n, cfg, pentium4_2ghz(), store, clock, stats)
}

/// Node `me` of `n` over a `dmm`-byte area, striping at `seg` bytes.
pub(super) fn striped_node(me: NodeId, n: usize, dmm: usize, seg: usize) -> NodeState {
    let cfg = LotsConfig::small(dmm).with_striping(Striping::segments_of(seg));
    node_of(me, n, cfg)
}

/// Begin an access to `range` of `id`, which must need no fetch.
pub(super) fn ready(
    node: &mut NodeState,
    id: ObjectId,
    range: &Range<usize>,
    write: bool,
    checks: u64,
) {
    let access = node.begin_access_range(id, range, write, checks).unwrap();
    assert_eq!(access, RangeAccess::Ready, "{id} {range:?}");
}

/// Write `(word, value)` pairs into unstriped `id` in one access.
pub(super) fn write_words(node: &mut NodeState, id: ObjectId, vals: &[(usize, u32)]) {
    let all = 0..node.object_size(id);
    ready(node, id, &all, true, vals.len() as u64);
    node.range_write(id, &all, 4, |_, b| {
        for &(w, v) in vals {
            b[w * 4..w * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
    });
}

pub(super) fn read_word(node: &mut NodeState, id: ObjectId, w: usize) -> u32 {
    let word = read_range(node, id, &(w * 4..w * 4 + 4));
    u32::from_le_bytes(word.try_into().unwrap())
}

/// Write `data` over `range` of `id` in one access, as `elem`-byte
/// elements; returns the `(offset, len)` of every piece `f` saw.
pub(super) fn write_range(
    n: &mut NodeState,
    id: ObjectId,
    range: &Range<usize>,
    elem: usize,
    data: &[u8],
) -> Vec<(usize, usize)> {
    ready(n, id, range, true, 1);
    let mut pieces = Vec::new();
    n.range_write(id, range, elem, |at, b| {
        pieces.push((at, b.len()));
        b.copy_from_slice(&data[at..at + b.len()]);
    });
    pieces
}

/// Read `range` of `id` in one access.
pub(super) fn read_range(n: &mut NodeState, id: ObjectId, range: &Range<usize>) -> Vec<u8> {
    ready(n, id, range, false, 1);
    let mut out = Vec::new();
    n.range_read(id, range, 4, |at, b| {
        assert_eq!(at, out.len(), "pieces arrive in address order");
        out.extend_from_slice(b);
    });
    out
}

/// Every byte of `id`, in one access.
pub(super) fn read_all(n: &mut NodeState, id: ObjectId) -> Vec<u8> {
    read_range(n, id, &(0..n.object_size(id)))
}

/// Collect the interval's notices, then finish the barrier with
/// `written` (no frees, no named commits).
pub(super) fn seal(n: &mut NodeState, written: &[(ObjectId, NodeId)], seq: u64) {
    let _ = n.barrier_collect().unwrap();
    n.barrier_finish(written, &[], &[], seq).unwrap();
}

/// The gauges mirrored into the node's statistics, beside a fresh
/// measurement of the allocator.
pub(super) fn assert_gauges_current(n: &NodeState) {
    let fresh = n.alloc.frag_stats();
    assert_eq!(n.stats.dmm_free_bytes(), fresh.free_bytes);
    assert_eq!(n.stats.dmm_largest_hole(), fresh.largest_hole);
}

/// What a node holds: mapped bytes, allocator gauges, swap accounting.
pub(super) fn footprint(n: &NodeState) -> (usize, FragStats, SwapAccounting) {
    (n.mapped_bytes(), n.frag_stats(), n.swap_accounting())
}

/// Nodes `0..n` of one cluster, each having registered the same
/// `bytes`-sized object (homed at node 0 by round robin).
pub(super) fn cluster_with_object(n: usize, bytes: usize) -> (Vec<NodeState>, ObjectId) {
    let mut nodes: Vec<NodeState> = (0..n)
        .map(|me| node_of(me, n, LotsConfig::small(64 << 10)))
        .collect();
    let ids: Vec<ObjectId> = nodes
        .iter_mut()
        .map(|node| node.register_object(bytes).unwrap())
        .collect();
    assert!(ids.iter().all(|&id| id == ids[0]) && nodes[0].home_of(ids[0]) == 0);
    (nodes, ids[0])
}

/// Fetch `id` into `reader` from `home` with the real payload.
pub(super) fn fetch(reader: &mut NodeState, home: &mut NodeState, id: ObjectId) -> Bytes {
    let miss = RangeAccess::Fetch(vec![(id.0, home.me)]);
    assert_eq!(reader.begin_access_range(id, &(0..4), false, 1), Ok(miss));
    let (reply, version) = home.serve_object(id).unwrap();
    reader
        .install_fetch(id, reply.clone(), version, None)
        .unwrap();
    reply
}

/// Overwrite all of `id` with 0xFF through the range access path.
pub(super) fn fill_ff(n: &mut NodeState, id: ObjectId) {
    let all = 0..n.object_size(id);
    ready(n, id, &all, true, 1);
    n.range_write(id, &all, 4, |_, b| b.fill(0xFF));
}

/// DMM offsets of `id` (its segments' when striped).
pub(super) fn extents(n: &NodeState, id: ObjectId) -> Vec<Option<usize>> {
    let offset = |&c: &u32| n.ctl(ObjectId(c)).offset();
    n.segments(&id).iter().map(offset).collect()
}

/// Free `id` and run the barrier that reclaims it.
pub(super) fn free_and_reclaim(n: &mut NodeState, id: ObjectId, seq: u64) {
    n.free_object(id, n.ctl(id).req_bytes()).unwrap();
    let _ = n.barrier_collect().unwrap();
    let (frees, named) = n.take_lifecycle();
    n.barrier_finish(&[], &frees, &named, seq).unwrap();
}
