//! State-space search over the shared object space — the workload class
//! the paper's introduction motivates ("a full analysis of all possible
//! moves in a Weiqi game…, or an optimal solution to the Rush Hour
//! problem": state spaces too large for one machine's memory).
//!
//! A 4-node LOTS cluster runs distributed breadth-first search over the
//! full 8-puzzle state graph (181 440 reachable states, diameter 31):
//! the visited table is sharded across owner nodes, frontier states are
//! routed through single-writer shared queues, and the DMM arena is
//! deliberately small so the search's tables live mostly on disk —
//! exactly how LOTS would host a state space bigger than RAM.
//!
//! ```text
//! cargo run --release --example rush_hour
//! ```

use lots::core::{run_cluster, ClusterOptions, Dsm, DsmApi, DsmSlice, LotsConfig, SharedSlice};
use lots::sim::machine::p4_fedora;

const NODES: usize = 4;
/// 9! permutations of the 3×3 board.
const STATES: usize = 362_880;
/// Per-(src,dst) routing queue capacity (slot 0 is the length).
const QCAP: usize = 40_000;

/// Lehmer rank of a 9-cell board (0 = blank).
fn rank(board: &[u8; 9]) -> u32 {
    let mut r = 0u32;
    let mut fact = 40_320u32; // 8!
    let mut seen = [false; 9];
    for (i, &c) in board.iter().enumerate() {
        let smaller = (0..c).filter(|&x| !seen[x as usize]).count() as u32;
        r += smaller * fact;
        seen[c as usize] = true;
        if i < 8 {
            fact /= (8 - i) as u32;
        }
    }
    r
}

/// Inverse of [`rank`].
fn unrank(mut r: u32) -> [u8; 9] {
    let mut avail: Vec<u8> = (0..9).collect();
    let mut board = [0u8; 9];
    let mut fact = 40_320u32;
    for (i, cell) in board.iter_mut().enumerate() {
        let idx = (r / fact) as usize;
        r %= fact;
        *cell = avail.remove(idx);
        if i < 8 {
            fact /= (8 - i) as u32;
        }
    }
    board
}

/// Successor states (blank slides up/down/left/right).
fn successors(state: u32) -> Vec<u32> {
    let board = unrank(state);
    let blank = board.iter().position(|&c| c == 0).expect("blank") as i32;
    let (br, bc) = (blank / 3, blank % 3);
    let mut out = Vec::with_capacity(4);
    for (dr, dc) in [(-1i32, 0i32), (1, 0), (0, -1), (0, 1)] {
        let (nr, nc) = (br + dr, bc + dc);
        if (0..3).contains(&nr) && (0..3).contains(&nc) {
            let mut next = board;
            next.swap(blank as usize, (nr * 3 + nc) as usize);
            out.push(rank(&next));
        }
    }
    out
}

fn owner(state: u32) -> usize {
    (state as usize / 8) % NODES
}

fn bfs_node(dsm: &Dsm) -> (u64, usize) {
    let me = dsm.me();
    // Visited bitmaps: one shard object per owner (only the owner
    // writes its shard, so barriers merge nothing).
    let shards: Vec<SharedSlice<'_, u32>> = (0..NODES)
        .map(|_| dsm.alloc::<u32>(STATES / 32 + 1))
        .collect();
    // Routing queues: queue[src][dst] is written by src in one interval
    // and drained by dst in the next (single-writer alternation).
    let queues: Vec<Vec<SharedSlice<'_, u32>>> = (0..NODES)
        .map(|_| (0..NODES).map(|_| dsm.alloc::<u32>(QCAP)).collect())
        .collect();

    let root = rank(&[0, 1, 2, 3, 4, 5, 6, 7, 8]);
    let mut frontier: Vec<u32> = Vec::new();
    if owner(root) == me {
        frontier.push(root);
    }
    let mut visited_local = vec![false; STATES]; // mirror of my shard
    let mut total = 0u64;
    let mut depth = 0usize;

    loop {
        // Mark and expand my frontier; route successors to their owners.
        let mut outbound: Vec<Vec<u32>> = vec![Vec::new(); NODES];
        for &s in &frontier {
            debug_assert_eq!(owner(s), me);
            if visited_local[s as usize] {
                continue;
            }
            visited_local[s as usize] = true;
            shards[me].update((s / 32) as usize, |w| w | (1 << (s % 32)));
            total += 1;
            for succ in successors(s) {
                outbound[owner(succ)].push(succ);
            }
            dsm.charge_compute(8);
        }
        for (dst, states) in outbound.iter().enumerate() {
            assert!(states.len() < QCAP, "routing queue overflow");
            let q = &queues[me][dst];
            q.write(0, states.len() as u32);
            q.write_from(1, states);
        }
        dsm.barrier();

        // Drain queues addressed to me; de-duplicate against my shard.
        frontier.clear();
        for row in queues.iter().take(NODES) {
            let q = &row[me];
            let len = q.read(0) as usize;
            for s in q.read_vec(1, len) {
                if !visited_local[s as usize] {
                    frontier.push(s);
                }
            }
            q.write(0, 0);
        }
        frontier.sort_unstable();
        frontier.dedup();
        // Global termination: does anyone still have work? A fresh flag
        // object per round (allocated by every node, keeping IDs in
        // step); concurrent writers all store the same word value.
        let work = dsm.alloc::<u32>(1);
        if !frontier.is_empty() {
            work.write(0, 1);
        }
        dsm.barrier();
        if work.read(0) == 0 {
            break;
        }
        depth += 1;
    }
    (total, depth)
}

fn main() {
    // A 1 MB DMM arena: the visited shards and queues (≈ 3 MB) cannot
    // all stay mapped, so the search continually swaps its tables.
    let opts = ClusterOptions::new(NODES, LotsConfig::small(1 << 20), p4_fedora());
    let (results, report) = run_cluster(opts, bfs_node);

    let total: u64 = results.iter().map(|&(t, _)| t).sum();
    let depth = results[0].1;
    println!("reachable 8-puzzle states: {total} (expected 181440)");
    println!("BFS rounds to exhaustion:  {depth} (expected diameter 31)");
    assert_eq!(total, 181_440);
    assert_eq!(depth, 31);
    let swaps = report.total(|n| n.stats.swaps_out());
    println!(
        "virtual time {:.2} s; {swaps} swap-outs kept the state space on disk",
        report.exec_time.as_secs_f64()
    );
    assert!(swaps > 0, "the point of the example is disk-backed state");
}
