//! Hot-object workload: many readers plus rotating writers hammering
//! **one** large named object — the access pattern that exposes the
//! single-home bottleneck striping was built to kill.
//!
//! One node stages a named `u64` array (`"hot"`); after it commits,
//! the object is divided into `n` equal chunks. An **init phase**
//! writes every chunk with an incompressible value stream (under
//! striping, chunk `c`'s single writer is node `c`, so the
//! migrating-home protocol settles chunk `c`'s segments at node `c`;
//! under the single-home baseline, node 0 writes everything and every
//! segment stays homed there). Then `rounds` timed rounds run: in
//! round `r` the rotating writer `(r-1) % n` rewrites its chunk while
//! **every** node bulk-reads the rotating cold chunk `(me + r) % n`
//! through one view guard, and a barrier publishes the round.
//!
//! Node `n-1`'s read always lands on the chunk being rewritten *in
//! that same round*, so every round exercises the snapshot-versioning
//! contract: the reader must observe the segment versions published at
//! the preceding barrier, never the writer's in-flight bytes. The
//! checksum every node accumulates is reproduced bit-for-bit by
//! [`model_node_checksum`], a plain sequential replay of that
//! visibility rule, on striped and unstriped configurations alike —
//! the proof that striping changes *where bytes live*, never *what
//! readers see*.
//!
//! Aggregate read throughput ([`HotParams::read_bytes`] over the timed
//! elapsed) is the benchmark metric: with per-segment homes it scales
//! with the node count, while the single-home baseline queues every
//! reply on one NIC.

use lots_core::{DsmApi, DsmSlice};

use crate::adapter::{AppResult, DsmProgram};

/// Name of the shared hot object.
pub const HOT_NAME: &str = "hot";

/// Hot-object parameters.
#[derive(Debug, Clone, Copy)]
pub struct HotParams {
    /// `u64` elements of the hot object (must divide evenly by the
    /// cluster size).
    pub elems: usize,
    /// Timed rounds (must stay below the cluster size so no node ever
    /// reads the chunk it is itself rewriting).
    pub rounds: usize,
    /// Single-home init: node 0 writes every chunk, so under a
    /// `Placement::Fixed(0)` striping config with home migration off
    /// every segment stays homed at node 0 (the baseline). `false`
    /// spreads the init over the cluster, one chunk per node.
    pub single_home: bool,
}

impl HotParams {
    /// The benchmark shape: a 256 MB object (32 Mi `u64`s), three
    /// timed rounds, distributed init.
    pub fn bench() -> HotParams {
        HotParams {
            elems: 32 << 20,
            rounds: 3,
            single_home: false,
        }
    }

    /// A CI-sized shape (8 MB object) exercising the same schedule.
    pub fn smoke() -> HotParams {
        HotParams {
            elems: 1 << 20,
            rounds: 3,
            single_home: false,
        }
    }

    /// Logical bytes of the hot object.
    pub fn object_bytes(&self) -> u64 {
        self.elems as u64 * 8
    }

    /// Bytes bulk-read over the timed section, cluster-wide: every
    /// node reads one `1/n` chunk per round, so each round covers the
    /// whole object once.
    pub fn read_bytes(&self) -> u64 {
        self.rounds as u64 * self.object_bytes()
    }
}

/// SplitMix64 finalizer — full-width output, so the fill stream is
/// incompressible (a compressible fill would let the swap/serve paths
/// cheat the byte counts).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Value of global element `g` as of write event `event` (0 = the init
/// fill, `r` = the round-`r` rewrite of its chunk). The seed is
/// pre-mixed so its entropy reaches every bit: a raw `seed ^ g` over a
/// power-of-two chunk merely permutes the chunk's input set for small
/// seeds, making the wrapping-sum checksum seed-blind.
pub fn fill_value(seed: u64, event: usize, g: usize) -> u64 {
    mix(mix(seed) ^ ((event as u64) << 40) ^ g as u64)
}

/// The write event visible to a round-`r` read of chunk `c` (Scope
/// Consistency: round `r'`'s rewrite of chunk `r' - 1 (mod n)` is
/// published at the barrier *ending* round `r'`, so it is visible to
/// reads in rounds strictly after `r'`). The in-flight rewrite of the
/// current round is never visible — that's the snapshot contract.
fn visible_event(c: usize, r: usize) -> usize {
    if r >= c + 2 {
        c + 1
    } else {
        0
    }
}

/// The checksum node `me` of an `n`-node [`run_hot_object`] run must
/// report: a sequential replay of its read schedule under the
/// barrier-published visibility rule.
pub fn model_node_checksum(params: &HotParams, seed: u64, n: usize, me: usize) -> u64 {
    let chunk = params.elems / n;
    let mut checksum = 0u64;
    for r in 1..=params.rounds {
        let c = (me + r) % n;
        let e = visible_event(c, r);
        for j in 0..chunk {
            checksum = checksum.wrapping_add(fill_value(seed, e, c * chunk + j));
        }
    }
    checksum
}

/// The cluster-combined checksum (wrapping sum over nodes).
pub fn model_checksum(params: &HotParams, seed: u64, n: usize) -> u64 {
    (0..n).fold(0u64, |a, me| {
        a.wrapping_add(model_node_checksum(params, seed, n, me))
    })
}

/// Run the hot-object workload on one node; call from every node.
pub fn run_hot_object<D: DsmApi>(dsm: &D, params: &HotParams) -> AppResult {
    let (n, me, seed) = (dsm.n(), dsm.me(), dsm.seed());
    assert!(
        params.rounds < n,
        "rounds must stay below the cluster size so no node reads its own rewrite"
    );
    assert_eq!(params.elems % n, 0, "chunks must divide evenly");
    let chunk = params.elems / n;
    if me == 0 {
        dsm.alloc_named::<u64>(HOT_NAME, params.elems);
    }
    dsm.barrier();
    let hot = dsm.lookup::<u64>(HOT_NAME);
    // One whole-chunk rewrite: a single mutable view guard (one access
    // check, one fan-out to the covered segments).
    let write_chunk = |c: usize, event: usize| {
        let base = c * chunk;
        {
            let mut v = hot.view_mut(base..base + chunk);
            for (j, slot) in v.iter_mut().enumerate() {
                *slot = fill_value(seed, event, base + j);
            }
        }
        dsm.charge_compute(chunk as u64);
    };
    if params.single_home {
        if me == 0 {
            for c in 0..n {
                write_chunk(c, 0);
            }
        }
    } else {
        write_chunk(me, 0);
    }
    // Publish the init fill; the migrating-home protocol settles each
    // chunk's segments at its single init writer.
    dsm.barrier();
    let t0 = dsm.now();
    let mut checksum = 0u64;
    for r in 1..=params.rounds {
        if me == (r - 1) % n {
            write_chunk(me, r);
        }
        let c = (me + r) % n;
        let base = c * chunk;
        let sum = hot
            .view(base..base + chunk)
            .iter()
            .fold(0u64, |a, &v| a.wrapping_add(v));
        dsm.charge_compute(chunk as u64);
        checksum = checksum.wrapping_add(sum);
        dsm.barrier();
    }
    AppResult {
        checksum,
        elapsed: dsm.now().saturating_sub(t0),
    }
}

impl DsmProgram for HotParams {
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        run_hot_object(dsm, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_is_deterministic_and_seed_sensitive() {
        let p = HotParams {
            elems: 256,
            rounds: 3,
            single_home: false,
        };
        assert_eq!(model_checksum(&p, 7, 4), model_checksum(&p, 7, 4));
        assert_ne!(model_checksum(&p, 7, 4), model_checksum(&p, 8, 4));
    }

    #[test]
    fn visibility_rule_hides_the_inflight_round() {
        // Round 1 reads see only the init fill.
        for c in 0..4 {
            assert_eq!(visible_event(c, 1), 0);
        }
        // Chunk 0 is rewritten in round 1, visible from round 2 on.
        assert_eq!(visible_event(0, 2), 1);
        assert_eq!(visible_event(0, 3), 1);
        // Chunk 1 is rewritten in round 2: invisible to round 2's own
        // reads (the snapshot contract), visible in round 3.
        assert_eq!(visible_event(1, 2), 0);
        assert_eq!(visible_event(1, 3), 2);
    }

    #[test]
    fn read_volume_covers_the_object_each_round() {
        let p = HotParams::smoke();
        assert_eq!(p.read_bytes(), 3 * p.object_bytes());
        assert_eq!(p.object_bytes(), 8 << 20);
    }

    use crate::runner::{run_app, RunConfig, System};
    use lots_sim::machine::p4_fedora;

    const TINY: HotParams = HotParams {
        elems: 4096,
        rounds: 3,
        single_home: false,
    };

    #[test]
    fn striped_run_matches_the_sequential_model() {
        let mut cfg = RunConfig::new(System::Lots, 4, p4_fedora());
        cfg.seed = 11;
        cfg.lots.striping = Some(lots_core::Striping::segments_of(4 << 10));
        let out = run_app(&cfg, TINY);
        assert_eq!(out.combined.checksum, model_checksum(&TINY, 11, 4));
        for (me, r) in out.per_node.iter().enumerate() {
            assert_eq!(
                r.checksum,
                model_node_checksum(&TINY, 11, 4, me),
                "node {me}"
            );
        }
        // Striped init + rotating writers → versions flow every barrier.
        assert!(out.stats.versions_published() > 0);
        assert!(out.stats.versions_reclaimed() > 0);
    }

    #[test]
    fn single_home_baseline_matches_the_same_model() {
        let mut cfg = RunConfig::new(System::Lots, 4, p4_fedora());
        cfg.seed = 11;
        cfg.lots.striping = Some(lots_core::Striping {
            segment_bytes: 4 << 10,
            placement: lots_core::Placement::Fixed(0),
        });
        cfg.lots.home_migration = false;
        let single = HotParams {
            single_home: true,
            ..TINY
        };
        let out = run_app(&cfg, single);
        // Same visible values as the distributed-init striped run.
        assert_eq!(out.combined.checksum, model_checksum(&TINY, 11, 4));
        // Everything is served by node 0: maximal imbalance, n × 1000.
        assert_eq!(out.home_load_ratio_permille, 4000);
    }
}
