//! Property tests: random phase scripts must agree with their
//! sequential model on both DSMs, including under LOTS swap pressure
//! (see `lattice::check` for everything else each run must hold to).

mod lattice;

use lattice::*;
use lots::apps::adapter::{AppResult, DsmProgram};
use lots::apps::runner::System;
use lots::core::{DsmApi, DsmSlice};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lots_matches_model(seed in any::<u64>()) {
        check(&[Point::new(System::Lots, 2, ROOMY)], &Script::random(seed));
    }

    /// A deliberately tight DMM keeps objects cycling through disk.
    #[test]
    fn lots_matches_model_under_swap_pressure(seed in any::<u64>()) {
        check(&[Point::new(System::Lots, 2, TIGHT)], &Script::random(seed));
    }

    #[test]
    fn jiajia_matches_model(seed in any::<u64>()) {
        check(&[Point::new(System::Jiajia, 2, JIA_BYTES)], &Script::random(seed));
    }
}

/// 64 KB of `u32` that every node caches, then writes its own quarter
/// of before taking a lock in the same interval.
#[derive(Debug, Clone, Copy)]
struct WriteThenLock;

const WORDS: usize = 16 << 10;

impl DsmProgram for WriteThenLock {
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        let (a, c) = (dsm.alloc::<u32>(WORDS), dsm.alloc::<u32>(1));
        let sum = || a.read_vec(0, WORDS).iter().map(|&v| v as u64).sum::<u64>();
        sum();
        dsm.barrier();
        let quarter = WORDS / dsm.n();
        a.write_from(dsm.me() * quarter, &vec![7; quarter]);
        dsm.with_lock(0, || c.update(0, |v| v + 1));
        dsm.barrier();
        untimed(sum())
    }
}

impl Program for WriteThenLock {
    fn model(&self, p: &Point) -> Option<Model> {
        Some(Model::Nodes(vec![7 * WORDS as u64; p.n]))
    }
}

/// A release pushes the interval's diffs, and the barrier after it
/// still names every page written in the interval: peers that cached
/// them before must not keep the stale copies.
#[test]
fn writes_before_a_lock_release_reach_every_cached_copy() {
    check(&all_three(4, 256 * 4096), &WriteThenLock);
}

/// A lock grant that names a page (or object) the acquirer wrote
/// earlier in the interval keeps that write: JIAJIA's refetch of the
/// invalidated page puts the acquirer's unflushed words back on top.
#[test]
fn a_lock_grant_keeps_the_acquirers_unflushed_writes() {
    check(&all_three(4, 256 * 4096), &WriteThenLockedWrite);
}
