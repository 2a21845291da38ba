//! The Test 2 program (§4.3, Table 1): exercise the large object space.
//!
//! "The machines try to allocate a shared large 2-dimension integer
//! array of X rows, with a total size exceeding 4 GB. … The program is
//! made simple (just adding some numbers held by each process) … In
//! this program, every object is swapped out once, thus more than 4 GB
//! data is written to the disk. It is expected the execution time is to
//! be dominated by the disk access time."
//!
//! The kernel is generic over [`DsmApi`] like every other workload; at
//! paper scale only LOTS can actually run it (JIAJIA's `try_alloc`
//! fails beyond its 128 MB shared space, LOTS-x beyond the DMM area —
//! precisely the §1 motivation), and the fallible surface reports that
//! as an error instead of a panic.

use lots_core::{DsmApi, DsmSlice};
use lots_sim::{NodeStats, SimDuration};

/// Test 2 parameters: `rows × row_elems` 32-bit integers.
#[derive(Debug, Clone, Copy)]
pub struct LargeObjParams {
    /// X in the paper's Table 1.
    pub rows: usize,
    /// Elements per row (paper-scale: 1 M ints = 4 MB rows).
    pub row_elems: usize,
}

impl LargeObjParams {
    /// Logical size of the shared array.
    pub fn total_bytes(&self) -> u64 {
        self.rows as u64 * self.row_elems as u64 * 4
    }
}

/// Per-node outcome.
#[derive(Debug, Clone)]
pub struct LargeObjOutcome {
    /// This node's partial sum.
    pub sum: i64,
    /// Virtual time of the timed section.
    pub elapsed: SimDuration,
    /// What the node counted during the timed section: its swaps, the
    /// bytes they moved, and `time_in(TimeCategory::Disk)` — the
    /// paper's "disk read/write time due to the large object space
    /// support".
    pub stats: NodeStats,
}

/// Deterministic fill value of row `r`.
pub fn row_value(r: usize) -> i32 {
    (r % 97) as i32 + 1
}

/// Expected grand total over all rows.
pub fn expected_sum(params: LargeObjParams) -> i64 {
    (0..params.rows)
        .map(|r| row_value(r) as i64 * params.row_elems as i64)
        .sum()
}

/// Run Test 2 on one node; call from every node of the cluster.
pub fn large_object_test<D: DsmApi>(
    dsm: &D,
    params: LargeObjParams,
) -> Result<LargeObjOutcome, D::Error> {
    let (p, me) = (dsm.n(), dsm.me());
    // Every node declares every row (the handles are global); each
    // row's data materializes only where it is touched.
    let rows: Vec<D::Slice<'_, i32>> = (0..params.rows)
        .map(|_| dsm.try_alloc::<i32>(params.row_elems))
        .collect::<Result<_, _>>()?;
    dsm.barrier();
    let t0 = dsm.now();
    let before = NodeStats::new();
    before.absorb(dsm.stats());

    // Write phase: fill my rows, one view guard (one access check) per
    // row. As the DMM area fills, earlier rows are swapped out — each
    // exactly once.
    for r in (me..params.rows).step_by(p) {
        rows[r]
            .try_view_mut(0..params.row_elems)?
            .fill(row_value(r));
    }
    dsm.barrier();

    // Read phase: sum my rows back — swapped-out rows stream in from
    // the local disk.
    let mut sum = 0i64;
    for r in (me..params.rows).step_by(p) {
        sum += rows[r]
            .try_view(0..params.row_elems)?
            .iter()
            .map(|&v| v as i64)
            .sum::<i64>();
        dsm.charge_compute(params.row_elems as u64);
    }
    dsm.barrier();

    Ok(LargeObjOutcome {
        sum,
        elapsed: dsm.now().saturating_sub(t0),
        stats: dsm.stats().since(&before),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_sum_matches_hand_count() {
        let p = LargeObjParams {
            rows: 3,
            row_elems: 10,
        };
        // rows 0,1,2 → values 1,2,3 → (1+2+3)*10
        assert_eq!(expected_sum(p), 60);
        assert_eq!(p.total_bytes(), 120);
    }

    #[test]
    fn row_values_cycle() {
        assert_eq!(row_value(0), 1);
        assert_eq!(row_value(96), 97);
        assert_eq!(row_value(97), 1);
    }
}
