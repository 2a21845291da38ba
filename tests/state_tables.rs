//! What a node knows about an object, and about a page, is a row of a
//! table: `lots_core::object::OBJ_STATES` and
//! `lots_jiajia::page::PAGE_STATES`. Debug builds check every record an
//! operation touches against its table and remember the rows they
//! passed; this test runs the lattice's `all_pairs` cover and holds the
//! rows it reached to the tables — every row is reached, and no record
//! left them (the check panics the run).
//!
//! The reached rows are process-wide, so this file holds one test.

mod lattice;

use lattice::*;
use lots::core::object::OBJ_STATES;
use lots::core::state_table::StateTable;
use lots::jiajia::page::PAGE_STATES;
use std::sync::atomic::Ordering;

/// The indices of the rows of `table` no check has passed.
fn unreached<const N: usize>(table: &StateTable<N>) -> Vec<usize> {
    let reached = table.reached.load(Ordering::Relaxed);
    (0..table.rows.len())
        .filter(|&r| reached >> r & 1 == 0)
        .collect()
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "the state checks run in debug builds")]
fn the_all_pairs_cover_reaches_every_row_of_both_state_tables() {
    check(&all_pairs(&PAIRED), &Script::random(1));
    check(&all_pairs(&PAIRED), &WriteThenLockedWrite);
    assert_eq!(unreached(&OBJ_STATES), [0; 0], "rows of OBJ_STATES");
    assert_eq!(unreached(&PAGE_STATES), [0; 0], "rows of PAGE_STATES");
}
