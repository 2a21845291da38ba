//! State tables: which combinations of a control record's facts are
//! legal, written down once and checked.
//!
//! A record's state is one value per *axis* (mapping, life, written,
//! …), each a small index. A table lists its legal rows; a row allows,
//! per axis, a set of values (bit `v` for value `v`), so one row is one
//! legal combination, or several where an axis does not matter to it.
//! LOTS' object table is [`crate::object::OBJ_STATES`]; JIAJIA's page
//! table sits beside its page record. Debug builds check every record
//! an operation touched against its table and remember which rows
//! passed, so a test can run a workload and compare the reached rows
//! with the table.

use std::sync::atomic::{AtomicU64, Ordering};

/// Row bits of a two-valued axis: no, yes, either.
pub const NO: u8 = 1;
/// See [`NO`].
pub const YES: u8 = 2;
/// See [`NO`].
pub const EITHER: u8 = NO | YES;

/// The legal states of one kind of record.
pub struct StateTable<const N: usize> {
    /// The axes and their values, in state order, for messages.
    pub axes: &'static str,
    /// The legal rows, at most 64.
    pub rows: &'static [[u8; N]],
    /// The rows [`StateTable::check`] has passed, a bit per row.
    pub reached: AtomicU64,
}

impl<const N: usize> StateTable<N> {
    /// The first row that allows `state` (per axis, the index of its
    /// value), if any.
    pub fn row_of(&self, state: [u8; N]) -> Option<usize> {
        let allows = |row: &[u8; N]| row.iter().zip(state).all(|(&bits, v)| bits >> v & 1 == 1);
        self.rows.iter().position(allows)
    }

    /// Panic, naming `what`, unless a row allows `state`; remember the
    /// row as reached.
    pub fn check(&self, state: [u8; N], what: impl std::fmt::Display) {
        let Some(row) = self.row_of(state) else {
            panic!(
                "{what} is in a state no row allows: {state:?} of {}",
                self.axes
            )
        };
        self.reached.fetch_or(1 << row, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static T: StateTable<2> = StateTable {
        axes: "(place: a b c, flag)",
        rows: &[[1 | 2, NO], [4, EITHER]],
        reached: AtomicU64::new(0),
    };

    #[test]
    fn a_row_allows_each_value_it_has_a_bit_for() {
        assert_eq!(T.row_of([0, 0]), Some(0));
        assert_eq!(T.row_of([1, 0]), Some(0));
        assert_eq!(T.row_of([1, 1]), None);
        assert_eq!(T.row_of([2, 1]), Some(1));
        T.check([2, 0], "x");
        assert_eq!(T.reached.load(Ordering::Relaxed) & 2, 2);
    }

    #[test]
    #[should_panic(expected = "obj#1 is in a state no row allows: [0, 1] of (place: a b c, flag)")]
    fn a_state_no_row_allows_panics_naming_it() {
        T.check([0, 1], "obj#1");
    }
}
