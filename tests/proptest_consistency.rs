//! Property tests: random phase scripts must agree with their
//! sequential model on both DSMs, including under LOTS swap pressure
//! (see `lattice::check` for everything else each run must hold to).

mod lattice;

use lattice::*;
use lots::apps::runner::System;
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
