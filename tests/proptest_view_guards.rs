//! Property tests for the view-guard surface: the same random script
//! run through view guards (interleaved `view`/`view_mut` scopes,
//! pointer arithmetic, bulk ops) and through the element-wise API must
//! both agree with the model — on LOTS, LOTS-x and JIAJIA, under LOTS
//! swap pressure, and on striped LOTS objects of `u32`, `u64` and `f64`
//! elements over segment sizes that do and do not divide by the element
//! size, with a non-writer reading spans the writer has in flight.

mod lattice;

use lattice::*;
use lots::apps::runner::System;
use lots::core::Striping;
use proptest::prelude::*;

/// Check `seed`'s script in both access styles at one point.
fn both_styles(point: Point, seed: u64) {
    for access in [Access::Elements, Access::Guards] {
        let script = Script {
            access,
            ..Script::random(seed)
        };
        check(std::slice::from_ref(&point), &script);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn guards_agree_with_elementwise_on_lots(seed in any::<u64>()) {
        both_styles(Point::new(System::Lots, 1, ROOMY), seed);
    }

    /// The tight DMM holds a few of the objects at a time, so guards
    /// constantly pin and swap through the backing store.
    #[test]
    fn guards_agree_with_elementwise_on_lots_under_swap_pressure(seed in any::<u64>()) {
        both_styles(Point::new(System::Lots, 1, TIGHT), seed);
    }

    #[test]
    fn guards_agree_with_elementwise_on_lots_x(seed in any::<u64>()) {
        both_styles(Point::new(System::LotsX, 1, ROOMY), seed);
    }

    #[test]
    fn guards_agree_with_elementwise_on_jiajia(seed in any::<u64>()) {
        both_styles(Point::new(System::Jiajia, 1, JIA_BYTES), seed);
    }

    /// Segment sizes: 1024 divides by every element size (guards run
    /// piecewise in place); 516 and 2052 leave `seg % 8 == 4`, so `u64`
    /// and `f64` elements straddle segment boundaries (staging path)
    /// while `u32` still runs in place. One writer, one reader.
    #[test]
    fn guards_agree_on_striped_objects_of_every_element_type(
        seed in any::<u64>(),
        seg in 0usize..3,
    ) {
        let striping = Some(Striping::segments_of([516, 1024, 2052][seg]));
        let point = Point::new(System::Lots, 2, ROOMY).with(|p| p.lots.striping = striping);
        for elem in [Elem::U32, Elem::U64, Elem::F64] {
            for access in [Access::Elements, Access::Guards] {
                check(std::slice::from_ref(&point), &Cut { elem, access, ..Cut::random(seed) });
            }
        }
    }
}
