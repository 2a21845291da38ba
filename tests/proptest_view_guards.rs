//! Property tests for the view-guard surface: random programs mixing
//! interleaved `view`/`view_mut` scopes, pointer arithmetic and bulk
//! ops must agree **byte-for-byte** with the element-wise API and with
//! a plain in-memory model — on LOTS, LOTS-x and JIAJIA, including
//! under LOTS swap pressure, and on striped LOTS objects for `u32`,
//! `u64` and `f64` elements over segment sizes that do and do not
//! divide by the element size (so guards decode from one, two or many
//! segments in place, or through the straddling-element staging path),
//! with a second node reading spans a writer has in flight.

use lots::core::{run_cluster, ClusterOptions, DsmApi, DsmSlice, LotsConfig, Pod, Striping};
use lots::jiajia::{run_jiajia_cluster, JiaOptions};
use lots::sim::machine::p4_fedora;
use proptest::prelude::*;

const LEN: usize = 1024;

/// One step of a random single-node program. Fields are raw draws;
/// the interpreter normalizes them into bounds.
type RawOp = (usize, usize, usize, i32);

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `a[i] = v` — element write vs one-element `view_mut`.
    Write { i: usize, v: i32 },
    /// Read `a[i]` into the checksum.
    Read { i: usize },
    /// Bulk write of `[lo, hi)` — `write_from` vs `view_mut`.
    BulkWrite { lo: usize, hi: usize, v: i32 },
    /// Bulk read of `[lo, hi)` into the checksum.
    BulkRead { lo: usize, hi: usize },
    /// `a[i] ^= v` — `update` vs read-modify-write through a guard.
    Update { i: usize, v: i32 },
    /// `dst[k] += src[k]` over two disjoint ranges — element loop vs
    /// two *interleaved* live guards (a read view and a mutable view).
    MirrorAdd { lo: usize, span: usize },
    /// Write through a shifted+truncated handle (`offset`/`prefix`).
    PtrWrite { delta: usize, v: i32 },
}

fn decode((kind, x, y, v): RawOp) -> Op {
    let i = x % LEN;
    let (lo, hi) = {
        let (a, b) = (x % LEN, y % LEN);
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    };
    match kind % 7 {
        0 => Op::Write { i, v },
        1 => Op::Read { i },
        2 => Op::BulkWrite { lo, hi, v },
        3 => Op::BulkRead { lo, hi },
        4 => Op::Update { i, v },
        5 => Op::MirrorAdd {
            lo: x % (LEN / 2 - 64),
            span: 1 + y % 64,
        },
        _ => Op::PtrWrite { delta: i, v },
    }
}

fn bulk_vals(lo: usize, hi: usize, v: i32) -> Vec<i32> {
    (0..hi - lo).map(|k| v.wrapping_add(k as i32)).collect()
}

/// Element types the programs run over. The model computes in `i32`;
/// a stored element is the `lift` of a model value and reads back
/// through `low` (`low(lift(v)) == v`, and the zero fill lowers to 0).
trait Lift: Pod + std::fmt::Debug {
    fn lift(v: i32) -> Self;
    fn low(self) -> i32;
}

impl Lift for i32 {
    fn lift(v: i32) -> i32 {
        v
    }
    fn low(self) -> i32 {
        self
    }
}

impl Lift for u32 {
    fn lift(v: i32) -> u32 {
        v as u32
    }
    fn low(self) -> i32 {
        self as i32
    }
}

impl Lift for u64 {
    /// Value in the high word, its complement in the low word: both
    /// halves of an element that straddles two segments carry data.
    fn lift(v: i32) -> u64 {
        ((v as u32 as u64) << 32) | !(v as u32) as u64
    }
    fn low(self) -> i32 {
        (self >> 32) as i32
    }
}

impl Lift for f64 {
    fn lift(v: i32) -> f64 {
        v as f64
    }
    fn low(self) -> i32 {
        self as i32
    }
}

fn lifted<T: Lift>(vals: Vec<i32>) -> Vec<T> {
    vals.into_iter().map(T::lift).collect()
}

/// The reference interpreter over a plain vector.
fn note(cksum: &mut u64, v: i32) {
    *cksum = cksum.wrapping_mul(31).wrapping_add(v as u64);
}

fn run_model(ops: &[Op]) -> (Vec<i32>, u64) {
    let mut a = vec![0i32; LEN];
    let cksum = run_model_on(&mut a, ops);
    (a, cksum)
}

fn run_model_on(a: &mut [i32], ops: &[Op]) -> u64 {
    let mut cksum = 0u64;
    for &op in ops {
        match op {
            Op::Write { i, v } => a[i] = v,
            Op::Read { i } => note(&mut cksum, a[i]),
            Op::BulkWrite { lo, hi, v } => a[lo..hi].copy_from_slice(&bulk_vals(lo, hi, v)),
            Op::BulkRead { lo, hi } => (lo..hi).for_each(|k| note(&mut cksum, a[k])),
            Op::Update { i, v } => a[i] ^= v,
            Op::MirrorAdd { lo, span } => {
                let dst = lo + LEN / 2;
                for k in 0..span {
                    a[dst + k] = a[dst + k].wrapping_add(a[lo + k]);
                }
            }
            Op::PtrWrite { delta, v } => a[delta] = v,
        }
    }
    cksum
}

/// The element-wise interpreter (per-element checked accessors).
fn run_elementwise<T: Lift, S: DsmSlice<Elem = T>>(a: &S, ops: &[Op]) -> (Vec<i32>, u64) {
    let mut cksum = 0u64;
    for &op in ops {
        match op {
            Op::Write { i, v } => a.write(i, T::lift(v)),
            Op::Read { i } => note(&mut cksum, a.read(i).low()),
            Op::BulkWrite { lo, hi, v } => a.write_from(lo, &lifted::<T>(bulk_vals(lo, hi, v))),
            Op::BulkRead { lo, hi } => a
                .read_vec(lo, hi - lo)
                .into_iter()
                .for_each(|v| note(&mut cksum, v.low())),
            Op::Update { i, v } => a.update(i, |x| T::lift(x.low() ^ v)),
            Op::MirrorAdd { lo, span } => {
                let dst = lo + LEN / 2;
                for k in 0..span {
                    let s = a.read(lo + k).low();
                    a.update(dst + k, |x| T::lift(x.low().wrapping_add(s)));
                }
            }
            Op::PtrWrite { delta, v } => a.offset(delta).prefix(1).write(0, T::lift(v)),
        }
    }
    let state = a.read_vec(0, LEN).into_iter().map(T::low).collect();
    (state, cksum)
}

/// The guard-based interpreter (views, interleaved scopes, pointer
/// arithmetic on the handles the guards open from).
fn run_with_guards<T: Lift, S: DsmSlice<Elem = T>>(a: &S, ops: &[Op]) -> (Vec<i32>, u64) {
    let mut cksum = 0u64;
    for &op in ops {
        match op {
            Op::Write { i, v } => a.view_mut(i..i + 1)[0] = T::lift(v),
            Op::Read { i } => note(&mut cksum, a.view(i..i + 1)[0].low()),
            Op::BulkWrite { lo, hi, v } => {
                if lo < hi {
                    a.view_mut(lo..hi)
                        .copy_from_slice(&lifted::<T>(bulk_vals(lo, hi, v)));
                }
            }
            Op::BulkRead { lo, hi } => a
                .view(lo..hi)
                .iter()
                .for_each(|&v| note(&mut cksum, v.low())),
            Op::Update { i, v } => {
                let mut g = a.view_mut(i..i + 1);
                g[0] = T::lift(g[0].low() ^ v);
            }
            Op::MirrorAdd { lo, span } => {
                // Two live guards at once: a read view of the source
                // range interleaved with a mutable view of a disjoint
                // destination range.
                let src = a.view(lo..lo + span);
                let upper = a.offset(LEN / 2);
                let mut dst = upper.view_mut(lo..lo + span);
                for k in 0..span {
                    dst[k] = T::lift(dst[k].low().wrapping_add(src[k].low()));
                }
            }
            Op::PtrWrite { delta, v } => a.offset(delta).prefix(1).view_mut(0..1)[0] = T::lift(v),
        }
    }
    let final_state = a.view(0..LEN).iter().map(|&v| v.low()).collect();
    (final_state, cksum)
}

/// Run both interpreters on one node of the given LOTS flavour and
/// compare against the model.
fn check_lots(ops: Vec<Op>, cfg: LotsConfig) {
    let (expect_state, expect_cksum) = run_model(&ops);
    let opts = ClusterOptions::new(1, cfg, p4_fedora());
    let ops = std::sync::Arc::new(ops);
    let (mut results, _) = run_cluster(opts, move |dsm| {
        let elem = dsm.alloc::<i32>(LEN);
        let guarded = dsm.alloc::<i32>(LEN);
        (
            run_elementwise(&elem, &ops),
            run_with_guards(&guarded, &ops),
        )
    });
    let (elem, guarded) = results.remove(0);
    assert_eq!(elem.0, expect_state, "element-wise state diverged");
    assert_eq!(elem.1, expect_cksum, "element-wise reads diverged");
    assert_eq!(guarded.0, expect_state, "guard state diverged");
    assert_eq!(guarded.1, expect_cksum, "guard reads diverged");
}

fn check_jia(ops: Vec<Op>) {
    let (expect_state, expect_cksum) = run_model(&ops);
    let opts = JiaOptions::new(1, 4 << 20, p4_fedora());
    let ops = std::sync::Arc::new(ops);
    let (mut results, _) = run_jiajia_cluster(opts, move |dsm| {
        let elem = dsm.alloc::<i32>(LEN);
        let guarded = dsm.alloc::<i32>(LEN);
        (
            run_elementwise(&elem, &ops),
            run_with_guards(&guarded, &ops),
        )
    });
    let (elem, guarded) = results.remove(0);
    assert_eq!(elem.0, expect_state, "element-wise state diverged");
    assert_eq!(elem.1, expect_cksum, "element-wise reads diverged");
    assert_eq!(guarded.0, expect_state, "guard state diverged");
    assert_eq!(guarded.1, expect_cksum, "guard reads diverged");
}

/// Striped LOTS, two nodes, `seg`-byte segments. Node 0 runs the first
/// half of the program through both interpreters and publishes it at a
/// barrier, then runs the second half while node 1 opens read views
/// over the whole array and over every bulk range of the program: each
/// spans segments node 0 is rewriting in that same interval, which are
/// served from their twins, so node 1 must see exactly the published
/// first-half state — whatever the interleaving. After the next
/// barrier node 1 sees the final state.
fn check_striped<T: Lift>(ops: Vec<Op>, seg: usize) {
    let (first, second) = ops.split_at(ops.len() / 2);
    let mut published = vec![0i32; LEN];
    let mut expect_cksum = run_model_on(&mut published, first);
    let mut expect_state = published.clone();
    expect_cksum = expect_cksum
        .wrapping_mul(1 << 20)
        .wrapping_add(run_model_on(&mut expect_state, second));
    let cfg = LotsConfig::small(1 << 20).with_striping(Striping::segments_of(seg));
    let opts = ClusterOptions::new(2, cfg, p4_fedora());
    let halves = std::sync::Arc::new((first.to_vec(), second.to_vec()));
    let spans: Vec<(usize, usize)> = ops
        .iter()
        .filter_map(|op| match *op {
            Op::BulkRead { lo, hi } | Op::BulkWrite { lo, hi, .. } if lo < hi => Some((lo, hi)),
            _ => None,
        })
        .collect();
    let (results, _) = run_cluster(opts, move |dsm| {
        let elem = dsm.alloc::<T>(LEN);
        let guarded = dsm.alloc::<T>(LEN);
        assert!(
            dsm.segment_count(guarded.id()) >= 2,
            "object must be striped"
        );
        let low = |v: &[T]| v.iter().map(|&x| x.low()).collect::<Vec<i32>>();
        let mut seen = Vec::new();
        let mut cksums = [0u64; 2];
        for (half, ops) in [&halves.0, &halves.1].into_iter().enumerate() {
            if dsm.me() == 0 {
                let e = run_elementwise(&elem, ops).1;
                let g = run_with_guards(&guarded, ops).1;
                cksums = [
                    cksums[0].wrapping_mul(1 << 20).wrapping_add(e),
                    cksums[1].wrapping_mul(1 << 20).wrapping_add(g),
                ];
            } else if half == 1 {
                seen.push(low(&guarded.view(0..LEN)));
                for &(lo, hi) in &spans {
                    let v = low(&guarded.view(lo..hi));
                    assert_eq!(v, seen[0][lo..hi], "in-flight span {lo}..{hi}");
                    assert_eq!(low(&elem.view(lo..hi)), v, "elem span {lo}..{hi}");
                }
            }
            dsm.barrier();
        }
        seen.push(low(&guarded.view(0..LEN)));
        seen.push(low(&elem.view(0..LEN)));
        (seen, cksums)
    });
    let (seen0, cksums) = &results[0];
    assert_eq!(cksums, &[expect_cksum; 2], "node 0 reads diverged");
    assert_eq!(seen0, &vec![expect_state.clone(); 2], "node 0 final state");
    let (seen1, _) = &results[1];
    assert_eq!(seen1[0], published, "node 1 saw unpublished bytes");
    assert_eq!(seen1[1..], vec![expect_state; 2], "node 1 final state");
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0usize..7, 0usize..LEN, 0usize..LEN, any::<i32>()), 1..40)
        .prop_map(|raw| raw.into_iter().map(decode).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn guards_agree_with_elementwise_on_lots(ops in ops_strategy()) {
        check_lots(ops, LotsConfig::small(1 << 20));
    }

    #[test]
    fn guards_agree_with_elementwise_on_lots_under_swap_pressure(ops in ops_strategy()) {
        // A 12 KB DMM holds only one of the two 4 KB arrays at a time,
        // so guards constantly pin/swap through the backing store.
        check_lots(ops, LotsConfig::small(12 * 1024));
    }

    #[test]
    fn guards_agree_with_elementwise_on_lots_x(ops in ops_strategy()) {
        check_lots(ops, LotsConfig::lots_x(1 << 20));
    }

    #[test]
    fn guards_agree_with_elementwise_on_jiajia(ops in ops_strategy()) {
        check_jia(ops);
    }

    /// Segment sizes: 1024 divides by every element size (guards run
    /// piecewise in place over up to 8 segments); 516 and 2052 leave
    /// `seg % 8 == 4`, so `u64`/`f64` elements straddle segment
    /// boundaries (staging path) while `u32` still runs in place. All
    /// are below the smallest array (4 KB of `u32`), so every object
    /// really is striped.
    #[test]
    fn guards_agree_on_striped_objects_of_every_element_type(
        ops in ops_strategy(),
        seg in 0usize..3,
    ) {
        let seg = [516, 1024, 2052][seg];
        check_striped::<u32>(ops.clone(), seg);
        check_striped::<u64>(ops.clone(), seg);
        check_striped::<f64>(ops, seg);
    }
}
