//! One differential harness for the feature product.
//!
//! A [`Point`] is one configuration of the lattice, built as the
//! `RunConfig` that `run_app` runs: system, cluster size, DMM/shared
//! bytes, a full `LotsConfig` (swap policy and knobs, fit, striping),
//! persistence, a `FaultPlan`, the race detector and the cluster seed.
//! A [`Program`] is any `DsmProgram` with the sequential model of what
//! it computes: the seeded phase [`Script`], the striped-view [`Cut`]
//! program, and the apps (SOR, RX, LU, ME, churn, the hot object,
//! Test 2) with their sequential functions. [`check`] runs one program
//! at many points and holds every run to the same checks:
//!
//! 1. per-node results equal the model, and every point of one `check`
//!    with the same cluster size and seed computes the same results
//!    (where the program races — a snapshot read off striped LOTS — it
//!    has no model, and check 1 and the race half of check 4 do not
//!    apply);
//! 2. Σ `time_in` over the categories equals every node's final clock;
//! 3. a second run, with the race detector flipped, reproduces the
//!    first's results, fingerprint and scheduler counters — or the same
//!    panic message — which covers replay and analysis invisibility at
//!    once; the run with the detector off carries no race report;
//! 4. a race-free program reports no races, and no message stays
//!    dropped (every lattice plan's partitions heal);
//! 5. a journaled point restores from its newest sealed checkpoint, and
//!    from a log torn by one byte, to the original results and
//!    fingerprint.
//!
//! The library decides which runs may start: `check` asks it
//! (`RunConfig::check`) at every point and compares the answer by value
//! with [`rejection`], the one combination it must refuse; a refused
//! point runs nothing. [`points`] samples the lattice and [`all_pairs`]
//! covers every pair of values of the given dimensions. A failing
//! point prints itself and its program as source text that pastes into
//! a fixed wrapper (the proptest shim does not shrink).
//!
//! The engine has one dispatch discipline, so the lattice has no
//! engine dimension: other within-epoch dispatch orders are
//! enumerated by `tests/explore.rs`, through schedule scripts.
//!
//! To add a dimension: add its values to [`Point::at`] and its size to
//! [`SIZES`] (index 0 is the plain value). To add a wrapper: `mod
//! lattice;` in the test file, then `check` fixed points or a
//! `proptest!` over `points`.

#![allow(dead_code)]

use std::ops::{Deref, DerefMut, Range};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use lots::apps::adapter::{AppResult, DsmProgram};
use lots::apps::churn::{self, placement_for, ChurnParams};
use lots::apps::hotobj::{self, HotParams};
use lots::apps::largeobj::{self, LargeObjParams};
use lots::apps::runner::{run_app, RunConfig, RunOutcome, System};
use lots::apps::{lu, lu::LuParams, me, me::MeParams, rx, rx::RxParams, sor, sor::SorParams};
use lots::core::{
    CompactionConfig, ConfigError, DsmApi, DsmSlice, FitPolicy, PersistConfig, PersistStore,
    Placement, Pod, RestoredCluster, Striping, SwapConfig, SwapPolicyKind,
};
use lots::sim::machine::p4_fedora;
use lots::sim::{CrashFault, FaultPlan, Partition, SimDuration, SimInstant};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

// ---------------------------------------------------------------------
// Points
// ---------------------------------------------------------------------

/// The arena that holds every harness program.
pub const ROOMY: usize = 1 << 20;
/// An arena below the [`Script`] live set: LOTS swaps. LOTS-x is not
/// run on it (see [`on_lattice`]).
pub const TIGHT: usize = 64 * 1024;
/// JIAJIA's shared space at every lattice point.
pub const JIA_BYTES: usize = 4 << 20;

/// Dimension indices into [`Coords`].
pub const SYSTEM: usize = 0;
pub const DMM: usize = 1;
pub const SWAP: usize = 2;
pub const FIT: usize = 3;
pub const STRIPE: usize = 4;
pub const PERSIST: usize = 5;
pub const FAULTS: usize = 6;
pub const ANALYZE: usize = 7;
pub const NODES: usize = 8;
/// Number of values per dimension.
pub const SIZES: [usize; 9] = [3, 2, 3, 2, 3, 3, 4, 2, 3];
/// The dimensions the tier-1 cover pairs up.
pub const PAIRED: [usize; 8] = [SYSTEM, DMM, SWAP, STRIPE, PERSIST, FAULTS, ANALYZE, NODES];
/// One value index per dimension.
pub type Coords = [usize; 9];

/// One configuration of the lattice: the [`RunConfig`] it runs (a
/// `Point` derefs to it) and the coordinates it was built from.
#[derive(Debug, Clone)]
pub struct Point {
    pub cfg: RunConfig,
    /// The coordinates [`Point::at`] built this point from.
    pub coords: Option<Coords>,
}

impl Deref for Point {
    type Target = RunConfig;
    fn deref(&self) -> &RunConfig {
        &self.cfg
    }
}

impl DerefMut for Point {
    fn deref_mut(&mut self) -> &mut RunConfig {
        &mut self.cfg
    }
}

impl Point {
    /// `n` nodes of `system` over `bytes` of DMM arena and of shared
    /// space, every other dimension plain.
    pub fn new(system: System, n: usize, bytes: usize) -> Point {
        let mut cfg = RunConfig::new(system, n, p4_fedora());
        (cfg.dmm_bytes, cfg.shared_bytes) = (bytes, bytes);
        Point { cfg, coords: None }
    }

    /// The lattice point at `c` (see [`SIZES`]).
    pub fn at(c: Coords) -> Point {
        let system = [System::Lots, System::LotsX, System::Jiajia][c[SYSTEM]];
        let n = [2, 3, 4][c[NODES]];
        let jitter = FaultPlan {
            seed: 777,
            max_msg_delay: SimDuration::from_micros(300),
            cpu_slowdown: vec![(1, 1.5)],
            ..FaultPlan::none()
        };
        // A minority partition, healing mid-run, once there is one.
        let cut = (n > 2).then(|| Partition {
            start: SimInstant(500_000),
            end: SimInstant(3_000_000),
            islanders: vec![n - 1],
        });
        let lossy = FaultPlan {
            loss_permille: 40,
            dup_permille: 25,
            reorder_permille: 50,
            partitions: cut.into_iter().collect(),
            ..jitter.clone()
        };
        let mut crash = lossy.clone();
        let reboot = SimDuration::from_millis(5);
        crash.crash_node = Some(CrashFault {
            node: 1,
            at_barrier: 2,
            reboot,
        });
        let poll = SimDuration::from_micros(50);
        let eager = CompactionConfig {
            enabled: true,
            garbage_permille: 1,
            min_log_bytes: 1,
            poll,
        };
        let batched = SwapConfig {
            policy: SwapPolicyKind::Lru,
            batch_evict: 3,
            read_ahead: true,
            compress: false,
        };
        let pinned = Striping {
            segment_bytes: 516,
            placement: Placement::Fixed(n - 1),
        };
        let every = |k| Some(PersistConfig::every(k));
        let mut cfg = RunConfig::new(system, n, p4_fedora());
        cfg.dmm_bytes = [ROOMY, TIGHT][c[DMM]];
        cfg.shared_bytes = JIA_BYTES;
        cfg.lots.swap = [SwapConfig::default(), SwapConfig::tuned(), batched][c[SWAP]];
        cfg.lots.striping = [None, Some(Striping::segments_of(1024)), Some(pinned)][c[STRIPE]];
        cfg.lots.alloc.fit = [FitPolicy::BestFit, FitPolicy::FirstFit][c[FIT]];
        cfg.persist =
            [None, every(2), every(1).map(|p| p.with_compaction(eager))][c[PERSIST]].clone();
        cfg.faults = [FaultPlan::none(), jitter, lossy, crash][c[FAULTS]].clone();
        cfg.analyze.race_detect = c[ANALYZE] == 1;
        Point {
            cfg,
            coords: Some(c),
        }
    }

    /// This point with `f` applied.
    pub fn with(mut self, f: impl FnOnce(&mut Point)) -> Point {
        f(&mut self);
        self
    }

    /// This point with cluster and fault-plan seed `seed`.
    pub fn seeded(self, seed: u64) -> Point {
        self.with(|p| (p.seed, p.faults.seed) = (seed, seed))
    }

    /// Source text that rebuilds this point.
    pub fn literal(&self) -> String {
        match self.coords {
            Some(c) if self.seed == 0 => format!("Point::at({c:?})"),
            Some(c) => format!("Point::at({c:?}).seeded({})", self.seed),
            None => format!("{self:?}"),
        }
    }

    /// Run `prog` once here; a panic propagates.
    pub fn run<P: DsmProgram + Clone>(&self, prog: &P) -> RunOutcome {
        run_app(&self.cfg, prog.clone())
    }

    /// Re-run `prog` against a cluster restored from its journals.
    pub fn restore<P: DsmProgram + Clone>(&self, prog: &P, from: RestoredCluster) -> RunOutcome {
        let from = Some(Arc::new(from));
        self.clone().with(|p| p.restore = from).run(prog)
    }

    /// [`Point::run`], with a panic turned into its message.
    pub fn outcome<P: DsmProgram + Clone>(&self, prog: &P) -> Outcome {
        caught(|| self.run(prog))
    }
}

/// `f`'s value, or the message it panicked with.
pub fn caught<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let text = e.downcast_ref::<&str>().map(|s| s.to_string());
        text.or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    })
}

/// `n` nodes of LOTS, LOTS-x and JIAJIA over `bytes`.
pub fn all_three(n: usize, bytes: usize) -> [Point; 3] {
    [System::Lots, System::LotsX, System::Jiajia].map(|s| Point::new(s, n, bytes))
}

/// Per-node checksums of a run.
pub fn checksums(run: &RunOutcome) -> Vec<u64> {
    run.per_node.iter().map(|r| r.checksum).collect()
}

/// Scheduler turns, wakes, epochs and hand-offs: functions of the
/// simulated schedule only.
pub fn sched(run: &RunOutcome) -> [u64; 4] {
    let s = &run.sched;
    [s.turns, s.wakes, s.epochs, s.handoffs]
}

/// A node's result with no timed section.
pub fn untimed(checksum: u64) -> AppResult {
    let elapsed = SimDuration::ZERO;
    AppResult { checksum, elapsed }
}

/// A run, or the message it panicked with.
pub type Outcome = Result<RunOutcome, String>;

/// What the library must refuse `p` with: JIAJIA has no crash-rejoin.
pub fn rejection(p: &Point) -> Option<ConfigError> {
    let crash = p.system == System::Jiajia && p.faults.crash_node.is_some();
    crash.then_some(ConfigError::CrashRejoinUnsupported)
}

/// LOTS-x on the [`TIGHT`] arena is no lattice point. There the
/// [`Script`]'s live set outgrows the DMM area, which is the program's
/// failure (`DsmError::LotsXCapacity`, tested by value in
/// `failure_and_limits`), not a configuration the library refuses.
pub fn on_lattice(c: &Coords) -> bool {
    !(c[SYSTEM] == 1 && c[DMM] == 1)
}

/// Lattice points with the dimensions in `free` sampled and the rest at
/// `base`, [`Point::seeded`] with any `u64`. A draw [`on_lattice`]
/// refuses takes the roomy arena.
pub fn points(base: Coords, free: &'static [usize]) -> impl Strategy<Value = Point> {
    (any::<u64>(), any::<u64>()).prop_map(move |(draw, seed)| {
        let mut c = base;
        for &d in free {
            c[d] = (draw.rotate_left(7 * d as u32) % 1021) as usize % SIZES[d];
        }
        if !on_lattice(&c) {
            c[DMM] = 0;
        }
        Point::at(c).seeded(seed)
    })
}

/// A deterministic cover of the lattice over `dims` (the rest at 0) in
/// which every pair of values of two of them appears at some point
/// [`on_lattice`] that the library runs (no [`rejection`]). Pairs only
/// other points hold are left out.
pub fn all_pairs(dims: &[usize]) -> Vec<Point> {
    let total: usize = dims.iter().map(|&d| SIZES[d]).product();
    // Each candidate's pairs, as indices into one open/covered table.
    let candidates: Vec<(Coords, Vec<usize>)> = (0..total)
        .map(|mut k| {
            let mut c = [0; SIZES.len()];
            for &d in dims {
                (c[d], k) = (k % SIZES[d], k / SIZES[d]);
            }
            let mut pairs = Vec::new();
            for (i, &a) in dims.iter().enumerate() {
                pairs.extend(
                    dims[i + 1..]
                        .iter()
                        .map(|&b| ((a * 4 + c[a]) * SIZES.len() + b) * 4 + c[b]),
                );
            }
            (c, pairs)
        })
        .filter(|(c, _)| on_lattice(c) && rejection(&Point::at(*c)).is_none())
        .collect();
    let mut open = vec![false; 16 * SIZES.len() * SIZES.len()];
    candidates
        .iter()
        .flat_map(|c| &c.1)
        .for_each(|&p| open[p] = true);
    let mut cover = Vec::new();
    while open.contains(&true) {
        let gain = |(_, pairs): &&(Coords, Vec<usize>)| pairs.iter().filter(|&&p| open[p]).count();
        let (c, pairs) = candidates.iter().max_by_key(gain).expect("candidates");
        pairs.iter().for_each(|&p| open[p] = false);
        cover.push(Point::at(*c));
    }
    cover
}

// ---------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------

/// What a program's sequential model predicts.
#[derive(Debug, Clone, PartialEq)]
pub enum Model {
    /// Every node's checksum.
    Nodes(Vec<u64>),
    /// The nodes' checksums summed (wrapping).
    Sum(u64),
}

/// A workload the harness can check: a `DsmProgram` with its model.
pub trait Program: DsmProgram + Clone + std::fmt::Debug {
    /// What a run at `p` computes; `None` where the program races (it
    /// then has no model and need not run clean under the detector).
    fn model(&self, p: &Point) -> Option<Model>;
    /// Source text that rebuilds this program.
    fn literal(&self) -> String {
        format!("{self:?}")
    }
}

/// Run `prog` at every point and hold each run to the checks in the
/// module docs; returns each point's first run.
pub fn check<P: Program>(points: &[Point], prog: &P) -> Vec<Outcome> {
    let mut seen: Vec<(usize, u64, Vec<u64>)> = Vec::new();
    let mut one = |p: &Point| {
        let at = format!("check(&[{}], &{})", p.literal(), prog.literal());
        let refused = p.cfg.check().err();
        assert_eq!(refused, rejection(p), "{at}: refused");
        if let Some(e) = refused {
            return Err(e.to_string());
        }
        let store = p.persist.as_ref().map(|_| PersistStore::new(p.n));
        let first = p
            .clone()
            .with(|p| p.persist_store = store.clone())
            .outcome(prog);
        let flip = p.analyze.race_detect as usize;
        let twin = p.clone().with(|p| p.analyze.race_detect = flip == 0);
        let twin = twin.outcome(prog);
        let (a, b) = match (&first, &twin) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => {
                assert_eq!(a.as_ref().err(), b.as_ref().err(), "{at}: replay diverged");
                let e = a.as_ref().unwrap_err();
                assert!(
                    p.faults.panic_node.is_some() && e.contains("fault injection"),
                    "{at}: {e}"
                );
                return first;
            }
        };
        let results = checksums(a);
        let replay = "replay with analysis flipped diverged";
        assert_eq!(
            (&results, &a.fingerprint, sched(a)),
            (&checksums(b), &b.fingerprint, sched(b)),
            "{at}: {replay}"
        );
        let model = prog.model(p);
        match &model {
            Some(Model::Nodes(want)) => assert_eq!(&results, want, "{at}: vs the model"),
            Some(Model::Sum(want)) => assert_eq!(&a.combined.checksum, want, "{at}: vs the model"),
            None => {}
        }
        match seen.iter().find(|(n, s, _)| (*n, *s) == (p.n, p.seed)) {
            _ if model.is_none() => {}
            Some((_, _, other)) => assert_eq!(&results, other, "{at}: vs the other points"),
            None => seen.push((p.n, p.seed, results.clone())),
        }
        for (me, &(clock, charged)) in a.clocks.iter().enumerate() {
            assert!(clock > SimInstant::ZERO, "{at}: node {me} idle");
            assert_eq!(
                charged,
                SimDuration(clock.nanos()),
                "{at}: node {me} charged"
            );
        }
        assert!([a, b][flip].races.is_none(), "{at}: analysis off, races on");
        let races = [b, a][flip].races.as_ref().expect("analysis was on");
        assert!(model.is_none() || races.is_empty(), "{at}: races:\n{races}");
        assert_eq!(
            a.traffic.msgs_dropped(),
            0,
            "{at}: a loss was not recovered"
        );
        if let Some(store) = &store {
            let torn = store.fork();
            torn.truncate_tail(0, store.log_bytes(0) as usize - 1);
            for (what, log) in [("sealed", store), ("torn", &torn)] {
                let restored = log
                    .restore()
                    .unwrap_or_else(|e| panic!("{at}: {what}: {e:?}"));
                let again = p.restore(prog, restored);
                assert_eq!(
                    (checksums(&again), &again.fingerprint),
                    (results.clone(), &a.fingerprint),
                    "{at}: restore from the {what} journals diverged"
                );
            }
        }
        first
    };
    points.iter().map(&mut one).collect()
}

/// The first run of a supported, non-panicking point.
pub fn ran(o: &Outcome) -> &RunOutcome {
    o.as_ref().expect("the point ran")
}

// ---------------------------------------------------------------------
// Element ops, in two access styles and in the model
// ---------------------------------------------------------------------

/// How a program touches shared data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Per-element checked accessors (`read`, `write`, `write_from`…).
    Elements,
    /// View guards, two of them live at once for `MirrorAdd`.
    Guards,
}

/// One raw op draw `(kind, x, y, value)`; [`decode`] bounds it.
pub type RawOp = (usize, usize, usize, i32);

/// The seven ops, bounded to an array of `len ≥ 1` elements.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `a[i] = v`.
    Write(usize, i32),
    Read(usize),
    /// `a[lo..hi] = v, v + 1, …`.
    BulkWrite(usize, usize, i32),
    BulkRead(usize, usize),
    /// `a[i] ^= v`.
    Update(usize, i32),
    /// `a[lo + len/2 + k] += a[lo + k]` for `k < span ≤ 64`, within
    /// the lower half (an `Update` on a one-element array).
    MirrorAdd(usize, usize),
    /// A write through an `offset`/`prefix` handle.
    PtrWrite(usize, i32),
}

pub fn decode((kind, x, y, v): RawOp, len: usize) -> Op {
    let (i, j) = (x % len, y % len);
    let (lo, hi) = (i.min(j), i.max(j));
    match kind % 7 {
        0 => Op::Write(i, v),
        1 => Op::Read(i),
        2 => Op::BulkWrite(lo, hi, v),
        3 => Op::BulkRead(lo, hi),
        5 if len > 1 => {
            let w = (len / 2).min(64);
            Op::MirrorAdd(x % (len / 2 - w + 1), 1 + y % w)
        }
        4 | 5 => Op::Update(i, v),
        _ => Op::PtrWrite(i, v),
    }
}

fn bulk(lo: usize, hi: usize, v: i32) -> Vec<i32> {
    (0..hi - lo).map(|k| v.wrapping_add(k as i32)).collect()
}

/// Fold one value into a checksum.
fn note(ck: u64, v: i32) -> u64 {
    ck.wrapping_mul(31).wrapping_add(v as u32 as u64)
}

/// Element types the programs run over. The model computes in `i32`;
/// an element is the `lift` of a model value and reads back through
/// `low` (`low(lift(v)) == v`, and the zero fill lowers to 0).
pub trait Lift: Pod + std::fmt::Debug {
    fn lift(v: i32) -> Self;
    fn low(self) -> i32;
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

/// Apply `raw` to `a`, noting what it reads into `ck`.
fn exec<T: Lift, S: DsmSlice<Elem = T>>(a: &S, raw: RawOp, access: Access, ck: &mut u64) {
    let half = a.len() / 2;
    let lift = |vals: Vec<i32>| vals.into_iter().map(T::lift).collect::<Vec<T>>();
    let add = |x: T, s: i32| T::lift(x.low().wrapping_add(s));
    match (access, decode(raw, a.len())) {
        (_, Op::BulkRead(lo, hi)) => *ck = read_all(a, lo..hi, access).into_iter().fold(*ck, note),
        (Access::Elements, Op::Write(i, v)) => a.write(i, T::lift(v)),
        (Access::Elements, Op::Read(i)) => *ck = note(*ck, a.read(i).low()),
        (Access::Elements, Op::BulkWrite(lo, hi, v)) => a.write_from(lo, &lift(bulk(lo, hi, v))),
        (Access::Elements, Op::Update(i, v)) => a.update(i, |x| T::lift(x.low() ^ v)),
        (Access::Elements, Op::MirrorAdd(lo, span)) => {
            for k in lo..lo + span {
                let s = a.read(k).low();
                a.update(k + half, |x| add(x, s));
            }
        }
        (Access::Elements, Op::PtrWrite(i, v)) => a.offset(i).prefix(1).write(0, T::lift(v)),
        (Access::Guards, Op::Write(i, v)) => a.view_mut(i..i + 1)[0] = T::lift(v),
        (Access::Guards, Op::Read(i)) => *ck = note(*ck, a.view(i..i + 1)[0].low()),
        (Access::Guards, Op::BulkWrite(lo, hi, v)) => {
            a.view_mut(lo..hi).copy_from_slice(&lift(bulk(lo, hi, v)))
        }
        (Access::Guards, Op::Update(i, v)) => {
            let mut g = a.view_mut(i..i + 1);
            g[0] = T::lift(g[0].low() ^ v);
        }
        (Access::Guards, Op::MirrorAdd(lo, span)) => {
            // Two live guards at once over disjoint ranges.
            let (src, upper) = (a.view(lo..lo + span), a.offset(half));
            let mut dst = upper.view_mut(lo..lo + span);
            (0..span).for_each(|k| dst[k] = add(dst[k], src[k].low()));
        }
        (Access::Guards, Op::PtrWrite(i, v)) => {
            a.offset(i).prefix(1).view_mut(0..1)[0] = T::lift(v)
        }
    }
}

/// [`exec`] on a plain vector: the model's side.
fn exec_model(a: &mut [i32], raw: RawOp, ck: &mut u64) {
    let half = a.len() / 2;
    match decode(raw, a.len()) {
        Op::Write(i, v) | Op::PtrWrite(i, v) => a[i] = v,
        Op::Read(i) => *ck = note(*ck, a[i]),
        Op::BulkWrite(lo, hi, v) => a[lo..hi].copy_from_slice(&bulk(lo, hi, v)),
        Op::BulkRead(lo, hi) => *ck = a[lo..hi].iter().fold(*ck, |c, &v| note(c, v)),
        Op::Update(i, v) => a[i] ^= v,
        Op::MirrorAdd(lo, span) => {
            (lo..lo + span).for_each(|k| a[k + half] = a[k + half].wrapping_add(a[k]))
        }
    }
}

/// Every element of `a[range]` in `access` style, lowered.
fn read_all<T: Lift, S: DsmSlice<Elem = T>>(
    a: &S,
    range: Range<usize>,
    access: Access,
) -> Vec<i32> {
    match access {
        Access::Elements => a
            .read_vec(range.start, range.len())
            .into_iter()
            .map(T::low)
            .collect(),
        Access::Guards => a.view(range).iter().map(|&v| v.low()).collect(),
    }
}

fn sum(vals: &[i32]) -> u64 {
    vals.iter()
        .fold(0u64, |s, &v| s.wrapping_add(v as u32 as u64))
}

/// The seeded draws programs are generated from.
struct Draw(TestRng);

impl Draw {
    fn new(seed: u64) -> Draw {
        Draw(TestRng::deterministic(&format!("lattice {seed}")))
    }
    fn below(&mut self, k: usize) -> usize {
        self.0.below(k as u64) as usize
    }
    fn op(&mut self) -> RawOp {
        (
            self.below(7),
            self.below(1 << 20),
            self.below(1 << 20),
            self.0.next_u64() as i32,
        )
    }
    fn access(&mut self) -> Access {
        [Access::Elements, Access::Guards][self.below(2)]
    }
}

// ---------------------------------------------------------------------
// The phase script
// ---------------------------------------------------------------------

/// Elements of the named object each phase stages.
const NAMED_LEN: usize = 8;
/// 8 KB objects phase 0 allocates and phase 1 frees: more than the
/// object half of a [`TIGHT`] arena holds.
const BALLAST: usize = 5;
const BALLAST_LEN: usize = 2048;

/// One synchronization interval of a [`Script`].
#[derive(Debug, Clone)]
pub struct Phase {
    /// Collective allocations: element count, and whether it is placed
    /// (`placement_for` its allocation number).
    pub allocs: Vec<(usize, bool)>,
    /// `(object draw, op)`: each op runs on one object allocated this
    /// phase, by that object's owner (allocation number mod `n`), so
    /// no other node touches it before the barrier.
    pub ops: Vec<(usize, RawOp)>,
    /// Every node adds `me + 1` to the shared counter under lock 0.
    pub counter: bool,
    /// Live-set draws the owners free.
    pub frees: Vec<usize>,
}

/// A data-race-free SPMD program of phases. Each phase allocates
/// (collective and placed), has node `p mod n` stage a named object,
/// runs its ops, frees, has every node bump the counter, then barriers.
/// After the barrier the stager writes its named object, every node
/// reads (and one frees) the previous phase's, and every node sweeps
/// the live set.
/// At the end every node reads the counter under its lock. Phase 0 also
/// allocates [`BALLAST`] objects, which their owners fill and every node
/// touches after the barrier, and phase 1 frees: memory pressure that
/// overflows a [`TIGHT`] arena, and dirty extents for later phases to
/// recycle.
#[derive(Debug, Clone)]
pub struct Script {
    pub seed: u64,
    pub access: Access,
    /// Bump the counter in every phase.
    pub locked: bool,
    pub phases: Vec<Phase>,
}

impl Script {
    /// The script drawn from `seed`.
    pub fn random(seed: u64) -> Script {
        let mut d = Draw::new(seed);
        let access = d.access();
        let phases = (0..2 + d.below(2))
            .map(|_| Phase {
                allocs: (0..d.below(3))
                    .map(|_| {
                        // Short handles, page-sized ones, and ones that
                        // cross pages and stripes.
                        let (lo, n) = [(1, 129), (130, 895), (1025, 1023)][d.below(3)];
                        (lo + d.below(n), d.below(2) == 1)
                    })
                    .collect(),
                ops: (0..d.below(7)).map(|_| (d.below(8), d.op())).collect(),
                counter: d.below(2) == 1,
                frees: (0..d.below(3)).map(|_| d.below(64)).collect(),
            })
            .collect();
        Script {
            seed,
            access,
            locked: false,
            phases,
        }
    }

    /// This script, bumping the counter in every phase.
    pub fn locked(mut self) -> Script {
        self.locked = true;
        self
    }

    /// The live-set positions phase `ph` frees, in removal order.
    fn frees(ph: &Phase, live: usize) -> Vec<usize> {
        let mut at: Vec<usize> = ph.frees.iter().map(|&f| f % live.max(1)).collect();
        at.sort_unstable();
        at.dedup();
        at.retain(|&k| k < live);
        at.into_iter().rev().collect()
    }

    /// The ops phase `ph` runs, each with its object's live position.
    fn ops(ph: &Phase, fresh: usize) -> impl Iterator<Item = (usize, RawOp)> + '_ {
        let made = ph.allocs.len();
        ph.ops
            .iter()
            .filter(move |_| made > 0)
            .map(move |&(k, op)| (fresh + k % made, op))
    }
}

impl DsmProgram for Script {
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        let (n, me) = (dsm.n(), dsm.me());
        let counter = dsm.alloc::<u32>(1);
        let mut live: Vec<(usize, D::Slice<'_, u32>)> = Vec::new();
        let (mut ck, mut uid, mut ballast) = (0u64, 0, Vec::new());
        for (p, ph) in self.phases.iter().enumerate() {
            if p == 0 {
                ballast = (0..BALLAST)
                    .map(|k| match k % 2 {
                        1 => dsm.alloc_placed::<u32>(BALLAST_LEN, placement_for(k, n)),
                        _ => dsm.alloc::<u32>(BALLAST_LEN),
                    })
                    .collect();
                for (k, b) in ballast.iter().enumerate().filter(|(k, _)| k % n == me) {
                    b.view_mut(0..BALLAST_LEN).fill(k as u32 + 1);
                }
            }
            let fresh = live.len();
            for &(len, placed) in &ph.allocs {
                let s = match placed {
                    true => dsm.alloc_placed::<u32>(len, placement_for(uid, n)),
                    false => dsm.alloc::<u32>(len),
                };
                live.push((uid, s));
                uid += 1;
            }
            if me == p % n {
                dsm.alloc_named::<u32>(&format!("t{p}"), NAMED_LEN);
            }
            for (at, raw) in Script::ops(ph, fresh) {
                let (u, s) = live[at];
                if u % n == me {
                    exec(&s, raw, self.access, &mut ck);
                }
            }
            for at in Script::frees(ph, live.len()) {
                let (u, s) = live.remove(at);
                if u % n == me {
                    dsm.free(s);
                }
            }
            if p == 1 {
                let owned = ballast.drain(..).enumerate().filter(|(k, _)| k % n == me);
                owned.for_each(|(_, b)| dsm.free(b));
            }
            if ph.counter || self.locked {
                dsm.with_lock(0, || counter.update(0, |v| v + me as u32 + 1));
            }
            dsm.barrier();
            if me == p % n {
                dsm.lookup::<u32>(&format!("t{p}"))
                    .write(0, 1000 + p as u32);
            }
            if p >= 1 {
                let t = dsm.lookup::<u32>(&format!("t{}", p - 1));
                ck = ck.wrapping_add(t.read(0) as u64);
                if me == p % n {
                    dsm.free(t);
                }
            }
            for b in &ballast {
                ck = ck.wrapping_add(b.read(BALLAST_LEN - 1) as u64);
            }
            for (_, s) in &live {
                ck = ck.wrapping_add(sum(&read_all(s, 0..s.len(), self.access)));
            }
        }
        dsm.barrier();
        let total = dsm.with_lock(0, || counter.read(0)) as u64;
        untimed(ck.wrapping_add(total))
    }
}

impl Program for Script {
    fn model(&self, at: &Point) -> Option<Model> {
        let n = at.n;
        let mut ck = vec![0u64; n];
        let mut live: Vec<(usize, Vec<i32>)> = Vec::new();
        let (mut counter, mut uid) = (0u64, 0);
        for (p, ph) in self.phases.iter().enumerate() {
            let fresh = live.len();
            for &(len, _) in &ph.allocs {
                live.push((uid, vec![0; len]));
                uid += 1;
            }
            for (k, raw) in Script::ops(ph, fresh) {
                let (u, a) = &mut live[k];
                exec_model(a, raw, &mut ck[*u % n]);
            }
            if ph.counter || self.locked {
                counter += (n * (n + 1) / 2) as u64;
            }
            for k in Script::frees(ph, live.len()) {
                live.remove(k);
            }
            // Phase 0 touches the ballast; later phases read the
            // previous phase's named object.
            let first = match p {
                0 => (1..=BALLAST as u64).sum(),
                _ => 1000 + p as u64 - 1,
            };
            let swept = live.iter().fold(first, |s, (_, a)| s.wrapping_add(sum(a)));
            ck.iter_mut().for_each(|c| *c = c.wrapping_add(swept));
        }
        Some(Model::Nodes(
            ck.into_iter().map(|c| c.wrapping_add(counter)).collect(),
        ))
    }

    fn literal(&self) -> String {
        let (a, l, s) = (self.access, self.locked, self.seed);
        format!("Script {{ access: Access::{a:?}, locked: {l}, ..Script::random({s}) }}")
    }
}

// ---------------------------------------------------------------------
// The striped-view cut
// ---------------------------------------------------------------------

/// Element type of a [`Cut`] object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Elem {
    U32,
    U64,
    F64,
}

/// Virtual compute a [`Cut`] reader burns to fall behind the writers.
const BEHIND_OPS: u64 = 2_000_000;

/// One object, rewritten each round by writers `0..n-1` — writer `w`
/// runs its ops on stripe `w`, whose bounds fall inside segments — while
/// node `n-1` reads the whole object, every stripe and a window around
/// every stripe boundary through views that span segments the writers
/// are rewriting. Each view must show the previous barrier's state.
/// Meant for striped LOTS points: elsewhere such a read races.
#[derive(Debug, Clone)]
pub struct Cut {
    pub seed: u64,
    pub elem: Elem,
    pub access: Access,
    /// The reader burns virtual time first, so it reads after the
    /// writers wrote instead of before.
    pub behind: bool,
    pub len: usize,
    /// `rounds[3r + w]`: writer `w`'s ops in round `r`.
    pub rounds: Vec<Vec<RawOp>>,
}

impl Cut {
    pub fn random(seed: u64) -> Cut {
        let mut d = Draw::new(seed);
        let (elem, access) = ([Elem::U32, Elem::U64, Elem::F64][d.below(3)], d.access());
        let (behind, len) = (d.below(2) == 1, 2000 + d.below(2000));
        let writers = 3 * (2 + d.below(2));
        let mut ops = |_| (0..1 + d.below(6)).map(|_| d.op()).collect();
        let rounds = (0..writers).map(|_| ops(())).collect();
        Cut {
            seed,
            elem,
            access,
            behind,
            len,
            rounds,
        }
    }

    fn stripe(&self, n: usize, w: usize) -> Range<usize> {
        w * self.len / (n - 1)..(w + 1) * self.len / (n - 1)
    }

    /// What the reader views: the object, each stripe, and a window
    /// across each stripe's start.
    fn spans(&self, n: usize) -> Vec<Range<usize>> {
        let whole = 0..self.len;
        let mut spans = vec![whole];
        for s in (0..n - 1).map(|w| self.stripe(n, w)) {
            spans.push(s.start.saturating_sub(40)..(s.start + 40).min(self.len));
            spans.push(s);
        }
        spans
    }

    fn go<T: Lift, D: DsmApi>(&self, dsm: &D) -> u64 {
        let (n, me) = (dsm.n(), dsm.me());
        let a = dsm.alloc::<T>(self.len);
        let mut ck = 0u64;
        for round in self.rounds.chunks(3) {
            if me + 1 < n {
                let r = self.stripe(n, me);
                let s = a.offset(r.start).prefix(r.len());
                round[me % 3]
                    .iter()
                    .for_each(|&raw| exec(&s, raw, self.access, &mut ck));
            } else {
                if self.behind {
                    dsm.charge_compute(BEHIND_OPS);
                }
                for span in self.spans(n) {
                    ck = read_all(&a, span, self.access).into_iter().fold(ck, note);
                }
            }
            dsm.barrier();
        }
        read_all(&a, 0..self.len, self.access)
            .into_iter()
            .fold(ck, note)
    }
}

impl DsmProgram for Cut {
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        untimed(match self.elem {
            Elem::U32 => self.go::<u32, D>(dsm),
            Elem::U64 => self.go::<u64, D>(dsm),
            Elem::F64 => self.go::<f64, D>(dsm),
        })
    }
}

impl Program for Cut {
    fn model(&self, p: &Point) -> Option<Model> {
        p.lots.striping.filter(|_| p.system != System::Jiajia)?;
        let n = p.n;
        let mut state = vec![0i32; self.len];
        let mut ck = vec![0u64; n];
        for round in self.rounds.chunks(3) {
            for span in self.spans(n) {
                ck[n - 1] = state[span].iter().fold(ck[n - 1], |c, &v| note(c, v));
            }
            for (w, c) in ck.iter_mut().enumerate().take(n - 1) {
                let r = self.stripe(n, w);
                round[w % 3]
                    .iter()
                    .for_each(|&raw| exec_model(&mut state[r.clone()], raw, c));
            }
        }
        let last = |c| state.iter().fold(c, |c, &v| note(c, v));
        Some(Model::Nodes(ck.into_iter().map(last).collect()))
    }

    fn literal(&self) -> String {
        let (e, a, b, s) = (self.elem, self.access, self.behind, self.seed);
        format!(
            "Cut {{ elem: Elem::{e:?}, access: Access::{a:?}, behind: {b}, ..Cut::random({s}) }}"
        )
    }
}

// ---------------------------------------------------------------------
// The apps, with their sequential functions as models
// ---------------------------------------------------------------------

/// `impl Program` from a model expression over the program `$s` and
/// the point `$p`.
macro_rules! modelled {
    ($($app:ty: |$s:ident, $p:ident| $model:expr;)*) => {$(
        impl Program for $app {
            fn model(&self, $p: &Point) -> Option<Model> {
                let $s = self;
                Some($model)
            }
        }
    )*};
}

modelled! {
    SorParams: |s, _p| Model::Sum(sor::sor_sequential(*s));
    LuParams: |s, _p| Model::Sum(lu::lu_sequential(*s));
    RxParams: |s, p| Model::Sum(rx::rx_sequential(RxParams { seed: s.seed ^ p.seed, ..*s }, p.n));
    MeParams: |s, p| Model::Sum(me::me_sequential(MeParams { seed: s.seed ^ p.seed, ..*s }, p.n));
    ChurnParams: |s, p| Model::Nodes(vec![churn::model_checksum(s, p.seed); p.n]);
    Test2: |s, _p| Model::Sum(largeobj::expected_sum(s.0) as u64);
}

impl Program for HotParams {
    /// The snapshot visibility rule holds on striped LOTS only.
    fn model(&self, p: &Point) -> Option<Model> {
        p.lots.striping.filter(|_| p.system != System::Jiajia)?;
        let node = |me| hotobj::model_node_checksum(self, p.seed, p.n, me);
        Some(Model::Nodes((0..p.n).map(node).collect()))
    }
}

/// The apps at the sizes the wrappers run them.
pub const SOR_SMALL: SorParams = SorParams { n: 64, iters: 4 };
pub const RX_SMALL: RxParams = RxParams {
    total: 1 << 12,
    passes: 2,
    seed: 20040920,
};
pub const CHURN_SMALL: ChurnParams = ChurnParams {
    phases: 6,
    objs_per_phase: 2,
    elems: 2048,
    retain: 1,
    ckpt_elems: 16,
};
/// 1 MB, three rounds of rotating writers overlapping every node's
/// reads.
pub const HOT_TINY: HotParams = HotParams {
    elems: 128 << 10,
    rounds: 3,
    single_home: false,
};

/// Test 2 (§4.3) as a program.
#[derive(Debug, Clone, Copy)]
pub struct Test2(pub LargeObjParams);

impl DsmProgram for Test2 {
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        let out = largeobj::large_object_test(dsm, self.0).expect("large-object test");
        AppResult {
            checksum: out.sum as u64,
            elapsed: out.elapsed,
        }
    }
}

/// Every node writes its own word of one 4 KB object outside any lock,
/// then another under one lock: an acquirer whose grant names the
/// object (or page) must keep the word it has not published yet.
#[derive(Debug, Clone, Copy)]
pub struct WriteThenLockedWrite;

impl DsmProgram for WriteThenLockedWrite {
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        let a = dsm.alloc::<u32>(1024);
        dsm.barrier();
        a.write(dsm.me(), 7);
        dsm.with_lock(0, || a.write(512 + dsm.me(), 7));
        dsm.barrier();
        let sum = a.read_vec(0, 1024).iter().map(|&v| v as u64).sum();
        // A journaled run seals a checkpoint that a torn tail leaves.
        dsm.barrier();
        untimed(sum)
    }
}

impl Program for WriteThenLockedWrite {
    fn model(&self, p: &Point) -> Option<Model> {
        Some(Model::Nodes(vec![14 * p.n as u64; p.n]))
    }
}
