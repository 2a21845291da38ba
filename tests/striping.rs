//! Striping property tests: randomized segment sizes × placement
//! policies × fault plans must never change what a program reads.
//!
//! * A barrier-synchronized block-write / full-read program produces
//!   checksums identical to a sequential model — and to the
//!   **unstriped oracle** — on LOTS, LOTS-x and JIAJIA, under seeded
//!   message-delay fault plans.
//! * Replays are bit-identical: the same config twice agrees on
//!   checksums, virtual times and wire traffic.
//! * The race detector stays silent on the hot-object snapshot-read
//!   workload (readers overlapping a same-interval writer are reading
//!   pinned published versions, not racing).
//! * `Placement::Fixed(node)` outside the cluster is a deterministic
//!   alloc-time configuration error on all three systems.

use lots::apps::hotobj::{model_checksum, run_hot_object, HotParams};
use lots::core::{
    run_cluster, AnalyzeConfig, ClusterOptions, DsmApi, DsmSlice, LotsConfig, Placement, Striping,
};
use lots::jiajia::{run_jiajia_cluster, JiaOptions};
use lots::sim::machine::p4_fedora;
use lots::sim::{FaultPlan, SimDuration};
use proptest::prelude::*;

const NODES: usize = 3;
const SEED: u64 = 0xC0FFEE;

/// Deterministic value of element `g` as written in interval `t`.
fn fill(t: usize, g: usize) -> u32 {
    let mut x = SEED ^ ((t as u64) << 32) ^ g as u64;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)) as u32
}

/// One randomized case: object shape, striping knobs, fault plan.
#[derive(Debug, Clone)]
struct Case {
    per: usize,
    intervals: usize,
    seg_bytes: usize,
    placement: Placement,
    delay_ns: u64,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        8usize..65,
        1usize..4,
        2usize..65,
        0usize..5,
        // 0 disables delay injection; anything else jitters messages.
        0u64..200_000,
    )
        .prop_map(|(per, intervals, seg_words, placement, delay_ns)| Case {
            per,
            intervals,
            // Word-rounded segments from 8 bytes up — tiny on purpose,
            // so even small objects stripe into many segments.
            seg_bytes: seg_words * 4,
            placement: match placement {
                0 => Placement::RoundRobin,
                1 => Placement::ConsistentHash,
                p => Placement::Fixed((p - 2) % NODES),
            },
            delay_ns,
        })
}

/// The sequential model: each interval rewrites the whole object (one
/// block per node), then every node reads it all back.
fn model(case: &Case) -> u64 {
    let elems = case.per * NODES;
    let mut sum = 0u64;
    for t in 0..case.intervals {
        let interval: u64 = (0..elems).map(|g| fill(t, g) as u64).sum();
        for _ in 0..NODES {
            sum = sum.wrapping_add(interval);
        }
    }
    sum
}

/// The SPMD program: per interval, node `me` rewrites its block
/// through one mutable view (spanning many segments when striped),
/// barriers, then bulk-reads the full object and accumulates.
fn kernel<D: DsmApi>(dsm: &D, case: &Case) -> u64 {
    let elems = case.per * NODES;
    let a = dsm.alloc::<u32>(elems);
    let (me, base) = (dsm.me(), dsm.me() * case.per);
    let mut sum = 0u64;
    for t in 0..case.intervals {
        {
            let mut v = a.view_mut(base..base + case.per);
            for (j, slot) in v.iter_mut().enumerate() {
                *slot = fill(t, base + j);
            }
        }
        dsm.barrier();
        sum = sum.wrapping_add(
            a.view(0..elems)
                .iter()
                .fold(0u64, |acc, &v| acc.wrapping_add(v as u64)),
        );
        // Writes never overlap a same-interval read of the same data,
        // so the unstriped oracle (which has no snapshot serving) sees
        // the same bytes as the striped runs.
        dsm.barrier();
        let _ = me;
    }
    sum
}

fn lots_case(case: &Case, mut cfg: LotsConfig, striped: bool) -> u64 {
    if striped {
        cfg.striping = Some(Striping {
            segment_bytes: case.seg_bytes,
            placement: case.placement,
        });
    }
    let opts = ClusterOptions::new(NODES, cfg, p4_fedora())
        .with_faults(FaultPlan::delays(case.delay_ns, SimDuration(case.delay_ns)));
    let case = case.clone();
    let (results, _) = run_cluster(opts, move |dsm| kernel(dsm, &case));
    results.iter().fold(0u64, |a, &s| a.wrapping_add(s))
}

fn jiajia_case(case: &Case) -> u64 {
    let opts = JiaOptions::new(NODES, 8 << 20, p4_fedora())
        .with_faults(FaultPlan::delays(case.delay_ns, SimDuration(case.delay_ns)));
    let case = case.clone();
    let (results, _) = run_jiajia_cluster(opts, move |dsm| kernel(dsm, &case));
    results.iter().fold(0u64, |a, &s| a.wrapping_add(s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random segment sizes × placements × fault plans: striped LOTS
    /// and LOTS-x agree with the unstriped oracle, the sequential
    /// model, and page-based JIAJIA.
    #[test]
    fn striped_matches_unstriped_oracle_everywhere(case in case_strategy()) {
        let expected = model(&case);
        let oracle = lots_case(&case, LotsConfig::small(4 << 20), false);
        prop_assert_eq!(oracle, expected, "unstriped oracle vs model");
        let striped = lots_case(&case, LotsConfig::small(4 << 20), true);
        prop_assert_eq!(striped, expected, "striped LOTS vs model");
        let lotsx = lots_case(&case, LotsConfig::lots_x(4 << 20), true);
        prop_assert_eq!(lotsx, expected, "striped LOTS-x vs model");
        prop_assert_eq!(jiajia_case(&case), expected, "JIAJIA vs model");
    }

    /// Striped runs replay bit for bit: checksums, virtual times and
    /// wire traffic identical across repeats.
    #[test]
    fn striped_replay_is_bit_identical(case in case_strategy()) {
        let run = || {
            let mut cfg = LotsConfig::small(4 << 20);
            cfg.striping = Some(Striping {
                segment_bytes: case.seg_bytes,
                placement: case.placement,
            });
            let opts = ClusterOptions::new(NODES, cfg, p4_fedora())
                .with_faults(FaultPlan::delays(case.delay_ns, SimDuration(case.delay_ns)));
            let case = case.clone();
            let (results, report) = run_cluster(opts, move |dsm| kernel(dsm, &case));
            let traffic: u64 = report.nodes.iter().map(|n| n.traffic.bytes_sent()).sum();
            (results, report.exec_time, traffic)
        };
        prop_assert_eq!(run(), run());
    }
}

/// A CI-sized hot object: 8 nodes, 1 MB in 16 KB segments, three
/// rounds of rotating writers overlapping every node's reads.
fn tiny_hot() -> (HotParams, LotsConfig) {
    let params = HotParams {
        elems: 128 << 10,
        rounds: 3,
        single_home: false,
    };
    let mut cfg = LotsConfig::small(4 << 20);
    cfg.striping = Some(Striping::segments_of(16 << 10));
    (params, cfg)
}

/// The hot-object snapshot workload (readers ahead of and behind the
/// in-flight writer) matches the sequential model and replays exactly.
#[test]
fn hot_object_matches_the_model_and_replays() {
    let (params, cfg) = tiny_hot();
    let run = || {
        let opts = ClusterOptions::new(8, cfg.clone(), p4_fedora());
        let (results, report) = run_cluster(opts, move |dsm| run_hot_object(dsm, &params));
        let checksums: Vec<u64> = results.iter().map(|r| r.checksum).collect();
        (checksums, report.exec_time)
    };
    let first = run();
    let combined = first.0.iter().fold(0u64, |a, &c| a.wrapping_add(c));
    assert_eq!(combined, model_checksum(&tiny_hot().0, 0, 8));
    assert_eq!(first, run());
}

/// Snapshot reads are not races: the ScC vector-clock detector stays
/// silent on the hot-object workload even though every round a reader
/// overlaps the in-flight writer — it reads the pinned published
/// version, not the writer's arena.
#[test]
fn race_detector_silent_on_snapshot_reads() {
    let (params, cfg) = tiny_hot();
    let opts = ClusterOptions::new(8, cfg, p4_fedora()).with_analyze(AnalyzeConfig::races());
    let (results, report) = run_cluster(opts, move |dsm| run_hot_object(dsm, &params));
    let combined = results.iter().fold(0u64, |a, r| a.wrapping_add(r.checksum));
    assert_eq!(combined, model_checksum(&tiny_hot().0, 0, 8));
    let races = report.races.expect("analysis was enabled");
    assert!(
        races.is_empty(),
        "snapshot-pinned reads flagged as races: {races:?}"
    );
}

/// `Placement::Fixed` outside the cluster fails deterministically at
/// alloc time — collective, named and striping-default paths — on all
/// three systems.
#[test]
fn fixed_placement_out_of_bounds_is_an_alloc_time_error() {
    for cfg in [LotsConfig::small(1 << 20), LotsConfig::lots_x(1 << 20)] {
        let opts = ClusterOptions::new(2, cfg, p4_fedora());
        let (results, _) = run_cluster(opts, |dsm| {
            let collective = dsm.try_alloc_placed::<u32>(16, Placement::Fixed(9));
            let named = if dsm.me() == 0 {
                dsm.try_alloc_named_placed::<u32>("oob", 16, Placement::Fixed(9))
            } else {
                Ok(())
            };
            dsm.barrier();
            (
                format!("{}", collective.expect_err("Fixed(9) on 2 nodes must fail")),
                dsm.me() != 0 || named.is_err(),
            )
        });
        for (msg, named_failed) in results {
            assert!(
                msg.contains("Fixed(9)"),
                "error must name the placement: {msg}"
            );
            assert!(named_failed, "named alloc must reject Fixed(9) when staged");
        }
    }
    let opts = JiaOptions::new(2, 1 << 20, p4_fedora());
    let (results, _) = run_jiajia_cluster(opts, |dsm| {
        format!(
            "{}",
            dsm.try_alloc_placed::<u32>(16, Placement::Fixed(9))
                .expect_err("Fixed(9) on 2 nodes must fail")
        )
    });
    for msg in results {
        assert!(
            msg.contains("Fixed(9)"),
            "error must name the placement: {msg}"
        );
    }
}

/// A striping config whose *default* placement is out of bounds fails
/// every allocation under it, not just explicit per-alloc overrides.
#[test]
fn striping_default_fixed_out_of_bounds_is_an_error() {
    let mut cfg = LotsConfig::small(1 << 20);
    cfg.striping = Some(Striping {
        segment_bytes: 64,
        placement: Placement::Fixed(7),
    });
    let opts = ClusterOptions::new(2, cfg, p4_fedora());
    let (results, _) = run_cluster(opts, |dsm| {
        format!(
            "{}",
            dsm.try_alloc::<u32>(256)
                .expect_err("striping default Fixed(7) on 2 nodes must fail")
        )
    });
    for msg in results {
        assert!(
            msg.contains("Fixed(7)"),
            "error must name the placement: {msg}"
        );
    }
}
