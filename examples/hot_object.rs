//! Hot object: the single-home bottleneck benchmark. One large named
//! object is hammered by every node at once — rotating writers rewrite
//! their chunk while all nodes bulk-read a rotating cold chunk — and
//! the same workload runs twice: **striped** (fixed-size segments with
//! per-segment homes, settled next to their writers by home
//! migration) and **single-home** (every segment pinned at node 0,
//! migration off — the classic one-object-one-home layout). Checksums
//! on both must match a sequential replay of the barrier-published
//! visibility model; the virtual read throughput shows why striping
//! exists.
//!
//! ```text
//! cargo run --release --example hot_object
//! LOTS_SMOKE=1 cargo run --release --example hot_object   # CI job
//! ```

use lots::apps::hotobj::{model_node_checksum, HotParams};
use lots::apps::{run_app, RunConfig, System};
use lots::core::{LotsConfig, Placement, Striping};
use lots::sim::machine::p4_fedora;

const NODES: usize = 8;
const SEED: u64 = 0;

fn run(params: HotParams, lots: LotsConfig, dmm: usize) -> (f64, f64, u64, u64, u64) {
    let mut cfg = RunConfig::new(System::Lots, NODES, p4_fedora());
    cfg.dmm_bytes = dmm;
    cfg.seed = SEED;
    cfg.lots = lots;
    let out = run_app(&cfg, params);
    for (me, r) in out.per_node.iter().enumerate() {
        assert_eq!(
            r.checksum,
            model_node_checksum(&params, SEED, NODES, me),
            "node {me} checksum vs sequential model"
        );
    }
    let secs = out.combined.elapsed.as_secs_f64();
    (
        secs,
        params.read_bytes() as f64 / secs / 1e6,
        out.home_load_ratio_permille,
        out.stats.versions_published(),
        out.stats.versions_reclaimed(),
    )
}

fn main() {
    let smoke = std::env::var("LOTS_SMOKE").is_ok_and(|v| v == "1");
    let (params, seg_bytes, dmm) = if smoke {
        // 16 MB object in 256 KB segments — the CI shape.
        (
            HotParams {
                elems: 2 << 20,
                rounds: 3,
                single_home: false,
            },
            256 << 10,
            16 << 20,
        )
    } else {
        (HotParams::bench(), 4 << 20, 448 << 20)
    };
    println!(
        "hot object: {} MB, {} nodes, {} rounds, {} KB segments",
        params.object_bytes() >> 20,
        NODES,
        params.rounds,
        seg_bytes >> 10,
    );

    let striped = LotsConfig::default().with_striping(Striping::segments_of(seg_bytes));
    let single_home = LotsConfig {
        home_migration: false,
        ..LotsConfig::default().with_striping(Striping {
            segment_bytes: seg_bytes,
            placement: Placement::Fixed(0),
        })
    };

    let (s_secs, s_mbps, s_ratio, published, reclaimed) = run(params, striped, dmm);
    assert!(published > 0, "striped writers must publish versions");
    assert!(reclaimed > 0, "superseded versions must be reclaimed");
    println!(
        "  striped     {s_secs:>8.3} s  {s_mbps:>9.1} MB/s read  home ratio {s_ratio}‰  \
         {published} versions published / {reclaimed} reclaimed"
    );

    let (b_secs, b_mbps, b_ratio, _, _) = run(
        HotParams {
            single_home: true,
            ..params
        },
        single_home,
        dmm,
    );
    println!("  single-home {b_secs:>8.3} s  {b_mbps:>9.1} MB/s read  home ratio {b_ratio}‰");
    assert_eq!(
        b_ratio,
        NODES as u64 * 1000,
        "the baseline must funnel every reply through node 0"
    );
    assert!(
        s_mbps >= 3.0 * b_mbps,
        "striping must beat the single home >= 3x: {s_mbps:.1} vs {b_mbps:.1} MB/s"
    );
    println!(
        "striping reads {:.1}x faster than the single home, checksums identical",
        s_mbps / b_mbps
    );
}
