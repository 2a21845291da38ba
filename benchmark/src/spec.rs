//! The benchmark's contract in one place: workload names and reasons,
//! the five end-to-end metrics with their bounds, and every per-layer
//! metric with its unit, direction and clock. `/BENCHMARK.json` is
//! this table rendered by [`benchmark_json`] (`--spec` prints it; a
//! self-test keeps the committed file equal to it).

use std::fmt::Write as _;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 15;

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 20040920;

/// A child whose peak RSS exceeds this aborts as failed.
pub const RSS_LIMIT_MB: f64 = 4096.0;

/// A workload and why it exists.
pub struct WorkloadSpec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One sentence: what it stresses and what it leaves idle.
    pub why: &'static str,
}

/// The four workloads, in run order.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "paper_tables",
        why: "Figure 8 kernels on LOTS/LOTS-x/JIAJIA and Table 1 Test 2 with compressibility varied: \
              coherence, access checks and the swap/RLE/disk path work; net bulk, persist and faults idle",
    },
    WorkloadSpec {
        name: "hot_stripe",
        why: "one 32 MB object, a rotating writer beside all-node bulk readers, striped vs single home: \
              fragments, message heaps and twin-served versions work; swap and persist idle",
    },
    WorkloadSpec {
        name: "churn_durable",
        why: "one alloc/free churn program fault-free, under seeded loss+crash, and journaled with \
              restore+replay: the only workload where persist, faults and retransmission do work",
    },
    WorkloadSpec {
        name: "weak_scale",
        why: "tiny SOR and churn at p=64 and p=128: over 20k scheduler turns on under 32 MB of traffic, \
              so epochs, wakes and thread hand-off dominate and every data path is idle",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// A pure function of code + seed: must repeat exactly.
    Virtual,
    /// Measured on the host: noisy, comparable on one machine only.
    Host,
}

/// An end-to-end metric.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median it may worsen by; also the repeat
    /// tolerance between two sets of runs of the same code.
    pub bound: f64,
    /// Clock.
    pub clock: Clock,
}

/// The five end-to-end metrics, printed for every workload.
///
/// The virtual sums repeat *exactly* for one seed; their bound is not
/// zero because the contract compares medians over runs with
/// different seeds, and the seeded loss plan of `churn_durable` moves
/// virtual time by about 1 % from seed to seed. The host bounds are
/// what the reference box allows: a shared VM whose speed drifts by
/// 10–15 % over minutes (README, *Repeatability*).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "virtual_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.05,
        clock: Clock::Virtual,
    },
    EndToEnd {
        name: "virtual_baseline_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.05,
        clock: Clock::Virtual,
    },
    EndToEnd {
        name: "host_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        clock: Clock::Host,
    },
    EndToEnd {
        name: "host_peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        clock: Clock::Host,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        clock: Clock::Host,
    },
];

/// A per-layer metric (the layer is the name's first component, a
/// crate name).
pub struct PerLayer {
    /// `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Clock: virtual metrics are counts that must repeat exactly.
    pub clock: Clock,
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        clock: Clock::Virtual,
    }
}

const fn count_up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        clock: Clock::Virtual,
    }
}

const fn host(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        clock: Clock::Host,
    }
}

const fn host_up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        clock: Clock::Host,
    }
}

/// Every per-layer metric, printed by a `--trace 1` run.
pub const PER_LAYER: [PerLayer; 94] = [
    // sim — scheduler counts, host cost per turn, the §4.1 virtual
    // time decomposition, the determinism fingerprint, micro costs.
    count("sim.turns", "count"),
    count("sim.wakes", "count"),
    count("sim.epochs", "count"),
    host_up("sim.max_concurrent", "count"),
    host_up("sim.worker_busy_permille", "permille"),
    host("sim.host_us_per_turn", "us"),
    host("sim.host_cpu_s", "s"),
    count_up("sim.vt_compute_permille", "permille"),
    count("sim.vt_access_check_permille", "permille"),
    count("sim.vt_large_object_permille", "permille"),
    count("sim.vt_network_permille", "permille"),
    count("sim.vt_disk_permille", "permille"),
    count("sim.vt_diffing_permille", "permille"),
    count("sim.vt_sync_wait_permille", "permille"),
    count("sim.vt_handler_permille", "permille"),
    count("sim.virtual_fingerprint", "fnv1a"),
    host("sim.sched_handoff_us", "us"),
    host("sim.diskq_op_ns", "ns"),
    host("sim.fault_delivery_ns", "ns"),
    // net
    count("net.bytes_sent", "bytes"),
    count("net.msgs_sent", "count"),
    count("net.fragments_sent", "count"),
    count("net.retransmits", "count"),
    count("net.dups_filtered", "count"),
    count("net.msgs_dropped", "count"),
    host_up("net.split_reassemble_mb_per_s", "MB/s"),
    host("net.buffered_heap_ns_per_op", "ns"),
    host("net.send_recv_us_small", "us"),
    host_up("net.send_recv_mb_per_s_bulk", "MB/s"),
    // disk
    host_up("disk.rle_encode_mb_per_s", "MB/s"),
    host_up("disk.rle_decode_mb_per_s", "MB/s"),
    count("disk.rle_ratio_permille", "permille"),
    host("disk.store_put_get_us", "us"),
    // persist
    count("persist.log_records", "count"),
    count("persist.log_bytes", "bytes"),
    count("persist.checkpoint_bytes", "bytes"),
    count("persist.compaction_runs", "count"),
    count_up("persist.compaction_reclaimed_bytes", "bytes"),
    count("persist.replay_barriers", "count"),
    count("persist.store_resident_bytes", "bytes"),
    host("persist.restore_host_ms", "ms"),
    host("persist.replay_host_s", "s"),
    host("persist.append_barrier_us", "us"),
    host("persist.compact_ms", "ms"),
    host_up("persist.record_codec_mb_per_s", "MB/s"),
    host_up("persist.crc32_mb_per_s", "MB/s"),
    // core — runtime counters, the API's virtual waits, micro costs.
    count("core.access_checks", "count"),
    count("core.diffs_created", "count"),
    count("core.diff_bytes_sent", "bytes"),
    count("core.swaps_out", "count"),
    count("core.swaps_in", "count"),
    count("core.swap_out_bytes", "bytes"),
    count("core.swap_batches", "count"),
    count_up("core.prefetch_hits", "count"),
    count_up("core.prefetch_hit_permille", "permille"),
    count("core.home_requests_served", "count"),
    count("core.home_bytes_served", "bytes"),
    count("core.home_load_ratio_permille", "permille"),
    count("core.versions_published", "count"),
    count("core.versions_reclaimed", "count"),
    count("core.objects_freed", "count"),
    count("core.frag_permille_max", "permille"),
    count("core.object_slots_max", "count"),
    count("core.rejoin_log_bytes", "bytes"),
    count("core.rejoin_peer_bytes", "bytes"),
    count("core.api_calls", "count"),
    count("core.api_barrier_vus_p50", "us"),
    count("core.api_barrier_vus_tail", "us"),
    count("core.api_view_vus_p50", "us"),
    count("core.api_view_vus_tail", "us"),
    count("core.api_lock_vus_p50", "us"),
    count("core.api_lock_vus_tail", "us"),
    count("core.api_alloc_vus_p50", "us"),
    host_up("core.diff_compute_mb_per_s", "MB/s"),
    host_up("core.diff_apply_mb_per_s", "MB/s"),
    host_up("core.diff_codec_mb_per_s", "MB/s"),
    host_up("core.swap_image_encode_mb_per_s", "MB/s"),
    host_up("core.swap_image_decode_mb_per_s", "MB/s"),
    host("core.alloc_free_ns", "ns"),
    host("core.access_check_host_ns", "ns"),
    // jiajia
    count("jiajia.page_faults", "count"),
    count("jiajia.virtual_s", "s"),
    host("jiajia.host_wall_s", "s"),
    // apps — the paper-shape ratios (reported, not validated: the repo
    // holds no machine-readable paper reference values).
    count_up("apps.jiajia_over_lots", "ratio"),
    count("apps.lotsx_overhead_permille", "permille"),
    count("apps.sor_check_share_permille", "permille"),
    count_up("apps.swap_tuned_speedup", "ratio"),
    count_up("apps.hot_read_mbps_p8", "MB/s"),
    count_up("apps.hot_read_mbps_p16", "MB/s"),
    count_up("apps.hot_stripe_speedup", "ratio"),
    host("apps.host_app_permille", "permille"),
    // analyze, trace
    host("analyze.race_host_overhead_permille", "permille"),
    host("trace.overhead_permille", "permille"),
    count("trace.spans", "count"),
];

/// The content of `/BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let q = crate::json::quote;
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{}",
            q(w.name),
            q(w.why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}",
            q(m.name),
            q(m.unit),
            q(m.better.label()),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            q(m.name),
            q(m.unit),
            q(m.better.label()),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(is_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.why);
        }
        for m in &END_TO_END {
            assert!(is_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(is_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in &PER_LAYER {
            assert!(is_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(is_unit(m.unit), "{}", m.unit);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("read /BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `lots-benchmark --spec > BENCHMARK.json`"
        );
        let doc = crate::json::parse(&committed).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
