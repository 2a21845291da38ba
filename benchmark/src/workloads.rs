//! The four fixed-work workloads: which cases each runs, how one rep
//! is verified, and how a rep's reports fold into the virtual
//! (count) metrics.
//!
//! Work per rep is pinned here and never scaled by time. `quick`
//! shrinks every size for the smoke run: same cases, same code paths,
//! numbers not comparable with the full sizes.

use std::collections::BTreeMap;

use lots_apps::churn::ChurnParams;
use lots_apps::hotobj::HotParams;
use lots_apps::largeobj::LargeObjParams;
use lots_apps::lu::LuParams;
use lots_apps::me::MeParams;
use lots_apps::rx::RxParams;
use lots_apps::sor::SorParams;
use lots_apps::{RunConfig, System};
use lots_core::{LotsConfig, PersistConfig, Placement, Striping, SwapConfig};
use lots_sim::machine::p4_fedora;
use lots_sim::{
    CrashFault, FaultPlan, Partition, SimDuration, SimInstant, TimeCategory, ALL_CATEGORIES,
};

use crate::cases::{run_case, Case, CaseRun, Expected, Kernel, MixedRows, Role};
use crate::host;
use crate::trace::TraceSink;

/// Seed of the ME/RX key sets before the cluster seed is folded in
/// (the value `lots_bench::App::run` uses).
const KEY_SEED: u64 = 20040920;

fn cfg(system: System, n: usize, seed: u64) -> RunConfig {
    let mut c = RunConfig::new(system, n, p4_fedora());
    c.seed = seed;
    c
}

/// `paper_tables`: the paper's own experiments.
fn paper_tables(seed: u64, quick: bool) -> Vec<Case> {
    let (me_total, lu_n, sor, rx_total) = if quick {
        (1 << 14, 64, SorParams { n: 64, iters: 8 }, 1 << 14)
    } else {
        (1 << 18, 192, SorParams { n: 384, iters: 24 }, 1 << 18)
    };
    let kernels = [
        (
            ["me.lots", "me.lotsx", "me.jiajia"],
            "me",
            Kernel::Me(MeParams {
                total: me_total,
                seed: KEY_SEED,
            }),
        ),
        (
            ["lu.lots", "lu.lotsx", "lu.jiajia"],
            "lu",
            Kernel::Lu(LuParams { n: lu_n }),
        ),
        (
            ["sor.lots", "sor.lotsx", "sor.jiajia"],
            "sor",
            Kernel::Sor(sor),
        ),
        (
            ["rx.lots", "rx.lotsx", "rx.jiajia"],
            "rx",
            Kernel::Rx(RxParams {
                total: rx_total,
                passes: 2,
                seed: KEY_SEED,
            }),
        ),
    ];
    let mut cases = Vec::new();
    for (names, group, kernel) in kernels {
        for (name, (system, role)) in names.into_iter().zip([
            (System::Lots, Role::Primary),
            (System::LotsX, Role::Baseline),
            (System::Jiajia, Role::Baseline),
        ]) {
            // `lots_bench::measure`'s arenas: Figure 8 sizes fit in
            // memory on every system.
            let mut c = cfg(system, 4, seed);
            c.dmm_bytes = 96 << 20;
            c.shared_bytes = 192 << 20;
            cases.push(Case::new(name, role, c, kernel, Some(group)));
        }
    }
    // Table 1 Test 2 at p = 2: 128 KB rows streamed through arenas a
    // sixteenth of the array, so every row is swapped out once. The
    // mixed-rows variant is an eighth of that size: its incompressible
    // half pays the modelled disk in full, and at Test 2's size it
    // alone would be nine tenths of `virtual_s`.
    let row_elems = 32 * 1024;
    let (rows, arena, mixed_rows, mixed_arena) = if quick {
        (64, 1 << 20, 16, 256 << 10)
    } else {
        (512, 4 << 20, 128, 1 << 20)
    };
    let test2 = Kernel::LargeObj(LargeObjParams { rows, row_elems });
    let mixed = Kernel::MixedRows(MixedRows {
        rows: mixed_rows,
        row_elems,
        seed,
    });
    let tuned: fn(&mut LotsConfig) = |c| c.swap = SwapConfig::tuned();
    let legacy: fn(&mut LotsConfig) = |c| c.swap = SwapConfig::legacy();
    for (name, role, kernel, arena, tweak, agree) in [
        (
            "test2.tuned",
            Role::Primary,
            test2,
            arena,
            tuned,
            Some("test2"),
        ),
        (
            "test2.legacy",
            Role::Baseline,
            test2,
            arena,
            legacy,
            Some("test2"),
        ),
        (
            "mixed_rows.tuned",
            Role::Primary,
            mixed,
            mixed_arena,
            tuned,
            None,
        ),
    ] {
        let mut c = cfg(System::Lots, 2, seed);
        c.dmm_bytes = arena;
        c.lots_tweak = tweak;
        cases.push(Case::new(name, role, c, kernel, agree));
    }
    cases
}

/// `hot_stripe`: bulk payloads on one large object.
fn hot_stripe(seed: u64, quick: bool) -> Vec<Case> {
    // 32 MB in 512 KB segments (four segments per p = 16 chunk). The
    // committed 256 MB / p = 64 shape of `bench_summary` needs more
    // than 16 GB of host memory, and at 64 MB one rep took 2.7 s —
    // too long for five reps plus three set-ups inside a run.
    type Tweak = fn(&mut LotsConfig);
    let (elems, striped, single): (usize, Tweak, Tweak) = if quick {
        (
            1 << 18,
            |c| c.striping = Some(Striping::segments_of(32 << 10)),
            |c| {
                c.striping = Some(Striping {
                    segment_bytes: 32 << 10,
                    placement: Placement::Fixed(0),
                });
                c.home_migration = false;
            },
        )
    } else {
        (
            4 << 20,
            |c| c.striping = Some(Striping::segments_of(512 << 10)),
            |c| {
                c.striping = Some(Striping {
                    segment_bytes: 512 << 10,
                    placement: Placement::Fixed(0),
                });
                c.home_migration = false;
            },
        )
    };
    let params = HotParams {
        elems,
        rounds: 3,
        single_home: false,
    };
    [
        ("striped.p8", Role::Primary, 8, striped, false),
        ("striped.p16", Role::Primary, 16, striped, false),
        ("single_home.p8", Role::Baseline, 8, single, true),
    ]
    .into_iter()
    .map(|(name, role, n, tweak, single_home)| {
        let mut c = cfg(System::Lots, n, seed);
        // Three times the object: at 1.5x the single-home baseline,
        // whose node 0 masters every segment, swapped 81 times.
        c.dmm_bytes = elems * 8 * 3;
        c.lots_tweak = tweak;
        c.faults = clock_jitter(seed);
        let kernel = Kernel::Hot(HotParams {
            single_home,
            ..params
        });
        Case::new(name, role, c, kernel, None)
    })
    .collect()
}

/// The seeded fault cocktail of `churn_durable`: 15‰ loss, 10‰
/// duplication, 20‰ reordering, one healing minority partition and
/// (LOTS only — JIAJIA has no rejoin protocol) one crash-rejoin.
pub fn cocktail(seed: u64, crash: bool) -> FaultPlan {
    FaultPlan {
        seed,
        loss_permille: 15,
        dup_permille: 10,
        reorder_permille: 20,
        partitions: vec![Partition {
            start: SimInstant(1_000_000),
            end: SimInstant(5_000_000),
            islanders: vec![3],
        }],
        // After the first `every(4)` checkpoint, so the journaled case
        // rebuilds its masters from its own log.
        crash_node: crash.then_some(CrashFault {
            node: 2,
            at_barrier: 6,
            reboot: SimDuration::from_millis(20),
        }),
        ..FaultPlan::none()
    }
}

/// `churn_durable`: one program, four ways.
fn churn_durable(seed: u64, quick: bool) -> Vec<Case> {
    let params = ChurnParams {
        phases: if quick { 8 } else { 32 },
        ..ChurnParams::smoke()
    };
    let kernel = Kernel::Churn(params);
    let mut cases = Vec::new();
    let mut push = |name, role, system, arena: usize, faults: FaultPlan, persist| {
        let mut c = cfg(system, 4, seed);
        c.dmm_bytes = arena;
        c.shared_bytes = 2 << 20;
        c.faults = faults;
        c.persist = persist;
        cases.push(Case::new(name, role, c, kernel, Some("churn")));
    };
    let none = FaultPlan::none;
    push("lots", Role::Primary, System::Lots, 1 << 20, none(), None);
    push(
        "lotsx",
        Role::Baseline,
        System::LotsX,
        2 << 20,
        none(),
        None,
    );
    push(
        "jiajia",
        Role::Baseline,
        System::Jiajia,
        2 << 20,
        none(),
        None,
    );
    push(
        "lots.faults",
        Role::Primary,
        System::Lots,
        1 << 20,
        cocktail(seed, true),
        None,
    );
    push(
        "lots.faults.persist",
        Role::Primary,
        System::Lots,
        1 << 20,
        cocktail(seed, true),
        Some(PersistConfig::every(4)),
    );
    push(
        "jiajia.faults.persist",
        Role::Baseline,
        System::Jiajia,
        2 << 20,
        cocktail(seed, false),
        // No background compaction here: JIAJIA's compaction daemon
        // polls a host-side shutdown flag, so whether its last run
        // lands before exit varies from rep to rep (the rep-to-rep
        // identity op caught `compaction_runs` 50 vs 51) — LOTS' did
        // not vary in 200 reps and keeps compaction on.
        Some(PersistConfig::every(4).without_compaction()),
    );
    cases
}

/// Sub-latency seeded per-message jitter (≤ 200 ns on a 95 µs link)
/// for the two workloads whose programs take no seeded input that
/// moves the virtual clock: with it the seed reaches every virtual
/// number, as on the other two workloads.
fn clock_jitter(seed: u64) -> FaultPlan {
    FaultPlan::delays(seed, SimDuration(200))
}

/// `weak_scale`: many nodes, almost no data.
fn weak_scale(seed: u64, quick: bool) -> Vec<Case> {
    // p = 64 and 128, not `bench_summary`'s 256: every node zeroes
    // two arenas, and at p = 256 with arenas big enough not to swap
    // (16 MB) the process touched 8 GB. 2 MB arenas hold both programs
    // without a single swap at these sizes (1 MB swaps 257 times), and
    // twice the iterations keep the rep above 20 000 scheduler turns.
    let (lo, hi) = if quick { (16, 32) } else { (64, 128) };
    let arena = 2 << 20;
    let churn = Kernel::Churn(ChurnParams {
        phases: 8,
        objs_per_phase: 1,
        elems: 1024,
        retain: 1,
        ckpt_elems: 16,
    });
    let sor = |p: usize| Kernel::Sor(SorParams { n: 2 * p, iters: 4 });
    [
        ("sor.p_lo", Role::Primary, System::Lots, lo, sor(lo)),
        ("churn.p_lo", Role::Primary, System::Lots, lo, churn),
        ("sor.p_hi", Role::Primary, System::Lots, hi, sor(hi)),
        ("churn.p_hi", Role::Primary, System::Lots, hi, churn),
        (
            "sor.jiajia.p_lo",
            Role::Baseline,
            System::Jiajia,
            lo,
            sor(lo),
        ),
    ]
    .into_iter()
    .map(|(name, role, system, p, kernel)| {
        let mut c = cfg(system, p, seed);
        c.dmm_bytes = arena;
        c.shared_bytes = arena;
        c.faults = clock_jitter(seed);
        Case::new(name, role, c, kernel, None)
    })
    .collect()
}

/// Build `workload`'s cases for `seed` (model answers included — this
/// is the input-generation half of set-up). `None` for an unknown name.
pub fn build(workload: &str, seed: u64, quick: bool) -> Option<Vec<Case>> {
    Some(match workload {
        "paper_tables" => paper_tables(seed, quick),
        "hot_stripe" => hot_stripe(seed, quick),
        "churn_durable" => churn_durable(seed, quick),
        "weak_scale" => weak_scale(seed, quick),
        _ => return None,
    })
}

/// One rep: every case of the workload, once, in order.
pub struct Rep {
    /// One entry per case, in case order.
    pub runs: Vec<CaseRun>,
    /// Host wall of the whole rep, hypervisor steal taken out (see
    /// [`host::Stopwatch`]).
    pub wall_s: f64,
    /// The steal that was taken out.
    pub stolen_s: f64,
    /// Process CPU seconds (user + system, all threads) the rep used.
    pub cpu_s: f64,
}

/// Run every case once.
pub fn run_rep(cases: &[Case], trace: Option<&TraceSink>) -> Rep {
    let (watch, cpu0) = (host::Stopwatch::start(), host::cpu_seconds());
    let runs = cases.iter().map(|c| run_case(c, trace)).collect();
    let (wall, stolen_s) = watch.elapsed();
    Rep {
        runs,
        wall_s: wall - stolen_s,
        stolen_s,
        cpu_s: host::cpu_seconds() - cpu0,
    }
}

/// Verified-result bookkeeping: one *op* is one checked result.
#[derive(Debug, Default)]
pub struct Ops {
    /// Results checked.
    pub attempted: u64,
    /// Results that were wrong.
    pub failed: u64,
    /// What was wrong (for the log).
    pub failures: Vec<String>,
}

impl Ops {
    /// Count one check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Check every result of one rep: per-node (or combined) checksums
/// against the sequential models, cross-system agreement within each
/// group, and replay equality (answers *and* virtual time) for the
/// journaled cases.
pub fn verify(cases: &[Case], rep: &Rep, ops: &mut Ops) {
    let mut groups: BTreeMap<&str, (&str, u64)> = BTreeMap::new();
    for (case, run) in cases.iter().zip(&rep.runs) {
        match &case.expected {
            Expected::PerNode(model) => {
                for (node, (got, want)) in run.out.per_node.iter().zip(model).enumerate() {
                    ops.check(got.checksum == *want, || {
                        format!(
                            "{}: node {node} checksum {} vs model {want}",
                            case.name, got.checksum
                        )
                    });
                }
            }
            Expected::Combined(want) => {
                let got = run.out.combined_checksum();
                ops.check(got == *want, || {
                    format!("{}: combined checksum {got} vs model {want}", case.name)
                });
            }
        }
        if let Some(group) = case.agree {
            let sum = run.out.combined_checksum();
            match groups.get(group) {
                None => {
                    groups.insert(group, (case.name, sum));
                }
                Some(&(first, want)) => ops.check(sum == want, || {
                    format!("{} disagrees with {first}: {sum} vs {want}", case.name)
                }),
            }
        }
        if let Some(replay) = &run.replay {
            ops.check(replay.answers_equal, || {
                format!("{}: restore replay answers diverged", case.name)
            });
            ops.check(replay.exec_equal, || {
                format!("{}: restore replay virtual time diverged", case.name)
            });
        }
    }
}

/// Σ virtual execution time, in seconds, over the cases with `role`.
pub fn virtual_s(cases: &[Case], rep: &Rep, role: Role) -> f64 {
    let ns: u64 = cases
        .iter()
        .zip(&rep.runs)
        .filter(|(c, _)| c.role == role)
        .map(|(_, r)| r.out.exec_ns)
        .sum();
    ns as f64 / 1e9
}

fn permille(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 1000.0 / whole as f64
    }
}

/// Per-layer metric names of the §4.1 decomposition, in
/// `lots_sim::ALL_CATEGORIES` order.
const VT_SHARES: [&str; 8] = [
    "sim.vt_compute_permille",
    "sim.vt_access_check_permille",
    "sim.vt_large_object_permille",
    "sim.vt_network_permille",
    "sim.vt_disk_permille",
    "sim.vt_diffing_permille",
    "sim.vt_sync_wait_permille",
    "sim.vt_handler_permille",
];

/// Every virtual (count) per-layer metric one rep yields, except the
/// traced `core.api_*` / `trace.spans` and the micro section's
/// `disk.rle_ratio_permille`. Counters are summed over all cases;
/// `_max` gauges and the home-load ratio take the worst case; the
/// virtual-time shares cover primary cases only.
pub fn count_metrics(cases: &[Case], rep: &Rep) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut sums: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut time_in = [0u64; 8];
    let (mut frag, mut slots, mut home_ratio) = (0u64, 0u64, 0u64);
    let (mut replay_barriers, mut resident, mut jia_ns) = (0u64, 0u64, 0u64);
    for (case, run) in cases.iter().zip(&rep.runs) {
        for (&k, &v) in &run.out.counts {
            *sums.entry(k).or_default() += v;
        }
        frag = frag.max(run.out.frag_permille_max);
        slots = slots.max(run.out.object_slots_max);
        if case.role == Role::Primary {
            home_ratio = home_ratio.max(run.out.home_load_ratio_permille);
            for (slot, ns) in time_in.iter_mut().zip(run.out.time_in_ns) {
                *slot += ns;
            }
        }
        if case.cfg.system == System::Jiajia {
            jia_ns += run.out.exec_ns;
        }
        if let Some(r) = &run.replay {
            replay_barriers += r.replay_barriers;
            resident += r.store_resident_bytes;
        }
    }
    let total: u64 = time_in.iter().sum();
    for (name, ns) in VT_SHARES.into_iter().zip(time_in) {
        m.insert(name, permille(ns, total));
    }
    m.insert(
        "core.prefetch_hit_permille",
        permille(sums["core.prefetch_hits"], sums["core.swaps_in"]),
    );
    for (k, v) in sums {
        m.insert(k, v as f64);
    }
    m.insert("core.frag_permille_max", frag as f64);
    m.insert("core.object_slots_max", slots as f64);
    m.insert("core.home_load_ratio_permille", home_ratio as f64);
    m.insert("persist.replay_barriers", replay_barriers as f64);
    m.insert("persist.store_resident_bytes", resident as f64);
    m.insert("jiajia.virtual_s", jia_ns as f64 / 1e9);

    // The paper-shape view: ratios of timed sections (the paper's
    // reported metric), 0 on workloads without the cases.
    let find = |name: &str| {
        cases
            .iter()
            .zip(&rep.runs)
            .find(|(c, _)| c.name == name)
            .map(|(c, r)| (c, &r.out))
    };
    let elapsed = |name: &str| {
        find(name).map(|(_, o)| {
            o.per_node
                .iter()
                .map(|r| r.elapsed.0)
                .max()
                .unwrap_or(0)
                .max(1) as f64
        })
    };
    let geomean_over_kernels = |num: &str, den: &str| -> f64 {
        let ratios: Vec<f64> = ["me", "lu", "sor", "rx"]
            .iter()
            .filter_map(|k| Some(elapsed(&format!("{k}.{num}"))? / elapsed(&format!("{k}.{den}"))?))
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
        }
    };
    m.insert(
        "apps.jiajia_over_lots",
        geomean_over_kernels("jiajia", "lots"),
    );
    let lots_over_lotsx = geomean_over_kernels("lots", "lotsx");
    m.insert(
        "apps.lotsx_overhead_permille",
        if lots_over_lotsx == 0.0 {
            0.0
        } else {
            (lots_over_lotsx - 1.0) * 1000.0
        },
    );
    m.insert(
        "apps.sor_check_share_permille",
        find("sor.lots").map_or(0.0, |(_, o)| {
            let check = ALL_CATEGORIES
                .iter()
                .position(|c| *c == TimeCategory::AccessCheck)
                .expect("access-check is a time category");
            permille(o.time_in_ns[check], o.time_in_ns.iter().sum())
        }),
    );
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) => n / d,
        _ => 0.0,
    };
    m.insert(
        "apps.swap_tuned_speedup",
        ratio(elapsed("test2.legacy"), elapsed("test2.tuned")),
    );
    for (metric, name) in [
        ("apps.hot_read_mbps_p8", "striped.p8"),
        ("apps.hot_read_mbps_p16", "striped.p16"),
    ] {
        let mbps = find(name).map_or(0.0, |(c, _)| match c.kernel {
            Kernel::Hot(p) => p.read_bytes() as f64 / (elapsed(name).expect("found") / 1e9) / 1e6,
            _ => 0.0,
        });
        m.insert(metric, mbps);
    }
    m.insert(
        "apps.hot_stripe_speedup",
        ratio(elapsed("single_home.p8"), elapsed("striped.p8")),
    );
    m
}

/// FNV-1a-64 over everything virtual a rep produced: every case's
/// per-node checksums and timed sections, its virtual execution time,
/// and every count metric. Any host-only or simplicity change must
/// leave it unchanged on every workload; any two seeds must differ.
pub fn fingerprint(rep: &Rep) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for run in &rep.runs {
        for r in &run.out.per_node {
            eat(r.checksum);
            eat(r.elapsed.0);
        }
        eat(run.out.exec_ns);
        for &v in run.out.counts.values() {
            eat(v);
        }
        for v in run.out.time_in_ns {
            eat(v);
        }
        eat(run.out.frag_permille_max);
        eat(run.out.object_slots_max);
        if let Some(r) = &run.replay {
            eat(r.replay_barriers);
            eat(r.store_resident_bytes);
        }
    }
    h
}

/// The fingerprint as a JSON-safe number: its low 53 bits.
pub fn fingerprint_metric(fp: u64) -> f64 {
    (fp & ((1 << 53) - 1)) as f64
}

/// The recorded numbers must show each workload stresses what it
/// claims and leaves the rest idle (full sizes only — the thresholds
/// are about the pinned sizes).
pub fn check_shape(workload: &str, cases: &[Case], m: &BTreeMap<&'static str, f64>, ops: &mut Ops) {
    // Logical bytes of the hot object: the yardstick of `hot_stripe`'s
    // traffic check (0 on the other workloads).
    let object_bytes = cases
        .iter()
        .find_map(|c| match c.kernel {
            Kernel::Hot(p) => Some(p.object_bytes() as f64),
            _ => None,
        })
        .unwrap_or(0.0);
    let mut need = |ok: bool, what: &str| {
        ops.check(ok, || format!("{workload} shape: {what}"));
    };
    let v = |k: &str| m[k];
    let persist_idle = v("persist.log_records") == 0.0 && v("persist.log_bytes") == 0.0;
    match workload {
        "paper_tables" => {
            need(v("core.swaps_out") > 0.0, "swap path must run");
            need(v("jiajia.page_faults") > 0.0, "JIAJIA must fault pages");
            need(persist_idle, "persist must be idle");
        }
        "hot_stripe" => {
            need(
                v("net.bytes_sent") >= 3.0 * object_bytes,
                "traffic below 3x the object",
            );
            need(v("apps.hot_stripe_speedup") >= 3.0, "striping under 3x");
            need(v("core.swaps_out") == 0.0, "swap must be idle");
            need(persist_idle, "persist must be idle");
        }
        "churn_durable" => {
            need(v("persist.log_bytes") > 0.0, "journal must run");
            need(v("net.retransmits") > 0.0, "loss must be exercised");
            need(v("core.rejoin_log_bytes") > 0.0, "rejoin must read its log");
            need(v("core.swaps_out") > 0.0, "swap path must run");
            need(v("net.msgs_dropped") == 0.0, "every loss must be recovered");
        }
        "weak_scale" => {
            need(v("sim.turns") >= 20_000.0, "under 20k scheduler turns");
            need(
                v("net.bytes_sent") < 32.0 * 1048576.0,
                "over 32 MB of traffic",
            );
            need(v("core.swaps_out") == 0.0, "swap must be idle");
            need(persist_idle, "persist must be idle");
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn every_spec_workload_builds_with_unique_case_names_and_both_roles() {
        for w in &WORKLOADS {
            let cases = build(w.name, 1, true).expect("spec workload builds");
            let mut names: Vec<&str> = cases.iter().map(|c| c.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), cases.len(), "{}: duplicate case name", w.name);
            for role in [Role::Primary, Role::Baseline] {
                assert!(cases.iter().any(|c| c.role == role), "{}: {role:?}", w.name);
            }
        }
        assert!(build("no_such_workload", 1, true).is_none());
    }

    #[test]
    fn a_wrong_expected_checksum_is_a_failed_op() {
        let mut cases = build("churn_durable", 3, true).expect("builds");
        cases.truncate(1);
        let rep = run_rep(&cases, None);
        let mut ops = Ops::default();
        verify(&cases, &rep, &mut ops);
        assert_eq!((ops.attempted, ops.failed), (4, 0), "{:?}", ops.failures);

        let Expected::PerNode(model) = &mut cases[0].expected else {
            panic!("churn is verified per node");
        };
        model[2] ^= 1;
        let mut ops = Ops::default();
        verify(&cases, &rep, &mut ops);
        assert_eq!((ops.attempted, ops.failed), (4, 1));
        assert!(ops.failures[0].contains("node 2"), "{:?}", ops.failures);
    }

    #[test]
    fn a_disagreeing_system_is_a_failed_op() {
        let mut cases = build("churn_durable", 3, true).expect("builds");
        cases.truncate(2);
        let mut rep = run_rep(&cases, None);
        rep.runs[1].out.per_node[0].checksum ^= 1;
        let mut ops = Ops::default();
        verify(&cases, &rep, &mut ops);
        // Node 0's own model check and the LOTS-x vs LOTS agreement.
        assert_eq!(ops.failed, 2, "{:?}", ops.failures);
    }

    #[test]
    fn reps_repeat_and_seeds_differ() {
        let cases = build("weak_scale", 5, true).expect("builds");
        let (a, b) = (run_rep(&cases, None), run_rep(&cases, None));
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(count_metrics(&cases, &a), count_metrics(&cases, &b));
        let other = build("weak_scale", 6, true).expect("builds");
        assert_ne!(fingerprint(&a), fingerprint(&run_rep(&other, None)));
        assert!(fingerprint_metric(u64::MAX) < 9_007_199_254_740_992.0);
    }

    /// The span-recording `DsmApi` wrapper must be invisible to the
    /// simulation: same checksums, same virtual times, same counters,
    /// on LOTS, LOTS-x and JIAJIA (element-wise kernels, view kernels,
    /// alloc/free/named lifecycles, swap, faults and journals).
    #[test]
    fn the_traced_wrapper_changes_nothing_virtual() {
        for workload in ["paper_tables", "churn_durable"] {
            let cases = build(workload, 9, true).expect("builds");
            let bare = run_rep(&cases, None);
            let sink = TraceSink::new();
            let traced = run_rep(&cases, Some(&sink));
            for ((case, a), b) in cases.iter().zip(&bare.runs).zip(&traced.runs) {
                assert_eq!(a.out.per_node, b.out.per_node, "{}", case.name);
                assert_eq!(a.out.exec_ns, b.out.exec_ns, "{}", case.name);
                assert_eq!(a.out.counts, b.out.counts, "{}", case.name);
                assert_eq!(a.out.time_in_ns, b.out.time_in_ns, "{}", case.name);
            }
            assert_eq!(fingerprint(&bare), fingerprint(&traced), "{workload}");
            let tracks = sink.take();
            let nodes: usize = cases.iter().map(|c| c.cfg.n).sum();
            assert_eq!(tracks.len(), nodes, "one track per node per case");
            for t in &tracks {
                assert_eq!(t.spans[0].name, "apps.kernel");
                assert!(t.spans.iter().any(|s| s.name == "core.api.barrier"));
            }
        }
    }
}
