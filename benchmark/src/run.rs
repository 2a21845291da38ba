//! One workload: set-up, the timed reps, the traced rep and micro
//! section, and the result line the driver reads.
//!
//! An end-to-end run (`--trace 0`) is measured in [`WORKERS`] fresh
//! *worker* processes, one after another. Each worker times its own
//! set-up (input generation, model checksums and one warm-up rep —
//! that is `setup_s`), then runs identical timed reps for its share of
//! `--seconds`. The process the driver started only pools what the
//! workers report: medians over all reps, all set-ups and all peak
//! RSS readings. Pooling processes matters on this code base: the
//! simulator's host cost depends on how glibc's allocator happens to
//! lay out a process (the same seed ran `weak_scale` reps at 1.8 s
//! with 630 MB or at 2.2 s with 1050 MB, process by process), so one
//! process is one sample, however many reps it runs.
//!
//! A traced run (`--trace 1`) is a single process: a few untraced
//! reps, one traced rep and the micro section, reporting every
//! per-layer metric. End-to-end numbers never come from a traced rep.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use lots_apps::System;

use crate::cases::{Case, Role};
use crate::host::{self, summarize, Stopwatch};
use crate::json::{self, Value};
use crate::micro;
use crate::spec::{Clock, END_TO_END, PER_LAYER, RSS_LIMIT_MB};
use crate::trace::{self, TraceSink, Track};
use crate::workloads::{self, Ops, Rep};

/// Worker processes per end-to-end run.
const WORKERS: usize = 3;

/// Fewest timed reps per worker, however short its share of
/// `--seconds` is (so a run never has fewer than six). A worker's
/// peak RSS is read after exactly this many: a slow machine fits
/// fewer reps into the budget and the allocator's high-water mark
/// creeps up with every rep, so `VmHWM` is read at a fixed amount of
/// work, not at exit.
const WORKER_MIN_REPS: usize = 2;

/// Fewest untraced reps before the traced one.
const TRACED_MIN_REPS: usize = 3;

/// What a workload process is asked to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Pool [`WORKERS`] worker processes into the end-to-end metrics.
    EndToEnd,
    /// Untraced reps, one traced rep, the micro section: every
    /// per-layer metric.
    Traced,
    /// One worker of an end-to-end run: set-up and timed reps in this
    /// process, reported as a [`WorkerReport`] line.
    Worker,
}

/// What one workload process is asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed reps.
    pub seconds: f64,
    /// Smoke sizes.
    pub quick: bool,
    /// What to report.
    pub mode: Mode,
}

/// The driver-facing result of a run.
#[derive(Debug)]
pub struct RunResult {
    /// Every op verified and no shape check failed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Metric name → (value, unit), in spec order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// The one-line JSON object the driver parses.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    json::number(*value),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Everything set-up produces: the cases with their model answers and
/// the verified warm-up rep.
struct Ready {
    cases: Vec<Case>,
    warm: Rep,
    ops: Ops,
    setup_s: f64,
}

/// Input generation + model checksums + one warm-up rep, timed from
/// `started` (process start).
fn set_up(args: &RunArgs, started: Stopwatch) -> Result<Ready, String> {
    let cases = workloads::build(&args.workload, args.seed, args.quick)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let warm = workloads::run_rep(&cases, None);
    let mut ops = Ops::default();
    workloads::verify(&cases, &warm, &mut ops);
    Ok(Ready {
        cases,
        warm,
        ops,
        setup_s: started.elapsed_quiet(),
    })
}

/// Run timed reps until `budget_s` is spent and at least `min_reps`
/// are done; each is verified and must reproduce the warm-up rep's
/// virtual fingerprint (one op). Also returns the peak RSS right
/// after the `min_reps`-th rep.
fn timed_reps(
    ready: &mut Ready,
    budget_s: f64,
    min_reps: usize,
) -> Result<(Vec<Rep>, f64), String> {
    let want = workloads::fingerprint(&ready.warm);
    let watch = Stopwatch::start();
    let mut reps = Vec::new();
    let mut peak_rss_mb = 0.0;
    while reps.len() < min_reps || watch.elapsed().0 < budget_s {
        let rep = workloads::run_rep(&ready.cases, None);
        workloads::verify(&ready.cases, &rep, &mut ready.ops);
        let got = workloads::fingerprint(&rep);
        ready.ops.check(got == want, || {
            format!(
                "rep {} virtual fingerprint {got:x} differs from the warm-up's {want:x}",
                reps.len()
            )
        });
        reps.push(rep);
        let rss = host::peak_rss_mb();
        if rss > RSS_LIMIT_MB {
            return Err(format!("peak RSS {rss:.0} MB exceeds {RSS_LIMIT_MB} MB"));
        }
        if reps.len() == min_reps {
            peak_rss_mb = rss;
        }
    }
    Ok((reps, peak_rss_mb))
}

/// What one worker process measured (its stdout's last line, as JSON).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerReport {
    /// Process start → first timed rep, steal taken out.
    pub setup_s: f64,
    /// Wall of every timed rep, steal taken out.
    pub rep_walls_s: Vec<f64>,
    /// Steal taken out of the reps, in total.
    pub stolen_s: f64,
    /// `VmHWM` after the warm-up and [`WORKER_MIN_REPS`] timed reps.
    pub peak_rss_mb: f64,
    /// Σ virtual execution time of the primary cases.
    pub virtual_s: f64,
    /// Σ virtual execution time of the baseline cases.
    pub virtual_baseline_s: f64,
    /// JSON-safe virtual fingerprint of the reps (all identical).
    pub fingerprint: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// What failed (one entry per failed op).
    pub failures: Vec<String>,
}

impl WorkerReport {
    fn to_json_line(&self) -> String {
        let nums = |v: &[f64]| {
            v.iter()
                .map(|x| json::number(*x))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let failures: Vec<String> = self.failures.iter().map(|f| json::quote(f)).collect();
        format!(
            "{{\"setup_s\": {}, \"rep_walls_s\": [{}], \"stolen_s\": {}, \"peak_rss_mb\": {}, \
             \"virtual_s\": {}, \"virtual_baseline_s\": {}, \"fingerprint\": {}, \
             \"attempted\": {}, \"failures\": [{}]}}",
            json::number(self.setup_s),
            nums(&self.rep_walls_s),
            json::number(self.stolen_s),
            json::number(self.peak_rss_mb),
            json::number(self.virtual_s),
            json::number(self.virtual_baseline_s),
            json::number(self.fingerprint),
            self.attempted,
            failures.join(", ")
        )
    }

    fn from_json_line(line: &str) -> Result<WorkerReport, String> {
        let doc = json::parse(line).map_err(|e| format!("worker report: {e}"))?;
        let num = |k: &str| {
            doc.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("worker report lacks number {k}"))
        };
        let list = |k: &str| {
            doc.get(k)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("worker report lacks list {k}"))
        };
        Ok(WorkerReport {
            setup_s: num("setup_s")?,
            rep_walls_s: list("rep_walls_s")?
                .iter()
                .filter_map(Value::as_f64)
                .collect(),
            stolen_s: num("stolen_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            virtual_s: num("virtual_s")?,
            virtual_baseline_s: num("virtual_baseline_s")?,
            fingerprint: num("fingerprint")?,
            attempted: num("attempted")? as u64,
            failures: list("failures")?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
        })
    }
}

/// The worker half of an end-to-end run, in this process.
fn work(args: &RunArgs, started: Stopwatch) -> Result<WorkerReport, String> {
    let mut ready = set_up(args, started)?;
    let (reps, peak_rss_mb) = timed_reps(&mut ready, args.seconds, WORKER_MIN_REPS)?;
    Ok(WorkerReport {
        setup_s: ready.setup_s,
        rep_walls_s: walls(&reps),
        stolen_s: reps.iter().map(|r| r.stolen_s).sum(),
        peak_rss_mb,
        virtual_s: workloads::virtual_s(&ready.cases, &ready.warm, Role::Primary),
        virtual_baseline_s: workloads::virtual_s(&ready.cases, &ready.warm, Role::Baseline),
        fingerprint: workloads::fingerprint_metric(workloads::fingerprint(&ready.warm)),
        attempted: ready.ops.attempted,
        failures: ready.ops.failures,
    })
}

/// Run one worker in a fresh process of this same binary, measuring
/// for `seconds`, and wait for it.
fn spawn_worker(args: &RunArgs, seconds: f64) -> Result<WorkerReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .arg("--worker")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn worker: {e}"))?;
    if !out.status.success() {
        return Err(format!("worker exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    WorkerReport::from_json_line(text.lines().last().unwrap_or(""))
}

/// The end-to-end metrics of a run, pooled over [`WORKERS`] workers.
fn end_to_end(args: &RunArgs) -> Result<RunResult, String> {
    let mut ops = Ops::default();
    let mut workers: Vec<WorkerReport> = Vec::new();
    for k in 0..WORKERS {
        let w = spawn_worker(args, args.seconds / WORKERS as f64)?;
        ops.attempted += w.attempted;
        ops.failed += w.failures.len() as u64;
        ops.failures
            .extend(w.failures.iter().map(|f| format!("worker {k}: {f}")));
        if let Some(first) = workers.first() {
            // One more rep-to-rep identity, across processes.
            ops.check(w.fingerprint == first.fingerprint, || {
                format!("worker {k} virtual fingerprint differs from worker 0's")
            });
        }
        println!(
            "# worker {k}: set-up {:.3} s, rep walls (s) {}, {:.2} s of steal taken out, peak RSS {:.0} MB",
            w.setup_s,
            w.rep_walls_s
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" "),
            w.stolen_s,
            w.peak_rss_mb
        );
        workers.push(w);
    }
    let pooled = |f: &dyn Fn(&WorkerReport) -> Vec<f64>| {
        summarize(&workers.iter().flat_map(f).collect::<Vec<_>>())
    };
    let wall = pooled(&|w| w.rep_walls_s.clone());
    let setup = pooled(&|w| vec![w.setup_s]);
    let rss = pooled(&|w| vec![w.peak_rss_mb]);
    let mut metrics = Vec::new();
    for e in &END_TO_END {
        let (value, note) = match e.name {
            "virtual_s" => (
                workers[0].virtual_s,
                format!("virtual, identical over {} reps", wall.n + WORKERS),
            ),
            "virtual_baseline_s" => (
                workers[0].virtual_baseline_s,
                format!("virtual, identical over {} reps", wall.n + WORKERS),
            ),
            "host_wall_s" => (
                wall.median,
                format!(
                    "host, median of {} reps in {WORKERS} processes, q1 {:.4} q3 {:.4}",
                    wall.n, wall.q1, wall.q3
                ),
            ),
            "host_peak_rss_mb" => (
                rss.median,
                format!(
                    "host, median VmHWM of {WORKERS} processes after warm-up + \
                     {WORKER_MIN_REPS} reps, q1 {:.1} q3 {:.1}",
                    rss.q1, rss.q3
                ),
            ),
            "setup_s" => (
                setup.median,
                format!(
                    "host, median of {} set-ups, q1 {:.4} q3 {:.4}",
                    setup.n, setup.q1, setup.q3
                ),
            ),
            other => return Err(format!("end-to-end metric {other} has no measurement")),
        };
        print_metric(e.name, value, e.unit, &note);
        metrics.push((e.name, value, e.unit));
    }
    Ok(finish(ops, metrics))
}

/// Print the op tally and close the result.
fn finish(ops: Ops, metrics: Vec<(&'static str, f64, &'static str)>) -> RunResult {
    for f in &ops.failures {
        println!("# FAILED {f}");
    }
    println!(
        "# ops_attempted {} ops_failed {}",
        ops.attempted, ops.failed
    );
    RunResult {
        correct: ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
    }
}

fn walls(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.wall_s).collect()
}

/// Where trace files go: `benchmark/out/` under the current directory
/// when run from the repo root, `out/` when run from `benchmark/`.
fn out_dir() -> PathBuf {
    let root = PathBuf::from("benchmark");
    if root.is_dir() {
        root.join("out")
    } else {
        PathBuf::from("out")
    }
}

/// `p50` and claimed-tail virtual µs of the spans named in `names`.
fn api_wait(tracks: &[Track], names: &[&str]) -> (f64, f64, String) {
    let waits: Vec<u64> = tracks
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| names.contains(&s.name))
        .map(|s| s.virt_ns())
        .collect();
    let p50 = host::median_u64(&waits) as f64 / 1e3;
    match host::tail(&waits) {
        Some((pct, v)) => (p50, v as f64 / 1e3, format!("p{pct} of n={}", waits.len())),
        None => (p50, 0.0, format!("no tail claimed, n={}", waits.len())),
    }
}

/// The host-clock per-layer metrics that come from untraced reps.
fn rep_host_metrics(cases: &[Case], reps: &[Rep], m: &mut BTreeMap<&'static str, f64>) {
    let med = |f: &dyn Fn(&Rep) -> f64| host::median(&reps.iter().map(f).collect::<Vec<_>>());
    let turns: u64 = reps[0].runs.iter().map(|r| r.out.counts["sim.turns"]).sum();
    m.insert(
        "sim.max_concurrent",
        reps.iter()
            .flat_map(|r| &r.runs)
            .map(|r| r.out.sched.max_concurrent)
            .max()
            .unwrap_or(0) as f64,
    );
    m.insert(
        "sim.worker_busy_permille",
        med(&|r| {
            let busy: u64 = r
                .runs
                .iter()
                .flat_map(|c| &c.out.sched.worker_busy_ns)
                .sum();
            busy as f64 / (r.wall_s * 1e9) * 1000.0
        }),
    );
    m.insert(
        "sim.host_us_per_turn",
        med(&|r| r.wall_s * 1e6 / turns as f64),
    );
    m.insert("sim.host_cpu_s", med(&|r| r.cpu_s));
    m.insert(
        "jiajia.host_wall_s",
        med(&|r| {
            cases
                .iter()
                .zip(&r.runs)
                .filter(|(c, _)| c.cfg.system == System::Jiajia)
                .map(|(_, run)| run.out.host_s)
                .sum()
        }),
    );
    let replay = |f: &dyn Fn(&crate::cases::ReplayOut) -> f64| {
        med(&|r| r.runs.iter().filter_map(|c| c.replay.as_ref()).map(f).sum())
    };
    m.insert(
        "persist.restore_host_ms",
        replay(&|r| r.restore_host_s * 1e3),
    );
    m.insert("persist.replay_host_s", replay(&|r| r.replay_host_s));
}

/// The traced half of a `--trace 1` run: one traced rep (verified,
/// and virtually identical to the untraced ones), the micro section,
/// the trace file, and every per-layer metric.
fn traced_metrics(
    args: &RunArgs,
    ready: &mut Ready,
    reps: &[Rep],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let untraced_wall = host::median(&walls(reps));
    let sink = TraceSink::new();
    let traced = workloads::run_rep(&ready.cases, Some(&sink));
    workloads::verify(&ready.cases, &traced, &mut ready.ops);
    let (want, got) = (
        workloads::fingerprint(&ready.warm),
        workloads::fingerprint(&traced),
    );
    ready.ops.check(got == want, || {
        format!("traced rep fingerprint {got:x} differs from the untraced {want:x}")
    });
    let mut tracks = sink.take();

    let mut m = workloads::count_metrics(&ready.cases, &traced);
    m.insert(
        "sim.virtual_fingerprint",
        workloads::fingerprint_metric(got),
    );
    rep_host_metrics(&ready.cases, reps, &mut m);

    // What the spans say: calls, the API's virtual waits, and the
    // host time the kernels spend in their own loops.
    let api_spans = tracks
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.name.starts_with("core.api."))
        .count();
    m.insert("core.api_calls", api_spans as f64);
    let mut notes = Vec::new();
    for (p50_name, tail_name, names) in [
        (
            "core.api_barrier_vus_p50",
            "core.api_barrier_vus_tail",
            &["core.api.barrier"][..],
        ),
        (
            "core.api_view_vus_p50",
            "core.api_view_vus_tail",
            &["core.api.view", "core.api.view_mut", "core.api.writeback"][..],
        ),
        (
            "core.api_lock_vus_p50",
            "core.api_lock_vus_tail",
            &["core.api.lock"][..],
        ),
    ] {
        let (p50, tail, note) = api_wait(&tracks, names);
        m.insert(p50_name, p50);
        m.insert(tail_name, tail);
        notes.push(format!("{tail_name}: {note}"));
    }
    m.insert(
        "core.api_alloc_vus_p50",
        api_wait(
            &tracks,
            &[
                "core.api.alloc",
                "core.api.alloc_named",
                "core.api.lookup",
                "core.api.free",
            ],
        )
        .0,
    );
    let app_ns: u64 = tracks
        .iter()
        .map(|t| {
            let own = trace::self_host_ns(&t.spans);
            t.spans
                .iter()
                .zip(own)
                .filter(|(s, _)| s.name == "apps.kernel")
                .map(|(_, ns)| ns)
                .sum::<u64>()
        })
        .sum();
    m.insert(
        "apps.host_app_permille",
        app_ns as f64 / (traced.wall_s * 1e9) * 1000.0,
    );
    m.insert(
        "trace.overhead_permille",
        (traced.wall_s - untraced_wall) / untraced_wall * 1000.0,
    );

    // The micro section: spans around direct calls into the layers.
    let zero = || 0u64;
    let rec = sink.recorder(&zero);
    m.extend(micro::run(&args.workload, args.seed, args.quick, &rec));
    sink.submit("micro", 0, rec);
    tracks.extend(sink.take());
    m.insert(
        "trace.spans",
        tracks
            .iter()
            .filter(|t| t.case != "micro")
            .map(|t| t.spans.len())
            .sum::<usize>() as f64,
    );

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", args.workload));
    std::fs::write(&path, trace::write_chrome_trace(&tracks))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# trace written to {}", path.display());
    for n in notes {
        println!("# {n}");
    }
    Ok(m)
}

fn print_metric(name: &str, value: f64, unit: &str, note: &str) {
    println!("{name:<38} {value:>18.6} {unit:<9} {note}");
}

/// Do what `args.mode` asks. `started` is the process start. A worker
/// prints its own report line; for the other modes the caller prints
/// [`RunResult::to_json_line`].
pub fn run_workload(args: &RunArgs, started: Stopwatch) -> Result<RunResult, String> {
    if args.mode == Mode::Worker {
        let report = work(args, started)?;
        println!("{}", report.to_json_line());
        return Ok(RunResult {
            correct: report.failures.is_empty(),
            attempted: report.attempted,
            failed: report.failures.len() as u64,
            metrics: Vec::new(),
        });
    }
    println!(
        "# workload {} seed {} seconds {} trace {} quick {}",
        args.workload,
        args.seed,
        args.seconds,
        (args.mode == Mode::Traced) as u8,
        args.quick
    );
    if args.mode == Mode::EndToEnd {
        return end_to_end(args);
    }
    // Traced: the same budget as an end-to-end run, part on untraced
    // reps (the base of `trace.overhead_permille` and the per-rep host
    // metrics), the rest on the traced rep and the micro section.
    let mut ready = set_up(args, started)?;
    let (reps, _) = timed_reps(&mut ready, args.seconds / 3.0, TRACED_MIN_REPS)?;
    let m = traced_metrics(args, &mut ready, &reps)?;
    if !args.quick {
        workloads::check_shape(&args.workload, &ready.cases, &m, &mut ready.ops);
    }
    let mut metrics = Vec::new();
    for p in &PER_LAYER {
        let value = *m
            .get(p.name)
            .ok_or_else(|| format!("per-layer metric {} was not measured", p.name))?;
        let clock = match p.clock {
            Clock::Virtual => "virtual",
            Clock::Host => "host",
        };
        print_metric(p.name, value, p.unit, clock);
        metrics.push((p.name, value, p.unit));
    }
    Ok(finish(ready.ops, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_parses_back() {
        let r = RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                ("host_wall_s", 1.234567891, "s"),
                ("net.bytes_sent", 3.0, "bytes"),
            ],
        };
        let line = r.to_json_line();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).expect("result line parses");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(12.0));
        let wall = doc.get("metrics").unwrap().get("host_wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.234567891));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
    }

    /// A whole traced run at smoke size: every per-layer metric of the
    /// spec comes out, in spec order, and the trace file is valid JSON.
    #[test]
    fn a_traced_smoke_run_reports_every_per_layer_metric() {
        let args = RunArgs {
            workload: "churn_durable".to_string(),
            seed: 11,
            seconds: 0.0,
            quick: true,
            mode: Mode::Traced,
        };
        let r = run_workload(&args, Stopwatch::start()).expect("smoke run");
        assert!(r.correct, "ops failed");
        assert!(r.attempted > 0);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        let spec: Vec<&str> = PER_LAYER.iter().map(|p| p.name).collect();
        assert_eq!(names, spec);
        let value = |name: &str| r.metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert!(value("persist.log_bytes") > 0.0);
        assert!(value("net.retransmits") > 0.0);
        assert!(value("core.api_calls") > 0.0);
        assert_eq!(value("net.msgs_dropped"), 0.0);
        let text = std::fs::read_to_string(out_dir().join("trace-churn_durable.json"))
            .expect("trace file written");
        let doc = json::parse(&text).expect("trace file parses");
        assert!(!doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn a_worker_report_survives_its_own_line() {
        let report = WorkerReport {
            setup_s: 1.25,
            rep_walls_s: vec![2.000000001, 2.5],
            stolen_s: 0.01,
            peak_rss_mb: 640.5,
            virtual_s: 3.4,
            virtual_baseline_s: 2.1,
            fingerprint: 123456789012345.0,
            attempted: 66,
            failures: vec!["lots: node 2 checksum 1 vs model \"2\"".to_string()],
        };
        let line = report.to_json_line();
        assert!(!line.contains('\n'));
        assert_eq!(WorkerReport::from_json_line(&line), Ok(report));
        assert!(WorkerReport::from_json_line("{}").is_err());
    }

    #[test]
    fn an_unknown_workload_is_an_error_not_a_result() {
        let args = RunArgs {
            workload: "nope".to_string(),
            seed: 1,
            seconds: 0.0,
            quick: true,
            mode: Mode::Worker,
        };
        assert!(run_workload(&args, Stopwatch::start()).is_err());
    }
}
