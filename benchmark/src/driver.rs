//! The parent modes: run every workload, each in its own child
//! process (so `VmHWM` is per workload), print every metric by name
//! with its unit, and — with `--repeat` — run the whole set twice and
//! check the two sets against the benchmark's own bounds.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::json;
use crate::spec::{Better, Clock, DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS};

/// What the parent was asked to do.
#[derive(Debug, Clone)]
pub struct SetArgs {
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed reps per child.
    pub seconds: f64,
    /// Smoke sizes.
    pub quick: bool,
    /// Run the set twice and compare.
    pub repeat: bool,
}

/// One child's parsed result line.
#[derive(Debug, Clone)]
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Run one workload in a child process of this binary and parse its
/// result line. The child's own report goes through to stdout.
fn run_child(
    workload: &str,
    args: &SetArgs,
    seed: u64,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in lines {
        println!("{l}");
    }
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            trace as u8, out.status
        ));
    }
    let doc = json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let field = |k: &str| {
        doc.get(k)
            .ok_or_else(|| format!("{workload}: result lacks {k}"))
    };
    let metrics = field("metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
        failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
        metrics,
    })
}

/// Metric name → value, per workload, over both the untraced and the
/// traced child.
type SetResult = BTreeMap<&'static str, BTreeMap<String, f64>>;

/// Run all four workloads once (trace 0 then trace 1 each). Returns
/// the metrics and whether every op of every child passed.
fn run_set(args: &SetArgs, seed: u64) -> Result<(SetResult, bool), String> {
    let mut set = SetResult::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let mut all = BTreeMap::new();
        for trace in [false, true] {
            let r = run_child(w.name, args, seed, trace)?;
            println!(
                "# {} trace {}: ops_attempted {} ops_failed {}",
                w.name, trace as u8, r.attempted, r.failed
            );
            ok &= r.correct && r.failed == 0;
            all.extend(r.metrics);
        }
        set.insert(w.name, all);
    }
    Ok((set, ok))
}

/// `(second - first) / first`, signed so that positive is *worse*.
fn worsening(first: f64, second: f64, better: Better) -> f64 {
    if first == 0.0 {
        return if second == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let rel = (second - first) / first.abs();
    match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

/// Print `metric · workload · first · second · spread · bound` for
/// every metric and return whether the two sets agree: end-to-end
/// metrics within their bound (virtual ones exactly), every virtual
/// per-layer metric identical. Host per-layer metrics are listed but
/// not judged.
fn compare(first: &SetResult, second: &SetResult) -> bool {
    let mut ok = true;
    println!(
        "{:<38} {:<14} {:>18} {:>18} {:>9} {:>7}",
        "metric", "workload", "first", "second", "spread", "bound"
    );
    for w in &WORKLOADS {
        let (a, b) = (&first[w.name], &second[w.name]);
        let row = |name: &str, bound: Option<f64>, better: Better, verdict: &mut bool| {
            let (x, y) = (a[name], b[name]);
            let spread = worsening(x, y, better);
            let pass = match bound {
                Some(b) => spread.abs() <= b,
                None => true,
            };
            *verdict &= pass;
            println!(
                "{name:<38} {:<14} {x:>18.6} {y:>18.6} {:>8.2}% {:>7} {}",
                w.name,
                spread * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0)),
                if pass { "" } else { "DISAGREE" }
            );
        };
        for e in &END_TO_END {
            // The same code at the same seed: virtual sums are exact.
            let bound = match e.clock {
                Clock::Virtual => 0.0,
                Clock::Host => e.bound,
            };
            row(e.name, Some(bound), e.better, &mut ok);
        }
        for p in &PER_LAYER {
            let bound = match p.clock {
                Clock::Virtual => Some(0.0),
                Clock::Host => None,
            };
            row(p.name, bound, p.better, &mut ok);
        }
    }
    ok
}

/// Run the set (or, with `repeat`, the set twice plus a seed-reaches-
/// the-inputs check). Returns whether everything passed.
pub fn run(args: &SetArgs) -> Result<bool, String> {
    let (first, mut ok) = run_set(args, args.seed)?;
    if !args.repeat {
        return Ok(ok);
    }
    let (second, ok2) = run_set(args, args.seed)?;
    ok &= ok2;
    ok &= compare(&first, &second);
    // A different seed must change every workload's fingerprint, or
    // the seed is not reaching the inputs.
    let other = if args.seed == DEFAULT_SEED {
        DEFAULT_SEED + 1
    } else {
        DEFAULT_SEED
    };
    for w in &WORKLOADS {
        let r = run_child(w.name, args, other, true)?;
        let (a, b) = (
            first[w.name]["sim.virtual_fingerprint"],
            r.metrics["sim.virtual_fingerprint"],
        );
        let differs = a != b;
        println!(
            "# {}: sim.virtual_fingerprint seed {} = {a} vs seed {other} = {b}{}",
            w.name,
            args.seed,
            if differs {
                ""
            } else {
                "  SEED DOES NOT REACH THE INPUTS"
            }
        );
        ok &= differs && r.correct;
    }
    Ok(ok)
}
