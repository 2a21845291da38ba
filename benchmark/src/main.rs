//! Command line of the repo benchmark.
//!
//! ```text
//! lots-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     one workload in this process; the last stdout line is the
//!     result object (what the BENCHMARK.json driver runs)
//! lots-benchmark [--seed N] [--seconds S] [--quick] [--repeat]
//!     every workload, each in a child process, untraced then traced;
//!     --repeat runs the set twice and checks it against the bounds
//! lots-benchmark --spec
//!     print the content of /BENCHMARK.json
//! ```

use std::process::ExitCode;

use lots_benchmark::driver::{self, SetArgs};
use lots_benchmark::host::Stopwatch;
use lots_benchmark::run::{self, Mode, RunArgs};
use lots_benchmark::spec::{self, DEFAULT_SEED, RUN_SECONDS};

#[derive(Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat: bool,
    worker: bool,
    spec: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {s} is not a duration"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--quick" => cli.quick = true,
            "--repeat" => cli.repeat = true,
            "--worker" => cli.worker = true,
            "--spec" => cli.spec = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let started = Stopwatch::start();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("lots-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    // Smoke runs measure for a second; real ones for RUN_SECONDS.
    let seconds = cli
        .seconds
        .unwrap_or(if cli.quick { 1.0 } else { RUN_SECONDS as f64 });
    let outcome = match cli.workload {
        Some(workload) => {
            let args = RunArgs {
                workload,
                seed,
                seconds,
                quick: cli.quick,
                mode: match (cli.worker, cli.trace) {
                    (true, _) => Mode::Worker,
                    (false, true) => Mode::Traced,
                    (false, false) => Mode::EndToEnd,
                },
            };
            run::run_workload(&args, started).map(|r| {
                if args.mode != Mode::Worker {
                    println!("{}", r.to_json_line());
                }
                r.correct
            })
        }
        None => driver::run(&SetArgs {
            seed,
            seconds,
            quick: cli.quick,
            repeat: cli.repeat,
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("lots-benchmark: FAILED (see the lines marked FAILED / DISAGREE above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("lots-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
