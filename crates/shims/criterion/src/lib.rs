//! Offline stand-in for [`criterion`](https://docs.rs/criterion).
//!
//! Provides the API surface the `lots-bench` benches use —
//! `criterion_group!`/`criterion_main!`, `Criterion`,
//! `benchmark_group`, `bench_function`, `bench_with_input`,
//! `Bencher::{iter, iter_batched}`, `BenchmarkId`, `Throughput`,
//! `BatchSize`, `black_box` — and measures with plain
//! `std::time::Instant`: per benchmark it warms up once, then runs
//! `sample_size` timed samples and prints the mean (plus MB/s or
//! Melem/s when a throughput is declared). No statistics, plotting, or
//! baseline storage.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Declared per-iteration work, for derived rates in the report.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// Batching hint; the shim times every batch individually regardless.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Benchmark identifier: `function_name/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Collects sample timings for one benchmark.
pub struct Bencher {
    samples: u64,
    total: Duration,
    iters: u64,
}

impl Bencher {
    fn run_samples(samples: u64) -> Self {
        Bencher {
            samples,
            total: Duration::ZERO,
            iters: 0,
        }
    }

    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        black_box(routine()); // warm-up, untimed
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(routine());
            self.total += t0.elapsed();
            self.iters += 1;
        }
    }

    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        black_box(routine(setup()));
        for _ in 0..self.samples {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            self.total += t0.elapsed();
            self.iters += 1;
        }
    }

    fn mean(&self) -> Option<Duration> {
        (self.iters > 0).then(|| self.total / self.iters as u32)
    }
}

/// Entry point; mirrors `criterion::Criterion` builder methods.
pub struct Criterion {
    sample_size: u64,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n as u64;
        self
    }

    pub fn measurement_time(self, _d: Duration) -> Self {
        self
    }

    pub fn warm_up_time(self, _d: Duration) -> Self {
        self
    }

    pub fn configure_from_args(self) -> Self {
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: self.sample_size,
            throughput: None,
        }
    }

    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_one(&id.into().id, self.sample_size, None, f);
        self
    }

    pub fn final_summary(&mut self) {}
}

/// A named group sharing throughput/sample-size settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a Criterion,
    name: String,
    sample_size: u64,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n as u64;
        self
    }

    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().id);
        run_one(&full, self.sample_size, self.throughput, f);
        self
    }

    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().id);
        run_one(&full, self.sample_size, self.throughput, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

fn run_one(
    name: &str,
    samples: u64,
    throughput: Option<Throughput>,
    mut f: impl FnMut(&mut Bencher),
) {
    let mut b = Bencher::run_samples(samples);
    f(&mut b);
    match b.mean() {
        Some(mean) => {
            let rate = throughput.map(|t| match t {
                Throughput::Bytes(n) => {
                    format!(" ({:.1} MB/s)", n as f64 / mean.as_secs_f64() / 1e6)
                }
                Throughput::Elements(n) => {
                    format!(" ({:.2} Melem/s)", n as f64 / mean.as_secs_f64() / 1e6)
                }
            });
            println!(
                "bench {name:<48} {:>12.3} µs/iter{}",
                mean.as_secs_f64() * 1e6,
                rate.unwrap_or_default()
            );
        }
        None => println!("bench {name:<48} (no samples)"),
    }
}

/// `criterion_group!`: both the plain list form and the
/// `name/config/targets` form used by the benches here.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion::default().sample_size(3);
        let mut g = c.benchmark_group("shim");
        g.throughput(Throughput::Bytes(1024));
        let mut ran = 0u32;
        g.bench_function("sum", |b| {
            b.iter(|| (0..100u64).sum::<u64>());
            ran += 1;
        });
        g.bench_with_input(BenchmarkId::new("with_input", 7), &7u64, |b, &n| {
            b.iter_batched(|| n, |v| v * 2, BatchSize::SmallInput);
        });
        g.finish();
        assert_eq!(ran, 1);
    }
}
