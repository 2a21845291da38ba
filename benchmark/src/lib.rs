//! `lots-benchmark` — the repo benchmark behind `/BENCHMARK.json`.
//!
//! Four fixed-work, closed-loop workloads drive the library through
//! its public API only; five end-to-end metrics are measured on two
//! clocks (virtual: the modelled cluster; host: what the simulator
//! costs), and a separate traced run attributes both to the layers
//! from outside. See `README.md` for the command lines, the metric
//! glossary and the known limits.

pub mod cases;
pub mod driver;
pub mod host;
pub mod json;
pub mod micro;
pub mod run;
pub mod spanned;
pub mod spec;
pub mod trace;
pub mod workloads;
