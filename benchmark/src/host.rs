//! Host-side measurement helpers: order statistics for noisy timings
//! and the `/proc` readers behind `host_peak_rss_mb`, `sim.host_cpu_s`
//! and the steal-corrected stopwatch every host wall is taken with.
//!
//! Every *host* number the benchmark prints is a median of repeated
//! timed reps; quartiles and the rep count go with it, and a tail
//! percentile is claimed only when at least ten samples lie beyond it.

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

/// Summarize `samples` (order irrelevant; must be non-empty).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Summary {
        n: s.len(),
        q1: quantile_sorted(&s, 0.25),
        median: quantile_sorted(&s, 0.5),
        q3: quantile_sorted(&s, 0.75),
    }
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten
/// samples beyond it, as `(percentile, value)`; `None` below 100
/// samples (no tail is claimed).
pub fn tail(samples: &[u64]) -> Option<(f64, u64)> {
    let mut s = samples.to_vec();
    s.sort_unstable();
    for permille in [999usize, 990, 950, 900] {
        let beyond = s.len() * (1000 - permille) / 1000;
        if beyond >= 10 {
            return Some((permille as f64 / 10.0, s[s.len() - 1 - beyond]));
        }
    }
    None
}

/// Median of integer samples (lower middle on even counts); 0 if empty.
pub fn median_u64(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    s[(s.len() - 1) / 2]
}

/// This process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Clock ticks per second of the `/proc` counters: Linux fixes
/// `USER_HZ` at 100, so their resolution is 10 ms.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name: state is field 3,
    // utime/stime are fields 14/15.
    let after = &stat[stat.rfind(')').expect("comm in /proc/self/stat") + 1..];
    let mut f = after.split_ascii_whitespace().skip(11);
    let utime: f64 = f.next().and_then(|v| v.parse().ok()).expect("utime");
    let stime: f64 = f.next().and_then(|v| v.parse().ok()).expect("stime");
    (utime + stime) / USER_HZ
}

/// Seconds the hypervisor has run something else while one of this
/// machine's CPUs had work to do (`steal` of the `cpu` line of
/// `/proc/stat`, summed over CPUs); 0 where the kernel reports none.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_ascii_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
        / USER_HZ
}

/// Wall time with the hypervisor's steal taken out.
///
/// The reference box is a shared VM: while a run lasts, the host can
/// deschedule its vCPUs for seconds at a time (a 2.0 s rep was seen to
/// take 4.4 s with 10 s of steal booked over the run), which no change
/// to this repository causes or cures. The simulator keeps one thread
/// runnable at a time, so steal booked while it runs is time that
/// thread stood still; subtracting it recovers what the rep costs on
/// an undisturbed machine. On a dedicated host steal is zero and this
/// is plain wall time.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    at: std::time::Instant,
    steal_s: f64,
}

impl Stopwatch {
    /// Start now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            at: std::time::Instant::now(),
            steal_s: steal_seconds(),
        }
    }

    /// `(wall, stolen)` seconds since the start; `stolen` never
    /// exceeds `wall`.
    pub fn elapsed(&self) -> (f64, f64) {
        let wall = self.at.elapsed().as_secs_f64();
        (wall, (steal_seconds() - self.steal_s).clamp(0.0, wall))
    }

    /// Seconds since the start that this machine was not stolen from.
    pub fn elapsed_quiet(&self) -> f64 {
        let (wall, stolen) = self.elapsed();
        wall - stolen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let upto = |n: u64| (1..=n).collect::<Vec<u64>>();
        assert_eq!(tail(&upto(99)), None);
        // 100 samples: only p90 leaves ten beyond it (91..=100).
        assert_eq!(tail(&upto(100)), Some((90.0, 90)));
        assert_eq!(tail(&upto(200)), Some((95.0, 190)));
        assert_eq!(tail(&upto(1000)), Some((99.0, 990)));
        assert_eq!(tail(&upto(10_000)), Some((99.9, 9990)));
    }

    #[test]
    fn integer_median_takes_the_lower_middle() {
        assert_eq!(median_u64(&[]), 0);
        assert_eq!(median_u64(&[9, 1, 5]), 5);
        assert_eq!(median_u64(&[4, 1, 3, 2]), 2);
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.5);
        assert!(cpu_seconds() >= 0.0);
        assert!(steal_seconds() >= 0.0);
        let watch = Stopwatch::start();
        let (wall, stolen) = watch.elapsed();
        assert!(stolen >= 0.0 && stolen <= wall);
    }
}
