//! Per-node virtual clocks.
//!
//! Every simulated DSM process owns a [`SimClock`]. The owning task is
//! the only *advancer* of its clock, but other tasks (the comm handler
//! servicing remote requests, barrier managers merging arrival times)
//! may read it or push it forward monotonically, so the counter is an
//! atomic.
//!
//! Times are in virtual nanoseconds since cluster boot. The clock never
//! moves backwards: `advance_to` with a smaller timestamp is a no-op.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point in virtual time, in nanoseconds since cluster boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimInstant {
    pub const ZERO: SimInstant = SimInstant(0);

    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    #[inline]
    #[must_use]
    pub fn saturating_sub(self, other: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    #[inline]
    #[must_use]
    pub fn max(self, other: SimInstant) -> SimInstant {
        SimInstant(self.0.max(other.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    #[inline]
    pub fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    #[inline]
    pub fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    #[inline]
    pub fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    #[inline]
    #[must_use]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl std::ops::Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign<SimDuration> for SimInstant {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl std::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

/// A monotonic per-node virtual clock, shareable across threads.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Arc<AtomicU64>,
}

impl SimClock {
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// Current virtual time on this node.
    #[inline]
    pub fn now(&self) -> SimInstant {
        SimInstant(self.now.load(Ordering::Acquire))
    }

    /// Advance the clock by `d` and return the new time.
    #[inline]
    pub fn advance(&self, d: SimDuration) -> SimInstant {
        SimInstant(self.now.fetch_add(d.0, Ordering::AcqRel) + d.0)
    }

    /// Push the clock forward to at least `t` (monotonic merge).
    ///
    /// Used when a reply or synchronization release carries a virtual
    /// timestamp later than the local clock. Returns the resulting time.
    #[inline]
    pub fn advance_to(&self, t: SimInstant) -> SimInstant {
        let mut cur = self.now.load(Ordering::Acquire);
        while cur < t.0 {
            match self
                .now
                .compare_exchange_weak(cur, t.0, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return t,
                Err(observed) => cur = observed,
            }
        }
        SimInstant(cur)
    }

    /// Reset to zero. Only for test harness reuse.
    pub fn reset(&self) {
        self.now.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        assert_eq!(c.now(), SimInstant::ZERO);
        c.advance(SimDuration::from_micros(5));
        c.advance(SimDuration::from_nanos(10));
        assert_eq!(c.now(), SimInstant(5_010));
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = SimClock::new();
        c.advance(SimDuration::from_nanos(100));
        // Pushing backwards is a no-op.
        assert_eq!(c.advance_to(SimInstant(40)), SimInstant(100));
        assert_eq!(c.now(), SimInstant(100));
        // Pushing forwards merges.
        assert_eq!(c.advance_to(SimInstant(250)), SimInstant(250));
        assert_eq!(c.now(), SimInstant(250));
    }

    #[test]
    fn clones_share_state() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(SimDuration::from_nanos(7));
        assert_eq!(b.now(), SimInstant(7));
    }

    #[test]
    fn concurrent_advance_to_never_loses_max() {
        let c = SimClock::new();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for k in 0..1000u64 {
                        c.advance_to(SimInstant(i * 1000 + k));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.now(), SimInstant(3999));
    }

    #[test]
    fn duration_display_units() {
        assert_eq!(SimDuration(999).to_string(), "999ns");
        assert_eq!(SimDuration(1_500).to_string(), "1.50us");
        assert_eq!(SimDuration(2_500_000).to_string(), "2.50ms");
        assert_eq!(SimDuration(3_200_000_000).to_string(), "3.200s");
    }

    #[test]
    fn instant_arithmetic() {
        let t = SimInstant(100) + SimDuration(50);
        assert_eq!(t, SimInstant(150));
        assert_eq!(t.saturating_sub(SimInstant(200)), SimDuration::ZERO);
        assert_eq!(t.saturating_sub(SimInstant(100)), SimDuration(50));
    }
}
