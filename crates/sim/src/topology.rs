//! Per-link network topology overrides.
//!
//! The paper's cluster is a uniform 100 Mb Fast-Ethernet switch, which
//! the base [`NetModel`] captures with one latency/bandwidth pair for
//! every directed link. Production clusters are not uniform: racks,
//! oversubscribed uplinks and WAN bridges give each link its own
//! parameters. A [`Topology`] overlays per-directed-link overrides on a
//! base model; links without an override keep the base parameters.
//!
//! The topology also owns the conservative-PDES *lookahead* computation:
//! the engine batches into one epoch the tasks whose ready times lie
//! within `L` of the epoch floor — the members it may dispatch in any
//! order with the same result — where `L` is a lower bound on every
//! send→arrival delay. With heterogeneous links that bound is the
//! minimum over live links. It is kept above zero: with `L = 0` the
//! window admits nobody, every epoch is one task run solo (a pure
//! turnstile), and the epoch structure the committed scheduler
//! counters and schedule exploration are functions of is gone. A
//! degenerate zero-latency topology therefore falls back to the
//! per-fragment and wire-serialization overheads that every datagram
//! still pays.

use std::collections::BTreeMap;

use crate::clock::SimDuration;
use crate::cost::NetModel;

/// Parameters of one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkParams {
    /// One-way latency of this link (replaces [`NetModel::latency`]).
    pub latency: SimDuration,
    /// Effective bandwidth of this link in bytes per second (replaces
    /// [`NetModel::bandwidth_bps`]).
    pub bandwidth_bps: u64,
}

impl LinkParams {
    /// The link parameters the base model implies.
    pub fn of(model: &NetModel) -> LinkParams {
        LinkParams {
            latency: model.latency,
            bandwidth_bps: model.bandwidth_bps,
        }
    }
}

/// Per-directed-link overrides over a base [`NetModel`].
///
/// The default topology is uniform: every link uses the base model
/// unchanged, which reproduces the paper's switched-Ethernet cluster
/// (and keeps seeded runs from earlier revisions bit-identical).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Topology {
    overrides: BTreeMap<(usize, usize), LinkParams>,
}

impl Topology {
    /// The uniform topology: no overrides.
    pub fn uniform() -> Topology {
        Topology::default()
    }

    /// Override the directed link `src → dst`.
    #[must_use]
    pub fn with_link(mut self, src: usize, dst: usize, params: LinkParams) -> Topology {
        assert_ne!(src, dst, "no self-links in the topology");
        self.overrides.insert((src, dst), params);
        self
    }

    /// Override both directions between `a` and `b`.
    #[must_use]
    pub fn with_symmetric_link(self, a: usize, b: usize, params: LinkParams) -> Topology {
        self.with_link(a, b, params).with_link(b, a, params)
    }

    /// Is this the uniform topology (no per-link overrides)?
    pub fn is_uniform(&self) -> bool {
        self.overrides.is_empty()
    }

    /// Parameters of the directed link `src → dst`.
    pub fn link(&self, base: &NetModel, src: usize, dst: usize) -> LinkParams {
        self.overrides
            .get(&(src, dst))
            .copied()
            .unwrap_or_else(|| LinkParams::of(base))
    }

    /// The effective [`NetModel`] in force on the directed link
    /// `src → dst`: the base model with this link's latency and
    /// bandwidth substituted in.
    pub fn effective(&self, base: &NetModel, src: usize, dst: usize) -> NetModel {
        match self.overrides.get(&(src, dst)) {
            None => *base,
            Some(p) => NetModel {
                latency: p.latency,
                bandwidth_bps: p.bandwidth_bps,
                ..*base
            },
        }
    }

    /// Conservative-PDES lookahead for an `n`-node cluster on this
    /// topology: a strictly positive lower bound on every send→arrival
    /// delay.
    ///
    /// The bound is the minimum one-way latency over the live links of
    /// the cluster (overridden links plus, when any pair is left at the
    /// defaults, the base latency). Faults only ever *add* delay —
    /// jitter, reordering and retransmission all stretch arrivals — so
    /// the minimum link latency stays a valid bound under any plan.
    ///
    /// Degenerate guard: if the minimum latency is zero the bound falls
    /// back to the per-fragment overhead plus one byte of wire
    /// serialization. Every arrival trails its send by at least one
    /// fragment's overhead and its (header-inclusive, hence non-empty)
    /// wire time, and [`NetModel::wire_time`] rounds up to ≥ 1 ns, so
    /// the lookahead can never collapse to zero and turn every epoch
    /// into a solo turn (module docs).
    pub fn lookahead(&self, base: &NetModel, n: usize) -> SimDuration {
        let live = n * n.saturating_sub(1); // directed pairs
        let mut overridden = 0usize;
        let mut min_override = SimDuration(u64::MAX);
        for (&(src, dst), p) in &self.overrides {
            if src < n && dst < n {
                overridden += 1;
                min_override = min_override.min(p.latency);
            }
        }
        let mut min_latency = min_override;
        if overridden < live || live == 0 {
            // At least one live link (or a trivial cluster) runs at the
            // base parameters.
            min_latency = min_latency.min(base.latency);
        }
        if min_latency > SimDuration::ZERO && min_latency != SimDuration(u64::MAX) {
            min_latency
        } else {
            base.per_fragment + base.wire_time(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> NetModel {
        NetModel {
            latency: SimDuration::from_micros(100),
            bandwidth_bps: 10_000_000,
            per_fragment: SimDuration::from_micros(10),
            max_datagram: 4096,
            window_frags: 8,
        }
    }

    #[test]
    fn uniform_topology_matches_base_model() {
        let t = Topology::uniform();
        assert!(t.is_uniform());
        assert_eq!(t.effective(&base(), 0, 1), base());
        assert_eq!(t.lookahead(&base(), 4), base().latency);
    }

    #[test]
    fn overrides_apply_per_directed_link() {
        let slow = LinkParams {
            latency: SimDuration::from_millis(1),
            bandwidth_bps: 1_000_000,
        };
        let t = Topology::uniform().with_link(0, 1, slow);
        let eff = t.effective(&base(), 0, 1);
        assert_eq!(eff.latency, slow.latency);
        assert_eq!(eff.bandwidth_bps, 1_000_000);
        // Reverse direction untouched.
        assert_eq!(t.effective(&base(), 1, 0), base());
        // Unrelated link untouched.
        assert_eq!(t.effective(&base(), 2, 3), base());
    }

    #[test]
    fn lookahead_takes_min_over_live_links() {
        let fast = LinkParams {
            latency: SimDuration::from_micros(5),
            bandwidth_bps: 100_000_000,
        };
        let t = Topology::uniform().with_symmetric_link(0, 1, fast);
        assert_eq!(t.lookahead(&base(), 4), SimDuration::from_micros(5));
        // An override outside the cluster is not a live link.
        let t = Topology::uniform().with_link(7, 8, fast);
        assert_eq!(t.lookahead(&base(), 4), base().latency);
    }

    #[test]
    fn zero_latency_link_does_not_collapse_lookahead() {
        let zero = LinkParams {
            latency: SimDuration::ZERO,
            bandwidth_bps: 10_000_000,
        };
        let t = Topology::uniform().with_link(0, 1, zero);
        let l = t.lookahead(&base(), 2);
        assert!(l > SimDuration::ZERO, "lookahead collapsed: {l}");
        assert_eq!(l, base().per_fragment + base().wire_time(1));
    }

    #[test]
    fn fully_overridden_zero_latency_cluster_still_positive() {
        let zero = LinkParams {
            latency: SimDuration::ZERO,
            bandwidth_bps: u64::MAX,
        };
        let t = Topology::uniform().with_symmetric_link(0, 1, zero);
        let l = t.lookahead(&base(), 2);
        // wire_time rounds up, so even infinite bandwidth leaves ≥ 1 ns.
        assert!(l > SimDuration::ZERO);
    }
}
