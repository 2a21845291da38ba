//! The engine's lookahead over the cluster's network.
//!
//! The paper's cluster is a uniform 100 Mb Fast-Ethernet switch, which
//! the machine's [`NetModel`] captures with one latency/bandwidth pair
//! for every directed link; every send uses that model.
//!
//! What remains here is the conservative-PDES *lookahead*: the engine
//! batches into one epoch the tasks whose ready times lie within `L` of
//! the epoch floor — the members it may dispatch in any order with the
//! same result — where `L` is a lower bound on every send→arrival
//! delay. It is kept above zero: with `L = 0` the window admits nobody,
//! every epoch is one task run solo (a pure turnstile), and the epoch
//! structure the committed scheduler counters and schedule exploration
//! are functions of is gone. A degenerate zero-latency model therefore
//! falls back to the per-fragment and wire-serialization overheads that
//! every datagram still pays.

use crate::clock::SimDuration;
use crate::cost::NetModel;

/// The cluster's network shape: one uniform switch, so it carries
/// nothing beyond the machine's [`NetModel`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Topology;

impl Topology {
    /// The uniform topology.
    pub fn uniform() -> Topology {
        Topology
    }

    /// Conservative-PDES lookahead for an `n`-node cluster: a strictly
    /// positive lower bound on every send→arrival delay.
    ///
    /// The bound is the base one-way latency. Faults only ever *add*
    /// delay — jitter, reordering and retransmission all stretch
    /// arrivals — so it stays a valid bound under any plan.
    ///
    /// Degenerate guard: if the latency is zero the bound falls back to
    /// the per-fragment overhead plus one byte of wire serialization.
    /// Every arrival trails its send by at least one fragment's
    /// overhead and its (header-inclusive, hence non-empty) wire time,
    /// and [`NetModel::wire_time`] rounds up to ≥ 1 ns, so the
    /// lookahead can never collapse to zero and turn every epoch into a
    /// solo turn (module docs).
    pub fn lookahead(&self, base: &NetModel, _n: usize) -> SimDuration {
        if base.latency > SimDuration::ZERO {
            base.latency
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
        assert_eq!(Topology::uniform().lookahead(&base(), 4), base().latency);
    }

    #[test]
    fn zero_latency_link_does_not_collapse_lookahead() {
        let zero = NetModel {
            latency: SimDuration::ZERO,
            ..base()
        };
        let l = Topology::uniform().lookahead(&zero, 2);
        assert!(l > SimDuration::ZERO, "lookahead collapsed: {l}");
        assert_eq!(l, zero.per_fragment + zero.wire_time(1));
    }

    #[test]
    fn fully_overridden_zero_latency_cluster_still_positive() {
        let zero = NetModel {
            latency: SimDuration::ZERO,
            bandwidth_bps: u64::MAX,
            per_fragment: SimDuration::ZERO,
            ..base()
        };
        let l = Topology::uniform().lookahead(&zero, 2);
        // wire_time rounds up, so even infinite bandwidth leaves ≥ 1 ns.
        assert!(l > SimDuration::ZERO);
    }
}
