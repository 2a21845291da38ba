//! Per-node traffic accounting.
//!
//! The paper's §4.1 analysis attributes LOTS-vs-JIAJIA gaps largely to
//! data traffic (false sharing, home placement, ping-pong patterns);
//! these counters let the Figure 8 harness report the traffic behind
//! each timing so the causal story can be checked, not just the curve.

use std::sync::atomic::Ordering::Relaxed;

lots_sim::counters! {
    /// Shared, lock-free traffic counters for one endpoint.
    pub struct TrafficStats, rows TRAFFIC_COUNTERS;
    /// Messages sent (real transfers and modeled control messages).
    msgs_sent,
    /// Messages received.
    msgs_received,
    /// Wire bytes sent.
    bytes_sent,
    /// Wire bytes received.
    bytes_received,
    /// Fragments the sent messages were split into.
    fragments_sent,
    /// Messages dropped after exhausting every transmission attempt.
    msgs_dropped,
    /// Retransmission attempts the reliable layer paid for.
    msgs_retransmitted,
    /// Duplicate messages injected in flight by the fault plan.
    dups_sent,
    /// Duplicate messages the receiver dropped.
    dups_filtered,
}

impl TrafficStats {
    pub fn new() -> TrafficStats {
        TrafficStats::default()
    }

    /// Record an outgoing message. Called by the endpoint for real
    /// transfers and by synchronization services for analytically
    /// modeled control messages (lock/barrier coordination).
    pub fn record_send(&self, wire_bytes: usize, fragments: u32) {
        self.inner.msgs_sent.fetch_add(1, Relaxed);
        self.inner.bytes_sent.fetch_add(wire_bytes as u64, Relaxed);
        self.inner
            .fragments_sent
            .fetch_add(fragments as u64, Relaxed);
    }

    /// Record an incoming message (see [`TrafficStats::record_send`]).
    pub fn record_recv(&self, wire_bytes: usize) {
        self.inner.msgs_received.fetch_add(1, Relaxed);
        self.inner
            .bytes_received
            .fetch_add(wire_bytes as u64, Relaxed);
    }

    /// Record a message every transmission attempt of which was lost
    /// (its retry budget exhausted).
    pub fn record_drop(&self) {
        self.inner.msgs_dropped.fetch_add(1, Relaxed);
    }

    /// Record the retransmissions the reliable layer needed to get one
    /// message through.
    pub fn record_retransmits(&self, n: u32) {
        self.inner
            .msgs_retransmitted
            .fetch_add(u64::from(n), Relaxed);
    }

    /// Record a duplicate message injected in flight (sender side).
    pub fn record_dup_sent(&self) {
        self.inner.dups_sent.fetch_add(1, Relaxed);
    }

    /// Record a duplicate message dropped on the receive path.
    pub fn record_dup_filtered(&self) {
        self.inner.dups_filtered.fetch_add(1, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let s = TrafficStats::new();
        s.record_send(100, 1);
        s.record_send(200_000, 4);
        s.record_recv(64);
        assert_eq!(s.msgs_sent(), 2);
        assert_eq!(s.bytes_sent(), 200_100);
        assert_eq!(s.fragments_sent(), 5);
        assert_eq!(s.msgs_received(), 1);
        assert_eq!(s.bytes_received(), 64);
    }

    #[test]
    fn clones_share() {
        let s = TrafficStats::new();
        let t = s.clone();
        s.record_send(10, 1);
        assert_eq!(t.bytes_sent(), 10);
    }
}
