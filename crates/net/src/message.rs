//! Message envelopes and wire-size accounting.
//!
//! Nodes in this reproduction live in one OS process, so no bytes are
//! actually serialized onto a wire. What the virtual-time model needs is
//! the *size the message would have had* on the paper's UDP transport;
//! the [`WireSize`] trait supplies that for protocol headers, while bulk
//! data (object copies, diffs) travels as a real [`Bytes`] payload whose
//! length counts directly.

use bytes::Bytes;
use lots_sim::SimInstant;

/// Index of a node (process) in the simulated cluster.
pub type NodeId = usize;

/// Size, in bytes, this value would occupy in a UDP datagram.
///
/// Implementations should approximate a compact C-struct encoding:
/// fixed-size headers plus any variable-length tables. Payload bytes
/// carried alongside the header are accounted separately.
pub trait WireSize {
    fn wire_size(&self) -> usize;
}

impl WireSize for () {
    fn wire_size(&self) -> usize {
        0
    }
}

/// An incoming message, delivered whole.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sending node.
    pub src: NodeId,
    /// Protocol header.
    pub msg: M,
    /// Bulk payload (object data, diffs); may be empty.
    pub payload: Bytes,
    /// Virtual time at which the sender issued the message.
    pub sent_at: SimInstant,
    /// Virtual time at which the whole message has reached the
    /// receiver: the link clock prices every fragment into it (§5: the
    /// receiver must hold every fragment before it can decode the
    /// message), and a duplicate arrives with its original.
    pub arrival: SimInstant,
    /// Total modeled wire bytes (header + payload + per-fragment headers).
    pub wire_bytes: usize,
    /// Number of UDP fragments the message is priced as.
    pub fragments: u32,
    /// Sender-side send sequence number: position of this message in
    /// the total order of everything `src` has ever sent (to any
    /// destination). `(arrival, src, seq)` is therefore a unique,
    /// schedule-independent key — a mailbox yields messages in its
    /// order, whatever order the senders pushed them in.
    pub seq: u64,
}

/// Per-fragment UDP/LOTS header overhead, modeled after a UDP header
/// plus the sequence/reassembly fields a runtime DSM prepends.
pub const FRAGMENT_HEADER_BYTES: usize = 28;

/// An envelope in a node's mailbox, ordered by virtual arrival.
///
/// The key `(arrival, src, seq)` is schedule-independent and unique to
/// a message (an in-flight duplicate shares its original's), so the
/// service order of messages delivered within one epoch is a pure
/// function of virtual time: every within-batch dispatch order
/// (a schedule script permutes them) drains the mailbox
/// identically, and so does a replay. `Ord` is reversed so that a
/// `std::collections::BinaryHeap<Buffered<M>>` pops the *earliest* key.
#[derive(Debug, Clone)]
pub struct Buffered<M> {
    pub(crate) key: (u64, NodeId, u64),
    env: Envelope<M>,
}

impl<M> Buffered<M> {
    pub fn new(env: Envelope<M>) -> Buffered<M> {
        Buffered {
            key: (env.arrival.nanos(), env.src, env.seq),
            env,
        }
    }

    /// Virtual arrival time of the buffered envelope, in nanoseconds.
    pub fn arrival_ns(&self) -> u64 {
        self.key.0
    }

    /// Consume the wrapper, yielding the envelope.
    pub fn into_env(self) -> Envelope<M> {
        self.env
    }
}

impl<M> PartialEq for Buffered<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<M> Eq for Buffered<M> {}
impl<M> PartialOrd for Buffered<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Buffered<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest key.
        other.key.cmp(&self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_header_is_zero_sized() {
        assert_eq!(().wire_size(), 0);
    }

    #[test]
    fn envelope_is_cloneable() {
        let e = Envelope {
            src: 3,
            msg: (),
            payload: Bytes::from_static(b"abc"),
            sent_at: SimInstant(5),
            arrival: SimInstant(10),
            wire_bytes: 31,
            fragments: 1,
            seq: 0,
        };
        let f = e.clone();
        assert_eq!(f.src, 3);
        assert_eq!(&f.payload[..], b"abc");
        assert_eq!(f.arrival, SimInstant(10));
    }
}
