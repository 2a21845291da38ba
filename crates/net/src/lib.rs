//! `lots-net` — simulated cluster interconnect for the LOTS reproduction.
//!
//! Models the paper's transport (§3.6): dedicated point-to-point UDP
//! channels, ≤64 KB datagrams whose fragments (§5) are priced into each
//! message's wire bytes and arrival, a sliding-window flow-control
//! timing model, and per-node traffic statistics. Messages move whole
//! between nodes through in-process mailboxes, in virtual-arrival
//! order; virtual transfer times come from the [`lots_sim::NetModel`]
//! in force. [`split`] and [`Reassembler`] are the host fragmentation
//! mechanism on its own.

#![forbid(unsafe_code)]

pub mod droplog;
pub mod endpoint;
pub mod flow;
pub mod fragment;
pub mod message;
pub mod stats;

pub use droplog::DropLog;
pub use endpoint::{cluster, cluster_net, ClusterNet, NetReceiver, NetSender};
pub use flow::{LinkClock, Transmission};
pub use fragment::{split, Fragment, Reassembler};
pub use message::{Buffered, Envelope, NodeId, WireSize, FRAGMENT_HEADER_BYTES};
pub use stats::{TrafficStats, TRAFFIC_COUNTERS};
