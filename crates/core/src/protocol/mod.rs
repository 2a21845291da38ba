//! Data-plane protocol: the messages comm handlers exchange.

pub mod messages;

pub use messages::Msg;
