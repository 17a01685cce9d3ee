//! The information-slicing protocol engine (§4.3), **sans-IO**.
//!
//! This crate implements the complete two-phase protocol —
//! graph establishment and data transmission, forward and reverse — as
//! pure state machines: packets in, `(next-hop, packet)` instructions
//! out, time passed explicitly as [`Tick`]s. No sockets, no threads, no
//! runtime. The tokio overlay (`slicing-overlay`) and the deterministic
//! simulator (`slicing-sim`) both drive exactly this code, so everything
//! the benchmarks measure is the same logic the unit tests verify.
//!
//! * [`SourceSession`] — builds the forwarding graph, emits setup
//!   packets, slices/encrypts outgoing data, decodes reverse-path data.
//! * [`ShardedRelay`] — the per-overlay-node daemon state: a flow table
//!   keyed on cleartext flow-ids (§7.1), slice gathering and decoding of
//!   the node's own `I_x`, slice-map/data-map forwarding, per-hop
//!   transform stripping, network-coded regeneration, destination
//!   decode+decrypt, and stale-flow garbage collection — fanned out
//!   over `N ≥ 1` independent [`relay::RelayShard`]s routed by
//!   `hash(flow_id) % N`, so one relay scales across cores (flows are
//!   independent; only stats and the reverse-flow-id routing are
//!   shared). One shard is the bare engine: the router short-circuits.
//! * [`session`] — the endpoint layer over all of the above:
//!   arbitrary-length streamed messages ([`SourceSession::send`]), the
//!   destination-side [`DestSession`] (in-order reassembly of what the
//!   relay decoded, reverse-path acks/replies) with the [`DestHost`]
//!   that runs one per receiver flow of a relay, and the
//!   [`SessionManager`] multiplexing thousands of source sessions over
//!   one node, sharded by session id exactly like [`ShardedRelay`]
//!   shards flows.
//! * [`testnet`] — a deterministic in-memory network for driving whole
//!   graphs in tests and simulations, with failure injection.
//! * [`wheel`] — the hashed timer wheel behind the relay's flow table
//!   and the session shards: deadlines are registered once and `poll`
//!   touches only expired work.

#![forbid(unsafe_code)]

pub mod relay;
mod replay;
pub mod session;
pub mod shard;
pub mod source;
pub mod testnet;
pub mod time;
pub mod wheel;

pub use relay::{
    ReceivedData, RelayConfig, RelayOutput, RelayShard, RelayStats, RelayStatsAtomic,
};
pub use session::{
    DestHost, DestHostOutput, DestOutput, DestResident, DestSession, SessionConfig, SessionError,
    SessionId, SessionManager, SessionOutput, SessionRouter, SessionShard, SessionStats,
    SessionStatsAtomic,
};
pub use shard::{FlowRouter, ShardedRelay};
pub use source::{SourceConfig, SourceSession};
pub use time::Tick;

// Re-export the vocabulary types users need alongside the engine.
pub use slicing_graph::{DataMode, DestPlacement, GraphParams, NodeInfo, OverlayAddr};
pub use slicing_wire::{FlowId, Packet, PacketKind};

/// A packet to put on the network: send `packet` from `from` to `to`.
///
/// Re-exported from the graph layer (setup emission) and produced by
/// [`ShardedRelay`] and [`SourceSession`] alike.
pub use slicing_graph::packets::SendInstr;
